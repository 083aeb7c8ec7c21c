//! E18 — tracing overhead: the span-telemetry fast path must be free
//! when nobody subscribes to spans. Two identical ping-pong simulations
//! are timed wall-clock (`scenarios::measure_pair`): both
//! allocate a `TraceId` per packet (unconditional protocol work — the id
//! rides the wire either way), but only one emits a span marker per
//! packet with **no** span subscriber attached, the layer's common-case
//! instrumentation density: the compiled-in-but-disabled cost of
//! instrumenting every protocol hot path (DESIGN.md §9). The wall-clock
//! overhead is host time, printed and never asserted; the exact gates
//! (same events, same allocations) are in `tests/trace_overhead.rs`.

use crate::scenarios::measure_pair;
use crate::table::{ExperimentResult, Table};
use swishmem_simnet::Family;

/// Run E18.
pub fn run(quick: bool) -> ExperimentResult {
    let events: u64 = if quick { 20_000 } else { 100_000 };
    let reps: usize = if quick { 5 } else { 9 };
    let (plain, traced) = measure_pair(Family::Span, events, reps);
    let ratio = plain / traced;
    let overhead_pct = (ratio - 1.0) * 100.0;

    let mut t = Table::new(
        "Engine throughput with span telemetry compiled in (no collector attached)",
        &["config", "events", "events/s (best)", "relative"],
    );
    t.row(vec![
        "plain echo (no span emission)".into(),
        events.to_string(),
        format!("{:.2}M", plain / 1e6),
        "1.000x".into(),
    ]);
    t.row(vec![
        "traced echo (1 marker/pkt, detached)".into(),
        events.to_string(),
        format!("{:.2}M", traced / 1e6),
        format!("{:.3}x", traced / plain),
    ]);

    let findings = vec![
        format!(
            "disabled tracing costs {overhead_pct:+.2}% events/s on the ping-pong engine \
             workload (host time, reported, not gated)"
        ),
        "span emission with no span subscriber is one family check; the protocol layers \
         stay instrumented in every build"
            .into(),
    ];
    ExperimentResult {
        id: "E18".into(),
        title: "Tracing overhead: compiled-in, disabled".into(),
        paper_anchor: "DESIGN.md §9 (observability; passive-observer contract)".into(),
        expectation: "spans compiled in but no collector attached cost ≈0% events/s \
                      (host time; tests/trace_overhead.rs gates events and allocations exactly)"
            .into(),
        tables: vec![t],
        findings,
    }
}
