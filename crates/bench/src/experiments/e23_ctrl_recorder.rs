//! E23 — control-plane flight recorder overhead and fidelity: the
//! journal fast path must be free when nobody subscribes to it, and an
//! attached journal must reconstruct control-plane timings exactly. Two
//! identical ping-pong simulations are timed wall-clock (E18's
//! estimator, `scenarios::measure_pair`): both do the same protocol work
//! per packet, but only one hands a `CtrlEvent` to `Ctx::journal` with
//! **no** journal subscriber — one family check, the controller's
//! instrumentation density on its hottest paths (DESIGN.md §14). The
//! wall-clock overhead is host time, printed and never asserted; the
//! exact gates are in `tests/trace_overhead.rs`. A second table replays
//! E22's leader-crash scenario with the journal attached and asserts
//! that the journal-reconstructed failover gap agrees with the
//! controller's own election log to within 1 µs: simulated time, so a
//! miss fails the run.

use crate::scenarios::{crash_leader, election_gap, measure_pair, replicated_deployment};
use crate::table::{ExperimentResult, Table};
use swishmem::Journal;
use swishmem_simnet::Family;

/// E22's leader-crash scenario with the journal attached: returns
/// `(measured_gap_ns, journal_gap_ns)` — crash-to-election as the
/// controller's election log saw it vs as the journal reconstructs it.
pub fn crash_gaps(seed: u64) -> Option<(u64, u64)> {
    let mut dep = replicated_deployment(seed, |c| c.adaptive_detector = true);
    let journal = dep.attach_journal(1 << 16);
    dep.settle();
    let t_crash = crash_leader(&mut dep);
    let measured = election_gap(&dep, t_crash)?.as_nanos();
    let reconstructed = Journal::new(journal.borrow().events())
        .failovers()
        .iter()
        .find(|f| f.elected_at >= t_crash)
        .map(|f| f.elected_at.since(t_crash).0)?;
    Some((measured, reconstructed))
}

/// Run E23.
pub fn run(quick: bool) -> ExperimentResult {
    let events: u64 = if quick { 20_000 } else { 100_000 };
    let reps: usize = if quick { 5 } else { 9 };
    let (plain, journaled) = measure_pair(Family::Journal, events, reps);
    let overhead_pct = (plain / journaled - 1.0) * 100.0;

    let mut t = Table::new(
        "Engine throughput with the flight recorder compiled in (no collector attached)",
        &["config", "events", "events/s (best)", "relative"],
    );
    t.row(vec![
        "plain echo (no journal emission)".into(),
        events.to_string(),
        format!("{:.2}M", plain / 1e6),
        "1.000x".into(),
    ]);
    t.row(vec![
        "journaled echo (1 event/pkt, detached)".into(),
        events.to_string(),
        format!("{:.2}M", journaled / 1e6),
        format!("{:.3}x", journaled / plain),
    ]);

    let seeds: Vec<u64> = if quick {
        (801..805).collect()
    } else {
        (801..809).collect()
    };
    let mut acc = Table::new(
        "Failover gap: controller election log vs journal reconstruction",
        &["seed", "measured ns", "journal ns", "|diff| ns"],
    );
    let mut worst_diff: u64 = 0;
    let mut reconstructed = 0usize;
    for &seed in &seeds {
        match crash_gaps(seed) {
            Some((m, j)) => {
                let diff = m.abs_diff(j);
                worst_diff = worst_diff.max(diff);
                reconstructed += 1;
                acc.row(vec![
                    seed.to_string(),
                    m.to_string(),
                    j.to_string(),
                    diff.to_string(),
                ]);
            }
            None => {
                acc.row(vec![
                    seed.to_string(),
                    "-".into(),
                    "-".into(),
                    "no failover".into(),
                ]);
            }
        }
    }

    assert!(
        reconstructed == seeds.len() && worst_diff <= 1_000,
        "journal fidelity: {reconstructed}/{} seeds reconstructed, worst {worst_diff} ns",
        seeds.len()
    );
    let findings = vec![
        format!(
            "detached journaling costs {overhead_pct:+.2}% events/s on the ping-pong engine \
             workload (host time, reported, not gated); emission with no journal subscriber \
             is one family check"
        ),
        format!(
            "the journal reconstructed the crash-to-election gap on {reconstructed}/{} seeds \
             with worst disagreement {worst_diff} ns against the controller's election log \
             (asserted <=1 µs); both stamp the same decree-apply instant, so the expected \
             disagreement is zero",
            seeds.len()
        ),
    ];
    ExperimentResult {
        id: "E23".into(),
        title: "Flight recorder: detached overhead and reconstruction fidelity".into(),
        paper_anchor: "DESIGN.md §14 (control-plane flight recorder)".into(),
        expectation: "journaling compiled in but detached costs ≈0% events/s (host time); \
                      journal failover gap within 1 µs of the election log (asserted)"
            .into(),
        tables: vec![t, acc],
        findings,
    }
}
