//! Smoke tests for the E18/E23 gates: span telemetry and flight-recorder
//! journaling compiled in but disabled must not meaningfully slow the
//! event engine. The CI gates here are deliberately generous (25%) to
//! tolerate noisy shared runners; the experiments themselves report
//! against the real <2% targets.

use swishmem_bench::scenarios::measure_pair;
use swishmem_simnet::Family;

#[test]
fn detached_tracing_overhead_is_small() {
    const EVENTS: u64 = 20_000;
    // Interleaved best-of-5 each — min wall-clock of a deterministic
    // workload is robust to scheduler noise.
    let (plain, traced) = measure_pair(Family::Span, EVENTS, 5);
    let ratio = plain / traced;
    assert!(
        ratio < 1.25,
        "detached span tracing slowed the engine {:.1}% (plain {:.2}M ev/s, traced {:.2}M ev/s)",
        (ratio - 1.0) * 100.0,
        plain / 1e6,
        traced / 1e6,
    );
}

#[test]
fn detached_journal_overhead_is_small() {
    const EVENTS: u64 = 20_000;
    let (plain, journaled) = measure_pair(Family::Journal, EVENTS, 5);
    let ratio = plain / journaled;
    assert!(
        ratio < 1.25,
        "detached journaling slowed the engine {:.1}% (plain {:.2}M ev/s, journaled {:.2}M ev/s)",
        (ratio - 1.0) * 100.0,
        plain / 1e6,
        journaled / 1e6,
    );
}
