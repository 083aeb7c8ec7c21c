//! Smoke tests for the E24 replay-lab gates: the determinism and
//! ring-parity checks at CI scale. The full-size gates (1M flows, five
//! scenario packs, the 0.90x parity floor) live in the experiment
//! itself; these keep the invariants on every `scripts/verify.sh` run
//! with gates generous enough for noisy shared runners (the
//! `trace_overhead.rs` convention).

use std::io::Cursor;

use swishmem::prelude::*;
use swishmem_bench::experiments::e24_replay_lab;
use swishmem_bench::scenarios::replay_deployment;
use swishmem_replay::{
    replay_digest, replay_trace, synth_trace_bytes, ReplayConfig, SynthConfig, TraceReader,
};

/// The core replay-lab contract at smoke scale, on the SwiShmem stack:
/// the same trace through the replay deployment yields the recorded
/// digest, record count, event count and end time, twice. No timing
/// involved, so this gate is exact.
#[test]
fn replay_matches_golden() {
    let cfg = SynthConfig {
        flows: 3_000,
        ingress: 3,
        ..SynthConfig::default()
    };
    let bytes = synth_trace_bytes(&cfg, 5);
    for _ in 0..2 {
        let mut dep = replay_deployment(24);
        let mut reader = TraceReader::new(Cursor::new(&bytes[..])).expect("synthesized trace");
        let start = dep.now() + SimDuration::millis(1);
        let cfg = ReplayConfig {
            start,
            ..ReplayConfig::default()
        };
        let stats = replay_trace(&mut dep, &mut reader, &cfg).expect("in-memory replay");
        dep.run_for(SimDuration::millis(10));
        assert_eq!(
            (
                replay_digest(&dep, 256),
                stats.records,
                dep.sim.events_processed(),
                dep.now().nanos()
            ),
            (0x2644_a39c_5b84_37bc, 8_751, 35_536, 68_835_328),
            "replay diverged from the golden"
        );
    }
}

/// Ring-buffer ingest must keep pace with generator-driven injection.
/// The experiment gates at 0.90x; the CI smoke allows 0.75x to tolerate
/// scheduler noise on shared runners.
#[test]
fn ring_ingest_keeps_pace_with_generator_driven() {
    let (direct, ring) = e24_replay_lab::measure_ring_parity(6_000, 3);
    let ratio = ring / direct.max(1.0);
    assert!(
        ratio >= 0.75,
        "ring ingest fell to {ratio:.2}x of generator-driven \
         (direct {:.2}M ev/s, ring {:.2}M ev/s)",
        direct / 1e6,
        ring / 1e6,
    );
}
