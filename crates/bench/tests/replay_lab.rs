//! Smoke tests for the E24 replay-lab gates: the determinism and
//! ring-parity checks at CI scale. The full-size gates (1M flows, five
//! scenario packs, the 0.90x parity floor) live in the experiment
//! itself; these keep the invariants on every `scripts/verify.sh` run
//! with gates generous enough for noisy shared runners (the
//! `trace_overhead.rs` convention).

use swishmem_bench::experiments::e24_replay_lab;
use swishmem_bench::leafspine::{run_leaf_spine, trace_to_leaf_spine, LeafSpineSpec};
use swishmem_replay::{from_swtrace_bytes, synth_trace_bytes, SynthConfig};

/// The core replay-lab contract at smoke scale: the same trace through
/// the leaf-spine fabric yields the recorded digest, event count and end
/// time, twice. No timing involved, so this gate is exact.
#[test]
fn leaf_spine_replay_matches_golden() {
    let spec = LeafSpineSpec {
        leaves: 8,
        spines: 2,
    };
    let cfg = SynthConfig {
        flows: 3_000,
        ingress: u32::from(spec.leaves),
        ..SynthConfig::default()
    };
    let bytes = synth_trace_bytes(&cfg, 5);
    let (_, records) = from_swtrace_bytes(&bytes).expect("synthesized trace must parse");
    let injections = trace_to_leaf_spine(&spec, &records);
    assert!(injections.len() >= 3_000);
    for _ in 0..2 {
        let o = run_leaf_spine(spec, &injections);
        assert_eq!(
            (o.digest, o.events, o.end_ns),
            (0x5e9c_28b5_4343_9bcf, 13_653, 47_846_346),
            "leaf-spine replay diverged from the golden"
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
