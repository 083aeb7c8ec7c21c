//! Property-based end-to-end tests: randomized small workloads through
//! full deployments, checked against simple oracles.

#![allow(clippy::field_reassign_with_default)] // configs read clearer as overrides

use proptest::prelude::*;
use swishmem::prelude::*;
use swishmem::probe::{udp_write, CounterNf, WriteNf};
use swishmem::RegisterSpec;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// EWO counters converge to the exact oracle count per key, for any
    /// interleaving of increments across switches and any loss rate up to
    /// 20%.
    #[test]
    fn ewo_counts_match_oracle(
        seed in 0u64..1000,
        n_switches in 2usize..5,
        ops in prop::collection::vec((0u16..8, 0u64..3000), 1..60),
        loss in prop::sample::select(vec![0.0, 0.1, 0.2]),
    ) {
        let mut dep = DeploymentBuilder::new(n_switches)
            .hosts(1)
            .seed(seed)
            .link(LinkParams::lossy(loss).with_latency(SimDuration::micros(2)))
            .register(RegisterSpec::ewo_counter(0, "c", 8))
            .build(|_| Box::new(CounterNf));
        dep.settle();
        let t0 = dep.now();
        let mut oracle = [0u64; 8];
        for (i, &(key, jitter)) in ops.iter().enumerate() {
            let sw = i % n_switches;
            dep.inject(t0 + SimDuration::micros(i as u64 * 40 + jitter / 100), sw, 0, udp_write(key, 10));
            oracle[key as usize] += 1;
        }
        dep.run_for(SimDuration::millis(400));
        for sw in 0..n_switches {
            for key in 0..8u16 {
                prop_assert_eq!(
                    dep.peek(sw, 0, u32::from(key)),
                    oracle[key as usize],
                    "switch {} key {} (loss {})", sw, key, loss
                );
            }
        }
    }

    /// SRO registers settle to the last-sequenced write per key and agree
    /// across all replicas (no loss here; loss + retries covered in
    /// chaos.rs — this property pins down agreement + validity).
    #[test]
    fn sro_replicas_agree_on_written_values(
        seed in 0u64..1000,
        ops in prop::collection::vec((0u16..6, 1u16..1400), 1..30),
    ) {
        let mut dep = DeploymentBuilder::new(3)
            .hosts(1)
            .seed(seed)
            .register(RegisterSpec::sro(0, "t", 8))
            .build(|_| Box::new(WriteNf));
        dep.settle();
        let t0 = dep.now();
        let mut written: std::collections::HashMap<u16, Vec<u64>> = Default::default();
        for (i, &(key, val)) in ops.iter().enumerate() {
            // Writes spaced >= 1 ms per key: totally ordered, so the
            // oracle is simply the last write.
            dep.inject(t0 + SimDuration::millis(i as u64), i % 3, 0, udp_write(key, val));
            written.entry(key).or_default().push(u64::from(val));
        }
        dep.run_for(SimDuration::millis(ops.len() as u64 + 100));
        for (key, vals) in &written {
            let expect = *vals.last().unwrap();
            for sw in 0..3 {
                prop_assert_eq!(dep.peek(sw, 0, u32::from(*key)), expect,
                    "switch {} key {}", sw, key);
            }
        }
    }

    /// Whatever the seed and fault schedule, a deployment never panics
    /// and stays internally consistent (smoke-fuzz of the event engine).
    #[test]
    fn deployment_survives_random_fault_schedules(
        seed in 0u64..10_000,
        fail_at in 1u64..30,
        recover_after in 1u64..50,
        victim in 0usize..3,
    ) {
        let mut dep = DeploymentBuilder::new(3)
            .hosts(1)
            .seed(seed)
            .register(RegisterSpec::ewo_counter(0, "c", 8))
            .register(RegisterSpec::sro(1, "t", 8))
            .build(|_| Box::new(CounterNf));
        dep.settle();
        let t0 = dep.now();
        dep.schedule_fail(t0 + SimDuration::millis(fail_at), victim);
        dep.schedule_recover(t0 + SimDuration::millis(fail_at + recover_after), victim);
        for i in 0..50u64 {
            dep.inject(t0 + SimDuration::micros(i * 777), (i % 3) as usize, 0, udp_write(1, 10));
        }
        dep.run_for(SimDuration::millis(200));
        // Survivors converge on one value for key 1.
        let mut views = vec![];
        for sw in 0..3 {
            if sw != victim || recover_after < 150 {
                views.push(dep.peek(sw, 0, 1));
            }
        }
        prop_assert!(!views.is_empty());
    }
}
