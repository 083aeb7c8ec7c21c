//! Key-grouping correctness (§7): keys sharing a sequence/pending slot
//! must still keep independent VALUES — grouping only coarsens the
//! protocol metadata.

#![allow(clippy::field_reassign_with_default)] // configs read clearer as overrides

use swishmem::prelude::*;
use swishmem::probe::{udp_write, WriteNf};
use swishmem::{RegisterSpec, SwishConfig};

#[test]
fn grouped_keys_keep_independent_values() {
    let mut cfg = SwishConfig::default();
    cfg.key_group = 8; // 64 keys share 8 seq/pending slots
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(83)
        .swish_config(cfg)
        .register(RegisterSpec::sro(0, "t", 64))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    // Write every key; keys 0, 8, 16, ... share slot 0 and therefore a
    // sequence counter, but their values must not bleed.
    let t0 = dep.now();
    for k in 0..64u16 {
        dep.inject(
            t0 + SimDuration::micros(u64::from(k) * 300),
            (k % 3) as usize,
            0,
            udp_write(k, 100 + k),
        );
    }
    dep.run_for(SimDuration::millis(100));
    for sw in 0..3 {
        for k in 0..64u16 {
            assert_eq!(
                dep.peek(sw, 0, u32::from(k)),
                u64::from(100 + k),
                "switch {sw} key {k} value corrupted by grouping"
            );
        }
    }
}

#[test]
fn sequential_rewrites_within_a_group_all_commit() {
    let mut cfg = SwishConfig::default();
    cfg.key_group = 4;
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(84)
        .swish_config(cfg)
        .register(RegisterSpec::sro(0, "t", 16))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    // Interleave rewrites of two keys in the SAME group (0 and 4 share
    // slot 0 at group=4: slots = 16/4 = 4, slot = key % 4).
    let t0 = dep.now();
    let mut expect = [0u64; 2];
    for round in 0..10u16 {
        for (i, key) in [0u16, 4].iter().enumerate() {
            let val = 200 + round * 2 + i as u16;
            dep.inject(
                t0 + SimDuration::millis(u64::from(round)) + SimDuration::micros(i as u64 * 300),
                0,
                0,
                udp_write(*key, val),
            );
            expect[i] = u64::from(val);
        }
    }
    dep.run_for(SimDuration::millis(100));
    for sw in 0..3 {
        assert_eq!(dep.peek(sw, 0, 0), expect[0], "switch {sw} key 0");
        assert_eq!(dep.peek(sw, 0, 4), expect[1], "switch {sw} key 4");
    }
}
