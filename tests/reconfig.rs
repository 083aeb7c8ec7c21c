//! Live-reconfiguration integration tests: key ranges of a partitioned
//! register migrate between replica groups while traffic keeps flowing.
//!
//! The happy paths exercised here: bootstrap table install, explicit
//! trigger-driven moves (value + seq preservation, ownership flip),
//! write availability across the transfer window, replica-group grow and
//! shrink, and the telemetry-driven planner moving a hot range onto its
//! talker.

use swishmem::prelude::*;
use swishmem::probe::{udp_write, WriteNf};
use swishmem::{
    controller::PLANNER_COOLDOWN, MigrationPhase, ReconfigEvent, RegisterSpec, TriggerOp,
};

const KEYS: u32 = 48;

/// With no partitioned registers the reconfiguration engine is fully
/// dormant: the controller arms no planner/resync timers, switches send
/// no load reports, and toggling the policy flag must not move a single
/// event. This is the core-level companion of the simnet golden
/// determinism fingerprint — bit-identical with reconfig compiled in
/// but disabled.
#[test]
fn reconfig_disabled_is_invisible_without_partitioned_registers() {
    let fingerprint = |enabled: bool| {
        let mut cfg = SwishConfig::default();
        cfg.reconfig.enabled = enabled;
        let mut dep = DeploymentBuilder::new(3)
            .hosts(1)
            .seed(11)
            .swish_config(cfg)
            .register(RegisterSpec::sro(0, "t", 16))
            .build(|_| Box::new(WriteNf));
        let spans = dep.attach_tracing(100_000);
        dep.settle();
        let t0 = dep.now();
        for i in 0..24u64 {
            dep.inject(
                t0 + SimDuration::micros(i * 500),
                (i % 3) as usize,
                0,
                udp_write((i % 16) as u16, 100 + i as u16),
            );
        }
        dep.run_for(SimDuration::millis(30));
        let span_log: Vec<String> = spans
            .borrow()
            .events()
            .iter()
            .map(|e| format!("{:?} {:?} {} {:?}", e.time, e.trace, e.node, e.phase))
            .collect();
        let peeks: Vec<u64> = (0..3)
            .flat_map(|i| (0..16).map(move |k| (i, k)))
            .map(|(i, k)| dep.peek(i, 0, k))
            .collect();
        (
            dep.now(),
            span_log,
            peeks,
            dep.sum_metric(|m| m.cp.jobs_completed),
            dep.sum_metric(|m| m.cp.write_sends + m.cp.heartbeats),
            dep.sum_metric(|m| m.dp.chain_applies),
            dep.sum_metric(|m| m.cp.load_reports_sent),
        )
    };
    let off = fingerprint(false);
    let on = fingerprint(true);
    assert!(off.3 > 0, "workload should complete writes");
    assert_eq!(off.6, 0, "no load reports without partitioned registers");
    assert_eq!(
        off, on,
        "enabling the reconfig policy moved events on a chain-only deployment"
    );
}

fn partitioned_dep(seed: u64) -> Deployment {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(seed)
        .register(RegisterSpec::partitioned(0, "p", KEYS))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    dep
}

/// Every switch installs the controller's bootstrap range table: full
/// key-space coverage, no overlap, per-range epoch 1.
#[test]
fn bootstrap_installs_range_tables_everywhere() {
    let dep = partitioned_dep(7);
    let master = dep.controller_ranges(0);
    assert_eq!(master.len(), 3, "one range per switch");
    assert_eq!(master[0].start, 0);
    assert_eq!(master.last().unwrap().end, KEYS);
    for w in master.windows(2) {
        assert_eq!(w[0].end, w[1].start, "contiguous coverage");
    }
    for i in 0..3 {
        let installed = dep.installed_ranges(i, 0);
        assert_eq!(installed.len(), master.len(), "switch {i} table installed");
        for (a, b) in installed.iter().zip(&master) {
            assert_eq!((a.start, a.end), (b.start, b.end));
            assert_eq!(a.owners, b.owners);
            assert_eq!(a.epoch, 1);
            assert_eq!(a.mig_to, None);
        }
    }
}

/// Writes ingressed anywhere route to the key's range primary and
/// complete; a management peek at the owner sees the value.
#[test]
fn partitioned_writes_route_to_range_owner() {
    let mut dep = partitioned_dep(8);
    let t0 = dep.now();
    // Keys across all three ranges, all ingressed at switch 1.
    for (i, key) in [0u16, 20, 40].iter().enumerate() {
        dep.inject(
            t0 + SimDuration::micros(i as u64 * 200),
            1,
            0,
            udp_write(*key, 500 + *key),
        );
    }
    dep.run_for(SimDuration::millis(10));
    for key in [0u16, 20, 40] {
        let owner = dep.controller_ranges(0)[usize::from(key) / 16].owners[0];
        let idx = dep.switch_index(owner).unwrap();
        assert_eq!(
            dep.peek(idx, 0, u32::from(key)),
            u64::from(500 + key),
            "key {key} applied at its owner"
        );
    }
    let completed: u64 = (0..3).map(|i| dep.metrics(i).cp.jobs_completed).sum();
    assert_eq!(completed, 3, "all write jobs acked");
}

/// An explicit trigger migrates a range: state (values *and* per-key
/// seqs) arrives at the destination, ownership flips at a higher
/// per-range epoch, and the log records Begin → Done → Commit.
#[test]
fn triggered_move_transfers_state_and_flips_ownership() {
    let mut dep = partitioned_dep(9);
    let t0 = dep.now();
    // Populate range [0,16) at its original owner.
    for key in 0u16..8 {
        dep.inject(
            t0 + SimDuration::micros(u64::from(key) * 100),
            0,
            0,
            udp_write(key, 700 + key),
        );
    }
    dep.run_for(SimDuration::millis(5));
    let before = dep.controller_ranges(0);
    let from = before[0].owners[0];
    let to = dep.switch_ids()[2];
    assert_ne!(from, to, "seed layout: range 0 not owned by switch 2");

    let t1 = dep.now();
    dep.schedule_trigger(t1 + SimDuration::micros(10), TriggerOp::Move, 0, 0, to);
    dep.run_for(SimDuration::millis(20));

    let after = dep.controller_ranges(0);
    assert_eq!(after[0].owners, vec![to], "ownership moved");
    assert_eq!(after[0].mig_to, None, "transfer closed");
    assert!(
        after[0].epoch > before[0].epoch,
        "per-range epoch advanced ({} -> {})",
        before[0].epoch,
        after[0].epoch
    );
    assert_eq!(dep.migration_phase(0, 0), MigrationPhase::Committed);

    // State followed the range.
    let dst_idx = dep.switch_index(to).unwrap();
    for key in 0u16..8 {
        assert_eq!(
            dep.peek(dst_idx, 0, u32::from(key)),
            u64::from(700 + key),
            "key {key} value at destination"
        );
    }
    assert!(dep.sum_metric(|m| m.dp.migrate_applied) > 0);
    assert!(dep.sum_metric(|m| m.cp.migrate_chunks_sent) > 0);
    assert_eq!(dep.sum_metric(|m| m.cp.migrate_done_sent), 1);

    // Log shape: Begin, then Done, then Commit for (reg 0, start 0).
    let events: Vec<ReconfigEvent> = dep
        .reconfig_events()
        .iter()
        .filter(|e| e.event.range_key() == (0, 0))
        .map(|e| e.event.clone())
        .collect();
    let pos = |pred: &dyn Fn(&ReconfigEvent) -> bool| events.iter().position(pred);
    let begin = pos(&|e| matches!(e, ReconfigEvent::Begin { .. })).expect("Begin logged");
    let done = pos(&|e| matches!(e, ReconfigEvent::Done { .. })).expect("Done logged");
    let commit = events
        .iter()
        .rposition(|e| matches!(e, ReconfigEvent::Commit { .. }))
        .expect("Commit logged");
    assert!(begin < done && done < commit, "Begin < Done < Commit");

    // Every switch converged on the new table (resync guarantees it).
    for i in 0..3 {
        let inst = dep.installed_ranges(i, 0);
        assert_eq!(inst[0].owners, vec![to], "switch {i} adopted the commit");
        assert_eq!(inst[0].mig_to, None);
    }

    // New owner sequences fresh writes.
    let t2 = dep.now();
    dep.inject(t2 + SimDuration::micros(10), 1, 0, udp_write(3, 999));
    dep.run_for(SimDuration::millis(5));
    assert_eq!(
        dep.peek(dst_idx, 0, 3),
        999,
        "post-commit write at new owner"
    );
}

/// Writes keep completing while the transfer window is open: jobs
/// injected before, during, and after the migration all ack.
#[test]
fn write_availability_maintained_during_transfer() {
    let mut dep = partitioned_dep(10);
    let t0 = dep.now();
    let to = dep.switch_ids()[2];
    dep.schedule_trigger(t0 + SimDuration::millis(2), TriggerOp::Move, 0, 0, to);
    // A steady write stream against the migrating range, ingressed at a
    // non-owner, spanning the whole window.
    let n = 40u64;
    for i in 0..n {
        let key = (i % 8) as u16;
        dep.inject(
            t0 + SimDuration::micros(i * 150),
            1,
            0,
            udp_write(key, 100 + i as u16),
        );
    }
    dep.run_for(SimDuration::millis(40));
    assert_eq!(dep.migration_phase(0, 0), MigrationPhase::Committed);
    let completed: u64 = (0..3).map(|i| dep.metrics(i).cp.jobs_completed).sum();
    let failed: u64 = (0..3).map(|i| dep.metrics(i).cp.jobs_failed).sum();
    assert_eq!(failed, 0, "no write abandoned across the migration");
    assert_eq!(completed, n, "every write acked");
    // Last writer wins per key: value of the final write to each key.
    let dst_idx = dep.switch_index(to).unwrap();
    for key in 0u16..8 {
        let last = (0..n).filter(|i| i % 8 == u64::from(key)).max().unwrap();
        assert_eq!(
            dep.peek(dst_idx, 0, u32::from(key)),
            100 + last,
            "key {key} final value at destination"
        );
    }
}

/// Grow then shrink: the replica group stretches to two owners (after a
/// state transfer) and contracts back to one, each at a fresh epoch.
#[test]
fn replica_group_grows_and_shrinks() {
    let mut dep = partitioned_dep(11);
    let t0 = dep.now();
    for key in 0u16..4 {
        dep.inject(
            t0 + SimDuration::micros(u64::from(key) * 100),
            0,
            0,
            udp_write(key, 300 + key),
        );
    }
    dep.run_for(SimDuration::millis(5));
    let original = dep.controller_ranges(0)[0].owners.clone();
    assert_eq!(original.len(), 1);
    let joiner = dep.switch_ids()[2];
    assert_ne!(original[0], joiner);

    let t1 = dep.now();
    dep.schedule_trigger(t1 + SimDuration::micros(10), TriggerOp::Grow, 0, 0, joiner);
    dep.run_for(SimDuration::millis(20));
    let grown = dep.controller_ranges(0)[0].clone();
    assert_eq!(grown.owners, vec![original[0], joiner], "group grew");
    // The joiner holds the range's state (it was the transfer target).
    let j = dep.switch_index(joiner).unwrap();
    for key in 0u16..4 {
        assert_eq!(dep.peek(j, 0, u32::from(key)), u64::from(300 + key));
    }

    // Writes replicate to both owners now (mini-chain of two).
    let t2 = dep.now();
    dep.inject(t2 + SimDuration::micros(10), 1, 0, udp_write(2, 888));
    dep.run_for(SimDuration::millis(5));
    let p = dep.switch_index(original[0]).unwrap();
    assert_eq!(dep.peek(p, 0, 2), 888, "primary applied");
    assert_eq!(dep.peek(j, 0, 2), 888, "replica applied");

    // Cooldown applies to planner flapping, not explicit triggers beyond
    // the per-range guard; wait it out for the shrink.
    let t3 = dep.now() + PLANNER_COOLDOWN;
    dep.schedule_trigger(t3, TriggerOp::Shrink, 0, 0, original[0]);
    dep.run_for(PLANNER_COOLDOWN + SimDuration::millis(20));
    let shrunk = dep.controller_ranges(0)[0].clone();
    assert_eq!(shrunk.owners, vec![joiner], "group shrank to the joiner");
    assert!(shrunk.epoch > grown.epoch);
}

/// The telemetry-driven planner: with the policy enabled, a remote
/// switch hammering one range pulls that range onto itself — no explicit
/// trigger involved.
#[test]
fn planner_moves_hot_range_to_talker() {
    let mut cfg = SwishConfig::default();
    cfg.reconfig.enabled = true;
    cfg.reconfig.min_writes = 16;
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(12)
        .swish_config(cfg)
        .register(RegisterSpec::partitioned(0, "p", KEYS))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    let t0 = dep.now();
    let talker = 2usize;
    let talker_id = dep.switch_ids()[talker];
    let before = dep.controller_ranges(0)[0].owners.clone();
    assert_ne!(before, vec![talker_id]);
    // Switch 2 ingresses a hot stream against range [0,16).
    for i in 0..120u64 {
        let key = (i % 8) as u16;
        dep.inject(
            t0 + SimDuration::micros(i * 200),
            talker,
            0,
            udp_write(key, 100 + i as u16),
        );
    }
    dep.run_for(SimDuration::millis(80));
    let after = dep.controller_ranges(0)[0].clone();
    assert_eq!(after.owners, vec![talker_id], "planner moved the hot range");
    assert!(
        dep.reconfig_events()
            .iter()
            .any(|e| matches!(e.event, ReconfigEvent::Planned { to, .. } if to == talker_id)),
        "move originated from the planner"
    );
    // Cold ranges stayed with their bootstrap owners.
    let master = dep.controller_ranges(0);
    assert_eq!(master[1].owners, vec![dep.switch_ids()[1]]);
    assert_eq!(master[2].owners, vec![dep.switch_ids()[2]]);
}
