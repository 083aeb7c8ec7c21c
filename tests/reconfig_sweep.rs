//! Migration-under-fault sweep: seeded random fault schedules with
//! reconfiguration triggers (moves and replica-group grows) interleaved
//! mid-episode, run against a partitioned deployment with every online
//! oracle armed — including the reconfiguration invariants (range-table
//! coverage, per-range epoch monotonicity, strictly increasing issued
//! epochs) and per-range convergence. A violation aborts with the seed
//! and the printed schedule, which replays the run bit-for-bit.

use swishmem::oracle::{OracleConfig, OracleSuite};
use swishmem::prelude::*;
use swishmem::probe::{spared_writers, udp_write, WriteNf};
use swishmem::{trigger_token_op, RegisterSpec, TriggerOp};
use swishmem_simnet::{FaultAction, FaultGen};
use swishmem_wire::NodeId as WireNodeId;

const KEYS: u32 = 48;
const EPISODES: usize = 3;
const TRIGGERS: usize = 3;

/// One sweep: a random crash/partition schedule from `seed` with
/// migration triggers interleaved, held to zero oracle violations.
fn run_migration_sweep(seed: u64) -> usize {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(seed)
        .register(RegisterSpec::partitioned(0, "p", KEYS))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    let t0 = dep.now();

    let horizon = SimDuration::millis(60);
    let mut gen = FaultGen::new(seed);
    let nodes = dep.switch_ids().to_vec();
    let links = dep.fault_links();
    let sched = gen.generate(&nodes, &links, horizon, EPISODES);

    // Candidate reconfigurations: move or grow each bootstrap range
    // toward each switch. Redundant candidates (target already owner,
    // target currently down) are rejected by the controller's guards —
    // the sweep's point is that any interleaving stays safe.
    let mut tokens = Vec::new();
    for start in [0u32, 16, 32] {
        for &sw in &nodes {
            tokens.push(trigger_token_op(TriggerOp::Move, 0, start, sw));
            tokens.push(trigger_token_op(TriggerOp::Grow, 0, start, sw));
        }
    }
    let sched = gen.interleave_triggers(sched, WireNodeId::CONTROLLER, &tokens, horizon, TRIGGERS);
    let sched_str = sched.to_string();
    dep.schedule_faults(t0, &sched);

    let writers = spared_writers(&sched, &nodes);

    for i in 0..48u64 {
        let key = (i % u64::from(KEYS)) as u16;
        let val = 100 + i as u16;
        let sw = writers[(i as usize) % writers.len()];
        dep.inject(
            t0 + SimDuration::micros(i * 1000),
            sw,
            0,
            udp_write(key, val),
        );
    }

    let ocfg = OracleConfig::new(t0 + horizon);
    let mut suite = OracleSuite::attach(&mut dep, ocfg);
    if let Err(v) = suite.run_settled(&mut dep) {
        panic!(
            "oracle violation: {v}\n\
             replay: migration sweep seed={seed} episodes={EPISODES} \
             triggers={TRIGGERS} horizon={horizon}\n\
             {sched_str}"
        );
    }
    dep.reconfig_events().len()
}

const MIGRATION_SEEDS: [u64; 14] = [
    401, 402, 403, 404, 405, 406, 407, 408, 409, 410, 411, 412, 413, 414,
];

#[test]
fn migration_fault_sweep_zero_violations() {
    // Beyond zero violations, the sweep must actually reconfigure: the
    // controller logs bootstrap commits (3 per run) plus trigger-driven
    // Begin/Done/Commit activity on a healthy majority of seeds.
    let mut active = 0usize;
    for &seed in &MIGRATION_SEEDS {
        let events = run_migration_sweep(seed);
        if events > 3 {
            active += 1;
        }
    }
    assert!(
        active >= MIGRATION_SEEDS.len() / 2,
        "only {active} of {} seeds performed any reconfiguration",
        MIGRATION_SEEDS.len()
    );
}

#[test]
fn migration_sweep_schedules_have_triggers() {
    // The sweep must actually interleave reconfiguration triggers into
    // distinct fault schedules — not degenerate to plain fault sweeps.
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(1)
        .register(RegisterSpec::partitioned(0, "p", KEYS))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    let nodes = dep.switch_ids().to_vec();
    let links = dep.fault_links();
    let tokens = [trigger_token_op(TriggerOp::Move, 0, 0, nodes[1])];
    let mut seen = std::collections::BTreeSet::new();
    for &seed in &MIGRATION_SEEDS {
        let mut gen = FaultGen::new(seed);
        let base = gen.generate(&nodes, &links, SimDuration::millis(60), EPISODES);
        let sched = gen.interleave_triggers(
            base,
            WireNodeId::CONTROLLER,
            &tokens,
            SimDuration::millis(60),
            TRIGGERS,
        );
        let trig = sched
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Trigger { .. }))
            .count();
        assert_eq!(trig, TRIGGERS, "seed {seed} lost triggers");
        seen.insert(sched.to_string());
    }
    assert!(
        seen.len() >= 12,
        "only {} distinct schedules across 14 seeds",
        seen.len()
    );
}
