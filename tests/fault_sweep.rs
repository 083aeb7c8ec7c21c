//! Seeded fault-sweep suite: random fault schedules sampled from pinned
//! seeds run against SRO/ERO/EWO deployments with every online oracle
//! armed. A violation aborts the test with the seed and the full printed
//! schedule — that output alone is enough to replay the run bit-for-bit
//! (`FaultGen::new(seed)` regenerates the identical schedule, and the
//! deployment seed fixes every other random choice).

use swishmem::oracle::{OracleConfig, OracleSuite, Violation, ViolationKind};
use swishmem::prelude::*;
use swishmem::probe::{spared_writers, udp_write, CounterNf, WriteNf};
use swishmem::{NfApp, RegisterSpec, TriggerOp};
use swishmem_simnet::FaultGen;
use swishmem_wire::swish::{MigrateChunk, SnapEntry, SnapshotChunk};
use swishmem_wire::{Packet, SwishMsg};

const KEYS: u32 = 16;
const EPISODES: usize = 4;

/// One sweep: generate a schedule from `seed`, run the workload through
/// it, and hold every oracle to zero violations.
fn run_sweep(kind: &str, seed: u64) {
    let spec = match kind {
        "sro" => RegisterSpec::sro(0, "t", KEYS),
        "ero" => RegisterSpec::ero(0, "t", KEYS),
        "ewo" => RegisterSpec::ewo_counter(0, "c", KEYS),
        _ => unreachable!("unknown register kind {kind}"),
    };
    let is_ewo = kind == "ewo";
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(seed)
        .register(spec)
        .build(move |_| -> Box<dyn NfApp> {
            if is_ewo {
                Box::new(CounterNf)
            } else {
                Box::new(WriteNf)
            }
        });
    dep.settle();
    let t0 = dep.now();

    let horizon = SimDuration::millis(60);
    let mut gen = FaultGen::new(seed);
    let nodes = dep.switch_ids().to_vec();
    let links = dep.fault_links();
    let sched = gen.generate(&nodes, &links, horizon, EPISODES);
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
             replay: kind={kind} seed={seed} episodes={EPISODES} horizon={horizon}\n\
             {sched_str}"
        );
    }
}

const SRO_SEEDS: [u64; 8] = [101, 102, 103, 104, 105, 106, 107, 108];
const ERO_SEEDS: [u64; 8] = [201, 202, 203, 204, 205, 206, 207, 208];
const EWO_SEEDS: [u64; 8] = [301, 302, 303, 304, 305, 306, 307, 308];

#[test]
fn sro_fault_sweep_zero_violations() {
    for &seed in &SRO_SEEDS {
        run_sweep("sro", seed);
    }
}

#[test]
fn ero_fault_sweep_zero_violations() {
    for &seed in &ERO_SEEDS {
        run_sweep("ero", seed);
    }
}

#[test]
fn ewo_fault_sweep_zero_violations() {
    for &seed in &EWO_SEEDS {
        run_sweep("ewo", seed);
    }
}

#[test]
fn sweep_schedules_are_distinct() {
    // The suite must exercise ≥ 20 genuinely different schedules, not one
    // schedule replayed 24 times.
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(1)
        .register(RegisterSpec::sro(0, "t", KEYS))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    let nodes = dep.switch_ids().to_vec();
    let links = dep.fault_links();
    let mut seen = std::collections::BTreeSet::new();
    for seed in SRO_SEEDS.iter().chain(&ERO_SEEDS).chain(&EWO_SEEDS) {
        let sched =
            FaultGen::new(*seed).generate(&nodes, &links, SimDuration::millis(60), EPISODES);
        assert!(!sched.is_empty(), "seed {seed} produced an empty schedule");
        seen.insert(sched.to_string());
    }
    assert!(
        seen.len() >= 20,
        "only {} distinct schedules across 24 seeds",
        seen.len()
    );
}

#[test]
fn oracles_quiet_on_healthy_run() {
    // No faults scheduled: the oracles must stay silent (no false
    // positives from ordinary protocol operation).
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(42)
        .register(RegisterSpec::sro(0, "t", KEYS))
        .register(RegisterSpec::ewo_counter(1, "c", KEYS))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    let t0 = dep.now();
    for i in 0..32u64 {
        let key = (i % u64::from(KEYS)) as u16;
        dep.inject(
            t0 + SimDuration::micros(i * 500),
            (i % 3) as usize,
            0,
            udp_write(key, 100 + i as u16),
        );
    }
    let ocfg = OracleConfig::new(t0 + SimDuration::millis(20));
    let mut suite = OracleSuite::attach(&mut dep, ocfg);
    let end = t0 + SimDuration::millis(250);
    suite
        .run(&mut dep, end)
        .unwrap_or_else(|v| panic!("oracle violation on fault-free run: {v}"));
}

// Negative controls for the convergence oracle: after the run quiesces,
// one crafted state-transfer chunk with a sequence number above
// anything the chain assigned is delivered to a single replica. The
// chunk's sequence guard accepts it, so exactly that replica diverges,
// and the oracle must say which one and against whom.

/// The value and sequence number of the crafted chunk entry.
const FORGED_VALUE: u64 = 0xBAD;
const FORGED_SEQ: u64 = 1 << 40;

fn forged_entry(key: u32) -> SnapEntry {
    SnapEntry {
        key,
        seq: FORGED_SEQ,
        value: FORGED_VALUE,
    }
}

/// A fault-free 3-switch SRO run with the oracles armed, plus one
/// `SnapChunk` for key 5 delivered to chain member `victim` at 30 ms.
fn forged_snapshot_run(victim: usize) -> (Deployment, Result<(), Violation>) {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(42)
        .register(RegisterSpec::sro(0, "t", KEYS))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    let t0 = dep.now();
    for i in 0..16u64 {
        dep.inject(
            t0 + SimDuration::micros(i * 500),
            (i % 3) as usize,
            0,
            udp_write(i as u16, 100 + i as u16),
        );
    }
    let ocfg = OracleConfig::new(t0 + SimDuration::millis(20));
    let mut suite = OracleSuite::attach(&mut dep, ocfg);
    let to = dep.controller_view().chain[victim];
    let chunk = SnapshotChunk {
        reg: 0,
        origin: to,
        last: false,
        entries: vec![forged_entry(5)].into(),
    };
    dep.sim.inject(
        t0 + SimDuration::millis(30),
        Packet::swish(to, to, SwishMsg::SnapChunk(chunk)),
    );
    let end = t0 + SimDuration::millis(250);
    let verdict = suite.run(&mut dep, end);
    (dep, verdict)
}

#[test]
fn convergence_oracle_names_a_diverged_chain_member() {
    let (dep, verdict) = forged_snapshot_run(0);
    let chain = dep.controller_view().chain;
    assert_eq!(chain.len(), 3);
    let v = verdict.expect_err("a forged chunk at the head must be caught");
    assert_eq!(
        v,
        Violation {
            at: SimTime(180_000_000),
            kind: ViolationKind::Diverged {
                reg: 0,
                key: 5,
                a: chain[2],
                va: 105,
                b: chain[0],
                vb: FORGED_VALUE,
            },
        }
    );
}

#[test]
fn convergence_oracle_names_an_invented_value_at_the_tail() {
    let (dep, verdict) = forged_snapshot_run(2);
    assert_eq!(dep.controller_view().chain.len(), 3);
    let v = verdict.expect_err("a forged chunk at the tail must be caught");
    assert_eq!(
        v,
        Violation {
            at: SimTime(180_000_000),
            kind: ViolationKind::InventedValue {
                reg: 0,
                key: 5,
                value: FORGED_VALUE,
                stage: "state",
            },
        }
    );
}

#[test]
fn convergence_oracle_names_a_diverged_range_owner() {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(11)
        .register(RegisterSpec::partitioned(0, "p", KEYS))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    let t0 = dep.now();
    let ocfg = OracleConfig::new(t0 + SimDuration::millis(30));
    let mut suite = OracleSuite::attach(&mut dep, ocfg);
    for key in 0u16..4 {
        dep.inject(
            t0 + SimDuration::micros(u64::from(key) * 100),
            0,
            0,
            udp_write(key, 300 + key),
        );
    }
    // Grow the first range to two owners, so it has a member to diverge.
    let range = dep.controller_ranges(0)[0].clone();
    let joiner = dep.switch_ids()[2];
    assert_ne!(range.owners, vec![joiner]);
    dep.schedule_trigger(
        t0 + SimDuration::millis(5),
        TriggerOp::Grow,
        0,
        range.start,
        joiner,
    );
    suite
        .run(&mut dep, t0 + SimDuration::millis(30))
        .unwrap_or_else(|v| panic!("oracle violation before the forged chunk: {v}"));
    let grown = dep.controller_ranges(0)[0].clone();
    assert_eq!(grown.owners, vec![range.owners[0], joiner], "group grew");
    assert!(grown.mig_to.is_none());

    let chunk = MigrateChunk {
        reg: 0,
        start: grown.start,
        end: grown.end,
        origin: grown.owners[0],
        pass: 99,
        idx: 0,
        last: false,
        entries: vec![forged_entry(2)].into(),
    };
    dep.sim.inject(
        dep.now(),
        Packet::swish(grown.owners[0], joiner, SwishMsg::MigrateChunk(chunk)),
    );
    let v = suite
        .run(&mut dep, t0 + SimDuration::millis(250))
        .expect_err("a forged chunk at the second owner must be caught");
    assert_eq!(
        v,
        Violation {
            at: SimTime(190_000_000),
            kind: ViolationKind::Diverged {
                reg: 0,
                key: 2,
                a: grown.owners[0],
                va: 302,
                b: joiner,
                vb: FORGED_VALUE,
            },
        }
    );
}
