//! Replicated control plane under fire: a 3-replica controller group
//! (single-decree consensus, DESIGN.md §12) driven through leader
//! crashes while a key-range migration is mid-flight. The behavioral
//! bar from the paper's "no single point of failure" goal: the fabric
//! keeps accepting foreground writes throughout (zero write
//! unavailability), the migration converges under the surviving
//! quorum, and every online oracle — including the cross-replica
//! issued-epoch-uniqueness and no-split-brain invariants — stays
//! silent. Failover gaps are measured from the committed
//! `LeaderElected` log entries.

use swishmem::oracle::{OracleConfig, OracleSuite};
use swishmem::prelude::*;
use swishmem::probe::{spared_writers, udp_write, WriteNf};
use swishmem::{
    trigger_token_op, ConfigEventKind, Deployment, ReconfigEvent, RegisterSpec, TriggerOp,
};
use swishmem_simnet::{FaultAction, FaultGen};
use swishmem_wire::NodeId as WireNodeId;

const KEYS: u32 = 48;

fn build(seed: u64) -> Deployment {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(seed)
        .ctrl_replicas(3)
        .register(RegisterSpec::partitioned(0, "p", KEYS))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    dep
}

/// Spread `n` writes over `window`, one per key round-robin, across all
/// three switches (none of which ever crashes in this suite — only
/// controller replicas die, so every write must complete).
fn inject_writes(dep: &mut Deployment, t0: SimTime, n: u64, window: SimDuration) {
    let step = window.as_nanos() / n.max(1);
    for i in 0..n {
        let key = (i % u64::from(KEYS)) as u16;
        let val = 100 + i as u16;
        dep.inject(
            t0 + SimDuration::nanos(i * step),
            (i % 3) as usize,
            0,
            udp_write(key, val),
        );
    }
}

#[test]
fn three_replica_smoke() {
    let mut dep = build(7);
    let group = dep.controller();
    assert_eq!(group.len(), 3, "ctrl_replicas(3) must build 3 replicas");
    assert_eq!(group.quorum(), 2);
    assert_eq!(group.ids()[0], WireNodeId::CONTROLLER);
    // Replica 0 bootstraps leadership through the consensus log, so the
    // settled deployment has exactly one acting leader: replica 0.
    let (leader, _) = dep
        .controller()
        .leader()
        .expect("settled group has an acting leader");
    assert_eq!(leader, WireNodeId::CONTROLLER);

    // Foreground writes behave exactly as under a singleton controller.
    let t0 = dep.now();
    inject_writes(&mut dep, t0, 48, SimDuration::millis(10));
    dep.run_for(SimDuration::millis(40));
    for i in 0..48u64 {
        let key = (i % u64::from(KEYS)) as u32;
        let owner_val = (0..3)
            .map(|sw| dep.peek(sw, 0, key))
            .max()
            .unwrap_or_default();
        assert_eq!(owner_val, 100 + i, "key {key} lost its write");
    }
    // Consensus actually ran: the group committed a log prefix.
    let m = dep.controller().consensus_metrics();
    assert!(m.commit > 0, "no consensus slots committed: {m:?}");
    assert!(m.msgs_sent > 0);
}

#[test]
fn even_replica_counts_round_up_to_odd() {
    let dep = DeploymentBuilder::new(3)
        .hosts(1)
        .ctrl_replicas(4)
        .register(RegisterSpec::partitioned(0, "p", KEYS))
        .build(|_| Box::new(WriteNf));
    assert_eq!(
        dep.controller().len(),
        5,
        "even group sizes must round up so a strict majority exists"
    );
}

#[test]
fn leader_crash_fails_over_and_writes_complete() {
    let mut dep = build(11);
    let t0 = dep.now();

    inject_writes(&mut dep, t0, 48, SimDuration::millis(30));
    let t_crash = t0 + SimDuration::millis(5);
    dep.schedule_ctrl_fail(t_crash, 0);
    dep.schedule_ctrl_recover(t0 + SimDuration::millis(45), 0);

    let quiescent = t0 + SimDuration::millis(60);
    let ocfg = OracleConfig::new(quiescent);
    let mut suite = OracleSuite::attach(&mut dep, ocfg);
    if let Err(v) = suite.run_settled(&mut dep) {
        panic!("oracle violation during leader failover: {v}");
    }

    // A successor won an election after the crash, and the committed
    // log records it (this is the E21 failover-gap measurement).
    let elections = dep.controller().elections();
    let successor = elections
        .iter()
        .find(|e| e.time >= t_crash && !matches!(e.kind, ConfigEventKind::LeaderElected(n) if n == WireNodeId::CONTROLLER))
        .unwrap_or_else(|| panic!("no successor election after the crash: {elections:?}"));
    let gap = successor.time.since(t_crash);
    assert!(
        gap <= SimDuration::millis(60),
        "failover took {gap} — longer than 4x failure_timeout"
    );

    // Exactly one acting leader at the end (replica 0 recovered as a
    // follower or re-won — either way no dual leadership persists).
    let group = dep.controller();
    let live_leaders = (0..group.len())
        .filter(|&i| !group.is_failed(i))
        .filter(|&i| {
            group
                .replica(i)
                .map(|c| c.is_acting_leader())
                .unwrap_or(false)
        })
        .count();
    assert_eq!(live_leaders, 1, "split brain after recovery");
}

/// One probe run: trigger a move of range `[0, …)` to switch 1 and
/// record when the controller logged `Begin` and first `Done`.
fn probe_migration(seed: u64) -> (SimTime, SimTime, SimTime) {
    let mut dep = build(seed);
    let t0 = dep.now();
    let target = dep.switch_ids()[1];
    let t_trig = t0 + SimDuration::millis(8);
    dep.schedule_trigger(t_trig, TriggerOp::Move, 0, 0, target);
    dep.run_for(SimDuration::millis(50));
    let log = dep.reconfig_events();
    let begin = log
        .iter()
        .find(|e| matches!(e.event, ReconfigEvent::Begin { start: 0, .. }))
        .unwrap_or_else(|| panic!("seed {seed}: probe never began the migration: {log:?}"));
    let done = log
        .iter()
        .find(|e| matches!(e.event, ReconfigEvent::Done { start: 0, .. }))
        .unwrap_or_else(|| panic!("seed {seed}: probe never finished the transfer: {log:?}"));
    (t0, begin.time, done.time)
}

/// One measured run: same seed and trigger as the probe, plus a leader
/// crash at `t_crash` (recovering 25 ms later). Returns the observed
/// failover gap. Everything up to the crash replays the probe
/// bit-for-bit, so crash points derived from probe times land exactly
/// where intended.
fn run_crash_at(seed: u64, t_crash: SimTime, label: &str) -> SimDuration {
    let mut dep = build(seed);
    let t0 = dep.now();
    let target = dep.switch_ids()[1];
    dep.schedule_trigger(t0 + SimDuration::millis(8), TriggerOp::Move, 0, 0, target);
    inject_writes(&mut dep, t0, 48, SimDuration::millis(30));
    dep.schedule_ctrl_fail(t_crash, 0);
    dep.schedule_ctrl_recover(t_crash + SimDuration::millis(25), 0);

    let quiescent = t0 + SimDuration::millis(70);
    let ocfg = OracleConfig::new(quiescent);
    let mut suite = OracleSuite::attach(&mut dep, ocfg);
    if let Err(v) = suite.run_settled(&mut dep) {
        panic!("seed {seed} ({label}): oracle violation: {v}");
    }

    // The migration must converge under the surviving quorum: a Commit
    // for the moved range whose owners include the destination.
    let log = dep.reconfig_events();
    let committed = log.iter().any(|e| {
        matches!(&e.event,
            ReconfigEvent::Commit { start: 0, owners, .. } if owners.contains(&target))
    });
    assert!(
        committed,
        "seed {seed} ({label}): migration abandoned after leader crash: {log:?}"
    );

    // Failover gap from the committed election log.
    let elections = dep.controller().elections();
    let successor = elections
        .iter()
        .find(|e| e.time >= t_crash)
        .unwrap_or_else(|| {
            panic!("seed {seed} ({label}): no election after leader crash: {elections:?}")
        });
    successor.time.since(t_crash)
}

const FAILOVER_SEEDS: [u64; 12] = [501, 502, 503, 504, 505, 506, 507, 508, 509, 510, 511, 512];

/// The E21 gate: for every seed, crash the leader mid-`Transferring`
/// (between `Begin` and `Done`) and again at the `Done` boundary (the
/// switches' dual-owner window, with the commit decision in flight).
/// Both runs must keep all 48 foreground writes (the convergence oracle
/// fails otherwise — zero write unavailability), finish the migration,
/// and elect a successor within bounded time.
#[test]
fn crash_during_migration_sweep() {
    let mut worst = SimDuration::ZERO;
    for &seed in &FAILOVER_SEEDS {
        let (_t0, t_begin, t_done) = probe_migration(seed);
        assert!(t_begin < t_done, "seed {seed}: inverted probe times");

        let mid = t_begin + SimDuration::nanos(t_done.since(t_begin).as_nanos() / 2);
        let g1 = run_crash_at(seed, mid, "mid-Transferring");
        let g2 = run_crash_at(seed, t_done, "dual-owner boundary");
        worst = worst.max(g1).max(g2);
    }
    // Elections are staggered by failure_timeout + idx·heartbeat, so a
    // successor must exist well within 4x the failure timeout.
    assert!(
        worst <= SimDuration::millis(60),
        "worst failover gap {worst} exceeds bound"
    );
}

/// Randomized fault sweep over the replicated deployment: controller
/// replicas join the crash/partition candidate pool
/// (`FaultGen::generate_with_controllers`, which keeps a quorum alive
/// by construction) while migration triggers race the schedule. Any
/// interleaving must stay silent under the full oracle suite — the
/// cross-replica epoch-uniqueness and split-brain invariants included.
#[test]
fn randomized_fault_sweep_with_replica_crashes() {
    let mut ctrl_crashes = 0usize;
    for seed in [701u64, 702, 703, 704, 705, 706, 707, 708] {
        let mut dep = build(seed);
        let t0 = dep.now();
        let horizon = SimDuration::millis(60);
        let nodes = dep.switch_ids().to_vec();
        let ctrls = dep.controller_ids().to_vec();
        let links = dep.fault_links();
        let mut gen = FaultGen::new(seed);
        let sched = gen.generate_with_controllers(&nodes, &ctrls, &links, horizon, 5);
        let tokens: Vec<u64> = nodes
            .iter()
            .flat_map(|&sw| {
                [
                    trigger_token_op(TriggerOp::Move, 0, 0, sw),
                    trigger_token_op(TriggerOp::Grow, 0, 16, sw),
                ]
            })
            .collect();
        let sched = gen.interleave_triggers(sched, WireNodeId::CONTROLLER, &tokens, horizon, 2);
        let sched_str = sched.to_string();
        dep.schedule_faults(t0, &sched);
        ctrl_crashes += sched
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Crash { node } if ctrls.contains(&node)))
            .count();

        // Writers the schedule never crashes, so every write must land.
        let writers = spared_writers(&sched, &nodes);
        for i in 0..48u64 {
            let key = (i % u64::from(KEYS)) as u16;
            let sw = writers[(i as usize) % writers.len()];
            dep.inject(
                t0 + SimDuration::micros(i * 1000),
                sw,
                0,
                udp_write(key, 100 + i as u16),
            );
        }

        let ocfg = OracleConfig::new(t0 + horizon);
        let mut suite = OracleSuite::attach(&mut dep, ocfg);
        if let Err(v) = suite.run_settled(&mut dep) {
            panic!(
                "oracle violation: {v}\n\
                 replay: replicated sweep seed={seed} episodes=5 triggers=2 \
                 horizon={horizon}\n{sched_str}"
            );
        }
    }
    // The sweep must actually exercise controller crashes somewhere.
    assert!(
        ctrl_crashes >= 2,
        "only {ctrl_crashes} controller crashes across the whole sweep"
    );
}

/// A replicated run is a pure function of its seed: replaying the
/// mid-migration leader crash twice yields identical register state,
/// reconfiguration logs, election logs, and consensus counters.
#[test]
fn replicated_failover_is_bit_reproducible() {
    let fingerprint = |seed: u64| -> String {
        let mut dep = build(seed);
        let t0 = dep.now();
        let target = dep.switch_ids()[1];
        dep.schedule_trigger(t0 + SimDuration::millis(8), TriggerOp::Move, 0, 0, target);
        inject_writes(&mut dep, t0, 48, SimDuration::millis(30));
        dep.schedule_ctrl_fail(t0 + SimDuration::millis(12), 0);
        dep.schedule_ctrl_recover(t0 + SimDuration::millis(37), 0);
        dep.run_for(SimDuration::millis(90));
        let peeks: Vec<u64> = (0..3)
            .flat_map(|sw| (0..KEYS).map(move |k| (sw, k)))
            .map(|(sw, k)| dep.peek(sw, 0, k))
            .collect();
        format!(
            "{peeks:?}|{:?}|{:?}|{:?}",
            dep.reconfig_events(),
            dep.controller().elections(),
            dep.controller().consensus_metrics(),
        )
    };
    assert_eq!(fingerprint(601), fingerprint(601));
}
