//! Consensus hardening gates (DESIGN.md §13): log compaction under a
//! long decree horizon, runtime replica-group reconfiguration under
//! fault injection, lease-validated follower reads at the partition
//! edge, and the adaptive failure detector versus gray links.
//!
//! Each test doubles as a named CI gate (see `scripts/verify.sh`):
//! * `compaction_sweep_long_horizon` — the slot window never overflows;
//!   decree volume of many compaction windows is sustained with zero
//!   oracle violations and no `ConsensusError`.
//! * `reconfiguration_under_fault_sweep` — a dead replica is replaced by
//!   a spare at runtime, 12 seeds, full fault plane active.
//! * `detector_cuts_failover_gap` / `gray_links_cause_no_spurious_elections`
//!   — the phi-accrual detector beats the static timeout on real
//!   crashes without false positives on slow-but-alive links.

use swishmem::oracle::{OracleConfig, OracleSuite};
use swishmem::prelude::*;
use swishmem::probe::{spared_writers, udp_write, WriteNf};
use swishmem::{ConfigEventKind, Deployment, RegisterSpec, TriggerOp};
use swishmem_simnet::{FaultGen, FaultSchedule, LinkOverlay};
use swishmem_wire::NodeId as WireNodeId;

const KEYS: u32 = 48;

fn build_with(seed: u64, spares: u8, tweak: impl FnOnce(&mut SwishConfig)) -> Deployment {
    let mut cfg = SwishConfig {
        ctrl_replicas: 3,
        ..Default::default()
    };
    tweak(&mut cfg);
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(seed)
        .swish_config(cfg)
        .ctrl_spares(spares)
        .register(RegisterSpec::partitioned(0, "p", KEYS))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    dep
}

fn inject_writes(
    dep: &mut Deployment,
    t0: SimTime,
    n: u64,
    window: SimDuration,
    writers: &[usize],
) {
    let step = window.as_nanos() / n.max(1);
    for i in 0..n {
        let key = (i % u64::from(KEYS)) as u16;
        let sw = writers[(i as usize) % writers.len()];
        dep.inject(
            t0 + SimDuration::nanos(i * step),
            sw,
            0,
            udp_write(key, 100 + i as u16),
        );
    }
}

/// Long-horizon compaction gate: with a tiny compaction threshold, a
/// stream of ping-ponging migrations pushes the committed log through
/// several compaction windows. The slot window must stay bounded by
/// compaction (never anywhere near `SLOT_CAP`), snapshots must actually
/// be cut, no replica may report a `ConsensusError`, and the entire
/// oracle suite stays silent.
#[test]
fn compaction_sweep_long_horizon() {
    let threshold = 4usize;
    let mut dep = build_with(41, 0, |c| c.log_compact_threshold = threshold);
    let t0 = dep.now();

    // Five rounds of three concurrent range migrations: range j starts
    // owned by switch j, and round r moves it to a switch that is never
    // its current owner (ping-pong over the other two).
    let switches = dep.switch_ids().to_vec();
    let spacing = SimDuration::millis(60); // > planner cooldown (50 ms)
    for r in 0..5u64 {
        let t = t0 + SimDuration::millis(8) + spacing.times(r);
        dep.schedule_trigger(t, TriggerOp::Move, 0, 0, switches[(1 + r as usize % 2) % 3]);
        dep.schedule_trigger(
            t,
            TriggerOp::Move,
            0,
            16,
            switches[(2 * (r as usize % 2)) % 3],
        );
        dep.schedule_trigger(t, TriggerOp::Move, 0, 32, switches[r as usize % 2]);
    }
    inject_writes(&mut dep, t0, 96, SimDuration::millis(280), &[0, 1, 2]);

    let quiescent = t0 + SimDuration::millis(340);
    let ocfg = OracleConfig::new(quiescent);
    let mut suite = OracleSuite::attach(&mut dep, ocfg);
    if let Err(v) = suite.run_settled(&mut dep) {
        panic!("oracle violation during compaction sweep: {v}");
    }

    let m = dep.controller().consensus_metrics();
    assert!(
        m.commit >= 4 * threshold as u64,
        "only {} decrees committed — the sweep must span four compaction windows",
        m.commit
    );
    assert!(m.log_compactions >= 1, "no compaction ran: {m:?}");
    assert!(m.snapshot_bytes > 0, "compaction cut no snapshot: {m:?}");
    let errors = dep.controller().consensus_errors();
    assert!(errors.is_empty(), "consensus errors: {errors:?}");
    // The live window is recycled behind the apply cursor: on every
    // replica it stays within one threshold of growth plus in-flight
    // slack, nowhere near the `SLOT_CAP` (1024) storage bound.
    let group = dep.controller();
    for i in 0..group.len() {
        let Some(c) = group.replica(i) else { continue };
        let window = m.commit.saturating_sub(c.log_base());
        assert!(
            window < 4 * threshold as u64,
            "replica {i}: live window {window} slots — compaction is not keeping up"
        );
    }
    let (_, leader) = group.leader().expect("leader after quiescence");
    assert!(leader.log_base() > 0, "leader never advanced its log base");
}

const RECONFIG_SEEDS: [u64; 12] = [901, 902, 903, 904, 905, 906, 907, 908, 909, 910, 911, 912];

/// Runtime replica replacement under fire: replica 1 dies for good,
/// an operator decree removes it from the group and admits the spare,
/// all while a random link/switch fault schedule and a live migration
/// run. Every seed must end with one agreed three-member group (dead
/// replica out, spare in), a working quorum, and zero violations.
#[test]
fn reconfiguration_under_fault_sweep() {
    for &seed in &RECONFIG_SEEDS {
        let mut dep = build_with(seed, 1, |_| {});
        assert_eq!(dep.controller().len(), 4, "3 active + 1 spare");
        let group = dep.controller().leader().map(|(_, l)| l.consensus_group());
        assert_eq!(group.map(|g| g.len()), Some(3), "the spare starts outside");
        let t0 = dep.now();
        let ctrls = dep.controller_ids().to_vec();
        let horizon = SimDuration::millis(60);

        // The hardening scenario: crash a follower for good, decree it
        // out, decree the spare in.
        dep.schedule_ctrl_fail(t0 + SimDuration::millis(6), 1);
        dep.schedule_ctrl_remove(t0 + SimDuration::millis(14), 1);
        dep.schedule_ctrl_add(t0 + SimDuration::millis(22), 3);
        let target = dep.switch_ids()[1];
        dep.schedule_trigger(t0 + SimDuration::millis(10), TriggerOp::Move, 0, 0, target);

        // Random switch/link faults on top (controller crashes come from
        // the scenario itself, so the generator only gets switches).
        let nodes = dep.switch_ids().to_vec();
        let links = dep.fault_links();
        let sched = FaultGen::new(seed).generate(&nodes, &links, horizon, 4);
        let sched_str = sched.to_string();
        dep.schedule_faults(t0, &sched);
        let writers = spared_writers(&sched, &nodes);
        inject_writes(&mut dep, t0, 48, SimDuration::millis(40), &writers);

        let quiescent = t0 + horizon + SimDuration::millis(20);
        let ocfg = OracleConfig::new(quiescent);
        let mut suite = OracleSuite::attach(&mut dep, ocfg);
        if let Err(v) = suite.run_settled(&mut dep) {
            panic!("seed {seed}: oracle violation during replica replacement: {v}\n{sched_str}");
        }

        // The committed log recorded both membership decrees…
        let events = dep.controller_events();
        assert!(
            events
                .iter()
                .any(|e| e.kind == ConfigEventKind::ReplicaRemoved(ctrls[1])),
            "seed {seed}: dead replica never decreed out: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.kind == ConfigEventKind::ReplicaAdded(ctrls[3])),
            "seed {seed}: spare never decreed in: {events:?}"
        );
        // …and every live replica agrees on the one resulting group.
        let want = {
            let mut g = vec![ctrls[0], ctrls[2], ctrls[3]];
            g.sort();
            g
        };
        let group = dep.controller();
        for i in [0usize, 2, 3] {
            if group.is_failed(i) {
                continue; // random schedule may have a switch down; replicas 0/2/3 never crash here
            }
            let mut got = group.replica(i).expect("live replica").consensus_group();
            got.sort();
            assert_eq!(
                got, want,
                "seed {seed}: replica {i} disagrees on the reconfigured membership"
            );
        }
        assert_eq!(
            group.quorum(),
            2,
            "seed {seed}: wrong quorum after replacement"
        );
        let errors = group.consensus_errors();
        assert!(
            errors.is_empty(),
            "seed {seed}: consensus errors: {errors:?}"
        );
    }
}

/// A membership decree racing a leader crash must converge to exactly
/// one membership: the `AddReplica` trigger fires fabric-wide the same
/// instant the leader dies. Whether the decree survives into the new
/// term (the proposal reached a quorum) or dies with the old leader,
/// every replica must end on the *same* group with the spare admitted
/// at most once — never a torn membership. A post-quiescence re-issue
/// must then land the spare everywhere, proving no torn state lingers.
#[test]
fn membership_decree_racing_leader_crash_converges() {
    let mut admitted_in_race = 0usize;
    for seed in [31u64, 32, 33, 34] {
        let mut dep = build_with(seed, 1, |_| {});
        let t0 = dep.now();
        let ctrls = dep.controller_ids().to_vec();
        let t_race = t0 + SimDuration::millis(8);
        dep.schedule_ctrl_add(t_race, 3);
        dep.schedule_ctrl_fail(t_race, 0);
        dep.schedule_ctrl_recover(t_race + SimDuration::millis(25), 0);
        inject_writes(&mut dep, t0, 48, SimDuration::millis(30), &[0, 1, 2]);

        let quiescent = t0 + SimDuration::millis(60);
        let ocfg = OracleConfig::new(quiescent);
        let mut suite = OracleSuite::attach(&mut dep, ocfg);
        if let Err(v) = suite.run(&mut dep, quiescent) {
            panic!("seed {seed}: oracle violation in membership/crash race: {v}");
        }

        // Phase 1 — exactly one membership: every live replica holds the
        // same group, spare admitted at most once.
        let spare_count = |dep: &Deployment, seed: u64, phase: &str| -> usize {
            let group = dep.controller();
            let mut agreed: Option<Vec<WireNodeId>> = None;
            for i in 0..group.len() {
                if group.is_failed(i) {
                    continue;
                }
                let mut g = group.replica(i).expect("live replica").consensus_group();
                g.sort();
                assert!(
                    g.iter().filter(|&&n| n == ctrls[3]).count() <= 1,
                    "seed {seed} ({phase}): replica {i} admitted the spare twice: {g:?}"
                );
                match &agreed {
                    None => agreed = Some(g),
                    Some(want) => assert_eq!(
                        &g, want,
                        "seed {seed} ({phase}): replica {i} diverged from the agreed membership"
                    ),
                }
            }
            let agreed = agreed.unwrap_or_else(|| panic!("seed {seed}: no live replica"));
            agreed.iter().filter(|&&n| n == ctrls[3]).count()
        };
        admitted_in_race += spare_count(&dep, seed, "race");

        // Phase 2 — re-issuing the decree after the dust settles must
        // admit the spare everywhere (idempotent if it already landed).
        dep.schedule_ctrl_add(dep.now() + SimDuration::millis(2), 3);
        if let Err(v) = suite.run_settled(&mut dep) {
            panic!("seed {seed}: oracle violation after decree re-issue: {v}");
        }
        assert_eq!(
            spare_count(&dep, seed, "re-issue"),
            1,
            "seed {seed}: spare still missing after an uncontended decree"
        );
    }
    // The race itself must land the decree at least once across the
    // sweep, or the "decree survives the crash" path is never exercised.
    assert!(
        admitted_in_race >= 1,
        "the decree never survived the crash in any seed"
    );
}

/// Lease-edge gate: a follower cut off from the leader serves lookups
/// only while its leader lease is warm. Within the lease the reply is
/// still provably fresh (the staleness oracle watches every delivered
/// `DirReply` against the master-table history); past the lease the
/// follower must *drop* the lookup rather than answer from a possibly
/// stale table — the querying switch simply observes no reply.
#[test]
fn follower_lease_blocks_stale_reads_across_partition() {
    let mut dep = build_with(53, 0, |_| {});
    let t0 = dep.now();
    let ctrls = dep.controller_ids().to_vec();
    // Isolate follower replica 2 from its peers (switches keep their
    // paths to it, so lookups still arrive) for 30 ms — far beyond the
    // 8 ms directory lease.
    let cut = FaultSchedule::new().partition(
        &[ctrls[2]],
        &[ctrls[0], ctrls[1]],
        SimDuration::millis(5),
        SimDuration::millis(30),
    );
    dep.schedule_faults(t0, &cut);

    // Warm lease (1 ms into the partition): served.
    dep.dir_lookup_at(t0 + SimDuration::millis(6), 0, 2, 0, 3);
    // Expired lease (20 ms into the partition): dropped.
    dep.dir_lookup_at(t0 + SimDuration::millis(25), 0, 2, 0, 7);
    // Healed and lease renewed: served again.
    dep.dir_lookup_at(t0 + SimDuration::millis(48), 0, 2, 0, 7);

    let quiescent = t0 + SimDuration::millis(55);
    let ocfg = OracleConfig::new(quiescent);
    let mut suite = OracleSuite::attach(&mut dep, ocfg);
    // Observe the mid-partition outcome before the healed re-lookup can
    // overwrite the cache entry.
    if let Err(v) = suite.run(&mut dep, t0 + SimDuration::millis(40)) {
        panic!("oracle violation at the lease edge: {v}");
    }
    let served_while_cut = dep.dir_owners(0, 0, 7).is_some();
    if let Err(v) = suite.run_settled(&mut dep) {
        panic!("oracle violation at the lease edge: {v}");
    }

    assert!(
        dep.dir_owners(0, 0, 3).is_some(),
        "lookup within the lease was not served"
    );
    assert!(
        !served_while_cut,
        "follower served a lookup after its lease expired mid-partition"
    );
    assert!(
        dep.dir_owners(0, 0, 7).is_some(),
        "healed follower with a renewed lease must serve again"
    );
    let m = dep.controller().consensus_metrics();
    assert!(
        m.follower_reads >= 1,
        "no follower ever served a read: {m:?}"
    );
}

/// Gray links must not destabilize leadership: 2 ms of random jitter on
/// every replica-replica link (heartbeats arrive late and reordered,
/// but arrive) for 50 ms. The adaptive detector widens its timeout with
/// the observed inter-arrival deviation, so no replica ever suspects
/// the leader, and the election log stays frozen.
#[test]
fn gray_links_cause_no_spurious_elections() {
    let mut dep = build_with(67, 0, |_| {});
    let t0 = dep.now();
    let ctrls = dep.controller_ids().to_vec();
    let elections_before = dep.controller().elections().len();

    let mut sched = FaultSchedule::new();
    for (i, &a) in ctrls.iter().enumerate() {
        for &b in &ctrls[i + 1..] {
            sched = sched.degrade_for(
                a,
                b,
                SimDuration::millis(10),
                SimDuration::millis(50),
                LinkOverlay::jitter(SimDuration::millis(2)),
            );
        }
    }
    dep.schedule_faults(t0, &sched);
    inject_writes(&mut dep, t0, 48, SimDuration::millis(50), &[0, 1, 2]);

    let quiescent = t0 + SimDuration::millis(70);
    let ocfg = OracleConfig::new(quiescent);
    let mut suite = OracleSuite::attach(&mut dep, ocfg);
    if let Err(v) = suite.run_settled(&mut dep) {
        panic!("oracle violation under gray links: {v}");
    }

    let m = dep.controller().consensus_metrics();
    assert_eq!(
        dep.controller().elections().len(),
        elections_before,
        "gray links caused a spurious election"
    );
    assert_eq!(
        m.suspect_events, 0,
        "the adaptive detector falsely suspected a live leader: {m:?}"
    );
}

/// Measure the failover gap (leader crash → committed successor
/// election) with the detector in a given mode.
fn failover_gap(adaptive: bool) -> SimDuration {
    let mut dep = build_with(71, 0, |c| c.adaptive_detector = adaptive);
    // Warm-up: the detector needs a few beacon inter-arrival samples.
    dep.run_for(SimDuration::millis(30));
    let t_crash = dep.now();
    dep.schedule_ctrl_fail(t_crash, 0);
    inject_writes(&mut dep, t_crash, 24, SimDuration::millis(20), &[0, 1, 2]);
    dep.run_for(SimDuration::millis(60));

    let elections = dep.controller().elections();
    let successor = elections
        .iter()
        .find(|e| e.time >= t_crash)
        .unwrap_or_else(|| panic!("no successor election after the crash: {elections:?}"));
    successor.time.since(t_crash)
}

/// E22's CI gate: on an actual leader crash the phi-accrual detector —
/// having learned that healthy beacons arrive every ~5 ms with almost
/// no deviation — fires well before the static 15 ms timeout, so the
/// measured failover gap shrinks strictly below the static detector's
/// and below E21's ~22 ms headline gap.
#[test]
fn detector_cuts_failover_gap() {
    let adaptive = failover_gap(true);
    let fixed = failover_gap(false);
    assert!(
        adaptive < fixed,
        "adaptive detector ({adaptive}) is no faster than the static timeout ({fixed})"
    );
    assert!(
        adaptive < SimDuration::millis(22),
        "adaptive failover gap {adaptive} does not beat the E21 headline (~22 ms)"
    );
}
