//! E22 — consensus hardening (DESIGN.md §13): the phi-accrual failure
//! detector against the static timeout, measured two ways across a seed
//! sweep. (a) Real leader crashes: the adaptive detector has learned the
//! healthy beacon cadence, so it fires earlier and shrinks E21's ~22 ms
//! failover gap. (b) Gray links: replica-replica links jitter without
//! dying; neither detector may start a spurious election, and the
//! adaptive one must not even *suspect*. A third table exercises log
//! compaction and lease-validated follower reads over a long decree
//! horizon: the slot window stays bounded by snapshots while lookups are
//! load-spread across the replica group.

use crate::scenarios::{
    crash_leader, election_gap, inject_writes, min_mean_max, replicated_deployment, CRASH_KEYS,
};
use crate::table::{ExperimentResult, Table};
use swishmem::prelude::*;
use swishmem::{Deployment, TriggerOp};
use swishmem_simnet::{FaultSchedule, LinkOverlay};

fn build(seed: u64, tweak: impl FnOnce(&mut SwishConfig)) -> Deployment {
    let mut dep = replicated_deployment(seed, tweak);
    dep.settle();
    dep
}

/// Crash the warmed-up leader and return the crash-to-committed-election
/// gap under the given detector mode.
fn crash_gap(seed: u64, adaptive: bool) -> Option<SimDuration> {
    let mut dep = build(seed, |c| c.adaptive_detector = adaptive);
    let t_crash = crash_leader(&mut dep);
    election_gap(&dep, t_crash)
}

/// Jitter every replica-replica link for 50 ms (beacons arrive late and
/// reordered, but arrive) and return (spurious elections, suspicion
/// episodes) under the given detector mode.
fn gray_run(seed: u64, adaptive: bool) -> (usize, u64) {
    let mut dep = build(seed, |c| c.adaptive_detector = adaptive);
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
    inject_writes(&mut dep, t0, 48, SimDuration::millis(50));
    dep.run_for(SimDuration::millis(80));
    let spurious = dep.controller().elections().len() - elections_before;
    (
        spurious,
        dep.controller().consensus_metrics().suspect_events,
    )
}

struct CompactionOutcome {
    commit: u64,
    compactions: u64,
    snapshot_bytes: u64,
    worst_window: u64,
    follower_reads: u64,
}

/// Long decree horizon with an aggressive compaction threshold: five
/// rounds of three concurrent range migrations plus a stream of
/// directory lookups hash-spread over the replica group.
fn compaction_run(seed: u64) -> CompactionOutcome {
    let mut dep = build(seed, |c| c.log_compact_threshold = 4);
    let t0 = dep.now();
    let switches = dep.switch_ids().to_vec();
    for r in 0..5u64 {
        let t = t0 + SimDuration::millis(8) + SimDuration::millis(60).times(r);
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
    inject_writes(&mut dep, t0, 96, SimDuration::millis(280));
    for i in 0..60u64 {
        dep.dir_lookup(
            t0 + SimDuration::millis(5 * i),
            (i % 3) as usize,
            0,
            (i % u64::from(CRASH_KEYS)) as u32,
        );
    }
    dep.run_for(SimDuration::millis(340));
    let m = dep.controller().consensus_metrics();
    let group = dep.controller();
    let worst_window = (0..group.len())
        .filter_map(|i| group.replica(i))
        .map(|c| m.commit.saturating_sub(c.log_base()))
        .max()
        .unwrap_or(0);
    CompactionOutcome {
        commit: m.commit,
        compactions: m.log_compactions,
        snapshot_bytes: m.snapshot_bytes,
        worst_window,
        follower_reads: m.follower_reads,
    }
}

fn ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Run E22.
pub fn run(quick: bool) -> ExperimentResult {
    let seeds: Vec<u64> = if quick {
        (801..805).collect()
    } else {
        (801..813).collect()
    };

    let mut adaptive_gaps = Vec::new();
    let mut static_gaps = Vec::new();
    let mut spurious = [0usize; 2]; // [adaptive, static]
    let mut suspects = [0u64; 2];
    for &seed in &seeds {
        if let Some(g) = crash_gap(seed, true) {
            adaptive_gaps.push(ms(g));
        }
        if let Some(g) = crash_gap(seed, false) {
            static_gaps.push(ms(g));
        }
        for (slot, adaptive) in [(0usize, true), (1, false)] {
            let (e, s) = gray_run(seed, adaptive);
            spurious[slot] += e;
            suspects[slot] += s;
        }
    }
    let comp = compaction_run(seeds[0]);

    let (amin, amean, amax) = min_mean_max(&adaptive_gaps);
    let (smin, smean, smax) = min_mean_max(&static_gaps);
    let mut gap_table = Table::new(
        "Failover gap by detector (leader crash after warm-up)",
        &["detector", "min ms", "mean ms", "max ms", "elections"],
    );
    gap_table.row(vec![
        "phi-accrual (adaptive)".into(),
        format!("{amin:.1}"),
        format!("{amean:.1}"),
        format!("{amax:.1}"),
        adaptive_gaps.len().to_string(),
    ]);
    gap_table.row(vec![
        "static failure_timeout".into(),
        format!("{smin:.1}"),
        format!("{smean:.1}"),
        format!("{smax:.1}"),
        static_gaps.len().to_string(),
    ]);

    let mut gray = Table::new(
        "Gray links: 2 ms beacon jitter on every replica-replica link",
        &["detector", "spurious elections", "suspicion episodes"],
    );
    gray.row(vec![
        "phi-accrual (adaptive)".into(),
        spurious[0].to_string(),
        suspects[0].to_string(),
    ]);
    gray.row(vec![
        "static failure_timeout".into(),
        spurious[1].to_string(),
        suspects[1].to_string(),
    ]);

    let mut compact = Table::new(
        "Log compaction + follower reads (threshold 4, 15 migrations)",
        &["metric", "value"],
    );
    compact.row(vec!["decrees committed".into(), comp.commit.to_string()]);
    compact.row(vec!["compactions".into(), comp.compactions.to_string()]);
    compact.row(vec![
        "snapshot bytes persisted".into(),
        comp.snapshot_bytes.to_string(),
    ]);
    compact.row(vec![
        "worst live slot window (cap 1024)".into(),
        comp.worst_window.to_string(),
    ]);
    compact.row(vec![
        "lease-validated follower reads".into(),
        comp.follower_reads.to_string(),
    ]);

    let findings = vec![
        format!(
            "the adaptive detector cut the mean failover gap to {amean:.1} ms \
             ({amax:.1} ms worst) from the static detector's {smean:.1} ms \
             ({smax:.1} ms worst) across {} seeds — beacons arrive every ~5 ms \
             with near-zero deviation, so suspicion fires at mean + 4·dev + floor \
             instead of the conservative 15 ms timeout",
            seeds.len(),
        ),
        format!(
            "gray links caused {} spurious elections and {} suspicion episodes under \
             the adaptive detector ({} and {} under the static timeout): jittered \
             beacons widen the adaptive threshold instead of tripping it",
            spurious[0], suspects[0], spurious[1], suspects[1],
        ),
        format!(
            "compaction kept the live slot window at {} of 1024 slots across {} \
             committed decrees ({} snapshots, {} bytes), while {} directory lookups \
             were served by lease-holding followers instead of the leader",
            comp.worst_window,
            comp.commit,
            comp.compactions,
            comp.snapshot_bytes,
            comp.follower_reads,
        ),
    ];
    ExperimentResult {
        id: "E22".into(),
        title: "Consensus hardening: adaptive failure detection, compaction, follower reads".into(),
        paper_anchor: "§6.3 (fault tolerance; controller availability)".into(),
        expectation: "smaller failover gap than E21's static detector, no spurious elections \
                      under gray links, bounded log growth"
            .into(),
        tables: vec![gap_table, gray, compact],
        findings,
    }
}
