//! E21 — control-plane failover cost: a 3-replica controller group
//! (single-decree consensus, DESIGN.md §12) loses its leader mid-way
//! through a key-range migration. Measured across a seed sweep: the
//! failover gap (leader crash to the successor's committed
//! `LeaderElected` decree), write availability through the outage, how
//! long the interrupted migration takes to converge under the new
//! leader — and the same crash against the classic singleton
//! controller, whose migration simply stalls until the controller node
//! itself recovers. The steady-state consensus message overhead is
//! reported from the no-crash runs.

use crate::scenarios::min_mean_max;
use crate::table::{ExperimentResult, Table};
use swishmem::prelude::*;
use swishmem::probe::{udp_write, WriteNf};
use swishmem::{ConfigEventKind, Deployment, ReconfigEvent, RegisterSpec, TriggerOp};
use swishmem_wire::NodeId as WireNodeId;

const KEYS: u32 = 48;
const RECOVER_AFTER: SimDuration = SimDuration::millis(25);

fn build(seed: u64, replicas: u8) -> Deployment {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(seed)
        .ctrl_replicas(replicas)
        .register(RegisterSpec::partitioned(0, "p", KEYS))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    dep
}

struct Outcome {
    injected: u64,
    completed: u64,
    failed: u64,
    /// Crash-to-successor-election gap (replicated crash runs only).
    failover_gap: Option<SimDuration>,
    /// Crash-to-migration-commit delay, when the migration committed.
    commit_delay: Option<SimDuration>,
    consensus_msgs: u64,
    leader_changes: u64,
    run_time: SimDuration,
}

/// One run: trigger a move of range `[0, 16)` to switch 1 at +8 ms,
/// offered write load for 30 ms, optional leader/controller crash at
/// `crash_at` (relative to t0) with recovery `RECOVER_AFTER` later.
fn run_once(seed: u64, replicas: u8, crash_at: Option<SimDuration>) -> Outcome {
    let mut dep = build(seed, replicas);
    let t0 = dep.now();
    let target = dep.switch_ids()[1];
    dep.schedule_trigger(t0 + SimDuration::millis(8), TriggerOp::Move, 0, 0, target);

    let mut injected = 0u64;
    let mut t = SimDuration::micros(0);
    while t < SimDuration::millis(30) {
        let key = (injected % u64::from(KEYS)) as u16;
        dep.inject(
            t0 + t,
            (injected % 3) as usize,
            0,
            udp_write(key, 100 + (injected % 400) as u16),
        );
        injected += 1;
        t = t + SimDuration::micros(100);
    }

    let t_crash = crash_at.map(|d| t0 + d);
    if let Some(tc) = t_crash {
        dep.schedule_ctrl_fail(tc, 0);
        dep.schedule_ctrl_recover(tc + RECOVER_AFTER, 0);
    }

    let horizon = SimDuration::millis(80);
    dep.run_for(horizon);

    let failover_gap = t_crash.and_then(|tc| {
        dep.controller()
            .elections()
            .iter()
            .find(|e| e.time >= tc && !matches!(e.kind, ConfigEventKind::LeaderElected(n) if n == WireNodeId::CONTROLLER))
            .map(|e| e.time.since(tc))
    });
    let reference = t_crash.unwrap_or(t0 + SimDuration::millis(8));
    let commit_delay = dep
        .reconfig_events()
        .iter()
        .find(|e| {
            e.time > reference
                && matches!(&e.event,
                    ReconfigEvent::Commit { start: 0, owners, .. } if owners.contains(&target))
        })
        .map(|e| e.time.since(reference));
    let m = dep.controller().consensus_metrics();
    Outcome {
        injected,
        completed: dep.sum_metric(|x| x.cp.jobs_completed),
        failed: dep.sum_metric(|x| x.cp.jobs_failed + x.cp.jobs_shed),
        failover_gap,
        commit_delay,
        consensus_msgs: m.msgs_sent,
        leader_changes: m.leader_changes,
        run_time: horizon,
    }
}

/// Begin/Done times of the migration in an undisturbed replicated run,
/// used to place the crash mid-transfer (everything before the crash
/// replays the probe bit-for-bit).
fn probe_marks(seed: u64) -> Option<(SimDuration, SimDuration)> {
    let mut dep = build(seed, 3);
    let t0 = dep.now();
    let target = dep.switch_ids()[1];
    dep.schedule_trigger(t0 + SimDuration::millis(8), TriggerOp::Move, 0, 0, target);
    dep.run_for(SimDuration::millis(50));
    let log = dep.reconfig_events();
    let begin = log
        .iter()
        .find(|e| matches!(e.event, ReconfigEvent::Begin { start: 0, .. }))?;
    let done = log
        .iter()
        .find(|e| matches!(e.event, ReconfigEvent::Done { start: 0, .. }))?;
    Some((begin.time.since(t0), done.time.since(t0)))
}

fn ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Run E21.
pub fn run(quick: bool) -> ExperimentResult {
    let seeds: Vec<u64> = if quick {
        (501..505).collect()
    } else {
        (501..513).collect()
    };

    let mut gaps: Vec<f64> = Vec::new();
    let mut rep_commit: Vec<f64> = Vec::new();
    let mut single_commit: Vec<f64> = Vec::new();
    let mut rep_total = (0u64, 0u64, 0u64); // injected, completed, failed
    let mut single_total = (0u64, 0u64, 0u64);
    let mut steady_msgs = 0u64;
    let mut steady_time = SimDuration::ZERO;
    let mut leader_changes = 0u64;
    let mut rep_converged = 0usize;
    let mut single_converged = 0usize;

    for &seed in &seeds {
        let Some((t_begin, t_done)) = probe_marks(seed) else {
            continue;
        };
        let mid = SimDuration::nanos((t_begin.as_nanos() + t_done.as_nanos()) / 2);

        // Steady state (no crash): consensus overhead of the group.
        let steady = run_once(seed, 3, None);
        steady_msgs += steady.consensus_msgs;
        steady_time = steady_time + steady.run_time;

        // Replicated group, leader dies mid-transfer.
        let rep = run_once(seed, 3, Some(mid));
        if let Some(g) = rep.failover_gap {
            gaps.push(ms(g));
        }
        if let Some(c) = rep.commit_delay {
            rep_commit.push(ms(c));
            rep_converged += 1;
        }
        rep_total.0 += rep.injected;
        rep_total.1 += rep.completed;
        rep_total.2 += rep.failed;
        leader_changes += rep.leader_changes;

        // Singleton controller, same crash point: no failover exists,
        // the migration waits out the controller's downtime.
        let single = run_once(seed, 1, Some(mid));
        if let Some(c) = single.commit_delay {
            single_commit.push(ms(c));
            single_converged += 1;
        }
        single_total.0 += single.injected;
        single_total.1 += single.completed;
        single_total.2 += single.failed;
    }

    let (gmin, gmean, gmax) = min_mean_max(&gaps);
    let (_, rc_mean, rc_max) = min_mean_max(&rep_commit);
    let (_, sc_mean, sc_max) = min_mean_max(&single_commit);

    let mut gap_table = Table::new(
        "Leader failover, crash mid-migration (3 replicas, majority quorum)",
        &["metric", "min", "mean", "max"],
    );
    gap_table.row(vec![
        "failover gap (crash -> committed LeaderElected), ms".into(),
        format!("{gmin:.1}"),
        format!("{gmean:.1}"),
        format!("{gmax:.1}"),
    ]);
    gap_table.row(vec![
        "migration commit after crash, ms".into(),
        "-".into(),
        format!("{rc_mean:.1}"),
        format!("{rc_max:.1}"),
    ]);
    gap_table.row(vec![
        "singleton: migration commit after crash, ms".into(),
        "-".into(),
        format!("{sc_mean:.1}"),
        format!("{sc_max:.1}"),
    ]);

    let mut avail = Table::new(
        "Write availability through the controller outage",
        &["deployment", "injected", "completed", "failed/shed"],
    );
    avail.row(vec![
        "3 replicas, leader crash".into(),
        rep_total.0.to_string(),
        rep_total.1.to_string(),
        rep_total.2.to_string(),
    ]);
    avail.row(vec![
        "singleton, controller crash".into(),
        single_total.0.to_string(),
        single_total.1.to_string(),
        single_total.2.to_string(),
    ]);

    let msgs_per_ms = if steady_time.as_nanos() > 0 {
        steady_msgs as f64 * 1e6 / steady_time.as_nanos() as f64
    } else {
        0.0
    };
    let mut overhead = Table::new("Consensus overhead (no-crash runs)", &["metric", "value"]);
    overhead.row(vec![
        "consensus messages / ms (group total)".into(),
        format!("{msgs_per_ms:.2}"),
    ]);
    overhead.row(vec![
        "committed leader changes across crash runs".into(),
        leader_changes.to_string(),
    ]);

    let findings = vec![
        format!(
            "leader failover completed in {gmean:.1} ms mean ({gmax:.1} ms worst) across \
             {} seeds with the crash landing mid-transfer; the interrupted migration \
             committed {rc_mean:.1} ms after the crash in {rep_converged}/{} runs",
            seeds.len(),
            seeds.len(),
        ),
        format!(
            "write availability held: {}/{} foreground writes completed with the leader \
             down ({} failed/shed) — the data plane never depends on a live controller",
            rep_total.1, rep_total.0, rep_total.2,
        ),
        format!(
            "the singleton baseline has no failover: its migration resumed only after the \
             controller itself recovered ({sc_mean:.1} ms mean commit delay vs {rc_mean:.1} ms \
             replicated, converging in {single_converged}/{} runs), while the replica group \
             paid a steady-state overhead of {msgs_per_ms:.2} consensus messages/ms",
            seeds.len(),
        ),
    ];
    ExperimentResult {
        id: "E21".into(),
        title: "Replicated control plane: leader failover cost".into(),
        paper_anchor: "§6.3 (fault tolerance; no single point of failure)".into(),
        expectation: "bounded failover gap, zero write unavailability, migration converges \
                      under the successor"
            .into(),
        tables: vec![gap_table, avail, overhead],
        findings,
    }
}
