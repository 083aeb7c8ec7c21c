//! E19 — live reconfiguration under a skewed workload: a Zipf-skewed
//! writer hammers a partitioned register from a switch that owns none of
//! the hot keys. With the reconfiguration planner enabled, per-range load
//! reports steer the hot range onto its talker mid-run (state streamed,
//! ownership flipped by an epoch bump) while writes keep completing; the
//! baseline run leaves placement static. Measured: per-phase write
//! latency and throughput (pre-move / transfer / post-commit), the
//! disruption paid during the transfer, and the migration's wire cost —
//! with every consistency oracle armed on the reconfiguring run.

use crate::table::{ExperimentResult, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use swishmem::oracle::{OracleConfig, OracleSuite};
use swishmem::prelude::*;
use swishmem::probe::{udp_write, WriteNf};
use swishmem::{MigrationPhase, RegisterSpec};
use swishmem_nf::workload::Zipf;

const KEYS: u32 = 64;
/// All traffic enters at this switch — the bootstrap owner of the *last*
/// range only, so the Zipf head (key 0) is remote until the planner acts.
const TALKER: usize = 2;

struct Outcome {
    t0: SimTime,
    injected: u64,
    completed: u64,
    failed: u64,
    /// (time, cumulative completed, latency-sample count) at first
    /// Transferring and first Committed sighting of the hot range.
    begin_mark: Option<(SimTime, u64, usize)>,
    commit_mark: Option<(SimTime, u64, usize)>,
    end_mark: (SimTime, u64, usize),
    /// Talker-side end-to-end write latencies, in completion order.
    latencies: Vec<u64>,
    chunks_sent: u64,
    chunks_applied: u64,
    load_reports: u64,
    moves_committed: usize,
    oracle_violations: usize,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn seg_stats(lat: &[u64], a: usize, b: usize) -> (f64, u64) {
    let seg = &lat[a.min(lat.len())..b.min(lat.len())];
    if seg.is_empty() {
        return (0.0, 0);
    }
    let mean = seg.iter().map(|&x| x as f64).sum::<f64>() / seg.len() as f64;
    let mut s = seg.to_vec();
    s.sort_unstable();
    (mean, percentile(&s, 0.99))
}

/// One run: Zipf writes from the talker for `horizon`, planner on or off,
/// phase marks taken whenever the hot range's migration state changes.
/// `marks` (from a prior reconfiguring run) aligns the baseline's phase
/// boundaries so the two runs segment identically in time.
fn run_once(enabled: bool, quick: bool, marks: Option<(SimTime, SimTime)>) -> Outcome {
    let mut cfg = SwishConfig::default();
    cfg.reconfig.enabled = enabled;
    cfg.reconfig.min_writes = 24;
    // Stretch the chunk stream so the dual-owner window is long enough
    // to observe writes completing *during* the transfer (the default
    // tuning finishes a 22-key range in tens of microseconds).
    cfg.reconfig.chunk_keys = 4;
    cfg.reconfig.chunk_interval = SimDuration::micros(300);
    // A wide-area-ish fabric (50 µs one-way) makes placement matter:
    // a remote write pays two extra link crossings per attempt.
    let link = LinkParams {
        latency: SimDuration::micros(50),
        ..LinkParams::datacenter()
    };
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(19)
        .swish_config(cfg)
        .link(link)
        .register(RegisterSpec::partitioned(0, "hot", KEYS))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    let t0 = dep.now();

    // One write per 100 µs keeps the pipeline in its stable regime
    // (completion tracks injection), so latency reflects the write path
    // rather than queueing.
    let (gap_us, horizon) = if quick {
        (100u64, SimDuration::millis(50))
    } else {
        (100u64, SimDuration::millis(120))
    };
    let zipf = Zipf::new(KEYS as usize, 1.1);
    let mut rng = StdRng::seed_from_u64(19);
    let mut injected = 0u64;
    let mut t = SimDuration::micros(0);
    while t < horizon {
        let key = zipf.sample(&mut rng) as u16;
        dep.inject(
            t0 + t,
            TALKER,
            0,
            udp_write(key, 100 + (injected % 400) as u16),
        );
        injected += 1;
        t = t + SimDuration::micros(gap_us);
    }

    let ocfg = OracleConfig::new(t0 + horizon);
    let mut suite = enabled.then(|| OracleSuite::attach(&mut dep, ocfg));
    let end = ocfg.settled_at();

    let mut begin_mark = None;
    let mut commit_mark = None;
    let mut end_mark = None;
    let mark = |dep: &Deployment| {
        (
            dep.now(),
            dep.sum_metric(|m| m.cp.jobs_completed),
            dep.metrics(TALKER).cp.write_latency.count(),
        )
    };
    while dep.now() < end {
        dep.run_for(SimDuration::micros(500));
        if let Some(s) = suite.as_mut() {
            s.poll(&dep);
        }
        match marks {
            // Baseline: segment at the reconfiguring run's boundaries.
            Some((tb, tc)) => {
                if begin_mark.is_none() && dep.now() >= tb {
                    begin_mark = Some(mark(&dep));
                }
                if commit_mark.is_none() && dep.now() >= tc {
                    commit_mark = Some(mark(&dep));
                }
            }
            // Reconfiguring run: segment at observed phase changes of the
            // hot range (key 0). The bootstrap table already reads
            // `Committed`, so "begin" is the first *open* migration.
            None => {
                let phase = dep.migration_phase(0, 0);
                let open = matches!(
                    phase,
                    MigrationPhase::Transferring | MigrationPhase::DualOwner
                );
                if begin_mark.is_none() && open {
                    begin_mark = Some(mark(&dep));
                }
                if begin_mark.is_some() && commit_mark.is_none() && !open {
                    commit_mark = Some(mark(&dep));
                }
            }
        }
        // Rates are measured over the offered-load window only; the
        // drain tail (no injections) would deflate them.
        if end_mark.is_none() && dep.now() >= t0 + horizon {
            end_mark = Some(mark(&dep));
        }
    }
    let end_mark = end_mark.unwrap_or_else(|| mark(&dep));

    let moves_committed = dep
        .reconfig_events()
        .iter()
        .filter(|e| matches!(e.event, swishmem::ReconfigEvent::Commit { .. }))
        .count()
        .saturating_sub(3); // bootstrap commits one epoch per range
    Outcome {
        t0,
        injected,
        completed: dep.sum_metric(|m| m.cp.jobs_completed),
        failed: dep.sum_metric(|m| m.cp.jobs_failed + m.cp.jobs_shed),
        begin_mark,
        commit_mark,
        end_mark,
        latencies: dep.metrics(TALKER).cp.write_latency.samples().to_vec(),
        chunks_sent: dep.sum_metric(|m| m.cp.migrate_chunks_sent),
        chunks_applied: dep.sum_metric(|m| m.dp.migrate_applied),
        load_reports: dep.sum_metric(|m| m.cp.load_reports_sent),
        moves_committed,
        oracle_violations: usize::from(suite.map(|mut s| s.poll(&dep).is_some()).unwrap_or(false)),
    }
}

fn rate_per_ms(completed: u64, dur: SimDuration) -> f64 {
    if dur.as_nanos() == 0 {
        return 0.0;
    }
    completed as f64 * 1e6 / dur.as_nanos() as f64
}

/// Run E19.
pub fn run(quick: bool) -> ExperimentResult {
    let reconf = run_once(true, quick, None);
    let marks = match (reconf.begin_mark, reconf.commit_mark) {
        (Some(b), Some(c)) => (b.0, c.0),
        _ => {
            return ExperimentResult {
                id: "E19".into(),
                title: "Live reconfiguration under skew".into(),
                paper_anchor: "§7/§9 (directory service, state migration)".into(),
                expectation: "planner migrates the hot range onto its talker".into(),
                tables: vec![],
                findings: vec!["planner never migrated the hot range — investigate".into()],
            };
        }
    };
    let base = run_once(false, quick, Some(marks));

    let segments = |o: &Outcome| {
        let b = o.begin_mark.expect("begin mark");
        let c = o.commit_mark.expect("commit mark");
        let e = o.end_mark;
        // (label, duration, completed, latency slice bounds)
        vec![
            ("pre-move", b.0.since(o.t0), b.1, (0usize, b.2)),
            ("transfer", c.0.since(b.0), c.1 - b.1, (b.2, c.2)),
            ("post-commit", e.0.since(c.0), e.1 - c.1, (c.2, e.2)),
        ]
    };
    let rs = segments(&reconf);
    let bs = segments(&base);

    let mut t = Table::new(
        "Skewed-workload rebalance: static placement vs live migration (Zipf 1.1, all writes at a non-owner switch)",
        &[
            "phase",
            "static writes/ms",
            "reconfig writes/ms",
            "static mean µs",
            "reconfig mean µs",
            "static p99 µs",
            "reconfig p99 µs",
        ],
    );
    let mut post_rates = (0.0f64, 0.0f64);
    let mut post_means = (0.0f64, 0.0f64);
    for (r, b) in rs.iter().zip(&bs) {
        let (rm, rp99) = seg_stats(&reconf.latencies, r.3 .0, r.3 .1);
        let (bm, bp99) = seg_stats(&base.latencies, b.3 .0, b.3 .1);
        let rrate = rate_per_ms(r.2, r.1);
        let brate = rate_per_ms(b.2, b.1);
        if r.0 == "post-commit" {
            post_rates = (brate, rrate);
            post_means = (bm, rm);
        }
        t.row(vec![
            r.0.into(),
            format!("{brate:.1}"),
            format!("{rrate:.1}"),
            format!("{:.1}", bm / 1000.0),
            format!("{:.1}", rm / 1000.0),
            format!("{:.1}", bp99 as f64 / 1000.0),
            format!("{:.1}", rp99 as f64 / 1000.0),
        ]);
    }

    let mut cost = Table::new(
        "Reconfiguration cost and availability",
        &["metric", "static", "reconfig"],
    );
    cost.row(vec![
        "writes injected".into(),
        base.injected.to_string(),
        reconf.injected.to_string(),
    ]);
    cost.row(vec![
        "writes completed".into(),
        base.completed.to_string(),
        reconf.completed.to_string(),
    ]);
    cost.row(vec![
        "writes failed/shed".into(),
        base.failed.to_string(),
        reconf.failed.to_string(),
    ]);
    cost.row(vec![
        "ranges migrated".into(),
        base.moves_committed.to_string(),
        reconf.moves_committed.to_string(),
    ]);
    cost.row(vec![
        "transfer chunks sent/applied".into(),
        format!("{}/{}", base.chunks_sent, base.chunks_applied),
        format!("{}/{}", reconf.chunks_sent, reconf.chunks_applied),
    ]);
    cost.row(vec![
        "load reports".into(),
        base.load_reports.to_string(),
        reconf.load_reports.to_string(),
    ]);
    cost.row(vec![
        "oracle violations".into(),
        "-".into(),
        reconf.oracle_violations.to_string(),
    ]);

    let lat_gain = if post_means.1 > 0.0 {
        (post_means.0 - post_means.1) / post_means.0 * 100.0
    } else {
        0.0
    };
    let transfer_completed = rs[1].2;
    let findings = vec![
        format!(
            "the planner migrated {} hot range(s) onto the talker from telemetry alone; \
             post-commit mean write latency dropped {:.0}% vs static placement \
             ({:.1} µs -> {:.1} µs) at {:.1} vs {:.1} completed writes/ms",
            reconf.moves_committed,
            lat_gain,
            post_means.0 / 1000.0,
            post_means.1 / 1000.0,
            post_rates.0,
            post_rates.1,
        ),
        format!(
            "write availability held through the transfer: {transfer_completed} writes \
             completed during the dual-owner window, {} failed or shed over the whole run",
            reconf.failed
        ),
        format!(
            "migration itself cost {} range-scoped chunks and {} load reports; \
             all consistency oracles stayed quiet ({} violations)",
            reconf.chunks_sent, reconf.load_reports, reconf.oracle_violations
        ),
    ];
    ExperimentResult {
        id: "E19".into(),
        title: "Live reconfiguration: telemetry-driven hot-range migration".into(),
        paper_anchor: "§7/§9 (directory service, migrating data as needed)".into(),
        expectation:
            "hot range moves to its talker; post-commit latency improves; writes keep completing"
                .into(),
        tables: vec![t, cost],
        findings,
    }
}
