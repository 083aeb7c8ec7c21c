//! `ctrl_explain` — run an E22-style leader-crash scenario with the
//! control-plane flight recorder attached, reconstruct the causal
//! failover narrative (last beacon → suspicion → campaign → decree
//! chosen → decree applied) from the journal, print per-phase breakdown
//! tables for failovers, migrations and compactions, and export the
//! control-plane timeline as Chrome/Perfetto JSON.
//!
//! Usage:
//!
//! ```text
//! cargo run -p swishmem-bench --release --bin ctrl_explain -- \
//!     [--seed N] [--out-dir results]
//! ```
//!
//! Artifacts (see `results/README.md` for the naming scheme):
//! * `<out>/ctrl_seed<N>.perfetto.json` — load in ui.perfetto.dev
//! * `<out>/ctrl_seed<N>.explain.json` — failover/migration/compaction summary
//!
//! Exit status is non-zero if the journal fails to reconstruct the
//! post-crash failover, or if the reconstructed crash-to-election gap
//! disagrees with the controller's own election log by more than 1 µs.

use swishmem::oracle::{OracleConfig, OracleSuite};
use swishmem::prelude::*;
use swishmem::{
    Deployment, Failover, Journal, NfApp, NfDecision, RegisterSpec, SharedState, TriggerOp,
};
use swishmem_bench::json::Json;
use swishmem_bench::scenarios::udp_write;
use swishmem_bench::spans::ctrl_to_perfetto;
use swishmem_bench::table::{ns, Table};

struct WriteNf;
impl NfApp for WriteNf {
    fn process(&mut self, pkt: &DataPacket, _i: NodeId, st: &mut dyn SharedState) -> NfDecision {
        st.write(0, u32::from(pkt.flow.dst_port), u64::from(pkt.payload_len));
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

const KEYS: u32 = 48;

fn inject_writes(dep: &mut Deployment, t0: SimTime, n: u64, window: SimDuration) {
    let step = window.as_nanos() / n.max(1);
    for i in 0..n {
        let key = (i % u64::from(KEYS)) as u16;
        dep.inject(
            t0 + SimDuration::nanos(i * step),
            (i % 3) as usize,
            0,
            udp_write(key, 100 + (i % 400) as u16),
        );
    }
}

struct RunOutput {
    journal: Journal,
    records: usize,
    overflowed: u64,
    t_crash: SimTime,
    /// Crash-to-election gap per the controller's own election log.
    measured_gap_ns: Option<u64>,
    oracle_report: Option<String>,
}

/// E22's leader-crash scenario (3 replicas, adaptive detector,
/// aggressive log compaction) with two range migrations in the warm-up
/// window so the migration and compaction tables have content.
fn run_crash(seed: u64) -> RunOutput {
    let cfg = SwishConfig {
        ctrl_replicas: 3,
        adaptive_detector: true,
        log_compact_threshold: 4,
        ..Default::default()
    };
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(seed)
        .swish_config(cfg)
        .register(RegisterSpec::partitioned(0, "p", KEYS))
        .build(|_| Box::new(WriteNf));
    // Attach before settle so the bootstrap election is journaled too.
    let handle = dep.attach_journal(1 << 20);
    dep.settle();
    let t0 = dep.now();
    let switches = dep.switch_ids().to_vec();
    dep.schedule_trigger(
        t0 + SimDuration::millis(8),
        TriggerOp::Move,
        0,
        0,
        switches[1],
    );
    dep.schedule_trigger(
        t0 + SimDuration::millis(16),
        TriggerOp::Move,
        0,
        16,
        switches[2],
    );
    dep.run_for(SimDuration::millis(30)); // detector warm-up + migrations
    let t_crash = dep.now();
    dep.schedule_ctrl_fail(t_crash, 0);
    inject_writes(&mut dep, t_crash, 24, SimDuration::millis(20));

    let ocfg = OracleConfig::new(t_crash + SimDuration::millis(60));
    let mut suite = OracleSuite::attach(&mut dep, ocfg);
    suite.attach_journal(handle.clone());
    let end = t_crash + SimDuration::millis(60) + ocfg.convergence_grace;
    let _ = suite.run(&mut dep, end);

    let measured_gap_ns = dep
        .controller()
        .elections()
        .iter()
        .find(|e| e.time >= t_crash)
        .map(|e| e.time.since(t_crash).0);
    let col = handle.borrow();
    RunOutput {
        journal: Journal::decode(col.events()),
        records: col.len(),
        overflowed: col.overflowed(),
        t_crash,
        measured_gap_ns,
        oracle_report: suite.violation_report(),
    }
}

/// Render the causal narrative for one failover, with offsets relative
/// to the old leader's last heard beacon (falling back to the earliest
/// known phase).
fn narrate(f: &Failover, t_crash: Option<SimTime>) -> String {
    let base = f
        .last_beacon
        .or(f.suspect_at)
        .or(f.election_start)
        .unwrap_or(f.elected_at);
    let off = |t: SimTime| format!("T+{:.3} ms", t.since(base).0 as f64 / 1e6);
    let mut parts: Vec<String> = Vec::new();
    if let Some(t) = f.last_beacon {
        parts.push(format!("last beacon at T = {} ns", t.0));
    }
    if let Some(t) = f.suspect_at {
        parts.push(format!("phi crossed at {}", off(t)));
    }
    if let Some(t) = f.election_start {
        parts.push(format!("campaign started at {}", off(t)));
    }
    if let Some(t) = f.chosen_at {
        parts.push(format!("election decree chosen at {}", off(t)));
    }
    parts.push(format!(
        "decree applied by the winner at {}",
        off(f.elected_at)
    ));
    let total = match t_crash {
        Some(c) if f.elected_at >= c => {
            format!(
                "{:.1} ms after the crash",
                f.elected_at.since(c).0 as f64 / 1e6
            )
        }
        _ => format!(
            "{:.1} ms beacon-to-decree",
            f.elected_at.since(base).0 as f64 / 1e6
        ),
    };
    format!(
        "failover to n{} (epoch {}) took {total}: {}",
        f.leader.0,
        f.epoch,
        parts.join(", ")
    )
}

fn opt_ns(v: Option<u64>) -> String {
    v.map(ns).unwrap_or_else(|| "-".into())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_val = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seed: u64 = flag_val("--seed").map_or(801, |s| s.parse().expect("numeric seed"));
    let out_dir = flag_val("--out-dir").unwrap_or_else(|| "results".to_string());

    println!("ctrl_explain: leader-crash flight recording, seed {seed}");
    let out = run_crash(seed);
    if out.overflowed > 0 {
        eprintln!(
            "warning: journal overflowed ({} records dropped); narrative is partial",
            out.overflowed
        );
    }

    let failovers = out.journal.failovers();
    let migrations = out.journal.migrations();
    let compactions = out.journal.compactions();
    let crash_failover = failovers.iter().find(|f| f.elected_at >= out.t_crash);

    // The headline narrative: the post-crash failover, causally walked
    // back from the election decree to the dead leader's last beacon.
    println!();
    match crash_failover {
        Some(f) => println!("  {}", narrate(f, Some(out.t_crash))),
        None => println!("  no post-crash failover found in the journal"),
    }

    let mut ft = Table::new(
        "Failovers (per-phase gaps reconstructed from the journal)",
        &[
            "epoch",
            "leader",
            "beacon->suspect",
            "suspect->campaign",
            "campaign->chosen",
            "chosen->applied",
            "total",
        ],
    );
    for f in &failovers {
        let gap = |a: Option<SimTime>, b: Option<SimTime>| match (a, b) {
            (Some(a), Some(b)) if b >= a => Some(b.since(a).0),
            _ => None,
        };
        ft.row(vec![
            f.epoch.to_string(),
            format!("n{}", f.leader.0),
            opt_ns(gap(f.last_beacon, f.suspect_at)),
            opt_ns(gap(f.suspect_at, f.election_start)),
            opt_ns(gap(f.election_start, f.chosen_at)),
            opt_ns(gap(f.chosen_at, Some(f.elected_at))),
            opt_ns(
                f.last_beacon
                    .or(f.suspect_at)
                    .or(f.election_start)
                    .map(|b| f.elected_at.since(b).0),
            ),
        ]);
    }
    println!("\n{}", ft.render());

    let mut mt = Table::new(
        "Migrations (lifecycle windows from the journal)",
        &[
            "range",
            "route",
            "transfer",
            "dual-owner",
            "total",
            "outcome",
        ],
    );
    for m in &migrations {
        let outcome = if m.commit_at.is_some() {
            "committed".to_string()
        } else if let Some(r) = m.abort_reason {
            format!(
                "aborted: {}",
                swishmem::telemetry::journal::abort_reason_str(r)
            )
        } else {
            "open".to_string()
        };
        mt.row(vec![
            format!("reg{}@{}", m.reg, m.start),
            format!("n{}->n{}", m.from.0, m.to.0),
            opt_ns(m.dual_owner_at.map(|d| d.since(m.begin_at).0)),
            opt_ns(m.dual_owner_window()),
            opt_ns(m.window()),
            outcome,
        ]);
    }
    println!("{}", mt.render());

    let mut ct = Table::new(
        "Log compactions (journal)",
        &["at", "node", "upto slot", "snapshot"],
    );
    for c in &compactions {
        ct.row(vec![
            format!("{} ns", c.at.0),
            format!("n{}", c.node.0),
            c.upto.to_string(),
            format!("{} B", c.snap_bytes),
        ]);
    }
    println!("{}", ct.render());

    match &out.oracle_report {
        Some(r) => println!("  oracle: VIOLATED\n    {r}"),
        None => println!("  oracle: clean (incl. journal SLO monitors)"),
    }

    // Accuracy gate: the journal's crash-to-election gap must agree with
    // the controller's election log to within 1 µs.
    let journal_gap_ns = crash_failover.map(|f| f.elected_at.since(out.t_crash).0);
    let verdict = match (out.measured_gap_ns, journal_gap_ns) {
        (Some(m), Some(j)) => {
            let diff = m.abs_diff(j);
            let ok = diff <= 1_000;
            println!(
                "  accuracy: journal gap {j} ns vs election log {m} ns (|diff| {diff} ns, \
                 gate <=1000 ns — {})",
                if ok { "OK" } else { "FAIL" }
            );
            ok
        }
        (m, j) => {
            eprintln!("  accuracy: FAIL — measured gap {m:?}, journal gap {j:?} (both required)");
            false
        }
    };

    // Artifacts.
    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let perfetto_path = format!("{out_dir}/ctrl_seed{seed}.perfetto.json");
    std::fs::write(&perfetto_path, ctrl_to_perfetto(&out.journal).pretty())
        .expect("write perfetto");
    let explain_path = format!("{out_dir}/ctrl_seed{seed}.explain.json");
    let doc = Json::obj(vec![
        ("seed", Json::from(seed)),
        ("journal_records", Json::from(out.records)),
        ("journal_overflowed", Json::from(out.overflowed)),
        ("t_crash_ns", Json::from(out.t_crash.0)),
        (
            "measured_gap_ns",
            out.measured_gap_ns.map(Json::from).unwrap_or(Json::Null),
        ),
        (
            "journal_gap_ns",
            journal_gap_ns.map(Json::from).unwrap_or(Json::Null),
        ),
        ("accuracy_ok", Json::Bool(verdict)),
        ("oracle_clean", Json::Bool(out.oracle_report.is_none())),
        (
            "failovers",
            Json::Arr(
                failovers
                    .iter()
                    .map(|f| {
                        Json::obj(vec![
                            ("epoch", Json::from(u64::from(f.epoch))),
                            ("leader", Json::from(u64::from(f.leader.0))),
                            ("elected_at_ns", Json::from(f.elected_at.0)),
                            (
                                "last_beacon_ns",
                                f.last_beacon.map(|t| Json::from(t.0)).unwrap_or(Json::Null),
                            ),
                            (
                                "suspect_at_ns",
                                f.suspect_at.map(|t| Json::from(t.0)).unwrap_or(Json::Null),
                            ),
                            (
                                "election_start_ns",
                                f.election_start
                                    .map(|t| Json::from(t.0))
                                    .unwrap_or(Json::Null),
                            ),
                            (
                                "chosen_at_ns",
                                f.chosen_at.map(|t| Json::from(t.0)).unwrap_or(Json::Null),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "migrations",
            Json::Arr(
                migrations
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("reg", Json::from(u64::from(m.reg))),
                            ("start", Json::from(u64::from(m.start))),
                            ("from", Json::from(u64::from(m.from.0))),
                            ("to", Json::from(u64::from(m.to.0))),
                            ("begin_at_ns", Json::from(m.begin_at.0)),
                            (
                                "window_ns",
                                m.window().map(Json::from).unwrap_or(Json::Null),
                            ),
                            (
                                "dual_owner_window_ns",
                                m.dual_owner_window().map(Json::from).unwrap_or(Json::Null),
                            ),
                            ("committed", Json::Bool(m.commit_at.is_some())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "compactions",
            Json::Arr(
                compactions
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("at_ns", Json::from(c.at.0)),
                            ("node", Json::from(u64::from(c.node.0))),
                            ("upto", Json::from(c.upto)),
                            ("snap_bytes", Json::from(c.snap_bytes)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&explain_path, doc.pretty()).expect("write explain json");
    println!("  wrote {perfetto_path}");
    println!("  wrote {explain_path}");

    if !verdict {
        std::process::exit(1);
    }
}
