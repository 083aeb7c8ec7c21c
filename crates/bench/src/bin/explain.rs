//! `explain` — one seeded run of chain-replicated writes under a switch
//! fault schedule and a controller leader crash, with spans, journal and
//! oracles attached (`swishmem_bench::explain`). Prints the per-phase
//! write breakdown, the failover narrative and the failover / migration
//! / compaction tables, and writes one Perfetto timeline.
//!
//! Usage:
//!
//! ```text
//! cargo run -p swishmem-bench --release --bin explain -- \
//!     [--seed N] [--out-dir results]
//! ```
//!
//! Artifacts (see `results/README.md` for the naming scheme):
//! * `<out>/explain_seed<N>.perfetto.json` — load in ui.perfetto.dev
//! * `<out>/explain_seed<N>.explain.json` — machine-readable summary
//!
//! Exit status is non-zero if either gate fails: span-vs-`write_latency`
//! reconciliation, or journal-vs-election-log failover gap within 1 µs.

use swishmem::prelude::*;
use swishmem::Failover;
use swishmem_bench::explain::Explain;
use swishmem_bench::spans::{migration_outcome, phase_histograms};
use swishmem_bench::table::{ns, Table};

/// The causal narrative of one failover, with offsets relative to the
/// old leader's last heard beacon (falling back to the earliest known
/// phase).
fn narrate(f: &Failover, t_crash: SimTime) -> String {
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
    format!(
        "failover to n{} (epoch {}) took {:.1} ms after the crash: {}",
        f.leader.0,
        f.epoch,
        f.elected_at.since(t_crash).0 as f64 / 1e6,
        parts.join(", ")
    )
}

fn opt_ns(v: Option<u64>) -> String {
    v.map(ns).unwrap_or_else(|| "-".into())
}

fn print_writes(x: &Explain) {
    let completed = x.completed_writes();
    let mut t = Table::new(
        "Per-phase latency of completed writes (gap to reach each phase)",
        &["phase", "n", "p50", "p90", "p99", "max", "mean"],
    );
    let mut e2e = swishmem::Histogram::new();
    for b in &completed {
        e2e.record_ns(b.total_ns);
    }
    let rows = phase_histograms(&completed)
        .into_iter()
        .chain([("TOTAL (ingress->release)".to_string(), e2e)]);
    for (label, h) in rows {
        let s = h.summary();
        t.row(vec![
            label,
            s.count.to_string(),
            ns(s.p50_ns),
            ns(s.p90_ns),
            ns(s.p99_ns),
            ns(s.max_ns),
            ns(s.mean_ns as u64),
        ]);
    }
    println!("\n{}", t.render());
    println!(
        "  traces: {} total, {} completed writes, {} switch crashes",
        x.breakdowns.len(),
        completed.len(),
        x.switch_crashes
    );
}

fn print_control_plane(x: &Explain) {
    let failovers = x.journal().failovers();
    // The headline narrative: the post-crash failover, causally walked
    // back from the election decree to the dead leader's last beacon.
    match failovers.iter().find(|f| f.elected_at >= x.t_crash) {
        Some(f) => println!("\n  {}", narrate(f, x.t_crash)),
        None => println!("\n  no post-crash failover found in the journal"),
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
    let gap = |a: Option<SimTime>, b: Option<SimTime>| match (a, b) {
        (Some(a), Some(b)) if b >= a => Some(b.since(a).0),
        _ => None,
    };
    for f in &failovers {
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
    for m in &x.journal().migrations() {
        mt.row(vec![
            format!("reg{}@{}", m.reg, m.start),
            format!("n{}->n{}", m.from.0, m.to.0),
            opt_ns(m.dual_owner_at.map(|d| d.since(m.begin_at).0)),
            opt_ns(m.dual_owner_window()),
            opt_ns(m.window()),
            migration_outcome(m),
        ]);
    }
    println!("{}", mt.render());

    let mut ct = Table::new(
        "Log compactions (journal)",
        &["at", "node", "upto slot", "snapshot"],
    );
    for c in &x.journal().compactions() {
        ct.row(vec![
            format!("{} ns", c.at.0),
            format!("n{}", c.node.0),
            c.upto.to_string(),
            format!("{} B", c.snap_bytes),
        ]);
    }
    println!("{}", ct.render());
}

fn usage(msg: &str) -> ! {
    eprintln!("explain: {msg}\nusage: explain [--seed N] [--out-dir DIR]");
    std::process::exit(2)
}

fn main() {
    let (mut seed, mut out_dir) = (801u64, "results".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--seed" => {
                let v = value();
                seed = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("--seed {v} is not a number")));
            }
            "--out-dir" => out_dir = value(),
            _ => usage(&format!("unknown argument {flag}")),
        }
    }

    println!("explain: switch fault schedule + controller leader crash, seed {seed}");
    let x = Explain::run(seed);
    if x.spans_overflowed > 0 || x.journal_overflowed > 0 {
        eprintln!(
            "warning: taps overflowed ({} spans, {} journal records dropped); \
             the breakdown is partial",
            x.spans_overflowed, x.journal_overflowed
        );
    }
    print_writes(&x);
    print_control_plane(&x);
    match &x.oracle_report {
        Some(r) => println!("  oracle: VIOLATED\n    {r}"),
        None => println!("  oracle: clean (incl. journal SLO monitors)"),
    }
    for (gate, verdict) in [("spans", &x.spans_gate), ("failover", &x.failover_gate)] {
        match verdict {
            Ok(msg) => println!("  {gate}: OK — {msg}"),
            Err(msg) => eprintln!("  {gate}: FAIL — {msg}"),
        }
    }

    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let perfetto_path = format!("{out_dir}/explain_seed{seed}.perfetto.json");
    std::fs::write(&perfetto_path, x.perfetto().pretty()).expect("write perfetto");
    let explain_path = format!("{out_dir}/explain_seed{seed}.explain.json");
    std::fs::write(&explain_path, x.summary().pretty()).expect("write explain json");
    println!("  wrote {perfetto_path}");
    println!("  wrote {explain_path}");

    if !x.passed() {
        std::process::exit(1);
    }
}
