//! E3 — §6.1: "[SRO's] write throughput is limited by the need to send
//! packets through the control plane."
//!
//! Sweeps chain length and offered write rate; reports write latency
//! (mean/p99) and completed-write throughput. The control-plane service
//! rate (1 / 10 µs = 100k items/s by default) is the predicted ceiling,
//! independent of chain length; latency grows with chain length (one hop
//! per link plus the CP punt at the writer).

use crate::scenarios::probe_deployment;
use crate::table::{f, ns, ExperimentResult, Table};
use swishmem::prelude::*;
use swishmem::probe::udp_write;
use swishmem::{RegisterSpec, SwishConfig};

struct Point {
    chain: usize,
    offered_kps: f64,
    completed_kps: f64,
    mean_ns: u64,
    p99_ns: u64,
}

fn measure(chain: usize, offered_per_sec: f64, quick: bool) -> Point {
    let mut dep = probe_deployment(
        chain,
        RegisterSpec::sro(0, "t", 16384),
        SwishConfig::default(),
    );
    dep.settle();
    let dur = SimDuration::millis(if quick { 20 } else { 50 });
    let gap_ns = (1e9 / offered_per_sec) as u64;
    let t0 = dep.now();
    let n_writes = dur.as_nanos() / gap_ns.max(1);
    for i in 0..n_writes {
        // Distinct keys so per-key sequencing never serializes them, and
        // writes always enter at switch 0 (the head's CP is the writer).
        let key = (i % 16000) as u16;
        dep.inject(
            t0 + SimDuration::nanos(i * gap_ns),
            0,
            0,
            udp_write(key, 100),
        );
    }
    dep.run_for(dur + SimDuration::millis(100));
    let m = dep.metrics(0);
    let completed = m.cp.jobs_completed;
    let span = dur.as_secs_f64();
    Point {
        chain,
        offered_kps: offered_per_sec / 1e3,
        completed_kps: completed as f64 / span / 1e3,
        mean_ns: m.cp.write_latency.mean_ns() as u64,
        p99_ns: m.cp.write_latency.percentile_ns(0.99),
    }
}

/// Run E3.
pub fn run(quick: bool) -> ExperimentResult {
    let chains: Vec<usize> = if quick {
        vec![2, 4]
    } else {
        vec![1, 2, 3, 5, 8]
    };
    let light_rate = 5_000.0;

    let mut lat = Table::new(
        "SRO write latency vs chain length (light load, 5k writes/s)",
        &["chain length", "mean latency", "p99 latency"],
    );
    let mut lat_points = Vec::new();
    for &c in &chains {
        let p = measure(c, light_rate, quick);
        lat.row(vec![c.to_string(), ns(p.mean_ns), ns(p.p99_ns)]);
        lat_points.push(p);
    }

    let rates: Vec<f64> = if quick {
        vec![20_000.0, 120_000.0]
    } else {
        vec![20_000.0, 60_000.0, 120_000.0, 200_000.0]
    };
    let mut thr = Table::new(
        "SRO write throughput vs offered rate (chain of 3)",
        &[
            "offered kwrites/s",
            "completed kwrites/s",
            "mean latency",
            "p99 latency",
        ],
    );
    let mut ceiling = 0.0f64;
    for &r in &rates {
        let p = measure(3, r, quick);
        thr.row(vec![
            f(p.offered_kps),
            f(p.completed_kps),
            ns(p.mean_ns),
            ns(p.p99_ns),
        ]);
        ceiling = ceiling.max(p.completed_kps);
    }

    let grow = lat_points.len() >= 2
        && lat_points.last().unwrap().mean_ns > lat_points.first().unwrap().mean_ns;
    let findings = vec![
        format!(
            "write latency grows with chain length ({} at len {} → {} at len {}): {}",
            ns(lat_points.first().unwrap().mean_ns),
            lat_points.first().unwrap().chain,
            ns(lat_points.last().unwrap().mean_ns),
            lat_points.last().unwrap().chain,
            if grow { "confirmed" } else { "NOT confirmed" }
        ),
        format!(
            "completed-write ceiling ≈ {:.0}k/s, set by the writer's control-plane service rate (100k items/s default), orders of magnitude below data-plane packet rates — the paper's core SRO limitation",
            ceiling
        ),
    ];
    ExperimentResult {
        id: "E3".into(),
        title: "SRO write cost: latency vs chain length, CP-bounded throughput".into(),
        paper_anchor: "§6.1 (write throughput limited by the control plane)".into(),
        expectation: "latency linear in chain length; throughput capped by CP service rate".into(),
        tables: vec![lat, thr],
        findings,
    }
}
