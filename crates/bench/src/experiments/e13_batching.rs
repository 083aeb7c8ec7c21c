//! E13 — §7 bandwidth overhead: "Generating write requests for
//! replication consumes available bandwidth which may be substantial
//! especially in write-intensive workloads. Batching write requests may
//! alleviate this issue at the expense of reduced availability and
//! consistency."
//!
//! Sweeps the eager-mirror batch size under a fixed write-per-packet
//! workload and reports replication bandwidth against convergence lag —
//! the exact trade-off curve the paper gestures at.

use crate::table::{f, ExperimentResult, Table};
use swishmem::prelude::*;
use swishmem::probe::{count_pkt, CounterNf};
use swishmem::{RegisterSpec, SwishConfig};
use swishmem_simnet::TrafficClass;

fn measure(batch: usize, quick: bool) -> (f64, f64, f64) {
    let mut cfg = SwishConfig::default();
    cfg.batch_size = batch;
    cfg.sync_period = SimDuration::millis(2); // background safety net
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(51)
        .swish_config(cfg)
        .register(RegisterSpec::ewo_counter(0, "cnt", 256))
        .build(|_| Box::new(CounterNf));
    dep.settle();
    let dur = SimDuration::millis(if quick { 30 } else { 80 });
    let rate = 200_000.0; // write-intensive: every packet writes
    let gap = (1e9 / rate) as u64;
    let t0 = dep.now();
    dep.sim.stats_mut().reset();
    let n = dur.as_nanos() / gap;
    // All writes to rotating keys at switch 0; lag observed at switch 2.
    let mut lags = Vec::new();
    let mut injected = 0u64;
    let mut next_sample = SimDuration::millis(5);
    for i in 0..n {
        dep.inject(
            t0 + SimDuration::nanos(i * gap),
            0,
            0,
            count_pkt((i % 64) as u16, i as u32),
        );
        injected += 1;
        // Periodically advance and sample staleness on key 1.
        if SimDuration::nanos(i * gap) >= next_sample {
            dep.run_until(t0 + SimDuration::nanos(i * gap));
            let local: u64 = (0..64).map(|k| dep.peek(0, 0, k)).sum();
            let remote: u64 = (0..64).map(|k| dep.peek(2, 0, k)).sum();
            lags.push((local.saturating_sub(remote)) as f64 / rate * 1e6); // µs
            next_sample = next_sample + SimDuration::millis(2);
        }
    }
    dep.run_for(SimDuration::millis(20));
    let sync = dep.sim.stats().delivered(TrafficClass::EwoSync);
    let secs = dur.as_secs_f64();
    let gbps = sync.bytes as f64 * 8.0 / secs / 1e9;
    let pkts_per_write = sync.packets as f64 / injected.max(1) as f64;
    (gbps, pkts_per_write, crate::scenarios::mean(&lags))
}

/// Run E13.
pub fn run(quick: bool) -> ExperimentResult {
    let batches: Vec<usize> = if quick {
        vec![1, 16]
    } else {
        vec![1, 4, 16, 64]
    };
    let mut t = Table::new(
        "Eager-update batching at 200k writes/s (3 switches)",
        &[
            "batch size",
            "replication Gbps (total)",
            "mirror pkts per write",
            "convergence lag (µs)",
        ],
    );
    let mut first = None;
    let mut last = None;
    for &b in &batches {
        let (gbps, ppw, lag) = measure(b, quick);
        t.row(vec![b.to_string(), f(gbps), f(ppw), f(lag)]);
        if first.is_none() {
            first = Some((gbps, lag));
        }
        last = Some((gbps, lag));
    }
    let (g1, l1) = first.unwrap_or((0.0, 0.0));
    let (g2, l2) = last.unwrap_or((0.0, 0.0));
    let findings = vec![
        format!(
            "batching cuts replication bandwidth {:.1}× (from {:.2} to {:.2} Gbps) while convergence lag grows from {:.0} to {:.0} µs — the availability/consistency price §7 names",
            g1 / g2.max(1e-9), g1, g2, l1, l2
        ),
        "per-write packet overhead amortizes with batch size (header cost shared across entries)".into(),
    ];
    ExperimentResult {
        id: "E13".into(),
        title: "Batching replication updates: bandwidth vs staleness".into(),
        paper_anchor: "§7 (bandwidth overhead; batching trade-off)".into(),
        expectation: "bandwidth falls ~1/batch; lag rises with batch".into(),
        tables: vec![t],
        findings,
    }
}
