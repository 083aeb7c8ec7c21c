//! E15 — §6.2's clock requirement, quantified: "The timestamp can be a
//! Lamport clock or a realtime clock, which can be synchronized among the
//! switches down to tens of nanoseconds \[18\]."
//!
//! Why tens of nanoseconds matter: LWW orders writes by timestamp, so if
//! switch A's clock runs ahead of switch B's by more than the real gap
//! between their writes, A's *older* write wins — a last-writer-loses
//! anomaly. We sweep the clock-skew bound against the write gap and count
//! anomalies (final value ≠ chronologically-last write), and show Lamport
//! clocks' different failure mode (causality only, arbitrary tiebreak).

use crate::table::{f, ExperimentResult, Table};
use swishmem::prelude::*;
use swishmem::probe::{udp_write, WriteNf};
use swishmem::{ClockMode, RegisterSpec, SwishConfig};

/// Fraction of key-pairs where the chronologically-later write lost.
fn anomaly_rate(clock: ClockMode, gap: SimDuration, quick: bool) -> f64 {
    let keys: u16 = if quick { 40 } else { 120 };
    let mut anomalies = 0u32;
    let mut total = 0u32;
    // Several seeds → several skew assignments.
    for seed in 0..(if quick { 2u64 } else { 4 }) {
        let mut cfg = SwishConfig::default();
        cfg.clock = clock;
        let mut dep = DeploymentBuilder::new(2)
            .hosts(1)
            .seed(100 + seed)
            .swish_config(cfg)
            .register(RegisterSpec::ewo_lww(0, "lww", u32::from(keys)))
            .build(|_| Box::new(WriteNf));
        dep.settle();
        let t0 = dep.now();
        for k in 0..keys {
            // Switch 0 writes 1 first; switch 1 writes 2 `gap` later.
            let tk = t0 + SimDuration::millis(u64::from(k));
            dep.inject(tk, 0, 0, udp_write(k, 1));
            dep.inject(tk + gap, 1, 0, udp_write(k, 2));
        }
        dep.run_for(SimDuration::millis(u64::from(keys) + 100));
        for k in 0..keys {
            total += 1;
            if dep.peek(0, 0, u32::from(k)) != 2 {
                anomalies += 1;
            }
        }
    }
    f64::from(anomalies) / f64::from(total.max(1))
}

/// Run E15.
pub fn run(quick: bool) -> ExperimentResult {
    let skews: Vec<u64> = if quick {
        vec![50, 200_000]
    } else {
        vec![0, 50, 1_000, 50_000, 200_000]
    };
    let gaps = if quick {
        vec![SimDuration::micros(100)]
    } else {
        vec![SimDuration::micros(10), SimDuration::micros(100)]
    };
    let mut t = Table::new(
        "LWW last-writer-loses anomalies vs clock skew (writer B 'later' by the gap)",
        &["clock", "max skew", "write gap", "anomaly rate"],
    );
    let mut synced_at_paper_point = 0.0f64;
    let mut worst_synced = 0.0f64;
    for &gap in &gaps {
        for &skew in &skews {
            let r = anomaly_rate(ClockMode::Synced { max_skew_ns: skew }, gap, quick);
            t.row(vec![
                "synced".into(),
                format!("{}ns", skew),
                gap.to_string(),
                f(r),
            ]);
            if skew <= 50 {
                synced_at_paper_point = synced_at_paper_point.max(r);
            }
            worst_synced = worst_synced.max(r);
        }
        let r = anomaly_rate(ClockMode::Lamport, gap, quick);
        t.row(vec!["lamport".into(), "-".into(), gap.to_string(), f(r)]);
    }
    let findings = vec![
        format!(
            "with the paper's tens-of-ns synchronization the anomaly rate is {:.3} — LWW behaves as a true last-writer-wins",
            synced_at_paper_point
        ),
        format!(
            "once skew exceeds the inter-write gap, anomalies appear (up to {:.2} of keys at 200 µs skew): the quality of ref-[18]-style clock sync is load-bearing for LWW",
            worst_synced
        ),
        "Lamport clocks order only causally-related writes; for independent writers the switch-id tiebreak decides, so 'later' wins only by accident — the reason the paper prefers synchronized real-time clocks".into(),
    ];
    ExperimentResult {
        id: "E15".into(),
        title: "LWW correctness vs clock synchronization quality".into(),
        paper_anchor: "§6.2 (LWW versioning; clock sync 'down to tens of nanoseconds')".into(),
        expectation: "no anomalies at ns-scale skew; anomalies once skew > write gap".into(),
        tables: vec![t],
        findings,
    }
}
