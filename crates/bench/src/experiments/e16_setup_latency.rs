//! E16 — the user-visible price of per-connection consistency: §6.1's
//! "the output packet must be buffered until the write is acknowledged by
//! other switches" means a connection's FIRST packet (the SYN that
//! allocates the mapping) is delayed by a full chain round trip through
//! the control plane. Subsequent packets read locally and pay nothing.
//!
//! This is the cost side of E8's benefit: the sharded baseline forwards
//! SYNs immediately (and breaks PCC under multipath); SwiShmem holds the
//! SYN for ~the SRO write latency. We measure SYN delay and data-packet
//! delay for both, across chain lengths.

use crate::table::{ns, ExperimentResult, Table};
use std::net::Ipv4Addr;
use swishmem::prelude::*;
use swishmem::RegisterSpec;
use swishmem_nf::{LbConfig, LbStatsHandle, LoadBalancer, LocalLb};
use swishmem_simnet::Trace;
use swishmem_wire::l4::TcpFlags;

const VIP: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);

fn lb_cfg() -> LbConfig {
    LbConfig {
        conn_reg: 0,
        keys: 8192,
        vip: VIP,
        backends: vec![
            (Ipv4Addr::new(10, 1, 0, 1), NodeId(HOST_BASE)),
            (Ipv4Addr::new(10, 1, 0, 2), NodeId(HOST_BASE + 1)),
        ],
    }
}

struct Out {
    syn_mean_ns: u64,
    data_mean_ns: u64,
}

fn measure(shared: bool, n_switches: usize, quick: bool) -> Out {
    let stats: Vec<LbStatsHandle> = (0..n_switches).map(|_| LbStatsHandle::default()).collect();
    let s2 = stats.clone();
    let mut dep = DeploymentBuilder::new(n_switches)
        .hosts(2)
        .seed(71)
        .register(RegisterSpec::sro(0, "lb_conn", 8192))
        .build(move |id| -> Box<dyn swishmem::NfApp> {
            if shared {
                Box::new(LoadBalancer::new(lb_cfg(), s2[id.index()].clone()))
            } else {
                Box::new(LocalLb::new(lb_cfg(), s2[id.index()].clone()))
            }
        });
    let trace = Trace::new(1 << 22);
    dep.add_observer(trace.clone());
    dep.settle();
    let conns = if quick { 50u64 } else { 200 };
    let t0 = dep.now();
    let mut syn_issue = Vec::new();
    let mut data_issue = Vec::new();
    for c in 0..conns {
        let flow = FlowKey::tcp(Ipv4Addr::new(172, 16, 0, 9), 30_000 + c as u16, VIP, 443);
        let at = t0 + SimDuration::millis(c);
        // The SYN pays the mapping write; a data packet 500 µs later (well
        // after commit) reads locally.
        dep.inject(
            at,
            (c % n_switches as u64) as usize,
            0,
            DataPacket::tcp(flow, TcpFlags::syn(), 0, 64),
        );
        syn_issue.push((flow.src_port, at));
        let at2 = at + SimDuration::micros(500);
        dep.inject(
            at2,
            (c % n_switches as u64) as usize,
            0,
            DataPacket::tcp(flow, TcpFlags::data(), 1, 64),
        );
        data_issue.push((flow.src_port, at2));
    }
    dep.run_for(SimDuration::millis(conns + 100));

    let trace = trace.borrow();
    assert_eq!(trace.overflowed(), 0, "packet trace too small for the run");
    let mut syn_lat = Vec::new();
    let mut data_lat = Vec::new();
    for h in 0..2 {
        for e in trace.received_by(dep.host(h)) {
            let swishmem_wire::PacketBody::Data(d) = &e.pkt.body else {
                continue;
            };
            let issue = if d.flow_seq == 0 {
                &syn_issue
            } else {
                &data_issue
            };
            if let Some((_, t_iss)) = issue.iter().find(|(port, _)| *port == d.flow.src_port) {
                let lat = e.time.since(*t_iss).as_nanos() as f64;
                if d.flow_seq == 0 {
                    syn_lat.push(lat);
                } else {
                    data_lat.push(lat);
                }
            }
        }
    }
    Out {
        syn_mean_ns: crate::scenarios::mean(&syn_lat) as u64,
        data_mean_ns: crate::scenarios::mean(&data_lat) as u64,
    }
}

/// Run E16.
pub fn run(quick: bool) -> ExperimentResult {
    let sizes: Vec<usize> = if quick { vec![3] } else { vec![2, 3, 5, 8] };
    let mut t = Table::new(
        "L4 LB packet latency through the fabric: connection setup (SYN) vs established",
        &["switches", "LB", "SYN mean", "data-pkt mean", "SYN penalty"],
    );
    let mut max_penalty = 0u64;
    let mut data_cost = 0i64;
    for &n in &sizes {
        let sw = measure(true, n, quick);
        let lo = measure(false, n, quick);
        let penalty = sw.syn_mean_ns.saturating_sub(lo.syn_mean_ns);
        max_penalty = max_penalty.max(penalty);
        data_cost = data_cost.max(sw.data_mean_ns as i64 - lo.data_mean_ns as i64);
        t.row(vec![
            n.to_string(),
            "SwiShmem (SRO)".into(),
            ns(sw.syn_mean_ns),
            ns(sw.data_mean_ns),
            ns(penalty),
        ]);
        t.row(vec![
            n.to_string(),
            "sharded (local)".into(),
            ns(lo.syn_mean_ns),
            ns(lo.data_mean_ns),
            "-".into(),
        ]);
    }
    let findings = vec![
        format!(
            "per-connection consistency costs the FIRST packet of each connection ~{} (the buffered-P' chain round trip, growing with chain length); the sharded baseline forwards it immediately",
            ns(max_penalty)
        ),
        format!(
            "established-connection packets pay ~nothing extra ({} difference): reads are local once the mapping commits — the read-intensive bargain of Table 1",
            ns(data_cost.unsigned_abs())
        ),
    ];
    ExperimentResult {
        id: "E16".into(),
        title: "The latency price of PCC: SYN buffering vs established traffic".into(),
        paper_anchor: "§6.1/§7 (output packet buffered until acknowledged)".into(),
        expectation: "SYN pays the SRO write latency; data packets pay nothing".into(),
        tables: vec![t],
        findings,
    }
}
