//! Distributed L4 load balancing with per-connection consistency.
//!
//! The scenario of §3.2: connections enter the fabric through different
//! switches as adaptive routing shifts paths mid-flow. With the
//! connection→DIP mapping in an SRO register, every switch forwards every
//! packet of a connection to the same backend — no resets, ever.
//!
//! Run: `cargo run --example load_balancer`

use std::net::Ipv4Addr;
use swishmem::prelude::*;
use swishmem::RegisterSpec;
use swishmem_nf::workload::{EcmpRouter, RoutingMode};
use swishmem_nf::{LbConfig, LbStatsHandle, LoadBalancer};
use swishmem_simnet::Trace;
use swishmem_wire::l4::TcpFlags;
use swishmem_wire::PacketBody;

fn main() {
    let vip = Ipv4Addr::new(10, 99, 0, 1);
    let backends = vec![
        (Ipv4Addr::new(10, 1, 0, 1), NodeId(HOST_BASE)),
        (Ipv4Addr::new(10, 1, 0, 2), NodeId(HOST_BASE + 1)),
        (Ipv4Addr::new(10, 1, 0, 3), NodeId(HOST_BASE + 2)),
    ];
    let cfg = LbConfig {
        conn_reg: 0,
        keys: 8192,
        vip,
        backends: backends.clone(),
    };
    let stats: Vec<LbStatsHandle> = (0..4).map(|_| LbStatsHandle::default()).collect();
    let s2 = stats.clone();
    let mut dep = DeploymentBuilder::new(4)
        .hosts(3)
        .register(RegisterSpec::sro(0, "lb_conn", 8192))
        .build(move |id| Box::new(LoadBalancer::new(cfg.clone(), s2[id.index()].clone())));
    // Hosts only count what they receive; a packet trace keeps the frames.
    let trace = Trace::new(1 << 16);
    dep.add_observer(trace.clone());
    dep.settle();

    // 20 client connections, 6 packets each, with 30% per-packet path
    // deviation (aggressive multipath).
    let router = EcmpRouter::new(4, RoutingMode::Multipath { flip_prob: 0.3 });
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let t0 = dep.now();
    for conn in 0..20u16 {
        let flow = FlowKey::tcp(Ipv4Addr::new(172, 16, 0, 2), 40_000 + conn, vip, 443);
        for i in 0..6u32 {
            let flags = if i == 0 {
                TcpFlags::syn()
            } else {
                TcpFlags::data()
            };
            let pkt = DataPacket::tcp(flow, flags, i, 300);
            let ingress = router.route(&flow, &mut rng);
            // Space packets ~2 ms so the SYN's mapping commits first.
            let at =
                t0 + SimDuration::millis(u64::from(conn)) + SimDuration::millis(u64::from(i) * 2);
            dep.inject(at, ingress, 0, pkt);
        }
    }
    dep.run_for(SimDuration::millis(120));

    let trace = trace.borrow();
    assert_eq!(trace.overflowed(), 0, "packet trace too small for the run");
    println!("backend packet counts (each connection must stay on one backend):");
    let mut total = 0usize;
    for (h, (dip, _)) in backends.iter().enumerate() {
        let log = trace.received_by(dep.host(h));
        assert_eq!(log.len(), dep.recording(h).borrow().len());
        // Count distinct client ports per backend and verify DIP rewrite.
        let mut conns = std::collections::HashSet::new();
        for e in &log {
            if let PacketBody::Data(d) = &e.pkt.body {
                assert_eq!(d.flow.dst, *dip, "packet delivered with wrong DIP");
                conns.insert(d.flow.src_port);
            }
        }
        println!(
            "  {} -> {} packets across {} connections",
            dip,
            log.len(),
            conns.len()
        );
        total += log.len();
    }
    let violations: u64 = stats.iter().map(|s| s.borrow().unmapped_drops).sum();
    // Verify per-connection consistency: each client port appears at
    // exactly one backend.
    let mut seen: std::collections::HashMap<u16, usize> = std::collections::HashMap::new();
    for h in 0..3 {
        for e in trace.received_by(dep.host(h)) {
            if let PacketBody::Data(d) = &e.pkt.body {
                if let Some(prev) = seen.insert(d.flow.src_port, h) {
                    assert_eq!(
                        prev, h,
                        "connection {} split across backends!",
                        d.flow.src_port
                    );
                }
            }
        }
    }
    println!("\ndelivered {total}/120 packets, {violations} PCC violations");
    println!("every connection stuck to one backend despite 30% path deviation ✓");
    assert_eq!(violations, 0);
    assert_eq!(total, 120);
}
