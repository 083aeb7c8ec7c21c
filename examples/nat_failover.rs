//! NAT translations surviving a switch failure (§4.1 + §6.3).
//!
//! A client opens a connection through switch 0; the translation is
//! chain-replicated. Switch 0 then fails — and the reply still translates
//! correctly at switch 2, because the mapping lives on every replica.
//! Finally switch 0 recovers, catches up via snapshot, and serves the
//! mapping again.
//!
//! Run: `cargo run --example nat_failover`

use std::net::Ipv4Addr;
use swishmem::prelude::*;
use swishmem::{ConfigEventKind, RegisterSpec};
use swishmem_nf::{Nat, NatConfig, NatStatsHandle};
use swishmem_simnet::{FaultSchedule, Trace, TraceHandle};
use swishmem_wire::PacketBody;

/// The data packets `host` received, read off the packet trace.
fn received(trace: &TraceHandle, host: NodeId) -> Vec<DataPacket> {
    let trace = trace.borrow();
    assert_eq!(trace.overflowed(), 0, "packet trace too small for the run");
    trace
        .received_by(host)
        .into_iter()
        .map(|e| match &e.pkt.body {
            PacketBody::Data(d) => *d,
            _ => panic!("hosts receive data packets only"),
        })
        .collect()
}

fn main() {
    let cfg = NatConfig {
        fwd_reg: 0,
        rev_reg: 1,
        keys: 4096,
        nat_ip: Ipv4Addr::new(203, 0, 113, 1),
        inside_octet: 10,
        ports_per_switch: 1000,
        port_base: 10000,
        outside_host: NodeId(HOST_BASE),
        inside_host: NodeId(HOST_BASE + 1),
    };
    let stats: Vec<NatStatsHandle> = (0..3).map(|_| NatStatsHandle::default()).collect();
    let s2 = stats.clone();
    let mut dep = DeploymentBuilder::new(3)
        .hosts(2)
        .register(RegisterSpec::sro(0, "nat_fwd", 4096))
        .register(RegisterSpec::sro(1, "nat_rev", 4096))
        .build(move |id| Box::new(Nat::new(cfg.clone(), s2[id.index()].clone())));
    // Hosts only count what they receive; a packet trace keeps the frames.
    let trace = Trace::new(1 << 16);
    dep.add_observer(trace.clone());
    dep.settle();

    // The whole failure story is declared up front as a fault schedule:
    // switch 0 crashes 30 ms in and restarts 90 ms later. The same
    // schedule replayed against the same deployment seed reproduces this
    // run bit-for-bit.
    let victim = dep.switch_ids()[0];
    let sched =
        FaultSchedule::new().crash_for(victim, SimDuration::millis(30), SimDuration::millis(90));
    println!("{sched}");
    let t0 = dep.now();
    dep.schedule_faults(t0, &sched);

    // 1. Outbound connection through switch 0.
    let out = DataPacket::udp(
        FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 5),
            5555,
            Ipv4Addr::new(8, 8, 8, 8),
            53,
        ),
        0,
        64,
    );
    let t = dep.now();
    dep.inject(t, 0, 1, out);
    dep.run_for(SimDuration::millis(30));
    let ext_port = received(&trace, dep.host(0))[0].flow.src_port;
    println!("outbound 10.0.0.5:5555 translated to 203.0.113.1:{ext_port} via switch 0");

    // 2. Switch 0 (the one that allocated the mapping) fails, per the
    //    schedule (crash fired at t0 + 30 ms).
    let t_fail = dep.now();
    dep.run_for(SimDuration::millis(60));
    println!("switch 0 failed at {t_fail}; controller events:");
    for e in dep.controller_events() {
        println!("  t={} epoch {} {:?}", e.time, e.epoch, e.kind);
    }

    // 3. The reply arrives at switch 2 — the mapping must be there.
    let reply = DataPacket::udp(
        FlowKey::udp(
            Ipv4Addr::new(8, 8, 8, 8),
            53,
            Ipv4Addr::new(203, 0, 113, 1),
            ext_port,
        ),
        0,
        64,
    );
    let t = dep.now();
    dep.inject(t, 2, 0, reply);
    dep.run_for(SimDuration::millis(30));
    let log = received(&trace, dep.host(1));
    assert_eq!(log.len(), 1, "reply lost: connection broken");
    assert_eq!(
        (log[0].flow.dst, log[0].flow.dst_port),
        (Ipv4Addr::new(10, 0, 0, 5), 5555)
    );
    println!("reply translated back at switch 2 despite the failure ✓");

    // 4. Switch 0 restarts (schedule: t0 + 120 ms) and catches up.
    dep.run_for(SimDuration::millis(200));
    let events = dep.controller_events();
    assert!(events
        .iter()
        .any(|e| e.kind == ConfigEventKind::Promoted(NodeId(0))));
    // Mapping present again on the recovered switch.
    let key = (ext_port as u32) % 4096;
    let v = dep.peek(0, 1, key);
    assert_ne!(v, 0, "recovered switch missing the reverse mapping");
    println!(
        "switch 0 recovered, caught up via snapshot ({} entries applied) and rejoined as tail ✓",
        dep.metrics(0).dp.snapshot_applied
    );
}
