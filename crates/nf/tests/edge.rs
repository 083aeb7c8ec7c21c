//! NF edge cases: behaviors at the boundaries of each application's
//! state machine, run through full deployments.

#![allow(clippy::field_reassign_with_default)] // configs read clearer as overrides

use std::net::Ipv4Addr;
use swishmem::prelude::*;
use swishmem::RegisterSpec;
use swishmem_nf::*;
use swishmem_simnet::{Trace, TraceHandle};
use swishmem_wire::l4::TcpFlags;
use swishmem_wire::PacketBody;

/// A packet trace of every delivery in the run, attached before it.
fn trace(dep: &mut Deployment) -> TraceHandle {
    let trace = Trace::new(1 << 12);
    dep.add_observer(trace.clone());
    trace
}

/// The data packets host `h` received, read off the trace; the trace
/// holds all of them and agrees with the host's count.
fn received(dep: &Deployment, trace: &TraceHandle, h: usize) -> Vec<DataPacket> {
    let trace = trace.borrow();
    assert_eq!(trace.overflowed(), 0);
    let got: Vec<DataPacket> = trace
        .received_by(dep.host(h))
        .into_iter()
        .map(|e| match &e.pkt.body {
            PacketBody::Data(d) => *d,
            _ => panic!("hosts receive data packets only"),
        })
        .collect();
    assert_eq!(got.len(), dep.recording(h).borrow().len());
    got
}

// ---------------------------------------------------------------- NAT

fn nat_cfg() -> NatConfig {
    NatConfig {
        fwd_reg: 0,
        rev_reg: 1,
        keys: 512,
        nat_ip: Ipv4Addr::new(203, 0, 113, 1),
        inside_octet: 10,
        ports_per_switch: 4, // tiny pool: force wrap-around
        port_base: 40_000,
        outside_host: NodeId(HOST_BASE),
        inside_host: NodeId(HOST_BASE + 1),
    }
}

#[test]
fn nat_port_pool_wraps_without_panicking() {
    let stats = NatStatsHandle::default();
    let s2 = stats.clone();
    let mut dep = DeploymentBuilder::new(2)
        .hosts(2)
        .register(RegisterSpec::sro(0, "fwd", 512))
        .register(RegisterSpec::sro(1, "rev", 512))
        .build(move |_| Box::new(Nat::new(nat_cfg(), s2.clone())));
    let trace = trace(&mut dep);
    dep.settle();
    let t = dep.now();
    // 10 distinct flows through a 4-port pool: allocation wraps; old
    // reverse mappings get overwritten (a real small-NAT failure mode) —
    // but forwarding must never wedge.
    for i in 0..10u16 {
        let f = DataPacket::udp(
            FlowKey::udp(
                Ipv4Addr::new(10, 0, 0, 9),
                6000 + i,
                Ipv4Addr::new(8, 8, 8, 8),
                53,
            ),
            0,
            32,
        );
        dep.inject(t + SimDuration::millis(u64::from(i)), 0, 0, f);
    }
    dep.run_for(SimDuration::millis(100));
    let out = received(&dep, &trace, 0);
    assert_eq!(out.len(), 10, "all outbound packets translated");
    assert_eq!(stats.borrow().allocations, 10);
    // Every translated source port stayed within switch 0's range.
    for d in &out {
        assert!((40_000..40_004).contains(&d.flow.src_port));
    }
}

#[test]
fn nat_second_packet_of_flow_reuses_mapping() {
    let stats = NatStatsHandle::default();
    let s2 = stats.clone();
    let mut dep = DeploymentBuilder::new(2)
        .hosts(2)
        .register(RegisterSpec::sro(0, "fwd", 512))
        .register(RegisterSpec::sro(1, "rev", 512))
        .build(move |_| Box::new(Nat::new(nat_cfg(), s2.clone())));
    let trace = trace(&mut dep);
    dep.settle();
    let f = DataPacket::udp(
        FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 9),
            7777,
            Ipv4Addr::new(8, 8, 8, 8),
            53,
        ),
        0,
        32,
    );
    let t = dep.now();
    dep.inject(t, 0, 0, f);
    dep.run_for(SimDuration::millis(30));
    // Second packet of the same flow — even via the OTHER switch.
    let t = dep.now();
    dep.inject(t, 1, 0, f);
    dep.run_for(SimDuration::millis(30));
    assert_eq!(
        stats.borrow().allocations,
        1,
        "one mapping for the whole flow"
    );
    assert_eq!(stats.borrow().outbound_hits, 1);
    let ports: Vec<u16> = received(&dep, &trace, 0)
        .iter()
        .map(|d| d.flow.src_port)
        .collect();
    assert_eq!(ports.len(), 2);
    assert_eq!(ports[0], ports[1], "same external port for both packets");
}

// ----------------------------------------------------------- Firewall

#[test]
fn firewall_rst_moves_connection_to_closing() {
    let cfg = FirewallConfig {
        conn_reg: 0,
        keys: 256,
        inside_octet: 10,
        outside_host: NodeId(HOST_BASE),
        inside_host: NodeId(HOST_BASE + 1),
    };
    let stats = FirewallStatsHandle::default();
    let s2 = stats.clone();
    let c2 = cfg.clone();
    let mut dep = DeploymentBuilder::new(2)
        .hosts(2)
        .register(RegisterSpec::sro(0, "conn", 256))
        .build(move |_| Box::new(Firewall::new(c2.clone(), s2.clone())));
    dep.settle();
    let flow = FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, 1),
        4000,
        Ipv4Addr::new(9, 9, 9, 9),
        443,
    );
    let t = dep.now();
    dep.inject(t, 0, 1, DataPacket::tcp(flow, TcpFlags::syn(), 0, 0));
    dep.run_for(SimDuration::millis(30));
    let mut rst = TcpFlags::default();
    rst.rst = true;
    let t = dep.now();
    dep.inject(t, 0, 1, DataPacket::tcp(flow, rst, 1, 0));
    dep.run_for(SimDuration::millis(30));
    let key = (flow.canonical_hash64() % 256) as u32;
    assert_eq!(
        dep.peek(1, 0, key),
        swishmem_nf::firewall::conn_state::CLOSING
    );
}

// ---------------------------------------------------------------- IPS

#[test]
fn ips_threshold_is_a_hard_boundary() {
    let cfg = IpsConfig {
        sig_reg: 0,
        match_reg: 1,
        keys: 512,
        prevention_threshold: 3,
        admin_port: 9999,
        egress_host: NodeId(HOST_BASE),
    };
    let stats = IpsStatsHandle::default();
    let s2 = stats.clone();
    let c2 = cfg.clone();
    let mut dep = DeploymentBuilder::new(1)
        .hosts(1)
        .register(RegisterSpec::ero(0, "sigs", 512))
        .register(RegisterSpec::ewo_counter(1, "matches", 4))
        .build(move |_| Box::new(Ips::new(c2.clone(), s2.clone())));
    dep.settle();
    let bad = |sport: u16| {
        DataPacket::udp(
            FlowKey::udp(
                Ipv4Addr::new(6, 6, 6, 6),
                sport,
                Ipv4Addr::new(10, 0, 0, 1),
                31337,
            ),
            0,
            666,
        )
    };
    // Install the signature, then send 6 matching packets.
    let t = dep.now();
    dep.inject(t, 0, 0, bad(9999));
    dep.run_for(SimDuration::millis(10));
    let t = dep.now();
    for i in 0..6u64 {
        dep.inject(t + SimDuration::micros(i * 100), 0, 0, bad(2000 + i as u16));
    }
    dep.run_for(SimDuration::millis(10));
    let s = stats.borrow();
    assert_eq!(s.matches, 6);
    // Counter reaches threshold after 3 matches; packets 4..6 dropped.
    assert_eq!(s.prevented, 3);
    assert_eq!(
        dep.recording(0).borrow().len(),
        3,
        "first three matches pass through"
    );
}

// ----------------------------------------------------------------- LB

#[test]
fn lb_non_vip_traffic_passes_through_untouched() {
    let cfg = LbConfig {
        conn_reg: 0,
        keys: 256,
        vip: Ipv4Addr::new(10, 99, 0, 1),
        backends: vec![(Ipv4Addr::new(10, 1, 0, 1), NodeId(HOST_BASE))],
    };
    let stats = LbStatsHandle::default();
    let s2 = stats.clone();
    let c2 = cfg.clone();
    let mut dep = DeploymentBuilder::new(1)
        .hosts(1)
        .register(RegisterSpec::sro(0, "conn", 256))
        .build(move |_| Box::new(LoadBalancer::new(c2.clone(), s2.clone())));
    let trace = trace(&mut dep);
    dep.settle();
    let direct = DataPacket::tcp(
        FlowKey::tcp(
            Ipv4Addr::new(1, 2, 3, 4),
            1000,
            Ipv4Addr::new(5, 6, 7, 8),
            80,
        ),
        TcpFlags::syn(),
        0,
        10,
    );
    let t = dep.now();
    dep.inject(t, 0, 0, direct);
    dep.run_for(SimDuration::millis(10));
    let log = received(&dep, &trace, 0);
    assert_eq!(log.len(), 1);
    assert_eq!(
        log[0].flow.dst,
        Ipv4Addr::new(5, 6, 7, 8),
        "non-VIP dst must not be rewritten"
    );
    assert_eq!(stats.borrow().assigned, 0);
}

// --------------------------------------------------------- Heavy hitter

#[test]
fn heavy_hitter_threshold_exact_boundary() {
    let cfg = HhConfig {
        count_reg: 0,
        keys: 64,
        threshold_bytes: 128 * 3, // exactly 3 packets of 128 B
        egress_host: NodeId(HOST_BASE),
    };
    let stats = HhStatsHandle::default();
    let s2 = stats.clone();
    let c2 = cfg.clone();
    let mut dep = DeploymentBuilder::new(1)
        .hosts(1)
        .register(RegisterSpec::ewo_counter(0, "hh", 64))
        .build(move |_| Box::new(HeavyHitter::new(c2.clone(), s2.clone())));
    dep.settle();
    let dst = Ipv4Addr::new(20, 0, 0, 5);
    let key = u32::from(dst) % 64;
    let t = dep.now();
    for i in 0..4u64 {
        let pkt = DataPacket::udp(
            FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1000 + i as u16, dst, 80),
            0,
            100, // 128 B wire
        );
        dep.inject(t + SimDuration::micros(i * 10), 0, 0, pkt);
    }
    dep.run_for(SimDuration::millis(5));
    // Count after 3 packets == threshold (not >), flag fires on the 4th.
    assert!(stats.borrow().is_flagged(key));
    let flagged_at = stats.borrow().flagged[0].1;
    assert!(flagged_at >= (t + SimDuration::micros(30)).nanos());
}
