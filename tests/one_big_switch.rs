//! Cross-crate integration: several NFs composed on one deployment, full
//! traffic through the fabric — the "one big switch" promise end to end.

#![allow(clippy::field_reassign_with_default)] // configs read clearer as overrides

use std::net::Ipv4Addr;
use swishmem::prelude::*;
use swishmem::{NfApp, NfDecision, RegisterSpec, SharedState};
use swishmem_nf::workload::{EcmpRouter, FlowGen, FlowGenConfig, RoutingMode};
use swishmem_simnet::Trace;
use swishmem_wire::PacketBody;

/// A composed NF: firewall-style connection gate (SRO) + per-destination
/// packet counting (EWO) in one pipeline, as a real deployment would
/// stack features.
struct GateAndCount;

const CONN: u16 = 0;
const COUNT: u16 = 1;

impl NfApp for GateAndCount {
    fn process(&mut self, pkt: &DataPacket, _ing: NodeId, st: &mut dyn SharedState) -> NfDecision {
        let key = (pkt.flow.canonical_hash64() % 4096) as u32;
        let inside = pkt.flow.src.octets()[0] == 10;
        st.add(
            COUNT,
            u32::from(u16::from_be_bytes([
                pkt.flow.dst.octets()[2],
                pkt.flow.dst.octets()[3],
            ])) % 512,
            1,
        );
        if inside {
            if st.read(CONN, key) == 0 {
                st.write(CONN, key, 1);
            }
            NfDecision::Forward {
                dst: NodeId(HOST_BASE),
                pkt: *pkt,
            }
        } else if st.read(CONN, key) != 0 {
            NfDecision::Forward {
                dst: NodeId(HOST_BASE + 1),
                pkt: *pkt,
            }
        } else {
            NfDecision::Drop
        }
    }
}

fn deployment(n: usize) -> Deployment {
    DeploymentBuilder::new(n)
        .hosts(2)
        .seed(3)
        .register(RegisterSpec::sro(CONN, "conn", 4096))
        .register(RegisterSpec::ewo_counter(COUNT, "count", 512))
        .build(|_| Box::new(GateAndCount))
}

#[test]
fn realistic_workload_counts_and_gates_coherently() {
    let mut dep = deployment(4);
    dep.settle();
    let router = EcmpRouter::new(4, RoutingMode::EcmpStable);
    let sched = FlowGen::new(
        FlowGenConfig {
            flow_rate: 8_000.0,
            mean_packets: 4.0,
            duration: SimDuration::millis(40),
            tcp: true,
            ..FlowGenConfig::default()
        },
        4,
    )
    .generate(&router);
    let t0 = dep.now();
    for p in &sched {
        dep.inject(t0 + SimDuration::nanos(p.time.nanos()), p.ingress, 0, p.pkt);
    }
    dep.run_for(SimDuration::millis(150));
    // Every packet was outbound (src 10.x) so all must be forwarded.
    let delivered = dep.recording(0).borrow().len();
    assert_eq!(
        delivered,
        sched.len(),
        "outbound traffic must all pass the gate"
    );
    // The EWO counters across all switches converge to the packet count.
    let total: u64 = (0..512).map(|k| dep.peek(0, COUNT, k)).sum();
    assert_eq!(total, sched.len() as u64);
    for i in 1..4 {
        let other: u64 = (0..512).map(|k| dep.peek(i, COUNT, k)).sum();
        assert_eq!(other, total, "switch {i} counter view diverged");
    }
}

#[test]
fn return_path_admitted_via_any_switch() {
    let mut dep = deployment(3);
    dep.settle();
    let out = DataPacket::udp(
        FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            1234,
            Ipv4Addr::new(8, 8, 8, 8),
            53,
        ),
        0,
        64,
    );
    let t = dep.now();
    dep.inject(t, 0, 0, out);
    dep.run_for(SimDuration::millis(30));
    // Replies through every switch are admitted.
    let reply = DataPacket::udp(
        FlowKey::udp(
            Ipv4Addr::new(8, 8, 8, 8),
            53,
            Ipv4Addr::new(10, 0, 0, 1),
            1234,
        ),
        0,
        64,
    );
    let t = dep.now();
    for sw in 0..3 {
        dep.inject(t + SimDuration::micros(sw as u64 * 100), sw, 0, reply);
    }
    dep.run_for(SimDuration::millis(20));
    assert_eq!(dep.recording(1).borrow().len(), 3);
}

#[test]
fn unsolicited_traffic_dropped_everywhere() {
    let mut dep = deployment(3);
    dep.settle();
    let stray = DataPacket::udp(
        FlowKey::udp(
            Ipv4Addr::new(66, 6, 6, 6),
            1,
            Ipv4Addr::new(10, 0, 0, 1),
            22,
        ),
        0,
        64,
    );
    let t = dep.now();
    for sw in 0..3 {
        dep.inject(t + SimDuration::micros(sw as u64 * 50), sw, 0, stray);
    }
    dep.run_for(SimDuration::millis(20));
    assert!(dep.recording(1).borrow().is_empty());
    // ... but it was still counted by the EWO side (counting ≠ gating).
    let total: u64 = (0..512).map(|k| dep.peek(0, COUNT, k)).sum();
    assert_eq!(total, 3);
}

#[test]
fn traffic_classes_all_present_in_stats() {
    use swishmem_simnet::TrafficClass;
    let mut dep = deployment(3);
    dep.settle();
    let t = dep.now();
    let out = DataPacket::udp(
        FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 9),
            999,
            Ipv4Addr::new(9, 9, 9, 9),
            53,
        ),
        0,
        64,
    );
    dep.inject(t, 0, 0, out);
    dep.run_for(SimDuration::millis(30));
    let st = dep.sim.stats();
    assert!(st.delivered(TrafficClass::Data).packets >= 1);
    assert!(
        st.delivered(TrafficClass::SroWrite).packets >= 1,
        "chain writes flowed"
    );
    assert!(
        st.delivered(TrafficClass::SroControl).packets >= 1,
        "acks/clears flowed"
    );
    assert!(
        st.delivered(TrafficClass::EwoSync).packets >= 1,
        "sync updates flowed"
    );
    assert!(
        st.delivered(TrafficClass::Management).packets >= 1,
        "heartbeats flowed"
    );
}

#[test]
fn host_recordings_carry_wire_exact_packets() {
    let mut dep = deployment(2);
    let trace = Trace::new(1 << 12);
    dep.add_observer(trace.clone());
    dep.settle();
    // TCP: the sequence number rides the wire, so the frame round-trips
    // byte-exactly (UDP frames have no seq field to preserve).
    let out = DataPacket::tcp(
        FlowKey::tcp(
            Ipv4Addr::new(10, 1, 2, 3),
            1111,
            Ipv4Addr::new(7, 7, 7, 7),
            80,
        ),
        swishmem_wire::l4::TcpFlags::data(),
        5,
        321,
    );
    let t = dep.now();
    dep.inject(t, 1, 0, out);
    dep.run_for(SimDuration::millis(20));
    // The host counts the frame; the packet trace holds it.
    assert_eq!(dep.recording(0).borrow().len(), 1);
    let trace = trace.borrow();
    assert_eq!(trace.overflowed(), 0);
    let log = trace.received_by(dep.host(0));
    assert_eq!(log.len(), 1);
    let PacketBody::Data(d) = &log[0].pkt.body else {
        panic!("expected data")
    };
    assert_eq!(d, &out);
    // And the frame's serialized form round-trips.
    let bytes = log[0].pkt.to_bytes();
    assert_eq!(
        swishmem_wire::Packet::from_bytes(&bytes).unwrap(),
        log[0].pkt
    );
}
