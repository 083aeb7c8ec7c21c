//! The paper's own stated limitation, demonstrated (§9):
//!
//! "One current limitation of SwiShmem is the need for control plane
//! involvement to achieve strongly consistent writes. While in our
//! experience applications that require frequent writes and strong
//! consistency are rare among traditional NFs, some new in-network
//! applications like sequencers have such data."
//!
//! A network sequencer (à la NOPaxos) must increment a strongly
//! consistent counter on *every* packet. On SwiShmem that write crosses
//! the control plane, so the sequencer saturates at the CP service rate —
//! orders of magnitude below the data plane. This example measures the
//! collapse and contrasts it with an EWO counter (which is fast but
//! cannot produce a gap-free total order). The packet trace shows the
//! protocol traffic behind one sequenced packet.
//!
//! Run: `cargo run --release --example sequencer_limits`

use std::net::Ipv4Addr;
use swishmem::prelude::*;
use swishmem::{NfApp, NfDecision, RegisterSpec, SharedState};
use swishmem_simnet::Trace;

/// Per-packet strongly-consistent sequence assignment: read+increment an
/// SRO register; the assigned number is stamped into the output packet.
struct Sequencer;
impl NfApp for Sequencer {
    fn process(&mut self, pkt: &DataPacket, _in: NodeId, st: &mut dyn SharedState) -> NfDecision {
        let seq = st.read(0, 0) + 1;
        st.write(0, 0, seq);
        let mut out = *pkt;
        out.flow_seq = seq as u32;
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: out,
        }
    }
}

fn pkt(i: u32) -> DataPacket {
    DataPacket::udp(
        FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            5000,
            Ipv4Addr::new(10, 0, 0, 2),
            99,
        ),
        i,
        32,
    )
}

fn run(offered_pps: f64) -> (u64, f64) {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .register(RegisterSpec::sro(0, "seq", 4))
        .build(|_| Box::new(Sequencer));
    dep.settle();
    let dur = SimDuration::millis(50);
    let gap = (1e9 / offered_pps) as u64;
    let t0 = dep.now();
    let n = dur.as_nanos() / gap;
    for i in 0..n {
        dep.inject(t0 + SimDuration::nanos(i * gap), 0, 0, pkt(i as u32));
    }
    dep.run_for(dur + SimDuration::millis(100));
    let released = dep.recording(0).borrow().len() as u64;
    let latency = dep.metrics(0).cp.write_latency.mean_ns() / 1000.0;
    (released * 1000 / 50, latency) // sequenced pkts per second
}

fn main() {
    println!("network sequencer on SwiShmem SRO (per-packet strongly-consistent writes):\n");
    println!("  offered pps  sequenced pps  mean latency (us)");
    for offered in [5_000.0, 20_000.0, 50_000.0, 200_000.0] {
        let (thru, lat) = run(offered);
        println!("  {:>11}  {:>13}  {:>12.0}", offered as u64, thru, lat);
    }
    println!("\nthe sequencer saturates at the control-plane service rate — the");
    println!("limitation §9 names; data-plane buffering/retransmission (the");
    println!("paper's open question) would be needed to lift it.\n");

    // Show the protocol traffic behind a single sequenced packet.
    let trace = Trace::new(64);
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .register(RegisterSpec::sro(0, "seq", 4))
        .build(|_| Box::new(Sequencer));
    dep.settle();
    dep.sim.add_observer(trace.clone());
    let t = dep.now();
    dep.inject(t, 0, 0, pkt(0));
    dep.run_for(SimDuration::millis(5));
    println!("packet trace for ONE sequenced packet (chain of 3):");
    let trace = trace.borrow();
    print!("{}", trace.render());
    assert_eq!(trace.overflowed(), 0, "packet trace too small for the run");
    // The host counts the released packet; the trace shows it carries
    // the first sequence number.
    assert_eq!(dep.recording(0).borrow().len(), 1);
    let released = trace.received_by(dep.host(0));
    assert_eq!(released.len(), 1);
    let swishmem_wire::PacketBody::Data(d) = &released[0].pkt.body else {
        panic!("hosts receive data packets only")
    };
    assert_eq!(d.flow_seq, 1);
}
