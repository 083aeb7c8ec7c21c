//! A generic sink node that counts everything it receives.
//!
//! Hosts at the edge of the simulated fabric (traffic destinations, the
//! experiment harness's observation points) are `RecorderNode`s. A host
//! keeps only the number of frames it received, so its memory does not
//! grow with the run; the harness keeps the shared [`Recording`] handle
//! and reads the count after the run. A caller that needs the packets
//! themselves attaches a packet [`crate::Trace`] and filters it with
//! [`crate::Trace::received_by`].

use crate::ctx::Ctx;
use crate::node::Node;
use std::cell::RefCell;
use std::rc::Rc;
use swishmem_wire::Packet;

/// How many frames a [`RecorderNode`] received.
#[derive(Debug, Default)]
pub struct Received {
    frames: usize,
}

impl Received {
    /// Number of frames received.
    pub fn len(&self) -> usize {
        self.frames
    }

    /// Whether no frame was received.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }
}

/// Shared handle to a [`RecorderNode`]'s count.
pub type Recording = Rc<RefCell<Received>>;

/// A node that counts every delivered packet.
pub struct RecorderNode {
    received: Recording,
}

impl RecorderNode {
    /// Create a recorder and the shared handle to its count.
    pub fn new() -> (RecorderNode, Recording) {
        let received = Recording::default();
        (
            RecorderNode {
                received: received.clone(),
            },
            received,
        )
    }
}

impl Node for RecorderNode {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {
        self.received.borrow_mut().frames += 1;
    }

    fn on_fail(&mut self) {
        // A failed recorder keeps its count: the harness still wants to
        // know what arrived before the failure.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::sim::Simulator;
    use crate::time::SimTime;
    use crate::trace::Trace;
    use std::net::Ipv4Addr;
    use swishmem_wire::{DataPacket, FlowKey, NodeId};

    /// The count and the trace agree, and a failed recorder keeps its
    /// count: the second frame arrives after the failure and is dropped.
    #[test]
    fn counts_arrivals_and_the_trace_holds_them() {
        let mut sim = Simulator::new(1);
        let trace = Trace::new(16);
        sim.add_observer(trace.clone());
        let (rec, count) = RecorderNode::new();
        sim.add_node(NodeId(5), Box::new(rec));
        sim.topology_mut()
            .connect(NodeId(4), NodeId(5), LinkParams::datacenter());
        let p = Packet::data(
            NodeId(4),
            NodeId(5),
            DataPacket::udp(
                FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2),
                3,
                16,
            ),
        );
        sim.inject(SimTime(500), p.clone());
        sim.schedule_fail(SimTime(1_000), NodeId(5));
        sim.inject(SimTime(2_000), p.clone());
        sim.run_until_quiescent(SimTime(1_000_000));
        assert!(sim.is_failed(NodeId(5)));
        assert_eq!(count.borrow().len(), 1);
        assert!(!count.borrow().is_empty());
        let t = trace.borrow();
        assert_eq!(t.overflowed(), 0);
        let got = t.received_by(NodeId(5));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].time, SimTime(500));
        assert_eq!(got[0].pkt, p);
    }
}
