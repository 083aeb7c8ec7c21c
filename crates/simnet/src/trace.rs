//! Packet tracing: a [`Tap`] of delivered frames for offline inspection —
//! the smoltcp `--pcap` idiom adapted to the simulator. Attach with
//! `add_observer(trace.clone())`. Traces render as human-readable text
//! and can be filtered by traffic class, endpoint or receiving node.
//!
//! The trace is the one place a run's packets are kept: hosts
//! ([`crate::RecorderNode`]) only count theirs, so a caller that reads
//! what a host received attaches a trace before the run and filters it
//! with [`Trace::received_by`]. A reader that must see every frame
//! checks [`Tap::overflowed`] is 0, so a capacity that is too small
//! fails loudly instead of truncating what it reads.

use crate::observe::{Family, NetEvent};
use crate::stats::TrafficClass;
use crate::tap::{Record, Tap, TapHandle};
use crate::time::SimTime;
use swishmem_wire::{NodeId, Packet};

/// One traced delivery.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Delivery time.
    pub time: SimTime,
    /// The receiving node.
    pub to: NodeId,
    /// The delivered frame.
    pub pkt: Packet,
}

impl Record for TraceEntry {
    const FAMILY: Family = Family::Delivered;
    fn of(time: SimTime, ev: &NetEvent<'_>) -> Option<Self> {
        match ev {
            NetEvent::Delivered { to, pkt } => Some(TraceEntry {
                time,
                to: *to,
                pkt: (*pkt).clone(),
            }),
            _ => None,
        }
    }
}

/// A bounded in-memory packet trace: the first `capacity` deliveries.
pub type Trace = Tap<TraceEntry>;

/// Shared handle to a [`Trace`] (the simulator holds one side).
pub type TraceHandle = TapHandle<TraceEntry>;

impl Tap<TraceEntry> {
    /// Entries matching a traffic class.
    pub fn by_class(&self, class: TrafficClass) -> Vec<&TraceEntry> {
        self.events()
            .iter()
            .filter(|e| TrafficClass::of(&e.pkt) == class)
            .collect()
    }

    /// Entries to or from a node.
    pub fn by_endpoint(&self, node: NodeId) -> Vec<&TraceEntry> {
        self.events()
            .iter()
            .filter(|e| e.pkt.src == node || e.pkt.dst == node)
            .collect()
    }

    /// Entries delivered to a node, in delivery order.
    pub fn received_by(&self, node: NodeId) -> Vec<&TraceEntry> {
        self.events().iter().filter(|e| e.to == node).collect()
    }

    /// Render as text, one line per frame (tcpdump-style).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&format!(
                "{} {} -> {} [{}] {} B {:?}\n",
                e.time,
                e.pkt.src,
                e.pkt.dst,
                class_tag(TrafficClass::of(&e.pkt)),
                e.pkt.wire_len(),
                short(&e.pkt),
            ));
        }
        if self.overflowed() > 0 {
            out.push_str(&format!(
                "... {} more frames not recorded (trace full)\n",
                self.overflowed()
            ));
        }
        out
    }
}

fn class_tag(c: TrafficClass) -> &'static str {
    match c {
        TrafficClass::Data => "data",
        TrafficClass::SroWrite => "sro-write",
        TrafficClass::SroControl => "sro-ctl",
        TrafficClass::EwoSync => "ewo-sync",
        TrafficClass::Snapshot => "snapshot",
        TrafficClass::ReadForward => "read-fwd",
        TrafficClass::Migration => "migrate",
        TrafficClass::Management => "mgmt",
    }
}

fn short(pkt: &Packet) -> String {
    match &pkt.body {
        swishmem_wire::PacketBody::Data(d) => format!("{}", d.flow),
        swishmem_wire::PacketBody::Swish(m) => {
            let s = format!("{m:?}");
            s.chars().take(60).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::NetObserver;
    use std::net::Ipv4Addr;
    use swishmem_wire::swish::Heartbeat;
    use swishmem_wire::{DataPacket, FlowKey, SwishMsg};

    fn data(src: u16, dst: u16) -> Packet {
        Packet::data(
            NodeId(src),
            NodeId(dst),
            DataPacket::udp(
                FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2),
                0,
                10,
            ),
        )
    }

    fn deliver(t: &mut Trace, time: u64, pkt: &Packet) {
        let ev = NetEvent::Delivered { to: pkt.dst, pkt };
        t.on_net_event(SimTime(time), &ev);
    }

    #[test]
    fn records_and_filters() {
        let h = Trace::new(10);
        let mut t = h.borrow_mut();
        deliver(&mut t, 1, &data(0, 1));
        let hb = Heartbeat {
            from: NodeId(2),
            epoch: 1,
        };
        deliver(
            &mut t,
            2,
            &Packet::swish(NodeId(2), NodeId::CONTROLLER, SwishMsg::Heartbeat(hb)),
        );
        // A relay receives a frame addressed elsewhere: it is an entry of
        // the relay's, not an endpoint's.
        let relayed = data(0, 1);
        let ev = NetEvent::Delivered {
            to: NodeId(9),
            pkt: &relayed,
        };
        t.on_net_event(SimTime(3), &ev);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.received_by(NodeId(9)).len(), 1);
        assert!(t.by_endpoint(NodeId(9)).is_empty());
        assert_eq!(t.by_class(TrafficClass::Data).len(), 2);
        assert_eq!(t.by_class(TrafficClass::Management).len(), 1);
        assert_eq!(t.by_endpoint(NodeId(1)).len(), 2);
        assert_eq!(t.by_endpoint(NodeId(2)).len(), 1);
        assert_eq!(t.received_by(NodeId(1)).len(), 1);
        assert_eq!(t.received_by(NodeId::CONTROLLER).len(), 1);
        assert!(t.received_by(NodeId(2)).is_empty());
    }

    /// End-to-end drop accounting: when a live engine delivers more
    /// frames than the trace capacity, every delivery is either recorded
    /// or counted as overflow — none vanish.
    #[test]
    fn engine_overflow_accounts_for_every_delivery() {
        use crate::ctx::Ctx;
        use crate::link::LinkParams;
        use crate::node::Node;
        use crate::sim::Simulator;
        use swishmem_wire::PacketBody;

        struct Echo;
        impl Node for Echo {
            fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
                if let PacketBody::Data(d) = pkt.body {
                    if d.flow_seq < 10 {
                        let mut d2 = d;
                        d2.flow_seq += 1;
                        ctx.send(pkt.src, PacketBody::Data(d2));
                    }
                }
            }
        }

        let mut sim = Simulator::new(7);
        let trace = Trace::new(4);
        sim.add_observer(trace.clone());
        sim.add_node(NodeId(0), Box::new(Echo));
        sim.add_node(NodeId(1), Box::new(Echo));
        sim.topology_mut()
            .connect(NodeId(0), NodeId(1), LinkParams::datacenter());
        sim.inject(SimTime(0), data(0, 1));
        sim.run_until_quiescent(SimTime(1_000_000_000));

        let delivered = sim.stats().delivered_total().packets;
        let t = trace.borrow();
        assert!(delivered > 4, "scenario must exceed trace capacity");
        assert_eq!(t.events().len(), 4);
        assert_eq!(t.events().len() as u64 + t.overflowed(), delivered);
    }

    #[test]
    fn render_is_line_per_frame() {
        let h = Trace::new(1);
        let mut t = h.borrow_mut();
        for i in 0..4 {
            deliver(&mut t, 1_000 + i, &data(3, 4));
        }
        let text = t.render();
        assert!(text.contains("n3 -> n4"));
        assert!(text.contains("[data]"));
        assert!(text.contains("1.1.1.1:1 -> 2.2.2.2:2"));
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.contains("3 more frames"));
    }
}
