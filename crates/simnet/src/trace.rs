//! Packet tracing: a [`NetObserver`] that records delivered frames for
//! offline inspection — the smoltcp `--pcap` idiom adapted to the
//! simulator. Attach with `add_observer(trace.clone())`. Traces render as
//! human-readable text and can be filtered by traffic class or endpoint.

use crate::observe::{NetEvent, NetObserver};
use crate::stats::TrafficClass;
use crate::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use swishmem_wire::{NodeId, Packet};

/// One traced delivery.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Delivery time.
    pub time: SimTime,
    /// The delivered frame.
    pub pkt: Packet,
}

/// A bounded in-memory packet trace.
#[derive(Debug)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    capacity: usize,
    dropped: u64,
}

/// Shared handle to a [`Trace`] (the simulator holds one side).
pub type TraceHandle = Rc<RefCell<Trace>>;

impl NetObserver for Trace {
    fn on_net_event(&mut self, now: SimTime, ev: &NetEvent<'_>) {
        if let NetEvent::Delivered { pkt, .. } = ev {
            self.record(now, pkt);
        }
    }
}

impl Trace {
    /// A trace keeping at most `capacity` entries (older entries are
    /// counted but discarded once full — bounded memory for long runs).
    pub fn new(capacity: usize) -> TraceHandle {
        Rc::new(RefCell::new(Trace {
            entries: Vec::new(),
            capacity,
            dropped: 0,
        }))
    }

    /// Record a delivery.
    pub fn record(&mut self, time: SimTime, pkt: &Packet) {
        if self.entries.len() < self.capacity {
            self.entries.push(TraceEntry {
                time,
                pkt: pkt.clone(),
            });
        } else {
            self.dropped += 1;
        }
    }

    /// All recorded entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries not recorded because the trace was full.
    pub fn overflowed(&self) -> u64 {
        self.dropped
    }

    /// Entries matching a traffic class.
    pub fn by_class(&self, class: TrafficClass) -> Vec<&TraceEntry> {
        self.entries
            .iter()
            .filter(|e| TrafficClass::of(&e.pkt) == class)
            .collect()
    }

    /// Entries to or from a node.
    pub fn by_endpoint(&self, node: NodeId) -> Vec<&TraceEntry> {
        self.entries
            .iter()
            .filter(|e| e.pkt.src == node || e.pkt.dst == node)
            .collect()
    }

    /// Render as text, one line per frame (tcpdump-style).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
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
        if self.dropped > 0 {
            out.push_str(&format!(
                "... {} more frames not recorded (trace full)\n",
                self.dropped
            ));
        }
        out
    }

    /// Clear the trace.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.dropped = 0;
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

    #[test]
    fn records_and_filters() {
        let h = Trace::new(10);
        let mut t = h.borrow_mut();
        t.record(SimTime(1), &data(0, 1));
        t.record(
            SimTime(2),
            &Packet::swish(
                NodeId(2),
                NodeId::CONTROLLER,
                SwishMsg::Heartbeat(Heartbeat {
                    from: NodeId(2),
                    epoch: 1,
                }),
            ),
        );
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.by_class(TrafficClass::Data).len(), 1);
        assert_eq!(t.by_class(TrafficClass::Management).len(), 1);
        assert_eq!(t.by_endpoint(NodeId(1)).len(), 1);
        assert_eq!(t.by_endpoint(NodeId(2)).len(), 1);
    }

    #[test]
    fn capacity_bounds_memory() {
        let h = Trace::new(2);
        let mut t = h.borrow_mut();
        for i in 0..5 {
            t.record(SimTime(i), &data(0, 1));
        }
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.overflowed(), 3);
        let text = t.render();
        assert!(text.contains("3 more frames"));
        t.clear();
        assert!(t.entries().is_empty());
        assert_eq!(t.overflowed(), 0);
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
        assert_eq!(t.entries().len(), 4);
        assert_eq!(t.entries().len() as u64 + t.overflowed(), delivered);
    }

    #[test]
    fn render_is_line_per_frame() {
        let h = Trace::new(10);
        let mut t = h.borrow_mut();
        t.record(SimTime(1_000), &data(3, 4));
        let text = t.render();
        assert!(text.contains("n3 -> n4"));
        assert!(text.contains("[data]"));
        assert!(text.contains("1.1.1.1:1 -> 2.2.2.2:2"));
    }
}
