//! Traffic accounting: byte/packet counters per traffic class delivered
//! and per drop reason.
//!
//! The bandwidth-overhead experiments (E2, E13, E14 in DESIGN.md) are
//! computed entirely from these counters. Classification covers every
//! message type by construction: a message's [`TrafficClass`] is part of
//! its row in the wire crate's message table. Both breakdowns are flat
//! arrays indexed by enum discriminant, so accounting a frame is one add;
//! a question about one link or node is asked of an observer instead
//! (a [`crate::Trace`], say).

use swishmem_wire::Packet;
pub use swishmem_wire::TrafficClass;

/// Packet/byte counter pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    /// Packets counted.
    pub packets: u64,
    /// Bytes counted (true wire length).
    pub bytes: u64,
}

impl Counter {
    fn add(&mut self, bytes: usize) {
        self.packets += 1;
        self.bytes += bytes as u64;
    }
}

/// Why a frame was not delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Random loss on the link.
    Loss,
    /// No link configured between the endpoints.
    NoRoute,
    /// Destination (or source) node has failed.
    NodeDown,
    /// Link administratively down.
    LinkDown,
    /// Frame corrupted in flight (delivered to `on_corrupt_packet`, which
    /// by default discards).
    Corrupt,
}

impl DropReason {
    /// All reasons, for iteration in reports (and counter-array sizing).
    pub const ALL: [DropReason; 5] = [
        DropReason::Loss,
        DropReason::NoRoute,
        DropReason::NodeDown,
        DropReason::LinkDown,
        DropReason::Corrupt,
    ];
}

/// Aggregate simulation statistics.
#[derive(Debug, Default, Clone)]
pub struct NetStats {
    delivered: [Counter; TrafficClass::ALL.len()],
    dropped: [Counter; DropReason::ALL.len()],
}

impl NetStats {
    /// Record a successful delivery of `pkt` (at its destination or at a
    /// relay on the way).
    pub(crate) fn record_delivery(&mut self, pkt: &Packet, bytes: usize) {
        self.delivered[TrafficClass::of(pkt) as usize].add(bytes);
    }

    /// Record a drop.
    pub(crate) fn record_drop(&mut self, reason: DropReason, bytes: usize) {
        self.dropped[reason as usize].add(bytes);
    }

    /// Delivered counter for one traffic class.
    pub fn delivered(&self, class: TrafficClass) -> Counter {
        self.delivered[class as usize]
    }

    /// Total delivered across all classes.
    pub fn delivered_total(&self) -> Counter {
        let mut total = Counter::default();
        for c in &self.delivered {
            total.packets += c.packets;
            total.bytes += c.bytes;
        }
        total
    }

    /// Dropped counter for one reason.
    pub fn dropped(&self, reason: DropReason) -> Counter {
        self.dropped[reason as usize]
    }

    /// Reset all counters (used to scope measurements to a window).
    pub fn reset(&mut self) {
        *self = NetStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use swishmem_wire::swish::{Heartbeat, SyncUpdate, WriteAck, WriteOp, WriteRequest};
    use swishmem_wire::{DataPacket, FlowKey, NodeId, SwishMsg};

    fn data() -> Packet {
        Packet::data(
            NodeId(0),
            NodeId(1),
            DataPacket::udp(
                FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2),
                0,
                10,
            ),
        )
    }

    #[test]
    fn classification_covers_message_kinds() {
        let w = Packet::swish(
            NodeId(0),
            NodeId(1),
            SwishMsg::Write(WriteRequest {
                write_id: 1,
                writer: NodeId(0),
                epoch: 0,
                reg: 0,
                key: 0,
                seq: 0,
                op: WriteOp::Set(1),
                trace: swishmem_wire::TraceId::NONE,
            }),
        );
        let a = Packet::swish(
            NodeId(1),
            NodeId(0),
            SwishMsg::Ack(WriteAck {
                write_id: 1,
                writer: NodeId(0),
                reg: 0,
                key: 0,
                seq: 1,
                trace: swishmem_wire::TraceId::NONE,
            }),
        );
        let s = Packet::swish(
            NodeId(0),
            NodeId(1),
            SwishMsg::Sync(SyncUpdate {
                reg: 0,
                origin: NodeId(0),
                trace: swishmem_wire::TraceId::NONE,
                entries: vec![].into(),
            }),
        );
        let h = Packet::swish(
            NodeId(0),
            NodeId::CONTROLLER,
            SwishMsg::Heartbeat(Heartbeat {
                from: NodeId(0),
                epoch: 0,
            }),
        );
        assert_eq!(TrafficClass::of(&data()), TrafficClass::Data);
        assert_eq!(TrafficClass::of(&w), TrafficClass::SroWrite);
        assert_eq!(TrafficClass::of(&a), TrafficClass::SroControl);
        assert_eq!(TrafficClass::of(&s), TrafficClass::EwoSync);
        assert_eq!(TrafficClass::of(&h), TrafficClass::Management);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let mut st = NetStats::default();
        let p = data();
        st.record_delivery(&p, 100);
        st.record_delivery(&p, 50);
        st.record_drop(DropReason::Loss, 60);

        assert_eq!(
            st.delivered(TrafficClass::Data),
            Counter {
                packets: 2,
                bytes: 150
            }
        );
        assert_eq!(st.delivered_total().bytes, 150);
        assert_eq!(
            st.dropped(DropReason::Loss),
            Counter {
                packets: 1,
                bytes: 60
            }
        );

        st.reset();
        assert_eq!(st.delivered_total().packets, 0);
    }
}
