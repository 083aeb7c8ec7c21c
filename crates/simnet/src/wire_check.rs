//! The wire-fidelity check the event loop runs on every delivered frame
//! when `set_wire_check(true)` is armed.
//!
//! The simulator moves packets in structured form; this is the one place
//! that proves the structured form and the byte encodings agree.

use swishmem_wire::cursor::Writer;
use swishmem_wire::ipv4::IpProto;
use swishmem_wire::{Packet, PacketBody};

/// Round-trip `pkt` through the production codec and panic, with the
/// frame in the message, on any drift: the full [`Packet::encode`] must
/// produce exactly `len` (= [`Packet::wire_len`], which the caller has
/// already computed for its statistics) bytes, and the full
/// [`Packet::from_bytes`] — checksum verified, trailing bytes rejected —
/// must give back a packet `==` to the one sent.
///
/// `scratch` is the engine's pooled encode buffer: it grows to the
/// longest frame seen and is reused, so a fixed-width frame is checked
/// without touching the allocator.
pub(crate) fn wire_fidelity_check(pkt: &Packet, len: usize, scratch: &mut Writer) {
    scratch.clear();
    scratch.reserve(len);
    pkt.encode(scratch);
    assert_eq!(scratch.len(), len, "wire_len drift: {pkt:?}");
    let mut reparsed = Packet::from_bytes(scratch.as_slice())
        .unwrap_or_else(|e| panic!("undecodable frame {pkt:?}: {e}"));
    restore_off_wire_fields(pkt, &mut reparsed);
    assert_eq!(&reparsed, pkt, "codec round-trip drift");
}

/// Copy into `reparsed` what `sent` legitimately does not put on the
/// wire: UDP has no sequence field, so a UDP data packet's simulator-side
/// `flow_seq` is dropped by the encoding. Nothing else is exempt — a TCP
/// `flow_seq` rides the sequence number and must round-trip.
fn restore_off_wire_fields(sent: &Packet, reparsed: &mut Packet) {
    if let (PacketBody::Data(a), PacketBody::Data(b)) = (&sent.body, &mut reparsed.body) {
        if a.flow.proto == IpProto::Udp.raw() {
            b.flow_seq = a.flow_seq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use swishmem_wire::l4::TcpFlags;
    use swishmem_wire::swish::{PendingClear, SyncEntry, SyncUpdate};
    use swishmem_wire::{DataPacket, FlowKey, NodeId, SwishMsg, TraceId};

    fn udp(flow_seq: u32) -> Packet {
        let flow = FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            5000,
            Ipv4Addr::new(10, 0, 0, 2),
            53,
        );
        Packet::data(NodeId(1), NodeId(2), DataPacket::udp(flow, flow_seq, 40))
    }

    fn tcp(flow_seq: u32) -> Packet {
        let flow = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            4000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        let dp = DataPacket::tcp(flow, TcpFlags::data(), flow_seq, 120);
        Packet::data(NodeId(1), NodeId(2), dp)
    }

    fn check(pkt: &Packet, scratch: &mut Writer) {
        wire_fidelity_check(pkt, pkt.wire_len(), scratch);
    }

    #[test]
    fn accepts_udp_with_a_simulator_side_flow_seq() {
        check(&udp(0), &mut Writer::new());
        check(&udp(77), &mut Writer::new());
    }

    #[test]
    fn tcp_flow_seq_must_round_trip() {
        check(&tcp(0xdead_beef), &mut Writer::new());
        // The exemption is UDP's alone: a TCP frame whose sequence number
        // came back different stays different, and the check would panic.
        let sent = tcp(7);
        let mut reparsed = tcp(8);
        restore_off_wire_fields(&sent, &mut reparsed);
        assert_ne!(reparsed, sent);
        // For UDP the same disagreement is repaired.
        let sent = udp(7);
        let mut reparsed = udp(0);
        restore_off_wire_fields(&sent, &mut reparsed);
        assert_eq!(reparsed, sent);
    }

    #[test]
    #[should_panic(expected = "codec round-trip drift")]
    fn udp_exemption_covers_flow_seq_only() {
        let mut pkt = udp(3);
        let PacketBody::Data(d) = &mut pkt.body else {
            unreachable!()
        };
        d.tcp_flags = TcpFlags::syn(); // not on a UDP wire either, not exempt
        check(&pkt, &mut Writer::new());
    }

    #[test]
    #[should_panic(expected = "wire_len drift")]
    fn a_wrong_length_panics_with_the_frame() {
        let pkt = udp(0);
        wire_fidelity_check(&pkt, pkt.wire_len() + 1, &mut Writer::new());
    }

    #[test]
    fn one_scratch_serves_frames_of_any_length_in_any_order() {
        let clear = Packet::swish(
            NodeId(0),
            NodeId(1),
            SwishMsg::Clear(PendingClear {
                epoch: 1,
                reg: 0,
                key: 9,
                seq: 4,
            }),
        );
        let entry = |key| SyncEntry {
            key,
            slot: 0,
            version: 1,
            value: u64::from(key),
        };
        let sync = Packet::swish(
            NodeId(0),
            NodeId(1),
            SwishMsg::Sync(SyncUpdate {
                reg: 0,
                origin: NodeId(0),
                trace: TraceId::NONE,
                entries: (0..16).map(entry).collect(),
            }),
        );
        let mut scratch = Writer::new();
        for pkt in [&clear, &sync, &clear, &tcp(1), &udp(2), &sync] {
            check(pkt, &mut scratch);
        }
    }
}
