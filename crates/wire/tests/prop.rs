//! Property tests for the wire codecs: every generated value must survive
//! an encode/decode round trip, and decoders must never panic on arbitrary
//! bytes.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use swishmem_wire::checksum::internet_checksum;
use swishmem_wire::cursor::{Reader, Writer};
use swishmem_wire::ipv4::{Ipv4Header, IPV4_HEADER_LEN};
use swishmem_wire::l4::TcpFlags;
use swishmem_wire::swish::*;
use swishmem_wire::{DataPacket, FlowKey, NodeId, Packet, SwishMsg};

fn arb_node() -> impl Strategy<Value = NodeId> {
    prop_oneof![9 => (0u16..1000).prop_map(NodeId), 1 => Just(NodeId::CONTROLLER)]
}

fn arb_flow() -> impl Strategy<Value = FlowKey> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        prop_oneof![Just(6u8), Just(17u8)],
    )
        .prop_map(|(s, d, sp, dp, proto)| FlowKey {
            src: Ipv4Addr::from(s),
            dst: Ipv4Addr::from(d),
            src_port: sp,
            dst_port: dp,
            proto,
        })
}

fn arb_data_packet() -> impl Strategy<Value = DataPacket> {
    (arb_flow(), any::<u8>(), any::<u32>(), 0u16..1400).prop_map(|(flow, fl, seq, len)| {
        DataPacket {
            flow,
            tcp_flags: if flow.proto == 6 {
                TcpFlags::from_raw(fl & 0x17)
            } else {
                TcpFlags::default()
            },
            flow_seq: if flow.proto == 6 { seq } else { 0 },
            payload_len: len,
        }
    })
}

fn arb_sync_entry() -> impl Strategy<Value = SyncEntry> {
    (any::<u32>(), any::<u8>(), any::<u64>(), any::<u64>()).prop_map(
        |(key, slot, version, value)| SyncEntry {
            key,
            slot,
            version,
            value,
        },
    )
}

fn arb_msg() -> impl Strategy<Value = SwishMsg> {
    prop_oneof![
        (
            any::<u64>(),
            arb_node(),
            any::<u32>(),
            any::<u16>(),
            any::<u32>(),
            any::<u64>(),
            prop_oneof![
                any::<u64>().prop_map(WriteOp::Set),
                any::<i64>().prop_map(WriteOp::Add)
            ]
        )
            .prop_map(
                |(write_id, writer, epoch, reg, key, seq, op)| SwishMsg::Write(WriteRequest {
                    write_id,
                    writer,
                    epoch,
                    reg,
                    key,
                    seq,
                    op,
                    trace: TraceId(write_id ^ seq)
                })
            ),
        (
            any::<u64>(),
            arb_node(),
            any::<u16>(),
            any::<u32>(),
            any::<u64>()
        )
            .prop_map(|(write_id, writer, reg, key, seq)| SwishMsg::Ack(WriteAck {
                write_id,
                writer,
                reg,
                key,
                seq,
                trace: TraceId(write_id.rotate_left(17))
            })),
        (any::<u32>(), any::<u16>(), any::<u32>(), any::<u64>()).prop_map(
            |(epoch, reg, key, seq)| SwishMsg::Clear(PendingClear {
                epoch,
                reg,
                key,
                seq
            })
        ),
        (
            any::<u16>(),
            arb_node(),
            prop::collection::vec(arb_sync_entry(), 0..20)
        )
            .prop_map(|(reg, origin, entries)| SwishMsg::Sync(SyncUpdate {
                reg,
                origin,
                trace: TraceId::new(origin, u64::from(reg)),
                entries: entries.into()
            })),
        (
            any::<u16>(),
            arb_node(),
            any::<bool>(),
            prop::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 0..20)
        )
            .prop_map(
                |(reg, origin, last, es)| SwishMsg::SnapChunk(SnapshotChunk {
                    reg,
                    origin,
                    last,
                    entries: es
                        .into_iter()
                        .map(|(key, seq, value)| SnapEntry { key, seq, value })
                        .collect(),
                })
            ),
        (
            any::<u32>(),
            prop::collection::vec(arb_node(), 0..8),
            prop::collection::vec(arb_node(), 0..4)
        )
            .prop_map(|(epoch, chain, learners)| SwishMsg::Chain(ChainConfig {
                epoch,
                chain,
                learners
            })),
        (any::<u32>(), prop::collection::vec(arb_node(), 0..8))
            .prop_map(|(epoch, members)| SwishMsg::Group(GroupConfig { epoch, members })),
        (arb_node(), any::<u32>())
            .prop_map(|(from, epoch)| SwishMsg::Heartbeat(Heartbeat { from, epoch })),
        (arb_node(), any::<u16>(), any::<u32>())
            .prop_map(|(from, reg, key)| SwishMsg::DirLookup(DirLookup { from, reg, key })),
        (
            any::<u16>(),
            any::<u32>(),
            prop::collection::vec(arb_node(), 0..8)
        )
            .prop_map(|(reg, key, owners)| SwishMsg::DirReply(DirReply {
                reg,
                key,
                owners
            })),
        (arb_node(), arb_data_packet()).prop_map(|(origin, inner)| SwishMsg::ReadForward(
            ReadForward {
                origin,
                trace: TraceId::new(origin, 1),
                inner
            }
        )),
    ]
}

proptest! {
    #[test]
    fn swish_msg_round_trip(msg in arb_msg()) {
        let mut w = Writer::new();
        msg.encode(&mut w);
        let buf = w.finish();
        prop_assert_eq!(buf.len(), msg.wire_len());
        let mut r = Reader::new(&buf);
        let back = SwishMsg::decode(&mut r).unwrap();
        r.expect_end().unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn data_packet_round_trip(dp in arb_data_packet()) {
        let mut w = Writer::new();
        dp.encode(&mut w);
        let buf = w.finish();
        prop_assert_eq!(buf.len(), dp.wire_len());
        let mut r = Reader::new(&buf);
        let back = DataPacket::decode(&mut r).unwrap();
        r.expect_end().unwrap();
        prop_assert_eq!(back, dp);
    }

    #[test]
    fn full_packet_round_trip(src in arb_node(), dst in arb_node(), dp in arb_data_packet()) {
        let p = Packet::data(src, dst, dp);
        let bytes = p.to_bytes();
        prop_assert_eq!(bytes.len(), p.wire_len());
        prop_assert_eq!(Packet::from_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn decoder_never_panics_on_noise(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Packet::from_bytes(&bytes);
        let mut r = Reader::new(&bytes);
        let _ = SwishMsg::decode(&mut r);
    }

    #[test]
    fn truncation_always_fails_cleanly(msg in arb_msg(), frac in 0.0f64..1.0) {
        let mut w = Writer::new();
        msg.encode(&mut w);
        let buf = w.finish();
        let cut = ((buf.len() as f64) * frac) as usize;
        if cut < buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            // Decoding a strict prefix must error (never succeed with
            // spurious data) except when the prefix is itself empty of the
            // variable part... it must simply not panic and not round-trip.
            if let Ok(back) = SwishMsg::decode(&mut r) {
                prop_assert!(r.expect_end().is_err() || back != msg);
            }
        }
    }

    /// Any 20 bytes whose checksum field was fixed up to verify. `force`
    /// picks which of the codec's canonical choices are imposed on the
    /// random bytes (version/IHL, zero DSCP, zero flags + fragment, a
    /// total length that covers the header): all four make a header the
    /// codec would emit, any subset probes what else it might accept.
    #[test]
    fn ipv4_decode_accepts_only_what_encode_emits(
        raw in prop::collection::vec(any::<u8>(), IPV4_HEADER_LEN),
        force in 0u8..16,
    ) {
        let mut b = raw;
        if force & 1 != 0 {
            b[0] = 0x45;
        }
        if force & 2 != 0 {
            b[1] = 0;
        }
        if force & 4 != 0 {
            b[6] = 0;
            b[7] = 0;
        }
        if force & 8 != 0 && usize::from(u16::from_be_bytes([b[2], b[3]])) < IPV4_HEADER_LEN {
            b[3] |= 0x20;
        }
        b[10] = 0;
        b[11] = 0;
        let ck = internet_checksum(&b).to_be_bytes();
        b[10..12].copy_from_slice(&ck);

        let decode = |b: &[u8]| Ipv4Header::decode(&mut Reader::new(b));
        match decode(&b) {
            Ok(h) => {
                let mut w = Writer::new();
                h.encode(&mut w);
                prop_assert_eq!(w.as_slice(), &b[..], "decoded to {:?}", h);
                for bit in 0..8 * IPV4_HEADER_LEN {
                    let mut flipped = b.clone();
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    prop_assert!(decode(&flipped).is_err(), "bit {} of {:02x?}", bit, b);
                }
            }
            Err(e) => prop_assert!(force != 15, "canonical {:02x?} rejected: {}", b, e),
        }
    }

    #[test]
    fn flow_canonical_hash_direction_insensitive(flow in arb_flow()) {
        prop_assert_eq!(flow.canonical_hash64(), flow.reversed().canonical_hash64());
    }
}
