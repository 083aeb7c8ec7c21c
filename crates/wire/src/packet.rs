//! The composed simulation packet.
//!
//! A [`Packet`] is what travels over simulated links: an Ethernet frame
//! whose payload is either a [`DataPacket`] (NF traffic: IPv4 + L4 headers
//! plus opaque payload) or a [`SwishMsg`] (replication protocol traffic
//! under the experimental `Swish` EtherType).
//!
//! The simulator passes packets in structured form but charges link
//! bandwidth by [`Packet::wire_len`], which equals the length of
//! [`Packet::to_bytes`] exactly (asserted by tests), so the modeled
//! byte-costs are those of the real encodings.

use crate::cursor::{Reader, Writer};
use crate::ethernet::{EtherType, EthernetHeader, MacAddr, ETHERNET_HEADER_LEN};
use crate::flow::FlowKey;
use crate::ipv4::{IpProto, Ipv4Header, IPV4_HEADER_LEN};
use crate::l4::{TcpFlags, TcpLiteHeader, UdpHeader, UDP_HEADER_LEN};
use crate::swish::SwishMsg;
use crate::{NodeId, WireError};

/// An NF data packet: the parsed headers a PISA parser would extract, plus
/// the payload length (payload bytes are zero-filled on encode; no NF here
/// inspects payload content, only its size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataPacket {
    /// The five-tuple.
    pub flow: FlowKey,
    /// TCP flags (all-zero for UDP).
    pub tcp_flags: TcpFlags,
    /// Per-flow packet index, for diagnostics and per-connection
    /// consistency checking in the experiments.
    pub flow_seq: u32,
    /// Application payload length in bytes.
    pub payload_len: u16,
}

impl DataPacket {
    /// Construct a TCP data packet.
    pub fn tcp(flow: FlowKey, flags: TcpFlags, flow_seq: u32, payload_len: u16) -> DataPacket {
        debug_assert_eq!(flow.proto, IpProto::Tcp.raw());
        DataPacket {
            flow,
            tcp_flags: flags,
            flow_seq,
            payload_len,
        }
    }

    /// Construct a UDP data packet.
    pub fn udp(flow: FlowKey, flow_seq: u32, payload_len: u16) -> DataPacket {
        debug_assert_eq!(flow.proto, IpProto::Udp.raw());
        DataPacket {
            flow,
            tcp_flags: TcpFlags::default(),
            flow_seq,
            payload_len,
        }
    }

    fn l4_len(&self) -> usize {
        if self.flow.proto == IpProto::Tcp.raw() {
            TcpLiteHeader::WIRE_LEN
        } else {
            UDP_HEADER_LEN
        }
    }

    /// Encoded length (IPv4 + L4 + payload).
    #[inline]
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.l4_len() + self.payload_len as usize
    }

    /// Append IPv4 + L4 headers + zero payload to `w`.
    pub fn encode(&self, w: &mut Writer) {
        let ip = Ipv4Header {
            total_len: self.wire_len() as u16,
            ident: (self.flow_seq & 0xffff) as u16,
            ttl: 64,
            proto: IpProto::from_raw(self.flow.proto),
            src: self.flow.src,
            dst: self.flow.dst,
        };
        ip.encode(w);
        if self.flow.proto == IpProto::Tcp.raw() {
            TcpLiteHeader {
                src_port: self.flow.src_port,
                dst_port: self.flow.dst_port,
                seq: self.flow_seq,
                ack: 0,
                flags: self.tcp_flags,
            }
            .encode(w);
        } else {
            UdpHeader {
                src_port: self.flow.src_port,
                dst_port: self.flow.dst_port,
                length: (UDP_HEADER_LEN + self.payload_len as usize) as u16,
            }
            .encode(w);
        }
        // Zero-filled payload.
        w.zeros(self.payload_len as usize);
    }

    /// Decode IPv4 + L4 headers + payload from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let ip = Ipv4Header::decode(r)?;
        let (src_port, dst_port, flags, flow_seq, l4_len) = match ip.proto {
            IpProto::Tcp => {
                let t = TcpLiteHeader::decode(r)?;
                (
                    t.src_port,
                    t.dst_port,
                    t.flags,
                    t.seq,
                    TcpLiteHeader::WIRE_LEN,
                )
            }
            IpProto::Udp => {
                let u = UdpHeader::decode(r)?;
                (
                    u.src_port,
                    u.dst_port,
                    TcpFlags::default(),
                    0,
                    UDP_HEADER_LEN,
                )
            }
            IpProto::Other(v) => {
                return Err(WireError::InvalidField {
                    field: "proto",
                    value: u64::from(v),
                })
            }
        };
        let payload_len = (ip.total_len as usize)
            .checked_sub(IPV4_HEADER_LEN + l4_len)
            .ok_or(WireError::InvalidField {
                field: "total_len",
                value: u64::from(ip.total_len),
            })?;
        let _payload = r.bytes(payload_len)?;
        Ok(DataPacket {
            flow: FlowKey {
                src: ip.src,
                dst: ip.dst,
                src_port,
                dst_port,
                proto: ip.proto.raw(),
            },
            tcp_flags: flags,
            flow_seq,
            payload_len: payload_len as u16,
        })
    }
}

/// The payload of a simulated Ethernet frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketBody {
    /// NF data traffic.
    Data(DataPacket),
    /// SwiShmem replication protocol traffic.
    Swish(SwishMsg),
}

/// Traffic classes, for attribution of bandwidth. A protocol message's
/// class is declared on its row of the [`SwishMsg`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficClass {
    /// NF data packets.
    Data,
    /// SRO/ERO chain write requests.
    SroWrite,
    /// SRO/ERO acks and pending-clears.
    SroControl,
    /// EWO sync updates (eager mirrors and periodic sync alike).
    EwoSync,
    /// Snapshot/recovery transfer.
    Snapshot,
    /// Reads forwarded to the tail.
    ReadForward,
    /// Range-migration state transfer (reconfiguration engine).
    Migration,
    /// Heartbeats, configuration, directory.
    Management,
}

impl TrafficClass {
    /// Classify a packet.
    #[inline]
    pub fn of(pkt: &Packet) -> TrafficClass {
        match &pkt.body {
            PacketBody::Data(_) => TrafficClass::Data,
            PacketBody::Swish(m) => m.class(),
        }
    }

    /// All classes, for iteration in reports.
    pub const ALL: [TrafficClass; 8] = [
        TrafficClass::Data,
        TrafficClass::SroWrite,
        TrafficClass::SroControl,
        TrafficClass::EwoSync,
        TrafficClass::Snapshot,
        TrafficClass::ReadForward,
        TrafficClass::Migration,
        TrafficClass::Management,
    ];
}

/// A frame traveling over a simulated link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Node that transmitted the frame (stamped by the simulator on send).
    pub src: NodeId,
    /// Node the frame is addressed to.
    pub dst: NodeId,
    /// The payload.
    pub body: PacketBody,
}

// Size budget: the simulator moves packets by value through every event,
// effect and slab slot. A message author who grows a `SwishMsg` variant
// gets a compile error here, not a silent event-core regression (see the
// boxing rule next to `SwishMsg`).
const _: () = assert!(
    std::mem::size_of::<Packet>() <= 72,
    "Packet outgrew its 72-byte budget: box the new CP-only message variant"
);

impl Packet {
    /// Wrap a data packet.
    pub fn data(src: NodeId, dst: NodeId, dp: DataPacket) -> Packet {
        Packet {
            src,
            dst,
            body: PacketBody::Data(dp),
        }
    }

    /// Wrap a protocol message.
    pub fn swish(src: NodeId, dst: NodeId, msg: SwishMsg) -> Packet {
        Packet {
            src,
            dst,
            body: PacketBody::Swish(msg),
        }
    }

    /// Full frame length in bytes: Ethernet header + body.
    #[inline]
    pub fn wire_len(&self) -> usize {
        ETHERNET_HEADER_LEN
            + match &self.body {
                PacketBody::Data(d) => d.wire_len(),
                PacketBody::Swish(m) => m.wire_len(),
            }
    }

    /// Append the full frame to `w`. Does not reserve: a caller that
    /// knows [`Packet::wire_len`] reserves it once, up front.
    pub fn encode(&self, w: &mut Writer) {
        let ethertype = match &self.body {
            PacketBody::Data(_) => EtherType::Ipv4,
            PacketBody::Swish(_) => EtherType::Swish,
        };
        EthernetHeader {
            dst: MacAddr::for_node(self.dst.0),
            src: MacAddr::for_node(self.src.0),
            ethertype,
        }
        .encode(w);
        match &self.body {
            PacketBody::Data(d) => d.encode(w),
            PacketBody::Swish(m) => m.encode(w),
        }
    }

    /// Serialize to the full frame bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.wire_len());
        self.encode(&mut w);
        w.finish()
    }

    /// Parse a full frame.
    pub fn from_bytes(buf: &[u8]) -> Result<Packet, WireError> {
        let mut r = Reader::new(buf);
        let eth = EthernetHeader::decode(&mut r)?;
        let node_of = |mac: MacAddr| -> Result<NodeId, WireError> {
            if mac.0[0] != 0x02 || mac.0[1] != 0 || mac.0[2] != 0 || mac.0[3] != 0 {
                return Err(WireError::InvalidField {
                    field: "mac",
                    value: u64::from(u16::from_be_bytes([mac.0[4], mac.0[5]])),
                });
            }
            Ok(NodeId(u16::from_be_bytes([mac.0[4], mac.0[5]])))
        };
        let dst = node_of(eth.dst)?;
        let src = node_of(eth.src)?;
        let body = match eth.ethertype {
            EtherType::Ipv4 => PacketBody::Data(DataPacket::decode(&mut r)?),
            EtherType::Swish => PacketBody::Swish(SwishMsg::decode(&mut r)?),
            EtherType::Other(v) => {
                return Err(WireError::InvalidField {
                    field: "ethertype",
                    value: u64::from(v),
                })
            }
        };
        r.expect_end()?;
        Ok(Packet { src, dst, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swish::{Heartbeat, SyncEntry, SyncUpdate};
    use std::net::Ipv4Addr;

    fn tcp_pkt() -> Packet {
        Packet::data(
            NodeId(1),
            NodeId(2),
            DataPacket::tcp(
                FlowKey::tcp(
                    Ipv4Addr::new(10, 0, 0, 1),
                    4000,
                    Ipv4Addr::new(10, 0, 0, 2),
                    80,
                ),
                TcpFlags::syn(),
                7,
                120,
            ),
        )
    }

    fn udp_pkt() -> Packet {
        Packet::data(
            NodeId(3),
            NodeId(4),
            DataPacket::udp(
                FlowKey::udp(
                    Ipv4Addr::new(10, 0, 1, 1),
                    5000,
                    Ipv4Addr::new(10, 0, 1, 2),
                    53,
                ),
                0,
                40,
            ),
        )
    }

    fn swish_pkt() -> Packet {
        Packet::swish(
            NodeId(0),
            NodeId(1),
            SwishMsg::Sync(SyncUpdate {
                reg: 2,
                origin: NodeId(0),
                trace: crate::TraceId::NONE,
                entries: vec![SyncEntry {
                    key: 1,
                    slot: 0,
                    version: 3,
                    value: 4,
                }]
                .into(),
            }),
        )
    }

    #[test]
    fn round_trip_data_tcp() {
        let p = tcp_pkt();
        assert_eq!(Packet::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn round_trip_data_udp() {
        let p = udp_pkt();
        assert_eq!(Packet::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn round_trip_swish() {
        let p = swish_pkt();
        assert_eq!(Packet::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn wire_len_matches_encoding() {
        for p in [tcp_pkt(), udp_pkt(), swish_pkt()] {
            assert_eq!(
                p.to_bytes().len(),
                p.wire_len(),
                "wire_len mismatch for {p:?}"
            );
        }
        let hb = Packet::swish(
            NodeId(9),
            NodeId::CONTROLLER,
            SwishMsg::Heartbeat(Heartbeat {
                from: NodeId(9),
                epoch: 3,
            }),
        );
        assert_eq!(hb.to_bytes().len(), hb.wire_len());
    }

    #[test]
    fn controller_mac_round_trips() {
        let p = Packet::swish(
            NodeId::CONTROLLER,
            NodeId(0),
            SwishMsg::Heartbeat(Heartbeat {
                from: NodeId::CONTROLLER,
                epoch: 0,
            }),
        );
        assert_eq!(Packet::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = tcp_pkt().to_bytes();
        bytes.push(0xff);
        assert!(Packet::from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_foreign_mac() {
        let mut bytes = tcp_pkt().to_bytes();
        bytes[0] = 0xaa; // not our locally-administered prefix
        assert!(Packet::from_bytes(&bytes).is_err());
    }
}
