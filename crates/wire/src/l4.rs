//! Layer-4 header codecs: UDP and a compact TCP header.
//!
//! The TCP codec keeps the fields stateful NFs actually inspect — ports,
//! sequence number and flags — and is 16 bytes (the 20-byte standard layout
//! minus fields no NF here reads: ack number is kept, window/checksum/urgent
//! are dropped). The length difference is accounted for in
//! [`TcpLiteHeader::WIRE_LEN`] so packet sizes stay self-consistent.

use crate::cursor::{Reader, Writer};
use crate::WireError;

/// Length of a UDP header in bytes.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP header. The checksum is never computed (0, as permitted for IPv4
/// UDP) and decode rejects any other value; the simulator's corruption
/// faults target payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// UDP length (header + payload).
    pub length: u16,
}

impl UdpHeader {
    /// Append this header to `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.u16(self.src_port);
        w.u16(self.dst_port);
        w.u16(self.length);
        w.u16(0); // checksum: 0 = not computed (legal for IPv4)
    }

    /// Decode a header from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let src_port = r.u16()?;
        let dst_port = r.u16()?;
        let length = r.u16()?;
        if (length as usize) < UDP_HEADER_LEN {
            return Err(WireError::InvalidField {
                field: "udp_length",
                value: u64::from(length),
            });
        }
        let checksum = r.u16()?;
        if checksum != 0 {
            return Err(WireError::InvalidField {
                field: "udp_checksum",
                value: u64::from(checksum),
            });
        }
        Ok(UdpHeader {
            src_port,
            dst_port,
            length,
        })
    }
}

/// TCP flag bits used by the stateful NFs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// SYN: connection open.
    pub syn: bool,
    /// ACK.
    pub ack: bool,
    /// FIN: connection close.
    pub fin: bool,
    /// RST: abort.
    pub rst: bool,
}

impl TcpFlags {
    /// Pack into the low bits of a byte (FIN=0x01, SYN=0x02, RST=0x04,
    /// ACK=0x10 — the standard TCP bit positions).
    pub fn raw(self) -> u8 {
        (self.fin as u8)
            | ((self.syn as u8) << 1)
            | ((self.rst as u8) << 2)
            | ((self.ack as u8) << 4)
    }

    /// Unpack from the standard bit positions.
    pub fn from_raw(v: u8) -> TcpFlags {
        TcpFlags {
            fin: v & 0x01 != 0,
            syn: v & 0x02 != 0,
            rst: v & 0x04 != 0,
            ack: v & 0x10 != 0,
        }
    }

    /// A plain SYN.
    pub fn syn() -> TcpFlags {
        TcpFlags {
            syn: true,
            ..Default::default()
        }
    }

    /// A FIN+ACK.
    pub fn fin() -> TcpFlags {
        TcpFlags {
            fin: true,
            ack: true,
            ..Default::default()
        }
    }

    /// A data/ACK segment.
    pub fn data() -> TcpFlags {
        TcpFlags {
            ack: true,
            ..Default::default()
        }
    }
}

/// Compact TCP header: ports, sequence/ack numbers, flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpLiteHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
}

impl TcpLiteHeader {
    /// Encoded length in bytes (ports 4 + seq 4 + ack 4 + flags 1 + pad 3).
    pub const WIRE_LEN: usize = 16;

    /// Append this header to `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.u16(self.src_port);
        w.u16(self.dst_port);
        w.u32(self.seq);
        w.u32(self.ack);
        w.u8(self.flags.raw());
        w.bytes(&[0, 0, 0]); // pad to 4-byte alignment
    }

    /// Decode a header from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let src_port = r.u16()?;
        let dst_port = r.u16()?;
        let seq = r.u32()?;
        let ack = r.u32()?;
        let raw = r.u8()?;
        let flags = TcpFlags::from_raw(raw);
        if flags.raw() != raw {
            return Err(WireError::InvalidField {
                field: "tcp_flags",
                value: u64::from(raw),
            });
        }
        let pad: [u8; 3] = r.array()?;
        if pad != [0; 3] {
            return Err(WireError::InvalidField {
                field: "tcp_pad",
                value: u64::from(u32::from_be_bytes([0, pad[0], pad[1], pad[2]])),
            });
        }
        Ok(TcpLiteHeader {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_round_trip() {
        let h = UdpHeader {
            src_port: 5353,
            dst_port: 53,
            length: 100,
        };
        let mut w = Writer::new();
        h.encode(&mut w);
        let buf = w.finish();
        assert_eq!(buf.len(), UDP_HEADER_LEN);
        let mut r = Reader::new(&buf);
        assert_eq!(UdpHeader::decode(&mut r).unwrap(), h);
    }

    #[test]
    fn udp_rejects_short_length() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
            length: 4,
        };
        let mut w = Writer::new();
        h.encode(&mut w);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(UdpHeader::decode(&mut r).is_err());
    }

    #[test]
    fn tcp_round_trip_all_flag_combos() {
        for raw in [0u8, 0x01, 0x02, 0x04, 0x10, 0x13, 0x17] {
            let h = TcpLiteHeader {
                src_port: 40000,
                dst_port: 443,
                seq: 0xaabbccdd,
                ack: 0x11223344,
                flags: TcpFlags::from_raw(raw),
            };
            let mut w = Writer::new();
            h.encode(&mut w);
            let buf = w.finish();
            assert_eq!(buf.len(), TcpLiteHeader::WIRE_LEN);
            let mut r = Reader::new(&buf);
            assert_eq!(TcpLiteHeader::decode(&mut r).unwrap(), h);
        }
    }

    #[test]
    fn flag_constructors() {
        assert!(TcpFlags::syn().syn);
        assert!(!TcpFlags::syn().ack);
        assert!(TcpFlags::fin().fin && TcpFlags::fin().ack);
        assert!(TcpFlags::data().ack && !TcpFlags::data().syn);
    }

    #[test]
    fn flags_raw_round_trip_standard_positions() {
        let f = TcpFlags {
            syn: true,
            ack: true,
            fin: false,
            rst: false,
        };
        assert_eq!(f.raw(), 0x12); // SYN|ACK
        assert_eq!(TcpFlags::from_raw(0x12), f);
    }
}
