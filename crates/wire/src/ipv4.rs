//! IPv4 header codec (fixed 20-byte header, no options).
//!
//! The network functions in this workspace only need addressing, protocol
//! demultiplexing, TTL and total length, so options are rejected rather
//! than modeled — exactly the treatment smoltcp gives them ("silently
//! ignored" there; here, explicit `InvalidField`).

use crate::checksum::internet_checksum;
use crate::cursor::{Reader, Writer};
use crate::WireError;
use std::net::Ipv4Addr;

/// Length of the option-less IPv4 header in bytes.
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol numbers used in this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl IpProto {
    /// Raw protocol number.
    #[inline]
    pub fn raw(self) -> u8 {
        match self {
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(v) => v,
        }
    }

    /// Classify a raw protocol number.
    #[inline]
    pub fn from_raw(v: u8) -> IpProto {
        match v {
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

/// An IPv4 header (IHL fixed at 5, i.e. no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Total length of the IP packet (header + payload) in bytes.
    pub total_len: u16,
    /// Identification field (used only for diagnostics here).
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub proto: IpProto,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// The 20 header bytes, checksum included. The one serialisation both
    /// [`Ipv4Header::encode`] and the checksum comparison in
    /// [`Ipv4Header::decode`] go through.
    fn to_array(self) -> [u8; IPV4_HEADER_LEN] {
        // Left zero: DSCP/ECN (byte 1) and flags + fragment offset (bytes
        // 6..8) — never fragmented in sim.
        let mut b = [0u8; IPV4_HEADER_LEN];
        b[0] = 0x45; // version 4, IHL 5
        b[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        b[4..6].copy_from_slice(&self.ident.to_be_bytes());
        b[8] = self.ttl;
        b[9] = self.proto.raw();
        b[12..16].copy_from_slice(&self.src.octets());
        b[16..20].copy_from_slice(&self.dst.octets());
        let ck = internet_checksum(&b);
        b[10..12].copy_from_slice(&ck.to_be_bytes());
        b
    }

    /// Append this header to `w`, computing the header checksum.
    #[inline]
    pub fn encode(&self, w: &mut Writer) {
        w.bytes(&self.to_array());
    }

    /// Decode a header from `r`, verifying version, IHL and checksum.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let b: [u8; IPV4_HEADER_LEN] = r.array()?;
        let ver_ihl = b[0];
        if ver_ihl >> 4 != 4 {
            return Err(WireError::InvalidField {
                field: "version",
                value: u64::from(ver_ihl >> 4),
            });
        }
        if ver_ihl & 0x0f != 5 {
            return Err(WireError::InvalidField {
                field: "ihl",
                value: u64::from(ver_ihl & 0x0f),
            });
        }
        if b[1] != 0 {
            return Err(WireError::InvalidField {
                field: "dscp",
                value: u64::from(b[1]),
            });
        }
        let total_len = u16::from_be_bytes([b[2], b[3]]);
        if (total_len as usize) < IPV4_HEADER_LEN {
            return Err(WireError::InvalidField {
                field: "total_len",
                value: u64::from(total_len),
            });
        }
        let flags_frag = u16::from_be_bytes([b[6], b[7]]);
        if flags_frag != 0 {
            return Err(WireError::InvalidField {
                field: "fragment",
                value: u64::from(flags_frag),
            });
        }
        let hdr = Ipv4Header {
            total_len,
            ident: u16::from_be_bytes([b[4], b[5]]),
            ttl: b[8],
            proto: IpProto::from_raw(b[9]),
            src: Ipv4Addr::new(b[12], b[13], b[14], b[15]),
            dst: Ipv4Addr::new(b[16], b[17], b[18], b[19]),
        };
        // Every byte that is not a field has been checked above, so the
        // received header is one this codec emits exactly when its checksum
        // is the checksum of the *re-encoded fields*. (Summing the received
        // bytes instead would also pass the 0xffff negative zero.)
        let got = u16::from_be_bytes([b[10], b[11]]);
        let again = hdr.to_array();
        let want = u16::from_be_bytes([again[10], again[11]]);
        if got != want {
            return Err(WireError::BadChecksum { got, want });
        }
        Ok(hdr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header {
            total_len: 60,
            ident: 0x1234,
            ttl: 64,
            proto: IpProto::Tcp,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(192, 168, 1, 2),
        }
    }

    #[test]
    fn round_trip() {
        let h = sample();
        let mut w = Writer::new();
        h.encode(&mut w);
        let buf = w.finish();
        assert_eq!(buf.len(), IPV4_HEADER_LEN);
        let mut r = Reader::new(&buf);
        assert_eq!(Ipv4Header::decode(&mut r).unwrap(), h);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut w = Writer::new();
        sample().encode(&mut w);
        let mut buf = w.finish().to_vec();
        buf[15] ^= 0x40; // flip a bit in src address
        let mut r = Reader::new(&buf);
        assert!(matches!(
            Ipv4Header::decode(&mut r),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut w = Writer::new();
        sample().encode(&mut w);
        let mut buf = w.finish().to_vec();
        buf[0] = 0x65; // version 6
        let mut r = Reader::new(&buf);
        assert!(matches!(
            Ipv4Header::decode(&mut r),
            Err(WireError::InvalidField {
                field: "version",
                ..
            })
        ));
    }

    #[test]
    fn rejects_options() {
        let mut w = Writer::new();
        sample().encode(&mut w);
        let mut buf = w.finish().to_vec();
        buf[0] = 0x46; // IHL 6
        let mut r = Reader::new(&buf);
        assert!(matches!(
            Ipv4Header::decode(&mut r),
            Err(WireError::InvalidField { field: "ihl", .. })
        ));
    }

    /// Bytes no field covers: a bit set there, with the checksum field
    /// left as the canonical header's, used to decode.
    #[test]
    fn rejects_dscp_and_flag_bits_the_codec_never_sets() {
        for (byte, bit, field) in [
            (1, 0x01, "dscp"),
            (6, 0x40, "fragment"),
            (6, 0x80, "fragment"),
        ] {
            let mut w = Writer::new();
            sample().encode(&mut w);
            let mut buf = w.finish();
            buf[byte] |= bit;
            let got = Ipv4Header::decode(&mut Reader::new(&buf));
            assert!(
                matches!(got, Err(WireError::InvalidField { field: f, .. }) if f == field),
                "byte {byte} bit {bit:#04x}: {got:?}"
            );
        }
    }

    #[test]
    fn rejects_short_total_len() {
        let mut h = sample();
        h.total_len = 10;
        let mut w = Writer::new();
        h.encode(&mut w);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(
            Ipv4Header::decode(&mut r),
            Err(WireError::InvalidField {
                field: "total_len",
                ..
            })
        ));
    }
}
