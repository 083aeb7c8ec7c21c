//! Ethernet II header codec.

use crate::cursor::{Reader, Writer};
use crate::WireError;

/// Length of an Ethernet II header in bytes.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address ff:ff:ff:ff:ff:ff.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Deterministic locally-administered MAC for a simulated node index,
    /// `02:00:00:00:hh:ll`.
    #[inline]
    pub fn for_node(index: u16) -> MacAddr {
        let [hi, lo] = index.to_be_bytes();
        MacAddr([0x02, 0, 0, 0, hi, lo])
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType values used by this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtherType {
    /// IPv4 (0x0800): all NF data traffic.
    Ipv4,
    /// SwiShmem replication protocol (experimental EtherType 0x88b5,
    /// the IEEE 802 local-experimental value).
    Swish,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// Raw 16-bit value.
    #[inline]
    pub fn raw(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Swish => 0x88b5,
            EtherType::Other(v) => v,
        }
    }

    /// Classify a raw value.
    #[inline]
    pub fn from_raw(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x88b5 => EtherType::Swish,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload EtherType.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Append this header to `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.bytes(&self.dst.0);
        w.bytes(&self.src.0);
        w.u16(self.ethertype.raw());
    }

    /// Decode a header from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(EthernetHeader {
            dst: MacAddr(r.array()?),
            src: MacAddr(r.array()?),
            ethertype: EtherType::from_raw(r.u16()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = EthernetHeader {
            dst: MacAddr::BROADCAST,
            src: MacAddr::for_node(3),
            ethertype: EtherType::Swish,
        };
        let mut w = Writer::new();
        h.encode(&mut w);
        let buf = w.finish();
        assert_eq!(buf.len(), ETHERNET_HEADER_LEN);
        let mut r = Reader::new(&buf);
        assert_eq!(EthernetHeader::decode(&mut r).unwrap(), h);
    }

    #[test]
    fn ethertype_classification() {
        assert_eq!(EtherType::from_raw(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from_raw(0x88b5), EtherType::Swish);
        assert_eq!(EtherType::from_raw(0x86dd), EtherType::Other(0x86dd));
        assert_eq!(EtherType::Other(0x86dd).raw(), 0x86dd);
    }

    #[test]
    fn node_macs_are_unique_and_local() {
        let a = MacAddr::for_node(1);
        let b = MacAddr::for_node(258);
        assert_ne!(a, b);
        // Locally-administered bit set, multicast bit clear.
        assert_eq!(a.0[0] & 0x03, 0x02);
        assert_eq!(a.to_string(), "02:00:00:00:00:01");
    }

    #[test]
    fn decode_truncated() {
        let buf = [0u8; 10];
        let mut r = Reader::new(&buf);
        assert!(EthernetHeader::decode(&mut r).is_err());
    }
}
