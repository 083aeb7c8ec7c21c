//! # swishmem-wire
//!
//! Packet formats and protocol message codecs for the SwiShmem
//! reproduction.
//!
//! This crate is the lowest layer of the workspace: it defines
//!
//! * minimal but real header codecs (Ethernet, IPv4, L4) sufficient for the
//!   five-tuple state the network functions key on,
//! * the [`FlowKey`] five-tuple and its canonical hashing,
//! * the SwiShmem replication protocol messages ([`swish::SwishMsg`]):
//!   chain-replication write requests/acks, pending-bit clears, EWO sync
//!   updates, snapshot transfer, chain/group configuration and heartbeats,
//! * the composed simulation [`Packet`] carrying either a data-plane packet
//!   or a protocol message, with a faithful wire length.
//!
//! Every codec is a real byte-level encoder/decoder (round-trip tested,
//! including property tests); the simulator passes the structured form
//! between nodes for speed but sizes links by the true encoded length.

pub mod checksum;
pub mod cursor;
pub mod error;
pub mod ethernet;
pub mod flow;
pub mod ipv4;
pub mod l4;
pub mod packet;
mod schema;
pub mod shared;
pub mod swish;

pub use error::WireError;
pub use flow::FlowKey;
pub use packet::{DataPacket, Packet, PacketBody, TrafficClass};
pub use shared::Shared;
pub use swish::{SwishMsg, TraceId};

/// Identifier of a node (switch, host, or controller) in the simulated
/// network. Node ids appear on the wire inside SwiShmem protocol messages
/// (writer ids, chain membership, counter slots), which is why they are
/// defined at the wire layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The controller's conventional node id in deployments built by the
    /// `swishmem` crate.
    pub const CONTROLLER: NodeId = NodeId(u16::MAX);

    /// Raw index, usable as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == NodeId::CONTROLLER {
            write!(f, "ctrl")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId::CONTROLLER.to_string(), "ctrl");
    }

    #[test]
    fn node_id_index() {
        assert_eq!(NodeId(7).index(), 7);
    }
}
