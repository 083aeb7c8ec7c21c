//! Engine observer hooks.
//!
//! Observers are notified as the event loop applies events —
//! synchronously under `Simulator`, replayed in `(time, key, shard)`
//! order after each run call under `ShardedEngine`. They see deliveries
//! and fault-plane transitions but cannot influence the run (no RNG
//! access, no event injection), so attaching or detaching an observer
//! never perturbs the determinism fingerprint. The online consistency
//! oracles in `swishmem-core` are the primary consumer; the packet
//! [`crate::Trace`] is another.

use crate::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use swishmem_wire::{NodeId, Packet};

/// One observable engine transition.
#[derive(Debug, Clone, Copy)]
pub enum NetEvent<'a> {
    /// A packet was delivered intact to `to` (about to be dispatched).
    Delivered {
        /// Receiving node.
        to: NodeId,
        /// The packet, borrowed from the engine for the callback only.
        pkt: &'a Packet,
    },
    /// A node failed (fail-stop: state wiped, traffic dropped).
    NodeFailed {
        /// The victim.
        node: NodeId,
    },
    /// A failed node restarted with fresh state.
    NodeRecovered {
        /// The node.
        node: NodeId,
    },
    /// The duplex link `a <-> b` changed administrative state.
    LinkChanged {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// True when the link went down, false when it came back.
        down: bool,
    },
    /// The duplex link `a <-> b` was degraded by the fault plane.
    LinkDegraded {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The duplex link `a <-> b` was restored to pristine parameters.
    LinkRestored {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
}

/// Passive observer of engine transitions.
pub trait NetObserver {
    /// Called synchronously for each observable transition at `now`.
    fn on_net_event(&mut self, now: SimTime, ev: &NetEvent<'_>);
}

/// Shared handle to an observer, registered with `Simulator::add_observer`.
pub type ObserverHandle = Rc<RefCell<dyn NetObserver>>;
