//! The one way to observe a run.
//!
//! Everything the engine lets the outside see is a [`NetEvent`]: a
//! delivery, an injection, a fault-plane transition, or a span marker or
//! journal record a node emitted. Each event belongs to one [`Family`],
//! and an observer receives the events of the families it wants —
//! synchronously under `Simulator`, replayed in `(time, key, shard)`
//! order after each run call under `ShardedEngine`. Observers cannot
//! influence the run (no RNG access, no event injection), so attaching
//! or detaching one never perturbs the determinism fingerprint, and
//! nodes build span and journal payloads only while a subscriber exists.
//! The online consistency oracles in `swishmem-core` are the primary
//! consumer; the bounded [`crate::tap::Tap`]s (packet trace, ingress
//! capture, spans, journal) are the others.

use crate::journal::JournalRecord;
use crate::span::SpanEvent;
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
    /// A packet was injected from outside the fabric, to be delivered at
    /// the event's time (the scheduled time, not the call's).
    Injected {
        /// The packet, borrowed for the callback only.
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
    /// A node emitted a span phase marker ([`crate::Ctx::span`]).
    Span(SpanEvent),
    /// A node emitted a journal record ([`crate::Ctx::journal`]).
    Journal(JournalRecord),
}

impl NetEvent<'_> {
    /// The family this event belongs to.
    #[inline]
    pub fn family(&self) -> Family {
        match self {
            NetEvent::Delivered { .. } => Family::Delivered,
            NetEvent::Injected { .. } => Family::Injected,
            NetEvent::Span(_) => Family::Span,
            NetEvent::Journal(_) => Family::Journal,
            _ => Family::Fault,
        }
    }
}

/// A family of [`NetEvent`]s: the unit an observer subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// [`NetEvent::Delivered`].
    Delivered,
    /// The fault-plane transitions: node failure and recovery, link
    /// state, degradation and restoration.
    Fault,
    /// [`NetEvent::Injected`].
    Injected,
    /// [`NetEvent::Span`].
    Span,
    /// [`NetEvent::Journal`].
    Journal,
}

impl Family {
    /// Every family.
    pub(crate) const ALL: [Family; 5] = [
        Family::Delivered,
        Family::Fault,
        Family::Injected,
        Family::Span,
        Family::Journal,
    ];
}

/// Passive observer of engine transitions.
pub trait NetObserver {
    /// Called synchronously for each event of a subscribed family, at
    /// `now` — for a span or journal record, the time of the event whose
    /// callback emitted it.
    fn on_net_event(&mut self, now: SimTime, ev: &NetEvent<'_>);

    /// Whether this observer receives events of `family`; asked once per
    /// family when it is attached. By default: deliveries and fault-plane
    /// transitions.
    fn wants(&self, family: Family) -> bool {
        matches!(family, Family::Delivered | Family::Fault)
    }
}

/// Shared handle to an observer, registered with `add_observer`.
pub type ObserverHandle = Rc<RefCell<dyn NetObserver>>;
