//! Control-plane journal telemetry: fixed-width structured records that
//! protocol layers emit to narrate state-machine transitions (consensus
//! decrees, leadership changes, migrations), kept by a [`JournalHandle`].
//!
//! A record reaches observers as [`NetEvent::Journal`], beside the span
//! markers, and obeys the same passivity contract: emitters never read
//! the journal back, no RNG is drawn and no event scheduled, and every
//! record is stamped with `SimTime` only — so subscribing cannot perturb
//! the engine's `(time, key)` event order or its RNG stream. The
//! determinism fingerprint tests (`tests/determinism.rs`) prove this
//! bit-for-bit.
//!
//! The record format is deliberately *untyped* at this layer: `kind`
//! discriminates the event class and `cause`/`a`/`b`/`c` are opaque
//! payload words, so simnet needs no knowledge of the control-plane
//! protocols above it. The `swishmem` core crate defines the typed event
//! vocabulary (`telemetry::journal::CtrlEvent`) and its encode/decode,
//! plus the causal-link reconstruction that turns the flat record stream
//! into a parent-linked narrative. The `cause` word carries a
//! correlation key (not a record index): emitters never read the journal
//! back, which is what keeps emission passive; readers join records on
//! equal correlation keys after the run.

use crate::observe::{Family, NetEvent};
use crate::tap::{Record, TapHandle};
use crate::time::SimTime;
use swishmem_wire::NodeId;

/// One journal record: a SimTime-stamped, fixed-width structured event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JournalRecord {
    /// When the transition happened, in simulated time.
    pub time: SimTime,
    /// The node (e.g. controller replica) the transition happened on.
    pub node: NodeId,
    /// Event-class discriminant (typed by the layer above).
    pub kind: u16,
    /// Causal correlation key: records describing the same logical
    /// operation (one decree slot, one migration epoch) carry the same
    /// key, letting readers reconstruct parent links post-hoc.
    pub cause: u64,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
}

impl Record for JournalRecord {
    const FAMILY: Family = Family::Journal;
    fn of(_now: SimTime, ev: &NetEvent<'_>) -> Option<Self> {
        match ev {
            NetEvent::Journal(r) => Some(*r),
            _ => None,
        }
    }
}

/// Shared handle to a journal [`crate::Tap`] (what
/// `Deployment::attach_journal` returns).
pub type JournalHandle = TapHandle<JournalRecord>;
