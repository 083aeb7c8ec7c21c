//! Ingress capture: the `(scheduled time, packet)` record of every
//! externally injected packet, so a run's input stream can be exported
//! as a replayable trace.
//!
//! A capture is a [`crate::Tap`] subscribed to [`NetEvent::Injected`],
//! which the engine emits from `inject`; like every observer it never
//! touches the event queue or the engine RNG, so attaching it cannot
//! perturb a deterministic run.

use crate::observe::{Family, NetEvent};
use crate::tap::{Record, TapHandle};
use crate::time::SimTime;
use swishmem_wire::Packet;

impl Record for (SimTime, Packet) {
    const FAMILY: Family = Family::Injected;
    fn of(now: SimTime, ev: &NetEvent<'_>) -> Option<Self> {
        match ev {
            NetEvent::Injected { pkt } => Some((now, (*pkt).clone())),
            _ => None,
        }
    }
}

/// Shared handle to a capture [`crate::Tap`] (what
/// `Deployment::attach_capture` returns).
pub type CaptureHandle = TapHandle<(SimTime, Packet)>;
