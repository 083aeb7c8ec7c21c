//! Causal span telemetry: phase markers that cross-switch protocol
//! layers emit against a [`TraceId`], kept by a [`SpanHandle`].
//!
//! A marker reaches observers as [`NetEvent::Span`] — one more family
//! of the single observation stream — so it obeys the same passivity
//! contract as every observer: it holds no RNG, schedules no events, and
//! every marker is stamped with `SimTime` only, so subscribing cannot
//! perturb the engine's `(time, key)` event order or its RNG stream
//! (`tests/determinism.rs` proves this bit-for-bit).
//!
//! A *span* here is a point marker, not an interval: one logical
//! operation (one `TraceId`) accumulates a time-ordered sequence of
//! markers (ingress, punt, CP dequeue, retries, chain hops, ack,
//! release), and interval durations fall out of consecutive-marker gaps.
//! Point markers telescope — the per-phase durations of a completed
//! operation always sum to exactly its end-to-end latency, which is what
//! lets the `explain` bin reconcile its breakdown against the
//! `write_latency` histogram with zero slack.

use crate::observe::{Family, NetEvent};
use crate::tap::{Record, Tap, TapHandle};
use crate::time::SimTime;
use swishmem_wire::{NodeId, TraceId};

/// A phase marker within a logical operation's lifetime.
///
/// The variants mirror the SwiShmem §6 protocol steps; payload-carrying
/// variants record *which* retry / chain position fired so the explain
/// tool can attribute time to individual attempts and hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanPhase {
    /// NF ingress: the data packet that originated the operation arrived
    /// and the NF staged a replicated write (or redirected read).
    Ingress,
    /// The packet (plus write job) left the data plane toward the local
    /// control plane. Stamped with the CPU-arrival time (PCIe/DMA cost).
    Punt,
    /// The job reached the front of the serial CP service queue.
    CpDequeue,
    /// The CP finished admitting the job and issued its first write sends.
    JobStart,
    /// Retry attempt `n` (1-based) fired for a still-unacked write.
    Retry(u16),
    /// The write request was applied at chain position `i` (0 = head).
    ChainHop(u8),
    /// The tail acked the write (and multicast the pending-bit clear).
    Ack,
    /// The writer's CP matched the ack and released the buffered packet.
    Release,
    /// The job was shed at admission (CP overload).
    Shed,
    /// The write exhausted its retry budget and was abandoned.
    Abandon,
    /// A read hit a pending register and was redirected to the tail.
    RedirectToTail,
    /// The tail served a redirected read.
    TailServe,
    /// An EWO periodic sync round started at its originating switch.
    SyncRound,
    /// A sync batch was merged at a receiving switch.
    SyncMerge,
}

impl SpanPhase {
    /// Stable lowercase name (payload not included; see [`Self::label`]).
    pub fn name(&self) -> &'static str {
        match self {
            SpanPhase::Ingress => "ingress",
            SpanPhase::Punt => "punt",
            SpanPhase::CpDequeue => "cp_dequeue",
            SpanPhase::JobStart => "job_start",
            SpanPhase::Retry(_) => "retry",
            SpanPhase::ChainHop(_) => "chain_hop",
            SpanPhase::Ack => "ack",
            SpanPhase::Release => "release",
            SpanPhase::Shed => "shed",
            SpanPhase::Abandon => "abandon",
            SpanPhase::RedirectToTail => "redirect_to_tail",
            SpanPhase::TailServe => "tail_serve",
            SpanPhase::SyncRound => "sync_round",
            SpanPhase::SyncMerge => "sync_merge",
        }
    }

    /// Display label including the payload (`retry[2]`, `chain_hop[0]`).
    pub fn label(&self) -> String {
        match self {
            SpanPhase::Retry(n) => format!("retry[{n}]"),
            SpanPhase::ChainHop(i) => format!("chain_hop[{i}]"),
            p => p.name().to_string(),
        }
    }
}

/// One recorded marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// When the phase happened, in simulated time. May lie slightly in
    /// the future of the emitting callback (the PISA CP queue model emits
    /// `punt`/`cp_dequeue` markers at their modeled times), so consumers
    /// must sort per trace rather than assume emission order.
    pub time: SimTime,
    /// The logical operation this marker belongs to.
    pub trace: TraceId,
    /// The node the phase happened on.
    pub node: NodeId,
    /// Which phase.
    pub phase: SpanPhase,
}

impl Record for SpanEvent {
    const FAMILY: Family = Family::Span;
    fn of(_now: SimTime, ev: &NetEvent<'_>) -> Option<Self> {
        match ev {
            NetEvent::Span(e) => Some(*e),
            _ => None,
        }
    }
}

/// Shared handle to a span [`Tap`] (what `Deployment::attach_tracing`
/// returns).
pub type SpanHandle = TapHandle<SpanEvent>;

impl Tap<SpanEvent> {
    /// Events of one trace, sorted by time (ties keep emission order).
    pub fn by_trace(&self, trace: TraceId) -> Vec<SpanEvent> {
        let mut out: Vec<SpanEvent> = self
            .events()
            .iter()
            .copied()
            .filter(|e| e.trace == trace)
            .collect();
        out.sort_by_key(|e| e.time);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::NetObserver;

    #[test]
    fn by_trace_sorts_by_time() {
        let h: SpanHandle = Tap::new(8);
        let mut c = h.borrow_mut();
        let t1 = TraceId::new(NodeId(0), 1);
        let t2 = TraceId::new(NodeId(1), 1);
        for (t, trace, phase) in [
            (5, t1, SpanPhase::Punt),
            (1, t1, SpanPhase::Ingress),
            (2, t2, SpanPhase::Ingress),
        ] {
            let e = SpanEvent {
                time: SimTime(t),
                trace,
                node: NodeId(0),
                phase,
            };
            c.on_net_event(SimTime(t), &NetEvent::Span(e));
        }
        // by_trace sorts by time even when emission order differed.
        let t1_events = c.by_trace(t1);
        assert_eq!(t1_events.len(), 2);
        assert_eq!(t1_events[0].phase, SpanPhase::Ingress);
        assert_eq!(t1_events[1].phase, SpanPhase::Punt);
    }

    #[test]
    fn labels_carry_payloads() {
        assert_eq!(SpanPhase::Retry(2).label(), "retry[2]");
        assert_eq!(SpanPhase::ChainHop(0).label(), "chain_hop[0]");
        assert_eq!(SpanPhase::Release.label(), "release");
        assert_eq!(SpanPhase::Retry(2).name(), "retry");
    }
}
