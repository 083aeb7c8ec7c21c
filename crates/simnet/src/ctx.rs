//! The per-callback context handed to nodes.

use crate::core::Direct;
use crate::journal::{CtrlEvent, JournalRecord};
use crate::observe::NetEvent;
use crate::span::{SpanEvent, SpanPhase};
use crate::time::{SimDuration, SimTime};
use swishmem_wire::{NodeId, PacketBody, TraceId};

/// A multicast group identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u16);

/// Deferred actions a node requests during a callback; the engine applies
/// them after the callback returns (this is what makes node processing
/// atomic with respect to the rest of the simulation, mirroring PISA's
/// atomic per-packet processing guarantee).
#[derive(Debug)]
pub(crate) enum Command {
    /// Unicast a payload to another node over the configured link.
    Send { to: NodeId, body: PacketBody },
    /// Send a payload to every member of a multicast group (except the
    /// sender itself).
    Multicast { group: GroupId, body: PacketBody },
    /// Arm a one-shot timer for the calling node.
    Timer { delay: SimDuration, token: u64 },
    /// Send a payload to one uniformly-random member of a group (excluding
    /// the sender). Used by EWO's periodic sync, which forwards each
    /// update "to a randomly-selected switch in the replica group" (§7).
    SendRandom { group: GroupId, body: PacketBody },
    /// Replace a multicast group's membership. Issued by the controller
    /// when reconfiguring the replica group after failures (§6.3).
    SetGroup {
        group: GroupId,
        members: Vec<NodeId>,
    },
}

/// Context passed to every [`crate::node::Node`] callback.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) commands: &'a mut Vec<Command>,
    /// The engine's observation sink: span markers and journal records
    /// go there, and only while some observer subscribes to them.
    pub(crate) sink: &'a mut Direct,
    /// Whether the sink wants spans and journal records, read once per
    /// callback so that an emission nobody reads costs one branch.
    pub(crate) tracing: bool,
    pub(crate) journaling: bool,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node being called.
    #[inline]
    pub fn self_id(&self) -> NodeId {
        self.node
    }

    /// Unicast `body` to `to`. The frame is stamped with this node as
    /// source and travels the configured link (subject to its latency,
    /// bandwidth, loss and jitter). Sending to a node without a configured
    /// link counts as a no-route drop.
    pub fn send(&mut self, to: NodeId, body: PacketBody) {
        self.commands.push(Command::Send { to, body });
    }

    /// Send `body` to every current member of `group` except this node.
    /// Models the switch multicast engine: one copy per egress link.
    pub fn multicast(&mut self, group: GroupId, body: PacketBody) {
        self.commands.push(Command::Multicast { group, body });
    }

    /// Arm a one-shot timer that fires `delay` from now with `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.commands.push(Command::Timer { delay, token });
    }

    /// Send `body` to one uniformly-random member of `group` other than
    /// this node (the EWO periodic-sync pattern, §7).
    pub fn send_random(&mut self, group: GroupId, body: PacketBody) {
        self.commands.push(Command::SendRandom { group, body });
    }

    /// Replace `group`'s membership (controller privilege: the SDN
    /// controller owns the multicast tree).
    pub fn set_group(&mut self, group: GroupId, members: Vec<NodeId>) {
        self.commands.push(Command::SetGroup { group, members });
    }

    /// Emit a span phase marker for `trace` at the current time.
    ///
    /// A pure observation: the marker goes to the span subscribers as a
    /// [`NetEvent::Span`] and nowhere else — no event is scheduled and no
    /// RNG is consumed, so emitting spans never perturbs the
    /// deterministic event order. No-op when `trace` is
    /// [`TraceId::NONE`] or nobody subscribes to spans.
    #[inline]
    pub fn span(&mut self, trace: TraceId, phase: SpanPhase) {
        self.span_at(self.now, trace, phase);
    }

    /// Emit a span phase marker stamped with an explicit time (used by
    /// queue models that know *when* a phase will happen — e.g. the PISA
    /// CP punt path stamps `punt`/`cp_dequeue` with their modeled times).
    #[inline]
    pub fn span_at(&mut self, at: SimTime, trace: TraceId, phase: SpanPhase) {
        if trace.is_some() && self.tracing() {
            let ev = SpanEvent {
                time: at,
                trace,
                node: self.node,
                phase,
            };
            self.sink.emit(self.now, NetEvent::Span(ev));
        }
    }

    /// Whether anybody subscribes to spans (lets callers skip building
    /// expensive span payloads when nobody is listening).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Journal `event`, stamped at the current time.
    ///
    /// A pure observation, exactly like [`Self::span`]: the record goes
    /// to the journal subscribers as a [`NetEvent::Journal`] and nowhere
    /// else — no event is scheduled and no RNG is consumed, so journaling
    /// never perturbs the deterministic event order.
    #[inline]
    pub fn journal(&mut self, event: CtrlEvent) {
        if self.journaling() {
            let rec = JournalRecord {
                time: self.now,
                node: self.node,
                event,
            };
            self.sink.emit(self.now, NetEvent::Journal(rec));
        }
    }

    /// Whether anybody subscribes to the journal (lets callers skip
    /// building costly event payloads when nobody is listening).
    #[inline]
    pub fn journaling(&self) -> bool {
        self.journaling
    }
}
