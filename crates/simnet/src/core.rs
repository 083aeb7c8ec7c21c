//! The event loop: [`Simulator`] pops `(time, seq)`-ordered events, runs
//! node callbacks atomically, applies their commands, and samples link
//! faults — PAPER.md §5's failure model and §6's atomic per-packet
//! processing, defined once. `sim.rs` holds the engine's state and the
//! calls that set up a run; this file holds the calls that run it and
//! the processing beneath them.
//!
//! Every [`NetEvent`] the loop or a node callback emits goes to the one
//! observation sink, [`Direct`], which calls the subscribed observers in
//! place. The sink can reach neither the queue nor the RNG, so passivity
//! (attaching an observer never perturbs a run) holds by construction.

use crate::ctx::{Command, Ctx, GroupId};
use crate::events::EventKind;
use crate::observe::{Family, NetEvent, ObserverHandle};
use crate::sim::{NodeObj, Simulator};
use crate::stats::DropReason;
use crate::time::{SimDuration, SimTime};
use crate::wire_check::wire_fidelity_check;
use rand::Rng;
use swishmem_wire::{NodeId, Packet, PacketBody};

/// The attached observers, listed per family in attach order, so an
/// event costs one lookup plus one call per subscriber.
#[derive(Default)]
pub(crate) struct Direct {
    by_family: [Vec<ObserverHandle>; Family::ALL.len()],
}

impl Direct {
    /// Attach `obs` to every family it wants.
    pub(crate) fn add(&mut self, obs: ObserverHandle) {
        for f in Family::ALL {
            if obs.borrow().wants(f) {
                self.by_family[f as usize].push(obs.clone());
            }
        }
    }

    /// Whether some observer subscribes to `family`.
    #[inline]
    pub(crate) fn wants(&self, family: Family) -> bool {
        !self.by_family[family as usize].is_empty()
    }

    /// Hand `ev`, observed at `time`, to every subscriber of its family:
    /// nothing but an empty-list check when nobody subscribes.
    #[inline]
    pub(crate) fn emit(&mut self, time: SimTime, ev: NetEvent<'_>) {
        for obs in &self.by_family[ev.family() as usize] {
            obs.borrow_mut().on_net_event(time, &ev);
        }
    }
}

/// A registered node.
pub(crate) struct Slot {
    pub(crate) id: NodeId,
    pub(crate) failed: bool,
    pub(crate) node: Box<dyn NodeObj>,
}

/// Sentinel in the id → slot table.
pub(crate) const ABSENT: u32 = u32::MAX;

impl Simulator {
    /// Slot index of `id`, if registered.
    #[inline]
    pub(crate) fn slot_of(&self, id: NodeId) -> Option<usize> {
        match self.node_index.get(id.index()) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// Enqueue `kind` at `time` under the next insertion sequence number:
    /// the one key order external and internal events share, which the
    /// golden fingerprints pin.
    #[inline]
    pub(crate) fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time, seq, kind);
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len());
    }

    /// Call `on_start` on every node, in id order (idempotent; run
    /// methods call it automatically).
    pub fn start(&mut self) {
        if std::mem::replace(&mut self.started, true) {
            return;
        }
        let mut order: Vec<(NodeId, usize)> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(s, n)| (n.id, s))
            .collect();
        order.sort(); // deterministic start order
        for (_, slot) in order {
            self.dispatch(slot, |node, ctx| node.on_start(ctx));
        }
    }

    /// Run until the event queue drains or `limit` is reached; returns the
    /// final simulated time (which never moves backwards).
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> SimTime {
        self.start();
        while let Some(t) = self.queue.peek_time() {
            if t > limit {
                break;
            }
            let (time, _, kind) = self.queue.pop().expect("peeked");
            self.process(time, kind);
        }
        if !self.queue.is_empty() {
            self.now = self.now.max(limit);
        }
        self.now
    }

    /// Apply one popped event at its time.
    fn process(&mut self, time: SimTime, kind: EventKind) {
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.events_processed += 1;
        match kind {
            EventKind::Deliver {
                to,
                pkt,
                corrupt,
                len,
            } => {
                let len = len as usize;
                match self.slot_of(to) {
                    None => {
                        self.stats.record_drop(DropReason::NoRoute, len);
                    }
                    Some(slot) if self.nodes[slot].failed => {
                        self.stats.record_drop(DropReason::NodeDown, len);
                    }
                    Some(slot) if corrupt => {
                        self.stats.record_drop(DropReason::Corrupt, len);
                        self.dispatch(slot, |node, ctx| node.on_corrupt_packet(pkt, ctx));
                    }
                    Some(slot) => {
                        self.stats.record_delivery(&pkt, len);
                        if self.wire_check {
                            wire_fidelity_check(&pkt, len, &mut self.wire_scratch);
                        }
                        let ev = NetEvent::Delivered { to, pkt: &pkt };
                        self.sink.emit(time, ev);
                        self.dispatch(slot, |node, ctx| node.on_packet(pkt, ctx));
                    }
                }
            }
            EventKind::Timer { node, token } => {
                if let Some(slot) = self.slot_of(node) {
                    if !self.nodes[slot].failed {
                        self.dispatch(slot, |n, ctx| n.on_timer(token, ctx));
                    }
                }
            }
            EventKind::Fail { node } => {
                if let Some(slot) = self.slot_of(node) {
                    let s = &mut self.nodes[slot];
                    if !s.failed {
                        s.failed = true;
                        s.node.on_fail();
                        self.sink.emit(time, NetEvent::NodeFailed { node });
                    }
                }
            }
            EventKind::Recover { node } => {
                if let Some(slot) = self.slot_of(node) {
                    if std::mem::replace(&mut self.nodes[slot].failed, false) {
                        self.sink.emit(time, NetEvent::NodeRecovered { node });
                        self.dispatch(slot, |n, ctx| n.on_start(ctx));
                    }
                }
            }
            EventKind::LinkSet { a, b, down } => {
                self.topo.set_link_down(a, b, down);
                self.sink.emit(time, NetEvent::LinkChanged { a, b, down });
            }
            EventKind::LinkDegrade { a, b, overlay } => {
                self.topo.degrade_link(a, b, &overlay);
                self.sink.emit(time, NetEvent::LinkDegraded { a, b });
            }
            EventKind::LinkRestore { a, b } => {
                self.topo.restore_link(a, b);
                self.sink.emit(time, NetEvent::LinkRestored { a, b });
            }
            EventKind::Vacant => unreachable!("vacant slab slot in the event queue"),
        }
    }

    /// Run a node callback at `now` and apply the commands it issued. The
    /// command buffer is pooled: steady-state dispatches allocate nothing.
    fn dispatch<F>(&mut self, slot: usize, f: F)
    where
        F: FnOnce(&mut dyn NodeObj, &mut Ctx<'_>),
    {
        let mut commands = std::mem::take(&mut self.cmd_scratch);
        debug_assert!(commands.is_empty());
        let id = self.nodes[slot].id;
        {
            let mut ctx = Ctx {
                now: self.now,
                node: id,
                rng: &mut self.rng,
                commands: &mut commands,
                tracing: self.sink.wants(Family::Span),
                journaling: self.sink.wants(Family::Journal),
                sink: &mut self.sink,
            };
            f(self.nodes[slot].node.as_mut(), &mut ctx);
        }
        for cmd in commands.drain(..) {
            self.apply(id, slot, cmd);
        }
        self.cmd_scratch = commands;
    }

    /// Collect `group` members other than `from` into the pooled member
    /// buffer; the caller must hand the buffer back afterwards.
    fn take_members(&mut self, group: GroupId, from: NodeId) -> Vec<NodeId> {
        let mut members = std::mem::take(&mut self.member_scratch);
        members.clear();
        members.extend(
            self.topo
                .group(group)
                .iter()
                .copied()
                .filter(|&m| m != from),
        );
        members
    }

    fn apply(&mut self, from: NodeId, from_slot: usize, cmd: Command) {
        match cmd {
            Command::Send { to, body } => self.transmit(from, from_slot, to, body),
            Command::Multicast { group, body } => {
                let members = self.take_members(group, from);
                for &m in &members {
                    // Fan-out clones never deep-copy an entry batch: one
                    // entry is a copy, more a reference-count bump (see
                    // `swishmem_wire::Shared`).
                    self.transmit(from, from_slot, m, body.clone());
                }
                self.member_scratch = members;
            }
            Command::Timer { delay, token } => {
                let t = self.now + delay;
                self.schedule(t, EventKind::Timer { node: from, token });
            }
            Command::SendRandom { group, body } => {
                let candidates = self.take_members(group, from);
                let pick = (!candidates.is_empty())
                    .then(|| candidates[self.rng.gen_range(0..candidates.len())]);
                self.member_scratch = candidates;
                if let Some(pick) = pick {
                    self.transmit(from, from_slot, pick, body);
                }
            }
            Command::SetGroup { group, members } => self.topo.set_group(group, members),
        }
    }

    fn transmit(&mut self, from: NodeId, from_slot: usize, to: NodeId, body: PacketBody) {
        let pkt = Packet {
            src: from,
            dst: to,
            body,
        };
        let bytes = pkt.wire_len();
        // A failed source cannot transmit (its events shouldn't fire, but a
        // command applied the instant of failure is also suppressed).
        if self.nodes[from_slot].failed {
            self.stats.record_drop(DropReason::NodeDown, bytes);
            return;
        }
        // Resolve the next hop (direct link, or a static route through a
        // relay in leaf-spine fabrics) and the outgoing link in one lookup.
        let Some((hop, link)) = self.topo.resolve(from, to) else {
            self.stats.record_drop(DropReason::NoRoute, bytes);
            return;
        };
        if link.state.down {
            self.stats.record_drop(DropReason::LinkDown, bytes);
            return;
        }
        let params = link.params;
        // Sample faults deterministically; the draw order is part of the
        // golden fingerprints.
        let rng = &mut self.rng;
        if params.drop_prob > 0.0 && rng.gen::<f64>() < params.drop_prob {
            self.stats.record_drop(DropReason::Loss, bytes);
            return;
        }
        let jitter = if params.jitter.as_nanos() > 0 {
            SimDuration::nanos(rng.gen_range(0..=params.jitter.as_nanos()))
        } else {
            SimDuration::ZERO
        };
        let corrupt = params.corrupt_prob > 0.0 && rng.gen::<f64>() < params.corrupt_prob;
        let Some(arrival) = link.transmit(self.now, bytes, jitter) else {
            self.stats.record_drop(DropReason::LinkDown, bytes);
            return;
        };
        self.schedule(
            arrival,
            EventKind::Deliver {
                to: hop,
                pkt,
                corrupt,
                len: bytes as u32,
            },
        );
    }
}
