//! The discrete-event simulation engine.
//!
//! Determinism contract: given the same seed, node set, topology, and
//! schedule of external events, two runs produce identical event orders,
//! identical RNG draws, and therefore identical statistics. This is
//! guaranteed by (a) a total order on events — `(time, insertion seq)` —
//! and (b) a single engine-owned RNG consumed only during deterministic
//! event processing.
//!
//! Hot-path layout: event payloads live in a slab and the priority queue
//! orders flat `(time, seq, slab index)` triples, so heap sifts move
//! 24-byte entries instead of full packets; node ids resolve through a
//! dense index table instead of a hash map; and per-dispatch command
//! buffers are pooled. See DESIGN.md's "Performance model" for the
//! measurements behind these choices.

use crate::capture::CaptureHandle;
use crate::ctx::{Command, Ctx, GroupId};
use crate::events::{EventKind, EventQueue};
use crate::fault::{FaultAction, FaultSchedule, LinkOverlay};
use crate::journal::JournalHandle;
use crate::node::Node;
use crate::observe::{NetEvent, ObserverHandle};
use crate::span::SpanHandle;
use crate::stats::{DropReason, NetStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::TraceHandle;
use crate::wire_check::wire_fidelity_check;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use swishmem_wire::cursor::Writer;
use swishmem_wire::{NodeId, Packet, PacketBody};

/// Blanket `Any`-access helper so the engine can hand out typed references
/// to nodes after a run (e.g. to read a switch's registers or metrics).
pub trait AsAny {
    /// Upcast to `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// Upcast to `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: 'static> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct NodeSlot {
    id: NodeId,
    node: Box<dyn NodeObj>,
    failed: bool,
}

/// Sentinel in the id -> slot table.
const ABSENT: u32 = u32::MAX;

/// Object-safe supertrait combining [`Node`] and [`AsAny`].
pub trait NodeObj: Node + AsAny {}
impl<T: Node + AsAny> NodeObj for T {}

/// The simulation engine.
pub struct Simulator {
    now: SimTime,
    seq: u64,
    queue: EventQueue,
    /// `NodeId.0` -> slot in `nodes` (`ABSENT` when unregistered).
    node_index: Vec<u32>,
    nodes: Vec<NodeSlot>,
    topo: Topology,
    rng: StdRng,
    stats: NetStats,
    started: bool,
    events_processed: u64,
    peak_queue_depth: usize,
    trace: Option<TraceHandle>,
    spans: Option<SpanHandle>,
    journal: Option<JournalHandle>,
    capture: Option<CaptureHandle>,
    observers: Vec<ObserverHandle>,
    wire_check: bool,
    /// Pooled encode buffer of the wire check (empty until armed).
    wire_scratch: Writer,
    /// Pooled command buffer reused across dispatches.
    cmd_scratch: Vec<Command>,
    /// Pooled member buffer reused across multicast/anycast fan-outs.
    member_scratch: Vec<NodeId>,
}

impl Simulator {
    /// Create a simulator with a deterministic seed.
    pub fn new(seed: u64) -> Simulator {
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::default(),
            node_index: Vec::new(),
            nodes: Vec::new(),
            topo: Topology::new(),
            rng: StdRng::seed_from_u64(seed),
            stats: NetStats::default(),
            started: false,
            events_processed: 0,
            peak_queue_depth: 0,
            trace: None,
            spans: None,
            journal: None,
            capture: None,
            observers: Vec::new(),
            wire_check: false,
            wire_scratch: Writer::new(),
            cmd_scratch: Vec::new(),
            member_scratch: Vec::new(),
        }
    }

    /// Enable wire-fidelity checking: every delivered frame is serialized
    /// through the real codecs and re-parsed; a mismatch panics. Catches
    /// any drift between the structured fast path and the byte encodings.
    /// (UDP data packets legitimately drop their simulator-side `flow_seq`
    /// on the wire, which the check accounts for.)
    pub fn set_wire_check(&mut self, on: bool) {
        self.wire_check = on;
    }

    /// Attach a packet trace: every delivered frame is recorded into it.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Attach an ingress capture tap: every externally [`Simulator::inject`]ed
    /// packet is recorded (scheduled time + clone). Strictly passive,
    /// like the trace/span/journal collectors — attaching it never
    /// changes the event order or the RNG stream.
    pub fn set_capture(&mut self, capture: CaptureHandle) {
        self.capture = Some(capture);
    }

    /// Detach the capture tap.
    pub fn clear_capture(&mut self) {
        self.capture = None;
    }

    /// The attached capture tap, if any.
    pub fn capture(&self) -> Option<&CaptureHandle> {
        self.capture.as_ref()
    }

    /// Attach a span collector: [`Ctx::span`] markers emitted by nodes
    /// are recorded into it. Like the packet trace and observers this is
    /// strictly passive — attaching it never changes the event order or
    /// the RNG stream (`tests/determinism.rs` pins this).
    pub fn set_spans(&mut self, spans: SpanHandle) {
        self.spans = Some(spans);
    }

    /// Detach the span collector (span emission becomes a no-op again).
    pub fn clear_spans(&mut self) {
        self.spans = None;
    }

    /// The attached span collector, if any.
    pub fn spans(&self) -> Option<&SpanHandle> {
        self.spans.as_ref()
    }

    /// Attach a journal collector: [`Ctx::journal`] records emitted by
    /// nodes are recorded into it. Strictly passive, exactly like the
    /// span collector — attaching it never changes the event order or
    /// the RNG stream (`tests/determinism.rs` pins this).
    pub fn set_journal(&mut self, journal: JournalHandle) {
        self.journal = Some(journal);
    }

    /// Detach the journal collector (journal emission becomes a no-op).
    pub fn clear_journal(&mut self) {
        self.journal = None;
    }

    /// The attached journal collector, if any.
    pub fn journal(&self) -> Option<&JournalHandle> {
        self.journal.as_ref()
    }

    /// Attach a passive observer notified of deliveries and fault-plane
    /// transitions. Observers cannot influence the run; attaching one
    /// never changes the event order or RNG stream.
    pub fn add_observer(&mut self, obs: ObserverHandle) {
        self.observers.push(obs);
    }

    #[inline]
    fn notify(&self, ev: &NetEvent<'_>) {
        for obs in &self.observers {
            obs.borrow_mut().on_net_event(self.now, ev);
        }
    }

    /// Register a node under `id`. Panics if `id` is already taken.
    pub fn add_node(&mut self, id: NodeId, node: Box<dyn NodeObj>) {
        let i = id.index();
        if i >= self.node_index.len() {
            self.node_index.resize(i + 1, ABSENT);
        }
        assert!(self.node_index[i] == ABSENT, "duplicate node id {id}");
        self.node_index[i] = self.nodes.len() as u32;
        self.nodes.push(NodeSlot {
            id,
            node,
            failed: false,
        });
    }

    /// Slot index of `id`, if registered.
    #[inline]
    fn slot_of(&self, id: NodeId) -> Option<usize> {
        match self.node_index.get(id.index()) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// Mutable access to the topology (add links/groups before or during a
    /// run).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// Read access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// High-water mark of the pending event queue.
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_queue_depth
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Mutable statistics (for windowed measurements via `reset`).
    pub fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    /// Typed read access to a node (post-run inspection).
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        // Deref through the Box explicitly: the blanket AsAny impl would
        // otherwise resolve on `Box<dyn NodeObj>` itself.
        self.slot_of(id)
            .and_then(|s| (*self.nodes[s].node).as_any().downcast_ref())
    }

    /// Typed mutable access to a node.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let s = self.slot_of(id)?;
        (*self.nodes[s].node).as_any_mut().downcast_mut()
    }

    /// Whether `id` is currently failed.
    pub fn is_failed(&self, id: NodeId) -> bool {
        self.slot_of(id)
            .map(|s| self.nodes[s].failed)
            .unwrap_or(false)
    }

    fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time, seq, kind);
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len());
    }

    /// Schedule delivery of `pkt` to `pkt.dst` at absolute time `t`,
    /// bypassing links. Used to inject external (ingress) traffic.
    pub fn inject(&mut self, t: SimTime, pkt: Packet) {
        assert!(t >= self.now, "cannot inject into the past");
        if let Some(cap) = &self.capture {
            cap.borrow_mut().record(t, &pkt);
        }
        let to = pkt.dst;
        self.push(
            t,
            EventKind::Deliver {
                to,
                pkt,
                corrupt: false,
            },
        );
    }

    /// Schedule a fail-stop failure of `node` at time `t`.
    pub fn schedule_fail(&mut self, t: SimTime, node: NodeId) {
        self.push(t, EventKind::Fail { node });
    }

    /// Schedule recovery (fresh state) of `node` at time `t`.
    pub fn schedule_recover(&mut self, t: SimTime, node: NodeId) {
        self.push(t, EventKind::Recover { node });
    }

    /// Schedule the duplex link `a <-> b` going down (or up) at time `t`.
    pub fn schedule_link_set(&mut self, t: SimTime, a: NodeId, b: NodeId, down: bool) {
        self.push(
            t,
            EventKind::LinkSet {
                a,
                b,
                down,
                notify: true,
            },
        );
    }

    /// Schedule a parameter overlay on the duplex link `a <-> b` at `t`
    /// (loss/jitter/corruption burst or gray-failure slowness).
    pub fn schedule_degrade(&mut self, t: SimTime, a: NodeId, b: NodeId, overlay: LinkOverlay) {
        self.push(
            t,
            EventKind::LinkDegrade {
                a,
                b,
                overlay,
                notify: true,
            },
        );
    }

    /// Schedule restoration of the duplex link `a <-> b` to its pristine
    /// parameters at `t`.
    pub fn schedule_restore(&mut self, t: SimTime, a: NodeId, b: NodeId) {
        self.push(t, EventKind::LinkRestore { a, b, notify: true });
    }

    /// Install a [`FaultSchedule`]: each action becomes an ordinary engine
    /// event at `base + offset`, so the `(time, seq)` total order and the
    /// single engine RNG are untouched — the same seed plus the same
    /// schedule replays bit-for-bit, and an empty schedule changes nothing.
    pub fn schedule_faults(&mut self, base: SimTime, sched: &FaultSchedule) {
        for ev in sched.events() {
            let t = base + ev.at;
            match ev.action {
                FaultAction::Crash { node } => self.schedule_fail(t, node),
                FaultAction::Restart { node } => self.schedule_recover(t, node),
                FaultAction::LinkDown { a, b } => self.schedule_link_set(t, a, b, true),
                FaultAction::LinkUp { a, b } => self.schedule_link_set(t, a, b, false),
                FaultAction::Degrade { a, b, overlay } => self.schedule_degrade(t, a, b, overlay),
                FaultAction::Restore { a, b } => self.schedule_restore(t, a, b),
                FaultAction::Trigger { node, token } => {
                    self.push(t, EventKind::Timer { node, token })
                }
            }
        }
    }

    /// Call `on_start` on every node (idempotent; run methods call it
    /// automatically).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
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

    /// Run until simulated time reaches `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: SimTime) {
        self.start();
        while let Some(et) = self.queue.peek_time() {
            if et > t {
                break;
            }
            let (time, _, kind) = self.queue.pop().expect("peeked");
            self.process(time, kind);
        }
        self.now = self.now.max(t);
    }

    /// Run for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Run until the event queue drains or `limit` is reached; returns the
    /// final simulated time.
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> SimTime {
        self.start();
        while let Some(et) = self.queue.peek_time() {
            if et > limit {
                self.now = limit;
                return self.now;
            }
            let (time, _, kind) = self.queue.pop().expect("peeked");
            self.process(time, kind);
        }
        self.now
    }

    fn process(&mut self, time: SimTime, kind: EventKind) {
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.events_processed += 1;
        match kind {
            EventKind::Deliver { to, pkt, corrupt } => {
                let len = pkt.wire_len();
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
                        self.stats.record_delivery(&pkt, to, len);
                        if self.wire_check {
                            wire_fidelity_check(&pkt, len, &mut self.wire_scratch);
                        }
                        if let Some(trace) = &self.trace {
                            trace.borrow_mut().record(self.now, &pkt);
                        }
                        if !self.observers.is_empty() {
                            self.notify(&NetEvent::Delivered { to, pkt: &pkt });
                        }
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
                        self.notify(&NetEvent::NodeFailed { node });
                    }
                }
            }
            EventKind::Recover { node } => {
                if let Some(slot) = self.slot_of(node) {
                    if std::mem::replace(&mut self.nodes[slot].failed, false) {
                        self.notify(&NetEvent::NodeRecovered { node });
                        self.dispatch(slot, |n, ctx| n.on_start(ctx));
                    }
                }
            }
            EventKind::LinkSet { a, b, down, .. } => {
                self.topo.set_link_down(a, b, down);
                self.notify(&NetEvent::LinkChanged { a, b, down });
            }
            EventKind::LinkDegrade { a, b, overlay, .. } => {
                self.topo.degrade_link(a, b, &overlay);
                self.notify(&NetEvent::LinkDegraded { a, b });
            }
            EventKind::LinkRestore { a, b, .. } => {
                self.topo.restore_link(a, b);
                self.notify(&NetEvent::LinkRestored { a, b });
            }
            EventKind::Vacant => unreachable!("vacant slab slot in the event queue"),
        }
    }

    /// Run a node callback and apply the commands it issued. The command
    /// buffer is pooled: steady-state dispatches allocate nothing.
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
                spans: self.spans.as_deref(),
                journal: self.journal.as_deref(),
            };
            f(self.nodes[slot].node.as_mut(), &mut ctx);
        }
        for cmd in commands.drain(..) {
            self.apply(id, cmd);
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

    fn apply(&mut self, from: NodeId, cmd: Command) {
        match cmd {
            Command::Send { to, body } => self.transmit(from, to, body),
            Command::Multicast { group, body } => {
                let members = self.take_members(group, from);
                for &m in &members {
                    // Fan-out clones are reference-count bumps for the
                    // shared message bodies (see `swishmem_wire::Shared`).
                    self.transmit(from, m, body.clone());
                }
                self.member_scratch = members;
            }
            Command::Timer { delay, token } => {
                let t = self.now + delay;
                self.push(t, EventKind::Timer { node: from, token });
            }
            Command::SendRandom { group, body } => {
                let candidates = self.take_members(group, from);
                if !candidates.is_empty() {
                    let pick = candidates[self.rng.gen_range(0..candidates.len())];
                    self.member_scratch = candidates;
                    self.transmit(from, pick, body);
                } else {
                    self.member_scratch = candidates;
                }
            }
            Command::SetGroup { group, members } => {
                self.topo.set_group(group, members);
            }
        }
    }

    /// Update a multicast group's membership (also reachable from node
    /// context via the deployment layer's controller).
    pub fn set_group(&mut self, group: GroupId, members: Vec<NodeId>) {
        self.topo.set_group(group, members);
    }

    fn transmit(&mut self, from: NodeId, to: NodeId, body: PacketBody) {
        let pkt = Packet {
            src: from,
            dst: to,
            body,
        };
        let bytes = pkt.wire_len();
        // A failed source cannot transmit (its events shouldn't fire, but a
        // command applied the instant of failure is also suppressed).
        if self
            .slot_of(from)
            .map(|s| self.nodes[s].failed)
            .unwrap_or(false)
        {
            self.stats.record_drop(DropReason::NodeDown, bytes);
            return;
        }
        // Resolve the next hop (direct link, or a static route through a
        // relay in leaf-spine fabrics) and the outgoing link in one pass.
        let (hop, link_ref) = match self.topo.resolve(from, to) {
            Some(r) => r,
            None => {
                self.stats.record_drop(DropReason::NoRoute, bytes);
                return;
            }
        };
        let link = self.topo.link_at(link_ref);
        if link.state.down {
            self.stats.record_drop(DropReason::LinkDown, bytes);
            return;
        }
        let params = link.params;
        // Sample faults deterministically from the engine RNG.
        if params.drop_prob > 0.0 && self.rng.gen::<f64>() < params.drop_prob {
            self.stats.record_drop(DropReason::Loss, bytes);
            return;
        }
        let jitter = if params.jitter.as_nanos() > 0 {
            SimDuration::nanos(self.rng.gen_range(0..=params.jitter.as_nanos()))
        } else {
            SimDuration::ZERO
        };
        let corrupt = params.corrupt_prob > 0.0 && self.rng.gen::<f64>() < params.corrupt_prob;
        if let Some(arrival) = self
            .topo
            .link_at_mut(link_ref)
            .transmit(self.now, bytes, jitter)
        {
            self.push(
                arrival,
                EventKind::Deliver {
                    to: hop,
                    pkt,
                    corrupt,
                },
            );
        } else {
            self.stats.record_drop(DropReason::LinkDown, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use std::net::Ipv4Addr;
    use std::rc::Rc;
    use swishmem_wire::{DataPacket, FlowKey};

    /// Echoes every received data packet back to its source.
    struct Echo;
    impl Node for Echo {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            if let PacketBody::Data(d) = pkt.body {
                if d.flow_seq < 4 {
                    let mut d2 = d;
                    d2.flow_seq += 1;
                    ctx.send(pkt.src, PacketBody::Data(d2));
                }
            }
        }
    }

    /// Counts timer firings; re-arms until 5.
    #[derive(Default)]
    struct Ticker {
        fired: u64,
    }
    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::millis(1), 7);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            assert_eq!(token, 7);
            self.fired += 1;
            if self.fired < 5 {
                ctx.set_timer(SimDuration::millis(1), 7);
            }
        }
    }

    fn pkt(src: u16, dst: u16, seq: u32) -> Packet {
        Packet::data(
            NodeId(src),
            NodeId(dst),
            DataPacket::udp(
                FlowKey::udp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 0, 2), 2),
                seq,
                64,
            ),
        )
    }

    #[test]
    fn ping_pong_until_ttl() {
        let mut sim = Simulator::new(1);
        sim.add_node(NodeId(0), Box::new(Echo));
        sim.add_node(NodeId(1), Box::new(Echo));
        sim.topology_mut()
            .connect(NodeId(0), NodeId(1), LinkParams::datacenter());
        sim.inject(SimTime::ZERO, pkt(0, 1, 0));
        let end = sim.run_until_quiescent(SimTime(1_000_000_000));
        // seq 0 injected; echoes with seq 1..=4 bounce => 5 deliveries total.
        assert_eq!(sim.stats().delivered_total().packets, 5);
        assert!(end.nanos() > 0);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Simulator::new(1);
        sim.add_node(NodeId(0), Box::new(Ticker::default()));
        sim.run_until(SimTime(10_000_000));
        assert_eq!(sim.node::<Ticker>(NodeId(0)).unwrap().fired, 5);
    }

    #[test]
    fn failed_node_receives_nothing_until_recovery() {
        let mut sim = Simulator::new(1);
        sim.add_node(NodeId(0), Box::new(Echo));
        sim.add_node(NodeId(1), Box::new(Echo));
        sim.topology_mut()
            .connect(NodeId(0), NodeId(1), LinkParams::datacenter());
        sim.schedule_fail(SimTime(0), NodeId(1));
        sim.inject(SimTime(1000), pkt(0, 1, 0));
        sim.run_until_quiescent(SimTime(1_000_000));
        assert_eq!(sim.stats().delivered_total().packets, 0);
        assert_eq!(sim.stats().dropped(DropReason::NodeDown).packets, 1);

        sim.schedule_recover(SimTime(2_000_000), NodeId(1));
        sim.inject(SimTime(3_000_000), pkt(0, 1, 0));
        sim.run_until_quiescent(SimTime(10_000_000));
        assert!(sim.stats().delivered_total().packets > 0);
    }

    #[test]
    fn lossy_link_drops_fraction() {
        let mut sim = Simulator::new(42);
        sim.add_node(NodeId(0), Box::new(Echo));
        sim.add_node(NodeId(1), Box::new(Echo));
        sim.topology_mut()
            .connect(NodeId(0), NodeId(1), LinkParams::lossy(0.5));
        // Inject 200 packets; each bounces up to 4 times over the lossy
        // link before the echo TTL expires.
        for i in 0..200 {
            sim.inject(SimTime(i * 1_000_000), pkt(0, 1, 0));
        }
        // Injected packets bypass links (delivered); echo replies cross the
        // lossy link.
        sim.run_until_quiescent(SimTime(10_000_000_000));
        let loss = sim.stats().dropped(DropReason::Loss).packets;
        assert!(loss > 0, "expected some loss");
    }

    #[test]
    fn deterministic_across_runs() {
        fn run(seed: u64) -> (u64, u64) {
            let mut sim = Simulator::new(seed);
            sim.add_node(NodeId(0), Box::new(Echo));
            sim.add_node(NodeId(1), Box::new(Echo));
            sim.topology_mut().connect(
                NodeId(0),
                NodeId(1),
                LinkParams::lossy(0.3).with_jitter(SimDuration::micros(5)),
            );
            for i in 0..100 {
                sim.inject(SimTime(i * 10_000), pkt(0, 1, 0));
            }
            sim.run_until_quiescent(SimTime(1_000_000_000));
            (
                sim.stats().delivered_total().packets,
                sim.stats().dropped(DropReason::Loss).packets,
            )
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8)); // loss pattern differs across seeds
    }

    #[test]
    fn no_route_counted() {
        let mut sim = Simulator::new(1);
        sim.add_node(NodeId(0), Box::new(Echo));
        sim.add_node(NodeId(1), Box::new(Echo));
        // No links at all: the echo reply has nowhere to go.
        sim.inject(SimTime::ZERO, pkt(0, 1, 0));
        sim.run_until_quiescent(SimTime(1_000_000));
        assert_eq!(sim.stats().dropped(DropReason::NoRoute).packets, 1);
    }

    #[test]
    fn typed_node_access() {
        let mut sim = Simulator::new(1);
        sim.add_node(NodeId(0), Box::new(Ticker::default()));
        assert!(sim.node::<Ticker>(NodeId(0)).is_some());
        assert!(sim.node::<Echo>(NodeId(0)).is_none());
        sim.node_mut::<Ticker>(NodeId(0)).unwrap().fired = 99;
        assert_eq!(sim.node::<Ticker>(NodeId(0)).unwrap().fired, 99);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_node_panics() {
        let mut sim = Simulator::new(1);
        sim.add_node(NodeId(0), Box::new(Echo));
        sim.add_node(NodeId(0), Box::new(Echo));
    }

    #[test]
    fn scheduled_link_outage_drops_then_recovers() {
        let mut sim = Simulator::new(1);
        sim.add_node(NodeId(0), Box::new(Echo));
        sim.add_node(NodeId(1), Box::new(Echo));
        sim.topology_mut()
            .connect(NodeId(0), NodeId(1), LinkParams::datacenter());
        // Take the link down for [1ms, 2ms).
        sim.schedule_link_set(SimTime(1_000_000), NodeId(0), NodeId(1), true);
        sim.schedule_link_set(SimTime(2_000_000), NodeId(0), NodeId(1), false);
        // Echo attempts at 0.5ms (up), 1.5ms (down), 2.5ms (up again).
        for t in [500_000u64, 1_500_000, 2_500_000] {
            sim.inject(SimTime(t), pkt(0, 1, 3)); // one echo reply each
        }
        sim.run_until_quiescent(SimTime(10_000_000));
        assert_eq!(sim.stats().dropped(DropReason::LinkDown).packets, 1);
        // 3 injections + 2 successful echo exchanges (4 each)... count:
        // injections always deliver; replies only while the link is up.
        assert!(sim.stats().delivered_total().packets > 3);
    }

    #[test]
    fn multicast_reaches_members_except_sender() {
        struct Caster;
        impl Node for Caster {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.multicast(
                    GroupId(1),
                    PacketBody::Data(DataPacket::udp(
                        FlowKey::udp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 0, 2), 2),
                        9,
                        10,
                    )),
                );
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        }
        #[derive(Default)]
        struct Sink {
            got: Rc<std::cell::RefCell<u32>>,
        }
        impl Node for Sink {
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {
                *self.got.borrow_mut() += 1;
            }
        }
        let mut sim = Simulator::new(1);
        let got1 = Rc::new(std::cell::RefCell::new(0));
        let got2 = Rc::new(std::cell::RefCell::new(0));
        sim.add_node(NodeId(0), Box::new(Caster));
        sim.add_node(NodeId(1), Box::new(Sink { got: got1.clone() }));
        sim.add_node(NodeId(2), Box::new(Sink { got: got2.clone() }));
        sim.topology_mut()
            .full_mesh(&[NodeId(0), NodeId(1), NodeId(2)], LinkParams::datacenter());
        sim.topology_mut()
            .set_group(GroupId(1), vec![NodeId(0), NodeId(1), NodeId(2)]);
        sim.run_until_quiescent(SimTime(1_000_000));
        assert_eq!(*got1.borrow(), 1);
        assert_eq!(*got2.borrow(), 1);
    }
}
