//! The sequential engine: a façade over one [`Core`] in the global-RNG
//! regime with a [`Direct`] sink.
//!
//! Determinism contract: given the same seed, node set, topology, and
//! schedule of external events, two runs produce identical event orders,
//! identical RNG draws, and therefore identical statistics. This is
//! guaranteed by (a) a total order on events — `(time, insertion seq)` —
//! and (b) a single engine-owned RNG consumed only during deterministic
//! event processing. The loop itself lives in [`crate::core`]; what this
//! file adds is the surface a single-threaded caller gets to keep: a
//! topology that stays mutable mid-run, `stats()` by reference,
//! collectors written synchronously through their `Rc` handles, and the
//! ingress capture tap.

use crate::capture::CaptureHandle;
use crate::core::{Core, Direct};
use crate::ctx::GroupId;
use crate::events::EventKind;
use crate::fault::{FaultAction, FaultSchedule, LinkOverlay};
use crate::journal::JournalHandle;
use crate::node::Node;
use crate::observe::ObserverHandle;
use crate::span::SpanHandle;
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use std::any::Any;
use std::sync::Arc;
use swishmem_wire::{NodeId, Packet};

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

/// Object-safe supertrait combining [`Node`] and [`AsAny`].
pub trait NodeObj: Node + AsAny {}
impl<T: Node + AsAny> NodeObj for T {}

/// The simulation engine.
pub struct Simulator {
    core: Core<dyn NodeObj, Direct>,
    capture: Option<CaptureHandle>,
}

impl Simulator {
    /// Create a simulator with a deterministic seed.
    pub fn new(seed: u64) -> Simulator {
        Simulator {
            // Shard 0 of 1 under the empty shard map: every hop is local.
            core: Core::new(0, 1, Arc::default(), Topology::new(), seed),
            capture: None,
        }
    }

    /// Enable wire-fidelity checking: every delivered frame is serialized
    /// through the real codecs and re-parsed; a mismatch panics. Catches
    /// any drift between the structured fast path and the byte encodings.
    /// (UDP data packets legitimately drop their simulator-side `flow_seq`
    /// on the wire, which the check accounts for.)
    pub fn set_wire_check(&mut self, on: bool) {
        self.core.wire_check = on;
    }

    /// Attach an ingress capture tap: every externally [`Simulator::inject`]ed
    /// packet is recorded (scheduled time + clone). Strictly passive,
    /// like the span/journal collectors — attaching it never
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

    /// Attach a span collector: [`crate::Ctx::span`] markers emitted by
    /// nodes are recorded into it. Like the observers this is strictly
    /// passive — attaching it never changes the event order or the RNG
    /// stream (`tests/determinism.rs` pins this).
    pub fn set_spans(&mut self, spans: SpanHandle) {
        self.core.sink.spans = Some(spans);
    }

    /// Detach the span collector (span emission becomes a no-op again).
    pub fn clear_spans(&mut self) {
        self.core.sink.spans = None;
    }

    /// The attached span collector, if any.
    pub fn spans(&self) -> Option<&SpanHandle> {
        self.core.sink.spans.as_ref()
    }

    /// Attach a journal collector: [`crate::Ctx::journal`] records emitted
    /// by nodes are recorded into it. Strictly passive, exactly like the
    /// span collector — attaching it never changes the event order or
    /// the RNG stream (`tests/determinism.rs` pins this).
    pub fn set_journal(&mut self, journal: JournalHandle) {
        self.core.sink.journal = Some(journal);
    }

    /// Detach the journal collector (journal emission becomes a no-op).
    pub fn clear_journal(&mut self) {
        self.core.sink.journal = None;
    }

    /// The attached journal collector, if any.
    pub fn journal(&self) -> Option<&JournalHandle> {
        self.core.sink.journal.as_ref()
    }

    /// Attach a passive observer notified of deliveries and fault-plane
    /// transitions (a [`crate::Trace`] is one). Observers cannot influence
    /// the run; attaching one never changes the event order or RNG stream.
    pub fn add_observer(&mut self, obs: ObserverHandle) {
        self.core.sink.observers.push(obs);
    }

    /// Register a node under `id`. Panics if `id` is already taken.
    pub fn add_node(&mut self, id: NodeId, node: Box<dyn NodeObj>) {
        self.core.add_node(id, node);
    }

    /// Mutable access to the topology (add links/groups before or during a
    /// run).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.core.topo
    }

    /// Read access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.core.topo
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// High-water mark of the pending event queue.
    pub fn peak_queue_depth(&self) -> usize {
        self.core.peak_queue_depth
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &NetStats {
        &self.core.stats
    }

    /// Mutable statistics (for windowed measurements via `reset`).
    pub fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.core.stats
    }

    /// Typed read access to a node (post-run inspection).
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.core.node(id)
    }

    /// Typed mutable access to a node.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.core.node_mut(id)
    }

    /// Whether `id` is currently failed.
    pub fn is_failed(&self, id: NodeId) -> bool {
        self.core.is_failed(id)
    }

    fn push(&mut self, time: SimTime, kind: EventKind) {
        // The global regime draws its own key; the argument is unused.
        self.core.push_ext(time, 0, kind);
    }

    /// Schedule delivery of `pkt` to `pkt.dst` at absolute time `t`,
    /// bypassing links. Used to inject external (ingress) traffic.
    pub fn inject(&mut self, t: SimTime, pkt: Packet) {
        assert!(t >= self.core.now, "cannot inject into the past");
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
        self.core.start();
    }

    /// Run until simulated time reaches `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: SimTime) {
        self.run_until_quiescent(t);
        self.core.now = self.core.now.max(t);
    }

    /// Run for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.core.now + d;
        self.run_until(t);
    }

    /// Run until the event queue drains or `limit` is reached; returns the
    /// final simulated time (which never moves backwards).
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> SimTime {
        self.core.start();
        self.core.run_window(limit.0.saturating_add(1));
        if !self.core.queue.is_empty() {
            self.core.now = self.core.now.max(limit);
        }
        self.core.now
    }

    /// Update a multicast group's membership (also reachable from node
    /// context via the deployment layer's controller).
    pub fn set_group(&mut self, group: GroupId, members: Vec<NodeId>) {
        self.core.topo.set_group(group, members);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::{Ctx, DropReason};
    use std::net::Ipv4Addr;
    use std::rc::Rc;
    use swishmem_wire::{DataPacket, FlowKey, PacketBody};

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

    /// A limit in the past must not rewind the clock: the fifth tick is
    /// still pending at 5 ms when the run has already reached 4.5 ms.
    #[test]
    fn run_until_quiescent_never_rewinds_the_clock() {
        let mut sim = Simulator::new(1);
        sim.add_node(NodeId(0), Box::new(Ticker::default()));
        sim.run_until(SimTime(4_500_000));
        assert_eq!(
            sim.run_until_quiescent(SimTime(2_000_000)),
            SimTime(4_500_000)
        );
        assert_eq!(sim.now(), SimTime(4_500_000));
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
