//! The one event loop: [`Core`] pops `(time, key)`-ordered events, runs
//! node callbacks atomically, applies their commands, and samples link
//! faults — PAPER.md §5's failure model and §6's atomic per-packet
//! processing, defined once. [`crate::sim::Simulator`] is one
//! `Core<dyn NodeObj, Direct>`; [`crate::shard::ShardedEngine`] is a
//! partition of `Core<dyn NodeObj + Send, Buffered>`s plus the window
//! barriers between them.
//!
//! The instantiations differ in two places only:
//!
//! * **[`Mode`]** — how keys and randomness are allocated. `Global` (the
//!   `Simulator`, and a single shard) draws one RNG and one insertion
//!   sequence; `Pdes` (`S ≥ 2`) gives every node its own RNG stream and
//!   key counter so the run is independent of the partition.
//! * **[`Sink`]** — where the one observation stream goes. Every
//!   [`NetEvent`] the core or a node callback emits is stamped with the
//!   `(time, key)` of the event it belongs to and handed to the sink,
//!   which can reach neither the queue nor an RNG, so passivity
//!   (attaching an observer never perturbs a run) holds by construction.
//!   [`Direct`] calls the observers in place; [`Buffered`] holds the
//!   events of subscribed families, which makes the core `Send`, and the
//!   sharded engine merges the buffers in `(time, key, shard)` order
//!   after each run call.

use crate::ctx::{Command, Ctx, GroupId};
use crate::events::{EventKind, EventQueue};
use crate::observe::{Family, NetEvent, ObserverHandle};
use crate::sim::NodeObj;
use crate::stats::{DropReason, NetStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::wire_check::wire_fidelity_check;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use swishmem_wire::cursor::Writer;
use swishmem_wire::{NodeId, Packet, PacketBody};

/// External events keep keys below this bit; node-origin keys sit above,
/// so the two spaces never collide.
pub(crate) const ORIGIN_SHIFT: u32 = 47;

/// splitmix64 finalizer — the standard seed-stream splitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-node RNG seed: a splitmix64 fork of the run seed by node id. A
/// pure function of `(seed, id)`, so it is independent of the partition.
fn node_seed(seed: u64, id: NodeId) -> u64 {
    splitmix64(seed ^ splitmix64(0x5157_4d45_4d00_0000 | u64::from(id.0)))
}

fn post_inc(c: &mut u64) -> u64 {
    let v = *c;
    *c += 1;
    v
}

/// Where a core's observations go (see the module docs).
pub(crate) trait Sink {
    /// Whether some observer subscribes to `family`.
    fn wants(&self, family: Family) -> bool;
    /// One observation, belonging to the event at `(time, key)`. Callers
    /// hand over only events of a family the sink [`Self::wants`].
    fn emit(&mut self, time: SimTime, key: u64, ev: NetEvent<'_>);
}

/// The attached observers, listed per family in attach order, so an
/// event costs one lookup plus one call per subscriber. The `Simulator`'s
/// sink; the `ShardedEngine` replays its merged shard buffers through
/// one.
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
}

impl Sink for Direct {
    #[inline]
    fn wants(&self, family: Family) -> bool {
        !self.by_family[family as usize].is_empty()
    }
    #[inline]
    fn emit(&mut self, time: SimTime, _key: u64, ev: NetEvent<'_>) {
        for obs in &self.by_family[ev.family() as usize] {
            obs.borrow_mut().on_net_event(time, &ev);
        }
    }
}

/// An observation held by a [`Buffered`] sink until the merge.
pub(crate) enum Held {
    Delivered { to: NodeId, pkt: Packet },
    Injected(Packet),
    Owned(NetEvent<'static>),
}

impl Held {
    fn of(ev: NetEvent<'_>) -> Held {
        match ev {
            NetEvent::Delivered { to, pkt } => Held::Delivered {
                to,
                pkt: pkt.clone(),
            },
            NetEvent::Injected { pkt } => Held::Injected(pkt.clone()),
            NetEvent::NodeFailed { node } => Held::Owned(NetEvent::NodeFailed { node }),
            NetEvent::NodeRecovered { node } => Held::Owned(NetEvent::NodeRecovered { node }),
            NetEvent::LinkChanged { a, b, down } => {
                Held::Owned(NetEvent::LinkChanged { a, b, down })
            }
            NetEvent::LinkDegraded { a, b } => Held::Owned(NetEvent::LinkDegraded { a, b }),
            NetEvent::LinkRestored { a, b } => Held::Owned(NetEvent::LinkRestored { a, b }),
            NetEvent::Span(e) => Held::Owned(NetEvent::Span(e)),
            NetEvent::Journal(r) => Held::Owned(NetEvent::Journal(r)),
        }
    }

    /// The event as observers are shown it.
    pub(crate) fn view(&self) -> NetEvent<'_> {
        match self {
            Held::Delivered { to, pkt } => NetEvent::Delivered { to: *to, pkt },
            Held::Injected(pkt) => NetEvent::Injected { pkt },
            Held::Owned(ev) => *ev,
        }
    }
}

/// A shard core's sink: the events of the families the engine's
/// observers subscribe to, as `(time, key, event)`.
#[derive(Default)]
pub(crate) struct Buffered {
    pub(crate) wants: [bool; Family::ALL.len()],
    pub(crate) held: Vec<(u64, u64, Held)>,
}

impl Sink for Buffered {
    #[inline]
    fn wants(&self, family: Family) -> bool {
        self.wants[family as usize]
    }
    #[inline]
    fn emit(&mut self, time: SimTime, key: u64, ev: NetEvent<'_>) {
        self.held.push((time.0, key, Held::of(ev)));
    }
}

/// Node-id → shard lookup, shared by all cores of one engine.
#[derive(Default)]
pub(crate) struct ShardMap {
    /// `NodeId.index()` → shard. Unregistered ids map to shard 0, which
    /// makes their `NoRoute` accounting land deterministically (and makes
    /// the empty map the `Simulator`'s: everything is local to shard 0).
    pub(crate) of: Vec<u32>,
}

impl ShardMap {
    #[inline]
    pub(crate) fn shard_of(&self, id: NodeId) -> u32 {
        self.of.get(id.index()).copied().unwrap_or(0)
    }
}

/// A cross-shard frame in flight, parked in a mailbox until the barrier.
pub(crate) struct Mail {
    time: u64,
    key: u64,
    to: NodeId,
    pkt: Packet,
    corrupt: bool,
    len: u32,
}

/// A deferred multicast-group update (PDES mode): collected at the
/// barrier, sorted by `(time, key)`, and applied to every shard's
/// topology copy uniformly, so group membership is replicated and takes
/// effect from the next window regardless of which shard issued it.
#[derive(Clone)]
pub(crate) struct GroupCmd {
    pub(crate) time: u64,
    pub(crate) key: u64,
    pub(crate) group: GroupId,
    pub(crate) members: Vec<NodeId>,
}

/// How a core allocates event keys and randomness.
enum Mode {
    /// One RNG and one insertion sequence shared by external and
    /// internal events — the regime the golden fingerprints pin.
    Global { rng: StdRng, seq: u64 },
    /// Per-node RNG streams forked from `seed` and per-origin key
    /// counters, indexed by local slot.
    Pdes {
        seed: u64,
        rngs: Vec<StdRng>,
        ctrs: Vec<u64>,
    },
}

impl Mode {
    #[inline]
    fn rng(&mut self, slot: usize) -> &mut StdRng {
        match self {
            Mode::Global { rng, .. } => rng,
            Mode::Pdes { rngs, .. } => &mut rngs[slot],
        }
    }
}

struct Slot<N: ?Sized> {
    id: NodeId,
    failed: bool,
    node: Box<N>,
}

/// Sentinel in the id → slot table.
const ABSENT: u32 = u32::MAX;

/// A self-contained event loop over the nodes it owns.
pub(crate) struct Core<N: ?Sized + NodeObj, K: Sink> {
    pub(crate) shard: u32,
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue,
    /// `NodeId.0` → slot in `nodes` (`ABSENT` when unregistered).
    node_index: Vec<u32>,
    nodes: Vec<Slot<N>>,
    pub(crate) topo: Topology,
    mode: Mode,
    pub(crate) stats: NetStats,
    pub(crate) events_processed: u64,
    pub(crate) peak_queue_depth: usize,
    pub(crate) sink: K,
    /// Per-destination-shard mailboxes, drained at window barriers.
    pub(crate) outbox: Vec<Vec<Mail>>,
    /// Deferred group updates (PDES mode).
    pub(crate) group_out: Vec<GroupCmd>,
    map: Arc<ShardMap>,
    pub(crate) started: bool,
    pub(crate) wire_check: bool,
    /// Pooled encode buffer of the wire check (empty until armed).
    wire_scratch: Writer,
    /// Pooled command buffer reused across dispatches.
    cmd_scratch: Vec<Command>,
    /// Pooled member buffer reused across multicast/anycast fan-outs.
    member_scratch: Vec<NodeId>,
}

impl<N: ?Sized + NodeObj, K: Sink + Default> Core<N, K> {
    /// Core number `shard` of `shards`, over its own copy of `topo`. A
    /// lone core runs the global regime; a partition cannot (one RNG
    /// cannot be split), so its cores run the PDES regime.
    pub(crate) fn new(
        shard: u32,
        shards: usize,
        map: Arc<ShardMap>,
        topo: Topology,
        seed: u64,
    ) -> Self {
        let mode = if shards == 1 {
            let rng = StdRng::seed_from_u64(seed);
            Mode::Global { rng, seq: 0 }
        } else {
            let (rngs, ctrs) = (Vec::new(), Vec::new());
            Mode::Pdes { seed, rngs, ctrs }
        };
        Core {
            shard,
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            node_index: Vec::new(),
            nodes: Vec::new(),
            topo,
            mode,
            stats: NetStats::default(),
            events_processed: 0,
            peak_queue_depth: 0,
            sink: K::default(),
            outbox: (0..shards).map(|_| Vec::new()).collect(),
            group_out: Vec::new(),
            map,
            started: false,
            wire_check: false,
            wire_scratch: Writer::new(),
            cmd_scratch: Vec::new(),
            member_scratch: Vec::new(),
        }
    }
}

impl<N: ?Sized + NodeObj, K: Sink> Core<N, K> {
    /// Register a node under `id`. Panics if `id` is already taken.
    pub(crate) fn add_node(&mut self, id: NodeId, node: Box<N>) {
        let i = id.index();
        if i >= self.node_index.len() {
            self.node_index.resize(i + 1, ABSENT);
        }
        assert!(self.node_index[i] == ABSENT, "duplicate node id {id}");
        self.node_index[i] = self.nodes.len() as u32;
        self.nodes.push(Slot {
            id,
            failed: false,
            node,
        });
        if let Mode::Pdes { seed, rngs, ctrs } = &mut self.mode {
            rngs.push(StdRng::seed_from_u64(node_seed(*seed, id)));
            ctrs.push(0);
        }
    }

    /// Slot index of `id`, if registered.
    #[inline]
    fn slot_of(&self, id: NodeId) -> Option<usize> {
        match self.node_index.get(id.index()) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// Typed read access to a node (post-run inspection).
    pub(crate) fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        // Deref through the Box explicitly: the blanket AsAny impl would
        // otherwise resolve on the `Box` itself.
        self.slot_of(id)
            .and_then(|s| (*self.nodes[s].node).as_any().downcast_ref())
    }

    /// Typed mutable access to a node.
    pub(crate) fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let s = self.slot_of(id)?;
        (*self.nodes[s].node).as_any_mut().downcast_mut()
    }

    /// Whether `id` is currently failed.
    pub(crate) fn is_failed(&self, id: NodeId) -> bool {
        self.slot_of(id).is_some_and(|s| self.nodes[s].failed)
    }

    /// Allocate the key for an event originated by the node in
    /// `origin_slot`. Global mode draws the one sequence; PDES mode draws
    /// the origin's counter, which advances identically under any
    /// partition because a node's processing is partition-invariant.
    fn alloc_key(&mut self, origin_slot: usize) -> u64 {
        match &mut self.mode {
            Mode::Global { seq, .. } => post_inc(seq),
            Mode::Pdes { ctrs, .. } => {
                let origin = u64::from(self.nodes[origin_slot].id.0) + 1;
                origin << ORIGIN_SHIFT | post_inc(&mut ctrs[origin_slot])
            }
        }
    }

    #[inline]
    fn push(&mut self, time: SimTime, key: u64, kind: EventKind) {
        self.queue.push(time, key, kind);
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len());
    }

    /// Schedule an external event (an injection or a scheduled fault).
    /// PDES mode uses the caller's engine-wide `key`; global mode ignores
    /// it and draws its own sequence, like every other event there.
    pub(crate) fn push_ext(&mut self, time: SimTime, key: u64, kind: EventKind) {
        let key = match &mut self.mode {
            Mode::Global { seq, .. } => post_inc(seq),
            Mode::Pdes { .. } => key,
        };
        self.push(time, key, kind);
    }

    /// Hand `ev` to the sink if some observer wants its family: one
    /// branch when nobody does.
    #[inline]
    pub(crate) fn emit(&mut self, time: SimTime, key: u64, ev: NetEvent<'_>) {
        if self.sink.wants(ev.family()) {
            self.sink.emit(time, key, ev);
        }
    }

    /// Enqueue a frame another shard mailed here.
    #[inline]
    pub(crate) fn push_mail(&mut self, m: Mail) {
        self.push(
            SimTime(m.time),
            m.key,
            EventKind::Deliver {
                to: m.to,
                pkt: m.pkt,
                corrupt: m.corrupt,
                len: m.len,
            },
        );
    }

    /// Call `on_start` on every owned node, in id order (idempotent).
    pub(crate) fn start(&mut self) {
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
        for (id, slot) in order {
            // What a node emits from `on_start` sorts under a key of its
            // own origin space, so ties never break by shard.
            let key = (u64::from(id.0) + 1) << ORIGIN_SHIFT;
            self.dispatch(slot, key, |node, ctx| node.on_start(ctx));
        }
    }

    /// Process every pending event strictly before `end_excl`.
    pub(crate) fn run_window(&mut self, end_excl: u64) {
        while let Some(t) = self.queue.peek_time() {
            if t.0 >= end_excl {
                break;
            }
            let (time, key, kind) = self.queue.pop().expect("peeked");
            self.process(time, key, kind);
        }
    }

    fn process(&mut self, time: SimTime, key: u64, kind: EventKind) {
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        // Link events are replicated to both endpoint-owning shards; only
        // the observable copy (`notify`) counts, so `events_processed`
        // tallies logical events and stays shard-count-invariant.
        let replica = matches!(
            kind,
            EventKind::LinkSet { notify: false, .. }
                | EventKind::LinkDegrade { notify: false, .. }
                | EventKind::LinkRestore { notify: false, .. }
        );
        if !replica {
            self.events_processed += 1;
        }
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
                        self.dispatch(slot, key, |node, ctx| node.on_corrupt_packet(pkt, ctx));
                    }
                    Some(slot) => {
                        self.stats.record_delivery(&pkt, len);
                        if self.wire_check {
                            wire_fidelity_check(&pkt, len, &mut self.wire_scratch);
                        }
                        let ev = NetEvent::Delivered { to, pkt: &pkt };
                        self.emit(time, key, ev);
                        self.dispatch(slot, key, |node, ctx| node.on_packet(pkt, ctx));
                    }
                }
            }
            EventKind::Timer { node, token } => {
                if let Some(slot) = self.slot_of(node) {
                    if !self.nodes[slot].failed {
                        self.dispatch(slot, key, |n, ctx| n.on_timer(token, ctx));
                    }
                }
            }
            EventKind::Fail { node } => {
                if let Some(slot) = self.slot_of(node) {
                    let s = &mut self.nodes[slot];
                    if !s.failed {
                        s.failed = true;
                        s.node.on_fail();
                        self.emit(time, key, NetEvent::NodeFailed { node });
                    }
                }
            }
            EventKind::Recover { node } => {
                if let Some(slot) = self.slot_of(node) {
                    if std::mem::replace(&mut self.nodes[slot].failed, false) {
                        self.emit(time, key, NetEvent::NodeRecovered { node });
                        self.dispatch(slot, key, |n, ctx| n.on_start(ctx));
                    }
                }
            }
            EventKind::LinkSet { a, b, down, notify } => {
                self.topo.set_link_down(a, b, down);
                if notify {
                    let ev = NetEvent::LinkChanged { a, b, down };
                    self.emit(time, key, ev);
                }
            }
            EventKind::LinkDegrade {
                a,
                b,
                overlay,
                notify,
            } => {
                self.topo.degrade_link(a, b, &overlay);
                if notify {
                    self.emit(time, key, NetEvent::LinkDegraded { a, b });
                }
            }
            EventKind::LinkRestore { a, b, notify } => {
                self.topo.restore_link(a, b);
                if notify {
                    self.emit(time, key, NetEvent::LinkRestored { a, b });
                }
            }
            EventKind::Vacant => unreachable!("vacant slab slot in the event queue"),
        }
    }

    /// Run a node callback for the event at `(now, key)` and apply the
    /// commands it issued. The command buffer is pooled: steady-state
    /// dispatches allocate nothing.
    fn dispatch<F>(&mut self, slot: usize, key: u64, f: F)
    where
        F: FnOnce(&mut N, &mut Ctx<'_>),
    {
        let mut commands = std::mem::take(&mut self.cmd_scratch);
        debug_assert!(commands.is_empty());
        let id = self.nodes[slot].id;
        {
            let mut ctx = Ctx {
                now: self.now,
                node: id,
                key,
                rng: self.mode.rng(slot),
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
                let key = self.alloc_key(from_slot);
                self.push(t, key, EventKind::Timer { node: from, token });
            }
            Command::SendRandom { group, body } => {
                let candidates = self.take_members(group, from);
                let pick = (!candidates.is_empty())
                    .then(|| candidates[self.mode.rng(from_slot).gen_range(0..candidates.len())]);
                self.member_scratch = candidates;
                if let Some(pick) = pick {
                    self.transmit(from, from_slot, pick, body);
                }
            }
            Command::SetGroup { group, members } => match self.mode {
                Mode::Global { .. } => self.topo.set_group(group, members),
                Mode::Pdes { .. } => {
                    let key = self.alloc_key(from_slot);
                    self.group_out.push(GroupCmd {
                        time: self.now.0,
                        key,
                        group,
                        members,
                    });
                }
            },
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
        let rng = self.mode.rng(from_slot);
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
        let key = self.alloc_key(from_slot);
        let dest = self.map.shard_of(hop);
        if dest == self.shard {
            self.push(
                arrival,
                key,
                EventKind::Deliver {
                    to: hop,
                    pkt,
                    corrupt,
                    len: bytes as u32,
                },
            );
        } else {
            self.outbox[dest as usize].push(Mail {
                time: arrival.0,
                key,
                to: hop,
                pkt,
                corrupt,
                len: bytes as u32,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_seeds_are_distinct_and_stable() {
        let a = node_seed(1234, NodeId(0));
        let b = node_seed(1234, NodeId(1));
        let c = node_seed(1235, NodeId(0));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, node_seed(1234, NodeId(0)));
    }

    #[test]
    fn shard_map_defaults_unknown_ids_to_zero() {
        let m = ShardMap { of: vec![2, 1] };
        assert_eq!(m.shard_of(NodeId(0)), 2);
        assert_eq!(m.shard_of(NodeId(1)), 1);
        assert_eq!(m.shard_of(NodeId(999)), 0);
    }
}
