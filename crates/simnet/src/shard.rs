//! Sharded parallel simulation: conservative PDES over time-window
//! barriers.
//!
//! [`ShardedEngine`] partitions the topology into shards that each own a
//! slice of nodes and run a private event heap (optionally on a dedicated
//! worker thread), exchanging cross-shard frames at deterministic
//! time-window barriers. The lookahead bound is the minimum one-way link
//! latency Δ over the whole topology: a frame sent at `t` cannot arrive
//! before `t + Δ`, so shards that process windows `[kΔ, (k+1)Δ)` in
//! lockstep and trade mail between windows never receive an event behind
//! their local clock — the classic conservative-PDES argument, with the
//! window grid anchored at absolute zero so it is identical for every
//! shard count.
//!
//! # Determinism contract
//!
//! * **Shard count is a pure performance knob.** For `S ≥ 2` every node
//!   owns an RNG stream forked from the run seed via splitmix64 and every
//!   scheduled event carries a globally unique `(time, key)` pair whose
//!   key encodes its origin, so the processing order seen by any one node
//!   — and the merged stats/trace/span/observer output — is identical for
//!   `S = 2, 4, 8, …` and for any worker-thread count.
//! * **`S = 1` is bit-exact with [`crate::sim::Simulator`].** The single
//!   shard runs the legacy algorithm verbatim: one global RNG seeded
//!   `seed_from_u64(seed)` and one global insertion sequence, reproducing
//!   the golden determinism fingerprint unchanged.
//!
//! The two regimes necessarily differ from each other (a global RNG
//! cannot be partitioned), which is why the contract is stated this way:
//! `S = 1` preserves history, `S ≥ 2` are mutually identical.
//!
//! # Event keys
//!
//! In PDES mode a node-originated event gets the key
//! `(origin_id + 1) << 47 | per-origin-counter`; externally scheduled
//! events (injections, fault schedules) draw from an engine-level counter
//! and stay below `2^47`. Keys are unique across shards, so the event
//! heap's pop order is insertion-independent ([`crate::events`] pins
//! this) and the barrier's mailbox drain order is irrelevant.

use crate::ctx::{Command, Ctx, GroupId};
use crate::events::{EventKind, EventQueue};
use crate::fault::{FaultAction, FaultSchedule, LinkOverlay};
use crate::journal::{JournalCollector, JournalRecord};
use crate::observe::{ObserverHandle, OwnedNetEvent};
use crate::sim::NodeObj;
use crate::span::{SpanCollector, SpanEvent};
use crate::stats::{DropReason, NetStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::TraceHandle;
use crate::wire_check::wire_fidelity_check;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;
use swishmem_wire::cursor::Writer;
use swishmem_wire::{NodeId, Packet, PacketBody};

/// External events keep keys below this bit; node-origin keys sit above,
/// so the two spaces never collide.
const ORIGIN_SHIFT: u32 = 47;

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

/// Node-id → shard lookup, shared by all shard cores.
#[derive(Default)]
struct ShardMap {
    /// `NodeId.index()` → shard. Unregistered ids map to shard 0, which
    /// makes their `NoRoute` accounting land deterministically.
    of: Vec<u32>,
}

impl ShardMap {
    #[inline]
    fn shard_of(&self, id: NodeId) -> u32 {
        self.of.get(id.index()).copied().unwrap_or(0)
    }
}

/// A cross-shard frame in flight, parked in a mailbox until the barrier.
struct Mail {
    time: u64,
    key: u64,
    to: NodeId,
    pkt: Packet,
    corrupt: bool,
}

/// A deferred multicast-group update (PDES mode): collected at the
/// barrier, sorted by `(time, key)`, and applied to every shard's
/// topology copy uniformly, so group membership is replicated and takes
/// effect from the next window regardless of which shard issued it.
#[derive(Clone)]
struct GroupCmd {
    time: u64,
    key: u64,
    group: GroupId,
    members: Vec<NodeId>,
}

/// How a shard core allocates event keys and randomness.
enum Mode {
    /// `S = 1`: the legacy algorithm — one global RNG, one global
    /// insertion sequence shared by external and internal events.
    Legacy { rng: StdRng, seq: u64 },
    /// `S ≥ 2`: per-node RNG streams and per-origin key counters,
    /// indexed by local slot.
    Pdes { rngs: Vec<StdRng>, ctrs: Vec<u64> },
}

struct ShardSlot {
    id: NodeId,
    node: Box<dyn NodeObj + Send>,
    failed: bool,
}

/// Sentinel in the id → slot table.
const ABSENT: u32 = u32::MAX;

/// One shard core: a self-contained event loop over the nodes it owns.
/// `Send`, so the windowed run loop can hand cores to worker threads.
struct Engine {
    shard: u32,
    now: SimTime,
    queue: EventQueue,
    node_index: Vec<u32>,
    nodes: Vec<ShardSlot>,
    topo: Topology,
    mode: Mode,
    stats: NetStats,
    events_processed: u64,
    peak_queue_depth: usize,
    /// Delivered-frame buffer `(time, key, pkt)`, when a trace handle is
    /// attached upstream; merged into it after each run segment.
    trace_buf: Option<Vec<(u64, u64, Packet)>>,
    /// Owned span sink, when a span handle is attached upstream.
    spans: Option<RefCell<SpanCollector>>,
    /// Owned journal sink, when a journal handle is attached upstream.
    journal: Option<RefCell<JournalCollector>>,
    /// Observer-event buffer `(time, key, event)`, when observers are
    /// registered upstream; replayed through them after each run segment.
    obs_buf: Option<Vec<(u64, u64, OwnedNetEvent)>>,
    /// Per-destination-shard mailboxes, drained at window barriers.
    outbox: Vec<Vec<Mail>>,
    /// Deferred group updates (PDES mode).
    group_out: Vec<GroupCmd>,
    cmd_scratch: Vec<Command>,
    member_scratch: Vec<NodeId>,
    map: Arc<ShardMap>,
    wire_check: bool,
    /// Pooled encode buffer of the wire check (empty until armed).
    wire_scratch: Writer,
}

impl Engine {
    fn new(
        shard: u32,
        shards: usize,
        topo: Topology,
        legacy_seed: Option<u64>,
        map: Arc<ShardMap>,
    ) -> Engine {
        Engine {
            shard,
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            node_index: Vec::new(),
            nodes: Vec::new(),
            topo,
            mode: match legacy_seed {
                Some(seed) => Mode::Legacy {
                    rng: StdRng::seed_from_u64(seed),
                    seq: 0,
                },
                None => Mode::Pdes {
                    rngs: Vec::new(),
                    ctrs: Vec::new(),
                },
            },
            stats: NetStats::default(),
            events_processed: 0,
            peak_queue_depth: 0,
            trace_buf: None,
            spans: None,
            journal: None,
            obs_buf: None,
            outbox: (0..shards).map(|_| Vec::new()).collect(),
            group_out: Vec::new(),
            cmd_scratch: Vec::new(),
            member_scratch: Vec::new(),
            map,
            wire_check: false,
            wire_scratch: Writer::new(),
        }
    }

    fn add_node(&mut self, id: NodeId, node: Box<dyn NodeObj + Send>, run_seed: u64) {
        let i = id.index();
        if i >= self.node_index.len() {
            self.node_index.resize(i + 1, ABSENT);
        }
        assert!(self.node_index[i] == ABSENT, "duplicate node id {id}");
        self.node_index[i] = self.nodes.len() as u32;
        self.nodes.push(ShardSlot {
            id,
            node,
            failed: false,
        });
        if let Mode::Pdes { rngs, ctrs } = &mut self.mode {
            rngs.push(StdRng::seed_from_u64(node_seed(run_seed, id)));
            ctrs.push(0);
        }
    }

    #[inline]
    fn slot_of(&self, id: NodeId) -> Option<usize> {
        match self.node_index.get(id.index()) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.slot_of(id)
            .and_then(|s| (*self.nodes[s].node).as_any().downcast_ref())
    }

    fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let s = self.slot_of(id)?;
        (*self.nodes[s].node).as_any_mut().downcast_mut()
    }

    /// Allocate the key for an event originated by the node in
    /// `origin_slot`. Legacy mode draws the global sequence; PDES mode
    /// draws the origin's counter, which advances identically under any
    /// partition because a node's processing is partition-invariant.
    fn alloc_key(&mut self, origin_slot: usize) -> u64 {
        match &mut self.mode {
            Mode::Legacy { seq, .. } => {
                let k = *seq;
                *seq += 1;
                k
            }
            Mode::Pdes { ctrs, .. } => {
                let c = ctrs[origin_slot];
                ctrs[origin_slot] += 1;
                (u64::from(self.nodes[origin_slot].id.0) + 1) << ORIGIN_SHIFT | c
            }
        }
    }

    #[inline]
    fn push(&mut self, time: SimTime, key: u64, kind: EventKind) {
        self.queue.push(time, key, kind);
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len());
    }

    /// Schedule an externally keyed event. Legacy mode substitutes its
    /// global sequence so `S = 1` reproduces the sequential engine's
    /// key stream bit-for-bit.
    fn push_ext(&mut self, time: SimTime, key: u64, kind: EventKind) {
        match &mut self.mode {
            Mode::Legacy { seq, .. } => {
                let k = *seq;
                *seq += 1;
                self.queue.push(time, k, kind);
            }
            Mode::Pdes { .. } => self.queue.push(time, key, kind),
        }
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len());
    }

    #[inline]
    fn push_mail(&mut self, m: Mail) {
        self.push(
            SimTime(m.time),
            m.key,
            EventKind::Deliver {
                to: m.to,
                pkt: m.pkt,
                corrupt: m.corrupt,
            },
        );
    }

    /// `on_start` for every owned node, in id order (matches the
    /// sequential engine's sorted start order when `S = 1`).
    fn start(&mut self) {
        let mut order: Vec<(NodeId, usize)> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(s, n)| (n.id, s))
            .collect();
        order.sort();
        for (_, slot) in order {
            self.dispatch(slot, |node, ctx| node.on_start(ctx));
        }
    }

    /// Process every pending event strictly before `end_excl`.
    fn run_window(&mut self, end_excl: u64) {
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
                        if let Some(buf) = &mut self.trace_buf {
                            buf.push((time.0, key, pkt.clone()));
                        }
                        if let Some(buf) = &mut self.obs_buf {
                            buf.push((
                                time.0,
                                key,
                                OwnedNetEvent::Delivered {
                                    to,
                                    pkt: pkt.clone(),
                                },
                            ));
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
                        if let Some(buf) = &mut self.obs_buf {
                            buf.push((time.0, key, OwnedNetEvent::NodeFailed { node }));
                        }
                    }
                }
            }
            EventKind::Recover { node } => {
                if let Some(slot) = self.slot_of(node) {
                    if std::mem::replace(&mut self.nodes[slot].failed, false) {
                        if let Some(buf) = &mut self.obs_buf {
                            buf.push((time.0, key, OwnedNetEvent::NodeRecovered { node }));
                        }
                        self.dispatch(slot, |n, ctx| n.on_start(ctx));
                    }
                }
            }
            EventKind::LinkSet { a, b, down, notify } => {
                self.topo.set_link_down(a, b, down);
                if notify {
                    if let Some(buf) = &mut self.obs_buf {
                        buf.push((time.0, key, OwnedNetEvent::LinkChanged { a, b, down }));
                    }
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
                    if let Some(buf) = &mut self.obs_buf {
                        buf.push((time.0, key, OwnedNetEvent::LinkDegraded { a, b }));
                    }
                }
            }
            EventKind::LinkRestore { a, b, notify } => {
                self.topo.restore_link(a, b);
                if notify {
                    if let Some(buf) = &mut self.obs_buf {
                        buf.push((time.0, key, OwnedNetEvent::LinkRestored { a, b }));
                    }
                }
            }
            EventKind::Vacant => unreachable!("vacant slab slot in the event queue"),
        }
    }

    fn dispatch<F>(&mut self, slot: usize, f: F)
    where
        F: FnOnce(&mut dyn NodeObj, &mut Ctx<'_>),
    {
        let mut commands = std::mem::take(&mut self.cmd_scratch);
        debug_assert!(commands.is_empty());
        let id = self.nodes[slot].id;
        {
            let rng = match &mut self.mode {
                Mode::Legacy { rng, .. } => rng,
                Mode::Pdes { rngs, .. } => &mut rngs[slot],
            };
            let mut ctx = Ctx {
                now: self.now,
                node: id,
                rng,
                commands: &mut commands,
                spans: self.spans.as_ref(),
                journal: self.journal.as_ref(),
            };
            f(self.nodes[slot].node.as_mut(), &mut ctx);
        }
        for cmd in commands.drain(..) {
            self.apply(id, slot, cmd);
        }
        self.cmd_scratch = commands;
    }

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
                if !candidates.is_empty() {
                    let rng = match &mut self.mode {
                        Mode::Legacy { rng, .. } => rng,
                        Mode::Pdes { rngs, .. } => &mut rngs[from_slot],
                    };
                    let pick = candidates[rng.gen_range(0..candidates.len())];
                    self.member_scratch = candidates;
                    self.transmit(from, from_slot, pick, body);
                } else {
                    self.member_scratch = candidates;
                }
            }
            Command::SetGroup { group, members } => match &mut self.mode {
                Mode::Legacy { .. } => self.topo.set_group(group, members),
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
        if self.nodes[from_slot].failed {
            self.stats.record_drop(DropReason::NodeDown, bytes);
            return;
        }
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
        // RNG draw order mirrors the sequential engine exactly.
        let rng = match &mut self.mode {
            Mode::Legacy { rng, .. } => rng,
            Mode::Pdes { rngs, .. } => &mut rngs[from_slot],
        };
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
        if let Some(arrival) = self
            .topo
            .link_at_mut(link_ref)
            .transmit(self.now, bytes, jitter)
        {
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
                    },
                );
            } else {
                self.outbox[dest as usize].push(Mail {
                    time: arrival.0,
                    key,
                    to: hop,
                    pkt,
                    corrupt,
                });
            }
        } else {
            self.stats.record_drop(DropReason::LinkDown, bytes);
        }
    }
}

/// Barrier decision shared between worker threads.
#[derive(Clone, Copy)]
enum Decision {
    /// Run the window ending (exclusive) at the given time.
    Window(u64),
    /// No events remain at or below the bound.
    Done,
}

fn decide(peeks: &[AtomicU64], window: u64, bound: u64) -> Decision {
    let next = peeks
        .iter()
        .map(|p| p.load(Ordering::SeqCst))
        .min()
        .unwrap_or(u64::MAX);
    if next == u64::MAX || next > bound {
        return Decision::Done;
    }
    let w = next / window;
    let end = w
        .saturating_add(1)
        .saturating_mul(window)
        .min(bound.saturating_add(1));
    Decision::Window(end)
}

/// The sharded simulation engine.
///
/// Drop-in counterpart to [`crate::sim::Simulator`] for `Send` node
/// types: build nodes and topology, schedule external events, run. The
/// topology and node set freeze at the first schedule/inject/run call
/// (the partition is computed then); after that `add_node`,
/// `topology_mut` and `assign_shard` panic.
pub struct ShardedEngine {
    seed: u64,
    shards_req: usize,
    workers: usize,
    master_topo: Topology,
    pending: Vec<(NodeId, Box<dyn NodeObj + Send>)>,
    pins: Vec<(NodeId, u32)>,
    engines: Vec<Engine>,
    map: Arc<ShardMap>,
    /// The lookahead bound Δ, in nanoseconds (window width).
    window: u64,
    now: SimTime,
    ext_ctr: u64,
    started: bool,
    frozen: bool,
    trace: Option<TraceHandle>,
    spans: Option<SpanHandle>,
    journal: Option<JournalHandle>,
    observers: Vec<ObserverHandle>,
    wire_check: bool,
    crit_ns: u64,
}

use crate::journal::JournalHandle;
use crate::span::SpanHandle;

impl ShardedEngine {
    /// Create an engine that will partition its nodes into (at most)
    /// `shards` shards. `shards = 1` selects the legacy bit-exact mode.
    pub fn new(seed: u64, shards: usize) -> ShardedEngine {
        ShardedEngine {
            seed,
            shards_req: shards.max(1),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            master_topo: Topology::new(),
            pending: Vec::new(),
            pins: Vec::new(),
            engines: Vec::new(),
            map: Arc::new(ShardMap::default()),
            window: 1,
            now: SimTime::ZERO,
            ext_ctr: 0,
            started: false,
            frozen: false,
            trace: None,
            spans: None,
            journal: None,
            observers: Vec::new(),
            wire_check: false,
            crit_ns: 0,
        }
    }

    /// Cap the number of worker threads the windowed run loop uses.
    /// Purely a performance knob: results are identical for any value
    /// (1 selects the sequential round-robin loop).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Register a node. Panics after the engine has frozen.
    pub fn add_node(&mut self, id: NodeId, node: Box<dyn NodeObj + Send>) {
        assert!(!self.frozen, "cannot add nodes after the engine froze");
        assert!(
            !self.pending.iter().any(|(i, _)| *i == id),
            "duplicate node id {id}"
        );
        self.pending.push((id, node));
    }

    /// Pin `id` to a specific shard, overriding the partitioner (useful
    /// for tests that need a known cross-shard placement). Panics after
    /// the engine has frozen.
    pub fn assign_shard(&mut self, id: NodeId, shard: u32) {
        assert!(!self.frozen, "cannot pin shards after the engine froze");
        self.pins.push((id, shard));
    }

    /// Mutable topology access (links, groups, routes). Panics after the
    /// engine has frozen — per-shard copies would silently diverge.
    pub fn topology_mut(&mut self) -> &mut Topology {
        assert!(
            !self.frozen,
            "topology is frozen after the first schedule/inject/run"
        );
        &mut self.master_topo
    }

    /// Read access to the topology. After freezing this reflects shard
    /// 0's copy: group membership is replicated across shards, but
    /// transient link state is only authoritative on the shard owning
    /// the link's source node.
    pub fn topology(&self) -> &Topology {
        if self.frozen {
            &self.engines[0].topo
        } else {
            &self.master_topo
        }
    }

    /// See [`crate::sim::Simulator::set_wire_check`].
    pub fn set_wire_check(&mut self, on: bool) {
        self.wire_check = on;
    }

    /// Attach a packet trace; per-shard buffers are merged into it in
    /// deterministic `(time, key, shard)` order after each run call.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Attach a span collector (merged deterministically per run call).
    pub fn set_spans(&mut self, spans: SpanHandle) {
        self.spans = Some(spans);
    }

    /// Attach a journal collector (merged deterministically per run
    /// call, like the span collector).
    pub fn set_journal(&mut self, journal: JournalHandle) {
        self.journal = Some(journal);
    }

    /// Attach a passive observer. Events are buffered per shard during a
    /// run and replayed through the observer in deterministic
    /// `(time, key)` order after each run call — the same contract as
    /// the sequential engine except for the deferred delivery, which the
    /// passivity rule (observers cannot influence the run) makes
    /// equivalent.
    pub fn add_observer(&mut self, obs: ObserverHandle) {
        self.observers.push(obs);
    }

    /// Number of shards (after freezing; the requested count before).
    pub fn shards(&self) -> usize {
        if self.frozen {
            self.engines.len()
        } else {
            self.shards_req
        }
    }

    /// The barrier window width Δ (the lookahead bound).
    pub fn window(&self) -> SimDuration {
        SimDuration(self.window)
    }

    /// The shard owning `id` (meaningful after freezing).
    pub fn shard_of(&self, id: NodeId) -> u32 {
        self.map.shard_of(id)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.engines.iter().map(|e| e.events_processed).sum()
    }

    /// Highest pending-queue depth any shard reached.
    pub fn peak_queue_depth(&self) -> usize {
        self.engines
            .iter()
            .map(|e| e.peak_queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// Merged statistics (per-shard counters summed).
    pub fn stats(&self) -> NetStats {
        let mut out = NetStats::default();
        for e in &self.engines {
            out.merge_from(&e.stats);
        }
        out
    }

    /// Accumulated critical-path compute time: Σ over windows of the
    /// slowest shard's processing time for that window. The
    /// hardware-independent parallel-runtime lower bound — what the wall
    /// clock converges to with one core per shard (plus barrier costs).
    pub fn critical_path_ns(&self) -> u64 {
        self.crit_ns
    }

    /// Typed read access to a node.
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        if !self.frozen {
            return self
                .pending
                .iter()
                .find(|(i, _)| *i == id)
                .and_then(|(_, n)| (**n).as_any().downcast_ref());
        }
        self.engines[self.map.shard_of(id) as usize].node(id)
    }

    /// Typed mutable access to a node.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        if !self.frozen {
            return self
                .pending
                .iter_mut()
                .find(|(i, _)| *i == id)
                .and_then(|(_, n)| (**n).as_any_mut().downcast_mut());
        }
        self.engines[self.map.shard_of(id) as usize].node_mut(id)
    }

    /// Whether `id` is currently failed.
    pub fn is_failed(&self, id: NodeId) -> bool {
        if !self.frozen {
            return false;
        }
        self.engines[self.map.shard_of(id) as usize]
            .slot_of(id)
            .map(|s| self.engines[self.map.shard_of(id) as usize].nodes[s].failed)
            .unwrap_or(false)
    }

    /// Compute the partition, the lookahead bound, and the shard cores.
    /// Idempotent; called by the first schedule/inject/run.
    fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        self.frozen = true;
        let n = self.pending.len();
        let shards = self.shards_req.clamp(1, n.max(1));
        let ids: Vec<NodeId> = self.pending.iter().map(|(id, _)| *id).collect();
        let mut assign: Vec<u32> = if shards <= 1 {
            vec![0; n]
        } else {
            self.master_topo.partition(&ids, shards)
        };
        for &(id, shard) in &self.pins {
            if let Some(i) = ids.iter().position(|&x| x == id) {
                assign[i] = shard.min(shards as u32 - 1);
            }
        }
        let max_idx = ids.iter().map(|id| id.index() + 1).max().unwrap_or(0);
        let mut of = vec![0u32; max_idx];
        for (i, id) in ids.iter().enumerate() {
            of[id.index()] = assign[i];
        }
        self.map = Arc::new(ShardMap { of });

        let delta = self
            .master_topo
            .min_latency()
            .map(|d| d.as_nanos())
            .unwrap_or(1_000);
        assert!(
            shards == 1 || delta > 0,
            "sharded runs need a positive minimum link latency (the lookahead bound); \
             use 1 shard for zero-latency topologies"
        );
        self.window = delta.max(1);

        let legacy = shards == 1;
        self.engines = (0..shards)
            .map(|s| {
                Engine::new(
                    s as u32,
                    shards,
                    self.master_topo.clone(),
                    legacy.then_some(self.seed),
                    self.map.clone(),
                )
            })
            .collect();
        let seed = self.seed;
        for (i, (id, node)) in self.pending.drain(..).enumerate() {
            self.engines[assign[i] as usize].add_node(id, node, seed);
        }
    }

    fn next_ext_key(&mut self) -> u64 {
        let k = self.ext_ctr;
        self.ext_ctr += 1;
        debug_assert!(k < 1 << ORIGIN_SHIFT, "external key space exhausted");
        k
    }

    /// Schedule delivery of `pkt` to `pkt.dst` at `t`, bypassing links.
    pub fn inject(&mut self, t: SimTime, pkt: Packet) {
        self.freeze();
        assert!(t >= self.now, "cannot inject into the past");
        let key = self.next_ext_key();
        let shard = self.map.shard_of(pkt.dst) as usize;
        let to = pkt.dst;
        self.engines[shard].push_ext(
            t,
            key,
            EventKind::Deliver {
                to,
                pkt,
                corrupt: false,
            },
        );
    }

    /// Schedule a fail-stop failure of `node` at `t` (owner shard).
    pub fn schedule_fail(&mut self, t: SimTime, node: NodeId) {
        self.freeze();
        let key = self.next_ext_key();
        let shard = self.map.shard_of(node) as usize;
        self.engines[shard].push_ext(t, key, EventKind::Fail { node });
    }

    /// Schedule recovery of `node` at `t` (owner shard).
    pub fn schedule_recover(&mut self, t: SimTime, node: NodeId) {
        self.freeze();
        let key = self.next_ext_key();
        let shard = self.map.shard_of(node) as usize;
        self.engines[shard].push_ext(t, key, EventKind::Recover { node });
    }

    /// Fire timer `token` on `node` at `t` (owner shard).
    pub fn schedule_trigger(&mut self, t: SimTime, node: NodeId, token: u64) {
        self.freeze();
        let key = self.next_ext_key();
        let shard = self.map.shard_of(node) as usize;
        self.engines[shard].push_ext(t, key, EventKind::Timer { node, token });
    }

    /// Route one link event into both endpoint-owning shards under the
    /// same external key; exactly one copy (the first endpoint's owner)
    /// carries the observer notification.
    fn push_link_event(
        &mut self,
        t: SimTime,
        a: NodeId,
        b: NodeId,
        make: impl Fn(bool) -> EventKind,
    ) {
        let key = self.next_ext_key();
        let sa = self.map.shard_of(a) as usize;
        let sb = self.map.shard_of(b) as usize;
        self.engines[sa].push_ext(t, key, make(true));
        if sb != sa {
            self.engines[sb].push_ext(t, key, make(false));
        }
    }

    /// Schedule the duplex link `a <-> b` going down (or up) at `t`.
    pub fn schedule_link_set(&mut self, t: SimTime, a: NodeId, b: NodeId, down: bool) {
        self.freeze();
        self.push_link_event(t, a, b, |notify| EventKind::LinkSet { a, b, down, notify });
    }

    /// Schedule a parameter overlay on the duplex link `a <-> b` at `t`.
    ///
    /// In PDES mode an overlay may not lower a link's latency below the
    /// lookahead bound Δ — that would let a frame arrive inside the
    /// window it was sent in, behind a peer shard's clock. Such overlays
    /// panic; raise the overlay latency or run single-shard.
    pub fn schedule_degrade(&mut self, t: SimTime, a: NodeId, b: NodeId, overlay: LinkOverlay) {
        self.freeze();
        if self.engines.len() > 1 {
            if let Some(l) = overlay.latency {
                assert!(
                    l.as_nanos() >= self.window,
                    "degrade overlay latency {l} is below the lookahead bound {} — \
                     cross-shard causality would break",
                    SimDuration(self.window)
                );
            }
        }
        self.push_link_event(t, a, b, |notify| EventKind::LinkDegrade {
            a,
            b,
            overlay,
            notify,
        });
    }

    /// Schedule restoration of the duplex link `a <-> b` at `t`.
    pub fn schedule_restore(&mut self, t: SimTime, a: NodeId, b: NodeId) {
        self.freeze();
        self.push_link_event(t, a, b, |notify| EventKind::LinkRestore { a, b, notify });
    }

    /// Install a [`FaultSchedule`]: every action lands on the shard that
    /// owns its target node (link events land on both endpoint owners),
    /// at the same `(time, key)` under any shard count.
    pub fn schedule_faults(&mut self, base: SimTime, sched: &FaultSchedule) {
        self.freeze();
        for ev in sched.events() {
            let t = base + ev.at;
            match ev.action {
                FaultAction::Crash { node } => self.schedule_fail(t, node),
                FaultAction::Restart { node } => self.schedule_recover(t, node),
                FaultAction::LinkDown { a, b } => self.schedule_link_set(t, a, b, true),
                FaultAction::LinkUp { a, b } => self.schedule_link_set(t, a, b, false),
                FaultAction::Degrade { a, b, overlay } => self.schedule_degrade(t, a, b, overlay),
                FaultAction::Restore { a, b } => self.schedule_restore(t, a, b),
                FaultAction::Trigger { node, token } => self.schedule_trigger(t, node, token),
            }
        }
    }

    /// Replace a multicast group's membership (replicated to every
    /// shard's topology copy once frozen).
    pub fn set_group(&mut self, group: GroupId, members: Vec<NodeId>) {
        if !self.frozen {
            self.master_topo.set_group(group, members);
            return;
        }
        for e in &mut self.engines {
            e.topo.set_group(group, members.clone());
        }
    }

    fn sync_sinks(&mut self) {
        let trace_on = self.trace.is_some();
        let spans_on = self.spans.is_some();
        let journal_on = self.journal.is_some();
        let obs_on = !self.observers.is_empty();
        let wc = self.wire_check;
        for e in &mut self.engines {
            if trace_on && e.trace_buf.is_none() {
                e.trace_buf = Some(Vec::new());
            }
            if spans_on && e.spans.is_none() {
                // Per-shard collectors are unbounded; the attached handle
                // enforces its own capacity at merge time.
                e.spans = Some(RefCell::new(SpanCollector::detached(usize::MAX)));
            }
            if journal_on && e.journal.is_none() {
                e.journal = Some(RefCell::new(JournalCollector::detached(usize::MAX)));
            }
            if obs_on && e.obs_buf.is_none() {
                e.obs_buf = Some(Vec::new());
            }
            e.wire_check = wc;
        }
    }

    fn start_once(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for e in &mut self.engines {
            e.start();
        }
        // on_start sends have arrivals ≥ Δ, i.e. beyond window 0's end;
        // exchanging here keeps them ahead of the first windowed run.
        self.exchange();
    }

    /// Move cross-shard mail and deferred group updates between shard
    /// cores (the sequential-loop barrier).
    fn exchange(&mut self) {
        let s = self.engines.len();
        let mut groups: Vec<GroupCmd> = Vec::new();
        for e in &mut self.engines {
            groups.append(&mut e.group_out);
        }
        groups.sort_by_key(|a| (a.time, a.key));
        for g in &groups {
            for e in &mut self.engines {
                e.topo.set_group(g.group, g.members.clone());
            }
        }
        for src in 0..s {
            for dst in 0..s {
                if src == dst {
                    continue;
                }
                let mail = std::mem::take(&mut self.engines[src].outbox[dst]);
                for m in mail {
                    self.engines[dst].push_mail(m);
                }
            }
        }
    }

    fn run_span(&mut self, bound: u64) {
        if self.workers > 1 && self.engines.len() > 1 {
            self.run_span_parallel(bound);
        } else {
            self.run_span_seq(bound);
        }
    }

    fn run_span_seq(&mut self, bound: u64) {
        if self.engines.len() == 1 {
            // Single shard: no barriers needed, one pass to the bound.
            let e = &mut self.engines[0];
            let t0 = Instant::now();
            e.run_window(bound.saturating_add(1));
            self.crit_ns += t0.elapsed().as_nanos() as u64;
            return;
        }
        loop {
            let next = self
                .engines
                .iter()
                .filter_map(|e| e.queue.peek_time())
                .map(|t| t.0)
                .min();
            let Some(next) = next else { break };
            if next > bound {
                break;
            }
            let w = next / self.window;
            let end = w
                .saturating_add(1)
                .saturating_mul(self.window)
                .min(bound.saturating_add(1));
            let mut worst = 0u64;
            for e in &mut self.engines {
                // An idle shard (next event beyond this window) does no
                // work and contributes nothing to the critical path.
                if e.queue.peek_time().map(|t| t.0 >= end).unwrap_or(true) {
                    continue;
                }
                let t0 = Instant::now();
                e.run_window(end);
                worst = worst.max(t0.elapsed().as_nanos() as u64);
            }
            self.crit_ns += worst;
            self.exchange();
        }
    }

    fn run_span_parallel(&mut self, bound: u64) {
        let s = self.engines.len();
        let nw = self.workers.min(s).max(1);
        let window = self.window;
        let barrier = Barrier::new(nw);
        let decision = Mutex::new(Decision::Done);
        let peeks: Vec<AtomicU64> = (0..s).map(|_| AtomicU64::new(u64::MAX)).collect();
        let grid: Vec<Vec<Mutex<Vec<Mail>>>> = (0..s)
            .map(|_| (0..s).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let groups: Mutex<Vec<GroupCmd>> = Mutex::new(Vec::new());
        let win_ns = AtomicU64::new(0);
        let crit = AtomicU64::new(0);

        // Round-robin shard → worker buckets; worker 0 (the calling
        // thread) is the leader that computes window decisions.
        let mut buckets: Vec<Vec<&mut Engine>> = (0..nw).map(|_| Vec::new()).collect();
        for (i, e) in self.engines.iter_mut().enumerate() {
            buckets[i % nw].push(e);
        }

        let work = |leader: bool, mut bucket: Vec<&mut Engine>| {
            for e in bucket.iter() {
                peeks[e.shard as usize].store(
                    e.queue.peek_time().map(|t| t.0).unwrap_or(u64::MAX),
                    Ordering::SeqCst,
                );
            }
            barrier.wait();
            if leader {
                *decision.lock().unwrap() = decide(&peeks, window, bound);
            }
            barrier.wait();
            loop {
                let end = match *decision.lock().unwrap() {
                    Decision::Window(e) => e,
                    Decision::Done => break,
                };
                for e in bucket.iter_mut() {
                    // Idle shards (next event beyond this window) skip
                    // straight to the barrier: no work, no new outbound
                    // mail, zero critical-path contribution.
                    if e.queue.peek_time().map(|t| t.0 >= end).unwrap_or(true) {
                        continue;
                    }
                    let t0 = Instant::now();
                    e.run_window(end);
                    win_ns.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
                    let src = e.shard as usize;
                    for (dst, out) in e.outbox.iter_mut().enumerate() {
                        if !out.is_empty() {
                            grid[src][dst].lock().unwrap().append(out);
                        }
                    }
                    if !e.group_out.is_empty() {
                        groups.lock().unwrap().append(&mut e.group_out);
                    }
                }
                barrier.wait(); // all outboxes and group updates published
                if leader {
                    groups.lock().unwrap().sort_by_key(|a| (a.time, a.key));
                }
                barrier.wait(); // sorted group list readable
                let sorted: Vec<GroupCmd> = groups.lock().unwrap().clone();
                for e in bucket.iter_mut() {
                    for g in &sorted {
                        e.topo.set_group(g.group, g.members.clone());
                    }
                    let dst = e.shard as usize;
                    for row in grid.iter() {
                        let mail = std::mem::take(&mut *row[dst].lock().unwrap());
                        for m in mail {
                            e.push_mail(m);
                        }
                    }
                    peeks[dst].store(
                        e.queue.peek_time().map(|t| t.0).unwrap_or(u64::MAX),
                        Ordering::SeqCst,
                    );
                }
                barrier.wait(); // mail drained, peeks published
                if leader {
                    crit.fetch_add(win_ns.swap(0, Ordering::SeqCst), Ordering::SeqCst);
                    groups.lock().unwrap().clear();
                    *decision.lock().unwrap() = decide(&peeks, window, bound);
                }
                barrier.wait(); // decision readable
            }
        };

        std::thread::scope(|scope| {
            let mut iter = buckets.into_iter();
            let first = iter.next().expect("at least one bucket");
            for bucket in iter {
                let work = &work;
                scope.spawn(move || work(false, bucket));
            }
            work(true, first);
        });

        self.crit_ns += crit.load(Ordering::SeqCst);
    }

    /// Merge per-shard trace/span/observer buffers into the attached
    /// handles, in deterministic order.
    fn drain_sinks(&mut self) {
        let single = self.engines.len() == 1;
        if let Some(handle) = &self.trace {
            let mut all: Vec<(u64, u64, u32, Packet)> = Vec::new();
            for e in &mut self.engines {
                if let Some(buf) = &mut e.trace_buf {
                    let shard = e.shard;
                    all.extend(buf.drain(..).map(|(t, k, p)| (t, k, shard, p)));
                }
            }
            if !single {
                all.sort_by_key(|a| (a.0, a.1, a.2));
            }
            let mut tr = handle.borrow_mut();
            for (t, _, _, p) in &all {
                tr.record(SimTime(*t), p);
            }
        }
        if let Some(handle) = &self.spans {
            let mut all: Vec<SpanEvent> = Vec::new();
            for e in &mut self.engines {
                if let Some(col) = &e.spans {
                    all.append(&mut col.borrow_mut().take_events());
                }
            }
            if !single {
                // Span events carry no key; sort on all fields (exact
                // duplicates are interchangeable, so this is still a
                // shard-count-invariant order). Single-shard runs keep
                // emission order — bit-exact with the sequential engine.
                all.sort_by_key(|e| (e.time, e.trace.0, e.node.0, e.phase));
            }
            let mut sp = handle.borrow_mut();
            for e in &all {
                sp.record(e.time, e.trace, e.node, e.phase);
            }
        }
        if let Some(handle) = &self.journal {
            let mut all: Vec<JournalRecord> = Vec::new();
            for e in &mut self.engines {
                if let Some(col) = &e.journal {
                    all.append(&mut col.borrow_mut().take_records());
                }
            }
            if !single {
                // Journal records carry no key; sort on all fields (exact
                // duplicates are interchangeable, so this order is still
                // shard-count-invariant). Single-shard runs keep emission
                // order — bit-exact with the sequential engine.
                all.sort();
            }
            let mut j = handle.borrow_mut();
            for r in &all {
                j.record(*r);
            }
        }
        if !self.observers.is_empty() {
            let mut all: Vec<(u64, u64, u32, OwnedNetEvent)> = Vec::new();
            for e in &mut self.engines {
                if let Some(buf) = &mut e.obs_buf {
                    let shard = e.shard;
                    all.extend(buf.drain(..).map(|(t, k, ev)| (t, k, shard, ev)));
                }
            }
            if !single {
                all.sort_by_key(|a| (a.0, a.1, a.2));
            }
            for (t, _, _, ev) in &all {
                let view = ev.as_net_event();
                for obs in &self.observers {
                    obs.borrow_mut().on_net_event(SimTime(*t), &view);
                }
            }
        }
    }

    /// Run until simulated time reaches `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: SimTime) {
        self.freeze();
        self.sync_sinks();
        self.start_once();
        self.run_span(t.0);
        for e in &mut self.engines {
            e.now = e.now.max(t);
        }
        self.now = self.now.max(t);
        self.drain_sinks();
    }

    /// Run for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Run until every shard's queue drains or `limit` is reached;
    /// returns the final simulated time.
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> SimTime {
        self.freeze();
        self.sync_sinks();
        self.start_once();
        self.run_span(limit.0);
        let remaining = self.engines.iter().any(|e| !e.queue.is_empty());
        if remaining {
            self.now = limit;
            for e in &mut self.engines {
                e.now = e.now.max(limit);
            }
        } else {
            let last = self.engines.iter().map(|e| e.now).max().unwrap_or(self.now);
            self.now = self.now.max(last);
        }
        self.drain_sinks();
        self.now
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
