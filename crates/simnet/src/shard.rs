//! Sharded parallel simulation: conservative PDES over time-window
//! barriers.
//!
//! [`ShardedEngine`] partitions the topology into shards that each own a
//! slice of nodes and run a private [`Core`] (optionally on a dedicated
//! worker thread), exchanging cross-shard frames at deterministic
//! time-window barriers. Event processing lives in [`crate::core`]; this
//! file is the partition, the windows, the barriers and the merge of the
//! shards' observation buffers.
//!
//! The lookahead bound is the minimum one-way link latency Δ over the
//! whole topology: a frame sent at `t` cannot arrive before `t + Δ`, so
//! shards that process windows `[kΔ, (k+1)Δ)` in lockstep and trade mail
//! between windows never receive an event behind their local clock — the
//! classic conservative-PDES argument, with the window grid anchored at
//! absolute zero so it is identical for every shard count.
//!
//! # Determinism contract
//!
//! * **Shard count is a pure performance knob.** For `S ≥ 2` every node
//!   owns an RNG stream forked from the run seed via splitmix64 and every
//!   scheduled event carries a globally unique `(time, key)` pair whose
//!   key encodes its origin, so the processing order seen by any one node
//!   — and the merged stats and observation stream, spans and journal
//!   records included — is identical for `S = 2, 4, 8, …` and for any
//!   worker-thread count.
//! * **`S = 1` is bit-exact with [`crate::sim::Simulator`].** Both are the
//!   same `Core` in the global-RNG regime (one RNG seeded
//!   `seed_from_u64(seed)`, one insertion sequence); they differ only in
//!   sink and in topology freezing, so the golden fingerprint is shared.
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
//! and stay below `2^47`; what a node emits from `on_start` carries the
//! key `(id + 1) << 47`. Keys are unique across shards, so the event
//! heap's pop order is insertion-independent ([`crate::events`] pins
//! this), the barrier's mailbox drain order is irrelevant, and the
//! observation merge never breaks a tie by shard.

use crate::core::{Buffered, Core, Direct, GroupCmd, Mail, ShardMap, Sink, ORIGIN_SHIFT};
use crate::ctx::GroupId;
use crate::events::EventKind;
use crate::fault::{FaultAction, FaultSchedule, LinkOverlay};
use crate::observe::{Family, NetEvent, ObserverHandle};
use crate::sim::NodeObj;
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;
use swishmem_wire::{NodeId, Packet};

/// One shard core. `Send` (boxed `Send` nodes, owned sink buffers), so
/// the windowed run loop can hand cores to worker threads.
type Engine = Core<dyn NodeObj + Send, Buffered>;

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
    frozen: bool,
    /// The attached observers; the merged shard buffers replay through it.
    observers: Direct,
    wire_check: bool,
    crit_ns: u64,
}

impl ShardedEngine {
    /// Create an engine that will partition its nodes into (at most)
    /// `shards` shards. `shards = 1` selects the global-RNG regime.
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
            frozen: false,
            observers: Direct::default(),
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

    /// Attach a passive observer of the families it wants. Events are
    /// buffered per shard during a run and replayed through the observer
    /// in deterministic `(time, key, shard)` order after each run call —
    /// the same contract as the sequential engine except for the deferred
    /// delivery, which the passivity rule (observers cannot influence the
    /// run) makes equivalent.
    pub fn add_observer(&mut self, obs: ObserverHandle) {
        self.observers.add(obs);
        self.sync_sinks();
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
        self.engines[self.map.shard_of(id) as usize].is_failed(id)
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

        self.engines = (0..shards)
            .map(|s| {
                let topo = self.master_topo.clone();
                Core::new(s as u32, shards, self.map.clone(), topo, self.seed)
            })
            .collect();
        for (i, (id, node)) in self.pending.drain(..).enumerate() {
            self.engines[assign[i] as usize].add_node(id, node);
        }
        self.sync_sinks();
    }

    /// Draw the key of an external event at `t`. Every external event
    /// draws one, so this is where the past is refused: an event before
    /// `now` would run a shard's clock backwards when processed.
    fn next_ext_key(&mut self, t: SimTime) -> u64 {
        assert!(t >= self.now, "cannot inject into the past");
        let k = self.ext_ctr;
        self.ext_ctr += 1;
        debug_assert!(k < 1 << ORIGIN_SHIFT, "external key space exhausted");
        k
    }

    /// Schedule delivery of `pkt` to `pkt.dst` at `t`, bypassing links.
    pub fn inject(&mut self, t: SimTime, pkt: Packet) {
        self.freeze();
        let key = self.next_ext_key(t);
        let e = &mut self.engines[self.map.shard_of(pkt.dst) as usize];
        e.emit(t, key, NetEvent::Injected { pkt: &pkt });
        let (to, len) = (pkt.dst, pkt.wire_len() as u32);
        let kind = EventKind::Deliver {
            to,
            pkt,
            corrupt: false,
            len,
        };
        e.push_ext(t, key, kind);
    }

    /// Schedule a fail-stop failure of `node` at `t` (owner shard).
    pub fn schedule_fail(&mut self, t: SimTime, node: NodeId) {
        self.freeze();
        let key = self.next_ext_key(t);
        let shard = self.map.shard_of(node) as usize;
        self.engines[shard].push_ext(t, key, EventKind::Fail { node });
    }

    /// Schedule recovery of `node` at `t` (owner shard).
    pub fn schedule_recover(&mut self, t: SimTime, node: NodeId) {
        self.freeze();
        let key = self.next_ext_key(t);
        let shard = self.map.shard_of(node) as usize;
        self.engines[shard].push_ext(t, key, EventKind::Recover { node });
    }

    /// Fire timer `token` on `node` at `t` (owner shard).
    pub fn schedule_trigger(&mut self, t: SimTime, node: NodeId, token: u64) {
        self.freeze();
        let key = self.next_ext_key(t);
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
        let key = self.next_ext_key(t);
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

    /// Tell every shard's sink which families to hold, and arm the wire
    /// check as configured.
    fn sync_sinks(&mut self) {
        for e in &mut self.engines {
            e.sink.wants = Family::ALL.map(|f| self.observers.wants(f));
            e.wire_check = self.wire_check;
        }
    }

    fn start_once(&mut self) {
        if self.engines[0].started {
            return;
        }
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

    /// Replay the shards' buffered observations through the observers,
    /// merged in `(time, key, shard)` order; the sort is stable, so what
    /// one event's callback emitted keeps its emission order. Single-shard
    /// runs keep emission order outright — bit-exact with the sequential
    /// engine.
    fn drain_sinks(&mut self) {
        let mut all = Vec::new();
        for e in &mut self.engines {
            let shard = e.shard;
            all.extend(e.sink.held.drain(..).map(|(t, k, ev)| (t, k, shard, ev)));
        }
        if self.engines.len() > 1 {
            all.sort_by_key(|a| (a.0, a.1, a.2));
        }
        for (t, k, _, held) in &all {
            self.observers.emit(SimTime(*t), *k, held.view());
        }
    }

    /// Advance every clock to at least `t`; no clock ever moves back.
    fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
        for e in &mut self.engines {
            e.now = e.now.max(t);
        }
    }

    /// Run until simulated time reaches `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: SimTime) {
        self.run_until_quiescent(t);
        self.advance_to(t);
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
        if self.engines.iter().any(|e| !e.queue.is_empty()) {
            self.advance_to(limit);
        } else {
            let last = self.engines.iter().map(|e| e.now).max();
            self.now = self.now.max(last.unwrap_or(self.now));
        }
        self.drain_sinks();
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, Node};

    /// Arms one timer 12 ms out and otherwise does nothing.
    struct Sleeper;
    impl Node for Sleeper {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::millis(12), 0);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    }

    /// A limit in the past must not rewind the clock, at one shard or two.
    #[test]
    fn run_until_quiescent_never_rewinds_the_clock() {
        for shards in [1, 2] {
            let mut sim = ShardedEngine::new(1, shards);
            sim.add_node(NodeId(0), Box::new(Sleeper));
            sim.add_node(NodeId(1), Box::new(Sleeper));
            sim.run_until(SimTime(10_000_000));
            let end = sim.run_until_quiescent(SimTime(5_000_000));
            assert_eq!((end, sim.now()), (SimTime(10_000_000), SimTime(10_000_000)));
        }
    }

    /// A fault schedule based before `now` would hand its trigger a
    /// rewound clock; it panics in every build profile, like `inject`.
    #[test]
    #[should_panic(expected = "cannot inject into the past")]
    fn external_event_before_now_panics() {
        let mut sim = ShardedEngine::new(1, 2);
        sim.add_node(NodeId(0), Box::new(Sleeper));
        sim.add_node(NodeId(1), Box::new(Sleeper));
        sim.run_until(SimTime(1_000_000));
        let sched = FaultSchedule::new().trigger(SimDuration::ZERO, NodeId(1), 0);
        sim.schedule_faults(SimTime(500_000), &sched);
    }
}
