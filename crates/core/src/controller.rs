//! The central controller (§6.3): failure detection, chain and replica
//! group reconfiguration, and recovery orchestration.
//!
//! "We assume that a central controller can detect which switches have
//! failed." Detection here is heartbeat-based: a switch silent for
//! `failure_timeout` is declared failed, removed from the chain and the
//! multicast group, and a new epoch is broadcast. A switch that starts
//! heartbeating again (fresh state after recovery) is reintroduced as a
//! *learner*: it receives new writes and a snapshot stream, and is
//! promoted to tail once it reports catch-up completion.
//!
//! # Replicated control plane (DESIGN.md §12)
//!
//! The controller can run as a singleton (the paper's model) or as one
//! replica of a consensus group. In replicated mode every state-changing
//! decision — membership epochs, range-table commits, migration intents —
//! is first chosen as a [`CtrlCmd`] decree through [`crate::consensus`]
//! (single-decree Paxos per log slot), then applied by every replica in
//! slot order. Only the acting leader *emits* the resulting fabric
//! messages; followers apply silently, so a failover promotes a replica
//! whose state already equals the leader's applied prefix. The decision
//! logic (failure detector, planner, migration driver) runs on the
//! leader against the same replicated state plus replica-local soft
//! state (heartbeat times, load counters) that every replica maintains
//! from the switches' broadcasts.

use crate::config::{RegisterSpec, SwishConfig};
use crate::consensus::{Consensus, ConsensusError, NoteKind, Role, Slot};
use crate::directory::{DirectoryService, RangeEntry};
use crate::layer::{ChainView, REPLICA_GROUP};
use crate::reconfig::{
    decode_trigger, MigrationPhase, RangeView, ReconfigEvent, ReconfigLogEntry, TriggerOp,
    MAX_RANGE_OWNERS,
};
use crate::telemetry::journal::{
    CtrlEvent, ABORT_DEST_FAILED, ABORT_OWNER_FAILED, ABORT_SOLE_OWNER_PROMOTE,
};
use swishmem_simnet::{Ctx, Node, SimDuration, SimTime};
use swishmem_wire::swish::{
    ChainConfig, CtrlCmd, CtrlHb, CtrlLead, CtrlSnap, CtrlSnapMig, CtrlSnapRange, CtrlSnapReg,
    GroupConfig, Key, MigrateBegin, OwnershipCommit, RegId, SnapshotRequest,
};
use swishmem_wire::{NodeId, Packet, PacketBody, SwishMsg};

/// A logged reconfiguration event (consumed by the failover experiments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigEvent {
    /// When the controller issued the new configuration.
    pub time: SimTime,
    /// The new epoch.
    pub epoch: u32,
    /// What happened.
    pub kind: ConfigEventKind,
}

/// Reconfiguration causes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigEventKind {
    /// Initial configuration broadcast.
    Bootstrap,
    /// A switch was declared failed and removed.
    Failed(NodeId),
    /// A recovered switch joined as a learner (snapshot initiated).
    LearnerAdded(NodeId),
    /// A learner finished catch-up and became the tail.
    Promoted(NodeId),
    /// A controller replica won an election (replicated mode only).
    LeaderElected(NodeId),
    /// A controller replica joined the consensus group (a committed
    /// `AddReplica` decree; replicated mode only).
    ReplicaAdded(NodeId),
    /// A controller replica left the consensus group.
    ReplicaRemoved(NodeId),
}

/// Aggregate consensus counters of one controller replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsensusMetrics {
    /// Consensus protocol messages this replica sent (all phases +
    /// heartbeats + leader announcements).
    pub msgs_sent: u64,
    /// Leader changes observed in the committed log prefix.
    pub leader_changes: u64,
    /// Elections this replica started.
    pub elections: u64,
    /// Contiguously chosen log prefix (gauge).
    pub commit: u64,
    /// Log compactions applied (register-window recycles).
    pub log_compactions: u64,
    /// Bytes of controller state persisted into the snapshot register
    /// region across all compactions.
    pub snapshot_bytes: u64,
    /// Failure-detector suspicion transitions (a healthy-looking leader
    /// crossing the phi threshold counts once per episode).
    pub suspect_events: u64,
    /// Directory lookups served by this replica while NOT leading
    /// (lease-gated follower reads).
    pub follower_reads: u64,
}

/// An in-flight range migration, controller side.
#[derive(Debug, Clone)]
struct Mig {
    from: NodeId,
    to: NodeId,
    /// The per-range epoch the transfer opened under.
    epoch: u32,
    phase: MigrationPhase,
    /// The owner set to install once the destination holds the range.
    commit_owners: Vec<NodeId>,
}

/// Controller-side per-range reconfiguration state. The key-range bounds
/// themselves live in the directory; this carries what the directory
/// does not: the per-range epoch counter and the migration state
/// machine. A `Vec` (not a map) so every iteration order that reaches
/// the wire is deterministic.
#[derive(Debug, Clone)]
struct RangeMeta {
    reg: RegId,
    start: Key,
    end: Key,
    /// Epoch of the last `OwnershipCommit` broadcast for this range.
    committed_epoch: u32,
    /// Highest per-range epoch ever issued (strictly increases across
    /// `MigrateBegin` and `OwnershipCommit`).
    issued_epoch: u32,
    mig: Option<Mig>,
    /// Planner holdoff after a commit, so one hot range does not
    /// ping-pong between talkers every planning window. Replica-local
    /// soft state (stamped at apply time): it gates *decisions*, never
    /// command application, so replicas may disagree on it harmlessly.
    cooldown_until: Option<SimTime>,
}

/// Replica-mode state: the consensus instance plus the apply cursor and
/// election timing.
struct Rep {
    cons: Consensus,
    /// Next slot to apply (slots below are applied into controller state).
    applied: Slot,
    /// Last time a leader beacon (or election win) was seen.
    last_leader_hb: SimTime,
    /// Last time this replica started an election (retry pacing).
    last_attempt: SimTime,
    /// Last beacon heard per group member, keyed by node id (runtime
    /// reconfiguration makes positional indexing unsound — the group
    /// can grow, shrink, and reorder). A leader that cannot hear a
    /// quorum within `failure_timeout` demotes itself — its decrees
    /// cannot commit anyway, and self-demotion bounds how long an
    /// isolated old leader keeps *acting* (emitting resyncs) after the
    /// group moved on.
    peer_hb: Vec<(NodeId, SimTime)>,
    /// Leader-beacon inter-arrival history (nanoseconds, newest last),
    /// feeding the phi-accrual-style failure detector.
    hb_gaps: Vec<u64>,
    /// Whether this replica currently suspects the leader (transition
    /// tracking for the `suspect_events` counter).
    suspected: bool,
    /// Highest `Compact` boundary this replica proposed as leader
    /// (suppresses duplicate proposals while one is in flight).
    last_compact_upto: Slot,
    /// Operator-requested membership changes `(replica, add)` not yet
    /// reflected in the consensus group. Stored at *every* replica the
    /// trigger reached: whoever leads re-proposes until the group
    /// matches, so a decree racing a leader crash is never lost.
    pending_member: Vec<(NodeId, bool)>,
    msgs_sent: u64,
    elections: u64,
    suspect_events: u64,
    follower_reads: u64,
    snapshot_bytes: u64,
}

/// Leader-beacon inter-arrival samples retained by the detector.
const HB_HISTORY: usize = 8;

/// Effect sink for command application: followers apply state changes
/// silently (`emit == false`); the leader and the singleton also send
/// the resulting fabric messages.
struct Io<'a, 'b> {
    ctx: &'a mut Ctx<'b>,
    emit: bool,
}

impl Io<'_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn send(&mut self, to: NodeId, body: PacketBody) -> bool {
        if self.emit {
            self.ctx.send(to, body);
        }
        self.emit
    }

    fn set_group(&mut self, members: Vec<NodeId>) {
        if self.emit {
            self.ctx.set_group(REPLICA_GROUP, members);
        }
    }
}

/// The controller node: a singleton, or one replica of the consensus
/// group (see [`Controller::replica`]).
pub struct Controller {
    cfg: SwishConfig,
    switches: Vec<NodeId>,
    /// Register declarations (the reconfiguration engine needs to know
    /// which registers are partitioned and how many keys they span).
    specs: Vec<RegisterSpec>,
    /// Per switch: (last heartbeat time, epoch the switch reported).
    /// Replica-local soft state: switches heartbeat every replica.
    last_hb: Vec<(NodeId, SimTime, u32)>,
    view: ChainView,
    events: Vec<ConfigEvent>,
    /// The partitioned-state directory (§7/§9 extension). Empty unless
    /// registers were partitioned via [`Controller::directory_mut`].
    directory: DirectoryService,
    rmeta: Vec<RangeMeta>,
    reconfig_log: Vec<ReconfigLogEntry>,
    /// Guards `on_start` re-entry: the engine re-dispatches `on_start`
    /// when a crashed node recovers, which must re-arm timers but not
    /// re-bootstrap state.
    started: bool,
    /// Whether the `Bootstrap` decree has been applied. Replicated state
    /// (set by `broadcast`, restored from snapshots) — the event log is
    /// NOT a faithful mirror after a snapshot install, so bootstrap
    /// dedup cannot scan it.
    boot_done: bool,
    rep: Option<Rep>,
}

const CHECK_TIMER: u64 = 1;
const PLAN_TIMER: u64 = 2;
const RESYNC_TIMER: u64 = 3;
const REP_TICK: u64 = 4;

impl Controller {
    /// A singleton controller managing `switches` (initial chain =
    /// declaration order) running the given register declarations.
    pub fn new(cfg: SwishConfig, switches: Vec<NodeId>, specs: Vec<RegisterSpec>) -> Controller {
        Controller {
            cfg,
            switches: switches.clone(),
            specs,
            last_hb: Vec::new(),
            view: ChainView {
                epoch: 0,
                chain: switches,
                learners: vec![],
            },
            events: Vec::new(),
            directory: DirectoryService::new(),
            rmeta: Vec::new(),
            reconfig_log: Vec::new(),
            started: false,
            boot_done: false,
            rep: None,
        }
    }

    /// Controller replica `idx` of `group` (replica node ids, index
    /// order). Replica 0 bootstraps the group by electing itself at
    /// start; the others begin as followers.
    pub fn replica(
        cfg: SwishConfig,
        switches: Vec<NodeId>,
        specs: Vec<RegisterSpec>,
        idx: u8,
        group: Vec<NodeId>,
    ) -> Controller {
        let me = group[idx as usize];
        Controller::replica_at(cfg, switches, specs, idx, me, group)
    }

    /// A spare controller replica: consensus-capable but NOT a member of
    /// `group` yet. It stays passive (never campaigns, gets no catch-up
    /// traffic) until a committed `AddReplica` decree admits it — the
    /// runtime path for replacing a dead replica.
    pub fn spare(
        cfg: SwishConfig,
        switches: Vec<NodeId>,
        specs: Vec<RegisterSpec>,
        idx: u8,
        me: NodeId,
        group: Vec<NodeId>,
    ) -> Controller {
        Controller::replica_at(cfg, switches, specs, idx, me, group)
    }

    fn replica_at(
        cfg: SwishConfig,
        switches: Vec<NodeId>,
        specs: Vec<RegisterSpec>,
        idx: u8,
        me: NodeId,
        group: Vec<NodeId>,
    ) -> Controller {
        let peer_hb = group
            .iter()
            .copied()
            .filter(|&g| g != me)
            .map(|g| (g, SimTime::ZERO))
            .collect();
        let mut c = Controller::new(cfg, switches, specs);
        c.rep = Some(Rep {
            cons: Consensus::new(me, idx, group),
            applied: 0,
            last_leader_hb: SimTime::ZERO,
            last_attempt: SimTime::ZERO,
            peer_hb,
            hb_gaps: Vec::new(),
            suspected: false,
            last_compact_upto: 0,
            pending_member: Vec::new(),
            msgs_sent: 0,
            elections: 0,
            suspect_events: 0,
            follower_reads: 0,
            snapshot_bytes: 0,
        });
        c
    }

    /// Mutable access to the directory service, for declaring partitioned
    /// registers before the simulation starts.
    pub fn directory_mut(&mut self) -> &mut DirectoryService {
        &mut self.directory
    }

    /// Read access to the directory service.
    pub fn directory(&self) -> &DirectoryService {
        &self.directory
    }

    /// The configuration event log.
    pub fn events(&self) -> &[ConfigEvent] {
        &self.events
    }

    /// The current configuration.
    pub fn view(&self) -> &ChainView {
        &self.view
    }

    /// The reconfiguration-engine event log (planner decisions, transfer
    /// begin/done, commits, aborts).
    pub fn reconfig_log(&self) -> &[ReconfigLogEntry] {
        &self.reconfig_log
    }

    /// True if this node currently acts for the group: the singleton
    /// always does; a replica only while it leads.
    pub fn is_acting_leader(&self) -> bool {
        self.rep
            .as_ref()
            .map(|r| r.cons.role == Role::Leader)
            .unwrap_or(true)
    }

    /// The leader named by the committed log prefix (replicas), or
    /// `None` for a singleton.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.rep.as_ref().and_then(|r| r.cons.leader_hint)
    }

    /// Consensus counters (zeros for a singleton).
    pub fn consensus_metrics(&self) -> ConsensusMetrics {
        match &self.rep {
            None => ConsensusMetrics::default(),
            Some(r) => ConsensusMetrics {
                msgs_sent: r.msgs_sent,
                leader_changes: r.cons.leader_changes,
                elections: r.elections,
                commit: r.cons.commit,
                log_compactions: r.cons.compactions,
                snapshot_bytes: r.snapshot_bytes,
                suspect_events: r.suspect_events,
                follower_reads: r.follower_reads,
            },
        }
    }

    /// The sticky consensus-layer error, if this replica's log window
    /// ever overflowed (`None` for singletons and healthy replicas). The
    /// oracle suite polls this: overflow is a protocol violation once
    /// compaction exists, not a panic.
    pub fn consensus_error(&self) -> Option<ConsensusError> {
        self.rep.as_ref().and_then(|r| r.cons.error)
    }

    /// The consensus membership this replica currently believes (empty
    /// for a singleton). Changes at runtime as `AddReplica` /
    /// `RemoveReplica` decrees commit.
    pub fn consensus_group(&self) -> Vec<NodeId> {
        self.rep
            .as_ref()
            .map(|r| r.cons.group.clone())
            .unwrap_or_default()
    }

    /// The replica's consensus-log compaction boundary (0 for a
    /// singleton or before the first compaction).
    pub fn log_base(&self) -> u64 {
        self.rep.as_ref().map(|r| r.cons.base()).unwrap_or(0)
    }

    /// The controller's master range table for `reg`: directory owners
    /// plus per-range epochs and any open migration.
    pub fn range_table(&self, reg: RegId) -> Vec<RangeView> {
        self.directory
            .ranges(reg)
            .iter()
            .map(|r| {
                let meta = self
                    .rmeta
                    .iter()
                    .find(|m| m.reg == reg && m.start == r.start);
                RangeView {
                    start: r.start,
                    end: r.end,
                    epoch: meta
                        .map(|m| m.mig.as_ref().map(|g| g.epoch).unwrap_or(m.committed_epoch))
                        .unwrap_or(0),
                    mig_to: meta.and_then(|m| m.mig.as_ref().map(|g| g.to)),
                    owners: r.owners.clone(),
                }
            })
            .collect()
    }

    /// The migration phase of the range containing `key` of `reg`.
    pub fn migration_phase(&self, reg: RegId, key: Key) -> MigrationPhase {
        let Some(meta) = self
            .rmeta
            .iter()
            .find(|m| m.reg == reg && m.start <= key && key < m.end)
        else {
            return MigrationPhase::Idle;
        };
        if let Some(mig) = &meta.mig {
            return mig.phase;
        }
        // No open migration: the last logged outcome for the range.
        for e in self.reconfig_log.iter().rev() {
            if e.event.range_key() != (reg, meta.start) {
                continue;
            }
            return match e.event {
                ReconfigEvent::Commit { .. } => MigrationPhase::Committed,
                ReconfigEvent::Abort { .. } => MigrationPhase::Aborted,
                _ => MigrationPhase::Idle,
            };
        }
        MigrationPhase::Idle
    }

    /// Migrations currently in flight.
    pub fn open_migrations(&self) -> usize {
        self.rmeta.iter().filter(|m| m.mig.is_some()).count()
    }

    fn has_partitioned(&self) -> bool {
        self.specs.iter().any(|s| s.is_partitioned())
    }

    fn is_live(&self, n: NodeId) -> bool {
        self.view.chain.contains(&n) || self.view.learners.contains(&n)
    }

    fn group_members(&self) -> Vec<NodeId> {
        self.view.write_order()
    }

    // ------------------------------------------------------------------
    // Command submission and application
    // ------------------------------------------------------------------

    /// Route a decision: a singleton applies it on the spot; a leading
    /// replica proposes it as the next consensus decree (followers never
    /// submit — their decisions are skipped at the call sites).
    fn submit(&mut self, cmd: CtrlCmd, ctx: &mut Ctx<'_>) {
        if self.rep.is_none() {
            let mut io = Io { ctx, emit: true };
            self.apply_cmd(cmd, &mut io);
            return;
        }
        let rep = self.rep.as_mut().expect("replica");
        if rep.cons.role != Role::Leader || rep.cons.has_pending(&cmd) {
            return;
        }
        let out = rep.cons.enqueue(cmd);
        self.send_consensus(out, ctx);
        self.drain_chosen(ctx);
    }

    /// Record an operator membership change and propose it if leading.
    /// Every replica that saw the trigger keeps the intent; see
    /// [`Controller::flush_member_changes`].
    fn queue_member_change(&mut self, node: NodeId, add: bool, ctx: &mut Ctx<'_>) {
        let Some(rep) = self.rep.as_mut() else {
            // Singleton: membership decrees are meaningless; apply the
            // no-op directly so the event log still records the request.
            let cmd = if add {
                CtrlCmd::AddReplica { node }
            } else {
                CtrlCmd::RemoveReplica { node }
            };
            self.submit(cmd, ctx);
            return;
        };
        if !rep.pending_member.contains(&(node, add)) {
            rep.pending_member.push((node, add));
        }
        self.flush_member_changes(ctx);
    }

    /// Drop membership intents the group already reflects; as leader,
    /// propose the rest. Called on the trigger and on every replica
    /// tick, so an intent survives leader crashes and churn: whichever
    /// replica leads next re-proposes it until the decree commits.
    fn flush_member_changes(&mut self, ctx: &mut Ctx<'_>) {
        let Some(rep) = self.rep.as_mut() else { return };
        rep.pending_member
            .retain(|&(node, add)| rep.cons.group.contains(&node) != add);
        if rep.cons.role != Role::Leader {
            return;
        }
        let cmds: Vec<CtrlCmd> = rep
            .pending_member
            .iter()
            .map(|&(node, add)| {
                if add {
                    CtrlCmd::AddReplica { node }
                } else {
                    CtrlCmd::RemoveReplica { node }
                }
            })
            .collect();
        for cmd in cmds {
            self.submit(cmd, ctx);
        }
    }

    fn send_consensus(&mut self, out: Vec<(NodeId, SwishMsg)>, ctx: &mut Ctx<'_>) {
        if let Some(rep) = self.rep.as_mut() {
            rep.msgs_sent += out.len() as u64;
        }
        for (to, msg) in out {
            ctx.send(to, PacketBody::Swish(msg));
        }
    }

    /// Mirror the journal attachment into the consensus note buffer.
    /// Called at the top of every node callback so the pure state
    /// machine records transitions exactly while a recorder listens.
    fn sync_notes(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(rep) = self.rep.as_mut() {
            rep.cons.notes_on = ctx.journaling();
        }
    }

    /// Translate buffered consensus transition notes into journal
    /// events, stamped at the current callback's time (the transitions
    /// happened inside this callback, so the stamp is exact).
    fn drain_notes(&mut self, ctx: &mut Ctx<'_>) {
        let Some(rep) = self.rep.as_mut() else { return };
        if !rep.cons.notes_on {
            return;
        }
        for n in rep.cons.take_notes() {
            let ev = match n.kind {
                NoteKind::PrepareIssued => CtrlEvent::Propose {
                    slot: n.slot,
                    ballot: n.ballot,
                },
                NoteKind::PromiseGranted => CtrlEvent::Promise {
                    slot: n.slot,
                    ballot: n.ballot,
                },
                NoteKind::Accepted => CtrlEvent::Accepted {
                    slot: n.slot,
                    ballot: n.ballot,
                },
                NoteKind::Chosen => CtrlEvent::Chosen {
                    slot: n.slot,
                    ballot: n.ballot,
                },
                NoteKind::Learned => CtrlEvent::Learned { slot: n.slot },
                NoteKind::StepDown => CtrlEvent::StepDown {
                    slot: n.slot,
                    ballot: n.ballot,
                },
            };
            ev.emit(ctx);
        }
    }

    /// Journal the semantic effect of a decree after applying it.
    /// Leader/singleton side only so each transition appears once.
    fn journal_decree(&mut self, slot: Slot, cmd: &CtrlCmd, ctx: &mut Ctx<'_>) {
        match *cmd {
            CtrlCmd::Reassert { leader } => CtrlEvent::LeaderElected {
                leader,
                epoch: self.view.epoch,
                slot,
            }
            .emit(ctx),
            CtrlCmd::AddReplica { node } => CtrlEvent::MemberChange {
                node,
                add: true,
                slot,
            }
            .emit(ctx),
            CtrlCmd::RemoveReplica { node } => CtrlEvent::MemberChange {
                node,
                add: false,
                slot,
            }
            .emit(ctx),
            _ => {}
        }
    }

    /// Apply every newly chosen decree, in slot order. Only the leader
    /// emits the resulting fabric messages.
    fn drain_chosen(&mut self, ctx: &mut Ctx<'_>) {
        self.drain_notes(ctx);
        loop {
            let Some(rep) = self.rep.as_mut() else { return };
            if rep.applied >= rep.cons.commit {
                return;
            }
            let slot = rep.applied;
            let cmd = rep.cons.chosen_at(slot).expect("slot below commit");
            rep.applied += 1;
            let emit = rep.cons.role == Role::Leader;
            if ctx.journaling() {
                CtrlEvent::Applied {
                    slot,
                    tag: cmd_tag(&cmd),
                }
                .emit(ctx);
            }
            let journal_cmd = (emit && ctx.journaling()).then_some(cmd);
            let mut io = Io { ctx, emit };
            self.apply_cmd(cmd, &mut io);
            if let Some(cmd) = journal_cmd {
                self.journal_decree(slot, &cmd, ctx);
            }
        }
    }

    /// Apply one decree to the replicated state. Must be deterministic
    /// given (command, state): every guard reads replicated state only —
    /// time-based heuristics (cooldown) are checked at decision time
    /// instead.
    fn apply_cmd(&mut self, cmd: CtrlCmd, io: &mut Io<'_, '_>) {
        match cmd {
            CtrlCmd::Bootstrap => {
                if self.bootstrapped() {
                    return;
                }
                self.broadcast(io, ConfigEventKind::Bootstrap);
                if self.has_partitioned() {
                    self.bootstrap_ranges(io);
                }
            }
            CtrlCmd::Reassert { leader } => {
                self.broadcast(io, ConfigEventKind::LeaderElected(leader));
                if io.emit {
                    // The new leader re-announces itself to the switches
                    // and re-asserts the range tables (anti-entropy for
                    // anything the old leader's loss left unconfirmed).
                    self.announce_lead(io);
                    self.resync_ranges(io);
                    // Failure-detection grace: heartbeat times observed
                    // as a follower may predate a partition; re-baseline
                    // so failover does not mass-expire the fabric.
                    let now = io.now();
                    for (_, t, _) in self.last_hb.iter_mut() {
                        *t = (*t).max(now);
                    }
                }
            }
            CtrlCmd::Fail { node } => {
                if !self.is_live(node) {
                    return;
                }
                self.view.chain.retain(|&n| n != node);
                self.view.learners.retain(|&n| n != node);
                self.broadcast(io, ConfigEventKind::Failed(node));
                self.handle_partitioned_failure(node, io);
            }
            CtrlCmd::Admit { node } => {
                if self.is_live(node) || !self.switches.contains(&node) {
                    return;
                }
                // A failed switch came back with fresh state: admit it as
                // a learner and start a snapshot stream from the head
                // (§6.3: "the control plane on one of the switches takes
                // a snapshot").
                self.view.learners.push(node);
                let source = self.view.head();
                self.broadcast(io, ConfigEventKind::LearnerAdded(node));
                match source {
                    Some(src) => {
                        io.send(
                            src,
                            PacketBody::Swish(SwishMsg::SnapReq(SnapshotRequest {
                                target: node,
                                epoch: self.view.epoch,
                            })),
                        );
                    }
                    None => {
                        // Nothing to catch up from: promote immediately.
                        self.view.learners.retain(|&n| n != node);
                        self.view.chain.push(node);
                        self.broadcast(io, ConfigEventKind::Promoted(node));
                    }
                }
            }
            CtrlCmd::Promote { node } => {
                if !self.view.learners.contains(&node) {
                    return;
                }
                self.view.learners.retain(|&n| n != node);
                self.view.chain.push(node);
                self.broadcast(io, ConfigEventKind::Promoted(node));
            }
            CtrlCmd::Move {
                reg,
                key,
                to,
                planned,
            } => self.start_move(reg, key, to, planned, io),
            CtrlCmd::Grow { reg, key, to } => self.start_grow(reg, key, to, io),
            CtrlCmd::Shrink { reg, key, node } => self.start_shrink(reg, key, node, io),
            CtrlCmd::MigDone {
                reg,
                start,
                node,
                epoch,
                pass,
            } => self.apply_mig_done(reg, start, node, epoch, pass, io),
            CtrlCmd::Compact { upto } => {
                // Recycle the log window at the *apply* cursor — the
                // same boundary on every replica, and never ahead of any
                // replica's own applied prefix (a committed-but-unapplied
                // suffix must keep its register cells). The snapshot that
                // makes the prefix recoverable is costed in wire bytes as
                // if persisted to the snapshot register region.
                let snap_len = SwishMsg::CtrlSnap(Box::new(self.make_snapshot())).wire_len() as u64;
                let journal = io.emit && io.ctx.journaling();
                let Some(rep) = self.rep.as_mut() else { return };
                if rep.cons.compact_to(upto) {
                    rep.snapshot_bytes += snap_len;
                    if journal {
                        CtrlEvent::Compact {
                            upto,
                            snap_bytes: snap_len,
                        }
                        .emit(io.ctx);
                    }
                }
            }
            CtrlCmd::AddReplica { node } => self.apply_replica_change(node, true, io),
            CtrlCmd::RemoveReplica { node } => self.apply_replica_change(node, false, io),
        }
    }

    /// Consensus already switched membership at commit time (quorum math
    /// must change the moment the decree is chosen); the controller's
    /// apply side re-keys its replica-liveness table to the new group and
    /// logs the event for the operator.
    fn apply_replica_change(&mut self, node: NodeId, added: bool, io: &mut Io<'_, '_>) {
        let now = io.now();
        let epoch = self.view.epoch;
        let Some(rep) = self.rep.as_mut() else { return };
        let me = rep.cons.me;
        let group = rep.cons.group.clone();
        rep.peer_hb.retain(|(n, _)| group.contains(n));
        for &g in &group {
            if g != me && !rep.peer_hb.iter().any(|(n, _)| *n == g) {
                // A freshly admitted member starts with a live baseline
                // so the leader-lease check does not count it dead.
                rep.peer_hb.push((g, now));
            }
        }
        self.events.push(ConfigEvent {
            time: now,
            epoch,
            kind: if added {
                ConfigEventKind::ReplicaAdded(node)
            } else {
                ConfigEventKind::ReplicaRemoved(node)
            },
        });
    }

    fn bootstrapped(&self) -> bool {
        self.boot_done
    }

    /// Send the current configuration to one switch (idempotent; used for
    /// both broadcasts and per-switch reconciliation of lost messages).
    fn send_config_to(&self, io: &mut Io<'_, '_>, sw: NodeId) {
        io.send(
            sw,
            PacketBody::Swish(SwishMsg::Chain(ChainConfig {
                epoch: self.view.epoch,
                chain: self.view.chain.clone(),
                learners: self.view.learners.clone(),
            })),
        );
        io.send(
            sw,
            PacketBody::Swish(SwishMsg::Group(GroupConfig {
                epoch: self.view.epoch,
                members: self.group_members(),
            })),
        );
        // Replicated mode: piggyback the leader announcement so a switch
        // that missed a failover redirects its controller-bound traffic.
        if let Some(rep) = &self.rep {
            io.send(
                sw,
                PacketBody::Swish(SwishMsg::CtrlLead(CtrlLead {
                    leader: rep.cons.me,
                    ballot: rep.cons.bal,
                })),
            );
        }
    }

    fn announce_lead(&mut self, io: &mut Io<'_, '_>) {
        let Some(rep) = &self.rep else { return };
        let lead = CtrlLead {
            leader: rep.cons.me,
            ballot: rep.cons.bal,
        };
        let mut sent = 0;
        for &sw in &self.switches {
            if io.send(sw, PacketBody::Swish(SwishMsg::CtrlLead(lead))) {
                sent += 1;
            }
        }
        if let Some(rep) = self.rep.as_mut() {
            rep.msgs_sent += sent;
        }
    }

    fn broadcast(&mut self, io: &mut Io<'_, '_>, kind: ConfigEventKind) {
        self.view.epoch += 1;
        if matches!(kind, ConfigEventKind::Bootstrap) {
            self.boot_done = true;
        }
        self.events.push(ConfigEvent {
            time: io.now(),
            epoch: self.view.epoch,
            kind,
        });
        // Reprogram the fabric multicast tree (controller privilege).
        io.set_group(self.group_members());
        for &sw in &self.switches.clone() {
            self.send_config_to(io, sw);
        }
    }

    // ------------------------------------------------------------------
    // Decisions (leader / singleton only)
    // ------------------------------------------------------------------

    fn note_heartbeat(&mut self, from: NodeId, epoch: u32, now: SimTime, ctx: &mut Ctx<'_>) {
        let mut amnesia = false;
        match self.last_hb.iter_mut().find(|(n, _, _)| *n == from) {
            Some((_, t, e)) => {
                // A member that previously reported a non-zero epoch and
                // now reports 0 has restarted with fresh state faster
                // than the failure detector could notice. Left in place
                // it would serve amnesiac (wiped) replicas; demote it so
                // it rejoins through the learner/snapshot path.
                amnesia = *e > 0
                    && epoch == 0
                    && (self.view.chain.contains(&from) || self.view.learners.contains(&from));
                *t = now;
                *e = epoch;
            }
            None => self.last_hb.push((from, now, epoch)),
        }
        if !self.is_acting_leader() {
            return;
        }
        if amnesia {
            self.submit(CtrlCmd::Fail { node: from }, ctx);
        }
        let known = self.view.chain.contains(&from) || self.view.learners.contains(&from);
        if !known && self.switches.contains(&from) {
            self.submit(CtrlCmd::Admit { node: from }, ctx);
        }
    }

    fn check_liveness(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let timeout = self.cfg.failure_timeout;
        let dead: Vec<NodeId> = self
            .last_hb
            .iter()
            .filter(|(n, t, _)| {
                now.since(*t) > timeout
                    && (self.view.chain.contains(n) || self.view.learners.contains(n))
            })
            .map(|(n, _, _)| *n)
            .collect();
        for d in dead {
            self.submit(CtrlCmd::Fail { node: d }, ctx);
        }
        // Reconciliation: configuration messages ride the same lossy
        // fabric as everything else; re-send to any live switch whose
        // heartbeat reports a stale epoch. Pure messaging, no decree.
        let stale: Vec<NodeId> = self
            .last_hb
            .iter()
            .filter(|(_, _, e)| *e < self.view.epoch)
            .map(|(n, _, _)| *n)
            .collect();
        let mut io = Io { ctx, emit: true };
        for sw in stale {
            self.send_config_to(&mut io, sw);
        }
    }

    /// Decision-side planner holdoff check. Time-based, so it must never
    /// gate `apply_cmd` — replicas apply at (slightly) different times.
    fn cooldown_ok(&self, reg: RegId, key: Key, now: SimTime) -> bool {
        let Some(meta) = self
            .rmeta
            .iter()
            .find(|m| m.reg == reg && m.start <= key && key < m.end)
        else {
            return true;
        };
        meta.cooldown_until.map(|t| now >= t).unwrap_or(true)
    }

    /// One planning pass: for every partitioned range, if some switch
    /// ingressed decisively more writes than the current primary this
    /// window, migrate the range onto that talker. Counters are drained
    /// per window (per-interval semantics).
    fn run_planner(&mut self, ctx: &mut Ctx<'_>) {
        let pol = self.cfg.reconfig;
        let now = ctx.now();
        let mut moves: Vec<(RegId, Key, NodeId)> = Vec::new();
        for spec in &self.specs {
            if !spec.is_partitioned() {
                continue;
            }
            let reg = spec.id;
            for r in self.directory.ranges(reg) {
                let Some(&primary) = r.owners.first() else {
                    continue;
                };
                let Some(hot) = self.directory.hottest_requester(reg, r.start) else {
                    continue;
                };
                if r.owners.contains(&hot) {
                    continue;
                }
                let hot_n = self.directory.access_count(reg, r.start, hot);
                let primary_n = self.directory.access_count(reg, r.start, primary);
                if hot_n < pol.min_writes
                    || hot_n < pol.min_advantage.saturating_mul(primary_n.max(1))
                {
                    continue;
                }
                moves.push((reg, r.start, hot));
            }
        }
        for (reg, start, to) in moves {
            // Structural guards (open migration, concurrency, liveness)
            // are re-checked at apply; the time-based cooldown is
            // decision-side only.
            if self.cooldown_ok(reg, start, now) {
                self.submit(
                    CtrlCmd::Move {
                        reg,
                        key: start,
                        to,
                        planned: true,
                    },
                    ctx,
                );
            }
        }
        self.clear_load_window();
    }

    /// Drain the per-window access counters (all replicas, so follower
    /// soft state stays bounded).
    fn clear_load_window(&mut self) {
        for spec in self.specs.clone() {
            if spec.is_partitioned() {
                self.directory.clear_accesses(spec.id);
            }
        }
    }

    // ------------------------------------------------------------------
    // Reconfiguration engine: per-range migration driver (apply side)
    // ------------------------------------------------------------------

    fn log_reconfig(&mut self, now: SimTime, event: ReconfigEvent) {
        self.reconfig_log
            .push(ReconfigLogEntry { time: now, event });
    }

    /// Bootstrap the partitioned-register directory and per-range state:
    /// any partitioned register not explicitly partitioned by the
    /// deployment is spread evenly across all switches, and the initial
    /// table is installed everywhere via epoch-1 `OwnershipCommit`s.
    fn bootstrap_ranges(&mut self, io: &mut Io<'_, '_>) {
        let now = io.now();
        for spec in self.specs.clone() {
            if !spec.is_partitioned() {
                continue;
            }
            if self.directory.ranges(spec.id).is_empty() {
                self.directory
                    .partition_even(spec.id, spec.keys, &self.switches.clone());
            }
            for r in self.directory.ranges(spec.id).to_vec() {
                self.rmeta.push(RangeMeta {
                    reg: spec.id,
                    start: r.start,
                    end: r.end,
                    committed_epoch: 1,
                    issued_epoch: 1,
                    mig: None,
                    cooldown_until: None,
                });
                self.log_reconfig(
                    now,
                    ReconfigEvent::Commit {
                        reg: spec.id,
                        start: r.start,
                        owners: r.owners.clone(),
                        epoch: 1,
                    },
                );
                self.broadcast_commit(io, spec.id, r.start, r.end, 1, &r.owners);
            }
        }
    }

    fn broadcast_commit(
        &self,
        io: &mut Io<'_, '_>,
        reg: RegId,
        start: Key,
        end: Key,
        epoch: u32,
        owners: &[NodeId],
    ) {
        for &sw in &self.switches {
            io.send(
                sw,
                PacketBody::Swish(SwishMsg::OwnershipCommit(OwnershipCommit {
                    reg,
                    start,
                    end,
                    epoch,
                    owners: owners.to_vec(),
                })),
            );
        }
    }

    fn broadcast_begin(&self, io: &mut Io<'_, '_>, m: &MigrateBegin) {
        for &sw in &self.switches {
            io.send(sw, PacketBody::Swish(SwishMsg::MigrateBegin(*m)));
        }
    }

    fn meta_idx(&self, reg: RegId, start: Key) -> Option<usize> {
        self.rmeta
            .iter()
            .position(|m| m.reg == reg && m.start == start)
    }

    /// Journal a migration lifecycle event (leader/singleton side only,
    /// so a replicated apply records each step once).
    fn journal_mig(&self, io: &mut Io<'_, '_>, ev: CtrlEvent) {
        if io.emit {
            ev.emit(io.ctx);
        }
    }

    /// Commit `owners` as the range's owner set at a fresh per-range
    /// epoch: update the directory, retire any open migration, start the
    /// planner cooldown, and broadcast the `OwnershipCommit`.
    fn commit_range(&mut self, reg: RegId, start: Key, owners: Vec<NodeId>, io: &mut Io<'_, '_>) {
        let Some(i) = self.meta_idx(reg, start) else {
            return;
        };
        let now = io.now();
        let was_dual = matches!(
            &self.rmeta[i].mig,
            Some(m) if m.phase == MigrationPhase::DualOwner
        );
        self.rmeta[i].issued_epoch += 1;
        let epoch = self.rmeta[i].issued_epoch;
        let end = self.rmeta[i].end;
        self.rmeta[i].committed_epoch = epoch;
        self.rmeta[i].mig = None;
        if was_dual {
            self.journal_mig(io, CtrlEvent::MigCommit { reg, start, epoch });
        }
        self.rmeta[i].cooldown_until = Some(now + self.cfg.reconfig.cooldown);
        self.directory.set_owners(reg, start, &owners);
        self.log_reconfig(
            now,
            ReconfigEvent::Commit {
                reg,
                start,
                owners: owners.clone(),
                epoch,
            },
        );
        self.broadcast_commit(io, reg, start, end, epoch, &owners);
    }

    /// Open a migration for the range containing `key`: `to` becomes the
    /// range's acking tail while the source streams state, and
    /// `commit_owners` is installed once a full pass lands. Shared by
    /// planner moves, trigger moves, and replica-group grows.
    fn begin_migration(
        &mut self,
        reg: RegId,
        key: Key,
        to: NodeId,
        commit_owners: Vec<NodeId>,
        planned: bool,
        io: &mut Io<'_, '_>,
    ) {
        let pol = self.cfg.reconfig;
        let Some(range) = self
            .directory
            .ranges(reg)
            .iter()
            .find(|r| r.start <= key && key < r.end)
            .cloned()
        else {
            return;
        };
        let Some(i) = self.meta_idx(reg, range.start) else {
            return;
        };
        let now = io.now();
        let Some(&from) = range.owners.first() else {
            return;
        };
        if self.rmeta[i].mig.is_some()
            || range.owners.contains(&to)
            || !self.switches.contains(&to)
            || !self.is_live(to)
            || !self.is_live(from)
            || commit_owners.is_empty()
            || commit_owners.len() > MAX_RANGE_OWNERS
            || self.open_migrations() >= pol.max_concurrent.max(1)
        {
            return;
        }
        if planned {
            self.log_reconfig(
                now,
                ReconfigEvent::Planned {
                    reg,
                    start: range.start,
                    from,
                    to,
                },
            );
        }
        self.rmeta[i].issued_epoch += 1;
        let epoch = self.rmeta[i].issued_epoch;
        self.rmeta[i].mig = Some(Mig {
            from,
            to,
            epoch,
            phase: MigrationPhase::Transferring,
            commit_owners,
        });
        self.log_reconfig(
            now,
            ReconfigEvent::Begin {
                reg,
                start: range.start,
                from,
                to,
                epoch,
            },
        );
        self.journal_mig(
            io,
            CtrlEvent::MigBegin {
                reg,
                start: range.start,
                from,
                to,
                epoch,
            },
        );
        self.broadcast_begin(
            io,
            &MigrateBegin {
                reg,
                start: range.start,
                end: range.end,
                from,
                to,
                epoch,
            },
        );
    }

    /// Move the range containing `key` so `to` becomes its primary.
    fn start_move(&mut self, reg: RegId, key: Key, to: NodeId, planned: bool, io: &mut Io<'_, '_>) {
        let Some(range) = self
            .directory
            .ranges(reg)
            .iter()
            .find(|r| r.start <= key && key < r.end)
            .cloned()
        else {
            return;
        };
        let Some(&from) = range.owners.first() else {
            return;
        };
        let commit_owners: Vec<NodeId> = range
            .owners
            .iter()
            .map(|&o| if o == from { to } else { o })
            .collect();
        self.begin_migration(reg, key, to, commit_owners, planned, io);
    }

    /// Grow the replica group of the range containing `key`: `node`
    /// joins as an additional owner after a state transfer.
    fn start_grow(&mut self, reg: RegId, key: Key, node: NodeId, io: &mut Io<'_, '_>) {
        let Some(range) = self
            .directory
            .ranges(reg)
            .iter()
            .find(|r| r.start <= key && key < r.end)
            .cloned()
        else {
            return;
        };
        let mut commit_owners = range.owners.clone();
        commit_owners.push(node);
        self.begin_migration(reg, key, node, commit_owners, false, io);
    }

    /// Shrink the replica group of the range containing `key`: `node`
    /// leaves the owner set. No transfer needed — every acked write is
    /// already applied at all owners (chain prefix property) — so this
    /// is a direct commit.
    fn start_shrink(&mut self, reg: RegId, key: Key, node: NodeId, io: &mut Io<'_, '_>) {
        let Some(range) = self
            .directory
            .ranges(reg)
            .iter()
            .find(|r| r.start <= key && key < r.end)
            .cloned()
        else {
            return;
        };
        if !range.owners.contains(&node) || range.owners.len() < 2 {
            return;
        }
        if let Some(i) = self.meta_idx(reg, range.start) {
            if self.rmeta[i].mig.is_some() {
                return; // resolve the open transfer first
            }
        }
        let owners: Vec<NodeId> = range
            .owners
            .iter()
            .copied()
            .filter(|&o| o != node)
            .collect();
        self.commit_range(reg, range.start, owners, io);
    }

    /// Apply a migration-complete decree: flip the range to its commit
    /// owners if the transfer is still the one the report describes.
    fn apply_mig_done(
        &mut self,
        reg: RegId,
        start: Key,
        node: NodeId,
        epoch: u32,
        pass: u32,
        io: &mut Io<'_, '_>,
    ) {
        let now = io.now();
        let Some(i) = self.meta_idx(reg, start) else {
            return;
        };
        let commit = match &mut self.rmeta[i].mig {
            Some(mig)
                if mig.epoch == epoch
                    && mig.to == node
                    && mig.phase == MigrationPhase::Transferring =>
            {
                mig.phase = MigrationPhase::DualOwner;
                Some((mig.to, mig.commit_owners.clone()))
            }
            _ => None, // stale/duplicate report
        };
        if let Some((to, owners)) = commit {
            self.log_reconfig(
                now,
                ReconfigEvent::Done {
                    reg,
                    start,
                    to,
                    pass,
                },
            );
            self.journal_mig(
                io,
                CtrlEvent::MigDualOwner {
                    reg,
                    start,
                    epoch,
                    pass,
                },
            );
            self.commit_range(reg, start, owners, io);
        }
    }

    /// A switch failed (or was demoted amnesiac): repair every
    /// partitioned range it participated in. Destination gone → abort
    /// (re-assert owners at a fresh epoch). Owner gone with survivors →
    /// shrink commit (survivors hold every acked write). Sole owner gone
    /// with a live transfer destination → promote the destination (it
    /// holds every write acked during the window; older state it never
    /// received is lost with the sole owner either way).
    fn handle_partitioned_failure(&mut self, d: NodeId, io: &mut Io<'_, '_>) {
        let now = io.now();
        for i in 0..self.rmeta.len() {
            let (reg, start) = (self.rmeta[i].reg, self.rmeta[i].start);
            let Some(range) = self
                .directory
                .ranges(reg)
                .iter()
                .find(|r| r.start == start)
                .cloned()
            else {
                continue;
            };
            let mig = self.rmeta[i].mig.clone();
            let survivors: Vec<NodeId> = range.owners.iter().copied().filter(|&o| o != d).collect();
            if let Some(mig) = mig {
                if mig.to == d {
                    self.log_reconfig(
                        now,
                        ReconfigEvent::Abort {
                            reg,
                            start,
                            reason: "destination failed",
                        },
                    );
                    self.journal_mig(
                        io,
                        CtrlEvent::MigAbort {
                            reg,
                            start,
                            epoch: mig.epoch,
                            reason: ABORT_DEST_FAILED,
                        },
                    );
                    // Re-assert the current owners at a fresh epoch:
                    // clears `mig_to` at every switch and stops the
                    // source's streamer.
                    self.commit_range(reg, start, range.owners.clone(), io);
                } else if range.owners.contains(&d) {
                    if survivors.is_empty() {
                        self.log_reconfig(
                            now,
                            ReconfigEvent::Abort {
                                reg,
                                start,
                                reason: "sole owner failed; promoting destination",
                            },
                        );
                        self.journal_mig(
                            io,
                            CtrlEvent::MigAbort {
                                reg,
                                start,
                                epoch: mig.epoch,
                                reason: ABORT_SOLE_OWNER_PROMOTE,
                            },
                        );
                        self.commit_range(reg, start, vec![mig.to], io);
                    } else {
                        self.log_reconfig(
                            now,
                            ReconfigEvent::Abort {
                                reg,
                                start,
                                reason: "owner failed during transfer",
                            },
                        );
                        self.journal_mig(
                            io,
                            CtrlEvent::MigAbort {
                                reg,
                                start,
                                epoch: mig.epoch,
                                reason: ABORT_OWNER_FAILED,
                            },
                        );
                        self.commit_range(reg, start, survivors, io);
                    }
                }
            } else if range.owners.contains(&d) && !survivors.is_empty() {
                // Plain owner failure: shrink the replica group.
                self.commit_range(reg, start, survivors, io);
            }
            // Sole owner failed with no transfer in flight: the range's
            // state dies with it; the table is left pointing at the
            // owner so writes resume if it returns (the oracle taints
            // such ranges).
        }
    }

    /// Periodic anti-entropy for the range tables: re-broadcast every
    /// range's committed ownership (and any open transfer) to every
    /// switch. Idempotent at the receivers — per-range epochs guard the
    /// installs — and self-healing for crash-wiped tables and lost
    /// control messages.
    fn resync_ranges(&mut self, io: &mut Io<'_, '_>) {
        for i in 0..self.rmeta.len() {
            let m = self.rmeta[i].clone();
            let Some(range) = self
                .directory
                .ranges(m.reg)
                .iter()
                .find(|r| r.start == m.start)
                .cloned()
            else {
                continue;
            };
            self.broadcast_commit(io, m.reg, m.start, m.end, m.committed_epoch, &range.owners);
            if let Some(mig) = &m.mig {
                self.broadcast_begin(
                    io,
                    &MigrateBegin {
                        reg: m.reg,
                        start: m.start,
                        end: m.end,
                        from: mig.from,
                        to: mig.to,
                        epoch: mig.epoch,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Replica plumbing
    // ------------------------------------------------------------------

    fn rep_tick(&mut self, ctx: &mut Ctx<'_>) {
        let hb_interval = self.cfg.heartbeat_interval;
        let retry_pace = self.cfg.failure_timeout;
        let cfg = self.cfg;
        let Some(rep) = self.rep.as_mut() else { return };
        let now = ctx.now();
        let me = rep.cons.me;
        // Leader lease: a leader that cannot hear a quorum of peers
        // within `failure_timeout` cannot commit anything either — stop
        // acting so an isolated old leader bounds its own tenure. (This
        // same lease is what bounds follower-read staleness: every
        // lookup a *deposed-but-unaware* leader can serve is confined to
        // this window.)
        if rep.cons.role == Role::Leader {
            let group = rep.cons.group.clone();
            let heard = rep
                .peer_hb
                .iter()
                .filter(|(n, t)| *n != me && group.contains(n) && now.since(*t) <= retry_pace)
                .count();
            if heard + 1 < rep.cons.quorum() {
                if ctx.journaling() {
                    CtrlEvent::LeaseLost {
                        heard: heard as u32,
                        quorum: rep.cons.quorum() as u32,
                    }
                    .emit(ctx);
                }
                rep.cons.on_restart();
                rep.last_leader_hb = now;
                rep.last_attempt = now;
            }
        }
        let is_leader = rep.cons.role == Role::Leader;
        // Liveness beacon both ways: the leader's suppresses elections,
        // a follower's reports its committed prefix for learn-replay.
        let hb = CtrlHb {
            from: me,
            ballot: rep.cons.bal,
            commit: rep.cons.commit,
            leader: is_leader,
        };
        let peers: Vec<NodeId> = rep
            .cons
            .group
            .iter()
            .copied()
            .filter(|&p| p != me)
            .collect();
        rep.msgs_sent += peers.len() as u64;
        for p in peers {
            ctx.send(p, PacketBody::Swish(SwishMsg::CtrlHb(hb)));
        }
        // Loss recovery for in-flight proposals.
        let out = rep.cons.retransmit();
        self.send_consensus(out, ctx);
        self.drain_chosen(ctx);
        // An established leader decrees the initial configuration if the
        // group has not bootstrapped yet (the singleton path does this
        // directly in `on_start`; here it must ride the log).
        if self
            .rep
            .as_ref()
            .is_some_and(|r| r.cons.role == Role::Leader)
            && !self.bootstrapped()
        {
            self.submit(CtrlCmd::Bootstrap, ctx);
        }
        // Log compaction: once the window crosses the threshold and the
        // leader's apply cursor has caught up with commit (so the decree
        // boundary captures exactly the applied prefix), propose a
        // `Compact`. `last_compact_upto` suppresses re-proposing while
        // one is in flight.
        let compact_upto = self.rep.as_ref().and_then(|r| {
            (r.cons.role == Role::Leader
                && r.applied == r.cons.commit
                && r.cons.window_len() >= cfg.log_compact_threshold
                && r.cons.commit > r.last_compact_upto)
                .then_some(r.cons.commit)
        });
        if let Some(upto) = compact_upto {
            self.rep.as_mut().expect("replica").last_compact_upto = upto;
            self.submit(CtrlCmd::Compact { upto }, ctx);
        }
        // Re-propose operator membership intents the group does not yet
        // reflect (survives leader crashes between trigger and commit).
        self.flush_member_changes(ctx);
        // Election timer, phi-accrual style: with enough leader-beacon
        // inter-arrival history the suspicion threshold adapts to the
        // *observed* beacon cadence (mean + phi deviations + floor,
        // capped at 2x the static timeout) instead of the conservative
        // static `failure_timeout`. Staggered by position in the current
        // group so the first live member normally wins uncontested. A
        // spare (group does not contain us yet) never campaigns.
        let Some(rep) = self.rep.as_mut() else { return };
        let pos = rep.cons.group.iter().position(|&g| g == me);
        let stagger = hb_interval.0 * pos.unwrap_or(0) as u64;
        let timeout_ns = if cfg.adaptive_detector && rep.hb_gaps.len() >= 3 {
            let n = rep.hb_gaps.len() as u64;
            let mean = rep.hb_gaps.iter().sum::<u64>() / n;
            let dev = rep.hb_gaps.iter().map(|&g| g.abs_diff(mean)).sum::<u64>() / n;
            (mean + u64::from(cfg.detector_phi) * dev + cfg.detector_floor.0).min(2 * retry_pace.0)
        } else {
            retry_pace.0
        };
        let election_timeout = SimDuration(timeout_ns + stagger);
        if pos.is_some()
            && rep.cons.role != Role::Leader
            && now.since(rep.last_leader_hb) > election_timeout
        {
            if !rep.suspected {
                rep.suspected = true;
                rep.suspect_events += 1;
                if ctx.journaling() {
                    CtrlEvent::Suspect {
                        target: rep.cons.leader_hint.unwrap_or(me),
                        silence_ns: now.since(rep.last_leader_hb).0,
                        timeout_ns: election_timeout.0,
                    }
                    .emit(ctx);
                }
            }
            if now.since(rep.last_attempt) > retry_pace {
                rep.last_attempt = now;
                rep.elections += 1;
                let out = rep.cons.start_candidacy();
                if ctx.journaling() {
                    CtrlEvent::ElectionStart {
                        ballot: rep.cons.bal,
                        timeout_ns: election_timeout.0,
                    }
                    .emit(ctx);
                }
                self.send_consensus(out, ctx);
                self.drain_chosen(ctx);
            }
        }
        ctx.set_timer(hb_interval, REP_TICK);
    }

    /// Record liveness contact with a fellow replica (feeds the leader
    /// lease in `rep_tick`).
    fn note_peer(&mut self, from: NodeId, now: SimTime) {
        let Some(rep) = self.rep.as_mut() else { return };
        let member = rep.cons.group.contains(&from);
        match rep.peer_hb.iter_mut().find(|(n, _)| *n == from) {
            Some((_, t)) => *t = now,
            None if member => rep.peer_hb.push((from, now)),
            None => {}
        }
    }

    fn on_ctrl_hb(&mut self, hb: CtrlHb, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.note_peer(hb.from, now);
        let Some(rep) = self.rep.as_mut() else { return };
        if hb.leader {
            // Feed the failure detector with the beacon inter-arrival
            // gap. Gaps spanning elections or our own downtime would
            // poison the history; anything beyond 2x the static timeout
            // is discarded as not a normal-operation sample.
            let gap = now.since(rep.last_leader_hb);
            if rep.last_leader_hb != SimTime::ZERO
                && gap.0 > 0
                && gap.0 <= 2 * self.cfg.failure_timeout.0
            {
                rep.hb_gaps.push(gap.0);
                if rep.hb_gaps.len() > HB_HISTORY {
                    rep.hb_gaps.remove(0);
                }
            }
            if rep.suspected && ctx.journaling() {
                CtrlEvent::Unsuspect { target: hb.from }.emit(ctx);
            }
            rep.last_leader_hb = now;
            rep.suspected = false;
        }
        // Catch-up is for group members only: a spare that has not been
        // admitted by an `AddReplica` decree yet gets nothing (its state
        // transfer happens when the decree commits and its beacons start
        // reflecting membership).
        let member = rep.cons.group.contains(&hb.from)
            || rep
                .cons
                .old_group
                .as_ref()
                .is_some_and(|g| g.contains(&hb.from));
        if !member {
            return;
        }
        // A member below our compaction boundary cannot be healed by
        // learn-replay alone — the decrees are recycled. Send a snapshot
        // of the applied prefix; the learns below cover the suffix.
        let needs_snap = hb.commit < rep.cons.base();
        let needs_replay = hb.commit < rep.cons.commit;
        if needs_snap {
            let snap = self.make_snapshot();
            let base = snap.base;
            let msg = SwishMsg::CtrlSnap(Box::new(snap));
            if ctx.journaling() {
                CtrlEvent::SnapshotSent {
                    base,
                    bytes: msg.wire_len() as u64,
                    to: hb.from,
                }
                .emit(ctx);
            }
            self.send_consensus(vec![(hb.from, msg)], ctx);
        }
        if needs_replay {
            let rep = self.rep.as_ref().expect("replica");
            let learns: Vec<(NodeId, SwishMsg)> = rep
                .cons
                .learns_since(hb.commit)
                .into_iter()
                .map(|l| (hb.from, SwishMsg::CtrlLearn(l)))
                .collect();
            self.send_consensus(learns, ctx);
        }
    }

    /// Serialize the applied controller state for a lagging replica:
    /// consensus bookkeeping up to this replica's apply cursor plus the
    /// fabric view and the full partitioned-range tables.
    fn make_snapshot(&self) -> CtrlSnap {
        let rep = self.rep.as_ref().expect("replica");
        let mut regs = Vec::new();
        for spec in self.specs.iter().filter(|s| s.is_partitioned()) {
            let ranges = self
                .directory
                .ranges(spec.id)
                .iter()
                .map(|r| {
                    let meta = self
                        .rmeta
                        .iter()
                        .find(|m| m.reg == spec.id && m.start == r.start);
                    CtrlSnapRange {
                        start: r.start,
                        end: r.end,
                        committed_epoch: meta.map(|m| m.committed_epoch).unwrap_or(0),
                        issued_epoch: meta.map(|m| m.issued_epoch).unwrap_or(0),
                        owners: r.owners.clone(),
                        mig: meta.and_then(|m| m.mig.as_ref()).map(|g| CtrlSnapMig {
                            from: g.from,
                            to: g.to,
                            epoch: g.epoch,
                            phase: phase_code(g.phase),
                            commit_owners: g.commit_owners.clone(),
                        }),
                    }
                })
                .collect();
            regs.push(CtrlSnapReg {
                reg: spec.id,
                ranges,
            });
        }
        CtrlSnap {
            from: rep.cons.me,
            base: rep.applied,
            epoch: self.view.epoch,
            chain: self.view.chain.clone(),
            learners: self.view.learners.clone(),
            group: rep.cons.group.clone(),
            leader: rep.cons.leader_hint,
            leader_changes: rep.cons.leader_changes,
            boot_done: self.boot_done,
            regs,
        }
    }

    /// Install a peer's snapshot: jump the consensus log to its base and
    /// adopt the sender's applied controller state wholesale. Refused
    /// (no-op) unless it actually advances our committed prefix.
    fn on_ctrl_snap(&mut self, s: CtrlSnap, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.note_peer(s.from, now);
        let Some(rep) = self.rep.as_mut() else { return };
        if !rep
            .cons
            .install_base(s.base, s.group.clone(), s.leader, s.leader_changes)
        {
            return;
        }
        rep.applied = s.base;
        if ctx.journaling() {
            CtrlEvent::SnapshotInstalled { base: s.base }.emit(ctx);
        }
        // Re-key peer liveness to the adopted membership.
        let me = rep.cons.me;
        let group = rep.cons.group.clone();
        rep.peer_hb.retain(|(n, _)| group.contains(n));
        for &g in &group {
            if g != me && !rep.peer_hb.iter().any(|(n, _)| *n == g) {
                rep.peer_hb.push((g, now));
            }
        }
        self.boot_done = s.boot_done;
        self.view.epoch = s.epoch;
        self.view.chain = s.chain;
        self.view.learners = s.learners;
        self.rmeta.clear();
        for rg in s.regs {
            let entries: Vec<RangeEntry> = rg
                .ranges
                .iter()
                .map(|r| RangeEntry {
                    start: r.start,
                    end: r.end,
                    owners: r.owners.clone(),
                })
                .collect();
            self.directory.install_ranges(rg.reg, entries);
            for r in rg.ranges {
                self.rmeta.push(RangeMeta {
                    reg: rg.reg,
                    start: r.start,
                    end: r.end,
                    committed_epoch: r.committed_epoch,
                    issued_epoch: r.issued_epoch,
                    mig: r.mig.map(|g| Mig {
                        from: g.from,
                        to: g.to,
                        epoch: g.epoch,
                        phase: phase_from_code(g.phase),
                        commit_owners: g.commit_owners,
                    }),
                    cooldown_until: None,
                });
            }
        }
        // Apply whatever committed suffix `install_base` retained.
        self.drain_chosen(ctx);
    }
}

/// Wire code for an in-flight migration phase (only open migrations are
/// snapshotted, so terminal phases never cross the wire).
fn phase_code(p: MigrationPhase) -> u8 {
    match p {
        MigrationPhase::Transferring => 0,
        MigrationPhase::DualOwner => 1,
        _ => u8::MAX,
    }
}

fn phase_from_code(c: u8) -> MigrationPhase {
    match c {
        0 => MigrationPhase::Transferring,
        _ => MigrationPhase::DualOwner,
    }
}

/// Stable command codes carried by `Applied` journal events.
fn cmd_tag(cmd: &CtrlCmd) -> u16 {
    match cmd {
        CtrlCmd::Bootstrap => 1,
        CtrlCmd::Reassert { .. } => 2,
        CtrlCmd::Fail { .. } => 3,
        CtrlCmd::Admit { .. } => 4,
        CtrlCmd::Promote { .. } => 5,
        CtrlCmd::Move { .. } => 6,
        CtrlCmd::Grow { .. } => 7,
        CtrlCmd::Shrink { .. } => 8,
        CtrlCmd::MigDone { .. } => 9,
        CtrlCmd::Compact { .. } => 10,
        CtrlCmd::AddReplica { .. } => 11,
        CtrlCmd::RemoveReplica { .. } => 12,
    }
}

impl Node for Controller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.sync_notes(ctx);
        let now = ctx.now();
        if self.started {
            // Recovery re-entry: the engine re-dispatches `on_start`
            // after a crash heals. Controller state survives (modeling
            // persistent controller storage; see DESIGN.md §12), but
            // pending timers were suppressed while down — re-arm them —
            // and heartbeat ages must not count the downtime.
            for (_, t, _) in self.last_hb.iter_mut() {
                *t = now;
            }
            ctx.set_timer(self.cfg.heartbeat_interval, CHECK_TIMER);
            if self.has_partitioned() {
                ctx.set_timer(self.cfg.reconfig.resync_interval, RESYNC_TIMER);
                if self.cfg.reconfig.enabled {
                    ctx.set_timer(self.cfg.reconfig.plan_interval, PLAN_TIMER);
                }
            }
            if let Some(rep) = self.rep.as_mut() {
                // Whatever we were mid-flight on is stale; rejoin as a
                // follower and let the election timer sort leadership.
                rep.cons.on_restart();
                rep.last_leader_hb = now;
                rep.last_attempt = now;
                for (_, t) in rep.peer_hb.iter_mut() {
                    *t = now;
                }
                // Inter-arrival history spans the downtime — discard it
                // so the detector re-learns the cadence from scratch.
                rep.hb_gaps.clear();
                rep.suspected = false;
                ctx.set_timer(self.cfg.heartbeat_interval, REP_TICK);
            }
            return;
        }
        self.started = true;
        self.last_hb = self.switches.iter().map(|&s| (s, now, 0)).collect();
        let has_partitioned = self.has_partitioned();
        match self.rep.as_mut() {
            None => {
                let mut io = Io { ctx, emit: true };
                self.broadcast(&mut io, ConfigEventKind::Bootstrap);
                ctx.set_timer(self.cfg.heartbeat_interval, CHECK_TIMER);
                if self.has_partitioned() {
                    let mut io = Io { ctx, emit: true };
                    self.bootstrap_ranges(&mut io);
                    ctx.set_timer(self.cfg.reconfig.resync_interval, RESYNC_TIMER);
                    if self.cfg.reconfig.enabled {
                        ctx.set_timer(self.cfg.reconfig.plan_interval, PLAN_TIMER);
                    }
                }
            }
            Some(rep) => {
                rep.last_leader_hb = now;
                rep.last_attempt = now;
                for (_, t) in rep.peer_hb.iter_mut() {
                    *t = now;
                }
                ctx.set_timer(self.cfg.heartbeat_interval, CHECK_TIMER);
                if has_partitioned {
                    ctx.set_timer(self.cfg.reconfig.resync_interval, RESYNC_TIMER);
                    if self.cfg.reconfig.enabled {
                        ctx.set_timer(self.cfg.reconfig.plan_interval, PLAN_TIMER);
                    }
                }
                ctx.set_timer(self.cfg.heartbeat_interval, REP_TICK);
                // Replica 0 bootstraps the group: elect, then decree the
                // initial configuration (`Bootstrap` follows the win).
                if rep.cons.idx == 0 {
                    rep.elections += 1;
                    let out = rep.cons.start_candidacy();
                    self.send_consensus(out, ctx);
                    self.drain_chosen(ctx);
                }
            }
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.sync_notes(ctx);
        let PacketBody::Swish(msg) = pkt.body else {
            return;
        };
        match msg {
            SwishMsg::Heartbeat(hb) => {
                let now = ctx.now();
                self.note_heartbeat(hb.from, hb.epoch, now, ctx);
            }
            SwishMsg::DirLookup(q) => {
                // Follower reads (replicated mode): a non-leading replica
                // may answer only under a fresh leader lease — a beacon
                // within `dir_lease` proves its applied prefix is at most
                // one lease behind the leader's commits. Outside the
                // lease the lookup is dropped; the querier's CP retry
                // (which also re-targets) recovers. Singletons and
                // leaders answer unconditionally.
                if let Some(rep) = self.rep.as_mut() {
                    if rep.cons.role != Role::Leader {
                        if ctx.now().since(rep.last_leader_hb) > self.cfg.dir_lease {
                            return;
                        }
                        rep.follower_reads += 1;
                        if ctx.journaling() {
                            CtrlEvent::FollowerRead {
                                reg: q.reg,
                                key: q.key,
                            }
                            .emit(ctx);
                        }
                    }
                }
                let owners = self.directory.lookup(q.reg, q.key, q.from);
                ctx.send(
                    q.from,
                    PacketBody::Swish(SwishMsg::DirReply(swishmem_wire::swish::DirReply {
                        reg: q.reg,
                        key: q.key,
                        owners,
                    })),
                );
            }
            SwishMsg::CatchupDone(c)
                if self.view.learners.contains(&c.node) && self.is_acting_leader() =>
            {
                self.submit(CtrlCmd::Promote { node: c.node }, ctx);
            }
            SwishMsg::LoadReport(lr) => {
                for e in &lr.entries {
                    self.directory
                        .record_access(e.reg, e.start, lr.from, e.writes);
                }
            }
            SwishMsg::MigrateDone(d) => {
                if !self.is_acting_leader() {
                    return;
                }
                let Some(i) = self.meta_idx(d.reg, d.start) else {
                    return;
                };
                // Only decree reports that match the open transfer, so
                // stale/duplicate reports don't burn log slots.
                let fresh = matches!(
                    &self.rmeta[i].mig,
                    Some(mig)
                        if mig.epoch == d.epoch
                            && mig.to == d.node
                            && mig.phase == MigrationPhase::Transferring
                );
                if fresh {
                    self.submit(
                        CtrlCmd::MigDone {
                            reg: d.reg,
                            start: d.start,
                            node: d.node,
                            epoch: d.epoch,
                            pass: d.pass,
                        },
                        ctx,
                    );
                }
            }
            SwishMsg::CtrlPrepare(m) => {
                self.note_peer(m.from, ctx.now());
                let Some(rep) = self.rep.as_mut() else { return };
                let out = rep.cons.on_prepare(m);
                self.send_consensus(out, ctx);
                self.drain_chosen(ctx);
            }
            SwishMsg::CtrlPromise(m) => {
                self.note_peer(m.from, ctx.now());
                let Some(rep) = self.rep.as_mut() else { return };
                let out = rep.cons.on_promise(*m);
                self.send_consensus(out, ctx);
                self.drain_chosen(ctx);
            }
            SwishMsg::CtrlAccept(m) => {
                self.note_peer(m.from, ctx.now());
                let Some(rep) = self.rep.as_mut() else { return };
                let out = rep.cons.on_accept(m);
                self.send_consensus(out, ctx);
                self.drain_chosen(ctx);
            }
            SwishMsg::CtrlAccepted(m) => {
                self.note_peer(m.from, ctx.now());
                let Some(rep) = self.rep.as_mut() else { return };
                let out = rep.cons.on_accepted(m);
                self.send_consensus(out, ctx);
                self.drain_chosen(ctx);
            }
            SwishMsg::CtrlLearn(m) => {
                self.note_peer(m.from, ctx.now());
                let Some(rep) = self.rep.as_mut() else { return };
                let out = rep.cons.on_learn(m);
                self.send_consensus(out, ctx);
                self.drain_chosen(ctx);
            }
            SwishMsg::CtrlHb(hb) => self.on_ctrl_hb(hb, ctx),
            SwishMsg::CtrlSnap(s) => self.on_ctrl_snap(*s, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        self.sync_notes(ctx);
        if let Some((op, reg, key, to)) = decode_trigger(token) {
            // Replica-group reconfiguration bypasses the leader gate:
            // every replica records the operator's intent and whoever
            // leads (now or after a crash) proposes it — the trigger's
            // node field carries the replica *index* (controller ids
            // don't fit 12 bits), mapped back to the `u16::MAX - idx`
            // id scheme used by the deployment.
            match op {
                TriggerOp::AddCtrl => {
                    self.queue_member_change(NodeId(u16::MAX - to.0), true, ctx);
                    return;
                }
                TriggerOp::RemoveCtrl => {
                    self.queue_member_change(NodeId(u16::MAX - to.0), false, ctx);
                    return;
                }
                _ => {}
            }
            if !self.is_acting_leader() {
                return;
            }
            let now = ctx.now();
            match op {
                TriggerOp::Move => {
                    if self.cooldown_ok(reg, key, now) {
                        self.submit(
                            CtrlCmd::Move {
                                reg,
                                key,
                                to,
                                planned: false,
                            },
                            ctx,
                        );
                    }
                }
                TriggerOp::Grow => {
                    if self.cooldown_ok(reg, key, now) {
                        self.submit(CtrlCmd::Grow { reg, key, to }, ctx);
                    }
                }
                TriggerOp::Shrink => self.submit(CtrlCmd::Shrink { reg, key, node: to }, ctx),
                // Handled above, before the leader gate.
                TriggerOp::AddCtrl | TriggerOp::RemoveCtrl => unreachable!(),
            }
            return;
        }
        match token {
            CHECK_TIMER => {
                if self.is_acting_leader() {
                    self.check_liveness(ctx);
                }
                ctx.set_timer(self.cfg.heartbeat_interval, CHECK_TIMER);
            }
            PLAN_TIMER => {
                if self.is_acting_leader() {
                    self.run_planner(ctx);
                } else {
                    self.clear_load_window();
                }
                ctx.set_timer(self.cfg.reconfig.plan_interval, PLAN_TIMER);
            }
            RESYNC_TIMER => {
                if self.is_acting_leader() {
                    let mut io = Io { ctx, emit: true };
                    self.resync_ranges(&mut io);
                }
                ctx.set_timer(self.cfg.reconfig.resync_interval, RESYNC_TIMER);
            }
            REP_TICK => self.rep_tick(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_view_uses_declaration_order() {
        let c = Controller::new(
            SwishConfig::default(),
            vec![NodeId(2), NodeId(0), NodeId(1)],
            vec![],
        );
        assert_eq!(c.view().chain, vec![NodeId(2), NodeId(0), NodeId(1)]);
        assert_eq!(c.view().epoch, 0);
        assert!(c.events().is_empty());
        assert!(c.is_acting_leader(), "singleton always acts");
    }

    #[test]
    fn replica_followers_do_not_act() {
        let group = vec![NodeId(u16::MAX), NodeId(u16::MAX - 1), NodeId(u16::MAX - 2)];
        let c = Controller::replica(
            SwishConfig::default(),
            vec![NodeId(0), NodeId(1)],
            vec![],
            1,
            group,
        );
        assert!(!c.is_acting_leader());
        assert_eq!(c.leader_hint(), None);
    }
}
