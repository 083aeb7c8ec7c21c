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
//! # One consensus group (DESIGN.md §12)
//!
//! Every controller is one replica of a consensus group; the paper's
//! single controller is the group of one. Every state-changing decision —
//! membership epochs, range-table commits, migration intents — is first
//! chosen as a [`CtrlCmd`] decree through [`crate::consensus`]
//! (single-decree Paxos per log slot), then applied by every replica in
//! slot order. A group of one has a quorum of one: its proposer grants
//! its own promise and accept locally, so a decree is chosen and applied
//! in the step that proposed it, with no frame on the wire. Only the
//! acting leader *emits* the resulting fabric messages; followers apply
//! silently, so a failover promotes a replica whose state already equals
//! the leader's applied prefix. The decision logic (failure detector,
//! planner, migration driver) runs on the leader against the same
//! replicated state plus replica-local soft state (heartbeat times, load
//! counters) that every replica maintains from the switches' broadcasts.
//!
//! # One step behind a thin shell
//!
//! Every handler writes its effects (sends, group updates, timers,
//! journal records) to one ordered sink, `Out`, and `Controller::step`
//! is the one entry point. `impl Node for Controller` is the shell: it
//! lends `step` a reused effect buffer and replays the effects into the
//! engine's `Ctx` in order. Tests drive `step` with no simulator.

use crate::config::{RegisterSpec, SwishConfig};
use crate::consensus::{Consensus, ConsensusError, Outbox, Role, Slot};
use crate::directory::{DirectoryService, RangeEntry};
use crate::layer::{ChainView, REPLICA_GROUP};
use crate::reconfig::{
    decode_trigger, MigrationPhase, RangeView, ReconfigEvent, ReconfigLogEntry, TriggerOp,
    MAX_RANGE_OWNERS,
};
use swishmem_simnet::journal::{
    CtrlEvent, ABORT_DEST_FAILED, ABORT_OWNER_FAILED, ABORT_SOLE_OWNER_PROMOTE,
};
use swishmem_simnet::{Ctx, Node, SimDuration, SimTime};
use swishmem_wire::swish::{
    ChainConfig, CtrlCmd, CtrlHb, CtrlLead, CtrlSnap, CtrlSnapMig, CtrlSnapRange, CtrlSnapReg,
    DirReply, GroupConfig, Key, MigrateBegin, OwnershipCommit, RegId, SnapshotRequest,
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
    /// A controller replica won an election.
    LeaderElected(NodeId),
    /// A controller replica joined the consensus group (a committed
    /// `AddReplica` decree).
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

/// A replica's consensus state: the consensus instance plus the apply
/// cursor and election timing.
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
    /// Whether a `REP_TICK` is pending (its timer is lost while down).
    tick_armed: bool,
    msgs_sent: u64,
    elections: u64,
    suspect_events: u64,
    follower_reads: u64,
    snapshot_bytes: u64,
}

impl Rep {
    /// True when no other member shares this replica's group: it has no
    /// peer to beacon, hear from or wait on.
    fn alone(&self) -> bool {
        self.cons.group == [self.cons.me]
    }

    /// Arm the replica tick unless it is pending or this replica is
    /// alone: a lone member's log housekeeping rides its liveness tick
    /// (`CHECK_TIMER`) instead, so a group of one adds no event to a run.
    fn arm_tick(&mut self, every: SimDuration, out: &mut Out) {
        if !self.tick_armed && !self.alone() {
            self.tick_armed = true;
            out.timer(every, REP_TICK);
        }
    }

    /// Re-key peer liveness to the current group. A new member starts
    /// with a live baseline, so the leader-lease check does not count it
    /// dead.
    fn rekey_peers(&mut self, now: SimTime) {
        let group = &self.cons.group;
        self.peer_hb.retain(|(n, _)| group.contains(n));
        for &g in group {
            if g != self.cons.me && !self.peer_hb.iter().any(|(n, _)| *n == g) {
                self.peer_hb.push((g, now));
            }
        }
    }

    /// Drop any proposer role, journaling the `StepDown` at this step.
    fn restart_consensus(&mut self, out: &mut Out) {
        self.cons.on_restart();
        self.journal_notes(out);
    }

    /// Journal the consensus transitions recorded since the last drain.
    fn journal_notes(&mut self, out: &mut Out) {
        for ev in self.cons.take_notes() {
            out.journal(ev);
        }
    }
}

/// Leader-beacon inter-arrival samples retained by the detector.
const HB_HISTORY: usize = 8;

/// Suspicion threshold of the adaptive detector, in units of mean
/// absolute deviation above the mean inter-arrival gap.
const DETECTOR_PHI: u64 = 4;

/// Additive floor margin of the adaptive detector (guards against a
/// near-zero deviation history declaring suspicion on the first
/// delayed beacon).
const DETECTOR_FLOOR: SimDuration = SimDuration::millis(2);

/// How long after the last leader beacon a follower replica may keep
/// answering directory lookups (the follower-read lease). Past it the
/// follower drops lookups and the querier's retry finds another replica
/// or the leader.
pub(crate) const DIR_LEASE: SimDuration = SimDuration::millis(8);

/// What the engine hands the controller, one [`Controller::step`] each.
pub(crate) enum Input {
    Start,
    Packet(SwishMsg),
    Timer(u64),
}

/// One effect a step asks of the network.
#[derive(Debug, PartialEq)]
pub(crate) enum Effect {
    Send(NodeId, SwishMsg),
    /// Reprogram the replica group's multicast tree.
    SetGroup(Vec<NodeId>),
    Timer(SimDuration, u64),
    Journal(CtrlEvent),
}

/// The controller's one effect sink: every handler writes its effects
/// here, in order, and the `Node` shell replays them into the engine.
pub(crate) struct Out {
    now: SimTime,
    /// Whether a journal subscriber exists; records are kept only then.
    journaling: bool,
    /// The follower gate, false only while a follower applies a decree:
    /// its state changes, but only the leader sends the fabric messages
    /// and journals the transition.
    emit: bool,
    pub(crate) effects: Vec<Effect>,
}

impl Out {
    pub(crate) fn new(now: SimTime, journaling: bool, effects: Vec<Effect>) -> Out {
        Out {
            now,
            journaling,
            emit: true,
            effects,
        }
    }

    /// Send `msg` to `to` unless gated; true if it went out.
    fn send(&mut self, to: NodeId, msg: SwishMsg) -> bool {
        if self.emit {
            self.effects.push(Effect::Send(to, msg));
        }
        self.emit
    }

    fn set_group(&mut self, members: Vec<NodeId>) {
        if self.emit {
            self.effects.push(Effect::SetGroup(members));
        }
    }

    fn timer(&mut self, delay: SimDuration, token: u64) {
        self.effects.push(Effect::Timer(delay, token));
    }

    fn journal(&mut self, event: CtrlEvent) {
        if self.journaling && self.emit {
            self.effects.push(Effect::Journal(event));
        }
    }
}

/// The controller node: one replica of the consensus group (see
/// [`Controller::replica`]).
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
    /// Guards start re-entry: the engine re-dispatches the start when a
    /// crashed node recovers, which must re-arm timers but not
    /// re-bootstrap state.
    started: bool,
    /// Whether the `Bootstrap` decree has been applied. Replicated state
    /// (set by `broadcast`, restored from snapshots) — the event log is
    /// NOT a faithful mirror after a snapshot install, so bootstrap
    /// dedup cannot scan it.
    boot_done: bool,
    rep: Rep,
    /// The effect buffer each `Node` callback lends its step (reused, so
    /// a callback allocates nothing for it).
    fx: Vec<Effect>,
}

const CHECK_TIMER: u64 = 1;
const PLAN_TIMER: u64 = 2;
const RESYNC_TIMER: u64 = 3;
const REP_TICK: u64 = 4;

/// How often the planner examines per-range load counters.
const PLAN_INTERVAL: SimDuration = SimDuration::millis(10);

/// Remote load must exceed the current primary's own ingress load by
/// this multiple before a move pays for its disruption (cost budget).
const MIN_ADVANTAGE: u64 = 2;

/// Maximum migrations in flight at once.
const MAX_CONCURRENT_MIGRATIONS: usize = 1;

/// Planner cooldown per range after a commit (no flapping).
pub const PLANNER_COOLDOWN: SimDuration = SimDuration::millis(50);

/// Re-broadcast period for the authoritative range table (idempotent
/// per-range-epoch reconciliation after lost commits).
const RESYNC_INTERVAL: SimDuration = SimDuration::millis(10);

impl Controller {
    /// Controller replica `idx` of `group` (replica node ids, index
    /// order), managing `switches` (initial chain = declaration order)
    /// running the given register declarations. Replica 0 bootstraps the
    /// group by electing itself at start; the others begin as followers.
    /// The group of one, `[NodeId::CONTROLLER]`, is the paper's single
    /// controller.
    pub fn replica(
        cfg: SwishConfig,
        switches: Vec<NodeId>,
        specs: Vec<RegisterSpec>,
        idx: u8,
        group: Vec<NodeId>,
    ) -> Controller {
        let me = group[idx as usize];
        Controller::spare(cfg, switches, specs, idx, me, group)
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
        let peer_hb = group
            .iter()
            .copied()
            .filter(|&g| g != me)
            .map(|g| (g, SimTime::ZERO))
            .collect();
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
            rep: Rep {
                cons: Consensus::new(me, idx, group),
                applied: 0,
                last_leader_hb: SimTime::ZERO,
                last_attempt: SimTime::ZERO,
                peer_hb,
                hb_gaps: Vec::new(),
                suspected: false,
                last_compact_upto: 0,
                pending_member: Vec::new(),
                tick_armed: false,
                msgs_sent: 0,
                elections: 0,
                suspect_events: 0,
                follower_reads: 0,
                snapshot_bytes: 0,
            },
            fx: Vec::new(),
        }
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

    /// True while this replica leads its group. A group of one leads
    /// from its start on.
    pub fn is_acting_leader(&self) -> bool {
        self.rep.cons.role == Role::Leader
    }

    /// The leader named by the committed log prefix.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.rep.cons.leader_hint
    }

    /// This replica's consensus counters.
    pub fn consensus_metrics(&self) -> ConsensusMetrics {
        let r = &self.rep;
        ConsensusMetrics {
            msgs_sent: r.msgs_sent,
            leader_changes: r.cons.leader_changes,
            elections: r.elections,
            commit: r.cons.commit,
            log_compactions: r.cons.compactions,
            snapshot_bytes: r.snapshot_bytes,
            suspect_events: r.suspect_events,
            follower_reads: r.follower_reads,
        }
    }

    /// The sticky consensus-layer error, if this replica's log window
    /// ever overflowed. The oracle suite polls this: overflow is a
    /// protocol violation once compaction exists, not a panic.
    pub fn consensus_error(&self) -> Option<ConsensusError> {
        self.rep.cons.error
    }

    /// The consensus membership this replica currently believes. Changes
    /// at runtime as `AddReplica` / `RemoveReplica` decrees commit.
    pub fn consensus_group(&self) -> Vec<NodeId> {
        self.rep.cons.group.clone()
    }

    /// The replica's consensus-log compaction boundary (0 before the
    /// first compaction).
    pub fn log_base(&self) -> u64 {
        self.rep.cons.base()
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

    /// Propose a decision as the next consensus decree if leading
    /// (followers never submit — their decisions are skipped at the call
    /// sites). A group of one chooses and applies it within this call.
    fn submit(&mut self, cmd: CtrlCmd, out: &mut Out) {
        let rep = &mut self.rep;
        if rep.cons.role != Role::Leader || rep.cons.has_pending(&cmd) {
            return;
        }
        let msgs = rep.cons.enqueue(cmd);
        self.send_consensus(msgs, out);
        self.drain_chosen(out);
    }

    /// Record an operator membership change and propose it if leading.
    /// Every replica that saw the trigger keeps the intent; see
    /// [`Controller::flush_member_changes`].
    fn queue_member_change(&mut self, node: NodeId, add: bool, out: &mut Out) {
        let rep = &mut self.rep;
        if !rep.pending_member.contains(&(node, add)) {
            rep.pending_member.push((node, add));
        }
        self.flush_member_changes(out);
    }

    /// Drop membership intents the group already reflects; as leader,
    /// propose the rest. Called on the trigger and on every replica
    /// tick, so an intent survives leader crashes and churn: whichever
    /// replica leads next re-proposes it until the decree commits.
    fn flush_member_changes(&mut self, out: &mut Out) {
        let rep = &mut self.rep;
        rep.pending_member
            .retain(|&(node, add)| rep.cons.group.contains(&node) != add);
        if rep.cons.role != Role::Leader {
            return;
        }
        let cmds: Vec<CtrlCmd> = rep
            .pending_member
            .iter()
            .map(|&(node, add)| member_cmd(node, add))
            .collect();
        for cmd in cmds {
            self.submit(cmd, out);
        }
    }

    fn send_consensus(&mut self, msgs: Outbox, out: &mut Out) {
        self.rep.msgs_sent += msgs.len() as u64;
        for (to, msg) in msgs {
            out.send(to, msg);
        }
    }

    /// Journal the semantic effect of a decree after applying it (the
    /// follower gate keeps each transition to one record).
    fn journal_decree(&self, slot: Slot, cmd: &CtrlCmd, out: &mut Out) {
        let ev = match *cmd {
            CtrlCmd::Reassert { leader } => CtrlEvent::LeaderElected {
                leader,
                epoch: self.view.epoch,
                slot,
            },
            CtrlCmd::AddReplica { node } => CtrlEvent::MemberChange {
                node,
                add: true,
                slot,
            },
            CtrlCmd::RemoveReplica { node } => CtrlEvent::MemberChange {
                node,
                add: false,
                slot,
            },
            _ => return,
        };
        out.journal(ev);
    }

    /// Journal the consensus transitions buffered since the last drain,
    /// then apply every newly chosen decree, in slot order. Only the
    /// leader emits the resulting fabric messages and decree records.
    fn drain_chosen(&mut self, out: &mut Out) {
        self.rep.journal_notes(out);
        while self.rep.applied < self.rep.cons.commit {
            let slot = self.rep.applied;
            let cmd = self.rep.cons.chosen_at(slot).expect("slot below commit");
            self.rep.applied += 1;
            out.journal(CtrlEvent::Applied {
                slot,
                tag: cmd_tag(&cmd),
            });
            out.emit = self.is_acting_leader();
            self.apply_cmd(cmd, out);
            self.journal_decree(slot, &cmd, out);
            out.emit = true;
        }
    }

    /// Apply one decree to the replicated state. Must be deterministic
    /// given (command, state): every guard reads replicated state only —
    /// time-based heuristics (cooldown) are checked at decision time
    /// instead.
    fn apply_cmd(&mut self, cmd: CtrlCmd, out: &mut Out) {
        match cmd {
            CtrlCmd::Bootstrap => {
                if self.boot_done {
                    return;
                }
                self.broadcast(out, ConfigEventKind::Bootstrap);
                if self.has_partitioned() {
                    self.bootstrap_ranges(out);
                }
            }
            CtrlCmd::Reassert { leader } => {
                self.broadcast(out, ConfigEventKind::LeaderElected(leader));
                if self.is_acting_leader() {
                    // The new leader re-announces itself to the switches
                    // and re-asserts the range tables (anti-entropy for
                    // anything the old leader's loss left unconfirmed).
                    self.announce_lead(out);
                    self.resync_ranges(out);
                    // Failure-detection grace: heartbeat times observed
                    // as a follower may predate a partition; re-baseline
                    // so failover does not mass-expire the fabric.
                    let now = out.now;
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
                self.broadcast(out, ConfigEventKind::Failed(node));
                self.handle_partitioned_failure(node, out);
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
                self.broadcast(out, ConfigEventKind::LearnerAdded(node));
                match source {
                    Some(src) => {
                        out.send(
                            src,
                            SwishMsg::SnapReq(SnapshotRequest {
                                target: node,
                                epoch: self.view.epoch,
                            }),
                        );
                    }
                    None => {
                        // Nothing to catch up from: promote immediately.
                        self.view.learners.retain(|&n| n != node);
                        self.view.chain.push(node);
                        self.broadcast(out, ConfigEventKind::Promoted(node));
                    }
                }
            }
            CtrlCmd::Promote { node } => {
                if !self.view.learners.contains(&node) {
                    return;
                }
                self.view.learners.retain(|&n| n != node);
                self.view.chain.push(node);
                self.broadcast(out, ConfigEventKind::Promoted(node));
            }
            CtrlCmd::Move {
                reg,
                key,
                to,
                planned,
            } => self.start_move(reg, key, to, planned, out),
            CtrlCmd::Grow { reg, key, to } => self.start_grow(reg, key, to, out),
            CtrlCmd::Shrink { reg, key, node } => self.start_shrink(reg, key, node, out),
            CtrlCmd::MigDone {
                reg,
                start,
                node,
                epoch,
                pass,
            } => self.apply_mig_done(reg, start, node, epoch, pass, out),
            CtrlCmd::Compact { upto } => {
                // Recycle the log window at the *apply* cursor — the
                // same boundary on every replica, and never ahead of any
                // replica's own applied prefix (a committed-but-unapplied
                // suffix must keep its register cells). The snapshot that
                // makes the prefix recoverable is costed in wire bytes as
                // if persisted to the snapshot register region.
                let snap_len = SwishMsg::CtrlSnap(Box::new(self.make_snapshot())).wire_len() as u64;
                let rep = &mut self.rep;
                if rep.cons.compact_to(upto) {
                    rep.snapshot_bytes += snap_len;
                    out.journal(CtrlEvent::Compact {
                        upto,
                        snap_bytes: snap_len,
                    });
                }
            }
            CtrlCmd::AddReplica { node } => self.apply_replica_change(node, true, out),
            CtrlCmd::RemoveReplica { node } => self.apply_replica_change(node, false, out),
        }
    }

    /// Consensus already switched membership at commit time (quorum math
    /// must change the moment the decree is chosen); the controller's
    /// apply side re-keys its replica-liveness table to the new group and
    /// logs the event for the operator.
    fn apply_replica_change(&mut self, node: NodeId, added: bool, out: &mut Out) {
        let now = out.now;
        let epoch = self.view.epoch;
        self.rep.rekey_peers(now);
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

    /// Send the current configuration to one switch (idempotent; used for
    /// both broadcasts and per-switch reconciliation of lost messages).
    fn send_config_to(&self, out: &mut Out, sw: NodeId) {
        out.send(
            sw,
            SwishMsg::Chain(ChainConfig {
                epoch: self.view.epoch,
                chain: self.view.chain.clone(),
                learners: self.view.learners.clone(),
            }),
        );
        out.send(
            sw,
            SwishMsg::Group(GroupConfig {
                epoch: self.view.epoch,
                members: self.group_members(),
            }),
        );
        // Piggyback the leader announcement so a switch that missed a
        // failover redirects its controller-bound traffic.
        out.send(sw, SwishMsg::CtrlLead(self.lead()));
    }

    fn lead(&self) -> CtrlLead {
        CtrlLead {
            leader: self.rep.cons.me,
            ballot: self.rep.cons.bal,
        }
    }

    fn announce_lead(&mut self, out: &mut Out) {
        let lead = self.lead();
        for &sw in &self.switches {
            if out.send(sw, SwishMsg::CtrlLead(lead)) {
                self.rep.msgs_sent += 1;
            }
        }
    }

    fn broadcast(&mut self, out: &mut Out, kind: ConfigEventKind) {
        self.view.epoch += 1;
        if matches!(kind, ConfigEventKind::Bootstrap) {
            self.boot_done = true;
        }
        self.events.push(ConfigEvent {
            time: out.now,
            epoch: self.view.epoch,
            kind,
        });
        // Reprogram the fabric multicast tree (controller privilege).
        out.set_group(self.group_members());
        for &sw in &self.switches {
            self.send_config_to(out, sw);
        }
    }

    // ------------------------------------------------------------------
    // Decisions (leader only)
    // ------------------------------------------------------------------

    fn note_heartbeat(&mut self, from: NodeId, epoch: u32, out: &mut Out) {
        let now = out.now;
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
            self.submit(CtrlCmd::Fail { node: from }, out);
        }
        let known = self.view.chain.contains(&from) || self.view.learners.contains(&from);
        if !known && self.switches.contains(&from) {
            self.submit(CtrlCmd::Admit { node: from }, out);
        }
    }

    fn check_liveness(&mut self, out: &mut Out) {
        let now = out.now;
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
            self.submit(CtrlCmd::Fail { node: d }, out);
        }
        // Reconciliation: configuration messages ride the same lossy
        // fabric as everything else; re-send to any live switch whose
        // heartbeat reports a stale epoch. Pure messaging, no decree.
        for &(sw, _, epoch) in &self.last_hb {
            if epoch < self.view.epoch {
                self.send_config_to(out, sw);
            }
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
    fn run_planner(&mut self, out: &mut Out) {
        let pol = self.cfg.reconfig;
        let now = out.now;
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
                if hot_n < pol.min_writes || hot_n < MIN_ADVANTAGE.saturating_mul(primary_n.max(1))
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
                    out,
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
    fn bootstrap_ranges(&mut self, out: &mut Out) {
        let now = out.now;
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
                self.broadcast_commit(out, spec.id, r.start, r.end, 1, &r.owners);
            }
        }
    }

    fn broadcast_commit(
        &self,
        out: &mut Out,
        reg: RegId,
        start: Key,
        end: Key,
        epoch: u32,
        owners: &[NodeId],
    ) {
        for &sw in &self.switches {
            out.send(
                sw,
                SwishMsg::OwnershipCommit(OwnershipCommit {
                    reg,
                    start,
                    end,
                    epoch,
                    owners: owners.to_vec(),
                }),
            );
        }
    }

    fn broadcast_begin(&self, out: &mut Out, m: &MigrateBegin) {
        for &sw in &self.switches {
            out.send(sw, SwishMsg::MigrateBegin(*m));
        }
    }

    /// The directory range of `reg` holding `key`.
    fn range_at(&self, reg: RegId, key: Key) -> Option<RangeEntry> {
        let ranges = self.directory.ranges(reg);
        ranges
            .iter()
            .find(|r| r.start <= key && key < r.end)
            .cloned()
    }

    fn meta_idx(&self, reg: RegId, start: Key) -> Option<usize> {
        self.rmeta
            .iter()
            .position(|m| m.reg == reg && m.start == start)
    }

    /// Commit `owners` as the range's owner set at a fresh per-range
    /// epoch: update the directory, retire any open migration, start the
    /// planner cooldown, and broadcast the `OwnershipCommit`.
    fn commit_range(&mut self, reg: RegId, start: Key, owners: Vec<NodeId>, out: &mut Out) {
        let Some(i) = self.meta_idx(reg, start) else {
            return;
        };
        let now = out.now;
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
            out.journal(CtrlEvent::MigCommit { reg, start, epoch });
        }
        self.rmeta[i].cooldown_until = Some(now + PLANNER_COOLDOWN);
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
        self.broadcast_commit(out, reg, start, end, epoch, &owners);
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
        out: &mut Out,
    ) {
        let Some(range) = self.range_at(reg, key) else {
            return;
        };
        let Some(i) = self.meta_idx(reg, range.start) else {
            return;
        };
        let now = out.now;
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
            || self.open_migrations() >= MAX_CONCURRENT_MIGRATIONS
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
        out.journal(CtrlEvent::MigBegin {
            reg,
            start: range.start,
            from,
            to,
            epoch,
        });
        self.broadcast_begin(
            out,
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
    fn start_move(&mut self, reg: RegId, key: Key, to: NodeId, planned: bool, out: &mut Out) {
        let Some(range) = self.range_at(reg, key) else {
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
        self.begin_migration(reg, key, to, commit_owners, planned, out);
    }

    /// Grow the replica group of the range containing `key`: `node`
    /// joins as an additional owner after a state transfer.
    fn start_grow(&mut self, reg: RegId, key: Key, node: NodeId, out: &mut Out) {
        let Some(range) = self.range_at(reg, key) else {
            return;
        };
        let mut commit_owners = range.owners.clone();
        commit_owners.push(node);
        self.begin_migration(reg, key, node, commit_owners, false, out);
    }

    /// Shrink the replica group of the range containing `key`: `node`
    /// leaves the owner set. No transfer needed — every acked write is
    /// already applied at all owners (chain prefix property) — so this
    /// is a direct commit.
    fn start_shrink(&mut self, reg: RegId, key: Key, node: NodeId, out: &mut Out) {
        let Some(range) = self.range_at(reg, key) else {
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
        self.commit_range(reg, range.start, owners, out);
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
        out: &mut Out,
    ) {
        let now = out.now;
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
            out.journal(CtrlEvent::MigDualOwner {
                reg,
                start,
                epoch,
                pass,
            });
            self.commit_range(reg, start, owners, out);
        }
    }

    /// A switch failed (or was demoted amnesiac): repair every
    /// partitioned range it participated in. Destination gone → abort
    /// (re-assert owners at a fresh epoch). Owner gone with survivors →
    /// shrink commit (survivors hold every acked write). Sole owner gone
    /// with a live transfer destination → promote the destination (it
    /// holds every write acked during the window; older state it never
    /// received is lost with the sole owner either way).
    fn handle_partitioned_failure(&mut self, d: NodeId, out: &mut Out) {
        let now = out.now;
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
                let abort = if mig.to == d {
                    // Re-assert the current owners at a fresh epoch:
                    // clears `mig_to` at every switch and stops the
                    // source's streamer.
                    Some((
                        "destination failed",
                        ABORT_DEST_FAILED,
                        range.owners.clone(),
                    ))
                } else if !range.owners.contains(&d) {
                    None
                } else if survivors.is_empty() {
                    Some((
                        "sole owner failed; promoting destination",
                        ABORT_SOLE_OWNER_PROMOTE,
                        vec![mig.to],
                    ))
                } else {
                    Some((
                        "owner failed during transfer",
                        ABORT_OWNER_FAILED,
                        survivors,
                    ))
                };
                if let Some((reason, code, owners)) = abort {
                    self.log_reconfig(now, ReconfigEvent::Abort { reg, start, reason });
                    out.journal(CtrlEvent::MigAbort {
                        reg,
                        start,
                        epoch: mig.epoch,
                        reason: code,
                    });
                    self.commit_range(reg, start, owners, out);
                }
            } else if range.owners.contains(&d) && !survivors.is_empty() {
                // Plain owner failure: shrink the replica group.
                self.commit_range(reg, start, survivors, out);
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
    fn resync_ranges(&mut self, out: &mut Out) {
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
            self.broadcast_commit(out, m.reg, m.start, m.end, m.committed_epoch, &range.owners);
            if let Some(mig) = &m.mig {
                self.broadcast_begin(
                    out,
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

    fn rep_tick(&mut self, out: &mut Out) {
        let hb_interval = self.cfg.heartbeat_interval;
        let retry_pace = self.cfg.failure_timeout;
        let cfg = self.cfg;
        let rep = &mut self.rep;
        let now = out.now;
        let me = rep.cons.me;
        // Leader lease: a leader that cannot hear a quorum of peers
        // within `failure_timeout` cannot commit anything either — stop
        // acting so an isolated old leader bounds its own tenure. (This
        // same lease is what bounds follower-read staleness: every
        // lookup a *deposed-but-unaware* leader can serve is confined to
        // this window.)
        if rep.cons.role == Role::Leader {
            let group = &rep.cons.group;
            let heard = rep
                .peer_hb
                .iter()
                .filter(|(n, t)| *n != me && group.contains(n) && now.since(*t) <= retry_pace)
                .count();
            if heard + 1 < rep.cons.quorum() {
                out.journal(CtrlEvent::LeaseLost {
                    heard: heard as u32,
                    quorum: rep.cons.quorum() as u32,
                });
                rep.restart_consensus(out);
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
        for &p in rep.cons.group.iter().filter(|&&p| p != me) {
            rep.msgs_sent += 1;
            out.send(p, SwishMsg::CtrlHb(hb));
        }
        // Loss recovery for in-flight proposals.
        let msgs = rep.cons.retransmit();
        self.send_consensus(msgs, out);
        self.drain_chosen(out);
        // An established leader decrees the initial configuration if the
        // group has not bootstrapped yet.
        if self.is_acting_leader() && !self.boot_done {
            self.submit(CtrlCmd::Bootstrap, out);
        }
        // Log compaction: once the window crosses the threshold and the
        // leader's apply cursor has caught up with commit (so the decree
        // boundary captures exactly the applied prefix), propose a
        // `Compact`. `last_compact_upto` suppresses re-proposing while
        // one is in flight.
        let r = &mut self.rep;
        if r.cons.role == Role::Leader
            && r.applied == r.cons.commit
            && r.cons.window_len() >= cfg.log_compact_threshold
            && r.cons.commit > r.last_compact_upto
        {
            let upto = r.cons.commit;
            r.last_compact_upto = upto;
            self.submit(CtrlCmd::Compact { upto }, out);
        }
        // Re-propose operator membership intents the group does not yet
        // reflect (survives leader crashes between trigger and commit).
        self.flush_member_changes(out);
        // Election timer, phi-accrual style: with enough leader-beacon
        // inter-arrival history the suspicion threshold adapts to the
        // *observed* beacon cadence (mean + phi deviations + floor,
        // capped at 2x the static timeout) instead of the conservative
        // static `failure_timeout`. Staggered by position in the current
        // group so the first live member normally wins uncontested. A
        // spare (group does not contain us yet) never campaigns.
        let rep = &mut self.rep;
        let pos = rep.cons.group.iter().position(|&g| g == me);
        let stagger = hb_interval.0 * pos.unwrap_or(0) as u64;
        let timeout_ns = if cfg.adaptive_detector && rep.hb_gaps.len() >= 3 {
            let n = rep.hb_gaps.len() as u64;
            let mean = rep.hb_gaps.iter().sum::<u64>() / n;
            let dev = rep.hb_gaps.iter().map(|&g| g.abs_diff(mean)).sum::<u64>() / n;
            (mean + DETECTOR_PHI * dev + DETECTOR_FLOOR.0).min(2 * retry_pace.0)
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
                out.journal(CtrlEvent::Suspect {
                    target: rep.cons.leader_hint.unwrap_or(me),
                    silence_ns: now.since(rep.last_leader_hb).0,
                    timeout_ns: election_timeout.0,
                });
            }
            if now.since(rep.last_attempt) > retry_pace {
                rep.last_attempt = now;
                rep.elections += 1;
                let msgs = rep.cons.start_candidacy();
                out.journal(CtrlEvent::ElectionStart {
                    ballot: rep.cons.bal,
                    timeout_ns: election_timeout.0,
                });
                self.send_consensus(msgs, out);
                self.drain_chosen(out);
            }
        }
    }

    /// Record liveness contact with a fellow replica (feeds the leader
    /// lease in `rep_tick`).
    fn note_peer(&mut self, from: NodeId, now: SimTime) {
        let rep = &mut self.rep;
        let member = rep.cons.group.contains(&from);
        match rep.peer_hb.iter_mut().find(|(n, _)| *n == from) {
            Some((_, t)) => *t = now,
            None if member => rep.peer_hb.push((from, now)),
            None => {}
        }
    }

    fn on_ctrl_hb(&mut self, hb: CtrlHb, out: &mut Out) {
        let now = out.now;
        self.note_peer(hb.from, now);
        let rep = &mut self.rep;
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
            if rep.suspected {
                out.journal(CtrlEvent::Unsuspect { target: hb.from });
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
            if out.journaling {
                out.journal(CtrlEvent::SnapshotSent {
                    base,
                    bytes: msg.wire_len() as u64,
                    to: hb.from,
                });
            }
            self.send_consensus(vec![(hb.from, msg)], out);
        }
        if needs_replay {
            let learns: Vec<(NodeId, SwishMsg)> = self
                .rep
                .cons
                .learns_since(hb.commit)
                .into_iter()
                .map(|l| (hb.from, SwishMsg::CtrlLearn(l)))
                .collect();
            self.send_consensus(learns, out);
        }
    }

    /// Serialize the applied controller state for a lagging replica:
    /// consensus bookkeeping up to this replica's apply cursor plus the
    /// fabric view and the full partitioned-range tables.
    fn make_snapshot(&self) -> CtrlSnap {
        let rep = &self.rep;
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
    fn on_ctrl_snap(&mut self, s: CtrlSnap, out: &mut Out) {
        let now = out.now;
        self.note_peer(s.from, now);
        let rep = &mut self.rep;
        if !rep
            .cons
            .install_base(s.base, s.group.clone(), s.leader, s.leader_changes)
        {
            return;
        }
        rep.applied = s.base;
        out.journal(CtrlEvent::SnapshotInstalled { base: s.base });
        rep.rekey_peers(now);
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
        self.drain_chosen(out);
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

fn member_cmd(node: NodeId, add: bool) -> CtrlCmd {
    if add {
        CtrlCmd::AddReplica { node }
    } else {
        CtrlCmd::RemoveReplica { node }
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

// ----------------------------------------------------------------------
// The step: the controller's one entry point
// ----------------------------------------------------------------------

impl Controller {
    /// Handle one input at `out.now`, writing every effect to `out` in
    /// emission order. No engine is involved: a test or an explorer can
    /// drive the controller by calling this directly.
    pub(crate) fn step(&mut self, input: Input, out: &mut Out) {
        // The consensus state machine records transition notes exactly
        // while a journal subscriber listens.
        self.rep.cons.notes_on = out.journaling;
        match input {
            Input::Start => self.start(out),
            Input::Packet(msg) => self.on_msg(msg, out),
            Input::Timer(token) => self.on_tick(token, out),
        }
    }

    /// Start, or re-enter after a crash heals: the engine re-dispatches
    /// the start then. Controller state survives (modeling persistent
    /// controller storage; see DESIGN.md §12), but pending timers were
    /// suppressed while down, so they are re-armed, and heartbeat ages
    /// must not count the downtime.
    fn start(&mut self, out: &mut Out) {
        let now = out.now;
        let hb_interval = self.cfg.heartbeat_interval;
        let recovering = std::mem::replace(&mut self.started, true);
        if recovering {
            for (_, t, _) in self.last_hb.iter_mut() {
                *t = now;
            }
        } else {
            self.last_hb = self.switches.iter().map(|&s| (s, now, 0)).collect();
        }
        out.timer(hb_interval, CHECK_TIMER);
        if self.has_partitioned() {
            out.timer(RESYNC_INTERVAL, RESYNC_TIMER);
            if self.cfg.reconfig.enabled {
                out.timer(PLAN_INTERVAL, PLAN_TIMER);
            }
        }
        let rep = &mut self.rep;
        rep.tick_armed = false; // suppressed while down
        rep.arm_tick(hb_interval, out);
        rep.last_leader_hb = now;
        rep.last_attempt = now;
        for (_, t) in rep.peer_hb.iter_mut() {
            *t = now;
        }
        if recovering {
            // Whatever we were mid-flight on is stale; rejoin as a
            // follower and let the election timer sort leadership. The
            // inter-arrival history spans the downtime: discard it so the
            // detector re-learns the cadence from scratch.
            rep.restart_consensus(out);
            rep.hb_gaps.clear();
            rep.suspected = false;
        }
        // Replica 0 bootstraps the group: elect, then decree the initial
        // configuration (`Bootstrap` rides the next tick). A member with
        // no other member to hear a beacon from campaigns at its restart
        // too: alone, it leads again within this step.
        if (!recovering && rep.cons.idx == 0) || rep.alone() {
            rep.elections += 1;
            let msgs = rep.cons.start_candidacy();
            self.send_consensus(msgs, out);
            self.drain_chosen(out);
        }
    }

    fn on_msg(&mut self, msg: SwishMsg, out: &mut Out) {
        let now = out.now;
        match msg {
            SwishMsg::Heartbeat(hb) => self.note_heartbeat(hb.from, hb.epoch, out),
            SwishMsg::DirLookup(q) => {
                // Follower reads: a non-leading replica
                // may answer only under a fresh leader lease — a beacon
                // within `DIR_LEASE` proves its applied prefix is at most
                // one lease behind the leader's commits. Outside the
                // lease the lookup is dropped; the querier's CP retry
                // (which also re-targets) recovers. A leader answers
                // unconditionally.
                let rep = &mut self.rep;
                if rep.cons.role != Role::Leader {
                    if now.since(rep.last_leader_hb) > DIR_LEASE {
                        return;
                    }
                    rep.follower_reads += 1;
                    out.journal(CtrlEvent::FollowerRead {
                        reg: q.reg,
                        key: q.key,
                    });
                }
                let owners = self.directory.lookup(q.reg, q.key, q.from);
                out.send(
                    q.from,
                    SwishMsg::DirReply(DirReply {
                        reg: q.reg,
                        key: q.key,
                        owners,
                    }),
                );
            }
            SwishMsg::CatchupDone(c)
                if self.view.learners.contains(&c.node) && self.is_acting_leader() =>
            {
                self.submit(CtrlCmd::Promote { node: c.node }, out);
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
                        out,
                    );
                }
            }
            SwishMsg::CtrlHb(hb) => self.on_ctrl_hb(hb, out),
            SwishMsg::CtrlSnap(s) => self.on_ctrl_snap(*s, out),
            msg => {
                let Some((from, msgs)) = self.rep.cons.on_msg(msg) else {
                    return;
                };
                self.note_peer(from, now);
                self.send_consensus(msgs, out);
                self.drain_chosen(out);
            }
        }
    }

    fn on_tick(&mut self, token: u64, out: &mut Out) {
        if let Some((op, reg, key, to)) = decode_trigger(token) {
            // Replica-group reconfiguration bypasses the leader gate:
            // every replica records the operator's intent and whoever
            // leads (now or after a crash) proposes it — the trigger's
            // node field carries the replica *index* (controller ids
            // don't fit 12 bits), mapped back to the `u16::MAX - idx`
            // id scheme used by the deployment.
            let cmd = match op {
                TriggerOp::AddCtrl | TriggerOp::RemoveCtrl => {
                    let add = op == TriggerOp::AddCtrl;
                    self.queue_member_change(NodeId(u16::MAX - to.0), add, out);
                    return;
                }
                _ if !self.is_acting_leader() => return,
                TriggerOp::Move => CtrlCmd::Move {
                    reg,
                    key,
                    to,
                    planned: false,
                },
                TriggerOp::Grow => CtrlCmd::Grow { reg, key, to },
                TriggerOp::Shrink => CtrlCmd::Shrink { reg, key, node: to },
            };
            // Moves and grows wait out the planner holdoff; shrinks do not.
            if matches!(cmd, CtrlCmd::Shrink { .. }) || self.cooldown_ok(reg, key, out.now) {
                self.submit(cmd, out);
            }
            return;
        }
        match token {
            CHECK_TIMER => {
                if self.is_acting_leader() {
                    self.check_liveness(out);
                }
                if self.rep.alone() {
                    self.rep_tick(out);
                } else {
                    // A group that grew from one starts its replica tick.
                    self.rep.arm_tick(self.cfg.heartbeat_interval, out);
                }
                out.timer(self.cfg.heartbeat_interval, CHECK_TIMER);
            }
            PLAN_TIMER => {
                if self.is_acting_leader() {
                    self.run_planner(out);
                } else {
                    self.clear_load_window();
                }
                out.timer(PLAN_INTERVAL, PLAN_TIMER);
            }
            RESYNC_TIMER => {
                if self.is_acting_leader() {
                    self.resync_ranges(out);
                }
                out.timer(RESYNC_INTERVAL, RESYNC_TIMER);
            }
            REP_TICK => {
                self.rep.tick_armed = false;
                self.rep_tick(out);
                self.rep.arm_tick(self.cfg.heartbeat_interval, out);
            }
            _ => {}
        }
    }

    /// The `Node` shell: step on the reused effect buffer, then replay
    /// the effects into the engine in emission order. `Ctx` holds sends,
    /// timers and group updates until the callback returns, and journal
    /// records reach only observers, so the replay changes no run.
    fn shell(&mut self, input: Input, ctx: &mut Ctx<'_>) {
        let mut out = Out::new(ctx.now(), ctx.journaling(), std::mem::take(&mut self.fx));
        self.step(input, &mut out);
        for effect in out.effects.drain(..) {
            match effect {
                Effect::Send(to, msg) => ctx.send(to, PacketBody::Swish(msg)),
                Effect::SetGroup(members) => ctx.set_group(REPLICA_GROUP, members),
                Effect::Timer(delay, token) => ctx.set_timer(delay, token),
                Effect::Journal(event) => ctx.journal(event),
            }
        }
        self.fx = out.effects;
    }
}

impl Node for Controller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.shell(Input::Start, ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketBody::Swish(msg) = pkt.body {
            self.shell(Input::Packet(msg), ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        self.shell(Input::Timer(token), ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swishmem_wire::swish::Heartbeat;

    /// The paper's single controller: replica 0 of a group of one.
    fn alone(switches: Vec<NodeId>) -> Controller {
        let group = vec![NodeId::CONTROLLER];
        Controller::replica(SwishConfig::default(), switches, vec![], 0, group)
    }

    #[test]
    fn initial_view_uses_declaration_order() {
        let sw = vec![NodeId(2), NodeId(0), NodeId(1)];
        let mut c = alone(sw.clone());
        assert_eq!(c.view().chain, sw);
        assert_eq!(c.view().epoch, 0);
        assert!(c.events().is_empty());
        assert!(!c.is_acting_leader(), "no replica leads before its start");
        step(&mut c, Input::Start, SimTime::ZERO);
        assert!(c.is_acting_leader(), "a group of one leads from its start");
        assert_eq!((c.view().epoch, &c.view().chain), (1, &sw));
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

    // Engine-free runs: the tests drive `step` directly, with a journal
    // subscriber attached, and read the effects it leaves.

    fn step(c: &mut Controller, input: Input, now: SimTime) -> Vec<Effect> {
        let mut out = Out::new(now, true, Vec::new());
        c.step(input, &mut out);
        out.effects
    }

    /// `(to, epoch, chain)` of every `ChainConfig` and `(to, epoch,
    /// members)` of every `GroupConfig` in `fx`, in order.
    type Configs = Vec<(NodeId, u32, Vec<NodeId>)>;
    fn configs(fx: &[Effect]) -> (Configs, Configs) {
        let (mut chains, mut groups) = (Vec::new(), Vec::new());
        for e in fx {
            match e {
                Effect::Send(to, SwishMsg::Chain(c)) => {
                    chains.push((*to, c.epoch, c.chain.clone()))
                }
                Effect::Send(to, SwishMsg::Group(g)) => {
                    groups.push((*to, g.epoch, g.members.clone()))
                }
                _ => {}
            }
        }
        (chains, groups)
    }

    /// True for a consensus frame: a group of one never sends one.
    fn consensus_frame(e: &Effect) -> bool {
        matches!(
            e,
            Effect::Send(
                _,
                SwishMsg::CtrlPrepare(_)
                    | SwishMsg::CtrlPromise(_)
                    | SwishMsg::CtrlAccept(_)
                    | SwishMsg::CtrlAccepted(_)
                    | SwishMsg::CtrlLearn(_)
                    | SwishMsg::CtrlHb(_)
            )
        )
    }

    /// The slots of the decrees `fx` journals as applied, with their tags.
    fn applied(fx: &[Effect]) -> Vec<(Slot, u16)> {
        let slots = fx.iter().filter_map(|e| match e {
            Effect::Journal(CtrlEvent::Applied { slot, tag }) => Some((*slot, *tag)),
            _ => None,
        });
        slots.collect()
    }

    #[test]
    fn a_group_of_one_elects_at_start_with_no_consensus_frame() {
        let cfg = SwishConfig::default();
        let sw: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut c = alone(sw.clone());
        let fx = step(&mut c, Input::Start, SimTime::ZERO);
        assert!(!fx.iter().any(consensus_frame), "{fx:?}");
        assert!(c.is_acting_leader());
        assert_eq!(applied(&fx), vec![(0, 2)], "Reassert at slot 0");
        let elected = ConfigEventKind::LeaderElected(NodeId::CONTROLLER);
        assert_eq!(c.events().last().map(|e| &e.kind), Some(&elected));
        // Epoch 1 reaches every switch with the leader announcement.
        let epoch1: Configs = sw.iter().map(|&s| (s, 1, sw.clone())).collect();
        assert_eq!(configs(&fx), (epoch1.clone(), epoch1));
        let lead = |e: &&Effect| matches!(e, Effect::Send(_, SwishMsg::CtrlLead(l)) if l.leader == NodeId::CONTROLLER);
        let leads = fx.iter().filter(lead).count();
        assert_eq!(leads, 2 * sw.len(), "with each config, then announced");
        // Alone, it arms no replica tick: `Bootstrap` rides its first
        // liveness tick, one heartbeat later.
        let tick = |e: &Effect| matches!(e, Effect::Timer(_, REP_TICK));
        assert!(!fx.iter().any(tick), "{fx:?}");
        let t = SimTime::ZERO + cfg.heartbeat_interval;
        let fx = step(&mut c, Input::Timer(CHECK_TIMER), t);
        assert!(!fx.iter().any(consensus_frame), "{fx:?}");
        assert_eq!(applied(&fx), vec![(1, 1)], "Bootstrap at slot 1");
        let rearm = Effect::Timer(cfg.heartbeat_interval, CHECK_TIMER);
        assert_eq!(fx.last(), Some(&rearm));
        assert!(!fx.iter().any(tick), "{fx:?}");
        assert_eq!(c.view().epoch, 2);
    }

    #[test]
    fn a_group_of_one_applies_a_failure_in_the_step_that_found_it() {
        let cfg = SwishConfig::default();
        let sw: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut c = alone(sw.clone());
        let fx = step(&mut c, Input::Start, SimTime::ZERO);
        assert_eq!(fx[0], Effect::Timer(cfg.heartbeat_interval, CHECK_TIMER));
        let boot = SimTime::ZERO + cfg.heartbeat_interval;
        step(&mut c, Input::Timer(CHECK_TIMER), boot);
        // Switches 0 and 1 heartbeat at the timeout; switch 2 stays silent.
        let t = SimTime::ZERO + cfg.failure_timeout;
        for from in [NodeId(0), NodeId(1)] {
            let hb = SwishMsg::Heartbeat(Heartbeat { from, epoch: 2 });
            assert_eq!(step(&mut c, Input::Packet(hb), t), vec![]);
        }
        let fx = step(&mut c, Input::Timer(CHECK_TIMER), t + SimDuration(1));
        assert!(!fx.iter().any(consensus_frame), "{fx:?}");
        assert_eq!(applied(&fx), vec![(2, 3)], "Fail chosen and applied");
        let survivors = vec![NodeId(0), NodeId(1)];
        let (chains, groups) = configs(&fx);
        assert!(fx.contains(&Effect::SetGroup(survivors.clone())));
        for (to, epoch, members) in chains.iter().chain(&groups) {
            assert_eq!((*epoch, members), (3, &survivors), "config to {to:?}");
        }
        let told: Vec<NodeId> = chains.iter().map(|c| c.0).collect();
        assert!(sw.iter().all(|s| told.contains(s)), "{told:?}");
        assert_eq!(c.view().chain, survivors);
        let last = c.events().last().map(|e| e.kind.clone());
        assert_eq!(last, Some(ConfigEventKind::Failed(NodeId(2))));
    }

    #[test]
    fn a_restarted_group_of_one_leads_again_within_a_heartbeat() {
        let cfg = SwishConfig::default();
        let sw: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut c = alone(sw.clone());
        step(&mut c, Input::Start, SimTime::ZERO);
        let t = SimTime::ZERO + cfg.heartbeat_interval;
        step(&mut c, Input::Timer(CHECK_TIMER), t);
        // A crash heals at 20 ms: no peer can send the beacon an election
        // timeout waits for, so the lone member campaigns at its restart.
        let t = SimTime(20_000_000);
        let fx = step(&mut c, Input::Start, t);
        assert!(c.is_acting_leader(), "{fx:?}");
        assert!(!fx.iter().any(consensus_frame), "{fx:?}");
        let step_down = fx
            .iter()
            .position(|e| matches!(e, Effect::Journal(CtrlEvent::StepDown { .. })));
        let elected = fx
            .iter()
            .position(|e| matches!(e, Effect::Journal(CtrlEvent::LeaderElected { .. })));
        assert!(step_down < elected && step_down.is_some(), "{fx:?}");
        assert_eq!(applied(&fx), vec![(2, 2)], "Reassert at slot 2");
        let epoch3: Configs = sw.iter().map(|&s| (s, 3, sw.clone())).collect();
        assert_eq!(configs(&fx).0, epoch3);
        let last = c.events().last().map(|e| (e.time, e.kind.clone()));
        let elected = ConfigEventKind::LeaderElected(NodeId::CONTROLLER);
        assert_eq!(last, Some((t, elected)));
        assert_eq!(c.consensus_metrics().leader_changes, 0);
    }

    /// Three replicas on an in-memory bus: sends between replicas are
    /// delivered in order; every other effect is kept per replica.
    struct Bus {
        group: Vec<NodeId>,
        reps: Vec<Controller>,
        fx: Vec<Vec<Effect>>,
        queue: std::collections::VecDeque<(NodeId, SwishMsg)>,
    }

    impl Bus {
        fn step(&mut self, i: usize, input: Input, now: SimTime) {
            for e in step(&mut self.reps[i], input, now) {
                match e {
                    Effect::Send(to, msg) if self.group.contains(&to) => {
                        self.queue.push_back((to, msg));
                    }
                    e => self.fx[i].push(e),
                }
            }
        }

        fn deliver_all(&mut self, now: SimTime) {
            while let Some((to, msg)) = self.queue.pop_front() {
                let i = self.group.iter().position(|&g| g == to).unwrap();
                self.step(i, Input::Packet(msg), now);
            }
        }
    }

    /// Three replicas of a three-switch deployment, started at 1 µs with
    /// every message between them delivered.
    fn started_bus() -> Bus {
        let cfg = SwishConfig::default();
        let sw: Vec<NodeId> = (0..3).map(NodeId).collect();
        let group: Vec<NodeId> = (0..3).map(|i| NodeId(u16::MAX - i)).collect();
        let reps = (0..3)
            .map(|i| Controller::replica(cfg, sw.clone(), vec![], i, group.clone()))
            .collect();
        let mut bus = Bus {
            group,
            reps,
            fx: (0..3).map(|_| Vec::new()).collect(),
            queue: Default::default(),
        };
        let now = SimTime(1_000);
        for i in 0..3 {
            bus.step(i, Input::Start, now);
        }
        bus.deliver_all(now);
        bus
    }

    #[test]
    fn replicas_elect_replica_zero_and_apply_bootstrap_at_one_slot() {
        let mut bus = started_bus();
        let group = bus.group.clone();
        let now = SimTime(1_000);
        let leads: Vec<bool> = bus.reps.iter().map(|c| c.is_acting_leader()).collect();
        assert_eq!(leads, [true, false, false]);
        // The leader's replica tick decrees the initial configuration.
        bus.step(0, Input::Timer(REP_TICK), now);
        bus.deliver_all(now);
        let boot_slots: Vec<Vec<Slot>> = bus
            .fx
            .iter()
            .map(|fx| {
                let applied = fx.iter().filter_map(|e| match e {
                    Effect::Journal(CtrlEvent::Applied { slot, tag: 1 }) => Some(*slot),
                    _ => None,
                });
                applied.collect()
            })
            .collect();
        assert_eq!(boot_slots, vec![vec![1]; 3]);
        for c in &bus.reps {
            assert_eq!(c.leader_hint(), Some(group[0]));
            assert_eq!(c.view(), bus.reps[0].view());
            assert!(c
                .events()
                .iter()
                .any(|e| e.kind == ConfigEventKind::Bootstrap));
        }
        let chains: Vec<usize> = bus.fx.iter().map(|fx| configs(fx).0.len()).collect();
        assert!(chains[0] > 0 && chains[1..] == [0, 0], "{chains:?}");
    }

    #[test]
    fn a_restarted_leader_journals_its_step_down_at_the_restart() {
        let mut bus = started_bus();
        assert!(bus.reps[0].is_acting_leader());
        // The leader crashes and the engine re-dispatches its start at
        // 2 ms: it rejoins as a follower, and says so then, not at its
        // next replica tick.
        let fx = step(&mut bus.reps[0], Input::Start, SimTime(2_000_000));
        let step_down = |e: &Effect| matches!(e, Effect::Journal(CtrlEvent::StepDown { .. }));
        assert_eq!(fx.iter().filter(|e| step_down(e)).count(), 1, "{fx:?}");
        assert!(!bus.reps[0].is_acting_leader());
        let tick = step(
            &mut bus.reps[0],
            Input::Timer(REP_TICK),
            SimTime(12_000_000),
        );
        assert!(!tick.iter().any(step_down), "{tick:?}");
    }
}
