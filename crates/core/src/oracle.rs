//! Online consistency oracles for fault-plane runs.
//!
//! An [`OracleSuite`] attaches to a [`Deployment`] and checks invariants
//! *while the simulation runs*: a wire-level observer (fed by the engine's
//! observer hooks) watches every delivered protocol packet, and a periodic
//! poll inspects switch register state and the controller's event log. The
//! first violation aborts the run with enough context (seed + schedule,
//! printed by the caller) to replay it deterministically.
//!
//! ## Soundness notes
//!
//! Faults make many "obvious" invariants false; each oracle here is scoped
//! to what actually holds under loss, reordering, and crashes:
//!
//! * **No invented values** — every *sequenced* chain write (`seq > 0`)
//!   must carry a `Set` value previously requested by some writer
//!   (`seq == 0` requests are all observable on the wire, including the
//!   head writing to itself over its loopback link). Keys that ever see an
//!   `Add` op are tainted and skipped: the head legally rewrites `Add`
//!   into a derived `Set`. The final tail state of untainted keys must
//!   likewise be a requested value or the initial `0`.
//! * **Epoch monotonicity** — checked on *adopted* state (each switch
//!   CP's current view), not on wire delivery order: jitter legally
//!   reorders configuration messages in flight, but a CP must never adopt
//!   a smaller epoch. Controller-issued epochs are strictly increasing.
//!   Baselines reset when a switch crashes (fresh state restarts at 0).
//! * **Per-slot sequence monotonicity** — a chain member's stored
//!   sequence numbers never regress *between crashes of that switch*.
//! * **Tail commit monotonicity** — the tail's committed sequence per
//!   slot never regresses *while the tail identity is stable*; baselines
//!   reset on reconfiguration (a freshly promoted tail is a different
//!   authority).
//! * **No stuck pending bits** — after the fault horizon (`quiesce_at`),
//!   a pending bit whose sequence is already committed at the tail must
//!   clear within `PENDING_BOUND` (the tail's pending sweep re-multicasts
//!   lost clears). Pending bits with `seq >` the tail's commit belong to
//!   abandoned in-flight writes and MUST stay set — they are not flagged.
//! * **Bounded divergence** — once faults cease and a grace period
//!   passes, all live chain members agree with the tail (SRO/ERO) and all
//!   live replicas agree pairwise (EWO). Key groups named in any CP's
//!   `abandoned_writes` are excluded: an abandoned write may legitimately
//!   leave a chain prefix ahead of the tail forever.
//! * **Reconfiguration invariants** (partitioned registers) — the
//!   controller's master range table covers the key space with no
//!   overlap at every poll; per-range epochs installed at each switch
//!   never regress (crash wipes reset the baseline); the per-range
//!   epochs the controller issues across `MigrateBegin`/`OwnershipCommit`
//!   strictly increase; and post-quiesce every switch's installed table
//!   matches full coverage. Convergence for a partitioned range requires
//!   all live owners to agree and the primary's value to be requested.
//!   Ranges whose *entire* owner set was simultaneously failed are
//!   tainted permanently — their state legally died with the owners
//!   (sole-owner crash, or promote-on-source-death during a transfer).
//! * **Journal SLO budgets** — when a control-plane flight recorder is
//!   attached ([`OracleSuite::attach_journal`]), three online monitors
//!   run over the journal: every reconstructed failover must close
//!   within the failover-gap budget, every migration's dual-owner window
//!   (including still-open ones, while the tap has not overflowed) must
//!   stay under its budget, and election churn (campaign starts per
//!   sliding window) must stay under the churn budget. The first
//!   violation of *any* oracle is enriched with the last journal events
//!   before it ([`OracleSuite::violation_context`]).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

use swishmem_simnet::{
    CtrlEvent, JournalHandle, NetEvent, NetObserver, ObserverHandle, SimDuration, SimTime,
};
use swishmem_wire::swish::{Key, RegId, WriteOp};
use swishmem_wire::{NodeId, PacketBody, SwishMsg};

use crate::config::{RegisterClass, RegisterSpec, SwishConfig};
use crate::controller::DIR_LEASE;
use crate::deployment::Deployment;
use crate::telemetry::journal::Journal;

/// How many journal entries before a violation are kept as context.
pub const VIOLATION_CONTEXT_EVENTS: usize = 12;

/// How often the polling oracles inspect switch state.
pub const POLL_INTERVAL: SimDuration = SimDuration::micros(500);

/// How long a committed-but-pending bit may persist after `quiesce_at`
/// before it counts as stuck. Must comfortably exceed the tail sweep
/// period plus delivery latency.
const PENDING_BOUND: SimDuration = SimDuration::millis(25);

/// Oracle tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Time after which the fault schedule is guaranteed quiet; the
    /// pending-bit and convergence oracles only arm from here.
    pub quiesce_at: SimTime,
    /// Extra settling time after `quiesce_at` before the convergence
    /// oracle arms (covers reconfiguration, catch-up, and EWO sync).
    pub convergence_grace: SimDuration,
}

impl OracleConfig {
    /// Defaults for a schedule that is quiet from `quiesce_at` on.
    pub fn new(quiesce_at: SimTime) -> OracleConfig {
        OracleConfig {
            quiesce_at,
            convergence_grace: SimDuration::millis(150),
        }
    }

    /// Where a settled run ends: `convergence_grace + 100 ms` past
    /// `quiesce_at`, so the convergence oracle, armed at
    /// `quiesce_at + convergence_grace`, polls for 100 ms.
    pub fn settled_at(&self) -> SimTime {
        self.quiesce_at + self.convergence_grace + SimDuration::millis(100)
    }
}

/// Max reconstructed failover gap: old leader's last beacon (or
/// suspicion, for bootstrap elections) to the election decree apply.
const FAILOVER_GAP_BUDGET: SimDuration = SimDuration::millis(100);

/// Max dual-owner window per migration (flip to commit); still-open
/// windows are measured against the poll time.
const DUAL_OWNER_WINDOW_BUDGET: SimDuration = SimDuration::millis(50);

/// Sliding window for the election-churn budget.
const ELECTION_WINDOW: SimDuration = SimDuration::millis(200);

/// Max campaign starts allowed inside one [`ELECTION_WINDOW`].
const MAX_ELECTIONS_PER_WINDOW: u32 = 8;

/// A detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Simulation time of detection.
    pub at: SimTime,
    /// What went wrong.
    pub kind: ViolationKind,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} ns] {}", self.at.nanos(), self.kind)
    }
}

/// The invariant classes the suite checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A value appeared that no writer requested.
    InventedValue {
        /// Register.
        reg: RegId,
        /// Key.
        key: Key,
        /// The unexplained value.
        value: u64,
        /// Where it was seen: `"wire"` (forwarded write) or `"state"`
        /// (final tail value).
        stage: &'static str,
    },
    /// A chain member's stored per-slot sequence number went backwards
    /// without an intervening crash.
    SeqRegressed {
        /// The switch.
        switch: NodeId,
        /// Register.
        reg: RegId,
        /// Group slot.
        slot: u32,
        /// Previously observed sequence.
        from: u64,
        /// Newly observed (smaller) sequence.
        to: u64,
    },
    /// A switch CP adopted a smaller epoch than it already had.
    EpochRegressed {
        /// The switch.
        switch: NodeId,
        /// Previously adopted epoch.
        from: u32,
        /// Newly adopted (smaller) epoch.
        to: u32,
    },
    /// The controller issued a non-increasing epoch.
    ControllerEpochNotIncreasing {
        /// Epoch of the earlier event.
        from: u32,
        /// Epoch of the later event.
        to: u32,
    },
    /// The tail's committed sequence regressed while the tail identity
    /// was unchanged.
    CommitRegressed {
        /// The stable tail.
        tail: NodeId,
        /// Register.
        reg: RegId,
        /// Group slot.
        slot: u32,
        /// Previously committed sequence.
        from: u64,
        /// Newly observed (smaller) sequence.
        to: u64,
    },
    /// A pending bit for an already-committed write outlived the bound
    /// after the fault horizon.
    PendingStuck {
        /// The switch holding the bit.
        switch: NodeId,
        /// Register.
        reg: RegId,
        /// Group slot.
        slot: u32,
        /// The pending sequence (≤ tail commit, so it should clear).
        seq: u64,
        /// When the suite first saw this exact pending sequence.
        since: SimTime,
    },
    /// A switch's installed per-range epoch went backwards without an
    /// intervening crash of that switch.
    RangeEpochRegressed {
        /// The switch.
        switch: NodeId,
        /// Register.
        reg: RegId,
        /// Range start key.
        start: Key,
        /// Previously installed per-range epoch.
        from: u32,
        /// Newly installed (smaller) epoch.
        to: u32,
    },
    /// A range table no longer covers the key space exactly (gap or
    /// overlap).
    RangeCoverageBroken {
        /// Register.
        reg: RegId,
        /// The switch holding the broken table; `None` = the
        /// controller's master table.
        switch: Option<NodeId>,
        /// First key at which coverage breaks.
        key: Key,
        /// `"gap"` or `"overlap"`.
        detail: &'static str,
    },
    /// The controller issued a non-increasing per-range epoch in its
    /// reconfiguration log.
    ReconfigEpochNotIncreasing {
        /// Register.
        reg: RegId,
        /// Range start key.
        start: Key,
        /// Epoch of the earlier Begin/Commit.
        from: u32,
        /// Epoch of the later (not larger) Begin/Commit.
        to: u32,
    },
    /// Two controller replicas committed different decisions under the
    /// same issued per-range epoch — the epoch was not chosen by one
    /// consensus decree (split-brain evidence; DESIGN.md §12).
    ReplicaEpochConflict {
        /// Register.
        reg: RegId,
        /// Range start key.
        start: Key,
        /// The doubly-issued per-range epoch.
        epoch: u32,
        /// First replica.
        a: NodeId,
        /// Conflicting replica.
        b: NodeId,
    },
    /// Two controller replicas hold committed range tables that disagree
    /// on the owner set at the same per-range epoch.
    RangeSplitBrain {
        /// Register.
        reg: RegId,
        /// Range start key.
        start: Key,
        /// The epoch both tables claim.
        epoch: u32,
        /// First replica.
        a: NodeId,
        /// Conflicting replica.
        b: NodeId,
    },
    /// Two live controller replicas both act as leader at one poll.
    DualLeader {
        /// First leader.
        a: NodeId,
        /// Second leader.
        b: NodeId,
    },
    /// A controller replica's consensus log outgrew its register window:
    /// compaction failed to keep up (or was disabled). The run degrades
    /// (the replica stops choosing new slots) instead of panicking; the
    /// harness attaches the seed and fault schedule for replay.
    ConsensusLogOverflow {
        /// The overflowing replica.
        replica: NodeId,
        /// The slot that did not fit.
        slot: u64,
        /// The window base at the time.
        base: u64,
    },
    /// A directory reply served an owner set that was not authoritative
    /// at any instant within the staleness bound before delivery — a
    /// follower read escaped its leader lease.
    StaleDirectoryRead {
        /// The replica that served the reply.
        replica: NodeId,
        /// Register.
        reg: RegId,
        /// Key.
        key: Key,
        /// The owner set served.
        served: Vec<NodeId>,
        /// The staleness bound the reply violated, in nanoseconds.
        bound_ns: u64,
    },
    /// A reconstructed failover exceeded its SLO budget: the gap from
    /// the old leader's last beacon to the new leader's election decree.
    FailoverGapExceeded {
        /// The new leader.
        leader: NodeId,
        /// Fabric epoch of the election decree.
        epoch: u32,
        /// The measured gap, in nanoseconds.
        gap_ns: u64,
        /// The budget it broke, in nanoseconds.
        budget_ns: u64,
    },
    /// A migration's dual-owner window (flip to commit, or flip to the
    /// current poll when still open) exceeded its SLO budget.
    DualOwnerWindowExceeded {
        /// Register.
        reg: RegId,
        /// Range start key.
        start: Key,
        /// The measured window, in nanoseconds.
        window_ns: u64,
        /// The budget it broke, in nanoseconds.
        budget_ns: u64,
    },
    /// More campaign starts inside one sliding window than the churn
    /// budget allows — the replica group is thrashing on elections.
    ElectionChurn {
        /// Campaign starts observed in the window.
        elections: u32,
        /// The sliding window, in nanoseconds.
        window_ns: u64,
        /// The budget it broke.
        budget: u32,
    },
    /// A replayed TCP flow's per-flow sequence number went backwards at
    /// the ingress without an intervening SYN (a corrupt or reordered
    /// trace feed — replayed inputs must be exactly the recorded stream).
    ReplayFlowSeqRegressed {
        /// The flow.
        flow: swishmem_wire::FlowKey,
        /// Previously ingested sequence.
        from: u32,
        /// Newly ingested (not larger) sequence.
        to: u32,
    },
    /// The ingress stream carried the exact same record of a flow twice
    /// in a row (a duplicated trace record — replay must not amplify).
    ReplayDuplicateRecord {
        /// The flow.
        flow: swishmem_wire::FlowKey,
        /// The duplicated per-flow sequence.
        seq: u32,
    },
    /// Replicas still disagree after the fault horizon plus grace.
    Diverged {
        /// Register.
        reg: RegId,
        /// Key.
        key: Key,
        /// Reference replica.
        a: NodeId,
        /// Reference value.
        va: u64,
        /// Disagreeing replica.
        b: NodeId,
        /// Its value.
        vb: u64,
    },
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::InventedValue {
                reg,
                key,
                value,
                stage,
            } => write!(
                f,
                "invented value: reg {reg} key {key} = {value} never requested ({stage})"
            ),
            ViolationKind::SeqRegressed {
                switch,
                reg,
                slot,
                from,
                to,
            } => write!(
                f,
                "seq regression: {switch} reg {reg} slot {slot}: {from} -> {to}"
            ),
            ViolationKind::EpochRegressed { switch, from, to } => {
                write!(f, "epoch regression: {switch} adopted {to} after {from}")
            }
            ViolationKind::ControllerEpochNotIncreasing { from, to } => {
                write!(f, "controller epoch not increasing: {from} -> {to}")
            }
            ViolationKind::CommitRegressed {
                tail,
                reg,
                slot,
                from,
                to,
            } => write!(
                f,
                "tail commit regression: tail {tail} reg {reg} slot {slot}: {from} -> {to}"
            ),
            ViolationKind::PendingStuck {
                switch,
                reg,
                slot,
                seq,
                since,
            } => write!(
                f,
                "pending bit stuck: {switch} reg {reg} slot {slot} seq {seq} \
                 pending since {} ns despite tail commit",
                since.nanos()
            ),
            ViolationKind::RangeEpochRegressed {
                switch,
                reg,
                start,
                from,
                to,
            } => write!(
                f,
                "range epoch regression: {switch} reg {reg} range@{start}: {from} -> {to}"
            ),
            ViolationKind::RangeCoverageBroken {
                reg,
                switch,
                key,
                detail,
            } => match switch {
                Some(sw) => write!(
                    f,
                    "range table {detail}: {sw} reg {reg} breaks coverage at key {key}"
                ),
                None => write!(
                    f,
                    "range table {detail}: controller reg {reg} breaks coverage at key {key}"
                ),
            },
            ViolationKind::ReconfigEpochNotIncreasing {
                reg,
                start,
                from,
                to,
            } => write!(
                f,
                "reconfig epoch not increasing: reg {reg} range@{start}: {from} -> {to}"
            ),
            ViolationKind::ReplicaEpochConflict {
                reg,
                start,
                epoch,
                a,
                b,
            } => write!(
                f,
                "replica epoch conflict: reg {reg} range@{start} epoch {epoch} \
                 decided differently by {a} and {b}"
            ),
            ViolationKind::RangeSplitBrain {
                reg,
                start,
                epoch,
                a,
                b,
            } => write!(
                f,
                "range split-brain: reg {reg} range@{start} epoch {epoch}: \
                 {a} and {b} commit different owner sets"
            ),
            ViolationKind::DualLeader { a, b } => {
                write!(f, "dual leader: {a} and {b} both act as controller leader")
            }
            ViolationKind::ConsensusLogOverflow {
                replica,
                slot,
                base,
            } => write!(
                f,
                "consensus log overflow: {replica} slot {slot} outside register \
                 window at base {base} (compaction fell behind)"
            ),
            ViolationKind::StaleDirectoryRead {
                replica,
                reg,
                key,
                served,
                bound_ns,
            } => write!(
                f,
                "stale directory read: {replica} served reg {reg} key {key} \
                 owners {served:?} not authoritative within the last {bound_ns} ns"
            ),
            ViolationKind::FailoverGapExceeded {
                leader,
                epoch,
                gap_ns,
                budget_ns,
            } => write!(
                f,
                "failover SLO broken: {leader} (epoch {epoch}) took {gap_ns} ns \
                 from last beacon to election decree (budget {budget_ns} ns)"
            ),
            ViolationKind::DualOwnerWindowExceeded {
                reg,
                start,
                window_ns,
                budget_ns,
            } => write!(
                f,
                "dual-owner SLO broken: reg {reg} range@{start} dual-owned for \
                 {window_ns} ns (budget {budget_ns} ns)"
            ),
            ViolationKind::ElectionChurn {
                elections,
                window_ns,
                budget,
            } => write!(
                f,
                "election churn: {elections} campaign starts within {window_ns} ns \
                 (budget {budget})"
            ),
            ViolationKind::ReplayFlowSeqRegressed { flow, from, to } => write!(
                f,
                "replay flow-seq regression: flow {flow:?}: {from} -> {to} without SYN"
            ),
            ViolationKind::ReplayDuplicateRecord { flow, seq } => write!(
                f,
                "replay duplicate record: flow {flow:?} seq {seq} ingested twice in a row"
            ),
            ViolationKind::Diverged {
                reg,
                key,
                a,
                va,
                b,
                vb,
            } => write!(
                f,
                "divergence: reg {reg} key {key}: {a} has {va}, {b} has {vb}"
            ),
        }
    }
}

/// Wire-level observer state: requested write values, taint, crash
/// notifications, and the first wire-level violation.
#[derive(Debug, Default)]
pub struct WireState {
    /// `Set` values requested per `(reg, key)` (from `seq == 0` writes).
    requested: BTreeMap<(RegId, Key), BTreeSet<u64>>,
    /// Keys that ever saw an `Add` op (head rewrites these into derived
    /// `Set`s, so value provenance can't be tracked).
    tainted: BTreeSet<(RegId, Key)>,
    /// In-flight chain writes per writer: requested (`seq == 0`
    /// delivered) but no ack delivered back yet.
    outstanding: BTreeMap<NodeId, BTreeSet<(RegId, Key)>>,
    /// Writes whose writer crashed before its ack arrived: nobody will
    /// retry them, so a chain prefix may legally stay ahead of the tail
    /// for these keys. The convergence oracle excludes their groups.
    orphaned: BTreeSet<(RegId, Key)>,
    /// Crash notifications since the last poll drained them.
    crashed: Vec<NodeId>,
    /// Directory replies delivered since the last poll drained them:
    /// `(at, serving replica, reg, key, served owners)` — input to the
    /// staleness oracle.
    dir_replies: Vec<DirReplyObs>,
    /// First wire-level violation (picked up by the next poll).
    violation: Option<(SimTime, ViolationKind)>,
}

/// One observed directory reply: `(delivery time, serving replica, reg,
/// key, served owner set)`.
pub type DirReplyObs = (SimTime, NodeId, RegId, Key, Vec<NodeId>);

impl WireState {
    fn requested_contains(&self, reg: RegId, key: Key, value: u64) -> bool {
        self.requested
            .get(&(reg, key))
            .is_some_and(|vals| vals.contains(&value))
    }

    fn is_tainted(&self, reg: RegId, key: Key) -> bool {
        self.tainted.contains(&(reg, key))
    }
}

impl NetObserver for WireState {
    fn on_net_event(&mut self, now: SimTime, ev: &NetEvent<'_>) {
        match ev {
            NetEvent::NodeFailed { node } => {
                self.crashed.push(*node);
                if let Some(inflight) = self.outstanding.remove(node) {
                    self.orphaned.extend(inflight);
                }
            }
            NetEvent::Delivered { pkt, .. } => match &pkt.body {
                PacketBody::Swish(SwishMsg::Write(w)) => {
                    if w.seq == 0 {
                        self.outstanding
                            .entry(w.writer)
                            .or_default()
                            .insert((w.reg, w.key));
                    }
                    match w.op {
                        WriteOp::Add(_) => {
                            self.tainted.insert((w.reg, w.key));
                        }
                        WriteOp::Set(v) if w.seq == 0 => {
                            self.requested.entry((w.reg, w.key)).or_default().insert(v);
                        }
                        WriteOp::Set(v) => {
                            // A sequenced write: its value must stem from a
                            // previously delivered request (sequencing
                            // happens only after the head *received* the
                            // request).
                            if self.violation.is_none()
                                && !self.is_tainted(w.reg, w.key)
                                && !self.requested_contains(w.reg, w.key, v)
                            {
                                self.violation = Some((
                                    now,
                                    ViolationKind::InventedValue {
                                        reg: w.reg,
                                        key: w.key,
                                        value: v,
                                        stage: "wire",
                                    },
                                ));
                            }
                        }
                    }
                }
                PacketBody::Swish(SwishMsg::Ack(a)) => {
                    if let Some(set) = self.outstanding.get_mut(&a.writer) {
                        set.remove(&(a.reg, a.key));
                    }
                }
                PacketBody::Swish(SwishMsg::DirReply(r)) => {
                    self.dir_replies
                        .push((now, pkt.src, r.reg, r.key, r.owners.clone()));
                }
                _ => {}
            },
            _ => {}
        }
    }
}

/// An ingress-stream replay oracle: watches the host→switch data stream
/// (the packets a replay engine injects) and checks the *input* side of
/// a replayed run — per-TCP-flow sequence numbers must not regress
/// without a SYN restart, and no flow may deliver the exact same record
/// twice in a row. State-side invariants stay with [`OracleSuite`];
/// this guard catches a corrupt trace feed (reordered ring, duplicated
/// slot, bad transform) *before* it can masquerade as a protocol bug.
///
/// Strictly passive, like every observer. Attach with
/// [`ReplayGuard::attach`], then ask [`ReplayGuard::violation`] after
/// (or during) the run.
#[derive(Debug, Default)]
pub struct ReplayGuard {
    /// Per flow: last ingested `flow_seq`.
    last_seq: BTreeMap<swishmem_wire::FlowKey, u32>,
    /// Ingress data packets seen.
    seen: u64,
    violation: Option<Violation>,
}

impl ReplayGuard {
    /// Build a guard and register it as an observer on `dep`.
    pub fn attach(dep: &mut Deployment) -> Rc<RefCell<ReplayGuard>> {
        let guard = Rc::new(RefCell::new(ReplayGuard::default()));
        dep.add_observer(guard.clone() as ObserverHandle);
        guard
    }

    /// Ingress data packets observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The first ingress-stream violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }
}

impl NetObserver for ReplayGuard {
    fn on_net_event(&mut self, now: SimTime, ev: &NetEvent<'_>) {
        let NetEvent::Delivered { pkt, .. } = ev else {
            return;
        };
        // Only the ingress stream: a host-sourced data frame arriving at
        // the fabric. Switch-to-switch and switch-to-host traffic is the
        // protocol's business, not the trace feed's.
        if pkt.src.0 < crate::deployment::HOST_BASE {
            return;
        }
        let PacketBody::Data(data) = &pkt.body else {
            return;
        };
        self.seen += 1;
        let syn = data.flow.proto == 6 && data.tcp_flags.syn;
        match self.last_seq.get(&data.flow) {
            // A SYN legally restarts the flow (new incarnation of a
            // recycled 5-tuple).
            _ if syn => {
                self.last_seq.insert(data.flow, data.flow_seq);
            }
            Some(&prev) if data.flow_seq == prev && self.violation.is_none() => {
                self.violation = Some(Violation {
                    at: now,
                    kind: ViolationKind::ReplayDuplicateRecord {
                        flow: data.flow,
                        seq: data.flow_seq,
                    },
                });
            }
            Some(&prev) if data.flow.proto == 6 && data.flow_seq < prev => {
                if self.violation.is_none() {
                    self.violation = Some(Violation {
                        at: now,
                        kind: ViolationKind::ReplayFlowSeqRegressed {
                            flow: data.flow,
                            from: prev,
                            to: data.flow_seq,
                        },
                    });
                }
            }
            _ => {
                self.last_seq.insert(data.flow, data.flow_seq);
            }
        }
    }
}

/// The online oracle suite. Attach to a deployment before running, then
/// drive the run through [`OracleSuite::run`] (or interleave
/// [`Deployment::run_for`] with [`OracleSuite::poll`] manually).
pub struct OracleSuite {
    cfg: OracleConfig,
    wire: Rc<RefCell<WireState>>,
    /// Last adopted epoch per switch index (0 = not yet adopted).
    epoch_seen: Vec<u32>,
    /// Per `(switch index, reg)`: last observed per-slot sequences.
    seq_seen: BTreeMap<(usize, RegId), Vec<u64>>,
    /// Tail identity at the previous poll (commit baselines are only
    /// valid while this is stable).
    last_tail: Option<NodeId>,
    /// Per chain register: the tail's last committed per-slot sequences.
    commit_seen: BTreeMap<RegId, Vec<u64>>,
    /// `(switch index, reg, slot)` → `(pending seq, first seen)`.
    pending_since: BTreeMap<(usize, RegId, u32), (u64, SimTime)>,
    /// Controller event-log prefix already validated.
    ctrl_events_seen: usize,
    /// Last controller-issued epoch.
    ctrl_epoch: u32,
    /// Per `(switch index, reg, range start)`: last installed per-range
    /// epoch (reset on crash of that switch).
    range_epoch_seen: BTreeMap<(usize, RegId, Key), u32>,
    /// Reconfiguration-log prefix already validated.
    reconfig_events_seen: usize,
    /// Per `(reg, range start)`: highest per-range epoch the controller
    /// issued so far (Begin/Commit entries must strictly increase).
    reconfig_issued: BTreeMap<(RegId, Key), u32>,
    /// Ranges whose entire owner set was simultaneously failed at some
    /// poll: their state legally died; convergence skips them forever.
    dead_ranges: BTreeSet<(RegId, Key)>,
    /// Per partitioned register: history of the controller's master
    /// table, appended whenever a poll observes a change. The staleness
    /// oracle checks every delivered directory reply against the sets
    /// that were authoritative inside its staleness window.
    table_hist: BTreeMap<RegId, Vec<(SimTime, Vec<crate::reconfig::RangeView>)>>,
    /// First poll at which two live controller replicas both acted as
    /// leader (cleared when uniqueness returns). Transient dual
    /// leadership during an election handover is legal; only
    /// persistence beyond the leader-lease bound is a violation.
    dual_since: Option<SimTime>,
    /// Attached control-plane flight recorder, when diagnosis is on.
    journal: Option<JournalHandle>,
    /// Journal record count at the last poll (the failover and churn
    /// monitors re-run only on growth).
    journal_seen: usize,
    /// The last journal events before the first violation.
    first_context: Vec<String>,
    first: Option<Violation>,
}

/// Install `seqs` as the new per-slot baseline and return the slots where
/// it is below the old one, as `(slot, from, to)`. The old vector is
/// compared in place, not cloned, and the (normally empty) result does
/// not allocate: this runs per switch per register on every poll.
fn replace_baseline(base: &mut Vec<u64>, seqs: Vec<u64>) -> Vec<(u32, u64, u64)> {
    let regressed = (base.iter().zip(&seqs).enumerate())
        .filter(|(_, (b, s))| s < b)
        .map(|(slot, (&b, &s))| (slot as u32, b, s))
        .collect();
    *base = seqs;
    regressed
}

impl OracleSuite {
    /// Build a suite and register its wire observer on the deployment.
    pub fn attach(dep: &mut Deployment, cfg: OracleConfig) -> OracleSuite {
        let wire: Rc<RefCell<WireState>> = Rc::new(RefCell::new(WireState::default()));
        dep.add_observer(wire.clone() as ObserverHandle);
        let n = dep.switch_ids().len();
        OracleSuite {
            cfg,
            wire,
            epoch_seen: vec![0; n],
            seq_seen: BTreeMap::new(),
            last_tail: None,
            commit_seen: BTreeMap::new(),
            pending_since: BTreeMap::new(),
            ctrl_events_seen: 0,
            ctrl_epoch: 0,
            range_epoch_seen: BTreeMap::new(),
            reconfig_events_seen: 0,
            reconfig_issued: BTreeMap::new(),
            dead_ranges: BTreeSet::new(),
            table_hist: BTreeMap::new(),
            dual_since: None,
            journal: None,
            journal_seen: 0,
            first_context: Vec::new(),
            first: None,
        }
    }

    /// Attach a control-plane flight recorder: arms the journal SLO
    /// monitors and enriches the first violation (of *any* oracle) with
    /// the last journal events before it.
    pub fn attach_journal(&mut self, handle: JournalHandle) {
        self.journal = Some(handle);
    }

    /// The first violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.first.as_ref()
    }

    /// Journal context captured with the first violation: the last
    /// [`VIOLATION_CONTEXT_EVENTS`] events at or before it, rendered as
    /// human lines. Empty when no journal was attached (or no
    /// violation).
    pub fn violation_context(&self) -> &[String] {
        &self.first_context
    }

    /// The first violation plus its journal context as a multi-line
    /// report, or `None` when the run was clean.
    pub fn violation_report(&self) -> Option<String> {
        let v = self.first.as_ref()?;
        let mut s = v.to_string();
        for line in &self.first_context {
            s.push_str("\n    ");
            s.push_str(line);
        }
        Some(s)
    }

    /// Drive the deployment to `until`, polling every [`POLL_INTERVAL`].
    /// Returns the first violation found, or `Ok(())`.
    pub fn run(&mut self, dep: &mut Deployment, until: SimTime) -> Result<(), Violation> {
        while dep.now() < until {
            dep.run_for(POLL_INTERVAL);
            if self.poll(dep).is_some() {
                break;
            }
        }
        match &self.first {
            Some(v) => Err(v.clone()),
            None => Ok(()),
        }
    }

    /// [`OracleSuite::run`] to [`OracleConfig::settled_at`].
    pub fn run_settled(&mut self, dep: &mut Deployment) -> Result<(), Violation> {
        self.run(dep, self.cfg.settled_at())
    }

    fn record(&mut self, at: SimTime, kind: ViolationKind) {
        if self.first.is_none() {
            if let Some(h) = &self.journal {
                self.first_context =
                    Journal::new(h.borrow().events()).tail_strings_at(at, VIOLATION_CONTEXT_EVENTS);
            }
            self.first = Some(Violation { at, kind });
        }
    }

    /// Run all polling oracles once against current deployment state.
    /// Returns the first violation (sticky across polls).
    pub fn poll(&mut self, dep: &Deployment) -> Option<&Violation> {
        let now = dep.now();
        // Borrowed from the deployment, not from `self`: held across the
        // `&mut self` calls below without a copy.
        let specs = dep.register_specs();
        let chain_specs = || {
            let is_chain =
                |s: &&RegisterSpec| matches!(s.class, RegisterClass::Sro | RegisterClass::Ero);
            specs.iter().filter(is_chain)
        };

        // 1. Wire-level violation detected since the last poll, and crash
        //    notifications (crashes reset per-switch baselines: recovered
        //    switches legitimately restart from epoch 0 / seq 0).
        let (wire_violation, crashed) = {
            let mut w = self.wire.borrow_mut();
            (w.violation.take(), std::mem::take(&mut w.crashed))
        };
        if let Some((at, kind)) = wire_violation {
            self.record(at, kind);
        }
        for node in crashed {
            if let Some(i) = dep.switch_index(node) {
                self.epoch_seen[i] = 0;
                self.seq_seen.retain(|&(s, _), _| s != i);
                self.pending_since.retain(|&(s, _, _), _| s != i);
                self.range_epoch_seen.retain(|&(s, _, _), _| s != i);
            }
            // A crashed tail restarts wiped; its commit counters only
            // become meaningful again once it is demoted (amnesia
            // detection) or re-promoted through the learner path.
            if self.last_tail == Some(node) {
                self.commit_seen.clear();
            }
        }

        // 2. Controller-issued epochs are strictly increasing. Replica-
        //    group membership decrees are exempt: they reshape the
        //    consensus group, not the data-plane chain view, so their
        //    log entries carry the epoch current at commit time.
        let events = dep.controller_events();
        for ev in &events[self.ctrl_events_seen.min(events.len())..] {
            let membership = matches!(
                ev.kind,
                crate::controller::ConfigEventKind::ReplicaAdded(_)
                    | crate::controller::ConfigEventKind::ReplicaRemoved(_)
            );
            if self.ctrl_events_seen > 0 && ev.epoch <= self.ctrl_epoch && !membership {
                self.record(
                    ev.time,
                    ViolationKind::ControllerEpochNotIncreasing {
                        from: self.ctrl_epoch,
                        to: ev.epoch,
                    },
                );
            }
            self.ctrl_epoch = ev.epoch;
            self.ctrl_events_seen += 1;
        }

        // 2b. Controller-issued *per-range* epochs strictly increase
        //     across Begin/Commit entries of the reconfiguration log.
        let rlog = dep.reconfig_events();
        for e in &rlog[self.reconfig_events_seen.min(rlog.len())..] {
            if let Some(epoch) = e.event.issued_epoch() {
                let rk = e.event.range_key();
                match self.reconfig_issued.get(&rk) {
                    Some(&prev) if epoch <= prev => self.record(
                        e.time,
                        ViolationKind::ReconfigEpochNotIncreasing {
                            reg: rk.0,
                            start: rk.1,
                            from: prev,
                            to: epoch,
                        },
                    ),
                    _ => {
                        self.reconfig_issued.insert(rk, epoch);
                    }
                }
            }
        }
        self.reconfig_events_seen = rlog.len();

        // 2c'. Replicated control plane (DESIGN.md §12): at most one
        //      live acting leader; issued per-range epochs are decided
        //      identically across every replica's applied log; committed
        //      range tables never disagree at equal epochs.
        let ctrl = dep.controller();
        if ctrl.len() > 1 {
            let mut leaders: Vec<NodeId> = Vec::new();
            for (i, &id) in ctrl.ids().iter().enumerate() {
                if ctrl.is_failed(i) {
                    continue;
                }
                if let Some(c) = ctrl.replica(i) {
                    if c.is_acting_leader() {
                        leaders.push(id);
                    }
                }
            }
            if leaders.len() > 1 {
                // Legal during an election handover (an isolated old
                // leader cannot know it lost); a violation only once it
                // outlives the leader lease, which forces self-demotion
                // within `failure_timeout` of losing quorum contact.
                let bound = SimDuration::nanos(3 * dep.config().failure_timeout.as_nanos());
                match self.dual_since {
                    Some(t0) if now.since(t0) > bound => self.record(
                        now,
                        ViolationKind::DualLeader {
                            a: leaders[0],
                            b: leaders[1],
                        },
                    ),
                    Some(_) => {}
                    None => self.dual_since = Some(now),
                }
            } else {
                self.dual_since = None;
            }
            let logs: Vec<(NodeId, &[crate::reconfig::ReconfigLogEntry])> = ctrl
                .ids()
                .iter()
                .enumerate()
                .filter_map(|(i, &id)| ctrl.replica(i).map(|c| (id, c.reconfig_log())))
                .collect();
            for kind in replica_epoch_conflicts(&logs) {
                self.record(now, kind);
            }
            for spec in specs.iter().filter(|s| s.is_partitioned()) {
                let tables: Vec<(NodeId, Vec<crate::reconfig::RangeView>)> = ctrl
                    .ids()
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &id)| ctrl.replica(i).map(|c| (id, c.range_table(spec.id))))
                    .collect();
                for kind in range_split_brain_errors(spec.id, &tables) {
                    self.record(now, kind);
                }
            }
        }

        let swish = *dep.config();

        // 2c. Partitioned range tables: the controller's master table
        //     covers the key space exactly at every poll; switch-installed
        //     per-range epochs never regress; a range whose entire owner
        //     set is simultaneously down is tainted permanently (its state
        //     legally died with the owners).
        for spec in specs.iter().filter(|s| s.is_partitioned()) {
            let master = dep.controller_ranges(spec.id);
            let hist = self.table_hist.entry(spec.id).or_default();
            if hist.last().map(|(_, t)| t != &master).unwrap_or(true) {
                hist.push((now, master.clone()));
            }
            for v in coverage_errors(spec.id, None, &master, spec.keys) {
                self.record(now, v);
            }
            for r in &master {
                let all_down = !r.owners.is_empty()
                    && r.owners.iter().all(|&o| {
                        dep.switch_index(o)
                            .map(|i| dep.is_switch_failed(i))
                            .unwrap_or(true)
                    });
                if all_down {
                    self.dead_ranges.insert((spec.id, r.start));
                }
            }
            for i in 0..dep.switch_ids().len() {
                if dep.is_switch_failed(i) {
                    continue;
                }
                let installed = dep.installed_ranges(i, spec.id);
                for r in &installed {
                    let k = (i, spec.id, r.start);
                    if let Some(&prev) = self.range_epoch_seen.get(&k) {
                        if r.epoch < prev {
                            self.record(
                                now,
                                ViolationKind::RangeEpochRegressed {
                                    switch: dep.switch_ids()[i],
                                    reg: spec.id,
                                    start: r.start,
                                    from: prev,
                                    to: r.epoch,
                                },
                            );
                        }
                    }
                    self.range_epoch_seen.insert(k, r.epoch);
                }
                // Coverage of installed tables is only enforced once the
                // run has quiesced: a crash-wiped switch legitimately
                // rebuilds its table range by range from the resync
                // stream, so mid-fault polls may catch a partial table.
                if !installed.is_empty()
                    && now.nanos()
                        >= self.cfg.quiesce_at.nanos() + self.cfg.convergence_grace.as_nanos()
                {
                    for v in
                        coverage_errors(spec.id, Some(dep.switch_ids()[i]), &installed, spec.keys)
                    {
                        self.record(now, v);
                    }
                }
            }
        }

        // 2e. Replicated control plane: consensus-log capacity and
        //     follower-read staleness. A replica whose window overflowed
        //     carries a sticky typed error; every delivered directory
        //     reply must match an owner set that was authoritative at
        //     some instant within the staleness bound (the leader lease
        //     plus the demotion window of a deposed leader). The reply
        //     buffer is drained on every poll, so a single-controller run
        //     does not keep each reply forever.
        let replies = std::mem::take(&mut self.wire.borrow_mut().dir_replies);
        if ctrl.len() > 1 {
            for (replica, e) in ctrl.consensus_errors() {
                let crate::consensus::ConsensusError::LogOverflow { slot, base } = e;
                self.record(
                    now,
                    ViolationKind::ConsensusLogOverflow {
                        replica,
                        slot,
                        base,
                    },
                );
            }
            let bound =
                SimDuration::nanos(DIR_LEASE.as_nanos() + 2 * swish.failure_timeout.as_nanos());
            for kind in stale_read_errors(&replies, &self.table_hist, bound) {
                self.record(now, kind);
            }
        }

        // 2f. Journal SLO monitors over the flight recorder. The
        //     failover-gap and churn monitors re-run only when records
        //     arrived; the dual-owner monitor re-runs every poll because
        //     a *still-open* window ages against `now` without emitting
        //     any new records — unless the tap is full: it has dropped
        //     the records past its capacity, so a window that looks open
        //     may have closed among them.
        if let Some(h) = self.journal.clone() {
            let tap = h.borrow();
            let journal = Journal::new(tap.events());
            if tap.len() != self.journal_seen {
                self.journal_seen = tap.len();
                for (at, kind) in failover_gap_violations(&journal, FAILOVER_GAP_BUDGET) {
                    self.record(at, kind);
                }
                for (at, kind) in
                    election_churn_violations(&journal, ELECTION_WINDOW, MAX_ELECTIONS_PER_WINDOW)
                {
                    self.record(at, kind);
                }
            }
            let open_until = (tap.overflowed() == 0).then_some(now);
            for (at, kind) in dual_owner_violations(&journal, open_until, DUAL_OWNER_WINDOW_BUDGET)
            {
                self.record(at, kind);
            }
        }

        // 3. Per-switch adopted-epoch and per-slot sequence monotonicity.
        for i in 0..dep.switch_ids().len() {
            if dep.is_switch_failed(i) {
                continue;
            }
            let sw_id = dep.switch_ids()[i];
            let e = dep.adopted_epoch(i);
            if e != 0 {
                if e < self.epoch_seen[i] {
                    self.record(
                        now,
                        ViolationKind::EpochRegressed {
                            switch: sw_id,
                            from: self.epoch_seen[i],
                            to: e,
                        },
                    );
                }
                self.epoch_seen[i] = e;
            }
            for reg in chain_specs().map(|s| s.id) {
                let base = self.seq_seen.entry((i, reg)).or_default();
                for (slot, from, to) in replace_baseline(base, dep.chain_seqs(i, reg)) {
                    self.record(
                        now,
                        ViolationKind::SeqRegressed {
                            switch: sw_id,
                            reg,
                            slot,
                            from,
                            to,
                        },
                    );
                }
            }
        }

        // 4. Tail commit monotonicity (only while the tail is stable).
        let view = dep.controller_view();
        let tail = view.chain.last().copied();
        if tail != self.last_tail {
            self.commit_seen.clear();
            self.last_tail = tail;
        }
        let tail_alive = tail
            .and_then(|t| dep.switch_index(t))
            .filter(|&i| !dep.is_switch_failed(i));
        if let (Some(t), Some(ti)) = (tail, tail_alive) {
            // Partitioned registers have per-range tails, not the global
            // chain tail; their commit authority is checked by the
            // partitioned convergence block instead.
            for reg in chain_specs().filter(|s| !s.is_partitioned()).map(|s| s.id) {
                let base = self.commit_seen.entry(reg).or_default();
                for (slot, from, to) in replace_baseline(base, dep.chain_seqs(ti, reg)) {
                    self.record(
                        now,
                        ViolationKind::CommitRegressed {
                            tail: t,
                            reg,
                            slot,
                            from,
                            to,
                        },
                    );
                }
            }
        }

        // 5. Pending bits for committed writes must clear after the fault
        //    horizon. A pending seq *above* the tail's commit belongs to
        //    an abandoned in-flight write and must stay set.
        if now >= self.cfg.quiesce_at {
            if let Some(ti) = tail_alive {
                for spec in specs.iter().filter(|s| s.class == RegisterClass::Sro) {
                    let committed = dep.chain_seqs(ti, spec.id);
                    for i in 0..dep.switch_ids().len() {
                        if dep.is_switch_failed(i) || !view.chain.contains(&dep.switch_ids()[i]) {
                            continue;
                        }
                        let pend = dep.pending_seqs(i, spec.id);
                        for (slot, &p) in pend.iter().enumerate() {
                            let key = (i, spec.id, slot as u32);
                            let commit = committed.get(slot).copied().unwrap_or(0);
                            if p != 0 && p <= commit {
                                let (seq0, since) =
                                    *self.pending_since.entry(key).or_insert((p, now));
                                if seq0 == p && now.since(since) > PENDING_BOUND {
                                    self.record(
                                        now,
                                        ViolationKind::PendingStuck {
                                            switch: dep.switch_ids()[i],
                                            reg: spec.id,
                                            slot: slot as u32,
                                            seq: p,
                                            since,
                                        },
                                    );
                                } else if seq0 != p {
                                    self.pending_since.insert(key, (p, now));
                                }
                            } else {
                                self.pending_since.remove(&key);
                            }
                        }
                    }
                }
            }
        }

        // 6. Convergence once faults have ceased and the grace elapsed.
        if now.nanos() >= self.cfg.quiesce_at.nanos() + self.cfg.convergence_grace.as_nanos() {
            self.check_convergence(dep, specs, &swish, now);
        }

        self.first.as_ref()
    }

    fn check_convergence(
        &mut self,
        dep: &Deployment,
        specs: &[RegisterSpec],
        swish: &SwishConfig,
        now: SimTime,
    ) {
        let ids = dep.switch_ids();
        let live = |i: usize| !dep.is_switch_failed(i);
        let wire = self.wire.borrow();
        // A chain-register group with an abandoned (retry-exhausted) or
        // orphaned (writer crashed pre-ack) write may hold a chain prefix
        // ahead of the reference forever: exclude it. The group is the
        // key's sequence group, the key itself for a partitioned register
        // (it sequences per key).
        let group = |reg: RegId, key: Key| {
            let spec = specs
                .iter()
                .find(|s| s.id == reg && s.class != RegisterClass::Ewo)?;
            if spec.is_partitioned() {
                Some((reg, key))
            } else {
                Some((reg, key % swish.group_slots(spec.keys)))
            }
        };
        let abandoned = (0..ids.len())
            .filter(|&i| live(i))
            .flat_map(|i| &dep.cp_metrics(i).abandoned_writes);
        let excluded: BTreeSet<(RegId, Key)> = abandoned
            .chain(&wire.orphaned)
            .filter_map(|&(reg, key)| group(reg, key))
            .collect();

        // Each class names a reference replica and the live members that
        // must agree with it over a key span:
        // - a partitioned range: its first live owner and the other live
        //   owners. Skipped while a transfer is open (the destination
        //   legally lags until its pass completes) and once its whole
        //   owner set died;
        // - a chain register: the tail and the other live chain members;
        // - an EWO register: the first live replica and the rest.
        let view = dep.controller_view();
        let alive: Vec<usize> = (0..ids.len()).filter(|&i| live(i)).collect();
        let mut checks: Vec<(&RegisterSpec, usize, Vec<usize>, Range<Key>)> = Vec::new();
        for spec in specs {
            if spec.is_partitioned() {
                for r in dep.controller_ranges(spec.id) {
                    if r.mig_to.is_some() || self.dead_ranges.contains(&(spec.id, r.start)) {
                        continue;
                    }
                    let owners: Vec<usize> = (r.owners.iter())
                        .filter_map(|&o| dep.switch_index(o))
                        .filter(|&i| live(i))
                        .collect();
                    if let Some((&first, rest)) = owners.split_first() {
                        checks.push((spec, first, rest.to_vec(), r.start..r.end.min(spec.keys)));
                    }
                }
            } else if spec.class == RegisterClass::Ewo {
                if let Some((&first, rest)) = alive.split_first() {
                    checks.push((spec, first, rest.to_vec(), 0..spec.keys));
                }
            } else if let Some(tail) = (view.chain.last())
                .and_then(|&t| dep.switch_index(t))
                .filter(|&i| live(i))
            {
                let members = (view.chain.iter())
                    .filter_map(|&m| dep.switch_index(m))
                    .filter(|&j| j != tail && live(j))
                    .collect();
                checks.push((spec, tail, members, 0..spec.keys));
            }
        }

        // The one agreement loop. A chain class's reference value must
        // also have been requested by some writer.
        let mut found: Vec<ViolationKind> = Vec::new();
        for (spec, reference, members, keys) in checks {
            let reg = spec.id;
            let chain_class = spec.class != RegisterClass::Ewo;
            for key in keys {
                if group(reg, key).is_some_and(|g| excluded.contains(&g)) {
                    continue;
                }
                let va = dep.peek(reference, reg, key);
                if chain_class
                    && va != 0
                    && !wire.is_tainted(reg, key)
                    && !wire.requested_contains(reg, key, va)
                {
                    found.push(ViolationKind::InventedValue {
                        reg,
                        key,
                        value: va,
                        stage: "state",
                    });
                }
                for &j in &members {
                    let vb = dep.peek(j, reg, key);
                    if vb != va {
                        found.push(ViolationKind::Diverged {
                            reg,
                            key,
                            a: ids[reference],
                            va,
                            b: ids[j],
                            vb,
                        });
                    }
                }
            }
        }
        drop(wire);
        for kind in found {
            self.record(now, kind);
        }
    }
}

/// Check that `ranges` (key-ordered) covers `[0, keys)` exactly.
/// Returns at most one violation per table — the first break found.
fn coverage_errors(
    reg: RegId,
    switch: Option<NodeId>,
    ranges: &[crate::reconfig::RangeView],
    keys: Key,
) -> Vec<ViolationKind> {
    let mut expect: Key = 0;
    for r in ranges {
        if r.start > expect {
            return vec![ViolationKind::RangeCoverageBroken {
                reg,
                switch,
                key: expect,
                detail: "gap",
            }];
        }
        if r.start < expect {
            return vec![ViolationKind::RangeCoverageBroken {
                reg,
                switch,
                key: r.start,
                detail: "overlap",
            }];
        }
        expect = r.end;
    }
    if expect < keys {
        return vec![ViolationKind::RangeCoverageBroken {
            reg,
            switch,
            key: expect,
            detail: "gap",
        }];
    }
    vec![]
}

/// Cross-replica issued-epoch uniqueness (DESIGN.md §12): every
/// epoch-issuing event (`Begin`/`Commit`) in any replica's applied
/// reconfiguration log must be *the same event* wherever it appears —
/// the epoch was decreed once through consensus, so two replicas
/// deciding different things under one `(reg, range, epoch)` is direct
/// split-brain evidence. Pure over the observed logs, so it can be fed
/// hand-built histories in tests.
pub fn replica_epoch_conflicts(
    logs: &[(NodeId, &[crate::reconfig::ReconfigLogEntry])],
) -> Vec<ViolationKind> {
    let mut seen: BTreeMap<(RegId, Key, u32), (NodeId, &crate::reconfig::ReconfigEvent)> =
        BTreeMap::new();
    let mut out = Vec::new();
    for (node, log) in logs {
        for e in log.iter() {
            let Some(epoch) = e.event.issued_epoch() else {
                continue;
            };
            let (reg, start) = e.event.range_key();
            match seen.get(&(reg, start, epoch)) {
                Some((first, ev)) => {
                    if *first != *node && **ev != e.event {
                        out.push(ViolationKind::ReplicaEpochConflict {
                            reg,
                            start,
                            epoch,
                            a: *first,
                            b: *node,
                        });
                    }
                }
                None => {
                    seen.insert((reg, start, epoch), (*node, &e.event));
                }
            }
        }
    }
    out
}

/// Bounded-staleness follower reads (DESIGN.md §13): every directory
/// reply must serve an owner set that was authoritative — per the
/// leader's master table history — at *some* instant within `bound`
/// before the reply's delivery. A follower whose lease-validated applied
/// prefix lags at most the lease plus the old-leader demotion window can
/// never fail this; a reply escaping that bound is a protocol violation.
/// Empty served sets are skipped (an unknown answer is not a *stale*
/// answer), as are replies before any table was observed. Pure over the
/// observed replies and table history, so tests can feed hand-built
/// timelines.
pub fn stale_read_errors(
    replies: &[DirReplyObs],
    history: &BTreeMap<RegId, Vec<(SimTime, Vec<crate::reconfig::RangeView>)>>,
    bound: SimDuration,
) -> Vec<ViolationKind> {
    let mut out = Vec::new();
    for (at, replica, reg, key, served) in replies {
        if served.is_empty() {
            continue;
        }
        let Some(snaps) = history.get(reg) else {
            continue;
        };
        let lo = at.nanos().saturating_sub(bound.as_nanos());
        let mut any_candidate = false;
        let mut fresh = false;
        for (i, (t0, table)) in snaps.iter().enumerate() {
            // The snapshot is in force over [t0, t1); it is a candidate
            // iff that interval intersects the reply's window [lo, at].
            let t1 = snaps.get(i + 1).map(|s| s.0.nanos()).unwrap_or(u64::MAX);
            if t0.nanos() > at.nanos() || t1 <= lo {
                continue;
            }
            if let Some(r) = table.iter().find(|r| r.start <= *key && *key < r.end) {
                any_candidate = true;
                if r.owners == *served {
                    fresh = true;
                    break;
                }
            }
        }
        if any_candidate && !fresh {
            out.push(ViolationKind::StaleDirectoryRead {
                replica: *replica,
                reg: *reg,
                key: *key,
                served: served.clone(),
                bound_ns: bound.as_nanos(),
            });
        }
    }
    out
}

/// No-split-brain range tables (DESIGN.md §12): two controller replicas
/// whose tables claim the same per-range epoch for the same range must
/// agree on its owner set — disagreement means two "authoritative"
/// tables exist at once. Lagging replicas (lower epochs) are fine; only
/// equal-epoch disagreement is a violation. Pure over the observed
/// tables.
pub fn range_split_brain_errors(
    reg: RegId,
    tables: &[(NodeId, Vec<crate::reconfig::RangeView>)],
) -> Vec<ViolationKind> {
    let mut out = Vec::new();
    for (i, (a, ta)) in tables.iter().enumerate() {
        for (b, tb) in &tables[i + 1..] {
            for ra in ta {
                for rb in tb {
                    if ra.start == rb.start && ra.epoch == rb.epoch && ra.owners != rb.owners {
                        out.push(ViolationKind::RangeSplitBrain {
                            reg,
                            start: ra.start,
                            epoch: ra.epoch,
                            a: *a,
                            b: *b,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Failover-gap SLO (journal monitor): every reconstructed failover
/// must close within `budget`, measured from the old leader's last
/// beacon (falling back to the suspicion or campaign start when the
/// journal holds no beacon evidence, e.g. a bootstrap election) to the
/// moment the new leader applied its election decree. Pure over the
/// journal, so tests can feed hand-built histories.
pub fn failover_gap_violations(
    journal: &Journal,
    budget: SimDuration,
) -> Vec<(SimTime, ViolationKind)> {
    let mut out = Vec::new();
    for f in journal.failovers() {
        let Some(from) = f.last_beacon.or(f.suspect_at).or(f.election_start) else {
            continue;
        };
        let gap = f.elected_at.since(from).0;
        if gap > budget.as_nanos() {
            out.push((
                f.elected_at,
                ViolationKind::FailoverGapExceeded {
                    leader: f.leader,
                    epoch: f.epoch,
                    gap_ns: gap,
                    budget_ns: budget.as_nanos(),
                },
            ));
        }
    }
    out
}

/// Dual-owner-window SLO (journal monitor): a migration may hold a
/// range in dual-owner for at most `budget` — measured flip-to-commit
/// for closed migrations and flip-to-`open_until` for ones still open,
/// which go unjudged when `open_until` is `None` (an aborted transfer
/// never reaches dual-owner commit accounting). Pure over the journal.
pub fn dual_owner_violations(
    journal: &Journal,
    open_until: Option<SimTime>,
    budget: SimDuration,
) -> Vec<(SimTime, ViolationKind)> {
    let mut out = Vec::new();
    for m in journal.migrations() {
        let (at, window) = match (m.dual_owner_at, m.commit_at, m.abort_at, open_until) {
            (Some(d), Some(c), _, _) => (c, c.since(d).0),
            (Some(d), None, None, Some(now)) => (now, now.since(d).0),
            _ => continue,
        };
        if window > budget.as_nanos() {
            out.push((
                at,
                ViolationKind::DualOwnerWindowExceeded {
                    reg: m.reg,
                    start: m.start,
                    window_ns: window,
                    budget_ns: budget.as_nanos(),
                },
            ));
        }
    }
    out
}

/// Election-churn SLO (journal monitor): at most `budget` campaign
/// starts inside any sliding `window`. Flags the first start that tips
/// each over-budget window. Pure over the journal.
pub fn election_churn_violations(
    journal: &Journal,
    window: SimDuration,
    budget: u32,
) -> Vec<(SimTime, ViolationKind)> {
    let starts: Vec<SimTime> = journal
        .records()
        .iter()
        .filter(|e| matches!(e.event, CtrlEvent::ElectionStart { .. }))
        .map(|e| e.time)
        .collect();
    let mut out = Vec::new();
    let mut lo = 0usize;
    for i in 0..starts.len() {
        while starts[i].since(starts[lo]).0 > window.as_nanos() {
            lo += 1;
        }
        let n = (i - lo + 1) as u32;
        if n > budget {
            out.push((
                starts[i],
                ViolationKind::ElectionChurn {
                    elections: n,
                    window_ns: window.as_nanos(),
                    budget,
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_errors_find_gaps_and_overlaps() {
        use crate::reconfig::RangeView;
        let mk = |start, end| RangeView {
            start,
            end,
            epoch: 1,
            mig_to: None,
            owners: vec![NodeId(0)],
        };
        assert!(coverage_errors(0, None, &[mk(0, 10), mk(10, 20)], 20).is_empty());
        // Gap in the middle.
        let v = coverage_errors(0, None, &[mk(0, 10), mk(12, 20)], 20);
        assert!(matches!(
            v[0],
            ViolationKind::RangeCoverageBroken {
                key: 10,
                detail: "gap",
                ..
            }
        ));
        // Overlap.
        let v = coverage_errors(0, None, &[mk(0, 12), mk(10, 20)], 20);
        assert!(matches!(
            v[0],
            ViolationKind::RangeCoverageBroken {
                key: 10,
                detail: "overlap",
                ..
            }
        ));
        // Truncated tail.
        let v = coverage_errors(0, None, &[mk(0, 10)], 20);
        assert!(matches!(
            v[0],
            ViolationKind::RangeCoverageBroken {
                key: 10,
                detail: "gap",
                ..
            }
        ));
        // Empty table of a zero-key register is fine.
        assert!(coverage_errors(0, None, &[], 0).is_empty());
    }

    #[test]
    fn stale_read_errors_respect_the_freshness_window() {
        use crate::reconfig::RangeView;
        let table = |owner: u16| {
            vec![RangeView {
                start: 0,
                end: 100,
                epoch: 1,
                mig_to: None,
                owners: vec![NodeId(owner)],
            }]
        };
        let t = |ms: u64| SimTime(ms * 1_000_000);
        let bound = SimDuration::millis(10);
        // Owner of key-space [0,100) moves from switch 1 to switch 2 at
        // t=50ms; history records both table versions.
        let mut hist = BTreeMap::new();
        hist.insert(0u16, vec![(t(0), table(1)), (t(50), table(2))]);
        let reply = |at_ms: u64, owner: u16| (t(at_ms), NodeId(9), 0u16, 7u32, vec![NodeId(owner)]);

        // Fresh: current owners at any point in the reply's window.
        assert!(stale_read_errors(&[reply(40, 1)], &hist, bound).is_empty());
        assert!(stale_read_errors(&[reply(55, 2)], &hist, bound).is_empty());
        // Straddling: the old table was still in force within the bound.
        assert!(stale_read_errors(&[reply(55, 1)], &hist, bound).is_empty());
        // Stale: the old owner set expired more than `bound` ago.
        let v = stale_read_errors(&[reply(70, 1)], &hist, bound);
        assert!(matches!(
            v[0],
            ViolationKind::StaleDirectoryRead {
                replica: NodeId(9),
                reg: 0,
                key: 7,
                ..
            }
        ));
        // Never-authoritative owner set is stale at any time.
        assert!(!stale_read_errors(&[reply(40, 3)], &hist, bound).is_empty());
        // Empty served sets and unknown registers are skipped.
        assert!(stale_read_errors(&[(t(40), NodeId(9), 0, 7, vec![])], &hist, bound).is_empty());
        assert!(
            stale_read_errors(&[(t(40), NodeId(9), 5, 7, vec![NodeId(1)])], &hist, bound)
                .is_empty()
        );
    }

    #[test]
    fn wire_state_tracks_requests_and_taint() {
        let mut w = WireState::default();
        w.requested.entry((1, 2)).or_default().insert(7);
        assert!(w.requested_contains(1, 2, 7));
        assert!(!w.requested_contains(1, 2, 8));
        assert!(!w.is_tainted(1, 2));
        w.tainted.insert((1, 2));
        assert!(w.is_tainted(1, 2));
    }

    #[test]
    fn violation_display_is_replayable_context() {
        let v = Violation {
            at: SimTime(123),
            kind: ViolationKind::PendingStuck {
                switch: NodeId(2),
                reg: 0,
                slot: 3,
                seq: 9,
                since: SimTime(50),
            },
        };
        let s = v.to_string();
        assert!(s.contains("123 ns"), "{s}");
        assert!(s.contains("pending bit stuck"), "{s}");
    }

    /// A hand-built history that SHOULD violate issued-epoch uniqueness:
    /// two controller replicas each log a `Commit` for the same
    /// `(reg, start, epoch)` but with different owner sets — i.e. two
    /// leaders both believed they issued epoch 3 for the same range.
    #[test]
    fn replica_epoch_conflict_oracle_fires() {
        use crate::reconfig::{ReconfigEvent, ReconfigLogEntry};
        let commit = |owners: Vec<NodeId>| ReconfigLogEntry {
            time: SimTime(10),
            event: ReconfigEvent::Commit {
                reg: 7,
                start: 100,
                owners,
                epoch: 3,
            },
        };
        let a = vec![commit(vec![NodeId(1)])];
        let b = vec![commit(vec![NodeId(2)])];
        let na = NodeId(u16::MAX);
        let nb = NodeId(u16::MAX - 1);
        let v = replica_epoch_conflicts(&[(na, &a), (nb, &b)]);
        assert_eq!(v.len(), 1, "conflicting commits must be flagged: {v:?}");
        assert!(matches!(
            v[0],
            ViolationKind::ReplicaEpochConflict {
                reg: 7,
                start: 100,
                epoch: 3,
                ..
            }
        ));
        // Same event replicated on both logs (the normal consensus
        // outcome) is NOT a conflict.
        let b_same = vec![commit(vec![NodeId(1)])];
        assert!(replica_epoch_conflicts(&[(na, &a), (nb, &b_same)]).is_empty());
        // Different epochs for the same range (a lagging replica) is
        // NOT a conflict either.
        let b_old = vec![ReconfigLogEntry {
            time: SimTime(5),
            event: ReconfigEvent::Commit {
                reg: 7,
                start: 100,
                owners: vec![NodeId(2)],
                epoch: 2,
            },
        }];
        assert!(replica_epoch_conflicts(&[(na, &a), (nb, &b_old)]).is_empty());
    }

    /// A hand-built pair of range tables that SHOULD violate the
    /// no-split-brain invariant: same range, same per-range epoch,
    /// different owner sets across two replicas.
    #[test]
    fn range_split_brain_oracle_fires() {
        use crate::reconfig::RangeView;
        let mk = |epoch, owner: u16| {
            vec![RangeView {
                start: 0,
                end: 64,
                epoch,
                mig_to: None,
                owners: vec![NodeId(owner)],
            }]
        };
        let na = NodeId(u16::MAX);
        let nb = NodeId(u16::MAX - 1);
        // Equal epoch, different owners → split brain.
        let v = range_split_brain_errors(4, &[(na, mk(5, 1)), (nb, mk(5, 2))]);
        assert_eq!(v.len(), 1, "equal-epoch owner disagreement: {v:?}");
        assert!(matches!(
            v[0],
            ViolationKind::RangeSplitBrain {
                reg: 4,
                start: 0,
                epoch: 5,
                ..
            }
        ));
        // A lagging replica (lower epoch, stale owners) is legal.
        assert!(range_split_brain_errors(4, &[(na, mk(5, 1)), (nb, mk(4, 2))]).is_empty());
        // Agreement is legal.
        assert!(range_split_brain_errors(4, &[(na, mk(5, 1)), (nb, mk(5, 1))]).is_empty());
    }

    fn jrec(time: u64, node: u16, event: CtrlEvent) -> swishmem_simnet::JournalRecord {
        swishmem_simnet::JournalRecord {
            time: SimTime(time),
            node: NodeId(node),
            event,
        }
    }

    /// A hand-built failover journal whose gap (last beacon at 600 ns to
    /// the election decree at 1 200 000 ns) SHOULD break a tight budget
    /// and hold under a looser one.
    #[test]
    fn failover_gap_slo_fires_on_slow_failover() {
        let leader = NodeId(u16::MAX - 1);
        let records = vec![
            jrec(
                1_000_000,
                leader.0,
                CtrlEvent::Suspect {
                    target: NodeId(u16::MAX),
                    silence_ns: 400_000,
                    timeout_ns: 350_000,
                },
            ),
            jrec(
                1_100_000,
                leader.0,
                CtrlEvent::ElectionStart {
                    ballot: 257,
                    timeout_ns: 350_000,
                },
            ),
            jrec(
                1_200_000,
                leader.0,
                CtrlEvent::LeaderElected {
                    leader,
                    epoch: 2,
                    slot: 8,
                },
            ),
        ];
        let j = Journal::new(&records);
        // Gap = 1_200_000 - (1_000_000 - 400_000) = 600_000 ns.
        assert!(failover_gap_violations(&j, SimDuration::micros(600)).is_empty());
        let v = failover_gap_violations(&j, SimDuration::micros(500));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].0, SimTime(1_200_000));
        assert!(matches!(
            v[0].1,
            ViolationKind::FailoverGapExceeded {
                epoch: 2,
                gap_ns: 600_000,
                budget_ns: 500_000,
                ..
            }
        ));
    }

    /// Closed, open, and aborted dual-owner windows against the budget:
    /// only commit closes the clock; an open window ages with `now` (and
    /// is not judged without one); an abort stops it.
    #[test]
    fn dual_owner_window_slo_fires_for_closed_and_open_windows() {
        use swishmem_simnet::journal::ABORT_DEST_FAILED;
        let begin = CtrlEvent::MigBegin {
            reg: 1,
            start: 0,
            from: NodeId(0),
            to: NodeId(2),
            epoch: 1,
        };
        let dual = CtrlEvent::MigDualOwner {
            reg: 1,
            start: 0,
            epoch: 1,
            pass: 1,
        };
        let commit = CtrlEvent::MigCommit {
            reg: 1,
            start: 0,
            epoch: 2,
        };
        // Closed: dual-owner at 100, commit at 700 → 600 ns window.
        let closed = [jrec(50, 0, begin), jrec(100, 0, dual), jrec(700, 0, commit)];
        let j = Journal::new(&closed);
        let end = Some(SimTime(10_000));
        assert!(dual_owner_violations(&j, end, SimDuration::nanos(600)).is_empty());
        let v = dual_owner_violations(&j, end, SimDuration::nanos(500));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].0, SimTime(700));
        assert!(matches!(
            v[0].1,
            ViolationKind::DualOwnerWindowExceeded {
                reg: 1,
                start: 0,
                window_ns: 600,
                ..
            }
        ));
        // Open: no terminal event yet, the window ages against `now`,
        // or goes unjudged without one.
        let open = [jrec(50, 0, begin), jrec(100, 0, dual)];
        let j = Journal::new(&open);
        let budget = SimDuration::nanos(500);
        assert!(dual_owner_violations(&j, Some(SimTime(500)), budget).is_empty());
        assert_eq!(
            dual_owner_violations(&j, Some(SimTime(1_000)), budget).len(),
            1
        );
        assert!(dual_owner_violations(&j, None, budget).is_empty());
        // Aborted before commit: the clock must stop.
        let abort = CtrlEvent::MigAbort {
            reg: 1,
            start: 0,
            epoch: 1,
            reason: ABORT_DEST_FAILED,
        };
        let aborted = [jrec(50, 0, begin), jrec(100, 0, dual), jrec(200, 0, abort)];
        let j = Journal::new(&aborted);
        assert!(dual_owner_violations(&j, Some(SimTime(1 << 40)), budget).is_empty());
    }

    /// Five campaign starts 100 ns apart: a 400 ns window holds 5, so a
    /// budget of 4 breaks and 5 holds; a 100 ns window never sees > 2.
    #[test]
    fn election_churn_slo_fires_on_thrash() {
        let records: Vec<_> = (0..5u64)
            .map(|i| {
                jrec(
                    1_000 + i * 100,
                    7,
                    CtrlEvent::ElectionStart {
                        ballot: 257 + i,
                        timeout_ns: 50,
                    },
                )
            })
            .collect();
        let j = Journal::new(&records);
        assert!(election_churn_violations(&j, SimDuration::nanos(400), 5).is_empty());
        let v = election_churn_violations(&j, SimDuration::nanos(400), 4);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            v[0].1,
            ViolationKind::ElectionChurn {
                elections: 5,
                budget: 4,
                ..
            }
        ));
        assert!(election_churn_violations(&j, SimDuration::nanos(100), 2).is_empty());
    }

    /// End to end: an attached suite fed a journal whose failover gap
    /// (100.0006 ms) is above [`FAILOVER_GAP_BUDGET`] MUST surface the
    /// SLO violation through its normal violation machinery, enriched
    /// with the journal events leading up to it.
    /// A settled 3-switch deployment whose NF forwards everything, and
    /// a suite with a journal tap of `capacity` attached.
    fn journaled_suite(capacity: usize) -> (Deployment, OracleSuite, JournalHandle) {
        use crate::api::{NfApp, NfDecision, SharedState};
        use crate::deployment::{DeploymentBuilder, HOST_BASE};
        use swishmem_wire::DataPacket;

        struct NoopNf;
        impl NfApp for NoopNf {
            fn process(
                &mut self,
                pkt: &DataPacket,
                _i: NodeId,
                _st: &mut dyn SharedState,
            ) -> NfDecision {
                NfDecision::Forward {
                    dst: NodeId(HOST_BASE),
                    pkt: *pkt,
                }
            }
        }

        let mut dep = DeploymentBuilder::new(3).build(|_| Box::new(NoopNf));
        dep.settle();
        let handle = dep.attach_journal(capacity);
        let mut suite = OracleSuite::attach(&mut dep, OracleConfig::new(SimTime(1 << 60)));
        suite.attach_journal(handle.clone());
        (dep, suite, handle)
    }

    #[test]
    fn slo_violation_fires_through_the_suite_with_journal_context() {
        let (dep, mut suite, handle) = journaled_suite(1 << 12);

        // The old leader's last beacon is at 600 ns; the new one applies
        // its election decree 100 ms + 600 ns later.
        let late = FAILOVER_GAP_BUDGET.as_nanos();
        let leader = NodeId(u16::MAX - 1);
        for rec in [
            jrec(
                late + 1_000,
                leader.0,
                CtrlEvent::Suspect {
                    target: NodeId(u16::MAX),
                    silence_ns: late + 400,
                    timeout_ns: 350,
                },
            ),
            jrec(
                late + 1_100,
                leader.0,
                CtrlEvent::ElectionStart {
                    ballot: 257,
                    timeout_ns: 350,
                },
            ),
            jrec(
                late + 1_200,
                leader.0,
                CtrlEvent::LeaderElected {
                    leader,
                    epoch: 2,
                    slot: 8,
                },
            ),
        ] {
            handle
                .borrow_mut()
                .on_net_event(rec.time, &NetEvent::Journal(rec));
        }
        suite.poll(&dep);
        let v = suite.violation().expect("budget violation must fire");
        assert!(
            matches!(
                v.kind,
                ViolationKind::FailoverGapExceeded {
                    epoch: 2,
                    gap_ns: 100_000_600,
                    budget_ns: 100_000_000,
                    ..
                }
            ),
            "{v}"
        );
        assert!(!suite.violation_context().is_empty());
        let report = suite.violation_report().unwrap();
        assert!(report.contains("failover SLO broken"), "{report}");
        assert!(report.contains("election started"), "{report}");
    }

    /// A full journal tap drops the records after its first `capacity`:
    /// a migration whose commit was dropped looks still open, and must
    /// not be reported as a dual-owner window aging past its budget.
    #[test]
    fn an_overflowed_journal_does_not_age_open_dual_owner_windows() {
        let (mut dep, mut suite, handle) = journaled_suite(2);
        let t = dep.now().nanos();
        for rec in [
            jrec(
                t,
                0,
                CtrlEvent::MigBegin {
                    reg: 1,
                    start: 0,
                    from: NodeId(0),
                    to: NodeId(2),
                    epoch: 1,
                },
            ),
            jrec(
                t + 100,
                0,
                CtrlEvent::MigDualOwner {
                    reg: 1,
                    start: 0,
                    epoch: 1,
                    pass: 1,
                },
            ),
            jrec(
                t + 200,
                0,
                CtrlEvent::MigCommit {
                    reg: 1,
                    start: 0,
                    epoch: 2,
                },
            ),
        ] {
            handle
                .borrow_mut()
                .on_net_event(rec.time, &NetEvent::Journal(rec));
        }
        assert_eq!(handle.borrow().overflowed(), 1);
        dep.run_for(SimDuration::millis(60));
        assert!(suite.poll(&dep).is_none(), "{:?}", suite.violation_report());
    }

    /// With one controller there is no follower read to check, but the
    /// suite still drains the directory replies it buffered: each poll
    /// leaves the buffer empty, so a long run's memory does not grow
    /// with every lookup.
    #[test]
    fn single_controller_directory_replies_are_drained_by_poll() {
        use crate::api::{NfApp, NfDecision, SharedState};
        use crate::config::RegisterSpec;
        use crate::deployment::DeploymentBuilder;
        use swishmem_wire::DataPacket;

        struct DropNf;
        impl NfApp for DropNf {
            fn process(
                &mut self,
                _pkt: &DataPacket,
                _i: NodeId,
                _st: &mut dyn SharedState,
            ) -> NfDecision {
                NfDecision::Drop
            }
        }

        let mut dep = DeploymentBuilder::new(3)
            .register(RegisterSpec::sro(0, "t", 64))
            .build(|_| Box::new(DropNf));
        let owners = dep.switch_ids().to_vec();
        dep.partition_register(0, 64, &owners);
        let mut suite = OracleSuite::attach(&mut dep, OracleConfig::new(SimTime(1 << 60)));
        dep.settle();
        assert_eq!(dep.controller_ids().len(), 1);
        for round in 0..3u32 {
            let t = dep.now();
            for key in 0..4 {
                dep.dir_lookup(
                    t + SimDuration::micros(u64::from(key)),
                    0,
                    0,
                    round * 4 + key,
                );
            }
            dep.run_for(SimDuration::millis(2));
            assert_eq!(suite.wire.borrow().dir_replies.len(), 4, "round {round}");
            assert!(suite.poll(&dep).is_none());
            assert!(suite.wire.borrow().dir_replies.is_empty(), "round {round}");
        }
        assert!(dep.dir_owners(0, 0, 11).is_some());
    }

    /// The settled run ends exactly `convergence_grace + 100 ms` past
    /// `quiesce_at`, so the convergence oracle polls for 100 ms.
    #[test]
    fn a_settled_run_ends_100_ms_after_the_convergence_grace() {
        use crate::config::RegisterSpec;
        use crate::deployment::DeploymentBuilder;
        use crate::probe::{udp_write, WriteNf};

        let mut dep = DeploymentBuilder::new(3)
            .hosts(1)
            .register(RegisterSpec::sro(0, "t", 16))
            .build(|_| Box::new(WriteNf));
        dep.settle();
        let t0 = dep.now();
        for k in 0..8u16 {
            let at = t0 + SimDuration::micros(u64::from(k) * 100);
            dep.inject(at, usize::from(k % 3), 0, udp_write(k, 100 + k));
        }
        let cfg = OracleConfig::new(t0 + SimDuration::millis(10));
        let mut suite = OracleSuite::attach(&mut dep, cfg);
        assert_eq!(suite.run_settled(&mut dep), Ok(()));
        let end = cfg.quiesce_at + cfg.convergence_grace + SimDuration::millis(100);
        assert_eq!(dep.now(), end);
        assert_eq!(dep.peek(2, 0, 7), 107);
    }

    #[test]
    fn dual_leader_violation_displays_both_replicas() {
        let v = Violation {
            at: SimTime(999),
            kind: ViolationKind::DualLeader {
                a: NodeId(u16::MAX),
                b: NodeId(u16::MAX - 1),
            },
        };
        let s = v.to_string();
        assert!(s.contains("ctrl"), "{s}");
        assert!(s.contains("n65534"), "{s}");
        assert!(s.contains("dual leader"), "{s}");
    }
}
