//! Controller-replica consensus: single-decree Paxos per log slot,
//! mapped onto the PISA register model (*Paxos Made Switch-y* style).
//!
//! The replicated control plane (DESIGN.md §12) keeps one growing log of
//! [`CtrlCmd`] decrees. Each slot is decided by an independent
//! single-decree Paxos instance; replicas apply chosen commands strictly
//! in slot order, so every replica walks the same state-machine path.
//!
//! The acceptor role is deliberately register-shaped: a scalar log-wide
//! promise register (`floor`) plus two fixed-width register arrays — the
//! accepted ballot and the accepted command per slot (commands are fixed
//! 18-byte values, see [`swishmem_wire::swish::CTRL_CMD_LEN`]) — exactly
//! the state a PISA pipeline can hold in match-action registers. The
//! log-wide `floor` (instead of a per-slot promise array) doubles as the
//! leader-stability fence: once a leader's ballot is promised, a rival
//! proposer is Nacked on every slot until it outbids the floor.
//!
//! The proposer drives one slot at a time, full two-phase per slot
//! (Prepare/Promise, then Accept/Accepted, then Learn). Leadership is
//! itself a decree: a candidate walks the log from its first unchosen
//! slot, re-proposing any value it discovers (which completes interrupted
//! decrees), and wins when its own [`CtrlCmd::Reassert`] is chosen. Role
//! changes therefore ride the same committed log on every replica —
//! there is no side channel to disagree over.

use std::collections::VecDeque;
use swishmem_wire::swish::{
    CtrlAccept, CtrlAccepted, CtrlCmd, CtrlLearn, CtrlPrepare, CtrlPromise,
};
use swishmem_wire::{NodeId, SwishMsg};

/// A proposal ballot: `(round << 8) | replica_idx`. Zero is "no ballot".
pub type Ballot = u64;

/// A log slot index.
pub type Slot = u64;

/// Capacity of the consensus log *window*, mirroring a fixed-size
/// register array. Slots are absolute and monotonically increasing, but
/// only the window `[base, base + SLOT_CAP)` is backed by register
/// cells; compaction (a chosen [`CtrlCmd::Compact`] decree) advances
/// `base` and recycles the cells below it, the way a real PISA register
/// array would be reused. Overflowing the window is a degraded-mode
/// error ([`ConsensusError::LogOverflow`]), not a panic.
pub const SLOT_CAP: usize = 1024;

/// A consensus invariant the register model cannot absorb. Surfaced to
/// the oracle layer as a violation (the harness attaches seed and
/// schedule for replay) instead of aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsensusError {
    /// A slot landed outside the `SLOT_CAP` register window — the log
    /// grew a full window beyond the last compaction boundary.
    LogOverflow {
        /// The slot that did not fit.
        slot: Slot,
        /// The window base at the time.
        base: Slot,
    },
}

impl std::fmt::Display for ConsensusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsensusError::LogOverflow { slot, base } => write!(
                f,
                "consensus log overflow: slot {slot} outside register \
                 window [{base}, {})",
                base + SLOT_CAP as u64
            ),
        }
    }
}

/// Compose a ballot from an election round and a replica index.
pub fn ballot(round: u64, idx: u8) -> Ballot {
    (round << 8) | u64::from(idx)
}

/// The class of a consensus transition note (see [`ConsensusNote`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoteKind {
    /// The proposer opened phase 1 for a slot (Prepare issued).
    PrepareIssued,
    /// This acceptor granted a promise.
    PromiseGranted,
    /// This acceptor accepted a value.
    Accepted,
    /// The proposer saw an accept quorum — the value is chosen.
    Chosen,
    /// A slot entered this replica's chosen log.
    Learned,
    /// The proposer retreated (outbid, nacked, or a rival took over).
    StepDown,
}

/// A passive record of one consensus transition, for the control-plane
/// flight recorder (DESIGN.md §14). The state machine only *writes*
/// notes — it never reads them back — and only while [`Consensus::notes_on`]
/// is set, so recording cannot perturb any transition: with the flag off
/// the protocol state evolves identically, which is what keeps the
/// journal bit-invisible to the determinism fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsensusNote {
    /// The transition class.
    pub kind: NoteKind,
    /// The slot involved.
    pub slot: Slot,
    /// The ballot involved (0 where not meaningful, e.g. `Learned`).
    pub ballot: Ballot,
}

/// The election round of a ballot.
pub fn ballot_round(b: Ballot) -> u64 {
    b >> 8
}

/// Messages a state-machine step wants sent: `(destination, message)`.
pub type Outbox = Vec<(NodeId, SwishMsg)>;

/// Replica role within the controller group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Applying chosen commands, watching the leader's heartbeat.
    Follower,
    /// Electing itself: walking the log toward a chosen `Reassert`.
    Candidate,
    /// Proposing commands for the group.
    Leader,
}

/// Acceptor register state: the log-wide promise plus per-slot accepted
/// (ballot, command) cells for the current window. Cell storage is
/// indexed by `slot - base`; slots below `base` have been recycled and
/// any request naming them is refused (the proposer heals via the
/// snapshot catch-up path instead).
#[derive(Debug, Clone, Default)]
pub struct Acceptor {
    /// Log-wide promised ballot: Prepares and Accepts below it are
    /// refused, which is what keeps an established leader stable.
    pub floor: Ballot,
    /// First slot still backed by a register cell.
    pub base: Slot,
    cells: Vec<Option<(Ballot, CtrlCmd)>>,
}

impl Acceptor {
    fn cell(&self, slot: Slot) -> Option<(Ballot, CtrlCmd)> {
        if slot < self.base {
            return None;
        }
        self.cells
            .get((slot - self.base) as usize)
            .copied()
            .flatten()
    }

    /// Store an accepted value. False when the slot falls outside the
    /// register window (compacted or a full window ahead).
    #[must_use]
    fn set_cell(&mut self, slot: Slot, b: Ballot, c: CtrlCmd) -> bool {
        if slot < self.base {
            return false;
        }
        let i = (slot - self.base) as usize;
        if i >= SLOT_CAP {
            return false;
        }
        if self.cells.len() <= i {
            self.cells.resize(i + 1, None);
        }
        self.cells[i] = Some((b, c));
        true
    }

    /// Highest slot with an accepted value, 1-based (`base` = none).
    fn max_slot(&self) -> u64 {
        self.cells
            .iter()
            .rposition(|c| c.is_some())
            .map(|i| i as u64 + 1 + self.base)
            .unwrap_or(self.base)
    }

    /// Recycle every cell below `base` and advance the window.
    fn rebase(&mut self, base: Slot) {
        if base <= self.base {
            return;
        }
        let drop = (base - self.base) as usize;
        if drop >= self.cells.len() {
            self.cells.clear();
        } else {
            self.cells.drain(..drop);
        }
        self.base = base;
    }
}

/// The proposal currently in flight (one slot at a time).
#[derive(Debug, Clone)]
struct Inflight {
    slot: Slot,
    /// False: collecting promises. True: collecting accepts.
    phase2: bool,
    /// The value pushed in phase 2.
    value: Option<CtrlCmd>,
    /// True when `value` came off our own queue (so losing the slot
    /// re-queues it instead of dropping it).
    mine: bool,
    /// Acceptors that granted the current phase.
    grants: Vec<NodeId>,
    /// Highest-ballot accepted value discovered during phase 1.
    best: Option<(Ballot, CtrlCmd)>,
}

/// One replica's consensus state: acceptor registers, the chosen log,
/// and the proposer driver.
pub struct Consensus {
    /// This replica's node id.
    pub me: NodeId,
    /// This replica's index within the group (ballot tiebreak).
    pub idx: u8,
    /// Current consensus membership. Changed at runtime by committed
    /// `AddReplica`/`RemoveReplica` decrees; a spare replica starts with
    /// a group that does not contain it and stays passive until a
    /// membership decree admits it.
    pub group: Vec<NodeId>,
    /// Previous membership during a joint-quorum window: from the
    /// commit of a membership decree until one further decree commits,
    /// proposals must gather majorities of BOTH groups.
    pub old_group: Option<Vec<NodeId>>,
    /// Commit height at which the joint window closes.
    joint_until: Slot,
    /// Current role.
    pub role: Role,
    /// Our proposal ballot while candidate/leader.
    pub bal: Ballot,
    /// Highest election round observed anywhere (floors, rival ballots).
    pub seen_round: u64,
    /// The acceptor registers.
    pub acceptor: Acceptor,
    chosen: Vec<Option<CtrlCmd>>,
    /// Contiguously chosen prefix length: slots `0..commit` are decided.
    pub commit: Slot,
    /// The leader named by the latest `Reassert` inside the committed
    /// prefix (what this replica believes, consistently with the log).
    pub leader_hint: Option<NodeId>,
    inflight: Option<Inflight>,
    queue: VecDeque<CtrlCmd>,
    /// Leader changes observed in the committed prefix (failover count).
    pub leader_changes: u64,
    /// Compaction decrees applied (register-window recycles).
    pub compactions: u64,
    /// First capacity violation observed, sticky: the run degrades and
    /// the oracle layer reports it, rather than the process aborting.
    pub error: Option<ConsensusError>,
    /// Whether to record [`ConsensusNote`]s. Mirrored from the
    /// controller's journal attachment each callback; off by default.
    pub notes_on: bool,
    notes: Vec<ConsensusNote>,
}

impl Consensus {
    /// A fresh replica: follower, empty log.
    pub fn new(me: NodeId, idx: u8, group: Vec<NodeId>) -> Consensus {
        Consensus {
            me,
            idx,
            group,
            old_group: None,
            joint_until: 0,
            role: Role::Follower,
            bal: 0,
            seen_round: 0,
            acceptor: Acceptor::default(),
            chosen: Vec::new(),
            commit: 0,
            leader_hint: None,
            inflight: None,
            queue: VecDeque::new(),
            leader_changes: 0,
            compactions: 0,
            error: None,
            notes_on: false,
            notes: Vec::new(),
        }
    }

    /// Drain the transition notes recorded since the last drain. Empty
    /// (and allocation-free) while `notes_on` is unset.
    pub fn take_notes(&mut self) -> Vec<ConsensusNote> {
        std::mem::take(&mut self.notes)
    }

    #[inline]
    fn note(&mut self, kind: NoteKind, slot: Slot, ballot: Ballot) {
        if self.notes_on {
            self.notes.push(ConsensusNote { kind, slot, ballot });
        }
    }

    /// Majority size of the current group.
    pub fn quorum(&self) -> usize {
        self.group.len() / 2 + 1
    }

    /// True when `grants` satisfies the quorum rule: a majority of the
    /// current group, and — during a joint window — a majority of the
    /// outgoing group as well.
    fn has_quorum(&self, grants: &[NodeId]) -> bool {
        let maj = |g: &[NodeId]| grants.iter().filter(|n| g.contains(n)).count() > g.len() / 2;
        maj(&self.group) && self.old_group.as_deref().map(maj).unwrap_or(true)
    }

    fn peers(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .group
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect();
        if let Some(og) = &self.old_group {
            for &p in og {
                if p != self.me && !v.contains(&p) {
                    v.push(p);
                }
            }
        }
        v
    }

    /// First slot still backed by register cells (compaction boundary).
    pub fn base(&self) -> Slot {
        self.acceptor.base
    }

    /// Occupied length of the register window (slots since the last
    /// compaction) — the leader proposes a `Compact` when this nears
    /// [`SLOT_CAP`].
    pub fn window_len(&self) -> usize {
        (self.first_unchosen() - self.acceptor.base) as usize
    }

    /// True while a membership change's joint-quorum window is open.
    pub fn in_joint_window(&self) -> bool {
        self.old_group.is_some()
    }

    /// The chosen command at `slot`, if decided and not yet compacted.
    pub fn chosen_at(&self, slot: Slot) -> Option<CtrlCmd> {
        if slot < self.acceptor.base {
            return None;
        }
        self.chosen
            .get((slot - self.acceptor.base) as usize)
            .copied()
            .flatten()
    }

    fn first_unchosen(&self) -> Slot {
        let mut s = self.commit;
        while self.chosen_at(s).is_some() {
            s += 1;
        }
        s
    }

    /// True if `cmd` is already queued or being proposed (decision dedup).
    pub fn has_pending(&self, cmd: &CtrlCmd) -> bool {
        self.queue.contains(cmd)
            || self
                .inflight
                .as_ref()
                .is_some_and(|f| f.mine && f.value.as_ref() == Some(cmd))
    }

    /// Queue a command for proposal (leader only; no-op outbox if a
    /// proposal is already in flight — `tick`/choose will pump it).
    pub fn enqueue(&mut self, cmd: CtrlCmd) -> Outbox {
        self.queue.push_back(cmd);
        self.pump()
    }

    /// Begin (or re-begin, at a higher round) an election.
    pub fn start_candidacy(&mut self) -> Outbox {
        self.seen_round += 1;
        self.bal = ballot(self.seen_round, self.idx);
        self.role = Role::Candidate;
        self.inflight = None;
        self.pump()
    }

    fn step_down(&mut self) {
        if self.role != Role::Follower {
            self.note(NoteKind::StepDown, self.commit, self.bal);
        }
        self.role = Role::Follower;
        self.inflight = None;
        self.queue.clear();
    }

    /// Crash-recovery re-entry: drop any proposer role and in-flight
    /// work (stale after downtime) but keep the acceptor state and the
    /// chosen log — the promises this node made still bind it.
    pub fn on_restart(&mut self) {
        self.step_down();
    }

    /// Drive the proposer: start phase 1 for the next slot if there is
    /// work (an election to win, or queued commands) and nothing in
    /// flight.
    fn pump(&mut self) -> Outbox {
        let mut out = Outbox::new();
        if self.inflight.is_some() {
            return out;
        }
        let need = match self.role {
            Role::Follower => false,
            // A candidate keeps walking until its Reassert is chosen.
            Role::Candidate => true,
            Role::Leader => !self.queue.is_empty(),
        };
        if !need {
            return out;
        }
        let slot = self.first_unchosen();
        if (slot - self.acceptor.base) as usize >= SLOT_CAP {
            // The window is full and no compaction landed in time:
            // degrade (sticky error, surfaced by the oracles) instead of
            // panicking, and stop proposing.
            self.error.get_or_insert(ConsensusError::LogOverflow {
                slot,
                base: self.acceptor.base,
            });
            return out;
        }
        self.inflight = Some(Inflight {
            slot,
            phase2: false,
            value: None,
            mine: false,
            grants: Vec::new(),
            best: None,
        });
        self.note(NoteKind::PrepareIssued, slot, self.bal);
        let prep = CtrlPrepare {
            from: self.me,
            ballot: self.bal,
            slot,
        };
        for p in self.peers() {
            out.push((p, SwishMsg::CtrlPrepare(prep)));
        }
        // The proposer's own acceptor votes locally, no wire round trip.
        let local = self.promise_for(prep);
        self.note_promise(local, &mut out);
        out
    }

    /// Re-send the in-flight phase's requests (loss recovery; receivers
    /// are idempotent). Called from the replica tick.
    pub fn retransmit(&mut self) -> Outbox {
        let mut out = Outbox::new();
        let Some(f) = self.inflight.clone() else {
            return self.pump();
        };
        if f.phase2 {
            if let Some(v) = f.value {
                let acc = CtrlAccept {
                    from: self.me,
                    ballot: self.bal,
                    slot: f.slot,
                    cmd: v,
                };
                for p in self.peers() {
                    out.push((p, SwishMsg::CtrlAccept(acc)));
                }
            }
        } else {
            let prep = CtrlPrepare {
                from: self.me,
                ballot: self.bal,
                slot: f.slot,
            };
            for p in self.peers() {
                out.push((p, SwishMsg::CtrlPrepare(prep)));
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Acceptor side
    // ------------------------------------------------------------------

    fn promise_for(&mut self, m: CtrlPrepare) -> CtrlPromise {
        self.seen_round = self.seen_round.max(ballot_round(m.ballot));
        // Refuse slots below the compaction boundary: those register
        // cells are recycled, the proposer must catch up via snapshot.
        let granted = m.ballot >= self.acceptor.floor && m.slot >= self.acceptor.base;
        if granted {
            self.acceptor.floor = m.ballot;
            self.note(NoteKind::PromiseGranted, m.slot, m.ballot);
        }
        let acc = self.acceptor.cell(m.slot);
        CtrlPromise {
            from: self.me,
            ballot: m.ballot,
            slot: m.slot,
            granted,
            floor: self.acceptor.floor,
            max_slot: self.acceptor.max_slot(),
            acc_ballot: acc.map(|(b, _)| b).unwrap_or(0),
            acc: acc.map(|(_, c)| c),
        }
    }

    /// Handle a phase-1 request from a peer.
    pub fn on_prepare(&mut self, m: CtrlPrepare) -> Outbox {
        let reply = self.promise_for(m);
        // A prepare above our ballot means a rival is electing: if we
        // were leading or electing on a lower ballot, yield.
        if m.ballot > self.bal && self.role != Role::Follower {
            self.step_down();
        }
        vec![(m.from, SwishMsg::CtrlPromise(Box::new(reply)))]
    }

    fn accepted_for(&mut self, m: CtrlAccept) -> CtrlAccepted {
        self.seen_round = self.seen_round.max(ballot_round(m.ballot));
        let mut granted = m.ballot >= self.acceptor.floor && m.slot >= self.acceptor.base;
        if granted {
            if self.acceptor.set_cell(m.slot, m.ballot, m.cmd) {
                self.acceptor.floor = m.ballot;
                self.note(NoteKind::Accepted, m.slot, m.ballot);
            } else {
                granted = false;
                self.error.get_or_insert(ConsensusError::LogOverflow {
                    slot: m.slot,
                    base: self.acceptor.base,
                });
            }
        }
        CtrlAccepted {
            from: self.me,
            ballot: m.ballot,
            slot: m.slot,
            granted,
            floor: self.acceptor.floor,
        }
    }

    /// Handle a phase-2 request from a peer.
    pub fn on_accept(&mut self, m: CtrlAccept) -> Outbox {
        let reply = self.accepted_for(m);
        if m.ballot > self.bal && self.role != Role::Follower {
            self.step_down();
        }
        vec![(m.from, SwishMsg::CtrlAccepted(reply))]
    }

    // ------------------------------------------------------------------
    // Proposer side
    // ------------------------------------------------------------------

    fn note_promise(&mut self, m: CtrlPromise, out: &mut Outbox) {
        if self.role == Role::Follower || m.ballot != self.bal {
            return;
        }
        let Some(f) = self.inflight.as_mut() else {
            return;
        };
        if f.phase2 || m.slot != f.slot {
            return;
        }
        if !m.granted {
            // Outbid: remember the round and retreat; the election timer
            // decides whether to try again higher.
            self.seen_round = self.seen_round.max(ballot_round(m.floor));
            self.step_down();
            return;
        }
        if let (ab, Some(ac)) = (m.acc_ballot, m.acc) {
            if ab > 0 && f.best.map(|(b, _)| ab > b).unwrap_or(true) {
                f.best = Some((ab, ac));
            }
        }
        if !f.grants.contains(&m.from) {
            f.grants.push(m.from);
        }
        let grants = f.grants.clone();
        if !self.has_quorum(&grants) {
            return;
        }
        let f = self.inflight.as_mut().expect("inflight");
        // Phase 2: push the discovered value if any (completing an
        // interrupted decree), else our own command.
        let (value, mine) = match f.best {
            Some((_, v)) => (v, false),
            None => match self.role {
                Role::Leader => match self.queue.pop_front() {
                    Some(v) => (v, true),
                    None => {
                        self.inflight = None;
                        return;
                    }
                },
                // Candidates fill free slots with their election decree.
                _ => (CtrlCmd::Reassert { leader: self.me }, true),
            },
        };
        let f = self.inflight.as_mut().expect("inflight");
        f.phase2 = true;
        f.value = Some(value);
        f.mine = mine;
        f.grants.clear();
        let slot = f.slot;
        let acc = CtrlAccept {
            from: self.me,
            ballot: self.bal,
            slot,
            cmd: value,
        };
        for p in self.peers() {
            out.push((p, SwishMsg::CtrlAccept(acc)));
        }
        let local = self.accepted_for(acc);
        self.note_accepted(local, out);
    }

    /// Handle a phase-1 reply.
    pub fn on_promise(&mut self, m: CtrlPromise) -> Outbox {
        let mut out = Outbox::new();
        self.note_promise(m, &mut out);
        out
    }

    fn note_accepted(&mut self, m: CtrlAccepted, out: &mut Outbox) {
        if self.role == Role::Follower || m.ballot != self.bal {
            return;
        }
        let Some(f) = self.inflight.as_mut() else {
            return;
        };
        if !f.phase2 || m.slot != f.slot {
            return;
        }
        if !m.granted {
            self.seen_round = self.seen_round.max(ballot_round(m.floor));
            let mine = f.mine;
            let value = f.value;
            self.step_down();
            // Our own command lost the slot race: it is not abandoned,
            // the next leader (possibly us) re-derives or re-queues it.
            if mine {
                if let Some(v) = value {
                    self.queue.push_front(v);
                }
            }
            return;
        }
        if !f.grants.contains(&m.from) {
            f.grants.push(m.from);
        }
        let grants = f.grants.clone();
        if !self.has_quorum(&grants) {
            return;
        }
        let f = self.inflight.as_ref().expect("inflight");
        let slot = f.slot;
        let value = f.value.expect("phase-2 value");
        self.inflight = None;
        self.note(NoteKind::Chosen, slot, self.bal);
        let learn = CtrlLearn {
            from: self.me,
            slot,
            cmd: value,
        };
        for p in self.peers() {
            out.push((p, SwishMsg::CtrlLearn(learn)));
        }
        self.learn(slot, value);
        out.extend(self.pump());
    }

    /// Handle a phase-2 reply.
    pub fn on_accepted(&mut self, m: CtrlAccepted) -> Outbox {
        let mut out = Outbox::new();
        self.note_accepted(m, &mut out);
        out
    }

    /// Handle a chosen-value notification (or a locally decided value).
    pub fn on_learn(&mut self, m: CtrlLearn) -> Outbox {
        // If a rival decided the slot we were driving, our command goes
        // back on the queue (unless it IS the decided value).
        if let Some(f) = &self.inflight {
            if f.slot == m.slot {
                let lost = f.mine && f.value != Some(m.cmd);
                let value = f.value;
                if lost {
                    if let Some(v) = value {
                        self.queue.push_front(v);
                    }
                }
                self.inflight = None;
            }
        }
        self.learn(m.slot, m.cmd);
        self.pump()
    }

    fn learn(&mut self, slot: Slot, cmd: CtrlCmd) {
        if slot < self.acceptor.base {
            // Already compacted away: the decree is reflected in the
            // snapshot state, a late Learn for it is stale.
            return;
        }
        let i = (slot - self.acceptor.base) as usize;
        if i >= SLOT_CAP {
            self.error.get_or_insert(ConsensusError::LogOverflow {
                slot,
                base: self.acceptor.base,
            });
            return;
        }
        if self.chosen.len() <= i {
            self.chosen.resize(i + 1, None);
        }
        debug_assert!(
            self.chosen[i].is_none() || self.chosen[i] == Some(cmd),
            "two different values chosen at slot {slot}"
        );
        if self.chosen[i].is_none() {
            self.note(NoteKind::Learned, slot, 0);
        }
        self.chosen[i] = Some(cmd);
        self.advance_commit();
    }

    /// Advance the committed prefix; leadership, membership, and the
    /// compaction boundary all follow the log.
    fn advance_commit(&mut self) {
        while let Some(c) = self.chosen_at(self.commit) {
            let slot = self.commit;
            self.commit += 1;
            match c {
                CtrlCmd::Reassert { leader } => {
                    if self.leader_hint != Some(leader) {
                        if self.leader_hint.is_some() {
                            self.leader_changes += 1;
                        }
                        self.leader_hint = Some(leader);
                    }
                    if leader == self.me {
                        self.role = Role::Leader;
                    } else if self.role != Role::Follower {
                        self.step_down();
                    }
                }
                CtrlCmd::AddReplica { node } if !self.group.contains(&node) => {
                    self.old_group = Some(self.group.clone());
                    self.group.push(node);
                    // Joint window: one further decree must commit
                    // under majorities of both groups. (Single-node
                    // changes already have overlapping majorities;
                    // the window is the belt-and-braces on top.)
                    self.joint_until = slot + 2;
                }
                CtrlCmd::RemoveReplica { node } if self.group.contains(&node) => {
                    self.old_group = Some(self.group.clone());
                    self.group.retain(|&n| n != node);
                    self.joint_until = slot + 2;
                    if node == self.me && self.role != Role::Follower {
                        self.step_down();
                    }
                }
                // `Compact` is NOT applied here: the commit cursor can
                // run ahead of the state-machine apply cursor, and
                // recycling cells below a slot the controller has not
                // applied yet would lose decrees. The controller calls
                // `compact_to` when its apply cursor passes the decree,
                // which is the same boundary on every replica.
                _ => {}
            }
            if self.old_group.is_some() && self.commit >= self.joint_until {
                self.old_group = None;
            }
        }
    }

    /// Recycle register cells below `upto` (acceptor and chosen arrays
    /// alike). No-op unless `base < upto <= commit`: every discarded
    /// slot is inside the committed prefix, so no accepted-but-unchosen
    /// value can be lost.
    pub fn compact_to(&mut self, upto: Slot) -> bool {
        if upto <= self.acceptor.base || upto > self.commit {
            return false;
        }
        let drop = (upto - self.acceptor.base) as usize;
        if drop >= self.chosen.len() {
            self.chosen.clear();
        } else {
            self.chosen.drain(..drop);
        }
        self.acceptor.rebase(upto);
        self.compactions += 1;
        true
    }

    /// Adopt a snapshot catch-up boundary: a peer's applied state
    /// replaces everything below `base`, and this replica resumes from
    /// there (keeping any already-decided suffix at or above `base`).
    /// No-op unless actually behind (`commit < base`).
    pub fn install_base(
        &mut self,
        base: Slot,
        group: Vec<NodeId>,
        leader: Option<NodeId>,
        leader_changes: u64,
    ) -> bool {
        if base <= self.commit {
            return false;
        }
        let old_base = self.acceptor.base;
        if base > old_base {
            let drop = (base - old_base) as usize;
            if drop >= self.chosen.len() {
                self.chosen.clear();
            } else {
                self.chosen.drain(..drop);
            }
            self.acceptor.rebase(base);
        }
        self.group = group;
        self.old_group = None;
        self.leader_hint = leader;
        self.leader_changes = leader_changes;
        self.commit = base;
        self.step_down();
        // A decided suffix above the boundary may already be sitting in
        // the chosen array — walk it as usual.
        self.advance_commit();
        true
    }

    /// Learn messages re-playing slots `[from, commit)` for a lagging
    /// follower (lost-`CtrlLearn` recovery, driven off its heartbeat).
    /// Clamped to the compaction boundary: anything below `base` only
    /// exists as snapshot state and is shipped via `CtrlSnap` instead.
    pub fn learns_since(&self, from: Slot) -> Vec<CtrlLearn> {
        (from.max(self.acceptor.base)..self.commit)
            .filter_map(|s| {
                self.chosen_at(s).map(|cmd| CtrlLearn {
                    from: self.me,
                    slot: s,
                    cmd,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group3() -> Vec<NodeId> {
        vec![NodeId(u16::MAX), NodeId(u16::MAX - 1), NodeId(u16::MAX - 2)]
    }

    fn mk(i: usize) -> Consensus {
        let g = group3();
        Consensus::new(g[i], i as u8, g)
    }

    /// Deliver every outstanding message until quiescent. Returns the
    /// number of messages delivered.
    fn run_bus(
        reps: &mut [Consensus],
        mut bus: Outbox,
        drop: impl Fn(usize, &SwishMsg) -> bool,
    ) -> usize {
        let mut delivered = 0;
        let mut n = 0;
        while let Some((to, msg)) = bus.first().cloned() {
            bus.remove(0);
            n += 1;
            assert!(n < 10_000, "bus did not quiesce");
            let Some(i) = reps.iter().position(|r| r.me == to) else {
                continue;
            };
            if drop(i, &msg) {
                continue;
            }
            let rep = &mut reps[i];
            delivered += 1;
            let out = match msg {
                SwishMsg::CtrlPrepare(m) => rep.on_prepare(m),
                SwishMsg::CtrlPromise(m) => rep.on_promise(*m),
                SwishMsg::CtrlAccept(m) => rep.on_accept(m),
                SwishMsg::CtrlAccepted(m) => rep.on_accepted(m),
                SwishMsg::CtrlLearn(m) => rep.on_learn(m),
                _ => Vec::new(),
            };
            bus.extend(out);
        }
        delivered
    }

    #[test]
    fn initial_election_elects_replica_zero() {
        let mut reps = vec![mk(0), mk(1), mk(2)];
        let out = reps[0].start_candidacy();
        run_bus(&mut reps, out, |_, _| false);
        for r in &reps {
            assert_eq!(r.leader_hint, Some(NodeId(u16::MAX)));
            assert_eq!(r.commit, 1);
            assert_eq!(
                r.chosen_at(0),
                Some(CtrlCmd::Reassert {
                    leader: NodeId(u16::MAX)
                })
            );
        }
        assert_eq!(reps[0].role, Role::Leader);
        assert_eq!(reps[1].role, Role::Follower);
    }

    #[test]
    fn leader_replicates_commands_in_order() {
        let mut reps = vec![mk(0), mk(1), mk(2)];
        let out = reps[0].start_candidacy();
        run_bus(&mut reps, out, |_, _| false);
        let out = reps[0].enqueue(CtrlCmd::Bootstrap);
        run_bus(&mut reps, out, |_, _| false);
        let out = reps[0].enqueue(CtrlCmd::Fail { node: NodeId(2) });
        run_bus(&mut reps, out, |_, _| false);
        for r in &reps {
            assert_eq!(r.commit, 3);
            assert_eq!(r.chosen_at(1), Some(CtrlCmd::Bootstrap));
            assert_eq!(r.chosen_at(2), Some(CtrlCmd::Fail { node: NodeId(2) }));
        }
    }

    #[test]
    fn failover_adopts_interrupted_decree() {
        let mut reps = vec![mk(0), mk(1), mk(2)];
        let out = reps[0].start_candidacy();
        run_bus(&mut reps, out, |_, _| false);
        // Leader proposes, but every Learn and every reply past the
        // accepts is lost: the value is accepted at a quorum yet chosen
        // nowhere else.
        let out = reps[0].enqueue(CtrlCmd::Fail { node: NodeId(7) });
        run_bus(&mut reps, out, |i, m| {
            i == 0 && matches!(m, SwishMsg::CtrlAccepted(_) | SwishMsg::CtrlLearn(_))
        });
        assert_eq!(
            reps[1].acceptor.cell(1).map(|(_, c)| c),
            Some(CtrlCmd::Fail { node: NodeId(7) })
        );
        assert_eq!(reps[1].commit, 1, "slot 1 not learned yet");
        // Replica 1 takes over (replica 0 silent): it must re-discover
        // and choose the interrupted decree before leading.
        let out = reps[1].start_candidacy();
        run_bus(&mut reps, out, |i, _| i == 0);
        assert_eq!(reps[1].role, Role::Leader);
        assert_eq!(
            reps[1].chosen_at(1),
            Some(CtrlCmd::Fail { node: NodeId(7) })
        );
        assert_eq!(
            reps[1].chosen_at(2),
            Some(CtrlCmd::Reassert {
                leader: NodeId(u16::MAX - 1)
            })
        );
        assert_eq!(
            reps[2].chosen_at(1),
            Some(CtrlCmd::Fail { node: NodeId(7) })
        );
    }

    #[test]
    fn dueling_candidates_converge_on_one_leader() {
        let mut reps = vec![mk(0), mk(1), mk(2)];
        let mut bus = reps[0].start_candidacy();
        bus.extend(reps[1].start_candidacy());
        run_bus(&mut reps, bus, |_, _| false);
        // One candidacy wins outright; the loser steps down. If both
        // retreated (possible with interleaved nacks), a retry decides.
        let leaders: Vec<_> = reps.iter().filter(|r| r.role == Role::Leader).collect();
        if leaders.is_empty() {
            let out = reps[1].start_candidacy();
            run_bus(&mut reps, out, |_, _| false);
        }
        let hints: Vec<_> = reps.iter().map(|r| r.leader_hint).collect();
        assert!(hints[0].is_some());
        assert!(
            hints.iter().all(|h| *h == hints[0]),
            "split brain: {hints:?}"
        );
        assert_eq!(
            reps.iter().filter(|r| r.role == Role::Leader).count(),
            1,
            "exactly one leader"
        );
    }

    #[test]
    fn compaction_sustains_four_windows_of_decrees() {
        let mut reps = vec![mk(0), mk(1), mk(2)];
        let out = reps[0].start_candidacy();
        run_bus(&mut reps, out, |_, _| false);
        // Long horizon: 4x the register window, with the leader choosing
        // a Compact decree whenever the window crosses a threshold —
        // the production trigger wired through the controller tick.
        let total = 4 * SLOT_CAP;
        for k in 0..total {
            let out = reps[0].enqueue(CtrlCmd::Fail {
                node: NodeId((k % 64) as u16),
            });
            run_bus(&mut reps, out, |_, _| false);
            if reps[0].window_len() >= 256 {
                let upto = reps[0].commit;
                let out = reps[0].enqueue(CtrlCmd::Compact { upto });
                run_bus(&mut reps, out, |_, _| false);
                // Each replica's apply cursor passes the decree and
                // recycles the window (the controller's job in prod).
                for r in reps.iter_mut() {
                    assert!(r.compact_to(upto));
                }
            }
        }
        for r in &reps {
            assert!(r.error.is_none(), "overflow surfaced: {:?}", r.error);
            assert!(r.compactions > 0, "window never recycled");
            assert!(r.window_len() < SLOT_CAP);
            assert!(r.base() > 0);
            assert_eq!(r.commit, reps[0].commit, "replicas diverged");
        }
        assert!(reps[0].commit as usize > total);
    }

    #[test]
    fn window_overflow_degrades_with_error_not_panic() {
        let mut reps = vec![mk(0), mk(1), mk(2)];
        let out = reps[0].start_candidacy();
        run_bus(&mut reps, out, |_, _| false);
        // No compaction: the window must fill and degrade, not abort.
        for k in 0..SLOT_CAP + 8 {
            let out = reps[0].enqueue(CtrlCmd::Fail {
                node: NodeId((k % 64) as u16),
            });
            run_bus(&mut reps, out, |_, _| false);
        }
        assert!(matches!(
            reps[0].error,
            Some(ConsensusError::LogOverflow { .. })
        ));
        assert!(reps[0].commit as usize <= SLOT_CAP);
    }

    #[test]
    fn membership_decrees_change_quorum_at_runtime() {
        let g = group3();
        let spare = NodeId(u16::MAX - 3);
        let mut reps = vec![mk(0), mk(1), mk(2), Consensus::new(spare, 3, g.clone())];
        let out = reps[0].start_candidacy();
        run_bus(&mut reps, out, |_, _| false);
        let out = reps[0].enqueue(CtrlCmd::AddReplica { node: spare });
        run_bus(&mut reps, out, |_, _| false);
        for r in &reps[..3] {
            assert_eq!(r.group.len(), 4);
            assert!(r.group.contains(&spare));
        }
        assert!(reps[0].in_joint_window(), "joint window opens at commit");
        // The spare catches up via learn replay and adopts the
        // membership that admits it.
        let learns: Outbox = reps[0]
            .learns_since(0)
            .into_iter()
            .map(|l| (spare, SwishMsg::CtrlLearn(l)))
            .collect();
        run_bus(&mut reps, learns, |_, _| false);
        assert!(reps[3].group.contains(&spare));
        assert_eq!(reps[3].commit, reps[0].commit);
        // One further decree closes the joint window.
        let out = reps[0].enqueue(CtrlCmd::Fail { node: NodeId(9) });
        run_bus(&mut reps, out, |_, _| false);
        assert!(!reps[0].in_joint_window());
        // Removal shrinks the group; the removed replica steps aside.
        let out = reps[0].enqueue(CtrlCmd::RemoveReplica { node: g[2] });
        run_bus(&mut reps, out, |_, _| false);
        let out = reps[0].enqueue(CtrlCmd::Fail { node: NodeId(10) });
        run_bus(&mut reps, out, |_, _| false);
        assert_eq!(reps[0].group.len(), 3);
        assert!(!reps[0].group.contains(&g[2]));
        assert!(!reps[0].in_joint_window());
        assert!(!reps[2].group.contains(&g[2]));
        assert_eq!(reps[2].role, Role::Follower);
    }

    #[test]
    fn interrupted_membership_decree_converges_to_one_membership() {
        let g = group3();
        let spare = NodeId(u16::MAX - 3);
        let mut reps = vec![mk(0), mk(1), mk(2), Consensus::new(spare, 3, g.clone())];
        let out = reps[0].start_candidacy();
        run_bus(&mut reps, out, |_, _| false);
        // The AddReplica is accepted at a quorum, but every reply past
        // the accepts is lost: chosen nowhere, then the leader crashes.
        let out = reps[0].enqueue(CtrlCmd::AddReplica { node: spare });
        run_bus(&mut reps, out, |i, m| {
            i == 0 && matches!(m, SwishMsg::CtrlAccepted(_) | SwishMsg::CtrlLearn(_))
        });
        assert_eq!(reps[1].group.len(), 3, "not yet applied anywhere");
        // The next leader must re-discover and finish the membership
        // decree before its own Reassert — one membership, not two.
        let out = reps[1].start_candidacy();
        run_bus(&mut reps, out, |i, _| i == 0);
        assert_eq!(reps[1].role, Role::Leader);
        for r in &reps[1..3] {
            assert_eq!(r.group.len(), 4, "membership converged");
            assert!(r.group.contains(&spare));
        }
    }

    #[test]
    fn lagging_replica_jumps_to_snapshot_base() {
        let mut reps = vec![mk(0), mk(1), mk(2)];
        let out = reps[0].start_candidacy();
        run_bus(&mut reps, out, |_, _| false);
        // Replica 2 misses a stretch that then gets compacted away.
        for k in 0..8 {
            let out = reps[0].enqueue(CtrlCmd::Fail { node: NodeId(k) });
            run_bus(&mut reps, out, |i, _| i == 2);
        }
        let upto = reps[0].commit;
        let out = reps[0].enqueue(CtrlCmd::Compact { upto });
        run_bus(&mut reps, out, |i, _| i == 2);
        assert!(reps[0].compact_to(upto));
        assert!(reps[1].compact_to(upto));
        assert!(reps[0].base() > 0);
        assert_eq!(reps[2].commit, 1);
        // Learn replay no longer covers the gap below the boundary …
        assert!(reps[0]
            .learns_since(reps[2].commit)
            .iter()
            .all(|l| l.slot >= reps[0].base()));
        // … so the snapshot path jumps the replica to the boundary.
        let base = reps[0].base();
        let group = reps[0].group.clone();
        let (hint, changes) = (reps[0].leader_hint, reps[0].leader_changes);
        assert!(reps[2].install_base(base, group, hint, changes));
        assert_eq!(reps[2].commit, base);
        // Suffix replay completes the catch-up.
        let learns: Outbox = reps[0]
            .learns_since(base)
            .into_iter()
            .map(|l| (NodeId(u16::MAX - 2), SwishMsg::CtrlLearn(l)))
            .collect();
        run_bus(&mut reps, learns, |_, _| false);
        assert_eq!(reps[2].commit, reps[0].commit);
    }

    #[test]
    fn lagging_follower_catches_up_via_learns_since() {
        let mut reps = vec![mk(0), mk(1), mk(2)];
        let out = reps[0].start_candidacy();
        run_bus(&mut reps, out, |_, _| false);
        // Replica 2 misses everything after the election.
        let out = reps[0].enqueue(CtrlCmd::Bootstrap);
        run_bus(&mut reps, out, |i, _| i == 2);
        assert_eq!(reps[2].commit, 1);
        // Its heartbeat reports commit=1; the leader replays the gap.
        let learns: Outbox = reps[0]
            .learns_since(1)
            .into_iter()
            .map(|l| (NodeId(u16::MAX - 2), SwishMsg::CtrlLearn(l)))
            .collect();
        run_bus(&mut reps, learns, |_, _| false);
        assert_eq!(reps[2].commit, 2);
        assert_eq!(reps[2].chosen_at(1), Some(CtrlCmd::Bootstrap));
    }
}
