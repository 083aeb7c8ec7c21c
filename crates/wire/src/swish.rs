//! SwiShmem replication-protocol messages (§6 of the paper, plus this
//! repo's directory, range-migration and replicated-controller extensions).
//!
//! The message inventory is the [`SwishMsg`] table at the end of this
//! file: one row per message with its tag, payload struct and traffic
//! class. Each payload struct's field list, in wire order, is its codec
//! (`crate::schema`); nothing else in the crate restates a layout.
//!
//! All messages are versioned with [`WIRE_VERSION`] and carry a one-byte
//! tag; codecs are strict (a decoder accepts only bytes its encoder
//! emits, and the packet layer rejects trailing bytes).

use crate::cursor::{Reader, Writer};
use crate::packet::{DataPacket, TrafficClass};
use crate::schema::{fixed, wire_struct, wire_table, Wire};
use crate::shared::Shared;
use crate::{NodeId, WireError};

/// Protocol version spoken by this library.
///
/// Version 2 added the in-band [`TraceId`] carried by [`WriteRequest`],
/// [`WriteAck`], [`ReadForward`] and [`SyncUpdate`].
pub const WIRE_VERSION: u8 = 2;

/// Causal trace identifier for one logical operation (an SRO/ERO write, a
/// forwarded read, an EWO sync round).
///
/// Assigned once at NF ingress by the switch that originates the operation
/// and carried in-band through every protocol message that operation
/// spawns, so an observer can stitch the cross-switch phases (punt, CP
/// queueing, retries, chain hops, ack, release) back into one span tree.
/// `0` is reserved for "untraced" ([`TraceId::NONE`]); codecs still round-
/// trip it like any other value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The untraced sentinel. Span emission is a no-op for this id.
    pub const NONE: TraceId = TraceId(0);

    /// Build an id unique across the deployment: originating node in the
    /// top 16 bits (offset by one so node 0 still yields nonzero ids even
    /// for counter 0 — though counters start at 1), counter below.
    pub fn new(origin: NodeId, counter: u64) -> TraceId {
        TraceId(((u64::from(origin.0) + 1) << 48) | (counter & ((1 << 48) - 1)))
    }

    /// True unless this is [`TraceId::NONE`].
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_some() {
            write!(f, "t{:x}", self.0)
        } else {
            f.write_str("t-none")
        }
    }
}

/// Register (array) identifier, unique within a deployment.
pub type RegId = u16;

/// Key (index) within a register array.
pub type Key = u32;

/// A write operation on a register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Overwrite the value. The only operation SRO/ERO chains replicate
    /// (retried writes are then idempotent; see DESIGN.md).
    Set(u64),
    /// Commutative increment, used by EWO counter registers.
    Add(i64),
}

/// A one-byte discriminant, then the eight-byte operand: a tagged union,
/// so a format of its own rather than a field list.
impl Wire for WriteOp {
    const LEN: Option<usize> = Some(1 + 8);
    #[inline]
    fn put(&self, w: &mut Writer) {
        match self {
            WriteOp::Set(v) => {
                w.u8(0);
                w.u64(*v);
            }
            WriteOp::Add(d) => {
                w.u8(1);
                w.i64(*d);
            }
        }
    }

    #[inline(always)]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(WriteOp::Set(r.u64()?)),
            1 => Ok(WriteOp::Add(r.i64()?)),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

/// A replicated-controller command: one decree of the control-plane
/// consensus log (§6.3 extension; *Paxos Made Switch-y* style roles).
///
/// Commands are the unit of state replication across controller
/// replicas: every membership or range-table decision the leader makes
/// is first chosen as a command at a log slot, then applied by every
/// replica in slot order. All variants are fixed width (18 bytes on the
/// wire) so acceptor register cells hold any command in one fixed-size
/// slot, exactly like a PISA register array would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlCmd {
    /// Initial configuration + range-table bootstrap.
    Bootstrap,
    /// `leader` asserts leadership of the replica group (the election
    /// decree; choosing it fences every lower ballot).
    Reassert {
        /// The replica claiming leadership.
        leader: NodeId,
    },
    /// Declare a switch failed and remove it from chain + groups.
    Fail {
        /// The failed switch.
        node: NodeId,
    },
    /// Admit a recovered switch as a learner (snapshot path).
    Admit {
        /// The recovering switch.
        node: NodeId,
    },
    /// Promote a caught-up learner to the chain tail.
    Promote {
        /// The learner to promote.
        node: NodeId,
    },
    /// Migrate the range containing `key` so `to` becomes its primary.
    Move {
        /// Register.
        reg: RegId,
        /// Any key inside the range to move.
        key: Key,
        /// Destination primary.
        to: NodeId,
        /// True when the planner (not an explicit trigger) decided it.
        planned: bool,
    },
    /// Grow the replica group of the range containing `key` by `to`.
    Grow {
        /// Register.
        reg: RegId,
        /// Any key inside the range.
        key: Key,
        /// The joining owner.
        to: NodeId,
    },
    /// Shrink the replica group of the range containing `key`.
    Shrink {
        /// Register.
        reg: RegId,
        /// Any key inside the range.
        key: Key,
        /// The leaving owner.
        node: NodeId,
    },
    /// A migration destination completed a full chunk pass: flip the
    /// range to its commit owners.
    MigDone {
        /// Register.
        reg: RegId,
        /// Range start key.
        start: Key,
        /// The reporting destination.
        node: NodeId,
        /// The per-range epoch the transfer ran under.
        epoch: u32,
        /// The completed pass.
        pass: u32,
    },
    /// Compact the consensus log: every replica snapshots its applied
    /// state at the decree's slot and recycles the register cells of all
    /// slots below `upto`, exactly as a bounded PISA register array
    /// would. Chosen through the log itself, so all replicas compact at
    /// the same boundary.
    Compact {
        /// First slot NOT discarded (the proposer's applied prefix at
        /// proposal time; always at or below the decree's own slot).
        upto: u64,
    },
    /// Add a controller replica to the consensus group (membership rides
    /// the log; a joint-quorum window guards the transition).
    AddReplica {
        /// The joining replica.
        node: NodeId,
    },
    /// Remove a controller replica from the consensus group.
    RemoveReplica {
        /// The leaving replica.
        node: NodeId,
    },
}

wire_struct! {
    /// The one fixed-width cell every [`CtrlCmd`] travels in. A
    /// sub-command uses the fields it needs and leaves the rest zero.
    #[derive(Clone, Copy, PartialEq, Eq)]
    struct CtrlCell {
        sub: u8,
        node: NodeId,
        reg: RegId,
        key: Key,
        epoch: u32,
        pass: u32,
        flag: u8,
    }
}

/// Encoded size of a [`CtrlCmd`]: always fixed width.
pub const CTRL_CMD_LEN: usize = fixed::<CtrlCell>();

impl CtrlCmd {
    fn cell(&self) -> CtrlCell {
        let (sub, node, reg, key, epoch, pass, flag) = match *self {
            CtrlCmd::Bootstrap => (0u8, NodeId(0), 0, 0, 0, 0, 0u8),
            CtrlCmd::Reassert { leader } => (1, leader, 0, 0, 0, 0, 0),
            CtrlCmd::Fail { node } => (2, node, 0, 0, 0, 0, 0),
            CtrlCmd::Admit { node } => (3, node, 0, 0, 0, 0, 0),
            CtrlCmd::Promote { node } => (4, node, 0, 0, 0, 0, 0),
            CtrlCmd::Move {
                reg,
                key,
                to,
                planned,
            } => (5, to, reg, key, 0, 0, planned as u8),
            CtrlCmd::Grow { reg, key, to } => (6, to, reg, key, 0, 0, 0),
            CtrlCmd::Shrink { reg, key, node } => (7, node, reg, key, 0, 0, 0),
            CtrlCmd::MigDone {
                reg,
                start,
                node,
                epoch,
                pass,
            } => (8, node, reg, start, epoch, pass, 0),
            // Slot indices are u64; split across the key/epoch u32 pair.
            CtrlCmd::Compact { upto } => (9, NodeId(0), 0, upto as u32, (upto >> 32) as u32, 0, 0),
            CtrlCmd::AddReplica { node } => (10, node, 0, 0, 0, 0, 0),
            CtrlCmd::RemoveReplica { node } => (11, node, 0, 0, 0, 0, 0),
        };
        CtrlCell {
            sub,
            node,
            reg,
            key,
            epoch,
            pass,
            flag,
        }
    }
}

/// A shared fixed cell whose meaning depends on its first byte: a format
/// of its own rather than a field list.
impl Wire for CtrlCmd {
    const LEN: Option<usize> = CtrlCell::LEN;
    fn put(&self, w: &mut Writer) {
        self.cell().put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let cell = CtrlCell::get(r)?;
        let CtrlCell {
            sub,
            node,
            reg,
            key,
            epoch,
            pass,
            flag,
        } = cell;
        let cmd = match sub {
            0 => CtrlCmd::Bootstrap,
            1 => CtrlCmd::Reassert { leader: node },
            2 => CtrlCmd::Fail { node },
            3 => CtrlCmd::Admit { node },
            4 => CtrlCmd::Promote { node },
            5 => CtrlCmd::Move {
                reg,
                key,
                to: node,
                planned: flag != 0,
            },
            6 => CtrlCmd::Grow { reg, key, to: node },
            7 => CtrlCmd::Shrink { reg, key, node },
            8 => CtrlCmd::MigDone {
                reg,
                start: key,
                node,
                epoch,
                pass,
            },
            9 => CtrlCmd::Compact {
                upto: u64::from(key) | (u64::from(epoch) << 32),
            },
            10 => CtrlCmd::AddReplica { node },
            11 => CtrlCmd::RemoveReplica { node },
            t => return Err(WireError::UnknownTag(t)),
        };
        // Junk in a field the sub-command does not use, or a `flag` that
        // is not 0/1, is a cell `put` never emits.
        if cmd.cell() != cell {
            return Err(WireError::InvalidField {
                field: "ctrl_cmd",
                value: u64::from(sub),
            });
        }
        Ok(cmd)
    }
}

wire_struct! {
    /// A chain-replication write request (§6.1).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct WriteRequest {
        /// Writer-unique id, used by the writer's control plane to match acks
        /// and release the buffered output packet.
        pub write_id: u64,
        /// The switch whose control plane originated the write.
        pub writer: NodeId,
        /// Chain-configuration epoch the writer believes is current.
        pub epoch: u32,
        /// Target register.
        pub reg: RegId,
        /// Target key within the register.
        pub key: Key,
        /// Per-key sequence number. `0` means "not yet sequenced": the head of
        /// the chain assigns the sequence number on first contact.
        pub seq: u64,
        /// The operation.
        pub op: WriteOp,
        /// Causal trace of the logical write this request belongs to
        /// ([`TraceId::NONE`] when tracing is off).
        pub trace: TraceId,
    }

    /// Acknowledgment from the tail of the chain to the writer (§6.1).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct WriteAck {
        /// Echo of [`WriteRequest::write_id`].
        pub write_id: u64,
        /// Echo of the originating writer, used for routing the ack.
        pub writer: NodeId,
        /// Register written.
        pub reg: RegId,
        /// Key written.
        pub key: Key,
        /// Sequence number the head assigned.
        pub seq: u64,
        /// Echo of [`WriteRequest::trace`].
        pub trace: TraceId,
    }

    /// Tail → chain multicast clearing the pending bit for a completed write
    /// (§6.1).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PendingClear {
        /// Chain epoch.
        pub epoch: u32,
        /// Register.
        pub reg: RegId,
        /// Key.
        pub key: Key,
        /// Sequence number of the completed write; a pending bit is only
        /// cleared if no later write has since marked it again.
        pub seq: u64,
    }

    /// One `(key, slot, version, value)` entry of an EWO synchronization
    /// message (§6.2, §7: "one register array for each switch in the replica
    /// group; each register array stores a version number and a value").
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SyncEntry {
        /// Key within the register.
        pub key: Key,
        /// Which replica's slot this entry describes (index into the replica
        /// group). For CRDT counters a switch only ever *originates* entries
        /// for its own slot, but relayed periodic syncs carry all slots.
        pub slot: u8,
        /// Version number (LWW timestamp+tiebreak, or monotonic per-slot
        /// counter for CRDTs).
        pub version: u64,
        /// The value.
        pub value: u64,
    }

    /// An EWO update batch (§6.2).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SyncUpdate {
        /// Register these entries belong to.
        pub reg: RegId,
        /// Switch that sent this batch.
        pub origin: NodeId,
        /// Causal trace of the sync round (or mirror burst) that produced this
        /// batch ([`TraceId::NONE`] when tracing is off).
        pub trace: TraceId,
        /// The entries: inline when there is one, else shared, so
        /// multicast fan-out / mirroring never deep-copies a batch;
        /// receivers must not mutate them in place.
        pub entries: Shared<SyncEntry>,
    }

    /// Controller → control-plane request to stream a snapshot to `target`
    /// (§6.3 recovery).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SnapshotRequest {
        /// The recovering switch to catch up.
        pub target: NodeId,
        /// Epoch of the configuration that includes `target`.
        pub epoch: u32,
    }

    /// One snapshot entry: key, the sequence number at snapshot time, value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SnapEntry {
        /// Key.
        pub key: Key,
        /// Sequence number guarding replay ("writes contain the sequence number
        /// at the time of the snapshot, to prevent overwriting new values with
        /// old ones", §6.3).
        pub seq: u64,
        /// Value at snapshot time.
        pub value: u64,
    }

    /// A chunk of snapshot state streamed through the data plane (§6.3).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SnapshotChunk {
        /// Register this chunk belongs to.
        pub reg: RegId,
        /// Switch streaming the snapshot.
        pub origin: NodeId,
        /// True on the final chunk of the final register.
        pub last: bool,
        /// Entries in this chunk. Shared for the same zero-copy reason as
        /// [`SyncUpdate::entries`].
        pub entries: Shared<SnapEntry>,
    }

    /// Recovering switch → controller: catch-up finished, ready to serve
    /// (§6.3).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CatchupComplete {
        /// The switch that finished catching up.
        pub node: NodeId,
        /// Epoch it caught up under.
        pub epoch: u32,
    }

    /// Controller → all switches: the SRO/ERO chain for the new epoch (§6.3).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ChainConfig {
        /// Monotonically increasing configuration epoch.
        pub epoch: u32,
        /// Chain order, head first, tail last.
        pub chain: Vec<NodeId>,
        /// Switches present in the deployment but not yet part of the chain
        /// (recovering nodes receiving writes but not serving reads).
        pub learners: Vec<NodeId>,
    }

    /// Controller → all switches: EWO multicast replica group membership
    /// (§6.3).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct GroupConfig {
        /// Monotonically increasing configuration epoch.
        pub epoch: u32,
        /// Current members of the replica group.
        pub members: Vec<NodeId>,
    }

    /// Switch control plane → controller liveness beacon.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Heartbeat {
        /// Sending switch.
        pub from: NodeId,
        /// Epoch the sender is operating under.
        pub epoch: u32,
    }

    /// Directory lookup (partitioned-state extension, §7/§9).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DirLookup {
        /// Requesting switch.
        pub from: NodeId,
        /// Register being located.
        pub reg: RegId,
        /// Key being located.
        pub key: Key,
    }

    /// Directory reply: current replica set for a key.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DirReply {
        /// Register.
        pub reg: RegId,
        /// Key.
        pub key: Key,
        /// Switches currently replicating this key.
        pub owners: Vec<NodeId>,
    }

    /// A data packet tunneled to the tail of the chain because its read hit a
    /// register with the pending bit set (§6.1: "the input packet P is
    /// forwarded to the tail of the chain, and processed there").
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ReadForward {
        /// Switch that forwarded the packet.
        pub origin: NodeId,
        /// Causal trace of this redirected read ([`TraceId::NONE`] when
        /// tracing is off).
        pub trace: TraceId,
        /// The original data packet.
        pub inner: DataPacket,
    }

    /// Controller → all switches: a key range of a partitioned register is
    /// migrating from `from` to `to` (reconfiguration engine, §4/§7).
    ///
    /// On receipt every switch records `to` as the range's migration target;
    /// while the target is set, the range's effective write chain is
    /// `owners ++ [to]`, so the destination is the acking tail and every
    /// write acknowledged during the transfer window is already applied
    /// there. The source additionally starts streaming the range's current
    /// state as [`MigrateChunk`]s.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct MigrateBegin {
        /// Register being re-partitioned.
        pub reg: RegId,
        /// First key of the migrating range (inclusive).
        pub start: Key,
        /// One past the last key of the range (exclusive).
        pub end: Key,
        /// Current primary owner streaming the state.
        pub from: NodeId,
        /// Destination switch.
        pub to: NodeId,
        /// Per-range ownership epoch this migration starts; stale (≤
        /// installed) epochs are ignored, making re-broadcasts idempotent.
        pub epoch: u32,
    }

    /// One range-scoped chunk of migrating state (reuses the
    /// [`SnapshotChunk`] framing: seq-guarded entries, zero-copy batch).
    ///
    /// Chunks stream in numbered passes: the source re-sends the whole range
    /// as a fresh `pass` until the commit arrives, and the destination
    /// declares a pass complete only when every `idx` up to the one marked
    /// `last` arrived — so chunk loss delays, never corrupts, the handoff.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct MigrateChunk {
        /// Register.
        pub reg: RegId,
        /// Range start (inclusive).
        pub start: Key,
        /// Range end (exclusive).
        pub end: Key,
        /// The streaming source.
        pub origin: NodeId,
        /// Retransmission pass this chunk belongs to.
        pub pass: u32,
        /// Chunk index within the pass.
        pub idx: u16,
        /// True on the final chunk of the pass.
        pub last: bool,
        /// Entries, seq-guarded exactly like snapshot entries.
        pub entries: Shared<SnapEntry>,
    }

    /// Controller → all switches: atomically flip a range's ownership to
    /// `owners` at `epoch` (the commit step of the migration state machine;
    /// also used alone for membership grow/shrink without a data move).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct OwnershipCommit {
        /// Register.
        pub reg: RegId,
        /// Range start (inclusive).
        pub start: Key,
        /// Range end (exclusive).
        pub end: Key,
        /// New per-range ownership epoch (must exceed the installed one).
        pub epoch: u32,
        /// The range's owner set from this epoch on; `owners[0]` sequences.
        pub owners: Vec<NodeId>,
    }

    /// Migration destination → controller: a full chunk pass for the range
    /// arrived, the destination's copy is complete up to dual-owner writes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct MigrateDone {
        /// Register.
        pub reg: RegId,
        /// Range start (inclusive).
        pub start: Key,
        /// Range end (exclusive).
        pub end: Key,
        /// The reporting destination switch.
        pub node: NodeId,
        /// Echo of [`MigrateBegin::epoch`].
        pub epoch: u32,
        /// The pass that completed.
        pub pass: u32,
    }

    /// One per-range write-load observation inside a [`LoadReport`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct LoadEntry {
        /// Register.
        pub reg: RegId,
        /// Range start key (identifies the range in the directory).
        pub start: Key,
        /// Writes this switch ingressed for the range since the last report.
        pub writes: u64,
    }

    /// Switch control plane → controller: per-range write-load telemetry the
    /// planner feeds into the directory's access counters. Sent alongside
    /// heartbeats, but only when there is something to report.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LoadReport {
        /// Reporting switch.
        pub from: NodeId,
        /// Nonzero load observations.
        pub entries: Vec<LoadEntry>,
    }

    /// Consensus phase-1 request: `from` asks the acceptor to promise ballot
    /// `ballot` and report what it has accepted at `slot`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CtrlPrepare {
        /// Proposing replica.
        pub from: NodeId,
        /// Proposal ballot (`(round << 8) | replica_idx`).
        pub ballot: u64,
        /// The log slot being prepared.
        pub slot: u64,
    }

    /// Consensus phase-1 reply. `granted` is the promise; a refusal carries
    /// the acceptor's log-wide ballot `floor` so the proposer can pick a
    /// higher round. A grant carries the acceptor's accepted (ballot, cmd)
    /// at the slot — if any — and its highest accepted slot overall, which
    /// bounds how far a new leader must walk the log during catch-up.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CtrlPromise {
        /// Replying acceptor.
        pub from: NodeId,
        /// Echo of [`CtrlPrepare::ballot`].
        pub ballot: u64,
        /// Echo of [`CtrlPrepare::slot`].
        pub slot: u64,
        /// True if the promise was granted.
        pub granted: bool,
        /// The acceptor's log-wide promised ballot after this exchange.
        pub floor: u64,
        /// Highest slot the acceptor has accepted any value at (0 = none;
        /// slots are 1-free: the value is `highest + 1` internally).
        pub max_slot: u64,
        /// Ballot of the accepted value at `slot` (0 = nothing accepted).
        pub acc_ballot: u64,
        /// The accepted value at `slot`, if any.
        pub acc: Option<CtrlCmd>,
    }

    /// Consensus phase-2 request: accept `cmd` at `slot` under `ballot`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CtrlAccept {
        /// Proposing replica.
        pub from: NodeId,
        /// Proposal ballot.
        pub ballot: u64,
        /// The log slot.
        pub slot: u64,
        /// The proposed command.
        pub cmd: CtrlCmd,
    }

    /// Consensus phase-2 reply.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CtrlAccepted {
        /// Replying acceptor.
        pub from: NodeId,
        /// Echo of [`CtrlAccept::ballot`].
        pub ballot: u64,
        /// Echo of [`CtrlAccept::slot`].
        pub slot: u64,
        /// True if the value was accepted.
        pub granted: bool,
        /// The acceptor's log-wide promised ballot after this exchange.
        pub floor: u64,
    }

    /// Chosen-value notification: the proposer observed a quorum of accepts
    /// for `cmd` at `slot` and tells every replica to learn it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CtrlLearn {
        /// The notifying replica.
        pub from: NodeId,
        /// The decided slot.
        pub slot: u64,
        /// The chosen command.
        pub cmd: CtrlCmd,
    }

    /// Controller-replica liveness beacon, sent replica ↔ replica. The
    /// leader's beacon suppresses elections; a follower's beacon reports its
    /// contiguously-chosen prefix so the leader can re-send lost `CtrlLearn`s.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CtrlHb {
        /// Sending replica.
        pub from: NodeId,
        /// The sender's current ballot (leader: its leadership ballot).
        pub ballot: u64,
        /// Number of contiguously chosen slots the sender knows.
        pub commit: u64,
        /// True when the sender is the acting leader.
        pub leader: bool,
    }

    /// Leader announcement to the switch control planes: after failover the
    /// switches redirect controller-bound traffic (load reports, migrate
    /// done, catch-up notices) to the new leader. Ballot-guarded so stale
    /// announcements lose.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CtrlLead {
        /// The acting leader replica.
        pub leader: NodeId,
        /// Its leadership ballot.
        pub ballot: u64,
    }

    /// An open migration inside a [`CtrlSnapRange`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CtrlSnapMig {
        /// Source primary.
        pub from: NodeId,
        /// Destination switch.
        pub to: NodeId,
        /// Per-range epoch the transfer opened under.
        pub epoch: u32,
        /// Migration phase code (controller-defined).
        pub phase: u8,
        /// Owner set to install once the destination holds the range.
        pub commit_owners: Vec<NodeId>,
    }

    /// One range of a [`CtrlSnap`]: directory bounds plus per-range epochs
    /// and any open migration — enough to rebuild the master range table.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CtrlSnapRange {
        /// Range start (inclusive).
        pub start: Key,
        /// Range end (exclusive).
        pub end: Key,
        /// Epoch of the last ownership commit.
        pub committed_epoch: u32,
        /// Highest per-range epoch ever issued.
        pub issued_epoch: u32,
        /// Current owner set (`owners[0]` sequences).
        pub owners: Vec<NodeId>,
        /// Open migration, if any.
        pub mig: Option<CtrlSnapMig>,
    }

    /// Range table of one register inside a [`CtrlSnap`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CtrlSnapReg {
        /// Register.
        pub reg: RegId,
        /// Its ranges, in directory order.
        pub ranges: Vec<CtrlSnapRange>,
    }

    /// Controller-state snapshot, replica → replica: the sender's applied
    /// state at log slot `base`. A replica whose committed prefix fell below
    /// the group's compaction boundary installs this wholesale and resumes
    /// from `base` instead of replaying from slot 0 (the compacted decrees
    /// no longer exist anywhere).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CtrlSnap {
        /// Sending replica.
        pub from: NodeId,
        /// First log slot above the snapshot: the receiver resumes here.
        pub base: u64,
        /// Configuration epoch of the captured chain view.
        pub epoch: u32,
        /// Chain membership at the boundary.
        pub chain: Vec<NodeId>,
        /// Learners at the boundary.
        pub learners: Vec<NodeId>,
        /// Consensus group membership at the boundary.
        pub group: Vec<NodeId>,
        /// The leader named by the committed prefix, if any.
        pub leader: Option<NodeId>,
        /// Leader changes committed below `base`.
        pub leader_changes: u64,
        /// Whether the `Bootstrap` decree is applied below `base`.
        pub boot_done: bool,
        /// Per-register range tables (partitioned registers only).
        pub regs: Vec<CtrlSnapReg>,
    }
}

wire_table! {
    /// Every SwiShmem protocol message: `tag Variant(Payload) => class`.
    ///
    /// Messages a switch pipeline handles are small fixed-width field
    /// lists and travel inline; a payload that is control-plane only and
    /// wider than the inline budget (or variable-length) is a `Box<_>` row.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum SwishMsg {
        /// Chain write request.
        0x01 Write(WriteRequest) => SroWrite,
        /// Tail acknowledgment.
        0x02 Ack(WriteAck) => SroControl,
        /// Pending-bit clear.
        0x03 Clear(PendingClear) => SroControl,
        /// EWO update batch.
        0x04 Sync(SyncUpdate) => EwoSync,
        /// Snapshot stream request.
        0x05 SnapReq(SnapshotRequest) => Snapshot,
        /// Snapshot data chunk.
        0x06 SnapChunk(SnapshotChunk) => Snapshot,
        /// Catch-up completion notice.
        0x07 CatchupDone(CatchupComplete) => Snapshot,
        /// Chain configuration.
        0x08 Chain(ChainConfig) => Management,
        /// Replica-group configuration.
        0x09 Group(GroupConfig) => Management,
        /// Liveness beacon.
        0x0a Heartbeat(Heartbeat) => Management,
        /// Directory lookup.
        0x0b DirLookup(DirLookup) => Management,
        /// Directory reply.
        0x0c DirReply(DirReply) => Management,
        /// Tunneled read.
        0x0d ReadForward(ReadForward) => ReadForward,
        // Reconfiguration-engine messages are *additive* tags: WIRE_VERSION
        // stays at 2 because no existing layout changed and deployments
        // without partitioned registers never emit them.
        /// Range migration start.
        0x0e MigrateBegin(MigrateBegin) => Management,
        /// Range migration data chunk.
        0x0f MigrateChunk(MigrateChunk) => Migration,
        /// Range ownership flip.
        0x10 OwnershipCommit(OwnershipCommit) => Management,
        /// Range transfer completion notice.
        0x11 MigrateDone(MigrateDone) => Management,
        /// Per-range write-load telemetry.
        0x12 LoadReport(LoadReport) => Management,
        // Controller-consensus messages are additive tags too: no
        // existing layout changed, so WIRE_VERSION stays 2.
        /// Controller-consensus phase-1 request.
        0x13 CtrlPrepare(CtrlPrepare) => Management,
        /// Controller-consensus phase-1 reply. Boxed: control-plane only and
        /// wider than any data-plane message (72 B against ≤ 56 B).
        0x14 CtrlPromise(Box<CtrlPromise>) => Management,
        /// Controller-consensus phase-2 request.
        0x15 CtrlAccept(CtrlAccept) => Management,
        /// Controller-consensus phase-2 reply.
        0x16 CtrlAccepted(CtrlAccepted) => Management,
        /// Controller-consensus chosen-value notification.
        0x17 CtrlLearn(CtrlLearn) => Management,
        /// Controller-replica liveness beacon.
        0x18 CtrlHb(CtrlHb) => Management,
        /// Leader announcement to switches.
        0x19 CtrlLead(CtrlLead) => Management,
        /// Controller-state snapshot for lagging-replica catch-up. Boxed:
        /// control-plane only and variable-length (four inline `Vec`s).
        0x1a CtrlSnap(Box<CtrlSnap>) => Management,
    }
}

// The fixed lengths the rest of the repo sizes things by (EWO sync
// batching, snapshot chunking, acceptor register cells, the chain-write
// frame), pinned against the field lists they are derived from.
const SYNC_ENTRY_LEN: usize = fixed::<SyncEntry>();
const SNAP_ENTRY_LEN: usize = fixed::<SnapEntry>();
const _: () = assert!(
    SYNC_ENTRY_LEN == 21
        && SNAP_ENTRY_LEN == 20
        && CTRL_CMD_LEN == 18
        && fixed::<WriteRequest>() == 45
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l4::TcpFlags;
    use crate::{Packet, PacketBody};
    use std::net::Ipv4Addr;

    fn samples() -> Vec<SwishMsg> {
        vec![
            SwishMsg::Write(WriteRequest {
                write_id: 42,
                writer: NodeId(1),
                epoch: 7,
                reg: 3,
                key: 1000,
                seq: 0,
                op: WriteOp::Set(0xdead),
                trace: TraceId::new(NodeId(1), 9),
            }),
            SwishMsg::Write(WriteRequest {
                write_id: 43,
                writer: NodeId(2),
                epoch: 7,
                reg: 3,
                key: 1001,
                seq: 12,
                op: WriteOp::Add(-5),
                trace: TraceId::NONE,
            }),
            SwishMsg::Ack(WriteAck {
                write_id: 42,
                writer: NodeId(1),
                reg: 3,
                key: 1000,
                seq: 5,
                trace: TraceId::new(NodeId(1), 9),
            }),
            SwishMsg::Clear(PendingClear {
                epoch: 7,
                reg: 3,
                key: 1000,
                seq: 5,
            }),
            SwishMsg::Sync(SyncUpdate {
                reg: 9,
                origin: NodeId(4),
                trace: TraceId::new(NodeId(4), 1),
                entries: vec![
                    SyncEntry {
                        key: 0,
                        slot: 4,
                        version: 11,
                        value: 22,
                    },
                    SyncEntry {
                        key: 5,
                        slot: 4,
                        version: 12,
                        value: 23,
                    },
                ]
                .into(),
            }),
            SwishMsg::SnapReq(SnapshotRequest {
                target: NodeId(6),
                epoch: 9,
            }),
            SwishMsg::SnapChunk(SnapshotChunk {
                reg: 1,
                origin: NodeId(0),
                entries: vec![SnapEntry {
                    key: 3,
                    seq: 17,
                    value: 99,
                }]
                .into(),
                last: true,
            }),
            SwishMsg::CatchupDone(CatchupComplete {
                node: NodeId(6),
                epoch: 9,
            }),
            SwishMsg::Chain(ChainConfig {
                epoch: 9,
                chain: vec![NodeId(0), NodeId(1), NodeId(2)],
                learners: vec![NodeId(6)],
            }),
            SwishMsg::Group(GroupConfig {
                epoch: 9,
                members: vec![NodeId(0), NodeId(2)],
            }),
            SwishMsg::Heartbeat(Heartbeat {
                from: NodeId(2),
                epoch: 9,
            }),
            SwishMsg::DirLookup(DirLookup {
                from: NodeId(1),
                reg: 2,
                key: 77,
            }),
            SwishMsg::DirReply(DirReply {
                reg: 2,
                key: 77,
                owners: vec![NodeId(0), NodeId(3)],
            }),
            SwishMsg::ReadForward(ReadForward {
                origin: NodeId(5),
                trace: TraceId::new(NodeId(5), 2),
                inner: DataPacket::tcp(
                    crate::FlowKey::tcp(
                        Ipv4Addr::new(10, 0, 0, 1),
                        1234,
                        Ipv4Addr::new(10, 0, 0, 2),
                        80,
                    ),
                    TcpFlags::syn(),
                    0,
                    100,
                ),
            }),
            SwishMsg::ReadForward(ReadForward {
                origin: NodeId(5),
                trace: TraceId::NONE,
                inner: DataPacket::udp(
                    crate::FlowKey::udp(
                        Ipv4Addr::new(10, 0, 1, 1),
                        5000,
                        Ipv4Addr::new(10, 0, 1, 2),
                        53,
                    ),
                    0,
                    40,
                ),
            }),
            SwishMsg::MigrateBegin(MigrateBegin {
                reg: 2,
                start: 16,
                end: 32,
                from: NodeId(0),
                to: NodeId(2),
                epoch: 3,
            }),
            SwishMsg::MigrateChunk(MigrateChunk {
                reg: 2,
                start: 16,
                end: 32,
                origin: NodeId(0),
                pass: 1,
                idx: 4,
                last: true,
                entries: vec![
                    SnapEntry {
                        key: 16,
                        seq: 8,
                        value: 77,
                    },
                    SnapEntry {
                        key: 17,
                        seq: 0,
                        value: 0,
                    },
                ]
                .into(),
            }),
            SwishMsg::OwnershipCommit(OwnershipCommit {
                reg: 2,
                start: 16,
                end: 32,
                epoch: 4,
                owners: vec![NodeId(2), NodeId(1)],
            }),
            SwishMsg::MigrateDone(MigrateDone {
                reg: 2,
                start: 16,
                end: 32,
                node: NodeId(2),
                epoch: 3,
                pass: 1,
            }),
            SwishMsg::LoadReport(LoadReport {
                from: NodeId(1),
                entries: vec![
                    LoadEntry {
                        reg: 2,
                        start: 16,
                        writes: 120,
                    },
                    LoadEntry {
                        reg: 2,
                        start: 0,
                        writes: 3,
                    },
                ],
            }),
            SwishMsg::CtrlPrepare(CtrlPrepare {
                from: NodeId(u16::MAX - 1),
                ballot: (3 << 8) | 1,
                slot: 7,
            }),
            SwishMsg::CtrlPromise(Box::new(CtrlPromise {
                from: NodeId(u16::MAX),
                ballot: (3 << 8) | 1,
                slot: 7,
                granted: true,
                floor: (3 << 8) | 1,
                max_slot: 9,
                acc_ballot: (2 << 8),
                acc: Some(CtrlCmd::Fail { node: NodeId(4) }),
            })),
            SwishMsg::CtrlPromise(Box::new(CtrlPromise {
                from: NodeId(u16::MAX - 2),
                ballot: (3 << 8) | 1,
                slot: 7,
                granted: false,
                floor: (5 << 8) | 2,
                max_slot: 0,
                acc_ballot: 0,
                acc: None,
            })),
            SwishMsg::CtrlAccept(CtrlAccept {
                from: NodeId(u16::MAX - 1),
                ballot: (3 << 8) | 1,
                slot: 7,
                cmd: CtrlCmd::Move {
                    reg: 2,
                    key: 16,
                    to: NodeId(3),
                    planned: true,
                },
            }),
            SwishMsg::CtrlAccepted(CtrlAccepted {
                from: NodeId(u16::MAX),
                ballot: (3 << 8) | 1,
                slot: 7,
                granted: true,
                floor: (3 << 8) | 1,
            }),
            SwishMsg::CtrlLearn(CtrlLearn {
                from: NodeId(u16::MAX - 1),
                slot: 7,
                cmd: CtrlCmd::MigDone {
                    reg: 2,
                    start: 16,
                    node: NodeId(3),
                    epoch: 4,
                    pass: 2,
                },
            }),
            SwishMsg::CtrlHb(CtrlHb {
                from: NodeId(u16::MAX - 1),
                ballot: (3 << 8) | 1,
                commit: 8,
                leader: true,
            }),
            SwishMsg::CtrlLead(CtrlLead {
                leader: NodeId(u16::MAX - 1),
                ballot: (3 << 8) | 1,
            }),
            SwishMsg::CtrlLearn(CtrlLearn {
                from: NodeId(u16::MAX - 1),
                slot: 260,
                cmd: CtrlCmd::Compact { upto: 256 },
            }),
            SwishMsg::CtrlSnap(Box::new(CtrlSnap {
                from: NodeId(u16::MAX - 1),
                base: (1 << 32) | 17,
                epoch: 5,
                chain: vec![NodeId(0), NodeId(1), NodeId(2)],
                learners: vec![NodeId(3)],
                group: vec![NodeId(u16::MAX), NodeId(u16::MAX - 1), NodeId(u16::MAX - 3)],
                leader: Some(NodeId(u16::MAX - 1)),
                leader_changes: 2,
                boot_done: true,
                regs: vec![CtrlSnapReg {
                    reg: 2,
                    ranges: vec![
                        CtrlSnapRange {
                            start: 0,
                            end: 32,
                            committed_epoch: 3,
                            issued_epoch: 4,
                            owners: vec![NodeId(0), NodeId(1)],
                            mig: Some(CtrlSnapMig {
                                from: NodeId(0),
                                to: NodeId(2),
                                epoch: 4,
                                phase: 1,
                                commit_owners: vec![NodeId(2), NodeId(1)],
                            }),
                        },
                        CtrlSnapRange {
                            start: 32,
                            end: 64,
                            committed_epoch: 1,
                            issued_epoch: 1,
                            owners: vec![NodeId(1)],
                            mig: None,
                        },
                    ],
                }],
            })),
            SwishMsg::CtrlSnap(Box::new(CtrlSnap {
                from: NodeId(u16::MAX),
                base: 0,
                epoch: 0,
                chain: vec![],
                learners: vec![],
                group: vec![],
                leader: None,
                leader_changes: 0,
                boot_done: false,
                regs: vec![],
            })),
            SwishMsg::CtrlAccept(CtrlAccept {
                from: NodeId(u16::MAX),
                ballot: (1 << 8) | 2,
                slot: 3,
                cmd: CtrlCmd::Bootstrap,
            }),
            SwishMsg::Sync(SyncUpdate {
                reg: 1,
                origin: NodeId(0),
                trace: TraceId::NONE,
                entries: vec![SyncEntry {
                    key: 1,
                    slot: 0,
                    version: 1,
                    value: 1,
                }]
                .into(),
            }),
        ]
    }

    fn encoded(msg: &SwishMsg) -> Vec<u8> {
        let mut w = Writer::new();
        msg.encode(&mut w);
        w.finish()
    }

    /// Decode `bytes` as one whole message: nothing may trail it.
    fn decode_all(bytes: &[u8]) -> Result<SwishMsg, WireError> {
        let mut r = Reader::new(bytes);
        let msg = SwishMsg::decode(&mut r)?;
        r.expect_end()?;
        Ok(msg)
    }

    #[test]
    fn table_rows_are_dense_and_every_row_has_a_sample() {
        let rows = SwishMsg::ROWS;
        assert_eq!(rows.len(), 0x1a);
        for (i, (tag, name)) in rows.iter().enumerate() {
            assert_eq!(usize::from(*tag), i + 1, "{name}: tags are 0x01.., dense");
        }
        let mut sampled = vec![false; rows.len()];
        for msg in samples() {
            let tag = encoded(&msg)[1];
            let (_, name) = rows[usize::from(tag) - 1];
            assert!(
                format!("{msg:?}").starts_with(&format!("{name}(")),
                "{msg:?}"
            );
            sampled[usize::from(tag) - 1] = true;
        }
        for ((tag, name), sampled) in rows.iter().zip(sampled) {
            assert!(sampled, "row {tag:#04x} {name} has no message in samples()");
        }
    }

    /// Corpus mutation over every row of the table: whatever `decode`
    /// accepts is, byte for byte, something `encode` emits.
    #[test]
    fn decode_accepts_only_what_encode_emits() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand_byte = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 32) as u8
        };
        for msg in samples() {
            let good = encoded(&msg);
            assert_eq!(decode_all(&good).as_ref(), Ok(&msg));
            for at in 0..good.len() {
                for v in [0x00, 0x01, 0x02, 0xff, rand_byte(), rand_byte()] {
                    let mut bad = good.clone();
                    bad[at] = v;
                    let Ok(back) = decode_all(&bad) else {
                        continue;
                    };
                    let again = encoded(&back);
                    assert_eq!(again, bad, "byte {at} of {msg:?} decoded to {back:?}");
                }
            }
            for n in 0..good.len() {
                let got = decode_all(&good[..n]);
                assert!(got.is_err(), "{n}-byte prefix of {msg:?} decoded: {got:?}");
            }
            let mut long = good;
            long.push(0);
            assert!(
                matches!(decode_all(&long), Err(WireError::LengthMismatch { .. })),
                "trailing byte accepted after {msg:?}"
            );
        }
    }

    #[test]
    fn ctrl_cmd_round_trips_every_variant() {
        let cmds = [
            CtrlCmd::Bootstrap,
            CtrlCmd::Reassert {
                leader: NodeId(u16::MAX),
            },
            CtrlCmd::Fail { node: NodeId(1) },
            CtrlCmd::Admit { node: NodeId(2) },
            CtrlCmd::Promote { node: NodeId(2) },
            CtrlCmd::Move {
                reg: 1,
                key: 32,
                to: NodeId(3),
                planned: false,
            },
            CtrlCmd::Grow {
                reg: 1,
                key: 32,
                to: NodeId(3),
            },
            CtrlCmd::Shrink {
                reg: 1,
                key: 32,
                node: NodeId(0),
            },
            CtrlCmd::MigDone {
                reg: 1,
                start: 32,
                node: NodeId(3),
                epoch: 9,
                pass: 1,
            },
            CtrlCmd::Compact {
                upto: (7 << 32) | 42,
            },
            CtrlCmd::AddReplica {
                node: NodeId(u16::MAX - 3),
            },
            CtrlCmd::RemoveReplica {
                node: NodeId(u16::MAX - 1),
            },
        ];
        for cmd in cmds {
            let mut w = Writer::new();
            cmd.put(&mut w);
            let buf = w.finish();
            assert_eq!(buf.len(), CTRL_CMD_LEN, "fixed width for {cmd:?}");
            let mut r = Reader::new(&buf);
            assert_eq!(CtrlCmd::get(&mut r).unwrap(), cmd);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn round_trip_all_variants() {
        for msg in samples() {
            let mut w = Writer::new();
            msg.encode(&mut w);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            let back = SwishMsg::decode(&mut r).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            r.expect_end().unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn boxed_variants_keep_their_encoding() {
        // Boxing is an in-memory layout choice only: the bytes below are
        // written out from the field layout, not produced by `encode`.
        let samples = samples();
        let refusal = samples
            .iter()
            .find(|m| matches!(m, SwishMsg::CtrlPromise(p) if !p.granted))
            .unwrap();
        let mut want = vec![WIRE_VERSION, 0x14, 0xff, 0xfd];
        want.extend_from_slice(&0x0301u64.to_be_bytes()); // ballot
        want.extend_from_slice(&7u64.to_be_bytes()); // slot
        want.push(0); // granted
        want.extend_from_slice(&0x0502u64.to_be_bytes()); // floor
        want.extend_from_slice(&[0; 16]); // max_slot, acc_ballot
        want.push(0); // no accepted value
        let mut w = Writer::new();
        refusal.encode(&mut w);
        assert_eq!(w.as_slice(), &want[..]);

        let empty_snap = samples
            .iter()
            .find(|m| matches!(m, SwishMsg::CtrlSnap(s) if s.regs.is_empty()))
            .unwrap();
        let mut want = vec![WIRE_VERSION, 0x1a, 0xff, 0xff];
        want.extend_from_slice(&[0; 8 + 4]); // base, epoch
        want.extend_from_slice(&[0; 2 + 2 + 2]); // chain, learners, group
        want.push(0); // no leader
        want.extend_from_slice(&[0; 8 + 1 + 2]); // leader_changes, boot_done, regs
        let mut w = Writer::new();
        empty_snap.encode(&mut w);
        assert_eq!(w.as_slice(), &want[..]);
    }

    #[test]
    fn wire_len_matches_encoding() {
        for msg in samples() {
            let mut w = Writer::new();
            msg.encode(&mut w);
            assert_eq!(w.len(), msg.wire_len(), "wire_len mismatch for {msg:?}");
        }
    }

    /// Every sample as a full frame, plus one TCP and one UDP data frame.
    fn sample_frames() -> Vec<Packet> {
        let tcp = crate::FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            4000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        let udp = crate::FlowKey::udp(
            Ipv4Addr::new(10, 0, 1, 1),
            5000,
            Ipv4Addr::new(10, 0, 1, 2),
            53,
        );
        let body = samples().into_iter().map(PacketBody::Swish);
        body.chain([
            PacketBody::Data(DataPacket::tcp(tcp, TcpFlags::fin(), 7, 120)),
            PacketBody::Data(DataPacket::udp(udp, 0, 40)),
        ])
        .map(|body| Packet {
            src: NodeId(1),
            dst: NodeId::CONTROLLER,
            body,
        })
        .collect()
    }

    #[test]
    fn one_writer_reused_across_frames_matches_to_bytes() {
        // Longest first, so every later frame is written over stale bytes
        // of a longer one: a `clear` that kept old content, or an encode
        // that assumed a fresh buffer, would show.
        let mut frames = sample_frames();
        frames.sort_by_key(|f| std::cmp::Reverse(f.wire_len()));
        let mut w = Writer::new();
        for f in &frames {
            w.clear();
            w.reserve(f.wire_len());
            f.encode(&mut w);
            assert_eq!(w.len(), f.wire_len(), "{f:?}");
            assert_eq!(w.as_slice(), &f.to_bytes()[..], "{f:?}");
        }
    }

    #[test]
    fn every_strict_prefix_and_every_extension_is_a_typed_error() {
        for f in sample_frames() {
            let mut bytes = f.to_bytes();
            assert_eq!(Packet::from_bytes(&bytes).as_ref(), Ok(&f));
            for n in 0..bytes.len() {
                let got = Packet::from_bytes(&bytes[..n]);
                assert!(got.is_err(), "{n}-byte prefix of {f:?} decoded: {got:?}");
            }
            bytes.push(0);
            assert!(
                matches!(
                    Packet::from_bytes(&bytes),
                    Err(WireError::LengthMismatch { .. })
                ),
                "trailing byte accepted after {f:?}"
            );
        }
    }

    #[test]
    fn entry_batches_round_trip_at_0_1_and_4096_entries() {
        for n in [0u32, 1, 4096] {
            let sync = |key| SyncEntry {
                key,
                slot: (key % 7) as u8,
                version: u64::from(key) << 33 | 5,
                value: !u64::from(key),
            };
            let snap = |key| SnapEntry {
                key,
                seq: u64::from(key) << 40 | 9,
                value: u64::MAX - u64::from(key),
            };
            let msgs = [
                SwishMsg::Sync(SyncUpdate {
                    reg: 9,
                    origin: NodeId(4),
                    trace: TraceId::new(NodeId(4), 1),
                    entries: (0..n).map(sync).collect(),
                }),
                SwishMsg::SnapChunk(SnapshotChunk {
                    reg: 1,
                    origin: NodeId(0),
                    entries: (0..n).map(snap).collect(),
                    last: n == 1,
                }),
                SwishMsg::MigrateChunk(MigrateChunk {
                    reg: 2,
                    start: 16,
                    end: 16 + n,
                    origin: NodeId(0),
                    pass: 3,
                    idx: 4,
                    last: n != 1,
                    entries: (0..n).map(snap).collect(),
                }),
            ];
            for msg in msgs {
                let p = Packet::swish(NodeId(0), NodeId(1), msg);
                let bytes = p.to_bytes();
                assert_eq!(bytes.len(), p.wire_len());
                assert_eq!(Packet::from_bytes(&bytes).unwrap(), p, "{n} entries");
            }
        }
    }

    #[test]
    fn rejects_bad_version() {
        let mut w = Writer::new();
        SwishMsg::Heartbeat(Heartbeat {
            from: NodeId(0),
            epoch: 0,
        })
        .encode(&mut w);
        let mut buf = w.finish().to_vec();
        buf[0] = 99;
        let mut r = Reader::new(&buf);
        assert!(matches!(
            SwishMsg::decode(&mut r),
            Err(WireError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_unknown_tag() {
        let buf = [WIRE_VERSION, 0xee];
        let mut r = Reader::new(&buf);
        assert!(matches!(
            SwishMsg::decode(&mut r),
            Err(WireError::UnknownTag(0xee))
        ));
    }
}
