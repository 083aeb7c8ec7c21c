//! SwiShmem replication-protocol messages (§6 of the paper).
//!
//! Message inventory:
//!
//! * **SRO / ERO (chain replication, §6.1)** — [`WriteRequest`] (writer →
//!   head, head → successor, ...), [`WriteAck`] (tail → writer's control
//!   plane), [`PendingClear`] (tail → chain multicast, clears pending bits),
//!   [`ReadForward`] (a data packet tunneled to the tail when its read hit a
//!   pending register).
//! * **EWO (§6.2)** — [`SyncUpdate`]: a batch of `(key, slot, version,
//!   value)` entries, sent both eagerly after a local write (egress
//!   mirroring + multicast) and by the periodic packet-generator sync task.
//! * **Failure handling (§6.3)** — [`Heartbeat`], [`ChainConfig`],
//!   [`GroupConfig`], [`SnapshotRequest`]/[`SnapshotChunk`]/
//!   [`CatchupComplete`] for new-replica recovery.
//! * **Directory extension (§7/§9)** — [`DirLookup`]/[`DirReply`] for the
//!   partitioned-state directory service.
//!
//! All messages are versioned with [`WIRE_VERSION`] and carry a one-byte
//! tag; codecs are strict (trailing bytes rejected by the packet layer).

use crate::cursor::{Reader, Writer};
use crate::packet::DataPacket;
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

impl WriteOp {
    fn encode(&self, w: &mut Writer) {
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

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(WriteOp::Set(r.u64()?)),
            1 => Ok(WriteOp::Add(r.i64()?)),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

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
    /// The entries. Shared so multicast fan-out / mirroring clone by
    /// reference-count bump; receivers must not mutate them in place.
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
    /// Entries in this chunk. Shared for the same zero-copy reason as
    /// [`SyncUpdate::entries`].
    pub entries: Shared<SnapEntry>,
    /// True on the final chunk of the final register.
    pub last: bool,
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

/// Encoded size of a [`CtrlCmd`]: always fixed width.
pub const CTRL_CMD_LEN: usize = 18;

impl CtrlCmd {
    fn encode(&self, w: &mut Writer) {
        // Fixed layout: [sub:1][node:2][reg:2][key:4][epoch:4][pass:4][flag:1]
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
        w.u8(sub);
        encode_node(w, node);
        w.u16(reg);
        w.u32(key);
        w.u32(epoch);
        w.u32(pass);
        w.u8(flag);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let sub = r.u8()?;
        let node = decode_node(r)?;
        let reg = r.u16()?;
        let key = r.u32()?;
        let epoch = r.u32()?;
        let pass = r.u32()?;
        let flag = r.u8()?;
        Ok(match sub {
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
        })
    }
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

impl CtrlSnap {
    /// Encoded length after the version and tag bytes. Out of line: the
    /// only [`SwishMsg::wire_len`] arm that walks nested vectors, kept
    /// out of the inlined match the per-packet paths pay for.
    fn body_len(&self) -> usize {
        let nodes = |v: &[NodeId]| 2 + v.len() * 2;
        let ranges: usize = self
            .regs
            .iter()
            .map(|rg| {
                2 + 2
                    + rg.ranges
                        .iter()
                        .map(|r| {
                            16 + nodes(&r.owners)
                                + 1
                                + r.mig
                                    .as_ref()
                                    .map(|g| 2 + 2 + 4 + 1 + nodes(&g.commit_owners))
                                    .unwrap_or(0)
                        })
                        .sum::<usize>()
            })
            .sum();
        2 + 8
            + 4
            + nodes(&self.chain)
            + nodes(&self.learners)
            + nodes(&self.group)
            + 1
            + if self.leader.is_some() { 2 } else { 0 }
            + 8
            + 1
            + 2
            + ranges
    }
}

/// Every SwiShmem protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwishMsg {
    /// Chain write request.
    Write(WriteRequest),
    /// Tail acknowledgment.
    Ack(WriteAck),
    /// Pending-bit clear.
    Clear(PendingClear),
    /// EWO update batch.
    Sync(SyncUpdate),
    /// Snapshot stream request.
    SnapReq(SnapshotRequest),
    /// Snapshot data chunk.
    SnapChunk(SnapshotChunk),
    /// Catch-up completion notice.
    CatchupDone(CatchupComplete),
    /// Chain configuration.
    Chain(ChainConfig),
    /// Replica-group configuration.
    Group(GroupConfig),
    /// Liveness beacon.
    Heartbeat(Heartbeat),
    /// Directory lookup.
    DirLookup(DirLookup),
    /// Directory reply.
    DirReply(DirReply),
    /// Tunneled read.
    ReadForward(ReadForward),
    /// Range migration start.
    MigrateBegin(MigrateBegin),
    /// Range migration data chunk.
    MigrateChunk(MigrateChunk),
    /// Range ownership flip.
    OwnershipCommit(OwnershipCommit),
    /// Range transfer completion notice.
    MigrateDone(MigrateDone),
    /// Per-range write-load telemetry.
    LoadReport(LoadReport),
    /// Controller-consensus phase-1 request.
    CtrlPrepare(CtrlPrepare),
    /// Controller-consensus phase-1 reply. Boxed: control-plane only and
    /// wider than any data-plane message (72 B against ≤ 56 B).
    CtrlPromise(Box<CtrlPromise>),
    /// Controller-consensus phase-2 request.
    CtrlAccept(CtrlAccept),
    /// Controller-consensus phase-2 reply.
    CtrlAccepted(CtrlAccepted),
    /// Controller-consensus chosen-value notification.
    CtrlLearn(CtrlLearn),
    /// Controller-replica liveness beacon.
    CtrlHb(CtrlHb),
    /// Leader announcement to switches.
    CtrlLead(CtrlLead),
    /// Controller-state snapshot for lagging-replica catch-up. Boxed:
    /// control-plane only and variable-length (four inline `Vec`s).
    CtrlSnap(Box<CtrlSnap>),
}

// Size budget. Every event, effect, slab slot and recorder entry moves a
// `SwishMsg` by value, so the widest variant is paid by every data-plane
// packet. Messages a switch pipeline handles are small fixed-width field
// lists and fit inline; a variant that would not — control-plane only,
// variable-length — is boxed instead of raising this number.
const _: () = assert!(
    std::mem::size_of::<SwishMsg>() <= 64,
    "SwishMsg outgrew its 64-byte budget: box the new CP-only variant"
);

const TAG_WRITE: u8 = 0x01;
const TAG_ACK: u8 = 0x02;
const TAG_CLEAR: u8 = 0x03;
const TAG_SYNC: u8 = 0x04;
const TAG_SNAP_REQ: u8 = 0x05;
const TAG_SNAP_CHUNK: u8 = 0x06;
const TAG_CATCHUP: u8 = 0x07;
const TAG_CHAIN: u8 = 0x08;
const TAG_GROUP: u8 = 0x09;
const TAG_HEARTBEAT: u8 = 0x0a;
const TAG_DIR_LOOKUP: u8 = 0x0b;
const TAG_DIR_REPLY: u8 = 0x0c;
const TAG_READ_FWD: u8 = 0x0d;
// Reconfiguration-engine messages are *additive* tags: WIRE_VERSION stays
// at 2 because no existing layout changed and deployments without
// partitioned registers never emit them.
const TAG_MIG_BEGIN: u8 = 0x0e;
const TAG_MIG_CHUNK: u8 = 0x0f;
const TAG_OWN_COMMIT: u8 = 0x10;
const TAG_MIG_DONE: u8 = 0x11;
const TAG_LOAD_REPORT: u8 = 0x12;
// Replicated-control-plane messages are additive tags too: deployments
// with a singleton controller never emit them, so WIRE_VERSION stays 2.
const TAG_CTRL_PREPARE: u8 = 0x13;
const TAG_CTRL_PROMISE: u8 = 0x14;
const TAG_CTRL_ACCEPT: u8 = 0x15;
const TAG_CTRL_ACCEPTED: u8 = 0x16;
const TAG_CTRL_LEARN: u8 = 0x17;
const TAG_CTRL_HB: u8 = 0x18;
const TAG_CTRL_LEAD: u8 = 0x19;
const TAG_CTRL_SNAP: u8 = 0x1a;

fn encode_node(w: &mut Writer, n: NodeId) {
    w.u16(n.0);
}

fn decode_node(r: &mut Reader<'_>) -> Result<NodeId, WireError> {
    Ok(NodeId(r.u16()?))
}

fn encode_nodes(w: &mut Writer, ns: &[NodeId]) {
    w.u16(ns.len() as u16);
    for n in ns {
        encode_node(w, *n);
    }
}

fn decode_nodes(r: &mut Reader<'_>) -> Result<Vec<NodeId>, WireError> {
    let n = r.u16()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(decode_node(r)?);
    }
    Ok(out)
}

/// Encoded size of one [`SyncEntry`].
const SYNC_ENTRY_LEN: usize = 4 + 1 + 8 + 8;

/// Encoded size of one [`SnapEntry`].
const SNAP_ENTRY_LEN: usize = 4 + 8 + 8;

/// The `W` bytes at offset `at` of a fixed-size entry.
#[inline]
fn field<const W: usize>(entry: &[u8], at: usize) -> [u8; W] {
    *entry[at..]
        .first_chunk()
        .expect("a field of a fixed-size entry lies inside it")
}

fn sync_entry(b: &[u8; SYNC_ENTRY_LEN]) -> SyncEntry {
    SyncEntry {
        key: u32::from_be_bytes(field(b, 0)),
        slot: b[4],
        version: u64::from_be_bytes(field(b, 5)),
        value: u64::from_be_bytes(field(b, 13)),
    }
}

fn snap_entry(b: &[u8; SNAP_ENTRY_LEN]) -> SnapEntry {
    SnapEntry {
        key: u32::from_be_bytes(field(b, 0)),
        seq: u64::from_be_bytes(field(b, 4)),
        value: u64::from_be_bytes(field(b, 12)),
    }
}

/// Decode a `u16`-counted batch of `N`-byte entries straight into the
/// shared slice. The claimed count is checked against the buffer before
/// anything is allocated, and the slice iterator has a trusted length, so
/// the `Shared` is the one allocation.
fn decode_entries<T, const N: usize>(
    r: &mut Reader<'_>,
    entry: impl Fn(&[u8; N]) -> T,
) -> Result<Shared<T>, WireError> {
    let n = r.u16()? as usize;
    let (entries, _) = r.bytes(n * N)?.as_chunks::<N>();
    Ok(entries.iter().map(entry).collect())
}

impl SwishMsg {
    /// Append the versioned message to `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.u8(WIRE_VERSION);
        match self {
            SwishMsg::Write(m) => {
                w.u8(TAG_WRITE);
                w.u64(m.write_id);
                encode_node(w, m.writer);
                w.u32(m.epoch);
                w.u16(m.reg);
                w.u32(m.key);
                w.u64(m.seq);
                m.op.encode(w);
                w.u64(m.trace.0);
            }
            SwishMsg::Ack(m) => {
                w.u8(TAG_ACK);
                w.u64(m.write_id);
                encode_node(w, m.writer);
                w.u16(m.reg);
                w.u32(m.key);
                w.u64(m.seq);
                w.u64(m.trace.0);
            }
            SwishMsg::Clear(m) => {
                w.u8(TAG_CLEAR);
                w.u32(m.epoch);
                w.u16(m.reg);
                w.u32(m.key);
                w.u64(m.seq);
            }
            SwishMsg::Sync(m) => {
                w.u8(TAG_SYNC);
                w.u16(m.reg);
                encode_node(w, m.origin);
                w.u64(m.trace.0);
                w.u16(m.entries.len() as u16);
                for e in &m.entries {
                    w.u32(e.key);
                    w.u8(e.slot);
                    w.u64(e.version);
                    w.u64(e.value);
                }
            }
            SwishMsg::SnapReq(m) => {
                w.u8(TAG_SNAP_REQ);
                encode_node(w, m.target);
                w.u32(m.epoch);
            }
            SwishMsg::SnapChunk(m) => {
                w.u8(TAG_SNAP_CHUNK);
                w.u16(m.reg);
                encode_node(w, m.origin);
                w.u8(m.last as u8);
                w.u16(m.entries.len() as u16);
                for e in &m.entries {
                    w.u32(e.key);
                    w.u64(e.seq);
                    w.u64(e.value);
                }
            }
            SwishMsg::CatchupDone(m) => {
                w.u8(TAG_CATCHUP);
                encode_node(w, m.node);
                w.u32(m.epoch);
            }
            SwishMsg::Chain(m) => {
                w.u8(TAG_CHAIN);
                w.u32(m.epoch);
                encode_nodes(w, &m.chain);
                encode_nodes(w, &m.learners);
            }
            SwishMsg::Group(m) => {
                w.u8(TAG_GROUP);
                w.u32(m.epoch);
                encode_nodes(w, &m.members);
            }
            SwishMsg::Heartbeat(m) => {
                w.u8(TAG_HEARTBEAT);
                encode_node(w, m.from);
                w.u32(m.epoch);
            }
            SwishMsg::DirLookup(m) => {
                w.u8(TAG_DIR_LOOKUP);
                encode_node(w, m.from);
                w.u16(m.reg);
                w.u32(m.key);
            }
            SwishMsg::DirReply(m) => {
                w.u8(TAG_DIR_REPLY);
                w.u16(m.reg);
                w.u32(m.key);
                encode_nodes(w, &m.owners);
            }
            SwishMsg::ReadForward(m) => {
                w.u8(TAG_READ_FWD);
                encode_node(w, m.origin);
                w.u64(m.trace.0);
                m.inner.encode(w);
            }
            SwishMsg::MigrateBegin(m) => {
                w.u8(TAG_MIG_BEGIN);
                w.u16(m.reg);
                w.u32(m.start);
                w.u32(m.end);
                encode_node(w, m.from);
                encode_node(w, m.to);
                w.u32(m.epoch);
            }
            SwishMsg::MigrateChunk(m) => {
                w.u8(TAG_MIG_CHUNK);
                w.u16(m.reg);
                w.u32(m.start);
                w.u32(m.end);
                encode_node(w, m.origin);
                w.u32(m.pass);
                w.u16(m.idx);
                w.u8(m.last as u8);
                w.u16(m.entries.len() as u16);
                for e in &m.entries {
                    w.u32(e.key);
                    w.u64(e.seq);
                    w.u64(e.value);
                }
            }
            SwishMsg::OwnershipCommit(m) => {
                w.u8(TAG_OWN_COMMIT);
                w.u16(m.reg);
                w.u32(m.start);
                w.u32(m.end);
                w.u32(m.epoch);
                encode_nodes(w, &m.owners);
            }
            SwishMsg::MigrateDone(m) => {
                w.u8(TAG_MIG_DONE);
                w.u16(m.reg);
                w.u32(m.start);
                w.u32(m.end);
                encode_node(w, m.node);
                w.u32(m.epoch);
                w.u32(m.pass);
            }
            SwishMsg::LoadReport(m) => {
                w.u8(TAG_LOAD_REPORT);
                encode_node(w, m.from);
                w.u16(m.entries.len() as u16);
                for e in &m.entries {
                    w.u16(e.reg);
                    w.u32(e.start);
                    w.u64(e.writes);
                }
            }
            SwishMsg::CtrlPrepare(m) => {
                w.u8(TAG_CTRL_PREPARE);
                encode_node(w, m.from);
                w.u64(m.ballot);
                w.u64(m.slot);
            }
            SwishMsg::CtrlPromise(m) => {
                w.u8(TAG_CTRL_PROMISE);
                encode_node(w, m.from);
                w.u64(m.ballot);
                w.u64(m.slot);
                w.u8(m.granted as u8);
                w.u64(m.floor);
                w.u64(m.max_slot);
                w.u64(m.acc_ballot);
                match &m.acc {
                    Some(cmd) => {
                        w.u8(1);
                        cmd.encode(w);
                    }
                    None => w.u8(0),
                }
            }
            SwishMsg::CtrlAccept(m) => {
                w.u8(TAG_CTRL_ACCEPT);
                encode_node(w, m.from);
                w.u64(m.ballot);
                w.u64(m.slot);
                m.cmd.encode(w);
            }
            SwishMsg::CtrlAccepted(m) => {
                w.u8(TAG_CTRL_ACCEPTED);
                encode_node(w, m.from);
                w.u64(m.ballot);
                w.u64(m.slot);
                w.u8(m.granted as u8);
                w.u64(m.floor);
            }
            SwishMsg::CtrlLearn(m) => {
                w.u8(TAG_CTRL_LEARN);
                encode_node(w, m.from);
                w.u64(m.slot);
                m.cmd.encode(w);
            }
            SwishMsg::CtrlHb(m) => {
                w.u8(TAG_CTRL_HB);
                encode_node(w, m.from);
                w.u64(m.ballot);
                w.u64(m.commit);
                w.u8(m.leader as u8);
            }
            SwishMsg::CtrlLead(m) => {
                w.u8(TAG_CTRL_LEAD);
                encode_node(w, m.leader);
                w.u64(m.ballot);
            }
            SwishMsg::CtrlSnap(m) => {
                w.u8(TAG_CTRL_SNAP);
                encode_node(w, m.from);
                w.u64(m.base);
                w.u32(m.epoch);
                encode_nodes(w, &m.chain);
                encode_nodes(w, &m.learners);
                encode_nodes(w, &m.group);
                match m.leader {
                    Some(l) => {
                        w.u8(1);
                        encode_node(w, l);
                    }
                    None => w.u8(0),
                }
                w.u64(m.leader_changes);
                w.u8(m.boot_done as u8);
                w.u16(m.regs.len() as u16);
                for rg in &m.regs {
                    w.u16(rg.reg);
                    w.u16(rg.ranges.len() as u16);
                    for r in &rg.ranges {
                        w.u32(r.start);
                        w.u32(r.end);
                        w.u32(r.committed_epoch);
                        w.u32(r.issued_epoch);
                        encode_nodes(w, &r.owners);
                        match &r.mig {
                            Some(g) => {
                                w.u8(1);
                                encode_node(w, g.from);
                                encode_node(w, g.to);
                                w.u32(g.epoch);
                                w.u8(g.phase);
                                encode_nodes(w, &g.commit_owners);
                            }
                            None => w.u8(0),
                        }
                    }
                }
            }
        }
    }

    /// Decode a versioned message from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let ver = r.u8()?;
        if ver != WIRE_VERSION {
            return Err(WireError::VersionMismatch {
                got: ver,
                want: WIRE_VERSION,
            });
        }
        let tag = r.u8()?;
        let msg = match tag {
            TAG_WRITE => SwishMsg::Write(WriteRequest {
                write_id: r.u64()?,
                writer: decode_node(r)?,
                epoch: r.u32()?,
                reg: r.u16()?,
                key: r.u32()?,
                seq: r.u64()?,
                op: WriteOp::decode(r)?,
                trace: TraceId(r.u64()?),
            }),
            TAG_ACK => SwishMsg::Ack(WriteAck {
                write_id: r.u64()?,
                writer: decode_node(r)?,
                reg: r.u16()?,
                key: r.u32()?,
                seq: r.u64()?,
                trace: TraceId(r.u64()?),
            }),
            TAG_CLEAR => SwishMsg::Clear(PendingClear {
                epoch: r.u32()?,
                reg: r.u16()?,
                key: r.u32()?,
                seq: r.u64()?,
            }),
            TAG_SYNC => SwishMsg::Sync(SyncUpdate {
                reg: r.u16()?,
                origin: decode_node(r)?,
                trace: TraceId(r.u64()?),
                entries: decode_entries(r, sync_entry)?,
            }),
            TAG_SNAP_REQ => SwishMsg::SnapReq(SnapshotRequest {
                target: decode_node(r)?,
                epoch: r.u32()?,
            }),
            TAG_SNAP_CHUNK => SwishMsg::SnapChunk(SnapshotChunk {
                reg: r.u16()?,
                origin: decode_node(r)?,
                last: r.u8()? != 0,
                entries: decode_entries(r, snap_entry)?,
            }),
            TAG_CATCHUP => SwishMsg::CatchupDone(CatchupComplete {
                node: decode_node(r)?,
                epoch: r.u32()?,
            }),
            TAG_CHAIN => SwishMsg::Chain(ChainConfig {
                epoch: r.u32()?,
                chain: decode_nodes(r)?,
                learners: decode_nodes(r)?,
            }),
            TAG_GROUP => SwishMsg::Group(GroupConfig {
                epoch: r.u32()?,
                members: decode_nodes(r)?,
            }),
            TAG_HEARTBEAT => SwishMsg::Heartbeat(Heartbeat {
                from: decode_node(r)?,
                epoch: r.u32()?,
            }),
            TAG_DIR_LOOKUP => SwishMsg::DirLookup(DirLookup {
                from: decode_node(r)?,
                reg: r.u16()?,
                key: r.u32()?,
            }),
            TAG_DIR_REPLY => SwishMsg::DirReply(DirReply {
                reg: r.u16()?,
                key: r.u32()?,
                owners: decode_nodes(r)?,
            }),
            TAG_READ_FWD => SwishMsg::ReadForward(ReadForward {
                origin: decode_node(r)?,
                trace: TraceId(r.u64()?),
                inner: DataPacket::decode(r)?,
            }),
            TAG_MIG_BEGIN => SwishMsg::MigrateBegin(MigrateBegin {
                reg: r.u16()?,
                start: r.u32()?,
                end: r.u32()?,
                from: decode_node(r)?,
                to: decode_node(r)?,
                epoch: r.u32()?,
            }),
            TAG_MIG_CHUNK => SwishMsg::MigrateChunk(MigrateChunk {
                reg: r.u16()?,
                start: r.u32()?,
                end: r.u32()?,
                origin: decode_node(r)?,
                pass: r.u32()?,
                idx: r.u16()?,
                last: r.u8()? != 0,
                entries: decode_entries(r, snap_entry)?,
            }),
            TAG_OWN_COMMIT => SwishMsg::OwnershipCommit(OwnershipCommit {
                reg: r.u16()?,
                start: r.u32()?,
                end: r.u32()?,
                epoch: r.u32()?,
                owners: decode_nodes(r)?,
            }),
            TAG_MIG_DONE => SwishMsg::MigrateDone(MigrateDone {
                reg: r.u16()?,
                start: r.u32()?,
                end: r.u32()?,
                node: decode_node(r)?,
                epoch: r.u32()?,
                pass: r.u32()?,
            }),
            TAG_LOAD_REPORT => {
                let from = decode_node(r)?;
                let n = r.u16()? as usize;
                let mut entries = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    entries.push(LoadEntry {
                        reg: r.u16()?,
                        start: r.u32()?,
                        writes: r.u64()?,
                    });
                }
                SwishMsg::LoadReport(LoadReport { from, entries })
            }
            TAG_CTRL_PREPARE => SwishMsg::CtrlPrepare(CtrlPrepare {
                from: decode_node(r)?,
                ballot: r.u64()?,
                slot: r.u64()?,
            }),
            TAG_CTRL_PROMISE => {
                let from = decode_node(r)?;
                let ballot = r.u64()?;
                let slot = r.u64()?;
                let granted = r.u8()? != 0;
                let floor = r.u64()?;
                let max_slot = r.u64()?;
                let acc_ballot = r.u64()?;
                let acc = if r.u8()? != 0 {
                    Some(CtrlCmd::decode(r)?)
                } else {
                    None
                };
                SwishMsg::CtrlPromise(Box::new(CtrlPromise {
                    from,
                    ballot,
                    slot,
                    granted,
                    floor,
                    max_slot,
                    acc_ballot,
                    acc,
                }))
            }
            TAG_CTRL_ACCEPT => SwishMsg::CtrlAccept(CtrlAccept {
                from: decode_node(r)?,
                ballot: r.u64()?,
                slot: r.u64()?,
                cmd: CtrlCmd::decode(r)?,
            }),
            TAG_CTRL_ACCEPTED => SwishMsg::CtrlAccepted(CtrlAccepted {
                from: decode_node(r)?,
                ballot: r.u64()?,
                slot: r.u64()?,
                granted: r.u8()? != 0,
                floor: r.u64()?,
            }),
            TAG_CTRL_LEARN => SwishMsg::CtrlLearn(CtrlLearn {
                from: decode_node(r)?,
                slot: r.u64()?,
                cmd: CtrlCmd::decode(r)?,
            }),
            TAG_CTRL_HB => SwishMsg::CtrlHb(CtrlHb {
                from: decode_node(r)?,
                ballot: r.u64()?,
                commit: r.u64()?,
                leader: r.u8()? != 0,
            }),
            TAG_CTRL_LEAD => SwishMsg::CtrlLead(CtrlLead {
                leader: decode_node(r)?,
                ballot: r.u64()?,
            }),
            TAG_CTRL_SNAP => {
                let from = decode_node(r)?;
                let base = r.u64()?;
                let epoch = r.u32()?;
                let chain = decode_nodes(r)?;
                let learners = decode_nodes(r)?;
                let group = decode_nodes(r)?;
                let leader = if r.u8()? != 0 {
                    Some(decode_node(r)?)
                } else {
                    None
                };
                let leader_changes = r.u64()?;
                let boot_done = r.u8()? != 0;
                let n_regs = r.u16()? as usize;
                let mut regs = Vec::with_capacity(n_regs.min(1024));
                for _ in 0..n_regs {
                    let reg = r.u16()?;
                    let n_ranges = r.u16()? as usize;
                    let mut ranges = Vec::with_capacity(n_ranges.min(1024));
                    for _ in 0..n_ranges {
                        let start = r.u32()?;
                        let end = r.u32()?;
                        let committed_epoch = r.u32()?;
                        let issued_epoch = r.u32()?;
                        let owners = decode_nodes(r)?;
                        let mig = if r.u8()? != 0 {
                            Some(CtrlSnapMig {
                                from: decode_node(r)?,
                                to: decode_node(r)?,
                                epoch: r.u32()?,
                                phase: r.u8()?,
                                commit_owners: decode_nodes(r)?,
                            })
                        } else {
                            None
                        };
                        ranges.push(CtrlSnapRange {
                            start,
                            end,
                            committed_epoch,
                            issued_epoch,
                            owners,
                            mig,
                        });
                    }
                    regs.push(CtrlSnapReg { reg, ranges });
                }
                SwishMsg::CtrlSnap(Box::new(CtrlSnap {
                    from,
                    base,
                    epoch,
                    chain,
                    learners,
                    group,
                    leader,
                    leader_changes,
                    boot_done,
                    regs,
                }))
            }
            t => return Err(WireError::UnknownTag(t)),
        };
        Ok(msg)
    }

    /// Encoded length in bytes, without allocating.
    #[inline]
    pub fn wire_len(&self) -> usize {
        // version + tag
        2 + match self {
            SwishMsg::Write(_) => 8 + 2 + 4 + 2 + 4 + 8 + 9 + 8,
            SwishMsg::Ack(_) => 8 + 2 + 2 + 4 + 8 + 8,
            SwishMsg::Clear(_) => 4 + 2 + 4 + 8,
            SwishMsg::Sync(m) => 2 + 2 + 8 + 2 + m.entries.len() * SYNC_ENTRY_LEN,
            SwishMsg::SnapReq(_) => 2 + 4,
            SwishMsg::SnapChunk(m) => 2 + 2 + 1 + 2 + m.entries.len() * SNAP_ENTRY_LEN,
            SwishMsg::CatchupDone(_) => 2 + 4,
            SwishMsg::Chain(m) => 4 + 2 + m.chain.len() * 2 + 2 + m.learners.len() * 2,
            SwishMsg::Group(m) => 4 + 2 + m.members.len() * 2,
            SwishMsg::Heartbeat(_) => 2 + 4,
            SwishMsg::DirLookup(_) => 2 + 2 + 4,
            SwishMsg::DirReply(m) => 2 + 4 + 2 + m.owners.len() * 2,
            SwishMsg::ReadForward(m) => 2 + 8 + m.inner.wire_len(),
            SwishMsg::MigrateBegin(_) => 2 + 4 + 4 + 2 + 2 + 4,
            SwishMsg::MigrateChunk(m) => {
                2 + 4 + 4 + 2 + 4 + 2 + 1 + 2 + m.entries.len() * SNAP_ENTRY_LEN
            }
            SwishMsg::OwnershipCommit(m) => 2 + 4 + 4 + 4 + 2 + m.owners.len() * 2,
            SwishMsg::MigrateDone(_) => 2 + 4 + 4 + 2 + 4 + 4,
            SwishMsg::LoadReport(m) => 2 + 2 + m.entries.len() * (2 + 4 + 8),
            SwishMsg::CtrlPrepare(_) => 2 + 8 + 8,
            SwishMsg::CtrlPromise(m) => {
                2 + 8 + 8 + 1 + 8 + 8 + 8 + 1 + if m.acc.is_some() { CTRL_CMD_LEN } else { 0 }
            }
            SwishMsg::CtrlAccept(_) => 2 + 8 + 8 + CTRL_CMD_LEN,
            SwishMsg::CtrlAccepted(_) => 2 + 8 + 8 + 1 + 8,
            SwishMsg::CtrlLearn(_) => 2 + 8 + CTRL_CMD_LEN,
            SwishMsg::CtrlHb(_) => 2 + 8 + 8 + 1,
            SwishMsg::CtrlLead(_) => 2 + 8,
            SwishMsg::CtrlSnap(m) => m.body_len(),
        }
    }
}

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
        ]
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
            cmd.encode(&mut w);
            let buf = w.finish();
            assert_eq!(buf.len(), CTRL_CMD_LEN, "fixed width for {cmd:?}");
            let mut r = Reader::new(&buf);
            assert_eq!(CtrlCmd::decode(&mut r).unwrap(), cmd);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn rejects_truncated_ctrl_accept() {
        let msg = SwishMsg::CtrlAccept(CtrlAccept {
            from: NodeId(u16::MAX),
            ballot: (1 << 8) | 2,
            slot: 3,
            cmd: CtrlCmd::Bootstrap,
        });
        let mut w = Writer::new();
        msg.encode(&mut w);
        let buf = w.finish();
        for cut in 1..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(
                SwishMsg::decode(&mut r).is_err(),
                "cut at {cut} should fail"
            );
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
        let mut want = vec![WIRE_VERSION, TAG_CTRL_PROMISE, 0xff, 0xfd];
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
        let mut want = vec![WIRE_VERSION, TAG_CTRL_SNAP, 0xff, 0xff];
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

    #[test]
    fn rejects_truncated_sync() {
        let msg = SwishMsg::Sync(SyncUpdate {
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
        });
        let mut w = Writer::new();
        msg.encode(&mut w);
        let buf = w.finish();
        for cut in 1..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(
                SwishMsg::decode(&mut r).is_err(),
                "cut at {cut} should fail"
            );
        }
    }
}
