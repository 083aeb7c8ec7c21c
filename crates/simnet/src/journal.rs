//! Control-plane journal telemetry: the [`CtrlEvent`] vocabulary that
//! the replicated controller (§6.3) emits to narrate its state machines —
//! the Paxos phases of its consensus log, leadership and lease changes,
//! detector edges, membership decrees, compaction and migration
//! lifecycles — kept by a [`JournalHandle`].
//!
//! An event reaches observers as [`NetEvent::Journal`], beside the span
//! markers, and obeys the same passivity contract: emitters never read
//! the journal back, no RNG is drawn and no event scheduled, and every
//! record is stamped with `SimTime` only — so subscribing cannot perturb
//! the engine's `(time, key)` event order or its RNG stream. The
//! determinism fingerprint tests (`tests/determinism.rs`) prove this
//! bit-for-bit.
//!
//! The stream is typed, as spans are: a record carries the event itself,
//! and readers (the `swishmem` crate's `Journal`) match on it directly.

use crate::observe::{Family, NetEvent};
use crate::tap::{Record, TapHandle};
use crate::time::SimTime;
use std::fmt;
use swishmem_wire::swish::{Key, RegId};
use swishmem_wire::NodeId;

/// Migration aborted: the destination failed.
pub const ABORT_DEST_FAILED: u8 = 1;
/// Migration aborted: the sole owner failed, so the destination is
/// promoted.
pub const ABORT_SOLE_OWNER_PROMOTE: u8 = 2;
/// Migration aborted: an owner failed during the transfer.
pub const ABORT_OWNER_FAILED: u8 = 3;

/// Human string for a migration-abort reason code.
pub fn abort_reason_str(code: u8) -> &'static str {
    match code {
        ABORT_DEST_FAILED => "destination failed",
        ABORT_SOLE_OWNER_PROMOTE => "sole owner failed; promoting destination",
        ABORT_OWNER_FAILED => "owner failed during transfer",
        _ => "unknown",
    }
}

/// One control-plane transition. Slots and ballots are the consensus
/// log's `u64` slot indices and `(round << 8) | replica` ballots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlEvent {
    /// A leader/candidate issued a prepare or accept for `slot`.
    Propose { slot: u64, ballot: u64 },
    /// An acceptor granted a promise at `ballot`.
    Promise { slot: u64, ballot: u64 },
    /// An acceptor stored a value for `slot` at `ballot`.
    Accepted { slot: u64, ballot: u64 },
    /// The proposer observed an accept quorum for `slot`.
    Chosen { slot: u64, ballot: u64 },
    /// A replica learned the chosen value for `slot`.
    Learned { slot: u64 },
    /// A replica abandoned leadership/candidacy at `ballot`.
    StepDown { slot: u64, ballot: u64 },
    /// A replica applied the decree at `slot` (tag = command code).
    Applied { slot: u64, tag: u16 },
    /// A replica started campaigning at `ballot` after `timeout_ns` of
    /// leader silence.
    ElectionStart { ballot: u64, timeout_ns: u64 },
    /// A new leader's election decree took effect (stamped when the
    /// `Reassert` decree at `slot` is applied, fabric epoch `epoch`).
    LeaderElected {
        leader: NodeId,
        epoch: u32,
        slot: u64,
    },
    /// A leader lost its quorum lease (`heard` live peers of `quorum`
    /// needed) and stepped down.
    LeaseLost { heard: u32, quorum: u32 },
    /// The phi detector crossed threshold: `target` silent for
    /// `silence_ns` against a `timeout_ns` budget.
    Suspect {
        target: NodeId,
        silence_ns: u64,
        timeout_ns: u64,
    },
    /// A fresh leader beacon cleared the suspicion of `target`.
    Unsuspect { target: NodeId },
    /// A membership decree took effect: `node` joined (`add`) or left
    /// the replica group at `slot`.
    MemberChange { node: NodeId, add: bool, slot: u64 },
    /// The leader compacted the log up to `upto`, persisting a
    /// `snap_bytes`-byte snapshot.
    Compact { upto: u64, snap_bytes: u64 },
    /// A snapshot of the applied prefix at `base` was sent to a lagging
    /// replica.
    SnapshotSent { base: u64, bytes: u64, to: NodeId },
    /// A replica installed a peer snapshot at `base`.
    SnapshotInstalled { base: u64 },
    /// A non-leading replica served a directory lookup under lease.
    FollowerRead { reg: RegId, key: Key },
    /// A migration opened for range `(reg, start)`.
    MigBegin {
        reg: RegId,
        start: Key,
        from: NodeId,
        to: NodeId,
        epoch: u32,
    },
    /// The transfer completed a full pass; the range entered dual-owner.
    MigDualOwner {
        reg: RegId,
        start: Key,
        epoch: u32,
        pass: u32,
    },
    /// The migration committed its new owner set.
    MigCommit { reg: RegId, start: Key, epoch: u32 },
    /// The migration aborted (see [`abort_reason_str`]).
    MigAbort {
        reg: RegId,
        start: Key,
        epoch: u32,
        reason: u8,
    },
}

impl fmt::Display for CtrlEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CtrlEvent::Propose { slot, ballot } => {
                write!(f, "propose slot {slot} at ballot {ballot}")
            }
            CtrlEvent::Promise { slot, ballot } => {
                write!(f, "promise slot {slot} at ballot {ballot}")
            }
            CtrlEvent::Accepted { slot, ballot } => {
                write!(f, "accepted slot {slot} at ballot {ballot}")
            }
            CtrlEvent::Chosen { slot, ballot } => {
                write!(f, "chosen slot {slot} at ballot {ballot}")
            }
            CtrlEvent::Learned { slot } => write!(f, "learned slot {slot}"),
            CtrlEvent::StepDown { slot, ballot } => {
                write!(f, "step down at slot {slot}, ballot {ballot}")
            }
            CtrlEvent::Applied { slot, tag } => write!(f, "applied slot {slot} (cmd tag {tag})"),
            CtrlEvent::ElectionStart { ballot, timeout_ns } => {
                write!(
                    f,
                    "election started at ballot {ballot} after {timeout_ns} ns silence"
                )
            }
            CtrlEvent::LeaderElected {
                leader,
                epoch,
                slot,
            } => {
                write!(
                    f,
                    "leader {} elected (epoch {epoch}, decree slot {slot})",
                    leader.0
                )
            }
            CtrlEvent::LeaseLost { heard, quorum } => {
                write!(f, "leader lease lost (heard {heard} of quorum {quorum})")
            }
            CtrlEvent::Suspect {
                target,
                silence_ns,
                timeout_ns,
            } => write!(
                f,
                "suspect node {} ({silence_ns} ns silent, budget {timeout_ns} ns)",
                target.0
            ),
            CtrlEvent::Unsuspect { target } => write!(f, "unsuspect node {}", target.0),
            CtrlEvent::MemberChange { node, add, slot } => write!(
                f,
                "member {} {} at slot {slot}",
                node.0,
                if add { "added" } else { "removed" }
            ),
            CtrlEvent::Compact { upto, snap_bytes } => {
                write!(f, "compacted log to slot {upto} ({snap_bytes} B snapshot)")
            }
            CtrlEvent::SnapshotSent { base, bytes, to } => {
                write!(
                    f,
                    "snapshot at base {base} sent to node {} ({bytes} B)",
                    to.0
                )
            }
            CtrlEvent::SnapshotInstalled { base } => {
                write!(f, "snapshot installed at base {base}")
            }
            CtrlEvent::FollowerRead { reg, key } => {
                write!(f, "follower read reg {reg} key {key}")
            }
            CtrlEvent::MigBegin {
                reg,
                start,
                from,
                to,
                epoch,
            } => write!(
                f,
                "migration begin reg {reg} start {start}: {} -> {} (epoch {epoch})",
                from.0, to.0
            ),
            CtrlEvent::MigDualOwner {
                reg,
                start,
                epoch,
                pass,
            } => write!(
                f,
                "migration dual-owner reg {reg} start {start} (epoch {epoch}, pass {pass})"
            ),
            CtrlEvent::MigCommit { reg, start, epoch } => {
                write!(
                    f,
                    "migration commit reg {reg} start {start} (epoch {epoch})"
                )
            }
            CtrlEvent::MigAbort {
                reg,
                start,
                epoch,
                reason,
            } => write!(
                f,
                "migration abort reg {reg} start {start} (epoch {epoch}): {}",
                abort_reason_str(reason)
            ),
        }
    }
}

/// One journal record: an event, where and when it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// When the transition happened, in simulated time.
    pub time: SimTime,
    /// The node (e.g. controller replica) the transition happened on.
    pub node: NodeId,
    /// The transition.
    pub event: CtrlEvent,
}

impl Record for JournalRecord {
    const FAMILY: Family = Family::Journal;
    fn of(_now: SimTime, ev: &NetEvent<'_>) -> Option<Self> {
        match ev {
            NetEvent::Journal(r) => Some(*r),
            _ => None,
        }
    }
}

/// Shared handle to a journal [`crate::Tap`] (what
/// `Deployment::attach_journal` returns).
pub type JournalHandle = TapHandle<JournalRecord>;
