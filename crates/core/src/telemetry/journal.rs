//! The control-plane flight recorder's typed event vocabulary and the
//! causal reader over raw journal records.
//!
//! The simnet layer stores journal entries as untyped word tuples
//! ([`swishmem_simnet::JournalRecord`]) so the engine stays ignorant of
//! control-plane semantics. This module owns the typed view: every
//! consensus transition, leadership/lease change, detector edge,
//! membership decree and migration lifecycle step is a [`CtrlEvent`]
//! with a lossless encode/decode to the record's `(kind, cause, a, b,
//! c)` words.
//!
//! ## Causality without run-time back-references
//!
//! Emitting an event must stay a pure observation (the passivity
//! contract that keeps the recorder bit-invisible to the golden
//! determinism fingerprint), so emitters never read back journal ids to
//! thread parent pointers. Instead every event carries a *cause key* —
//! `class << 60 | key` where the class picks the correlation namespace
//! (decree slot, election ballot, detector target, migration range,
//! compaction boundary) — and the [`Journal`] reader reconstructs the
//! parent links after the fact: an entry's parent is the latest earlier
//! entry with the same cause whose kind is in the entry's declared
//! parent-kind set (e.g. `Promise → Propose`, `Learned → Chosen`,
//! `MigCommit → MigDualOwner`). `ElectionStart` is the one special
//! case: it links to the emitting node's latest `Suspect`, crossing
//! cause namespaces, because an election is caused by a suspicion.

use std::collections::HashMap;
use std::fmt;
use swishmem_simnet::{JournalRecord, SimTime};
use swishmem_wire::swish::{Key, RegId};
use swishmem_wire::NodeId;

use crate::consensus::{Ballot, Slot};

// ---------------------------------------------------------------------
// Kind codes (the wire `kind` word of a JournalRecord)
// ---------------------------------------------------------------------

pub const KIND_PROPOSE: u16 = 1;
pub const KIND_PROMISE: u16 = 2;
pub const KIND_ACCEPTED: u16 = 3;
pub const KIND_CHOSEN: u16 = 4;
pub const KIND_LEARNED: u16 = 5;
pub const KIND_STEP_DOWN: u16 = 6;
pub const KIND_APPLIED: u16 = 7;
pub const KIND_ELECTION_START: u16 = 8;
pub const KIND_LEADER_ELECTED: u16 = 9;
pub const KIND_LEASE_LOST: u16 = 10;
pub const KIND_SUSPECT: u16 = 11;
pub const KIND_UNSUSPECT: u16 = 12;
pub const KIND_MEMBER_CHANGE: u16 = 13;
pub const KIND_COMPACT: u16 = 14;
pub const KIND_SNAPSHOT_SENT: u16 = 15;
pub const KIND_SNAPSHOT_INSTALLED: u16 = 16;
pub const KIND_FOLLOWER_READ: u16 = 17;
pub const KIND_MIG_BEGIN: u16 = 18;
pub const KIND_MIG_DUAL_OWNER: u16 = 19;
pub const KIND_MIG_COMMIT: u16 = 20;
pub const KIND_MIG_ABORT: u16 = 21;

// ---------------------------------------------------------------------
// Cause classes (top 4 bits of the `cause` word)
// ---------------------------------------------------------------------

pub const CLASS_DECREE: u64 = 1;
pub const CLASS_ELECTION: u64 = 2;
pub const CLASS_DETECTOR: u64 = 3;
pub const CLASS_MIGRATION: u64 = 4;
pub const CLASS_COMPACTION: u64 = 5;
pub const CLASS_LEASE: u64 = 6;
pub const CLASS_READ: u64 = 7;

#[inline]
fn cause(class: u64, key: u64) -> u64 {
    (class << 60) | (key & ((1 << 60) - 1))
}

/// Cause key for the consensus decree at `slot`.
#[inline]
pub fn cause_decree(slot: Slot) -> u64 {
    cause(CLASS_DECREE, slot)
}

/// Cause key for the election attempt at `ballot`.
#[inline]
pub fn cause_election(ballot: Ballot) -> u64 {
    cause(CLASS_ELECTION, ballot)
}

/// Cause key for suspicion edges about `target`.
#[inline]
pub fn cause_detector(target: NodeId) -> u64 {
    cause(CLASS_DETECTOR, u64::from(target.0))
}

/// Cause key for the migration of range `(reg, start)`.
#[inline]
pub fn cause_migration(reg: RegId, start: Key) -> u64 {
    cause(CLASS_MIGRATION, (u64::from(reg) << 32) | u64::from(start))
}

/// Cause key for the log compaction / snapshot boundary at `upto`.
#[inline]
pub fn cause_compaction(upto: Slot) -> u64 {
    cause(CLASS_COMPACTION, upto)
}

/// Cause key for leader-lease state changes.
#[inline]
pub fn cause_lease() -> u64 {
    cause(CLASS_LEASE, 0)
}

/// Cause key for follower reads of `(reg, key)`.
#[inline]
pub fn cause_read(reg: RegId, key: Key) -> u64 {
    cause(CLASS_READ, (u64::from(reg) << 32) | u64::from(key))
}

// ---------------------------------------------------------------------
// Migration abort reason codes
// ---------------------------------------------------------------------

pub const ABORT_DEST_FAILED: u8 = 1;
pub const ABORT_SOLE_OWNER_PROMOTE: u8 = 2;
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

// ---------------------------------------------------------------------
// The typed event vocabulary
// ---------------------------------------------------------------------

/// One typed control-plane flight-recorder event (see module docs for
/// the cause/parent scheme).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlEvent {
    /// A leader/candidate issued a prepare or accept for `slot`.
    Propose { slot: Slot, ballot: Ballot },
    /// An acceptor granted a promise at `ballot`.
    Promise { slot: Slot, ballot: Ballot },
    /// An acceptor stored a value for `slot` at `ballot`.
    Accepted { slot: Slot, ballot: Ballot },
    /// The proposer observed an accept quorum for `slot`.
    Chosen { slot: Slot, ballot: Ballot },
    /// A replica learned the chosen value for `slot`.
    Learned { slot: Slot },
    /// A replica abandoned leadership/candidacy at `ballot`.
    StepDown { slot: Slot, ballot: Ballot },
    /// A replica applied the decree at `slot` (tag = command code).
    Applied { slot: Slot, tag: u16 },
    /// A replica started campaigning at `ballot` after `timeout_ns` of
    /// leader silence.
    ElectionStart { ballot: Ballot, timeout_ns: u64 },
    /// A new leader's election decree took effect (stamped when the
    /// `Reassert` decree at `slot` is applied, fabric epoch `epoch`).
    LeaderElected {
        leader: NodeId,
        epoch: u32,
        slot: Slot,
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
    MemberChange { node: NodeId, add: bool, slot: Slot },
    /// The leader compacted the log up to `upto`, persisting a
    /// `snap_bytes`-byte snapshot.
    Compact { upto: Slot, snap_bytes: u64 },
    /// A snapshot of the applied prefix at `base` was sent to a lagging
    /// replica.
    SnapshotSent { base: Slot, bytes: u64, to: NodeId },
    /// A replica installed a peer snapshot at `base`.
    SnapshotInstalled { base: Slot },
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
    /// The migration aborted (see `abort_reason_str`).
    MigAbort {
        reg: RegId,
        start: Key,
        epoch: u32,
        reason: u8,
    },
}

impl CtrlEvent {
    /// The record kind code for this event.
    pub fn kind(&self) -> u16 {
        match self {
            CtrlEvent::Propose { .. } => KIND_PROPOSE,
            CtrlEvent::Promise { .. } => KIND_PROMISE,
            CtrlEvent::Accepted { .. } => KIND_ACCEPTED,
            CtrlEvent::Chosen { .. } => KIND_CHOSEN,
            CtrlEvent::Learned { .. } => KIND_LEARNED,
            CtrlEvent::StepDown { .. } => KIND_STEP_DOWN,
            CtrlEvent::Applied { .. } => KIND_APPLIED,
            CtrlEvent::ElectionStart { .. } => KIND_ELECTION_START,
            CtrlEvent::LeaderElected { .. } => KIND_LEADER_ELECTED,
            CtrlEvent::LeaseLost { .. } => KIND_LEASE_LOST,
            CtrlEvent::Suspect { .. } => KIND_SUSPECT,
            CtrlEvent::Unsuspect { .. } => KIND_UNSUSPECT,
            CtrlEvent::MemberChange { .. } => KIND_MEMBER_CHANGE,
            CtrlEvent::Compact { .. } => KIND_COMPACT,
            CtrlEvent::SnapshotSent { .. } => KIND_SNAPSHOT_SENT,
            CtrlEvent::SnapshotInstalled { .. } => KIND_SNAPSHOT_INSTALLED,
            CtrlEvent::FollowerRead { .. } => KIND_FOLLOWER_READ,
            CtrlEvent::MigBegin { .. } => KIND_MIG_BEGIN,
            CtrlEvent::MigDualOwner { .. } => KIND_MIG_DUAL_OWNER,
            CtrlEvent::MigCommit { .. } => KIND_MIG_COMMIT,
            CtrlEvent::MigAbort { .. } => KIND_MIG_ABORT,
        }
    }

    /// Encode to the raw record words `(kind, cause, a, b, c)`.
    pub fn encode(&self) -> (u16, u64, u64, u64, u64) {
        match *self {
            CtrlEvent::Propose { slot, ballot } => {
                (KIND_PROPOSE, cause_decree(slot), slot, ballot, 0)
            }
            CtrlEvent::Promise { slot, ballot } => {
                (KIND_PROMISE, cause_decree(slot), slot, ballot, 0)
            }
            CtrlEvent::Accepted { slot, ballot } => {
                (KIND_ACCEPTED, cause_decree(slot), slot, ballot, 0)
            }
            CtrlEvent::Chosen { slot, ballot } => {
                (KIND_CHOSEN, cause_decree(slot), slot, ballot, 0)
            }
            CtrlEvent::Learned { slot } => (KIND_LEARNED, cause_decree(slot), slot, 0, 0),
            CtrlEvent::StepDown { slot, ballot } => {
                (KIND_STEP_DOWN, cause_decree(slot), slot, ballot, 0)
            }
            CtrlEvent::Applied { slot, tag } => {
                (KIND_APPLIED, cause_decree(slot), slot, u64::from(tag), 0)
            }
            CtrlEvent::ElectionStart { ballot, timeout_ns } => (
                KIND_ELECTION_START,
                cause_election(ballot),
                ballot,
                timeout_ns,
                0,
            ),
            CtrlEvent::LeaderElected {
                leader,
                epoch,
                slot,
            } => (
                KIND_LEADER_ELECTED,
                cause_decree(slot),
                u64::from(leader.0),
                u64::from(epoch),
                slot,
            ),
            CtrlEvent::LeaseLost { heard, quorum } => (
                KIND_LEASE_LOST,
                cause_lease(),
                u64::from(heard),
                u64::from(quorum),
                0,
            ),
            CtrlEvent::Suspect {
                target,
                silence_ns,
                timeout_ns,
            } => (
                KIND_SUSPECT,
                cause_detector(target),
                u64::from(target.0),
                silence_ns,
                timeout_ns,
            ),
            CtrlEvent::Unsuspect { target } => (
                KIND_UNSUSPECT,
                cause_detector(target),
                u64::from(target.0),
                0,
                0,
            ),
            CtrlEvent::MemberChange { node, add, slot } => (
                KIND_MEMBER_CHANGE,
                cause_decree(slot),
                u64::from(node.0),
                u64::from(add),
                slot,
            ),
            CtrlEvent::Compact { upto, snap_bytes } => {
                (KIND_COMPACT, cause_compaction(upto), upto, snap_bytes, 0)
            }
            CtrlEvent::SnapshotSent { base, bytes, to } => (
                KIND_SNAPSHOT_SENT,
                cause_compaction(base),
                base,
                bytes,
                u64::from(to.0),
            ),
            CtrlEvent::SnapshotInstalled { base } => {
                (KIND_SNAPSHOT_INSTALLED, cause_compaction(base), base, 0, 0)
            }
            CtrlEvent::FollowerRead { reg, key } => (
                KIND_FOLLOWER_READ,
                cause_read(reg, key),
                u64::from(reg),
                u64::from(key),
                0,
            ),
            CtrlEvent::MigBegin {
                reg,
                start,
                from,
                to,
                epoch,
            } => (
                KIND_MIG_BEGIN,
                cause_migration(reg, start),
                (u64::from(reg) << 32) | u64::from(start),
                (u64::from(from.0) << 16) | u64::from(to.0),
                u64::from(epoch),
            ),
            CtrlEvent::MigDualOwner {
                reg,
                start,
                epoch,
                pass,
            } => (
                KIND_MIG_DUAL_OWNER,
                cause_migration(reg, start),
                (u64::from(reg) << 32) | u64::from(start),
                u64::from(pass),
                u64::from(epoch),
            ),
            CtrlEvent::MigCommit { reg, start, epoch } => (
                KIND_MIG_COMMIT,
                cause_migration(reg, start),
                (u64::from(reg) << 32) | u64::from(start),
                0,
                u64::from(epoch),
            ),
            CtrlEvent::MigAbort {
                reg,
                start,
                epoch,
                reason,
            } => (
                KIND_MIG_ABORT,
                cause_migration(reg, start),
                (u64::from(reg) << 32) | u64::from(start),
                u64::from(reason),
                u64::from(epoch),
            ),
        }
    }

    /// Decode from raw record words. Unknown kinds decode to `None`
    /// (forward compatibility: readers skip what they don't know).
    pub fn decode(kind: u16, a: u64, b: u64, c: u64) -> Option<CtrlEvent> {
        let reg_start = |w: u64| ((w >> 32) as RegId, w as Key);
        Some(match kind {
            KIND_PROPOSE => CtrlEvent::Propose { slot: a, ballot: b },
            KIND_PROMISE => CtrlEvent::Promise { slot: a, ballot: b },
            KIND_ACCEPTED => CtrlEvent::Accepted { slot: a, ballot: b },
            KIND_CHOSEN => CtrlEvent::Chosen { slot: a, ballot: b },
            KIND_LEARNED => CtrlEvent::Learned { slot: a },
            KIND_STEP_DOWN => CtrlEvent::StepDown { slot: a, ballot: b },
            KIND_APPLIED => CtrlEvent::Applied {
                slot: a,
                tag: b as u16,
            },
            KIND_ELECTION_START => CtrlEvent::ElectionStart {
                ballot: a,
                timeout_ns: b,
            },
            KIND_LEADER_ELECTED => CtrlEvent::LeaderElected {
                leader: NodeId(a as u16),
                epoch: b as u32,
                slot: c,
            },
            KIND_LEASE_LOST => CtrlEvent::LeaseLost {
                heard: a as u32,
                quorum: b as u32,
            },
            KIND_SUSPECT => CtrlEvent::Suspect {
                target: NodeId(a as u16),
                silence_ns: b,
                timeout_ns: c,
            },
            KIND_UNSUSPECT => CtrlEvent::Unsuspect {
                target: NodeId(a as u16),
            },
            KIND_MEMBER_CHANGE => CtrlEvent::MemberChange {
                node: NodeId(a as u16),
                add: b != 0,
                slot: c,
            },
            KIND_COMPACT => CtrlEvent::Compact {
                upto: a,
                snap_bytes: b,
            },
            KIND_SNAPSHOT_SENT => CtrlEvent::SnapshotSent {
                base: a,
                bytes: b,
                to: NodeId(c as u16),
            },
            KIND_SNAPSHOT_INSTALLED => CtrlEvent::SnapshotInstalled { base: a },
            KIND_FOLLOWER_READ => CtrlEvent::FollowerRead {
                reg: a as RegId,
                key: b as Key,
            },
            KIND_MIG_BEGIN => {
                let (reg, start) = reg_start(a);
                CtrlEvent::MigBegin {
                    reg,
                    start,
                    from: NodeId((b >> 16) as u16),
                    to: NodeId(b as u16),
                    epoch: c as u32,
                }
            }
            KIND_MIG_DUAL_OWNER => {
                let (reg, start) = reg_start(a);
                CtrlEvent::MigDualOwner {
                    reg,
                    start,
                    epoch: c as u32,
                    pass: b as u32,
                }
            }
            KIND_MIG_COMMIT => {
                let (reg, start) = reg_start(a);
                CtrlEvent::MigCommit {
                    reg,
                    start,
                    epoch: c as u32,
                }
            }
            KIND_MIG_ABORT => {
                let (reg, start) = reg_start(a);
                CtrlEvent::MigAbort {
                    reg,
                    start,
                    epoch: c as u32,
                    reason: b as u8,
                }
            }
            _ => return None,
        })
    }

    /// Emit this event into the journal attached to `ctx` (no-op when
    /// detached — a pure observation either way).
    #[inline]
    pub fn emit(&self, ctx: &mut swishmem_simnet::Ctx<'_>) {
        let (kind, cause, a, b, c) = self.encode();
        ctx.journal(kind, cause, a, b, c);
    }
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

// ---------------------------------------------------------------------
// The causal reader
// ---------------------------------------------------------------------

/// Parent-kind sets per event kind: an entry's parent is the latest
/// earlier entry sharing its cause whose kind appears here.
fn parent_kinds(kind: u16) -> &'static [u16] {
    match kind {
        KIND_PROMISE => &[KIND_PROPOSE],
        KIND_ACCEPTED => &[KIND_PROPOSE],
        KIND_CHOSEN => &[KIND_ACCEPTED, KIND_PROPOSE],
        KIND_LEARNED => &[KIND_CHOSEN],
        KIND_APPLIED => &[KIND_LEARNED, KIND_CHOSEN],
        KIND_LEADER_ELECTED => &[KIND_APPLIED, KIND_LEARNED, KIND_CHOSEN],
        KIND_UNSUSPECT => &[KIND_SUSPECT],
        KIND_MEMBER_CHANGE => &[KIND_APPLIED, KIND_LEARNED, KIND_CHOSEN],
        KIND_SNAPSHOT_SENT => &[KIND_COMPACT],
        KIND_SNAPSHOT_INSTALLED => &[KIND_SNAPSHOT_SENT],
        KIND_MIG_DUAL_OWNER => &[KIND_MIG_BEGIN],
        KIND_MIG_COMMIT => &[KIND_MIG_DUAL_OWNER, KIND_MIG_BEGIN],
        KIND_MIG_ABORT => &[KIND_MIG_DUAL_OWNER, KIND_MIG_BEGIN],
        _ => &[],
    }
}

/// One decoded journal entry with its reconstructed causal parent
/// (an index into [`Journal::entries`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    pub time: SimTime,
    pub node: NodeId,
    pub cause: u64,
    pub event: CtrlEvent,
    pub parent: Option<usize>,
}

/// A reconstructed failover: from the last beacon of the old leader
/// through suspicion, campaign and election decree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Failover {
    /// The new leader.
    pub leader: NodeId,
    /// Fabric epoch announced by the election decree.
    pub epoch: u32,
    /// Consensus slot of the `Reassert` decree.
    pub slot: Slot,
    /// When the new leader applied its election decree (earliest
    /// `LeaderElected` for this epoch — the moment E22 measures).
    pub elected_at: SimTime,
    /// When the accept quorum for the decree landed at the proposer.
    pub chosen_at: Option<SimTime>,
    /// When the new leader started campaigning.
    pub election_start: Option<SimTime>,
    /// When the new leader's detector crossed threshold.
    pub suspect_at: Option<SimTime>,
    /// The old leader's last beacon heard by the new leader
    /// (`suspect_at - silence_ns`).
    pub last_beacon: Option<SimTime>,
}

/// A reconstructed migration lifecycle for one range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationTimeline {
    pub reg: RegId,
    pub start: Key,
    pub from: NodeId,
    pub to: NodeId,
    /// Epoch issued at `MigBegin` (the commit decree re-issues a fresh
    /// one, so commit/abort events carry their own).
    pub epoch: u32,
    pub begin_at: SimTime,
    pub dual_owner_at: Option<SimTime>,
    /// Transfer passes needed before the dual-owner flip.
    pub passes: u32,
    pub commit_at: Option<SimTime>,
    pub abort_at: Option<SimTime>,
    pub abort_reason: Option<u8>,
}

impl MigrationTimeline {
    /// Total open window (begin to terminal event), when closed.
    pub fn window(&self) -> Option<u64> {
        self.commit_at
            .or(self.abort_at)
            .map(|t| t.since(self.begin_at).0)
    }

    /// Dual-owner window (dual-owner flip to commit), when both landed.
    pub fn dual_owner_window(&self) -> Option<u64> {
        match (self.dual_owner_at, self.commit_at) {
            (Some(d), Some(c)) => Some(c.since(d).0),
            _ => None,
        }
    }
}

/// One log compaction with its snapshot size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionRecord {
    pub at: SimTime,
    pub node: NodeId,
    pub upto: Slot,
    pub snap_bytes: u64,
}

/// The decoded, causally-linked journal.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    entries: Vec<JournalEntry>,
}

impl Journal {
    /// Decode raw records into typed entries and reconstruct parent
    /// links (records with unknown kinds are skipped).
    pub fn decode(records: &[JournalRecord]) -> Journal {
        let mut entries: Vec<JournalEntry> = Vec::with_capacity(records.len());
        // Latest index seen per (cause, kind), and per-node latest
        // Suspect for the ElectionStart cross-cause link.
        let mut latest: HashMap<(u64, u16), usize> = HashMap::new();
        let mut latest_suspect: HashMap<NodeId, usize> = HashMap::new();
        for r in records {
            let Some(event) = CtrlEvent::decode(r.kind, r.a, r.b, r.c) else {
                continue;
            };
            let idx = entries.len();
            let parent = if r.kind == KIND_ELECTION_START {
                latest_suspect.get(&r.node).copied()
            } else {
                parent_kinds(r.kind)
                    .iter()
                    .filter_map(|&pk| latest.get(&(r.cause, pk)).copied())
                    .max()
            };
            entries.push(JournalEntry {
                time: r.time,
                node: r.node,
                cause: r.cause,
                event,
                parent,
            });
            latest.insert((r.cause, r.kind), idx);
            if r.kind == KIND_SUSPECT {
                latest_suspect.insert(r.node, idx);
            }
        }
        Journal { entries }
    }

    /// All decoded entries in journal order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reconstruct every failover: for each epoch with a `LeaderElected`
    /// decree, walk the causal chain back through the winner's campaign
    /// and suspicion to the old leader's last beacon.
    pub fn failovers(&self) -> Vec<Failover> {
        // Earliest LeaderElected per epoch: the new leader applies its
        // own decree at accept-quorum time, before any follower learns
        // it, so the earliest is the leader's own apply.
        let mut by_epoch: HashMap<u32, usize> = HashMap::new();
        for (i, e) in self.entries.iter().enumerate() {
            if let CtrlEvent::LeaderElected { epoch, .. } = e.event {
                by_epoch.entry(epoch).or_insert(i);
            }
        }
        let mut out: Vec<Failover> = Vec::new();
        for (&epoch, &i) in &by_epoch {
            let e = self.entries[i];
            let CtrlEvent::LeaderElected { leader, slot, .. } = e.event else {
                continue;
            };
            let chosen_at = self
                .entries
                .iter()
                .find(|x| matches!(x.event, CtrlEvent::Chosen { slot: s, .. } if s == slot))
                .map(|x| x.time);
            // The winner's latest campaign start at or before the win.
            let election = self.entries[..=i]
                .iter()
                .rev()
                .find(|x| x.node == leader && matches!(x.event, CtrlEvent::ElectionStart { .. }));
            let election_start = election.map(|x| x.time);
            let horizon = election_start.unwrap_or(e.time);
            let suspect = self.entries.iter().rev().find(|x| {
                x.node == leader
                    && x.time <= horizon
                    && matches!(x.event, CtrlEvent::Suspect { .. })
            });
            let suspect_at = suspect.map(|x| x.time);
            let last_beacon = suspect.and_then(|x| match x.event {
                CtrlEvent::Suspect { silence_ns, .. } => Some(SimTime(x.time.0 - silence_ns)),
                _ => None,
            });
            out.push(Failover {
                leader,
                epoch,
                slot,
                elected_at: e.time,
                chosen_at,
                election_start,
                suspect_at,
                last_beacon,
            });
        }
        out.sort_by_key(|f| (f.elected_at, f.epoch));
        out
    }

    /// Reconstruct every migration lifecycle, in begin order.
    pub fn migrations(&self) -> Vec<MigrationTimeline> {
        let mut open: HashMap<u64, MigrationTimeline> = HashMap::new();
        let mut done: Vec<MigrationTimeline> = Vec::new();
        for e in &self.entries {
            match e.event {
                CtrlEvent::MigBegin {
                    reg,
                    start,
                    from,
                    to,
                    epoch,
                } => {
                    if let Some(prev) = open.insert(
                        e.cause,
                        MigrationTimeline {
                            reg,
                            start,
                            from,
                            to,
                            epoch,
                            begin_at: e.time,
                            dual_owner_at: None,
                            passes: 0,
                            commit_at: None,
                            abort_at: None,
                            abort_reason: None,
                        },
                    ) {
                        done.push(prev);
                    }
                }
                CtrlEvent::MigDualOwner { pass, .. } => {
                    if let Some(m) = open.get_mut(&e.cause) {
                        m.dual_owner_at = Some(e.time);
                        m.passes = pass;
                    }
                }
                CtrlEvent::MigCommit { .. } => {
                    if let Some(mut m) = open.remove(&e.cause) {
                        m.commit_at = Some(e.time);
                        done.push(m);
                    }
                }
                CtrlEvent::MigAbort { reason, .. } => {
                    if let Some(mut m) = open.remove(&e.cause) {
                        m.abort_at = Some(e.time);
                        m.abort_reason = Some(reason);
                        done.push(m);
                    }
                }
                _ => {}
            }
        }
        done.extend(open.into_values());
        done.sort_by_key(|m| (m.begin_at, m.reg, m.start));
        done
    }

    /// Every log compaction, in time order.
    pub fn compactions(&self) -> Vec<CompactionRecord> {
        self.entries
            .iter()
            .filter_map(|e| match e.event {
                CtrlEvent::Compact { upto, snap_bytes } => Some(CompactionRecord {
                    at: e.time,
                    node: e.node,
                    upto,
                    snap_bytes,
                }),
                _ => None,
            })
            .collect()
    }

    /// The last `n` entries rendered as human lines (oracle violations
    /// attach these as pre-violation context).
    pub fn tail_strings(&self, n: usize) -> Vec<String> {
        let skip = self.entries.len().saturating_sub(n);
        self.entries[skip..]
            .iter()
            .map(|e| format!("[{} ns] n{} {}", e.time.0, e.node.0, e.event))
            .collect()
    }

    /// The last `n` entries at or before `at`, rendered as human lines.
    pub fn tail_strings_at(&self, at: SimTime, n: usize) -> Vec<String> {
        let upto = self.entries.partition_point(|e| e.time <= at);
        let skip = upto.saturating_sub(n);
        self.entries[skip..upto]
            .iter()
            .map(|e| format!("[{} ns] n{} {}", e.time.0, e.node.0, e.event))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(time: u64, node: u16, ev: CtrlEvent) -> JournalRecord {
        let (kind, cause, a, b, c) = ev.encode();
        JournalRecord {
            time: SimTime(time),
            node: NodeId(node),
            kind,
            cause,
            a,
            b,
            c,
        }
    }

    #[test]
    fn encode_decode_roundtrip_all_kinds() {
        let events = vec![
            CtrlEvent::Propose {
                slot: 3,
                ballot: 258,
            },
            CtrlEvent::Promise {
                slot: 3,
                ballot: 258,
            },
            CtrlEvent::Accepted {
                slot: 3,
                ballot: 258,
            },
            CtrlEvent::Chosen {
                slot: 3,
                ballot: 258,
            },
            CtrlEvent::Learned { slot: 3 },
            CtrlEvent::StepDown {
                slot: 4,
                ballot: 513,
            },
            CtrlEvent::Applied { slot: 3, tag: 7 },
            CtrlEvent::ElectionStart {
                ballot: 513,
                timeout_ns: 1_000_000,
            },
            CtrlEvent::LeaderElected {
                leader: NodeId(u16::MAX - 1),
                epoch: 5,
                slot: 9,
            },
            CtrlEvent::LeaseLost {
                heard: 0,
                quorum: 2,
            },
            CtrlEvent::Suspect {
                target: NodeId(u16::MAX),
                silence_ns: 2_500_000,
                timeout_ns: 2_000_000,
            },
            CtrlEvent::Unsuspect {
                target: NodeId(u16::MAX),
            },
            CtrlEvent::MemberChange {
                node: NodeId(u16::MAX - 3),
                add: true,
                slot: 12,
            },
            CtrlEvent::Compact {
                upto: 40,
                snap_bytes: 512,
            },
            CtrlEvent::SnapshotSent {
                base: 40,
                bytes: 512,
                to: NodeId(u16::MAX - 2),
            },
            CtrlEvent::SnapshotInstalled { base: 40 },
            CtrlEvent::FollowerRead { reg: 2, key: 77 },
            CtrlEvent::MigBegin {
                reg: 1,
                start: 1024,
                from: NodeId(0),
                to: NodeId(2),
                epoch: 3,
            },
            CtrlEvent::MigDualOwner {
                reg: 1,
                start: 1024,
                epoch: 3,
                pass: 2,
            },
            CtrlEvent::MigCommit {
                reg: 1,
                start: 1024,
                epoch: 4,
            },
            CtrlEvent::MigAbort {
                reg: 1,
                start: 1024,
                epoch: 3,
                reason: ABORT_DEST_FAILED,
            },
        ];
        for ev in events {
            let (kind, _cause, a, b, c) = ev.encode();
            assert_eq!(CtrlEvent::decode(kind, a, b, c), Some(ev), "{ev}");
        }
        assert_eq!(CtrlEvent::decode(9999, 0, 0, 0), None);
    }

    #[test]
    fn parent_links_follow_cause_chains() {
        let records = vec![
            rec(10, 1, CtrlEvent::Propose { slot: 5, ballot: 1 }),
            rec(20, 2, CtrlEvent::Promise { slot: 5, ballot: 1 }),
            rec(30, 2, CtrlEvent::Accepted { slot: 5, ballot: 1 }),
            rec(40, 1, CtrlEvent::Chosen { slot: 5, ballot: 1 }),
            rec(50, 2, CtrlEvent::Learned { slot: 5 }),
            rec(50, 2, CtrlEvent::Applied { slot: 5, tag: 1 }),
            // Different slot: chain must not cross causes.
            rec(60, 1, CtrlEvent::Propose { slot: 6, ballot: 1 }),
            rec(70, 1, CtrlEvent::Chosen { slot: 6, ballot: 1 }),
        ];
        let j = Journal::decode(&records);
        let e = j.entries();
        assert_eq!(e[1].parent, Some(0), "promise -> propose");
        assert_eq!(e[2].parent, Some(0), "accepted -> propose");
        assert_eq!(e[3].parent, Some(2), "chosen -> accepted");
        assert_eq!(e[4].parent, Some(3), "learned -> chosen");
        assert_eq!(e[5].parent, Some(4), "applied -> learned");
        assert_eq!(e[6].parent, None);
        assert_eq!(e[7].parent, Some(6), "chosen -> propose (no accepted)");
    }

    #[test]
    fn election_start_links_to_same_node_suspect() {
        let records = vec![
            rec(
                100,
                7,
                CtrlEvent::Suspect {
                    target: NodeId(1),
                    silence_ns: 60,
                    timeout_ns: 50,
                },
            ),
            rec(
                105,
                8,
                CtrlEvent::Suspect {
                    target: NodeId(1),
                    silence_ns: 65,
                    timeout_ns: 50,
                },
            ),
            rec(
                110,
                7,
                CtrlEvent::ElectionStart {
                    ballot: 259,
                    timeout_ns: 50,
                },
            ),
        ];
        let j = Journal::decode(&records);
        assert_eq!(
            j.entries()[2].parent,
            Some(0),
            "own suspicion, not node 8's"
        );
    }

    #[test]
    fn failover_reconstruction_walks_back_to_last_beacon() {
        let leader = NodeId(u16::MAX - 1);
        let records = vec![
            rec(
                1_000,
                leader.0,
                CtrlEvent::Suspect {
                    target: NodeId(u16::MAX),
                    silence_ns: 400,
                    timeout_ns: 350,
                },
            ),
            rec(
                1_100,
                leader.0,
                CtrlEvent::ElectionStart {
                    ballot: 257,
                    timeout_ns: 350,
                },
            ),
            rec(
                1_150,
                leader.0,
                CtrlEvent::Propose {
                    slot: 8,
                    ballot: 257,
                },
            ),
            rec(
                1_200,
                leader.0,
                CtrlEvent::Chosen {
                    slot: 8,
                    ballot: 257,
                },
            ),
            rec(
                1_200,
                leader.0,
                CtrlEvent::LeaderElected {
                    leader,
                    epoch: 2,
                    slot: 8,
                },
            ),
            // A follower learns later; must not shift the failover time.
            rec(
                1_300,
                u16::MAX - 2,
                CtrlEvent::LeaderElected {
                    leader,
                    epoch: 2,
                    slot: 8,
                },
            ),
        ];
        let j = Journal::decode(&records);
        let f = j.failovers();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].leader, leader);
        assert_eq!(f[0].epoch, 2);
        assert_eq!(f[0].elected_at, SimTime(1_200));
        assert_eq!(f[0].chosen_at, Some(SimTime(1_200)));
        assert_eq!(f[0].election_start, Some(SimTime(1_100)));
        assert_eq!(f[0].suspect_at, Some(SimTime(1_000)));
        assert_eq!(f[0].last_beacon, Some(SimTime(600)));
    }

    #[test]
    fn migration_lifecycle_groups_by_range() {
        let records = vec![
            rec(
                10,
                0,
                CtrlEvent::MigBegin {
                    reg: 1,
                    start: 0,
                    from: NodeId(0),
                    to: NodeId(2),
                    epoch: 1,
                },
            ),
            rec(
                20,
                0,
                CtrlEvent::MigDualOwner {
                    reg: 1,
                    start: 0,
                    epoch: 1,
                    pass: 2,
                },
            ),
            rec(
                30,
                0,
                CtrlEvent::MigCommit {
                    reg: 1,
                    start: 0,
                    epoch: 2,
                },
            ),
            rec(
                40,
                0,
                CtrlEvent::MigBegin {
                    reg: 1,
                    start: 4096,
                    from: NodeId(1),
                    to: NodeId(2),
                    epoch: 1,
                },
            ),
            rec(
                50,
                0,
                CtrlEvent::MigAbort {
                    reg: 1,
                    start: 4096,
                    epoch: 1,
                    reason: ABORT_DEST_FAILED,
                },
            ),
        ];
        let j = Journal::decode(&records);
        let m = j.migrations();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].window(), Some(20));
        assert_eq!(m[0].dual_owner_window(), Some(10));
        assert_eq!(m[0].passes, 2);
        assert_eq!(m[1].abort_reason, Some(ABORT_DEST_FAILED));
        assert_eq!(m[1].window(), Some(10));
        assert!(m[1].dual_owner_window().is_none());
    }

    #[test]
    fn tail_strings_bound_and_render() {
        let records: Vec<JournalRecord> = (0..5u64)
            .map(|i| rec(i * 10, 9, CtrlEvent::Learned { slot: i }))
            .collect();
        let j = Journal::decode(&records);
        let tail = j.tail_strings(2);
        assert_eq!(tail.len(), 2);
        assert!(tail[1].contains("learned slot 4"), "{tail:?}");
        let at = j.tail_strings_at(SimTime(25), 10);
        assert_eq!(at.len(), 3, "{at:?}");
    }
}
