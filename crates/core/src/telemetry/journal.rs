//! The control-plane flight recorder's reader: the failover, migration
//! and compaction timelines reconstructed from a journal tap's records.
//!
//! The events themselves are [`CtrlEvent`]s, defined beside the span
//! vocabulary in `swishmem_simnet::journal` and emitted by the
//! controller through `Ctx::journal`. Emitting stays a pure observation
//! (the passivity contract that keeps the recorder bit-invisible to the
//! golden determinism fingerprint): emitters never read the journal
//! back, and the [`Journal`] view joins events after the run on the
//! fields they carry — a decree's slot, a migration's `(reg, start)`
//! range, a campaign's node.

use std::collections::HashMap;
use swishmem_simnet::{CtrlEvent, JournalRecord, SimTime};
use swishmem_wire::swish::{Key, RegId};
use swishmem_wire::NodeId;

use crate::consensus::Slot;

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

/// A read-only view over a journal tap's records, in emission order.
#[derive(Debug, Clone, Copy)]
pub struct Journal<'a> {
    records: &'a [JournalRecord],
}

impl<'a> Journal<'a> {
    /// View `records` (a journal tap's `events()`).
    pub fn new(records: &'a [JournalRecord]) -> Journal<'a> {
        Journal { records }
    }

    /// Every record in journal order.
    pub fn records(&self) -> &'a [JournalRecord] {
        self.records
    }

    /// Reconstruct every failover: for each epoch with a `LeaderElected`
    /// decree, walk back through the winner's campaign and suspicion to
    /// the old leader's last beacon.
    pub fn failovers(&self) -> Vec<Failover> {
        // Earliest LeaderElected per epoch: the new leader applies its
        // own decree at accept-quorum time, before any follower learns
        // it, so the earliest is the leader's own apply.
        let mut by_epoch: HashMap<u32, usize> = HashMap::new();
        for (i, e) in self.records.iter().enumerate() {
            if let CtrlEvent::LeaderElected { epoch, .. } = e.event {
                by_epoch.entry(epoch).or_insert(i);
            }
        }
        let mut out: Vec<Failover> = Vec::new();
        for (&epoch, &i) in &by_epoch {
            let e = self.records[i];
            let CtrlEvent::LeaderElected { leader, slot, .. } = e.event else {
                continue;
            };
            let chosen_at = self
                .records
                .iter()
                .find(|x| matches!(x.event, CtrlEvent::Chosen { slot: s, .. } if s == slot))
                .map(|x| x.time);
            // The winner's latest campaign start at or before the win.
            let election = self.records[..=i]
                .iter()
                .rev()
                .find(|x| x.node == leader && matches!(x.event, CtrlEvent::ElectionStart { .. }));
            let election_start = election.map(|x| x.time);
            let horizon = election_start.unwrap_or(e.time);
            let suspect = self.records.iter().rev().find(|x| {
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
        let mut open: HashMap<(RegId, Key), MigrationTimeline> = HashMap::new();
        let mut done: Vec<MigrationTimeline> = Vec::new();
        for e in self.records {
            match e.event {
                CtrlEvent::MigBegin {
                    reg,
                    start,
                    from,
                    to,
                    epoch,
                } => {
                    if let Some(prev) = open.insert(
                        (reg, start),
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
                CtrlEvent::MigDualOwner {
                    reg, start, pass, ..
                } => {
                    if let Some(m) = open.get_mut(&(reg, start)) {
                        m.dual_owner_at = Some(e.time);
                        m.passes = pass;
                    }
                }
                CtrlEvent::MigCommit { reg, start, .. } => {
                    if let Some(mut m) = open.remove(&(reg, start)) {
                        m.commit_at = Some(e.time);
                        done.push(m);
                    }
                }
                CtrlEvent::MigAbort {
                    reg, start, reason, ..
                } => {
                    if let Some(mut m) = open.remove(&(reg, start)) {
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
        self.records
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

    /// The last `n` records at or before `at`, rendered as human lines
    /// (oracle violations attach these as pre-violation context).
    pub fn tail_strings_at(&self, at: SimTime, n: usize) -> Vec<String> {
        let upto = self.records.partition_point(|e| e.time <= at);
        let skip = upto.saturating_sub(n);
        self.records[skip..upto]
            .iter()
            .map(|e| format!("[{} ns] n{} {}", e.time.0, e.node.0, e.event))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swishmem_simnet::journal::ABORT_DEST_FAILED;

    fn rec(time: u64, node: u16, event: CtrlEvent) -> JournalRecord {
        JournalRecord {
            time: SimTime(time),
            node: NodeId(node),
            event,
        }
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
            // Another replica's later suspicion is not the winner's.
            rec(
                1_050,
                u16::MAX - 2,
                CtrlEvent::Suspect {
                    target: NodeId(u16::MAX),
                    silence_ns: 450,
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
        let j = Journal::new(&records);
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
            // A second range opens while the first is still in flight.
            rec(
                25,
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
                30,
                0,
                CtrlEvent::MigCommit {
                    reg: 1,
                    start: 0,
                    epoch: 2,
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
        let j = Journal::new(&records);
        let m = j.migrations();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].window(), Some(20));
        assert_eq!(m[0].dual_owner_window(), Some(10));
        assert_eq!(m[0].passes, 2);
        assert_eq!(m[1].abort_reason, Some(ABORT_DEST_FAILED));
        assert_eq!(m[1].window(), Some(25));
        assert!(m[1].dual_owner_window().is_none());
    }

    #[test]
    fn tail_strings_bound_and_render() {
        let records: Vec<JournalRecord> = (0..5u64)
            .map(|i| rec(i * 10, 9, CtrlEvent::Learned { slot: i }))
            .collect();
        let j = Journal::new(&records);
        let tail = j.tail_strings_at(SimTime(100), 2);
        assert_eq!(
            tail,
            ["[30 ns] n9 learned slot 3", "[40 ns] n9 learned slot 4"]
        );
        let at = j.tail_strings_at(SimTime(25), 10);
        assert_eq!(at.len(), 3, "{at:?}");
    }
}
