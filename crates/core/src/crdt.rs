//! The one definition of each EWO merge policy's cell behaviour (§6.2).
//!
//! An EWO register keeps `slots` `(version, value)` pair cells per key.
//! Every EWO site goes through the methods here: the local update
//! `apply_ewo` applies (`update`), the sync merge ([`MergePolicy::join`]),
//! and both read paths, the NF's and the management plane's
//! ([`MergePolicy::read`]). The lattice-law tests check `join` itself, so
//! the laws hold of the merge that runs.
//!
//! Counter arithmetic wraps, as a 64-bit register ALU does: a forged sync
//! entry carrying `u64::MAX` wraps a read or the next add, and never
//! panics the switch.

use crate::config::MergePolicy;
use crate::version::SwitchClock;
use swishmem_simnet::{SimDuration, SimTime};
use swishmem_wire::swish::WriteOp;

/// The window epoch `now` falls in.
fn epoch_at(window: SimDuration, now: SimTime) -> u64 {
    now.nanos() / window.as_nanos().max(1)
}

impl MergePolicy {
    /// Pair cells per key on `n_switches` switches: LWW keeps one shared
    /// cell, the counters one slot per switch.
    pub(crate) fn slots(self, n_switches: usize) -> usize {
        match self {
            MergePolicy::Lww => 1,
            MergePolicy::GCounter | MergePolicy::Windowed { .. } => n_switches,
        }
    }

    /// The slot switch `writer`'s updates land in: LWW's one shared cell,
    /// or the writer's own counter slot.
    pub(crate) fn slot_of(self, writer: usize) -> usize {
        match self {
            MergePolicy::Lww => 0,
            MergePolicy::GCounter | MergePolicy::Windowed { .. } => writer,
        }
    }

    /// Feed a received version to the switch clock. LWW versions are clock
    /// stamps, which a Lamport clock must stay ahead of; counter versions
    /// are bump counts and epochs, which it ignores.
    pub(crate) fn observe(self, clock: &mut SwitchClock, version: u64) {
        if self == MergePolicy::Lww {
            clock.observe(version);
        }
    }

    /// Whether a received cell `version` can be real at `now`: sim time
    /// only moves forward, so a Windowed epoch past `now`'s is forged.
    pub(crate) fn admits(self, version: u64, now: SimTime) -> bool {
        match self {
            MergePolicy::Windowed { window } => version <= epoch_at(window, now),
            _ => true,
        }
    }

    /// Join a received cell into the local one (their least upper bound).
    /// LWW keeps the higher version, the local cell on a tie; the G-counter
    /// takes the element-wise max ("a switch simply takes the larger of the
    /// local and received value for each element"); Windowed takes the
    /// lexicographic max, so a newer epoch supersedes and counts within an
    /// epoch merge by max.
    pub fn join(self, local: (u64, u64), incoming: (u64, u64)) -> (u64, u64) {
        match self {
            MergePolicy::Lww if incoming.0 > local.0 => incoming,
            MergePolicy::Lww => local,
            MergePolicy::GCounter => (local.0.max(incoming.0), local.1.max(incoming.1)),
            MergePolicy::Windowed { .. } => local.max(incoming),
        }
    }

    /// The register's value from its cells, in slot order, at `now`: LWW
    /// reads slot 0, the G-counter sums every slot, Windowed sums the slots
    /// in `now`'s epoch.
    pub fn read(self, cells: impl IntoIterator<Item = (u64, u64)>, now: SimTime) -> u64 {
        let mut cells = cells.into_iter();
        match self {
            MergePolicy::Lww => cells.next().map_or(0, |(_, x)| x),
            MergePolicy::GCounter => cells.fold(0, |sum, (_, x)| sum.wrapping_add(x)),
            MergePolicy::Windowed { window } => {
                let epoch = epoch_at(window, now);
                let current = cells.filter(|&(e, _)| e == epoch);
                current.fold(0, |sum, (_, c)| sum.wrapping_add(c))
            }
        }
    }

    /// The cell a local `op` at `now` leaves in this switch's own slot, or
    /// `None` for an op the policy does not take: counters only add, and
    /// LWW only sets (`NfCtx::add` stages an LWW add as a `Set`). The
    /// G-counter bumps `(version + 1, count + δ)`; Windowed adds δ within
    /// the cell's epoch and restarts the count at δ once `now`'s epoch is
    /// newer; LWW stamps the value with the next clock version.
    pub(crate) fn update(
        self,
        (v, x): (u64, u64),
        op: WriteOp,
        now: SimTime,
        clock: &mut SwitchClock,
    ) -> Option<(u64, u64)> {
        match (self, op) {
            (MergePolicy::Lww, WriteOp::Set(value)) => Some((clock.next_version(now), value)),
            (MergePolicy::Lww, WriteOp::Add(_)) | (_, WriteOp::Set(_)) => None,
            (MergePolicy::GCounter, WriteOp::Add(d)) => {
                Some((v.wrapping_add(1), x.wrapping_add(d as u64)))
            }
            (MergePolicy::Windowed { window }, WriteOp::Add(d)) => {
                let epoch = epoch_at(window, now);
                Some(if epoch > v {
                    (epoch, d as u64)
                } else {
                    (v, x.wrapping_add(d as u64))
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClockMode;
    use swishmem_wire::NodeId;

    const GC: MergePolicy = MergePolicy::GCounter;
    const LWW: MergePolicy = MergePolicy::Lww;
    const WIN: MergePolicy = MergePolicy::Windowed {
        window: SimDuration(10),
    };

    fn add(p: MergePolicy, cell: (u64, u64), d: i64, at_ns: u64) -> (u64, u64) {
        let mut clock = SwitchClock::new(NodeId(0), ClockMode::Lamport, 0);
        p.update(cell, WriteOp::Add(d), SimTime(at_ns), &mut clock)
            .unwrap()
    }

    #[test]
    fn gcounter_concurrent_increments_all_survive() {
        // Switch 0 adds 5 in its slot, switch 1 adds 7 in its own.
        let a = [add(GC, (0, 0), 5, 0), (0, 0)];
        let b = [(0, 0), add(GC, (0, 0), 7, 0)];
        assert_eq!(a[0], (1, 5));
        let joined = [GC.join(a[0], b[0]), GC.join(a[1], b[1])];
        assert_eq!(joined, [GC.join(b[0], a[0]), GC.join(b[1], a[1])]);
        assert_eq!(GC.read(joined, SimTime::ZERO), 12);
    }

    #[test]
    fn gcounter_merge_idempotent() {
        let a = add(GC, (2, 3), 4, 0);
        assert_eq!(GC.join(a, a), a);
    }

    #[test]
    fn gcounter_monotone_under_merge() {
        // A stale view of the slot never lowers the count.
        assert_eq!(GC.join((3, 10), (2, 4)), (3, 10));
        assert_eq!(GC.read([GC.join((3, 10), (2, 4))], SimTime::ZERO), 10);
    }

    #[test]
    fn lww_higher_version_wins_regardless_of_order() {
        assert_eq!(LWW.join((5, 100), (9, 200)), (9, 200));
        assert_eq!(LWW.join((9, 200), (5, 100)), (9, 200));
    }

    #[test]
    fn lww_stale_write_ignored() {
        assert_eq!(LWW.join((9, 200), (5, 100)), (9, 200));
        // An equal version keeps the local cell.
        assert_eq!(LWW.join((9, 200), (9, 1)), (9, 200));
    }

    #[test]
    fn lww_reads_only_slot_0() {
        assert_eq!(LWW.read([(1, 5), (2, 7)], SimTime::ZERO), 5);
        assert_eq!(LWW.slots(4), 1);
    }

    #[test]
    fn windowed_epoch_roll_resets_count() {
        // A 10 ns window: 15 ns is epoch 1, 25 ns epoch 2.
        let c = add(WIN, add(WIN, (0, 0), 10, 15), 5, 15);
        assert_eq!(c, (1, 15));
        assert_eq!(WIN.read([c], SimTime(15)), 15);
        let rolled = add(WIN, c, 3, 25);
        assert_eq!(rolled, (2, 3));
        // A slot from a past epoch reads 0.
        assert_eq!(WIN.read([c, rolled], SimTime(25)), 3);
        assert_eq!(WIN.read([c], SimTime(25)), 0);
    }

    #[test]
    fn windowed_merge_same_epoch_takes_max() {
        assert_eq!(WIN.join((3, 10), (3, 7)), (3, 10));
        assert_eq!(WIN.join((3, 10), (4, 1)), (4, 1));
    }
}
