//! Property tests for the core abstractions: the EWO merge policies'
//! lattice laws, checked exhaustively on the `join` the data path runs,
//! version ordering, LWW convergence irrespective of delivery order, and
//! the switch clock.

use proptest::prelude::*;
use swishmem::version::{pack, unpack, SwitchClock};
use swishmem::{ClockMode, MergePolicy};
use swishmem_simnet::{SimDuration, SimTime};
use swishmem_wire::NodeId;

type Cell = (u64, u64);

const GC: MergePolicy = MergePolicy::GCounter;
const LWW: MergePolicy = MergePolicy::Lww;
const WIN: MergePolicy = MergePolicy::Windowed {
    window: SimDuration(10),
};

/// Check `law` on every triple of cells with versions in 0..4 and values
/// in 0..5. For LWW only triples whose equal versions carry equal values
/// count: deployed versions are unique (`version::pack`), and LWW's join
/// is order-sensitive only on the states the system never produces.
fn exhaustively(p: MergePolicy, law: fn(MergePolicy, Cell, Cell, Cell) -> bool) {
    let cells: Vec<Cell> = (0..4).flat_map(|v| (0..5).map(move |x| (v, x))).collect();
    let unique = |a: Cell, b: Cell| a.0 != b.0 || a == b;
    for &a in &cells {
        for &b in &cells {
            for &c in &cells {
                let seen = p != LWW || (unique(a, b) && unique(b, c) && unique(a, c));
                assert!(
                    !seen || law(p, a, b, c),
                    "{p:?}: law fails on {a:?} {b:?} {c:?}"
                );
            }
        }
    }
}

/// The policy's order, stated apart from `join`: element-wise for the
/// G-counter, lexicographic for Windowed, by version for LWW.
fn leq(p: MergePolicy, a: Cell, b: Cell) -> bool {
    match p {
        MergePolicy::GCounter => a.0 <= b.0 && a.1 <= b.1,
        MergePolicy::Windowed { .. } => a <= b,
        MergePolicy::Lww => a.0 < b.0 || a == b,
    }
}

fn commutative(p: MergePolicy, a: Cell, b: Cell, _: Cell) -> bool {
    p.join(a, b) == p.join(b, a)
}

fn associative(p: MergePolicy, a: Cell, b: Cell, c: Cell) -> bool {
    p.join(p.join(a, b), c) == p.join(a, p.join(b, c))
}

fn idempotent(p: MergePolicy, a: Cell, _: Cell, _: Cell) -> bool {
    p.join(a, a) == a
}

fn upper_bound(p: MergePolicy, a: Cell, b: Cell, _: Cell) -> bool {
    leq(p, a, p.join(a, b)) && leq(p, b, p.join(a, b))
}

// ---- G-counter lattice laws ----

#[test]
fn gcounter_merge_commutative() {
    exhaustively(GC, commutative);
}

#[test]
fn gcounter_merge_associative() {
    exhaustively(GC, associative);
}

#[test]
fn gcounter_merge_idempotent() {
    exhaustively(GC, idempotent);
}

#[test]
fn gcounter_merge_monotone() {
    exhaustively(GC, upper_bound);
    // The read of a 3-switch slot vector never drops under join below
    // either input's.
    let cells: Vec<Cell> = (0..3).flat_map(|v| (0..3).map(move |x| (v, x))).collect();
    let mut vectors = Vec::new();
    for &x in &cells {
        for &y in &cells {
            vectors.extend(cells.iter().map(|&z| [x, y, z]));
        }
    }
    for a in &vectors {
        for b in &vectors {
            let joined: [Cell; 3] = std::array::from_fn(|i| GC.join(a[i], b[i]));
            let read = GC.read(joined, SimTime::ZERO);
            let floor = GC.read(*a, SimTime::ZERO).max(GC.read(*b, SimTime::ZERO));
            assert!(read >= floor, "{a:?} joined {b:?} read lower");
        }
    }
}

// ---- Windowed and LWW lattice laws ----

#[test]
fn windowed_merge_commutative_and_monotone() {
    exhaustively(WIN, commutative);
    exhaustively(WIN, upper_bound);
}

#[test]
fn windowed_merge_associative_and_idempotent() {
    exhaustively(WIN, associative);
    exhaustively(WIN, idempotent);
}

#[test]
fn lww_merge_is_a_semilattice_on_unique_versions() {
    for law in [commutative, associative, idempotent, upper_bound] {
        exhaustively(LWW, law);
    }
}

proptest! {
    // ---- LWW convergence regardless of delivery order ----

    #[test]
    fn lww_any_delivery_order_converges(
        raw_writes in prop::collection::vec((0u64..1000, any::<u64>()), 1..12),
        perm_seed in any::<u64>(),
    ) {
        // Deployed versions are unique by construction (timestamp +
        // switch-id tiebreak, crate::version::pack); mirror that here —
        // duplicate versions with different values would make merge order
        // observable, a state the system never produces.
        let writes: Vec<Cell> = raw_writes
            .iter()
            .enumerate()
            .map(|(i, &(version, value))| (version * 16 + i as u64, value))
            .collect();
        // Replica A receives writes in order, replica B in a permutation.
        let mut order2 = writes.clone();
        let n = order2.len();
        let mut s = perm_seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            order2.swap(i, j);
        }
        let a = writes.iter().fold((0, 0), |cell, &w| LWW.join(cell, w));
        let b = order2.iter().fold((0, 0), |cell, &w| LWW.join(cell, w));
        prop_assert_eq!(a, b, "LWW must be order-insensitive");
        // And the survivor is the max-version write.
        let top = writes.iter().max_by_key(|w| w.0).unwrap();
        if top.0 > 0 {
            prop_assert_eq!(a.0, top.0);
        }
    }

    // ---- Version packing ----

    #[test]
    fn version_pack_unpack_round_trip(stamp in 0u64..(1 << 54), id in 0u16..1024) {
        let v = pack(stamp, NodeId(id));
        prop_assert_eq!(unpack(v), (stamp, NodeId(id)));
    }

    #[test]
    fn versions_totally_ordered_by_stamp_then_id(
        s1 in 0u64..(1 << 40), id1 in 0u16..1024,
        s2 in 0u64..(1 << 40), id2 in 0u16..1024,
    ) {
        let v1 = pack(s1, NodeId(id1));
        let v2 = pack(s2, NodeId(id2));
        if s1 != s2 {
            prop_assert_eq!(v1 < v2, s1 < s2);
        } else if id1 != id2 {
            prop_assert_eq!(v1 < v2, id1 < id2);
        } else {
            prop_assert_eq!(v1, v2);
        }
    }

    #[test]
    fn clock_versions_strictly_increase(
        times in prop::collection::vec(0u64..1_000_000, 1..50),
        lamport in any::<bool>(),
    ) {
        let mode = if lamport { ClockMode::Lamport } else { ClockMode::Synced { max_skew_ns: 10 } };
        let mut clock = SwitchClock::new(NodeId(1), mode, 5);
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let mut last = 0;
        for t in sorted {
            let v = clock.next_version(swishmem_simnet::SimTime(t));
            prop_assert!(v > last, "clock must be strictly monotonic");
            last = v;
        }
    }
}
