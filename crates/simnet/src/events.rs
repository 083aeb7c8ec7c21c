//! What the event loop in `core.rs` pops: event payloads, flat heap
//! entries, and the slab-backed priority queue.
//!
//! The queue orders events by a 128-bit `(time, key)` pair. In the
//! global-RNG regime (`Simulator`, one shard) the key is a single
//! insertion sequence; with `S ≥ 2` shards keys are origin-derived (see
//! `shard.rs`) and unique across shards, so the pop order of any queue —
//! and of any merge of per-shard outputs — is a total order independent
//! of insertion order.

use crate::fault::LinkOverlay;
use crate::time::SimTime;
use swishmem_wire::{NodeId, Packet};

/// One scheduled simulation event.
#[derive(Debug)]
pub(crate) enum EventKind {
    Deliver {
        to: NodeId,
        pkt: Packet,
        corrupt: bool,
        /// `pkt.wire_len()`, computed once when the frame was sent.
        len: u32,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Fail {
        node: NodeId,
    },
    Recover {
        node: NodeId,
    },
    LinkSet {
        a: NodeId,
        b: NodeId,
        down: bool,
        /// Whether processing this event reports it to observers. Always
        /// true under `Simulator`; the sharded engine schedules a link
        /// event into both endpoint-owning shards and marks exactly one
        /// copy as the observable one.
        notify: bool,
    },
    LinkDegrade {
        a: NodeId,
        b: NodeId,
        overlay: LinkOverlay,
        notify: bool,
    },
    LinkRestore {
        a: NodeId,
        b: NodeId,
        notify: bool,
    },
    /// Slab slot whose payload was popped (free-listed).
    Vacant,
}

// Every event is moved into and out of a slab slot of this size. The
// widest variant is `LinkDegrade` (its inline `LinkOverlay` is 80 bytes);
// `Deliver` must stay within it.
const _: () = assert!(
    std::mem::size_of::<EventKind>() <= 88,
    "EventKind outgrew its 88-byte slab slot"
);

/// Flat heap entry: the payload stays in the slab, so sifting moves 24
/// bytes regardless of how large the packet inside the event is.
#[derive(Clone, Copy)]
struct HeapEntry {
    time: u64,
    key: u64,
    idx: u32,
}

impl HeapEntry {
    /// `(time, key)` packed into one integer, so ordering two entries is
    /// a single branch-free compare instead of a two-step tuple compare.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.time) << 64) | u128::from(self.key)
    }
}

/// Heap fan-out. Four children per node halves the depth of a binary heap
/// (18 → 9 levels at a 200k-deep queue), and picking the least of four
/// siblings is a two-round tournament of branch-free compares.
const ARITY: usize = 4;
const _: () = assert!(ARITY == 4, "sift_down's tournament is unrolled for four");

/// 4-ary min-heap over `(time, key)` with slab-allocated payloads.
///
/// `(time, key)` pairs are unique, so the pop order is the one total order
/// over them whatever the heap's shape: arity is a pure performance knob,
/// invisible to determinism fingerprints.
///
/// Chosen over a timer wheel by measurement: event delays span nanosecond
/// serialization gaps to millisecond CP timers (six orders of magnitude),
/// which a wheel only covers hierarchically, and flattening the heap
/// entries already removes the dominant cost (moving packet-sized events
/// during sifts). Chosen over the binary heap it replaced by measurement
/// too: pops dominate, and a pop's sift-down walks the full depth.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: Vec<HeapEntry>,
    slab: Vec<EventKind>,
    free: Vec<u32>,
}

impl EventQueue {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    #[inline]
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| SimTime(e.time))
    }

    pub(crate) fn push(&mut self, time: SimTime, key: u64, kind: EventKind) {
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = kind;
                i
            }
            None => {
                self.slab.push(kind);
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(HeapEntry {
            time: time.nanos(),
            key,
            idx,
        });
        self.sift_up(self.heap.len() - 1);
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, EventKind)> {
        let last = self.heap.pop()?;
        let top = match self.heap.first() {
            Some(&top) => {
                self.sift_down_from_root(last);
                top
            }
            None => last,
        };
        let kind = std::mem::replace(&mut self.slab[top.idx as usize], EventKind::Vacant);
        self.free.push(top.idx);
        Some((SimTime(top.time), top.key, kind))
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        let ek = e.key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= ek {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = e;
    }

    /// Fill the hole at the root with `e`, which is not in the heap: it is
    /// carried down in registers and stored once, where it lands.
    fn sift_down_from_root(&mut self, e: HeapEntry) {
        let heap = &mut self.heap[..];
        let n = heap.len();
        let mut i = 0;
        let ek = e.key();
        loop {
            let first = ARITY * i + 1;
            let (child, ck) = if first + ARITY <= n {
                // Full node: one bounds check for the four siblings, then
                // the tournament, each winner carrying its key along.
                let c = &heap[first..first + ARITY];
                let k = [c[0].key(), c[1].key(), c[2].key(), c[3].key()];
                let (a, ka) = if k[1] < k[0] {
                    (first + 1, k[1])
                } else {
                    (first, k[0])
                };
                let (b, kb) = if k[3] < k[2] {
                    (first + 3, k[3])
                } else {
                    (first + 2, k[2])
                };
                if kb < ka {
                    (b, kb)
                } else {
                    (a, ka)
                }
            } else if first < n {
                // The last, partly filled node (its children are leaves).
                let tail = heap[first..].iter().map(HeapEntry::key).zip(first..);
                let (ck, child) = tail.min().expect("first < n");
                (child, ck)
            } else {
                break;
            };
            if ek <= ck {
                break;
            }
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_key_order() {
        let mut q = EventQueue::default();
        q.push(
            SimTime(30),
            0,
            EventKind::Timer {
                node: NodeId(0),
                token: 3,
            },
        );
        q.push(
            SimTime(10),
            5,
            EventKind::Timer {
                node: NodeId(0),
                token: 1,
            },
        );
        q.push(
            SimTime(10),
            2,
            EventKind::Timer {
                node: NodeId(0),
                token: 0,
            },
        );
        q.push(
            SimTime(20),
            1,
            EventKind::Timer {
                node: NodeId(0),
                token: 2,
            },
        );
        let mut tokens = Vec::new();
        while let Some((_, _, EventKind::Timer { token, .. })) = q.pop() {
            tokens.push(token);
        }
        assert_eq!(tokens, vec![0, 1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_order_is_insertion_independent_for_unique_keys() {
        // The sharded engine relies on this: mail drained from peer
        // mailboxes in arbitrary arrival order still pops identically
        // because `(time, key)` pairs are globally unique.
        let events: Vec<(u64, u64)> = vec![(5, 9), (5, 1), (3, 7), (9, 0), (3, 2)];
        let mut orders = Vec::new();
        for rot in 0..events.len() {
            let mut q = EventQueue::default();
            for i in 0..events.len() {
                let (t, k) = events[(i + rot) % events.len()];
                q.push(
                    SimTime(t),
                    k,
                    EventKind::Timer {
                        node: NodeId(0),
                        token: k,
                    },
                );
            }
            let mut order = Vec::new();
            while let Some((t, k, _)) = q.pop() {
                order.push((t.nanos(), k));
            }
            orders.push(order);
        }
        for w in orders.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn pops_ten_thousand_interleaved_entries_in_sorted_order() {
        // Few distinct times (long runs of ties broken by key) and pops
        // interleaved with pushes. Like the engines, a push never lands
        // before the last pop — keys grow, so a tie with the popped time
        // still sorts after it — hence the whole pop sequence must equal
        // the sorted push sequence.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut q = EventQueue::default();
        let mut pushed = Vec::new();
        let mut popped = Vec::new();
        let mut floor = 0u64;
        for key in 0..10_000u64 {
            let time = floor + next() % 16;
            q.push(
                SimTime(time),
                key,
                EventKind::Timer {
                    node: NodeId(0),
                    token: key,
                },
            );
            pushed.push((time, key));
            if next() % 3 == 0 {
                for _ in 0..next() % 4 + 1 {
                    let Some((t, k, EventKind::Timer { token, .. })) = q.pop() else {
                        break;
                    };
                    assert_eq!(token, k, "payload stayed with its heap entry");
                    popped.push((t.nanos(), k));
                    floor = t.nanos();
                }
            }
        }
        while let Some((t, k, _)) = q.pop() {
            popped.push((t.nanos(), k));
        }
        pushed.sort_unstable();
        assert_eq!(popped.len(), 10_000);
        assert_eq!(popped, pushed);
    }
}
