//! What the event loop in `core.rs` pops: event payloads, flat queue
//! entries, and the slab-backed two-tier priority queue.
//!
//! The queue orders events by a 128-bit `(time, key)` pair. The
//! `Simulator` keys every event with its insertion sequence number, so
//! keys are unique and the pop order is one total order, independent of
//! how the queue's tiers happen to hold the entries.

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
    },
    LinkDegrade {
        a: NodeId,
        b: NodeId,
        overlay: LinkOverlay,
    },
    LinkRestore {
        a: NodeId,
        b: NodeId,
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

/// Flat queue entry: the payload stays in the slab, so sifting and
/// re-bucketing move 24 bytes regardless of how large the packet inside
/// the event is.
#[derive(Clone, Copy)]
struct HeapEntry {
    time: u64,
    key: u64,
    idx: u32,
}

/// Ask the CPU to start loading every cache line of `*v`, without
/// waiting for them. A hint only: it changes no value and no order of
/// events. An 88-byte slot can straddle three 64-byte lines; one fetch
/// every 64 bytes plus one at the last byte touches each of them.
#[inline(always)]
fn prefetch<T>(v: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p: *const i8 = (v as *const T).cast();
        let size = std::mem::size_of::<T>();
        // SAFETY: a prefetch never faults and never writes, whatever the
        // address, and SSE is part of the x86_64 baseline.
        unsafe {
            for off in (0..size).step_by(64) {
                _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(off));
            }
            _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(size - 1));
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = v;
}

impl HeapEntry {
    /// `(time, key)` packed into one integer, so ordering two entries is
    /// a single branch-free compare instead of a two-step tuple compare.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.time) << 64) | u128::from(self.key)
    }

    /// The time epoch the entry falls in: the far tier's radix.
    #[inline]
    fn epoch(&self) -> u64 {
        self.time >> EPOCH_SHIFT
    }
}

/// Near-heap fan-out. Four children per node halves the depth of a binary
/// heap, and picking the least of four siblings is a two-round tournament
/// of branch-free compares.
const ARITY: usize = 4;
const _: () = assert!(ARITY == 4, "sift_down's tournament is unrolled for four");

/// An epoch is `2^EPOCH_SHIFT` ns (≈8 µs). The width trades near-heap
/// depth against how often an entry re-buckets, and the optimum is flat:
/// on the `fabric_fwd` benchmark (2-core Xeon) 2^6 and 2^16 ns ran within
/// noise of 2^13, and 2^16 ns read 10 MB more peak RSS.
const EPOCH_SHIFT: u32 = 13;
/// One far-tier bucket per bit an epoch can first differ from `cur` in.
const BUCKETS: usize = 64;
/// Far-tier entries per arena chunk.
const CHUNK: usize = 32;
/// The end of a bucket's chunk list.
const NIL: u32 = u32::MAX;

/// A block of far-tier entries, linked into one bucket's list. Every chunk
/// of a list is full but its head, the one pushes fill.
struct Chunk {
    entries: [HeapEntry; CHUNK],
    len: u32,
    next: u32,
}

/// Two-tier min-queue over `(time, key)` with slab-allocated payloads: a
/// small exact heap for the current time epoch in front of radix buckets
/// keyed by epoch. This is the shape of the radix heap (Ahuja, Mehlhorn,
/// Orlin & Tarjan, JACM 1990) and of the ladder queue's bottom rung (Tang,
/// Goh & Thng, TOMACS 2005).
///
/// - **Near tier**: a 4-ary heap of every entry whose epoch is at most
///   `cur`. A push into the current or an earlier epoch lands here, so an
///   injection at `now` needs no special path.
/// - **Far tier**: an entry with epoch `ep > cur` waits in bucket
///   `63 − lz(ep ^ cur)`, the highest bit where `ep` and `cur` differ;
///   `mask` marks the non-empty buckets.
/// - **Refill**: when the near heap empties, the lowest non-empty bucket
///   opens: `cur` becomes its least epoch, that epoch's entries move into
///   the near heap and the rest re-bucket strictly lower. Every higher
///   bucket stays valid, because the new `cur` agrees with the old one on
///   all bits above the opened bucket's. Refill is eager, so the near
///   heap's root is always the queue's minimum and `peek_time` borrows.
///
/// `(time, key)` pairs are unique, so the pop order is the one total order
/// over them whatever the tiers' shapes: arity, epoch width and chunk size
/// are pure performance knobs, invisible to determinism fingerprints.
///
/// Why two tiers: a single heap 200k entries deep walks 9 levels per pop,
/// the bottom ones missing L2 one after another. The near heap holds only
/// the open epoch (on `fabric_fwd`, about 23k of 204,800 entries), and
/// an entry only ever re-buckets lower, in sequential chunk scans. A timer
/// wheel would cover the six orders of magnitude between serialization
/// gaps and CP timers only hierarchically, and a pure radix heap over
/// `(time, key)` refills on every pop because keys are unique.
///
/// Far-tier storage is one pooled chunk arena with a free list, like the
/// payload slab, rather than a `Vec` per bucket: as the clock advances,
/// entries carry into bucket bits they never used before, and per-bucket
/// vectors would allocate afresh at a depth the queue already reached.
pub(crate) struct EventQueue {
    near: Vec<HeapEntry>,
    cur: u64,
    heads: [u32; BUCKETS],
    mask: u64,
    chunks: Vec<Chunk>,
    free_chunks: Vec<u32>,
    slab: Vec<EventKind>,
    free: Vec<u32>,
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue {
            near: Vec::new(),
            cur: 0,
            heads: [NIL; BUCKETS],
            mask: 0,
            chunks: Vec::new(),
            free_chunks: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl EventQueue {
    /// Pending events in both tiers: every one holds a slab slot.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Refill is eager, so an empty near heap means an empty queue.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.near.is_empty()
    }

    #[inline]
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.near.first().map(|e| SimTime(e.time))
    }

    pub(crate) fn push(&mut self, time: SimTime, key: u64, kind: EventKind) {
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = kind;
                i
            }
            None => {
                self.slab.push(kind);
                self.reserve_chunks();
                (self.slab.len() - 1) as u32
            }
        };
        let e = HeapEntry {
            time: time.nanos(),
            key,
            idx,
        };
        if self.near.is_empty() {
            // The queue is empty: the entry's own epoch opens.
            self.cur = e.epoch();
        }
        self.place(e);
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, EventKind)> {
        let last = self.near.pop()?;
        let top = match self.near.first() {
            Some(&top) => {
                self.sift_down_from_root(last);
                top
            }
            None => {
                if self.mask != 0 {
                    self.refill();
                }
                last
            }
        };
        let kind = std::mem::replace(&mut self.slab[top.idx as usize], EventKind::Vacant);
        self.free.push(top.idx);
        if let Some(next) = self.near.first() {
            // The root is the next event to pop. Its payload was written
            // about one queue depth of events ago and has long left the
            // cache; fetching it now overlaps the miss with this event's
            // processing instead of stalling the next pop on it.
            prefetch(&self.slab[next.idx as usize]);
        }
        Some((SimTime(top.time), top.key, kind))
    }

    /// The slab just grew to a depth the queue never reached before:
    /// reserve the chunk arena for that depth too, so no later push or
    /// refill allocates at a depth already reached. Every chunk is full but
    /// the head of its list, and there are at most `BUCKETS` lists (during
    /// a refill, the opened one among them), so `n` far entries occupy at
    /// most `n / CHUNK + BUCKETS` chunks. A refill frees a chunk only after
    /// reading it, so the entries it has already moved count twice; they
    /// still fit, since either that chunk is the opened list's partly
    /// filled head or the list has none left.
    fn reserve_chunks(&mut self) {
        let want = self.slab.len() / CHUNK + BUCKETS;
        if self.chunks.capacity() < want {
            self.chunks.reserve(want - self.chunks.len());
            self.free_chunks.reserve(want - self.free_chunks.len());
        }
    }

    /// File `e` in the near heap if its epoch is open, else in its bucket.
    #[inline]
    fn place(&mut self, e: HeapEntry) {
        let ep = e.epoch();
        if ep <= self.cur {
            self.near.push(e);
            self.sift_up(self.near.len() - 1);
            return;
        }
        let b = 63 - (ep ^ self.cur).leading_zeros() as usize;
        let mut head = self.heads[b];
        if head == NIL || self.chunks[head as usize].len as usize == CHUNK {
            head = match self.free_chunks.pop() {
                Some(c) => {
                    // A reused chunk's stale entries lie past `len`, unread.
                    let chunk = &mut self.chunks[c as usize];
                    (chunk.len, chunk.next) = (0, head);
                    c
                }
                None => {
                    self.chunks.push(Chunk {
                        entries: [e; CHUNK],
                        len: 0,
                        next: head,
                    });
                    (self.chunks.len() - 1) as u32
                }
            };
            self.heads[b] = head;
            self.mask |= 1 << b;
        }
        let chunk = &mut self.chunks[head as usize];
        chunk.entries[chunk.len as usize] = e;
        chunk.len += 1;
    }

    /// Open the least non-empty epoch into the empty near heap.
    fn refill(&mut self) {
        let b = self.mask.trailing_zeros() as usize;
        self.mask &= !(1 << b);
        let head = std::mem::replace(&mut self.heads[b], NIL);
        let mut least = u64::MAX;
        let mut c = head;
        while c != NIL {
            let chunk = &self.chunks[c as usize];
            for e in &chunk.entries[..chunk.len as usize] {
                least = least.min(e.epoch());
            }
            c = chunk.next;
        }
        self.cur = least;
        // Every entry lands in the near heap or a bucket below `b`. The
        // chunk being read joins the free list only once it has been read,
        // so no placement can overwrite it.
        let mut c = head;
        while c != NIL {
            let Chunk { len, next, .. } = self.chunks[c as usize];
            for i in 0..len as usize {
                self.place(self.chunks[c as usize].entries[i]);
            }
            self.free_chunks.push(c);
            c = next;
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.near[i];
        let ek = e.key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.near[parent].key() <= ek {
                break;
            }
            self.near[i] = self.near[parent];
            i = parent;
        }
        self.near[i] = e;
    }

    /// Fill the hole at the root with `e`, which is not in the heap: it is
    /// carried down in registers and stored once, where it lands.
    fn sift_down_from_root(&mut self, e: HeapEntry) {
        let heap = &mut self.near[..];
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
    use std::collections::BTreeSet;

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
        // Events pushed in any order pop identically, because
        // `(time, key)` pairs are unique.
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

    /// Every pop is the least pending `(time, key)` of a sorted reference,
    /// and `len` / `peek_time` agree with it after every operation. Pushes
    /// mix ties at the current instant, steps that straddle epoch
    /// boundaries, spans of many epochs, timers 2^40 ns and more ahead and
    /// times near `u64::MAX / 2`; at the current instant half the pushes
    /// carry a key below the last popped one, which the engine never does
    /// but the queue's order must not depend on.
    /// Each round drains to empty, so the next round's first push lands
    /// in an empty queue and opens its own epoch.
    #[test]
    fn pops_match_a_sorted_reference_across_epochs_and_tiers() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let epoch = 1u64 << EPOCH_SHIFT;
        let mut q = EventQueue::default();
        let mut reference = BTreeSet::new();
        let (mut now, mut last_key) = (0u64, 0u64);
        let mut pops = 0;
        for _round in 0..6 {
            for _ in 0..10_000 {
                if next() % 5 < 2 {
                    if let Some(popped) = pop_checked(&mut q, &mut reference) {
                        (now, last_key) = popped;
                        pops += 1;
                    }
                    continue;
                }
                let time = match next() % 8 {
                    0 => now,
                    1 => now + next() % 16,
                    2 => (now | (epoch - 1)) + next() % 8,
                    3 => now + next() % (64 * epoch),
                    4 => now + (1 << 40) + next() % (1 << 42),
                    5 => u64::MAX / 2 - next() % (4 * epoch),
                    _ => now + next() % epoch,
                };
                let key = if time == now && next() % 2 == 0 {
                    next() % last_key.max(1)
                } else {
                    next()
                };
                if !reference.insert((time, key)) {
                    continue;
                }
                let token = key;
                let node = NodeId(0);
                q.push(SimTime(time), key, EventKind::Timer { node, token });
                check_against(&q, &reference);
            }
            while let Some(popped) = pop_checked(&mut q, &mut reference) {
                (now, last_key) = popped;
                pops += 1;
            }
            assert!(q.is_empty());
        }
        assert!(pops > 30_000, "only {pops} pops");
    }

    /// Pop one entry, check it is the reference's least and carries its
    /// own payload, and return it.
    fn pop_checked(q: &mut EventQueue, reference: &mut BTreeSet<(u64, u64)>) -> Option<(u64, u64)> {
        let popped = q.pop().map(|(t, k, kind)| {
            let EventKind::Timer { token, .. } = kind else {
                panic!("only timers were pushed");
            };
            assert_eq!(token, k, "payload stayed with its entry");
            (t.nanos(), k)
        });
        assert_eq!(popped, reference.pop_first());
        check_against(q, reference);
        popped
    }

    fn check_against(q: &EventQueue, reference: &BTreeSet<(u64, u64)>) {
        assert_eq!(q.len(), reference.len());
        let least = reference.first().map(|&(t, _)| SimTime(t));
        assert_eq!(q.peek_time(), least);
    }
}
