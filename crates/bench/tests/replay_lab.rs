//! Smoke tests for the E24 replay-lab gates at CI scale: the replay
//! deployment's golden run, and ring ingest against generator-driven
//! injection. Every gate is exact; the full-size run (1M flows, five
//! scenario packs) lives in the experiment itself.
//!
//! A counting `#[global_allocator]` is armed only around each replay,
//! and only on the running thread, so the parallel test runner stays out
//! of the count (as in `trace_overhead.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

use swishmem::prelude::*;
use swishmem_bench::experiments::e24_replay_lab;
use swishmem_bench::scenarios::replay_deployment;
use swishmem_replay::{
    replay_digest, replay_trace, synth_trace_bytes, ReplayConfig, SynthConfig, TraceReader,
};

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only const-initialised
// thread-locals without destructors, which never allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.with(|c| c.set(c.get() + 1));
        }
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The core replay-lab contract at smoke scale, on the SwiShmem stack:
/// the same trace through the replay deployment yields the recorded
/// digest, record count, event count and end time, twice. No timing
/// involved, so this gate is exact.
#[test]
fn replay_matches_golden() {
    let cfg = SynthConfig {
        flows: 3_000,
        ingress: 3,
        ..SynthConfig::default()
    };
    let bytes = synth_trace_bytes(&cfg, 5);
    for _ in 0..2 {
        let mut dep = replay_deployment(24);
        let mut reader = TraceReader::new(Cursor::new(&bytes[..])).expect("synthesized trace");
        let start = dep.now() + SimDuration::millis(1);
        let cfg = ReplayConfig {
            start,
            ..ReplayConfig::default()
        };
        let stats = replay_trace(&mut dep, &mut reader, &cfg).expect("in-memory replay");
        dep.run_for(SimDuration::millis(10));
        assert_eq!(
            (
                replay_digest(&dep, 256),
                stats.records,
                dep.sim.events_processed(),
                dep.now().nanos()
            ),
            (0x2c3a_9fac_8dce_b0fd, 8_751, 35_590, 68_835_328),
            "replay diverged from the golden"
        );
    }
}

/// Allocations ring ingest makes beyond generator-driven injection of
/// the same trace: the ring itself. 1 measured (193 against 192), in
/// debug and release alike.
const RING_ALLOCS: u64 = 1;

/// One E24 replay of `bytes` on a fresh replay deployment, through the
/// ring or generator-driven: `(digest 10 ms on, events, wall ns,
/// allocations during the replay)`.
fn replay(bytes: &[u8], ring: bool) -> (u64, u64, u64, u64) {
    let mut dep = replay_deployment(7);
    ALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let (events, ns) = e24_replay_lab::timed_replay(&mut dep, bytes, ring);
    ARMED.with(|a| a.set(false));
    dep.run_for(SimDuration::millis(10));
    (replay_digest(&dep, 256), events, ns, ALLOCS.with(Cell::get))
}

/// Ring ingest reproduces generator-driven injection of the same trace:
/// the same events, the same digest, and the ring costs a fixed number
/// of allocations for its buffers, none per record. The wall-clock ratio
/// is printed, not asserted: it moves with host load (E24 reports it).
#[test]
fn ring_ingest_matches_generator_driven_exactly() {
    let cfg = SynthConfig {
        flows: 3_000,
        ingress: 3,
        ..SynthConfig::default()
    };
    let bytes = synth_trace_bytes(&cfg, 7);
    let (direct_digest, direct_events, direct_ns, direct_allocs) = replay(&bytes, false);
    let (ring_digest, ring_events, ring_ns, ring_allocs) = replay(&bytes, true);
    println!(
        "ring/generator-driven events/s {:.3} ({ring_events} events; {ring_allocs} vs \
         {direct_allocs} allocations)",
        direct_ns as f64 / ring_ns as f64
    );
    assert_eq!((ring_digest, ring_events), (direct_digest, direct_events));
    assert!(
        ring_allocs <= direct_allocs + RING_ALLOCS,
        "ring ingest made {ring_allocs} allocations against {direct_allocs} generator-driven"
    );
}
