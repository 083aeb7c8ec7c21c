//! The E18/E23 passivity gates, made exact: span telemetry and
//! flight-recorder journaling compiled in, with nobody subscribed, must
//! cost the event engine no work. The echo that emits one record per
//! packet must process exactly the events of the plain echo and allocate
//! exactly as often. The wall-clock ratio is printed, not asserted: it
//! moves with host load (E18 and E23 report it against the <2% targets).
//!
//! A counting `#[global_allocator]` is armed only around each echo run,
//! and only on the running thread, so the parallel test runner stays out
//! of the count (as in `tests/alloc_budget.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swishmem_bench::scenarios::time_echo;
use swishmem_simnet::Family;

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

const EVENTS: u64 = 20_000;

/// One echo run: `(seconds, events processed, allocations)`.
fn echo(emit: Option<Family>) -> (f64, u64, u64) {
    ALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let (secs, events) = time_echo(EVENTS, emit);
    ARMED.with(|a| a.set(false));
    (secs, events, ALLOCS.with(Cell::get))
}

fn assert_detached_emission_is_free(family: Family) {
    // Warm both paths up first, so no one-time set-up lands in a count.
    time_echo(1_000, None);
    time_echo(1_000, Some(family));
    let (plain_s, plain_events, plain_allocs) = echo(None);
    let (emit_s, emit_events, emit_allocs) = echo(Some(family));
    println!(
        "{family:?}: detached/plain wall-clock {:.3} ({plain_events} events, {plain_allocs} allocations)",
        emit_s / plain_s
    );
    assert_eq!(
        emit_events, plain_events,
        "detached {family:?} emission changed the events processed"
    );
    assert_eq!(
        emit_allocs, plain_allocs,
        "detached {family:?} emission allocated"
    );
}

#[test]
fn detached_tracing_overhead_is_small() {
    assert_detached_emission_is_free(Family::Span);
}

#[test]
fn detached_journal_overhead_is_small() {
    assert_detached_emission_is_free(Family::Journal);
}
