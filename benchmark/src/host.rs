//! What the host reports about this process: a counting allocator, peak
//! resident memory, CPU time, and a fingerprint of the machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The system allocator, counting calls and bytes while switched on.
/// Off (every end-to-end run) it costs one relaxed load per call. The
/// counters are bumped with a load and a store, not an atomic add: the
/// benchmark is one thread, and a locked add per allocation would itself
/// show up as tracing overhead.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Relaxed) + by, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            bump(&ALLOCS, 1);
            bump(&ALLOC_BYTES, layout.size() as u64);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            bump(&ALLOCS, 1);
            bump(&ALLOC_BYTES, new_size.saturating_sub(layout.size()) as u64);
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Allocator calls and bytes counted so far.
pub fn alloc_totals() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User + system CPU time of this process so far, in nanoseconds
/// (`/proc/self/stat` fields 14 and 15, at the usual 100 ticks/s).
pub fn cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut f = rest.split_whitespace().skip(11);
    let ticks = |s: Option<&str>| s.and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(f.next()) + ticks(f.next())) * 10_000_000
}

/// `nproc` as the standard library sees it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// CPU model string of the first processor.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".into(), |(_, v)| v.trim().to_string())
}
