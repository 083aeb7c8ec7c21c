//! Protocol metrics: counters and latency samples collected per switch,
//! aggregated by the deployment for the experiment harness.

use std::cell::RefCell;
use swishmem_simnet::SimDuration;
use swishmem_wire::swish::{Key, RegId};

/// One-pass percentile summary of a [`Histogram`] (single sort).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean in nanoseconds.
    pub mean_ns: f64,
    /// Median (nearest-rank).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Maximum sample.
    pub max_ns: u64,
}

/// A sample collector with percentile summaries.
///
/// Percentile queries sort lazily: the sorted view is computed once and
/// cached until the next mutation, so bench tables asking for
/// p50/p90/p99/max in a row pay for one sort, not four.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    /// Sorted copy of `samples`; `None` after any mutation.
    sorted: RefCell<Option<Vec<u64>>>,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record a duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.record_ns(d.as_nanos());
    }

    /// Record a raw nanosecond sample.
    pub fn record_ns(&mut self, ns: u64) {
        self.samples.push(ns);
        *self.sorted.get_mut() = None;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Raw samples in recording order (the trace-explain tool reconciles
    /// these one-for-one against span-derived latencies).
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Arithmetic mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&s| s as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Run `f` over the lazily-sorted sample view, (re)sorting only when
    /// a mutation invalidated the cache.
    fn with_sorted<R>(&self, f: impl FnOnce(&[u64]) -> R) -> R {
        let mut cache = self.sorted.borrow_mut();
        let sorted = cache.get_or_insert_with(|| {
            let mut s = self.samples.clone();
            s.sort_unstable();
            s
        });
        f(sorted)
    }

    /// Percentile (0.0–1.0), nearest-rank; 0 when empty.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        self.with_sorted(|sorted| {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        })
    }

    /// Maximum sample (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// The standard report row — count, mean, p50/p90/p99, max — computed
    /// off one sorted view.
    pub fn summary(&self) -> HistogramSummary {
        if self.samples.is_empty() {
            return HistogramSummary::default();
        }
        self.with_sorted(|sorted| {
            let rank = |p: f64| {
                let r = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                sorted[r - 1]
            };
            HistogramSummary {
                count: sorted.len(),
                mean_ns: self.mean_ns(),
                p50_ns: rank(0.5),
                p90_ns: rank(0.9),
                p99_ns: rank(0.99),
                max_ns: sorted[sorted.len() - 1],
            }
        })
    }

    /// Merge another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        *self.sorted.get_mut() = None;
    }

    /// Drop all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
        *self.sorted.get_mut() = None;
    }
}

/// Data-plane-side protocol counters (kept by the SwiShmem program).
#[derive(Debug, Clone, Default)]
pub struct DpMetrics {
    /// Shared-register read operations issued by the NF.
    pub nf_reads: u64,
    /// Shared-register write operations issued by the NF.
    pub nf_writes: u64,
    /// Reads served from the local replica.
    pub reads_local: u64,
    /// Reads redirected to the tail because a pending bit was set (SRO).
    pub reads_forwarded: u64,
    /// Forwarded reads this switch served as tail.
    pub tail_reads_served: u64,
    /// EWO writes applied locally.
    pub ewo_writes: u64,
    /// SRO/ERO write jobs punted to the control plane.
    pub sro_jobs_punted: u64,
    /// Chain write requests applied in the data plane.
    pub chain_applies: u64,
    /// Chain write requests rejected as stale/duplicate.
    pub chain_stale: u64,
    /// Pending-clear messages applied.
    pub clears_applied: u64,
    /// EWO entries merged from received sync updates.
    pub merge_entries: u64,
    /// EWO entries that actually changed state on merge.
    pub merge_applied: u64,
    /// Periodic sync packets emitted.
    pub sync_packets: u64,
    /// Eager mirror packets emitted.
    pub mirror_packets: u64,
    /// Snapshot entries applied during catch-up.
    pub snapshot_applied: u64,
    /// Snapshot entries rejected by the sequence guard.
    pub snapshot_stale: u64,
    /// `Clear` messages re-multicast by the tail's pending sweep.
    pub pending_sweep_clears: u64,
    /// Partitioned writes dropped at a non-owner (stale routing table at
    /// the writer; its CP retry re-routes via the updated table).
    pub part_stale: u64,
    /// Migration chunk entries applied (destination side).
    pub migrate_applied: u64,
    /// Migration chunk entries rejected by the per-key sequence guard.
    pub migrate_stale: u64,
}

/// Control-plane-side metrics (kept by the SwiShmem control app).
#[derive(Debug, Clone, Default)]
pub struct CpMetrics {
    /// Write jobs accepted from the pipeline.
    pub jobs_started: u64,
    /// Write jobs fully acknowledged (output packet released).
    pub jobs_completed: u64,
    /// Write jobs abandoned after `max_retries`.
    pub jobs_failed: u64,
    /// Write request (re)transmissions.
    pub write_sends: u64,
    /// Retransmissions only.
    pub retries: u64,
    /// Latency from NF ingress (packet arrival that staged the writes)
    /// to output-packet release — punt and CP queueing delay included,
    /// matching the end-to-end span a writer observes.
    pub write_latency: Histogram,
    /// Heartbeats sent.
    pub heartbeats: u64,
    /// Configuration epochs adopted.
    pub epochs_adopted: u64,
    /// Snapshot chunks streamed (as recovery source).
    pub snapshot_chunks_sent: u64,
    /// Write jobs shed because the job buffer was full (overflow policy:
    /// shed + count, never OOM).
    pub jobs_shed: u64,
    /// Individual writes abandoned after retry exhaustion.
    pub writes_exhausted: u64,
    /// Buffered output packets dropped explicitly (job shed or failed)
    /// instead of leaking in the buffer.
    pub packets_shed: u64,
    /// Orphaned write states garbage-collected on epoch change.
    pub writes_gced: u64,
    /// Queued snapshot chunks dropped on epoch change because the target
    /// left the configuration.
    pub snap_chunks_gced: u64,
    /// Distinct `(reg, key)` of writes abandoned after retry exhaustion.
    /// The convergence oracle excludes these groups: an abandoned write
    /// may legitimately leave a chain prefix ahead of the tail forever.
    /// Deduplicated — bounded by the keyspace, not the abandon count;
    /// [`CpMetrics::abandoned_total`] counts every abandon event.
    pub abandoned_writes: Vec<(RegId, Key)>,
    /// Total abandon events (monotonic; one per write given up, including
    /// repeats on a `(reg, key)` already listed in `abandoned_writes`).
    pub abandoned_total: u64,
    /// Migration transfer chunks streamed (as migration source).
    pub migrate_chunks_sent: u64,
    /// `MigrateDone` reports sent to the controller (as destination).
    pub migrate_done_sent: u64,
    /// Per-range load reports sent to the controller planner.
    pub load_reports_sent: u64,
}

impl CpMetrics {
    /// Record one abandoned write: bump the monotonic counter and add the
    /// `(reg, key)` to the oracle-exclusion set if not already present.
    pub fn record_abandoned(&mut self, reg: RegId, key: Key) {
        self.abandoned_total += 1;
        if !self.abandoned_writes.contains(&(reg, key)) {
            self.abandoned_writes.push((reg, key));
        }
    }
}

/// Combined per-switch metrics snapshot.
#[derive(Debug, Clone, Default)]
pub struct SwitchMetrics {
    /// Data-plane counters.
    pub dp: DpMetrics,
    /// Control-plane counters.
    pub cp: CpMetrics,
}

/// Combined per-switch metrics, borrowed in place: what
/// [`crate::Deployment::sum_metric`] hands its closure, so summing one
/// counter never clones the histograms beside it.
#[derive(Debug, Clone, Copy)]
pub struct SwitchMetricsRef<'a> {
    /// Data-plane counters.
    pub dp: &'a DpMetrics,
    /// Control-plane counters.
    pub cp: &'a CpMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for i in 1..=100u64 {
            h.record_ns(i * 10);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile_ns(0.5), 500);
        assert_eq!(h.percentile_ns(0.99), 990);
        assert_eq!(h.percentile_ns(1.0), 1000);
        assert_eq!(h.max_ns(), 1000);
        assert!((h.mean_ns() - 505.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile_ns(0.5), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        a.record(SimDuration::micros(1));
        let mut b = Histogram::new();
        b.record(SimDuration::micros(3));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_ns(), 3000);
    }

    /// The lazy sort cache must be invalidated by every mutation path:
    /// a percentile read after record / merge / clear sees fresh data.
    #[test]
    fn sorted_cache_invalidates_on_mutation() {
        let mut h = Histogram::new();
        h.record_ns(100);
        assert_eq!(h.percentile_ns(1.0), 100); // populates the cache
        h.record_ns(900);
        assert_eq!(h.percentile_ns(1.0), 900);
        let mut other = Histogram::new();
        other.record_ns(5000);
        h.merge(&other);
        assert_eq!(h.percentile_ns(1.0), 5000);
        h.clear();
        assert_eq!(h.percentile_ns(1.0), 0);
    }

    #[test]
    fn summary_matches_individual_queries() {
        let mut h = Histogram::new();
        for i in 1..=100u64 {
            h.record_ns(i * 10);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, h.percentile_ns(0.5));
        assert_eq!(s.p90_ns, h.percentile_ns(0.9));
        assert_eq!(s.p99_ns, h.percentile_ns(0.99));
        assert_eq!(s.max_ns, h.max_ns());
        assert!((s.mean_ns - h.mean_ns()).abs() < 1e-9);
        assert_eq!(Histogram::new().summary(), HistogramSummary::default());
    }

    /// Abandoning the same group many times must not grow the oracle
    /// exclusion list without bound; the monotonic counter still counts
    /// every event.
    #[test]
    fn abandoned_writes_dedupe_but_count_all() {
        let mut m = CpMetrics::default();
        for _ in 0..5 {
            m.record_abandoned(1, 7);
        }
        m.record_abandoned(2, 7);
        assert_eq!(m.abandoned_writes, vec![(1, 7), (2, 7)]);
        assert_eq!(m.abandoned_total, 6);
    }
}
