//! Time-series telemetry: periodic sampling of per-switch protocol
//! counters and queue depths into bounded ring buffers.
//!
//! The protocol metrics ([`crate::metrics`]) are cumulative counters; a
//! time series of *rates* requires periodic snapshots and deltas. The
//! [`TimeSeriesSampler`] does exactly that: every `interval` of simulated
//! time it snapshots each switch's `DpMetrics`/`CpMetrics`, records the
//! delta since the previous snapshot plus instantaneous queue-depth
//! gauges, and appends the sample to a per-switch ring buffer (bounded
//! memory for arbitrarily long runs). The ring keeps the **newest**
//! samples and evicts the oldest, the opposite of a
//! [`swishmem_simnet::Tap`], which keeps the earliest records.
//!
//! Sampling is pure observation — it reads switch state between engine
//! steps and never injects events or draws randomness — so a sampled run
//! is bit-identical to an unsampled one.

pub mod journal;

use crate::deployment::Deployment;
use swishmem_simnet::{SimDuration, SimTime};

/// A fixed-capacity ring buffer: keeps the most recent `capacity` items,
/// counting (not storing) everything older.
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    items: Vec<T>,
    capacity: usize,
    /// Index of the oldest element once the buffer has wrapped.
    head: usize,
    /// Total number of pushes ever (≥ `items.len()`).
    pushed: u64,
}

impl<T> RingBuffer<T> {
    /// An empty ring holding at most `capacity` items.
    pub fn new(capacity: usize) -> RingBuffer<T> {
        RingBuffer {
            items: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            pushed: 0,
        }
    }

    /// Append, evicting the oldest item when full.
    pub fn push(&mut self, item: T) {
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            self.items[self.head] = item;
            self.head = (self.head + 1) % self.capacity;
        }
        self.pushed += 1;
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Items evicted to stay within capacity.
    pub fn evicted(&self) -> u64 {
        self.pushed - self.items.len() as u64
    }

    /// Retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (tail, head) = self.items.split_at(self.head);
        head.iter().chain(tail.iter())
    }
}

/// One sampling-window observation of one switch: counter deltas over the
/// window plus instantaneous queue-depth gauges at the window's end.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricsSample {
    /// Sample time (end of the window).
    pub time: SimTime,
    /// NF shared-register writes issued this window.
    pub nf_writes: u64,
    /// NF shared-register reads issued this window.
    pub nf_reads: u64,
    /// Chain write requests applied this window.
    pub chain_applies: u64,
    /// EWO writes applied locally this window.
    pub ewo_writes: u64,
    /// Reads redirected to the tail this window.
    pub reads_forwarded: u64,
    /// Sync + mirror packets emitted this window.
    pub sync_packets: u64,
    /// Write jobs punted to the CP this window.
    pub jobs_punted: u64,
    /// Write jobs fully acknowledged this window.
    pub jobs_completed: u64,
    /// Write retransmissions this window.
    pub retries: u64,
    /// Migration transfer chunks streamed this window (source side).
    pub migrate_chunks: u64,
    /// Migration chunk entries applied this window (destination side).
    pub migrate_applied: u64,
    /// Per-range load reports sent to the controller this window.
    pub load_reports: u64,
    /// Controller-replica consensus messages sent this window, summed
    /// across the replica group (zero in singleton deployments). Unlike
    /// the per-switch counters above, this is fabric-global: every
    /// switch's sample in the same window carries the same value, so E21
    /// plots can read it off any one series.
    pub consensus_msgs: u64,
    /// Controller leader changes observed this window (fabric-global,
    /// like `consensus_msgs`).
    pub leader_changes: u64,
    /// Consensus log compactions this window (fabric-global).
    pub log_compactions: u64,
    /// Controller-state snapshot bytes persisted this window
    /// (fabric-global).
    pub snapshot_bytes: u64,
    /// Failure-detector suspicion episodes this window, summed across
    /// replicas (fabric-global).
    pub suspect_events: u64,
    /// Directory lookups served by non-leading replicas this window
    /// (fabric-global).
    pub follower_reads: u64,
    /// Trace records fed by a replay engine this window (fabric-global,
    /// from [`crate::deployment::Deployment::note_ingest`]).
    pub ingest_records: u64,
    /// Replay ring-ingest backpressure stalls this window
    /// (fabric-global).
    pub ingest_stalls: u64,
    /// Gauge: writes awaiting acknowledgment at sample time.
    pub outstanding_writes: usize,
    /// Gauge: jobs buffered in CP DRAM at sample time.
    pub buffered_jobs: usize,
    /// Gauge: snapshot chunks queued at sample time.
    pub snapshot_backlog: usize,
}

/// Cumulative counter values at the previous sample, for delta taking.
#[derive(Debug, Clone, Copy, Default)]
struct Cumulative {
    nf_writes: u64,
    nf_reads: u64,
    chain_applies: u64,
    ewo_writes: u64,
    reads_forwarded: u64,
    sync_packets: u64,
    jobs_punted: u64,
    jobs_completed: u64,
    retries: u64,
    migrate_chunks: u64,
    migrate_applied: u64,
    load_reports: u64,
    consensus_msgs: u64,
    leader_changes: u64,
    log_compactions: u64,
    snapshot_bytes: u64,
    suspect_events: u64,
    follower_reads: u64,
    ingest_records: u64,
    ingest_stalls: u64,
}

/// Periodic per-switch metrics sampler (see module docs).
#[derive(Debug)]
pub struct TimeSeriesSampler {
    interval: SimDuration,
    series: Vec<RingBuffer<MetricsSample>>,
    last: Vec<Cumulative>,
}

impl TimeSeriesSampler {
    /// A sampler for `n_switches` switches, one window per `interval`,
    /// retaining the latest `capacity` samples per switch.
    pub fn new(n_switches: usize, interval: SimDuration, capacity: usize) -> TimeSeriesSampler {
        TimeSeriesSampler {
            interval,
            series: (0..n_switches).map(|_| RingBuffer::new(capacity)).collect(),
            last: vec![Cumulative::default(); n_switches],
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The retained series for switch `i`, oldest first.
    pub fn series(&self, i: usize) -> Vec<MetricsSample> {
        self.series[i].iter().copied().collect()
    }

    /// Samples evicted from switch `i`'s ring to stay within capacity.
    pub fn evicted(&self, i: usize) -> u64 {
        self.series[i].evicted()
    }

    /// Take one sample of every switch at the deployment's current time.
    /// A failed switch still samples (its counters were reset, so deltas
    /// saturate at zero rather than going negative).
    pub fn sample(&mut self, dep: &Deployment) {
        let time = dep.now();
        let cons = dep.controller().consensus_metrics();
        for i in 0..self.series.len() {
            let m = dep.metrics(i);
            let sw = dep.switch(i);
            let cur = Cumulative {
                nf_writes: m.dp.nf_writes,
                nf_reads: m.dp.nf_reads,
                chain_applies: m.dp.chain_applies,
                ewo_writes: m.dp.ewo_writes,
                reads_forwarded: m.dp.reads_forwarded,
                sync_packets: m.dp.sync_packets + m.dp.mirror_packets,
                jobs_punted: m.dp.sro_jobs_punted,
                jobs_completed: m.cp.jobs_completed,
                retries: m.cp.retries,
                migrate_chunks: m.cp.migrate_chunks_sent,
                migrate_applied: m.dp.migrate_applied,
                load_reports: m.cp.load_reports_sent,
                consensus_msgs: cons.msgs_sent,
                leader_changes: cons.leader_changes,
                log_compactions: cons.log_compactions,
                snapshot_bytes: cons.snapshot_bytes,
                suspect_events: cons.suspect_events,
                follower_reads: cons.follower_reads,
                ingest_records: dep.ingest_records(),
                ingest_stalls: dep.ingest_stalls(),
            };
            let prev = self.last[i];
            let d = |a: u64, b: u64| a.saturating_sub(b);
            self.series[i].push(MetricsSample {
                time,
                nf_writes: d(cur.nf_writes, prev.nf_writes),
                nf_reads: d(cur.nf_reads, prev.nf_reads),
                chain_applies: d(cur.chain_applies, prev.chain_applies),
                ewo_writes: d(cur.ewo_writes, prev.ewo_writes),
                reads_forwarded: d(cur.reads_forwarded, prev.reads_forwarded),
                sync_packets: d(cur.sync_packets, prev.sync_packets),
                jobs_punted: d(cur.jobs_punted, prev.jobs_punted),
                jobs_completed: d(cur.jobs_completed, prev.jobs_completed),
                retries: d(cur.retries, prev.retries),
                migrate_chunks: d(cur.migrate_chunks, prev.migrate_chunks),
                migrate_applied: d(cur.migrate_applied, prev.migrate_applied),
                load_reports: d(cur.load_reports, prev.load_reports),
                consensus_msgs: d(cur.consensus_msgs, prev.consensus_msgs),
                leader_changes: d(cur.leader_changes, prev.leader_changes),
                log_compactions: d(cur.log_compactions, prev.log_compactions),
                snapshot_bytes: d(cur.snapshot_bytes, prev.snapshot_bytes),
                suspect_events: d(cur.suspect_events, prev.suspect_events),
                follower_reads: d(cur.follower_reads, prev.follower_reads),
                ingest_records: d(cur.ingest_records, prev.ingest_records),
                ingest_stalls: d(cur.ingest_stalls, prev.ingest_stalls),
                outstanding_writes: sw.cp_app().outstanding_writes(),
                buffered_jobs: sw.cp_app().buffered_jobs(),
                snapshot_backlog: sw.cp_app().snapshot_backlog(),
            });
            self.last[i] = cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_keeps_newest_and_counts_evictions() {
        let mut r = RingBuffer::new(3);
        assert!(r.is_empty());
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.evicted(), 2);
        let kept: Vec<i32> = r.iter().copied().collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn ring_buffer_under_capacity_is_in_order() {
        let mut r = RingBuffer::new(10);
        r.push("a");
        r.push("b");
        assert_eq!(r.evicted(), 0);
        let kept: Vec<&str> = r.iter().copied().collect();
        assert_eq!(kept, vec!["a", "b"]);
    }
}
