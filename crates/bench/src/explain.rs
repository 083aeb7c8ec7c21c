//! One run that tells both failure-handling stories on one timeline:
//! chain-replicated writes under a seeded switch fault schedule
//! (PAPER.md §6.1) and the replicated controller losing its leader
//! (§6.3), with span tracing, the control-plane journal and the oracle
//! suite attached. Two gates audit what the collectors recorded:
//!
//! * **spans** — every `write_latency` histogram sample equals the
//!   telescoped phase sum of some completed write trace, one for one when
//!   no switch crashed (a crashed switch loses its samples on reset, so
//!   then the samples need only be a sub-multiset);
//! * **failover** — the journal-reconstructed crash-to-election gap is
//!   within 1 µs of the controller's own election log.
//!
//! The `explain` bin prints an [`Explain`]; `tests/explain.rs` runs the
//! gates over a seed sweep.

use crate::json::Json;
use crate::scenarios::{election_gap, inject_writes, replicated_deployment};
use crate::spans::{self, phase_histograms, TraceBreakdown};
use std::collections::BTreeMap;
use swishmem::oracle::{OracleConfig, OracleSuite};
use swishmem::prelude::*;
use swishmem::{Journal, TriggerOp};
use swishmem_simnet::{FaultAction, FaultGen, JournalRecord, SpanEvent};

/// The write window: writes, and the switch fault schedule laid over
/// them, span this long from the settled start.
const WINDOW: SimDuration = SimDuration::millis(60);
/// The leader replica crashes this long after the start, once the
/// adaptive detector has learned the beacon cadence.
const CRASH_AFTER: SimDuration = SimDuration::millis(30);
/// Largest journal-vs-election-log disagreement the failover gate allows.
const GAP_TOLERANCE_NS: u64 = 1_000;

/// What one seeded run recorded, and the two gates' verdicts on it.
pub struct Explain {
    /// The deployment and fault seed.
    pub seed: u64,
    /// Span markers, in emission order.
    pub spans: Vec<SpanEvent>,
    /// Span markers the tap dropped for lack of room.
    pub spans_overflowed: u64,
    /// Per-trace breakdowns of `spans`.
    pub breakdowns: Vec<TraceBreakdown>,
    /// The control-plane journal records kept, in emission order.
    pub journal_records: Vec<JournalRecord>,
    /// Journal records the tap dropped for lack of room.
    pub journal_overflowed: u64,
    /// Switch crashes in the fault schedule.
    pub switch_crashes: usize,
    /// When the leader replica crashed.
    pub t_crash: SimTime,
    /// Crash-to-election gap per the controller's election log.
    pub measured_gap_ns: Option<u64>,
    /// Crash-to-election gap reconstructed from the journal.
    pub journal_gap_ns: Option<u64>,
    /// The first oracle violation with its journal context, if any.
    pub oracle_report: Option<String>,
    /// The span gate's verdict.
    pub spans_gate: Result<String, String>,
    /// The failover gate's verdict.
    pub failover_gate: Result<String, String>,
}

impl Explain {
    /// Make the run for `seed` and check both gates.
    ///
    /// 3 switches, 3 controller replicas with the adaptive detector and
    /// compaction threshold 4, a 48-key partitioned register, and two
    /// range moves at +8 and +16 ms. Spans and journal are attached
    /// before `settle`, the oracle suite before the first write, and
    /// everything is scheduled up front: writes over the whole window,
    /// the `FaultGen` switch schedule over the same window, and the
    /// leader crash inside it.
    pub fn run(seed: u64) -> Explain {
        let mut dep = replicated_deployment(seed, |c| {
            c.adaptive_detector = true;
            c.log_compact_threshold = 4;
        });
        let span_tap = dep.attach_tracing(1 << 20);
        let journal_tap = dep.attach_journal(1 << 20);
        dep.settle();
        let t0 = dep.now();
        let switches = dep.switch_ids().to_vec();
        dep.schedule_trigger(
            t0 + SimDuration::millis(8),
            TriggerOp::Move,
            0,
            0,
            switches[1],
        );
        dep.schedule_trigger(
            t0 + SimDuration::millis(16),
            TriggerOp::Move,
            0,
            16,
            switches[2],
        );
        let sched = FaultGen::new(seed).generate(&switches, &dep.fault_links(), WINDOW, 4);
        let switch_crashes = sched
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Crash { .. }))
            .count();
        dep.schedule_faults(t0, &sched);
        let t_crash = t0 + CRASH_AFTER;
        dep.schedule_ctrl_fail(t_crash, 0);

        let ocfg = OracleConfig::new(t0 + WINDOW);
        let mut suite = OracleSuite::attach(&mut dep, ocfg);
        suite.attach_journal(journal_tap.clone());
        inject_writes(&mut dep, t0, 60, WINDOW);
        let _ = suite.run_settled(&mut dep);

        let latency_samples: Vec<u64> = (0..switches.len())
            .flat_map(|i| dep.metrics(i).cp.write_latency.samples().to_vec())
            .collect();
        let measured_gap_ns = election_gap(&dep, t_crash).map(|d| d.as_nanos());
        let (spans, spans_overflowed) = {
            let tap = span_tap.borrow();
            (tap.events().to_vec(), tap.overflowed())
        };
        let (journal_records, journal_overflowed) = {
            let tap = journal_tap.borrow();
            (tap.events().to_vec(), tap.overflowed())
        };
        let journal_gap_ns = Journal::new(&journal_records)
            .failovers()
            .iter()
            .find(|f| f.elected_at >= t_crash)
            .map(|f| f.elected_at.since(t_crash).0);
        let breakdowns = spans::explain(&spans);
        Explain {
            seed,
            spans_gate: reconcile(&breakdowns, &latency_samples, switch_crashes),
            failover_gate: failover_accuracy(measured_gap_ns, journal_gap_ns),
            spans,
            spans_overflowed,
            breakdowns,
            journal_records,
            journal_overflowed,
            switch_crashes,
            t_crash,
            measured_gap_ns,
            journal_gap_ns,
            oracle_report: suite.violation_report(),
        }
    }

    /// The control-plane journal.
    pub fn journal(&self) -> Journal<'_> {
        Journal::new(&self.journal_records)
    }

    /// Both gates passed.
    pub fn passed(&self) -> bool {
        self.spans_gate.is_ok() && self.failover_gate.is_ok()
    }

    /// Breakdowns of the writes that completed (reached `Release`).
    pub fn completed_writes(&self) -> Vec<TraceBreakdown> {
        self.breakdowns
            .iter()
            .filter(|b| b.completed_write())
            .cloned()
            .collect()
    }

    /// The Perfetto document: write spans and control-plane tracks on
    /// one timeline.
    pub fn perfetto(&self) -> Json {
        spans::to_perfetto(&self.spans, &self.journal())
    }

    /// The machine-readable summary: counts, both gates, the per-phase
    /// write percentiles and the failover / migration / compaction
    /// timelines.
    pub fn summary(&self) -> Json {
        let opt = |v: Option<u64>| v.map(Json::from).unwrap_or(Json::Null);
        let opt_t = |v: Option<SimTime>| opt(v.map(|t| t.0));
        let completed = self.completed_writes();
        let phases = phase_histograms(&completed)
            .into_iter()
            .map(|(label, h)| {
                let s = h.summary();
                Json::obj(vec![
                    ("phase", Json::str(label)),
                    ("count", Json::from(s.count)),
                    ("p50_ns", Json::from(s.p50_ns)),
                    ("p90_ns", Json::from(s.p90_ns)),
                    ("p99_ns", Json::from(s.p99_ns)),
                    ("max_ns", Json::from(s.max_ns)),
                    ("mean_ns", Json::Num(s.mean_ns)),
                ])
            })
            .collect();
        let failovers = self
            .journal()
            .failovers()
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("epoch", Json::from(u64::from(f.epoch))),
                    ("leader", Json::from(u64::from(f.leader.0))),
                    ("elected_at_ns", Json::from(f.elected_at.0)),
                    ("last_beacon_ns", opt_t(f.last_beacon)),
                    ("suspect_at_ns", opt_t(f.suspect_at)),
                    ("election_start_ns", opt_t(f.election_start)),
                    ("chosen_at_ns", opt_t(f.chosen_at)),
                ])
            })
            .collect();
        let migrations = self
            .journal()
            .migrations()
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("reg", Json::from(u64::from(m.reg))),
                    ("start", Json::from(u64::from(m.start))),
                    ("from", Json::from(u64::from(m.from.0))),
                    ("to", Json::from(u64::from(m.to.0))),
                    ("begin_at_ns", Json::from(m.begin_at.0)),
                    ("window_ns", opt(m.window())),
                    ("dual_owner_window_ns", opt(m.dual_owner_window())),
                    ("committed", Json::Bool(m.commit_at.is_some())),
                ])
            })
            .collect();
        let compactions = self
            .journal()
            .compactions()
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("at_ns", Json::from(c.at.0)),
                    ("node", Json::from(u64::from(c.node.0))),
                    ("upto", Json::from(c.upto)),
                    ("snap_bytes", Json::from(c.snap_bytes)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("seed", Json::from(self.seed)),
            ("span_events", Json::from(self.spans.len())),
            ("span_overflowed", Json::from(self.spans_overflowed)),
            ("traces", Json::from(self.breakdowns.len())),
            ("completed_writes", Json::from(completed.len())),
            ("switch_crashes", Json::from(self.switch_crashes)),
            ("journal_records", Json::from(self.journal_records.len())),
            ("journal_overflowed", Json::from(self.journal_overflowed)),
            ("t_crash_ns", Json::from(self.t_crash.0)),
            ("measured_gap_ns", opt(self.measured_gap_ns)),
            ("journal_gap_ns", opt(self.journal_gap_ns)),
            ("spans_consistent", Json::Bool(self.spans_gate.is_ok())),
            ("failover_accurate", Json::Bool(self.failover_gate.is_ok())),
            ("oracle_clean", Json::Bool(self.oracle_report.is_none())),
            ("phases", Json::Arr(phases)),
            ("failovers", Json::Arr(failovers)),
            ("migrations", Json::Arr(migrations)),
            ("compactions", Json::Arr(compactions)),
        ])
    }
}

/// The span gate: every histogram sample must equal the end-to-end
/// latency of some completed write trace (nanosecond-exact), and with no
/// switch crash the match must be one-for-one.
fn reconcile(
    breakdowns: &[TraceBreakdown],
    latency_samples: &[u64],
    switch_crashes: usize,
) -> Result<String, String> {
    let mut totals: BTreeMap<u64, usize> = BTreeMap::new();
    let mut completed = 0usize;
    for b in breakdowns.iter().filter(|b| b.completed_write()) {
        let slice_sum: u64 = b.slices.iter().map(|s| s.dur_ns).sum();
        if slice_sum != b.total_ns {
            return Err(format!(
                "trace {}: phase sum {slice_sum} ns != end-to-end {} ns",
                b.trace, b.total_ns
            ));
        }
        *totals.entry(b.total_ns).or_default() += 1;
        completed += 1;
    }
    for &s in latency_samples {
        match totals.get_mut(&s) {
            Some(n) if *n > 0 => *n -= 1,
            _ => {
                return Err(format!(
                    "write_latency sample {s} ns has no matching completed trace"
                ))
            }
        }
    }
    if switch_crashes == 0 && latency_samples.len() != completed {
        return Err(format!(
            "no switch crashed, but {} histogram samples vs {completed} completed traces",
            latency_samples.len()
        ));
    }
    Ok(format!(
        "{} write_latency samples reconciled against {completed} completed write traces \
         ({})",
        latency_samples.len(),
        if switch_crashes == 0 {
            "one for one".to_string()
        } else {
            format!("sub-multiset: {switch_crashes} switch crashes")
        }
    ))
}

/// The failover gate: the journal's crash-to-election gap must agree
/// with the controller's election log to within [`GAP_TOLERANCE_NS`].
fn failover_accuracy(measured: Option<u64>, journal: Option<u64>) -> Result<String, String> {
    match (measured, journal) {
        (Some(m), Some(j)) => {
            let diff = m.abs_diff(j);
            let msg = format!(
                "journal gap {j} ns vs election log {m} ns (|diff| {diff} ns, \
                 gate <= {GAP_TOLERANCE_NS} ns)"
            );
            if diff <= GAP_TOLERANCE_NS {
                Ok(msg)
            } else {
                Err(msg)
            }
        }
        (m, j) => Err(format!(
            "measured gap {m:?}, journal gap {j:?} (both required)"
        )),
    }
}
