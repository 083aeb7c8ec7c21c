//! Span analysis: reconstruct per-operation latency breakdowns from the
//! simulator's causal span markers, aggregate per-phase percentiles, and
//! export spans and the control-plane journal as one Chrome/Perfetto
//! `trace_event` document.
//!
//! Span markers are *points*, not intervals; a phase's duration is the
//! gap from the previous marker, attributed to the **later** marker's
//! kind ("the time it took to reach this phase"). Consecutive gaps
//! telescope, so a completed operation's per-phase durations sum exactly
//! to its end-to-end latency — the property `explain` uses to reconcile
//! breakdowns against the `write_latency` histogram with zero slack.

use crate::json::Json;
use std::collections::BTreeMap;
use swishmem::{CtrlEvent, Histogram, Journal, MigrationTimeline};
use swishmem_simnet::journal::abort_reason_str;
use swishmem_simnet::{SpanEvent, SpanPhase};
use swishmem_wire::TraceId;

/// One attributed phase of one operation.
#[derive(Debug, Clone)]
pub struct PhaseSlice {
    /// Display label of the phase reached (`punt`, `retry[2]`, ...).
    pub label: String,
    /// Time spent reaching it from the previous marker, in nanoseconds.
    pub dur_ns: u64,
}

/// The reconstructed timeline of one logical operation.
#[derive(Debug, Clone)]
pub struct TraceBreakdown {
    /// The operation.
    pub trace: TraceId,
    /// Attributed phases in time order (first marker opens the clock and
    /// contributes no slice of its own).
    pub slices: Vec<PhaseSlice>,
    /// End-to-end nanoseconds: last marker minus first marker. Equals the
    /// sum of `slices` durations by construction.
    pub total_ns: u64,
    /// The operation's final phase (e.g. `Release` for a completed SRO
    /// write, `Abandon` for an exhausted one).
    pub last_phase: SpanPhase,
}

impl TraceBreakdown {
    /// True when the operation is a fully-acknowledged SRO/ERO write.
    pub fn completed_write(&self) -> bool {
        self.last_phase == SpanPhase::Release
    }
}

/// Group raw span events into per-trace breakdowns (time-sorted; ties
/// keep emission order, which matches causal order within one node).
pub fn explain(events: &[SpanEvent]) -> Vec<TraceBreakdown> {
    let mut by_trace: BTreeMap<u64, Vec<SpanEvent>> = BTreeMap::new();
    for e in events {
        by_trace.entry(e.trace.0).or_default().push(*e);
    }
    let mut out = Vec::with_capacity(by_trace.len());
    for (id, mut tl) in by_trace {
        tl.sort_by_key(|e| e.time);
        let slices = tl
            .windows(2)
            .map(|w| PhaseSlice {
                label: w[1].phase.label(),
                dur_ns: (w[1].time - w[0].time).as_nanos(),
            })
            .collect();
        out.push(TraceBreakdown {
            trace: TraceId(id),
            slices,
            total_ns: (tl[tl.len() - 1].time - tl[0].time).as_nanos(),
            last_phase: tl[tl.len() - 1].phase,
        });
    }
    out
}

/// Aggregate per-phase duration histograms across many operations,
/// keyed by phase label, in first-seen order.
pub fn phase_histograms(breakdowns: &[TraceBreakdown]) -> Vec<(String, Histogram)> {
    let mut out: Vec<(String, Histogram)> = Vec::new();
    for b in breakdowns {
        for s in &b.slices {
            match out.iter_mut().find(|(l, _)| *l == s.label) {
                Some((_, h)) => h.record_ns(s.dur_ns),
                None => {
                    let mut h = Histogram::new();
                    h.record_ns(s.dur_ns);
                    out.push((s.label.clone(), h));
                }
            }
        }
    }
    out
}

/// How a migration ended: `committed`, `aborted: <reason>` or `open`.
pub fn migration_outcome(m: &MigrationTimeline) -> String {
    if m.commit_at.is_some() {
        "committed".into()
    } else if let Some(r) = m.abort_reason {
        format!("aborted: {}", abort_reason_str(r))
    } else {
        "open".into()
    }
}

/// A Chrome/Perfetto `trace_event` document under construction. Tracks
/// are addressed by name: the first use of a process name takes the
/// next pid, the first use of a thread name within it the next tid, and
/// each emits its one `process_name` / `thread_name` record. Renderers
/// of different streams therefore share one timeline without clashing.
#[derive(Default)]
struct Tracks {
    events: Vec<Json>,
    /// Per process name: its pid and how many threads it has.
    procs: BTreeMap<String, (u64, u64)>,
    /// Per `(process, thread)` name: its `(pid, tid)`.
    threads: BTreeMap<(String, String), (u64, u64)>,
}

impl Tracks {
    /// The `(pid, tid)` of `thread` under `process`, declared on first use.
    fn track(&mut self, process: &str, thread: &str) -> (u64, u64) {
        let key = (process.to_string(), thread.to_string());
        if let Some(&ids) = self.threads.get(&key) {
            return ids;
        }
        let next_pid = self.procs.len() as u64 + 1;
        let (pid, n_threads) = self.procs.entry(key.0.clone()).or_insert((next_pid, 0));
        *n_threads += 1;
        let ids = (*pid, *n_threads);
        if ids.0 == next_pid {
            // A process name seen for the first time.
            self.meta("process_name", ids.0, None, process);
        }
        self.meta("thread_name", ids.0, Some(ids.1), thread);
        self.threads.insert(key, ids);
        ids
    }

    fn meta(&mut self, kind: &str, pid: u64, tid: Option<u64>, name: &str) {
        let mut fields = vec![
            ("name", Json::str(kind)),
            ("ph", Json::str("M")),
            ("pid", Json::from(pid)),
        ];
        fields.extend(tid.map(|tid| ("tid", Json::from(tid))));
        fields.push(("args", Json::obj(vec![("name", Json::str(name))])));
        self.events.push(Json::obj(fields));
    }

    /// One event on `(process, thread)`: an instant (`"i"`) when `dur_ns`
    /// is `None`, else a complete (`"X"`) slice. Timestamps are
    /// microseconds; fractional values keep sub-µs precision.
    fn event(
        &mut self,
        (process, thread): (&str, &str),
        cat: &str,
        name: String,
        ts_ns: u64,
        dur_ns: Option<u64>,
        arg: (&str, String),
    ) {
        let us = |ns: u64| Json::Num(ns as f64 / 1000.0);
        let (pid, tid) = self.track(process, thread);
        let mut fields = vec![("name", Json::str(name)), ("cat", Json::str(cat))];
        match dur_ns {
            None => fields.extend([("ph", Json::str("i")), ("s", Json::str("t"))]),
            Some(_) => fields.push(("ph", Json::str("X"))),
        }
        fields.push(("ts", us(ts_ns)));
        fields.extend(dur_ns.map(|d| ("dur", us(d))));
        fields.extend([
            ("pid", Json::from(pid)),
            ("tid", Json::from(tid)),
            ("args", Json::obj(vec![(arg.0, Json::str(arg.1))])),
        ]);
        self.events.push(Json::obj(fields));
    }

    fn finish(self) -> Json {
        Json::obj(vec![
            ("traceEvents", Json::Arr(self.events)),
            ("displayTimeUnit", Json::str("ns")),
        ])
    }
}

/// Render span markers and the control-plane journal as one
/// Chrome/Perfetto `trace_event` document on one timeline (loadable in
/// ui.perfetto.dev or chrome://tracing).
///
/// Write spans: one thread per trace (named after its TraceId) under one
/// process per originating switch. Each phase slice is a complete event
/// whose `ts`/`dur` are the gap from the previous marker, so the track
/// mirrors the telescoping breakdown; the opening marker is an instant.
///
/// Control plane: a "control plane" process carries the fabric-global
/// timelines — leadership reigns (one slice per epoch, from its election
/// decree to the next), migration lifecycles (begin→terminal, with the
/// dual-owner window nested) and compaction / snapshot instants. Every
/// replica gets a process with a detector thread (suspicion slices from
/// `Suspect` to the clearing `Unsuspect`; open suspicions run to the end
/// of the journal) and a leadership thread (campaign / election / lease
/// instants).
pub fn to_perfetto(spans: &[SpanEvent], journal: &Journal<'_>) -> Json {
    let mut tracks = Tracks::default();
    span_tracks(&mut tracks, spans);
    journal_tracks(&mut tracks, journal);
    tracks.finish()
}

fn span_tracks(tracks: &mut Tracks, events: &[SpanEvent]) {
    let mut by_trace: BTreeMap<u64, Vec<SpanEvent>> = BTreeMap::new();
    for e in events {
        by_trace.entry(e.trace.0).or_default().push(*e);
    }
    for (id, mut tl) in by_trace {
        tl.sort_by_key(|e| e.time);
        let trace = TraceId(id);
        let process = format!("switch n{}", (id >> 48).saturating_sub(1)); // origin node + 1
        let thread = format!("{trace}");
        let track = (process.as_str(), thread.as_str());
        tracks.event(
            track,
            "span",
            tl[0].phase.label(),
            tl[0].time.nanos(),
            None,
            ("node", format!("{}", tl[0].node)),
        );
        for w in tl.windows(2) {
            tracks.event(
                track,
                "span",
                w[1].phase.label(),
                w[0].time.nanos(),
                Some((w[1].time - w[0].time).as_nanos()),
                ("node", format!("{}", w[1].node)),
            );
        }
    }
}

fn journal_tracks(tracks: &mut Tracks, journal: &Journal<'_>) {
    const CTRL: &str = "control plane";
    let leadership = (CTRL, "leadership");
    let migrations = (CTRL, "migrations");
    let compaction = (CTRL, "compaction");
    // Declared up front, so the three keep this order and exist even
    // for an empty journal.
    for (p, t) in [leadership, migrations, compaction] {
        tracks.track(p, t);
    }
    let records = journal.records();
    let end_ns = records.last().map(|e| e.time.nanos()).unwrap_or(0);
    let mut emit =
        |track: (&str, &str), name: String, ts: u64, dur: Option<u64>, detail: String| {
            tracks.event(track, "ctrl", name, ts, dur, ("detail", detail))
        };

    // Leadership reigns: each epoch's earliest election decree opens a
    // slice that runs until the next epoch's decree (or journal end).
    let failovers = journal.failovers();
    for (i, f) in failovers.iter().enumerate() {
        let start = f.elected_at.nanos();
        let stop = failovers
            .get(i + 1)
            .map(|n| n.elected_at.nanos())
            .unwrap_or(end_ns)
            .max(start);
        emit(
            leadership,
            format!("leader n{} (epoch {})", f.leader.0, f.epoch),
            start,
            Some(stop - start),
            format!("decree slot {}", f.slot),
        );
    }

    // Migration lifecycles, dual-owner window nested inside.
    for m in journal.migrations() {
        let begin = m.begin_at.nanos();
        let stop = m
            .commit_at
            .or(m.abort_at)
            .map(|t| t.nanos())
            .unwrap_or(end_ns)
            .max(begin);
        emit(
            migrations,
            format!("mig reg{}@{} n{}->n{}", m.reg, m.start, m.from.0, m.to.0),
            begin,
            Some(stop - begin),
            format!(
                "epoch {}, {} passes, {}",
                m.epoch,
                m.passes,
                migration_outcome(&m)
            ),
        );
        if let Some(d) = m.dual_owner_at {
            let d_ns = d.nanos();
            emit(
                migrations,
                "dual-owner".into(),
                d_ns,
                Some(stop.max(d_ns) - d_ns),
                format!("reg {} start {}", m.reg, m.start),
            );
        }
    }

    // Compaction boundaries and snapshot traffic.
    for c in journal.compactions() {
        emit(
            compaction,
            format!("compact@{}", c.upto),
            c.at.nanos(),
            None,
            format!("n{}: {} B snapshot", c.node.0, c.snap_bytes),
        );
    }

    // Per-replica tracks, plus the control plane's snapshot instants.
    let mut open: BTreeMap<(u16, u16), (u64, u64, u64)> = BTreeMap::new();
    for e in records {
        let replica = format!("replica n{}", e.node.0);
        let detector = (replica.as_str(), "detector");
        let lead = (replica.as_str(), "leadership");
        let t = e.time.nanos();
        match e.event {
            CtrlEvent::SnapshotSent { base, bytes, to } => emit(
                compaction,
                format!("snapshot@{base} -> n{}", to.0),
                t,
                None,
                format!("{bytes} B"),
            ),
            CtrlEvent::SnapshotInstalled { base } => emit(
                compaction,
                format!("snapshot@{base} installed"),
                t,
                None,
                format!("n{}", e.node.0),
            ),
            CtrlEvent::Suspect {
                target,
                silence_ns,
                timeout_ns,
            } => {
                open.insert((e.node.0, target.0), (t, silence_ns, timeout_ns));
            }
            CtrlEvent::Unsuspect { target } => {
                if let Some((t0, silence, budget)) = open.remove(&(e.node.0, target.0)) {
                    emit(
                        detector,
                        format!("suspect n{}", target.0),
                        t0,
                        Some(t.max(t0) - t0),
                        format!("{silence} ns silent vs {budget} ns budget"),
                    );
                }
            }
            CtrlEvent::ElectionStart { ballot, timeout_ns } => emit(
                lead,
                format!("election start (ballot {ballot})"),
                t,
                None,
                format!("after {timeout_ns} ns silence"),
            ),
            CtrlEvent::LeaderElected {
                leader,
                epoch,
                slot,
            } => emit(
                lead,
                format!("leader n{} elected (epoch {epoch})", leader.0),
                t,
                None,
                format!("decree slot {slot}"),
            ),
            CtrlEvent::StepDown { slot, ballot } => emit(
                lead,
                "step down".into(),
                t,
                None,
                format!("slot {slot}, ballot {ballot}"),
            ),
            CtrlEvent::LeaseLost { heard, quorum } => emit(
                lead,
                "lease lost".into(),
                t,
                None,
                format!("heard {heard} of quorum {quorum}"),
            ),
            _ => {}
        }
    }
    // Suspicions never cleared run to the end of the journal.
    for ((node, target), (t0, silence, budget)) in open {
        let replica = format!("replica n{node}");
        emit(
            (replica.as_str(), "detector"),
            format!("suspect n{target} (uncleared)"),
            t0,
            Some(end_ns.max(t0) - t0),
            format!("{silence} ns silent vs {budget} ns budget"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swishmem_simnet::{JournalRecord, SimTime};
    use swishmem_wire::NodeId;

    fn ev(t: u64, trace: TraceId, node: u16, phase: SpanPhase) -> SpanEvent {
        SpanEvent {
            time: SimTime(t),
            trace,
            node: NodeId(node),
            phase,
        }
    }

    fn write_timeline(trace: TraceId) -> Vec<SpanEvent> {
        vec![
            ev(100, trace, 0, SpanPhase::Ingress),
            ev(135, trace, 0, SpanPhase::Punt),
            ev(145, trace, 0, SpanPhase::CpDequeue),
            ev(155, trace, 0, SpanPhase::JobStart),
            ev(200, trace, 0, SpanPhase::ChainHop(0)),
            ev(260, trace, 1, SpanPhase::ChainHop(1)),
            ev(320, trace, 2, SpanPhase::Ack),
            ev(400, trace, 0, SpanPhase::Release),
        ]
    }

    #[test]
    fn breakdown_telescopes_to_end_to_end() {
        let t = TraceId::new(NodeId(0), 1);
        let b = explain(&write_timeline(t));
        assert_eq!(b.len(), 1);
        let b = &b[0];
        assert!(b.completed_write());
        assert_eq!(b.total_ns, 300);
        let sum: u64 = b.slices.iter().map(|s| s.dur_ns).sum();
        assert_eq!(sum, b.total_ns, "phase gaps telescope exactly");
        assert_eq!(b.slices[0].label, "punt");
        assert_eq!(b.slices.last().unwrap().label, "release");
    }

    #[test]
    fn gap_attribution_uses_the_later_marker() {
        // A retry firing after the ack was sent (interleaving): the gap
        // before `retry[1]` belongs to the retry, the next gap to release.
        let t = TraceId::new(NodeId(3), 9);
        let mut tl = write_timeline(t);
        tl.push(ev(350, t, 0, SpanPhase::Retry(1)));
        let b = explain(&tl);
        let labels: Vec<&str> = b[0].slices.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels[labels.len() - 2], "retry[1]");
        assert_eq!(labels[labels.len() - 1], "release");
        let sum: u64 = b[0].slices.iter().map(|s| s.dur_ns).sum();
        assert_eq!(sum, b[0].total_ns);
    }

    #[test]
    fn phase_histograms_aggregate_across_traces() {
        let a = TraceId::new(NodeId(0), 1);
        let b = TraceId::new(NodeId(1), 1);
        let mut evs = write_timeline(a);
        evs.extend(write_timeline(b));
        let hists = phase_histograms(&explain(&evs));
        let punt = hists.iter().find(|(l, _)| l == "punt").unwrap();
        assert_eq!(punt.1.count(), 2);
        assert_eq!(punt.1.max_ns(), 35);
    }

    #[test]
    fn perfetto_document_shape() {
        let t = TraceId::new(NodeId(0), 1);
        let doc = to_perfetto(&write_timeline(t), &Journal::new(&[])).pretty();
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"ph\": \"X\""));
        assert!(doc.contains("\"ph\": \"M\""));
        assert!(doc.contains("\"ph\": \"i\""));
        assert!(doc.contains("\"chain_hop[1]\""));
        assert!(doc.contains("switch n0"));
        // ts rendered in microseconds: the 100 ns ingress is 0.1 µs.
        assert!(doc.contains("\"ts\": 0.1"));
    }

    fn jrec(t: u64, node: u16, event: CtrlEvent) -> JournalRecord {
        JournalRecord {
            time: SimTime(t),
            node: NodeId(node),
            event,
        }
    }

    fn sample_journal() -> Vec<JournalRecord> {
        let leader = 65534u16;
        vec![
            jrec(
                1_000,
                leader,
                CtrlEvent::Suspect {
                    target: NodeId(65535),
                    silence_ns: 400,
                    timeout_ns: 350,
                },
            ),
            jrec(
                1_100,
                leader,
                CtrlEvent::ElectionStart {
                    ballot: 257,
                    timeout_ns: 350,
                },
            ),
            jrec(
                1_200,
                leader,
                CtrlEvent::LeaderElected {
                    leader: NodeId(leader),
                    epoch: 2,
                    slot: 8,
                },
            ),
            jrec(
                1_250,
                leader,
                CtrlEvent::Unsuspect {
                    target: NodeId(65535),
                },
            ),
            jrec(
                2_000,
                leader,
                CtrlEvent::MigBegin {
                    reg: 1,
                    start: 16,
                    from: NodeId(0),
                    to: NodeId(2),
                    epoch: 2,
                },
            ),
            jrec(
                2_500,
                leader,
                CtrlEvent::MigDualOwner {
                    reg: 1,
                    start: 16,
                    epoch: 2,
                    pass: 1,
                },
            ),
            jrec(
                3_000,
                leader,
                CtrlEvent::MigCommit {
                    reg: 1,
                    start: 16,
                    epoch: 3,
                },
            ),
            jrec(
                3_500,
                leader,
                CtrlEvent::Compact {
                    upto: 12,
                    snap_bytes: 640,
                },
            ),
        ]
    }

    #[test]
    fn ctrl_perfetto_renders_leadership_detector_and_migration_tracks() {
        let doc = to_perfetto(&[], &Journal::new(&sample_journal())).pretty();
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("control plane"));
        assert!(doc.contains("leader n65534 (epoch 2)"));
        assert!(doc.contains("mig reg1@16 n0->n2"));
        assert!(doc.contains("dual-owner"));
        assert!(doc.contains("compact@12"));
        assert!(doc.contains("replica n65534"));
        assert!(doc.contains("suspect n65535"));
        assert!(doc.contains("election start (ballot 257)"));
        // The suspicion slice spans 1_000..1_250 ns = 0.25 µs.
        assert!(doc.contains("\"dur\": 0.25"), "{doc}");
    }

    #[test]
    fn ctrl_perfetto_empty_journal_is_well_formed() {
        let doc = to_perfetto(&[], &Journal::new(&[])).pretty();
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("control plane"));
    }

    #[test]
    fn spans_and_journal_share_one_timeline_with_one_name_per_pid() {
        let mut spans = write_timeline(TraceId::new(NodeId(0), 1));
        spans.extend(write_timeline(TraceId::new(NodeId(1), 1)));
        let doc = to_perfetto(&spans, &Journal::new(&sample_journal()));
        let Json::Obj(fields) = &doc else {
            panic!("a document is an object")
        };
        let Json::Arr(events) = &fields[0].1 else {
            panic!("traceEvents is an array")
        };
        let field = |e: &Json, key: &str| -> Option<String> {
            let Json::Obj(kv) = e else { return None };
            let (_, v) = kv.iter().find(|(k, _)| k == key)?;
            Some(v.pretty().trim_end().to_string())
        };
        let mut names: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for e in events {
            if field(e, "name").as_deref() == Some("\"process_name\"") {
                let pid = field(e, "pid").unwrap();
                names
                    .entry(pid)
                    .or_default()
                    .push(field(e, "args").unwrap());
            }
        }
        // Two switches, the control plane and one replica.
        assert_eq!(names.len(), 4, "{names:?}");
        assert!(names.values().all(|n| n.len() == 1), "{names:?}");
        for e in events {
            let pid = field(e, "pid").unwrap();
            assert!(names.contains_key(&pid), "pid {pid} has no process_name");
        }
        let doc = doc.pretty();
        for want in ["switch n0", "switch n1", "control plane", "replica n65534"] {
            assert!(doc.contains(want), "missing {want}");
        }
    }
}
