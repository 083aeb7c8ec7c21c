//! E24 — the workload capture + replay lab: binary flow traces at
//! millions of flows, ring-buffer ingest, and deterministic replay.
//!
//! Three gates, all asserted:
//!
//! 1. **Synthesis + round-trip at scale** — a heavy-tail trace (1M flows
//!    in full mode) streams into the `.swtrace` binary format and reads
//!    back with an identical record count and validated superblock.
//! 2. **Ring ingest and replay determinism** — replaying through the
//!    SwiShmem deployment with the ring buffer in the path gives the
//!    digest of the generator-driven (ring-free) replay, on each of three
//!    runs: *trace + seed = a run*. The ring's events/s against the
//!    generator-driven rate is reported, not gated: it moves with host
//!    load.
//! 3. **Scenario packs** — all five oracle-armed packs pass clean, and a
//!    sabotaged feed fails (the oracle is demonstrably live).

use std::time::Instant;

use crate::scenarios::replay_deployment;
use crate::table::{ExperimentResult, Table};
use swishmem::prelude::*;
use swishmem_replay::{
    from_swtrace_bytes, replay_digest, replay_trace, run_pack, synth_trace_bytes, to_swtrace_bytes,
    PackConfig, PackKind, ReplayConfig, Sabotage, SynthConfig, TraceMeta, TraceReader, TraceRecord,
};

/// Replay `bytes` into `dep` from 1 ms after now: through the replay
/// engine proper (reader → FlowRing → inject) when `ring`, else
/// generator-driven, parsing and injecting directly, batched exactly
/// like the replay engine. Returns engine events processed and wall ns.
pub fn timed_replay(dep: &mut Deployment, bytes: &[u8], ring: bool) -> (u64, u64) {
    let pre = dep.sim.events_processed();
    let start = SimTime(dep.now().0 + 1_000_000);
    let wall = Instant::now();
    let mut reader =
        TraceReader::new(std::io::Cursor::new(bytes)).expect("in-memory trace must parse");
    if ring {
        let cfg = ReplayConfig {
            start,
            ..ReplayConfig::default()
        };
        replay_trace(dep, &mut reader, &cfg).expect("in-memory replay");
    } else {
        let base = reader.meta().clock_base_ns;
        let n_hosts = dep.host_ids().len().max(1);
        'outer: loop {
            let mut last = dep.now();
            for _ in 0..512 {
                let Some(rec) = reader.next_record().expect("in-memory read") else {
                    dep.run_until(last);
                    break 'outer;
                };
                let t = SimTime(start.0 + (rec.time_ns - base)).max(dep.now());
                let sw = usize::from(rec.ingress) % 3;
                let from = (rec.flow_hash() as usize) % n_hosts;
                dep.inject(t, sw, from, rec.to_packet());
                last = last.max(t);
            }
            dep.run_until(last);
        }
    }
    (
        dep.sim.events_processed() - pre,
        wall.elapsed().as_nanos() as u64,
    )
}

/// The first `n` of `records` as `.swtrace` bytes.
fn slice_bytes(records: &[TraceRecord], n: usize) -> Vec<u8> {
    let slice = &records[..records.len().min(n)];
    to_swtrace_bytes(slice, TraceMeta::default()).expect("slice serializes")
}

/// Best-of-`reps` events/s for the generator-driven path and the ring
/// path over the same trace `bytes`, each rep on fresh replay
/// deployments at `seed`, plus the digest of every replay 10 ms on:
/// `(direct, ring, direct digests, ring digests)`.
fn ring_parity(bytes: &[u8], seed: u64, reps: u32) -> (f64, f64, Vec<u64>, Vec<u64>) {
    let rate = |(ev, ns): (u64, u64)| ev as f64 / (ns as f64 / 1e9);
    let (mut best_direct, mut best_ring) = (0.0f64, 0.0f64);
    let (mut direct_digests, mut ring_digests) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        for ring in [false, true] {
            let mut dep = replay_deployment(seed);
            let r = rate(timed_replay(&mut dep, bytes, ring));
            dep.run_for(SimDuration::millis(10));
            let (best, digests) = if ring {
                (&mut best_ring, &mut ring_digests)
            } else {
                (&mut best_direct, &mut direct_digests)
            };
            *best = best.max(r);
            digests.push(replay_digest(&dep, 256));
        }
    }
    (best_direct, best_ring, direct_digests, ring_digests)
}

/// Run E24.
pub fn run(quick: bool) -> ExperimentResult {
    // The ingress slot counts are the ones the recorded E24 traces were
    // synthesized with; changing them changes every record stream.
    let (flows, ingress) = if quick {
        (20_000u64, 16)
    } else {
        (1_000_000u64, 56)
    };
    let synth_cfg = SynthConfig {
        flows,
        clients: 4_096,
        servers: 256,
        ingress,
        duration: flows.max(10_000) * 100, // ~10 flow arrivals / µs
        ..SynthConfig::default()
    };
    let seed = 24;

    // ------------------------------------------------------------------
    // 1. Synthesis + binary round-trip at scale.
    // ------------------------------------------------------------------
    let t0 = Instant::now();
    let bytes = synth_trace_bytes(&synth_cfg, seed);
    let synth_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let (meta, records) = from_swtrace_bytes(&bytes).expect("synthesized trace must read back");
    let read_ns = t1.elapsed().as_nanos() as u64;
    assert_eq!(meta.record_count, records.len() as u64, "count round-trip");
    assert!(meta.record_count >= flows, "every flow has >= 1 record");
    let trace_mb = bytes.len() as f64 / 1e6;
    drop(bytes);

    let mut synth_t = Table::new(
        &format!("Trace synthesis + .swtrace round-trip ({flows} flows, seed {seed})"),
        &[
            "flows",
            "records",
            "trace MB",
            "synth ms",
            "synth records/s",
            "read-back ms",
            "read records/s",
        ],
    );
    synth_t.row(vec![
        flows.to_string(),
        meta.record_count.to_string(),
        format!("{trace_mb:.1}"),
        format!("{:.0}", synth_ns as f64 / 1e6),
        format!("{:.0}", meta.record_count as f64 / (synth_ns as f64 / 1e9)),
        format!("{:.0}", read_ns as f64 / 1e6),
        format!("{:.0}", meta.record_count as f64 / (read_ns as f64 / 1e9)),
    ]);

    // ------------------------------------------------------------------
    // 2. Ring-ingest parity on the SwiShmem deployment, plus the
    //    determinism gate: every ring replay yields one digest.
    // ------------------------------------------------------------------
    let n_slice = records.len().min(if quick { 8_000 } else { 20_000 });
    let reps = 3;
    let (best_direct, best_ring, direct_digests, ring_digests) =
        ring_parity(&slice_bytes(&records, n_slice), seed, reps);
    let digest = direct_digests[0];
    assert!(
        direct_digests
            .iter()
            .chain(&ring_digests)
            .all(|&d| d == digest),
        "every replay must give the generator-driven digest: \
         {direct_digests:x?} {ring_digests:x?}"
    );
    let ratio = best_ring / best_direct.max(1.0);
    let mut ring_t = Table::new(
        &format!("Ring-ingest parity, protocol deployment ({n_slice} records, best of {reps})"),
        &["path", "events/s", "vs generator-driven", "replay digest"],
    );
    ring_t.row(vec![
        "generator-driven (no ring)".into(),
        format!("{best_direct:.0}"),
        "1.00x".into(),
        format!("{digest:016x}"),
    ]);
    ring_t.row(vec![
        "ring ingest (reader→ring→inject)".into(),
        format!("{best_ring:.0}"),
        format!("{ratio:.2}x"),
        format!("{:016x}", ring_digests[0]),
    ]);
    drop(records);

    // ------------------------------------------------------------------
    // 3. Scenario packs: five clean passes + one sabotaged failure.
    // ------------------------------------------------------------------
    let mut pack_t = Table::new(
        "Scenario packs (oracle suite + replay guard + state gates armed)",
        &["pack", "records", "stalls", "verdict", "headline measure"],
    );
    for kind in PackKind::ALL {
        let report = run_pack(&PackConfig::new(kind, seed, quick));
        assert!(
            report.pass,
            "pack {} failed: {:?}",
            report.name, report.violations
        );
        let headline = report
            .measures
            .first()
            .map(|(k, v)| format!("{k}={v:.0}"))
            .unwrap_or_default();
        pack_t.row(vec![
            report.name.to_string(),
            report.records.to_string(),
            report.stalls.to_string(),
            "pass".into(),
            headline,
        ]);
    }
    let sabotaged = run_pack(&PackConfig {
        sabotage: Some(Sabotage::DuplicateFlowRecord),
        ..PackConfig::new(PackKind::FlashCrowd, seed, quick)
    });
    assert!(
        !sabotaged.pass,
        "the sabotaged run must fail — otherwise the oracle gate is dead"
    );
    pack_t.row(vec![
        "flash_crowd (sabotaged)".into(),
        sabotaged.records.to_string(),
        sabotaged.stalls.to_string(),
        format!("FAIL ({})", sabotaged.violations.len()),
        sabotaged
            .violations
            .first()
            .cloned()
            .unwrap_or_default()
            .chars()
            .take(48)
            .collect(),
    ]);

    let findings = vec![
        format!(
            "{} flows -> {} records round-trip the .swtrace format ({:.1} MB) with a validated \
             superblock",
            flows, meta.record_count, trace_mb
        ),
        format!(
            "{reps} ring replays of the trace on the SwiShmem deployment give the \
             generator-driven digest ({digest:016x}) — a trace plus a seed is a run"
        ),
        format!(
            "ring-buffer ingest ran at {ratio:.2}x the generator-driven rate (host time, \
             reported, not gated)"
        ),
        "all five scenario packs pass their oracle gates; the sabotaged feed fails through the \
         replay guard, proving the gate is live"
            .into(),
    ];
    ExperimentResult {
        id: "E24".into(),
        title: "Workload capture + replay lab: binary traces, ring ingest, scenario packs".into(),
        paper_anchor: "§7 evaluation workloads (stateful NFs under realistic traffic)".into(),
        expectation: "deterministic replay; ring ingest reproduces the \
                      generator-driven run; five oracle-armed packs pass, sabotage fails"
            .into(),
        tables: vec![synth_t, ring_t, pack_t],
        findings,
    }
}
