//! The passivity contract at tier-1: attaching every observation tap at
//! once — spans, journal, ingress capture, a packet `Trace` and the
//! oracle suite — leaves a seeded, fault-swept SRO run bit-identical, and
//! the taps' streams are pinned.
//!
//! One 3-switch deployment with 3 controller replicas runs a `FaultGen`
//! schedule (switch and replica crashes, link faults) under chain writes,
//! bare and then observed. Register state, per-switch metrics and the
//! engine's statistics must agree between the two runs; the record count
//! of each tap and an FNV-1a hash of the span and journal streams are
//! constants: the span hash recorded before the taps became
//! `NetObserver`s, the journal hash (over each record's time, node and
//! rendered event) before the journal became a typed stream.

use swishmem::oracle::{OracleConfig, OracleSuite, POLL_INTERVAL};
use swishmem::prelude::*;
use swishmem::probe::{udp_write, WriteNf};
use swishmem::{Deployment, RegisterSpec};
use swishmem_simnet::{FaultGen, Trace};

const KEYS: u32 = 16;
const SEED: u64 = 2525;

/// What a run leaves behind that attaching a tap must not move.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    registers: Vec<u64>,
    metrics: Vec<String>,
    stats: String,
    events: u64,
    end_ns: u64,
    /// Frames each host counted.
    hosts: Vec<usize>,
}

/// What the taps saw: record counts and stream hashes.
#[derive(Debug, PartialEq, Eq)]
struct Seen {
    spans: usize,
    journal: usize,
    capture: usize,
    trace: usize,
    span_hash: u64,
    journal_hash: u64,
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn outcome(dep: &Deployment) -> Outcome {
    let n = dep.switch_ids().len();
    Outcome {
        registers: (0..n)
            .flat_map(|i| (0..KEYS).map(move |k| (i, k)))
            .map(|(i, k)| dep.peek(i, 0, k))
            .collect(),
        metrics: (0..n).map(|i| format!("{:?}", dep.metrics(i))).collect(),
        stats: format!("{:?}", dep.sim.stats()),
        events: dep.sim.events_processed(),
        end_ns: dep.now().nanos(),
        hosts: (0..dep.host_ids().len())
            .map(|h| dep.recording(h).borrow().len())
            .collect(),
    }
}

fn run(observed: bool) -> (Outcome, Option<Seen>) {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(SEED)
        .ctrl_replicas(3)
        .register(RegisterSpec::sro(0, "t", KEYS))
        .build(|_| Box::new(WriteNf));
    let taps = observed.then(|| {
        let trace = Trace::new(1 << 20);
        dep.add_observer(trace.clone());
        let spans = dep.attach_tracing(1 << 20);
        let journal = dep.attach_journal(1 << 20);
        let capture = dep.attach_capture(1 << 20);
        (spans, journal, capture, trace)
    });
    dep.settle();
    let t0 = dep.now();
    let horizon = SimDuration::millis(60);
    let sched = FaultGen::new(SEED).generate_with_controllers(
        dep.switch_ids(),
        dep.controller_ids(),
        &dep.fault_links(),
        horizon,
        4,
    );
    assert!(!sched.is_empty(), "seed {SEED} should generate faults");
    dep.schedule_faults(t0, &sched);
    for i in 0..48u64 {
        let key = (i % u64::from(KEYS)) as u16;
        dep.inject(
            t0 + SimDuration::micros(i * 1000),
            (i % 3) as usize,
            0,
            udp_write(key, 100 + i as u16),
        );
    }
    let ocfg = OracleConfig::new(t0 + horizon);
    let mut suite = observed.then(|| {
        let mut suite = OracleSuite::attach(&mut dep, ocfg);
        if let Some((_, journal, ..)) = &taps {
            suite.attach_journal(journal.clone());
        }
        suite
    });
    // Both runs step the engine the same way; only the observed one polls.
    let end = t0 + horizon + ocfg.convergence_grace;
    while dep.now() < end {
        dep.run_for(POLL_INTERVAL);
        if let Some(suite) = &mut suite {
            if let Some(v) = suite.poll(&dep) {
                panic!("oracle violation: {v}\n{sched}");
            }
        }
    }

    let out = outcome(&dep);
    let seen = taps.map(|(spans, journal, capture, trace)| {
        let (spans, journal) = (spans.borrow(), journal.borrow());
        let mut span_hash = 0xcbf2_9ce4_8422_2325;
        for e in spans.events() {
            fnv(&mut span_hash, e.time.nanos());
            fnv(&mut span_hash, e.trace.0);
            fnv(&mut span_hash, u64::from(e.node.0));
            for b in e.phase.label().bytes() {
                fnv(&mut span_hash, u64::from(b));
            }
        }
        let mut journal_hash = 0xcbf2_9ce4_8422_2325;
        for r in journal.events() {
            fnv(&mut journal_hash, r.time.nanos());
            fnv(&mut journal_hash, u64::from(r.node.0));
            for b in r.event.to_string().bytes() {
                fnv(&mut journal_hash, u64::from(b));
            }
        }
        assert_eq!(spans.overflowed() + journal.overflowed(), 0);
        let capture = capture.borrow().len();
        let trace = trace.borrow();
        assert_eq!(trace.overflowed(), 0);
        // Each host's count agrees with the frames the trace saw it receive.
        assert!(
            out.hosts.iter().sum::<usize>() > 0,
            "no frame reached a host"
        );
        for (h, &counted) in out.hosts.iter().enumerate() {
            assert_eq!(counted, trace.received_by(dep.host(h)).len(), "host {h}");
        }
        let trace = trace.len();
        Seen {
            spans: spans.events().len(),
            journal: journal.len(),
            capture,
            trace,
            span_hash,
            journal_hash,
        }
    });
    (out, seen)
}

#[test]
fn attaching_every_tap_is_invisible_and_their_streams_are_pinned() {
    let (bare, none) = run(false);
    let (observed, seen) = run(true);
    assert!(none.is_none());
    assert_eq!(bare, observed, "attaching the taps perturbed the run");
    let seen = seen.expect("observed run");
    println!("{seen:?}");
    let want = Seen {
        spans: 421,
        journal: 71,
        capture: 48,
        trace: 2387,
        // Re-recorded when a restarted switch stopped reissuing trace ids
        // from before its crash.
        span_hash: 5_550_096_544_354_866_790,
        // Over each record's time, node and rendered event line.
        journal_hash: 8_894_366_574_081_244_697,
    };
    assert_eq!(seen, want, "a tap's stream moved");
}
