//! E23 — control-plane flight recorder overhead and fidelity: the
//! journal fast path must be free when nobody subscribes to it, and an
//! attached journal must reconstruct control-plane timings exactly. Two
//! identical ping-pong simulations are timed wall-clock (mirroring E18's
//! methodology): both do the same protocol work per packet, but only one
//! encodes and emits a `CtrlEvent` with **no** journal subscriber —
//! the controller's instrumentation density on its hottest paths. The
//! gate is <2% events/s regression (DESIGN.md §14). A second table
//! replays E22's leader-crash scenario with the journal attached and
//! checks that the journal-reconstructed failover gap agrees with the
//! controller's own election log to within 1 µs.

use crate::scenarios::udp_write;
use crate::table::{ExperimentResult, Table};
use std::net::Ipv4Addr;
use std::time::Instant;
use swishmem::prelude::*;
use swishmem::{CtrlEvent, Deployment, Journal, NfApp, NfDecision, RegisterSpec, SharedState};
use swishmem_simnet::{Ctx, Node, NodeObj, Simulator};
use swishmem_wire::{Packet, PacketBody};

/// Bounces packets back and forth `ttl` times, doing the unconditional
/// per-packet bookkeeping but never touching the journal API.
struct PlainEcho {
    ttl: u32,
    seq: u64,
}
impl Node for PlainEcho {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketBody::Data(d) = pkt.body {
            self.seq += 1;
            std::hint::black_box(self.seq);
            if d.flow_seq < self.ttl {
                let mut d2 = d;
                d2.flow_seq += 1;
                ctx.send(pkt.src, PacketBody::Data(d2));
            }
        }
    }
}

/// Same ping-pong plus the recorder hook under test: one typed journal
/// event per packet (encode + emit). With no journal subscriber the
/// emission stops at the family check.
struct JournaledEcho {
    ttl: u32,
    seq: u64,
}
impl Node for JournaledEcho {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketBody::Data(d) = pkt.body {
            self.seq += 1;
            CtrlEvent::Applied {
                slot: self.seq,
                tag: 3,
            }
            .emit(ctx);
            if d.flow_seq < self.ttl {
                let mut d2 = d;
                d2.flow_seq += 1;
                ctx.send(pkt.src, PacketBody::Data(d2));
            }
        }
    }
}

fn pkt() -> Packet {
    Packet::data(
        NodeId(0),
        NodeId(1),
        DataPacket::udp(
            FlowKey::udp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 0, 2), 2),
            0,
            64,
        ),
    )
}

fn build(events: u64, journaled: bool) -> Simulator {
    let mut sim = Simulator::new(1);
    let mk = |_: u16| -> Box<dyn NodeObj> {
        if journaled {
            Box::new(JournaledEcho {
                ttl: events as u32,
                seq: 0,
            })
        } else {
            Box::new(PlainEcho {
                ttl: events as u32,
                seq: 0,
            })
        }
    };
    sim.add_node(NodeId(0), mk(0));
    sim.add_node(NodeId(1), mk(1));
    sim.topology_mut()
        .connect(NodeId(0), NodeId(1), LinkParams::datacenter());
    sim.inject(SimTime::ZERO, pkt());
    sim
}

fn time_once(events: u64, journaled: bool) -> f64 {
    let mut sim = build(events, journaled);
    let t = Instant::now();
    sim.run_until_quiescent(SimTime(u64::MAX / 2));
    let dt = t.elapsed().as_secs_f64();
    assert!(sim.stats().delivered_total().packets >= events);
    dt
}

/// Best-of-`reps` events/s for both configurations, reps interleaved so
/// clock drift and scheduler noise hit both sides alike (the E18
/// estimator). Returns `(plain, journaled)` events/s.
pub fn measure_pair(events: u64, reps: usize) -> (f64, f64) {
    time_once(events.min(10_000), false);
    time_once(events.min(10_000), true);
    let (mut best_p, mut best_j) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best_p = best_p.min(time_once(events, false));
        best_j = best_j.min(time_once(events, true));
    }
    (events as f64 / best_p, events as f64 / best_j)
}

// ---------------------------------------------------------------------
// Fidelity: journal-reconstructed failover gap vs the election log
// ---------------------------------------------------------------------

struct WriteNf;
impl NfApp for WriteNf {
    fn process(&mut self, pkt: &DataPacket, _i: NodeId, st: &mut dyn SharedState) -> NfDecision {
        st.write(0, u32::from(pkt.flow.dst_port), u64::from(pkt.payload_len));
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

const KEYS: u32 = 48;

fn inject_writes(dep: &mut Deployment, t0: SimTime, n: u64, window: SimDuration) {
    let step = window.as_nanos() / n.max(1);
    for i in 0..n {
        let key = (i % u64::from(KEYS)) as u16;
        dep.inject(
            t0 + SimDuration::nanos(i * step),
            (i % 3) as usize,
            0,
            udp_write(key, 100 + (i % 400) as u16),
        );
    }
}

/// E22's leader-crash scenario with the journal attached: returns
/// `(measured_gap_ns, journal_gap_ns)` — crash-to-election as the
/// controller's election log saw it vs as the journal reconstructs it.
pub fn crash_gaps(seed: u64) -> Option<(u64, u64)> {
    let cfg = SwishConfig {
        ctrl_replicas: 3,
        adaptive_detector: true,
        ..Default::default()
    };
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(seed)
        .swish_config(cfg)
        .register(RegisterSpec::partitioned(0, "p", KEYS))
        .build(|_| Box::new(WriteNf));
    let journal = dep.attach_journal(1 << 16);
    dep.settle();
    dep.run_for(SimDuration::millis(30)); // detector warm-up
    let t_crash = dep.now();
    dep.schedule_ctrl_fail(t_crash, 0);
    inject_writes(&mut dep, t_crash, 24, SimDuration::millis(20));
    dep.run_for(SimDuration::millis(60));
    let measured = dep
        .controller()
        .elections()
        .iter()
        .find(|e| e.time >= t_crash)
        .map(|e| e.time.since(t_crash).0)?;
    let decoded = Journal::decode(journal.borrow().events());
    let reconstructed = decoded
        .failovers()
        .iter()
        .find(|f| f.elected_at >= t_crash)
        .map(|f| f.elected_at.since(t_crash).0)?;
    Some((measured, reconstructed))
}

/// Run E23.
pub fn run(quick: bool) -> ExperimentResult {
    let events: u64 = if quick { 20_000 } else { 100_000 };
    let reps: usize = if quick { 5 } else { 9 };
    let (plain, journaled) = measure_pair(events, reps);
    let overhead_pct = (plain / journaled - 1.0) * 100.0;

    let mut t = Table::new(
        "Engine throughput with the flight recorder compiled in (no collector attached)",
        &["config", "events", "events/s (best)", "relative"],
    );
    t.row(vec![
        "plain echo (no journal emission)".into(),
        events.to_string(),
        format!("{:.2}M", plain / 1e6),
        "1.000x".into(),
    ]);
    t.row(vec![
        "journaled echo (1 event/pkt, detached)".into(),
        events.to_string(),
        format!("{:.2}M", journaled / 1e6),
        format!("{:.3}x", journaled / plain),
    ]);

    let seeds: Vec<u64> = if quick {
        (801..805).collect()
    } else {
        (801..809).collect()
    };
    let mut acc = Table::new(
        "Failover gap: controller election log vs journal reconstruction",
        &["seed", "measured ns", "journal ns", "|diff| ns"],
    );
    let mut worst_diff: u64 = 0;
    let mut reconstructed = 0usize;
    for &seed in &seeds {
        match crash_gaps(seed) {
            Some((m, j)) => {
                let diff = m.abs_diff(j);
                worst_diff = worst_diff.max(diff);
                reconstructed += 1;
                acc.row(vec![
                    seed.to_string(),
                    m.to_string(),
                    j.to_string(),
                    diff.to_string(),
                ]);
            }
            None => {
                acc.row(vec![
                    seed.to_string(),
                    "-".into(),
                    "-".into(),
                    "no failover".into(),
                ]);
            }
        }
    }

    let overhead_verdict = if overhead_pct < 2.0 { "PASS" } else { "FAIL" };
    let fidelity_verdict = if reconstructed == seeds.len() && worst_diff <= 1_000 {
        "PASS"
    } else {
        "FAIL"
    };
    let findings = vec![
        format!(
            "detached journaling costs {overhead_pct:+.2}% events/s on the ping-pong engine \
             workload (gate: <2% — {overhead_verdict}); emission with no journal subscriber \
             is an encode plus one family check"
        ),
        format!(
            "the journal reconstructed the crash-to-election gap on {reconstructed}/{} seeds \
             with worst disagreement {worst_diff} ns against the controller's election log \
             (gate: <=1 µs — {fidelity_verdict}); both stamp the same decree-apply instant, \
             so the expected disagreement is zero",
            seeds.len()
        ),
    ];
    ExperimentResult {
        id: "E23".into(),
        title: "Flight recorder: detached overhead and reconstruction fidelity".into(),
        paper_anchor: "DESIGN.md §14 (control-plane flight recorder)".into(),
        expectation: "<2% events/s regression with journaling compiled in but detached; \
                      journal failover gap within 1 µs of the election log"
            .into(),
        tables: vec![t, acc],
        findings,
    }
}
