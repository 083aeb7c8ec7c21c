//! Observability integration tests: causal span tracing across the full
//! SRO write path, tracing passivity at deployment level, and metrics
//! aggregation.

use swishmem::prelude::*;
use swishmem::probe::{tcp_read, udp_write, ProbeNf};
use swishmem::RegisterSpec;
use swishmem_simnet::{FaultSchedule, SpanPhase};
use swishmem_wire::TraceId;

fn sro_dep(seed: u64) -> Deployment {
    DeploymentBuilder::new(3)
        .seed(seed)
        .register(RegisterSpec::sro(0, "t", 64))
        .build(|_| Box::new(ProbeNf))
}

/// Drive a small SRO workload: 4 writes from two ingress switches, one
/// read. Returns the deployment after quiescing.
fn run_workload(dep: &mut Deployment) {
    dep.settle();
    let t = dep.now();
    for (i, port) in [(0usize, 7u16), (1, 8), (0, 9), (1, 7)]
        .into_iter()
        .enumerate()
    {
        dep.inject(
            t + SimDuration::millis(i as u64),
            port.0,
            0,
            udp_write(port.1, 100 + i as u16),
        );
    }
    dep.inject(t + SimDuration::millis(10), 2, 0, tcp_read(7, 999));
    dep.run_for(SimDuration::millis(40));
}

/// Satellite: `Deployment::metrics` returns per-switch snapshots and
/// `sum_metric` equals the manual per-switch sum for every counter the
/// experiments report.
#[test]
fn metrics_aggregation_matches_per_switch_sums() {
    let mut dep = sro_dep(11);
    run_workload(&mut dep);

    let manual: u64 = (0..3).map(|i| dep.metrics(i).dp.chain_applies).sum();
    assert_eq!(dep.sum_metric(|m| m.dp.chain_applies), manual);
    assert!(manual >= 4 * 3, "4 writes x 3-switch chain");

    let manual_jobs: u64 = (0..3).map(|i| dep.metrics(i).cp.jobs_completed).sum();
    assert_eq!(dep.sum_metric(|m| m.cp.jobs_completed), manual_jobs);
    assert_eq!(manual_jobs, 4, "every write job completed");

    // Per-switch attribution is preserved: only the two ingress switches
    // punted jobs, and their sum is the total.
    let per: Vec<u64> = (0..3).map(|i| dep.metrics(i).dp.sro_jobs_punted).collect();
    assert_eq!(
        per.iter().sum::<u64>(),
        dep.sum_metric(|m| m.dp.sro_jobs_punted)
    );
    assert_eq!(per[2], 0, "switch 2 never ingressed a write");
    assert_eq!(per[0] + per[1], 4);
}

/// Tentpole invariant at deployment level: attaching a span collector
/// changes no protocol outcome — same state, same counters, same
/// delivered packet count as an untraced run of the same seed.
#[test]
fn tracing_attach_is_invisible_to_protocol_outcomes() {
    let mut plain = sro_dep(42);
    run_workload(&mut plain);

    let mut traced = sro_dep(42);
    let spans = traced.attach_tracing(100_000);
    run_workload(&mut traced);

    assert!(!spans.borrow().events().is_empty(), "spans were recorded");
    for i in 0..3 {
        for key in [7u32, 8, 9] {
            assert_eq!(plain.peek(i, 0, key), traced.peek(i, 0, key));
        }
        let (a, b) = (plain.metrics(i), traced.metrics(i));
        assert_eq!(a.dp.chain_applies, b.dp.chain_applies);
        assert_eq!(a.dp.reads_forwarded, b.dp.reads_forwarded);
        assert_eq!(a.cp.jobs_completed, b.cp.jobs_completed);
        assert_eq!(a.cp.retries, b.cp.retries);
        assert_eq!(
            a.cp.write_latency.summary(),
            b.cp.write_latency.summary(),
            "latency samples must be bit-identical"
        );
    }
    assert_eq!(
        plain.sim.stats().delivered_total().packets,
        traced.sim.stats().delivered_total().packets
    );
}

/// The telescoping-marker contract: for a completed SRO write, the sum of
/// consecutive-marker gaps equals the end-to-end ingress→release latency,
/// which equals the `write_latency` histogram sample exactly.
#[test]
fn sro_span_phases_sum_to_write_latency() {
    let mut dep = sro_dep(7);
    let spans = dep.attach_tracing(100_000);
    dep.settle();
    let t = dep.now();
    dep.inject(t, 1, 0, udp_write(5, 123)); // one write via switch 1
    dep.run_for(SimDuration::millis(30));

    let c = spans.borrow();
    // Find the (single) trace that reached Release.
    let released: Vec<_> = c
        .events()
        .iter()
        .filter(|e| e.phase == SpanPhase::Release)
        .collect();
    assert_eq!(released.len(), 1, "exactly one write released");
    let trace = released[0].trace;
    let tl = c.by_trace(trace);

    // The full SRO phase sequence is present.
    let phases: Vec<SpanPhase> = tl.iter().map(|e| e.phase).collect();
    for want in [
        SpanPhase::Ingress,
        SpanPhase::Punt,
        SpanPhase::CpDequeue,
        SpanPhase::JobStart,
        SpanPhase::ChainHop(0),
        SpanPhase::ChainHop(1),
        SpanPhase::ChainHop(2),
        SpanPhase::Ack,
        SpanPhase::Release,
    ] {
        assert!(
            phases.contains(&want),
            "missing phase {want:?} in {phases:?}"
        );
    }
    assert_eq!(tl[0].phase, SpanPhase::Ingress);
    assert_eq!(tl.last().unwrap().phase, SpanPhase::Release);

    // Telescoping: per-phase gaps sum to end-to-end latency...
    let gap_sum: u64 = tl
        .windows(2)
        .map(|w| (w[1].time - w[0].time).as_nanos())
        .sum();
    let end_to_end = (tl.last().unwrap().time - tl[0].time).as_nanos();
    assert_eq!(gap_sum, end_to_end);

    // ...and end-to-end equals the recorded write_latency sample.
    let m = dep.metrics(1);
    assert_eq!(m.cp.write_latency.count(), 1);
    assert_eq!(m.cp.write_latency.max_ns(), end_to_end);
}

/// A switch that crashes and restarts keeps allocating fresh trace ids:
/// no id issued after the restart repeats one from before the crash, so
/// each operation keeps its own breakdown.
#[test]
fn restarted_switch_never_reissues_a_trace_id() {
    let mut dep = sro_dep(5);
    let spans = dep.attach_tracing(100_000);
    dep.settle();
    let t = dep.now();
    let crashed = dep.switch_ids()[1];
    let sched =
        FaultSchedule::new().crash_for(crashed, SimDuration::millis(20), SimDuration::millis(2));
    dep.schedule_faults(t, &sched);
    for i in 0..40u64 {
        if !(20..22).contains(&i) {
            dep.inject(t + SimDuration::millis(i), 1, 0, udp_write(i as u16, 100));
        }
    }
    dep.run_for(SimDuration::millis(80));

    let mut ingress: Vec<TraceId> = spans
        .borrow()
        .events()
        .iter()
        .filter(|e| e.phase == SpanPhase::Ingress && e.node == crashed)
        .map(|e| e.trace)
        .collect();
    let n = ingress.len();
    assert!(n >= 30, "writes ingressed on both sides of the crash: {n}");
    ingress.sort_unstable_by_key(|t| t.0);
    ingress.dedup();
    assert_eq!(ingress.len(), n, "a trace id opened two operations");
}

/// A read arriving while the write is pending carries its trace through
/// redirect_to_tail at the ingress and tail_serve at the tail.
#[test]
fn redirected_read_trace_spans_both_switches() {
    let mut dep = sro_dep(3);
    let spans = dep.attach_tracing(100_000);
    dep.settle();
    let t = dep.now();
    dep.inject(t, 0, 0, udp_write(5, 200));
    dep.run_for(SimDuration::micros(80)); // write still in flight
    let t2 = dep.now();
    dep.inject(t2, 0, 0, tcp_read(5, 999));
    dep.run_for(SimDuration::millis(20));

    if dep.sum_metric(|m| m.dp.reads_forwarded) == 0 {
        return; // timing did not produce a redirect; nothing to check
    }
    let c = spans.borrow();
    let redirect = c
        .events()
        .iter()
        .find(|e| e.phase == SpanPhase::RedirectToTail)
        .expect("redirect span recorded");
    let tl = c.by_trace(redirect.trace);
    let serve = tl
        .iter()
        .find(|e| e.phase == SpanPhase::TailServe)
        .expect("tail_serve span on the same trace");
    assert_ne!(redirect.node, serve.node, "served on a different switch");
    assert!(serve.time > redirect.time);
}
