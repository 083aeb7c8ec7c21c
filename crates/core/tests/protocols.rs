//! Core protocol tests: SRO chain replication, ERO local reads, EWO
//! convergence, failover and recovery, exercised through full deployments.

use swishmem::prelude::*;
use swishmem::probe::{tcp_read, udp_write, CounterNf, ProbeNf};
use swishmem::{ConfigEventKind, RegisterSpec};
use swishmem_simnet::{DropReason, Trace, TraceHandle, TrafficClass};
use swishmem_wire::PacketBody;

fn sro_dep(n: usize) -> Deployment {
    DeploymentBuilder::new(n)
        .register(RegisterSpec::sro(0, "t", 64))
        .build(|_| Box::new(ProbeNf))
}

/// A packet trace of every delivery in the run, attached before it.
fn trace(dep: &mut Deployment) -> TraceHandle {
    let trace = Trace::new(1 << 12);
    dep.add_observer(trace.clone());
    trace
}

/// The values host 1 read back (`flow_seq` of each packet it received),
/// read off the trace.
fn values_read(dep: &Deployment, trace: &TraceHandle) -> Vec<u32> {
    let trace = trace.borrow();
    assert_eq!(trace.overflowed(), 0);
    trace
        .received_by(dep.host(1))
        .into_iter()
        .map(|e| match &e.pkt.body {
            PacketBody::Data(d) => d.flow_seq,
            other => panic!("unexpected {other:?}"),
        })
        .collect()
}

#[test]
fn sro_write_replicates_to_every_switch() {
    let mut dep = sro_dep(3);
    dep.settle();
    let t = dep.now();
    dep.inject(t, 1, 0, udp_write(7, 123)); // write via switch 1
    dep.run_for(SimDuration::millis(20));
    for i in 0..3 {
        assert_eq!(dep.peek(i, 0, 7), 123, "switch {i} missing the write");
    }
    // The output packet was released to host 0 after the chain ack.
    assert_eq!(dep.recording(0).borrow().len(), 1);
    // Pending bits all cleared.
    let m0 = dep.metrics(0);
    assert!(m0.dp.chain_applies >= 1);
}

#[test]
fn sro_output_packet_held_until_ack() {
    let mut dep = sro_dep(3);
    dep.settle();
    let t = dep.now();
    dep.inject(t, 0, 0, udp_write(9, 50));
    // Just after injection the packet must NOT have been released: chain
    // traversal plus control-plane costs take tens of microseconds.
    dep.run_for(SimDuration::micros(20));
    assert_eq!(dep.recording(0).borrow().len(), 0, "P' released before ack");
    dep.run_for(SimDuration::millis(20));
    assert_eq!(dep.recording(0).borrow().len(), 1);
    let m = dep.metrics(0);
    assert_eq!(m.cp.jobs_completed, 1);
    assert!(m.cp.write_latency.mean_ns() > 0.0);
}

#[test]
fn sro_reads_are_local_when_no_write_in_flight() {
    let mut dep = sro_dep(3);
    let trace = trace(&mut dep);
    dep.settle();
    let t = dep.now();
    dep.inject(t, 0, 0, udp_write(3, 77));
    dep.run_for(SimDuration::millis(20));
    // Read at a non-tail switch (switch 0 is head of chain 0,1,2).
    let t = dep.now();
    dep.inject(t, 0, 0, tcp_read(3, 999));
    dep.run_for(SimDuration::millis(5));
    assert_eq!(values_read(&dep, &trace), [77]);
    let forwarded: u64 = (0..3).map(|i| dep.metrics(i).dp.reads_forwarded).sum();
    assert_eq!(forwarded, 0, "no read should have been redirected");
}

#[test]
fn sro_read_during_write_redirects_to_tail_and_sees_committed_value() {
    let mut dep = sro_dep(3);
    let trace = trace(&mut dep);
    dep.settle();
    let t = dep.now();
    dep.inject(t, 0, 0, udp_write(5, 200));
    // While the write is still in flight (control-plane punt takes ~45 µs,
    // chain propagation more), read the same key at the head. The pending
    // bit is set once the chain write passes switch 0.
    dep.run_for(SimDuration::micros(80));
    let t2 = dep.now();
    dep.inject(t2, 0, 0, tcp_read(5, 999));
    dep.run_for(SimDuration::millis(20));

    let read = values_read(&dep, &trace);
    assert_eq!(read.len(), 1);
    // Either the read waited out the pending bit at the tail (sees
    // 200) — never a torn/stale mix.
    assert!(read[0] == 200 || read[0] == 0);
    let m: u64 = (0..3).map(|i| dep.metrics(i).dp.reads_forwarded).sum();
    let served: u64 = (0..3).map(|i| dep.metrics(i).dp.tail_reads_served).sum();
    assert_eq!(m, served);
}

#[test]
fn ero_never_redirects_reads() {
    let mut dep = DeploymentBuilder::new(3)
        .register(RegisterSpec::ero(0, "t", 64))
        .build(|_| Box::new(ProbeNf));
    dep.settle();
    let t = dep.now();
    dep.inject(t, 0, 0, udp_write(5, 200));
    dep.run_for(SimDuration::micros(60));
    let t2 = dep.now();
    dep.inject(t2, 0, 0, tcp_read(5, 999));
    dep.run_for(SimDuration::millis(20));
    assert_eq!(dep.sum_metric(|m| m.dp.reads_forwarded), 0);
    // ERO allocates no pending bits at all.
    let sw = dep.switch(0);
    assert_eq!(sw.dp().budget().used_by_prefix("swish.t.pending"), 0);
}

#[test]
fn ewo_counters_converge_across_switches() {
    let mut dep = DeploymentBuilder::new(4)
        .register(RegisterSpec::ewo_counter(0, "cnt", 32))
        .build(|_| Box::new(CounterNf));
    dep.settle();
    let t = dep.now();
    // 10 increments spread over all 4 switches.
    for i in 0..10u64 {
        dep.inject(
            t + SimDuration::micros(i * 10),
            (i % 4) as usize,
            0,
            udp_write(7, 10),
        );
    }
    dep.run_for(SimDuration::millis(10));
    for i in 0..4 {
        assert_eq!(dep.peek(i, 0, 7), 10, "switch {i} did not converge");
    }
    // Output packets were NOT held (EWO writes are asynchronous).
    assert_eq!(dep.recording(0).borrow().len(), 10);
    assert_eq!(dep.sum_metric(|m| m.cp.jobs_started), 0);
}

#[test]
fn ewo_converges_through_periodic_sync_alone_under_loss() {
    let cfg = SwishConfig {
        eager_updates: false,
        ..SwishConfig::default()
    }; // periodic sync only
    let mut dep = DeploymentBuilder::new(3)
        .link(LinkParams::lossy(0.3))
        .swish_config(cfg)
        .register(RegisterSpec::ewo_counter(0, "cnt", 8))
        .build(|_| Box::new(CounterNf));
    dep.settle();
    let t = dep.now();
    for i in 0..6u64 {
        dep.inject(
            t + SimDuration::micros(i),
            (i % 3) as usize,
            0,
            udp_write(1, 10),
        );
    }
    // Plenty of sync rounds to beat 30% loss.
    dep.run_for(SimDuration::millis(200));
    for i in 0..3 {
        assert_eq!(
            dep.peek(i, 0, 1),
            6,
            "switch {i} did not converge via periodic sync"
        );
    }
    assert!(dep.sim.stats().dropped(DropReason::Loss).packets > 0);
    assert!(dep.sim.stats().delivered(TrafficClass::EwoSync).packets > 0);
}

#[test]
fn sro_failover_writes_block_then_resume() {
    let mut dep = sro_dep(3);
    dep.settle();
    // Kill the tail (switch 2).
    let t_fail = dep.now() + SimDuration::millis(1);
    dep.schedule_fail(t_fail, 2);
    // A write issued right after the failure cannot complete until the
    // controller reconfigures the chain.
    dep.inject(t_fail + SimDuration::micros(100), 0, 0, udp_write(4, 44));
    dep.run_for(SimDuration::millis(200));
    // The write eventually completed on the shortened chain.
    assert_eq!(dep.peek(0, 0, 4), 44);
    assert_eq!(dep.peek(1, 0, 4), 44);
    assert_eq!(dep.recording(0).borrow().len(), 1);
    // The writer had to retry across the reconfiguration.
    assert!(
        dep.metrics(0).cp.retries > 0,
        "expected retries during failover"
    );
    let events = dep.controller_events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == ConfigEventKind::Failed(NodeId(2))),
        "controller never declared the failure: {events:?}"
    );
}

#[test]
fn recovered_switch_catches_up_via_snapshot_and_rejoins() {
    let mut dep = sro_dep(3);
    dep.settle();
    let t0 = dep.now();
    // Populate some state.
    for k in 0..10u16 {
        dep.inject(
            t0 + SimDuration::micros(u64::from(k) * 50),
            0,
            0,
            udp_write(k, 100 + k),
        );
    }
    dep.run_for(SimDuration::millis(30));
    // Fail switch 2, let the controller notice, then recover it.
    let t_fail = dep.now();
    dep.schedule_fail(t_fail, 2);
    dep.run_for(SimDuration::millis(60));
    let t_rec = dep.now();
    dep.schedule_recover(t_rec, 2);
    dep.run_for(SimDuration::millis(200));

    // Switch 2 was wiped on failure but caught up via the snapshot.
    for k in 0..10u16 {
        assert_eq!(
            dep.peek(2, 0, u32::from(k)),
            u64::from(100 + k),
            "key {k} not recovered"
        );
    }
    let events = dep.controller_events();
    assert!(events
        .iter()
        .any(|e| e.kind == ConfigEventKind::LearnerAdded(NodeId(2))));
    assert!(events
        .iter()
        .any(|e| e.kind == ConfigEventKind::Promoted(NodeId(2))));
    assert!(dep.metrics(2).dp.snapshot_applied >= 10);
    // And it serves reads again as tail: write once more, read at 2.
    let t = dep.now();
    dep.inject(t, 2, 0, udp_write(50, 7));
    dep.run_for(SimDuration::millis(20));
    assert_eq!(dep.peek(2, 0, 50), 7);
}

#[test]
fn ewo_failover_needs_no_protocol() {
    let mut dep = DeploymentBuilder::new(3)
        .register(RegisterSpec::ewo_counter(0, "cnt", 8))
        .build(|_| Box::new(CounterNf));
    dep.settle();
    let t = dep.now();
    for i in 0..6u64 {
        dep.inject(
            t + SimDuration::micros(i * 5),
            (i % 3) as usize,
            0,
            udp_write(1, 10),
        );
    }
    dep.run_for(SimDuration::millis(10));
    assert_eq!(dep.peek(0, 0, 1), 6);
    // Kill switch 2: survivors keep the full count (its slot was already
    // replicated to them).
    let t_fail = dep.now();
    dep.schedule_fail(t_fail, 2);
    dep.run_for(SimDuration::millis(50));
    assert_eq!(dep.peek(0, 0, 1), 6);
    assert_eq!(dep.peek(1, 0, 1), 6);
    // Recover switch 2: periodic sync restores everything, including its
    // own pre-failure contributions.
    let t_rec = dep.now();
    dep.schedule_recover(t_rec, 2);
    dep.run_for(SimDuration::millis(100));
    assert_eq!(
        dep.peek(2, 0, 1),
        6,
        "recovered switch should re-learn all slots via sync"
    );
}

#[test]
fn deterministic_deployments() {
    fn run() -> (u64, u64) {
        let mut dep = DeploymentBuilder::new(3)
            .seed(99)
            .link(LinkParams::lossy(0.1))
            .register(RegisterSpec::ewo_counter(0, "cnt", 8))
            .build(|_| Box::new(CounterNf));
        dep.settle();
        let t = dep.now();
        for i in 0..20u64 {
            dep.inject(
                t + SimDuration::micros(i * 3),
                (i % 3) as usize,
                0,
                udp_write(1, 10),
            );
        }
        dep.run_for(SimDuration::millis(50));
        (dep.peek(0, 0, 1), dep.sim.stats().delivered_total().bytes)
    }
    assert_eq!(run(), run());
}
