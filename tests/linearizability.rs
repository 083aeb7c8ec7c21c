//! SRO consistency checking: per-register linearizability (§6.1) probed
//! with concurrent writers and externally-observed reads.
//!
//! The probe NF returns every read's value to a host, so the test builds
//! a global history of (issue time, arrival time, value) and checks the
//! axioms that per-key linearizability implies for this workload:
//!
//! 1. every read returns a value that some write actually wrote (no
//!    torn/invented values);
//! 2. reads of a monotonically-increasing write sequence never regress:
//!    once a reader has observed value v, no later-issued read (anywhere)
//!    observes an older value *after* a read of v completed at the same
//!    switch — checked here in the strongest practical form: per-switch
//!    observation sequences are monotone, and cross-switch, a value once
//!    committed (acked) is never un-seen.

#![allow(clippy::field_reassign_with_default)] // configs read clearer as overrides

use std::net::Ipv4Addr;
use swishmem::prelude::*;
use swishmem::{NfApp, NfDecision, RegisterSpec, SharedState};
use swishmem_simnet::{Trace, TraceHandle};
use swishmem_wire::l4::TcpFlags;
use swishmem_wire::PacketBody;

/// Writes carry strictly-increasing values; reads return the current
/// value tagged with the reading switch in the upper bits of flow_seq.
struct SeqNf;
impl NfApp for SeqNf {
    fn process(&mut self, pkt: &DataPacket, _ing: NodeId, st: &mut dyn SharedState) -> NfDecision {
        if pkt.flow.proto == 17 {
            st.write(0, 0, u64::from(pkt.flow_seq));
            NfDecision::Forward {
                dst: NodeId(HOST_BASE),
                pkt: *pkt,
            }
        } else {
            let v = st.read(0, 0);
            let mut out = *pkt;
            out.flow_seq = v as u32;
            out.payload_len = st.self_id().0; // which switch answered
            NfDecision::Forward {
                dst: NodeId(HOST_BASE + 1),
                pkt: out,
            }
        }
    }
}

fn write_pkt(value: u32) -> DataPacket {
    let mut d = DataPacket::udp(
        FlowKey::udp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 0, 2), 1),
        0,
        8,
    );
    d.flow_seq = value;
    d
}

fn read_pkt(tag: u16) -> DataPacket {
    DataPacket::tcp(
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            tag,
            Ipv4Addr::new(10, 0, 0, 2),
            1,
        ),
        TcpFlags::data(),
        0,
        0,
    )
}

/// A packet trace of every delivery in the run, attached before it.
fn trace(dep: &mut Deployment) -> TraceHandle {
    let trace = Trace::new(1 << 16);
    dep.add_observer(trace.clone());
    trace
}

/// `(arrival ns, answer)` of every read answer host 1 received, in
/// arrival order, read off the trace.
fn answers(dep: &Deployment, trace: &TraceHandle) -> Vec<(u64, DataPacket)> {
    let trace = trace.borrow();
    assert_eq!(trace.overflowed(), 0);
    trace
        .received_by(dep.host(1))
        .into_iter()
        .map(|e| match &e.pkt.body {
            PacketBody::Data(d) => (e.time.nanos(), *d),
            other => panic!("unexpected {other:?}"),
        })
        .collect()
}

#[test]
fn reads_observe_only_written_values_and_never_regress_per_switch() {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(2)
        .seed(9)
        .register(RegisterSpec::sro(0, "x", 16))
        .build(|_| Box::new(SeqNf));
    let trace = trace(&mut dep);
    dep.settle();
    let t0 = dep.now();
    // Writer at switch 1: values 1..=60, one per 300 µs.
    let n_writes = 60u32;
    for v in 1..=n_writes {
        dep.inject(
            t0 + SimDuration::micros(u64::from(v) * 300),
            1,
            0,
            write_pkt(v),
        );
    }
    // Readers at every switch, every 100 µs.
    let total_us = u64::from(n_writes) * 300 + 1000;
    let mut tag = 0u16;
    for us in (0..total_us).step_by(100) {
        for sw in 0..3 {
            tag = tag.wrapping_add(1);
            dep.inject(
                t0 + SimDuration::micros(us) + SimDuration::nanos(sw as u64),
                sw as usize,
                0,
                read_pkt(tag),
            );
        }
    }
    dep.run_for(SimDuration::millis(200));

    // Collect (arrival, answering switch, value) sorted by arrival.
    let mut obs: Vec<(u64, u16, u32)> = answers(&dep, &trace)
        .into_iter()
        .map(|(t, d)| (t, d.payload_len, d.flow_seq))
        .collect();
    obs.sort_unstable();
    assert!(!obs.is_empty());

    // Axiom 1: only written values (0..=60).
    for &(_, _, v) in &obs {
        assert!(v <= n_writes, "invented value {v}");
    }
    // Axiom 2: per answering switch, observed values are monotone.
    let mut last = [0u32; 4];
    for &(at, sw, v) in &obs {
        let sw = (sw as usize).min(3);
        assert!(
            v >= last[sw],
            "switch {sw} regressed from {} to {v} at t={at}ns",
            last[sw]
        );
        last[sw] = v.max(last[sw]);
    }
    // Eventually everyone converges on the final value.
    assert_eq!(obs.last().unwrap().2, n_writes);
    for sw in 0..3 {
        assert_eq!(dep.peek(sw, 0, 0), u64::from(n_writes));
    }
}

#[test]
fn concurrent_writers_settle_to_a_single_value_everywhere() {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(2)
        .seed(10)
        .register(RegisterSpec::sro(0, "x", 16))
        .build(|_| Box::new(SeqNf));
    dep.settle();
    let t0 = dep.now();
    // Three writers at three switches, racing on the same key.
    for round in 0..20u32 {
        for sw in 0..3u32 {
            dep.inject(
                t0 + SimDuration::micros(u64::from(round) * 200 + u64::from(sw) * 3),
                sw as usize,
                0,
                write_pkt(100 + round * 3 + sw),
            );
        }
    }
    dep.run_for(SimDuration::millis(100));
    let v0 = dep.peek(0, 0, 0);
    assert_eq!(v0, dep.peek(1, 0, 0), "replicas disagree");
    assert_eq!(v0, dep.peek(2, 0, 0), "replicas disagree");
    assert!(
        (100..=159).contains(&(v0 as u32)),
        "final value {v0} was never written"
    );
}

#[test]
fn tail_answers_forwarded_reads() {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(2)
        .seed(11)
        .link(LinkParams::datacenter().with_latency(SimDuration::micros(30)))
        .register(RegisterSpec::sro(0, "x", 16))
        .build(|_| Box::new(SeqNf));
    let trace = trace(&mut dep);
    dep.settle();
    let t0 = dep.now();
    dep.inject(t0, 0, 0, write_pkt(7));
    // Two reads at the head inside the pending window (the write commits
    // at the tail ≈105 µs after injection; the head's pending bit clears
    // ≈135 µs in):
    //  * at 70 µs the forwarded read reaches the tail BEFORE the write
    //    commits there — the old value (0) is the linearizable answer;
    //  * at 120 µs the forwarded read reaches the tail after commit and
    //    must see 7.
    dep.inject(t0 + SimDuration::micros(70), 0, 0, read_pkt(1));
    dep.inject(t0 + SimDuration::micros(120), 0, 0, read_pkt(2));
    dep.run_for(SimDuration::millis(30));
    let log = answers(&dep, &trace);
    assert_eq!(log.len(), 2);
    // Both reads were served by the tail (switch 2).
    let answers: Vec<(u16, u32)> = log
        .iter()
        .map(|(_, d)| {
            assert_eq!(d.payload_len, 2, "read should have been served by the tail");
            (d.flow.src_port, d.flow_seq)
        })
        .collect();
    for (tag, v) in answers {
        match tag {
            1 => assert!(v == 0 || v == 7, "pre-commit read saw invented value {v}"),
            2 => assert_eq!(v, 7, "post-commit read must see the committed value"),
            t => panic!("unexpected tag {t}"),
        }
    }
}

/// `(arrival ns, value)` of every write the writer released to host 0:
/// a write completes when its output packet leaves the control plane.
fn completed_writes(dep: &Deployment, trace: &TraceHandle) -> Vec<(u64, u32)> {
    let trace = trace.borrow();
    assert_eq!(trace.overflowed(), 0);
    (trace.received_by(dep.host(0)).into_iter())
        .map(|e| match &e.pkt.body {
            PacketBody::Data(d) => (e.time.nanos(), d.flow_seq),
            other => panic!("unexpected {other:?}"),
        })
        .collect()
}

/// Write `v` at switch 0 and run until the write completes: one write
/// at a time, so values commit in increasing order.
fn write_and_wait(dep: &mut Deployment, trace: &TraceHandle, v: u32) {
    let deadline = dep.now() + SimDuration::millis(50);
    dep.inject(dep.now(), 0, 0, write_pkt(v));
    while !completed_writes(dep, trace).iter().any(|&(_, w)| w == v) {
        assert!(dep.now() < deadline, "write {v} never completed");
        dep.run_for(SimDuration::micros(5));
    }
}

/// Ten writes commit at switch 0; then switch 1 crashes and restarts,
/// its data plane wiped, while writes 11..=30 go on. A probe read reaches
/// switch 1 every 5 µs for 500 µs, from its restart on if `from_restart`,
/// else from the moment it adopts its learner view. Checks axiom 2
/// across switches on every answer: no read returns a value older than
/// one whose write completed before the read was issued. Returns the
/// probes issued, answered, and dropped at switch 1.
fn probe_a_rejoining_switch(from_restart: bool) -> (usize, usize, u64) {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(2)
        .seed(12)
        .register(RegisterSpec::sro(0, "x", 16))
        .build(|_| Box::new(SeqNf));
    let trace = trace(&mut dep);
    dep.settle();
    for v in 1..=10 {
        write_and_wait(&mut dep, &trace, v);
    }
    let t = dep.now();
    let restart = t + SimDuration::millis(1);
    dep.schedule_fail(t + SimDuration::micros(100), 1);
    dep.schedule_recover(restart, 1);
    let me = dep.switch_ids()[1];
    let from = if from_restart {
        restart
    } else {
        while !dep.switch(1).cp_app().view().learners.contains(&me) {
            assert!(dep.now() < t + SimDuration::millis(50), "no learner view");
            dep.run_for(SimDuration::micros(5));
        }
        dep.now()
    };
    let issued: Vec<u64> = (0..100u64)
        .map(|i| (from + SimDuration::micros(i * 5)).nanos())
        .collect();
    for (tag, &at) in (1u16..).zip(&issued) {
        dep.inject(SimTime(at), 1, 0, read_pkt(tag));
    }
    for v in 11..=30 {
        write_and_wait(&mut dep, &trace, v);
    }
    dep.run_for(SimDuration::millis(20));

    let completed = completed_writes(&dep, &trace);
    let answers = answers(&dep, &trace);
    for &(_, d) in &answers {
        let at = issued[usize::from(d.flow.src_port) - 1];
        let committed = (completed.iter())
            .filter(|&&(t, _)| t < at)
            .map(|&(_, v)| v)
            .max()
            .unwrap_or(0);
        assert!(
            d.flow_seq >= committed,
            "a read issued at {at} ns saw {} from switch {}, after {committed} committed",
            d.flow_seq,
            d.payload_len
        );
    }
    let dropped = dep.metrics(1).dp.reads_dropped;
    (issued.len(), answers.len(), dropped)
}

#[test]
fn a_rejoining_switch_never_unsees_a_committed_value() {
    // Probed through its learner window, switch 1 answers every read.
    assert_eq!(probe_a_rejoining_switch(false), (100, 100, 0));
}

#[test]
fn a_restarted_switch_serves_no_read_before_it_adopts_a_view() {
    // Probed from its restart, switch 1 first holds no view: it knows no
    // tail and its data plane is wiped, so it drops those reads.
    let (issued, answered, dropped) = probe_a_rejoining_switch(true);
    assert!(
        dropped > 0,
        "the probe never reached the window before a view"
    );
    assert_eq!(answered + dropped as usize, issued);
}
