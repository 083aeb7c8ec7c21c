//! Repeated failure/recovery cycles: the reconfiguration machinery (§6.3)
//! must keep the fabric correct through multiple generations of chains.

#![allow(clippy::field_reassign_with_default)] // configs read clearer as overrides

use swishmem::oracle::{OracleConfig, OracleSuite};
use swishmem::prelude::*;
use swishmem::probe::{udp_write, WriteNf};
use swishmem::{ConfigEventKind, RegisterSpec};
use swishmem_simnet::FaultSchedule;

#[test]
fn three_failure_recovery_cycles_preserve_state() {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(29)
        .register(RegisterSpec::sro(0, "t", 256))
        .build(|_| Box::new(WriteNf));
    dep.settle();

    let mut expected: Vec<(u16, u16)> = Vec::new();
    for cycle in 0..3u16 {
        // Write a batch of fresh keys through a surviving switch.
        let victim = (cycle % 3) as usize;
        let writer = ((cycle + 1) % 3) as usize;
        let t = dep.now();
        for j in 0..10u16 {
            let key = cycle * 10 + j;
            let val = 100 + key;
            dep.inject(
                t + SimDuration::micros(u64::from(j) * 200),
                writer,
                0,
                udp_write(key, val),
            );
            expected.push((key, val));
        }
        dep.run_for(SimDuration::millis(40));
        // Kill one switch, let the controller shrink the chain.
        let tf = dep.now();
        dep.schedule_fail(tf, victim);
        dep.run_for(SimDuration::millis(50));
        // Write more while degraded.
        let t = dep.now();
        for j in 0..5u16 {
            let key = 200 + cycle * 5 + j;
            let val = 50 + key;
            dep.inject(
                t + SimDuration::micros(u64::from(j) * 200),
                writer,
                0,
                udp_write(key, val % 1400),
            );
            expected.push((key, val % 1400));
        }
        dep.run_for(SimDuration::millis(40));
        // Recover and wait for promotion.
        let tr = dep.now();
        dep.schedule_recover(tr, victim);
        dep.run_for(SimDuration::millis(250));
        let promos = dep
            .controller_events()
            .iter()
            .filter(|e| matches!(e.kind, ConfigEventKind::Promoted(_)))
            .count();
        assert!(promos as u16 > cycle, "cycle {cycle}: promotion missing");
    }

    // After three full cycles, every write is present on every switch.
    for sw in 0..3 {
        for &(key, val) in &expected {
            assert_eq!(
                dep.peek(sw, 0, u32::from(key)),
                u64::from(val),
                "switch {sw} lost key {key} after cycles"
            );
        }
    }
    // Chain is back to full strength.
    let view = dep.switch(0).cp_app().view().clone();
    assert_eq!(view.chain.len(), 3, "chain should be whole again: {view:?}");
    assert!(view.learners.is_empty());
}

#[test]
fn writes_survive_head_failure() {
    // Failing the HEAD (sequencer) is the nastiest case: in-flight writes
    // must be re-driven through the new head.
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(31)
        .register(RegisterSpec::sro(0, "t", 64))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    let t0 = dep.now();
    // Steady writes from switch 1 while the head (switch 0) dies.
    dep.schedule_fail(t0 + SimDuration::millis(5), 0);
    for i in 0..40u16 {
        dep.inject(
            t0 + SimDuration::micros(u64::from(i) * 400),
            1,
            0,
            udp_write(i, 200 + i),
        );
    }
    dep.run_for(SimDuration::millis(300));
    // All writes issued at the surviving switch eventually commit on the
    // shortened chain.
    for i in 0..40u16 {
        assert_eq!(
            dep.peek(1, 0, u32::from(i)),
            u64::from(200 + i),
            "key {i} lost"
        );
        assert_eq!(
            dep.peek(2, 0, u32::from(i)),
            u64::from(200 + i),
            "key {i} not replicated"
        );
    }
}

#[test]
fn epoch_numbers_strictly_increase() {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(37)
        .register(RegisterSpec::sro(0, "t", 64))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    let t0 = dep.now();
    dep.schedule_fail(t0 + SimDuration::millis(5), 2);
    dep.schedule_recover(t0 + SimDuration::millis(60), 2);
    dep.schedule_fail(t0 + SimDuration::millis(200), 1);
    dep.run_for(SimDuration::millis(400));
    let events = dep.controller_events();
    assert!(
        events.len() >= 4,
        "expected several reconfigurations: {events:?}"
    );
    for w in events.windows(2) {
        assert!(
            w[1].epoch > w[0].epoch,
            "epochs must be strictly increasing"
        );
        assert!(w[1].time >= w[0].time);
    }
}

#[test]
fn repeated_tail_crashes_clear_pending_within_bound() {
    // The chain *tail* is the member whose death strands pending bits:
    // writes forwarded to a dead tail are never acknowledged and never
    // cleared until the chain reconfigures and the writer's retry (or
    // the new tail's pending sweep) catches up. Cycle the tail down and
    // up three times via a declarative fault schedule with the online
    // oracles armed — pending bits set while the tail was down must
    // clear within the oracle bound once the chain heals.
    let seed = 47;
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(seed)
        .register(RegisterSpec::sro(0, "t", 64))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    let t0 = dep.now();

    // Initial chain is declaration order, so the tail is switch 2.
    let tail = dep.switch_ids()[2];
    let mut sched = FaultSchedule::new();
    for cycle in 0..3u64 {
        let at = SimDuration::millis(5 + cycle * 55);
        sched = sched.crash_for(tail, at, SimDuration::millis(25));
    }
    let sched_str = sched.to_string();
    dep.schedule_faults(t0, &sched);

    // Steady writes from switch 0 (never crashes) across all cycles;
    // some land while the tail is down and strand pending bits upstream.
    for i in 0..80u64 {
        dep.inject(
            t0 + SimDuration::micros(i * 2000),
            0,
            0,
            udp_write((i % 32) as u16, 100 + i as u16),
        );
    }

    let horizon = SimDuration::millis(165);
    let ocfg = OracleConfig::new(t0 + horizon);
    let mut suite = OracleSuite::attach(&mut dep, ocfg);
    if let Err(v) = suite.run_settled(&mut dep) {
        panic!("oracle violation: {v}\nreplay: seed={seed}\n{sched_str}");
    }

    // The tail came back through the learner path every cycle.
    let promos = dep
        .controller_events()
        .iter()
        .filter(|e| e.kind == ConfigEventKind::Promoted(tail))
        .count();
    assert!(
        promos >= 3,
        "expected 3 promotions of the tail, got {promos}"
    );

    // Explicit post-condition on top of the oracle: no chain member
    // still holds a pending bit for a sequence the tail has committed.
    let view = dep.controller_view();
    let ti = dep.switch_index(view.chain[view.chain.len() - 1]).unwrap();
    let committed = dep.chain_seqs(ti, 0);
    for i in 0..3 {
        for (slot, &p) in dep.pending_seqs(i, 0).iter().enumerate() {
            assert!(
                p == 0 || p > committed[slot],
                "switch {i} slot {slot}: pending seq {p} <= committed {}",
                committed[slot]
            );
        }
    }
}
