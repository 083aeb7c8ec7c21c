//! E6 — §6.2 merging: "LWW provides eventual consistency, but until it
//! converges there may be inconsistent behavior"; CRDT counters give
//! *strong eventual consistency* and *monotonicity*, "which avoids
//! counter-intuitive scenarios such as a counter decreasing".
//!
//! All switches concurrently increment the same key. The G-counter must
//! end exactly at N; an LWW cell updated by read-modify-write loses
//! concurrent increments. We also sample a replica's view over time and
//! count *decreases* (monotonicity violations), which LWW exhibits and
//! the G-counter never does.

use crate::table::{f, ExperimentResult, Table};
use swishmem::prelude::*;
use swishmem::probe::count_pkt;
use swishmem::{NfApp, NfDecision, RegisterSpec, SharedState, SwishConfig};

/// Increments register 0 key 1 by one per packet (works for both LWW —
/// where `add` becomes read-modify-write — and G-counter registers).
struct IncNf;
impl NfApp for IncNf {
    fn process(&mut self, pkt: &DataPacket, _i: NodeId, st: &mut dyn SharedState) -> NfDecision {
        st.add(0, 1, 1);
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

struct Out {
    expected: u64,
    final_value: u64,
    monotonicity_violations: u64,
}

fn measure(lww: bool, n_incr: u64, quick: bool) -> Out {
    let spec = if lww {
        RegisterSpec::ewo_lww(0, "v", 8)
    } else {
        RegisterSpec::ewo_counter(0, "v", 8)
    };
    let n = 4;
    let mut dep = DeploymentBuilder::new(n)
        .hosts(1)
        .seed(13)
        .swish_config(SwishConfig::default())
        .register(spec)
        .build(|_| Box::new(IncNf));
    dep.settle();
    let t0 = dep.now();
    // Tight concurrent increments from all switches (2 µs apart per
    // switch, interleaved) — concurrency is what LWW loses.
    for i in 0..n_incr {
        let sw = (i % n as u64) as usize;
        dep.inject(
            t0 + SimDuration::nanos(i * 500),
            sw,
            0,
            count_pkt(1, i as u32),
        );
    }
    // Sample switch 3's view during the run for monotonicity.
    let mut last = 0u64;
    let mut violations = 0u64;
    let steps = if quick { 50 } else { 200 };
    for _ in 0..steps {
        dep.run_for(SimDuration::micros(100));
        let v = dep.peek(3, 0, 1);
        if v < last {
            violations += 1;
        }
        last = v;
    }
    dep.run_for(SimDuration::millis(50));
    Out {
        expected: n_incr,
        final_value: dep.peek(0, 0, 1),
        monotonicity_violations: violations,
    }
}

/// Run E6.
pub fn run(quick: bool) -> ExperimentResult {
    let sizes: Vec<u64> = if quick {
        vec![200, 1000]
    } else {
        vec![200, 1000, 5000]
    };
    let mut t = Table::new(
        "Counter accuracy under concurrent increments from 4 switches",
        &[
            "merge policy",
            "increments",
            "final value",
            "lost updates",
            "loss %",
            "monotonicity violations",
        ],
    );
    let mut crdt_exact = true;
    let mut lww_lossy = false;
    let mut lww_max_loss = 0.0f64;
    for &n in &sizes {
        for lww in [false, true] {
            let o = measure(lww, n, quick);
            let lost = o.expected.saturating_sub(o.final_value);
            let loss_pct = 100.0 * lost as f64 / o.expected as f64;
            if lww {
                lww_lossy |= lost > 0;
                lww_max_loss = lww_max_loss.max(loss_pct);
            } else {
                crdt_exact &= o.final_value == o.expected && o.monotonicity_violations == 0;
            }
            t.row(vec![
                if lww {
                    "LWW (read-modify-write)"
                } else {
                    "G-counter CRDT"
                }
                .into(),
                n.to_string(),
                o.final_value.to_string(),
                lost.to_string(),
                f(loss_pct),
                o.monotonicity_violations.to_string(),
            ]);
        }
    }
    let findings = vec![
        format!(
            "G-counter is exact with zero monotonicity violations in every run: {}",
            if crdt_exact {
                "confirmed"
            } else {
                "NOT confirmed"
            }
        ),
        format!(
            "LWW loses concurrent increments (up to {:.1}% here): {}",
            lww_max_loss,
            if lww_lossy {
                "confirmed"
            } else {
                "NOT observed at this concurrency"
            }
        ),
    ];
    ExperimentResult {
        id: "E6".into(),
        title: "LWW vs G-counter CRDT under concurrent updates".into(),
        paper_anchor: "§6.2 (merging; CRDT counters, monotonicity)".into(),
        expectation: "CRDT exact and monotone; LWW loses concurrent increments".into(),
        tables: vec![t],
        findings,
    }
}
