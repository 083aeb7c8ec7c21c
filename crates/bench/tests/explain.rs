//! The `explain` run's two gates over a seed sweep: span breakdowns
//! reconcile with the `write_latency` histogram and the journal's
//! failover gap matches the election log, with the oracle suite clean,
//! and seed 801's artifacts are pinned byte for byte.

use swishmem_bench::explain::Explain;

#[test]
fn explain_gates_pass_with_a_clean_oracle_on_seeds_801_to_808() {
    let mut switch_crash_seeds = 0;
    let mut first = None;
    for seed in 801..=808 {
        let x = Explain::run(seed);
        assert!(x.spans_gate.is_ok(), "seed {seed}: {:?}", x.spans_gate);
        assert!(
            x.failover_gate.is_ok(),
            "seed {seed}: {:?}",
            x.failover_gate
        );
        assert_eq!(x.oracle_report, None, "seed {seed}: oracle violated");
        if x.switch_crashes > 0 {
            switch_crash_seeds += 1;
        }
        first.get_or_insert(x);
    }
    assert!(
        switch_crash_seeds > 0,
        "no seed crashed a switch: the sub-multiset path went untested"
    );

    // Seed 801's Perfetto and summary documents, byte for byte as the
    // `explain` bin writes them, hash to constants: a refactor of the
    // collectors or the journal reader must leave both alone.
    let x = first.unwrap();
    let got = (fnv1a(&x.perfetto().pretty()), fnv1a(&x.summary().pretty()));
    let want = (3_241_946_373_610_318_373, 2_313_281_683_626_126_119);
    assert_eq!(got, want, "seed 801's artifacts moved");
}

/// FNV-1a over a document's bytes.
fn fnv1a(doc: &str) -> u64 {
    doc.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
