//! The `explain` run's two gates over a seed sweep: span breakdowns
//! reconcile with the `write_latency` histogram and the journal's
//! failover gap matches the election log, with the oracle suite clean,
//! and a seed's artifacts repeat byte for byte.

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

    let (a, b) = (first.unwrap(), Explain::run(801));
    assert_eq!(a.perfetto().pretty(), b.perfetto().pretty());
    assert_eq!(a.summary().pretty(), b.summary().pretty());
}
