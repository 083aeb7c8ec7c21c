//! The experiment suite: one module per table/figure/claim of the paper
//! (see DESIGN.md §5 for the full index and EXPERIMENTS.md for recorded
//! results).

pub mod e01_table1;
pub mod e02_sync_bandwidth;
pub mod e03_sro_write_cost;
pub mod e04_read_paths;
pub mod e05_convergence;
pub mod e06_lww_vs_crdt;
pub mod e07_failover;
pub mod e08_lb_pcc;
pub mod e09_ddos;
pub mod e10_memory;
pub mod e11_ratelimit;
pub mod e12_recovery;
pub mod e13_batching;
pub mod e14_cp_vs_dp;
pub mod e15_clock_skew;
pub mod e16_setup_latency;
pub mod e17_fault_sweep;
pub mod e18_trace_overhead;
pub mod e19_reconfig;
pub mod e21_failover;
pub mod e22_consensus_hardening;
pub mod e23_ctrl_recorder;
pub mod e24_replay_lab;

use crate::table::ExperimentResult;

/// An experiment entry point.
pub type RunFn = fn(quick: bool) -> ExperimentResult;

/// All experiments, in id order.
pub fn all() -> Vec<(&'static str, RunFn)> {
    vec![
        ("e1", e01_table1::run),
        ("e2", e02_sync_bandwidth::run),
        ("e3", e03_sro_write_cost::run),
        ("e4", e04_read_paths::run),
        ("e5", e05_convergence::run),
        ("e6", e06_lww_vs_crdt::run),
        ("e7", e07_failover::run),
        ("e8", e08_lb_pcc::run),
        ("e9", e09_ddos::run),
        ("e10", e10_memory::run),
        ("e11", e11_ratelimit::run),
        ("e12", e12_recovery::run),
        ("e13", e13_batching::run),
        ("e14", e14_cp_vs_dp::run),
        ("e15", e15_clock_skew::run),
        ("e16", e16_setup_latency::run),
        ("e17", e17_fault_sweep::run),
        ("e18", e18_trace_overhead::run),
        ("e19", e19_reconfig::run),
        ("e21", e21_failover::run),
        ("e22", e22_consensus_hardening::run),
        ("e23", e23_ctrl_recorder::run),
        ("e24", e24_replay_lab::run),
    ]
}
