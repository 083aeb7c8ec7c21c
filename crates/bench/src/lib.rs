//! # swishmem-bench
//!
//! The experiment harness that regenerates every table and quantitative
//! claim of the SwiShmem paper (DESIGN.md §5 maps experiment ids to paper
//! anchors; EXPERIMENTS.md records paper-vs-measured).
//!
//! Run everything:
//!
//! ```text
//! cargo run -p swishmem-bench --release --bin experiments
//! cargo run -p swishmem-bench --release --bin experiments -- e2 e5   # subset
//! cargo run -p swishmem-bench --release --bin experiments -- --quick # fast sweep
//! cargo run -p swishmem-bench --release --bin experiments -- --json out.json
//! ```
//!
//! `explain` makes one traced, journaled, oracle-checked run and gates
//! what its collectors recorded (`explain` module, `--bin explain`). The
//! repo's perf instrument is the `benchmark/` ladder, not this crate.
#![allow(clippy::field_reassign_with_default)] // experiment configs read clearer as sequential overrides

pub mod experiments;
pub mod explain;
pub mod json;
pub mod leafspine;
pub mod scenarios;
pub mod spans;
pub mod table;

pub use table::{ExperimentResult, Table};
