//! Workload capture + replay lab.
//!
//! The other crates *generate* workloads; this one makes workloads
//! **artifacts**: a compact binary flow-trace format ([`mod@format`]), a
//! heavy-tail synthesizer that writes millions of flows without holding
//! them in memory ([`synth`]), a zero-allocation ring-buffer ingest path
//! ([`ring`]), a deterministic replay engine that streams a trace
//! through a [`swishmem::Deployment`] at a controlled speed-up
//! ([`replay`]), and oracle-armed scenario packs — flash crowd, diurnal
//! shift, scan storm, carpet-bomb DDoS, NAT churn ([`scenario`]).
//!
//! The invariant the whole crate is built around: **a trace plus a seed
//! is a run**. Replaying the same `.swtrace` through the same deployment
//! seed must produce an identical state digest, sequential or sharded —
//! that is what makes a captured incident a regression test.

#![warn(missing_docs)]

pub mod capture;
pub mod format;
pub mod replay;
pub mod ring;
pub mod scenario;
pub mod synth;

pub use capture::{capture_deployment_trace, captured_to_records};
pub use format::{
    from_swtrace_bytes, to_swtrace_bytes, FormatError, TraceError, TraceMeta, TraceReader,
    TraceRecord, TraceWriter,
};
pub use replay::{replay_digest, replay_records, replay_trace, ReplayConfig, ReplayStats};
pub use ring::FlowRing;
pub use scenario::{run_pack, PackConfig, PackKind, PackReport, Sabotage};
pub use synth::{synth_to_writer, synth_trace_bytes, SynthConfig};
