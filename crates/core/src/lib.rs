//! # swishmem
//!
//! A reproduction of **SwiShmem: Distributed Shared State Abstractions
//! for Programmable Switches** (HotNets '20): a distributed shared-state
//! layer for data-plane programs, providing replicated shared registers
//! across a fabric of PISA switches so stateful network functions behave
//! like "one big reliable switch".
//!
//! ## Register classes (§5)
//!
//! | Class | Consistency | Write path | Read path |
//! |-------|-------------|-----------|-----------|
//! | [`RegisterClass::Sro`] | linearizable | chain replication via control plane (§6.1) | local unless pending → tail |
//! | [`RegisterClass::Ero`] | eventual | same chain writes | always local |
//! | [`RegisterClass::Ewo`] | (strong) eventual | local + async broadcast + periodic sync (§6.2) | always local |
//!
//! ## Quick start
//!
//! ```
//! use swishmem::prelude::*;
//!
//! // An NF that counts packets in a replicated G-counter.
//! struct CountNf;
//! impl NfApp for CountNf {
//!     fn process(&mut self, pkt: &DataPacket, _ingress: NodeId,
//!                st: &mut dyn SharedState) -> NfDecision {
//!         st.add(0, 0, 1);
//!         NfDecision::Forward { dst: NodeId(1000), pkt: *pkt }
//!     }
//! }
//!
//! let mut dep = DeploymentBuilder::new(3)
//!     .register(RegisterSpec::ewo_counter(0, "pkts", 16))
//!     .build(|_| Box::new(CountNf));
//! dep.settle();
//! // Inject one packet at switch 0 and let replication run.
//! let flow = FlowKey::udp("10.0.0.1".parse().unwrap(), 1,
//!                         "10.0.0.2".parse().unwrap(), 2);
//! let t = dep.now();
//! dep.inject(t, 0, 0, DataPacket::udp(flow, 0, 64));
//! dep.run_for(SimDuration::millis(10));
//! // Every replica converged on the global count.
//! assert_eq!(dep.peek(0, 0, 0), 1);
//! assert_eq!(dep.peek(2, 0, 0), 1);
//! ```

pub mod api;
pub mod config;
pub mod consensus;
pub mod controller;
pub mod crdt;
pub mod deployment;
pub mod directory;
pub mod layer;
pub mod metrics;
pub mod oracle;
pub mod reconfig;
pub mod telemetry;
pub mod typed;
pub mod version;

pub use api::{NfApp, NfDecision, SharedState};
pub use config::{
    ClockMode, MergePolicy, Placement, ReconfigPolicy, RegisterClass, RegisterSpec, SwishConfig,
};
pub use consensus::{Consensus, ConsensusError, Role};
pub use controller::{ConfigEvent, ConfigEventKind, ConsensusMetrics, Controller};
pub use deployment::{
    Deployment, DeploymentBuilder, Fabric, ReplicatedController, SwishSwitch, HOST_BASE, SPINE_BASE,
};
pub use directory::DirectoryService;
pub use layer::{ChainView, REPLICA_GROUP};
pub use metrics::{
    CpMetrics, DpMetrics, Histogram, HistogramSummary, SwitchMetrics, SwitchMetricsRef,
};
pub use oracle::{OracleConfig, OracleSuite, ReplayGuard, SloBudgets, Violation, ViolationKind};
pub use reconfig::{
    decode_trigger, trigger_token, trigger_token_op, MigrationPhase, RangeView, ReconfigEvent,
    ReconfigLogEntry, TriggerOp,
};
pub use telemetry::journal::{
    CompactionRecord, CtrlEvent, Failover, Journal, JournalEntry, MigrationTimeline,
};
pub use telemetry::{MetricsSample, RingBuffer, TimeSeriesSampler};
pub use typed::{SharedCounter, SharedValue};
pub use version::SwitchClock;

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::api::{NfApp, NfDecision, SharedState};
    pub use crate::config::{ClockMode, MergePolicy, RegisterClass, RegisterSpec, SwishConfig};
    pub use crate::deployment::{Deployment, DeploymentBuilder, Fabric, SwishSwitch, HOST_BASE};
    pub use swishmem_simnet::{LinkParams, SimDuration, SimTime};
    pub use swishmem_wire::{DataPacket, FlowKey, NodeId};
}
