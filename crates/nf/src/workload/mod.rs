//! Synthetic workload generation: flows, attacks, ingress routing.

pub mod attack;
pub mod flowgen;
pub mod routing;
pub mod zipf;

pub use attack::{generate_attack, AttackConfig};
pub use flowgen::{FlowGen, FlowGenConfig, ScheduledPacket};
pub use routing::{EcmpRouter, RoutingMode};
pub use zipf::Zipf;
