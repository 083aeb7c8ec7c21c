//! Control-plane telemetry: the flight recorder's typed event vocabulary
//! and its causal reader ([`journal`]).

pub mod journal;
