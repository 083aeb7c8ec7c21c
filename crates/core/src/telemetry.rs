//! Control-plane telemetry: the flight recorder's reader ([`journal`]).

pub mod journal;
