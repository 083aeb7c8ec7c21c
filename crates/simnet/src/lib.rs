//! # swishmem-simnet
//!
//! A deterministic discrete-event network simulator: the "multi-switch
//! fabric with lossy links" substrate of the SwiShmem reproduction (see
//! DESIGN.md §2 for the substitution argument).
//!
//! There is one event loop, `Core` in `core.rs`, and two engines built on
//! it: [`Simulator`] (one core, collectors written in place, topology
//! mutable at any time) and [`ShardedEngine`] (a partition of cores run
//! in lockstep windows, for `Send` nodes). A single-shard `ShardedEngine`
//! and a `Simulator` produce bit-identical runs.
//!
//! Key properties:
//!
//! * **Deterministic**: engine-owned RNG, a total event order
//!   `(time, key)`, and sorted node-start order mean identical seeds
//!   produce identical runs — every experiment is replayable.
//! * **Faithful link costs**: links charge serialization delay from the
//!   true encoded frame length (computed by `swishmem-wire`), model
//!   transmitter queueing, and inject loss, jitter (reordering) and
//!   corruption — the failure model of the paper's §5 ("packets can be
//!   dropped, and links and switches may fail").
//! * **Fail-stop failures**: nodes can be failed and recovered on a
//!   schedule; a failed node neither receives nor transmits, and recovery
//!   restarts it with fresh state (§6.3's model).
//! * **Atomic node callbacks**: a node's outputs are applied only after
//!   its callback returns, mirroring PISA's atomic per-packet processing.
//!
//! ```
//! use swishmem_simnet::{Simulator, SimTime, RecorderNode};
//! use swishmem_wire::{NodeId, Packet, DataPacket, FlowKey};
//! use std::net::Ipv4Addr;
//!
//! let mut sim = Simulator::new(42);
//! let (rec, log) = RecorderNode::new();
//! sim.add_node(NodeId(1), Box::new(rec));
//! let pkt = Packet::data(NodeId(0), NodeId(1), DataPacket::udp(
//!     FlowKey::udp(Ipv4Addr::new(10,0,0,1), 1000, Ipv4Addr::new(10,0,0,2), 53), 0, 64));
//! sim.inject(SimTime::ZERO, pkt);
//! sim.run_until_quiescent(SimTime(1_000_000));
//! assert_eq!(log.borrow().len(), 1);
//! ```

pub mod capture;
pub(crate) mod core;
pub mod ctx;
pub(crate) mod events;
pub mod fault;
pub mod journal;
pub mod link;
pub mod node;
pub mod observe;
pub mod recorder;
pub mod shard;
pub mod sim;
pub mod span;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;
mod wire_check;

pub use capture::{CaptureBuffer, CaptureHandle};
pub use ctx::{Ctx, GroupId};
pub use fault::{FaultAction, FaultEvent, FaultGen, FaultSchedule, LinkOverlay};
pub use journal::{JournalCollector, JournalHandle, JournalRecord};
pub use link::{Link, LinkParams, LinkState};
pub use node::{Node, NodeId, RelayNode};
pub use observe::{NetEvent, NetObserver, ObserverHandle};
pub use recorder::{RecorderNode, Recording};
pub use shard::ShardedEngine;
pub use sim::{AsAny, NodeObj, Simulator};
pub use span::{SpanCollector, SpanEvent, SpanHandle, SpanPhase};
pub use stats::{Counter, DropReason, NetStats, TrafficClass};
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
pub use trace::{Trace, TraceEntry, TraceHandle};
