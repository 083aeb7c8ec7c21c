//! # swishmem-simnet
//!
//! A deterministic discrete-event network simulator: the "multi-switch
//! fabric with lossy links" substrate of the SwiShmem reproduction (see
//! DESIGN.md §2 for the substitution argument).
//!
//! There is one engine, [`Simulator`]: one event loop over one queue and
//! one RNG, observers called in place, and a topology that stays mutable
//! at any time. `sim.rs` holds its surface, `core.rs` its processing.
//!
//! There is one way to observe a run: a [`NetObserver`] receives the
//! [`NetEvent`]s of each [`Family`] it subscribes to — deliveries,
//! injections, fault-plane transitions, span markers, journal records.
//! The bounded collectors (packet [`Trace`], ingress capture, spans,
//! journal) are all one [`Tap`] type over a per-family [`Record`].
//!
//! Key properties:
//!
//! * **Deterministic**: engine-owned RNG, a total event order
//!   `(time, insertion seq)`, and sorted node-start order mean identical seeds
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
//! use swishmem_simnet::{Simulator, SimTime, RecorderNode, Trace};
//! use swishmem_wire::{NodeId, Packet, DataPacket, FlowKey};
//! use std::net::Ipv4Addr;
//!
//! let mut sim = Simulator::new(42);
//! let trace = Trace::new(16);
//! sim.add_observer(trace.clone());
//! let (rec, count) = RecorderNode::new();
//! sim.add_node(NodeId(1), Box::new(rec));
//! let pkt = Packet::data(NodeId(0), NodeId(1), DataPacket::udp(
//!     FlowKey::udp(Ipv4Addr::new(10,0,0,1), 1000, Ipv4Addr::new(10,0,0,2), 53), 0, 64));
//! sim.inject(SimTime::ZERO, pkt.clone());
//! sim.run_until_quiescent(SimTime(1_000_000));
//! // The host counts what it received; the trace keeps the packets.
//! assert_eq!(count.borrow().len(), 1);
//! let trace = trace.borrow();
//! assert_eq!(trace.overflowed(), 0);
//! assert_eq!(trace.received_by(NodeId(1))[0].pkt, pkt);
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
pub mod sim;
pub mod span;
pub mod stats;
pub mod tap;
pub mod time;
pub mod topology;
pub mod trace;
mod wire_check;

pub use capture::CaptureHandle;
pub use ctx::{Ctx, GroupId};
pub use fault::{FaultAction, FaultEvent, FaultGen, FaultSchedule, LinkOverlay};
pub use journal::{CtrlEvent, JournalHandle, JournalRecord};
pub use link::{Link, LinkParams, LinkState};
pub use node::{Node, NodeId, RelayNode};
pub use observe::{Family, NetEvent, NetObserver, ObserverHandle};
pub use recorder::{RecorderNode, Recording};
pub use sim::{AsAny, NodeObj, Simulator};
pub use span::{SpanEvent, SpanHandle, SpanPhase};
pub use stats::{Counter, DropReason, NetStats, TrafficClass};
pub use tap::{Record, Tap, TapHandle};
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
pub use trace::{Trace, TraceEntry, TraceHandle};
