//! The control-plane co-processor model.
//!
//! A PISA switch carries a general-purpose CPU beside the ASIC. It is
//! slow relative to the pipeline (the paper's SRO design leans on exactly
//! this asymmetry: "its write throughput is limited by the need to send
//! packets through the control plane", §6.1) but has "ample DRAM
//! capacity" (§7) for buffering output packets during writes.
//!
//! The model charges two costs:
//! * **punt latency** — PCIe/driver delay moving a packet-in from the
//!   pipeline to the CPU;
//! * **service time** — per-item CPU processing, applied serially, which
//!   caps control-plane throughput at `1/service_time` items per second.
//!
//! Control apps hold unbounded (DRAM) private state; they interact with
//! the world through [`CpCtx`]: packet-out, timers, and full data-plane
//! access (including table writes, the P4Runtime role).

use crate::dataplane::DataPlane;
use std::any::Any;
use swishmem_simnet::{Ctx, SimDuration, SimTime, SpanPhase};
use swishmem_wire::{NodeId, PacketBody, TraceId};

/// Cost parameters of the control-plane co-processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpParams {
    /// Pipeline → CPU transfer latency per packet-in.
    pub punt_latency: SimDuration,
    /// Serial CPU time per item: control-plane throughput is
    /// `1 / service_time`.
    pub service_time: SimDuration,
}

impl Default for CpParams {
    fn default() -> Self {
        // ~35 µs punt (PCIe + kernel bypass driver), 10 µs service
        // (≈100k ops/s), representative of switch CPU stacks.
        CpParams {
            punt_latency: SimDuration::micros(35),
            service_time: SimDuration::micros(10),
        }
    }
}

/// Context handed to [`ControlApp`] callbacks.
pub struct CpCtx<'a, 'b> {
    pub(crate) dp: &'a mut DataPlane,
    pub(crate) net: &'a mut Ctx<'b>,
    pub(crate) timer_requests: &'a mut Vec<(SimDuration, u64)>,
}

impl<'a, 'b> CpCtx<'a, 'b> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// This switch's node id.
    pub fn self_id(&self) -> NodeId {
        self.net.self_id()
    }

    /// Full data-plane access: the control plane may read registers
    /// (snapshots), and write tables (P4Runtime-style).
    pub fn dataplane(&mut self) -> &mut DataPlane {
        self.dp
    }

    /// Emit a packet-out: inject a frame into the egress toward `dst`.
    pub fn packet_out(&mut self, dst: NodeId, body: PacketBody) {
        self.net.send(dst, body);
    }

    /// Arm a control-plane timer. `token` must fit in 48 bits (the switch
    /// multiplexes timers across subsystems).
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        assert!(
            token < (1 << 48),
            "control-plane timer token must fit in 48 bits"
        );
        self.timer_requests.push((delay, token));
    }

    /// Deterministic randomness.
    pub fn rng(&mut self) -> &mut impl rand::Rng {
        self.net.rng()
    }

    /// Emit a causal span phase marker at the current time (passive
    /// telemetry; see [`Ctx::span`]).
    pub fn span(&mut self, trace: TraceId, phase: SpanPhase) {
        self.net.span(trace, phase);
    }

    /// Emit a span marker stamped with an explicit time.
    pub fn span_at(&mut self, at: SimTime, trace: TraceId, phase: SpanPhase) {
        self.net.span_at(at, trace, phase);
    }
}

/// A control-plane application (the switch-local agent).
pub trait ControlApp: 'static {
    /// Called at switch start (and again on recovery after failure, with
    /// `reset` having run in between).
    fn on_start(&mut self, _cp: &mut CpCtx<'_, '_>) {}

    /// A punted item arrived from the pipeline (after punt latency and
    /// serial service delay). Downcast to the expected type(s).
    fn on_item(&mut self, item: Box<dyn Any>, cp: &mut CpCtx<'_, '_>);

    /// A control-plane timer fired. Timers armed before a failure may
    /// fire after recovery with stale tokens; implementations must treat
    /// unknown tokens as no-ops.
    fn on_timer(&mut self, _token: u64, _cp: &mut CpCtx<'_, '_>) {}

    /// The switch failed: discard all CPU state.
    fn reset(&mut self) {}
}

/// A no-op control app for switches that never use the control plane.
pub struct NullControlApp;

impl ControlApp for NullControlApp {
    fn on_item(&mut self, _item: Box<dyn Any>, _cp: &mut CpCtx<'_, '_>) {}
}
