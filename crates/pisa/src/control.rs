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
//! Control apps hold unbounded (DRAM) private state. A callback is a
//! step: it reads and writes the data plane directly (snapshots, table
//! writes — the P4Runtime role) and writes its packet-outs, timers and
//! span markers to a [`CpCtx`], which the switch then replays. No engine
//! is involved, so a test can drive any [`ControlApp`] by hand.

use crate::dataplane::DataPlane;
use crate::program::Effects;
use std::convert::Infallible;
use swishmem_simnet::{SimDuration, SimTime, SpanPhase};
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

/// What a [`ControlApp`] callback sees: the time, its switch's data
/// plane, and the sink its effects go to. Packet-outs and span markers
/// collect in `eff` in emission order; timers collect apart, and the
/// switch arms them after replaying `eff`.
pub struct CpCtx<'a, I = Infallible> {
    now: SimTime,
    dp: &'a mut DataPlane,
    eff: &'a mut Effects<I>,
    timers: &'a mut Vec<(SimDuration, u64)>,
}

impl<'a, I> CpCtx<'a, I> {
    /// A context at `now` over `dp`, collecting effects into `eff` and
    /// timer requests `(delay, token)` into `timers`.
    pub fn new(
        now: SimTime,
        dp: &'a mut DataPlane,
        eff: &'a mut Effects<I>,
        timers: &'a mut Vec<(SimDuration, u64)>,
    ) -> CpCtx<'a, I> {
        CpCtx {
            now,
            dp,
            eff,
            timers,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Full data-plane access: the control plane may read registers
    /// (snapshots), and write tables (P4Runtime-style).
    pub fn dataplane(&mut self) -> &mut DataPlane {
        self.dp
    }

    /// Emit a packet-out: inject a frame into the egress toward `dst`.
    pub fn packet_out(&mut self, dst: NodeId, body: PacketBody) {
        self.eff.forward(dst, body);
    }

    /// Arm a control-plane timer. `token` must fit in 48 bits (the switch
    /// multiplexes timers across subsystems).
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        assert!(
            token < (1 << 48),
            "control-plane timer token must fit in 48 bits"
        );
        self.timers.push((delay, token));
    }

    /// Emit a causal span phase marker at the current time (passive
    /// telemetry; dropped unless the sink collects spans).
    pub fn span(&mut self, trace: TraceId, phase: SpanPhase) {
        self.eff.span(trace, phase);
    }
}

/// A control-plane application (the switch-local agent).
pub trait ControlApp: 'static {
    /// What the pipeline punts to this app.
    type Item: 'static;

    /// Called at switch start (and again on recovery after failure, with
    /// `reset` having run in between).
    fn on_start(&mut self, _cp: &mut CpCtx<'_, Self::Item>) {}

    /// A punted item arrived from the pipeline (after punt latency and
    /// serial service delay).
    fn on_item(&mut self, item: Self::Item, cp: &mut CpCtx<'_, Self::Item>);

    /// A control-plane timer fired. Timers armed before a failure may
    /// fire after recovery with stale tokens; implementations must treat
    /// unknown tokens as no-ops.
    fn on_timer(&mut self, _token: u64, _cp: &mut CpCtx<'_, Self::Item>) {}

    /// The switch failed: discard all CPU state.
    fn reset(&mut self) {}
}

/// A no-op control app for switches that never use the control plane:
/// its item type is uninhabited, so their program cannot punt.
pub struct NullControlApp;

impl ControlApp for NullControlApp {
    type Item = Infallible;

    fn on_item(&mut self, item: Infallible, _cp: &mut CpCtx<'_>) {
        match item {}
    }
}
