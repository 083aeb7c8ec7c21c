//! The switch: data plane + program + control plane composed into a
//! simnet [`Node`].
//!
//! Timer multiplexing: the simulator gives each node a flat 64-bit timer
//! token space; the switch partitions it as `[tag:8][incarnation:8]
//! [payload:48]`. The incarnation byte is bumped on failure so timers
//! armed before a crash are ignored if they fire after recovery.

use crate::control::{ControlApp, CpCtx, CpParams};
use crate::dataplane::{DataPlane, DpView};
use crate::program::{DataPlaneProgram, Effect, Effects};
use std::any::Any;
use std::collections::HashMap;
use swishmem_simnet::{Ctx, Node, SimDuration, SimTime};
use swishmem_wire::{Packet, PacketBody};

const TAG_PKTGEN: u8 = 1;
const TAG_CP_WORK: u8 = 2;
const TAG_CP_TIMER: u8 = 3;
const TAG_RECIRC: u8 = 4;

fn encode_token(tag: u8, incarnation: u8, payload: u64) -> u64 {
    debug_assert!(payload < (1 << 48));
    (u64::from(tag) << 56) | (u64::from(incarnation) << 48) | payload
}

fn decode_token(token: u64) -> (u8, u8, u64) {
    (
        (token >> 56) as u8,
        (token >> 48) as u8,
        token & ((1 << 48) - 1),
    )
}

/// Switch-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct SwitchConfig {
    /// Control-plane cost model.
    pub cp: CpParams,
    /// One recirculation pass delay.
    pub recirc_delay: SimDuration,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            cp: CpParams::default(),
            recirc_delay: SimDuration::micros(1),
        }
    }
}

/// Pipeline/CPU activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets the pipeline processed (including recirculated passes).
    pub pipeline_packets: u64,
    /// Items punted to the control plane.
    pub punts: u64,
    /// Recirculation passes.
    pub recircs: u64,
    /// Packet-generator ticks.
    pub pktgen_ticks: u64,
    /// Packets explicitly dropped by the program.
    pub program_drops: u64,
}

/// A programmable switch node.
pub struct Switch<P: DataPlaneProgram, C: ControlApp> {
    dp: DataPlane,
    program: P,
    cp_app: C,
    cfg: SwitchConfig,
    incarnation: u8,
    cp_next_free: SimTime,
    cp_pending: HashMap<u64, Box<dyn Any>>,
    recirc_pending: HashMap<u64, PacketBody>,
    next_work_id: u64,
    pktgens: Vec<(SimDuration, u64)>,
    stats: SwitchStats,
    /// Pooled effect buffer: lent to the [`Effects`] of each pipeline
    /// pass and taken back drained, so a pass allocates nothing once the
    /// buffer has grown to the widest pass seen.
    effect_buf: Vec<Effect>,
}

impl<P: DataPlaneProgram, C: ControlApp> Switch<P, C> {
    /// Compose a switch. The data plane is built (registers allocated,
    /// handles distributed to `program`/`cp_app`) before this call.
    pub fn new(cfg: SwitchConfig, dp: DataPlane, program: P, cp_app: C) -> Switch<P, C> {
        Switch {
            dp,
            program,
            cp_app,
            cfg,
            incarnation: 0,
            cp_next_free: SimTime::ZERO,
            cp_pending: HashMap::new(),
            recirc_pending: HashMap::new(),
            next_work_id: 0,
            pktgens: Vec::new(),
            stats: SwitchStats::default(),
            effect_buf: Vec::new(),
        }
    }

    /// Register a periodic packet-generator: the program's `on_pktgen`
    /// fires with `user_token` every `period`. Call before the simulation
    /// starts.
    pub fn add_pktgen(&mut self, period: SimDuration, user_token: u64) {
        assert!(period.as_nanos() > 0, "pktgen period must be positive");
        self.pktgens.push((period, user_token));
    }

    /// The data plane (post-run inspection).
    pub fn dp(&self) -> &DataPlane {
        &self.dp
    }

    /// Mutable data plane (test setup).
    pub fn dp_mut(&mut self) -> &mut DataPlane {
        &mut self.dp
    }

    /// The data-plane program.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// Mutable program access.
    pub fn program_mut(&mut self) -> &mut P {
        &mut self.program
    }

    /// The control app.
    pub fn cp_app(&self) -> &C {
        &self.cp_app
    }

    /// Mutable control app access.
    pub fn cp_app_mut(&mut self) -> &mut C {
        &mut self.cp_app
    }

    /// Activity counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    fn next_id(&mut self) -> u64 {
        self.next_work_id = (self.next_work_id + 1) & ((1 << 48) - 1);
        self.next_work_id
    }

    fn run_program<F>(&mut self, ctx: &mut Ctx<'_>, f: F)
    where
        F: FnOnce(&mut P, &mut DpView<'_>, &mut Effects),
    {
        let mut eff = Effects::over(std::mem::take(&mut self.effect_buf), ctx.tracing());
        {
            let mut view = DpView::new(&mut self.dp, ctx.now());
            f(&mut self.program, &mut view, &mut eff);
        }
        let mut effects = eff.into_buf();
        self.apply_effects(&mut effects, ctx);
        self.effect_buf = effects;
    }

    fn apply_effects(&mut self, effects: &mut Vec<Effect>, ctx: &mut Ctx<'_>) {
        for e in effects.drain(..) {
            match e {
                Effect::Forward { dst, body } => ctx.send(dst, body),
                Effect::Multicast { group, body } => ctx.multicast(group, body),
                Effect::AnycastRandom { group, body } => ctx.send_random(group, body),
                Effect::Recirculate { body } => {
                    self.stats.recircs += 1;
                    let id = self.next_id();
                    self.recirc_pending.insert(id, body);
                    ctx.set_timer(
                        self.cfg.recirc_delay,
                        encode_token(TAG_RECIRC, self.incarnation, id),
                    );
                }
                Effect::Punt { item, trace } => {
                    self.stats.punts += 1;
                    let now = ctx.now();
                    let arrive = now + self.cfg.cp.punt_latency;
                    let start = arrive.max(self.cp_next_free);
                    let done = start + self.cfg.cp.service_time;
                    self.cp_next_free = done;
                    // The queue model knows when this item reaches the CPU
                    // and when it clears the serial service queue — stamp
                    // the phase markers with those modeled times.
                    ctx.span_at(arrive, trace, swishmem_simnet::SpanPhase::Punt);
                    ctx.span_at(start, trace, swishmem_simnet::SpanPhase::CpDequeue);
                    let id = self.next_id();
                    self.cp_pending.insert(id, item);
                    ctx.set_timer(done - now, encode_token(TAG_CP_WORK, self.incarnation, id));
                }
                Effect::Span { trace, phase } => ctx.span(trace, phase),
                Effect::Drop => self.stats.program_drops += 1,
            }
        }
    }

    fn run_cp<F>(&mut self, ctx: &mut Ctx<'_>, f: F)
    where
        F: FnOnce(&mut C, &mut CpCtx<'_, '_>),
    {
        let mut timer_requests = Vec::new();
        {
            let mut cp = CpCtx {
                dp: &mut self.dp,
                net: ctx,
                timer_requests: &mut timer_requests,
            };
            f(&mut self.cp_app, &mut cp);
        }
        for (delay, token) in timer_requests {
            ctx.set_timer(delay, encode_token(TAG_CP_TIMER, self.incarnation, token));
        }
    }
}

impl<P: DataPlaneProgram, C: ControlApp> Node for Switch<P, C> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, &(period, _)) in self.pktgens.iter().enumerate() {
            ctx.set_timer(period, encode_token(TAG_PKTGEN, self.incarnation, i as u64));
        }
        self.run_cp(ctx, |app, cp| app.on_start(cp));
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.stats.pipeline_packets += 1;
        self.run_program(ctx, |p, dp, eff| p.on_packet(pkt, dp, eff));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let (tag, inc, payload) = decode_token(token);
        if inc != self.incarnation {
            return; // armed before a failure; stale
        }
        match tag {
            TAG_PKTGEN => {
                let idx = payload as usize;
                let Some(&(period, user_token)) = self.pktgens.get(idx) else {
                    return;
                };
                self.stats.pktgen_ticks += 1;
                self.run_program(ctx, |p, dp, eff| p.on_pktgen(user_token, dp, eff));
                ctx.set_timer(period, token); // re-arm
            }
            TAG_CP_WORK => {
                if let Some(item) = self.cp_pending.remove(&payload) {
                    self.run_cp(ctx, |app, cp| app.on_item(item, cp));
                }
            }
            TAG_CP_TIMER => {
                self.run_cp(ctx, |app, cp| app.on_timer(payload, cp));
            }
            TAG_RECIRC => {
                if let Some(body) = self.recirc_pending.remove(&payload) {
                    let me = ctx.self_id();
                    let pkt = Packet {
                        src: me,
                        dst: me,
                        body,
                    };
                    self.stats.pipeline_packets += 1;
                    self.run_program(ctx, |p, dp, eff| p.on_packet(pkt, dp, eff));
                }
            }
            _ => {}
        }
    }

    fn on_fail(&mut self) {
        // Fail-stop: all state is lost.
        self.incarnation = self.incarnation.wrapping_add(1);
        self.dp.clear_all();
        self.cp_pending.clear();
        self.recirc_pending.clear();
        self.cp_next_free = SimTime::ZERO;
        self.stats = SwitchStats::default();
        self.program.reset();
        self.cp_app.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::NullControlApp;
    use crate::dataplane::RegHandle;
    use std::net::Ipv4Addr;
    use swishmem_simnet::{LinkParams, Simulator};
    use swishmem_wire::{DataPacket, FlowKey, NodeId};

    fn data_pkt(src: u16, dst: u16) -> Packet {
        Packet::data(
            NodeId(src),
            NodeId(dst),
            DataPacket::udp(
                FlowKey::udp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 0, 2), 2),
                0,
                32,
            ),
        )
    }

    #[test]
    fn token_codec() {
        let t = encode_token(3, 7, 123456);
        assert_eq!(decode_token(t), (3, 7, 123456));
        let t = encode_token(255, 255, (1 << 48) - 1);
        assert_eq!(decode_token(t), (255, 255, (1 << 48) - 1));
    }

    /// Counts packets in a register and forwards them onward.
    struct CountAndForward {
        reg: RegHandle,
        next: NodeId,
    }
    impl DataPlaneProgram for CountAndForward {
        fn on_packet(&mut self, pkt: Packet, dp: &mut DpView<'_>, eff: &mut Effects) {
            dp.reg_add(self.reg, 0, 1);
            eff.forward(self.next, pkt.body);
        }
    }

    #[test]
    fn pipeline_counts_and_forwards() {
        let mut sim = Simulator::new(1);
        let mut dp = DataPlane::standard();
        let reg = dp.alloc_register("cnt", 1).unwrap();
        let sw = Switch::new(
            SwitchConfig::default(),
            dp,
            CountAndForward {
                reg,
                next: NodeId(2),
            },
            NullControlApp,
        );
        sim.add_node(NodeId(1), Box::new(sw));
        let (rec, log) = swishmem_simnet::RecorderNode::new();
        sim.add_node(NodeId(2), Box::new(rec));
        sim.topology_mut()
            .connect(NodeId(1), NodeId(2), LinkParams::datacenter());
        for i in 0..5 {
            sim.inject(SimTime(i * 1000), data_pkt(0, 1));
        }
        sim.run_until_quiescent(SimTime(1_000_000));
        type Sw = Switch<CountAndForward, NullControlApp>;
        let sw = sim.node::<Sw>(NodeId(1)).unwrap();
        assert_eq!(sw.dp().reg(reg).read(0), 5);
        assert_eq!(sw.stats().pipeline_packets, 5);
        assert_eq!(log.borrow().len(), 5);
    }

    /// Punts every packet; the CP echoes it out after the CP costs.
    struct PuntAll;
    impl DataPlaneProgram for PuntAll {
        fn on_packet(&mut self, pkt: Packet, _dp: &mut DpView<'_>, eff: &mut Effects) {
            eff.punt(pkt); // moved, not cloned: the pipeline owns the packet
        }
    }
    struct EchoCp {
        out: NodeId,
        handled: u64,
    }
    impl ControlApp for EchoCp {
        fn on_item(&mut self, item: Box<dyn Any>, cp: &mut CpCtx<'_, '_>) {
            let pkt = item.downcast::<Packet>().unwrap();
            self.handled += 1;
            cp.packet_out(self.out, pkt.body);
        }
    }

    #[test]
    fn control_plane_serializes_service() {
        let mut sim = Simulator::new(1);
        let cfg = SwitchConfig::default();
        let sw = Switch::new(
            cfg,
            DataPlane::standard(),
            PuntAll,
            EchoCp {
                out: NodeId(2),
                handled: 0,
            },
        );
        sim.add_node(NodeId(1), Box::new(sw));
        let (rec, log) = swishmem_simnet::RecorderNode::new();
        sim.add_node(NodeId(2), Box::new(rec));
        sim.topology_mut()
            .connect(NodeId(1), NodeId(2), LinkParams::datacenter());
        // Two packets injected simultaneously: CP handles them serially.
        sim.inject(SimTime::ZERO, data_pkt(0, 1));
        sim.inject(SimTime::ZERO, data_pkt(0, 1));
        sim.run_until_quiescent(SimTime(10_000_000));
        let log = log.borrow();
        assert_eq!(log.len(), 2);
        let d = log[1].0 - log[0].0;
        // Second packet waited one full service slot behind the first.
        assert_eq!(d, cfg.cp.service_time);
        // First arrives no earlier than punt + service + link latency.
        assert!(log[0].0 >= SimTime::ZERO + cfg.cp.punt_latency + cfg.cp.service_time);
    }

    /// Recirculates once, then forwards.
    struct RecircOnce {
        next: NodeId,
    }
    impl DataPlaneProgram for RecircOnce {
        fn on_packet(&mut self, pkt: Packet, _dp: &mut DpView<'_>, eff: &mut Effects) {
            if pkt.src == pkt.dst {
                // second pass
                eff.forward(self.next, pkt.body);
            } else {
                eff.recirculate(pkt.body);
            }
        }
    }

    #[test]
    fn recirculation_reprocesses() {
        let mut sim = Simulator::new(1);
        let sw = Switch::new(
            SwitchConfig::default(),
            DataPlane::standard(),
            RecircOnce { next: NodeId(2) },
            NullControlApp,
        );
        sim.add_node(NodeId(1), Box::new(sw));
        let (rec, log) = swishmem_simnet::RecorderNode::new();
        sim.add_node(NodeId(2), Box::new(rec));
        sim.topology_mut()
            .connect(NodeId(1), NodeId(2), LinkParams::datacenter());
        sim.inject(SimTime::ZERO, data_pkt(0, 1));
        sim.run_until_quiescent(SimTime(10_000_000));
        assert_eq!(log.borrow().len(), 1);
        type Sw = Switch<RecircOnce, NullControlApp>;
        let sw = sim.node::<Sw>(NodeId(1)).unwrap();
        assert_eq!(sw.stats().recircs, 1);
        assert_eq!(sw.stats().pipeline_packets, 2);
    }

    /// Pktgen program that counts ticks in a register.
    struct TickCounter {
        reg: RegHandle,
    }
    impl DataPlaneProgram for TickCounter {
        fn on_packet(&mut self, _pkt: Packet, _dp: &mut DpView<'_>, _eff: &mut Effects) {}
        fn on_pktgen(&mut self, token: u64, dp: &mut DpView<'_>, _eff: &mut Effects) {
            dp.reg_add(self.reg, token as usize, 1);
        }
    }

    #[test]
    fn pktgen_fires_periodically() {
        let mut sim = Simulator::new(1);
        let mut dp = DataPlane::standard();
        let reg = dp.alloc_register("ticks", 2).unwrap();
        let mut sw = Switch::new(
            SwitchConfig::default(),
            dp,
            TickCounter { reg },
            NullControlApp,
        );
        sw.add_pktgen(SimDuration::millis(1), 0);
        sw.add_pktgen(SimDuration::millis(2), 1);
        sim.add_node(NodeId(1), Box::new(sw));
        sim.run_until(SimTime(10_000_000)); // 10 ms
        type Sw = Switch<TickCounter, NullControlApp>;
        let sw = sim.node::<Sw>(NodeId(1)).unwrap();
        assert_eq!(sw.dp().reg(reg).read(0), 10);
        assert_eq!(sw.dp().reg(reg).read(1), 5);
    }

    #[test]
    fn failure_wipes_state_and_recovery_restarts() {
        let mut sim = Simulator::new(1);
        let mut dp = DataPlane::standard();
        let reg = dp.alloc_register("cnt", 1).unwrap();
        let sw = Switch::new(
            SwitchConfig::default(),
            dp,
            CountAndForward {
                reg,
                next: NodeId(2),
            },
            NullControlApp,
        );
        sim.add_node(NodeId(1), Box::new(sw));
        let (rec, _log) = swishmem_simnet::RecorderNode::new();
        sim.add_node(NodeId(2), Box::new(rec));
        sim.topology_mut()
            .connect(NodeId(1), NodeId(2), LinkParams::datacenter());
        sim.inject(SimTime(0), data_pkt(0, 1));
        sim.inject(SimTime(1000), data_pkt(0, 1));
        sim.schedule_fail(SimTime(5000), NodeId(1));
        sim.schedule_recover(SimTime(10_000), NodeId(1));
        sim.inject(SimTime(20_000), data_pkt(0, 1));
        sim.run_until_quiescent(SimTime(1_000_000));
        type Sw = Switch<CountAndForward, NullControlApp>;
        let sw = sim.node::<Sw>(NodeId(1)).unwrap();
        // Pre-failure counts were wiped; only the post-recovery packet counts.
        assert_eq!(sw.dp().reg(reg).read(0), 1);
    }
}
