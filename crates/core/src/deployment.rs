//! Deployment: build an N-switch SwiShmem fabric inside the simulator.
//!
//! This is the "one big switch" entry point (§1): the user supplies
//! register specs and an NF factory; the builder instantiates one switch
//! per replica (identical program), a central controller, edge hosts, the
//! full-mesh inter-switch fabric, and the replica multicast group.

use crate::api::NfApp;
use crate::config::{ClockMode, RegisterSpec, SwishConfig};
use crate::controller::{ConfigEvent, ConsensusMetrics, Controller};
use crate::layer::cp::SwishCp;
use crate::layer::program::SwishProgram;
use crate::layer::{ChainView, Handles, RegKind, PENDING_SWEEP_PKTGEN_TOKEN, SYNC_PKTGEN_TOKEN};
use crate::metrics::{CpMetrics, DpMetrics, SwitchMetrics, SwitchMetricsRef};
use crate::version::SwitchClock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;
use swishmem_pisa::{DataPlane, MemoryBudget, Switch, SwitchConfig};
use swishmem_simnet::{
    FaultSchedule, LinkParams, ObserverHandle, RecorderNode, Recording, SimDuration, SimTime,
    Simulator, Tap,
};
use swishmem_wire::swish::{Key, RegId};
use swishmem_wire::{DataPacket, NodeId, Packet};

/// The concrete switch type of a SwiShmem deployment.
pub type SwishSwitch = Switch<SwishProgram, SwishCp>;

/// First spine (relay) node id in leaf-spine fabrics.
pub const SPINE_BASE: u16 = 500;

/// Tail pending-sweep period: the tail periodically re-multicasts
/// `Clear` for committed group slots so pending bits orphaned by a lost
/// clear still converge.
const PENDING_SWEEP_PERIOD: SimDuration = SimDuration::millis(5);

/// Inter-switch fabric shape (§3.2's deployment scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// Every switch directly linked to every other (the dedicated
    /// NF-cluster deployment).
    FullMesh,
    /// Switches are leaves behind `spines` relay switches; inter-switch
    /// traffic crosses a spine hop, ECMP-spread per (src, dst) pair (the
    /// in-fabric deployment).
    LeafSpine {
        /// Number of spine relays.
        spines: usize,
    },
}

/// First host node id (switches occupy 0..n).
pub const HOST_BASE: u16 = 1000;

/// Builder for a [`Deployment`].
pub struct DeploymentBuilder {
    n_switches: usize,
    n_hosts: usize,
    seed: u64,
    link: LinkParams,
    swish_cfg: SwishConfig,
    registers: Vec<RegisterSpec>,
    memory: usize,
    fabric: Fabric,
    ctrl_spares: u8,
}

impl DeploymentBuilder {
    /// A deployment of `n_switches` replicas.
    pub fn new(n_switches: usize) -> DeploymentBuilder {
        DeploymentBuilder {
            n_switches,
            n_hosts: 2,
            seed: 1,
            link: LinkParams::datacenter(),
            swish_cfg: SwishConfig::default(),
            registers: Vec::new(),
            memory: swishmem_pisa::memory::DEFAULT_CAPACITY,
            fabric: Fabric::FullMesh,
            ctrl_spares: 0,
        }
    }

    /// Inter-switch fabric shape (default: full mesh).
    pub fn fabric(mut self, fabric: Fabric) -> Self {
        self.fabric = fabric;
        self
    }

    /// Number of edge hosts (traffic destinations), default 2.
    pub fn hosts(mut self, n: usize) -> Self {
        self.n_hosts = n;
        self
    }

    /// RNG seed (determinism knob).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Inter-switch (and host/controller) link parameters.
    pub fn link(mut self, link: LinkParams) -> Self {
        self.link = link;
        self
    }

    /// Protocol configuration.
    pub fn swish_config(mut self, cfg: SwishConfig) -> Self {
        self.swish_cfg = cfg;
        self
    }

    /// Size of the controller replica group (default 1: the paper's
    /// single controller, a consensus group of one). Even values are
    /// rounded up to the next odd so a strict majority quorum exists.
    /// Shorthand for setting [`SwishConfig::ctrl_replicas`] via
    /// [`Self::swish_config`].
    pub fn ctrl_replicas(mut self, n: u8) -> Self {
        self.swish_cfg.ctrl_replicas = n;
        self
    }

    /// Number of spare controller replicas (default 0). Spares are
    /// deployed and wired into the fabric but are NOT members of the
    /// initial consensus group: they stay passive until an `AddReplica`
    /// decree (see [`Deployment::schedule_ctrl_add`]) admits them at
    /// runtime — the replacement pool for dead replicas.
    pub fn ctrl_spares(mut self, n: u8) -> Self {
        self.ctrl_spares = n;
        self
    }

    /// Per-switch data-plane memory budget.
    pub fn memory(mut self, bytes: usize) -> Self {
        self.memory = bytes;
        self
    }

    /// Declare a shared register. Ids must be dense, in declaration order.
    pub fn register(mut self, spec: RegisterSpec) -> Self {
        assert_eq!(
            spec.id as usize,
            self.registers.len(),
            "register ids must be dense"
        );
        self.registers.push(spec);
        self
    }

    /// Build the deployment, instantiating the NF via `app_factory` once
    /// per switch.
    pub fn build<F>(self, app_factory: F) -> Deployment
    where
        F: Fn(NodeId) -> Box<dyn NfApp>,
    {
        let mut sim = Simulator::new(self.seed);
        let mut skew_rng = StdRng::seed_from_u64(self.seed ^ 0x5eed_cafe);
        let switch_ids: Vec<NodeId> = (0..self.n_switches as u16).map(NodeId).collect();
        // Controller replica group (DESIGN.md §12): odd size, replica 0
        // at NodeId::CONTROLLER, so a group of one sits where the paper's
        // single controller does.
        let n_active = usize::from(self.swish_cfg.ctrl_replicas.max(1)) | 1;
        let n_ctrl = n_active + usize::from(self.ctrl_spares);
        let ctrl_ids: Vec<NodeId> = (0..n_ctrl as u16).map(|i| NodeId(u16::MAX - i)).collect();
        let active_ids: Vec<NodeId> = ctrl_ids[..n_active].to_vec();

        for &id in &switch_ids {
            let mut dp = DataPlane::new(MemoryBudget::new(self.memory));
            let handles = Rc::new(
                Handles::build(&mut dp, &self.registers, &self.swish_cfg, self.n_switches)
                    .expect("register specs exceed data-plane memory"),
            );
            let skew = match self.swish_cfg.clock {
                ClockMode::Synced { max_skew_ns } if max_skew_ns > 0 => {
                    skew_rng.gen_range(-(max_skew_ns as i64)..=max_skew_ns as i64)
                }
                _ => 0,
            };
            let clock = SwitchClock::new(id, self.swish_cfg.clock, skew);
            let program =
                SwishProgram::new(id, self.swish_cfg, handles.clone(), app_factory(id), clock);
            // Switches address the ACTIVE group only: spares hold no lease
            // (no leader beacons reach them) so routing fabric lookups at
            // them would only burn retries.
            let cp = SwishCp::new(id, self.swish_cfg, active_ids.clone(), handles);
            let mut sw = Switch::new(SwitchConfig::default(), dp, program, cp);
            sw.add_pktgen(self.swish_cfg.sync_period, SYNC_PKTGEN_TOKEN);
            sw.add_pktgen(PENDING_SWEEP_PERIOD, PENDING_SWEEP_PKTGEN_TOKEN);
            sim.add_node(id, Box::new(sw));
        }

        for (i, &id) in ctrl_ids.iter().enumerate() {
            let (cfg, switches, regs) =
                (self.swish_cfg, switch_ids.clone(), self.registers.clone());
            let ctrl = if i < n_active {
                Controller::replica(cfg, switches, regs, i as u8, active_ids.clone())
            } else {
                Controller::spare(cfg, switches, regs, i as u8, id, active_ids.clone())
            };
            sim.add_node(id, Box::new(ctrl));
        }

        let mut hosts = Vec::with_capacity(self.n_hosts);
        let mut recordings = Vec::with_capacity(self.n_hosts);
        for i in 0..self.n_hosts as u16 {
            let id = NodeId(HOST_BASE + i);
            let (rec, log) = RecorderNode::new();
            sim.add_node(id, Box::new(rec));
            hosts.push(id);
            recordings.push(log);
        }

        // Fabric: inter-switch connectivity per the chosen shape,
        // controller star, host-switch bipartite.
        match self.fabric {
            Fabric::FullMesh => sim.topology_mut().full_mesh(&switch_ids, self.link),
            Fabric::LeafSpine { spines } => {
                assert!(spines > 0, "need at least one spine");
                let spine_ids: Vec<NodeId> =
                    (0..spines as u16).map(|i| NodeId(SPINE_BASE + i)).collect();
                for &sp in &spine_ids {
                    sim.add_node(sp, Box::new(swishmem_simnet::RelayNode));
                    for &leaf in &switch_ids {
                        sim.topology_mut().connect(sp, leaf, self.link);
                    }
                }
                // ECMP: each (src, dst) leaf pair pins a spine by hash.
                for &a in &switch_ids {
                    for &b in &switch_ids {
                        if a != b {
                            let h = (u64::from(a.0) * 31 + u64::from(b.0)) as usize;
                            sim.topology_mut().set_route(a, b, spine_ids[h % spines]);
                        }
                    }
                }
            }
        }
        // Internal loopback port per switch: a control-plane packet-out
        // addressed to the switch itself (e.g. the writer is the chain
        // head) re-enters its own pipeline. Fast and lossless, like a
        // real loopback port.
        let loopback = LinkParams {
            latency: SimDuration::nanos(200),
            bandwidth_bps: 0,
            drop_prob: 0.0,
            jitter: SimDuration::ZERO,
            corrupt_prob: 0.0,
        };
        for &s in &switch_ids {
            sim.topology_mut().add_link(s, s, loopback);
        }
        for &c in &ctrl_ids {
            sim.topology_mut().star(c, &switch_ids, self.link);
        }
        sim.topology_mut().full_mesh(&ctrl_ids, self.link);
        for &h in &hosts {
            for &s in &switch_ids {
                sim.topology_mut().connect(h, s, self.link);
            }
        }

        Deployment {
            sim,
            switches: switch_ids,
            ctrls: ctrl_ids,
            n_ctrl_active: n_active,
            hosts,
            recordings,
            cfg: self.swish_cfg,
            specs: self.registers,
            ingest_records: 0,
            ingest_stalls: 0,
        }
    }
}

/// A running SwiShmem fabric.
pub struct Deployment {
    /// The underlying simulator (exposed for fault-injection schedules and
    /// statistics).
    pub sim: Simulator,
    switches: Vec<NodeId>,
    ctrls: Vec<NodeId>,
    /// Replicas `0..n_ctrl_active` form the initial consensus group;
    /// the rest are spares awaiting an `AddReplica` decree.
    n_ctrl_active: usize,
    hosts: Vec<NodeId>,
    recordings: Vec<Recording>,
    cfg: SwishConfig,
    specs: Vec<RegisterSpec>,
    /// Trace records fed into the fabric by a replay engine (cumulative).
    ingest_records: u64,
    /// Ring-ingest backpressure stalls observed while feeding this
    /// deployment (cumulative).
    ingest_stalls: u64,
}

impl Deployment {
    /// Run until the bootstrap configuration has propagated (a couple of
    /// heartbeat intervals).
    pub fn settle(&mut self) {
        let d = SimDuration::nanos(2 * self.cfg.heartbeat_interval.as_nanos().max(1_000_000));
        self.sim.run_for(d);
    }

    /// Switch node ids.
    pub fn switch_ids(&self) -> &[NodeId] {
        &self.switches
    }

    /// Host node ids.
    pub fn host_ids(&self) -> &[NodeId] {
        &self.hosts
    }

    /// The i-th host id.
    pub fn host(&self, i: usize) -> NodeId {
        self.hosts[i]
    }

    /// How many packets host `i` received. Hosts count and keep no
    /// packets; to read what a host received, attach a packet
    /// [`swishmem_simnet::Trace`] with [`Deployment::add_observer`]
    /// before the run and filter it with `received_by(dep.host(i))`.
    pub fn recording(&self, i: usize) -> &Recording {
        &self.recordings[i]
    }

    /// Inject a data packet arriving at switch `sw` from host `from` at
    /// absolute time `t`.
    pub fn inject(&mut self, t: SimTime, sw: usize, from: usize, pkt: DataPacket) {
        let p = Packet::data(self.hosts[from], self.switches[sw], pkt);
        self.sim.inject(t, p);
    }

    /// Account trace-replay ingest against this deployment: `records`
    /// fed, `stalls` backpressure bounces. Pure bookkeeping — it never
    /// touches the simulator, so replay accounting cannot perturb a run.
    pub fn note_ingest(&mut self, records: u64, stalls: u64) {
        self.ingest_records += records;
        self.ingest_stalls += stalls;
    }

    /// Cumulative trace records fed by a replay engine.
    pub fn ingest_records(&self) -> u64 {
        self.ingest_records
    }

    /// Cumulative replay backpressure stalls.
    pub fn ingest_stalls(&self) -> u64 {
        self.ingest_stalls
    }

    /// Attach an ingress capture tap of `capacity` records to the
    /// underlying simulator and return its handle. Every subsequent
    /// [`Deployment::inject`] (and any raw `sim.inject`) is recorded so
    /// the run's input stream can be exported as a `.swtrace`.
    pub fn attach_capture(&mut self, capacity: usize) -> swishmem_simnet::CaptureHandle {
        let h = Tap::new(capacity);
        self.sim.add_observer(h.clone());
        h
    }

    /// Typed access to switch `i` (panics if the node is missing).
    pub fn switch(&self, i: usize) -> &SwishSwitch {
        self.sim
            .node::<SwishSwitch>(self.switches[i])
            .expect("switch present")
    }

    /// Management-plane read of `reg[key]` at switch `i`.
    pub fn peek(&self, i: usize, reg: RegId, key: Key) -> u64 {
        let now = self.sim.now();
        let sw = self.switch(i);
        sw.program().peek(sw.dp(), reg, key, now)
    }

    /// Data-plane protocol metrics of switch `i`, borrowed.
    pub fn dp_metrics(&self, i: usize) -> &DpMetrics {
        self.switch(i).program().metrics()
    }

    /// Control-plane protocol metrics of switch `i`, borrowed.
    pub fn cp_metrics(&self, i: usize) -> &CpMetrics {
        self.switch(i).cp_app().metrics()
    }

    /// Combined protocol metrics of switch `i`, as an owned snapshot
    /// (clones both structs, latency histograms included; a caller that
    /// only reads wants [`Deployment::dp_metrics`] / `cp_metrics`).
    pub fn metrics(&self, i: usize) -> SwitchMetrics {
        SwitchMetrics {
            dp: self.dp_metrics(i).clone(),
            cp: self.cp_metrics(i).clone(),
        }
    }

    /// Sum of a `u64` metric across switches.
    pub fn sum_metric<F: Fn(SwitchMetricsRef<'_>) -> u64>(&self, f: F) -> u64 {
        (0..self.switches.len())
            .map(|i| {
                f(SwitchMetricsRef {
                    dp: self.dp_metrics(i),
                    cp: self.cp_metrics(i),
                })
            })
            .sum()
    }

    /// Controller node ids, replica index order: `[NodeId::CONTROLLER]`
    /// for a group of one.
    pub fn controller_ids(&self) -> &[NodeId] {
        &self.ctrls
    }

    /// The controller node whose answers are authoritative right now:
    /// the live acting leader if there is one, else the live replica
    /// with the highest configuration epoch (the most caught-up
    /// follower), else replica 0.
    pub fn acting_controller_id(&self) -> NodeId {
        let mut best = self.ctrls[0];
        let mut best_epoch = 0;
        for &c in &self.ctrls {
            let Some(ctrl) = self.sim.node::<Controller>(c) else {
                continue;
            };
            if self.sim.is_failed(c) {
                continue;
            }
            if ctrl.is_acting_leader() {
                return c;
            }
            if ctrl.view().epoch >= best_epoch {
                best_epoch = ctrl.view().epoch;
                best = c;
            }
        }
        best
    }

    fn acting_controller(&self) -> Option<&Controller> {
        self.sim.node::<Controller>(self.acting_controller_id())
    }

    /// Read front-end over the whole controller group: per-replica access
    /// plus group-level summaries.
    pub fn controller(&self) -> ReplicatedController<'_> {
        ReplicatedController {
            ids: &self.ctrls,
            n_active: self.n_ctrl_active,
            reps: self
                .ctrls
                .iter()
                .map(|&c| self.sim.node::<Controller>(c))
                .collect(),
            failed: self.ctrls.iter().map(|&c| self.sim.is_failed(c)).collect(),
        }
    }

    /// Schedule a fail-stop crash of controller replica `idx` at `t`.
    pub fn schedule_ctrl_fail(&mut self, t: SimTime, idx: usize) {
        let id = self.ctrls[idx];
        self.sim.schedule_fail(t, id);
    }

    /// Schedule recovery of controller replica `idx` at `t`. Unlike a
    /// switch recovery, controller state survives the crash (persistent
    /// controller storage; DESIGN.md §12).
    pub fn schedule_ctrl_recover(&mut self, t: SimTime, idx: usize) {
        let id = self.ctrls[idx];
        self.sim.schedule_recover(t, id);
    }

    /// The controller's reconfiguration log.
    pub fn controller_events(&self) -> Vec<ConfigEvent> {
        self.acting_controller()
            .map(|c| c.events().to_vec())
            .unwrap_or_default()
    }

    /// The deployment's register specifications.
    pub fn register_specs(&self) -> &[RegisterSpec] {
        &self.specs
    }

    /// The protocol configuration in effect.
    pub fn config(&self) -> &SwishConfig {
        &self.cfg
    }

    /// Index of a switch id in [`Deployment::switch_ids`], if it is one.
    pub fn switch_index(&self, id: NodeId) -> Option<usize> {
        self.switches.iter().position(|&s| s == id)
    }

    /// Whether switch `i` is currently failed.
    pub fn is_switch_failed(&self, i: usize) -> bool {
        self.sim.is_failed(self.switches[i])
    }

    /// The configuration epoch switch `i`'s control plane has adopted.
    pub fn adopted_epoch(&self, i: usize) -> u32 {
        self.switch(i).cp_app().view().epoch
    }

    /// The controller's current chain view.
    pub fn controller_view(&self) -> ChainView {
        self.acting_controller()
            .map(|c| c.view().clone())
            .unwrap_or_default()
    }

    /// The range table switch `i` has installed for a partitioned
    /// register (empty for replicated registers or before the
    /// controller's initial broadcast lands).
    pub fn installed_ranges(&self, i: usize, reg: RegId) -> Vec<crate::reconfig::RangeView> {
        let sw = self.switch(i);
        let Some(h) = sw.program().handles().rangeblk(reg) else {
            return Vec::new();
        };
        crate::layer::read_ranges(|i| sw.dp().reg(h).read(i))
    }

    /// The controller's master range table for a partitioned register.
    pub fn controller_ranges(&self, reg: RegId) -> Vec<crate::reconfig::RangeView> {
        self.acting_controller()
            .map(|c| c.range_table(reg))
            .unwrap_or_default()
    }

    /// The controller's reconfiguration-engine event log.
    pub fn reconfig_events(&self) -> Vec<crate::reconfig::ReconfigLogEntry> {
        self.acting_controller()
            .map(|c| c.reconfig_log().to_vec())
            .unwrap_or_default()
    }

    /// The migration phase of the range containing `reg[key]`.
    pub fn migration_phase(&self, reg: RegId, key: Key) -> crate::reconfig::MigrationPhase {
        self.acting_controller()
            .map(|c| c.migration_phase(reg, key))
            .unwrap_or(crate::reconfig::MigrationPhase::Idle)
    }

    /// Schedule an explicit reconfiguration trigger at absolute time `t`:
    /// fires a controller timer through the engine's ordinary event
    /// order, exactly as a fault schedule would inject it.
    pub fn schedule_trigger(
        &mut self,
        t: SimTime,
        op: crate::reconfig::TriggerOp,
        reg: RegId,
        key: Key,
        to: NodeId,
    ) {
        let token = crate::reconfig::trigger_token_op(op, reg, key, to);
        let now = self.sim.now();
        // Every replica receives the trigger; only whoever acts as
        // leader at fire time submits it (so a pre-fire failover does
        // not lose the trigger).
        let mut sched = swishmem_simnet::FaultSchedule::new();
        for &c in &self.ctrls {
            sched = sched.trigger(t.since(now), c, token);
        }
        self.sim.schedule_faults(now, &sched);
    }

    /// Schedule a replica-group reconfiguration decree admitting
    /// controller replica `idx` (normally a spare) at `t`. Rides the
    /// ordinary trigger path: whoever leads at fire time submits an
    /// `AddReplica` through the log.
    pub fn schedule_ctrl_add(&mut self, t: SimTime, idx: usize) {
        self.schedule_trigger(
            t,
            crate::reconfig::TriggerOp::AddCtrl,
            0,
            0,
            NodeId(idx as u16),
        );
    }

    /// Schedule a decree removing controller replica `idx` from the
    /// consensus group at `t` (runtime replacement of a dead replica).
    pub fn schedule_ctrl_remove(&mut self, t: SimTime, idx: usize) {
        self.schedule_trigger(
            t,
            crate::reconfig::TriggerOp::RemoveCtrl,
            0,
            0,
            NodeId(idx as u16),
        );
    }

    /// Per-group applied sequence numbers of a chain register at switch
    /// `i` (empty for EWO registers).
    pub fn chain_seqs(&self, i: usize, reg: RegId) -> Vec<u64> {
        let sw = self.switch(i);
        let entry = &sw.program().handles().regs[reg as usize];
        let RegKind::Chain { seq, .. } = &entry.kind else {
            return Vec::new();
        };
        // Partitioned registers sequence per key, not per group.
        let slots = crate::layer::Handles::seq_slots(&entry.spec, &self.cfg);
        (0..slots)
            .map(|g| sw.dp().reg(*seq).read(g as usize))
            .collect()
    }

    /// Per-group pending (in-flight) sequence numbers of an SRO register
    /// at switch `i` (empty for ERO/EWO registers; 0 = not pending).
    pub fn pending_seqs(&self, i: usize, reg: RegId) -> Vec<u64> {
        let sw = self.switch(i);
        let entry = &sw.program().handles().regs[reg as usize];
        let RegKind::Chain {
            pending: Some(p), ..
        } = &entry.kind
        else {
            return Vec::new();
        };
        let slots = self.cfg.group_slots(entry.spec.keys);
        (0..slots)
            .map(|g| sw.dp().reg(*p).read(g as usize))
            .collect()
    }

    /// Install a [`FaultSchedule`] with offsets relative to `base`.
    pub fn schedule_faults(&mut self, base: SimTime, sched: &FaultSchedule) {
        self.sim.schedule_faults(base, sched);
    }

    /// Attach a passive engine observer (e.g. the oracle suite's wire
    /// checker).
    pub fn add_observer(&mut self, obs: ObserverHandle) {
        self.sim.add_observer(obs);
    }

    /// Attach a causal span collector: every protocol phase marker
    /// (ingress, punt, chain hops, ack, release, …) is recorded into the
    /// returned handle, which keeps the earliest `capacity` events and
    /// counts the rest. Purely passive — attaching changes no simulation
    /// outcome (see the determinism tests).
    pub fn attach_tracing(&mut self, capacity: usize) -> swishmem_simnet::SpanHandle {
        let h = Tap::new(capacity);
        self.sim.add_observer(h.clone());
        h
    }

    /// Attach the control-plane flight recorder: every consensus
    /// transition, leadership/lease change, detector edge, membership
    /// decree and migration lifecycle step is journaled into the
    /// returned handle, which keeps the earliest `capacity` records and
    /// counts the rest. Purely passive — attaching changes no simulation
    /// outcome (see the determinism tests). Read with
    /// [`crate::telemetry::journal::Journal`].
    pub fn attach_journal(&mut self, capacity: usize) -> swishmem_simnet::JournalHandle {
        let h = Tap::new(capacity);
        self.sim.add_observer(h.clone());
        h
    }

    /// Fault-plane link targets of this deployment: every inter-switch
    /// pair plus the controller star (the latter models control-plane
    /// message delay/drop when degraded). Pairs without a physical link
    /// (e.g. leaf-leaf under a spine fabric) are tolerated no-ops.
    pub fn fault_links(&self) -> Vec<(NodeId, NodeId)> {
        let mut links = Vec::new();
        for (i, &a) in self.switches.iter().enumerate() {
            for &b in &self.switches[i + 1..] {
                links.push((a, b));
            }
        }
        for &s in &self.switches {
            for &c in &self.ctrls {
                links.push((s, c));
            }
        }
        // Replica-replica links: partitions here are what consensus is
        // for, so the fault plane must be able to cut them.
        for (i, &a) in self.ctrls.iter().enumerate() {
            for &b in &self.ctrls[i + 1..] {
                links.push((a, b));
            }
        }
        links
    }

    /// Schedule a fail-stop failure of switch `i` at `t`.
    pub fn schedule_fail(&mut self, t: SimTime, i: usize) {
        let id = self.switches[i];
        self.sim.schedule_fail(t, id);
    }

    /// Schedule recovery (fresh state) of switch `i` at `t`.
    pub fn schedule_recover(&mut self, t: SimTime, i: usize) {
        let id = self.switches[i];
        self.sim.schedule_recover(t, id);
    }

    /// Run to an absolute time.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Run for a duration.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Partition a register's key space across the switches in the
    /// controller's directory (§7 extension). Call before running.
    /// Applied to every replica: the layout is part of the replicated
    /// initial state, so all replicas must agree on it before slot 0.
    pub fn partition_register(&mut self, reg: RegId, keys: Key, owners: &[NodeId]) {
        for c in self.ctrls.clone() {
            let ctrl = self
                .sim
                .node_mut::<crate::controller::Controller>(c)
                .expect("controller present");
            ctrl.directory_mut().partition_even(reg, keys, owners);
        }
    }

    /// Issue a directory lookup from switch `sw`'s control plane: injects
    /// the query packet toward the controller; the reply is cached in the
    /// switch CP (see [`Deployment::dir_owners`]).
    pub fn dir_lookup(&mut self, t: SimTime, sw: usize, reg: RegId, key: Key) {
        let target = self.switch(sw).cp_app().dir_query_target(reg, key);
        let from = self.switches[sw];
        let pkt = Packet::swish(
            from,
            target,
            swishmem_wire::SwishMsg::DirLookup(swishmem_wire::swish::DirLookup { from, reg, key }),
        );
        self.sim.inject(t, pkt);
    }

    /// Like [`Deployment::dir_lookup`] but pinned to controller replica
    /// `ctrl` — the lease-edge tests aim lookups at a specific follower.
    pub fn dir_lookup_at(&mut self, t: SimTime, sw: usize, ctrl: usize, reg: RegId, key: Key) {
        let from = self.switches[sw];
        let pkt = Packet::swish(
            from,
            self.ctrls[ctrl],
            swishmem_wire::SwishMsg::DirLookup(swishmem_wire::swish::DirLookup { from, reg, key }),
        );
        self.sim.inject(t, pkt);
    }

    /// The owner set switch `sw` has cached for `reg[key]`, if any.
    pub fn dir_owners(&self, sw: usize, reg: RegId, key: Key) -> Option<Vec<NodeId>> {
        self.switch(sw)
            .cp_app()
            .dir_owners(reg, key)
            .map(|o| o.to_vec())
    }
}

/// Read front-end over the controller group (DESIGN.md §12): one place
/// to ask group-level questions — who leads, what the quorum is, how
/// much consensus traffic the group spent — for a group of one as for
/// three. Obtained from [`Deployment::controller`].
pub struct ReplicatedController<'a> {
    ids: &'a [NodeId],
    n_active: usize,
    reps: Vec<Option<&'a Controller>>,
    failed: Vec<bool>,
}

impl<'a> ReplicatedController<'a> {
    /// Replica node ids, index order.
    pub fn ids(&self) -> &'a [NodeId] {
        self.ids
    }

    /// Controllers deployed, spares included (1 for a group of one).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Always false: a deployment runs at least one controller.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Majority quorum size of the current consensus membership: the
    /// leader's live group when one exists (it tracks runtime
    /// `AddReplica`/`RemoveReplica` decrees), else the deployment's
    /// initial active group.
    pub fn quorum(&self) -> usize {
        let group = self
            .leader()
            .map(|(_, l)| l.consensus_group().len())
            .unwrap_or(self.n_active);
        group / 2 + 1
    }

    /// Replica `idx`, if present.
    pub fn replica(&self, idx: usize) -> Option<&'a Controller> {
        self.reps.get(idx).copied().flatten()
    }

    /// Whether replica `idx` is currently crashed.
    pub fn is_failed(&self, idx: usize) -> bool {
        self.failed.get(idx).copied().unwrap_or(false)
    }

    /// The live replica currently acting as leader, if any.
    pub fn leader(&self) -> Option<(NodeId, &'a Controller)> {
        self.ids
            .iter()
            .zip(&self.reps)
            .zip(&self.failed)
            .filter(|((_, r), &f)| !f && r.map(|c| c.is_acting_leader()).unwrap_or(false))
            .map(|((&id, r), _)| (id, r.expect("filtered")))
            .next()
    }

    /// Consensus counters summed across replicas; `commit` reports the
    /// group's highest committed prefix.
    pub fn consensus_metrics(&self) -> ConsensusMetrics {
        let mut total = ConsensusMetrics::default();
        for c in self.reps.iter().flatten() {
            let m = c.consensus_metrics();
            total.msgs_sent += m.msgs_sent;
            total.elections += m.elections;
            total.commit = total.commit.max(m.commit);
            total.leader_changes = total.leader_changes.max(m.leader_changes);
            total.log_compactions = total.log_compactions.max(m.log_compactions);
            total.snapshot_bytes = total.snapshot_bytes.max(m.snapshot_bytes);
            total.suspect_events += m.suspect_events;
            total.follower_reads += m.follower_reads;
        }
        total
    }

    /// Sticky consensus-layer errors across the group: `(replica id,
    /// error)` for every replica whose log window overflowed. The oracle
    /// suite reports any entry here as a protocol violation.
    pub fn consensus_errors(&self) -> Vec<(NodeId, crate::consensus::ConsensusError)> {
        self.ids
            .iter()
            .zip(&self.reps)
            .filter_map(|(&id, r)| r.and_then(|c| c.consensus_error()).map(|e| (id, e)))
            .collect()
    }

    /// Leader changes committed to the group's log (max across
    /// replicas: each counts the changes in its own committed prefix).
    pub fn leader_changes(&self) -> u64 {
        self.consensus_metrics().leader_changes
    }

    /// Consensus protocol messages sent, summed across the group.
    pub fn consensus_msgs(&self) -> u64 {
        self.consensus_metrics().msgs_sent
    }

    /// Lease-gated directory lookups served by non-leading replicas,
    /// summed across the group.
    pub fn follower_reads(&self) -> u64 {
        self.consensus_metrics().follower_reads
    }

    /// Controller-state snapshot bytes persisted across compactions
    /// (max across replicas: every replica applies the same decrees).
    pub fn snapshot_bytes(&self) -> u64 {
        self.consensus_metrics().snapshot_bytes
    }

    /// `LeaderElected` events merged across every replica's log, keeping
    /// the earliest record per epoch: each replica stamps the decree at
    /// its own apply, so the earliest is the new leader's apply — the
    /// instant the election takes effect (and the instant the flight
    /// recorder journals). Sorted by time, for failover-gap measurement.
    pub fn elections(&self) -> Vec<ConfigEvent> {
        let mut by_epoch: std::collections::BTreeMap<u32, ConfigEvent> =
            std::collections::BTreeMap::new();
        for c in self.reps.iter().flatten() {
            for e in c.events() {
                if matches!(e.kind, crate::controller::ConfigEventKind::LeaderElected(_)) {
                    by_epoch
                        .entry(e.epoch)
                        .and_modify(|cur| {
                            if e.time < cur.time {
                                *cur = e.clone();
                            }
                        })
                        .or_insert_with(|| e.clone());
                }
            }
        }
        let mut out: Vec<ConfigEvent> = by_epoch.into_values().collect();
        out.sort_by_key(|e| (e.time, e.epoch));
        out
    }
}
