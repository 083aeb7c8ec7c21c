//! The only file of the benchmark that names items of the program.
//!
//! Everything here goes through public functions and fields of the six
//! layers. A PR that changes one of these signatures breaks this file and
//! nothing else; a follow-up `benchmark` issue re-points it.
//!
//! * `swishmem_simnet` — `Simulator::{new, add_node, topology_mut, inject,
//!   run_until, run_until_quiescent, now, events_processed,
//!   peak_queue_depth, stats, set_wire_check}`, `Topology::{connect,
//!   full_mesh, set_route}`, `NetStats::{delivered_total, dropped}`,
//!   `DropReason::ALL`, `LinkParams::{datacenter, with_jitter}`,
//!   `RelayNode`, `RecorderNode::new`, the `Node` trait and
//!   `Ctx::{send}`, `NetObserver`/`NetEvent::Delivered`/`ObserverHandle`,
//!   `FaultGen::{new, generate_with_controllers}`, `FaultSchedule::len`,
//!   `SpanCollector::events` and `JournalCollector::len` through their
//!   handles, `SimTime`, `SimDuration`.
//! * `swishmem_wire` — `Packet::{data, wire_len, to_bytes, from_bytes}`,
//!   `PacketBody::Data`, `DataPacket::{udp, flow, flow_seq, tcp_flags}`,
//!   `FlowKey::{udp, hash64}`, `NodeId`, `size_of::<Packet>()`.
//! * `swishmem_pisa` — `DataPlane::{standard, alloc_register,
//!   alloc_pair_register, alloc_table, table_insert, reg_mut, pair_mut,
//!   table_mut}` with the three kernels `RegisterArray::add`,
//!   `PairRegisterArray::merge_max`, `MatchTable::lookup`;
//!   `Switch::{new, stats}`, `SwitchConfig`, `SwitchStats`, the
//!   `DataPlaneProgram` trait with `Effects::forward`, `NullControlApp`.
//! * `swishmem` (core) — `DeploymentBuilder::{new, hosts, seed,
//!   ctrl_replicas, register, build}`, `Deployment::{sim (field), settle,
//!   inject, run_until, run_for, now, peek, metrics, switch, recording,
//!   switch_ids, host_ids, controller_ids, fault_links, schedule_faults,
//!   add_observer, attach_tracing, attach_journal, attach_capture,
//!   note_ingest, controller}`, `ReplicatedController::{consensus_msgs,
//!   leader_changes, consensus_errors}`, `RegisterSpec::{sro, ero,
//!   ewo_counter}`, `OracleConfig::new`, `OracleSuite::{attach,
//!   attach_journal, run, poll}`, `SwitchMetrics`/`DpMetrics`/`CpMetrics`
//!   fields, `Histogram::{new, merge, percentile_ns}`, the `NfApp` trait,
//!   `NfDecision`, `SharedState::{read, write, add}`, `HOST_BASE`.
//! * `swishmem_nf` — `Zipf::{new, sample}`, `FlowGen::{new, generate}`,
//!   `FlowGenConfig`, `EcmpRouter::new`, `RoutingMode::EcmpStable`.
//! * `swishmem_replay` — `SynthConfig`, `synth_to_writer`,
//!   `TraceWriter::{new, finish}`, `TraceMeta::new`, `TraceReader::{new,
//!   meta, next_record}`, `TraceRecord::{to_packet, flow_hash}` and its
//!   fields, `FlowRing::{new, push, pop, is_empty, stalls,
//!   max_occupancy}`, `ReplayConfig`, `ReplayStats`, `replay_trace`,
//!   `replay_digest`, `to_swtrace_bytes`.

use std::cell::{Cell, RefCell};
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use swishmem::{
    Deployment, DeploymentBuilder, Histogram, NfApp, NfDecision, OracleConfig, OracleSuite,
    RegisterSpec, SharedState, HOST_BASE,
};
use swishmem_nf::workload::{EcmpRouter, FlowGen, FlowGenConfig, RoutingMode, Zipf};
use swishmem_pisa::{
    DataPlane, DataPlaneProgram, DpView, Effects, NullControlApp, Switch, SwitchConfig,
};
use swishmem_replay::{
    replay_digest, replay_trace, synth_to_writer, to_swtrace_bytes, FlowRing, ReplayConfig,
    SynthConfig, TraceMeta, TraceReader, TraceRecord, TraceWriter,
};
use swishmem_simnet::{
    Ctx, DropReason, FaultGen, LinkParams, NetEvent, NetObserver, Node, NodeObj, ObserverHandle,
    RecorderNode, RelayNode, SimDuration, SimTime, Simulator,
};
use swishmem_wire::{DataPacket, FlowKey, NodeId, Packet, PacketBody};

use crate::host;
use crate::report::Metrics;
use crate::spans::span;

// ---------------------------------------------------------------------
// Workloads and sizes
// ---------------------------------------------------------------------

/// The four workloads, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FabricFwd,
    EwoReplay,
    SroConn,
    FaultSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FabricFwd,
        Workload::EwoReplay,
        Workload::SroConn,
        Workload::FaultSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricFwd => "fabric_fwd",
            Workload::EwoReplay => "ewo_replay",
            Workload::SroConn => "sro_conn",
            Workload::FaultSweep => "fault_sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `nominal` is what every reported number is measured at;
/// `tiny` is the self-test's.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `fabric_fwd`: packets pre-injected at the edge hosts.
    pub fabric_packets: u64,
    /// `ewo_replay`: flows synthesized.
    pub ewo_flows: u64,
    /// `sro_conn`: flows synthesized (100k new flows per simulated second).
    pub sro_flows: u64,
    /// `fault_sweep`: seeds per register class (three classes).
    pub sweep_seeds: u64,
    /// `fault_sweep`: writes injected per run.
    pub sweep_writes: u64,
    /// Ladder: records of the `ewo_replay` trace each rung runs.
    pub ladder_records: usize,
    /// Wire kernels: frames in the corpus.
    pub corpus_frames: usize,
    /// Iterations of each `pisa`/`nf` kernel loop.
    pub kernel_iters: u64,
}

impl Sizes {
    pub fn nominal() -> Sizes {
        Sizes {
            fabric_packets: 204_800,
            ewo_flows: 550_000,
            sro_flows: 600_000,
            sweep_seeds: 54,
            sweep_writes: 5_000,
            ladder_records: 300_000,
            corpus_frames: 100_000,
            kernel_iters: 2_000_000,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            fabric_packets: 2_560,
            ewo_flows: 4_000,
            sro_flows: 4_000,
            sweep_seeds: 1,
            sweep_writes: 200,
            ladder_records: 4_000,
            corpus_frames: 4_000,
            kernel_iters: 20_000,
        }
    }
}

/// How one rep is to be run.
#[derive(Debug, Clone, Copy)]
pub struct RepCfg<'a> {
    pub seed: u64,
    pub sizes: &'a Sizes,
    /// Traced run: replays are driven from the public pieces
    /// (`next_record` → `FlowRing` → `inject` → `run_until`) so that each
    /// boundary is a span; otherwise `replay_trace` drives.
    pub traced: bool,
    /// Self-test: hand the correctness check a reference that is wrong
    /// in one place; the rep must then report `failed > 0`.
    pub sabotage: bool,
    /// Where the temporary trace file goes.
    pub out_dir: &'a Path,
}

/// Exact counts read back from the layers after one rep. They repeat
/// bit-for-bit at a fixed seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub peak_queue: u64,
    pub delivered_frames: u64,
    pub delivered_bytes: u64,
    pub dropped_frames: u64,
    pub fault_events: u64,
    pub pipeline_packets: u64,
    pub punts: u64,
    pub recircs: u64,
    pub mirror_packets: u64,
    pub sync_packets: u64,
    pub merge_entries: u64,
    pub merge_applied: u64,
    pub cp_jobs: u64,
    pub cp_write_sends: u64,
    pub cp_retries: u64,
    pub cp_jobs_shed: u64,
    pub cp_jobs_failed: u64,
    pub nf_reads: u64,
    pub reads_forwarded: u64,
    pub sim_write_p50_ns: u64,
    pub sim_write_p99_ns: u64,
    pub consensus_msgs: u64,
    pub leader_changes: u64,
    pub oracle_violations: u64,
    pub observer_records: u64,
    pub ring_stalls: u64,
    pub ring_max_occupancy: u64,
}

/// What one rep measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Rep start to the start of the timed region.
    pub setup_ns: u64,
    /// The timed region: wall clock, and CPU time of this process.
    pub timed_ns: u64,
    pub timed_cpu_ns: u64,
    /// Offered input packets of the timed region.
    pub pkts: u64,
    /// Calls to `inject` that offered them.
    pub injected: u64,
    /// Operations the correctness check looked at, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// State digest; identical across the reps of one invocation.
    pub digest: u64,
    pub counts: Counts,
}

pub fn run_rep(w: Workload, cfg: &RepCfg<'_>) -> Rep {
    match w {
        Workload::FabricFwd => fabric_rep(cfg),
        Workload::EwoReplay => replay_rep(ReplayKind::Ewo, cfg),
        Workload::SroConn => replay_rep(ReplayKind::Sro, cfg),
        Workload::FaultSweep => sweep_rep(cfg),
    }
}

/// `size_of::<Packet>()`: what every event moves.
pub fn packet_size_bytes() -> usize {
    std::mem::size_of::<Packet>()
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

impl Rep {
    fn new(pkts: u64, injected: u64, attempted: u64) -> Rep {
        Rep {
            setup_ns: 0,
            timed_ns: 0,
            timed_cpu_ns: 0,
            pkts,
            injected,
            attempted,
            failed: 0,
            digest: 0,
            counts: Counts::default(),
        }
    }
}

/// A timed region: wall clock and CPU time, and in the traced run the
/// allocations made inside it.
struct Timed {
    wall: Instant,
    cpu_ns: u64,
    traced: bool,
}

impl Timed {
    fn start(cfg: &RepCfg<'_>) -> Timed {
        host::count_allocs(cfg.traced);
        Timed {
            cpu_ns: host::cpu_ns(),
            traced: cfg.traced,
            wall: Instant::now(),
        }
    }

    fn stop(self, rep: &mut Rep) {
        rep.timed_ns += ns(self.wall);
        rep.timed_cpu_ns += host::cpu_ns() - self.cpu_ns;
        if self.traced {
            host::count_allocs(false);
        }
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// splitmix64: independent sub-seeds from the one `--seed`.
fn subseed(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn dropped_frames(sim: &Simulator) -> u64 {
    DropReason::ALL
        .iter()
        .map(|&r| sim.stats().dropped(r).packets)
        .sum()
}

// ---------------------------------------------------------------------
// fabric_fwd: the bare event core
// ---------------------------------------------------------------------

const LEAVES: u16 = 16;
const SPINES: u16 = 4;
const HOSTS_PER_LEAF: u16 = 16;
const EDGE_HOSTS: u16 = LEAVES * HOSTS_PER_LEAF;
const SPINE_ID0: u16 = 100;
const EDGE_ID0: u16 = 1000;
/// Host-to-host trips each packet makes before it is retired.
const TTL: u32 = 10;
/// UDP payload that makes a 64-byte frame (14 Ethernet + 20 IPv4 + 8 UDP).
const MIN_FRAME_PAYLOAD: u16 = 22;

/// Edge host: re-sends each packet to its fixed peer until TTL.
struct Hopper {
    peer: NodeId,
    trips: Rc<Cell<u64>>,
}

impl Node for Hopper {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketBody::Data(mut d) = pkt.body {
            self.trips.set(self.trips.get() + u64::from(d.flow_seq > 0));
            if d.flow_seq < TTL {
                d.flow_seq += 1;
                ctx.send(self.peer, PacketBody::Data(d));
            }
        }
    }
}

fn fabric_rep(cfg: &RepCfg<'_>) -> Rep {
    let rep_start = Instant::now();
    let edge = |h: u16| NodeId(EDGE_ID0 + h);
    let leaf_of = |h: u16| NodeId(h / HOSTS_PER_LEAF);
    let peer_of = |h: u16| (h + EDGE_HOSTS / 2) % EDGE_HOSTS;
    let trips = Rc::new(Cell::new(0u64));

    let mut sim = span("simnet.new", || Simulator::new(cfg.seed));
    span("simnet.topology", || {
        let link = LinkParams::datacenter().with_jitter(SimDuration::nanos(300));
        for l in 0..LEAVES {
            sim.add_node(NodeId(l), Box::new(RelayNode));
        }
        for s in 0..SPINES {
            let spine = NodeId(SPINE_ID0 + s);
            sim.add_node(spine, Box::new(RelayNode));
            for l in 0..LEAVES {
                sim.topology_mut().connect(spine, NodeId(l), link);
            }
        }
        for h in 0..EDGE_HOSTS {
            let hopper = Hopper {
                peer: edge(peer_of(h)),
                trips: trips.clone(),
            };
            sim.add_node(edge(h), Box::new(hopper));
            sim.topology_mut().connect(edge(h), leaf_of(h), link);
            sim.topology_mut()
                .set_route(edge(h), edge(peer_of(h)), leaf_of(h));
        }
        // Static routes for the traffic there is: a leaf reaches the peer
        // of each of its hosts through the spine that host's number picks,
        // and that spine reaches the peer through the peer's leaf.
        for h in 0..EDGE_HOSTS {
            let peer = peer_of(h);
            let spine = NodeId(SPINE_ID0 + peer % SPINES);
            sim.topology_mut().set_route(leaf_of(h), edge(peer), spine);
            sim.topology_mut()
                .set_route(spine, edge(peer), leaf_of(peer));
        }
    });
    span("simnet.inject", || {
        for i in 0..cfg.sizes.fabric_packets {
            let h = (i % u64::from(EDGE_HOSTS)) as u16;
            let flow = FlowKey::udp(
                Ipv4Addr::from(0x0a00_0000 + u32::from(h)),
                4000 + (i / u64::from(EDGE_HOSTS)) as u16,
                Ipv4Addr::from(0x0a00_0000 + u32::from(peer_of(h))),
                9000,
            );
            let at = SimTime(1_000 + (i / u64::from(EDGE_HOSTS)) * 500);
            let dp = DataPacket::udp(flow, 0, MIN_FRAME_PAYLOAD);
            sim.inject(at, Packet::data(edge(h), edge(h), dp));
        }
    });
    let expected_trips = cfg.sizes.fabric_packets * u64::from(TTL) + u64::from(cfg.sabotage);
    let mut rep = Rep::new(
        cfg.sizes.fabric_packets * u64::from(TTL),
        cfg.sizes.fabric_packets,
        expected_trips,
    );
    rep.setup_ns = ns(rep_start);

    let timed = Timed::start(cfg);
    span("simnet.run_until_quiescent", || {
        sim.run_until_quiescent(SimTime(u64::MAX / 2))
    });
    timed.stop(&mut rep);

    let counts = span("simnet.stats", || Counts {
        events: sim.events_processed(),
        peak_queue: sim.peak_queue_depth() as u64,
        delivered_frames: sim.stats().delivered_total().packets,
        delivered_bytes: sim.stats().delivered_total().bytes,
        dropped_frames: dropped_frames(&sim),
        ..Counts::default()
    });
    let mut digest = Fnv::new();
    for v in [
        counts.events,
        counts.delivered_frames,
        counts.delivered_bytes,
        sim.now().nanos(),
        trips.get(),
    ] {
        digest.mix(v);
    }
    rep.failed = expected_trips.abs_diff(trips.get()) + counts.dropped_frames;
    rep.digest = digest.0;
    rep.counts = counts;
    rep
}

// ---------------------------------------------------------------------
// ewo_replay and sro_conn: a trace file through a three-switch deployment
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplayKind {
    Ewo,
    Sro,
}

const SWITCHES: usize = 3;
const EWO_KEYS: u32 = 256;
const SRO_KEYS: u32 = 262_144;
/// Keys per register that `replay_digest` folds in.
const DIGEST_KEYS: u64 = 1_024;
/// Mean gap between new flows: `ewo_replay` runs the fabric hot (the
/// data plane has no rate limit), `sro_conn` at 100k new flows per
/// simulated second, inside the control plane's capacity.
const EWO_FLOW_GAP_NS: u64 = 200;
const SRO_FLOW_GAP_NS: u64 = 10_000;

fn ewo_key(dst_ip: u32) -> u32 {
    dst_ip % EWO_KEYS
}

/// Write-intensive NF: one counter add per packet.
struct CountNf;

impl NfApp for CountNf {
    fn process(&mut self, pkt: &DataPacket, _: NodeId, st: &mut dyn SharedState) -> NfDecision {
        st.add(0, ewo_key(u32::from(pkt.flow.dst)), 1);
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

fn conn_key(flow: &FlowKey) -> u32 {
    (flow.hash64() % u64::from(SRO_KEYS)) as u32
}

/// Read-intensive NF, a connection table: read per packet, write on a
/// SYN that finds no mapping.
struct ConnNf;

impl NfApp for ConnNf {
    fn process(&mut self, pkt: &DataPacket, _: NodeId, st: &mut dyn SharedState) -> NfDecision {
        let key = conn_key(&pkt.flow);
        let mut backend = st.read(0, key);
        if backend == 0 && pkt.tcp_flags.syn {
            backend = 1 + (pkt.flow.hash64() >> 32) % 16;
            st.write(0, key, backend);
        }
        NfDecision::Forward {
            dst: NodeId(HOST_BASE + (backend % 2) as u16),
            pkt: *pkt,
        }
    }
}

fn synth_cfg(kind: ReplayKind, sizes: &Sizes) -> SynthConfig {
    let (flows, gap) = match kind {
        ReplayKind::Ewo => (sizes.ewo_flows, EWO_FLOW_GAP_NS),
        ReplayKind::Sro => (sizes.sro_flows, SRO_FLOW_GAP_NS),
    };
    SynthConfig {
        flows,
        clients: 4_096,
        servers: 256,
        ingress: SWITCHES as u32,
        duration: flows * gap,
        ..SynthConfig::default()
    }
}

fn replay_deployment(kind: ReplayKind, seed: u64) -> Deployment {
    let builder = DeploymentBuilder::new(SWITCHES).hosts(2).seed(seed);
    match kind {
        ReplayKind::Ewo => builder
            .register(RegisterSpec::ewo_counter(0, "cnt", EWO_KEYS))
            .build(|_| Box::new(CountNf)),
        ReplayKind::Sro => builder
            .register(RegisterSpec::sro(0, "conn", SRO_KEYS))
            .build(|_| Box::new(ConnNf)),
    }
}

/// A trace file that is removed when the value is dropped.
struct TraceFile {
    path: PathBuf,
    records: u64,
    bytes: u64,
}

impl Drop for TraceFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn synth_file(cfg: &SynthConfig, seed: u64, out_dir: &Path, stem: &str) -> TraceFile {
    std::fs::create_dir_all(out_dir).expect("create the benchmark's out directory");
    let path = out_dir.join(format!("{stem}-{}.swtrace", std::process::id()));
    let file = File::create(&path).expect("create the trace file");
    // From here on the file is removed on any exit path.
    let mut trace = TraceFile {
        path,
        records: 0,
        bytes: 0,
    };
    let meta = TraceMeta {
        flow_hint: cfg.flows,
        ..TraceMeta::new(cfg.ingress, seed, "benchmark")
    };
    let mut writer = TraceWriter::new(BufWriter::new(file), meta).expect("write the trace header");
    trace.records = synth_to_writer(cfg, seed, &mut writer).expect("synthesize the trace");
    let (mut sink, _) = writer.finish().expect("finish the trace");
    sink.flush().expect("flush the trace file");
    trace.bytes = std::fs::metadata(&trace.path).map_or(0, |m| m.len());
    trace
}

fn open_trace(path: &Path) -> TraceReader<BufReader<File>> {
    let file = File::open(path).expect("open the trace file");
    TraceReader::new(BufReader::new(file)).expect("read the trace header")
}

struct Ingest {
    records: u64,
    injected: u64,
    stalls: u64,
    max_occupancy: u64,
}

/// The replay loop of `replay_trace`, driven from its public pieces with
/// a span at each boundary. Same schedule, so the same digest.
fn replay_from_pieces(
    dep: &mut Deployment,
    reader: &mut TraceReader<BufReader<File>>,
    cfg: &ReplayConfig,
) -> Ingest {
    let base = reader.meta().clock_base_ns;
    let n_hosts = dep.host_ids().len();
    let mut ring = FlowRing::new(cfg.ring_capacity);
    let mut out = Ingest {
        records: 0,
        injected: 0,
        stalls: 0,
        max_occupancy: 0,
    };
    let mut pending: Option<TraceRecord> = None;
    let mut source_done = false;
    while !source_done || pending.is_some() || !ring.is_empty() {
        span("replay.refill", || loop {
            let rec = match pending.take() {
                Some(r) => r,
                None => match reader.next_record().expect("read a trace record") {
                    Some(r) => {
                        out.records += 1;
                        r
                    }
                    None => {
                        source_done = true;
                        break;
                    }
                },
            };
            if let Err(bounced) = ring.push(rec) {
                pending = Some(bounced);
                break;
            }
        });
        let mut last = dep.now();
        span("core.inject", || {
            for _ in 0..cfg.batch {
                let Some(rec) = ring.pop() else { break };
                let at = SimTime(cfg.start.0 + (rec.time_ns - base)).max(dep.now());
                let sw = usize::from(rec.ingress) % SWITCHES;
                let from = (rec.flow_hash() as usize) % n_hosts;
                dep.inject(at, sw, from, rec.to_packet());
                out.injected += 1;
                last = last.max(at);
            }
        });
        span("core.run_until", || dep.run_until(last));
    }
    out.stalls = ring.stalls();
    out.max_occupancy = ring.max_occupancy() as u64;
    dep.note_ingest(out.injected, out.stalls);
    out
}

/// Sum the protocol and pipeline counters of every switch into `c`.
/// Returns the deployment's simulated write latency, p50 and p99 in ns,
/// over the samples of all its switches.
fn read_back(dep: &Deployment, c: &mut Counts) -> (u64, u64) {
    let mut latency = Histogram::new();
    for i in 0..dep.switch_ids().len() {
        let sw = dep.switch(i).stats();
        c.pipeline_packets += sw.pipeline_packets;
        c.punts += sw.punts;
        c.recircs += sw.recircs;
        let m = dep.metrics(i);
        c.mirror_packets += m.dp.mirror_packets;
        c.sync_packets += m.dp.sync_packets;
        c.merge_entries += m.dp.merge_entries;
        c.merge_applied += m.dp.merge_applied;
        c.nf_reads += m.dp.nf_reads;
        c.reads_forwarded += m.dp.reads_forwarded;
        c.cp_jobs += m.cp.jobs_started;
        c.cp_write_sends += m.cp.write_sends;
        c.cp_retries += m.cp.retries;
        c.cp_jobs_shed += m.cp.jobs_shed;
        c.cp_jobs_failed += m.cp.jobs_failed;
        latency.merge(&m.cp.write_latency);
    }
    c.delivered_frames += dep.sim.stats().delivered_total().packets;
    c.delivered_bytes += dep.sim.stats().delivered_total().bytes;
    c.dropped_frames += dropped_frames(&dep.sim);
    c.peak_queue = c.peak_queue.max(dep.sim.peak_queue_depth() as u64);
    (latency.percentile_ns(0.50), latency.percentile_ns(0.99))
}

fn replay_rep(kind: ReplayKind, cfg: &RepCfg<'_>) -> Rep {
    let rep_start = Instant::now();
    let synth = synth_cfg(kind, cfg.sizes);
    let stem = match kind {
        ReplayKind::Ewo => "ewo_replay",
        ReplayKind::Sro => "sro_conn",
    };
    let trace = span("replay.synth", || {
        synth_file(&synth, cfg.seed, cfg.out_dir, stem)
    });
    let mut dep = span("core.build", || {
        replay_deployment(kind, subseed(cfg.seed, 1))
    });
    span("core.settle", || dep.settle());
    let mut reader = span("replay.open", || open_trace(&trace.path));
    let replay_cfg = ReplayConfig {
        start: dep.now() + SimDuration::millis(1),
        ..ReplayConfig::default()
    };
    let events_before = dep.sim.events_processed();
    let mut rep = Rep::new(trace.records, trace.records, trace.records);
    rep.setup_ns = ns(rep_start);

    let timed = Timed::start(cfg);
    let ingest = if cfg.traced {
        replay_from_pieces(&mut dep, &mut reader, &replay_cfg)
    } else {
        let s = span("replay.replay_trace", || {
            replay_trace(&mut dep, &mut reader, &replay_cfg).expect("replay the trace")
        });
        Ingest {
            records: s.records,
            injected: s.injected,
            stalls: s.stalls,
            max_occupancy: s.max_occupancy as u64,
        }
    };
    let drain = match kind {
        ReplayKind::Ewo => SimDuration::millis(20),
        ReplayKind::Sro => SimDuration::millis(50),
    };
    span("core.run_for", || dep.run_for(drain));
    timed.stop(&mut rep);

    let mut counts = Counts {
        events: dep.sim.events_processed() - events_before,
        ring_stalls: ingest.stalls,
        ring_max_occupancy: ingest.max_occupancy,
        ..Counts::default()
    };
    (counts.sim_write_p50_ns, counts.sim_write_p99_ns) =
        span("core.metrics", || read_back(&dep, &mut counts));

    let mut failed =
        ingest.records.abs_diff(ingest.injected) + trace.records.abs_diff(ingest.records);
    failed += span("core.verify", || match kind {
        ReplayKind::Ewo => verify_counters(&dep, &trace.path, cfg.sabotage),
        ReplayKind::Sro => {
            verify_conn_table(&dep, &trace.path, cfg.sabotage)
                + counts.cp_jobs_shed
                + counts.cp_jobs_failed
        }
    });
    rep.failed = failed.min(trace.records);
    rep.digest = span("replay.digest", || replay_digest(&dep, DIGEST_KEYS));
    rep.counts = counts;
    rep
}

/// `ewo_replay`: after the drain every switch's counter for every key
/// equals the number of trace records with that key, counted here from
/// the trace file itself.
fn verify_counters(dep: &Deployment, trace: &Path, sabotage: bool) -> u64 {
    let mut expected = vec![0u64; EWO_KEYS as usize];
    let mut reader = open_trace(trace);
    // Self-test: the first record is withheld from the reference.
    let mut withhold = sabotage;
    while let Some(rec) = reader.next_record().expect("read a trace record") {
        if !std::mem::take(&mut withhold) {
            expected[ewo_key(rec.dst_ip) as usize] += 1;
        }
    }
    let mut wrong = 0;
    for (key, &want) in expected.iter().enumerate() {
        wrong += (0..SWITCHES)
            .map(|sw| dep.peek(sw, 0, key as u32).abs_diff(want))
            .max()
            .unwrap_or(0);
    }
    wrong
}

/// `sro_conn`: every key some SYN of the trace maps to holds the same
/// non-zero backend on all three switches, and every packet reached a
/// host.
fn verify_conn_table(dep: &Deployment, trace: &Path, sabotage: bool) -> u64 {
    let mut written = vec![false; SRO_KEYS as usize];
    let mut records = 0u64;
    let mut reader = open_trace(trace);
    while let Some(rec) = reader.next_record().expect("read a trace record") {
        records += 1;
        let pkt = rec.to_packet();
        if pkt.tcp_flags.syn {
            written[conn_key(&pkt.flow) as usize] = true;
        }
    }
    // Self-test: the first value compared is flipped on this side.
    let mut flip = sabotage;
    let mut wrong = 0u64;
    for key in (0..SRO_KEYS).filter(|&k| written[k as usize]) {
        let head = dep.peek(0, 0, key);
        let mid = dep.peek(1, 0, key) ^ u64::from(std::mem::take(&mut flip));
        let tail = dep.peek(2, 0, key);
        wrong += u64::from(head == 0 || head != mid || head != tail);
    }
    let at_hosts: u64 = (0..dep.host_ids().len())
        .map(|h| dep.recording(h).borrow().len() as u64)
        .sum();
    wrong + records.abs_diff(at_hosts)
}

// ---------------------------------------------------------------------
// fault_sweep: the verification regime
// ---------------------------------------------------------------------

const SWEEP_KEYS: u32 = 16;
const SWEEP_HORIZON_MS: u64 = 60;
const SWEEP_EPISODES: usize = 4;
const OBSERVER_CAPACITY: usize = 1 << 17;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepClass {
    Sro,
    Ero,
    Ewo,
}

/// One register write per packet (SRO and ERO runs).
struct WriteNf;

impl NfApp for WriteNf {
    fn process(&mut self, pkt: &DataPacket, _: NodeId, st: &mut dyn SharedState) -> NfDecision {
        st.write(0, u32::from(pkt.flow.dst_port), u64::from(pkt.payload_len));
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

/// One counter add per packet (EWO runs).
struct PortCountNf;

impl NfApp for PortCountNf {
    fn process(&mut self, pkt: &DataPacket, _: NodeId, st: &mut dyn SharedState) -> NfDecision {
        st.add(0, u32::from(pkt.flow.dst_port), 1);
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

fn write_packet(i: u64) -> DataPacket {
    let flow = FlowKey::udp(
        Ipv4Addr::new(10, 0, 0, 1),
        999,
        Ipv4Addr::new(10, 0, 0, 2),
        (i % u64::from(SWEEP_KEYS)) as u16,
    );
    DataPacket::udp(flow, 0, 100 + (i % 400) as u16)
}

fn sweep_deployment(class: SweepClass, seed: u64) -> Deployment {
    let builder = DeploymentBuilder::new(SWITCHES)
        .hosts(1)
        .seed(seed)
        .ctrl_replicas(3);
    match class {
        SweepClass::Sro => builder
            .register(RegisterSpec::sro(0, "t", SWEEP_KEYS))
            .build(|_| Box::new(WriteNf)),
        SweepClass::Ero => builder
            .register(RegisterSpec::ero(0, "t", SWEEP_KEYS))
            .build(|_| Box::new(WriteNf)),
        SweepClass::Ewo => builder
            .register(RegisterSpec::ewo_counter(0, "c", SWEEP_KEYS))
            .build(|_| Box::new(PortCountNf)),
    }
}

/// What the runs of one sweep add up to.
struct Sweep {
    rep: Rep,
    /// Per run: simulated write latency p50 and p99, ns.
    write_p50_ns: Vec<u64>,
    write_p99_ns: Vec<u64>,
    digest: Fnv,
}

impl Sweep {
    fn new(runs: u64, writes_per_run: u64) -> Sweep {
        Sweep {
            rep: Rep::new(runs * writes_per_run, runs * writes_per_run, runs),
            write_p50_ns: Vec::with_capacity(runs as usize),
            write_p99_ns: Vec::with_capacity(runs as usize),
            digest: Fnv::new(),
        }
    }
}

fn median_of(mut values: Vec<u64>) -> u64 {
    values.sort_unstable();
    values.get(values.len() / 2).copied().unwrap_or(0)
}

/// One seeded run with everything armed. Adds its times and counts to
/// the sweep's; a run with an oracle violation or a consensus error is a
/// failed operation.
fn sweep_run(
    cfg: &RepCfg<'_>,
    class: SweepClass,
    seed: u64,
    observer: Option<ObserverHandle>,
    sweep: &mut Sweep,
) {
    let rep = &mut sweep.rep;
    let setup = Instant::now();
    let mut dep = span("core.build", || sweep_deployment(class, seed));
    span("simnet.set_wire_check", || dep.sim.set_wire_check(true));
    let spans = span("core.attach_tracing", || {
        dep.attach_tracing(OBSERVER_CAPACITY)
    });
    let journal = span("core.attach_journal", || {
        dep.attach_journal(OBSERVER_CAPACITY)
    });
    if let Some(obs) = observer {
        dep.add_observer(obs);
    }
    span("core.settle", || dep.settle());
    let t0 = dep.now();
    let horizon = SimDuration::millis(SWEEP_HORIZON_MS);
    let schedule = span("simnet.fault_gen", || {
        let nodes = dep.switch_ids().to_vec();
        let ctrls = dep.controller_ids().to_vec();
        FaultGen::new(seed).generate_with_controllers(
            &nodes,
            &ctrls,
            &dep.fault_links(),
            horizon,
            SWEEP_EPISODES,
        )
    });
    span("core.schedule_faults", || {
        dep.schedule_faults(t0, &schedule)
    });
    let oracle_cfg = OracleConfig::new(t0 + horizon);
    let mut suite = span("core.oracle_attach", || {
        let mut suite = OracleSuite::attach(&mut dep, oracle_cfg);
        suite.attach_journal(journal.clone());
        suite
    });
    let end = t0 + horizon + oracle_cfg.convergence_grace + SimDuration::millis(100);
    let events_before = dep.sim.events_processed();
    rep.setup_ns += ns(setup);

    let timed = Timed::start(cfg);
    let writes = cfg.sizes.sweep_writes;
    span("core.inject", || {
        let step = horizon.as_nanos() / writes.max(1);
        for i in 0..writes {
            let at = t0 + SimDuration::nanos(i * step);
            dep.inject(at, (i % SWITCHES as u64) as usize, 0, write_packet(i));
        }
    });
    let verdict = span("core.oracle_run", || suite.run(&mut dep, end));
    timed.stop(rep);

    span("core.metrics", || {
        let c = &mut rep.counts;
        c.events += dep.sim.events_processed() - events_before;
        c.fault_events += schedule.len() as u64;
        c.consensus_msgs += dep.controller().consensus_msgs();
        c.leader_changes += dep.controller().leader_changes();
        c.observer_records += (spans.borrow().events().len() + journal.borrow().len()) as u64;
        let (p50, p99) = read_back(&dep, c);
        sweep.write_p50_ns.push(p50);
        sweep.write_p99_ns.push(p99);
    });
    let clean = verdict.is_ok() && dep.controller().consensus_errors().is_empty();
    rep.counts.oracle_violations += u64::from(!clean);
    rep.failed += u64::from(!clean);
    sweep.digest.mix(replay_digest(&dep, u64::from(SWEEP_KEYS)));
}

fn sweep_rep(cfg: &RepCfg<'_>) -> Rep {
    let mut sweep = Sweep::new(3 * cfg.sizes.sweep_seeds, cfg.sizes.sweep_writes);
    for (lane, class) in [SweepClass::Sro, SweepClass::Ero, SweepClass::Ewo]
        .into_iter()
        .enumerate()
    {
        for i in 0..cfg.sizes.sweep_seeds {
            let seed = subseed(cfg.seed, 100 * (lane as u64 + 1) + i);
            sweep_run(cfg, class, seed, None, &mut sweep);
        }
    }
    let mut rep = sweep.rep;
    // Self-test: one run reported as violated although none was.
    rep.failed += u64::from(cfg.sabotage);
    // Over several deployments, the median of their percentiles.
    rep.counts.sim_write_p50_ns = median_of(sweep.write_p50_ns);
    rep.counts.sim_write_p99_ns = median_of(sweep.write_p99_ns);
    rep.digest = sweep.digest.0;
    rep
}

// ---------------------------------------------------------------------
// The ladder: the same traffic through one more layer per rung
// ---------------------------------------------------------------------

/// The ladder's traffic: the first records of the `ewo_replay` trace,
/// slowed to `sro_conn`'s flow rate so that the SRO rung stays inside
/// the control plane's capacity. Every rung gets this same schedule.
const LADDER_SPEEDUP: f64 = EWO_FLOW_GAP_NS as f64 / SRO_FLOW_GAP_NS as f64;
const LADDER_DRAIN_MS: u64 = 50;

/// Switch stand-in of rungs r0 and r1: forwards data packets to a host.
struct Forwarder;

impl Node for Forwarder {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketBody::Data(_) = pkt.body {
            ctx.send(NodeId(HOST_BASE), pkt.body);
        }
    }
}

/// Pass-through pipeline program of rung r2.
struct PassProgram;

impl DataPlaneProgram for PassProgram {
    fn on_packet(&mut self, pkt: Packet, _dp: &mut DpView<'_>, eff: &mut Effects) {
        if let PacketBody::Data(_) = pkt.body {
            eff.forward(NodeId(HOST_BASE), pkt.body);
        }
    }
}

/// The deployment's shape without the deployment: three switch
/// stand-ins in a full mesh, two recording hosts linked to each.
fn bare_fabric(seed: u64, switch: impl Fn() -> Box<dyn NodeObj>) -> Simulator {
    let mut sim = Simulator::new(seed);
    let switches: Vec<NodeId> = (0..SWITCHES as u16).map(NodeId).collect();
    for &s in &switches {
        sim.add_node(s, switch());
    }
    sim.topology_mut()
        .full_mesh(&switches, LinkParams::datacenter());
    for h in 0..2 {
        let (host, _log) = RecorderNode::new();
        sim.add_node(NodeId(HOST_BASE + h), Box::new(host));
        for &s in &switches {
            sim.topology_mut()
                .connect(NodeId(HOST_BASE + h), s, LinkParams::datacenter());
        }
    }
    sim
}

/// Feed `records` in `replay_trace`'s batches of 512 and with its time
/// map, then drain. A deployment is fed through its `sim` field with the
/// frame `Deployment::inject` would build.
fn feed(sim: &mut Simulator, records: &[TraceRecord]) {
    let start = sim.now() + SimDuration::millis(1);
    let base = records.first().map_or(0, |r| r.time_ns);
    for batch in records.chunks(512) {
        let mut last = sim.now();
        for rec in batch {
            let rel = (rec.time_ns - base) as f64 / LADDER_SPEEDUP;
            let at = SimTime(start.0 + rel as u64).max(sim.now());
            let from = NodeId(HOST_BASE + (rec.flow_hash() % 2) as u16);
            let to = NodeId(rec.ingress % SWITCHES as u16);
            sim.inject(at, Packet::data(from, to, rec.to_packet()));
            last = last.max(at);
        }
        sim.run_until(last);
    }
    sim.run_for(SimDuration::millis(LADDER_DRAIN_MS));
}

/// Time `drive` as the rung `name` over `n` offered packets: host ns
/// and simulator events per packet.
fn rung<T>(
    out: &mut Metrics,
    name: &'static str,
    n: usize,
    target: &mut T,
    events_of: impl Fn(&T) -> u64,
    drive: impl FnOnce(&mut T),
) {
    let events_before = events_of(target);
    let timed = Instant::now();
    span(name, || drive(target));
    let wall = ns(timed);
    let events = events_of(target) - events_before;
    out.timed(
        format!("{name}_ns_per_pkt"),
        "ns/pkt",
        wall as f64 / n as f64,
    );
    out.exact(
        format!("{name}_events_per_pkt"),
        "ratio",
        events as f64 / n as f64,
    );
}

/// Run every rung over `records`.
pub fn ladder(records: &[TraceRecord], seed: u64, out: &mut Metrics) {
    let n = records.len();
    let bare = |s: &Simulator| s.events_processed();
    let dep_sim = |d: &Deployment| d.sim.events_processed();
    let settled = |kind| {
        let mut dep = replay_deployment(kind, seed);
        dep.settle();
        dep
    };

    let mut r0 = bare_fabric(seed, || Box::new(Forwarder));
    rung(out, "ladder.r0_simnet", n, &mut r0, bare, |s| {
        feed(s, records)
    });
    drop(r0);

    let mut r1 = bare_fabric(seed, || Box::new(Forwarder));
    r1.set_wire_check(true);
    rung(out, "ladder.r1_wire", n, &mut r1, bare, |s| {
        feed(s, records)
    });
    drop(r1);

    let mut r2 = bare_fabric(seed, || {
        let dp = DataPlane::standard();
        Box::new(Switch::new(
            SwitchConfig::default(),
            dp,
            PassProgram,
            NullControlApp,
        ))
    });
    rung(out, "ladder.r2_pisa", n, &mut r2, bare, |s| {
        feed(s, records)
    });
    drop(r2);

    let mut r3e = settled(ReplayKind::Ewo);
    rung(out, "ladder.r3_core_ewo", n, &mut r3e, dep_sim, |d| {
        feed(&mut d.sim, records)
    });
    drop(r3e);

    let mut r3s = settled(ReplayKind::Sro);
    rung(out, "ladder.r3_core_sro", n, &mut r3s, dep_sim, |d| {
        feed(&mut d.sim, records)
    });
    drop(r3s);

    let mut r4 = settled(ReplayKind::Ewo);
    let mut suite = OracleSuite::attach(&mut r4, OracleConfig::new(SimTime(u64::MAX / 2)));
    let journal = r4.attach_journal(OBSERVER_CAPACITY);
    suite.attach_journal(journal);
    let _spans = r4.attach_tracing(OBSERVER_CAPACITY);
    let _capture = r4.attach_capture(OBSERVER_CAPACITY);
    rung(out, "ladder.r4_observers", n, &mut r4, dep_sim, |d| {
        feed(&mut d.sim, records);
        assert!(suite.poll(d).is_none(), "oracle violation on the ladder");
    });
    drop(r4);

    let bytes = to_swtrace_bytes(records, TraceMeta::default()).expect("serialize the slice");
    let mut reader = TraceReader::new(std::io::Cursor::new(bytes)).expect("parse the slice");
    let mut r5 = settled(ReplayKind::Ewo);
    rung(out, "ladder.r5_replay", n, &mut r5, dep_sim, |d| {
        let cfg = ReplayConfig {
            start: d.now() + SimDuration::millis(1),
            speedup: LADDER_SPEEDUP,
            ..ReplayConfig::default()
        };
        replay_trace(d, &mut reader, &cfg).expect("replay the slice");
        d.run_for(SimDuration::millis(LADDER_DRAIN_MS));
    });
}

// ---------------------------------------------------------------------
// Kernel loops: one layer's hot call in isolation
// ---------------------------------------------------------------------

/// Time `f` as the span `name`; nanoseconds per one of `n` items.
fn per_item(name: &'static str, n: u64, f: impl FnOnce()) -> f64 {
    let timed = Instant::now();
    span(name, f);
    ns(timed) as f64 / n.max(1) as f64
}

/// The `ewo_replay` trace for the ladder and the `replay` kernels:
/// synthesis, a parse pass over the file, a ring pass. Returns the first
/// `ladder_records` records.
pub fn replay_kernels(cfg: &RepCfg<'_>, out: &mut Metrics) -> Vec<TraceRecord> {
    let synth = synth_cfg(ReplayKind::Ewo, cfg.sizes);
    let timed = Instant::now();
    let trace = span("replay.synth", || {
        synth_file(&synth, cfg.seed, cfg.out_dir, "kernels")
    });
    out.timed(
        "replay.synth_ns_per_record",
        "ns",
        ns(timed) as f64 / trace.records as f64,
    );
    out.exact(
        "replay.trace_bytes_per_record",
        "B",
        trace.bytes as f64 / trace.records as f64,
    );

    let mut head = Vec::with_capacity(cfg.sizes.ladder_records);
    let mut reader = open_trace(&trace.path);
    let parse = per_item("replay.parse", trace.records, || {
        while let Some(rec) = reader.next_record().expect("read a trace record") {
            if head.len() < head.capacity() {
                head.push(rec);
            }
            black_box(&rec);
        }
    });
    out.timed("replay.parse_ns_per_record", "ns", parse);

    let mut ring = FlowRing::new(ReplayConfig::default().ring_capacity);
    let ring_ns = per_item("replay.ring", head.len() as u64, || {
        for batch in head.chunks(ReplayConfig::default().batch) {
            for &rec in batch {
                ring.push(rec).expect("a batch fits the ring");
            }
            while let Some(rec) = ring.pop() {
                black_box(rec);
            }
        }
    });
    out.timed("replay.ring_ns_per_record", "ns", ring_ns);
    head
}

/// Clones delivered frames until it holds `cap` of them.
struct Corpus {
    frames: Vec<Packet>,
    cap: usize,
}

impl NetObserver for Corpus {
    fn on_net_event(&mut self, _now: SimTime, ev: &NetEvent<'_>) {
        if let NetEvent::Delivered { pkt, .. } = ev {
            if self.frames.len() < self.cap {
                self.frames.push((*pkt).clone());
            }
        }
    }
}

/// `wire`: length, encode and decode over frames the program itself
/// delivered, half from an `sro_conn` slice and half from `fault_sweep`
/// runs, collected through the `NetObserver` hook.
pub fn wire_kernels(cfg: &RepCfg<'_>, records: &[TraceRecord], out: &mut Metrics) {
    let half = cfg.sizes.corpus_frames / 2;
    let corpus = Rc::new(RefCell::new(Corpus {
        frames: Vec::with_capacity(2 * half),
        cap: half,
    }));
    span("wire.corpus", || {
        let mut dep = replay_deployment(ReplayKind::Sro, cfg.seed);
        dep.add_observer(corpus.clone());
        dep.settle();
        feed(&mut dep.sim, &records[..records.len().min(half / 2)]);
        drop(dep);
        corpus.borrow_mut().cap = 2 * half;
        let mut scratch = Sweep::new(0, 0);
        let mut lane = 0;
        while corpus.borrow().frames.len() < 2 * half && lane < 64 {
            let class = [SweepClass::Sro, SweepClass::Ero, SweepClass::Ewo][lane % 3];
            let seed = subseed(cfg.seed, 900 + lane as u64);
            let obs: ObserverHandle = corpus.clone();
            sweep_run(cfg, class, seed, Some(obs), &mut scratch);
            lane += 1;
        }
    });
    let frames = std::mem::take(&mut corpus.borrow_mut().frames);
    let n = frames.len() as u64;
    // Several passes, so that each loop runs for milliseconds.
    let passes = (cfg.sizes.kernel_iters / n.max(1)).max(1);

    let mut total = 0usize;
    let len = per_item("wire.wire_len", n * passes, || {
        for _ in 0..passes {
            for f in &frames {
                total += black_box(f).wire_len();
            }
        }
    });
    out.timed("wire.len_ns_per_msg", "ns", len);
    out.exact(
        "wire.corpus_bytes_per_msg",
        "B",
        total as f64 / (n * passes).max(1) as f64,
    );

    let mut encoded = Vec::with_capacity(frames.len());
    let encode = per_item("wire.to_bytes", n * passes, || {
        for pass in 0..passes {
            for f in &frames {
                let bytes = black_box(f).to_bytes();
                if pass == 0 {
                    encoded.push(bytes);
                } else {
                    black_box(bytes);
                }
            }
        }
    });
    out.timed("wire.encode_ns_per_msg", "ns", encode);

    let decode = per_item("wire.from_bytes", n * passes, || {
        for _ in 0..passes {
            for bytes in &encoded {
                black_box(Packet::from_bytes(black_box(bytes)).expect("decode an encoded frame"));
            }
        }
    });
    out.timed("wire.decode_ns_per_msg", "ns", decode);
}

/// A cheap index stream that does not repeat within a kernel loop.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// `pisa`: the three state kernels the protocol paths lean on.
pub fn pisa_kernels(cfg: &RepCfg<'_>, out: &mut Metrics) {
    const CELLS: usize = 65_536;
    let n = cfg.sizes.kernel_iters;
    let mut dp = DataPlane::standard();
    let reg = dp.alloc_register("k_reg", CELLS).expect("kernel register");
    let pair = dp
        .alloc_pair_register("k_pair", CELLS)
        .expect("kernel pairs");
    let table = dp.alloc_table("k_table", CELLS).expect("kernel table");
    for key in 0..CELLS as u64 / 2 {
        dp.table_insert(table, key * 2, key)
            .expect("kernel table entry");
    }
    let mut state = cfg.seed;

    let rmw = per_item("pisa.reg_add", n, || {
        let cells = dp.reg_mut(reg);
        for _ in 0..n {
            black_box(cells.add(lcg(&mut state) as usize, 1));
        }
    });
    out.timed("pisa.reg_rmw_ns", "ns", rmw);

    let merge = per_item("pisa.pair_merge_max", n, || {
        let cells = dp.pair_mut(pair);
        for i in 0..n {
            let idx = lcg(&mut state);
            black_box(cells.merge_max(idx as usize, i, idx & 0xff));
        }
    });
    out.timed("pisa.pair_merge_ns", "ns", merge);

    let lookup = per_item("pisa.table_lookup", n, || {
        let entries = dp.table_mut(table);
        for _ in 0..n {
            black_box(entries.lookup(lcg(&mut state) % CELLS as u64));
        }
    });
    out.timed("pisa.table_lookup_ns", "ns", lookup);
}

/// `nf`: the draws the trace synthesizer is built from.
pub fn nf_kernels(cfg: &RepCfg<'_>, out: &mut Metrics) {
    let n = cfg.sizes.kernel_iters;
    let zipf = Zipf::new(256, 1.1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let draw = per_item("nf.zipf_sample", n, || {
        for _ in 0..n {
            black_box(zipf.sample(&mut rng));
        }
    });
    out.timed("nf.zipf_ns_per_draw", "ns", draw);

    // About n/10 packets: 5 per flow on average.
    let flows = (n / 50).max(100);
    let gen_cfg = FlowGenConfig {
        flow_rate: 1e6,
        duration: SimDuration::micros(flows),
        ..FlowGenConfig::default()
    };
    let router = EcmpRouter::new(SWITCHES, RoutingMode::EcmpStable);
    let mut packets = 0;
    let timed = Instant::now();
    span("nf.flowgen", || {
        packets = black_box(FlowGen::new(gen_cfg, cfg.seed).generate(&router)).len();
    });
    out.timed(
        "nf.flowgen_ns_per_pkt",
        "ns",
        ns(timed) as f64 / packets.max(1) as f64,
    );
}
