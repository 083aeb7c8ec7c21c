//! Shared sharded leaf-spine scenario for the parallel-engine
//! experiments: the E20 scaling fabric and the verify-gate smoke drive
//! the same builder so their numbers are comparable.
//!
//! The workload is an NF-flavored sketch: every leaf maintains a 4-row
//! count-min array over Zipf-distributed flow keys and reports to a
//! rotating peer leaf every few packets, so compute cost scales with
//! traffic and a constant fraction of frames cross shard boundaries
//! through the spine relays.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use swishmem_nf::workload::Zipf;
use swishmem_simnet::{
    Ctx, DropReason, FaultGen, LinkParams, NetEvent, NetObserver, Node, RelayNode, ShardedEngine,
    SimDuration, SimTime,
};
use swishmem_wire::{DataPacket, FlowKey, NodeId, Packet, PacketBody};

/// First spine node id (leaves are `0..leaves`).
pub const SPINE_BASE: u16 = 500;

/// A leaf-spine fabric shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafSpineSpec {
    /// Leaf (NF) switch count.
    pub leaves: u16,
    /// Spine (relay) switch count.
    pub spines: u16,
}

impl LeafSpineSpec {
    /// Parse a `leaf-spine:<leaves>x<spines>` topology string.
    pub fn parse(s: &str) -> Option<LeafSpineSpec> {
        let dims = s.strip_prefix("leaf-spine:")?;
        let (l, sp) = dims.split_once('x')?;
        let leaves: u16 = l.parse().ok()?;
        let spines: u16 = sp.parse().ok()?;
        if leaves < 2 || spines == 0 || leaves > SPINE_BASE {
            return None;
        }
        Some(LeafSpineSpec { leaves, spines })
    }

    /// Every leaf-to-spine duplex link (the fault-injection surface).
    pub fn links(&self) -> Vec<(NodeId, NodeId)> {
        (0..self.leaves)
            .flat_map(|l| (0..self.spines).map(move |s| (NodeId(l), NodeId(SPINE_BASE + s))))
            .collect()
    }

    /// All node ids, leaves first.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = (0..self.leaves).map(NodeId).collect();
        v.extend((0..self.spines).map(|s| NodeId(SPINE_BASE + s)));
        v
    }
}

const ROWS: usize = 4;
const WIDTH: usize = 2048;

fn mix(key: u64, row: u64) -> usize {
    let mut x = key ^ row.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    (x as usize) % WIDTH
}

/// The leaf NF: a count-min sketch over flow keys, reporting to a
/// rotating peer leaf every `REPORT_EVERY` packets. Deterministic and
/// RNG-free, so its final state is comparable across engine modes.
pub struct SketchNf {
    rows: Vec<u64>,
    seen: u64,
    leaves: u16,
}

const REPORT_EVERY: u64 = 4;

impl SketchNf {
    fn new(leaves: u16) -> SketchNf {
        SketchNf {
            rows: vec![0; ROWS * WIDTH],
            seen: 0,
            leaves,
        }
    }

    /// FNV-1a over the sketch contents and packet count.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut f = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        f(self.seen);
        for &c in &self.rows {
            f(c);
        }
        h
    }
}

impl Node for SketchNf {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketBody::Data(d) = pkt.body {
            let key = u64::from(d.flow.dst_port) << 16 | u64::from(d.flow.src_port);
            for r in 0..ROWS as u64 {
                self.rows[r as usize * WIDTH + mix(key, r)] += 1;
            }
            self.seen += 1;
            if self.seen.is_multiple_of(REPORT_EVERY) {
                let me = ctx.self_id().0;
                let peer = (me as u64 + self.seen / REPORT_EVERY) % u64::from(self.leaves);
                if peer as u16 != me {
                    let mut report = d;
                    report.flow_seq = self.seen as u32;
                    ctx.send(NodeId(peer as u16), PacketBody::Data(report));
                }
            }
        }
    }
}

/// Online fault-plane oracle over the observer stream: no packet may be
/// delivered to a node between its failure and recovery, recoveries must
/// match failures, and restores must match degrades.
#[derive(Default)]
pub struct ShardOracle {
    down: Vec<u16>,
    degraded: Vec<(u16, u16)>,
    /// Oracle violations seen (0 on a healthy run).
    pub violations: u64,
    /// Fault-plane transitions observed.
    pub transitions: u64,
}

impl NetObserver for ShardOracle {
    fn on_net_event(&mut self, _now: SimTime, ev: &NetEvent<'_>) {
        match *ev {
            NetEvent::Delivered { to, .. } => {
                if self.down.contains(&to.0) {
                    self.violations += 1;
                }
            }
            NetEvent::NodeFailed { node } => {
                self.transitions += 1;
                if self.down.contains(&node.0) {
                    self.violations += 1;
                } else {
                    self.down.push(node.0);
                }
            }
            NetEvent::NodeRecovered { node } => {
                self.transitions += 1;
                match self.down.iter().position(|&n| n == node.0) {
                    Some(i) => {
                        self.down.swap_remove(i);
                    }
                    None => self.violations += 1,
                }
            }
            NetEvent::LinkDegraded { a, b } => {
                self.transitions += 1;
                self.degraded.push((a.0, b.0));
            }
            NetEvent::LinkRestored { a, b } => {
                self.transitions += 1;
                match self.degraded.iter().position(|&p| p == (a.0, b.0)) {
                    Some(i) => {
                        self.degraded.swap_remove(i);
                    }
                    None => self.violations += 1,
                }
            }
            NetEvent::LinkChanged { .. } => {
                self.transitions += 1;
            }
            // Outside the default families, so never delivered here.
            NetEvent::Injected { .. } | NetEvent::Span(_) | NetEvent::Journal(_) => {}
        }
    }
}

/// One sharded leaf-spine run, fully parameterized.
#[derive(Debug, Clone, Copy)]
pub struct ShardRunConfig {
    /// Fabric shape.
    pub spec: LeafSpineSpec,
    /// Shard count (1 = the global-RNG regime, bit-exact with `Simulator`).
    pub shards: usize,
    /// Worker-thread cap for the windowed loop.
    pub workers: usize,
    /// Engine seed.
    pub seed: u64,
    /// Externally injected packets.
    pub injections: u64,
    /// Zipf key-space size for flow keys.
    pub zipf_keys: usize,
    /// Zipf skew.
    pub zipf_alpha: f64,
    /// Fault episodes from `FaultGen` (0 = pristine run).
    pub fault_episodes: usize,
    /// Lossless links (no RNG draws in transmit → output identical
    /// across ALL shard counts including 1).
    pub lossless: bool,
}

impl ShardRunConfig {
    /// A pristine lossless scaling run (the E20 default).
    pub fn scaling(spec: LeafSpineSpec, shards: usize, injections: u64) -> ShardRunConfig {
        ShardRunConfig {
            spec,
            shards,
            workers: shards,
            seed: 20,
            injections,
            zipf_keys: 4096,
            zipf_alpha: 1.1,
            fault_episodes: 0,
            lossless: true,
        }
    }
}

/// Outcome of a sharded leaf-spine run.
#[derive(Debug, Clone)]
pub struct ShardRunOutcome {
    /// Logical events processed.
    pub events: u64,
    /// Wall-clock for the run-to-quiescence drive.
    pub wall_ns: u64,
    /// Critical-path compute time (Σ over windows of the slowest shard).
    pub crit_ns: u64,
    /// Peak per-shard queue depth.
    pub peak_queue_depth: usize,
    /// Delivered packets.
    pub delivered_pkts: u64,
    /// Dropped packets (all causes).
    pub dropped_pkts: u64,
    /// FNV digest over every leaf's final sketch state.
    pub digest: u64,
    /// Final simulated time, ns.
    pub end_ns: u64,
    /// Fault-oracle violations (0 unless `fault_episodes > 0` went wrong).
    pub oracle_violations: u64,
    /// Fault-plane transitions the oracle observed.
    pub oracle_transitions: u64,
}

impl ShardRunOutcome {
    /// Wall-clock throughput.
    pub fn wall_events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Critical-path throughput: the hardware-independent bound a
    /// one-core-per-shard machine converges to (barrier costs aside).
    pub fn crit_events_per_sec(&self) -> f64 {
        self.events as f64 / (self.crit_ns.max(1) as f64 / 1e9)
    }
}

/// Build and drive one sharded leaf-spine run to quiescence.
pub fn run_leaf_spine(cfg: &ShardRunConfig) -> ShardRunOutcome {
    run_leaf_spine_impl(cfg, None)
}

/// Same fabric and drive, but the injection stream is supplied by the
/// caller — a replayed `.swtrace` instead of the synthetic Zipf
/// workload. `cfg.injections` is ignored; the stream must be
/// time-sorted. Digest invariance across shard counts holds exactly as
/// for the synthetic stream (lossless links ⇒ no RNG on the data path).
pub fn run_leaf_spine_injected(
    cfg: &ShardRunConfig,
    stream: &[(SimTime, Packet)],
) -> ShardRunOutcome {
    run_leaf_spine_impl(cfg, Some(stream))
}

/// Map a `.swtrace` record stream onto leaf-spine injections: the
/// record's ingress slot picks the source leaf, its flow hash a distinct
/// destination leaf, and the record timestamp is used unchanged — the
/// injection stream (and therefore the run digest) is a pure function of
/// the trace bytes.
pub fn trace_to_leaf_spine(
    spec: &LeafSpineSpec,
    records: &[swishmem_replay::TraceRecord],
) -> Vec<(SimTime, Packet)> {
    debug_assert!(spec.leaves >= 2, "need two leaves to carry traffic");
    let leaves = u64::from(spec.leaves);
    records
        .iter()
        .map(|r| {
            let src = (u64::from(r.ingress) % leaves) as u16;
            let mut dst = (r.flow_hash() % leaves) as u16;
            if dst == src {
                dst = (dst + 1) % spec.leaves;
            }
            (
                SimTime(r.time_ns),
                Packet::data(NodeId(src), NodeId(dst), r.to_packet()),
            )
        })
        .collect()
}

fn run_leaf_spine_impl(
    cfg: &ShardRunConfig,
    stream: Option<&[(SimTime, Packet)]>,
) -> ShardRunOutcome {
    let spec = cfg.spec;
    let mut sim = ShardedEngine::new(cfg.seed, cfg.shards);
    sim.set_workers(cfg.workers);
    let oracle = Rc::new(RefCell::new(ShardOracle::default()));
    if cfg.fault_episodes > 0 {
        sim.add_observer(oracle.clone());
    }

    for l in 0..spec.leaves {
        sim.add_node(NodeId(l), Box::new(SketchNf::new(spec.leaves)));
    }
    for s in 0..spec.spines {
        sim.add_node(NodeId(SPINE_BASE + s), Box::new(RelayNode));
    }

    let params = if cfg.lossless {
        LinkParams::datacenter().with_latency(SimDuration::micros(5))
    } else {
        LinkParams::lossy(0.02)
            .with_latency(SimDuration::micros(5))
            .with_jitter(SimDuration::micros(1))
    };
    {
        let topo = sim.topology_mut();
        for (l, s) in spec.links() {
            topo.connect(l, s, params);
        }
        // Static ECMP-style spine pick per ordered leaf pair.
        for a in 0..spec.leaves {
            for b in 0..spec.leaves {
                if a != b {
                    let spine = SPINE_BASE + (a.wrapping_mul(31).wrapping_add(b)) % spec.spines;
                    topo.set_route(NodeId(a), NodeId(b), NodeId(spine));
                }
            }
        }
    }

    match stream {
        Some(pkts) => {
            for (t, pkt) in pkts {
                sim.inject(*t, pkt.clone());
            }
        }
        None => {
            // Zipf flow keys drawn outside the engine: the injection
            // stream is a pure function of the seed, identical for every
            // shard count.
            let mut wl_rng = StdRng::seed_from_u64(cfg.seed ^ 0x5a1f);
            let zipf = Zipf::new(cfg.zipf_keys, cfg.zipf_alpha);
            for i in 0..cfg.injections {
                let src = (i % u64::from(spec.leaves)) as u16;
                let dst = ((i * 7 + 3) % u64::from(spec.leaves)) as u16;
                if src == dst {
                    continue;
                }
                let key = zipf.sample(&mut wl_rng) as u32;
                // Dense schedule: many injections per lookahead window,
                // so each barrier interval carries real per-shard work.
                sim.inject(
                    SimTime(i * 50),
                    Packet::data(
                        NodeId(src),
                        NodeId(dst),
                        DataPacket::udp(
                            FlowKey::udp(
                                Ipv4Addr::new(10, 0, 0, 1),
                                (key & 0xffff) as u16,
                                Ipv4Addr::new(10, 0, 0, 2),
                                (key >> 16) as u16 | 1,
                            ),
                            0,
                            64,
                        ),
                    ),
                );
            }
        }
    }

    if cfg.fault_episodes > 0 {
        let sched = FaultGen::new(cfg.seed ^ 0xfa01).generate(
            &spec.nodes(),
            &spec.links(),
            SimDuration::millis(4),
            cfg.fault_episodes,
        );
        sim.schedule_faults(SimTime::ZERO, &sched);
    }

    let t = std::time::Instant::now();
    sim.run_until_quiescent(SimTime(10_000_000_000));
    let wall_ns = t.elapsed().as_nanos() as u64;

    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for l in 0..spec.leaves {
        let d = sim
            .node::<SketchNf>(NodeId(l))
            .expect("leaf present")
            .digest();
        for b in d.to_le_bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    let s = sim.stats();
    let dropped = [
        DropReason::Loss,
        DropReason::NoRoute,
        DropReason::NodeDown,
        DropReason::LinkDown,
        DropReason::Corrupt,
    ]
    .iter()
    .map(|&r| s.dropped(r).packets)
    .sum();
    let o = oracle.borrow();
    ShardRunOutcome {
        events: sim.events_processed(),
        wall_ns,
        crit_ns: sim.critical_path_ns(),
        peak_queue_depth: sim.peak_queue_depth(),
        delivered_pkts: s.delivered_total().packets,
        dropped_pkts: dropped,
        digest,
        end_ns: sim.now().nanos(),
        oracle_violations: o.violations,
        oracle_transitions: o.transitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_flag_parses() {
        assert_eq!(
            LeafSpineSpec::parse("leaf-spine:248x8"),
            Some(LeafSpineSpec {
                leaves: 248,
                spines: 8
            })
        );
        assert_eq!(LeafSpineSpec::parse("leaf-spine:1x4"), None);
        assert_eq!(LeafSpineSpec::parse("ring:8"), None);
        assert_eq!(LeafSpineSpec::parse("leaf-spine:8"), None);
    }

    #[test]
    fn lossless_run_is_identical_across_all_shard_counts() {
        let spec = LeafSpineSpec {
            leaves: 12,
            spines: 3,
        };
        let base = run_leaf_spine(&ShardRunConfig::scaling(spec, 1, 300));
        assert!(base.delivered_pkts > 0);
        for shards in [2usize, 4] {
            let got = run_leaf_spine(&ShardRunConfig::scaling(spec, shards, 300));
            assert_eq!(base.digest, got.digest, "S={shards} digest diverged");
            assert_eq!(base.events, got.events, "S={shards} event count diverged");
            assert_eq!(base.delivered_pkts, got.delivered_pkts);
            assert_eq!(base.end_ns, got.end_ns);
        }
    }

    #[test]
    fn fault_sweep_runs_clean_under_sharding() {
        let spec = LeafSpineSpec {
            leaves: 12,
            spines: 3,
        };
        let mut cfg = ShardRunConfig::scaling(spec, 4, 300);
        cfg.fault_episodes = 4;
        cfg.lossless = false;
        let got = run_leaf_spine(&cfg);
        assert!(got.oracle_transitions > 0, "sweep should inject faults");
        assert_eq!(got.oracle_violations, 0, "fault oracle must stay clean");
    }
}
