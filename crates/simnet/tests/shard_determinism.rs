//! Determinism regression harness for the sharded PDES engine.
//!
//! Three guarantees are pinned here:
//!
//! 1. **`S = 1` is bit-exact with the sequential engine** — a single-shard
//!    [`ShardedEngine`] reproduces the [`Simulator`]'s golden determinism
//!    fingerprint unchanged (same RNG stream, same event keys, same trace
//!    order), and its buffered sinks hand every attached collector the
//!    stream the `Simulator`'s direct ones do.
//! 2. **Shard count is a pure performance knob** — for `S ≥ 2` the merged
//!    stats, delivery-trace hash, and observer event stream are identical
//!    for any shard count and any worker-thread count.
//! 3. **The fault plane shards cleanly** — externally scheduled fault
//!    events (including cross-shard link outages) fire at the same
//!    `SimTime` under any shard count.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use swishmem_simnet::{
    Ctx, DropReason, FaultGen, FaultSchedule, GroupId, JournalCollector, JournalHandle,
    JournalRecord, LinkParams, NetEvent, NetObserver, Node, ObserverHandle, RelayNode,
    ShardedEngine, SimDuration, SimTime, Simulator, SpanCollector, SpanHandle, SpanPhase, Trace,
    TraceHandle,
};
use swishmem_wire::{DataPacket, FlowKey, NodeId, Packet, PacketBody, TraceId};

/// Mirrors the `Churn` node in `tests/determinism.rs`: echoes data
/// packets with a TTL, multicasts and anycasts on a re-arming timer.
struct Churn {
    ttl: u32,
    timer_rounds: u64,
}

fn body(seq: u32, len: u16) -> PacketBody {
    PacketBody::Data(DataPacket::udp(
        FlowKey::udp(Ipv4Addr::new(10, 0, 0, 1), 5, Ipv4Addr::new(10, 0, 0, 2), 6),
        seq,
        len,
    ))
}

impl Node for Churn {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::micros(50), 1);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketBody::Data(d) = pkt.body {
            // Unconditional span and journal emission: no-ops unless a
            // collector is attached (the invariance tests below exploit it).
            ctx.span(
                TraceId::new(ctx.self_id(), u64::from(d.flow_seq) + 1),
                SpanPhase::Ingress,
            );
            ctx.journal(
                1,
                u64::from(d.flow_seq),
                u64::from(pkt.src.0),
                u64::from(d.payload_len),
                0,
            );
            if d.flow_seq < self.ttl {
                ctx.send(pkt.src, body(d.flow_seq + 1, d.payload_len));
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        assert_eq!(token, 1);
        self.timer_rounds += 1;
        ctx.span(
            TraceId::new(ctx.self_id(), 1_000 + self.timer_rounds),
            SpanPhase::SyncRound,
        );
        ctx.journal(2, self.timer_rounds, 0, 0, 0);
        ctx.multicast(GroupId(1), body(0, 100));
        ctx.send_random(GroupId(1), body(0, 40));
        if self.timer_rounds < 20 {
            ctx.set_timer(SimDuration::micros(75), 1);
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    events: u64,
    end_ns: u64,
    delivered_pkts: u64,
    delivered_bytes: u64,
    lost: u64,
    no_route: u64,
    node_down: u64,
    link_down: u64,
    corrupt: u64,
    trace_len: usize,
    trace_hash: u64,
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn trace_hash(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in trace.entries() {
        fnv(&mut h, e.time.nanos());
        fnv(&mut h, u64::from(e.pkt.src.0));
        fnv(&mut h, u64::from(e.pkt.dst.0));
        fnv(&mut h, e.pkt.wire_len() as u64);
        if let PacketBody::Data(d) = &e.pkt.body {
            fnv(&mut h, u64::from(d.flow_seq));
            fnv(&mut h, u64::from(d.payload_len));
        }
    }
    h
}

/// Flattened observer log, comparable across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Obs {
    Delivered(u64, u16, u16, u16, usize),
    NodeFailed(u64, u16),
    NodeRecovered(u64, u16),
    LinkChanged(u64, u16, u16, bool),
    LinkDegraded(u64, u16, u16),
    LinkRestored(u64, u16, u16),
}

#[derive(Default)]
struct Collector {
    log: Vec<Obs>,
}

impl NetObserver for Collector {
    fn on_net_event(&mut self, now: SimTime, ev: &NetEvent<'_>) {
        let t = now.nanos();
        self.log.push(match *ev {
            NetEvent::Delivered { to, pkt } => {
                Obs::Delivered(t, to.0, pkt.src.0, pkt.dst.0, pkt.wire_len())
            }
            NetEvent::NodeFailed { node } => Obs::NodeFailed(t, node.0),
            NetEvent::NodeRecovered { node } => Obs::NodeRecovered(t, node.0),
            NetEvent::LinkChanged { a, b, down } => Obs::LinkChanged(t, a.0, b.0, down),
            NetEvent::LinkDegraded { a, b } => Obs::LinkDegraded(t, a.0, b.0),
            NetEvent::LinkRestored { a, b } => Obs::LinkRestored(t, a.0, b.0),
        });
    }
}

// ---------------------------------------------------------------------
// Scenario A: the sequential harness's Churn scenario, run through the
// sharded engine. Single-shard mode must reproduce the golden values.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum EngineUnderTest {
    Sequential,
    Sharded(usize),
}

/// What a Churn run attaches besides the packet trace.
#[derive(Default)]
struct Taps {
    journal: Option<JournalHandle>,
    spans: Option<SpanHandle>,
    observer: Option<ObserverHandle>,
    wire_check: bool,
}

fn run_churn(seed: u64, engine: EngineUnderTest, faults: Option<&FaultSchedule>) -> Fingerprint {
    run_churn_full(seed, engine, faults, &Taps::default()).0
}

/// The Churn scenario on an already constructed engine. `Simulator` and
/// `ShardedEngine` share these method names but no trait, hence a macro.
macro_rules! churn_scenario {
    ($engine:expr, $faults:expr, $taps:expr) => {{
        let mut sim = $engine;
        let taps: &Taps = $taps;
        let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
        let trace = Trace::new(200_000);
        sim.add_observer(trace.clone());
        sim.set_wire_check(taps.wire_check);
        if let Some(j) = &taps.journal {
            sim.set_journal(j.clone());
        }
        if let Some(s) = &taps.spans {
            sim.set_spans(s.clone());
        }
        if let Some(o) = &taps.observer {
            sim.add_observer(o.clone());
        }
        for &id in &ids {
            sim.add_node(
                id,
                Box::new(Churn {
                    ttl: 6,
                    timer_rounds: 0,
                }),
            );
        }
        let params = LinkParams::lossy(0.08).with_jitter(SimDuration::micros(2));
        sim.topology_mut().full_mesh(&ids, params);
        sim.topology_mut().set_group(GroupId(1), ids.clone());
        for i in 0..200u64 {
            let flow = FlowKey::udp(
                Ipv4Addr::new(10, 0, 0, 1),
                (100 + i) as u16,
                Ipv4Addr::new(10, 0, 0, 2),
                6,
            );
            let (src, dst) = (NodeId((i % 5) as u16), NodeId(((i + 1) % 5) as u16));
            let pkt = Packet::data(src, dst, DataPacket::udp(flow, 0, 64));
            sim.inject(SimTime(i * 7_000), pkt);
        }
        sim.schedule_fail(SimTime(300_000), NodeId(2));
        sim.schedule_recover(SimTime(900_000), NodeId(2));
        sim.schedule_link_set(SimTime(400_000), NodeId(0), NodeId(1), true);
        sim.schedule_link_set(SimTime(1_000_000), NodeId(0), NodeId(1), false);
        if let Some(sched) = $faults {
            sim.schedule_faults(SimTime::ZERO, sched);
        }
        sim.run_until_quiescent(SimTime(30_000_000));
        let s = sim.stats();
        let fp = Fingerprint {
            events: sim.events_processed(),
            end_ns: sim.now().nanos(),
            delivered_pkts: s.delivered_total().packets,
            delivered_bytes: s.delivered_total().bytes,
            lost: s.dropped(DropReason::Loss).packets,
            no_route: s.dropped(DropReason::NoRoute).packets,
            node_down: s.dropped(DropReason::NodeDown).packets,
            link_down: s.dropped(DropReason::LinkDown).packets,
            corrupt: s.dropped(DropReason::Corrupt).packets,
            trace_len: trace.borrow().entries().len(),
            trace_hash: trace_hash(&trace.borrow()),
        };
        (fp, trace)
    }};
}

fn run_churn_full(
    seed: u64,
    engine: EngineUnderTest,
    faults: Option<&FaultSchedule>,
    taps: &Taps,
) -> (Fingerprint, TraceHandle) {
    match engine {
        EngineUnderTest::Sequential => churn_scenario!(Simulator::new(seed), faults, taps),
        EngineUnderTest::Sharded(shards) => {
            churn_scenario!(ShardedEngine::new(seed, shards), faults, taps)
        }
    }
}

/// The single-shard sharded engine must reproduce the sequential
/// engine's golden fingerprint bit-for-bit — same constants as
/// `determinism::matches_pre_optimization_golden_fingerprint`.
#[test]
fn single_shard_matches_golden_fingerprint() {
    let got = run_churn(1234, EngineUnderTest::Sharded(1), None);
    println!("fingerprint: {got:?}");
    let golden = Fingerprint {
        events: 3290,
        end_ns: 2_086_870,
        delivered_pkts: 3115,
        delivered_bytes: 386_866,
        lost: 240,
        no_route: 0,
        node_down: 70,
        link_down: 38,
        corrupt: 0,
        trace_len: 3115,
        trace_hash: 11_977_170_304_909_245_025,
    };
    assert_eq!(got, golden, "single-shard mode diverged from the golden");
}

/// Arming the wire-fidelity check is invisible under every engine: the
/// sequential engine and S = 1 still reproduce the golden trace hash, and
/// S = 2 its own unarmed fingerprint. Every delivered frame here is a UDP
/// data packet, most with a non-zero simulator-side `flow_seq`, so the
/// run also drives the shared helper's one exemption through both engines.
#[test]
fn wire_check_is_invisible_at_one_and_two_shards() {
    use EngineUnderTest::{Sequential, Sharded};
    for (engine, golden) in [(Sequential, true), (Sharded(1), true), (Sharded(2), false)] {
        let armed = Taps {
            wire_check: true,
            ..Taps::default()
        };
        let checked = run_churn_full(1234, engine, None, &armed).0;
        assert_eq!(checked, run_churn(1234, engine, None));
        assert!(checked.delivered_pkts > 3000);
        if golden {
            assert_eq!(checked.trace_hash, 11_977_170_304_909_245_025);
        }
    }
}

/// Field-by-field equality against a live `Simulator` run, with a
/// generated fault schedule layered on to also cover the fault plane.
#[test]
fn single_shard_matches_legacy_simulator_under_faults() {
    let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
    let links: Vec<(NodeId, NodeId)> = (0..5u16)
        .flat_map(|i| ((i + 1)..5).map(move |j| (NodeId(i), NodeId(j))))
        .collect();
    let sched = FaultGen::new(99).generate(&ids, &links, SimDuration::millis(2), 5);
    assert!(!sched.is_empty());
    for seed in [1234u64, 4321, 7] {
        let legacy = run_churn(seed, EngineUnderTest::Sequential, Some(&sched));
        let sharded = run_churn(seed, EngineUnderTest::Sharded(1), Some(&sched));
        assert_eq!(legacy, sharded, "seed {seed}: S=1 diverged from Simulator");
    }
}

/// `Direct` vs `Buffered`, proven equivalent once: the same seed and
/// fault schedule through `Simulator` (observations written in place)
/// and a single-shard `ShardedEngine` (observations buffered, merged
/// after the run) must hand every attached collector the same stream,
/// element for element — observer log, packet trace, spans, journal.
#[test]
fn direct_and_buffered_sinks_see_identical_streams() {
    let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
    let links: Vec<(NodeId, NodeId)> = (0..5u16)
        .flat_map(|i| ((i + 1)..5).map(move |j| (NodeId(i), NodeId(j))))
        .collect();
    let sched = FaultGen::new(99).generate(&ids, &links, SimDuration::millis(2), 5);

    let run = |engine: EngineUnderTest| {
        let collector = Rc::new(RefCell::new(Collector::default()));
        let taps = Taps {
            journal: Some(JournalCollector::new(1_000_000)),
            spans: Some(SpanCollector::new(1_000_000)),
            observer: Some(collector.clone()),
            wire_check: false,
        };
        let (fp, trace) = run_churn_full(1234, engine, Some(&sched), &taps);
        let trace: Vec<(SimTime, Packet)> = trace
            .borrow()
            .entries()
            .iter()
            .map(|e| (e.time, e.pkt.clone()))
            .collect();
        let spans = taps.spans.unwrap().borrow().events().to_vec();
        let journal = taps.journal.unwrap().borrow().records().to_vec();
        let log = collector.borrow().log.clone();
        (fp, log, trace, spans, journal)
    };
    let direct = run(EngineUnderTest::Sequential);
    let buffered = run(EngineUnderTest::Sharded(1));

    let (_, log, trace, spans, journal) = &direct;
    for (what, seen) in [
        (
            "NodeFailed",
            log.iter().any(|o| matches!(o, Obs::NodeFailed(..))),
        ),
        (
            "LinkChanged",
            log.iter().any(|o| matches!(o, Obs::LinkChanged(..))),
        ),
        (
            "LinkDegraded",
            log.iter().any(|o| matches!(o, Obs::LinkDegraded(..))),
        ),
        (
            "a delivery",
            log.iter().any(|o| matches!(o, Obs::Delivered(..))),
        ),
        ("a traced frame", !trace.is_empty()),
        ("a span", !spans.is_empty()),
        ("a journal record", !journal.is_empty()),
    ] {
        assert!(seen, "scenario must exercise {what}");
    }
    assert_eq!(direct.0, buffered.0, "fingerprints diverged");
    assert_eq!(direct.1, buffered.1, "observer logs diverged");
    assert_eq!(direct.2, buffered.2, "packet traces diverged");
    assert_eq!(direct.3, buffered.3, "span streams diverged");
    assert_eq!(direct.4, buffered.4, "journal streams diverged");
}

/// Attaching the flight-recorder journal to a single-shard run must be
/// invisible: the golden fingerprint — the same constants as the
/// sequential harness — must not move by a bit, while the collector
/// fills with one kind-1 record per delivered packet.
#[test]
fn single_shard_journal_attach_matches_golden_fingerprint() {
    let journal = JournalCollector::new(1_000_000);
    let taps = Taps {
        journal: Some(journal.clone()),
        ..Taps::default()
    };
    let attached = run_churn_full(1234, EngineUnderTest::Sharded(1), None, &taps).0;
    let detached = run_churn(1234, EngineUnderTest::Sharded(1), None);
    assert_eq!(
        attached, detached,
        "attaching the journal perturbed the single-shard run"
    );
    assert_eq!(attached.trace_hash, 11_977_170_304_909_245_025);
    let j = journal.borrow();
    assert!(!j.records().is_empty());
    assert_eq!(j.overflowed(), 0);
    let ingress = j.records().iter().filter(|r| r.kind == 1).count() as u64;
    assert_eq!(ingress, attached.delivered_pkts);
}

/// The journal record stream is shard-count invariant for S >= 2 (like
/// stats and traces, per guarantee 2 — S = 1 is its own RNG-partitioning
/// regime, pinned against the golden above): S = 2 and S = 4 attached
/// runs produce the same fingerprint and — after canonical full-field
/// ordering — the identical record stream, and attaching at S >= 2 is
/// just as passive as at S = 1.
#[test]
fn journal_is_shard_count_invariant() {
    let canonical = |shards: usize| -> (Fingerprint, Vec<JournalRecord>) {
        let journal = JournalCollector::new(1_000_000);
        let taps = Taps {
            journal: Some(journal.clone()),
            ..Taps::default()
        };
        let fp = run_churn_full(1234, EngineUnderTest::Sharded(shards), None, &taps).0;
        let mut recs = journal.borrow().records().to_vec();
        // Multi-shard drains merge per-shard sinks in full-field order;
        // sort both streams to that canonical order before comparing.
        recs.sort();
        (fp, recs)
    };
    let (fp2, rec2) = canonical(2);
    let (fp4, rec4) = canonical(4);
    assert_eq!(fp2, fp4, "S=4 attached fingerprint diverged from S=2");
    assert_eq!(
        fp2,
        run_churn(1234, EngineUnderTest::Sharded(2), None),
        "attaching the journal perturbed the 2-shard run"
    );
    assert!(!rec2.is_empty());
    assert_eq!(
        rec2, rec4,
        "journal record stream diverged across shard counts"
    );
}

// ---------------------------------------------------------------------
// Scenario B: a 16-leaf / 4-spine leaf-spine fabric with relay spines,
// churning leaves, and a generated fault sweep. Used to pin shard-count
// and worker-count invariance for S >= 2.
// ---------------------------------------------------------------------

const LEAVES: u16 = 16;
const SPINES: u16 = 4;
const SPINE_BASE: u16 = 500;

fn leaf_spine_links() -> Vec<(NodeId, NodeId)> {
    (0..LEAVES)
        .flat_map(|l| (0..SPINES).map(move |s| (NodeId(l), NodeId(SPINE_BASE + s))))
        .collect()
}

struct LeafSpineRun {
    fp: Fingerprint,
    obs: Vec<Obs>,
}

fn run_leaf_spine(
    seed: u64,
    shards: usize,
    workers: usize,
    faults: &FaultSchedule,
) -> LeafSpineRun {
    let mut sim = ShardedEngine::new(seed, shards);
    sim.set_workers(workers);
    let trace = Trace::new(500_000);
    sim.add_observer(trace.clone());
    let collector = Rc::new(RefCell::new(Collector::default()));
    sim.add_observer(collector.clone());

    let leaves: Vec<NodeId> = (0..LEAVES).map(NodeId).collect();
    for &id in &leaves {
        sim.add_node(
            id,
            Box::new(Churn {
                ttl: 4,
                timer_rounds: 0,
            }),
        );
    }
    for s in 0..SPINES {
        sim.add_node(NodeId(SPINE_BASE + s), Box::new(RelayNode));
    }

    let params = LinkParams::lossy(0.05)
        .with_latency(SimDuration::micros(5))
        .with_jitter(SimDuration::micros(1));
    {
        let topo = sim.topology_mut();
        for &(l, s) in &leaf_spine_links() {
            topo.connect(l, s, params);
        }
        // Static ECMP-style spine choice per leaf pair.
        for a in 0..LEAVES {
            for b in 0..LEAVES {
                if a != b {
                    let spine = NodeId(SPINE_BASE + (a.wrapping_mul(31).wrapping_add(b)) % SPINES);
                    topo.set_route(NodeId(a), NodeId(b), spine);
                }
            }
        }
        topo.set_group(GroupId(1), leaves.clone());
    }

    for i in 0..400u64 {
        let src = NodeId((i % u64::from(LEAVES)) as u16);
        let dst = NodeId(((i * 7 + 3) % u64::from(LEAVES)) as u16);
        if src == dst {
            continue;
        }
        sim.inject(
            SimTime(i * 3_000),
            Packet::data(
                src,
                dst,
                DataPacket::udp(
                    FlowKey::udp(
                        Ipv4Addr::new(10, 0, 0, 1),
                        (1 + (i % 4000)) as u16,
                        Ipv4Addr::new(10, 0, 0, 2),
                        6,
                    ),
                    0,
                    64,
                ),
            ),
        );
    }
    sim.schedule_faults(SimTime::ZERO, faults);
    sim.run_until_quiescent(SimTime(20_000_000));

    let s = sim.stats();
    let fp = Fingerprint {
        events: sim.events_processed(),
        end_ns: sim.now().nanos(),
        delivered_pkts: s.delivered_total().packets,
        delivered_bytes: s.delivered_total().bytes,
        lost: s.dropped(DropReason::Loss).packets,
        no_route: s.dropped(DropReason::NoRoute).packets,
        node_down: s.dropped(DropReason::NodeDown).packets,
        link_down: s.dropped(DropReason::LinkDown).packets,
        corrupt: s.dropped(DropReason::Corrupt).packets,
        trace_len: trace.borrow().entries().len(),
        trace_hash: trace_hash(&trace.borrow()),
    };
    let obs = collector.borrow().log.clone();
    LeafSpineRun { fp, obs }
}

fn sweep_schedule() -> FaultSchedule {
    let mut nodes: Vec<NodeId> = (0..LEAVES).map(NodeId).collect();
    nodes.extend((0..SPINES).map(|s| NodeId(SPINE_BASE + s)));
    FaultGen::new(77).generate(&nodes, &leaf_spine_links(), SimDuration::millis(5), 6)
}

/// Stats, trace hash, and the full observer event stream must be
/// identical for S = 2, 4, 8 on the fault-swept leaf-spine fabric.
#[test]
fn shard_count_is_a_pure_performance_knob() {
    let sched = sweep_schedule();
    assert!(!sched.is_empty());
    let base = run_leaf_spine(42, 2, 1, &sched);
    assert!(
        base.fp.delivered_pkts > 0,
        "scenario should deliver traffic"
    );
    assert!(!base.obs.is_empty(), "observers should see events");
    for shards in [4usize, 8] {
        let got = run_leaf_spine(42, shards, 1, &sched);
        assert_eq!(base.fp, got.fp, "S={shards} fingerprint diverged from S=2");
        assert_eq!(
            base.obs, got.obs,
            "S={shards} observer stream diverged from S=2"
        );
    }
}

/// Worker-thread count must be invisible: S = 4 with 1, 2, and 4 workers
/// produces identical output (the parallel barrier loop vs the
/// sequential window loop).
#[test]
fn worker_count_is_invisible() {
    let sched = sweep_schedule();
    let base = run_leaf_spine(42, 4, 1, &sched);
    for workers in [2usize, 4] {
        let got = run_leaf_spine(42, 4, workers, &sched);
        assert_eq!(base.fp, got.fp, "workers={workers} diverged");
        assert_eq!(
            base.obs, got.obs,
            "workers={workers} observer stream diverged"
        );
    }
}

/// A cross-shard `link_outage` from a `FaultSchedule` must fire at the
/// identical `SimTime` in 1-shard and 8-shard runs, and be observed
/// exactly once per transition.
#[test]
fn cross_shard_link_outage_fires_at_identical_time() {
    let sched = FaultSchedule::new().link_outage(
        NodeId(0),
        NodeId(1),
        SimDuration::micros(400),
        SimDuration::micros(600),
    );

    let run = |shards: usize| -> Vec<Obs> {
        let mut sim = ShardedEngine::new(9, shards);
        let collector = Rc::new(RefCell::new(Collector::default()));
        sim.add_observer(collector.clone());
        let ids: Vec<NodeId> = (0..8).map(NodeId).collect();
        for &id in &ids {
            sim.add_node(
                id,
                Box::new(Churn {
                    ttl: 3,
                    timer_rounds: 0,
                }),
            );
            // Pin node i to shard i (mod shards): nodes 0 and 1 land on
            // different shards whenever shards > 1.
            sim.assign_shard(id, id.0 as u32 % shards as u32);
        }
        sim.topology_mut().full_mesh(
            &ids,
            LinkParams::datacenter().with_latency(SimDuration::micros(3)),
        );
        sim.topology_mut().set_group(GroupId(1), ids.clone());
        sim.schedule_faults(SimTime::ZERO, &sched);
        sim.run_until_quiescent(SimTime(5_000_000));
        if shards == 8 {
            assert_ne!(
                sim.shard_of(NodeId(0)),
                sim.shard_of(NodeId(1)),
                "test precondition: the outage must span shards"
            );
        }
        let changes: Vec<Obs> = collector
            .borrow()
            .log
            .iter()
            .filter(|o| matches!(o, Obs::LinkChanged(..)))
            .cloned()
            .collect();
        changes
    };

    let one = run(1);
    let eight = run(8);
    assert_eq!(
        one,
        vec![
            Obs::LinkChanged(400_000, 0, 1, true),
            Obs::LinkChanged(1_000_000, 0, 1, false),
        ],
        "1-shard run: outage transitions at the scheduled times"
    );
    assert_eq!(
        one, eight,
        "link outage timing must be identical in 1-shard and 8-shard runs"
    );
}
