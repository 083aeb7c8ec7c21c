//! Determinism regression harness for the event core.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Replay determinism** — the same seed and scenario produce
//!    bit-identical stats, event counts, and delivery traces on every
//!    run.
//! 2. **Optimization stability** — the fingerprint equals a golden value
//!    recorded before the zero-copy/indexed-event-core rework, proving
//!    the optimization did not perturb `(time, seq)` ordering, RNG draw
//!    sites, or delivery behaviour.
//!
//! If an intentional semantic change (new RNG draw site, different event
//! ordering) breaks the golden values, re-record them by running this
//! test with `--nocapture` and copying the printed fingerprint — and say
//! so in the PR, because it resets the determinism baseline.
//!
//! The golden has survived, unchanged, the fault plane (PR 2), span
//! telemetry (PR 4), and the live-reconfiguration engine: higher-layer
//! subsystems must ride on existing engine primitives without adding
//! draw sites or reordering events. The protocol-level counterpart
//! (reconfig compiled in but disabled is invisible on chain-only
//! deployments) lives in the workspace test
//! `reconfig::reconfig_disabled_is_invisible_without_partitioned_registers`.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use swishmem_simnet::{
    Ctx, DropReason, Family, FaultGen, FaultSchedule, GroupId, JournalHandle, JournalRecord,
    LinkParams, NetEvent, NetObserver, Node, ObserverHandle, Record, SimDuration, SimTime,
    Simulator, SpanEvent, SpanPhase, Tap, Trace, TraceEntry,
};
use swishmem_wire::{DataPacket, FlowKey, NodeId, Packet, PacketBody, TraceId};

/// A node that exercises every command the engine offers: echoes data
/// packets, multicasts on a timer, anycasts to a random group member,
/// and keeps re-arming its timer. It also spans and journals from
/// `on_start`, and notes whether it was ever told that spans or the
/// journal have a subscriber.
#[derive(Default)]
struct Churn {
    ttl: u32,
    timer_rounds: u64,
    listened: bool,
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
        ctx.span(TraceId::new(ctx.self_id(), 999), SpanPhase::JobStart);
        ctx.journal(3, u64::from(ctx.self_id().0), 0, 0, 0);
        ctx.set_timer(SimDuration::micros(50), 1);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.listened |= ctx.tracing() || ctx.journaling();
        if let PacketBody::Data(d) = pkt.body {
            // Unconditional span emission: a no-op unless a span tap is
            // attached, which the passivity table exploits.
            ctx.span(
                TraceId::new(ctx.self_id(), u64::from(d.flow_seq) + 1),
                SpanPhase::Ingress,
            );
            // Likewise unconditional journal emission: a no-op unless a
            // journal tap is attached.
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

/// The full scenario fingerprint: aggregate stats plus an FNV-1a hash of
/// the complete delivery trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

fn run_scenario(seed: u64) -> Fingerprint {
    run_scenario_full(seed, &Setup::default()).0
}

fn run_scenario_with(seed: u64, faults: Option<&FaultSchedule>) -> Fingerprint {
    let setup = Setup {
        faults,
        ..Setup::default()
    };
    run_scenario_full(seed, &setup).0
}

/// What a run varies besides its seed.
#[derive(Default)]
struct Setup<'a> {
    faults: Option<&'a FaultSchedule>,
    /// Attached after the packet trace, in order.
    observers: &'a [ObserverHandle],
    /// Stop and resume the engine at every multiple of this on the way.
    pause_every: Option<SimDuration>,
    wire_check: bool,
}

/// Run the scenario to quiescence. Returns its fingerprint and whether
/// any node was ever told that spans or the journal have a subscriber.
fn run_scenario_full(seed: u64, setup: &Setup<'_>) -> (Fingerprint, bool) {
    let mut sim = Simulator::new(seed);
    let trace = Trace::new(200_000);
    sim.add_observer(trace.clone());
    for obs in setup.observers {
        sim.add_observer(obs.clone());
    }
    sim.set_wire_check(setup.wire_check);

    let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
    for &id in &ids {
        let churn = Churn {
            ttl: 6,
            ..Churn::default()
        };
        sim.add_node(id, Box::new(churn));
    }
    sim.topology_mut().full_mesh(
        &ids,
        LinkParams::lossy(0.08).with_jitter(SimDuration::micros(2)),
    );
    sim.topology_mut().set_group(GroupId(1), ids.clone());

    // External traffic, a fail/recover cycle, and a link outage all mixed
    // into the same run.
    for i in 0..200u64 {
        let src = NodeId((i % 5) as u16);
        let dst = NodeId(((i + 1) % 5) as u16);
        sim.inject(
            SimTime(i * 7_000),
            Packet::data(
                src,
                dst,
                DataPacket::udp(
                    FlowKey::udp(
                        Ipv4Addr::new(10, 0, 0, 1),
                        (100 + i) as u16,
                        Ipv4Addr::new(10, 0, 0, 2),
                        6,
                    ),
                    0,
                    64,
                ),
            ),
        );
    }
    sim.schedule_fail(SimTime(300_000), NodeId(2));
    sim.schedule_recover(SimTime(900_000), NodeId(2));
    sim.schedule_link_set(SimTime(400_000), NodeId(0), NodeId(1), true);
    sim.schedule_link_set(SimTime(1_000_000), NodeId(0), NodeId(1), false);
    if let Some(sched) = setup.faults {
        sim.schedule_faults(SimTime::ZERO, sched);
    }

    let end = SimTime(30_000_000);
    if let Some(step) = setup.pause_every {
        let mut t = SimTime::ZERO;
        while t < end {
            t = (t + step).min(end);
            sim.run_until_quiescent(t);
        }
    }
    sim.run_until_quiescent(end);

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in trace.borrow().events() {
        fnv(&mut h, e.time.nanos());
        fnv(&mut h, u64::from(e.pkt.src.0));
        fnv(&mut h, u64::from(e.pkt.dst.0));
        fnv(&mut h, e.pkt.wire_len() as u64);
        if let PacketBody::Data(d) = &e.pkt.body {
            fnv(&mut h, u64::from(d.flow_seq));
            fnv(&mut h, u64::from(d.payload_len));
        }
    }

    let trace_len = trace.borrow().len();
    let listened = ids
        .iter()
        .any(|&id| sim.node::<Churn>(id).expect("registered").listened);
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
        trace_len,
        trace_hash: h,
    };
    (fp, listened)
}

#[test]
fn same_seed_is_bit_identical() {
    let a = run_scenario(1234);
    let b = run_scenario(1234);
    assert_eq!(a, b, "identical seeds must replay identically");
}

#[test]
fn different_seeds_diverge() {
    let a = run_scenario(1234);
    let b = run_scenario(4321);
    assert_ne!(
        a.trace_hash, b.trace_hash,
        "distinct seeds should produce distinct delivery patterns"
    );
}

/// Recorded on the engine before the zero-copy/indexed rework (HashMap
/// node table, BinaryHeap<Reverse<Event>>, per-member body clones).
const GOLDEN: Fingerprint = Fingerprint {
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

#[test]
fn matches_pre_optimization_golden_fingerprint() {
    let got = run_scenario(1234);
    println!("fingerprint: {got:?}");
    // The optimized engine must reproduce the golden exactly.
    assert_eq!(got, GOLDEN, "event order / RNG draw sites changed");
    // So must a run paused every 7 µs: stopping and resuming the engine
    // at intervals leaves the outcome unchanged.
    let paused = Setup {
        pause_every: Some(SimDuration::micros(7)),
        ..Setup::default()
    };
    let paused = run_scenario_full(1234, &paused).0;
    assert_eq!(paused, GOLDEN, "pausing the run changed its outcome");
    // And so must a run with the wire check armed. Every delivered frame
    // is a UDP data packet, most with a non-zero simulator-side
    // `flow_seq`, so the run also drives the check's one exemption.
    let armed = Setup {
        wire_check: true,
        ..Setup::default()
    };
    let armed = run_scenario_full(1234, &armed).0;
    assert_eq!(armed, GOLDEN, "arming the wire check changed the run");
}

#[test]
fn fault_schedule_replays_bit_for_bit() {
    // A generated schedule layered on the same scenario: identical seed +
    // identical schedule must reproduce exactly, and the schedule must
    // actually perturb the run relative to the no-fault golden.
    let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
    let links: Vec<(NodeId, NodeId)> = (0..5u16)
        .flat_map(|i| ((i + 1)..5).map(move |j| (NodeId(i), NodeId(j))))
        .collect();
    let sched = FaultGen::new(99).generate(&ids, &links, SimDuration::millis(2), 5);
    assert!(!sched.is_empty(), "seed 99 should generate faults\n{sched}");

    let a = run_scenario_with(1234, Some(&sched));
    let b = run_scenario_with(1234, Some(&sched));
    assert_eq!(
        a, b,
        "same seed + same FaultSchedule must replay bit-for-bit\n{sched}"
    );

    let clean = run_scenario(1234);
    assert_ne!(
        a.trace_hash, clean.trace_hash,
        "the schedule should perturb the run\n{sched}"
    );
}

#[test]
fn empty_fault_schedule_is_a_no_op() {
    let empty = FaultSchedule::new();
    let a = run_scenario_with(1234, Some(&empty));
    let clean = run_scenario(1234);
    assert_eq!(a, clean, "an empty schedule must not perturb the run");
}

/// A fault-plane transition as a test-local record: a subscriber to a
/// family needs nothing but a `Record` impl.
struct Fault;
impl Record for Fault {
    const FAMILY: Family = Family::Fault;
    fn of(_now: SimTime, ev: &NetEvent<'_>) -> Option<Self> {
        (ev.family() == Family::Fault).then_some(Fault)
    }
}

/// One family's tap on a run: the observer to attach, and a reader of
/// `(kept, overflowed, pinned)` after it — `pinned` counts the kept
/// records the family's row pins.
struct Probe {
    observer: ObserverHandle,
    read: Box<dyn Fn() -> (usize, u64, u64)>,
}

fn probe<T: Record + 'static>(capacity: usize, pinned: fn(&T) -> bool) -> Probe {
    let tap = Tap::<T>::new(capacity);
    let t = tap.clone();
    let read = move || {
        let t = t.borrow();
        let n = t.events().iter().filter(|r| pinned(r)).count();
        (t.len(), t.overflowed(), n as u64)
    };
    Probe {
        observer: tap,
        read: Box::new(read),
    }
}

/// Passivity, proven once for the mechanism: a tap of each family —
/// deliveries (the packet trace), injections (the capture), spans,
/// journal, and fault-plane transitions — attached alone and then all at
/// once, at a capacity that keeps everything and at 16, never moves the
/// golden fingerprint; every tap accounts for each record it was offered
/// (kept or counted as overflow); and a full tap pins its family: one
/// frame per delivery, the 200 injections, one ingress marker and one
/// kind-1 record per delivered packet, the four scheduled transitions.
#[test]
fn every_family_is_passive_alone_and_together() {
    let probes = |capacity: usize| {
        vec![
            probe::<TraceEntry>(capacity, |_| true),
            probe::<(SimTime, Packet)>(capacity, |_| true),
            probe::<SpanEvent>(capacity, |e| e.phase == SpanPhase::Ingress),
            probe::<JournalRecord>(capacity, |r| r.kind == 1),
            probe::<Fault>(capacity, |_| true),
        ]
    };
    let d = GOLDEN.delivered_pkts;
    let pinned = [d, 200, d, d, 4];
    let mut offered = [0u64; 5];
    let rows: Vec<Vec<usize>> = (0..5)
        .map(|f| vec![f])
        .chain([vec![0, 1, 2, 3, 4]])
        .collect();
    for capacity in [1 << 20, 16] {
        for row in &rows {
            let all = probes(capacity);
            let observers: Vec<ObserverHandle> =
                row.iter().map(|&f| all[f].observer.clone()).collect();
            let setup = Setup {
                observers: &observers,
                ..Setup::default()
            };
            let fp = run_scenario_full(1234, &setup).0;
            assert_eq!(fp, GOLDEN, "families {row:?} at capacity {capacity}");
            for &f in row {
                let (kept, overflowed, n) = (all[f].read)();
                if capacity == 16 {
                    let want = (offered[f].min(16) as usize, offered[f].saturating_sub(16));
                    assert_eq!((kept, overflowed), want, "family {f} at capacity 16");
                } else {
                    assert_eq!((overflowed, n), (0, pinned[f]), "family {f}");
                    offered[f] = kept as u64;
                }
            }
        }
    }
    assert!(offered[..4].iter().all(|&n| n > 16), "{offered:?}");
}

/// Replaying a fault-swept run with the same seed must reproduce the
/// journal **byte for byte** — not just the aggregate fingerprint, the
/// full record stream (times, nodes, kinds, causes, payload words).
#[test]
fn journal_replay_is_byte_identical_under_fault_sweep() {
    let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
    let links: Vec<(NodeId, NodeId)> = (0..5u16)
        .flat_map(|i| ((i + 1)..5).map(move |j| (NodeId(i), NodeId(j))))
        .collect();
    let sched = FaultGen::new(99).generate(&ids, &links, SimDuration::millis(2), 5);
    assert!(!sched.is_empty());

    let run = || {
        let journal: JournalHandle = Tap::new(1_000_000);
        let obs: ObserverHandle = journal.clone();
        let setup = Setup {
            faults: Some(&sched),
            observers: &[obs],
            ..Setup::default()
        };
        let fp = run_scenario_full(1234, &setup).0;
        let records = journal.borrow().events().to_vec();
        (fp, records)
    };
    let (fp_a, rec_a) = run();
    let (fp_b, rec_b) = run();
    assert_eq!(fp_a, fp_b, "fault-swept replay must be deterministic");
    assert!(!rec_a.is_empty());
    assert_eq!(
        rec_a, rec_b,
        "same seed + same FaultSchedule must reproduce the journal byte-for-byte"
    );
    // And the journal tap must stay passive under faults too.
    assert_eq!(fp_a, run_scenario_with(1234, Some(&sched)));
}

/// Counts what reaches an observer of the default families, or of every
/// family: spans from `on_start`, and kind-1 journal records.
#[derive(Default)]
struct Listener {
    every: bool,
    start_spans: u64,
    kind1: u64,
}

impl NetObserver for Listener {
    fn wants(&self, family: Family) -> bool {
        self.every || matches!(family, Family::Delivered | Family::Fault)
    }

    fn on_net_event(&mut self, _now: SimTime, ev: &NetEvent<'_>) {
        match ev {
            NetEvent::Span(e) if e.phase == SpanPhase::JobStart => self.start_spans += 1,
            NetEvent::Journal(r) if r.kind == 1 => self.kind1 += 1,
            _ => {}
        }
    }
}

/// A node learns that spans or the journal have a subscriber only when
/// one exists: a default-family observer never turns either on, so no
/// layer builds their payloads. An all-family observer does, and sees a
/// span from every `on_start` (the five starts and node 2's recovery)
/// and one kind-1 record per delivered packet. Both stay passive.
#[test]
fn nodes_hear_of_span_and_journal_subscribers_only_when_they_exist() {
    for every in [false, true] {
        let listener = Rc::new(RefCell::new(Listener {
            every,
            ..Listener::default()
        }));
        let obs: ObserverHandle = listener.clone();
        let setup = Setup {
            observers: &[obs],
            ..Setup::default()
        };
        let (fp, listened) = run_scenario_full(1234, &setup);
        assert_eq!(fp, GOLDEN, "every family: {every}");
        assert_eq!(listened, every, "every family: {every}");
        let l = listener.borrow();
        let want = if every {
            (6, GOLDEN.delivered_pkts)
        } else {
            (0, 0)
        };
        assert_eq!((l.start_spans, l.kind1), want, "every family: {every}");
    }
}
