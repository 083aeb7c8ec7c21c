//! Allocation budget of the per-packet paths (DESIGN.md "Performance
//! model": a per-packet path borrows pooled buffers) and of the
//! verification regime around them (wire check, oracles, spans, journal).
//!
//! A counting `#[global_allocator]` is armed only around the measured
//! region, and only on the measuring thread, so the parallel test runner
//! and each test's own set-up and warm-up stay out of the count. Growth
//! reallocations count too: `GlobalAlloc::realloc` defaults to
//! `alloc` + copy + `dealloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use swishmem::oracle::{OracleConfig, OracleSuite};
use swishmem::prelude::*;
use swishmem::{NfApp, NfDecision, RegisterSpec, SharedState};
use swishmem_simnet::{Ctx, LinkParams, Node, RelayNode, Simulator};
use swishmem_wire::l4::TcpFlags;
use swishmem_wire::swish::{PendingClear, SyncEntry, SyncUpdate, WriteAck, WriteOp, WriteRequest};
use swishmem_wire::{FlowKey, Packet, PacketBody, SwishMsg, TraceId};

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only const-initialised
// thread-locals without destructors, which never allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.with(|c| c.set(c.get() + 1));
        }
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` performs on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

const PACKETS: u64 = 10_000;

fn data(i: u64) -> DataPacket {
    let flow = FlowKey::udp(
        Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
        4000,
        Ipv4Addr::new(10, 1, 0, (i % 64) as u8),
        9000,
    );
    DataPacket::udp(flow, 0, 22)
}

/// Re-addresses every injected frame to `sink`, so it crosses the relays.
struct Pump {
    sink: NodeId,
}

impl Node for Pump {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        ctx.send(self.sink, pkt.body);
    }
}

/// Counts arrivals without storing them.
struct Sink(Rc<Cell<u64>>);

impl Node for Sink {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {
        self.0.set(self.0.get() + 1);
    }
}

/// A pump, three relays and a sink in a chain; returns the simulator and
/// the sink's arrival counter. Frames injected at the pump (addressed to
/// it) are delivered five times on their way to the sink.
fn relay_chain() -> (Simulator, Rc<Cell<u64>>) {
    let (pump, sink) = (NodeId(0), NodeId(4));
    let path: Vec<NodeId> = (0..=4).map(NodeId).collect();
    let arrived = Rc::new(Cell::new(0));
    let mut sim = Simulator::new(7);
    sim.add_node(pump, Box::new(Pump { sink }));
    for &relay in &path[1..4] {
        sim.add_node(relay, Box::new(RelayNode));
    }
    sim.add_node(sink, Box::new(Sink(arrived.clone())));
    sim.topology_mut().chain(&path, LinkParams::datacenter());
    for hop in path.windows(2).take(3) {
        sim.topology_mut().set_route(hop[0], sink, hop[1]);
    }
    (sim, arrived)
}

/// Inject `PACKETS` frames at the pump, cycling through `bodies`, and run
/// until they have drained.
fn relay_round(sim: &mut Simulator, bodies: &[PacketBody]) {
    let pump = NodeId(0);
    let t0 = sim.now();
    for (i, body) in (0..PACKETS).zip(bodies.iter().cycle()) {
        let at = t0 + SimDuration::nanos(1_000 + i * 100);
        sim.inject(
            at,
            Packet {
                src: pump,
                dst: pump,
                body: body.clone(),
            },
        );
    }
    sim.run_until_quiescent(t0 + SimDuration::millis(100));
}

#[test]
fn bare_event_core_allocates_nothing_per_event() {
    let (mut sim, arrived) = relay_chain();
    let bodies: Vec<PacketBody> = (0..PACKETS).map(|i| PacketBody::Data(data(i))).collect();
    // Warm-up: grows the event slab, the heap and the command scratch to
    // the depth the measured round needs.
    relay_round(&mut sim, &bodies);
    let events_before = sim.events_processed();
    let allocs = allocations_in(|| relay_round(&mut sim, &bodies));
    assert_eq!(arrived.get(), 2 * PACKETS, "every frame crossed the chain");
    assert_eq!(sim.events_processed() - events_before, 5 * PACKETS);
    assert_eq!(allocs, 0, "the bare event core allocated after warm-up");
}

/// The wire check on the bare engine: every delivered frame is encoded
/// into the engine's pooled scratch and decoded back. A fixed-width frame
/// costs the allocator nothing; a `Sync` costs the one shared entry slice
/// its decode builds.
#[test]
fn wire_check_allocates_only_the_entries_of_a_sync() {
    let tcp = FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, 1),
        4000,
        Ipv4Addr::new(10, 1, 0, 2),
        80,
    );
    let fixed = [
        PacketBody::Swish(SwishMsg::Write(WriteRequest {
            write_id: 42,
            writer: NodeId(1),
            epoch: 7,
            reg: 0,
            key: 9,
            seq: 3,
            op: WriteOp::Set(0xdead),
            trace: TraceId::new(NodeId(1), 9),
        })),
        PacketBody::Swish(SwishMsg::Ack(WriteAck {
            write_id: 42,
            writer: NodeId(1),
            reg: 0,
            key: 9,
            seq: 3,
            trace: TraceId::new(NodeId(1), 9),
        })),
        PacketBody::Swish(SwishMsg::Clear(PendingClear {
            epoch: 7,
            reg: 0,
            key: 9,
            seq: 3,
        })),
        PacketBody::Data(DataPacket::tcp(tcp, TcpFlags::data(), 77, 120)),
        PacketBody::Data(data(5)),
    ];
    let entry = |key| SyncEntry {
        key,
        slot: 1,
        version: 8,
        value: u64::from(key),
    };
    let sync = [PacketBody::Swish(SwishMsg::Sync(SyncUpdate {
        reg: 0,
        origin: NodeId(1),
        trace: TraceId::NONE,
        entries: (0..16).map(entry).collect(),
    }))];

    let (mut sim, arrived) = relay_chain();
    sim.set_wire_check(true);
    // Warm-up with the longer frames, so the pooled scratch has grown.
    relay_round(&mut sim, &sync);
    let delivered = |sim: &Simulator| sim.stats().delivered_total().packets;

    let before = delivered(&sim);
    let allocs = allocations_in(|| relay_round(&mut sim, &fixed));
    assert_eq!(delivered(&sim) - before, 5 * PACKETS);
    assert_eq!(allocs, 0, "a fixed-width frame's wire check allocated");

    let before = delivered(&sim);
    let allocs = allocations_in(|| relay_round(&mut sim, &sync));
    assert_eq!(delivered(&sim) - before, 5 * PACKETS);
    assert!(
        allocs <= 5 * PACKETS,
        "{allocs} allocations checking {} Sync frames",
        5 * PACKETS
    );
    assert_eq!(arrived.get(), 3 * PACKETS);
}

/// Write-intensive NF: one counter add per packet.
struct CountNf;

impl NfApp for CountNf {
    fn process(&mut self, pkt: &DataPacket, _: NodeId, st: &mut dyn SharedState) -> NfDecision {
        st.add(0, u32::from(pkt.flow.dst) % 64, 1);
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

/// Read-intensive NF on its hit path: one read, no write.
struct LookupNf;

impl NfApp for LookupNf {
    fn process(&mut self, pkt: &DataPacket, _: NodeId, st: &mut dyn SharedState) -> NfDecision {
        let backend = st.read(0, u32::from(pkt.flow.dst) % 64);
        NfDecision::Forward {
            dst: NodeId(HOST_BASE + (backend % 2) as u16),
            pkt: *pkt,
        }
    }
}

/// Feed one round of `PACKETS` packets round-robin over three switches
/// and run until they have drained.
fn round(dep: &mut Deployment) {
    let t0 = dep.now();
    for i in 0..PACKETS {
        let at = t0 + SimDuration::nanos(1_000 + i * 500);
        dep.inject(at, (i % 3) as usize, (i % 2) as usize, data(i));
    }
    dep.run_for(SimDuration::millis(10));
}

#[test]
fn ewo_write_path_stays_within_two_allocations_per_packet() {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(2)
        .seed(11)
        .register(RegisterSpec::ewo_counter(0, "cnt", 64))
        .build(|_| Box::new(CountNf));
    dep.settle();
    round(&mut dep);
    let mirrors_before = dep.sum_metric(|m| m.dp.mirror_packets);
    let allocs = allocations_in(|| round(&mut dep));
    // The measured region really was the write path: every packet counted
    // at its ingress switch and mirrored to the two peers.
    let counted: u64 = (0..64).map(|k| dep.peek(0, 0, k)).sum();
    assert_eq!(counted, 2 * PACKETS);
    assert_eq!(
        dep.sum_metric(|m| m.dp.mirror_packets) - mirrors_before,
        PACKETS
    );
    // One shared mirror body per packet, plus the background ticks
    // (heartbeats, periodic sync) and the hosts' growing recordings.
    assert!(
        allocs <= 2 * PACKETS,
        "{allocs} allocations for {PACKETS} EWO packets"
    );
}

#[test]
fn sro_read_hit_path_stays_within_one_allocation_per_packet() {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(2)
        .seed(11)
        .register(RegisterSpec::sro(0, "conn", 64))
        .build(|_| Box::new(LookupNf));
    dep.settle();
    round(&mut dep);
    let allocs = allocations_in(|| round(&mut dep));
    assert_eq!(dep.sum_metric(|m| m.dp.reads_local), 2 * PACKETS);
    assert_eq!(dep.sum_metric(|m| m.dp.sro_jobs_punted), 0);
    let delivered = dep.recording(0).borrow().len() + dep.recording(1).borrow().len();
    assert_eq!(delivered as u64, 2 * PACKETS);
    assert!(
        allocs <= PACKETS,
        "{allocs} allocations for {PACKETS} SRO read hits"
    );
}

/// Chain-writing NF: one `Set` per packet, so every packet punts.
struct WriteNf;

impl NfApp for WriteNf {
    fn process(&mut self, pkt: &DataPacket, _: NodeId, st: &mut dyn SharedState) -> NfDecision {
        st.write(0, u32::from(pkt.flow.dst) % 16, u64::from(pkt.payload_len));
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

const WRITES: u64 = 2_000;

/// Feed `WRITES` chain writes round-robin over three switches, one every
/// 12 us (the benchmark sweep's rate, inside the control plane's
/// capacity).
fn inject_writes(dep: &mut Deployment) {
    let t0 = dep.now();
    for i in 0..WRITES {
        let at = t0 + SimDuration::micros(1 + i * 12);
        dep.inject(at, (i % 3) as usize, 0, data(i));
    }
}

#[test]
fn sro_write_path_stays_within_five_allocations_per_write() {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(11)
        .register(RegisterSpec::sro(0, "t", 16))
        .build(|_| Box::new(WriteNf));
    dep.settle();
    let write_round = |dep: &mut Deployment| {
        inject_writes(dep);
        dep.run_for(SimDuration::millis(40));
    };
    write_round(&mut dep);
    let before = (
        dep.sum_metric(|m| m.dp.sro_jobs_punted),
        dep.sum_metric(|m| m.dp.chain_applies),
        dep.sum_metric(|m| m.cp.jobs_completed),
    );
    let allocs = allocations_in(|| write_round(&mut dep));
    // The measured region really was punt -> chain -> ack -> clear, for
    // every write, with nothing retried or shed.
    assert_eq!(dep.sum_metric(|m| m.dp.sro_jobs_punted) - before.0, WRITES);
    assert_eq!(
        dep.sum_metric(|m| m.dp.chain_applies) - before.1,
        3 * WRITES
    );
    assert_eq!(dep.sum_metric(|m| m.cp.jobs_completed) - before.2, WRITES);
    assert_eq!(dep.sum_metric(|m| m.cp.retries), 0);
    // Four per write, none of them a chain read: the write set moved into
    // the punt item, the boxes punting the job and then its ack to the
    // control plane, and the control plane's retry-timer request.
    assert!(
        allocs <= 5 * WRITES,
        "{allocs} allocations for {WRITES} SRO chain writes"
    );
}

#[test]
fn fault_sweep_shaped_run_stays_within_nine_allocations_per_write() {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(11)
        .ctrl_replicas(3)
        .register(RegisterSpec::sro(0, "t", 16))
        .build(|_| Box::new(WriteNf));
    dep.sim.set_wire_check(true);
    let _spans = dep.attach_tracing(1 << 17);
    let journal = dep.attach_journal(1 << 17);
    dep.settle();
    let t0 = dep.now();
    let horizon = SimDuration::millis(60);
    let cfg = OracleConfig::new(t0 + horizon);
    let mut suite = OracleSuite::attach(&mut dep, cfg);
    suite.attach_journal(journal);
    let end = t0 + horizon + cfg.convergence_grace + SimDuration::millis(100);
    let mut verdict = Ok(());
    let allocs = allocations_in(|| {
        inject_writes(&mut dep);
        verdict = suite.run(&mut dep, end);
    });
    assert!(verdict.is_ok(), "{:?}", suite.violation_report());
    assert_eq!(dep.sum_metric(|m| m.cp.jobs_completed), WRITES);
    // The four of the chain-write path, plus this run's ~620 oracle polls
    // (register read-backs, the controller's view and event log) spread
    // over the writes. The run is seeded, so the count repeats exactly;
    // the margin is for later changes.
    assert!(
        allocs <= 9 * WRITES,
        "{allocs} allocations for {WRITES} writes under the armed observer stack"
    );
}
