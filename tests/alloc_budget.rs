//! Allocation budget of the per-packet paths (DESIGN.md "Performance
//! model": a per-packet path borrows pooled buffers).
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
use swishmem::prelude::*;
use swishmem::{NfApp, NfDecision, RegisterSpec, SharedState};
use swishmem_simnet::{Ctx, LinkParams, Node, RelayNode, Simulator};
use swishmem_wire::{FlowKey, Packet};

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

#[test]
fn bare_event_core_allocates_nothing_per_event() {
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
    let round = |sim: &mut Simulator| {
        let t0 = sim.now();
        for i in 0..PACKETS {
            let at = t0 + SimDuration::nanos(1_000 + i * 100);
            sim.inject(at, Packet::data(pump, pump, data(i)));
        }
        sim.run_until_quiescent(t0 + SimDuration::millis(100));
    };
    // Warm-up: grows the event slab, the heap and the command scratch to
    // the depth the measured round needs.
    round(&mut sim);
    let events_before = sim.events_processed();
    let allocs = allocations_in(|| round(&mut sim));
    assert_eq!(arrived.get(), 2 * PACKETS, "every frame crossed the chain");
    assert_eq!(sim.events_processed() - events_before, 5 * PACKETS);
    assert_eq!(allocs, 0, "the bare event core allocated after warm-up");
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
