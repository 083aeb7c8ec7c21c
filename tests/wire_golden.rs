//! Golden wire bytes: tier-1's carrier of "the encodings are
//! byte-identical".
//!
//! One seeded three-replica deployment runs a short fault schedule, a
//! controller-replica crash and recovery across a compaction boundary, a
//! range migration and a pair of directory lookups, while an observer
//! FNV-hashes `Packet::to_bytes()` of every delivered frame. The hash,
//! the per-class frame counts and the set of message tags seen are
//! pinned: a codec change that moves one byte of any message this run
//! emits, reclassifies one, or perturbs the run, fails here.
//!
//! The constants were recorded at `32721ce`, the last commit whose
//! `SwishMsg` codec was written out by hand. Re-record them (print
//! `golden_run()`) only for a change that means to alter the wire format
//! — and bump `WIRE_VERSION` with it.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::rc::Rc;
use swishmem::prelude::*;
use swishmem::{NfApp, NfDecision, RegisterSpec, SharedState, TriggerOp};
use swishmem_simnet::{FaultGen, NetEvent, NetObserver, TrafficClass};
use swishmem_wire::ethernet::ETHERNET_HEADER_LEN;
use swishmem_wire::PacketBody;

const PART: u16 = 0;
const CONN: u16 = 1;
const COUNT: u16 = 2;
const KEYS: u32 = 48;

/// Touches every register class per packet: a read of the SRO table
/// (forwarded to the tail when it hits a pending bit), a chain write to
/// the partitioned register, an EWO add, and — on odd payload lengths — a
/// write to the SRO table the next packets read.
struct MixNf;
impl NfApp for MixNf {
    fn process(&mut self, pkt: &DataPacket, _i: NodeId, st: &mut dyn SharedState) -> NfDecision {
        let key = u32::from(pkt.flow.dst_port);
        let seen = st.read(CONN, key % 4);
        st.write(PART, key, u64::from(pkt.payload_len) + seen);
        st.add(COUNT, key % 8, 1);
        if pkt.payload_len % 2 == 1 {
            st.write(CONN, key % 4, u64::from(pkt.payload_len));
        }
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

fn wpkt(port: u16, val: u16) -> DataPacket {
    DataPacket::udp(
        FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            999,
            Ipv4Addr::new(10, 0, 0, 2),
            port,
        ),
        0,
        val,
    )
}

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    hash: u64,
    frames: [u64; TrafficClass::ALL.len()],
    tags: BTreeSet<u8>,
}

struct WireHash(Golden);

impl NetObserver for WireHash {
    fn on_net_event(&mut self, _now: SimTime, ev: &NetEvent<'_>) {
        let NetEvent::Delivered { pkt, .. } = ev else {
            return;
        };
        let bytes = pkt.to_bytes();
        assert_eq!(bytes.len(), pkt.wire_len(), "{pkt:?}");
        for b in &bytes {
            self.0.hash = (self.0.hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0.frames[TrafficClass::of(pkt) as usize] += 1;
        if let PacketBody::Swish(_) = pkt.body {
            // [ethernet][version][tag]...
            self.0.tags.insert(bytes[ETHERNET_HEADER_LEN + 1]);
        }
    }
}

fn golden_run() -> Golden {
    let cfg = SwishConfig {
        ctrl_replicas: 3,
        log_compact_threshold: 4,
        ..Default::default()
    };
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(2113)
        .swish_config(cfg)
        .register(RegisterSpec::partitioned(PART, "p", KEYS))
        .register(RegisterSpec::sro(CONN, "conn", 16))
        .register(RegisterSpec::ewo_counter(COUNT, "cnt", 16))
        .build(|_| Box::new(MixNf));
    let obs = Rc::new(RefCell::new(WireHash(Golden {
        hash: 0xcbf2_9ce4_8422_2325,
        frames: [0; TrafficClass::ALL.len()],
        tags: BTreeSet::new(),
    })));
    dep.add_observer(obs.clone());
    dep.settle();
    let t0 = dep.now();
    let ms = SimDuration::millis;

    // A short seeded fault schedule over the switches and every link.
    let sw = dep.switch_ids().to_vec();
    let links = dep.fault_links();
    let sched = FaultGen::new(2113).generate(&sw, &links, ms(60), 4);
    dep.schedule_faults(t0, &sched);
    // The generator drew link faults only at this seed; a switch crash
    // and restart drives the §6.3 snapshot path.
    dep.schedule_fail(t0 + ms(30), 2);
    dep.schedule_recover(t0 + ms(45), 2);
    // A follower replica sleeps through enough decrees to fall below the
    // compaction boundary, so its catch-up is a `CtrlSnap`.
    dep.schedule_ctrl_fail(t0 + ms(4), 1);
    dep.schedule_ctrl_recover(t0 + ms(150), 1);
    // Range migrations, ping-ponged to push decrees through the log.
    for r in 0..3u64 {
        let t = t0 + ms(8) + ms(60).times(r);
        dep.schedule_trigger(t, TriggerOp::Move, PART, 0, sw[1 + (r as usize % 2)]);
        dep.schedule_trigger(t, TriggerOp::Move, PART, 32, sw[r as usize % 2]);
    }
    // The directory extension's lookup/reply pair.
    dep.dir_lookup(t0 + ms(3), 2, PART, 5);
    dep.dir_lookup(t0 + ms(90), 0, PART, 40);

    for i in 0..240u64 {
        let key = (i * 7 % u64::from(KEYS)) as u16;
        dep.inject(
            t0 + SimDuration::micros(i * 700),
            (i % 3) as usize,
            0,
            wpkt(key, 100 + i as u16),
        );
    }
    // A same-key burst across switches, 10 µs apart: some reads land on
    // a pending bit and are tunneled to the tail.
    for i in 0..30u64 {
        dep.inject(
            t0 + ms(20) + SimDuration::micros(i * 10),
            (i % 3) as usize,
            0,
            wpkt(9, 201),
        );
    }
    dep.run_for(ms(260));
    drop(dep);
    Rc::try_unwrap(obs).ok().expect("sole owner").into_inner().0
}

#[test]
fn wire_bytes_of_a_seeded_run_are_pinned() {
    let got = golden_run();
    let want = Golden {
        hash: 14_617_182_278_708_941_715,
        // In `TrafficClass::ALL` order: data, chain writes, acks + clears,
        // EWO sync, snapshot, tunneled reads, migration chunks, management.
        frames: [519, 703, 850, 1197, 4, 1, 3, 1132],
        // Every tag of the message table: no message is out of this
        // run's reach, so each row's bytes are under the hash.
        tags: (0x01..=0x1a).collect(),
    };
    assert_eq!(got, want, "wire bytes moved");
}
