//! EWO-protocol edge cases at the unit level: merges, periodic sync
//! batching, and eager-mirror behaviour of the data-plane program driven
//! directly with crafted messages.

#![allow(clippy::field_reassign_with_default)] // configs read clearer as overrides

use std::net::Ipv4Addr;
use std::rc::Rc;
use swishmem::api::{ForwardAll, NfApp};
use swishmem::layer::cp::SwishCp;
use swishmem::layer::program::SwishProgram;
use swishmem::layer::{CpItem, Handles, SYNC_PKTGEN_TOKEN};
use swishmem::probe::CounterNf;
use swishmem::{ClockMode, RegisterSpec, SwishConfig, SwitchClock};
use swishmem_pisa::{ControlApp, CpCtx, DataPlane, DataPlaneProgram, DpView, Effect, Effects};
use swishmem_simnet::{SimDuration, SimTime};
use swishmem_wire::swish::{ChainConfig, SyncEntry, SyncUpdate, TraceId};
use swishmem_wire::{DataPacket, FlowKey, NodeId, Packet, PacketBody, SwishMsg};

struct Rig {
    dp: DataPlane,
    prog: SwishProgram,
}

fn rig(me: u16, cfg: SwishConfig, counter_nf: bool) -> Rig {
    rig_with(me, cfg, RegisterSpec::ewo_counter(0, "c", 64), counter_nf)
}

fn rig_with(me: u16, cfg: SwishConfig, spec: RegisterSpec, counter_nf: bool) -> Rig {
    rig_of(4, me, cfg, spec, counter_nf)
}

/// Switch `me` of an `n`-switch group, which its control plane has
/// adopted from the controller's epoch-1 `ChainConfig`.
fn rig_of(n: u16, me: u16, cfg: SwishConfig, spec: RegisterSpec, counter_nf: bool) -> Rig {
    let mut dp = DataPlane::standard();
    let handles = Rc::new(Handles::build(&mut dp, &[spec], &cfg, n.into()).unwrap());
    let config = SwishMsg::Chain(ChainConfig {
        epoch: 1,
        chain: (0..n).map(NodeId).collect(),
        learners: vec![],
    });
    let (mut eff, mut timers) = (Effects::new(), Vec::new());
    let mut cp = SwishCp::new(NodeId(me), cfg, vec![NodeId(100)], handles.clone());
    let mut ctx = CpCtx::new(SimTime::ZERO, &mut dp, &mut eff, &mut timers);
    cp.on_item(CpItem::Proto(config), &mut ctx);
    let clock = SwitchClock::new(NodeId(me), ClockMode::Synced { max_skew_ns: 0 }, 0);
    let app: Box<dyn NfApp> = if counter_nf {
        Box::new(CounterNf)
    } else {
        Box::new(ForwardAll { dst: NodeId(1000) })
    };
    let prog = SwishProgram::new(NodeId(me), cfg, handles, app, clock);
    Rig { dp, prog }
}

fn deliver(r: &mut Rig, pkt: Packet, at_ns: u64) -> Vec<Effect<CpItem>> {
    let mut eff = Effects::new();
    {
        let mut view = DpView::new(&mut r.dp, SimTime(at_ns));
        r.prog.on_packet(pkt, &mut view, &mut eff);
    }
    eff.drain().collect()
}

fn pktgen(r: &mut Rig, at_ns: u64) -> Vec<Effect<CpItem>> {
    let mut eff = Effects::new();
    {
        let mut view = DpView::new(&mut r.dp, SimTime(at_ns));
        r.prog.on_pktgen(SYNC_PKTGEN_TOKEN, &mut view, &mut eff);
    }
    eff.drain().collect()
}

fn data(port: u16) -> Packet {
    Packet::data(
        NodeId(9),
        NodeId(0),
        DataPacket::udp(
            FlowKey::udp(
                Ipv4Addr::new(1, 1, 1, 1),
                1,
                Ipv4Addr::new(2, 2, 2, 2),
                port,
            ),
            0,
            16,
        ),
    )
}

fn sync(origin: u16, entries: Vec<SyncEntry>) -> Packet {
    Packet::swish(
        NodeId(origin),
        NodeId(0),
        SwishMsg::Sync(SyncUpdate {
            reg: 0,
            origin: NodeId(origin),
            trace: TraceId::NONE,
            entries: entries.into(),
        }),
    )
}

fn entry(key: u32, slot: u8, version: u64, value: u64) -> SyncEntry {
    SyncEntry {
        key,
        slot,
        version,
        value,
    }
}

fn peek(r: &Rig, key: u32) -> u64 {
    r.prog.peek(&r.dp, 0, key, SimTime(0))
}

#[test]
fn merge_is_idempotent_at_the_register_level() {
    let mut r = rig(0, SwishConfig::default(), false);
    let e = entry(3, 2, 5, 50);
    deliver(&mut r, sync(2, vec![e]), 100);
    assert_eq!(peek(&r, 3), 50);
    assert_eq!(r.prog.metrics().merge_applied, 1);
    // Replaying the identical update changes nothing.
    deliver(&mut r, sync(2, vec![e]), 200);
    assert_eq!(peek(&r, 3), 50);
    assert_eq!(r.prog.metrics().merge_applied, 1);
    assert_eq!(r.prog.metrics().merge_entries, 2);
}

#[test]
fn stale_slot_updates_never_regress_the_counter() {
    let mut r = rig(0, SwishConfig::default(), false);
    deliver(&mut r, sync(2, vec![entry(3, 2, 9, 90)]), 100);
    // An old view of the same slot must not shrink it.
    deliver(&mut r, sync(1, vec![entry(3, 2, 4, 40)]), 200);
    assert_eq!(peek(&r, 3), 90);
}

#[test]
fn relayed_sync_carries_third_party_slots() {
    // Periodic sync relays ALL slots a switch knows, not just its own:
    // switch 0 learns slot 2's value from switch 1's relay.
    let mut r = rig(0, SwishConfig::default(), false);
    deliver(&mut r, sync(1, vec![entry(7, 2, 3, 30)]), 100);
    assert_eq!(peek(&r, 7), 30);
}

/// Deliver the one-entry `Sync` `e` at `at_ns` and assert that it is
/// rejected: `merge_rejected` rises by one and no cell changes.
fn assert_rejected(r: &mut Rig, e: SyncEntry, at_ns: u64) {
    let cells = format!("{:?}", r.dp);
    let rejected = r.prog.metrics().merge_rejected;
    deliver(r, sync(2, vec![e]), at_ns);
    assert_eq!(r.prog.metrics().merge_rejected, rejected + 1, "{e:?}");
    assert_eq!(format!("{:?}", r.dp), cells, "{e:?} changed a cell");
}

#[test]
fn sync_entry_naming_a_slot_past_the_group_is_rejected() {
    // n switches have counter slots 0..n. Slot n must not wrap into
    // slot 0 (switch 0's counter), where the max-merge would keep it
    // raised for the rest of the run; its well-formed neighbour merges.
    let mut r = rig(1, SwishConfig::default(), false);
    deliver(
        &mut r,
        sync(2, vec![entry(3, 4, 9, 90), entry(3, 2, 9, 5)]),
        100,
    );
    assert_eq!(peek(&r, 3), 5);
    let m = r.prog.metrics();
    assert_eq!(m.merge_rejected, 1);
    assert_eq!((m.merge_entries, m.merge_applied), (1, 1));
    // One case per malformed entry: every slot from n through 255 on
    // n = 1..=4 switches, over a live cell in slot 0.
    for n in 1..=4u8 {
        let spec = RegisterSpec::ewo_counter(0, "c", 64);
        let mut r = rig_of(n.into(), 0, SwishConfig::default(), spec, true);
        deliver(&mut r, data(3), 100);
        for slot in n..=u8::MAX {
            assert_rejected(&mut r, entry(3, slot, 9, 90), 200);
        }
    }
    // A Windowed epoch past the receiver's, in its own slot.
    let spec = RegisterSpec::ewo_windowed(0, "w", 64, SimDuration::micros(1));
    let mut r = rig_with(0, SwishConfig::default(), spec, true);
    deliver(&mut r, data(3), 100);
    assert_rejected(&mut r, entry(3, 0, 1_000_000, 0), 600);
}

#[test]
fn windowed_sync_from_a_future_epoch_is_rejected() {
    // Sim time only moves forward, so a real sender's epoch is never
    // ahead of the receiver's. Merged, this forged entry would hold every
    // later local add in epoch 1,000,000, out of each window's reads.
    let spec = RegisterSpec::ewo_windowed(0, "w", 64, SimDuration::micros(1));
    let mut r = rig_with(0, SwishConfig::default(), spec, true);
    deliver(&mut r, sync(2, vec![entry(3, 0, 1_000_000, 0)]), 600);
    assert_eq!(r.prog.metrics().merge_rejected, 1);
    for at_ns in [700, 1_700, 2_700, 3_700] {
        deliver(&mut r, data(3), at_ns);
        let read = r.prog.peek(&r.dp, 0, 3, SimTime(at_ns));
        assert_eq!(read, 1, "the add at {at_ns} ns");
    }
}

#[test]
fn windowed_counter_rolls_its_epoch_and_merges_within_it() {
    // A 1 µs window: local adds in epoch 0, one add in epoch 1 restarts
    // the count, then a sync merges by the (epoch, count) order.
    let spec = RegisterSpec::ewo_windowed(0, "w", 64, SimDuration::micros(1));
    let mut r = rig_with(0, SwishConfig::default(), spec, true);
    let peek_at = |r: &Rig, ns| r.prog.peek(&r.dp, 0, 3, SimTime(ns));
    deliver(&mut r, data(3), 500);
    deliver(&mut r, data(3), 900);
    assert_eq!(peek_at(&r, 900), 2);
    deliver(&mut r, data(3), 1_500);
    assert_eq!(peek_at(&r, 1_500), 1);
    // A peer's slot in this epoch, a lower count for the own slot, and a
    // count from the past epoch: the first and last change their cells.
    let entries = vec![entry(3, 2, 1, 4), entry(3, 0, 1, 0), entry(3, 1, 0, 9)];
    deliver(&mut r, sync(2, entries), 1_600);
    let m = r.prog.metrics();
    assert_eq!((m.merge_entries, m.merge_applied), (3, 2));
    // The past-epoch slot reads 0; the next epoch reads nothing at all.
    assert_eq!(peek_at(&r, 1_600), 5);
    assert_eq!(peek_at(&r, 2_500), 0);
}

#[test]
fn forged_sync_value_wraps_the_counter_read() {
    // u64::MAX in another switch's slot on top of one local increment:
    // the slot sum wraps to 0 instead of panicking (wire input must never
    // panic a switch).
    let mut r = rig(0, SwishConfig::default(), true);
    deliver(&mut r, data(3), 100);
    deliver(&mut r, sync(2, vec![entry(3, 2, 1, u64::MAX)]), 200);
    assert_eq!(peek(&r, 3), 0);
}

#[test]
fn forged_sync_into_the_own_slot_wraps_the_next_add() {
    // A forged maximal cell in this switch's own slot: the next local
    // increment wraps both the version and the count to 0, and the eager
    // mirror ships exactly that cell.
    let mut r = rig(0, SwishConfig::default(), true);
    deliver(&mut r, sync(2, vec![entry(3, 0, u64::MAX, u64::MAX)]), 100);
    let fx = deliver(&mut r, data(3), 200);
    assert_eq!(peek(&r, 3), 0);
    let mirrored = fx.iter().find_map(|e| match e {
        Effect::Multicast {
            body: PacketBody::Swish(SwishMsg::Sync(u)),
            ..
        } => Some(u.entries[0]),
        _ => None,
    });
    assert_eq!(mirrored, Some(entry(3, 0, 0, 0)));
}

#[test]
#[should_panic(expected = "has no slot in counter register")]
fn a_switch_without_a_counter_slot_is_refused_at_build() {
    rig(4, SwishConfig::default(), false);
}

#[test]
fn eager_mirror_batches_until_threshold() {
    let mut cfg = SwishConfig::default();
    cfg.batch_size = 3;
    let mut r = rig(0, cfg, true);
    // Two writes: below the batch threshold, nothing mirrored yet.
    assert!(!deliver(&mut r, data(1), 100)
        .iter()
        .any(|e| matches!(e, Effect::Multicast { .. })));
    assert!(!deliver(&mut r, data(2), 200)
        .iter()
        .any(|e| matches!(e, Effect::Multicast { .. })));
    // Third write flushes one batched Sync with 3 entries.
    let fx = deliver(&mut r, data(3), 300);
    let entries = fx
        .iter()
        .find_map(|e| match e {
            Effect::Multicast {
                body: PacketBody::Swish(SwishMsg::Sync(u)),
                ..
            } => Some(u.entries.len()),
            _ => None,
        })
        .expect("batch flush expected");
    assert_eq!(entries, 3);
}

#[test]
fn pktgen_flushes_lingering_batch() {
    let mut cfg = SwishConfig::default();
    cfg.batch_size = 100; // never reached by traffic
    let mut r = rig(0, cfg, true);
    deliver(&mut r, data(1), 100);
    // The pending entry must not linger past the next sync tick.
    let fx = pktgen(&mut r, 1_000_000);
    let mirrored = fx.iter().any(|e| {
        matches!(
            e,
            Effect::Multicast {
                body: PacketBody::Swish(SwishMsg::Sync(_)),
                ..
            }
        )
    });
    assert!(mirrored, "pktgen must flush the batch buffer");
}

#[test]
fn periodic_sync_walks_only_nonzero_state() {
    let mut r = rig(0, SwishConfig::default(), true);
    // Nothing written yet: the sync tick emits no packets.
    assert!(pktgen(&mut r, 1_000).is_empty());
    // After one write, the tick ships exactly the live entries.
    deliver(&mut r, data(5), 2_000);
    let fx = pktgen(&mut r, 10_000);
    let entries: usize = fx
        .iter()
        .filter_map(|e| match e {
            Effect::AnycastRandom {
                body: PacketBody::Swish(SwishMsg::Sync(u)),
                ..
            } => Some(u.entries.len()),
            _ => None,
        })
        .sum();
    assert_eq!(entries, 1, "exactly the one live (key, slot) pair");
}

#[test]
fn ewo_writes_never_touch_the_control_plane() {
    let mut r = rig(0, SwishConfig::default(), true);
    let fx = deliver(&mut r, data(1), 100);
    assert!(!fx.iter().any(|e| matches!(e, Effect::Punt { .. })));
    // Output packet released immediately.
    assert!(fx
        .iter()
        .any(|e| matches!(e, Effect::Forward { dst, body: PacketBody::Data(_) } if dst.0 == 1000)));
}

#[test]
fn reset_clears_cursor_batch_and_metrics() {
    let mut cfg = SwishConfig::default();
    cfg.batch_size = 100;
    let mut r = rig(0, cfg, true);
    deliver(&mut r, data(1), 100);
    assert_eq!(r.prog.metrics().ewo_writes, 1);
    // A fail-stop failure wipes data plane AND program state together
    // (pisa's Switch::on_fail does both); mirror that here.
    r.dp.clear_all();
    r.prog.reset();
    assert_eq!(r.prog.metrics().ewo_writes, 0);
    // No stale batch or register state resurfaces after the reset.
    assert!(pktgen(&mut r, 1_000_000).is_empty());
}
