//! Chain-protocol edge cases, pinned at the unit level: the SwiShmem
//! data-plane program and its control plane are driven directly with
//! crafted protocol messages and their effects inspected — no simulator
//! in the loop.

use std::net::Ipv4Addr;
use std::rc::Rc;
use swishmem::api::{NfApp, NfDecision, SharedState};
use swishmem::layer::cp::SwishCp;
use swishmem::layer::program::SwishProgram;
use swishmem::layer::{CpItem, Handles, StagedWrite};
use swishmem::{ClockMode, RegisterSpec, SwishConfig, SwitchClock};
use swishmem_pisa::{ControlApp, CpCtx, DataPlane, DataPlaneProgram, DpView, Effect, Effects};
use swishmem_simnet::{SimDuration, SimTime};
use swishmem_wire::swish::{
    ChainConfig, MigrateBegin, OwnershipCommit, PendingClear, TraceId, WriteAck, WriteOp,
    WriteRequest,
};
use swishmem_wire::{DataPacket, FlowKey, NodeId, Packet, PacketBody, SwishMsg};

/// Reads key 5 of register 0, then forwards the packet to host 1000.
struct ReadKey5;

impl NfApp for ReadKey5 {
    fn process(&mut self, pkt: &DataPacket, _: NodeId, st: &mut dyn SharedState) -> NfDecision {
        st.read(0, 5);
        NfDecision::Forward {
            dst: NodeId(1000),
            pkt: *pkt,
        }
    }
}

struct Rig {
    dp: DataPlane,
    prog: SwishProgram,
    cp: SwishCp,
}

/// What one control-plane step emitted: its effects, and the timers it
/// armed as `(delay, token)`.
type CpStep = (Vec<Effect<CpItem>>, Vec<(SimDuration, u64)>);

/// Run one control-plane step of `r` at `at_ns`.
fn cp_step(
    r: &mut Rig,
    at_ns: u64,
    f: impl FnOnce(&mut SwishCp, &mut CpCtx<'_, CpItem>),
) -> CpStep {
    let (mut eff, mut timers) = (Effects::new(), Vec::new());
    f(
        &mut r.cp,
        &mut CpCtx::new(SimTime(at_ns), &mut r.dp, &mut eff, &mut timers),
    );
    (eff.drain().collect(), timers)
}

fn rig(me: u16, chain: &[u16], learners: &[u16]) -> Rig {
    rig_with(RegisterSpec::sro(0, "t", 64), me, chain, learners)
}

/// Switch `me` holding register 0 as `spec`, with no view adopted: its
/// config block is empty, as at a restart.
fn bare_rig(spec: RegisterSpec, me: u16) -> Rig {
    let cfg = SwishConfig::default();
    let mut dp = DataPlane::standard();
    let handles = Rc::new(Handles::build(&mut dp, &[spec], &cfg, 4).unwrap());
    let clock = SwitchClock::new(NodeId(me), ClockMode::Synced { max_skew_ns: 0 }, 0);
    let app = Box::new(ReadKey5);
    let prog = SwishProgram::new(NodeId(me), cfg, handles.clone(), app, clock);
    let cp = SwishCp::new(NodeId(me), cfg, vec![NodeId(100)], handles);
    Rig { dp, prog, cp }
}

/// Switch `me` holding register 0 as `spec`, with `chain` and `learners`
/// installed the way a switch adopts a view: its control plane takes the
/// controller's epoch-1 `ChainConfig`.
fn rig_with(spec: RegisterSpec, me: u16, chain: &[u16], learners: &[u16]) -> Rig {
    let mut r = bare_rig(spec, me);
    let config = SwishMsg::Chain(ChainConfig {
        epoch: 1,
        chain: chain.iter().map(|&n| NodeId(n)).collect(),
        learners: learners.iter().map(|&n| NodeId(n)).collect(),
    });
    cp_step(&mut r, 0, |cp, ctx| cp.on_item(CpItem::Proto(config), ctx));
    r
}

fn write_req(writer: u16, key: u32, seq: u64, value: u64) -> Packet {
    Packet::swish(
        NodeId(writer),
        NodeId(0),
        SwishMsg::Write(WriteRequest {
            write_id: 1,
            writer: NodeId(writer),
            epoch: 1,
            reg: 0,
            key,
            seq,
            op: WriteOp::Set(value),
            trace: TraceId::NONE,
        }),
    )
}

fn deliver(r: &mut Rig, pkt: Packet) -> Vec<Effect<CpItem>> {
    let mut eff = Effects::new();
    {
        let mut view = DpView::new(&mut r.dp, SimTime(1_000));
        r.prog.on_packet(pkt, &mut view, &mut eff);
    }
    eff.drain().collect()
}

fn peek(r: &Rig, key: u32) -> u64 {
    r.prog.peek(&r.dp, 0, key, SimTime(1_000))
}

#[test]
fn head_sequences_and_forwards() {
    let mut r = rig(0, &[0, 1, 2], &[]);
    let fx = deliver(&mut r, write_req(0, 5, 0, 42));
    assert_eq!(peek(&r, 5), 42);
    // Forwarded to the successor with the assigned sequence number.
    let fwd: Vec<_> = fx
        .iter()
        .filter_map(|e| match e {
            Effect::Forward {
                dst,
                body: PacketBody::Swish(SwishMsg::Write(w)),
            } => Some((*dst, w.seq)),
            _ => None,
        })
        .collect();
    assert_eq!(fwd, vec![(NodeId(1), 1)]);
    assert_eq!(r.prog.metrics().chain_applies, 1);
}

#[test]
fn non_head_drops_unsequenced_requests() {
    // A seq=0 request reaching a mid-chain switch (stale writer routing)
    // must be dropped, not sequenced.
    let mut r = rig(1, &[0, 1, 2], &[]);
    let fx = deliver(&mut r, write_req(3, 5, 0, 42));
    assert!(fx.is_empty());
    assert_eq!(peek(&r, 5), 0);
    assert_eq!(r.prog.metrics().chain_stale, 1);
}

#[test]
fn non_member_ignores_chain_writes() {
    let mut r = rig(3, &[0, 1, 2], &[]); // switch 3 not in the chain
    let fx = deliver(&mut r, write_req(0, 5, 7, 42));
    assert!(fx.is_empty());
    assert_eq!(peek(&r, 5), 0);
}

#[test]
fn monotonic_apply_rejects_stale_and_accepts_ahead() {
    let mut r = rig(1, &[0, 1, 2], &[]);
    deliver(&mut r, write_req(0, 5, 3, 30));
    assert_eq!(peek(&r, 5), 30);
    // A duplicate / older sequence number is dropped.
    let fx = deliver(&mut r, write_req(0, 5, 2, 20));
    assert!(fx.is_empty());
    assert_eq!(peek(&r, 5), 30);
    assert_eq!(r.prog.metrics().chain_stale, 1);
    // A gap (seq 7 after 3) applies: the skipped writes were never acked
    // and their writers retry through the head with fresh numbers.
    deliver(&mut r, write_req(0, 5, 7, 70));
    assert_eq!(peek(&r, 5), 70);
}

#[test]
fn tail_acks_clears_and_feeds_learners() {
    let mut r = rig(2, &[0, 1, 2], &[3]);
    let fx = deliver(&mut r, write_req(0, 5, 4, 40));
    assert_eq!(peek(&r, 5), 40);
    let mut acked = None;
    let mut cleared = false;
    let mut to_learner = None;
    for e in &fx {
        match e {
            Effect::Forward {
                dst,
                body: PacketBody::Swish(SwishMsg::Ack(a)),
            } => {
                acked = Some((*dst, a.seq));
            }
            Effect::Multicast {
                body: PacketBody::Swish(SwishMsg::Clear(c)),
                ..
            } => {
                cleared = c.seq == 4;
            }
            Effect::Forward {
                dst,
                body: PacketBody::Swish(SwishMsg::Write(w)),
            } => {
                to_learner = Some((*dst, w.seq));
            }
            _ => {}
        }
    }
    assert_eq!(acked, Some((NodeId(0), 4)), "tail must ack the writer");
    assert!(cleared, "tail must multicast the pending clear");
    assert_eq!(
        to_learner,
        Some((NodeId(3), 4)),
        "tail must keep the learner fed"
    );
}

#[test]
fn ero_tail_acks_and_feeds_learners_without_a_clear() {
    // ERO keeps no pending bits, so a `Clear` would reach no replica
    // that could apply it.
    let mut r = rig_with(RegisterSpec::ero(0, "t", 64), 2, &[0, 1, 2], &[3]);
    let fx = deliver(&mut r, write_req(0, 5, 4, 40));
    assert_eq!(peek(&r, 5), 40);
    match sent(&fx)[..] {
        [(Some(NodeId(0)), SwishMsg::Ack(a)), (Some(NodeId(3)), SwishMsg::Write(w))] => {
            assert_eq!((a.seq, w.seq), (4, 4))
        }
        ref other => panic!("an ERO tail acks and feeds the learner, nothing else: {other:?}"),
    }
}

#[test]
fn learner_applies_but_produces_no_protocol_output() {
    let mut r = rig(3, &[0, 1, 2], &[3]);
    let fx = deliver(&mut r, write_req(0, 5, 4, 40));
    assert_eq!(
        peek(&r, 5),
        40,
        "learner must apply new writes during catch-up"
    );
    assert!(fx.is_empty(), "the last learner forwards to no one");
}

#[test]
fn clear_only_clears_up_to_seq() {
    let mut r = rig(1, &[0, 1, 2], &[]);
    // Two writes in flight: seq 4 then 5 (pending tracks the latest).
    deliver(&mut r, write_req(0, 5, 4, 40));
    deliver(&mut r, write_req(0, 5, 5, 50));
    // Clear for the OLDER write must not clear the pending bit.
    let clear_old = Packet::swish(
        NodeId(2),
        NodeId(1),
        SwishMsg::Clear(PendingClear {
            epoch: 1,
            reg: 0,
            key: 5,
            seq: 4,
        }),
    );
    deliver(&mut r, clear_old);
    assert_eq!(r.prog.metrics().clears_applied, 0);
    // Clear for the newest write clears it.
    let clear_new = Packet::swish(
        NodeId(2),
        NodeId(1),
        SwishMsg::Clear(PendingClear {
            epoch: 1,
            reg: 0,
            key: 5,
            seq: 5,
        }),
    );
    deliver(&mut r, clear_new);
    assert_eq!(r.prog.metrics().clears_applied, 1);
}

#[test]
fn head_rewrites_add_into_set_before_forwarding() {
    let mut r = rig(0, &[0, 1], &[]);
    deliver(&mut r, write_req(0, 5, 0, 10));
    // An Add arriving at the head is converted so replicas apply equal
    // values regardless of their local state.
    let add = Packet::swish(
        NodeId(0),
        NodeId(0),
        SwishMsg::Write(WriteRequest {
            write_id: 2,
            writer: NodeId(0),
            epoch: 1,
            reg: 0,
            key: 5,
            seq: 0,
            op: WriteOp::Add(7),
            trace: TraceId::NONE,
        }),
    );
    let fx = deliver(&mut r, add);
    assert_eq!(peek(&r, 5), 17);
    let forwarded_op = fx.iter().find_map(|e| match e {
        Effect::Forward {
            body: PacketBody::Swish(SwishMsg::Write(w)),
            ..
        } => Some(w.op),
        _ => None,
    });
    assert_eq!(forwarded_op, Some(WriteOp::Set(17)));
}

#[test]
fn single_switch_chain_acks_immediately_without_pending() {
    let mut r = rig(0, &[0], &[]);
    let fx = deliver(&mut r, write_req(0, 5, 0, 42));
    assert_eq!(peek(&r, 5), 42);
    let acked = fx.iter().any(|e| {
        matches!(
            e,
            Effect::Forward {
                body: PacketBody::Swish(SwishMsg::Ack(_)),
                ..
            }
        )
    });
    assert!(acked, "head==tail must ack directly");
}

/// A host's data packet arriving at switch `me`, which reads key 5.
fn read_at(me: u16) -> Packet {
    let flow = FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2);
    Packet::data(NodeId(1000), NodeId(me), DataPacket::udp(flow, 0, 8))
}

fn clear(key: u32, seq: u64) -> Packet {
    let c = PendingClear {
        epoch: 1,
        reg: 0,
        key,
        seq,
    };
    Packet::swish(NodeId(2), NodeId(0), SwishMsg::Clear(c))
}

#[test]
fn learner_forwards_sro_reads_to_the_tail() {
    // Learner 3 holds seq 3 = 30 and has applied its clear. The tail has
    // acked seq 4 = 40, and its forward to 3 is still in flight: a read
    // served at 3 now would see 30 after 40 committed.
    let mut r = rig(3, &[0, 1, 2], &[3]);
    deliver(&mut r, write_req(0, 5, 3, 30));
    deliver(&mut r, clear(5, 3));
    let fx = deliver(&mut r, read_at(3));
    match sent(&fx)[..] {
        [(Some(NodeId(2)), SwishMsg::ReadForward(rf))] => assert_eq!(rf.origin, NodeId(3)),
        ref other => panic!("a learner must send the read to the tail: {other:?}"),
    }
    let m = r.prog.metrics();
    assert_eq!((m.reads_local, m.reads_forwarded), (0, 1));
}

#[test]
fn a_switch_with_no_view_drops_sro_reads() {
    // A restarted switch has adopted no view yet: it knows no tail to
    // forward a read to, and its wiped data plane holds no committed
    // write. Serving the read would return 0.
    let mut r = bare_rig(RegisterSpec::sro(0, "t", 64), 1);
    let fx = deliver(&mut r, read_at(1));
    assert!(
        matches!(fx[..], [Effect::Span { .. }, Effect::Drop]),
        "{fx:?}"
    );
    let m = r.prog.metrics();
    assert_eq!(
        (m.reads_local, m.reads_forwarded, m.reads_dropped),
        (0, 0, 1)
    );
}

#[test]
fn chain_member_serves_a_clear_read_locally() {
    let mut r = rig(1, &[0, 1, 2], &[3]);
    deliver(&mut r, write_req(0, 5, 3, 30));
    deliver(&mut r, clear(5, 3));
    let fx = deliver(&mut r, read_at(1));
    assert!(sent(&fx).is_empty(), "{fx:?}");
    let m = r.prog.metrics();
    assert_eq!((m.reads_local, m.reads_forwarded), (1, 0));
}

/// Switch `me` holding partitioned register 0 (keys 0..64) as one range
/// owned by `[0, 1]` and migrating to 2. Both are installed the way a
/// switch learns them, by delivering the controller's messages.
fn part_rig(me: u16) -> Rig {
    let mut r = rig_with(RegisterSpec::partitioned(0, "p", 64), me, &[], &[]);
    let ctrl = NodeId(100);
    let commit = SwishMsg::OwnershipCommit(OwnershipCommit {
        reg: 0,
        start: 0,
        end: 64,
        epoch: 1,
        owners: vec![NodeId(0), NodeId(1)],
    });
    deliver(&mut r, Packet::swish(ctrl, NodeId(me), commit));
    let begin = SwishMsg::MigrateBegin(MigrateBegin {
        reg: 0,
        start: 0,
        end: 64,
        from: NodeId(0),
        to: NodeId(2),
        epoch: 2,
    });
    deliver(&mut r, Packet::swish(ctrl, NodeId(me), begin));
    r
}

/// The protocol messages among `fx`: `(destination, message)` for each
/// forward, `(None, message)` for each multicast.
fn sent(fx: &[Effect<CpItem>]) -> Vec<(Option<NodeId>, &SwishMsg)> {
    fx.iter()
        .filter_map(|e| match e {
            Effect::Forward {
                dst,
                body: PacketBody::Swish(m),
            } => Some((Some(*dst), m)),
            Effect::Multicast {
                body: PacketBody::Swish(m),
                ..
            } => Some((None, m)),
            _ => None,
        })
        .collect()
}

#[test]
fn partitioned_last_owner_forwards_to_the_migration_destination() {
    let mut r = part_rig(1);
    let fx = deliver(&mut r, write_req(3, 5, 4, 40));
    assert_eq!(peek(&r, 5), 40);
    match sent(&fx)[..] {
        [(Some(NodeId(2)), SwishMsg::Write(w))] => assert_eq!((w.seq, w.op), (4, WriteOp::Set(40))),
        ref other => panic!("the last owner must forward and not ack: {other:?}"),
    }
}

#[test]
fn partitioned_migration_destination_acks_the_writer() {
    let mut r = part_rig(2);
    let fx = deliver(&mut r, write_req(3, 5, 4, 40));
    assert_eq!(peek(&r, 5), 40);
    match sent(&fx)[..] {
        [(Some(NodeId(3)), SwishMsg::Ack(a))] => assert_eq!((a.key, a.seq), (5, 4)),
        ref other => panic!("the destination must ack the writer, nothing else: {other:?}"),
    }
    assert_eq!(r.prog.metrics().chain_applies, 1);
}

#[test]
fn partitioned_write_at_a_non_owner_is_stale() {
    let mut r = part_rig(3);
    let fx = deliver(&mut r, write_req(0, 5, 4, 40));
    assert!(fx.is_empty());
    assert_eq!(peek(&r, 5), 0);
    assert_eq!(r.prog.metrics().chain_stale, 1);
}

// The writer's control plane (§6.1), stepped by hand: a write job is
// sent to the head under a retry timer, resent when the timer fires,
// abandoned after the retry cap, and released by the tail's ack.

/// Switch 1 of chain `[0, 1, 2]`, after its pipeline punted one job: a
/// `Set` of key 5 and the output packet it buffers. Returns the job's
/// step.
fn write_job(r: &mut Rig) -> CpStep {
    let flow = FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2);
    let out = DataPacket::udp(flow, 0, 8);
    let job = CpItem::WriteJob {
        writes: vec![StagedWrite {
            reg: 0,
            key: 5,
            op: WriteOp::Set(42),
        }],
        decision: Some((NodeId(1000), out)),
        trace: TraceId::NONE,
        ingress: SimTime(0),
    };
    cp_step(r, 1_000, |cp, ctx| cp.on_item(job, ctx))
}

/// The `Write` requests among `fx`, as `(destination, write id, seq)`.
fn writes_sent(fx: &[Effect<CpItem>]) -> Vec<(NodeId, u64, u64)> {
    let writes = sent(fx).into_iter().filter_map(|(dst, m)| match m {
        SwishMsg::Write(w) => Some((dst?, w.write_id, w.seq)),
        _ => None,
    });
    writes.collect()
}

#[test]
fn cp_write_job_sends_to_the_head_and_arms_a_retry() {
    let mut r = rig(1, &[0, 1, 2], &[]);
    let (fx, timers) = write_job(&mut r);
    assert_eq!(writes_sent(&fx), vec![(NodeId(0), 0, 0)]);
    assert_eq!(timers.len(), 1, "one retry timer per write: {timers:?}");
    assert_eq!(r.cp.metrics().jobs_started, 1);
    assert_eq!(r.cp.metrics().write_sends, 1);
}

#[test]
fn cp_retry_timer_resends_the_write() {
    let mut r = rig(1, &[0, 1, 2], &[]);
    let (_, timers) = write_job(&mut r);
    let token = timers[0].1;
    let (fx, rearmed) = cp_step(&mut r, 2_000_000, |cp, ctx| cp.on_timer(token, ctx));
    assert_eq!(writes_sent(&fx), vec![(NodeId(0), 0, 0)]);
    assert_eq!(rearmed.len(), 1);
    assert_eq!(rearmed[0].1, token, "the retry re-arms the same write");
    assert!(rearmed[0].0 > timers[0].0, "the backoff grows");
    assert_eq!(r.cp.metrics().retries, 1);
}

#[test]
fn cp_abandons_a_write_after_the_retry_cap() {
    let mut r = rig(1, &[0, 1, 2], &[]);
    let (_, timers) = write_job(&mut r);
    let token = timers[0].1;
    let mut resends = 0;
    for i in 1.. {
        let (fx, rearmed) = cp_step(&mut r, i * 20_000_000, |cp, ctx| cp.on_timer(token, ctx));
        if rearmed.is_empty() {
            assert!(fx.is_empty(), "an abandoned write sends nothing: {fx:?}");
            break;
        }
        assert_eq!(writes_sent(&fx).len(), 1);
        resends += 1;
    }
    let m = r.cp.metrics();
    assert_eq!((resends, m.retries), (100, 100));
    assert_eq!(
        (m.writes_exhausted, m.jobs_failed, m.packets_shed),
        (1, 1, 1)
    );
    assert_eq!(m.jobs_completed, 0);
    // A timer that fires after the abandon finds no write.
    let late = cp_step(&mut r, u64::MAX / 2, |cp, ctx| cp.on_timer(token, ctx));
    assert!(late.0.is_empty() && late.1.is_empty());
}

#[test]
fn cp_ack_before_the_timer_releases_the_packet_and_voids_the_retry() {
    let mut r = rig(1, &[0, 1, 2], &[]);
    let (_, timers) = write_job(&mut r);
    let ack = CpItem::Proto(SwishMsg::Ack(WriteAck {
        write_id: 0,
        writer: NodeId(1),
        reg: 0,
        key: 5,
        seq: 1,
        trace: TraceId::NONE,
    }));
    let (fx, armed) = cp_step(&mut r, 50_000, |cp, ctx| cp.on_item(ack, ctx));
    assert!(armed.is_empty());
    match &fx[..] {
        [Effect::Forward {
            dst: NodeId(1000),
            body: PacketBody::Data(_),
        }] => {}
        other => panic!("the ack must release the buffered packet, nothing else: {other:?}"),
    }
    assert_eq!(r.cp.metrics().jobs_completed, 1);
    let token = timers[0].1;
    let (fx, armed) = cp_step(&mut r, 2_000_000, |cp, ctx| cp.on_timer(token, ctx));
    assert!(fx.is_empty() && armed.is_empty(), "the retry is a no-op");
    assert_eq!(r.cp.metrics().retries, 0);
}
