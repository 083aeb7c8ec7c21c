//! Chain-protocol edge cases, pinned at the unit level: the SwiShmem
//! data-plane program is driven directly with crafted protocol messages
//! and its effects inspected — no simulator in the loop.

use std::rc::Rc;
use swishmem::api::ForwardAll;
use swishmem::layer::program::SwishProgram;
use swishmem::layer::{write_chain_for_tests, ChainView, Handles};
use swishmem::{ClockMode, RegisterSpec, SwishConfig, SwitchClock};
use swishmem_pisa::{DataPlane, DataPlaneProgram, DpView, Effect, Effects};
use swishmem_simnet::SimTime;
use swishmem_wire::swish::{
    MigrateBegin, OwnershipCommit, PendingClear, TraceId, WriteOp, WriteRequest,
};
use swishmem_wire::{NodeId, Packet, PacketBody, SwishMsg};

struct Rig {
    dp: DataPlane,
    prog: SwishProgram,
}

fn rig(me: u16, chain: &[u16], learners: &[u16]) -> Rig {
    rig_with(RegisterSpec::sro(0, "t", 64), me, chain, learners)
}

/// Switch `me` holding register 0 as `spec`, with `chain` and `learners`
/// installed in its config block.
fn rig_with(spec: RegisterSpec, me: u16, chain: &[u16], learners: &[u16]) -> Rig {
    let cfg = SwishConfig::default();
    let mut dp = DataPlane::standard();
    let handles = Rc::new(Handles::build(&mut dp, &[spec], &cfg, 4).unwrap());
    let view = ChainView {
        epoch: 1,
        chain: chain.iter().map(|&n| NodeId(n)).collect(),
        learners: learners.iter().map(|&n| NodeId(n)).collect(),
    };
    write_chain_for_tests(&mut dp, &handles, &view);
    let clock = SwitchClock::new(NodeId(me), ClockMode::Synced { max_skew_ns: 0 }, 0);
    let prog = SwishProgram::new(
        NodeId(me),
        cfg,
        handles,
        Box::new(ForwardAll { dst: NodeId(1000) }),
        clock,
    );
    Rig { dp, prog }
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

fn deliver(r: &mut Rig, pkt: Packet) -> Vec<Effect> {
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
fn sent(fx: &[Effect]) -> Vec<(Option<NodeId>, &SwishMsg)> {
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
