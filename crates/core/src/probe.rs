//! The probe kit: the test NFs, probe packets and writer pick that every
//! suite checking SRO, ERO or EWO drives them with.
//!
//! Each NF is one of Table 1's access patterns on register 0, keyed by
//! the packet's destination port: a per-key write ([`WriteNf`]), a
//! per-key counter ([`CounterNf`]), and a write-or-read probe
//! ([`ProbeNf`]) whose reads leave the fabric in a packet. The packets
//! are the ones those NFs expect: [`udp_write`] carries a value in its
//! payload length, [`tcp_read`] a tag in its source port, and
//! [`count_pkt`] a sequence number. A run under a fault schedule offers
//! its writes at the switches [`spared_writers`] picks, and ends with
//! [`crate::OracleSuite::run_settled`].
//!
//! An NF whose key function, forward target or packets differ stays
//! local to its suite: the kit has no settable key or modulus.

use crate::api::{NfApp, NfDecision, SharedState};
use crate::deployment::HOST_BASE;
use std::net::Ipv4Addr;
use swishmem_simnet::FaultSchedule;
use swishmem_wire::l4::TcpFlags;
use swishmem_wire::{DataPacket, FlowKey, NodeId};

/// A probe NF over register 0:
/// * UDP packet → `write(0, dst_port, payload_len)`, output to host 0;
/// * TCP packet → `read(0, dst_port)`, value returned in the output
///   packet's `flow_seq`, output to host 1.
///
/// Because the read value leaves the fabric in a packet, a run can
/// measure both read latency (inject → host arrival) and staleness
/// (value seen vs value written).
pub struct ProbeNf;

impl NfApp for ProbeNf {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> NfDecision {
        let key = u32::from(pkt.flow.dst_port);
        if pkt.flow.proto == 17 {
            st.write(0, key, u64::from(pkt.payload_len));
            NfDecision::Forward {
                dst: NodeId(HOST_BASE),
                pkt: *pkt,
            }
        } else {
            let v = st.read(0, key);
            let mut out = *pkt;
            out.flow_seq = v as u32;
            NfDecision::Forward {
                dst: NodeId(HOST_BASE + 1),
                pkt: out,
            }
        }
    }
}

/// A counting NF: every packet adds 1 to register 0 at key `dst_port`,
/// forwarding to host 0. On an EWO counter the add stays in the data
/// plane; on a chain register it is a chain write.
pub struct CounterNf;

impl NfApp for CounterNf {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> NfDecision {
        st.add(0, u32::from(pkt.flow.dst_port), 1);
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

/// A writing NF: every packet writes its `payload_len` into register 0
/// at key `dst_port`, forwarding to host 0.
pub struct WriteNf;

impl NfApp for WriteNf {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> NfDecision {
        st.write(0, u32::from(pkt.flow.dst_port), u64::from(pkt.payload_len));
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

/// A UDP "write" probe packet: key = `port`, value = `val` (≤ 1400).
pub fn udp_write(port: u16, val: u16) -> DataPacket {
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

/// A TCP "read" probe packet: key = `port`, tagged with `tag` in the
/// source port for matching against host arrivals.
pub fn tcp_read(port: u16, tag: u16) -> DataPacket {
    DataPacket::tcp(
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            tag,
            Ipv4Addr::new(10, 0, 0, 2),
            port,
        ),
        TcpFlags::data(),
        0,
        10,
    )
}

/// A plain counting packet keyed by `port`.
pub fn count_pkt(port: u16, seq: u32) -> DataPacket {
    DataPacket::udp(
        FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 3),
            1000,
            Ipv4Addr::new(10, 0, 0, 4),
            port,
        ),
        seq,
        64,
    )
}

/// Indices into `switches` of the switches `sched` never crashes, or
/// switch 0 alone when it crashes them all. A surviving writer retries
/// every write to completion, so the convergence oracle covers it; a
/// crashed writer's writes are legally lost.
pub fn spared_writers(sched: &FaultSchedule, switches: &[NodeId]) -> Vec<usize> {
    let crashed = sched.crashed();
    let spared: Vec<usize> = (0..switches.len())
        .filter(|&i| !crashed.contains(&switches[i]))
        .collect();
    if spared.is_empty() {
        vec![0]
    } else {
        spared
    }
}
