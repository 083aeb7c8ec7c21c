//! L4 load balancer (Table 1, row 4).
//!
//! "Assign incoming connections to a particular destination IP, then
//! forward subsequent packets to the appropriate destination IP.
//! Per-connection consistency (PCC) requires that once an IP is assigned
//! to a connection, it does not change, implying a need for strong
//! consistency of application state" (§4.1).
//!
//! The connection→DIP mapping is one SRO register. The E8 experiment
//! swaps it for a deliberately-broken shard-local map to reproduce the
//! PCC violations §3.2 predicts for sharding under multipath.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use swishmem::{NfApp, NfDecision, SharedState};
use swishmem_wire::swish::RegId;
use swishmem_wire::{DataPacket, NodeId};

/// Observable LB behaviour.
#[derive(Debug, Default)]
pub struct LbStats {
    /// Connections assigned (SYN packets that created a mapping).
    pub assigned: u64,
    /// Packets forwarded via an existing mapping.
    pub mapped: u64,
    /// Non-SYN packets with no mapping: the flow's assignment was lost —
    /// a per-connection-consistency break.
    pub unmapped_drops: u64,
}

/// Shared handle to [`LbStats`].
pub type LbStatsHandle = Rc<RefCell<LbStats>>;

/// Load balancer configuration.
#[derive(Debug, Clone)]
pub struct LbConfig {
    /// SRO register: flow-hash → (DIP index + 1); 0 = unassigned.
    pub conn_reg: RegId,
    /// Keys in the register.
    pub keys: u32,
    /// The virtual IP clients connect to.
    pub vip: Ipv4Addr,
    /// Backend DIPs, each paired with the host node standing in for it.
    pub backends: Vec<(Ipv4Addr, NodeId)>,
}

/// The L4 load balancer.
pub struct LoadBalancer {
    cfg: LbConfig,
    stats: LbStatsHandle,
}

impl LoadBalancer {
    /// Build an LB instance.
    pub fn new(cfg: LbConfig, stats: LbStatsHandle) -> LoadBalancer {
        assert!(!cfg.backends.is_empty(), "need at least one backend");
        LoadBalancer { cfg, stats }
    }

    fn key(&self, pkt: &DataPacket) -> u32 {
        (pkt.flow.hash64() % u64::from(self.cfg.keys)) as u32
    }

    /// Deterministic initial choice: hash the flow over the backends.
    fn choose(&self, pkt: &DataPacket) -> u64 {
        (pkt.flow.hash64() >> 17) % self.cfg.backends.len() as u64 + 1
    }

    fn forward_to(&self, idx1: u64, pkt: &DataPacket) -> NfDecision {
        let (dip, host) = self.cfg.backends[(idx1 - 1) as usize % self.cfg.backends.len()];
        let mut out = *pkt;
        out.flow.dst = dip; // DIP rewrite (encapsulation stand-in)
        NfDecision::Forward {
            dst: host,
            pkt: out,
        }
    }
}

impl NfApp for LoadBalancer {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> NfDecision {
        if pkt.flow.dst != self.cfg.vip {
            // Direct (non-VIP) traffic: pass through to backend 0's host.
            return NfDecision::Forward {
                dst: self.cfg.backends[0].1,
                pkt: *pkt,
            };
        }
        let key = self.key(pkt);
        let assigned = st.read(self.cfg.conn_reg, key);
        if assigned != 0 {
            self.stats.borrow_mut().mapped += 1;
            return self.forward_to(assigned, pkt);
        }
        if pkt.tcp_flags.syn {
            let choice = self.choose(pkt);
            st.write(self.cfg.conn_reg, key, choice);
            self.stats.borrow_mut().assigned += 1;
            return self.forward_to(choice, pkt);
        }
        // Mid-connection packet with no mapping anywhere: PCC break.
        self.stats.borrow_mut().unmapped_drops += 1;
        NfDecision::Drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swishmem::prelude::*;
    use swishmem::RegisterSpec;
    use swishmem_simnet::Trace;
    use swishmem_wire::l4::TcpFlags;
    use swishmem_wire::{FlowKey, PacketBody};

    fn config() -> LbConfig {
        LbConfig {
            conn_reg: 0,
            keys: 1024,
            vip: Ipv4Addr::new(10, 99, 0, 1),
            backends: vec![
                (Ipv4Addr::new(10, 1, 0, 1), NodeId(swishmem::HOST_BASE)),
                (Ipv4Addr::new(10, 1, 0, 2), NodeId(swishmem::HOST_BASE + 1)),
                (Ipv4Addr::new(10, 1, 0, 3), NodeId(swishmem::HOST_BASE + 2)),
            ],
        }
    }

    fn deployment(n: usize) -> (Deployment, Vec<LbStatsHandle>) {
        let stats: Vec<LbStatsHandle> = (0..n).map(|_| LbStatsHandle::default()).collect();
        let s2 = stats.clone();
        let dep = DeploymentBuilder::new(n)
            .hosts(3)
            .register(RegisterSpec::sro(0, "lb_conn", 1024))
            .build(move |id| Box::new(LoadBalancer::new(config(), s2[id.index()].clone())));
        (dep, stats)
    }

    fn pkt(client_port: u16, flags: TcpFlags, seq: u32) -> DataPacket {
        DataPacket::tcp(
            FlowKey::tcp(
                Ipv4Addr::new(172, 16, 0, 9),
                client_port,
                Ipv4Addr::new(10, 99, 0, 1),
                443,
            ),
            flags,
            seq,
            64,
        )
    }

    fn backend_of(dep: &Deployment, host_idx: usize) -> usize {
        dep.recording(host_idx).borrow().len()
    }

    #[test]
    fn connection_sticks_to_one_backend_across_switches() {
        let (mut dep, stats) = deployment(3);
        let trace = Trace::new(1 << 12);
        dep.add_observer(trace.clone());
        dep.settle();
        let t = dep.now();
        dep.inject(t, 0, 0, pkt(5000, TcpFlags::syn(), 0));
        dep.run_for(SimDuration::millis(30)); // mapping replicates
                                              // Subsequent packets arrive at every switch (multipath).
        let t = dep.now();
        for (i, sw) in [1usize, 2, 0, 2].iter().enumerate() {
            dep.inject(
                t + SimDuration::micros(i as u64 * 100),
                *sw,
                0,
                pkt(5000, TcpFlags::data(), i as u32 + 1),
            );
        }
        dep.run_for(SimDuration::millis(30));
        // Exactly one backend received all 5 packets.
        let counts: Vec<usize> = (0..3).map(|h| backend_of(&dep, h)).collect();
        assert_eq!(counts.iter().sum::<usize>(), 5);
        assert_eq!(
            counts.iter().filter(|&&c| c > 0).count(),
            1,
            "flow split: {counts:?}"
        );
        let drops: u64 = stats.iter().map(|s| s.borrow().unmapped_drops).sum();
        assert_eq!(drops, 0);
        // All delivered to the same DIP.
        let nonzero = counts.iter().position(|&c| c > 0).unwrap();
        let trace = trace.borrow();
        assert_eq!(trace.overflowed(), 0);
        let dips: std::collections::HashSet<Ipv4Addr> = trace
            .received_by(dep.host(nonzero))
            .into_iter()
            .map(|e| match &e.pkt.body {
                PacketBody::Data(d) => d.flow.dst,
                _ => panic!(),
            })
            .collect();
        assert_eq!(dips.len(), 1);
    }

    #[test]
    fn distinct_flows_spread_over_backends() {
        let (mut dep, _stats) = deployment(2);
        dep.settle();
        let t = dep.now();
        for i in 0..30u16 {
            dep.inject(
                t + SimDuration::micros(u64::from(i) * 500),
                usize::from(i % 2),
                0,
                pkt(4000 + i, TcpFlags::syn(), 0),
            );
        }
        dep.run_for(SimDuration::millis(60));
        let counts: Vec<usize> = (0..3).map(|h| backend_of(&dep, h)).collect();
        assert_eq!(counts.iter().sum::<usize>(), 30);
        assert!(counts.iter().all(|&c| c > 0), "skewed spread: {counts:?}");
    }

    #[test]
    fn midflow_packet_without_mapping_is_dropped() {
        let (mut dep, stats) = deployment(2);
        dep.settle();
        let t = dep.now();
        dep.inject(t, 0, 0, pkt(7000, TcpFlags::data(), 5)); // no SYN ever
        dep.run_for(SimDuration::millis(10));
        let drops: u64 = stats.iter().map(|s| s.borrow().unmapped_drops).sum();
        assert_eq!(drops, 1);
    }
}
