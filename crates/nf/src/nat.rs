//! Network Address Translator (Table 1, row 1).
//!
//! State: a translation table shared by all NF instances — "queried on
//! every packet, but only updated when a new connection is opened; table
//! rows require strong consistency, otherwise leading to broken client
//! connections in case of multi-path routing or switch failure" (§4.1).
//!
//! Two SRO registers implement the table: `fwd` maps a flow-key hash to
//! the allocated external port, `rev` maps an external port back to the
//! internal endpoint. Port pools are *not* shared: "different port ranges
//! can be assigned to different switches to avoid sharing this state" —
//! each switch allocates from its own disjoint range out of app-local
//! state.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use swishmem::{NfApp, NfDecision, SharedState};
use swishmem_wire::swish::RegId;
use swishmem_wire::{DataPacket, FlowKey, NodeId};

/// Observable NAT behaviour (shared with the experiment harness).
#[derive(Debug, Default)]
pub struct NatStats {
    /// New translations allocated.
    pub allocations: u64,
    /// Outbound packets translated via an existing mapping.
    pub outbound_hits: u64,
    /// Inbound packets translated back successfully.
    pub inbound_hits: u64,
    /// Inbound packets dropped for lack of a mapping — the broken-client
    /// signal the paper's strong-consistency requirement prevents.
    pub inbound_misses: u64,
}

/// Shared handle to [`NatStats`].
pub type NatStatsHandle = Rc<RefCell<NatStats>>;

/// NAT configuration.
#[derive(Debug, Clone)]
pub struct NatConfig {
    /// SRO register holding flow-hash → external-port.
    pub fwd_reg: RegId,
    /// SRO register holding external-port-index → internal endpoint.
    pub rev_reg: RegId,
    /// Keys in each register.
    pub keys: u32,
    /// The NAT's public address.
    pub nat_ip: Ipv4Addr,
    /// Inside network prefix (first octet match, e.g. 10.0.0.0/8).
    pub inside_octet: u8,
    /// Ports allocated per switch (switch `i` owns
    /// `[base + i*ports_per_switch, ...)`).
    pub ports_per_switch: u16,
    /// First allocatable port.
    pub port_base: u16,
    /// Host that plays "the outside world".
    pub outside_host: NodeId,
    /// Host that plays "the inside network".
    pub inside_host: NodeId,
}

/// The NAT network function.
pub struct Nat {
    cfg: NatConfig,
    next_port_off: u16,
    stats: NatStatsHandle,
}

impl Nat {
    /// Build a NAT instance with shared stats.
    pub fn new(cfg: NatConfig, stats: NatStatsHandle) -> Nat {
        Nat {
            cfg,
            next_port_off: 0,
            stats,
        }
    }

    fn is_inside(&self, ip: Ipv4Addr) -> bool {
        ip.octets()[0] == self.cfg.inside_octet
    }

    fn alloc_port(&mut self, me: NodeId) -> u16 {
        let base = self.cfg.port_base + me.0 * self.cfg.ports_per_switch;
        let p = base + (self.next_port_off % self.cfg.ports_per_switch);
        self.next_port_off = self.next_port_off.wrapping_add(1);
        p
    }

    fn fwd_key(&self, flow: &FlowKey) -> u32 {
        (flow.hash64() % u64::from(self.cfg.keys)) as u32
    }

    fn rev_key(&self, port: u16) -> u32 {
        u32::from(port) % self.cfg.keys
    }
}

fn pack_endpoint(ip: Ipv4Addr, port: u16) -> u64 {
    (u64::from(u32::from(ip)) << 16) | u64::from(port)
}

fn unpack_endpoint(v: u64) -> (Ipv4Addr, u16) {
    (Ipv4Addr::from((v >> 16) as u32), (v & 0xffff) as u16)
}

impl NfApp for Nat {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> NfDecision {
        if self.is_inside(pkt.flow.src) {
            // Outbound: translate source to (nat_ip, external port).
            let key = self.fwd_key(&pkt.flow);
            let mut ext = st.read(self.cfg.fwd_reg, key);
            if ext == 0 {
                let p = self.alloc_port(st.self_id());
                ext = u64::from(p);
                st.write(self.cfg.fwd_reg, key, ext);
                st.write(
                    self.cfg.rev_reg,
                    self.rev_key(p),
                    pack_endpoint(pkt.flow.src, pkt.flow.src_port),
                );
                self.stats.borrow_mut().allocations += 1;
            } else {
                self.stats.borrow_mut().outbound_hits += 1;
            }
            let mut out = *pkt;
            out.flow.src = self.cfg.nat_ip;
            out.flow.src_port = (ext & 0xffff) as u16;
            NfDecision::Forward {
                dst: self.cfg.outside_host,
                pkt: out,
            }
        } else if pkt.flow.dst == self.cfg.nat_ip {
            // Inbound: translate destination back to the inside endpoint.
            let v = st.read(self.cfg.rev_reg, self.rev_key(pkt.flow.dst_port));
            if v == 0 {
                // No mapping here: the connection breaks (§4.1).
                self.stats.borrow_mut().inbound_misses += 1;
                return NfDecision::Drop;
            }
            self.stats.borrow_mut().inbound_hits += 1;
            let (ip, port) = unpack_endpoint(v);
            let mut out = *pkt;
            out.flow.dst = ip;
            out.flow.dst_port = port;
            NfDecision::Forward {
                dst: self.cfg.inside_host,
                pkt: out,
            }
        } else {
            // Transit traffic not addressed to the NAT.
            NfDecision::Forward {
                dst: self.cfg.outside_host,
                pkt: *pkt,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swishmem::prelude::*;
    use swishmem::RegisterSpec;
    use swishmem_simnet::{SimDuration, Trace, TraceHandle};

    fn config() -> NatConfig {
        NatConfig {
            fwd_reg: 0,
            rev_reg: 1,
            keys: 256,
            nat_ip: Ipv4Addr::new(203, 0, 113, 1),
            inside_octet: 10,
            ports_per_switch: 1000,
            port_base: 10000,
            outside_host: NodeId(swishmem::HOST_BASE),
            inside_host: NodeId(swishmem::HOST_BASE + 1),
        }
    }

    fn deployment(n: usize) -> (Deployment, Vec<NatStatsHandle>) {
        let stats: Vec<NatStatsHandle> = (0..n).map(|_| NatStatsHandle::default()).collect();
        let stats2 = stats.clone();
        let dep = DeploymentBuilder::new(n)
            .hosts(2)
            .register(RegisterSpec::sro(0, "nat_fwd", 256))
            .register(RegisterSpec::sro(1, "nat_rev", 256))
            .build(move |id| Box::new(Nat::new(config(), stats2[id.index()].clone())));
        (dep, stats)
    }

    /// A packet trace of every delivery in the run, attached before it.
    fn trace(dep: &mut Deployment) -> TraceHandle {
        let trace = Trace::new(1 << 12);
        dep.add_observer(trace.clone());
        trace
    }

    /// The data packets host `h` received, read off the trace.
    fn received(dep: &Deployment, trace: &TraceHandle, h: usize) -> Vec<DataPacket> {
        let trace = trace.borrow();
        assert_eq!(trace.overflowed(), 0);
        let got: Vec<DataPacket> = trace
            .received_by(dep.host(h))
            .into_iter()
            .map(|e| match &e.pkt.body {
                swishmem_wire::PacketBody::Data(d) => *d,
                _ => panic!("hosts receive data packets only"),
            })
            .collect();
        assert_eq!(got.len(), dep.recording(h).borrow().len());
        got
    }

    fn outbound(src_port: u16) -> DataPacket {
        DataPacket::udp(
            FlowKey::udp(
                Ipv4Addr::new(10, 0, 0, 5),
                src_port,
                Ipv4Addr::new(8, 8, 8, 8),
                53,
            ),
            0,
            64,
        )
    }

    #[test]
    fn outbound_allocates_and_translates() {
        let (mut dep, stats) = deployment(3);
        let trace = trace(&mut dep);
        dep.settle();
        let t = dep.now();
        dep.inject(t, 0, 1, outbound(5555));
        dep.run_for(SimDuration::millis(20));
        // The translated packet reached the outside host with NAT source.
        let log = received(&dep, &trace, 0);
        assert_eq!(log.len(), 1);
        let d = &log[0];
        assert_eq!(d.flow.src, Ipv4Addr::new(203, 0, 113, 1));
        assert!(d.flow.src_port >= 10000);
        assert_eq!(stats[0].borrow().allocations, 1);
    }

    #[test]
    fn inbound_translates_back_from_any_switch() {
        let (mut dep, stats) = deployment(3);
        let trace = trace(&mut dep);
        dep.settle();
        let t = dep.now();
        dep.inject(t, 0, 1, outbound(5555));
        dep.run_for(SimDuration::millis(30));
        // Find the allocated external port from the outside host's view.
        let ext_port = received(&dep, &trace, 0)[0].flow.src_port;
        // Reply arrives at a DIFFERENT switch (multipath): mapping must be
        // there thanks to SRO replication.
        let reply = DataPacket::udp(
            FlowKey::udp(
                Ipv4Addr::new(8, 8, 8, 8),
                53,
                Ipv4Addr::new(203, 0, 113, 1),
                ext_port,
            ),
            0,
            64,
        );
        let t = dep.now();
        dep.inject(t, 2, 0, reply);
        dep.run_for(SimDuration::millis(20));
        let log = received(&dep, &trace, 1);
        assert_eq!(log.len(), 1, "reply should reach the inside host");
        let d = &log[0];
        assert_eq!(d.flow.dst, Ipv4Addr::new(10, 0, 0, 5));
        assert_eq!(d.flow.dst_port, 5555);
        assert_eq!(stats[2].borrow().inbound_hits, 1);
        assert_eq!(stats[2].borrow().inbound_misses, 0);
    }

    #[test]
    fn port_ranges_are_disjoint_across_switches() {
        let cfg = config();
        let mut nats: Vec<Nat> = (0..3)
            .map(|_| Nat::new(cfg.clone(), NatStatsHandle::default()))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for (i, nat) in nats.iter_mut().enumerate() {
            for _ in 0..100 {
                let p = nat.alloc_port(NodeId(i as u16));
                assert!(seen.insert(p), "port {p} allocated twice");
            }
        }
    }

    #[test]
    fn endpoint_packing_round_trips() {
        let (ip, port) = unpack_endpoint(pack_endpoint(Ipv4Addr::new(10, 1, 2, 3), 4567));
        assert_eq!(ip, Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(port, 4567);
    }
}
