//! The leaf-spine replay fabric: a `.swtrace` record stream injected
//! into a leaf-spine of count-min sketch leaves and relay spines, run on
//! the [`Simulator`] to quiescence. E24 and the `replay --leafspine` bin
//! drive it; the run digest is a pure function of the trace bytes.
//!
//! Every leaf maintains a 4-row count-min array over flow keys and
//! reports to a rotating peer leaf every few packets, so a constant
//! fraction of frames crosses the spine relays.

use swishmem_simnet::{Ctx, LinkParams, Node, RelayNode, SimDuration, SimTime, Simulator};
use swishmem_wire::{NodeId, Packet, PacketBody};

/// First spine node id (leaves are `0..leaves`).
pub const SPINE_BASE: u16 = 500;

/// A leaf-spine fabric shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafSpineSpec {
    /// Leaf (NF) switch count.
    pub leaves: u16,
    /// Spine (relay) switch count.
    pub spines: u16,
}

impl LeafSpineSpec {
    /// Parse a `leaf-spine:<leaves>x<spines>` topology string. Rejects
    /// shapes whose spine ids would not fit a `NodeId`.
    pub fn parse(s: &str) -> Option<LeafSpineSpec> {
        let dims = s.strip_prefix("leaf-spine:")?;
        let (l, sp) = dims.split_once('x')?;
        let leaves: u16 = l.parse().ok()?;
        let spines: u16 = sp.parse().ok()?;
        if leaves < 2 || spines == 0 || leaves > SPINE_BASE || spines > u16::MAX - SPINE_BASE + 1 {
            return None;
        }
        Some(LeafSpineSpec { leaves, spines })
    }

    /// Every leaf-to-spine duplex link.
    pub fn links(&self) -> Vec<(NodeId, NodeId)> {
        (0..self.leaves)
            .flat_map(|l| (0..self.spines).map(move |s| (NodeId(l), NodeId(SPINE_BASE + s))))
            .collect()
    }
}

const ROWS: usize = 4;
const WIDTH: usize = 2048;

fn mix(key: u64, row: u64) -> usize {
    let mut x = key ^ row.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    (x as usize) % WIDTH
}

/// The leaf NF: a count-min sketch over flow keys, reporting to a
/// rotating peer leaf every `REPORT_EVERY` packets. Deterministic and
/// RNG-free, so its final state is a pure function of its input.
pub struct SketchNf {
    rows: Vec<u64>,
    seen: u64,
    leaves: u16,
}

const REPORT_EVERY: u64 = 4;

impl SketchNf {
    fn new(leaves: u16) -> SketchNf {
        SketchNf {
            rows: vec![0; ROWS * WIDTH],
            seen: 0,
            leaves,
        }
    }

    /// FNV-1a over the sketch contents and packet count.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut f = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        f(self.seen);
        for &c in &self.rows {
            f(c);
        }
        h
    }
}

impl Node for SketchNf {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketBody::Data(d) = pkt.body {
            let key = u64::from(d.flow.dst_port) << 16 | u64::from(d.flow.src_port);
            for r in 0..ROWS as u64 {
                self.rows[r as usize * WIDTH + mix(key, r)] += 1;
            }
            self.seen += 1;
            if self.seen.is_multiple_of(REPORT_EVERY) {
                let me = ctx.self_id().0;
                let peer = (me as u64 + self.seen / REPORT_EVERY) % u64::from(self.leaves);
                if peer as u16 != me {
                    let mut report = d;
                    report.flow_seq = self.seen as u32;
                    ctx.send(NodeId(peer as u16), PacketBody::Data(report));
                }
            }
        }
    }
}

/// Map a `.swtrace` record stream onto leaf-spine injections: the
/// record's ingress slot picks the source leaf, its flow hash a distinct
/// destination leaf, and the record timestamp is used unchanged — the
/// injection stream (and therefore the run digest) is a pure function of
/// the trace bytes.
pub fn trace_to_leaf_spine(
    spec: &LeafSpineSpec,
    records: &[swishmem_replay::TraceRecord],
) -> Vec<(SimTime, Packet)> {
    debug_assert!(spec.leaves >= 2, "need two leaves to carry traffic");
    let leaves = u64::from(spec.leaves);
    records
        .iter()
        .map(|r| {
            let src = (u64::from(r.ingress) % leaves) as u16;
            let mut dst = (r.flow_hash() % leaves) as u16;
            if dst == src {
                dst = (dst + 1) % spec.leaves;
            }
            (
                SimTime(r.time_ns),
                Packet::data(NodeId(src), NodeId(dst), r.to_packet()),
            )
        })
        .collect()
}

/// Outcome of a leaf-spine run.
#[derive(Debug, Clone)]
pub struct LeafSpineOutcome {
    /// Events processed.
    pub events: u64,
    /// Wall-clock for the run-to-quiescence drive.
    pub wall_ns: u64,
    /// FNV digest over every leaf's final sketch state.
    pub digest: u64,
    /// Final simulated time, ns.
    pub end_ns: u64,
}

impl LeafSpineOutcome {
    /// Wall-clock throughput.
    pub fn wall_events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// Build the fabric on a seed-20 [`Simulator`] with lossless links,
/// inject the time-sorted `stream`, and run it to quiescence.
pub fn run_leaf_spine(spec: LeafSpineSpec, stream: &[(SimTime, Packet)]) -> LeafSpineOutcome {
    let mut sim = Simulator::new(20);
    for l in 0..spec.leaves {
        sim.add_node(NodeId(l), Box::new(SketchNf::new(spec.leaves)));
    }
    for s in 0..spec.spines {
        sim.add_node(NodeId(SPINE_BASE + s), Box::new(RelayNode));
    }

    let params = LinkParams::datacenter().with_latency(SimDuration::micros(5));
    let topo = sim.topology_mut();
    for (l, s) in spec.links() {
        topo.connect(l, s, params);
    }
    // Static ECMP-style spine pick per ordered leaf pair.
    for a in 0..spec.leaves {
        for b in 0..spec.leaves {
            if a != b {
                let spine = SPINE_BASE + (a.wrapping_mul(31).wrapping_add(b)) % spec.spines;
                topo.set_route(NodeId(a), NodeId(b), NodeId(spine));
            }
        }
    }
    for (t, pkt) in stream {
        sim.inject(*t, pkt.clone());
    }

    let t = std::time::Instant::now();
    sim.run_until_quiescent(SimTime(10_000_000_000));
    let wall_ns = t.elapsed().as_nanos() as u64;

    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for l in 0..spec.leaves {
        let d = sim
            .node::<SketchNf>(NodeId(l))
            .expect("leaf present")
            .digest();
        for b in d.to_le_bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    LeafSpineOutcome {
        events: sim.events_processed(),
        wall_ns,
        digest,
        end_ns: sim.now().nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_flag_parses() {
        assert_eq!(
            LeafSpineSpec::parse("leaf-spine:248x8"),
            Some(LeafSpineSpec {
                leaves: 248,
                spines: 8
            })
        );
        assert_eq!(LeafSpineSpec::parse("leaf-spine:1x4"), None);
        assert_eq!(LeafSpineSpec::parse("ring:8"), None);
        assert_eq!(LeafSpineSpec::parse("leaf-spine:8"), None);
        // The last spine id is `SPINE_BASE + spines - 1`: 65,036 spines
        // end at `u16::MAX`, and one more would wrap onto the leaf ids.
        let most = u16::MAX - SPINE_BASE + 1;
        assert!(LeafSpineSpec::parse(&format!("leaf-spine:8x{most}")).is_some());
        for spines in [most + 1, 65_100] {
            let spec = LeafSpineSpec::parse(&format!("leaf-spine:8x{spines}"));
            assert_eq!(spec, None, "{spines} spines");
        }
    }
}
