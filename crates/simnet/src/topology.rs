//! Network topology: the directed-link table, static routes and
//! multicast groups.
//!
//! Every directed link lives in one arena of cache-line-sized ports. Each
//! node that sends keeps one forwarding row, sorted by destination, whose
//! entry for a destination names the port a frame to it leaves on: the
//! direct link when there is one, else the link toward the configured
//! route's relay. The rows are kept current as links and routes are
//! added, in any order, so the per-transmit work the engine does
//! (`resolve`) is one search of one compact row plus one cache line of
//! link state — no hashing, and no scan over link records. On the
//! benchmark's 276-node `fabric_fwd` leaf-spine all rows take 20 KB.

use crate::ctx::GroupId;
use crate::fault::LinkOverlay;
use crate::link::{Link, LinkParams};
use swishmem_wire::NodeId;

/// Sentinel in the id -> row table.
const ABSENT: u32 = u32::MAX;

/// One directed link of the arena, with its far endpoint: exactly one
/// cache line, so a hop touches one line of link state.
#[derive(Debug)]
#[repr(align(64))]
struct Port {
    to: NodeId,
    link: Link,
}

const _: () = assert!(
    std::mem::size_of::<Port>() == 64,
    "a port outgrew its cache line"
);

/// One forwarding entry: frames to `dst` leave on arena port `port`.
#[derive(Debug, Clone, Copy)]
struct Fwd {
    dst: NodeId,
    port: u32,
}

/// The set of links and multicast groups of a simulation.
#[derive(Debug, Default)]
pub struct Topology {
    /// `NodeId.0` -> row in `fib` and `routes` (`ABSENT` for a node that
    /// never sends).
    rows: Vec<u32>,
    /// Every directed link, in the order first added. Replacing a link
    /// keeps its position.
    ports: Vec<Port>,
    /// The pristine parameters of each degraded port, saved by its first
    /// fault-plane degrade. Kept apart from the ports because no hop reads
    /// them, and a list because few links are degraded at a time.
    pristine: Vec<(usize, LinkParams)>,
    /// Per-source forwarding row (forwarding information base), sorted by
    /// `dst`.
    fib: Vec<Vec<Fwd>>,
    /// Static next-hop routes for node pairs without a direct link, per
    /// source: `(dst, via)`. The frame is transmitted over `src -> via`
    /// with its final destination intact; a relay node at `via` forwards.
    routes: Vec<Vec<(NodeId, NodeId)>>,
    /// Multicast groups (few per simulation; linear scan).
    groups: Vec<(GroupId, Vec<NodeId>)>,
}

impl Topology {
    /// Create an empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// The row of `src`, created empty on first use.
    fn row_of(&mut self, src: NodeId) -> usize {
        let i = src.index();
        if i >= self.rows.len() {
            self.rows.resize(i + 1, ABSENT);
        }
        if self.rows[i] == ABSENT {
            self.rows[i] = self.fib.len() as u32;
            self.fib.push(Vec::new());
            self.routes.push(Vec::new());
        }
        self.rows[i] as usize
    }

    /// The port `src`'s row names for `dst`: the direct link, else the
    /// route's first link.
    #[inline]
    fn entry(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let row = match self.rows.get(src.index()) {
            Some(&r) if r != ABSENT => &self.fib[r as usize],
            _ => return None,
        };
        let i = row.binary_search_by_key(&dst, |f| f.dst).ok()?;
        Some(row[i].port as usize)
    }

    /// The port of the direct link `src -> dst`. Direct links take
    /// precedence in the rows, so the entry is direct iff it leads to `dst`.
    fn direct(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        self.entry(src, dst).filter(|&p| self.ports[p].to == dst)
    }

    /// Point row `r`'s entry for `dst` at `port`, or remove it.
    fn set_entry(&mut self, r: usize, dst: NodeId, port: Option<usize>) {
        let row = &mut self.fib[r];
        match (row.binary_search_by_key(&dst, |f| f.dst), port) {
            (Ok(i), Some(p)) => row[i].port = p as u32,
            (Ok(i), None) => {
                row.remove(i);
            }
            (Err(i), Some(p)) => row.insert(
                i,
                Fwd {
                    dst,
                    port: p as u32,
                },
            ),
            (Err(_), None) => {}
        }
    }

    /// Add a one-directional link `src -> dst`. Replaces any existing link.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, params: LinkParams) {
        if let Some(p) = self.direct(src, dst) {
            self.ports[p].link = Link::new(params);
            self.pristine.retain(|&(q, _)| q != p);
            return;
        }
        let r = self.row_of(src);
        let port = self.ports.len();
        self.ports.push(Port {
            to: dst,
            link: Link::new(params),
        });
        self.set_entry(r, dst, Some(port));
        // Routes through `dst` with no direct link of their own now leave
        // on this one.
        for i in 0..self.routes[r].len() {
            let (x, via) = self.routes[r][i];
            if via == dst && self.direct(src, x).is_none() {
                self.set_entry(r, x, Some(port));
            }
        }
    }

    /// Add links in both directions with the same parameters.
    pub fn connect(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.add_link(a, b, params);
        self.add_link(b, a, params);
    }

    /// Connect every pair of `nodes` bidirectionally.
    pub fn full_mesh(&mut self, nodes: &[NodeId], params: LinkParams) {
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                self.connect(a, b, params);
            }
        }
    }

    /// Connect `nodes` in a line: `n0 <-> n1 <-> n2 ...` (chain topology).
    pub fn chain(&mut self, nodes: &[NodeId], params: LinkParams) {
        for w in nodes.windows(2) {
            self.connect(w[0], w[1], params);
        }
    }

    /// Connect `hub` bidirectionally to each of `spokes` (star topology).
    pub fn star(&mut self, hub: NodeId, spokes: &[NodeId], params: LinkParams) {
        for &s in spokes {
            self.connect(hub, s, params);
        }
    }

    /// Look up the directed link `src -> dst`.
    pub fn link_mut(&mut self, src: NodeId, dst: NodeId) -> Option<&mut Link> {
        let p = self.direct(src, dst)?;
        Some(&mut self.ports[p].link)
    }

    /// Look up the directed link `src -> dst` (read-only).
    pub fn link(&self, src: NodeId, dst: NodeId) -> Option<&Link> {
        let p = self.direct(src, dst)?;
        Some(&self.ports[p].link)
    }

    /// The ports of both directions of the duplex link between `a` and
    /// `b`, whichever exist.
    fn duplex(&self, a: NodeId, b: NodeId) -> impl Iterator<Item = usize> {
        [self.direct(a, b), self.direct(b, a)].into_iter().flatten()
    }

    /// Mark the duplex link between `a` and `b` up or down.
    pub fn set_link_down(&mut self, a: NodeId, b: NodeId, down: bool) {
        for p in self.duplex(a, b) {
            self.ports[p].link.state.down = down;
        }
    }

    /// Overlay fault parameters on the duplex link between `a` and `b`
    /// (both directions); pristine parameters are saved by the first
    /// degrade for [`Topology::restore_link`], so overlapping degrades
    /// stack and one restore undoes them all. No-op when no such link
    /// exists.
    pub fn degrade_link(&mut self, a: NodeId, b: NodeId, overlay: &LinkOverlay) {
        for p in self.duplex(a, b) {
            let params = &mut self.ports[p].link.params;
            if !self.pristine.iter().any(|&(q, _)| q == p) {
                self.pristine.push((p, *params));
            }
            *params = overlay.apply(*params);
        }
    }

    /// Restore the duplex link between `a` and `b` (both directions) to
    /// its pristine parameters. No-op on missing or undegraded links.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId) {
        for p in self.duplex(a, b) {
            if let Some(i) = self.pristine.iter().position(|&(q, _)| q == p) {
                self.ports[p].link.params = self.pristine.swap_remove(i).1;
            }
        }
    }

    /// Define (or redefine) a multicast group's membership.
    pub fn set_group(&mut self, group: GroupId, members: Vec<NodeId>) {
        match self.groups.iter_mut().find(|(g, _)| *g == group) {
            Some((_, m)) => *m = members,
            None => self.groups.push((group, members)),
        }
    }

    /// Current members of a group (empty if undefined).
    pub fn group(&self, group: GroupId) -> &[NodeId] {
        self.groups
            .iter()
            .find(|(g, _)| *g == group)
            .map(|(_, m)| m.as_slice())
            .unwrap_or(&[])
    }

    /// Remove one member from a group (e.g. a failed switch, §6.3).
    pub fn remove_from_group(&mut self, group: GroupId, node: NodeId) {
        if let Some((_, members)) = self.groups.iter_mut().find(|(g, _)| *g == group) {
            members.retain(|&m| m != node);
        }
    }

    /// Install a static route: frames from `src` to `dst` take the link
    /// toward `via` (which must itself have a link or route onward).
    pub fn set_route(&mut self, src: NodeId, dst: NodeId, via: NodeId) {
        let r = self.row_of(src);
        let row = &mut self.routes[r];
        match row.iter_mut().find(|(x, _)| *x == dst) {
            Some((_, v)) => *v = via,
            None => row.push((dst, via)),
        }
        if self.direct(src, dst).is_none() {
            self.set_entry(r, dst, self.direct(src, via));
        }
    }

    /// Next hop for `src -> dst`: the direct link if present, else the
    /// configured route, else `None`.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        if let Some(p) = self.entry(src, dst) {
            return Some(self.ports[p].to);
        }
        // The row holds a route only once the src->via link exists;
        // `next_hop` reports the configured route regardless (the
        // caller's link lookup then fails).
        let r = *self.rows.get(src.index())?;
        let routes = self.routes.get(r as usize)?;
        routes.iter().find(|(x, _)| *x == dst).map(|&(_, via)| via)
    }

    /// Resolve `src -> dst` to the next hop and the link the frame leaves
    /// on: one search of `src`'s forwarding row (engine fast path).
    #[inline]
    pub(crate) fn resolve(&mut self, src: NodeId, dst: NodeId) -> Option<(NodeId, &mut Link)> {
        let p = self.entry(src, dst)?;
        let port = &mut self.ports[p];
        Some((port.to, &mut port.link))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn ids(n: u16) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn full_mesh_has_all_directed_pairs() {
        let mut t = Topology::new();
        let nodes = ids(4);
        t.full_mesh(&nodes, LinkParams::datacenter());
        for &a in &nodes {
            for &b in &nodes {
                if a != b {
                    assert!(t.link(a, b).is_some(), "{a}->{b} missing");
                }
            }
        }
        assert!(t.link(NodeId(0), NodeId(0)).is_none());
    }

    #[test]
    fn chain_links_only_neighbors() {
        let mut t = Topology::new();
        t.chain(&ids(3), LinkParams::datacenter());
        assert!(t.link(NodeId(0), NodeId(1)).is_some());
        assert!(t.link(NodeId(1), NodeId(0)).is_some());
        assert!(t.link(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn star_connects_hub() {
        let mut t = Topology::new();
        t.star(NodeId(9), &ids(2), LinkParams::datacenter());
        assert!(t.link(NodeId(9), NodeId(0)).is_some());
        assert!(t.link(NodeId(0), NodeId(9)).is_some());
        assert!(t.link(NodeId(0), NodeId(1)).is_none());
    }

    #[test]
    fn groups_update() {
        let mut t = Topology::new();
        let g = GroupId(1);
        t.set_group(g, ids(3));
        assert_eq!(t.group(g).len(), 3);
        t.remove_from_group(g, NodeId(1));
        assert_eq!(t.group(g), &[NodeId(0), NodeId(2)]);
        assert!(t.group(GroupId(99)).is_empty());
    }

    #[test]
    fn link_down_is_duplex() {
        let mut t = Topology::new();
        t.connect(NodeId(0), NodeId(1), LinkParams::datacenter());
        t.set_link_down(NodeId(0), NodeId(1), true);
        assert!(t.link(NodeId(0), NodeId(1)).unwrap().state.down);
        assert!(t.link(NodeId(1), NodeId(0)).unwrap().state.down);
    }

    /// Overlapping degrades stack on both directions, one restore returns
    /// both to their pristine parameters, and replacing a link forgets
    /// what a degrade saved.
    #[test]
    fn degrades_stack_and_one_restore_undoes_them() {
        let mut t = Topology::new();
        let (a, b) = (NodeId(0), NodeId(1));
        t.connect(a, b, LinkParams::datacenter());
        t.degrade_link(a, b, &LinkOverlay::loss(0.5));
        t.degrade_link(b, a, &LinkOverlay::jitter(SimDuration(7)));
        for (x, y) in [(a, b), (b, a)] {
            let p = t.link(x, y).unwrap().params;
            assert_eq!((p.drop_prob, p.jitter), (0.5, SimDuration(7)));
        }
        t.restore_link(a, b);
        for (x, y) in [(a, b), (b, a)] {
            assert_eq!(t.link(x, y).unwrap().params, LinkParams::datacenter());
        }
        t.degrade_link(a, b, &LinkOverlay::loss(0.5));
        t.add_link(a, b, LinkParams::lossy(0.1));
        t.restore_link(a, b);
        assert_eq!(t.link(a, b).unwrap().params, LinkParams::lossy(0.1));
        assert_eq!(t.link(b, a).unwrap().params, LinkParams::datacenter());
    }

    #[test]
    fn routes_resolve_via_relay() {
        let mut t = Topology::new();
        t.connect(NodeId(0), NodeId(9), LinkParams::datacenter());
        t.connect(NodeId(9), NodeId(1), LinkParams::datacenter());
        t.set_route(NodeId(0), NodeId(1), NodeId(9));
        assert_eq!(t.next_hop(NodeId(0), NodeId(1)), Some(NodeId(9)));
        let (hop, link) = t.resolve(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(hop, NodeId(9));
        assert!(!link.state.down);
        // Direct links win over routes.
        assert_eq!(t.next_hop(NodeId(0), NodeId(9)), Some(NodeId(9)));
        // Unknown destinations resolve to nothing.
        assert_eq!(t.next_hop(NodeId(0), NodeId(42)), None);
        assert!(t.resolve(NodeId(0), NodeId(42)).is_none());
    }

    /// The forwarding rows agree with the rule they encode — the direct
    /// link if any, else the route's relay if `src -> via` is a link —
    /// after every step of a random mix of link adds and replacements and
    /// route installs and re-points, in any order.
    #[test]
    fn resolve_matches_a_reference_under_random_edits() {
        use std::collections::BTreeMap;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let node = |x: u64| NodeId([0, 1, 2, 3, 40, 41, 500, 1000][x as usize]);
        let mut t = Topology::new();
        // (src, dst) -> the latency tag of the link's latest parameters.
        let mut links: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
        let mut routes: BTreeMap<(NodeId, NodeId), NodeId> = BTreeMap::new();
        for step in 0..2_000u64 {
            let (a, b, v) = (node(next(8)), node(next(8)), node(next(8)));
            if next(2) == 0 {
                let params = LinkParams::datacenter().with_latency(SimDuration(step));
                t.add_link(a, b, params);
                links.insert((a, b), step);
            } else {
                t.set_route(a, b, v);
                routes.insert((a, b), v);
            }
            for x in 0..8 {
                for y in 0..8 {
                    let (src, dst) = (node(x), node(y));
                    let want = if links.contains_key(&(src, dst)) {
                        Some(dst)
                    } else {
                        routes
                            .get(&(src, dst))
                            .copied()
                            .filter(|via| links.contains_key(&(src, *via)))
                    };
                    let got = t.resolve(src, dst);
                    let hop = got.as_ref().map(|(hop, _)| *hop);
                    assert_eq!(hop, want, "step {step}: {src}->{dst}");
                    if let Some((hop, link)) = got {
                        let tag = links[&(src, hop)];
                        assert_eq!(link.params.latency, SimDuration(tag));
                    }
                    let direct = links.get(&(src, dst));
                    let seen = t.link(src, dst).map(|l| l.params.latency.as_nanos());
                    assert_eq!(seen, direct.copied());
                    // `next_hop` reports a route even before its link exists.
                    let configured = direct.map(|_| dst).or(routes.get(&(src, dst)).copied());
                    assert_eq!(t.next_hop(src, dst), configured);
                }
            }
        }
    }

    #[test]
    fn replacing_a_link_resets_its_state() {
        let mut t = Topology::new();
        t.add_link(NodeId(0), NodeId(1), LinkParams::datacenter());
        t.link_mut(NodeId(0), NodeId(1)).unwrap().state.down = true;
        t.add_link(NodeId(0), NodeId(1), LinkParams::lossy(0.5));
        let l = t.link(NodeId(0), NodeId(1)).unwrap();
        assert!(!l.state.down);
        assert_eq!(l.params.drop_prob, 0.5);
    }
}
