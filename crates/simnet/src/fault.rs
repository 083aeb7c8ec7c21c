//! The fault plane: declarative, seed-reproducible fault schedules.
//!
//! A [`FaultSchedule`] is a list of `(offset, action)` pairs covering the
//! failure taxonomy of the paper's §5–§6.3 — fail-stop crash/restart,
//! link outages, healing partitions, timed loss/jitter/corruption bursts
//! and gray-failure slow links — which the engine executes as ordinary
//! events, so the determinism contract (total order on `(time, seq)`,
//! single engine-owned RNG) is preserved: the same seed plus the same
//! schedule replays bit-for-bit.
//!
//! [`FaultGen`] samples random schedules from its *own* seeded RNG at
//! construction time; it never touches the engine RNG, so a generated
//! schedule is a pure function of its seed and the target sets.

use crate::link::LinkParams;
use crate::time::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use swishmem_wire::NodeId;

/// A partial override of a link's parameters, applied on degrade and
/// undone on restore. `None` fields keep the link's current value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkOverlay {
    /// Override drop probability (loss burst).
    pub drop_prob: Option<f64>,
    /// Override jitter bound (reordering burst).
    pub jitter: Option<SimDuration>,
    /// Override corruption probability.
    pub corrupt_prob: Option<f64>,
    /// Override one-way latency (gray-failure slow link).
    pub latency: Option<SimDuration>,
    /// Override bandwidth (gray-failure degraded link).
    pub bandwidth_bps: Option<u64>,
}

impl LinkOverlay {
    /// A loss burst: frames dropped with probability `p`.
    pub fn loss(p: f64) -> LinkOverlay {
        LinkOverlay {
            drop_prob: Some(p),
            ..LinkOverlay::default()
        }
    }

    /// A jitter burst: up to `j` extra random delay per frame.
    pub fn jitter(j: SimDuration) -> LinkOverlay {
        LinkOverlay {
            jitter: Some(j),
            ..LinkOverlay::default()
        }
    }

    /// A corruption burst: frames arrive damaged with probability `p`.
    pub fn corrupt(p: f64) -> LinkOverlay {
        LinkOverlay {
            corrupt_prob: Some(p),
            ..LinkOverlay::default()
        }
    }

    /// A gray failure: the link stays up but becomes slow.
    pub fn slow(latency: SimDuration, bandwidth_bps: u64) -> LinkOverlay {
        LinkOverlay {
            latency: Some(latency),
            bandwidth_bps: Some(bandwidth_bps),
            ..LinkOverlay::default()
        }
    }

    /// Apply this overlay on top of `base`.
    pub fn apply(&self, base: LinkParams) -> LinkParams {
        LinkParams {
            latency: self.latency.unwrap_or(base.latency),
            bandwidth_bps: self.bandwidth_bps.unwrap_or(base.bandwidth_bps),
            drop_prob: self.drop_prob.unwrap_or(base.drop_prob),
            jitter: self.jitter.unwrap_or(base.jitter),
            corrupt_prob: self.corrupt_prob.unwrap_or(base.corrupt_prob),
        }
    }
}

impl fmt::Display for LinkOverlay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if wrote {
                write!(f, " ")?;
            }
            wrote = true;
            Ok(())
        };
        if let Some(p) = self.drop_prob {
            sep(f)?;
            write!(f, "loss={p}")?;
        }
        if let Some(j) = self.jitter {
            sep(f)?;
            write!(f, "jitter={j}")?;
        }
        if let Some(p) = self.corrupt_prob {
            sep(f)?;
            write!(f, "corrupt={p}")?;
        }
        if let Some(l) = self.latency {
            sep(f)?;
            write!(f, "latency={l}")?;
        }
        if let Some(b) = self.bandwidth_bps {
            sep(f)?;
            write!(f, "bw={b}bps")?;
        }
        if !wrote {
            write!(f, "(none)")?;
        }
        Ok(())
    }
}

/// One fault-plane action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Fail-stop crash: the node loses all state and goes silent.
    Crash {
        /// The victim.
        node: NodeId,
    },
    /// Restart a crashed node with fresh state (§6.3's recovery model).
    Restart {
        /// The node to restart.
        node: NodeId,
    },
    /// Take the duplex link `a <-> b` down.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Bring the duplex link `a <-> b` back up.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Degrade the duplex link `a <-> b`: overlay loss/jitter/corruption
    /// or gray-failure slowness on its parameters (pristine parameters
    /// are saved and restored by [`FaultAction::Restore`]).
    Degrade {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The parameter overlay.
        overlay: LinkOverlay,
    },
    /// Restore the duplex link `a <-> b` to its pristine parameters.
    Restore {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Fire a timer token on `node` — the hook the reconfiguration
    /// engine uses to interleave planner/migration triggers into fault
    /// schedules. The token is delivered through the node's ordinary
    /// `on_timer` path, so it shares the `(time, seq)` total order with
    /// every other event.
    Trigger {
        /// The node whose timer fires.
        node: NodeId,
        /// The opaque timer token.
        token: u64,
    },
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Crash { node } => write!(f, "crash    {node}"),
            FaultAction::Restart { node } => write!(f, "restart  {node}"),
            FaultAction::LinkDown { a, b } => write!(f, "linkdown {a}<->{b}"),
            FaultAction::LinkUp { a, b } => write!(f, "linkup   {a}<->{b}"),
            FaultAction::Degrade { a, b, overlay } => {
                write!(f, "degrade  {a}<->{b} [{overlay}]")
            }
            FaultAction::Restore { a, b } => write!(f, "restore  {a}<->{b}"),
            FaultAction::Trigger { node, token } => {
                write!(f, "trigger  {node} token={token:#x}")
            }
        }
    }
}

/// A timed fault action; `at` is an offset from the schedule's base time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Offset from the time the schedule is installed.
    pub at: SimDuration,
    /// What happens.
    pub action: FaultAction,
}

/// A declarative schedule of mid-run faults.
///
/// Build one with the fluent helpers, or sample one from a seed with
/// [`FaultGen`]; install it with `Simulator::schedule_faults` (or the
/// deployment-layer wrapper). The `Display` form is the replay artifact:
/// printing the seed plus this schedule is enough to reproduce a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Offset of the last event: after `base + horizon()` every scheduled
    /// fault has been injected *and healed* (every helper pairs the
    /// breaking action with its heal).
    pub fn horizon(&self) -> SimDuration {
        self.events
            .iter()
            .map(|e| e.at)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Append a raw action at `at`.
    pub fn at(mut self, at: SimDuration, action: FaultAction) -> Self {
        self.push(at, action);
        self
    }

    /// Crash `node` at `at` and restart it `down_for` later.
    pub fn crash_for(mut self, node: NodeId, at: SimDuration, down_for: SimDuration) -> Self {
        self.push(at, FaultAction::Crash { node });
        self.push(at + down_for, FaultAction::Restart { node });
        self
    }

    /// Take the duplex link `a <-> b` down at `at` for `down_for`.
    pub fn link_outage(
        mut self,
        a: NodeId,
        b: NodeId,
        at: SimDuration,
        down_for: SimDuration,
    ) -> Self {
        self.push(at, FaultAction::LinkDown { a, b });
        self.push(at + down_for, FaultAction::LinkUp { a, b });
        self
    }

    /// Degrade the duplex link `a <-> b` with `overlay` for `lasting`,
    /// then restore its pristine parameters (loss/jitter/corruption
    /// bursts and gray-failure slow links).
    pub fn degrade_for(
        mut self,
        a: NodeId,
        b: NodeId,
        at: SimDuration,
        lasting: SimDuration,
        overlay: LinkOverlay,
    ) -> Self {
        self.push(at, FaultAction::Degrade { a, b, overlay });
        self.push(at + lasting, FaultAction::Restore { a, b });
        self
    }

    /// A healing partition: every link between `side_a` and `side_b` goes
    /// down at `at` and comes back `lasting` later.
    pub fn partition(
        mut self,
        side_a: &[NodeId],
        side_b: &[NodeId],
        at: SimDuration,
        lasting: SimDuration,
    ) -> Self {
        for &a in side_a {
            for &b in side_b {
                self.push(at, FaultAction::LinkDown { a, b });
                self.push(at + lasting, FaultAction::LinkUp { a, b });
            }
        }
        self
    }

    /// Fire timer `token` on `node` at `at` (reconfiguration trigger).
    pub fn trigger(mut self, at: SimDuration, node: NodeId, token: u64) -> Self {
        self.push(at, FaultAction::Trigger { node, token });
        self
    }

    fn push(&mut self, at: SimDuration, action: FaultAction) {
        self.events.push(FaultEvent { at, action });
    }

    /// Sort events by offset (stable, so same-time actions keep their
    /// insertion order). Generated schedules are sorted for readability;
    /// execution order is guaranteed by the engine's `(time, seq)` total
    /// order either way.
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| e.at);
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return writeln!(f, "fault schedule: (empty)");
        }
        writeln!(f, "fault schedule ({} events):", self.events.len())?;
        for e in &self.events {
            writeln!(f, "  +{:<12} {}", e.at.to_string(), e.action)?;
        }
        Ok(())
    }
}

/// Relative weights of the episode kinds [`FaultGen`] samples.
const EPISODES: &[(u32, EpisodeKind)] = &[
    (25, EpisodeKind::Crash),
    (15, EpisodeKind::LinkOutage),
    (20, EpisodeKind::LossBurst),
    (10, EpisodeKind::JitterBurst),
    (10, EpisodeKind::CorruptBurst),
    (10, EpisodeKind::GrayLink),
    (10, EpisodeKind::Partition),
];

#[derive(Debug, Clone, Copy)]
enum EpisodeKind {
    Crash,
    LinkOutage,
    LossBurst,
    JitterBurst,
    CorruptBurst,
    GrayLink,
    Partition,
}

/// Samples random [`FaultSchedule`]s from a seed.
///
/// The generator owns its own `StdRng`; schedules are a pure function of
/// `(seed, nodes, links, horizon, episodes)` and independent of the
/// engine RNG, so a printed seed is a complete replay recipe.
pub struct FaultGen {
    seed: u64,
    rng: StdRng,
}

impl FaultGen {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> FaultGen {
        FaultGen {
            seed,
            rng: StdRng::seed_from_u64(seed ^ 0xfa17_fa17_fa17_fa17),
        }
    }

    /// The seed this generator was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sample a schedule of `episodes` fault episodes over `horizon`.
    ///
    /// * `nodes` — crash candidates (never more than half down at once,
    ///   so the system always has survivors to degrade onto).
    /// * `links` — duplex links eligible for outages, bursts, gray
    ///   failures and partition cuts; include controller links to model
    ///   control-plane message delay and drop.
    ///
    /// Every episode heals by 85% of the horizon: after `horizon` the
    /// fault plane is quiescent and the online oracles' convergence
    /// clocks may start.
    pub fn generate(
        &mut self,
        nodes: &[NodeId],
        links: &[(NodeId, NodeId)],
        horizon: SimDuration,
        episodes: usize,
    ) -> FaultSchedule {
        self.generate_with_controllers(nodes, &[], links, horizon, episodes)
    }

    /// [`FaultGen::generate`] with controller-replica crash coverage:
    /// `ctrls` joins the crash (and partition) candidate pool, but with
    /// its own concurrency budget — at most `⌊(ctrls.len() - 1) / 2⌋`
    /// replicas down at once, so a quorum (majority) is always alive
    /// and the replicated control plane can keep making decisions. This
    /// mirrors the `⌊nodes.len() / 2⌋` switch-crash guard; an
    /// over-budget pick degrades a link instead, keeping the episode
    /// count deterministic. Partition episodes keep the whole replica
    /// group on one side of the cut, so no schedule can sever two
    /// replicas from each other — switches may lose their controller
    /// path, but the group itself always retains a live, mutually
    /// connected majority. With `ctrls` empty this is
    /// [`FaultGen::generate`], whose seeds replay unchanged.
    pub fn generate_with_controllers(
        &mut self,
        nodes: &[NodeId],
        ctrls: &[NodeId],
        links: &[(NodeId, NodeId)],
        horizon: SimDuration,
        episodes: usize,
    ) -> FaultSchedule {
        let h = horizon.as_nanos().max(1_000_000); // at least 1 ms
        let heal_by = h * 85 / 100;
        let mut sched = FaultSchedule::new();
        // Crash windows already committed: (node, start, end).
        let mut crashes: Vec<(NodeId, u64, u64)> = Vec::new();
        let max_down = (nodes.len() / 2).max(1);
        let total_weight: u32 = EPISODES.iter().map(|(w, _)| w).sum();

        for _ in 0..episodes {
            let start = self.rng.gen_range(h / 20..=h * 3 / 5);
            let dur = self
                .rng
                .gen_range(h / 20..=h / 4)
                .min(heal_by - start.min(heal_by));
            let end = (start + dur.max(1)).min(heal_by);
            let dur = end.saturating_sub(start).max(1);
            let (at, lasting) = (SimDuration::nanos(start), SimDuration::nanos(dur));

            let mut pick = self.rng.gen_range(0..total_weight);
            let mut kind = EpisodeKind::LossBurst;
            for &(w, k) in EPISODES {
                if pick < w {
                    kind = k;
                    break;
                }
                pick -= w;
            }

            match kind {
                EpisodeKind::Crash => {
                    // Single candidate pool: indices past `nodes` pick a
                    // controller replica. With `ctrls` empty the range
                    // bound is unchanged, so the RNG stream — and every
                    // previously published seed — replays byte-identical.
                    let idx = self.rng.gen_range(0..nodes.len() + ctrls.len());
                    let (node, class): (NodeId, &[NodeId]) = if idx < nodes.len() {
                        (nodes[idx], nodes)
                    } else {
                        (ctrls[idx - nodes.len()], ctrls)
                    };
                    // Controllers budget separately from switches: a
                    // majority (quorum) of the replica group must stay
                    // alive, so at most ⌊(n-1)/2⌋ may be down at once
                    // (0 for a singleton — never crash the only one).
                    let budget = if idx < nodes.len() {
                        max_down
                    } else {
                        ctrls.len().saturating_sub(1) / 2
                    };
                    let overlapping = crashes
                        .iter()
                        .filter(|&&(n, s, e)| {
                            n != node && class.contains(&n) && s < end && start < e
                        })
                        .count();
                    let self_overlap = crashes
                        .iter()
                        .any(|&(n, s, e)| n == node && s <= end && start <= e);
                    if self_overlap || overlapping + 1 > budget {
                        // Too many concurrent crashes: degrade a link
                        // instead so the episode count stays deterministic.
                        if let Some(&(a, b)) = self.pick_link(links) {
                            sched = sched.degrade_for(a, b, at, lasting, LinkOverlay::loss(0.2));
                        }
                    } else {
                        crashes.push((node, start, end));
                        sched = sched.crash_for(node, at, lasting);
                    }
                }
                EpisodeKind::LinkOutage => {
                    if let Some(&(a, b)) = self.pick_link(links) {
                        sched = sched.link_outage(a, b, at, lasting);
                    }
                }
                EpisodeKind::LossBurst => {
                    if let Some(&(a, b)) = self.pick_link(links) {
                        let p = self.rng.gen_range(0.05..0.4);
                        sched = sched.degrade_for(a, b, at, lasting, LinkOverlay::loss(p));
                    }
                }
                EpisodeKind::JitterBurst => {
                    if let Some(&(a, b)) = self.pick_link(links) {
                        let j = SimDuration::micros(self.rng.gen_range(1..=20));
                        sched = sched.degrade_for(a, b, at, lasting, LinkOverlay::jitter(j));
                    }
                }
                EpisodeKind::CorruptBurst => {
                    if let Some(&(a, b)) = self.pick_link(links) {
                        let p = self.rng.gen_range(0.05..0.3);
                        sched = sched.degrade_for(a, b, at, lasting, LinkOverlay::corrupt(p));
                    }
                }
                EpisodeKind::GrayLink => {
                    if let Some(&(a, b)) = self.pick_link(links) {
                        let lat = SimDuration::micros(self.rng.gen_range(10..=100));
                        let bw = 1_000_000_000 / self.rng.gen_range(1..=10u64);
                        sched = sched.degrade_for(a, b, at, lasting, LinkOverlay::slow(lat, bw));
                    }
                }
                EpisodeKind::Partition => {
                    // Controller replicas join the cut pool too, so
                    // switches can lose their control-plane path mid-
                    // migration. Empty `ctrls` keeps the draw bounds
                    // (and so the RNG stream) identical to the
                    // pre-replica model.
                    let pool: Vec<NodeId> = nodes.iter().chain(ctrls.iter()).copied().collect();
                    if pool.len() >= 2 {
                        let k = self.rng.gen_range(1..pool.len());
                        let r = self.rng.gen_range(0..pool.len());
                        let rotated: Vec<NodeId> = (0..pool.len())
                            .map(|i| pool[(i + r) % pool.len()])
                            .collect();
                        let (a, b) = rotated.split_at(k);
                        // Re-home the replica group onto one side so a
                        // cut never severs two replicas from each other:
                        // combined with the crash budget this guarantees
                        // a live, mutually connected controller majority
                        // in every sampled schedule. Side with more
                        // replicas wins (ties go to `a`); pure shuffling,
                        // no extra RNG draws, and with `ctrls` empty the
                        // events are byte-identical to the legacy path.
                        let (mut a, mut b) = (a.to_vec(), b.to_vec());
                        if !ctrls.is_empty() {
                            let n_in =
                                |s: &[NodeId]| s.iter().filter(|n| ctrls.contains(n)).count();
                            let (keep, strip) = if n_in(&a) >= n_in(&b) {
                                (&mut a, &mut b)
                            } else {
                                (&mut b, &mut a)
                            };
                            strip.retain(|n| !ctrls.contains(n));
                            for &c in ctrls {
                                if !keep.contains(&c) {
                                    keep.push(c);
                                }
                            }
                        }
                        sched = sched.partition(&a, &b, at, lasting);
                    }
                }
            }
        }
        sched.sort();
        sched
    }

    /// Interleave `count` reconfiguration triggers into `sched`: each one
    /// fires a token sampled from `tokens` on `node` at a random offset in
    /// the same window episodes start in, so migrations race crashes,
    /// outages and partitions. The caller supplies the controller node and
    /// the candidate trigger tokens (see `swishmem::reconfig::trigger_token`);
    /// the schedule stays a pure function of the generator seed.
    pub fn interleave_triggers(
        &mut self,
        mut sched: FaultSchedule,
        node: NodeId,
        tokens: &[u64],
        horizon: SimDuration,
        count: usize,
    ) -> FaultSchedule {
        if tokens.is_empty() || count == 0 {
            return sched;
        }
        let h = horizon.as_nanos().max(1_000_000);
        for _ in 0..count {
            let at = SimDuration::nanos(self.rng.gen_range(h / 20..=h * 3 / 5));
            let token = tokens[self.rng.gen_range(0..tokens.len())];
            sched = sched.trigger(at, node, token);
        }
        sched.sort();
        sched
    }

    fn pick_link<'a>(&mut self, links: &'a [(NodeId, NodeId)]) -> Option<&'a (NodeId, NodeId)> {
        if links.is_empty() {
            return None;
        }
        Some(&links[self.rng.gen_range(0..links.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);
    const C: NodeId = NodeId(2);

    #[test]
    fn helpers_pair_break_with_heal() {
        let s = FaultSchedule::new()
            .crash_for(A, SimDuration::millis(1), SimDuration::millis(2))
            .link_outage(A, B, SimDuration::millis(2), SimDuration::millis(1))
            .degrade_for(
                B,
                C,
                SimDuration::millis(3),
                SimDuration::millis(4),
                LinkOverlay::loss(0.5),
            );
        assert_eq!(s.len(), 6);
        assert_eq!(s.horizon(), SimDuration::millis(7));
        let crashes = s
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Crash { .. }))
            .count();
        let restarts = s
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Restart { .. }))
            .count();
        assert_eq!(crashes, restarts);
    }

    #[test]
    fn partition_cuts_every_cross_pair() {
        let s = FaultSchedule::new().partition(
            &[A, B],
            &[C],
            SimDuration::millis(1),
            SimDuration::millis(2),
        );
        // 2 cross pairs, each with a down and an up event.
        assert_eq!(s.len(), 4);
        assert!(s
            .events()
            .iter()
            .any(|e| e.action == FaultAction::LinkDown { a: A, b: C }));
        assert!(s
            .events()
            .iter()
            .any(|e| e.action == FaultAction::LinkUp { a: B, b: C }));
    }

    #[test]
    fn overlay_applies_partially() {
        let base = LinkParams::datacenter();
        let o = LinkOverlay::loss(0.25);
        let p = o.apply(base);
        assert_eq!(p.drop_prob, 0.25);
        assert_eq!(p.latency, base.latency);
        assert_eq!(p.bandwidth_bps, base.bandwidth_bps);
        let g = LinkOverlay::slow(SimDuration::micros(50), 1_000_000);
        let p = g.apply(base);
        assert_eq!(p.latency, SimDuration::micros(50));
        assert_eq!(p.bandwidth_bps, 1_000_000);
        assert_eq!(p.drop_prob, base.drop_prob);
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let nodes = [A, B, C];
        let links = [(A, B), (B, C), (A, C)];
        let h = SimDuration::millis(50);
        let s1 = FaultGen::new(7).generate(&nodes, &links, h, 5);
        let s2 = FaultGen::new(7).generate(&nodes, &links, h, 5);
        assert_eq!(s1, s2, "same seed must generate the same schedule");
        let s3 = FaultGen::new(8).generate(&nodes, &links, h, 5);
        assert_ne!(s1, s3, "different seeds should diverge");
        assert!(!s1.is_empty());
    }

    #[test]
    fn generated_schedules_heal_within_horizon() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let links: Vec<(NodeId, NodeId)> = (0..4)
            .flat_map(|i| ((i + 1)..4).map(move |j| (NodeId(i), NodeId(j))))
            .collect();
        for seed in 0..20 {
            let h = SimDuration::millis(40);
            let s = FaultGen::new(seed).generate(&nodes, &links, h, 6);
            assert!(
                s.horizon() <= h,
                "seed {seed}: schedule exceeds its horizon\n{s}"
            );
            // Every crash has a matching restart, every down an up, every
            // degrade a restore.
            let count = |f: &dyn Fn(&FaultAction) -> bool| {
                s.events().iter().filter(|e| f(&e.action)).count()
            };
            assert_eq!(
                count(&|a| matches!(a, FaultAction::Crash { .. })),
                count(&|a| matches!(a, FaultAction::Restart { .. })),
                "seed {seed}:\n{s}"
            );
            assert_eq!(
                count(&|a| matches!(a, FaultAction::LinkDown { .. })),
                count(&|a| matches!(a, FaultAction::LinkUp { .. })),
                "seed {seed}:\n{s}"
            );
            assert_eq!(
                count(&|a| matches!(a, FaultAction::Degrade { .. })),
                count(&|a| matches!(a, FaultAction::Restore { .. })),
                "seed {seed}:\n{s}"
            );
        }
    }

    #[test]
    fn triggers_interleave_deterministically() {
        let nodes = [A, B, C];
        let links = [(A, B), (B, C), (A, C)];
        let h = SimDuration::millis(40);
        let mk = |seed| {
            let mut g = FaultGen::new(seed);
            let s = g.generate(&nodes, &links, h, 4);
            g.interleave_triggers(s, NodeId(999), &[0x10, 0x20], h, 3)
        };
        let s1 = mk(5);
        let s2 = mk(5);
        assert_eq!(s1, s2);
        let trig = s1
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Trigger { .. }))
            .count();
        assert_eq!(trig, 3);
        assert!(s1.horizon() <= h);
        // Empty token set is a no-op.
        let mut g = FaultGen::new(5);
        let base = g.generate(&nodes, &links, h, 4);
        let same = g.interleave_triggers(base.clone(), NodeId(999), &[], h, 3);
        assert_eq!(base, same);
    }

    #[test]
    fn empty_controller_set_replays_legacy_schedules() {
        // `generate_with_controllers(.., &[], ..)` must be byte-identical
        // to `generate` — published seeds keep replaying unchanged.
        let nodes = [A, B, C];
        let links = [(A, B), (B, C), (A, C)];
        let h = SimDuration::millis(50);
        for seed in 0..20 {
            let legacy = FaultGen::new(seed).generate(&nodes, &links, h, 6);
            let with = FaultGen::new(seed).generate_with_controllers(&nodes, &[], &links, h, 6);
            assert_eq!(legacy, with, "seed {seed}");
        }
    }

    #[test]
    fn controller_crashes_keep_a_quorum_alive() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let ctrls: Vec<NodeId> = (0..3).map(|i| NodeId(u16::MAX - i)).collect();
        let links: Vec<(NodeId, NodeId)> = nodes
            .iter()
            .flat_map(|&a| ctrls.iter().map(move |&c| (a, c)))
            .collect();
        let h = SimDuration::millis(60);
        let mut ctrl_crash_seeds = 0;
        for seed in 0..40 {
            let s = FaultGen::new(seed).generate_with_controllers(&nodes, &ctrls, &links, h, 8);
            // Replay crash/restart events and track how many controller
            // replicas are down at once: never more than ⌊(3-1)/2⌋ = 1,
            // so a 2-of-3 quorum is always alive.
            let mut down: Vec<NodeId> = Vec::new();
            let mut any_ctrl = false;
            for e in s.events() {
                match e.action {
                    FaultAction::Crash { node } if ctrls.contains(&node) => {
                        any_ctrl = true;
                        down.push(node);
                        assert!(
                            down.len() <= 1,
                            "seed {seed}: {} controller replicas down at once\n{s}",
                            down.len()
                        );
                    }
                    FaultAction::Restart { node } => down.retain(|&n| n != node),
                    _ => {}
                }
            }
            ctrl_crash_seeds += usize::from(any_ctrl);
        }
        // Controllers must actually be exercised across the seed sweep.
        assert!(
            ctrl_crash_seeds >= 5,
            "only {ctrl_crash_seeds}/40 seeds crashed a controller replica"
        );
    }

    #[test]
    fn no_schedule_degrades_a_controller_majority() {
        // Property sweep: across 64 seeds and two group sizes, no sampled
        // schedule may crash or partition away a controller majority at
        // any instant. Crashes are interval-checked (budget ⌊(n-1)/2⌋
        // concurrently down) and partitions must never cut a link between
        // two replicas — together these leave a live, mutually connected
        // majority at all times.
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        for n_ctrl in [3u16, 5] {
            let ctrls: Vec<NodeId> = (0..n_ctrl).map(|i| NodeId(u16::MAX - i)).collect();
            let links: Vec<(NodeId, NodeId)> = nodes
                .iter()
                .flat_map(|&a| ctrls.iter().map(move |&c| (a, c)))
                .collect();
            let budget = (usize::from(n_ctrl) - 1) / 2;
            let h = SimDuration::millis(60);
            let mut ctrl_cuts = 0;
            for seed in 0..64 {
                let s =
                    FaultGen::new(seed).generate_with_controllers(&nodes, &ctrls, &links, h, 10);
                // Crash intervals per controller replica.
                let mut down: Vec<(NodeId, u64)> = Vec::new(); // (replica, since)
                let mut windows: Vec<(u64, u64)> = Vec::new();
                for e in s.events() {
                    match e.action {
                        FaultAction::Crash { node } if ctrls.contains(&node) => {
                            down.push((node, e.at.as_nanos()));
                        }
                        FaultAction::Restart { node } if ctrls.contains(&node) => {
                            if let Some(i) = down.iter().position(|&(n, _)| n == node) {
                                let (_, since) = down.remove(i);
                                windows.push((since, e.at.as_nanos()));
                            }
                        }
                        FaultAction::LinkDown { a, b }
                            if ctrls.contains(&a) && ctrls.contains(&b) =>
                        {
                            ctrl_cuts += 1;
                        }
                        _ => {}
                    }
                }
                assert!(
                    down.is_empty(),
                    "seed {seed}: unhealed controller crash\n{s}"
                );
                // Sweep the interval boundaries for the true maximum
                // number of concurrently down replicas (restarts apply
                // before crashes at the same instant — touching windows
                // don't overlap).
                let mut bounds: Vec<(u64, i32)> = windows
                    .iter()
                    .flat_map(|&(s, e)| [(s, 1), (e, -1)])
                    .collect();
                bounds.sort_by_key(|&(t, delta)| (t, delta));
                let (mut cur, mut peak) = (0i32, 0i32);
                for (_, delta) in bounds {
                    cur += delta;
                    peak = peak.max(cur);
                }
                assert!(
                    peak as usize <= budget,
                    "seed {seed}: {peak} of {n_ctrl} replicas down at once\n{s}"
                );
            }
            assert_eq!(
                ctrl_cuts, 0,
                "{n_ctrl} replicas: some schedule partitioned the replica group"
            );
        }
    }

    #[test]
    fn display_prints_one_line_per_event() {
        let s = FaultSchedule::new().crash_for(A, SimDuration::millis(1), SimDuration::millis(2));
        let text = s.to_string();
        assert!(text.contains("crash"), "{text}");
        assert!(text.contains("restart"), "{text}");
        assert_eq!(text.lines().count(), 3); // header + 2 events
    }
}
