//! Shared scenario building blocks for the experiments, `explain` and
//! the replay tools: the replay, probe and leader-crash deployments, the
//! detached-observer echo, and measurement helpers. The NFs and probe
//! packets they drive come from [`swishmem::probe`].

use std::time::Instant;
use swishmem::prelude::*;
use swishmem::probe::{count_pkt, udp_write, ProbeNf, WriteNf};
use swishmem::{CtrlEvent, RegisterSpec, SharedState};
use swishmem_simnet::{Ctx, Family, Node, Simulator, SpanPhase, Trace};
use swishmem_wire::{Packet, PacketBody, TraceId};

/// The replay workload's NF: every packet adds 1 to EWO register 0 at
/// key `dst % 256`, forwarding to host 0.
pub struct CountNf;

impl swishmem::NfApp for CountNf {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> swishmem::NfDecision {
        st.add(0, u32::from(pkt.flow.dst) % 256, 1);
        swishmem::NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

/// The replay deployment (E24, `capture --run`, `replay --trace`): 3
/// switches, 2 hosts and one 256-key EWO counter updated by
/// [`CountNf`], settled.
pub fn replay_deployment(seed: u64) -> Deployment {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(2)
        .seed(seed)
        .register(RegisterSpec::ewo_counter(0, "cnt", 256))
        .build(|_| Box::new(CountNf));
    dep.settle();
    dep
}

/// Build a [`ProbeNf`] deployment over one register of the given class.
pub fn probe_deployment(n: usize, spec: RegisterSpec, cfg: SwishConfig) -> Deployment {
    DeploymentBuilder::new(n)
        .hosts(2)
        .swish_config(cfg)
        .register(spec)
        .build(|_| Box::new(ProbeNf))
}

/// Keys of the partitioned register the leader-crash runs write.
pub const CRASH_KEYS: u32 = 48;

/// The leader-crash deployment (E22, E23, `explain`): 3 switches, one
/// host, a 3-replica controller group further configured by `tweak`, and
/// a [`CRASH_KEYS`]-key partitioned register written by [`WriteNf`].
/// Returned unsettled, so an observer attached now also sees the
/// bootstrap election.
pub fn replicated_deployment(seed: u64, tweak: impl FnOnce(&mut SwishConfig)) -> Deployment {
    let mut cfg = SwishConfig {
        ctrl_replicas: 3,
        ..Default::default()
    };
    tweak(&mut cfg);
    DeploymentBuilder::new(3)
        .hosts(1)
        .seed(seed)
        .swish_config(cfg)
        .register(RegisterSpec::partitioned(0, "p", CRASH_KEYS))
        .build(|_| Box::new(WriteNf))
}

/// Offer `n` writes evenly spread over `window` from `t0`, round-robin
/// over the three switches and the [`CRASH_KEYS`] keys.
pub fn inject_writes(dep: &mut Deployment, t0: SimTime, n: u64, window: SimDuration) {
    let step = window.as_nanos() / n.max(1);
    for i in 0..n {
        let key = (i % u64::from(CRASH_KEYS)) as u16;
        dep.inject(
            t0 + SimDuration::nanos(i * step),
            (i % 3) as usize,
            0,
            udp_write(key, 100 + (i % 400) as u16),
        );
    }
}

/// Warm the failure detector up for 30 ms (≥3 beacon gaps), crash the
/// leader replica, offer 24 writes over the next 20 ms and run 60 ms past
/// the crash. Returns the crash time.
pub fn crash_leader(dep: &mut Deployment) -> SimTime {
    dep.run_for(SimDuration::millis(30));
    let t_crash = dep.now();
    dep.schedule_ctrl_fail(t_crash, 0);
    inject_writes(dep, t_crash, 24, SimDuration::millis(20));
    dep.run_for(SimDuration::millis(60));
    t_crash
}

/// Crash-to-election gap as the controller's own election log saw it:
/// the first election at or after `t_crash`.
pub fn election_gap(dep: &Deployment, t_crash: SimTime) -> Option<SimDuration> {
    dep.controller()
        .elections()
        .iter()
        .find(|e| e.time >= t_crash)
        .map(|e| e.time.since(t_crash))
}

/// A ping-pong node for the detached-observer overhead gates (E18, E23).
/// Per packet it allocates a `TraceId` (unconditional protocol work: the
/// id rides the wire whether or not anyone observes) and, when `emit` is
/// set, emits one record of that family, the layer's common-case
/// instrumentation density. With no subscriber attached the emission
/// stops at the `Ctx` family check.
struct Echo {
    ttl: u32,
    seq: u64,
    emit: Option<Family>,
}

impl Node for Echo {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketBody::Data(d) = pkt.body {
            self.seq += 1;
            let trace = TraceId::new(pkt.dst, self.seq);
            match self.emit {
                None => {
                    std::hint::black_box(trace);
                }
                Some(Family::Span) => ctx.span(trace, SpanPhase::Ingress),
                Some(Family::Journal) => ctx.journal(CtrlEvent::Applied {
                    slot: self.seq,
                    tag: 3,
                }),
                Some(f) => unreachable!("the echo emits spans or journal records, not {f:?}"),
            }
            if d.flow_seq < self.ttl {
                let mut d2 = d;
                d2.flow_seq += 1;
                ctx.send(pkt.src, PacketBody::Data(d2));
            }
        }
    }
}

/// Two echoes bounce one packet `events` times, emitting one `emit`
/// record per packet when set. Returns the wall-clock seconds and the
/// events the engine processed.
pub fn time_echo(events: u64, emit: Option<Family>) -> (f64, u64) {
    let mut sim = Simulator::new(1);
    for id in [NodeId(0), NodeId(1)] {
        sim.add_node(
            id,
            Box::new(Echo {
                ttl: events as u32,
                seq: 0,
                emit,
            }),
        );
    }
    sim.topology_mut()
        .connect(NodeId(0), NodeId(1), LinkParams::datacenter());
    sim.inject(
        SimTime::ZERO,
        Packet::data(NodeId(0), NodeId(1), count_pkt(2, 0)),
    );
    let t = Instant::now();
    sim.run_until_quiescent(SimTime(u64::MAX / 2));
    let dt = t.elapsed().as_secs_f64();
    assert!(sim.stats().delivered_total().packets >= events);
    (dt, sim.events_processed())
}

/// Best-of-`reps` events/s of the plain echo and of the echo emitting
/// one `family` record per packet, reps **interleaved** so clock drift
/// and scheduler noise hit both sides alike; min wall-clock is the
/// noise-robust estimator for a deterministic workload. Returns
/// `(plain, emitting)` events/s.
pub fn measure_pair(family: Family, events: u64, reps: usize) -> (f64, f64) {
    // Warm-up to fault in both code paths before either side is timed.
    time_echo(events.min(10_000), None);
    time_echo(events.min(10_000), Some(family));
    let (mut best_p, mut best_e) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best_p = best_p.min(time_echo(events, None).0);
        best_e = best_e.min(time_echo(events, Some(family)).0);
    }
    (events as f64 / best_p, events as f64 / best_e)
}

/// Extract `(arrival_time, tag, value)` triples for the read-probe host
/// `host` from a packet trace of the run (tag = src_port, value =
/// flow_seq). Panics if the trace overflowed, so a trace too small for
/// the run cannot silently drop arrivals.
pub fn read_arrivals(trace: &Trace, host: NodeId) -> Vec<(SimTime, u16, u32)> {
    assert_eq!(trace.overflowed(), 0, "packet trace too small for the run");
    trace
        .received_by(host)
        .into_iter()
        .filter_map(|e| match &e.pkt.body {
            PacketBody::Data(d) => Some((e.time, d.flow.src_port, d.flow_seq)),
            _ => None,
        })
        .collect()
}

/// Mean of a slice (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `(min, mean, max)` of a slice of non-negative values (all 0 when
/// empty).
pub fn min_mean_max(xs: &[f64]) -> (f64, f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = xs.iter().cloned().fold(0.0f64, f64::max);
    (min, mean(xs), max)
}

/// Percentile of a slice via nearest rank (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use swishmem::probe::tcp_read;

    #[test]
    fn probe_write_then_read_round_trip() {
        let mut dep = probe_deployment(3, RegisterSpec::sro(0, "t", 128), SwishConfig::default());
        let trace = Trace::new(1 << 12);
        dep.add_observer(trace.clone());
        dep.settle();
        let t = dep.now();
        dep.inject(t, 0, 0, udp_write(17, 321));
        dep.run_for(SimDuration::millis(20));
        let t = dep.now();
        dep.inject(t, 2, 0, tcp_read(17, 42));
        dep.run_for(SimDuration::millis(10));
        let arrivals = read_arrivals(&trace.borrow(), dep.host(1));
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].1, 42);
        assert_eq!(arrivals[0].2, 321);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(min_mean_max(&[]), (0.0, 0.0, 0.0));
        assert_eq!(min_mean_max(&[2.0, 1.0, 6.0]), (1.0, 3.0, 6.0));
    }
}
