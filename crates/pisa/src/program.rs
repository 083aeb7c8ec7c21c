//! The data-plane program abstraction: the PISA match-action pipeline a
//! switch executes per packet (§2), plus the effect set a single packet's
//! processing may produce (forward, multicast, mirror, recirculate, punt
//! to control plane, drop).
//!
//! Atomicity: the engine calls [`DataPlaneProgram::on_packet`] once per
//! packet and applies the produced [`Effects`] only after it returns —
//! "the next processed packet will not see an intermediate view on the
//! state" (§2). Programs are therefore free to do multi-location writes
//! without locks, exactly the property the SwiShmem protocols exploit.

use crate::dataplane::DpView;
use std::any::Any;
use swishmem_simnet::{GroupId, SpanPhase};
use swishmem_wire::{NodeId, PacketBody, TraceId};

/// One output action of a packet's processing.
#[derive(Debug)]
pub enum Effect {
    /// Emit a frame toward `dst` (normal egress).
    Forward {
        /// Next hop.
        dst: NodeId,
        /// Frame payload.
        body: PacketBody,
    },
    /// Replicate a frame to every member of a multicast group (the
    /// multicast engine, used by EWO's eager update broadcast).
    Multicast {
        /// Target group.
        group: GroupId,
        /// Frame payload.
        body: PacketBody,
    },
    /// Send a frame to one uniformly-random member of a group — the EWO
    /// periodic-sync transmission pattern (§7: "forwarding each one to a
    /// randomly-selected switch in the replica group").
    AnycastRandom {
        /// Target group.
        group: GroupId,
        /// Frame payload.
        body: PacketBody,
    },
    /// Send the packet through the pipeline again after the recirculation
    /// delay (§2).
    Recirculate {
        /// Frame payload to re-process.
        body: PacketBody,
    },
    /// Hand an item to the switch-local control plane (packet-in). The
    /// payload is an arbitrary typed item so programs can attach computed
    /// context (e.g. SwiShmem's `(P', Q)` output-packet + write-set pair).
    Punt {
        /// The work item; the control app downcasts it.
        item: Box<dyn Any>,
        /// Causal trace of the punted operation; when not
        /// [`TraceId::NONE`], the switch emits `punt` / `cp_dequeue` span
        /// markers stamped with the modeled CP queue times.
        trace: TraceId,
    },
    /// Emit a causal span phase marker (pure telemetry: recorded against
    /// the simulator's span collector, produces no packet or event).
    Span {
        /// The operation the marker belongs to.
        trace: TraceId,
        /// Which phase happened.
        phase: SpanPhase,
    },
    /// Explicitly drop (recorded for statistics; producing no effect at
    /// all is equivalent for delivery purposes).
    Drop,
}

/// Collector for the effects of one pipeline pass.
#[derive(Debug)]
pub struct Effects {
    items: Vec<Effect>,
    /// Whether span markers are collected. The switch sets this from the
    /// engine's collector-attached state so a detached run never pays the
    /// per-packet push/dispatch of `Effect::Span` entries.
    tracing: bool,
}

impl Default for Effects {
    fn default() -> Effects {
        Effects {
            items: Vec::new(),
            // Direct constructions (tests, tools) keep spans observable.
            tracing: true,
        }
    }
}

impl Effects {
    /// Empty effect set.
    pub fn new() -> Effects {
        Effects::default()
    }

    /// Effect set collecting into `buf`, a (cleared) buffer the caller
    /// keeps across passes so a pass allocates nothing, with span
    /// collection switched on or off. [`Effects::into_buf`] hands the
    /// buffer back.
    pub fn over(mut buf: Vec<Effect>, tracing: bool) -> Effects {
        buf.clear();
        Effects {
            items: buf,
            tracing,
        }
    }

    /// Take the collected effects together with the buffer's capacity.
    pub fn into_buf(self) -> Vec<Effect> {
        self.items
    }

    /// Emit a frame toward `dst`.
    pub fn forward(&mut self, dst: NodeId, body: PacketBody) {
        self.items.push(Effect::Forward { dst, body });
    }

    /// Egress-mirror a copy toward `dst` (same mechanics as forward; the
    /// distinct name documents intent at call sites, §7's "egress
    /// mirroring").
    pub fn mirror(&mut self, dst: NodeId, body: PacketBody) {
        self.items.push(Effect::Forward { dst, body });
    }

    /// Replicate to a multicast group.
    pub fn multicast(&mut self, group: GroupId, body: PacketBody) {
        self.items.push(Effect::Multicast { group, body });
    }

    /// Send to one random member of a group.
    pub fn anycast_random(&mut self, group: GroupId, body: PacketBody) {
        self.items.push(Effect::AnycastRandom { group, body });
    }

    /// Recirculate for another pipeline pass.
    pub fn recirculate(&mut self, body: PacketBody) {
        self.items.push(Effect::Recirculate { body });
    }

    /// Punt a typed item to the control plane.
    pub fn punt<T: Any>(&mut self, item: T) {
        self.items.push(Effect::Punt {
            item: Box::new(item),
            trace: TraceId::NONE,
        });
    }

    /// Punt a typed item carrying a causal trace: the switch stamps
    /// `punt` and `cp_dequeue` markers from its CP queue model.
    pub fn punt_traced<T: Any>(&mut self, item: T, trace: TraceId) {
        self.items.push(Effect::Punt {
            item: Box::new(item),
            trace,
        });
    }

    /// Emit a span phase marker. A no-op when tracing is off for this
    /// pass or `trace` is [`TraceId::NONE`].
    pub fn span(&mut self, trace: TraceId, phase: SpanPhase) {
        if self.tracing && trace.is_some() {
            self.items.push(Effect::Span { trace, phase });
        }
    }

    /// Record an explicit drop.
    pub fn drop_packet(&mut self) {
        self.items.push(Effect::Drop);
    }

    /// Number of effects collected.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no effects were produced.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Drain the collected effects (engine use).
    pub fn drain(&mut self) -> impl Iterator<Item = Effect> + '_ {
        self.items.drain(..)
    }
}

/// A P4-style data-plane program.
///
/// State access goes through the [`DpView`]; outputs through [`Effects`].
/// Implementations must be deterministic functions of (packet, state):
/// the engine may run the same program on several switches and the
/// SwiShmem read-forwarding path assumes identical processing at the tail.
pub trait DataPlaneProgram: 'static {
    /// Process one packet. The program owns the packet: punting or
    /// re-emitting it is a move, never a deep copy.
    fn on_packet(&mut self, pkt: swishmem_wire::Packet, dp: &mut DpView<'_>, eff: &mut Effects);

    /// A packet-generator tick fired (§7's "periodic background task ...
    /// using the switch's packet generator"). `token` identifies which
    /// generator.
    fn on_pktgen(&mut self, _token: u64, _dp: &mut DpView<'_>, _eff: &mut Effects) {}

    /// The switch failed; clear program-internal state so a recovery
    /// starts fresh.
    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effects_collect_in_order() {
        let mut eff = Effects::new();
        eff.forward(NodeId(1), dummy_body());
        eff.punt(42u32);
        eff.drop_packet();
        assert_eq!(eff.len(), 3);
        let kinds: Vec<&'static str> = eff
            .drain()
            .map(|e| match e {
                Effect::Forward { .. } => "fwd",
                Effect::Punt { .. } => "punt",
                Effect::Drop => "drop",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["fwd", "punt", "drop"]);
    }

    #[test]
    fn punt_items_downcast() {
        let mut eff = Effects::new();
        eff.punt(String::from("work"));
        let first = eff.drain().next().unwrap();
        match first {
            Effect::Punt { item, trace } => {
                assert_eq!(trace, TraceId::NONE);
                assert_eq!(item.downcast::<String>().unwrap().as_str(), "work");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn dummy_body() -> PacketBody {
        use std::net::Ipv4Addr;
        PacketBody::Data(swishmem_wire::DataPacket::udp(
            swishmem_wire::FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2),
            0,
            0,
        ))
    }
}
