//! Point-to-point link model: propagation latency, serialization delay
//! derived from bandwidth, and fault injection (loss, jitter-induced
//! reordering, corruption) in the style of smoltcp's example fault
//! injectors.

use crate::time::{SimDuration, SimTime};

/// Immutable link characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Link rate in bits per second; determines serialization delay and
    /// back-to-back queueing. `0` disables serialization modeling.
    pub bandwidth_bps: u64,
    /// Probability in [0, 1] that a frame is silently dropped.
    pub drop_prob: f64,
    /// Maximum extra random delay added per frame. Nonzero jitter lets
    /// frames overtake each other (reordering), which the SRO in-order
    /// apply rule must tolerate.
    pub jitter: SimDuration,
    /// Probability in [0, 1] that a frame arrives corrupted. Corrupted
    /// frames are delivered flagged so receivers can drop them the way a
    /// real switch drops bad-FCS frames.
    pub corrupt_prob: f64,
}

impl LinkParams {
    /// A fast, lossless data-center-style link: 100 Gbps, 1 µs one-way.
    pub fn datacenter() -> LinkParams {
        LinkParams {
            latency: SimDuration::micros(1),
            bandwidth_bps: 100_000_000_000,
            drop_prob: 0.0,
            jitter: SimDuration::ZERO,
            corrupt_prob: 0.0,
        }
    }

    /// A lossy variant of [`LinkParams::datacenter`].
    pub fn lossy(drop_prob: f64) -> LinkParams {
        LinkParams {
            drop_prob,
            ..LinkParams::datacenter()
        }
    }

    /// Builder-style: set latency.
    pub fn with_latency(mut self, latency: SimDuration) -> Self {
        self.latency = latency;
        self
    }

    /// Builder-style: set jitter bound.
    pub fn with_jitter(mut self, j: SimDuration) -> Self {
        self.jitter = j;
        self
    }

    /// Serialization delay for a frame of `bytes` bytes.
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        if self.bandwidth_bps == 0 {
            return SimDuration::ZERO;
        }
        // ns = bits * 1e9 / bps
        SimDuration::nanos((bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams::datacenter()
    }
}

/// Mutable per-link state.
#[derive(Debug, Clone, Default)]
pub struct LinkState {
    /// Time the transmitter finishes serializing the frame currently on
    /// the wire; the next frame queues behind it.
    pub busy_until: SimTime,
    /// True while the link is administratively or physically down.
    pub down: bool,
}

/// A directed link: parameters plus live state.
#[derive(Debug, Clone)]
pub struct Link {
    /// Characteristics.
    pub params: LinkParams,
    /// Live state.
    pub state: LinkState,
}

impl Link {
    /// Create a link with the given parameters.
    pub fn new(params: LinkParams) -> Link {
        Link {
            params,
            state: LinkState::default(),
        }
    }

    /// Compute the arrival time of a frame of `bytes` bytes transmitted at
    /// `now` (with `jitter_extra` already sampled by the caller), updating
    /// the transmitter-busy state. Returns `None` if the link is down.
    pub fn transmit(
        &mut self,
        now: SimTime,
        bytes: usize,
        jitter_extra: SimDuration,
    ) -> Option<SimTime> {
        if self.state.down {
            return None;
        }
        let start = now.max(self.state.busy_until);
        let tx_done = start + self.params.serialization(bytes);
        self.state.busy_until = tx_done;
        Some(tx_done + self.params.latency + jitter_extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay() {
        let p = LinkParams::datacenter(); // 100 Gbps
                                          // 1250 bytes = 10_000 bits => 100 ns at 100 Gbps.
        assert_eq!(p.serialization(1250), SimDuration::nanos(100));
        let zero_bw = LinkParams {
            bandwidth_bps: 0,
            ..p
        };
        assert_eq!(zero_bw.serialization(1250), SimDuration::ZERO);
    }

    #[test]
    fn back_to_back_frames_queue() {
        let mut link = Link::new(LinkParams::datacenter());
        let t0 = SimTime::ZERO;
        let a1 = link.transmit(t0, 1250, SimDuration::ZERO).unwrap();
        let a2 = link.transmit(t0, 1250, SimDuration::ZERO).unwrap();
        // Second frame serializes after the first: arrives 100 ns later.
        assert_eq!(a2 - a1, SimDuration::nanos(100));
    }

    #[test]
    fn idle_link_does_not_queue() {
        let mut link = Link::new(LinkParams::datacenter());
        let a1 = link
            .transmit(SimTime::ZERO, 1250, SimDuration::ZERO)
            .unwrap();
        // Transmit long after the first finished: only latency + serialization.
        let t = SimTime(1_000_000);
        let a2 = link.transmit(t, 1250, SimDuration::ZERO).unwrap();
        assert_eq!(a2, t + SimDuration::nanos(100) + SimDuration::micros(1));
        assert!(a1 < a2);
    }

    #[test]
    fn down_link_drops() {
        let mut link = Link::new(LinkParams::datacenter());
        link.state.down = true;
        assert!(link
            .transmit(SimTime::ZERO, 100, SimDuration::ZERO)
            .is_none());
    }

    #[test]
    fn jitter_adds_delay() {
        let mut link = Link::new(LinkParams::datacenter());
        let a = link
            .transmit(SimTime::ZERO, 1250, SimDuration::nanos(37))
            .unwrap();
        assert_eq!(
            a,
            SimTime::ZERO
                + SimDuration::nanos(100)
                + SimDuration::micros(1)
                + SimDuration::nanos(37)
        );
    }
}
