//! Register specifications and protocol configuration.

use swishmem_simnet::SimDuration;
use swishmem_wire::swish::RegId;

/// The three register classes of §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterClass {
    /// Strong Read Optimized: linearizable. Chain-replicated writes through
    /// the control plane; local reads unless a pending bit is set, in which
    /// case the packet is forwarded to the tail (§6.1).
    Sro,
    /// Eventual Read Optimized: SRO without pending bits — reads are always
    /// local, trading bounded read latency for eventual consistency (§6.1).
    Ero,
    /// Eventual Write Optimized: local writes applied immediately,
    /// asynchronously replicated (eager mirror + periodic sync), merged via
    /// a [`MergePolicy`] (§6.2).
    Ewo,
}

/// How concurrent EWO updates are merged (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Last-writer-wins on `(timestamp, switch-id)` versions.
    Lww,
    /// Per-switch-slot increment-only counter vector (G-counter CRDT);
    /// reads sum all slots, merges take the per-slot max.
    GCounter,
    /// Windowed counter for rate-limiter-style state: version carries the
    /// window epoch; a higher epoch resets the count, within an epoch the
    /// count merges by max. `window` is the epoch length.
    Windowed {
        /// Window (epoch) length.
        window: SimDuration,
    },
}

/// Where a register's authoritative state lives (§4: the controller
/// "determines the register placement").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Every replica-group member holds the whole array; SRO/ERO writes
    /// traverse the single group-wide chain. The classic SwiShmem layout.
    Replicated,
    /// The key space is partitioned into directory ranges, each owned by
    /// a (sub)set of switches; the owner set of a range forms a per-range
    /// mini-chain (`owners[0]` sequences) and the reconfiguration engine
    /// may migrate ranges between owners at run time.
    Partitioned,
}

/// A shared register declaration.
#[derive(Debug, Clone)]
pub struct RegisterSpec {
    /// Deployment-unique id (used on the wire).
    pub id: RegId,
    /// Human-readable name (used in memory accounting).
    pub name: String,
    /// Consistency class.
    pub class: RegisterClass,
    /// Number of keys (array length).
    pub keys: u32,
    /// Merge policy (EWO only; ignored for SRO/ERO).
    pub policy: MergePolicy,
    /// State placement (replicated everywhere vs. range-partitioned).
    pub placement: Placement,
}

impl RegisterSpec {
    /// A strongly-consistent register array.
    pub fn sro(id: RegId, name: &str, keys: u32) -> RegisterSpec {
        RegisterSpec {
            id,
            name: name.to_string(),
            class: RegisterClass::Sro,
            keys,
            policy: MergePolicy::Lww,
            placement: Placement::Replicated,
        }
    }

    /// An eventual-read-optimized register array.
    pub fn ero(id: RegId, name: &str, keys: u32) -> RegisterSpec {
        RegisterSpec {
            id,
            name: name.to_string(),
            class: RegisterClass::Ero,
            keys,
            policy: MergePolicy::Lww,
            placement: Placement::Replicated,
        }
    }

    /// An EWO last-writer-wins register array.
    pub fn ewo_lww(id: RegId, name: &str, keys: u32) -> RegisterSpec {
        RegisterSpec {
            id,
            name: name.to_string(),
            class: RegisterClass::Ewo,
            keys,
            policy: MergePolicy::Lww,
            placement: Placement::Replicated,
        }
    }

    /// An EWO G-counter array.
    pub fn ewo_counter(id: RegId, name: &str, keys: u32) -> RegisterSpec {
        RegisterSpec {
            id,
            name: name.to_string(),
            class: RegisterClass::Ewo,
            keys,
            policy: MergePolicy::GCounter,
            placement: Placement::Replicated,
        }
    }

    /// An EWO windowed counter array.
    pub fn ewo_windowed(id: RegId, name: &str, keys: u32, window: SimDuration) -> RegisterSpec {
        RegisterSpec {
            id,
            name: name.to_string(),
            class: RegisterClass::Ewo,
            keys,
            policy: MergePolicy::Windowed { window },
            placement: Placement::Replicated,
        }
    }

    /// A range-partitioned register array: ERO consistency per key, with
    /// ownership split across directory ranges that the reconfiguration
    /// engine can migrate live. Partitioned registers always sequence per
    /// key (grouping would alias slots across range boundaries).
    pub fn partitioned(id: RegId, name: &str, keys: u32) -> RegisterSpec {
        RegisterSpec {
            id,
            name: name.to_string(),
            class: RegisterClass::Ero,
            keys,
            policy: MergePolicy::Lww,
            placement: Placement::Partitioned,
        }
    }

    /// True for range-partitioned registers.
    pub fn is_partitioned(&self) -> bool {
        self.placement == Placement::Partitioned
    }
}

/// Clock model for LWW version stamps (§6.2: Lamport clock or a real-time
/// clock synchronized "down to tens of nanoseconds").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Synchronized real-time clocks with bounded per-switch skew; the
    /// deployment assigns each switch a deterministic skew in
    /// `[-max_skew, +max_skew]`.
    Synced {
        /// Maximum absolute skew in nanoseconds.
        max_skew_ns: u64,
    },
    /// Lamport logical clocks, advanced on every local write and on every
    /// received version.
    Lamport,
}

/// Knobs of the live reconfiguration engine (planner + migration driver).
///
/// All timing knobs matter only when [`ReconfigPolicy::enabled`] is true
/// *and* the deployment declares at least one partitioned register; the
/// disabled engine arms no timers and sends no messages, which is what
/// keeps the golden determinism fingerprint bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct ReconfigPolicy {
    /// Master switch for the telemetry-driven planner. Migrations can
    /// still be triggered explicitly (tests, fault schedules) when false.
    pub enabled: bool,
    /// A range is migration-worthy only when some remote switch ingressed
    /// at least this many writes for it within one planning window.
    pub min_writes: u64,
    /// Keys per migration chunk.
    pub chunk_keys: usize,
    /// Source pacing between chunk transmissions within a pass.
    pub chunk_interval: SimDuration,
}

impl Default for ReconfigPolicy {
    fn default() -> Self {
        ReconfigPolicy {
            enabled: false,
            min_writes: 32,
            chunk_keys: 16,
            chunk_interval: SimDuration::micros(10),
        }
    }
}

/// Protocol tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SwishConfig {
    /// Writer control-plane retry timeout for unacknowledged chain writes;
    /// the base of the capped exponential backoff (doubled per attempt
    /// with deterministic jitter, up to the writer CP's `RETRY_BACKOFF_MAX`).
    pub retry_timeout: SimDuration,
    /// EWO periodic full-sync period (the paper's example: 1 ms).
    pub sync_period: SimDuration,
    /// Entries per periodic-sync packet (array walked in chunks).
    pub sync_chunk: usize,
    /// Eagerly mirror EWO updates to the replica group on every write
    /// (§7); periodic sync alone still converges when disabled.
    pub eager_updates: bool,
    /// Batch this many eager update entries per mirror packet (§7's
    /// "batching write requests" bandwidth/consistency trade-off). 1 =
    /// mirror immediately.
    pub batch_size: usize,
    /// Switch-CP heartbeat period.
    pub heartbeat_interval: SimDuration,
    /// Controller declares a switch failed after this silence.
    pub failure_timeout: SimDuration,
    /// Keys per shared sequence-number/pending-bit slot (§7: "multiple
    /// keys can share the same sequence number and in-progress bit").
    pub key_group: u32,
    /// Entries per snapshot chunk during recovery.
    pub snapshot_chunk: usize,
    /// Interval between snapshot chunk transmissions (CP-paced).
    pub snapshot_interval: SimDuration,
    /// Clock model for LWW versions.
    pub clock: ClockMode,
    /// Live reconfiguration engine policy (partitioned registers only).
    pub reconfig: ReconfigPolicy,
    /// Controller replicas (DESIGN.md §12): the size of the controller's
    /// consensus group. 1 = the paper's single controller, a group of one
    /// that decides each decree in the step proposing it; 3+ adds leader
    /// failover. Even values are rounded up by the deployment builder
    /// (an even group tolerates no more failures than the next odd size
    /// down, so they are never worth their cost).
    pub ctrl_replicas: u8,
    /// Replicated mode (DESIGN.md §13): the leader proposes a log
    /// compaction once the consensus register window holds this many
    /// decrees. Must stay well below
    /// [`crate::consensus::SLOT_CAP`] so the compaction decree commits
    /// before the window can overflow.
    pub log_compact_threshold: usize,
    /// Replicated mode: use the phi-accrual-style failure detector over
    /// leader-heartbeat inter-arrival history for election timing.
    /// False falls back to the static staggered `failure_timeout`.
    pub adaptive_detector: bool,
}

impl Default for SwishConfig {
    fn default() -> Self {
        SwishConfig {
            retry_timeout: SimDuration::millis(1),
            sync_period: SimDuration::millis(1),
            sync_chunk: 128,
            eager_updates: true,
            batch_size: 1,
            heartbeat_interval: SimDuration::millis(5),
            failure_timeout: SimDuration::millis(15),
            key_group: 1,
            snapshot_chunk: 64,
            snapshot_interval: SimDuration::micros(10),
            clock: ClockMode::Synced { max_skew_ns: 50 },
            reconfig: ReconfigPolicy::default(),
            ctrl_replicas: 1,
            log_compact_threshold: 256,
            adaptive_detector: true,
        }
    }
}

impl SwishConfig {
    /// Number of sequence/pending slots for a register with `keys` keys
    /// under this config's grouping factor.
    pub fn group_slots(&self, keys: u32) -> u32 {
        debug_assert!(self.key_group >= 1);
        keys.div_ceil(self.key_group).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_constructors_set_class() {
        assert_eq!(RegisterSpec::sro(0, "a", 8).class, RegisterClass::Sro);
        assert_eq!(RegisterSpec::ero(1, "b", 8).class, RegisterClass::Ero);
        let c = RegisterSpec::ewo_counter(2, "c", 8);
        assert_eq!(c.class, RegisterClass::Ewo);
        assert_eq!(c.policy, MergePolicy::GCounter);
        let w = RegisterSpec::ewo_windowed(3, "d", 8, SimDuration::millis(10));
        assert!(matches!(w.policy, MergePolicy::Windowed { .. }));
    }

    #[test]
    fn group_slots_rounding() {
        let mut cfg = SwishConfig {
            key_group: 4,
            ..SwishConfig::default()
        };
        assert_eq!(cfg.group_slots(16), 4);
        assert_eq!(cfg.group_slots(17), 5);
        assert_eq!(cfg.group_slots(1), 1);
        cfg.key_group = 1;
        assert_eq!(cfg.group_slots(16), 16);
    }

    #[test]
    fn defaults_match_paper_operating_point() {
        let cfg = SwishConfig::default();
        assert_eq!(cfg.sync_period, SimDuration::millis(1)); // §6.2 example
        assert!(cfg.failure_timeout > cfg.heartbeat_interval);
    }
}
