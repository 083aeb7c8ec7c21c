//! The SwiShmem protocol layer: the per-switch engine that wraps a user
//! [`crate::api::NfApp`] and implements the three register classes.
//!
//! Split:
//! * [`mod@self`] — shared definitions: register layouts, the data-plane
//!   configuration block, control-plane work items;
//! * [`nfctx`] — the [`crate::api::SharedState`] proxy handed to the NF;
//! * [`program`] — the data-plane program: NF invocation, chain-write
//!   handling, EWO apply/merge/periodic sync, snapshot apply;
//! * [`cp`] — the control-plane app: write buffering and retries (§6.1),
//!   heartbeats, configuration adoption, snapshot streaming (§6.3).

pub mod cp;
pub mod nfctx;
pub mod program;

use crate::config::{RegisterClass, RegisterSpec, SwishConfig};
use crate::reconfig::{self, RangeView, RANGEBLK_LEN};
use swishmem_pisa::{DataPlane, DpView, OutOfMemory, PairRegHandle, RegHandle};
use swishmem_simnet::GroupId;
use swishmem_wire::swish::{Key, RegId, WriteOp};
use swishmem_wire::{DataPacket, NodeId, SwishMsg};

/// The multicast group containing every live replica switch.
pub const REPLICA_GROUP: GroupId = GroupId(0);

/// Packet-generator token used for the EWO periodic sync task.
pub const SYNC_PKTGEN_TOKEN: u64 = 1;

/// Packet-generator token for the tail's pending sweep: periodic
/// re-multicast of `Clear` for committed group slots, repairing pending
/// bits orphaned by a lost clear or a tail crash mid-commit.
pub const PENDING_SWEEP_PKTGEN_TOKEN: u64 = 2;

/// Maximum chain length encodable in the data-plane config block.
pub const MAX_NODES: usize = 32;

/// Maximum simultaneous learners (recovering switches).
pub const MAX_LEARNERS: usize = 8;

/// Data-plane layout of one shared register.
#[derive(Debug)]
pub(crate) enum RegKind {
    /// SRO/ERO: value array + per-group sequence numbers (+ pending bits
    /// for SRO; `None` for ERO, which is how ERO "saves space by
    /// eliminating the need for pending bits", §6.1).
    Chain {
        /// Values, one cell per key.
        val: RegHandle,
        /// Last applied sequence number per key group.
        seq: RegHandle,
        /// Sequence number of the latest in-flight write per key group
        /// (0 = none); SRO only.
        pending: Option<RegHandle>,
    },
    /// EWO: `(version, value)` pair arrays — one per replica slot for
    /// counter policies, a single array for LWW (§7).
    Ewo {
        /// Slot arrays, indexed by replica slot.
        slots: Vec<PairRegHandle>,
    },
}

/// One shared register's spec and layout.
#[derive(Debug)]
pub(crate) struct RegEntry {
    pub spec: RegisterSpec,
    pub kind: RegKind,
}

/// All data-plane handles of the SwiShmem layer on one switch.
#[derive(Debug)]
pub struct Handles {
    pub(crate) regs: Vec<RegEntry>,
    /// The configuration block register (chain/learners/epoch), installed
    /// by the control plane, read by the pipeline.
    pub(crate) cfgblk: RegHandle,
    /// Per-partitioned-register range tables (`rangeblk`), same idiom as
    /// the config block: installed by control messages, consulted by the
    /// pipeline on every partitioned write. `(reg id, handle)` pairs;
    /// empty when no register is partitioned, so replicated deployments
    /// pay nothing.
    pub(crate) rangeblks: Vec<(RegId, RegHandle)>,
}

/// Length of the configuration block register array.
const CFGBLK_LEN: usize = 3 + MAX_NODES + MAX_LEARNERS;

impl Handles {
    /// Allocate the layer's data-plane state for `specs` on `dp`.
    ///
    /// `n_switches` sizes EWO counter slot vectors. Register ids must be
    /// dense (`specs[i].id == i`), which the deployment builder enforces.
    pub fn build(
        dp: &mut DataPlane,
        specs: &[RegisterSpec],
        cfg: &SwishConfig,
        n_switches: usize,
    ) -> Result<Handles, OutOfMemory> {
        assert!(
            n_switches <= MAX_NODES,
            "at most {MAX_NODES} switches supported"
        );
        let mut regs = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(
                spec.id as usize, i,
                "register ids must be dense and ordered"
            );
            let kind = match spec.class {
                RegisterClass::Sro | RegisterClass::Ero => {
                    let val =
                        dp.alloc_register(&format!("swish.{}.val", spec.name), spec.keys as usize)?;
                    let slots = Handles::seq_slots(spec, cfg) as usize;
                    let seq = dp.alloc_register(&format!("swish.{}.seq", spec.name), slots)?;
                    let pending = if spec.class == RegisterClass::Sro {
                        Some(dp.alloc_register(&format!("swish.{}.pending", spec.name), slots)?)
                    } else {
                        None
                    };
                    RegKind::Chain { val, seq, pending }
                }
                RegisterClass::Ewo => {
                    let n_slots = match spec.policy {
                        crate::config::MergePolicy::Lww => 1,
                        _ => n_switches,
                    };
                    let mut slots = Vec::with_capacity(n_slots);
                    for s in 0..n_slots {
                        slots.push(dp.alloc_pair_register(
                            &format!("swish.{}.slot{}", spec.name, s),
                            spec.keys as usize,
                        )?);
                    }
                    RegKind::Ewo { slots }
                }
            };
            regs.push(RegEntry {
                spec: spec.clone(),
                kind,
            });
        }
        let cfgblk = dp.alloc_register("swish.cfg", CFGBLK_LEN)?;
        let mut rangeblks = Vec::new();
        for spec in specs.iter().filter(|s| s.is_partitioned()) {
            rangeblks.push((
                spec.id,
                dp.alloc_register(&format!("swish.{}.ranges", spec.name), RANGEBLK_LEN)?,
            ));
        }
        Ok(Handles {
            regs,
            cfgblk,
            rangeblks,
        })
    }

    /// Look up a register entry; panics on unknown id (programming error).
    pub(crate) fn entry(&self, reg: RegId) -> &RegEntry {
        &self.regs[reg as usize]
    }

    /// Whether writes to `reg` ride the chain protocol (SRO/ERO) rather
    /// than being applied locally and mirrored (EWO).
    pub(crate) fn is_chain(&self, reg: RegId) -> bool {
        matches!(
            self.entry(reg).spec.class,
            RegisterClass::Sro | RegisterClass::Ero
        )
    }

    /// The range-table handle for a partitioned register.
    pub(crate) fn rangeblk(&self, reg: RegId) -> Option<RegHandle> {
        self.rangeblks
            .iter()
            .find(|(r, _)| *r == reg)
            .map(|(_, h)| *h)
    }

    /// Sequence/pending slots for a register: partitioned registers
    /// sequence per key (grouping would alias slots across directory
    /// range boundaries), replicated ones per key group.
    pub(crate) fn seq_slots(spec: &RegisterSpec, cfg: &SwishConfig) -> u32 {
        if spec.is_partitioned() {
            spec.keys.max(1)
        } else {
            cfg.group_slots(spec.keys)
        }
    }

    /// The group slot (shared sequence/pending index) for `key` under
    /// grouping factor `key_group` (identity for partitioned registers).
    pub(crate) fn group_slot(spec: &RegisterSpec, cfg: &SwishConfig, key: Key) -> usize {
        let slots = Handles::seq_slots(spec, cfg);
        (key % slots) as usize
    }
}

/// The chain configuration as read from (or written to) the config block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChainView {
    /// Configuration epoch.
    pub epoch: u32,
    /// Chain order, head first, tail last.
    pub chain: Vec<NodeId>,
    /// Learners appended after the tail for write propagation.
    pub learners: Vec<NodeId>,
}

impl ChainView {
    /// Write-propagation order: chain members then learners.
    pub fn write_order(&self) -> Vec<NodeId> {
        let mut v = self.chain.clone();
        v.extend_from_slice(&self.learners);
        v
    }

    /// The chain head (sequencer), if any.
    pub fn head(&self) -> Option<NodeId> {
        self.chain.first().copied()
    }

    /// The tail (ack source and authoritative reader), if any.
    pub fn tail(&self) -> Option<NodeId> {
        self.chain.last().copied()
    }
}

/// The configuration block as the pipeline reads it on the packet path:
/// a fixed-capacity copy with the write order laid out contiguously (chain
/// members, then learners), so a chain write, a tail redirect and a
/// pending sweep allocate nothing. The owning [`ChainView`] remains for
/// the controller, the control plane and
/// [`program::SwishProgram::chain_view`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainRead {
    /// Configuration epoch.
    pub epoch: u32,
    order: [NodeId; MAX_NODES + MAX_LEARNERS],
    chain_len: usize,
    order_len: usize,
}

impl ChainRead {
    /// Read the configuration block from the pipeline.
    pub fn read(dp: &DpView<'_>, h: RegHandle) -> ChainRead {
        let chain_len = (dp.reg_read(h, 1) as usize).min(MAX_NODES);
        let learn_len = (dp.reg_read(h, 2) as usize).min(MAX_LEARNERS);
        let mut order = [NodeId(0); MAX_NODES + MAX_LEARNERS];
        for (i, slot) in order[..chain_len].iter_mut().enumerate() {
            *slot = NodeId(dp.reg_read(h, 3 + i) as u16);
        }
        for (i, slot) in order[chain_len..chain_len + learn_len]
            .iter_mut()
            .enumerate()
        {
            *slot = NodeId(dp.reg_read(h, 3 + MAX_NODES + i) as u16);
        }
        ChainRead {
            epoch: dp.reg_read(h, 0) as u32,
            order,
            chain_len,
            order_len: chain_len + learn_len,
        }
    }

    /// Number of chain members (learners excluded).
    pub fn chain_len(&self) -> usize {
        self.chain_len
    }

    /// The tail (ack source and authoritative reader), if any.
    pub fn tail(&self) -> Option<NodeId> {
        self.order[..self.chain_len].last().copied()
    }

    /// Write-propagation order: chain members then learners.
    pub fn write_order(&self) -> &[NodeId] {
        &self.order[..self.order_len]
    }
}

/// Read the configuration block into an owning [`ChainView`].
pub(crate) fn read_chain(dp: &DpView<'_>, h: RegHandle) -> ChainView {
    let c = ChainRead::read(dp, h);
    let (chain, learners) = c.write_order().split_at(c.chain_len());
    ChainView {
        epoch: c.epoch,
        chain: chain.to_vec(),
        learners: learners.to_vec(),
    }
}

/// Install a configuration block from the control plane.
pub(crate) fn write_chain(dp: &mut DataPlane, h: RegHandle, view: &ChainView) {
    assert!(view.chain.len() <= MAX_NODES);
    assert!(view.learners.len() <= MAX_LEARNERS);
    let r = dp.reg_mut(h);
    r.write(0, u64::from(view.epoch));
    r.write(1, view.chain.len() as u64);
    r.write(2, view.learners.len() as u64);
    for i in 0..MAX_NODES {
        r.write(
            3 + i,
            view.chain.get(i).map(|n| u64::from(n.0)).unwrap_or(0),
        );
    }
    for i in 0..MAX_LEARNERS {
        r.write(
            3 + MAX_NODES + i,
            view.learners.get(i).map(|n| u64::from(n.0)).unwrap_or(0),
        );
    }
}

/// Read a partitioned register's range table from the pipeline.
pub(crate) fn read_ranges(dp: &DpView<'_>, h: RegHandle) -> Vec<RangeView> {
    let mut cells = vec![0u64; RANGEBLK_LEN];
    for (i, c) in cells.iter_mut().enumerate() {
        *c = dp.reg_read(h, i);
    }
    reconfig::decode_ranges(&cells)
}

/// Read a partitioned register's range table directly from the data
/// plane (the control-plane-side variant of [`read_ranges`]).
pub(crate) fn read_ranges_dp(dp: &DataPlane, h: RegHandle) -> Vec<RangeView> {
    let r = dp.reg(h);
    let mut cells = vec![0u64; RANGEBLK_LEN];
    for (i, c) in cells.iter_mut().enumerate() {
        *c = r.read(i);
    }
    reconfig::decode_ranges(&cells)
}

/// Plan the pipeline-stage placement of a register-spec set (the second
/// resource dimension beside the byte budget, §2: "memory is split
/// between pipeline stages"). Returns the planner with all SwiShmem
/// objects placed, or the placement error a P4 compiler would raise.
pub fn plan_stages(
    specs: &[RegisterSpec],
    cfg: &SwishConfig,
    n_switches: usize,
    planner: &mut swishmem_pisa::StagePlanner,
) -> Result<(), swishmem_pisa::PlacementError> {
    use swishmem_pisa::{PairRegisterArray, RegisterArray};
    for spec in specs {
        match spec.class {
            RegisterClass::Sro | RegisterClass::Ero => {
                planner.place(
                    &format!("swish.{}.val", spec.name),
                    spec.keys as usize * RegisterArray::CELL_BYTES,
                )?;
                let slots = Handles::seq_slots(spec, cfg) as usize;
                planner.place(
                    &format!("swish.{}.seq", spec.name),
                    slots * RegisterArray::CELL_BYTES,
                )?;
                if spec.class == RegisterClass::Sro {
                    planner.place(
                        &format!("swish.{}.pending", spec.name),
                        slots * RegisterArray::CELL_BYTES,
                    )?;
                }
                if spec.is_partitioned() {
                    planner.place(
                        &format!("swish.{}.ranges", spec.name),
                        RANGEBLK_LEN * RegisterArray::CELL_BYTES,
                    )?;
                }
            }
            RegisterClass::Ewo => {
                let n_slots = match spec.policy {
                    crate::config::MergePolicy::Lww => 1,
                    _ => n_switches,
                };
                for s in 0..n_slots {
                    planner.place(
                        &format!("swish.{}.slot{}", spec.name, s),
                        spec.keys as usize * PairRegisterArray::CELL_BYTES,
                    )?;
                }
            }
        }
    }
    Ok(())
}

/// Install a chain configuration directly into a data plane — the
/// white-box hook unit tests use to put a [`program::SwishProgram`] into a
/// known chain position without running a controller.
pub fn write_chain_for_tests(dp: &mut DataPlane, handles: &Handles, view: &ChainView) {
    write_chain(dp, handles.cfgblk, view);
}

/// One staged write from an NF's packet processing (the paper's write set
/// `Q`, §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedWrite {
    /// Target register.
    pub reg: RegId,
    /// Target key.
    pub key: Key,
    /// The operation.
    pub op: WriteOp,
}

/// Work items the data plane punts to the switch-local control plane.
#[derive(Debug)]
pub enum CpItem {
    /// A packet produced SRO/ERO writes: buffer the output packet `P'`
    /// and drive the chain protocol (§6.1).
    WriteJob {
        /// The write set `Q`.
        writes: Vec<StagedWrite>,
        /// The output packet `P'` and its destination, released on ack.
        decision: Option<(NodeId, DataPacket)>,
        /// Causal trace assigned at NF ingress, carried through every
        /// protocol message this job spawns.
        trace: swishmem_wire::TraceId,
        /// NF-ingress time of the packet that staged these writes; the
        /// `write_latency` histogram measures ingress → release.
        ingress: swishmem_simnet::SimTime,
    },
    /// A protocol message the control plane handles (acks, configuration,
    /// snapshot requests).
    Proto(SwishMsg),
    /// The final snapshot chunk was applied; announce catch-up completion.
    SnapshotDone,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegisterSpec;
    use swishmem_pisa::MemoryBudget;

    fn specs() -> Vec<RegisterSpec> {
        vec![
            RegisterSpec::sro(0, "conn", 64),
            RegisterSpec::ero(1, "sigs", 32),
            RegisterSpec::ewo_counter(2, "sketch", 128),
            RegisterSpec::ewo_lww(3, "cache", 16),
        ]
    }

    #[test]
    fn build_allocates_expected_layout() {
        let mut dp = DataPlane::standard();
        let cfg = SwishConfig::default();
        let h = Handles::build(&mut dp, &specs(), &cfg, 4).unwrap();
        assert_eq!(h.regs.len(), 4);
        match &h.regs[0].kind {
            RegKind::Chain {
                pending: Some(_), ..
            } => {}
            other => panic!("sro should have pending bits: {other:?}"),
        }
        match &h.regs[1].kind {
            RegKind::Chain { pending: None, .. } => {}
            other => panic!("ero must not have pending bits: {other:?}"),
        }
        match &h.regs[2].kind {
            RegKind::Ewo { slots } => assert_eq!(slots.len(), 4), // one per switch
            other => panic!("{other:?}"),
        }
        match &h.regs[3].kind {
            RegKind::Ewo { slots } => assert_eq!(slots.len(), 1), // lww single
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn grouping_reduces_seq_memory() {
        let mut cfg = SwishConfig::default();
        let spec = vec![RegisterSpec::sro(0, "t", 1024)];

        let mut dp1 = DataPlane::new(MemoryBudget::new(1 << 20));
        cfg.key_group = 1;
        Handles::build(&mut dp1, &spec, &cfg, 2).unwrap();
        let fine = dp1.budget().used_by_prefix("swish.t.seq")
            + dp1.budget().used_by_prefix("swish.t.pending");

        let mut dp2 = DataPlane::new(MemoryBudget::new(1 << 20));
        cfg.key_group = 16;
        Handles::build(&mut dp2, &spec, &cfg, 2).unwrap();
        let coarse = dp2.budget().used_by_prefix("swish.t.seq")
            + dp2.budget().used_by_prefix("swish.t.pending");

        assert_eq!(fine, 16 * coarse);
    }

    #[test]
    fn chain_view_round_trips_through_registers() {
        let mut dp = DataPlane::standard();
        let cfg = SwishConfig::default();
        let h = Handles::build(&mut dp, &[], &cfg, 2).unwrap();
        let view = ChainView {
            epoch: 7,
            chain: vec![NodeId(0), NodeId(2), NodeId(1)],
            learners: vec![NodeId(3)],
        };
        write_chain(&mut dp, h.cfgblk, &view);
        let got = read_chain(
            &DpView::new(&mut dp, swishmem_simnet::SimTime::ZERO),
            h.cfgblk,
        );
        assert_eq!(got, view);
        assert_eq!(got.head(), Some(NodeId(0)));
        assert_eq!(got.tail(), Some(NodeId(1)));
        assert_eq!(
            got.write_order(),
            vec![NodeId(0), NodeId(2), NodeId(1), NodeId(3)]
        );
        // The packet path's allocation-free view agrees with the owning
        // one, on this block and on an empty (not yet installed) one.
        let mut blank = DataPlane::standard();
        let hb = Handles::build(&mut blank, &[], &cfg, 2).unwrap();
        for (dp, h) in [(&mut dp, &h), (&mut blank, &hb)] {
            let dpv = DpView::new(dp, swishmem_simnet::SimTime::ZERO);
            let (owned, fast) = (read_chain(&dpv, h.cfgblk), ChainRead::read(&dpv, h.cfgblk));
            assert_eq!(fast.epoch, owned.epoch);
            assert_eq!(fast.tail(), owned.tail());
            assert_eq!(fast.chain_len(), owned.chain.len());
            assert_eq!(fast.write_order(), owned.write_order());
        }
    }

    #[test]
    fn stage_planning_enforces_the_grouping_need() {
        // §7's claim, in the stage dimension: a 1M-key SRO register's
        // metadata fits a Tofino-like pipeline only with key grouping.
        let mut cfg = SwishConfig::default();
        let spec = vec![RegisterSpec::sro(0, "big", 1_000_000)];

        // Ungrouped: the 8 MB seq array exceeds a 1.25 MB stage.
        cfg.key_group = 1;
        let mut p = swishmem_pisa::StagePlanner::standard();
        assert!(plan_stages(&spec, &cfg, 4, &mut p).is_err());

        // Grouped 16×: everything places.
        cfg.key_group = 16;
        let mut p = swishmem_pisa::StagePlanner::standard();
        // Values are 8 MB: place as 8 chunked arrays of 128k keys each to
        // model a compiler splitting the value table across stages.
        let split: Vec<RegisterSpec> = (0..8)
            .map(|i| RegisterSpec::sro(i, &format!("big{i}"), 125_000))
            .collect();
        plan_stages(&split, &cfg, 4, &mut p).unwrap();
        assert!(p.depth_used() <= 12);
    }

    #[test]
    fn group_slot_maps_within_bounds() {
        let cfg = SwishConfig {
            key_group: 8,
            ..SwishConfig::default()
        };
        let spec = RegisterSpec::sro(0, "t", 100);
        let slots = cfg.group_slots(100); // ceil(100/8)=13
        assert_eq!(slots, 13);
        for key in 0..100 {
            assert!((Handles::group_slot(&spec, &cfg, key) as u32) < slots);
        }
    }
}
