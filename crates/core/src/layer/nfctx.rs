//! The [`SharedState`] proxy the layer hands to an NF while it processes
//! one packet.
//!
//! Writes are *staged* (the paper's write set `Q`); reads come from the
//! local replica overlaid with this packet's own staged writes
//! (read-your-writes). A read that touches an SRO key whose pending bit is
//! set flips `need_tail`: the layer will discard this packet's outcome and
//! forward the original packet to the chain tail (§6.1).

use super::{Handles, RegKind, StagedWrite};
use crate::api::SharedState;
use crate::config::{MergePolicy, RegisterClass, SwishConfig};
use swishmem_pisa::DpView;
use swishmem_simnet::SimTime;
use swishmem_wire::swish::{Key, RegId, WriteOp};
use swishmem_wire::NodeId;

/// The per-packet shared-state proxy.
pub struct NfCtx<'a, 'v> {
    pub(crate) dp: &'a mut DpView<'v>,
    pub(crate) handles: &'a Handles,
    pub(crate) cfg: &'a SwishConfig,
    pub(crate) me: NodeId,
    /// The write set, staged into a buffer the program keeps across
    /// packets (handed over empty).
    pub(crate) staged: &'a mut Vec<StagedWrite>,
    pub(crate) need_tail: bool,
    /// Read operations issued (for access-pattern accounting, E1).
    pub(crate) read_ops: u64,
}

impl<'a, 'v> NfCtx<'a, 'v> {
    /// Base value of `reg[key]` from the local replica (before staged
    /// writes), flagging `need_tail` for pending SRO keys.
    fn base_read(&mut self, reg: RegId, key: Key) -> u64 {
        let entry = self.handles.entry(reg);
        match &entry.kind {
            RegKind::Chain { val, pending, .. } => {
                if let Some(p) = pending {
                    let g = Handles::group_slot(&entry.spec, self.cfg, key);
                    if self.dp.reg_read(*p, g) != 0 {
                        self.need_tail = true;
                    }
                }
                self.dp.reg_read(*val, key as usize)
            }
            RegKind::Ewo { slots } => match entry.spec.policy {
                MergePolicy::Lww => self.dp.pair_read(slots[0], key as usize).1,
                MergePolicy::GCounter => slots
                    .iter()
                    .map(|&h| self.dp.pair_read(h, key as usize).1)
                    .sum(),
                MergePolicy::Windowed { window } => {
                    let epoch = self.dp.now().nanos() / window.as_nanos().max(1);
                    slots
                        .iter()
                        .map(|&h| {
                            let (e, c) = self.dp.pair_read(h, key as usize);
                            if e == epoch {
                                c
                            } else {
                                0
                            }
                        })
                        .sum()
                }
            },
        }
    }
}

impl<'a, 'v> SharedState for NfCtx<'a, 'v> {
    fn read(&mut self, reg: RegId, key: Key) -> u64 {
        self.read_ops += 1;
        let mut v = self.base_read(reg, key);
        // Overlay this packet's own staged writes, in order.
        for w in self.staged.iter() {
            if w.reg == reg && w.key == key {
                match w.op {
                    WriteOp::Set(x) => v = x,
                    WriteOp::Add(d) => v = v.wrapping_add(d as u64),
                }
            }
        }
        v
    }

    fn write(&mut self, reg: RegId, key: Key, value: u64) {
        let entry = self.handles.entry(reg);
        debug_assert!(
            !matches!(
                (entry.spec.class, entry.spec.policy),
                (RegisterClass::Ewo, MergePolicy::GCounter)
                    | (RegisterClass::Ewo, MergePolicy::Windowed { .. })
            ),
            "Set on a counter register '{}' — counters only support add()",
            entry.spec.name
        );
        self.staged.push(StagedWrite {
            reg,
            key,
            op: WriteOp::Set(value),
        });
    }

    fn add(&mut self, reg: RegId, key: Key, delta: i64) {
        let entry = self.handles.entry(reg);
        match (entry.spec.class, entry.spec.policy) {
            // Chain registers replicate Set: stage a read-modify-write.
            (RegisterClass::Sro | RegisterClass::Ero, _) => {
                let cur = self.read(reg, key);
                self.staged.push(StagedWrite {
                    reg,
                    key,
                    op: WriteOp::Set(cur.wrapping_add(delta as u64)),
                });
            }
            // LWW cells likewise carry whole values.
            (RegisterClass::Ewo, MergePolicy::Lww) => {
                let cur = self.read(reg, key);
                self.staged.push(StagedWrite {
                    reg,
                    key,
                    op: WriteOp::Set(cur.wrapping_add(delta as u64)),
                });
            }
            // True commutative increments.
            (RegisterClass::Ewo, _) => {
                debug_assert!(
                    delta >= 0,
                    "counter register '{}' cannot decrement",
                    entry.spec.name
                );
                self.staged.push(StagedWrite {
                    reg,
                    key,
                    op: WriteOp::Add(delta),
                });
            }
        }
    }

    fn now(&self) -> SimTime {
        self.dp.now()
    }

    fn self_id(&self) -> NodeId {
        self.me
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegisterSpec;
    use swishmem_pisa::DataPlane;

    fn setup(dp: &mut DataPlane) -> (Handles, SwishConfig) {
        let cfg = SwishConfig::default();
        let specs = vec![
            RegisterSpec::sro(0, "s", 16),
            RegisterSpec::ewo_counter(1, "c", 16),
            RegisterSpec::ewo_lww(2, "l", 16),
        ];
        let h = Handles::build(dp, &specs, &cfg, 3).unwrap();
        (h, cfg)
    }

    fn ctx<'a, 'v>(
        dp: &'a mut DpView<'v>,
        h: &'a Handles,
        cfg: &'a SwishConfig,
        staged: &'a mut Vec<StagedWrite>,
    ) -> NfCtx<'a, 'v> {
        NfCtx {
            dp,
            handles: h,
            cfg,
            me: NodeId(1),
            staged,
            need_tail: false,
            read_ops: 0,
        }
    }

    #[test]
    fn read_your_writes_within_packet() {
        let mut dp = DataPlane::standard();
        let (h, cfg) = setup(&mut dp);
        let mut view = DpView::new(&mut dp, SimTime::ZERO);
        let mut staged = Vec::new();
        let mut c = ctx(&mut view, &h, &cfg, &mut staged);
        assert_eq!(c.read(0, 5), 0);
        c.write(0, 5, 42);
        assert_eq!(c.read(0, 5), 42);
        c.add(0, 5, 8);
        assert_eq!(c.read(0, 5), 50);
        assert_eq!(c.staged.len(), 2);
    }

    #[test]
    fn counter_read_sums_slots() {
        let mut dp = DataPlane::standard();
        let (h, cfg) = setup(&mut dp);
        // Pre-populate two slots as if two switches had incremented.
        if let RegKind::Ewo { slots } = &h.regs[1].kind {
            dp.pair_mut(slots[0]).write(3, 1, 10);
            dp.pair_mut(slots[2]).write(3, 1, 5);
        }
        let mut view = DpView::new(&mut dp, SimTime::ZERO);
        let mut staged = Vec::new();
        let mut c = ctx(&mut view, &h, &cfg, &mut staged);
        assert_eq!(c.read(1, 3), 15);
        c.add(1, 3, 7); // staged on top
        assert_eq!(c.read(1, 3), 22);
    }

    #[test]
    fn pending_bit_flags_need_tail() {
        let mut dp = DataPlane::standard();
        let (h, cfg) = setup(&mut dp);
        if let RegKind::Chain {
            pending: Some(p), ..
        } = &h.regs[0].kind
        {
            dp.reg_mut(*p).write(7, 9); // in-flight write, seq 9
        }
        let mut view = DpView::new(&mut dp, SimTime::ZERO);
        let mut staged = Vec::new();
        let mut c = ctx(&mut view, &h, &cfg, &mut staged);
        let _ = c.read(0, 7);
        assert!(c.need_tail);
        // A different key (different group slot) is unaffected.
        let mut view = DpView::new(&mut dp, SimTime::ZERO);
        let mut staged = Vec::new();
        let mut c = ctx(&mut view, &h, &cfg, &mut staged);
        let _ = c.read(0, 8);
        assert!(!c.need_tail);
    }

    #[test]
    fn lww_add_stages_whole_value() {
        let mut dp = DataPlane::standard();
        let (h, cfg) = setup(&mut dp);
        if let RegKind::Ewo { slots } = &h.regs[2].kind {
            dp.pair_mut(slots[0]).write(0, 1, 100);
        }
        let mut view = DpView::new(&mut dp, SimTime::ZERO);
        let mut staged = Vec::new();
        let mut c = ctx(&mut view, &h, &cfg, &mut staged);
        c.add(2, 0, 5);
        assert_eq!(c.staged[0].op, WriteOp::Set(105));
    }
}
