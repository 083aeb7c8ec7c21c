//! Typed register handles: thin, zero-cost wrappers over
//! [`SharedState`] that make NF code read like
//! the P4 it models and prevent class-mismatched operations at the call
//! site (e.g. `Set` on a counter).
//!
//! ```
//! use swishmem::prelude::*;
//! use swishmem::typed::{SharedCounter, SharedValue};
//!
//! struct MyNf {
//!     conns: SharedValue,    // SRO register 0
//!     hits: SharedCounter,   // EWO register 1
//! }
//!
//! impl NfApp for MyNf {
//!     fn process(&mut self, pkt: &DataPacket, _in: NodeId,
//!                st: &mut dyn swishmem::SharedState) -> NfDecision {
//!         self.hits.add(st, 0, 1);
//!         if self.conns.read(st, 5) == 0 {
//!             self.conns.write(st, 5, 1);
//!         }
//!         NfDecision::Forward { dst: NodeId(HOST_BASE), pkt: *pkt }
//!     }
//! }
//!
//! let mut dep = DeploymentBuilder::new(2)
//!     .register(RegisterSpec::sro(0, "conns", 16))
//!     .register(RegisterSpec::ewo_counter(1, "hits", 16))
//!     .build(|_| Box::new(MyNf {
//!         conns: swishmem::typed::SharedValue::new(0),
//!         hits: swishmem::typed::SharedCounter::new(1),
//!     }));
//! dep.settle();
//! ```

use crate::api::SharedState;
use swishmem_wire::swish::{Key, RegId};

/// A read/write shared value (SRO, ERO, or EWO-LWW registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedValue {
    reg: RegId,
}

impl SharedValue {
    /// Bind to register `reg`.
    pub const fn new(reg: RegId) -> SharedValue {
        SharedValue { reg }
    }

    /// The bound register id.
    pub fn reg(&self) -> RegId {
        self.reg
    }

    /// Read `self[key]`.
    pub fn read(&self, st: &mut dyn SharedState, key: Key) -> u64 {
        st.read(self.reg, key)
    }

    /// Overwrite `self[key]`.
    pub fn write(&self, st: &mut dyn SharedState, key: Key, value: u64) {
        st.write(self.reg, key, value);
    }

    /// Read, and write `value` only if the cell is currently zero
    /// (the allocate-if-absent idiom of NAT/LB tables). Returns the value
    /// now logically in the cell.
    pub fn read_or_init(&self, st: &mut dyn SharedState, key: Key, value: u64) -> u64 {
        let cur = st.read(self.reg, key);
        if cur == 0 {
            st.write(self.reg, key, value);
            value
        } else {
            cur
        }
    }
}

/// An add-only shared counter (EWO G-counter / windowed registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedCounter {
    reg: RegId,
}

impl SharedCounter {
    /// Bind to register `reg`.
    pub const fn new(reg: RegId) -> SharedCounter {
        SharedCounter { reg }
    }

    /// The bound register id.
    pub fn reg(&self) -> RegId {
        self.reg
    }

    /// Add `delta` (non-negative) to `self[key]`.
    pub fn add(&self, st: &mut dyn SharedState, key: Key, delta: u64) {
        st.add(self.reg, key, delta as i64);
    }

    /// Read the global (all-replica) count of `self[key]`.
    pub fn read(&self, st: &mut dyn SharedState, key: Key) -> u64 {
        st.read(self.reg, key)
    }

    /// Add then read in one step (the per-packet meter idiom).
    pub fn add_and_read(&self, st: &mut dyn SharedState, key: Key, delta: u64) -> u64 {
        st.add(self.reg, key, delta as i64);
        st.read(self.reg, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RegisterSpec, SwishConfig};
    use crate::layer::nfctx::NfCtx;
    use crate::layer::Handles;
    use swishmem_pisa::{DataPlane, DpView};
    use swishmem_simnet::SimTime;
    use swishmem_wire::NodeId;

    fn with_ctx<R>(f: impl FnOnce(&mut NfCtx<'_, '_>) -> R) -> R {
        let mut dp = DataPlane::standard();
        let cfg = SwishConfig::default();
        let specs = vec![
            RegisterSpec::sro(0, "v", 16),
            RegisterSpec::ewo_counter(1, "c", 16),
        ];
        let h = Handles::build(&mut dp, &specs, &cfg, 2).unwrap();
        let mut view = DpView::new(&mut dp, SimTime::ZERO);
        let mut staged = Vec::new();
        let mut ctx = NfCtx {
            dp: &mut view,
            handles: &h,
            cfg: &cfg,
            me: NodeId(0),
            staged: &mut staged,
            need_tail: false,
            read_ops: 0,
        };
        f(&mut ctx)
    }

    #[test]
    fn value_read_or_init_allocates_once() {
        with_ctx(|st| {
            let v = SharedValue::new(0);
            assert_eq!(v.read_or_init(st, 3, 42), 42);
            assert_eq!(v.read(st, 3), 42);
            // Second call sees the existing value, does not overwrite.
            assert_eq!(v.read_or_init(st, 3, 99), 42);
        });
    }

    #[test]
    fn counter_add_and_read() {
        with_ctx(|st| {
            let c = SharedCounter::new(1);
            assert_eq!(c.add_and_read(st, 0, 5), 5);
            c.add(st, 0, 2);
            assert_eq!(c.read(st, 0), 7);
        });
    }
}
