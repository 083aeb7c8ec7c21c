//! # swishmem-pisa
//!
//! A model of a PISA programmable switch (§2 of the paper): the substrate
//! SwiShmem's protocols run on. The model reproduces the *semantics* that
//! shape the protocol design rather than ASIC throughput (DESIGN.md §2):
//!
//! * a match-action pipeline executing a [`DataPlaneProgram`] with
//!   **atomic per-packet processing** — effects apply only after the
//!   program returns, so multi-location writes need no locks (§2);
//! * **data-plane state** under a 10 MB [`memory::MemoryBudget`]:
//!   [`register::RegisterArray`]s and `(version, value)`
//!   [`register::PairRegisterArray`]s writable from the pipeline,
//!   and [`table::MatchTable`]s writable only from the control plane;
//! * a **control-plane co-processor** ([`control::ControlApp`]) with punt
//!   latency and serial per-item service time — slow but with unbounded
//!   DRAM, exactly the asymmetry SRO exploits (§6.1, §7);
//! * **egress mirroring**, **multicast engine**, **recirculation**, and a
//!   periodic **packet generator** (§7's implementation toolbox).
//!
//! The [`switch::Switch`] composes all of it into a `swishmem-simnet`
//! node.
//!
//! ```
//! use swishmem_pisa::{DataPlane, DpView};
//! use swishmem_simnet::SimTime;
//!
//! // Build a data plane, allocate state against the 10 MB budget, and
//! // exercise it the way a per-packet program would.
//! let mut dp = DataPlane::standard();
//! let conns = dp.alloc_register("conn_state", 1024).unwrap();
//! let table = dp.alloc_table("routes", 256).unwrap();
//!
//! // The control plane installs a table entry (P4Runtime role)...
//! dp.table_insert(table, 42, 7).unwrap();
//!
//! // ...and the pipeline reads/writes through the restricted view.
//! let mut view = DpView::new(&mut dp, SimTime::ZERO);
//! assert_eq!(view.table_lookup(table, 42), Some(7));
//! view.reg_write(conns, 5, 2);
//! assert_eq!(view.reg_read(conns, 5), 2);
//! assert_eq!(view.reg_add(conns, 5, 3), 5);
//! assert!(dp.budget().used() > 0);
//! ```

pub mod control;
pub mod dataplane;
pub mod memory;
pub mod program;
pub mod register;
pub mod stages;
pub mod switch;
pub mod table;

pub use control::{ControlApp, CpCtx, CpParams, NullControlApp};
pub use dataplane::{DataPlane, DpView, PairRegHandle, RegHandle, TableHandle};
pub use memory::{MemoryBudget, OutOfMemory};
pub use program::{DataPlaneProgram, Effect, Effects};
pub use register::{PairRegisterArray, RegisterArray};
pub use stages::{Placement, PlacementError, StagePlanner};
pub use switch::{Switch, SwitchConfig, SwitchStats};
pub use table::{MatchTable, TableFull};
