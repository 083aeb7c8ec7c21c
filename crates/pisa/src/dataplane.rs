//! The data plane: all pipeline-visible state of one switch, plus the
//! restricted view handed to data-plane programs.
//!
//! Access control mirrors P4 (§2): programs get a [`DpView`] that can
//! read/write registers and *look up* tables; only the control plane
//! (which holds `&mut DataPlane` via
//! [`crate::control::CpCtx::dataplane`]) can install or remove table
//! entries.

use crate::memory::{MemoryBudget, OutOfMemory};
use crate::register::{PairRegisterArray, RegisterArray};
use crate::table::{MatchTable, TableFull};
use swishmem_simnet::SimTime;

/// Handle to a [`RegisterArray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegHandle(usize);

/// Handle to a [`PairRegisterArray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairRegHandle(usize);

/// Handle to a [`MatchTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableHandle(usize);

/// All data-plane state of one switch.
#[derive(Debug)]
pub struct DataPlane {
    budget: MemoryBudget,
    regs: Vec<RegisterArray>,
    pairs: Vec<PairRegisterArray>,
    tables: Vec<MatchTable>,
}

impl DataPlane {
    /// Create a data plane with the given memory budget.
    pub fn new(budget: MemoryBudget) -> DataPlane {
        DataPlane {
            budget,
            regs: Vec::new(),
            pairs: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Standard 10 MB data plane.
    pub fn standard() -> DataPlane {
        DataPlane::new(MemoryBudget::standard())
    }

    /// Allocate a register array of `len` 64-bit cells.
    pub fn alloc_register(&mut self, name: &str, len: usize) -> Result<RegHandle, OutOfMemory> {
        self.budget.alloc(name, len * RegisterArray::CELL_BYTES)?;
        self.regs.push(RegisterArray::new(name, len));
        Ok(RegHandle(self.regs.len() - 1))
    }

    /// Allocate a `(version, value)` pair register array.
    pub fn alloc_pair_register(
        &mut self,
        name: &str,
        len: usize,
    ) -> Result<PairRegHandle, OutOfMemory> {
        self.budget
            .alloc(name, len * PairRegisterArray::CELL_BYTES)?;
        self.pairs.push(PairRegisterArray::new(name, len));
        Ok(PairRegHandle(self.pairs.len() - 1))
    }

    /// Allocate an exact-match table.
    pub fn alloc_table(
        &mut self,
        name: &str,
        max_entries: usize,
    ) -> Result<TableHandle, OutOfMemory> {
        self.budget
            .alloc(name, max_entries * MatchTable::ENTRY_BYTES)?;
        self.tables.push(MatchTable::new(name, max_entries));
        Ok(TableHandle(self.tables.len() - 1))
    }

    /// The memory books.
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Register array behind `h`.
    pub fn reg(&self, h: RegHandle) -> &RegisterArray {
        &self.regs[h.0]
    }

    /// Mutable register array behind `h`.
    pub fn reg_mut(&mut self, h: RegHandle) -> &mut RegisterArray {
        &mut self.regs[h.0]
    }

    /// Pair register array behind `h`.
    pub fn pair(&self, h: PairRegHandle) -> &PairRegisterArray {
        &self.pairs[h.0]
    }

    /// Mutable pair register array behind `h`.
    pub fn pair_mut(&mut self, h: PairRegHandle) -> &mut PairRegisterArray {
        &mut self.pairs[h.0]
    }

    /// Table behind `h` (control-plane access; data-plane programs use
    /// [`DpView::table_lookup`]).
    pub fn table(&self, h: TableHandle) -> &MatchTable {
        &self.tables[h.0]
    }

    /// Mutable table behind `h` (control-plane only by convention — the
    /// pipeline never sees `&mut DataPlane`).
    pub fn table_mut(&mut self, h: TableHandle) -> &mut MatchTable {
        &mut self.tables[h.0]
    }

    /// Control-plane table insert.
    pub fn table_insert(&mut self, h: TableHandle, key: u64, value: u64) -> Result<(), TableFull> {
        self.tables[h.0].insert(key, value)
    }

    /// Wipe every structure: fail-stop failure loses all data-plane state.
    pub fn clear_all(&mut self) {
        for r in &mut self.regs {
            r.clear();
        }
        for p in &mut self.pairs {
            p.clear();
        }
        for t in &mut self.tables {
            t.clear();
        }
    }
}

/// The restricted, per-packet view a data-plane program operates through.
pub struct DpView<'a> {
    dp: &'a mut DataPlane,
    now: SimTime,
}

impl<'a> DpView<'a> {
    /// Wrap a data plane at the current time.
    pub fn new(dp: &'a mut DataPlane, now: SimTime) -> DpView<'a> {
        DpView { dp, now }
    }

    /// Current simulated time (switch-local use only; protocol timestamps
    /// should come from the SwiShmem clock model, which adds skew).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read register cell.
    #[inline]
    pub fn reg_read(&self, h: RegHandle, idx: usize) -> u64 {
        self.dp.regs[h.0].read(idx)
    }

    /// Write register cell.
    #[inline]
    pub fn reg_write(&mut self, h: RegHandle, idx: usize, v: u64) {
        self.dp.regs[h.0].write(idx, v);
    }

    /// Wrapping add to register cell; returns the new value.
    #[inline]
    pub fn reg_add(&mut self, h: RegHandle, idx: usize, delta: i64) -> u64 {
        self.dp.regs[h.0].add(idx, delta)
    }

    /// Read a `(version, value)` pair.
    #[inline]
    pub fn pair_read(&self, h: PairRegHandle, idx: usize) -> (u64, u64) {
        self.dp.pairs[h.0].read(idx)
    }

    /// Atomically write a `(version, value)` pair.
    #[inline]
    pub fn pair_write(&mut self, h: PairRegHandle, idx: usize, version: u64, value: u64) {
        self.dp.pairs[h.0].write(idx, version, value);
    }

    /// Read-modify-write a pair in one access; returns `(old, new)`.
    #[inline]
    pub fn pair_rmw(
        &mut self,
        h: PairRegHandle,
        idx: usize,
        f: impl FnOnce((u64, u64)) -> (u64, u64),
    ) -> ((u64, u64), (u64, u64)) {
        self.dp.pairs[h.0].rmw(idx, f)
    }

    /// Table lookup (the only table operation the pipeline may perform).
    #[inline]
    pub fn table_lookup(&mut self, h: TableHandle, key: u64) -> Option<u64> {
        self.dp.tables[h.0].lookup(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_charges_budget() {
        let mut dp = DataPlane::new(MemoryBudget::new(1024));
        let r = dp.alloc_register("r", 16).unwrap(); // 128 B
        let p = dp.alloc_pair_register("p", 16).unwrap(); // 256 B
        let t = dp.alloc_table("t", 8).unwrap(); // 256 B
        assert_eq!(dp.budget().used(), 128 + 256 + 256);
        // Views work through handles.
        let mut v = DpView::new(&mut dp, SimTime::ZERO);
        v.reg_write(r, 0, 7);
        assert_eq!(v.reg_read(r, 0), 7);
        v.pair_write(p, 1, 2, 3);
        assert_eq!(v.pair_read(p, 1), (2, 3));
        assert_eq!(v.table_lookup(t, 5), None);
    }

    #[test]
    fn over_budget_allocation_fails() {
        let mut dp = DataPlane::new(MemoryBudget::new(64));
        assert!(dp.alloc_register("ok", 8).is_ok());
        assert!(dp.alloc_register("too-big", 1).is_err());
    }

    #[test]
    fn clear_all_wipes_state() {
        let mut dp = DataPlane::standard();
        let r = dp.alloc_register("r", 4).unwrap();
        let t = dp.alloc_table("t", 4).unwrap();
        dp.reg_mut(r).write(0, 5);
        dp.table_insert(t, 1, 2).unwrap();
        dp.clear_all();
        assert_eq!(dp.reg(r).read(0), 0);
        assert!(dp.table(t).is_empty());
    }

    #[test]
    fn control_plane_inserts_visible_to_pipeline() {
        let mut dp = DataPlane::standard();
        let t = dp.alloc_table("nat", 16).unwrap();
        dp.table_insert(t, 42, 4242).unwrap();
        let mut v = DpView::new(&mut dp, SimTime::ZERO);
        assert_eq!(v.table_lookup(t, 42), Some(4242));
    }
}
