//! Register arrays: the data-plane-writable state of a P4 program (§2).
//!
//! Two flavours are modeled:
//!
//! * [`RegisterArray`] — one machine word per cell, as produced by a P4
//!   `register<bit<64>>` extern.
//! * [`PairRegisterArray`] — a `(version, value)` pair per cell, updated
//!   atomically within one packet's processing, exactly the layout the
//!   paper's EWO implementation sketch calls for (§7: "pairs of
//!   registers ... the replication protocol can update both the version
//!   number and the value atomically").
//!
//! Indexing follows hardware semantics: indices are masked by the array
//! size (`idx % len`), never panicking, as a switch ALU would.

/// A named array of 64-bit registers.
#[derive(Debug, Clone)]
pub struct RegisterArray {
    name: String,
    cells: Vec<u64>,
}

impl RegisterArray {
    /// Bytes of SRAM one cell costs.
    pub const CELL_BYTES: usize = 8;

    /// Create an array of `len` zeroed cells. (Allocate through
    /// [`crate::dataplane::DataPlane`] so the memory budget is charged.)
    pub(crate) fn new(name: &str, len: usize) -> RegisterArray {
        assert!(len > 0, "register array must have at least one cell");
        RegisterArray {
            name: name.to_string(),
            cells: vec![0; len],
        }
    }

    /// Array name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always false (arrays have at least one cell).
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    fn slot(&self, idx: usize) -> usize {
        idx % self.cells.len()
    }

    /// Read cell `idx` (masked).
    #[inline]
    pub fn read(&self, idx: usize) -> u64 {
        self.cells[self.slot(idx)]
    }

    /// Write cell `idx` (masked).
    #[inline]
    pub fn write(&mut self, idx: usize, value: u64) {
        let s = self.slot(idx);
        self.cells[s] = value;
    }

    /// Wrapping add to cell `idx` (masked); returns the new value.
    #[inline]
    pub fn add(&mut self, idx: usize, delta: i64) -> u64 {
        let s = self.slot(idx);
        self.cells[s] = self.cells[s].wrapping_add(delta as u64);
        self.cells[s]
    }

    /// Zero every cell (failure/recovery wipes data-plane state).
    pub fn clear(&mut self) {
        self.cells.fill(0);
    }

    /// Iterate `(index, value)` over all cells.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.cells.iter().copied().enumerate()
    }
}

/// A named array of `(version, value)` register pairs.
#[derive(Debug, Clone)]
pub struct PairRegisterArray {
    name: String,
    cells: Vec<(u64, u64)>,
}

impl PairRegisterArray {
    /// Bytes of SRAM one pair costs.
    pub const CELL_BYTES: usize = 16;

    pub(crate) fn new(name: &str, len: usize) -> PairRegisterArray {
        assert!(len > 0, "register array must have at least one cell");
        PairRegisterArray {
            name: name.to_string(),
            cells: vec![(0, 0); len],
        }
    }

    /// Array name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    fn slot(&self, idx: usize) -> usize {
        idx % self.cells.len()
    }

    /// Read the `(version, value)` pair at `idx`.
    #[inline]
    pub fn read(&self, idx: usize) -> (u64, u64) {
        self.cells[self.slot(idx)]
    }

    /// Atomically overwrite the pair at `idx`.
    #[inline]
    pub fn write(&mut self, idx: usize, version: u64, value: u64) {
        let s = self.slot(idx);
        self.cells[s] = (version, value);
    }

    /// Read-modify-write the pair at `idx` in one access, as one register
    /// action does: store `f(old)` and return `(old, new)`.
    #[inline]
    pub fn rmw(
        &mut self,
        idx: usize,
        f: impl FnOnce((u64, u64)) -> (u64, u64),
    ) -> ((u64, u64), (u64, u64)) {
        let s = self.slot(idx);
        let old = self.cells[s];
        self.cells[s] = f(old);
        (old, self.cells[s])
    }

    /// Merge keeping the element-wise maximum of `(version, value)` —
    /// the G-counter slot merge ("a switch simply takes the larger of the
    /// local and received value for each element", §6.2). Returns true if
    /// anything changed.
    #[inline]
    pub fn merge_max(&mut self, idx: usize, version: u64, value: u64) -> bool {
        let s = self.slot(idx);
        let (v0, x0) = self.cells[s];
        let merged = (v0.max(version), x0.max(value));
        let changed = merged != self.cells[s];
        self.cells[s] = merged;
        changed
    }

    /// Zero every pair.
    pub fn clear(&mut self) {
        self.cells.fill((0, 0));
    }

    /// Iterate `(index, version, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.cells.iter().enumerate().map(|(i, &(v, x))| (i, v, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_masked() {
        let mut r = RegisterArray::new("r", 4);
        r.write(1, 42);
        assert_eq!(r.read(1), 42);
        assert_eq!(r.read(5), 42); // 5 % 4 == 1: hardware index masking
        r.write(7, 9); // 7 % 4 == 3
        assert_eq!(r.read(3), 9);
    }

    #[test]
    fn add_wraps() {
        let mut r = RegisterArray::new("r", 1);
        assert_eq!(r.add(0, 5), 5);
        assert_eq!(r.add(0, -3), 2);
        r.write(0, u64::MAX);
        assert_eq!(r.add(0, 1), 0);
    }

    #[test]
    fn clear_zeroes() {
        let mut r = RegisterArray::new("r", 3);
        r.write(0, 1);
        r.write(2, 2);
        r.clear();
        assert!(r.iter().all(|(_, v)| v == 0));
    }

    #[test]
    fn pair_max_merge_is_elementwise() {
        let mut p = PairRegisterArray::new("p", 1);
        p.write(0, 3, 50);
        assert!(p.merge_max(0, 2, 80)); // value rises, version stays
        assert_eq!(p.read(0), (3, 80));
        assert!(p.merge_max(0, 7, 10)); // version rises, value stays
        assert_eq!(p.read(0), (7, 80));
        assert!(!p.merge_max(0, 1, 1)); // nothing changes
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_length_rejected() {
        let _ = RegisterArray::new("r", 0);
    }
}
