//! Data-plane memory accounting.
//!
//! PISA switches expose on the order of 10 MB of SRAM to the pipeline
//! (paper §1, §2). Every register array, pair register array and table
//! in this model must be allocated against a [`MemoryBudget`]; exceeding
//! it fails exactly the way a P4 program that does not fit fails to
//! compile. The SRO state-overhead experiment (E10) reads these books
//! directly.

use std::fmt;

/// Default data-plane memory: 10 MB, the figure the paper uses throughout.
pub const DEFAULT_CAPACITY: usize = 10 * 1024 * 1024;

/// Error returned when an allocation does not fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Name of the object that failed to allocate.
    pub object: String,
    /// Bytes requested.
    pub requested: usize,
    /// Bytes that were still available.
    pub available: usize,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "data-plane memory exhausted allocating '{}': requested {} B, available {} B",
            self.object, self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// One recorded allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Object name (register or table name).
    pub name: String,
    /// Bytes consumed.
    pub bytes: usize,
}

/// The switch's data-plane memory books.
#[derive(Debug, Clone)]
pub struct MemoryBudget {
    capacity: usize,
    used: usize,
    allocations: Vec<Allocation>,
}

impl MemoryBudget {
    /// A budget with the given capacity in bytes.
    pub fn new(capacity: usize) -> MemoryBudget {
        MemoryBudget {
            capacity,
            used: 0,
            allocations: Vec::new(),
        }
    }

    /// The paper's standard 10 MB budget.
    pub fn standard() -> MemoryBudget {
        MemoryBudget::new(DEFAULT_CAPACITY)
    }

    /// Record an allocation of `bytes` for `name`.
    pub fn alloc(&mut self, name: &str, bytes: usize) -> Result<(), OutOfMemory> {
        let available = self.capacity - self.used;
        if bytes > available {
            return Err(OutOfMemory {
                object: name.to_string(),
                requested: bytes,
                available,
            });
        }
        self.used += bytes;
        self.allocations.push(Allocation {
            name: name.to_string(),
            bytes,
        });
        Ok(())
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes allocated so far.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.capacity - self.used
    }

    /// Every recorded allocation, in allocation order.
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// Bytes attributed to allocations whose name starts with `prefix`
    /// (E10 sums the protocol-metadata overheads this way).
    pub fn used_by_prefix(&self, prefix: &str) -> usize {
        self.allocations
            .iter()
            .filter(|a| a.name.starts_with(prefix))
            .map(|a| a.bytes)
            .sum()
    }
}

impl Default for MemoryBudget {
    fn default() -> Self {
        MemoryBudget::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_tracks_usage() {
        let mut b = MemoryBudget::new(100);
        b.alloc("a", 40).unwrap();
        b.alloc("b", 60).unwrap();
        assert_eq!(b.used(), 100);
        assert_eq!(b.available(), 0);
        assert_eq!(b.allocations().len(), 2);
    }

    #[test]
    fn over_allocation_fails_with_details() {
        let mut b = MemoryBudget::new(100);
        b.alloc("a", 90).unwrap();
        let err = b.alloc("big", 20).unwrap_err();
        assert_eq!(
            err,
            OutOfMemory {
                object: "big".into(),
                requested: 20,
                available: 10
            }
        );
        // Failed allocation must not consume budget.
        assert_eq!(b.used(), 90);
    }

    #[test]
    fn standard_budget_is_10mb() {
        assert_eq!(MemoryBudget::standard().capacity(), 10 * 1024 * 1024);
    }

    #[test]
    fn prefix_accounting() {
        let mut b = MemoryBudget::new(1000);
        b.alloc("sro.seq", 100).unwrap();
        b.alloc("sro.pending", 50).unwrap();
        b.alloc("app.table", 200).unwrap();
        assert_eq!(b.used_by_prefix("sro."), 150);
        assert_eq!(b.used_by_prefix("app."), 200);
        assert_eq!(b.used_by_prefix("zzz"), 0);
    }
}
