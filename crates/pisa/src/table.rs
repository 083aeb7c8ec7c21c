//! Match tables: exact-match lookup structures that, per the P4 model,
//! "require control-plane to perform update" (§2). The data plane may only
//! look up; inserts/removes are reachable solely through the control-plane
//! API (`CpCtx::dataplane`), which is how the type system enforces the
//! paper's Observation 1 ("most of these examples use switch data
//! structures that must be modified through the control plane").

use std::collections::BTreeMap;

/// An exact-match table mapping a 64-bit key to a 64-bit action parameter.
#[derive(Debug, Clone)]
pub struct MatchTable {
    name: String,
    entries: BTreeMap<u64, u64>,
    max_entries: usize,
    lookups: u64,
    hits: u64,
}

/// Error returned when a table is full.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableFull {
    /// Table name.
    pub table: String,
    /// Configured capacity.
    pub max_entries: usize,
}

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "table '{}' full ({} entries)",
            self.table, self.max_entries
        )
    }
}

impl std::error::Error for TableFull {}

impl MatchTable {
    /// Bytes of SRAM one entry costs (key + value + overhead, a typical
    /// TCAM/SRAM exact-match cost model).
    pub const ENTRY_BYTES: usize = 32;

    pub(crate) fn new(name: &str, max_entries: usize) -> MatchTable {
        MatchTable {
            name: name.to_string(),
            entries: BTreeMap::new(),
            max_entries,
            lookups: 0,
            hits: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Data-plane lookup.
    pub fn lookup(&mut self, key: u64) -> Option<u64> {
        self.lookups += 1;
        let hit = self.entries.get(&key).copied();
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    /// Control-plane insert (or overwrite).
    pub fn insert(&mut self, key: u64, value: u64) -> Result<(), TableFull> {
        if !self.entries.contains_key(&key) && self.entries.len() >= self.max_entries {
            return Err(TableFull {
                table: self.name.clone(),
                max_entries: self.max_entries,
            });
        }
        self.entries.insert(key, value);
        Ok(())
    }

    /// Control-plane remove; returns the removed value.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        self.entries.remove(&key)
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(lookups, hits)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.hits)
    }

    /// Iterate all `(key, value)` entries in key order (control-plane
    /// snapshot).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().map(|(&k, &v)| (k, v))
    }

    /// Wipe all entries (failure/recovery).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.lookups = 0;
        self.hits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut t = MatchTable::new("t", 4);
        assert_eq!(t.lookup(1), None);
        t.insert(1, 100).unwrap();
        assert_eq!(t.lookup(1), Some(100));
        assert_eq!(t.remove(1), Some(100));
        assert_eq!(t.lookup(1), None);
        assert_eq!(t.stats(), (3, 1));
    }

    #[test]
    fn capacity_enforced_but_overwrite_allowed() {
        let mut t = MatchTable::new("t", 2);
        t.insert(1, 1).unwrap();
        t.insert(2, 2).unwrap();
        assert!(t.insert(3, 3).is_err());
        // Overwriting an existing key is not a new entry.
        t.insert(2, 20).unwrap();
        assert_eq!(t.lookup(2), Some(20));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = MatchTable::new("t", 2);
        t.insert(1, 1).unwrap();
        t.lookup(1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.stats(), (0, 0));
    }
}
