//! Cheaply clonable immutable slices for hot-path message payloads.
//!
//! Replication messages fan out: one EWO [`crate::swish::SyncUpdate`] is
//! multicast to every replica-group member, mirrored to egress, and
//! possibly recirculated — and the simulator clones the packet body once
//! per receiver. Backing the entry batches with an `Arc<[T]>` turns each
//! of those clones into a reference-count bump instead of a deep copy of
//! the entry vector.
//!
//! **Shared-body invariant:** receivers must treat the slice as frozen.
//! There is deliberately no `&mut` access; a node that needs to modify
//! entries copies them out (`to_vec`) first.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable reference-counted slice; `clone` is O(1).
pub struct Shared<T>(Arc<[T]>);

impl<T> Shared<T> {
    /// An empty slice. Not free: `Arc<[T]>` has no shared empty
    /// singleton, so this allocates the (element-less) reference-count
    /// header — keep it off per-packet paths.
    pub fn empty() -> Shared<T> {
        Shared(Arc::from([]))
    }

    /// View as a plain slice.
    pub fn as_slice(&self) -> &[T] {
        &self.0
    }
}

impl<T: Clone> Shared<T> {
    /// Copy the contents out into an owned vector (for mutation).
    pub fn to_vec(&self) -> Vec<T> {
        self.0.to_vec()
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Shared<T> {
        Shared(Arc::clone(&self.0))
    }
}

impl<T> Deref for Shared<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> From<Vec<T>> for Shared<T> {
    fn from(v: Vec<T>) -> Shared<T> {
        Shared(Arc::from(v))
    }
}

impl<T: Clone> From<&[T]> for Shared<T> {
    fn from(v: &[T]) -> Shared<T> {
        Shared(Arc::from(v))
    }
}

/// Collects straight into the shared allocation: an iterator of trusted
/// length (slices, `Vec::drain`, `map` over either) costs exactly one
/// allocation; others fall back to std's intermediate buffer.
impl<T> FromIterator<T> for Shared<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Shared<T> {
        Shared(iter.into_iter().collect::<Arc<[T]>>())
    }
}

impl<'a, T> IntoIterator for &'a Shared<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Shared<T>) -> bool {
        self.0 == other.0
    }
}
impl<T: Eq> Eq for Shared<T> {}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl<T> Default for Shared<T> {
    fn default() -> Shared<T> {
        Shared::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a: Shared<u64> = vec![1, 2, 3].into();
        let b = a.clone();
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(&a[..], &[1, 2, 3]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn construction_paths_agree() {
        let from_vec: Shared<u32> = vec![7, 8].into();
        let from_slice: Shared<u32> = (&[7u32, 8][..]).into();
        let collected: Shared<u32> = [7u32, 8].into_iter().collect();
        assert_eq!(from_vec, from_slice);
        assert_eq!(from_vec, collected);
        assert_eq!(from_vec.to_vec(), vec![7, 8]);
        assert!(Shared::<u8>::empty().is_empty());
    }
}
