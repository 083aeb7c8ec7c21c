//! Immutable entry batches for hot-path message payloads.
//!
//! Replication messages fan out: one EWO [`crate::swish::SyncUpdate`] is
//! multicast to every replica-group member, mirrored to egress, and
//! possibly recirculated — and the simulator clones the packet body once
//! per receiver. A batch of one entry — every eager mirror at the default
//! batch size — is held inline, the fixed-width header a pipeline emits
//! per packet: building it allocates nothing and a clone copies the entry.
//! A longer batch is backed by an `Arc<[T]>`, so each clone is a
//! reference-count bump instead of a deep copy of the entry vector.
//!
//! The representation is invisible: `Deref`, equality, `Debug` and the
//! encoding all go through the slice, so a decoded one-entry batch `==`
//! a locally built one however each was made.
//!
//! **Shared-body invariant:** receivers must treat the slice as frozen.
//! There is deliberately no `&mut` access; a node that needs to modify
//! entries copies them out (`to_vec`) first.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable slice; `clone` is O(1).
pub struct Shared<T>(Repr<T>);

enum Repr<T> {
    One(T),
    Many(Arc<[T]>),
}

impl<T> Shared<T> {
    /// An empty slice. Not free: `Arc<[T]>` has no shared empty
    /// singleton, so this allocates the (element-less) reference-count
    /// header — keep it off per-packet paths.
    pub fn empty() -> Shared<T> {
        Shared(Repr::Many(Arc::from([])))
    }

    /// View as a plain slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::One(v) => std::slice::from_ref(v),
            Repr::Many(s) => s,
        }
    }
}

impl<T: Clone> Shared<T> {
    /// Copy the contents out into an owned vector (for mutation).
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }
}

impl<T: Clone> Clone for Shared<T> {
    #[inline]
    fn clone(&self) -> Shared<T> {
        Shared(match &self.0 {
            Repr::One(v) => Repr::One(v.clone()),
            Repr::Many(s) => Repr::Many(Arc::clone(s)),
        })
    }
}

impl<T> Deref for Shared<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> From<Vec<T>> for Shared<T> {
    fn from(v: Vec<T>) -> Shared<T> {
        v.into_iter().collect()
    }
}

impl<T: Clone> From<&[T]> for Shared<T> {
    fn from(v: &[T]) -> Shared<T> {
        v.iter().cloned().collect()
    }
}

/// Collects straight into the representation: an iterator whose
/// `size_hint` says exactly one item is taken inline with no allocation;
/// otherwise an iterator of trusted length (slices, `Vec::drain`, `map`
/// over either) costs exactly one allocation, and others fall back to
/// std's intermediate buffer.
impl<T> FromIterator<T> for Shared<T> {
    #[inline]
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Shared<T> {
        let mut iter = iter.into_iter();
        if iter.size_hint() == (1, Some(1)) {
            if let Some(v) = iter.next() {
                return Shared(Repr::One(v));
            }
        }
        Shared(Repr::Many(iter.collect()))
    }
}

impl<'a, T> IntoIterator for &'a Shared<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Shared<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl<T: Eq> Eq for Shared<T> {}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
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
    use crate::cursor::{Reader, Writer};
    use crate::schema::Wire;

    #[test]
    fn clone_shares_the_allocation() {
        let a: Shared<u64> = vec![1, 2, 3].into();
        let b = a.clone();
        assert_eq!(a, b);
        let (Repr::Many(x), Repr::Many(y)) = (&a.0, &b.0) else {
            panic!("a three-entry batch is shared, not inline");
        };
        assert!(Arc::ptr_eq(x, y));
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

    #[test]
    fn one_entry_batches_are_inline_and_agree_however_built() {
        let from_vec: Shared<u64> = vec![42].into();
        let from_slice: Shared<u64> = (&[42u64][..]).into();
        let collected: Shared<u64> = std::iter::once(42u64).collect();
        let mut w = Writer::new();
        from_vec.put(&mut w);
        let decoded = Shared::<u64>::get(&mut Reader::new(w.as_slice())).expect("decodes");
        let all = [from_vec, from_slice, collected, decoded];
        for s in &all {
            assert!(matches!(s.0, Repr::One(42)), "{s:?} is not inline");
            assert_eq!(s.clone(), *s);
            assert_eq!(s, &all[0]);
            assert_eq!(&s[..], &[42]);
        }
        // A filter cannot promise one item up front: the same batch, held
        // shared, still compares equal.
        let filtered: Shared<u64> = [41u64, 42].into_iter().filter(|&v| v == 42).collect();
        assert!(matches!(filtered.0, Repr::Many(_)));
        assert_eq!(filtered, all[0]);
    }
}
