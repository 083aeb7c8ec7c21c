//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships the small subset of the `bytes` API it actually uses as a local
//! path dependency with the same crate name. The semantics mirror the
//! real crate: [`Bytes`] is a cheaply clonable, reference-counted,
//! immutable byte buffer (clone = refcount bump, slice = view), and
//! [`BytesMut`] is a growable buffer that can be frozen into a [`Bytes`].

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A cheaply clonable immutable byte buffer backed by `Arc<[u8]>`.
///
/// Cloning bumps a reference count; `slice` produces a zero-copy view of
/// the same allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copy `data` into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Zero-copy sub-view of this buffer.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        Bytes {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let data: Arc<[u8]> = v.into();
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::from(v.to_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&&self[..], f)
    }
}

/// A growable byte buffer; the mutable counterpart of [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reserve space for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Clear the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Convert into an immutable shared [`Bytes`] (consumes the buffer).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Extract the underlying vector.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.buf, f)
    }
}

/// Read-side cursor trait (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes remaining to read.
    fn remaining(&self) -> usize;

    /// View of the readable bytes.
    fn chunk(&self) -> &[u8];

    /// Advance the read position.
    fn advance(&mut self, cnt: usize);

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Read a big-endian u16.
    fn get_u16(&mut self) -> u16 {
        let c = self.chunk();
        let v = u16::from_be_bytes([c[0], c[1]]);
        self.advance(2);
        v
    }

    /// Read a big-endian u32.
    fn get_u32(&mut self) -> u32 {
        let c = self.chunk();
        let v = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }

    /// Read a big-endian u64.
    fn get_u64(&mut self) -> u64 {
        let c = self.chunk();
        let v = u64::from_be_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        self.advance(8);
        v
    }
}

/// Write-side trait (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian u16.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian i64 (two's complement).
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize);
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.buf.resize(self.buf.len() + cnt, val);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.resize(self.len() + cnt, val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_clone_is_shallow_and_slices_share() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let c = b.clone();
        assert_eq!(&b[..], &c[..]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        // Same backing allocation.
        assert!(Arc::ptr_eq(&b.data, &s.data));
    }

    #[test]
    fn bytes_mut_round_trip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(0xab);
        m.put_u16(0x1234);
        m.put_u32(0xdead_beef);
        m.put_u64(7);
        m.put_i64(-1);
        m.put_slice(&[9, 9]);
        m.put_bytes(0, 3);
        assert_eq!(m.len(), 1 + 2 + 4 + 8 + 8 + 2 + 3);
        assert_eq!(m[m.len() - 4..], [9, 0, 0, 0]);
        let frozen = m.freeze();
        assert_eq!(frozen[0], 0xab);
        assert_eq!(frozen[1..3], [0x12, 0x34]);
    }

    #[test]
    fn bytes_mut_indexing_patches() {
        let mut m = BytesMut::new();
        m.put_u16(0);
        m[0] = 0xbe;
        m[1] = 0xef;
        assert_eq!(&m[..], &[0xbe, 0xef]);
    }
}
