//! Bounds-checked big-endian reader/writer used by every codec.
//!
//! All wire formats in this workspace are big-endian (network byte order),
//! matching the conventions of the real protocols being modeled.
//!
//! Every accessor is a leaf called once per field, from this crate's
//! codecs and from other crates, so each carries `#[inline]`: no profile
//! here uses LTO, and an out-of-line call per field is most of a
//! fixed-width message's cost (DESIGN.md "Performance model"). The
//! reader's fixed-width accessors are `#[inline(always)]`: as a hint alone
//! it is declined inside the one large `SwishMsg::decode`.

use crate::WireError;

/// A bounds-checked big-endian reader over a byte slice.
///
/// Unlike `bytes::Buf`, every read returns a `Result` carrying the offset
/// at which truncation occurred, which makes decode errors diagnosable.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The bytes not yet read.
    rest: &'a [u8],
    /// Length of the whole buffer; the read offset is `len - rest.len()`.
    len: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            rest: buf,
            len: buf.len(),
        }
    }

    /// Current read offset.
    #[inline]
    pub fn position(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Bytes remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    #[cold]
    fn truncated(&self, wanted: usize) -> WireError {
        WireError::Truncated {
            offset: self.position(),
            needed: wanted - self.remaining(),
        }
    }

    /// Read exactly `N` raw bytes as an array.
    #[inline(always)]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        match self.rest.split_first_chunk::<N>() {
            Some((a, rest)) => {
                self.rest = rest;
                Ok(*a)
            }
            None => Err(self.truncated(N)),
        }
    }

    /// Read one byte.
    #[inline(always)]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.array().map(|[b]| b)
    }

    /// Read a big-endian u16.
    #[inline(always)]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_be_bytes)
    }

    /// Read a big-endian u32.
    #[inline(always)]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_be_bytes)
    }

    /// Read a big-endian u64.
    #[inline(always)]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_be_bytes)
    }

    /// Read a big-endian i64 (two's complement).
    #[inline(always)]
    pub fn i64(&mut self) -> Result<i64, WireError> {
        self.array().map(i64::from_be_bytes)
    }

    /// Read exactly `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        match self.rest.split_at_checked(n) {
            Some((s, rest)) => {
                self.rest = rest;
                Ok(s)
            }
            None => Err(self.truncated(n)),
        }
    }

    /// Fail unless the reader is exhausted. Used by top-level decoders to
    /// reject trailing garbage.
    #[inline]
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::LengthMismatch {
                declared: self.position(),
                actual: self.len,
            })
        }
    }
}

/// A big-endian writer appending to a byte vector.
///
/// Reusable: [`Writer::clear`] keeps the allocation, so a caller that
/// encodes frame after frame into one writer allocates only while the
/// buffer grows to the longest frame.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Create an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Create a writer with a pre-reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// Forget the bytes written so far, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Make room for `additional` more bytes in one step, so the appends
    /// that follow never grow the buffer.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian u16.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian i64 (two's complement).
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append raw bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append `n` zero bytes (payload padding) without a scratch buffer.
    #[inline]
    pub fn zeros(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    /// View of the bytes written so far.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, yielding the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = Writer::new();
        w.u8(0xab);
        w.u16(0x1234);
        w.u32(0xdead_beef);
        w.u64(0x0102_0304_0506_0708);
        w.i64(-42);
        w.bytes(&[9, 9, 9]);
        w.zeros(2);

        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.bytes(3).unwrap(), &[9, 9, 9]);
        assert_eq!(r.bytes(2).unwrap(), &[0, 0]);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncation_reports_offset() {
        let buf = [1u8, 2, 3];
        let mut r = Reader::new(&buf);
        r.u16().unwrap();
        let err = r.u32().unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                offset: 2,
                needed: 3
            }
        );
    }

    #[test]
    fn expect_end_rejects_trailing_bytes() {
        let buf = [0u8; 4];
        let mut r = Reader::new(&buf);
        r.u16().unwrap();
        assert!(matches!(
            r.expect_end(),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn clear_keeps_the_allocation() {
        let mut w = Writer::with_capacity(8);
        w.u64(1);
        let at = w.as_slice().as_ptr();
        w.clear();
        assert!(w.is_empty());
        w.u32(0xdead_beef);
        assert_eq!(w.as_slice(), &[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(w.as_slice().as_ptr(), at);
    }
}
