//! Bounds-checked big-endian reader/writer used by every codec.
//!
//! All wire formats in this workspace are big-endian (network byte order),
//! matching the conventions of the real protocols being modeled.

use crate::WireError;
use bytes::{BufMut, BytesMut};

/// A bounds-checked big-endian reader over a byte slice.
///
/// Unlike `bytes::Buf`, every read returns a `Result` carrying the offset
/// at which truncation occurred, which makes decode errors diagnosable.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                offset: self.pos,
                needed: n - self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Read a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a big-endian i64 (two's complement).
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    /// Read exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Fail unless the reader is exhausted. Used by top-level decoders to
    /// reject trailing garbage.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::LengthMismatch {
                declared: self.pos,
                actual: self.buf.len(),
            })
        }
    }
}

/// A big-endian writer appending to a `BytesMut`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Create an empty writer.
    pub fn new() -> Self {
        Writer {
            buf: BytesMut::new(),
        }
    }

    /// Create a writer with a pre-reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: BytesMut::with_capacity(n),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Append a big-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.put_u16(v);
    }

    /// Append a big-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.put_u32(v);
    }

    /// Append a big-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.put_u64(v);
    }

    /// Append a big-endian i64 (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.put_u64(v as u64);
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.put_slice(b);
    }

    /// Append `n` zero bytes (payload padding) without a scratch buffer.
    pub fn zeros(&mut self, n: usize) {
        self.buf.put_bytes(0, n);
    }

    /// Overwrite a previously written big-endian u16 at `offset` (used for
    /// checksum and length back-patching).
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        let b = v.to_be_bytes();
        self.buf[offset] = b[0];
        self.buf[offset + 1] = b[1];
    }

    /// View of the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, yielding the bytes.
    pub fn finish(self) -> BytesMut {
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
    fn patch_u16_overwrites_in_place() {
        let mut w = Writer::new();
        w.u16(0);
        w.u8(7);
        w.patch_u16(0, 0xbeef);
        assert_eq!(w.as_slice(), &[0xbe, 0xef, 7]);
    }
}
