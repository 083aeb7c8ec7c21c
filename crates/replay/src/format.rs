//! The `.swtrace` binary flow-trace format: a fixed 128-byte superblock
//! followed by fixed-width 32-byte packed records, all little-endian —
//! the PSHM superblock/slot discipline (SNIPPETS.md 2–3) applied to
//! packet schedules instead of shared-memory rings.
//!
//! `.swtrace` is O(1) seekable and cheap enough to stream at millions of
//! records: a record parses with fixed-offset loads, no allocation, no
//! UTF-8.
//!
//! ## Superblock (128 bytes)
//!
//! | offset | size | field | meaning |
//! |---:|---:|---|---|
//! | 0 | 4 | magic | `"SWTR"` |
//! | 4 | 1 | version | format version (=1) |
//! | 5 | 1 | header_len | superblock size (=128) |
//! | 6 | 2 | flags | reserved, must be 0 |
//! | 8 | 4 | record_bytes | bytes per record (=32) |
//! | 12 | 4 | ingress_count | ingress slots the trace targets (0 = unknown) |
//! | 16 | 8 | record_count | number of records that follow |
//! | 24 | 8 | seed | generator/deployment seed the trace came from |
//! | 32 | 8 | clock_base_ns | timestamp of the first record |
//! | 40 | 8 | clock_end_ns | timestamp of the last record |
//! | 48 | 8 | flow_hint | approximate distinct flows (0 = unknown) |
//! | 56 | 8 | source_hash | FNV-1a of the free-form source string |
//! | 64 | 8 | checksum | FNV-1a over the other 120 header bytes |
//! | 72 | 56 | reserved | must be 0 |
//!
//! ## Record (32 bytes)
//!
//! `time_ns u64 · src_ip u32 · dst_ip u32 · src_port u16 · dst_port u16
//! · ingress u16 · proto u8 · tcp_flags u8 · flow_seq u32 ·
//! payload_len u16 · reserved u16`
//!
//! Records must be time-sorted (non-decreasing) and free of exact
//! duplicates at equal timestamps; both the writer and the reader
//! enforce this with typed errors, so a corrupt or hand-edited trace is
//! rejected before it can perturb a deterministic replay.

use std::fmt;
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::Ipv4Addr;
use swishmem_wire::l4::TcpFlags;
use swishmem_wire::{DataPacket, FlowKey};

/// `"SWTR"`.
pub const MAGIC: [u8; 4] = *b"SWTR";
/// Current format version.
pub const VERSION: u8 = 1;
/// Superblock size in bytes.
pub const HEADER_LEN: usize = 128;
/// Record size in bytes.
pub const RECORD_BYTES: usize = 32;

/// FNV-1a over a byte slice (the header checksum and source-hash
/// primitive; no external hash crates in the offline build).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A structural problem with a trace (typed so tests and tools can match
/// on the exact failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The first four bytes were not `"SWTR"`.
    BadMagic {
        /// What was found instead.
        got: [u8; 4],
    },
    /// A version this reader does not understand.
    UnsupportedVersion {
        /// The declared version.
        got: u8,
    },
    /// The declared header length is not 128.
    BadHeaderLen {
        /// The declared length.
        got: u8,
    },
    /// The declared record size is not 32.
    BadRecordBytes {
        /// The declared size.
        got: u32,
    },
    /// The stream ended inside the superblock.
    TruncatedHeader {
        /// Bytes actually present.
        got: usize,
    },
    /// The stream ended inside record `index`.
    TruncatedRecord {
        /// Zero-based index of the incomplete record.
        index: u64,
    },
    /// Fewer records than the superblock declared.
    CountMismatch {
        /// `record_count` from the superblock.
        declared: u64,
        /// Records actually present.
        actual: u64,
    },
    /// The header checksum did not match its contents.
    HeaderChecksum {
        /// Checksum stored in the superblock.
        declared: u64,
        /// Checksum computed over the header bytes.
        computed: u64,
    },
    /// A reserved header or record field was non-zero.
    ReservedNonZero,
    /// Record `index` moved backwards in time.
    TimeRegression {
        /// Zero-based index of the offending record.
        index: u64,
        /// Timestamp of the previous record.
        prev: u64,
        /// The smaller timestamp that followed it.
        got: u64,
    },
    /// Record `index` is byte-identical to its predecessor (same
    /// timestamp, same flow, same sequence — a duplicated line).
    DuplicateRecord {
        /// Zero-based index of the duplicate.
        index: u64,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic { got } => write!(f, "bad magic {got:?} (want \"SWTR\")"),
            FormatError::UnsupportedVersion { got } => write!(f, "unsupported version {got}"),
            FormatError::BadHeaderLen { got } => write!(f, "bad header length {got} (want 128)"),
            FormatError::BadRecordBytes { got } => write!(f, "bad record size {got} (want 32)"),
            FormatError::TruncatedHeader { got } => {
                write!(f, "truncated superblock ({got} of {HEADER_LEN} bytes)")
            }
            FormatError::TruncatedRecord { index } => {
                write!(f, "stream ended inside record {index}")
            }
            FormatError::CountMismatch { declared, actual } => {
                write!(f, "superblock declares {declared} records, found {actual}")
            }
            FormatError::HeaderChecksum { declared, computed } => {
                write!(
                    f,
                    "header checksum mismatch: stored {declared:#018x}, computed {computed:#018x}"
                )
            }
            FormatError::ReservedNonZero => write!(f, "reserved field non-zero"),
            FormatError::TimeRegression { index, prev, got } => {
                write!(f, "record {index} time regressed: {prev} -> {got}")
            }
            FormatError::DuplicateRecord { index } => {
                write!(f, "record {index} duplicates its predecessor")
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// A trace operation failure: I/O or structure.
#[derive(Debug)]
pub enum TraceError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The trace itself is malformed.
    Format(FormatError),
}

impl TraceError {
    /// The structural error, if this is one (test/tool convenience).
    pub fn format_err(&self) -> Option<&FormatError> {
        match self {
            TraceError::Format(e) => Some(e),
            TraceError::Io(_) => None,
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o: {e}"),
            TraceError::Format(e) => write!(f, "trace format: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

impl From<FormatError> for TraceError {
    fn from(e: FormatError) -> TraceError {
        TraceError::Format(e)
    }
}

/// One packed flow-trace record (the in-memory form of the 32-byte wire
/// layout). Plain POD: copying it is a register move, and a preallocated
/// slab of them is the ring-ingest slot array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceRecord {
    /// Absolute injection time, nanoseconds.
    pub time_ns: u64,
    /// Source IPv4 address (native-endian u32 of the octets).
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Ingress switch index.
    pub ingress: u16,
    /// IP protocol (6 = TCP, 17 = UDP).
    pub proto: u8,
    /// Raw TCP flag bits ([`TcpFlags::raw`]).
    pub tcp_flags: u8,
    /// Per-flow packet sequence number.
    pub flow_seq: u32,
    /// Payload length in bytes.
    pub payload_len: u16,
}

impl TraceRecord {
    /// Serialize to the 32-byte wire layout.
    pub fn to_bytes(&self) -> [u8; RECORD_BYTES] {
        let mut b = [0u8; RECORD_BYTES];
        b[0..8].copy_from_slice(&self.time_ns.to_le_bytes());
        b[8..12].copy_from_slice(&self.src_ip.to_le_bytes());
        b[12..16].copy_from_slice(&self.dst_ip.to_le_bytes());
        b[16..18].copy_from_slice(&self.src_port.to_le_bytes());
        b[18..20].copy_from_slice(&self.dst_port.to_le_bytes());
        b[20..22].copy_from_slice(&self.ingress.to_le_bytes());
        b[22] = self.proto;
        b[23] = self.tcp_flags;
        b[24..28].copy_from_slice(&self.flow_seq.to_le_bytes());
        b[28..30].copy_from_slice(&self.payload_len.to_le_bytes());
        // b[30..32] reserved, zero.
        b
    }

    /// Parse from the 32-byte wire layout.
    pub fn from_bytes(b: &[u8; RECORD_BYTES]) -> TraceRecord {
        let u64le = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().expect("8 bytes"));
        let u32le = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().expect("4 bytes"));
        let u16le = |o: usize| u16::from_le_bytes(b[o..o + 2].try_into().expect("2 bytes"));
        TraceRecord {
            time_ns: u64le(0),
            src_ip: u32le(8),
            dst_ip: u32le(12),
            src_port: u16le(16),
            dst_port: u16le(18),
            ingress: u16le(20),
            proto: b[22],
            tcp_flags: b[23],
            flow_seq: u32le(24),
            payload_len: u16le(28),
        }
    }

    /// The packet this record describes.
    pub fn to_packet(&self) -> DataPacket {
        DataPacket {
            flow: FlowKey {
                src: Ipv4Addr::from(self.src_ip),
                dst: Ipv4Addr::from(self.dst_ip),
                src_port: self.src_port,
                dst_port: self.dst_port,
                proto: self.proto,
            },
            tcp_flags: TcpFlags::from_raw(self.tcp_flags),
            flow_seq: self.flow_seq,
            payload_len: self.payload_len,
        }
    }

    /// A stable 64-bit key of the 5-tuple (flow identity, not packet
    /// identity): the ingress-spreading and dedup primitive.
    pub fn flow_hash(&self) -> u64 {
        let mut b = [0u8; 13];
        b[0..4].copy_from_slice(&self.src_ip.to_le_bytes());
        b[4..8].copy_from_slice(&self.dst_ip.to_le_bytes());
        b[8..10].copy_from_slice(&self.src_port.to_le_bytes());
        b[10..12].copy_from_slice(&self.dst_port.to_le_bytes());
        b[12] = self.proto;
        fnv1a(&b)
    }
}

/// Superblock metadata of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceMeta {
    /// Ingress slots the trace targets (0 = unknown).
    pub ingress_count: u32,
    /// Number of records.
    pub record_count: u64,
    /// Generator/deployment seed the trace came from.
    pub seed: u64,
    /// Timestamp of the first record.
    pub clock_base_ns: u64,
    /// Timestamp of the last record.
    pub clock_end_ns: u64,
    /// Approximate distinct flows (0 = unknown).
    pub flow_hint: u64,
    /// FNV-1a of the free-form source description.
    pub source_hash: u64,
}

impl TraceMeta {
    /// Metadata for a freshly captured/synthesized trace; counts and
    /// clock bounds are filled in by the writer at [`TraceWriter::finish`].
    pub fn new(ingress_count: u32, seed: u64, source: &str) -> TraceMeta {
        TraceMeta {
            ingress_count,
            seed,
            source_hash: fnv1a(source.as_bytes()),
            ..TraceMeta::default()
        }
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut b = [0u8; HEADER_LEN];
        b[0..4].copy_from_slice(&MAGIC);
        b[4] = VERSION;
        b[5] = HEADER_LEN as u8;
        // b[6..8] flags: reserved.
        b[8..12].copy_from_slice(&(RECORD_BYTES as u32).to_le_bytes());
        b[12..16].copy_from_slice(&self.ingress_count.to_le_bytes());
        b[16..24].copy_from_slice(&self.record_count.to_le_bytes());
        b[24..32].copy_from_slice(&self.seed.to_le_bytes());
        b[32..40].copy_from_slice(&self.clock_base_ns.to_le_bytes());
        b[40..48].copy_from_slice(&self.clock_end_ns.to_le_bytes());
        b[48..56].copy_from_slice(&self.flow_hint.to_le_bytes());
        b[56..64].copy_from_slice(&self.source_hash.to_le_bytes());
        let sum = header_checksum(&b);
        b[64..72].copy_from_slice(&sum.to_le_bytes());
        b
    }

    fn decode(b: &[u8; HEADER_LEN]) -> Result<TraceMeta, FormatError> {
        if b[0..4] != MAGIC {
            return Err(FormatError::BadMagic {
                got: b[0..4].try_into().expect("4 bytes"),
            });
        }
        if b[4] != VERSION {
            return Err(FormatError::UnsupportedVersion { got: b[4] });
        }
        if usize::from(b[5]) != HEADER_LEN {
            return Err(FormatError::BadHeaderLen { got: b[5] });
        }
        let u64le = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().expect("8 bytes"));
        let u32le = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().expect("4 bytes"));
        let record_bytes = u32le(8);
        if record_bytes as usize != RECORD_BYTES {
            return Err(FormatError::BadRecordBytes { got: record_bytes });
        }
        let declared = u64le(64);
        let computed = header_checksum(b);
        if declared != computed {
            return Err(FormatError::HeaderChecksum { declared, computed });
        }
        if b[6..8].iter().any(|&x| x != 0) || b[72..].iter().any(|&x| x != 0) {
            return Err(FormatError::ReservedNonZero);
        }
        Ok(TraceMeta {
            ingress_count: u32le(12),
            record_count: u64le(16),
            seed: u64le(24),
            clock_base_ns: u64le(32),
            clock_end_ns: u64le(40),
            flow_hint: u64le(48),
            source_hash: u64le(56),
        })
    }
}

/// FNV-1a over the superblock with the checksum field (bytes 64..72)
/// treated as zero.
fn header_checksum(b: &[u8; HEADER_LEN]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, &byte) in b.iter().enumerate() {
        let x = if (64..72).contains(&i) { 0 } else { byte };
        h ^= u64::from(x);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Streaming `.swtrace` writer: header placeholder up front, fixed-width
/// records appended, final header (counts, clock bounds, checksum)
/// patched in by [`TraceWriter::finish`]. Ordering is enforced at `push`
/// so an unsortable stream fails fast instead of producing a trace every
/// reader would reject.
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    meta: TraceMeta,
    written: u64,
    flow_seen: u64,
    prev: Option<TraceRecord>,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Start a trace; writes the (provisional) superblock immediately.
    pub fn new(mut sink: W, meta: TraceMeta) -> Result<TraceWriter<W>, TraceError> {
        sink.write_all(&meta.encode())?;
        Ok(TraceWriter {
            sink,
            meta,
            written: 0,
            flow_seen: 0,
            prev: None,
        })
    }

    /// Append one record; rejects time regressions and exact duplicates.
    pub fn push(&mut self, rec: TraceRecord) -> Result<(), TraceError> {
        if let Some(prev) = &self.prev {
            if rec.time_ns < prev.time_ns {
                return Err(FormatError::TimeRegression {
                    index: self.written,
                    prev: prev.time_ns,
                    got: rec.time_ns,
                }
                .into());
            }
            if rec == *prev {
                return Err(FormatError::DuplicateRecord {
                    index: self.written,
                }
                .into());
            }
        } else {
            self.meta.clock_base_ns = rec.time_ns;
        }
        if rec.flow_seq == 0 {
            self.flow_seen += 1;
        }
        self.meta.clock_end_ns = rec.time_ns;
        self.sink.write_all(&rec.to_bytes())?;
        self.written += 1;
        self.prev = Some(rec);
        Ok(())
    }

    /// Records pushed so far.
    pub fn len(&self) -> u64 {
        self.written
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }

    /// Patch the final superblock and return the sink and metadata.
    pub fn finish(mut self) -> Result<(W, TraceMeta), TraceError> {
        self.meta.record_count = self.written;
        if self.meta.flow_hint == 0 {
            self.meta.flow_hint = self.flow_seen;
        }
        self.sink.seek(SeekFrom::Start(0))?;
        self.sink.write_all(&self.meta.encode())?;
        self.sink.flush()?;
        Ok((self.sink, self.meta))
    }
}

/// Streaming `.swtrace` reader: validates the superblock eagerly and
/// each record's ordering as it is produced, so a replay can start
/// before the whole trace is in memory and still never see a malformed
/// stream.
pub struct TraceReader<R: Read> {
    src: R,
    meta: TraceMeta,
    read: u64,
    prev: Option<TraceRecord>,
}

impl<R: Read> TraceReader<R> {
    /// Open a trace, consuming and validating the superblock.
    pub fn new(mut src: R) -> Result<TraceReader<R>, TraceError> {
        let mut hdr = [0u8; HEADER_LEN];
        let got = read_full(&mut src, &mut hdr)?;
        if got < HEADER_LEN {
            return Err(FormatError::TruncatedHeader { got }.into());
        }
        let meta = TraceMeta::decode(&hdr)?;
        Ok(TraceReader {
            src,
            meta,
            read: 0,
            prev: None,
        })
    }

    /// The trace metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Records consumed so far.
    pub fn position(&self) -> u64 {
        self.read
    }

    /// The next record, `Ok(None)` at a clean end of trace.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        if self.read == self.meta.record_count {
            return Ok(None);
        }
        let mut buf = [0u8; RECORD_BYTES];
        let got = read_full(&mut self.src, &mut buf)?;
        if got == 0 {
            return Err(FormatError::CountMismatch {
                declared: self.meta.record_count,
                actual: self.read,
            }
            .into());
        }
        if got < RECORD_BYTES {
            return Err(FormatError::TruncatedRecord { index: self.read }.into());
        }
        if buf[30..32] != [0, 0] {
            return Err(FormatError::ReservedNonZero.into());
        }
        let rec = TraceRecord::from_bytes(&buf);
        if let Some(prev) = &self.prev {
            if rec.time_ns < prev.time_ns {
                return Err(FormatError::TimeRegression {
                    index: self.read,
                    prev: prev.time_ns,
                    got: rec.time_ns,
                }
                .into());
            }
            if rec == *prev {
                return Err(FormatError::DuplicateRecord { index: self.read }.into());
            }
        }
        self.read += 1;
        self.prev = Some(rec);
        Ok(Some(rec))
    }

    /// Drain the remaining records into a vector (tests and small
    /// traces; replay streams via [`TraceReader::next_record`]).
    pub fn read_all(&mut self) -> Result<Vec<TraceRecord>, TraceError> {
        let mut out = Vec::with_capacity((self.meta.record_count - self.read) as usize);
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

/// `Read::read` until the buffer is full or EOF; returns bytes read.
fn read_full<R: Read>(src: &mut R, buf: &mut [u8]) -> Result<usize, std::io::Error> {
    let mut got = 0;
    while got < buf.len() {
        let n = src.read(&mut buf[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    Ok(got)
}

/// Serialize a record slice to complete `.swtrace` bytes (convenience
/// over [`TraceWriter`] for in-memory traces).
pub fn to_swtrace_bytes(records: &[TraceRecord], meta: TraceMeta) -> Result<Vec<u8>, TraceError> {
    let mut w = TraceWriter::new(
        std::io::Cursor::new(Vec::with_capacity(
            HEADER_LEN + records.len() * RECORD_BYTES,
        )),
        meta,
    )?;
    for &r in records {
        w.push(r)?;
    }
    let (cursor, _) = w.finish()?;
    Ok(cursor.into_inner())
}

/// Parse complete `.swtrace` bytes into records (convenience over
/// [`TraceReader`]).
pub fn from_swtrace_bytes(bytes: &[u8]) -> Result<(TraceMeta, Vec<TraceRecord>), TraceError> {
    let mut r = TraceReader::new(std::io::Cursor::new(bytes))?;
    let meta = *r.meta();
    let records = r.read_all()?;
    Ok((meta, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, seq: u32) -> TraceRecord {
        TraceRecord {
            time_ns: t,
            src_ip: u32::from(Ipv4Addr::new(10, 0, 0, 1)),
            dst_ip: u32::from(Ipv4Addr::new(20, 0, 0, 2)),
            src_port: 4000,
            dst_port: 80,
            ingress: 1,
            proto: 6,
            tcp_flags: TcpFlags::syn().raw(),
            flow_seq: seq,
            payload_len: 100,
        }
    }

    #[test]
    fn record_bytes_round_trip() {
        let r = rec(123_456, 7);
        assert_eq!(TraceRecord::from_bytes(&r.to_bytes()), r);
    }

    #[test]
    fn write_read_round_trip_with_meta() {
        let records: Vec<TraceRecord> = (0..100).map(|i| rec(i * 10, i as u32)).collect();
        let meta = TraceMeta::new(4, 42, "unit-test");
        let bytes = to_swtrace_bytes(&records, meta).unwrap();
        assert_eq!(bytes.len(), HEADER_LEN + 100 * RECORD_BYTES);
        let (m, back) = from_swtrace_bytes(&bytes).unwrap();
        assert_eq!(back, records);
        assert_eq!(m.record_count, 100);
        assert_eq!(m.ingress_count, 4);
        assert_eq!(m.seed, 42);
        assert_eq!(m.clock_base_ns, 0);
        assert_eq!(m.clock_end_ns, 990);
        assert_eq!(m.source_hash, fnv1a(b"unit-test"));
    }

    #[test]
    fn writer_rejects_regression_and_duplicate() {
        let mut w =
            TraceWriter::new(std::io::Cursor::new(Vec::new()), TraceMeta::default()).unwrap();
        w.push(rec(100, 0)).unwrap();
        let e = w.push(rec(50, 1)).unwrap_err();
        assert!(matches!(
            e.format_err(),
            Some(FormatError::TimeRegression {
                prev: 100,
                got: 50,
                ..
            })
        ));
        let e = w.push(rec(100, 0)).unwrap_err();
        assert!(matches!(
            e.format_err(),
            Some(FormatError::DuplicateRecord { index: 1 })
        ));
        // Same timestamp, different content: legal.
        w.push(rec(100, 1)).unwrap();
    }

    #[test]
    fn reader_rejects_corrupt_superblock() {
        let bytes = to_swtrace_bytes(&[rec(1, 0)], TraceMeta::default()).unwrap();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            from_swtrace_bytes(&bad_magic).unwrap_err().format_err(),
            Some(FormatError::BadMagic { .. })
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(matches!(
            from_swtrace_bytes(&bad_version).unwrap_err().format_err(),
            Some(FormatError::UnsupportedVersion { got: 99 })
        ));

        // Any payload flip under the checksum fires HeaderChecksum.
        let mut bad_count = bytes.clone();
        bad_count[16] ^= 0xff;
        assert!(matches!(
            from_swtrace_bytes(&bad_count).unwrap_err().format_err(),
            Some(FormatError::HeaderChecksum { .. })
        ));

        let short = &bytes[..HEADER_LEN - 5];
        assert!(matches!(
            from_swtrace_bytes(short).unwrap_err().format_err(),
            Some(FormatError::TruncatedHeader { got }) if *got == HEADER_LEN - 5
        ));
    }

    #[test]
    fn reader_rejects_truncated_and_short_record_streams() {
        let records: Vec<TraceRecord> = (0..10).map(|i| rec(i * 5, i as u32)).collect();
        let bytes = to_swtrace_bytes(&records, TraceMeta::default()).unwrap();

        // Cut inside record 7.
        let cut = &bytes[..HEADER_LEN + 7 * RECORD_BYTES + 11];
        assert!(matches!(
            from_swtrace_bytes(cut).unwrap_err().format_err(),
            Some(FormatError::TruncatedRecord { index: 7 })
        ));

        // Cut exactly at a record boundary: count mismatch.
        let cut = &bytes[..HEADER_LEN + 6 * RECORD_BYTES];
        assert!(matches!(
            from_swtrace_bytes(cut).unwrap_err().format_err(),
            Some(FormatError::CountMismatch {
                declared: 10,
                actual: 6
            })
        ));
    }

    #[test]
    fn flow_hash_distinguishes_flows_not_packets() {
        let a = rec(1, 0);
        let b = rec(99, 5);
        assert_eq!(a.flow_hash(), b.flow_hash());
        let mut c = rec(1, 0);
        c.dst_port = 81;
        assert_ne!(a.flow_hash(), c.flow_hash());
    }
}
