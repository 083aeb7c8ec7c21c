//! Trace round-trip gates: binary write→read identity at one million
//! records and typed rejection of truncated or corrupt traces. These run as an
//! integration suite so `scripts/verify.sh` can invoke them by name.

use swishmem_replay::{
    from_swtrace_bytes, to_swtrace_bytes, FormatError, SynthConfig, TraceMeta, TraceReader,
    TraceRecord, TraceWriter,
};

const HEADER_LEN: usize = swishmem_replay::format::HEADER_LEN;
const RECORD_BYTES: usize = swishmem_replay::format::RECORD_BYTES;

/// A deterministic synthetic record stream: strictly advancing clock,
/// varied flows, every field exercised.
fn make_records(n: u64) -> Vec<TraceRecord> {
    (0..n)
        .map(|i| TraceRecord {
            time_ns: 1_000 + i * 3,
            src_ip: 0x0a00_0000 | ((i % 5_000) as u32 + 1),
            dst_ip: 0x1400_0000 | ((i % 97) as u32 + 1),
            src_port: 1024 + (i % 60_000) as u16,
            dst_port: if i % 2 == 0 { 80 } else { 9000 },
            ingress: (i % 7) as u16,
            proto: if i % 3 == 0 { 17 } else { 6 },
            tcp_flags: (i % 4) as u8 * 2,
            flow_seq: (i % 64) as u32,
            payload_len: 64 + (i % 1400) as u16,
        })
        .collect()
}

#[test]
fn million_record_write_read_identity() {
    let n: u64 = 1_000_000;
    let records = make_records(n);
    let meta = TraceMeta::new(7, 1234, "roundtrip-1m");
    let bytes = to_swtrace_bytes(&records, meta).unwrap();
    assert_eq!(bytes.len(), HEADER_LEN + n as usize * RECORD_BYTES);

    // Stream the read back (the replay path) rather than bulk-loading,
    // and compare record-for-record so a single bit flip pins the index.
    let mut reader = TraceReader::new(std::io::Cursor::new(&bytes)).unwrap();
    assert_eq!(reader.meta().record_count, n);
    assert_eq!(reader.meta().ingress_count, 7);
    assert_eq!(reader.meta().clock_base_ns, 1_000);
    assert_eq!(reader.meta().clock_end_ns, 1_000 + (n - 1) * 3);
    let mut i = 0usize;
    while let Some(rec) = reader.next_record().unwrap() {
        assert_eq!(rec, records[i], "record {i} diverged");
        i += 1;
    }
    assert_eq!(i as u64, n);
}

#[test]
fn synthesized_trace_round_trips_through_bytes() {
    // The real producer (heavy-tail synthesizer) through the real
    // consumer: bytes -> records -> bytes must be byte-identical.
    let cfg = SynthConfig {
        flows: 5_000,
        ..SynthConfig::default()
    };
    let bytes = swishmem_replay::synth_trace_bytes(&cfg, 9);
    let (meta, records) = from_swtrace_bytes(&bytes).unwrap();
    assert!(records.len() >= cfg.flows as usize);
    let again = to_swtrace_bytes(&records, meta).unwrap();
    assert_eq!(bytes, again);
}

#[test]
fn truncated_traces_rejected_with_typed_errors() {
    let records = make_records(50);
    let bytes = to_swtrace_bytes(&records, TraceMeta::default()).unwrap();

    // Ends inside the superblock.
    let e = from_swtrace_bytes(&bytes[..40]).unwrap_err();
    assert!(matches!(
        e.format_err(),
        Some(FormatError::TruncatedHeader { got: 40 })
    ));

    // Ends mid-record.
    let cut = &bytes[..HEADER_LEN + 3 * RECORD_BYTES + 1];
    let e = from_swtrace_bytes(cut).unwrap_err();
    assert!(matches!(
        e.format_err(),
        Some(FormatError::TruncatedRecord { index: 3 })
    ));

    // Ends on a record boundary but short of the declared count.
    let cut = &bytes[..HEADER_LEN + 10 * RECORD_BYTES];
    let e = from_swtrace_bytes(cut).unwrap_err();
    assert!(matches!(
        e.format_err(),
        Some(FormatError::CountMismatch {
            declared: 50,
            actual: 10
        })
    ));
}

#[test]
fn corrupt_superblocks_rejected_with_typed_errors() {
    let bytes = to_swtrace_bytes(&make_records(4), TraceMeta::new(2, 8, "corrupt")).unwrap();

    let flip = |idx: usize| {
        let mut b = bytes.clone();
        b[idx] ^= 0xff;
        b
    };

    assert!(matches!(
        from_swtrace_bytes(&flip(0)).unwrap_err().format_err(),
        Some(FormatError::BadMagic { .. })
    ));
    assert!(matches!(
        from_swtrace_bytes(&flip(4)).unwrap_err().format_err(),
        Some(FormatError::UnsupportedVersion { .. })
    ));
    assert!(matches!(
        from_swtrace_bytes(&flip(5)).unwrap_err().format_err(),
        Some(FormatError::BadHeaderLen { .. })
    ));
    assert!(matches!(
        from_swtrace_bytes(&flip(8)).unwrap_err().format_err(),
        Some(FormatError::BadRecordBytes { .. })
    ));
    // Any flip in the checksummed payload (record count, seed, clock
    // bounds...) surfaces as a checksum mismatch before it can lie.
    for idx in [16, 24, 32, 48] {
        assert!(matches!(
            from_swtrace_bytes(&flip(idx)).unwrap_err().format_err(),
            Some(FormatError::HeaderChecksum { .. })
        ));
    }
    // A flip in a reserved region also perturbs the checksum.
    assert!(from_swtrace_bytes(&flip(100)).is_err());
}

#[test]
fn corrupt_record_bodies_rejected_with_typed_errors() {
    let records = make_records(20);
    let bytes = to_swtrace_bytes(&records, TraceMeta::default()).unwrap();

    // Rewind record 10's timestamp below record 9's.
    let mut regressed = bytes.clone();
    let off = HEADER_LEN + 10 * RECORD_BYTES;
    regressed[off..off + 8].copy_from_slice(&5u64.to_le_bytes());
    let e = from_swtrace_bytes(&regressed).unwrap_err();
    assert!(matches!(
        e.format_err(),
        Some(FormatError::TimeRegression {
            index: 10,
            got: 5,
            ..
        })
    ));

    // Overwrite record 6 with a copy of record 5.
    let mut duped = bytes.clone();
    let (src, dst) = (HEADER_LEN + 5 * RECORD_BYTES, HEADER_LEN + 6 * RECORD_BYTES);
    let rec5: Vec<u8> = duped[src..src + RECORD_BYTES].to_vec();
    duped[dst..dst + RECORD_BYTES].copy_from_slice(&rec5);
    let e = from_swtrace_bytes(&duped).unwrap_err();
    assert!(matches!(
        e.format_err(),
        Some(FormatError::DuplicateRecord { index: 6 })
    ));

    // Dirty a reserved record tail.
    let mut dirty = bytes;
    dirty[HEADER_LEN + 2 * RECORD_BYTES + 31] = 1;
    let e = from_swtrace_bytes(&dirty).unwrap_err();
    assert!(matches!(e.format_err(), Some(FormatError::ReservedNonZero)));
}

#[test]
fn streaming_writer_matches_bulk_writer() {
    // TraceWriter over a cursor (the capture/synth path) and
    // to_swtrace_bytes (the in-memory path) must emit identical bytes.
    let records = make_records(500);
    let meta = TraceMeta::new(3, 77, "stream-vs-bulk");
    let bulk = to_swtrace_bytes(&records, meta).unwrap();

    let mut w = TraceWriter::new(std::io::Cursor::new(Vec::new()), meta).unwrap();
    for &r in &records {
        w.push(r).unwrap();
    }
    let (cursor, final_meta) = w.finish().unwrap();
    assert_eq!(cursor.into_inner(), bulk);
    assert_eq!(final_meta.record_count, 500);
}
