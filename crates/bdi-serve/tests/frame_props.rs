//! Property tests for the binary frame codec and the WAL's torn-tail
//! recovery:
//!
//! * any generated record — every `Value` variant, every `Unit`,
//!   non-ASCII text, nested lists — survives the record-body round
//!   trip byte-exactly;
//! * a full `ingest_batch` wire frame round-trips through
//!   `frame_len`/`open_frame`/`read_records`;
//! * flipping **any single byte** of a framed message makes
//!   `open_frame` reject it (the CRC covers everything the header
//!   checks don't);
//! * no strict prefix of a frame ever opens (truncation is detected,
//!   never misread);
//! * `decode_request` inverts `encode_request` for every command with
//!   a binary mapping, with and without the trace extension, and
//!   rejects trailing payload bytes and opcodes that are not requests;
//! * corrupting a synced WAL at any byte past the segment header
//!   recovers a clean *prefix* of the appended records and leaves the
//!   log appendable — the `kill -9` contract, generalized.

use bdi_serve::frame::{
    decode_request, encode_frame_into, encode_ingest_batch, encode_request_traced, frame_len,
    open_frame, open_frame_traced, put_records, read_records, Reader, HEADER_LEN, OP_ACK, OP_FLUSH,
    OP_INGEST_BATCH,
};
use bdi_serve::wal::{replay_from, Wal};
use bdi_serve::{Engine, Request, Snapshot};
use bdi_types::{OrderedF64, Record, RecordId, SourceId, Unit, Value};
use proptest::prelude::*;

const UNITS: [Unit; 19] = [
    Unit::Millimeter,
    Unit::Centimeter,
    Unit::Meter,
    Unit::Inch,
    Unit::Gram,
    Unit::Kilogram,
    Unit::Ounce,
    Unit::Pound,
    Unit::Megabyte,
    Unit::Gigabyte,
    Unit::Terabyte,
    Unit::Hertz,
    Unit::Kilohertz,
    Unit::Megahertz,
    Unit::Gigahertz,
    Unit::Watt,
    Unit::Usd,
    Unit::Eur,
    Unit::Count,
];

/// Raw material for one attribute value: `(kind, magnitude, tag, text)`
/// decoded by [`value_from`]. Kept as plain tuples because the vendored
/// proptest shim composes ranges/tuples/vecs, not mapped strategies.
type ValueSeed = (u64, f64, u64, String);

fn value_seed() -> impl Strategy<Value = ValueSeed> {
    (0u64..6, -1.0e15f64..1.0e15, 0u64..64, ".{0,12}")
}

fn value_from(seed: &ValueSeed, depth: usize) -> Value {
    let (kind, magnitude, tag, text) = seed;
    match kind % if depth == 0 { 6 } else { 5 } {
        0 => Value::Null,
        1 => Value::Str(text.clone()),
        2 => Value::Num(OrderedF64::unwrap_new(*magnitude)),
        3 => Value::Bool(*tag % 2 == 0),
        4 => Value::Quantity {
            magnitude: OrderedF64::unwrap_new(*magnitude),
            unit: UNITS[(*tag as usize) % UNITS.len()],
        },
        // lists recurse one level, re-seeding the kind so sub-values
        // span the scalar variants
        _ => Value::List(
            (0..*tag % 4)
                .map(|i| value_from(&(kind + i + 1, *magnitude, tag + i, text.clone()), 1))
                .collect(),
        ),
    }
}

/// Raw material for one record, nested in pairs because the vendored
/// proptest shim only composes tuples up to arity 4.
type RecordSeed = (
    (u32, u32, String),                      // source, seq, title
    (Vec<String>, Vec<(String, ValueSeed)>), // identifiers, attributes
    u32,                                     // timestamp
);

fn record_seed() -> impl Strategy<Value = RecordSeed> {
    (
        (0u32..1000, 0u32..100_000, ".{0,20}"),
        (
            proptest::collection::vec("[A-Z0-9-]{1,14}", 0..4),
            proptest::collection::vec(("[a-z_]{1,10}", value_seed()), 0..6),
        ),
        0u32..5000,
    )
}

fn record_from(seed: &RecordSeed) -> Record {
    let ((source, seq, title), (identifiers, attrs), timestamp) = seed;
    let mut record = Record::new(RecordId::new(SourceId(*source), *seq), title.clone());
    for ident in identifiers {
        record = record.with_identifier(ident.clone());
    }
    for (name, value) in attrs {
        record = record.with_attr(name.clone(), value_from(value, 0));
    }
    record.timestamp = *timestamp;
    record
}

fn batch_from(seeds: &[RecordSeed]) -> Vec<Record> {
    seeds.iter().map(record_from).collect()
}

/// Encode `request` (with `trace` as the frame extension), open the
/// frame, decode it back: the same request and the same trace context
/// must come out. `Request` carries an engine snapshot and so has no
/// `PartialEq`; its JSON form is a faithful stand-in.
fn assert_request_roundtrips(request: &Request, trace: Option<(u64, u64)>) {
    let mut buf = Vec::new();
    assert!(
        encode_request_traced(&mut buf, request, trace),
        "{} has a binary mapping",
        request.kind()
    );
    let (opcode, wire_trace, payload) = open_frame_traced(&buf).expect("own frame opens");
    assert_eq!(wire_trace, trace, "trace extension survives");
    let back = decode_request(opcode, payload).expect("own encoding decodes");
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        serde_json::to_string(request).unwrap(),
        "{} changed across the binary round trip",
        request.kind()
    );
}

proptest! {
    #[test]
    fn request_frames_roundtrip(
        seeds in proptest::collection::vec(record_seed(), 0..5),
        from in 0u64..1_000_000,
        trace in (1u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let records = batch_from(&seeds);
        // a restore ships a real engine snapshot plus a tail
        let mut engine = Engine::new(0.9);
        for record in &records {
            engine.ingest(record.clone());
        }
        engine.refresh();
        let requests = [
            Request::IngestBatch { records: records.clone() },
            Request::Flush,
            Request::Sync { from },
            Request::Restore {
                snapshot: Some(Snapshot::capture(&engine, from)),
                tail: records.clone(),
                position: from,
            },
            Request::Restore { snapshot: None, tail: records, position: from },
        ];
        for request in &requests {
            assert_request_roundtrips(request, None);
            assert_request_roundtrips(request, Some(trace));
        }
    }

    #[test]
    fn trailing_request_bytes_are_rejected(
        seeds in proptest::collection::vec(record_seed(), 0..3),
        extra in 0u64..256,
    ) {
        let records = batch_from(&seeds);
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, OP_INGEST_BATCH, |b| {
            put_records(b, &records);
            b.push(extra as u8);
        });
        let (opcode, payload) = open_frame(&buf).expect("well-formed frame");
        prop_assert!(decode_request(opcode, payload).is_err(), "trailing byte accepted");
        encode_frame_into(&mut buf, OP_FLUSH, |b| b.push(extra as u8));
        let (opcode, payload) = open_frame(&buf).expect("well-formed frame");
        prop_assert!(decode_request(opcode, payload).is_err(), "flush carries no payload");
    }

    #[test]
    fn record_body_roundtrips(seed in record_seed()) {
        let record = record_from(&seed);
        let body = bdi_serve::frame::encode_record_body(&record);
        let back = bdi_serve::frame::decode_record_body(&body)
            .expect("own encoding decodes");
        prop_assert_eq!(record, back);
    }

    #[test]
    fn ingest_batch_frame_roundtrips(seeds in proptest::collection::vec(record_seed(), 0..5)) {
        let records = batch_from(&seeds);
        let mut buf = Vec::new();
        encode_ingest_batch(&mut buf, &records);
        prop_assert_eq!(
            frame_len(&buf).expect("well-formed header"),
            Some(buf.len()),
            "framed length matches the encoding"
        );
        let (opcode, payload) = open_frame(&buf).expect("own frame opens");
        prop_assert_eq!(opcode, OP_INGEST_BATCH);
        let mut r = Reader::new(payload);
        let back = read_records(&mut r).expect("payload decodes");
        prop_assert_eq!(r.remaining(), 0, "payload fully consumed");
        prop_assert_eq!(records, back);
    }

    #[test]
    fn any_single_byte_flip_is_rejected(
        seeds in proptest::collection::vec(record_seed(), 0..3),
        at in 0usize..1_000_000,
        mask in 1u64..256,
    ) {
        let records = batch_from(&seeds);
        let mut buf = Vec::new();
        encode_ingest_batch(&mut buf, &records);
        let at = at % buf.len();
        buf[at] ^= mask as u8;
        prop_assert!(
            open_frame(&buf).is_err(),
            "flipped byte {} of {} went undetected",
            at,
            buf.len()
        );
    }

    #[test]
    fn no_strict_prefix_opens(
        seeds in proptest::collection::vec(record_seed(), 0..3),
        cut in 0usize..1_000_000,
    ) {
        let records = batch_from(&seeds);
        let mut buf = Vec::new();
        encode_ingest_batch(&mut buf, &records);
        let cut = cut % buf.len(); // strictly shorter than the frame
        prop_assert!(
            open_frame(&buf[..cut]).is_err(),
            "a {}-byte prefix of a {}-byte frame opened",
            cut,
            buf.len()
        );
    }

    #[test]
    fn wal_corruption_recovers_a_clean_prefix(
        seeds in proptest::collection::vec(record_seed(), 1..12),
        seg_pick in 0usize..1_000_000,
        at in 0usize..1_000_000,
        mask in 1u64..256,
    ) {
        let records = batch_from(&seeds);
        let dir = std::env::temp_dir().join(format!(
            "bdi-frame-props-{}-{}",
            std::process::id(),
            seg_pick ^ at ^ (mask as usize) ^ records.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // tiny capacity so multi-segment logs appear in small cases
        let mut wal = Wal::open_with_capacity(&dir, 512).unwrap().wal;
        wal.append_batch(&records).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // flip one byte past the 16-byte header of one segment file
        let mut segs: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                p.file_name()?.to_str()?.starts_with("wal-").then_some(p)
            })
            .collect();
        segs.sort();
        let seg = &segs[seg_pick % segs.len()];
        let mut bytes = std::fs::read(seg).unwrap();
        if bytes.len() > 16 {
            let at = 16 + at % (bytes.len() - 16);
            bytes[at] ^= mask as u8;
            std::fs::write(seg, &bytes).unwrap();
        }

        // recovery: a clean prefix, never an error, never reordering
        let opened = Wal::open_with_capacity(&dir, 512).unwrap();
        let recovered: Vec<Record> =
            opened.entries.iter().map(|(_, r)| r.clone()).collect();
        prop_assert!(
            recovered.len() <= records.len(),
            "recovered more records than were written"
        );
        prop_assert_eq!(
            &records[..recovered.len()],
            &recovered[..],
            "recovered tail is not a prefix of what was appended"
        );

        // and the log stays appendable from wherever recovery landed
        let mut wal = opened.wal;
        let extra = record_from(&((9999, 0, "post-crash".into()), (vec![], vec![]), 1));
        let pos = wal.append_batch(std::slice::from_ref(&extra)).unwrap();
        wal.sync().unwrap();
        let replayed = replay_from(&dir, pos).unwrap();
        prop_assert_eq!(replayed.len(), 1, "post-recovery append replays");
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Only the four request opcodes decode as requests: a reply opcode or
/// an unassigned one is an error, never a misread command.
#[test]
fn non_request_opcodes_are_rejected() {
    assert!(decode_request(OP_ACK, &7u64.to_le_bytes()).is_err());
    assert!(decode_request(0x7F, &[]).is_err());
}

/// `HEADER_LEN` is load-bearing for the corruption properties: bytes
/// before it are header (magic/version/opcode/len), everything after is
/// CRC-covered payload + trailer. Pin it so a layout change forces a
/// look at the properties above.
#[test]
fn header_layout_is_pinned() {
    assert_eq!(HEADER_LEN, 8);
    let mut buf = Vec::new();
    encode_ingest_batch(&mut buf, &[]);
    assert_eq!(buf[0], bdi_serve::frame::FRAME_MAGIC);
    assert_eq!(buf[1], bdi_serve::frame::FRAME_VERSION);
    assert_eq!(buf[2], OP_INGEST_BATCH);
    assert_eq!(buf[3], 0, "reserved byte");
}
