//! The versioned, length-framed binary record format.
//!
//! One codec backs all three byte paths that used to round-trip through
//! JSON text: the WAL (`wal.rs` appends length+CRC-framed record bodies
//! into mmap'd segments), snapshots (`snapshot.rs` serializes
//! [`Snapshot`] without building a `serde::Value` tree), and the wire
//! (`hello` negotiates the `binary-frames` feature; batches then ship as
//! one contiguous frame instead of a JSON line per batch).
//!
//! ## Wire frame layout
//!
//! ```text
//! offset  size  field
//! 0       1     magic (0xB5 — non-ASCII, so it can never open a JSON
//!               line or an HTTP method; the per-message autodetect in
//!               the front ends keys off this byte)
//! 1       1     format version (0x01)
//! 2       1     opcode
//! 3       1     flags (0x00 unless an extension is present)
//! 4       4     payload length, u32 LE
//! 8       len   payload
//! 8+len   4     CRC-32 (IEEE), u32 LE, over bytes [1, 8+len)
//! ```
//!
//! The CRC covers everything after the magic byte — version, opcode,
//! flags, length, and payload — so a flipped bit anywhere in the
//! frame is caught, while the magic byte stays a pure dispatch tag.
//!
//! Byte 3 was reserved-zero through format version 0x01's debut and is
//! now a **flags** byte. The one defined flag, [`FLAG_TRACE`], prefixes
//! the payload with a 16-byte trace-context extension (`u64` trace id +
//! `u64` parent span id, both LE); the length field counts the
//! extension, so framing math is unchanged and an unflagged frame is
//! byte-identical to the pre-flag format. Senders only set flags to
//! peers that advertised the matching `hello` feature (`trace-context`
//! for [`FLAG_TRACE`]) — an old receiver would misread the extension as
//! payload — and receivers reject unknown flag bits
//! ([`open_frame_traced`]).
//!
//! ## Body encoding
//!
//! All integers are little-endian. Strings are `u32` length + UTF-8
//! bytes. Floats are IEEE-754 bit patterns (`f64::to_bits`), which is
//! lossless and bit-stable — [`OrderedF64`] already excludes NaN.
//! Decoding validates every length against the remaining buffer and
//! never panics on corrupt input. String decoding yields borrowed
//! `&str` views into the receive buffer ([`Reader::read_str`]); an
//! owned [`Record`] is built with exactly one allocation per string
//! field and no intermediate value tree.
//!
//! The WAL uses a leaner per-record frame (`u32` length + `u32` CRC +
//! body, see `wal.rs`) built from the same body codec and
//! [`crc32`] — the full wire header would be dead weight inside a
//! segment file that already knows its own format.

use crate::engine::EngineState;
use crate::protocol::{Request, Response};
use crate::snapshot::Snapshot;
use bdi_core::catalog::{Catalog, CatalogEntry};
use bdi_types::{Record, RecordId, SourceId, Unit, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read};

/// First byte of every binary frame.
pub const FRAME_MAGIC: u8 = 0xB5;
/// Format generation; bumped on any incompatible layout change.
pub const FRAME_VERSION: u8 = 0x01;
/// Fixed header size (magic + version + opcode + reserved + length).
pub const HEADER_LEN: usize = 8;
/// Trailing CRC size.
pub const TRAILER_LEN: usize = 4;
/// Upper bound on a single frame's payload — a defense against a
/// corrupt or hostile length field committing us to a huge allocation.
/// Only the state-shipping opcodes ([`OP_RESTORE`], [`OP_SYNC_STATE`])
/// get this generous bound — they carry a full snapshot; everything
/// else is capped far lower by [`payload_cap`].
pub const MAX_PAYLOAD: usize = 1 << 30;
/// Payload cap for [`OP_INGEST_BATCH`] — mirrors the front ends' JSON
/// line cap, so a batch that fits as a JSON line fits as a frame.
pub const MAX_BATCH_PAYLOAD: usize = 256 << 20;
/// Payload cap for every other opcode (control frames and errors carry
/// at most a few integers or a message string).
pub const MAX_CONTROL_PAYLOAD: usize = 1 << 20;

/// Submit a batch of records (payload: `u32` count + record bodies).
pub const OP_INGEST_BATCH: u8 = 0x01;
/// Durability + visibility barrier (empty payload).
pub const OP_FLUSH: u8 = 0x02;
/// Ship state from an absolute position (payload: `u64 from`).
pub const OP_SYNC: u8 = 0x03;
/// Install shipped state (payload: position + optional snapshot + tail
/// records — see [`put_state_body`]).
pub const OP_RESTORE: u8 = 0x04;
/// Batch accepted (payload: `u64 submitted`).
pub const OP_ACK: u8 = 0x05;
/// Flush completed (payload: `u64 generation`, `u64 applied`).
pub const OP_FLUSHED: u8 = 0x06;
/// Shipped state reply (payload mirrors [`OP_RESTORE`]'s body).
pub const OP_SYNC_STATE: u8 = 0x07;
/// Restore installed (payload: `u64 generation`, `u64 records`).
pub const OP_RESTORED: u8 = 0x08;
/// Request failed (payload: message string).
pub const OP_ERROR: u8 = 0x09;

/// Header flag (byte 3, bit 0): the payload starts with a 16-byte
/// trace-context extension — `u64` trace id + `u64` parent span id.
/// Only sent to peers that negotiated the `trace-context` feature.
pub const FLAG_TRACE: u8 = 0x01;
/// Size of the [`FLAG_TRACE`] payload prefix.
pub const TRACE_EXT_LEN: usize = 16;

/// Every opcode with its wire name, in opcode order. The docs-drift
/// check cross-references this table against the "binary frames"
/// section of PROTOCOL.md, and the names deliberately match the JSON
/// commands they mirror.
pub const OPCODES: &[(u8, &str)] = &[
    (OP_INGEST_BATCH, "ingest_batch"),
    (OP_FLUSH, "flush"),
    (OP_SYNC, "sync"),
    (OP_RESTORE, "restore"),
    (OP_ACK, "ack"),
    (OP_FLUSHED, "flushed"),
    (OP_SYNC_STATE, "sync_state"),
    (OP_RESTORED, "restored"),
    (OP_ERROR, "error"),
];

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The largest payload a receiver will accept for `opcode`. Applied at
/// the framing layer ([`frame_len`]), before any allocation or
/// buffering, so a corrupt or hostile 8-byte header can only commit a
/// receiver to the allocation its opcode plausibly needs — unknown
/// opcodes get the small cap.
pub fn payload_cap(opcode: u8) -> usize {
    match opcode {
        OP_RESTORE | OP_SYNC_STATE => MAX_PAYLOAD,
        OP_INGEST_BATCH => MAX_BATCH_PAYLOAD,
        _ => MAX_CONTROL_PAYLOAD,
    }
}

/// A `usize` length as the `u32` the wire encoding carries. Lengths
/// beyond `u32::MAX` cannot be represented; panicking here turns what
/// would otherwise be a silently mis-framed (yet validly-CRC'd)
/// encoding into a loud failure at the encode site.
fn len_u32(n: usize) -> u32 {
    u32::try_from(n).expect("length exceeds u32::MAX and cannot be frame-encoded")
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, built at compile time.
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Primitive writers. All append to a caller-owned Vec so encode
// buffers can be reused across batches.
// ---------------------------------------------------------------------

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a `u32`, little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, len_u32(s.len()));
    buf.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// Bounds-checked reader over a borrowed buffer.
// ---------------------------------------------------------------------

/// Cursor over a received byte buffer. Every read validates length
/// against the remaining bytes; strings come back as borrowed views.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(bad(format!(
                "truncated frame body: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn read_u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `f64` bit pattern.
    pub fn read_f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Read a `u64` that must fit a `usize` (collection sizes).
    pub fn read_len(&mut self) -> io::Result<usize> {
        let v = self.read_u64()?;
        usize::try_from(v).map_err(|_| bad(format!("length {v} overflows usize")))
    }

    /// Read a length-prefixed string as a borrowed view into the
    /// receive buffer — the zero-copy half of batch decoding.
    pub fn read_str(&mut self) -> io::Result<&'a str> {
        let len = self.read_u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|e| bad(format!("invalid UTF-8 in string: {e}")))
    }
}

// ---------------------------------------------------------------------
// Value / Unit / Record bodies.
// ---------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_STR: u8 = 1;
const TAG_NUM: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_QUANTITY: u8 = 4;
const TAG_LIST: u8 = 5;

/// Stable `u8` tag for a [`Unit`]. Explicit in both directions so the
/// on-disk format cannot drift if the enum is ever reordered.
pub fn unit_tag(unit: Unit) -> u8 {
    match unit {
        Unit::Millimeter => 0,
        Unit::Centimeter => 1,
        Unit::Meter => 2,
        Unit::Inch => 3,
        Unit::Gram => 4,
        Unit::Kilogram => 5,
        Unit::Ounce => 6,
        Unit::Pound => 7,
        Unit::Megabyte => 8,
        Unit::Gigabyte => 9,
        Unit::Terabyte => 10,
        Unit::Hertz => 11,
        Unit::Kilohertz => 12,
        Unit::Megahertz => 13,
        Unit::Gigahertz => 14,
        Unit::Watt => 15,
        Unit::Usd => 16,
        Unit::Eur => 17,
        Unit::Count => 18,
    }
}

fn unit_from_tag(tag: u8) -> io::Result<Unit> {
    Ok(match tag {
        0 => Unit::Millimeter,
        1 => Unit::Centimeter,
        2 => Unit::Meter,
        3 => Unit::Inch,
        4 => Unit::Gram,
        5 => Unit::Kilogram,
        6 => Unit::Ounce,
        7 => Unit::Pound,
        8 => Unit::Megabyte,
        9 => Unit::Gigabyte,
        10 => Unit::Terabyte,
        11 => Unit::Hertz,
        12 => Unit::Kilohertz,
        13 => Unit::Megahertz,
        14 => Unit::Gigahertz,
        15 => Unit::Watt,
        16 => Unit::Usd,
        17 => Unit::Eur,
        18 => Unit::Count,
        other => return Err(bad(format!("unknown unit tag {other}"))),
    })
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(buf, TAG_NULL),
        Value::Str(s) => {
            put_u8(buf, TAG_STR);
            put_str(buf, s);
        }
        Value::Num(n) => {
            put_u8(buf, TAG_NUM);
            put_f64(buf, n.get());
        }
        Value::Bool(b) => {
            put_u8(buf, TAG_BOOL);
            put_u8(buf, *b as u8);
        }
        Value::Quantity { magnitude, unit } => {
            put_u8(buf, TAG_QUANTITY);
            put_f64(buf, magnitude.get());
            put_u8(buf, unit_tag(*unit));
        }
        Value::List(items) => {
            put_u8(buf, TAG_LIST);
            put_u32(buf, len_u32(items.len()));
            for item in items {
                put_value(buf, item);
            }
        }
    }
}

fn read_value(r: &mut Reader<'_>) -> io::Result<Value> {
    Ok(match r.read_u8()? {
        TAG_NULL => Value::Null,
        TAG_STR => Value::Str(r.read_str()?.to_owned()),
        TAG_NUM => Value::num_checked(r.read_f64()?)?,
        TAG_BOOL => Value::Bool(r.read_u8()? != 0),
        TAG_QUANTITY => {
            let magnitude = r.read_f64()?;
            let unit = unit_from_tag(r.read_u8()?)?;
            match bdi_types::OrderedF64::new(magnitude) {
                Some(m) => Value::Quantity { magnitude: m, unit },
                None => return Err(bad("NaN quantity magnitude")),
            }
        }
        TAG_LIST => {
            let n = r.read_u32()? as usize;
            // Cap the pre-allocation by what the buffer could possibly
            // hold (1 byte per element minimum).
            let mut items = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                items.push(read_value(r)?);
            }
            Value::List(items)
        }
        other => return Err(bad(format!("unknown value tag {other}"))),
    })
}

trait NumChecked {
    fn num_checked(v: f64) -> io::Result<Value>;
}

impl NumChecked for Value {
    fn num_checked(v: f64) -> io::Result<Value> {
        match bdi_types::OrderedF64::new(v) {
            Some(n) => Ok(Value::Num(n)),
            None => Err(bad("NaN numeric value")),
        }
    }
}

/// Append one record body: id, timestamp, title, identifiers,
/// attributes — a flat walk of the struct, no intermediate tree.
pub fn put_record(buf: &mut Vec<u8>, record: &Record) {
    put_u32(buf, record.id.source.0);
    put_u32(buf, record.id.seq);
    put_u32(buf, record.timestamp);
    put_str(buf, &record.title);
    put_u32(buf, len_u32(record.identifiers.len()));
    for ident in &record.identifiers {
        put_str(buf, ident);
    }
    put_u32(buf, len_u32(record.attributes.len()));
    for (name, value) in &record.attributes {
        put_str(buf, name);
        put_value(buf, value);
    }
}

/// Decode one record body at the reader's cursor. String fields are
/// first borrowed from the buffer ([`Reader::read_str`]) and then
/// promoted to owned storage — one allocation per string, zero
/// intermediate `Value`-tree nodes.
pub fn read_record(r: &mut Reader<'_>) -> io::Result<Record> {
    let source = r.read_u32()?;
    let seq = r.read_u32()?;
    let timestamp = r.read_u32()?;
    let title = r.read_str()?.to_owned();
    let ident_count = r.read_u32()? as usize;
    let mut identifiers = Vec::with_capacity(ident_count.min(r.remaining()));
    for _ in 0..ident_count {
        identifiers.push(r.read_str()?.to_owned());
    }
    let attr_count = r.read_u32()? as usize;
    let mut attributes = BTreeMap::new();
    for _ in 0..attr_count {
        let name = r.read_str()?.to_owned();
        let value = read_value(r)?;
        attributes.insert(name, value);
    }
    Ok(Record {
        id: RecordId::new(SourceId(source), seq),
        title,
        identifiers,
        attributes,
        timestamp,
    })
}

/// Encode a single record body into a fresh buffer.
pub fn encode_record_body(record: &Record) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    put_record(&mut buf, record);
    buf
}

/// Decode a single record body (must consume the whole buffer).
pub fn decode_record_body(body: &[u8]) -> io::Result<Record> {
    let mut r = Reader::new(body);
    let record = read_record(&mut r)?;
    if r.remaining() != 0 {
        return Err(bad(format!(
            "{} trailing bytes after record body",
            r.remaining()
        )));
    }
    Ok(record)
}

/// Append a record batch: `u32` count + bodies.
pub fn put_records(buf: &mut Vec<u8>, records: &[Record]) {
    put_u32(buf, len_u32(records.len()));
    for record in records {
        put_record(buf, record);
    }
}

/// Decode a record batch at the cursor.
pub fn read_records(r: &mut Reader<'_>) -> io::Result<Vec<Record>> {
    let n = r.read_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining().max(1)));
    for _ in 0..n {
        out.push(read_record(r)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Engine state + snapshot bodies.
// ---------------------------------------------------------------------

fn put_usize_seq(buf: &mut Vec<u8>, seq: impl ExactSizeIterator<Item = usize>) {
    put_u64(buf, seq.len() as u64);
    for v in seq {
        put_u64(buf, v as u64);
    }
}

fn read_usize_vec(r: &mut Reader<'_>) -> io::Result<Vec<usize>> {
    let n = r.read_len()?;
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(r.read_len()?);
    }
    Ok(out)
}

fn put_catalog_entry(buf: &mut Vec<u8>, entry: &CatalogEntry) {
    put_u64(buf, entry.id as u64);
    put_str(buf, &entry.title);
    put_u32(buf, len_u32(entry.pages.len()));
    for page in &entry.pages {
        put_u32(buf, page.source.0);
        put_u32(buf, page.seq);
    }
    put_u32(buf, len_u32(entry.attributes.len()));
    for (name, value) in &entry.attributes {
        put_str(buf, name);
        put_value(buf, value);
    }
    put_u32(buf, len_u32(entry.identifiers.len()));
    for ident in &entry.identifiers {
        put_str(buf, ident);
    }
}

fn read_catalog_entry(r: &mut Reader<'_>) -> io::Result<CatalogEntry> {
    let id = r.read_len()?;
    let title = r.read_str()?.to_owned();
    let page_count = r.read_u32()? as usize;
    let mut pages = Vec::with_capacity(page_count.min(r.remaining()));
    for _ in 0..page_count {
        let source = r.read_u32()?;
        let seq = r.read_u32()?;
        pages.push(RecordId::new(SourceId(source), seq));
    }
    let attr_count = r.read_u32()? as usize;
    let mut attributes = BTreeMap::new();
    for _ in 0..attr_count {
        let name = r.read_str()?.to_owned();
        attributes.insert(name, read_value(r)?);
    }
    let ident_count = r.read_u32()? as usize;
    let mut identifiers = Vec::with_capacity(ident_count.min(r.remaining()));
    for _ in 0..ident_count {
        identifiers.push(r.read_str()?.to_owned());
    }
    Ok(CatalogEntry {
        id,
        title,
        pages,
        attributes,
        identifiers,
    })
}

/// Append a full [`EngineState`] body.
pub fn put_engine_state(buf: &mut Vec<u8>, state: &EngineState) {
    put_f64(buf, state.threshold);
    put_u64(buf, state.records.len() as u64);
    for record in &state.records {
        put_record(buf, record);
    }
    put_usize_seq(buf, state.parents.iter().copied());
    put_u64(buf, state.ranks.len() as u64);
    buf.extend_from_slice(&state.ranks);
    put_u64(buf, state.comparisons);
    put_u64(buf, state.members.len() as u64);
    for (root, members) in &state.members {
        put_u64(buf, *root as u64);
        put_usize_seq(buf, members.iter().copied());
    }
    put_usize_seq(buf, state.dirty.iter().copied());
    put_usize_seq(buf, state.dead.iter().copied());
    let entries = state.catalog.entries();
    put_u64(buf, entries.len() as u64);
    for entry in entries {
        put_catalog_entry(buf, entry);
    }
}

/// Decode a full [`EngineState`] body at the cursor.
pub fn read_engine_state(r: &mut Reader<'_>) -> io::Result<EngineState> {
    let threshold = r.read_f64()?;
    let record_count = r.read_len()?;
    let mut records = Vec::with_capacity(record_count.min(r.remaining()));
    for _ in 0..record_count {
        records.push(read_record(r)?);
    }
    let parents = read_usize_vec(r)?;
    let rank_count = r.read_len()?;
    let ranks = r.take(rank_count)?.to_vec();
    let comparisons = r.read_u64()?;
    let member_count = r.read_len()?;
    let mut members = BTreeMap::new();
    for _ in 0..member_count {
        let root = r.read_len()?;
        members.insert(root, read_usize_vec(r)?);
    }
    let dirty: BTreeSet<usize> = read_usize_vec(r)?.into_iter().collect();
    let dead: BTreeSet<usize> = read_usize_vec(r)?.into_iter().collect();
    let entry_count = r.read_len()?;
    let mut entries = Vec::with_capacity(entry_count.min(r.remaining()));
    for _ in 0..entry_count {
        entries.push(read_catalog_entry(r)?);
    }
    Ok(EngineState {
        threshold,
        records,
        parents,
        ranks,
        comparisons,
        members,
        dirty,
        dead,
        catalog: Catalog::from_entries(entries),
    })
}

/// Append a [`Snapshot`] body (seq + covered records + engine state).
pub fn put_snapshot(buf: &mut Vec<u8>, snapshot: &Snapshot) {
    put_u64(buf, snapshot.seq);
    put_u64(buf, snapshot.records);
    put_engine_state(buf, &snapshot.engine);
}

/// Decode a [`Snapshot`] body at the cursor.
pub fn read_snapshot(r: &mut Reader<'_>) -> io::Result<Snapshot> {
    let seq = r.read_u64()?;
    let records = r.read_u64()?;
    let engine = read_engine_state(r)?;
    Ok(Snapshot {
        seq,
        records,
        engine,
    })
}

/// Append an optional snapshot (presence byte + body).
pub fn put_opt_snapshot(buf: &mut Vec<u8>, snapshot: Option<&Snapshot>) {
    match snapshot {
        None => put_u8(buf, 0),
        Some(s) => {
            put_u8(buf, 1);
            put_snapshot(buf, s);
        }
    }
}

/// Decode an optional snapshot at the cursor.
pub fn read_opt_snapshot(r: &mut Reader<'_>) -> io::Result<Option<Snapshot>> {
    match r.read_u8()? {
        0 => Ok(None),
        1 => Ok(Some(read_snapshot(r)?)),
        other => Err(bad(format!("bad option byte {other}"))),
    }
}

// ---------------------------------------------------------------------
// Wire frames.
// ---------------------------------------------------------------------

/// Start a frame: append the 8-byte header with a length placeholder
/// and return the payload's start offset for [`end_frame`]. With a
/// `(trace id, parent span id)` context the header's flags byte gains
/// [`FLAG_TRACE`] and the 16-byte extension opens the payload.
pub fn begin_frame_traced(buf: &mut Vec<u8>, opcode: u8, trace: Option<(u64, u64)>) -> usize {
    let flags = if trace.is_some() { FLAG_TRACE } else { 0 };
    buf.extend_from_slice(&[FRAME_MAGIC, FRAME_VERSION, opcode, flags, 0, 0, 0, 0]);
    let start = buf.len();
    if let Some((trace_id, parent)) = trace {
        put_u64(buf, trace_id);
        put_u64(buf, parent);
    }
    start
}

/// Finish a frame started at `payload_start`: back-patch the payload
/// length and append the CRC over bytes `[1, payload end)`.
pub fn end_frame(buf: &mut Vec<u8>, payload_start: usize) {
    let frame_start = payload_start - HEADER_LEN;
    let payload_len = (buf.len() - payload_start) as u32;
    buf[frame_start + 4..frame_start + 8].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&buf[frame_start + 1..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Encode a complete frame with a payload written by `body` into a
/// reusable buffer (cleared first).
pub fn encode_frame_into(buf: &mut Vec<u8>, opcode: u8, body: impl FnOnce(&mut Vec<u8>)) {
    encode_frame_traced_into(buf, opcode, None, body);
}

/// [`encode_frame_into`] with an optional trace-context extension (see
/// [`begin_frame_traced`]).
pub fn encode_frame_traced_into(
    buf: &mut Vec<u8>,
    opcode: u8,
    trace: Option<(u64, u64)>,
    body: impl FnOnce(&mut Vec<u8>),
) {
    buf.clear();
    let start = begin_frame_traced(buf, opcode, trace);
    body(buf);
    end_frame(buf, start);
}

/// Total frame size implied by a buffer that starts at a frame
/// boundary: `Ok(None)` when more bytes are needed to know, `Err` when
/// the header is not a valid frame header (wrong magic or version, or
/// a length beyond the opcode's [`payload_cap`] — the connection
/// cannot be re-synchronized). A `Some` total only promises a valid
/// header: the body may still be in flight, so receivers must buffer
/// until `total` bytes are present before slicing the frame out.
pub fn frame_len(buf: &[u8]) -> io::Result<Option<usize>> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf[0] != FRAME_MAGIC {
        return Err(bad(format!("bad frame magic 0x{:02X}", buf[0])));
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[1] != FRAME_VERSION {
        return Err(bad(format!("unsupported frame version {}", buf[1])));
    }
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    let cap = payload_cap(buf[2]);
    if len > cap {
        return Err(bad(format!(
            "frame payload {len} exceeds cap {cap} for opcode {:#04x}",
            buf[2]
        )));
    }
    Ok(Some(HEADER_LEN + len + TRAILER_LEN))
}

/// Validate a complete frame (magic, version, length, CRC) and return
/// its opcode and payload slice.
pub fn open_frame(frame: &[u8]) -> io::Result<(u8, &[u8])> {
    let total = frame_len(frame)?
        .ok_or_else(|| bad(format!("frame truncated at {} bytes", frame.len())))?;
    if frame.len() != total {
        return Err(bad(format!(
            "frame length mismatch: header says {total}, got {}",
            frame.len()
        )));
    }
    let payload_end = total - TRAILER_LEN;
    let want = u32::from_le_bytes([
        frame[payload_end],
        frame[payload_end + 1],
        frame[payload_end + 2],
        frame[payload_end + 3],
    ]);
    let got = crc32(&frame[1..payload_end]);
    if want != got {
        return Err(bad(format!(
            "frame CRC mismatch: stored {want:#010x}, computed {got:#010x}"
        )));
    }
    Ok((frame[2], &frame[HEADER_LEN..payload_end]))
}

/// What [`open_frame_traced`] yields: the opcode, the optional
/// `(trace id, parent span id)` pair, and the payload body.
pub type TracedFrame<'a> = (u8, Option<(u64, u64)>, &'a [u8]);

/// [`open_frame`] plus flags handling: validates the frame, rejects
/// unknown flag bits, and when [`FLAG_TRACE`] is set splits the 16-byte
/// trace-context extension off the payload, returning
/// `(opcode, Some((trace id, parent span id)), body)`.
pub fn open_frame_traced(frame: &[u8]) -> io::Result<TracedFrame<'_>> {
    let (opcode, payload) = open_frame(frame)?;
    let flags = frame[3];
    if flags & !FLAG_TRACE != 0 {
        return Err(bad(format!("unknown frame flags {flags:#04x}")));
    }
    if flags & FLAG_TRACE == 0 {
        return Ok((opcode, None, payload));
    }
    if payload.len() < TRACE_EXT_LEN {
        return Err(bad(format!(
            "trace-flagged frame payload ({} bytes) shorter than the {TRACE_EXT_LEN}-byte extension",
            payload.len()
        )));
    }
    let mut r = Reader::new(&payload[..TRACE_EXT_LEN]);
    let trace_id = r.read_u64()?;
    let parent = r.read_u64()?;
    Ok((opcode, Some((trace_id, parent)), &payload[TRACE_EXT_LEN..]))
}

/// Read exactly one frame from a byte stream into `scratch` (header,
/// payload, and CRC — ready for [`open_frame`]). The buffer is reused
/// across calls; only frame-sized reads hit the underlying stream.
pub fn read_frame(stream: &mut impl Read, scratch: &mut Vec<u8>) -> io::Result<()> {
    scratch.clear();
    scratch.resize(HEADER_LEN, 0);
    stream.read_exact(scratch)?;
    let total = frame_len(scratch)?.expect("full header implies a known length");
    scratch.resize(total, 0);
    stream.read_exact(&mut scratch[HEADER_LEN..])?;
    Ok(())
}

// ---------------------------------------------------------------------
// Opcode payload helpers shared by client, router, and server.
// ---------------------------------------------------------------------

/// Encode an `ingest_batch` frame from owned records into a reusable
/// buffer.
pub fn encode_ingest_batch(buf: &mut Vec<u8>, records: &[Record]) {
    encode_frame_into(buf, OP_INGEST_BATCH, |b| put_records(b, records));
}

/// Encode an `error` frame.
pub fn encode_error(buf: &mut Vec<u8>, message: &str) {
    encode_frame_into(buf, OP_ERROR, |b| put_str(b, message));
}

/// The shared state-shipping body: `restore` requests and `sync_state`
/// replies carry the same layout — position, optional snapshot, tail
/// records.
pub fn put_state_body(
    buf: &mut Vec<u8>,
    position: u64,
    snapshot: Option<&Snapshot>,
    tail: &[Record],
) {
    put_u64(buf, position);
    put_opt_snapshot(buf, snapshot);
    put_records(buf, tail);
}

/// Decode a state-shipping body at the cursor.
pub fn read_state_body(r: &mut Reader<'_>) -> io::Result<(u64, Option<Snapshot>, Vec<Record>)> {
    let position = r.read_u64()?;
    let snapshot = read_opt_snapshot(r)?;
    let tail = read_records(r)?;
    Ok((position, snapshot, tail))
}

/// Encode the binary request frame for `request` into `buf` (cleared
/// first). Returns `false`, leaving `buf` empty, for requests with no
/// binary mapping — those stay on the JSON surface.
pub fn encode_request(buf: &mut Vec<u8>, request: &Request) -> bool {
    encode_request_traced(buf, request, None)
}

/// [`encode_request`] carrying an optional `(trace id, parent span id)`
/// context as the frame extension. Callers must only pass `Some` to a
/// peer that negotiated the `trace-context` feature.
pub fn encode_request_traced(
    buf: &mut Vec<u8>,
    request: &Request,
    trace: Option<(u64, u64)>,
) -> bool {
    match request {
        Request::IngestBatch { records } => {
            encode_frame_traced_into(buf, OP_INGEST_BATCH, trace, |b| put_records(b, records))
        }
        Request::Flush => encode_frame_traced_into(buf, OP_FLUSH, trace, |_| {}),
        Request::Sync { from } => encode_frame_traced_into(buf, OP_SYNC, trace, |b| {
            put_u64(b, *from);
        }),
        Request::Restore {
            snapshot,
            tail,
            position,
        } => encode_frame_traced_into(buf, OP_RESTORE, trace, |b| {
            put_state_body(b, *position, snapshot.as_ref(), tail)
        }),
        _ => {
            buf.clear();
            return false;
        }
    }
    true
}

/// Decode a request frame's payload into the [`Request`] it mirrors —
/// the inverse of [`encode_request`], so a binary frame dispatches as
/// the same value a JSON line or an HTTP route produces. Trailing bytes
/// after the payload are rejected, as is any opcode without a request
/// mapping.
pub fn decode_request(opcode: u8, payload: &[u8]) -> io::Result<Request> {
    let mut r = Reader::new(payload);
    let request = match opcode {
        OP_INGEST_BATCH => Request::IngestBatch {
            records: read_records(&mut r)?,
        },
        OP_FLUSH => Request::Flush,
        OP_SYNC => Request::Sync {
            from: r.read_u64()?,
        },
        OP_RESTORE => {
            let (position, snapshot, tail) = read_state_body(&mut r)?;
            Request::Restore {
                snapshot,
                tail,
                position,
            }
        }
        other => return Err(bad(format!("unexpected request opcode {other:#04x}"))),
    };
    if r.remaining() != 0 {
        return Err(bad(format!(
            "{} trailing bytes after request payload",
            r.remaining()
        )));
    }
    Ok(request)
}

/// Encode the binary reply frame for `response` into `buf` (cleared
/// first). Returns `false`, leaving `buf` empty, for responses with no
/// binary mapping — those travel only as JSON.
pub fn encode_response(buf: &mut Vec<u8>, response: &Response) -> bool {
    match response {
        Response::Ack { submitted } => encode_frame_into(buf, OP_ACK, |b| put_u64(b, *submitted)),
        Response::Flushed {
            generation,
            applied,
        } => encode_frame_into(buf, OP_FLUSHED, |b| {
            put_u64(b, *generation);
            put_u64(b, *applied);
        }),
        Response::SyncState {
            position,
            snapshot,
            tail,
        } => encode_frame_into(buf, OP_SYNC_STATE, |b| {
            put_state_body(b, *position, snapshot.as_ref(), tail)
        }),
        Response::Restored {
            generation,
            records,
        } => encode_frame_into(buf, OP_RESTORED, |b| {
            put_u64(b, *generation);
            put_u64(b, *records);
        }),
        Response::Error { message } => encode_error(buf, message),
        _ => {
            buf.clear();
            return false;
        }
    }
    true
}

/// Decode a reply frame into the [`Response`] it mirrors. Only the
/// opcodes that answer binary requests are mapped; anything else is an
/// error (the JSON surface stays the sole transport for the rest).
pub fn decode_response(opcode: u8, payload: &[u8]) -> io::Result<Response> {
    let mut r = Reader::new(payload);
    let resp = match opcode {
        OP_ACK => Response::Ack {
            submitted: r.read_u64()?,
        },
        OP_FLUSHED => Response::Flushed {
            generation: r.read_u64()?,
            applied: r.read_u64()?,
        },
        OP_SYNC_STATE => {
            let (position, snapshot, tail) = read_state_body(&mut r)?;
            Response::SyncState {
                position,
                snapshot,
                tail,
            }
        }
        OP_RESTORED => Response::Restored {
            generation: r.read_u64()?,
            records: r.read_u64()?,
        },
        OP_ERROR => Response::Error {
            message: r.read_str()?.to_owned(),
        },
        other => return Err(bad(format!("unexpected reply opcode {other:#04x}"))),
    };
    if r.remaining() != 0 {
        return Err(bad(format!(
            "{} trailing bytes after reply payload",
            r.remaining()
        )));
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> Record {
        Record::new(RecordId::new(SourceId(3), 41), "Lumetra LX-100 Pro")
            .with_identifier("CAM-LUM-00100")
            .with_identifier("0042-LX100")
            .with_attr("color", Value::str("graphite"))
            .with_attr("weight", Value::quantity(1.25, Unit::Kilogram))
            .with_attr("ports", Value::num(4.0))
            .with_attr("wifi", Value::Bool(true))
            .with_attr("notes", Value::Null)
            .with_attr(
                "dims",
                Value::List(vec![
                    Value::quantity(120.0, Unit::Millimeter),
                    Value::quantity(80.0, Unit::Millimeter),
                ]),
            )
    }

    #[test]
    fn record_body_round_trips_bit_identically() {
        let mut rec = sample_record();
        rec.timestamp = 7;
        let body = encode_record_body(&rec);
        let back = decode_record_body(&body).unwrap();
        assert_eq!(back, rec);
        assert_eq!(encode_record_body(&back), body, "re-encode is stable");
    }

    #[test]
    fn every_unit_survives_its_tag() {
        use Unit::*;
        for unit in [
            Millimeter, Centimeter, Meter, Inch, Gram, Kilogram, Ounce, Pound, Megabyte, Gigabyte,
            Terabyte, Hertz, Kilohertz, Megahertz, Gigahertz, Watt, Usd, Eur, Count,
        ] {
            assert_eq!(unit_from_tag(unit_tag(unit)).unwrap(), unit);
        }
        assert!(unit_from_tag(19).is_err(), "unknown tags are rejected");
    }

    #[test]
    fn frame_round_trips_and_crc_catches_corruption() {
        let records = vec![
            sample_record(),
            Record::new(RecordId::new(SourceId(9), 0), "x"),
        ];
        let mut buf = Vec::new();
        encode_ingest_batch(&mut buf, &records);

        assert_eq!(frame_len(&buf).unwrap(), Some(buf.len()));
        let (op, payload) = open_frame(&buf).unwrap();
        assert_eq!(op, OP_INGEST_BATCH);
        let mut r = Reader::new(payload);
        let back = read_records(&mut r).unwrap();
        assert_eq!(back, records);
        assert_eq!(r.remaining(), 0);

        // flip one payload bit: the CRC must catch it
        let mut corrupt = buf.clone();
        let mid = HEADER_LEN + 3;
        corrupt[mid] ^= 0x40;
        assert!(open_frame(&corrupt).is_err());

        // a truncated frame is detected as incomplete, not mis-parsed
        assert!(open_frame(&buf[..buf.len() - 1]).is_err());
        assert_eq!(frame_len(&buf[..4]).unwrap(), None, "need more bytes");
        assert!(frame_len(&[0x7B]).is_err(), "JSON byte is not a frame");
    }

    #[test]
    fn payload_caps_are_per_opcode() {
        // a valid header whose declared length exceeds the opcode's cap
        let header = |opcode: u8, len: u32| {
            let mut h = vec![FRAME_MAGIC, FRAME_VERSION, opcode, 0];
            h.extend_from_slice(&len.to_le_bytes());
            h
        };
        // control frames never carry megabytes: reject before buffering
        let oversized_flush = header(OP_FLUSH, (MAX_CONTROL_PAYLOAD + 1) as u32);
        assert!(frame_len(&oversized_flush).is_err());
        // unknown opcodes get the small cap too — a hostile header
        // cannot pick an unassigned opcode to dodge the bound
        let oversized_unknown = header(0x7F, (MAX_CONTROL_PAYLOAD + 1) as u32);
        assert!(frame_len(&oversized_unknown).is_err());
        // the same length is fine on a state-shipping opcode
        let restore = header(OP_RESTORE, (MAX_CONTROL_PAYLOAD + 1) as u32);
        assert_eq!(
            frame_len(&restore).unwrap(),
            Some(HEADER_LEN + MAX_CONTROL_PAYLOAD + 1 + TRAILER_LEN)
        );
        // and batches get the batch cap, not the control cap
        let batch = header(OP_INGEST_BATCH, (MAX_BATCH_PAYLOAD) as u32);
        assert!(frame_len(&batch).unwrap().is_some());
        let oversized_batch = header(OP_INGEST_BATCH, (MAX_BATCH_PAYLOAD + 1) as u32);
        assert!(frame_len(&oversized_batch).is_err());
    }

    #[test]
    fn trace_extension_round_trips_and_unflagged_is_byte_identical() {
        let records = vec![sample_record()];
        // unflagged traced encode == the plain encode, byte for byte
        let mut plain = Vec::new();
        assert!(encode_request(
            &mut plain,
            &Request::IngestBatch {
                records: records.clone()
            }
        ));
        let mut untraced = Vec::new();
        assert!(encode_request_traced(
            &mut untraced,
            &Request::IngestBatch {
                records: records.clone()
            },
            None
        ));
        assert_eq!(plain, untraced);
        let (op, trace, body) = open_frame_traced(&plain).unwrap();
        assert_eq!((op, trace), (OP_INGEST_BATCH, None));
        assert_eq!(body, &plain[HEADER_LEN..plain.len() - TRAILER_LEN]);

        // flagged frame: 16 bytes longer, extension splits off cleanly
        let mut traced = Vec::new();
        assert!(encode_request_traced(
            &mut traced,
            &Request::IngestBatch { records },
            Some((0xDEAD_BEEF, 42))
        ));
        assert_eq!(traced.len(), plain.len() + TRACE_EXT_LEN);
        assert_eq!(traced[3], FLAG_TRACE);
        let (op, trace, body) = open_frame_traced(&traced).unwrap();
        assert_eq!((op, trace), (OP_INGEST_BATCH, Some((0xDEAD_BEEF, 42))));
        assert_eq!(body, &plain[HEADER_LEN..plain.len() - TRAILER_LEN]);

        // every control opcode carries the extension too
        for req in [Request::Flush, Request::Sync { from: 9 }] {
            let mut buf = Vec::new();
            assert!(encode_request_traced(&mut buf, &req, Some((7, 8))));
            let (_, trace, _) = open_frame_traced(&buf).unwrap();
            assert_eq!(trace, Some((7, 8)));
        }
    }

    #[test]
    fn unknown_frame_flags_are_rejected() {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, OP_FLUSH, |_| {});
        // corrupt the flags byte and re-seal the CRC
        buf[3] = 0x02;
        let end = buf.len() - TRAILER_LEN;
        let crc = crc32(&buf[1..end]).to_le_bytes();
        buf[end..].copy_from_slice(&crc);
        assert!(open_frame(&buf).is_ok(), "plain open ignores flags");
        assert!(
            open_frame_traced(&buf).is_err(),
            "unknown flag bit rejected"
        );

        // a flagged frame whose payload is shorter than the extension
        let mut short = Vec::new();
        let start = begin_frame_traced(&mut short, OP_FLUSH, Some((1, 2)));
        short.truncate(start + 4); // lop off most of the extension
        end_frame(&mut short, start);
        assert!(open_frame_traced(&short).is_err());
    }

    #[test]
    fn responses_round_trip() {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, OP_ACK, |b| put_u64(b, 17));
        let (op, payload) = open_frame(&buf).unwrap();
        assert!(matches!(
            decode_response(op, payload).unwrap(),
            Response::Ack { submitted: 17 }
        ));

        encode_error(&mut buf, "nope");
        let (op, payload) = open_frame(&buf).unwrap();
        let Response::Error { message } = decode_response(op, payload).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(message, "nope");
    }

    #[test]
    fn truncated_bodies_error_instead_of_panicking() {
        let body = encode_record_body(&sample_record());
        for cut in 0..body.len() {
            assert!(
                decode_record_body(&body[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn read_frame_pulls_exactly_one_frame_from_a_stream() {
        let mut wire = Vec::new();
        encode_frame_into(&mut wire, OP_FLUSH, |_| {});
        let first_len = wire.len();
        let mut second = Vec::new();
        encode_frame_into(&mut second, OP_ACK, |b| put_u64(b, 3));
        wire.extend_from_slice(&second);

        let mut cursor = io::Cursor::new(wire);
        let mut scratch = Vec::new();
        read_frame(&mut cursor, &mut scratch).unwrap();
        assert_eq!(scratch.len(), first_len);
        assert_eq!(open_frame(&scratch).unwrap().0, OP_FLUSH);
        read_frame(&mut cursor, &mut scratch).unwrap();
        assert_eq!(open_frame(&scratch).unwrap().0, OP_ACK);
    }
}
