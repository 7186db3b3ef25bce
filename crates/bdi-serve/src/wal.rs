//! The write-ahead log: mmap-backed binary segments with ring-style
//! compaction.
//!
//! Every record accepted by the ingest worker is appended here *before*
//! it is linked, so a crash can lose at most the records that were not
//! yet synced (bounded by the sync batch, see [`Wal::append_batch`]). Records
//! are stored in the crate's binary frame body encoding ([`crate::frame`])
//! inside preallocated, memory-mapped segment files:
//!
//! ```text
//! wal-00000000000000000000.seg     <- base 0
//! wal-00000000000000004096.seg     <- base 4096 (after a roll)
//!
//! segment layout:
//!   [magic "BDIWALS1" 8B][base u64 LE]          <- 16-byte header
//!   [len u32 LE][crc32 u32 LE][record body]...  <- frames, densely packed
//!   [zeroes to capacity]                        <- preallocated tail
//! ```
//!
//! An append is a bounds-checked `memcpy` into the mapping; a sync is
//! one `msync(MS_SYNC)` over the dirty byte range — no write syscall,
//! no serialization tree, no buffered-writer flush. The zeroed
//! preallocated tail is load-bearing: a scan knows it has reached the
//! append point when it sees a zero length field, and every frame's
//! CRC-32 catches a torn (partially persisted) tail, which is then
//! zeroed away so the log ends on a record boundary.
//!
//! *Positions* are absolute ingest sequence numbers (0-based count of
//! records ever applied), not file offsets. When a snapshot covering
//! everything through position `P` is persisted, [`Wal::compact_through`]
//! *retires whole segments* — every segment whose entries all lie below
//! `P` is unlinked; nothing is rewritten. A segment that straddles `P`
//! stays until a later snapshot covers it entirely, so a reopened log's
//! physical tail may begin before its last compaction point; recovery
//! filters replay by position, which makes the straddle harmless.

use crate::frame;
use crate::mmap::MmapFile;
use bdi_obs::{Histogram, Registry};
use bdi_types::Record;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Segment file prefix; the suffix is the zero-padded base position.
pub const SEGMENT_PREFIX: &str = "wal-";
/// Segment file extension.
pub const SEGMENT_SUFFIX: &str = ".seg";

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"BDIWALS1";
const SEGMENT_HEADER: usize = 16;
/// Per-frame prefix: `u32` body length + `u32` CRC-32 of the body.
const FRAME_PREFIX: usize = 8;

/// Default segment capacity. Big enough that rolls are rare within a
/// snapshot interval, small enough that a mostly-compacted log does not
/// pin much address space.
pub const DEFAULT_SEGMENT_CAPACITY: usize = 4 << 20;

fn segment_path(dir: &Path, base: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{base:020}{SEGMENT_SUFFIX}"))
}

fn segment_base_from_name(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// An open write-ahead log (the ingest worker's append handle).
pub struct Wal {
    dir: PathBuf,
    /// The tail segment, mapped for appending.
    seg: MmapFile,
    /// Absolute position of the tail segment's first entry.
    seg_base: u64,
    /// Byte offset of the next append within the tail segment.
    write_off: usize,
    /// Byte offset through which the tail segment is known synced.
    synced_off: usize,
    /// Older segments still on disk, oldest first.
    sealed: Vec<SealedSegment>,
    /// Logical base: the compaction point (positions below it are
    /// covered by a snapshot even when a straddling segment still
    /// physically holds them).
    base: u64,
    /// Absolute position one past the last appended entry.
    next: u64,
    /// Absolute position through which appends are known durable.
    synced: u64,
    /// Capacity for newly created segments.
    capacity: usize,
    /// Reused frame-staging buffer.
    scratch: Vec<u8>,
    /// Durability-timing histograms, when the owner attached any.
    metrics: Option<WalMetrics>,
}

struct SealedSegment {
    path: PathBuf,
    base: u64,
    count: u64,
}

/// Durability-timing histograms a [`Wal`] records into when attached
/// via [`Wal::set_metrics`].
#[derive(Clone)]
pub struct WalMetrics {
    /// One [`Wal::append_batch`] (binary encode + mapped memcpy), ns.
    pub append_ns: Arc<Histogram>,
    /// One group-commit [`Wal::sync`] (`msync` of the dirty range), ns.
    /// Only syncs that actually hit the disk are recorded — the early
    /// return when nothing is pending is not a barrier.
    pub fsync_ns: Arc<Histogram>,
    /// Records made durable per sync — the group-commit batch size the
    /// `sync_every` policy is achieving in practice.
    pub fsync_batch: Arc<Histogram>,
}

impl WalMetrics {
    /// Resolve the WAL's histograms in `registry` under the
    /// `serve.wal.*` names.
    pub fn register(registry: &Registry) -> Self {
        Self {
            append_ns: registry.histogram("serve.wal.append.latency_ns"),
            fsync_ns: registry.histogram("serve.wal.fsync.latency_ns"),
            fsync_batch: registry.histogram("serve.wal.fsync.batch_records"),
        }
    }
}

/// What [`Wal::open`] found on disk.
pub struct WalOpen {
    /// The log, positioned for appending.
    pub wal: Wal,
    /// Entries already in the log (absolute position + record), in
    /// append order — the tail to replay after a snapshot load.
    pub entries: Vec<(u64, Record)>,
    /// True when a torn (partially persisted) tail was discarded.
    pub torn_tail: bool,
}

/// One scanned segment: its header base, decoded entries, the offset
/// one past the last intact frame, and whether garbage followed it.
struct SegmentScan {
    base: u64,
    records: Vec<Record>,
    valid_end: usize,
    torn: bool,
}

/// Scan a segment image: validate the header, then walk frames until
/// the zeroed tail, a CRC mismatch, or the end of the file. Corruption
/// never errors — it marks the scan torn and stops.
fn scan_segment(bytes: &[u8]) -> std::io::Result<SegmentScan> {
    if bytes.len() < SEGMENT_HEADER || &bytes[..8] != SEGMENT_MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "missing segment magic",
        ));
    }
    let base = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let mut records = Vec::new();
    let mut off = SEGMENT_HEADER;
    let mut torn = false;
    loop {
        if off + FRAME_PREFIX > bytes.len() {
            // too close to capacity for even a length field: the roll
            // logic never writes here, so any nonzero byte is torn junk
            torn = bytes[off..].iter().any(|&b| b != 0);
            break;
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
        if len == 0 && crc == 0 {
            break; // the zeroed preallocated tail: clean end
        }
        let body_end = off + FRAME_PREFIX + len;
        if len == 0 || body_end > bytes.len() {
            torn = true;
            break;
        }
        let body = &bytes[off + FRAME_PREFIX..body_end];
        if frame::crc32(body) != crc {
            torn = true;
            break;
        }
        match frame::decode_record_body(body) {
            Ok(record) => records.push(record),
            Err(_) => {
                // a frame that passes CRC but does not decode is not a
                // torn write — it is a format bug — but replay-side the
                // safe response is the same: stop before it
                torn = true;
                break;
            }
        }
        off = body_end;
    }
    Ok(SegmentScan {
        base,
        records,
        valid_end: off,
        torn,
    })
}

/// Sorted `(base, path)` list of the segment files in `dir`.
fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(base) = entry.file_name().to_str().and_then(segment_base_from_name) {
            out.push((base, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

impl Wal {
    /// Open (or create) the log in `dir` with the default segment
    /// capacity, reading back any existing entries for replay. Existing
    /// content is preserved; appends continue after the last intact
    /// entry. A torn tail is zeroed away so the log ends on a record
    /// boundary.
    pub fn open(dir: &Path) -> std::io::Result<WalOpen> {
        Self::open_with_capacity(dir, DEFAULT_SEGMENT_CAPACITY)
    }

    /// [`Wal::open`] with an explicit capacity for newly created
    /// segments — small capacities let tests exercise rolling and
    /// ring retirement cheaply.
    pub fn open_with_capacity(dir: &Path, capacity: usize) -> std::io::Result<WalOpen> {
        std::fs::create_dir_all(dir)?;
        let segments = list_segments(dir)?;
        if segments.is_empty() {
            let wal = Self::create_fresh(dir, capacity, 0)?;
            return Ok(WalOpen {
                wal,
                entries: Vec::new(),
                torn_tail: false,
            });
        }

        // Walk the segment chain oldest-first, stopping at the first
        // torn, corrupt, or discontinuous segment. A crash can only
        // damage the newest data, so everything before the stop point
        // is trustworthy and everything after it is discarded.
        let mut scans: Vec<(PathBuf, SegmentScan)> = Vec::new();
        let mut torn_tail = false;
        let mut expected_base = segments[0].0;
        for (name_base, path) in &segments {
            let bytes = std::fs::read(path)?;
            match scan_segment(&bytes) {
                Ok(scan) if scan.base == *name_base && scan.base == expected_base => {
                    expected_base = scan.base + scan.records.len() as u64;
                    let torn = scan.torn;
                    scans.push((path.clone(), scan));
                    if torn {
                        torn_tail = true;
                        break;
                    }
                }
                _ => {
                    torn_tail = true;
                    break;
                }
            }
        }
        if scans.len() < segments.len() {
            for (_, path) in &segments[scans.len()..] {
                std::fs::remove_file(path)?;
            }
            sync_dir(dir)?;
        }
        let Some((tail_path, tail_scan)) = scans.pop() else {
            // not even the first segment was usable: restart at base 0
            let wal = Self::create_fresh(dir, capacity, 0)?;
            return Ok(WalOpen {
                wal,
                entries: Vec::new(),
                torn_tail,
            });
        };

        let mut entries: Vec<(u64, Record)> = Vec::new();
        let mut sealed: Vec<SealedSegment> = Vec::new();
        for (path, scan) in scans {
            sealed.push(SealedSegment {
                path,
                base: scan.base,
                count: scan.records.len() as u64,
            });
            for (i, record) in scan.records.into_iter().enumerate() {
                entries.push((scan.base + i as u64, record));
            }
        }
        let next = tail_scan.base + tail_scan.records.len() as u64;
        for (i, record) in tail_scan.records.into_iter().enumerate() {
            entries.push((tail_scan.base + i as u64, record));
        }

        let mut seg = MmapFile::open(&tail_path)?;
        debug_assert_eq!(
            scan_segment(seg.as_slice()).map(|s| s.valid_end).ok(),
            Some(tail_scan.valid_end),
            "the mapping and the file read agree on the append point"
        );
        // zero anything past the intact frames — a torn tail, or
        // unsynced garbage a crash may have half-persisted — so appends
        // and rescans start from a clean boundary
        if tail_scan.valid_end < seg.len() {
            seg.zero_range(tail_scan.valid_end, seg.len() - tail_scan.valid_end);
        }
        let base = entries.first().map_or(tail_scan.base, |(p, _)| *p);
        let wal = Wal {
            dir: dir.to_path_buf(),
            seg,
            seg_base: tail_scan.base,
            write_off: tail_scan.valid_end,
            synced_off: tail_scan.valid_end,
            sealed,
            base,
            next,
            synced: next,
            capacity,
            scratch: Vec::with_capacity(256),
            metrics: None,
        };
        Ok(WalOpen {
            wal,
            entries,
            torn_tail,
        })
    }

    /// Build a fresh single-segment log based at `base`.
    fn create_fresh(dir: &Path, capacity: usize, base: u64) -> std::io::Result<Wal> {
        let seg = new_segment(dir, capacity, base)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            seg,
            seg_base: base,
            write_off: SEGMENT_HEADER,
            synced_off: SEGMENT_HEADER,
            sealed: Vec::new(),
            base,
            next: base,
            synced: base,
            capacity,
            scratch: Vec::with_capacity(256),
            metrics: None,
        })
    }

    /// Attach durability-timing histograms; subsequent appends and
    /// syncs record into them.
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = Some(metrics);
    }

    /// Append one request's records (a single record is a batch of one)
    /// with one timing sample and one mapped-segment write per segment
    /// touched: frames are encoded back-to-back into a staging buffer
    /// and flushed with a single `write_at`, rolling mid-batch when the
    /// next frame would not fit. The bytes land in the mapped segment
    /// immediately (no buffering layer) and are identical however the
    /// records are grouped into calls — replay cannot tell the
    /// difference — but durability requires a later [`Wal::sync`];
    /// callers batch syncs to keep the hot path off the disk's barrier
    /// latency. Returns the absolute position of the first record.
    pub fn append_batch(&mut self, records: &[Record]) -> std::io::Result<u64> {
        if records.is_empty() {
            return Ok(self.next);
        }
        let t0 = Instant::now();
        let first = self.next;
        // the reused staging buffer: once warm, an append allocates
        // nothing, and each frame is encoded where it is flushed from
        let mut staged = std::mem::take(&mut self.scratch);
        staged.clear();
        for record in records {
            let start = staged.len();
            staged.extend_from_slice(&[0u8; FRAME_PREFIX]);
            frame::put_record(&mut staged, record);
            let body_len = staged.len() - start - FRAME_PREFIX;
            let crc = frame::crc32(&staged[start + FRAME_PREFIX..]);
            staged[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
            staged[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
            if self.write_off + staged.len() > self.seg.len() {
                // this frame does not fit: flush the ones before it,
                // roll, and carry it into the new segment
                self.seg.write_at(self.write_off, &staged[..start]);
                self.write_off += start;
                self.roll(staged.len() - start)?;
                staged.drain(..start);
            }
            self.next += 1;
        }
        self.seg.write_at(self.write_off, &staged);
        self.write_off += staged.len();
        self.scratch = staged;
        if let Some(m) = &self.metrics {
            m.append_ns.record_duration(t0.elapsed());
        }
        Ok(first)
    }

    /// Seal the current segment and start a new one based at the
    /// current head, sized to hold at least one `need`-byte frame.
    fn roll(&mut self, need: usize) -> std::io::Result<()> {
        // make the sealed segment fully durable before the new one
        // exists: recovery treats a torn non-final segment as the end
        // of the log, so ordering matters
        self.seg
            .sync_range(self.synced_off, self.write_off - self.synced_off)?;
        self.synced = self.next;
        let capacity = self.capacity.max(SEGMENT_HEADER + need);
        let seg = new_segment(&self.dir, capacity, self.next)?;
        let old = std::mem::replace(&mut self.seg, seg);
        drop(old);
        self.sealed.push(SealedSegment {
            path: segment_path(&self.dir, self.seg_base),
            base: self.seg_base,
            count: self.next - self.seg_base,
        });
        self.seg_base = self.next;
        self.write_off = SEGMENT_HEADER;
        self.synced_off = SEGMENT_HEADER;
        Ok(())
    }

    /// Flush appended frames to disk (`msync` of the dirty range).
    /// After this returns, every appended record survives a crash.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.synced == self.next {
            return Ok(());
        }
        let t0 = Instant::now();
        let batch = self.next - self.synced;
        self.seg
            .sync_range(self.synced_off, self.write_off - self.synced_off)?;
        self.synced_off = self.write_off;
        self.synced = self.next;
        if let Some(m) = &self.metrics {
            m.fsync_batch.record(batch);
            m.fsync_ns.record_duration(t0.elapsed());
        }
        Ok(())
    }

    /// Logical base: the oldest position not yet covered by a
    /// snapshot-driven compaction — the oldest tail this log is
    /// *obliged* to serve. (A straddling segment may physically hold a
    /// few earlier entries; replay filters them by position.) A `sync`
    /// request whose `from` predates this must fall back to
    /// full-snapshot shipping.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Absolute position one past the last appended entry.
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Absolute position through which appends are known durable.
    pub fn synced(&self) -> u64 {
        self.synced
    }

    /// Entries past the logical base (the replay tail length a restart
    /// would pay for).
    pub fn tail_len(&self) -> u64 {
        self.next - self.base
    }

    /// Records appended but not yet synced.
    pub fn pending_sync(&self) -> u64 {
        self.next - self.synced
    }

    /// Ring-style compaction: retire (unlink) every sealed segment
    /// whose entries all lie below `through`, and advance the logical
    /// base. Called right after a snapshot covering `through` records
    /// has been persisted. Nothing is rewritten: a segment that
    /// straddles `through` survives until a later snapshot covers it
    /// entirely. A `through` at or past the current head drops every
    /// segment and starts a fresh one based there (the recovery path
    /// for a snapshot that outlived its WAL).
    pub fn compact_through(&mut self, through: u64) -> std::io::Result<()> {
        if through <= self.base {
            return Ok(()); // nothing to drop
        }
        self.sync()?;
        if through >= self.next {
            return self.reset_to(through);
        }
        let mut removed = false;
        while let Some(seg) = self.sealed.first() {
            if seg.base + seg.count > through {
                break;
            }
            std::fs::remove_file(&seg.path)?;
            self.sealed.remove(0);
            removed = true;
        }
        if removed {
            sync_dir(&self.dir)?;
        }
        self.base = through;
        Ok(())
    }

    /// Atomically replace the journal with an empty one based at `at` —
    /// the restore path's reset. Unlike [`Wal::compact_through`], this
    /// drops *every* local entry including ones past `at`: shipped
    /// state supersedes the local history wholesale, and entries beyond
    /// the shipped position are exactly the ones that must not replay
    /// on top of it.
    pub fn rebase(&mut self, at: u64) -> std::io::Result<()> {
        self.reset_to(at)
    }

    /// Drop every segment and start a fresh one based at `at`.
    fn reset_to(&mut self, at: u64) -> std::io::Result<()> {
        // create the replacement first so a crash mid-reset leaves at
        // least one segment; the scan drops discontinuous leftovers
        let seg = new_segment(&self.dir, self.capacity, at)?;
        let old_tail = segment_path(&self.dir, self.seg_base);
        let old = std::mem::replace(&mut self.seg, seg);
        drop(old);
        if self.seg_base != at {
            std::fs::remove_file(&old_tail)?;
        }
        for sealed in self.sealed.drain(..) {
            if sealed.base != at {
                std::fs::remove_file(&sealed.path)?;
            }
        }
        sync_dir(&self.dir)?;
        self.seg_base = at;
        self.write_off = SEGMENT_HEADER;
        self.synced_off = SEGMENT_HEADER;
        self.base = at;
        self.next = at;
        self.synced = at;
        Ok(())
    }
}

/// Create, preallocate, and map a fresh segment based at `base`, with
/// its header written and durable (file and directory entry both).
fn new_segment(dir: &Path, capacity: usize, base: u64) -> std::io::Result<MmapFile> {
    let mut seg = MmapFile::create(&segment_path(dir, base), capacity)?;
    let mut header = [0u8; SEGMENT_HEADER];
    header[..8].copy_from_slice(SEGMENT_MAGIC);
    header[8..16].copy_from_slice(&base.to_le_bytes());
    seg.write_at(0, &header);
    seg.sync_range(0, SEGMENT_HEADER)?;
    seg.sync_file()?;
    sync_dir(dir)?;
    Ok(seg)
}

/// Replay helper: the entries of the log in `dir` whose absolute
/// position is `>= from`, in order. Missing directory (or no log yet)
/// means an empty tail. Read-only — safe to call on a live server's
/// data directory (the `sync` command's tail-shipping path does).
pub fn replay_from(dir: &Path, from: u64) -> std::io::Result<Vec<Record>> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut entries: Vec<(u64, Record)> = Vec::new();
    let mut expected_base: Option<u64> = None;
    for (name_base, path) in list_segments(dir)? {
        let bytes = std::fs::read(&path)?;
        let scan = match scan_segment(&bytes) {
            Ok(scan) if scan.base == name_base => scan,
            _ => break,
        };
        if expected_base.is_some_and(|e| e != scan.base) {
            break;
        }
        expected_base = Some(scan.base + scan.records.len() as u64);
        let torn = scan.torn;
        for (i, record) in scan.records.into_iter().enumerate() {
            entries.push((scan.base + i as u64, record));
        }
        if torn {
            break;
        }
    }
    Ok(entries
        .into_iter()
        .filter(|(pos, _)| *pos >= from)
        .map(|(_, r)| r)
        .collect())
}

/// fsync a directory so created/unlinked segment entries are durable.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdi_types::{RecordId, SourceId};
    use std::fs::OpenOptions;

    fn rec(i: u32) -> Record {
        let mut r = Record::new(RecordId::new(SourceId(0), i), format!("Gadget{i}"));
        r.identifiers.push(format!("XXX-YYY-{i:05}"));
        r
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bdi-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Capacity that fits roughly two `rec`-sized frames per segment,
    /// so a handful of appends exercises rolling and retirement.
    fn small_cap() -> usize {
        SEGMENT_HEADER + 2 * (FRAME_PREFIX + frame::encode_record_body(&rec(0)).len() + 8)
    }

    #[test]
    fn append_sync_reopen_replays_everything() {
        let dir = tmp_dir("basic");
        {
            let mut wal = Wal::open(&dir).unwrap().wal;
            for i in 0..5 {
                assert_eq!(wal.append_batch(&[rec(i)]).unwrap(), u64::from(i));
            }
            assert_eq!(wal.pending_sync(), 5);
            wal.sync().unwrap();
            assert_eq!(wal.pending_sync(), 0);
        }
        let opened = Wal::open(&dir).unwrap();
        assert!(!opened.torn_tail);
        assert_eq!(opened.entries.len(), 5);
        assert_eq!(opened.entries[3].0, 3);
        assert_eq!(opened.entries[3].1.title, "Gadget3");
        assert_eq!(opened.wal.position(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_and_log_stays_appendable() {
        let dir = tmp_dir("torn");
        {
            let mut wal = Wal::open(&dir).unwrap().wal;
            for i in 0..3 {
                wal.append_batch(&[rec(i)]).unwrap();
            }
            wal.sync().unwrap();
        }
        // simulate a crash mid-append: a frame whose length field is in
        // place but whose body was only half persisted
        {
            use std::io::{Seek, SeekFrom, Write as _};
            let opened = Wal::open(&dir).unwrap();
            let tail_off = opened.wal.write_off;
            let path = segment_path(&dir, 0);
            drop(opened);
            let body = frame::encode_record_body(&rec(3));
            let mut torn = Vec::new();
            torn.extend_from_slice(&(body.len() as u32).to_le_bytes());
            torn.extend_from_slice(&frame::crc32(&body).to_le_bytes());
            torn.extend_from_slice(&body[..body.len() / 2]); // half the body
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(tail_off as u64)).unwrap();
            f.write_all(&torn).unwrap();
        }
        let opened = Wal::open(&dir).unwrap();
        assert!(opened.torn_tail, "partial frame detected");
        assert_eq!(opened.entries.len(), 3, "intact prefix survives");
        // the torn bytes were zeroed: appending continues cleanly
        let mut wal = opened.wal;
        assert_eq!(wal.append_batch(&[rec(3)]).unwrap(), 3);
        wal.sync().unwrap();
        let reopened = Wal::open(&dir).unwrap();
        assert!(!reopened.torn_tail);
        assert_eq!(reopened.entries.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_mid_log_truncates_from_there() {
        let dir = tmp_dir("crc");
        {
            let mut wal = Wal::open(&dir).unwrap().wal;
            for i in 0..4 {
                wal.append_batch(&[rec(i)]).unwrap();
            }
            wal.sync().unwrap();
        }
        // flip one byte inside the third record's body
        {
            use std::io::{Seek, SeekFrom, Write as _};
            let frame_len = FRAME_PREFIX as u64 + frame::encode_record_body(&rec(0)).len() as u64;
            let off = SEGMENT_HEADER as u64 + 2 * frame_len + FRAME_PREFIX as u64 + 5;
            let path = segment_path(&dir, 0);
            let mut f = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            f.seek(SeekFrom::Start(off)).unwrap();
            f.write_all(&[0xFF]).unwrap();
        }
        let opened = Wal::open(&dir).unwrap();
        assert!(opened.torn_tail, "CRC mismatch counts as torn");
        assert_eq!(
            opened.entries.len(),
            2,
            "replay stops before the corrupt frame; the rest is discarded"
        );
        assert_eq!(opened.wal.position(), 2);
        // positions 2.. are reusable after the truncation
        let mut wal = opened.wal;
        assert_eq!(wal.append_batch(&[rec(2)]).unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_roll_across_segments_and_replay_in_order() {
        let dir = tmp_dir("roll");
        {
            let mut wal = Wal::open_with_capacity(&dir, small_cap()).unwrap().wal;
            for i in 0..7 {
                wal.append_batch(&[rec(i)]).unwrap();
            }
            wal.sync().unwrap();
            assert!(
                list_segments(&dir).unwrap().len() >= 3,
                "seven records at two-per-segment capacity must roll"
            );
        }
        let opened = Wal::open(&dir).unwrap();
        assert!(!opened.torn_tail);
        let positions: Vec<u64> = opened.entries.iter().map(|(p, _)| *p).collect();
        assert_eq!(positions, (0..7).collect::<Vec<u64>>());
        assert_eq!(opened.wal.position(), 7);
        assert_eq!(replay_from(&dir, 5).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_append_is_byte_identical_to_per_record_appends() {
        let (dir_a, dir_b) = (tmp_dir("batch-a"), tmp_dir("batch-b"));
        let records: Vec<Record> = (0..7).map(rec).collect();
        {
            // small capacity so the batch is forced to roll mid-way
            let mut one = Wal::open_with_capacity(&dir_a, small_cap()).unwrap().wal;
            for r in &records {
                one.append_batch(std::slice::from_ref(r)).unwrap();
            }
            one.sync().unwrap();
            let mut batched = Wal::open_with_capacity(&dir_b, small_cap()).unwrap().wal;
            assert_eq!(batched.append_batch(&records).unwrap(), 0);
            assert_eq!(batched.position(), 7);
            batched.sync().unwrap();
        }
        let (a, b) = (Wal::open(&dir_a).unwrap(), Wal::open(&dir_b).unwrap());
        assert!(!a.torn_tail && !b.torn_tail);
        assert_eq!(a.entries, b.entries, "replay must not see a difference");
        let (segs_a, segs_b) = (
            list_segments(&dir_a).unwrap(),
            list_segments(&dir_b).unwrap(),
        );
        assert!(segs_a.len() >= 3, "batch must have rolled");
        assert_eq!(segs_a.len(), segs_b.len());
        for ((base_a, pa), (base_b, pb)) in segs_a.iter().zip(&segs_b) {
            assert_eq!(base_a, base_b);
            assert_eq!(
                std::fs::read(pa).unwrap(),
                std::fs::read(pb).unwrap(),
                "segment bytes diverged: {pa:?} vs {pb:?}"
            );
        }
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn compact_retires_whole_segments_and_keeps_positions() {
        let dir = tmp_dir("compact");
        let mut wal = Wal::open_with_capacity(&dir, small_cap()).unwrap().wal;
        for i in 0..6 {
            wal.append_batch(&[rec(i)]).unwrap();
        }
        wal.sync().unwrap();
        let before = list_segments(&dir).unwrap().len();
        wal.compact_through(4).unwrap();
        assert_eq!(wal.tail_len(), 2);
        assert_eq!(wal.position(), 6);
        assert!(
            list_segments(&dir).unwrap().len() < before,
            "fully covered segments are unlinked, not rewritten"
        );
        // appends after compaction continue at the right position
        assert_eq!(wal.append_batch(&[rec(6)]).unwrap(), 6);
        wal.sync().unwrap();
        drop(wal);
        let opened = Wal::open(&dir).unwrap();
        let positions: Vec<u64> = opened.entries.iter().map(|(p, _)| *p).collect();
        assert_eq!(positions, vec![4, 5, 6]);
        assert_eq!(replay_from(&dir, 5).unwrap().len(), 2);
        assert_eq!(replay_from(&dir, 99).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_keeps_a_straddling_tail_segment() {
        let dir = tmp_dir("straddle");
        // default capacity: all six entries share one segment, so
        // nothing can retire — the logical base still advances, and the
        // physical extras are filtered by position on replay
        let mut wal = Wal::open(&dir).unwrap().wal;
        for i in 0..6 {
            wal.append_batch(&[rec(i)]).unwrap();
        }
        wal.sync().unwrap();
        wal.compact_through(4).unwrap();
        assert_eq!(wal.base(), 4, "logical base advances");
        assert_eq!(wal.tail_len(), 2);
        assert_eq!(list_segments(&dir).unwrap().len(), 1, "straddler stays");
        assert_eq!(
            replay_from(&dir, 4).unwrap().len(),
            2,
            "replay filters the covered prefix by position"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_from_missing_dir_is_empty() {
        let dir = tmp_dir("missing");
        assert!(replay_from(&dir, 0).unwrap().is_empty());
    }

    // The replacement-bootstrap path (`sync` + `restore`) leans on the
    // WAL behaving at its edges: the cases below are exactly the
    // states a donor backend can be in when asked for a tail.

    #[test]
    fn rebase_drops_everything_even_past_the_base() {
        let dir = tmp_dir("rebase");
        let mut wal = Wal::open_with_capacity(&dir, small_cap()).unwrap().wal;
        for i in 0..6 {
            wal.append_batch(&[rec(i)]).unwrap();
        }
        wal.sync().unwrap();
        // rebase *below* the head: compact_through would keep entries
        // 3..6, rebase must not
        wal.rebase(3).unwrap();
        assert_eq!(wal.base(), 3);
        assert_eq!(wal.position(), 3);
        assert_eq!(wal.tail_len(), 0);
        assert_eq!(wal.append_batch(&[rec(3)]).unwrap(), 3);
        wal.sync().unwrap();
        drop(wal);
        let opened = Wal::open(&dir).unwrap();
        let positions: Vec<u64> = opened.entries.iter().map(|(p, _)| *p).collect();
        assert_eq!(positions, vec![3], "pre-rebase entries are gone");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_only_log_replays_nothing_and_keeps_its_base() {
        let dir = tmp_dir("header-only");
        {
            let mut wal = Wal::open(&dir).unwrap().wal;
            for i in 0..4 {
                wal.append_batch(&[rec(i)]).unwrap();
            }
            wal.sync().unwrap();
            wal.compact_through(4).unwrap(); // empty log, base 4
        }
        let opened = Wal::open(&dir).unwrap();
        assert!(!opened.torn_tail);
        assert!(opened.entries.is_empty());
        assert_eq!(opened.wal.base(), 4, "compacted base survives reopen");
        assert_eq!(opened.wal.position(), 4);
        assert!(replay_from(&dir, 0).unwrap().is_empty());
        // appends continue at the re-based position
        let mut wal = opened.wal;
        assert_eq!(wal.append_batch(&[rec(4)]).unwrap(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_from_mid_file_position() {
        let dir = tmp_dir("mid-replay");
        let mut wal = Wal::open(&dir).unwrap().wal;
        for i in 0..8 {
            wal.append_batch(&[rec(i)]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let tail = replay_from(&dir, 5).unwrap();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].title, "Gadget5", "tail starts exactly at `from`");
        assert_eq!(tail[2].title, "Gadget7");
        assert_eq!(
            replay_from(&dir, 8).unwrap().len(),
            0,
            "from == head is empty"
        );
        assert_eq!(
            replay_from(&dir, 0).unwrap().len(),
            8,
            "from 0 is everything"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_record_gets_its_own_segment() {
        let dir = tmp_dir("oversize");
        let mut wal = Wal::open_with_capacity(&dir, small_cap()).unwrap().wal;
        wal.append_batch(&[rec(0)]).unwrap();
        let mut big = rec(1);
        big.title = "X".repeat(small_cap() * 3);
        wal.append_batch(&[big]).unwrap();
        wal.append_batch(&[rec(2)]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let opened = Wal::open(&dir).unwrap();
        assert!(!opened.torn_tail);
        assert_eq!(opened.entries.len(), 3);
        assert_eq!(opened.entries[1].1.title.len(), small_cap() * 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
