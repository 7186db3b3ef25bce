//! Generation snapshots: the engine's full state, atomically on disk.
//!
//! A snapshot bounds recovery cost: instead of replaying every record
//! ever ingested through the linker, recovery loads the last snapshot
//! (a straight deserialization — no pairwise matching) and replays only
//! the WAL tail past it. The ingest worker writes one whenever the tail
//! grows beyond the configured threshold, then compacts the WAL through
//! the snapshot position ([`crate::wal::Wal::compact_through`]).
//!
//! Writes are atomic in the classic way: serialize to `snapshot.bin.tmp`,
//! fsync, rename over `snapshot.bin`, fsync the directory. A crash
//! during the write leaves the previous snapshot intact; a crash between
//! snapshot and WAL compaction merely replays a longer tail (records are
//! idempotent to re-apply only if not already covered — the recovery path
//! skips entries below the snapshot position, so double-apply cannot
//! happen).
//!
//! The on-disk body is the crate's binary frame encoding
//! ([`crate::frame::put_snapshot`]) behind an 9-byte header and ahead
//! of a trailing CRC-32 — a straight walk of the engine state with no
//! `serde_json` value tree on either side:
//!
//! ```text
//! [magic "BDISNAP1" 8B][version u8 = 1][snapshot body][crc32 u32 LE]
//! ```

use crate::engine::{Engine, EngineState};
use crate::frame;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// File name of the live snapshot inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.bin.tmp";

/// Magic bytes opening a binary snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"BDISNAP1";
const SNAPSHOT_VERSION: u8 = 1;

/// One on-disk snapshot: the engine state plus the positions needed to
/// splice the WAL tail back on. Also the unit of WAL shipping — the
/// `sync` wire command carries one to bootstrap a replacement backend
/// (hence `Clone`: the wire path serializes a copy).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Snapshot {
    /// Generation sequence number published when this state was current.
    pub seq: u64,
    /// Absolute ingest position covered: every record at a position
    /// below this is inside `engine`; WAL entries at or past it are not.
    pub records: u64,
    /// The complete engine state (see [`EngineState`]).
    pub engine: EngineState,
}

impl Snapshot {
    /// Capture the current engine state at generation `seq`.
    pub fn capture(engine: &Engine, seq: u64) -> Self {
        let state = engine.export_state();
        Self {
            seq,
            records: state.records.len() as u64,
            engine: state,
        }
    }

    /// Atomically persist into `dir` (tmp + fsync + rename + dir fsync).
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        self.write_timed(dir).map(|_| ())
    }

    /// [`Snapshot::write`], returning how long the whole persist took
    /// (serialize through directory fsync) — what the serve path
    /// records as `serve.snapshot.write.latency_ns`.
    pub fn write_timed(&self, dir: &Path) -> std::io::Result<std::time::Duration> {
        let t0 = std::time::Instant::now();
        std::fs::create_dir_all(dir)?;
        let mut body = Vec::with_capacity(4096);
        body.extend_from_slice(SNAPSHOT_MAGIC);
        body.push(SNAPSHOT_VERSION);
        frame::put_snapshot(&mut body, self);
        let crc = frame::crc32(&body[SNAPSHOT_MAGIC.len() + 1..]);
        body.extend_from_slice(&crc.to_le_bytes());
        let tmp = dir.join(SNAPSHOT_TMP);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&body)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
        File::open(dir)?.sync_all()?;
        Ok(t0.elapsed())
    }

    /// Load the snapshot from `dir`, if one exists. A missing file is
    /// `Ok(None)` (cold start); an unreadable or corrupt file is an
    /// error — silently ignoring it would resurrect a stale state.
    pub fn load(dir: &Path) -> std::io::Result<Option<Snapshot>> {
        let path = dir.join(SNAPSHOT_FILE);
        if !path.exists() {
            return Ok(None);
        }
        let bytes = std::fs::read(&path)?;
        Self::decode_file(&bytes).map(Some).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("corrupt snapshot {}: {e}", path.display()),
            )
        })
    }

    /// Decode a binary snapshot file image (header + body + CRC).
    fn decode_file(bytes: &[u8]) -> std::io::Result<Snapshot> {
        let header = SNAPSHOT_MAGIC.len() + 1;
        if bytes.len() < header + 4 || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "missing snapshot magic",
            ));
        }
        if bytes[SNAPSHOT_MAGIC.len()] != SNAPSHOT_VERSION {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "unsupported snapshot version {}",
                    bytes[SNAPSHOT_MAGIC.len()]
                ),
            ));
        }
        let body = &bytes[header..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let computed = frame::crc32(body);
        if stored != computed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("snapshot CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"),
            ));
        }
        let mut r = frame::Reader::new(body);
        let snapshot = frame::read_snapshot(&mut r)?;
        if r.remaining() != 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "trailing bytes after snapshot body",
            ));
        }
        Ok(snapshot)
    }

    /// Rebuild the engine this snapshot captured.
    pub fn restore_engine(self) -> std::io::Result<(Engine, u64, u64)> {
        let (seq, records) = (self.seq, self.records);
        if records != self.engine.records.len() as u64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "snapshot position disagrees with its record count",
            ));
        }
        let engine = Engine::from_state(self.engine).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "snapshot engine state is internally inconsistent",
            )
        })?;
        Ok((engine, seq, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdi_types::{Record, RecordId, SourceId};
    use std::path::PathBuf;

    fn rec(s: u32, q: u32, i: u32) -> Record {
        let mut r = Record::new(RecordId::new(SourceId(s), q), format!("Gadget{i} model{i}"));
        r.identifiers.push(format!("XXX-YYY-{i:05}"));
        r
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bdi-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_load_restore_round_trips() {
        let dir = tmp_dir("roundtrip");
        let mut engine = Engine::new(0.9);
        for i in 0..8u32 {
            engine.ingest(rec(i % 2, i, i / 2));
        }
        let catalog = engine.refresh();
        Snapshot::capture(&engine, 3).write(&dir).unwrap();

        let loaded = Snapshot::load(&dir).unwrap().expect("snapshot exists");
        let (mut restored, seq, records) = loaded.restore_engine().unwrap();
        assert_eq!(seq, 3);
        assert_eq!(records, 8);
        assert_eq!(restored.records(), engine.records());
        let again = restored.refresh();
        assert_eq!(again.len(), catalog.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_snapshot_is_none_and_corrupt_is_error() {
        let dir = tmp_dir("corrupt");
        assert!(Snapshot::load(&dir).unwrap().is_none());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(SNAPSHOT_FILE), b"{not a snapshot").unwrap();
        assert!(Snapshot::load(&dir).is_err(), "bad magic is an error");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_bit_fails_the_crc() {
        let dir = tmp_dir("bitflip");
        let mut engine = Engine::new(0.9);
        engine.ingest(rec(0, 0, 0));
        engine.refresh();
        Snapshot::capture(&engine, 1).write(&dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = Snapshot::load(&dir).unwrap_err();
        assert!(err.to_string().contains("CRC"), "got: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let dir = tmp_dir("rewrite");
        let mut engine = Engine::new(0.9);
        engine.ingest(rec(0, 0, 0));
        engine.refresh();
        Snapshot::capture(&engine, 1).write(&dir).unwrap();
        engine.ingest(rec(1, 0, 0));
        engine.refresh();
        Snapshot::capture(&engine, 2).write(&dir).unwrap();
        let loaded = Snapshot::load(&dir).unwrap().unwrap();
        assert_eq!(loaded.seq, 2);
        assert_eq!(loaded.records, 2);
        assert!(
            !dir.join(SNAPSHOT_TMP).exists(),
            "tmp file consumed by rename"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
