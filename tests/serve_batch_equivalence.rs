//! How a record stream is cut into requests must be unobservable: three
//! durable servers fed the same stream — one via awaited single
//! `ingest` requests, one via awaited mixed-size `ingest_batch` chunks,
//! one via pipelined, un-awaited singles and batches of 1…100 records
//! (so several requests really coalesce into one worker cycle) — must
//! agree on every observable (stats, comparison counts, every lookup),
//! both live and after a SIGKILL restart that recovers each from its
//! snapshot + WAL tail.
//!
//! The WAL layer pins byte-identical segments however records are
//! grouped into appends (a `bdi-serve` unit test); this test pins the
//! whole stack: dispatch, the worker's one ingest cycle, publish,
//! snapshot and replay.

use bdi::serve::{Client, Request};
use bdi::synth::{World, WorldConfig};
use bdi::types::Record;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Kills the child on drop so a failing assertion can't leak a server.
struct ServeProc {
    child: Child,
    addr: SocketAddr,
}

impl ServeProc {
    /// Launch `bdi serve --data-dir dir` on an ephemeral port with a
    /// small snapshot bound, so the kill-restart below recovers through
    /// both a snapshot load and a WAL-tail replay.
    fn start(data_dir: &Path) -> ServeProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_bdi"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--snapshot-every",
                "64",
                "--data-dir",
            ])
            .arg(data_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn bdi serve");
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read startup line");
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("no address in startup line {line:?}"))
            .parse()
            .unwrap_or_else(|e| panic!("bad address in startup line {line:?}: {e}"));
        ServeProc { child, addr }
    }

    fn kill_hard(mut self) {
        self.child.kill().expect("SIGKILL the server");
        self.child.wait().expect("reap the killed server");
        std::mem::forget(self); // already reaped
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Send `records` down one connection as back-to-back requests without
/// waiting for any ack — singles as `ingest`, the rest as `ingest_batch`
/// of cycling sizes up to 100 — so requests queue behind the worker's
/// running cycle and the next cycle takes several at once. Acks are
/// drained on a second thread so neither side can stall on a full
/// socket buffer. Returns how many requests carried the stream.
fn ingest_pipelined(addr: SocketAddr, records: Vec<Record>) -> usize {
    let mut writer = TcpStream::connect(addr).expect("connect pipelined");
    let reader = BufReader::new(writer.try_clone().expect("clone socket"));
    let acks = std::thread::spawn(move || {
        reader
            .lines()
            .map(|line| line.expect("read ack"))
            .inspect(|line| assert!(line.contains("\"ack\""), "not an ack: {line}"))
            .count()
    });
    let sizes = [1usize, 1, 5, 1, 100, 1, 1, 2, 37, 1, 64, 1, 1, 1, 16];
    let mut stream = records.into_iter().peekable();
    let mut requests = 0usize;
    while stream.peek().is_some() {
        let mut chunk: Vec<Record> = stream
            .by_ref()
            .take(sizes[requests % sizes.len()])
            .collect();
        let request = match chunk.len() {
            1 => Request::Ingest {
                record: chunk.remove(0),
            },
            _ => Request::IngestBatch { records: chunk },
        };
        let mut line = serde_json::to_string(&request).expect("request serializes");
        line.push('\n');
        writer.write_all(line.as_bytes()).expect("send request");
        requests += 1;
    }
    writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    assert_eq!(acks.join().expect("ack reader"), requests, "one ack each");
    requests
}

/// Assert the two servers answer identically: stream accounting,
/// linkage work performed, and the catalog entry behind every
/// identifier in the world.
fn assert_servers_agree(a: &mut Client, b: &mut Client, identifiers: &[String], when: &str) {
    let (sa, sb) = (a.stats().expect("stats A"), b.stats().expect("stats B"));
    assert_eq!(sa.records, sb.records, "{when}: record counts diverge");
    assert_eq!(sa.products, sb.products, "{when}: product counts diverge");
    assert_eq!(sa.applied, sb.applied, "{when}: applied counts diverge");
    assert_eq!(
        sa.comparisons, sb.comparisons,
        "{when}: the engines did different linkage work"
    );
    let mut resolved = 0usize;
    for id in identifiers {
        let (ea, eb) = (
            a.lookup(id).expect("lookup A"),
            b.lookup(id).expect("lookup B"),
        );
        assert_eq!(ea, eb, "{when}: '{id}' resolves differently");
        resolved += usize::from(ea.is_some());
    }
    assert!(
        resolved > identifiers.len() / 2,
        "{when}: most identifiers resolve ({resolved}/{})",
        identifiers.len()
    );
}

#[test]
fn batched_ingest_matches_per_record_ingest_live_and_after_recovery() {
    let dirs: Vec<PathBuf> = ["single", "batched", "pipelined"]
        .iter()
        .map(|tag| {
            let d = std::env::temp_dir()
                .join(format!("bdi-serve-batch-eq-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            d
        })
        .collect();

    let world = World::generate(WorldConfig {
        n_entities: 80,
        n_sources: 10,
        ..WorldConfig::tiny(4242)
    });
    let mut identifiers: Vec<String> = world
        .dataset
        .records()
        .iter()
        .filter_map(|r| r.primary_identifier().map(str::to_string))
        .collect();
    identifiers.sort_unstable();
    identifiers.dedup();
    let records = world.dataset.into_records();
    let total = records.len();
    assert!(total > 100, "world is big enough for mixed batch sizes");

    let single = ServeProc::start(&dirs[0]);
    let batched = ServeProc::start(&dirs[1]);
    let pipelined = ServeProc::start(&dirs[2]);
    let mut a = Client::connect(single.addr).expect("connect single");
    let mut b = Client::connect(batched.addr).expect("connect batched");
    let mut c = Client::connect(pipelined.addr).expect("connect pipelined");

    // same stream, three request shapes: per-record on A, mixed-size
    // chunks on B (sizes cycle so partial, single and large batches,
    // and the final ragged chunk, all occur), un-awaited on C
    let requests = ingest_pipelined(pipelined.addr, records.clone());
    for r in records.iter().cloned() {
        a.ingest(r).expect("ingest");
    }
    let sizes = [1usize, 3, 7, 16];
    let mut stream = records.into_iter().peekable();
    let mut chunk_no = 0usize;
    while stream.peek().is_some() {
        let chunk: Vec<_> = stream
            .by_ref()
            .take(sizes[chunk_no % sizes.len()])
            .collect();
        chunk_no += 1;
        b.ingest_batch(chunk).expect("ingest_batch");
    }
    let (_, applied_a) = a.flush().expect("flush A");
    let (_, applied_b) = b.flush().expect("flush B");
    let (cycles_c, applied_c) = c.flush().expect("flush C");
    assert_eq!(applied_a as usize, total);
    assert_eq!(applied_b as usize, total);
    assert_eq!(applied_c as usize, total);
    // a fresh server's generation counts its publishes: fewer cycles
    // than requests means queued requests shared one
    assert!(
        (cycles_c as usize) < requests,
        "{requests} pipelined requests never coalesced ({cycles_c} cycles)"
    );
    assert_servers_agree(&mut a, &mut b, &identifiers, "live");
    assert_servers_agree(&mut a, &mut c, &identifiers, "live, pipelined");

    // SIGKILL both (no graceful drain) and recover: each restart loads
    // its snapshot and replays its WAL tail. The batched server's log
    // was written by group appends — recovery must not be able to tell.
    drop((a, b, c));
    single.kill_hard();
    batched.kill_hard();
    pipelined.kill_hard();
    let single = ServeProc::start(&dirs[0]);
    let batched = ServeProc::start(&dirs[1]);
    let pipelined = ServeProc::start(&dirs[2]);
    let mut a = Client::connect(single.addr).expect("reconnect single");
    let mut b = Client::connect(batched.addr).expect("reconnect batched");
    let mut c = Client::connect(pipelined.addr).expect("reconnect pipelined");
    let stats = a.stats().expect("stats after recovery");
    assert!(stats.durable, "restarted server reports durability");
    assert_eq!(stats.records, total, "everything flushed was recovered");
    assert_servers_agree(&mut a, &mut b, &identifiers, "after recovery");
    assert_servers_agree(&mut a, &mut c, &identifiers, "after recovery, pipelined");

    drop((single, batched, pipelined));
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}
