//! Reads never wait for writes. A backend runs `lookup`, `stats`,
//! `metrics`, `trace` and `hello` on its readiness loop, so they answer
//! while a flush barrier or a backpressured ingest holds the only
//! dispatch worker. The split between loop and pool must keep every
//! connection's replies in request order — a read after a write sees
//! the write — and must survive a connection that half-closes right
//! behind a burst of reads.

use bdi::serve::frame::{self, decode_response, encode_request, open_frame, read_frame};
use bdi::serve::{Client, HttpClient, Request, Response, Server, ServerConfig, StatsBody};
use bdi::synth::{World, WorldConfig};
use bdi::types::{Record, RecordId, SourceId};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Records enough to keep a debug-build engine busy for about a second.
fn load() -> Vec<Record> {
    World::generate(WorldConfig {
        n_entities: 6000,
        n_sources: 40,
        max_source_size: 1500,
        ..WorldConfig::tiny(23)
    })
    .dataset
    .into_records()
}

fn probe() -> Record {
    Record::new(RecordId::new(SourceId(900), 0), "Probe Gadget P-1")
        .with_identifier("PRB-GAD-00001")
}

/// Read one reply in either format, as a client that pipelined both
/// would: the frame magic opens a binary reply, anything else a line.
fn recv(reader: &mut BufReader<TcpStream>) -> Response {
    let first = reader.fill_buf().expect("read")[0];
    if first == frame::FRAME_MAGIC {
        let mut raw = Vec::new();
        read_frame(reader, &mut raw).expect("frame");
        let (opcode, payload) = open_frame(&raw).expect("frame opens");
        decode_response(opcode, payload).expect("reply decodes")
    } else {
        let mut line = String::new();
        reader.read_line(&mut line).expect("line");
        serde_json::from_str(&line).expect("reply parses")
    }
}

fn lookup_line(identifier: &str) -> Vec<u8> {
    let line = serde_json::to_string(&Request::Lookup {
        identifier: identifier.to_string(),
    })
    .expect("requests serialize");
    format!("{line}\n").into_bytes()
}

fn framed(request: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    assert!(encode_request(&mut buf, request), "has an opcode");
    buf
}

fn assert_behind(stats: &StatsBody, total: u64, what: &str) {
    assert!(
        stats.applied < stats.submitted,
        "{what} waited for the writer's flush: applied {} of {} submitted ({total} in all)",
        stats.applied,
        stats.submitted,
    );
}

#[test]
fn reads_answer_while_a_flush_is_pending() {
    let server = Server::start(ServerConfig {
        queue_capacity: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let mut reader = Client::connect(addr).expect("connect");
    reader
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    reader.ingest(probe()).expect("probe acks");
    reader.flush().expect("probe applied");

    // the writer pipelines every batch and the flush behind them, and
    // reads nothing yet: the one dispatch worker blocks on the full
    // ingest queue, then in the flush barrier
    let records = load();
    let total = records.len() as u64 + 1;
    let mut wire = Vec::new();
    for chunk in records.chunks(64) {
        wire.extend(framed(&Request::IngestBatch {
            records: chunk.to_vec(),
        }));
    }
    wire.extend(framed(&Request::Flush));
    let mut writer = TcpStream::connect(addr).expect("connect");
    writer.write_all(&wire).expect("pipeline written");

    // wait for the load to reach the engine (at the parent of this
    // change, this first `stats` already waits for the whole flush)
    let stats = loop {
        let stats = reader.stats().expect("stats");
        if stats.submitted > stats.applied || stats.applied == total {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_behind(&stats, total, "stats");

    let (version, _) = reader.hello().expect("hello");
    assert!(version >= 2);
    let entry = reader.lookup("PRB-GAD-00001").expect("lookup");
    assert!(entry.is_some(), "the probe resolves");
    let mut http = HttpClient::connect(addr).expect("connect");
    let (status, body) = http.get("/stats").expect("GET /stats");
    assert_eq!(status, 200);
    let Response::Stats(stats) = serde_json::from_slice(&body).expect("stats body") else {
        panic!("GET /stats answered {}", String::from_utf8_lossy(&body));
    };
    assert_behind(&stats, total, "GET /stats");
    let (status, _) = http.get("/lookup/PRB-GAD-00001").expect("GET /lookup");
    assert_eq!(status, 200);
    // answered last, so every read above was answered before the drain
    // finished — and the flush returns only after it
    assert_behind(&reader.stats().expect("stats"), total, "the last stats");

    // the writer's pipeline still completes in order
    let mut replies = BufReader::new(writer);
    for _ in records.chunks(64) {
        assert!(matches!(recv(&mut replies), Response::Ack { .. }));
    }
    match recv(&mut replies) {
        Response::Flushed { applied, .. } => assert_eq!(applied, total),
        other => panic!("expected flushed, got {other:?}"),
    }
    drop((reader, http, replies));
    server.shutdown();
}

#[test]
fn replies_keep_request_order_across_loop_and_pool() {
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let x = probe();
    let mut wire = lookup_line("PRB-GAD-00001");
    wire.extend(framed(&Request::IngestBatch {
        records: vec![x.clone()],
    }));
    wire.extend(lookup_line("PRB-GAD-00001"));
    wire.extend(framed(&Request::Flush));
    wire.extend(lookup_line("PRB-GAD-00001"));
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.write_all(&wire).expect("pipeline written");
    let mut replies = BufReader::new(conn);

    assert!(
        matches!(recv(&mut replies), Response::Entry { entry: None, .. }),
        "the first lookup runs before the ingest"
    );
    assert!(matches!(recv(&mut replies), Response::Ack { submitted: 1 }));
    // acked is not applied: this lookup may or may not see X, but it
    // must answer in its place
    assert!(matches!(recv(&mut replies), Response::Entry { .. }));
    assert!(matches!(
        recv(&mut replies),
        Response::Flushed { applied: 1, .. }
    ));
    match recv(&mut replies) {
        Response::Entry {
            entry: Some(entry), ..
        } => assert!(entry.pages.contains(&x.id), "read-your-writes: {entry:?}"),
        other => panic!("the lookup after the flush must see X, got {other:?}"),
    }
    drop(replies);
    server.shutdown();
}

/// Livebench's open-loop pattern: a burst of pipelined reads, then a
/// half-close. The loop answers them all inline and closes the
/// connection inside the same readiness event that read them.
#[test]
fn half_close_after_pipelined_reads_gets_every_reply_then_eof() {
    const N: usize = 300;
    let server = Server::start(ServerConfig {
        preload: vec![probe()],
        ..ServerConfig::default()
    })
    .expect("server starts");
    let burst = |addr: SocketAddr| {
        let wire: Vec<u8> = (0..N)
            .flat_map(|i| {
                lookup_line(if i % 3 == 0 {
                    "NO-SUCH-00000"
                } else {
                    "PRB-GAD-00001"
                })
            })
            .collect();
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(&wire).expect("burst written");
        conn.shutdown(Shutdown::Write).expect("half-close");
        let mut text = String::new();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        conn.read_to_string(&mut text).expect("replies, then EOF");
        text
    };
    for _ in 0..3 {
        let text = burst(server.addr());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), N, "one reply per request");
        for (i, line) in lines.iter().enumerate() {
            let hit = !line.contains("\"entry\":null");
            assert!(line.starts_with("{\"entry\":"), "reply {i}: {line}");
            assert_eq!(hit, i % 3 != 0, "reply {i} answers request {i}: {line}");
        }
    }
    // the front-end survived tearing those connections down
    let mut client = Client::connect(server.addr()).expect("connect");
    client.hello().expect("still serving");
    drop(client);
    server.shutdown();
}
