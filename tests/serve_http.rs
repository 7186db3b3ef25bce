//! HTTP/1.1 front-end integration tests: framing across buffer
//! boundaries, pipelining, keep-alive, protocol autodetection, the
//! structured error statuses pinned by `docs/HTTP_API.md`, and a
//! many-idle-connections smoke against a real `bdi serve` process.
//!
//! Everything here goes over real sockets against the readiness-loop
//! front-end — the same loop that serves JSON lines — so these tests
//! double as partial-read/partial-write coverage for the framing layer.

use bdi::serve::{
    raise_nofile_limit, Client, HttpClient, Router, RouterConfig, Server, ServerConfig,
};
use bdi::synth::{World, WorldConfig};
use bdi::types::{Record, RecordId, SourceId};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

fn server() -> Server {
    Server::start(ServerConfig::default()).expect("server starts")
}

/// A server preloaded with a small world, flushed and queryable.
fn loaded_server() -> (Server, Vec<String>) {
    let w = World::generate(WorldConfig {
        n_entities: 40,
        n_sources: 6,
        ..WorldConfig::tiny(811)
    });
    let ids: Vec<String> = w
        .dataset
        .records()
        .iter()
        .filter_map(|r| r.primary_identifier().map(str::to_string))
        .collect();
    let server = Server::start(ServerConfig {
        preload: w.dataset.into_records(),
        ..ServerConfig::default()
    })
    .expect("server starts");
    (server, ids)
}

/// Write raw bytes, half-close, read everything the server says.
fn roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(raw).expect("write");
    s.shutdown(Shutdown::Write).expect("half-close");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read");
    out
}

#[test]
fn http_get_stats_over_a_raw_socket() {
    let server = server();
    let reply = roundtrip(server.addr(), b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "got: {reply}");
    assert!(reply.contains("Content-Type: application/json"));
    assert!(reply.contains("\"stats\""));
    server.shutdown();
}

/// The framing layer must assemble requests that arrive one byte per
/// read — both protocols, same port.
#[test]
fn partial_writes_cross_buffer_boundaries() {
    let server = server();

    // HTTP, one byte at a time
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_nodelay(true).unwrap();
    for b in b"GET /stats HTTP/1.1\r\n\r\n" {
        s.write_all(&[*b]).expect("write byte");
        std::thread::sleep(Duration::from_millis(1));
    }
    s.shutdown(Shutdown::Write).unwrap();
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("read");
    assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "got: {reply}");

    // JSON lines, one byte at a time (`"stats"` is the wire form of
    // the unit command)
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_nodelay(true).unwrap();
    for b in b"\"stats\"\n" {
        s.write_all(&[*b]).expect("write byte");
        std::thread::sleep(Duration::from_millis(1));
    }
    s.shutdown(Shutdown::Write).unwrap();
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("read");
    assert!(
        reply.starts_with("{\"stats\":"),
        "JSON-lines reply: {reply}"
    );

    server.shutdown();
}

/// Several requests in one packet come back in request order.
#[test]
fn pipelined_http_requests_answer_in_order() {
    let server = server();
    let reply = roundtrip(
        server.addr(),
        b"GET /stats HTTP/1.1\r\n\r\n\
          GET /lookup/NOPE HTTP/1.1\r\n\r\n\
          GET /top_k?attribute=price&k=3 HTTP/1.1\r\n\r\n",
    );
    // bodies have no trailing newline, so scan for status lines rather
    // than splitting on lines
    let statuses: Vec<&str> = reply
        .match_indices("HTTP/1.1 ")
        .map(|(i, _)| &reply[i + 9..i + 12])
        .collect();
    assert_eq!(statuses, ["200", "404", "200"], "full reply: {reply}");
    let stats_at = reply.find("\"stats\"").expect("stats body present");
    let miss_at = reply.find("not integrated").expect("404 body present");
    let entries_at = reply.find("\"entries\"").expect("top_k body present");
    assert!(
        stats_at < miss_at && miss_at < entries_at,
        "bodies in order"
    );
    server.shutdown();
}

/// A request line longer than the head cap is answered 431 and the
/// connection is closed instead of buffering without bound.
#[test]
fn oversized_request_line_is_431() {
    let server = server();
    let mut raw = Vec::from(&b"GET /"[..]);
    raw.extend(std::iter::repeat_n(b'a', 64 * 1024));
    raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    let reply = roundtrip(server.addr(), &raw);
    assert!(
        reply.starts_with("HTTP/1.1 431 "),
        "got: {}",
        &reply[..reply.len().min(120)]
    );
    assert!(reply.contains("Connection: close"));
    server.shutdown();
}

/// One keep-alive connection serves many requests; the server's
/// accepted-connection counter proves no hidden reconnects.
#[test]
fn keep_alive_reuses_one_connection() {
    let (server, ids) = loaded_server();
    let mut http = HttpClient::connect(server.addr()).expect("connect");
    http.stats().expect("stats");
    http.lookup(&ids[0]).expect("lookup");
    http.top_k("price", 3).expect("top_k");
    let text = http.metrics_text().expect("metrics");
    for family in ["serve_http_requests", "serve_http_lookup_latency_ns_count"] {
        assert!(
            text.lines().any(|l| l.starts_with(family)),
            "{family} exported"
        );
    }
    // an array body dispatches as `ingest_batch` but is labelled by the
    // route's `ingest` endpoint
    let record = Record::new(RecordId::new(SourceId(9), 1), "Lumetra LX-100");
    http.ingest_batch(&[record]).expect("batch ingest");

    // the scrape below is the second connection ever accepted
    let mut wire = Client::connect(server.addr()).expect("connect");
    let metrics = wire.metrics().expect("metrics");
    assert_eq!(
        metrics.counters.get("serve.conn.accepted").copied(),
        Some(2),
        "five HTTP calls rode one connection"
    );
    // one latency histogram per endpoint, names unchanged
    let endpoints: Vec<&str> = metrics
        .histograms
        .keys()
        .filter_map(|name| {
            name.strip_prefix("serve.http.")?
                .strip_suffix(".latency_ns")
        })
        .collect();
    assert_eq!(
        endpoints,
        [
            "filter", "flush", "ingest", "lookup", "metrics", "other", "shutdown", "stats",
            "top_k", "trace"
        ]
    );
    let count =
        |endpoint: &str| metrics.histograms[&format!("serve.http.{endpoint}.latency_ns")].count;
    assert_eq!(count("lookup"), 1);
    assert_eq!(count("ingest"), 1);
    server.shutdown();
}

/// Error statuses and their structured JSON bodies, end to end.
#[test]
fn error_statuses_carry_structured_bodies() {
    let server = server();
    let mut http = HttpClient::connect(server.addr()).expect("connect");

    let assert_error = |status: u16, body: &[u8], want_status: u16, needle: &str| {
        assert_eq!(
            status,
            want_status,
            "body: {}",
            String::from_utf8_lossy(body)
        );
        let v: serde_json::Value = serde_json::from_slice(body).expect("JSON error body");
        let message = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(|m| m.as_str())
            .expect("error.message")
            .to_string();
        assert!(
            message.contains(needle),
            "message {message:?} lacks {needle:?}"
        );
    };

    // 400: malformed ingest body
    let (status, body) = http.post("/ingest", b"{not json").expect("post");
    assert_error(status, &body, 400, "bad request");

    // 404: unknown identifier
    let (status, body) = http.get("/lookup/NO-SUCH-ID").expect("get");
    assert_error(status, &body, 404, "not integrated");

    // 404: unknown path
    let (status, body) = http.get("/nope").expect("get");
    assert_error(status, &body, 404, "no such endpoint");

    // 405: known path, wrong method
    let (status, body) = http.get("/ingest").expect("get");
    assert_error(status, &body, 405, "POST");

    // 404: a path no route serves, under any method, is not a 405
    for path in [
        "/stats/",
        "/stats/x",
        "/metrics/x",
        "/filter/x?attribute=price",
    ] {
        let (status, body) = http.get(path).expect("get");
        assert_error(status, &body, 404, "no such endpoint");
    }

    // 400: a count that is not a number, like a bad `k`
    for path in ["/filter?attribute=price&limit=abc", "/trace/recent?n=abc"] {
        let (status, body) = http.get(path).expect("get");
        assert_error(status, &body, 400, "is not a number");
    }

    // 404: fleet admin has no HTTP route
    let (status, body) = http.post("/shutdown_fleet", b"").expect("post");
    assert_error(status, &body, 404, "no such endpoint");

    server.shutdown();
}

/// A router whose only backend died maps the failure to 503 with the
/// shard error in the body — the "unavailable" contract under the
/// flush/read barriers.
#[test]
fn dead_backend_maps_to_503() {
    let backend = server();
    let router = Router::start(RouterConfig {
        backends: vec![backend.addr().to_string()],
        retries: 0,
        ..RouterConfig::default()
    })
    .expect("router starts");
    backend.shutdown();
    std::thread::sleep(Duration::from_millis(50));

    let mut http = HttpClient::connect(router.addr()).expect("connect");
    let (status, body) = http.get("/lookup/ANY").expect("get");
    assert_eq!(
        status,
        503,
        "body: {}",
        String::from_utf8_lossy(body.as_slice())
    );
    let v: serde_json::Value = serde_json::from_slice(&body).expect("JSON error body");
    let message = v
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(|m| m.as_str())
        .expect("error.message");
    assert!(
        message.contains("down") || message.contains("failed"),
        "got: {message}"
    );
    router.shutdown();
}

/// HEAD answers with the GET's status and Content-Length but no body,
/// so a pipelined follow-up request is not desynced by stray body
/// bytes.
#[test]
fn head_sends_headers_only_and_keeps_framing() {
    let server = server();
    let reply = roundtrip(
        server.addr(),
        b"HEAD /stats HTTP/1.1\r\n\r\n\
          GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    let statuses: Vec<&str> = reply
        .match_indices("HTTP/1.1 ")
        .map(|(i, _)| &reply[i + 9..i + 12])
        .collect();
    assert_eq!(statuses, ["200", "200"], "full reply: {reply}");
    let (head_resp, rest) = reply
        .split_once("\r\n\r\n")
        .expect("HEAD response head terminator");
    let advertised: usize = head_resp
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("HEAD advertises Content-Length")
        .trim()
        .parse()
        .expect("numeric length");
    assert!(advertised > 0, "length reflects the would-be GET body");
    assert!(
        rest.starts_with("HTTP/1.1 200"),
        "no body bytes between the HEAD response and the next one: {rest}"
    );
    assert!(rest.contains("\"stats\""), "the GET still carries its body");
    server.shutdown();
}

/// Shutdown must complete even when a client stuffed the server's
/// write buffer and never reads: the drain deadline force-drops the
/// wedged connection instead of hanging `Server::shutdown()` forever.
#[test]
fn shutdown_is_not_blocked_by_a_client_that_never_reads() {
    let server = server();

    // pipeline plenty of requests and never read a byte: responses fill
    // the kernel socket buffer, the rest wedges in the server's wbuf
    let mut wedged = TcpStream::connect(server.addr()).expect("connect");
    // ~20k responses is several MB — far past what the kernel socket
    // buffers absorb, so the tail is guaranteed to wedge server-side
    let mut burst = Vec::new();
    for _ in 0..20_000 {
        burst.extend_from_slice(b"GET /stats HTTP/1.1\r\n\r\n");
    }
    wedged.write_all(&burst).expect("write burst");

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown returned despite the wedged client");
    drop(wedged);
}

/// Both protocols interleave on the same port: the front-end sniffs
/// each connection's first bytes.
#[test]
fn protocols_share_one_port() {
    let (server, ids) = loaded_server();
    let mut wire = Client::connect(server.addr()).expect("wire connect");
    let mut http = HttpClient::connect(server.addr()).expect("http connect");
    let by_wire = wire.lookup(&ids[0]).expect("wire lookup");
    let by_http = http.lookup(&ids[0]).expect("http lookup");
    assert_eq!(by_wire, by_http, "identical entries over both protocols");
    assert_eq!(
        wire.stats().expect("stats").records,
        http.stats().expect("stats").records
    );
    server.shutdown();
}

/// Ingest → flush → lookup entirely over HTTP.
#[test]
fn ingest_flush_lookup_over_http() {
    let server = server();
    let mut http = HttpClient::connect(server.addr()).expect("connect");
    let w = World::generate(WorldConfig {
        n_entities: 10,
        n_sources: 3,
        ..WorldConfig::tiny(823)
    });
    let records = w.dataset.into_records();
    let id = records
        .iter()
        .find_map(|r| r.primary_identifier().map(str::to_string))
        .expect("an identifier exists");
    http.ingest_batch(&records).expect("batch ingest");
    let (generation, applied) = http.flush().expect("flush");
    assert!(generation >= 1);
    assert_eq!(applied as usize, records.len());
    let entry = http.lookup(&id).expect("lookup").expect("hit");
    assert!(!entry.title.is_empty());
    server.shutdown();
}

/// The c10k smoke: a real `bdi serve` process holds thousands of idle
/// connections while one active client keeps getting answers. The
/// server runs out of process so each side has its own fd budget (this
/// container pins RLIMIT_NOFILE's hard cap); the idle count scales to
/// whatever the limit allows, targeting 10_000.
#[test]
fn idle_connection_horde_smoke() {
    let limit = raise_nofile_limit(25_000);
    // our fds: the idle conns + the harness, server-side fds are the
    // child's problem
    let target = 10_000usize.min((limit.saturating_sub(512)) as usize);

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_bdi"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn bdi serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner line").expect("readable banner");
    let addr: SocketAddr = banner
        .split_whitespace()
        .nth(3)
        .expect("addr token")
        .parse()
        .expect("parsable addr");

    let mut idle = Vec::with_capacity(target);
    for i in 0..target {
        match TcpStream::connect(addr) {
            Ok(s) => idle.push(s),
            Err(e) => {
                // transient backlog pressure: brief pause, retry once
                std::thread::sleep(Duration::from_millis(20));
                idle.push(
                    TcpStream::connect(addr)
                        .unwrap_or_else(|e2| panic!("connect #{i} failed twice: {e} / {e2}")),
                );
            }
        }
    }

    // the loop still answers promptly with the horde parked
    let mut http = HttpClient::connect(addr).expect("active connect");
    http.stats().expect("stats under load");
    let text = http.metrics_text().expect("metrics under load");
    let open = text
        .lines()
        .find_map(|l| l.strip_prefix("serve_conn_open "))
        .and_then(|v| v.trim().parse::<i64>().ok())
        .expect("serve_conn_open exported");
    assert!(
        open >= target as i64,
        "gauge {open} should count {target} idle conns"
    );

    http.shutdown().expect("shutdown accepted");
    drop(idle);
    drop(http);
    for _ in 0..400 {
        if child.try_wait().expect("try_wait").is_some() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    child.kill().ok();
    panic!("server did not drain and exit after shutdown");
}
