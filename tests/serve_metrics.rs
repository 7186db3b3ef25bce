//! Observability end-to-end: a live server's metrics registry must
//! account for exactly the requests a client issued, the durability
//! path must populate the WAL fsync-batch histogram, and the
//! `--metrics-file` exposition must be valid Prometheus text format.
//!
//! Counts are asserted exactly — the histograms are lock-free but not
//! sampled, so `serve.request.lookup.latency_ns` holding anything other
//! than the number of lookups issued is a bug, not jitter.

use bdi::obs::expo;
use bdi::serve::{Client, HttpClient, Server, ServerConfig};
use bdi::synth::{World, WorldConfig};
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bdi-serve-metrics-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn metrics_account_for_every_request_and_expose_prometheus() {
    let data_dir = tmp_dir("e2e");
    let metrics_path = data_dir.join("metrics.prom");
    let world = World::generate(WorldConfig {
        n_entities: 40,
        n_sources: 6,
        ..WorldConfig::tiny(4242)
    });
    let records = world.dataset.into_records();
    let n_records = records.len() as u64;
    assert!(n_records > 20, "world is big enough to exercise the path");

    let server = Server::start(ServerConfig {
        durability: Some(bdi::serve::DurabilityConfig {
            data_dir: data_dir.clone(),
            sync_every: 8,
            snapshot_every: 4096,
        }),
        metrics_file: Some(metrics_path.clone()),
        metrics_interval: Duration::from_millis(200),
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for r in records {
        client.ingest(r).unwrap();
    }
    client.flush().unwrap();
    const LOOKUPS: u64 = 17;
    for i in 0..LOOKUPS {
        client.lookup(&format!("PROBE-{i}")).unwrap();
    }
    client.top_k("price", 3).unwrap();
    client.filter("price", Some(0.0), None, Some(5)).unwrap();

    let body = client.metrics().unwrap();
    let count_of = |name: &str| body.histograms.get(name).map_or(0, |h| h.count);

    // exact accounting: one histogram entry per request handled
    assert_eq!(count_of("serve.request.ingest.latency_ns"), n_records);
    assert_eq!(count_of("serve.request.lookup.latency_ns"), LOOKUPS);
    assert_eq!(count_of("serve.request.top_k.latency_ns"), 1);
    assert_eq!(count_of("serve.request.filter.latency_ns"), 1);
    assert_eq!(count_of("serve.request.flush.latency_ns"), 1);
    // payload sizes are recorded alongside latencies, same counts
    assert_eq!(count_of("serve.request.ingest.bytes"), n_records);
    assert_eq!(count_of("serve.request.lookup.bytes"), LOOKUPS);
    assert_eq!(body.counters["serve.request.errors"], 0);
    assert_eq!(body.counters["serve.ingest.submitted"], n_records);
    assert_eq!(body.counters["serve.ingest.applied"], n_records);

    // the engine stages ran once per applied record
    assert_eq!(count_of("serve.engine.ingest.latency_ns"), n_records);
    assert_eq!(count_of("serve.engine.candidates.latency_ns"), n_records);

    // durability: every record was appended, fsyncs were batched
    assert_eq!(count_of("serve.wal.append.latency_ns"), n_records);
    let fsync_batches = body
        .histograms
        .get("serve.wal.fsync.batch_records")
        .expect("fsync batch-size histogram is populated under --data-dir");
    assert!(fsync_batches.count > 0, "at least one real fsync happened");
    assert!(
        fsync_batches.max >= 1 && fsync_batches.max <= n_records,
        "batch sizes are sane, got max {}",
        fsync_batches.max
    );

    // reconstructed snapshot quantiles are well-formed
    let snapshot = body.to_snapshot().expect("wire body is well-formed");
    let lookup = &snapshot.histograms["serve.request.lookup.latency_ns"];
    assert!(lookup.quantile(0.99) >= lookup.quantile(0.50));

    // the metrics file appears and validates as Prometheus exposition
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let text = loop {
        match std::fs::read_to_string(&metrics_path) {
            Ok(t) if !t.is_empty() => break t,
            _ if std::time::Instant::now() > deadline => {
                panic!("metrics file never appeared at {}", metrics_path.display())
            }
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let samples = expo::validate(&text).expect("metrics file is valid Prometheus exposition");
    assert!(
        samples.contains_key("serve_ingest_submitted"),
        "key counter family exposed"
    );
    assert!(
        samples
            .keys()
            .any(|k| k.starts_with("serve_request_ingest_latency_ns_bucket")),
        "request-latency histogram exposed with buckets"
    );

    client.shutdown().unwrap();
    server.wait();

    // shutdown wrote a final exposition; it must still validate
    let final_text = std::fs::read_to_string(&metrics_path).unwrap();
    expo::validate(&final_text).expect("final metrics file is valid");
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// The request core is shared by every wire: a command that arrives
/// over HTTP lands in the same per-command histograms (and the same
/// `stats.latency` summary) as one that arrives as a JSON line.
#[test]
fn http_requests_are_counted_like_wire_requests() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut http = HttpClient::connect(server.addr()).unwrap();
    const LOOKUPS: u64 = 9;
    for i in 0..LOOKUPS {
        assert!(http.lookup(&format!("PROBE-{i}")).unwrap().is_none());
    }

    let mut client = Client::connect(server.addr()).unwrap();
    let body = client.metrics().unwrap();
    let count_of = |name: &str| body.histograms.get(name).map_or(0, |h| h.count);
    assert_eq!(count_of("serve.request.lookup.latency_ns"), LOOKUPS);
    assert_eq!(count_of("serve.request.lookup.bytes"), LOOKUPS);
    // a miss is a 404 to the HTTP client but not a failed command
    assert_eq!(body.counters["serve.request.errors"], 0);
    let latency = client.stats().unwrap().latency.expect("summary present");
    assert_eq!(latency["lookup"].count, LOOKUPS);

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn malformed_requests_count_as_errors_not_latencies() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // drive a raw bad line through the wire via the typed client's
    // stream: a lookup for a missing id is fine, but an unknown command
    // must land in serve.request.errors without a latency sample
    use std::io::{BufRead, BufReader, Write};
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    writeln!(raw, "{{\"definitely_not_a_command\": 1}}").unwrap();
    raw.flush().unwrap();
    let mut reply = String::new();
    BufReader::new(raw.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    assert!(reply.contains("error"), "bad request answered with error");
    // close the raw connection so its handler (and the ingest sender it
    // holds) exits before shutdown drains the worker
    drop(raw);

    let body = client.metrics().unwrap();
    assert_eq!(body.counters["serve.request.errors"], 1);
    let total_latency_samples: u64 = body
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("serve.request.") && name.ends_with("latency_ns"))
        .map(|(_, h)| h.count)
        .sum();
    assert_eq!(
        total_latency_samples, 0,
        "unparseable requests record no latency sample"
    );

    client.shutdown().unwrap();
    server.wait();
}
