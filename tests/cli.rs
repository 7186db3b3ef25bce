//! The `bdi` binary end to end: a durable, traced, metrics-exporting
//! backend and a traced router over it, each spawned as a real process
//! on ephemeral ports, driven by the CLI subcommands an operator runs —
//! `load`, `stats --prometheus`, `admin --hello`, `admin --trace-recent`
//! and `admin --trace`. The wire and HTTP behaviour underneath is pinned
//! by `tests/serve_{http,metrics,trace}.rs`; this pins that the flags
//! parse, the processes run, and the printed output carries what the
//! docs promise.

use bdi::serve::HttpClient;
use bdi::types::{Record, RecordId, SourceId, Value};
use std::io::{BufRead, BufReader, Lines};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The metric families a dashboard keys on.
const FAMILIES: [&str; 6] = [
    "serve_request_ingest_latency_ns_bucket",
    "serve_request_lookup_latency_ns_count",
    "serve_wal_fsync_batch_records_sum",
    "serve_engine_ingest_latency_ns_count",
    "serve_ingest_submitted",
    "serve_catalog_generation",
];

/// A spawned `bdi serve` / `bdi route`, killed on drop so a failing
/// assertion cannot leak it.
struct Daemon {
    child: Child,
    stdout: Lines<BufReader<ChildStdout>>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_bdi"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn bdi");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        Daemon { child, stdout }
    }

    /// The address printed on the next stdout line, right after `marker`.
    fn addr_after(&mut self, marker: &str) -> String {
        let line = self
            .stdout
            .next()
            .expect("a startup line")
            .expect("readable stdout");
        let rest = line
            .split(marker)
            .nth(1)
            .unwrap_or_else(|| panic!("no {marker:?} in {line:?}"));
        rest.split([' ', '/'])
            .next()
            .expect("an address")
            .to_string()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Run one `bdi` subcommand to completion; its stdout.
fn bdi(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bdi"))
        .args(args)
        .output()
        .expect("run bdi");
    assert!(
        out.status.success(),
        "bdi {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn missing_families(exposition: &str) -> Vec<&'static str> {
    FAMILIES
        .into_iter()
        .filter(|family| !exposition.lines().any(|l| l.starts_with(family)))
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bdi-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("UTF-8 temp path")
}

#[test]
fn serve_route_load_stats_and_admin_work_end_to_end() {
    let dir = tmp_dir("e2e");
    let data = dir.join("data");
    let metrics = dir.join("metrics.prom");
    let mut serve = Daemon::spawn(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--data-dir",
        arg(&data),
        "--metrics-file",
        arg(&metrics),
        "--metrics-interval",
        "1",
        "--http",
        "127.0.0.1:0",
        "--trace-sample",
        "1",
        "--slow-ms",
        "1000",
    ]);
    let backend = serve.addr_after("listening on ");
    let gateway = serve.addr_after("HTTP gateway on http://");
    let mut route = Daemon::spawn(&[
        "route",
        "--addr",
        "127.0.0.1:0",
        "--backends",
        &backend,
        "--trace-sample",
        "1",
    ]);
    let router = route.addr_after("listening on ");

    let load = bdi(&[
        "load",
        "--addr",
        &backend,
        "--entities",
        "60",
        "--sources",
        "8",
        "--readers",
        "2",
    ]);
    assert!(load.contains("server-side:"), "load report: {load}");
    let ingested = load
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("no record count in {load}"));

    let stats = bdi(&["stats", "--addr", &backend, "--prometheus"]);
    assert_eq!(missing_families(&stats), Vec::<&str>::new(), "{stats}");
    // the interval writer rewrites the file with the load counted
    let submitted = format!("serve_ingest_submitted {ingested}");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = std::fs::read_to_string(&metrics).unwrap_or_default();
        if text.lines().any(|l| l == submitted) {
            assert_eq!(missing_families(&text), Vec::<&str>::new(), "{text}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "metrics file never showed {submitted:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    for addr in [&backend, &router] {
        let hello = bdi(&["admin", "--addr", addr, "--hello"]);
        assert!(hello.contains("trace-context"), "{addr}: {hello}");
    }

    // a forced trace over HTTP through the router (its one port
    // autodetects HTTP beside the wire protocol)
    let trace = 0x00000000deadbeefu64;
    let id = format!("{trace:016x}");
    let mut http = HttpClient::connect(router.as_str()).expect("router HTTP");
    http.set_trace_header(Some(id.clone()));
    let record = Record::new(RecordId::new(SourceId(3), 7), "Lumetra LX-100")
        .with_identifier("CAM-LUM-00100")
        .with_attr("price", Value::num(229.0));
    http.ingest(&record).expect("traced ingest");
    assert_eq!(http.last_trace(), Some(trace), "the id is echoed back");
    http.set_trace_header(None);
    http.flush().expect("flush");

    let recent = bdi(&["admin", "--addr", &router, "--trace-recent", "8"]);
    assert!(recent.lines().any(|l| l == id), "{recent}");
    let tree = bdi(&["admin", "--addr", &router, "--trace", &id]);
    for span in ["http.request", "wal.fsync"] {
        assert!(tree.contains(span), "no {span} in:\n{tree}");
    }

    // the dedicated HTTP listener answers too, and stops the backend
    let mut gateway = HttpClient::connect(gateway.as_str()).expect("gateway");
    gateway.stats().expect("stats over the gateway");
    HttpClient::connect(router.as_str())
        .expect("router HTTP")
        .shutdown()
        .expect("router shuts down");
    gateway.shutdown().expect("backend shuts down");
    for daemon in [&mut route, &mut serve] {
        assert!(daemon.child.wait().expect("exit status").success());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
