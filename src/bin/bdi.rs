//! `bdi` — the command-line face of the integration pipeline.
//!
//! ```sh
//! bdi generate  --seed 42 --entities 500 --sources 40 --out ./ds
//! bdi integrate --in ./ds [--fusion accucopy] [--json]
//! bdi integrate --seed 42 --entities 300 --sources 20
//! bdi lookup    --in ./ds --id CAM-LUM-01042
//! bdi serve     --addr 127.0.0.1:7171 [--seed 42 --entities 300]
//! bdi route     --addr 127.0.0.1:7070 --backends 127.0.0.1:7171,127.0.0.1:7172
//! bdi load      --addr 127.0.0.1:7171 [--readers 4] [--max-source-size 60]
//! bdi stats     --addr 127.0.0.1:7171 [--prometheus]
//! ```
//!
//! `generate` writes `dataset.json`, `ground_truth.json` and
//! `config.json`; `integrate` runs linkage → alignment → fusion over a
//! generated or loaded dataset and prints a run report (with oracle
//! quality when ground truth is available); `lookup` integrates and then
//! resolves one product identifier against the fused catalog; `serve`
//! runs the live integration daemon (JSON lines and HTTP/1.1 over TCP,
//! autodetected per connection — see `bdi-serve` and
//! `docs/HTTP_API.md`); `route` runs the router tier, making N backends look
//! like one server (hash-partitioned ingest, scatter-gather reads);
//! `load` replays a synthetic world against a running server and
//! reports throughput and latency; `stats` prints a running server's
//! counters, or its full metrics registry as Prometheus text
//! exposition with `--prometheus`.

use bdi::core::report::RunReport;
use bdi::core::{metrics, run_pipeline, Catalog, FusionMethod, PipelineConfig};
use bdi::synth::{World, WorldConfig};
use bdi::types::{Dataset, GroundTruth};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some((_, run, flags)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        eprintln!("error: unknown command '{cmd}'");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(cmd, flags, rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
bdi — big data integration pipeline

USAGE:
  bdi generate  --seed N [--entities N] [--sources N] --out DIR
  bdi integrate (--in DIR | --seed N [--entities N] [--sources N])
                [--fusion vote|truthfinder|accu|accucopy] [--json]
  bdi lookup    (--in DIR | --seed N [--entities N] [--sources N])
                [--fusion vote|truthfinder|accu|accucopy] --id IDENTIFIER
  bdi serve     [--addr HOST:PORT] [--http HOST:PORT] [--in DIR | --seed N [--entities N] [--sources N]]
                [--threshold X] [--queue N] [--shards N] [--workers N]
                [--data-dir DIR [--sync-interval N] [--snapshot-every N]]
                [--metrics-file PATH [--metrics-interval SECS]] [--slow-ms MS]
                [--trace-sample N]
  bdi route     --backends HOST:PORT,HOST:PORT,... [--addr HOST:PORT] [--http HOST:PORT]
                [--replicas N] [--retries N] [--workers N]
                [--threshold X] [--batch N] [--pipeline N] [--queue N]
                [--trace-sample N]
  bdi load      [--addr HOST:PORT] [--seed N] [--entities N] [--sources N] [--max-source-size N] [--readers N] [--batch N]
  bdi stats     [--addr HOST:PORT] [--prometheus]
  bdi admin     --addr HOST:PORT (--hello
                | --split SHARD --backends HOST:PORT,...
                | --replace SHARD:REPLICA --backend HOST:PORT
                | --trace ID | --trace-recent N)
  bdi help

Front-end: serve and route accept any number of connections on one
readiness loop (epoll); each connection autodetects its protocol from
the first bytes — JSON lines or HTTP/1.1 (see docs/HTTP_API.md). A
serve loop answers lookup, stats, metrics, trace and hello itself, so
reads never wait behind writes; ingest, flush, filter, top_k and every
route read run on a dispatch pool of --workers threads (default 0 =
one worker).
--http binds an extra HTTP-flavored listener on its own port for
gateway separation.

Binary frames: servers and routers advertise the `binary-frames`
feature on `hello`; peers that see it ship the hot write-path commands
(ingest_batch, flush, sync, restore) as length-framed binary records
instead of JSON lines (see docs/PROTOCOL.md). `bdi load` negotiates
the upgrade for its ingest stream (it stays on JSON against a peer
that does not advertise the feature).

Durability: --data-dir enables the write-ahead log and generation
snapshots; restarting with the same directory recovers the ingested
state. --sync-interval batches fsyncs (records per fsync, default 64);
--snapshot-every bounds the WAL tail before compaction (default 4096).
Without --data-dir the server is purely in-memory.

Sharding: bdi route hash-partitions ingest across its --backends (all
started with the same --threshold) over pipelined, batched connections
and scatter-gathers reads, so clients talk to one address. --batch sets
records per backend request (default 64), --pipeline the batches in
flight per backend (default 4), --queue the per-backend router buffer
(default 1024). A backend links and fuses on one ingest thread, so
several backends pack onto one machine at about a core each.

Replication: with --replicas R, consecutive groups of R --backends
form one shard; ingest mirrors onto every replica and reads fail over
between them, so losing R-1 replicas of a shard loses nothing.
--retries sets extra connect attempts (exponential backoff, default 2)
before a backend is declared dead. bdi admin drives the elastic-fleet
commands against a running router: --hello prints the protocol
version/features of any peer, --split replays half of SHARD's keyspace
onto fresh backends (one per replica) and flips routing live, and
--replace rebuilds one replica on a fresh backend via WAL shipping
from a live peer.

Observability: --metrics-file atomically rewrites PATH as Prometheus
text exposition every --metrics-interval seconds (default 5);
--slow-ms logs any request slower than MS milliseconds to stderr (and,
with tracing, auto-captures a full trace of each slow request).
`bdi stats` queries a running server; with --prometheus it prints the
full metrics registry in exposition format instead of the counters.

Tracing: serve/route --trace-sample N records every Nth request as a
span tree in an in-memory flight recorder (0 = off; slow requests are
always kept when --slow-ms is set). Fetch a tree with
`bdi admin --trace ID` (ID in hex, as logged/printed), list recent ids
with `bdi admin --trace-recent N`, or use the HTTP gateway
(`GET /trace/:id`, `X-Bdi-Trace` — see docs/HTTP_API.md).";

type Opts = HashMap<String, String>;
type Run = fn(&Opts) -> Result<(), String>;

/// Every subcommand: its name, its entry point and every flag it reads.
/// `parse_opts` rejects the rest, so a typo or a flag from another
/// subcommand is an error instead of a silently ignored setting.
/// `scripts/check_docs_drift.py` holds USAGE, the operator docs and the
/// CI workflow to these lists.
const COMMANDS: &[(&str, Run, &[&str])] = &[
    (
        "generate",
        cmd_generate,
        &["seed", "entities", "sources", "out"],
    ),
    (
        "integrate",
        cmd_integrate,
        &["in", "seed", "entities", "sources", "fusion", "json"],
    ),
    (
        "lookup",
        cmd_lookup,
        &["in", "seed", "entities", "sources", "fusion", "id"],
    ),
    (
        "serve",
        cmd_serve,
        &[
            "addr",
            "http",
            "in",
            "seed",
            "entities",
            "sources",
            "threshold",
            "queue",
            "shards",
            "workers",
            "data-dir",
            "sync-interval",
            "snapshot-every",
            "metrics-file",
            "metrics-interval",
            "slow-ms",
            "trace-sample",
        ],
    ),
    (
        "route",
        cmd_route,
        &[
            "backends",
            "addr",
            "http",
            "replicas",
            "retries",
            "workers",
            "threshold",
            "batch",
            "pipeline",
            "queue",
            "trace-sample",
        ],
    ),
    (
        "load",
        cmd_load,
        &[
            "addr",
            "seed",
            "entities",
            "sources",
            "max-source-size",
            "readers",
            "batch",
        ],
    ),
    ("stats", cmd_stats, &["addr", "prometheus"]),
    (
        "admin",
        cmd_admin,
        &[
            "addr",
            "hello",
            "split",
            "backends",
            "replace",
            "backend",
            "trace",
            "trace-recent",
        ],
    ),
];

fn parse_opts(cmd: &str, known: &[&str], args: &[String]) -> Result<Opts, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, got '{flag}'"));
        };
        if !known.contains(&key) {
            return Err(format!("unknown flag '--{key}' for '{cmd}'"));
        }
        if matches!(key, "json" | "prometheus" | "hello") {
            out.insert(key.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(format!("--{key} needs a value"));
        };
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn num<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse '{v}'")),
    }
}

fn world_from_opts(opts: &Opts) -> Result<World, String> {
    let cfg = WorldConfig {
        seed: num(opts, "seed", 42u64)?,
        n_entities: num(opts, "entities", 500usize)?,
        n_sources: num(opts, "sources", 40usize)?,
        max_source_size: num(opts, "entities", 500usize)?.max(20) / 2 + 50,
        min_source_size: 5,
        ..WorldConfig::default()
    };
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(World::generate(cfg))
}

/// Load `(dataset, truth?)` from `--in`, or generate from `--seed`.
fn load_or_generate(opts: &Opts) -> Result<(Dataset, Option<GroundTruth>), String> {
    if let Some(dir) = opts.get("in") {
        let ds_text = std::fs::read_to_string(format!("{dir}/dataset.json"))
            .map_err(|e| format!("{dir}/dataset.json: {e}"))?;
        let mut ds: Dataset = serde_json::from_str(&ds_text).map_err(|e| e.to_string())?;
        ds.rebuild_index();
        let truth = std::fs::read_to_string(format!("{dir}/ground_truth.json"))
            .ok()
            .and_then(|t| serde_json::from_str(&t).ok());
        Ok((ds, truth))
    } else {
        let w = world_from_opts(opts)?;
        Ok((w.dataset, Some(w.truth)))
    }
}

fn pipeline_config(opts: &Opts) -> Result<PipelineConfig, String> {
    let fusion = match opts.get("fusion").map(String::as_str) {
        None | Some("accucopy") => FusionMethod::AccuCopy,
        Some("accu") => FusionMethod::Accu,
        Some("vote") => FusionMethod::Vote,
        Some("truthfinder") => FusionMethod::TruthFinder,
        Some(other) => return Err(format!("--fusion: unknown method '{other}'")),
    };
    Ok(PipelineConfig {
        fusion,
        ..PipelineConfig::default()
    })
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let out = opts.get("out").ok_or("generate needs --out DIR")?;
    let w = world_from_opts(opts)?;
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let dump = |name: &str, json: String| -> Result<(), String> {
        std::fs::write(format!("{out}/{name}"), json).map_err(|e| e.to_string())
    };
    dump(
        "dataset.json",
        serde_json::to_string_pretty(&w.dataset).map_err(|e| e.to_string())?,
    )?;
    dump(
        "ground_truth.json",
        serde_json::to_string_pretty(&w.truth).map_err(|e| e.to_string())?,
    )?;
    dump(
        "config.json",
        serde_json::to_string_pretty(&w.config).map_err(|e| e.to_string())?,
    )?;
    println!(
        "wrote {out}/dataset.json ({} records, {} sources, {} entities)",
        w.dataset.len(),
        w.dataset.source_count(),
        w.catalog.len()
    );
    Ok(())
}

fn cmd_integrate(opts: &Opts) -> Result<(), String> {
    let (ds, truth) = load_or_generate(opts)?;
    let cfg = pipeline_config(opts)?;
    let res = run_pipeline(&ds, &cfg).map_err(|e| e.to_string())?;
    let quality = truth.as_ref().map(|t| metrics::evaluate(&res, &ds, t));
    let report = RunReport::new(&ds, &res, quality.as_ref());
    if opts.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", report.render());
    }
    Ok(())
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let preload = if opts.contains_key("in") || opts.contains_key("seed") {
        let (ds, _) = load_or_generate(opts)?;
        ds.into_records()
    } else {
        Vec::new()
    };
    let durability = match opts.get("data-dir") {
        Some(dir) => Some(bdi::serve::DurabilityConfig {
            data_dir: dir.into(),
            sync_every: num(opts, "sync-interval", 64usize)?,
            snapshot_every: num(opts, "snapshot-every", 4096u64)?,
        }),
        None => None,
    };
    let durable = durability.is_some();
    let metrics_file = opts.get("metrics-file").map(std::path::PathBuf::from);
    let cfg = bdi::serve::ServerConfig {
        addr: opts
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7171".to_string()),
        threshold: num(opts, "threshold", 0.9f64)?,
        queue_capacity: num(opts, "queue", 256usize)?,
        shards: num(opts, "shards", 8usize)?,
        preload,
        durability,
        slow_ms: opts
            .get("slow-ms")
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--slow-ms: cannot parse '{v}'"))
            })
            .transpose()?,
        metrics_file: metrics_file.clone(),
        metrics_interval: std::time::Duration::from_secs(num(opts, "metrics-interval", 5u64)?),
        trace_sample: num(opts, "trace-sample", 0u64)?,
        http_addr: opts.get("http").cloned(),
        workers: num(opts, "workers", 0usize)?,
        ..Default::default()
    };
    let server = bdi::serve::Server::start(cfg).map_err(|e| e.to_string())?;
    println!(
        "bdi-serve listening on {} (generation {}, {}); send \"shutdown\" to stop",
        server.addr(),
        server.generation(),
        if durable { "durable" } else { "in-memory" }
    );
    if let Some(http) = server.http_addr() {
        println!("HTTP gateway on http://{http}/ (see docs/HTTP_API.md)");
    }
    if let Some(path) = metrics_file {
        println!("metrics exposition at {}", path.display());
    }
    server.wait();
    Ok(())
}

fn cmd_route(opts: &Opts) -> Result<(), String> {
    let backends: Vec<String> = opts
        .get("backends")
        .ok_or("route needs --backends HOST:PORT,HOST:PORT,...")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let cfg = bdi::serve::RouterConfig {
        addr: opts
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7070".to_string()),
        backends,
        replicas: num(opts, "replicas", 1usize)?,
        threshold: num(opts, "threshold", 0.9f64)?,
        batch: num(opts, "batch", 64usize)?,
        pipeline: num(opts, "pipeline", 4usize)?,
        queue_capacity: num(opts, "queue", 1024usize)?,
        retries: num(opts, "retries", 2u32)?,
        http_addr: opts.get("http").cloned(),
        workers: num(opts, "workers", 0usize)?,
        trace_sample: num(opts, "trace-sample", 0u64)?,
    };
    let n = cfg.backends.len();
    let replicas = cfg.replicas.max(1);
    let router = bdi::serve::Router::start(cfg).map_err(|e| e.to_string())?;
    println!(
        "bdi-route listening on {} over {} shard{} x {replicas} replica{}; send \"shutdown\" to stop",
        router.addr(),
        n / replicas,
        if n / replicas == 1 { "" } else { "s" },
        if replicas == 1 { "" } else { "s" }
    );
    if let Some(http) = router.http_addr() {
        println!("HTTP gateway on http://{http}/ (see docs/HTTP_API.md)");
    }
    router.wait();
    Ok(())
}

fn cmd_load(opts: &Opts) -> Result<(), String> {
    let addr = opts
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7171".to_string());
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("--addr: cannot parse '{addr}'"))?;
    let cfg = bdi::serve::LoadConfig {
        seed: num(opts, "seed", 7u64)?,
        entities: num(opts, "entities", 120usize)?,
        sources: num(opts, "sources", 12usize)?,
        max_source_size: num(opts, "max-source-size", 60usize)?,
        readers: num(opts, "readers", 4usize)?,
        batch: num(opts, "batch", 1usize)?,
    };
    let report = bdi::serve::run_load(addr, &cfg).map_err(|e| e.to_string())?;
    println!(
        "ingested {} records in {:.2}s ({:.0} rec/s), p50 {}us, p99 {}us, generation {}",
        report.records,
        report.ingest_secs,
        report.ingest_per_sec,
        report.ingest_p50_us,
        report.ingest_p99_us,
        report.generation
    );
    if cfg.batch > 1 {
        println!(
            "batched: {} records per request (median), per-request p50/p99 above",
            report.batch_records_p50
        );
    }
    println!(
        "{} readers: {} lookups ({:.0}/s), p50 {}us, p99 {}us",
        cfg.readers, report.queries, report.reads_per_sec, report.p50_us, report.p99_us
    );
    println!(
        "server-side: ingest p50 {}ns p99 {}ns, lookup p50 {}ns p99 {}ns",
        report.server_ingest_p50_ns,
        report.server_ingest_p99_ns,
        report.server_lookup_p50_ns,
        report.server_lookup_p99_ns
    );
    if report.read_failovers > 0
        || report.backend_retries > 0
        || report.replicas_dropped > 0
        || !report.replica_errors.is_empty()
    {
        println!(
            "fleet: {} read failover{}, {} connect retr{}, {} copy(ies) dropped on down lanes",
            report.read_failovers,
            if report.read_failovers == 1 { "" } else { "s" },
            report.backend_retries,
            if report.backend_retries == 1 {
                "y"
            } else {
                "ies"
            },
            report.replicas_dropped
        );
        for (lane, errors) in &report.replica_errors {
            println!("  {lane} = {errors}");
        }
    }
    Ok(())
}

fn cmd_admin(opts: &Opts) -> Result<(), String> {
    let addr = opts
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let mut client = bdi::serve::Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
    if opts.contains_key("hello") {
        let (version, features) = client.hello().map_err(|e| e.to_string())?;
        println!(
            "{addr}: protocol v{version}, features: {}",
            features.join(", ")
        );
        return Ok(());
    }
    if let Some(shard) = opts.get("split") {
        let shard: usize = shard
            .parse()
            .map_err(|_| format!("--split: cannot parse shard '{shard}'"))?;
        let backends: Vec<String> = opts
            .get("backends")
            .ok_or("--split needs --backends HOST:PORT[,HOST:PORT...] (one per replica)")?
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let (new_shard, moved) = client.split(shard, backends).map_err(|e| e.to_string())?;
        println!("split shard {shard}: shard {new_shard} now serves {moved} replayed record(s)");
        return Ok(());
    }
    if let Some(slot) = opts.get("replace") {
        let (shard, replica) = slot
            .split_once(':')
            .and_then(|(s, r)| Some((s.parse().ok()?, r.parse().ok()?)))
            .ok_or_else(|| format!("--replace: expected SHARD:REPLICA, got '{slot}'"))?;
        let backend = opts
            .get("backend")
            .ok_or("--replace needs --backend HOST:PORT")?
            .clone();
        let synced = client
            .replace(shard, replica, backend.clone())
            .map_err(|e| e.to_string())?;
        println!(
            "replaced shard {shard} replica {replica} with {backend} ({synced} records synced)"
        );
        return Ok(());
    }
    if let Some(id) = opts.get("trace") {
        let id = u64::from_str_radix(id.trim_start_matches("0x"), 16)
            .map_err(|_| format!("--trace: expected a hex trace id, got '{id}'"))?;
        let body = client.trace(id).map_err(|e| e.to_string())?;
        if body.spans.is_empty() {
            return Err(format!(
                "trace {id:016x} is not in the flight recorder (traces age out; re-capture and fetch promptly)"
            ));
        }
        let tree = bdi::serve::TraceTree::from_spans(id, body.spans);
        println!("trace {id:016x}");
        for root in &tree.roots {
            print_trace_node(root, 0);
        }
        return Ok(());
    }
    if let Some(n) = opts.get("trace-recent") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("--trace-recent: cannot parse '{n}'"))?;
        let recent = client.trace_recent(n).map_err(|e| e.to_string())?;
        if recent.is_empty() {
            println!("no retained traces (is --trace-sample set on the server?)");
        }
        for id in recent {
            println!("{id:016x}");
        }
        return Ok(());
    }
    Err("admin needs one of --hello, --split, --replace, --trace, --trace-recent".to_string())
}

/// One line per span: indent by depth, name, command kind, wall and
/// self time, then the small numeric attributes.
fn print_trace_node(node: &bdi::serve::TraceTreeNode, depth: usize) {
    let span = &node.span;
    let cmd = if span.cmd.is_empty() {
        String::new()
    } else {
        format!(" [{}]", span.cmd)
    };
    let attrs = if span.attrs.is_empty() {
        String::new()
    } else {
        let parts: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("  {}", parts.join(" "))
    };
    println!(
        "{:indent$}{}{cmd}  {:.1}us (self {:.1}us){attrs}",
        "",
        span.name,
        span.duration_ns() as f64 / 1_000.0,
        node.self_ns as f64 / 1_000.0,
        indent = depth * 2
    );
    for child in &node.children {
        print_trace_node(child, depth + 1);
    }
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let addr = opts
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7171".to_string());
    let mut client = bdi::serve::Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
    if opts.contains_key("prometheus") {
        let body = client.metrics().map_err(|e| e.to_string())?;
        let snapshot = body
            .to_snapshot()
            .ok_or("server sent a malformed metrics body")?;
        print!("{}", snapshot.to_prometheus());
    } else {
        let stats = client.stats().map_err(|e| e.to_string())?;
        println!(
            "{}",
            serde_json::to_string_pretty(&stats).map_err(|e| e.to_string())?
        );
    }
    Ok(())
}

fn cmd_lookup(opts: &Opts) -> Result<(), String> {
    let id = opts.get("id").ok_or("lookup needs --id IDENTIFIER")?;
    let (ds, _) = load_or_generate(opts)?;
    let cfg = pipeline_config(opts)?;
    let res = run_pipeline(&ds, &cfg).map_err(|e| e.to_string())?;
    let catalog = Catalog::materialize(&ds, &res);
    match catalog.lookup(id) {
        Some(entry) => {
            println!(
                "\"{}\" ({} pages on {} sources)",
                entry.title,
                entry.pages.len(),
                entry.sources().len()
            );
            for (attr, value) in &entry.attributes {
                println!("  {attr:<24} = {value}");
            }
            Ok(())
        }
        None => Err(format!("identifier '{id}' not found in the fused catalog")),
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_opts, COMMANDS};

    fn parse(cmd: &str, args: &[&str]) -> Result<Vec<String>, String> {
        let (_, _, known) = COMMANDS
            .iter()
            .find(|(name, ..)| *name == cmd)
            .expect("a real subcommand");
        let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
        parse_opts(cmd, known, &args).map(|opts| {
            let mut keys: Vec<String> = opts.into_keys().collect();
            keys.sort();
            keys
        })
    }

    #[test]
    fn flags_a_subcommand_reads_are_accepted() {
        assert_eq!(
            parse("serve", &["--data-dir", "/x", "--workers", "2"]),
            Ok(vec!["data-dir".to_string(), "workers".to_string()])
        );
        // `--prometheus` is a switch: the flag after it is not its value
        assert_eq!(
            parse("stats", &["--prometheus", "--addr", "127.0.0.1:1"]),
            Ok(vec!["addr".to_string(), "prometheus".to_string()])
        );
    }

    #[test]
    fn a_typo_is_an_error_not_an_in_memory_server() {
        assert_eq!(
            parse("serve", &["--datadir", "/x"]),
            Err("unknown flag '--datadir' for 'serve'".to_string())
        );
    }

    #[test]
    fn a_removed_flag_is_an_error_not_a_no_op() {
        assert_eq!(
            parse("serve", &["--no-wal", "1"]),
            Err("unknown flag '--no-wal' for 'serve'".to_string())
        );
    }

    #[test]
    fn another_subcommands_flag_is_an_error() {
        assert_eq!(
            parse("serve", &["--backends", "127.0.0.1:1"]),
            Err("unknown flag '--backends' for 'serve'".to_string())
        );
        assert_eq!(
            parse("route", &["--data-dir", "/x"]),
            Err("unknown flag '--data-dir' for 'route'".to_string())
        );
    }
}
