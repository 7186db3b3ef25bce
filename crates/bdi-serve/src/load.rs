//! The synthetic load driver: replay a generated product web as a live
//! ingest stream while reader threads hammer lookups.
//!
//! This is the serve-path experiment harness. One writer connection
//! feeds every record of a [`bdi_synth::World`] through the ingest
//! queue; `readers` connections spin on `lookup` of identifiers drawn
//! from the world's catalog the whole time. The report gives ingest
//! throughput and read latency percentiles. (For performance *claims*
//! use `livebench/`, the repository's declared benchmark.)

use crate::client::{Client, HttpClient};
use crate::protocol::{Request, Response};
use bdi_obs::{Registry, TraceContext};
use bdi_synth::{World, WorldConfig};
use bdi_types::Record;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Load-run shape.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// World seed.
    pub seed: u64,
    /// Entities in the generated world.
    pub entities: usize,
    /// Sources in the generated world.
    pub sources: usize,
    /// Records per source, at most — larger caps make denser worlds
    /// (more records per entity, heavier candidate lists) for hot-path
    /// measurement.
    pub max_source_size: usize,
    /// Concurrent reader connections.
    pub readers: usize,
    /// Records per ingest request: 0 or 1 sends one `ingest` per
    /// record; larger values chunk the stream into `ingest_batch`
    /// requests, amortizing round trips — the mode that feeds the
    /// router tier at full rate.
    pub batch: usize,
    /// Drive the server over HTTP/1.1 (`GET /lookup/:id`,
    /// `POST /ingest`) instead of JSON lines. Same port: the front-end
    /// autodetects the protocol from the first bytes of each
    /// connection.
    pub http: bool,
    /// Negotiate binary frames for the ingest stream (`hello` feature
    /// `binary-frames`). Opportunistic: a peer that does not advertise
    /// the feature simply keeps the run on JSON lines — check
    /// [`LoadReport::wire_binary`] for what actually happened. Ignored
    /// when `http` is set.
    pub binary: bool,
    /// Mint a fresh client-side trace id for every Nth ingest request
    /// (0 = none), propagated as trace context (wire envelope / frame
    /// extension, or the `X-Bdi-Trace` header on HTTP runs) so the
    /// server records those requests end to end.
    pub trace_sample: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            entities: 120,
            sources: 12,
            max_source_size: 60,
            readers: 4,
            batch: 1,
            http: false,
            binary: false,
            trace_sample: 0,
        }
    }
}

/// One load connection, speaking whichever protocol the run selected.
/// Both arms hit the same request core server-side, so the measured
/// work is identical — only the framing differs.
enum Driver {
    Wire(Client),
    Http(HttpClient),
}

impl Driver {
    fn connect(addr: SocketAddr, http: bool, binary: bool, trace: bool) -> std::io::Result<Self> {
        Ok(if http {
            Driver::Http(HttpClient::connect(addr)?)
        } else {
            let mut client = Client::connect(addr)?;
            if binary {
                client.negotiate_binary()?;
            } else if trace {
                // learn `trace-context` without flipping the wire binary
                client.negotiate_trace()?;
            }
            Driver::Wire(client)
        })
    }

    fn is_binary(&self) -> bool {
        match self {
            Driver::Wire(c) => c.is_binary(),
            Driver::Http(_) => false,
        }
    }

    fn lookup(&mut self, identifier: &str) -> std::io::Result<()> {
        match self {
            Driver::Wire(c) => c.lookup(identifier).map(drop),
            Driver::Http(c) => c.lookup(identifier).map(drop),
        }
    }

    fn ingest(&mut self, record: Record, trace: Option<u64>) -> std::io::Result<u64> {
        match self {
            Driver::Wire(c) => match trace {
                Some(t) => ack(c.call_traced(&Request::Ingest { record }, root_ctx(t))?),
                None => c.ingest(record),
            },
            Driver::Http(c) => with_trace_header(c, trace, |c| c.ingest(&record)),
        }
    }

    fn ingest_batch(&mut self, records: Vec<Record>, trace: Option<u64>) -> std::io::Result<u64> {
        match self {
            Driver::Wire(c) => match trace {
                Some(t) => ack(c.call_traced(&Request::IngestBatch { records }, root_ctx(t))?),
                None => c.ingest_batch(records),
            },
            Driver::Http(c) => with_trace_header(c, trace, |c| c.ingest_batch(&records)),
        }
    }

    fn flush(&mut self) -> std::io::Result<(u64, u64)> {
        match self {
            Driver::Wire(c) => c.flush(),
            Driver::Http(c) => c.flush(),
        }
    }
}

/// A client-minted root context: the load driver is the trace origin,
/// so the server's request span becomes the root's first child.
fn root_ctx(trace: u64) -> TraceContext {
    TraceContext {
        trace,
        parent: bdi_obs::trace::NO_PARENT,
    }
}

fn ack(response: Response) -> std::io::Result<u64> {
    match response {
        Response::Ack { submitted } => Ok(submitted),
        Response::Error { message } => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            message,
        )),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected response: {other:?}"),
        )),
    }
}

/// Run one HTTP call under an `X-Bdi-Trace` header (cleared after).
fn with_trace_header<T>(
    c: &mut HttpClient,
    trace: Option<u64>,
    call: impl FnOnce(&mut HttpClient) -> std::io::Result<T>,
) -> std::io::Result<T> {
    if let Some(t) = trace {
        c.set_trace_header(Some(format!("{t:016x}")));
    }
    let result = call(c);
    if trace.is_some() {
        c.set_trace_header(None);
    }
    result
}

/// What a load run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Records ingested.
    pub records: usize,
    /// Wall-clock seconds for the full ingest (including final flush).
    pub ingest_secs: f64,
    /// Records per second through the ingest path.
    pub ingest_per_sec: f64,
    /// Median per-request ingest round-trip latency, microseconds (one
    /// record per request unless batching) — the number the WAL fsync
    /// batching must keep close to in-memory.
    pub ingest_p50_us: u64,
    /// 99th-percentile per-request ingest round-trip latency,
    /// microseconds (captures fsync and backpressure stalls).
    pub ingest_p99_us: u64,
    /// Median records per ingest request, from the driver-side
    /// batch-size histogram (1 when not batching; the final partial
    /// chunk makes this a distribution rather than a constant).
    pub batch_records_p50: u64,
    /// Total lookups completed across all readers during the ingest.
    pub queries: u64,
    /// Lookups per second across all readers.
    pub reads_per_sec: f64,
    /// Median lookup latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile lookup latency, microseconds.
    pub p99_us: u64,
    /// Generation number after the final flush.
    pub generation: u64,
    /// Pairwise candidate comparisons the server performed for the
    /// whole run (from its stats counters after the final flush).
    pub comparisons: u64,
    /// Candidates the engine skipped via the root filter (already
    /// merged with the arriving record), from
    /// `serve.engine.candidates.pruned.root` after the final flush.
    pub pruned_root: u64,
    /// Candidates the engine skipped via the admissible score-bound
    /// filter, from `serve.engine.candidates.pruned.bound`.
    pub pruned_bound: u64,
    /// Posting-list entries the hot-key cap skipped during candidate
    /// generation, from `serve.linkage.postings.skipped`.
    pub postings_skipped: u64,
    /// Server-side median ingest handling latency, **nanoseconds** —
    /// from the server's request-latency histogram for the ingest
    /// command used (`ingest`, or `ingest_batch` when batching); the
    /// gap to [`LoadReport::ingest_p50_us`] is wire + client overhead.
    /// Nanoseconds because the in-memory ingest handler only enqueues:
    /// its median is routinely sub-microsecond, which a µs report
    /// floors to a meaningless 0.
    pub server_ingest_p50_ns: u64,
    /// Server-side 99th-percentile ingest handling latency,
    /// nanoseconds.
    pub server_ingest_p99_ns: u64,
    /// Server-side median `lookup` handling latency, nanoseconds —
    /// from `serve.request.lookup.latency_ns`.
    pub server_lookup_p50_ns: u64,
    /// Server-side 99th-percentile `lookup` handling latency,
    /// nanoseconds.
    pub server_lookup_p99_ns: u64,
    /// Reads the router re-sent to another replica after an I/O error
    /// (`route.read.failovers`; 0 against a single backend).
    pub read_failovers: u64,
    /// Backend connect attempts the router retried after transient
    /// failures (`route.backend.retries`).
    pub backend_retries: u64,
    /// Record copies the router dropped because a lane was down
    /// (`route.ingest.replicas_dropped`).
    pub replicas_dropped: u64,
    /// Per-lane error counters (`route.shard{s}.replica{r}.errors`),
    /// name-sorted — non-empty only when lanes actually failed.
    pub replica_errors: Vec<(String, u64)>,
    /// Whether the ingest stream actually went over binary frames
    /// (requested via [`LoadConfig::binary`] *and* granted by the
    /// server's `hello`).
    pub wire_binary: bool,
    /// Ingest requests sent under a minted trace id
    /// ([`LoadConfig::trace_sample`] > 0).
    pub traced_requests: u64,
    /// The last minted trace id — fetch its tree with
    /// `bdi admin --trace <id>` or `GET /trace/:id` while it's hot.
    pub last_trace_id: Option<u64>,
}

/// Generate a world and replay it against a running server at `addr`.
pub fn run_load(addr: SocketAddr, cfg: &LoadConfig) -> std::io::Result<LoadReport> {
    let world = World::generate(WorldConfig {
        n_entities: cfg.entities,
        n_sources: cfg.sources,
        max_source_size: cfg.max_source_size,
        ..WorldConfig::tiny(cfg.seed)
    });
    let mut pool: Vec<String> = world
        .dataset
        .records()
        .iter()
        .filter_map(|r| r.primary_identifier().map(str::to_string))
        .collect();
    pool.sort_unstable();
    pool.dedup();
    if pool.is_empty() {
        pool.push("NO-IDENTIFIERS-ANYWHERE".to_string());
    }
    let records = world.dataset.into_records();
    let total = records.len();
    let pool = Arc::new(pool);
    let stop = Arc::new(AtomicBool::new(false));

    let http = cfg.http;

    let readers: Vec<_> = (0..cfg.readers)
        .map(|reader_idx| {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> std::io::Result<Vec<u64>> {
                // readers stay on JSON: lookup has no binary encoding
                let mut client = Driver::connect(addr, http, false, false)?;
                let mut latencies = Vec::new();
                // stride the pool differently per reader so shards all
                // see traffic without needing a shared RNG
                let mut cursor = reader_idx * 31;
                while !stop.load(Ordering::SeqCst) {
                    let id = &pool[cursor % pool.len()];
                    cursor = cursor
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let t = Instant::now();
                    client.lookup(id)?;
                    latencies.push(t.elapsed().as_micros() as u64);
                }
                Ok(latencies)
            })
        })
        .collect();

    let mut writer = Driver::connect(addr, cfg.http, cfg.binary, cfg.trace_sample > 0)?;
    let wire_binary = writer.is_binary();
    let mut ingest_latencies: Vec<u64> = Vec::with_capacity(total);
    // driver-side batch-size distribution (the last chunk is partial)
    let batch_hist = Registry::new().histogram("load.ingest.batch_records");
    let batch = cfg.batch.max(1);
    // client-side trace-id mint for the 1-in-N sampled requests
    let mint = bdi_obs::Tracer::new();
    let mut reqno = 0u64;
    let mut traced_requests = 0u64;
    let mut last_trace_id = None;
    let next_trace = |reqno: &mut u64| -> Option<u64> {
        *reqno += 1;
        (cfg.trace_sample > 0 && (*reqno).is_multiple_of(cfg.trace_sample)).then(|| mint.fresh_id())
    };
    let t0 = Instant::now();
    if batch == 1 {
        for r in records {
            batch_hist.record(1);
            let trace = next_trace(&mut reqno);
            if let Some(t) = trace {
                traced_requests += 1;
                last_trace_id = Some(t);
            }
            let t = Instant::now();
            writer.ingest(r, trace)?;
            ingest_latencies.push(t.elapsed().as_micros() as u64);
        }
    } else {
        let mut stream = records.into_iter().peekable();
        while stream.peek().is_some() {
            let chunk: Vec<_> = stream.by_ref().take(batch).collect();
            batch_hist.record(chunk.len() as u64);
            let trace = next_trace(&mut reqno);
            if let Some(t) = trace {
                traced_requests += 1;
                last_trace_id = Some(t);
            }
            let t = Instant::now();
            writer.ingest_batch(chunk, trace)?;
            ingest_latencies.push(t.elapsed().as_micros() as u64);
        }
    }
    let (generation, _) = writer.flush()?;
    let ingest_secs = t0.elapsed().as_secs_f64();
    // The accounting scrape always speaks JSON lines: the `metrics`
    // command returns the full histogram snapshot, which the HTTP
    // Prometheus exposition doesn't. The front-end autodetects the
    // protocol per connection, so this works on the same port even when
    // the load traffic itself was HTTP.
    let mut scrape = Client::connect(addr)?;
    let comparisons = scrape.stats()?.comparisons;
    let metrics = scrape.metrics()?;
    stop.store(true, Ordering::SeqCst);

    let mut latencies: Vec<u64> = Vec::new();
    for handle in readers {
        match handle.join() {
            Ok(Ok(mut l)) => latencies.append(&mut l),
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                return Err(std::io::Error::other("reader thread panicked"));
            }
        }
    }
    latencies.sort_unstable();
    ingest_latencies.sort_unstable();
    let queries = latencies.len() as u64;
    let pct = |sorted: &[u64], p: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    };

    // server-side handling percentiles (exclude wire + client time),
    // from the request-latency histograms captured after the flush —
    // kept in nanoseconds: the enqueue-only ingest handler is routinely
    // sub-µs and would floor to 0 in microseconds
    let server_ns = |histogram: &str, q: f64| metrics.quantile_ns(histogram, q).unwrap_or(0);
    let ingest_hist = if batch == 1 {
        "serve.request.ingest.latency_ns"
    } else {
        "serve.request.ingest_batch.latency_ns"
    };

    // router-tier failure accounting (all-zero against a single backend:
    // the route.* families simply aren't in the merged registry)
    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
    let replica_errors: Vec<(String, u64)> = metrics
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("route.shard") && name.ends_with(".errors"))
        .map(|(name, v)| (name.clone(), *v))
        .collect();

    Ok(LoadReport {
        records: total,
        ingest_secs,
        ingest_per_sec: total as f64 / ingest_secs.max(1e-9),
        ingest_p50_us: pct(&ingest_latencies, 0.50),
        ingest_p99_us: pct(&ingest_latencies, 0.99),
        batch_records_p50: batch_hist.snapshot().quantile(0.50),
        queries,
        reads_per_sec: queries as f64 / ingest_secs.max(1e-9),
        p50_us: pct(&latencies, 0.50),
        p99_us: pct(&latencies, 0.99),
        generation,
        comparisons,
        pruned_root: counter("serve.engine.candidates.pruned.root"),
        pruned_bound: counter("serve.engine.candidates.pruned.bound"),
        postings_skipped: counter("serve.linkage.postings.skipped"),
        server_ingest_p50_ns: server_ns(ingest_hist, 0.50),
        server_ingest_p99_ns: server_ns(ingest_hist, 0.99),
        server_lookup_p50_ns: server_ns("serve.request.lookup.latency_ns", 0.50),
        server_lookup_p99_ns: server_ns("serve.request.lookup.latency_ns", 0.99),
        read_failovers: counter("route.read.failovers"),
        backend_retries: counter("route.backend.retries"),
        replicas_dropped: counter("route.ingest.replicas_dropped"),
        replica_errors,
        wire_binary,
        traced_requests,
        last_trace_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};

    #[test]
    fn load_run_reports_progress() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let cfg = LoadConfig {
            entities: 40,
            sources: 6,
            readers: 2,
            ..Default::default()
        };
        let report = run_load(server.addr(), &cfg).unwrap();
        assert!(report.records > 0);
        assert!(report.ingest_per_sec > 0.0);
        assert!(report.queries > 0, "readers ran during ingest");
        assert!(report.p99_us >= report.p50_us);
        assert!(report.ingest_p99_us >= report.ingest_p50_us);
        assert!(report.ingest_p50_us > 0, "ingest round trips were timed");
        // the whole point of reporting nanoseconds: the enqueue-only
        // ingest handler's median is sub-µs but must not read as zero
        assert!(
            report.server_ingest_p50_ns > 0,
            "ns precision keeps sub-µs handling visible"
        );
        assert!(report.server_ingest_p99_ns >= report.server_ingest_p50_ns);
        assert!(report.server_lookup_p99_ns >= report.server_lookup_p50_ns);
        assert_eq!(report.batch_records_p50, 1, "unbatched run");
        assert!(report.generation >= 1);
        // single backend: no router tier, so no failover accounting
        assert_eq!(report.read_failovers, 0);
        assert_eq!(report.backend_retries, 0);
        assert!(report.replica_errors.is_empty());
        server.shutdown();
    }

    #[test]
    fn http_load_drives_the_same_handlers() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let cfg = LoadConfig {
            entities: 40,
            sources: 6,
            readers: 2,
            batch: 8,
            http: true,
            ..Default::default()
        };
        // same port as JSON lines: the front-end sniffs the protocol
        let report = run_load(server.addr(), &cfg).unwrap();
        assert!(report.records > 0);
        assert!(report.queries > 0, "HTTP readers ran during ingest");
        assert!(report.generation >= 1, "HTTP flush advanced a generation");
        assert!(report.comparisons > 0, "scrape still works over JSON lines");
        server.shutdown();
    }

    #[test]
    fn batched_load_amortizes_round_trips() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let cfg = LoadConfig {
            entities: 40,
            sources: 6,
            readers: 0,
            batch: 16,
            ..Default::default()
        };
        let report = run_load(server.addr(), &cfg).unwrap();
        assert!(report.records > 16, "several batches went out");
        assert!(
            report.batch_records_p50 >= 8,
            "median request carries a full-ish batch, got {}",
            report.batch_records_p50
        );
        assert!(
            report.server_ingest_p50_ns > 0,
            "ingest_batch handling histogram populated"
        );
        assert!(report.generation >= 1);
        server.shutdown();
    }

    #[test]
    fn binary_load_negotiates_and_completes() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let cfg = LoadConfig {
            entities: 40,
            sources: 6,
            readers: 1,
            batch: 16,
            binary: true,
            ..Default::default()
        };
        let report = run_load(server.addr(), &cfg).unwrap();
        assert!(report.wire_binary, "default server grants binary-frames");
        assert!(report.records > 16);
        assert!(report.generation >= 1, "binary flush advanced a generation");
        assert!(
            report.server_ingest_p50_ns > 0,
            "binary ingest lands in the same handling histogram"
        );
        server.shutdown();
    }

    /// Format equivalence, pinned: the identical world driven over
    /// binary frames and over JSON lines must leave two servers in the
    /// same engine state — same counts, same clustering surface. The
    /// wire encoding is transport, never semantics.
    #[test]
    fn binary_and_json_wires_build_identical_state() {
        let run = |binary: bool| {
            let server = Server::start(ServerConfig::default()).unwrap();
            let cfg = LoadConfig {
                entities: 60,
                sources: 8,
                readers: 0,
                batch: 16,
                binary,
                ..Default::default()
            };
            let report = run_load(server.addr(), &cfg).unwrap();
            assert_eq!(report.wire_binary, binary);
            let mut client = crate::client::Client::connect(server.addr()).unwrap();
            let stats = client.stats().unwrap();
            let top = client.top_k("weight", 50).unwrap();
            let titles: Vec<String> = top.into_iter().map(|e| e.title).collect();
            server.shutdown();
            (stats.records, stats.products, stats.applied, titles)
        };
        assert_eq!(
            run(true),
            run(false),
            "binary wire changed the resulting engine state"
        );
    }
}
