//! The synthetic load driver: replay a generated product web as a live
//! ingest stream while reader threads hammer lookups.
//!
//! This is the serve-path smoke driver. One writer connection feeds
//! every record of a [`bdi_synth::World`] through the ingest queue,
//! over binary frames when the server's `hello` offers them; `readers`
//! connections spin on `lookup` of identifiers drawn from the world's
//! catalog the whole time. The report gives ingest throughput and read
//! latency percentiles. (For performance *claims* use `livebench/`,
//! the repository's declared benchmark.)

use crate::client::Client;
use bdi_obs::Registry;
use bdi_synth::{World, WorldConfig};
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
        }
    }
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

    let readers: Vec<_> = (0..cfg.readers)
        .map(|reader_idx| {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> std::io::Result<Vec<u64>> {
                // readers stay on JSON: lookup has no binary encoding
                let mut client = Client::connect(addr)?;
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

    let mut writer = Client::connect(addr)?;
    // opportunistic: a peer whose `hello` lacks `binary-frames` keeps
    // the stream on JSON lines
    writer.negotiate_binary()?;
    let mut ingest_latencies: Vec<u64> = Vec::with_capacity(total);
    // driver-side batch-size distribution (the last chunk is partial)
    let batch_hist = Registry::new().histogram("load.ingest.batch_records");
    let batch = cfg.batch.max(1);
    let t0 = Instant::now();
    if batch == 1 {
        for r in records {
            batch_hist.record(1);
            let t = Instant::now();
            writer.ingest(r)?;
            ingest_latencies.push(t.elapsed().as_micros() as u64);
        }
    } else {
        let mut stream = records.into_iter().peekable();
        while stream.peek().is_some() {
            let chunk: Vec<_> = stream.by_ref().take(batch).collect();
            batch_hist.record(chunk.len() as u64);
            let t = Instant::now();
            writer.ingest_batch(chunk)?;
            ingest_latencies.push(t.elapsed().as_micros() as u64);
        }
    }
    let (generation, _) = writer.flush()?;
    let ingest_secs = t0.elapsed().as_secs_f64();
    let comparisons = writer.stats()?.comparisons;
    let metrics = writer.metrics()?;
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
}
