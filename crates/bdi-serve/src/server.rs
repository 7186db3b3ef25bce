//! The backend daemon: the engine's ingest worker, durability, and the
//! backend's half of the request core — its `dispatch`.
//!
//! Threading model:
//!
//! * the **front-end** owns the sockets: the readiness loop
//!   ([`crate::nio`]), one epoll thread multiplexing every connection
//!   (JSON lines, binary frames and HTTP/1.1, auto-detected) plus a
//!   small dispatch worker pool. Every request, whichever wire carried
//!   it, is decoded into a [`Request`], wrapped by the shared envelope
//!   (`crate::request`) and executed by the backend's
//!   `Service::dispatch` — the only function here that matches on
//!   request variants. The loop thread itself executes the reads
//!   answered from the published generation or process-local state
//!   (`lookup`, `stats`, `metrics`, `trace`, `hello` — the `inline`
//!   column of [`crate::protocol::WIRE`]); the pool executes the
//!   commands that may block (ingest, `flush`, `sync`, `restore`,
//!   `shutdown`) and the O(catalog) scans (`filter`, `top_k`), so a
//!   lookup never waits behind a writer;
//! * one **ingest worker** owns the [`Engine`]. Handlers forward
//!   `ingest` records through a bounded crossbeam channel — when the
//!   worker falls behind, the channel fills and senders block, which is
//!   the backpressure surfacing to clients as a slow `ack`;
//! * the worker takes whole ingest requests off the queue until a
//!   cycle holds `refresh_batch` records, refreshes the dirty clusters
//!   once, and publishes the new generation through the [`Swap`] —
//!   readers pay one `Arc` clone, never a lock held across a query.
//!
//! With a [`DurabilityConfig`], the worker also appends every request's
//! records to a write-ahead log *before* linking them ([`crate::wal`]),
//! fsyncs in batches, and periodically captures the engine into a snapshot
//! ([`crate::snapshot`]) before compacting the log — so
//! [`Server::start`] on the same data directory rebuilds the exact
//! pre-crash state from one snapshot load plus the WAL tail.
//!
//! A panic anywhere on a request's path (malformed input reaching a
//! deep invariant, say) is caught by the envelope and answered with an
//! `error` response instead of killing the worker thread; a panic while
//! applying one record is caught, counted in `stats.rejected`, and the
//! ingest worker keeps draining.

use crate::engine::{Engine, EngineMetrics};
use crate::gen::{Generation, ShardedIndex, Swap};
use crate::nio;
use crate::protocol::{
    features, MetricsBody, Request, Response, SpanBody, StatsBody, Tier, TraceBody,
    DEFAULT_FILTER_LIMIT, DEFAULT_TRACE_RECENT, PROTOCOL_VERSION,
};
use crate::request::RequestCore;
use crate::snapshot::Snapshot;
use crate::wal::{Wal, WalMetrics};
use bdi_obs::{Counter, Gauge, Histogram, Registry, TraceContext, Tracer};
use bdi_types::Record;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Durability tunables: where state lives and how eagerly it hits disk.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments (`wal-<base>.seg`) and
    /// `snapshot.bin` (created if missing). Reusing a directory resumes
    /// its state.
    pub data_dir: PathBuf,
    /// fsync the WAL after this many appended records (1 = every
    /// record). Larger batches keep the hot path off the disk's fsync
    /// latency at the cost of losing up to that many acked records on a
    /// hard crash. The log is also always synced when the ingest queue
    /// drains, so a quiescent server is fully durable.
    pub sync_every: usize,
    /// Snapshot + compact once the WAL tail exceeds this many records —
    /// the bound on replay work a restart can face.
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Durability in `data_dir` with the default batching (fsync every
    /// 64 records, snapshot every 4096).
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            sync_every: 64,
            snapshot_every: 4096,
        }
    }
}

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Dispatch worker threads for the front-end (0 resolves to one
    /// worker). This bounds how many commands that may block (flush
    /// barriers, backpressured ingests, `sync`, `restore`) or scan the
    /// catalog (`filter`, `top_k`) run at once. It does not delay
    /// reads: `lookup`, `stats`, `metrics`, `trace` and `hello` run on
    /// the readiness loop.
    pub workers: usize,
    /// Additional dedicated HTTP listener address. Optional: the
    /// front-end already answers HTTP on the main port via
    /// autodetection; this serves deployments that want the human/API
    /// port firewalled separately. Served by the same loop.
    pub http_addr: Option<String>,
    /// Linkage match threshold.
    pub threshold: f64,
    /// Ingest queue capacity — the backpressure bound.
    pub queue_capacity: usize,
    /// Records per refresh/publish cycle: the ingest worker stops taking
    /// further queued requests into a cycle once it holds this many (a
    /// request is never split, so one larger request is one cycle).
    pub refresh_batch: usize,
    /// Identifier-index shards per generation.
    pub shards: usize,
    /// Records integrated before the server starts accepting.
    pub preload: Vec<Record>,
    /// Write-ahead log + snapshots; `None` serves purely in memory.
    pub durability: Option<DurabilityConfig>,
    /// Log a structured one-line record to stderr for every request
    /// slower than this many milliseconds. `None` disables the log.
    /// Also arms the flight recorder's slow-exemplar capture: every
    /// request is force-traced, and the full span tree is retained
    /// whenever the request crosses the threshold — so `trace <id>`
    /// works on exactly the requests the slow log names.
    pub slow_ms: Option<u64>,
    /// Head-sample one request in this many into the flight recorder
    /// (`0` disables sampling; `1` traces everything). Requests that
    /// arrive with an upstream trace context are always recorded —
    /// sampling decisions are made once, at the edge.
    pub trace_sample: u64,
    /// Rewrite this file with the Prometheus text exposition of the
    /// metrics registry every [`ServerConfig::metrics_interval`]
    /// (atomic tmp + rename, so scrapers never read a torn file).
    pub metrics_file: Option<PathBuf>,
    /// How often the metrics file is rewritten.
    pub metrics_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            http_addr: None,
            threshold: 0.9,
            queue_capacity: 256,
            refresh_batch: 64,
            shards: 8,
            preload: Vec::new(),
            durability: None,
            slow_ms: None,
            metrics_file: None,
            metrics_interval: Duration::from_secs(5),
            trace_sample: 0,
        }
    }
}

/// Every ingest- and durability-path metric handle, resolved once at
/// startup so the hot paths never take the registry's name lock (the
/// per-request families live in the [`RequestCore`]). `stats` and
/// `metrics` read the same cells and can never disagree.
pub(crate) struct ServeMetrics {
    registry: Registry,
    /// Records per `ingest_batch` request (a size, not a latency).
    ingest_batch_records: Arc<Histogram>,
    /// Records accepted into the ingest queue.
    submitted: Counter,
    /// Records applied and queryable.
    applied: Counter,
    /// Records whose apply panicked.
    rejected: Counter,
    /// Linker comparisons as of the published generation.
    comparisons: Counter,
    /// Candidates skipped by the root filter (already merged with the
    /// arriving record), as of the published generation.
    pruned_root: Counter,
    /// Candidates skipped by the admissible score-bound filter, as of
    /// the published generation.
    pruned_bound: Counter,
    /// Posting-list entries skipped by the hot-key cap, as of the
    /// published generation.
    postings_skipped: Counter,
    /// Published generation number.
    generation: Gauge,
    /// Products in the published generation.
    products: Gauge,
    /// Records in the published generation.
    records: Gauge,
    /// WAL append position (absolute records).
    wal_position: Gauge,
    /// WAL fsync'd position (absolute records).
    wal_synced: Gauge,
    /// WAL replay-tail length (records past the last snapshot).
    wal_tail: Gauge,
    /// Records covered by the last snapshot.
    snapshot_records: Gauge,
    /// Generation the last snapshot captured.
    snapshot_generation: Gauge,
    /// One refresh + index build + generation swap, ns.
    publish_ns: Arc<Histogram>,
    /// One atomic snapshot persist, ns.
    snapshot_write_ns: Arc<Histogram>,
    /// WAL-tail replay at recovery, ns (one sample per restart).
    recovery_replay_ns: Arc<Histogram>,
    /// Records replayed from the WAL tail at recovery.
    recovery_replayed: Counter,
}

impl ServeMetrics {
    fn new(registry: Registry) -> Self {
        Self {
            ingest_batch_records: registry.histogram("serve.ingest.batch_records"),
            submitted: registry.counter("serve.ingest.submitted"),
            applied: registry.counter("serve.ingest.applied"),
            rejected: registry.counter("serve.ingest.rejected"),
            comparisons: registry.counter("serve.linkage.comparisons"),
            pruned_root: registry.counter("serve.engine.candidates.pruned.root"),
            pruned_bound: registry.counter("serve.engine.candidates.pruned.bound"),
            postings_skipped: registry.counter("serve.linkage.postings.skipped"),
            generation: registry.gauge("serve.catalog.generation"),
            products: registry.gauge("serve.catalog.products"),
            records: registry.gauge("serve.catalog.records"),
            wal_position: registry.gauge("serve.wal.position"),
            wal_synced: registry.gauge("serve.wal.synced"),
            wal_tail: registry.gauge("serve.wal.tail"),
            snapshot_records: registry.gauge("serve.snapshot.records"),
            snapshot_generation: registry.gauge("serve.snapshot.generation"),
            publish_ns: registry.histogram("serve.publish.latency_ns"),
            snapshot_write_ns: registry.histogram("serve.snapshot.write.latency_ns"),
            recovery_replay_ns: registry.histogram("serve.recovery.replay.latency_ns"),
            recovery_replayed: registry.counter("serve.recovery.replayed_records"),
            registry,
        }
    }
}

/// One unit of work on the ingest worker's queue. Control jobs (`sync`,
/// `restore`) ride the same channel as records, so they observe the
/// queue position they were submitted at: by the time the worker
/// reaches one, every record enqueued before it has been appended and
/// applied — which is what makes a `sync` reply a consistent cut of the
/// stream.
enum Job {
    /// One ingest request's records — a wire `ingest` is a batch of
    /// one — with the trace context of the request that submitted
    /// them, carried across the queue so the worker's WAL/engine/publish
    /// spans land in the originating request's trace. A job is never
    /// split across [`Worker::cycle`]s, so its records become visible
    /// to readers all at once.
    Ingest(Vec<Record>, Option<TraceContext>),
    /// Ship a consistent snapshot/tail cut back to the handler.
    Sync { from: u64, reply: Sender<Response> },
    /// Install shipped state in place of the current engine.
    Restore {
        state: Box<RestoreJob>,
        reply: Sender<Response>,
    },
}

/// The restore payload (boxed: a full engine snapshot dwarfs a record).
struct RestoreJob {
    snapshot: Option<Snapshot>,
    tail: Vec<Record>,
    position: u64,
}

/// State shared by handlers and the ingest worker.
struct Shared {
    current: Swap<Generation>,
    metrics: ServeMetrics,
    /// The request core: the flight recorder plus the per-request
    /// metrics and slow log the envelope records into.
    core: RequestCore,
    shutdown: AtomicBool,
    shards: usize,
    durable: bool,
}

/// A running integration service.
pub struct Server {
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    ingest_tx: Option<Sender<Job>>,
    accept: Option<JoinHandle<()>>,
    worker: Option<JoinHandle<()>>,
    metrics_writer: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, recover any durable state, integrate any preload, and start
    /// serving. With a [`DurabilityConfig`], recovery loads the last
    /// snapshot (if present) and replays the WAL tail through the engine
    /// before the first connection is accepted — queries never observe a
    /// partially recovered catalog.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(cfg.addr.as_str())?;
        let addr = listener.local_addr()?;
        let registry = Registry::new();
        let tracer = Tracer::new();
        // slow-request logging doubles as slow-exemplar capture: force-
        // trace everything, retain only what crosses the threshold
        tracer.configure(cfg.trace_sample, cfg.slow_ms.is_some());
        let shared = Arc::new(Shared {
            current: Swap::new(Generation::empty(cfg.shards)),
            metrics: ServeMetrics::new(registry.clone()),
            core: RequestCore::new(&registry, tracer, "serve", "serve.request", cfg.slow_ms),
            shutdown: AtomicBool::new(false),
            shards: cfg.shards,
            durable: cfg.durability.is_some(),
        });

        let (mut engine, mut seq, durable) = match cfg.durability {
            Some(d) => {
                let (engine, seq, durable) = recover(d, cfg.threshold, &shared)?;
                (engine, seq, Some(durable))
            }
            None => (Engine::new(cfg.threshold), 0, None),
        };
        engine.set_metrics(EngineMetrics::register(&registry));
        if seq > 0 || engine.records() > 0 {
            let n = engine.records() as u64;
            seq = seq.max(1);
            publish(&shared, &mut engine, seq);
            shared.metrics.submitted.store(n);
            shared.metrics.applied.store(n);
        }
        let (tx, rx) = bounded(cfg.queue_capacity.max(1));
        let mut worker = Worker {
            engine,
            seq,
            durable,
            shared: Arc::clone(&shared),
            batch: cfg.refresh_batch.max(1),
        };
        if !cfg.preload.is_empty() {
            // the preload is the first ingest request: same cycle, run
            // here so it is queryable before the first connection
            shared.metrics.submitted.add(cfg.preload.len() as u64);
            worker.cycle(cfg.preload, None, &rx);
        }
        let worker = std::thread::spawn(move || worker.run(rx));
        let http_listener = match &cfg.http_addr {
            Some(a) => Some(TcpListener::bind(a.as_str())?),
            None => None,
        };
        let http_addr = match &http_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let mut listeners = vec![listener];
        listeners.extend(http_listener);
        let service = Arc::new(ServeService {
            shared: Arc::clone(&shared),
            tx: tx.clone(),
            addr,
        });
        let accept = nio::spawn_front_end(listeners, service, &registry, "serve", cfg.workers)?;
        let metrics_writer = cfg.metrics_file.map(|path| {
            let shared = Arc::clone(&shared);
            let interval = cfg.metrics_interval.max(Duration::from_millis(100));
            std::thread::spawn(move || metrics_file_writer(path, shared, interval))
        });
        Ok(Server {
            addr,
            http_addr,
            shared,
            ingest_tx: Some(tx),
            accept: Some(accept),
            worker: Some(worker),
            metrics_writer,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound dedicated-HTTP address, when
    /// [`ServerConfig::http_addr`] was set. The main [`Server::addr`]
    /// also answers HTTP (the front-end autodetects it).
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The published generation readers currently see.
    pub fn generation(&self) -> u64 {
        self.shared.current.load().seq
    }

    /// Request shutdown and wait for the accept loop and ingest worker
    /// to drain. Open connections must be closed by their clients (a
    /// handler holding an ingest sender keeps the worker alive).
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // unblock the accept loop
        let _ = TcpStream::connect(self.addr);
        self.join();
    }

    /// Block until a client issues `shutdown` (which stops the accept
    /// loop) and the ingest worker drains. This is what `bdi serve`
    /// parks on.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        drop(self.ingest_tx.take());
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
        // the writer exits on the shutdown flag (set by both shutdown
        // paths before join) after one final rewrite
        if let Some(h) = self.metrics_writer.take() {
            let _ = h.join();
        }
    }
}

/// Rewrite `path` with the Prometheus exposition of the registry every
/// `interval` until shutdown, then once more on the way out. Each
/// rewrite is atomic (tmp + rename) so a scraper never reads a torn
/// exposition.
fn metrics_file_writer(path: PathBuf, shared: Arc<Shared>, interval: Duration) {
    let write = |shared: &Shared| {
        let text = shared.metrics.registry.snapshot().to_prometheus();
        let tmp = match path.file_name() {
            Some(name) => {
                let mut tmp_name = name.to_os_string();
                tmp_name.push(".tmp");
                path.with_file_name(tmp_name)
            }
            None => return, // unusable path; nothing sane to write
        };
        let result = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = result {
            eprintln!("bdi-serve: metrics file write failed: {e}");
        }
    };
    write(&shared);
    let tick = Duration::from_millis(50);
    let mut since_write = Duration::ZERO;
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        since_write += tick;
        if since_write >= interval {
            write(&shared);
            since_write = Duration::ZERO;
        }
    }
    write(&shared);
}

/// The worker's durability handle: the open WAL plus the policy knobs.
struct DurableLog {
    wal: Wal,
    data_dir: PathBuf,
    sync_every: u64,
    snapshot_every: u64,
}

impl DurableLog {
    /// Group-append one request's records (one staged write per segment,
    /// one append-latency sample) and mirror the position into stats once.
    fn append_batch(&mut self, records: &[Record], shared: &Shared) -> std::io::Result<()> {
        self.wal.append_batch(records)?;
        shared.metrics.wal_position.set(self.wal.position());
        shared.metrics.wal_tail.set(self.wal.tail_len());
        Ok(())
    }

    /// Force an fsync and mirror the synced position into stats.
    fn sync(&mut self, shared: &Shared) -> std::io::Result<()> {
        self.wal.sync()?;
        shared.metrics.wal_synced.set(self.wal.synced());
        Ok(())
    }

    /// fsync when the batch policy says so (or the queue has drained, so
    /// a quiescent server is always fully durable). Returns whether a
    /// sync actually ran — the worker hangs the `wal.fsync` span on it.
    fn sync_if_due(&mut self, queue_empty: bool, shared: &Shared) -> std::io::Result<bool> {
        if self.wal.pending_sync() >= self.sync_every.max(1)
            || (queue_empty && self.wal.pending_sync() > 0)
        {
            self.sync(shared)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Snapshot the engine and compact the WAL when the tail has grown
    /// past the policy bound (or unconditionally, at shutdown).
    fn snapshot_if_due(
        &mut self,
        engine: &Engine,
        seq: u64,
        force: bool,
        shared: &Shared,
    ) -> std::io::Result<()> {
        if !force && self.wal.tail_len() < self.snapshot_every.max(1) {
            return Ok(());
        }
        self.sync(shared)?;
        let snapshot = Snapshot::capture(engine, seq);
        let covered = snapshot.records;
        let took = snapshot.write_timed(&self.data_dir)?;
        shared.metrics.snapshot_write_ns.record_duration(took);
        self.wal.compact_through(covered)?;
        shared.metrics.snapshot_records.set(covered);
        shared.metrics.snapshot_generation.set(seq);
        shared.metrics.wal_tail.set(self.wal.tail_len());
        Ok(())
    }
}

/// Rebuild the engine from the data directory: snapshot load (exact
/// state, no re-linking) plus a WAL-tail replay through the incremental
/// linker. Returns the recovered engine, the generation to publish it
/// at, and the opened log positioned for appending.
fn recover(
    cfg: DurabilityConfig,
    threshold: f64,
    shared: &Shared,
) -> std::io::Result<(Engine, u64, DurableLog)> {
    let (mut engine, mut seq, covered) = match Snapshot::load(&cfg.data_dir)? {
        Some(snapshot) => snapshot.restore_engine()?,
        None => (Engine::new(threshold), 0, 0),
    };
    let opened = Wal::open(&cfg.data_dir)?;
    let mut wal = opened.wal;
    wal.set_metrics(WalMetrics::register(&shared.metrics.registry));
    // Entries below the snapshot position are already inside the engine
    // (a crash between snapshot and compaction leaves such overlap);
    // replay strictly the tail so nothing is applied twice.
    let t0 = Instant::now();
    let tail: Vec<Record> = opened
        .entries
        .into_iter()
        .filter(|(pos, _)| *pos >= covered)
        .map(|(_, record)| record)
        .collect();
    let replayed = tail.len() as u64;
    apply(&mut engine, tail, shared);
    if replayed > 0 {
        seq += 1;
        shared.metrics.recovery_replayed.add(replayed);
        shared
            .metrics
            .recovery_replay_ns
            .record_duration(t0.elapsed());
    }
    if wal.position() < covered {
        // The log was lost or started fresh behind the snapshot; re-base
        // it so future appends get positions past the covered prefix.
        wal.compact_through(covered)?;
    }
    shared.metrics.wal_position.set(wal.position());
    shared.metrics.wal_synced.set(wal.synced());
    shared.metrics.wal_tail.set(wal.tail_len());
    shared.metrics.snapshot_records.set(covered);
    shared.metrics.snapshot_generation.set(seq);
    Ok((
        engine,
        seq,
        DurableLog {
            wal,
            data_dir: cfg.data_dir,
            sync_every: cfg.sync_every as u64,
            snapshot_every: cfg.snapshot_every,
        },
    ))
}

/// Publish the engine's current state as the next generation. The
/// catalog `Arc` comes straight from [`Engine::refresh`] — the engine's
/// retained refresh base and the published generation share one
/// allocation, so publishing never copies the catalog.
fn publish(shared: &Shared, engine: &mut Engine, seq: u64) {
    let _span = shared.metrics.publish_ns.span();
    let catalog = engine.refresh();
    let index = ShardedIndex::build(&catalog, shared.shards);
    shared.metrics.comparisons.store(engine.comparisons());
    shared.metrics.pruned_root.store(engine.pruned_root());
    shared.metrics.pruned_bound.store(engine.pruned_bound());
    shared
        .metrics
        .postings_skipped
        .store(engine.postings_skipped());
    shared.metrics.generation.set(seq);
    shared.metrics.products.set(catalog.len() as u64);
    shared.metrics.records.set(engine.records() as u64);
    shared.current.store(Arc::new(Generation {
        seq,
        catalog,
        index,
        records: engine.records(),
    }));
}

/// Apply `records` in order. A record whose insert panics anywhere
/// down the linkage / fusion stack is skipped and counted in
/// `stats.rejected` instead of killing the caller — the one "apply
/// these, count rejects" call behind live ingest, start-up WAL replay
/// and `restore`.
fn apply(engine: &mut Engine, records: Vec<Record>, shared: &Shared) {
    let (_, rejected) = engine.ingest_batch(records);
    if rejected > 0 {
        shared.metrics.rejected.add(rejected);
    }
}

/// [`apply`] for one record of a traced request: the same insert, under
/// an `engine.insert` span whose children break it into its candidate /
/// score / fuse stages (synthesized from [`Engine::ingest_timed`]'s
/// stage timings, laid end to end under the insert span).
fn apply_traced(engine: &mut Engine, record: Record, ctx: TraceContext, shared: &Shared) {
    let tracer = &shared.core.tracer;
    let start = tracer.now_ns();
    let outcome = catch_unwind(AssertUnwindSafe(|| engine.ingest_timed(record)));
    let panicked: &[(&str, u64)] = if outcome.is_err() {
        &[("panicked", 1)]
    } else {
        &[]
    };
    let insert = tracer.record(ctx, "engine.insert", start, tracer.now_ns(), panicked);
    let Ok((_, timings)) = outcome else {
        shared.metrics.rejected.inc();
        return;
    };
    let stage_ctx = TraceContext {
        trace: ctx.trace,
        parent: insert,
    };
    let mut t = start;
    for (name, ns) in [
        ("engine.candidates", timings.candidates_ns),
        ("engine.score", timings.scoring_ns),
        ("engine.fuse", timings.union_ns),
    ] {
        tracer.record(stage_ctx, name, t, t + ns, &[]);
        t += ns;
    }
}

/// The outcome of a WAL or snapshot step the worker carries on past: on
/// an I/O error durability is degraded but service continues, so the
/// error is surfaced loudly (and stats keep reporting the stale synced
/// position) instead of returned.
fn logged<T>(outcome: std::io::Result<T>) -> Option<T> {
    outcome
        .map_err(|e| eprintln!("bdi-serve: WAL error (durability degraded): {e}"))
        .ok()
}

/// Send a control job's outcome back through the job's own channel; a
/// send failure just means the requesting handler went away.
fn answer(reply: &Sender<Response>, what: &str, outcome: std::io::Result<Response>) {
    let _ = reply.send(outcome.unwrap_or_else(|e| Response::Error {
        message: format!("{what} failed: {e}"),
    }));
}

/// The ingest worker: the [`Engine`] and everything else only its
/// thread touches. The engine has exactly one owner, so nothing here
/// locks, and handlers reach it only through the [`Job`] queue.
struct Worker {
    engine: Engine,
    /// Generation number of the last publish.
    seq: u64,
    durable: Option<DurableLog>,
    shared: Arc<Shared>,
    /// [`ServerConfig::refresh_batch`]: records per cycle.
    batch: usize,
}

impl Worker {
    /// Drain the queue until every sender is gone. Control jobs run
    /// between cycles, where exclusive engine and WAL access is free.
    fn run(mut self, rx: Receiver<Job>) {
        let mut pending = None;
        while let Some(job) = pending.take().or_else(|| rx.recv().ok()) {
            match job {
                Job::Ingest(records, ctx) => pending = self.cycle(records, ctx, &rx),
                Job::Sync { from, reply } => answer(&reply, "sync", self.sync(from)),
                Job::Restore { state, reply } => answer(&reply, "restore", self.restore(*state)),
            }
        }
        // graceful drain: leave a clean snapshot and an empty tail so
        // the next start skips replay entirely
        if let Some(log) = &mut self.durable {
            logged(log.snapshot_if_due(&self.engine, self.seq, true, &self.shared));
        }
    }

    /// The one ingest path, queue to publish. Starting from one ingest
    /// job, keep taking whole jobs off the queue until the cycle holds
    /// `batch` records, the queue is empty or a control job turns up
    /// (returned for [`Worker::run`] to handle next — queue order is
    /// preserved). Each job is group-appended to the WAL (write-ahead,
    /// before any of its records applies) and applied in order; then
    /// the cycle makes one fsync decision, publishes once and counts
    /// its records applied. Jobs are never split, so a request's
    /// records become visible atomically: readers see none of them or
    /// all of them.
    ///
    /// An untraced job applies through [`apply`] whole; a traced one
    /// applies per record under an `engine.batch` span so every record
    /// gets its `engine.insert` span and stage children. Both routes
    /// run the identical per-record insert, so the resulting state
    /// cannot depend on which one ran. The fsync and the publish are
    /// shared work: their spans are recorded once per traced request.
    fn cycle(
        &mut self,
        records: Vec<Record>,
        ctx: Option<TraceContext>,
        rx: &Receiver<Job>,
    ) -> Option<Job> {
        let shared = Arc::clone(&self.shared);
        let tracer = &shared.core.tracer;
        let mut traced: Vec<TraceContext> = Vec::new();
        let mut n = 0u64;
        let mut control = None;
        let mut next = Some((records, ctx));
        while let Some((records, ctx)) = next.take() {
            let len = records.len() as u64;
            n += len;
            traced.extend(ctx);
            if let Some(log) = &mut self.durable {
                let t0 = tracer.now_ns();
                logged(log.append_batch(&records, &shared));
                if let Some(ctx) = ctx {
                    tracer.record(ctx, "wal.append", t0, tracer.now_ns(), &[("records", len)]);
                }
            }
            match tracer.begin(ctx, "engine.batch") {
                None => apply(&mut self.engine, records, &shared),
                Some(mut span) => {
                    span.attr("records", len);
                    for record in records {
                        apply_traced(&mut self.engine, record, span.ctx(), &shared);
                    }
                    tracer.finish(span);
                }
            }
            if (n as usize) < self.batch {
                match rx.try_recv() {
                    Ok(Job::Ingest(records, ctx)) => next = Some((records, ctx)),
                    Ok(job) => control = Some(job),
                    Err(_) => {}
                }
            }
        }
        // write-ahead before publish: a record is only announced as
        // applied once its WAL bytes are (batch-policy) durable
        if let Some(log) = &mut self.durable {
            let t0 = tracer.now_ns();
            if logged(log.sync_if_due(rx.is_empty(), &shared)) == Some(true) {
                let t1 = tracer.now_ns();
                for ctx in &traced {
                    tracer.record(*ctx, "wal.fsync", t0, t1, &[("group", n)]);
                }
            }
        }
        self.seq += 1;
        let t0 = tracer.now_ns();
        publish(&shared, &mut self.engine, self.seq);
        let t1 = tracer.now_ns();
        for ctx in traced {
            tracer.record(ctx, "publish", t0, t1, &[("records", n)]);
        }
        // applied counts only after the records are queryable
        shared.metrics.applied.add(n);
        if let Some(log) = &mut self.durable {
            logged(log.snapshot_if_due(&self.engine, self.seq, false, &shared));
        }
        control
    }

    /// Build the `sync` reply: a consistent cut of this backend's
    /// stream. With a WAL whose retained window still covers `from`,
    /// ship the tail alone (cheap delta); otherwise — compacted past
    /// `from`, or an in-memory server with no journal at all — ship a
    /// full snapshot.
    fn sync(&mut self, from: u64) -> std::io::Result<Response> {
        if let Some(log) = &mut self.durable {
            // everything applied so far must be on disk before it is shipped
            log.sync(&self.shared)?;
            if from >= log.wal.base() && from <= log.wal.position() {
                let tail = crate::wal::replay_from(&log.data_dir, from)?;
                return Ok(Response::SyncState {
                    position: log.wal.position(),
                    snapshot: None,
                    tail,
                });
            }
        }
        let snapshot = Snapshot::capture(&self.engine, self.seq);
        Ok(Response::SyncState {
            position: snapshot.records,
            snapshot: Some(snapshot),
            tail: Vec::new(),
        })
    }

    /// Install shipped state: rebuild the engine from the snapshot (or
    /// fresh, for a tail-only ship), replay the tail, adopt `position`
    /// as the applied count, and publish. Durable backends reset their
    /// journal to `position` and write a covering snapshot, so a
    /// restart recovers the restored state, not the pre-restore one.
    /// Not crash-atomic: a backend that dies mid-restore must be
    /// bootstrapped again.
    fn restore(&mut self, job: RestoreJob) -> std::io::Result<Response> {
        let shared = &*self.shared;
        let mut fresh = match job.snapshot {
            Some(s) => s.restore_engine()?.0,
            None => Engine::new(self.engine.threshold()),
        };
        fresh.set_metrics(EngineMetrics::register(&shared.metrics.registry));
        apply(&mut fresh, job.tail, shared);
        self.engine = fresh;
        self.seq += 1;
        publish(shared, &mut self.engine, self.seq);
        shared.metrics.submitted.store(job.position);
        shared.metrics.applied.store(job.position);
        if let Some(log) = &mut self.durable {
            log.wal.rebase(job.position)?;
            let snap = Snapshot::capture(&self.engine, self.seq);
            let covered = snap.records;
            let took = snap.write_timed(&log.data_dir)?;
            shared.metrics.snapshot_write_ns.record_duration(took);
            shared.metrics.snapshot_records.set(covered);
            shared.metrics.snapshot_generation.set(self.seq);
            shared.metrics.wal_position.set(log.wal.position());
            shared.metrics.wal_synced.set(log.wal.synced());
            shared.metrics.wal_tail.set(log.wal.tail_len());
        }
        Ok(Response::Restored {
            generation: self.seq,
            records: self.engine.records() as u64,
        })
    }
}

/// The backend as a [`nio::Service`]: stateless per connection (every
/// query runs against whatever generation is published).
struct ServeService {
    shared: Arc<Shared>,
    tx: Sender<Job>,
    addr: SocketAddr,
}

impl ServeService {
    /// Enqueue one ingest request's records as one job — never split,
    /// so the worker appends, applies and publishes them within one
    /// cycle — and ack with the submitted counter. `submitted` moves
    /// only after the enqueue succeeds so a concurrent flush barriers
    /// correctly. Blocks while the queue is full (backpressure).
    fn submit(&self, records: Vec<Record>, ctx: Option<TraceContext>) -> Response {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::SeqCst) {
            return Response::Error {
                message: "shutting down".to_string(),
            };
        }
        let n = records.len() as u64;
        if n > 0 {
            if self.tx.send(Job::Ingest(records, ctx)).is_err() {
                return Response::Error {
                    message: "ingest queue closed".to_string(),
                };
            }
            shared.metrics.submitted.add(n);
        }
        Response::Ack {
            submitted: shared.metrics.submitted.get(),
        }
    }

    /// Queue a control job behind everything already submitted and wait
    /// for the worker's reply.
    fn control(&self, name: &str, job: impl FnOnce(Sender<Response>) -> Job) -> Response {
        let (reply, reply_rx) = bounded(1);
        if self.tx.send(job(reply)).is_err() {
            return Response::Error {
                message: "ingest queue closed".to_string(),
            };
        }
        reply_rx.recv().unwrap_or_else(|_| Response::Error {
            message: format!("{name} worker unavailable"),
        })
    }
}

impl nio::Service for ServeService {
    type Conn = ();
    const TIER: Tier = Tier::Backend;

    fn new_conn(&self) {}

    fn core(&self) -> &RequestCore {
        &self.shared.core
    }

    /// Execute one request against the backend — the only function in
    /// this tier that matches on [`Request`] variants. Every wire decodes
    /// to the same `Request`, so nothing below is format-specific.
    fn dispatch(&self, _conn: &mut (), request: Request, ctx: Option<TraceContext>) -> Response {
        let shared = &*self.shared;
        match request {
            Request::Lookup { identifier } => {
                let current = shared.current.load();
                Response::Entry {
                    generation: current.seq,
                    entry: current.lookup(&identifier).cloned(),
                }
            }
            Request::Filter {
                attribute,
                min,
                max,
                limit,
            } => {
                let current = shared.current.load();
                let entries: Vec<_> = current
                    .catalog
                    .filter(&attribute, |v| {
                        v.base_magnitude().is_some_and(|m| {
                            min.is_none_or(|lo| m >= lo) && max.is_none_or(|hi| m <= hi)
                        })
                    })
                    .take(limit.unwrap_or(DEFAULT_FILTER_LIMIT))
                    .cloned()
                    .collect();
                Response::Entries {
                    generation: current.seq,
                    entries,
                }
            }
            Request::TopK { attribute, k } => {
                let current = shared.current.load();
                let entries: Vec<_> = current
                    .catalog
                    .top_k_by(&attribute, k)
                    .into_iter()
                    .cloned()
                    .collect();
                Response::Entries {
                    generation: current.seq,
                    entries,
                }
            }
            Request::Ingest { record } => self.submit(vec![record], ctx),
            Request::IngestBatch { records } => {
                shared
                    .metrics
                    .ingest_batch_records
                    .record(records.len() as u64);
                self.submit(records, ctx)
            }
            Request::Flush => {
                let target = shared.metrics.submitted.get();
                while shared.metrics.applied.get() < target {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
                let current = shared.current.load();
                Response::Flushed {
                    generation: current.seq,
                    applied: shared.metrics.applied.get(),
                }
            }
            Request::Stats => {
                let current = shared.current.load();
                let m = &shared.metrics;
                Response::Stats(StatsBody {
                    generation: current.seq,
                    products: current.catalog.len(),
                    records: current.records,
                    submitted: m.submitted.get(),
                    applied: m.applied.get(),
                    rejected: m.rejected.get(),
                    comparisons: m.comparisons.get(),
                    shards: shared.shards,
                    durable: shared.durable,
                    wal_position: m.wal_position.get(),
                    wal_synced: m.wal_synced.get(),
                    wal_tail: m.wal_tail.get(),
                    snapshot_records: m.snapshot_records.get(),
                    snapshot_generation: m.snapshot_generation.get(),
                    latency: Some(shared.core.latency_summary()),
                })
            }
            Request::Metrics => {
                Response::Metrics(MetricsBody::from(shared.metrics.registry.snapshot()))
            }
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                // unblock the accept loop so it observes the flag
                let _ = TcpStream::connect(self.addr);
                Response::Bye
            }
            Request::Hello => Response::Hello {
                version: PROTOCOL_VERSION,
                features: features(Self::TIER),
            },
            Request::Sync { from } => self.control("sync", |reply| Job::Sync { from, reply }),
            Request::Restore {
                snapshot,
                tail,
                position,
            } => self.control("restore", |reply| Job::Restore {
                state: Box::new(RestoreJob {
                    snapshot,
                    tail,
                    position,
                }),
                reply,
            }),
            Request::Trace { id, recent } => {
                let tracer = &shared.core.tracer;
                let body = match id {
                    Some(id) => TraceBody {
                        spans: tracer.spans(id).into_iter().map(SpanBody::from).collect(),
                        recent: Vec::new(),
                    },
                    None => TraceBody {
                        spans: Vec::new(),
                        recent: tracer.recent(recent.unwrap_or(DEFAULT_TRACE_RECENT)),
                    },
                };
                Response::Trace(body)
            }
            Request::Split { .. } | Request::Replace { .. } => Response::Error {
                message: "router-only command: issue it against `bdi route`, not a backend"
                    .to_string(),
            },
        }
    }

    fn shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use bdi_types::{RecordId, SourceId, Value};

    fn rec(s: u32, q: u32, title: &str, id: &str, price: f64) -> Record {
        let mut r = Record::new(RecordId::new(SourceId(s), q), title);
        r.identifiers.push(id.into());
        r.attributes.insert("price".into(), Value::num(price));
        r
    }

    #[test]
    fn end_to_end_session() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();

        assert_eq!(
            client
                .ingest(rec(0, 0, "Lumetra LX-100 camera", "CAM-LUM-00100", 499.0))
                .unwrap(),
            1
        );
        client
            .ingest(rec(1, 0, "Lumetra LX-100", "camlum00100", 489.0))
            .unwrap();
        client
            .ingest(rec(0, 1, "Visionex V-900 monitor", "MON-VIS-00900", 199.0))
            .unwrap();
        let (generation, applied) = client.flush().unwrap();
        assert!(generation >= 1);
        assert_eq!(applied, 3);

        let entry = client
            .lookup("cam lum 00100")
            .unwrap()
            .expect("camera resolves");
        assert_eq!(entry.pages.len(), 2);

        let top = client.top_k("price", 5).unwrap();
        assert_eq!(top.len(), 2, "two products have a fused price");
        assert!(
            top[0].attributes["price"].base_magnitude()
                >= top[1].attributes["price"].base_magnitude()
        );

        let within = client
            .filter("price", Some(400.0), Some(600.0), None)
            .unwrap();
        assert_eq!(within.len(), 1);

        let stats = client.stats().unwrap();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.applied, 3);
        assert_eq!(stats.products, 2);
        assert_eq!(stats.records, 3);

        client.shutdown().unwrap();
        drop(client);
        server.shutdown();
    }

    #[test]
    fn preload_is_queryable_before_any_ingest() {
        let cfg = ServerConfig {
            preload: vec![
                rec(0, 0, "Lumetra LX-100 camera", "CAM-LUM-00100", 499.0),
                rec(1, 0, "Lumetra LX-100", "CAM-LUM-00100", 479.0),
            ],
            ..Default::default()
        };
        let server = Server::start(cfg).unwrap();
        assert_eq!(server.generation(), 1);
        let mut client = Client::connect(server.addr()).unwrap();
        let entry = client.lookup("CAM-LUM-00100").unwrap().expect("preloaded");
        assert_eq!(entry.pages.len(), 2);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn ingest_batch_applies_like_single_ingests() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let batch: Vec<Record> = (0..20u32)
            .map(|i| {
                rec(
                    i % 4,
                    i / 4,
                    &format!("Gadget{} model{}", i / 2, i / 2),
                    &format!("XXX-YYY-{:05}", i / 2),
                    f64::from(i),
                )
            })
            .collect();
        let submitted = client.ingest_batch(batch).unwrap();
        assert_eq!(submitted, 20, "one ack covers the whole batch");
        let (_, applied) = client.flush().unwrap();
        assert_eq!(applied, 20);
        let stats = client.stats().unwrap();
        assert_eq!(stats.records, 20);
        assert_eq!(stats.products, 10, "pairs linked across sources");
        // the batch-size histogram saw exactly one sample of 20
        let metrics = client.metrics().unwrap();
        let h = &metrics.histograms["serve.ingest.batch_records"];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 20);
        // an empty batch is a no-op ack at the current counter
        assert_eq!(client.ingest_batch(Vec::new()).unwrap(), 20);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn tiny_queue_still_delivers_everything() {
        // queue capacity 1 forces the backpressure path on every send
        let cfg = ServerConfig {
            queue_capacity: 1,
            refresh_batch: 1,
            ..Default::default()
        };
        let server = Server::start(cfg).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for i in 0..40u32 {
            client
                .ingest(rec(
                    i % 4,
                    i / 4,
                    &format!("Gadget{i} model{i}"),
                    &format!("XXX-YYY-{i:05}"),
                    f64::from(i),
                ))
                .unwrap();
        }
        let (_, applied) = client.flush().unwrap();
        assert_eq!(applied, 40);
        let stats = client.stats().unwrap();
        assert_eq!(stats.records, 40);
        drop(client);
        server.shutdown();
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bdi-srv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_cfg(dir: &std::path::Path, sync_every: usize, snapshot_every: u64) -> ServerConfig {
        ServerConfig {
            durability: Some(DurabilityConfig {
                data_dir: dir.to_path_buf(),
                sync_every,
                snapshot_every,
            }),
            ..Default::default()
        }
    }

    #[test]
    fn durable_server_survives_graceful_restart() {
        let dir = tmp_dir("restart");
        {
            let server = Server::start(durable_cfg(&dir, 1, 4096)).unwrap();
            let mut client = Client::connect(server.addr()).unwrap();
            client
                .ingest(rec(0, 0, "Lumetra LX-100 camera", "CAM-LUM-00100", 499.0))
                .unwrap();
            client
                .ingest(rec(1, 0, "Lumetra LX-100", "camlum00100", 489.0))
                .unwrap();
            client
                .ingest(rec(0, 1, "Visionex V-900 monitor", "MON-VIS-00900", 199.0))
                .unwrap();
            client.flush().unwrap();
            let stats = client.stats().unwrap();
            assert!(stats.durable);
            assert_eq!(stats.wal_position, 3);
            assert_eq!(stats.wal_synced, 3, "sync_every=1 syncs every record");
            drop(client);
            server.shutdown();
        }
        // graceful drain snapshots + compacts: restart replays nothing
        let server = Server::start(durable_cfg(&dir, 1, 4096)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.records, 3, "all records recovered");
        assert_eq!(stats.products, 2);
        assert_eq!(stats.snapshot_records, 3, "shutdown snapshot found");
        assert_eq!(stats.wal_tail, 0, "WAL compacted at shutdown");
        let entry = client.lookup("CAM-LUM-00100").unwrap().expect("recovered");
        assert_eq!(entry.pages.len(), 2);
        // the recovered engine keeps integrating: merge into the old cluster
        client
            .ingest(rec(2, 0, "Lumetra LX-100 pro", "CAM-LUM-00100", 509.0))
            .unwrap();
        client.flush().unwrap();
        let entry = client.lookup("cam lum 00100").unwrap().expect("merged");
        assert_eq!(entry.pages.len(), 3);
        drop(client);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_only_recovery_without_snapshot() {
        let dir = tmp_dir("walonly");
        {
            let server = Server::start(durable_cfg(&dir, 1, 1_000_000)).unwrap();
            let mut client = Client::connect(server.addr()).unwrap();
            for i in 0..10u32 {
                client
                    .ingest(rec(
                        i % 2,
                        i / 2,
                        &format!("Gadget{} model{}", i / 2, i / 2),
                        &format!("XXX-YYY-{:05}", i / 2),
                        f64::from(i),
                    ))
                    .unwrap();
            }
            client.flush().unwrap();
            drop(client);
            // simulate a hard stop: drop the handles without shutdown();
            // the synced WAL on disk is all that survives
            std::mem::forget(server);
        }
        std::fs::remove_file(dir.join(crate::snapshot::SNAPSHOT_FILE)).ok();
        let server = Server::start(durable_cfg(&dir, 1, 1_000_000)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.records, 10, "full WAL replay");
        assert_eq!(stats.products, 5, "pairs re-linked during replay");
        drop(client);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compaction_bounds_the_tail() {
        let dir = tmp_dir("compaction");
        let cfg = ServerConfig {
            refresh_batch: 4,
            ..durable_cfg(&dir, 4, 8)
        };
        let server = Server::start(cfg).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for i in 0..64u32 {
            client
                .ingest(rec(
                    i % 4,
                    i / 4,
                    &format!("Gadget{i} model{i}"),
                    &format!("XXX-YYY-{i:05}"),
                    f64::from(i),
                ))
                .unwrap();
        }
        client.flush().unwrap();
        let stats = client.stats().unwrap();
        assert!(stats.snapshot_records > 0, "snapshot triggered");
        assert!(
            stats.wal_tail < 64,
            "tail bounded by compaction, got {}",
            stats.wal_tail
        );
        assert_eq!(stats.wal_position, 64);
        drop(client);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_readers_see_consistent_generations() {
        let server = Server::start(ServerConfig {
            refresh_batch: 4,
            ..Default::default()
        })
        .unwrap();
        let addr = server.addr();
        // the pipelined phase: request `k` carries `SIZES[k]` records
        // that share an identifier of their own and come from distinct
        // sources, so they fuse into one entry of exactly that many pages
        const SIZES: [usize; 12] = [1, 7, 1, 1, 100, 3, 1, 32, 1, 64, 2, 1];
        let request_id = |k: usize| format!("XXX-YYY-{k:05}");
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut last_gen = 0u64;
                    let mut queries = 0usize;
                    while !stop.load(Ordering::SeqCst) {
                        let (generation, entry) = client.lookup_traced("CAM-LUM-00042").unwrap();
                        assert!(
                            generation >= last_gen,
                            "generations are monotone per reader"
                        );
                        if let Some(e) = &entry {
                            assert!(!e.pages.is_empty(), "no half-applied entries");
                        }
                        last_gen = generation;
                        // one request is one job in one cycle: all of its
                        // records are visible, or none of them
                        let k = queries % SIZES.len();
                        if let Some(e) = client.lookup(&request_id(k)).unwrap() {
                            assert_eq!(
                                e.pages.len(),
                                SIZES[k],
                                "a strict subset of request {k} was visible"
                            );
                        }
                        queries += 1;
                    }
                    queries
                })
            })
            .collect();

        let mut writer = Client::connect(addr).unwrap();
        for i in 0..60u32 {
            writer
                .ingest(rec(
                    i % 3,
                    i / 3,
                    "Lumetra LX-42 camera",
                    "CAM-LUM-00042",
                    100.0 + f64::from(i),
                ))
                .unwrap();
        }
        // un-awaited singles and batches of mixed size, so several jobs
        // queue behind a running cycle and coalesce into the next one
        let mut pipe = crate::client::WireConn::connect(addr).unwrap();
        for (k, &n) in SIZES.iter().enumerate() {
            let mut records: Vec<Record> = (0..n as u32)
                .map(|s| {
                    rec(
                        s,
                        1000 + k as u32,
                        &format!("Gadget{k} model{k}"),
                        &request_id(k),
                        1.0,
                    )
                })
                .collect();
            let request = match n {
                1 => Request::Ingest {
                    record: records.remove(0),
                },
                _ => Request::IngestBatch { records },
            };
            pipe.send(&request, None).unwrap();
        }
        for _ in SIZES {
            assert!(matches!(pipe.recv().unwrap(), Response::Ack { .. }));
        }
        writer.flush().unwrap();
        stop.store(true, Ordering::SeqCst);
        let total: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "readers made progress during ingest");
        let entry = writer
            .lookup("CAM-LUM-00042")
            .unwrap()
            .expect("resolves after flush");
        assert_eq!(entry.pages.len(), 60);
        for (k, &n) in SIZES.iter().enumerate() {
            let entry = writer.lookup(&request_id(k)).unwrap().expect("applied");
            assert_eq!(entry.pages.len(), n, "request {k} landed whole");
        }
        drop((writer, pipe));
        server.shutdown();
    }
}
