//! The router tier: one process that makes N backends look like one.
//!
//! `bdi route` binds the same JSON-lines protocol a single backend
//! speaks and hash-partitions work across `bdi serve` processes, so a
//! client needs no sharding awareness at all — point `bdi load` at the
//! router and the stream fans out.
//!
//! **Write path.** Every ingested record is routed by the FNV-1a hash
//! of its routing key ([`BridgeIndex::routing_key`]) through the
//! [`crate::fleet::RoutingTable`] to a home shard, widened by the
//! bridge index to any shards holding blocking-key evidence for it
//! (see [`crate::bridge`]). With `--replicas R` each shard is R
//! backends, and the record is mirrored onto every live replica.
//! Records travel over one long-lived *lane* per replica
//! ([`crate::replica::ReplicaLane`]): a bounded channel drained by a
//! worker thread that packs records into `ingest_batch` requests and
//! **pipelines** them — up to [`RouterConfig::pipeline`] batches are in
//! flight before the worker stops to read acks. Client
//! `ingest`/`ingest_batch` acks mean *accepted and routed*; `flush` is
//! the delivery barrier — it waits until every lane has settled every
//! routed record, then flushes every replica of every shard (each copy
//! is its own engine) while summing one representative replica per
//! shard.
//!
//! **Read path.** `lookup` consults the shard its identifier hashes to,
//! widened (and chased to closure) through the bridge index; `filter`,
//! `top_k`, `stats` and `metrics` scatter to every shard and
//! gather/merge. Each shard is queried on one preferred replica; an
//! I/O error *fails over* to the next replica in order (reads are
//! idempotent, so the request is simply re-sent) and only when every
//! replica of a shard fails does the client see an error naming that
//! shard. Failovers count on `route.read.failovers`.
//!
//! **Failure.** A dead backend never hangs the router: lane workers
//! mark their lane down on any I/O error and keep draining (so barriers
//! terminate). Writes are never retried — the protocol has no request
//! ids, so a resend could double-apply; a down replica is instead
//! rebuilt via `replace` (WAL shipping, see [`crate::fleet`]). A shard
//! only errors when *all* of its replicas are down.
//!
//! **Elasticity.** The `split` and `replace` admin commands
//! ([`crate::fleet`]) grow the fleet and replace dead replicas live,
//! under the same bridge-lock barrier the write path routes through.
//!
//! [`RegistrySnapshot`]: bdi_obs::RegistrySnapshot

use crate::bridge::{mask_shards, merge_entries, merge_stats, BridgeIndex, ShardMask, MAX_SHARDS};
use crate::client::WireConn;
use crate::nio;
use crate::protocol::{
    MetricsBody, Request, Response, SpanBody, StatsBody, TraceBody, PROTOCOL_VERSION,
};
use crate::replica::{spawn_lane, ReplicaLane, ShardState};
use crate::request::RequestCore;
use bdi_core::catalog::CatalogEntry;
use bdi_linkage::blocking::normalize_identifier;
use bdi_linkage::fingerprint::RecordFingerprint;
use bdi_obs::{Counter, Gauge, Histogram, Registry, TraceContext, Tracer};
use bdi_types::Record;
use parking_lot::{Mutex, RwLock};
use std::collections::{BinaryHeap, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Wire features this router tier itself advertises on `hello`.
pub const ROUTER_FEATURES: [&str; 6] = [
    "ingest_batch",
    "flush_barrier",
    "split",
    "replace",
    "binary-frames",
    "trace-context",
];

/// Router tunables.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address; use port 0 for an ephemeral port. The readiness
    /// front-end answers JSON lines and HTTP/1.1 on this one port
    /// (protocol sniffed per connection).
    pub addr: String,
    /// Additional dedicated HTTP listener (served by the same loop).
    pub http_addr: Option<String>,
    /// Dispatch worker threads (0 resolves to one worker). Bounds how
    /// many blocking fleet operations (flush barriers, splits) run at
    /// once.
    pub workers: usize,
    /// Backend `bdi serve` addresses. With `replicas == R`, consecutive
    /// groups of R addresses form one shard: `backends[s*R..(s+1)*R]`
    /// are shard `s`'s replicas. Shard index is group position — keep
    /// the order stable across router restarts or records will re-home.
    pub backends: Vec<String>,
    /// Replicas per shard (1..). `backends.len()` must divide evenly.
    pub replicas: usize,
    /// Match threshold the backends were started with. Routing
    /// correctness depends on it: above the title-only score ceiling
    /// the bridge replicates on identifier evidence alone (see
    /// [`BridgeIndex::for_threshold`]).
    pub threshold: f64,
    /// Records per `ingest_batch` request sent to a backend.
    pub batch: usize,
    /// Batches in flight per backend before the lane worker stops to
    /// read acks — the pipelining depth.
    pub pipeline: usize,
    /// Buffered records per lane — the router-side backpressure bound.
    pub queue_capacity: usize,
    /// Extra connect attempts (exponential backoff) before a backend
    /// that refuses connections is declared dead.
    pub retries: u32,
    /// Head-sample one client request in this many into the router's
    /// flight recorder (`0` disables). The decision propagates: a
    /// sampled request's context rides to the backends, whose spans
    /// merge back through the `trace` command.
    pub trace_sample: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            http_addr: None,
            workers: 0,
            backends: Vec::new(),
            replicas: 1,
            threshold: 0.9,
            batch: 64,
            pipeline: 4,
            queue_capacity: 1024,
            retries: 2,
            trace_sample: 0,
        }
    }
}

/// Router-side metric handles, resolved once at startup. All names live
/// under `route.*` so a merged `metrics` response keeps them distinct
/// from the backends' `serve.*` families.
pub(crate) struct RouteMetrics {
    pub(crate) registry: Registry,
    /// Records routed (counted once each, copies excluded).
    pub(crate) submitted: Counter,
    /// Extra copies sent to non-home shards for bridging (per shard,
    /// not per replica — replica mirroring is not bridging).
    pub(crate) replicated: Counter,
    /// Record copies skipped because the target lane was down.
    pub(crate) replicas_dropped: Counter,
    /// Backend connect attempts retried after a transient failure.
    pub(crate) retries: Counter,
    /// Reads re-sent to another replica after an I/O error.
    pub(crate) read_failovers: Counter,
    /// Records replayed onto new shards by `split`.
    pub(crate) split_moved: Counter,
    /// Records per client-facing `ingest_batch` request.
    pub(crate) batch_records: Arc<Histogram>,
    /// Records per `ingest_batch` request sent to a backend lane.
    pub(crate) backend_batch_records: Arc<Histogram>,
    /// Wall time of `sync` state transfers (flush + snapshot + tail).
    pub(crate) sync_ns: Arc<Histogram>,
    /// Wall time of whole `split` operations (barrier through flip).
    pub(crate) split_ns: Arc<Histogram>,
    /// Replicated records the bridge currently tracks.
    pub(crate) bridged_records: Gauge,
    /// Lanes currently marked down.
    pub(crate) backends_down: Gauge,
}

impl RouteMetrics {
    fn new(registry: Registry) -> Self {
        Self {
            submitted: registry.counter("route.ingest.submitted"),
            replicated: registry.counter("route.ingest.replicated"),
            replicas_dropped: registry.counter("route.ingest.replicas_dropped"),
            retries: registry.counter("route.backend.retries"),
            read_failovers: registry.counter("route.read.failovers"),
            split_moved: registry.counter("route.split.moved_records"),
            batch_records: registry.histogram("route.ingest.batch_records"),
            backend_batch_records: registry.histogram("route.backend.batch_records"),
            sync_ns: registry.histogram("route.sync.latency_ns"),
            split_ns: registry.histogram("route.split.latency_ns"),
            bridged_records: registry.gauge("route.bridge.bridged_records"),
            backends_down: registry.gauge("route.backend.down"),
            registry,
        }
    }
}

/// State shared by connection handlers, lane workers, and the fleet
/// admin operations. Lock order everywhere: `bridge` → `shards` → a
/// shard's `replicas`.
pub(crate) struct RouterShared {
    /// The fleet: one [`ShardState`] per shard, appended to by `split`.
    pub(crate) shards: RwLock<Vec<Arc<ShardState>>>,
    pub(crate) bridge: Mutex<BridgeIndex>,
    pub(crate) metrics: RouteMetrics,
    /// The request core. Its flight recorder is the router's: lane
    /// workers and the read scatter record into it too, and `trace`
    /// merges it with the backends' rings.
    pub(crate) core: RequestCore,
    pub(crate) shutdown: AtomicBool,
    /// Records per backend `ingest_batch`.
    pub(crate) batch: usize,
    /// Pipelining depth per lane.
    pub(crate) depth: usize,
    /// Bounded-channel capacity per lane.
    pub(crate) queue_capacity: usize,
    /// Connect retry budget per attempt.
    pub(crate) retries: u32,
    /// Every lane worker ever spawned (split/replace add more), joined
    /// at shutdown.
    pub(crate) lane_workers: Mutex<Vec<JoinHandle<()>>>,
}

impl RouterShared {
    /// Record a lane failure: per-replica error counter, one-shot down
    /// flag, stderr note, and the down gauge.
    pub(crate) fn mark_down(&self, lane: &ReplicaLane, err: &str) {
        self.metrics
            .registry
            .counter(&format!(
                "route.shard{}.replica{}.errors",
                lane.shard, lane.replica
            ))
            .inc();
        if !lane.down.swap(true, Ordering::SeqCst) {
            eprintln!(
                "bdi-route: shard {} replica {} ({}) marked down: {err}",
                lane.shard, lane.replica, lane.addr
            );
            self.refresh_down_gauge();
        }
    }

    /// Recount `route.backend.down` from the live topology (replacement
    /// and splits change the denominator, so the gauge is recomputed,
    /// not incremented).
    pub(crate) fn refresh_down_gauge(&self) {
        let down = self
            .shards
            .read()
            .iter()
            .map(|s| s.replicas.read().iter().filter(|l| l.is_down()).count())
            .sum::<usize>();
        self.metrics.backends_down.set(down as u64);
    }
}

/// A running router.
pub struct Router {
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    shared: Arc<RouterShared>,
    accept: Option<JoinHandle<()>>,
}

impl Router {
    /// Bind and start routing over the configured backends. Backend
    /// connections are opened lazily — a backend that is down at start
    /// surfaces as per-shard errors, not a failed bind.
    pub fn start(cfg: RouterConfig) -> std::io::Result<Router> {
        let bad_input = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, m);
        let replicas = cfg.replicas.max(1);
        if cfg.backends.is_empty() || !cfg.backends.len().is_multiple_of(replicas) {
            return Err(bad_input(format!(
                "{} backend(s) do not form whole shards of {replicas} replica(s)",
                cfg.backends.len()
            )));
        }
        let shard_count = cfg.backends.len() / replicas;
        if shard_count == 0 || shard_count > MAX_SHARDS {
            return Err(bad_input(format!(
                "need 1..={MAX_SHARDS} shards, got {shard_count}"
            )));
        }
        let mut addrs = Vec::with_capacity(cfg.backends.len());
        for b in &cfg.backends {
            let addr = b
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| bad_input(format!("backend '{b}' resolves to no address")))?;
            addrs.push(addr);
        }
        let listener = TcpListener::bind(cfg.addr.as_str())?;
        let addr = listener.local_addr()?;

        let tracer = Tracer::new();
        tracer.configure(cfg.trace_sample, false);
        let registry = Registry::new();
        let shared = Arc::new(RouterShared {
            shards: RwLock::new(Vec::new()),
            bridge: Mutex::new(BridgeIndex::for_threshold(shard_count, cfg.threshold)),
            core: RequestCore::new(&registry, tracer, "route", "route.request", None),
            metrics: RouteMetrics::new(registry.clone()),
            shutdown: AtomicBool::new(false),
            batch: cfg.batch.max(1),
            depth: cfg.pipeline.max(1),
            queue_capacity: cfg.queue_capacity,
            retries: cfg.retries,
            lane_workers: Mutex::new(Vec::new()),
        });
        let shards: Vec<Arc<ShardState>> = (0..shard_count)
            .map(|shard| {
                let lanes = (0..replicas)
                    .map(|replica| {
                        spawn_lane(shard, replica, addrs[shard * replicas + replica], &shared)
                    })
                    .collect();
                Arc::new(ShardState {
                    replicas: RwLock::new(lanes),
                })
            })
            .collect();
        *shared.shards.write() = shards;

        let mut listeners = vec![listener];
        let http_addr = match &cfg.http_addr {
            Some(a) => {
                let l = TcpListener::bind(a.as_str())?;
                let bound = l.local_addr()?;
                listeners.push(l);
                Some(bound)
            }
            None => None,
        };
        let service = Arc::new(RouteService {
            shared: Arc::clone(&shared),
            addr,
        });
        let accept = nio::spawn_front_end(listeners, service, &registry, "route", cfg.workers)?;
        Ok(Router {
            addr,
            http_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound dedicated-HTTP address, when
    /// [`RouterConfig::http_addr`] was set. The main [`Router::addr`]
    /// also answers HTTP via protocol autodetection.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Request shutdown and wait for the accept loop and lane workers
    /// to drain. Backends are left running — the router does not own
    /// them.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        self.join();
    }

    /// Block until a client issues `shutdown`, then drain. This is what
    /// `bdi route` parks on.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let workers: Vec<JoinHandle<()>> = self.shared.lane_workers.lock().drain(..).collect();
        for h in workers {
            let _ = h.join();
        }
    }
}

/// The router as a [`nio::Service`]. Per-connection state is the lazy
/// scatter-gather backend connections ([`QueryConns`]) — the front-end
/// hands it to whichever worker services the connection, one at a
/// time.
struct RouteService {
    shared: Arc<RouterShared>,
    addr: SocketAddr,
}

impl nio::Service for RouteService {
    type Conn = QueryConns;

    fn new_conn(&self) -> QueryConns {
        // lazy: a connection that only ingests opens none
        QueryConns::new()
    }

    fn core(&self) -> &RequestCore {
        &self.shared.core
    }

    /// Execute one request against the fleet — the only function in
    /// this tier that matches on [`Request`] variants, whichever wire
    /// the request arrived on.
    fn dispatch(
        &self,
        conns: &mut QueryConns,
        request: Request,
        ctx: Option<TraceContext>,
    ) -> Response {
        let shared = &self.shared;
        conns.trace_ctx = ctx;
        match request {
            Request::Lookup { identifier } => lookup(shared, conns, &identifier),
            Request::Filter { limit, .. } => match gather_entries(shared, conns, &request) {
                Ok((generation, gathered)) => {
                    let mut entries = merge_entries(gathered);
                    entries.truncate(limit.unwrap_or(100));
                    Response::Entries {
                        generation,
                        entries,
                    }
                }
                Err(e) => err(e),
            },
            Request::TopK { attribute, k } => top_k(shared, conns, &attribute, k),
            Request::Ingest { record } => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return err("shutting down".to_string());
                }
                match route_one(shared, record, ctx) {
                    Ok(submitted) => Response::Ack { submitted },
                    Err(e) => err(e),
                }
            }
            Request::IngestBatch { records } => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return err("shutting down".to_string());
                }
                shared.metrics.batch_records.record(records.len() as u64);
                let mut submitted = shared.metrics.submitted.get();
                for record in records {
                    match route_one(shared, record, ctx) {
                        Ok(s) => submitted = s,
                        Err(e) => return err(e),
                    }
                }
                Response::Ack { submitted }
            }
            Request::Flush => {
                if let Err(e) = ingest_barrier(shared) {
                    return err(e);
                }
                flush_fleet(shared, conns)
            }
            Request::Stats => match conns.gather_all(shared, &Request::Stats) {
                Ok(responses) => {
                    let mut bodies: Vec<StatsBody> = Vec::with_capacity(responses.len());
                    for (shard, resp) in responses {
                        match resp {
                            Response::Stats(body) => bodies.push(body),
                            other => return err(format!("shard {shard}: unexpected {other:?}")),
                        }
                    }
                    Response::Stats(merge_stats(&bodies))
                }
                Err(e) => err(e),
            },
            Request::Trace { id, recent } => match id {
                Some(id) => {
                    let mut spans: Vec<SpanBody> = shared
                        .core
                        .tracer
                        .spans(id)
                        .into_iter()
                        .map(SpanBody::from)
                        .collect();
                    // the backends hold the rest of the tree; best-effort
                    // scatter — a dead shard just leaves its spans out (and
                    // the lookup itself must not record onto the trace)
                    conns.trace_ctx = None;
                    let request = Request::Trace {
                        id: Some(id),
                        recent: None,
                    };
                    for (_, result) in conns.scatter(shared, all_shards_mask(shared), &request) {
                        if let Ok(Response::Trace(body)) = result {
                            spans.extend(body.spans);
                        }
                    }
                    Response::Trace(TraceBody {
                        spans,
                        recent: vec![],
                    })
                }
                None => Response::Trace(TraceBody {
                    spans: vec![],
                    recent: shared.core.tracer.recent(recent.unwrap_or(16)),
                }),
            },
            Request::Metrics => match conns.gather_all(shared, &Request::Metrics) {
                Ok(responses) => {
                    let mut merged = shared.metrics.registry.snapshot();
                    for (shard, resp) in responses {
                        match resp {
                            Response::Metrics(body) => match body.to_snapshot() {
                                Some(snap) => merged = merged.merge(&snap),
                                None => {
                                    return err(format!("shard {shard}: malformed metrics body"));
                                }
                            },
                            other => return err(format!("shard {shard}: unexpected {other:?}")),
                        }
                    }
                    Response::Metrics(MetricsBody::from(merged))
                }
                Err(e) => err(e),
            },
            Request::Hello => Response::Hello {
                version: PROTOCOL_VERSION,
                features: ROUTER_FEATURES.iter().map(|f| (*f).to_string()).collect(),
            },
            Request::Sync { .. } | Request::Restore { .. } => err(
                "backend-only command: issue it against a `bdi serve` backend, not the router"
                    .to_string(),
            ),
            Request::Split { shard, addrs } => crate::fleet::split_shard(shared, shard, &addrs),
            Request::Replace {
                shard,
                replica,
                addr,
            } => crate::fleet::replace_replica(shared, shard, replica, &addr),
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(self.addr);
                Response::Bye
            }
        }
    }

    fn shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// Per-connection lazy backend connections for the scatter-gather read
/// path (the write path goes through the shared lanes instead). Keyed
/// by `(shard, replica)`; each shard remembers the replica that last
/// answered and fails over in replica order when it stops doing so.
struct QueryConns {
    conns: HashMap<(usize, usize), (SocketAddr, WireConn)>,
    preferred: HashMap<usize, usize>,
    /// Context of the request currently being dispatched on this
    /// connection, if traced — scatter records a `backend.query` span
    /// per shard round-trip under it.
    trace_ctx: Option<TraceContext>,
}

impl QueryConns {
    fn new() -> Self {
        Self {
            conns: HashMap::new(),
            preferred: HashMap::new(),
            trace_ctx: None,
        }
    }

    fn ensure(
        &mut self,
        shard: usize,
        replica: usize,
        addr: SocketAddr,
    ) -> std::io::Result<&mut WireConn> {
        // a cached connection whose slot was re-pointed by `replace` or
        // `split` must not be reused: the retired backend may still be
        // alive and would answer with stale state
        if self
            .conns
            .get(&(shard, replica))
            .is_some_and(|(cached, _)| *cached != addr)
        {
            self.conns.remove(&(shard, replica));
        }
        match self.conns.entry((shard, replica)) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(&mut e.into_mut().1),
            std::collections::hash_map::Entry::Vacant(e) => {
                Ok(&mut e.insert((addr, WireConn::connect(addr)?)).1)
            }
        }
    }

    fn recv_from(&mut self, shard: usize, replica: usize) -> std::io::Result<Response> {
        match self.conns.get_mut(&(shard, replica)) {
            Some((_, c)) => c.recv(),
            None => Err(std::io::Error::other("connection vanished")),
        }
    }

    fn drop_conn(&mut self, shard: usize, replica: usize) {
        self.conns.remove(&(shard, replica));
    }

    /// Write `request` to some replica of `shard`, trying the preferred
    /// replica first and failing over in order. Returns the replica
    /// index written to.
    fn send_failover(
        &mut self,
        shared: &RouterShared,
        shard: usize,
        request: &Request,
    ) -> Result<usize, String> {
        let replicas = shard_addrs(shared, shard);
        let k = replicas.len().max(1);
        let pref = self.preferred.get(&shard).copied().unwrap_or(0) % k;
        let mut last = format!("shard {shard}: no replicas");
        for attempt in 0..replicas.len() {
            let r = (pref + attempt) % k;
            let addr = replicas[r];
            match self
                .ensure(shard, r, addr)
                .and_then(|c| c.send(request, None))
            {
                Ok(()) => {
                    self.preferred.insert(shard, r);
                    return Ok(r);
                }
                Err(e) => {
                    self.drop_conn(shard, r);
                    if attempt + 1 < replicas.len() {
                        shared.metrics.read_failovers.inc();
                    }
                    last = format!("shard {shard} replica {r} ({addr}): {e}");
                }
            }
        }
        Err(format!("shard {shard}: all replicas failed; last: {last}"))
    }

    /// Read the response owed by `first` (written by
    /// [`Self::send_failover`]); on failure, serially re-send to the
    /// remaining replicas — every read request is idempotent.
    fn recv_failover(
        &mut self,
        shared: &RouterShared,
        shard: usize,
        first: usize,
        request: &Request,
    ) -> Result<Response, String> {
        let replicas = shard_addrs(shared, shard);
        let k = replicas.len().max(1);
        let mut last = match self.recv_from(shard, first) {
            Ok(resp) => return Ok(resp),
            Err(e) => {
                self.drop_conn(shard, first);
                if replicas.len() > 1 {
                    shared.metrics.read_failovers.inc();
                }
                let addr = replicas.get(first).copied();
                format!(
                    "shard {shard} replica {first} ({}): {e}",
                    addr.map_or_else(|| "?".to_string(), |a| a.to_string())
                )
            }
        };
        for attempt in 1..replicas.len() {
            let r = (first + attempt) % k;
            let addr = replicas[r];
            let result = self
                .ensure(shard, r, addr)
                .and_then(|c| c.call(request, None));
            match result {
                Ok(resp) => {
                    self.preferred.insert(shard, r);
                    return Ok(resp);
                }
                Err(e) => {
                    self.drop_conn(shard, r);
                    if attempt + 1 < replicas.len() {
                        shared.metrics.read_failovers.inc();
                    }
                    last = format!("shard {shard} replica {r} ({addr}): {e}");
                }
            }
        }
        Err(format!("shard {shard}: all replicas failed; last: {last}"))
    }

    /// Write `request` to one replica of every shard in `mask`, *then*
    /// read the responses — backends process concurrently. Results come
    /// back in shard order; a shard fails only when every replica does.
    fn scatter(
        &mut self,
        shared: &RouterShared,
        mask: ShardMask,
        request: &Request,
    ) -> Vec<(usize, Result<Response, String>)> {
        let n = shared.shards.read().len();
        let mut results: Vec<(usize, Result<Response, String>)> = Vec::new();
        let mut pending: Vec<(usize, usize, u64)> = Vec::new();
        for shard in mask_shards(mask).filter(|&s| s < n) {
            let t0 = shared.core.tracer.now_ns();
            match self.send_failover(shared, shard, request) {
                Ok(replica) => pending.push((shard, replica, t0)),
                Err(e) => results.push((shard, Err(e))),
            }
        }
        for (shard, replica, t0) in pending {
            let result = self.recv_failover(shared, shard, replica, request);
            if let Some(ctx) = self.trace_ctx {
                shared.core.tracer.record(
                    ctx,
                    "backend.query",
                    t0,
                    shared.core.tracer.now_ns(),
                    &[("shard", shard as u64), ("replica", replica as u64)],
                );
            }
            results.push((shard, result));
        }
        results.sort_by_key(|(s, _)| *s);
        results
    }

    /// Scatter to every shard; any per-shard failure collapses the
    /// whole request into one error naming each failed shard.
    fn gather_all(
        &mut self,
        shared: &RouterShared,
        request: &Request,
    ) -> Result<Vec<(usize, Response)>, String> {
        let mut out = Vec::new();
        let mut errors = Vec::new();
        for (shard, result) in self.scatter(shared, all_shards_mask(shared), request) {
            match result {
                Ok(resp) => out.push((shard, resp)),
                Err(e) => errors.push(e),
            }
        }
        if errors.is_empty() {
            Ok(out)
        } else {
            Err(errors.join("; "))
        }
    }
}

/// Addresses of `shard`'s replicas, snapshotted out of the locks so no
/// lock is held across I/O.
fn shard_addrs(shared: &RouterShared, shard: usize) -> Vec<SocketAddr> {
    let shards = shared.shards.read();
    shards.get(shard).map(|s| s.addrs()).unwrap_or_default()
}

fn all_shards_mask(shared: &RouterShared) -> ShardMask {
    let n = shared.shards.read().len();
    if n >= MAX_SHARDS {
        ShardMask::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Route one record: bridge decision and per-lane enqueue accounting
/// under the bridge lock (so a split or replace barrier can never miss
/// an in-flight record), then the actual channel sends outside every
/// lock. Returns the router's submitted counter after this record.
fn route_one(
    shared: &RouterShared,
    record: Record,
    ctx: Option<TraceContext>,
) -> Result<u64, String> {
    let t0 = ctx.map(|_| shared.core.tracer.now_ns());
    let fp = RecordFingerprint::of(&record);
    let mut lanes: Vec<Arc<ReplicaLane>> = Vec::new();
    let home;
    {
        let mut bridge = shared.bridge.lock();
        let route = bridge.route(&record, &fp);
        home = route.home as u64;
        shared
            .metrics
            .bridged_records
            .set(bridge.bridged_len() as u64);
        let shards = shared.shards.read();
        // home first (route.shards() yields it first): a fully-down home
        // errors before anything was enqueued, so nothing needs undoing
        for shard in route.shards() {
            let replicas = shards[shard].replicas.read();
            let before = lanes.len();
            for lane in replicas.iter() {
                if lane.is_down() {
                    shared.metrics.replicas_dropped.inc();
                    continue;
                }
                lane.enqueued.fetch_add(1, Ordering::SeqCst);
                lanes.push(Arc::clone(lane));
            }
            if shard == route.home && lanes.len() == before {
                let addrs: Vec<String> = replicas.iter().map(|l| l.addr.to_string()).collect();
                return Err(format!("shard {shard} ({}) is down", addrs.join(", ")));
            }
            if shard != route.home && lanes.len() > before {
                shared.metrics.replicated.inc();
            }
        }
    }
    if let (Some(ctx), Some(t0)) = (ctx, t0) {
        shared.core.tracer.record(
            ctx,
            "route.partition",
            t0,
            shared.core.tracer.now_ns(),
            &[("home", home), ("copies", lanes.len() as u64)],
        );
    }
    let last = lanes.len() - 1;
    let mut record = Some(record);
    let item_ctx = ctx.map(|c| (c, shared.core.tracer.now_ns()));
    for (i, lane) in lanes.iter().enumerate() {
        let copy = if i == last {
            record.take().expect("moved exactly once")
        } else {
            record
                .as_ref()
                .expect("present until the last copy")
                .clone()
        };
        if lane.tx.send((copy, item_ctx)).is_err() {
            // lane retired mid-flight (replaced): the record was already
            // shipped to the replacement via sync — just settle the count
            lane.settled.fetch_add(1, Ordering::SeqCst);
        }
    }
    Ok(shared.metrics.submitted.inc())
}

/// Wait until every lane has settled every record routed to it. Lane
/// workers settle even after a backend death (drain mode), so this
/// always terminates. No health verdict — callers that require live
/// shards use [`ingest_barrier`].
pub(crate) fn settle_barrier(shared: &RouterShared) -> Result<(), String> {
    loop {
        let pending = {
            let shards = shared.shards.read();
            shards
                .iter()
                .any(|s| s.replicas.read().iter().any(|l| l.pending()))
        };
        if !pending {
            return Ok(());
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err("shutting down".to_string());
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// [`settle_barrier`], then fail if any shard lost *all* of its
/// replicas — records routed there were drained, not applied. A down
/// replica whose peers survive is not an error: its copies are the
/// redundancy being spent.
fn ingest_barrier(shared: &RouterShared) -> Result<(), String> {
    settle_barrier(shared)?;
    let dead: Vec<String> = {
        let shards = shared.shards.read();
        shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let replicas = s.replicas.read();
                if replicas.iter().all(|l| l.is_down()) {
                    let addrs: Vec<String> = replicas.iter().map(|l| l.addr.to_string()).collect();
                    Some(format!("shard {i} ({})", addrs.join(", ")))
                } else {
                    None
                }
            })
            .collect()
    };
    if dead.is_empty() {
        Ok(())
    } else {
        Err(format!("backend(s) down: {}", dead.join(", ")))
    }
}

fn err(message: String) -> Response {
    Response::Error { message }
}

/// Flush every replica of every shard (each copy is its own engine and
/// must fold in its queue), summing one representative replica per
/// shard — summing all copies would multiply the fleet totals by R.
/// Two-phase like scatter: all writes go out before any read.
fn flush_fleet(shared: &RouterShared, conns: &mut QueryConns) -> Response {
    let topo: Vec<Vec<SocketAddr>> = {
        let shards = shared.shards.read();
        shards.iter().map(|s| s.addrs()).collect()
    };
    let mut sent: Vec<(usize, usize, SocketAddr)> = Vec::new();
    let mut retry: Vec<(usize, usize, SocketAddr)> = Vec::new();
    for (shard, replicas) in topo.iter().enumerate() {
        for (replica, &addr) in replicas.iter().enumerate() {
            match conns
                .ensure(shard, replica, addr)
                .and_then(|c| c.send(&Request::Flush, None))
            {
                Ok(()) => sent.push((shard, replica, addr)),
                Err(_) => {
                    conns.drop_conn(shard, replica);
                    retry.push((shard, replica, addr));
                }
            }
        }
    }
    let mut per_shard: Vec<Option<(u64, u64)>> = vec![None; topo.len()];
    for (shard, replica, addr) in sent {
        match conns.recv_from(shard, replica) {
            Ok(Response::Flushed {
                generation,
                applied,
            }) => {
                if per_shard[shard].is_none() {
                    per_shard[shard] = Some((generation, applied));
                }
            }
            Ok(other) => return err(format!("shard {shard}: unexpected {other:?}")),
            Err(_) => {
                conns.drop_conn(shard, replica);
                retry.push((shard, replica, addr));
            }
        }
    }
    // one serial second chance on a fresh connection: a failed copy may
    // just have held a connection that died with a killed or replaced
    // backend, and every live replica must fold in its queue
    for (shard, replica, addr) in retry {
        let result = conns
            .ensure(shard, replica, addr)
            .and_then(|c| c.call(&Request::Flush, None));
        match result {
            Ok(Response::Flushed {
                generation,
                applied,
            }) => {
                if per_shard[shard].is_none() {
                    per_shard[shard] = Some((generation, applied));
                }
            }
            Ok(other) => return err(format!("shard {shard}: unexpected {other:?}")),
            Err(_) => conns.drop_conn(shard, replica),
        }
    }
    let (mut generation, mut applied) = (0u64, 0u64);
    for (shard, state) in per_shard.iter().enumerate() {
        match state {
            Some((g, a)) => {
                generation += g;
                applied += a;
            }
            None => return err(format!("shard {shard}: no replica completed flush")),
        }
    }
    Response::Flushed {
        generation,
        applied,
    }
}

/// Scatter an entry-listing request to every shard and pool the
/// returned entries with their shard tags; generation is the fleet sum.
fn gather_entries(
    shared: &RouterShared,
    conns: &mut QueryConns,
    request: &Request,
) -> Result<(u64, Vec<(usize, CatalogEntry)>), String> {
    let mut generation = 0u64;
    let mut gathered = Vec::new();
    for (shard, resp) in conns.gather_all(shared, request)? {
        match resp {
            Response::Entries {
                generation: g,
                entries,
            } => {
                generation += g;
                gathered.extend(entries.into_iter().map(|e| (shard, e)));
            }
            other => return Err(format!("shard {shard}: unexpected {other:?}")),
        }
    }
    Ok((generation, gathered))
}

/// Resolve one identifier: consult the shards the bridge says can hold
/// it, chase bridge chains to closure, and join what comes back.
fn lookup(shared: &RouterShared, conns: &mut QueryConns, identifier: &str) -> Response {
    let norm = normalize_identifier(identifier);
    let request = Request::Lookup {
        identifier: identifier.to_string(),
    };
    let mut mask = shared.bridge.lock().lookup_shards(identifier);
    let mut queried: ShardMask = 0;
    let mut generation = 0u64;
    let mut gathered: Vec<(usize, CatalogEntry)> = Vec::new();
    while mask & !queried != 0 {
        let fresh = mask & !queried;
        queried |= fresh;
        for (shard, result) in conns.scatter(shared, fresh, &request) {
            match result {
                Ok(Response::Entry {
                    generation: g,
                    entry,
                }) => {
                    generation += g;
                    if let Some(e) = entry {
                        // a bridged identifier in the answer can widen
                        // the shard set — chase it next round
                        let bridge = shared.bridge.lock();
                        for id in &e.identifiers {
                            if let Some(extra) = bridge.bridged_mask(id) {
                                mask |= extra;
                            }
                        }
                        gathered.push((shard, e));
                    }
                }
                Ok(other) => return err(format!("shard {shard}: unexpected {other:?}")),
                Err(e) => return err(e),
            }
        }
    }
    let merged = merge_entries(gathered);
    // identifier collisions can leave several merged clusters claiming
    // the key; prefer the one actually publishing it (deterministic:
    // merge order is fixed), mirroring the backend's lowest-id rule
    let entry = if merged.len() <= 1 {
        merged.into_iter().next()
    } else {
        let mut merged = merged;
        let at = merged
            .iter()
            .position(|e| e.identifiers.contains(&norm))
            .unwrap_or(0);
        Some(merged.swap_remove(at))
    };
    Response::Entry { generation, entry }
}

/// A deduplicated candidate ranked for the top-k heap: highest fused
/// magnitude first, ties to the earlier merged entry (deterministic for
/// any gather order, since merge order is deterministic).
struct Ranked {
    magnitude: f64,
    index: usize,
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Ranked {}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.magnitude
            .total_cmp(&other.magnitude)
            .then_with(|| other.index.cmp(&self.index))
    }
}

/// Global top-k: scatter per-shard top-k, dedup bridged clusters, then
/// heap-select the k best of the merged candidates. Each shard returns
/// its own k best, which over-fetches exactly enough — a cluster in the
/// global top k is in the top k of every shard holding a piece of it.
fn top_k(shared: &RouterShared, conns: &mut QueryConns, attribute: &str, k: usize) -> Response {
    let request = Request::TopK {
        attribute: attribute.to_string(),
        k,
    };
    let (generation, gathered) = match gather_entries(shared, conns, &request) {
        Ok(x) => x,
        Err(e) => return err(e),
    };
    let merged = merge_entries(gathered);
    let mut heap: BinaryHeap<Ranked> = merged
        .iter()
        .enumerate()
        .filter_map(|(index, e)| {
            let magnitude = e.attributes.get(attribute)?.base_magnitude()?;
            Some(Ranked { magnitude, index })
        })
        .collect();
    let mut picked = Vec::with_capacity(k.min(heap.len()));
    while picked.len() < k {
        match heap.pop() {
            Some(r) => picked.push(r.index),
            None => break,
        }
    }
    let mut take: Vec<Option<CatalogEntry>> = merged.into_iter().map(Some).collect();
    let entries = picked
        .into_iter()
        .map(|i| take[i].take().expect("heap indices are unique"))
        .collect();
    Response::Entries {
        generation,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::server::{Server, ServerConfig};
    use bdi_types::{RecordId, SourceId, Value};

    fn rec(s: u32, q: u32, title: &str, ids: &[&str], price: f64) -> Record {
        let mut r = Record::new(RecordId::new(SourceId(s), q), title);
        for id in ids {
            r.identifiers.push((*id).to_string());
        }
        r.attributes.insert("price".into(), Value::num(price));
        r
    }

    fn fleet(n: usize) -> (Vec<Server>, Router) {
        fleet_replicated(n, 1)
    }

    fn fleet_replicated(shards: usize, replicas: usize) -> (Vec<Server>, Router) {
        let backends: Vec<Server> = (0..shards * replicas)
            .map(|_| Server::start(ServerConfig::default()).expect("backend binds"))
            .collect();
        let router = Router::start(RouterConfig {
            backends: backends.iter().map(|s| s.addr().to_string()).collect(),
            replicas,
            batch: 4,
            ..RouterConfig::default()
        })
        .expect("router binds");
        (backends, router)
    }

    #[test]
    fn routed_fleet_serves_like_one_node() {
        let (backends, router) = fleet(2);
        let mut client = Client::connect(router.addr()).unwrap();
        // enough distinct identifiers that both shards get records
        let records: Vec<Record> = (0..24u32)
            .map(|i| {
                rec(
                    i % 4,
                    i / 4,
                    &format!("Gadget{} model{}", i / 2, i / 2),
                    &[&format!("XXX-YYY-{:05}", i / 2)],
                    f64::from(i),
                )
            })
            .collect();
        for r in records.iter().take(12).cloned() {
            client.ingest(r).unwrap();
        }
        let submitted = client.ingest_batch(records[12..].to_vec()).unwrap();
        assert_eq!(submitted, 24, "router counts each record once");
        let (_, applied) = client.flush().unwrap();
        assert_eq!(applied, 24, "every copy applied across the fleet");

        let stats = client.stats().unwrap();
        assert_eq!(stats.submitted, 24, "no bridging needed: no replicas");
        assert_eq!(stats.records, 24);
        assert_eq!(stats.products, 12, "each pair fused on one shard");

        // per-shard placement is real: both backends hold something
        for b in &backends {
            let mut direct = Client::connect(b.addr()).unwrap();
            assert!(direct.stats().unwrap().records > 0, "both shards used");
        }

        // single-shard lookup resolves through the router
        let entry = client.lookup("xxx-yyy-00003").unwrap().expect("resolves");
        assert_eq!(entry.pages.len(), 2);

        // scatter-gather top_k sees the global order
        let top = client.top_k("price", 3).unwrap();
        assert_eq!(top.len(), 3);
        let mags: Vec<f64> = top
            .iter()
            .map(|e| e.attributes["price"].base_magnitude().unwrap())
            .collect();
        assert!(mags[0] >= mags[1] && mags[1] >= mags[2]);

        // filter crosses shards too
        let within = client.filter("price", Some(10.0), None, None).unwrap();
        assert!(!within.is_empty());

        // merged metrics carry both router and backend families
        let metrics = client.metrics().unwrap();
        assert_eq!(metrics.counters["route.ingest.submitted"], 24);
        assert_eq!(metrics.counters["serve.ingest.submitted"], 24);
        assert!(metrics
            .histograms
            .contains_key("route.backend.batch_records"));

        drop(client);
        router.shutdown();
        for b in backends {
            b.shutdown();
        }
    }

    #[test]
    fn replicas_mirror_every_copy() {
        let (backends, router) = fleet_replicated(2, 2);
        let mut client = Client::connect(router.addr()).unwrap();
        let records: Vec<Record> = (0..16u32)
            .map(|i| {
                rec(
                    i % 4,
                    i / 4,
                    &format!("Gadget{} model{}", i / 2, i / 2),
                    &[&format!("XXX-YYY-{:05}", i / 2)],
                    f64::from(i),
                )
            })
            .collect();
        let submitted = client.ingest_batch(records).unwrap();
        assert_eq!(submitted, 16, "each record still counted once");
        let (_, applied) = client.flush().unwrap();
        assert_eq!(applied, 16, "representative replicas sum to the total");

        // both replicas of each shard hold identical record counts
        let stats = client.stats().unwrap();
        assert_eq!(stats.records, 16, "merged stats count one copy per shard");
        for pair in backends.chunks(2) {
            let counts: Vec<usize> = pair
                .iter()
                .map(|b| Client::connect(b.addr()).unwrap().stats().unwrap().records)
                .collect();
            assert_eq!(counts[0], counts[1], "replicas mirror the shard's stream");
        }

        drop(client);
        router.shutdown();
        for b in backends {
            b.shutdown();
        }
    }

    #[test]
    fn cross_shard_bridge_joins_clusters_on_read() {
        let (backends, router) = fleet(2);
        let n = backends.len();
        // records sharing a *primary* identifier route to the same home,
        // so the genuinely cross-shard link path is the digit-run match:
        // two identifiers with the same "00100" core whose full
        // normalized forms hash to different shards
        let ida = "CAM-LUM-00100".to_string();
        let home_a = crate::gen::shard_of(&normalize_identifier(&ida), n);
        let idb = (b'A'..=b'Z')
            .flat_map(|c1| {
                (b'A'..=b'Z')
                    .map(move |c2| format!("{}{}C-TRI-00100", char::from(c1), char::from(c2)))
            })
            .find(|cand| crate::gen::shard_of(&normalize_identifier(cand), n) != home_a)
            .expect("some prefix hashes to the other shard");

        let mut client = Client::connect(router.addr()).unwrap();
        client
            .ingest(rec(0, 0, "Lumetra LX-100 camera", &[&ida], 499.0))
            .unwrap();
        // same digit core + corroborating title: scores 0.95 via the
        // digit-run path, exactly as single-node linkage would — but
        // only because the bridge replicated it onto ida's shard
        client
            .ingest(rec(1, 0, "Lumetra LX-100 camera kit", &[&idb], 549.0))
            .unwrap();
        client.flush().unwrap();

        let via_a = client.lookup(&ida).unwrap().expect("cluster via ida");
        assert_eq!(
            via_a.pages.len(),
            2,
            "digit-core pair fused across the shard boundary"
        );
        // idb hashes to the other shard, whose local entry is the lone
        // replica — the bridge chase pulls in the owning shard's cluster
        let via_b = client.lookup(&idb).unwrap().expect("cluster via idb");
        assert_eq!(
            via_b.pages, via_a.pages,
            "lookup crosses the shard boundary through the bridge"
        );
        assert!(via_b.identifiers.contains(&normalize_identifier(&ida)));

        let stats = client.stats().unwrap();
        assert_eq!(stats.submitted, 3, "one replica counted on its shard");

        drop(client);
        router.shutdown();
        for b in backends {
            b.shutdown();
        }
    }

    #[test]
    fn dead_backend_is_a_clean_error_not_a_hang() {
        let (mut backends, router) = fleet(2);
        let mut client = Client::connect(router.addr()).unwrap();
        let ids: Vec<String> = (0..8u32).map(|i| format!("WID-GET-{i:05}")).collect();
        for (i, id) in ids.iter().enumerate() {
            client
                .ingest(rec(i as u32, 0, &format!("Widget mk{i}"), &[id], i as f64))
                .unwrap();
        }
        client.flush().unwrap();

        // kill shard 1 in the background. Its accept loop dies at once;
        // its open connections each close after one more request — which
        // is exactly how a remote kill looks from the router's side.
        let victim = backends.remove(1);
        let killer = std::thread::spawn(move || victim.shutdown());

        // scatter path: polling stats soon fails cleanly, naming the
        // dead shard — and the router connection survives the error
        let mut named = None;
        for _ in 0..200 {
            match client.stats() {
                Ok(_) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => {
                    named = Some(e.to_string());
                    break;
                }
            }
        }
        let named = named.expect("scatter reports the dead shard, no hang");
        assert!(named.contains("shard 1"), "error names the shard: {named}");

        // ingest path: keep routing until a record homes on the dead
        // shard; the ack becomes a clean error, and flush's barrier
        // still terminates (drained, not applied) and reports the death
        let mut saw_error = false;
        for i in 100..2000u32 {
            let r = rec(
                i,
                0,
                &format!("Late widget mk{i}"),
                &[&format!("LAT-WID-{i:05}")],
                1.0,
            );
            if client.ingest(r).is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error, "some late record homes on the dead shard");
        let flush = client.flush();
        assert!(flush.is_err(), "flush reports the dead shard: {flush:?}");

        // the surviving shard keeps answering single-shard lookups
        let survivor = ids
            .iter()
            .find(|id| crate::gen::shard_of(&normalize_identifier(id), 2) == 0)
            .expect("some identifier homes on shard 0");
        assert!(
            client.lookup(survivor).unwrap().is_some(),
            "surviving shard still serves"
        );

        drop(client);
        router.shutdown();
        killer.join().expect("backend shutdown completes");
        for b in backends {
            b.shutdown();
        }
    }
}
