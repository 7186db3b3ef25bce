//! The replica lane layer: everything between a routing decision and a
//! backend's TCP socket.
//!
//! The router used to own one lane per backend; with `--replicas R`
//! each shard owns R lanes, every routed record is mirrored onto all of
//! them, and reads fail over between them. This module holds the pieces
//! that are per-*backend* rather than per-shard:
//!
//! * [`LaneConn`] — a raw request/response-decoupled connection (writes
//!   can run ahead of reads for scatter and pipelining), plus the
//!   version/feature handshake ([`LaneConn::connect_checked`]) and
//!   bounded-retry connect ([`connect_with_retry`]) that front it.
//! * [`ReplicaLane`] — the bounded channel handlers route into and the
//!   `enqueued`/`settled` counters the flush barrier reconciles, one
//!   per (shard, replica).
//! * [`ShardState`] — a shard's replica set behind an `RwLock`, so node
//!   replacement can swap a lane and shard splits can append a shard
//!   without stopping the world.
//! * [`lane_worker`] — the thread that drains one lane into pipelined
//!   `ingest_batch` requests. Workers hold their lane [`Weak`]: when a
//!   replacement swaps the lane out of the shard's set, the worker
//!   observes the drop and exits instead of idling forever.
//!
//! Connect failures are retried with exponential backoff (transient —
//! a backend mid-restart); a *handshake* failure is permanent and never
//! retried; a *write* failure is never retried at all — the protocol
//! has no request ids, so the router cannot know whether the backend
//! applied the batch before dying, and resending would risk
//! double-apply. The lane is marked down instead and the replica is
//! rebuilt through `replace` (WAL shipping), which restores from an
//! exact position.

use crate::frame;
use crate::protocol::{Request, Response, PROTOCOL_VERSION};
use crate::router::RouterShared;
use crate::server::{FEATURE_BINARY, FEATURE_TRACE};
use bdi_obs::{ActiveSpan, Counter, TraceContext};
use bdi_types::Record;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// One raw backend connection: unlike [`crate::Client`], requests and
/// responses are decoupled so callers can write to several backends
/// before reading from any (scatter) or run writes ahead of acks
/// (pipelining).
pub(crate) struct LaneConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The peer advertised `binary-frames` in its `hello`: requests
    /// with a binary mapping ship as frames instead of JSON lines.
    binary: bool,
    /// The peer advertised `trace-context`: traced requests carry their
    /// context (frame trace extension / JSON `trace` envelope). Off,
    /// requests go out plain — old peers see byte-identical traffic.
    trace: bool,
    /// Reused binary encode buffer — one frame per batch, zero
    /// per-batch allocations once warm.
    wbuf: Vec<u8>,
    /// Reused binary receive buffer.
    rbuf: Vec<u8>,
    /// Reused JSON encode buffer (the non-binary twin of `wbuf`).
    line: String,
}

impl LaneConn {
    pub(crate) fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            writer,
            reader,
            binary: false,
            trace: false,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            line: String::new(),
        })
    }

    /// Connect and run the `hello` handshake: the peer must speak
    /// exactly [`PROTOCOL_VERSION`] and advertise every feature in
    /// `required`. A mismatch is `InvalidData` — a *permanent* error
    /// that [`connect_with_retry`] will not retry, so a mixed-version
    /// fleet fails fast instead of flapping.
    pub(crate) fn connect_checked(addr: SocketAddr, required: &[&str]) -> std::io::Result<Self> {
        let mut conn = Self::connect(addr)?;
        conn.send(&Request::Hello)?;
        match conn.recv()? {
            Response::Hello { version, features } => {
                if version != PROTOCOL_VERSION {
                    return Err(invalid(format!(
                        "protocol mismatch: {addr} speaks v{version}, \
                         this router speaks v{PROTOCOL_VERSION}"
                    )));
                }
                if let Some(missing) = required
                    .iter()
                    .find(|need| !features.iter().any(|have| have == *need))
                {
                    return Err(invalid(format!(
                        "{addr} lacks required feature '{missing}'"
                    )));
                }
                // opportunistic, never required: a peer that does not
                // list `binary-frames` keeps this lane on the JSON
                // path, and a trace-blind peer gets plain requests
                conn.binary = features.iter().any(|f| f == FEATURE_BINARY);
                conn.trace = features.iter().any(|f| f == FEATURE_TRACE);
                Ok(conn)
            }
            // pre-v2 builds answer hello with an error response
            Response::Error { message } => Err(invalid(format!(
                "{addr} rejected hello (pre-v{PROTOCOL_VERSION} build?): {message}"
            ))),
            other => Err(invalid(format!("{addr} answered hello with {other:?}"))),
        }
    }

    pub(crate) fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    pub(crate) fn send(&mut self, request: &Request) -> std::io::Result<()> {
        self.send_traced(request, None)
    }

    /// Send one request, carrying `ctx` when the peer negotiated
    /// `trace-context` — as the binary frame extension, or the JSON
    /// `traced` envelope on the JSON path. Without the feature (or
    /// without a context) the request goes out plain, byte-for-byte
    /// what an untraced sender produces.
    pub(crate) fn send_traced(
        &mut self,
        request: &Request,
        ctx: Option<TraceContext>,
    ) -> std::io::Result<()> {
        let ctx = ctx.filter(|_| self.trace);
        let wire_ctx = ctx.map(|c| (c.trace, c.parent));
        if self.binary && frame::encode_request_traced(&mut self.wbuf, request, wire_ctx) {
            self.writer.write_all(&self.wbuf)?;
            return self.writer.flush();
        }
        // JSON path: serialize into the reused line buffer — no fresh
        // String per batch
        serde_json::to_string_into(request, &mut self.line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        if let Some(ctx) = ctx {
            self.line.insert_str(
                0,
                &format!(
                    "{{\"traced\":{{\"id\":{},\"parent\":{}}},\"request\":",
                    ctx.trace, ctx.parent
                ),
            );
            self.line.push('}');
        }
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())?;
        self.writer.flush()
    }

    pub(crate) fn recv(&mut self) -> std::io::Result<Response> {
        crate::client::read_response(&mut self.reader, &mut self.rbuf)
    }

    /// Read one response that must be an ingest ack.
    pub(crate) fn recv_ack(&mut self) -> std::io::Result<()> {
        match self.recv()? {
            Response::Ack { .. } => Ok(()),
            Response::Error { message } => {
                Err(invalid(format!("backend rejected batch: {message}")))
            }
            other => Err(invalid(format!(
                "unexpected response to ingest_batch: {other:?}"
            ))),
        }
    }
}

/// [`LaneConn::connect_checked`] behind bounded exponential backoff:
/// `retries` extra attempts at 10ms, 20ms, 40ms… before the error is
/// surfaced, each retry counted on `retry_counter`
/// (`route.backend.retries`). Only *transient* failures retry — a
/// handshake mismatch (`InvalidData`) is permanent and returns at once.
pub(crate) fn connect_with_retry(
    addr: SocketAddr,
    required: &[&str],
    retries: u32,
    retry_counter: &Counter,
) -> std::io::Result<LaneConn> {
    let mut attempt = 0u32;
    loop {
        match LaneConn::connect_checked(addr, required) {
            Ok(conn) => return Ok(conn),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => return Err(e),
            Err(e) if attempt >= retries => return Err(e),
            Err(_) => {
                retry_counter.inc();
                std::thread::sleep(Duration::from_millis(10u64 << attempt.min(6)));
                attempt += 1;
            }
        }
    }
}

/// One queued record on a lane: the record plus, when the submitting
/// request was traced, its context and the tracer-clock enqueue time
/// (what the `lane.queue` span measures).
pub(crate) type LaneItem = (Record, Option<(TraceContext, u64)>);

/// One backend's ingest lane: the channel handlers route into plus the
/// counters the flush barrier reconciles.
pub(crate) struct ReplicaLane {
    /// Shard this lane serves (stable across replacement).
    pub(crate) shard: usize,
    /// Position in the shard's replica set (stable across replacement).
    pub(crate) replica: usize,
    pub(crate) addr: SocketAddr,
    pub(crate) tx: Sender<LaneItem>,
    /// Records handed to this lane (home copies and bridge replicas).
    pub(crate) enqueued: AtomicU64,
    /// Records acked by the backend — or discarded after its death, so
    /// `settled == enqueued` is always eventually true.
    pub(crate) settled: AtomicU64,
    /// Set on the first I/O error; cleared only by `replace`, which
    /// swaps in a whole new lane.
    pub(crate) down: AtomicBool,
}

impl ReplicaLane {
    pub(crate) fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Records routed here that the backend has not yet acked.
    pub(crate) fn pending(&self) -> bool {
        self.settled.load(Ordering::SeqCst) < self.enqueued.load(Ordering::SeqCst)
    }
}

/// One shard's replica set. Behind an `RwLock` so `replace` can swap a
/// single lane while ingest keeps routing through the others.
pub(crate) struct ShardState {
    pub(crate) replicas: RwLock<Vec<Arc<ReplicaLane>>>,
}

impl ShardState {
    /// Replica addresses in replica order.
    pub(crate) fn addrs(&self) -> Vec<SocketAddr> {
        self.replicas.read().iter().map(|l| l.addr).collect()
    }
}

/// Create a lane for `(shard, replica)` at `addr` and start its worker
/// thread (registered on the shared worker list for join-at-shutdown).
/// The worker holds the lane only weakly: swapping the lane out of its
/// [`ShardState`] retires the worker.
pub(crate) fn spawn_lane(
    shard: usize,
    replica: usize,
    addr: SocketAddr,
    shared: &Arc<RouterShared>,
) -> Arc<ReplicaLane> {
    let (tx, rx) = bounded(shared.queue_capacity.max(1));
    let lane = Arc::new(ReplicaLane {
        shard,
        replica,
        addr,
        tx,
        enqueued: AtomicU64::new(0),
        settled: AtomicU64::new(0),
        down: AtomicBool::new(false),
    });
    let weak = Arc::downgrade(&lane);
    let worker_shared = Arc::clone(shared);
    let handle = std::thread::spawn(move || lane_worker(weak, worker_shared, rx));
    shared.lane_workers.lock().push(handle);
    lane
}

/// One backend's ingest worker: drain the lane channel into pipelined
/// `ingest_batch` requests. After an I/O error the worker marks the
/// lane down and keeps draining, settling (discarding) records so flush
/// barriers always terminate. Exits when the lane is retired (its
/// [`Weak`] no longer upgrades), the channel disconnects, or shutdown
/// finds it idle.
fn lane_worker(lane_ref: Weak<ReplicaLane>, shared: Arc<RouterShared>, rx: Receiver<LaneItem>) {
    let mut conn: Option<LaneConn> = None;
    // per in-flight ingest_batch, oldest first: its record count plus
    // the `lane.batch` span finished when its ack arrives
    let mut outstanding: VecDeque<(u64, Option<ActiveSpan>)> = VecDeque::new();
    loop {
        // upgrade per iteration: a replaced lane stops being held by its
        // shard, the upgrade fails, and this worker retires
        let Some(lane) = lane_ref.upgrade() else {
            break;
        };
        let first = match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(r) => Some(r),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if lane.is_down() {
            // drain mode: settle everything so barriers terminate
            let mut settled = u64::from(first.is_some());
            while rx.try_recv().is_ok() {
                settled += 1;
            }
            if settled > 0 {
                lane.settled.fetch_add(settled, Ordering::SeqCst);
            }
            if shared.shutdown.load(Ordering::SeqCst) && rx.is_empty() {
                break;
            }
            continue;
        }
        let Some(first) = first else {
            if shared.shutdown.load(Ordering::SeqCst) && rx.is_empty() && outstanding.is_empty() {
                break;
            }
            continue;
        };
        // pack a batch; a traced item gets its queue wait recorded, and
        // the first traced context parents this batch's `lane.batch`
        // span (the send→ack round trip the backend's spans nest under)
        let tracer = &shared.core.tracer;
        let mut batch_ctx: Option<TraceContext> = None;
        let mut note = |item: LaneItem, records: &mut Vec<Record>| {
            let (record, trace) = item;
            if let Some((ctx, enqueued_ns)) = trace {
                tracer.record(ctx, "lane.queue", enqueued_ns, tracer.now_ns(), &[]);
                batch_ctx = batch_ctx.or(Some(ctx));
            }
            records.push(record);
        };
        let mut records = Vec::new();
        note(first, &mut records);
        while records.len() < shared.batch {
            match rx.try_recv() {
                Ok(item) => note(item, &mut records),
                Err(_) => break,
            }
        }
        let n = records.len() as u64;
        shared.metrics.backend_batch_records.record(n);
        let mut span = shared.core.tracer.begin(batch_ctx, "lane.batch");
        if let Some(s) = &mut span {
            s.attr("shard", lane.shard as u64);
            s.attr("replica", lane.replica as u64);
            s.attr("records", n);
        }
        let ctx = span.as_ref().map(|s| s.ctx());
        let sent = ensure_conn(&mut conn, &lane, &shared)
            .and_then(|c| c.send_traced(&Request::IngestBatch { records }, ctx));
        match sent {
            Ok(()) => outstanding.push_back((n, span)),
            Err(e) => {
                if let Some(s) = span {
                    shared.core.tracer.finish(s);
                }
                fail_lane(&shared, &lane, &mut outstanding, n, &e.to_string());
                conn = None;
                continue;
            }
        }
        // read acks once the pipeline is full, and always drain fully
        // when no more input is waiting — an idle lane owes no acks, so
        // the flush barrier sees settled == enqueued promptly
        while outstanding.len() >= shared.depth || (rx.is_empty() && !outstanding.is_empty()) {
            let acked = conn.as_mut().expect("sent over this conn").recv_ack();
            match acked {
                Ok(()) => {
                    let (n, span) = outstanding.pop_front().expect("one ack per batch");
                    if let Some(s) = span {
                        shared.core.tracer.finish(s);
                    }
                    lane.settled.fetch_add(n, Ordering::SeqCst);
                }
                Err(e) => {
                    fail_lane(&shared, &lane, &mut outstanding, 0, &e.to_string());
                    conn = None;
                    break;
                }
            }
        }
    }
    // disconnected or shutdown: collect acks still owed (skipped when
    // the lane itself is already retired — nobody reads its counters)
    if let (Some(c), Some(lane)) = (conn.as_mut(), lane_ref.upgrade()) {
        while !outstanding.is_empty() {
            match c.recv_ack() {
                Ok(()) => {
                    let (n, span) = outstanding.pop_front().expect("one ack per batch");
                    if let Some(s) = span {
                        shared.core.tracer.finish(s);
                    }
                    lane.settled.fetch_add(n, Ordering::SeqCst);
                }
                Err(e) => {
                    fail_lane(&shared, &lane, &mut outstanding, 0, &e.to_string());
                    break;
                }
            }
        }
    }
}

fn ensure_conn<'a>(
    conn: &'a mut Option<LaneConn>,
    lane: &ReplicaLane,
    shared: &RouterShared,
) -> std::io::Result<&'a mut LaneConn> {
    if conn.is_none() {
        *conn = Some(connect_with_retry(
            lane.addr,
            &["ingest_batch"],
            shared.retries,
            &shared.metrics.retries,
        )?);
    }
    Ok(conn.as_mut().expect("just connected"))
}

/// Mark a lane's backend down and settle everything it will never ack:
/// the batch that failed to send (`pending`) plus every batch in
/// flight. In-flight `lane.batch` spans are finished here — a trace
/// through a dying lane shows the batch ending at the failure, not a
/// span that never closes.
fn fail_lane(
    shared: &RouterShared,
    lane: &ReplicaLane,
    outstanding: &mut VecDeque<(u64, Option<ActiveSpan>)>,
    pending: u64,
    err: &str,
) {
    let mut lost: u64 = pending;
    for (n, span) in outstanding.drain(..) {
        lost += n;
        if let Some(s) = span {
            shared.core.tracer.finish(s);
        }
    }
    if lost > 0 {
        lane.settled.fetch_add(lost, Ordering::SeqCst);
    }
    shared.mark_down(lane, err);
}
