//! The replica lane layer: everything between a routing decision and a
//! backend's TCP socket.
//!
//! The router used to own one lane per backend; with `--replicas R`
//! each shard owns R lanes, every routed record is mirrored onto all of
//! them, and reads fail over between them. This module holds the pieces
//! that are per-*backend* rather than per-shard:
//!
//! * the version/feature handshake ([`connect_checked`]) and
//!   bounded-retry connect ([`connect_with_retry`]) that front a
//!   backend's [`WireConn`] (the send/receive-decoupled wire connection
//!   shared with [`crate::Client`]).
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

use crate::client::{bad, WireConn};
use crate::protocol::{Request, Response, PROTOCOL_VERSION};
use crate::router::RouterShared;
use crate::server::{FEATURE_BINARY, FEATURE_TRACE};
use bdi_obs::{ActiveSpan, Counter, TraceContext};
use bdi_types::Record;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Connect and run the `hello` handshake: the peer must speak exactly
/// [`PROTOCOL_VERSION`] and advertise every feature in `required`. A
/// mismatch is `InvalidData` — a *permanent* error that
/// [`connect_with_retry`] will not retry, so a mixed-version fleet
/// fails fast instead of flapping (a pre-v2 build, which answers
/// `hello` with an error response, lands there too).
pub(crate) fn connect_checked(addr: SocketAddr, required: &[&str]) -> std::io::Result<WireConn> {
    let mut conn = WireConn::connect(addr)?;
    let (version, features) = conn
        .hello()
        .map_err(|e| std::io::Error::new(e.kind(), format!("{addr}: {e}")))?;
    if version != PROTOCOL_VERSION {
        return Err(bad(format!(
            "protocol mismatch: {addr} speaks v{version}, \
             this router speaks v{PROTOCOL_VERSION}"
        )));
    }
    if let Some(missing) = required
        .iter()
        .find(|need| !features.iter().any(|have| have == *need))
    {
        return Err(bad(format!("{addr} lacks required feature '{missing}'")));
    }
    // opportunistic, never required: a peer that does not list
    // `binary-frames` keeps this lane on the JSON path, and a
    // trace-blind peer gets plain requests
    conn.binary = features.iter().any(|f| f == FEATURE_BINARY);
    conn.trace = features.iter().any(|f| f == FEATURE_TRACE);
    Ok(conn)
}

/// [`connect_checked`] behind bounded exponential backoff:
/// `retries` extra attempts at 10ms, 20ms, 40ms… before the error is
/// surfaced, each retry counted on `retry_counter`
/// (`route.backend.retries`). Only *transient* failures retry — a
/// handshake mismatch (`InvalidData`) is permanent and returns at once.
pub(crate) fn connect_with_retry(
    addr: SocketAddr,
    required: &[&str],
    retries: u32,
    retry_counter: &Counter,
) -> std::io::Result<WireConn> {
    let mut attempt = 0u32;
    loop {
        match connect_checked(addr, required) {
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
    let mut conn: Option<WireConn> = None;
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
            .and_then(|c| c.send(&Request::IngestBatch { records }, ctx));
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
            let c = conn.as_mut().expect("sent over this conn");
            if !settle_oldest(c, &lane, &shared, &mut outstanding) {
                conn = None;
                break;
            }
        }
    }
    // disconnected or shutdown: collect acks still owed (skipped when
    // the lane itself is already retired — nobody reads its counters)
    if let (Some(c), Some(lane)) = (conn.as_mut(), lane_ref.upgrade()) {
        while !outstanding.is_empty() && settle_oldest(c, &lane, &shared, &mut outstanding) {}
    }
}

/// Read the ack owed for the oldest in-flight batch and settle it. Any
/// other response, or an I/O error, fails the lane; returns whether
/// the connection is still usable.
fn settle_oldest(
    conn: &mut WireConn,
    lane: &ReplicaLane,
    shared: &RouterShared,
    outstanding: &mut VecDeque<(u64, Option<ActiveSpan>)>,
) -> bool {
    let err = match conn.recv() {
        Ok(Response::Ack { .. }) => {
            let (n, span) = outstanding.pop_front().expect("one ack per batch");
            if let Some(s) = span {
                shared.core.tracer.finish(s);
            }
            lane.settled.fetch_add(n, Ordering::SeqCst);
            return true;
        }
        Ok(Response::Error { message }) => format!("backend rejected batch: {message}"),
        Ok(other) => format!("unexpected response to ingest_batch: {other:?}"),
        Err(e) => e.to_string(),
    };
    fail_lane(shared, lane, outstanding, 0, &err);
    false
}

fn ensure_conn<'a>(
    conn: &'a mut Option<WireConn>,
    lane: &ReplicaLane,
    shared: &RouterShared,
) -> std::io::Result<&'a mut WireConn> {
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
