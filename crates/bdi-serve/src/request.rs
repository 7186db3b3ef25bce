//! The request core: the one path every request takes, on both tiers.
//!
//! A tier — the backend ([`crate::server`]) or the router
//! ([`crate::router`]) — implements [`Service::dispatch`]: a
//! [`Request`] in, a [`Response`] out. Everything around that call
//! lives here, once:
//!
//! * three **codec adapters** ([`serve_line`], [`serve_frame`],
//!   [`serve_http`]) decode what the front-end framed — a JSON line, a
//!   binary frame, an HTTP request — into the same [`Request`] plus the
//!   trace context it arrived with, and encode the [`Response`] back
//!   into that wire's bytes;
//! * the **envelope** ([`execute`]) wraps the dispatch: it mints the
//!   tier's request span (with a `queue.wait` child for the time spent
//!   on the front-end's dispatch queue), isolates a panicking handler
//!   behind `catch_unwind`, records the per-command latency / payload
//!   size / error metrics, and writes the slow-request log.
//!
//! So a request is counted, traced, and slow-logged identically
//! whichever wire carried it and whichever tier answered it.

use crate::frame;
use crate::http::{self, HttpMetrics, HttpRequest, HttpResponse};
use crate::nio::{RequestMeta, Service};
use crate::protocol::{CommandLatency, Request, Response, TracedRequest};
use bdi_obs::{ActiveSpan, Counter, Gauge, Histogram, Registry, TraceContext, Tracer};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wire names of every request command, in [`command_slot`] order.
const COMMAND_KINDS: [&str; 15] = [
    "lookup",
    "filter",
    "top_k",
    "ingest",
    "ingest_batch",
    "flush",
    "stats",
    "metrics",
    "shutdown",
    "hello",
    "sync",
    "restore",
    "split",
    "replace",
    "trace",
];

/// Index of a command kind in the per-command metric handle arrays.
fn command_slot(kind: &str) -> usize {
    COMMAND_KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("Request::kind returns a known command")
}

/// What the envelope records into, one per tier: the flight recorder
/// and every per-request metric handle, resolved once at startup so
/// the request path never takes the registry's name lock.
pub(crate) struct RequestCore {
    /// The tier's flight recorder: a fixed ring of span events every
    /// traced request writes into and `trace` reads out.
    pub(crate) tracer: Tracer,
    /// Name of the tier's request span (`serve.request` on a backend,
    /// `route.request` on a router).
    span: &'static str,
    /// Per-command request latency, ns ([`command_slot`] order).
    request_ns: [Arc<Histogram>; COMMAND_KINDS.len()],
    /// Per-command request payload size, bytes as framed.
    request_bytes: [Arc<Histogram>; COMMAND_KINDS.len()],
    /// Undecodable requests plus error responses.
    request_errors: Counter,
    /// HTTP-adapter counters and per-endpoint latency.
    http: HttpMetrics,
    /// The slow-request log, when the tier was configured with one.
    slow: Option<SlowLog>,
}

/// The slow-request log's threshold and the one piece of tier state
/// its line reports.
struct SlowLog {
    threshold_ms: u64,
    /// The tier's published-generation gauge.
    generation: Gauge,
    /// The tier's metric prefix; the log line opens `bdi-<prefix>:`.
    prefix: &'static str,
}

impl RequestCore {
    /// Resolve the `<prefix>.request.*` and `<prefix>.http.*` families
    /// in `registry`. `slow_ms` arms the slow-request log; its line
    /// reports the `<prefix>.catalog.generation` gauge.
    pub(crate) fn new(
        registry: &Registry,
        tracer: Tracer,
        prefix: &'static str,
        span: &'static str,
        slow_ms: Option<u64>,
    ) -> Self {
        Self {
            tracer,
            span,
            request_ns: COMMAND_KINDS
                .map(|kind| registry.histogram(&format!("{prefix}.request.{kind}.latency_ns"))),
            request_bytes: COMMAND_KINDS
                .map(|kind| registry.histogram(&format!("{prefix}.request.{kind}.bytes"))),
            request_errors: registry.counter(&format!("{prefix}.request.errors")),
            http: HttpMetrics::register(registry, prefix),
            slow: slow_ms.map(|threshold_ms| SlowLog {
                threshold_ms,
                generation: registry.gauge(&format!("{prefix}.catalog.generation")),
                prefix,
            }),
        }
    }

    /// Per-command latency summary (count, p50, p99) of every command
    /// served so far — the `latency` field of `stats`.
    pub(crate) fn latency_summary(&self) -> BTreeMap<String, CommandLatency> {
        COMMAND_KINDS
            .iter()
            .zip(&self.request_ns)
            .filter_map(|(kind, histogram)| {
                let snap = histogram.snapshot();
                (snap.count > 0).then(|| {
                    (
                        (*kind).to_string(),
                        CommandLatency {
                            count: snap.count,
                            p50_us: snap.quantile(0.5) / 1_000,
                            p99_us: snap.quantile(0.99) / 1_000,
                        },
                    )
                })
            })
            .collect()
    }

    /// Answer a request that never decoded: counted, not dispatched.
    fn reject(&self, message: String) -> Response {
        self.request_errors.inc();
        Response::Error { message }
    }

    /// Mint the tier's request span for one request, or `None` when it
    /// runs untraced. A traced request that waited on the front-end's
    /// dispatch queue also gets a synthetic `queue.wait` child covering
    /// the wait (it ends where the request span starts).
    fn begin_span(
        &self,
        origin: Origin,
        kind: &'static str,
        meta: &RequestMeta,
    ) -> Option<ActiveSpan> {
        let mut span = match origin {
            // always recorded: the sampling decision was made upstream
            Origin::Wire(Some(ctx)) => Some(self.tracer.adopt(ctx, self.span)),
            Origin::Wire(None) => self.tracer.root(self.span).map(|r| r.span),
            Origin::Gateway(ctx) => self.tracer.begin(ctx, self.span),
        }?;
        span.set_cmd(kind);
        if meta.queued_ns > 0 {
            let start = span.start_ns().saturating_sub(meta.queued_ns);
            self.tracer
                .record(span.ctx(), "queue.wait", start, span.start_ns(), &[]);
        }
        Some(span)
    }

    /// The one slow-request log line: command, latency, payload size,
    /// generation, peer, and — when the request was traced — the trace
    /// id, which is simultaneously retained in the flight recorder so
    /// `trace <id>` resolves exactly the requests this log names.
    fn note_slow(
        &self,
        kind: &str,
        elapsed: Duration,
        bytes: usize,
        meta: &RequestMeta,
        trace: Option<u64>,
    ) {
        let Some(slow) = &self.slow else {
            return;
        };
        let elapsed_ms = elapsed.as_millis() as u64;
        if elapsed_ms < slow.threshold_ms {
            return;
        }
        let peer = match meta.peer {
            Some(p) => p.to_string(),
            None => "-".to_string(),
        };
        let trace = match trace {
            Some(t) => {
                // keep the slow exemplar's full span tree readable after
                // the ring wraps
                self.tracer.retain(t);
                format!("{t:016x}")
            }
            None => "-".to_string(),
        };
        eprintln!(
            "bdi-{}: slow-request cmd={kind} elapsed_ms={elapsed_ms} \
             bytes={bytes} generation={} peer={peer} trace={trace}",
            slow.prefix,
            slow.generation.get(),
        );
    }
}

/// Where a request's tracing decision comes from.
pub(crate) enum Origin {
    /// Straight off a JSON line or a binary frame: a peer that
    /// propagated its context is adopted; with none this tier is the
    /// entry hop and its head sampler decides.
    Wire(Option<TraceContext>),
    /// Through this tier's own HTTP gateway, which already decided:
    /// the request span is a child of its `http.request` span, or the
    /// request runs untraced.
    Gateway(Option<TraceContext>),
}

/// The envelope: run one decoded request through the tier's dispatch,
/// traced, metered, panic-isolated, and slow-logged. `bytes` is the
/// request's size as framed on its wire.
pub(crate) fn execute<S: Service>(
    service: &S,
    conn: &mut S::Conn,
    request: Request,
    origin: Origin,
    meta: &RequestMeta,
    bytes: usize,
) -> Response {
    let core = service.core();
    let kind = request.kind();
    let slot = command_slot(kind);
    core.request_bytes[slot].record(bytes as u64);
    let span = core.begin_span(origin, kind, meta);
    let ctx = span.as_ref().map(|s| s.ctx());
    let trace_id = span.as_ref().map(|s| s.trace_id());
    // a panic anywhere under dispatch (a malformed-but-decodable
    // request tripping a deep invariant) answers this one request with
    // an error instead of tearing down the connection or the worker
    let t0 = Instant::now();
    let response = catch_unwind(AssertUnwindSafe(|| service.dispatch(conn, request, ctx)))
        .unwrap_or_else(|_| Response::Error {
            message: "internal error: request handler panicked".to_string(),
        });
    let elapsed = t0.elapsed();
    if let Some(span) = span {
        core.tracer.finish(span);
    }
    core.request_ns[slot].record_duration(elapsed);
    if matches!(response, Response::Error { .. }) {
        core.request_errors.inc();
    }
    core.note_slow(kind, elapsed, bytes, meta, trace_id);
    response
}

/// The JSON-lines adapter: decode one request line, execute it, append
/// the response line (newline included) to `out`. Returns whether the
/// connection should close after it.
pub(crate) fn serve_line<S: Service>(
    service: &S,
    conn: &mut S::Conn,
    line: &str,
    meta: &RequestMeta,
    out: &mut Vec<u8>,
) -> bool {
    // an optional `traced` envelope prefixes the request with the
    // caller's context — detectable from the leading key, so plain
    // requests never pay a second parse
    let parsed = if line.starts_with("{\"traced\"") {
        serde_json::from_str::<TracedRequest>(line)
            .map(|t| ((t.trace.id != 0).then(|| t.trace.ctx()), t.request))
    } else {
        serde_json::from_str::<Request>(line).map(|request| (None, request))
    };
    let response = match parsed {
        Ok((inbound, request)) => execute(
            service,
            conn,
            request,
            Origin::Wire(inbound),
            meta,
            line.len(),
        ),
        Err(e) => service.core().reject(format!("bad request: {e}")),
    };
    match serde_json::to_string(&response) {
        Ok(body) => out.extend_from_slice(body.as_bytes()),
        Err(_) => out.extend_from_slice(
            b"{\"error\":{\"message\":\"internal error: response serialization failed\"}}",
        ),
    }
    out.push(b'\n');
    matches!(response, Response::Bye)
}

/// The binary-frame adapter: validate one frame (CRC, flags), decode
/// it into the [`Request`] it mirrors, execute it, append the reply
/// frame to `out`. Returns whether the connection should close — only
/// a frame that fails validation does: the stream past it cannot be
/// trusted to re-synchronize.
pub(crate) fn serve_frame<S: Service>(
    service: &S,
    conn: &mut S::Conn,
    raw: &[u8],
    meta: &RequestMeta,
    out: &mut Vec<u8>,
) -> bool {
    let core = service.core();
    let mut reply = Vec::new();
    let close = match frame::open_frame_traced(raw) {
        Err(e) => {
            core.request_errors.inc();
            frame::encode_error(&mut reply, &format!("bad frame: {e}"));
            true
        }
        Ok((opcode, wire_trace, payload)) => {
            let response = match frame::decode_request(opcode, payload) {
                Ok(request) => {
                    let inbound = wire_trace
                        .filter(|&(trace, _)| trace != 0)
                        .map(|(trace, parent)| TraceContext { trace, parent });
                    let origin = Origin::Wire(inbound);
                    execute(service, conn, request, origin, meta, raw.len())
                }
                Err(e) => core.reject(format!("bad request: {e}")),
            };
            if !frame::encode_response(&mut reply, &response) {
                frame::encode_error(&mut reply, "internal error: unencodable binary reply");
            }
            false
        }
    };
    out.extend_from_slice(&reply);
    close
}

/// The HTTP adapter: [`http::respond`] routes the request to its wire
/// command and shapes the reply; the command itself runs through the
/// same envelope as the other two wires, under the gateway's
/// `http.request` span.
pub(crate) fn serve_http<S: Service>(
    service: &S,
    conn: &mut S::Conn,
    req: &HttpRequest,
    meta: &RequestMeta,
) -> HttpResponse {
    let core = service.core();
    let bytes = req.path.len() + req.query.len() + req.body.len();
    http::respond(req, &core.http, &core.tracer, |request, gateway| {
        execute(
            service,
            conn,
            request,
            Origin::Gateway(gateway),
            meta,
            bytes,
        )
    })
}
