//! The HTTP/1.1 adapter: the same request core the JSON-lines and
//! binary wires run on ([`crate::request`]), reachable by `curl`, load
//! balancers, and ordinary HTTP tooling.
//!
//! The mapping is deliberately thin: every success body **is** the
//! JSON-lines response object for the equivalent wire command
//! (externally tagged, e.g. `{"entry": {...}}`), and every error body
//! is the wire protocol's error shape `{"error": {"message": ...}}` —
//! one set of schemas to document, one serde type to parse with. The
//! only exception is `GET /metrics`, which renders the Prometheus text
//! exposition instead of JSON so scrapers can consume it directly.
//!
//! Status codes are derived from the response, not bolted on:
//!
//! * `200` — any success response;
//! * `400` — unparseable body/query, or a dispatch error beginning with
//!   `bad request` / naming a role mismatch (`router-only` /
//!   `backend-only`);
//! * `404` — `GET /lookup/:id` where the identifier resolves to no
//!   entry, or an unknown path;
//! * `405` — known path, wrong method;
//! * `503` — the service cannot take the request *right now*
//!   (`shutting down`, `ingest queue closed`, a dead shard) — retry
//!   against a healthy node;
//! * `500` — anything else (handler panic, internal invariant).
//!
//! Malformed requests are **answered**, not dropped: the connection
//! stays usable (keep-alive) except where the framing itself is gone
//! (oversized or unparseable head), where the response carries
//! `Connection: close`.
//!
//! `HEAD` is answered like the corresponding `GET` — same status,
//! `Content-Type`, and `Content-Length` — with no body bytes on the
//! wire, as HTTP/1.1 requires.
//!
//! Endpoints (full reference with `curl` examples: `docs/HTTP_API.md`):
//!
//! | endpoint | wire command |
//! |---|---|
//! | `GET /lookup/:id` | `lookup` |
//! | `GET /filter?attribute=&min=&max=&limit=` | `filter` |
//! | `GET /top_k?attribute=&k=` | `top_k` |
//! | `POST /ingest` (object or array body) | `ingest` / `ingest_batch` |
//! | `POST /flush` | `flush` |
//! | `GET /stats` | `stats` |
//! | `GET /metrics` | `metrics` (Prometheus text) |
//! | `GET /trace/:id`, `GET /trace/recent?n=` | `trace` |
//! | `POST /shutdown` | `shutdown` |
//! | `GET /` | endpoint index (no wire equivalent) |
//!
//! **Request tracing.** The gateway is the trace entry hop: when the
//! service's sampling policy picks a request (or the client sends an
//! `X-Bdi-Trace: <16-hex-trace-id>[-<16-hex-parent-span>]` header), the
//! whole request runs under an `http.request` root span — the tier's
//! own `serve.request` / `route.request` span is its child — and the
//! response carries `X-Bdi-Trace: <trace-id>` so the caller can fetch
//! the assembled tree from `GET /trace/:id`.

use crate::protocol::{Request, Response, TraceTree};
use bdi_obs::{Counter, Histogram, Registry, TraceContext, Tracer};
use bdi_types::Record;
use std::sync::Arc;
use std::time::Instant;

/// One decoded HTTP request, ready for dispatch. Produced by the
/// readiness loop's incremental decoder ([`crate::nio`]); body framing
/// is `Content-Length` only (chunked uploads are answered with `400`).
pub(crate) struct HttpRequest {
    pub method: String,
    /// Path without the query string, percent-decoded per segment at
    /// routing time (identifiers may contain spaces).
    pub path: String,
    /// Raw query string (no leading `?`).
    pub query: String,
    pub body: Vec<u8>,
    /// Client asked for `Connection: close` (or is HTTP/1.0 without
    /// `keep-alive`): answer, then close.
    pub close: bool,
    /// Raw `X-Bdi-Trace` header value, when the client sent one.
    pub trace: Option<String>,
}

/// One encoded-ready HTTP response.
pub(crate) struct HttpResponse {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Close the connection after writing (protocol-fatal request, an
    /// explicit `Connection: close`, or `shutdown`).
    pub close: bool,
    /// Answering a `HEAD` request: advertise `Content-Length` as if the
    /// body were sent, but put no body bytes on the wire — a keep-alive
    /// client that got the body would read it as the start of the next
    /// response and desync.
    pub head: bool,
    /// Trace id to advertise in an `X-Bdi-Trace` response header (set
    /// when the request ran under a trace).
    pub trace: Option<u64>,
}

impl HttpResponse {
    /// A keep-alive response with a body; the caller adjusts `close`,
    /// `head` and `trace` where they apply.
    fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Self {
        Self {
            status,
            content_type,
            body,
            close: false,
            head: false,
            trace: None,
        }
    }
}

const JSON: &str = "application/json";
/// The Prometheus text exposition content type.
const PROMETHEUS: &str = "text/plain; version=0.0.4";

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize a response: status line, `Content-Type`, `Content-Length`
/// (the only body framing we emit), `Connection: close` when the
/// connection is ending.
pub(crate) fn encode(resp: &HttpResponse) -> Vec<u8> {
    let mut out = Vec::with_capacity(resp.body.len() + 128);
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            resp.status,
            reason(resp.status),
            resp.content_type,
            resp.body.len()
        )
        .as_bytes(),
    );
    if let Some(trace) = resp.trace {
        out.extend_from_slice(format!("X-Bdi-Trace: {trace:016x}\r\n").as_bytes());
    }
    if resp.close {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    if !resp.head {
        out.extend_from_slice(&resp.body);
    }
    out
}

/// The wire error shape, as an HTTP body.
fn error_body(message: &str) -> Vec<u8> {
    serde_json::to_string(&Response::Error {
        message: message.to_string(),
    })
    .expect("error responses serialize")
    .into_bytes()
}

fn error_response(status: u16, message: &str) -> HttpResponse {
    HttpResponse::new(status, JSON, error_body(message))
}

/// A protocol-fatal error: answered, then the connection closes.
pub(crate) fn fatal(status: u16, message: &str) -> HttpResponse {
    HttpResponse {
        close: true,
        ..error_response(status, message)
    }
}

/// Map a dispatch-level [`Response::Error`] message onto an HTTP
/// status. The JSON-lines protocol carries no status codes, so the
/// contract is the message prefix — pinned by tests here and by the
/// error table in `docs/PROTOCOL.md`.
fn error_status(message: &str) -> u16 {
    if message.starts_with("bad request")
        || message.starts_with("router-only")
        || message.starts_with("backend-only")
    {
        400
    } else if message.starts_with("shutting down")
        || message.starts_with("ingest queue closed")
        || message.contains("is down")
        || message.contains("replicas failed")
        || message.contains("backend(s) down")
    {
        503
    } else {
        500
    }
}

/// Endpoint labels for the `<prefix>.http.<endpoint>.latency_ns`
/// histogram family, in [`endpoint_slot`] order.
pub(crate) const HTTP_ENDPOINTS: [&str; 10] = [
    "lookup", "filter", "top_k", "ingest", "flush", "stats", "metrics", "trace", "shutdown",
    "other",
];

fn endpoint_slot(endpoint: &str) -> usize {
    HTTP_ENDPOINTS
        .iter()
        .position(|&e| e == endpoint)
        .unwrap_or(HTTP_ENDPOINTS.len() - 1)
}

/// Per-service HTTP metric handles, resolved once at startup: request
/// and error counters plus one latency histogram per endpoint, under
/// `<prefix>.http.*` (`serve.http.*` on a backend, `route.http.*` on a
/// router).
pub(crate) struct HttpMetrics {
    requests: Counter,
    errors: Counter,
    latency_ns: [Arc<Histogram>; HTTP_ENDPOINTS.len()],
}

impl HttpMetrics {
    pub(crate) fn register(registry: &Registry, prefix: &str) -> Self {
        Self {
            requests: registry.counter(&format!("{prefix}.http.requests")),
            errors: registry.counter(&format!("{prefix}.http.errors")),
            latency_ns: HTTP_ENDPOINTS
                .map(|e| registry.histogram(&format!("{prefix}.http.{e}.latency_ns"))),
        }
    }
}

/// Decode `%XX` escapes (and nothing else — `+` stays `+`; the wire
/// identifiers this serves are not form-encoded).
pub(crate) fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                let h = std::str::from_utf8(h).ok()?;
                u8::from_str_radix(h, 16).ok()
            });
            if let Some(b) = hex {
                out.push(b);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encode a path segment: everything but unreserved characters.
pub(crate) fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// First value of `key` in a query string, percent-decoded.
fn query_param(query: &str, key: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then(|| percent_decode(v))
    })
}

fn num_param(query: &str, key: &str) -> Result<Option<f64>, String> {
    match query_param(query, key) {
        None => Ok(None),
        Some(v) if v.is_empty() => Ok(None),
        Some(v) => v
            .parse::<f64>()
            .map(Some)
            .map_err(|_| format!("bad request: query parameter '{key}' is not a number")),
    }
}

/// A success response: status 200, body = the wire response object.
fn ok(response: &Response) -> HttpResponse {
    let body = serde_json::to_string(response).expect("responses serialize");
    HttpResponse::new(200, JSON, body.into_bytes())
}

/// Dispatch-backed responses flow through here so every adapter (server
/// and router) maps errors to statuses identically.
fn from_dispatch(response: Response) -> HttpResponse {
    match &response {
        Response::Error { message } => error_response(error_status(message), message),
        Response::Bye => HttpResponse {
            close: true,
            ..ok(&response)
        },
        _ => ok(&response),
    }
}

/// Parse an inbound `X-Bdi-Trace` header:
/// `<16-hex-trace-id>[-<16-hex-parent-span-id>]`.
pub(crate) fn parse_trace_header(value: &str) -> Option<TraceContext> {
    let value = value.trim();
    let (t, p) = match value.split_once('-') {
        Some((t, p)) => (t, Some(p)),
        None => (value, None),
    };
    let trace = u64::from_str_radix(t, 16).ok().filter(|&t| t != 0)?;
    let parent = match p {
        Some(p) => u64::from_str_radix(p, 16).ok()?,
        None => bdi_obs::trace::NO_PARENT,
    };
    Some(TraceContext { trace, parent })
}

/// Route one HTTP request through `dispatch` — the request envelope
/// every wire shares ([`crate::request::execute`]) — and record
/// `<prefix>.http.*` metrics.
///
/// The gateway is the trace entry hop: an inbound `X-Bdi-Trace` header
/// always traces (the caller already decided); otherwise `tracer`'s
/// sampling policy decides. Traced requests run under an
/// `http.request` root span, and the dispatch closure receives the
/// child context the tier's own request span parents under.
pub(crate) fn respond(
    req: &HttpRequest,
    metrics: &HttpMetrics,
    tracer: &Tracer,
    dispatch: impl FnOnce(Request, Option<TraceContext>) -> Response,
) -> HttpResponse {
    let t0 = Instant::now();
    let root = match req.trace.as_deref().and_then(parse_trace_header) {
        Some(ctx) => Some(tracer.adopt(ctx, "http.request")),
        None => tracer.root("http.request").map(|r| r.span),
    };
    let trace_id = root.as_ref().map(|s| s.trace_id());
    let mut scope = bdi_obs::TraceScope::wrap(tracer, root);
    let ctx = scope.ctx();
    // HEAD is GET with the body suppressed on the wire: same status,
    // Content-Type, and Content-Length, zero body bytes. Routing the
    // GET twin keeps HEAD read-only (GET /shutdown is a 405, so a HEAD
    // can never trigger a POST side effect).
    let head_only = req.method == "HEAD";
    let (endpoint, mut resp) = if head_only {
        let twin = HttpRequest {
            method: "GET".to_string(),
            path: req.path.clone(),
            query: req.query.clone(),
            body: Vec::new(),
            close: req.close,
            trace: None,
        };
        route(&twin, |r| dispatch(r, ctx))
    } else {
        route(req, |r| dispatch(r, ctx))
    };
    scope.set_cmd(endpoint);
    drop(scope);
    resp.head = head_only;
    resp.trace = trace_id;
    metrics.requests.inc();
    metrics.latency_ns[endpoint_slot(endpoint)].record_duration(t0.elapsed());
    if resp.status >= 400 {
        metrics.errors.inc();
    }
    if req.close {
        resp.close = true;
    }
    resp
}

/// The endpoint table: translate a request into a wire [`Request`],
/// dispatch it, and shape the reply. Returns the endpoint label for
/// metrics alongside the response.
fn route(
    req: &HttpRequest,
    dispatch: impl FnOnce(Request) -> Response,
) -> (&'static str, HttpResponse) {
    let method = req.method.as_str();
    let mut segments = req.path.trim_start_matches('/').splitn(2, '/');
    let head = segments.next().unwrap_or("");
    let rest = segments.next();
    match (method, head, rest) {
        ("GET", "", None) => ("other", index()),
        ("GET", "lookup", Some(id)) if !id.is_empty() => {
            let identifier = percent_decode(id);
            let response = dispatch(Request::Lookup {
                identifier: identifier.clone(),
            });
            let resp = match &response {
                Response::Entry { entry: None, .. } => {
                    error_response(404, &format!("identifier '{identifier}' is not integrated"))
                }
                _ => from_dispatch(response),
            };
            ("lookup", resp)
        }
        ("GET", "lookup", _) => (
            "lookup",
            error_response(400, "bad request: GET /lookup/:id needs an identifier"),
        ),
        ("GET", "filter", None) => {
            let Some(attribute) = query_param(&req.query, "attribute") else {
                return (
                    "filter",
                    error_response(400, "bad request: filter needs ?attribute="),
                );
            };
            let (min, max) = match (num_param(&req.query, "min"), num_param(&req.query, "max")) {
                (Ok(min), Ok(max)) => (min, max),
                (Err(e), _) | (_, Err(e)) => return ("filter", error_response(400, &e)),
            };
            let limit = query_param(&req.query, "limit").and_then(|v| v.parse::<usize>().ok());
            let response = dispatch(Request::Filter {
                attribute,
                min,
                max,
                limit,
            });
            ("filter", from_dispatch(response))
        }
        ("GET", "top_k", None) => {
            let Some(attribute) = query_param(&req.query, "attribute") else {
                return (
                    "top_k",
                    error_response(400, "bad request: top_k needs ?attribute="),
                );
            };
            let k = match query_param(&req.query, "k") {
                None => 10,
                Some(v) => match v.parse::<usize>() {
                    Ok(k) => k,
                    Err(_) => {
                        return (
                            "top_k",
                            error_response(400, "bad request: query parameter 'k' is not a number"),
                        );
                    }
                },
            };
            let response = dispatch(Request::TopK { attribute, k });
            ("top_k", from_dispatch(response))
        }
        ("POST", "ingest", None) => {
            // an array body is a batch, an object body is one record —
            // the same split as `ingest` vs `ingest_batch` on the wire
            let first = req.body.iter().find(|b| !b.is_ascii_whitespace());
            let request = match first {
                Some(b'[') => match serde_json::from_slice::<Vec<Record>>(&req.body) {
                    Ok(records) => Request::IngestBatch { records },
                    Err(e) => {
                        return ("ingest", error_response(400, &format!("bad request: {e}")));
                    }
                },
                _ => match serde_json::from_slice::<Record>(&req.body) {
                    Ok(record) => Request::Ingest { record },
                    Err(e) => {
                        return ("ingest", error_response(400, &format!("bad request: {e}")));
                    }
                },
            };
            ("ingest", from_dispatch(dispatch(request)))
        }
        ("POST", "flush", None) => ("flush", from_dispatch(dispatch(Request::Flush))),
        ("GET", "stats", None) => ("stats", from_dispatch(dispatch(Request::Stats))),
        ("GET", "metrics", None) => {
            let resp = match dispatch(Request::Metrics) {
                Response::Metrics(body) => match body.to_snapshot() {
                    Some(snap) => {
                        HttpResponse::new(200, PROMETHEUS, snap.to_prometheus().into_bytes())
                    }
                    None => error_response(500, "internal error: malformed metrics body"),
                },
                other => from_dispatch(other),
            };
            ("metrics", resp)
        }
        ("GET", "trace", Some("recent")) => {
            let n = query_param(&req.query, "n")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(16);
            let response = dispatch(Request::Trace {
                id: None,
                recent: Some(n),
            });
            ("trace", from_dispatch(response))
        }
        ("GET", "trace", Some(id)) if !id.is_empty() => {
            let Some(trace_id) = u64::from_str_radix(id, 16).ok().filter(|&t| t != 0) else {
                return (
                    "trace",
                    error_response(400, "bad request: trace id is 1-16 hex digits"),
                );
            };
            let response = dispatch(Request::Trace {
                id: Some(trace_id),
                recent: None,
            });
            let resp = match response {
                Response::Trace(body) if body.spans.is_empty() => error_response(
                    404,
                    &format!("trace {trace_id:016x} is not in the flight recorder"),
                ),
                Response::Trace(body) => {
                    let tree = TraceTree::from_spans(trace_id, body.spans);
                    let body = serde_json::to_string(&tree).expect("trace trees serialize");
                    HttpResponse::new(200, JSON, body.into_bytes())
                }
                other => from_dispatch(other),
            };
            ("trace", resp)
        }
        ("GET", "trace", _) => (
            "trace",
            error_response(400, "bad request: GET /trace/:id or GET /trace/recent?n="),
        ),
        ("POST", "shutdown", None) => ("shutdown", from_dispatch(dispatch(Request::Shutdown))),
        // known paths with the wrong method answer 405, not 404, so a
        // curl typo (`GET /ingest`) explains itself
        (_, "lookup" | "filter" | "top_k" | "stats" | "metrics" | "trace", _) => (
            "other",
            error_response(405, &format!("method {method} not allowed: use GET")),
        ),
        (_, "ingest" | "flush" | "shutdown", None) => (
            "other",
            error_response(405, &format!("method {method} not allowed: use POST")),
        ),
        _ => (
            "other",
            error_response(
                404,
                &format!("no such endpoint: {method} /{head}; see GET / for the endpoint index",),
            ),
        ),
    }
}

/// `GET /`: a discoverability index (endpoint → wire command).
fn index() -> HttpResponse {
    let body = concat!(
        "{\"endpoints\":{",
        "\"GET /lookup/:id\":\"lookup\",",
        "\"GET /filter?attribute=&min=&max=&limit=\":\"filter\",",
        "\"GET /top_k?attribute=&k=\":\"top_k\",",
        "\"POST /ingest\":\"ingest | ingest_batch\",",
        "\"POST /flush\":\"flush\",",
        "\"GET /stats\":\"stats\",",
        "\"GET /metrics\":\"metrics (prometheus text)\",",
        "\"GET /trace/:id\":\"trace\",",
        "\"GET /trace/recent?n=\":\"trace\",",
        "\"POST /shutdown\":\"shutdown\"",
        "}}"
    );
    HttpResponse::new(200, JSON, body.as_bytes().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str, query: &str) -> HttpRequest {
        HttpRequest {
            method: "GET".into(),
            path: path.into(),
            query: query.into(),
            body: Vec::new(),
            close: false,
            trace: None,
        }
    }

    #[test]
    fn error_statuses_are_pinned() {
        // the contract between dispatch error messages and HTTP codes
        assert_eq!(error_status("bad request: expected value"), 400);
        assert_eq!(
            error_status("router-only command: issue it against `bdi route`, not a backend"),
            400
        );
        assert_eq!(
            error_status(
                "backend-only command: issue it against a `bdi serve` backend, not the router"
            ),
            400
        );
        assert_eq!(error_status("shutting down"), 503);
        assert_eq!(error_status("ingest queue closed"), 503);
        assert_eq!(error_status("shard 1 (127.0.0.1:9) is down"), 503);
        assert_eq!(
            error_status("shard 0: all replicas failed; last: shard 0 replica 1: refused"),
            503
        );
        assert_eq!(error_status("backend(s) down: shard 1 (127.0.0.1:9)"), 503);
        assert_eq!(
            error_status("internal error: request handler panicked"),
            500
        );
    }

    #[test]
    fn unknown_id_is_404_with_error_body() {
        let req = get("/lookup/NO-SUCH-00000", "");
        let (endpoint, resp) = route(&req, |_| Response::Entry {
            generation: 7,
            entry: None,
        });
        assert_eq!(endpoint, "lookup");
        assert_eq!(resp.status, 404);
        assert!(!resp.close, "connection survives a miss");
        let body: Response = serde_json::from_slice(&resp.body).unwrap();
        let Response::Error { message } = body else {
            panic!("404 body is the wire error shape");
        };
        assert!(message.contains("NO-SUCH-00000"));
    }

    #[test]
    fn flush_barrier_unavailability_is_503() {
        let req = HttpRequest {
            method: "POST".into(),
            path: "/flush".into(),
            query: String::new(),
            body: Vec::new(),
            close: false,
            trace: None,
        };
        let (_, resp) = route(&req, |_| Response::Error {
            message: "backend(s) down: shard 1 (127.0.0.1:9)".into(),
        });
        assert_eq!(resp.status, 503);
        assert!(!resp.close, "503 answers, it does not hang up");
    }

    #[test]
    fn malformed_ingest_body_is_400_and_keeps_the_connection() {
        let req = HttpRequest {
            method: "POST".into(),
            path: "/ingest".into(),
            query: String::new(),
            body: b"{not json".to_vec(),
            close: false,
            trace: None,
        };
        let (_, resp) = route(&req, |_| unreachable!("never dispatched"));
        assert_eq!(resp.status, 400);
        assert!(!resp.close);
        let body: Response = serde_json::from_slice(&resp.body).unwrap();
        assert!(matches!(body, Response::Error { .. }));
    }

    #[test]
    fn wrong_method_is_405_unknown_path_is_404() {
        let (_, resp) = route(&get("/ingest", ""), |_| unreachable!());
        assert_eq!(resp.status, 405);
        let (_, resp) = route(&get("/nope", ""), |_| unreachable!());
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn lookup_path_is_percent_decoded() {
        let req = get("/lookup/cam%20lum%2000100", "");
        let (_, resp) = route(&req, |r| {
            let Request::Lookup { identifier } = r else {
                panic!("lookup dispatched");
            };
            assert_eq!(identifier, "cam lum 00100");
            Response::Entry {
                generation: 1,
                entry: None,
            }
        });
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn percent_coding_round_trips() {
        for s in ["plain", "cam lum 00100", "a/b?c&d=e", "100%"] {
            assert_eq!(percent_decode(&percent_encode(s)), s);
        }
        assert_eq!(percent_decode("%zz"), "%zz", "bad escapes pass through");
    }

    #[test]
    fn encode_frames_with_content_length() {
        let text = encode(&HttpResponse::new(200, JSON, b"{\"ok\":1}".to_vec()));
        let text = String::from_utf8(text).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 8\r\n"));
        assert!(!text.contains("Connection: close"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":1}"));
    }

    #[test]
    fn head_advertises_length_but_sends_no_body() {
        let metrics = HttpMetrics::register(&Registry::new(), "test");
        let req = HttpRequest {
            method: "HEAD".into(),
            path: "/stats".into(),
            query: String::new(),
            body: Vec::new(),
            close: false,
            trace: None,
        };
        let resp = respond(&req, &metrics, &Tracer::new(), |_, _| Response::Entry {
            generation: 1,
            entry: None,
        });
        assert_eq!(resp.status, 200);
        assert!(resp.head);
        assert!(!resp.body.is_empty(), "length still reflects the GET body");
        let text = String::from_utf8(encode(&resp)).unwrap();
        assert!(
            text.contains(&format!("Content-Length: {}\r\n", resp.body.len())),
            "got: {text}"
        );
        assert!(text.ends_with("\r\n\r\n"), "no body bytes after the head");
    }

    #[test]
    fn head_shutdown_is_405_not_a_side_effect() {
        let metrics = HttpMetrics::register(&Registry::new(), "test");
        let req = HttpRequest {
            method: "HEAD".into(),
            path: "/shutdown".into(),
            query: String::new(),
            body: Vec::new(),
            close: false,
            trace: None,
        };
        let resp = respond(&req, &metrics, &Tracer::new(), |_, _| {
            unreachable!("never dispatched")
        });
        assert_eq!(resp.status, 405);
        assert!(resp.head);
    }
}
