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
//!   `bad request`;
//! * `404` — `GET /lookup/:id` where the identifier resolves to no
//!   entry, or a path no [`WIRE`] route matches;
//! * `405` — a path some [`WIRE`] route matches under another method;
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
//! The endpoints are the HTTP column of [`WIRE`], listed at `GET /`
//! (full reference with `curl` examples: `docs/HTTP_API.md`).
//!
//! **Request tracing.** The gateway is the trace entry hop: when the
//! service's sampling policy picks a request (or the client sends an
//! `X-Bdi-Trace: <16-hex-trace-id>[-<16-hex-parent-span>]` header), the
//! whole request runs under an `http.request` root span — the tier's
//! own `serve.request` / `route.request` span is its child — and the
//! response carries `X-Bdi-Trace: <trace-id>` so the caller can fetch
//! the assembled tree from `GET /trace/:id`.

use crate::protocol::{
    Request, Response, Route, TraceTree, DEFAULT_TOP_K, DEFAULT_TRACE_RECENT, WIRE,
};
use bdi_obs::{Counter, Histogram, Registry, TraceContext, Tracer};
use std::collections::BTreeMap;
use std::str::FromStr;
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
    if message.starts_with("bad request") {
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

/// Every HTTP route with its [`WIRE`] row, in table order.
fn routes() -> impl Iterator<Item = (usize, &'static Route)> {
    (0..WIRE.len()).flat_map(|row| WIRE[row].http.iter().map(move |route| (row, route)))
}

/// Per-service HTTP metric handles, resolved once at startup: request
/// and error counters plus one latency histogram per endpoint, under
/// `<prefix>.http.*` (`serve.http.*` on a backend, `route.http.*` on a
/// router). An endpoint is the name of the [`WIRE`] row whose route a
/// request matched, or `other` (`GET /`, 404s and 405s).
pub(crate) struct HttpMetrics {
    requests: Counter,
    errors: Counter,
    /// By [`WIRE`] row; `None` for rows no request is labelled with —
    /// no route, or only routes an earlier row declares first.
    latency_ns: [Option<Arc<Histogram>>; WIRE.len()],
    other_ns: Arc<Histogram>,
}

impl HttpMetrics {
    pub(crate) fn register(registry: &Registry, prefix: &str) -> Self {
        let histogram =
            |label: &str| registry.histogram(&format!("{prefix}.http.{label}.latency_ns"));
        Self {
            requests: registry.counter(&format!("{prefix}.http.requests")),
            errors: registry.counter(&format!("{prefix}.http.errors")),
            latency_ns: std::array::from_fn(|row| {
                let first = |route| !WIRE[..row].iter().any(|spec| spec.http.contains(route));
                WIRE[row]
                    .http
                    .iter()
                    .any(first)
                    .then(|| histogram(WIRE[row].name))
            }),
            other_ns: histogram("other"),
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

/// A numeric query parameter: absent or empty is `None`, a value that
/// does not parse is a `400` message.
fn num_param<T: FromStr>(query: &str, key: &str) -> Result<Option<T>, String> {
    match query_param(query, key) {
        Some(v) if !v.is_empty() => v.parse().map(Some).map_err(|_| not_a_number(key)),
        _ => Ok(None),
    }
}

fn not_a_number(key: &str) -> String {
    format!("bad request: query parameter '{key}' is not a number")
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
    let (row, mut resp) = route(routed_method(req), req, |r| dispatch(r, ctx));
    scope.set_cmd(row.map_or("other", |row| WIRE[row].name));
    drop(scope);
    resp.head = req.method == "HEAD";
    resp.trace = trace_id;
    metrics.requests.inc();
    row.and_then(|row| metrics.latency_ns[row].as_ref())
        .unwrap_or(&metrics.other_ns)
        .record_duration(t0.elapsed());
    if resp.status >= 400 {
        metrics.errors.inc();
    }
    if req.close {
        resp.close = true;
    }
    resp
}

/// The method a request is routed under. HEAD is GET with the body
/// suppressed on the wire: same status, Content-Type, and
/// Content-Length, zero body bytes. Routing it as GET keeps HEAD
/// read-only (GET /shutdown is a 405, so a HEAD can never trigger a
/// POST side effect).
fn routed_method(req: &HttpRequest) -> &str {
    match req.method.as_str() {
        "HEAD" => "GET",
        method => method,
    }
}

/// The first [`WIRE`] route `method` and `path` match: its row, and
/// what its `:id` segment captured (`None` on a route without one).
fn matched<'p>(method: &str, path: &'p str) -> Option<(usize, Option<&'p str>)> {
    routes().find_map(|(row, route)| {
        let captured = route.capture(path).filter(|_| route.method == method)?;
        Some((row, route.path.contains(':').then_some(captured)))
    })
}

/// The [`WIRE`] row `req` routes to; `None` for the index, a 404 or a
/// 405. The readiness loop reads it to decide where the request runs.
pub(crate) fn row(req: &HttpRequest) -> Option<usize> {
    matched(routed_method(req), &req.path).map(|(row, _)| row)
}

/// Route a request through the first [`WIRE`] route `method` and its
/// path match, and answer it. Returns the matched row — the endpoint
/// label for metrics — alongside the response.
fn route(
    method: &str,
    req: &HttpRequest,
    dispatch: impl FnOnce(Request) -> Response,
) -> (Option<usize>, HttpResponse) {
    let path = req.path.as_str();
    if method == "GET" && path == "/" {
        return (None, index());
    }
    let Some((row, id)) = matched(method, path) else {
        // a path some route serves under another method answers 405,
        // not 404, so a curl typo (`GET /ingest`) explains itself
        let resp = match routes().find(|(_, route)| route.capture(path).is_some()) {
            Some((_, route)) => error_response(
                405,
                &format!("method {method} not allowed: use {}", route.method),
            ),
            None => error_response(
                404,
                &format!("no such endpoint: {method} {path}; see GET / for the endpoint index"),
            ),
        };
        return (None, resp);
    };
    let resp = match parse(row, id, req) {
        Ok(request) => answer(request, dispatch),
        Err(message) => error_response(400, &message),
    };
    (Some(row), resp)
}

/// The wire [`Request`] a request matched to [`WIRE`] row `row` stands
/// for, or the `400` message for a missing or malformed parameter or
/// body. `id` is what the route's `:id` segment captured (`None` on a
/// route without one).
fn parse(row: usize, id: Option<&str>, req: &HttpRequest) -> Result<Request, String> {
    let query = req.query.as_str();
    let bad_body = |e: serde_json::Error| format!("bad request: {e}");
    Ok(match (WIRE[row].name, id) {
        ("lookup", None | Some("")) => {
            return Err("bad request: GET /lookup/:id needs an identifier".to_string());
        }
        ("lookup", Some(id)) => Request::Lookup {
            identifier: percent_decode(id),
        },
        ("filter", _) => Request::Filter {
            attribute: query_param(query, "attribute")
                .ok_or("bad request: filter needs ?attribute=")?,
            min: num_param(query, "min")?,
            max: num_param(query, "max")?,
            limit: num_param(query, "limit")?,
        },
        ("top_k", _) => Request::TopK {
            attribute: query_param(query, "attribute")
                .ok_or("bad request: top_k needs ?attribute=")?,
            k: match query_param(query, "k") {
                None => DEFAULT_TOP_K,
                Some(v) => v.parse().map_err(|_| not_a_number("k"))?,
            },
        },
        // `ingest_batch` shares this route and `ingest` is listed first:
        // an array body is a batch, an object body is one record — the
        // same split as `ingest` vs `ingest_batch` on the wire
        ("ingest", _) => match req.body.iter().find(|b| !b.is_ascii_whitespace()) {
            Some(b'[') => Request::IngestBatch {
                records: serde_json::from_slice(&req.body).map_err(bad_body)?,
            },
            _ => Request::Ingest {
                record: serde_json::from_slice(&req.body).map_err(bad_body)?,
            },
        },
        ("flush", _) => Request::Flush,
        ("stats", _) => Request::Stats,
        ("metrics", _) => Request::Metrics,
        // `/trace/recent` is the route without an `:id`
        ("trace", None) => Request::Trace {
            id: None,
            recent: Some(num_param(query, "n")?.unwrap_or(DEFAULT_TRACE_RECENT)),
        },
        ("trace", Some("")) => {
            return Err("bad request: GET /trace/:id or GET /trace/recent?n=".to_string());
        }
        ("trace", Some(id)) => Request::Trace {
            id: Some(
                u64::from_str_radix(id, 16)
                    .ok()
                    .filter(|&t| t != 0)
                    .ok_or("bad request: trace id is 1-16 hex digits")?,
            ),
            recent: None,
        },
        ("shutdown", _) => Request::Shutdown,
        // a row given a route this adapter cannot parse
        // (tests/wire_docs.rs requests every route and fails on this)
        (name, _) => return Err(format!("bad request: no HTTP handler for {name}")),
    })
}

/// Dispatch `request` and shape the reply. Three replies read
/// differently over HTTP than on the wire: a lookup miss is a `404`,
/// the registry is Prometheus text, and a trace by id is an assembled
/// tree (`404` once it has aged out).
fn answer(request: Request, dispatch: impl FnOnce(Request) -> Response) -> HttpResponse {
    let (identifier, trace_id) = match &request {
        Request::Lookup { identifier } => (Some(identifier.clone()), None),
        Request::Trace { id, .. } => (None, *id),
        _ => (None, None),
    };
    match (dispatch(request), identifier, trace_id) {
        (Response::Entry { entry: None, .. }, Some(identifier), _) => {
            error_response(404, &format!("identifier '{identifier}' is not integrated"))
        }
        (Response::Metrics(body), ..) => match body.to_snapshot() {
            Some(snap) => HttpResponse::new(200, PROMETHEUS, snap.to_prometheus().into_bytes()),
            None => error_response(500, "internal error: malformed metrics body"),
        },
        (Response::Trace(body), _, Some(id)) if body.spans.is_empty() => error_response(
            404,
            &format!("trace {id:016x} is not in the flight recorder"),
        ),
        (Response::Trace(body), _, Some(id)) => {
            let tree = TraceTree::from_spans(id, body.spans);
            let body = serde_json::to_string(&tree).expect("trace trees serialize");
            HttpResponse::new(200, JSON, body.into_bytes())
        }
        (response, ..) => from_dispatch(response),
    }
}

/// `GET /`: a discoverability index, every [`WIRE`] route → the
/// commands it carries.
fn index() -> HttpResponse {
    let mut endpoints: BTreeMap<String, String> = BTreeMap::new();
    for (row, route) in routes() {
        let commands = endpoints.entry(route.to_string()).or_default();
        if !commands.is_empty() {
            commands.push_str(" | ");
        }
        commands.push_str(WIRE[row].name);
    }
    let body = serde_json::to_string(&BTreeMap::from([("endpoints", endpoints)]))
        .expect("the index serializes");
    HttpResponse::new(200, JSON, body.into_bytes())
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
        let (row, resp) = route(&req.method, &req, |_| Response::Entry {
            generation: 7,
            entry: None,
        });
        assert_eq!(row.map(|row| WIRE[row].name), Some("lookup"));
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
        let (_, resp) = route(&req.method, &req, |_| Response::Error {
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
        let (_, resp) = route(&req.method, &req, |_| unreachable!("never dispatched"));
        assert_eq!(resp.status, 400);
        assert!(!resp.close);
        let body: Response = serde_json::from_slice(&resp.body).unwrap();
        assert!(matches!(body, Response::Error { .. }));
    }

    #[test]
    fn wrong_method_is_405_unknown_path_is_404() {
        let (_, resp) = route("GET", &get("/ingest", ""), |_| unreachable!());
        assert_eq!(resp.status, 405);
        let (_, resp) = route("GET", &get("/nope", ""), |_| unreachable!());
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn lookup_path_is_percent_decoded() {
        let req = get("/lookup/cam%20lum%2000100", "");
        let (_, resp) = route(&req.method, &req, |r| {
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
