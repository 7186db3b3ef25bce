//! Small blocking clients for both wire surfaces: [`Client`] for the
//! JSON-lines protocol and [`HttpClient`] for the HTTP/1.1 gateway —
//! used by the load driver, the integration tests, and the `bdi load`
//! subcommand.

use crate::frame;
use crate::protocol::{MetricsBody, Request, Response, StatsBody, TraceBody, TraceTree};
use crate::server::{FEATURE_BINARY, FEATURE_TRACE};
use crate::snapshot::Snapshot;
use bdi_core::catalog::CatalogEntry;
use bdi_obs::TraceContext;
use bdi_types::Record;
use std::io::{BufRead, BufReader, Error, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

pub(crate) fn bad(message: impl Into<String>) -> Error {
    Error::new(ErrorKind::InvalidData, message.into())
}

/// One wire connection to a `bdi serve` / `bdi route` peer: the core
/// under [`Client`] and under the router's ingest lanes and scatter
/// reads. Sends and receives are decoupled, so a caller can write to
/// several peers before reading from any (scatter) or run writes ahead
/// of acks (pipelining).
///
/// Every request is built whole in a reused buffer — a frame, or a JSON
/// line *including* its `\n` — and leaves in one `write_all`: the
/// socket runs with `TCP_NODELAY`, so a payload followed by a separate
/// newline write would be two segments and two syscalls per request.
///
/// Generic over its two halves only so a test can count writes; every
/// real connection is the TCP default.
pub(crate) struct WireConn<W = TcpStream, R = BufReader<TcpStream>> {
    writer: W,
    reader: R,
    /// The peer advertised `binary-frames`: requests with a binary
    /// mapping ship as frames, everything else stays on JSON lines.
    /// Set by whoever ran the `hello` ([`WireConn::hello`]).
    pub(crate) binary: bool,
    /// The peer advertised `trace-context`: traced requests carry their
    /// context (frame trace extension / JSON `traced` envelope). Off,
    /// requests go out plain — old peers see byte-identical traffic.
    pub(crate) trace: bool,
    /// Reused binary encode buffer — zero per-request allocations once
    /// warm.
    wbuf: Vec<u8>,
    /// Reused binary receive buffer.
    rbuf: Vec<u8>,
    /// Reused JSON encode buffer (the non-binary twin of `wbuf`).
    line: String,
}

impl WireConn {
    pub(crate) fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        // request/response round trips are one small message each way;
        // Nagle + delayed ACK would add ~40ms to every call
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
}

impl<W: Write, R: BufRead> WireConn<W, R> {
    /// Send one request: a frame when binary was negotiated and the
    /// request has a binary mapping, a JSON line otherwise. `ctx` rides
    /// as the frame extension or the JSON `traced` envelope when the
    /// peer negotiated `trace-context`; without the feature (or without
    /// a context) the request goes out plain, byte-for-byte what an
    /// untraced sender produces.
    pub(crate) fn send(
        &mut self,
        request: &Request,
        ctx: Option<TraceContext>,
    ) -> std::io::Result<()> {
        let ctx = ctx.filter(|c| self.trace && c.trace != 0);
        let wire_ctx = ctx.map(|c| (c.trace, c.parent));
        let bytes = if self.binary
            && frame::encode_request_traced(&mut self.wbuf, request, wire_ctx)
        {
            &self.wbuf[..]
        } else {
            serde_json::to_string_into(request, &mut self.line).map_err(|e| bad(e.to_string()))?;
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
            self.line.as_bytes()
        };
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// One round trip: [`WireConn::send`], then [`WireConn::recv`].
    pub(crate) fn call(
        &mut self,
        request: &Request,
        ctx: Option<TraceContext>,
    ) -> std::io::Result<Response> {
        self.send(request, ctx)?;
        self.recv()
    }

    /// Read one response, autodetecting its format from the first byte
    /// exactly like the server's receive side: the frame magic means a
    /// binary reply, anything else a JSON line.
    pub(crate) fn recv(&mut self) -> std::io::Result<Response> {
        let closed = || Error::new(ErrorKind::UnexpectedEof, "peer closed connection");
        let first = *self.reader.fill_buf()?.first().ok_or_else(closed)?;
        if first == frame::FRAME_MAGIC {
            frame::read_frame(&mut self.reader, &mut self.rbuf)?;
            let (opcode, payload) = frame::open_frame(&self.rbuf)?;
            return frame::decode_response(opcode, payload);
        }
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(closed());
        }
        serde_json::from_str(&reply).map_err(|e| bad(format!("bad response: {e}")))
    }

    /// The `hello` round trip behind [`Client::hello`]; the caller
    /// decides what to adopt from the feature list (`binary`, `trace`).
    pub(crate) fn hello(&mut self) -> std::io::Result<(u32, Vec<String>)> {
        match self.call(&Request::Hello, None)? {
            Response::Hello { version, features } => Ok((version, features)),
            Response::Error { message } => Err(bad(format!("peer rejected hello: {message}"))),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }
}

/// One connection to a running [`crate::Server`]: blocking
/// request/response calls over a [`WireConn`].
pub struct Client {
    conn: WireConn,
}

impl Client {
    /// Connect to a server address.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Ok(Self {
            conn: WireConn::connect(addr)?,
        })
    }

    /// Run a `hello` round trip and switch this connection to binary
    /// frames if the server advertises the `binary-frames` feature.
    /// Returns whether the upgrade happened. Safe against peers that
    /// don't list the feature — the connection stays on JSON lines.
    pub fn negotiate_binary(&mut self) -> std::io::Result<bool> {
        let (_, features) = self.hello()?;
        self.conn.binary = features.iter().any(|f| f == FEATURE_BINARY);
        self.conn.trace = features.iter().any(|f| f == FEATURE_TRACE);
        Ok(self.conn.binary)
    }

    /// Whether [`Client::negotiate_binary`] switched this connection to
    /// the binary wire path.
    pub fn is_binary(&self) -> bool {
        self.conn.binary
    }

    /// Whether the last `hello` (via [`Client::negotiate_binary`] or
    /// [`Client::negotiate_trace`]) advertised the `trace-context`
    /// feature, i.e. whether [`Client::call_traced`] will actually
    /// attach context.
    pub fn supports_trace(&self) -> bool {
        self.conn.trace
    }

    /// Run a `hello` round trip and record whether the server
    /// advertises `trace-context`, *without* switching the connection
    /// to binary frames (unlike [`Client::negotiate_binary`], which
    /// learns both).
    pub fn negotiate_trace(&mut self) -> std::io::Result<bool> {
        let (_, features) = self.hello()?;
        self.conn.trace = features.iter().any(|f| f == FEATURE_TRACE);
        Ok(self.conn.trace)
    }

    /// Bound every future read on this connection, so a wedged or
    /// overloaded server surfaces as a [`ErrorKind::WouldBlock`] /
    /// [`ErrorKind::TimedOut`] error instead of hanging the caller.
    /// `None` removes the bound.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.conn.reader.get_ref().set_read_timeout(timeout)
    }

    /// Send one request, read one response. After
    /// [`Client::negotiate_binary`], requests with a binary mapping
    /// (ingest_batch, flush, sync, restore) go as frames; everything
    /// else stays on JSON lines — the server autodetects per message.
    pub fn call(&mut self, request: &Request) -> std::io::Result<Response> {
        self.conn.call(request, None)
    }

    /// [`Client::call`] carrying trace context, so the server joins its
    /// spans onto the caller's trace. Requires a prior
    /// [`Client::negotiate_binary`] whose `hello` advertised
    /// `trace-context` — against an older peer the context is silently
    /// dropped and this degrades to a plain [`Client::call`].
    pub fn call_traced(
        &mut self,
        request: &Request,
        ctx: TraceContext,
    ) -> std::io::Result<Response> {
        self.conn.call(request, Some(ctx))
    }

    /// Resolve an identifier to its entry, if integrated.
    pub fn lookup(&mut self, identifier: &str) -> std::io::Result<Option<CatalogEntry>> {
        Ok(self.lookup_traced(identifier)?.1)
    }

    /// [`Client::lookup`] plus the generation the answer was read from.
    pub fn lookup_traced(
        &mut self,
        identifier: &str,
    ) -> std::io::Result<(u64, Option<CatalogEntry>)> {
        match self.call(&Request::Lookup {
            identifier: identifier.to_string(),
        })? {
            Response::Entry { generation, entry } => Ok((generation, entry)),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// Products with `attribute` in `[min, max]`, at most `limit`.
    pub fn filter(
        &mut self,
        attribute: &str,
        min: Option<f64>,
        max: Option<f64>,
        limit: Option<usize>,
    ) -> std::io::Result<Vec<CatalogEntry>> {
        let request = Request::Filter {
            attribute: attribute.to_string(),
            min,
            max,
            limit,
        };
        match self.call(&request)? {
            Response::Entries { entries, .. } => Ok(entries),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// Top-k products by a numeric attribute.
    pub fn top_k(&mut self, attribute: &str, k: usize) -> std::io::Result<Vec<CatalogEntry>> {
        match self.call(&Request::TopK {
            attribute: attribute.to_string(),
            k,
        })? {
            Response::Entries { entries, .. } => Ok(entries),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// Submit a record; returns the server's submitted counter. Blocks
    /// while the ingest queue is full (backpressure).
    pub fn ingest(&mut self, record: Record) -> std::io::Result<u64> {
        match self.call(&Request::Ingest { record })? {
            Response::Ack { submitted } => Ok(submitted),
            Response::Error { message } => Err(bad(message)),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// Submit a whole batch of records in one request/response round
    /// trip; returns the server's submitted counter after the last
    /// record. Per-record round trips and syscalls amortize across the
    /// batch — this is the call the router tier pipelines ingest over.
    pub fn ingest_batch(&mut self, records: Vec<Record>) -> std::io::Result<u64> {
        match self.call(&Request::IngestBatch { records })? {
            Response::Ack { submitted } => Ok(submitted),
            Response::Error { message } => Err(bad(message)),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// Wait until everything submitted so far is queryable; returns
    /// `(generation, applied)`.
    pub fn flush(&mut self) -> std::io::Result<(u64, u64)> {
        match self.call(&Request::Flush)? {
            Response::Flushed {
                generation,
                applied,
            } => Ok((generation, applied)),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// Service counters.
    pub fn stats(&mut self) -> std::io::Result<StatsBody> {
        match self.call(&Request::Stats)? {
            Response::Stats(body) => Ok(body),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// The full metrics registry: counters, gauges, latency histograms.
    pub fn metrics(&mut self) -> std::io::Result<MetricsBody> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(body) => Ok(body),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// Every span of trace `id` still in the peer's flight recorder
    /// (a router merges in its backends' spans). Empty when the trace
    /// aged out or never existed.
    pub fn trace(&mut self, id: u64) -> std::io::Result<TraceBody> {
        match self.call(&Request::Trace {
            id: Some(id),
            recent: None,
        })? {
            Response::Trace(body) => Ok(body),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// The peer's most recently retained trace ids, newest first.
    pub fn trace_recent(&mut self, n: usize) -> std::io::Result<Vec<u64>> {
        match self.call(&Request::Trace {
            id: None,
            recent: Some(n),
        })? {
            Response::Trace(body) => Ok(body.recent),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// Ask the server to stop accepting connections.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// Version/feature handshake: `(protocol_version, features)`. A
    /// pre-v2 peer answers `hello` with an error response, which is
    /// surfaced as an `InvalidData` error here.
    pub fn hello(&mut self) -> std::io::Result<(u32, Vec<String>)> {
        self.conn.hello()
    }

    /// Ship a backend's state from absolute position `from`:
    /// `(position, snapshot, tail)`. Backend-only (routers reject it).
    pub fn sync(&mut self, from: u64) -> std::io::Result<(u64, Option<Snapshot>, Vec<Record>)> {
        match self.call(&Request::Sync { from })? {
            Response::SyncState {
                position,
                snapshot,
                tail,
            } => Ok((position, snapshot, tail)),
            Response::Error { message } => Err(bad(message)),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// Install shipped state onto a backend, replacing whatever it
    /// held; returns the installed record count. Backend-only.
    pub fn restore(
        &mut self,
        snapshot: Option<Snapshot>,
        tail: Vec<Record>,
        position: u64,
    ) -> std::io::Result<u64> {
        match self.call(&Request::Restore {
            snapshot,
            tail,
            position,
        })? {
            Response::Restored { records, .. } => Ok(records),
            Response::Error { message } => Err(bad(message)),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// Split `shard`'s hash range onto new backends at `addrs` (one per
    /// replica); returns `(new_shard, moved_records)`. Router-only.
    pub fn split(&mut self, shard: usize, addrs: Vec<String>) -> std::io::Result<(usize, u64)> {
        match self.call(&Request::Split { shard, addrs })? {
            Response::SplitDone {
                new_shard, moved, ..
            } => Ok((new_shard, moved)),
            Response::Error { message } => Err(bad(message)),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// Replace replica `replica` of `shard` with a fresh backend at
    /// `addr`, bootstrapped over the wire from a live peer; returns the
    /// record count the replacement was synced to. Router-only.
    pub fn replace(&mut self, shard: usize, replica: usize, addr: String) -> std::io::Result<u64> {
        match self.call(&Request::Replace {
            shard,
            replica,
            addr,
        })? {
            Response::Replaced { synced, .. } => Ok(synced),
            Response::Error { message } => Err(bad(message)),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }
}

/// One keep-alive connection to the HTTP/1.1 gateway — the same server
/// and port as [`Client`] (the front-end sniffs the protocol). Just
/// enough HTTP for the load driver, the integration tests, and the CI
/// smoke: `Content-Length` framing, no chunking, no redirects.
///
/// Success bodies are the wire response objects (see
/// `docs/HTTP_API.md`), so the typed helpers parse them with the same
/// serde types the JSON-lines client uses.
pub struct HttpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The server announced `Connection: close` on the last response;
    /// further calls would read from a dead socket.
    closed: bool,
    /// `X-Bdi-Trace` value to send with every request until cleared
    /// (see [`HttpClient::set_trace_header`]).
    trace_header: Option<String>,
    /// Trace id from the last response's `X-Bdi-Trace` header, if any.
    last_trace: Option<u64>,
}

impl HttpClient {
    /// Connect to a server (or router) address.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            writer,
            reader,
            closed: false,
            trace_header: None,
            last_trace: None,
        })
    }

    /// Send `X-Bdi-Trace: value` with every subsequent request (`None`
    /// stops). `<16-hex-trace-id>[-<16-hex-parent-span>]` forces the
    /// gateway to trace the dispatch under that context.
    pub fn set_trace_header(&mut self, value: Option<String>) {
        self.trace_header = value;
    }

    /// Trace id announced by the last response's `X-Bdi-Trace` header
    /// (set when the gateway traced that request), if any.
    pub fn last_trace(&self) -> Option<u64> {
        self.last_trace
    }

    /// `GET /trace/:id`: the assembled span tree of one trace.
    pub fn trace(&mut self, id: u64) -> std::io::Result<TraceTree> {
        let (status, body) = self.get(&format!("/trace/{id:016x}"))?;
        if status != 200 {
            return Err(bad(format!(
                "HTTP {status} from /trace/{id:016x}: {}",
                String::from_utf8_lossy(&body)
            )));
        }
        serde_json::from_slice(&body).map_err(|e| bad(format!("bad trace body: {e}")))
    }

    /// Bound every future read on this connection (`None` removes the
    /// bound); see [`Client::set_read_timeout`].
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// `GET path` → `(status, body)`. The connection stays usable
    /// across calls (keep-alive) until the server closes it.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body → `(status, body)`.
    pub fn post(&mut self, path: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.request("POST", path, Some(body))
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        if self.closed {
            return Err(Error::new(
                ErrorKind::NotConnected,
                "server closed this connection; reconnect",
            ));
        }
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: bdi\r\n");
        if let Some(trace) = &self.trace_header {
            head.push_str(&format!("X-Bdi-Trace: {trace}\r\n"));
        }
        if let Some(b) = body {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                b.len()
            ));
        }
        head.push_str("\r\n");
        self.writer.write_all(head.as_bytes())?;
        if let Some(b) = body {
            self.writer.write_all(b)?;
        }
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<(u16, Vec<u8>)> {
        self.last_trace = None;
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(Error::new(
                ErrorKind::UnexpectedEof,
                "server closed connection",
            ));
        }
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line: {status_line:?}")))?;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(Error::new(ErrorKind::UnexpectedEof, "truncated head"));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .parse()
                        .map_err(|_| bad(format!("bad content-length: {value:?}")))?;
                } else if name.eq_ignore_ascii_case("connection")
                    && value.eq_ignore_ascii_case("close")
                {
                    self.closed = true;
                } else if name.eq_ignore_ascii_case("x-bdi-trace") {
                    self.last_trace = u64::from_str_radix(value, 16).ok().filter(|&t| t != 0);
                }
            }
        }
        if status == 100 {
            // interim: the real response follows
            return self.read_response();
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }

    /// Parse a body as the wire response object; statuses ≥ 400 carry
    /// the error shape and surface as errors here.
    fn wire(&mut self, status: u16, body: &[u8]) -> std::io::Result<Response> {
        let response: Response =
            serde_json::from_slice(body).map_err(|e| bad(format!("bad response body: {e}")))?;
        match response {
            Response::Error { message } => Err(bad(format!("HTTP {status}: {message}"))),
            other => Ok(other),
        }
    }

    /// `GET /lookup/:id` (percent-encoded); 404 is `Ok(None)`.
    pub fn lookup(&mut self, identifier: &str) -> std::io::Result<Option<CatalogEntry>> {
        let path = format!("/lookup/{}", crate::http::percent_encode(identifier));
        let (status, body) = self.get(&path)?;
        if status == 404 {
            return Ok(None);
        }
        match self.wire(status, &body)? {
            Response::Entry { entry, .. } => Ok(entry),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// `POST /ingest` with one record; returns the submitted counter.
    pub fn ingest(&mut self, record: &Record) -> std::io::Result<u64> {
        let body = serde_json::to_string(record).map_err(|e| bad(e.to_string()))?;
        let (status, body) = self.post("/ingest", body.as_bytes())?;
        match self.wire(status, &body)? {
            Response::Ack { submitted } => Ok(submitted),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// `POST /ingest` with an array body (the batch form).
    pub fn ingest_batch(&mut self, records: &[Record]) -> std::io::Result<u64> {
        let body = serde_json::to_string(records).map_err(|e| bad(e.to_string()))?;
        let (status, body) = self.post("/ingest", body.as_bytes())?;
        match self.wire(status, &body)? {
            Response::Ack { submitted } => Ok(submitted),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// `POST /flush` → `(generation, applied)`.
    pub fn flush(&mut self) -> std::io::Result<(u64, u64)> {
        let (status, body) = self.post("/flush", b"")?;
        match self.wire(status, &body)? {
            Response::Flushed {
                generation,
                applied,
            } => Ok((generation, applied)),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// `GET /stats`.
    pub fn stats(&mut self) -> std::io::Result<StatsBody> {
        let (status, body) = self.get("/stats")?;
        match self.wire(status, &body)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// `GET /top_k?attribute=&k=`.
    pub fn top_k(&mut self, attribute: &str, k: usize) -> std::io::Result<Vec<CatalogEntry>> {
        let path = format!(
            "/top_k?attribute={}&k={k}",
            crate::http::percent_encode(attribute)
        );
        let (status, body) = self.get(&path)?;
        match self.wire(status, &body)? {
            Response::Entries { entries, .. } => Ok(entries),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    /// `GET /metrics`: the Prometheus text exposition.
    pub fn metrics_text(&mut self) -> std::io::Result<String> {
        let (status, body) = self.get("/metrics")?;
        if status != 200 {
            return Err(bad(format!("HTTP {status} from /metrics")));
        }
        String::from_utf8(body).map_err(|e| bad(e.to_string()))
    }

    /// `POST /shutdown`; the server answers, then closes.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        let (status, body) = self.post("/shutdown", b"")?;
        match self.wire(status, &body)? {
            Response::Bye => Ok(()),
            other => Err(bad(format!("unexpected response: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts everything it is handed, so one `write_all` is exactly
    /// one `write` — the stand-in for one `send` syscall on a
    /// `TCP_NODELAY` socket.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_request_is_one_write() {
        let mut conn = WireConn {
            writer: CountingWriter::default(),
            reader: std::io::empty(),
            binary: false,
            trace: true,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            line: String::new(),
        };
        let ctx = TraceContext {
            trace: 7,
            parent: 3,
        };
        let lookup = Request::Lookup {
            identifier: "CAM-LUM-00100".to_string(),
        };
        conn.send(&lookup, None).unwrap();
        conn.send(&lookup, Some(ctx)).unwrap();
        conn.send(&Request::Stats, None).unwrap();
        conn.binary = true;
        conn.send(&Request::Flush, Some(ctx)).unwrap();

        let writes = &conn.writer.writes;
        assert_eq!(writes.len(), 4, "four requests, four writes: {writes:?}");
        for line in &writes[..3] {
            assert_eq!(
                line.iter().filter(|&&b| b == b'\n').count(),
                1,
                "the newline travels with its line"
            );
            assert_eq!(line.last(), Some(&b'\n'));
        }
        assert!(writes[1].starts_with(b"{\"traced\":{\"id\":7,\"parent\":3},\"request\":"));
        assert_eq!(writes[2], b"\"stats\"\n");
        assert_eq!(
            writes[3][0],
            frame::FRAME_MAGIC,
            "a whole frame in one write"
        );
    }
}
