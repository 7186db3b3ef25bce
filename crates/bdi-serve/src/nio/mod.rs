//! The readiness-loop front-end: one event-loop thread multiplexing
//! every connection over raw `epoll` ([`sys`]), plus a small worker
//! pool for the requests that may block.
//!
//! Tens of thousands of mostly-idle connections cost buffers here, not
//! threads. The division of labor:
//!
//! * **The loop thread** owns every socket. It accepts (nonblocking
//!   listeners), reads into per-connection buffers, frames requests
//!   incrementally (JSON lines and binary frames, *or* HTTP/1.1 — the
//!   protocol is sniffed from a connection's first bytes, so one
//!   listener serves all three), and writes responses, arming
//!   `EPOLLOUT` only while a connection has backlog. It decodes each
//!   JSON line, and routes each HTTP request, far enough to learn its
//!   [`WIRE`] row. A row the tier runs inline ([`WIRE`]'s `inline`
//!   column: on a backend `lookup`, `stats`, `metrics`, `trace` and
//!   `hello`, answered from the published generation or process-local
//!   state at a cost that does not grow with the catalog) executes
//!   right there, through the same request core ([`crate::request`]),
//!   its reply appended straight to the write buffer. So a read never
//!   waits behind the flush barrier or backpressured ingest that
//!   another connection holds a worker with.
//! * **Workers** run the rest through the same request core: binary
//!   frames (raw — no inline row has an opcode), writes, flush
//!   barriers, O(catalog) scans and every router read (a scatter over
//!   sockets). Workers may block; the pool size bounds how many
//!   blocking commands run at once.
//! * **Order holds per connection.** Frames the loop does not run
//!   queue per connection ([`ConnCell`]), and at most one worker
//!   services a given connection at a time. The loop runs a frame
//!   inline only while its connection has nothing pending or in flight
//!   on the pool, so requests on one connection are processed strictly
//!   in order — a read after a write sees the write — and responses
//!   never interleave (which is what makes HTTP pipelining answer in
//!   request order).
//! * Finished pool responses flow back through a completion list and a
//!   waker (a socketpair byte), and the loop pushes the bytes out.
//!
//! Framing errors are *answered in order*: the framing layer emits a
//! pre-encoded response as a [`Frame::Raw`] that takes the same place in
//! the connection's order as a real request, so a pipelined client
//! never sees an error overtake an earlier response.

pub(crate) mod sys;

pub use sys::raise_nofile_limit;

use crate::frame;
use crate::http::{self, HttpRequest, HttpResponse};
use crate::protocol::{Request, Response, Tier, WIRE};
use crate::request::{self, Decoded, RequestCore};
use bdi_obs::{Counter, Gauge, Registry, TraceContext};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sys::{Epoll, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Longest JSON line accepted (a `restore` ships a whole snapshot as
/// one line, so this is generous).
const MAX_LINE: usize = 256 << 20;
/// Longest HTTP request head (request line + headers).
const MAX_HTTP_HEAD: usize = 16 * 1024;
/// Longest HTTP body accepted (bounds a `POST /ingest` batch).
const MAX_HTTP_BODY: usize = 64 << 20;
/// Read at most this much per readiness event before yielding to other
/// connections (level-triggered epoll re-fires for the remainder).
const READ_QUANTUM: usize = 256 * 1024;
/// How long the shutdown drain waits for in-flight work and undelivered
/// response bytes before force-dropping what remains. A client that
/// stops reading its socket keeps its `wbuf` non-empty forever; without
/// a deadline, `Server::shutdown()` (which joins the loop thread) would
/// hang on it.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

const TOKEN_WAKER: u64 = u64::MAX;
/// First connection token; listener tokens are their index below this.
const TOKEN_CONN0: u64 = 1024;

/// Per-request context the framing layer knows and dispatch doesn't:
/// who sent it and how long it sat on the dispatch queue before a
/// worker picked it up. The slow-request log wants the peer; the
/// request tracer turns the wait into a `queue.wait` span.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RequestMeta {
    /// Peer socket address, when the transport had one.
    pub peer: Option<SocketAddr>,
    /// Nanoseconds between framing completion and dispatch start; 0
    /// for a request the loop ran inline.
    pub queued_ns: u64,
}

/// What a front-end serves: per-connection state plus the one thing a
/// tier implements — executing a [`Request`]. Implemented by the
/// backend ([`crate::server`]) and the router ([`crate::router`]); both
/// run the same loop, the same codec adapters and the same envelope.
pub(crate) trait Service: Send + Sync + 'static {
    /// Per-connection dispatch state (the router's lazy backend
    /// connections; `()` for a backend). Only one thread — the loop or
    /// one worker — touches a connection's state at a time.
    type Conn: Send + 'static;

    /// Which tier this is: the [`WIRE`] rows it answers, and the ones
    /// among them the loop runs inline.
    const TIER: Tier;

    fn new_conn(&self) -> Self::Conn;

    /// The tier's request core: its flight recorder, request-span
    /// name, per-command metrics and slow-request log.
    fn core(&self) -> &RequestCore;

    /// Execute one request. `ctx` is the request span's context when
    /// the request is traced — the parent for whatever spans the work
    /// records. Called inside the envelope ([`request::execute`]), so
    /// a panic here answers this one request with an error.
    fn dispatch(
        &self,
        conn: &mut Self::Conn,
        request: Request,
        ctx: Option<TraceContext>,
    ) -> Response;

    /// The service's shutdown flag: the loop stops accepting and
    /// drains once this reads true.
    fn shutting_down(&self) -> bool;
}

/// One framed request (or framing-layer output).
enum Frame {
    /// A complete JSON line (newline stripped, non-blank), decoded;
    /// `bytes` is its length as framed.
    Line { decoded: Decoded, bytes: usize },
    /// A complete binary frame (magic through CRC trailer, verbatim).
    Binary(Vec<u8>),
    /// A complete HTTP request.
    Http(HttpRequest),
    /// Pre-encoded bytes from the framing layer itself — an interim
    /// `100 Continue`, or the response to a framing-fatal request —
    /// kept in order with real responses.
    Raw { bytes: Vec<u8>, close: bool },
}

impl Frame {
    /// Whether `tier` runs this frame on the loop: a request whose
    /// [`WIRE`] row is inline on the tier, or a frame that names no
    /// command (framing-layer bytes, an undecodable line, an HTTP path
    /// no row routes), which is answered without dispatch. Binary
    /// frames always go to the pool.
    fn inline(&self, tier: Tier) -> bool {
        let row = match self {
            Frame::Line {
                decoded: Ok((_, request)),
                ..
            } => Some(request.row()),
            Frame::Http(req) => http::row(req),
            Frame::Binary(_) => return false,
            Frame::Line {
                decoded: Err(_), ..
            }
            | Frame::Raw { .. } => None,
        };
        row.is_none_or(|row| WIRE[row].inline.contains(&tier))
    }
}

/// Run one frame through the request core, appending its reply to
/// `out` — the one step both the loop and a pool worker take. Returns
/// whether the connection closes after it.
fn serve<S: Service>(
    service: &S,
    state: &mut S::Conn,
    frame: Frame,
    meta: &RequestMeta,
    out: &mut Vec<u8>,
) -> bool {
    match frame {
        Frame::Line { decoded, bytes } => {
            request::serve_line(service, state, decoded, bytes, meta, out)
        }
        Frame::Binary(raw) => request::serve_frame(service, state, &raw, meta, out),
        Frame::Http(req) => {
            let resp = request::serve_http(service, state, &req, meta);
            out.extend_from_slice(&http::encode(&resp));
            resp.close
        }
        Frame::Raw { bytes, close } => {
            out.extend_from_slice(&bytes);
            close
        }
    }
}

/// The half of a connection the loop shares with the pool: its frame
/// queue, the pool's response buffer, and its dispatch state.
struct ConnShared<C> {
    /// Framed requests waiting for a worker, with the instant they
    /// finished framing (the gap to dispatch is the queue wait reported
    /// in [`RequestMeta`]).
    pending: VecDeque<(Frame, Instant)>,
    out: Vec<u8>,
    /// A worker currently owns this connection's queue (or is about
    /// to): the loop runs nothing inline meanwhile.
    busy: bool,
    /// The loop tore the connection down; discard further output.
    closed: bool,
    /// A response requested close (`shutdown`, `Connection: close`, a
    /// framing-fatal error): no more frames are accepted, and the loop
    /// closes once the outbox drains.
    done: bool,
    /// Dispatch state, taken by the servicing worker for the duration
    /// of a batch; the loop uses it in place while nothing is busy.
    state: Option<C>,
}

struct ConnCell<C> {
    token: u64,
    /// Peer address captured at accept (the worker-side [`RequestMeta`]
    /// carries it into dispatch for slow-request logging).
    peer: Option<SocketAddr>,
    shared: Mutex<ConnShared<C>>,
}

/// Completed-connection tokens, handed from workers to the loop.
struct Completions {
    ids: Mutex<Vec<u64>>,
    /// True while a wake byte is already in flight (dedup).
    wake_pending: AtomicBool,
    waker_tx: UnixStream,
}

impl Completions {
    fn notify(&self, token: u64) {
        let wake = {
            let mut ids = self.ids.lock();
            ids.push(token);
            !self.wake_pending.swap(true, Ordering::SeqCst)
        };
        if wake {
            // nonblocking 1-byte write; a full pipe means wakes are
            // already queued
            let _ = (&self.waker_tx).write(&[1u8]);
        }
    }

    fn take(&self) -> Vec<u64> {
        let mut ids = self.ids.lock();
        self.wake_pending.store(false, Ordering::SeqCst);
        std::mem::take(&mut *ids)
    }
}

/// Protocol decode state for one connection.
enum Proto {
    /// First bytes not yet seen.
    Unknown,
    Json,
    Http(HttpDecoder),
}

/// Loop-side connection state.
struct Conn<C> {
    stream: TcpStream,
    cell: Arc<ConnCell<C>>,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    proto: Proto,
    interest: u32,
    /// Read side saw EOF (client half-closed; keep writing).
    peer_closed: bool,
    /// Framing is unrecoverable; stop parsing input.
    broken: bool,
    /// Close once `wbuf` and the outbox drain.
    closing: bool,
}

/// Decide JSON lines vs HTTP from a connection's first bytes: an HTTP
/// method token means HTTP, anything else (JSON values start with `{`,
/// `"`, `[`…) means JSON lines. `None` = ambiguous prefix, need more.
fn sniff(buf: &[u8]) -> Option<bool> {
    const METHODS: [&[u8]; 7] = [
        b"GET ",
        b"POST ",
        b"PUT ",
        b"HEAD ",
        b"DELETE ",
        b"OPTIONS ",
        b"PATCH ",
    ];
    if buf.is_empty() {
        return None;
    }
    let mut maybe = false;
    for m in METHODS {
        if buf.len() >= m.len() {
            if &buf[..m.len()] == m {
                return Some(true);
            }
        } else if m.starts_with(buf) {
            maybe = true;
        }
    }
    if maybe {
        None
    } else {
        Some(false)
    }
}

/// What one decoder step produced.
enum Advance {
    NeedMore,
    /// An interim response to send now (`100 Continue`); decoding
    /// continues.
    Interim(Vec<u8>),
    Request(HttpRequest),
    /// Unrecoverable framing: answer this, then close.
    Fatal(HttpResponse),
}

/// Incremental HTTP/1.1 request decoder: head (request line +
/// headers), then a `Content-Length` body. Keep-alive: after each
/// request the state resets for the next one on the same connection.
struct HttpDecoder {
    body: Option<PendingBody>,
}

struct PendingBody {
    method: String,
    path: String,
    query: String,
    close: bool,
    need: usize,
    trace: Option<String>,
}

impl HttpDecoder {
    fn new() -> Self {
        Self { body: None }
    }

    fn advance(&mut self, buf: &mut Vec<u8>) -> Advance {
        if let Some(pending) = &self.body {
            if buf.len() < pending.need {
                return Advance::NeedMore;
            }
            let pending = self.body.take().expect("checked above");
            let body: Vec<u8> = buf.drain(..pending.need).collect();
            return Advance::Request(HttpRequest {
                method: pending.method,
                path: pending.path,
                query: pending.query,
                body,
                close: pending.close,
                trace: pending.trace,
            });
        }
        // hunt for the blank line ending the head; a head (complete or
        // still arriving) past the cap is fatal either way
        let head_end = find_head_end(buf);
        if head_end.unwrap_or(buf.len()) > MAX_HTTP_HEAD {
            return Advance::Fatal(http::fatal(
                431,
                &format!("request head exceeds {MAX_HTTP_HEAD} bytes"),
            ));
        }
        let Some(head_end) = head_end else {
            return Advance::NeedMore;
        };
        let head: Vec<u8> = buf.drain(..head_end).collect();
        let head = String::from_utf8_lossy(&head).into_owned();
        let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Advance::Fatal(http::fatal(
                400,
                &format!("bad request line: '{request_line}'"),
            ));
        };
        if !version.starts_with("HTTP/1.") {
            return Advance::Fatal(http::fatal(400, &format!("unsupported version {version}")));
        }
        let http10 = version == "HTTP/1.0";
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };
        let mut content_length: Option<usize> = None;
        let mut close = http10;
        let mut expect_continue = false;
        let mut trace: Option<String> = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                match value.parse::<usize>() {
                    // identical repeats are tolerated (RFC 9110 §8.6),
                    // but conflicting duplicates are a request-smuggling
                    // vector behind a proxy that picks the other one
                    Ok(n) => {
                        if content_length.is_some_and(|prev| prev != n) {
                            return Advance::Fatal(http::fatal(
                                400,
                                "conflicting content-length headers",
                            ));
                        }
                        content_length = Some(n);
                    }
                    Err(_) => {
                        return Advance::Fatal(http::fatal(
                            400,
                            &format!("bad content-length: '{value}'"),
                        ));
                    }
                }
            } else if name.eq_ignore_ascii_case("connection") {
                // the value is a comma-separated token list
                // ("keep-alive, TE"); match tokens, not the whole value
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        close = true;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        close = false;
                    }
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Advance::Fatal(http::fatal(
                    400,
                    "transfer-encoding is unsupported: frame the body with content-length",
                ));
            } else if name.eq_ignore_ascii_case("expect")
                && value.eq_ignore_ascii_case("100-continue")
            {
                expect_continue = true;
            } else if name.eq_ignore_ascii_case("x-bdi-trace") {
                trace = Some(value.to_string());
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > MAX_HTTP_BODY {
            return Advance::Fatal(http::fatal(
                413,
                &format!("body exceeds {MAX_HTTP_BODY} bytes"),
            ));
        }
        self.body = Some(PendingBody {
            method: method.to_string(),
            path,
            query,
            close,
            need: content_length,
            trace,
        });
        if expect_continue {
            return Advance::Interim(b"HTTP/1.1 100 Continue\r\n\r\n".to_vec());
        }
        // loop around (via the caller) to consume the body, which may
        // already be buffered
        self.advance(buf)
    }
}

/// Index one past the head-terminating blank line (`\r\n\r\n`, with a
/// bare `\n\n` tolerated).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if i + 1 < buf.len() && buf[i + 1] == b'\n' {
                return Some(i + 2);
            }
            if i + 2 < buf.len() && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// Spawn the front-end over `listeners`: the loop thread plus
/// `workers` dispatch workers. Returns the loop's join handle (it
/// joins the workers itself). `prefix` names the connection metrics:
/// `<prefix>.conn.open` (gauge) and `<prefix>.conn.accepted`
/// (counter).
pub(crate) fn spawn_front_end<S: Service>(
    listeners: Vec<TcpListener>,
    service: Arc<S>,
    registry: &Registry,
    prefix: &str,
    workers: usize,
) -> io::Result<JoinHandle<()>> {
    let epoll = Epoll::new()?;
    for (i, l) in listeners.iter().enumerate() {
        l.set_nonblocking(true)?;
        epoll.add(l.as_raw_fd(), i as u64, EPOLLIN)?;
    }
    let (waker_rx, waker_tx) = UnixStream::pair()?;
    waker_rx.set_nonblocking(true)?;
    waker_tx.set_nonblocking(true)?;
    epoll.add(waker_rx.as_raw_fd(), TOKEN_WAKER, EPOLLIN)?;

    let completions = Arc::new(Completions {
        ids: Mutex::new(Vec::new()),
        wake_pending: AtomicBool::new(false),
        waker_tx,
    });
    let inflight = Arc::new(AtomicU64::new(0));
    let (inject, worker_rx) = unbounded::<Arc<ConnCell<S::Conn>>>();
    let workers = workers.max(1);
    let pool: Vec<JoinHandle<()>> = (0..workers)
        .map(|i| {
            let service = Arc::clone(&service);
            let rx = worker_rx.clone();
            let completions = Arc::clone(&completions);
            let inflight = Arc::clone(&inflight);
            std::thread::Builder::new()
                .name(format!("{prefix}-dispatch-{i}"))
                .spawn(move || worker_loop(service, rx, completions, inflight))
                .expect("spawn dispatch worker")
        })
        .collect();

    let state = EventLoop {
        epoll,
        listeners,
        conns: HashMap::new(),
        next_token: TOKEN_CONN0,
        service,
        inject,
        completions,
        waker_rx,
        inflight,
        conn_open: registry.gauge(&format!("{prefix}.conn.open")),
        conn_accepted: registry.counter(&format!("{prefix}.conn.accepted")),
        pool,
    };
    std::thread::Builder::new()
        .name(format!("{prefix}-nio"))
        .spawn(move || state.run())
        .map_err(io::Error::other)
}

struct EventLoop<S: Service> {
    epoll: Epoll,
    listeners: Vec<TcpListener>,
    conns: HashMap<u64, Conn<S::Conn>>,
    next_token: u64,
    service: Arc<S>,
    inject: Sender<Arc<ConnCell<S::Conn>>>,
    completions: Arc<Completions>,
    waker_rx: UnixStream,
    inflight: Arc<AtomicU64>,
    conn_open: Gauge,
    conn_accepted: Counter,
    pool: Vec<JoinHandle<()>>,
}

impl<S: Service> EventLoop<S> {
    fn run(mut self) {
        let mut events: Vec<(u64, u32)> = Vec::with_capacity(1024);
        let mut drain_deadline: Option<Instant> = None;
        loop {
            events.clear();
            let timeout = if self.service.shutting_down() {
                10
            } else {
                250
            };
            if self.epoll.wait(&mut events, timeout).is_err() {
                break;
            }
            let drain = std::mem::take(&mut events);
            for &(token, ev) in &drain {
                if token == TOKEN_WAKER {
                    self.on_waker();
                } else if (token as usize) < self.listeners.len() {
                    self.on_accept(token as usize);
                } else {
                    if ev & EPOLLERR != 0 {
                        self.drop_conn(token);
                        continue;
                    }
                    if ev & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0 {
                        self.on_readable(token);
                    }
                    if ev & EPOLLOUT != 0 {
                        self.pump_out(token);
                    }
                }
            }
            events = drain;
            if self.service.shutting_down() {
                let deadline =
                    *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_DEADLINE);
                if self.try_drain() || Instant::now() >= deadline {
                    break;
                }
            }
        }
        // teardown: close every connection, retire the pool
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            self.drop_conn(t);
        }
        drop(self.inject);
        for h in self.pool {
            let _ = h.join();
        }
    }

    /// Shutdown drain: true once nothing is in flight in the pool and
    /// every response byte has hit a socket (or its connection died).
    /// The caller bounds this with [`DRAIN_DEADLINE`] — a wedged peer
    /// that never reads keeps its `wbuf` non-empty indefinitely and
    /// must not block shutdown forever.
    fn try_drain(&mut self) -> bool {
        if self.inflight.load(Ordering::SeqCst) != 0 {
            return false;
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            self.pump_out(t);
        }
        self.conns
            .values()
            .all(|c| c.wbuf.is_empty() && c.cell.shared.lock().out.is_empty())
    }

    fn on_accept(&mut self, idx: usize) {
        loop {
            match self.listeners[idx].accept() {
                Ok((stream, peer)) => {
                    if self.service.shutting_down() {
                        continue; // accept-and-drop until the loop exits
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let interest = EPOLLIN | EPOLLRDHUP;
                    if self.epoll.add(stream.as_raw_fd(), token, interest).is_err() {
                        continue;
                    }
                    let cell = Arc::new(ConnCell {
                        token,
                        peer: Some(peer),
                        shared: Mutex::new(ConnShared {
                            pending: VecDeque::new(),
                            out: Vec::new(),
                            busy: false,
                            closed: false,
                            done: false,
                            state: Some(self.service.new_conn()),
                        }),
                    });
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            cell,
                            rbuf: Vec::new(),
                            wbuf: Vec::new(),
                            proto: Proto::Unknown,
                            interest,
                            peer_closed: false,
                            broken: false,
                            closing: false,
                        },
                    );
                    self.conn_accepted.inc();
                    self.conn_open.inc();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EMFILE and friends: stop; the level-triggered event
                // re-fires and we retry after the next wait
                Err(_) => break,
            }
        }
    }

    fn on_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.waker_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        for token in self.completions.take() {
            self.pump_out(token);
        }
    }

    fn on_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut buf = [0u8; 16 * 1024];
        let mut total = 0usize;
        loop {
            match (&conn.stream).read(&mut buf) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    if !conn.broken {
                        conn.rbuf.extend_from_slice(&buf[..n]);
                    }
                    total += n;
                    if total >= READ_QUANTUM {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(token);
                    return;
                }
            }
        }
        let frames = parse_frames(conn);
        if conn.peer_closed || conn.broken {
            // EOF stays readable forever under level triggering — mask
            // reads off; writes (and the completion path) finish up
            let interest = conn.interest & !(EPOLLIN | EPOLLRDHUP);
            if interest != conn.interest {
                conn.interest = interest;
                let _ = self.epoll.modify(conn.stream.as_raw_fd(), token, interest);
            }
        }
        self.deliver(token, frames);
        // push out inline replies; a half-closed connection with
        // nothing left to answer closes here (which may drop it, so
        // nothing after this may assume it survived)
        self.pump_out(token);
    }

    /// Run or queue parsed frames in arrival order: a frame the tier
    /// runs inline executes here, into the write buffer, while the
    /// connection has nothing on the pool; from the first frame that
    /// needs a worker on, the rest queue behind it, and the connection
    /// is scheduled on the pool if no worker currently owns it.
    fn deliver(&mut self, token: u64, frames: Vec<Frame>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut schedule = false;
        {
            let mut g = conn.cell.shared.lock();
            for frame in frames {
                if g.done {
                    break; // closing: no further requests accepted
                }
                if !g.busy && frame.inline(S::TIER) {
                    // replies the pool finished go out first; with
                    // nothing busy, no worker touches `out` or `state`
                    conn.wbuf.append(&mut g.out);
                    let meta = RequestMeta {
                        peer: conn.cell.peer,
                        queued_ns: 0,
                    };
                    let state = g.state.as_mut().expect("state present while idle");
                    g.done = serve(&*self.service, state, frame, &meta, &mut conn.wbuf);
                } else {
                    self.inflight.fetch_add(1, Ordering::SeqCst);
                    g.pending.push_back((frame, Instant::now()));
                    schedule |= !std::mem::replace(&mut g.busy, true);
                }
            }
        }
        if schedule {
            let _ = self.inject.send(Arc::clone(&conn.cell));
        }
    }

    /// Move completed response bytes toward the socket; close when a
    /// finished connection drains.
    fn pump_out(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        {
            let mut g = conn.cell.shared.lock();
            if !g.out.is_empty() {
                conn.wbuf.append(&mut g.out);
            }
            if (g.done || conn.peer_closed) && g.pending.is_empty() && !g.busy {
                conn.closing = true;
            }
        }
        while !conn.wbuf.is_empty() {
            match (&conn.stream).write(&conn.wbuf) {
                Ok(0) => {
                    self.drop_conn(token);
                    return;
                }
                Ok(n) => {
                    conn.wbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(token);
                    return;
                }
            }
        }
        if conn.wbuf.is_empty() {
            if conn.closing {
                self.drop_conn(token);
                return;
            }
            if conn.interest & EPOLLOUT != 0 {
                conn.interest &= !EPOLLOUT;
                let _ = self
                    .epoll
                    .modify(conn.stream.as_raw_fd(), token, conn.interest);
            }
        } else if conn.interest & EPOLLOUT == 0 {
            conn.interest |= EPOLLOUT;
            let _ = self
                .epoll
                .modify(conn.stream.as_raw_fd(), token, conn.interest);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.epoll.delete(conn.stream.as_raw_fd());
        conn.cell.shared.lock().closed = true;
        self.conn_open.dec();
    }
}

/// Frame whatever `rbuf` holds. Framing-fatal conditions mark the
/// connection broken and emit their response as an in-order
/// [`Frame::Raw`].
fn parse_frames<C>(conn: &mut Conn<C>) -> Vec<Frame> {
    let mut frames = Vec::new();
    while !conn.broken {
        match &mut conn.proto {
            Proto::Unknown => match sniff(&conn.rbuf) {
                None => break,
                Some(true) => conn.proto = Proto::Http(HttpDecoder::new()),
                Some(false) => conn.proto = Proto::Json,
            },
            // The Json arm also frames binary: `sniff` routes anything
            // that isn't an HTTP method here, and 0xB5 (frame magic) is
            // not valid JSON, so the two formats coexist per-frame on
            // one connection (a client can `hello` in JSON, then switch).
            Proto::Json if conn.rbuf.first() == Some(&frame::FRAME_MAGIC) => {
                match frame::frame_len(&conn.rbuf) {
                    Ok(None) => break, // header still arriving
                    // a complete header only promises a length: the
                    // body may still be in flight (a batch split across
                    // TCP reads), so wait — draining early would panic
                    // the loop thread. The same MAX_LINE bound as the
                    // JSON arm caps how much one frame can buffer here
                    // (frame_len's per-opcode caps already reject
                    // hostile lengths for everything but state
                    // shipping).
                    Ok(Some(total)) if total > MAX_LINE => {
                        conn.broken = true;
                        let mut bytes = Vec::new();
                        frame::encode_error(
                            &mut bytes,
                            &format!("bad frame: exceeds {MAX_LINE} bytes"),
                        );
                        frames.push(Frame::Raw { bytes, close: true });
                        break;
                    }
                    Ok(Some(total)) if conn.rbuf.len() < total => break, // body still arriving
                    Ok(Some(total)) => {
                        let raw: Vec<u8> = conn.rbuf.drain(..total).collect();
                        frames.push(Frame::Binary(raw));
                    }
                    Err(e) => {
                        conn.broken = true;
                        let mut bytes = Vec::new();
                        frame::encode_error(&mut bytes, &format!("bad frame: {e}"));
                        frames.push(Frame::Raw { bytes, close: true });
                        break;
                    }
                }
            }
            Proto::Json => match conn.rbuf.iter().position(|&b| b == b'\n') {
                Some(idx) => {
                    let line = &conn.rbuf[..idx];
                    let line = line.strip_suffix(b"\r").unwrap_or(line);
                    // decoded once, here: the row decides where it runs
                    let frame = std::str::from_utf8(line).map(|line| {
                        (!line.trim().is_empty()).then(|| Frame::Line {
                            decoded: request::decode_line(line),
                            bytes: line.len(),
                        })
                    });
                    conn.rbuf.drain(..=idx);
                    match frame {
                        Ok(Some(frame)) => frames.push(frame),
                        Ok(None) => {}
                        // mirror `BufRead::lines`: invalid UTF-8 tears
                        // the connection down without a response
                        Err(_) => {
                            conn.broken = true;
                            frames.push(Frame::Raw {
                                bytes: Vec::new(),
                                close: true,
                            });
                            break;
                        }
                    }
                }
                None => {
                    if conn.rbuf.len() > MAX_LINE {
                        conn.broken = true;
                        frames.push(Frame::Raw {
                            bytes: format!(
                                "{{\"error\":{{\"message\":\"bad request: line exceeds {MAX_LINE} bytes\"}}}}\n"
                            )
                            .into_bytes(),
                            close: true,
                        });
                    }
                    break;
                }
            },
            Proto::Http(decoder) => match decoder.advance(&mut conn.rbuf) {
                Advance::NeedMore => break,
                Advance::Interim(bytes) => frames.push(Frame::Raw {
                    bytes,
                    close: false,
                }),
                Advance::Request(req) => frames.push(Frame::Http(req)),
                Advance::Fatal(resp) => {
                    conn.broken = true;
                    frames.push(Frame::Raw {
                        bytes: http::encode(&resp),
                        close: true,
                    });
                    break;
                }
            },
        }
    }
    frames
}

/// A pool worker: claim a connection, drain its frame queue in order
/// through the request core, hand the response bytes back, repeat.
/// Dispatch may block (flush barriers, ingest backpressure, a scatter
/// over sockets) — that is the point of running it here and not on the
/// loop.
fn worker_loop<S: Service>(
    service: Arc<S>,
    rx: Receiver<Arc<ConnCell<S::Conn>>>,
    completions: Arc<Completions>,
    inflight: Arc<AtomicU64>,
) {
    while let Ok(cell) = rx.recv() {
        loop {
            let (frames, state) = {
                let mut g = cell.shared.lock();
                if g.pending.is_empty() || g.done {
                    let leftover = g.pending.len() as u64;
                    g.pending.clear();
                    g.busy = false;
                    drop(g);
                    if leftover > 0 {
                        inflight.fetch_sub(leftover, Ordering::SeqCst);
                    }
                    // notify even with nothing new to write: the loop
                    // must re-check its close condition now that `busy`
                    // is false, or a half-closed connection whose final
                    // pump raced this transition would never be torn
                    // down (its read interest is already masked off, so
                    // no further event arrives on its own)
                    completions.notify(cell.token);
                    break;
                }
                let frames: Vec<(Frame, Instant)> = g.pending.drain(..).collect();
                let state = g.state.take().expect("state present while busy");
                (frames, state)
            };
            let mut state = state;
            let n = frames.len() as u64;
            let mut out = Vec::new();
            let mut done = false;
            for (frame, framed_at) in frames {
                if done {
                    break; // a close drops the rest, as a client that
                           // stops reading past `bye` expects
                }
                let meta = RequestMeta {
                    peer: cell.peer,
                    queued_ns: framed_at.elapsed().as_nanos() as u64,
                };
                done = serve(&*service, &mut state, frame, &meta, &mut out);
            }
            {
                let mut g = cell.shared.lock();
                g.state = Some(state);
                if !g.closed {
                    g.out.extend_from_slice(&out);
                }
                if done {
                    g.done = true;
                    let dropped = g.pending.len() as u64;
                    g.pending.clear();
                    inflight.fetch_sub(dropped, Ordering::SeqCst);
                }
                inflight.fetch_sub(n, Ordering::SeqCst);
            }
            completions.notify(cell.token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sniff_distinguishes_protocols() {
        assert_eq!(sniff(b""), None, "no bytes, no verdict");
        assert_eq!(sniff(b"GE"), None, "could still become GET");
        assert_eq!(sniff(b"GET "), Some(true));
        assert_eq!(sniff(b"DELETE /x"), Some(true));
        assert_eq!(sniff(b"{\"lookup\""), Some(false));
        assert_eq!(sniff(b"\"stats\""), Some(false));
        assert_eq!(sniff(b"GETX"), Some(false), "not a method after all");
    }

    #[test]
    fn decoder_handles_split_and_pipelined_requests() {
        let mut d = HttpDecoder::new();
        let mut buf: Vec<u8> = b"GET /stats HT".to_vec();
        assert!(matches!(d.advance(&mut buf), Advance::NeedMore));
        buf.extend_from_slice(
            b"TP/1.1\r\nHost: x\r\n\r\nPOST /flush HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi",
        );
        let Advance::Request(first) = d.advance(&mut buf) else {
            panic!("first request complete");
        };
        assert_eq!(first.method, "GET");
        assert_eq!(first.path, "/stats");
        assert!(!first.close, "HTTP/1.1 defaults to keep-alive");
        let Advance::Request(second) = d.advance(&mut buf) else {
            panic!("pipelined request complete");
        };
        assert_eq!(second.method, "POST");
        assert_eq!(second.body, b"hi");
        assert!(buf.is_empty());
    }

    #[test]
    fn decoder_rejects_oversized_heads() {
        let mut d = HttpDecoder::new();
        let mut buf = vec![b'A'; MAX_HTTP_HEAD + 10];
        let Advance::Fatal(resp) = d.advance(&mut buf) else {
            panic!("oversized head is fatal");
        };
        assert_eq!(resp.status, 431);
        assert!(resp.close);
    }

    #[test]
    fn decoder_matches_connection_tokens_in_comma_lists() {
        // "close" buried in a token list still closes...
        let mut d = HttpDecoder::new();
        let mut buf: Vec<u8> = b"GET /stats HTTP/1.1\r\nConnection: TE, close\r\n\r\n".to_vec();
        let Advance::Request(req) = d.advance(&mut buf) else {
            panic!("complete");
        };
        assert!(req.close, "'close' token honored inside a list");

        // ...and "keep-alive" in a list keeps an HTTP/1.0 conn open
        let mut d = HttpDecoder::new();
        let mut buf: Vec<u8> =
            b"GET /stats HTTP/1.0\r\nConnection: keep-alive, TE\r\n\r\n".to_vec();
        let Advance::Request(req) = d.advance(&mut buf) else {
            panic!("complete");
        };
        assert!(!req.close, "'keep-alive' token honored inside a list");
    }

    #[test]
    fn decoder_rejects_conflicting_content_lengths() {
        let mut d = HttpDecoder::new();
        let mut buf: Vec<u8> =
            b"POST /ingest HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhihello"
                .to_vec();
        let Advance::Fatal(resp) = d.advance(&mut buf) else {
            panic!("conflicting content-lengths are fatal");
        };
        assert_eq!(resp.status, 400);
        assert!(resp.close);

        // identical repeats are tolerated
        let mut d = HttpDecoder::new();
        let mut buf: Vec<u8> =
            b"POST /flush HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi".to_vec();
        let Advance::Request(req) = d.advance(&mut buf) else {
            panic!("identical duplicates parse");
        };
        assert_eq!(req.body, b"hi");
    }

    /// A loop-side connection over a real loopback socket (the stream
    /// is never read in these tests; `parse_frames` only sees `rbuf`).
    fn test_conn() -> (Conn<()>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let conn = Conn {
            stream,
            cell: Arc::new(ConnCell {
                token: TOKEN_CONN0,
                peer: None,
                shared: Mutex::new(ConnShared {
                    pending: VecDeque::new(),
                    out: Vec::new(),
                    busy: false,
                    closed: false,
                    done: false,
                    state: Some(()),
                }),
            }),
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            proto: Proto::Unknown,
            interest: 0,
            peer_closed: false,
            broken: false,
            closing: false,
        };
        (conn, peer)
    }

    #[test]
    fn partial_binary_frames_wait_for_the_rest() {
        let (mut conn, _peer) = test_conn();
        let mut wire = Vec::new();
        frame::encode_error(&mut wire, "payload long enough to split");

        // bare header: a known length, but no body yet — must not drain
        conn.rbuf.extend_from_slice(&wire[..frame::HEADER_LEN]);
        assert!(parse_frames(&mut conn).is_empty());
        assert!(!conn.broken);
        assert_eq!(conn.rbuf.len(), frame::HEADER_LEN, "buffer kept intact");

        // half the payload: still waiting
        conn.rbuf
            .extend_from_slice(&wire[frame::HEADER_LEN..wire.len() / 2]);
        assert!(parse_frames(&mut conn).is_empty());
        assert!(!conn.broken);

        // the rest arrives: exactly one complete frame comes out
        conn.rbuf.extend_from_slice(&wire[wire.len() / 2..]);
        let frames = parse_frames(&mut conn);
        assert_eq!(frames.len(), 1);
        let Frame::Binary(raw) = &frames[0] else {
            panic!("expected a binary frame");
        };
        assert_eq!(raw, &wire);
        assert!(conn.rbuf.is_empty());
        assert!(!conn.broken);
    }

    #[test]
    fn oversized_binary_frame_headers_break_the_connection() {
        let (mut conn, _peer) = test_conn();
        // a state-shipping opcode passes frame_len's per-opcode cap up
        // to 1 GiB, so the loop's own MAX_LINE bound has to stop it
        // from buffering that much
        let mut header = vec![
            frame::FRAME_MAGIC,
            frame::FRAME_VERSION,
            frame::OP_RESTORE,
            0,
        ];
        header.extend_from_slice(&(MAX_LINE as u32).to_le_bytes());
        conn.rbuf.extend_from_slice(&header);
        let frames = parse_frames(&mut conn);
        assert!(conn.broken);
        assert_eq!(frames.len(), 1);
        assert!(matches!(&frames[0], Frame::Raw { close: true, .. }));

        // a hostile length on a control opcode dies at frame_len instead
        let (mut conn, _peer) = test_conn();
        let mut header = vec![frame::FRAME_MAGIC, frame::FRAME_VERSION, frame::OP_FLUSH, 0];
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        conn.rbuf.extend_from_slice(&header);
        let frames = parse_frames(&mut conn);
        assert!(conn.broken);
        assert_eq!(frames.len(), 1);
        assert!(matches!(&frames[0], Frame::Raw { close: true, .. }));
    }

    #[test]
    fn decoder_flags_connection_close_and_queries() {
        let mut d = HttpDecoder::new();
        let mut buf: Vec<u8> =
            b"GET /top_k?attribute=price&k=3 HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec();
        let Advance::Request(req) = d.advance(&mut buf) else {
            panic!("complete");
        };
        assert!(req.close);
        assert_eq!(req.path, "/top_k");
        assert_eq!(req.query, "attribute=price&k=3");
    }
}
