//! The load generators: open-loop lookups timed from when each request
//! was *due*, closed-loop lookups, and the two writers (saturating and
//! paced). Each generator drives one connection from one thread; an
//! open-loop connection also has a reader thread that only sleeps in
//! `read` — replies arrive in request order, and the schedule is fixed,
//! so the reader knows every reply's due time without talking to the
//! sender.

use bdi_serve::Client;
use bdi_types::Record;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Result, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Latency limit of every lookup, due-time to reply. A price-comparison
/// page joins many lookups into one render; 50 ms is the share of an
/// interactive budget one of them may take. Slower counts as failed.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(50);
/// A reader that hears nothing for this long stops waiting; what is
/// still unanswered counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// A batch that is not queryable this long after it was due counts as
/// failed, and the writer moves on.
const VISIBLE_LIMIT: Duration = Duration::from_secs(5);
/// Pause between visibility polls: short against the tens of
/// milliseconds a publish takes, long enough that polling is not a
/// second lookup load.
const VISIBLE_POLL: Duration = Duration::from_micros(500);

/// How long before its due time a generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(120);

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// What one lookup generator saw. Latencies in microseconds.
#[derive(Default)]
pub struct Lookups {
    /// Of the well-formed replies, in request order.
    pub latency_us: Vec<f64>,
    /// How late each request left, against its due time (open loop).
    pub late_us: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Malformed or missing replies.
    pub errors: u64,
    /// Replies slower than [`LATENCY_LIMIT`].
    pub over_limit: u64,
}

impl Lookups {
    /// Record one reply. The generator does not parse the entry:
    /// decoding replies would cost it more processor time than the
    /// server spends producing them, and the gate compares full entries
    /// afterwards.
    fn reply(&mut self, reply: &[u8], latency: Duration) {
        if reply.starts_with(b"{\"entry\":") {
            self.over_limit += (latency > LATENCY_LIMIT) as u64;
            self.latency_us.push(micros(latency));
        } else {
            self.errors += 1;
        }
    }
}

/// Sleep until shortly before `due`, then spin: a sleeping thread wakes
/// 50-100 us late here (timer slack plus a wake-up), which is a third
/// of a median lookup, and spinning the last stretch costs each
/// generator about a tenth of a core at 2,000 requests/s.
fn wait_until(due: Instant) {
    if let Some(nap) = due
        .checked_duration_since(Instant::now())
        .and_then(|d| d.checked_sub(SPIN))
    {
        std::thread::sleep(nap);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Send `requests[i]` at `start + i / rate` whatever the server does,
/// until they run out or `stop` is set, and time each reply from that
/// due time. The sender then closes its half of the connection; the
/// server answers what it has and closes the other half.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[&[u8]],
    rate: f64,
    start: Instant,
    stop: &AtomicBool,
) -> Result<Lookups> {
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut tx = connect(addr)?;
    let rx = tx.try_clone()?;
    rx.set_read_timeout(Some(REPLY_TIMEOUT))?;
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || read_replies(rx, due));
        let mut late_us = Vec::with_capacity(requests.len());
        let mut i = 0;
        let mut out = Vec::new();
        let mut sent = Ok(());
        while i < requests.len() && !stop.load(Ordering::Relaxed) {
            let now = Instant::now();
            if now < due(i) {
                wait_until(due(i));
                continue;
            }
            // everything due by now leaves in one write
            out.clear();
            while i < requests.len() && due(i) <= now {
                out.extend_from_slice(requests[i]);
                late_us.push(micros(now - due(i)));
                i += 1;
            }
            sent = tx.write_all(&out);
            if sent.is_err() {
                break;
            }
        }
        let closed = tx.shutdown(Shutdown::Write);
        let mut result = reader.join().expect("reader thread panicked");
        sent.and(closed)?;
        result.attempted = i as u64;
        // malformed replies, and what the server never answered
        result.errors = result.attempted - result.latency_us.len() as u64;
        result.late_us = late_us;
        Ok(result)
    })
}

/// Read replies until the server closes; reply `k` answers request `k`.
fn read_replies(mut rx: TcpStream, due: impl Fn(usize) -> Instant) -> Lookups {
    let mut result = Lookups::default();
    let mut buf = vec![0u8; 1 << 16];
    let mut pending: Vec<u8> = Vec::new();
    let mut answered = 0;
    loop {
        let n = match rx.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // timed out or broken: the rest stays unanswered
            Err(_) => break,
        };
        let now = Instant::now();
        pending.extend_from_slice(&buf[..n]);
        let mut consumed = 0;
        while let Some(len) = pending[consumed..].iter().position(|&b| b == b'\n') {
            result.reply(
                &pending[consumed..consumed + len],
                now.saturating_duration_since(due(answered)),
            );
            answered += 1;
            consumed += len + 1;
        }
        pending.drain(..consumed);
    }
    result
}

/// Keep `window` lookups in flight on one connection from `start` for
/// `slices` slices of `slice`, cycling through `requests`. Returns what
/// it saw and how many replies arrived in each slice.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[&[u8]],
    window: usize,
    start: Instant,
    slice: Duration,
    slices: usize,
) -> Result<(Lookups, Vec<u64>)> {
    let mut tx = connect(addr)?;
    let mut rx = BufReader::new(tx.try_clone()?);
    rx.get_ref().set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut result = Lookups::default();
    let mut per_slice = vec![0u64; slices];
    let mut in_flight = VecDeque::with_capacity(window);
    let mut requests = requests.iter().cycle();
    let mut reply = Vec::new();
    wait_until(start);
    loop {
        while in_flight.len() < window {
            tx.write_all(requests.next().expect("requests is not empty"))?;
            in_flight.push_back(Instant::now());
        }
        reply.clear();
        rx.read_until(b'\n', &mut reply)?;
        let sent = in_flight.pop_front().expect("window > 0");
        let now = Instant::now();
        // replies still in flight at the end are dropped with the
        // connection, uncounted
        let Some(count) = per_slice.get_mut((now - start).div_duration_f64(slice) as usize) else {
            return Ok((result, per_slice));
        };
        *count += 1;
        result.attempted += 1;
        result.reply(&reply, now - sent);
    }
}

/// A writer connection: binary frames, `ingest_batch`.
pub fn writer(addr: SocketAddr) -> Result<Client> {
    let mut client = Client::connect(addr)?;
    client.set_read_timeout(Some(Duration::from_secs(60)))?;
    if !client.negotiate_binary()? {
        return Err(std::io::Error::other("server did not offer binary frames"));
    }
    Ok(client)
}

/// What a saturating writer did.
pub struct Bulk {
    pub records: usize,
    /// First send to `flush` reply.
    pub elapsed: Duration,
}

/// Send `records` closed-loop in batches of `batch`, then `flush`.
pub fn bulk_write(client: &mut Client, records: &[Record], batch: usize) -> Result<Bulk> {
    let start = Instant::now();
    for chunk in records.chunks(batch) {
        client.ingest_batch(chunk.to_vec())?;
    }
    client.flush()?;
    Ok(Bulk {
        records: records.len(),
        elapsed: start.elapsed(),
    })
}

/// What a paced writer saw.
#[derive(Default)]
pub struct Paced {
    /// Per batch: due time to its probe record being queryable, ms.
    pub lag_ms: Vec<f64>,
    pub late_us: Vec<f64>,
    pub batches: u64,
    /// Batches not visible within [`VISIBLE_LIMIT`].
    pub not_visible: u64,
}

impl Paced {
    pub fn merge(&mut self, other: Paced) {
        self.lag_ms.extend(other.lag_ms);
        self.late_us.extend(other.late_us);
        self.batches += other.batches;
        self.not_visible += other.not_visible;
    }
}

/// Send batch `k` at `start + k / rate` and time it until a `lookup`
/// of its probe record's identifier, on the same connection, returns an
/// entry that lists the record. `probe(k)` names that record; a batch
/// without one is sent and not timed.
pub fn paced_write<'a>(
    client: &mut Client,
    records: &[Record],
    batch: usize,
    rate: f64,
    start: Instant,
    probe: impl Fn(usize) -> Option<&'a Record>,
) -> Result<Paced> {
    let mut result = Paced::default();
    for (k, chunk) in records.chunks(batch).enumerate() {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        wait_until(due);
        result
            .late_us
            .push(micros(Instant::now().saturating_duration_since(due)));
        client.ingest_batch(chunk.to_vec())?;
        result.batches += 1;
        let Some(record) = probe(k) else {
            continue;
        };
        let id = record.primary_identifier().expect("probes have one");
        loop {
            let visible = client
                .lookup(id)?
                .is_some_and(|e| e.pages.contains(&record.id));
            let waited = due.elapsed();
            if visible {
                result.lag_ms.push(waited.as_secs_f64() * 1e3);
                break;
            }
            if waited > VISIBLE_LIMIT {
                result.not_visible += 1;
                break;
            }
            std::thread::sleep(VISIBLE_POLL);
        }
    }
    Ok(result)
}
