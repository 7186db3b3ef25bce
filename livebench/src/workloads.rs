//! The four workloads. Every one runs the same steps — prepare the
//! store image, set the servers up three times, drive the timed
//! traffic, pass the gate — and differs in the image, the path and the
//! traffic mix, which is what makes a metric comparable across them.
//!
//! Rates, sizes and shares are constants: a knob that can be turned is
//! a number that cannot be compared with last month's.

use crate::child::{Cores, Proc, TempDir};
use crate::gate::{self, Reference};
use crate::ledger::{self, Layers, Plan, PRELOAD_BATCH};
use crate::loadgen::{self, Lookups, Paced};
use crate::world::BenchWorld;
use bdi_obs::Tracer;
use bdi_serve::{Client, Request};
use bdi_types::Record;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = ["bulk-load", "lookup-steady", "mixed-live", "routed-live"];

/// Set-ups per run; `setup_s` is their median. Three is the least that
/// has a median which one slow start cannot move.
const SETUPS: usize = 3;
/// Records per `ingest_batch` of the saturating writer — `bdi route`'s
/// and `bdi load`'s own default.
const BULK_BATCH: usize = 64;
/// Open-loop probe beside the saturating writer: light enough to cost
/// the load nothing, dense enough to see a stall of 50 ms.
const PROBE_RATE: f64 = 200.0;
/// The probe's requests are laid out for at most this long a load.
const PROBE_MAX_SECONDS: f64 = 120.0;
/// Share of `--seconds` that `bulk-load` spends in its closed loop,
/// after the load. The load is the whole world whatever `--seconds` is
/// (5 s on the seed commit), so at 20 s the traffic lasts 13 s and the
/// loop has 32 slices, enough for a median that a slow few seconds on
/// the host do not move.
const BULK_CLOSED_SHARE: f64 = 0.4;
/// The traffic of the other three workloads comes in this many rounds
/// of open loop, then closed loop. The host slows by a third for a few
/// seconds now and then; with the closed loop in one piece such a burst
/// could cover all of it, in four it covers at most half.
const ROUNDS: usize = 4;
/// Open-loop steps of `lookup-steady`, lookups/s over both connections,
/// with each step's share of `--seconds`. The middle step feeds the
/// end-to-end latency, so it gets the most time; 8,000/s is under half
/// of what the closed loop reaches. The closed loop gets the rest.
const STEADY_STEPS: [(f64, f64); 3] = [(1_000.0, 0.15), (4_000.0, 0.40), (8_000.0, 0.15)];
/// The names each step reports under; the middle step's are the
/// end-to-end ones.
const STEADY_NAMES: [(&str, &str); 3] = [
    ("lookup_p50_us.r1000", "lookup_p99_us.r1000"),
    ("lookup_p50_us", "lookup_p99_us"),
    ("lookup_p50_us.r8000", "lookup_p99_us.r8000"),
];
/// The live stream: batches of 32 at 5/s. On the seed commit a batch is
/// queryable 24 ms after it was due directly and 65 ms after through
/// the router (one core for backend and router), so the stream keeps
/// the path busy 12% and 33% of the time; at 10/s the routed path's
/// backlog grows.
const PACED_BATCH: usize = 32;
const PACED_RATE: f64 = 5.0;
/// Lookups beside the live stream, on one connection.
const MIXED_LOOKUP_RATE: f64 = 2_000.0;
/// Share of `--seconds` the live stream runs; the closed loop gets the
/// rest.
const PACED_SHARE: f64 = 0.8;
/// Open-loop latencies are taken per slice of this length and the
/// median slice is reported, so that a burst on the host moves a few
/// slices and not the result. Half a second holds 1,000 samples of one
/// connection at the rates above, ten of them beyond a slice's p99.
const LATENCY_SLICE: f64 = 0.5;
/// Slice of the closed loop, whose pieces are shorter.
const RPS_SLICE: Duration = Duration::from_millis(250);
/// Lookups each closed-loop connection keeps in flight. With one, the
/// loop measures how fast two idle processes wake each other across
/// cores; with four the server never idles and the loop measures the
/// server.
const CLOSED_WINDOW: usize = 4;
/// Lookups replayed through the protocol and index layers by `--trace`.
const LEDGER_LOOKUPS: usize = 20_000;
/// `hello` round trips behind `nio.rtt_floor_us`.
const RTT_CALLS: usize = 2_000;
/// Generators start this far in the future, so that both are connected
/// and asleep when the schedule begins.
const START_DELAY: Duration = Duration::from_millis(30);

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric this run measured, end-to-end and per-layer alike.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Nearest-rank percentile; 0 for no samples.
fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    values[((values.len() - 1) as f64 * p).round() as usize]
}

/// The median over slices of the `p`-th percentile within each slice:
/// `per_slice` consecutive samples of one connection (latencies come in
/// due-time order). Fewer samples than one slice make one slice.
fn sliced(connections: &[Lookups], per_slice: usize, p: f64) -> f64 {
    let mut of_slices = Vec::new();
    for c in connections {
        let per_slice = per_slice.clamp(1, c.latency_us.len().max(1));
        for slice in c.latency_us.chunks_exact(per_slice) {
            of_slices.push(percentile(&mut slice.to_vec(), p));
        }
    }
    percentile(&mut of_slices, 0.5)
}

/// A backend, and in front of it a router when the workload is routed.
struct Stack {
    router: Option<Proc>,
    backend: Proc,
}

impl Stack {
    fn start(bdi: &Path, cores: Cores, data_dir: &Path, routed: bool) -> std::io::Result<Self> {
        let backend = Proc::serve(bdi, cores, data_dir)?;
        let router = match routed {
            true => Some(Proc::route(bdi, cores, backend.addr)?),
            false => None,
        };
        Ok(Self { router, backend })
    }

    /// Where clients connect.
    fn addr(&self) -> SocketAddr {
        self.router.as_ref().map_or(self.backend.addr, |r| r.addr)
    }
}

type Failure = String;

fn io(e: std::io::Error) -> Failure {
    format!("i/o: {e}")
}

/// Run `generator(0)` and `generator(1)` side by side: the two threads
/// that generate load at any one time.
fn pair<T: Send>(
    generator: impl Fn(usize) -> std::io::Result<T> + Sync,
) -> Result<[T; 2], Failure> {
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| generator(0));
        let b = generator(1);
        (a.join().expect("generator panicked"), b)
    });
    Ok([a.map_err(io)?, b.map_err(io)?])
}

/// For open loops that run until their requests are sent.
static NEVER: AtomicBool = AtomicBool::new(false);

/// Closed-loop lookups on two connections for `seconds`, added to `t`.
fn closed_loops(
    addr: SocketAddr,
    world: &BenchWorld,
    seconds: f64,
    t: &mut Traffic,
) -> Result<(), Failure> {
    let streams = [world.lookups(20, 4096), world.lookups(21, 4096)];
    let slices = (seconds / RPS_SLICE.as_secs_f64()).round().max(1.0) as usize;
    let start = Instant::now() + START_DELAY;
    let [(a, a_slices), (b, b_slices)] =
        pair(|c| loadgen::closed_loop(addr, &streams[c], CLOSED_WINDOW, start, RPS_SLICE, slices))?;
    t.count(&a);
    t.count(&b);
    let both = a_slices.iter().zip(&b_slices);
    t.closed_rates
        .extend(both.map(|(a, b)| (a + b) as f64 / RPS_SLICE.as_secs_f64()));
    Ok(())
}

/// Open-loop lookups at `rate` over two connections for `seconds`.
fn open_loops(
    addr: SocketAddr,
    world: &BenchWorld,
    stream: u64,
    rate: f64,
    seconds: f64,
) -> Result<[Lookups; 2], Failure> {
    let n = (rate / 2.0 * seconds) as usize;
    let streams = [world.lookups(stream, n), world.lookups(stream + 1, n)];
    let start = Instant::now() + START_DELAY;
    pair(|c| loadgen::open_loop(addr, &streams[c], rate / 2.0, start, &NEVER))
}

/// Median round trip of `request` on an otherwise idle server,
/// microseconds.
fn rtt_us(addr: SocketAddr, request: &Request) -> Result<f64, Failure> {
    let mut client = Client::connect(addr).map_err(io)?;
    let mut rtts = Vec::with_capacity(RTT_CALLS);
    for _ in 0..RTT_CALLS {
        let t = Instant::now();
        client.call(request).map_err(io)?;
        rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(percentile(&mut rtts, 0.5))
}

/// Counters the backend and the kernel already keep, read once after
/// the timed traffic.
fn scrape(
    backend: &Proc,
    data_dir: &Path,
    streamed: usize,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), Failure> {
    let mut client = Client::connect(backend.addr).map_err(io)?;
    let stats = client.stats().map_err(io)?;
    let metrics = client.metrics().map_err(io)?;
    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0) as f64;
    let fsyncs = metrics.histograms.get("serve.wal.fsync.latency_ns");
    m.insert("wal.fsyncs", fsyncs.map_or(0.0, |h| h.count as f64));
    // inserts this process made: the recovered WAL tail, then the stream
    let inserts = counter("serve.recovery.replayed_records") + streamed as f64;
    let pruned = counter("serve.engine.candidates.pruned.root")
        + counter("serve.engine.candidates.pruned.bound");
    m.insert("engine.pruned_per_insert", pruned / inserts.max(1.0));
    let status = std::fs::read_to_string(format!("/proc/{}/status", backend.pid())).map_err(io)?;
    let peak_kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok());
    m.insert("rss_peak_mb", peak_kb.unwrap_or(0.0) / 1024.0);
    let mut bytes = 0;
    for entry in std::fs::read_dir(data_dir).map_err(io)? {
        bytes += entry.and_then(|e| e.metadata()).map_err(io)?.len();
    }
    m.insert(
        "wal.bytes_per_record",
        bytes as f64 / stats.records.max(1) as f64,
    );
    Ok(())
}

/// What the timed traffic of a run adds up to.
#[derive(Default)]
struct Traffic {
    /// Open-loop connections by the step they belong to; every workload
    /// but `lookup-steady` has one step.
    steps: [Vec<Lookups>; 3],
    /// Lookups/s of each closed-loop slice.
    closed_rates: Vec<f64>,
    /// Lookups sent, open and closed loop; those that got no well-formed
    /// reply; those answered over the limit.
    attempted: u64,
    errors: u64,
    over_limit: u64,
    late_us: Vec<f64>,
    live: Paced,
    batches: u64,
}

impl Traffic {
    fn count(&mut self, connection: &Lookups) {
        self.attempted += connection.attempted;
        self.errors += connection.errors;
        self.over_limit += connection.over_limit;
    }

    fn open(&mut self, step: usize, mut connection: Lookups) {
        self.count(&connection);
        self.late_us.append(&mut connection.late_us);
        self.steps[step].push(connection);
    }
}

/// `bulk-load`: the saturating writer beside the probe, then the closed
/// loop. Returns what the writer did.
fn bulk_traffic(
    addr: SocketAddr,
    world: &BenchWorld,
    writer: &mut Client,
    seconds: f64,
    t: &mut Traffic,
) -> Result<loadgen::Bulk, Failure> {
    let requests = world.lookups(0, (PROBE_RATE * PROBE_MAX_SECONDS) as usize);
    let done = AtomicBool::new(false);
    let start = Instant::now() + START_DELAY;
    let (bulk, probe) = std::thread::scope(|s| {
        let probe = s.spawn(|| loadgen::open_loop(addr, &requests, PROBE_RATE, start, &done));
        std::thread::sleep(START_DELAY);
        let bulk = loadgen::bulk_write(writer, &world.records, BULK_BATCH);
        done.store(true, Ordering::Relaxed);
        (bulk, probe.join().expect("generator panicked"))
    });
    t.open(0, probe.map_err(io)?);
    t.batches = world.records.len().div_ceil(BULK_BATCH) as u64;
    closed_loops(addr, world, BULK_CLOSED_SHARE * seconds, t)?;
    bulk.map_err(io)
}

/// `lookup-steady`: rounds of the three open-loop steps and the closed
/// loop.
fn steady_traffic(
    addr: SocketAddr,
    world: &BenchWorld,
    seconds: f64,
    t: &mut Traffic,
) -> Result<(), Failure> {
    let round = seconds / ROUNDS as f64;
    let open: f64 = STEADY_STEPS.iter().map(|s| s.1).sum();
    for r in 0..ROUNDS {
        for (i, (rate, share)) in STEADY_STEPS.into_iter().enumerate() {
            let stream = (100 * r + 10 * i) as u64;
            let [a, b] = open_loops(addr, world, stream, rate, share * round)?;
            t.open(i, a);
            t.open(i, b);
        }
        closed_loops(addr, world, (1.0 - open) * round, t)?;
    }
    Ok(())
}

/// The two live workloads: rounds of the paced stream beside open-loop
/// lookups, and the closed loop.
fn live_traffic(
    addr: SocketAddr,
    world: &BenchWorld,
    writer: &mut Client,
    stream: &[Record],
    reference: &Reference,
    seconds: f64,
    t: &mut Traffic,
) -> Result<(), Failure> {
    let round = seconds / ROUNDS as f64;
    let per_round = stream.len().div_ceil(PACED_BATCH).div_ceil(ROUNDS);
    for (r, records) in stream.chunks(per_round * PACED_BATCH).enumerate() {
        let n = (MIXED_LOOKUP_RATE * PACED_SHARE * round) as usize;
        let requests = world.lookups(r as u64, n);
        let start = Instant::now() + START_DELAY;
        let probe = |batch: usize| reference.probes[r * per_round + batch].as_ref();
        let (live, beside) = std::thread::scope(|s| {
            let beside =
                s.spawn(|| loadgen::open_loop(addr, &requests, MIXED_LOOKUP_RATE, start, &NEVER));
            let live = loadgen::paced_write(writer, records, PACED_BATCH, PACED_RATE, start, probe);
            (live, beside.join().expect("generator panicked"))
        });
        t.open(0, beside.map_err(io)?);
        t.live.merge(live.map_err(io)?);
        closed_loops(addr, world, (1.0 - PACED_SHARE) * round, t)?;
    }
    t.late_us.append(&mut t.live.late_us);
    t.batches = t.live.batches;
    Ok(())
}

pub fn run(
    workload: &str,
    bdi: &Path,
    cores: Cores,
    world: &BenchWorld,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, Failure> {
    let dir = TempDir::create(workload).map_err(io)?;
    let data_dir = dir.path().join("data");
    let all = &world.records;
    let paced_n =
        ((PACED_RATE * PACED_SHARE * seconds) as usize * PACED_BATCH).min(all.len() - world.head);
    // what is in the store before set-up, what the timed traffic adds
    let (preload, stream, stream_batch, routed): (&[Record], &[Record], usize, bool) =
        match workload {
            "bulk-load" => (&[], all, BULK_BATCH, false),
            "lookup-steady" => (all, &[], 0, false),
            "mixed-live" | "routed-live" => (
                &all[..world.head],
                &all[world.head..world.head + paced_n],
                PACED_BATCH,
                workload == "routed-live",
            ),
            other => return Err(format!("unknown workload {other:?}")),
        };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Prepare: replay the reference, then build the image by preloading
    // through the path the timed traffic will take, and kill it. One
    // after the other: the preload is timed, and the replay would share
    // the generator's core with the writer.
    let reference = match workload {
        "bulk-load" => gate::reference(stream, &[], 0),
        _ => gate::reference(preload, stream, PACED_BATCH),
    };
    let preloaded = match preload.is_empty() {
        true => None,
        false => {
            let stack = Stack::start(bdi, cores, &data_dir, routed).map_err(io)?;
            let mut writer = loadgen::writer(stack.addr()).map_err(io)?;
            Some(loadgen::bulk_write(&mut writer, preload, PRELOAD_BATCH).map_err(io)?)
        }
    };

    // Set up: spawn on the image until `stats` answers.
    let mut setups = Vec::new();
    let mut stack = None;
    for _ in 0..SETUPS {
        drop(stack.take());
        let t = Instant::now();
        let fresh = Stack::start(bdi, cores, &data_dir, routed).map_err(io)?;
        Client::connect(fresh.addr())
            .and_then(|mut c| c.stats())
            .map_err(io)?;
        setups.push(t.elapsed().as_secs_f64());
        stack = Some(fresh);
    }
    let mut stack = stack.expect("SETUPS > 0");
    m.insert("setup_s", percentile(&mut setups, 0.5));
    m.insert("recover_ms", m["setup_s"] * 1e3);
    let addr = stack.addr();
    let mut writer = loadgen::writer(addr).map_err(io)?;
    let before = writer.stats().map_err(io)?;

    // Timed traffic.
    let mut t = Traffic::default();
    let bulk = match workload {
        "bulk-load" => bulk_traffic(addr, world, &mut writer, seconds, &mut t)?,
        "lookup-steady" => {
            steady_traffic(addr, world, seconds, &mut t)?;
            preloaded.expect("lookup-steady preloads")
        }
        _ => {
            live_traffic(
                addr,
                world,
                &mut writer,
                stream,
                &reference,
                seconds,
                &mut t,
            )?;
            let stats = writer.stats().map_err(io)?;
            m.insert("backlog_end", (stats.submitted - stats.applied) as f64);
            writer.flush().map_err(io)?;
            m.insert("visible_lag_p50_ms", percentile(&mut t.live.lag_ms, 0.5));
            m.insert("visible_lag_p95_ms", percentile(&mut t.live.lag_ms, 0.95));
            preloaded.expect("live workloads preload")
        }
    };
    m.insert(
        "ingest_rps",
        bulk.records as f64 / bulk.elapsed.as_secs_f64(),
    );
    match workload {
        // over the whole load, not per slice: on the seed commit the
        // probe's latencies are one long ramp, and a slice of it holds
        // 100 samples
        "bulk-load" => {
            let probe = &mut t.steps[0][0].latency_us;
            m.insert("lookup_p50_us", percentile(probe, 0.5));
            m.insert("lookup_p99_us", percentile(probe, 0.99));
        }
        "lookup-steady" => {
            for (i, (rate, _)) in STEADY_STEPS.into_iter().enumerate() {
                let per_slice = (rate / 2.0 * LATENCY_SLICE) as usize;
                m.insert(STEADY_NAMES[i].0, sliced(&t.steps[i], per_slice, 0.5));
                m.insert(STEADY_NAMES[i].1, sliced(&t.steps[i], per_slice, 0.99));
            }
        }
        _ => {
            let per_slice = (MIXED_LOOKUP_RATE * LATENCY_SLICE) as usize;
            m.insert("lookup_p50_us", sliced(&t.steps[0], per_slice, 0.5));
            m.insert("lookup_p99_us", sliced(&t.steps[0], per_slice, 0.99));
        }
    }
    m.insert("lookup_rps", percentile(&mut t.closed_rates, 0.5));

    let after = writer.stats().map_err(io)?;
    scrape(&stack.backend, &data_dir, stream.len(), &mut m)?;
    m.insert("publishes", (after.generation - before.generation) as f64);
    m.insert("client.gen_late_p99_us", percentile(&mut t.late_us, 0.99));
    if m["client.gen_late_p99_us"] > m["lookup_p99_us"] {
        eprintln!(
            "invalid: the generator ran up to {:.0} us late (p99), more than the {:.0} us p99 \
             lookup it measured",
            m["client.gen_late_p99_us"], m["lookup_p99_us"]
        );
    }

    // The gate; `bulk-load` passes it again after a crash.
    gate::check(&mut writer, &reference, world)?;
    if workload == "bulk-load" {
        drop(writer);
        drop(stack);
        let t = Instant::now();
        stack = Stack::start(bdi, cores, &data_dir, routed).map_err(io)?;
        writer = loadgen::writer(stack.addr()).map_err(io)?;
        writer.stats().map_err(io)?;
        m.insert("recover_ms", t.elapsed().as_secs_f64() * 1e3);
        gate::check(&mut writer, &reference, world)?;
    }

    // Failed: no reply, or not a reply. Too late — a lookup over the
    // limit, a batch not queryable in time — is counted in `fail_ratio`
    // with them, but is a measurement, not a malfunction: a lost write
    // does not get past the gate.
    let attempted = t.attempted + t.batches;
    let failed = t.errors;
    let late = t.over_limit + t.live.not_visible;
    m.insert("fail_ratio", (failed + late) as f64 / attempted as f64);
    if trace {
        m.insert(
            "nio.rtt_floor_us",
            rtt_us(stack.backend.addr, &Request::Hello)?,
        );
        if routed {
            // the router answers `hello` itself; a miss is the
            // smallest request it has to forward
            let miss = Request::Lookup {
                identifier: "ZZZ-UNK-000000".to_string(),
            };
            let hop = rtt_us(addr, &miss)? - rtt_us(stack.backend.addr, &miss)?;
            m.insert("router.hop_us", hop);
            let mut direct = Traffic::default();
            closed_loops(stack.backend.addr, world, 1.0, &mut direct)?;
            let direct = percentile(&mut direct.closed_rates, 0.5);
            m.insert("router.rps_ratio", m["lookup_rps"] / direct);
        }
        drop(writer);
        drop(stack);
        let plan = Plan {
            preload,
            stream,
            batch: stream_batch,
            lookups: &world.lookups(40, LEDGER_LOOKUPS),
        };
        ledger(workload, &plan, &reference, &dir, &mut m)?;
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// The `--trace` replay: once with spans for the per-layer numbers,
/// once without for what the spans themselves cost.
fn ledger(
    workload: &str,
    plan: &Plan,
    reference: &Reference,
    dir: &TempDir,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), Failure> {
    let tracer = Tracer::with_capacity(plan.spans());
    let traced = ledger::replay(plan, &dir.path().join("traced"), Some(&tracer)).map_err(io)?;
    let plain = ledger::replay(plan, &dir.path().join("plain"), None).map_err(io)?;
    for catalog in [&traced.catalog, &traced.recovered] {
        gate::same_catalog(reference, catalog)?;
    }
    let l = Layers::of(&tracer, plan);
    let records = l.records.max(1) as f64;
    for (name, span) in [
        ("frame.encode_us", "frame.encode"),
        ("frame.decode_us", "frame.decode"),
        ("wal.append_us", "wal.append"),
        ("engine.candidates_us", "engine.candidates"),
        ("engine.score_us", "engine.score"),
        ("engine.union_us", "engine.union"),
    ] {
        m.insert(name, l.ns(span) / records / 1e3);
    }
    for (name, span, per) in [
        ("wal.sync_ms", "wal.sync", 1e6),
        ("engine.refresh_ms", "engine.refresh", 1e6),
        ("gen.build_ms", "gen.build", 1e6),
        ("snapshot.write_ms", "snapshot.write", 1e6),
        ("snapshot.load_ms", "snapshot.load", 1e6),
        ("wal.replay_ms", "wal.replay", 1e6),
        ("protocol.decode_us", "protocol.decode", 1e3),
        ("protocol.encode_us", "protocol.encode", 1e3),
        ("gen.lookup_ns", "gen.lookup", 1.0),
    ] {
        m.insert(name, l.mean_ns(span) / per);
    }
    for (i, (refresh, build)) in [
        ("engine.refresh_ms.at25", "gen.build_ms.at25"),
        ("engine.refresh_ms.at50", "gen.build_ms.at50"),
        ("engine.refresh_ms.at75", "gen.build_ms.at75"),
        ("engine.refresh_ms.at100", "gen.build_ms.at100"),
    ]
    .into_iter()
    .enumerate()
    {
        m.insert(refresh, l.at_marks[i].0 as f64 / 1e6);
        m.insert(build, l.at_marks[i].1 as f64 / 1e6);
    }
    m.insert(
        "engine.comparisons_per_insert",
        traced.comparisons_per_insert,
    );
    m.insert(
        "trace.overhead_share",
        traced.elapsed.as_secs_f64() / plain.elapsed.as_secs_f64() - 1.0,
    );
    // One operation end to end, against what the layers did for it.
    let (end_to_end_ns, layers_ns) = match workload {
        "bulk-load" => (1e9 / m["ingest_rps"], l.ingest_ns() / records),
        "lookup-steady" => (
            m["lookup_p50_us"] * 1e3,
            l.mean_ns("protocol.decode") + l.mean_ns("gen.lookup") + l.mean_ns("protocol.encode"),
        ),
        _ => (
            m["visible_lag_p50_ms"] * 1e6,
            l.ingest_ns() / l.batches.max(1) as f64,
        ),
    };
    m.insert("unattributed_share", 1.0 - layers_ns / end_to_end_ns);
    Ok(())
}
