//! `livebench` — the live-integration benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path livebench/Cargo.toml -- \
//!     --workload mixed-live --seed 7 --seconds 20 --trace 0
//! ```
//!
//! Run from the root of a checkout. Builds `bdi`, drives real
//! `bdi serve` / `bdi route` children over loopback, checks what they
//! answer against an in-process replay, and prints each workload's
//! metrics by name and unit: a table on standard error, and as the
//! last line of standard output one JSON object per workload. With
//! `--trace 1` the JSON carries the per-layer metrics, which adds an
//! in-process replay after the live run. See `README.md` beside this
//! crate for what each workload and metric is for.

mod child;
mod gate;
mod ledger;
mod loadgen;
mod workloads;
mod world;

use std::process::ExitCode;

/// `(name, unit)` of what a user of the system sees; `BENCHMARK.json`
/// carries the same list with each metric's bound.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ingest_rps", "records/s"),
    ("lookup_p50_us", "us"),
    ("lookup_p99_us", "us"),
    ("lookup_rps", "lookups/s"),
];

/// `(name, unit)` of the per-layer ledger: first what the live run
/// shows of single layers, then the replay. A metric a workload has no
/// traffic for reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("visible_lag_p50_ms", "ms"),
    ("visible_lag_p95_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("backlog_end", "records"),
    ("client.gen_late_p99_us", "us"),
    ("lookup_p50_us.r1000", "us"),
    ("lookup_p99_us.r1000", "us"),
    ("lookup_p50_us.r8000", "us"),
    ("lookup_p99_us.r8000", "us"),
    ("recover_ms", "ms"),
    ("publishes", "count"),
    ("wal.fsyncs", "count"),
    ("wal.bytes_per_record", "bytes/record"),
    ("engine.pruned_per_insert", "count"),
    ("rss_peak_mb", "MiB"),
    ("nio.rtt_floor_us", "us"),
    ("router.hop_us", "us"),
    ("router.rps_ratio", "ratio"),
    ("frame.encode_us", "us"),
    ("frame.decode_us", "us"),
    ("wal.append_us", "us"),
    ("wal.sync_ms", "ms"),
    ("engine.candidates_us", "us"),
    ("engine.score_us", "us"),
    ("engine.union_us", "us"),
    ("engine.comparisons_per_insert", "count"),
    ("engine.refresh_ms", "ms"),
    ("engine.refresh_ms.at25", "ms"),
    ("engine.refresh_ms.at50", "ms"),
    ("engine.refresh_ms.at75", "ms"),
    ("engine.refresh_ms.at100", "ms"),
    ("gen.build_ms", "ms"),
    ("gen.build_ms.at25", "ms"),
    ("gen.build_ms.at50", "ms"),
    ("gen.build_ms.at75", "ms"),
    ("gen.build_ms.at100", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("wal.replay_ms", "ms"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("gen.lookup_ns", "ns"),
    ("trace.overhead_share", "ratio"),
    ("unattributed_share", "ratio"),
];

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: workloads::WORKLOADS.map(String::from).to_vec(),
        seed: 7,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" if workloads::WORKLOADS.contains(&value.as_str()) => {
                args.workloads = vec![value]
            }
            "--workload" => {
                return Err(format!(
                    "--workload: one of {}",
                    workloads::WORKLOADS.join(", ")
                ))
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => match value.parse() {
                Ok(s) if (1.0..=60.0).contains(&s) => args.seconds = s,
                _ => return Err(format!("--seconds: a number from 1 to 60, got {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let cores = child::Cores::allowed().map_err(|e| e.to_string())?;
    // build on every core, then move to the generator's
    let bdi = child::build_bdi().map_err(|e| e.to_string())?;
    cores.pin_generator().map_err(|e| e.to_string())?;
    let world = world::BenchWorld::generate(args.seed);
    for workload in &args.workloads {
        let started = std::time::Instant::now();
        let outcome = workloads::run(workload, &bdi, cores, &world, args.seconds, args.trace)
            .map_err(|e| format!("{workload}: {e}"))?;
        eprintln!(
            "{workload}: seed {}, {} s, {} records, servers on core {}, generator on core {}; \
             attempted {}, failed {}; took {:.1} s",
            args.seed,
            args.seconds,
            world.records.len(),
            cores.servers,
            cores.generator,
            outcome.attempted,
            outcome.failed,
            started.elapsed().as_secs_f64()
        );
        let (reported, kind) = match args.trace {
            false => (&END_TO_END[..], "end-to-end"),
            true => (&PER_LAYER[..], "per-layer"),
        };
        let mut json = Vec::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            // an end-to-end metric every workload measures; a per-layer
            // one reads 0 where the workload has nothing to measure
            let value = match outcome.metrics.get(name) {
                Some(v) => *v,
                None if PER_LAYER.contains(&(name, unit)) => 0.0,
                None => return Err(format!("{workload}: {kind} metric {name} not measured")),
            };
            if args.trace || outcome.metrics.contains_key(name) {
                eprintln!("  {name:<32} {value:>16.4} {unit}");
            }
            if reported.contains(&(name, unit)) {
                json.push(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ));
            }
        }
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            outcome.attempted,
            outcome.failed,
            json.join(", ")
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // no result line: a run that failed its gate or its set-up
            // has no metrics worth reading
            eprintln!("livebench: {e}");
            ExitCode::FAILURE
        }
    }
}
