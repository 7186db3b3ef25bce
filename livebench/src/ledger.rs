//! The per-layer ledger: an in-process replay of a workload's records
//! and lookups through each layer's public functions, in the order the
//! server calls them, with a span recorded around every call. Spans
//! come from this file only — the server's own spans are a later
//! issue — so the ledger shows what the layers cost when called back
//! to back on one thread, and `unattributed_share` is everything the
//! live system adds to that: sockets, queues, scheduling, waiting.

use bdi_core::catalog::Catalog;
use bdi_obs::trace::{assemble, TraceNode, NO_PARENT};
use bdi_obs::{TraceContext, Tracer};
use bdi_serve::frame::{self, Reader};
use bdi_serve::{wal, Engine, Generation, Request, Response, ShardedIndex, Snapshot, Wal};
use bdi_types::Record;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Error, Result};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `bdi serve` defaults the replay mirrors.
const INDEX_SHARDS: usize = 8;
const SNAPSHOT_EVERY: u64 = 4096;
/// Batch size of preloads, here and against the live server: big
/// enough that a publish per batch is noise next to the engine's work.
pub const PRELOAD_BATCH: usize = 2048;

/// What to replay: `preload` in batches of [`PRELOAD_BATCH`], then
/// `stream` in batches of `batch`, then `lookups`.
pub struct Plan<'a> {
    pub preload: &'a [Record],
    pub stream: &'a [Record],
    pub batch: usize,
    pub lookups: &'a [&'a [u8]],
}

impl Plan<'_> {
    /// Spans one replay records, for sizing the tracer's ring so that
    /// nothing is overwritten.
    pub fn spans(&self) -> usize {
        let records = self.preload.len() + self.stream.len();
        let batches = records / self.batch.clamp(1, PRELOAD_BATCH) + 16;
        3 * (records + self.lookups.len()) + 12 * batches + 64
    }
}

pub struct Replayed {
    pub catalog: Arc<Catalog>,
    /// The catalog after a recovery from the replay's data directory.
    pub recovered: Arc<Catalog>,
    pub comparisons_per_insert: f64,
    pub elapsed: Duration,
}

/// Runs `f` under a span named `name` when tracing, bare otherwise.
struct Spans<'a>(Option<&'a Tracer>);

impl Spans<'_> {
    fn root(&self) -> Option<TraceContext> {
        self.0.map(|t| TraceContext {
            trace: t.fresh_id(),
            parent: NO_PARENT,
        })
    }

    fn time<T>(
        &self,
        parent: Option<TraceContext>,
        name: &'static str,
        attrs: &[(&'static str, u64)],
        f: impl FnOnce(Option<TraceContext>) -> T,
    ) -> T {
        let Some((tracer, parent)) = self.0.zip(parent) else {
            return f(None);
        };
        let mut span = tracer.begin(Some(parent), name).expect("parent is Some");
        for &(k, v) in attrs {
            span.attr(k, v);
        }
        let out = f(Some(span.ctx()));
        tracer.finish(span);
        out
    }
}

pub fn replay(plan: &Plan, dir: &Path, tracer: Option<&Tracer>) -> Result<Replayed> {
    let started = Instant::now();
    let spans = Spans(tracer);
    let mut engine = Engine::new(crate::gate::THRESHOLD);
    let mut log = Wal::open(dir)?.wal;
    let mut seq = 0u64;
    let mut buf = Vec::new();
    let mut generation = Generation::empty(INDEX_SHARDS);
    let segments = [
        (plan.preload, PRELOAD_BATCH, 0u64),
        (plan.stream, plan.batch, 1u64),
    ];
    for (records, batch, streamed) in segments {
        for chunk in records.chunks(batch.max(1)) {
            let attrs = [("stream", streamed), ("records", chunk.len() as u64)];
            spans.time(spans.root(), "batch", &attrs, |ctx| -> Result<()> {
                spans.time(ctx, "frame.encode", &[], |_| {
                    frame::encode_ingest_batch(&mut buf, chunk)
                });
                let decoded = spans.time(ctx, "frame.decode", &[], |_| {
                    let (_, payload) = frame::open_frame(&buf)?;
                    frame::read_records(&mut Reader::new(payload))
                })?;
                spans.time(ctx, "wal.append", &[], |_| log.append_batch(&decoded))?;
                spans.time(ctx, "engine.ingest", &[], |ctx| {
                    for record in decoded {
                        let (_, t) = engine.ingest_timed(record);
                        let (Some(tracer), Some(ctx)) = (tracer, ctx) else {
                            continue;
                        };
                        // stage spans laid end to end from the
                        // engine's own stage timings, as the server's
                        // traced path does
                        let end = tracer.now_ns();
                        let union = end - t.union_ns;
                        let score = union - t.scoring_ns;
                        let candidates = score - t.candidates_ns;
                        tracer.record(ctx, "engine.candidates", candidates, score, &[]);
                        tracer.record(ctx, "engine.score", score, union, &[]);
                        tracer.record(ctx, "engine.union", union, end, &[]);
                    }
                });
                spans.time(ctx, "wal.sync", &[], |_| log.sync())?;
                seq += 1;
                let catalog = spans.time(ctx, "engine.refresh", &[], |_| engine.refresh());
                let index = spans.time(ctx, "gen.build", &[], |_| {
                    ShardedIndex::build(&catalog, INDEX_SHARDS)
                });
                generation = Generation {
                    seq,
                    catalog,
                    index,
                    records: engine.records(),
                };
                if log.tail_len() >= SNAPSHOT_EVERY {
                    spans.time(ctx, "snapshot.write", &[], |_| -> Result<()> {
                        let snapshot = Snapshot::capture(&engine, seq);
                        snapshot.write(dir)?;
                        log.compact_through(snapshot.records)
                    })?;
                }
                Ok(())
            })?;
        }
    }
    drop(log);

    let (mut recovered, _, covered) =
        spans.time(spans.root(), "snapshot.load", &[], |_| -> Result<_> {
            match Snapshot::load(dir)? {
                Some(snapshot) => snapshot.restore_engine(),
                None => Ok((Engine::new(crate::gate::THRESHOLD), 0, 0)),
            }
        })?;
    let tail = spans.time(spans.root(), "wal.replay", &[], |_| {
        wal::replay_from(dir, covered)
    })?;
    recovered.ingest_batch(tail);

    let lookups = spans.root();
    for line in plan.lookups {
        let text = std::str::from_utf8(line).map_err(Error::other)?;
        let request = spans.time(lookups, "protocol.decode", &[], |_| {
            serde_json::from_str::<Request>(text.trim_end())
        });
        let Ok(Request::Lookup { identifier }) = request else {
            return Err(Error::other("lookup line does not parse as a lookup"));
        };
        let response = spans.time(lookups, "gen.lookup", &[], |_| Response::Entry {
            generation: generation.seq,
            entry: generation.lookup(&identifier).cloned(),
        });
        let reply = spans.time(lookups, "protocol.encode", &[], |_| {
            serde_json::to_string(&response)
        });
        black_box(reply.map_err(Error::other)?);
    }
    Ok(Replayed {
        catalog: generation.catalog,
        recovered: recovered.refresh(),
        comparisons_per_insert: engine.comparisons() as f64 / engine.records().max(1) as f64,
        elapsed: started.elapsed(),
    })
}

/// Self time and count of the replay's spans, by name, plus the publish
/// costs at the quartile marks of the records replayed.
pub struct Layers {
    /// Name → (self time in ns, spans), over the measured segment:
    /// the stream if the workload has one, else the preload.
    by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Records and batches in the measured segment.
    pub records: u64,
    pub batches: u64,
    /// `(engine.refresh ns, gen.build ns)` of the first publish at or
    /// past 25/50/75/100% of all records replayed.
    pub at_marks: [(u64, u64); 4],
}

impl Layers {
    pub fn of(tracer: &Tracer, plan: &Plan) -> Self {
        let measured = !plan.stream.is_empty() as u64;
        let total = (plan.preload.len() + plan.stream.len()) as u64;
        let mut layers = Layers {
            by_name: BTreeMap::new(),
            records: 0,
            batches: 0,
            at_marks: [(0, 0); 4],
        };
        let mut seen = 0u64;
        let mut mark = 0;
        for root in assemble(tracer.snapshot()) {
            let attr = |key: &str| {
                let found = root.event.attrs.iter().find(|(k, _)| *k == key);
                found.map(|&(_, v)| v)
            };
            if root.event.name == "batch" {
                seen += attr("records").unwrap_or(0);
                while mark < 4 && seen * 4 >= total * (mark as u64 + 1) {
                    let of = |name: &str| {
                        let child = root.children.iter().find(|c| c.event.name == name);
                        child.map_or(0, |c| c.event.duration_ns())
                    };
                    layers.at_marks[mark] = (of("engine.refresh"), of("gen.build"));
                    mark += 1;
                }
                if attr("stream") != Some(measured) {
                    continue;
                }
                layers.records += attr("records").unwrap_or(0);
                layers.batches += 1;
            }
            layers.add(&root);
        }
        layers
    }

    fn add(&mut self, node: &TraceNode) {
        let slot = self.by_name.entry(node.event.name).or_default();
        slot.0 += node.self_ns;
        slot.1 += 1;
        for child in &node.children {
            self.add(child);
        }
    }

    /// Total self time of `name`, ns.
    pub fn ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |s| s.0 as f64)
    }

    /// Mean self time per span of `name`, ns (0 when there is none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(ns, spans)| ns as f64 / spans as f64)
    }

    /// Everything the ingest layers did for the measured segment, ns.
    pub fn ingest_ns(&self) -> f64 {
        [
            "batch",
            "frame.encode",
            "frame.decode",
            "wal.append",
            "wal.sync",
            "engine.ingest",
            "engine.candidates",
            "engine.score",
            "engine.union",
            "engine.refresh",
            "gen.build",
            "snapshot.write",
        ]
        .iter()
        .map(|n| self.ns(n))
        .sum()
    }
}
