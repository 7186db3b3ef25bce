//! The wire protocol: JSON lines over TCP.
//!
//! One request object per line in, one response object per line out.
//! Requests use externally tagged JSON (unit variants are bare strings),
//! so a session from `nc` looks like:
//!
//! ```json
//! {"lookup": {"identifier": "CAM-LUM-01042"}}
//! {"top_k": {"attribute": "price", "k": 3}}
//! "stats"
//! ```

use crate::snapshot::Snapshot;
use bdi_core::catalog::CatalogEntry;
use bdi_obs::{HistogramSnapshot, RegistrySnapshot};
use bdi_types::Record;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The protocol generation this build speaks. Bumped to 2 with the
/// fleet commands (`hello`, `sync`, `restore`, `split`, `replace`);
/// `hello` lets a router verify the peer's version and feature set up
/// front instead of discovering a mismatch as an unknown-command error
/// mid-stream.
pub const PROTOCOL_VERSION: u32 = 2;

/// A client request.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Request {
    /// Resolve one product identifier (any published formatting).
    #[serde(rename = "lookup")]
    Lookup { identifier: String },
    /// Products whose fused numeric value for `attribute` lies in
    /// `[min, max]` (either bound optional); at most `limit` results.
    #[serde(rename = "filter")]
    Filter {
        attribute: String,
        min: Option<f64>,
        max: Option<f64>,
        limit: Option<usize>,
    },
    /// Top-k products by a numeric attribute, descending.
    #[serde(rename = "top_k")]
    TopK { attribute: String, k: usize },
    /// Submit one record to the ingest queue (blocks under backpressure).
    #[serde(rename = "ingest")]
    Ingest { record: Record },
    /// Submit many records in one length-framed request: the whole batch
    /// is enqueued in order and answered with a single `ack`, so
    /// per-record round trips and syscalls amortize across the batch.
    /// This is the command the router tier pipelines ingest over.
    #[serde(rename = "ingest_batch")]
    IngestBatch { records: Vec<Record> },
    /// Block until everything submitted so far is queryable.
    #[serde(rename = "flush")]
    Flush,
    /// Service counters.
    #[serde(rename = "stats")]
    Stats,
    /// The full metrics registry: counters, gauges, latency histograms.
    #[serde(rename = "metrics")]
    Metrics,
    /// Stop accepting connections and drain.
    #[serde(rename = "shutdown")]
    Shutdown,
    /// Version / feature handshake: answered with [`Response::Hello`]
    /// by every build that speaks protocol version ≥ 2; older builds
    /// answer with an `error`, which a caller must treat as a mismatch.
    #[serde(rename = "hello")]
    Hello,
    /// Stream this backend's state from absolute position `from`
    /// onward: a snapshot + WAL-tail pair sufficient to rebuild a peer
    /// (answered with [`Response::SyncState`]). Backend-only — the WAL
    /// shipping half of node replacement and shard splits.
    #[serde(rename = "sync")]
    Sync { from: u64 },
    /// Install shipped state: replace this backend's engine with
    /// `snapshot` (or a fresh engine when `None`), replay `tail` on
    /// top, and adopt `position` as the applied record count. Backend-
    /// only; answered with [`Response::Restored`].
    #[serde(rename = "restore")]
    Restore {
        snapshot: Option<Snapshot>,
        tail: Vec<Record>,
        position: u64,
    },
    /// Split `shard`'s hash range onto new backends at `addrs` (one per
    /// replica), moving half of its keyspace with no dropped or
    /// double-applied records. Router-only; answered with
    /// [`Response::SplitDone`].
    #[serde(rename = "split")]
    Split { shard: usize, addrs: Vec<String> },
    /// Replace replica `replica` of `shard` with a fresh backend at
    /// `addr`, bootstrapped from a live peer via `sync`. Router-only;
    /// answered with [`Response::Replaced`].
    #[serde(rename = "replace")]
    Replace {
        shard: usize,
        replica: usize,
        addr: String,
    },
    /// Read the flight recorder: with `id`, every span of that trace
    /// still in the ring (a router merges its own spans with the
    /// fleet's); with `id` absent, the most recently retained trace ids
    /// (at most `recent`, default 16). Answered with
    /// [`Response::Trace`].
    #[serde(rename = "trace")]
    Trace {
        id: Option<u64>,
        recent: Option<usize>,
    },
}

impl Request {
    /// The command's wire name — the label per-command metrics are
    /// recorded under (`serve.request.<kind>.latency_ns`).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Lookup { .. } => "lookup",
            Request::Filter { .. } => "filter",
            Request::TopK { .. } => "top_k",
            Request::Ingest { .. } => "ingest",
            Request::IngestBatch { .. } => "ingest_batch",
            Request::Flush => "flush",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
            Request::Hello => "hello",
            Request::Sync { .. } => "sync",
            Request::Restore { .. } => "restore",
            Request::Split { .. } => "split",
            Request::Replace { .. } => "replace",
            Request::Trace { .. } => "trace",
        }
    }
}

/// The optional trace envelope a JSON-lines request can arrive in:
/// `{"traced": {"id": …, "parent": …}, "request": <request>}`. A bare
/// request line stays exactly as before — the envelope is detected by
/// its leading `{"traced"` key (see the front ends), so untraced
/// traffic pays nothing. The key is `traced`, not `trace`, because
/// `{"trace": …}` is already the serialized [`Request::Trace`]
/// command. Senders only use the envelope once the peer's `hello`
/// advertised the `trace-context` feature.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TracedRequest {
    /// The trace context the server's spans should parent under.
    #[serde(rename = "traced")]
    pub trace: TraceWire,
    /// The wrapped request.
    pub request: Request,
}

/// Wire shape of a trace context: the trace id plus the caller's span
/// id (`0` = the server's request span becomes a root).
#[derive(Clone, Copy, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct TraceWire {
    /// Trace id (nonzero for a live trace).
    pub id: u64,
    /// Parent span id, 0 for none.
    pub parent: u64,
}

impl TraceWire {
    /// Convert to the `bdi-obs` context type.
    pub fn ctx(self) -> bdi_obs::TraceContext {
        bdi_obs::TraceContext {
            trace: self.id,
            parent: self.parent,
        }
    }
}

/// A server response.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Response {
    /// Lookup result (with the generation it was read from).
    #[serde(rename = "entry")]
    Entry {
        generation: u64,
        entry: Option<CatalogEntry>,
    },
    /// Filter / top-k results.
    #[serde(rename = "entries")]
    Entries {
        generation: u64,
        entries: Vec<CatalogEntry>,
    },
    /// Ingest accepted into the queue.
    #[serde(rename = "ack")]
    Ack { submitted: u64 },
    /// Flush completed: all `applied` records are queryable.
    #[serde(rename = "flushed")]
    Flushed { generation: u64, applied: u64 },
    /// Service counters.
    #[serde(rename = "stats")]
    Stats(StatsBody),
    /// The full metrics registry.
    #[serde(rename = "metrics")]
    Metrics(MetricsBody),
    /// Request failed.
    #[serde(rename = "error")]
    Error { message: String },
    /// Shutdown acknowledged.
    #[serde(rename = "bye")]
    Bye,
    /// Handshake reply: the peer's protocol version and the wire
    /// features it supports (e.g. `ingest_batch`, `sync`).
    #[serde(rename = "hello")]
    Hello { version: u32, features: Vec<String> },
    /// Shipped state: everything needed to rebuild this backend from
    /// `position` — a full snapshot when the requested `from` predates
    /// the WAL (or the backend is in-memory), else just the WAL tail.
    #[serde(rename = "sync_state")]
    SyncState {
        /// Applied record count the shipped state reaches.
        position: u64,
        /// Full engine snapshot (`None` for a tail-only delta).
        snapshot: Option<Snapshot>,
        /// Records past the snapshot (or past `from`), in apply order.
        tail: Vec<Record>,
    },
    /// Restore installed and published.
    #[serde(rename = "restored")]
    Restored { generation: u64, records: u64 },
    /// Split finished: `new_shard` serves half of `shard`'s former
    /// range; `moved` records were replayed onto it.
    #[serde(rename = "split_done")]
    SplitDone {
        shard: usize,
        new_shard: usize,
        moved: u64,
    },
    /// Replica replaced: the new backend was synced to `synced` records
    /// and swapped into the replica set.
    #[serde(rename = "replaced")]
    Replaced {
        shard: usize,
        replica: usize,
        synced: u64,
    },
    /// Flight-recorder read: the spans of one trace, or the recent
    /// retained trace ids.
    #[serde(rename = "trace")]
    Trace(TraceBody),
}

/// Body of [`Response::Trace`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TraceBody {
    /// Every span of the requested trace still in the flight recorder
    /// (flat — the caller reassembles the tree; span ids are unique so
    /// spans merged from several fleet nodes coexist).
    pub spans: Vec<SpanBody>,
    /// Most recently retained trace ids, newest first (the `recent`
    /// query shape; empty on an `id` query).
    pub recent: Vec<u64>,
}

/// One span event on the wire.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpanBody {
    /// Trace id.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Stage name, e.g. `"serve.request"`.
    pub name: String,
    /// Start, nanoseconds since the recording process's tracer epoch —
    /// only durations are comparable across processes.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Command kind (`""` when not a request span).
    pub cmd: String,
    /// Small numeric attributes (`shard`, `records`, …).
    pub attrs: BTreeMap<String, u64>,
}

impl From<bdi_obs::SpanEvent> for SpanBody {
    fn from(e: bdi_obs::SpanEvent) -> Self {
        SpanBody {
            trace: e.trace,
            span: e.span,
            parent: e.parent,
            name: e.name.to_owned(),
            start_ns: e.start_ns,
            end_ns: e.end_ns,
            cmd: e.cmd.to_owned(),
            attrs: e.attrs.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
        }
    }
}

impl SpanBody {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An assembled span tree, the `GET /trace/:id` response body (and
/// what `bdi admin --trace` renders). The wire `trace` command returns
/// flat spans; this is the reassembled view with per-node self-times.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceTree {
    /// The trace id the tree belongs to.
    pub id: u64,
    /// Root spans (normally one; orphaned spans whose parent aged out
    /// of the ring surface as extra roots), ordered by start time.
    pub roots: Vec<TraceTreeNode>,
}

/// One node of a [`TraceTree`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceTreeNode {
    /// The span itself.
    pub span: SpanBody,
    /// Span duration minus the summed durations of direct children —
    /// time this stage spent itself (clamped at zero: child wall time
    /// can exceed the parent's when stages overlap across threads).
    pub self_ns: u64,
    /// Child spans, ordered by start time.
    pub children: Vec<TraceTreeNode>,
}

impl TraceTree {
    /// Reassemble flat wire spans into the tree, mirroring
    /// [`bdi_obs::assemble`]: children attach to a present parent,
    /// anything else roots, siblings sort by start time.
    pub fn from_spans(id: u64, mut spans: Vec<SpanBody>) -> Self {
        use std::collections::{HashMap, HashSet};
        spans.sort_by_key(|s| (s.start_ns, s.span));
        let present: HashSet<u64> = spans.iter().map(|s| s.span).collect();
        let mut children: HashMap<u64, Vec<SpanBody>> = HashMap::new();
        let mut roots: Vec<SpanBody> = Vec::new();
        for s in spans {
            if s.parent != 0 && present.contains(&s.parent) && s.parent != s.span {
                children.entry(s.parent).or_default().push(s);
            } else {
                roots.push(s);
            }
        }
        fn build(
            span: SpanBody,
            children: &mut std::collections::HashMap<u64, Vec<SpanBody>>,
        ) -> TraceTreeNode {
            let kids = children.remove(&span.span).unwrap_or_default();
            let kids: Vec<TraceTreeNode> = kids.into_iter().map(|c| build(c, children)).collect();
            let child_ns: u64 = kids.iter().map(|c| c.span.duration_ns()).sum();
            TraceTreeNode {
                self_ns: span.duration_ns().saturating_sub(child_ns),
                span,
                children: kids,
            }
        }
        TraceTree {
            id,
            roots: roots.into_iter().map(|r| build(r, &mut children)).collect(),
        }
    }
}

/// Counters reported by [`Response::Stats`].
///
/// The `wal_*` and `snapshot_*` fields describe the durability subsystem
/// and are all zero when the server runs in-memory (`durable: false`).
/// Positions are absolute ingest sequence numbers — a count of records
/// ever applied — not file offsets.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StatsBody {
    /// Published generation number.
    pub generation: u64,
    /// Integrated products in that generation.
    pub products: usize,
    /// Records integrated into that generation.
    pub records: usize,
    /// Records accepted into the queue so far.
    pub submitted: u64,
    /// Records applied (linked + fused + published) so far.
    pub applied: u64,
    /// Records that failed to apply (the handler caught a panic on the
    /// ingest path); counted into `applied` so `flush` still terminates.
    pub rejected: u64,
    /// Pairwise candidate comparisons the linker has performed, as of
    /// the published generation — `comparisons / applied` is the
    /// per-insert comparison cost the blocking index is holding down.
    pub comparisons: u64,
    /// Identifier-index shards per generation.
    pub shards: usize,
    /// True when a write-ahead log backs the ingest path.
    pub durable: bool,
    /// Position one past the last record appended to the WAL.
    pub wal_position: u64,
    /// Position through which the WAL is known fsync'd — records below
    /// this survive any crash.
    pub wal_synced: u64,
    /// WAL entries past the last snapshot (the replay tail a restart
    /// would pay for right now).
    pub wal_tail: u64,
    /// Position covered by the last on-disk snapshot.
    pub snapshot_records: u64,
    /// Generation number the last snapshot was captured at.
    pub snapshot_generation: u64,
    /// Per-command latency summary (command kind → count/p50/p99 in
    /// microseconds), pulled from the same histograms `metrics`
    /// exposes in full — a quick look without scraping Prometheus
    /// text. `None` from peers predating the field (it decodes from
    /// a missing key); a router reply carries the worst (max) p50/p99
    /// across shards with counts summed.
    pub latency: Option<BTreeMap<String, CommandLatency>>,
}

/// One command's latency summary inside [`StatsBody::latency`].
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct CommandLatency {
    /// Requests measured.
    pub count: u64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
}

/// The full metrics registry reported by [`Response::Metrics`] — the
/// wire mirror of [`bdi_obs::RegistrySnapshot`]. Metric names follow
/// the dotted convention documented in `bdi-obs` (all latency
/// histograms record nanoseconds).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MetricsBody {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram name → sparse histogram state.
    pub histograms: BTreeMap<String, HistogramBody>,
}

/// One latency histogram on the wire: the sparse non-empty buckets of
/// the `bdi-obs` log-linear layout (see its crate docs for the bucket
/// math — both ends of the wire share the layout constants).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct HistogramBody {
    /// Non-empty buckets as `(bucket index, count)` pairs, ascending.
    pub buckets: Vec<(usize, u64)>,
    /// Total recorded values (the sum of the bucket counts — exact).
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl From<RegistrySnapshot> for MetricsBody {
    fn from(snapshot: RegistrySnapshot) -> Self {
        Self {
            counters: snapshot.counters,
            gauges: snapshot.gauges,
            histograms: snapshot
                .histograms
                .into_iter()
                .map(|(name, h)| {
                    (
                        name,
                        HistogramBody {
                            buckets: h.buckets,
                            count: h.count,
                            sum: h.sum,
                            max: h.max,
                        },
                    )
                })
                .collect(),
        }
    }
}

impl MetricsBody {
    /// Rebuild the registry snapshot this body mirrors (the client-side
    /// decode path behind `bdi stats --prometheus` and the load
    /// driver's server-side percentiles). Returns `None` when a
    /// histogram's sparse buckets are malformed — an out-of-range
    /// index, a zero count, or a non-ascending index list.
    pub fn to_snapshot(&self) -> Option<RegistrySnapshot> {
        let mut histograms = BTreeMap::new();
        for (name, h) in &self.histograms {
            let snap = HistogramSnapshot::from_parts(h.buckets.clone(), h.sum, h.max)?;
            if snap.count != h.count {
                return None;
            }
            histograms.insert(name.clone(), snap);
        }
        Some(RegistrySnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms,
        })
    }

    /// Quantile of a named histogram, in nanoseconds (`None` when the
    /// histogram is absent or empty).
    pub fn quantile_ns(&self, histogram: &str, q: f64) -> Option<u64> {
        let h = self.histograms.get(histogram)?;
        let snap = HistogramSnapshot::from_parts(h.buckets.clone(), h.sum, h.max)?;
        if snap.count == 0 {
            return None;
        }
        Some(snap.quantile(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdi_types::{RecordId, SourceId};

    #[test]
    fn request_json_round_trips() {
        let reqs = vec![
            Request::Lookup {
                identifier: "CAM-LUM-01042".into(),
            },
            Request::Filter {
                attribute: "price".into(),
                min: Some(1.0),
                max: None,
                limit: Some(5),
            },
            Request::TopK {
                attribute: "weight".into(),
                k: 3,
            },
            Request::Flush,
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::Hello,
            Request::Sync { from: 42 },
            Request::Split {
                shard: 1,
                addrs: vec!["127.0.0.1:7100".into()],
            },
            Request::Replace {
                shard: 0,
                replica: 1,
                addr: "127.0.0.1:7101".into(),
            },
            Request::Trace {
                id: Some(0xABCD),
                recent: None,
            },
            Request::Trace {
                id: None,
                recent: Some(8),
            },
        ];
        for r in reqs {
            let line = serde_json::to_string(&r).unwrap();
            assert!(!line.contains('\n'), "one request per line");
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                line,
                "round trip stable"
            );
        }
    }

    #[test]
    fn ingest_carries_a_full_record() {
        let mut rec = Record::new(RecordId::new(SourceId(3), 7), "Lumetra LX-100");
        rec.identifiers.push("CAM-LUM-00100".into());
        let line = serde_json::to_string(&Request::Ingest { record: rec }).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        let Request::Ingest { record } = back else {
            panic!("wrong variant")
        };
        assert_eq!(record.id, RecordId::new(SourceId(3), 7));
        assert_eq!(record.primary_identifier(), Some("CAM-LUM-00100"));
    }

    #[test]
    fn ingest_batch_carries_records_in_order() {
        let records: Vec<Record> = (0..3u32)
            .map(|i| {
                let mut r = Record::new(RecordId::new(SourceId(i), 0), format!("Gadget{i}"));
                r.identifiers.push(format!("XXX-YYY-{i:05}"));
                r
            })
            .collect();
        let line = serde_json::to_string(&Request::IngestBatch {
            records: records.clone(),
        })
        .unwrap();
        assert!(!line.contains('\n'), "one batch per line");
        let back: Request = serde_json::from_str(&line).unwrap();
        let Request::IngestBatch { records: got } = back else {
            panic!("wrong variant")
        };
        assert_eq!(got.len(), 3);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.id, records[i].id, "batch order preserved");
        }
    }

    #[test]
    fn metrics_body_round_trips_and_rebuilds_the_snapshot() {
        let registry = bdi_obs::Registry::new();
        registry.counter("serve.ingest.submitted").add(12);
        registry.gauge("serve.catalog.generation").set(3);
        let h = registry.histogram("serve.request.lookup.latency_ns");
        for v in [800u64, 950, 52_000, 1_000_000] {
            h.record(v);
        }
        let original = registry.snapshot();

        let body = MetricsBody::from(original.clone());
        let line = serde_json::to_string(&Response::Metrics(body)).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        let Response::Metrics(body) = back else {
            panic!("wrong variant")
        };
        assert_eq!(body.counters["serve.ingest.submitted"], 12);
        assert_eq!(
            body.to_snapshot().expect("wire body is well-formed"),
            original,
            "registry snapshot survives the wire round trip exactly"
        );
        let p99 = body
            .quantile_ns("serve.request.lookup.latency_ns", 0.99)
            .unwrap();
        let (lo, hi) = bdi_obs::bucket_bounds(bdi_obs::bucket_index(1_000_000));
        assert!(
            (lo..hi).contains(&p99),
            "p99 lands in the bucket holding 1_000_000, got {p99}"
        );
    }

    #[test]
    fn malformed_histogram_body_is_rejected() {
        let mut body = MetricsBody::default();
        body.histograms.insert(
            "h".into(),
            HistogramBody {
                buckets: vec![(3, 1), (2, 1)], // not ascending
                count: 2,
                sum: 10,
                max: 8,
            },
        );
        assert!(body.to_snapshot().is_none());
    }

    #[test]
    fn sync_state_round_trips_with_and_without_a_snapshot() {
        let mut engine = crate::engine::Engine::new(0.9);
        let mut r = Record::new(RecordId::new(SourceId(0), 0), "Lumetra LX-100");
        r.identifiers.push("CAM-LUM-00100".into());
        engine.ingest(r.clone());
        let snap = Snapshot::capture(&engine, 1);

        for resp in [
            Response::SyncState {
                position: 1,
                snapshot: Some(snap.clone()),
                tail: vec![],
            },
            Response::SyncState {
                position: 2,
                snapshot: None,
                tail: vec![r.clone()],
            },
        ] {
            let line = serde_json::to_string(&resp).unwrap();
            assert!(!line.contains('\n'), "one response per line");
            let back: Response = serde_json::from_str(&line).unwrap();
            let Response::SyncState {
                position,
                snapshot,
                tail,
            } = back
            else {
                panic!("wrong variant")
            };
            match snapshot {
                Some(s) => {
                    assert_eq!(position, 1);
                    assert_eq!(s.records, 1);
                    assert!(tail.is_empty());
                }
                None => {
                    assert_eq!(position, 2);
                    assert_eq!(tail.len(), 1);
                    assert_eq!(tail[0].id, r.id);
                }
            }
        }

        let line = serde_json::to_string(&Request::Restore {
            snapshot: Some(snap),
            tail: vec![r],
            position: 2,
        })
        .unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        let Request::Restore { position: 2, .. } = back else {
            panic!("wrong variant")
        };
    }

    #[test]
    fn trace_envelope_and_body_round_trip() {
        // the envelope wraps any request without touching its shape;
        // senders splice the line with the `traced` key first (serde's
        // own field order is not guaranteed), which is what the front
        // ends' starts_with detection keys on
        let inner = serde_json::to_string(&Request::Flush).unwrap();
        let line = format!(r#"{{"traced":{{"id":7,"parent":3}},"request":{inner}}}"#);
        assert!(
            line.starts_with(r#"{"traced""#),
            "envelope is detectable by its leading key: {line}"
        );
        let back: TracedRequest = serde_json::from_str(&line).unwrap();
        assert_eq!(back.trace, TraceWire { id: 7, parent: 3 });
        assert!(matches!(back.request, Request::Flush));

        let mut attrs = BTreeMap::new();
        attrs.insert("records".to_owned(), 64u64);
        let resp = Response::Trace(TraceBody {
            spans: vec![SpanBody {
                trace: 7,
                span: 9,
                parent: 3,
                name: "serve.request".into(),
                start_ns: 100,
                end_ns: 350,
                cmd: "ingest_batch".into(),
                attrs,
            }],
            recent: vec![7, 5],
        });
        let line = serde_json::to_string(&resp).unwrap();
        let Response::Trace(body) = serde_json::from_str(&line).unwrap() else {
            panic!("wrong variant")
        };
        assert_eq!(body.spans.len(), 1);
        assert_eq!(body.spans[0].duration_ns(), 250);
        assert_eq!(body.spans[0].attrs["records"], 64);
        assert_eq!(body.recent, vec![7, 5]);
    }

    #[test]
    fn stats_without_latency_key_still_decodes() {
        // a peer predating the latency summary omits the key entirely
        let old = r#"{"stats": {"generation": 3, "products": 1, "records": 2,
            "submitted": 2, "applied": 2, "rejected": 0, "comparisons": 5,
            "shards": 8, "durable": false, "wal_position": 0, "wal_synced": 0,
            "wal_tail": 0, "snapshot_records": 0, "snapshot_generation": 0}}"#;
        let Response::Stats(body) = serde_json::from_str(old).unwrap() else {
            panic!("wrong variant")
        };
        assert_eq!(body.generation, 3);
        assert!(body.latency.is_none(), "missing key decodes to None");
    }

    #[test]
    fn the_nc_example_parses() {
        let r: Request =
            serde_json::from_str(r#"{"lookup": {"identifier": "CAM-LUM-01042"}}"#).unwrap();
        assert!(matches!(r, Request::Lookup { .. }));
        let r: Request =
            serde_json::from_str(r#"{"top_k": {"attribute": "price", "k": 3}}"#).unwrap();
        assert!(matches!(r, Request::TopK { k: 3, .. }));
    }
}
