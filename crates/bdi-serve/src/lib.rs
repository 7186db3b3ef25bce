//! # bdi-serve — the live integration service
//!
//! The tutorial's pipeline is a batch artifact: crawl, integrate, ship a
//! fused catalog. Real consumers of web-scale integration sit *between*
//! crawls — pages keep arriving while price-comparison queries keep
//! coming in. This crate turns the pipeline into a long-running daemon:
//!
//! * **Ingest path** — records flow through a bounded, backpressured
//!   queue into an [`engine::Engine`] wrapping the incremental linker;
//!   each arrival dirties a handful of clusters, fusion re-runs on those
//!   members only, and a fresh catalog generation is published
//!   atomically ([`gen::Swap`]).
//! * **Query path** — any number of reader threads resolve `lookup` /
//!   `filter` / `top_k` against the generation they loaded; a snapshot
//!   is an immutable `Arc`, so readers never observe a half-applied
//!   batch and never block the writer.
//! * **Wire protocol** — JSON lines over TCP ([`protocol`]): one request
//!   object per line, one response object per line. `nc` is a usable
//!   client. The same commands are reachable as binary frames
//!   ([`frame`]) and over HTTP/1.1; every wire decodes to one
//!   [`Request`] and runs through one request core, so the three can
//!   never diverge. The full reference lives in `docs/PROTOCOL.md`.
//! * **Durability** (optional, [`server::DurabilityConfig`]) — every
//!   record is appended to a write-ahead log ([`wal`]) before it is
//!   applied, fsync'd in batches; periodic on-disk checkpoints
//!   ([`snapshot`]) of the full engine state bound the replay tail, so
//!   a restart — graceful or `kill -9` — recovers the exact pre-crash
//!   state from one snapshot load plus the WAL tail.
//!
//! The load driver ([`load`]) replays a synthetic world as an ingest
//! stream while reader threads hammer lookups, reporting ingest
//! throughput and query latency percentiles — the serve-path analogue
//! of the crate's batch experiments.
//!
//! * **Observability** — every stage of the serve path records into a
//!   `bdi-obs` registry: per-command request latency and payload-size
//!   histograms, engine stage timings (candidate generation, scoring,
//!   union, refresh), WAL append/fsync latency and fsync batch sizes,
//!   snapshot write and recovery replay timings. The registry is
//!   readable three ways: the `metrics` wire command, a Prometheus
//!   text-exposition file rewritten atomically on an interval
//!   ([`server::ServerConfig::metrics_file`]), and `bdi stats
//!   --prometheus`. Requests slower than a threshold can be logged
//!   ([`server::ServerConfig::slow_ms`]).

// `deny`, not `forbid`: the raw-epoll shim (`nio::sys`) and the raw
// mmap shim behind the WAL (`mmap`) are the two carved-out
// `#![allow(unsafe_code)]` modules; everything else stays unsafe-free.
#![deny(unsafe_code)]

pub mod bridge;
pub mod client;
pub mod engine;
pub mod fleet;
pub mod frame;
pub mod gen;
pub(crate) mod http;
pub mod load;
pub(crate) mod mmap;
pub(crate) mod nio;
pub mod protocol;
pub mod replica;
pub(crate) mod request;
pub mod router;
pub mod server;
pub mod snapshot;
pub mod wal;

pub use bridge::BridgeIndex;
pub use client::{Client, HttpClient};
pub use engine::{Engine, EngineState};
pub use fleet::RoutingTable;
pub use gen::{Generation, ShardedIndex, Swap};
pub use load::{run_load, LoadConfig, LoadReport};
pub use nio::raise_nofile_limit;
pub use protocol::{
    MetricsBody, Request, Response, StatsBody, TraceBody, TraceTree, TraceTreeNode,
};
pub use router::{Router, RouterConfig};
pub use server::{DurabilityConfig, Server, ServerConfig};
pub use snapshot::Snapshot;
pub use wal::Wal;
