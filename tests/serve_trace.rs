//! Distributed request tracing: one traced client request against a
//! sharded fleet must reassemble into a single span tree covering every
//! hop — gateway, router partition/lane, backend dispatch, engine
//! stages, WAL — with correct parent links, on both wire formats.
//!
//! Five pins:
//!
//! 1. **HTTP ingest through a 2-shard router**: the `X-Bdi-Trace`
//!    header forces a trace; `GET /trace/:id` (router-merged) holds one
//!    tree whose hop spans parent-link gateway → router request → lane
//!    → backend request → engine/WAL, with both shards represented; a
//!    traced lookup through the same router records `backend.query`.
//! 2. **Slow exemplars survive sampling**: at 1-in-N sampling with a
//!    huge N, `--slow-ms` still retains a full trace of each slow
//!    request.
//! 3. **Wire equivalence**: the same traced batch over binary frames
//!    and over JSON lines records identical span-name multisets.
//! 4. **One tree shape on every wire**: an HTTP request to a bare
//!    backend records `http.request → serve.request`, the same
//!    `serve.request` span a JSON line or binary frame gets. A pooled
//!    command's request span has a `queue.wait` child; a traced JSON
//!    `lookup`, which the backend's readiness loop runs itself, still
//!    records `serve.request` but waited for nothing and has none.
//! 5. **Old peers**: a client that never negotiated `trace-context`
//!    sends byte-identical pre-flag frames (flags byte 0) and its
//!    requests leave no retained trace.

use bdi::serve::{
    Client, DurabilityConfig, HttpClient, Request, Router, RouterConfig, Server, ServerConfig,
    TraceTree, TraceTreeNode,
};
use bdi::types::{Record, RecordId, SourceId};
use std::path::PathBuf;

fn rec(source: u32, seq: u32, title: &str, identifier: &str) -> Record {
    let mut r = Record::new(RecordId::new(SourceId(source), seq), title);
    r.identifiers.push(identifier.to_string());
    r
}

/// Flatten a tree into `(name, span, parent, shard-attr)` rows.
fn flatten(tree: &TraceTree) -> Vec<(String, u64, u64, Option<u64>)> {
    fn walk(node: &TraceTreeNode, out: &mut Vec<(String, u64, u64, Option<u64>)>) {
        out.push((
            node.span.name.clone(),
            node.span.span,
            node.span.parent,
            node.span.attrs.get("shard").copied(),
        ));
        for c in &node.children {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    for r in &tree.roots {
        walk(r, &mut out);
    }
    out
}

fn names_of(tree: &TraceTree) -> Vec<String> {
    let mut names: Vec<String> = flatten(tree).into_iter().map(|(n, ..)| n).collect();
    names.sort();
    names
}

/// One traced HTTP ingest against a 2-shard fleet: the router merges
/// its backends' spans into one tree rooted at the gateway span, every
/// hop present and parent-linked, both shards visited.
#[test]
fn traced_http_ingest_reassembles_one_tree_across_the_fleet() {
    let dirs: Vec<PathBuf> = (0..2)
        .map(|i| {
            let d =
                std::env::temp_dir().join(format!("bdi-serve-trace-{}-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            d
        })
        .collect();
    let backends: Vec<Server> = dirs
        .iter()
        .map(|d| {
            Server::start(ServerConfig {
                durability: Some(DurabilityConfig {
                    data_dir: d.clone(),
                    sync_every: 8,
                    snapshot_every: 4096,
                }),
                ..ServerConfig::default()
            })
            .expect("backend binds")
        })
        .collect();
    let router = Router::start(RouterConfig {
        backends: backends.iter().map(|s| s.addr().to_string()).collect(),
        ..RouterConfig::default()
    })
    .expect("router binds");

    let trace_id = 0x00000000deadbeefu64;
    let records: Vec<Record> = (0..16)
        .map(|i| rec(i, 0, &format!("Product {i}"), &format!("TRACE-ID-{i:04}")))
        .collect();
    let n = records.len();

    let mut http = HttpClient::connect(router.addr()).expect("gateway connects");
    http.set_trace_header(Some(format!("{trace_id:016x}")));
    http.ingest_batch(&records).expect("traced ingest acks");
    assert_eq!(
        http.last_trace(),
        Some(trace_id),
        "response advertises the trace id back"
    );
    http.set_trace_header(None);
    http.flush().expect("flush settles the fleet");

    let tree = http.trace(trace_id).expect("GET /trace/:id");
    assert_eq!(tree.roots.len(), 1, "one tree: {tree:?}");
    let root = &tree.roots[0];
    assert_eq!(root.span.name, "http.request", "gateway is the root hop");
    assert_eq!(root.span.cmd, "ingest", "root labeled with the command");

    let spans = flatten(&tree);
    let count = |name: &str| spans.iter().filter(|(n, ..)| n == name).count();
    let by_name = |name: &str| -> Vec<&(String, u64, u64, Option<u64>)> {
        spans.iter().filter(|(n, ..)| n == name).collect()
    };

    // router hop: the request span every wire gets, under the gateway,
    // and one partition decision per record under it
    let routes = by_name("route.request");
    assert_eq!(routes.len(), 1, "one router request span");
    let (_, route_id, route_parent, _) = routes[0];
    assert_eq!(
        *route_parent, root.span.span,
        "request hangs off the gateway"
    );
    assert_eq!(count("route.partition"), n);
    for (_, _, parent, _) in by_name("route.partition") {
        assert_eq!(parent, route_id, "partition hangs off the router request");
    }
    // per-item lane wait + per-send lane batch, both shards visited
    assert_eq!(count("lane.queue"), n);
    let lane_batches = by_name("lane.batch");
    assert!(!lane_batches.is_empty(), "lane sends were traced");
    let shards: std::collections::BTreeSet<u64> =
        lane_batches.iter().filter_map(|(.., s)| *s).collect();
    assert_eq!(shards.len(), 2, "both shards ingested under this trace");

    // backend hop: one dispatch per lane send, parented on it
    let lane_ids: std::collections::BTreeSet<u64> =
        lane_batches.iter().map(|(_, span, ..)| *span).collect();
    let serves = by_name("serve.request");
    assert_eq!(serves.len(), lane_batches.len());
    for (_, _, parent, _) in &serves {
        assert!(
            lane_ids.contains(parent),
            "backend dispatch parents on a lane.batch span"
        );
    }

    // engine hop: each lane send applies as one transactional batch
    // cycle — an `engine.batch` span under the dispatch grouping one
    // `engine.insert` (with three stage children) per record
    let serve_ids: std::collections::BTreeSet<u64> =
        serves.iter().map(|(_, span, ..)| *span).collect();
    let batches = by_name("engine.batch");
    assert_eq!(batches.len(), serves.len(), "one batch apply per dispatch");
    for (_, _, parent, _) in &batches {
        assert!(serve_ids.contains(parent), "batch parents on the dispatch");
    }
    let batch_ids: std::collections::BTreeSet<u64> =
        batches.iter().map(|(_, span, ..)| *span).collect();
    let inserts = by_name("engine.insert");
    assert_eq!(inserts.len(), n);
    for (_, _, parent, _) in &inserts {
        assert!(batch_ids.contains(parent), "insert nests in its batch");
    }
    let insert_ids: std::collections::BTreeSet<u64> =
        inserts.iter().map(|(_, span, ..)| *span).collect();
    for stage in ["engine.candidates", "engine.score", "engine.fuse"] {
        assert_eq!(count(stage), n, "{stage} once per insert");
        for (_, _, parent, _) in by_name(stage) {
            assert!(insert_ids.contains(parent), "{stage} nests in its insert");
        }
    }

    // durability hop: one group append per batch cycle, at least one
    // group fsync; one publish per cycle (the batch's deferred publish)
    assert_eq!(count("wal.append"), serves.len(), "group append per batch");
    for (_, _, parent, _) in by_name("wal.append") {
        assert!(serve_ids.contains(parent), "append parents on the dispatch");
    }
    assert!(count("wal.fsync") >= 1, "group commit fsync was traced");
    assert_eq!(count("publish"), serves.len(), "one publish per batch");

    // a traced routed read records its scatter round trip
    let lookup_id = 0x00000000feedf00du64;
    http.set_trace_header(Some(format!("{lookup_id:016x}")));
    let entry = http.lookup("TRACE-ID-0003").expect("traced lookup");
    http.set_trace_header(None);
    assert!(entry.is_some(), "the ingested record resolves");
    let names = names_of(&http.trace(lookup_id).expect("GET /trace/:id"));
    assert!(
        names.iter().any(|n| n == "http.request") && names.iter().any(|n| n == "backend.query"),
        "routed lookup tree: {names:?}"
    );

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// `--slow-ms` keeps a full exemplar trace of slow requests even when
/// head sampling would almost never pick them.
#[test]
fn slow_requests_are_retained_despite_sparse_sampling() {
    let server = Server::start(ServerConfig {
        trace_sample: 1_000_000, // samples only the very first request
        slow_ms: Some(0),        // ...but everything counts as slow
        ..ServerConfig::default()
    })
    .expect("server binds");
    let mut client = Client::connect(server.addr()).expect("connects");
    // burn the sampled 1-in-N slot on the handshake
    client.hello().expect("hello");
    for i in 0..3 {
        client
            .ingest(rec(9, i, &format!("Slow {i}"), &format!("SLOW-{i}")))
            .expect("ingest acks");
    }
    client.flush().expect("flush");

    let recent = client.trace_recent(16).expect("recent ids");
    assert!(
        recent.len() >= 3,
        "slow exemplars retained beyond the sampled slot, got {recent:?}"
    );
    let body = client.trace(recent[0]).expect("trace fetch");
    assert!(
        body.spans.iter().any(|s| s.name == "serve.request"),
        "retained exemplar holds the request span: {body:?}"
    );
    server.shutdown();
}

/// The same traced batch over binary frames and JSON lines must record
/// the identical span-name multiset — framing is transport, not
/// semantics.
#[test]
fn binary_and_json_wires_record_identical_span_trees() {
    let run = |binary: bool, trace_id: u64| -> Vec<String> {
        let server = Server::start(ServerConfig::default()).expect("server binds");
        let mut client = Client::connect(server.addr()).expect("connects");
        if binary {
            assert!(client.negotiate_binary().expect("hello"), "binary granted");
        } else {
            assert!(client.negotiate_trace().expect("hello"), "trace advertised");
        }
        let records: Vec<Record> = (0..4)
            .map(|i| rec(3, i, &format!("Wire {i}"), &format!("WIRE-{i}")))
            .collect();
        let ctx = bdi::obs::TraceContext {
            trace: trace_id,
            parent: 0,
        };
        match client
            .call_traced(&Request::IngestBatch { records }, ctx)
            .expect("traced ingest")
        {
            bdi::serve::Response::Ack { .. } => {}
            other => panic!("unexpected response: {other:?}"),
        }
        client.flush().expect("flush");
        let body = client.trace(trace_id).expect("trace fetch");
        assert!(!body.spans.is_empty(), "trace recorded");
        names_of(&TraceTree::from_spans(trace_id, body.spans))
    };
    let binary = run(true, 0x1111);
    let json = run(false, 0x2222);
    assert_eq!(binary, json, "wire format changed the recorded tree");
    assert!(
        binary.iter().any(|n| n == "serve.request") && binary.iter().any(|n| n == "engine.insert"),
        "tree covers dispatch and engine stages: {binary:?}"
    );
}

/// HTTP is a codec in front of the same request core: the gateway span
/// parents the backend's ordinary request span instead of replacing it.
#[test]
fn http_gateway_span_parents_the_backend_request_span() {
    let server = Server::start(ServerConfig::default()).expect("server binds");
    let trace_id = 0xabcdu64;
    let mut http = HttpClient::connect(server.addr()).expect("gateway connects");
    http.set_trace_header(Some(format!("{trace_id:016x}")));
    http.ingest(&rec(5, 0, "Gateway", "GATE-0"))
        .expect("traced ingest acks");
    http.set_trace_header(None);
    http.flush().expect("flush");

    let tree = http.trace(trace_id).expect("GET /trace/:id");
    assert_eq!(tree.roots.len(), 1, "one tree: {tree:?}");
    let root = &tree.roots[0];
    assert_eq!(root.span.name, "http.request");
    let requests: Vec<&TraceTreeNode> = root
        .children
        .iter()
        .filter(|c| c.span.name == "serve.request")
        .collect();
    assert_eq!(requests.len(), 1, "gateway parents one request span");
    assert_eq!(requests[0].span.cmd, "ingest");
    assert!(
        requests[0]
            .children
            .iter()
            .any(|c| c.span.name == "queue.wait"),
        "a pooled ingest waited for a worker: {tree:?}"
    );
    assert!(
        names_of(&tree).iter().any(|n| n == "engine.insert"),
        "engine stages hang below the request span"
    );

    // a lookup runs on the readiness loop: same request span, no wait
    let lookup_id = 0xbeefu64;
    let mut client = Client::connect(server.addr()).expect("connects");
    assert!(client.negotiate_trace().expect("hello"), "trace advertised");
    let ctx = bdi::obs::TraceContext {
        trace: lookup_id,
        parent: 0,
    };
    let request = Request::Lookup {
        identifier: "GATE-0".into(),
    };
    match client.call_traced(&request, ctx).expect("traced lookup") {
        bdi::serve::Response::Entry { entry: Some(_), .. } => {}
        other => panic!("unexpected response: {other:?}"),
    }
    let spans = client.trace(lookup_id).expect("trace fetch").spans;
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["serve.request"], "inline lookup tree: {spans:?}");
    assert_eq!(spans[0].cmd, "lookup");
    drop(client);
    server.shutdown();
}

/// Peers that never negotiated `trace-context` stay byte-compatible:
/// their frames carry a zero flags byte and their requests are simply
/// untraced.
#[test]
fn unnegotiated_peers_send_preflag_frames_and_stay_untraced() {
    // frame-level: no trace context ⇒ flags byte (offset 3) is zero,
    // byte-identical to the pre-flag format
    let mut buf = Vec::new();
    assert!(bdi::serve::frame::encode_request(&mut buf, &Request::Flush));
    assert_eq!(buf[3], 0, "unflagged frame keeps the reserved byte zero");

    // wire-level: a client that skipped negotiation degrades
    // call_traced to a plain call — the server acks and retains nothing
    let server = Server::start(ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(server.addr()).expect("connects");
    assert!(!client.supports_trace(), "no hello ⇒ no trace feature");
    let ctx = bdi::obs::TraceContext {
        trace: 0xfeed,
        parent: 0,
    };
    match client
        .call_traced(
            &Request::IngestBatch {
                records: vec![rec(1, 1, "Old peer", "OLD-1")],
            },
            ctx,
        )
        .expect("request still round-trips")
    {
        bdi::serve::Response::Ack { .. } => {}
        other => panic!("unexpected response: {other:?}"),
    }
    client.flush().expect("flush");
    let body = client.trace(0xfeed).expect("trace query answers");
    assert!(
        body.spans.is_empty(),
        "dropped context leaves no trace: {body:?}"
    );
    server.shutdown();
}
