//! Sharded serving: a router over N backends must cluster exactly like
//! one node fed the same record stream — including pairs whose link
//! evidence spans a shard boundary — and a dead backend must surface as
//! a clean per-shard error, never a router hang.
//!
//! The equivalence argument (see `bdi-serve/src/bridge.rs`): shard
//! engines run the same blocking + matching rules over subsets of the
//! stream, so replication can never *create* links; and the bridge
//! index replicates every record onto each shard holding blocking-key
//! evidence for it, so every pair single-node linkage would link
//! coexists on at least one shard. Scatter reads then join bridged
//! entries on shared member pages. Net: per-identifier cluster
//! membership through the router is identical to single-node.

use bdi::linkage::blocking::normalize_identifier;
use bdi::serve::gen::shard_of;
use bdi::serve::{Client, Engine, Router, RouterConfig, Server, ServerConfig};
use bdi::synth::{World, WorldConfig};
use bdi::types::{Record, RecordId, SourceId};
use std::collections::HashMap;
use std::time::Duration;

fn world(seed: u64) -> World {
    World::generate(WorldConfig {
        n_entities: 80,
        n_sources: 10,
        ..WorldConfig::tiny(seed)
    })
}

fn fleet(n: usize) -> (Vec<Server>, Router) {
    let backends: Vec<Server> = (0..n)
        .map(|_| Server::start(ServerConfig::default()).expect("backend binds"))
        .collect();
    let router = Router::start(RouterConfig {
        backends: backends.iter().map(|s| s.addr().to_string()).collect(),
        ..RouterConfig::default()
    })
    .expect("router binds");
    (backends, router)
}

fn teardown(backends: Vec<Server>, router: Router) {
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// Clustering through an N-shard router equals single-node clustering
/// of the same stream, checked per unambiguous identifier: the merged
/// entry's member pages must match the single-node cluster exactly.
#[test]
fn sharded_clustering_matches_single_node() {
    for shards in [2usize, 3] {
        let w = world(601);

        // single-node reference over the same stream, same threshold
        let mut engine = Engine::new(0.9);
        for r in w.dataset.records().iter().cloned() {
            engine.ingest(r);
        }
        let reference = engine.refresh();

        // identifiers claimed by exactly one reference product: for
        // ambiguous ones the indexed winner depends on cluster-id
        // assignment, which sharding legitimately renumbers
        let mut claims: HashMap<&str, usize> = HashMap::new();
        for entry in reference.entries() {
            for id in &entry.identifiers {
                *claims.entry(id.as_str()).or_default() += 1;
            }
        }

        let (backends, router) = fleet(shards);
        let mut client = Client::connect(router.addr()).expect("connect router");
        // mix single-record and batched ingest: both wire paths must
        // land on the same clustering
        let records = w.dataset.into_records();
        let total = records.len();
        let mut stream = records.into_iter();
        for r in stream.by_ref().take(total / 2) {
            client.ingest(r).unwrap();
        }
        let rest: Vec<Record> = stream.collect();
        for chunk in rest.chunks(32) {
            client.ingest_batch(chunk.to_vec()).unwrap();
        }
        client.flush().unwrap();

        // the partitioning is real: every shard holds part of the
        // stream, and the router's merged `stats` is exactly the sum of
        // what the backends report directly
        let mut sum = (0usize, 0u64, 0u64, 0usize);
        for (i, b) in backends.iter().enumerate() {
            let mut direct = Client::connect(b.addr()).unwrap();
            let s = direct.stats().unwrap();
            assert!(s.records > 0, "shard {i}/{shards} received records");
            sum.0 += s.records;
            sum.1 += s.submitted;
            sum.2 += s.applied;
            sum.3 += s.products;
        }
        let merged = client.stats().unwrap();
        assert_eq!(
            (
                merged.records,
                merged.submitted,
                merged.applied,
                merged.products
            ),
            sum,
            "router stats (records, submitted, applied, products) == sum over {shards} backends"
        );

        let mut checked = 0usize;
        for entry in reference.entries() {
            let Some(id) = entry.identifiers.iter().find(|id| claims[id.as_str()] == 1) else {
                continue;
            };
            let served = client
                .lookup(id)
                .unwrap()
                .unwrap_or_else(|| panic!("'{id}' resolves through the {shards}-shard router"));
            let mut want = entry.pages.clone();
            want.sort_unstable();
            assert_eq!(
                served.pages, want,
                "cluster membership for '{id}' at {shards} shards equals single-node"
            );
            checked += 1;
        }
        assert!(
            checked > reference.len() / 2,
            "most products have an unambiguous identifier ({checked} checked)"
        );

        drop(client);
        teardown(backends, router);
    }
}

/// A pair whose identifiers hash to different shards but share a digit
/// core (the serve matcher's cross-identifier link path) must fuse into
/// one cluster through the router — the bridged-pair case a naive
/// hash-partitioner gets wrong.
#[test]
fn cross_shard_bridged_pair_matches_single_node() {
    let n = 2usize;
    let ida = "CAM-LUM-00424".to_string();
    let home_a = shard_of(&normalize_identifier(&ida), n);
    let idb = (b'A'..=b'Z')
        .flat_map(|c1| {
            (b'A'..=b'Z').map(move |c2| format!("{}{}T-ORB-00424", char::from(c1), char::from(c2)))
        })
        .find(|cand| shard_of(&normalize_identifier(cand), n) != home_a)
        .expect("some prefix hashes to the other shard");

    let rec = |s: u32, title: &str, id: &str| {
        let mut r = Record::new(RecordId::new(SourceId(s), 0), title);
        r.identifiers.push(id.to_string());
        r
    };
    let pair = vec![
        rec(0, "Lumetra LX-424 camera", &ida),
        rec(1, "Lumetra LX-424 camera kit", &idb),
    ];

    // single-node ground truth: the digit-run path links them
    let mut engine = Engine::new(0.9);
    for r in pair.iter().cloned() {
        engine.ingest(r);
    }
    let reference = engine.refresh();
    assert_eq!(reference.len(), 1, "single node fuses the pair");

    let (backends, router) = fleet(n);
    let mut client = Client::connect(router.addr()).unwrap();
    client.ingest_batch(pair).unwrap();
    client.flush().unwrap();

    for id in [&ida, &idb] {
        let served = client
            .lookup(id)
            .unwrap()
            .unwrap_or_else(|| panic!("'{id}' resolves"));
        assert_eq!(
            served.pages.len(),
            2,
            "'{id}' reaches the whole bridged cluster across shards"
        );
    }

    drop(client);
    teardown(backends, router);
}

/// Killing a backend mid-flight turns into per-shard `error` responses
/// naming the dead shard — the router never hangs, and the surviving
/// shard keeps serving.
#[test]
fn killed_backend_is_a_clean_error_not_a_hang() {
    let (mut backends, router) = fleet(2);
    let mut client = Client::connect(router.addr()).unwrap();
    let ids: Vec<String> = (0..12u32).map(|i| format!("WID-GET-{i:05}")).collect();
    for (i, id) in ids.iter().enumerate() {
        let mut r = Record::new(
            RecordId::new(SourceId(i as u32), 0),
            format!("Widget mk{i}"),
        );
        r.identifiers.push(id.clone());
        client.ingest(r).unwrap();
    }
    client.flush().unwrap();

    // kill shard 1 in the background; from the router's side this looks
    // like a remote death — connections drop as they next carry traffic
    let victim = backends.remove(1);
    let killer = std::thread::spawn(move || victim.shutdown());

    let mut named = None;
    for _ in 0..400 {
        match client.stats() {
            Ok(_) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                named = Some(e.to_string());
                break;
            }
        }
    }
    let named = named.expect("scatter reports the dead shard instead of hanging");
    assert!(named.contains("shard 1"), "error names the shard: {named}");

    // ingest until a record homes on the dead shard: clean error; the
    // flush barrier still terminates and reports the death
    let mut saw_error = false;
    for i in 100..2000u32 {
        let mut r = Record::new(RecordId::new(SourceId(i), 0), format!("Late widget mk{i}"));
        r.identifiers.push(format!("LAT-WID-{i:05}"));
        if client.ingest(r).is_err() {
            saw_error = true;
            break;
        }
    }
    assert!(saw_error, "a late record homed on the dead shard");
    assert!(client.flush().is_err(), "flush reports the dead shard");

    // single-shard traffic against the survivor still works
    let survivor = ids
        .iter()
        .find(|id| shard_of(&normalize_identifier(id), 2) == 0)
        .expect("some identifier homes on shard 0");
    assert!(
        client.lookup(survivor).unwrap().is_some(),
        "surviving shard keeps serving"
    );

    drop(client);
    router.shutdown();
    killer.join().expect("backend shutdown completed");
    for b in backends {
        b.shutdown();
    }
}
