//! Elastic-fleet serving: replication, read failover, WAL-shipped node
//! replacement, and live shard splits must all preserve the one
//! invariant the router tier is built on — clustering through the fleet
//! equals single-node clustering of the same stream.
//!
//! Three scenarios, each pinned against a single-node reference engine:
//!
//! 1. **Kill one replica mid-run** (R=2): ingest keeps succeeding on
//!    the surviving copy, reads fail over transparently, and merged
//!    stats stay consistent.
//! 2. **Live shard split mid-ingest**: half the stream lands before the
//!    split, half after; no record is dropped or double-applied and
//!    per-identifier clusters match single-node exactly.
//! 3. **Node replacement**: a dead replica is rebuilt over the wire
//!    (snapshot + WAL tail from its live peer) and converges to a
//!    byte-identical record count with its peer under further ingest.

use bdi::serve::{Client, Engine, Router, RouterConfig, Server, ServerConfig};
use bdi::synth::{World, WorldConfig};
use std::collections::HashMap;
use std::time::Duration;

fn world(seed: u64) -> World {
    World::generate(WorldConfig {
        n_entities: 80,
        n_sources: 10,
        ..WorldConfig::tiny(seed)
    })
}

/// `shards * replicas` backends plus a router wired shard-major:
/// `backends[s * replicas + r]` is replica `r` of shard `s`.
fn fleet(shards: usize, replicas: usize) -> (Vec<Server>, Router) {
    let backends: Vec<Server> = (0..shards * replicas)
        .map(|_| Server::start(ServerConfig::default()).expect("backend binds"))
        .collect();
    let router = Router::start(RouterConfig {
        backends: backends.iter().map(|s| s.addr().to_string()).collect(),
        replicas,
        ..RouterConfig::default()
    })
    .expect("router binds");
    (backends, router)
}

/// Single-node reference clustering plus the set of identifiers claimed
/// by exactly one product (ambiguous ones legitimately renumber under
/// sharding).
fn reference(
    w: &World,
) -> (
    std::sync::Arc<bdi::core::catalog::Catalog>,
    HashMap<String, usize>,
) {
    let mut engine = Engine::new(0.9);
    for r in w.dataset.records().iter().cloned() {
        engine.ingest(r);
    }
    let state = engine.refresh();
    let mut claims: HashMap<String, usize> = HashMap::new();
    for entry in state.entries() {
        for id in &entry.identifiers {
            *claims.entry(id.clone()).or_default() += 1;
        }
    }
    (state, claims)
}

/// Every unambiguous identifier resolves through `client` to the exact
/// single-node cluster membership. Returns how many were checked.
fn assert_equivalent(
    client: &mut Client,
    state: &bdi::core::catalog::Catalog,
    claims: &HashMap<String, usize>,
    label: &str,
) -> usize {
    let mut checked = 0usize;
    for entry in state.entries() {
        let Some(id) = entry.identifiers.iter().find(|id| claims[id.as_str()] == 1) else {
            continue;
        };
        let served = client
            .lookup(id)
            .unwrap_or_else(|e| panic!("[{label}] lookup '{id}' errors: {e}"))
            .unwrap_or_else(|| panic!("[{label}] '{id}' resolves through the fleet"));
        let mut want = entry.pages.clone();
        want.sort_unstable();
        assert_eq!(
            served.pages, want,
            "[{label}] cluster membership for '{id}' equals single-node"
        );
        checked += 1;
    }
    assert!(
        checked > state.len() / 2,
        "[{label}] most products have an unambiguous identifier ({checked} checked)"
    );
    checked
}

fn counter(client: &mut Client, name: &str) -> u64 {
    client
        .metrics()
        .expect("metrics scatter succeeds")
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Replicated fleet, one replica killed mid-run: ingest lands on the
/// surviving copy, reads fail over without surfacing an error, merged
/// stats stay consistent, and final clustering still equals single-node.
#[test]
fn killed_replica_fails_over_and_stays_equivalent() {
    let w = world(611);
    let (state, claims) = reference(&w);

    // 2 shards x 2 replicas
    let (mut backends, router) = fleet(2, 2);
    let mut client = Client::connect(router.addr()).expect("connect router");
    let records = w.dataset.clone().into_records();
    let total = records.len();
    let cut = total * 2 / 3;
    for chunk in records[..cut].chunks(32) {
        client.ingest_batch(chunk.to_vec()).unwrap();
    }
    client.flush().unwrap();
    let records_before = client.stats().unwrap().records;

    // kill shard 0 replica 0 — the replica every fresh connection
    // prefers for reads — in the background, like a remote death
    let victim = backends.remove(0);
    let killer = std::thread::spawn(move || victim.shutdown());

    // reads must keep succeeding throughout; wait until at least one
    // was actually re-routed (the dying backend can answer for a bit)
    let mut failed_over = false;
    for _ in 0..600 {
        let stats = client.stats().expect("stats never errors under R=2");
        assert!(stats.records >= records_before, "no records went missing");
        if counter(&mut client, "route.read.failovers") > 0 {
            failed_over = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(failed_over, "a read was re-sent to the surviving replica");

    // shard 1 loses its *mirror* (replica 1, which no read prefers), so
    // only the ingest lane can notice; `shutdown` answering means the
    // backend refuses ingest from here on
    let mirror = backends.remove(2);
    Client::connect(mirror.addr())
        .expect("connect mirror")
        .shutdown()
        .expect("mirror acknowledges shutdown");
    let reaper = std::thread::spawn(move || mirror.shutdown());

    // the rest of the stream ingests against the degraded shards: copies
    // for the dead lanes are dropped and counted, the survivors get all
    for chunk in records[cut..].chunks(32) {
        client.ingest_batch(chunk.to_vec()).unwrap();
    }
    client.flush().unwrap();

    assert_equivalent(&mut client, &state, &claims, "killed-replica");
    assert!(
        counter(&mut client, "route.shard0.replica0.errors") >= 1,
        "the dead lane's error counter names shard 0 replica 0"
    );
    assert!(
        counter(&mut client, "route.shard1.replica1.errors") >= 1,
        "a dead mirror shows in its own lane's error counter"
    );

    drop(client);
    router.shutdown();
    killer.join().expect("backend shutdown completed");
    reaper.join().expect("mirror shutdown completed");
    for b in backends {
        b.shutdown();
    }
}

/// Live shard split mid-ingest: the stream starts on one shard, the
/// hash range splits onto a fresh backend halfway through, the rest of
/// the stream routes across both — and nothing is dropped or applied
/// twice: clustering equals single-node, and the router's submitted
/// counter equals the stream length.
#[test]
fn live_split_mid_ingest_matches_single_node() {
    let w = world(613);
    let (state, claims) = reference(&w);

    let (backends, router) = fleet(1, 1);
    let mut client = Client::connect(router.addr()).expect("connect router");
    let records = w.dataset.clone().into_records();
    let total = records.len();
    let cut = total / 2;
    for chunk in records[..cut].chunks(32) {
        client.ingest_batch(chunk.to_vec()).unwrap();
    }

    // split shard 0's hash range onto a brand-new backend, live, with
    // half the stream already applied and half still to come
    let fresh = Server::start(ServerConfig::default()).expect("fresh backend binds");
    let (new_shard, moved) = client
        .split(0, vec![fresh.addr().to_string()])
        .expect("split succeeds");
    assert_eq!(new_shard, 1, "first split mints shard 1");
    assert!(moved > 0, "part of the applied stream re-homed ({moved})");

    for chunk in records[cut..].chunks(32) {
        client.ingest_batch(chunk.to_vec()).unwrap();
    }
    client.flush().unwrap();

    // the split is real: the new shard serves part of the stream
    let mut direct = Client::connect(fresh.addr()).unwrap();
    assert!(
        direct.stats().unwrap().records > 0,
        "the new shard holds records"
    );
    assert_eq!(
        counter(&mut client, "route.ingest.submitted"),
        total as u64,
        "every record of the stream was submitted exactly once"
    );
    assert_eq!(
        counter(&mut client, "route.split.moved_records"),
        moved,
        "the split metric matches the reported move"
    );

    assert_equivalent(&mut client, &state, &claims, "live-split");

    drop(direct);
    drop(client);
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    fresh.shutdown();
}

/// Node replacement over the wire: a killed replica is replaced by a
/// fresh backend bootstrapped from its live peer's snapshot + WAL tail;
/// after further ingest both copies converge to identical record
/// counts and the fleet still clusters like a single node.
#[test]
fn replaced_replica_converges_with_its_peer() {
    let w = world(617);
    let (state, claims) = reference(&w);

    // 1 shard x 2 replicas
    let (mut backends, router) = fleet(1, 2);
    let mut client = Client::connect(router.addr()).expect("connect router");
    let records = w.dataset.clone().into_records();
    let total = records.len();
    let cut = total * 2 / 3;
    for chunk in records[..cut].chunks(32) {
        client.ingest_batch(chunk.to_vec()).unwrap();
    }
    client.flush().unwrap();

    // kill replica 1 (not the preferred read replica), then keep
    // ingesting: lane failure is only detected when traffic flows, so
    // trickle the stream through in small chunks until the dead lane
    // trips — never re-sending a record (that would diverge from the
    // single-node reference)
    let victim = backends.remove(1);
    let killer = std::thread::spawn(move || victim.shutdown());
    std::thread::sleep(Duration::from_millis(50));
    let mut next = cut;
    let mut lane_dead = false;
    while next < total {
        let end = (next + 8).min(total);
        client.ingest_batch(records[next..end].to_vec()).unwrap();
        client.flush().unwrap();
        next = end;
        if counter(&mut client, "route.shard0.replica1.errors") > 0 {
            lane_dead = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        lane_dead,
        "the dead lane was detected before the stream ran out"
    );

    // replace the dead slot with a brand-new backend, synced over the
    // wire from the surviving peer under the flush barrier
    let fresh = Server::start(ServerConfig::default()).expect("fresh backend binds");
    let synced = client
        .replace(0, 1, fresh.addr().to_string())
        .expect("replace succeeds");
    let survivor_records = {
        let mut direct = Client::connect(backends[0].addr()).unwrap();
        direct.stats().unwrap().records as u64
    };
    assert_eq!(
        synced, survivor_records,
        "the replacement was synced to the survivor's full state"
    );

    // the rest of the stream lands on both copies; they stay on the
    // same record count
    for chunk in records[next..].chunks(32) {
        client.ingest_batch(chunk.to_vec()).unwrap();
    }
    client.flush().unwrap();
    let count = |addr| {
        let mut direct = Client::connect(addr).unwrap();
        direct.stats().unwrap().records
    };
    assert_eq!(
        count(backends[0].addr()),
        count(fresh.addr()),
        "peer and replacement converge under live ingest"
    );

    assert_equivalent(&mut client, &state, &claims, "replaced-replica");

    drop(client);
    router.shutdown();
    killer.join().expect("backend shutdown completed");
    for b in backends {
        b.shutdown();
    }
    fresh.shutdown();
}
