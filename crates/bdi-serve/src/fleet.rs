//! Fleet topology: the routing table that survives live shard splits.
//!
//! The static router maps a routing key to `shard_of(key, n)` — a flat
//! `hash % n`. That formula cannot absorb a new backend without
//! re-homing almost every key (`hash % (n+1)` disagrees with `hash % n`
//! on ~n/(n+1) of the space), which would invalidate every record
//! already placed. A live split must move *only* the split shard's keys.
//!
//! [`RoutingTable`] gets that with per-slot chains (linear hashing):
//! the key's FNV-1a hash picks a *slot* (`h % base`, where `base` is the
//! boot-time shard count), and the slot's chain — initially just
//! `[slot]` — picks the shard via the hash's high bits
//! (`(h / base) % chain.len()`). With no splits every chain has length
//! one and the table is bit-identical to `shard_of(key, base)`, so a
//! fleet that never splits routes exactly like the static router did.
//!
//! Splitting shard `t` doubles every chain containing `t` and rewrites
//! the upper half's `t` entries to the new shard id: keys whose chain
//! position gains its new top bit move, every other key — on `t` or any
//! other shard — stays put. Each split therefore halves (per slot) the
//! split shard's keyspace and touches nothing else, which is what lets
//! the router replay a bounded record set onto the new backend and flip
//! the table under one barrier (see `router.rs`).

//! The second half of this module is the *orchestration* that uses the
//! table: [`split_shard`] and [`replace_replica`], the router's two
//! admin commands. Both follow the same shape — freeze routing (the
//! bridge lock), settle every in-flight record (the lane barrier),
//! ship state from a live peer (`sync` → `restore`, the WAL-shipping
//! wire pair), and only then flip the topology. A failure before the
//! flip aborts cleanly: the table, masks, and lanes are untouched.

use crate::bridge::{BridgeIndex, MAX_SHARDS};
use crate::gen::fnv64;
use crate::protocol::{Request, Response};
use crate::replica::{connect_checked, spawn_lane, ShardState};
use crate::router::{settle_barrier, RouterShared};
use crate::snapshot::Snapshot;
use bdi_types::Record;
use parking_lot::RwLock;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Instant;

/// Where routing keys home, supporting in-place shard splits.
///
/// Equivalence contract: `RoutingTable::new(n).home(k) ==
/// shard_of(k, n)` for every key — pinned by tests — so introducing the
/// table changed nothing for fleets that never split.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingTable {
    /// Boot-time shard count; the slot modulus forever.
    base: usize,
    /// Per-slot shard chains. `chains[s].len()` is always a power of
    /// two (doubling is the only growth), so the high-bits index is
    /// uniform per slot.
    chains: Vec<Vec<usize>>,
    /// Total shards ever created — the next split's new shard id.
    shards: usize,
}

impl RoutingTable {
    /// The identity table over `n` shards (no splits yet).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one shard");
        Self {
            base: n,
            chains: (0..n).map(|s| vec![s]).collect(),
            shards: n,
        }
    }

    /// Total shards the table routes over (grows by one per split).
    pub fn len(&self) -> usize {
        self.shards
    }

    /// True only for the degenerate zero-shard table (unreachable via
    /// the constructor; required by idiom).
    pub fn is_empty(&self) -> bool {
        self.shards == 0
    }

    /// True once any shard has been split.
    pub fn has_splits(&self) -> bool {
        self.shards > self.base
    }

    /// The shard `key` homes on.
    pub fn home(&self, key: &str) -> usize {
        let h = fnv64(key);
        let chain = &self.chains[(h % self.base as u64) as usize];
        chain[((h / self.base as u64) % chain.len() as u64) as usize]
    }

    /// Split `shard`, returning the new shard's id (= the old total).
    /// Every chain containing `shard` doubles; the doubled half's
    /// `shard` entries become the new shard, so exactly half of the
    /// split shard's per-slot keyspace moves and no other key re-homes.
    pub fn split(&mut self, shard: usize) -> usize {
        assert!(shard < self.shards, "split of unknown shard {shard}");
        let new = self.shards;
        for chain in &mut self.chains {
            if !chain.contains(&shard) {
                continue;
            }
            let half = chain.len();
            for j in 0..half {
                let s = chain[j];
                chain.push(if s == shard { new } else { s });
            }
        }
        self.shards += 1;
        new
    }
}

fn error(message: String) -> Response {
    Response::Error { message }
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("'{addr}': {e}"))?
        .next()
        .ok_or_else(|| format!("'{addr}' resolves to no address"))
}

/// State shipped out of a shard: the applied position it reaches, an
/// optional full snapshot, and the record tail past it.
struct ShippedState {
    position: u64,
    snapshot: Option<Snapshot>,
    tail: Vec<Record>,
}

/// Ship state out of `shard`: pick the first live replica (skipping
/// `exclude`, the slot being replaced), flush it so its queue is folded
/// into the engine, then `sync` from position 0 — the full state. The
/// transfer is timed onto `route.sync.latency_ns`.
fn sync_from_shard(
    shared: &RouterShared,
    shard: usize,
    exclude: Option<usize>,
) -> Result<ShippedState, String> {
    let sources: Vec<(usize, SocketAddr, bool)> = {
        let shards = shared.shards.read();
        let replicas = shards[shard].replicas.read();
        replicas
            .iter()
            .map(|l| (l.replica, l.addr, l.is_down()))
            .collect()
    };
    let mut last = format!("shard {shard}: no live replica to sync from");
    for (replica, addr, down) in sources {
        if down || Some(replica) == exclude {
            continue;
        }
        let t0 = Instant::now();
        let attempt = (|| -> std::io::Result<ShippedState> {
            let mut conn = connect_checked(addr, &["flush_barrier", "sync"])?;
            match conn.call(&Request::Flush, None)? {
                Response::Flushed { .. } => {}
                other => {
                    return Err(std::io::Error::other(format!(
                        "unexpected response to flush: {other:?}"
                    )))
                }
            }
            match conn.call(&Request::Sync { from: 0 }, None)? {
                Response::SyncState {
                    position,
                    snapshot,
                    tail,
                } => Ok(ShippedState {
                    position,
                    snapshot,
                    tail,
                }),
                Response::Error { message } => Err(std::io::Error::other(message)),
                other => Err(std::io::Error::other(format!(
                    "unexpected response to sync: {other:?}"
                ))),
            }
        })();
        match attempt {
            Ok(state) => {
                shared.metrics.sync_ns.record_duration(t0.elapsed());
                return Ok(state);
            }
            Err(e) => last = format!("shard {shard} replica {replica} ({addr}): {e}"),
        }
    }
    Err(last)
}

/// Install shipped state onto a fresh backend at `addr`.
fn restore_onto(
    addr: SocketAddr,
    snapshot: Option<Snapshot>,
    tail: Vec<Record>,
    position: u64,
) -> std::io::Result<u64> {
    let mut conn = connect_checked(addr, &["restore"])?;
    let request = Request::Restore {
        snapshot,
        tail,
        position,
    };
    match conn.call(&request, None)? {
        Response::Restored { records, .. } => Ok(records),
        Response::Error { message } => Err(std::io::Error::other(message)),
        other => Err(std::io::Error::other(format!(
            "unexpected response to restore: {other:?}"
        ))),
    }
}

/// Split `shard`'s hash range onto a new shard served by `addrs` (one
/// address per replica, matching the shard's replica count).
///
/// Under the bridge lock — the routing barrier — the split: settles
/// every routed record, ships the source shard's state, previews the
/// table flip to find exactly the records whose home moves, replays
/// that slice onto each new backend via `restore`, and only then flips
/// the table, widens the bridge masks, and appends the new shard's
/// lanes. Ingest acked before the split lands on the old shard and is
/// captured by the shipped state; ingest after it routes through the
/// flipped table — no record is dropped or double-applied. Records
/// whose home moved remain on the source backend as stale copies;
/// reads deduplicate them through shared pages (see
/// [`BridgeIndex::split`]).
pub(crate) fn split_shard(shared: &Arc<RouterShared>, shard: usize, addrs: &[String]) -> Response {
    let t0 = Instant::now();
    let new_addrs = match addrs
        .iter()
        .map(|a| resolve(a))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(a) => a,
        Err(e) => return error(e),
    };
    // the bridge lock is the routing barrier: held for the whole split,
    // so no record can route against a half-flipped table
    let mut bridge = shared.bridge.lock();
    let replica_count = {
        let shards = shared.shards.read();
        match shards.get(shard) {
            Some(s) => s.replicas.read().len(),
            None => return error(format!("unknown shard {shard}")),
        }
    };
    if new_addrs.len() != replica_count {
        return error(format!(
            "shard {shard} runs {replica_count} replica(s); got {} new backend(s)",
            new_addrs.len()
        ));
    }
    if bridge.shard_count() >= MAX_SHARDS {
        return error(format!("fleet is at the {MAX_SHARDS}-shard cap"));
    }
    if let Err(e) = settle_barrier(shared) {
        return error(e);
    }
    let shipped = match sync_from_shard(shared, shard, None) {
        Ok(s) => s,
        Err(e) => return error(e),
    };
    // preview the flip on a clone: which of the source's records would
    // home on the new shard. Only home copies move — a record homed
    // elsewhere (a bridge replica stored here) keeps its home, and its
    // evidence keeps living on the source via the widened masks.
    let mut preview = bridge.table().clone();
    let new_shard = preview.split(shard);
    let homes_on_new = |r: &Record| preview.home(&BridgeIndex::routing_key(r)) == new_shard;
    let mut moved: Vec<Record> = Vec::new();
    if let Some(snap) = shipped.snapshot {
        moved.extend(snap.engine.records.into_iter().filter(|r| homes_on_new(r)));
    }
    moved.extend(shipped.tail.into_iter().filter(|r| homes_on_new(r)));
    let moved_n = moved.len() as u64;
    // bootstrap every new replica before anything flips — a failure
    // here aborts the split with the fleet untouched
    for (replica, &addr) in new_addrs.iter().enumerate() {
        let mut tail = moved.clone();
        if replica + 1 == new_addrs.len() {
            tail = std::mem::take(&mut moved);
        }
        if let Err(e) = restore_onto(addr, None, tail, moved_n) {
            return error(format!(
                "bootstrap of new shard replica {replica} ({addr}) failed: {e}"
            ));
        }
    }
    // the flip: table + masks, then the lanes — still under the barrier
    let flipped = bridge.split(shard);
    debug_assert_eq!(flipped, new_shard, "preview and flip agree");
    let lanes = new_addrs
        .iter()
        .enumerate()
        .map(|(replica, &addr)| spawn_lane(new_shard, replica, addr, shared))
        .collect();
    shared.shards.write().push(Arc::new(ShardState {
        replicas: RwLock::new(lanes),
    }));
    shared.metrics.split_moved.add(moved_n);
    shared.metrics.split_ns.record_duration(t0.elapsed());
    Response::SplitDone {
        shard,
        new_shard,
        moved: moved_n,
    }
}

/// Replace replica `replica` of `shard` with a fresh backend at `addr`,
/// bootstrapped from a live peer replica: settle, flush the peer, ship
/// its full state (`sync` from 0), `restore` onto the new backend, then
/// swap the lane. The retired lane's worker observes the swap (its
/// [`std::sync::Weak`] dies) and exits. Requires a live peer — with
/// every replica down there is nothing to ship from, and the shard's
/// data is only recoverable from a backend's own WAL.
pub(crate) fn replace_replica(
    shared: &Arc<RouterShared>,
    shard: usize,
    replica: usize,
    addr: &str,
) -> Response {
    let new_addr = match resolve(addr) {
        Ok(a) => a,
        Err(e) => return error(e),
    };
    // freeze routing for the settle → ship → swap window
    let _bridge = shared.bridge.lock();
    {
        let shards = shared.shards.read();
        let Some(state) = shards.get(shard) else {
            return error(format!("unknown shard {shard}"));
        };
        if replica >= state.replicas.read().len() {
            return error(format!("shard {shard} has no replica {replica}"));
        }
    }
    if let Err(e) = settle_barrier(shared) {
        return error(e);
    }
    let shipped = match sync_from_shard(shared, shard, Some(replica)) {
        Ok(s) => s,
        Err(e) => return error(e),
    };
    let synced = match restore_onto(new_addr, shipped.snapshot, shipped.tail, shipped.position) {
        Ok(records) => records,
        Err(e) => return error(format!("restore onto {new_addr} failed: {e}")),
    };
    let lane = spawn_lane(shard, replica, new_addr, shared);
    {
        let shards = shared.shards.read();
        let mut replicas = shards[shard].replicas.write();
        // the old lane's last Arc drops here; its worker retires
        replicas[replica] = lane;
    }
    shared.refresh_down_gauge();
    Response::Replaced {
        shard,
        replica,
        synced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::shard_of;

    fn keys() -> Vec<String> {
        (0..500u32)
            .map(|i| format!("CAM-LUM-{i:05}"))
            .chain((0..100u32).map(|i| format!("gadget model {i}")))
            .collect()
    }

    #[test]
    fn unsplit_table_matches_shard_of_exactly() {
        for n in [1usize, 2, 3, 5, 8] {
            let table = RoutingTable::new(n);
            assert_eq!(table.len(), n);
            assert!(!table.has_splits());
            for k in keys() {
                assert_eq!(
                    table.home(&k),
                    shard_of(&k, n),
                    "pre-split routing is bit-identical to the static router"
                );
            }
        }
    }

    #[test]
    fn split_moves_only_keys_of_the_split_shard() {
        let mut table = RoutingTable::new(2);
        let before: Vec<usize> = keys().iter().map(|k| table.home(k)).collect();
        let new = table.split(0);
        assert_eq!(new, 2);
        assert_eq!(table.len(), 3);
        assert!(table.has_splits());
        let mut moved = 0usize;
        for (k, &old) in keys().iter().zip(&before) {
            let now = table.home(k);
            if old == 1 {
                assert_eq!(now, 1, "'{k}': unsplit shard keeps every key");
            } else {
                assert!(
                    now == 0 || now == 2,
                    "'{k}': split-shard keys stay or move to the new shard"
                );
                if now == 2 {
                    moved += 1;
                }
            }
        }
        let on_zero = before.iter().filter(|&&s| s == 0).count();
        assert!(
            moved > on_zero / 4 && moved < 3 * on_zero / 4,
            "roughly half of shard 0's keys moved ({moved}/{on_zero})"
        );
    }

    #[test]
    fn repeated_splits_keep_partitioning_total() {
        let mut table = RoutingTable::new(2);
        table.split(0);
        table.split(2); // split the split-off shard again
        table.split(1);
        assert_eq!(table.len(), 5);
        for k in keys() {
            assert!(table.home(&k) < table.len(), "every key has a home");
        }
        // determinism: an identically-split clone agrees everywhere
        let mut other = RoutingTable::new(2);
        other.split(0);
        other.split(2);
        other.split(1);
        assert_eq!(table, other);
    }
}
