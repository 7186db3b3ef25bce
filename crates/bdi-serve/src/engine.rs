//! The ingest engine: incremental linkage + dirty-cluster fusion.
//!
//! Every inserted record is linked by the [`IncrementalLinker`] against
//! its blocking candidates only; the returned [`InsertTrace`] names the
//! one cluster the record landed in and any formerly distinct clusters
//! the insert bridged. Those are exactly the catalog entries that can
//! have changed, so a refresh re-fuses *their members only* and derives
//! the next catalog generation by [`Catalog::apply_delta`] — cost
//! proportional to the churn, never to the catalog.
//!
//! Fusion here is per-cluster majority vote over the members' raw
//! attribute names (lower-cased). Online serving trades the batch
//! pipeline's corpus-wide schema alignment for bounded refresh cost —
//! the pay-as-you-go stance from the dataspace line of work.

use bdi_core::catalog::{Catalog, CatalogEntry};
use bdi_fusion::{ClaimSet, Fuser, MajorityVote};
use bdi_linkage::blocking::{normalize_identifier, BlockingKey};
use bdi_linkage::incremental::{IncrementalLinker, InsertTimings, InsertTrace, LinkerState};
use bdi_linkage::matcher::IdentifierRule;
use bdi_obs::{Histogram, Registry};
use bdi_types::{DataItem, EntityId, Record, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Long-lived integration state behind the serve ingest path. Single-
/// threaded by design: one owner (the serve ingest worker) links,
/// fuses and refreshes on its own thread.
pub struct Engine {
    linker: IncrementalLinker<IdentifierRule>,
    /// Linkage match threshold the linker was built with.
    threshold: f64,
    /// Cluster root → member arrival indices (ascending).
    members: HashMap<usize, Vec<usize>>,
    /// Roots whose membership changed since the last refresh.
    dirty: BTreeSet<usize>,
    /// Roots absorbed since the last refresh — permanently dead keys.
    dead: BTreeSet<usize>,
    /// The catalog as of the last refresh, shared with published
    /// generations — [`Engine::refresh`] hands out this `Arc`, so
    /// publication never copies the catalog.
    catalog: Arc<Catalog>,
    /// Stage-timing histograms, when the owner attached any. Purely
    /// observational: the clustering outcome is identical with or
    /// without them (the timed insert path is the untimed path).
    metrics: Option<EngineMetrics>,
}

/// Stage-timing histograms an [`Engine`] records into when attached via
/// [`Engine::set_metrics`]. All latencies in nanoseconds.
#[derive(Clone)]
pub struct EngineMetrics {
    /// Candidate generation per insert (fingerprint + blocking index).
    pub candidates_ns: Arc<Histogram>,
    /// Pair scoring per insert (the fused prune/score/union loop).
    pub scoring_ns: Arc<Histogram>,
    /// Union apply + registration per insert.
    pub union_ns: Arc<Histogram>,
    /// Whole [`Engine::ingest`] call (link + dirty bookkeeping).
    pub ingest_ns: Arc<Histogram>,
    /// Whole [`Engine::refresh`] call (dirty-cluster re-fusion +
    /// catalog delta).
    pub refresh_ns: Arc<Histogram>,
    /// Dirty clusters re-fused per refresh (a size, not a latency).
    pub refresh_dirty: Arc<Histogram>,
}

impl EngineMetrics {
    /// Resolve the engine's histograms in `registry` under the
    /// `serve.engine.*` names.
    pub fn register(registry: &Registry) -> Self {
        Self {
            candidates_ns: registry.histogram("serve.engine.candidates.latency_ns"),
            scoring_ns: registry.histogram("serve.engine.scoring.latency_ns"),
            union_ns: registry.histogram("serve.engine.union.latency_ns"),
            ingest_ns: registry.histogram("serve.engine.ingest.latency_ns"),
            refresh_ns: registry.histogram("serve.engine.refresh.latency_ns"),
            refresh_dirty: registry.histogram("serve.engine.refresh.dirty_clusters"),
        }
    }
}

/// The complete durable state of an [`Engine`], as written into serve-path
/// snapshots ([`crate::snapshot`]). Restoring through
/// [`Engine::from_state`] reproduces the engine *exactly* — same cluster
/// roots, same pending dirty/dead sets, same behaviour on every future
/// insert — so a recovered server is indistinguishable from one that
/// never went down.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EngineState {
    /// Linkage match threshold the state was produced under.
    pub threshold: f64,
    /// Ingested records in arrival order.
    pub records: Vec<Record>,
    /// Raw union-find parent pointers, one per record.
    pub parents: Vec<usize>,
    /// Raw union-find ranks, one per record.
    pub ranks: Vec<u8>,
    /// Pairwise comparisons performed so far (instrumentation).
    pub comparisons: u64,
    /// Cluster root → member arrival indices (ascending).
    pub members: BTreeMap<usize, Vec<usize>>,
    /// Roots dirtied since the last refresh.
    pub dirty: BTreeSet<usize>,
    /// Roots absorbed since the last refresh.
    pub dead: BTreeSet<usize>,
    /// The catalog as of the last refresh.
    pub catalog: Catalog,
}

impl Engine {
    /// Fresh engine with the product defaults (identifier + title
    /// blocking, identifier-rule matcher) at `threshold`. Inserts and
    /// refreshes run on the caller's thread: after candidate pruning an
    /// insert scores under one pair on average, so there is nothing to
    /// spread (see DESIGN.md, "serve hot path").
    pub fn new(threshold: f64) -> Self {
        Self {
            linker: IncrementalLinker::for_products(IdentifierRule::default(), threshold),
            threshold,
            members: HashMap::new(),
            dirty: BTreeSet::new(),
            dead: BTreeSet::new(),
            catalog: Arc::new(Catalog::default()),
            metrics: None,
        }
    }

    /// Attach stage-timing histograms. Subsequent [`Engine::ingest`] and
    /// [`Engine::refresh`] calls record their phase timings into them.
    pub fn set_metrics(&mut self, metrics: EngineMetrics) {
        self.metrics = Some(metrics);
    }

    /// The linkage match threshold this engine links at.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Export the engine's complete durable state (see [`EngineState`]).
    pub fn export_state(&self) -> EngineState {
        let LinkerState {
            records,
            parents,
            ranks,
            comparisons,
        } = self.linker.export_state();
        EngineState {
            threshold: self.threshold,
            records,
            parents,
            ranks,
            comparisons,
            members: self.members.iter().map(|(&r, m)| (r, m.clone())).collect(),
            dirty: self.dirty.clone(),
            dead: self.dead.clone(),
            catalog: (*self.catalog).clone(),
        }
    }

    /// Rebuild an engine from a previously exported [`EngineState`].
    /// The linker's blocking index is reconstructed by key extraction
    /// only (no pairwise matching), so the cost is linear in the record
    /// count. Returns `None` when the state is internally inconsistent.
    pub fn from_state(state: EngineState) -> Option<Self> {
        let threshold = state.threshold;
        if !(0.0..=1.0).contains(&threshold) {
            return None;
        }
        let n = state.records.len();
        if state.members.values().flatten().any(|&i| i >= n) {
            return None;
        }
        let linker = IncrementalLinker::restore(
            IdentifierRule::default(),
            threshold,
            vec![BlockingKey::IdentifierDigits, BlockingKey::TitleTokens],
            LinkerState {
                records: state.records,
                parents: state.parents,
                ranks: state.ranks,
                comparisons: state.comparisons,
            },
        )?;
        Some(Self {
            linker,
            threshold,
            members: state.members.into_iter().collect(),
            dirty: state.dirty,
            dead: state.dead,
            catalog: Arc::new(state.catalog),
            metrics: None,
        })
    }

    /// Ingest one record: link it, mark the touched clusters dirty.
    /// Returns the linker's trace (useful for instrumentation).
    pub fn ingest(&mut self, record: Record) -> InsertTrace {
        self.ingest_timed(record).0
    }

    /// [`Engine::ingest`], also returning the linker's stage timings —
    /// the request tracer turns them into `engine.candidates` /
    /// `engine.score` / `engine.fuse` child spans without re-measuring.
    pub fn ingest_timed(&mut self, record: Record) -> (InsertTrace, InsertTimings) {
        let t0 = std::time::Instant::now();
        let (trace, timings) = self.linker.insert_traced_timed(record);
        let mut absorbed_lists: Vec<Vec<usize>> = Vec::new();
        for &root in &trace.absorbed {
            if let Some(m) = self.members.remove(&root) {
                absorbed_lists.push(m);
            }
            self.dirty.remove(&root);
            self.dead.insert(root);
        }
        // member lists are kept ascending, so absorbed lists merge in
        // O(m) and the new arrival — the largest index by construction —
        // appends at the end: no per-insert re-sort of the home list
        let home = self.members.entry(trace.cluster).or_default();
        for m in absorbed_lists {
            merge_sorted(home, m);
        }
        debug_assert!(home.last().is_none_or(|&l| l < trace.index));
        home.push(trace.index);
        self.dirty.insert(trace.cluster);
        if let Some(m) = &self.metrics {
            m.candidates_ns.record(timings.candidates_ns);
            m.scoring_ns.record(timings.scoring_ns);
            m.union_ns.record(timings.union_ns);
            m.ingest_ns.record_duration(t0.elapsed());
        }
        (trace, timings)
    }

    /// Apply `records` in order through the exact per-record path
    /// [`Engine::ingest`] uses, so the end state is bit-identical however
    /// a stream is cut into calls (a serve integration test pins this,
    /// WAL replay and snapshot included). A record whose insert panics
    /// is skipped — the engine keeps its pre-record state — and counted
    /// in the returned `rejected`; the rest still applies. Returns
    /// `(applied, rejected)`.
    pub fn ingest_batch(&mut self, records: Vec<Record>) -> (u64, u64) {
        let (mut applied, mut rejected) = (0u64, 0u64);
        for record in records {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.ingest(record);
            }));
            match outcome {
                Ok(()) => applied += 1,
                Err(_) => rejected += 1,
            }
        }
        (applied, rejected)
    }

    /// Records ingested so far.
    pub fn records(&self) -> usize {
        self.linker.len()
    }

    /// Live clusters (catalog entries after the next refresh).
    pub fn clusters(&self) -> usize {
        self.members.len()
    }

    /// Clusters currently awaiting re-fusion.
    pub fn dirty(&self) -> usize {
        self.dirty.len()
    }

    /// Total pairwise comparisons the linker has performed.
    pub fn comparisons(&self) -> u64 {
        self.linker.comparisons()
    }

    /// Candidates the linker skipped because their root was already
    /// merged with the arriving record (root-skip filter).
    pub fn pruned_root(&self) -> u64 {
        self.linker.pruned_root()
    }

    /// Candidates the linker skipped because the matcher's admissible
    /// score bound fell below the match threshold.
    pub fn pruned_bound(&self) -> u64 {
        self.linker.pruned_bound()
    }

    /// Posting-list entries the linker's hot-key cap skipped during
    /// candidate generation.
    pub fn postings_skipped(&self) -> u64 {
        self.linker.postings_skipped()
    }

    /// Re-fuse the dirty clusters and roll the catalog forward. Returns
    /// the new catalog behind an `Arc` that is *shared* with the
    /// engine's retained refresh base — publishing a generation is a
    /// pointer copy, not a catalog copy. A no-op refresh (nothing
    /// dirty) hands out the current catalog unchanged. Upserts are
    /// built in ascending root order.
    pub fn refresh(&mut self) -> Arc<Catalog> {
        if self.dirty.is_empty() && self.dead.is_empty() {
            return Arc::clone(&self.catalog);
        }
        let t0 = std::time::Instant::now();
        let dirty_count = self.dirty.len() as u64;
        let upserts = self.dirty.iter().map(|&r| self.build_entry(r)).collect();
        let next = Arc::new(self.catalog.apply_delta(&self.dead, upserts));
        self.catalog = Arc::clone(&next);
        self.dirty.clear();
        self.dead.clear();
        if let Some(m) = &self.metrics {
            m.refresh_dirty.record(dirty_count);
            m.refresh_ns.record_duration(t0.elapsed());
        }
        next
    }

    /// Materialize one cluster as a catalog entry: pages in arrival
    /// order, title from the earliest member, identifiers from members'
    /// primary identifiers (normalized), attributes by majority vote
    /// over canonical values.
    fn build_entry(&self, root: usize) -> CatalogEntry {
        let members = &self.members[&root];
        let records = self.linker.records();
        let first = &records[members[0]];

        let mut identifiers: Vec<String> = members
            .iter()
            .filter_map(|&i| records[i].primary_identifier())
            .map(normalize_identifier)
            .filter(|n| !n.is_empty())
            .collect();
        identifiers.sort_unstable();
        identifiers.dedup();

        let triples = members.iter().flat_map(|&i| {
            let r = &records[i];
            r.attributes
                .iter()
                .filter(|(_, v)| !v.is_null())
                .map(move |(name, v)| {
                    (
                        r.id.source,
                        DataItem::new(EntityId(root as u64), name.to_ascii_lowercase()),
                        v.canonical(),
                    )
                })
        });
        let resolution = MajorityVote.resolve(&ClaimSet::from_triples(triples));
        let attributes: std::collections::BTreeMap<String, Value> = resolution
            .decided
            .into_iter()
            .map(|(item, value)| (item.attribute, value))
            .collect();

        CatalogEntry {
            id: root,
            title: first.title.clone(),
            pages: members.iter().map(|&i| records[i].id).collect(),
            attributes,
            identifiers,
        }
    }
}

/// Merge ascending `src` into ascending `dst` (both duplicate-free and
/// disjoint — they are member lists of distinct union-find roots).
fn merge_sorted(dst: &mut Vec<usize>, src: Vec<usize>) {
    if src.is_empty() {
        return;
    }
    if dst.last().is_some_and(|&l| l < src[0]) {
        dst.extend(src);
        return;
    }
    let old = std::mem::replace(dst, Vec::with_capacity(dst.len() + src.len()));
    let (mut a, mut b) = (old.into_iter().peekable(), src.into_iter().peekable());
    loop {
        match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) => {
                if x < y {
                    dst.push(a.next().unwrap());
                } else {
                    dst.push(b.next().unwrap());
                }
            }
            (Some(_), None) => dst.push(a.next().unwrap()),
            (None, Some(_)) => dst.push(b.next().unwrap()),
            (None, None) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdi_types::{RecordId, SourceId};

    fn rec(s: u32, q: u32, title: &str, id: &str) -> Record {
        let mut r = Record::new(RecordId::new(SourceId(s), q), title);
        r.identifiers.push(id.into());
        r
    }

    #[test]
    fn ingest_then_refresh_builds_entries() {
        let mut e = Engine::new(0.9);
        e.ingest(rec(0, 0, "Lumetra LX-100 camera", "CAM-LUM-00100"));
        e.ingest(rec(1, 0, "Lumetra LX-100", "camlum00100"));
        e.ingest(rec(2, 0, "Visionex V-900 monitor", "MON-VIS-00900"));
        assert_eq!(e.records(), 3);
        assert_eq!(e.clusters(), 2);
        assert_eq!(e.dirty(), 2);
        let catalog = e.refresh();
        assert_eq!(e.dirty(), 0);
        assert_eq!(catalog.len(), 2);
        let cam = catalog.lookup("CAM-LUM-00100").expect("camera resolves");
        assert_eq!(cam.pages.len(), 2);
        assert!(cam.identifiers.contains(&"CAMLUM00100".to_string()));
    }

    #[test]
    fn refresh_is_incremental_across_batches() {
        let mut e = Engine::new(0.9);
        e.ingest(rec(0, 0, "Lumetra LX-100 camera", "CAM-LUM-00100"));
        let g1 = e.refresh();
        assert_eq!(g1.len(), 1);
        // second batch only dirties the new product's cluster
        e.ingest(rec(0, 1, "Visionex V-900 monitor", "MON-VIS-00900"));
        assert_eq!(e.dirty(), 1);
        let g2 = e.refresh();
        assert_eq!(g2.len(), 2);
        // previous generation is untouched (snapshot isolation upstream)
        assert_eq!(g1.len(), 1);
    }

    #[test]
    fn bridge_merges_entries_and_buries_dead_root() {
        let mut e = Engine::new(0.9);
        e.ingest(rec(0, 0, "Lumetra LX-100 camera", "CAM-LUM-00100"));
        e.ingest(rec(1, 0, "Orbix O-55 tripod", "TRI-ORB-00100"));
        let before = e.refresh();
        assert_eq!(before.len(), 2);
        let mut bridge = rec(2, 0, "Lumetra LX-100 camera", "CAM-LUM-00100");
        bridge.identifiers.push("TRI-ORB-00100".into());
        bridge.title.push_str(" with Orbix O-55 tripod");
        e.ingest(bridge);
        let after = e.refresh();
        if e.clusters() == 1 {
            assert_eq!(after.len(), 1);
            let merged = after
                .lookup("TRI-ORB-00100")
                .expect("absorbed identifier resolves");
            assert_eq!(merged.pages.len(), 3);
        }
        assert_eq!(before.len(), 2, "old generation still readable");
    }

    #[test]
    fn export_from_state_round_trips_exactly() {
        let mut original = Engine::new(0.9);
        for i in 0..10u32 {
            original.ingest(rec(
                i % 3,
                i / 3,
                &format!("Gadget{} model{}", i / 2, i / 2),
                &format!("XXX-YYY-{:05}", i / 2),
            ));
        }
        original.refresh();
        // leave some work pending so dirty state round-trips too
        original.ingest(rec(0, 99, "Gadget0 model0", "XXX-YYY-00000"));

        let json = serde_json::to_string(&original.export_state()).unwrap();
        let state: EngineState = serde_json::from_str(&json).unwrap();
        let mut restored = Engine::from_state(state).expect("state is consistent");
        assert_eq!(restored.records(), original.records());
        assert_eq!(restored.clusters(), original.clusters());
        assert_eq!(restored.dirty(), original.dirty());
        assert_eq!(restored.threshold(), original.threshold());

        // both engines evolve identically from here on
        for (s, q) in [(1u32, 50u32), (2, 50), (0, 51)] {
            let a = original.ingest(rec(s, q, "Gadget1 model1", "XXX-YYY-00001"));
            let b = restored.ingest(rec(s, q, "Gadget1 model1", "XXX-YYY-00001"));
            assert_eq!(a.cluster, b.cluster);
            assert_eq!(a.absorbed, b.absorbed);
        }
        let ca = original.refresh();
        let cb = restored.refresh();
        assert_eq!(ca.len(), cb.len());
        let ids_a: Vec<usize> = ca.entries().iter().map(|e| e.id).collect();
        let ids_b: Vec<usize> = cb.entries().iter().map(|e| e.id).collect();
        assert_eq!(ids_a, ids_b, "cluster ids survive the round trip");
    }

    #[test]
    fn from_state_rejects_inconsistency() {
        let mut e = Engine::new(0.9);
        e.ingest(rec(0, 0, "Lumetra LX-100 camera", "CAM-LUM-00100"));
        let mut s = e.export_state();
        s.members.insert(9, vec![42]);
        assert!(Engine::from_state(s).is_none(), "member index out of range");
        let mut s = e.export_state();
        s.threshold = 7.0;
        assert!(Engine::from_state(s).is_none(), "threshold out of range");
    }

    #[test]
    fn attributes_fused_by_majority() {
        let mut e = Engine::new(0.9);
        for (s, color) in [(0, "black"), (1, "black"), (2, "silver")] {
            let mut r = rec(s, 0, "Lumetra LX-100 camera", "CAM-LUM-00100");
            r.attributes.insert("Color".into(), Value::str(color));
            e.ingest(r);
        }
        let catalog = e.refresh();
        let entry = catalog.lookup("CAM-LUM-00100").unwrap();
        assert_eq!(
            entry.attributes.get("color"),
            Some(&Value::str("black").canonical())
        );
    }
}
