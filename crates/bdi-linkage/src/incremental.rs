//! Incremental linkage: maintain clusters while records arrive.
//!
//! At web velocity, re-linking the full corpus on every crawl is
//! unaffordable. The incremental linker keeps a blocking index and a
//! union-find; each arriving record is compared only against the records
//! sharing a blocking key with it, then unioned with those that match.
//! Cost per insert is proportional to its candidate count, not corpus
//! size — experiment E9 measures that separation.

use crate::blocking::BlockingKey;
use crate::cluster::{Clustering, UnionFind};
use crate::fingerprint::{PreparedRecord, RecordFingerprint};
use crate::matcher::Matcher;
use bdi_types::{Record, RecordId};
use std::collections::HashMap;

/// Online record linker.
pub struct IncrementalLinker<M> {
    matcher: M,
    threshold: f64,
    keys: Vec<BlockingKey>,
    index: HashMap<String, Vec<usize>>,
    records: Vec<Record>,
    /// One fingerprint per record, index-aligned with `records`. Derived
    /// state: rebuilt on [`IncrementalLinker::restore`], never exported.
    fingerprints: Vec<RecordFingerprint>,
    by_id: HashMap<RecordId, usize>,
    uf: UnionFind,
    comparisons: u64,
    /// Frequency-tier boundary: posting lists at or below this length
    /// contribute every entry to candidate generation.
    max_postings: usize,
    /// Hot-key cap: posting lists longer than `max_postings` contribute
    /// their oldest `hot_postings` entries instead of being dropped
    /// wholesale (entries skipped past the cap are counted in
    /// `postings_skipped`, so the recall/cost trade-off is observable).
    hot_postings: usize,
    /// Admissible candidate pruning (root-skip + matcher score bound).
    /// On by default; disabling it is for equivalence testing — the
    /// clustering outcome is identical either way.
    prune: bool,
    /// Candidates skipped because their union-find root was already
    /// merged with the arriving record this insert.
    pruned_root: u64,
    /// Candidates skipped because [`Matcher::score_bound`] fell below
    /// the match threshold.
    pruned_bound: u64,
    /// Posting-list entries dropped by the hot-key cap.
    postings_skipped: u64,
}

impl<M: Matcher> IncrementalLinker<M> {
    /// Create with a matcher, a match threshold, and the blocking keys to
    /// index on (identifier digits + title tokens is the useful default).
    pub fn new(matcher: M, threshold: f64, keys: Vec<BlockingKey>) -> Self {
        assert!((0.0..=1.0).contains(&threshold), "threshold in [0,1]");
        assert!(!keys.is_empty(), "need at least one blocking key");
        Self {
            matcher,
            threshold,
            keys,
            index: HashMap::new(),
            records: Vec::new(),
            fingerprints: Vec::new(),
            by_id: HashMap::new(),
            uf: UnionFind::new(0),
            comparisons: 0,
            max_postings: 200,
            hot_postings: 400,
            prune: true,
            pruned_root: 0,
            pruned_bound: 0,
            postings_skipped: 0,
        }
    }

    /// Default configuration for product records.
    pub fn for_products(matcher: M, threshold: f64) -> Self {
        Self::new(
            matcher,
            threshold,
            vec![BlockingKey::IdentifierDigits, BlockingKey::TitleTokens],
        )
    }

    /// Enable or disable admissible candidate pruning (on by default).
    /// Pruning never changes the clustering — skipped candidates are
    /// provably sub-threshold (score bound) or provably already merged
    /// (root-skip) — so the only observable difference is the
    /// comparison count. The off switch exists for the equivalence
    /// property test and for diagnosing a suspect matcher bound.
    pub fn with_pruning(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Insert one record, linking it against the current state.
    /// Returns the number of candidate comparisons performed.
    pub fn insert(&mut self, record: Record) -> usize {
        self.insert_traced(record).compared
    }

    /// Insert every record from an owning iterator (e.g.
    /// [`bdi_types::Dataset::into_records`]) without per-record cloning.
    pub fn extend(&mut self, records: impl IntoIterator<Item = Record>) {
        for record in records {
            self.insert(record);
        }
    }

    /// Insert one record and report which clusters the insert touched —
    /// the contract downstream incremental fusion needs to refresh only
    /// dirty clusters.
    pub fn insert_traced(&mut self, record: Record) -> InsertTrace {
        self.insert_traced_timed(record).0
    }

    /// [`IncrementalLinker::insert_traced`] plus wall-clock phase
    /// timings. The trace is byte-identical to the untimed call (that
    /// method delegates here); timings ride alongside so observability
    /// never perturbs the equivalence contracts pinned on
    /// [`InsertTrace`].
    pub fn insert_traced_timed(&mut self, record: Record) -> (InsertTrace, InsertTimings) {
        let t0 = std::time::Instant::now();
        let idx = self.records.len();
        let uf_idx = self.uf.push();
        debug_assert_eq!(idx, uf_idx);

        // the only per-record tokenization/normalization pass: blocking
        // keys and all comparison features come from this fingerprint
        let fp = RecordFingerprint::of(&record);

        // collect candidates via the index
        let mut cand: Vec<usize> = Vec::new();
        let mut record_keys: Vec<String> = Vec::new();
        for key in &self.keys {
            for k in key.keys_fp(&fp) {
                if k.is_empty() {
                    continue;
                }
                if let Some(posting) = self.index.get(&k) {
                    if posting.len() <= self.max_postings {
                        cand.extend(posting.iter().copied());
                    } else {
                        // hot key: take the oldest `hot_postings` entries
                        // (a deterministic prefix — postings append in
                        // arrival order) instead of dropping the list
                        let cap = self.hot_postings.min(posting.len());
                        cand.extend(posting[..cap].iter().copied());
                        self.postings_skipped += (posting.len() - cap) as u64;
                    }
                }
                record_keys.push(k);
            }
        }
        cand.sort_unstable();
        cand.dedup();
        let t_candidates = t0.elapsed();

        // score and union in ascending candidate order. Pruning applies
        // two admissible filters per candidate, interleaved with scoring
        // so a pruned candidate costs no matcher work at all:
        //   1. root-skip — the candidate's root already equals the
        //      arriving record's root, so a match could only re-union an
        //      existing component (idempotent: outcome unchanged);
        //   2. score bound — `Matcher::score_bound` (>= the true score
        //      by contract) falls below the threshold, so the candidate
        //      provably cannot match.
        let t1 = std::time::Instant::now();
        let mut compared = 0;
        let mut pruned_root = 0u64;
        let mut pruned_bound = 0u64;
        let mut merged_roots: Vec<usize> = Vec::new();
        let arriving = PreparedRecord::new(&record, &fp);
        for &c in &cand {
            let other = &self.records[c];
            if other.id.source == record.id.source {
                continue; // same-source skip
            }
            if self.prune && self.uf.find(c) == self.uf.find(idx) {
                pruned_root += 1;
                continue;
            }
            let prepared = PreparedRecord::new(other, &self.fingerprints[c]);
            if self.prune && self.matcher.score_bound(prepared, arriving) < self.threshold {
                pruned_bound += 1;
                continue;
            }
            let s = self.matcher.score_prepared(prepared, arriving);
            compared += 1;
            if s >= self.threshold {
                // Record the candidate's pre-union root: any root that
                // is not the final one was absorbed by this insert.
                merged_roots.push(self.uf.find(c));
                self.uf.union(c, idx);
            }
        }
        let t_scoring = t1.elapsed();
        let t2 = std::time::Instant::now();
        self.comparisons += compared as u64;
        self.pruned_root += pruned_root;
        self.pruned_bound += pruned_bound;

        // register
        record_keys.sort_unstable();
        record_keys.dedup();
        for k in record_keys {
            self.index.entry(k).or_default().push(idx);
        }
        self.by_id.insert(record.id, idx);
        self.records.push(record);
        self.fingerprints.push(fp);

        let cluster = self.uf.find(idx);
        merged_roots.sort_unstable();
        merged_roots.dedup();
        merged_roots.retain(|&r| r != cluster);
        let saturating_ns =
            |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        (
            InsertTrace {
                compared,
                index: idx,
                cluster,
                absorbed: merged_roots,
            },
            InsertTimings {
                candidates_ns: saturating_ns(t_candidates),
                scoring_ns: saturating_ns(t_scoring),
                union_ns: saturating_ns(t2.elapsed()),
            },
        )
    }

    /// Total pairwise comparisons performed so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Candidates skipped so far because their root was already merged
    /// with the arriving record (root-skip filter).
    pub fn pruned_root(&self) -> u64 {
        self.pruned_root
    }

    /// Candidates skipped so far because the matcher's admissible score
    /// bound fell below the match threshold.
    pub fn pruned_bound(&self) -> u64 {
        self.pruned_bound
    }

    /// Posting-list entries skipped so far by the hot-key cap during
    /// candidate generation.
    pub fn postings_skipped(&self) -> u64 {
        self.postings_skipped
    }

    /// Number of records inserted.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Snapshot the current clustering.
    pub fn clustering(&mut self) -> Clustering {
        let ids: Vec<RecordId> = self.records.iter().map(|r| r.id).collect();
        let clusters = self
            .uf
            .groups()
            .into_iter()
            .map(|g| g.into_iter().map(|i| ids[i]).collect())
            .collect();
        Clustering::from_clusters(clusters)
    }

    /// Are two inserted records currently linked?
    pub fn linked(&mut self, a: RecordId, b: RecordId) -> Option<bool> {
        let (ia, ib) = (*self.by_id.get(&a)?, *self.by_id.get(&b)?);
        Some(self.uf.connected(ia, ib))
    }

    /// All inserted records, in arrival order (index = insert position).
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Current cluster root for the record at `index`.
    pub fn cluster_of(&mut self, index: usize) -> usize {
        self.uf.find(index)
    }

    /// Record indices grouped by current cluster root.
    pub fn members_by_root(&mut self) -> HashMap<usize, Vec<usize>> {
        let mut members: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..self.records.len() {
            members.entry(self.uf.find(i)).or_default().push(i);
        }
        members
    }

    /// Snapshot the linker's durable state: the records in arrival order
    /// plus the raw union-find forest. The blocking index and the id map
    /// are *derived* state (pure functions of the record sequence) and are
    /// rebuilt by [`IncrementalLinker::restore`], so they are not part of
    /// the snapshot.
    pub fn export_state(&self) -> LinkerState {
        let (parents, ranks) = self.uf.parts();
        LinkerState {
            records: self.records.clone(),
            parents,
            ranks,
            comparisons: self.comparisons,
        }
    }

    /// Rebuild a linker from a [`LinkerState`] previously taken with
    /// [`IncrementalLinker::export_state`]. The blocking index and id map
    /// are reconstructed by key extraction only — no pairwise matching is
    /// re-run, so restore cost is linear in the record count. Returns
    /// `None` when the state is internally inconsistent (array length
    /// mismatch or an out-of-range parent pointer).
    ///
    /// `matcher`, `threshold` and `keys` must match the configuration the
    /// state was exported under for subsequent inserts to behave as if the
    /// linker had never been torn down.
    pub fn restore(
        matcher: M,
        threshold: f64,
        keys: Vec<BlockingKey>,
        state: LinkerState,
    ) -> Option<Self> {
        assert!((0.0..=1.0).contains(&threshold), "threshold in [0,1]");
        assert!(!keys.is_empty(), "need at least one blocking key");
        if state.parents.len() != state.records.len() {
            return None;
        }
        let uf = UnionFind::from_parts(state.parents, state.ranks)?;
        // fingerprints are derived state: recomputed here from the record
        // sequence, exactly as the original inserts computed them
        let fingerprints: Vec<RecordFingerprint> =
            state.records.iter().map(RecordFingerprint::of).collect();
        let mut index: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_id = HashMap::new();
        for (idx, record) in state.records.iter().enumerate() {
            let mut record_keys: Vec<String> = keys
                .iter()
                .flat_map(|key| key.keys_fp(&fingerprints[idx]))
                .filter(|k| !k.is_empty())
                .collect();
            record_keys.sort_unstable();
            record_keys.dedup();
            for k in record_keys {
                index.entry(k).or_default().push(idx);
            }
            by_id.insert(record.id, idx);
        }
        Some(Self {
            matcher,
            threshold,
            keys,
            index,
            records: state.records,
            fingerprints,
            by_id,
            uf,
            comparisons: state.comparisons,
            // pruning configuration must match `new` exactly: a restored
            // linker makes the same skip decisions (and reports the same
            // comparison counts) as one that was never torn down. The
            // cumulative pruning counters are instrumentation, not
            // durable state — they restart at zero.
            max_postings: 200,
            hot_postings: 400,
            prune: true,
            pruned_root: 0,
            pruned_bound: 0,
            postings_skipped: 0,
        })
    }
}

/// Durable state of an [`IncrementalLinker`], produced by
/// [`IncrementalLinker::export_state`]. Plain data — the serve layer
/// owns its serialization.
#[derive(Clone, Debug)]
pub struct LinkerState {
    /// Inserted records in arrival order (index = insert position).
    pub records: Vec<Record>,
    /// Raw union-find parent pointers, one per record.
    pub parents: Vec<usize>,
    /// Raw union-find ranks, one per record.
    pub ranks: Vec<u8>,
    /// Total pairwise comparisons performed so far.
    pub comparisons: u64,
}

/// Wall-clock phase timings of one
/// [`IncrementalLinker::insert_traced_timed`] call, in nanoseconds.
/// Instrumentation-only plain data — kept apart from [`InsertTrace`] so
/// the trace stays a pure, comparable description of the clustering
/// outcome (timings are never equal across runs; traces must be).
#[derive(Clone, Copy, Debug, Default)]
pub struct InsertTimings {
    /// Fingerprinting the arrival plus collecting candidates from the
    /// blocking index (key extraction, posting-list union, dedup).
    pub candidates_ns: u64,
    /// Scoring the candidate list: the fused prune/score/union loop
    /// (pruning interleaves with scoring so skipped candidates cost no
    /// matcher work).
    pub scoring_ns: u64,
    /// Registering the record into the index.
    pub union_ns: u64,
}

/// Outcome of one [`IncrementalLinker::insert_traced`] call.
///
/// Union-find roots only ever disappear by absorption — an absorbed root
/// can never become a root again — so `absorbed` is a safe list of
/// permanently dead cluster keys and `cluster` the single dirty one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InsertTrace {
    /// Candidate comparisons performed for this insert.
    pub compared: usize,
    /// Arrival index assigned to the inserted record.
    pub index: usize,
    /// Root of the cluster containing the record after all unions.
    pub cluster: usize,
    /// Pre-union roots of formerly distinct clusters merged into
    /// `cluster` by this insert.
    pub absorbed: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::IdentifierRule;
    use bdi_types::{RecordId, SourceId};

    fn rec(s: u32, q: u32, title: &str, id: Option<&str>) -> Record {
        let mut r = Record::new(RecordId::new(SourceId(s), q), title);
        if let Some(i) = id {
            r.identifiers.push(i.into());
        }
        r
    }

    #[test]
    fn incremental_links_matching_arrivals() {
        let mut linker = IncrementalLinker::for_products(IdentifierRule::default(), 0.9);
        linker.insert(rec(0, 0, "Lumetra LX-100 camera", Some("CAM-LUM-00100")));
        linker.insert(rec(1, 0, "Lumetra LX-100", Some("camlum00100")));
        linker.insert(rec(2, 0, "Visionex V-900 monitor", Some("MON-VIS-00900")));
        assert_eq!(
            linker.linked(RecordId::new(SourceId(0), 0), RecordId::new(SourceId(1), 0)),
            Some(true)
        );
        assert_eq!(
            linker.linked(RecordId::new(SourceId(0), 0), RecordId::new(SourceId(2), 0)),
            Some(false)
        );
        let c = linker.clustering();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn comparisons_stay_local() {
        let mut linker = IncrementalLinker::for_products(IdentifierRule::default(), 0.9);
        // insert 30 unrelated products (distinct titles), then one match
        for i in 0..30u32 {
            linker.insert(rec(
                0,
                i,
                &format!("Gadget{i} model{i}"),
                Some(&format!("XXX-YYY-{i:05}")),
            ));
        }
        let compared = linker.insert(rec(1, 0, "Gadget5 model5", Some("XXX-YYY-00005")));
        // candidates come only from shared keys, far fewer than corpus size
        assert!(compared < 30, "compared {compared} — index not pruning");
        assert!(compared >= 1);
    }

    #[test]
    fn same_source_never_linked() {
        let mut linker = IncrementalLinker::for_products(IdentifierRule::default(), 0.5);
        linker.insert(rec(0, 0, "Lumetra LX-100 camera", Some("CAM-LUM-00100")));
        linker.insert(rec(0, 1, "Lumetra LX-100 camera", Some("CAM-LUM-00100")));
        assert_eq!(
            linker.linked(RecordId::new(SourceId(0), 0), RecordId::new(SourceId(0), 1)),
            Some(false)
        );
    }

    #[test]
    #[should_panic(expected = "at least one blocking key")]
    fn empty_keys_rejected() {
        IncrementalLinker::new(IdentifierRule::default(), 0.5, vec![]);
    }

    #[test]
    fn traced_insert_reports_touched_clusters() {
        let mut linker = IncrementalLinker::for_products(IdentifierRule::default(), 0.9);
        let a = linker.insert_traced(rec(0, 0, "Lumetra LX-100 camera", Some("CAM-LUM-00100")));
        assert_eq!((a.index, a.cluster), (0, 0));
        assert!(a.absorbed.is_empty(), "first insert cannot absorb anything");

        let b = linker.insert_traced(rec(1, 0, "Visionex V-900 monitor", Some("MON-VIS-00900")));
        assert!(
            b.absorbed.is_empty(),
            "unrelated insert cannot absorb anything"
        );

        let m = linker.insert_traced(rec(2, 0, "Lumetra LX-100", Some("camlum00100")));
        assert_eq!(
            m.cluster,
            linker.cluster_of(0),
            "merge lands in the camera cluster"
        );
        for &r in &m.absorbed {
            assert_ne!(r, m.cluster, "a cluster never absorbs itself");
        }
    }

    #[test]
    fn traced_bridge_absorbs_previously_distinct_roots() {
        let mut linker = IncrementalLinker::for_products(IdentifierRule::default(), 0.9);
        // Two clusters with the same identifier digits but disjoint sources.
        linker.insert(rec(0, 0, "Lumetra LX-100 camera", Some("CAM-LUM-00100")));
        linker.insert(rec(1, 0, "Orbix O-55 tripod", Some("TRI-ORB-00100")));
        let ra = linker.cluster_of(0);
        let rb = linker.cluster_of(1);
        assert_ne!(ra, rb);
        // A record matching both bridges them into one cluster.
        let mut bridge = rec(2, 0, "Lumetra LX-100 camera", Some("CAM-LUM-00100"));
        bridge.identifiers.push("TRI-ORB-00100".into());
        bridge.title.push_str(" with Orbix O-55 tripod");
        let t = linker.insert_traced(bridge);
        if linker.cluster_of(0) == linker.cluster_of(1) {
            assert!(
                !t.absorbed.is_empty(),
                "bridging two roots must absorb at least one of them"
            );
            let mut touched = t.absorbed.clone();
            touched.push(t.cluster);
            assert!(touched.contains(&ra) || touched.contains(&rb));
        }
    }

    #[test]
    fn export_restore_round_trips_and_keeps_linking() {
        let make = |i: u32, s: u32| {
            rec(
                s,
                i,
                &format!("Gadget{i} model{i}"),
                Some(&format!("XXX-YYY-{i:05}")),
            )
        };
        let mut original = IncrementalLinker::for_products(IdentifierRule::default(), 0.9);
        for i in 0..12u32 {
            original.insert(make(i, 0));
            original.insert(make(i, 1));
        }
        let state = original.export_state();
        let mut restored = IncrementalLinker::restore(
            IdentifierRule::default(),
            0.9,
            vec![BlockingKey::IdentifierDigits, BlockingKey::TitleTokens],
            state,
        )
        .expect("state is consistent");
        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.comparisons(), original.comparisons());
        assert_eq!(
            restored.clustering().clusters(),
            original.clustering().clusters()
        );
        // the same future inserts behave identically on both linkers
        for i in 0..12u32 {
            let a = original.insert_traced(make(i, 2));
            let b = restored.insert_traced(make(i, 2));
            assert_eq!(a.compared, b.compared, "same candidates after restore");
            assert_eq!(a.cluster, b.cluster, "same cluster roots after restore");
            assert_eq!(a.absorbed, b.absorbed);
        }
        assert_eq!(
            restored.clustering().clusters(),
            original.clustering().clusters()
        );
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        let mut linker = IncrementalLinker::for_products(IdentifierRule::default(), 0.9);
        linker.insert(rec(0, 0, "Lumetra LX-100 camera", Some("CAM-LUM-00100")));
        let mut state = linker.export_state();
        state.parents.push(0);
        state.ranks.push(0);
        assert!(IncrementalLinker::restore(
            IdentifierRule::default(),
            0.9,
            vec![BlockingKey::IdentifierDigits],
            state,
        )
        .is_none());
    }

    #[test]
    fn pruned_and_unpruned_clusterings_are_identical() {
        // adversarial corpus: shared title tokens (shared roots),
        // identifier evidence inside groups, same-source candidates via
        // the source cycle
        let corpus: Vec<Record> = (0..96u32)
            .map(|i| {
                rec(
                    i % 4,
                    i,
                    &format!("Gadget{} common widget", i / 8),
                    Some(&format!("XXX-YYY-{:05}", i / 8)),
                )
            })
            .collect();
        let run = |prune: bool| {
            let mut linker =
                IncrementalLinker::for_products(IdentifierRule::default(), 0.9).with_pruning(prune);
            let outcomes: Vec<(usize, usize, Vec<usize>)> = corpus
                .iter()
                .cloned()
                .map(|r| {
                    let t = linker.insert_traced(r);
                    (t.index, t.cluster, t.absorbed)
                })
                .collect();
            let pruned = linker.pruned_root() + linker.pruned_bound();
            (outcomes, linker.clustering().clusters().to_vec(), pruned)
        };
        let (pruned_outcomes, pruned_clusters, pruned) = run(true);
        let (full_outcomes, full_clusters, _) = run(false);
        assert!(
            pruned > 0,
            "corpus produced no pruning (else the equivalence check is vacuous)"
        );
        assert_eq!(pruned_outcomes, full_outcomes, "per-insert traces diverged");
        assert_eq!(pruned_clusters, full_clusters, "clusterings diverged");
    }

    #[test]
    fn hot_keys_contribute_capped_postings_instead_of_nothing() {
        // 450 same-source records sharing one title token push the
        // "widget" posting list past the hot cap (400); an arrival from
        // another source must still see candidates from it (the hot-key
        // tier), with the overflow counted, not silently dropped
        let mut linker = IncrementalLinker::for_products(IdentifierRule::default(), 0.9);
        for i in 0..450u32 {
            linker.insert(rec(
                0,
                i,
                &format!("Gadget{i} widget"),
                Some(&format!("XXX-YYY-{i:05}")),
            ));
        }
        let t = linker.insert_traced(rec(1, 0, "Gadget7 widget", Some("XXX-YYY-00007")));
        assert!(
            linker.postings_skipped() > 0,
            "overflow past the hot cap is counted"
        );
        // record 7 sits in the oldest 400 postings of "widget" (and
        // shares the "gadget7" and digit keys), so the pair still links
        assert_eq!(t.cluster, linker.cluster_of(7));
    }

    #[test]
    fn extend_matches_repeated_insert() {
        let records: Vec<Record> = (0..10u32)
            .flat_map(|i| {
                [
                    rec(
                        0,
                        i,
                        &format!("Gadget{i} model{i}"),
                        Some(&format!("XXX-YYY-{i:05}")),
                    ),
                    rec(
                        1,
                        i,
                        &format!("Gadget{i} model{i}"),
                        Some(&format!("XXX-YYY-{i:05}")),
                    ),
                ]
            })
            .collect();
        let mut by_insert = IncrementalLinker::for_products(IdentifierRule::default(), 0.9);
        for r in records.clone() {
            by_insert.insert(r);
        }
        let mut by_extend = IncrementalLinker::for_products(IdentifierRule::default(), 0.9);
        by_extend.extend(records);
        assert_eq!(by_insert.len(), by_extend.len());
        assert_eq!(by_insert.comparisons(), by_extend.comparisons());
        assert_eq!(
            by_insert.clustering().clusters(),
            by_extend.clustering().clusters()
        );
    }
}
