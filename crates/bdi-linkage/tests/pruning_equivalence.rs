//! Candidate pruning is only allowed to exist because it is *exactly*
//! the unpruned computation with provably-redundant work removed: these
//! properties pin the pruned linker to the unpruned one bit-identically
//! over adversarial record streams — shared blocking roots, scores that
//! hover around the threshold, same-source candidates — and pin the
//! admissibility contract (`score_bound >= score_prepared`) that the
//! bound filter's correctness rests on.

use bdi_linkage::incremental::IncrementalLinker;
use bdi_linkage::matcher::{IdentifierRule, Matcher};
use bdi_linkage::{PreparedRecord, RecordFingerprint};
use bdi_types::{Record, RecordId, SourceId};
use proptest::prelude::*;

/// Raw material for one stream record, engineered to collide: titles are
/// drawn from a tiny token pool (so blocking keys are shared across most
/// of the stream and near-threshold title-only scores are common),
/// identifiers from a small digit pool (so exact-id, digit-run, and
/// no-evidence candidates all occur), sources from a small cycle (so
/// same-source candidates are dense).
type RawRecord = (u32, Vec<u8>, u8, u8);

const TOKENS: [&str; 8] = [
    "gadget", "widget", "lumetra", "camera", "pro", "mk2", "bundle", "kit",
];

fn build(seq: u32, raw: RawRecord) -> Record {
    let (source, title_picks, id_pick, id_prefixed) = raw;
    let title = title_picks
        .iter()
        .map(|&t| TOKENS[t as usize % TOKENS.len()])
        .collect::<Vec<_>>()
        .join(" ");
    let mut r = Record::new(RecordId::new(SourceId(source), seq), title);
    // half the draws carry no identifier at all; the rest use two
    // spellings of the same digit run so the exact and digit-run-only
    // identifier branches both occur
    if id_pick < 12 {
        r.identifiers.push(if id_prefixed == 0 {
            format!("CAM-LUM-{:05}", id_pick % 6)
        } else {
            format!("camlum{:05}", id_pick % 6)
        });
    }
    r
}

fn raw_record() -> impl Strategy<Value = RawRecord> {
    (
        0u32..3,
        proptest::collection::vec(0u8..16, 0..5),
        0u8..24,
        0u8..2,
    )
}

/// Everything observable about one linker run.
type Run = (Vec<(usize, usize, usize, Vec<usize>)>, Vec<Vec<RecordId>>);

fn run_stream<M: Matcher>(
    matcher: M,
    threshold: f64,
    prune: bool,
    records: &[Record],
) -> (Run, u64, (u64, u64)) {
    let mut linker = IncrementalLinker::for_products(matcher, threshold).with_pruning(prune);
    let traces = records
        .iter()
        .cloned()
        .map(|r| {
            let t = linker.insert_traced(r);
            (t.compared, t.index, t.cluster, t.absorbed)
        })
        .collect();
    let clusters = linker.clustering().clusters().to_vec();
    let pruned = (linker.pruned_root(), linker.pruned_bound());
    ((traces, clusters), linker.comparisons(), pruned)
}

proptest! {
    /// The admissibility contract the bound filter rests on: for every
    /// pair, `score_bound` dominates `score_prepared` — exact `>=` on
    /// the raw `f64`s, no epsilon.
    #[test]
    fn score_bound_dominates_score(ra in raw_record(), rb in raw_record()) {
        let (a, b) = (build(0, ra), build(1, rb));
        let (fa, fb) = (RecordFingerprint::of(&a), RecordFingerprint::of(&b));
        let (pa, pb) = (PreparedRecord::new(&a, &fa), PreparedRecord::new(&b, &fb));
        let rule = IdentifierRule::default();
        prop_assert!(rule.score_bound(pa, pb) >= rule.score_prepared(pa, pb));
        prop_assert!(rule.score_bound(pb, pa) >= rule.score_prepared(pb, pa));
    }

    /// Pruned and unpruned streams produce bit-identical clusterings and
    /// per-insert traces (cluster root and absorbed roots; the comparison
    /// count is exactly what pruning is allowed to change), at several
    /// thresholds including ones where title-only scores can match.
    #[test]
    fn pruned_equals_unpruned_over_adversarial_streams(
        raws in proptest::collection::vec(raw_record(), 1..60),
        threshold_pick in 0usize..4,
    ) {
        let threshold = [0.5, 0.8, 0.9, 0.95][threshold_pick];
        let records: Vec<Record> = raws
            .into_iter()
            .enumerate()
            .map(|(i, raw)| build(i as u32, raw))
            .collect();
        let (pruned, pruned_cmp, _) =
            run_stream(IdentifierRule::default(), threshold, true, &records);
        let (full, full_cmp, _) =
            run_stream(IdentifierRule::default(), threshold, false, &records);
        // traces carry `compared`, which pruning legitimately lowers —
        // compare the clustering-relevant fields and the partitions
        type Stripped = (Vec<(usize, usize, Vec<usize>)>, Vec<Vec<RecordId>>);
        let strip = |run: &Run| -> Stripped {
            (
                run.0.iter().map(|t| (t.1, t.2, t.3.clone())).collect(),
                run.1.clone(),
            )
        };
        prop_assert_eq!(strip(&pruned), strip(&full), "clustering diverged");
        prop_assert!(pruned_cmp <= full_cmp, "pruning cannot add comparisons");
    }

    /// A pruned run is a pure function of its stream: a second linker
    /// over the same records repeats the traces, the comparison count
    /// and both pruning counters exactly — nothing the filters consult
    /// (posting order, union-find roots) depends on hash iteration
    /// order or any other per-process state.
    #[test]
    fn pruned_runs_repeat_exactly(
        raws in proptest::collection::vec(raw_record(), 1..40),
    ) {
        let records: Vec<Record> = raws
            .into_iter()
            .enumerate()
            .map(|(i, raw)| build(i as u32, raw))
            .collect();
        let base = run_stream(IdentifierRule::default(), 0.9, true, &records);
        let again = run_stream(IdentifierRule::default(), 0.9, true, &records);
        prop_assert_eq!(&again, &base, "a repeated run diverged");
    }
}
