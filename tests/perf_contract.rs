//! Perf contract: candidate pruning must keep the similarity-join cost
//! of the serve hot path at its committed ceiling. This replays the
//! exact dense world the `serve_hot_path` bench measures (seed 7,
//! 400 entities x 24 sources, `max_source_size` 400) through an
//! offline engine and asserts the per-insert comparison count — a
//! deterministic function of the stream, independent of host speed —
//! stays at or under the ceiling committed with the pruning work.
//!
//! The unpruned engine measured 38.7 comparisons per insert on this
//! world; root-skip plus the admissible score-bound filter brought it
//! under 13. A regression here means a pruning filter stopped firing
//! (or the blocking index got more promiscuous) — catch it in CI, not
//! in the next bench run.

use bdi::serve::Engine;
use bdi::synth::{World, WorldConfig};

/// Committed ceiling on mean pairwise comparisons per inserted record
/// over the dense bench world. History: 38.7 before candidate pruning.
const COMPARISONS_PER_INSERT_CEILING: f64 = 13.0;

#[test]
fn dense_world_comparisons_per_insert_stay_under_ceiling() {
    let world = World::generate(WorldConfig {
        n_entities: 400,
        n_sources: 24,
        max_source_size: 400,
        ..WorldConfig::tiny(7)
    });
    let records = world.dataset.into_records();
    let total = records.len() as u64;
    assert!(total > 1000, "dense world generates a real stream");

    let mut engine = Engine::new(0.9);
    for r in records {
        engine.ingest(r);
    }
    let per_insert = engine.comparisons() as f64 / total as f64;
    assert!(
        per_insert <= COMPARISONS_PER_INSERT_CEILING,
        "{per_insert:.1} comparisons/insert exceeds the committed ceiling \
         {COMPARISONS_PER_INSERT_CEILING} ({} comparisons over {total} records); \
         a pruning filter stopped firing",
        engine.comparisons()
    );
    // the filters actually ran — a ceiling met by accident (tiny world,
    // empty posting lists) would make the assertion above vacuous
    assert!(
        engine.pruned_bound() > 0,
        "score-bound filter never fired on the dense world"
    );
    assert!(
        engine.pruned_root() > 0,
        "root-skip filter never fired on the dense world"
    );
    println!(
        "perf contract: {per_insert:.2} comparisons/insert over {total} records \
         (pruned: root {}, bound {}; postings skipped {})",
        engine.pruned_root(),
        engine.pruned_bound(),
        engine.postings_skipped()
    );
}
