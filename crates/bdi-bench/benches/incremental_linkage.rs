//! E9 (perf view): per-record insert cost of the incremental linker.

use bdi_bench::worlds;
use bdi_linkage::incremental::IncrementalLinker;
use bdi_linkage::matcher::IdentifierRule;
use bdi_synth::World;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_incremental(c: &mut Criterion) {
    let w = World::generate(worlds::linkage_world(91, 300, 15));
    let records: Vec<_> = w.dataset.records().to_vec();
    c.bench_function("incremental_insert_full_corpus", |b| {
        b.iter(|| {
            let mut linker = IncrementalLinker::for_products(IdentifierRule::default(), 0.9);
            for r in &records {
                linker.insert(black_box(r.clone()));
            }
            linker.comparisons()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_incremental
}

criterion_main!(benches);
