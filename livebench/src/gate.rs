//! The correctness gate: what the server answers must equal an
//! in-process [`Engine`] fed the same records in the same order.

use crate::world::BenchWorld;
use bdi_core::catalog::Catalog;
use bdi_serve::{Client, Engine};
use bdi_types::Record;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// `bdi serve`'s default `--threshold`.
pub const THRESHOLD: f64 = 0.9;
/// Lookups compared entry for entry.
const SAMPLED_LOOKUPS: usize = 200;

/// The end state the server must reach.
pub struct Reference {
    pub records: usize,
    pub catalog: Arc<Catalog>,
    /// Per stream batch, the record whose identifier leads to it once
    /// the batch is applied (none if no record of the batch qualifies).
    pub probes: Vec<Option<Record>>,
}

/// Replay `preload` at once and `stream` in batches of `batch`. After
/// each stream batch, pick its last record that a `lookup` of its own
/// primary identifier returns: most do, but an identifier can lead to
/// another cluster that also claims it.
pub fn reference(preload: &[Record], stream: &[Record], batch: usize) -> Reference {
    let mut engine = Engine::new(THRESHOLD);
    engine.ingest_batch(preload.to_vec());
    let mut probes = Vec::new();
    for chunk in stream.chunks(batch.max(1)) {
        engine.ingest_batch(chunk.to_vec());
        let catalog = engine.refresh();
        let leads_home = |r: &&Record| {
            r.primary_identifier()
                .and_then(|id| catalog.lookup(id))
                .is_some_and(|e| e.pages.contains(&r.id))
        };
        probes.push(chunk.iter().rev().find(leads_home).cloned());
    }
    Reference {
        records: engine.records(),
        catalog: engine.refresh(),
        probes,
    }
}

/// Compare a catalog built elsewhere in-process (the traced replay's)
/// with the reference.
pub fn same_catalog(reference: &Reference, other: &Catalog) -> Result<(), String> {
    if reference.catalog.entries() == other.entries() {
        Ok(())
    } else {
        Err(format!(
            "replayed catalog has {} products, reference {}; or entries differ",
            other.len(),
            reference.catalog.len()
        ))
    }
}

/// Counters and sampled lookups of the live server against the
/// reference. `client` may speak to a backend or through the router.
pub fn check(client: &mut Client, reference: &Reference, world: &BenchWorld) -> Result<(), String> {
    let io = |e: std::io::Error| format!("gate request failed: {e}");
    let stats = client.stats().map_err(io)?;
    if stats.records != reference.records {
        return Err(format!(
            "server holds {} records, {} were sent",
            stats.records, reference.records
        ));
    }
    if stats.applied != stats.submitted {
        return Err(format!(
            "applied {} != submitted {} after flush",
            stats.applied, stats.submitted
        ));
    }
    if stats.products != reference.catalog.len() {
        return Err(format!(
            "server has {} products, reference {}",
            stats.products,
            reference.catalog.len()
        ));
    }
    let mut rng = StdRng::seed_from_u64(world.seed ^ 0x6A7E);
    for k in 0..SAMPLED_LOOKUPS {
        // every tenth is an identifier nobody published
        let unknown = format!("ZZZ-UNK-{k:06}");
        let id = if k % 10 == 9 {
            &unknown
        } else {
            &world.identifiers[rng.gen_range(0..world.identifiers.len())]
        };
        let served = client.lookup(id).map_err(io)?;
        if served.as_ref() != reference.catalog.lookup(id) {
            return Err(format!("lookup {id:?} differs from the reference"));
        }
    }
    Ok(())
}
