//! Helpers shared by the integration suites (`mod common;` in each).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temporal_motifs::prelude::*;

/// Seeded random graph: `events` events over `nodes` nodes with
/// timestamps in `0..horizon` (duplicates and ties on purpose, so ties
/// straddle shard cuts).
pub fn random_graph(seed: u64, nodes: u32, events: usize, horizon: i64) -> TemporalGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Vec::with_capacity(events);
    while batch.len() < events {
        let u: u32 = rng.gen_range(0..nodes);
        let v: u32 = rng.gen_range(0..nodes);
        if u == v {
            continue;
        }
        batch.push(Event::new(u, v, rng.gen_range(0i64..horizon)));
    }
    TemporalGraph::from_events(batch).expect("non-empty batch")
}
