//! The in-thread sharded engine's residency figures, read from the
//! process-global metrics registry.
//!
//! The test has this binary to itself: every other sharded count in a
//! shared process would also load shards and bump `shard.loads` while
//! the metrics switch is on, so the counter would no longer equal this
//! run's shard count.

use temporal_motifs::prelude::*;
use tnm_graph::TemporalGraphBuilder;
use tnm_motifs::engine::ShardedEngine;

/// Deterministic LCG graph with timestamp ties.
fn lcg_graph(events: usize, nodes: u32, span: i64) -> TemporalGraph {
    let mut b = TemporalGraphBuilder::new();
    let mut x = 0x9E3779B97F4A7C15u64;
    for i in 0..events {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = ((x >> 33) % nodes as u64) as u32;
        let v = (u + 1 + ((x >> 13) % (nodes as u64 - 2)) as u32) % nodes;
        let t = (i as i64 * span) / events as i64;
        b.push(Event::new(u, v, t));
    }
    b.build().unwrap()
}

#[test]
fn stats_expose_residency() {
    tnm_obs::set_enabled(true);
    tnm_obs::global().reset();
    let g = lcg_graph(400, 16, 600);
    let cfg = EnumConfig::new(2, 2).with_timing(Timing::only_w(15));
    let (_, stats) = ShardedEngine::new(50).count_with_stats(&g, &cfg);
    let snap = tnm_obs::global().snapshot();
    tnm_obs::set_enabled(false);
    assert!(stats.shards >= 8);
    assert_eq!(stats.workers_spawned, 0);
    // Residency high-water mark comes from the registry: one shard
    // at a time, so the gauge peak honors the largest shard.
    let peak = snap.gauges["shard.resident_events"].peak as usize;
    assert!(peak <= stats.max_shard_events);
    assert_eq!(snap.counters["shard.loads"], stats.shards as u64);
}
