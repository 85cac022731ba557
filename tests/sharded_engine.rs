//! Sharded-subsystem integration suite: planner geometry through the
//! public API, exactness of the worker-process transport under
//! graph-global restrictions, and the `EngineKind` seam.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temporal_motifs::prelude::*;
use tnm_graph::shard::{plan_shards, ShardGoal};
use tnm_motifs::engine::ShardedEngine;

/// Deterministic tie-rich random graph (same generator shape as the
/// equivalence suite's).
fn random_graph(seed: u64, nodes: u32, events: usize, horizon: i64) -> TemporalGraph {
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

/// The halo is reach-sized, so `max_shard_events` stays near
/// `shard_events + (events within reach)` instead of degenerating to
/// the whole graph.
#[test]
fn halos_stay_bounded_by_reach() {
    let g = random_graph(7, 30, 6_000, 30_000);
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(100));
    let reach = cfg.admissible_reach(&g).expect("ΔW bounds the reach");
    assert_eq!(reach, 100);
    let plan = plan_shards(&g, Some(reach), ShardGoal::EventsPerShard(400));
    // ~0.2 events per second ⇒ a 100 s halo holds a few dozen events;
    // 4× leaves generous slack while still catching a runaway halo.
    let density = g.num_events() as f64 / g.timespan() as f64;
    let halo_budget = (4.0 * density * reach as f64) as usize + 400;
    for spec in &plan.shards {
        assert!(
            spec.num_events() <= 400 + halo_budget,
            "shard {} materializes {} events (owned {}, pad {}, halo {})",
            spec.id,
            spec.num_events(),
            spec.num_owned(),
            spec.pad_len(),
            spec.halo_len()
        );
    }
}

/// The worker-process transport is bit-exact against the serial
/// engines even with graph-global restrictions enabled (consecutive
/// events need the pad; static inducedness needs the coordinator's
/// parent-graph recheck).
#[test]
fn spilled_counts_match_with_global_restrictions() {
    let g = random_graph(21, 15, 2_000, 5_000);
    let base = EnumConfig::new(3, 3).with_timing(Timing::both(40, 90));
    let variants = [
        ("plain", base.clone()),
        ("consecutive", base.clone().with_consecutive(true)),
        ("induced", base.clone().with_static_induced(true)),
        ("constrained", base.clone().with_constrained(true)),
    ];
    for (label, cfg) in variants {
        let reference = WindowedEngine.count(&g, &cfg);
        assert_eq!(
            ShardedEngine::new(150).with_workers(2).count(&g, &cfg),
            reference,
            "{label}: worker processes"
        );
        assert_eq!(
            ShardedEngine::new(150).with_workers(2).with_threads(3).count(&g, &cfg),
            reference,
            "{label}: worker processes + threads"
        );
    }
}

/// Sharded runs behave through the `EngineKind` seam used by the CLI
/// and the experiment drivers: parameters survive, reports are exact.
#[test]
fn engine_kind_round_trip() {
    let g = random_graph(11, 12, 800, 2_500);
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(60));
    let reference = WindowedEngine.count(&g, &cfg);
    for workers in [0, 2] {
        let kind = EngineKind::sharded(90, workers);
        assert_eq!(kind.count(&g, &cfg, 2), reference, "workers={workers}");
        let report = kind.report(&g, &cfg, 2);
        assert!(report.exact);
        assert_eq!(report.engine, "sharded");
        assert_eq!(report.counts, reference);
        assert!(report.total.is_exact());
    }
    assert_eq!("sharded".parse::<EngineKind>().unwrap().count(&g, &cfg, 1), reference);
}
