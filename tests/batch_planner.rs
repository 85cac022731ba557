//! Batch-planner equivalence suite.
//!
//! The batch API's core contract: for any batch of configurations and
//! any engine kind, `count_batch` results are **bit-identical** to
//! per-config [`EngineKind::count`] calls. The planner may share
//! traversals however it likes — widest-timing walks with per-config
//! masks, union-prefix pruning for all-targeted groups, one stream-DP
//! pass projected per member, solo runs for unshareable kinds — but
//! none of it may leak into the counts. This suite pins the contract
//! across:
//!
//! * random mixed batches — models, ΔC/ΔW shapes, node budgets,
//!   signature targets, induced/non-induced — on seeded random graphs,
//!   for every shareable kind (auto, windowed, stream), on one and on
//!   three threads;
//! * single-config batches and duplicate configs (duplicates must fill
//!   every slot, identically);
//! * the canonical 36-motif Paranjape batch (one shared stream pass —
//!   the plan is pinned to a single group);
//! * solo kinds: sharded and sampling (seeded sampling estimates must
//!   be bit-identical to the per-config API);
//! * `enumerate_batch` against per-config `WindowedEngine::enumerate`,
//!   instance lists compared in order.

mod common;

use common::random_graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temporal_motifs::prelude::*;
use tnm_motifs::catalog::all_motifs;
use tnm_motifs::engine::{BatchPlanner, EngineKind};

/// One random configuration: mixed event counts, node budgets, timing
/// shapes, restriction flags, and occasional signature targets — the
/// full space the planner has to group (or refuse to group) correctly.
fn random_config(rng: &mut StdRng) -> EnumConfig {
    let k = [1usize, 2, 2, 3, 3, 3, 4][rng.gen_range(0..7usize)];
    let node_cap = (k + 1).clamp(2, 4);
    let max_nodes = rng.gen_range(2..=node_cap);
    // Occasionally target one signature of the chosen shape.
    if k <= 3 && rng.gen_range(0..4) == 0 {
        let motifs = all_motifs(k, max_nodes);
        let target = motifs[rng.gen_range(0..motifs.len())];
        let w = rng.gen_range(10i64..120);
        let timing = if rng.gen_range(0..2) == 0 {
            Timing::only_w(w)
        } else {
            Timing::both(rng.gen_range(5i64..60), w)
        };
        return EnumConfig::for_signature(target).with_timing(timing);
    }
    // Unbounded timing only below 3 events — enough to cover the
    // unbounded grouping path without exploding the instance count.
    let timing = match rng.gen_range(if k <= 2 { 0..4 } else { 1..4 }) {
        0 => Timing::UNBOUNDED,
        1 => Timing::only_c(rng.gen_range(5i64..60)),
        2 => Timing::only_w(rng.gen_range(10i64..120)),
        _ => Timing::both(rng.gen_range(5i64..60), rng.gen_range(10i64..120)),
    };
    let mut cfg = EnumConfig::new(k, max_nodes).with_timing(timing);
    if rng.gen_range(0..3) == 0 {
        cfg.min_nodes = rng.gen_range(2..=max_nodes);
    }
    match rng.gen_range(0..8) {
        0 => cfg = cfg.with_consecutive(true),
        1 => cfg = cfg.with_static_induced(true),
        2 => cfg = cfg.with_constrained(true),
        3 => cfg.duration_aware = true,
        _ => {}
    }
    cfg
}

/// Kinds whose batch execution shares traversals (everything except the
/// solo sharded/distributed/sampling kinds, which `solo_kinds_match`
/// covers).
fn shareable_kinds() -> [EngineKind; 3] {
    [EngineKind::Auto, EngineKind::Windowed, EngineKind::Stream]
}

fn assert_batch_matches(graph: &TemporalGraph, batch: &[EnumConfig], label: &str) {
    for kind in shareable_kinds() {
        for threads in [1usize, 3] {
            let got = kind.count_batch(graph, batch, threads);
            assert_eq!(got.len(), batch.len());
            for (i, cfg) in batch.iter().enumerate() {
                assert_eq!(
                    got[i],
                    kind.count(graph, cfg, threads),
                    "{label}: kind `{kind}` threads={threads} config #{i} {cfg:?}"
                );
            }
        }
    }
}

#[test]
fn random_batches_match_per_config_counts() {
    for case in 0u64..5 {
        let g = random_graph(700 + case, 6 + 2 * case as u32, 70 + 10 * case as usize, 150);
        let mut rng = StdRng::seed_from_u64(7000 + case);
        let batch: Vec<EnumConfig> =
            (0..rng.gen_range(3..8)).map(|_| random_config(&mut rng)).collect();
        assert_batch_matches(&g, &batch, &format!("case {case}"));
    }
}

#[test]
fn single_config_and_duplicate_batches() {
    let g = random_graph(41, 8, 80, 120);
    let single = [EnumConfig::new(3, 3).with_timing(Timing::only_w(40))];
    assert_batch_matches(&g, &single, "single stream-shaped");
    let single_walk = [EnumConfig::new(3, 3).with_timing(Timing::both(20, 40))];
    assert_batch_matches(&g, &single_walk, "single walk-shaped");
    // Duplicates must fill every slot with the same (correct) table.
    let dup = vec![single_walk[0].clone(); 3];
    assert_batch_matches(&g, &dup, "duplicates");
    let got = EngineKind::Auto.count_batch(&g, &dup, 2);
    assert_eq!(got[0], got[1]);
    assert_eq!(got[1], got[2]);
}

#[test]
fn thirty_six_motif_batch_is_one_stream_pass() {
    let g = random_graph(42, 10, 120, 200);
    let batch: Vec<EnumConfig> = all_motifs(3, 3)
        .into_iter()
        .map(|m| EnumConfig::for_signature(m).with_timing(Timing::only_w(60)))
        .collect();
    assert_eq!(batch.len(), 36);
    // The amortization claim, pinned at the plan level: one group.
    let plan = BatchPlanner::plan(&g, &batch, EngineKind::Auto, 1);
    assert_eq!(plan.num_groups(), 1, "{}", plan.describe());
    assert_batch_matches(&g, &batch, "36 Paranjape motifs");
    // The projections must jointly tile the untargeted spectrum.
    let spectrum =
        EngineKind::Auto.count(&g, &EnumConfig::new(3, 3).with_timing(Timing::only_w(60)), 1);
    let batch_total: u64 =
        EngineKind::Auto.count_batch(&g, &batch, 1).iter().map(|c| c.total()).sum();
    assert_eq!(batch_total, spectrum.total());
}

#[test]
fn all_targeted_walker_group_uses_union_prefix() {
    let g = random_graph(43, 9, 100, 150);
    // ΔC keeps these off the stream path: a walker group whose members
    // all carry targets, so the shared walk prunes to the prefix union.
    let batch: Vec<EnumConfig> = all_motifs(3, 3)
        .into_iter()
        .map(|m| EnumConfig::for_signature(m).with_timing(Timing::both(30, 60)))
        .collect();
    let plan = BatchPlanner::plan(&g, &batch, EngineKind::Windowed, 1);
    // Two walk shapes (2-node and 3-node budgets), each prefix-pruned.
    assert_eq!(plan.num_groups(), 2, "{}", plan.describe());
    assert!(plan.describe().contains("prefix["), "{}", plan.describe());
    assert_batch_matches(&g, &batch, "36 targeted walker motifs");
}

#[test]
fn table5_style_ratio_sweep_mixes_stream_and_walk_groups() {
    let g = random_graph(44, 10, 110, 180);
    // Ratios 1.0 / 0.66 / 0.5 over ΔW=60: the first is ΔW-only (stream
    // under auto), the others share one walker group.
    let batch = [
        EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::from_ratio(60, 1.0)),
        EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::from_ratio(60, 0.66)),
        EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::from_ratio(60, 0.5)),
    ];
    let plan = BatchPlanner::plan(&g, &batch, EngineKind::Auto, 1);
    assert_eq!(plan.num_groups(), 2, "{}", plan.describe());
    assert_batch_matches(&g, &batch, "table5 ratio sweep");
}

/// Every walk group names its resolved walker in `describe()` — what
/// `tnm count-batch` prints — with its executor threads when it has
/// more than one.
#[test]
fn walk_groups_describe_their_resolved_walker() {
    let g = random_graph(46, 9, 140, 160);
    let batch = [
        EnumConfig::new(3, 3).with_timing(Timing::both(20, 50)),
        EnumConfig::new(3, 3).with_timing(Timing::both(10, 40)),
    ];
    for (kind, threads, label) in [
        (EngineKind::Windowed, 1, "walk(windowed)"),
        (EngineKind::Windowed, 4, "walk(windowed, 4 threads)"),
    ] {
        let plan = BatchPlanner::plan(&g, &batch, kind, threads);
        assert_eq!(plan.num_groups(), 1, "{}", plan.describe());
        assert!(plan.describe().contains(label), "{kind}×{threads}: {}", plan.describe());
        let got = plan.execute(&g, &batch, threads);
        for (i, cfg) in batch.iter().enumerate() {
            assert_eq!(got[i], kind.count(&g, cfg, threads), "{kind}×{threads} config #{i}");
        }
    }
}

#[test]
fn solo_kinds_match() {
    let g = random_graph(45, 8, 90, 140);
    let batch = [
        EnumConfig::new(3, 3).with_timing(Timing::only_w(50)),
        EnumConfig::new(2, 3).with_timing(Timing::both(15, 40)),
    ];
    for kind in [EngineKind::sharded(16, 0), EngineKind::sampling(24, 9)] {
        let got = kind.count_batch(&g, &batch, 2);
        for (i, cfg) in batch.iter().enumerate() {
            assert_eq!(got[i], kind.count(&g, cfg, 2), "solo kind `{kind}` config #{i}");
        }
    }
}

#[test]
fn enumerate_batch_matches_per_config_enumeration() {
    let g = random_graph(46, 8, 80, 120);
    let batch = [
        EnumConfig::new(3, 3).with_timing(Timing::only_w(40)),
        EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::both(15, 40)),
        EnumConfig::for_signature(sig("010102")).with_timing(Timing::only_w(40)),
        EnumConfig::new(2, 3).with_timing(Timing::only_w(25)),
    ];
    let mut batched: Vec<Vec<Vec<u32>>> = vec![Vec::new(); batch.len()];
    tnm_motifs::engine::enumerate_batch(&g, &batch, |slot, inst| {
        batched[slot].push(inst.events.to_vec());
    });
    for (i, cfg) in batch.iter().enumerate() {
        let mut expected: Vec<Vec<u32>> = Vec::new();
        WindowedEngine.enumerate(&g, cfg, &mut |inst| expected.push(inst.events.to_vec()));
        assert_eq!(batched[i], expected, "config #{i} instance lists diverge");
    }
}
