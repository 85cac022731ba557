//! Differential correctness tests for the counting engines.
//!
//! The engines (`tnm_motifs::engine`) are validated against an
//! independent oracle: brute-force enumeration of every k-subset of
//! events, each judged by `tnm_motifs::validity::check_instance` — a
//! separate implementation of the same semantics used for the Figure 1
//! experiment. Any disagreement is a bug in one of the two paths.
//!
//! These used to run under `proptest`; the build environment has no
//! crates.io access, so the same properties now run over a deterministic
//! seeded-random corpus of small tie-rich graphs (fixed seeds — failures
//! are exactly reproducible).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use temporal_motifs::prelude::*;
use tnm_motifs::validity::check_instance;

/// Brute-force motif counting: all `k`-subsets, oracle-validated.
fn brute_force_counts(
    graph: &TemporalGraph,
    model: &MotifModel,
    k: usize,
    min_nodes: usize,
    max_nodes: usize,
) -> HashMap<MotifSignature, u64> {
    let m = graph.num_events();
    let mut counts = HashMap::new();
    let mut subset: Vec<u32> = Vec::with_capacity(k);
    #[allow(clippy::too_many_arguments)]
    fn rec(
        graph: &TemporalGraph,
        model: &MotifModel,
        k: usize,
        min_nodes: usize,
        max_nodes: usize,
        start: usize,
        m: usize,
        subset: &mut Vec<u32>,
        counts: &mut HashMap<MotifSignature, u64>,
    ) {
        if subset.len() == k {
            let mut nodes: Vec<NodeId> = Vec::new();
            for &i in subset.iter() {
                let e = graph.event(i);
                for n in [e.src, e.dst] {
                    if !nodes.contains(&n) {
                        nodes.push(n);
                    }
                }
            }
            if nodes.len() < min_nodes || nodes.len() > max_nodes {
                return;
            }
            if check_instance(graph, subset, model).is_valid() {
                let events: Vec<Event> = subset.iter().map(|&i| *graph.event(i)).collect();
                let sig = MotifSignature::from_events(&events);
                *counts.entry(sig).or_insert(0) += 1;
            }
            return;
        }
        for i in start..m {
            subset.push(i as u32);
            rec(graph, model, k, min_nodes, max_nodes, i + 1, m, subset, counts);
            subset.pop();
        }
    }
    rec(graph, model, k, min_nodes, max_nodes, 0, m, &mut subset, &mut counts);
    counts
}

/// Random small graph mirroring the old proptest strategy: up to 14
/// events on up to 6 nodes with timestamps in 0..60 (tie-rich on
/// purpose). Returns `None` when every drawn pair was a self-loop.
fn small_graph(rng: &mut StdRng) -> Option<TemporalGraph> {
    let len = rng.gen_range(3usize..14);
    let mut events = Vec::with_capacity(len);
    for _ in 0..len {
        let u: u32 = rng.gen_range(0..6);
        let v: u32 = rng.gen_range(0..6);
        if u == v {
            continue;
        }
        let t: i64 = rng.gen_range(0i64..60);
        events.push(Event::new(u, v, t));
    }
    if events.is_empty() {
        return None;
    }
    TemporalGraph::from_events(events).ok()
}

/// Runs `body` over `cases` deterministic random graphs.
fn for_each_graph(test_seed: u64, cases: u64, mut body: impl FnMut(&mut StdRng, TemporalGraph)) {
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(test_seed * 10_000 + case);
        if let Some(graph) = small_graph(&mut rng) {
            body(&mut rng, graph);
        }
    }
}

fn models_under_test() -> Vec<MotifModel> {
    vec![
        MotifModel::vanilla(Timing::UNBOUNDED),
        MotifModel::vanilla(Timing::only_c(7)),
        MotifModel::vanilla(Timing::only_w(15)),
        MotifModel::vanilla(Timing::both(7, 15)),
        MotifModel::kovanen(10),
        MotifModel::song(20),
        MotifModel::hulovatyy(10),
        MotifModel::hulovatyy_constrained(10),
        MotifModel::paranjape(20),
    ]
}

/// Asserts `counts` equals the oracle's table exactly: same total,
/// same count per signature.
fn assert_matches_oracle(
    counts: &MotifCounts,
    oracle: &HashMap<MotifSignature, u64>,
    engine: &str,
    model: &MotifModel,
    graph: &TemporalGraph,
) {
    let oracle_total: u64 = oracle.values().sum();
    assert_eq!(
        counts.total(),
        oracle_total,
        "{engine}: total mismatch for {} on {} events",
        model.name,
        graph.num_events()
    );
    for (&sig, &n) in oracle {
        assert_eq!(
            counts.get(sig),
            n,
            "{engine}: count mismatch for {} signature {sig}",
            model.name
        );
    }
}

/// Every exact engine agrees with the brute-force oracle for every
/// model, for 2- and 3-event motifs on up to 4 nodes: the one-call
/// `count_motifs`, every `EngineKind::all_exact()` kind on one and on
/// four threads, and a sharded engine whose 3-event shards split these
/// ≤ 14-event graphs into several slices. The oracle shares no code with
/// the walk, so a walk bug cannot hide behind another walk.
#[test]
fn engine_matches_brute_force() {
    for_each_graph(1, 24, |rng, graph| {
        let k = rng.gen_range(2usize..=3);
        for model in models_under_test() {
            let mut cfg = EnumConfig::for_model(&model, k, 4);
            // Hulovatyy's duration-aware gap equals the plain gap here
            // (all durations are zero), so semantics match the oracle.
            cfg.min_nodes = 2;
            let oracle = brute_force_counts(&graph, &model, k, 2, 4);
            assert_matches_oracle(&count_motifs(&graph, &cfg), &oracle, "auto", &model, &graph);
            for &kind in EngineKind::all_exact() {
                for threads in [1, 4] {
                    let label = format!("{kind}×{threads}");
                    let counts = kind.count(&graph, &cfg, threads);
                    assert_matches_oracle(&counts, &oracle, &label, &model, &graph);
                }
            }
            let sharded = ShardedEngine::new(3).count(&graph, &cfg);
            assert_matches_oracle(&sharded, &oracle, "sharded(3)", &model, &graph);
        }
    });
}

/// Parallel counting is identical to serial counting.
#[test]
fn parallel_equals_serial() {
    for_each_graph(2, 48, |_, graph| {
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::both(10, 20));
        let serial = count_motifs(&graph, &cfg);
        let parallel = WindowedEngine::new(4).count(&graph, &cfg);
        assert_eq!(serial, parallel);
    });
}

/// Tightening ΔC never adds instances, per signature (the paper's
/// subset property in Section 5.2).
#[test]
fn delta_c_monotonicity() {
    for_each_graph(3, 48, |rng, graph| {
        let dc: i64 = rng.gen_range(1i64..30);
        let loose =
            count_motifs(&graph, &EnumConfig::new(3, 3).with_timing(Timing::both(dc + 5, 40)));
        let tight = count_motifs(&graph, &EnumConfig::new(3, 3).with_timing(Timing::both(dc, 40)));
        for (sig, n) in tight.iter() {
            assert!(n <= loose.get(sig), "signature {sig} grew when tightening");
        }
    });
}

/// Every emitted instance is time-ordered, connected, and valid for
/// the configured model (self-check via the oracle).
#[test]
fn emitted_instances_are_valid() {
    for_each_graph(4, 48, |_, graph| {
        let model = MotifModel::kovanen(12);
        let cfg = EnumConfig::for_model(&model, 3, 3);
        let mut checked = 0usize;
        WindowedEngine.enumerate(&graph, &cfg, &mut |inst| {
            let verdict = check_instance(&graph, inst.events, &model);
            assert!(verdict.is_valid(), "engine emitted invalid instance: {verdict}");
            checked += 1;
        });
        // (may be zero on sparse graphs; the point is no invalid emission)
        assert!(checked < 100_000);
    });
}

/// Signature canonicalization is invariant under node relabelling.
#[test]
fn canonicalization_is_relabel_invariant() {
    for_each_graph(5, 48, |rng, graph| {
        let offset: u32 = rng.gen_range(1u32..50);
        let cfg = EnumConfig::new(3, 4).with_timing(Timing::only_w(30));
        let original = count_motifs(&graph, &cfg);
        // Relabel every node id by a fixed offset (order-preserving) and
        // also reverse ids (order-breaking) — signatures must not change.
        let shifted: Vec<Event> = graph
            .events()
            .iter()
            .map(|e| Event::new(e.src.0 + offset, e.dst.0 + offset, e.time))
            .collect();
        let shifted = TemporalGraph::from_events(shifted).unwrap();
        let shifted_counts = count_motifs(&shifted, &cfg);
        assert_eq!(&original, &shifted_counts);

        let max = graph.num_nodes();
        let reversed: Vec<Event> = graph
            .events()
            .iter()
            .map(|e| Event::new(max - e.src.0, max - e.dst.0, e.time))
            .collect();
        let reversed = TemporalGraph::from_events(reversed).unwrap();
        let reversed_counts = count_motifs(&reversed, &cfg);
        assert_eq!(&original, &reversed_counts);
    });
}

/// Every signature the engine emits on ≤4-node configs exists in the
/// exhaustive catalog of single-component motifs.
#[test]
fn emitted_signatures_in_catalog() {
    for_each_graph(6, 48, |_, graph| {
        let catalog3 = tnm_motifs::catalog::all_motifs(3, 4);
        let counts = count_motifs(&graph, &EnumConfig::new(3, 4));
        for (sig, _) in counts.iter() {
            assert!(catalog3.contains(&sig), "{sig} missing from catalog");
        }
    });
}
