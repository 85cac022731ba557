//! Window-index reuse correctness: counting through a graph's kept
//! index must be indistinguishable from counting on a fresh graph, and
//! a graph's index must describe that graph and no other.

use temporal_motifs::prelude::*;
use tnm_datasets::{generate, DatasetSpec};
use tnm_graph::{NodeId, WindowIndex};

fn dataset(name: &str, events: usize, seed: u64) -> TemporalGraph {
    let mut spec = DatasetSpec::by_name(name).expect("known dataset");
    spec.num_events = events;
    generate(&spec, seed)
}

/// True iff `ix` describes exactly `g`: every per-node event list is the
/// graph's node index and every inline time is that event's time.
fn describes(ix: &WindowIndex<'_>, g: &TemporalGraph) -> bool {
    ix.num_nodes() == g.num_nodes()
        && ix.num_incidences() == 2 * g.num_events()
        && (0..g.num_nodes()).all(|n| {
            let (ids, times) = ix.node_slices(NodeId(n));
            ids == g.node_events(NodeId(n))
                && ids.iter().zip(times).all(|(&i, &t)| g.event(i).time == t)
        })
}

/// True iff both views answer from the same arrays.
fn same_arrays(a: &WindowIndex<'_>, b: &WindowIndex<'_>, nodes: u32) -> bool {
    (0..nodes).all(|n| {
        let ((ai, at), (bi, bt)) = (a.node_slices(NodeId(n)), b.node_slices(NodeId(n)));
        std::ptr::eq(ai, bi) && std::ptr::eq(at, bt)
    })
}

/// Counting the same graph twice — the second time through its kept
/// index — must yield identical results to the cold run and to the
/// index-free backtrack reference.
#[test]
fn repeated_counts_through_cache_are_identical() {
    let g = dataset("CollegeMsg", 2_000, 3);
    for cfg in [
        EnumConfig::new(3, 3).with_timing(Timing::only_w(3_000)),
        EnumConfig::new(2, 2).with_timing(Timing::both(600, 1_200)),
        EnumConfig::new(3, 3).with_timing(Timing::only_c(1_500)).with_consecutive(true),
    ] {
        let reference = BacktrackEngine.count(&g, &cfg);
        let cold = WindowedEngine.count(&g, &cfg);
        let warm = WindowedEngine.count(&g, &cfg);
        let warm_parallel = ParallelEngine::new(4).count(&g, &cfg);
        assert_eq!(cold, reference);
        assert_eq!(warm, reference);
        assert_eq!(warm_parallel, reference);
    }
}

/// The same graph answers every call from the same arrays, and a
/// different graph gets its own index describing it alone.
#[test]
fn cache_hits_same_graph_and_misses_other() {
    let g1 = dataset("Email", 1_000, 1);
    let g2 = dataset("Email", 1_000, 2); // same spec, different content
    let first = g1.window_index();
    let second = g1.window_index();
    assert!(same_arrays(&first, &second, g1.num_nodes()), "same graph must reuse its index");

    let other = g2.window_index();
    assert!(describes(&first, &g1) && describes(&other, &g2));
    assert!(!describes(&other, &g1), "different graph must get its own index");
    assert!(!same_arrays(&first, &other, g1.num_nodes().min(g2.num_nodes())));
}

/// A clone taken before the build builds its own column; a clone taken
/// after carries the built one along. Either way its index describes the
/// clone, answering from the clone's own arrays.
#[test]
fn clone_is_a_different_graph_to_the_cache() {
    let g = dataset("SMS-A", 800, 9);
    let before = g.clone();
    let a = g.window_index();
    let after = g.clone();
    let (b, c) = (before.window_index(), after.window_index());
    for (ix, graph) in [(&a, &g), (&b, &before), (&c, &after)] {
        assert!(describes(ix, graph));
    }
    assert!(!same_arrays(&a, &b, g.num_nodes()));
    assert!(!same_arrays(&a, &c, g.num_nodes()));
    // Content-equal, so every index describes every copy.
    assert!(describes(&a, &before) && describes(&b, &g) && describes(&c, &g));
}

/// Dropping a graph and building new ones must never produce a stale
/// index: even when an allocator recycles a dropped graph's buffers,
/// each new graph's index describes it exactly.
#[test]
fn recycled_graphs_never_get_stale_indexes() {
    // Churn through many same-sized graphs, dropping each before the
    // next allocation so the allocator is encouraged to reuse buffers.
    for round in 0..50u64 {
        let g = dataset("Calls-Copenhagen", 500, round);
        assert!(
            describes(&g.window_index(), &g),
            "round {round}: the index does not describe the graph"
        );
        let cfg = EnumConfig::new(2, 3).with_timing(Timing::only_w(600));
        assert_eq!(WindowedEngine.count(&g, &cfg), BacktrackEngine.count(&g, &cfg));
    }
}

/// The sampler leans hardest on reuse: every one of its window draws
/// walks the graph's index. Its estimates must agree with exact counts
/// whether the index is cold or warm.
#[test]
fn sampling_engine_reuses_index_correctly() {
    let g = dataset("CollegeMsg", 2_000, 5);
    let cfg = EnumConfig::new(2, 3).with_timing(Timing::only_w(1_000));
    let cold = SamplingEngine::new(300, 8).report(&g, &cfg);
    // Warm the index via an exact count, then sample again.
    let exact = WindowedEngine.count(&g, &cfg).total() as f64;
    let warm = SamplingEngine::new(300, 8).report(&g, &cfg);
    assert_eq!(cold.total, warm.total, "index state must not affect sampling results");
    let rel = (warm.total.point - exact).abs() / exact.max(1.0);
    assert!(rel < 0.25, "estimate {} vs exact {exact} (rel {rel:.3})", warm.total.point);
}
