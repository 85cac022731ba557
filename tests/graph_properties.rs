//! Property tests for the temporal-graph substrate: structural
//! invariants, I/O round-trips, transform laws, and statistics sanity.
//!
//! These used to run under `proptest`; the build environment has no
//! crates.io access, so the same properties are now exercised over a
//! deterministic seeded-random case corpus (64 graphs per property,
//! fixed seeds — failures are exactly reproducible).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temporal_motifs::prelude::*;
use tnm_graph::stats::GraphStats;
use tnm_graph::transform;

const CASES: u64 = 64;

/// Random event batch mirroring the old `arb_events` strategy: up to 60
/// events on up to 20 nodes, times in -100..1000, durations in 0..50.
fn random_events(rng: &mut StdRng) -> Vec<Event> {
    let len = rng.gen_range(1usize..60);
    let mut events = Vec::with_capacity(len);
    for _ in 0..len {
        let u: u32 = rng.gen_range(0..20);
        let v: u32 = rng.gen_range(0..20);
        if u == v {
            continue; // mirror the strategy's self-loop filter
        }
        let t: i64 = rng.gen_range(-100i64..1000);
        let d: u32 = rng.gen_range(0..50);
        events.push(Event::with_duration(u, v, t, d));
    }
    events
}

/// Runs `body` over the deterministic case corpus, skipping the rare
/// all-self-loop draws (as the old `prop_filter` did).
fn for_each_case(test_seed: u64, mut body: impl FnMut(&mut StdRng, Vec<Event>)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(test_seed * 10_000 + case);
        let events = random_events(&mut rng);
        if events.is_empty() {
            continue;
        }
        body(&mut rng, events);
    }
}

#[test]
fn built_graphs_satisfy_invariants() {
    for_each_case(1, |_, events| {
        let g = TemporalGraph::from_events(events.clone()).unwrap();
        g.check_invariants().unwrap();
        assert_eq!(g.num_events(), events.len());
        // Node index covers every event twice; edge index once.
        let node_entries: usize = (0..g.num_nodes()).map(|n| g.node_events(NodeId(n)).len()).sum();
        assert_eq!(node_entries, 2 * g.num_events());
        let edge_entries: usize = g.static_edges().map(|e| g.edge_events(e).len()).sum();
        assert_eq!(edge_entries, g.num_events());
    });
}

/// The edge index (a CSR keyed by source) against a brute-force scan of
/// the log, for every ordered node pair — including pairs whose source
/// lies outside the graph. The graphs have tied timestamps, parallel
/// events and isolated nodes (ids up to `num_nodes` that no event uses).
#[test]
fn edge_index_matches_brute_force() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(12_000 + case);
        let nodes: u32 = rng.gen_range(2..16);
        let mut events = Vec::new();
        for _ in 0..rng.gen_range(1usize..80) {
            let u = rng.gen_range(0..nodes);
            let v = (u + rng.gen_range(1..nodes)) % nodes;
            let t: i64 = rng.gen_range(0i64..20);
            events.push(Event::new(u, v, t));
            if rng.gen_range(0..4) == 0 {
                events.push(Event::new(u, v, t)); // a parallel event
            }
        }
        events.sort();
        let spare: u32 = rng.gen_range(0..4);
        let sorted = TemporalGraph::from_sorted_events(events.clone(), nodes + spare);
        let built = TemporalGraph::from_events(events).unwrap();
        for g in [&sorted, &built] {
            let mut expected_edges = Vec::new();
            for u in 0..g.num_nodes() + 3 {
                for v in 0..g.num_nodes() + 3 {
                    let edge = Edge::new(u, v);
                    let expected: Vec<EventIdx> = (0..g.num_events() as EventIdx)
                        .filter(|&i| g.event(i).edge() == edge)
                        .collect();
                    assert_eq!(g.edge_events(edge), expected.as_slice(), "case {case}: {edge:?}");
                    assert_eq!(g.has_edge(edge), !expected.is_empty(), "case {case}: {edge:?}");
                    if !expected.is_empty() {
                        expected_edges.push(edge);
                    }
                }
            }
            // Ascending `(src, dst)`, each edge once.
            assert_eq!(g.static_edges().collect::<Vec<_>>(), expected_edges, "case {case}");
            assert_eq!(g.num_static_edges(), expected_edges.len(), "case {case}");
        }
    }
}

#[test]
fn window_counts_match_scan() {
    for_each_case(2, |rng, events| {
        let g = TemporalGraph::from_events(events).unwrap();
        let t0: i64 = rng.gen_range(-100i64..1000);
        let t1 = t0 + rng.gen_range(0i64..500);
        for n in 0..g.num_nodes() {
            let node = NodeId(n);
            let expected = g
                .events()
                .iter()
                .filter(|e| e.touches(node) && e.time >= t0 && e.time <= t1)
                .count();
            assert_eq!(g.count_node_events_between(node, t0, t1), expected);
        }
        let (_, window) = g.events_in_window(t0, t1);
        let expected = g.events().iter().filter(|e| e.time >= t0 && e.time <= t1).count();
        assert_eq!(window.len(), expected);
    });
}

#[test]
fn io_roundtrip_preserves_everything_but_ids() {
    for_each_case(3, |_, events| {
        let g = TemporalGraph::from_events(events).unwrap();
        let mut buf = Vec::new();
        tnm_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = tnm_graph::io::read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g.num_events(), g2.num_events());
        assert_eq!(g.num_static_edges(), g2.num_static_edges());
        // Times and durations survive verbatim as a multiset (ids are
        // compacted, which can reorder events at tied timestamps).
        let td = |g: &TemporalGraph| {
            let mut v: Vec<(i64, u32)> = g.events().iter().map(|e| (e.time, e.duration)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(td(&g), td(&g2));
        // Motif spectra are isomorphism-invariant, hence identical.
        let cfg = EnumConfig::new(2, 3).with_timing(Timing::only_w(50));
        assert_eq!(count_motifs(&g, &cfg), count_motifs(&g2, &cfg));
    });
}

#[test]
fn degrade_resolution_is_idempotent() {
    for_each_case(4, |rng, events| {
        let g = TemporalGraph::from_events(events).unwrap();
        let bucket: i64 = rng.gen_range(1i64..400);
        let once = transform::degrade_resolution(&g, bucket);
        let twice = transform::degrade_resolution(&once, bucket);
        assert_eq!(once.events(), twice.events());
        // Every degraded timestamp is a multiple of the bucket.
        assert!(once.events().iter().all(|e| e.time.rem_euclid(bucket) == 0));
        assert_eq!(once.num_events(), g.num_events());
    });
}

#[test]
fn stats_are_sane() {
    for_each_case(5, |_, events| {
        let g = TemporalGraph::from_events(events).unwrap();
        let s = GraphStats::compute(&g);
        assert!(s.unique_timestamp_fraction >= 0.0 && s.unique_timestamp_fraction <= 1.0);
        assert!(s.median_inter_event_time >= 0.0);
        assert!(s.unique_timestamps <= s.events);
        assert!(s.static_edges <= s.events);
        assert_eq!(s.timespan, g.timespan());
    });
}

#[test]
fn rebase_preserves_gaps() {
    for_each_case(6, |rng, events| {
        let g = TemporalGraph::from_events(events).unwrap();
        let origin: i64 = rng.gen_range(-500i64..500);
        let r = transform::rebase_time(&g, origin);
        assert_eq!(r.first_time(), Some(origin));
        assert_eq!(r.timespan(), g.timespan());
        let gaps = |g: &TemporalGraph| -> Vec<i64> {
            g.events().windows(2).map(|w| w[1].time - w[0].time).collect()
        };
        assert_eq!(gaps(&g), gaps(&r));
    });
}

#[test]
fn compact_nodes_preserves_motif_spectra() {
    for_each_case(7, |_, events| {
        let g = TemporalGraph::from_events(events).unwrap();
        let c = transform::compact_nodes(&g);
        assert!(c.num_nodes() <= g.num_nodes());
        let cfg = EnumConfig::new(2, 4).with_timing(Timing::only_w(100));
        assert_eq!(count_motifs(&g, &cfg), count_motifs(&c, &cfg));
    });
}

#[test]
fn null_models_preserve_size() {
    for_each_case(8, |rng, events| {
        use tnm_datasets::null_model::*;
        let g = TemporalGraph::from_events(events).unwrap();
        let seed: u64 = rng.gen_range(0u64..1000);
        for shuffled in [
            shuffle_timestamps(&g, seed),
            shuffle_inter_event_gaps(&g, seed),
            rewire_links(&g, seed, 2),
        ] {
            assert_eq!(shuffled.num_events(), g.num_events());
            assert!(shuffled.events().iter().all(|e| !e.is_self_loop()));
        }
    });
}
