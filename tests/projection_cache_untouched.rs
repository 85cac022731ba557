//! No counting engine reads the process-wide static-projection cache.
//!
//! The streaming triad class lists each graph's triangles once and keeps
//! them with the graph, so stream counts — including the two suffix
//! graphs every live-subscription append counts — never build, verify
//! or evict a cached projection. This binary holds no other test, so
//! nothing else moves the global cache's counters while it runs.

use temporal_motifs::prelude::*;
use tnm_datasets::{generate, DatasetSpec};
use tnm_graph::global_projection_cache;
use tnm_motifs::engine::{EngineKind, IncrementalStream, ShardedEngine, StreamEngine};

#[test]
fn stream_counts_and_appends_leave_the_projection_cache_alone() {
    let mut spec = DatasetSpec::by_name("CollegeMsg").expect("known dataset");
    spec.num_events = 3_000;
    let graph = generate(&spec, 5);
    let held_out = 600;
    let events = graph.events();
    let prefix = TemporalGraph::from_sorted_events(
        events[..events.len() - held_out].to_vec(),
        graph.num_nodes(),
    );
    let triangles = EnumConfig::new(3, 3).with_timing(Timing::only_w(3_000));
    assert!(StreamEngine::needs_triads(&triangles));
    let sweep: Vec<EnumConfig> = [1.0, 0.5, 0.25]
        .iter()
        .map(|&r| EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::from_ratio(3_000, r)))
        .collect();
    let induced =
        EnumConfig::new(3, 3).with_timing(Timing::only_c(1_500)).with_static_induced(true);

    let before = global_projection_cache().stats();
    let full = StreamEngine.count(&graph, &triangles);
    assert!(full.total() > 0);
    assert_eq!(StreamEngine.count(&graph, &triangles), full);
    EngineKind::Stream.count_batch(&graph, &sweep, 1);
    ShardedEngine::new(500).count(&graph, &induced);

    let mut live = IncrementalStream::new(&prefix, &triangles).expect("stream-eligible");
    for batch in events[events.len() - held_out..].chunks(60) {
        live.append(batch).expect("time-monotone batch");
    }
    assert_eq!(live.counts(), full, "appends must match a from-scratch count");
    assert_eq!(global_projection_cache().stats(), before, "an engine touched the projection cache");
}
