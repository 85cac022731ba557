//! Observability is read-only: pins for the engine instrumentation.
//!
//! The whole `tnm_obs` layer rides inside the counting hot paths, so
//! its core contract needs its own suite:
//!
//! * **Counts are bit-identical with metrics on and off** — flipping
//!   the global switch must never change what gets counted, across
//!   every exact engine (including the work-stealing executor and the
//!   spill-mode sharded engine, whose instrumentation sits closest to
//!   the walk).
//! * **Disabled runs record nothing** — with the switch off, a full
//!   multi-engine pass leaves the global registry empty and the span
//!   collector empty; the disabled path is one branch, not a
//!   "record-but-hide".
//! * **Enabled runs land on the documented names** — the `engine.*`
//!   counter names and span names in the engine module docs are a
//!   wire-adjacent contract (dashboards key off them), so a windowed
//!   run must populate exactly those families.
//! * **One index build per graph** — every windowed path reads the
//!   graph's own window index, so counting one graph through all of
//!   them records exactly one `index.build` span.
//! * **One span per ingest** — a traced edge-list read records one
//!   `ingest.parse` span (with its byte and event counts) and one
//!   `graph.build` inside it.
//! * **The edge index is built only for its readers** — a stream count,
//!   2-node or with the triangle pass, records no `graph.edge_index`
//!   span, and the first induced walk records exactly one.
//! * **A served graph grows in place** — an append records one
//!   `graph.append` span and no `graph.build`, and a traced read after
//!   it records no `graph.build` either.
//!
//! Every test serializes on [`tnm_obs::test_guard`]: the registry and
//! the enabled switch are process-global.

use temporal_motifs::prelude::*;
use tnm_datasets::{generate, DatasetSpec};
use tnm_motifs::engine::{CountEngine, ShardedEngine, StreamEngine, WindowedEngine};

/// How many `index.build` spans `spans` holds.
fn index_builds(spans: &[tnm_obs::SpanRecord]) -> usize {
    spans.iter().filter(|s| s.name == "index.build").count()
}

fn corpus() -> TemporalGraph {
    let mut spec = DatasetSpec::by_name("CollegeMsg").expect("known dataset");
    spec.num_events = 4_000;
    generate(&spec, 11)
}

/// Engines whose instrumentation sits in distinct layers: the serial
/// walkers, the work-stealing executor, sharding (in this thread and on
/// worker processes), and the stream DPs.
fn engines() -> Vec<Box<dyn CountEngine>> {
    vec![
        Box::new(WindowedEngine),
        Box::new(WindowedEngine::new(4)),
        Box::new(ShardedEngine::new(600)),
        Box::new(ShardedEngine::new(600).with_workers(2)),
        Box::new(StreamEngine),
    ]
}

fn configs() -> Vec<EnumConfig> {
    vec![
        EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::only_w(3_000)),
        EnumConfig::new(2, 3).with_timing(Timing::both(500, 3_000)),
    ]
}

#[test]
fn counts_are_bit_identical_with_metrics_on_and_off() {
    let _guard = tnm_obs::test_guard();
    let g = corpus();
    for cfg in configs() {
        for engine in engines() {
            tnm_obs::set_enabled(false);
            let off = engine.count(&g, &cfg);
            tnm_obs::set_enabled(true);
            tnm_obs::global().reset();
            tnm_obs::drain_spans();
            let on = engine.count(&g, &cfg);
            let recorded = tnm_obs::global().snapshot();
            tnm_obs::drain_spans();
            tnm_obs::set_enabled(false);
            tnm_obs::global().reset();
            assert_eq!(off, on, "{}: counts must not depend on the metrics switch", engine.name());
            assert!(
                !recorded.is_empty(),
                "{}: an enabled run must actually record something",
                engine.name()
            );
        }
    }
}

#[test]
fn disabled_runs_record_nothing() {
    let _guard = tnm_obs::test_guard();
    tnm_obs::set_enabled(false);
    tnm_obs::global().reset();
    tnm_obs::drain_spans();
    let g = corpus();
    for cfg in configs() {
        for engine in engines() {
            let _ = engine.count(&g, &cfg);
        }
    }
    assert!(tnm_obs::global().snapshot().is_empty(), "disabled runs must not touch the registry");
    assert!(tnm_obs::drain_spans().is_empty(), "disabled runs must not record spans");
}

#[test]
fn enabled_windowed_run_lands_on_the_documented_names() {
    let _guard = tnm_obs::test_guard();
    let g = corpus();
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(3_000));
    tnm_obs::set_enabled(true);
    tnm_obs::global().reset();
    tnm_obs::drain_spans();
    let counts = WindowedEngine.count(&g, &cfg);
    let snap = tnm_obs::global().snapshot();
    let spans = tnm_obs::drain_spans();
    tnm_obs::set_enabled(false);
    tnm_obs::global().reset();
    let scanned = snap.counters.get("engine.events_scanned").copied().unwrap_or(0);
    let emitted = snap.counters.get("engine.instances_emitted").copied().unwrap_or(0);
    assert!(scanned > 0, "the walker flushes its scan tally: {:?}", snap.counters);
    assert_eq!(emitted, counts.total(), "emitted tally equals the spectrum total");
    assert_eq!(index_builds(&spans), 1, "the windowed engine builds the graph's index once");
}

/// Counts one graph through every windowed path — the serial and
/// work-stealing walkers, the sampler, a batch walk group, batch
/// enumeration and a one-shard sharded run — and then the stream
/// engine, whose triangle pass reads the window index too, and requires
/// that they all read one index, built once, with every exact count
/// equal to the stream engine's (a separate algorithm).
#[test]
fn every_windowed_path_shares_one_index_build() {
    let _guard = tnm_obs::test_guard();
    let g = corpus();
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(3_000));
    tnm_obs::set_enabled(true);
    tnm_obs::global().reset();
    tnm_obs::drain_spans();
    let windowed = WindowedEngine.count(&g, &cfg);
    let threaded = WindowedEngine::new(4).count(&g, &cfg);
    let sampled = SamplingEngine::new(16, 3).report(&g, &cfg);
    let batch = EngineKind::Windowed.count_batch(&g, std::slice::from_ref(&cfg), 2);
    let mut enumerated = MotifCounts::new();
    enumerate_batch(&g, std::slice::from_ref(&cfg), |_, inst| enumerated.add(inst.signature, 1));
    let (sharded, stats) = ShardedEngine::new(g.num_events()).count_with_stats(&g, &cfg);
    let reference = StreamEngine.count(&g, &cfg);
    let spans = tnm_obs::drain_spans();
    tnm_obs::set_enabled(false);
    tnm_obs::global().reset();
    assert_eq!(index_builds(&spans), 1, "one index per graph, whichever path asks first");
    assert_eq!(stats.shards, 1, "the sharded run must take its one-shard path");
    assert_eq!(sampled.samples, Some(16));
    for (path, counts) in [
        ("windowed", &windowed),
        ("windowed on 4 threads", &threaded),
        ("batch walk group", &batch[0]),
        ("enumerate_batch", &enumerated),
        ("sharded", &sharded),
    ] {
        assert_eq!(*counts, reference, "{path}");
    }
}

#[test]
fn a_traced_edge_list_read_records_one_parse_and_one_build() {
    let _guard = tnm_obs::test_guard();
    let text = "# src dst time\n1 2 10\n2 3 10\n3 1 12 5\n4 4 13\n";
    tnm_obs::set_enabled(true);
    tnm_obs::drain_spans();
    let g = tnm_graph::io::read_edge_list_str(text).unwrap();
    let spans = tnm_obs::drain_spans();
    tnm_obs::set_enabled(false);
    let named = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
    let (parse, build) = (named("ingest.parse"), named("graph.build"));
    assert_eq!((parse.len(), build.len()), (1, 1), "{spans:?}");
    let arg = |key: &str| parse[0].args.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
    assert_eq!(arg("bytes"), Some(text.len().to_string().as_str()));
    // The self-loop is parsed, then dropped by the build.
    assert_eq!(arg("events"), Some("4"));
    assert_eq!(g.num_events(), 3);
    assert_eq!(build[0].parent_id, parse[0].span_id, "the build runs inside the parse span");
}

/// `f`'s result and how many `graph.edge_index` spans it recorded.
fn edge_index_builds<T>(f: impl FnOnce() -> T) -> (T, usize) {
    tnm_obs::set_enabled(true);
    tnm_obs::drain_spans();
    let out = f();
    let spans = tnm_obs::drain_spans();
    tnm_obs::set_enabled(false);
    tnm_obs::global().reset();
    (out, spans.iter().filter(|s| s.name == "graph.edge_index").count())
}

#[test]
fn the_edge_index_is_built_once_and_only_for_its_readers() {
    let _guard = tnm_obs::test_guard();
    let corpus = corpus();
    let g = TemporalGraph::from_sorted_events(corpus.events().to_vec(), corpus.num_nodes());
    let two_node = EnumConfig::new(3, 2).with_timing(Timing::only_w(3_000));
    let induced =
        EnumConfig::new(3, 3).with_timing(Timing::only_w(3_000)).with_static_induced(true);
    let (_, builds) = edge_index_builds(|| StreamEngine.count(&g, &two_node));
    assert_eq!(builds, 0, "a 2-node stream count reads no static edge");
    let three_node = EnumConfig::new(3, 3).with_timing(Timing::only_w(3_000));
    let (_, builds) = edge_index_builds(|| StreamEngine.count(&g, &three_node));
    assert_eq!(builds, 0, "the triangle pass reads no static edge");
    let (first, builds) = edge_index_builds(|| WindowedEngine.count(&g, &induced));
    assert_eq!(builds, 1, "the first induced walk builds the index");
    let (second, builds) = edge_index_builds(|| WindowedEngine.count(&g, &induced));
    assert_eq!(builds, 0, "a second induced walk reuses it");
    assert_eq!(first, second);
    // A clone carries the built index along; a fresh build of the same
    // log lists the same static edges.
    let clone = g.clone();
    let fresh = TemporalGraph::from_sorted_events(g.events().to_vec(), g.num_nodes());
    let (listed, builds) = edge_index_builds(|| clone.static_edges().collect::<Vec<_>>());
    assert_eq!(builds, 0, "a clone carries the built index");
    assert_eq!(listed, fresh.static_edges().collect::<Vec<_>>());
    assert_eq!(g.num_static_edges(), fresh.num_static_edges());
    assert!(listed.iter().all(|&e| g.edge_events(e) == fresh.edge_events(e)));
}

/// The value of `key` among `span`'s args.
fn arg<'s>(span: &'s tnm_obs::SpanRecord, key: &str) -> Option<&'s str> {
    span.args.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

#[test]
fn a_read_after_an_append_builds_nothing() {
    let _guard = tnm_obs::test_guard();
    let corpus = corpus();
    let (base, tail) = corpus.events().split_at(3_000);
    let batch = &tail[..512];
    let server = MotifServer::bind("127.0.0.1:0").unwrap().spawn();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.load_graph("g", base, corpus.num_nodes()).unwrap();
    let cfg = EnumConfig::new(3, 2).with_timing(Timing::only_w(3_000));
    let read = Query::Count { cfg: cfg.clone(), engine: EngineKind::Stream, threads: 1 };
    client.query("g", &read).unwrap();

    tnm_obs::set_enabled(true);
    tnm_obs::drain_spans();
    let ack = client.append_events("g", batch).unwrap();
    let spans = tnm_obs::drain_spans();
    tnm_obs::set_enabled(false);
    tnm_obs::global().reset();
    assert_eq!(ack.total_events, 3_512);
    let named = |spans: &[tnm_obs::SpanRecord], name: &str| {
        spans.iter().filter(|s| s.name == name).cloned().collect::<Vec<_>>()
    };
    let appends = named(&spans, "graph.append");
    assert_eq!(appends.len(), 1, "{spans:?}");
    assert_eq!(arg(&appends[0], "events"), Some("3512"));
    assert_eq!(arg(&appends[0], "batch"), Some("512"));
    assert!(named(&spans, "graph.build").is_empty(), "the append rebuilds nothing: {spans:?}");

    let (response, trace) = client.query_traced("g", &read).unwrap();
    assert!(!named(&trace.spans, "stream.star").is_empty(), "{:?}", trace.spans);
    assert!(named(&trace.spans, "graph.build").is_empty(), "{:?}", trace.spans);
    let grown =
        TemporalGraph::from_sorted_events(corpus.events()[..3_512].to_vec(), corpus.num_nodes());
    assert_eq!(response.counts(), WindowedEngine.count(&grown, &cfg));
    client.shutdown().unwrap();
    server.join().unwrap();
}
