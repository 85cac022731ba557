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
/// enumeration and a one-shard sharded run — and requires that they all
/// read one index, built once, with every exact count equal to the
/// stream DPs' count (a separate algorithm that reads no window index).
#[test]
fn every_windowed_path_shares_one_index_build() {
    let _guard = tnm_obs::test_guard();
    let g = corpus();
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(3_000));
    let reference = StreamEngine.count(&g, &cfg);
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
