//! `cold_count`: one-shot analytics, the path `tnm count --input` takes.
//!
//! Set-up writes one SNAP edge list for the SMS-A spec at 3× its event
//! budget (tie-heavy 3 s median gaps). One op clears both global caches,
//! parses the file, builds the SoA columns, and counts the 2-node,
//! 3-event ΔW = 3000 s spectrum with `auto` on one thread. Ingest is most
//! of an op; walkers, the triad class, batching and serving do no work.

use crate::harness::{timed, Args, Layers, Outcome, SetupPacer};
use std::path::PathBuf;
use std::time::Instant;
use tnm_datasets::generator::generate;
use tnm_datasets::spec::DatasetSpec;
use tnm_graph::{global_index_cache, global_projection_cache, io, TemporalGraph};
use tnm_motifs::count::MotifCounts;
use tnm_motifs::engine::{stream_hotpath, CountEngine, EngineKind, Query, WindowedEngine};
use tnm_motifs::{EnumConfig, Timing};

const DELTA_W: i64 = 3_000;
/// Seconds of timed window between two repeated set-ups.
const SETUP_EVERY_S: f64 = 2.0;

fn config() -> EnumConfig {
    EnumConfig::new(3, 2).with_timing(Timing::only_w(DELTA_W))
}

/// Writes the corpus file; returns the generated graph.
fn set_up(args: &Args, path: &PathBuf, layers: &mut Layers) -> Result<TemporalGraph, String> {
    let mut spec = DatasetSpec::sms_a();
    spec.num_events = args.events(3 * spec.num_events);
    let (graph, gen_ms) = timed(|| generate(&spec, args.seed));
    layers.add("datasets.generate_ms", gen_ms);
    io::write_edge_list_file(&graph, path).map_err(|e| e.to_string())?;
    Ok(graph)
}

/// One op: clear the caches, parse, build columns, count. Returns the
/// answer; a traced op also records each layer's time.
fn op(path: &PathBuf, query: &Query, layers: Option<&mut Layers>) -> Result<MotifCounts, String> {
    global_index_cache().clear();
    global_projection_cache().clear();
    let mut scratch = Layers::default();
    let layers = layers.unwrap_or(&mut scratch);
    let graph = layers.time("graph.io.read_ms", || io::read_edge_list_file(path));
    let graph = graph.map_err(|e| e.to_string())?;
    layers.time("graph.columns_ms", || {
        graph.columns();
    });
    let answer = layers.time("engine.query_ms", || query.run(&graph));
    Ok(answer.map_err(|e| e.to_string())?.counts())
}

/// In-process layer probes for one traced op, outside its latency.
fn probe(path: &PathBuf, layers: &mut Layers) -> Result<(), String> {
    let graph = io::read_edge_list_file(path).map_err(|e| e.to_string())?;
    let events = graph.events().to_vec();
    let rebuilt = layers.time("graph.build_ms", || TemporalGraph::from_events(events));
    rebuilt.map_err(|e| e.to_string())?;
    if let Some(read_ms) = layers.get("graph.io.read_ms") {
        layers.add("graph.io.events_per_s", graph.num_events() as f64 / (read_ms / 1e3));
    }
    layers.time("engine.stream.pair_ms", || stream_hotpath::pair_triples(&graph, DELTA_W));
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    with_corpus_path(args, |path| measure(args, path))
}

/// `--setup-only`: one set-up with its warm-up op in this (fresh)
/// process; returns its seconds.
pub fn set_up_only(args: &Args) -> Result<f64, String> {
    with_corpus_path(args, |path| {
        let t0 = Instant::now();
        set_up(args, path, &mut Layers::default())?;
        op(path, &query(), None)?;
        Ok(t0.elapsed().as_secs_f64())
    })
}

/// Runs `f` on a corpus path of this process's own, then removes the file
/// (and the directory, once no other process's file is left in it).
fn with_corpus_path<T>(
    args: &Args,
    f: impl FnOnce(&PathBuf) -> Result<T, String>,
) -> Result<T, String> {
    let dir = PathBuf::from(".perfbench_tmp");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("cold-{}-{}.txt", args.seed, std::process::id()));
    let result = f(&path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    result
}

fn query() -> Query {
    Query::Count { cfg: config(), engine: EngineKind::Auto, threads: 1 }
}

fn measure(args: &Args, path: &PathBuf) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = config();
    let query = query();
    let graph = set_up(args, path, &mut out.layers)?;
    op(path, &query, None)?; // warm-up

    // The oracle: a different exact engine on the generated graph (node
    // ids differ after the parser compacts them; counts cannot).
    let expected = WindowedEngine.count(&graph, &cfg);
    drop(graph);

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut pacer = SetupPacer::new(args, SETUP_EVERY_S);
    let mut i = 0u64;
    while Instant::now() < deadline {
        pacer.tick(&mut out.setup_s)?;
        let traced = args.trace && i % 2 == 1;
        i += 1;
        tnm_obs::set_enabled(traced);
        let before = traced.then(|| tnm_obs::global().snapshot());
        let mut layers = Layers::default();
        let t0 = Instant::now();
        let answer = op(path, &query, traced.then_some(&mut layers));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tnm_obs::set_enabled(false);
        let mut ok = matches!(&answer, Ok(counts) if *counts == expected);
        if let Some(before) = before {
            let after = tnm_obs::global().snapshot();
            let delta = after.delta(&before);
            // A cold op must never hit either cache.
            ok &= ["cache.index.hits", "cache.proj.hits"]
                .iter()
                .all(|name| delta.counters.get(*name).copied().unwrap_or(0) == 0);
            out.layers.add_counters(&before, &after);
            let covered =
                layers.total(&["graph.io.read_ms", "graph.columns_ms", "engine.query_ms"]);
            out.layers.add("layer_coverage", covered / ms);
            probe(path, &mut layers)?;
            out.layers.absorb(layers);
        }
        out.op(ms, traced, ok);
    }
    Ok(out)
}
