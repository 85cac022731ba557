//! `served_models`: the paper's four-model comparison against a warm
//! `tnm serve`.
//!
//! Set-up loads the StackOverflow-spec corpus (40k events) through
//! `ServeClient` and runs one untimed cycle. One op is one cycle of six queries on the one
//! connection: the 3-event, ≤ 3-node config of each of Kovanen's ΔC,
//! Song's ΔW, Hulovatyy's ΔC and Paranjape's ΔW model (ΔC = 1500 s,
//! ΔW = 3000 s), a Table 5 batch at ΔC/ΔW ∈ {1, 0.5, 0.25}, and Song's
//! config on the in-memory sharded engine. A whole cycle is the op so a
//! percentile never lands on a boundary between two shapes. Ingest and
//! the incremental path do no work here.

use crate::harness::{timed, Args, Daemon, Layers, Outcome, SetupPacer};
use std::time::Instant;
use tnm_datasets::generator::generate;
use tnm_datasets::spec::DatasetSpec;
use tnm_graph::{
    global_index_cache, global_projection_cache, plan_shards, ShardGoal, TemporalGraph,
};
use tnm_motifs::count::MotifCounts;
use tnm_motifs::engine::{
    explain_auto_select, stream_hotpath, BatchPlanner, CountEngine, EngineKind, Query,
    QueryResponse, StreamEngine, WindowedEngine,
};
use tnm_motifs::{EnumConfig, MotifModel, Timing};

const DELTA_C: i64 = 1_500;
const DELTA_W: i64 = 3_000;
const SHARD_EVENTS: usize = 20_000;
/// Seconds of timed window between two repeated set-ups.
const SETUP_EVERY_S: f64 = 4.0;
const GRAPH: &str = "so";
/// Repetitions of the in-process engine probes in a traced run.
const PROBES: usize = 3;

/// One query shape of the cycle.
struct Shape {
    name: &'static str,
    query: Query,
    /// The daemon's latency histogram this query lands in.
    histogram: &'static str,
}

fn shapes() -> Vec<Shape> {
    let names = ["kovanen", "song", "hulovatyy", "paranjape"];
    let mut shapes: Vec<Shape> = names
        .iter()
        .zip(MotifModel::all_four(DELTA_C, DELTA_W))
        .map(|(&name, model)| Shape {
            name,
            query: count(EnumConfig::for_model(&model, 3, 3), EngineKind::Auto),
            histogram: "serve.query.count_ns",
        })
        .collect();
    let sweep = [1.0, 0.5, 0.25]
        .iter()
        .map(|&r| EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::from_ratio(DELTA_W, r)))
        .collect();
    shapes.push(Shape {
        name: "ratio_sweep",
        query: Query::Batch { cfgs: sweep, engine: EngineKind::Auto, threads: 1 },
        histogram: "serve.query.batch_ns",
    });
    let song = EnumConfig::for_model(&MotifModel::song(DELTA_W), 3, 3);
    shapes.push(Shape {
        name: "sharded",
        query: count(song, EngineKind::sharded(SHARD_EVENTS, 0)),
        histogram: "serve.query.count_ns",
    });
    shapes
}

fn count(cfg: EnumConfig, engine: EngineKind) -> Query {
    Query::Count { cfg, engine, threads: 1 }
}

/// The same query on another engine.
fn with_engine(query: &Query, engine: EngineKind) -> Query {
    match query {
        Query::Batch { cfgs, .. } => Query::Batch { cfgs: cfgs.clone(), engine, threads: 1 },
        other => count(other.configs()[0].clone(), engine),
    }
}

/// Every count table an answer carries, in config order.
fn tables(response: &QueryResponse) -> Vec<MotifCounts> {
    match response {
        QueryResponse::Batch(tables) => tables.clone(),
        other => vec![other.counts()],
    }
}

/// Generates the corpus, starts a daemon, loads the graph, and runs one
/// untimed cycle.
fn set_up(
    args: &Args,
    shapes: &[Shape],
    layers: &mut Layers,
) -> Result<(Daemon, TemporalGraph), String> {
    let mut spec = DatasetSpec::stack_overflow();
    spec.num_events = args.events(spec.num_events);
    let (graph, gen_ms) = timed(|| generate(&spec, args.seed));
    layers.add("datasets.generate_ms", gen_ms);
    let mut daemon = Daemon::start()?;
    daemon
        .client
        .load_graph(GRAPH, graph.events(), graph.num_nodes())
        .map_err(|e| e.to_string())?;
    for shape in shapes {
        daemon.client.query(GRAPH, &shape.query).map_err(|e| e.to_string())?;
    }
    Ok((daemon, graph))
}

/// The exact engines `auto` competes with on `query`: windowed always,
/// stream where every config is stream-eligible, sharded in memory.
fn exact_rivals(query: &Query) -> Vec<EngineKind> {
    let mut kinds = vec![EngineKind::Windowed];
    if query.configs().iter().all(StreamEngine::eligible) {
        kinds.push(EngineKind::Stream);
    }
    kinds.push(EngineKind::sharded(SHARD_EVENTS, 0));
    kinds
}

/// In-process probes, outside any op: each shape on `auto` and on every
/// rival exact engine, the stream DP classes, the batch planner, the
/// shard planner, and warm cache lookups. Returns the regret table.
fn probe(graph: &TemporalGraph, shapes: &[Shape], layers: &mut Layers) -> Vec<String> {
    let mut table = vec![format!(
        "{:<12} {:<26} {:>10} {:>10} {:>10} {:>10} {:>7}",
        "shape", "auto picks", "auto ms", "windowed", "stream", "sharded", "regret"
    )];
    for shape in shapes {
        let run = |q: &Query| timed(|| q.run(graph).expect("a valid query")).1;
        let auto_ms = run(&shape.query);
        let mut cells = Vec::new();
        let mut best = f64::INFINITY;
        for kind in [EngineKind::Windowed, EngineKind::Stream, EngineKind::sharded(SHARD_EVENTS, 0)]
        {
            if exact_rivals(&shape.query).contains(&kind) {
                let ms = run(&with_engine(&shape.query, kind));
                best = best.min(ms);
                cells.push(format!("{ms:>10.2}"));
            } else {
                cells.push(format!("{:>10}", "-"));
            }
        }
        let picks: Vec<String> = shape
            .query
            .configs()
            .iter()
            .map(|cfg| {
                let explain = explain_auto_select(graph, cfg, 1);
                format!("{}(r{})", explain.chosen, explain.rule)
            })
            .collect();
        layers.add(&format!("engine.{}.inproc_ms", shape.name), auto_ms);
        layers.add(&format!("engine.{}.best_exact_ms", shape.name), best);
        layers.add(&format!("engine.{}.auto_regret", shape.name), auto_ms / best);
        table.push(format!(
            "{:<12} {:<26} {:>10.2} {} {:>7.3}",
            shape.name,
            picks.join(","),
            auto_ms,
            cells.join(" "),
            auto_ms / best
        ));
    }
    layers.time("engine.stream.pair_ms", || stream_hotpath::pair_triples(graph, DELTA_W));
    layers.time("engine.stream.star_ms", || stream_hotpath::star_stars(graph, DELTA_W));
    layers.time("engine.stream.triad_ms", || stream_hotpath::triad_triads(graph, DELTA_W));
    let sweep = shapes.iter().find(|s| s.name == "ratio_sweep").expect("sweep shape");
    let plan = layers.time("engine.batch.plan_ms", || {
        BatchPlanner::plan(graph, sweep.query.configs(), EngineKind::Auto, 1)
    });
    layers.add("engine.batch.groups", plan.num_groups() as f64);
    let song = EnumConfig::for_model(&MotifModel::song(DELTA_W), 3, 3);
    let reach = song.admissible_reach(graph);
    let shards = layers.time("graph.shard.plan_ms", || {
        plan_shards(graph, reach, ShardGoal::EventsPerShard(SHARD_EVENTS))
    });
    layers.add("graph.shard.count", shards.len() as f64);
    global_index_cache().get_or_build(graph);
    global_projection_cache().get_or_build(graph);
    layers.time("graph.index_hit_ms", || global_index_cache().get_or_build(graph));
    layers.time("graph.proj_hit_ms", || global_projection_cache().get_or_build(graph));
    table
}

/// `--setup-only`: one set-up in this (fresh) process; returns its
/// seconds.
pub fn set_up_only(args: &Args) -> Result<f64, String> {
    let t0 = Instant::now();
    let (daemon, _graph) = set_up(args, &shapes(), &mut Layers::default())?;
    let seconds = t0.elapsed().as_secs_f64();
    daemon.stop()?;
    Ok(seconds)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let shapes = shapes();
    let (mut daemon, graph) = set_up(args, &shapes, &mut out.layers)?;
    // The oracle: every config counted by the windowed walker.
    let expected: Vec<Vec<MotifCounts>> = shapes
        .iter()
        .map(|s| s.query.configs().iter().map(|cfg| WindowedEngine.count(&graph, cfg)).collect())
        .collect();

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut pacer = SetupPacer::new(args, SETUP_EVERY_S);
    let mut i = 0u64;
    while Instant::now() < deadline {
        pacer.tick(&mut out.setup_s)?;
        let traced = args.trace && i % 2 == 1;
        i += 1;
        let mut layers = Layers::default();
        let mut answers = Vec::with_capacity(shapes.len());
        let (mut ms, mut server_ms) = (0.0, 0.0);
        let before = traced.then(|| tnm_obs::global().snapshot());
        for shape in &shapes {
            let server_before = if traced { daemon.server_ms(shape.histogram)? } else { 0.0 };
            tnm_obs::set_enabled(traced);
            let (answer, q_ms) = timed(|| daemon.client.query(GRAPH, &shape.query));
            tnm_obs::set_enabled(false);
            ms += q_ms;
            if traced {
                let server = daemon.server_ms(shape.histogram)? - server_before;
                server_ms += server;
                layers.add(&format!("serve.{}.client_ms", shape.name), q_ms);
                layers.add(&format!("serve.{}.server_ms", shape.name), server);
                layers.add(&format!("serve.{}.wire_ms", shape.name), q_ms - server);
            }
            answers.push(answer);
        }
        let ok = answers
            .iter()
            .zip(&expected)
            .all(|(answer, want)| matches!(answer, Ok(r) if tables(r) == *want));
        if let Some(before) = before {
            out.layers.add_counters(&before, &tnm_obs::global().snapshot());
            // The share of the cycle the daemon's own query timers explain.
            out.layers.add("layer_coverage", server_ms / ms);
            out.layers.absorb(layers);
        }
        out.op(ms, traced, ok);
    }
    if args.trace {
        for _ in 0..PROBES {
            out.notes = probe(&graph, &shapes, &mut out.layers);
        }
    }
    daemon.stop()?;
    Ok(out)
}
