//! Counting-engine benchmarks.
//!
//! The headline group, `engine_comparison`, times the windowed walk on
//! one thread and on the machine's cores on the synthetic generator
//! corpora under a bounded-ΔW configuration — the regime the window
//! index is built for. Further groups cover ΔW tightness sweeps (how
//! pruning scales with the window), thread scaling of the walk
//! executor, the sampling engine across budgets, the sharded
//! engine on both transports (in this thread, and on real worker
//! processes over the wire protocol vs the in-process baseline — the
//! `distributed_engine` group), the stream engine's
//! count-without-enumerating fast path against the windowed walker,
//! the serve subsystem's incremental append path against a
//! from-scratch recount, window-index build vs reuse, the walker on the
//! four models (`walker_models`), signature-targeted counting, streaming
//! matching, the observability tax (`obs_overhead`
//! pins the metrics-disabled hot path against the BENCH history,
//! `query_trace_overhead` does the same for the untraced `Query::run`
//! path vs a request-scoped trace), the graph build
//! (`graph_build`: `from_sorted_events` at two corpus sizes, with the
//! lazy edge index's first build, and a 512-event append), edge-list
//! ingest (`ingest`: `read_edge_list_str` with dense and sparse node
//! ids), and dataset generation.
//!
//! The harness prints a machine-readable JSON summary on exit (one
//! object per benchmark; set `TNM_BENCH_JSON=path` to also write it to a
//! file) — this feeds the repo's `BENCH_*.json` trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use tnm_datasets::{generate, DatasetSpec};
use tnm_graph::{Event, TemporalGraph};
use tnm_motifs::engine::{
    explain_auto_select, stream_hotpath, CountEngine, StreamEngine, WindowedEngine,
    PARALLEL_MIN_WINDOW_EVENTS, SERIAL_FALLBACK_EVENTS,
};
use tnm_motifs::pattern::{matcher::StreamingMatcher, EventPattern};
use tnm_motifs::prelude::*;

fn dataset(name: &str, events: usize) -> TemporalGraph {
    let mut spec = DatasetSpec::by_name(name).expect("known dataset");
    spec.num_events = events;
    generate(&spec, 1)
}

/// The walk on one thread (`windowed`) and on the machine's cores, up
/// to eight (`windowed_threads`).
fn engines() -> Vec<(&'static str, WindowedEngine)> {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
    vec![("windowed", WindowedEngine), ("windowed_threads", WindowedEngine::new(cores))]
}

/// The windowed walk on one thread and on every core on the generator
/// corpora, bounded ΔW (3n3e, the paper's flagship configuration).
fn bench_engine_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_comparison_3n3e_dW3000");
    group.sample_size(10);
    for name in ["CollegeMsg", "Email", "StackOverflow", "Bitcoin-otc"] {
        let g = dataset(name, 8_000);
        let cfg = EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::only_w(3000));
        group.throughput(Throughput::Elements(g.num_events() as u64));
        for (id, engine) in engines() {
            group.bench_with_input(BenchmarkId::new(id, name), &g, |b, g| {
                b.iter(|| black_box(engine.count(g, &cfg)))
            });
        }
    }
    group.finish();
}

/// Hub-heavy workload under tight ΔW: few nodes → long per-node event
/// lists; a tight window → small candidate sets. Candidate generation
/// dominates the walk here: cursor moves over inline timestamps plus a
/// sorted-run merge.
fn bench_hub_tight_window(c: &mut Criterion) {
    // Deterministic LCG graph: 24 nodes, 40k events → ~3.3k events per
    // node list; timestamps dense enough that ΔW=40 admits a handful of
    // candidates per step.
    let mut b = tnm_graph::TemporalGraphBuilder::new();
    let mut x = 0x2545F4914F6CDD1Du64;
    for t in 0..40_000i64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = ((x >> 33) % 24) as u32;
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut v = ((x >> 33) % 24) as u32;
        if v == u {
            v = (v + 1) % 24;
        }
        b.push(tnm_graph::Event::new(u, v, t));
    }
    let g = b.build().unwrap();
    let mut group = c.benchmark_group("hub_tight_window_3n3e");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_events() as u64));
    for dw in [20i64, 40] {
        let cfg = EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::only_w(dw));
        group.bench_with_input(BenchmarkId::new("windowed", dw), &g, |b, g| {
            b.iter(|| black_box(WindowedEngine.count(g, &cfg)))
        });
    }
    group.finish();
}

/// How windowed pruning pays off as ΔW tightens: the walker touches
/// only admissible events, so its cost follows the window.
fn bench_window_tightness(c: &mut Criterion) {
    let g = dataset("SMS-A", 10_000);
    let mut group = c.benchmark_group("window_tightness_3e");
    group.sample_size(10);
    for dw in [300i64, 1500, 6000] {
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(dw));
        group.bench_with_input(BenchmarkId::new("windowed", dw), &g, |b, g| {
            b.iter(|| black_box(WindowedEngine.count(g, &cfg)))
        });
    }
    group.finish();
}

/// Work-stealing scaling across thread counts (windowed workers).
///
/// The workload is pinned to the executor's parallel path before
/// timing anything: enough events to clear the serial fallback, window
/// occupancy past the threshold `auto` itself requires, and a
/// hub-dense graph so each claimed start event carries real walk work
/// (per-claim enumeration dwarfs steal traffic). `threads = 1` is the
/// inline one-thread walk the speedups are read against. Real
/// scaling only materializes with physical cores — on a single-core
/// host (CI containers included) the honest profile is flat, which
/// pins the executor's *overhead* at ~zero; on multi-core hardware the
/// same ids record the speedup curve, and either regressing trips
/// `bench_check`.
fn bench_parallel_scaling(c: &mut Criterion) {
    // Deterministic LCG graph: 24 nodes, 20k events over 20k seconds →
    // ~830 events per node list; ΔW=40 admits ~40 events per window.
    let mut b = tnm_graph::TemporalGraphBuilder::new();
    let mut x = 0xA24BAED4963EE407u64;
    for t in 0..20_000i64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = ((x >> 33) % 24) as u32;
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut v = ((x >> 33) % 24) as u32;
        if v == u {
            v = (v + 1) % 24;
        }
        b.push(tnm_graph::Event::new(u, v, t));
    }
    let g = b.build().unwrap();
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::both(20, 40));
    // Guard the premise: this workload must reach the work-stealing
    // executor — not the serial fallback, not the stream fast path.
    assert!(g.num_events() >= SERIAL_FALLBACK_EVENTS, "workload below the serial fallback");
    let span = g.timespan().max(1) as f64;
    let occupancy = g.num_events() as f64 * 40.0 / span;
    assert!(occupancy >= PARALLEL_MIN_WINDOW_EVENTS, "windows too sparse: {occupancy:.2}");
    let pick = explain_auto_select(&g, &cfg, 4);
    assert_eq!(
        (pick.chosen, pick.threads),
        (EngineKind::Windowed, 4),
        "auto must give this walk the whole thread budget"
    );
    let mut group = c.benchmark_group("parallel_scaling_3e");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_events() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| black_box(WindowedEngine::new(t).count(&g, &cfg)))
        });
    }
    group.finish();
}

/// Batch-planner amortization: N configurations answered by one plan
/// vs N sequential `EngineKind::count` dispatches, on the CollegeMsg
/// corpus. Two regimes:
///
/// * the 36-motif spectrum split (ΔW-only targets): the plan collapses
///   the stream-eligible members into ONE DP pass plus projections and
///   the rest into one prefix-pruned walk, while the sequential loop
///   pays a full dispatch per motif;
/// * a ΔW-ratio sweep on the windowed walker (table5's shape): one
///   shared walk under the widest ΔC with per-ratio masks vs one walk
///   per ratio.
fn bench_batch_planner(c: &mut Criterion) {
    let g = dataset("CollegeMsg", 8_000);
    let batch36: Vec<EnumConfig> = all_3e()
        .into_iter()
        .map(|m| EnumConfig::for_signature(m).with_timing(Timing::only_w(3000)))
        .collect();
    let ratios = [0.25f64, 0.5, 0.75, 1.0];
    let sweep: Vec<EnumConfig> = ratios
        .iter()
        .map(|&r| EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::from_ratio(3000, r)))
        .collect();
    let mut group = c.benchmark_group("batch_planner");
    group.sample_size(10);
    group.bench_function("36_motifs_batched", |b| {
        b.iter(|| black_box(EngineKind::Auto.count_batch(&g, &batch36, 1)))
    });
    group.bench_function("36_motifs_sequential", |b| {
        b.iter(|| batch36.iter().map(|cfg| EngineKind::Auto.count(&g, cfg, 1).total()).sum::<u64>())
    });
    group.bench_function("dW_ratio_sweep_batched", |b| {
        b.iter(|| black_box(EngineKind::Windowed.count_batch(&g, &sweep, 1)))
    });
    group.bench_function("dW_ratio_sweep_sequential", |b| {
        b.iter(|| {
            sweep.iter().map(|cfg| EngineKind::Windowed.count(&g, cfg, 1).total()).sum::<u64>()
        })
    });
    group.finish();
}

/// Sampling engine vs exact windowed counting across sample budgets,
/// through the `CountEngine` seam (`report` keeps the confidence
/// intervals). The sampler's repeated window draws ride the shared
/// window index, so its cost is almost purely enumeration inside the
/// sampled windows.
fn bench_sampling_engine(c: &mut Criterion) {
    let g = dataset("SMS-A", 10_000);
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(3000));
    let mut group = c.benchmark_group("sampling_engine_3e_dW3000");
    group.sample_size(10);
    group
        .bench_function("exact_windowed", |b| b.iter(|| black_box(WindowedEngine.count(&g, &cfg))));
    for budget in [64usize, 256] {
        group.bench_with_input(BenchmarkId::new("sampling", budget), &budget, |b, &n| {
            let engine = SamplingEngine::new(n, 7);
            b.iter(|| black_box(engine.report(&g, &cfg)))
        });
    }
    group.finish();
}

/// Sharded vs monolithic exact counting: the sharded engine pays shard
/// materialization and per-shard index builds for a bounded working
/// set; this group tracks that overhead against the windowed baseline
/// across shard-size targets, plus a within-shard work-stealing run.
fn bench_sharded_engine(c: &mut Criterion) {
    let g = dataset("SMS-A", 12_000);
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(3000));
    let mut group = c.benchmark_group("sharded_engine_3e_dW3000");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_events() as u64));
    group.bench_function("windowed_baseline", |b| {
        b.iter(|| black_box(WindowedEngine.count(&g, &cfg)))
    });
    for shard_events in [2_000usize, 6_000] {
        group.bench_with_input(
            BenchmarkId::new("sharded", shard_events),
            &shard_events,
            |b, &n| b.iter(|| black_box(ShardedEngine::new(n).count(&g, &cfg))),
        );
    }
    group.bench_function("sharded_2000_threads4", |b| {
        b.iter(|| black_box(ShardedEngine::new(2_000).with_threads(4).count(&g, &cfg)))
    });
    group.finish();
}

/// Count-without-enumerating vs the windowed walker on eligible
/// Paranjape configurations (3n3e, only-ΔW, non-induced). The dense
/// synthetic graph is the walker's worst case — few nodes, long per-node
/// event lists, instance counts far above the event count — and exactly
/// where the stream engine's event-linear DPs pull away; the
/// CollegeMsg-style corpus tracks the same race on realistic burstiness.
fn bench_stream_engine(c: &mut Criterion) {
    // Dense LCG graph: 12 nodes, 20k events over 20k seconds; ΔW=60
    // admits ~60 events per window, so instances vastly outnumber events.
    let mut b = tnm_graph::TemporalGraphBuilder::new();
    let mut x = 0x9E3779B97F4A7C15u64;
    for t in 0..20_000i64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = ((x >> 33) % 12) as u32;
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut v = ((x >> 33) % 12) as u32;
        if v == u {
            v = (v + 1) % 12;
        }
        b.push(tnm_graph::Event::new(u, v, t));
    }
    let dense = b.build().unwrap();
    let college = dataset("CollegeMsg", 8_000);
    let mut group = c.benchmark_group("stream_engine");
    group.sample_size(10);
    for (name, g, dw) in [("dense", &dense, 60i64), ("CollegeMsg", &college, 3_000)] {
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(dw));
        assert!(StreamEngine::eligible(&cfg));
        group.throughput(Throughput::Elements(g.num_events() as u64));
        group.bench_with_input(BenchmarkId::new("windowed", name), g, |b, g| {
            b.iter(|| black_box(WindowedEngine.count(g, &cfg)))
        });
        group.bench_with_input(BenchmarkId::new("stream", name), g, |b, g| {
            b.iter(|| black_box(StreamEngine.count(g, &cfg)))
        });
    }
    group.finish();
}

/// The sharded engine's worker-process transport: every iteration plans
/// shards, writes their files, spawns real `tnm worker` processes, and
/// merges their framed replies — the full wire round trip, tracked
/// against the in-process windowed baseline.
///
/// `workers/N` times the whole round trip. That number alone is
/// ambiguous: a regression could hide in process spawn + shard-file
/// writes (one-time setup) or in the shard walks themselves (the steady-state
/// cost that scales with data). So each worker count also records a
/// span-based decomposition from instrumented runs — `setup/N` sums the
/// coordinator's `distributed.{plan,spill,spawn}` spans, `steady/N`
/// the `distributed.{walk,merge}` spans (worker-reported shard wall
/// times plus coordinator merges). Distinct ids mean `bench_check`
/// gates the two regimes independently.
fn bench_distributed_engine(c: &mut Criterion) {
    assert!(
        ShardedEngine::worker_binary().is_some(),
        "distributed bench needs the `tnm` binary: build the workspace (release) first"
    );
    let g = dataset("SMS-A", 12_000);
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(3000));
    let mut group = c.benchmark_group("distributed_engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_events() as u64));
    group.bench_function("windowed_baseline", |b| {
        b.iter(|| black_box(WindowedEngine.count(&g, &cfg)))
    });
    // One instrumented run → (plan+spill+spawn, walk+merge) span sums.
    let phase_split = |engine: &ShardedEngine| -> (Duration, Duration) {
        tnm_obs::set_enabled(true);
        tnm_obs::drain_spans();
        black_box(engine.count(&g, &cfg));
        let spans = tnm_obs::drain_spans();
        tnm_obs::set_enabled(false);
        let sum = |names: &[&str]| {
            spans
                .iter()
                .filter(|s| names.contains(&s.name.as_str()))
                .map(|s| Duration::from_nanos(s.dur_ns))
                .sum::<Duration>()
        };
        (
            sum(&["distributed.plan", "distributed.spill", "distributed.spawn"]),
            sum(&["distributed.walk", "distributed.merge"]),
        )
    };
    for workers in [2usize, 4] {
        let engine = ShardedEngine::new(2_000).with_workers(workers);
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, _| {
            b.iter(|| black_box(engine.count(&g, &cfg)))
        });
        // A bounded number of instrumented runs feeds both phase ids
        // (cycled through `iter_custom`), so a sub-threshold phase can't
        // trigger the fast-body boost into dozens of full round trips.
        let runs: Vec<(Duration, Duration)> = (0..4).map(|_| phase_split(&engine)).collect();
        let steady_runs = runs.clone();
        group.bench_with_input(BenchmarkId::new("setup", workers), &workers, |b, _| {
            let mut cycle = runs.iter().cycle();
            b.iter_custom(|_iters| cycle.next().expect("non-empty").0)
        });
        group.bench_with_input(BenchmarkId::new("steady", workers), &workers, |b, _| {
            let mut cycle = steady_runs.iter().cycle();
            b.iter_custom(|_iters| cycle.next().expect("non-empty").1)
        });
    }
    group.finish();
}

/// The serve subsystem's incremental counting path: advancing a live
/// subscription by an appended tail (O(new events) of DP work on the
/// ΔW suffix) vs recounting the grown graph from scratch with the
/// stream engine. The gap is the amortization `tnm serve` buys for
/// every `AppendEvents` — both sides end bit-identical by contract.
fn bench_serve_incremental(c: &mut Criterion) {
    let g = dataset("CollegeMsg", 20_000);
    let all = g.events();
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(3000));
    let mut group = c.benchmark_group("serve_incremental");
    group.sample_size(10);
    for tail in [512usize, 2_048] {
        let (history, live) = all.split_at(all.len() - tail);
        let base = tnm_graph::TemporalGraphBuilder::from_events(history.to_vec()).build().unwrap();
        let warm = IncrementalStream::new(&base, &cfg).expect("stream-eligible config");
        group.throughput(Throughput::Elements(tail as u64));
        // Each iteration re-clones the warm subscription (append mutates);
        // the clone is O(spectrum + ΔW suffix), charged to the append side.
        group.bench_with_input(BenchmarkId::new("append", tail), &warm, |b, warm| {
            b.iter(|| {
                let mut sub = warm.clone();
                sub.append(live).expect("ordered tail");
                black_box(sub.counts())
            })
        });
        group.bench_with_input(BenchmarkId::new("recount", tail), &g, |b, g| {
            b.iter(|| black_box(StreamEngine.count(g, &cfg)))
        });
    }
    group.finish();
}

/// Window-index construction vs reuse. `build_fresh` times the first
/// `window_index()` call on a clone taken before any build (the clone
/// itself, made with columns already built, stays outside the timing);
/// `graph_warm` times a later call, which returns the view the graph
/// already holds.
fn bench_window_index_reuse(c: &mut Criterion) {
    let g = dataset("Email", 20_000);
    let _ = g.columns();
    let mut group = c.benchmark_group("window_index_reuse");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_events() as u64));
    group.bench_function("build_fresh", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let fresh = g.clone();
                let t0 = std::time::Instant::now();
                black_box(fresh.window_index());
                total += t0.elapsed();
            }
            total
        })
    });
    let warm = g.clone();
    warm.window_index();
    group.bench_function("graph_warm", |b| b.iter(|| black_box(warm.window_index())));
    group.finish();
}

/// The shared walker on the paper's model comparison: `WindowedEngine`
/// on the 40k-event StackOverflow spec for each of the four models
/// (ΔC = 1500 s, ΔW = 3000 s) at 3 events on ≤ 3 nodes, plus the Table 5
/// ΔC/ΔW = 0.5 and 0.25 configs. Two 4-event ids time the restrictions
/// the walk applies while it gathers: `exact_3n` (exactly 3 nodes,
/// ΔC/ΔW = 0.5, so most steps run at the full node budget) and
/// `kovanen_4e` (Kovanen's model on ≤ 4 nodes). Every id walks, whatever
/// `auto` would pick; the index is built before timing starts.
fn bench_walker_models(c: &mut Criterion) {
    let g = dataset("StackOverflow", 40_000);
    g.window_index();
    let mut group = c.benchmark_group("walker_models");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_events() as u64));
    let names = ["kovanen", "song", "hulovatyy", "paranjape"];
    for (name, model) in names.into_iter().zip(MotifModel::all_four(1500, 3000)) {
        let cfg = EnumConfig::for_model(&model, 3, 3);
        group.bench_function(name, |b| b.iter(|| black_box(WindowedEngine.count(&g, &cfg))));
    }
    for (name, ratio) in [("ratio_0.5", 0.5), ("ratio_0.25", 0.25)] {
        let cfg = EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::from_ratio(3000, ratio));
        group.bench_function(name, |b| b.iter(|| black_box(WindowedEngine.count(&g, &cfg))));
    }
    let exact = EnumConfig::new(4, 3).exact_nodes(3).with_timing(Timing::from_ratio(3000, 0.5));
    let kovanen = EnumConfig::for_model(&MotifModel::kovanen(1500), 4, 4);
    for (name, cfg) in [("exact_3n", exact), ("kovanen_4e", kovanen)] {
        group.bench_function(name, |b| b.iter(|| black_box(WindowedEngine.count(&g, &cfg))));
    }
    group.finish();
}

/// Instances of one signature, prefix-pruned by the windowed walker.
fn count_one(g: &TemporalGraph, s: MotifSignature, timing: Timing) -> u64 {
    WindowedEngine.count(g, &EnumConfig::for_signature(s).with_timing(timing)).total()
}

fn bench_signature_targeting(c: &mut Criterion) {
    let g = dataset("CollegeMsg", 8_000);
    let timing = Timing::only_w(3000);
    let mut group = c.benchmark_group("signature_targeting");
    group.sample_size(10);
    group.bench_function("full_spectrum_3e", |b| {
        b.iter(|| black_box(count_motifs(&g, &EnumConfig::new(3, 3).with_timing(timing))))
    });
    group.bench_function("targeted_010102", |b| {
        b.iter(|| black_box(count_one(&g, sig("010102"), timing)))
    });
    group.bench_function("targeted_011202", |b| {
        b.iter(|| black_box(count_one(&g, sig("011202"), timing)))
    });
    group.finish();
}

fn bench_streaming_matcher(c: &mut Criterion) {
    let g = dataset("Calls-Copenhagen", 3_600);
    let mut group = c.benchmark_group("streaming_matcher");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_events() as u64));
    group.bench_function("triangle_pattern", |b| {
        b.iter(|| {
            let pattern = EventPattern::from_signature(sig("011202"), 3000);
            black_box(StreamingMatcher::match_graph(pattern, &g).len())
        })
    });
    group.finish();
}

/// The observability tax. `metrics_off` is the pinned id: with the
/// registry disabled every instrumentation site must cost one relaxed
/// atomic load and a branch, so this id regressing against the BENCH
/// history means overhead leaked into the disabled hot path.
/// `metrics_on` tracks the enabled-path cost (interned handles, atomic
/// adds, span clock reads) on the same workload — expected to sit
/// within a few percent of `metrics_off`, but not gated against it.
fn bench_obs_overhead(c: &mut Criterion) {
    // Deterministic LCG graph: 24 nodes, 20k events, ΔW=40 — the same
    // hub-dense shape as `parallel_scaling`, instrumentation-heavy
    // because candidate pruning and cache checks fire per event.
    let mut b = tnm_graph::TemporalGraphBuilder::new();
    let mut x = 0xD1B54A32D192ED03u64;
    for t in 0..20_000i64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = ((x >> 33) % 24) as u32;
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut v = ((x >> 33) % 24) as u32;
        if v == u {
            v = (v + 1) % 24;
        }
        b.push(tnm_graph::Event::new(u, v, t));
    }
    let g = b.build().unwrap();
    let cfg = EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::only_w(40));
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_events() as u64));
    tnm_obs::set_enabled(false);
    group.bench_function("metrics_off", |b| b.iter(|| black_box(WindowedEngine.count(&g, &cfg))));
    tnm_obs::set_enabled(true);
    tnm_obs::global().reset();
    group.bench_function("metrics_on", |b| b.iter(|| black_box(WindowedEngine.count(&g, &cfg))));
    tnm_obs::set_enabled(false);
    tnm_obs::global().reset();
    tnm_obs::drain_spans();
    group.finish();
}

/// The tracing tax on the query path. `trace_off` is the pinned id:
/// with no request trace active, every span site under [`Query::run`]
/// (the query root, walker workers, engine phases) must cost one
/// thread-local read, one relaxed atomic load and a branch — this id regressing against the
/// BENCH history means overhead leaked into the untraced hot path,
/// which every `tnm serve` request without the trace flag pays.
/// `trace_on` runs the identical query under a request-scoped
/// [`tnm_obs::TraceCtx`] — clock reads, span records, and the final
/// tree collection — tracking the opt-in price of `tnm client
/// --trace` / `--profile`. Expected within a few percent of
/// `trace_off`, but not gated against it.
fn bench_query_trace_overhead(c: &mut Criterion) {
    // The obs_overhead LCG graph: 24 nodes, 20k events, ΔW=40 —
    // instrumentation-heavy because pruning and cache checks fire per
    // event, so leaked span overhead shows up immediately.
    let mut b = tnm_graph::TemporalGraphBuilder::new();
    let mut x = 0x9E3779B97F4A7C15u64;
    for t in 0..20_000i64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = ((x >> 33) % 24) as u32;
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut v = ((x >> 33) % 24) as u32;
        if v == u {
            v = (v + 1) % 24;
        }
        b.push(tnm_graph::Event::new(u, v, t));
    }
    let g = b.build().unwrap();
    let cfg = EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::only_w(40));
    let q = Query::Count { cfg, engine: EngineKind::Windowed, threads: 1 };
    let mut group = c.benchmark_group("query_trace_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_events() as u64));
    tnm_obs::set_enabled(false);
    tnm_obs::set_trace(None);
    group.bench_function("trace_off", |b| b.iter(|| black_box(q.run(&g).unwrap())));
    group.bench_function("trace_on", |b| {
        b.iter(|| {
            let ctx = tnm_obs::TraceCtx::new();
            tnm_obs::set_trace(Some(ctx));
            let out = q.run(&g);
            tnm_obs::set_trace(None);
            let spans = tnm_obs::take_trace_spans(ctx.trace_id);
            black_box((out.unwrap(), spans.len()))
        })
    });
    tnm_obs::drain_spans();
    group.finish();
}

/// The dense hub graph the hot-path groups share: 12 nodes, 20k events
/// over 20k seconds — long per-center lists and long endpoint runs, so
/// the inner loops dominate and layout effects show.
fn hotpath_graph() -> TemporalGraph {
    let mut b = tnm_graph::TemporalGraphBuilder::new();
    let mut x = 0xC2B2AE3D27D4EB4Fu64;
    for t in 0..20_000i64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = ((x >> 33) % 12) as u32;
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut v = ((x >> 33) % 12) as u32;
        if v == u {
            v = (v + 1) % 12;
        }
        b.push(tnm_graph::Event::new(u, v, t));
    }
    b.build().unwrap()
}

/// A batch of δ-window probes answered by `partition_point` over the
/// dense time column — the primitive the other `hotpath_*` groups build
/// on.
fn bench_hotpath_window_probe(c: &mut Criterion) {
    let g = dataset("Email", 20_000);
    let times = g.times();
    let (t0, t1) = (times[0], times[times.len() - 1]);
    let mut probes = Vec::with_capacity(4_096);
    let mut x = 0x243F6A8885A308D3u64;
    for _ in 0..4_096 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let a = t0 + ((x >> 17) as i64).rem_euclid((t1 - t0).max(1));
        probes.push((a, a + 3_000));
    }
    let probe_soa = || {
        probes
            .iter()
            .map(|&(a, b)| times.partition_point(|&t| t <= b) - times.partition_point(|&t| t < a))
            .sum::<usize>()
    };
    let mut group = c.benchmark_group("hotpath_window_probe");
    group.sample_size(10);
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function("soa_column", |b| b.iter(|| black_box(probe_soa())));
    group.finish();
}

/// The 3-event 2-node class alone: the per-center pass over each
/// center's higher-id leaves (`stream_hotpath::pair_triples`).
fn bench_hotpath_pair_dp(c: &mut Criterion) {
    let g = hotpath_graph();
    let delta = 60i64;
    let mut group = c.benchmark_group("hotpath_pair_dp");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_events() as u64));
    group.bench_function("soa", |b| b.iter(|| black_box(stream_hotpath::pair_triples(&g, delta))));
    group.finish();
}

/// The flat-table shared-bounds star sweeps.
fn bench_hotpath_star_dp(c: &mut Criterion) {
    let g = hotpath_graph();
    let delta = 60i64;
    let mut group = c.benchmark_group("hotpath_star_dp");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_events() as u64));
    group.bench_function("soa", |b| b.iter(|| black_box(stream_hotpath::star_stars(&g, delta))));
    group.finish();
}

/// The triangle pass: per first event, a merge of its endpoints' ΔW
/// runs. `soa` runs the 12-node hub graph (every run is long: the merge
/// and closure loop dominate); `sparse_stackoverflow` a 40k-event,
/// many-node StackOverflow-spec corpus at ΔW 3000 (short runs, most of
/// them empty). Both graphs build their window index once, in the
/// warm-up, so the rows time the per-count pass alone; its cost follows
/// window occupancy, not the number of static triangles.
fn bench_hotpath_triad_dp(c: &mut Criterion) {
    let g = hotpath_graph();
    let delta = 60i64;
    let mut group = c.benchmark_group("hotpath_triad_dp");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_events() as u64));
    group.bench_function("soa", |b| b.iter(|| black_box(stream_hotpath::triad_triads(&g, delta))));
    let sparse = dataset("StackOverflow", 40_000);
    group.throughput(Throughput::Elements(sparse.num_events() as u64));
    group.bench_function("sparse_stackoverflow", |b| {
        b.iter(|| black_box(stream_hotpath::triad_triads(&sparse, 3_000)))
    });
    group.finish();
}

/// Shard-plan boundary scans: the planner's dense-time-column
/// `partition_point`s.
fn bench_hotpath_shard_plan(c: &mut Criterion) {
    let g = dataset("Email", 20_000);
    let (reach, target) = (3_000i64, 500usize);
    let mut group = c.benchmark_group("hotpath_shard_plan");
    group.sample_size(10);
    group.bench_function("soa", |b| {
        b.iter(|| {
            black_box(
                tnm_graph::plan_shards(
                    &g,
                    Some(reach),
                    tnm_graph::ShardGoal::EventsPerShard(target),
                )
                .total_materialized_events(),
            )
        })
    });
    group.finish();
}

/// The graph build a served graph pays at load: `from_sorted_events`
/// (sortedness check, node index) on a sparse many-node
/// StackOverflow-spec corpus of 40k events and a CollegeMsg-spec corpus
/// of 150k. `collegemsg_150k_edges` adds the first `has_edge`, which
/// builds the edge index, so the row keeps the whole cost of a graph
/// that static-edge readers use. The event-log copy each build consumes
/// is made outside the timed region. `collegemsg_150k_append_512` is
/// what a served graph pays per append instead of a rebuild:
/// `TemporalGraph::append` of 512 events, starting at the last
/// timestamp, onto the 150k-event graph with its node index built. The
/// graph is cloned and grown by one event at that timestamp outside the
/// timed region: a clone has no spare capacity, and without that first
/// append the timed one would also reallocate the log and the node
/// lists, which a served graph does only when their capacity doubles.
fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    group.sample_size(10);
    for (name, events, id, edges) in [
        ("StackOverflow", 40_000, "stackoverflow_40k", false),
        ("CollegeMsg", 150_000, "collegemsg_150k", false),
        ("CollegeMsg", 150_000, "collegemsg_150k_edges", true),
    ] {
        let g = dataset(name, events);
        let probe = g.events()[0].edge();
        group.throughput(Throughput::Elements(g.num_events() as u64));
        group.bench_function(id, |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let log = g.events().to_vec();
                    let t0 = std::time::Instant::now();
                    let built = black_box(TemporalGraph::from_sorted_events(log, g.num_nodes()));
                    if edges {
                        assert!(built.has_edge(black_box(probe)));
                    }
                    total += t0.elapsed();
                    drop(built);
                }
                total
            })
        });
    }
    let full = dataset("CollegeMsg", 150_000 + 512);
    let (head, rest) = full.events().split_at(150_000);
    let base = TemporalGraph::from_sorted_events(head.to_vec(), full.num_nodes());
    let shift = rest[0].time - head[head.len() - 1].time;
    let batch: Vec<Event> = rest.iter().map(|e| Event { time: e.time - shift, ..*e }).collect();
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("collegemsg_150k_append_512", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let graph = base.clone().append(&batch[..1]);
                let t0 = std::time::Instant::now();
                let grown = black_box(graph.append(black_box(&batch)));
                total += t0.elapsed();
                assert_eq!(grown.num_events(), 150_513);
            }
            total
        })
    });
    group.finish();
}

/// Edge-list ingest, `read_edge_list_str` end to end (parse, node-id
/// compaction, tie-run sort, graph build), on the text `cold_count`
/// parses: SMS-A at 3× its event budget, about 90k tie-heavy events.
/// `sms_a_90k` keeps the generator's small ids, which the parser's dense
/// table compacts; `sparse_ids` shifts every id past `2 × lines`, so
/// each lookup goes through the keyed hash map. The text is generated
/// outside the timed region.
fn bench_ingest(c: &mut Criterion) {
    let mut spec = DatasetSpec::sms_a();
    spec.num_events *= 3;
    let g = generate(&spec, 1);
    let mut dense = Vec::new();
    tnm_graph::io::write_edge_list(&g, &mut dense).unwrap();
    let dense = String::from_utf8(dense).unwrap();
    let shift = 1u64 << 40;
    let sparse: String = g
        .events()
        .iter()
        .map(|e| format!("{} {} {}\n", shift + e.src.0 as u64, shift + e.dst.0 as u64, e.time))
        .collect();
    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_events() as u64));
    for (id, text) in [("sms_a_90k", &dense), ("sparse_ids", &sparse)] {
        group.bench_function(id, |b| {
            b.iter(|| black_box(tnm_graph::io::read_edge_list_str(text).unwrap()))
        });
    }
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataset_generation");
    group.sample_size(10);
    for name in ["SMS-Copenhagen", "Email", "StackOverflow"] {
        let spec = DatasetSpec::by_name(name).unwrap();
        group.throughput(Throughput::Elements(spec.num_events as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &spec, |b, spec| {
            b.iter(|| black_box(generate(spec, 42)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_comparison,
    bench_hub_tight_window,
    bench_window_tightness,
    bench_parallel_scaling,
    bench_batch_planner,
    bench_sampling_engine,
    bench_sharded_engine,
    bench_stream_engine,
    bench_distributed_engine,
    bench_serve_incremental,
    bench_window_index_reuse,
    bench_walker_models,
    bench_signature_targeting,
    bench_streaming_matcher,
    bench_obs_overhead,
    bench_query_trace_overhead,
    bench_hotpath_window_probe,
    bench_hotpath_pair_dp,
    bench_hotpath_star_dp,
    bench_hotpath_triad_dp,
    bench_hotpath_shard_plan,
    bench_graph_build,
    bench_ingest,
    bench_generation
);
criterion_main!(benches);
