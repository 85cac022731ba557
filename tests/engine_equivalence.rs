//! Cross-engine equivalence suite.
//!
//! The engine subsystem's core contract: every exact [`CountEngine`] —
//! the window-indexed walk on one and on several threads, stream, and
//! time-slice sharded — produces **identical**
//! [`MotifCounts`] for identical configurations. This suite pins the
//! contract across:
//!
//! * all four paper models (Kovanen, Song, Hulovatyy, Paranjape);
//! * 2-, 3-, and 4-event motif sizes;
//! * tight and loose ΔC/ΔW regimes (plus unbounded);
//! * generated graphs: seeded random batches (tie-rich) and the
//!   synthetic dataset generator corpora;
//! * adversarial shard geometries — cuts inside motif spans, down to
//!   one start event per shard, and duplicate timestamps straddling a
//!   cut ([`sharded_boundaries_are_exact`]);
//! * the stream engine's count-without-enumerating fast path across
//!   every eligible Paranjape configuration, equal-timestamp tie sweeps
//!   included, plus its fall-back on ineligible configurations
//!   ([`stream_fast_path_matches_walkers`],
//!   [`stream_rejects_ineligible_and_falls_back`]);
//! * the data-oriented hot paths' worst cases — tie-saturated graphs
//!   whose merged lists are all multi-event timestamp groups, and
//!   duration-heavy graphs with duplicate timestamps
//!   ([`tie_saturated_and_duration_heavy_corpus_agrees`]);
//! * the sharded engine's worker-process transport: real `tnm worker`
//!   children counting shard files over the framed wire protocol, with
//!   a tiny shard target so every sweep ships many shards
//!   (`tests/distributed_engine.rs` adds the worker-crash rescheduling
//!   sweep on top).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temporal_motifs::prelude::*;
use tnm_datasets::{generate, DatasetSpec};
use tnm_motifs::engine::{CountEngine, EngineKind, ShardedEngine, StreamEngine, WindowedEngine};

/// The count every engine must match: the stream DPs on a
/// stream-eligible config — a separate algorithm that reads no window
/// index — and the one-thread windowed walk otherwise (the brute-force
/// oracle in `tests/engine_correctness.rs` checks the walk itself).
fn reference(graph: &TemporalGraph, cfg: &EnumConfig) -> MotifCounts {
    if StreamEngine::eligible(cfg) {
        StreamEngine.count(graph, cfg)
    } else {
        WindowedEngine.count(graph, cfg)
    }
}

/// Every engine under test: the windowed walk inline and on four
/// work-stealing threads, the stream engine, and the sharded
/// engine on both transports — in this thread (serially and with three
/// walk threads) and on two worker processes. The sharded runs use
/// deliberately tiny shard targets so the suite's small graphs still
/// split into many shards, with cuts landing inside motif spans — and,
/// for the worker transport, every shard actually crossing a process
/// boundary. The stream engine joins every sweep: on eligible
/// configurations it exercises the count-without-enumerating DPs, on
/// the rest its windowed fallback.
fn engines() -> Vec<Box<dyn CountEngine>> {
    vec![
        Box::new(WindowedEngine),
        Box::new(WindowedEngine::new(4)),
        Box::new(ShardedEngine::new(16)),
        Box::new(ShardedEngine::new(25).with_threads(3)),
        Box::new(StreamEngine),
        Box::new(ShardedEngine::new(20).with_workers(2)),
    ]
}

fn assert_all_engines_agree(graph: &TemporalGraph, cfg: &EnumConfig, label: &str) {
    let reference = reference(graph, cfg);
    for engine in engines() {
        let counts = engine.count(graph, cfg);
        assert_eq!(
            counts,
            reference,
            "{label}: engine `{}` disagrees with the reference",
            engine.name()
        );
    }
    // Every exact kind by registry — the sweep that guarantees a newly
    // registered engine cannot be silently skipped.
    for &kind in EngineKind::all_exact() {
        assert_eq!(kind.count(graph, cfg, 2), reference, "{label}: exact kind `{kind}` disagrees");
    }
    // The auto kind must agree regardless of how it resolves.
    for threads in [1, 4] {
        assert_eq!(
            EngineKind::Auto.count(graph, cfg, threads),
            reference,
            "{label}: auto engine with {threads} threads disagrees"
        );
    }
}

/// Seeded random graph: `events` events over `nodes` nodes with
/// timestamps in `0..horizon` (duplicates and ties on purpose).
fn random_graph(seed: u64, nodes: u32, events: usize, horizon: i64) -> TemporalGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Vec::with_capacity(events);
    while batch.len() < events {
        let u: u32 = rng.gen_range(0..nodes);
        let v: u32 = rng.gen_range(0..nodes);
        if u == v {
            continue;
        }
        batch.push(Event::new(u, v, rng.gen_range(0i64..horizon)));
    }
    TemporalGraph::from_events(batch).expect("non-empty batch")
}

/// The four paper models at a tight and a loose timing each.
fn four_models() -> Vec<MotifModel> {
    vec![
        MotifModel::kovanen(5),
        MotifModel::kovanen(60),
        MotifModel::song(12),
        MotifModel::song(200),
        MotifModel::hulovatyy(5),
        MotifModel::hulovatyy_constrained(25),
        MotifModel::paranjape(12),
        MotifModel::paranjape(200),
    ]
}

#[test]
fn all_models_all_sizes_on_random_graphs() {
    for (case, &(nodes, events, horizon)) in
        [(8u32, 60usize, 90i64), (15, 120, 200), (5, 80, 40)].iter().enumerate()
    {
        let g = random_graph(100 + case as u64, nodes, events, horizon);
        for model in four_models() {
            for k in [2usize, 3] {
                let cfg = EnumConfig::for_model(&model, k, 4);
                assert_all_engines_agree(
                    &g,
                    &cfg,
                    &format!("case {case}, model {}, k={k}", model.name),
                );
            }
        }
    }
}

#[test]
fn four_event_configs_agree() {
    // 4-event enumeration explodes combinatorially: keep graphs small
    // and timings bounded so the suite stays fast.
    let g = random_graph(7, 10, 70, 150);
    for model in [MotifModel::kovanen(20), MotifModel::song(40), MotifModel::paranjape(40)] {
        let cfg = EnumConfig::for_model(&model, 4, 4);
        assert_all_engines_agree(&g, &cfg, &format!("4e, model {}", model.name));
    }
}

#[test]
fn timing_regimes_tight_and_loose() {
    let g = random_graph(21, 12, 150, 300);
    let timings = [
        ("unbounded-ish", Timing::only_w(300)), // spans everything
        ("tight-c", Timing::only_c(3)),
        ("loose-c", Timing::only_c(100)),
        ("tight-w", Timing::only_w(8)),
        ("loose-w", Timing::only_w(250)),
        ("tight-both", Timing::both(3, 8)),
        ("mixed", Timing::both(40, 60)),
        ("c-binding", Timing::both(10, 250)),
        ("w-binding", Timing::both(200, 30)),
    ];
    for (label, timing) in timings {
        let cfg = EnumConfig::new(3, 3).with_timing(timing);
        assert_all_engines_agree(&g, &cfg, label);
    }
    // Fully unbounded (no pruning at all) on a smaller graph.
    let small = random_graph(22, 6, 40, 50);
    assert_all_engines_agree(&small, &EnumConfig::new(3, 4), "fully-unbounded");
}

#[test]
fn restrictions_and_node_bounds_agree() {
    let g = random_graph(33, 9, 100, 120);
    let base = EnumConfig::new(3, 3).with_timing(Timing::both(15, 40));
    let variants = [
        ("exact-3n", base.clone().exact_nodes(3)),
        ("consecutive", base.clone().with_consecutive(true)),
        ("induced", base.clone().with_static_induced(true)),
        ("constrained", base.clone().with_constrained(true)),
        ("2n-only", EnumConfig::new(3, 2).with_timing(Timing::only_w(60))),
    ];
    for (label, cfg) in variants {
        assert_all_engines_agree(&g, &cfg, label);
    }
}

#[test]
fn signature_targeting_agrees() {
    let g = random_graph(44, 8, 120, 160);
    for s in ["010102", "011202", "0112", "010203"] {
        let cfg = EnumConfig::for_signature(sig(s)).with_timing(Timing::only_w(50));
        assert_all_engines_agree(&g, &cfg, &format!("targeted {s}"));
    }
}

/// Seeded property-style sweep for shard boundaries: across all four
/// paper models at tight and loose ΔC/ΔW, adversarial shard sizes
/// (including one start event per shard, so every cut lands inside
/// every multi-event motif's span) and tie-rich graphs whose duplicate
/// timestamps straddle the cuts, the sharded engine's in-thread
/// transport must match the reference exactly.
#[test]
fn sharded_boundaries_are_exact() {
    // horizon << events ⇒ duplicate timestamps everywhere, including on
    // every shard cut.
    for (case, &(seed, nodes, events, horizon)) in
        [(400u64, 8u32, 120usize, 40i64), (401, 12, 160, 300)].iter().enumerate()
    {
        let g = random_graph(seed, nodes, events, horizon);
        for model in four_models() {
            for k in [2usize, 3] {
                let cfg = EnumConfig::for_model(&model, k, 4);
                let reference = reference(&g, &cfg);
                for shard_events in [1usize, 2, 7, 33, events] {
                    assert_eq!(
                        ShardedEngine::new(shard_events).count(&g, &cfg),
                        reference,
                        "case {case}, model {}, k={k}, shard_events={shard_events}",
                        model.name
                    );
                }
            }
        }
    }
}

/// The acceptance matrix for the stream fast path: across four
/// generator corpora and 2-/3-event sizes, every eligible Paranjape
/// configuration (non-induced, only-ΔW) must count **bit-identically**
/// to the windowed walker — node-budget slices, exact-node slices, and
/// signature targeting included. The tie-heavy sweep replays the same
/// matrix on graphs whose horizon is far smaller than the event count,
/// so duplicate timestamps saturate every window boundary.
#[test]
fn stream_fast_path_matches_walkers() {
    // Generator corpora: realistic burstiness and recall patterns.
    for name in ["CollegeMsg", "Email", "SMS-A", "Bitcoin-otc"] {
        let mut spec = DatasetSpec::by_name(name).expect("known dataset");
        spec.num_events = 1_200;
        let g = generate(&spec, 13);
        let quarter = (g.timespan() / 4).max(1);
        for k in [2usize, 3] {
            for delta in [60, 1_500, quarter] {
                let model = tnm_motifs::models::paranjape::without_inducedness(delta);
                let cfg = EnumConfig::for_model(&model, k, 3);
                assert!(StreamEngine::eligible(&cfg), "{name} k={k} ΔW={delta}");
                assert_eq!(
                    StreamEngine.count(&g, &cfg),
                    WindowedEngine.count(&g, &cfg),
                    "{name}, k={k}, ΔW={delta}"
                );
            }
        }
        // Node-bound and targeting variants on one window.
        let base = EnumConfig::new(3, 3).with_timing(Timing::only_w(1_500));
        for cfg in [
            base.clone(),
            base.clone().exact_nodes(3),
            base.clone().exact_nodes(2),
            EnumConfig::new(2, 3).with_timing(Timing::only_w(900)),
            EnumConfig::new(1, 2).with_timing(Timing::only_w(900)),
            EnumConfig::for_signature(sig("011202")).with_timing(Timing::only_w(1_500)),
            EnumConfig::for_signature(sig("010102")).with_timing(Timing::only_w(1_500)),
            EnumConfig::for_signature(sig("0110")).with_timing(Timing::only_w(900)),
        ] {
            assert!(StreamEngine::eligible(&cfg), "{name}: {cfg:?}");
            assert_eq!(
                StreamEngine.count(&g, &cfg),
                WindowedEngine.count(&g, &cfg),
                "{name}, variant {cfg:?}"
            );
        }
    }
    // Adversarial equal-timestamp sweep: horizon ≪ events, so nearly
    // every timestamp is duplicated and groups straddle window edges.
    for (seed, nodes, events, horizon) in
        [(901u64, 6u32, 150usize, 25i64), (902, 10, 200, 12), (903, 4, 120, 6)]
    {
        let g = random_graph(seed, nodes, events, horizon);
        for k in [2usize, 3] {
            for delta in [0i64, 1, 3, horizon] {
                let cfg = EnumConfig::new(k, 3).with_timing(Timing::only_w(delta));
                assert_eq!(
                    StreamEngine.count(&g, &cfg),
                    WindowedEngine.count(&g, &cfg),
                    "ties seed={seed}, k={k}, ΔW={delta}"
                );
            }
        }
    }
}

/// Ineligible configurations — here the full Paranjape model, whose
/// static inducedness the stream classes cannot check, and a ΔC-bearing
/// timing — must be rejected by the eligibility predicate and fall back
/// to the windowed walker with identical counts, via both the engine
/// itself and `auto_select` routing.
#[test]
fn stream_rejects_ineligible_and_falls_back() {
    let g = random_graph(77, 9, 140, 200);
    let induced = EnumConfig::for_model(&MotifModel::paranjape(60), 3, 3);
    let dc = EnumConfig::new(3, 3).with_timing(Timing::both(20, 60));
    let only_dc = EnumConfig::new(3, 3).with_timing(Timing::only_c(20));
    let four_events = EnumConfig::new(4, 4).with_timing(Timing::only_w(60));
    for cfg in [&induced, &dc, &only_dc, &four_events] {
        assert!(!StreamEngine::eligible(cfg), "{cfg:?} must be ineligible");
        let reference = WindowedEngine.count(&g, cfg);
        assert_eq!(StreamEngine.count(&g, cfg), reference, "fallback for {cfg:?}");
        // Auto never routes an ineligible job to the stream engine.
        assert_ne!(
            tnm_motifs::engine::auto_select(&g, cfg, 4),
            EngineKind::Stream,
            "auto_select must not pick stream for {cfg:?}"
        );
        assert_eq!(EngineKind::Auto.count(&g, cfg, 4), reference);
    }
    // ...and it does route the eligible twin there.
    let eligible = EnumConfig::new(3, 3).with_timing(Timing::only_w(60));
    assert_eq!(tnm_motifs::engine::auto_select(&g, &eligible, 4), EngineKind::Stream);
}

/// Adversarial corpus for the data-oriented hot paths. Two regimes the
/// SoA/arena rewrite is most sensitive to:
///
/// * **tie-saturated** — horizon ≪ events, so every merged list is
///   dominated by multi-event timestamp groups and the group-boundary
///   expiry (`partition_point` cuts landing exactly on group edges)
///   carries the whole DP;
/// * **duration-heavy** — every event has a nonzero duration comparable
///   to the window, exercising the duration-aware walkers (whose gap
///   base is `end_time`, read from the `Event` structs) against the
///   SoA-probing candidate gathering on the same graphs.
///
/// Both regimes must stay bit-identical across every engine — the
/// seven-engine matrix plus the registry and auto sweeps inside
/// [`assert_all_engines_agree`].
#[test]
fn tie_saturated_and_duration_heavy_corpus_agrees() {
    // ~12 events per timestamp on average; ΔW of 0/1/2 keeps whole
    // groups entering and leaving the window every step.
    for (seed, nodes, events, horizon) in [(950u64, 7u32, 140usize, 12i64), (951, 12, 180, 15)] {
        let g = random_graph(seed, nodes, events, horizon);
        for delta in [0i64, 2, horizon] {
            let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(delta));
            assert_all_engines_agree(&g, &cfg, &format!("tie-saturated seed={seed} ΔW={delta}"));
        }
        let wedge = EnumConfig::new(2, 3).with_timing(Timing::both(1, 3));
        assert_all_engines_agree(&g, &wedge, &format!("tie-saturated seed={seed} wedges"));
    }
    // Duration-heavy: durations up to half the horizon, plus duplicate
    // timestamps (sorting ties on duration exercises the 24-byte-struct
    // total order the SoA columns mirror).
    let mut rng = StdRng::seed_from_u64(960);
    let mut batch = Vec::with_capacity(140);
    while batch.len() < 140 {
        let u: u32 = rng.gen_range(0..9);
        let v: u32 = rng.gen_range(0..9);
        if u == v {
            continue;
        }
        batch.push(Event::with_duration(u, v, rng.gen_range(0i64..80), rng.gen_range(1u32..40)));
    }
    let g = TemporalGraph::from_events(batch).expect("non-empty batch");
    for model in [MotifModel::hulovatyy(10), MotifModel::hulovatyy_constrained(50)] {
        for k in [2usize, 3] {
            let cfg = EnumConfig::for_model(&model, k, 3);
            assert_all_engines_agree(&g, &cfg, &format!("duration-heavy {} k={k}", model.name));
        }
    }
    // The stream-eligible shape on the same duration-heavy graph: the
    // fast path must ignore durations exactly as the walkers do when
    // the model is not duration-aware.
    let only_w = EnumConfig::new(3, 3).with_timing(Timing::only_w(30));
    assert!(StreamEngine::eligible(&only_w));
    assert_all_engines_agree(&g, &only_w, "duration-heavy only-ΔW");
}

#[test]
fn generator_corpora_agree() {
    // Real synthetic corpora (burstiness, habitual recall, ties) at a
    // scale that keeps the 3-engine × 2-config sweep under a second.
    for name in ["CollegeMsg", "Email", "Bitcoin-otc"] {
        let mut spec = DatasetSpec::by_name(name).expect("known dataset");
        spec.num_events = 1_500; // above SERIAL_FALLBACK_EVENTS: auto takes the budget
        let g = generate(&spec, 9);
        for cfg in [
            EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::only_c(1500)),
            EnumConfig::new(2, 2).with_timing(Timing::both(600, 1200)),
        ] {
            assert_all_engines_agree(&g, &cfg, name);
        }
    }
}
