//! Sharded-engine integration suite: planner geometry through the
//! public API, the `EngineKind` seam, and real coordinator/worker
//! process pairs over the framed wire protocol.
//!
//! Four contracts are pinned here:
//!
//! * **Bounded halos** — a shard materializes its owned events plus a
//!   reach-sized halo, never the rest of the log.
//! * **Exactness across the process boundary** — counts from spawned
//!   `tnm worker` children merge to bit-identical totals vs the
//!   in-process [`WindowedEngine`], across shard sizes, worker counts,
//!   restriction flags (including the static-inducedness recheck that
//!   runs on the coordinator), and signature targeting.
//! * **Crash rescheduling** — a worker killed mid-run (fault-injected
//!   via `TNM_WORKER_EXIT_AFTER`) loses nothing: its in-flight shard is
//!   rescheduled onto the surviving worker and the final counts stay
//!   bit-identical.
//! * **Wire robustness** — the public framing and event-block decoders
//!   reject a corpus of corruptions (truncation at every prefix, bad
//!   magic, bad version, oversized length headers, trailing bytes)
//!   with errors, never panics, OOM-sized allocations, or silent
//!   short reads.

mod common;

use common::random_graph;
use temporal_motifs::prelude::*;
use tnm_datasets::{generate, DatasetSpec};
use tnm_graph::shard::{plan_shards, ShardGoal};
use tnm_motifs::engine::{CountEngine, ShardedEngine, WindowedEngine};

/// The halo is reach-sized, so `max_shard_events` stays near
/// `shard_events + (events within reach)` instead of degenerating to
/// the whole graph.
#[test]
fn halos_stay_bounded_by_reach() {
    let g = random_graph(7, 30, 6_000, 30_000);
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(100));
    let reach = cfg.admissible_reach(&g).expect("ΔW bounds the reach");
    assert_eq!(reach, 100);
    let plan = plan_shards(&g, Some(reach), ShardGoal::EventsPerShard(400));
    // ~0.2 events per second ⇒ a 100 s halo holds a few dozen events;
    // 4× leaves generous slack while still catching a runaway halo.
    let density = g.num_events() as f64 / g.timespan() as f64;
    let halo_budget = (4.0 * density * reach as f64) as usize + 400;
    for spec in &plan.shards {
        assert!(
            spec.num_events() <= 400 + halo_budget,
            "shard {} materializes {} events (owned {}, pad {}, halo {})",
            spec.id,
            spec.num_events(),
            spec.num_owned(),
            spec.pad_len(),
            spec.halo_len()
        );
    }
}

/// The worker-process transport is bit-exact against the serial
/// engines even with graph-global restrictions enabled (consecutive
/// events need the pad; static inducedness needs the coordinator's
/// parent-graph recheck).
#[test]
fn spilled_counts_match_with_global_restrictions() {
    let g = random_graph(21, 15, 2_000, 5_000);
    let base = EnumConfig::new(3, 3).with_timing(Timing::both(40, 90));
    let variants = [
        ("plain", base.clone()),
        ("consecutive", base.clone().with_consecutive(true)),
        ("induced", base.clone().with_static_induced(true)),
        ("constrained", base.clone().with_constrained(true)),
    ];
    for (label, cfg) in variants {
        let reference = WindowedEngine.count(&g, &cfg);
        assert_eq!(
            ShardedEngine::new(150).with_workers(2).count(&g, &cfg),
            reference,
            "{label}: worker processes"
        );
        assert_eq!(
            ShardedEngine::new(150).with_workers(2).with_threads(3).count(&g, &cfg),
            reference,
            "{label}: worker processes + threads"
        );
        for threads in [1, 3] {
            assert_eq!(
                ShardedEngine::new(150).with_threads(threads).count(&g, &cfg),
                reference,
                "{label}: in thread, {threads} threads"
            );
        }
    }
}

/// Sharded runs behave through the `EngineKind` seam used by the CLI
/// and the experiment drivers: parameters survive, reports are exact.
#[test]
fn engine_kind_round_trip() {
    let g = random_graph(11, 12, 800, 2_500);
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(60));
    let reference = WindowedEngine.count(&g, &cfg);
    for workers in [0, 2] {
        let kind = EngineKind::sharded(90, workers);
        assert_eq!(kind.count(&g, &cfg, 2), reference, "workers={workers}");
        let report = kind.report(&g, &cfg, 2);
        assert!(report.exact);
        assert_eq!(report.engine, "sharded");
        assert_eq!(report.counts, reference);
        assert!(report.total.is_exact());
    }
    assert_eq!("sharded".parse::<EngineKind>().unwrap().count(&g, &cfg, 1), reference);
}

/// The worker binary must resolve in the test environment — without
/// it, every other test in this file would silently exercise the
/// in-process fallback instead of the wire.
#[test]
fn worker_binary_resolves() {
    let bin = ShardedEngine::worker_binary()
        .expect("`tnm` binary not found next to the test executable — build the workspace");
    assert!(bin.is_file());
}

#[test]
fn matches_windowed_across_shard_sizes_and_workers() {
    let _obs = tnm_obs::test_guard();
    tnm_obs::set_enabled(true);
    tnm_obs::global().reset();
    let g = random_graph(501, 12, 260, 300);
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::both(20, 45));
    let reference = WindowedEngine.count(&g, &cfg);
    for shard_events in [1usize, 9, 50] {
        for workers in [1usize, 2, 3] {
            let engine = ShardedEngine::new(shard_events).with_workers(workers);
            let (counts, stats) = engine.count_with_stats(&g, &cfg);
            assert_eq!(counts, reference, "shard_events={shard_events}, workers={workers}");
            assert!(stats.shards > 1, "plan must actually shard");
            assert_eq!(
                stats.workers_spawned,
                workers.min(stats.shards),
                "every configured worker must actually spawn"
            );
        }
    }
    // Healthy runs: the registry's loss/reschedule counters stay
    // untouched across the whole sweep.
    let snap = tnm_obs::global().snapshot();
    tnm_obs::set_enabled(false);
    assert_eq!(snap.counters.get("distributed.workers_lost"), None);
    assert_eq!(snap.counters.get("distributed.jobs_rescheduled"), None);
}

/// Within-worker threading: the job descriptor carries a thread budget
/// and each worker runs the shared work-stealing walk over its shard —
/// counts (and aggregated induced groups) must stay bit-identical.
#[test]
fn worker_threads_are_exact() {
    let g = random_graph(506, 10, 240, 200);
    for cfg in [
        EnumConfig::new(3, 3).with_timing(Timing::both(15, 35)),
        EnumConfig::new(3, 3).with_timing(Timing::only_w(30)).with_static_induced(true),
    ] {
        let reference = WindowedEngine.count(&g, &cfg);
        let engine = ShardedEngine::new(40).with_workers(2).with_threads(3);
        let (counts, stats) = engine.count_with_stats(&g, &cfg);
        assert_eq!(counts, reference);
        assert_eq!(stats.workers_spawned, 2);
    }
}

/// The one whole-timeline predicate: static inducedness is stripped in
/// the workers and re-checked on the coordinator against the parent
/// graph. Counts must match the in-process engines exactly — on the
/// full Paranjape and Hulovatyy models and a signature-targeted run.
#[test]
fn coordinator_recheck_keeps_induced_models_exact() {
    let g = random_graph(502, 9, 200, 150);
    for (label, cfg) in [
        ("paranjape", EnumConfig::for_model(&MotifModel::paranjape(40), 3, 3)),
        ("hulovatyy", EnumConfig::for_model(&MotifModel::hulovatyy(12), 3, 3)),
        (
            "induced+consecutive",
            EnumConfig::new(3, 3)
                .with_timing(Timing::both(15, 40))
                .with_static_induced(true)
                .with_consecutive(true),
        ),
        (
            "targeted",
            EnumConfig::for_signature(sig("011202"))
                .with_timing(Timing::only_w(30))
                .with_static_induced(true),
        ),
    ] {
        let reference = WindowedEngine.count(&g, &cfg);
        let (counts, stats) = ShardedEngine::new(15).with_workers(2).count_with_stats(&g, &cfg);
        assert_eq!(counts, reference, "{label}");
        assert!(stats.workers_spawned > 0, "{label}: must cross the process boundary");
        for threads in [1, 3] {
            assert_eq!(
                ShardedEngine::new(15).with_threads(threads).count(&g, &cfg),
                reference,
                "{label}: in thread, {threads} threads"
            );
        }
    }
}

/// Kill a worker mid-run: worker 0 exits after serving exactly one
/// job, the coordinator detects the dead pipes, requeues the in-flight
/// shard onto the survivor, and the totals come out bit-identical.
#[test]
fn worker_crash_mid_run_is_rescheduled_exactly() {
    let _obs = tnm_obs::test_guard();
    tnm_obs::set_enabled(true);
    let g = random_graph(503, 11, 300, 260);
    for cfg in [
        EnumConfig::new(3, 3).with_timing(Timing::both(18, 40)),
        // Induced variant: the crash interleaves with instance replies.
        EnumConfig::new(3, 3).with_timing(Timing::only_w(35)).with_static_induced(true),
    ] {
        tnm_obs::global().reset();
        let reference = WindowedEngine.count(&g, &cfg);
        let engine = ShardedEngine::new(12).with_workers(2).with_fault_after(0, 1);
        let (counts, stats) = engine.count_with_stats(&g, &cfg);
        let snap = tnm_obs::global().snapshot();
        assert_eq!(counts, reference, "counts must survive the crash bit-identically");
        assert!(stats.shards >= 4, "need enough shards for a mid-run crash");
        assert_eq!(stats.workers_spawned, 2);
        // Loss and reschedule are read from the obs registry.
        assert_eq!(
            snap.counters.get("distributed.workers_lost"),
            Some(&1),
            "the faulted worker must be detected as dead"
        );
        assert!(
            snap.counters.get("distributed.jobs_rescheduled").copied().unwrap_or(0) >= 1,
            "its in-flight shard must be requeued"
        );
    }
    tnm_obs::set_enabled(false);
}

/// The crash path is not a lucky accident: repeated faulted runs all
/// detect the loss and all produce the same exact counts (merging is
/// commutative, so rescheduling order can never leak into totals).
#[test]
fn rescheduling_is_deterministic_across_runs() {
    let _obs = tnm_obs::test_guard();
    tnm_obs::set_enabled(true);
    let g = random_graph(504, 8, 180, 120);
    let cfg = EnumConfig::new(2, 3).with_timing(Timing::only_w(25));
    let reference = WindowedEngine.count(&g, &cfg);
    for run in 0..3 {
        tnm_obs::global().reset();
        let engine = ShardedEngine::new(10).with_workers(2).with_fault_after(0, 2);
        let (counts, _) = engine.count_with_stats(&g, &cfg);
        let snap = tnm_obs::global().snapshot();
        assert_eq!(counts, reference, "run {run}");
        assert_eq!(snap.counters.get("distributed.workers_lost"), Some(&1), "run {run}");
    }
    tnm_obs::set_enabled(false);
}

/// A generator corpus run: realistic burstiness, 2 workers, tiny
/// shards — the same shape as the CI smoke step, pinned here so it
/// also runs offline in the test suite.
#[test]
fn college_msg_corpus_is_bit_identical() {
    let mut spec = DatasetSpec::by_name("CollegeMsg").expect("known dataset");
    spec.num_events = 1_200;
    let g = generate(&spec, 13);
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(3_000));
    let reference = WindowedEngine.count(&g, &cfg);
    let (counts, stats) = ShardedEngine::new(200).with_workers(2).count_with_stats(&g, &cfg);
    assert_eq!(counts, reference);
    assert!(stats.workers_spawned == 2 && stats.shards >= 4);
}

/// Wire-format corruption corpus over the public framing API: every
/// prefix truncation errors, and each targeted corruption maps to its
/// specific error.
#[test]
fn wire_corruption_corpus() {
    use tnm_graph::wire::{self, WireError};
    let mut stream = Vec::new();
    wire::write_frame(&mut stream, 7, b"distributed-shard-payload").unwrap();
    // Truncation at every prefix must error (clean EOF only at zero).
    for cut in 1..stream.len() {
        assert!(
            matches!(wire::read_frame(&stream[..cut], 1 << 20), Err(WireError::Truncated { .. })),
            "prefix {cut} did not error"
        );
    }
    assert!(wire::read_frame(&stream[..0], 1 << 20).unwrap().is_none(), "empty stream = clean EOF");
    // Bad version.
    let mut bad = stream.clone();
    bad[4..6].copy_from_slice(&42u16.to_le_bytes());
    assert!(matches!(
        wire::read_frame(bad.as_slice(), 1 << 20),
        Err(WireError::BadVersion { got: 42 })
    ));
    // Bad magic.
    let mut bad = stream.clone();
    bad[..4].copy_from_slice(b"EVIL");
    assert!(matches!(wire::read_frame(bad.as_slice(), 1 << 20), Err(WireError::BadMagic { .. })));
    // Oversized payload claim: rejected before allocation.
    let mut bad = stream.clone();
    bad[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(wire::read_frame(bad.as_slice(), 1 << 20), Err(WireError::Oversized { .. })));
    // Trailing garbage after a well-formed frame surfaces on the next
    // read as a framing error, not as silent acceptance.
    let mut padded = stream.clone();
    padded.extend_from_slice(b"junk-after-frame");
    let mut cursor = padded.as_slice();
    assert!(wire::read_frame(&mut cursor, 1 << 20).unwrap().is_some());
    assert!(wire::read_frame(&mut cursor, 1 << 20).is_err());
}

/// Spilled shard files cross process boundaries: the event-block
/// decoder must reject truncation and padding rather than feeding a
/// worker short data.
#[test]
fn shard_file_corruption_is_detected() {
    use tnm_graph::io::{read_events_raw, write_events_raw};
    let g = random_graph(505, 6, 64, 50);
    let mut block = Vec::new();
    write_events_raw(g.events(), &mut block).unwrap();
    assert_eq!(read_events_raw(block.as_slice()).unwrap(), g.events());
    for cut in [3usize, 13, 14, 33] {
        assert!(
            read_events_raw(&block[..block.len().saturating_sub(cut)]).is_err(),
            "cut {cut} accepted"
        );
    }
    let mut padded = block.clone();
    padded.extend_from_slice(&[1, 2, 3]);
    assert!(read_events_raw(padded.as_slice()).is_err());
}

/// Trace propagation across the process boundary, under fault
/// injection: with a request trace active, kill worker 0 after one job
/// and the coordinator must still hand back one *well-formed* stitched
/// span tree — a single trace id, unique span ids (worker ids are
/// re-minted on injection), every coordinator phase present, shipped
/// `walk.shard` spans from the survivor stitched in, and every parent
/// edge resolving inside the tree. The crashed worker's unsent spans
/// are allowed to be lost; a dangling parent is not.
///
/// The trace is collected with metrics off. The guard is for the crash:
/// with metrics on, it would bump the global `distributed.workers_lost`
/// counter that the crash tests above read.
#[test]
fn traces_stitch_into_one_well_formed_tree_even_under_worker_crashes() {
    let _obs = tnm_obs::test_guard();
    tnm_obs::set_enabled(false);
    let g = random_graph(507, 11, 300, 260);
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::both(18, 40));
    let reference = WindowedEngine.count(&g, &cfg);

    // Open a request-scoped trace the way `tnm serve` does: mint a
    // context, install it, start the root span.
    let ctx = tnm_obs::TraceCtx::new();
    tnm_obs::set_trace(Some(ctx));
    let root = tnm_obs::Span::start("test.distributed");
    let engine = ShardedEngine::new(12).with_workers(2).with_fault_after(0, 1);
    let counts = engine.count(&g, &cfg);
    drop(root);
    tnm_obs::set_trace(None);
    let spans = tnm_obs::take_trace_spans(ctx.trace_id);

    assert_eq!(counts, reference, "counts must survive the crash bit-identically");
    assert!(spans.iter().all(|s| s.trace_id == ctx.trace_id), "one trace id across the tree");
    for phase in [
        "distributed.plan",
        "distributed.spill",
        "distributed.spawn",
        "distributed.walk",
        "distributed.merge",
    ] {
        assert!(spans.iter().any(|s| s.name == phase), "coordinator phase `{phase}` missing");
    }
    assert!(
        spans.iter().any(|s| s.name == "walk.shard"),
        "surviving worker's shipped spans must stitch into the coordinator trace"
    );
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
    assert_eq!(ids.len(), spans.len(), "span ids must stay unique after re-minting");
    assert_eq!(
        spans.iter().filter(|s| s.parent_id == 0).count(),
        1,
        "exactly one root span in the stitched tree"
    );
    for s in &spans {
        assert!(
            s.parent_id == 0 || ids.contains(&s.parent_id),
            "span `{}` has a dangling parent id",
            s.name
        );
    }
    // The stitched tree exports as one Chrome-trace JSON document.
    let json = tnm_obs::chrome_trace(&spans);
    assert!(json.starts_with("{\"traceEvents\":[") && json.ends_with("]}"));
}

/// Each worker run writes its shard files into one temporary directory,
/// named by the `distributed.spill` span. The directory is gone once the
/// run returns — after a healthy run, and after a worker crash forced a
/// requeue. The trace is collected with metrics off, under the guard, so
/// the crash stays out of the crash tests' global
/// `distributed.workers_lost` counter.
#[test]
fn shard_file_dir_is_cleaned_up() {
    let _obs = tnm_obs::test_guard();
    tnm_obs::set_enabled(false);
    let g = random_graph(508, 11, 300, 260);
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::both(18, 40));
    let reference = WindowedEngine.count(&g, &cfg);
    for engine in [
        ShardedEngine::new(12).with_workers(2),
        ShardedEngine::new(12).with_workers(2).with_fault_after(0, 1),
    ] {
        let ctx = tnm_obs::TraceCtx::new();
        tnm_obs::set_trace(Some(ctx));
        let (counts, stats) = engine.count_with_stats(&g, &cfg);
        tnm_obs::set_trace(None);
        let spans = tnm_obs::take_trace_spans(ctx.trace_id);
        assert_eq!(counts, reference);
        assert_eq!(stats.workers_spawned, 2, "the run must use the process transport");
        let spill = spans.iter().find(|s| s.name == "distributed.spill").expect("spill span");
        let (_, dir) =
            spill.args.iter().find(|(k, _)| k == "dir").expect("spill span names its dir");
        let dir = std::path::Path::new(dir);
        assert!(dir.starts_with(std::env::temp_dir()), "{}", dir.display());
        assert!(!dir.exists(), "shard-file dir {} must be removed", dir.display());
    }
}
