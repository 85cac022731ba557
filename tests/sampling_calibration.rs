//! Calibration suite for the sampling engine's confidence intervals.
//!
//! The engine subsystem's contract for approximate backends: the
//! reported ~95 % intervals must actually cover the exact counts. This
//! suite runs the sampler across all four paper models and a battery of
//! fixed seeds, compares each total estimate against the exact count
//! from the windowed engine, and requires at least 95 % of the trials to
//! land inside their own reported interval. Everything is deterministic
//! (fixed seeds, vendored RNG), so the suite pins behaviour rather than
//! gambling on it.

mod common;

use common::random_graph;
use temporal_motifs::prelude::*;

/// The headline acceptance check: across the four paper models and ten
/// seeds each, the exact total must fall within the sampler's reported
/// 95 % interval in at least 95 % of trials.
#[test]
fn intervals_cover_exact_counts_across_models() {
    let g = random_graph(1234, 25, 3_000, 6_000);
    let models = [
        MotifModel::kovanen(40),
        MotifModel::song(80),
        MotifModel::hulovatyy(40),
        MotifModel::paranjape(80),
    ];
    let mut trials = 0u32;
    let mut covered = 0u32;
    let mut reports = Vec::new();
    // Parallel draws are bit-identical to serial ones, so the thread
    // budget only shortens the run.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    for model in &models {
        let cfg = EnumConfig::for_model(model, 3, 3);
        let exact = WindowedEngine.count(&g, &cfg).total() as f64;
        for seed in 0..10u64 {
            let report = SamplingEngine::new(800, seed).with_threads(threads).report(&g, &cfg);
            trials += 1;
            if report.total.contains(exact) {
                covered += 1;
            } else {
                reports.push(format!(
                    "{}: seed {seed} interval [{:.0}, {:.0}] misses exact {exact:.0}",
                    model.name,
                    report.total.lo(),
                    report.total.hi()
                ));
            }
        }
    }
    let coverage = covered as f64 / trials as f64;
    assert!(
        coverage >= 0.95,
        "interval coverage {covered}/{trials} = {coverage:.2} below 0.95:\n{}",
        reports.join("\n")
    );
}

/// Per-signature intervals must be calibrated too, not just the total:
/// pooled across the frequent signatures (rare ones are legitimately
/// unobservable at small budgets), coverage must clear 90 %.
#[test]
fn per_signature_intervals_are_calibrated() {
    let g = random_graph(77, 20, 2_000, 4_000);
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(60));
    let exact = WindowedEngine.count(&g, &cfg);
    let frequent: Vec<_> =
        exact.iter().filter(|&(_, n)| n >= 50).map(|(s, n)| (s, n as f64)).collect();
    assert!(frequent.len() >= 5, "test graph too sparse: {} frequent motifs", frequent.len());
    let mut trials = 0u32;
    let mut covered = 0u32;
    for seed in 0..8u64 {
        let report = SamplingEngine::new(400, seed).report(&g, &cfg);
        for &(sig, n) in &frequent {
            trials += 1;
            if report.estimate(sig).contains(n) {
                covered += 1;
            }
        }
    }
    let coverage = covered as f64 / trials as f64;
    assert!(coverage >= 0.90, "per-signature coverage {covered}/{trials} = {coverage:.2}");
}

/// Small budgets (< 30 windows) use a Student's-t critical value
/// instead of the normal 1.96 (`t_critical_95`, whose table is pinned
/// by unit tests in `engine::report`), widening the intervals exactly
/// where the normal approximation under-covers. The behavioral check
/// here: at a budget of 12 windows the reported intervals must still be
/// honestly calibrated — across all four paper models and fifteen seeds
/// each, the exact total falls inside the reported interval in ≥ 90 %
/// of trials.
#[test]
fn small_budgets_use_t_intervals_and_stay_calibrated() {
    use tnm_motifs::engine::t_critical_95;
    let g = random_graph(1234, 25, 3_000, 6_000);
    let budget = 12usize;
    assert_eq!(t_critical_95(budget), 2.201, "n=12 ⇒ df=11");
    let models = [
        MotifModel::kovanen(40),
        MotifModel::song(80),
        MotifModel::hulovatyy(40),
        MotifModel::paranjape(80),
    ];
    let mut trials = 0u32;
    let mut covered = 0u32;
    for model in &models {
        let mcfg = EnumConfig::for_model(model, 3, 3);
        let exact = WindowedEngine.count(&g, &mcfg).total() as f64;
        for seed in 0..15u64 {
            let r = SamplingEngine::new(budget, seed).report(&g, &mcfg);
            trials += 1;
            if r.total.contains(exact) {
                covered += 1;
            }
        }
    }
    let coverage = covered as f64 / trials as f64;
    assert!(coverage >= 0.90, "small-budget coverage {covered}/{trials} = {coverage:.2}");
}

/// Intervals must shrink roughly as 1/sqrt(budget): quadrupling the
/// sample count should at least halve-ish the half-width.
#[test]
fn intervals_tighten_with_budget() {
    let g = random_graph(5, 20, 2_000, 4_000);
    let cfg = EnumConfig::new(2, 2).with_timing(Timing::only_w(50));
    let small = SamplingEngine::new(100, 3).report(&g, &cfg);
    let large = SamplingEngine::new(1_600, 3).report(&g, &cfg);
    assert!(small.total.half_width > 0.0);
    assert!(
        large.total.half_width < small.total.half_width * 0.6,
        "16× budget should tighten the interval well below 0.6× (got {} vs {})",
        large.total.half_width,
        small.total.half_width
    );
}

/// The sampler must be reachable through the `EngineKind` seam used by
/// the CLI and the experiment drivers, and behave identically to a
/// directly constructed engine.
#[test]
fn engine_kind_round_trip() {
    let g = random_graph(9, 15, 1_000, 2_000);
    let cfg = EnumConfig::new(2, 3).with_timing(Timing::only_w(40));
    let kind = EngineKind::sampling(200, 11);
    let via_kind = kind.report(&g, &cfg, 1);
    let direct = SamplingEngine::new(200, 11).report(&g, &cfg);
    assert_eq!(via_kind.counts, direct.counts);
    assert_eq!(via_kind.total, direct.total);
    assert_eq!(via_kind.engine, "sampling");
    assert_eq!(kind.count(&g, &cfg, 1), direct.counts);
}

/// Exact engines answer `report` with zero-width intervals that contain
/// exactly their own counts — the uniform-consumption contract.
#[test]
fn exact_reports_degenerate_to_counts() {
    let g = random_graph(21, 12, 400, 900);
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::both(20, 50));
    let reference = WindowedEngine.count(&g, &cfg);
    for kind in EngineKind::CONCRETE {
        let report = kind.report(&g, &cfg, 2);
        assert!(report.exact);
        assert_eq!(report.counts, reference);
        assert_eq!(report.total.point, reference.total() as f64);
        assert!(report.total.is_exact());
        for (sig, est) in report.iter() {
            assert!(est.is_exact());
            assert!(est.contains(reference.get(sig) as f64));
        }
    }
}
