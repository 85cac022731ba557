//! [`SamplingEngine`] — interval-sampling approximate counting with
//! confidence intervals, in the spirit of Liu, Benson & Charikar,
//! "Sampling methods for counting temporal motifs" (WSDM 2019) — the
//! algorithmic-improvement line of work the paper's related-work section
//! surveys, and the scaling story Liu–Guarrasi–Sarıyüce point to for
//! exact-counting baselines at large ΔW.
//!
//! ## Estimator
//!
//! The engine draws `samples` random windows of length `L` from the
//! timeline and enumerates the motif instances wholly contained in each.
//! An instance with timespan `s < L` is contained by a window starting
//! in an interval of length `L − s`, out of `T + L` possible starts, so
//! every detected instance is importance-weighted by
//! `(T + L) / (L − s)`; averaging the per-window weighted sums over the
//! sample budget gives an unbiased estimate of the true count.
//! Instances with `s ≥ L` are never observed — the auto-selected window
//! (twice the maximum admissible timespan) eliminates that bias; an
//! explicit shorter window re-introduces it, documented on
//! [`SamplingEngine::with_window_len`].
//!
//! Unlike the pre-trait free function this module replaces, the sampler
//! never materialises a per-window subgraph: it walks the *full* graph
//! through the graph's [`WindowIndex`](tnm_graph::WindowIndex) (built
//! once per graph by
//! [`TemporalGraph::window_index`](tnm_graph::TemporalGraph::window_index)),
//! restricting start events to the window and discarding instances that
//! stick out past its end. Two consequences:
//!
//! * repeated window draws cost binary searches, not subgraph builds;
//! * graph-global restrictions (consecutive events, static inducedness,
//!   constrained dynamic graphlets) are evaluated against the full graph
//!   and are therefore **supported without bias** — the old free
//!   function had to reject them.
//!
//! ## Confidence intervals
//!
//! Each window's weighted sum is one i.i.d. draw of the estimator, so
//! the engine tracks per-signature first and second moments across
//! windows and reports `point ± Z_95 · SE` through
//! [`CountEngine::report`] (see [`Estimate`]). Exact engines inherit the
//! default `report`, which wraps their counts in zero-width intervals —
//! `tests/sampling_calibration.rs` checks the intervals are calibrated
//! against exact counts across models and seeds.
//!
//! ## Parallel draws
//!
//! Window draws are embarrassingly parallel — each is an independent
//! walk over its own event range — so with
//! [`SamplingEngine::with_threads`] the engine evaluates them on the
//! work-stealing executor shared with the windowed walk and the sharded
//! engine. Determinism is preserved exactly: all window offsets are
//! drawn up front from the seeded RNG (one stream, independent of the
//! thread count), each window's weighted sums are computed in isolation,
//! and the per-window results are folded into the moment accumulators
//! **in draw order** — the identical sequence of float additions the
//! serial sampler performs, so seeded estimates and confidence
//! intervals are bit-for-bit unchanged at any thread budget.

use crate::count::MotifCounts;
use crate::engine::config::{EnumConfig, MotifInstance};
use crate::engine::parallel::work_steal_map;
use crate::engine::report::{t_critical_95, EngineReport, Estimate};
use crate::engine::walker::{Walker, WindowedCandidates};
use crate::engine::{CountEngine, WindowedEngine};
use crate::notation::MotifSignature;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use tnm_graph::{TemporalGraph, Time};

/// Default sample budget when none is given (CLI `--engine sampling`
/// without `--samples`).
pub const DEFAULT_SAMPLING_BUDGET: usize = 256;

/// Default RNG seed for sampling runs.
pub const DEFAULT_SAMPLING_SEED: u64 = 42;

/// Interval-sampling approximate counting engine.
///
/// Construct with [`SamplingEngine::new`]; the window length defaults to
/// twice the maximum motif timespan the configuration admits, which
/// keeps the estimator unbiased. Runs are deterministic given the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingEngine {
    samples: usize,
    seed: u64,
    window_len: Option<Time>,
    threads: usize,
}

impl SamplingEngine {
    /// A sampler drawing `samples` windows with the given RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn new(samples: usize, seed: u64) -> Self {
        assert!(samples > 0, "sampling needs at least one window draw");
        SamplingEngine { samples, seed, window_len: None, threads: 1 }
    }

    /// Evaluates window draws on this many work-stealing worker threads
    /// (chainable). Estimates and confidence intervals are **bit-for-bit
    /// identical** at every thread budget — see the
    /// `engine::sampling` module docs on parallel draws.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the auto-selected window length (chainable).
    ///
    /// The estimator can only observe instances with timespan strictly
    /// below the window length: choosing `window_len` at or below the
    /// configuration's maximum admissible timespan biases totals low.
    /// The automatic choice (twice the maximum admissible timespan)
    /// avoids that; override only to trade bias for tighter windows.
    ///
    /// # Panics
    ///
    /// Panics if `window_len <= 0`.
    pub fn with_window_len(mut self, window_len: Time) -> Self {
        assert!(window_len > 0, "window length must be positive");
        self.window_len = Some(window_len);
        self
    }

    /// The sample budget.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The window length used for `cfg` on `graph`: the explicit
    /// override, or twice the maximum admissible motif timespan
    /// ([`EnumConfig::admissible_reach`] — for duration-aware ΔC the
    /// span bound is recovered from the graph's longest event duration,
    /// `(ΔC + max_duration)·(num_events−1)`).
    ///
    /// # Panics
    ///
    /// Panics when no window is set and nothing bounds the motif span —
    /// unbounded instances cannot be observed by any finite sampling
    /// window without bias.
    pub fn window_len_for(&self, graph: &TemporalGraph, cfg: &EnumConfig) -> Time {
        if let Some(l) = self.window_len {
            return l;
        }
        match cfg.admissible_reach(graph) {
            Some(span) => span.saturating_mul(2).max(1),
            None => panic!(
                "sampling requires bounded timing (ΔC and/or ΔW) or an explicit window length"
            ),
        }
    }
}

impl CountEngine for SamplingEngine {
    fn name(&self) -> &'static str {
        "sampling"
    }

    /// Rounded point estimates ([`EngineReport::counts`]). Call
    /// [`report`](CountEngine::report) to keep the intervals.
    fn count(&self, graph: &TemporalGraph, cfg: &EnumConfig) -> MotifCounts {
        self.report(graph, cfg).counts
    }

    /// Exact enumeration, delegated to
    /// [`WindowedEngine`](struct@WindowedEngine): handing a callback the
    /// same instance once per containing sample window would be useless
    /// to every existing consumer, so only *counting* is approximate on
    /// this engine.
    fn enumerate(
        &self,
        graph: &TemporalGraph,
        cfg: &EnumConfig,
        callback: &mut dyn FnMut(&MotifInstance<'_>),
    ) {
        WindowedEngine.enumerate(graph, cfg, callback);
    }

    fn report(&self, graph: &TemporalGraph, cfg: &EnumConfig) -> EngineReport {
        let window_len = self.window_len_for(graph, cfg);
        let t0 = graph.first_time().expect("graphs are non-empty by construction");
        let t1 = graph.last_time().expect("graphs are non-empty by construction");
        // A window can start anywhere that overlaps the timeline:
        // T + L possible starts, left-aligned at t0 - L + 1.
        let horizon = (t1 - t0) + window_len;
        let index = graph.window_index();
        // All offsets come off the seeded RNG up front, in one stream:
        // the draw sequence — and therefore every estimate — is
        // independent of the thread budget.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let windows: Vec<SampleWindow> = (0..self.samples)
            .map(|_| {
                let offset = rng.gen_range(0..horizon.max(1));
                let start = t0 - window_len + 1 + offset;
                let end = start + window_len; // exclusive
                SampleWindow {
                    end,
                    lo: graph.first_event_at_or_after(start) as usize,
                    hi: graph.first_event_at_or_after(end) as usize,
                }
            })
            .collect();
        // Per-signature running first and second moments of the
        // per-window weighted sums (windows where a signature is absent
        // contribute zero to both, so only observations need updates).
        let mut moments: HashMap<MotifSignature, (f64, f64)> = HashMap::new();
        let mut total_moments = (0.0f64, 0.0f64);
        if self.threads <= 1 {
            let mut walker = Walker::new(graph, cfg, WindowedCandidates::new(index));
            let mut acc: HashMap<MotifSignature, f64> = HashMap::new();
            for w in &windows {
                let total =
                    sample_window(graph, cfg, &mut walker, w, horizon, window_len, &mut acc);
                fold_window(&mut moments, &mut total_moments, &acc, total);
            }
        } else {
            // Parallel draws: each window is evaluated in isolation on
            // the shared work-stealing executor (chunk 1 — per-window
            // cost varies by orders of magnitude), then the per-window
            // results fold into the moments **in draw order**, the
            // identical float-addition sequence the serial loop above
            // performs.
            let per_worker = work_steal_map(
                windows.len(),
                self.threads,
                1,
                || (Walker::new(graph, cfg, WindowedCandidates::new(index)), Vec::new()),
                |state, claimed| {
                    let (walker, out) = state;
                    for i in claimed {
                        let mut acc = HashMap::new();
                        let total = sample_window(
                            graph,
                            cfg,
                            walker,
                            &windows[i],
                            horizon,
                            window_len,
                            &mut acc,
                        );
                        out.push((i, acc, total));
                    }
                },
            );
            let mut slots: Vec<Option<(HashMap<MotifSignature, f64>, f64)>> =
                (0..windows.len()).map(|_| None).collect();
            for (i, acc, total) in per_worker.into_iter().flat_map(|(_, results)| results) {
                debug_assert!(slots[i].is_none(), "draw {i} evaluated twice");
                slots[i] = Some((acc, total));
            }
            for slot in slots {
                let (acc, total) = slot.expect("every draw evaluated exactly once");
                fold_window(&mut moments, &mut total_moments, &acc, total);
            }
        }
        let n = self.samples as f64;
        // Student's t at small budgets, 1.96 from 30 windows up: the
        // per-window sums are i.i.d. but few, and the plain normal
        // interval under-covers there (`tests/sampling_calibration.rs`
        // pins the small-budget coverage).
        let crit = t_critical_95(self.samples);
        let interval = |(sum, sumsq): (f64, f64)| {
            let point = sum / n;
            let half_width = if self.samples > 1 {
                let variance = ((sumsq - sum * sum / n) / (n - 1.0)).max(0.0);
                crit * (variance / n).sqrt()
            } else {
                // One window gives no variance estimate; an infinite
                // interval is honest, a zero-width one would dress an
                // approximation up as certainty.
                f64::INFINITY
            };
            Estimate { point, half_width }
        };
        let estimates = moments.into_iter().map(|(s, m)| (s, interval(m))).collect();
        EngineReport::from_estimates(self.name(), self.samples, estimates, interval(total_moments))
    }
}

/// One drawn sample window: exclusive end time plus the start-event
/// index range it admits.
#[derive(Debug, Clone, Copy)]
struct SampleWindow {
    end: Time,
    lo: usize,
    hi: usize,
}

/// Evaluates one window draw: clears `acc`, walks the window's start
/// events, and fills `acc` with the per-signature weighted sums
/// (accumulated in deterministic enumeration order — the map's
/// iteration order never influences float sums). Returns the window's
/// weighted total.
fn sample_window(
    graph: &TemporalGraph,
    cfg: &EnumConfig,
    walker: &mut Walker<'_, WindowedCandidates<'_>>,
    window: &SampleWindow,
    horizon: Time,
    window_len: Time,
    acc: &mut HashMap<MotifSignature, f64>,
) -> f64 {
    acc.clear();
    let mut window_total = 0.0;
    if window.hi - window.lo >= cfg.num_events {
        let end = window.end;
        let total = &mut window_total;
        walker.run_range(window.lo..window.hi, |inst| {
            let last = graph.event(*inst.events.last().expect("non-empty motif")).time;
            if last >= end {
                return; // sticks out of this window: not contained
            }
            let span = inst.timespan(graph);
            // span <= L - 1 within a contained instance, so the
            // containment interval L - span is at least 1.
            let weight = horizon as f64 / (window_len - span) as f64;
            *acc.entry(inst.signature).or_insert(0.0) += weight;
            *total += weight;
        });
    }
    window_total
}

/// Folds one window's weighted sums into the running moments.
/// Per-signature sums see their own additions in window order
/// regardless of how the map iterates, so folding windows in draw order
/// reproduces the serial sampler's float arithmetic exactly.
fn fold_window(
    moments: &mut HashMap<MotifSignature, (f64, f64)>,
    total_moments: &mut (f64, f64),
    acc: &HashMap<MotifSignature, f64>,
    window_total: f64,
) {
    for (&sig, &x) in acc.iter() {
        let m = moments.entry(sig).or_insert((0.0, 0.0));
        m.0 += x;
        m.1 += x * x;
    }
    total_moments.0 += window_total;
    total_moments.1 += window_total * window_total;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Timing;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tnm_graph::TemporalGraphBuilder;

    /// Random-ish but deterministic graph with plenty of 2/3-event motifs.
    fn test_graph() -> TemporalGraph {
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = TemporalGraphBuilder::new();
        let mut t = 0i64;
        for _ in 0..4000 {
            t += rng.gen_range(1i64..6);
            let u: u32 = rng.gen_range(0..30);
            let mut v: u32 = rng.gen_range(0..30);
            if v == u {
                v = (v + 1) % 30;
            }
            b.push(tnm_graph::Event::new(u, v, t));
        }
        b.build().unwrap()
    }

    #[test]
    fn estimates_close_to_exact() {
        let g = test_graph();
        let cfg = EnumConfig::new(2, 3).with_timing(Timing::only_w(20));
        let exact = WindowedEngine.count(&g, &cfg);
        let report = SamplingEngine::new(400, 42).with_window_len(200).report(&g, &cfg);
        let exact_total = exact.total() as f64;
        let rel_err = (report.total.point - exact_total).abs() / exact_total;
        assert!(
            rel_err < 0.15,
            "estimate {} too far from exact {exact_total} (rel err {rel_err:.3})",
            report.total.point
        );
        assert!(report.total.half_width > 0.0, "sampled totals must carry an interval");
        assert!(!report.exact);
        assert_eq!(report.samples, Some(400));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = test_graph();
        let cfg = EnumConfig::new(2, 3).with_timing(Timing::only_w(20));
        let engine = SamplingEngine::new(50, 9).with_window_len(100);
        let a = engine.report(&g, &cfg);
        let b = engine.report(&g, &cfg);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.total, b.total);
        for (sig, e) in a.iter() {
            assert_eq!(b.estimate(sig), e);
        }
        let c = SamplingEngine::new(50, 10).with_window_len(100).report(&g, &cfg);
        assert_ne!(a.total, c.total, "different seeds should diverge");
    }

    #[test]
    fn parallel_draws_are_bit_identical_to_serial() {
        // The whole point of the ordered fold: the thread budget must
        // not perturb a single bit of a seeded estimate. Compare every
        // per-signature point and half-width with exact float equality.
        let g = test_graph();
        for cfg in [
            EnumConfig::new(2, 3).with_timing(Timing::only_w(20)),
            EnumConfig::new(3, 3).with_timing(Timing::only_w(40)).with_consecutive(true),
        ] {
            let serial = SamplingEngine::new(120, 9).report(&g, &cfg);
            for threads in [2usize, 4, 7] {
                let par = SamplingEngine::new(120, 9).with_threads(threads).report(&g, &cfg);
                assert_eq!(par.counts, serial.counts, "threads={threads}");
                assert_eq!(par.total.point, serial.total.point, "threads={threads}");
                assert_eq!(par.total.half_width, serial.total.half_width, "threads={threads}");
                for (sig, e) in serial.iter() {
                    assert_eq!(par.estimate(sig), e, "threads={threads}, sig {sig}");
                }
            }
        }
    }

    #[test]
    fn count_is_rounded_report() {
        let g = test_graph();
        let cfg = EnumConfig::new(2, 3).with_timing(Timing::only_w(10));
        let engine = SamplingEngine::new(50, 1).with_window_len(100);
        let counts = engine.count(&g, &cfg);
        let report = engine.report(&g, &cfg);
        assert_eq!(counts, report.counts);
        for (sig, e) in report.iter() {
            assert_eq!(counts.get(sig), e.point.round().max(0.0) as u64);
        }
    }

    #[test]
    fn auto_window_length_covers_admissible_spans() {
        let g = TemporalGraphBuilder::new().event(0, 1, 0).event(1, 2, 5).build().unwrap();
        let e = SamplingEngine::new(10, 1);
        assert_eq!(
            e.window_len_for(&g, &EnumConfig::new(3, 3).with_timing(Timing::only_w(50))),
            100
        );
        assert_eq!(
            e.window_len_for(&g, &EnumConfig::new(3, 3).with_timing(Timing::only_c(10))),
            40
        );
        assert_eq!(
            e.window_len_for(&g, &EnumConfig::new(4, 4).with_timing(Timing::both(10, 25))),
            50,
            "both bounds: min(ΔC·(k−1), ΔW) = min(30, 25)"
        );
        assert_eq!(e.window_len_for(&g, &EnumConfig::new(2, 2).with_timing(Timing::only_w(0))), 1);
        assert_eq!(
            SamplingEngine::new(10, 1)
                .with_window_len(7)
                .window_len_for(&g, &EnumConfig::new(2, 2)),
            7,
            "explicit window wins and permits unbounded timing"
        );
        // Duration-aware ΔC: the graph's longest duration widens each
        // admissible step, and the window must follow.
        let long = TemporalGraphBuilder::new()
            .event_with_duration(0, 1, 0, 30)
            .event(1, 2, 35)
            .build()
            .unwrap();
        let mut aware = EnumConfig::new(3, 3).with_timing(Timing::only_c(10));
        aware.duration_aware = true;
        assert_eq!(
            e.window_len_for(&long, &aware),
            160,
            "2 · (ΔC + max_duration) · (k−1) = 2 · 40 · 2"
        );
        assert_eq!(e.window_len_for(&g, &aware), 40, "zero durations degrade to plain ΔC");
    }

    #[test]
    fn duration_aware_sampling_is_calibrated() {
        // Durations push admissible spans past ΔC·(k−1); the auto window
        // must still observe those instances (estimates would otherwise
        // bias low with a confident-looking interval).
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = TemporalGraphBuilder::new();
        let mut t = 0i64;
        for _ in 0..1500 {
            t += rng.gen_range(1i64..5);
            let u: u32 = rng.gen_range(0..12);
            let v = (u + 1 + rng.gen_range(0..10u32)) % 12;
            b.push(tnm_graph::Event::with_duration(u, v, t, rng.gen_range(0u32..40)));
        }
        let g = b.build().unwrap();
        let mut cfg = EnumConfig::new(2, 3).with_timing(Timing::only_c(8));
        cfg.duration_aware = true;
        let exact = WindowedEngine.count(&g, &cfg).total() as f64;
        assert!(exact > 0.0, "test graph must admit duration-aware motifs");
        let report = SamplingEngine::new(600, 2).report(&g, &cfg);
        assert!(
            report.total.contains(exact),
            "estimate {} (±{:.1}) should cover exact {exact}",
            report.total.point,
            report.total.half_width
        );
    }

    #[test]
    #[should_panic(expected = "bounded timing")]
    fn unbounded_timing_needs_explicit_window() {
        let g = test_graph();
        SamplingEngine::new(10, 1).report(&g, &EnumConfig::new(2, 3));
    }

    #[test]
    #[should_panic(expected = "at least one window draw")]
    fn zero_samples_rejected() {
        SamplingEngine::new(0, 1);
    }

    #[test]
    fn single_window_interval_is_unbounded() {
        // One draw has no variance estimate: the interval must be
        // infinite, never a zero-width claim of certainty.
        let g = test_graph();
        let cfg = EnumConfig::new(2, 3).with_timing(Timing::only_w(20));
        let r = SamplingEngine::new(1, 3).report(&g, &cfg);
        assert!(r.total.half_width.is_infinite());
        assert!(r.total.contains(0.0) && r.total.contains(1e12));
        assert!(!r.total.is_exact());
    }

    #[test]
    fn global_restrictions_are_supported() {
        // The pre-trait sampler rejected graph-global restrictions; the
        // full-graph walk evaluates them exactly.
        let g = test_graph();
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(40)).with_consecutive(true);
        let exact = WindowedEngine.count(&g, &cfg).total() as f64;
        let report = SamplingEngine::new(1_000, 4).report(&g, &cfg);
        assert!(
            report.total.contains(exact),
            "restricted estimate {} (±{:.1}) should cover exact {exact}",
            report.total.point,
            report.total.half_width
        );
    }

    #[test]
    fn enumerate_is_exact() {
        let g = test_graph();
        let cfg = EnumConfig::new(2, 3).with_timing(Timing::only_w(10));
        let mut sampled = 0u64;
        SamplingEngine::new(5, 1).enumerate(&g, &cfg, &mut |_| sampled += 1);
        assert_eq!(sampled, WindowedEngine.count(&g, &cfg).total());
    }
}
