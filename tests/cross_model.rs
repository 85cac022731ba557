//! Cross-crate consistency tests: relations between models, engines, and
//! the streaming matcher that must hold on any input.

use temporal_motifs::prelude::*;
use tnm_motifs::pattern::{matcher::StreamingMatcher, EventPattern};

/// Deterministic mid-size test graph with unique timestamps.
fn unique_time_graph(seed: u64, events: usize, nodes: u32) -> TemporalGraph {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = TemporalGraphBuilder::new();
    let mut t = 0i64;
    for _ in 0..events {
        t += rng.gen_range(1i64..8); // strictly increasing: no ties
        let u = rng.gen_range(0..nodes);
        let mut v = rng.gen_range(0..nodes);
        if v == u {
            v = (v + 1) % nodes;
        }
        builder.push(Event::new(u, v, t));
    }
    builder.build().unwrap()
}

#[test]
fn restrictions_only_remove_instances() {
    let g = unique_time_graph(1, 3000, 40);
    let base = EnumConfig::new(3, 3).with_timing(Timing::both(40, 80));
    let vanilla = count_motifs(&g, &base);
    for cfg in [
        base.clone().with_consecutive(true),
        base.clone().with_static_induced(true),
        base.clone().with_constrained(true),
    ] {
        let restricted = count_motifs(&g, &cfg);
        assert!(restricted.total() <= vanilla.total());
        for (sig, n) in restricted.iter() {
            assert!(n <= vanilla.get(sig), "restriction added instances of {sig}");
        }
    }
}

#[test]
fn ratio_sweep_is_nested() {
    // Paper Section 5.2: the motif set under a smaller ΔC/ΔW ratio is a
    // subset of a larger ratio's set (ΔW fixed).
    let g = unique_time_graph(2, 3000, 40);
    let ratios = [0.33, 0.5, 0.66, 1.0];
    let counts: Vec<MotifCounts> = ratios
        .iter()
        .map(|&r| count_motifs(&g, &EnumConfig::new(3, 3).with_timing(Timing::from_ratio(80, r))))
        .collect();
    for w in counts.windows(2) {
        for (sig, n) in w[0].iter() {
            assert!(n <= w[1].get(sig), "nesting violated for {sig}");
        }
    }
}

#[test]
fn streaming_matcher_agrees_with_engine_on_signatures() {
    let g = unique_time_graph(3, 800, 25);
    let delta_w = 60;
    for s in ["011202", "010102", "011221", "011220", "0112"] {
        let signature = sig(s);
        let cfg = EnumConfig::for_signature(signature).with_timing(Timing::only_w(delta_w));
        let exact = WindowedEngine.count(&g, &cfg).total();
        let pattern = EventPattern::from_signature(signature, delta_w);
        let matches = StreamingMatcher::match_graph(pattern, &g).len() as u64;
        assert_eq!(matches, exact, "matcher vs engine disagree on {s}");
    }
}

#[test]
fn signature_targeting_agrees_with_full_spectrum() {
    let g = unique_time_graph(4, 1500, 30);
    let timing = Timing::both(30, 60);
    let full = count_motifs(&g, &EnumConfig::new(3, 3).with_timing(timing));
    let mut targeted_total = 0u64;
    for m in tnm_motifs::catalog::all_3e() {
        let n = WindowedEngine.count(&g, &EnumConfig::for_signature(m).with_timing(timing)).total();
        assert_eq!(n, full.get(m), "targeted count mismatch for {m}");
        targeted_total += n;
    }
    assert_eq!(targeted_total, full.total());
}

#[test]
fn four_models_rank_sensibly_on_shared_data() {
    // With matched parameters, the non-induced ΔW model (Song) admits at
    // least as many instances as the induced one (Paranjape); Kovanen's
    // consecutive restriction admits no more than Hulovatyy without it.
    let g = unique_time_graph(5, 2000, 30);
    let count_for =
        |model: &MotifModel| count_motifs(&g, &EnumConfig::for_model(model, 3, 3)).total();
    let song = count_for(&MotifModel::song(60));
    let paranjape = count_for(&MotifModel::paranjape(60));
    assert!(paranjape <= song, "induced ({paranjape}) must not exceed non-induced ({song})");

    let kovanen = count_for(&MotifModel::kovanen(30));
    let hulovatyy_no_induced = count_for(&MotifModel {
        static_induced: false,
        duration_aware: false,
        ..MotifModel::hulovatyy(30)
    });
    assert!(kovanen <= hulovatyy_no_induced, "consecutive restriction must only remove instances");
}

#[test]
fn degrading_resolution_only_loses_motifs_via_ties() {
    // Degrading to coarse buckets introduces ties, which exclude events
    // from shared motifs; with a tie-free graph at bucket granularity the
    // counts are unchanged.
    let g = unique_time_graph(6, 1000, 25);
    let degraded = tnm_graph::transform::degrade_resolution(&g, 5);
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_c(50));
    let original = count_motifs(&g, &cfg).total();
    let coarse = count_motifs(&degraded, &cfg).total();
    // Not a strict inequality in general (buckets can also merge gaps
    // under the ΔC bound), but the tie-exclusion effect dominates at
    // coarse buckets:
    let very_coarse = tnm_graph::transform::degrade_resolution(&g, 2000);
    let very_coarse_count = count_motifs(&very_coarse, &cfg).total();
    assert!(very_coarse_count < original.max(1));
    assert!(coarse > 0 || original == 0);
}

#[test]
fn sampling_estimates_dataset_counts() {
    let spec = tnm_datasets::DatasetSpec::calls_copenhagen();
    let g = tnm_datasets::generate(&spec, 77);
    let cfg = EnumConfig::new(2, 3).with_timing(Timing::only_w(600));
    let exact = count_motifs(&g, &cfg).total() as f64;
    let report = SamplingEngine::new(600, 5).with_window_len(6_000).report(&g, &cfg);
    let est = report.total.point;
    let rel = (est - exact).abs() / exact.max(1.0);
    assert!(rel < 0.2, "sampling estimate {est:.0} vs exact {exact:.0} (rel {rel:.3})");
    assert!(report.total.half_width > 0.0, "sampled totals must carry an interval");
}

#[test]
fn edge_list_roundtrip_preserves_motif_counts() {
    let spec = tnm_datasets::DatasetSpec::sms_copenhagen();
    let mut spec = spec;
    spec.num_events = 2_000;
    let g = tnm_datasets::generate(&spec, 9);
    let mut buf = Vec::new();
    tnm_graph::io::write_edge_list(&g, &mut buf).unwrap();
    let g2 = tnm_graph::io::read_edge_list(buf.as_slice()).unwrap();
    assert_eq!(g.num_events(), g2.num_events());
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::both(1500, 3000));
    assert_eq!(count_motifs(&g, &cfg), count_motifs(&g2, &cfg));
}
