//! [`StreamEngine`] — exact δ-window counting **without enumerating
//! instances** (Paranjape, Benson & Leskovec, WSDM 2017).
//!
//! Every walker engine pays cost proportional to the number of motif
//! *instances*: the depth-first walk visits each one. For the Paranjape
//! model — non-induced, single ΔW window, ≤ 3 events, ≤ 3 nodes — the
//! spectrum can instead be computed in time near-linear in the number of
//! *events*, by decomposing it into three exactly-once classes:
//!
//! 1. **2-node sequences**: every event runs between the same two nodes.
//! 2. **Stars and wedges**: every event touches one center node, and
//!    the events reach exactly two leaves.
//! 3. **Triads**: the events use all three node pairs of a node triple.
//!
//! Classes 1 and 2 come from one per-center pass ([`star`]): each
//! center's incident events stream through past/future windows that
//! maintain the *pre*, *post*, and *peri* count tables — same-leaf pair
//! counts before, after, and straddling each event — from which the 24
//! 2-leaf star signatures (and the 2-event wedges) follow by
//! inclusion–exclusion against the all-same-leaf counts. Those
//! all-same-leaf counts *are* the 2-node sequences: read from the leaves
//! whose id is above the center's, they count each sequence once, from
//! its lower-id endpoint. A 2-node-only job loads just those upper-half
//! events. Class 3 ([`triad`]) is a window-local closure pass: for each
//! first event `(a, b, t₁)` it merges `a`'s and `b`'s runs in
//! `(t₁, t₁ + ΔW]` from the window index
//! ([`TemporalGraph::window_index`]) and closes every `{a, w}` event
//! against the earlier `{b, w}` events and vice versa, so its cost
//! follows window occupancy, not the number of static triangles.
//!
//! No class ever materializes an instance, and the classes partition the
//! ≤ 3-node spectrum (a sequence touches 1, 2, or 3 undirected node
//! pairs respectively), so the totals are bit-identical to the walker
//! engines' — enforced by `tests/engine_equivalence.rs`.
//!
//! The per-center pass copies each center's events from the event log
//! through the node index into a reusable SoA arena scratch
//! (`arena::DpArena`); window expiry advances an amortized cursor over
//! precomputed timestamp-group boundaries, and the DP tables are flat
//! bit-indexed accumulators, so the inner loops are branchless indexed
//! adds. The triangle pass reads its runs in place from the window
//! index and keeps its counts in a node-indexed scratch wiped through
//! those runs. A spectrum runs at most two passes — the per-center
//! pass (trace span `stream.star`) and the triangle pass
//! (`stream.triad`).
//!
//! ## Eligibility and fallback
//!
//! [`StreamEngine::eligible`] accepts exactly the Paranjape-model shape:
//! ΔW set, no ΔC, no duration-awareness, no consecutive/constrained/
//! induced restrictions, ≤ 3 events, and a node budget the three classes
//! cover (≤ 3 nodes — automatic for ≤ 2-event motifs). Everything else
//! falls back to [`WindowedEngine`](struct@WindowedEngine) inside
//! `count`, so the engine is exact for *any* configuration and safe to
//! include in blanket sweeps; [`auto_select`](crate::engine::auto_select)
//! only routes eligible jobs here — and keeps triangle-bearing jobs on
//! the walk when the ΔW window is starved (see
//! [`STREAM_MIN_WINDOW_EVENTS`](crate::engine::STREAM_MIN_WINDOW_EVENTS)).
//! `enumerate` always delegates to the walker — there are no instances
//! to visit on the fast path.
//!
//! Equal timestamps follow the paper's total-ordering rule exactly as
//! the walker does: events with equal timestamps never co-occur in a
//! motif, which the DPs enforce by processing timestamp *groups* against
//! pre-group snapshots.

mod arena;
mod star;
mod triad;

use arena::DpArena;

use crate::count::MotifCounts;
use crate::engine::config::EnumConfig;
use crate::engine::windowed::WindowedEngine;
use crate::engine::CountEngine;
use crate::notation::MotifSignature;
use tnm_graph::TemporalGraph;

/// Exact count-without-enumerating engine for eligible Paranjape-model
/// configurations; transparent
/// [`WindowedEngine`](struct@WindowedEngine) fallback otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamEngine;

impl StreamEngine {
    /// True if `cfg` is in the shape the streaming decomposition covers:
    /// the Paranjape δ-window model (ΔW set, no ΔC, no
    /// duration-awareness, no consecutive/constrained/induced
    /// restriction, non-induced) with at most 3 events, on a node budget
    /// the 2-node/star/triad classes span (≤ 3 nodes; a ≤ 2-event motif
    /// cannot exceed 3 nodes, so any budget is fine there).
    pub fn eligible(cfg: &EnumConfig) -> bool {
        cfg.timing.delta_w.is_some()
            && cfg.timing.delta_c.is_none()
            && !cfg.consecutive_events
            && !cfg.static_induced
            && !cfg.constrained_dynamic
            && !cfg.duration_aware
            && (1..=3).contains(&cfg.num_events)
            && (cfg.num_events <= 2 || cfg.max_nodes <= 3)
    }

    /// True if the fast path would run its triangle class for `cfg`: a
    /// 3-event spectrum whose node budget admits 3-node motifs and whose
    /// signature target (if any) is a triangle. This is the one class
    /// whose per-count cost — per event, a merge of its two endpoints'
    /// ΔW runs — grows with window occupancy at the endpoints rather
    /// than with the event count alone, which is why
    /// [`auto_select`](crate::engine::auto_select) checks window
    /// occupancy before routing triad-bearing jobs here.
    pub fn needs_triads(cfg: &EnumConfig) -> bool {
        cfg.num_events == 3
            && cfg.max_nodes >= 3
            && cfg.min_nodes <= 3
            && cfg
                .signature_filter
                .as_ref()
                .is_none_or(|t| t.num_nodes() == 3 && undirected_pairs_of(t) == 3)
    }

    /// Which of the three classes an eligible `cfg` needs, as
    /// `(two_node, star, triad)` flags: every class produces signatures
    /// of one known node count (pairs: 2; wedges/stars/triads: 3), and a
    /// signature target pins the class further — a triangle target (3
    /// distinct undirected digit pairs) never needs the star sweeps and
    /// vice versa. A 2-node-only budget skips the triangle pass
    /// entirely. The batch executor ORs these flags across a group to
    /// run one shared [`StreamEngine::spectrum`] pass.
    pub(crate) fn class_wants(cfg: &EnumConfig) -> (bool, bool, bool) {
        let mut want_two = cfg.min_nodes <= 2 && cfg.max_nodes >= 2;
        let mut want_star = cfg.min_nodes <= 3 && cfg.max_nodes >= 3;
        let want_triad = Self::needs_triads(cfg);
        if let Some(target) = &cfg.signature_filter {
            want_two &= target.num_nodes() == 2;
            want_star &= target.num_nodes() == 3 && undirected_pairs_of(target) < 3;
        }
        (want_two, want_star, want_triad)
    }

    /// The stream passes over the graph at window `delta` — the
    /// per-center pass, then the triangle pass if triads are wanted —
    /// computing every signature the requested classes produce for
    /// `num_events` events. This is the expensive half of the fast path;
    /// the split into per-config results is a pure table projection
    /// ([`StreamEngine::project`]), which is what lets a batch of
    /// eligible configs share one spectrum.
    pub(crate) fn spectrum(
        graph: &TemporalGraph,
        delta: tnm_graph::Time,
        num_events: usize,
        (want_two, want_star, want_triad): (bool, bool, bool),
    ) -> MotifCounts {
        let mut spectrum = MotifCounts::new();
        // The per-center pass clears and refills one scratch for every
        // center, so it allocates O(1) times (see the [`arena`] module
        // docs for the layout contract).
        let mut arena = DpArena::default();
        let classes = (want_two, want_star);
        if num_events == 1 {
            if want_two {
                // Every single event is a 01 instance (span 0 ≤ ΔW).
                let sig = MotifSignature::from_pairs(&[(0, 1)]).expect("01 is canonical");
                spectrum.add(sig, graph.num_events() as u64);
            }
        } else if want_two || want_star {
            let _span = tnm_obs::span!("stream.star", two_node = want_two, star = want_star);
            match num_events {
                2 => star::count_pairs(graph, delta, classes, &mut spectrum, &mut arena),
                3 => star::count_triples(graph, delta, classes, &mut spectrum, &mut arena),
                _ => unreachable!("eligibility caps num_events at 3"),
            }
        }
        if want_triad && num_events == 3 {
            let _span = tnm_obs::span!("stream.triad");
            triad::count_triads(graph, delta, &mut spectrum);
        }
        spectrum
    }

    /// Projects one configuration's counts out of a computed spectrum:
    /// the classes overshoot both node bounds and signature targets (a
    /// star target computes all 24 star signatures), so the final split
    /// is this per-signature filter. Exact as long as `spectrum` was
    /// computed with at least [`StreamEngine::class_wants`]`(cfg)` —
    /// classes a config does not want only produce signatures this
    /// filter drops.
    pub(crate) fn project(spectrum: &MotifCounts, cfg: &EnumConfig) -> MotifCounts {
        spectrum
            .iter()
            .filter(|&(sig, n)| {
                n > 0
                    && sig.num_nodes() >= cfg.min_nodes
                    && sig.num_nodes() <= cfg.max_nodes
                    && cfg.signature_filter.is_none_or(|target| target == sig)
            })
            .collect()
    }

    /// The streaming fast path. Must only be called for eligible
    /// configurations.
    fn stream_count(graph: &TemporalGraph, cfg: &EnumConfig) -> MotifCounts {
        let delta = cfg.timing.delta_w.expect("eligible config has ΔW");
        let spectrum = Self::spectrum(graph, delta, cfg.num_events, Self::class_wants(cfg));
        Self::project(&spectrum, cfg)
    }
}

impl CountEngine for StreamEngine {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn count(&self, graph: &TemporalGraph, cfg: &EnumConfig) -> MotifCounts {
        if Self::eligible(cfg) {
            Self::stream_count(graph, cfg)
        } else {
            WindowedEngine.count(graph, cfg)
        }
    }
}

/// Number of distinct undirected digit pairs a signature touches (a
/// 3-node 3-event signature is a triangle iff this is 3, a star iff 2).
fn undirected_pairs_of(sig: &MotifSignature) -> usize {
    let mut seen: Vec<(u8, u8)> = Vec::with_capacity(sig.num_events());
    for &(a, b) in sig.pairs() {
        let key = (a.min(b), a.max(b));
        if !seen.contains(&key) {
            seen.push(key);
        }
    }
    seen.len()
}

/// Direct entry points into the stream passes for benchmarks: each runs
/// one class end-to-end (arena included) and returns its counts.
/// Not part of the public API — the supported surface is
/// [`StreamEngine`]; these exist so the `hotpath_*` bench groups can
/// time one class without the spectrum dispatch around it.
#[doc(hidden)]
pub mod hotpath {
    use super::*;

    /// 3-event 2-node sequences: the 2-node-only per-center pass, over
    /// each center's events with a higher-id leaf.
    pub fn pair_triples(graph: &TemporalGraph, delta: tnm_graph::Time) -> MotifCounts {
        let mut out = MotifCounts::new();
        star::count_triples(graph, delta, (true, false), &mut out, &mut DpArena::default());
        out
    }

    /// 3-event star sweeps over every center node.
    pub fn star_stars(graph: &TemporalGraph, delta: tnm_graph::Time) -> MotifCounts {
        let mut out = MotifCounts::new();
        star::count_triples(graph, delta, (false, true), &mut out, &mut DpArena::default());
        out
    }

    /// The triangle pass: window-local closure at every first event.
    pub fn triad_triads(graph: &TemporalGraph, delta: tnm_graph::Time) -> MotifCounts {
        let mut out = MotifCounts::new();
        triad::count_triads(graph, delta, &mut out);
        out
    }
}

/// Canonical signature of a direction sequence on one node pair: `dirs`
/// holds one bit per event (0 = same direction as a fixed pair
/// orientation, 1 = reversed). The canonical relabeling makes the result
/// orientation-independent.
fn two_node_signature(dirs: &[u8]) -> MotifSignature {
    let pairs: Vec<(u8, u8)> = dirs.iter().map(|&d| if d == 0 { (0, 1) } else { (1, 0) }).collect();
    MotifSignature::canonicalize(&pairs)
}

/// Canonical signature of a star/wedge event sequence at a center `C`
/// with leaves `A`/`B`: `legs[i]` names event `i`'s leaf and `dirs[i]`
/// its direction (0 = center → leaf).
fn star_signature(legs: &[u8], dirs: &[u8]) -> MotifSignature {
    const CENTER: u8 = 0;
    let pairs: Vec<(u8, u8)> = legs
        .iter()
        .zip(dirs)
        .map(|(&leaf, &d)| {
            let leaf = leaf + 1; // A = 1, B = 2; center is 0
            if d == 0 {
                (CENTER, leaf)
            } else {
                (leaf, CENTER)
            }
        })
        .collect();
    MotifSignature::canonicalize(&pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Timing;
    use crate::notation::sig;
    use tnm_graph::TemporalGraphBuilder;

    fn graph(events: &[(u32, u32, i64)]) -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        for &(u, v, t) in events {
            b.push(tnm_graph::Event::new(u, v, t));
        }
        b.build().unwrap()
    }

    fn w(delta: i64, k: usize, nodes: usize) -> EnumConfig {
        EnumConfig::new(k, nodes).with_timing(Timing::only_w(delta))
    }

    #[test]
    fn eligibility_predicate() {
        assert!(StreamEngine::eligible(&w(10, 3, 3)));
        assert!(StreamEngine::eligible(&w(10, 2, 4))); // 2e can't reach 4 nodes
        assert!(StreamEngine::eligible(&w(10, 1, 2)));
        assert!(!StreamEngine::eligible(&w(10, 3, 4))); // 4-node 3e exists
        assert!(!StreamEngine::eligible(&w(10, 4, 3))); // too many events
        assert!(!StreamEngine::eligible(&EnumConfig::new(3, 3))); // no ΔW
        assert!(!StreamEngine::eligible(
            &EnumConfig::new(3, 3).with_timing(Timing::both(5, 10)) // ΔC set
        ));
        assert!(!StreamEngine::eligible(&w(10, 3, 3).with_consecutive(true)));
        assert!(!StreamEngine::eligible(&w(10, 3, 3).with_static_induced(true)));
        assert!(!StreamEngine::eligible(&w(10, 3, 3).with_constrained(true)));
        let mut aware = w(10, 3, 3);
        aware.duration_aware = true;
        assert!(!StreamEngine::eligible(&aware));
    }

    #[test]
    fn triad_class_gating() {
        // Full 3-event spectrum on 3 nodes needs triangles...
        assert!(StreamEngine::needs_triads(&w(10, 3, 3)));
        // ...but a 2-node budget, a 2-event run, or an exact-2 slice
        // gates them off.
        assert!(!StreamEngine::needs_triads(&w(10, 3, 2)));
        assert!(!StreamEngine::needs_triads(&w(10, 2, 3)));
        assert!(!StreamEngine::needs_triads(&w(10, 3, 3).exact_nodes(2)));
        // Signature targets: triangles run only for triangle targets.
        let tri = EnumConfig::for_signature(sig("011202")).with_timing(Timing::only_w(10));
        let star = EnumConfig::for_signature(sig("010102")).with_timing(Timing::only_w(10));
        let two = EnumConfig::for_signature(sig("010101")).with_timing(Timing::only_w(10));
        assert!(StreamEngine::needs_triads(&tri));
        assert!(!StreamEngine::needs_triads(&star));
        assert!(!StreamEngine::needs_triads(&two));
    }

    #[test]
    fn figure1_network_matches_the_walk() {
        let g = graph(&[(0, 1, 3), (1, 2, 7), (1, 3, 8), (2, 0, 9), (0, 2, 11), (2, 3, 15)]);
        for k in [1usize, 2, 3] {
            for delta in [0i64, 2, 5, 8, 12, 100] {
                let cfg = w(delta, k, 3);
                assert!(StreamEngine::eligible(&cfg));
                assert_eq!(
                    StreamEngine.count(&g, &cfg),
                    WindowedEngine.count(&g, &cfg),
                    "k={k} ΔW={delta}"
                );
            }
        }
    }

    #[test]
    fn equal_timestamps_never_co_occur() {
        // All events share one timestamp: nothing but 1-event motifs.
        let g = graph(&[(0, 1, 5), (1, 0, 5), (1, 2, 5), (2, 0, 5)]);
        let cfg = w(1000, 3, 3);
        let counts = StreamEngine.count(&g, &cfg);
        assert!(counts.is_empty(), "ties must not chain: {counts:?}");
        assert_eq!(StreamEngine.count(&g, &w(1000, 1, 2)).total(), 4);
    }

    #[test]
    fn node_bounds_and_signature_filter() {
        let g = graph(&[(0, 1, 1), (1, 2, 2), (0, 2, 3), (1, 0, 4), (2, 1, 5)]);
        let reference = WindowedEngine.count(&g, &w(10, 3, 3));
        assert_eq!(StreamEngine.count(&g, &w(10, 3, 3)), reference);
        // Exact-3-node slice.
        let three = w(10, 3, 3).exact_nodes(3);
        assert_eq!(StreamEngine.count(&g, &three), WindowedEngine.count(&g, &three));
        // 2-node-only budget skips stars and triads entirely.
        let two = w(10, 3, 2);
        assert_eq!(StreamEngine.count(&g, &two), WindowedEngine.count(&g, &two));
        // Signature targeting is a post-filter on the fast path.
        let target = EnumConfig::for_signature(sig("011202")).with_timing(Timing::only_w(10));
        assert!(StreamEngine::eligible(&target));
        assert_eq!(StreamEngine.count(&g, &target), WindowedEngine.count(&g, &target));
    }

    #[test]
    fn ineligible_configs_fall_back_to_windowed() {
        let g = graph(&[(0, 1, 1), (1, 2, 3), (0, 2, 5), (2, 0, 6)]);
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::both(2, 5));
        assert!(!StreamEngine::eligible(&cfg));
        assert_eq!(StreamEngine.count(&g, &cfg), WindowedEngine.count(&g, &cfg));
    }

    #[test]
    fn signature_helpers_are_canonical() {
        assert_eq!(two_node_signature(&[0, 0, 0]), sig("010101"));
        assert_eq!(two_node_signature(&[1, 0]), sig("0110")); // orientation-free
        assert_eq!(star_signature(&[0, 0, 1], &[0, 0, 0]), sig("010102"));
        assert_eq!(star_signature(&[0, 1, 0], &[0, 0, 1]), sig("010210"));
        // First event leaf-to-center: the leaf takes digit 0.
        assert_eq!(star_signature(&[0, 1], &[1, 0]), sig("0112"));
    }
}
