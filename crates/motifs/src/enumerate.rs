//! The one-call counting entry point, [`count_motifs`].
//!
//! Counting runs behind the
//! [`CountEngine`](crate::engine::CountEngine) trait in
//! [`engine`](crate::engine), which picks an execution strategy through
//! [`EngineKind`]. [`count_motifs`] is the
//! shortcut for the common case: the auto-selected engine on one thread.
//! Enumeration has one implementation, the serial walk
//! [`WindowedEngine::enumerate`](crate::engine::WindowedEngine::enumerate),
//! which hands out instances in deterministic start-event order.

pub use crate::engine::{EnumConfig, MotifInstance};

use crate::count::MotifCounts;
use crate::engine::EngineKind;
use tnm_graph::TemporalGraph;

/// Counts instances per canonical signature with the auto-selected
/// engine on one thread.
pub fn count_motifs(graph: &TemporalGraph, cfg: &EnumConfig) -> MotifCounts {
    EngineKind::Auto.count(graph, cfg, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Timing;
    use crate::engine::{CountEngine, WindowedEngine};
    use crate::models::MotifModel;
    use crate::notation::sig;
    use tnm_graph::TemporalGraphBuilder;

    fn chain_graph() -> TemporalGraph {
        // 0->1 @10, 1->2 @20, 2->3 @30.
        TemporalGraphBuilder::new().event(0, 1, 10).event(1, 2, 20).event(2, 3, 30).build().unwrap()
    }

    #[test]
    fn counts_simple_chain() {
        let g = chain_graph();
        let counts = count_motifs(&g, &EnumConfig::new(2, 4));
        // Two 2-event motifs: (e1,e2) convey and (e2,e3) convey. (e1,e3)
        // is disconnected (no shared node) so never enumerated... except
        // e1=0->1 and e3=2->3 share nothing. Correct total: 2.
        assert_eq!(counts.total(), 2);
        assert_eq!(counts.get(sig("0112")), 2);
        let three = count_motifs(&g, &EnumConfig::new(3, 4));
        assert_eq!(three.total(), 1);
        assert_eq!(three.get(sig("011223")), 1);
    }

    #[test]
    fn timing_pruning_delta_c() {
        let g = chain_graph();
        // Gaps are 10 and 10. ΔC=10 admits everything; ΔC=9 admits nothing.
        let ok = count_motifs(&g, &EnumConfig::new(3, 4).with_timing(Timing::only_c(10)));
        assert_eq!(ok.total(), 1);
        let none = count_motifs(&g, &EnumConfig::new(3, 4).with_timing(Timing::only_c(9)));
        assert_eq!(none.total(), 0);
    }

    #[test]
    fn timing_pruning_delta_w() {
        let g = chain_graph();
        // Span is 20. ΔW=20 admits the 3-event chain; ΔW=19 does not.
        let ok = count_motifs(&g, &EnumConfig::new(3, 4).with_timing(Timing::only_w(20)));
        assert_eq!(ok.total(), 1);
        let none = count_motifs(&g, &EnumConfig::new(3, 4).with_timing(Timing::only_w(19)));
        assert_eq!(none.total(), 0);
    }

    #[test]
    fn section_4_5_example() {
        // Events at times 1, 9, 10 sharing nodes: valid under ΔW=10,
        // invalid under ΔC=5 (gap 8 > 5).
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 1)
            .event(1, 2, 9)
            .event(2, 0, 10)
            .build()
            .unwrap();
        let w = count_motifs(&g, &EnumConfig::new(3, 3).with_timing(Timing::only_w(10)));
        assert_eq!(w.total(), 1);
        let c = count_motifs(&g, &EnumConfig::new(3, 3).with_timing(Timing::only_c(5)));
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn equal_timestamps_never_share_a_motif() {
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 10)
            .event(1, 2, 10)
            .event(2, 0, 20)
            .build()
            .unwrap();
        let counts = count_motifs(&g, &EnumConfig::new(2, 3));
        // Valid 2-event motifs: (0,1,10)->(2,0,20), (1,2,10)->(2,0,20).
        assert_eq!(counts.total(), 2);
    }

    #[test]
    fn node_budget_respected() {
        let g = chain_graph();
        let counts = count_motifs(&g, &EnumConfig::new(3, 3));
        assert_eq!(counts.total(), 0, "chain needs 4 nodes");
        let exact = count_motifs(&g, &EnumConfig::new(2, 4).exact_nodes(3));
        assert_eq!(exact.total(), 2);
    }

    #[test]
    fn star_burst_counts() {
        // Out-burst star: 0->1, 0->2, 0->3 at 10, 20, 30.
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 10)
            .event(0, 2, 20)
            .event(0, 3, 30)
            .build()
            .unwrap();
        let counts = count_motifs(&g, &EnumConfig::new(3, 4));
        assert_eq!(counts.get(sig("010203")), 1);
        assert_eq!(counts.total(), 1);
        // With the consecutive events restriction the star still passes:
        // node 0 has no events outside the motif.
        let cons = count_motifs(&g, &EnumConfig::new(3, 4).with_consecutive(true));
        assert_eq!(cons.total(), 1);
    }

    #[test]
    fn consecutive_restriction_filters() {
        // Ask-reply 0->1, 1->2, 1->0 plus a distraction event touching
        // node 0 in the middle.
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 10)
            .event(3, 0, 15)
            .event(1, 2, 20)
            .event(1, 0, 30)
            .build()
            .unwrap();
        let free = count_motifs(
            &g,
            &EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::only_c(100)),
        );
        // 010 210 exists among {0,1,2}: events 0,2,3.
        assert!(free.get(sig("011210")) >= 1);
        let cons = count_motifs(
            &g,
            &EnumConfig::new(3, 3)
                .exact_nodes(3)
                .with_timing(Timing::only_c(100))
                .with_consecutive(true),
        );
        // Node 0 is engaged by (3,0,15) during [10,30]: filtered out.
        assert_eq!(cons.get(sig("011210")), 0);
    }

    #[test]
    fn signature_filter_matches_full_enumeration() {
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 1)
            .event(0, 1, 3)
            .event(0, 2, 5)
            .event(1, 0, 6)
            .event(0, 1, 8)
            .event(2, 0, 9)
            .build()
            .unwrap();
        let full = count_motifs(&g, &EnumConfig::new(3, 3).with_timing(Timing::only_w(10)));
        for (s, n) in full.iter() {
            let cfg = EnumConfig::for_signature(s).with_timing(Timing::only_w(10));
            let targeted = WindowedEngine.count(&g, &cfg).total();
            assert_eq!(targeted, n, "signature {s}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        // Deterministic medium-size graph.
        let mut b = TemporalGraphBuilder::new();
        let mut x = 12345u64;
        for t in 0..2000i64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (x >> 33) % 50;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let mut v = (x >> 33) % 50;
            if v == u {
                v = (v + 1) % 50;
            }
            b.push(tnm_graph::Event::new(u as u32, v as u32, t * 3));
        }
        let g = b.build().unwrap();
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::both(30, 60));
        let serial = count_motifs(&g, &cfg);
        let par = WindowedEngine::new(4).count(&g, &cfg);
        assert_eq!(serial, par);
    }

    #[test]
    fn explicit_parallelism_is_honored_on_small_graphs() {
        // The work-stealing executor must produce identical counts when
        // actually running multi-threaded on a tiny graph.
        let g = chain_graph();
        let cfg = EnumConfig::new(2, 4);
        let par = WindowedEngine::new(8).count(&g, &cfg);
        assert_eq!(par, count_motifs(&g, &cfg));
    }

    #[test]
    fn duration_aware_gap_measurement() {
        // Event 1 lasts 10s (ends at 20); event 2 at t=24.
        // Plain ΔC=5: gap 14 > 5 -> rejected.
        // Duration-aware ΔC=5: gap from end = 4 <= 5 -> accepted.
        let g = TemporalGraphBuilder::new()
            .event_with_duration(0, 1, 10, 10)
            .event(1, 2, 24)
            .build()
            .unwrap();
        let plain = count_motifs(&g, &EnumConfig::new(2, 3).with_timing(Timing::only_c(5)));
        assert_eq!(plain.total(), 0);
        let mut cfg = EnumConfig::new(2, 3).with_timing(Timing::only_c(5));
        cfg.duration_aware = true;
        let aware = count_motifs(&g, &cfg);
        assert_eq!(aware.total(), 1);
    }

    #[test]
    fn model_config_roundtrip() {
        let m = MotifModel::paranjape(3000);
        let cfg = EnumConfig::for_model(&m, 3, 3);
        assert!(cfg.static_induced);
        assert_eq!(cfg.timing, Timing::only_w(3000));
    }

    #[test]
    fn instance_times_and_timespan() {
        let g = chain_graph();
        let mut spans = Vec::new();
        WindowedEngine.enumerate(&g, &EnumConfig::new(3, 4), &mut |inst| {
            spans.push((inst.times(&g), inst.timespan(&g)));
        });
        assert_eq!(spans, vec![(vec![10, 20, 30], 20)]);
    }
}
