//! Kovanen et al.'s *consecutive events restriction* (Section 4.1).
//!
//! A node's adjacent events inside a motif must be consecutive among all
//! of that node's events in the whole graph: while a node is engaged in a
//! motif it may not participate in any outside event. The paper calls
//! this *node-based temporal inducedness*; Section 5.1.1 shows it removes
//! over 95 % of 3n3e motifs and amplifies ask-reply shapes.

use tnm_graph::{EventIdx, NodeId, TemporalGraph, Time};

/// Checks the consecutive events restriction for a time-ordered motif
/// instance given by event indices into `graph`.
///
/// For every node `x` touched by the motif, let `[first_x, last_x]` span
/// x's own motif events and `k_x` be how many motif events touch `x`; the
/// instance passes iff the graph contains exactly `k_x` events adjacent to
/// `x` in `[first_x, last_x]` — i.e. no extra engagement.
///
/// This is the definition; the walk does not call it. The walk enforces
/// the same rule while it gathers candidates (see `engine::walker`): a
/// node already in the motif may continue only with the next event of
/// its own list, and no motif event may share its timestamp with another
/// event of either endpoint. `validity` judges single instances with
/// this function, and the tests hold the walk to it.
pub fn consecutive_ok(graph: &TemporalGraph, motif_events: &[EventIdx]) -> bool {
    // (node, first, last, k) per motif node, in first-touch order.
    let mut nodes: Vec<(NodeId, Time, Time, usize)> = Vec::with_capacity(2 * motif_events.len());
    for &idx in motif_events {
        let e = graph.event(idx);
        for node in [e.src, e.dst] {
            match nodes.iter_mut().find(|(n, ..)| *n == node) {
                Some((_, _, last, k)) => {
                    // Motif events arrive in time order, so `last` only grows.
                    *last = e.time;
                    *k += 1;
                }
                None => nodes.push((node, e.time, e.time, 1)),
            }
        }
    }
    nodes
        .iter()
        .all(|&(node, first, last, k)| graph.count_node_events_between(node, first, last) == k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnm_graph::TemporalGraphBuilder;

    /// The paper's running example: motif events (u,v,5), (v,w,8), (u,v,12)
    /// with u=0, v=1, w=2. Any extra event touching u in [5,12] or v in
    /// [5,12] (v's motif span is [5,12] too) breaks the restriction.
    fn base() -> TemporalGraphBuilder {
        TemporalGraphBuilder::new().event(0, 1, 5).event(1, 2, 8).event(0, 1, 12)
    }

    #[test]
    fn clean_motif_passes() {
        let g = base().build().unwrap();
        assert!(consecutive_ok(&g, &[0, 1, 2]));
    }

    #[test]
    fn outside_event_on_u_fails() {
        // Extra event (0,3,9): node 0 engaged outside the motif during [5,12].
        let g = base().event(0, 3, 9).build().unwrap();
        // Motif = events at times 5, 8, 12 -> indices 0, 1, 3.
        assert!(!consecutive_ok(&g, &[0, 1, 3]));
    }

    #[test]
    fn outside_event_on_v_fails() {
        // Extra event (3,1,10): node 1 engaged during its span [5,12].
        let g = base().event(3, 1, 10).build().unwrap();
        assert!(!consecutive_ok(&g, &[0, 1, 3]));
    }

    #[test]
    fn outside_event_before_span_is_fine() {
        let g = base().event(0, 3, 1).build().unwrap();
        // Motif events are now indices 1, 2, 3.
        assert!(consecutive_ok(&g, &[1, 2, 3]));
    }

    #[test]
    fn outside_event_after_span_is_fine() {
        let g = base().event(0, 3, 20).build().unwrap();
        assert!(consecutive_ok(&g, &[0, 1, 2]));
    }

    #[test]
    fn w_span_is_only_its_own_events() {
        // Node 2 participates only in the event at t=8; an event touching
        // node 2 at t=10 is outside its (degenerate) span [8,8].
        let g = base().event(3, 2, 10).build().unwrap();
        assert!(consecutive_ok(&g, &[0, 1, 3]));
    }

    #[test]
    fn figure1_third_motif_violation() {
        // Figure 1, third motif: white node (1) interacts with a dashed
        // node at t=8 while engaged in the motif spanning [7, 11].
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 7) // motif event 1
            .event(1, 3, 8) // outside interaction of node 1
            .event(1, 2, 9) // motif event 2
            .event(0, 2, 11) // motif event 3
            .build()
            .unwrap();
        assert!(!consecutive_ok(&g, &[0, 2, 3]));
        // Without the dashed event it passes.
        let g2 = TemporalGraphBuilder::new()
            .event(0, 1, 7)
            .event(1, 2, 9)
            .event(0, 2, 11)
            .build()
            .unwrap();
        assert!(consecutive_ok(&g2, &[0, 1, 2]));
    }

    #[test]
    fn boundary_times_count_as_engagement() {
        // An outside event exactly at the span edge (t=12, touching node 1)
        // is within the inclusive interval and must fail.
        let g = base().event(1, 3, 12).build().unwrap();
        let motif: Vec<u32> = (0..g.num_events() as u32)
            .filter(|&i| {
                let e = g.event(i);
                !(e.src == NodeId(1) && e.dst == NodeId(3))
            })
            .collect();
        assert!(!consecutive_ok(&g, &motif));
    }
}
