//! Static inducedness (Sections 4.1, models of Hulovatyy and Paranjape).
//!
//! Both models require the motif to be induced *in the static projection*:
//! every directed edge of the graph whose endpoints both belong to the
//! motif's node set must be covered by (the static projection of) at least
//! one motif event. The classic example: a square motif `1→2→3→4→1` is
//! only induced if the graph has no diagonal `1→3`/`2→4` edges among those
//! four nodes.
//!
//! There is deliberately **no** temporal component here — the paper
//! stresses that \[13\] and \[14\] capture only static inducedness (e.g. the
//! triangle formed by events 1, 2, 4 of `(a,b,2),(b,c,4),(c,a,5),(c,a,6)`
//! is valid even though event 3 is skipped, because edge `c→a` is covered).

use crate::notation::MAX_EVENTS;
use tnm_graph::{Edge, EventIdx, NodeId, TemporalGraph};

/// Maximum node count the scratch buffers support: a single-component
/// motif of [`MAX_EVENTS`] events touches at most one node more.
const MAX_MOTIF_NODES: usize = MAX_EVENTS + 1;

/// Checks static inducedness of a motif instance: the static projections
/// of the motif events must cover every graph edge internal to the
/// motif's node set.
///
/// This is the definition. The walker applies it through a memo instead
/// (see `engine::walker`): each ordered digit pair's `has_edge` answer is
/// kept until a digit takes a new node, and an instance passes if no
/// pair outside its own pairs has an edge; motifs of more than eight
/// nodes call [`induced_cover_ok`] over their digits and pairs.
/// `validity` uses this function directly.
pub fn static_induced_ok(graph: &TemporalGraph, motif_events: &[EventIdx]) -> bool {
    let mut nodes: [NodeId; MAX_MOTIF_NODES] = [NodeId(0); MAX_MOTIF_NODES];
    let mut n = 0usize;
    let mut covered: [Edge; MAX_MOTIF_NODES * 2] = [Edge::new(0u32, 0u32); MAX_MOTIF_NODES * 2];
    let mut n_cov = 0usize;
    for &idx in motif_events {
        let e = graph.event(idx);
        for node in [e.src, e.dst] {
            if !nodes[..n].contains(&node) {
                assert!(n < MAX_MOTIF_NODES, "motif too large for inducedness check");
                nodes[n] = node;
                n += 1;
            }
        }
        let edge = e.edge();
        if !covered[..n_cov].contains(&edge) {
            covered[n_cov] = edge;
            n_cov += 1;
        }
    }
    induced_cover_ok(&nodes[..n], &covered[..n_cov], |edge| graph.has_edge(edge))
}

/// The inducedness predicate over an already-extracted **node set** and
/// **covered-edge set**: every graph edge internal to `nodes` must
/// appear in `covered`. This is the whole check — it never looks at the
/// instance's events or times — which is what lets the sharded engine's
/// workers ship induced instances as aggregated
/// `(signature, nodes, covered edges)` groups and the coordinator
/// recheck each *group* once against the parent graph, and the walker
/// decide motifs its memo does not cover from its digits and pairs.
pub fn induced_cover_ok(
    nodes: &[NodeId],
    covered: &[Edge],
    has_edge: impl Fn(Edge) -> bool,
) -> bool {
    for &a in nodes {
        for &b in nodes {
            if a == b {
                continue;
            }
            let edge = Edge { src: a, dst: b };
            if has_edge(edge) && !covered.contains(&edge) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnm_graph::TemporalGraphBuilder;

    #[test]
    fn covered_edges_pass() {
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 1)
            .event(1, 2, 2)
            .event(0, 2, 3)
            .build()
            .unwrap();
        assert!(static_induced_ok(&g, &[0, 1, 2]));
    }

    #[test]
    fn missing_diagonal_fails() {
        // Square 0->1->2->3->0 plus a diagonal 0->2 that the square motif
        // does not cover: not induced.
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 1)
            .event(1, 2, 2)
            .event(2, 3, 3)
            .event(3, 0, 4)
            .event(0, 2, 5)
            .build()
            .unwrap();
        let square = [0u32, 1, 2, 3];
        assert!(!static_induced_ok(&g, &square));
        // Including the diagonal event restores inducedness.
        assert!(static_induced_ok(&g, &[0, 1, 2, 3, 4]));
    }

    #[test]
    fn paper_triangle_with_skipped_repeat_is_induced() {
        // (a,b,2), (b,c,4), (c,a,5), (c,a,6): events 1, 2, 4 form a valid
        // induced triangle because edge c->a is covered (by the 4th event)
        // even though the 3rd event is skipped.
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 2)
            .event(1, 2, 4)
            .event(2, 0, 5)
            .event(2, 0, 6)
            .build()
            .unwrap();
        assert!(static_induced_ok(&g, &[0, 1, 3]));
    }

    #[test]
    fn direction_matters() {
        // Graph has both 0->1 and 1->0; a motif using only 0->1 twice
        // leaves 1->0 uncovered.
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 1)
            .event(1, 0, 2)
            .event(0, 1, 3)
            .build()
            .unwrap();
        assert!(!static_induced_ok(&g, &[0, 2]));
        assert!(static_induced_ok(&g, &[0, 1]));
    }

    #[test]
    fn edges_outside_node_set_ignored() {
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 1)
            .event(1, 0, 2)
            .event(5, 6, 3)
            .build()
            .unwrap();
        assert!(static_induced_ok(&g, &[0, 1]));
    }

    /// The longest motif, 8 events, can touch 9 nodes: a path 0→1→…→8
    /// is checked, not refused, and a chord among its nodes still fails.
    #[test]
    fn nine_node_motifs_are_checked() {
        let mut b = TemporalGraphBuilder::new();
        for i in 0..8u32 {
            b = b.event(i, i + 1, i as i64);
        }
        let path: Vec<EventIdx> = (0..8).collect();
        assert!(static_induced_ok(&b.clone().build().unwrap(), &path));
        assert!(!static_induced_ok(&b.event(8, 0, 20).build().unwrap(), &path));
    }
}
