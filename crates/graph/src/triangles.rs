//! The static triangles of a temporal network, listed once per graph.
//!
//! A 3-node, 3-event motif that touches all three undirected node pairs
//! of its node set sits on a *static triangle*: three node pairs that
//! each carry at least one event, in either direction. The streaming
//! engine's triad class runs one window DP per such triangle, over the
//! triangle's six directed edge-event lists. Which triangles exist, and
//! where their lists live, depends on the graph alone — not on ΔW — so
//! [`TemporalGraph::triangles`] lists them once and keeps the table for
//! the graph's lifetime, next to [`TemporalGraph::columns`].
//!
//! ## Layout
//!
//! The table is two flat arrays, both resolved against the graph's own
//! edge-event index:
//!
//! * a **pair table**: per undirected node pair `{lo, hi}` (`lo < hi`)
//!   that closes at least one triangle, the `(start, len)` spans of its
//!   `lo → hi` and `hi → lo` event lists — 16 B a pair;
//! * a **triangle table**: per triangle `{a, b, c}` with `a < b < c`,
//!   the pair ids of `{a,b}`, `{a,c}` and `{b,c}` in that order — 12 B a
//!   triangle, three consecutive `u32`s. Pair ids ascend with `(lo, hi)`,
//!   so sorting a triangle's three ids yields exactly this order.
//!
//! Triangles are sorted by **footprint** (their total event count), the
//! order the triad DP processes them in, so the DP reads the table front
//! to back and hashes nothing. The listing keeps each triangle as a
//! 16 B `[footprint, ids…]` row, sorts the rows, and then packs the ids
//! down inside the same buffer, so the sort rows and the table never
//! coexist (peak RSS).
//!
//! ## Listing
//!
//! Nodes are ranked by undirected static degree (ties by id) and each
//! pair is oriented from its lower- to its higher-ranked node. A node
//! marks its forward neighbours, and every forward neighbour's own
//! forward list is scanned against the marks: each triangle is found
//! exactly once, from its lowest-ranked node. No forward list is longer
//! than `O(√m)` for `m` node pairs, so listing costs `O(m^1.5)` (Chiba
//! and Nishizeki). The forward adjacency is a CSR array whose entries
//! carry pair ids, so a found triangle knows its three pair ids without
//! a lookup.

use crate::ids::{Edge, EventIdx, NodeId};
#[cfg(doc)]
use crate::TemporalGraph;

/// Marks a node with no forward edge from the current listing root.
const UNMARKED: u32 = u32::MAX;

/// The retained triangle table of one graph (see the
/// [module docs](self)); read it through [`Triangles`].
#[derive(Debug, Clone)]
pub(crate) struct TriangleTable {
    /// Per pair: `[lo→hi start, lo→hi len, hi→lo start, hi→lo len]`.
    pairs: Vec<[u32; 4]>,
    /// Per triangle, three entries: the pair ids of `{a,b}`, `{a,c}`,
    /// `{b,c}`.
    triangles: Vec<u32>,
}

impl TriangleTable {
    /// Lists the triangles of the static graph held in the graph's
    /// edge-index CSR: `edge_offsets` (`n + 1`) cuts the slots per
    /// source node, and slot `k` is the edge to `edge_dsts[k]` whose
    /// events are `edge_starts[k]..edge_starts[k + 1]` of the graph's
    /// edge-event index (see [`crate::graph`]).
    pub(crate) fn build(edge_offsets: &[u32], edge_dsts: &[NodeId], edge_starts: &[u32]) -> Self {
        let (pair_nodes, pairs) = undirected_pairs(edge_offsets, edge_dsts, edge_starts);
        let n = edge_offsets.len() - 1;
        let mut degree = vec![0u32; n];
        for &(lo, hi) in &pair_nodes {
            degree[lo as usize] += 1;
            degree[hi as usize] += 1;
        }
        let ranks_below = |u: u32, v: u32| (degree[u as usize], u) < (degree[v as usize], v);
        // Forward CSR: for each pair, an entry (higher-ranked node, pair
        // id) under its lower-ranked node.
        let mut offsets = vec![0u32; n + 1];
        for &(lo, hi) in &pair_nodes {
            let from = if ranks_below(lo, hi) { lo } else { hi };
            offsets[from as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut forward = vec![(0u32, 0u32); pair_nodes.len()];
        for (id, &(lo, hi)) in pair_nodes.iter().enumerate() {
            let (from, to) = if ranks_below(lo, hi) { (lo, hi) } else { (hi, lo) };
            forward[cursor[from as usize] as usize] = (to, id as u32);
            cursor[from as usize] += 1;
        }
        drop((cursor, pair_nodes));
        let out = |u: usize| &forward[offsets[u] as usize..offsets[u + 1] as usize];

        let total = |p: u32| pairs[p as usize][1] + pairs[p as usize][3];
        let mut mark = vec![UNMARKED; n];
        // Per triangle, `[footprint, ids…]`: rows sort by footprint, then
        // by ids.
        let mut found: Vec<[u32; 4]> = Vec::new();
        for u in 0..n {
            for &(w, p_uw) in out(u) {
                mark[w as usize] = p_uw;
            }
            for &(v, p_uv) in out(u) {
                for &(w, p_vw) in out(v as usize) {
                    let p_uw = mark[w as usize];
                    if p_uw != UNMARKED {
                        let mut ids = [p_uv, p_uw, p_vw];
                        ids.sort_unstable();
                        found.push([
                            total(ids[0]) + total(ids[1]) + total(ids[2]),
                            ids[0],
                            ids[1],
                            ids[2],
                        ]);
                    }
                }
            }
            for &(w, _) in out(u) {
                mark[w as usize] = UNMARKED;
            }
        }
        // Free the listing scratch before the sort and renumbering, so
        // it never coexists with the retained table (peak RSS).
        drop((mark, forward, offsets));
        found.sort_unstable();

        // Keep only the pairs some triangle uses, renumbered in
        // ascending order so each triangle's ids stay sorted.
        let mut remap = vec![UNMARKED; pairs.len()];
        for row in &found {
            for &p in &row[1..] {
                remap[p as usize] = 0;
            }
        }
        let mut kept = Vec::with_capacity(remap.iter().filter(|&&r| r == 0).count());
        for (p, r) in remap.iter_mut().enumerate() {
            if *r == 0 {
                *r = kept.len() as u32;
                kept.push(pairs[p]);
            }
        }
        // Pack row `t`'s ids into entries `3t..3t + 3` of the same
        // buffer: each write lands before the row it reads from.
        let len = found.len();
        let mut triangles = found.into_flattened();
        for t in 0..len {
            for j in 0..3 {
                triangles[3 * t + j] = remap[triangles[4 * t + 1 + j] as usize];
            }
        }
        triangles.truncate(3 * len);
        triangles.shrink_to_fit();
        TriangleTable { pairs: kept, triangles }
    }
}

/// The graph's undirected node pairs, sorted by `(lo, hi)`, each with
/// its two directed spans (`(0, 0)` for a direction with no events).
fn undirected_pairs(
    edge_offsets: &[u32],
    edge_dsts: &[NodeId],
    edge_starts: &[u32],
) -> (Vec<(u32, u32)>, Vec<[u32; 4]>) {
    let mut directed: Vec<(u32, u32, usize, (u32, u32))> = Vec::with_capacity(edge_dsts.len());
    for src in 0..edge_offsets.len() - 1 {
        for k in edge_offsets[src] as usize..edge_offsets[src + 1] as usize {
            let e = Edge { src: NodeId(src as u32), dst: edge_dsts[k] };
            let (lo, hi, dir) = if e.src < e.dst { (e.src, e.dst, 0) } else { (e.dst, e.src, 1) };
            let span = (edge_starts[k], edge_starts[k + 1] - edge_starts[k]);
            directed.push((lo.0, hi.0, dir, span));
        }
    }
    // Slots ascend with `(src, dst)`, so only the `hi → lo` entries are
    // out of `(lo, hi)` order.
    directed.sort_unstable();
    let mut nodes: Vec<(u32, u32)> = Vec::with_capacity(directed.len());
    let mut spans: Vec<[u32; 4]> = Vec::with_capacity(directed.len());
    for (lo, hi, dir, (start, len)) in directed {
        if nodes.last() != Some(&(lo, hi)) {
            nodes.push((lo, hi));
            spans.push([0; 4]);
        }
        let slot = spans.last_mut().expect("pushed above");
        slot[dir * 2] = start;
        slot[dir * 2 + 1] = len;
    }
    (nodes, spans)
}

/// A graph's static triangles, borrowed from the graph
/// ([`TemporalGraph::triangles`]). Triangle `t` is `0..len()`, in
/// ascending footprint order: the total length of its six
/// [`edge_lists`](Self::edge_lists).
#[derive(Debug, Clone, Copy)]
pub struct Triangles<'g> {
    table: &'g TriangleTable,
    /// The graph's concatenated per-edge event lists the spans index.
    edge_events: &'g [EventIdx],
}

impl<'g> Triangles<'g> {
    pub(crate) fn new(table: &'g TriangleTable, edge_events: &'g [EventIdx]) -> Self {
        Triangles { table, edge_events }
    }

    /// Number of static triangles.
    #[inline]
    pub fn len(&self) -> usize {
        self.table.triangles.len() / 3
    }

    /// True if the static graph has no triangle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.table.triangles.is_empty()
    }

    /// The six time-ordered directed edge-event lists of triangle `t`
    /// (nodes `a < b < c`), indexed `pair * 2 + dir`: pairs 0 = `{a,b}`,
    /// 1 = `{a,c}`, 2 = `{b,c}`; dir 0 = lower → higher id. Each list is
    /// the [`TemporalGraph::edge_events`] of that directed edge.
    #[inline]
    pub fn edge_lists(&self, t: usize) -> [&'g [EventIdx]; 6] {
        let ids = self.table.triangles.as_chunks::<3>().0[t];
        std::array::from_fn(|label| {
            let spans = &self.table.pairs[ids[label / 2] as usize];
            let (start, len) = (spans[label % 2 * 2] as usize, spans[label % 2 * 2 + 1] as usize);
            &self.edge_events[start..start + len]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::ids::NodeId;
    use crate::TemporalGraph;
    use crate::TemporalGraphBuilder;
    use std::collections::BTreeSet;

    /// Every undirected triangle by brute force over node triples.
    fn brute_force(g: &TemporalGraph) -> BTreeSet<[NodeId; 3]> {
        let n = g.num_nodes();
        let linked = |a: u32, b: u32| g.has_edge(Edge::new(a, b)) || g.has_edge(Edge::new(b, a));
        let mut out = BTreeSet::new();
        for a in 0..n {
            for b in a + 1..n {
                if !linked(a, b) {
                    continue;
                }
                for c in b + 1..n {
                    if linked(a, c) && linked(b, c) {
                        out.insert([NodeId(a), NodeId(b), NodeId(c)]);
                    }
                }
            }
        }
        out
    }

    /// Triangle `t`'s nodes `[a, b, c]`, read off its lists: an event of
    /// pair `{a,b}` names `a` and `b`, one of `{b,c}` names `c`.
    fn nodes(g: &TemporalGraph, t: usize) -> [NodeId; 3] {
        let lists = g.triangles().edge_lists(t);
        let ends = |pair: usize| {
            let idx =
                lists[pair * 2].first().or(lists[pair * 2 + 1].first()).expect("a pair event");
            let e = g.event(*idx);
            (e.src.min(e.dst), e.src.max(e.dst))
        };
        let ((a, b), (_, c)) = (ends(0), ends(2));
        [a, b, c]
    }

    fn footprint(tris: &Triangles<'_>, t: usize) -> usize {
        tris.edge_lists(t).iter().map(|l| l.len()).sum()
    }

    /// The table lists each brute-force triangle once, in footprint
    /// order, with the six lists the graph's edge index holds.
    fn check(g: &TemporalGraph) {
        let tris = g.triangles();
        let listed: Vec<[NodeId; 3]> = (0..tris.len()).map(|t| nodes(g, t)).collect();
        let set: BTreeSet<[NodeId; 3]> = listed.iter().copied().collect();
        assert_eq!(set.len(), listed.len(), "a triangle was listed twice");
        assert_eq!(set, brute_force(g));
        for (t, &[a, b, c]) in listed.iter().enumerate() {
            assert!(a < b && b < c);
            let lists = tris.edge_lists(t);
            for (pair, (lo, hi)) in [(a, b), (a, c), (b, c)].into_iter().enumerate() {
                assert_eq!(lists[pair * 2], g.edge_events(Edge { src: lo, dst: hi }));
                assert_eq!(lists[pair * 2 + 1], g.edge_events(Edge { src: hi, dst: lo }));
            }
            if t > 0 {
                assert!(footprint(&tris, t - 1) <= footprint(&tris, t), "not footprint-sorted");
            }
        }
    }

    fn lcg(x: &mut u64) -> u64 {
        *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *x >> 33
    }

    #[test]
    fn single_triangle_and_none() {
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 1)
            .event(2, 1, 2)
            .event(0, 2, 3)
            .build()
            .unwrap();
        assert_eq!(g.triangles().len(), 1);
        check(&g);
        let path = TemporalGraphBuilder::new().event(0, 1, 1).event(1, 2, 2).build().unwrap();
        assert!(path.triangles().is_empty());
    }

    /// Seeded random graphs with hubs (a few nodes take most events),
    /// reciprocal edges, repeated events, and isolated nodes.
    #[test]
    fn random_graphs_match_brute_force() {
        for seed in 0..40u64 {
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let nodes = 4 + lcg(&mut x) % 30;
            let hubs = 1 + lcg(&mut x) % 3;
            let events = 5 + lcg(&mut x) as usize % 300;
            let mut evs = Vec::with_capacity(events);
            for t in 0..events as i64 {
                let u = if lcg(&mut x).is_multiple_of(3) {
                    lcg(&mut x) % hubs
                } else {
                    lcg(&mut x) % nodes
                };
                let mut v = lcg(&mut x) % nodes;
                if v == u {
                    v = (v + 1) % nodes;
                }
                evs.push(Event::new(u as u32, v as u32, t / 2));
                if lcg(&mut x).is_multiple_of(4) {
                    evs.push(Event::new(v as u32, u as u32, t / 2 + 1));
                }
            }
            // Unused ids past the highest present node: isolated nodes.
            let spare = (lcg(&mut x) % 5) as u32;
            evs.sort();
            let g = TemporalGraph::from_sorted_events(evs.clone(), nodes as u32 + spare);
            check(&g);
            check(&TemporalGraph::from_events(evs).unwrap());
        }
    }

    #[test]
    fn sorted_loader_with_unused_high_ids() {
        let evs =
            vec![Event::new(5u32, 9u32, 1), Event::new(9u32, 7u32, 2), Event::new(7u32, 5u32, 3)];
        let g = TemporalGraph::from_sorted_events(evs, 1_000);
        assert_eq!(nodes(&g, 0), [NodeId(5), NodeId(7), NodeId(9)]);
        check(&g);
    }

    #[test]
    fn clones_carry_an_equal_table() {
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 1)
            .event(1, 2, 2)
            .event(2, 0, 3)
            .event(2, 3, 4)
            .event(3, 0, 5)
            .build()
            .unwrap();
        let fresh = g.clone();
        g.triangles();
        let warm = g.clone();
        for other in [&fresh, &warm] {
            assert_eq!(other.triangles().len(), g.triangles().len());
            for t in 0..g.triangles().len() {
                assert_eq!(nodes(other, t), nodes(&g, t));
            }
        }
    }
}
