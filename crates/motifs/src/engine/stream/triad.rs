//! Triad counting: the 6-label δ-window merge DP per static triangle.
//!
//! A 3-node, 3-event motif that is neither a 2-node sequence nor a star
//! uses all three undirected node pairs of its node set — a temporal
//! triangle. Static triangles are listed once per graph
//! ([`TemporalGraph::triangles`]); each triangle's events (up to six
//! directed edges) merge into one time-ordered list where every event
//! carries a 6-valued label — (undirected pair, direction) — and the
//! generic Paranjape window DP counts every strictly-ordered label
//! triple within ΔW. Only triples whose three labels cover all three
//! pairs are folded into signatures; the rest belong to the pair/star
//! classes and are discarded for free (their accumulator slots simply
//! map to no signature).
//!
//! Cost per count: `O(Σ_triangles events-on-the-triangle · 6)` — the
//! six-way merge plus the DP over each triangle's footprint, the WSDM'17
//! triangle bound — with a 48-entry label-triple → signature table
//! computed once per count. Listing the triangles is the graph's
//! one-time `O(m^1.5)` cost, shared by every later count.
//!
//! Data layout (see [`super::arena`]): each triangle's merged list is
//! built by a six-way cursor merge over its directed edge-event index
//! lists (event indices are globally time-ordered, so no sort is
//! needed) straight into the arena's SoA scratch — dense `times` plus
//! the 6-valued label in `tags`. The graph keeps its triangles sorted
//! by footprint (merged-list length), so the scratch grows
//! monotonically: the bulk of small triangles stream through a
//! cache-resident arena, and the few giant lists come last instead of
//! evicting it mid-stream. Accumulation is commutative sums, so the
//! order cannot change any count.

// The DP tables are indexed by label/pair ids used across several
// tables per loop body; iterator forms would obscure the recurrences.
#![allow(clippy::needless_range_loop)]

use super::arena::{expiry_cut, DenseGroups, DpArena, GroupMap, SealedGroups};
use crate::count::MotifCounts;
use crate::notation::MotifSignature;
use tnm_graph::{Event, EventIdx, TemporalGraph, Time};

/// Labels: `pair * 2 + dir`, pairs 0 = {a,b}, 1 = {a,c}, 2 = {b,c} for
/// the triangle's sorted nodes `a < b < c`; dir 0 = lower → higher id.
const LABELS: usize = 6;

/// Counts every δ-window temporal triangle into `out`, over the graph's
/// footprint-sorted triangle table (listed on the graph's first triad
/// count and reused by every later one).
pub(crate) fn count_triads(
    graph: &TemporalGraph,
    delta: Time,
    out: &mut MotifCounts,
    arena: &mut DpArena,
) {
    let triangles = graph.triangles();
    let events = graph.events();
    let sig_table = label_triple_signatures();
    let combos = closing_combos();
    // One flat accumulator over label triples, shared by all triangles:
    // the signature of a label triple is triangle-independent.
    let mut acc = [0u64; LABELS * LABELS * LABELS];
    let obs = tnm_obs::enabled();
    let (mut triangles_swept, mut groups_advanced, mut peak_window) = (0u64, 0u64, 0u64);
    let tie_free = !graph.has_time_ties();
    for t in 0..triangles.len() {
        merge_triangle_events(&triangles.edge_lists(t), events, arena);
        if tie_free {
            let groups = DenseGroups(arena.times.len());
            if obs {
                triangles_swept += 1;
                groups_advanced += groups.num_groups() as u64;
                peak_window = peak_window.max(arena.times.len() as u64);
            }
            triangle_window_dp(&arena.times, &arena.tags, &groups, delta, &combos, &mut acc);
        } else {
            arena.seal_groups();
            if obs {
                triangles_swept += 1;
                groups_advanced += arena.num_groups() as u64;
                peak_window = peak_window.max(arena.times.len() as u64);
            }
            let groups = SealedGroups(&arena.bounds);
            triangle_window_dp(&arena.times, &arena.tags, &groups, delta, &combos, &mut acc);
        }
    }
    if obs {
        let reg = tnm_obs::global();
        reg.counter("stream.triad.triangles_swept").add(triangles_swept);
        reg.counter("stream.triad.groups_advanced").add(groups_advanced);
        reg.gauge("stream.triad.window_events").set(peak_window);
    }
    for (slot, &n) in acc.iter().enumerate() {
        if n > 0 {
            let sig = sig_table[slot].expect("only all-three-pairs slots accumulate");
            out.add(sig, n);
        }
    }
}

/// Merges a triangle's six directed edge-event lists (labels 0..=5 in
/// the canonical (pair, dir) order) into the arena as a time-ordered
/// labeled list. Event indices are assigned in global time order, so a
/// six-cursor min-merge on the indices needs no sort;
/// the DP only needs timestamp *groups* (within-group order is
/// immaterial under the ties-never-co-occur rule), and timestamps come
/// from the event log. Callers seal the group boundaries only when the
/// log has timestamp ties.
fn merge_triangle_events(lists: &[&[EventIdx]; LABELS], events: &[Event], arena: &mut DpArena) {
    arena.clear();
    let mut cursor = [0usize; LABELS];
    loop {
        let mut best: Option<(u32, usize)> = None;
        for l in 0..LABELS {
            if let Some(&idx) = lists[l].get(cursor[l]) {
                if best.is_none_or(|(min_idx, _)| idx < min_idx) {
                    best = Some((idx, l));
                }
            }
        }
        let Some((idx, l)) = best else { break };
        cursor[l] += 1;
        arena.times.push(events[idx as usize].time);
        arena.tags.push(l as u8);
    }
}

/// The label pairs `(l1, l2)` that close a triangle with a final event
/// on pair `p3`: both orders of the two other pairs, all four direction
/// combinations — eight per `p3`.
fn closing_combos() -> [[(usize, usize); 8]; 3] {
    let mut out = [[(0, 0); 8]; 3];
    for p3 in 0..3 {
        let [pa, pb]: [usize; 2] = match p3 {
            0 => [1, 2],
            1 => [0, 2],
            _ => [0, 1],
        };
        let mut slot = 0;
        for (x, y) in [(pa, pb), (pb, pa)] {
            for dx in 0..2 {
                for dy in 0..2 {
                    out[p3][slot] = (x * 2 + dx, y * 2 + dy);
                    slot += 1;
                }
            }
        }
    }
    out
}

/// The 6-label window DP: strictly-ordered in-window triples by label,
/// accumulated only into all-three-pairs slots. Runs over the arena's
/// SoA slices, advancing by whole timestamp groups through the group
/// map; `counts2` is a flat 36-slot table so every push, pop, and
/// close is an unconditional indexed add.
fn triangle_window_dp<B: GroupMap>(
    times: &[Time],
    labels: &[u8],
    groups: &B,
    delta: Time,
    combos: &[[(usize, usize); 8]; 3],
    acc: &mut [u64; LABELS * LABELS * LABELS],
) {
    let mut counts1 = [0u64; LABELS];
    let mut counts2 = [0u64; LABELS * LABELS]; // [l1 * LABELS + l2]
    let mut front = 0usize;
    for g in 0..groups.num_groups() {
        let (start, end) = (groups.start(g), groups.start(g + 1));
        let t = times[start];
        let cut = expiry_cut(times, groups, front, g, t - delta);
        while front < cut {
            let (gs, ge) = (groups.start(front), groups.start(front + 1));
            for &l in &labels[gs..ge] {
                counts1[l as usize] -= 1;
            }
            for &l in &labels[gs..ge] {
                let base = l as usize * LABELS;
                for l2 in 0..LABELS {
                    counts2[base + l2] -= counts1[l2];
                }
            }
            front += 1;
        }
        // Close: only pair-disjoint (l1, l2) prefixes can complete a
        // triangle with this event's pair — the eight precomputed combos;
        // the other prefixes stay pure DP state.
        for &l3 in &labels[start..end] {
            for &(l1, l2) in &combos[(l3 / 2) as usize] {
                acc[(l1 * LABELS + l2) * LABELS + l3 as usize] += counts2[l1 * LABELS + l2];
            }
        }
        // Push against the pre-group snapshot, then admit the group.
        for &l in &labels[start..end] {
            for l1 in 0..LABELS {
                counts2[l1 * LABELS + l as usize] += counts1[l1];
            }
        }
        for &l in &labels[start..end] {
            counts1[l as usize] += 1;
        }
    }
}

/// Signature per label triple; `None` unless the three labels cover all
/// three undirected pairs (those triples are stars or 2-node sequences,
/// counted by their own classes).
fn label_triple_signatures() -> Vec<Option<MotifSignature>> {
    // Symbolic endpoints per label: pair {a,b} → (0,1), {a,c} → (0,2),
    // {b,c} → (1,2); odd labels reverse.
    const ENDPOINTS: [(u8, u8); LABELS] = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)];
    let mut table = vec![None; LABELS * LABELS * LABELS];
    for l1 in 0..LABELS {
        for l2 in 0..LABELS {
            for l3 in 0..LABELS {
                let pairs = [l1 / 2, l2 / 2, l3 / 2];
                let covers_all = pairs.contains(&0) && pairs.contains(&1) && pairs.contains(&2);
                if covers_all {
                    let seq = [ENDPOINTS[l1], ENDPOINTS[l2], ENDPOINTS[l3]];
                    table[(l1 * LABELS + l2) * LABELS + l3] =
                        Some(MotifSignature::canonicalize(&seq));
                }
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notation::sig;
    use tnm_graph::{Event, TemporalGraphBuilder};

    fn graph(events: &[(u32, u32, i64)]) -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        for &(u, v, t) in events {
            b.push(Event::new(u, v, t));
        }
        b.build().unwrap()
    }

    fn triads(g: &TemporalGraph, delta: Time) -> MotifCounts {
        let mut c = MotifCounts::new();
        count_triads(g, delta, &mut c, &mut DpArena::default());
        c
    }

    #[test]
    fn single_triangle() {
        let g = graph(&[(0, 1, 1), (1, 2, 2), (0, 2, 3)]);
        let c = triads(&g, 10);
        assert_eq!(c.get(sig("011202")), 1);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn star_and_pair_prefixes_do_not_leak() {
        // Extra events on one pair create star/2-node triples that must
        // not surface as triangles.
        let g = graph(&[(0, 1, 1), (0, 1, 2), (1, 2, 3), (0, 2, 4)]);
        let c = triads(&g, 10);
        // Triangles: {e at 1 or 2} × (1→2) × (0→2) = 2 instances of 011202.
        assert_eq!(c.get(sig("011202")), 2);
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn window_and_ties_respected() {
        let g = graph(&[(0, 1, 0), (1, 2, 0), (0, 2, 5)]);
        let c = triads(&g, 10);
        assert!(c.is_empty(), "tied first two events cannot chain: {c:?}");
        let g = graph(&[(0, 1, 0), (1, 2, 4), (0, 2, 9)]);
        for (delta, expect) in [(9i64, 1u64), (8, 0)] {
            let c = triads(&g, delta);
            assert_eq!(c.total(), expect, "ΔW={delta}");
        }
    }

    #[test]
    fn merge_matches_sort_order() {
        // Interleaved events across all six directed edges: the cursor
        // merge must produce the same time order a sort would.
        let g = graph(&[
            (0, 1, 1),
            (1, 0, 2),
            (0, 2, 3),
            (2, 0, 4),
            (1, 2, 5),
            (2, 1, 6),
            (0, 1, 7),
            (2, 1, 7),
        ]);
        let triangles = g.triangles();
        assert_eq!(triangles.len(), 1);
        let mut arena = DpArena::default();
        merge_triangle_events(&triangles.edge_lists(0), g.events(), &mut arena);
        assert_eq!(arena.times, vec![1, 2, 3, 4, 5, 6, 7, 7]);
        let mut sorted = arena.times.clone();
        sorted.sort_unstable();
        assert_eq!(arena.times, sorted);
        arena.seal_groups();
        assert_eq!(arena.num_groups(), 7);
    }

    #[test]
    fn clone_counts_match_original() {
        // Clones taken before and after the triangle table is built
        // (the second carries the table along) count identically.
        let g = graph(&[
            (0, 1, 1),
            (1, 2, 2),
            (2, 0, 3),
            (2, 3, 4),
            (3, 0, 5),
            (1, 3, 6),
            (0, 2, 7),
            (3, 1, 8),
        ]);
        let cold = g.clone();
        let counts = triads(&g, 6);
        assert!(counts.total() > 0);
        let warm = g.clone();
        assert_eq!(triads(&cold, 6), counts);
        assert_eq!(triads(&warm, 6), counts);
    }

    #[test]
    fn signature_table_has_48_entries() {
        let table = label_triple_signatures();
        assert_eq!(table.iter().flatten().count(), 48);
        // Directions matter: a→b, b→c, a→c is the feed-forward triangle.
        let idx = |l1: usize, l2: usize, l3: usize| (l1 * LABELS + l2) * LABELS + l3;
        assert_eq!(table[idx(0, 4, 2)], Some(sig("011202")));
        // a→b, c→b, a→c: 01, 21, 02.
        assert_eq!(table[idx(0, 5, 2)], Some(sig("012102")));
        assert_eq!(table[idx(0, 1, 2)], None, "two labels on one pair");
    }
}
