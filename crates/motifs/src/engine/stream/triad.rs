//! Triad counting: temporal triangles by window-local closure.
//!
//! A 3-node, 3-event motif that is neither a 2-node sequence nor a star
//! uses all three undirected node pairs of its node set — a temporal
//! triangle. Its first event `(a, b, t₁)` is on one pair; the other two
//! run between a third node `w` and `a` and `b`, one each, in either
//! order, inside `(t₁, t₁ + ΔW]`. Equal timestamps never co-occur, so
//! every triangle has exactly one first event, and the pass counts each
//! triangle there.
//!
//! The pass walks first events in log order. For each, it reads `a`'s
//! and `b`'s runs in `(t₁, t₁ + ΔW]` from the window index
//! ([`TemporalGraph::window_index`]): the slot column gives where each
//! run starts, and the inline times where it ends. It merges the two
//! runs by timestamp group and skips their events on `{a, b}` (those
//! belong to the 2-node and star classes). Per third node `w`, a
//! node-indexed scratch keeps how many `{a, w}` and `{b, w}` events of
//! each direction came earlier. An event on `{b, w}` closes one
//! triangle with each earlier `{a, w}` event, and vice versa, into one
//! of 8 slots — which endpoint of the first event the second event
//! shares, and the directions of the second and third events. A
//! timestamp group closes against the counts before it and is admitted
//! after, so tied events never chain. The scratch is wiped through the
//! events it admitted, and the 8 slots map to the triangle signatures
//! once per pass.
//!
//! Cost per count: `O(m + Σ_events (|run_a| + |run_b|))` — the window
//! occupancy at each event's endpoints, not the number of static
//! triangles or the events on them — with `O(n)` scratch. Nothing is
//! listed or kept between counts beyond the graph's window index, which
//! the walkers read too.

use crate::count::MotifCounts;
use crate::notation::MotifSignature;
use std::ops::Range;
use tnm_graph::{Event, EventIdx, NodeId, TemporalGraph, Time, WindowIndex};

/// Per third node `w`, the in-window counts of `a → w`, `w → a`,
/// `b → w` and `w → b` events seen so far for the current first event
/// `(a, b)`.
type Sides = [u32; 4];

/// Closed triangles per slot `(shared << 2) | (d2 << 1) | d3`: `shared`
/// is 0 when the second event is on `{a, w}`, 1 when it is on `{b, w}`;
/// `d2` and `d3` are 0 when the event leaves the first event's node
/// for `w`, 1 when it arrives from `w`.
type Closures = [u64; 8];

/// Counts every δ-window temporal triangle into `out`.
pub(crate) fn count_triads(graph: &TemporalGraph, delta: Time, out: &mut MotifCounts) {
    let index = graph.window_index();
    let events = graph.events();
    let mut sides = vec![Sides::default(); graph.num_nodes() as usize];
    let mut seen = Vec::new();
    let mut acc = Closures::default();
    let obs = tnm_obs::enabled();
    let (mut triangles_swept, mut groups_advanced, mut peak_window) = (0u64, 0u64, 0u64);
    for (i, e) in events.iter().enumerate() {
        let [pa, pb] = index.slots(i as EventIdx);
        let horizon = e.time.saturating_add(delta);
        let (Some(run_a), Some(run_b)) = (
            window_run(&index, e.src, pa, e.time, horizon),
            window_run(&index, e.dst, pb, e.time, horizon),
        ) else {
            continue;
        };
        let groups = close(&index, events, e, (&run_a, &run_b), &mut sides, &mut seen, &mut acc);
        for &x in &seen {
            sides[(x >> 2) as usize] = Sides::default();
        }
        seen.clear();
        if obs {
            triangles_swept += 1;
            groups_advanced += groups;
            peak_window = peak_window.max((run_a.len() + run_b.len()) as u64);
        }
    }
    if obs {
        let reg = tnm_obs::global();
        reg.counter("stream.triad.triangles_swept").add(triangles_swept);
        reg.counter("stream.triad.groups_advanced").add(groups_advanced);
        reg.gauge("stream.triad.window_events").set(peak_window);
    }
    for (slot, sig) in closure_signatures().into_iter().enumerate() {
        if acc[slot] > 0 {
            out.add(sig, acc[slot]);
        }
    }
}

/// The positions in `node`'s span of its events in `(t, horizon]`, if
/// there are any: the scan starts at `slot + 1` — `slot` being where the
/// first event itself sits — and passes the events tied with it.
fn window_run(
    index: &WindowIndex<'_>,
    node: NodeId,
    slot: u32,
    t: Time,
    horizon: Time,
) -> Option<Range<usize>> {
    let times = index.times();
    let end = index.span(node).end;
    let mut start = slot as usize + 1;
    while start < end && times[start] == t {
        start += 1;
    }
    let mut stop = start;
    while stop < end && times[stop] <= horizon {
        stop += 1;
    }
    (stop > start).then_some(start..stop)
}

/// The node `x` reaches from `node`, and 0 when `x` leaves `node`, 1
/// when it arrives there.
#[inline]
fn far_end(x: &Event, node: u32) -> (u32, usize) {
    (x.src.0 ^ x.dst.0 ^ node, (x.src.0 != node) as usize)
}

/// Merges the first event `e`'s two runs by timestamp group, closing
/// each group against the counts before it and then admitting it. Each
/// admitted event is pushed onto `seen` as `w << 2 | column`, its
/// column in [`Sides`]. Returns the number of groups.
fn close(
    index: &WindowIndex<'_>,
    events: &[Event],
    e: &Event,
    (run_a, run_b): (&Range<usize>, &Range<usize>),
    sides: &mut [Sides],
    seen: &mut Vec<u64>,
    acc: &mut Closures,
) -> u64 {
    let (ids, times) = (index.event_ids(), index.times());
    let (a, b) = (e.src.0, e.dst.0);
    let at = |p: usize| &events[ids[p] as usize];
    let (mut i, mut j) = (run_a.start, run_b.start);
    let mut groups = 0;
    while i < run_a.end || j < run_b.end {
        let ta = if i < run_a.end { times[i] } else { Time::MAX };
        let tb = if j < run_b.end { times[j] } else { Time::MAX };
        let t = ta.min(tb);
        let mut i2 = i;
        while i2 < run_a.end && times[i2] == t {
            i2 += 1;
        }
        let mut j2 = j;
        while j2 < run_b.end && times[j2] == t {
            j2 += 1;
        }
        // An {a, w} event closes against the earlier {b, w} events (the
        // second event shares b), and a {b, w} event against the earlier
        // {a, w} events (the second event shares a).
        let group = seen.len();
        for p in i..i2 {
            let (w, d3) = far_end(at(p), a);
            if w != b {
                let s = &sides[w as usize];
                acc[4 | d3] += u64::from(s[2]);
                acc[4 | 2 | d3] += u64::from(s[3]);
                seen.push(u64::from(w) << 2 | d3 as u64);
            }
        }
        for p in j..j2 {
            let (w, d3) = far_end(at(p), b);
            if w != a {
                let s = &sides[w as usize];
                acc[d3] += u64::from(s[0]);
                acc[2 | d3] += u64::from(s[1]);
                seen.push(u64::from(w) << 2 | 2 | d3 as u64);
            }
        }
        for &x in &seen[group..] {
            sides[(x >> 2) as usize][(x & 3) as usize] += 1;
        }
        (i, j) = (i2, j2);
        groups += 1;
    }
    groups
}

/// The signature of each closure slot: the first event is `a → b`
/// (digits 0 → 1), the third node `w` is digit 2.
fn closure_signatures() -> [MotifSignature; 8] {
    let leg = |node: u8, dir: usize| if dir == 0 { (node, 2) } else { (2, node) };
    std::array::from_fn(|slot| {
        let shared = (slot >> 2) as u8;
        let (d2, d3) = ((slot >> 1) & 1, slot & 1);
        MotifSignature::canonicalize(&[(0, 1), leg(shared, d2), leg(1 - shared, d3)])
    })
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
        count_triads(g, delta, &mut c);
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
    fn clone_counts_match_original() {
        // Clones taken before and after the window index is built (the
        // second carries the index along) count identically.
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

    /// Every strictly time-ordered event triple within `delta` whose
    /// events use the three pairs of one node triple, by its signature.
    fn brute_force(g: &TemporalGraph, delta: Time) -> MotifCounts {
        let ev = g.events();
        let mut out = MotifCounts::new();
        for i in 0..ev.len() {
            for j in i + 1..ev.len() {
                for k in j + 1..ev.len() {
                    let (x, y, z) = (&ev[i], &ev[j], &ev[k]);
                    if !(x.time < y.time && y.time < z.time && z.time - x.time <= delta) {
                        continue;
                    }
                    let pair = |e: &Event| (e.src.0.min(e.dst.0), e.src.0.max(e.dst.0));
                    let mut nodes = vec![x.src, x.dst, y.src, y.dst, z.src, z.dst];
                    nodes.sort_unstable();
                    nodes.dedup();
                    let (p, q, r) = (pair(x), pair(y), pair(z));
                    if nodes.len() == 3 && p != q && q != r && p != r {
                        let seq = [(x.src, x.dst), (y.src, y.dst), (z.src, z.dst)];
                        out.add(MotifSignature::canonicalize(&seq), 1);
                    }
                }
            }
        }
        out
    }

    /// Seeded random graphs on a few nodes — timestamp ties, parallel
    /// events, both directions, nonzero durations — against brute-force
    /// triangle enumeration at ΔW 0, 1, small and unbounded.
    #[test]
    fn random_graphs_match_brute_force() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut below = |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        let mut closed = 0;
        for round in 0..60 {
            let nodes = 3 + below(5) as u32;
            let span = 1 + below(if round % 3 == 0 { 4 } else { 40 }) as i64;
            let mut b = TemporalGraphBuilder::new();
            for _ in 0..4 + below(36) {
                let src = below(u64::from(nodes)) as u32;
                let dst = (src + 1 + below(u64::from(nodes) - 1) as u32) % nodes;
                let t = below(span as u64) as i64;
                b.push(Event::with_duration(src, dst, t, below(3) as u32));
            }
            let g = b.build().unwrap();
            for delta in [0, 1, 1 + below(12) as i64, Time::MAX] {
                let counts = triads(&g, delta);
                assert_eq!(counts, brute_force(&g, delta), "round {round} ΔW={delta}");
                closed += counts.total();
            }
        }
        assert!(closed > 1000, "the graphs must hold triangles: {closed}");
    }

    #[test]
    fn closure_slots_name_the_eight_triangles() {
        let sigs = closure_signatures();
        let mut distinct = sigs.to_vec();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 8, "{sigs:?}");
        // a→b, a→w, b→w: the second event shares a.
        assert_eq!(sigs[0b000], sig("010212"));
        // a→b, b→w, a→w: the feed-forward triangle.
        assert_eq!(sigs[0b100], sig("011202"));
        // a→b, w→b, w→a.
        assert_eq!(sigs[0b111], sig("012120"));
    }
}
