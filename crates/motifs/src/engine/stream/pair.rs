//! 2-node sequence counting: the sliding-ΔW-window DP over each ordered
//! node pair.
//!
//! For one unordered pair `{u, v}`, every admissible 2-node motif is a
//! strictly-time-increasing sequence of events drawn from the pair's
//! merged event list, each event carrying one bit of information — its
//! direction. The classic Paranjape window DP counts all of them in one
//! pass: `counts1[d]` holds the events currently inside the window,
//! `counts2[(d1 << 1) | d2]` the strictly-ordered pairs, and each
//! event, acting as the *last* element, closes `counts1`/`counts2` into
//! the 2- and 3-event accumulators before being pushed.
//!
//! The data layout is the arena contract (see [`super::arena`]): the
//! merged direction-tagged list lives in reusable SoA scratch (the
//! `times` and `tags` columns), window expiry advances an amortized
//! group cursor over the dense time column against precomputed group
//! boundaries instead of per-event compare-and-pop, and the
//! accumulators are flat bit-indexed arrays so every close/push is an
//! unconditional indexed add.
//!
//! Equal timestamps never co-occur (the paper's total-ordering rule), so
//! all pushes, pops, and closes operate on whole timestamp *groups*
//! against pre-group snapshots: two events of one group never pair.
//!
//! When the log is tie-free ([`tnm_graph::EventColumns::has_time_ties`]
//! is false — the common case for real corpora), every group is a
//! single event and the DP skips materialization entirely: it runs
//! fused over the pair's two directed event-index lists with two
//! cursor pairs walking the virtual merge (see [`pair_fused_dp`]).

use super::arena::{expiry_cut, DpArena, SealedGroups};
use super::two_node_signature;
use crate::count::MotifCounts;
use tnm_graph::{Edge, EventIdx, TemporalGraph, Time};

/// Accumulated direction sequences for one pair list: `two` is indexed
/// `(d1 << 1) | d2`, `three` is `(d1 << 2) | (d2 << 1) | d3`.
#[derive(Default)]
struct PairAcc {
    two: [u64; 4],
    three: [u64; 8],
}

/// Counts all 2-event 2-node sequences within `delta` into `out`.
pub(crate) fn count_pairs(
    graph: &TemporalGraph,
    delta: Time,
    out: &mut MotifCounts,
    arena: &mut DpArena,
) {
    let acc = accumulate::<false>(graph, delta, arena);
    for (slot, &n) in acc.two.iter().enumerate() {
        if n > 0 {
            out.add(two_node_signature(&[(slot >> 1) as u8 & 1, slot as u8 & 1]), n);
        }
    }
}

/// Counts all 3-event 2-node sequences within `delta` into `out`.
pub(crate) fn count_triples(
    graph: &TemporalGraph,
    delta: Time,
    out: &mut MotifCounts,
    arena: &mut DpArena,
) {
    let acc = accumulate::<true>(graph, delta, arena);
    for (slot, &n) in acc.three.iter().enumerate() {
        if n > 0 {
            let dirs = [(slot >> 2) as u8 & 1, (slot >> 1) as u8 & 1, slot as u8 & 1];
            out.add(two_node_signature(&dirs), n);
        }
    }
}

/// Runs the window DP over every unordered node pair with events.
/// `TRIPLES` switches on the `counts2`/3-event machinery, which 2-event
/// counting never reads; as a const generic the disabled branches
/// vanish at compile time.
fn accumulate<const TRIPLES: bool>(
    graph: &TemporalGraph,
    delta: Time,
    arena: &mut DpArena,
) -> PairAcc {
    let obs = tnm_obs::enabled();
    let (mut pairs_swept, mut groups_advanced, mut peak_window) = (0u64, 0u64, 0u64);
    let mut acc = PairAcc::default();
    let times = graph.times();
    // A tie-free log (no two events anywhere share a timestamp) makes
    // every group a single event: the DP then runs fused over the two
    // directed index lists — no merged list is materialized at all.
    let tie_free = !graph.columns().has_time_ties();
    // The edge index lists static edges in ascending `(src, dst)` order,
    // each with its event list, so only the reverse direction is a
    // lookup.
    for (edge, list) in graph.static_edge_events() {
        let (lo, hi) = (edge.src.min(edge.dst), edge.src.max(edge.dst));
        // Visit each unordered pair once: from its lo→hi edge when that
        // exists, else from the hi→lo edge (which then exists alone).
        let (fwd, rev) = if edge.src < edge.dst {
            (list, graph.edge_events(Edge { src: hi, dst: lo }))
        } else if graph.has_edge(Edge { src: lo, dst: hi }) {
            continue;
        } else {
            (&[][..], list)
        };
        if tie_free {
            if obs {
                pairs_swept += 1;
                groups_advanced += (fwd.len() + rev.len()) as u64;
                peak_window = peak_window.max((fwd.len() + rev.len()) as u64);
            }
            pair_fused_dp::<TRIPLES>(times, fwd, rev, delta, &mut acc);
        } else {
            merge_pair_events(times, fwd, rev, arena);
            if obs {
                pairs_swept += 1;
                groups_advanced += arena.num_groups() as u64;
                peak_window = peak_window.max(arena.times.len() as u64);
            }
            pair_window_dp::<TRIPLES>(&arena.times, &arena.tags, &arena.bounds, delta, &mut acc);
        }
    }
    if obs {
        let reg = tnm_obs::global();
        reg.counter("stream.pair.pairs_swept").add(pairs_swept);
        reg.counter("stream.pair.groups_advanced").add(groups_advanced);
        reg.gauge("stream.pair.window_events").set(peak_window);
    }
    acc
}

/// Merges the two directed event lists of `{lo, hi}` (`fwd` = `lo → hi`,
/// `rev` = `hi → lo`) into the arena's SoA scratch as a time-ordered
/// direction-tagged list and seals its group boundaries. Event-index
/// order is global time order, so a two-pointer merge on indices
/// suffices; timestamps are resolved against the dense SoA time column.
fn merge_pair_events(times: &[Time], fwd: &[EventIdx], rev: &[EventIdx], arena: &mut DpArena) {
    arena.clear();
    arena.times.reserve(fwd.len() + rev.len());
    arena.tags.reserve(fwd.len() + rev.len());
    let (mut i, mut j) = (0, 0);
    while i < fwd.len() || j < rev.len() {
        let take_fwd = match (fwd.get(i), rev.get(j)) {
            (Some(&a), Some(&b)) => a < b,
            (Some(_), None) => true,
            _ => false,
        };
        let idx = if take_fwd {
            i += 1;
            fwd[i - 1]
        } else {
            j += 1;
            rev[j - 1]
        };
        arena.times.push(times[idx as usize]);
        arena.tags.push(!take_fwd as u8);
    }
    arena.seal_groups();
}

/// The window DP fused over the pair's two directed index lists — the
/// tie-free fast path. Event indices are globally time-ordered, so a
/// two-pointer walk over `(fwd, rev)` *is* the merged list; a second
/// cursor pair replays the same virtual merge as the expiring window
/// front. Nothing is written anywhere: per event the loop costs two
/// 4-byte index reads, two 8-byte gathers from the dense time column,
/// and the unconditional indexed adds.
fn pair_fused_dp<const TRIPLES: bool>(
    times: &[Time],
    fwd: &[EventIdx],
    rev: &[EventIdx],
    delta: Time,
    acc: &mut PairAcc,
) {
    let mut counts1 = [0u64; 2];
    let mut counts2 = [0u64; 4];
    // Window-front cursors (expiry) and tail cursors (arrival), each
    // pair walking the virtual merge independently. Exhausted cursors
    // read the `EventIdx::MAX` sentinel, which always loses the
    // min-select — so each select is a branch-free compare/min instead
    // of a data-dependent jump (a near-coin-flip the predictor would
    // otherwise miss on).
    const DONE: EventIdx = EventIdx::MAX;
    let peek = |list: &[EventIdx], at: usize| list.get(at).copied().unwrap_or(DONE);
    let (mut ff, mut fr) = (0usize, 0usize);
    let (mut tf, mut tr) = (0usize, 0usize);
    for _ in 0..fwd.len() + rev.len() {
        let (a, b) = (peek(fwd, tf), peek(rev, tr));
        let take_fwd = a < b;
        let idx = a.min(b);
        let d = !take_fwd as usize;
        tf += take_fwd as usize;
        tr += !take_fwd as usize;
        let wstart = times[idx as usize] - delta;
        // Expire: pop the virtual merge's front while it is out the back
        // of the window. The front never overtakes the tail — the tail
        // event itself is always in-window, so the sentinel never
        // reaches the time gather.
        loop {
            let (pa, pb) = (peek(fwd, ff), peek(rev, fr));
            let pop_fwd = pa < pb;
            let pidx = pa.min(pb);
            if times[pidx as usize] >= wstart {
                break;
            }
            ff += pop_fwd as usize;
            fr += !pop_fwd as usize;
            let pd = !pop_fwd as usize;
            counts1[pd] -= 1;
            if TRIPLES {
                let b = pd << 1;
                counts2[b] -= counts1[0];
                counts2[b | 1] -= counts1[1];
            }
        }
        // Close (the window state excludes the event itself), then push.
        acc.two[d] += counts1[0];
        acc.two[2 | d] += counts1[1];
        if TRIPLES {
            acc.three[d] += counts2[0];
            acc.three[2 | d] += counts2[1];
            acc.three[4 | d] += counts2[2];
            acc.three[6 | d] += counts2[3];
            counts2[d] += counts1[0];
            counts2[2 | d] += counts1[1];
        }
        counts1[d] += 1;
    }
}

/// The sliding-window DP over one merged pair list, advancing by whole
/// timestamp groups against the precomputed boundary array — the
/// tie-handling path, where whole timestamp groups push, pop, and close
/// together against pre-group snapshots.
fn pair_window_dp<const TRIPLES: bool>(
    times: &[Time],
    dirs: &[u8],
    bounds: &[u32],
    delta: Time,
    acc: &mut PairAcc,
) {
    let mut counts1 = [0u64; 2];
    let mut counts2 = [0u64; 4];
    let mut front = 0usize; // group index of the oldest in-window group
    let num_groups = bounds.len() - 1;
    for g in 0..num_groups {
        let (start, end) = (bounds[g] as usize, bounds[g + 1] as usize);
        let t = times[start];
        // Expire whole groups older than the window start t − ΔW: the
        // amortized front cursor finds the cut in the dense time column.
        let cut = expiry_cut(times, &SealedGroups(bounds), front, g, t - delta);
        while front < cut {
            let (gs, ge) = (bounds[front] as usize, bounds[front + 1] as usize);
            for &d in &dirs[gs..ge] {
                counts1[d as usize] -= 1;
            }
            if TRIPLES {
                // Everything left in counts1 is strictly later than the
                // expired group, so each expired event retracts exactly
                // its open pairs.
                for &d in &dirs[gs..ge] {
                    let b = (d as usize) << 1;
                    counts2[b] -= counts1[0];
                    counts2[b | 1] -= counts1[1];
                }
            }
            front += 1;
        }
        // Close: each group member is a candidate last event; the window
        // state excludes its own group, enforcing strict time increase.
        for &d in &dirs[start..end] {
            let d = d as usize;
            acc.two[d] += counts1[0];
            acc.two[2 | d] += counts1[1];
            if TRIPLES {
                acc.three[d] += counts2[0];
                acc.three[2 | d] += counts2[1];
                acc.three[4 | d] += counts2[2];
                acc.three[6 | d] += counts2[3];
            }
        }
        // Push: pair each group member with the pre-group snapshot
        // (counts1 is untouched until the second loop), then admit the
        // group itself.
        if TRIPLES {
            for &d in &dirs[start..end] {
                let d = d as usize;
                counts2[d] += counts1[0];
                counts2[2 | d] += counts1[1];
            }
        }
        for &d in &dirs[start..end] {
            counts1[d as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notation::sig;
    use tnm_graph::{Event, NodeId, TemporalGraphBuilder};

    fn graph(events: &[(u32, u32, i64)]) -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        for &(u, v, t) in events {
            b.push(Event::new(u, v, t));
        }
        b.build().unwrap()
    }

    fn pairs(g: &TemporalGraph, delta: Time) -> MotifCounts {
        let mut c = MotifCounts::new();
        count_pairs(g, delta, &mut c, &mut DpArena::default());
        c
    }

    fn triples(g: &TemporalGraph, delta: Time) -> MotifCounts {
        let mut c = MotifCounts::new();
        count_triples(g, delta, &mut c, &mut DpArena::default());
        c
    }

    #[test]
    fn ping_pong_triples() {
        // 0→1 at 1, 1→0 at 2, 0→1 at 4: within ΔW=3 the only triple is
        // (1,2,4) = 011001; pairs are (1,2)=0110, (2,4)=0110... wait
        // (2,4) is 1→0 then 0→1 → canonical 0110 too; (1,4) = 010101? No:
        // (1,4) is 0→1 then 0→1 = 0101.
        let g = graph(&[(0, 1, 1), (1, 0, 2), (0, 1, 4)]);
        let c3 = triples(&g, 3);
        assert_eq!(c3.get(sig("011001")), 1);
        assert_eq!(c3.total(), 1);
        let c2 = pairs(&g, 3);
        assert_eq!(c2.get(sig("0110")), 2);
        assert_eq!(c2.get(sig("0101")), 1);
    }

    #[test]
    fn window_excludes_wide_spans() {
        let g = graph(&[(0, 1, 0), (0, 1, 10), (0, 1, 20)]);
        let c = triples(&g, 20);
        assert_eq!(c.get(sig("010101")), 1);
        let c = triples(&g, 19);
        assert!(c.is_empty());
        let c = pairs(&g, 10);
        assert_eq!(c.get(sig("0101")), 2);
    }

    #[test]
    fn reverse_only_edge_is_still_visited() {
        // Only the hi→lo direction exists: the pair must be processed
        // exactly once through the hi→lo branch.
        let g = graph(&[(5, 2, 1), (5, 2, 2)]);
        let c = pairs(&g, 5);
        assert_eq!(c.get(sig("0101")), 1);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn ties_processed_as_groups() {
        let g = graph(&[(0, 1, 1), (1, 0, 1), (0, 1, 2), (1, 0, 2)]);
        let c = pairs(&g, 5);
        // Cross-group pairs only: (1a,2a)=0101, (1a,2b)=0110,
        // (1b,2a)=0110, (1b,2b)=0101.
        assert_eq!(c.get(sig("0101")), 2);
        assert_eq!(c.get(sig("0110")), 2);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn fused_and_grouped_dps_agree() {
        // A dense tie-free ping-pong history: both DP shapes are legal,
        // so they must produce identical accumulators at several ΔW.
        let mut events = Vec::new();
        let mut x = 7u64;
        let mut t = 0i64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            t += 1 + ((x >> 60) as i64);
            if x & 1 == 0 {
                events.push((0, 1, t));
            } else {
                events.push((1, 0, t));
            }
        }
        let g = graph(&events);
        let times = g.times();
        let fwd = g.edge_events(Edge { src: NodeId(0), dst: NodeId(1) });
        let rev = g.edge_events(Edge { src: NodeId(1), dst: NodeId(0) });
        let mut arena = DpArena::default();
        merge_pair_events(times, fwd, rev, &mut arena);
        for delta in [0, 3, 25, 10_000] {
            let mut grouped = PairAcc::default();
            pair_window_dp::<true>(&arena.times, &arena.tags, &arena.bounds, delta, &mut grouped);
            let mut fused = PairAcc::default();
            pair_fused_dp::<true>(times, fwd, rev, delta, &mut fused);
            assert_eq!(grouped.two, fused.two, "two-event counts at ΔW={delta}");
            assert_eq!(grouped.three, fused.three, "three-event counts at ΔW={delta}");
        }
    }

    #[test]
    fn arena_reuse_across_pairs_is_clean() {
        // Two disjoint pairs with different list lengths: the second
        // sweep must not see residue from the first.
        let g = graph(&[(0, 1, 1), (0, 1, 2), (0, 1, 3), (2, 3, 1), (3, 2, 2)]);
        let c = pairs(&g, 10);
        assert_eq!(c.get(sig("0101")), 3);
        assert_eq!(c.get(sig("0110")), 1);
        assert_eq!(c.total(), 4);
    }
}
