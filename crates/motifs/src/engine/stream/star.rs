//! Per-center counting: stars, wedges and 2-node sequences from one
//! sweep over each node's incident events.
//!
//! A 3-node star motif has a center `C` and two distinct leaves; all
//! three events run between the center and a leaf. Counting them without
//! enumeration follows Paranjape et al.'s decomposition by the position
//! of the *lone* event (the one on the minority leaf):
//!
//! * **pre** — the same-leaf pair comes first (`lone` is event 3):
//!   `E12 − E123`,
//! * **post** — the same-leaf pair comes last (`lone` is event 1):
//!   `E23 − E123`,
//! * **peri** — the pair straddles the lone event (`lone` is event 2):
//!   `E13 − E123`,
//!
//! where `E12`/`E23`/`E13` count strictly-ordered in-window event
//! triples incident to the center whose named positions share a leaf
//! (the third position unconstrained) and `E123` counts the all-one-leaf
//! triples. Triples with three distinct leaves (4-node motifs) never
//! enter any `E` table, and a triangle's third edge is not incident to
//! the center at all — so stars, 2-node sequences and triads stay
//! disjoint.
//!
//! The all-one-leaf triples are exactly the 3-event 2-node sequences,
//! each seen once from either endpoint. The pass splits `E123` by
//! whether the leaf's id is above the center's, with the bit as a table
//! index; the upper half counts every 2-node sequence once, from its
//! lower-id endpoint, so the 2-node class costs no pass of its own.
//! 2-event jobs split the wedge sweep's same-leaf predecessor counts the
//! same way. A 2-node-only job loads only each center's upper-half
//! events and runs the past-window sweep without its star tables.
//!
//! `E12` falls out of a past-window sweep (same-leaf pair counts before
//! each event), `E23` of a future-window sweep, and the coupled `E13` of
//! a prefix identity: the same-leaf δ-pairs straddling time `t` are
//! those *started* before `t` minus those *finished* by `t`, both of
//! which are running sums over the per-event pair counts (`pstart`,
//! `pend`) the two sweeps already produced. Everything is `O(events at
//! the center)` per center with `O(nodes)` reusable scratch.
//!
//! Data layout (see [`super::arena`]): the center's incident list lives
//! in the arena's SoA scratch — dense `times` plus `aux` packing
//! `nbr << 1 | dir` — with the timestamp-group boundary array computed
//! **once** per center and shared by all three sweeps; tie-free logs
//! never build it at all, sweeping per-event through the identity
//! [`DenseGroups`] map instead. The straddle
//! tables are flat bit-indexed `[u64; K]` accumulators (`(d1 << 2) |
//! (d2 << 1) | d3` for triples), summed over all centers and merged
//! into per-lone-position totals once per pass, so every table update
//! is an unconditional indexed add.

use super::arena::{expiry_cut, DenseGroups, DpArena, GroupMap, SealedGroups};
use super::{star_signature, two_node_signature};
use crate::count::MotifCounts;
use tnm_graph::{NodeId, TemporalGraph, Time};

/// Per-direction triple counts, indexed `(d1 << 2) | (d2 << 1) | d3`.
type Triples = [u64; 8];

/// The per-center tables, summed over every center of a pass.
#[derive(Debug, Default, PartialEq)]
struct Tables {
    e12: Triples,
    e23: Triples,
    e13: Triples,
    /// `E123` indexed by whether the leaf's id is above the center's:
    /// `e123[1]` counts each 2-node triple exactly once.
    e123: [Triples; 2],
}

/// Reusable per-center tables; neighbor-indexed scratch is sized once
/// to the graph's node count and wiped via the center's own event list.
struct CenterScratch {
    /// In-window events per `(neighbor << 1) | dir`.
    cnt_nbr: Vec<u64>,
    /// In-window same-leaf ordered pairs per `nbr * 4 + ((d1 << 1) | d2)`.
    per_nbr_pair: Vec<u64>,
    /// Same-leaf δ-pairs ending at each event (`[d1]` of the earlier).
    pend: Vec<[u64; 2]>,
    /// Same-leaf δ-pairs starting at each event (`[d3]` of the later).
    pstart: Vec<[u64; 2]>,
    /// Per leaf, the last center that counted it toward
    /// `stream.pair.pairs_swept` (empty unless that counter is live).
    leaf_seen: Vec<u32>,
}

impl CenterScratch {
    fn new(num_nodes: usize, count_pairs: bool) -> Self {
        CenterScratch {
            cnt_nbr: vec![0; num_nodes * 2],
            per_nbr_pair: vec![0; num_nodes * 4],
            pend: Vec::new(),
            pstart: Vec::new(),
            leaf_seen: if count_pairs { vec![u32::MAX; num_nodes] } else { Vec::new() },
        }
    }

    /// Zeroes the neighbor-indexed tables touched by this center.
    fn wipe_nbr_tables(&mut self, aux: &[u32]) {
        for &a in aux {
            let nbr = (a >> 1) as usize;
            self.cnt_nbr[nbr * 2] = 0;
            self.cnt_nbr[nbr * 2 + 1] = 0;
            self.per_nbr_pair[nbr * 4..nbr * 4 + 4].fill(0);
        }
    }

    /// The distinct leaves above `center` in its loaded list: the
    /// unordered node pairs this center sweeps as their lower endpoint.
    fn new_upper_leaves(&mut self, center: u32, aux: &[u32]) -> u64 {
        let mut fresh = 0;
        for &a in aux {
            let nbr = a >> 1;
            if nbr > center && self.leaf_seen[nbr as usize] != center {
                self.leaf_seen[nbr as usize] = center;
                fresh += 1;
            }
        }
        fresh
    }
}

/// Unpacks an `aux` entry into `(nbr_base2, nbr_base4, dir)` — the two
/// table base offsets plus the direction bit.
#[inline]
fn unpack(a: u32) -> (usize, usize, usize) {
    let nbr = (a >> 1) as usize;
    (nbr * 2, nbr * 4, (a & 1) as usize)
}

/// 1 if the leaf packed in `a` has a higher id than `center`, else 0.
#[inline]
fn upper(a: u32, center: u32) -> usize {
    ((a >> 1) > center) as usize
}

/// Loads the center's incident events into the arena (already
/// time-ordered: the node index stores event indices in global time
/// order), reading each event's time and endpoints from the event log
/// itself. The graph's SoA columns would make each load a little faster,
/// but a served graph drops them on every append, and rebuilding them
/// costs more than a 2-node count saves. With `upper_only`, keeps just
/// the events whose leaf id is above the center's — all a 2-node-only
/// pass reads. Callers seal the group boundaries only when the log has
/// timestamp ties ([`TemporalGraph::has_time_ties`]); tie-free centers
/// sweep with the identity [`DenseGroups`] map instead.
fn load(graph: &TemporalGraph, center: u32, upper_only: bool, arena: &mut DpArena) {
    arena.clear();
    let events = graph.events();
    let list = graph.node_events(NodeId(center));
    // Every event is written and a dropped one is overwritten by the
    // next, so the filter costs no branch.
    let min_leaf = if upper_only { center + 1 } else { 0 };
    arena.times.resize(list.len(), 0);
    arena.aux.resize(list.len(), 0);
    let mut n = 0;
    for &idx in list {
        let e = &events[idx as usize];
        let nbr = e.src.0 ^ e.dst.0 ^ center;
        arena.times[n] = e.time;
        arena.aux[n] = (nbr << 1) | (e.src.0 != center) as u32;
        n += (nbr >= min_leaf) as usize;
    }
    arena.times.truncate(n);
    arena.aux.truncate(n);
}

/// The shared per-center loop of both passes: loads each center (only
/// its upper half unless `stars`), records the pass's counters, and
/// runs `sweep` on every center holding at least `min_events` events,
/// sealing the group boundaries first when the log has ties.
fn for_each_center(
    graph: &TemporalGraph,
    (two, stars): (bool, bool),
    min_events: usize,
    arena: &mut DpArena,
    mut sweep: impl FnMut(&mut CenterScratch, &DpArena, u32, bool),
) {
    let obs = tnm_obs::enabled();
    let mut scratch = CenterScratch::new(graph.num_nodes() as usize, obs && two);
    let (mut centers_swept, mut peak_events, mut pairs_swept) = (0u64, 0u64, 0u64);
    let tie_free = !graph.has_time_ties();
    for c in 0..graph.num_nodes() {
        load(graph, c, !stars, arena);
        if obs && two {
            pairs_swept += scratch.new_upper_leaves(c, &arena.aux);
        }
        if arena.times.len() < min_events {
            continue;
        }
        if obs {
            centers_swept += 1;
            peak_events = peak_events.max(arena.times.len() as u64);
        }
        if !tie_free {
            arena.seal_groups();
        }
        sweep(&mut scratch, arena, c, tie_free);
    }
    if obs {
        let reg = tnm_obs::global();
        if two {
            reg.counter("stream.pair.pairs_swept").add(pairs_swept);
        }
        if stars {
            reg.counter("stream.star.centers_swept").add(centers_swept);
            reg.gauge("stream.star.center_events").set(peak_events);
        }
    }
}

/// One per-center pass at 3 events: counts every 3-event 2-node
/// sequence (if `two`) and every exactly-2-leaf star (if `stars`) into
/// `out`.
pub(crate) fn count_triples(
    graph: &TemporalGraph,
    delta: Time,
    (two, stars): (bool, bool),
    out: &mut MotifCounts,
    arena: &mut DpArena,
) {
    let mut tables = Tables::default();
    for_each_center(graph, (two, stars), 3, arena, |scratch, arena, c, tie_free| {
        let t = &mut tables;
        if tie_free {
            let groups = DenseGroups(arena.times.len());
            center_triples(scratch, arena, c, delta, stars, &groups, t);
        } else {
            let groups = SealedGroups(&arena.bounds);
            center_triples(scratch, arena, c, delta, stars, &groups, t);
        }
    });
    let Tables { e12, e23, e13, e123 } = tables;
    if two {
        for (slot, &n) in e123[1].iter().enumerate() {
            if n > 0 {
                out.add(two_node_signature(&triple_dirs(slot)), n);
            }
        }
    }
    if stars {
        // Leaf layout per lone position: the minority leaf is B, the
        // pair leaf A; canonicalization makes the naming immaterial.
        const LEGS: [[u8; 3]; 3] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]];
        for (pos, legs) in LEGS.iter().enumerate() {
            let with_pair = [&e23, &e13, &e12][pos];
            for slot in 0..8 {
                let n = with_pair[slot] - e123[0][slot] - e123[1][slot];
                if n > 0 {
                    out.add(star_signature(legs, &triple_dirs(slot)), n);
                }
            }
        }
    }
}

/// The direction bits of a `(d1 << 2) | (d2 << 1) | d3` slot.
fn triple_dirs(slot: usize) -> [u8; 3] {
    [(slot >> 2) as u8 & 1, (slot >> 1) as u8 & 1, slot as u8 & 1]
}

/// One center's 3-event sweeps under the given group map: all three
/// when counting stars, else only the past-window sweep's `E123`.
fn center_triples<B: GroupMap>(
    scratch: &mut CenterScratch,
    arena: &DpArena,
    center: u32,
    delta: Time,
    stars: bool,
    groups: &B,
    tables: &mut Tables,
) {
    if stars {
        forward_sweep::<true, B>(scratch, arena, center, delta, groups, tables);
        future_sweep(scratch, arena, delta, groups, &mut tables.e23);
        straddle_sweep(scratch, arena, groups, &mut tables.e13);
    } else {
        forward_sweep::<false, B>(scratch, arena, center, delta, groups, tables);
    }
}

/// One per-center pass at 2 events: counts every 2-event 2-node
/// sequence (if `two`) and every wedge — two events sharing exactly the
/// center — (if `stars`) into `out`.
pub(crate) fn count_pairs(
    graph: &TemporalGraph,
    delta: Time,
    (two, stars): (bool, bool),
    out: &mut MotifCounts,
    arena: &mut DpArena,
) {
    // any[(d1 << 1) | d2]: in-window predecessors on any leaf;
    // same[upper][..]: those on the event's own leaf.
    let mut any = [0u64; 4];
    let mut same = [[0u64; 4]; 2];
    for_each_center(graph, (two, stars), 2, arena, |scratch, arena, c, tie_free| {
        let acc = (&mut any, &mut same);
        if tie_free {
            let groups = DenseGroups(arena.times.len());
            center_pairs(scratch, arena, c, delta, stars, &groups, acc);
        } else {
            let groups = SealedGroups(&arena.bounds);
            center_pairs(scratch, arena, c, delta, stars, &groups, acc);
        }
    });
    for slot in 0..4 {
        let dirs = [(slot >> 1) as u8 & 1, slot as u8 & 1];
        if two && same[1][slot] > 0 {
            out.add(two_node_signature(&dirs), same[1][slot]);
        }
        // A 2-node-only pass leaves `any` empty: no wedges to read.
        let wedges = if stars { any[slot] - same[0][slot] - same[1][slot] } else { 0 };
        if wedges > 0 {
            out.add(star_signature(&[0, 1], &dirs), wedges);
        }
    }
}

/// One center's 2-event DP under the given group map, with or without
/// the any-leaf predecessor counts the wedges need.
fn center_pairs<B: GroupMap>(
    scratch: &mut CenterScratch,
    arena: &DpArena,
    center: u32,
    delta: Time,
    stars: bool,
    groups: &B,
    acc: (&mut [u64; 4], &mut [[u64; 4]; 2]),
) {
    if stars {
        wedge_sweep::<true, B>(scratch, arena, center, delta, groups, acc);
    } else {
        wedge_sweep::<false, B>(scratch, arena, center, delta, groups, acc);
    }
}

/// The 2-event DP of [`center_pairs`]; `STARS` keeps the any-leaf
/// predecessor counts.
fn wedge_sweep<const STARS: bool, B: GroupMap>(
    scratch: &mut CenterScratch,
    arena: &DpArena,
    center: u32,
    delta: Time,
    groups: &B,
    (any, same): (&mut [u64; 4], &mut [[u64; 4]; 2]),
) {
    let (times, aux) = (&arena.times[..], &arena.aux[..]);
    let mut cnt_any = [0u64; 2];
    let mut front = 0usize;
    for g in 0..groups.num_groups() {
        let (start, end) = (groups.start(g), groups.start(g + 1));
        let t = times[start];
        let cut = expiry_cut(times, groups, front, g, t - delta);
        while front < cut {
            let (gs, ge) = (groups.start(front), groups.start(front + 1));
            for &a in &aux[gs..ge] {
                let (b2, _, dir) = unpack(a);
                if STARS {
                    cnt_any[dir] -= 1;
                }
                scratch.cnt_nbr[b2 | dir] -= 1;
            }
            front += 1;
        }
        for &a in &aux[start..end] {
            let (b2, _, dir) = unpack(a);
            if STARS {
                any[dir] += cnt_any[0];
                any[2 | dir] += cnt_any[1];
            }
            let own = &mut same[upper(a, center)];
            own[dir] += scratch.cnt_nbr[b2];
            own[2 | dir] += scratch.cnt_nbr[b2 | 1];
        }
        for &a in &aux[start..end] {
            let (b2, _, dir) = unpack(a);
            if STARS {
                cnt_any[dir] += 1;
            }
            scratch.cnt_nbr[b2 | dir] += 1;
        }
    }
    scratch.wipe_nbr_tables(aux);
}

/// Past-window sweep: adds this center's `E123` (split by leaf side)
/// and, with `STARS`, its `E12` to `tables` and fills `pend`.
fn forward_sweep<const STARS: bool, B: GroupMap>(
    scratch: &mut CenterScratch,
    arena: &DpArena,
    center: u32,
    delta: Time,
    groups: &B,
    tables: &mut Tables,
) {
    let (times, aux) = (&arena.times[..], &arena.aux[..]);
    let mut e12 = Triples::default();
    let mut e123 = [Triples::default(); 2];
    // same_pair[(d1 << 1) | d2].
    let mut same_pair = [0u64; 4];
    if STARS {
        scratch.pend.clear();
        scratch.pend.resize(times.len(), [0; 2]);
    }
    let mut front = 0usize;
    for g in 0..groups.num_groups() {
        let (start, end) = (groups.start(g), groups.start(g + 1));
        let t = times[start];
        // Expire whole timestamp groups below the window start.
        let cut = expiry_cut(times, groups, front, g, t - delta);
        while front < cut {
            let (gs, ge) = (groups.start(front), groups.start(front + 1));
            for &a in &aux[gs..ge] {
                let (b2, _, dir) = unpack(a);
                scratch.cnt_nbr[b2 | dir] -= 1;
            }
            for &a in &aux[gs..ge] {
                let (b2, b4, dir) = unpack(a);
                // Retract the expired event's open pairs: everything
                // left on its leaf is strictly later.
                let (c0, c1) = (scratch.cnt_nbr[b2], scratch.cnt_nbr[b2 | 1]);
                let d = dir << 1;
                if STARS {
                    same_pair[d] -= c0;
                    same_pair[d | 1] -= c1;
                }
                scratch.per_nbr_pair[b4 + d] -= c0;
                scratch.per_nbr_pair[b4 + d + 1] -= c1;
            }
            front += 1;
        }
        // Close each group member as the last event of a triple.
        for (k, &a) in aux[start..end].iter().enumerate() {
            let (b2, b4, dir) = unpack(a);
            if STARS {
                scratch.pend[start + k] = [scratch.cnt_nbr[b2], scratch.cnt_nbr[b2 | 1]];
                e12[dir] += same_pair[0];
                e12[2 | dir] += same_pair[1];
                e12[4 | dir] += same_pair[2];
                e12[6 | dir] += same_pair[3];
            }
            let e123 = &mut e123[upper(a, center)];
            e123[dir] += scratch.per_nbr_pair[b4];
            e123[2 | dir] += scratch.per_nbr_pair[b4 + 1];
            e123[4 | dir] += scratch.per_nbr_pair[b4 + 2];
            e123[6 | dir] += scratch.per_nbr_pair[b4 + 3];
        }
        // Push: pair against the pre-group snapshot, then admit.
        for &a in &aux[start..end] {
            let (b2, b4, dir) = unpack(a);
            let (c0, c1) = (scratch.cnt_nbr[b2], scratch.cnt_nbr[b2 | 1]);
            if STARS {
                same_pair[dir] += c0;
                same_pair[2 | dir] += c1;
            }
            scratch.per_nbr_pair[b4 + dir] += c0;
            scratch.per_nbr_pair[b4 + 2 + dir] += c1;
        }
        for &a in &aux[start..end] {
            let (b2, _, dir) = unpack(a);
            scratch.cnt_nbr[b2 | dir] += 1;
        }
    }
    scratch.wipe_nbr_tables(aux);
    for s in 0..8 {
        tables.e12[s] += e12[s];
        tables.e123[0][s] += e123[0][s];
        tables.e123[1][s] += e123[1][s];
    }
}

/// Future-window sweep: fills `pstart` and adds this center's `E23`.
fn future_sweep<B: GroupMap>(
    scratch: &mut CenterScratch,
    arena: &DpArena,
    delta: Time,
    groups: &B,
    e23: &mut Triples,
) {
    let (times, aux) = (&arena.times[..], &arena.aux[..]);
    let num_groups = groups.num_groups();
    let mut same_pair = [0u64; 4];
    scratch.pstart.clear();
    scratch.pstart.resize(times.len(), [0; 2]);
    // Window edges as *group* indices over the shared group map.
    let (mut ws, mut we) = (0usize, 0usize);
    for g in 0..num_groups {
        let (start, end) = (groups.start(g), groups.start(g + 1));
        let t = times[start];
        // Drop everything at or before the current time: pop pushed
        // groups (retracting their open pairs), skip never-pushed ones.
        while ws < num_groups && times[groups.start(ws)] <= t {
            if ws < we {
                let (gs, ge) = (groups.start(ws), groups.start(ws + 1));
                for &a in &aux[gs..ge] {
                    let (b2, _, dir) = unpack(a);
                    scratch.cnt_nbr[b2 | dir] -= 1;
                }
                for &a in &aux[gs..ge] {
                    let (b2, _, dir) = unpack(a);
                    let d = dir << 1;
                    same_pair[d] -= scratch.cnt_nbr[b2];
                    same_pair[d | 1] -= scratch.cnt_nbr[b2 | 1];
                }
            } else {
                we = ws + 1;
            }
            ws += 1;
        }
        // Admit groups within (t, t + ΔW], newest-last.
        while we < num_groups && times[groups.start(we)] <= t + delta {
            let (gs, ge) = (groups.start(we), groups.start(we + 1));
            for &a in &aux[gs..ge] {
                let (b2, _, dir) = unpack(a);
                same_pair[dir] += scratch.cnt_nbr[b2];
                same_pair[2 | dir] += scratch.cnt_nbr[b2 | 1];
            }
            for &a in &aux[gs..ge] {
                let (b2, _, dir) = unpack(a);
                scratch.cnt_nbr[b2 | dir] += 1;
            }
            we += 1;
        }
        // Close each group member as the first event of a triple.
        for (&a, slot) in aux[start..end].iter().zip(&mut scratch.pstart[start..end]) {
            let (b2, _, dir) = unpack(a);
            *slot = [scratch.cnt_nbr[b2], scratch.cnt_nbr[b2 | 1]];
            let d = dir << 2;
            e23[d] += same_pair[0];
            e23[d | 1] += same_pair[1];
            e23[d | 2] += same_pair[2];
            e23[d | 3] += same_pair[3];
        }
    }
    scratch.wipe_nbr_tables(aux);
}

/// Running-sum sweep over `pend`/`pstart`: adds this center's `E13`.
///
/// The same-leaf δ-pairs straddling an event at time `t` are exactly
/// those whose first element lies before `t` (`F`, the running sum of
/// `pstart` over events with time < `t`) minus those fully finished by
/// `t` (`G`, the running sum of `pend` over events with time ≤ `t` —
/// a pair ending *at* `t` cannot straddle it under strict ordering).
fn straddle_sweep<B: GroupMap>(
    scratch: &CenterScratch,
    arena: &DpArena,
    groups: &B,
    e13: &mut Triples,
) {
    let (times, aux) = (&arena.times[..], &arena.aux[..]);
    // f[(d1 << 1) | d3], g[(d1 << 1) | d3].
    let mut f = [0u64; 4];
    let mut gsum = [0u64; 4];
    let (mut fx, mut gy) = (0usize, 0usize);
    for g in 0..groups.num_groups() {
        let (start, end) = (groups.start(g), groups.start(g + 1));
        let t = times[start];
        while fx < times.len() && times[fx] < t {
            let d = (aux[fx] & 1) << 1;
            f[d as usize] += scratch.pstart[fx][0];
            f[(d | 1) as usize] += scratch.pstart[fx][1];
            fx += 1;
        }
        while gy < times.len() && times[gy] <= t {
            let d = aux[gy] & 1;
            gsum[d as usize] += scratch.pend[gy][0];
            gsum[(2 | d) as usize] += scratch.pend[gy][1];
            gy += 1;
        }
        for &a in &aux[start..end] {
            let dir = (a & 1) as usize;
            let d = dir << 1;
            e13[d] += f[0] - gsum[0];
            e13[d | 1] += f[1] - gsum[1];
            e13[4 | d] += f[2] - gsum[2];
            e13[4 | d | 1] += f[3] - gsum[3];
        }
    }
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

    fn pass(g: &TemporalGraph, delta: Time, k: usize, classes: (bool, bool)) -> MotifCounts {
        let mut c = MotifCounts::new();
        let count = if k == 2 { count_pairs } else { count_triples };
        count(g, delta, classes, &mut c, &mut DpArena::default());
        c
    }

    fn stars(g: &TemporalGraph, delta: Time) -> MotifCounts {
        pass(g, delta, 3, (false, true))
    }

    /// The 2-node sequences of `k` events from the 2-node-only pass,
    /// checked against the same class read from the combined pass.
    fn two_node(g: &TemporalGraph, delta: Time, k: usize) -> MotifCounts {
        let alone = pass(g, delta, k, (true, false));
        let combined: MotifCounts =
            pass(g, delta, k, (true, true)).iter().filter(|(s, _)| s.num_nodes() == 2).collect();
        assert_eq!(alone, combined, "2-node-only and combined passes at ΔW={delta}");
        alone
    }

    #[test]
    fn out_star_pre_post_peri() {
        // Center 0 sends to leaves 1, 1, 2 — lone event last: 010102.
        let g = graph(&[(0, 1, 1), (0, 1, 2), (0, 2, 3)]);
        let c = stars(&g, 10);
        assert_eq!(c.get(sig("010102")), 1);
        assert_eq!(c.total(), 1);
        // Lone event in the middle: 0→1, 0→2, 0→1 = 010201.
        let g = graph(&[(0, 1, 1), (0, 2, 2), (0, 1, 3)]);
        let c = stars(&g, 10);
        assert_eq!(c.get(sig("010201")), 1);
        assert_eq!(c.total(), 1);
        // Lone event first: 0→2, 0→1, 0→1 = 010202.
        let g = graph(&[(0, 2, 1), (0, 1, 2), (0, 1, 3)]);
        let c = stars(&g, 10);
        assert_eq!(c.get(sig("010202")), 1);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn two_node_triples_are_subtracted() {
        // All three events on one leaf: a 2-node sequence, not a star.
        let g = graph(&[(0, 1, 1), (0, 1, 2), (1, 0, 3)]);
        let c = stars(&g, 10);
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn three_distinct_leaves_are_excluded() {
        // A 4-node star: no exactly-2-leaf triple exists.
        let g = graph(&[(0, 1, 1), (0, 2, 2), (0, 3, 3)]);
        let c = stars(&g, 10);
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn window_bounds_the_whole_triple() {
        let g = graph(&[(0, 1, 0), (0, 1, 5), (0, 2, 10)]);
        for (delta, expect) in [(10i64, 1u64), (9, 0)] {
            let c = stars(&g, delta);
            assert_eq!(c.total(), expect, "ΔW={delta}");
        }
    }

    #[test]
    fn wedges_by_direction_and_ties() {
        // 0→1 then 2→0 share only node 0: (0,1),(2,0) canonicalize to
        // "0120". A tie at t=1 contributes nothing.
        let g = graph(&[(0, 1, 1), (2, 0, 1), (2, 0, 3)]);
        let c = pass(&g, 5, 2, (false, true));
        assert_eq!(c.get(sig("0120")), 1);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn ping_pong_triples() {
        // 0→1 at 1, 1→0 at 2, 0→1 at 4. Within ΔW = 3 the only triple
        // is (1, 2, 4) = 011001. The pairs (1, 2) and (2, 4) are both
        // 0110, and (1, 4) is 0101.
        let g = graph(&[(0, 1, 1), (1, 0, 2), (0, 1, 4)]);
        let c3 = two_node(&g, 3, 3);
        assert_eq!(c3.get(sig("011001")), 1);
        assert_eq!(c3.total(), 1);
        let c2 = two_node(&g, 3, 2);
        assert_eq!(c2.get(sig("0110")), 2);
        assert_eq!(c2.get(sig("0101")), 1);
    }

    #[test]
    fn window_excludes_wide_spans() {
        let g = graph(&[(0, 1, 0), (0, 1, 10), (0, 1, 20)]);
        let c = two_node(&g, 20, 3);
        assert_eq!(c.get(sig("010101")), 1);
        let c = two_node(&g, 19, 3);
        assert!(c.is_empty());
        let c = two_node(&g, 10, 2);
        assert_eq!(c.get(sig("0101")), 2);
    }

    #[test]
    fn reverse_only_edge_is_still_visited() {
        // Only the hi→lo direction exists: the pair must be counted
        // exactly once, from its lower-id endpoint.
        let g = graph(&[(5, 2, 1), (5, 2, 2)]);
        let c = two_node(&g, 5, 2);
        assert_eq!(c.get(sig("0101")), 1);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn ties_processed_as_groups() {
        let g = graph(&[(0, 1, 1), (1, 0, 1), (0, 1, 2), (1, 0, 2)]);
        let c = two_node(&g, 5, 2);
        // Cross-group pairs only: (1a,2a)=0101, (1a,2b)=0110,
        // (1b,2a)=0110, (1b,2b)=0101.
        assert_eq!(c.get(sig("0101")), 2);
        assert_eq!(c.get(sig("0110")), 2);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn dense_and_sealed_groups_agree() {
        // A dense tie-free ping-pong history: both group maps are legal,
        // so every sweep must produce identical tables at several ΔW.
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
        let mut arena = DpArena::default();
        let mut scratch = CenterScratch::new(2, false);
        for upper_only in [false, true] {
            load(&g, 0, upper_only, &mut arena);
            arena.seal_groups();
            let dense = DenseGroups(arena.times.len());
            let sealed = SealedGroups(&arena.bounds);
            for delta in [0, 3, 25, 10_000] {
                let stars = !upper_only;
                let (mut a, mut b) = (Tables::default(), Tables::default());
                center_triples(&mut scratch, &arena, 0, delta, stars, &dense, &mut a);
                center_triples(&mut scratch, &arena, 0, delta, stars, &sealed, &mut b);
                assert_eq!(a, b, "three-event tables at ΔW={delta}, stars={stars}");
                let (mut a, mut b) = (([0; 4], [[0; 4]; 2]), ([0; 4], [[0; 4]; 2]));
                wedge_sweep::<true, _>(
                    &mut scratch,
                    &arena,
                    0,
                    delta,
                    &dense,
                    (&mut a.0, &mut a.1),
                );
                wedge_sweep::<true, _>(
                    &mut scratch,
                    &arena,
                    0,
                    delta,
                    &sealed,
                    (&mut b.0, &mut b.1),
                );
                assert_eq!(a, b, "two-event counts at ΔW={delta}");
            }
        }
    }

    #[test]
    fn arena_reuse_across_pairs_is_clean() {
        // Two disjoint pairs with different list lengths: the second
        // sweep must not see residue from the first.
        let g = graph(&[(0, 1, 1), (0, 1, 2), (0, 1, 3), (2, 3, 1), (3, 2, 2)]);
        let c = two_node(&g, 10, 2);
        assert_eq!(c.get(sig("0101")), 3);
        assert_eq!(c.get(sig("0110")), 1);
        assert_eq!(c.total(), 4);
    }
}
