//! The shared backtracking walker, generic over candidate generation.
//!
//! Every engine drives the same depth-first walk over time-ordered,
//! single-component event sequences: what varies is only **where the
//! candidate events come from** at each extension step. That seam is the
//! [`CandidateSource`] trait; [`WindowedCandidates`] walks the graph's
//! [`WindowIndex`] with cursors it keeps per depth, so a step costs the
//! candidates it returns plus cursor moves that only go forward. (The
//! tests check it on every step against a stateless search of the plain
//! node index.) Keeping the walk itself shared is what makes the engines
//! provably equivalent: the emission filters, signature
//! canonicalisation, and ordering rules are one piece of code.
//!
//! Correctness relies on three facts:
//!
//! * instances are *sets* of events visited in strictly increasing time
//!   order, so each set is enumerated exactly once;
//! * events with equal timestamps never co-occur in a motif (the paper's
//!   total-ordering rule), enforced by strict `>` on timestamps;
//! * candidate events are drawn from the node set of the partial motif,
//!   which is exactly the "grows as a single component" rule.

use crate::consecutive::{consecutive_ok, ConsecutiveScratch};
use crate::constrained::constrained_ok;
use crate::engine::config::{EnumConfig, MotifInstance};
use crate::induced::static_induced_ok;
use crate::notation::MotifSignature;
use tnm_graph::window_index::WindowIndex;
use tnm_graph::{EventIdx, NodeId, TemporalGraph, Time};

/// Supplies the candidate events adjacent to the current node set with
/// time in `(t, bound]`, where `t` is the time of the event the walk
/// pushed last. Implementations must append **every** qualifying event
/// exactly once, **sorted ascending by event index** — the walker
/// consumes the list as-is, so engines are interchangeable only because
/// this contract is exact. (Per-node event lists are already
/// index-sorted — events are stored in time order — so sources either
/// sort a concatenation or merge sorted runs.)
///
/// The walker calls `gather` once per extension step, in walk order: at
/// `depth` (the number of events pushed so far, at least 1) after
/// pushing `pushed`, with `nodes` the walk's digits (a digit's node
/// never changes while events holding it stay pushed). Sibling steps at
/// one depth arrive in ascending `pushed` order. A source may keep state
/// across calls on that basis; a stateless one may ignore `depth`.
pub trait CandidateSource {
    /// Appends candidates for the nodes in `nodes` to `out`, sorted and
    /// deduplicated.
    fn gather(
        &mut self,
        graph: &TemporalGraph,
        nodes: &[NodeId],
        depth: usize,
        pushed: EventIdx,
        bound: Option<Time>,
        out: &mut Vec<EventIdx>,
    );
}

/// Candidate generation over a graph's [`WindowIndex`] with a cursor per
/// depth and digit, and no search.
///
/// Digit `i`'s cursor at depth `d` is where its window starts: the first
/// position in its span with time after the last pushed event. After the
/// walker pushes event `c` at time `t`:
///
/// * each endpoint of `c` starts at its [`WindowIndex::slots`] entry
///   plus one (everything before `c` in its list is no later than `t`)
///   and skips the ties at `t`;
/// * every other digit moves its cursor forward from where the previous
///   sibling step at this depth left it — or, for the first sibling,
///   from the parent depth's cursor — while times are `≤ t`. Siblings
///   arrive in ascending time, so those moves add up to at most the
///   parent step's candidates.
///
/// Each run then extends by a linear scan while times are `≤ bound`,
/// which touches exactly the events it returns, and the runs are k-way
/// merged (k = current motif nodes) with inline deduplication. A step
/// thus costs `O(candidates · k)` plus the cursor moves.
#[derive(Debug, Clone)]
pub struct WindowedCandidates<'ix> {
    index: WindowIndex<'ix>,
    /// `lo[d]` holds the cursors of the digits present at depth `d - 1`
    /// (none at depth 1, where both digits are the first event's
    /// endpoints); filled by the step at depth `d - 1`, advanced by each
    /// sibling step at depth `d`.
    lo: Vec<Cursors>,
}

/// One depth's cursors, `at[..len]`: positions in the index's flat
/// arrays, one per digit. A digit past [`MAX_RUNS`] keeps no cursor and
/// scans from the start of its span.
#[derive(Debug, Clone, Copy, Default)]
struct Cursors {
    len: usize,
    at: [u32; MAX_RUNS],
}

impl<'ix> WindowedCandidates<'ix> {
    /// Wraps a graph's index. The cursors are per walk: create one
    /// source per walker (the index itself is shared).
    pub fn new(index: WindowIndex<'ix>) -> Self {
        WindowedCandidates { index, lo: Vec::new() }
    }
}

impl CandidateSource for WindowedCandidates<'_> {
    fn gather(
        &mut self,
        graph: &TemporalGraph,
        nodes: &[NodeId],
        depth: usize,
        pushed: EventIdx,
        bound: Option<Time>,
        out: &mut Vec<EventIdx>,
    ) {
        if self.lo.len() < depth + 2 {
            self.lo.resize(depth + 2, Cursors::default());
        }
        let (upper, lower) = self.lo.split_at_mut(depth + 1);
        let carried = &mut upper[depth];
        let next = &mut lower[0];
        next.len = nodes.len().min(MAX_RUNS);
        let ids = self.index.event_ids();
        let times = self.index.times();
        let e = graph.event(pushed);
        let [src_slot, dst_slot] = self.index.slots(pushed);
        let t_last = times[src_slot as usize];
        // A fixed-size run table keeps the merge allocation-free.
        let mut runs = [[].as_slice(); MAX_RUNS];
        let mut k = 0;
        let mut spilled = false;
        for (i, &node) in nodes.iter().enumerate() {
            let span = self.index.span(node);
            let mut p = if i < carried.len { carried.at[i] as usize } else { span.start };
            if node == e.src {
                p = p.max(src_slot as usize + 1);
            } else if node == e.dst {
                p = p.max(dst_slot as usize + 1);
            }
            let end = span.end;
            while p < end && times[p] <= t_last {
                p += 1;
            }
            if i < carried.len {
                carried.at[i] = p as u32;
            }
            if i < MAX_RUNS {
                next.at[i] = p as u32;
            }
            let mut q = p;
            match bound {
                Some(b) => {
                    while q < end && times[q] <= b {
                        q += 1;
                    }
                }
                None => q = end,
            }
            if q == p {
                continue;
            }
            if k == MAX_RUNS {
                // Digit-pair signatures cap motifs at 10 nodes, so this
                // is unreachable from any paper config; stay correct
                // anyway.
                out.extend_from_slice(&ids[p..q]);
                spilled = true;
            } else {
                runs[k] = &ids[p..q];
                k += 1;
            }
        }
        if spilled {
            runs[..k].iter().for_each(|r| out.extend_from_slice(r));
            out.sort_unstable();
            out.dedup();
        } else {
            merge_sorted_runs(&mut runs[..k], out);
        }
    }
}

/// Upper bound on simultaneously merged runs (motif node budget; the
/// digit-pair notation itself caps signatures at ≤ 10 nodes).
const MAX_RUNS: usize = 10;

/// Merges ascending runs into `out`, deduplicating across runs. Each
/// event index appears in at most two runs (its endpoints), and runs are
/// few and short, so the simple head-scan merge beats both a heap and a
/// concat-sort.
fn merge_sorted_runs(runs: &mut [&[EventIdx]], out: &mut Vec<EventIdx>) {
    match runs {
        [] => {}
        [only] => out.extend_from_slice(only),
        [a, b] => {
            // Two-pointer fast path: the overwhelmingly common case
            // (most walks hold 2–3 digits; one run is often empty).
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                let (x, y) = (a[i], b[j]);
                match x.cmp(&y) {
                    std::cmp::Ordering::Less => {
                        out.push(x);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        out.push(y);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        out.push(x);
                        i += 1;
                        j += 1;
                    }
                }
            }
            out.extend_from_slice(&a[i..]);
            out.extend_from_slice(&b[j..]);
        }
        runs => loop {
            let mut min: Option<EventIdx> = None;
            for r in runs.iter() {
                if let Some(&head) = r.first() {
                    min = Some(min.map_or(head, |m: EventIdx| m.min(head)));
                }
            }
            let Some(min) = min else { break };
            out.push(min);
            for r in runs.iter_mut() {
                if r.first() == Some(&min) {
                    *r = &r[1..];
                }
            }
        },
    }
}

/// Union-of-targets signature prefix filter for batch walks.
///
/// [`EnumConfig::signature_filter`] prunes a walk to one target's pair
/// prefix; a batch group of targeted configs shares one walk, so the
/// walk must keep any partial sequence that is a prefix of *at least
/// one* member's target. The filter tracks, per depth, the set of
/// targets whose first `depth` pairs match the current partial sequence
/// (a bitmask over targets); a push is rejected as soon as that set
/// empties. Backtracking needs no undo — level `d + 1` is recomputed
/// from level `d` on every push.
#[derive(Debug, Clone)]
pub struct PrefixFilter {
    targets: Vec<Vec<(u8, u8)>>,
    /// `alive[d]` = bitmask (64-bit words) of targets whose first `d`
    /// pairs match the current partial sequence; `alive[0]` = all.
    alive: Vec<Vec<u64>>,
}

impl PrefixFilter {
    /// Builds a filter over the union of `targets` for a walk of
    /// `num_events` events. Returns `None` when the list is empty or any
    /// target's length differs from the walk depth (such a config can
    /// never emit and must not prune its group-mates).
    pub fn new<'a>(
        targets: impl IntoIterator<Item = &'a MotifSignature>,
        num_events: usize,
    ) -> Option<Self> {
        let targets: Vec<Vec<(u8, u8)>> = targets.into_iter().map(|t| t.pairs().to_vec()).collect();
        if targets.is_empty() || targets.iter().any(|t| t.len() != num_events) {
            return None;
        }
        let words = targets.len().div_ceil(64);
        let mut alive = vec![vec![0u64; words]; num_events + 1];
        for i in 0..targets.len() {
            alive[0][i / 64] |= 1 << (i % 64);
        }
        Some(PrefixFilter { targets, alive })
    }

    /// Filters the push of `pair` at `depth`: recomputes level
    /// `depth + 1` from level `depth` and reports whether any target
    /// still matches.
    fn advance(&mut self, depth: usize, pair: (u8, u8)) -> bool {
        let (lo, hi) = self.alive.split_at_mut(depth + 1);
        let prev = &lo[depth];
        let next = &mut hi[0];
        next.iter_mut().for_each(|w| *w = 0);
        let mut any = false;
        for (ti, t) in self.targets.iter().enumerate() {
            if prev[ti / 64] >> (ti % 64) & 1 == 1 && t[depth] == pair {
                next[ti / 64] |= 1 << (ti % 64);
                any = true;
            }
        }
        any
    }
}

/// One depth-first enumeration state machine. Reusable across start
/// ranges; create one per worker thread.
pub struct Walker<'g, C: CandidateSource> {
    graph: &'g TemporalGraph,
    cfg: &'g EnumConfig,
    source: C,
    prefix: Option<PrefixFilter>,
    seq: Vec<EventIdx>,
    digits: Vec<NodeId>,
    pairs: Vec<(u8, u8)>,
    cand_bufs: Vec<Vec<EventIdx>>,
    scratch: ConsecutiveScratch,
    /// `tnm_obs::enabled()` captured at construction: per-candidate
    /// instrumentation is one branch on a plain bool, and the tallies
    /// below stay thread-local until [`Drop`] flushes them to the
    /// global registry (`engine.events_scanned` /
    /// `engine.candidates_pruned` / `engine.instances_emitted`).
    obs: bool,
    scanned: u64,
    pruned: u64,
    emitted: u64,
}

impl<'g, C: CandidateSource> Walker<'g, C> {
    /// Builds a walker for one `(graph, config)` pair.
    pub fn new(graph: &'g TemporalGraph, cfg: &'g EnumConfig, source: C) -> Self {
        let k = cfg.num_events;
        Walker {
            graph,
            cfg,
            source,
            prefix: None,
            seq: Vec::with_capacity(k),
            digits: Vec::with_capacity(cfg.max_nodes),
            pairs: Vec::with_capacity(k),
            cand_bufs: (0..k).map(|_| Vec::new()).collect(),
            scratch: ConsecutiveScratch::new(),
            obs: tnm_obs::enabled(),
            scanned: 0,
            pruned: 0,
            emitted: 0,
        }
    }

    /// Attaches a union-of-targets [`PrefixFilter`] (chainable). Used by
    /// the batch executor when every group member targets a signature —
    /// the shared walk then prunes to the union of their pair prefixes.
    pub fn with_prefix_filter(mut self, filter: PrefixFilter) -> Self {
        self.prefix = Some(filter);
        self
    }

    /// Appends `node` as a fresh digit, returning it.
    #[inline]
    fn fresh_digit(&mut self, node: NodeId) -> u8 {
        self.digits.push(node);
        (self.digits.len() - 1) as u8
    }

    /// Attempts to push `idx`; returns how many fresh digits were added
    /// (`None` if rejected by node budget or the signature filter).
    fn try_push(&mut self, idx: EventIdx) -> Option<usize> {
        let e = self.graph.event(idx);
        // One scan of the digit list resolves both endpoints; the hits
        // are reused for the node-budget check and the digit mapping
        // (self-loops cannot occur, so the endpoints are distinct and a
        // fresh src never shadows the dst lookup).
        let mut src_digit = None;
        let mut dst_digit = None;
        for (i, &n) in self.digits.iter().enumerate() {
            if n == e.src {
                src_digit = Some(i as u8);
            } else if n == e.dst {
                dst_digit = Some(i as u8);
            }
        }
        let new_needed = src_digit.is_none() as usize + dst_digit.is_none() as usize;
        if self.digits.len() + new_needed > self.cfg.max_nodes {
            return None;
        }
        let depth = self.seq.len();
        let a = src_digit.unwrap_or_else(|| self.fresh_digit(e.src));
        let b = dst_digit.unwrap_or_else(|| self.fresh_digit(e.dst));
        let added = new_needed;
        if let Some(target) = &self.cfg.signature_filter {
            if target.pairs()[depth] != (a, b) {
                self.digits.truncate(self.digits.len() - added);
                return None;
            }
        }
        if let Some(prefix) = &mut self.prefix {
            if !prefix.advance(depth, (a, b)) {
                self.digits.truncate(self.digits.len() - added);
                return None;
            }
        }
        self.pairs.push((a, b));
        self.seq.push(idx);
        Some(added)
    }

    fn pop(&mut self, added: usize) {
        self.seq.pop();
        self.pairs.pop();
        self.digits.truncate(self.digits.len() - added);
    }

    fn descend<F: FnMut(&MotifInstance<'_>)>(&mut self, emit: &mut F) {
        if self.seq.len() == self.cfg.num_events {
            self.try_emit(emit);
            return;
        }
        let first = self.graph.event(self.seq[0]);
        let pushed = *self.seq.last().expect("non-empty seq");
        let last = self.graph.event(pushed);
        let t_last = last.time;
        let c_base = if self.cfg.duration_aware { last.end_time() } else { last.time };
        let bound: Option<Time> = match (self.cfg.timing.delta_c, self.cfg.timing.delta_w) {
            (Some(c), Some(w)) => Some((c_base + c).min(first.time + w)),
            (Some(c), None) => Some(c_base + c),
            (None, Some(w)) => Some(first.time + w),
            (None, None) => None,
        };
        if let Some(b) = bound {
            if b <= t_last {
                return; // no strictly-later event can qualify
            }
        }
        // Gather candidate events adjacent to the current node set with
        // time in (t_last, bound]; the source returns them sorted and
        // deduplicated (see the `CandidateSource` contract).
        let depth = self.seq.len();
        let mut cands = std::mem::take(&mut self.cand_bufs[depth]);
        cands.clear();
        self.source.gather(self.graph, &self.digits, depth, pushed, bound, &mut cands);
        debug_assert!(cands.windows(2).all(|w| w[0] < w[1]), "candidates sorted+deduped");
        let mut pos = 0;
        while pos < cands.len() {
            let idx = cands[pos];
            if self.obs {
                self.scanned += 1;
            }
            if let Some(added) = self.try_push(idx) {
                self.descend(emit);
                self.pop(added);
            } else if self.obs {
                self.pruned += 1;
            }
            pos += 1;
        }
        self.cand_bufs[depth] = cands;
    }

    fn try_emit<F: FnMut(&MotifInstance<'_>)>(&mut self, emit: &mut F) {
        if self.digits.len() < self.cfg.min_nodes {
            return;
        }
        if self.cfg.consecutive_events && !consecutive_ok(self.graph, &self.seq, &mut self.scratch)
        {
            return;
        }
        if self.cfg.constrained_dynamic && !constrained_ok(self.graph, &self.seq) {
            return;
        }
        if self.cfg.static_induced && !static_induced_ok(self.graph, &self.seq) {
            return;
        }
        let signature =
            MotifSignature::from_pairs(&self.pairs).expect("walker builds canonical pairs");
        let inst = MotifInstance { events: &self.seq, signature };
        emit(&inst);
        if self.obs {
            self.emitted += 1;
        }
    }

    /// Walks every instance whose first event index lies in `start_range`.
    pub fn run_range<F: FnMut(&MotifInstance<'_>)>(
        &mut self,
        start_range: std::ops::Range<usize>,
        mut emit: F,
    ) {
        self.run_range_by_ref(start_range, &mut emit);
    }

    /// `run_range` taking the callback by reference (dyn-friendly).
    pub fn run_range_by_ref<F: FnMut(&MotifInstance<'_>) + ?Sized>(
        &mut self,
        start_range: std::ops::Range<usize>,
        emit: &mut F,
    ) {
        for start in start_range {
            debug_assert!(self.seq.is_empty() && self.digits.is_empty());
            if self.obs {
                self.scanned += 1;
            }
            if let Some(added) = self.try_push(start as EventIdx) {
                self.descend(&mut |inst| emit(inst));
                self.pop(added);
            } else if self.obs {
                self.pruned += 1;
            }
        }
    }
}

impl<C: CandidateSource> Drop for Walker<'_, C> {
    fn drop(&mut self) {
        // Flush the thread-local tallies in one registry round-trip per
        // walker lifetime — never per event.
        if self.obs && (self.scanned | self.pruned | self.emitted) != 0 {
            let reg = tnm_obs::global();
            reg.counter("engine.events_scanned").add(self.scanned);
            reg.counter("engine.candidates_pruned").add(self.pruned);
            reg.counter("engine.instances_emitted").add(self.emitted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Timing;
    use crate::models::MotifModel;
    use tnm_graph::shard::{materialize, plan_shards, ShardGoal};
    use tnm_graph::{Event, TemporalGraphBuilder};

    /// Candidate generation over [`TemporalGraph`]'s plain node index: one
    /// `partition_point` for the lower bound, then a linear scan until the
    /// upper bound breaks, then a sort + dedup of the concatenation. It
    /// keeps no state between steps, which makes it the independent check
    /// on [`WindowedCandidates`].
    struct NodeListCandidates;

    impl CandidateSource for NodeListCandidates {
        fn gather(
            &mut self,
            graph: &TemporalGraph,
            nodes: &[NodeId],
            _depth: usize,
            pushed: EventIdx,
            bound: Option<Time>,
            out: &mut Vec<EventIdx>,
        ) {
            let times = graph.times();
            let t_last = times[pushed as usize];
            for &node in nodes {
                let list = graph.node_events(node);
                let start = list.partition_point(|&i| times[i as usize] <= t_last);
                for &i in &list[start..] {
                    if let Some(b) = bound {
                        if times[i as usize] > b {
                            break;
                        }
                    }
                    out.push(i);
                }
            }
            out.sort_unstable();
            out.dedup();
        }
    }

    /// Runs the cursor source and the stateless node-list search on every
    /// step and fails on the first step where they differ.
    struct Checked<'ix> {
        cursor: WindowedCandidates<'ix>,
        steps: usize,
        scratch: Vec<EventIdx>,
    }

    impl CandidateSource for Checked<'_> {
        fn gather(
            &mut self,
            graph: &TemporalGraph,
            nodes: &[NodeId],
            depth: usize,
            pushed: EventIdx,
            bound: Option<Time>,
            out: &mut Vec<EventIdx>,
        ) {
            self.scratch.clear();
            NodeListCandidates.gather(graph, nodes, depth, pushed, bound, &mut self.scratch);
            self.cursor.gather(graph, nodes, depth, pushed, bound, out);
            assert_eq!(
                *out, self.scratch,
                "depth {depth}, pushed {pushed}, nodes {nodes:?}, bound {bound:?}"
            );
            self.steps += 1;
        }
    }

    /// SplitMix64: a seeded stream for the graph generator.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `m` events on 10 nodes: node 0 is a hub on about half of them,
    /// a third of the steps keep the previous timestamp (tie runs), a
    /// quarter repeat the previous edge (parallel edges), and every
    /// event has a duration of 0–4.
    fn seeded_graph(seed: u64, m: usize) -> TemporalGraph {
        let mut s = seed;
        let mut b = TemporalGraphBuilder::new();
        let (mut t, mut prev) = (0, (0u32, 1u32));
        for _ in 0..m {
            t += match next(&mut s) % 3 {
                0 => 0,
                _ => (next(&mut s) % 4) as Time,
            };
            let (src, dst) = if next(&mut s).is_multiple_of(4) {
                prev
            } else {
                let a = if next(&mut s).is_multiple_of(2) { 0 } else { (next(&mut s) % 10) as u32 };
                let b = (a + 1 + (next(&mut s) % 9) as u32) % 10;
                if next(&mut s).is_multiple_of(2) {
                    (a, b)
                } else {
                    (b, a)
                }
            };
            prev = (src, dst);
            b.push(Event::with_duration(src, dst, t, (next(&mut s) % 5) as u32));
        }
        b.build().unwrap()
    }

    /// Every timing shape, duration-aware ΔC, and the four models.
    fn configs(unbounded: bool) -> Vec<EnumConfig> {
        let mut cfgs = vec![];
        for (e, n) in [(3, 3), (3, 4), (4, 4)] {
            let base = EnumConfig::new(e, n);
            cfgs.push(base.clone().with_timing(Timing::only_c(3)));
            cfgs.push(base.clone().with_timing(Timing::only_w(6)));
            cfgs.push(base.clone().with_timing(Timing::both(2, 5)));
            let mut aware = base.clone().with_timing(Timing::only_c(2));
            aware.duration_aware = true;
            cfgs.push(aware);
            if unbounded {
                cfgs.push(base.with_timing(Timing::UNBOUNDED));
            }
        }
        for model in MotifModel::all_four(3, 6) {
            cfgs.push(EnumConfig::for_model(&model, 3, 3));
        }
        cfgs
    }

    /// Walks from each of `starts`, in that order, on one walker with the
    /// checked source; returns the number of steps checked.
    fn walk_checked(graph: &TemporalGraph, cfg: &EnumConfig, starts: &[usize]) -> usize {
        let cursor = WindowedCandidates::new(graph.window_index());
        let mut walker = Walker::new(graph, cfg, Checked { cursor, steps: 0, scratch: vec![] });
        for &s in starts {
            walker.run_range(s..s + 1, |_| {});
        }
        walker.source.steps
    }

    #[test]
    fn cursor_gather_matches_node_list_search_on_every_step() {
        for seed in 1..=4 {
            let g = seeded_graph(seed, 300);
            let all: Vec<usize> = (0..g.num_events()).collect();
            for cfg in configs(false) {
                assert!(walk_checked(&g, &cfg, &all) > 100, "{cfg:?} walked too little");
            }
        }
    }

    #[test]
    fn cursor_gather_matches_with_unbounded_timing() {
        let g = seeded_graph(7, 60);
        let all: Vec<usize> = (0..g.num_events()).collect();
        for cfg in configs(true) {
            assert!(walk_checked(&g, &cfg, &all) > 50, "{cfg:?} walked too little");
        }
    }

    /// The sampling engine starts walks at arbitrary event indices and
    /// reuses one walker across them; cursors must not leak between
    /// starts.
    #[test]
    fn cursor_gather_matches_from_arbitrary_starts() {
        let g = seeded_graph(11, 300);
        let m = g.num_events() as u64;
        let mut s = 99;
        let starts: Vec<usize> = (0..120).map(|_| (next(&mut s) % m) as usize).collect();
        let descending: Vec<usize> = (0..g.num_events()).rev().collect();
        for cfg in configs(false) {
            assert!(walk_checked(&g, &cfg, &starts) > 0);
            assert!(walk_checked(&g, &cfg, &descending) > 0);
        }
    }

    /// A shard slice keeps the parent's node-id space, so many nodes have
    /// empty spans.
    #[test]
    fn cursor_gather_matches_on_a_shard_slice() {
        let g = seeded_graph(5, 400);
        let plan = plan_shards(&g, Some(6), ShardGoal::ShardCount(3));
        assert!(plan.shards.len() > 1);
        let mut steps = 0;
        for spec in &plan.shards {
            let shard = materialize(&g, spec);
            let own: Vec<usize> = shard.own_local().collect();
            for cfg in configs(false) {
                steps += walk_checked(shard.graph(), &cfg, &own);
            }
        }
        assert!(steps > 100);
    }
}
