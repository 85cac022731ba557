//! The shared backtracking walker, generic over candidate generation.
//!
//! Every engine drives the same depth-first walk over time-ordered,
//! single-component event sequences: what varies is only **where the
//! candidate events come from** at each extension step. That seam is the
//! [`CandidateSource`] trait — [`NodeListCandidates`] scans the graph's
//! plain node index (the original behaviour), while
//! [`WindowedCandidates`] answers the same query from the graph's
//! [`WindowIndex`] with binary searches on inline timestamps. Keeping the
//! walk itself shared is what makes the engines provably equivalent: the
//! emission filters, signature canonicalisation, and ordering rules are
//! one piece of code.
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
/// time in `(t_last, bound]`. Implementations must append **every**
/// qualifying event exactly once, **sorted ascending by event index** —
/// the walker consumes the list as-is, so engines are interchangeable
/// only because this contract is exact. (Per-node event lists are
/// already index-sorted — events are stored in time order — so sources
/// either sort a concatenation or merge sorted runs.)
pub trait CandidateSource {
    /// Appends candidates for each node in `nodes` to `out`, sorted and
    /// deduplicated.
    fn gather(
        &self,
        graph: &TemporalGraph,
        nodes: &[NodeId],
        t_last: Time,
        bound: Option<Time>,
        out: &mut Vec<EventIdx>,
    );
}

/// Candidate generation over [`TemporalGraph`]'s plain node index: one
/// `partition_point` for the lower bound, then a linear scan until the
/// upper bound breaks, then a sort + dedup of the concatenation. This is
/// the seed repo's original strategy, with the per-probe time checks
/// resolved against the dense SoA time column (8-byte rows) instead of
/// chasing `events[i].time` through 24-byte structs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeListCandidates;

impl CandidateSource for NodeListCandidates {
    fn gather(
        &self,
        graph: &TemporalGraph,
        nodes: &[NodeId],
        t_last: Time,
        bound: Option<Time>,
        out: &mut Vec<EventIdx>,
    ) {
        let times = graph.times();
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

/// Candidate generation over a graph's [`WindowIndex`]: both window
/// endpoints resolve with binary searches on dense inline timestamps,
/// each node answers with a ready-made **sorted run** of event indices,
/// and the runs are k-way merged (k = current motif nodes, ≤ 4) with
/// inline deduplication — replacing the `O(c log c)` per-descend sort of
/// the node-list strategy with an `O(c·k)` merge.
#[derive(Debug, Clone, Copy)]
pub struct WindowedCandidates<'ix> {
    index: WindowIndex<'ix>,
}

impl<'ix> WindowedCandidates<'ix> {
    /// Wraps a graph's index (shareable across worker threads).
    pub fn new(index: WindowIndex<'ix>) -> Self {
        WindowedCandidates { index }
    }
}

impl CandidateSource for WindowedCandidates<'_> {
    fn gather(
        &self,
        _graph: &TemporalGraph,
        nodes: &[NodeId],
        t_last: Time,
        bound: Option<Time>,
        out: &mut Vec<EventIdx>,
    ) {
        if nodes.len() > MAX_RUNS {
            // Digit-pair signatures cap motifs at 10 nodes, so this is
            // unreachable from any paper config; stay correct anyway.
            for &node in nodes {
                out.extend_from_slice(self.index.events_in(node, t_last, bound));
            }
            out.sort_unstable();
            out.dedup();
            return;
        }
        // A fixed-size run table keeps the merge allocation-free.
        let mut runs = [[].as_slice(); MAX_RUNS];
        let mut k = 0;
        for &node in nodes {
            let run = self.index.events_in(node, t_last, bound);
            if !run.is_empty() {
                runs[k] = run;
                k += 1;
            }
        }
        merge_sorted_runs(&mut runs[..k], out);
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
        let last = self.graph.event(*self.seq.last().expect("non-empty seq"));
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
        self.source.gather(self.graph, &self.digits, t_last, bound, &mut cands);
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
