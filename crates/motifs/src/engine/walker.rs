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
//!
//! Each model restriction is applied where it is cheapest to decide:
//!
//! * **node budget** — once the walk holds `max_nodes` digits, the source
//!   returns only events with both endpoints among them (an event in two
//!   of the digits' runs); below the budget the walker rejects
//!   an event that would add one node too many;
//! * **Kovanen's consecutive events** — a digit can only continue with
//!   the event right after its last motif event in its own list, so the
//!   source offers at most one candidate per digit, and only events that
//!   share their timestamp with no other event of either endpoint
//!   (checked for the first event in `try_push`);
//! * **static inducedness** — checked at emission against a per-walk
//!   memo of `has_edge` over ordered digit pairs, read from the walker's
//!   static graph (its own graph, or the parent of a shard slice);
//! * **constrained dynamic graphlets** — checked at emission.

use crate::constrained::constrained_ok;
use crate::engine::config::{EnumConfig, MotifInstance};
use crate::induced::induced_cover_ok;
use crate::notation::{MotifSignature, MAX_EVENTS};
use tnm_graph::window_index::WindowIndex;
use tnm_graph::{Edge, EventIdx, NodeId, TemporalGraph, Time};

/// Supplies the candidate events for the next step of a walk. A
/// *qualifying* event
///
/// * touches a node in `nodes` and has time in `(t, bound]`, where `t`
///   is the time of the event the walk pushed last (`seq`'s last);
/// * has both endpoints in `nodes` when `nodes.len()` has reached
///   `cfg.max_nodes`;
/// * under `cfg.consecutive_events`, is the next event, in the node's
///   own time-ordered list, after the last event of `seq` on each of its
///   endpoints that is in `nodes`, and shares its timestamp with no
///   other event of either endpoint.
///
/// Implementations must append **every** qualifying event exactly once,
/// **sorted ascending by event index** — the walker consumes the list
/// as-is, so engines are interchangeable only because this contract is
/// exact. (Per-node event lists are already index-sorted — events are
/// stored in time order — so sources either sort a concatenation or
/// merge sorted runs.)
///
/// The walker calls `gather` once per extension step, in walk order,
/// with `seq` the events pushed so far (at least one) and `nodes` the
/// walk's digits (a digit's node never changes while events holding it
/// stay pushed). Sibling steps at one depth (`seq.len()`) arrive in
/// ascending order of their last event. A source may keep state across
/// calls on that basis; a stateless one may ignore it.
pub trait CandidateSource {
    /// Appends the qualifying candidates to `out`, sorted and
    /// deduplicated.
    fn gather(
        &mut self,
        graph: &TemporalGraph,
        cfg: &EnumConfig,
        nodes: &[NodeId],
        seq: &[EventIdx],
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
/// merged (k = current motif nodes) with inline deduplication. At the
/// node budget the merge keeps only the events found in two runs. A step
/// thus costs `O(candidates · k)` plus the cursor moves.
///
/// Under the consecutive-events restriction a digit's cursor instead
/// stays at the slot after its last motif event, and that slot is the
/// digit's only candidate: a step costs `O(k)`.
#[derive(Debug, Clone)]
pub struct WindowedCandidates<'ix> {
    index: WindowIndex<'ix>,
    /// `lo[d]` holds the cursors of the digits present at depth `d - 1`
    /// (none at depth 1, where both digits are the first event's
    /// endpoints); filled by the step at depth `d - 1`, advanced by each
    /// sibling step at depth `d` (left as filled under the
    /// consecutive-events restriction).
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
        cfg: &EnumConfig,
        nodes: &[NodeId],
        seq: &[EventIdx],
        bound: Option<Time>,
        out: &mut Vec<EventIdx>,
    ) {
        let depth = seq.len();
        if self.lo.len() < depth + 2 {
            self.lo.resize(depth + 2, Cursors::default());
        }
        let (upper, lower) = self.lo.split_at_mut(depth + 1);
        let carried = &mut upper[depth];
        let next = &mut lower[0];
        next.len = nodes.len().min(MAX_RUNS);
        let full = nodes.len() >= cfg.max_nodes;
        if cfg.consecutive_events {
            let pushed = seq[depth - 1];
            Step { index: self.index, graph, nodes, pushed, carried }
                .consecutive(full, bound, next, out);
            return;
        }
        let ids = self.index.event_ids();
        let times = self.index.times();
        let pushed = seq[depth - 1];
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
                // anyway (the walker enforces the node budget itself).
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
            merge_sorted_runs(&mut runs[..k], full, out);
        }
    }
}

/// One consecutive-events step of [`WindowedCandidates`]: the walk
/// state the step reads.
struct Step<'a, 'ix> {
    index: WindowIndex<'ix>,
    graph: &'a TemporalGraph,
    nodes: &'a [NodeId],
    /// The event the walk pushed last.
    pushed: EventIdx,
    /// The parent depth's cursors: digit `i < carried.len` stands at the
    /// slot after its last motif event as of the parent step.
    carried: &'a Cursors,
}

impl Step<'_, '_> {
    /// Appends each digit's one admissible successor: the event at its
    /// cursor (the slot after its last motif event), if it lies in
    /// `(t_last, bound]`, stands at the cursor of its other endpoint too
    /// when that endpoint is a digit (or, below the node budget, is a
    /// fresh node), and has no timestamp tie on either endpoint. Records
    /// every digit's cursor in `next`.
    fn consecutive(
        &self,
        full: bool,
        bound: Option<Time>,
        next: &mut Cursors,
        out: &mut Vec<EventIdx>,
    ) {
        let (ids, times) = (self.index.event_ids(), self.index.times());
        let last = self.graph.event(self.pushed);
        let last_slots = self.index.slots(self.pushed);
        let cursor = |i: usize| -> usize {
            let node = self.nodes[i];
            if node == last.src {
                last_slots[0] as usize + 1
            } else if node == last.dst {
                last_slots[1] as usize + 1
            } else {
                // Every other digit was present at the parent depth.
                self.carried.at[i] as usize
            }
        };
        let bound = bound.unwrap_or(Time::MAX);
        for (i, &node) in self.nodes.iter().enumerate() {
            let p = cursor(i);
            next.at[i] = p as u32;
            let end = self.index.span(node).end;
            if p >= end || times[p] <= last.time || times[p] > bound {
                continue;
            }
            let c = ids[p];
            let e = self.graph.event(c);
            let slots = self.index.slots(c);
            let (other, other_slot) =
                if e.src == node { (e.dst, slots[1]) } else { (e.src, slots[0]) };
            match self.nodes.iter().position(|&n| n == other) {
                // Digit `j < i` already offered (or refused) this event.
                Some(j) if j < i || cursor(j) != other_slot as usize => continue,
                None if full => continue,
                _ => {}
            }
            if sole_at_its_time(self.index, e.src, e.dst, times[p], slots) {
                out.push(c);
            }
        }
        out.sort_unstable();
    }
}

/// Whether neither endpoint of an event at time `t`, sitting at `slots`
/// in `src`'s and `dst`'s spans, has another event at `t` (ties sit next
/// to it in the endpoint's time-ordered span).
fn sole_at_its_time(
    index: WindowIndex<'_>,
    src: NodeId,
    dst: NodeId,
    t: Time,
    slots: [u32; 2],
) -> bool {
    let times = index.times();
    [src, dst].into_iter().zip(slots).all(|(node, slot)| {
        let (span, s) = (index.span(node), slot as usize);
        (s == span.start || times[s - 1] != t) && (s + 1 == span.end || times[s + 1] != t)
    })
}

/// Upper bound on simultaneously merged runs (motif node budget; the
/// digit-pair notation itself caps signatures at ≤ 10 nodes).
const MAX_RUNS: usize = 10;
// A valid config's digits all keep a cursor (`EnumConfig::validate`
// caps motifs at `MAX_EVENTS` events, so at `MAX_EVENTS + 1` nodes).
const _: () = assert!(MAX_EVENTS < MAX_RUNS);

/// Merges ascending runs into `out`, deduplicating across runs; with
/// `shared_only`, keeps only the events found in two runs. Each event
/// index appears in at most two runs (its endpoints), and runs are few
/// and short, so the simple head-scan merge beats both a heap and a
/// concat-sort.
fn merge_sorted_runs(runs: &mut [&[EventIdx]], shared_only: bool, out: &mut Vec<EventIdx>) {
    match runs {
        [] => {}
        [only] => {
            if !shared_only {
                out.extend_from_slice(only)
            }
        }
        [a, b] => {
            // Two-pointer fast path: the overwhelmingly common case
            // (most walks hold 2–3 digits; one run is often empty).
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                let (x, y) = (a[i], b[j]);
                match x.cmp(&y) {
                    std::cmp::Ordering::Less => {
                        if !shared_only {
                            out.push(x);
                        }
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        if !shared_only {
                            out.push(y);
                        }
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        out.push(x);
                        i += 1;
                        j += 1;
                    }
                }
            }
            if !shared_only {
                out.extend_from_slice(&a[i..]);
                out.extend_from_slice(&b[j..]);
            }
        }
        runs => loop {
            let mut min: Option<EventIdx> = None;
            for r in runs.iter() {
                if let Some(&head) = r.first() {
                    min = Some(min.map_or(head, |m: EventIdx| m.min(head)));
                }
            }
            let Some(min) = min else { break };
            let mut hits = 0;
            for r in runs.iter_mut() {
                if r.first() == Some(&min) {
                    *r = &r[1..];
                    hits += 1;
                }
            }
            if hits > 1 || !shared_only {
                out.push(min);
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

/// Digits the static-inducedness memo covers: one bit per ordered pair
/// in a `u64`. Larger motifs fall back to [`induced_cover_ok`].
const INDUCED_MEMO_DIGITS: usize = 8;
/// Memo bits of digit 0's outgoing pairs (`(0, b)`, `b < 8`).
const ROW: u64 = 0xFF;
/// Memo bits of digit 0's incoming pairs (`(a, 0)`, `a < 8`).
const COLUMN: u64 = 0x0101_0101_0101_0101;

/// Memo bits of the ordered pairs `(a, b)`, `a != b`, among digits `0..n`.
fn pairs_among(n: usize) -> u64 {
    let row = (1u64 << n) - 1; // n ≤ 8, so this never shifts by 64
    let square = (0..n).fold(0u64, |m, a| m | row << (8 * a));
    square & !0x8040_2010_0804_0201 // minus the diagonal
}

/// One depth-first enumeration state machine. Reusable across start
/// ranges; create one per worker thread.
pub struct Walker<'g, C: CandidateSource> {
    graph: &'g TemporalGraph,
    /// The graph static inducedness reads edges from: `graph` itself,
    /// or the parent of a shard slice (see [`Walker::with_static_edges`]).
    statics: &'g TemporalGraph,
    cfg: &'g EnumConfig,
    source: C,
    prefix: Option<PrefixFilter>,
    seq: Vec<EventIdx>,
    digits: Vec<NodeId>,
    pairs: Vec<(u8, u8)>,
    cand_bufs: Vec<Vec<EventIdx>>,
    /// The window index, under the consecutive-events restriction: the
    /// first event's timestamp ties are read from its slot column.
    ties: Option<WindowIndex<'g>>,
    /// Static-inducedness memo over ordered digit pairs, bit `8a + b`
    /// for `(a, b)`: `known` marks the pairs looked up since both digits
    /// took their nodes, `edges` those whose static edge exists.
    known: u64,
    edges: u64,
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
            statics: graph,
            cfg,
            source,
            prefix: None,
            seq: Vec::with_capacity(k),
            digits: Vec::with_capacity(cfg.max_nodes),
            pairs: Vec::with_capacity(k),
            cand_bufs: (0..k).map(|_| Vec::new()).collect(),
            ties: cfg.consecutive_events.then(|| graph.window_index()),
            known: 0,
            edges: 0,
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

    /// Reads static edges from `statics` instead of the walked graph
    /// (chainable). A shard slice keeps its parent's node ids but only
    /// some of its events, so its own edge index cannot decide static
    /// inducedness, which asks about the whole timeline; the parent's
    /// can.
    pub fn with_static_edges(mut self, statics: &'g TemporalGraph) -> Self {
        self.statics = statics;
        self
    }

    /// Appends `node` as a fresh digit, returning it, and forgets the
    /// memoised edges of the digit's previous node.
    #[inline]
    fn fresh_digit(&mut self, node: NodeId) -> u8 {
        let d = self.digits.len();
        self.digits.push(node);
        if d < INDUCED_MEMO_DIGITS {
            let stale = (ROW << (8 * d)) | (COLUMN << d);
            self.known &= !stale;
            self.edges &= !stale;
        }
        d as u8
    }

    /// Attempts to push `idx`; returns how many fresh digits were added
    /// (`None` if rejected by the node budget, the first event's
    /// timestamp ties under the consecutive-events restriction, or the
    /// signature filter).
    fn try_push(&mut self, idx: EventIdx) -> Option<usize> {
        let e = self.graph.event(idx);
        if let (Some(index), true) = (self.ties, self.seq.is_empty()) {
            // Later events are vetted by the source (see
            // `CandidateSource`); the first one is vetted here.
            if !sole_at_its_time(index, e.src, e.dst, e.time, index.slots(idx)) {
                return None;
            }
        }
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
        self.source.gather(self.graph, self.cfg, &self.digits, &self.seq, bound, &mut cands);
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
        if self.cfg.constrained_dynamic && !constrained_ok(self.graph, &self.seq) {
            return;
        }
        if self.cfg.static_induced && !self.induced() {
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

    /// Static inducedness of the current instance: no ordered digit pair
    /// outside the pushed `pairs` has a static edge. Lookups are
    /// memoised per digit pair until a digit takes a new node.
    fn induced(&mut self) -> bool {
        let n = self.digits.len();
        if n > INDUCED_MEMO_DIGITS {
            let mut covered = [Edge::new(0u32, 0u32); MAX_EVENTS];
            for (c, &(a, b)) in covered.iter_mut().zip(&self.pairs) {
                *c = Edge { src: self.digits[a as usize], dst: self.digits[b as usize] };
            }
            let covered = &covered[..self.pairs.len()];
            return induced_cover_ok(&self.digits, covered, |edge| self.statics.has_edge(edge));
        }
        let covered = self.pairs.iter().fold(0u64, |m, &(a, b)| m | 1 << (8 * a + b));
        let mut uncovered = pairs_among(n) & !covered;
        if uncovered & self.known & self.edges != 0 {
            return false;
        }
        uncovered &= !self.known;
        while uncovered != 0 {
            let bit = uncovered.trailing_zeros() as usize;
            uncovered &= uncovered - 1;
            self.known |= 1 << bit;
            let edge = Edge { src: self.digits[bit / 8], dst: self.digits[bit % 8] };
            if self.statics.has_edge(edge) {
                self.edges |= 1 << bit;
                return false;
            }
        }
        true
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
    use crate::consecutive::consecutive_ok;
    use crate::constraints::Timing;
    use crate::count::MotifCounts;
    use crate::induced::static_induced_ok;
    use crate::models::MotifModel;
    use tnm_graph::shard::{materialize, plan_shards, ShardGoal};
    use tnm_graph::{Event, TemporalGraphBuilder};

    /// Candidate generation over [`TemporalGraph`]'s plain node index: one
    /// `partition_point` for the lower bound, then a linear scan until the
    /// upper bound breaks, then a sort + dedup of the concatenation. The
    /// node budget and the consecutive-events rule are then applied as
    /// filters, from the node lists and plain time comparisons. It keeps
    /// no state between steps, which makes it the independent check on
    /// [`WindowedCandidates`].
    struct NodeListCandidates;

    impl CandidateSource for NodeListCandidates {
        fn gather(
            &mut self,
            graph: &TemporalGraph,
            cfg: &EnumConfig,
            nodes: &[NodeId],
            seq: &[EventIdx],
            bound: Option<Time>,
            out: &mut Vec<EventIdx>,
        ) {
            let times = graph.times();
            let t_last = times[seq[seq.len() - 1] as usize];
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
            if nodes.len() >= cfg.max_nodes {
                out.retain(|&i| {
                    let e = graph.event(i);
                    nodes.contains(&e.src) && nodes.contains(&e.dst)
                });
            }
            if cfg.consecutive_events {
                out.retain(|&i| {
                    let e = graph.event(i);
                    [e.src, e.dst].into_iter().all(|x| {
                        let list = graph.node_events(x);
                        let ties = list.iter().filter(|&&j| times[j as usize] == e.time).count();
                        let last = seq.iter().rev().find(|&&c| {
                            let c = graph.event(c);
                            c.src == x || c.dst == x
                        });
                        let follows = match last {
                            Some(&last) => {
                                let pos = list.iter().position(|&j| j == last).unwrap();
                                list.get(pos + 1) == Some(&i)
                            }
                            None => true,
                        };
                        ties == 1 && follows
                    })
                });
            }
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
            cfg: &EnumConfig,
            nodes: &[NodeId],
            seq: &[EventIdx],
            bound: Option<Time>,
            out: &mut Vec<EventIdx>,
        ) {
            self.scratch.clear();
            NodeListCandidates.gather(graph, cfg, nodes, seq, bound, &mut self.scratch);
            self.cursor.gather(graph, cfg, nodes, seq, bound, out);
            assert_eq!(*out, self.scratch, "seq {seq:?}, nodes {nodes:?}, bound {bound:?}");
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

    /// Every timing shape, duration-aware ΔC, the four models, exact
    /// node budgets of 2 and 3, and the consecutive-events and induced
    /// restrictions at k = 2..=4.
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
        for k in 2..=4 {
            let timing = if unbounded { Timing::UNBOUNDED } else { Timing::only_w(6) };
            cfgs.push(EnumConfig::new(k, 2).exact_nodes(2).with_timing(timing));
            cfgs.push(EnumConfig::new(k, 3).exact_nodes(3).with_timing(Timing::both(2, 5)));
            cfgs.push(EnumConfig::new(k, k + 1).with_consecutive(true).with_timing(timing));
            cfgs.push(EnumConfig::new(k, 3).exact_nodes(3).with_consecutive(true));
            cfgs.push(EnumConfig::new(k, 4).with_static_induced(true).with_timing(timing));
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
            // A consecutive-events walk gathers only from tie-free starts.
            let floor = if cfg.consecutive_events { 20 } else { 50 };
            assert!(walk_checked(&g, &cfg, &all) > floor, "{cfg:?} walked too little");
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
            let own: Vec<usize> = spec.own_local().collect();
            for cfg in configs(false) {
                steps += walk_checked(&shard, &cfg, &own);
            }
        }
        assert!(steps > 100);
    }

    /// Instances by signature, from a walk over `source`, keeping those
    /// that pass `keep`.
    fn walk_counts(
        graph: &TemporalGraph,
        cfg: &EnumConfig,
        source: impl CandidateSource,
        keep: impl Fn(&[EventIdx]) -> bool,
    ) -> MotifCounts {
        let mut counts = MotifCounts::new();
        Walker::new(graph, cfg, source).run_range(0..graph.num_events(), |inst| {
            if keep(inst.events) {
                counts.add(inst.signature, 1);
            }
        });
        counts
    }

    /// The restrictions the walk applies while it gathers (node budget,
    /// consecutive events) or through its memo (inducedness) admit
    /// exactly the instances their definitions admit: a walk with both
    /// flags cleared whose instances are filtered by `consecutive_ok` and
    /// `static_induced_ok`. k = 1 included, where the walk never gathers.
    #[test]
    fn restrictions_match_their_definitions() {
        let mut found = [0; 4];
        for seed in 1..=3 {
            let g = seeded_graph(seed, 200);
            let index = g.window_index();
            for k in 1..=4 {
                for (min, max) in [(2, 2), (3, 3), (2, k + 1)] {
                    for (consecutive, induced) in [(true, false), (false, true), (true, true)] {
                        let mut cfg = EnumConfig::new(k, max)
                            .with_timing(Timing::only_w(6))
                            .with_consecutive(consecutive)
                            .with_static_induced(induced);
                        cfg.min_nodes = min;
                        let plain = cfg.clone().with_consecutive(false).with_static_induced(false);
                        let defined =
                            walk_counts(&g, &plain, WindowedCandidates::new(index), |s| {
                                (!consecutive || consecutive_ok(&g, s))
                                    && (!induced || static_induced_ok(&g, s))
                            });
                        let walked =
                            walk_counts(&g, &cfg, WindowedCandidates::new(index), |_| true);
                        assert_eq!(walked, defined, "seed {seed}: {cfg:?}");
                        found[consecutive as usize + 2 * induced as usize] += walked.total();
                    }
                }
            }
        }
        assert!(found[1..].iter().all(|&n| n > 50), "too few instances: {found:?}");
    }

    /// At k = 1 the walk never gathers, so the first event's tie rule is
    /// the whole consecutive-events check: (0,1,5) and (0,2,5) share node
    /// 0 at t = 5, so only (1,2,9) is an instance.
    #[test]
    fn consecutive_single_events_exclude_timestamp_ties() {
        let g = TemporalGraphBuilder::new().event(0, 1, 5).event(0, 2, 5).event(1, 2, 9).build();
        let g = g.unwrap();
        let cfg = EnumConfig::new(1, 2).with_consecutive(true);
        let mut found = vec![];
        let mut walker = Walker::new(&g, &cfg, WindowedCandidates::new(g.window_index()));
        walker.run_range(0..3, |inst| found.push(inst.events.to_vec()));
        assert_eq!(found, vec![vec![2]]);
    }

    /// A nine-node motif has more digits than the inducedness memo
    /// covers; the walk decides it from its digits and pairs. An 8-event
    /// path is induced until a chord joins two of its nodes, here long
    /// after the path's window closes (static edges span the timeline).
    #[test]
    fn induced_past_the_memo_matches_the_definition() {
        for chord in [false, true] {
            let mut b = TemporalGraphBuilder::new();
            for i in 0..8u32 {
                b.push(Event::new(i, i + 1, i as i64 + 1));
            }
            if chord {
                b.push(Event::new(6, 2, 100));
            }
            let g = b.build().unwrap();
            let cfg =
                EnumConfig::new(8, 9).with_timing(Timing::only_w(10)).with_static_induced(true);
            let plain = cfg.clone().with_static_induced(false);
            let index = g.window_index();
            let defined = walk_counts(&g, &plain, WindowedCandidates::new(index), |s| {
                static_induced_ok(&g, s)
            });
            let walked = walk_counts(&g, &cfg, WindowedCandidates::new(index), |_| true);
            assert_eq!(walked, defined, "chord: {chord}");
            assert_eq!(walked.total(), u64::from(!chord), "chord: {chord}");
        }
    }
}
