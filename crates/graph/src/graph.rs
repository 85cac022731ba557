//! The time-ordered temporal graph store with node and edge time indexes.
//!
//! [`TemporalGraph`] keeps the event list sorted by `(time, src, dst)` and
//! two auxiliary indexes that the motif models need:
//!
//! * a **node index** (CSR layout): for every node, the time-ordered list of
//!   events it participates in. Kovanen et al.'s *consecutive events
//!   restriction* is a per-node range count on this index.
//! * an **edge index** (CSR keyed by source): for every directed static
//!   edge, the time-ordered list of events on it. Hulovatyy et al.'s
//!   *constrained dynamic graphlet* restriction is a per-edge range count
//!   on this index, and the static-inducedness checks of the Hulovatyy
//!   and Paranjape models are membership tests on it.
//!
//! Both indexes store event indices rather than copies of the events, so a
//! graph with `m` events costs `O(m)` extra words. The node index is built
//! with the graph. The edge index is built on first use — by a lookup,
//! [`TemporalGraph::static_edges`], [`TemporalGraph::num_static_edges`],
//! [`TemporalGraph::triangles`] or [`TemporalGraph::check_invariants`] —
//! so queries that never read static edges (2-node counts, and walks with
//! no inducedness check) never pay for it. The windowed walkers'
//! [`WindowIndex`] is a view over the node index plus a time column and a
//! per-event slot column the graph also builds on first use
//! ([`TemporalGraph::window_index`]).
//!
//! ## Appends
//!
//! [`TemporalGraph::append`] grows a graph by a sorted batch without a
//! rebuild. The splice merges the batch into the log from the first event
//! at or after the batch's first timestamp; for a time-monotone batch
//! that is only the log's final tie run, and every event before it keeps
//! its index. The node index is then extended in place: each node keeps
//! its entries that come before the splice point, segments move once,
//! from the last node to the first (a segment never moves left), and only
//! the spliced tail gets new entries. The cost is `O(n + tail)` plus the
//! segment moves, against `O(m + n)` scattered writes for a rebuild. The
//! timestamp-tie flag is updated from the tail alone. What the graph
//! builds on first use — edge index, SoA columns, window index and
//! triangle table — is dropped, and its next reader rebuilds it.
//!
//! ## Edge-index layout
//!
//! For `n` nodes and `E` distinct directed static edges, four flat arrays:
//!
//! * `offsets` (`n + 1`): node `u`'s static out-edges are the slots
//!   `offsets[u]..offsets[u + 1]`;
//! * `dsts` (`E`): the destination of each slot, ascending within each
//!   source — so slots ascend with `(src, dst)`;
//! * `starts` (`E + 1`): slot `k`'s events are
//!   `events[starts[k]..starts[k + 1]]`;
//! * `events` (`m`): event indices grouped by `(src, dst)`, in time order
//!   within each group.
//!
//! The build is two stable counting sorts of the time-ordered event
//! indices — by `dst`, then by `src` — and one pass that cuts the result
//! into groups: `O(m + n)` with no hashing. On the 90k-event SMS-A ×3
//! file that `cold_count` parses, on a 2-vCPU Xeon host, the sortedness
//! check takes 0.4–0.8 ms, the node index 0.7–1.0 ms and the edge index
//! 2.3–3.5 ms; [`TemporalGraph::from_sorted_events`] pays the first two,
//! and the first reader of static edges pays the third (one
//! `graph.edge_index` span). The `graph_build` bench group times the
//! eager part alone and, as `collegemsg_150k_edges`, with the first
//! `has_edge`; `collegemsg_150k_append_512` times one 512-event append.
//! A lookup
//! ([`TemporalGraph::edge_events`], [`TemporalGraph::has_edge`]) is a
//! binary search in the source's out-list, and
//! [`TemporalGraph::static_edges`] walks the slots in order.

use crate::columns::EventColumns;
use crate::error::{GraphError, Result};
use crate::event::Event;
use crate::ids::{Edge, EventIdx, NodeId, Time};
use crate::triangles::{TriangleTable, Triangles};
use crate::window_index::{WindowColumns, WindowIndex};
use std::ops::Range;
use std::sync::OnceLock;

/// A temporal network: a time-ordered multiset of directed events plus
/// node/edge time indexes. The node index and the timestamp-tie flag are
/// built with the graph; the edge index, the SoA columns, the window index
/// and the triangle table are built on first use and kept (clones carry
/// what is already built along).
///
/// A graph is read-only except through [`TemporalGraph::append`], which
/// consumes it: the events before the splice point keep their indices,
/// the node index and the tie flag are extended in place, and the
/// structures built on first use are dropped for their next reader to
/// rebuild (see the [module docs](self)).
///
/// Construct one with [`crate::TemporalGraphBuilder`] or
/// [`TemporalGraph::from_events`].
#[derive(Debug, Clone)]
pub struct TemporalGraph {
    events: Vec<Event>,
    num_nodes: u32,
    node_offsets: Vec<u32>,
    node_events: Vec<EventIdx>,
    /// True when at least two events share a timestamp.
    has_time_ties: bool,
    /// Lazy edge index (see the [module docs](self)); built at most once
    /// per graph, like `columns`.
    edges: OnceLock<EdgeIndex>,
    /// Lazy SoA view of `events`; built at most once per graph (clones
    /// carry the already-built columns along).
    columns: OnceLock<EventColumns>,
    /// Lazy static-triangle table over the edge index; built at most
    /// once per graph, like `columns`.
    triangles: OnceLock<TriangleTable>,
    /// Lazy window-index columns beside `node_events`: the time of each
    /// entry and each event's slot in its endpoints' spans; built at
    /// most once per graph, like `columns`.
    window: OnceLock<WindowColumns>,
}

impl TemporalGraph {
    /// Builds a graph from an unsorted batch of events.
    ///
    /// Events are sorted by `(time, src, dst)`; self-loops are rejected.
    pub fn from_events(events: Vec<Event>) -> Result<Self> {
        crate::builder::TemporalGraphBuilder::from_events(events).build()
    }

    /// Builds a graph from an **already time-sorted** event list with an
    /// explicit node-id space, skipping the builder's sort and
    /// compaction. This is the loader used for shard slices and for
    /// shard files arriving over the wire in worker processes: node ids
    /// stay in the parent graph's space (ids at or above the maximum
    /// present are simply isolated), and event indices match the input
    /// order exactly.
    ///
    /// The build is the sortedness check and the node index; the edge
    /// index waits for its first reader (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if the events are not sorted by
    /// `(time, src, dst, duration)`. The check is a single `O(m)` pass —
    /// about as cheap as the node index that follows — and it runs in
    /// release builds too: an unsorted buffer would otherwise corrupt
    /// every binary search silently.
    pub fn from_sorted_events(events: Vec<Event>, num_nodes: u32) -> Self {
        let _span = tnm_obs::span!("graph.build", events = events.len());
        Self::build(events, num_nodes)
    }

    /// [`from_sorted_events`](Self::from_sorted_events) without the span.
    fn build(events: Vec<Event>, num_nodes: u32) -> Self {
        let has_time_ties = check_sorted(&events);
        let (node_offsets, node_events) = build_node_index(&events, num_nodes);
        TemporalGraph {
            events,
            num_nodes,
            node_offsets,
            node_events,
            has_time_ties,
            edges: OnceLock::new(),
            columns: OnceLock::new(),
            triangles: OnceLock::new(),
            window: OnceLock::new(),
        }
    }

    /// Appends a sorted `batch` and returns the grown graph, equal to
    /// [`from_sorted_events`](Self::from_sorted_events) of the spliced log
    /// with `num_nodes` raised to cover the batch's node ids. The log and
    /// the node index are extended in place from the splice point on;
    /// the edge index, SoA columns, window index and triangle table are
    /// dropped (see the [module docs](self)). Records one
    /// `graph.append{events, batch}` span, `events` being the grown log's
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if the batch is not sorted, like `from_sorted_events`.
    pub fn append(mut self, batch: &[Event]) -> TemporalGraph {
        let grown = self.events.len() + batch.len();
        let _span = tnm_obs::span!("graph.append", events = grown, batch = batch.len());
        if batch.is_empty() {
            return self;
        }
        let at = splice(&mut self.events, batch);
        self.has_time_ties |= check_sorted(&self.events[at..]);
        let max_node = batch.iter().map(|e| e.src.0.max(e.dst.0) + 1).max().unwrap_or(0);
        self.num_nodes = self.num_nodes.max(max_node);
        extend_node_index(
            self.num_nodes,
            &self.events,
            at,
            batch,
            &mut self.node_offsets,
            &mut self.node_events,
        );
        self.edges = OnceLock::new();
        self.columns = OnceLock::new();
        self.triangles = OnceLock::new();
        self.window = OnceLock::new();
        self
    }

    /// True when at least two events share a timestamp. Tie-free logs
    /// (the common case for real corpora) let the stream DPs skip
    /// timestamp-group bookkeeping entirely. Computed in the build's
    /// sortedness pass and kept up to date by
    /// [`append`](Self::append) from the spliced tail alone.
    #[inline]
    pub fn has_time_ties(&self) -> bool {
        self.has_time_ties
    }

    /// The structure-of-arrays view of the event log, built lazily on
    /// first use and shared for the graph's lifetime. Row `i` of every
    /// column mirrors [`TemporalGraph::event`]`(i)`, so the node/edge
    /// index slices can be resolved against dense `i64`/`u32` arrays
    /// instead of 24-byte `Event` structs.
    #[inline]
    pub fn columns(&self) -> &EventColumns {
        self.columns.get_or_init(|| EventColumns::build(&self.events))
    }

    /// The static triangles of the graph — undirected node triples whose
    /// three pairs each carry an event — listed on first use in
    /// `O(m^1.5)` for `m` node pairs and kept for the graph's lifetime
    /// (clones carry an already-built table along). See
    /// [`crate::triangles`] for the layout.
    pub fn triangles(&self) -> Triangles<'_> {
        let edges = self.edge_index();
        let table = self
            .triangles
            .get_or_init(|| TriangleTable::build(&edges.offsets, &edges.dsts, &edges.starts));
        Triangles::new(table, &edges.events)
    }

    /// The edge index, built on first use (recording one
    /// `graph.edge_index` span) and kept for the graph's lifetime.
    fn edge_index(&self) -> &EdgeIndex {
        self.edges.get_or_init(|| {
            let span = tnm_obs::span!("graph.edge_index", events = self.num_events());
            let index = build_edge_index(&self.events, self.num_nodes);
            let _span = span.arg("edges", index.dsts.len());
            index
        })
    }

    /// The windowed candidate index: the node index with each event's
    /// time stored inline beside it, and the slot column giving each
    /// event's position in its `src`'s and its `dst`'s list. Both
    /// columns are built on first use in one `O(m)` pass (recording one
    /// `index.build` span) and kept for the graph's lifetime (clones
    /// carry already-built columns along). See [`crate::window_index`].
    pub fn window_index(&self) -> WindowIndex<'_> {
        let cols = self.window.get_or_init(|| {
            let _span = tnm_obs::span!("index.build", events = self.num_events());
            WindowColumns::build(&self.node_offsets, &self.events)
        });
        WindowIndex::new(&self.node_offsets, &self.node_events, cols)
    }

    /// The dense, ascending start-time column (`times()[i] ==
    /// event(i).time`). This is the array every window binary search
    /// and group scan should probe.
    #[inline]
    pub fn times(&self) -> &[Time] {
        self.columns().times()
    }

    /// The full time-ordered event list.
    #[inline]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The event at index `idx`.
    #[inline]
    pub fn event(&self, idx: EventIdx) -> &Event {
        &self.events[idx as usize]
    }

    /// Number of events (`|E|` in the paper's Table 2).
    #[inline]
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// True if the graph holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of nodes (`|V|`). Nodes are `0..num_nodes`.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of distinct directed static edges ("Edges" in Table 2).
    #[inline]
    pub fn num_static_edges(&self) -> usize {
        self.edge_index().dsts.len()
    }

    /// Time of the earliest event; `None` if empty.
    #[inline]
    pub fn first_time(&self) -> Option<Time> {
        self.events.first().map(|e| e.time)
    }

    /// Time of the latest event; `None` if empty.
    #[inline]
    pub fn last_time(&self) -> Option<Time> {
        self.events.last().map(|e| e.time)
    }

    /// `last_time - first_time`, or 0 for graphs with under two events.
    #[inline]
    pub fn timespan(&self) -> Time {
        match (self.first_time(), self.last_time()) {
            (Some(a), Some(b)) => b - a,
            _ => 0,
        }
    }

    /// Time-ordered event indices adjacent to `node`.
    #[inline]
    pub fn node_events(&self, node: NodeId) -> &[EventIdx] {
        let lo = self.node_offsets[node.index()] as usize;
        let hi = self.node_offsets[node.index() + 1] as usize;
        &self.node_events[lo..hi]
    }

    /// Number of events adjacent to `node`.
    #[inline]
    pub fn node_degree(&self, node: NodeId) -> usize {
        self.node_events(node).len()
    }

    /// Time-ordered event indices on the directed edge `edge`
    /// (empty slice if the edge never occurs, or if `edge.src` is not a
    /// node of this graph).
    #[inline]
    pub fn edge_events(&self, edge: Edge) -> &[EventIdx] {
        let edges = self.edge_index();
        match edges.slot(edge) {
            Some(k) => edges.slot_events(k),
            None => &[],
        }
    }

    /// True if the directed edge occurs at least once (static projection
    /// membership). Used by the static-inducedness checks of Hulovatyy and
    /// Paranjape models.
    #[inline]
    pub fn has_edge(&self, edge: Edge) -> bool {
        self.edge_index().slot(edge).is_some()
    }

    /// Iterates over the distinct directed static edges in ascending
    /// `(src, dst)` order — the same order for every build of the same
    /// event log.
    pub fn static_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.static_edge_events().map(|(edge, _)| edge)
    }

    /// Iterates over the distinct directed static edges in ascending
    /// `(src, dst)` order, each with its time-ordered event indices (its
    /// [`edge_events`](Self::edge_events)), by a walk over the edge
    /// index with no lookups.
    pub fn static_edge_events(&self) -> impl Iterator<Item = (Edge, &[EventIdx])> + '_ {
        let edges = self.edge_index();
        (0..self.num_nodes).flat_map(move |u| {
            edges
                .out_slots(u)
                .map(move |k| (Edge { src: NodeId(u), dst: edges.dsts[k] }, edges.slot_events(k)))
        })
    }

    /// Counts events adjacent to `node` with time in the **inclusive**
    /// window `[t0, t1]`.
    ///
    /// This is the primitive behind Kovanen et al.'s consecutive events
    /// restriction: a motif node `x` engaged in `k` motif events spanning
    /// `[first_x, last_x]` is valid iff
    /// `count_node_events_between(x, first_x, last_x) == k`.
    pub fn count_node_events_between(&self, node: NodeId, t0: Time, t1: Time) -> usize {
        count_in_window(self.times(), self.node_events(node), t0, t1)
    }

    /// Counts events on `edge` with time in the inclusive window `[t0, t1]`.
    ///
    /// Primitive behind Hulovatyy et al.'s constrained dynamic graphlets.
    pub fn count_edge_events_between(&self, edge: Edge, t0: Time, t1: Time) -> usize {
        count_in_window(self.times(), self.edge_events(edge), t0, t1)
    }

    /// The contiguous slice of events with `t0 <= time <= t1` together with
    /// the index of its first element.
    pub fn events_in_window(&self, t0: Time, t1: Time) -> (EventIdx, &[Event]) {
        let range = self.columns().window_range(t0, t1);
        (range.start as EventIdx, &self.events[range])
    }

    /// Index of the first event with `time >= t`.
    pub fn first_event_at_or_after(&self, t: Time) -> EventIdx {
        self.columns().first_at_or_after(t) as EventIdx
    }

    /// Validates internal invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<()> {
        if self.events.is_empty() {
            return Err(GraphError::Empty);
        }
        for e in &self.events {
            if e.src.0 >= self.num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node: e.src.0,
                    num_nodes: self.num_nodes,
                });
            }
            if e.dst.0 >= self.num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node: e.dst.0,
                    num_nodes: self.num_nodes,
                });
            }
            if e.is_self_loop() {
                return Err(GraphError::SelfLoop { node: e.src.0, time: e.time });
            }
        }
        assert!(self.events.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(self.node_events.len(), self.events.len() * 2);
        assert_eq!(self.edge_index().events.len(), self.events.len());
        Ok(())
    }
}

/// The empty graph: no events and no nodes.
impl Default for TemporalGraph {
    fn default() -> Self {
        TemporalGraph::build(Vec::new(), 0)
    }
}

/// Splices the sorted `batch` into the sorted `log` and returns the splice
/// point: the index of the first log event at or after the batch's first
/// timestamp (the log's length for an empty batch). Events before it keep
/// their indices; from it on, the log's old tail and the batch are merged
/// in `(time, src, dst, duration)` order, back to front in place. For a
/// time-monotone batch (no earlier than the log's last event) the old
/// tail is the log's final tie run.
///
/// Validation is the caller's; an unsorted batch leaves an unsorted
/// tail, which [`TemporalGraph::append`] rejects.
fn splice(log: &mut Vec<Event>, batch: &[Event]) -> usize {
    let Some(first) = batch.first() else { return log.len() };
    let at = log.partition_point(|e| e.time < first.time);
    let (mut i, mut j) = (log.len(), batch.len());
    log.extend_from_slice(batch);
    // Fill from the back: the write position `i + j` never falls below
    // the next old-tail event `i - 1`, so nothing unread is overwritten.
    while j > 0 {
        if i > at && log[i - 1] > batch[j - 1] {
            log[i + j - 1] = log[i - 1];
            i -= 1;
        } else {
            log[i + j - 1] = batch[j - 1];
            j -= 1;
        }
    }
    at
}

/// Panics unless `events` is sorted by `(time, src, dst, duration)`;
/// returns whether two of them share a timestamp. One branch-free pass:
/// an unsorted buffer would otherwise corrupt every binary search
/// silently.
fn check_sorted(events: &[Event]) -> bool {
    let (sorted, ties) = events.windows(2).fold((true, false), |(sorted, ties), w| {
        (sorted & (w[0] <= w[1]), ties | (w[0].time == w[1].time))
    });
    assert!(sorted, "events must be sorted");
    ties
}

/// Counts how many event indices in the time-sorted `index` slice fall in
/// the inclusive window `[t0, t1]`, by binary search on the dense time
/// column (8-byte probes instead of 24-byte `Event` rows).
fn count_in_window(times: &[Time], index: &[EventIdx], t0: Time, t1: Time) -> usize {
    if t1 < t0 {
        return 0;
    }
    let lo = index.partition_point(|&i| times[i as usize] < t0);
    let hi = index.partition_point(|&i| times[i as usize] <= t1);
    hi - lo
}

fn build_node_index(events: &[Event], num_nodes: u32) -> (Vec<u32>, Vec<EventIdx>) {
    let n = num_nodes as usize;
    let mut counts = vec![0u32; n + 1];
    for e in events {
        counts[e.src.index() + 1] += 1;
        counts[e.dst.index() + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let offsets = counts.clone();
    let mut cursor = counts;
    let mut lists = vec![0 as EventIdx; events.len() * 2];
    for (i, e) in events.iter().enumerate() {
        // Events are visited in time order, so each per-node list ends up
        // time-sorted without a separate sort pass.
        lists[cursor[e.src.index()] as usize] = i as EventIdx;
        cursor[e.src.index()] += 1;
        lists[cursor[e.dst.index()] as usize] = i as EventIdx;
        cursor[e.dst.index()] += 1;
    }
    (offsets, lists)
}

/// Extends the node index of `events[..at]` plus an old tail to that of
/// `events`, the log after a [`splice`] at `at` of `batch`, over
/// `num_nodes` nodes (at least the old count). Extending the empty index
/// by a whole log would build it too, but [`build_node_index`] is
/// faster at that: about 0.8 ms against 1.0 ms for 150k events
/// in-process on a 2-vCPU host.
///
/// Every node keeps its entries below `at`. A node's segment grows by
/// its entries in the batch, so new offsets are never below the old
/// ones, and the segments move once, from the last node to the first,
/// without overwriting one not yet moved. The spliced tail's entries are
/// then written after the kept ones in event order, so every list stays
/// time-sorted without a sort.
fn extend_node_index(
    num_nodes: u32,
    events: &[Event],
    at: usize,
    batch: &[Event],
    offsets: &mut Vec<u32>,
    lists: &mut Vec<EventIdx>,
) {
    let n = num_nodes as usize;
    let old_len = lists.len();
    // Per node, first its entries in the batch; then, once the node has
    // moved, where its next tail entry goes.
    let mut cursor = vec![0u32; n];
    for e in batch {
        cursor[e.src.index()] += 1;
        cursor[e.dst.index()] += 1;
    }
    offsets.resize(n + 1, old_len as u32);
    lists.resize(2 * events.len(), 0);
    offsets[n] = lists.len() as u32;
    let mut shift = 2 * batch.len() as u32;
    let mut old_hi = old_len;
    for v in (0..n).rev() {
        shift -= cursor[v];
        let old_lo = offsets[v] as usize;
        let old = &lists[old_lo..old_hi];
        let kept = match old.last() {
            Some(&last) if last as usize >= at => old.partition_point(|&i| (i as usize) < at),
            _ => old.len(),
        };
        let new_lo = old_lo + shift as usize;
        if shift > 0 {
            lists.copy_within(old_lo..old_lo + kept, new_lo);
        }
        offsets[v] = new_lo as u32;
        cursor[v] = (new_lo + kept) as u32;
        old_hi = old_lo;
    }
    for (i, e) in (at..).zip(&events[at..]) {
        for node in [e.src, e.dst] {
            let slot = &mut cursor[node.index()];
            lists[*slot as usize] = i as EventIdx;
            *slot += 1;
        }
    }
}

/// The edge index's four arrays (see the [module docs](self)).
#[derive(Debug, Clone)]
struct EdgeIndex {
    /// Per source node, its slot range into `dsts`/`starts`.
    offsets: Vec<u32>,
    /// Per slot, the destination; ascending within each source.
    dsts: Vec<NodeId>,
    /// Per slot, the start of its events in `events`, plus a final `m`
    /// sentinel.
    starts: Vec<u32>,
    events: Vec<EventIdx>,
}

impl EdgeIndex {
    /// The slots of `src`'s static out-edges.
    #[inline]
    fn out_slots(&self, src: u32) -> Range<usize> {
        self.offsets[src as usize] as usize..self.offsets[src as usize + 1] as usize
    }

    /// The slot of `edge`: a binary search in its source's ascending
    /// out-list.
    #[inline]
    fn slot(&self, edge: Edge) -> Option<usize> {
        if edge.src.index() + 1 >= self.offsets.len() {
            return None;
        }
        let slots = self.out_slots(edge.src.0);
        let at = self.dsts[slots.clone()].binary_search(&edge.dst).ok()?;
        Some(slots.start + at)
    }

    /// The time-ordered event indices of slot `k`.
    #[inline]
    fn slot_events(&self, k: usize) -> &[EventIdx] {
        &self.events[self.starts[k] as usize..self.starts[k + 1] as usize]
    }
}

fn build_edge_index(events: &[Event], num_nodes: u32) -> EdgeIndex {
    // Two stable counting sorts of the time-ordered event indices, by
    // dst and then by src, group them by `(src, dst)` with time order
    // kept inside each group.
    let by_dst = counting_sort(0..events.len() as EventIdx, num_nodes, |i| events[i as usize].dst);
    let grouped = counting_sort(by_dst.iter().copied(), num_nodes, |i| events[i as usize].src);
    let mut offsets = vec![0u32; num_nodes as usize + 1];
    let mut dsts = Vec::new();
    let mut starts = Vec::new();
    let mut last = None;
    for (at, &i) in grouped.iter().enumerate() {
        let edge = events[i as usize].edge();
        if last != Some(edge) {
            last = Some(edge);
            offsets[edge.src.index() + 1] += 1;
            dsts.push(edge.dst);
            starts.push(at as u32);
        }
    }
    starts.push(grouped.len() as u32);
    for u in 0..num_nodes as usize {
        offsets[u + 1] += offsets[u];
    }
    EdgeIndex { offsets, dsts, starts, events: grouped }
}

/// Stable counting sort of `items` by a node key below `num_nodes`.
fn counting_sort(
    items: impl Iterator<Item = EventIdx> + Clone,
    num_nodes: u32,
    key: impl Fn(EventIdx) -> NodeId,
) -> Vec<EventIdx> {
    let mut cursor = vec![0u32; num_nodes as usize + 1];
    let mut len = 0;
    for i in items.clone() {
        cursor[key(i).index() + 1] += 1;
        len += 1;
    }
    for u in 0..num_nodes as usize {
        cursor[u + 1] += cursor[u];
    }
    let mut out = vec![0 as EventIdx; len];
    for i in items {
        let slot = &mut cursor[key(i).index()];
        out[*slot as usize] = i;
        *slot += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TemporalGraph {
        // The six-event network of the paper's Figure 1 (approximately):
        // events at 3,7,8,9,11,15 seconds.
        TemporalGraph::from_events(vec![
            Event::new(0u32, 1u32, 3),
            Event::new(1u32, 2u32, 7),
            Event::new(1u32, 3u32, 8),
            Event::new(2u32, 0u32, 9),
            Event::new(0u32, 2u32, 11),
            Event::new(2u32, 3u32, 15),
        ])
        .unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = sample();
        assert_eq!(g.num_events(), 6);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_static_edges(), 6);
        assert_eq!(g.first_time(), Some(3));
        assert_eq!(g.last_time(), Some(15));
        assert_eq!(g.timespan(), 12);
    }

    #[test]
    fn node_index_is_time_sorted() {
        let g = sample();
        for n in 0..g.num_nodes() {
            let evs = g.node_events(NodeId(n));
            let times: Vec<_> = evs.iter().map(|&i| g.event(i).time).collect();
            let mut sorted = times.clone();
            sorted.sort();
            assert_eq!(times, sorted, "node {n} index not time-sorted");
        }
        assert_eq!(g.node_degree(NodeId(0)), 3);
        assert_eq!(g.node_degree(NodeId(1)), 3);
        assert_eq!(g.node_degree(NodeId(2)), 4);
        assert_eq!(g.node_degree(NodeId(3)), 2);
    }

    #[test]
    fn edge_index_lookup() {
        let g = sample();
        let e01 = g.edge_events(Edge::new(0u32, 1u32));
        assert_eq!(e01.len(), 1);
        assert_eq!(g.event(e01[0]).time, 3);
        assert!(g.has_edge(Edge::new(2u32, 3u32)));
        assert!(!g.has_edge(Edge::new(3u32, 2u32)));
        assert!(g.edge_events(Edge::new(3u32, 2u32)).is_empty());
    }

    #[test]
    fn window_counting() {
        let g = sample();
        // Node 1 events at 3, 7, 8.
        assert_eq!(g.count_node_events_between(NodeId(1), 3, 8), 3);
        assert_eq!(g.count_node_events_between(NodeId(1), 4, 8), 2);
        assert_eq!(g.count_node_events_between(NodeId(1), 9, 20), 0);
        assert_eq!(g.count_node_events_between(NodeId(1), 8, 3), 0);
        assert_eq!(g.count_edge_events_between(Edge::new(1u32, 2u32), 0, 100), 1);
    }

    #[test]
    fn events_in_window_slice() {
        let g = sample();
        let (start, evs) = g.events_in_window(7, 9);
        assert_eq!(start, 1);
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].time, 7);
        assert_eq!(evs[2].time, 9);
        let (_, all) = g.events_in_window(i64::MIN, i64::MAX);
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn invariants_hold() {
        sample().check_invariants().unwrap();
    }

    #[test]
    fn duplicate_events_are_kept() {
        let g =
            TemporalGraph::from_events(vec![Event::new(0u32, 1u32, 5), Event::new(0u32, 1u32, 5)])
                .unwrap();
        assert_eq!(g.num_events(), 2);
        assert_eq!(g.edge_events(Edge::new(0u32, 1u32)).len(), 2);
    }

    #[test]
    fn time_tie_detection() {
        assert!(!sample().has_time_ties());
        let tied =
            vec![Event::new(0u32, 1u32, 3), Event::new(1u32, 2u32, 7), Event::new(2u32, 0u32, 7)];
        assert!(TemporalGraph::from_events(tied).unwrap().has_time_ties());
        assert!(!TemporalGraph::from_sorted_events(Vec::new(), 0).has_time_ties());
    }

    /// Seeded generator for the append differential.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u32) -> u32 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((self.0 >> 33) % u64::from(n)) as u32
        }
    }

    /// `len` sorted, tie-heavy events from time `t0` on (times step by 0,
    /// 1 or 2) among nodes `0..nodes`; `ids_from` shifts one endpoint up,
    /// and `durations` draws nonzero durations.
    fn batch(
        rng: &mut Lcg,
        len: u32,
        t0: Time,
        nodes: u32,
        ids_from: u32,
        durations: bool,
    ) -> Vec<Event> {
        let mut t = t0;
        let mut out: Vec<Event> = (0..len)
            .map(|_| {
                t += Time::from(rng.below(3));
                let src = rng.below(nodes);
                let dst = (src + 1 + rng.below(nodes - 1)) % nodes + ids_from;
                Event::with_duration(src, dst, t, if durations { 1 + rng.below(9) } else { 0 })
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Everything `g` exposes equals what a fresh build of `log` over
    /// `num_nodes` nodes exposes, the lazy structures included.
    fn assert_same_as_fresh(g: &TemporalGraph, log: &[Event], num_nodes: u32, ctx: &str) {
        let fresh = TemporalGraph::from_sorted_events(log.to_vec(), num_nodes);
        assert_eq!(g.events(), fresh.events(), "{ctx}");
        assert_eq!(g.num_nodes(), fresh.num_nodes(), "{ctx}");
        assert_eq!(g.has_time_ties(), fresh.has_time_ties(), "{ctx}");
        for v in 0..num_nodes {
            assert_eq!(g.node_events(NodeId(v)), fresh.node_events(NodeId(v)), "{ctx} node {v}");
        }
        let (wi, fwi) = (g.window_index(), fresh.window_index());
        for v in 0..num_nodes {
            assert_eq!(wi.node_slices(NodeId(v)), fwi.node_slices(NodeId(v)), "{ctx} node {v}");
        }
        for i in 0..log.len() as EventIdx {
            assert_eq!(wi.slots(i), fwi.slots(i), "{ctx} event {i}");
        }
        let edges = |g: &TemporalGraph| {
            g.static_edge_events().map(|(e, evs)| (e, evs.to_vec())).collect::<Vec<_>>()
        };
        assert_eq!(edges(g), edges(&fresh), "{ctx}");
        let (tri, ftri) = (g.triangles(), fresh.triangles());
        assert_eq!(tri.len(), ftri.len(), "{ctx}");
        for t in 0..tri.len() {
            assert_eq!(tri.edge_lists(t), ftri.edge_lists(t), "{ctx} triangle {t}");
        }
        let (cols, fcols) = (g.columns(), fresh.columns());
        assert_eq!(cols.times(), fcols.times(), "{ctx}");
    }

    /// `episodes` graphs (some starting empty), each grown by `appends`
    /// batches: empty, all at the last timestamp, reaching node ids above
    /// `num_nodes`, carrying durations, or plain. Before some appends the
    /// graph has built its lazy structures, which the append must drop.
    fn append_differential(episodes: u64, appends: usize) {
        for episode in 0..episodes {
            let mut rng = Lcg(episode.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let nodes = 3 + rng.below(14);
            let base_len = if episode % 4 == 0 { 0 } else { rng.below(300) };
            let mut log = batch(&mut rng, base_len, 0, nodes, 0, false);
            let mut num_nodes = if log.is_empty() { 0 } else { nodes };
            let mut g = TemporalGraph::from_sorted_events(log.clone(), num_nodes);
            for step in 0..appends {
                let last = log.last().map_or(0, |e| e.time);
                let len = 1 + rng.below(24);
                let above = num_nodes.max(nodes) + rng.below(4);
                let mut add = match rng.below(5) {
                    0 => Vec::new(),
                    1 => batch(&mut rng, len, last, nodes, 0, false)
                        .into_iter()
                        .map(|e| Event { time: last, ..e })
                        .collect(),
                    2 => batch(&mut rng, len, last, nodes, above, false),
                    3 => batch(&mut rng, len, last, nodes, 0, true),
                    _ => batch(&mut rng, len, last, nodes, 0, false),
                };
                add.sort_unstable();
                if rng.below(3) == 0 && !g.is_empty() {
                    let _ = (g.window_index(), g.triangles().len(), g.columns());
                }
                log.extend_from_slice(&add);
                log.sort_unstable();
                let top = add.iter().map(|e| e.src.0.max(e.dst.0) + 1).max().unwrap_or(0);
                num_nodes = num_nodes.max(top);
                g = g.append(&add);
                assert_same_as_fresh(
                    &g,
                    &log,
                    num_nodes,
                    &format!("episode {episode} step {step}"),
                );
            }
        }
    }

    #[test]
    fn append_matches_a_fresh_build() {
        append_differential(40, 40);
    }

    #[test]
    #[ignore = "10^4 appends over 200 graphs; run in release (CI's append differential step)"]
    fn append_matches_a_fresh_build_full() {
        append_differential(200, 50);
    }

    /// `splice` keeps everything before the batch's first timestamp and
    /// merges the rest, ties in `(src, dst, duration)` order.
    #[test]
    fn splice_merges_the_final_tie_run() {
        let mut log =
            vec![Event::new(0u32, 1u32, 3), Event::new(2u32, 3u32, 5), Event::new(4u32, 5u32, 5)];
        let batch =
            [Event::new(1u32, 2u32, 5), Event::new(3u32, 4u32, 5), Event::new(0u32, 1u32, 6)];
        assert_eq!(splice(&mut log, &batch), 1);
        let mut expect = log[..1].to_vec();
        expect.extend_from_slice(&[Event::new(2u32, 3u32, 5), Event::new(4u32, 5u32, 5)]);
        expect.extend_from_slice(&batch);
        expect.sort_unstable();
        assert_eq!(log, expect);
        assert_eq!(splice(&mut log, &[]), log.len());
    }

    #[test]
    fn first_event_at_or_after_boundaries() {
        let g = sample();
        assert_eq!(g.first_event_at_or_after(0), 0);
        assert_eq!(g.first_event_at_or_after(7), 1);
        assert_eq!(g.first_event_at_or_after(10), 4);
        assert_eq!(g.first_event_at_or_after(100), 6);
    }
}
