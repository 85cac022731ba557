//! The time-ordered temporal graph store with node and edge time indexes.
//!
//! [`TemporalGraph`] keeps the event list sorted by `(time, src, dst)` and
//! maintains two auxiliary indexes that the motif models need:
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
//! graph with `m` events costs `O(m)` extra words. The windowed walkers'
//! [`WindowIndex`] is a view over the node index plus a time column and a
//! per-event slot column the graph builds on first use
//! ([`TemporalGraph::window_index`]).
//!
//! ## Edge-index layout
//!
//! For `n` nodes and `E` distinct directed static edges, four flat arrays:
//!
//! * `edge_offsets` (`n + 1`): node `u`'s static out-edges are the slots
//!   `edge_offsets[u]..edge_offsets[u + 1]`;
//! * `edge_dsts` (`E`): the destination of each slot, ascending within
//!   each source — so slots ascend with `(src, dst)`;
//! * `edge_starts` (`E + 1`): slot `k`'s events are
//!   `edge_events[edge_starts[k]..edge_starts[k + 1]]`;
//! * `edge_events` (`m`): event indices grouped by `(src, dst)`, in time
//!   order within each group.
//!
//! The build is two stable counting sorts of the time-ordered event
//! indices — by `dst`, then by `src` — and one pass that cuts the result
//! into groups: `O(m + n)` with no hashing. The whole
//! [`TemporalGraph::from_sorted_events`] build (sortedness check, node
//! and edge index) takes about 5–7 ms for a 150k-event CollegeMsg-spec
//! log and 1–2 ms for a 40k-event StackOverflow-spec log on a 2-vCPU
//! Xeon host (the `graph_build` bench group). It is about half of an
//! edge-list ingest: reading a 90k-event SMS-A ×3 file
//! ([`crate::io::read_edge_list_file`]) takes 11–12 ms, of which this
//! build is 4.5–5 ms, parsing and node-id compaction about 5 ms, and the
//! builder's tie-run sort (see [`crate::TemporalGraphBuilder::build`])
//! under 1 ms (the `ingest` bench group). A lookup
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

/// An immutable temporal network: a time-ordered multiset of directed
/// events plus node/edge time indexes.
///
/// Construct one with [`crate::TemporalGraphBuilder`] or
/// [`TemporalGraph::from_events`].
#[derive(Debug, Clone)]
pub struct TemporalGraph {
    events: Vec<Event>,
    num_nodes: u32,
    node_offsets: Vec<u32>,
    node_events: Vec<EventIdx>,
    /// Edge-index CSR (see the [module docs](self)): per source node, its
    /// slot range into `edge_dsts`/`edge_starts`.
    edge_offsets: Vec<u32>,
    /// Per slot, the destination; ascending within each source.
    edge_dsts: Vec<NodeId>,
    /// Per slot, the start of its events in `edge_events`, plus a final
    /// `m` sentinel.
    edge_starts: Vec<u32>,
    edge_events: Vec<EventIdx>,
    /// Lazy SoA view of `events`; built at most once per graph (clones
    /// carry the already-built columns along).
    columns: OnceLock<EventColumns>,
    /// Lazy static-triangle table over `edge_events`; built at most once
    /// per graph, like `columns`.
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
    /// # Panics
    ///
    /// Panics if the events are not sorted by
    /// `(time, src, dst, duration)`. The check is a single `O(m)` pass —
    /// cheap next to the index builds that follow — and it runs in
    /// release builds too: an unsorted buffer would otherwise corrupt
    /// every binary search silently.
    pub fn from_sorted_events(events: Vec<Event>, num_nodes: u32) -> Self {
        let _span = tnm_obs::span!("graph.build", events = events.len());
        assert!(events.windows(2).all(|w| w[0] <= w[1]), "events must be sorted");
        let (node_offsets, node_events) = build_node_index(&events, num_nodes);
        let EdgeIndex { offsets, dsts, starts, events: edge_events } =
            build_edge_index(&events, num_nodes);
        TemporalGraph {
            events,
            num_nodes,
            node_offsets,
            node_events,
            edge_offsets: offsets,
            edge_dsts: dsts,
            edge_starts: starts,
            edge_events,
            columns: OnceLock::new(),
            triangles: OnceLock::new(),
            window: OnceLock::new(),
        }
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
        let table = self.triangles.get_or_init(|| {
            TriangleTable::build(&self.edge_offsets, &self.edge_dsts, &self.edge_starts)
        });
        Triangles::new(table, &self.edge_events)
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
        self.edge_dsts.len()
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
        match self.edge_slot(edge) {
            Some(k) => self.slot_events(k),
            None => &[],
        }
    }

    /// True if the directed edge occurs at least once (static projection
    /// membership). Used by the static-inducedness checks of Hulovatyy and
    /// Paranjape models.
    #[inline]
    pub fn has_edge(&self, edge: Edge) -> bool {
        self.edge_slot(edge).is_some()
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
        (0..self.num_nodes).flat_map(move |u| {
            self.out_slots(u).map(move |k| {
                (Edge { src: NodeId(u), dst: self.edge_dsts[k] }, self.slot_events(k))
            })
        })
    }

    /// The edge-index slots of `src`'s static out-edges.
    #[inline]
    fn out_slots(&self, src: u32) -> Range<usize> {
        self.edge_offsets[src as usize] as usize..self.edge_offsets[src as usize + 1] as usize
    }

    /// The edge-index slot of `edge`: a binary search in its source's
    /// ascending out-list.
    #[inline]
    fn edge_slot(&self, edge: Edge) -> Option<usize> {
        if edge.src.0 >= self.num_nodes {
            return None;
        }
        let slots = self.out_slots(edge.src.0);
        let at = self.edge_dsts[slots.clone()].binary_search(&edge.dst).ok()?;
        Some(slots.start + at)
    }

    /// The time-ordered event indices of edge-index slot `k`.
    #[inline]
    fn slot_events(&self, k: usize) -> &[EventIdx] {
        &self.edge_events[self.edge_starts[k] as usize..self.edge_starts[k + 1] as usize]
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
        assert_eq!(self.edge_events.len(), self.events.len());
        Ok(())
    }
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

/// The edge index's four arrays (see the [module docs](self)).
struct EdgeIndex {
    offsets: Vec<u32>,
    dsts: Vec<NodeId>,
    starts: Vec<u32>,
    events: Vec<EventIdx>,
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
    fn first_event_at_or_after_boundaries() {
        let g = sample();
        assert_eq!(g.first_event_at_or_after(0), 0);
        assert_eq!(g.first_event_at_or_after(7), 1);
        assert_eq!(g.first_event_at_or_after(10), 4);
        assert_eq!(g.first_event_at_or_after(100), 6);
    }
}
