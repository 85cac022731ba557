//! Builder for [`crate::TemporalGraph`].

use crate::error::{GraphError, Result};
use crate::event::Event;
use crate::graph::TemporalGraph;
use crate::ids::Time;
use std::collections::HashMap;

/// Accumulates events and produces a validated, index-backed
/// [`TemporalGraph`].
///
/// ```
/// use tnm_graph::TemporalGraphBuilder;
/// let g = TemporalGraphBuilder::new()
///     .event(0, 1, 10)
///     .event(1, 2, 12)
///     .build()
///     .unwrap();
/// assert_eq!(g.num_events(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TemporalGraphBuilder {
    events: Vec<Event>,
    skip_self_loops: bool,
    num_nodes_hint: Option<u32>,
}

impl TemporalGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-seeded with `events`.
    pub fn from_events(events: Vec<Event>) -> Self {
        TemporalGraphBuilder { events, ..Self::default() }
    }

    /// Reserves capacity for `n` additional events.
    pub fn with_capacity(n: usize) -> Self {
        TemporalGraphBuilder { events: Vec::with_capacity(n), ..Self::default() }
    }

    /// When set, self-loop events are dropped silently instead of failing
    /// the build. Useful for raw real-world edge lists.
    pub fn skip_self_loops(mut self, yes: bool) -> Self {
        self.skip_self_loops = yes;
        self
    }

    /// Declares the node universe size up front (ids must stay below it).
    pub fn num_nodes(mut self, n: u32) -> Self {
        self.num_nodes_hint = Some(n);
        self
    }

    /// Adds an instantaneous event (chainable).
    pub fn event(mut self, src: u32, dst: u32, time: Time) -> Self {
        self.events.push(Event::new(src, dst, time));
        self
    }

    /// Adds an event with a duration (chainable).
    pub fn event_with_duration(mut self, src: u32, dst: u32, time: Time, duration: u32) -> Self {
        self.events.push(Event::with_duration(src, dst, time, duration));
        self
    }

    /// Adds an event in place (non-chaining form for loops).
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sorts, validates, indexes, and returns the graph.
    ///
    /// Events end up in `Event`'s total `(time, src, dst, duration)`
    /// order. When the time column is already non-decreasing — an edge
    /// list read in file order, the generator's output, every transform
    /// of a built graph — only each run of equal timestamps is sorted;
    /// one inversion anywhere falls back to a full `sort_unstable`. Both
    /// produce the same order, since the order is total.
    ///
    /// # Errors
    ///
    /// * [`GraphError::Empty`] if there are no events;
    /// * [`GraphError::SelfLoop`] unless [`Self::skip_self_loops`] is set;
    /// * [`GraphError::NodeOutOfRange`] if a hinted node count is exceeded.
    pub fn build(self) -> Result<TemporalGraph> {
        let TemporalGraphBuilder { mut events, skip_self_loops, num_nodes_hint } = self;
        if skip_self_loops {
            events.retain(|e| !e.is_self_loop());
        } else if let Some(e) = events.iter().find(|e| e.is_self_loop()) {
            return Err(GraphError::SelfLoop { node: e.src.0, time: e.time });
        }
        if events.is_empty() {
            return Err(GraphError::Empty);
        }
        let max_node = events.iter().map(|e| e.src.0.max(e.dst.0)).max().unwrap_or(0);
        let num_nodes = match num_nodes_hint {
            Some(n) if max_node >= n => {
                return Err(GraphError::NodeOutOfRange { node: max_node, num_nodes: n })
            }
            Some(n) => n,
            None => max_node + 1,
        };
        sort_events(&mut events);
        Ok(TemporalGraph::from_sorted_events(events, num_nodes))
    }
}

/// Sorts `events` into `Event`'s order; see [`TemporalGraphBuilder::build`].
fn sort_events(events: &mut [Event]) {
    if events.windows(2).all(|w| w[0].time <= w[1].time) {
        for ties in events.chunk_by_mut(|a, b| a.time == b.time) {
            ties.sort_unstable();
        }
    } else {
        events.sort_unstable();
    }
}

/// Remaps arbitrary (possibly sparse, e.g. hash-based) node identifiers to
/// the dense `0..n` space the graph requires, preserving first-appearance
/// order. Returns the dense events plus the forward map.
pub fn compact_node_ids(raw: &[(u64, u64, Time)]) -> (Vec<Event>, Vec<u64>) {
    let mut ids = NodeCompactor::new(2 * raw.len());
    let events = raw
        .iter()
        .map(|&(u, v, t)| {
            let src = ids.id(u);
            Event::new(src, ids.id(v), t)
        })
        .collect();
    (events, ids.into_names())
}

/// Maps raw node ids to dense `u32` ids in first-appearance order: the
/// one compaction routine behind [`compact_node_ids`], the edge-list
/// parser and [`crate::transform::compact_nodes`].
///
/// An id below the `dense_below` given to [`NodeCompactor::new`] looks
/// up a flat table, allocated (zeroed) on the first such id; a larger id
/// goes through std's keyed `HashMap`, so ids chosen to collide cost no
/// more than hashing every id would.
pub(crate) struct NodeCompactor {
    /// Dense id + 1 per raw id below `table`'s length; 0 = not seen yet.
    table: Vec<u32>,
    dense_below: usize,
    sparse: HashMap<u64, u32>,
    /// Raw id per dense id.
    names: Vec<u64>,
}

impl NodeCompactor {
    /// A compactor whose table covers raw ids `0..dense_below`.
    pub(crate) fn new(dense_below: usize) -> Self {
        NodeCompactor { table: Vec::new(), dense_below, sparse: HashMap::new(), names: Vec::new() }
    }

    /// The dense id of `raw`, minting the next one on first sight.
    #[inline]
    pub(crate) fn id(&mut self, raw: u64) -> u32 {
        let next = self.names.len() as u32;
        match usize::try_from(raw) {
            Ok(slot) if slot < self.dense_below => {
                if self.table.is_empty() {
                    self.table = vec![0; self.dense_below];
                }
                let entry = &mut self.table[slot];
                if *entry == 0 {
                    self.names.push(raw);
                    *entry = next + 1;
                }
                *entry - 1
            }
            _ => *self.sparse.entry(raw).or_insert_with(|| {
                self.names.push(raw);
                next
            }),
        }
    }

    /// The raw id of every dense id, in order.
    pub(crate) fn into_names(self) -> Vec<u64> {
        self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chained_build_sorts_events() {
        let g = TemporalGraphBuilder::new()
            .event(2, 3, 50)
            .event(0, 1, 10)
            .event(1, 2, 30)
            .build()
            .unwrap();
        let times: Vec<_> = g.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![10, 30, 50]);
        assert_eq!(g.num_nodes(), 4);
    }

    #[test]
    fn self_loop_rejected_by_default() {
        let err = TemporalGraphBuilder::new().event(1, 1, 5).build().unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { node: 1, time: 5 }));
    }

    #[test]
    fn self_loop_skipped_when_opted_in() {
        let g = TemporalGraphBuilder::new()
            .skip_self_loops(true)
            .event(1, 1, 5)
            .event(0, 1, 6)
            .build()
            .unwrap();
        assert_eq!(g.num_events(), 1);
    }

    #[test]
    fn empty_build_fails() {
        assert!(matches!(TemporalGraphBuilder::new().build(), Err(GraphError::Empty)));
    }

    #[test]
    fn node_hint_enforced() {
        let err = TemporalGraphBuilder::new().num_nodes(2).event(0, 5, 1).build().unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, num_nodes: 2 }));
        let g = TemporalGraphBuilder::new().num_nodes(10).event(0, 5, 1).build().unwrap();
        assert_eq!(g.num_nodes(), 10);
    }

    #[test]
    fn compact_ids_preserves_appearance_order() {
        let raw = vec![(100u64, 7u64, 1i64), (7, 100, 2), (9, 100, 3)];
        let (events, names) = compact_node_ids(&raw);
        assert_eq!(names, vec![100, 7, 9]);
        assert_eq!(events[0], Event::new(0u32, 1u32, 1));
        assert_eq!(events[1], Event::new(1u32, 0u32, 2));
        assert_eq!(events[2], Event::new(2u32, 0u32, 3));
    }

    /// The tie-run sort and the full-sort fallback both give `Event`'s
    /// total order: on logs already in time order (shuffled within tie
    /// runs) and on logs with inversions.
    #[test]
    fn tie_run_sort_matches_a_full_sort() {
        let mut state = 7u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        for case in 0..200 {
            let len = next(60) as usize;
            let mut time = 0;
            let mut events: Vec<Event> = (0..len)
                .map(|_| {
                    time += next(3) as Time;
                    let src = next(5) as u32;
                    Event::with_duration(src, (src + 1 + next(4) as u32) % 6, time, next(2) as u32)
                })
                .collect();
            if case % 2 == 1 && len > 1 {
                let (a, b) = (next(len as u64) as usize, next(len as u64) as usize);
                events.swap(a, b);
            }
            let mut expected = events.clone();
            expected.sort_unstable();
            sort_events(&mut events);
            assert_eq!(events, expected, "case {case}");
        }
    }

    #[test]
    fn push_and_len() {
        let mut b = TemporalGraphBuilder::with_capacity(4);
        assert!(b.is_empty());
        b.push(Event::new(0u32, 1u32, 1));
        assert_eq!(b.len(), 1);
    }
}
