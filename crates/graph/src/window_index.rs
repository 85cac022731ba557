//! Time-windowed candidate index: per-node CSR event lists with inline
//! timestamps and a per-event slot column.
//!
//! The motif walkers repeatedly answer one query: *"which events adjacent
//! to node `x` fall in the half-open time window `(after, upto]`?"*. The
//! node index on [`TemporalGraph`] can answer it, but every probe chases
//! `events[i].time` through an indirection. [`WindowIndex`] pairs each
//! node's event list with its timestamps stored **inline and
//! contiguous**, so a window is a run of one dense `i64` array and comes
//! back as a ready-made `&[EventIdx]` slice.
//!
//! Beside the times sits the **slot column**: for every event, its
//! position in its `src`'s and its `dst`'s span of the node index
//! ([`WindowIndex::slots`]). A walk that has just pushed event `c` knows
//! without a search where the window after `c` begins on both of `c`'s
//! endpoints, and the walker's other nodes keep a cursor that only moves
//! forward (see `tnm_motifs::engine::walker`). So a walk step costs the
//! candidates it returns plus the cursor moves, not two binary searches
//! per node.
//!
//! The index is a borrowed view, [`TemporalGraph::window_index`]: the
//! event lists *are* the graph's node index, and the time and slot
//! columns beside them are built by the graph on first use in one `O(m)`
//! pass (`2m` times and `m` slot pairs: `16m + 8m` bytes) and kept for
//! the graph's lifetime, like its SoA columns and triangle table. Every
//! windowed engine counting the same graph object therefore shares one
//! build, and a clone carries it along.
//!
//! [`TemporalGraph`]: crate::TemporalGraph
//! [`TemporalGraph::window_index`]: crate::TemporalGraph::window_index

use crate::event::Event;
use crate::ids::{EventIdx, NodeId, Time};

/// The columns a [`WindowIndex`] adds to the node index, built together
/// in one pass over the events.
#[derive(Debug, Clone)]
pub(crate) struct WindowColumns {
    /// `times[p]` is the timestamp of `node_events[p]`.
    times: Vec<Time>,
    /// `slots[i] = [p_src, p_dst]`: where event `i` sits in its `src`'s
    /// and its `dst`'s span of the node index.
    slots: Vec<[u32; 2]>,
}

impl WindowColumns {
    /// Builds both columns over the node index (`offsets`) of `events`
    /// in one pass in event order — the order that filled the node
    /// index, so each node's next free position is the event's slot.
    pub(crate) fn build(offsets: &[u32], events: &[Event]) -> Self {
        let mut next = offsets.to_vec();
        let mut times = vec![0; 2 * events.len()];
        let mut slots = Vec::with_capacity(events.len());
        for e in events {
            let (s, d) = (e.src.index(), e.dst.index());
            let (ps, pd) = (next[s], next[d]);
            next[s] = ps + 1;
            next[d] = pd + 1;
            times[ps as usize] = e.time;
            times[pd as usize] = e.time;
            slots.push([ps, pd]);
        }
        WindowColumns { times, slots }
    }
}

/// Per-node CSR event lists with timestamps stored inline, plus each
/// event's slot in its endpoints' lists.
///
/// See the [module docs](self) for why this beats the plain node index
/// for windowed candidate generation.
#[derive(Debug, Clone, Copy)]
pub struct WindowIndex<'g> {
    /// `offsets[n]..offsets[n+1]` is node `n`'s span in the two arrays.
    offsets: &'g [u32],
    /// Event indices, grouped by node, time-sorted within each group.
    event_ids: &'g [EventIdx],
    /// `times[i]` is the timestamp of `event_ids[i]` (dense).
    times: &'g [Time],
    /// Per event, its positions in `event_ids` (see [`WindowIndex::slots`]).
    slots: &'g [[u32; 2]],
}

impl<'g> WindowIndex<'g> {
    /// A view over a node index (`offsets`, `event_ids`) and the columns
    /// built beside it.
    pub(crate) fn new(
        offsets: &'g [u32],
        event_ids: &'g [EventIdx],
        cols: &'g WindowColumns,
    ) -> Self {
        debug_assert_eq!(event_ids.len(), cols.times.len());
        WindowIndex { offsets, event_ids, times: &cols.times, slots: &cols.slots }
    }

    /// Number of nodes covered.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of `(node, event)` incidences indexed (`2m`).
    #[inline]
    pub fn num_incidences(&self) -> usize {
        self.event_ids.len()
    }

    /// Node `node`'s full `(event_ids, times)` parallel slices.
    #[inline]
    pub fn node_slices(&self, node: NodeId) -> (&'g [EventIdx], &'g [Time]) {
        let span = self.span(node);
        (&self.event_ids[span.clone()], &self.times[span])
    }

    /// Node `node`'s span: its positions in [`WindowIndex::event_ids`]
    /// and [`WindowIndex::times`].
    #[inline]
    pub fn span(&self, node: NodeId) -> std::ops::Range<usize> {
        self.offsets[node.index()] as usize..self.offsets[node.index() + 1] as usize
    }

    /// Every node's event indices, concatenated in node order.
    #[inline]
    pub fn event_ids(&self) -> &'g [EventIdx] {
        self.event_ids
    }

    /// The timestamps aligned with [`WindowIndex::event_ids`].
    #[inline]
    pub fn times(&self) -> &'g [Time] {
        self.times
    }

    /// `[p_src, p_dst]`: the positions of event `idx` in
    /// [`WindowIndex::event_ids`] within its `src`'s and its `dst`'s
    /// span. Every later event of that node sits after it.
    #[inline]
    pub fn slots(&self, idx: EventIdx) -> [u32; 2] {
        self.slots[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TemporalGraphBuilder;
    use crate::graph::TemporalGraph;

    fn sample() -> TemporalGraph {
        TemporalGraphBuilder::new()
            .event(0, 1, 3)
            .event(1, 2, 7)
            .event(1, 3, 8)
            .event(2, 0, 9)
            .event(0, 2, 11)
            .event(2, 3, 15)
            .build()
            .unwrap()
    }

    #[test]
    fn matches_graph_node_index() {
        let g = sample();
        let ix = g.window_index();
        assert_eq!(ix.num_nodes(), g.num_nodes());
        assert_eq!(ix.num_incidences(), g.num_events() * 2);
        for n in 0..g.num_nodes() {
            let (ids, times) = ix.node_slices(NodeId(n));
            assert_eq!(ids, g.node_events(NodeId(n)));
            assert!(std::ptr::eq(ids, g.node_events(NodeId(n))), "the view borrows the node index");
            for (&i, &t) in ids.iter().zip(times) {
                assert_eq!(g.event(i).time, t);
            }
        }
    }

    /// Every event sits at its slots in its src's and its dst's span, so
    /// the window after it starts at `slot + 1` on both endpoints.
    #[test]
    fn slots_locate_each_event_in_both_endpoint_lists() {
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 3)
            .event(1, 0, 3)
            .event(0, 1, 3)
            .event(2, 0, 5)
            .event(0, 1, 9)
            .build()
            .unwrap();
        for g in [sample(), g] {
            let ix = g.window_index();
            for (i, e) in g.events().iter().enumerate() {
                for (node, slot) in [e.src, e.dst].into_iter().zip(ix.slots(i as EventIdx)) {
                    let slot = slot as usize;
                    assert!(ix.span(node).contains(&slot), "event {i} outside {node:?}'s span");
                    assert_eq!(ix.event_ids()[slot], i as EventIdx);
                    assert_eq!(ix.times()[slot], e.time);
                    let after = &ix.event_ids()[slot + 1..ix.span(node).end];
                    assert!(after.iter().all(|&j| j as usize > i));
                }
            }
        }
    }
}
