//! Time-windowed candidate index: per-node CSR event lists with inline
//! timestamps.
//!
//! The motif walkers repeatedly answer one query: *"which events adjacent
//! to node `x` fall in the half-open time window `(after, upto]`?"*. The
//! node index on [`TemporalGraph`] can answer it, but every probe chases
//! `events[i].time` through an indirection, and the upper bound is found
//! by a linear scan. [`WindowIndex`] pairs each node's event list with
//! its timestamps stored **inline and contiguous**, so both window
//! endpoints resolve with `partition_point` binary searches over a dense
//! `i64` array and the result comes back as a ready-made `&[EventIdx]`
//! slice — no per-element time checks, no indirection,
//! cache-line-friendly.
//!
//! The index is a borrowed view, [`TemporalGraph::window_index`]: the
//! event lists *are* the graph's node index, and the timestamp column
//! beside them is built by the graph on first use (`O(m)` time, `2m`
//! words) and kept for the graph's lifetime, like its SoA columns and
//! triangle table. Every windowed engine counting the same graph
//! object therefore shares one column, and a clone carries it along.
//!
//! [`TemporalGraph`]: crate::TemporalGraph
//! [`TemporalGraph::window_index`]: crate::TemporalGraph::window_index

use crate::ids::{EventIdx, NodeId, Time};

/// Per-node CSR event lists with timestamps stored inline.
///
/// See the [module docs](self) for why this beats the plain node index
/// for windowed candidate generation.
#[derive(Debug, Clone, Copy)]
pub struct WindowIndex<'g> {
    /// `offsets[n]..offsets[n+1]` is node `n`'s span in the two arrays.
    offsets: &'g [u32],
    /// Event indices, grouped by node, time-sorted within each group.
    event_ids: &'g [EventIdx],
    /// `times[i]` is the timestamp of `event_ids[i]` (dense, searchable).
    times: &'g [Time],
}

impl<'g> WindowIndex<'g> {
    /// A view over a node index (`offsets`, `event_ids`) and the time
    /// column aligned with it.
    pub(crate) fn new(offsets: &'g [u32], event_ids: &'g [EventIdx], times: &'g [Time]) -> Self {
        debug_assert_eq!(event_ids.len(), times.len());
        WindowIndex { offsets, event_ids, times }
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
        let lo = self.offsets[node.index()] as usize;
        let hi = self.offsets[node.index() + 1] as usize;
        (&self.event_ids[lo..hi], &self.times[lo..hi])
    }

    /// Event indices adjacent to `node` with time in `(after, upto]`
    /// (`upto = None` means unbounded above). Both endpoints are resolved
    /// by binary search on the inline timestamp array.
    #[inline]
    pub fn events_in(&self, node: NodeId, after: Time, upto: Option<Time>) -> &'g [EventIdx] {
        let (ids, times) = self.node_slices(node);
        let start = times.partition_point(|&t| t <= after);
        let end = match upto {
            Some(b) => {
                // Search only the tail that survived the lower bound.
                start + times[start..].partition_point(|&t| t <= b)
            }
            None => ids.len(),
        };
        &ids[start..end]
    }

    /// Position (within `node`'s span) of the first event with
    /// `time > t`; equals the span length when none qualifies.
    #[inline]
    pub fn first_after(&self, node: NodeId, t: Time) -> usize {
        let (_, times) = self.node_slices(node);
        times.partition_point(|&x| x <= t)
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

    #[test]
    fn window_queries_agree_with_scan() {
        let g = sample();
        let ix = g.window_index();
        for n in 0..g.num_nodes() {
            let node = NodeId(n);
            for after in 0..20 {
                for upto in after..20 {
                    let fast = ix.events_in(node, after, Some(upto));
                    let slow: Vec<EventIdx> = g
                        .node_events(node)
                        .iter()
                        .copied()
                        .filter(|&i| {
                            let t = g.event(i).time;
                            t > after && t <= upto
                        })
                        .collect();
                    assert_eq!(fast, slow.as_slice(), "node {n} ({after},{upto}]");
                }
                let unbounded = ix.events_in(node, after, None);
                let slow: Vec<EventIdx> = g
                    .node_events(node)
                    .iter()
                    .copied()
                    .filter(|&i| g.event(i).time > after)
                    .collect();
                assert_eq!(unbounded, slow.as_slice());
            }
        }
    }

    #[test]
    fn first_after_boundaries() {
        let g = sample();
        let ix = g.window_index();
        // Node 2 events at times 7, 9, 11, 15.
        assert_eq!(ix.first_after(NodeId(2), 0), 0);
        assert_eq!(ix.first_after(NodeId(2), 7), 1);
        assert_eq!(ix.first_after(NodeId(2), 10), 2);
        assert_eq!(ix.first_after(NodeId(2), 15), 4);
    }
}
