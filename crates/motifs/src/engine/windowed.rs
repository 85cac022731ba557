//! [`WindowedEngine`] — the backtracking walk driven by a
//! [`WindowIndex`](tnm_graph::WindowIndex).
//!
//! Identical walk, different candidate generation: each step's windows
//! start where the index's slot column puts the event just pushed (for
//! its endpoints) or where the walk's per-depth cursors already stand
//! (for the other nodes), end by a scan over the inline timestamps, and
//! arrive as ready slices — no search per node per step, and under
//! bounded timing no event outside the admissible window is returned
//! (see `WindowedCandidates` in the walker module). The graph builds the
//! `O(m)` index on first use and keeps it
//! ([`TemporalGraph::window_index`]), so repeated counts of the same
//! graph build it once — but see
//! [`BacktrackEngine`](crate::engine::BacktrackEngine) for the
//! degenerate cases where even a built index is not worth consulting.

use crate::count::MotifCounts;
use crate::engine::config::{EnumConfig, MotifInstance};
use crate::engine::walker::{Walker, WindowedCandidates};
use crate::engine::CountEngine;
use tnm_graph::TemporalGraph;

/// Serial backtracking engine over a time-windowed candidate index, one
/// `WindowedCandidates` cursor set per count.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowedEngine;

impl CountEngine for WindowedEngine {
    fn name(&self) -> &'static str {
        "windowed"
    }

    fn count(&self, graph: &TemporalGraph, cfg: &EnumConfig) -> MotifCounts {
        let mut counts = MotifCounts::new();
        self.enumerate(graph, cfg, &mut |inst| counts.add(inst.signature, 1));
        counts
    }

    fn enumerate(
        &self,
        graph: &TemporalGraph,
        cfg: &EnumConfig,
        callback: &mut dyn FnMut(&MotifInstance<'_>),
    ) {
        let mut walker = Walker::new(graph, cfg, WindowedCandidates::new(graph.window_index()));
        walker.run_range_by_ref(0..graph.num_events(), callback);
    }
}
