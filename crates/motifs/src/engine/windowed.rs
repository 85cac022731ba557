//! [`WindowedEngine`] — the backtracking walk driven by a
//! [`WindowIndex`](tnm_graph::WindowIndex).
//!
//! Identical walk, different candidate generation: the per-node CSR
//! timestamp arrays let both ΔC/ΔW window endpoints resolve with binary
//! searches and the candidates arrive as a ready slice, so under bounded
//! timing the walker never touches an event outside the admissible
//! window. The graph builds the `O(m)` index on first use and keeps it
//! ([`TemporalGraph::window_index`]), so repeated counts of the same
//! graph build it once — but see
//! [`BacktrackEngine`](crate::engine::BacktrackEngine) for the
//! degenerate cases where even a built index is not worth consulting.

use crate::count::MotifCounts;
use crate::engine::config::{EnumConfig, MotifInstance};
use crate::engine::walker::{Walker, WindowedCandidates};
use crate::engine::CountEngine;
use tnm_graph::TemporalGraph;

/// Serial backtracking engine over a time-windowed candidate index.
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
