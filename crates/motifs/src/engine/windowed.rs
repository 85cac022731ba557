//! [`WindowedEngine`](struct@WindowedEngine) — the backtracking walk
//! driven by a [`WindowIndex`](tnm_graph::WindowIndex), on a thread
//! budget.
//!
//! Each step's candidate windows start where the index's slot column
//! puts the event just pushed (for its endpoints) or where the walk's
//! per-depth cursors already stand (for the other nodes), end by a scan
//! over the inline timestamps, and arrive as ready slices — no search per
//! node per step, and under bounded timing no event outside the
//! admissible window is returned. Nor is an event the node budget or
//! Kovanen's consecutive-events rule would refuse (see
//! `WindowedCandidates` in the walker module). The graph builds the `O(m)` index on first use and keeps it
//! ([`TemporalGraph::window_index`]), so repeated counts of the same
//! graph build it once.
//!
//! Counting runs on the walk executor: one thread walks every start
//! event inline on the caller's thread; more threads claim start events
//! from a work-stealing cursor and merge their tables at join.

use crate::count::MotifCounts;
use crate::engine::config::{EnumConfig, MotifInstance};
use crate::engine::parallel::{merge_counts, walk_fold};
use crate::engine::walker::{Walker, WindowedCandidates};
use crate::engine::CountEngine;
use tnm_graph::TemporalGraph;

/// The walk over the window index with `threads` executor threads.
/// [`WindowedEngine::new`] sets the budget; the constant
/// [`WindowedEngine`](const@WindowedEngine) is the one-thread walk.
#[derive(Debug, Clone, Copy)]
pub struct WindowedEngine {
    threads: usize,
}

/// The one-thread walk as a value: `WindowedEngine.count(&g, &cfg)`.
#[allow(non_upper_case_globals)]
pub const WindowedEngine: WindowedEngine = WindowedEngine { threads: 1 };

impl WindowedEngine {
    /// The walk on `threads` executor threads (at least one).
    pub fn new(threads: usize) -> Self {
        WindowedEngine { threads: threads.max(1) }
    }

    /// Invokes `callback` once per instance, events in time order. This
    /// is the crate's one enumeration path: every front end that hands
    /// out instances ([`Query::Enumerate`](crate::engine::Query::Enumerate), the
    /// experiment drivers) calls it. A `&mut dyn FnMut` callback cannot
    /// be shared across workers, so it walks on the caller's thread
    /// whatever the budget, in ascending start-event order.
    pub fn enumerate(
        &self,
        graph: &TemporalGraph,
        cfg: &EnumConfig,
        callback: &mut dyn FnMut(&MotifInstance<'_>),
    ) {
        let mut walker = Walker::new(graph, cfg, WindowedCandidates::new(graph.window_index()));
        walker.run_range_by_ref(0..graph.num_events(), callback);
    }
}

impl CountEngine for WindowedEngine {
    fn name(&self) -> &'static str {
        "windowed"
    }

    fn count(&self, graph: &TemporalGraph, cfg: &EnumConfig) -> MotifCounts {
        // Build the window index (and the SoA columns it reads) before
        // any fan-out so no worker stalls on its first probe while
        // another builds them.
        let index = graph.window_index();
        merge_counts(walk_fold(
            0..graph.num_events(),
            self.threads,
            || Walker::new(graph, cfg, WindowedCandidates::new(index)),
            MotifCounts::new,
            |counts, inst| counts.add(inst.signature, 1),
        ))
    }
}
