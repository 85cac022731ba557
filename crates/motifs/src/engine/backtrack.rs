//! [`BacktrackEngine`] — the seed repo's original serial walker.
//!
//! Candidate generation scans each node's plain event list from the
//! graph's node index. Kept (a) as the reference implementation every
//! other engine is differentially tested against, and (b) because for
//! unbounded-timing configurations on small graphs the index build of
//! the windowed engine buys nothing.

use crate::count::MotifCounts;
use crate::engine::config::{EnumConfig, MotifInstance};
use crate::engine::walker::{NodeListCandidates, Walker};
use crate::engine::CountEngine;
use tnm_graph::TemporalGraph;

/// Serial backtracking engine over the plain node index.
#[derive(Debug, Clone, Copy, Default)]
pub struct BacktrackEngine;

impl CountEngine for BacktrackEngine {
    fn name(&self) -> &'static str {
        "backtrack"
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
        let mut walker = Walker::new(graph, cfg, NodeListCandidates);
        walker.run_range_by_ref(0..graph.num_events(), callback);
    }
}
