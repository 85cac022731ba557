//! The two graph lookups the benchmark harness (`perfbench/`) still
//! calls under their former cache names. Nothing else may use them.
//!
//! No cache sits behind either: both hand back the graph's window index
//! ([`TemporalGraph::window_index`]), which the graph builds once and
//! keeps, and `clear` has nothing to drop. The second lookup once
//! returned the static triangle table; the triangle pass now reads the
//! window index, so that is what it returns. They go with the benchmark
//! change that swaps perfbench's `graph.index_hit_ms`/`graph.proj_hit_ms`
//! probes for the `index.build` span.

use crate::graph::TemporalGraph;
use crate::window_index::WindowIndex;

/// The window-index lookup: see the [module docs](self).
pub fn global_index_cache() -> IndexLookup {
    IndexLookup
}

/// The lookup of what the triangle pass reads: see the
/// [module docs](self).
pub fn global_projection_cache() -> TrianglesLookup {
    TrianglesLookup
}

/// Returned by [`global_index_cache`].
#[derive(Debug, Clone, Copy)]
pub struct IndexLookup;

impl IndexLookup {
    /// The graph's own window index.
    pub fn get_or_build<'g>(&self, graph: &'g TemporalGraph) -> WindowIndex<'g> {
        graph.window_index()
    }

    /// A no-op: the index lives and dies with its graph.
    pub fn clear(&self) {}
}

/// Returned by [`global_projection_cache`].
#[derive(Debug, Clone, Copy)]
pub struct TrianglesLookup;

impl TrianglesLookup {
    /// The graph's own window index, the structure the triangle pass
    /// reads.
    pub fn get_or_build<'g>(&self, graph: &'g TemporalGraph) -> WindowIndex<'g> {
        graph.window_index()
    }

    /// A no-op: the index lives and dies with its graph.
    pub fn clear(&self) {}
}
