//! The two graph lookups the benchmark harness (`perfbench/`) still
//! calls under their former cache names. Nothing else may use them.
//!
//! No cache sits behind either: each hands back a structure the graph
//! already builds once and keeps ([`TemporalGraph::window_index`],
//! [`TemporalGraph::triangles`]), and `clear` has nothing to drop. They
//! go with the benchmark change that swaps perfbench's
//! `graph.index_hit_ms`/`graph.proj_hit_ms` probes for the
//! `index.build` span and a `graph.triangles_ms` probe.

use crate::graph::TemporalGraph;
use crate::triangles::Triangles;
use crate::window_index::WindowIndex;

/// The window-index lookup: see the [module docs](self).
pub fn global_index_cache() -> IndexLookup {
    IndexLookup
}

/// The static-structure lookup: see the [module docs](self).
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
    /// The graph's own triangle table, the static structure the
    /// engines read.
    pub fn get_or_build<'g>(&self, graph: &'g TemporalGraph) -> Triangles<'g> {
        graph.triangles()
    }

    /// A no-op: the table lives and dies with its graph.
    pub fn clear(&self) {}
}
