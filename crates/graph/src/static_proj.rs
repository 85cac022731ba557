//! Static projection of a temporal network.
//!
//! The paper distinguishes *edges* (static projections, unique node pairs)
//! from *events* (timestamped interactions). Inducedness for Hulovatyy and
//! Paranjape models is defined against this projection, and the dataset
//! generator tests check its reciprocity.
//!
//! No counting engine reads a projection: static inducedness asks the
//! graph's own edge index ([`TemporalGraph::has_edge`]), and the
//! streaming triad class reads the triangle table the graph lists once
//! ([`TemporalGraph::triangles`]). For callers that want one projection
//! per graph, [`StaticProjectionCache`] (and the process-wide
//! [`global_projection_cache`]) share it through a [`VerifiedCache`]:
//! entries are keyed on the graph's event-buffer address and **exactly
//! verified** against the graph's content on every hit, outside the
//! cache lock, so a recycled allocation can never serve a stale
//! projection.

use crate::graph::TemporalGraph;
use crate::ids::{Edge, NodeId};
use crate::index_cache::{GraphDerived, VerifiedCache};
use std::collections::HashMap;
use std::sync::OnceLock;

/// The static directed graph underlying a temporal network, with
/// multiplicity (events-per-edge) information.
#[derive(Debug, Clone)]
pub struct StaticProjection {
    out_neighbors: Vec<Vec<NodeId>>,
    in_neighbors: Vec<Vec<NodeId>>,
    multiplicity: HashMap<Edge, u32>,
    /// Events of the graph this was built from, for [`Self::matches`].
    num_events: usize,
}

impl StaticProjection {
    /// Builds the projection from a temporal graph.
    pub fn from_graph(graph: &TemporalGraph) -> Self {
        let n = graph.num_nodes() as usize;
        let mut multiplicity: HashMap<Edge, u32> = HashMap::new();
        for e in graph.events() {
            *multiplicity.entry(e.edge()).or_insert(0) += 1;
        }
        let mut out_neighbors = vec![Vec::new(); n];
        let mut in_neighbors = vec![Vec::new(); n];
        for edge in multiplicity.keys() {
            out_neighbors[edge.src.index()].push(edge.dst);
            in_neighbors[edge.dst.index()].push(edge.src);
        }
        for list in out_neighbors.iter_mut().chain(in_neighbors.iter_mut()) {
            list.sort_unstable();
        }
        StaticProjection {
            out_neighbors,
            in_neighbors,
            multiplicity,
            num_events: graph.num_events(),
        }
    }

    /// True if this projection exactly describes `graph`: same node-id
    /// space, same event count, and an identical edge-multiplicity map
    /// recomputed from the graph's events. One `O(m)` counting pass plus
    /// a map comparison — cheaper than a rebuild (no neighbor-list
    /// allocation or sorting), and exact: two different graphs can never
    /// both match one projection.
    pub fn matches(&self, graph: &TemporalGraph) -> bool {
        if self.num_events != graph.num_events()
            || self.out_neighbors.len() != graph.num_nodes() as usize
        {
            return false;
        }
        let mut seen: HashMap<Edge, u32> = HashMap::with_capacity(self.multiplicity.len());
        for e in graph.events() {
            *seen.entry(e.edge()).or_insert(0) += 1;
        }
        seen == self.multiplicity
    }

    /// Distinct out-neighbors of `node`.
    pub fn out_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.out_neighbors[node.index()]
    }

    /// Distinct in-neighbors of `node`.
    pub fn in_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.in_neighbors[node.index()]
    }

    /// Static out-degree.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_neighbors[node.index()].len()
    }

    /// Static in-degree.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_neighbors[node.index()].len()
    }

    /// Number of events projected onto `edge` (0 if absent).
    pub fn multiplicity(&self, edge: Edge) -> u32 {
        self.multiplicity.get(&edge).copied().unwrap_or(0)
    }

    /// True if the directed edge exists.
    pub fn has_edge(&self, edge: Edge) -> bool {
        self.multiplicity.contains_key(&edge)
    }

    /// Number of distinct directed edges.
    pub fn num_edges(&self) -> usize {
        self.multiplicity.len()
    }

    /// Fraction of directed edges whose reverse edge also exists
    /// (a reciprocity measure: message networks are highly reciprocal,
    /// stack-exchange networks much less so).
    pub fn reciprocity(&self) -> f64 {
        if self.multiplicity.is_empty() {
            return 0.0;
        }
        let reciprocated = self
            .multiplicity
            .keys()
            .filter(|e| self.multiplicity.contains_key(&e.reversed()))
            .count();
        reciprocated as f64 / self.multiplicity.len() as f64
    }
}

/// Number of graphs the [`global_projection_cache`] retains (LRU beyond
/// this).
pub const DEFAULT_PROJECTION_CACHE_CAPACITY: usize = 8;

impl GraphDerived for StaticProjection {
    const METRIC_PREFIX: &'static str = "cache.proj";

    fn build(graph: &TemporalGraph) -> Self {
        StaticProjection::from_graph(graph)
    }

    fn matches(&self, graph: &TemporalGraph) -> bool {
        StaticProjection::matches(self, graph)
    }
}

/// The shared [`StaticProjection`] cache type.
pub type StaticProjectionCache = VerifiedCache<StaticProjection>;

/// The process-wide projection cache, shared by every caller that asks
/// for a graph's projection through it.
pub fn global_projection_cache() -> &'static StaticProjectionCache {
    static CACHE: OnceLock<StaticProjectionCache> = OnceLock::new();
    CACHE.get_or_init(|| StaticProjectionCache::new(DEFAULT_PROJECTION_CACHE_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TemporalGraphBuilder;
    use crate::index_cache::tests as cache_checks;

    fn sample() -> StaticProjection {
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 1)
            .event(0, 1, 5)
            .event(1, 0, 7)
            .event(1, 2, 9)
            .event(2, 0, 11)
            .build()
            .unwrap();
        StaticProjection::from_graph(&g)
    }

    #[test]
    fn neighbors_and_degrees() {
        let p = sample();
        assert_eq!(p.out_neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(p.out_neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(p.in_neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(p.out_degree(NodeId(1)), 2);
        assert_eq!(p.in_degree(NodeId(2)), 1);
    }

    #[test]
    fn multiplicity_counts_events() {
        let p = sample();
        assert_eq!(p.multiplicity(Edge::new(0u32, 1u32)), 2);
        assert_eq!(p.multiplicity(Edge::new(1u32, 0u32)), 1);
        assert_eq!(p.multiplicity(Edge::new(2u32, 1u32)), 0);
        assert_eq!(p.num_edges(), 4);
    }

    #[test]
    fn reciprocity_ratio() {
        let p = sample();
        // Edges: 0->1, 1->0 (reciprocated pair), 1->2, 2->0.
        // Reciprocated directed edges: 0->1 and 1->0 => 2 of 4.
        assert!((p.reciprocity() - 0.5).abs() < 1e-12);
    }

    fn graph(seed: i64, events: usize) -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        for i in 0..events as i64 {
            let u = ((i + seed) % 7) as u32;
            let v = ((i + seed + 1 + i % 3) % 7) as u32;
            let v = if v == u { (v + 1) % 7 } else { v };
            b.push(crate::event::Event::new(u, v, seed + i * 2));
        }
        b.build().unwrap()
    }

    #[test]
    fn cache_hits_verified_and_shared() {
        cache_checks::check_cached_values_match::<StaticProjection>();
    }

    #[test]
    fn cache_evicts_lru_and_clears() {
        for check in [
            cache_checks::check_lru::<StaticProjection>,
            cache_checks::check_clear_and_floor::<StaticProjection>,
        ] {
            check();
        }
    }

    #[test]
    fn global_cache_is_shared() {
        let g = graph(9, 50);
        let a = global_projection_cache().get_or_build(&g);
        let b = global_projection_cache().get_or_build(&g);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn matches_is_exact() {
        let g = graph(1, 60);
        let p = StaticProjection::from_graph(&g);
        assert!(p.matches(&g));
        // A clone has identical content: matches (identity is the
        // *cache's* concern, content verification is this method's).
        assert!(p.matches(&g.clone()));
        // Same edges, different multiplicities: rejected.
        let mut b = TemporalGraphBuilder::new();
        b.push(crate::event::Event::new(0u32, 1u32, 0));
        b.push(crate::event::Event::new(0u32, 1u32, 1));
        b.push(crate::event::Event::new(1u32, 2u32, 2));
        let a = b.build().unwrap();
        let mut b = TemporalGraphBuilder::new();
        b.push(crate::event::Event::new(0u32, 1u32, 0));
        b.push(crate::event::Event::new(1u32, 2u32, 1));
        b.push(crate::event::Event::new(1u32, 2u32, 2));
        let c = b.build().unwrap();
        assert!(!StaticProjection::from_graph(&a).matches(&c));
        assert!(!StaticProjection::from_graph(&c).matches(&a));
        assert!(!p.matches(&graph(2, 60)));
        assert!(!p.matches(&graph(1, 59)));
    }
}
