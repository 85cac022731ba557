//! The per-shard walk both transports run (see the `engine::sharded`
//! module docs).

use super::protocol::InducedGroup;
use crate::count::MotifCounts;
use crate::engine::config::{EnumConfig, MotifInstance};
use crate::engine::parallel::{merge_counts, walk_fold};
use crate::engine::walker::{Walker, WindowedCandidates};
use crate::notation::MotifSignature;
use std::collections::HashMap;
use std::ops::Range;
use tnm_graph::window_index::WindowIndex;
use tnm_graph::TemporalGraph;

/// One shard prepared for walking: the configuration the walk applies,
/// the graph it reads static edges from, and the shard graph's own
/// window index, built before any walker fans out and dropped with the
/// shard.
pub(super) struct ShardWalk<'g> {
    graph: &'g TemporalGraph,
    statics: &'g TemporalGraph,
    own: Range<usize>,
    cfg: EnumConfig,
    index: WindowIndex<'g>,
}

impl<'g> ShardWalk<'g> {
    /// Prepares a walk launching only from the shard-local starts `own`.
    /// With the `parent` graph at hand, the walk checks static
    /// inducedness itself against the parent's edges (shard graphs keep
    /// the parent's node ids). Without it — in a worker process — the
    /// check is stripped, and the coordinator re-checks the walk's
    /// [`induced_groups`](Self::induced_groups) against the parent.
    pub(super) fn new(
        graph: &'g TemporalGraph,
        parent: Option<&'g TemporalGraph>,
        own: Range<usize>,
        cfg: &EnumConfig,
    ) -> Self {
        let mut cfg = cfg.clone();
        if parent.is_none() {
            cfg.static_induced = false;
        }
        let statics = parent.unwrap_or(graph);
        ShardWalk { graph, statics, own, cfg, index: graph.window_index() }
    }

    fn walker(&self) -> Walker<'_, WindowedCandidates<'_>> {
        Walker::new(self.graph, &self.cfg, WindowedCandidates::new(self.index))
            .with_static_edges(self.statics)
    }

    /// Counts the owned instances.
    pub(super) fn count(&self, threads: usize) -> MotifCounts {
        merge_counts(walk_fold(
            self.own.clone(),
            threads,
            || self.walker(),
            MotifCounts::new,
            |counts, inst| counts.add(inst.signature, 1),
        ))
    }

    /// Aggregates the owned instances into `(signature, node set,
    /// covered edges)` groups for the coordinator's static-inducedness
    /// recheck. Shard node ids are parent ids already. Per-thread
    /// maps merge with u64 additions (commutative), and the final sort
    /// makes the groups deterministic at any thread count.
    pub(super) fn induced_groups(&self, threads: usize) -> Vec<InducedGroup> {
        type GroupKey = (MotifSignature, Vec<u32>, Vec<(u32, u32)>);
        let tally = |map: &mut HashMap<GroupKey, u64>, inst: &MotifInstance<'_>| {
            let mut nodes: Vec<u32> = Vec::with_capacity(2 * inst.events.len());
            let mut covered: Vec<(u32, u32)> = Vec::with_capacity(inst.events.len());
            for &idx in inst.events {
                let e = self.graph.event(idx);
                nodes.push(e.src.0);
                nodes.push(e.dst.0);
                covered.push((e.src.0, e.dst.0));
            }
            nodes.sort_unstable();
            nodes.dedup();
            covered.sort_unstable();
            covered.dedup();
            *map.entry((inst.signature, nodes, covered)).or_insert(0) += 1;
        };
        let mut locals =
            walk_fold(self.own.clone(), threads, || self.walker(), HashMap::new, tally).into_iter();
        let mut merged = locals.next().unwrap_or_default();
        for local in locals {
            for (key, n) in local {
                *merged.entry(key).or_insert(0) += n;
            }
        }
        let mut groups: Vec<InducedGroup> = merged
            .into_iter()
            .map(|((signature, nodes, covered), count)| InducedGroup {
                signature,
                nodes,
                covered,
                count,
            })
            .collect();
        groups.sort_unstable_by(|a, b| {
            (a.signature, &a.nodes, &a.covered).cmp(&(b.signature, &b.nodes, &b.covered))
        });
        groups
    }
}
