//! The per-shard walk both transports run, and the in-thread
//! transport's per-instance static-inducedness recheck (see the
//! `engine::sharded` module docs).

use super::protocol::InducedGroup;
use crate::count::MotifCounts;
use crate::engine::config::{EnumConfig, MotifInstance};
use crate::engine::parallel::{merge_counts, walk_fold};
use crate::engine::walker::{Walker, WindowedCandidates};
use crate::induced::static_induced_ok;
use crate::notation::MotifSignature;
use std::collections::HashMap;
use std::ops::Range;
use tnm_graph::shard::Shard;
use tnm_graph::window_index::WindowIndex;
use tnm_graph::{EventIdx, TemporalGraph};

/// One shard prepared for walking: the caller's configuration with
/// static inducedness stripped (the caller re-checks it against the
/// parent), and the shard graph's own window index, built before any
/// walker fans out and dropped with the shard.
pub(super) struct ShardWalk<'g> {
    graph: &'g TemporalGraph,
    own: Range<usize>,
    cfg: EnumConfig,
    index: WindowIndex<'g>,
}

impl<'g> ShardWalk<'g> {
    /// Prepares a walk launching only from the shard-local starts `own`.
    pub(super) fn new(graph: &'g TemporalGraph, own: Range<usize>, cfg: &EnumConfig) -> Self {
        let mut cfg = cfg.clone();
        cfg.static_induced = false;
        ShardWalk { graph, own, cfg, index: graph.window_index() }
    }

    fn walker(&self) -> Walker<'_, WindowedCandidates<'_>> {
        Walker::new(self.graph, &self.cfg, WindowedCandidates::new(self.index))
    }

    /// Visits the owned instances serially, in start-event order.
    fn run(&self, visit: impl FnMut(&MotifInstance<'_>)) {
        self.walker().run_range(self.own.clone(), visit);
    }

    /// Counts the owned instances that pass `keep`.
    pub(super) fn count(
        &self,
        threads: usize,
        keep: impl Fn(&MotifInstance<'_>) -> bool + Sync,
    ) -> MotifCounts {
        merge_counts(walk_fold(
            self.own.clone(),
            threads,
            || self.walker(),
            MotifCounts::new,
            |counts, inst| {
                if keep(inst) {
                    counts.add(inst.signature, 1);
                }
            },
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

/// Evaluates static inducedness of a shard-local instance against the
/// **parent** graph by translating its event indices.
fn induced_in_parent(parent: &TemporalGraph, shard: &Shard, local_events: &[EventIdx]) -> bool {
    const STACK_EVENTS: usize = 16;
    let n = local_events.len();
    if n <= STACK_EVENTS {
        let mut buf = [0 as EventIdx; STACK_EVENTS];
        for (b, &l) in buf.iter_mut().zip(local_events) {
            *b = shard.to_global(l);
        }
        static_induced_ok(parent, &buf[..n])
    } else {
        let global: Vec<EventIdx> = local_events.iter().map(|&l| shard.to_global(l)).collect();
        static_induced_ok(parent, &global)
    }
}

/// Counts one in-memory shard's owned instances, re-checking static
/// inducedness per instance against the parent.
pub(super) fn count_shard(
    parent: &TemporalGraph,
    shard: &Shard,
    cfg: &EnumConfig,
    threads: usize,
) -> MotifCounts {
    let need_induced = cfg.static_induced;
    ShardWalk::new(shard.graph(), shard.own_local(), cfg)
        .count(threads, |inst| !need_induced || induced_in_parent(parent, shard, inst.events))
}

/// Enumerates one in-memory shard's owned instances in serial start
/// order, handing the callback instances whose event indices are
/// translated to the parent graph.
pub(super) fn enumerate_shard(
    parent: &TemporalGraph,
    shard: &Shard,
    cfg: &EnumConfig,
    callback: &mut dyn FnMut(&MotifInstance<'_>),
) {
    let need_induced = cfg.static_induced;
    let mut global = vec![0 as EventIdx; cfg.num_events];
    ShardWalk::new(shard.graph(), shard.own_local(), cfg).run(|inst| {
        if need_induced && !induced_in_parent(parent, shard, inst.events) {
            return;
        }
        for (g, &l) in global.iter_mut().zip(inst.events) {
            *g = shard.to_global(l);
        }
        let translated =
            MotifInstance { events: &global[..inst.events.len()], signature: inst.signature };
        callback(&translated);
    });
}
