//! Time-slice sharding: the planner and materialized shard views.
//!
//! δ-bounded motif enumeration has a locality property the paper's
//! evaluation leans on (and Paranjape et al. make explicit): an instance
//! whose first event happens at time `t` lies entirely inside
//! `[t, t + reach]`, where `reach` is the largest admissible
//! first-to-last timespan (`min(ΔC·(k−1), ΔW)`, duration-widened for
//! duration-aware ΔC). A time-ordered event log therefore splits into
//! contiguous **shards** that only interact through a bounded trailing
//! **halo**, and each shard can be counted independently — one at a
//! time in one process, or shipped as an event file to a worker
//! process.
//!
//! Two pieces live here:
//!
//! * [`plan_shards`] — partitions the event range into owned start-event
//!   slices ([`ShardSpec::own`]) and computes each shard's materialized
//!   range ([`ShardSpec::range`]): the owned slice plus a **left pad**
//!   (earlier events sharing the first owned timestamp) and the trailing
//!   halo (every event within `reach` of the last owned start).
//!   Ownership is by start event, so instance sets of different shards
//!   are disjoint — nothing is counted twice, nothing is missed.
//! * [`materialize`] — an independent [`TemporalGraph`] over one shard's
//!   event slice, in the parent's node-id space. Its event `i` is parent
//!   event `range.start + i`, and [`ShardSpec::own_local`] names its
//!   owned starts.
//!
//! ## What a shard graph can and cannot answer
//!
//! The pad+halo construction guarantees a shard contains **every** graph
//! event with time in `[first owned time, last owned time + reach]`.
//! Time-windowed queries inside that closed interval — candidate
//! generation, Kovanen's consecutive-events counts, Hulovatyy's
//! constrained-freshness counts — answer identically on the shard and on
//! the parent. The one graph-global question a time slice cannot answer
//! is **static-projection membership** (`has_edge` over the whole
//! timeline). Node ids are the parent's, so the sharded engine in
//! `tnm-motifs` asks the parent graph instead: inside the walk when the
//! parent is in the same process, per aggregated instance group on the
//! coordinator when a worker process walked the shard.

use crate::graph::TemporalGraph;
use crate::ids::Time;
use std::ops::Range;

/// How [`plan_shards`] sizes the owned slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardGoal {
    /// Target this many owned start events per shard.
    EventsPerShard(usize),
    /// Split into this many shards of near-equal owned size.
    ShardCount(usize),
}

/// One planned shard: which start events it owns and which event slice
/// it materializes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard position in time order (0-based).
    pub id: usize,
    /// Global indices of the start events this shard **owns**: walks are
    /// launched only from these, which is what makes per-shard instance
    /// sets disjoint.
    pub own: Range<usize>,
    /// Global indices of the events the shard **materializes**:
    /// `own` widened by the left pad (earlier events sharing
    /// `events[own.start]`'s timestamp, needed by inclusive
    /// restriction windows) and the trailing halo (events within `reach`
    /// of the last owned start's time).
    pub range: Range<usize>,
}

impl ShardSpec {
    /// Number of owned start events.
    pub fn num_owned(&self) -> usize {
        self.own.len()
    }

    /// Number of materialized events (owned + pad + halo).
    pub fn num_events(&self) -> usize {
        self.range.len()
    }

    /// Number of trailing halo events.
    pub fn halo_len(&self) -> usize {
        self.range.end - self.own.end
    }

    /// Number of left-pad events (equal-timestamp run before the first
    /// owned event).
    pub fn pad_len(&self) -> usize {
        self.own.start - self.range.start
    }

    /// The owned slice in shard-local coordinates.
    pub fn own_local(&self) -> Range<usize> {
        (self.own.start - self.range.start)..(self.own.end - self.range.start)
    }
}

/// The output of [`plan_shards`]: per-shard specs plus the reach they
/// were planned for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// The halo reach used (`None` = unbounded timing: one shard).
    pub reach: Option<Time>,
    /// Shard specs in time order.
    pub shards: Vec<ShardSpec>,
}

impl ShardPlan {
    /// Number of planned shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the plan holds no shards (empty graph).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The largest materialized shard (events incl. pad and halo) — the
    /// most events a sharded run holds in one shard graph.
    pub fn max_shard_events(&self) -> usize {
        self.shards.iter().map(ShardSpec::num_events).max().unwrap_or(0)
    }

    /// Total materialized events across shards (≥ the graph's event
    /// count; the excess is pad/halo duplication).
    pub fn total_materialized_events(&self) -> usize {
        self.shards.iter().map(ShardSpec::num_events).sum()
    }
}

/// Plans contiguous time-slice shards over `graph`'s event range.
///
/// `reach` is the largest admissible first-to-last instance timespan
/// (see the [module docs](self)); `None` means unbounded timing, for
/// which every halo would cover the rest of the log, so the plan
/// degenerates to a single shard. Owned ranges partition `0..m`
/// exactly; materialized ranges overlap through their pads and halos.
pub fn plan_shards(graph: &TemporalGraph, reach: Option<Time>, goal: ShardGoal) -> ShardPlan {
    let m = graph.num_events();
    if m == 0 {
        return ShardPlan { reach, shards: Vec::new() };
    }
    let Some(reach) = reach else {
        return ShardPlan {
            reach: None,
            shards: vec![ShardSpec { id: 0, own: 0..m, range: 0..m }],
        };
    };
    let target = match goal {
        ShardGoal::EventsPerShard(n) => n.max(1),
        ShardGoal::ShardCount(c) => m.div_ceil(c.max(1)),
    };
    // Left-pad and halo scans probe the dense SoA time column: the
    // binary searches touch 8-byte rows instead of 24-byte `Event`s.
    let times = graph.times();
    let mut shards = Vec::with_capacity(m.div_ceil(target));
    let mut lo = 0usize;
    while lo < m {
        let hi = (lo + target).min(m);
        let first_owned_time = times[lo];
        let pad_start = times.partition_point(|&t| t < first_owned_time);
        let t_hi = times[hi - 1].saturating_add(reach);
        let halo_end = times.partition_point(|&t| t <= t_hi);
        shards.push(ShardSpec { id: shards.len(), own: lo..hi, range: pad_start..halo_end });
        lo = hi;
    }
    ShardPlan { reach: Some(reach), shards }
}

/// Builds the shard graph from the parent's already-sorted event slice.
/// The parent's node count is kept so node ids remain valid across the
/// shard boundary.
pub fn materialize(graph: &TemporalGraph, spec: &ShardSpec) -> TemporalGraph {
    let events = graph.events()[spec.range.clone()].to_vec();
    TemporalGraph::from_sorted_events(events, graph.num_nodes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TemporalGraphBuilder;
    use crate::event::Event;
    use crate::ids::EventIdx;

    /// 40 events over 20 nodes with duplicate timestamps (two events per
    /// tick) so cuts land inside tie runs.
    fn tied_graph() -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        for i in 0..40u32 {
            let t = (i / 2) as Time; // ties: events 2k and 2k+1 share t=k
            b.push(Event::new(i % 19, (i % 19) + 1, t));
        }
        b.build().unwrap()
    }

    fn check_plan_invariants(graph: &TemporalGraph, plan: &ShardPlan) {
        let m = graph.num_events();
        let events = graph.events();
        // Owned ranges partition 0..m.
        let mut next = 0usize;
        for s in &plan.shards {
            assert_eq!(s.own.start, next, "shard {} ownership gap", s.id);
            assert!(!s.own.is_empty());
            next = s.own.end;
            // Materialized range covers the owned range.
            assert!(s.range.start <= s.own.start && s.own.end <= s.range.end);
            // Left pad: everything sharing the first owned timestamp.
            let t_lo = events[s.own.start].time;
            if s.range.start > 0 {
                assert!(events[s.range.start - 1].time < t_lo, "pad too short");
            }
            assert!(events[s.range.start].time >= t_lo);
            // Halo: everything within reach of the last owned start.
            if let Some(reach) = plan.reach {
                let t_hi = events[s.own.end - 1].time.saturating_add(reach);
                if s.range.end < m {
                    assert!(events[s.range.end].time > t_hi, "halo too short");
                }
                assert!(events[s.range.end - 1].time <= t_hi, "halo too long");
            }
        }
        assert_eq!(next, m, "ownership must cover the whole event range");
    }

    #[test]
    fn plan_partitions_and_halos() {
        let g = tied_graph();
        for target in [1usize, 3, 7, 16, 100] {
            for reach in [0i64, 2, 5, 100] {
                let plan = plan_shards(&g, Some(reach), ShardGoal::EventsPerShard(target));
                check_plan_invariants(&g, &plan);
            }
        }
        let by_count = plan_shards(&g, Some(3), ShardGoal::ShardCount(4));
        assert_eq!(by_count.len(), 4);
        check_plan_invariants(&g, &by_count);
    }

    #[test]
    fn unbounded_reach_is_one_shard() {
        let g = tied_graph();
        let plan = plan_shards(&g, None, ShardGoal::EventsPerShard(4));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.shards[0].own, 0..g.num_events());
        assert_eq!(plan.shards[0].range, 0..g.num_events());
    }

    #[test]
    fn pad_covers_equal_timestamps_on_the_cut() {
        let g = tied_graph();
        // Odd target: some cuts fall between two events sharing a tick.
        let plan = plan_shards(&g, Some(2), ShardGoal::EventsPerShard(3));
        let cut_inside_tie = plan.shards.iter().any(|s| s.pad_len() > 0);
        assert!(cut_inside_tie, "test graph must produce a cut inside a tie run");
        for s in &plan.shards {
            let t_lo = g.events()[s.own.start].time;
            for e in &g.events()[s.range.start..s.own.start] {
                assert_eq!(e.time, t_lo, "pad may only hold the equal-timestamp run");
            }
        }
    }

    #[test]
    fn materialized_shard_matches_parent_slice() {
        let g = tied_graph();
        let plan = plan_shards(&g, Some(3), ShardGoal::EventsPerShard(7));
        for spec in &plan.shards {
            let shard = materialize(&g, spec);
            assert_eq!(shard.events(), &g.events()[spec.range.clone()]);
            assert_eq!(shard.num_nodes(), g.num_nodes());
            let local = spec.own_local();
            assert_eq!(local.len(), spec.num_owned());
            for l in local {
                let global = spec.range.start + l;
                assert!(spec.own.contains(&global));
                assert_eq!(shard.event(l as EventIdx), g.event(global as EventIdx));
            }
        }
    }
}
