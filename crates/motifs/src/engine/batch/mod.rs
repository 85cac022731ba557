//! Batch multi-query planning: answer many configurations in few
//! traversals.
//!
//! Every figure/table reproduction and every production-shaped workload
//! asks many questions of one graph — all 36 Paranjape 3-event motifs,
//! ΔW/ΔC-ratio sweeps, restricted-vs-unrestricted model comparisons —
//! yet a naive loop pays a full independent traversal per
//! [`EnumConfig`]. Both traversal families already do the work for the
//! whole batch:
//!
//! * a **walk** with the *widest* timing of a group visits a superset
//!   of every member's instances — the members' tighter ΔC/ΔW windows,
//!   node bounds, and signature targets are per-instance predicates,
//!   not walk shapes;
//! * the **stream DP** pass computes all 2-/3-node sequence counts at
//!   once — a single config's answer was always a final projection of
//!   the pair/star/triad tables.
//!
//! [`BatchPlanner`] exploits both: it groups configs by shared walk
//! shape (identical restriction flags, event budget, and node budget —
//! the parts that change *which* sequences a walk may extend or emit)
//! and answers each group in **one traversal**, demoting the per-config
//! differences to emission-time masks:
//!
//! * members' ΔC/ΔW windows → once-per-instance span / max-gap checks
//!   against the group walk's component-wise widest timing;
//! * members' `min_nodes` / signature targets → a per-signature
//!   acceptance set, computed lazily once per distinct signature;
//! * when *every* member targets a signature, the shared walk prunes to
//!   the union of their pair prefixes via
//!   [`PrefixFilter`](crate::engine::walker::PrefixFilter).
//!
//! Stream-eligible ΔW-only configs group by `(ΔW, num_events)` instead
//! and share a single [`StreamEngine::spectrum`] DP pass, each member's
//! counts projected from the shared tables — so the canonical "all 36
//! Paranjape motifs" batch costs one DP pass plus 36 projections
//! instead of 36 passes.
//!
//! Two guardrails keep a plan from ever being *worse* than the loop:
//!
//! * a config only joins a walk group if the merged timing still bounds
//!   the admissible span (unless every member is individually
//!   unbounded) — merging `only_c` with `only_w` configs would widen
//!   the walk to *unbounded* timing, which can cost asymptotically more
//!   than both separate walks;
//! * kinds whose execution is not one whole-graph traversal
//!   ([sharded](crate::engine::ShardedEngine), sampling) run each
//!   config solo with that engine — their per-run setup (shard plans,
//!   shard files and worker processes, seeded draws) is not shareable across
//!   different configs, and estimates must stay bit-identical to the
//!   per-config API.
//!
//! Entry points: [`count_batch`] (auto-selected engines),
//! [`EngineKind::count_batch`] (explicit kind), and [`enumerate_batch`]
//! (serial shared-walk enumeration with a `(config index, instance)`
//! callback — what the fig5 driver uses to histogram three timing
//! regimes in one walk). Results are bit-identical to per-config
//! [`EngineKind::count`] calls, enforced by `tests/batch_planner.rs`.

mod exec;

use crate::count::MotifCounts;
use crate::engine::config::{EnumConfig, MotifInstance};
use crate::engine::stream::StreamEngine;
use crate::engine::walker::PrefixFilter;
use crate::engine::{auto_select, explain_auto_select, EngineKind};
use crate::notation::MotifSignature;
use tnm_graph::{TemporalGraph, Time};

/// Counts every configuration in `cfgs` against `graph`, sharing
/// traversals across compatible configs, with engines auto-selected per
/// group (equivalent to [`EngineKind::Auto`]`.count_batch(..)`).
/// `out[i]` is bit-identical to `EngineKind::Auto.count(graph,
/// &cfgs[i], threads)`.
pub fn count_batch(graph: &TemporalGraph, cfgs: &[EnumConfig], threads: usize) -> Vec<MotifCounts> {
    EngineKind::Auto.count_batch(graph, cfgs, threads)
}

/// Enumerates every configuration in `cfgs` against `graph` through
/// shared serial walks, invoking `callback(config_index, instance)` for
/// each instance each config admits. Each config receives exactly the
/// instances
/// [`WindowedEngine::enumerate`](crate::engine::WindowedEngine::enumerate)
/// hands out for it alone, in the same deterministic start-event order;
/// configs sharing a group are interleaved instance-by-instance
/// (ascending config index within one instance).
pub fn enumerate_batch<F: FnMut(usize, &MotifInstance<'_>)>(
    graph: &TemporalGraph,
    cfgs: &[EnumConfig],
    mut callback: F,
) {
    // Planning with the windowed kind yields pure serial walk groups —
    // exactly what per-instance callbacks need (the stream fast path
    // has no instances to visit, and solo kinds delegate to walkers for
    // enumeration anyway).
    let plan = BatchPlanner::plan(graph, cfgs, EngineKind::Windowed, 1);
    for group in &plan.groups {
        match &group.exec {
            GroupExec::Walk { walk_cfg, prefix_targets, .. } => {
                exec::enumerate_walk_group(
                    graph,
                    cfgs,
                    &group.members,
                    walk_cfg,
                    prefix_targets.as_deref(),
                    &mut callback,
                );
            }
            _ => unreachable!("windowed planning produces only walk groups"),
        }
    }
}

/// Plans and executes a batch for an explicit engine kind; the
/// implementation behind [`EngineKind::count_batch`].
pub(crate) fn count_batch_with(
    graph: &TemporalGraph,
    cfgs: &[EnumConfig],
    kind: EngineKind,
    threads: usize,
) -> Vec<MotifCounts> {
    BatchPlanner::plan(graph, cfgs, kind, threads).execute(graph, cfgs, threads)
}

/// One planned group: the member config indices plus how their shared
/// traversal runs.
#[derive(Debug, Clone)]
struct PlanGroup {
    members: Vec<usize>,
    exec: GroupExec,
}

#[derive(Debug, Clone)]
enum GroupExec {
    /// One shared stream-DP pass; members project from the spectrum.
    Stream { delta_w: Time, num_events: usize },
    /// One shared walk under the group's widest timing; members filter
    /// per instance.
    Walk {
        walk_cfg: EnumConfig,
        /// Executor threads of the windowed walk.
        threads: usize,
        /// Set when every member targets a signature: the shared walk
        /// prunes to the union of the targets' pair prefixes.
        prefix_targets: Option<Vec<MotifSignature>>,
    },
    /// Unshareable execution (sharded/sampling): the single
    /// member runs its own engine.
    Solo { kind: EngineKind },
}

/// The execution plan for one batch: groups of config indices, each
/// answered by one traversal (or one solo engine run). Produced by
/// [`BatchPlanner::plan`]; mostly useful for introspection — counting
/// callers go through [`count_batch`] / [`EngineKind::count_batch`].
#[derive(Debug, Clone)]
pub struct BatchPlan {
    groups: Vec<PlanGroup>,
    n_configs: usize,
}

impl BatchPlan {
    /// Number of planned groups — each is one traversal (walk or stream
    /// pass) or one solo engine run. The amortization claim in a
    /// nutshell: all 36 Paranjape 3-event motifs plan to **1**.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The member config indices of each group, in plan order.
    pub fn group_members(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.groups.iter().map(|g| g.members.as_slice())
    }

    /// One human-readable line per group (what `tnm count-batch`
    /// prints): traversal kind, timing, and member count.
    pub fn describe(&self) -> String {
        let parts: Vec<String> = self
            .groups
            .iter()
            .map(|g| match &g.exec {
                GroupExec::Stream { delta_w, num_events } => {
                    format!("stream ΔW={delta_w} {num_events}e ×{}", g.members.len())
                }
                GroupExec::Walk { walk_cfg, threads, prefix_targets } => {
                    let pf = match prefix_targets {
                        Some(t) => format!(" prefix[{}]", t.len()),
                        None => String::new(),
                    };
                    let on = match threads {
                        1 => String::new(),
                        n => format!(", {n} threads"),
                    };
                    format!("walk(windowed{on}) {}{pf} ×{}", walk_cfg.timing, g.members.len())
                }
                GroupExec::Solo { kind } => format!("solo({kind}) ×{}", g.members.len()),
            })
            .collect();
        format!("{} group(s): {}", self.groups.len(), parts.join("; "))
    }

    /// Runs the plan. `cfgs` must be the slice the plan was built from.
    pub fn execute(
        &self,
        graph: &TemporalGraph,
        cfgs: &[EnumConfig],
        threads: usize,
    ) -> Vec<MotifCounts> {
        assert_eq!(cfgs.len(), self.n_configs, "plan built for a different batch");
        let mut out: Vec<MotifCounts> = (0..cfgs.len()).map(|_| MotifCounts::new()).collect();
        for group in &self.groups {
            match &group.exec {
                GroupExec::Solo { kind } => {
                    for &i in &group.members {
                        out[i] = kind.count(graph, &cfgs[i], threads);
                    }
                }
                GroupExec::Stream { delta_w, num_events } => {
                    let mut wants = (false, false, false);
                    for &i in &group.members {
                        let w = StreamEngine::class_wants(&cfgs[i]);
                        wants = (wants.0 || w.0, wants.1 || w.1, wants.2 || w.2);
                    }
                    let spectrum = StreamEngine::spectrum(graph, *delta_w, *num_events, wants);
                    for &i in &group.members {
                        out[i] = StreamEngine::project(&spectrum, &cfgs[i]);
                    }
                }
                GroupExec::Walk { walk_cfg, threads, prefix_targets } => {
                    exec::count_walk_group(
                        graph,
                        cfgs,
                        &group.members,
                        walk_cfg,
                        prefix_targets.as_deref(),
                        *threads,
                        &mut out,
                    );
                }
            }
        }
        out
    }
}

/// Walk-shape key: the config parts that change which sequences the
/// walk may extend or emit, rather than merely which instances a member
/// keeps. Configs must match on all of these to share a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GroupKey {
    num_events: usize,
    max_nodes: usize,
    consecutive_events: bool,
    static_induced: bool,
    constrained_dynamic: bool,
    duration_aware: bool,
}

impl GroupKey {
    fn of(cfg: &EnumConfig) -> Self {
        GroupKey {
            num_events: cfg.num_events,
            max_nodes: cfg.max_nodes,
            consecutive_events: cfg.consecutive_events,
            static_induced: cfg.static_induced,
            constrained_dynamic: cfg.constrained_dynamic,
            duration_aware: cfg.duration_aware,
        }
    }
}

/// Component-wise widest timing: the merged walk must reach everything
/// either side admits, so a bound survives only when both sides have
/// one.
fn widest(
    a: crate::constraints::Timing,
    b: crate::constraints::Timing,
) -> crate::constraints::Timing {
    let max_opt = |x: Option<Time>, y: Option<Time>| match (x, y) {
        (Some(x), Some(y)) => Some(x.max(y)),
        _ => None,
    };
    crate::constraints::Timing {
        delta_c: max_opt(a.delta_c, b.delta_c),
        delta_w: max_opt(a.delta_w, b.delta_w),
    }
}

/// Groups configurations into shared traversals for `kind`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchPlanner;

impl BatchPlanner {
    /// Builds the plan: stream buckets for `(ΔW, num_events)`-matching
    /// eligible configs (under `Auto`, exactly those [`auto_select`]
    /// would route to the stream engine; under explicit `Stream`, every
    /// [`StreamEngine::eligible`] config), walk groups keyed by
    /// `GroupKey`-equality plus the bounded-span guardrail, solo
    /// groups for sharded/sampling kinds. Group order is
    /// deterministic (first-member order).
    pub fn plan(
        graph: &TemporalGraph,
        cfgs: &[EnumConfig],
        kind: EngineKind,
        threads: usize,
    ) -> BatchPlan {
        let mut groups: Vec<PlanGroup> = Vec::new();
        // (delta_w, num_events) -> group index
        let mut stream_buckets: Vec<(Time, usize, usize)> = Vec::new();
        // (key, merged timing, all members span-unbounded) -> group index
        let mut walk_buckets: Vec<(GroupKey, crate::constraints::Timing, bool, usize)> = Vec::new();

        for (i, cfg) in cfgs.iter().enumerate() {
            if matches!(kind, EngineKind::Sharded { .. } | EngineKind::Sampling { .. }) {
                groups.push(PlanGroup { members: vec![i], exec: GroupExec::Solo { kind } });
                continue;
            }
            let streamed = match kind {
                EngineKind::Auto => auto_select(graph, cfg, threads) == EngineKind::Stream,
                EngineKind::Stream => StreamEngine::eligible(cfg),
                _ => false,
            };
            if streamed {
                let dw = cfg.timing.delta_w.expect("stream-eligible config has ΔW");
                let k = cfg.num_events;
                let gi = stream_buckets
                    .iter()
                    .find(|&&(w, e, _)| w == dw && e == k)
                    .map(|&(_, _, gi)| gi);
                match gi {
                    Some(gi) => groups[gi].members.push(i),
                    None => {
                        stream_buckets.push((dw, k, groups.len()));
                        groups.push(PlanGroup {
                            members: vec![i],
                            exec: GroupExec::Stream { delta_w: dw, num_events: k },
                        });
                    }
                }
                continue;
            }
            let key = GroupKey::of(cfg);
            let unbounded = cfg.max_admissible_span().is_none();
            let mut placed = false;
            for bucket in walk_buckets.iter_mut() {
                if bucket.0 != key {
                    continue;
                }
                let merged = widest(bucket.1, cfg.timing);
                // Bounded-span guardrail: joining must not unbound the
                // merged walk unless every member (this one included)
                // is individually unbounded anyway.
                let merged_span =
                    EnumConfig { timing: merged, ..cfg.clone() }.max_admissible_span();
                if merged_span.is_some() || (bucket.2 && unbounded) {
                    bucket.1 = merged;
                    bucket.2 &= unbounded;
                    groups[bucket.3].members.push(i);
                    placed = true;
                    break;
                }
            }
            if !placed {
                walk_buckets.push((key, cfg.timing, unbounded, groups.len()));
                groups.push(PlanGroup {
                    members: vec![i],
                    // Timing/walker/prefix are finalized below, once the
                    // bucket's membership is complete.
                    exec: GroupExec::Walk {
                        walk_cfg: cfg.clone(),
                        threads: 1,
                        prefix_targets: None,
                    },
                });
            }
        }

        // Finalize walk groups now that memberships are complete.
        for &(key, merged, _, gi) in &walk_buckets {
            let members = &groups[gi].members;
            let min_nodes =
                members.iter().map(|&i| cfgs[i].min_nodes).min().expect("non-empty group");
            let mut walk_cfg = EnumConfig::new(key.num_events, key.max_nodes);
            walk_cfg.min_nodes = min_nodes;
            walk_cfg.timing = merged;
            walk_cfg.consecutive_events = key.consecutive_events;
            walk_cfg.static_induced = key.static_induced;
            walk_cfg.constrained_dynamic = key.constrained_dynamic;
            walk_cfg.duration_aware = key.duration_aware;
            // When every member targets a signature the shared walk can
            // prune to the union of their pair prefixes; one untargeted
            // member forces the full walk.
            let prefix_targets: Option<Vec<MotifSignature>> = members
                .iter()
                .map(|&i| cfgs[i].signature_filter)
                .collect::<Option<Vec<_>>>()
                .filter(|targets| PrefixFilter::new(targets.iter(), key.num_events).is_some());
            let threads = Self::walk_threads(graph, &walk_cfg, kind, threads);
            groups[gi].exec = GroupExec::Walk { walk_cfg, threads, prefix_targets };
        }

        BatchPlan { groups, n_configs: cfgs.len() }
    }

    /// Resolves the executor threads of one walk group. An explicit
    /// windowed kind walks on the budget. Under `Auto` the group's
    /// **widest-reach** walk config drives [`explain_auto_select`] and
    /// the group walks on the threads it picked: a sharded pick (either
    /// transport) degrades to the in-memory walk on the budget — the
    /// graph is already resident, so the batch keeps the amortization
    /// and only gives up the bounded working set. Under the stream kind,
    /// configs the DP cannot take walk on one thread, as
    /// [`StreamEngine`]'s own fallback does.
    fn walk_threads(
        graph: &TemporalGraph,
        walk_cfg: &EnumConfig,
        kind: EngineKind,
        threads: usize,
    ) -> usize {
        match kind {
            EngineKind::Windowed => threads.max(1),
            EngineKind::Auto => explain_auto_select(graph, walk_cfg, threads).threads,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::all_motifs;
    use crate::constraints::Timing;
    use tnm_graph::TemporalGraphBuilder;

    fn graph(events: &[(u32, u32, i64)]) -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        for &(u, v, t) in events {
            b.push(tnm_graph::Event::new(u, v, t));
        }
        b.build().unwrap()
    }

    fn toy() -> TemporalGraph {
        graph(&[(0, 1, 3), (1, 2, 7), (1, 3, 8), (2, 0, 9), (0, 2, 11), (2, 3, 15)])
    }

    #[test]
    fn all_36_paranjape_motifs_plan_to_one_stream_pass() {
        let g = toy();
        let cfgs: Vec<EnumConfig> = all_motifs(3, 3)
            .into_iter()
            .map(|m| EnumConfig::for_signature(m).with_timing(Timing::only_w(3000)))
            .collect();
        assert_eq!(cfgs.len(), 36);
        let plan = BatchPlanner::plan(&g, &cfgs, EngineKind::Auto, 1);
        assert_eq!(plan.num_groups(), 1, "{}", plan.describe());
        assert_eq!(plan.group_members().next().unwrap().len(), 36);
    }

    #[test]
    fn walker_groups_get_union_prefix_targets() {
        let g = toy();
        // ΔC forces the walker path; identical shape ⇒ one group with a
        // 2-target prefix union.
        let cfgs = [
            EnumConfig::for_signature(crate::notation::sig("010102"))
                .with_timing(Timing::both(5, 10)),
            EnumConfig::for_signature(crate::notation::sig("010201"))
                .with_timing(Timing::both(3, 10)),
        ];
        let plan = BatchPlanner::plan(&g, &cfgs, EngineKind::Auto, 1);
        assert_eq!(plan.num_groups(), 1, "{}", plan.describe());
        assert!(plan.describe().contains("prefix[2]"), "{}", plan.describe());
    }

    #[test]
    fn span_guardrail_splits_unbounding_merges() {
        let g = toy();
        // only_c + only_w share a GroupKey but merging them would
        // unbound the walk: the guardrail keeps them separate.
        let cfgs = [
            EnumConfig::new(3, 4).with_timing(Timing::only_c(100)),
            EnumConfig::new(3, 4).with_timing(Timing::only_w(500)),
        ];
        let plan = BatchPlanner::plan(&g, &cfgs, EngineKind::Windowed, 1);
        assert_eq!(plan.num_groups(), 2, "{}", plan.describe());
        // ...while two unbounded configs may share the unbounded walk
        // (min_nodes is an emission mask, not part of the walk shape).
        let mut three_plus = EnumConfig::new(3, 4);
        three_plus.min_nodes = 3;
        let unbounded = [EnumConfig::new(3, 4), three_plus];
        let plan = BatchPlanner::plan(&g, &unbounded, EngineKind::Windowed, 1);
        assert_eq!(plan.num_groups(), 1, "{}", plan.describe());
        // ...and bounded merges stay grouped (table5's walker ratios).
        let ratios = [
            EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::both(1980, 3000)),
            EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::both(1500, 3000)),
        ];
        let plan = BatchPlanner::plan(&g, &ratios, EngineKind::Windowed, 1);
        assert_eq!(plan.num_groups(), 1, "{}", plan.describe());
    }

    #[test]
    fn solo_kinds_never_share() {
        let g = toy();
        let cfgs = [
            EnumConfig::new(3, 3).with_timing(Timing::only_w(10)),
            EnumConfig::new(3, 3).with_timing(Timing::only_w(10)),
        ];
        let kind = EngineKind::sharded(4, 0);
        let plan = BatchPlanner::plan(&g, &cfgs, kind, 1);
        assert_eq!(plan.num_groups(), 2, "{}", plan.describe());
        assert!(plan.describe().contains("solo(sharded)"), "{}", plan.describe());
    }

    #[test]
    fn empty_batch_is_empty() {
        let g = toy();
        assert!(count_batch(&g, &[], 1).is_empty());
        assert_eq!(BatchPlanner::plan(&g, &[], EngineKind::Auto, 1).num_groups(), 0);
    }

    #[test]
    fn mixed_restriction_flags_split_groups() {
        let g = toy();
        let base = EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::only_c(1500));
        let cfgs = [base.clone(), base.with_consecutive(true)];
        let plan = BatchPlanner::plan(&g, &cfgs, EngineKind::Windowed, 1);
        assert_eq!(plan.num_groups(), 2, "{}", plan.describe());
    }
}
