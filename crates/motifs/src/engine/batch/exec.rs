//! Shared-walk execution for batch walk groups.
//!
//! One walk under the group's widest timing visits a superset of every
//! member's instances; membership of an individual instance in a
//! member's answer decomposes into
//!
//! * a **structural** part — signature node count against the member's
//!   node bounds, signature-target equality — that depends only on the
//!   instance's canonical signature, so it is computed once per
//!   *distinct signature* and cached (`Members::admit`, which counting
//!   and enumeration share);
//! * a **timing** part — first-to-last span against the member's ΔW,
//!   maximum consecutive gap against its ΔC — computed once per
//!   *instance* and compared against each structurally accepted
//!   member's bounds. When no member's timing is tighter than the
//!   walk's, the walk bound already proved admissibility and the scan
//!   is skipped entirely.
//!
//! The restriction flags (consecutive/induced/constrained/duration) are
//! group-key equal, so the shared walker applies them exactly as each
//! member's own walk would. Counting runs on the shared walk executor
//! with a per-worker `(accumulator, walker)` pair — inline on one
//! thread, work-stealing on more — and merges per-slot tables after
//! join (u64 additions commute, so scheduling never leaks into results).

use std::collections::HashMap;

use crate::count::MotifCounts;
use crate::engine::config::{EnumConfig, MotifInstance};
use crate::engine::parallel::walk_fold;
use crate::engine::walker::{PrefixFilter, Walker, WindowedCandidates};
use crate::notation::MotifSignature;
use tnm_graph::{TemporalGraph, Time, WindowIndex};

/// One member's emission-time predicate, with unbounded windows mapped
/// to `Time::MAX` so the checks are branch-free comparisons.
struct MemberMask {
    slot: usize,
    min_nodes: usize,
    max_nodes: usize,
    delta_c: Time,
    delta_w: Time,
    target: Option<MotifSignature>,
}

/// A walk group's members as the shared walk sees them.
struct Members {
    masks: Vec<MemberMask>,
    duration_aware: bool,
    /// Whether any member's window is tighter than the walk's — if not,
    /// every visited instance is admissible for every structurally
    /// accepted member and the per-instance span/gap scan is skipped.
    check_timing: bool,
}

impl Members {
    fn new(cfgs: &[EnumConfig], members: &[usize], walk_cfg: &EnumConfig) -> Self {
        let masks: Vec<MemberMask> = members
            .iter()
            .map(|&i| {
                let c = &cfgs[i];
                MemberMask {
                    slot: i,
                    min_nodes: c.min_nodes,
                    max_nodes: c.max_nodes,
                    delta_c: c.timing.delta_c.unwrap_or(Time::MAX),
                    delta_w: c.timing.delta_w.unwrap_or(Time::MAX),
                    target: c.signature_filter,
                }
            })
            .collect();
        let walk_c = walk_cfg.timing.delta_c.unwrap_or(Time::MAX);
        let walk_w = walk_cfg.timing.delta_w.unwrap_or(Time::MAX);
        let check_timing = masks.iter().any(|m| m.delta_c < walk_c || m.delta_w < walk_w);
        Members { masks, duration_aware: walk_cfg.duration_aware, check_timing }
    }

    /// Calls `each(pos)`, in ascending `pos`, for each member
    /// `masks[pos]` that admits `inst`: its node bounds and target
    /// accept the signature (decided once per signature and cached in
    /// `accept`), and its ΔC and ΔW admit the instance's largest gap and
    /// span.
    #[inline]
    fn admit(
        &self,
        graph: &TemporalGraph,
        accept: &mut HashMap<MotifSignature, Vec<u32>>,
        inst: &MotifInstance<'_>,
        mut each: impl FnMut(usize),
    ) {
        let sig = inst.signature;
        let accepted = accept.entry(sig).or_insert_with(|| {
            self.masks
                .iter()
                .enumerate()
                .filter(|(_, m)| structural_ok(m, sig))
                .map(|(i, _)| i as u32)
                .collect()
        });
        if accepted.is_empty() {
            return;
        }
        if !self.check_timing {
            for &pos in accepted.iter() {
                each(pos as usize);
            }
            return;
        }
        let (span, max_gap) = timing_of(graph, inst.events, self.duration_aware);
        for &pos in accepted.iter() {
            let m = &self.masks[pos as usize];
            if max_gap <= m.delta_c && span <= m.delta_w {
                each(pos as usize);
            }
        }
    }
}

fn structural_ok(mask: &MemberMask, sig: MotifSignature) -> bool {
    let n = sig.num_nodes();
    n >= mask.min_nodes && n <= mask.max_nodes && mask.target.is_none_or(|t| t == sig)
}

/// `(span, max consecutive gap)` of one instance, with gaps measured
/// from the previous event's end when the group is duration-aware —
/// mirroring the walker's own bound arithmetic exactly.
fn timing_of(
    graph: &TemporalGraph,
    events: &[tnm_graph::EventIdx],
    duration_aware: bool,
) -> (Time, Time) {
    let first = graph.event(events[0]);
    let mut prev_base = if duration_aware { first.end_time() } else { first.time };
    let mut last_t = first.time;
    let mut max_gap: Time = 0;
    for &i in &events[1..] {
        let e = graph.event(i);
        max_gap = max_gap.max(e.time - prev_base);
        prev_base = if duration_aware { e.end_time() } else { e.time };
        last_t = e.time;
    }
    (last_t - first.time, max_gap)
}

/// Per-worker accumulator: one count table per member plus the lazy
/// per-signature structural acceptance cache.
struct GroupAcc {
    counts: Vec<MotifCounts>,
    accept: HashMap<MotifSignature, Vec<u32>>,
}

impl GroupAcc {
    fn new(n_members: usize) -> Self {
        GroupAcc {
            counts: (0..n_members).map(|_| MotifCounts::new()).collect(),
            accept: HashMap::new(),
        }
    }
}

fn make_walker<'g>(
    graph: &'g TemporalGraph,
    walk_cfg: &'g EnumConfig,
    prefix: Option<&PrefixFilter>,
    index: WindowIndex<'g>,
) -> Walker<'g, WindowedCandidates<'g>> {
    let walker = Walker::new(graph, walk_cfg, WindowedCandidates::new(index));
    match prefix {
        Some(pf) => walker.with_prefix_filter(pf.clone()),
        None => walker,
    }
}

/// Counts one walk group: a single traversal under `walk_cfg` over the
/// shared window index, on the walk executor with `threads` threads,
/// with per-member masks folding into `out[member]`.
pub(super) fn count_walk_group(
    graph: &TemporalGraph,
    cfgs: &[EnumConfig],
    members: &[usize],
    walk_cfg: &EnumConfig,
    prefix_targets: Option<&[MotifSignature]>,
    threads: usize,
    out: &mut [MotifCounts],
) {
    let group = Members::new(cfgs, members, walk_cfg);
    let prefix = prefix_targets
        .map(|t| PrefixFilter::new(t.iter(), walk_cfg.num_events).expect("planner validated"));
    // Build the index before any fan-out (see `WindowedEngine::count`).
    let index = graph.window_index();
    let locals = walk_fold(
        0..graph.num_events(),
        threads,
        || make_walker(graph, walk_cfg, prefix.as_ref(), index),
        || GroupAcc::new(group.masks.len()),
        |acc, inst| {
            group.admit(graph, &mut acc.accept, inst, |pos| acc.counts[pos].add(inst.signature, 1))
        },
    );
    for local in &locals {
        for (pos, mask) in group.masks.iter().enumerate() {
            out[mask.slot].merge(&local.counts[pos]);
        }
    }
}

/// Enumerates one walk group serially over the window index, invoking
/// `callback(config_index, instance)` for each member that admits each
/// visited instance (ascending member order within one instance — the
/// members were planned in ascending config order).
pub(super) fn enumerate_walk_group<F: FnMut(usize, &MotifInstance<'_>)>(
    graph: &TemporalGraph,
    cfgs: &[EnumConfig],
    members: &[usize],
    walk_cfg: &EnumConfig,
    prefix_targets: Option<&[MotifSignature]>,
    callback: &mut F,
) {
    let group = Members::new(cfgs, members, walk_cfg);
    let prefix = prefix_targets
        .map(|t| PrefixFilter::new(t.iter(), walk_cfg.num_events).expect("planner validated"));
    let mut accept: HashMap<MotifSignature, Vec<u32>> = HashMap::new();
    let mut walker = make_walker(graph, walk_cfg, prefix.as_ref(), graph.window_index());
    walker.run_range(0..graph.num_events(), |inst| {
        group.admit(graph, &mut accept, inst, |pos| callback(group.masks[pos].slot, inst));
    });
}
