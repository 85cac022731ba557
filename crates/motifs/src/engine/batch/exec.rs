//! Shared-walk execution for batch walk groups.
//!
//! One walk under the group's widest timing visits a superset of every
//! member's instances; membership of an individual instance in a
//! member's answer decomposes into
//!
//! * a **structural** part — signature node count against the member's
//!   node bounds, signature-target equality — that depends only on the
//!   instance's canonical signature, so it is computed once per
//!   *distinct signature* and cached ([`GroupAcc::accept`]);
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
use crate::engine::walker::{
    CandidateSource, NodeListCandidates, PrefixFilter, Walker, WindowedCandidates,
};
use crate::engine::EngineKind;
use crate::notation::MotifSignature;
use tnm_graph::{TemporalGraph, Time};

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

fn masks_of(cfgs: &[EnumConfig], members: &[usize]) -> Vec<MemberMask> {
    members
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
        .collect()
}

/// Whether any member's window is tighter than the walk's — if not,
/// every visited instance is admissible for every structurally accepted
/// member and the per-instance span/gap scan can be skipped.
fn any_tighter(masks: &[MemberMask], walk_cfg: &EnumConfig) -> bool {
    let walk_c = walk_cfg.timing.delta_c.unwrap_or(Time::MAX);
    let walk_w = walk_cfg.timing.delta_w.unwrap_or(Time::MAX);
    masks.iter().any(|m| m.delta_c < walk_c || m.delta_w < walk_w)
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

fn tally(
    graph: &TemporalGraph,
    masks: &[MemberMask],
    duration_aware: bool,
    check_timing: bool,
    acc: &mut GroupAcc,
    inst: &MotifInstance<'_>,
) {
    let sig = inst.signature;
    let accepted = acc.accept.entry(sig).or_insert_with(|| {
        masks
            .iter()
            .enumerate()
            .filter(|(_, m)| structural_ok(m, sig))
            .map(|(i, _)| i as u32)
            .collect()
    });
    if accepted.is_empty() {
        return;
    }
    if !check_timing {
        for &mi in accepted.iter() {
            acc.counts[mi as usize].add(sig, 1);
        }
        return;
    }
    let (span, max_gap) = timing_of(graph, inst.events, duration_aware);
    for &mi in accepted.iter() {
        let m = &masks[mi as usize];
        if max_gap <= m.delta_c && span <= m.delta_w {
            acc.counts[mi as usize].add(sig, 1);
        }
    }
}

fn make_walker<'g, C: CandidateSource>(
    graph: &'g TemporalGraph,
    walk_cfg: &'g EnumConfig,
    prefix: Option<&PrefixFilter>,
    source: C,
) -> Walker<'g, C> {
    let walker = Walker::new(graph, walk_cfg, source);
    match prefix {
        Some(pf) => walker.with_prefix_filter(pf.clone()),
        None => walker,
    }
}

/// Counts one walk group: a single traversal under `walk_cfg` on the
/// walk executor with `threads` threads, over the node-list candidates
/// for `Backtrack` and the shared window index otherwise, with
/// per-member masks folding into `out[member]`.
#[allow(clippy::too_many_arguments)]
pub(super) fn count_walk_group(
    graph: &TemporalGraph,
    cfgs: &[EnumConfig],
    members: &[usize],
    walk_cfg: &EnumConfig,
    prefix_targets: Option<&[MotifSignature]>,
    kind: EngineKind,
    threads: usize,
    out: &mut [MotifCounts],
) {
    let masks = masks_of(cfgs, members);
    let check_timing = any_tighter(&masks, walk_cfg);
    let prefix = prefix_targets
        .map(|t| PrefixFilter::new(t.iter(), walk_cfg.num_events).expect("planner validated"));
    let locals = if kind == EngineKind::Backtrack {
        fold_group(graph, walk_cfg, prefix.as_ref(), &masks, check_timing, threads, || {
            NodeListCandidates
        })
    } else {
        let index = graph.window_index();
        fold_group(graph, walk_cfg, prefix.as_ref(), &masks, check_timing, threads, || {
            WindowedCandidates::new(index)
        })
    };
    for local in &locals {
        for (pos, mask) in masks.iter().enumerate() {
            out[mask.slot].merge(&local.counts[pos]);
        }
    }
}

/// One group walk on the executor over `source`'s candidates, returning
/// one accumulator per worker.
fn fold_group<C: CandidateSource + Send>(
    graph: &TemporalGraph,
    walk_cfg: &EnumConfig,
    prefix: Option<&PrefixFilter>,
    masks: &[MemberMask],
    check_timing: bool,
    threads: usize,
    source: impl Fn() -> C + Sync,
) -> Vec<GroupAcc> {
    let duration_aware = walk_cfg.duration_aware;
    walk_fold(
        0..graph.num_events(),
        threads,
        || make_walker(graph, walk_cfg, prefix, source()),
        || GroupAcc::new(masks.len()),
        |acc, inst| tally(graph, masks, duration_aware, check_timing, acc, inst),
    )
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
    let masks = masks_of(cfgs, members);
    let check_timing = any_tighter(&masks, walk_cfg);
    let duration_aware = walk_cfg.duration_aware;
    let prefix = prefix_targets
        .map(|t| PrefixFilter::new(t.iter(), walk_cfg.num_events).expect("planner validated"));
    let index = graph.window_index();
    let mut accept: HashMap<MotifSignature, Vec<u32>> = HashMap::new();
    let mut walker = make_walker(graph, walk_cfg, prefix.as_ref(), WindowedCandidates::new(index));
    walker.run_range(0..graph.num_events(), |inst| {
        let sig = inst.signature;
        let accepted = accept.entry(sig).or_insert_with(|| {
            masks
                .iter()
                .enumerate()
                .filter(|(_, m)| structural_ok(m, sig))
                .map(|(i, _)| i as u32)
                .collect()
        });
        if accepted.is_empty() {
            return;
        }
        let timing =
            if check_timing { Some(timing_of(graph, inst.events, duration_aware)) } else { None };
        for &mi in accepted.iter() {
            let m = &masks[mi as usize];
            if let Some((span, max_gap)) = timing {
                if max_gap > m.delta_c || span > m.delta_w {
                    continue;
                }
            }
            callback(m.slot, inst);
        }
    });
}
