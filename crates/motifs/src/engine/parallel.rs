//! The walk executor ([`work_steal_map`]).
//!
//! The seed repo's parallel path split start events into `threads` static
//! chunks and merged results through a `Mutex`. Static chunking is a poor
//! fit for motif counting: work per start event is wildly skewed (a burst
//! of activity around one timestamp can cost orders of magnitude more
//! than a quiet region), so one unlucky worker becomes the critical path.
//!
//! This executor replaces both decisions:
//!
//! * **Work stealing via an atomic cursor** — start events live behind a
//!   single `AtomicUsize`; each worker claims the next
//!   [`DEFAULT_STEAL_CHUNK`] start events with `fetch_add` and returns
//!   for more when done. Fast workers automatically absorb the skew;
//!   there is no partitioning decision to get wrong.
//! * **Lock-free merge at join** — each worker counts into a private
//!   accumulator and *returns it from the scoped thread*; the spawning
//!   thread merges the locals after `join`, so no lock is ever contended.
//!
//! It is the one loop that walks a range of start events for counting:
//! [`WindowedEngine`](struct@crate::engine::WindowedEngine), the sharded
//! engine's per-shard walk, and batch walk groups all call it through
//! [`walk_fold`]. A one-thread budget runs the whole range inline on the
//! caller's thread, so serial callers need no branch of their own.

use crate::count::MotifCounts;
use crate::engine::config::MotifInstance;
use crate::engine::walker::{CandidateSource, Walker};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Below this many events the **auto** engine
/// ([`EngineKind::Auto`](crate::engine::EngineKind)) walks on one
/// thread — thread spawn/merge overhead dominates tiny graphs. An
/// explicitly constructed
/// [`WindowedEngine::new`](crate::engine::WindowedEngine::new) honors
/// its thread count as asked.
pub const SERIAL_FALLBACK_EVENTS: usize = 1024;

/// Start events claimed per `fetch_add`. Larger chunks amortise the
/// atomic; smaller chunks balance better. This suits start events whose
/// cost varies by orders of magnitude.
pub(crate) const DEFAULT_STEAL_CHUNK: usize = 64;

/// The walk executor: `threads` workers claim `chunk`-sized index ranges
/// of `0..len` through an atomic cursor, each folding its claims into a
/// private per-worker accumulator built by `make_acc` (which typically
/// bundles reusable scratch — a [`Walker`], an RNG-free sampling state —
/// with the results). The per-worker accumulators are returned **in
/// spawn order** after join, so callers that need deterministic merges
/// (the sampling engine's seeded confidence intervals) can reduce them —
/// or per-item results stored inside them — in a fixed order regardless
/// of how the work was actually interleaved.
///
/// When `threads`, clamped to `len`, is 1, the executor spawns nothing:
/// it calls `make_acc` once and `work` once with `0..len` on the caller's
/// thread and records no `walk.worker` span.
pub(crate) fn work_steal_map<A, MS, W>(
    len: usize,
    threads: usize,
    chunk: usize,
    make_acc: MS,
    work: W,
) -> Vec<A>
where
    A: Send,
    MS: Fn() -> A + Sync,
    W: Fn(&mut A, Range<usize>) + Sync,
{
    let threads = threads.max(1).min(len.max(1));
    if threads == 1 {
        let mut acc = make_acc();
        work(&mut acc, 0..len);
        return vec![acc];
    }
    let chunk = chunk.max(1);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let cursor = &cursor;
                let make_acc = &make_acc;
                let work = &work;
                scope.spawn(move || {
                    let _span = tnm_obs::span!("walk.worker", worker = worker);
                    let mut acc = make_acc();
                    loop {
                        let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if lo >= len {
                            break;
                        }
                        work(&mut acc, lo..(lo + chunk).min(len));
                    }
                    acc
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
}

/// Walks the start events `starts` on the executor: each worker owns a
/// [`Walker`] from `make_walker` and an accumulator from `init`, and
/// `visit` folds every instance into the accumulator of the worker that
/// found it. Returns one accumulator per worker for the caller to merge.
pub(crate) fn walk_fold<'g, C, A>(
    starts: Range<usize>,
    threads: usize,
    make_walker: impl Fn() -> Walker<'g, C> + Sync,
    init: impl Fn() -> A + Sync,
    visit: impl Fn(&mut A, &MotifInstance<'_>) + Sync,
) -> Vec<A>
where
    C: CandidateSource + Send,
    A: Send,
{
    let base = starts.start;
    work_steal_map(
        starts.len(),
        threads,
        DEFAULT_STEAL_CHUNK,
        || (init(), make_walker()),
        |(acc, walker), claimed| {
            walker.run_range(base + claimed.start..base + claimed.end, |inst| visit(acc, inst));
        },
    )
    .into_iter()
    .map(|(acc, _walker)| acc)
    .collect()
}

/// Sums per-worker count tables (u64 additions commute, so the merge
/// order never affects the result).
pub(crate) fn merge_counts(locals: Vec<MotifCounts>) -> MotifCounts {
    let mut locals = locals.into_iter();
    let mut merged = locals.next().unwrap_or_default();
    for local in locals {
        merged.merge(&local);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_thread_runs_inline_with_one_claim() {
        let _guard = tnm_obs::test_guard();
        tnm_obs::set_enabled(true);
        tnm_obs::drain_spans();
        let caller = std::thread::current().id();
        let made = AtomicUsize::new(0);
        let accs = work_steal_map(
            97,
            1,
            8,
            || {
                made.fetch_add(1, Ordering::Relaxed);
                (std::thread::current().id(), Vec::new())
            },
            |(_, claims): &mut (_, Vec<Range<usize>>), r| claims.push(r),
        );
        let spans = tnm_obs::drain_spans();
        tnm_obs::set_enabled(false);
        assert_eq!(made.load(Ordering::Relaxed), 1, "make_acc runs once");
        assert_eq!(accs.len(), 1);
        assert_eq!(accs[0].0, caller, "the accumulator is built on the caller's thread");
        assert_eq!(accs[0].1, vec![0..97], "one claim covering the whole range");
        assert!(spans.iter().all(|s| s.name != "walk.worker"), "no worker span inline");
    }

    #[test]
    fn spans_nest_and_order_under_the_work_stealing_executor() {
        let _guard = tnm_obs::test_guard();
        tnm_obs::set_enabled(true);
        tnm_obs::drain_spans();
        let processed: Vec<usize> =
            work_steal_map(97, 4, 8, Vec::new, |acc: &mut Vec<usize>, r| {
                let _chunk = tnm_obs::span!("test.chunk", lo = r.start);
                acc.extend(r);
            })
            .into_iter()
            .flatten()
            .collect();
        let spans = tnm_obs::drain_spans();
        tnm_obs::set_enabled(false);
        // Every index processed exactly once regardless of interleaving.
        let mut sorted = processed;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..97).collect::<Vec<_>>());
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "walk.worker").collect();
        let chunks: Vec<_> = spans.iter().filter(|s| s.name == "test.chunk").collect();
        assert_eq!(workers.len(), 4, "one span per spawned worker");
        assert_eq!(chunks.len(), 13, "97 indices in chunks of 8 → 13 claims");
        for c in &chunks {
            // Each chunk span nests inside its thread's worker span:
            // same tid, one level deeper, interval contained.
            let parent =
                workers.iter().find(|w| w.tid == c.tid).expect("chunk ran on a worker thread");
            assert_eq!(c.depth, parent.depth + 1);
            assert!(c.start_ns >= parent.start_ns);
            assert!(c.start_ns + c.dur_ns <= parent.start_ns + parent.dur_ns);
        }
        // Worker threads are distinct, and chunk spans within one
        // thread are disjoint and time-ordered.
        let mut tids: Vec<_> = workers.iter().map(|w| w.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4);
        for w in &workers {
            let mut mine: Vec<_> = chunks.iter().filter(|c| c.tid == w.tid).collect();
            mine.sort_by_key(|c| c.start_ns);
            for pair in mine.windows(2) {
                assert!(pair[0].start_ns + pair[0].dur_ns <= pair[1].start_ns);
            }
        }
    }
}
