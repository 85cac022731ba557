//! [`ShardedEngine`] — exact counting over time-slice shards, walked in
//! this thread or shipped to worker processes.
//!
//! The engine splits the event log into contiguous time slices with the
//! [`tnm_graph::shard`] planner and counts each slice (plus its
//! equal-timestamp left pad and ΔW/duration-aware trailing halo) as an
//! independent [`TemporalGraph`](tnm_graph::TemporalGraph), launching
//! walks **only from the shard's owned start events**. Ownership
//! partitions the instance space exactly: every instance is counted in
//! precisely one shard, so totals match the whole-graph walk bit for bit
//! (`tests/engine_equivalence.rs`). A degenerate plan (one shard spanning
//! the log) runs the windowed walk on the parent instead.
//!
//! Both transports run the same per-shard walk (`driver.rs`); `workers`
//! picks the transport:
//!
//! * **`workers = 0` — in this thread.** Shards are materialized from
//!   the parent's event buffer one at a time, so at most one shard graph
//!   and its index are resident beside the parent. Within a shard the
//!   walk runs on the shared walk executor under the `threads` budget;
//!   one thread walks inline.
//! * **`workers = n > 0` — worker processes.** The coordinator
//!   (`coordinator.rs`) writes every shard's events as one
//!   [`io::write_events_raw`](tnm_graph::io::write_events_raw) block
//!   under a temporary directory (removed when the run ends, even by a
//!   panic), spawns `n` hidden `tnm worker` children ([`run_worker`],
//!   `worker.rs`) and drives a work queue over them, one coordinator
//!   thread per worker speaking the framed wire protocol
//!   (`protocol.rs`) on the child's stdin/stdout. A worker loads the
//!   shard file it is told about, rebuilds the slice in the parent's
//!   node-id space, walks its owned starts with `threads` threads and
//!   replies; all policy stays with the coordinator. Merging is
//!   commutative, so scheduling order never affects the totals. A
//!   traced run's worker spans are stitched into the caller's trace.
//!   Without a worker binary ([`ShardedEngine::worker_binary`]) the run
//!   stays in this thread with `workers × threads` threads and reports
//!   `workers_spawned: 0`.
//!
//! ## Crash detection and rescheduling
//!
//! A worker that dies mid-run (crash, kill, injected fault) surfaces as
//! an I/O or framing error on its pipes. The coordinator thread that
//! sees it **requeues the in-flight shard** and retires; surviving
//! workers drain the queue, so a run completes with identical counts as
//! long as one worker lives. A reply is applied only once it decodes
//! completely, and a job is requeued only when its reply never did, so
//! each shard is counted exactly once. If every worker dies with shards
//! outstanding, the run panics rather than undercounting.
//!
//! ## Exactness at the boundaries
//!
//! A shard answers every time-windowed query an instance evaluation
//! needs (candidates, consecutive-events counts, constrained-freshness
//! counts) identically to the parent, because its materialized range
//! covers the full closed interval an owned walk can reach (see
//! [`tnm_graph::shard`]). The one graph-global predicate — **static
//! inducedness**, which asks whether an edge exists anywhere in the
//! timeline — is answered by the parent graph's edge index
//! ([`TemporalGraph::has_edge`](tnm_graph::TemporalGraph::has_edge)).
//! Shard graphs keep the parent's node ids, so:
//!
//! * in this thread, **inside the walk**: the shard's walker reads its
//!   static edges from the parent, through the same memoised check the
//!   windowed walk runs;
//! * with worker processes, which hold no parent graph, **per group**:
//!   the worker walks without the check and returns its owned instances
//!   aggregated by `(signature, node set, covered edges)` — the verdict
//!   depends on nothing else — and the coordinator checks each group
//!   once against the parent's edge index, so reply sizes are bounded by
//!   distinct structures, not instances.

mod coordinator;
mod driver;
mod protocol;
mod worker;

pub use worker::run_worker;

use crate::count::MotifCounts;
use crate::engine::config::EnumConfig;
use crate::engine::{CountEngine, WindowedEngine};
use driver::ShardWalk;
use std::path::PathBuf;
use tnm_graph::shard::{materialize, plan_shards, ShardGoal, ShardSpec};
use tnm_graph::TemporalGraph;

/// Default target for owned start events per shard (CLI
/// `--engine sharded` without `--shard-events`).
pub const DEFAULT_SHARD_EVENTS: usize = 16_384;

/// Observability of one sharded run: the plan geometry and the spawn
/// outcome. The residency high-water mark (`shard.resident_events`
/// gauge peak) and worker losses (`distributed.workers_lost`,
/// `distributed.jobs_rescheduled`) are read from the obs registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedRunStats {
    /// Shards the plan produced.
    pub shards: usize,
    /// Largest materialized shard (owned + pad + halo events).
    pub max_shard_events: usize,
    /// Worker processes successfully spawned (0 = every shard was walked
    /// in this process).
    pub workers_spawned: usize,
}

/// Exact sharded counting engine. See the `engine::sharded` module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedEngine {
    /// Target owned start events per shard (at least 1).
    shard_events: usize,
    /// Threads for the within-shard walk — in this thread's transport,
    /// or inside each worker process.
    threads: usize,
    /// `0` = walk every shard in this thread; `n > 0` = ship the shards
    /// to `n` worker processes (never more than the plan has shards).
    workers: usize,
    /// Explicit worker binary (`None` = [`ShardedEngine::worker_binary`]).
    worker_bin: Option<PathBuf>,
    /// Fault injection `(worker index, jobs before exit)` — see
    /// [`ShardedEngine::with_fault_after`].
    fault_after: Option<(usize, usize)>,
}

impl ShardedEngine {
    /// A sharded engine walking shards in this thread, with the given
    /// owned-events-per-shard target.
    pub fn new(shard_events: usize) -> Self {
        ShardedEngine {
            shard_events: shard_events.max(1),
            threads: 1,
            workers: 0,
            worker_bin: None,
            fault_after: None,
        }
    }

    /// Sets the within-shard worker thread count (chainable). With
    /// worker processes it is the budget inside each process, shipped
    /// in the job descriptor.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Ships the shards to `workers` `tnm worker` processes (chainable;
    /// `0` walks them in this thread).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides worker-binary resolution with an explicit path
    /// (chainable).
    pub fn with_worker_bin(mut self, bin: impl Into<PathBuf>) -> Self {
        self.worker_bin = Some(bin.into());
        self
    }

    /// Fault injection for tests (chainable): worker `worker` is
    /// spawned with `TNM_WORKER_EXIT_AFTER=jobs`, making it vanish
    /// after serving that many jobs — a deterministic mid-run crash for
    /// the rescheduling tests. The coordinator hands that worker its
    /// first `jobs + 1` jobs before the queue opens to the others, so
    /// the crash fires on every run that has more than `jobs` shards.
    /// Counts must come out identical anyway.
    pub fn with_fault_after(mut self, worker: usize, jobs: usize) -> Self {
        self.fault_after = Some((worker, jobs.max(1)));
        self
    }

    /// Resolves the worker binary this process would spawn: the
    /// `TNM_WORKER_BIN` environment variable, then a `tnm` binary in
    /// the current executable's directory, then in its parent (cargo's
    /// `deps/` layout for test and bench executables). `None` when no
    /// candidate exists.
    ///
    /// An explicit `TNM_WORKER_BIN` is taken **verbatim**, existence
    /// unchecked — like [`ShardedEngine::with_worker_bin`], an explicit
    /// override that turns out to be wrong must fail loudly at spawn
    /// time, never quietly fall back to counting in this process.
    pub fn worker_binary() -> Option<PathBuf> {
        if let Some(p) = std::env::var_os("TNM_WORKER_BIN") {
            return Some(PathBuf::from(p));
        }
        let exe = std::env::current_exe().ok()?;
        let name = format!("tnm{}", std::env::consts::EXE_SUFFIX);
        let mut dir = exe.parent()?;
        // Same-profile locations first: the executable's own directory
        // (the CLI spawning itself) and its parent (cargo's
        // `target/<profile>/deps/` layout for tests and benches).
        for _ in 0..2 {
            let candidate = dir.join(&name);
            if candidate.is_file() {
                return Some(candidate);
            }
            dir = dir.parent()?;
        }
        // `dir` is now the profile directory's parent (`target/`).
        // `cargo test` builds bin targets only as test harnesses — it
        // never links the plain `tnm` binary — so a freshly checked-out
        // tree tested with `cargo build --release && cargo test` has
        // the worker only in the sibling `release/` profile.
        for profile in ["release", "debug"] {
            let candidate = dir.join(profile).join(&name);
            if candidate.is_file() {
                return Some(candidate);
            }
        }
        None
    }

    /// Counts and reports the run's plan geometry and spawn outcome —
    /// what the memory-bound and crash-rescheduling tests assert
    /// against.
    pub fn count_with_stats(
        &self,
        graph: &TemporalGraph,
        cfg: &EnumConfig,
    ) -> (MotifCounts, ShardedRunStats) {
        let plan = {
            let _span = (self.workers > 0).then(|| tnm_obs::span!("distributed.plan"));
            let goal = ShardGoal::EventsPerShard(self.shard_events);
            plan_shards(graph, cfg.admissible_reach(graph), goal)
        };
        // Degenerate plan — one shard spanning the whole log (unbounded
        // reach, or a shard target at or above the graph size).
        // Materializing it would clone the entire event buffer and
        // rebuild a full-size index for nothing (or ship the whole log
        // to one worker): run the monolithic engine on the parent
        // instead, sharing the parent's own window index.
        if plan.len() <= 1 {
            let counts = WindowedEngine::new(self.threads).count(graph, cfg);
            let stats = ShardedRunStats {
                shards: 1,
                max_shard_events: graph.num_events(),
                workers_spawned: 0,
            };
            return (counts, stats);
        }
        let mut stats = ShardedRunStats {
            shards: plan.len(),
            max_shard_events: plan.max_shard_events(),
            workers_spawned: 0,
        };
        let mut threads = self.threads;
        if self.workers > 0 {
            match self.worker_bin.clone().or_else(Self::worker_binary) {
                Some(bin) => {
                    let (counts, spawned) =
                        coordinator::count_on_workers(self, &bin, graph, cfg, &plan);
                    stats.workers_spawned = spawned;
                    return (counts, stats);
                }
                // No worker binary anywhere (library embedding without
                // the CLI): stay exact in this process, with the worker
                // budget recycled as threads so the run keeps the job's
                // parallelism.
                None => threads *= self.workers,
            }
        }
        let mut counts = MotifCounts::new();
        for spec in &plan.shards {
            let _span = tnm_obs::span!("walk.shard", shard = spec.id);
            let shard = load(graph, spec);
            let walk = ShardWalk::new(&shard, Some(graph), spec.own_local(), cfg);
            counts.merge(&walk.count(threads));
        }
        (counts, stats)
    }
}

/// Materializes one shard from the parent's buffer. The previous shard
/// is already dropped, so the gauge's value is the resident shard's
/// size and its peak the run's residency high-water mark.
fn load(graph: &TemporalGraph, spec: &ShardSpec) -> TemporalGraph {
    let shard = materialize(graph, spec);
    tnm_obs::counter_add("shard.loads", 1);
    tnm_obs::gauge_set("shard.resident_events", shard.num_events() as u64);
    shard
}

impl CountEngine for ShardedEngine {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn count(&self, graph: &TemporalGraph, cfg: &EnumConfig) -> MotifCounts {
        self.count_with_stats(graph, cfg).0
    }
}

/// The worker protocol, for `engine::wire_suite`'s golden frames and
/// fuzzer.
#[cfg(test)]
pub(super) use protocol::{
    reply_frames, InducedGroup, ReplyFrame, ReplyMetrics, WorkerJob, WorkerMsg, WorkerReply,
    INDUCED_GROUP_BATCH,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Timing;
    use crate::engine::WindowedEngine;
    use tnm_graph::TemporalGraphBuilder;

    /// Deterministic LCG graph with timestamp ties.
    fn lcg_graph(events: usize, nodes: u32, span: i64) -> tnm_graph::TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..events {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((x >> 33) % nodes as u64) as u32;
            let v = (u + 1 + ((x >> 13) % (nodes as u64 - 2)) as u32) % nodes;
            let t = (i as i64 * span) / events as i64;
            b.push(tnm_graph::Event::new(u, v, t));
        }
        b.build().unwrap()
    }

    #[test]
    fn matches_reference_across_shard_sizes() {
        let g = lcg_graph(300, 14, 400);
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::both(20, 45));
        let reference = WindowedEngine.count(&g, &cfg);
        for shard_events in [1usize, 7, 64, 1000] {
            assert_eq!(
                ShardedEngine::new(shard_events).count(&g, &cfg),
                reference,
                "shard_events={shard_events}"
            );
        }
        assert_eq!(ShardedEngine::new(32).with_threads(4).count(&g, &cfg), reference);
    }

    #[test]
    fn unbounded_timing_degenerates_to_one_shard() {
        let g = lcg_graph(120, 10, 200);
        let cfg = EnumConfig::new(3, 4);
        let (counts, stats) = ShardedEngine::new(16).count_with_stats(&g, &cfg);
        assert_eq!(stats.shards, 1);
        assert_eq!(counts, WindowedEngine.count(&g, &cfg));
    }
}
