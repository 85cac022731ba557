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
//! (`tests/engine_equivalence.rs`).
//!
//! One value, [`ShardedConfig::workers`], picks the transport:
//!
//! * **`workers = 0` — in this thread.** Shards are materialized from
//!   the parent's event buffer one at a time, so at most one shard graph
//!   and its index are resident beside the parent. Within a shard,
//!   counting runs on the walk executor every walker shares, under the
//!   `threads` budget; one thread walks inline.
//! * **`workers = n > 0` — worker processes.** Every shard is written
//!   to a temporary event file and `n` `tnm worker` children count them
//!   over the framed wire protocol, each with `threads` threads inside.
//!   A worker that dies mid-run has its in-flight shard requeued onto
//!   the survivors; static inducedness comes back as aggregated groups
//!   that the coordinator re-checks against the parent; a traced run's
//!   worker spans are stitched into the caller's trace. Without a worker
//!   binary ([`ShardedEngine::worker_binary`]) the run stays in this
//!   thread with `workers × threads` threads, and reports
//!   `workers_spawned: 0`.
//!
//! Both transports run the same per-shard walk.
//!
//! ## Exactness at the boundaries
//!
//! A shard answers every time-windowed query an instance evaluation
//! needs (candidates, consecutive-events counts, constrained-freshness
//! counts) identically to the parent, because its materialized range
//! covers the full closed interval an owned walk can reach (see
//! [`tnm_graph::shard`]). The one graph-global predicate — **static
//! inducedness**, which asks whether an edge exists anywhere in the
//! timeline — is stripped from the per-shard walk and re-checked against
//! the parent graph.

mod driver;

pub(crate) use driver::ShardWalk;

use crate::count::MotifCounts;
use crate::engine::config::{EnumConfig, MotifInstance};
use crate::engine::{distributed, CountEngine, WindowedEngine};
use std::path::PathBuf;
use tnm_graph::shard::{materialize, plan_shards, Shard, ShardGoal, ShardPlan, ShardSpec};
use tnm_graph::TemporalGraph;

/// Default target for owned start events per shard (CLI
/// `--engine sharded` without `--shard-events`).
pub const DEFAULT_SHARD_EVENTS: usize = 16_384;

/// Tuning of the sharded executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Target owned start events per shard (clamped to at least 1).
    pub shard_events: usize,
    /// Worker threads for the within-shard work-stealing walk — in this
    /// thread's transport, or inside each worker process.
    pub threads: usize,
    /// `0` = walk every shard in this thread; `n > 0` = ship the shards
    /// to `n` worker processes (never more than the plan has shards).
    pub workers: usize,
    /// Explicit worker binary override (`None` = resolve automatically).
    pub worker_bin: Option<PathBuf>,
    /// Fault injection `(worker index, jobs before exit)` — see
    /// [`ShardedEngine::with_fault_after`].
    pub fault_after: Option<(usize, usize)>,
}

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
    config: ShardedConfig,
}

impl ShardedEngine {
    /// A sharded engine walking shards in this thread, with the given
    /// owned-events-per-shard target.
    pub fn new(shard_events: usize) -> Self {
        ShardedEngine {
            config: ShardedConfig {
                shard_events: shard_events.max(1),
                threads: 1,
                workers: 0,
                worker_bin: None,
                fault_after: None,
            },
        }
    }

    /// Sets the within-shard worker thread count (chainable). With
    /// worker processes it is the budget inside each process, shipped
    /// in the job descriptor.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Ships the shards to `workers` `tnm worker` processes (chainable;
    /// `0` walks them in this thread).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Overrides worker-binary resolution with an explicit path
    /// (chainable).
    pub fn with_worker_bin(mut self, bin: impl Into<PathBuf>) -> Self {
        self.config.worker_bin = Some(bin.into());
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
        self.config.fault_after = Some((worker, jobs.max(1)));
        self
    }

    /// The engine configuration.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
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

    fn plan(&self, graph: &TemporalGraph, cfg: &EnumConfig) -> ShardPlan {
        plan_shards(
            graph,
            cfg.admissible_reach(graph),
            ShardGoal::EventsPerShard(self.config.shard_events),
        )
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
            let _span = (self.config.workers > 0).then(|| tnm_obs::span!("distributed.plan"));
            self.plan(graph, cfg)
        };
        // Degenerate plan — one shard spanning the whole log (unbounded
        // reach, or a shard target at or above the graph size).
        // Materializing it would clone the entire event buffer and
        // rebuild a full-size index for nothing (or ship the whole log
        // to one worker): run the monolithic engine on the parent
        // instead, sharing the parent's own window index.
        if plan.len() <= 1 {
            let counts = WindowedEngine::new(self.config.threads).count(graph, cfg);
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
        let mut threads = self.config.threads;
        if self.config.workers > 0 {
            match self.config.worker_bin.clone().or_else(Self::worker_binary) {
                Some(bin) => {
                    let (counts, spawned) =
                        distributed::count_on_workers(&self.config, &bin, graph, cfg, &plan);
                    stats.workers_spawned = spawned;
                    return (counts, stats);
                }
                // No worker binary anywhere (library embedding without
                // the CLI): stay exact in this process, with the worker
                // budget recycled as threads so the run keeps the job's
                // parallelism.
                None => threads *= self.config.workers,
            }
        }
        let mut counts = MotifCounts::new();
        for spec in &plan.shards {
            let _span = tnm_obs::span!("walk.shard", shard = spec.id);
            let shard = load(graph, spec);
            counts.merge(&driver::count_shard(graph, &shard, cfg, threads));
        }
        (counts, stats)
    }
}

/// Materializes one shard from the parent's buffer. The previous shard
/// is already dropped, so the gauge's value is the resident shard's
/// size and its peak the run's residency high-water mark.
fn load(graph: &TemporalGraph, spec: &ShardSpec) -> Shard {
    let shard = materialize(graph, spec);
    tnm_obs::counter_add("shard.loads", 1);
    tnm_obs::gauge_set("shard.resident_events", shard.graph().num_events() as u64);
    shard
}

impl CountEngine for ShardedEngine {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn count(&self, graph: &TemporalGraph, cfg: &EnumConfig) -> MotifCounts {
        self.count_with_stats(graph, cfg).0
    }

    /// Sequential per-shard enumeration in this thread (per-instance
    /// callbacks cannot cross a process boundary, so `workers` is
    /// ignored), with event indices translated back to the parent
    /// graph. Shards are visited in time order and owned starts in
    /// index order, so callbacks observe exactly the windowed walk's
    /// deterministic enumeration order.
    fn enumerate(
        &self,
        graph: &TemporalGraph,
        cfg: &EnumConfig,
        callback: &mut dyn FnMut(&MotifInstance<'_>),
    ) {
        let plan = self.plan(graph, cfg);
        if plan.len() <= 1 {
            // Same degenerate-plan shortcut as `count_with_stats`; the
            // windowed engine already produces the serial order this
            // engine guarantees.
            WindowedEngine.enumerate(graph, cfg, callback);
            return;
        }
        for spec in &plan.shards {
            let _span = tnm_obs::span!("walk.shard", shard = spec.id);
            driver::enumerate_shard(graph, &load(graph, spec), cfg, callback);
        }
    }
}

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

    #[test]
    fn enumeration_order_matches_serial_engines() {
        let g = lcg_graph(200, 12, 250);
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(30));
        let mut serial: Vec<Vec<u32>> = Vec::new();
        WindowedEngine.enumerate(&g, &cfg, &mut |inst| serial.push(inst.events.to_vec()));
        let mut sharded: Vec<Vec<u32>> = Vec::new();
        ShardedEngine::new(13).enumerate(&g, &cfg, &mut |inst| sharded.push(inst.events.to_vec()));
        assert_eq!(serial, sharded, "global event indices in identical order");
    }

    #[test]
    fn stats_expose_residency() {
        let _obs = tnm_obs::test_guard();
        tnm_obs::set_enabled(true);
        tnm_obs::global().reset();
        let g = lcg_graph(400, 16, 600);
        let cfg = EnumConfig::new(2, 2).with_timing(Timing::only_w(15));
        let (_, stats) = ShardedEngine::new(50).count_with_stats(&g, &cfg);
        let snap = tnm_obs::global().snapshot();
        tnm_obs::set_enabled(false);
        assert!(stats.shards >= 8);
        assert_eq!(stats.workers_spawned, 0);
        // Residency high-water mark comes from the registry: one shard
        // at a time, so the gauge peak honors the largest shard.
        let peak = snap.gauges["shard.resident_events"].peak as usize;
        assert!(peak <= stats.max_shard_events);
        assert_eq!(snap.counters["shard.loads"], stats.shards as u64);
    }
}
