//! Pluggable counting engines.
//!
//! Every motif configuration in the paper ultimately runs the same
//! abstract job — *enumerate time-ordered single-component event
//! sequences under ΔC/ΔW pruning, filter, canonicalise, count* — but the
//! profitable execution strategy varies with the workload: graph size,
//! timing tightness, available cores, and whether the log fits in
//! memory at all. This module makes the strategy a value: a
//! [`CountEngine`] trait with four interchangeable implementations,
//! selectable programmatically via [`EngineKind`] or from the CLI via
//! `--engine`.
//!
//! ## Choosing an engine
//!
//! | engine | strategy | pick it when |
//! |---|---|---|
//! | [`WindowedEngine`](struct@WindowedEngine) | the backtracking walk over the [`WindowIndex`](tnm_graph::WindowIndex) (cursor pruning) on the thread budget: one thread walks inline, more threads run work-stealing workers; [`enumerate`](WindowedEngine::enumerate) walks serially and is the crate's one enumeration path | any walk-shaped job on an in-memory graph — the one walker; give it threads when there is enough admissible work per start event |
//! | [`ShardedEngine`] | time-slice shards with bounded halos ([`tnm_graph::shard`]), each walked from its owned starts, over one of two transports: `workers = 0` walks them one at a time in this thread (work-stealing within a shard); `workers = n` ships shard files to `n` `tnm worker` **processes** ([`run_worker`]) over the framed [`tnm_graph::wire`] protocol, rescheduling a crashed worker's shards onto survivors. Static inducedness reads the parent graph's edges: inside the walk in this thread, per aggregated instance group on workers | very large logs under bounded timing — one shard graph and index resident at a time; add worker processes once one process's cores are the bottleneck |
//! | [`StreamEngine`] | count-without-enumerating window DPs: one per-center pass for 2-node sequences, stars and wedges, and a per-triangle label DP | eligible Paranjape-shape jobs — ΔW only, non-induced, no restrictions, ≤ 3 events, ≤ 3 nodes — where cost is near-linear in *events*, not instances; ineligible configs fall back to the one-thread windowed walk |
//! | [`SamplingEngine`] | interval sampling over the windowed index; draws evaluate in parallel under a thread budget with bit-identical seeded results | graphs or windows too large for exact counting, when an estimate with a confidence interval is enough |
//!
//! The walk engines (windowed, sharded) pay cost proportional to the
//! number of motif *instances*; [`StreamEngine`] is the one engine with different
//! asymptotics, and [`auto_select`] routes every eligible job to it
//! first. The engines count; instances come from one place, the serial
//! walk [`WindowedEngine::enumerate`], which [`Query::Enumerate`] and
//! the experiment drivers call whatever engine they count with. All
//! but the sampler are **exact** and produce identical
//! [`MotifCounts`] for identical [`EnumConfig`]s — the cross-engine
//! equivalence suite (`tests/engine_equivalence.rs`) enforces this for
//! all four paper models, including shard cuts placed inside motif
//! spans, the stream engine's eligibility boundary, and the sharded
//! engine's process boundary (worker crashes included). The sampling
//! engine is **approximate**: its `count` returns rounded point
//! estimates, and its calibration is enforced by
//! `tests/sampling_calibration.rs` instead.
//!
//! ## Reading sampling confidence intervals
//!
//! [`CountEngine::report`] widens `count`'s result to an
//! [`EngineReport`]: per-motif [`Estimate`]s (`point ± half_width`, a
//! ~95 % normal-approximation interval) plus an interval on the total.
//! Exact engines report zero-width intervals, so
//! `report.estimate(sig).contains(x)` degrades to an equality test and
//! callers can treat every engine uniformly. For sampled reports,
//! `half_width` shrinks as `1/√samples`: quadruple the budget to halve
//! the interval. A signature the sampler never observed reports a
//! zero-point, zero-width estimate — indistinguishable from a true zero
//! count, which is the inherent limitation of sampling rare motifs.
//!
//! [`EngineKind::Auto`] picks an engine from the graph, configuration,
//! and thread budget (see [`auto_select`]) and is what the one-call
//! [`count_motifs`](crate::count_motifs) entry uses.
//! Every walk reads the graph's own
//! [`WindowIndex`](tnm_graph::WindowIndex), which
//! [`TemporalGraph::window_index`](tnm_graph::TemporalGraph::window_index)
//! builds on first use and keeps, so repeated counts of the same graph —
//! the experiment drivers' common pattern — pay the `O(m)` build once.
//!
//! ## Batching many configurations
//!
//! Counting *several* configurations against one graph should go
//! through [`count_batch`] / [`EngineKind::count_batch`] /
//! [`enumerate_batch`] instead of a loop: [`BatchPlanner`] groups
//! configs that share a walk shape (or a stream-DP `(ΔW, events)`
//! bucket) and answers each group in **one traversal**, demoting
//! per-config differences — tighter windows, node bounds, signature
//! targets — to per-instance masks and table projections. N compatible
//! configs cost ~1 traversal + N projections rather than N traversals,
//! and every result stays bit-identical to the per-config call (the
//! analysis drivers `table3`/`table5`/`fig5` run as batch plans, and
//! `tnm count-batch` exposes the same API on the CLI). Under `Auto`,
//! each group's engine is chosen from its widest-reach member;
//! sharded/sampling kinds run each config solo, since their
//! per-run setup is not shareable.
//!
//! ## The Query API
//!
//! Front ends do not dispatch over [`EngineKind`] by hand: they build a
//! [`Query`] — Count, Report, Enumerate, or Batch, each wrapping one or
//! more [`EnumConfig`]s plus an engine and thread budget — and call
//! [`Query::run`]. Validation ([`EnumConfig::validate`], returning the
//! typed [`ConfigError`]) and dispatch live in one place, so the CLI
//! `count`/`count-batch` verbs, library callers, and the `tnm serve`
//! daemon answer identical requests bit-identically. [`QueryResponse`]
//! mirrors the request shape (counts / interval report / bounded
//! instances / per-config tables).
//!
//! ## `tnm serve`: the resident counting service
//!
//! [`MotifServer`] turns the crate into a long-running system: a TCP
//! daemon holding a registry of loaded graphs as its resident working
//! set (each graph with the structures it built on first use, until an
//! append extends it in place and drops them),
//! answering [`Query`] requests from concurrent clients, and keeping
//! registered Paranjape-shape subscriptions **live under appends** via
//! [`IncrementalStream`] — O(new events) per batch, bit-identical to a
//! from-scratch [`StreamEngine`] recount. Messages travel as
//! [`tnm_graph::wire`] frames versioned alongside the worker protocol;
//! a frame's kind byte is the `wire_enum!` tag of the serve module's
//! request and response enums: request kinds Load 16, Append 17,
//! Query 18, Subscribe 19, Stats 20, Shutdown 21, Metrics 22; response
//! kinds Loaded 32, Appended 33, Query 34, Subscribed 35, Stats 36,
//! Bye 37, Metrics 38, Error 63 (worker kinds own `1..=4`, so the
//! protocols cannot be confused). Every layout is written once, as a
//! [`Wire`](tnm_graph::wire::Wire) impl next to its type or a
//! `wire_struct!` / `wire_enum!` entry, and `wire_suite` pins them to
//! golden frames and fuzzes every decoder. Use [`ServeClient`] (or the
//! `tnm client` verb) to speak it.
//!
//! ## Data layout
//!
//! The hot loops are data-oriented, built on two layout decisions made
//! in [`tnm_graph`] (see its crate docs):
//!
//! * **SoA event columns.** Every per-event field the inner loops touch
//!   comes from [`TemporalGraph::columns`](tnm_graph::TemporalGraph::columns)
//!   — dense `times`/`srcs`/`dsts` arrays built lazily once per graph —
//!   rather than striding through 24-byte [`Event`](tnm_graph::Event)
//!   structs. Window probes (`count_*_between`, shard halo scans) are
//!   `partition_point` calls over the contiguous `i64` time column; the
//!   walker's candidate windows are cursor scans over the window index's
//!   inline times. The stream DPs are the exception: they copy each
//!   center's or triangle's events into their arena straight from the
//!   event log, so a 2-node count on a graph that just took an append
//!   builds no columns.
//! * **Arena-resident merged lists.** The [`StreamEngine`] DPs never
//!   allocate per center or triangle: each center's incident events
//!   (neighbor- and direction-tagged) and each triangle's label-tagged
//!   merged events live in one reusable SoA arena with
//!   precomputed timestamp-group boundaries, window expiry advances an
//!   amortized group cursor against those boundaries, and the DP tables are
//!   flat bit-indexed `[u64; K]` accumulators whose updates are
//!   unconditional indexed adds. The triangles themselves come from the
//!   table each graph lists once
//!   ([`TemporalGraph::triangles`](tnm_graph::TemporalGraph::triangles)),
//!   so a triad count is only the six-way merge and the window DP.
//!
//! The `hotpath_*` bench groups (`crates/bench/benches/engines.rs`)
//! time each of these loops.
//!
//! ## Observability
//!
//! Every engine layer is instrumented through [`tnm_obs`]: hierarchical
//! timed spans (exported as Chrome-trace JSON by `tnm count --trace`)
//! and a registry of named counters/gauges/histograms (`tnm client
//! --metrics` renders the daemon's registry as Prometheus text). The
//! whole subsystem sits behind one relaxed atomic flag
//! ([`tnm_obs::enabled`]) — disabled, each instrumentation point costs
//! a single branch, pinned by the `obs_overhead` bench group and a
//! bit-identical-counts test.
//!
//! The naming contract (changing a name is a breaking change for
//! dashboards; record renames in ROADMAP.md):
//!
//! | layer | spans | metrics |
//! |---|---|---|
//! | walk | `walk.worker{worker}` | `engine.events_scanned`, `engine.candidates_pruned`, `engine.instances_emitted` |
//! | graph | `index.build{events}` — once per graph, when its window index is built | — |
//! | sharded, in thread | `walk.shard{shard}` | `shard.loads`, `shard.resident_events` (peak = the canonical high-water mark) |
//! | sharded, worker processes | coordinator: `distributed.{plan,spill{shards,dir},spawn,merge}` + synthetic `distributed.walk{shard}` from worker wall times; worker: `walk.shard{shard}`, shipped back when the job is traced | `distributed.shard_wall_ns`, `distributed.{workers_lost,jobs_rescheduled}` |
//! | stream DPs | `stream.star{two_node,star}` — the per-center pass, with which classes it produced; `stream.triad` — the triangle pass | `stream.pair.pairs_swept` (unordered node pairs with an event, counted by 2-node jobs), `stream.star.{centers_swept,center_events}` (star and wedge jobs), `stream.triad.{triangles_swept,groups_advanced,window_events}` |
//! | query API | `query.{count,report,enumerate,batch}{engine,threads}` — the root of every [`Query::run`] | — |
//! | serve | `serve.query{graph,kind}`, `serve.subscribe{graph}` — per-request roots when the trace flag is set | `serve.{queries,appends}`, `serve.query.{count,report,enumerate,batch}_ns`, `serve.connection_frames`, `serve.subscription_advance_ns` |
//!
//! `stream.pair.{groups_advanced,window_events}` were removed with the
//! per-pair DP: 2-node sequences now come from the per-center pass.
//!
//! `engine.events_scanned` counts the candidates the walk's source
//! returns plus one per start event, and `engine.candidates_pruned` those
//! the walker then refuses. The source already drops what the node
//! budget and Kovanen's consecutive-events rule exclude (see the
//! `CandidateSource` contract), so both counters count filtered
//! candidates, and a consecutive-events or full-budget walk scans far
//! fewer events than the unfiltered gather did for the same instances.
//!
//! Workers ship their per-job metrics snapshot (plus wall time) inside
//! reply frames; the coordinator folds them into its own registry, so
//! one trace and one snapshot describe a whole worker-process run —
//! per-shard wall times make stragglers visible. A request-scoped trace
//! ([`tnm_obs::TraceCtx`], set by the serve trace flag or `tnm client
//! --trace`) is installed on the thread that runs the request; the
//! work-stealing executor and the coordinator install it on each thread
//! they start, and the coordinator ships it in every job frame. Workers
//! then ship their **span trees** back: the coordinator re-mints span
//! ids and stitches them under the span that started the run, so one
//! Chrome-trace document shows
//! coordinator phases and per-shard worker walks on one timeline. The
//! daemon's scrape surface (`/metrics`, `/healthz`, `/timeseries`),
//! sample ring, and query logs are documented in the serve module's
//! "Operating `tnm serve`" section. `tnm count --explain`
//! prints [`explain_auto_select`]'s measured decision for the workload.

mod batch;
mod config;
mod parallel;
mod query;
mod report;
mod sampling;
mod serve;
mod sharded;
mod stream;
mod walker;
mod windowed;
#[cfg(test)]
mod wire_suite;

pub use batch::{count_batch, enumerate_batch, BatchPlan, BatchPlanner};
pub use config::{ConfigError, EnumConfig, MotifInstance};
pub use parallel::SERIAL_FALLBACK_EVENTS;
pub use query::{Query, QueryError, QueryInstance, QueryResponse};
pub use report::{t_critical_95, EngineReport, Estimate, Z_95};
pub use sampling::{SamplingEngine, DEFAULT_SAMPLING_BUDGET, DEFAULT_SAMPLING_SEED};
pub use serve::{
    AppendAck, AppendError, ClientError, GraphStat, IncrementalStream, MotifServer, QueryLogEntry,
    ServeClient, ServeOptions, ServerHandle, ServerStats, TraceReply,
};
pub use sharded::{run_worker, ShardedEngine, ShardedRunStats, DEFAULT_SHARD_EVENTS};
#[doc(hidden)]
pub use stream::hotpath as stream_hotpath;
pub use stream::StreamEngine;
pub use windowed::WindowedEngine;

use crate::count::MotifCounts;
use tnm_graph::TemporalGraph;

/// A motif counting engine: one execution strategy for the shared
/// enumeration semantics defined by [`EnumConfig`]. Engines count; none
/// hands out instances. Enumeration has one implementation, the serial
/// walk [`WindowedEngine::enumerate`], because every exact engine
/// enumerates the same instances.
pub trait CountEngine: Send + Sync {
    /// Stable engine name (what `--engine` parses, what reports print).
    fn name(&self) -> &'static str;

    /// Counts instances per canonical signature.
    fn count(&self, graph: &TemporalGraph, cfg: &EnumConfig) -> MotifCounts;

    /// Counts with uncertainty attached: per-motif point estimates and
    /// ~95 % confidence intervals. Exact engines use this default
    /// implementation — their counts wrapped in zero-width intervals —
    /// so the report shape is uniform across exact and approximate
    /// backends (see the [module docs](self) on reading intervals).
    fn report(&self, graph: &TemporalGraph, cfg: &EnumConfig) -> EngineReport {
        EngineReport::from_exact(self.name(), self.count(graph, cfg))
    }
}

/// Engine selection, parseable from CLI strings (`--engine windowed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// [`WindowedEngine`](struct@WindowedEngine) on the thread budget
    /// (`1` = the serial walk).
    Windowed,
    /// [`StreamEngine`]: exact count-without-enumerating fast path for
    /// eligible Paranjape-shape jobs, windowed-walker fallback otherwise.
    Stream,
    /// [`ShardedEngine`] over time-slice shards (exact).
    Sharded {
        /// Target owned start events per shard.
        shard_events: usize,
        /// `0` = walk the shards in this thread; `n > 0` = ship them to
        /// `n` worker processes over the framed wire protocol (crash-
        /// detected shards are rescheduled onto surviving workers).
        workers: usize,
    },
    /// [`SamplingEngine`] with the given budget and seed (approximate).
    Sampling {
        /// Number of sample windows to draw.
        samples: u32,
        /// RNG seed (runs are deterministic given the seed).
        seed: u64,
    },
    /// Pick per-workload via [`auto_select`].
    #[default]
    Auto,
}

// Tags 0 and 2 belonged to two retired walk kinds; they stay unused so
// the surviving kinds keep their numbers.
tnm_graph::wire_enum!(EngineKind {
    1 => Windowed,
    3 => Stream,
    4 => Sharded { shard_events as u64, workers as u64 },
    5 => Sampling { samples, seed },
    6 => Auto,
});

/// Minimum expected number of admissible events per pruning window for
/// [`auto_select`] to give the walk more than one thread. Below this,
/// most walks die after one candidate probe and thread spawn/merge
/// overhead outweighs the work being distributed.
pub const PARALLEL_MIN_WINDOW_EVENTS: f64 = 2.0;

/// Minimum expected events per ΔW window for [`auto_select`] to route a
/// **triangle-bearing** job to [`StreamEngine`]. The stream pair/star
/// classes are `O(events)` regardless, but every triad count merges and
/// sweeps Σ over static triangles of their event counts (the triangles
/// themselves are listed once per graph) — projection-density work the
/// window never prunes. Below one expected event per window the
/// walk's probes die almost immediately (≈ `O(m)` total), so a
/// starved needle-ΔW sweep over a dense projection must stay on it.
/// Jobs whose node budget or signature target gates the triangle class
/// off ([`StreamEngine::needs_triads`]) skip this check.
pub const STREAM_MIN_WINDOW_EVENTS: f64 = 1.0;

/// From this many events up, [`auto_select`] prefers the sharded engine
/// for bounded-timing workloads: one monolithic `WindowIndex` plus
/// whole-graph walks stop being memory-friendly, while time slices with
/// bounded halos keep the working set small at (measured) comparable
/// throughput. Requires a bounded admissible reach — with unbounded
/// timing a shard's halo would cover the rest of the log and sharding
/// buys nothing.
pub const SHARDED_MIN_EVENTS: usize = 262_144;

/// From this many events up — four sharded thresholds — [`auto_select`]
/// moves a bounded-reach, multi-worker workload from the sharded
/// engine's in-thread transport to its worker processes: the shard plan
/// is the same, but per-shard index builds and walks move out of this
/// process, so the coordinator's address space holds only the parent
/// graph and the merge. Like the sharded rule it requires a bounded admissible
/// reach, and additionally a worker budget above one — a single worker
/// would pay process spawn and wire framing for the sharded engine's
/// exact work.
pub const DISTRIBUTED_MIN_EVENTS: usize = 1_048_576;

/// Expected number of events inside one pruning window: the graph's
/// event count scaled by the fraction of the timeline a walk may reach
/// from its first event
/// ([`EnumConfig::max_admissible_span`] against the timespan).
/// Infinite for unbounded timing.
fn expected_window_events(graph: &TemporalGraph, cfg: &EnumConfig) -> f64 {
    let Some(reach) = cfg.max_admissible_span() else {
        return f64::INFINITY;
    };
    let span = graph.timespan().max(1);
    graph.num_events() as f64 * (reach.min(span) as f64 / span as f64)
}

/// The selection table behind [`EngineKind::Auto`], resolving to a
/// concrete kind and the threads it runs with:
///
/// 1. a [`StreamEngine::eligible`] configuration (Paranjape shape: ΔW
///    set, no ΔC, no restrictions, non-induced, ≤ 3 events, ≤ 3 nodes)
///    → [`EngineKind::Stream`] — the only asymptotic win on the table
///    (near-linear in events, not instances), so it outranks the walk
///    regardless of graph size or thread budget. One carve-out:
///    when the job's triangle class would run
///    ([`StreamEngine::needs_triads`]) **and** the window is starved
///    (expected occupancy below [`STREAM_MIN_WINDOW_EVENTS`]), the
///    walk keeps the job — its probes die instantly under a needle
///    ΔW while the triad merge still pays projection-density work;
/// 2. at least [`DISTRIBUTED_MIN_EVENTS`] events with a bounded
///    admissible reach and a worker budget above one →
///    [`EngineKind::Sharded`] with `workers` = the thread budget
///    (counting leaves the coordinator's address space);
/// 3. at least [`SHARDED_MIN_EVENTS`] events with a bounded admissible
///    reach ([`EnumConfig::admissible_reach`]) →
///    [`EngineKind::Sharded`] in this thread (`workers = 0`; bounded
///    working set; the within-shard executor still uses the thread
///    budget);
/// 4. otherwise → [`EngineKind::Windowed`], on the whole thread budget
///    when the graph has at least [`SERIAL_FALLBACK_EVENTS`] events
///    **and** at least [`PARALLEL_MIN_WINDOW_EVENTS`] expected events
///    per ΔC/ΔW window (enough work per start event to pay for spawn
///    and merge), else on one thread.
///
/// Rule 4 is why a huge-but-unsharded graph under an extremely tight ΔW
/// still walks on one thread: each walk dies after a probe or two, so
/// distributing the starts distributes almost nothing. [`auto_select`]
/// never resolves to the approximate sampler — estimation is an explicit
/// caller choice, not a performance fallback. The table is pinned by
/// unit tests in this module.
pub fn auto_select(graph: &TemporalGraph, cfg: &EnumConfig, threads: usize) -> EngineKind {
    explain_auto_select(graph, cfg, threads).chosen
}

/// The measured inputs behind one [`auto_select`] decision and the
/// selection-table rule they fired — what `tnm count --explain` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoSelectExplanation {
    /// The resolved concrete kind.
    pub chosen: EngineKind,
    /// The threads the chosen kind runs with: the budget, except that
    /// the windowed walk takes one thread when rule 4's work test fails
    /// and the stream DPs always run on one.
    pub threads: usize,
    /// Events in the graph (`m`).
    pub num_events: usize,
    /// The thread budget the selector was given.
    pub budget: usize,
    /// Expected admissible events per ΔC/ΔW pruning window
    /// ([`f64::INFINITY`] with unbounded timing).
    pub expected_window_events: f64,
    /// True when neither ΔC nor ΔW is set.
    pub unbounded_timing: bool,
    /// True when [`EnumConfig::admissible_reach`] is bounded (sharding
    /// and distribution are viable).
    pub bounded_reach: bool,
    /// True when the config fits the stream fast path
    /// ([`StreamEngine::eligible`]).
    pub stream_eligible: bool,
    /// True when the stream path would run its triangle class
    /// ([`StreamEngine::needs_triads`]).
    pub needs_triads: bool,
    /// The 1-based rule of the [`auto_select`] doc table that fired
    /// (4 = the windowed walk).
    pub rule: u8,
    /// One-line rationale for the fired rule.
    pub reason: &'static str,
}

impl std::fmt::Display for AutoSelectExplanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "auto-select: {} (rule {})", self.chosen, self.rule)?;
        writeln!(f, "  reason: {}", self.reason)?;
        writeln!(f, "  threads: {} (budget {})", self.threads, self.budget)?;
        writeln!(f, "  num_events: {}", self.num_events)?;
        if self.expected_window_events.is_finite() {
            writeln!(f, "  expected_window_events: {:.2}", self.expected_window_events)?;
        } else {
            writeln!(f, "  expected_window_events: inf (unbounded timing)")?;
        }
        writeln!(f, "  unbounded_timing: {}", self.unbounded_timing)?;
        writeln!(f, "  bounded_reach: {}", self.bounded_reach)?;
        writeln!(f, "  stream_eligible: {}", self.stream_eligible)?;
        write!(f, "  needs_triads: {}", self.needs_triads)
    }
}

/// [`auto_select`] with its working shown: the same decision chain,
/// returning the chosen kind and its threads together with every
/// measured input and the rule that fired. `auto_select` and
/// [`EngineKind::Auto`] delegate here, so they can never disagree.
pub fn explain_auto_select(
    graph: &TemporalGraph,
    cfg: &EnumConfig,
    threads: usize,
) -> AutoSelectExplanation {
    let m = graph.num_events();
    let budget = threads.max(1);
    let window = expected_window_events(graph, cfg);
    let bounded_reach = cfg.admissible_reach(graph).is_some();
    let stream_eligible = StreamEngine::eligible(cfg);
    let needs_triads = StreamEngine::needs_triads(cfg);
    let mut explain = AutoSelectExplanation {
        chosen: EngineKind::Windowed,
        threads: budget,
        num_events: m,
        budget,
        expected_window_events: window,
        unbounded_timing: cfg.timing.delta_c.is_none() && cfg.timing.delta_w.is_none(),
        bounded_reach,
        stream_eligible,
        needs_triads,
        rule: 4,
        reason: "enough admissible work per start event to pay for spawn and merge",
    };
    if stream_eligible && (!needs_triads || window >= STREAM_MIN_WINDOW_EVENTS) {
        explain.chosen = EngineKind::Stream;
        explain.threads = 1;
        explain.rule = 1;
        explain.reason = "stream-eligible shape; the window DP is near-linear in events";
    } else if budget > 1 && m >= DISTRIBUTED_MIN_EVENTS && bounded_reach {
        explain.chosen =
            EngineKind::Sharded { shard_events: DEFAULT_SHARD_EVENTS, workers: budget };
        explain.rule = 2;
        explain.reason = "huge bounded-reach graph with a worker budget; leave the address space";
    } else if m >= SHARDED_MIN_EVENTS && bounded_reach {
        explain.chosen = EngineKind::Sharded { shard_events: DEFAULT_SHARD_EVENTS, workers: 0 };
        explain.rule = 3;
        explain.reason = "large bounded-reach graph; time slices keep the working set small";
    } else if budget == 1 {
        explain.reason = "the walk on the one-thread budget";
    } else if m < SERIAL_FALLBACK_EVENTS || window < PARALLEL_MIN_WINDOW_EVENTS {
        explain.threads = 1;
        explain.reason = "too little admissible work per start event to share; walk on one thread";
    }
    explain
}

impl EngineKind {
    /// Every concrete **exact** kind (excludes `Auto` and the
    /// approximate sampler) — the registry the cross-engine equivalence
    /// sweep iterates (`tests/engine_equivalence.rs`), so a newly
    /// registered exact engine cannot be silently skipped. The sharded
    /// engine appears once per transport: in this thread and on two
    /// worker processes.
    pub const CONCRETE: [EngineKind; 4] = [
        EngineKind::Windowed,
        EngineKind::Stream,
        EngineKind::Sharded { shard_events: DEFAULT_SHARD_EVENTS, workers: 0 },
        EngineKind::Sharded { shard_events: DEFAULT_SHARD_EVENTS, workers: 2 },
    ];

    /// The sampling kind with an explicit budget and seed.
    pub fn sampling(samples: u32, seed: u64) -> EngineKind {
        EngineKind::Sampling { samples, seed }
    }

    /// The sharded kind with an explicit per-shard event target and
    /// worker-process count (`0` = walk the shards in this thread).
    pub fn sharded(shard_events: usize, workers: usize) -> EngineKind {
        EngineKind::Sharded { shard_events, workers }
    }

    /// Instantiates the engine, resolving `Auto` against the workload
    /// via [`explain_auto_select`] (kind and threads).
    pub fn engine_for(
        self,
        graph: &TemporalGraph,
        cfg: &EnumConfig,
        threads: usize,
    ) -> Box<dyn CountEngine> {
        match self {
            EngineKind::Windowed => Box::new(WindowedEngine::new(threads)),
            EngineKind::Stream => Box::new(StreamEngine),
            EngineKind::Sharded { shard_events, workers } => {
                // The thread budget spreads across worker processes: T
                // threads over W workers gives each worker ⌊T/W⌋ (at
                // least 1) within-shard threads, keeping total
                // parallelism at the budget instead of W × T — and
                // keeping auto-resolved runs (workers = threads) from
                // oversubscribing quadratically.
                let threads = (threads.max(1) / workers.max(1)).max(1);
                Box::new(
                    ShardedEngine::new(shard_events).with_workers(workers).with_threads(threads),
                )
            }
            EngineKind::Sampling { samples, seed } => {
                Box::new(SamplingEngine::new(samples.max(1) as usize, seed).with_threads(threads))
            }
            EngineKind::Auto => {
                let pick = explain_auto_select(graph, cfg, threads);
                pick.chosen.engine_for(graph, cfg, pick.threads)
            }
        }
    }

    /// Counts with the engine this kind resolves to.
    pub fn count(self, graph: &TemporalGraph, cfg: &EnumConfig, threads: usize) -> MotifCounts {
        self.engine_for(graph, cfg, threads).count(graph, cfg)
    }

    /// Reports (counts plus confidence intervals) with the engine this
    /// kind resolves to.
    pub fn report(self, graph: &TemporalGraph, cfg: &EnumConfig, threads: usize) -> EngineReport {
        self.engine_for(graph, cfg, threads).report(graph, cfg)
    }

    /// Counts a whole batch of configurations, sharing traversals
    /// across compatible configs (see the [`batch`](self) planner):
    /// stream-eligible ΔW groups share one DP pass, walk-shaped groups
    /// share one widest-timing walk with per-config emission masks, and
    /// unshareable kinds (sharded/sampling) run each config
    /// solo. `out[i]` is bit-identical to `self.count(graph, &cfgs[i],
    /// threads)` — enforced by `tests/batch_planner.rs`. Under `Auto`,
    /// each group's engine is chosen from its widest-reach member.
    pub fn count_batch(
        self,
        graph: &TemporalGraph,
        cfgs: &[EnumConfig],
        threads: usize,
    ) -> Vec<MotifCounts> {
        batch::count_batch_with(graph, cfgs, self, threads)
    }
}

impl std::str::FromStr for EngineKind {
    type Err = ParseEngineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "windowed" => Ok(EngineKind::Windowed),
            "stream" => Ok(EngineKind::Stream),
            "sharded" => Ok(EngineKind::Sharded { shard_events: DEFAULT_SHARD_EVENTS, workers: 0 }),
            "sampling" => Ok(EngineKind::Sampling {
                samples: DEFAULT_SAMPLING_BUDGET as u32,
                seed: DEFAULT_SAMPLING_SEED,
            }),
            "auto" => Ok(EngineKind::Auto),
            _ => Err(ParseEngineError { got: s.to_string() }),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EngineKind::Windowed => "windowed",
            EngineKind::Stream => "stream",
            EngineKind::Sharded { .. } => "sharded",
            EngineKind::Sampling { .. } => "sampling",
            EngineKind::Auto => "auto",
        };
        f.write_str(s)
    }
}

/// Error from parsing an engine name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEngineError {
    got: String,
}

impl std::fmt::Display for ParseEngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown engine `{}` (expected windowed, stream, sharded, sampling, or auto)",
            self.got
        )
    }
}

impl std::error::Error for ParseEngineError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Timing;
    use tnm_graph::TemporalGraphBuilder;

    fn tiny() -> TemporalGraph {
        TemporalGraphBuilder::new().event(0, 1, 10).event(1, 2, 20).event(2, 3, 30).build().unwrap()
    }

    /// Deterministic LCG graph with `events` events spread over `span`
    /// seconds on 40 nodes.
    fn sized(events: usize, span: i64) -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..events {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((x >> 33) % 40) as u32;
            let v = (u + 1 + ((x >> 13) % 38) as u32) % 40;
            let t = (i as i64 * span) / events as i64;
            b.push(tnm_graph::Event::new(u, v, t));
        }
        b.build().unwrap()
    }

    #[test]
    fn kind_parses_and_displays() {
        for kind in [EngineKind::Windowed, EngineKind::Stream, EngineKind::Auto] {
            let round: EngineKind = kind.to_string().parse().unwrap();
            assert_eq!(round, kind);
        }
        assert_eq!("WINDOWED".parse::<EngineKind>().unwrap(), EngineKind::Windowed);
        assert_eq!(
            "sampling".parse::<EngineKind>().unwrap(),
            EngineKind::sampling(DEFAULT_SAMPLING_BUDGET as u32, DEFAULT_SAMPLING_SEED),
        );
        assert_eq!(EngineKind::sampling(9, 3).to_string(), "sampling");
        assert_eq!(
            "sharded".parse::<EngineKind>().unwrap(),
            EngineKind::sharded(DEFAULT_SHARD_EVENTS, 0),
        );
        assert_eq!(EngineKind::sharded(512, 4).to_string(), "sharded");
        // The walk has one name; its thread count is the budget.
        for retired in ["distributed", "backtrack", "parallel"] {
            let msg = retired.parse::<EngineKind>().unwrap_err().to_string();
            assert!(msg.contains("windowed"), "error must name the walk engine: {msg}");
        }
        assert!("bogus".parse::<EngineKind>().is_err());
        let msg = "bogus".parse::<EngineKind>().unwrap_err().to_string();
        assert!(msg.contains("sampling"), "error must list all engines: {msg}");
        assert!(msg.contains("sharded"), "error must list all engines: {msg}");
        assert!(msg.contains("stream"), "error must list all engines: {msg}");
    }

    /// Sweeps and benches iterate [`EngineKind::CONCRETE`]; the stream
    /// fast path must be in it, or the one engine with different
    /// asymptotics silently drops out of every equivalence sweep and
    /// bench history.
    #[test]
    fn concrete_includes_stream() {
        assert!(EngineKind::CONCRETE.contains(&EngineKind::Stream));
        assert!(!EngineKind::CONCRETE.contains(&EngineKind::Auto));
        assert!(!EngineKind::CONCRETE.iter().any(|k| matches!(k, EngineKind::Sampling { .. })));
        // The worker-process transport must sit in the registry too, or
        // the equivalence sweep never crosses a process boundary.
        assert!(EngineKind::CONCRETE
            .iter()
            .any(|k| matches!(k, EngineKind::Sharded { workers, .. } if *workers > 0)));
    }

    /// Pins the [`auto_select`] table: each row is (events, span,
    /// timing, thread budget) → expected concrete kind and the threads
    /// it runs with.
    #[test]
    fn auto_selection_table() {
        let tiny = tiny();
        let large = sized(4096, 40_000); // well above SERIAL_FALLBACK_EVENTS
        let small = sized(100, 1_000); // above nothing
                                       // At the sharded threshold exactly (the rule is `>=`).
        let huge = sized(SHARDED_MIN_EVENTS, 4_000_000);
        // At the distributed threshold exactly (the rule is `>=`).
        let mega = sized(DISTRIBUTED_MIN_EVENTS, 16_000_000);
        let sharded_default = EngineKind::sharded(DEFAULT_SHARD_EVENTS, 0);
        let unbounded = EnumConfig::new(3, 3);
        // Stream-eligible: ΔW only, ≤ 3 events on ≤ 3 nodes.
        let loose_w = EnumConfig::new(3, 3).with_timing(Timing::only_w(3_000));
        // ΔW=10 over a 40k span at ~0.1 events/s → ~1 event per window.
        let needle_w = EnumConfig::new(3, 3).with_timing(Timing::only_w(10));
        // Same ΔW shapes pushed out of stream eligibility: 4 events, or
        // a node budget admitting 4-node motifs.
        let loose_w4 = EnumConfig::new(4, 4).with_timing(Timing::only_w(3_000));
        let needle_w4 = EnumConfig::new(4, 4).with_timing(Timing::only_w(10));
        let loose_w_4n = EnumConfig::new(3, 4).with_timing(Timing::only_w(3_000));
        // Eligible needle with the triangle class gated off by the node
        // budget: the occupancy carve-out does not apply.
        let needle_w_2n = EnumConfig::new(3, 2).with_timing(Timing::only_w(10));
        let loose_c = EnumConfig::new(3, 3).with_timing(Timing::only_c(2_000));
        // Duration-aware ΔC bounds nothing from the config alone (gaps
        // run from event ends): reach counts as unbounded.
        let mut aware_c = EnumConfig::new(3, 3).with_timing(Timing::only_c(5));
        aware_c.duration_aware = true;
        let walk = EngineKind::Windowed;
        let stream = EngineKind::Stream;
        let table: &[(&TemporalGraph, &EnumConfig, usize, EngineKind, usize)] = &[
            // 1. Stream-eligible Paranjape shape: the asymptotic win
            // outranks the walk, at any size or thread budget.
            (&tiny, &loose_w, 1, stream, 1),
            (&small, &loose_w, 8, stream, 1),
            (&large, &loose_w, 1, stream, 1),
            (&large, &loose_w, 8, stream, 1),
            // ...the large graph's ΔW=10 windows hold ≈1 expected event,
            // right at STREAM_MIN_WINDOW_EVENTS, so the needle stays
            // streamed there...
            (&large, &needle_w, 8, stream, 1),
            (&huge, &loose_w, 8, stream, 1),
            // ...but the huge graph's windows are starved (<1 expected
            // event) and the job carries triangles: the carve-out hands
            // it to the walk (rule 3 shards it). With triangles gated
            // off by a 2-node budget the same needle still streams.
            (&huge, &needle_w, 8, sharded_default, 8),
            (&huge, &needle_w_2n, 8, stream, 1),
            (&large, &needle_w_2n, 8, stream, 1),
            // Unbounded timing on a small graph: the walk on one thread
            // (below SERIAL_FALLBACK_EVENTS, whatever the budget)...
            (&tiny, &unbounded, 1, walk, 1),
            (&tiny, &unbounded, 8, walk, 1),
            (&small, &unbounded, 8, walk, 1),
            // ...and the same for bounded timing (the 4-node budget
            // keeps the stream fast path out).
            (&tiny, &loose_w_4n, 1, walk, 1),
            (&small, &loose_w_4n, 8, walk, 1),
            // 2. At/above DISTRIBUTED_MIN_EVENTS with bounded reach and
            // more than one worker: counting leaves the process (the
            // thread budget becomes the worker count). One thread means
            // one worker — nothing to distribute — so the same graph
            // falls through to the sharded rule; stream eligibility
            // still outranks everything.
            (&mega, &loose_w4, 8, EngineKind::sharded(DEFAULT_SHARD_EVENTS, 8), 8),
            (&mega, &loose_c, 2, EngineKind::sharded(DEFAULT_SHARD_EVENTS, 2), 2),
            (&mega, &loose_w4, 1, sharded_default, 1),
            (&mega, &unbounded, 8, walk, 8),
            (&mega, &loose_w, 8, stream, 1),
            // 3. At/above SHARDED_MIN_EVENTS with bounded reach — and no
            // stream eligibility: sharded (thread budget notwithstanding;
            // threads go within-shard).
            (&huge, &loose_w4, 1, sharded_default, 1),
            (&huge, &loose_w4, 8, sharded_default, 8),
            (&huge, &needle_w4, 8, sharded_default, 8),
            (&huge, &loose_c, 8, sharded_default, 8),
            // ...an unbounded reach leaves nothing to shard by: the walk
            // on the whole budget.
            (&huge, &unbounded, 8, walk, 8),
            // ...duration-aware ΔC bounds the reach via the graph's max
            // event duration (zero here), so the huge graph still shards.
            (&huge, &aware_c, 8, sharded_default, 8),
            // 4. Large graph + enough work per window: the walk takes the
            // whole budget.
            (&large, &loose_w4, 8, walk, 8),
            (&large, &loose_c, 8, walk, 8),
            (&large, &unbounded, 8, walk, 8),
            // ...tight ΔW starves the walks: one thread.
            (&large, &needle_w4, 8, walk, 1),
            // ...duration-aware ΔC: config-only reach is unbounded, so
            // below the sharded threshold the occupancy heuristic sees
            // infinite windows and takes the budget.
            (&large, &aware_c, 8, walk, 8),
            // ...and a one-thread budget is one thread.
            (&large, &loose_w4, 1, walk, 1),
            (&large, &aware_c, 1, walk, 1),
        ];
        for &(g, cfg, budget, expected, threads) in table {
            let pick = explain_auto_select(g, cfg, budget);
            let at = format!("m={} timing={} budget={budget}", g.num_events(), cfg.timing);
            assert_eq!(auto_select(g, cfg, budget), expected, "{at}");
            assert_eq!((pick.chosen, pick.threads), (expected, threads), "{at}");
            assert_eq!(
                EngineKind::Auto.engine_for(g, cfg, budget).name(),
                expected.engine_for(g, cfg, threads).name()
            );
            // The resolver never falls back to the approximate sampler
            // on its own: estimation is an explicit caller choice.
            assert!(!matches!(pick.chosen, EngineKind::Sampling { .. }));
        }
        // Explicit approximate/sharded kinds resolve to their engines
        // with parameters intact, bypassing the table.
        assert_eq!(EngineKind::sampling(32, 5).engine_for(&tiny, &loose_w, 4).name(), "sampling");
        assert_eq!(EngineKind::sharded(64, 2).engine_for(&tiny, &loose_w, 4).name(), "sharded");
        assert_eq!(sharded_default.engine_for(&huge, &loose_w, 8).name(), "sharded");
    }

    /// [`explain_auto_select`] shows its working: the chosen kind always
    /// equals [`auto_select`]'s, the fired rule matches the doc table,
    /// and the measured inputs land in the rendered text.
    #[test]
    fn explanations_match_the_selection() {
        let tiny = tiny();
        let large = sized(4096, 40_000);
        let huge = sized(SHARDED_MIN_EVENTS, 4_000_000);
        let loose_w = EnumConfig::new(3, 3).with_timing(Timing::only_w(3_000));
        let loose_w4 = EnumConfig::new(4, 4).with_timing(Timing::only_w(3_000));
        let unbounded = EnumConfig::new(3, 3);
        for (g, cfg, budget, rule, threads) in [
            (&tiny, &loose_w, 1, 1u8, 1),
            (&tiny, &unbounded, 8, 4, 1),
            (&huge, &loose_w4, 1, 3, 1),
            (&large, &loose_w4, 8, 4, 8),
            (&large, &loose_w4, 1, 4, 1),
        ] {
            let explain = explain_auto_select(g, cfg, budget);
            assert_eq!(explain.chosen, auto_select(g, cfg, budget), "rule {rule}");
            assert_eq!(explain.rule, rule);
            assert_eq!(explain.num_events, g.num_events());
            assert_eq!((explain.threads, explain.budget), (threads, budget));
            let text = explain.to_string();
            assert!(text.contains(&format!("auto-select: {} (rule {rule})", explain.chosen)));
            assert!(text.contains(&format!("threads: {threads} (budget {budget})")));
            assert!(text.contains(&format!("num_events: {}", g.num_events())));
        }
        // Unbounded timing renders an infinite window occupancy.
        let explain = explain_auto_select(&tiny, &unbounded, 1);
        assert!(explain.unbounded_timing && !explain.bounded_reach);
        assert!(explain.expected_window_events.is_infinite());
        assert!(explain.to_string().contains("inf (unbounded timing)"));
    }

    #[test]
    fn engines_agree_on_a_toy_graph() {
        let g = tiny();
        let cfg = EnumConfig::new(3, 4).with_timing(Timing::only_w(30));
        let reference = WindowedEngine.count(&g, &cfg);
        for kind in EngineKind::CONCRETE {
            let counts = kind.count(&g, &cfg, 4);
            assert_eq!(counts, reference, "engine {kind}");
        }
        assert_eq!(EngineKind::Auto.count(&g, &cfg, 4), reference);
    }

    #[test]
    fn exact_reports_have_zero_width_intervals() {
        let g = tiny();
        let cfg = EnumConfig::new(2, 4).with_timing(Timing::only_w(30));
        for kind in EngineKind::CONCRETE {
            let report = kind.report(&g, &cfg, 2);
            assert!(report.exact, "engine {kind}");
            assert!(report.total.is_exact());
            assert_eq!(report.counts, kind.count(&g, &cfg, 2));
            for (sig, e) in report.iter() {
                assert!(e.is_exact());
                assert_eq!(e.point as u64, report.counts.get(sig));
            }
        }
        assert!(!EngineKind::sampling(16, 7).report(&g, &cfg, 1).exact);
    }
}
