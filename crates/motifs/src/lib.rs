//! # tnm-motifs — temporal network motif models and counting engines
//!
//! The core library of the reproduction of *Temporal Network Motifs:
//! Models, Limitations, Evaluation* (Liu, Guarrasi, Sarıyüce; ICDE 2022 /
//! arXiv:2005.11817). It implements:
//!
//! * the paper's **digit-pair motif notation** and canonical signatures
//!   ([`notation`]), with exhaustive catalogs (36 three-event and 696
//!   four-event motifs, [`catalog`]);
//! * the **event-pair lens** — the 6-letter alphabet {R, P, I, O, C, W}
//!   over consecutive events ([`event_pair`]);
//! * the **four surveyed models** — Kovanen \[11\], Song \[12\], Hulovatyy
//!   \[13\], Paranjape \[14\] — unified as a configuration space ([`models`]);
//! * the **timing constraints** ΔC and ΔW with the Section 4.5 regime
//!   analysis ([`constraints`]);
//! * the three inducedness/freshness restrictions: consecutive events
//!   ([`consecutive`]), static inducedness ([`induced`]), constrained
//!   dynamic graphlets ([`constrained`]);
//! * a pluggable **counting-engine subsystem** ([`engine`]): one shared
//!   backtracking walk behind the [`engine::CountEngine`] trait, with
//!   window-indexed (on one thread or work-stealing on several),
//!   time-slice sharded
//!   (shards walked in this thread, or shipped to worker processes over
//!   the framed [`tnm_graph::wire`] protocol with crash-detected shards
//!   rescheduled), and interval-sampling implementations (the sampler reports
//!   confidence intervals through [`engine::CountEngine::report`] and
//!   evaluates draws in parallel with bit-identical seeded results),
//!   plus the **streaming fast path** ([`engine::StreamEngine`]) that
//!   counts eligible δ-window spectra without enumerating instances;
//!   the one-call [`count_motifs`] entry ([`enumerate`]); instances
//!   from one enumeration path, the serial walk
//!   [`engine::WindowedEngine::enumerate`]; and spectrum analytics
//!   ([`count`]);
//! * a serializable **Query API** ([`engine::Query`] /
//!   [`engine::QueryResponse`]) shared by the CLI verbs, the library,
//!   and **`tnm serve`** — a resident counting daemon
//!   ([`engine::MotifServer`] / [`engine::ServeClient`]) that keeps
//!   loaded graphs and their window indexes warm across queries and
//!   updates per-subscription motif counts **incrementally** under
//!   live event appends ([`engine::IncrementalStream`]);
//! * per-instance **validity checking** for Figure 1-style model
//!   comparisons ([`validity`]);
//! * **partial orders** and Song et al.'s **streaming event-pattern
//!   matcher** ([`partial_order`], [`pattern`]);
//! * extensions from the related-work program: **temporal cycle
//!   enumeration** ([`cycles`]) and interval-sampling approximate
//!   counting on the engine seam ([`engine::SamplingEngine`]; the
//!   pre-trait free-function `sampling` module has been removed).
//!
//! ```
//! use tnm_graph::TemporalGraphBuilder;
//! use tnm_motifs::prelude::*;
//!
//! let g = TemporalGraphBuilder::new()
//!     .event(0, 1, 7)
//!     .event(1, 2, 9)
//!     .event(0, 2, 11)
//!     .build()
//!     .unwrap();
//!
//! // Count all 3-event motifs within a 10-second window:
//! let counts = count_motifs(&g, &EnumConfig::new(3, 3).with_timing(Timing::only_w(10)));
//! assert_eq!(counts.get(sig("011202")), 1);
//!
//! // And check the instance against all four models (Figure 1 style):
//! for verdict in check_against_all(&g, &[0, 1, 2], &MotifModel::all_four(5, 10)) {
//!     assert!(verdict.is_valid());
//! }
//! ```
//!
//! ## Choosing an engine
//!
//! Counting runs behind the [`engine::CountEngine`] trait; pick an
//! implementation with [`engine::EngineKind`] (or `--engine` on the
//! `tnm` CLI):
//!
//! * [`engine::WindowedEngine`](struct@engine::WindowedEngine)
//!   (`windowed`) — the backtracking walk driven by a
//!   [`tnm_graph::WindowIndex`]: candidate windows start from the
//!   pushed event's slot or a per-depth cursor and end by a scan over
//!   inline timestamps, so bounded ΔC/ΔW configurations skip
//!   non-admissible events entirely. It runs on the thread budget: one
//!   thread walks inline (`WindowedEngine`, or `--threads 1`), more
//!   threads run work-stealing workers (atomic start-event cursor,
//!   per-worker local tables merged lock-free at join) —
//!   `WindowedEngine::new(n)`.
//! * [`engine::ShardedEngine`] (`sharded`) — time-slice shards with
//!   bounded halos ([`tnm_graph::shard`]), each counted by the same
//!   per-shard walk over one of two transports. With `workers = 0` the
//!   shards are walked one at a time in this thread, on the same
//!   executor inside each shard. With `workers = n` the coordinator writes every
//!   shard to a temporary event file, spawns `n` `tnm worker` children
//!   ([`engine::run_worker`]), ships framed job descriptors over the
//!   [`tnm_graph::wire`] protocol and merges the framed replies, with
//!   crash-detected shards rescheduled onto surviving workers. The one
//!   whole-timeline predicate (static inducedness) reads the parent
//!   graph's edges: inside the walk in this thread, and per aggregated
//!   instance group on the coordinator for worker processes. Exact.
//! * [`engine::StreamEngine`] (`stream`) — **count without
//!   enumerating**: for eligible Paranjape-shape jobs (only-ΔW,
//!   non-induced, no restrictions, ≤ 3 events on ≤ 3 nodes) the
//!   spectrum comes from sliding-window dynamic programs over each
//!   node's incident events and a window-local triangle closure at each
//!   event — near-linear in events
//!   where the walk is linear in instances. Exact; ineligible
//!   configurations transparently fall back to the one-thread windowed
//!   walk.
//! * [`engine::SamplingEngine`] (`sampling`) — **approximate** interval
//!   sampling: unbiased point estimates with ~95 % confidence intervals
//!   via [`engine::CountEngine::report`], at a fraction of exact cost on
//!   large windows; window draws parallelize with bit-identical seeded
//!   results. The other three engines are exact and produce identical
//!   counts.
//! * [`engine::EngineKind::Auto`] (`auto`, the default) — resolves per
//!   workload via [`engine::auto_select`]: the stream fast path whenever
//!   eligible, sharded on worker processes for bounded-timing graphs
//!   above [`engine::DISTRIBUTED_MIN_EVENTS`] with a multi-worker
//!   budget, sharded in this thread above
//!   [`engine::SHARDED_MIN_EVENTS`], the windowed walk otherwise — on
//!   the whole thread budget when the graph and its ΔC/ΔW windows carry
//!   enough work for more than one thread, on one thread if not.
//!
//! Every walk reads one [`tnm_graph::WindowIndex`] per graph,
//! built on first use by [`tnm_graph::TemporalGraph::window_index`] and
//! kept with the graph, so repeated counts of the same graph build the
//! index once.
//!
//! Every engine layer is instrumented through `tnm_obs`: hierarchical
//! timed spans (Chrome-trace export via `tnm count --trace`) and named
//! counters/gauges/histograms (Prometheus text via `tnm client
//! --metrics`), all behind one atomic flag that costs a single branch
//! when disabled. See the [engine module docs](engine#observability)
//! for the span/metric naming contract, and `tnm count --explain` for
//! [`engine::auto_select`]'s measured decision.
//!
//! Many configurations against one graph — all 36 Paranjape 3-event
//! motifs, ΔW sweeps, model comparisons — should go through the **batch
//! API** ([`engine::count_batch`] / [`engine::EngineKind::count_batch`]
//! / [`engine::enumerate_batch`]): [`engine::BatchPlanner`] groups
//! compatible configs so N configs cost ~1 traversal + N projections
//! instead of N traversals, with results bit-identical to per-config
//! calls.
//!
//! ```
//! use tnm_graph::TemporalGraphBuilder;
//! use tnm_motifs::engine::{CountEngine, EngineKind, WindowedEngine};
//! use tnm_motifs::prelude::*;
//!
//! let g = TemporalGraphBuilder::new()
//!     .event(0, 1, 7)
//!     .event(1, 2, 9)
//!     .event(0, 2, 11)
//!     .build()
//!     .unwrap();
//! let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(10));
//!
//! // Explicit engine choice...
//! let counts = WindowedEngine.count(&g, &cfg);
//! // ...or parse one from a CLI string and let `auto` resolve.
//! let kind: EngineKind = "auto".parse().unwrap();
//! assert_eq!(kind.count(&g, &cfg, 4), counts);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod consecutive;
pub mod constrained;
pub mod constraints;
pub mod count;
pub mod cycles;
pub mod engine;
pub mod enumerate;
pub mod event_pair;
pub mod induced;
pub mod models;
pub mod notation;
pub mod partial_order;
pub mod pattern;
pub mod validity;

/// Commonly used items, importable with `use tnm_motifs::prelude::*`.
pub mod prelude {
    pub use crate::catalog::{all_2n3e, all_3e, all_3n3e, all_4e, all_4e_up_to_3n, all_4n4e};
    pub use crate::constraints::{ConstraintRegime, Timing};
    pub use crate::count::{
        pair_type_ratios, proportion_changes, ranking_changes, MotifCounts, PairGroupCounts,
    };
    pub use crate::engine::{
        count_batch, enumerate_batch, AppendAck, BatchPlan, BatchPlanner, ConfigError, CountEngine,
        EngineKind, EngineReport, Estimate, IncrementalStream, MotifServer, Query, QueryError,
        QueryLogEntry, QueryResponse, SamplingEngine, ServeClient, ServeOptions, ServerStats,
        ShardedEngine, TraceReply, WindowedEngine,
    };
    pub use crate::enumerate::{count_motifs, EnumConfig, MotifInstance};
    pub use crate::event_pair::{EventPairCounts, EventPairType, ALL_PAIR_TYPES};
    pub use crate::models::{EventOrdering, MotifModel};
    pub use crate::notation::{sig, MotifSignature};
    pub use crate::validity::{check_against_all, check_instance, Verdict, Violation};
}

pub use constraints::Timing;
pub use count::MotifCounts;
pub use engine::{CountEngine, EngineKind};
pub use enumerate::{count_motifs, EnumConfig};
pub use event_pair::EventPairType;
pub use models::MotifModel;
pub use notation::MotifSignature;
