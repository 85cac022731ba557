//! The request-shaped counting API: [`Query`] / [`QueryResponse`].
//!
//! Every front end that asks the engines a question — the CLI `count`
//! and `count-batch` verbs, the `tnm serve` daemon's wire protocol, a
//! library caller embedding the crate — used to hand-roll its own
//! dispatch over [`EngineKind`] and its own validation of the
//! [`EnumConfig`] it built. [`Query`] makes the request itself a value:
//! one serializable description of *what to run* (count, interval
//! report, bounded enumeration, or a shared-traversal batch) against
//! *which engine* with *what thread budget*, and one
//! [`Query::run`] entry point that validates
//! ([`EnumConfig::validate`]) and dispatches identically everywhere.
//! The serve protocol ships these values over the wire verbatim (see
//! [`serve`](crate::engine::serve)), so a request that validates in the
//! CLI validates on the server by construction.
//!
//! Responses mirror the request shape: a [`Query::Count`] yields
//! [`QueryResponse::Counts`], a [`Query::Report`] yields the widened
//! [`QueryResponse::Report`] (exact engines included — zero-width
//! intervals), a [`Query::Enumerate`] yields up to `limit` concrete
//! instances plus the exact total, and a [`Query::Batch`] yields one
//! count table per config, bit-identical to running each solo.

use crate::count::MotifCounts;
use crate::engine::config::{ConfigError, EnumConfig, MotifInstance};
use crate::engine::report::EngineReport;
use crate::engine::EngineKind;
use crate::notation::MotifSignature;
use std::fmt;
use tnm_graph::wire::{get_short, put_short, Wire, WireError, WireReader, WireWriter};
use tnm_graph::{wire_enum, EventIdx, TemporalGraph};

/// One self-contained counting request: configuration(s) + engine +
/// thread budget. Shared verbatim by the CLI verbs, the `tnm serve`
/// wire protocol, and library callers.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Per-signature instance counts.
    Count {
        /// What to enumerate.
        cfg: EnumConfig,
        /// Which engine runs it (`Auto` resolves per workload).
        engine: EngineKind,
        /// Thread budget (clamped to ≥ 1).
        threads: usize,
    },
    /// Counts widened with confidence intervals ([`EngineReport`]);
    /// exact engines report zero-width intervals.
    Report {
        /// What to enumerate.
        cfg: EnumConfig,
        /// Which engine runs it.
        engine: EngineKind,
        /// Thread budget.
        threads: usize,
    },
    /// Up to `limit` concrete instances plus the exact total. Rejected
    /// for the approximate sampler, which has no instances to offer.
    Enumerate {
        /// What to enumerate.
        cfg: EnumConfig,
        /// Which engine runs it.
        engine: EngineKind,
        /// Thread budget.
        threads: usize,
        /// Maximum instances materialized in the response (the total
        /// keeps counting past it).
        limit: usize,
    },
    /// Several configurations against one graph, sharing traversals
    /// across compatible configs (see [`EngineKind::count_batch`]).
    Batch {
        /// The configurations, answered in order.
        cfgs: Vec<EnumConfig>,
        /// Which engine runs them.
        engine: EngineKind,
        /// Thread budget.
        threads: usize,
    },
}

wire_enum!(Query {
    1 => Count { engine, threads as u32, cfg },
    2 => Report { engine, threads as u32, cfg },
    3 => Enumerate { engine, threads as u32, limit as u64, cfg },
    4 => Batch { engine, threads as u32, cfgs },
});

/// One materialized instance in a [`QueryResponse::Instances`] reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryInstance {
    /// The instance's canonical signature.
    pub signature: MotifSignature,
    /// Time-ordered event indices into the queried graph.
    pub events: Vec<EventIdx>,
}

/// The signature, then the event indices behind a `u8` count.
impl Wire for QueryInstance {
    fn put(&self, w: &mut WireWriter) {
        self.signature.put(w);
        put_short(w, &self.events);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(QueryInstance { signature: Wire::get(r)?, events: get_short(r)? })
    }
}

/// The answer to one [`Query`], shape-matched to the request variant.
#[derive(Debug, Clone)]
pub enum QueryResponse {
    /// Answer to [`Query::Count`].
    Counts(MotifCounts),
    /// Answer to [`Query::Report`].
    Report(EngineReport),
    /// Answer to [`Query::Enumerate`].
    Instances {
        /// Exact number of instances (counts past `limit`).
        total: u64,
        /// The first `limit` instances in deterministic enumeration
        /// order.
        instances: Vec<QueryInstance>,
        /// True when `total` exceeded the limit and instances were
        /// dropped.
        truncated: bool,
    },
    /// Answer to [`Query::Batch`]: `out[i]` answers `cfgs[i]`.
    Batch(Vec<MotifCounts>),
}

wire_enum!(QueryResponse {
    1 => Counts(counts),
    2 => Report(report),
    3 => Instances { total, truncated, instances },
    4 => Batch(tables),
});

impl QueryResponse {
    /// The flat count table of the response, merging batch members;
    /// convenience for callers that only care about totals.
    pub fn counts(&self) -> MotifCounts {
        match self {
            QueryResponse::Counts(c) => c.clone(),
            QueryResponse::Report(r) => r.counts.clone(),
            QueryResponse::Instances { instances, .. } => {
                let mut c = MotifCounts::new();
                for inst in instances {
                    c.add(inst.signature, 1);
                }
                c
            }
            QueryResponse::Batch(tables) => {
                let mut c = MotifCounts::new();
                for t in tables {
                    c.merge(t);
                }
                c
            }
        }
    }
}

/// A request that cannot run: an invalid configuration or an
/// engine/variant combination with no meaningful answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A configuration failed [`EnumConfig::validate`]. For batches,
    /// `index` names the offending member.
    Config {
        /// Index of the configuration within the query (0 for the
        /// single-config variants).
        index: usize,
        /// The underlying validation failure.
        source: ConfigError,
    },
    /// [`Query::Enumerate`] with the approximate sampler: estimates
    /// have no instances to materialize.
    ApproximateEnumeration,
    /// [`Query::Batch`] with no configurations.
    EmptyBatch,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Config { index: 0, source } => write!(f, "{source}"),
            QueryError::Config { index, source } => write!(f, "config {index}: {source}"),
            QueryError::ApproximateEnumeration => {
                write!(f, "cannot enumerate with the approximate sampling engine")
            }
            QueryError::EmptyBatch => write!(f, "batch query carries no configurations"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ConfigError> for QueryError {
    fn from(source: ConfigError) -> Self {
        QueryError::Config { index: 0, source }
    }
}

impl Query {
    /// The engine the query names (before `Auto` resolution).
    pub fn engine(&self) -> EngineKind {
        match self {
            Query::Count { engine, .. }
            | Query::Report { engine, .. }
            | Query::Enumerate { engine, .. }
            | Query::Batch { engine, .. } => *engine,
        }
    }

    /// The query's thread budget, clamped to at least one.
    pub fn threads(&self) -> usize {
        match self {
            Query::Count { threads, .. }
            | Query::Report { threads, .. }
            | Query::Enumerate { threads, .. }
            | Query::Batch { threads, .. } => (*threads).max(1),
        }
    }

    /// The configurations the query carries, in order.
    pub fn configs(&self) -> &[EnumConfig] {
        match self {
            Query::Count { cfg, .. } | Query::Report { cfg, .. } | Query::Enumerate { cfg, .. } => {
                std::slice::from_ref(cfg)
            }
            Query::Batch { cfgs, .. } => cfgs,
        }
    }

    /// The shared validation path: every carried configuration must
    /// pass [`EnumConfig::validate`], a batch must be non-empty, and
    /// enumeration cannot run on the approximate sampler. Exactly what
    /// [`Query::run`] enforces — front ends call this early to fail
    /// before loading a graph.
    pub fn validate(&self) -> Result<(), QueryError> {
        if let Query::Batch { cfgs, .. } = self {
            if cfgs.is_empty() {
                return Err(QueryError::EmptyBatch);
            }
        }
        if let Query::Enumerate { engine, .. } = self {
            if matches!(engine, EngineKind::Sampling { .. }) {
                return Err(QueryError::ApproximateEnumeration);
            }
        }
        for (index, cfg) in self.configs().iter().enumerate() {
            cfg.validate().map_err(|source| QueryError::Config { index, source })?;
        }
        Ok(())
    }

    /// Validates and dispatches the query against `graph`, returning
    /// the shape-matched [`QueryResponse`]. This is the single entry
    /// point behind the CLI `count`/`count-batch` verbs and every
    /// server-side query — identical inputs produce bit-identical
    /// results regardless of the front end.
    pub fn run(&self, graph: &TemporalGraph) -> Result<QueryResponse, QueryError> {
        self.validate()?;
        let threads = self.threads();
        // One root span per query variant; inert unless obs is on or a
        // request trace is active. Engine-internal spans (plan, spill,
        // walk, merge) nest under it on this thread.
        let _root = tnm_obs::Span::start(match self {
            Query::Count { .. } => "query.count",
            Query::Report { .. } => "query.report",
            Query::Enumerate { .. } => "query.enumerate",
            Query::Batch { .. } => "query.batch",
        })
        .arg("engine", self.engine())
        .arg("threads", threads);
        Ok(match self {
            Query::Count { cfg, engine, .. } => {
                QueryResponse::Counts(engine.count(graph, cfg, threads))
            }
            Query::Report { cfg, engine, .. } => {
                QueryResponse::Report(engine.report(graph, cfg, threads))
            }
            Query::Enumerate { cfg, engine, limit, .. } => {
                let mut total = 0u64;
                let mut instances = Vec::new();
                let resolved = engine.engine_for(graph, cfg, threads);
                resolved.enumerate(graph, cfg, &mut |inst: &MotifInstance<'_>| {
                    total += 1;
                    if instances.len() < *limit {
                        instances.push(QueryInstance {
                            signature: inst.signature,
                            events: inst.events.to_vec(),
                        });
                    }
                });
                let truncated = (total as usize) > instances.len();
                QueryResponse::Instances { total, instances, truncated }
            }
            Query::Batch { cfgs, engine, .. } => {
                QueryResponse::Batch(engine.count_batch(graph, cfgs, threads))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Timing;
    use crate::notation::sig;
    use tnm_graph::TemporalGraphBuilder;

    fn wedge_graph() -> TemporalGraph {
        TemporalGraphBuilder::new()
            .event(0, 1, 10)
            .event(1, 2, 20)
            .event(2, 0, 30)
            .event(0, 1, 40)
            .build()
            .unwrap()
    }

    #[test]
    fn count_and_report_match_direct_dispatch() {
        let g = wedge_graph();
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(30));
        for engine in [EngineKind::Windowed, EngineKind::Stream] {
            let q = Query::Count { cfg: cfg.clone(), engine, threads: 1 };
            let QueryResponse::Counts(counts) = q.run(&g).unwrap() else { panic!("shape") };
            assert_eq!(counts, engine.count(&g, &cfg, 1), "{engine}");

            let q = Query::Report { cfg: cfg.clone(), engine, threads: 1 };
            let QueryResponse::Report(report) = q.run(&g).unwrap() else { panic!("shape") };
            assert_eq!(report.counts, counts);
            assert!(report.exact);
        }
    }

    #[test]
    fn enumerate_truncates_but_keeps_counting() {
        let g = wedge_graph();
        let cfg = EnumConfig::new(2, 3).with_timing(Timing::only_w(30));
        let full = Query::Enumerate {
            cfg: cfg.clone(),
            engine: EngineKind::Windowed,
            threads: 1,
            limit: usize::MAX,
        };
        let QueryResponse::Instances { total, instances, truncated } = full.run(&g).unwrap() else {
            panic!("shape")
        };
        assert_eq!(total as usize, instances.len());
        assert!(!truncated);
        assert!(total > 1);

        let capped = Query::Enumerate { cfg, engine: EngineKind::Windowed, threads: 1, limit: 1 };
        let QueryResponse::Instances { total: t2, instances: i2, truncated: tr2 } =
            capped.run(&g).unwrap()
        else {
            panic!("shape")
        };
        assert_eq!(t2, total, "the total counts past the limit");
        assert_eq!(i2.len(), 1);
        assert!(tr2);
        assert_eq!(i2[0], instances[0], "deterministic prefix");
    }

    #[test]
    fn batch_matches_solo_runs() {
        let g = wedge_graph();
        let cfgs = vec![
            EnumConfig::new(2, 3).with_timing(Timing::only_w(30)),
            EnumConfig::new(3, 3).with_timing(Timing::only_w(60)),
        ];
        let q = Query::Batch { cfgs: cfgs.clone(), engine: EngineKind::Auto, threads: 2 };
        let QueryResponse::Batch(tables) = q.run(&g).unwrap() else { panic!("shape") };
        for (cfg, table) in cfgs.iter().zip(&tables) {
            assert_eq!(*table, EngineKind::Auto.count(&g, cfg, 2));
        }
    }

    #[test]
    fn validation_rejects_unrunnable_requests() {
        let sampler = EngineKind::sampling(8, 1);
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(30));
        let q = Query::Enumerate { cfg: cfg.clone(), engine: sampler, threads: 1, limit: 5 };
        assert_eq!(q.validate(), Err(QueryError::ApproximateEnumeration));

        let q = Query::Batch { cfgs: vec![], engine: EngineKind::Auto, threads: 1 };
        assert_eq!(q.validate(), Err(QueryError::EmptyBatch));

        let mut bad = EnumConfig::for_signature(sig("010102"));
        bad.num_events = 2;
        let q = Query::Batch { cfgs: vec![cfg, bad], engine: EngineKind::Auto, threads: 1 };
        let err = q.validate().unwrap_err();
        assert!(matches!(err, QueryError::Config { index: 1, .. }), "{err:?}");
        assert!(format!("{err}").contains("config 1"), "{err}");
        assert!(format!("{err}").contains("implies events=3"), "{err}");
    }

    #[test]
    fn response_counts_flatten_every_shape() {
        let g = wedge_graph();
        let cfg = EnumConfig::new(2, 3).with_timing(Timing::only_w(30));
        let count = Query::Count { cfg: cfg.clone(), engine: EngineKind::Windowed, threads: 1 }
            .run(&g)
            .unwrap();
        let enumd = Query::Enumerate {
            cfg: cfg.clone(),
            engine: EngineKind::Windowed,
            threads: 1,
            limit: usize::MAX,
        }
        .run(&g)
        .unwrap();
        let batch = Query::Batch { cfgs: vec![cfg], engine: EngineKind::Windowed, threads: 1 }
            .run(&g)
            .unwrap();
        assert_eq!(count.counts(), enumd.counts());
        assert_eq!(count.counts(), batch.counts());
        assert!(count.counts().total() > 0);
    }
}
