//! Experiment runners: one module per table/figure of the paper.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table2`] | Table 2 — dataset statistics |
//! | [`table3`] | Table 3 + appendix Table 6 — consecutive events restriction |
//! | [`table4`] | Table 4 + appendix Table 7 — constrained dynamic graphlets |
//! | [`table5`] | Table 5 — event-pair counts vs timing configuration |
//! | [`fig1`] | Figure 1 — model validity matrix |
//! | [`fig2`] | Figure 2 — notation and the event-pair alphabet |
//! | [`fig3`] | Figure 3 + appendix Figures 7–8 — event-pair ratios |
//! | [`fig4`] | Figure 4 + appendix Figure 9 — intermediate event behaviour |
//! | [`fig5`] | Figure 5 + appendix Figure 10 — motif timespan distributions |
//! | [`fig6`] | Figure 6 + appendix Figure 11 — pair-sequence heat maps |
//!
//! All experiments run on a shared [`Corpus`] of synthetic datasets so a
//! full reproduction generates each network exactly once.

pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

use tnm_datasets::{generate, DatasetSpec};
use tnm_graph::TemporalGraph;
use tnm_motifs::engine::EngineKind;

/// Default seed for the experiment corpus (all tables/figures).
pub const CORPUS_SEED: u64 = 0x0DA7_A5E7;

/// The ΔC used by the temporal-inducedness experiments (paper: 1500 s).
pub const DELTA_C_INDUCEDNESS: i64 = 1500;

/// The ΔW anchor of the timing-constraint experiments (paper: 3000 s).
pub const DELTA_W: i64 = 3000;

/// Snapshot resolution for the constrained-dynamic-graphlet experiment
/// (paper: 300 s).
pub const DEGRADED_RESOLUTION: i64 = 300;

/// ΔC/ΔW ratios swept for 3-event motifs (paper Section 5.2).
pub const RATIOS_3E: [f64; 3] = [0.5, 0.66, 1.0];

/// ΔC/ΔW ratios swept for 4-event motifs (paper Section 5.2).
pub const RATIOS_4E: [f64; 4] = [0.33, 0.5, 0.66, 1.0];

/// One generated dataset with its spec.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The dataset specification (including paper statistics).
    pub spec: DatasetSpec,
    /// The generated temporal network.
    pub graph: TemporalGraph,
}

/// The collection of datasets shared by every experiment.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Generated datasets in Table 2 order.
    pub entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// Generates all nine datasets with the standard seed.
    pub fn standard() -> Self {
        Self::with_seed(CORPUS_SEED)
    }

    /// Generates all nine datasets with a custom seed.
    pub fn with_seed(seed: u64) -> Self {
        Self::generate(DatasetSpec::all(), seed)
    }

    /// Generates a reduced corpus: event budgets scaled by `factor`
    /// (clamped to at least 500 events). Used by benches and smoke tests.
    pub fn scaled(factor: f64, seed: u64) -> Self {
        Self::generate(DatasetSpec::all().into_iter().map(|s| scaled_spec(s, factor)), seed)
    }

    /// Generates exactly `specs`, in the order given. Each graph depends
    /// on its own spec and `seed` alone, so a subset comes out identical
    /// to the same datasets of a full corpus. One
    /// `ingest.generate{dataset, events}` span covers each dataset, its
    /// graph build included.
    pub fn generate(specs: impl IntoIterator<Item = DatasetSpec>, seed: u64) -> Self {
        let entries = specs
            .into_iter()
            .map(|spec| {
                let span = tnm_obs::span!("ingest.generate", dataset = spec.name);
                let graph = generate(&spec, seed);
                let _span = span.arg("events", graph.num_events());
                CorpusEntry { spec, graph }
            })
            .collect();
        Corpus { entries }
    }

    /// Generates only the named datasets (matched case-insensitively,
    /// in Table 2 order), each scaled by `factor` as in
    /// [`Corpus::scaled`]. The graphs equal the same datasets of the full
    /// scaled corpus (see [`Corpus::generate`]); the other datasets are
    /// never built. Fails on a name that matches no dataset.
    pub fn named(names: &[&str], factor: f64, seed: u64) -> Result<Self, String> {
        let specs = DatasetSpec::all();
        if let Some(unknown) =
            names.iter().find(|n| !specs.iter().any(|s| s.name.eq_ignore_ascii_case(n)))
        {
            return Err(format!("unknown dataset `{unknown}`"));
        }
        let named = specs
            .into_iter()
            .filter(|s| names.iter().any(|n| n.eq_ignore_ascii_case(&s.name)))
            .map(|s| scaled_spec(s, factor));
        Ok(Self::generate(named, seed))
    }

    /// Finds one dataset by name.
    pub fn get(&self, name: &str) -> Option<&CorpusEntry> {
        self.entries.iter().find(|e| e.spec.name.eq_ignore_ascii_case(name))
    }

    /// Number of datasets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// `spec` with its event budget scaled by `factor` and clamped to at
/// least 500 events, as in [`Corpus::scaled`].
fn scaled_spec(mut spec: DatasetSpec, factor: f64) -> DatasetSpec {
    spec.num_events = ((spec.num_events as f64 * factor) as usize).max(500);
    spec
}

/// Number of worker threads used by the counting-heavy experiments.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8)
}

/// How the counting-heavy experiments execute: which
/// [`EngineKind`] drives the enumeration and with how many threads.
/// Threaded from the CLI's `--engine`/`--threads`/`--samples`/
/// `--shard-events`/`--workers` flags down to every table/figure driver
/// via the `run_with` variants.
///
/// [`EngineKind::Sampling`] (with its embedded budget and seed) makes
/// the drivers *approximate*: tables are computed from rounded point
/// estimates — the scaling escape hatch for window configurations too
/// expensive to count exactly (under a `threads` budget the sampler
/// evaluates its window draws in parallel with bit-identical seeded
/// results). [`EngineKind::Sharded`] keeps them exact while bounding
/// the counting working set to one time slice at a time; with
/// `workers > 0` it takes the same shard plan across **process
/// boundaries** — shard files are counted by `tnm worker` children over
/// a framed wire protocol, with crashed workers' shards rescheduled
/// onto survivors — still exact, and the scale-out escape hatch once
/// one process's cores are the bottleneck. [`EngineKind::Stream`] (which `auto` picks whenever a
/// driver's configuration is Paranjape-shaped) counts eligible only-ΔW
/// spectra without enumerating instances and is the fastest exact
/// option there by an asymptotic margin. Every walk reads the
/// `WindowIndex` each graph builds once (`TemporalGraph::window_index`),
/// and so does the streaming triad class, so the dozens of counts a
/// driver performs on the same corpus entry build the index once; the
/// sharded engine's shard graphs build their own, dropped with each
/// time slice.
///
/// Drivers that sweep several configurations over one graph (the
/// table3 restriction pair, the table5 ratio sweep, fig5's panels) go
/// through the **batch API** — [`tnm_motifs::engine::count_batch`] /
/// `enumerate_batch` via `rc.engine.count_batch(..)`: the
/// [`tnm_motifs::engine::BatchPlanner`] groups compatible
/// configurations into shared traversals (one walk or one stream pass
/// plus per-config projections), honoring this `engine`/`threads`
/// choice per group, with results bit-identical to per-config counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Counting engine (defaults to [`EngineKind::Auto`]).
    pub engine: EngineKind,
    /// Thread budget for engines that can go parallel.
    pub threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { engine: EngineKind::Auto, threads: default_threads() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_corpus_is_small() {
        let c = Corpus::scaled(0.05, 1);
        assert_eq!(c.len(), 9);
        for e in &c.entries {
            assert!(e.graph.num_events() <= 2_000, "{}", e.spec.name);
        }
    }

    #[test]
    fn subsetting() {
        let c = Corpus::scaled(0.05, 1);
        let sub = Corpus::named(&["SMS-A", "email"], 0.05, 1).unwrap();
        assert_eq!(sub.len(), 2);
        // Table 2 order, and each graph equals its full-corpus twin.
        for (entry, name) in sub.entries.iter().zip(["Email", "SMS-A"]) {
            assert_eq!(entry.spec.name, name);
            assert_eq!(entry.graph.events(), c.get(name).unwrap().graph.events());
        }
        assert!(c.get("Email").is_some());
        assert!(c.get("missing").is_none());
        let err = Corpus::named(&["Email", "missing"], 0.05, 1).unwrap_err();
        assert!(err.contains("unknown dataset `missing`"), "{err}");
    }
}
