//! Table 5: event-pair counts across timing configurations.
//!
//! For 3n3e motifs with ΔW = 3000 s fixed, the paper sweeps
//! ΔC/ΔW ∈ {1.0 (only-ΔW), 0.66 (both), 0.5 (only-ΔC)} and groups event
//! pairs into {R, P, I, O} vs {C, W}. Findings to reproduce:
//!
//! * every count shrinks when tightening from only-ΔW to only-ΔC;
//! * the {R, P, I, O} group shrinks *faster* than {C, W} — i.e. only-ΔW
//!   amplifies bursty/reciprocal pairs;
//! * {R, P, I, O} outnumbers {C, W} by roughly an order of magnitude.

use super::{Corpus, RunConfig, DELTA_W, RATIOS_3E};
use crate::report::{fmt_count, fmt_pct, Table};
use serde::{Deserialize, Serialize};
use tnm_motifs::count::PairGroupCounts;
use tnm_motifs::prelude::*;

/// One dataset × one timing configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5Cell {
    /// ΔC/ΔW ratio of this configuration.
    pub ratio: f64,
    /// Configuration label (`only-ΔW`, `ΔW-and-ΔC`, `only-ΔC`).
    pub label: String,
    /// Grouped pair counts.
    pub groups: PairGroupCounts,
}

/// One dataset's sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5Row {
    /// Dataset name.
    pub name: String,
    /// Cells ordered from only-ΔW down to only-ΔC.
    pub cells: Vec<Table5Cell>,
}

impl Table5Row {
    /// The only-ΔW cell (baseline of the reduction ratios).
    pub fn baseline(&self) -> &Table5Cell {
        self.cells.first().expect("at least one configuration")
    }
}

/// The full Table 5 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5 {
    /// One row per dataset.
    pub rows: Vec<Table5Row>,
    /// ΔW anchor (seconds).
    pub delta_w: i64,
}

fn config_label(ratio: f64, num_events: usize) -> String {
    let timing = Timing::from_ratio(DELTA_W, ratio);
    timing.regime(num_events).to_string()
}

/// Runs the Table 5 sweep on 3n3e motifs with the default engine
/// selection.
pub fn run(corpus: &Corpus) -> Table5 {
    run_with(corpus, &RunConfig::default())
}

/// Runs the sweep with an explicit engine/thread configuration.
pub fn run_with(corpus: &Corpus, rc: &RunConfig) -> Table5 {
    // Descending ratio = only-ΔW first, as in the paper's columns.
    let mut ratios = RATIOS_3E.to_vec();
    ratios.sort_by(|a, b| b.partial_cmp(a).expect("finite ratios"));
    let rows = corpus
        .entries
        .iter()
        .map(|e| {
            // The whole ratio sweep as one batch plan: only-ΔW streams,
            // and the bounded-ΔC ratios share a single walk under the
            // widest ΔC with per-ratio admission masks.
            let batch: Vec<EnumConfig> = ratios
                .iter()
                .map(|&ratio| {
                    EnumConfig::new(3, 3)
                        .exact_nodes(3)
                        .with_timing(Timing::from_ratio(DELTA_W, ratio))
                })
                .collect();
            let results = rc.engine.count_batch(&e.graph, &batch, rc.threads);
            let cells = ratios
                .iter()
                .zip(&results)
                .map(|(&ratio, counts)| {
                    let pairs = counts.event_pair_counts();
                    Table5Cell {
                        ratio,
                        label: config_label(ratio, 3),
                        groups: PairGroupCounts::from_counts(&pairs),
                    }
                })
                .collect();
            Table5Row { name: e.spec.name.clone(), cells }
        })
        .collect();
    Table5 { rows, delta_w: DELTA_W }
}

impl Table5 {
    /// Renders the paper's Table 5 layout (counts + reduction ratios
    /// relative to only-ΔW).
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!("Table 5: event-pair counts vs timing constraints (dW={}s)", self.delta_w),
            &["Network", "Type", "only-dW", "dW-and-dC", "ratio", "only-dC", "ratio"],
        );
        for r in &self.rows {
            let base = r.baseline().groups;
            let g = |i: usize| r.cells[i].groups;
            t.row(vec![
                r.name.clone(),
                "R,P,I,O".into(),
                fmt_count(base.rpio),
                fmt_count(g(1).rpio),
                fmt_pct(g(1).ratio_vs(&base).0),
                fmt_count(g(2).rpio),
                fmt_pct(g(2).ratio_vs(&base).0),
            ]);
            t.row(vec![
                String::new(),
                "C,W".into(),
                fmt_count(base.cw),
                fmt_count(g(1).cw),
                fmt_pct(g(1).ratio_vs(&base).1),
                fmt_count(g(2).cw),
                fmt_pct(g(2).ratio_vs(&base).1),
            ]);
        }
        t.render()
    }

    /// CSV of all cells.
    pub fn to_csv(&self) -> String {
        let mut t = Table::new("", &["name", "ratio", "label", "rpio", "cw"]);
        for r in &self.rows {
            for c in &r.cells {
                t.row(vec![
                    r.name.clone(),
                    format!("{:.2}", c.ratio),
                    c.label.clone(),
                    c.groups.rpio.to_string(),
                    c.groups.cw.to_string(),
                ]);
            }
        }
        t.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_shrink_monotonically() {
        let corpus = Corpus::named(&["CollegeMsg", "SMS-Copenhagen"], 0.2, 8).unwrap();
        let t5 = run(&corpus);
        for r in &t5.rows {
            assert_eq!(r.cells.len(), 3);
            assert_eq!(r.cells[0].label, "only-ΔW");
            for w in r.cells.windows(2) {
                assert!(
                    w[1].groups.rpio <= w[0].groups.rpio,
                    "{}: RPIO must shrink with tighter ΔC",
                    r.name
                );
                assert!(w[1].groups.cw <= w[0].groups.cw, "{}: CW must shrink", r.name);
            }
        }
    }

    #[test]
    fn rpio_reduced_more_than_cw() {
        let corpus = Corpus::named(&["Email"], 0.3, 9).unwrap();
        let t5 = run(&corpus);
        let r = &t5.rows[0];
        let base = r.baseline().groups;
        let tight = r.cells.last().unwrap().groups;
        let (rpio_ratio, cw_ratio) = tight.ratio_vs(&base);
        assert!(
            rpio_ratio < cw_ratio,
            "RPIO ratio {rpio_ratio:.3} should fall below CW ratio {cw_ratio:.3}"
        );
    }

    /// The batch-planned sweep must reproduce the per-config counts
    /// cell for cell — same grouped pair totals, so the rendered table
    /// and CSV are identical to the pre-batch driver's.
    #[test]
    fn batch_sweep_matches_per_config_counts() {
        let corpus = Corpus::named(&["CollegeMsg"], 0.1, 11).unwrap();
        let rc = RunConfig::default();
        let t5 = run_with(&corpus, &rc);
        let e = &corpus.entries[0];
        for c in &t5.rows[0].cells {
            let cfg = EnumConfig::new(3, 3)
                .exact_nodes(3)
                .with_timing(Timing::from_ratio(DELTA_W, c.ratio));
            let counts = rc.engine.count(&e.graph, &cfg, rc.threads);
            assert_eq!(
                c.groups,
                PairGroupCounts::from_counts(&counts.event_pair_counts()),
                "ratio {}",
                c.ratio
            );
        }
    }

    #[test]
    fn render_two_rows_per_dataset() {
        let corpus = Corpus::named(&["Calls-Copenhagen"], 0.05, 10).unwrap();
        let t5 = run(&corpus);
        let text = t5.render();
        assert!(text.contains("R,P,I,O"));
        assert!(text.contains("C,W"));
        let csv = t5.to_csv();
        assert_eq!(csv.lines().count(), 1 + 3);
    }
}
