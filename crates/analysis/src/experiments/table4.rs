//! Table 4 (+ appendix Table 7): vanilla temporal motifs vs constrained
//! dynamic graphlets after degrading the time resolution to 300 s.
//!
//! The paper's findings to reproduce:
//! * Bitcoin-otc shows **zero** difference (no edge ever repeats, so the
//!   freshness restriction never fires);
//! * the delayed repetition `010201` loses proportion, while immediate
//!   repetitions (`010102`, `010202`, `012020`) gain;
//! * Email behaves differently (carbon copies land on both repetition
//!   timestamps) and has the largest variance;
//! * stack-exchange networks barely move (variance < 0.1).

use super::{Corpus, RunConfig, DEGRADED_RESOLUTION, DELTA_C_INDUCEDNESS};
use crate::report::{fmt_pp, Table};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tnm_graph::transform::degrade_resolution;
use tnm_motifs::catalog::all_3n3e;
use tnm_motifs::count::proportion_changes;
use tnm_motifs::prelude::*;

/// The four motifs Table 4 highlights.
pub const HIGHLIGHT: [&str; 4] = ["010102", "010202", "012020", "010201"];

/// One dataset's Table 4 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4Row {
    /// Dataset name.
    pub name: String,
    /// Total vanilla 3n3e motifs at 300 s resolution.
    pub vanilla_total: u64,
    /// Total constrained dynamic graphlets at 300 s resolution.
    pub constrained_total: u64,
    /// Variance of the per-motif proportion changes (percentage points²).
    pub variance: f64,
    /// Proportion change (pp) of each [`HIGHLIGHT`] motif.
    pub highlight_changes: [f64; 4],
    /// Proportion changes of all 32 motifs (appendix Table 7).
    pub all_changes: HashMap<String, f64>,
}

/// The full Table 4 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4 {
    /// One row per dataset.
    pub rows: Vec<Table4Row>,
    /// Snapshot resolution used (seconds).
    pub resolution: i64,
    /// ΔC used (seconds).
    pub delta_c: i64,
}

/// Runs the constrained-dynamic-graphlet experiment with the default
/// engine selection.
pub fn run(corpus: &Corpus) -> Table4 {
    run_with(corpus, &RunConfig::default())
}

/// Runs the experiment with an explicit engine/thread configuration.
pub fn run_with(corpus: &Corpus, rc: &RunConfig) -> Table4 {
    let universe = all_3n3e();
    let timing = Timing::only_c(DELTA_C_INDUCEDNESS);
    let rows = corpus
        .entries
        .iter()
        .map(|e| {
            let degraded = degrade_resolution(&e.graph, DEGRADED_RESOLUTION);
            let base = EnumConfig::new(3, 3).exact_nodes(3).with_timing(timing);
            let vanilla = rc.engine.count(&degraded, &base, rc.threads);
            let constrained_cfg = base.clone().with_constrained(true);
            let constrained = rc.engine.count(&degraded, &constrained_cfg, rc.threads);
            let (changes, variance) = proportion_changes(&vanilla, &constrained, &universe);
            let mut highlight = [0.0f64; 4];
            for (i, s) in HIGHLIGHT.iter().enumerate() {
                highlight[i] = changes[&sig(s)];
            }
            Table4Row {
                name: e.spec.name.clone(),
                vanilla_total: vanilla.total(),
                constrained_total: constrained.total(),
                variance,
                highlight_changes: highlight,
                all_changes: changes.into_iter().map(|(s, d)| (s.to_string(), d)).collect(),
            }
        })
        .collect();
    Table4 { rows, resolution: DEGRADED_RESOLUTION, delta_c: DELTA_C_INDUCEDNESS }
}

impl Table4 {
    /// Renders the paper's Table 4 layout.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "Table 4: constrained dynamic graphlets vs vanilla (resolution={}s, dC={}s)",
                self.resolution, self.delta_c
            ),
            &["Network", "Variance", "010102", "010202", "012020", "010201"],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                format!("{:.2}", r.variance),
                fmt_pp(r.highlight_changes[0]),
                fmt_pp(r.highlight_changes[1]),
                fmt_pp(r.highlight_changes[2]),
                fmt_pp(r.highlight_changes[3]),
            ]);
        }
        t.render()
    }

    /// Renders the appendix Table 7 (all 32 motifs × all datasets).
    pub fn render_full(&self) -> String {
        let mut header: Vec<String> = vec!["Motif".to_string()];
        header.extend(self.rows.iter().map(|r| r.name.clone()));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            "Table 7 (appendix): proportion changes of all 3n3e motifs (pp)",
            &header_refs,
        );
        for m in all_3n3e() {
            let name = m.to_string();
            let mut row = vec![name.clone()];
            for r in &self.rows {
                row.push(fmt_pp(r.all_changes.get(&name).copied().unwrap_or(0.0)));
            }
            t.row(row);
        }
        t.render()
    }

    /// CSV of the headline numbers.
    pub fn to_csv(&self) -> String {
        let mut t = Table::new(
            "",
            &[
                "name",
                "vanilla_total",
                "constrained_total",
                "variance",
                "d_010102",
                "d_010202",
                "d_012020",
                "d_010201",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                r.vanilla_total.to_string(),
                r.constrained_total.to_string(),
                format!("{:.4}", r.variance),
                format!("{:.4}", r.highlight_changes[0]),
                format!("{:.4}", r.highlight_changes[1]),
                format!("{:.4}", r.highlight_changes[2]),
                format!("{:.4}", r.highlight_changes[3]),
            ]);
        }
        t.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitcoin_shows_zero_difference() {
        let corpus = Corpus::named(&["Bitcoin-otc"], 0.3, 5).unwrap();
        let t4 = run(&corpus);
        let r = &t4.rows[0];
        assert_eq!(r.vanilla_total, r.constrained_total);
        assert_eq!(r.variance, 0.0);
        assert_eq!(r.highlight_changes, [0.0; 4]);
    }

    #[test]
    fn constrained_is_subset_of_vanilla() {
        let corpus = Corpus::named(&["SMS-Copenhagen", "Email"], 0.15, 6).unwrap();
        let t4 = run(&corpus);
        for r in &t4.rows {
            assert!(r.constrained_total <= r.vanilla_total, "{}", r.name);
        }
    }

    #[test]
    fn render_shapes() {
        let corpus = Corpus::named(&["Calls-Copenhagen"], 0.05, 7).unwrap();
        let t4 = run(&corpus);
        assert!(t4.render().contains("Variance"));
        assert_eq!(t4.render_full().lines().count(), 3 + 32);
    }
}
