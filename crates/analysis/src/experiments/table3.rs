//! Table 3 (+ appendix Table 6): the impact of Kovanen et al.'s
//! consecutive events restriction on 3n3e motif counts and rankings,
//! at ΔC = 1500 s.
//!
//! The paper's findings to reproduce:
//! * the restriction removes the overwhelming majority of motifs (>95 %
//!   in all real datasets except Bitcoin-otc);
//! * four *ask-reply* motifs — `010210`, `011210`, `012010`, `012110`,
//!   whose last event answers the first — are consistently *amplified*
//!   (rise in the count ranking), most strongly in message networks.

use super::{Corpus, RunConfig, DELTA_C_INDUCEDNESS};
use crate::report::{fmt_count, fmt_rank_change, Table};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tnm_motifs::catalog::all_3n3e;
use tnm_motifs::count::ranking_changes;
use tnm_motifs::prelude::*;

/// The four ask-reply motifs Table 3 highlights.
pub const ASK_REPLY: [&str; 4] = ["010210", "011210", "012010", "012110"];

/// One dataset's Table 3 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Dataset name.
    pub name: String,
    /// Total 3n3e motifs without the restriction.
    pub non_consecutive_total: u64,
    /// Total 3n3e motifs with the restriction.
    pub consecutive_total: u64,
    /// Rank change of each [`ASK_REPLY`] motif (positive = ascended).
    pub ask_reply_changes: [i64; 4],
    /// Rank changes of all 32 3n3e motifs (appendix Table 6).
    pub all_changes: HashMap<String, i64>,
}

impl Table3Row {
    /// Fraction of motifs removed by the restriction.
    pub fn removal_fraction(&self) -> f64 {
        if self.non_consecutive_total == 0 {
            return 0.0;
        }
        1.0 - self.consecutive_total as f64 / self.non_consecutive_total as f64
    }
}

/// The full Table 3 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3 {
    /// One row per dataset.
    pub rows: Vec<Table3Row>,
    /// The ΔC used (seconds).
    pub delta_c: i64,
}

/// Runs the consecutive-events-restriction experiment with the default
/// engine selection.
pub fn run(corpus: &Corpus) -> Table3 {
    run_with(corpus, &RunConfig::default())
}

/// Runs the experiment with an explicit engine/thread configuration.
pub fn run_with(corpus: &Corpus, rc: &RunConfig) -> Table3 {
    let universe = all_3n3e();
    let timing = Timing::only_c(DELTA_C_INDUCEDNESS);
    let rows = corpus
        .entries
        .iter()
        .map(|e| {
            // Both restriction variants as one batch plan: the planner
            // keeps them in separate walk groups (the consecutive flag
            // changes the walk shape) but answers them in one call.
            let base = EnumConfig::new(3, 3).exact_nodes(3).with_timing(timing);
            let cons_cfg = base.clone().with_consecutive(true);
            let batch = [base, cons_cfg];
            let mut results = rc.engine.count_batch(&e.graph, &batch, rc.threads).into_iter();
            let non_cons = results.next().expect("one table per config");
            let cons = results.next().expect("one table per config");
            let changes = ranking_changes(&non_cons, &cons, &universe);
            let mut ask_reply = [0i64; 4];
            for (i, s) in ASK_REPLY.iter().enumerate() {
                ask_reply[i] = changes[&sig(s)];
            }
            Table3Row {
                name: e.spec.name.clone(),
                non_consecutive_total: non_cons.total(),
                consecutive_total: cons.total(),
                ask_reply_changes: ask_reply,
                all_changes: changes.into_iter().map(|(s, d)| (s.to_string(), d)).collect(),
            }
        })
        .collect();
    Table3 { rows, delta_c: DELTA_C_INDUCEDNESS }
}

impl Table3 {
    /// Renders the paper's Table 3 layout.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!("Table 3: consecutive events restriction (dC={}s)", self.delta_c),
            &["Network", "Non-cons.", "Cons.", "Removed", "010210", "011210", "012010", "012110"],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                fmt_count(r.non_consecutive_total),
                fmt_count(r.consecutive_total),
                format!("{:.1}%", r.removal_fraction() * 100.0),
                fmt_rank_change(r.ask_reply_changes[0]),
                fmt_rank_change(r.ask_reply_changes[1]),
                fmt_rank_change(r.ask_reply_changes[2]),
                fmt_rank_change(r.ask_reply_changes[3]),
            ]);
        }
        t.render()
    }

    /// Renders the appendix Table 6 (all 32 motifs × all datasets).
    pub fn render_full(&self) -> String {
        let mut header: Vec<String> = vec!["Motif".to_string()];
        header.extend(self.rows.iter().map(|r| r.name.clone()));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            "Table 6 (appendix): rank changes of all 3n3e motifs after the restriction",
            &header_refs,
        );
        for m in all_3n3e() {
            let name = m.to_string();
            let mut row = vec![name.clone()];
            for r in &self.rows {
                row.push(fmt_rank_change(r.all_changes.get(&name).copied().unwrap_or(0)));
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
                "non_consecutive_total",
                "consecutive_total",
                "removal_fraction",
                "d_010210",
                "d_011210",
                "d_012010",
                "d_012110",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                r.non_consecutive_total.to_string(),
                r.consecutive_total.to_string(),
                format!("{:.4}", r.removal_fraction()),
                r.ask_reply_changes[0].to_string(),
                r.ask_reply_changes[1].to_string(),
                r.ask_reply_changes[2].to_string(),
                r.ask_reply_changes[3].to_string(),
            ]);
        }
        t.to_csv()
    }

    /// Mean rank change of the ask-reply motifs in the given datasets —
    /// the paper's amplification claim in one number.
    pub fn mean_ask_reply_change(&self, names: &[&str]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in &self.rows {
            if names.iter().any(|x| x.eq_ignore_ascii_case(&r.name)) {
                sum += r.ask_reply_changes.iter().sum::<i64>() as f64;
                n += 4;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restriction_massively_reduces_counts() {
        let corpus = Corpus::named(&["CollegeMsg", "SMS-Copenhagen"], 0.25, 3).unwrap();
        let t3 = run(&corpus);
        for r in &t3.rows {
            assert!(r.consecutive_total <= r.non_consecutive_total, "{}", r.name);
            assert!(
                r.removal_fraction() > 0.5,
                "{}: removal {:.2} too small",
                r.name,
                r.removal_fraction()
            );
        }
    }

    /// The batch-planned driver must emit exactly what two independent
    /// per-config counts did before the rewrite — the CSV is pinned
    /// byte-for-byte through the totals and rank changes it contains.
    #[test]
    fn batch_plan_matches_per_config_counts() {
        let corpus = Corpus::named(&["Calls-Copenhagen"], 0.1, 5).unwrap();
        let rc = RunConfig::default();
        let t3 = run_with(&corpus, &rc);
        let e = &corpus.entries[0];
        let base =
            EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::only_c(DELTA_C_INDUCEDNESS));
        let non_cons = rc.engine.count(&e.graph, &base, rc.threads);
        let cons = rc.engine.count(&e.graph, &base.clone().with_consecutive(true), rc.threads);
        assert_eq!(t3.rows[0].non_consecutive_total, non_cons.total());
        assert_eq!(t3.rows[0].consecutive_total, cons.total());
        let changes = ranking_changes(&non_cons, &cons, &all_3n3e());
        for (s, d) in changes {
            assert_eq!(t3.rows[0].all_changes[&s.to_string()], d, "{s}");
        }
    }

    #[test]
    fn render_has_all_rows() {
        let corpus = Corpus::named(&["Calls-Copenhagen"], 0.05, 4).unwrap();
        let t3 = run(&corpus);
        let text = t3.render();
        assert!(text.contains("Calls-Copenhagen"));
        let full = t3.render_full();
        assert_eq!(full.lines().count(), 3 + 32, "header+rule+32 motifs");
        let csv = t3.to_csv();
        assert_eq!(csv.lines().count(), 2);
    }
}
