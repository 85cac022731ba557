//! Figure 5 (+ appendix Figure 10): motif timespan distributions.
//!
//! ΔC only bounds a motif's span loosely (`(m−1)·ΔC`), so under only-ΔC
//! the span distribution humps around ΔC with a long tail; ΔW truncates
//! it hard at ΔW and flattens it. We reproduce the histograms for the
//! paper's targets and summarize the hard-cap/flatness claims.

use super::{Corpus, DELTA_W, RATIOS_3E};
use crate::hist::Histogram;
use serde::{Deserialize, Serialize};
use tnm_motifs::prelude::*;

/// Bins for the timespan histograms.
pub const BINS: usize = 15;

/// Timespan distribution of one motif × dataset × config.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Cell {
    /// ΔC/ΔW ratio.
    pub ratio: f64,
    /// Configuration label.
    pub label: String,
    /// Histogram of spans (seconds), over `[0, 2·ΔW]`.
    pub histogram: Histogram,
    /// Number of instances.
    pub instances: u64,
    /// Maximum observed span (seconds).
    pub max_span: i64,
    /// Mean observed span (seconds).
    pub mean_span: f64,
}

/// The Figure 5 reproduction for one (motif, dataset) target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Target {
    /// Dataset name.
    pub name: String,
    /// Motif signature.
    pub motif: String,
    /// Cells ordered only-ΔC → both → only-ΔW (the paper's panels).
    pub cells: Vec<Fig5Cell>,
}

/// The full Figure 5 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5 {
    /// All analyzed targets.
    pub targets: Vec<Fig5Target>,
}

/// The paper's main-text target.
pub const MAIN_TARGETS: [(&str, &str); 1] = [("010102", "CollegeMsg")];

/// The appendix Figure 10 targets.
pub const APPENDIX_TARGETS: [(&str, &str); 5] = [
    ("010102", "FBWall"),
    ("010102", "SMS-Copenhagen"),
    ("010102", "SuperUser"),
    ("010102", "Calls-Copenhagen"),
    ("011012", "Bitcoin-otc"),
];

/// Analyzes one (motif, dataset) target.
pub fn run_target(corpus: &Corpus, motif: &str, dataset: &str) -> Option<Fig5Target> {
    let entry = corpus.get(dataset)?;
    let signature = sig(motif);
    // Ascending ratio: only-ΔC first, as in the figure's panels.
    let mut ratios = RATIOS_3E.to_vec();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    // All three ratio panels from ONE shared walk: the batch planner
    // merges the per-ratio configs (same motif target, ΔW anchor) into
    // a single prefix-pruned traversal under the widest ΔC, and each
    // visited instance folds into every panel whose timing admits it.
    let batch: Vec<EnumConfig> = ratios
        .iter()
        .map(|&ratio| {
            EnumConfig::for_signature(signature).with_timing(Timing::from_ratio(DELTA_W, ratio))
        })
        .collect();
    struct SpanAcc {
        histogram: Histogram,
        instances: u64,
        max_span: i64,
        sum_span: i64,
    }
    let mut accs: Vec<SpanAcc> = ratios
        .iter()
        .map(|_| SpanAcc {
            histogram: Histogram::new(0.0, (2 * DELTA_W) as f64, BINS),
            instances: 0,
            max_span: 0,
            sum_span: 0,
        })
        .collect();
    enumerate_batch(&entry.graph, &batch, |slot, inst| {
        let span = inst.timespan(&entry.graph);
        let acc = &mut accs[slot];
        acc.histogram.add(span as f64);
        acc.instances += 1;
        acc.max_span = acc.max_span.max(span);
        acc.sum_span += span;
    });
    let cells = ratios
        .iter()
        .zip(accs)
        .map(|(&ratio, acc)| Fig5Cell {
            ratio,
            label: Timing::from_ratio(DELTA_W, ratio).regime(signature.num_events()).to_string(),
            histogram: acc.histogram,
            instances: acc.instances,
            max_span: acc.max_span,
            mean_span: if acc.instances == 0 {
                0.0
            } else {
                acc.sum_span as f64 / acc.instances as f64
            },
        })
        .collect();
    Some(Fig5Target { name: entry.spec.name.clone(), motif: motif.to_string(), cells })
}

/// Runs the main target (plus appendix targets when `appendix`).
pub fn run(corpus: &Corpus, appendix: bool) -> Fig5 {
    let mut wanted: Vec<(&str, &str)> = MAIN_TARGETS.to_vec();
    if appendix {
        wanted.extend(APPENDIX_TARGETS);
    }
    let targets = wanted.iter().filter_map(|(m, d)| run_target(corpus, m, d)).collect();
    Fig5 { targets }
}

impl Fig5 {
    /// Renders the histograms with summary statistics.
    pub fn render(&self) -> String {
        let mut out = String::from("== Figure 5: motif timespan distributions ==\n");
        for t in &self.targets {
            out.push_str(&format!("\n-- motif {} in {} --\n", t.motif, t.name));
            for c in &t.cells {
                out.push_str(&format!(
                    "  ΔC/ΔW = {:.2} ({}): {} instances, mean span {:.0}s, max span {}s\n",
                    c.ratio, c.label, c.instances, c.mean_span, c.max_span
                ));
                out.push_str(&c.histogram.render("  span histogram (s)", 40));
            }
        }
        out
    }

    /// CSV rows: one per (target, ratio, bin).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,motif,ratio,label,bin_center_s,count\n");
        for t in &self.targets {
            for c in &t.cells {
                for (b, &count) in c.histogram.counts().iter().enumerate() {
                    out.push_str(&format!(
                        "{},{},{:.2},{},{:.0},{}\n",
                        t.name,
                        t.motif,
                        c.ratio,
                        c.label,
                        c.histogram.bin_center(b),
                        count
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_w_caps_spans_delta_c_does_not() {
        let corpus = Corpus::named(&["CollegeMsg"], 0.4, 17).unwrap();
        let t = run_target(&corpus, "010102", "CollegeMsg").unwrap();
        let only_c = &t.cells[0];
        let only_w = t.cells.last().unwrap();
        assert_eq!(only_c.label, "only-ΔC");
        assert_eq!(only_w.label, "only-ΔW");
        assert!(only_w.max_span <= DELTA_W, "ΔW must hard-cap spans");
        // only-ΔC (ratio 0.5 -> ΔC = 1500) allows spans up to 2·ΔC = 3000,
        // i.e. the same numeric bound; but the distribution differs: under
        // only-ΔW the mass beyond ΔC must be richer than under only-ΔC.
        let beyond = |c: &Fig5Cell| {
            let cutoff = DELTA_W / 2;
            let mut n = 0u64;
            for (b, &count) in c.histogram.counts().iter().enumerate() {
                if c.histogram.bin_center(b) > cutoff as f64 {
                    n += count;
                }
            }
            n as f64 / c.instances.max(1) as f64
        };
        assert!(
            beyond(only_w) > beyond(only_c),
            "only-ΔW should carry more mass beyond ΔC: {:.3} vs {:.3}",
            beyond(only_w),
            beyond(only_c)
        );
    }

    #[test]
    fn instances_grow_with_ratio() {
        // Larger ΔC admits strictly more instances (supersets).
        let corpus = Corpus::named(&["SMS-Copenhagen"], 0.3, 18).unwrap();
        let t = run_target(&corpus, "010102", "SMS-Copenhagen").unwrap();
        for w in t.cells.windows(2) {
            assert!(w[0].instances <= w[1].instances);
        }
    }

    /// The shared-walk rewrite must fold each instance into exactly the
    /// panels its timing admits — per-cell statistics (and therefore the
    /// CSV histograms) identical to three independent enumerations.
    #[test]
    fn shared_walk_matches_per_config_enumeration() {
        let corpus = Corpus::named(&["CollegeMsg"], 0.15, 21).unwrap();
        let t = run_target(&corpus, "010102", "CollegeMsg").unwrap();
        let e = corpus.get("CollegeMsg").unwrap();
        for cell in &t.cells {
            let cfg = EnumConfig::for_signature(sig("010102"))
                .with_timing(Timing::from_ratio(DELTA_W, cell.ratio));
            let mut histogram = Histogram::new(0.0, (2 * DELTA_W) as f64, BINS);
            let mut instances = 0u64;
            let mut max_span = 0i64;
            WindowedEngine.enumerate(&e.graph, &cfg, &mut |inst| {
                let span = inst.timespan(&e.graph);
                histogram.add(span as f64);
                instances += 1;
                max_span = max_span.max(span);
            });
            assert_eq!(cell.instances, instances, "ratio {}", cell.ratio);
            assert_eq!(cell.max_span, max_span, "ratio {}", cell.ratio);
            assert_eq!(cell.histogram.counts(), histogram.counts(), "ratio {}", cell.ratio);
        }
    }

    #[test]
    fn csv_shape() {
        let corpus = Corpus::named(&["CollegeMsg"], 0.1, 19).unwrap();
        let f = run(&corpus, false);
        let csv = f.to_csv();
        assert_eq!(csv.lines().count(), 1 + 3 * BINS);
    }
}
