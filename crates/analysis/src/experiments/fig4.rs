//! Figure 4 (+ appendix Figure 9): intermediate event behaviour.
//!
//! For a fixed motif, where inside the motif's `[first, last]` span do
//! the intermediate events occur? ΔW says nothing about them, so under
//! only-ΔW they skew hard toward one end (e.g. the repetition in
//! `010102` pins the 2nd event near the 1st); adding ΔC regularizes the
//! distribution. We reproduce the histograms and summarize each with a
//! signed skew statistic.

use super::{Corpus, DELTA_W, RATIOS_3E, RATIOS_4E};
use crate::hist::Histogram;
use serde::{Deserialize, Serialize};
use tnm_motifs::prelude::*;

/// Bins used for the 0–100 % occurrence histograms.
pub const BINS: usize = 10;

/// The intermediate-event distribution of one motif × dataset × config.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Cell {
    /// Dataset name.
    pub name: String,
    /// Target motif signature.
    pub motif: String,
    /// ΔC/ΔW ratio of this configuration.
    pub ratio: f64,
    /// Configuration label.
    pub label: String,
    /// One histogram per intermediate event (1 for 3e, 2 for 4e motifs),
    /// over normalized position in `[0, 1]`.
    pub histograms: Vec<Histogram>,
    /// Number of instances observed.
    pub instances: u64,
}

impl Fig4Cell {
    /// Signed skew of the `i`-th intermediate event
    /// (−1 = at the first event, +1 = at the last).
    pub fn skew(&self, i: usize) -> f64 {
        self.histograms[i].skew_position()
    }

    /// Largest absolute skew across intermediate events.
    pub fn max_abs_skew(&self) -> f64 {
        self.histograms.iter().map(|h| h.skew_position().abs()).fold(0.0, f64::max)
    }
}

/// The Figure 4 reproduction for one target motif on one dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Target {
    /// Dataset name.
    pub name: String,
    /// Target motif signature.
    pub motif: String,
    /// One cell per ΔC/ΔW ratio, descending (only-ΔW first).
    pub cells: Vec<Fig4Cell>,
}

/// The full Figure 4 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4 {
    /// All analyzed targets.
    pub targets: Vec<Fig4Target>,
}

/// The paper's main-text targets: (motif, dataset). The paper's 4-event
/// pick `01212303` is kept for fidelity but is rare in the synthetic
/// corpus, so the prominent 4-event motif `01100102` (ping-pong, then a
/// later out-burst) is analyzed alongside it.
pub const MAIN_TARGETS: [(&str, &str); 4] = [
    ("010102", "SMS-Copenhagen"),
    ("011221", "FBWall"),
    ("01212303", "CollegeMsg"),
    ("01100102", "CollegeMsg"),
];

/// The appendix Figure 9 targets (paper's picks plus a 4-event motif
/// that is prominent in the synthetic corpus).
pub const APPENDIX_TARGETS: [(&str, &str); 6] = [
    ("010102", "Calls-Copenhagen"),
    ("010102", "Email"),
    ("01022123", "FBWall"),
    ("01022123", "Bitcoin-otc"),
    ("01022123", "SuperUser"),
    ("01100203", "FBWall"),
];

/// Analyzes one (motif, dataset) target across the ratio sweep.
pub fn run_target(corpus: &Corpus, motif: &str, dataset: &str) -> Option<Fig4Target> {
    let entry = corpus.get(dataset)?;
    let signature = sig(motif);
    let mut ratios: Vec<f64> =
        if signature.num_events() == 3 { RATIOS_3E.to_vec() } else { RATIOS_4E.to_vec() };
    ratios.sort_by(|a, b| b.partial_cmp(a).expect("finite ratios"));
    let n_intermediate = signature.num_events() - 2;
    let cells = ratios
        .iter()
        .map(|&ratio| {
            let timing = Timing::from_ratio(DELTA_W, ratio);
            let cfg = EnumConfig::for_signature(signature).with_timing(timing);
            let mut histograms = vec![Histogram::new(0.0, 1.0, BINS); n_intermediate];
            let mut instances = 0u64;
            WindowedEngine.enumerate(&entry.graph, &cfg, &mut |inst| {
                let times = inst.times(&entry.graph);
                let first = times[0] as f64;
                let last = *times.last().expect("non-empty") as f64;
                let span = last - first;
                if span <= 0.0 {
                    return;
                }
                instances += 1;
                for (k, h) in histograms.iter_mut().enumerate() {
                    h.add((times[k + 1] as f64 - first) / span);
                }
            });
            Fig4Cell {
                name: entry.spec.name.clone(),
                motif: motif.to_string(),
                ratio,
                label: timing.regime(signature.num_events()).to_string(),
                histograms,
                instances,
            }
        })
        .collect();
    Some(Fig4Target { name: entry.spec.name.clone(), motif: motif.to_string(), cells })
}

/// Runs the main-text targets (plus appendix targets when `appendix`).
pub fn run(corpus: &Corpus, appendix: bool) -> Fig4 {
    let mut targets = Vec::new();
    let mut wanted: Vec<(&str, &str)> = MAIN_TARGETS.to_vec();
    if appendix {
        wanted.extend(APPENDIX_TARGETS);
    }
    for (motif, dataset) in wanted {
        if let Some(t) = run_target(corpus, motif, dataset) {
            targets.push(t);
        }
    }
    Fig4 { targets }
}

impl Fig4 {
    /// Renders histograms and skew summaries.
    pub fn render(&self) -> String {
        let mut out = String::from("== Figure 4: intermediate event occurrences ==\n");
        for t in &self.targets {
            out.push_str(&format!("\n-- motif {} in {} --\n", t.motif, t.name));
            for c in &t.cells {
                out.push_str(&format!(
                    "  ΔC/ΔW = {:.2} ({}), {} instances:\n",
                    c.ratio, c.label, c.instances
                ));
                for (k, h) in c.histograms.iter().enumerate() {
                    let label = format!(
                        "  event #{} position (0%=first, 100%=last), skew {:+.3}",
                        k + 2,
                        h.skew_position()
                    );
                    out.push_str(&h.render(&label, 40));
                }
            }
        }
        out
    }

    /// CSV rows: one per (target, ratio, intermediate event, bin).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,motif,ratio,label,event_position,bin_center,count\n");
        for t in &self.targets {
            for c in &t.cells {
                for (k, h) in c.histograms.iter().enumerate() {
                    for (b, &count) in h.counts().iter().enumerate() {
                        out.push_str(&format!(
                            "{},{},{:.2},{},{},{:.2},{}\n",
                            t.name,
                            t.motif,
                            c.ratio,
                            c.label,
                            k + 2,
                            h.bin_center(b),
                            count
                        ));
                    }
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
    fn delta_c_regularizes_skew() {
        let corpus = Corpus::scaled(0.4, 13).only(&["SMS-Copenhagen"]);
        let t = run_target(&corpus, "010102", "SMS-Copenhagen").unwrap();
        let only_w = &t.cells[0];
        let only_c = t.cells.last().unwrap();
        assert_eq!(only_w.label, "only-ΔW");
        assert!(only_w.instances > 0, "need instances under only-ΔW");
        // The repetition pins the second event near the first under
        // only-ΔW: skew clearly negative; ΔC reduces the magnitude. The
        // exact value is sensitive to the generator's RNG stream, so only
        // the sign and a conservative magnitude are asserted.
        assert!(
            only_w.skew(0) < -0.1,
            "only-ΔW skew should be clearly negative, got {:+.3}",
            only_w.skew(0)
        );
        assert!(
            only_c.max_abs_skew() < only_w.max_abs_skew() + 1e-9,
            "ΔC should not worsen skew: {:+.3} vs {:+.3}",
            only_c.max_abs_skew(),
            only_w.max_abs_skew()
        );
    }

    #[test]
    fn four_event_targets_have_two_histograms() {
        let corpus = Corpus::scaled(0.2, 14).only(&["CollegeMsg"]);
        let t = run_target(&corpus, "01212303", "CollegeMsg").unwrap();
        assert_eq!(t.cells.len(), 4);
        for c in &t.cells {
            assert_eq!(c.histograms.len(), 2);
        }
    }

    #[test]
    fn missing_dataset_is_none() {
        let corpus = Corpus::scaled(0.05, 15).only(&["Email"]);
        assert!(run_target(&corpus, "010102", "Nope").is_none());
    }

    #[test]
    fn csv_shape() {
        let corpus = Corpus::scaled(0.1, 16).only(&["SMS-Copenhagen"]);
        let f = Fig4 { targets: vec![run_target(&corpus, "010102", "SMS-Copenhagen").unwrap()] };
        let csv = f.to_csv();
        // header + 3 ratios * 1 intermediate * 10 bins.
        assert_eq!(csv.lines().count(), 1 + 3 * BINS);
    }
}
