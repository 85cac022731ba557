//! Figure 6 (+ appendix Figure 11): ordered sequences of event pairs as
//! 6×6 heat maps.
//!
//! Every 3-event motif is a sequence of two event pairs; counting motifs
//! by (first pair, second pair) yields a 6×6 matrix whose structure the
//! paper reads off: message networks are dominated by repetition/
//! ping-pong sequences, calls/emails by repetitions and out-bursts,
//! weakly-connected pairs are rare everywhere, and the off-diagonal
//! asymmetries (C→O common, O→C rare; I→C common, C→I rare) reflect how
//! information flows.

use super::{Corpus, RunConfig, DELTA_W};
use crate::heatmap::{asymmetry, heatmap_csv, render_heatmap};
use serde::{Deserialize, Serialize};
use tnm_motifs::event_pair::EventPairType;
use tnm_motifs::prelude::*;

/// ΔC used for the heat maps (the paper's Figure 6 uses ΔC = 2000 s with
/// ΔW = 3000 s).
pub const DELTA_C: i64 = 2000;

/// One dataset's heat map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Map {
    /// Dataset name.
    pub name: String,
    /// Counts: `matrix[first_pair][second_pair]`.
    pub matrix: [[u64; 6]; 6],
    /// Total 3-event motifs behind the matrix.
    pub total: u64,
}

impl Fig6Map {
    /// Signed asymmetry between sequences `a→b` and `b→a` (+1 = all mass
    /// on `a→b`).
    pub fn asymmetry(&self, a: EventPairType, b: EventPairType) -> f64 {
        asymmetry(&self.matrix, a.index(), b.index())
    }

    /// Fraction of motifs whose two pairs are both in {R, P} — the
    /// "local one-to-one conversation" share the paper reads off message
    /// networks.
    pub fn rp_share(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rp = [EventPairType::Repetition, EventPairType::PingPong];
        let mut n = 0u64;
        for a in rp {
            for b in rp {
                n += self.matrix[a.index()][b.index()];
            }
        }
        n as f64 / self.total as f64
    }

    /// Fraction of motifs containing a weakly-connected pair.
    pub fn w_share(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let w = EventPairType::WeaklyConnected.index();
        let mut n = 0u64;
        for i in 0..6 {
            n += self.matrix[w][i];
            if i != w {
                n += self.matrix[i][w];
            }
        }
        n as f64 / self.total as f64
    }
}

/// The full Figure 6 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6 {
    /// One heat map per dataset.
    pub maps: Vec<Fig6Map>,
    /// Timing used.
    pub delta_c: i64,
    /// Timing used.
    pub delta_w: i64,
}

/// Runs the heat-map experiment over all 3-event (2n/3n) motifs with
/// both constraints, as the paper does, using the default engine
/// selection.
pub fn run(corpus: &Corpus) -> Fig6 {
    run_with(corpus, &RunConfig::default())
}

/// Runs the experiment with an explicit engine/thread configuration.
pub fn run_with(corpus: &Corpus, rc: &RunConfig) -> Fig6 {
    let timing = Timing::both(DELTA_C, DELTA_W);
    let maps = corpus
        .entries
        .iter()
        .map(|e| {
            let cfg = EnumConfig::new(3, 3).with_timing(timing);
            let counts = rc.engine.count(&e.graph, &cfg, rc.threads);
            let matrix = counts.pair_sequence_matrix();
            let total: u64 = matrix.iter().flatten().sum();
            Fig6Map { name: e.spec.name.clone(), matrix, total }
        })
        .collect();
    Fig6 { maps, delta_c: DELTA_C, delta_w: DELTA_W }
}

impl Fig6 {
    /// Renders every heat map plus the asymmetry summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== Figure 6: ordered event-pair sequences (dC={}s, dW={}s) ==\n",
            self.delta_c, self.delta_w
        );
        use EventPairType::*;
        for m in &self.maps {
            out.push('\n');
            out.push_str(&render_heatmap(&format!("{} ({} motifs)", m.name, m.total), &m.matrix));
            out.push_str(&format!(
                "    R/P share {:.1}%, W share {:.1}%, C->O asym {:+.2}, I->C asym {:+.2}\n",
                m.rp_share() * 100.0,
                m.w_share() * 100.0,
                m.asymmetry(Convey, OutBurst),
                m.asymmetry(InBurst, Convey),
            ));
        }
        out
    }

    /// CSV with one 6×6 block per dataset.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for m in &self.maps {
            out.push_str(&format!("# {}\n", m.name));
            out.push_str(&heatmap_csv(&m.matrix));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_networks_are_rp_dominated() {
        let corpus = Corpus::named(&["SMS-Copenhagen", "StackOverflow"], 0.3, 20).unwrap();
        let f6 = run(&corpus);
        let sms = f6.maps.iter().find(|m| m.name == "SMS-Copenhagen").unwrap();
        let so = f6.maps.iter().find(|m| m.name == "StackOverflow").unwrap();
        assert!(
            sms.rp_share() > so.rp_share(),
            "SMS R/P share {:.3} should beat StackOverflow {:.3}",
            sms.rp_share(),
            so.rp_share()
        );
    }

    #[test]
    fn weakly_connected_is_rare() {
        let corpus = Corpus::named(&["SMS-Copenhagen", "CollegeMsg"], 0.3, 21).unwrap();
        let f6 = run(&corpus);
        for m in &f6.maps {
            assert!(m.total > 0, "{} produced no motifs", m.name);
            assert!(m.w_share() < 0.35, "{}: W share {:.3} too high", m.name, m.w_share());
        }
    }

    #[test]
    fn render_and_csv_shapes() {
        let corpus = Corpus::named(&["Calls-Copenhagen"], 0.05, 22).unwrap();
        let f6 = run(&corpus);
        let text = f6.render();
        assert!(text.contains("Calls-Copenhagen"));
        assert!(text.contains("R/P share"));
        let csv = f6.to_csv();
        assert_eq!(csv.lines().count(), 8);
    }
}
