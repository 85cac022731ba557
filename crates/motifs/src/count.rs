//! Motif count containers and spectrum analytics.
//!
//! The paper's evaluation never uses a null model (Section 5, Comparison
//! criteria): counts themselves are the significance indicator, compared
//! via *rankings* (Table 3/6), *proportions* (Table 4/7), and event-pair
//! aggregates (Table 5, Figures 3/6). This module provides those
//! derived views over a raw signature → count map.

use crate::event_pair::{EventPairCounts, EventPairType};
use crate::notation::MotifSignature;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tnm_graph::wire::{Wire, WireError, WireReader, WireWriter};

/// Counts of motif instances keyed by canonical signature.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MotifCounts {
    map: HashMap<MotifSignature, u64>,
}

impl MotifCounts {
    /// An empty count table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` occurrences of `sig`.
    #[inline]
    pub fn add(&mut self, sig: MotifSignature, n: u64) {
        *self.map.entry(sig).or_insert(0) += n;
    }

    /// Count for one signature (0 if never seen).
    #[inline]
    pub fn get(&self, sig: MotifSignature) -> u64 {
        self.map.get(&sig).copied().unwrap_or(0)
    }

    /// Number of distinct signatures observed.
    pub fn num_signatures(&self) -> usize {
        self.map.len()
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.map.values().sum()
    }

    /// True if nothing was counted.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Merges another table into this one.
    pub fn merge(&mut self, other: &MotifCounts) {
        for (&sig, &n) in &other.map {
            self.add(sig, n);
        }
    }

    /// Iterates `(signature, count)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (MotifSignature, u64)> + '_ {
        self.map.iter().map(|(&s, &c)| (s, c))
    }

    /// `(signature, count)` sorted by descending count, ties broken by
    /// signature order — the deterministic ranking used by Table 3/6.
    pub fn ranking(&self) -> Vec<(MotifSignature, u64)> {
        let mut v: Vec<_> = self.iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// 0-based rank of `sig` in [`Self::ranking`] over the given universe:
    /// signatures absent from the table count as zero, so every universe
    /// member has a rank. Returns `None` if `sig` is not in `universe`.
    pub fn rank_within(&self, sig: MotifSignature, universe: &[MotifSignature]) -> Option<usize> {
        if !universe.contains(&sig) {
            return None;
        }
        let mut v: Vec<(MotifSignature, u64)> =
            universe.iter().map(|&s| (s, self.get(s))).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.iter().position(|&(s, _)| s == sig)
    }

    /// Proportion of each universe signature (count / total-over-universe).
    pub fn proportions(&self, universe: &[MotifSignature]) -> HashMap<MotifSignature, f64> {
        let total: u64 = universe.iter().map(|&s| self.get(s)).sum();
        universe
            .iter()
            .map(|&s| {
                let p = if total == 0 { 0.0 } else { self.get(s) as f64 / total as f64 };
                (s, p)
            })
            .collect()
    }

    /// The `k` most frequent signatures.
    pub fn top_k(&self, k: usize) -> Vec<(MotifSignature, u64)> {
        let mut v = self.ranking();
        v.truncate(k);
        v
    }

    /// Aggregates event-pair occurrences across all counted motifs: each
    /// instance of a signature contributes every node-sharing consecutive
    /// pair of its events (Table 5's unit of measurement).
    pub fn event_pair_counts(&self) -> EventPairCounts {
        let mut out = EventPairCounts::new();
        for (sig, n) in self.iter() {
            for pair in sig.event_pair_sequence().into_iter().flatten() {
                out.add(pair, n);
            }
        }
        out
    }

    /// Counts ordered *sequences* of event pairs for 3-event motifs: the
    /// 6×6 matrix behind Figure 6's heat maps (first pair × second pair).
    /// Motifs that are not 3-event or have a disjoint pair are skipped.
    pub fn pair_sequence_matrix(&self) -> [[u64; 6]; 6] {
        let mut m = [[0u64; 6]; 6];
        for (sig, n) in self.iter() {
            if sig.num_events() != 3 {
                continue;
            }
            let seq = sig.event_pair_sequence();
            if let (Some(a), Some(b)) = (seq[0], seq[1]) {
                m[a.index()][b.index()] += n;
            }
        }
        m
    }
}

/// A `u32` row count, then `(signature, u64)` rows in ascending
/// signature order, so identical tables are byte-identical regardless
/// of hash-map iteration order. Decoding requires that order.
impl Wire for MotifCounts {
    fn put(&self, w: &mut WireWriter) {
        let mut rows: Vec<_> = self.iter().collect();
        rows.sort_unstable();
        rows.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rows: Vec<(MotifSignature, u64)> = Wire::get(r)?;
        if rows.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
            return Err(WireError::Malformed("count rows not in ascending signature order".into()));
        }
        Ok(rows.into_iter().collect())
    }
}

impl FromIterator<(MotifSignature, u64)> for MotifCounts {
    fn from_iter<T: IntoIterator<Item = (MotifSignature, u64)>>(iter: T) -> Self {
        let mut c = MotifCounts::new();
        for (s, n) in iter {
            c.add(s, n);
        }
        c
    }
}

/// Rank changes between two count tables over a universe of signatures:
/// positive = ascended after going from `before` to `after` (the
/// convention of Table 6).
pub fn ranking_changes(
    before: &MotifCounts,
    after: &MotifCounts,
    universe: &[MotifSignature],
) -> HashMap<MotifSignature, i64> {
    universe
        .iter()
        .map(|&s| {
            let rb = before.rank_within(s, universe).expect("universe member") as i64;
            let ra = after.rank_within(s, universe).expect("universe member") as i64;
            (s, rb - ra)
        })
        .collect()
}

/// Per-signature proportion changes in **percentage points** when going
/// from `before` to `after` (Table 4/7), plus their variance over the
/// universe (Table 4's "Variance" column).
pub fn proportion_changes(
    before: &MotifCounts,
    after: &MotifCounts,
    universe: &[MotifSignature],
) -> (HashMap<MotifSignature, f64>, f64) {
    let pb = before.proportions(universe);
    let pa = after.proportions(universe);
    let changes: HashMap<MotifSignature, f64> =
        universe.iter().map(|&s| (s, (pa[&s] - pb[&s]) * 100.0)).collect();
    let n = universe.len() as f64;
    let mean: f64 = changes.values().sum::<f64>() / n;
    let var: f64 = changes.values().map(|c| (c - mean) * (c - mean)).sum::<f64>() / n;
    (changes, var)
}

/// Event-pair occurrence counts grouped as Table 5 groups them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairGroupCounts {
    /// Combined count of R, P, I, O pairs.
    pub rpio: u64,
    /// Combined count of C, W pairs.
    pub cw: u64,
}

impl PairGroupCounts {
    /// Groups a full pair-type counter.
    pub fn from_counts(c: &EventPairCounts) -> Self {
        PairGroupCounts { rpio: c.rpio_total(), cw: c.cw_total() }
    }

    /// `self / baseline`, per group, as ratios in `[0, 1]` (Table 5's
    /// "Ratio" columns use the only-ΔW configuration as baseline).
    pub fn ratio_vs(&self, baseline: &PairGroupCounts) -> (f64, f64) {
        let f = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        (f(self.rpio, baseline.rpio), f(self.cw, baseline.cw))
    }
}

/// Proportion of each pair type among all pair occurrences — the pie
/// charts of Figure 3 (and appendix Figures 7–8).
pub fn pair_type_ratios(c: &EventPairCounts) -> [(EventPairType, f64); 6] {
    let r = c.ratios();
    let mut out = [(EventPairType::Repetition, 0.0); 6];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = (EventPairType::from_index(i).unwrap(), r[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notation::sig;

    #[test]
    fn add_get_merge() {
        let mut a = MotifCounts::new();
        a.add(sig("010102"), 3);
        a.add(sig("010102"), 2);
        a.add(sig("011202"), 1);
        assert_eq!(a.get(sig("010102")), 5);
        assert_eq!(a.get(sig("012020")), 0);
        assert_eq!(a.total(), 6);
        assert_eq!(a.num_signatures(), 2);
        let mut b = MotifCounts::new();
        b.add(sig("011202"), 4);
        a.merge(&b);
        assert_eq!(a.get(sig("011202")), 5);
    }

    #[test]
    fn ranking_is_deterministic() {
        let c: MotifCounts =
            [(sig("010102"), 5), (sig("011202"), 5), (sig("012020"), 9)].into_iter().collect();
        let r = c.ranking();
        assert_eq!(r[0].0, sig("012020"));
        // Tie broken by signature order: 010102 < 011202.
        assert_eq!(r[1].0, sig("010102"));
        assert_eq!(r[2].0, sig("011202"));
    }

    #[test]
    fn rank_within_universe_includes_zeros() {
        let c: MotifCounts = [(sig("010102"), 5)].into_iter().collect();
        let universe = [sig("010102"), sig("011202"), sig("012020")];
        assert_eq!(c.rank_within(sig("010102"), &universe), Some(0));
        // Zero-count members ranked by signature order after non-zero.
        assert_eq!(c.rank_within(sig("011202"), &universe), Some(1));
        assert_eq!(c.rank_within(sig("012020"), &universe), Some(2));
        assert_eq!(c.rank_within(sig("0110"), &universe), None);
    }

    #[test]
    fn ranking_changes_sign_convention() {
        let universe = [sig("010102"), sig("011202")];
        let before: MotifCounts = [(sig("010102"), 10), (sig("011202"), 1)].into_iter().collect();
        let after: MotifCounts = [(sig("010102"), 1), (sig("011202"), 10)].into_iter().collect();
        let ch = ranking_changes(&before, &after, &universe);
        assert_eq!(ch[&sig("011202")], 1); // ascended one position
        assert_eq!(ch[&sig("010102")], -1);
    }

    #[test]
    fn proportion_changes_and_variance() {
        let universe = [sig("010102"), sig("011202")];
        let before: MotifCounts = [(sig("010102"), 50), (sig("011202"), 50)].into_iter().collect();
        let after: MotifCounts = [(sig("010102"), 60), (sig("011202"), 40)].into_iter().collect();
        let (ch, var) = proportion_changes(&before, &after, &universe);
        assert!((ch[&sig("010102")] - 10.0).abs() < 1e-9);
        assert!((ch[&sig("011202")] + 10.0).abs() < 1e-9);
        assert!((var - 100.0).abs() < 1e-9);
    }

    #[test]
    fn event_pair_aggregation() {
        // 010102 = R then O; two instances contribute 2 R and 2 O.
        let c: MotifCounts = [(sig("010102"), 2)].into_iter().collect();
        let pairs = c.event_pair_counts();
        assert_eq!(pairs.get(EventPairType::Repetition), 2);
        assert_eq!(pairs.get(EventPairType::OutBurst), 2);
        assert_eq!(pairs.total(), 4);
        let groups = PairGroupCounts::from_counts(&pairs);
        assert_eq!(groups.rpio, 4);
        assert_eq!(groups.cw, 0);
    }

    #[test]
    fn pair_sequence_matrix_entries() {
        let c: MotifCounts =
            [(sig("010102"), 3), (sig("011202"), 2), (sig("01021323"), 9)].into_iter().collect();
        let m = c.pair_sequence_matrix();
        use EventPairType::*;
        assert_eq!(m[Repetition.index()][OutBurst.index()], 3);
        assert_eq!(m[Convey.index()][InBurst.index()], 2);
        // 4-event motifs are excluded from the 3e matrix.
        let total: u64 = m.iter().flatten().sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn group_ratio_vs_baseline() {
        let a = PairGroupCounts { rpio: 50, cw: 9 };
        let b = PairGroupCounts { rpio: 100, cw: 10 };
        let (r, c) = a.ratio_vs(&b);
        assert!((r - 0.5).abs() < 1e-12);
        assert!((c - 0.9).abs() < 1e-12);
        let z = PairGroupCounts { rpio: 0, cw: 0 };
        assert_eq!(a.ratio_vs(&z), (0.0, 0.0));
    }
}
