//! Engine result reporting: point estimates with confidence intervals.
//!
//! [`CountEngine::count`](crate::engine::CountEngine::count) returns
//! integral [`MotifCounts`], which is the right shape for exact engines
//! but loses everything an *approximate* engine knows about its own
//! uncertainty. [`EngineReport`] is the widened result type: per-motif
//! point estimates paired with a normal-approximation confidence
//! interval ([`Estimate`]). Exact engines report their counts with
//! zero-width intervals via the default
//! [`CountEngine::report`](crate::engine::CountEngine::report)
//! implementation, so callers can treat every engine uniformly:
//! `report.estimate(sig).contains(x)` is `x == count` for exact engines
//! and a genuine interval test for sampled ones.

use crate::count::MotifCounts;
use crate::notation::MotifSignature;
use std::collections::HashMap;
use tnm_graph::wire::{encode, Wire, WireError, WireReader, WireWriter};

/// Two-sided z-value of the ~95 % normal confidence interval used by the
/// sampling engine's reports at comfortable sample budgets.
pub const Z_95: f64 = 1.96;

/// Two-sided 95 % critical values of Student's t distribution for
/// `1..=28` degrees of freedom (`t_{0.975, df}`), pinned to the standard
/// statistical tables. Indexed by `df - 1`; beyond the table the normal
/// approximation [`Z_95`] takes over.
const T_95_SMALL_N: [f64; 28] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048,
];

/// The two-sided 95 % critical value for a mean estimated from
/// `samples` i.i.d. draws: Student's t with `samples − 1` degrees of
/// freedom for small budgets (`samples < 30`, where the normal
/// approximation under-covers noticeably), [`Z_95`] from 30 draws up.
/// Zero or one draw admits no variance estimate at all — the value is
/// infinite, matching the sampler's honest infinite interval.
pub fn t_critical_95(samples: usize) -> f64 {
    match samples {
        0 | 1 => f64::INFINITY,
        n if n < 30 => T_95_SMALL_N[n - 2],
        _ => Z_95,
    }
}

/// A per-motif point estimate with a symmetric confidence interval.
///
/// For exact engines the interval is degenerate (`half_width == 0`). For
/// the sampling engine it is the 95 % interval `point ± crit · SE`,
/// where `SE` is the standard error of the mean over the per-window
/// estimates and `crit` is [`t_critical_95`]: Student's t for small
/// sample budgets (under 30 windows, where the normal approximation
/// under-covers), [`Z_95`] once a few dozen windows contribute.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Estimate {
    /// Unbiased point estimate of the instance count.
    pub point: f64,
    /// Half-width of the ~95 % confidence interval (0 when exact).
    pub half_width: f64,
}

impl Estimate {
    /// A zero-width estimate for an exactly known count.
    pub fn exact(count: u64) -> Self {
        Estimate { point: count as f64, half_width: 0.0 }
    }

    /// Lower interval endpoint (may be negative for noisy estimates of
    /// near-zero counts; clamp at the call site if that matters).
    pub fn lo(&self) -> f64 {
        self.point - self.half_width
    }

    /// Upper interval endpoint.
    pub fn hi(&self) -> f64 {
        self.point + self.half_width
    }

    /// True if `value` lies within the interval (inclusive). For exact
    /// estimates this is an equality test on the point.
    pub fn contains(&self, value: f64) -> bool {
        self.lo() <= value && value <= self.hi()
    }

    /// True for zero-width (exactly known) estimates.
    pub fn is_exact(&self) -> bool {
        self.half_width == 0.0
    }
}

tnm_graph::wire_struct!(Estimate { point, half_width });

impl std::fmt::Display for Estimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_exact() {
            write!(f, "{:.0}", self.point)
        } else {
            write!(f, "{:.1} ± {:.1}", self.point, self.half_width)
        }
    }
}

/// The widened result of one counting run: integral counts plus
/// per-motif interval estimates and run metadata.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Name of the engine that produced the report.
    pub engine: &'static str,
    /// True when the counts are exact (all intervals zero-width).
    pub exact: bool,
    /// Number of sample draws behind the estimates (`None` for exact
    /// engines).
    pub samples: Option<usize>,
    /// Integral counts: the exact counts, or rounded point estimates.
    pub counts: MotifCounts,
    /// Estimate of the total instance count across all signatures, with
    /// its own interval (tighter than summing per-motif half-widths).
    pub total: Estimate,
    estimates: HashMap<MotifSignature, Estimate>,
}

impl EngineReport {
    /// Wraps exactly known counts in zero-width intervals.
    pub fn from_exact(engine: &'static str, counts: MotifCounts) -> Self {
        let estimates = counts.iter().map(|(s, n)| (s, Estimate::exact(n))).collect();
        let total = Estimate::exact(counts.total());
        EngineReport { engine, exact: true, samples: None, counts, total, estimates }
    }

    /// Builds an approximate report from per-motif estimates; integral
    /// counts are the rounded (non-negative) points.
    pub fn from_estimates(
        engine: &'static str,
        samples: usize,
        estimates: HashMap<MotifSignature, Estimate>,
        total: Estimate,
    ) -> Self {
        let counts = estimates
            .iter()
            .map(|(&s, e)| (s, e.point.round().max(0.0) as u64))
            .filter(|&(_, n)| n > 0)
            .collect();
        EngineReport { engine, exact: false, samples: Some(samples), counts, total, estimates }
    }

    /// The estimate for one signature (zero-point, zero-width when the
    /// signature was never observed).
    pub fn estimate(&self, sig: MotifSignature) -> Estimate {
        self.estimates.get(&sig).copied().unwrap_or_default()
    }

    /// Iterates `(signature, estimate)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (MotifSignature, Estimate)> + '_ {
        self.estimates.iter().map(|(&s, &e)| (s, e))
    }

    /// Number of signatures with an estimate.
    pub fn num_signatures(&self) -> usize {
        self.estimates.len()
    }
}

/// The names [`EngineReport::engine`] can hold: the engines' own
/// [`name`](crate::engine::CountEngine::name)s.
const ENGINE_NAMES: [&str; 4] = ["windowed", "stream", "sharded", "sampling"];

/// Engine name, exactness, sample count, integral counts, the
/// per-signature estimates in ascending signature order, and the total.
/// Decoding accepts only the engines' own names (the `'static` str is a
/// closed set), rebuilds the report through
/// [`from_exact`](EngineReport::from_exact) /
/// [`from_estimates`](EngineReport::from_estimates) so its invariants
/// cannot drift from a local run's, and rejects any input the rebuilt
/// report does not re-encode to exactly.
impl Wire for EngineReport {
    fn put(&self, w: &mut WireWriter) {
        w.put_bytes(self.engine.as_bytes());
        self.exact.put(w);
        self.samples.map(|s| s as u64).put(w);
        self.counts.put(w);
        let mut rows: Vec<_> = self.iter().collect();
        rows.sort_unstable_by_key(|(sig, _)| *sig);
        rows.put(w);
        self.total.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let start = r.rest();
        let name = String::get(r)?;
        let engine = ENGINE_NAMES.into_iter().find(|&known| known == name).ok_or_else(|| {
            WireError::Malformed(format!("unknown engine name `{name}` in report"))
        })?;
        let exact = bool::get(r)?;
        let samples = Option::<u64>::get(r)?;
        let counts = <MotifCounts as Wire>::get(r)?;
        let rows: Vec<(MotifSignature, Estimate)> = Wire::get(r)?;
        let total = Estimate::get(r)?;
        let report = if exact {
            EngineReport::from_exact(engine, counts)
        } else {
            let samples = samples.unwrap_or(0) as usize;
            EngineReport::from_estimates(engine, samples, rows.into_iter().collect(), total)
        };
        if encode(&report) != start[..start.len() - r.rest().len()] {
            return Err(WireError::Malformed("report does not match its reconstruction".into()));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notation::sig;

    #[test]
    fn t_critical_values_pinned() {
        // Degenerate budgets: no variance estimate exists.
        assert!(t_critical_95(0).is_infinite());
        assert!(t_critical_95(1).is_infinite());
        // Table endpoints against the standard t table.
        assert_eq!(t_critical_95(2), 12.706, "df=1");
        assert_eq!(t_critical_95(3), 4.303, "df=2");
        assert_eq!(t_critical_95(29), 2.048, "df=28");
        // From 30 draws up, the normal approximation takes over.
        assert_eq!(t_critical_95(30), Z_95);
        assert_eq!(t_critical_95(10_000), Z_95);
        // Monotone non-increasing toward Z_95: a bigger budget never
        // widens the interval multiplier.
        for n in 2..40usize {
            assert!(t_critical_95(n) >= t_critical_95(n + 1), "n={n}");
            assert!(t_critical_95(n) >= Z_95, "n={n}");
        }
    }

    #[test]
    fn exact_estimates_are_zero_width() {
        let mut counts = MotifCounts::new();
        counts.add(sig("0112"), 7);
        counts.add(sig("0110"), 3);
        let r = EngineReport::from_exact("windowed", counts);
        assert!(r.exact);
        assert_eq!(r.samples, None);
        let e = r.estimate(sig("0112"));
        assert!(e.is_exact());
        assert!(e.contains(7.0) && !e.contains(7.5));
        assert_eq!(r.total, Estimate::exact(10));
        assert_eq!(r.estimate(sig("010203")), Estimate::default());
        assert_eq!(format!("{e}"), "7");
    }

    #[test]
    fn estimated_report_rounds_counts() {
        let mut est = HashMap::new();
        est.insert(sig("0112"), Estimate { point: 6.6, half_width: 2.0 });
        est.insert(sig("0110"), Estimate { point: 0.2, half_width: 0.5 });
        let total = Estimate { point: 6.8, half_width: 2.1 };
        let r = EngineReport::from_estimates("sampling", 50, est, total);
        assert!(!r.exact);
        assert_eq!(r.samples, Some(50));
        assert_eq!(r.counts.get(sig("0112")), 7);
        assert_eq!(r.counts.get(sig("0110")), 0, "0.2 rounds away");
        assert!(r.estimate(sig("0112")).contains(5.0));
        assert!(!r.estimate(sig("0112")).contains(4.0));
        assert_eq!(format!("{}", r.total), "6.8 ± 2.1");
    }
}
