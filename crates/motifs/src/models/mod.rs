//! The four temporal motif models surveyed by the paper (Section 4).
//!
//! Every model is expressed as a [`MotifModel`]: a bundle of the aspects
//! from the paper's Table 1 — timing constraints (ΔC vs ΔW), temporal or
//! static inducedness, duration awareness, and ordering discipline. The
//! unified representation is what lets the experiments switch a single
//! aspect on or off and measure its bias, which is the paper's core
//! methodology.
//!
//! | Aspect | Kovanen \[11\] | Song \[12\] | Hulovatyy \[13\] | Paranjape \[14\] |
//! |---|---|---|---|---|
//! | Induced subgraph | node-based temporal | — | static only | static only |
//! | Event durations | — | as labels | ✓ | — |
//! | Partial ordering | ✓ | ✓ | — | — |
//! | Directed edges | ✓ | ✓ | — | ✓ |
//! | Node/edge labels | — | ✓ | — | — |
//! | Adjacent events in ΔC | ✓ | — | ✓ | — |
//! | Entire motif in ΔW | — | ✓ | — | ✓ |

pub mod hulovatyy;
pub mod kovanen;
pub mod paranjape;
pub mod song;

use crate::constraints::Timing;
use serde::{Deserialize, Serialize};
use std::fmt;
use tnm_graph::Time;

/// Ordering discipline among the events of a motif (Section 4.3).
///
/// Partial orders are representable as unions of total orders; the
/// counting engine always works with total orders and
/// [`crate::partial_order`] expands partial patterns into them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventOrdering {
    /// Every pair of events is ordered (Hulovatyy, Paranjape).
    Total,
    /// Some event pairs may be unordered (Kovanen, Song).
    Partial,
}

/// A unified temporal motif model: the configuration space spanned by the
/// four surveyed models.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MotifModel {
    /// Human-readable model name for reports.
    pub name: String,
    /// ΔC / ΔW configuration.
    pub timing: Timing,
    /// Kovanen's consecutive events restriction (node-based temporal
    /// inducedness, Section 4.1).
    pub consecutive_events: bool,
    /// Static-projection inducedness (Hulovatyy, Paranjape).
    pub static_induced: bool,
    /// Hulovatyy's constrained dynamic graphlet restriction.
    pub constrained_dynamic: bool,
    /// Measure consecutive-event gaps from the *end* of the previous
    /// event (Hulovatyy's duration-aware dynamic graphlets, Section 4.2).
    pub duration_aware: bool,
    /// Ordering discipline the model natively supports.
    pub ordering: EventOrdering,
    /// Whether the model natively supports node/edge labels (Song).
    pub supports_labels: bool,
}

impl MotifModel {
    /// A "vanilla" model: timing constraints only, no inducedness
    /// restrictions. This is the baseline the paper counts against in
    /// Sections 5.1 and 5.2.
    pub fn vanilla(timing: Timing) -> Self {
        MotifModel {
            name: format!("vanilla ({timing})"),
            timing,
            consecutive_events: false,
            static_induced: false,
            constrained_dynamic: false,
            duration_aware: false,
            ordering: EventOrdering::Total,
            supports_labels: false,
        }
    }

    /// Kovanen et al. \[11\] — see [`kovanen`].
    pub fn kovanen(delta_c: Time) -> Self {
        kovanen::model(delta_c)
    }

    /// Song et al. \[12\] — see [`song`].
    pub fn song(delta_w: Time) -> Self {
        song::model(delta_w)
    }

    /// Hulovatyy et al. \[13\] — see [`hulovatyy`].
    pub fn hulovatyy(delta_c: Time) -> Self {
        hulovatyy::model(delta_c)
    }

    /// Hulovatyy et al.'s constrained dynamic graphlets — see [`hulovatyy`].
    pub fn hulovatyy_constrained(delta_c: Time) -> Self {
        hulovatyy::constrained_model(delta_c)
    }

    /// Paranjape et al. \[14\] — see [`paranjape`].
    pub fn paranjape(delta_w: Time) -> Self {
        paranjape::model(delta_w)
    }

    /// All four paper models with the given parameters, in citation order.
    /// Handy for Figure 1-style side-by-side comparisons.
    pub fn all_four(delta_c: Time, delta_w: Time) -> Vec<MotifModel> {
        vec![
            Self::kovanen(delta_c),
            Self::song(delta_w),
            Self::hulovatyy(delta_c),
            Self::paranjape(delta_w),
        ]
    }
}

impl fmt::Display for MotifModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_aspects() {
        let k = MotifModel::kovanen(5);
        assert!(k.consecutive_events);
        assert!(!k.static_induced);
        assert_eq!(k.ordering, EventOrdering::Partial);
        assert_eq!(k.timing.delta_c, Some(5));
        assert_eq!(k.timing.delta_w, None);

        let s = MotifModel::song(10);
        assert!(!s.consecutive_events);
        assert!(!s.static_induced);
        assert!(s.supports_labels);
        assert_eq!(s.timing.delta_w, Some(10));
        assert_eq!(s.timing.delta_c, None);

        let h = MotifModel::hulovatyy(5);
        assert!(h.static_induced);
        assert!(!h.consecutive_events);
        assert!(!h.constrained_dynamic);
        assert!(h.duration_aware);
        assert_eq!(h.ordering, EventOrdering::Total);

        let hc = MotifModel::hulovatyy_constrained(5);
        assert!(hc.constrained_dynamic);
        assert!(hc.static_induced);

        let p = MotifModel::paranjape(10);
        assert!(p.static_induced);
        assert!(!p.consecutive_events);
        assert_eq!(p.timing.delta_w, Some(10));
    }

    #[test]
    fn vanilla_has_no_restrictions() {
        let v = MotifModel::vanilla(Timing::only_c(1500));
        assert!(!v.consecutive_events && !v.static_induced && !v.constrained_dynamic);
    }

    #[test]
    fn all_four_ordering() {
        let models = MotifModel::all_four(5, 10);
        assert_eq!(models.len(), 4);
        assert!(models[0].name.contains("Kovanen"));
        assert!(models[1].name.contains("Song"));
        assert!(models[2].name.contains("Hulovatyy"));
        assert!(models[3].name.contains("Paranjape"));
    }

    #[test]
    fn display_includes_timing() {
        let s = MotifModel::paranjape(3000).to_string();
        assert!(s.contains("ΔW=3000s"), "{s}");
    }
}
