//! Kovanen et al. \[11\]: the first holistic temporal motif model.
//!
//! *L. Kovanen, M. Karsai, K. Kaski, J. Kertész, J. Saramäki, "Temporal
//! motifs in time-dependent networks", J. Stat. Mech. (2011).*
//!
//! Defining features (paper Section 4):
//!
//! 1. **ΔC temporal adjacency** — every pair of consecutive events must be
//!    within ΔC seconds, aimed at capturing causality. There is no bound
//!    on the whole motif beyond the loose `(m−1)·ΔC`.
//! 2. **Consecutive events restriction** — a node engaged in a motif may
//!    not participate in any outside event between its motif events
//!    (node-based temporal inducedness). This keeps star-burst nodes from
//!    generating quadratically many motifs, but Section 5.1.1 shows it
//!    removes >95 % of 3n3e motifs and consistently amplifies ask-reply
//!    shapes — useful for message/email analysis, biased elsewhere.
//! 3. **Partial ordering support** — motifs may leave some event pairs
//!    unordered; such a motif is the union of its linear extensions
//!    (see [`crate::partial_order`]).
//!
//! Durations are acknowledged but omitted; edges are directed; labels are
//! not part of the model.

use super::{EventOrdering, MotifModel};
use crate::constraints::Timing;
use tnm_graph::Time;

/// Builds the Kovanen et al. model with inter-event threshold `delta_c`.
pub fn model(delta_c: Time) -> MotifModel {
    MotifModel {
        name: "Kovanen et al. [11]".to_string(),
        timing: Timing::only_c(delta_c),
        consecutive_events: true,
        static_induced: false,
        constrained_dynamic: false,
        duration_aware: false,
        ordering: EventOrdering::Partial,
        supports_labels: false,
    }
}

/// The "non-consecutive" ablation used by Table 3: Kovanen's timing
/// without the consecutive events restriction.
pub fn without_consecutive_restriction(delta_c: Time) -> MotifModel {
    MotifModel {
        name: "Kovanen et al. [11] w/o consecutive restriction".to_string(),
        consecutive_events: false,
        ..model(delta_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_aspects() {
        let m = model(1500);
        assert_eq!(m.timing, Timing::only_c(1500));
        assert!(m.consecutive_events);
        assert_eq!(m.ordering, EventOrdering::Partial);
    }

    #[test]
    fn ablation_differs_only_in_restriction() {
        let a = model(1500);
        let b = without_consecutive_restriction(1500);
        assert!(a.consecutive_events && !b.consecutive_events);
        assert_eq!(a.timing, b.timing);
        assert_eq!(a.static_induced, b.static_induced);
    }
}
