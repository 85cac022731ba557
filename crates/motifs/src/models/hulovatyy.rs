//! Hulovatyy et al. \[13\]: dynamic graphlets.
//!
//! *Y. Hulovatyy, H. Chen, T. Milenković, "Exploring the structure and
//! function of temporal networks with dynamic graphlets", Bioinformatics
//! 31(12), 2015.*
//!
//! Defining features (paper Section 4):
//!
//! 1. **Static inducedness** — motifs must be induced in the static
//!    projection (following Pržulj's graphlets), fixing Kovanen's
//!    non-inducedness; but there is *no* temporal inducedness: the
//!    consecutive events restriction is dropped.
//! 2. **ΔC timing** — like Kovanen, consecutive events must be within ΔC.
//! 3. **Durations** — uniquely among the four models, the gap between
//!    consecutive events is measured from the *end* of the first event to
//!    the *start* of the second ([`super::MotifModel::duration_aware`]).
//! 4. **Total ordering** — no partial-order support; undirected in the
//!    original (directedness "extendible"); our engine treats it as
//!    directed for comparability, as the survey's experiments do.
//! 5. **Constrained dynamic graphlets** — an optional restriction that
//!    consecutive motif events on different edges must not repeat an edge
//!    observation seen since the previous motif event (filtering "stale"
//!    snapshot information; evaluated in Section 5.1.2 / Table 4).

use super::{EventOrdering, MotifModel};
use crate::constraints::Timing;
use tnm_graph::Time;

/// Builds the (unconstrained) dynamic graphlet model.
pub fn model(delta_c: Time) -> MotifModel {
    MotifModel {
        name: "Hulovatyy et al. [13]".to_string(),
        timing: Timing::only_c(delta_c),
        consecutive_events: false,
        static_induced: true,
        constrained_dynamic: false,
        duration_aware: true,
        ordering: EventOrdering::Total,
        supports_labels: false,
    }
}

/// Builds the *constrained* dynamic graphlet variant (Section 5.1.2).
pub fn constrained_model(delta_c: Time) -> MotifModel {
    MotifModel {
        name: "Hulovatyy et al. [13] (constrained)".to_string(),
        constrained_dynamic: true,
        ..model(delta_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_aspects() {
        let m = model(1500);
        assert!(m.static_induced);
        assert!(!m.consecutive_events);
        assert!(m.duration_aware);
        assert_eq!(m.timing, Timing::only_c(1500));
        assert_eq!(m.ordering, EventOrdering::Total);
    }

    #[test]
    fn constrained_variant() {
        let c = constrained_model(1500);
        assert!(c.constrained_dynamic);
        assert!(c.static_induced);
        assert!(c.name.contains("constrained"));
    }
}
