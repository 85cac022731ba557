//! Paranjape et al. \[14\]: δ-temporal motifs.
//!
//! *A. Paranjape, A. R. Benson, J. Leskovec, "Motifs in temporal
//! networks", WSDM 2017.*
//!
//! Defining features (paper Section 4):
//!
//! 1. **ΔW window** — the whole motif must fit in a δ-window
//!    (`t_last − t_first ≤ ΔW`), giving a holistic temporal view and a
//!    hard timespan bound; there is no per-gap constraint, so motifs in
//!    short bursts are caught (the explicit relaxation of Kovanen's
//!    consecutive events restriction).
//! 2. **Static inducedness** — like Hulovatyy, induced in the static
//!    projection only (the survey's reading of Figure 1's second motif).
//! 3. **Total ordering** over directed edges; partial ordering and
//!    durations are mentioned as possible extensions only.
//!
//! Section 5.2 shows the flip side: ΔW alone biases the *timing* of
//! intermediate events (they skew towards the first or last event) even
//! though it regularizes motif timespans.

use super::{EventOrdering, MotifModel};
use crate::constraints::Timing;
use tnm_graph::Time;

/// Builds the Paranjape et al. model with window `delta_w`.
pub fn model(delta_w: Time) -> MotifModel {
    MotifModel {
        name: "Paranjape et al. [14]".to_string(),
        timing: Timing::only_w(delta_w),
        consecutive_events: false,
        static_induced: true,
        constrained_dynamic: false,
        duration_aware: false,
        ordering: EventOrdering::Total,
        supports_labels: false,
    }
}

/// The non-induced ablation (vanilla ΔW counting), used when comparing
/// against Song et al.'s semantics and in the Section 5.2 sweeps.
pub fn without_inducedness(delta_w: Time) -> MotifModel {
    MotifModel {
        name: "Paranjape et al. [14] w/o inducedness".to_string(),
        static_induced: false,
        ..model(delta_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_aspects() {
        let m = model(3000);
        assert_eq!(m.timing, Timing::only_w(3000));
        assert!(m.static_induced);
        assert!(!m.consecutive_events);
        assert_eq!(m.ordering, EventOrdering::Total);
    }

    #[test]
    fn ablation() {
        assert!(!without_inducedness(3000).static_induced);
    }
}
