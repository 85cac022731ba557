//! Song et al. \[12\]: event pattern matching over graph streams.
//!
//! *C. Song, T. Ge, C. Chen, J. Wang, "Event pattern matching over graph
//! streams", PVLDB 8(4), 2014.*
//!
//! Defining features (paper Section 4):
//!
//! 1. **ΔW window** — all events of a match must fall within ΔW seconds
//!    of the first; there is no per-gap constraint.
//! 2. **Non-induced** — deliberately: in streaming fraud detection one
//!    wants to catch a pattern (e.g. a temporal square) regardless of
//!    other transactions among the same accounts.
//! 3. **Node/edge labels** — patterns can constrain labels; durations can
//!    be treated as edge labels.
//! 4. **Partial ordering** — patterns order only the event pairs that
//!    matter.
//!
//! The model is designed for *on-the-fly* matching; the
//! [`crate::pattern`] module implements that streaming matcher, while
//! this module contributes the batch-counting view used in comparisons.

use super::{EventOrdering, MotifModel};
use crate::constraints::Timing;
use tnm_graph::Time;

/// Builds the Song et al. model with whole-motif window `delta_w`.
pub fn model(delta_w: Time) -> MotifModel {
    MotifModel {
        name: "Song et al. [12]".to_string(),
        timing: Timing::only_w(delta_w),
        consecutive_events: false,
        static_induced: false,
        constrained_dynamic: false,
        duration_aware: false,
        ordering: EventOrdering::Partial,
        supports_labels: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_aspects() {
        let m = model(3000);
        assert_eq!(m.timing, Timing::only_w(3000));
        assert!(!m.static_induced);
        assert!(m.supports_labels);
        assert_eq!(m.ordering, EventOrdering::Partial);
    }
}
