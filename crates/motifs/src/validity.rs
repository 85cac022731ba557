//! Per-instance validity checking against each model — the machinery
//! behind the paper's Figure 1, where the same four candidate motifs are
//! accepted or rejected by the four models for different reasons.

use crate::consecutive::consecutive_ok;
use crate::constrained::constrained_ok;
use crate::induced::static_induced_ok;
use crate::models::MotifModel;
use serde::{Deserialize, Serialize};
use std::fmt;
use tnm_graph::{EventIdx, TemporalGraph, Time};

/// A reason an instance fails a model's definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Violation {
    /// Events are not sorted by strictly increasing time (ties count).
    NotTimeOrdered,
    /// Some event (after the first) shares no node with earlier events.
    NotSingleComponent,
    /// A consecutive gap exceeds ΔC.
    DeltaCExceeded {
        /// 0-based index of the *second* event of the offending pair.
        position: usize,
        /// Observed gap in seconds.
        gap: Time,
        /// The configured ΔC.
        limit: Time,
    },
    /// The whole-motif span exceeds ΔW.
    DeltaWExceeded {
        /// Observed span in seconds.
        span: Time,
        /// The configured ΔW.
        limit: Time,
    },
    /// Kovanen's consecutive events restriction is violated.
    ConsecutiveEvents,
    /// The instance is not induced in the static projection.
    NotStaticInduced,
    /// The constrained dynamic graphlet restriction is violated.
    ConstrainedDynamic,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NotTimeOrdered => write!(f, "events not strictly time-ordered"),
            Violation::NotSingleComponent => write!(f, "does not grow as a single component"),
            Violation::DeltaCExceeded { position, gap, limit } => {
                write!(f, "gap before event {position} is {gap}s > ΔC={limit}s")
            }
            Violation::DeltaWExceeded { span, limit } => {
                write!(f, "motif spans {span}s > ΔW={limit}s")
            }
            Violation::ConsecutiveEvents => {
                write!(f, "a node has outside events during its motif engagement")
            }
            Violation::NotStaticInduced => {
                write!(f, "misses a static edge among the motif's nodes")
            }
            Violation::ConstrainedDynamic => {
                write!(f, "repeats an edge observation (stale information)")
            }
        }
    }
}

/// The verdict of checking one instance against one model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Verdict {
    /// Name of the model checked.
    pub model: String,
    /// All violations found (empty = valid).
    pub violations: Vec<Violation>,
}

impl Verdict {
    /// True if the instance satisfies the model.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "{}: valid", self.model)
        } else {
            write!(f, "{}: invalid (", self.model)?;
            for (i, v) in self.violations.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ")")
        }
    }
}

/// Checks a candidate instance (event indices, any order) against a model,
/// collecting *all* violations rather than stopping at the first — that is
/// what lets a Figure 1-style report explain each cell.
pub fn check_instance(
    graph: &TemporalGraph,
    motif_events: &[EventIdx],
    model: &MotifModel,
) -> Verdict {
    let mut violations = Vec::new();
    let mut events = motif_events.to_vec();
    events.sort_by_key(|&i| (graph.event(i).time, i));

    let strictly_ordered =
        events.windows(2).all(|w| graph.event(w[0]).time < graph.event(w[1]).time);
    if !strictly_ordered {
        violations.push(Violation::NotTimeOrdered);
    }

    // Single-component growth.
    let mut connected = true;
    for (i, &idx) in events.iter().enumerate().skip(1) {
        let e = graph.event(idx);
        let touches_earlier = events[..i].iter().any(|&j| graph.event(j).shares_node_with(e));
        if !touches_earlier {
            connected = false;
        }
    }
    if !connected {
        violations.push(Violation::NotSingleComponent);
    }

    if let Some(limit) = model.timing.delta_c {
        for (pos, w) in events.windows(2).enumerate() {
            let prev = graph.event(w[0]);
            let next = graph.event(w[1]);
            let base = if model.duration_aware { prev.end_time() } else { prev.time };
            let gap = next.time - base;
            if gap > limit {
                violations.push(Violation::DeltaCExceeded { position: pos + 1, gap, limit });
            }
        }
    }
    if let Some(limit) = model.timing.delta_w {
        let span = graph.event(*events.last().expect("non-empty instance")).time
            - graph.event(events[0]).time;
        if span > limit {
            violations.push(Violation::DeltaWExceeded { span, limit });
        }
    }
    if model.consecutive_events && !consecutive_ok(graph, &events) {
        violations.push(Violation::ConsecutiveEvents);
    }
    if model.static_induced && !static_induced_ok(graph, &events) {
        violations.push(Violation::NotStaticInduced);
    }
    if model.constrained_dynamic && !constrained_ok(graph, &events) {
        violations.push(Violation::ConstrainedDynamic);
    }
    Verdict { model: model.name.clone(), violations }
}

/// Checks one instance against several models at once (a Figure 1 row).
pub fn check_against_all(
    graph: &TemporalGraph,
    motif_events: &[EventIdx],
    models: &[MotifModel],
) -> Vec<Verdict> {
    models.iter().map(|m| check_instance(graph, motif_events, m)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Timing;
    use tnm_graph::TemporalGraphBuilder;

    fn graph() -> TemporalGraph {
        TemporalGraphBuilder::new().event(0, 1, 3).event(1, 2, 9).event(0, 2, 11).build().unwrap()
    }

    #[test]
    fn delta_c_violation_reported() {
        let m = MotifModel::kovanen(5);
        let v = check_instance(&graph(), &[0, 1, 2], &m);
        assert!(!v.is_valid());
        assert!(v.violations.contains(&Violation::DeltaCExceeded {
            position: 1,
            gap: 6,
            limit: 5
        }));
    }

    #[test]
    fn delta_w_violation_reported() {
        let m = MotifModel::song(5);
        let v = check_instance(&graph(), &[0, 1, 2], &m);
        assert_eq!(v.violations, vec![Violation::DeltaWExceeded { span: 8, limit: 5 }]);
    }

    #[test]
    fn valid_instance_passes_everything() {
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 7)
            .event(1, 2, 9)
            .event(0, 2, 11)
            .build()
            .unwrap();
        for m in MotifModel::all_four(5, 10) {
            let v = check_instance(&g, &[0, 1, 2], &m);
            assert!(v.is_valid(), "{v}");
        }
    }

    #[test]
    fn unordered_input_is_sorted_then_checked() {
        let g = graph();
        let m = MotifModel::vanilla(Timing::UNBOUNDED);
        let v = check_instance(&g, &[2, 0, 1], &m);
        assert!(v.is_valid());
    }

    #[test]
    fn tie_detection() {
        let g = TemporalGraphBuilder::new().event(0, 1, 5).event(1, 2, 5).build().unwrap();
        let m = MotifModel::vanilla(Timing::UNBOUNDED);
        let v = check_instance(&g, &[0, 1], &m);
        assert!(v.violations.contains(&Violation::NotTimeOrdered));
    }

    #[test]
    fn disconnected_instance_flagged() {
        let g = TemporalGraphBuilder::new().event(0, 1, 5).event(2, 3, 8).build().unwrap();
        let m = MotifModel::vanilla(Timing::UNBOUNDED);
        let v = check_instance(&g, &[0, 1], &m);
        assert_eq!(v.violations, vec![Violation::NotSingleComponent]);
    }

    #[test]
    fn non_induced_instance_flagged_for_paranjape_only() {
        // Square 0->1->2->3->0 with diagonal 0->2 not covered.
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 1)
            .event(1, 2, 2)
            .event(2, 3, 3)
            .event(3, 0, 4)
            .event(0, 2, 5)
            .build()
            .unwrap();
        let square = [0u32, 1, 2, 3];
        let p = check_instance(&g, &square, &MotifModel::paranjape(100));
        assert_eq!(p.violations, vec![Violation::NotStaticInduced]);
        let s = check_instance(&g, &square, &MotifModel::song(100));
        assert!(s.is_valid(), "Song is non-induced: {s}");
    }

    #[test]
    fn verdict_display() {
        let m = MotifModel::kovanen(5);
        let v = check_instance(&graph(), &[0, 1, 2], &m);
        let text = v.to_string();
        assert!(text.contains("invalid"), "{text}");
        assert!(text.contains("ΔC=5s"), "{text}");
    }
}
