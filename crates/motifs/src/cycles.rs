//! Simple temporal cycle enumeration — the 2SCENT problem (Kumar &
//! Calders, PVLDB 2018) from the paper's related work, built on
//! Johnson-style path extension.
//!
//! A *simple temporal cycle* of length `l` is a sequence of events
//! `e_1 < e_2 < … < e_l` (strictly increasing times) such that the target
//! of each event is the source of the next, the target of `e_l` is the
//! source of `e_1`, all intermediate nodes are distinct, and the whole
//! cycle fits in a ΔW window. Temporal cycles are a classic fraud signal
//! in transaction networks (money looping back to its origin), which the
//! `fraud_detection` example exercises.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tnm_graph::{EventIdx, NodeId, TemporalGraph, Time};

/// Search bounds for cycle enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleConfig {
    /// Maximum cycle length in events (≥ 2).
    pub max_length: usize,
    /// Whole-cycle time window ΔW.
    pub delta_w: Time,
}

/// A [`CycleConfig`] bound out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleConfigError {
    /// `max_length` is below two — a cycle needs at least two events.
    TooShort {
        /// The offending bound.
        max_length: usize,
    },
    /// `delta_w` is negative.
    NegativeWindow {
        /// The offending bound.
        delta_w: Time,
    },
}

impl std::fmt::Display for CycleConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CycleConfigError::TooShort { max_length } => {
                write!(f, "cycles need at least two events (got max length {max_length})")
            }
            CycleConfigError::NegativeWindow { delta_w } => {
                write!(f, "window must be non-negative (got {delta_w})")
            }
        }
    }
}

impl std::error::Error for CycleConfigError {}

impl CycleConfig {
    /// Creates a config, panicking on the bounds [`CycleConfig::try_new`]
    /// rejects.
    pub fn new(max_length: usize, delta_w: Time) -> Self {
        Self::try_new(max_length, delta_w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`CycleConfig::new`]: rejects a length below two or a
    /// negative window with a [`CycleConfigError`]. Entry point for bounds
    /// built from untrusted input (CLI arguments).
    pub fn try_new(max_length: usize, delta_w: Time) -> Result<Self, CycleConfigError> {
        if max_length < 2 {
            return Err(CycleConfigError::TooShort { max_length });
        }
        if delta_w < 0 {
            return Err(CycleConfigError::NegativeWindow { delta_w });
        }
        Ok(CycleConfig { max_length, delta_w })
    }
}

/// Enumerates all simple temporal cycles, invoking `callback` with the
/// time-ordered event indices of each cycle.
pub fn enumerate_temporal_cycles<F: FnMut(&[EventIdx])>(
    graph: &TemporalGraph,
    cfg: &CycleConfig,
    mut callback: F,
) {
    let mut path: Vec<EventIdx> = Vec::with_capacity(cfg.max_length);
    let mut nodes: Vec<NodeId> = Vec::with_capacity(cfg.max_length + 1);
    for (i, first) in graph.events().iter().enumerate() {
        path.push(i as EventIdx);
        nodes.push(first.src);
        nodes.push(first.dst);
        extend(graph, cfg, &mut path, &mut nodes, first.src, first.time, &mut callback);
        path.pop();
        nodes.clear();
    }
}

fn extend<F: FnMut(&[EventIdx])>(
    graph: &TemporalGraph,
    cfg: &CycleConfig,
    path: &mut Vec<EventIdx>,
    nodes: &mut Vec<NodeId>,
    origin: NodeId,
    t_first: Time,
    callback: &mut F,
) {
    let last = graph.event(*path.last().expect("non-empty path"));
    let current = last.dst;
    let t_last = last.time;
    let bound = t_first + cfg.delta_w;
    let list = graph.node_events(current);
    let start = list.partition_point(|&i| graph.event(i).time <= t_last);
    for &i in &list[start..] {
        let e = graph.event(i);
        if e.time > bound {
            break;
        }
        if e.src != current {
            continue; // must continue the chain out of `current`
        }
        if e.dst == origin {
            // Closing the cycle (length >= 2 guaranteed: first event's
            // dst != origin because self-loops are rejected).
            path.push(i);
            callback(path);
            path.pop();
            continue;
        }
        if path.len() + 1 >= cfg.max_length {
            continue; // would need the next event to close, but dst != origin
        }
        if nodes.contains(&e.dst) {
            continue; // simple cycles: no repeated intermediate nodes
        }
        path.push(i);
        nodes.push(e.dst);
        extend(graph, cfg, path, nodes, origin, t_first, callback);
        nodes.pop();
        path.pop();
    }
}

/// Counts simple temporal cycles grouped by length.
pub fn count_temporal_cycles(graph: &TemporalGraph, cfg: &CycleConfig) -> HashMap<usize, u64> {
    let mut out = HashMap::new();
    enumerate_temporal_cycles(graph, cfg, |cycle| {
        *out.entry(cycle.len()).or_insert(0) += 1;
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnm_graph::TemporalGraphBuilder;

    #[test]
    fn triangle_cycle_found() {
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 10)
            .event(1, 2, 20)
            .event(2, 0, 30)
            .build()
            .unwrap();
        let mut cycles = Vec::new();
        enumerate_temporal_cycles(&g, &CycleConfig::new(4, 100), |c| cycles.push(c.to_vec()));
        assert_eq!(cycles, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn window_bound_respected() {
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 10)
            .event(1, 2, 20)
            .event(2, 0, 30)
            .build()
            .unwrap();
        let counts = count_temporal_cycles(&g, &CycleConfig::new(4, 19));
        assert!(counts.is_empty());
    }

    #[test]
    fn two_cycles_counted_by_length() {
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 10) // 2-cycle: 0->1->0
            .event(1, 0, 15)
            .event(2, 3, 20) // 3-cycle: 2->3->4->2
            .event(3, 4, 25)
            .event(4, 2, 30)
            .build()
            .unwrap();
        let counts = count_temporal_cycles(&g, &CycleConfig::new(5, 100));
        assert_eq!(counts.get(&2), Some(&1));
        assert_eq!(counts.get(&3), Some(&1));
    }

    #[test]
    fn length_cap_prunes() {
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 10)
            .event(1, 2, 20)
            .event(2, 3, 30)
            .event(3, 0, 40)
            .build()
            .unwrap();
        assert!(count_temporal_cycles(&g, &CycleConfig::new(3, 100)).is_empty());
        let counts = count_temporal_cycles(&g, &CycleConfig::new(4, 100));
        assert_eq!(counts.get(&4), Some(&1));
    }

    #[test]
    fn non_simple_paths_excluded() {
        // 0->1->2->1 would revisit node 1; only the 2-cycle 1->2->1 counts.
        let g = TemporalGraphBuilder::new()
            .event(0, 1, 10)
            .event(1, 2, 20)
            .event(2, 1, 30)
            .build()
            .unwrap();
        let counts = count_temporal_cycles(&g, &CycleConfig::new(5, 100));
        assert_eq!(counts.get(&2), Some(&1));
        assert_eq!(counts.len(), 1);
    }

    #[test]
    fn strict_time_order_excludes_ties() {
        let g = TemporalGraphBuilder::new().event(0, 1, 10).event(1, 0, 10).build().unwrap();
        assert!(count_temporal_cycles(&g, &CycleConfig::new(3, 100)).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two events")]
    fn bad_config_rejected() {
        CycleConfig::new(1, 10);
    }

    #[test]
    fn try_new_rejects_what_new_asserts() {
        assert_eq!(CycleConfig::try_new(1, 10), Err(CycleConfigError::TooShort { max_length: 1 }));
        assert_eq!(
            CycleConfig::try_new(3, -1),
            Err(CycleConfigError::NegativeWindow { delta_w: -1 })
        );
        assert_eq!(CycleConfig::try_new(3, 0).unwrap(), CycleConfig::new(3, 0));
    }
}
