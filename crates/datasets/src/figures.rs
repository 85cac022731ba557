//! Deterministic toy graphs reconstructing the paper's Figure 1 and the
//! Figure 2 notation examples.
//!
//! Figure 1 of the paper shows a small temporal network and four candidate
//! motifs whose validity differs across the four models (ΔC = 5 s,
//! ΔW = 10 s). We reconstruct the same *validity matrix* with a toy
//! network of four disjoint regions, one per row, so each row's failure
//! mode is isolated and testable:
//!
//! | row | fails because | \[11\] | \[12\] | \[13\] | \[14\] |
//! |---|---|---|---|---|---|
//! | 1 | a consecutive gap exceeds ΔC          | ✗ | ✓ | ✗ | ✓ |
//! | 2 | not static-induced (+ ΔC violation)   | ✗ | ✓ | ✗ | ✗ |
//! | 3 | consecutive events restriction        | ✗ | ✓ | ✓ | ✓ |
//! | 4 | nothing — valid everywhere            | ✓ | ✓ | ✓ | ✓ |

use tnm_graph::{EventIdx, TemporalGraph, TemporalGraphBuilder, Time};

/// ΔC used throughout the Figure 1 reconstruction (seconds).
pub const FIGURE1_DELTA_C: Time = 5;
/// ΔW used throughout the Figure 1 reconstruction (seconds).
pub const FIGURE1_DELTA_W: Time = 10;

/// The Figure 1 reconstruction: a network plus four candidate motifs
/// (each a time-ordered list of event indices).
#[derive(Debug, Clone)]
pub struct Figure1 {
    /// The toy temporal network.
    pub graph: TemporalGraph,
    /// The four candidate motifs of the figure's rows.
    pub motifs: Vec<Vec<EventIdx>>,
    /// Expected validity per motif (rows) and model (columns:
    /// Kovanen, Song, Hulovatyy, Paranjape).
    pub expected: [[bool; 4]; 4],
}

/// Builds the Figure 1 reconstruction.
pub fn figure1() -> Figure1 {
    let graph = TemporalGraphBuilder::new()
        // Region 1 (nodes 0–2): gap 8 s violates ΔC; induced; in-window.
        .event(0, 1, 100) // e0
        .event(1, 2, 108) // e1
        .event(0, 2, 110) // e2
        // Region 2 (nodes 3–5): same ΔC violation, plus an extra static
        // edge 5→3 (from an earlier event) the motif does not cover.
        .event(5, 3, 150) // e3
        .event(3, 4, 200) // e4
        .event(4, 5, 206) // e5
        .event(3, 5, 210) // e6
        // Region 3 (nodes 6–9): timing fine, but node 7 has an outside
        // event (e8) during its motif engagement.
        .event(6, 7, 300) // e7
        .event(7, 9, 302) // e8 (the "dashed" distraction)
        .event(7, 8, 304) // e9
        .event(6, 8, 308) // e10
        // Region 4 (nodes 10–12): valid everywhere.
        .event(10, 11, 400) // e11
        .event(11, 12, 404) // e12
        .event(10, 12, 408) // e13
        .build()
        .expect("figure 1 network is valid");
    let motifs = vec![vec![0, 1, 2], vec![4, 5, 6], vec![7, 9, 10], vec![11, 12, 13]];
    let expected = [
        [false, true, false, true],
        [false, true, false, false],
        [false, true, true, true],
        [true, true, true, true],
    ];
    Figure1 { graph, motifs, expected }
}

/// The Figure 2 left-panel examples: the triangle `011202` and the
/// four-event, four-node motif `01023132`, as concrete event sequences.
pub fn figure2_examples() -> TemporalGraph {
    TemporalGraphBuilder::new()
        // 011202: 0->1, 1->2, 0->2.
        .event(0, 1, 10)
        .event(1, 2, 20)
        .event(0, 2, 30)
        // 01023132 on fresh nodes (4..8): 4->5, 4->6, 7->5, 7->6.
        .event(4, 5, 100)
        .event(4, 6, 110)
        .event(7, 5, 120)
        .event(7, 6, 130)
        .build()
        .expect("figure 2 examples are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape() {
        let f = figure1();
        assert_eq!(f.graph.num_events(), 14);
        assert_eq!(f.motifs.len(), 4);
        for m in &f.motifs {
            assert_eq!(m.len(), 3);
        }
    }

    #[test]
    fn figure1_motifs_are_time_ordered() {
        let f = figure1();
        for m in &f.motifs {
            let times: Vec<_> = m.iter().map(|&i| f.graph.event(i).time).collect();
            assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
        }
    }

    #[test]
    fn figure2_contains_both_examples() {
        let g = figure2_examples();
        assert_eq!(g.num_events(), 7);
    }
}
