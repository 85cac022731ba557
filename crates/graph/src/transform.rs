//! Graph transformations used by the paper's experimental protocol.
//!
//! * **Resolution degrading** (Section 5.1.2): timestamps are floored to a
//!   bucket size (300 s in the paper) to emulate snapshot-based data and
//!   surface the constrained-dynamic-graphlet behaviour.
//! * **Time rebasing**: shifts every timestamp by one offset.
//! * **Node compaction**: drops unused node ids.

use crate::builder::{NodeCompactor, TemporalGraphBuilder};
use crate::event::Event;
use crate::graph::TemporalGraph;
use crate::ids::Time;

/// Floors every timestamp to a multiple of `bucket` seconds, emulating a
/// snapshot representation (paper Section 5.1.2 uses `bucket = 300`).
///
/// Durations are preserved. Events keep their identity, so counts per edge
/// do not change — only timestamp collisions increase.
///
/// # Panics
///
/// Panics if `bucket <= 0`.
pub fn degrade_resolution(graph: &TemporalGraph, bucket: Time) -> TemporalGraph {
    assert!(bucket > 0, "bucket size must be positive");
    let events: Vec<Event> = graph
        .events()
        .iter()
        .map(|e| Event { time: e.time.div_euclid(bucket) * bucket, ..*e })
        .collect();
    TemporalGraphBuilder::from_events(events).build().expect("degrading a valid graph cannot fail")
}

/// Shifts all timestamps so the earliest event starts at `origin`.
pub fn rebase_time(graph: &TemporalGraph, origin: Time) -> TemporalGraph {
    let offset = origin - graph.first_time().unwrap_or(0);
    let events: Vec<Event> =
        graph.events().iter().map(|e| Event { time: e.time + offset, ..*e }).collect();
    TemporalGraphBuilder::from_events(events).build().expect("rebasing a valid graph")
}

/// Renumbers nodes densely by first appearance, dropping unused ids.
pub fn compact_nodes(graph: &TemporalGraph) -> TemporalGraph {
    let mut ids = NodeCompactor::new(graph.num_nodes() as usize);
    let events: Vec<Event> = graph
        .events()
        .iter()
        .map(|e| {
            let src = ids.id(e.src.0.into());
            Event { src: src.into(), dst: ids.id(e.dst.0.into()).into(), ..*e }
        })
        .collect();
    TemporalGraphBuilder::from_events(events).build().expect("compacting a valid graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn sample() -> TemporalGraph {
        TemporalGraphBuilder::new()
            .event(0, 1, 3)
            .event(1, 2, 307)
            .event(2, 0, 432)
            .event(0, 2, 650)
            .build()
            .unwrap()
    }

    #[test]
    fn degrade_floors_to_bucket() {
        let g = degrade_resolution(&sample(), 300);
        let times: Vec<_> = g.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![0, 300, 300, 600]);
        assert_eq!(g.num_events(), 4);
    }

    #[test]
    fn degrade_handles_negative_times() {
        let g = TemporalGraphBuilder::new().event(0, 1, -10).event(1, 2, 10).build().unwrap();
        let d = degrade_resolution(&g, 300);
        assert_eq!(d.events()[0].time, -300);
        assert_eq!(d.events()[1].time, 0);
    }

    #[test]
    #[should_panic(expected = "bucket size must be positive")]
    fn degrade_rejects_zero_bucket() {
        degrade_resolution(&sample(), 0);
    }

    #[test]
    fn rebase_shifts_all() {
        let g = rebase_time(&sample(), 0);
        assert_eq!(g.first_time(), Some(0));
        assert_eq!(g.last_time(), Some(647));
    }

    #[test]
    fn compaction_renumbers() {
        let g = TemporalGraphBuilder::new().event(10, 20, 1).event(20, 30, 2).build().unwrap();
        assert_eq!(g.num_nodes(), 31);
        let c = compact_nodes(&g);
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.events()[0].src, NodeId(0));
        assert_eq!(c.events()[0].dst, NodeId(1));
    }

    #[test]
    fn compaction_preserves_durations() {
        let g = TemporalGraphBuilder::new()
            .event_with_duration(5, 9, 1, 60)
            .event(9, 5, 2)
            .build()
            .unwrap();
        let c = compact_nodes(&g);
        assert_eq!(c.events()[0].duration, 60);
        assert_eq!(c.events()[1].duration, 0);
    }
}
