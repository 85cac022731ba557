//! Temporal events: directed timestamped interactions.
//!
//! Following the paper's Section 2, an event is a tuple `(u, v, t, Δt)`
//! where `Δt` is the (usually ignored) duration. Durations matter only for
//! Hulovatyy et al.'s dynamic graphlets, so they are stored but default to
//! zero and are skipped by every other model.

use crate::ids::{Edge, NodeId, Time};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A single temporal event `(u, v, t, Δt)`.
///
/// Events compare by `(time, src, dst, duration)` so that sorting a batch
/// of events is deterministic even when timestamps collide (a situation
/// the paper measures explicitly via the `|Eu|/|E|` column of Table 2).
///
/// The layout is `#[repr(C)]` and pinned by test: 24 bytes, align 8,
/// fields at offsets 0/4/8/16 (the tail is padding). Three things must
/// stay in lockstep — this struct, the packed 20-byte wire record
/// ([`crate::wire::EVENT_RECORD_BYTES`]), and the SoA time column
/// ([`crate::EventColumns`]) — and the layout test is what catches a
/// field being added or reordered in one of them but not the others.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Event {
    /// Source node of the interaction.
    pub src: NodeId,
    /// Target node of the interaction.
    pub dst: NodeId,
    /// Start time in seconds.
    pub time: Time,
    /// Duration in seconds; zero for instantaneous events.
    pub duration: u32,
}

impl Event {
    /// Creates an instantaneous event.
    #[inline]
    pub fn new(src: impl Into<NodeId>, dst: impl Into<NodeId>, time: Time) -> Self {
        Event { src: src.into(), dst: dst.into(), time, duration: 0 }
    }

    /// Creates an event with an explicit duration (Section 4.2 of the paper).
    #[inline]
    pub fn with_duration(
        src: impl Into<NodeId>,
        dst: impl Into<NodeId>,
        time: Time,
        duration: u32,
    ) -> Self {
        Event { src: src.into(), dst: dst.into(), time, duration }
    }

    /// The static projection of this event.
    #[inline]
    pub fn edge(&self) -> Edge {
        Edge { src: self.src, dst: self.dst }
    }

    /// End time: `time + duration`.
    #[inline]
    pub fn end_time(&self) -> Time {
        self.time + self.duration as Time
    }

    /// True if `node` participates in this event (as source or target).
    #[inline]
    pub fn touches(&self, node: NodeId) -> bool {
        self.src == node || self.dst == node
    }

    /// True if the two events share at least one node.
    #[inline]
    pub fn shares_node_with(&self, other: &Event) -> bool {
        self.touches(other.src) || self.touches(other.dst)
    }

    /// True if this is a self-loop (`u == v`). Self-loops are rejected by
    /// the graph builder because no motif model in the paper admits them.
    #[inline]
    pub fn is_self_loop(&self) -> bool {
        self.src == self.dst
    }
}

impl PartialOrd for Event {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.src, self.dst, self.duration).cmp(&(
            other.time,
            other.src,
            other.dst,
            other.duration,
        ))
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.duration == 0 {
            write!(f, "({}, {}, {})", self.src, self.dst, self.time)
        } else {
            write!(f, "({}, {}, {}, {})", self.src, self.dst, self.time, self.duration)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_accessors() {
        let e = Event::new(1u32, 2u32, 100);
        assert_eq!(e.edge(), Edge::new(1u32, 2u32));
        assert_eq!(e.end_time(), 100);
        assert!(e.touches(NodeId(1)));
        assert!(e.touches(NodeId(2)));
        assert!(!e.touches(NodeId(3)));
        assert!(!e.is_self_loop());
        assert!(Event::new(4u32, 4u32, 0).is_self_loop());
    }

    #[test]
    fn event_with_duration_end_time() {
        let e = Event::with_duration(1u32, 2u32, 100, 30);
        assert_eq!(e.end_time(), 130);
        assert_eq!(e.to_string(), "(1, 2, 100, 30)");
    }

    #[test]
    fn events_order_by_time_then_nodes() {
        let a = Event::new(5u32, 6u32, 10);
        let b = Event::new(1u32, 2u32, 11);
        let c = Event::new(0u32, 9u32, 10);
        let mut v = vec![a, b, c];
        v.sort();
        assert_eq!(v, vec![c, a, b]);
    }

    #[test]
    fn shares_node() {
        let a = Event::new(1u32, 2u32, 0);
        let b = Event::new(2u32, 3u32, 1);
        let c = Event::new(4u32, 5u32, 2);
        assert!(a.shares_node_with(&b));
        assert!(!a.shares_node_with(&c));
    }

    #[test]
    fn display_instantaneous() {
        assert_eq!(Event::new(3u32, 7u32, 42).to_string(), "(3, 7, 42)");
    }

    /// Pins the `#[repr(C)]` layout so the in-memory struct, the packed
    /// 20-byte wire record, and the SoA column builder cannot drift
    /// apart silently: any field added, widened, or reordered trips at
    /// least one of these assertions.
    #[test]
    fn repr_c_layout_is_pinned() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(size_of::<Event>(), 24, "src+dst+time+duration plus 4B tail padding");
        assert_eq!(align_of::<Event>(), 8, "aligned to the i64 time field");
        assert_eq!(offset_of!(Event, src), 0);
        assert_eq!(offset_of!(Event, dst), 4);
        assert_eq!(offset_of!(Event, time), 8);
        assert_eq!(offset_of!(Event, duration), 16);
        // The wire record packs the same four fields with no padding:
        // the struct's payload (24 - 4 tail bytes) is exactly one record.
        assert_eq!(crate::wire::EVENT_RECORD_BYTES, 4 + 4 + 8 + 4);
        assert_eq!(size_of::<Event>() - 4, crate::wire::EVENT_RECORD_BYTES);
    }
}
