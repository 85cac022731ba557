//! Structure-of-arrays view of the event log.
//!
//! Many loops in the counting engines ask "what is the time of event
//! *i*?" (window binary searches, shard pad/halo planning). Answering
//! through `&[Event]` drags the full 24-byte struct through the cache
//! for every 8-byte answer. [`EventColumns`] stores the start times as
//! one dense `Vec<Time>` column, so a timestamp probe touches 3× fewer
//! cache lines and the compiler is free to vectorize linear scans.
//!
//! The columns are built lazily, at most once per
//! [`TemporalGraph`](crate::TemporalGraph) (`crate::TemporalGraph::columns`
//! goes through a `OnceLock`), and row `i` of the column describes
//! `graph.event(i)` — the same indices the node/edge/window indexes
//! hand out, so the two views compose without translation. An append
//! drops them ([`crate::TemporalGraph::append`]), so the stream DPs,
//! which a served graph runs after every append, read the event log
//! instead and never build them.

use crate::event::Event;
use crate::ids::Time;

/// Dense columnar copy of an event list's start times, row `i`
/// mirroring `events[i]`.
///
/// `times` is sorted ascending whenever the source list was (the
/// [`crate::TemporalGraph`] invariant), so `times.partition_point` is
/// the window probe primitive; see [`EventColumns::first_at_or_after`].
#[derive(Debug, Clone, Default)]
pub struct EventColumns {
    times: Vec<Time>,
}

impl EventColumns {
    /// Copies an event list's times into a column. `O(m)` time and
    /// space.
    pub fn build(events: &[Event]) -> Self {
        EventColumns { times: events.iter().map(|e| e.time).collect() }
    }

    /// Number of events (rows).
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if the log is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Start times, ascending; `times()[i] == graph.event(i).time`.
    #[inline]
    pub fn times(&self) -> &[Time] {
        &self.times
    }

    /// Index of the first event with `time >= t` (binary search over
    /// the dense time column).
    #[inline]
    pub fn first_at_or_after(&self, t: Time) -> usize {
        self.times.partition_point(|&x| x < t)
    }

    /// Half-open index range of events with `t0 <= time <= t1`.
    #[inline]
    pub fn window_range(&self, t0: Time, t1: Time) -> std::ops::Range<usize> {
        let lo = self.times.partition_point(|&x| x < t0);
        let hi = lo + self.times[lo..].partition_point(|&x| x <= t1);
        lo..hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Event> {
        vec![
            Event::new(0u32, 1u32, 3),
            Event::new(1u32, 2u32, 7),
            Event::with_duration(1u32, 3u32, 8, 5),
            Event::new(2u32, 0u32, 9),
            Event::new(0u32, 2u32, 11),
            Event::new(2u32, 3u32, 15),
        ]
    }

    #[test]
    fn columns_mirror_rows() {
        let events = sample();
        let cols = EventColumns::build(&events);
        assert_eq!(cols.len(), events.len());
        assert!(!cols.is_empty());
        for (i, e) in events.iter().enumerate() {
            assert_eq!(cols.times()[i], e.time);
        }
    }

    #[test]
    fn window_probes_match_struct_scans() {
        let events = sample();
        let cols = EventColumns::build(&events);
        assert_eq!(cols.first_at_or_after(0), 0);
        assert_eq!(cols.first_at_or_after(7), 1);
        assert_eq!(cols.first_at_or_after(10), 4);
        assert_eq!(cols.first_at_or_after(100), 6);
        assert_eq!(cols.window_range(7, 9), 1..4);
        assert_eq!(cols.window_range(i64::MIN, i64::MAX), 0..6);
        assert_eq!(cols.window_range(4, 5), 1..1);
    }

    #[test]
    fn empty_log() {
        let cols = EventColumns::build(&[]);
        assert!(cols.is_empty());
        assert_eq!(cols.window_range(0, 10), 0..0);
    }
}
