//! Structure-of-arrays view of the event log.
//!
//! Every hot loop in the counting engines ultimately asks one of two
//! questions about events: "what is the time of event *i*?" (window
//! binary searches, group scans, shard pad/halo planning) or "which
//! endpoint of event *i* is not the center?" (star sweeps). Answering
//! them through `&[Event]` drags the full 24-byte struct through the
//! cache for every 8-byte (or 4-byte) answer. [`EventColumns`] stores
//! the same log as four dense columns — `times: Vec<Time>`,
//! `srcs`/`dsts: Vec<u32>`, `durations: Vec<u32>` — so a timestamp
//! probe touches 3× fewer cache lines and the compiler is free to
//! vectorize linear scans.
//!
//! The columns are built lazily, exactly once per
//! [`TemporalGraph`](crate::TemporalGraph) (`crate::TemporalGraph::columns`
//! goes through a `OnceLock`), and row `i` of every column describes
//! `graph.event(i)` — the same indices the node/edge/window indexes
//! hand out, so the two views compose without translation.

use crate::event::Event;
use crate::ids::Time;

/// Dense columnar copy of an event list: one `Vec` per field, row `i`
/// mirroring `events[i]`.
///
/// `times` is sorted ascending whenever the source list was (the
/// [`crate::TemporalGraph`] invariant), so `times.partition_point` is
/// the window probe primitive; see [`EventColumns::first_at_or_after`].
#[derive(Debug, Clone, Default)]
pub struct EventColumns {
    times: Vec<Time>,
    srcs: Vec<u32>,
    dsts: Vec<u32>,
    durations: Vec<u32>,
    has_time_ties: bool,
}

impl EventColumns {
    /// Transposes an event list into columns. `O(m)` time and space.
    pub fn build(events: &[Event]) -> Self {
        let mut cols = EventColumns {
            times: Vec::with_capacity(events.len()),
            srcs: Vec::with_capacity(events.len()),
            dsts: Vec::with_capacity(events.len()),
            durations: Vec::with_capacity(events.len()),
            has_time_ties: false,
        };
        for e in events {
            cols.times.push(e.time);
            cols.srcs.push(e.src.0);
            cols.dsts.push(e.dst.0);
            cols.durations.push(e.duration);
        }
        cols.has_time_ties = cols.times.windows(2).any(|w| w[0] == w[1]);
        cols
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

    /// Source node ids; `srcs()[i] == graph.event(i).src.0`.
    #[inline]
    pub fn srcs(&self) -> &[u32] {
        &self.srcs
    }

    /// Target node ids; `dsts()[i] == graph.event(i).dst.0`.
    #[inline]
    pub fn dsts(&self) -> &[u32] {
        &self.dsts
    }

    /// Durations; `durations()[i] == graph.event(i).duration`.
    #[inline]
    pub fn durations(&self) -> &[u32] {
        &self.durations
    }

    /// True when at least two events share a timestamp. Tie-free logs
    /// (the common case for real corpora) let the stream DPs skip
    /// timestamp-group bookkeeping entirely; the flag is one adjacency
    /// scan at build time because `times` is sorted.
    #[inline]
    pub fn has_time_ties(&self) -> bool {
        self.has_time_ties
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
            assert_eq!(cols.srcs()[i], e.src.0);
            assert_eq!(cols.dsts()[i], e.dst.0);
            assert_eq!(cols.durations()[i], e.duration);
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
        assert!(!cols.has_time_ties());
    }

    #[test]
    fn time_tie_detection() {
        assert!(!EventColumns::build(&sample()).has_time_ties());
        let tied =
            vec![Event::new(0u32, 1u32, 3), Event::new(1u32, 2u32, 7), Event::new(2u32, 0u32, 7)];
        assert!(EventColumns::build(&tied).has_time_ties());
    }
}
