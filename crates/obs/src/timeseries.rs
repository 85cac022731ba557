//! Windowed metric time series: a fixed-capacity ring of periodic
//! [`Snapshot`] deltas.
//!
//! The registry is cumulative — perfect for Prometheus scrapes, useless
//! for "what is the QPS *right now*". [`TimeSeries::record`] takes a
//! fresh snapshot plus a wall-clock stamp, diffs it against the
//! previous sample ([`Snapshot::delta`]), and keeps the last `cap`
//! windows: counters become per-window flows (rates after dividing by
//! the interval), gauges stay levels, histograms carry only the
//! window's observations (so [`HistogramSnapshot::percentile`] yields
//! p50/p99 *over the window*).
//!
//! The ring leaves the process two ways. [`TimeSeries::to_json`]
//! renders it for the serve HTTP `/timeseries` endpoint, the external
//! scrape surface. The serve wire protocol ships the [`TimePoint`]s
//! themselves in its binary encoding, and that is what `tnm top` polls;
//! nothing in the workspace reads the JSON back.

#[cfg(doc)]
use crate::registry::HistogramSnapshot;
use crate::registry::Snapshot;
use std::collections::VecDeque;

/// One sampled window: what happened between this sample and the
/// previous one, stamped with the sample time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimePoint {
    /// Sample wall-clock time, milliseconds since the Unix epoch.
    pub at_unix_ms: u64,
    /// Window length in milliseconds (time since the previous sample;
    /// 0 for the first sample, whose flows are since process start).
    pub interval_ms: u64,
    /// The window's metric deltas: counter flows, gauge levels,
    /// histogram window observations.
    pub delta: Snapshot,
}

/// A bounded ring of [`TimePoint`]s; see the [module docs](self).
#[derive(Debug)]
pub struct TimeSeries {
    cap: usize,
    last: Option<(u64, Snapshot)>,
    points: VecDeque<TimePoint>,
}

impl TimeSeries {
    /// An empty series retaining at most `cap` windows (min 1).
    pub fn new(cap: usize) -> TimeSeries {
        TimeSeries { cap: cap.max(1), last: None, points: VecDeque::new() }
    }

    /// Ingests a cumulative snapshot taken at `at_unix_ms`, storing the
    /// delta window against the previous sample and evicting the
    /// oldest window beyond capacity.
    pub fn record(&mut self, at_unix_ms: u64, snap: Snapshot) {
        let (interval_ms, delta) = match &self.last {
            Some((prev_ms, prev)) => (at_unix_ms.saturating_sub(*prev_ms), snap.delta(prev)),
            None => (0, snap.clone()),
        };
        self.last = Some((at_unix_ms, snap));
        if self.points.len() == self.cap {
            self.points.pop_front();
        }
        self.points.push_back(TimePoint { at_unix_ms, interval_ms, delta });
    }

    /// The retained windows, oldest first.
    pub fn points(&self) -> impl Iterator<Item = &TimePoint> {
        self.points.iter()
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Renders the ring as JSON:
    /// `{"points":[{"at_ms":…,"interval_ms":…,"counters":{…},
    /// "gauges":{"name":{"value":…,"peak":…}},
    /// "histograms":{"name":{"count":…,"sum":…,"buckets":[[i,n],…]}}},…]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"points\":[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"at_ms\":{},\"interval_ms\":{},\"counters\":{{",
                p.at_unix_ms, p.interval_ms
            ));
            push_entries(&mut out, p.delta.counters.iter(), |out, v| {
                out.push_str(&v.to_string());
            });
            out.push_str("},\"gauges\":{");
            push_entries(&mut out, p.delta.gauges.iter(), |out, g| {
                out.push_str(&format!("{{\"value\":{},\"peak\":{}}}", g.value, g.peak));
            });
            out.push_str("},\"histograms\":{");
            push_entries(&mut out, p.delta.histograms.iter(), |out, h| {
                out.push_str(&format!("{{\"count\":{},\"sum\":{},\"buckets\":[", h.count, h.sum));
                for (j, (b, n)) in h.buckets.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{b},{n}]"));
                }
                out.push_str("]}");
            });
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut render: impl FnMut(&mut String, &V),
) {
    for (i, (name, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        crate::span::escape_json(name, out);
        out.push_str("\":");
        render(out, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn ring_keeps_the_last_cap_windows_of_deltas() {
        let r = Registry::new();
        let mut ts = TimeSeries::new(2);
        r.counter("q").add(10);
        ts.record(1_000, r.snapshot());
        r.counter("q").add(5);
        r.gauge("level").set(3);
        ts.record(2_000, r.snapshot());
        r.counter("q").add(7);
        r.histogram("lat").record(100);
        ts.record(3_500, r.snapshot());
        assert_eq!(ts.len(), 2, "capacity 2 evicts the first window");
        let points: Vec<_> = ts.points().collect();
        assert_eq!(points[0].at_unix_ms, 2_000);
        assert_eq!(points[0].interval_ms, 1_000);
        assert_eq!(points[0].delta.counters["q"], 5);
        assert_eq!(points[1].interval_ms, 1_500);
        assert_eq!(points[1].delta.counters["q"], 7);
        assert_eq!(points[1].delta.gauges["level"].value, 3, "levels pass through");
        assert_eq!(points[1].delta.histograms["lat"].count, 1);
    }

    /// `to_json` of the ring built in `json_round_trips_exactly`, one
    /// point per line.
    const PINNED: &str = concat!(
        r#"{"points":[{"at_ms":1700000000123,"interval_ms":0,"counters":{"odd \"name\"\\\n\u0001":1,"serve.queries":3},"gauges":{"shard.resident_events":{"value":42,"peak":42}},"histograms":{"serve.query.report_ns":{"count":2,"sum":2001000,"buckets":[[10,1],[21,1]]}}},"#,
        r#"{"at_ms":1700000001123,"interval_ms":1000,"counters":{"serve.queries":9},"gauges":{"shard.resident_events":{"value":7,"peak":42}},"histograms":{"serve.query.report_ns":{"count":1,"sum":3,"buckets":[[2,1]]}}}]}"#,
    );

    /// `GET /timeseries` is the external scrape surface: every field of
    /// every point must reach it exactly, so its bytes are pinned for a
    /// ring holding every metric kind, a name that needs escaping, a
    /// first window (interval 0) and a second window.
    #[test]
    fn json_round_trips_exactly() {
        let r = Registry::new();
        let mut ts = TimeSeries::new(4);
        r.counter("serve.queries").add(3);
        r.counter("odd \"name\"\\\n\u{1}").incr();
        r.gauge("shard.resident_events").set(42);
        let h = r.histogram("serve.query.report_ns");
        h.record(1_000);
        h.record(2_000_000);
        ts.record(1_700_000_000_123, r.snapshot());
        r.counter("serve.queries").add(9);
        r.gauge("shard.resident_events").set(7);
        h.record(3);
        ts.record(1_700_000_001_123, r.snapshot());
        assert_eq!(ts.to_json(), PINNED);
    }

    /// An unsampled ring renders an empty point list, not an empty body.
    #[test]
    fn empty_series_round_trips() {
        let ts = TimeSeries::new(4);
        assert!(ts.is_empty());
        assert_eq!(ts.to_json(), "{\"points\":[]}");
    }
}
