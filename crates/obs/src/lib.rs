//! # tnm-obs — zero-overhead-when-off instrumentation runtime
//!
//! A dependency-free observability layer shared by every crate in the
//! workspace: named atomic **counters**, peak-tracking **gauges**, and
//! log-bucketed **histograms** in a [`Registry`] ([`registry`]), plus
//! hierarchical timed **spans** collected per thread and exportable as
//! Chrome-trace JSON ([`span`](mod@span), the [`span!`] macro).
//!
//! Everything hot is gated behind one process-global flag read with a
//! relaxed atomic load ([`enabled`]); when the flag is off the
//! fast-path cost of an instrumentation site is a single branch. The
//! `obs_overhead` bench group in `tnm-bench` pins that claim.
//!
//! Two usage tiers:
//!
//! * **Global, gated** — free functions ([`counter_add`], [`gauge_set`],
//!   [`histogram_record_ns`], [`span!`]) record into the process-wide
//!   [`global`] registry *only when [`enabled`] is on*. Engine internals
//!   use these (or capture the flag once and flush local tallies).
//! * **Instance, ungated** — a [`Registry`] owned by a component (the
//!   `tnm serve` daemon keeps one per server) records unconditionally;
//!   its call sites are per-request, not per-event, so the flag is not
//!   consulted.
//!
//! ```
//! let _guard = tnm_obs::test_guard();
//! tnm_obs::set_enabled(true);
//! tnm_obs::drain_spans();
//! {
//!     let _outer = tnm_obs::span!("walk.shard", shard = 3);
//!     tnm_obs::counter_add("engine.instances_emitted", 7);
//! }
//! let spans = tnm_obs::drain_spans();
//! assert_eq!(spans[0].name, "walk.shard");
//! tnm_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod registry;
pub mod span;
pub mod timeseries;

pub use registry::{
    bucket_index, bucket_upper_bound, Counter, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot,
    Registry, Snapshot, HISTOGRAM_BUCKETS,
};
pub use span::{
    chrome_trace, current_trace, drain_spans, inject_spans, now_ns, record_span, set_trace,
    take_trace_spans, Span, SpanRecord, TraceCtx,
};
pub use timeseries::{TimePoint, TimeSeries};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether instrumentation is collecting. One relaxed load — this is
/// the whole cost of a disabled instrumentation site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry backing the gated free functions.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Adds `n` to the global counter `name` (no-op while disabled).
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if enabled() {
        global().counter(name).add(n);
    }
}

/// Sets the global gauge `name` (tracking its peak; no-op while
/// disabled).
#[inline]
pub fn gauge_set(name: &str, value: u64) {
    if enabled() {
        global().gauge(name).set(value);
    }
}

/// Adds `n` to the global gauge `name` (no-op while disabled).
#[inline]
pub fn gauge_add(name: &str, n: u64) {
    if enabled() {
        global().gauge(name).add(n);
    }
}

/// Subtracts `n` from the global gauge `name` (no-op while disabled).
#[inline]
pub fn gauge_sub(name: &str, n: u64) {
    if enabled() {
        global().gauge(name).sub(n);
    }
}

/// Records a nanosecond observation into the global histogram `name`
/// (no-op while disabled).
#[inline]
pub fn histogram_record_ns(name: &str, ns: u64) {
    if enabled() {
        global().histogram(name).record(ns);
    }
}

/// Serializes tests that mutate global obs state (the enabled flag,
/// the global registry, the span collector). Tests across the
/// workspace take this guard so `cargo test`'s in-process parallelism
/// cannot interleave their observations.
#[doc(hidden)]
pub fn test_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_free_functions_do_not_record() {
        let _guard = test_guard();
        set_enabled(false);
        global().reset();
        counter_add("t.counter", 5);
        gauge_set("t.gauge", 5);
        histogram_record_ns("t.hist", 5);
        let snap = global().snapshot();
        assert_eq!(snap.counters.get("t.counter"), None);
        assert_eq!(snap.gauges.get("t.gauge"), None);
        assert_eq!(snap.histograms.get("t.hist"), None);
    }

    #[test]
    fn enabled_free_functions_reach_the_global_registry() {
        let _guard = test_guard();
        set_enabled(true);
        global().reset();
        counter_add("t.counter", 5);
        counter_add("t.counter", 2);
        gauge_add("t.gauge", 9);
        gauge_sub("t.gauge", 4);
        histogram_record_ns("t.hist", 1024);
        let snap = global().snapshot();
        set_enabled(false);
        assert_eq!(snap.counters["t.counter"], 7);
        assert_eq!(snap.gauges["t.gauge"].value, 5);
        assert_eq!(snap.gauges["t.gauge"].peak, 9);
        assert_eq!(snap.histograms["t.hist"].count, 1);
        assert_eq!(snap.histograms["t.hist"].sum, 1024);
    }
}
