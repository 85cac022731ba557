//! Hierarchical timed spans with Chrome-trace export.
//!
//! A [`Span`] is an RAII guard: [`Span::start`] (usually via the
//! [`span!`](crate::span!) macro) stamps a start time and the calling
//! thread's current nesting depth; dropping it records a completed
//! [`SpanRecord`] into the process-wide collector, provided someone
//! still collects it. While neither [`enabled`](crate::enabled) is on
//! nor the calling thread has a trace installed, `Span::start` returns
//! an inert guard after one branch — no clock read, no allocation.
//!
//! Two kinds of record share the collector and never mix:
//!
//! * **Untraced** (`trace_id == 0`) — recorded while `enabled()` is on,
//!   taken by [`drain_spans`] (the CLI's `--trace FILE`).
//! * **Traced** — recorded while the thread has a request trace
//!   installed ([`set_trace`]), taken by [`take_trace_spans`] with the
//!   trace's id. The active trace is per thread: work a request hands
//!   to another thread or process carries [`current_trace`] there and
//!   installs it, so spans of unrelated work on other threads never
//!   join the request's tree.
//!
//! Spans are meant for *coarse* phases (plan/spill/spawn/walk/merge,
//! one per shard or query) — per-event costs belong in counters. The
//! collector is therefore a single mutex-guarded vector; records land
//! in completion order, and nesting is recoverable from
//! `(tid, start_ns, dur_ns, depth)`.
//!
//! [`chrome_trace`] renders records as Chrome-trace JSON (the
//! `chrome://tracing` / Perfetto `traceEvents` format) — the payload
//! behind the CLI's `--trace FILE` flag.

use std::cell::Cell;
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A completed span observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, dot-separated by convention (`"distributed.spill"`).
    pub name: String,
    /// Key/value annotations, in declaration order.
    pub args: Vec<(String, String)>,
    /// Start offset in nanoseconds from the process obs epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small dense per-thread id (assigned on each thread's first span).
    pub tid: u64,
    /// Nesting depth on its thread at start time (0 = top level).
    pub depth: u32,
    /// Trace this span belongs to (0 = no request-scoped trace).
    pub trace_id: u64,
    /// Process-unique span id (never 0 for a recorded span).
    pub span_id: u64,
    /// `span_id` of the enclosing span (0 = root of its trace/thread).
    pub parent_id: u64,
}

/// Request-scoped trace identity: a trace id plus the span the next
/// recorded root should attach under. Installed per thread
/// ([`set_trace`]); flows from the `tnm serve` connection thread into
/// the walker threads and distributed worker processes (as a field of
/// the job frame) that work for the request, so one served query
/// stitches into a single cross-process span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Nonzero trace identifier shared by every span of the request.
    pub trace_id: u64,
    /// Span id new thread-root spans attach under (0 = none).
    pub parent_span: u64,
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

impl TraceCtx {
    /// Mints a fresh trace context (nonzero id, no parent yet). Ids mix
    /// a process counter with the obs clock so traces from different
    /// processes are unlikely to collide.
    pub fn new() -> TraceCtx {
        let seq = NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed);
        let mut id = (seq << 20) ^ now_ns() ^ (std::process::id() as u64).rotate_left(40);
        if id == 0 {
            id = 1;
        }
        TraceCtx { trace_id: id, parent_span: 0 }
    }
}

impl Default for TraceCtx {
    fn default() -> Self {
        TraceCtx::new()
    }
}

/// The untraced context a thread starts with (trace id 0 = none).
const UNTRACED: TraceCtx = TraceCtx { trace_id: 0, parent_span: 0 };

thread_local! {
    // The calling thread's active trace (trace id 0 = none). Work a
    // request starts on other threads carries it there explicitly
    // (captured with [`current_trace`], installed with [`set_trace`]),
    // so a thread that is not part of the request never joins it.
    static TRACE: Cell<TraceCtx> = const { Cell::new(UNTRACED) };
}

/// Installs (or clears, with `None`) the calling thread's active
/// trace. Spans this thread opens while it is installed record under
/// its id; a thread-root span attaches under `ctx.parent_span`.
pub fn set_trace(ctx: Option<TraceCtx>) {
    TRACE.with(|t| t.set(ctx.unwrap_or(UNTRACED)));
}

/// The calling thread's active trace, if any, with this thread's
/// innermost open span as the attach point — the context to hand to a
/// thread or process that works for the same request.
pub fn current_trace() -> Option<TraceCtx> {
    let trace_id = trace_id();
    (trace_id != 0).then(|| TraceCtx { trace_id, parent_span: inherited_parent() })
}

/// The calling thread's active trace id (0 = none).
#[inline]
fn trace_id() -> u64 {
    TRACE.with(|t| t.get().trace_id)
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process obs epoch (first observation).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static CURRENT_PARENT: Cell<u64> = const { Cell::new(0) };
}

fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// The parent a new span on this thread attaches under: the innermost
/// open span, else the installed trace's attach point (so a worker
/// thread's root span joins the request tree).
fn inherited_parent() -> u64 {
    let local = CURRENT_PARENT.with(|p| p.get());
    if local != 0 {
        local
    } else {
        TRACE.with(|t| t.get().parent_span)
    }
}

fn thread_id() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

fn collector() -> &'static Mutex<Vec<SpanRecord>> {
    static SPANS: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

fn push(record: SpanRecord) {
    collector().lock().unwrap_or_else(|p| p.into_inner()).push(record);
}

/// Takes every untraced span (`trace_id == 0`, recorded while
/// [`enabled`](crate::enabled) is on) recorded so far, in completion
/// order. Traced spans stay for [`take_trace_spans`].
pub fn drain_spans() -> Vec<SpanRecord> {
    take_trace_spans(0)
}

/// Removes and returns exactly the spans belonging to `trace_id`, in
/// completion order, leaving every other record (untraced
/// instrumentation, concurrent traces) in the collector.
pub fn take_trace_spans(trace_id: u64) -> Vec<SpanRecord> {
    let mut guard = collector().lock().unwrap_or_else(|p| p.into_inner());
    let (taken, kept) =
        std::mem::take(&mut *guard).into_iter().partition(|s| s.trace_id == trace_id);
    *guard = kept;
    taken
}

/// Appends externally captured spans (a worker's shipped trace) to the
/// collector, re-minting their ids in this process's id space: span ids
/// found *within* `spans` get fresh ids (and internal parent links
/// follow), parents pointing outside the set are rewired to
/// `attach_parent`, thread ids are re-minted per distinct incoming tid,
/// and every start is shifted by `offset_ns` (the coordinator-clock
/// time the remote capture began).
pub fn inject_spans(spans: Vec<SpanRecord>, attach_parent: u64, offset_ns: u64) {
    use std::collections::HashMap;
    let mut id_map: HashMap<u64, u64> = HashMap::with_capacity(spans.len());
    for s in &spans {
        id_map.entry(s.span_id).or_insert_with(next_span_id);
    }
    let mut tid_map: HashMap<u64, u64> = HashMap::new();
    let mut guard = collector().lock().unwrap_or_else(|p| p.into_inner());
    for mut s in spans {
        s.span_id = id_map[&s.span_id];
        s.parent_id = match id_map.get(&s.parent_id) {
            Some(&mapped) if s.parent_id != 0 => mapped,
            _ => attach_parent,
        };
        s.tid = *tid_map.entry(s.tid).or_insert_with(|| NEXT_TID.fetch_add(1, Ordering::Relaxed));
        s.start_ns = s.start_ns.saturating_add(offset_ns);
        guard.push(s);
    }
}

/// Records a span that was measured externally (e.g. a worker-reported
/// wall time the coordinator re-emits): it ends now and lasted
/// `dur_ns`. No-op while disabled and this thread has no trace.
pub fn record_span(name: &str, dur_ns: u64, args: &[(&str, String)]) {
    let trace_id = trace_id();
    if trace_id == 0 && !crate::enabled() {
        return;
    }
    let end = now_ns();
    push(SpanRecord {
        name: name.to_string(),
        args: args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        start_ns: end.saturating_sub(dur_ns),
        dur_ns,
        tid: thread_id(),
        depth: DEPTH.with(|d| d.get()),
        trace_id,
        span_id: next_span_id(),
        parent_id: inherited_parent(),
    });
}

/// An RAII span guard; see the [module docs](self).
#[must_use = "a span measures until dropped — bind it with `let _span = …`"]
pub struct Span {
    inner: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    args: Vec<(String, String)>,
    start_ns: u64,
    depth: u32,
    span_id: u64,
    parent_id: u64,
    prev_parent: u64,
    trace_id: u64,
}

impl Span {
    /// Starts a span (inert when disabled and untraced — one
    /// thread-local read and one relaxed load, nothing else).
    pub fn start(name: &'static str) -> Span {
        // One read: the span's trace is the one that made it active.
        let trace = TRACE.with(Cell::get);
        if trace.trace_id == 0 && !crate::enabled() {
            return Span { inner: None };
        }
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        let span_id = next_span_id();
        let prev_parent = CURRENT_PARENT.with(|p| {
            let prev = p.get();
            p.set(span_id);
            prev
        });
        let parent_id = if prev_parent != 0 { prev_parent } else { trace.parent_span };
        Span {
            inner: Some(ActiveSpan {
                name,
                args: Vec::new(),
                start_ns: now_ns(),
                depth,
                span_id,
                parent_id,
                prev_parent,
                trace_id: trace.trace_id,
            }),
        }
    }

    /// Attaches a key/value annotation (formatted only when live).
    pub fn arg(mut self, key: &str, value: impl Display) -> Span {
        if let Some(active) = &mut self.inner {
            active.args.push((key.to_string(), value.to_string()));
        }
        self
    }

    /// This span's process-unique id (0 when the guard is inert), for
    /// threading into a [`TraceCtx`] so downstream work attaches here.
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |a| a.span_id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.inner.take() {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            // Restore the enclosing *local* span as the thread's parent
            // (the recorded parent_id may instead be the trace attach
            // point when this span was a thread root).
            CURRENT_PARENT.with(|p| p.set(active.prev_parent));
            // Record the span only if someone still collects it: a
            // traced span while its trace is still installed on this
            // thread (its owner clears the trace before taking its
            // spans, so one that outlives the trace would sit in the
            // collector for good), an untraced one while
            // instrumentation is on.
            let collected = match active.trace_id {
                0 => crate::enabled(),
                id => trace_id() == id,
            };
            if collected {
                push(SpanRecord {
                    name: active.name.to_string(),
                    args: active.args,
                    start_ns: active.start_ns,
                    dur_ns: now_ns().saturating_sub(active.start_ns),
                    tid: thread_id(),
                    depth: active.depth,
                    trace_id: active.trace_id,
                    span_id: active.span_id,
                    parent_id: active.parent_id,
                });
            }
        }
    }
}

/// Starts a [`Span`] guard: `span!("walk.shard")` or
/// `span!("walk.shard", shard = 3, events = n)`. Bind the result —
/// the span measures until the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::Span::start($name)
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        $crate::span::Span::start($name)$(.arg(stringify!($key), &$val))+
    };
}

pub(crate) fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Renders records as Chrome-trace JSON: complete (`"ph":"X"`) events
/// with microsecond timestamps, one `tid` per recording thread, span
/// args under `"args"`. Load the output in `chrome://tracing` or
/// Perfetto.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(&s.name, &mut out);
        out.push_str("\",\"cat\":\"tnm\",\"ph\":\"X\"");
        out.push_str(&format!(
            ",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{}",
            s.start_ns / 1000,
            s.start_ns % 1000,
            s.dur_ns / 1000,
            s.dur_ns % 1000,
            s.tid
        ));
        out.push_str(",\"args\":{");
        for (k, v) in &s.args {
            out.push('"');
            escape_json(k, &mut out);
            out.push_str("\":\"");
            escape_json(v, &mut out);
            out.push_str("\",");
        }
        if s.trace_id != 0 {
            out.push_str(&format!(
                "\"trace\":\"{:016x}\",\"span\":\"{}\",\"parent\":\"{}\",",
                s.trace_id, s.span_id, s.parent_id
            ));
        }
        out.push_str(&format!("\"depth\":\"{}\"}}}}", s.depth));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_enabled, test_guard};

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = test_guard();
        set_enabled(false);
        drain_spans();
        {
            let _s = crate::span!("quiet", k = 1);
        }
        assert!(drain_spans().is_empty());
    }

    /// A span that ends after its trace is cleared has no owner left and
    /// is not recorded; one that ends inside its trace is.
    #[test]
    fn spans_that_outlive_their_trace_are_dropped() {
        let ctx = TraceCtx::new();
        set_trace(Some(ctx));
        let outliving = crate::span!("outliving");
        {
            let _inside = crate::span!("inside");
        }
        set_trace(None);
        drop(outliving);
        let taken = take_trace_spans(ctx.trace_id);
        assert_eq!(
            taken.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["inside"],
            "the orphan never reaches the collector"
        );
    }

    #[test]
    fn nested_spans_carry_depth_and_contain_children() {
        let _guard = test_guard();
        set_enabled(true);
        drain_spans();
        {
            let _outer = crate::span!("outer", job = 7);
            {
                let _inner = crate::span!("inner");
            }
        }
        let spans = drain_spans();
        set_enabled(false);
        assert_eq!(spans.len(), 2);
        let inner = &spans[0]; // completion order: inner drops first
        let outer = &spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert_eq!(outer.args, vec![("job".to_string(), "7".to_string())]);
    }

    #[test]
    fn sibling_threads_get_distinct_tids() {
        let _guard = test_guard();
        set_enabled(true);
        drain_spans();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let _s = crate::span!("worker", idx = i);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let spans = drain_spans();
        set_enabled(false);
        assert_eq!(spans.len(), 4);
        let mut tids: Vec<_> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4, "each thread has its own tid");
    }

    #[test]
    fn synthetic_spans_end_now() {
        let _guard = test_guard();
        set_enabled(true);
        drain_spans();
        record_span("distributed.walk", 1_000_000, &[("shard", "3".to_string())]);
        let spans = drain_spans();
        set_enabled(false);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].dur_ns, 1_000_000);
        assert_eq!(spans[0].args[0], ("shard".to_string(), "3".to_string()));
        assert!(spans[0].start_ns <= now_ns(), "start is clamped to the epoch");
    }

    #[test]
    fn chrome_trace_renders_valid_structure() {
        let spans = vec![SpanRecord {
            name: "a\"b\\c".to_string(),
            args: vec![("k".to_string(), "v\n1".to_string())],
            start_ns: 1_234_567,
            dur_ns: 89_001,
            tid: 2,
            depth: 0,
            trace_id: 0,
            span_id: 1,
            parent_id: 0,
        }];
        let json = chrome_trace(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"a\\\"b\\\\c\""), "{json}");
        assert!(json.contains("\"ts\":1234.567"), "{json}");
        assert!(json.contains("\"dur\":89.001"), "{json}");
        assert!(json.contains("\"k\":\"v\\n1\""), "{json}");
        // Balanced braces/brackets outside strings — cheap well-formedness
        // proxy exercised properly by the CI python json.load step.
        assert_eq!(chrome_trace(&[]), "{\"traceEvents\":[]}");
    }

    /// An installed trace collects spans whatever the metrics switch
    /// says, and records their nesting by id.
    #[test]
    fn spans_nest_by_id_and_carry_the_trace() {
        let ctx = TraceCtx::new();
        set_trace(Some(ctx));
        {
            let _outer = crate::span!("outer");
            {
                let _inner = crate::span!("inner");
            }
        }
        set_trace(None);
        let spans = take_trace_spans(ctx.trace_id);
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(outer.trace_id, ctx.trace_id);
        assert_eq!(inner.trace_id, ctx.trace_id);
        assert_ne!(outer.span_id, 0);
        assert_eq!(inner.parent_id, outer.span_id, "nesting is recorded by id");
        assert_eq!(outer.parent_id, 0, "no attach point: outer is a root");
    }

    /// The trace is the calling thread's: another thread has none until
    /// it installs the context [`current_trace`] captured, and then its
    /// root span attaches under the capturing thread's innermost open
    /// span. With no span open, the attach point is the installed one.
    #[test]
    fn thread_roots_attach_under_the_trace_parent() {
        let mut ctx = TraceCtx::new();
        ctx.parent_span = 77;
        set_trace(Some(ctx));
        assert_eq!(current_trace(), Some(ctx));
        let outer = crate::span!("outer");
        let captured = current_trace();
        assert_eq!(captured, Some(TraceCtx { trace_id: ctx.trace_id, parent_span: outer.id() }));
        std::thread::scope(|scope| {
            scope.spawn(|| assert_eq!(current_trace(), None, "threads start untraced"));
            scope.spawn(|| {
                set_trace(captured);
                let _s = crate::span!("worker.root");
            });
        });
        drop(outer);
        set_trace(None);
        let spans = take_trace_spans(ctx.trace_id);
        let named = |name: &str| spans.iter().find(|s| s.name == name).expect(name);
        assert_eq!(spans.len(), 2);
        assert_eq!(named("outer").parent_id, 77, "the root attaches at the installed point");
        assert_eq!(
            named("worker.root").parent_id,
            named("outer").span_id,
            "thread roots join the request tree"
        );
        assert_eq!(current_trace(), None);
    }

    /// A traced span recorded while metrics are on goes to its trace
    /// only: [`drain_spans`] never takes it, and takes the untraced
    /// spans in its place.
    #[test]
    fn traced_spans_never_reach_drain_spans() {
        let _guard = test_guard();
        set_enabled(true);
        drain_spans();
        let ctx = TraceCtx::new();
        set_trace(Some(ctx));
        {
            let _traced = crate::span!("traced");
        }
        set_trace(None);
        {
            let _plain = crate::span!("plain");
        }
        let drained = drain_spans();
        set_enabled(false);
        assert_eq!(drained.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(), ["plain"]);
        let traced = take_trace_spans(ctx.trace_id);
        assert_eq!(traced.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(), ["traced"]);
    }

    #[test]
    fn take_trace_spans_leaves_other_records() {
        let _guard = test_guard();
        set_enabled(true);
        drain_spans();
        {
            let _plain = crate::span!("plain");
        }
        let ctx = TraceCtx::new();
        set_trace(Some(ctx));
        {
            let _traced = crate::span!("traced");
        }
        set_trace(None);
        let traced = take_trace_spans(ctx.trace_id);
        let rest = drain_spans();
        set_enabled(false);
        assert_eq!(traced.len(), 1);
        assert_eq!(traced[0].name, "traced");
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].name, "plain");
        assert_eq!(rest[0].trace_id, 0);
    }

    #[test]
    fn inject_spans_remints_ids_and_rebases_time() {
        // Burn local ids so the re-minted ids cannot collide with the
        // shipped fragment's dense 1-based ids.
        let warmup = TraceCtx::new();
        set_trace(Some(warmup));
        for _ in 0..4 {
            let _s = crate::span!("local.warmup");
        }
        set_trace(None);
        take_trace_spans(warmup.trace_id);
        // A "worker-shipped" fragment: dense local ids, zero-based time.
        let trace_id = TraceCtx::new().trace_id;
        let shipped = vec![
            SpanRecord {
                name: "walk.shard0".to_string(),
                args: vec![],
                start_ns: 0,
                dur_ns: 50,
                tid: 1,
                depth: 0,
                trace_id,
                span_id: 1,
                parent_id: 0,
            },
            SpanRecord {
                name: "walk.inner".to_string(),
                args: vec![],
                start_ns: 10,
                dur_ns: 20,
                tid: 1,
                depth: 1,
                trace_id,
                span_id: 2,
                parent_id: 1,
            },
        ];
        inject_spans(shipped, 42, 1_000);
        let spans = take_trace_spans(trace_id);
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "walk.shard0").unwrap();
        let inner = spans.iter().find(|s| s.name == "walk.inner").unwrap();
        assert_eq!(root.parent_id, 42, "external parents rewire to the attach point");
        assert_eq!(inner.parent_id, root.span_id, "internal links follow the remap");
        assert_ne!(root.span_id, 1, "ids are re-minted in this process");
        assert_eq!(root.start_ns, 1_000);
        assert_eq!(inner.start_ns, 1_010);
        assert_eq!(root.tid, inner.tid, "one incoming tid stays one lane");
    }

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let a = TraceCtx::new();
        let b = TraceCtx::new();
        assert_ne!(a.trace_id, 0);
        assert_ne!(b.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
    }
}
