//! `tnm serve`: a resident motif-counting service.
//!
//! The server is the jump from CLI to system: a long-running TCP daemon
//! holding a **registry of loaded graphs** as its resident working set,
//! answering framed [`Query`] requests (count / report / enumerate /
//! batch, any [`EngineKind`](crate::engine::EngineKind)) and keeping
//! subscription counts **live under event appends** via
//! [`IncrementalStream`] — O(new events) per append instead of a
//! recount. Protocol details live in [`protocol`] (same
//! [`tnm_graph::wire`] framing as the sharded engine's worker protocol,
//! disjoint kind space); the client half in [`client`].
//!
//! ## Resident working set
//!
//! Each registry entry holds its graph as one `Arc<TemporalGraph>`,
//! built when the graph is loaded. The graph keeps what it builds on
//! first use — its edge index, SoA columns and window index
//! ([`TemporalGraph::window_index`], which the walks and the stream
//! engine's triangle pass read) — so the second query against a loaded
//! graph pays no index build. An append takes the graph out of its `Arc` (copying it only
//! while a running query still holds it) and grows it with
//! [`TemporalGraph::append`]: the batch is spliced into the log's final
//! tie run and the node index is extended in place, so the next query
//! rebuilds nothing it does not read. The structures built on first use
//! are dropped by the append and rebuilt by their next reader; a 2-node
//! stream count reads none of them. Subscriptions are *not* invalidated,
//! which is the point: their counts advance incrementally from the ΔW
//! tail alone.
//!
//! ## Observability
//!
//! Each server owns a private [`tnm_obs::Registry`] recording
//! `serve.queries` / `serve.appends` counters, per-query-kind latency
//! histograms (`serve.query.{count,report,enumerate,batch}_ns`),
//! `serve.subscription_advance_ns`, and a `serve.connection_frames`
//! histogram observed as each connection closes. The full snapshot is
//! served over the wire as a Metrics response
//! ([`ServeClient::metrics`], `tnm client --metrics` renders it as
//! Prometheus text). Being per-request rather than per-event, these
//! records bypass the process-global [`tnm_obs::enabled`] gate.
//!
//! ## Operating `tnm serve`
//!
//! The daemon's operational surface, end to end:
//!
//! * **HTTP scrape endpoint** — [`ServeOptions::http_port`] binds a
//!   second, std-only HTTP/1.1 listener on the wire listener's
//!   interface (0 picks a free port; read it back with
//!   [`MotifServer::http_addr`]). `GET /metrics` serves the merged
//!   process + server registry snapshot as Prometheus text
//!   ([`tnm_obs::Snapshot::to_prometheus`]), `GET /healthz` answers
//!   `ok`, and `GET /timeseries` serves the retained sample ring as
//!   JSON. The listener never speaks the framed wire protocol, so a
//!   scraper can't corrupt a session and a wire peer can't reach the
//!   scrape surface.
//! * **Time series** — a background sampler folds the merged metrics
//!   snapshot into a [`tnm_obs::TimeSeries`] ring every
//!   [`ServeOptions::sample_interval_ms`] (default 1 s), retaining 120
//!   windows (≈ the last two minutes). Each retained
//!   [`tnm_obs::TimePoint`] is the *delta* over its window, so rates and
//!   per-window latency quantiles fall out directly. The sampler runs
//!   whether or not the HTTP listener is bound: the ring is served over
//!   the wire as a TimeSeries response ([`ServeClient::timeseries`])
//!   and, when [`ServeOptions::http_port`] is set, as JSON on
//!   `/timeseries`.
//!   `tnm top` polls the wire call and renders QPS, p50/p99 per query
//!   kind, and shard residency.
//! * **Per-query tracing** — a client can set the trace request flag
//!   ([`ServeClient::query_traced`] / `tnm client --trace FILE` /
//!   `--profile`): the daemon runs that one query under a fresh
//!   [`tnm_obs::TraceCtx`], collects the span tree (including spans
//!   stitched back from distributed workers), and ships it in the
//!   response as a [`TraceReply`] together with the request's metrics
//!   delta. The trace context belongs to the connection's thread and
//!   travels only with the request's own work (walker threads, worker
//!   processes), so concurrent requests, traced or not, never attach
//!   spans to each other's trees.
//! * **Slow queries and the flight recorder** — every completed query
//!   lands in two in-memory logs surfaced through [`ServerStats`]
//!   (`tnm client --slow-queries`): a worst-latency table capped at
//!   [`ServeOptions::slow_queries`] entries that *keeps span trees*
//!   (traced entries stay inspectable after the fact), and a ring of
//!   the last [`ServeOptions::flight_recorder`] queries with spans
//!   dropped (constant-size, always on). Either log disables at
//!   capacity 0.
//!
//! ## Concurrency and failure model
//!
//! One thread per connection; each query clones the entry's graph
//! `Arc` and counts outside the registry locks, so slow queries never
//! block loads or appends on other graphs (engines additionally spread
//! across the work-stealing executor under the request's thread
//! budget, clamped by [`ServeOptions::max_threads`]). Application
//! errors (unknown graph, invalid config, non-monotone append) are
//! answered with an error frame and the connection stays usable;
//! wire-level garbage (bad magic, oversized length, truncation) closes
//! that connection only — the daemon itself never dies from a bad
//! peer, which `tests/serve_loop.rs` pins.
//!
//! Both ends of every connection set `TCP_NODELAY`. A frame is written
//! through an 8 KiB `BufWriter`, so a frame with a larger payload (a
//! 512-event append, a big reply) leaves as an 11-byte header segment
//! followed by the payload. With Nagle's algorithm on, the payload
//! waits until the peer ACKs the header — and the peer delays that ACK
//! by about 40 ms — so every such exchange stalled 40 ms in transport.

mod client;
mod http;
mod incremental;
pub(crate) mod protocol;

pub use client::{ClientError, ServeClient};
pub use incremental::{AppendError, IncrementalStream};
pub use protocol::{AppendAck, GraphStat, QueryLogEntry, ServerStats, TraceReply};

use crate::engine::query::Query;
use crate::engine::serve::incremental::check_batch;
use crate::engine::EngineKind;
use protocol::{Request, Response};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::Duration;
use tnm_graph::wire::{decode, read_raw_msg, write_msg, MAX_FRAME_PAYLOAD};
use tnm_graph::{Event, TemporalGraph};

/// Retained [`tnm_obs::TimePoint`] samples (a ring: 120 × 1 s = the
/// last two minutes).
const TIMESERIES_CAP: usize = 120;

/// Tunables for a [`MotifServer`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Ceiling on any single request's thread budget and on the sharded
    /// engine's worker processes (requests ask for their own; the server
    /// clamps them here).
    pub max_threads: usize,
    /// Ceiling on instances materialized per enumerate response, so a
    /// reply always fits the frame-payload limit.
    pub enumerate_cap: usize,
    /// Port for the HTTP scrape surface (`/metrics`, `/healthz`,
    /// `/timeseries`), bound on the same interface as the wire
    /// listener. `None` (the default) disables it; 0 picks a free port
    /// (read it back with [`MotifServer::http_addr`]).
    pub http_port: Option<u16>,
    /// How often the background sampler folds the merged metrics
    /// snapshot into the time series.
    pub sample_interval_ms: u64,
    /// Capacity of the worst-latency query table in [`ServerStats`].
    pub slow_queries: usize,
    /// Capacity of the completed-query flight recorder in
    /// [`ServerStats`].
    pub flight_recorder: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_threads: thread::available_parallelism().map_or(4, |n| n.get()),
            enumerate_cap: 100_000,
            http_port: None,
            sample_interval_ms: 1_000,
            slow_queries: 8,
            flight_recorder: 32,
        }
    }
}

/// Milliseconds since the Unix epoch (sample and query-log timestamps).
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// One live subscription: an id plus its incrementally-maintained
/// counts.
struct Subscription {
    id: u32,
    stream: IncrementalStream,
}

/// One loaded graph and the subscriptions riding on it.
///
/// The graph is held from load on, and queries share it through the
/// `Arc`. An append ([`GraphEntry::append`]) unwraps it, copying it only
/// while a running query still holds it, and extends it in place.
struct GraphEntry {
    graph: Arc<TemporalGraph>,
    subscriptions: Vec<Subscription>,
    next_sub_id: u32,
}

impl GraphEntry {
    /// Grows the graph by a checked batch. The entry's `Arc` is left
    /// holding an empty graph while the append runs.
    fn append(&mut self, batch: &[Event]) {
        let graph = Arc::try_unwrap(std::mem::take(&mut self.graph))
            .unwrap_or_else(|held| TemporalGraph::clone(&held));
        self.graph = Arc::new(graph.append(batch));
    }
}

struct ServerState {
    registry: RwLock<HashMap<String, Arc<Mutex<GraphEntry>>>>,
    options: ServeOptions,
    /// The server's own metrics registry (`serve.*` names): request
    /// counters and per-query-kind latency histograms. Per-instance and
    /// recorded unconditionally — serve call sites are per-request, not
    /// per-event, so they bypass the process-global enabled gate.
    obs: tnm_obs::Registry,
    /// Ring of periodic merged-metrics samples for the TimeSeries
    /// request and `/timeseries`, fed by the background sampler thread.
    timeseries: Mutex<tnm_obs::TimeSeries>,
    /// Worst-latency completed queries, latency-descending, capped at
    /// [`ServeOptions::slow_queries`]. Traced entries keep their span
    /// tree.
    slow: Mutex<Vec<QueryLogEntry>>,
    /// Last [`ServeOptions::flight_recorder`] completed queries, oldest
    /// first, span trees dropped.
    flight: Mutex<VecDeque<QueryLogEntry>>,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl ServerState {
    fn entry(&self, name: &str) -> Result<Arc<Mutex<GraphEntry>>, String> {
        self.registry
            .read()
            .expect("registry lock")
            .get(name)
            .cloned()
            .ok_or_else(|| format!("no graph named `{name}` is loaded"))
    }

    fn stats(&self) -> ServerStats {
        let registry = self.registry.read().expect("registry lock");
        let mut graphs: Vec<GraphStat> = registry
            .iter()
            .map(|(name, entry)| {
                let entry = entry.lock().expect("entry lock");
                GraphStat {
                    name: name.clone(),
                    events: entry.graph.num_events() as u64,
                    nodes: entry.graph.num_nodes(),
                    subscriptions: entry.subscriptions.len() as u32,
                }
            })
            .collect();
        graphs.sort_by(|a, b| a.name.cmp(&b.name));
        let counters = self.obs.snapshot().counters;
        ServerStats {
            queries: counters.get("serve.queries").copied().unwrap_or(0),
            appends: counters.get("serve.appends").copied().unwrap_or(0),
            graphs,
            slow: self.slow.lock().expect("slow lock").clone(),
            flight: self.flight.lock().expect("flight lock").iter().cloned().collect(),
        }
    }

    /// Folds one completed query into the flight recorder (span tree
    /// dropped — the ring is a cheap recent-history view) and the
    /// worst-N slow table (span tree kept, so a slow traced query can
    /// be inspected after the fact).
    fn record_query(&self, entry: QueryLogEntry) {
        if self.options.flight_recorder > 0 {
            let mut flight = self.flight.lock().expect("flight lock");
            if flight.len() == self.options.flight_recorder {
                flight.pop_front();
            }
            let mut light = entry.clone();
            light.spans = Vec::new();
            flight.push_back(light);
        }
        if self.options.slow_queries == 0 {
            return;
        }
        let mut slow = self.slow.lock().expect("slow lock");
        let pos = slow.partition_point(|e| e.latency_ns >= entry.latency_ns);
        if pos < self.options.slow_queries {
            slow.insert(pos, entry);
            slow.truncate(self.options.slow_queries);
        }
    }

    /// One snapshot spanning both metric domains: the server's private
    /// `serve.*` registry and the process-global registry the engines
    /// record into (when [`tnm_obs::enabled`]). This is what `/metrics`
    /// renders and the sampler feeds into the time series.
    fn merged_snapshot(&self) -> tnm_obs::Snapshot {
        let merged = tnm_obs::Registry::new();
        merged.apply(&tnm_obs::global().snapshot());
        merged.apply(&self.obs.snapshot());
        merged.snapshot()
    }
}

/// The resident counting daemon. Bind, then either [`run`](Self::run)
/// the accept loop on the current thread (the CLI verb) or
/// [`spawn`](Self::spawn) it onto a background thread (tests, the
/// example).
pub struct MotifServer {
    listener: TcpListener,
    /// Bound HTTP scrape listener ([`ServeOptions::http_port`]); served
    /// from a background thread once [`run`](Self::run) starts.
    http: Option<TcpListener>,
    state: Arc<ServerState>,
}

/// Handle to a [`MotifServer::spawn`]ed accept loop.
pub struct ServerHandle {
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    join: thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (connect clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound HTTP scrape address, when enabled.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Waits for the accept loop to exit (a client's Shutdown request
    /// ends it).
    pub fn join(self) -> std::io::Result<()> {
        self.join.join().expect("server thread panicked")
    }
}

impl MotifServer {
    /// Binds the daemon with default options. Port 0 picks a free port;
    /// read it back with [`local_addr`](Self::local_addr).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::bind_with(addr, ServeOptions::default())
    }

    /// Binds with explicit [`ServeOptions`].
    pub fn bind_with<A: ToSocketAddrs>(addr: A, options: ServeOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let http = match options.http_port {
            Some(port) => Some(TcpListener::bind((addr.ip(), port))?),
            None => None,
        };
        let timeseries = tnm_obs::TimeSeries::new(TIMESERIES_CAP);
        let state = Arc::new(ServerState {
            registry: RwLock::new(HashMap::new()),
            options,
            obs: tnm_obs::Registry::new(),
            timeseries: Mutex::new(timeseries),
            slow: Mutex::new(Vec::new()),
            flight: Mutex::new(VecDeque::new()),
            shutdown: AtomicBool::new(false),
            addr,
        });
        Ok(MotifServer { listener, http, state })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The bound HTTP scrape address, when
    /// [`http_port`](ServeOptions::http_port) is set.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Runs the accept loop until a client requests shutdown. Each
    /// connection gets its own thread; a connection's wire errors never
    /// affect the loop. On shutdown, connections still parked in a read
    /// are unblocked (their sockets are shut down) so the loop never
    /// hangs on an idle client that forgot to disconnect.
    pub fn run(self) -> std::io::Result<()> {
        let sampler = spawn_sampler(Arc::clone(&self.state));
        let http = self.http.map(|listener| http::spawn(listener, Arc::clone(&self.state)));
        let mut workers: Vec<(thread::JoinHandle<()>, TcpStream)> = Vec::new();
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // Reap finished connections as we go, so a long-lived daemon
            // never accumulates dead threads or their socket handles.
            workers.retain(|(handle, _)| !handle.is_finished());
            let Ok(peer) = stream.try_clone() else { continue };
            let state = Arc::clone(&self.state);
            workers.push((thread::spawn(move || handle_connection(stream, &state)), peer));
        }
        for (_, peer) in &workers {
            let _ = peer.shutdown(std::net::Shutdown::Both);
        }
        for (handle, _) in workers {
            let _ = handle.join();
        }
        // The sampler and HTTP threads poll the shutdown flag (set
        // before the accept loop exits) and return within one poll
        // interval.
        let _ = sampler.join();
        if let Some(handle) = http {
            let _ = handle.join();
        }
        Ok(())
    }

    /// Runs the accept loop on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let http_addr = self.http_addr();
        let join = thread::spawn(move || self.run());
        ServerHandle { addr, http_addr, join }
    }
}

/// Spawns the time-series sampler: every
/// [`sample_interval_ms`](ServeOptions::sample_interval_ms) it folds
/// the merged metrics snapshot into the ring, polling the shutdown flag
/// between short sleeps so daemon exit is never delayed by a full
/// interval.
fn spawn_sampler(state: Arc<ServerState>) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let interval = state.options.sample_interval_ms.max(10);
        loop {
            let mut waited = 0;
            while waited < interval {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let step = 50.min(interval - waited);
                thread::sleep(Duration::from_millis(step));
                waited += step;
            }
            let snap = state.merged_snapshot();
            state.timeseries.lock().expect("timeseries lock").record(unix_ms(), snap);
        }
    })
}

fn handle_connection(stream: TcpStream, state: &ServerState) {
    // Replies go out without waiting on Nagle (see the module docs); a
    // socket that refuses the option still serves, only slower.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    serve_connection(&mut reader, &mut writer, state);
    // Close the TCP connection explicitly: the accept loop holds its
    // own clone of this socket (to unblock parked reads at shutdown),
    // and a clone must not keep a finished connection half-open.
    let _ = writer.flush();
    let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
}

fn serve_connection(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    state: &ServerState,
) {
    let mut frames = 0u64;
    loop {
        // Wire-level garbage (bad magic, oversized length, truncation
        // mid-frame) is unrecoverable on this connection — the stream
        // position is lost — so close it; the daemon lives on.
        let frame = match read_raw_msg(&mut *reader, MAX_FRAME_PAYLOAD) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => {
                let _ = write_msg(&mut *writer, &Response::Error(format!("wire error: {e}")));
                let _ = writer.flush();
                break;
            }
        };
        frames += 1;
        // A well-framed request that does not decode, or cannot be
        // served, is answered with an error and the connection stays.
        let response = decode::<Request<'_>>(&frame)
            .map_err(|e| e.to_string())
            .and_then(|request| dispatch(state, request))
            .unwrap_or_else(Response::Error);
        let sent = write_msg(&mut *writer, &response).is_ok() && writer.flush().is_ok();
        if matches!(response, Response::Bye) {
            state.shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop so it observes the flag.
            let _ = TcpStream::connect(state.addr);
            break;
        }
        if !sent {
            break;
        }
    }
    state.obs.histogram("serve.connection_frames").record(frames);
}

/// Serves one decoded request. Application-level failures (unknown
/// graph, invalid batch, unrunnable query) come back as the error
/// string the connection answers with.
fn dispatch(state: &ServerState, request: Request<'_>) -> Result<Response, String> {
    match request {
        Request::Load { name, num_nodes, events } => {
            let mut events = events.into_owned();
            if name.is_empty() {
                return Err("graph name must be non-empty".into());
            }
            if events.iter().any(Event::is_self_loop) {
                return Err("event block contains self-loops".into());
            }
            events.sort_unstable();
            let max_node = events.iter().map(|e| e.src.0.max(e.dst.0) + 1).max().unwrap_or(0);
            let num_nodes = num_nodes.max(max_node);
            let loaded = events.len() as u64;
            let graph = Arc::new(TemporalGraph::from_sorted_events(events, num_nodes));
            let entry = GraphEntry { graph, subscriptions: Vec::new(), next_sub_id: 0 };
            let mut registry = state.registry.write().expect("registry lock");
            if registry.contains_key(&name) {
                return Err(format!("graph `{name}` is already loaded"));
            }
            registry.insert(name.clone(), Arc::new(Mutex::new(entry)));
            Ok(Response::Loaded { name, events: loaded, nodes: num_nodes })
        }
        Request::Append { name, events: batch } => {
            let entry = state.entry(&name)?;
            let mut entry = entry.lock().expect("entry lock");
            check_batch(&batch, entry.graph.last_time()).map_err(|e| e.to_string())?;
            // Fold into every subscription first: a failure there (all
            // shapes already checked above) must not leave the log and
            // the counts disagreeing.
            if !entry.subscriptions.is_empty() {
                let t0 = std::time::Instant::now();
                for sub in &mut entry.subscriptions {
                    sub.stream.append(&batch).map_err(|e| e.to_string())?;
                }
                state
                    .obs
                    .histogram("serve.subscription_advance_ns")
                    .record(t0.elapsed().as_nanos() as u64);
            }
            entry.append(&batch);
            let total_events = entry.graph.num_events() as u64;
            state.obs.counter("serve.appends").add(batch.len() as u64);
            Ok(Response::Appended(AppendAck {
                total_events,
                subscriptions: entry
                    .subscriptions
                    .iter()
                    .map(|s| (s.id, s.stream.counts()))
                    .collect(),
            }))
        }
        Request::Query { name, query, trace: traced } => {
            let entry = state.entry(&name)?;
            let graph = Arc::clone(&entry.lock().expect("entry lock").graph);
            // Count outside the locks: a slow query must not block
            // loads/appends (or other clients' queries).
            let query = clamp(query, &state.options);
            let (kind, latency) = match &query {
                Query::Count { .. } => ("count", "serve.query.count_ns"),
                Query::Report { .. } => ("report", "serve.query.report_ns"),
                Query::Enumerate { .. } => ("enumerate", "serve.query.enumerate_ns"),
                Query::Batch { .. } => ("batch", "serve.query.batch_ns"),
            };
            // The merged baseline would let the trace's metrics delta
            // cover engine counters (`engine.events_scanned`, …) when the
            // process-global registry is enabled; `tnm serve` never
            // enables it, so today the delta holds only the `serve.*`
            // counters this request moved.
            let before = traced.then(|| state.merged_snapshot());
            let t0 = std::time::Instant::now();
            let (run, spans, trace_id) = if traced {
                run_traced("serve.query", &[("graph", &name), ("kind", kind)], || query.run(&graph))
            } else {
                (query.run(&graph), Vec::new(), 0)
            };
            let latency_ns = t0.elapsed().as_nanos() as u64;
            let response = run.map_err(|e| e.to_string())?;
            state.obs.histogram(latency).record(latency_ns);
            state.obs.counter("serve.queries").incr();
            let trace = before.map(|before| TraceReply {
                spans: spans.clone(),
                metrics: state.merged_snapshot().delta(&before),
            });
            state.record_query(QueryLogEntry {
                kind: kind.to_string(),
                graph: name,
                latency_ns,
                trace_id,
                at_unix_ms: unix_ms(),
                spans,
            });
            Ok(Response::Query { response, trace })
        }
        Request::Subscribe { name, cfg, trace: traced } => {
            cfg.validate().map_err(|e| e.to_string())?;
            let entry = state.entry(&name)?;
            let mut entry = entry.lock().expect("entry lock");
            let graph = Arc::clone(&entry.graph);
            let before = traced.then(|| state.merged_snapshot());
            let (run, spans, _) = if traced {
                run_traced("serve.subscribe", &[("graph", &name)], || {
                    IncrementalStream::new(&graph, &cfg)
                })
            } else {
                (IncrementalStream::new(&graph, &cfg), Vec::new(), 0)
            };
            let stream = run?;
            let trace = before.map(|before| TraceReply {
                spans,
                metrics: state.merged_snapshot().delta(&before),
            });
            let id = entry.next_sub_id;
            entry.next_sub_id += 1;
            let counts = stream.counts();
            entry.subscriptions.push(Subscription { id, stream });
            Ok(Response::Subscribed { id, counts, trace })
        }
        Request::Stats => Ok(Response::Stats(state.stats())),
        Request::Metrics => Ok(Response::Metrics(state.obs.snapshot())),
        Request::TimeSeries => {
            let ring = state.timeseries.lock().expect("timeseries lock");
            Ok(Response::TimeSeries(ring.points().cloned().collect()))
        }
        Request::Shutdown => Ok(Response::Bye),
    }
}

/// Runs `f` under a fresh request-scoped trace: mints a
/// [`tnm_obs::TraceCtx`], installs it on the connection's thread, opens
/// a root span, runs `f`, and takes the request's span tree. Every
/// child attaches beneath the root: spans on this thread nest under it,
/// and the executors that start walker threads or worker processes hand
/// those the trace with the innermost open span as the attach point.
/// The trace is this thread's alone, so concurrent requests never share
/// spans. Returns `f`'s result, the spans, and the trace id.
fn run_traced<T>(
    root: &'static str,
    args: &[(&str, &str)],
    f: impl FnOnce() -> T,
) -> (T, Vec<tnm_obs::SpanRecord>, u64) {
    let ctx = tnm_obs::TraceCtx::new();
    tnm_obs::set_trace(Some(ctx));
    let mut span = tnm_obs::Span::start(root);
    for (key, value) in args {
        span = span.arg(key, value);
    }
    let out = f();
    drop(span);
    tnm_obs::set_trace(None);
    (out, tnm_obs::take_trace_spans(ctx.trace_id), ctx.trace_id)
}

/// Applies the server's resource ceilings to a decoded query:
/// `max_threads` caps both the thread budget and the sharded engine's
/// worker processes (0 workers stays 0 — the in-thread transport).
fn clamp(query: Query, options: &ServeOptions) -> Query {
    let cap = options.max_threads.max(1);
    let engine = |engine: EngineKind| match engine {
        EngineKind::Sharded { shard_events, workers } => {
            EngineKind::Sharded { shard_events, workers: workers.min(cap) }
        }
        other => other,
    };
    match query {
        Query::Count { cfg, engine: e, threads } => {
            Query::Count { cfg, engine: engine(e), threads: threads.clamp(1, cap) }
        }
        Query::Report { cfg, engine: e, threads } => {
            Query::Report { cfg, engine: engine(e), threads: threads.clamp(1, cap) }
        }
        Query::Enumerate { cfg, engine: e, threads, limit } => Query::Enumerate {
            cfg,
            engine: engine(e),
            threads: threads.clamp(1, cap),
            limit: limit.min(options.enumerate_cap),
        },
        Query::Batch { cfgs, engine: e, threads } => {
            Query::Batch { cfgs, engine: engine(e), threads: threads.clamp(1, cap) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CountEngine, WindowedEngine};
    use crate::{EnumConfig, Timing};
    use std::borrow::Cow;

    const GRAPH: &str = "g";

    /// `len` sorted events on 12 nodes from time `t0` on, with many
    /// equal-time runs (so appends splice into a tie at the boundary).
    fn events(len: usize, t0: i64, seed: u64) -> Vec<Event> {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        let mut t = t0;
        let mut out: Vec<Event> = (0..len)
            .map(|_| {
                t += i64::from(next() % 3);
                let src = next() % 12;
                Event::new(src, (src + 1 + next() % 11) % 12, t)
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// An induced 3-node count, so the read also builds the edge index.
    fn read() -> Query {
        Query::Count {
            cfg: EnumConfig::new(3, 3).with_timing(Timing::only_w(20)).with_static_induced(true),
            engine: EngineKind::Windowed,
            threads: 1,
        }
    }

    fn entry(state: &ServerState) -> Arc<Mutex<GraphEntry>> {
        state.entry(GRAPH).unwrap()
    }

    fn load(state: &ServerState, log: &[Event]) {
        let events = Cow::Borrowed(log);
        dispatch(state, Request::Load { name: GRAPH.into(), num_nodes: 0, events }).unwrap();
    }

    /// Appends `batch`; returns the ack's event total.
    fn append(state: &ServerState, batch: &[Event]) -> u64 {
        let events = Cow::Borrowed(batch);
        match dispatch(state, Request::Append { name: GRAPH.into(), events }).unwrap() {
            Response::Appended(ack) => ack.total_events,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The entry's graph.
    fn graph(state: &ServerState) -> Arc<TemporalGraph> {
        Arc::clone(&entry(state).lock().unwrap().graph)
    }

    /// The stats, the entry's one graph and the next read all describe
    /// `log`, the spliced log the appends should have produced; the read
    /// counts on the entry's graph, not a rebuild.
    fn assert_serves(state: &ServerState, log: &[Event]) {
        assert_eq!(state.stats().graphs[0].events, log.len() as u64);
        let held = graph(state);
        assert_eq!(held.events(), log);
        let counts = match dispatch(
            state,
            Request::Query { name: GRAPH.into(), query: read(), trace: false },
        )
        .unwrap()
        {
            Response::Query { response, .. } => response.counts(),
            other => panic!("unexpected {other:?}"),
        };
        assert!(Arc::ptr_eq(&held, &graph(state)), "the read keeps the entry's graph");
        let fresh = TemporalGraph::from_events(log.to_vec()).unwrap();
        assert_eq!(counts, WindowedEngine.count(&fresh, &read().configs()[0]));
        assert!(counts.total() > 0, "the read must count something");
    }

    /// An append while a query still holds the graph copies the graph
    /// and leaves the held one's events as they were.
    #[test]
    fn an_append_beside_a_running_query_copies_the_log() {
        let server = MotifServer::bind("127.0.0.1:0").unwrap();
        let state = &server.state;
        let mut log = events(400, 0, 1);
        load(state, &log);
        let held = graph(state);
        assert_eq!(held.events(), log);
        let batch = events(60, log.last().unwrap().time, 2);
        let total = append(state, &batch);
        assert_eq!(held.events(), log, "the held graph keeps its log");
        assert_eq!(Arc::strong_count(&held), 1, "the entry let the old graph go");
        log.extend_from_slice(&batch);
        log.sort_unstable();
        assert_eq!(total, log.len() as u64);
        assert_serves(state, &log);
    }

    /// Appends between reads grow the entry's one graph: after each, the
    /// entry holds the only reference, and its events are the spliced
    /// log.
    #[test]
    fn appends_between_reads_splice_the_one_log() {
        let server = MotifServer::bind("127.0.0.1:0").unwrap();
        let state = &server.state;
        let mut log = events(400, 0, 3);
        load(state, &log);
        assert_serves(state, &log);
        for seed in [4, 5] {
            let batch = events(60, log.last().unwrap().time, seed);
            let total = append(state, &batch);
            assert_eq!(Arc::strong_count(&graph(state)), 2, "the entry holds the only graph");
            log.extend_from_slice(&batch);
            log.sort_unstable();
            assert_eq!(total, log.len() as u64);
            assert_eq!(graph(state).events(), log);
        }
        assert_serves(state, &log);
    }

    /// Both ends of a serve connection turn Nagle's algorithm off: the
    /// client socket `connect` opens and the socket the server accepted.
    #[test]
    fn both_ends_set_tcp_nodelay() {
        let server = MotifServer::bind("127.0.0.1:0").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = ServeClient::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.nodelay().unwrap(), "client socket");
        let (accepted, _) = listener.accept().unwrap();
        // A clone shares the socket, and with it the option.
        let probe = accepted.try_clone().unwrap();
        assert!(!probe.nodelay().unwrap(), "accepted sockets start with Nagle on");
        let state = Arc::clone(&server.state);
        let conn = thread::spawn(move || handle_connection(accepted, &state));
        // One answered request: the connection handler is running.
        client.stats().unwrap();
        assert!(probe.nodelay().unwrap(), "server's accepted socket");
        drop(client);
        conn.join().unwrap();
    }
}
