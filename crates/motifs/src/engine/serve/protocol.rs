//! Message schemas of the `tnm serve` client ↔ server protocol.
//!
//! Every message is one [`tnm_graph::wire`] frame (same magic, version,
//! and length validation as the coordinator ↔ worker protocol); the
//! `kind` byte selects the schema. The two protocols share one kind
//! space, partitioned: worker kinds occupy `1..=4`, serve **requests**
//! start at [`KIND_REQ_LOAD`] (16) and serve **responses** at
//! [`KIND_RESP_LOADED`] (32), so a frame can never be interpreted under
//! the wrong protocol.
//!
//! | kind | direction | payload |
//! |---|---|---|
//! | [`KIND_REQ_LOAD`] | client → server | graph name, node-id space, event block |
//! | [`KIND_REQ_APPEND`] | client → server | graph name + event block (time-monotone batch) |
//! | [`KIND_REQ_QUERY`] | client → server | graph name + a full [`Query`] + trace flag |
//! | [`KIND_REQ_SUBSCRIBE`] | client → server | graph name + a stream-eligible [`EnumConfig`] + trace flag |
//! | [`KIND_REQ_STATS`] | client → server | empty |
//! | [`KIND_REQ_SHUTDOWN`] | client → server | empty: stop accepting, drain, exit |
//! | [`KIND_REQ_METRICS`] | client → server | empty |
//! | [`KIND_RESP_LOADED`] | server → client | echoed name + event/node totals |
//! | [`KIND_RESP_APPENDED`] | server → client | new event total + every subscription's live counts |
//! | [`KIND_RESP_QUERY`] | server → client | the [`QueryResponse`] + presence-tagged [`TraceReply`] |
//! | [`KIND_RESP_SUBSCRIBED`] | server → client | subscription id + initial counts + presence-tagged [`TraceReply`] |
//! | [`KIND_RESP_STATS`] | server → client | [`ServerStats`] |
//! | [`KIND_RESP_BYE`] | server → client | empty: shutdown acknowledged |
//! | [`KIND_RESP_METRICS`] | server → client | the server's full [`tnm_obs::Snapshot`] |
//! | [`KIND_RESP_ERR`] | server → client | a display string; the connection stays usable |
//!
//! This module is the only place that knows these layouts: each kind
//! has one `encode_*` and one `decode_*` function, which the server's
//! dispatch and [`ServeClient`](super::ServeClient) call. Configurations,
//! signatures, and count tables reuse the worker protocol's codecs, so
//! the two protocols cannot drift on how they travel. Every decoder
//! ends with [`WireReader::finish`], making trailing bytes an error
//! rather than slack.

use crate::count::MotifCounts;
use crate::engine::distributed::protocol::{
    get_config, get_counts, get_signature, put_config, put_counts, put_signature,
};
use crate::engine::query::{Query, QueryInstance, QueryResponse};
use crate::engine::report::{EngineReport, Estimate};
use crate::engine::{EngineKind, EnumConfig};
use std::collections::HashMap;
use tnm_graph::wire::{
    decode_events, encode_events, get_obs_snapshot, get_span_records, put_obs_snapshot,
    put_span_records, WireError, WireReader, WireWriter,
};
use tnm_graph::Event;

/// Request: load a graph into the registry under a name.
pub(crate) const KIND_REQ_LOAD: u8 = 16;
/// Request: append a time-monotone event batch to a loaded graph.
pub(crate) const KIND_REQ_APPEND: u8 = 17;
/// Request: run a [`Query`] against a loaded graph.
pub(crate) const KIND_REQ_QUERY: u8 = 18;
/// Request: register an incremental subscription on a loaded graph.
pub(crate) const KIND_REQ_SUBSCRIBE: u8 = 19;
/// Request: server statistics.
pub(crate) const KIND_REQ_STATS: u8 = 20;
/// Request: orderly server shutdown.
pub(crate) const KIND_REQ_SHUTDOWN: u8 = 21;
/// Request: the server's full metrics snapshot (Prometheus-renderable).
pub(crate) const KIND_REQ_METRICS: u8 = 22;

/// Response to [`KIND_REQ_LOAD`].
pub(crate) const KIND_RESP_LOADED: u8 = 32;
/// Response to [`KIND_REQ_APPEND`].
pub(crate) const KIND_RESP_APPENDED: u8 = 33;
/// Response to [`KIND_REQ_QUERY`].
pub(crate) const KIND_RESP_QUERY: u8 = 34;
/// Response to [`KIND_REQ_SUBSCRIBE`].
pub(crate) const KIND_RESP_SUBSCRIBED: u8 = 35;
/// Response to [`KIND_REQ_STATS`].
pub(crate) const KIND_RESP_STATS: u8 = 36;
/// Response to [`KIND_REQ_SHUTDOWN`].
pub(crate) const KIND_RESP_BYE: u8 = 37;
/// Response to [`KIND_REQ_METRICS`].
pub(crate) const KIND_RESP_METRICS: u8 = 38;
/// Any request the server understood but could not serve; the payload
/// is a human-readable reason and the connection stays open.
pub(crate) const KIND_RESP_ERR: u8 = 63;

/// The telemetry a traced Query or Subscribe request ships back
/// alongside its response: the request's complete span tree (serve
/// root, engine phases, and — for distributed runs — spans stitched
/// back from worker processes) plus the delta of the server's metrics
/// registry over the request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReply {
    /// Every span recorded under the request's trace id. All spans
    /// share one `trace_id`; parent ids resolve within the tree or are
    /// 0 (the request root).
    pub spans: Vec<tnm_obs::SpanRecord>,
    /// Server-registry delta attributable to this request (latency
    /// histogram observation, `serve.queries` increment, ...).
    pub metrics: tnm_obs::Snapshot,
}

/// One completed query in the server's slow-query table or flight
/// recorder (see [`ServerStats::slow`] / [`ServerStats::flight`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryLogEntry {
    /// Query kind: `count`, `report`, `enumerate`, or `batch`.
    pub kind: String,
    /// Registry name the query ran against.
    pub graph: String,
    /// Wall-clock latency of the run.
    pub latency_ns: u64,
    /// The request's trace id (0 when the client did not ask for a
    /// trace).
    pub trace_id: u64,
    /// Completion time, milliseconds since the Unix epoch.
    pub at_unix_ms: u64,
    /// The request's span tree — retained for slow-table entries of
    /// traced queries, empty for flight-recorder entries and untraced
    /// queries.
    pub spans: Vec<tnm_obs::SpanRecord>,
}

/// Writes a [`TraceReply`] behind a presence byte: absent for untraced
/// requests.
fn put_trace(w: &mut WireWriter, trace: Option<&TraceReply>) {
    w.put_bool(trace.is_some());
    if let Some(t) = trace {
        put_span_records(w, &t.spans);
        put_obs_snapshot(w, &t.metrics);
    }
}

/// Reads a [`TraceReply`] written by [`put_trace`].
fn get_trace(r: &mut WireReader<'_>) -> Result<Option<TraceReply>, WireError> {
    if !r.bool()? {
        return Ok(None);
    }
    Ok(Some(TraceReply { spans: get_span_records(r)?, metrics: get_obs_snapshot(r)? }))
}

fn put_query_log(w: &mut WireWriter, entries: &[QueryLogEntry]) {
    w.put_u32(entries.len() as u32);
    for e in entries {
        w.put_str(&e.kind);
        w.put_str(&e.graph);
        w.put_u64(e.latency_ns);
        w.put_u64(e.trace_id);
        w.put_u64(e.at_unix_ms);
        put_span_records(w, &e.spans);
    }
}

fn get_query_log(r: &mut WireReader<'_>) -> Result<Vec<QueryLogEntry>, WireError> {
    let n = r.u32()?;
    let mut entries = Vec::with_capacity(n.min(1 << 16) as usize);
    for _ in 0..n {
        entries.push(QueryLogEntry {
            kind: r.str()?.to_string(),
            graph: r.str()?.to_string(),
            latency_ns: r.u64()?,
            trace_id: r.u64()?,
            at_unix_ms: r.u64()?,
            spans: get_span_records(r)?,
        });
    }
    Ok(entries)
}

/// Acknowledgement of an append: the graph's new size plus the live
/// counts of every subscription on it, already updated incrementally.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendAck {
    /// Events in the graph after the append.
    pub total_events: u64,
    /// `(subscription id, live counts)` for every subscription on the
    /// graph, in id order.
    pub subscriptions: Vec<(u32, MotifCounts)>,
}

/// One registry entry in a [`ServerStats`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStat {
    /// Registry name.
    pub name: String,
    /// Events currently in the graph.
    pub events: u64,
    /// Node-id space.
    pub nodes: u32,
    /// Registered incremental subscriptions.
    pub subscriptions: u32,
}

/// Server-wide counters, the registry listing, and the query logs. The
/// full metrics snapshot is a separate request
/// ([`ServeClient::metrics`](super::ServeClient::metrics)).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Queries served since start.
    pub queries: u64,
    /// Events appended since start (across all graphs).
    pub appends: u64,
    /// Loaded graphs, in name order.
    pub graphs: Vec<GraphStat>,
    /// The worst-latency queries since start, latency-descending, at
    /// most [`ServeOptions::slow_queries`](super::ServeOptions)
    /// entries. Traced entries keep their span tree.
    pub slow: Vec<QueryLogEntry>,
    /// Flight recorder: the last
    /// [`ServeOptions::flight_recorder`](super::ServeOptions) completed
    /// queries, oldest first, without span trees.
    pub flight: Vec<QueryLogEntry>,
}

/// Maps an engine name that travelled the wire back to the `'static`
/// str [`EngineReport::engine`] requires. Only names the engines
/// actually report can appear; anything else is a protocol violation.
fn static_engine_name(name: &str) -> Result<&'static str, WireError> {
    for known in ["backtrack", "windowed", "parallel", "stream", "sharded", "sampling"] {
        if name == known {
            return Ok(known);
        }
    }
    Err(WireError::Malformed(format!("unknown engine name `{name}` in report")))
}

fn put_f64(w: &mut WireWriter, v: f64) {
    w.put_u64(v.to_bits());
}

fn get_f64(r: &mut WireReader<'_>) -> Result<f64, WireError> {
    Ok(f64::from_bits(r.u64()?))
}

const ENGINE_TAG_BACKTRACK: u8 = 0;
const ENGINE_TAG_WINDOWED: u8 = 1;
const ENGINE_TAG_PARALLEL: u8 = 2;
const ENGINE_TAG_STREAM: u8 = 3;
const ENGINE_TAG_SHARDED: u8 = 4;
const ENGINE_TAG_SAMPLING: u8 = 5;
const ENGINE_TAG_AUTO: u8 = 6;

fn put_engine(w: &mut WireWriter, kind: EngineKind) {
    match kind {
        EngineKind::Backtrack => w.put_u8(ENGINE_TAG_BACKTRACK),
        EngineKind::Windowed => w.put_u8(ENGINE_TAG_WINDOWED),
        EngineKind::Parallel => w.put_u8(ENGINE_TAG_PARALLEL),
        EngineKind::Stream => w.put_u8(ENGINE_TAG_STREAM),
        EngineKind::Sharded { shard_events, workers } => {
            w.put_u8(ENGINE_TAG_SHARDED);
            w.put_u64(shard_events as u64);
            w.put_u64(workers as u64);
        }
        EngineKind::Sampling { samples, seed } => {
            w.put_u8(ENGINE_TAG_SAMPLING);
            w.put_u32(samples);
            w.put_u64(seed);
        }
        EngineKind::Auto => w.put_u8(ENGINE_TAG_AUTO),
    }
}

fn get_engine(r: &mut WireReader<'_>) -> Result<EngineKind, WireError> {
    Ok(match r.u8()? {
        ENGINE_TAG_BACKTRACK => EngineKind::Backtrack,
        ENGINE_TAG_WINDOWED => EngineKind::Windowed,
        ENGINE_TAG_PARALLEL => EngineKind::Parallel,
        ENGINE_TAG_STREAM => EngineKind::Stream,
        ENGINE_TAG_SHARDED => {
            EngineKind::Sharded { shard_events: r.u64()? as usize, workers: r.u64()? as usize }
        }
        ENGINE_TAG_SAMPLING => EngineKind::Sampling { samples: r.u32()?, seed: r.u64()? },
        ENGINE_TAG_AUTO => EngineKind::Auto,
        other => return Err(WireError::Malformed(format!("unknown engine tag {other}"))),
    })
}

const QUERY_TAG_COUNT: u8 = 1;
const QUERY_TAG_REPORT: u8 = 2;
const QUERY_TAG_ENUMERATE: u8 = 3;
const QUERY_TAG_BATCH: u8 = 4;

/// Encodes a [`Query`] into an open writer (the request frame also
/// carries the graph name ahead of it).
fn put_query(w: &mut WireWriter, query: &Query) {
    match query {
        Query::Count { cfg, engine, threads } => {
            w.put_u8(QUERY_TAG_COUNT);
            put_engine(w, *engine);
            w.put_u32(*threads as u32);
            put_config(w, cfg);
        }
        Query::Report { cfg, engine, threads } => {
            w.put_u8(QUERY_TAG_REPORT);
            put_engine(w, *engine);
            w.put_u32(*threads as u32);
            put_config(w, cfg);
        }
        Query::Enumerate { cfg, engine, threads, limit } => {
            w.put_u8(QUERY_TAG_ENUMERATE);
            put_engine(w, *engine);
            w.put_u32(*threads as u32);
            w.put_u64(*limit as u64);
            put_config(w, cfg);
        }
        Query::Batch { cfgs, engine, threads } => {
            w.put_u8(QUERY_TAG_BATCH);
            put_engine(w, *engine);
            w.put_u32(*threads as u32);
            w.put_u32(cfgs.len() as u32);
            for cfg in cfgs {
                put_config(w, cfg);
            }
        }
    }
}

/// Decodes a [`Query`] (inverse of [`put_query`]).
fn get_query(r: &mut WireReader<'_>) -> Result<Query, WireError> {
    let tag = r.u8()?;
    let engine = get_engine(r)?;
    let threads = r.u32()? as usize;
    Ok(match tag {
        QUERY_TAG_COUNT => Query::Count { cfg: get_config(r)?, engine, threads },
        QUERY_TAG_REPORT => Query::Report { cfg: get_config(r)?, engine, threads },
        QUERY_TAG_ENUMERATE => {
            let limit = r.u64()? as usize;
            Query::Enumerate { cfg: get_config(r)?, engine, threads, limit }
        }
        QUERY_TAG_BATCH => {
            let n = r.u32()? as usize;
            let mut cfgs = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                cfgs.push(get_config(r)?);
            }
            Query::Batch { cfgs, engine, threads }
        }
        other => return Err(WireError::Malformed(format!("unknown query tag {other}"))),
    })
}

const RESP_TAG_COUNTS: u8 = 1;
const RESP_TAG_REPORT: u8 = 2;
const RESP_TAG_INSTANCES: u8 = 3;
const RESP_TAG_BATCH: u8 = 4;

/// Writes a [`QueryResponse`] body.
fn put_response(w: &mut WireWriter, resp: &QueryResponse) {
    match resp {
        QueryResponse::Counts(counts) => {
            w.put_u8(RESP_TAG_COUNTS);
            put_counts(w, counts);
        }
        QueryResponse::Report(report) => {
            w.put_u8(RESP_TAG_REPORT);
            w.put_str(report.engine);
            w.put_bool(report.exact);
            match report.samples {
                Some(s) => {
                    w.put_bool(true);
                    w.put_u64(s as u64);
                }
                None => w.put_bool(false),
            }
            put_counts(w, &report.counts);
            let mut rows: Vec<_> = report.iter().collect();
            rows.sort_unstable_by_key(|(sig, _)| *sig);
            w.put_u32(rows.len() as u32);
            for (sig, est) in rows {
                put_signature(w, &sig);
                put_f64(w, est.point);
                put_f64(w, est.half_width);
            }
            put_f64(w, report.total.point);
            put_f64(w, report.total.half_width);
        }
        QueryResponse::Instances { total, instances, truncated } => {
            w.put_u8(RESP_TAG_INSTANCES);
            w.put_u64(*total);
            w.put_bool(*truncated);
            w.put_u32(instances.len() as u32);
            for inst in instances {
                put_signature(w, &inst.signature);
                w.put_u8(inst.events.len() as u8);
                for &e in &inst.events {
                    w.put_u32(e);
                }
            }
        }
        QueryResponse::Batch(tables) => {
            w.put_u8(RESP_TAG_BATCH);
            w.put_u32(tables.len() as u32);
            for t in tables {
                put_counts(w, t);
            }
        }
    }
}

/// Decodes a [`QueryResponse`] body (inverse of [`put_response`]).
fn get_response(r: &mut WireReader<'_>) -> Result<QueryResponse, WireError> {
    let resp = match r.u8()? {
        RESP_TAG_COUNTS => QueryResponse::Counts(get_counts(r)?),
        RESP_TAG_REPORT => {
            let engine = static_engine_name(r.str()?)?;
            let exact = r.bool()?;
            let samples = if r.bool()? { Some(r.u64()? as usize) } else { None };
            let counts = get_counts(r)?;
            let n = r.u32()?;
            let mut estimates = HashMap::new();
            for _ in 0..n {
                let sig = get_signature(r)?;
                let point = get_f64(r)?;
                let half_width = get_f64(r)?;
                estimates.insert(sig, Estimate { point, half_width });
            }
            let total = Estimate { point: get_f64(r)?, half_width: get_f64(r)? };
            let report = if exact {
                // Reconstruct through the exact constructor so the
                // invariants (zero-width intervals, derived total)
                // cannot drift from what a local run produces.
                EngineReport::from_exact(engine, counts)
            } else {
                EngineReport::from_estimates(engine, samples.unwrap_or(0), estimates, total)
            };
            QueryResponse::Report(report)
        }
        RESP_TAG_INSTANCES => {
            let total = r.u64()?;
            let truncated = r.bool()?;
            let n = r.u32()?;
            let mut instances = Vec::with_capacity(n.min(1 << 20) as usize);
            for _ in 0..n {
                let signature = get_signature(r)?;
                let k = r.u8()? as usize;
                let mut events = Vec::with_capacity(k);
                for _ in 0..k {
                    events.push(r.u32()?);
                }
                instances.push(QueryInstance { signature, events });
            }
            QueryResponse::Instances { total, instances, truncated }
        }
        RESP_TAG_BATCH => {
            let n = r.u32()?;
            let mut tables = Vec::with_capacity(n.min(1 << 16) as usize);
            for _ in 0..n {
                tables.push(get_counts(r)?);
            }
            QueryResponse::Batch(tables)
        }
        other => return Err(WireError::Malformed(format!("unknown response tag {other}"))),
    };
    Ok(resp)
}

/// Builds one payload.
fn encode(body: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
    let mut w = WireWriter::new();
    body(&mut w);
    w.into_bytes()
}

/// Decodes one payload, which `body` must consume exactly.
fn decode<T>(
    payload: &[u8],
    body: impl FnOnce(&mut WireReader<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut r = WireReader::new(payload);
    let out = body(&mut r)?;
    r.finish()?;
    Ok(out)
}

/// Decodes an empty payload (Stats, Metrics, and Shutdown requests; the
/// Bye response).
pub(crate) fn decode_empty(payload: &[u8]) -> Result<(), WireError> {
    decode(payload, |_| Ok(()))
}

/// Encodes a [`KIND_REQ_LOAD`] payload.
pub(crate) fn encode_load(name: &str, num_nodes: u32, events: &[Event]) -> Vec<u8> {
    encode(|w| {
        w.put_str(name);
        w.put_u32(num_nodes);
        w.put_bytes(&encode_events(events));
    })
}

/// Decodes a [`KIND_REQ_LOAD`] payload: graph name, node-id space,
/// events.
pub(crate) fn decode_load(payload: &[u8]) -> Result<(String, u32, Vec<Event>), WireError> {
    decode(payload, |r| Ok((r.str()?.to_string(), r.u32()?, decode_events(r.bytes()?)?)))
}

/// Encodes a [`KIND_REQ_APPEND`] payload straight from the borrowed
/// batch.
pub(crate) fn encode_append(name: &str, events: &[Event]) -> Vec<u8> {
    encode(|w| {
        w.put_str(name);
        w.put_bytes(&encode_events(events));
    })
}

/// Decodes a [`KIND_REQ_APPEND`] payload: graph name, batch.
pub(crate) fn decode_append(payload: &[u8]) -> Result<(String, Vec<Event>), WireError> {
    decode(payload, |r| Ok((r.str()?.to_string(), decode_events(r.bytes()?)?)))
}

/// Encodes a [`KIND_REQ_QUERY`] payload.
pub(crate) fn encode_query_request(name: &str, query: &Query, trace: bool) -> Vec<u8> {
    encode(|w| {
        w.put_str(name);
        put_query(w, query);
        w.put_bool(trace);
    })
}

/// Decodes a [`KIND_REQ_QUERY`] payload: graph name, query, trace flag.
pub(crate) fn decode_query_request(payload: &[u8]) -> Result<(String, Query, bool), WireError> {
    decode(payload, |r| Ok((r.str()?.to_string(), get_query(r)?, r.bool()?)))
}

/// Encodes a [`KIND_REQ_SUBSCRIBE`] payload.
pub(crate) fn encode_subscribe(name: &str, cfg: &EnumConfig, trace: bool) -> Vec<u8> {
    encode(|w| {
        w.put_str(name);
        put_config(w, cfg);
        w.put_bool(trace);
    })
}

/// Decodes a [`KIND_REQ_SUBSCRIBE`] payload: graph name, config, trace
/// flag.
pub(crate) fn decode_subscribe(payload: &[u8]) -> Result<(String, EnumConfig, bool), WireError> {
    decode(payload, |r| Ok((r.str()?.to_string(), get_config(r)?, r.bool()?)))
}

/// Encodes a [`KIND_RESP_LOADED`] payload.
pub(crate) fn encode_loaded(name: &str, events: u64, nodes: u32) -> Vec<u8> {
    encode(|w| {
        w.put_str(name);
        w.put_u64(events);
        w.put_u32(nodes);
    })
}

/// Decodes a [`KIND_RESP_LOADED`] payload: echoed name, event total,
/// node-id space.
pub(crate) fn decode_loaded(payload: &[u8]) -> Result<(String, u64, u32), WireError> {
    decode(payload, |r| Ok((r.str()?.to_string(), r.u64()?, r.u32()?)))
}

/// Encodes a [`KIND_RESP_QUERY`] payload.
pub(crate) fn encode_query_reply(resp: &QueryResponse, trace: Option<&TraceReply>) -> Vec<u8> {
    encode(|w| {
        put_response(w, resp);
        put_trace(w, trace);
    })
}

/// Decodes a [`KIND_RESP_QUERY`] payload.
pub(crate) fn decode_query_reply(
    payload: &[u8],
) -> Result<(QueryResponse, Option<TraceReply>), WireError> {
    decode(payload, |r| Ok((get_response(r)?, get_trace(r)?)))
}

/// Encodes a [`KIND_RESP_SUBSCRIBED`] payload.
pub(crate) fn encode_subscribed(
    id: u32,
    counts: &MotifCounts,
    trace: Option<&TraceReply>,
) -> Vec<u8> {
    encode(|w| {
        w.put_u32(id);
        put_counts(w, counts);
        put_trace(w, trace);
    })
}

/// Decodes a [`KIND_RESP_SUBSCRIBED`] payload: subscription id, initial
/// counts, trace.
pub(crate) fn decode_subscribed(
    payload: &[u8],
) -> Result<(u32, MotifCounts, Option<TraceReply>), WireError> {
    decode(payload, |r| Ok((r.u32()?, get_counts(r)?, get_trace(r)?)))
}

/// Encodes a [`KIND_RESP_METRICS`] payload.
pub(crate) fn encode_metrics(snap: &tnm_obs::Snapshot) -> Vec<u8> {
    encode(|w| put_obs_snapshot(w, snap))
}

/// Decodes a [`KIND_RESP_METRICS`] payload.
pub(crate) fn decode_metrics(payload: &[u8]) -> Result<tnm_obs::Snapshot, WireError> {
    decode(payload, get_obs_snapshot)
}

/// Encodes a [`KIND_RESP_ERR`] payload.
pub(crate) fn encode_error(msg: &str) -> Vec<u8> {
    encode(|w| w.put_str(msg))
}

/// Decodes a [`KIND_RESP_ERR`] payload.
pub(crate) fn decode_error(payload: &[u8]) -> Result<String, WireError> {
    decode(payload, |r| Ok(r.str()?.to_string()))
}

/// Encodes a [`KIND_RESP_APPENDED`] payload.
pub(crate) fn encode_append_ack(ack: &AppendAck) -> Vec<u8> {
    encode(|w| {
        w.put_u64(ack.total_events);
        w.put_u32(ack.subscriptions.len() as u32);
        for (id, counts) in &ack.subscriptions {
            w.put_u32(*id);
            put_counts(w, counts);
        }
    })
}

/// Decodes a [`KIND_RESP_APPENDED`] payload.
pub(crate) fn decode_append_ack(payload: &[u8]) -> Result<AppendAck, WireError> {
    decode(payload, |r| {
        let total_events = r.u64()?;
        let n = r.u32()?;
        let mut subscriptions = Vec::with_capacity(n.min(1 << 16) as usize);
        for _ in 0..n {
            subscriptions.push((r.u32()?, get_counts(r)?));
        }
        Ok(AppendAck { total_events, subscriptions })
    })
}

/// Encodes a [`KIND_RESP_STATS`] payload.
pub(crate) fn encode_stats(stats: &ServerStats) -> Vec<u8> {
    encode(|w| {
        w.put_u64(stats.queries);
        w.put_u64(stats.appends);
        w.put_u32(stats.graphs.len() as u32);
        for g in &stats.graphs {
            w.put_str(&g.name);
            w.put_u64(g.events);
            w.put_u32(g.nodes);
            w.put_u32(g.subscriptions);
        }
        put_query_log(w, &stats.slow);
        put_query_log(w, &stats.flight);
    })
}

/// Decodes a [`KIND_RESP_STATS`] payload.
pub(crate) fn decode_stats(payload: &[u8]) -> Result<ServerStats, WireError> {
    decode(payload, |r| {
        let queries = r.u64()?;
        let appends = r.u64()?;
        let n = r.u32()?;
        let mut graphs = Vec::with_capacity(n.min(1 << 16) as usize);
        for _ in 0..n {
            graphs.push(GraphStat {
                name: r.str()?.to_string(),
                events: r.u64()?,
                nodes: r.u32()?,
                subscriptions: r.u32()?,
            });
        }
        let slow = get_query_log(r)?;
        let flight = get_query_log(r)?;
        Ok(ServerStats { queries, appends, graphs, slow, flight })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Timing;
    use crate::engine::distributed::protocol::assert_prefixes_rejected;
    use crate::notation::sig;

    fn table(rows: &[(&str, u64)]) -> MotifCounts {
        let mut c = MotifCounts::new();
        for &(s, n) in rows {
            c.add(sig(s), n);
        }
        c
    }

    #[test]
    fn kind_spaces_do_not_collide_with_the_worker_protocol() {
        let serve_kinds = [
            KIND_REQ_LOAD,
            KIND_REQ_APPEND,
            KIND_REQ_QUERY,
            KIND_REQ_SUBSCRIBE,
            KIND_REQ_STATS,
            KIND_REQ_SHUTDOWN,
            KIND_REQ_METRICS,
            KIND_RESP_LOADED,
            KIND_RESP_APPENDED,
            KIND_RESP_QUERY,
            KIND_RESP_SUBSCRIBED,
            KIND_RESP_STATS,
            KIND_RESP_BYE,
            KIND_RESP_METRICS,
            KIND_RESP_ERR,
        ];
        for k in serve_kinds {
            assert!(k >= 16, "serve kinds start at 16; worker kinds own 1..=4");
        }
        let mut sorted = serve_kinds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), serve_kinds.len(), "serve kinds are distinct");
    }

    #[test]
    fn queries_roundtrip_over_every_engine_kind() {
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(3_000));
        let engines = [
            EngineKind::Backtrack,
            EngineKind::Windowed,
            EngineKind::Parallel,
            EngineKind::Stream,
            EngineKind::sharded(512, 0),
            EngineKind::sharded(700, 3),
            EngineKind::sampling(64, 42),
            EngineKind::Auto,
        ];
        for engine in engines {
            let queries = [
                Query::Count { cfg: cfg.clone(), engine, threads: 4 },
                Query::Report { cfg: cfg.clone(), engine, threads: 1 },
                Query::Enumerate { cfg: cfg.clone(), engine, threads: 2, limit: 100 },
                Query::Batch {
                    cfgs: vec![cfg.clone(), EnumConfig::for_signature(sig("011202"))],
                    engine,
                    threads: 8,
                },
            ];
            for (i, q) in queries.into_iter().enumerate() {
                let trace = i % 2 == 1;
                let payload = encode_query_request("g", &q, trace);
                assert_eq!(decode_query_request(&payload).unwrap(), ("g".into(), q, trace));
            }
        }
    }

    fn reply(resp: &QueryResponse) -> QueryResponse {
        let (back, trace) = decode_query_reply(&encode_query_reply(resp, None)).unwrap();
        assert!(trace.is_none());
        back
    }

    #[test]
    fn responses_roundtrip() {
        let counts = table(&[("010102", 7), ("011202", 123_456)]);
        let resp = QueryResponse::Counts(counts.clone());
        let QueryResponse::Counts(back) = reply(&resp) else { panic!("shape") };
        assert_eq!(back, counts);

        let report = EngineReport::from_exact("windowed", counts.clone());
        let QueryResponse::Report(back) = reply(&QueryResponse::Report(report.clone())) else {
            panic!("shape")
        };
        assert_eq!(back.engine, "windowed");
        assert!(back.exact);
        assert_eq!(back.counts, report.counts);
        assert_eq!(back.total, report.total);

        let mut estimates = HashMap::new();
        estimates.insert(sig("010102"), Estimate { point: 6.5, half_width: 1.25 });
        let approx = EngineReport::from_estimates(
            "sampling",
            50,
            estimates,
            Estimate { point: 6.5, half_width: 1.25 },
        );
        let QueryResponse::Report(back) = reply(&QueryResponse::Report(approx.clone())) else {
            panic!("shape")
        };
        assert!(!back.exact);
        assert_eq!(back.samples, Some(50));
        assert_eq!(back.estimate(sig("010102")), approx.estimate(sig("010102")));
        assert_eq!(back.total, approx.total);

        let resp = QueryResponse::Instances {
            total: 9,
            truncated: true,
            instances: vec![
                QueryInstance { signature: sig("011202"), events: vec![0, 3, 5] },
                QueryInstance { signature: sig("010102"), events: vec![1, 2, 8] },
            ],
        };
        let QueryResponse::Instances { total, instances, truncated } = reply(&resp) else {
            panic!("shape")
        };
        assert_eq!((total, truncated), (9, true));
        assert_eq!(instances.len(), 2);
        assert_eq!(instances[0].events, vec![0, 3, 5]);

        let resp = QueryResponse::Batch(vec![counts.clone(), MotifCounts::new()]);
        let QueryResponse::Batch(tables) = reply(&resp) else { panic!("shape") };
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0], counts);
        assert!(tables[1].is_empty());

        // Traced replies carry the span tree and metrics delta.
        let trace = sample_trace();
        let payload = encode_query_reply(&QueryResponse::Counts(counts.clone()), Some(&trace));
        let (QueryResponse::Counts(back), Some(back_trace)) = decode_query_reply(&payload).unwrap()
        else {
            panic!("shape")
        };
        assert_eq!((back, back_trace), (counts.clone(), trace.clone()));
        let payload = encode_subscribed(4, &counts, Some(&trace));
        assert_eq!(decode_subscribed(&payload).unwrap(), (4, counts.clone(), Some(trace)));
        assert_eq!(decode_subscribed(&encode_subscribed(0, &counts, None)).unwrap().2, None);
    }

    #[test]
    fn acks_and_stats_roundtrip() {
        let ack = AppendAck {
            total_events: 1234,
            subscriptions: vec![(0, table(&[("01", 5)])), (3, MotifCounts::new())],
        };
        assert_eq!(decode_append_ack(&encode_append_ack(&ack)).unwrap(), ack);

        let stats = ServerStats {
            queries: 42,
            appends: 9000,
            graphs: vec![GraphStat {
                name: "CollegeMsg".into(),
                events: 59_835,
                nodes: 1_899,
                subscriptions: 2,
            }],
            ..Default::default()
        };
        assert_eq!(decode_stats(&encode_stats(&stats)).unwrap(), stats);
        assert_eq!(decode_stats(&encode_stats(&stats_with_log())).unwrap(), stats_with_log());
    }

    fn span(name: &str, span_id: u64, parent_id: u64) -> tnm_obs::SpanRecord {
        tnm_obs::SpanRecord {
            name: name.into(),
            args: vec![("shard".into(), "3".into())],
            start_ns: 10,
            dur_ns: 1_000,
            tid: 1,
            depth: 0,
            trace_id: 0xABCD,
            span_id,
            parent_id,
        }
    }

    fn sample_trace() -> TraceReply {
        TraceReply {
            spans: vec![span("serve.query", 1, 0), span("query.count", 2, 1)],
            metrics: {
                let r = tnm_obs::Registry::new();
                r.counter("serve.queries").incr();
                r.histogram("serve.query.count_ns").record(52_000);
                r.snapshot()
            },
        }
    }

    /// Stats whose slow table keeps a traced entry's spans and whose
    /// flight recorder holds the same query without them.
    fn stats_with_log() -> ServerStats {
        let entry = QueryLogEntry {
            kind: "count".into(),
            graph: "CollegeMsg".into(),
            latency_ns: 1_234_567,
            trace_id: 0xABCD,
            at_unix_ms: 1_700_000_000_123,
            spans: vec![span("serve.query", 1, 0)],
        };
        let flight = QueryLogEntry { spans: Vec::new(), trace_id: 0, ..entry.clone() };
        ServerStats {
            queries: 9,
            appends: 0,
            graphs: vec![GraphStat { name: "g".into(), events: 3, nodes: 4, subscriptions: 5 }],
            slow: vec![entry],
            flight: vec![flight],
        }
    }

    #[test]
    fn decoders_reject_corruption() {
        let query = Query::Count {
            cfg: EnumConfig::new(3, 3).with_timing(Timing::only_w(10)),
            engine: EngineKind::sampling(8, 7),
            threads: 2,
        };
        let request = encode_query_request("g", &query, true);
        assert_prefixes_rejected(&request, decode_query_request);
        let sharded = Query::Count {
            cfg: EnumConfig::new(3, 3).with_timing(Timing::only_w(10)),
            engine: EngineKind::sharded(64, 3),
            threads: 2,
        };
        assert_prefixes_rejected(&encode_query_request("g", &sharded, false), decode_query_request);
        let mut padded = request.clone();
        padded.push(0);
        assert!(matches!(decode_query_request(&padded), Err(WireError::TrailingBytes { .. })));

        let counts = table(&[("0110", 3)]);
        let resp = QueryResponse::Counts(counts.clone());
        assert_prefixes_rejected(&encode_query_reply(&resp, None), decode_query_reply);
        assert_prefixes_rejected(&encode_query_reply(&resp, Some(&sample_trace())), |p| {
            decode_query_reply(p)
        });
        assert_prefixes_rejected(&encode_subscribed(1, &counts, Some(&sample_trace())), |p| {
            decode_subscribed(p)
        });
        assert_prefixes_rejected(&encode_stats(&stats_with_log()), decode_stats);
        assert!(matches!(decode_query_reply(&[99]), Err(WireError::Malformed(_))));

        // A report naming an engine no engine reports cannot decode
        // (the &'static str mapping is a closed set).
        let mut w = WireWriter::new();
        w.put_u8(RESP_TAG_REPORT);
        w.put_str("definitely-not-an-engine");
        assert!(matches!(decode_query_reply(&w.into_bytes()), Err(WireError::Malformed(_))));
    }
}
