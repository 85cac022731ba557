//! Message schemas of the `tnm serve` client ↔ server protocol.
//!
//! Every message is one [`tnm_graph::wire`] frame (same magic, version,
//! and length validation as the coordinator ↔ worker protocol) carrying
//! a [`Request`] or a [`Response`]. The frame's kind byte is the
//! message's `wire_enum!` tag: the two `wire_enum!` lists below define
//! the kinds, and this table mirrors them. Requests start at 16 and
//! responses at 32, while worker kinds occupy `1..=4`, so a frame can
//! never be interpreted under the wrong protocol.
//!
//! | kind | message | payload |
//! |---|---|---|
//! | 16 | `Request::Load` | graph name, node-id space, event block |
//! | 17 | `Request::Append` | graph name + event block (time-monotone batch) |
//! | 18 | `Request::Query` | graph name + a full [`Query`] + trace flag |
//! | 19 | `Request::Subscribe` | graph name + a stream-eligible [`EnumConfig`] + trace flag |
//! | 20 | `Request::Stats` | empty |
//! | 21 | `Request::Shutdown` | empty: stop accepting, drain, exit |
//! | 22 | `Request::Metrics` | empty |
//! | 23 | `Request::TimeSeries` | empty |
//! | 32 | `Response::Loaded` | echoed name + event/node totals |
//! | 33 | `Response::Appended` | [`AppendAck`]: new event total + every subscription's live counts |
//! | 34 | `Response::Query` | the [`QueryResponse`] + presence-tagged [`TraceReply`] |
//! | 35 | `Response::Subscribed` | subscription id + initial counts + presence-tagged [`TraceReply`] |
//! | 36 | `Response::Stats` | [`ServerStats`] |
//! | 37 | `Response::Bye` | empty: shutdown acknowledged |
//! | 38 | `Response::Metrics` | the server's full [`tnm_obs::Snapshot`] |
//! | 39 | `Response::TimeSeries` | the sampler's retained [`tnm_obs::TimePoint`] windows, oldest first |
//! | 63 | `Response::Error` | a display string; the connection stays usable |
//!
//! Each layout is written once: a variant's field list here, or the
//! `Wire` impl next to the type it carries ([`Query`], [`EnumConfig`],
//! [`MotifCounts`], ...), which the worker protocol shares, so the two
//! protocols cannot drift on how they travel.

use crate::count::MotifCounts;
use crate::engine::query::{Query, QueryResponse};
use crate::engine::EnumConfig;
use std::borrow::Cow;
use tnm_graph::{wire_enum, wire_struct, Event};

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
wire_struct!(TraceReply { spans, metrics });

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
wire_struct!(QueryLogEntry { kind, graph, latency_ns, trace_id, at_unix_ms, spans });

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
wire_struct!(AppendAck { total_events, subscriptions });

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
wire_struct!(GraphStat { name, events, nodes, subscriptions });

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
wire_struct!(ServerStats { queries, appends, graphs, slow, flight });

/// A client → server message. Event batches are borrowed on the client
/// side, so a load or append ships the caller's slice without a copy.
#[derive(Debug, PartialEq)]
pub(crate) enum Request<'a> {
    /// Load a graph into the registry under a name.
    Load { name: String, num_nodes: u32, events: Cow<'a, [Event]> },
    /// Append a time-monotone event batch to a loaded graph.
    Append { name: String, events: Cow<'a, [Event]> },
    /// Run a [`Query`] against a loaded graph.
    Query { name: String, query: Query, trace: bool },
    /// Register an incremental subscription on a loaded graph.
    Subscribe { name: String, cfg: EnumConfig, trace: bool },
    /// Server statistics.
    Stats,
    /// Orderly server shutdown.
    Shutdown,
    /// The server's full metrics snapshot (Prometheus-renderable).
    Metrics,
    /// The sampler's ring of windowed metric deltas.
    TimeSeries,
}
wire_enum!(Request<'a> {
    16 => Load { name, num_nodes, events },
    17 => Append { name, events },
    18 => Query { name, query, trace },
    19 => Subscribe { name, cfg, trace },
    20 => Stats,
    21 => Shutdown,
    22 => Metrics,
    23 => TimeSeries,
});

/// A server → client message: one per request.
#[derive(Debug)]
pub(crate) enum Response {
    /// Answer to `Load`: the echoed name, event total, node-id space.
    Loaded { name: String, events: u64, nodes: u32 },
    /// Answer to `Append`.
    Appended(AppendAck),
    /// Answer to `Query`; the trace is present iff the request asked.
    Query { response: QueryResponse, trace: Option<TraceReply> },
    /// Answer to `Subscribe`: subscription id, initial counts, trace.
    Subscribed { id: u32, counts: MotifCounts, trace: Option<TraceReply> },
    /// Answer to `Stats`.
    Stats(ServerStats),
    /// Answer to `Shutdown`.
    Bye,
    /// Answer to `Metrics`.
    Metrics(tnm_obs::Snapshot),
    /// Answer to `TimeSeries`: the retained windows, oldest first.
    TimeSeries(Vec<tnm_obs::TimePoint>),
    /// Any request the server understood but could not serve; the
    /// connection stays open.
    Error(String),
}
wire_enum!(Response {
    32 => Loaded { name, events, nodes },
    33 => Appended(ack),
    34 => Query { response, trace },
    35 => Subscribed { id, counts, trace },
    36 => Stats(stats),
    37 => Bye,
    38 => Metrics(snapshot),
    39 => TimeSeries(points),
    63 => Error(message),
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Timing;
    use crate::engine::query::QueryInstance;
    use crate::engine::report::{EngineReport, Estimate};
    use crate::engine::wire_suite::assert_prefixes_rejected;
    use crate::engine::EngineKind;
    use crate::notation::sig;
    use std::collections::HashMap;
    use tnm_graph::wire::{decode, encode, Message, Wire, WireError, WireWriter};

    fn table(rows: &[(&str, u64)]) -> MotifCounts {
        let mut c = MotifCounts::new();
        for &(s, n) in rows {
            c.add(sig(s), n);
        }
        c
    }

    #[test]
    fn kind_spaces_do_not_collide_with_the_worker_protocol() {
        let cfg = EnumConfig::new(3, 3);
        let query = Query::Count { cfg: cfg.clone(), engine: EngineKind::Auto, threads: 1 };
        let events = Cow::Borrowed(&[][..]);
        let requests = [
            Request::Load { name: "g".into(), num_nodes: 0, events: events.clone() },
            Request::Append { name: "g".into(), events },
            Request::Query { name: "g".into(), query, trace: false },
            Request::Subscribe { name: "g".into(), cfg, trace: false },
            Request::Stats,
            Request::Shutdown,
            Request::Metrics,
            Request::TimeSeries,
        ];
        let counts = MotifCounts::new();
        let responses = [
            Response::Loaded { name: "g".into(), events: 0, nodes: 0 },
            Response::Appended(AppendAck { total_events: 0, subscriptions: Vec::new() }),
            Response::Query { response: QueryResponse::Counts(counts.clone()), trace: None },
            Response::Subscribed { id: 0, counts, trace: None },
            Response::Stats(ServerStats::default()),
            Response::Bye,
            Response::Metrics(Default::default()),
            Response::TimeSeries(Vec::new()),
            Response::Error(String::new()),
        ];
        let serve_kinds: Vec<u8> =
            requests.iter().map(Message::kind).chain(responses.iter().map(Message::kind)).collect();
        // The tag is the first encoded byte, which frames carry as kind.
        for r in &requests {
            assert_eq!(encode(r)[0], r.kind());
        }
        for r in &responses {
            assert_eq!(encode(r)[0], r.kind());
        }
        for &k in &serve_kinds {
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
                let request = Request::Query { name: "g".into(), query: q, trace };
                assert_eq!(decode::<Request<'_>>(&encode(&request)).unwrap(), request);
            }
        }
    }

    fn query_reply(response: &QueryResponse, trace: Option<&TraceReply>) -> Vec<u8> {
        encode(&Response::Query { response: response.clone(), trace: trace.cloned() })
    }

    fn unpack_query_reply(bytes: &[u8]) -> Result<(QueryResponse, Option<TraceReply>), WireError> {
        match decode(bytes)? {
            Response::Query { response, trace } => Ok((response, trace)),
            other => panic!("shape {other:?}"),
        }
    }

    fn subscribed(id: u32, counts: &MotifCounts, trace: Option<&TraceReply>) -> Vec<u8> {
        encode(&Response::Subscribed { id, counts: counts.clone(), trace: trace.cloned() })
    }

    fn unpack_subscribed(
        bytes: &[u8],
    ) -> Result<(u32, MotifCounts, Option<TraceReply>), WireError> {
        match decode(bytes)? {
            Response::Subscribed { id, counts, trace } => Ok((id, counts, trace)),
            other => panic!("shape {other:?}"),
        }
    }

    fn reply(resp: &QueryResponse) -> QueryResponse {
        let (back, trace) = unpack_query_reply(&query_reply(resp, None)).unwrap();
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
        let payload = query_reply(&QueryResponse::Counts(counts.clone()), Some(&trace));
        let (QueryResponse::Counts(back), Some(back_trace)) = unpack_query_reply(&payload).unwrap()
        else {
            panic!("shape")
        };
        assert_eq!((back, back_trace), (counts.clone(), trace.clone()));
        let payload = subscribed(4, &counts, Some(&trace));
        assert_eq!(unpack_subscribed(&payload).unwrap(), (4, counts.clone(), Some(trace)));
        assert_eq!(unpack_subscribed(&subscribed(0, &counts, None)).unwrap().2, None);
    }

    #[test]
    fn acks_and_stats_roundtrip() {
        let ack = AppendAck {
            total_events: 1234,
            subscriptions: vec![(0, table(&[("01", 5)])), (3, MotifCounts::new())],
        };
        assert_eq!(decode::<AppendAck>(&encode(&ack)).unwrap(), ack);

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
        assert_eq!(decode::<ServerStats>(&encode(&stats)).unwrap(), stats);
        assert_eq!(decode::<ServerStats>(&encode(&stats_with_log())).unwrap(), stats_with_log());
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
        let request = encode(&Request::Query { name: "g".into(), query, trace: true });
        assert_prefixes_rejected::<Request<'_>>(&request);
        let sharded = Query::Count {
            cfg: EnumConfig::new(3, 3).with_timing(Timing::only_w(10)),
            engine: EngineKind::sharded(64, 3),
            threads: 2,
        };
        let request_sharded = Request::Query { name: "g".into(), query: sharded, trace: false };
        assert_prefixes_rejected::<Request<'_>>(&encode(&request_sharded));
        let mut padded = request.clone();
        padded.push(0);
        assert!(matches!(decode::<Request<'_>>(&padded), Err(WireError::TrailingBytes { .. })));

        let counts = table(&[("0110", 3)]);
        let resp = QueryResponse::Counts(counts.clone());
        assert_prefixes_rejected::<Response>(&query_reply(&resp, None));
        assert_prefixes_rejected::<Response>(&query_reply(&resp, Some(&sample_trace())));
        assert_prefixes_rejected::<Response>(&subscribed(1, &counts, Some(&sample_trace())));
        assert_prefixes_rejected::<Response>(&encode(&Response::Stats(stats_with_log())));
        assert!(matches!(decode::<Response>(&[34, 99]), Err(WireError::Malformed(_))));

        // A report naming an engine no engine reports cannot decode
        // (the &'static str mapping is a closed set).
        let mut w = WireWriter::new();
        34u8.put(&mut w); // Response::Query
        2u8.put(&mut w); // QueryResponse::Report
        "definitely-not-an-engine".to_string().put(&mut w);
        assert!(matches!(decode::<Response>(&w.into_bytes()), Err(WireError::Malformed(_))));
    }
}
