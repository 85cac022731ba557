//! `tnm serve` integration suite: real client/server sessions over TCP
//! sockets.
//!
//! Four contracts are pinned here:
//!
//! * **Query fidelity across the wire** — count / report / enumerate /
//!   batch queries answered by the daemon are bit-identical to running
//!   the same [`Query`] locally, across engine kinds (including the
//!   sampler's f64 interval estimates, which travel as raw bits).
//! * **Incremental appends** — after any sequence of AppendEvents
//!   batches, every subscription's live counts are bit-identical to a
//!   from-scratch recount of the full graph; queries observe the
//!   appended events too.
//! * **Robustness** — wire-level garbage (bad magic, another wire
//!   version, oversized length headers, truncation mid-frame) costs the
//!   offending connection only; application-level errors (unknown graph,
//!   duplicate load, ineligible subscription, regressing append) answer
//!   an error frame and the connection stays usable. The daemon survives
//!   all of it.
//! * **Isolation** — concurrent clients loading and querying distinct
//!   graphs never observe each other's data.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use temporal_motifs::prelude::*;
use tnm_graph::wire::{read_frame, write_frame, FRAME_MAGIC, MAX_FRAME_PAYLOAD, WIRE_VERSION};
use tnm_motifs::engine::{ClientError, ServerHandle};

/// The serve protocol's error-response frame kind (documented in the
/// `tnm_motifs::engine` module docs alongside the request kinds).
const KIND_RESP_ERR: u8 = 63;

/// Seeded random event batch with duplicate timestamps, so appended
/// chunks regularly share boundary timestamps with the resident log.
fn random_events(seed: u64, nodes: u32, events: usize, horizon: i64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Vec::with_capacity(events);
    while batch.len() < events {
        let u: u32 = rng.gen_range(0..nodes);
        let v: u32 = rng.gen_range(0..nodes);
        if u == v {
            continue;
        }
        batch.push(Event::new(u, v, rng.gen_range(0i64..horizon)));
    }
    batch
}

/// Serializes the tests that send traced queries: the trace context is
/// process-global, so two traced requests in flight at once would
/// cross-attach spans.
static TRACED: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn traced_guard() -> std::sync::MutexGuard<'static, ()> {
    TRACED.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn spawn_server() -> (ServerHandle, SocketAddr) {
    let server = MotifServer::bind("127.0.0.1:0").expect("bind").spawn();
    let addr = server.addr();
    (server, addr)
}

#[test]
fn queries_round_trip_across_engine_kinds() {
    let events = random_events(11, 40, 1200, 4000);
    let graph = TemporalGraph::from_events(events.clone()).unwrap();
    let (server, addr) = spawn_server();
    let mut client = ServeClient::connect(addr).unwrap();
    let (total, nodes) = client.load_graph("g", &events, 0).unwrap();
    assert_eq!(total, graph.num_events() as u64);
    assert_eq!(nodes, graph.num_nodes());

    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(300));
    for (engine, threads) in
        [(EngineKind::Windowed, 1), (EngineKind::Windowed, 2), (EngineKind::Stream, 2)]
    {
        let q = Query::Count { cfg: cfg.clone(), engine, threads };
        let QueryResponse::Counts(counts) = client.query("g", &q).unwrap() else { panic!("shape") };
        assert_eq!(counts, engine.count(&graph, &cfg, threads), "engine {engine}×{threads}");
    }

    // The sampler's report survives the wire bit-identically: interval
    // estimates are f64s shipped as raw bits.
    let sampler = EngineKind::sampling(64, 7);
    let q = Query::Report { cfg: cfg.clone(), engine: sampler, threads: 2 };
    let QueryResponse::Report(served) = client.query("g", &q).unwrap() else { panic!("shape") };
    let local = sampler.report(&graph, &cfg, 2);
    assert!(!served.exact);
    assert_eq!(served.samples, local.samples);
    assert_eq!(served.counts, local.counts);
    assert_eq!(served.total.point.to_bits(), local.total.point.to_bits());
    assert_eq!(served.total.half_width.to_bits(), local.total.half_width.to_bits());

    // Enumeration truncates at the limit but keeps counting the total.
    let q =
        Query::Enumerate { cfg: cfg.clone(), engine: EngineKind::Windowed, threads: 1, limit: 5 };
    let QueryResponse::Instances { total, instances, truncated } = client.query("g", &q).unwrap()
    else {
        panic!("shape")
    };
    assert_eq!(total, EngineKind::Windowed.count(&graph, &cfg, 1).total());
    assert!(instances.len() <= 5);
    assert_eq!(truncated, total as usize > instances.len());

    // Batches answer every config, bit-identical to solo runs.
    let cfgs = vec![cfg.clone(), EnumConfig::new(2, 3).with_timing(Timing::only_w(100))];
    let q = Query::Batch { cfgs: cfgs.clone(), engine: EngineKind::Auto, threads: 2 };
    let QueryResponse::Batch(tables) = client.query("g", &q).unwrap() else { panic!("shape") };
    assert_eq!(tables.len(), cfgs.len());
    for (c, t) in cfgs.iter().zip(&tables) {
        assert_eq!(*t, EngineKind::Auto.count(&graph, c, 2));
    }

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn incremental_appends_match_recount_over_the_socket() {
    let mut all = random_events(23, 30, 900, 3000);
    all.sort_unstable();
    let (base, tail) = all.split_at(500);
    let (server, addr) = spawn_server();
    let mut client = ServeClient::connect(addr).unwrap();
    client.load_graph("live", base, 0).unwrap();

    let cfgs = [
        EnumConfig::new(3, 3).with_timing(Timing::only_w(250)),
        EnumConfig::new(2, 2).with_timing(Timing::only_w(40)),
        EnumConfig::for_signature(sig("010102")).with_timing(Timing::only_w(500)),
    ];
    let base_graph = TemporalGraph::from_events(base.to_vec()).unwrap();
    let mut subs = Vec::new();
    for cfg in &cfgs {
        let (id, counts) = client.subscribe("live", cfg).unwrap();
        assert_eq!(counts, EngineKind::Stream.count(&base_graph, cfg, 1), "initial counts");
        subs.push(id);
    }

    // Odd batch sizes, including a single event and a run that shares
    // its first timestamp with the resident log's tail.
    let mut sent: Vec<Event> = base.to_vec();
    for chunk in [&tail[..1], &tail[1..8], &tail[8..72], &tail[72..]] {
        let ack = client.append_events("live", chunk).unwrap();
        sent.extend_from_slice(chunk);
        assert_eq!(ack.total_events, sent.len() as u64);
        let full = TemporalGraph::from_events(sent.clone()).unwrap();
        for (i, cfg) in cfgs.iter().enumerate() {
            let (_, live) =
                ack.subscriptions.iter().find(|(id, _)| *id == subs[i]).expect("sub in ack");
            assert_eq!(
                *live,
                EngineKind::Stream.count(&full, cfg, 1),
                "subscription {i} after {} events",
                sent.len()
            );
        }
    }

    // Queries see the appended events too (the rebuilt graph).
    let q = Query::Count { cfg: cfgs[0].clone(), engine: EngineKind::Windowed, threads: 1 };
    let QueryResponse::Counts(counts) = client.query("live", &q).unwrap() else { panic!("shape") };
    let full = TemporalGraph::from_events(sent).unwrap();
    assert_eq!(counts, EngineKind::Windowed.count(&full, &cfgs[0], 1));

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn bad_peers_do_not_kill_the_daemon() {
    let events = random_events(37, 20, 400, 1500);
    let graph = TemporalGraph::from_events(events.clone()).unwrap();
    let (server, addr) = spawn_server();
    let mut good = ServeClient::connect(addr).unwrap();
    good.load_graph("g", &events, 0).unwrap();

    // Wire-level garbage: each gets an error frame (best effort) and
    // its connection closed — never the daemon.
    {
        // Bad magic (11 bytes = exactly one frame header).
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"XXXXGARBAGE").unwrap();
        assert!(read_frame(&mut s, MAX_FRAME_PAYLOAD).unwrap().is_some(), "error frame");
        assert!(read_frame(&mut s, MAX_FRAME_PAYLOAD).unwrap().is_none(), "then EOF");
    }
    {
        // Oversized length header: rejected before any allocation.
        let mut s = TcpStream::connect(addr).unwrap();
        let mut h = Vec::new();
        h.extend_from_slice(&FRAME_MAGIC);
        h.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        h.push(18);
        h.extend_from_slice(&u32::MAX.to_le_bytes());
        s.write_all(&h).unwrap();
        assert!(read_frame(&mut s, MAX_FRAME_PAYLOAD).unwrap().is_some(), "error frame");
        assert!(read_frame(&mut s, MAX_FRAME_PAYLOAD).unwrap().is_none(), "then EOF");
    }
    {
        // A frame from another wire version is refused by name, then
        // the connection closes.
        let mut s = TcpStream::connect(addr).unwrap();
        let mut h = Vec::new();
        h.extend_from_slice(&FRAME_MAGIC);
        h.extend_from_slice(&1u16.to_le_bytes());
        h.push(20);
        h.extend_from_slice(&0u32.to_le_bytes());
        s.write_all(&h).unwrap();
        let (kind, payload) = read_frame(&mut s, MAX_FRAME_PAYLOAD).unwrap().expect("error frame");
        assert_eq!(kind, KIND_RESP_ERR);
        let text = String::from_utf8_lossy(&payload);
        assert!(text.contains("unsupported wire version 1"), "{text}");
        assert!(read_frame(&mut s, MAX_FRAME_PAYLOAD).unwrap().is_none(), "then EOF");
    }
    {
        // Truncation mid-header: peer vanishes, daemon shrugs.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&FRAME_MAGIC[..2]).unwrap();
        drop(s);
    }
    {
        // A well-framed but unknown request kind is an *application*
        // error: the error frame comes back and the connection stays
        // open for the next frame.
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, 77, &[]).unwrap();
        let (kind, _) = read_frame(&mut s, MAX_FRAME_PAYLOAD).unwrap().expect("reply");
        assert_eq!(kind, KIND_RESP_ERR);
        write_frame(&mut s, 78, &[]).unwrap();
        let (kind, _) = read_frame(&mut s, MAX_FRAME_PAYLOAD).unwrap().expect("still open");
        assert_eq!(kind, KIND_RESP_ERR);
    }

    // Application-level errors on a healthy client: every one answers
    // Server(_) and the same connection keeps working afterwards.
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(200));
    let q = Query::Count { cfg: cfg.clone(), engine: EngineKind::Windowed, threads: 1 };
    assert!(matches!(good.query("missing", &q), Err(ClientError::Server(_))), "unknown graph");
    assert!(
        matches!(good.load_graph("g", &events, 0), Err(ClientError::Server(_))),
        "duplicate load"
    );
    let dc_cfg = EnumConfig::new(3, 3).with_timing(Timing::both(50, 200));
    assert!(
        matches!(good.subscribe("g", &dc_cfg), Err(ClientError::Server(_))),
        "ΔC configs are not stream-eligible"
    );
    let regressing = [Event::new(0, 1, i64::MIN / 2)];
    assert!(
        matches!(good.append_events("g", &regressing), Err(ClientError::Server(_))),
        "time-regressing append"
    );

    let QueryResponse::Counts(counts) = good.query("g", &q).unwrap() else { panic!("shape") };
    assert_eq!(counts, EngineKind::Windowed.count(&graph, &cfg, 1), "connection still usable");

    // And a brand-new client connects fine after all of the above.
    let mut fresh = ServeClient::connect(addr).unwrap();
    assert_eq!(fresh.stats().unwrap().graphs.len(), 1);
    fresh.shutdown().unwrap();
    server.join().unwrap();
}

/// The server's metrics registry under concurrent clients: once the
/// racing connections have drained, the snapshot is deterministic
/// (reading it twice gives identical results, and reading it does not
/// perturb it) and every counter/histogram adds up to exactly the work
/// the clients did.
#[test]
fn metrics_snapshots_are_deterministic_under_concurrent_clients() {
    let (server, addr) = spawn_server();
    let mut handles = Vec::new();
    for t in 0..3u64 {
        handles.push(std::thread::spawn(move || {
            let mut events = random_events(300 + t, 20, 450, 1800);
            events.sort_unstable();
            let (base, tail) = events.split_at(400);
            let mut client = ServeClient::connect(addr).unwrap();
            let name = format!("m-{t}");
            client.load_graph(&name, base, 0).unwrap();
            let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(120));
            // One subscription per client, advanced by one append.
            client.subscribe(&name, &cfg).unwrap();
            client.append_events(&name, tail).unwrap();
            for _ in 0..2 {
                let q = Query::Count { cfg: cfg.clone(), engine: EngineKind::Windowed, threads: 1 };
                client.query(&name, &q).unwrap();
            }
            let q = Query::Batch {
                cfgs: vec![cfg.clone(), EnumConfig::new(2, 2).with_timing(Timing::only_w(60))],
                engine: EngineKind::Windowed,
                threads: 1,
            };
            client.query(&name, &q).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Connection-close observations land asynchronously after the
    // client sockets drop; wait until all three are in before pinning
    // determinism.
    let mut client = ServeClient::connect(addr).unwrap();
    let mut snap = client.metrics().unwrap();
    for _ in 0..200 {
        if snap.histograms.get("serve.connection_frames").map_or(0, |h| h.count) >= 3 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        snap = client.metrics().unwrap();
    }

    // Idle server: consecutive reads are identical (metrics and stats
    // requests themselves are not counted as queries).
    assert_eq!(client.metrics().unwrap(), snap);
    assert_eq!(client.metrics().unwrap(), snap);

    // And the totals are exactly the work performed: 3 clients × 3
    // queries, 3 × 50 appended events, one subscription advance each.
    assert_eq!(snap.counters["serve.queries"], 9);
    assert_eq!(snap.counters["serve.appends"], 150);
    assert_eq!(snap.histograms["serve.query.count_ns"].count, 6);
    assert_eq!(snap.histograms["serve.query.batch_ns"].count, 3);
    assert_eq!(snap.histograms["serve.subscription_advance_ns"].count, 3);
    assert_eq!(snap.histograms["serve.connection_frames"].count, 3);

    // Stats reports the same totals.
    let stats = client.stats().unwrap();
    assert_eq!(stats.queries, 9);
    assert_eq!(stats.appends, 150);

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn concurrent_clients_are_isolated() {
    let (server, addr) = spawn_server();
    let mut handles = Vec::new();
    for t in 0..4u64 {
        handles.push(std::thread::spawn(move || {
            let events = random_events(100 + t, 25, 600, 2000);
            let graph = TemporalGraph::from_events(events.clone()).unwrap();
            let mut client = ServeClient::connect(addr).unwrap();
            let name = format!("client-{t}");
            client.load_graph(&name, &events, 0).unwrap();
            let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(150 + t as i64));
            for _ in 0..3 {
                let q = Query::Count { cfg: cfg.clone(), engine: EngineKind::Windowed, threads: 2 };
                let QueryResponse::Counts(counts) = client.query(&name, &q).unwrap() else {
                    panic!("shape")
                };
                assert_eq!(counts, EngineKind::Windowed.count(&graph, &cfg, 2), "client {t}");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut client = ServeClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.graphs.len(), 4, "all four graphs resident");
    assert!(stats.queries >= 12);
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// Opt-in query tracing over the wire: a traced count answers with a
/// well-formed span tree (one trace id, a `serve.query` root, the
/// engine's `query.count` phase beneath it, every parent resolving)
/// plus a per-request metrics delta — and the daemon's slow-query
/// table and flight recorder both log the request. Untraced queries on
/// the same connection stay trace-free.
#[test]
fn traced_queries_ship_span_trees_and_populate_query_logs() {
    let _traced = traced_guard();
    let events = random_events(31, 30, 800, 2500);
    let graph = TemporalGraph::from_events(events.clone()).unwrap();
    let server = MotifServer::bind_with(
        "127.0.0.1:0",
        ServeOptions { slow_queries: 4, flight_recorder: 8, ..ServeOptions::default() },
    )
    .unwrap()
    .spawn();
    let addr = server.addr();
    let mut client = ServeClient::connect(addr).unwrap();
    client.load_graph("g", &events, 0).unwrap();

    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(200));
    let q = Query::Count { cfg: cfg.clone(), engine: EngineKind::Windowed, threads: 1 };

    // Untraced baseline: same answer, no trace section.
    let QueryResponse::Counts(plain) = client.query("g", &q).unwrap() else { panic!("shape") };
    assert_eq!(plain, EngineKind::Windowed.count(&graph, &cfg, 1));

    let (resp, trace) = client.query_traced("g", &q).unwrap();
    let QueryResponse::Counts(counts) = resp else { panic!("shape") };
    assert_eq!(counts, plain, "tracing must not change the answer");
    assert!(!trace.spans.is_empty(), "a traced query must ship spans");
    let trace_id = trace.spans[0].trace_id;
    assert_ne!(trace_id, 0);
    assert!(trace.spans.iter().all(|s| s.trace_id == trace_id), "one trace id");
    let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    assert_eq!(roots[0].name, "serve.query");
    assert!(
        roots[0].args.iter().any(|(k, v)| k == "graph" && v == "g"),
        "the root span carries the graph name"
    );
    assert!(
        trace.spans.iter().any(|s| s.name == "query.count"),
        "the engine's root phase must appear under the serve root"
    );
    let ids: std::collections::BTreeSet<u64> = trace.spans.iter().map(|s| s.span_id).collect();
    for s in &trace.spans {
        assert!(s.parent_id == 0 || ids.contains(&s.parent_id), "dangling parent on {}", s.name);
    }
    // The per-request metrics delta counts this query (serve registry
    // metrics are always on, independent of TNM_OBS).
    assert_eq!(trace.metrics.counters.get("serve.queries"), Some(&1));

    // Traced subscriptions ship the same section shape.
    let (_id, counts, sub_trace) = client.subscribe_traced("g", &cfg).unwrap();
    assert_eq!(counts, plain);
    assert!(!sub_trace.spans.is_empty());
    assert!(sub_trace.spans.iter().any(|s| s.name == "serve.subscribe"));

    // Both query logs saw the traced and untraced queries; the slow
    // table is latency-descending and retains spans, the flight
    // recorder drops them (it is a cheap ring).
    let stats = client.stats().unwrap();
    assert_eq!(stats.flight.len(), 2, "both count queries in the flight recorder");
    assert!(stats.flight.iter().all(|e| e.spans.is_empty()));
    assert_eq!(stats.slow.len(), 2);
    assert!(stats.slow.windows(2).all(|w| w[0].latency_ns >= w[1].latency_ns));
    let traced_entry = stats.slow.iter().find(|e| e.trace_id == trace_id).unwrap();
    assert_eq!(traced_entry.kind, "count");
    assert_eq!(traced_entry.graph, "g");
    assert!(!traced_entry.spans.is_empty(), "slow-table entries keep their span trees");
    assert!(stats.slow.iter().any(|e| e.trace_id == 0), "the untraced query logs too");

    client.shutdown().unwrap();
    server.join().unwrap();
}

/// A loaded graph keeps the window index it builds: two windowed
/// queries against it record exactly one `index.build` span, and after
/// an append invalidates it, the rebuilt graph builds its own once more.
/// Spans are tallied by their `events` argument — graph sizes no other
/// test loads — so a concurrent test's build can never land in the
/// tally.
#[test]
fn loaded_graphs_build_their_window_index_once() {
    let _traced = traced_guard();
    let mut events = random_events(59, 25, 618, 2000);
    events.sort_unstable();
    let (base, tail) = events.split_at(611);
    let (server, addr) = spawn_server();
    let mut client = ServeClient::connect(addr).unwrap();
    client.load_graph("g", base, 0).unwrap();
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(200));
    let q = Query::Count { cfg: cfg.clone(), engine: EngineKind::Windowed, threads: 1 };
    let builds = |client: &mut ServeClient, graph_events: usize| {
        let (resp, trace) = client.query_traced("g", &q).unwrap();
        let QueryResponse::Counts(counts) = resp else { panic!("shape") };
        let n = trace
            .spans
            .iter()
            .filter(|s| s.name == "index.build")
            .filter(|s| s.args.iter().any(|(k, v)| k == "events" && *v == graph_events.to_string()))
            .count();
        (counts, n)
    };

    let (first, first_builds) = builds(&mut client, base.len());
    let (second, second_builds) = builds(&mut client, base.len());
    let base_graph = TemporalGraph::from_events(base.to_vec()).unwrap();
    assert_eq!(first, EngineKind::Stream.count(&base_graph, &cfg, 1));
    assert_eq!(second, first);
    assert_eq!(first_builds + second_builds, 1, "one index build per loaded graph");

    client.append_events("g", tail).unwrap();
    let (grown, grown_builds) = builds(&mut client, events.len());
    let full = TemporalGraph::from_events(events.clone()).unwrap();
    assert_eq!(grown, EngineKind::Stream.count(&full, &cfg, 1));
    assert_eq!(grown_builds, 1, "the rebuilt graph builds its own index");

    client.shutdown().unwrap();
    server.join().unwrap();
}

/// The daemon's `max_threads` ceiling caps the sharded engine's worker
/// processes too: a traced query asking for 64 workers from a daemon
/// capped at 2 spawns at most 2 of them, and still counts exactly.
#[test]
fn worker_processes_are_clamped_to_the_thread_ceiling() {
    let _traced = traced_guard();
    let events = random_events(41, 20, 800, 2000);
    let graph = TemporalGraph::from_events(events.clone()).unwrap();
    let server = MotifServer::bind_with(
        "127.0.0.1:0",
        ServeOptions { max_threads: 2, ..ServeOptions::default() },
    )
    .unwrap()
    .spawn();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.load_graph("g", &events, 0).unwrap();

    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(60));
    let q = Query::Count { cfg: cfg.clone(), engine: EngineKind::sharded(20, 64), threads: 2 };
    let (resp, trace) = client.query_traced("g", &q).unwrap();
    let QueryResponse::Counts(counts) = resp else { panic!("shape") };
    assert_eq!(counts, EngineKind::Windowed.count(&graph, &cfg, 1));
    let spawns = trace.spans.iter().filter(|s| s.name == "distributed.spawn").count();
    assert!((1..=2).contains(&spawns), "{spawns} worker spawns under a ceiling of 2");

    client.shutdown().unwrap();
    server.join().unwrap();
}

/// Minimal std-only HTTP GET against the daemon's scrape surface.
fn scrape(addr: SocketAddr, path: &str) -> (String, String) {
    use std::io::Read;
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: tnm\r\nConnection: close\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("malformed HTTP response");
    (head.lines().next().unwrap_or("").to_string(), body.to_string())
}

/// Polls the daemon's sample ring over the wire until a window holds
/// the `serve.queries` increment (on a busy host the first window can
/// land before the query), then checks that the windows' deltas sum to
/// the one query served.
fn ring_after_one_query(client: &mut ServeClient) {
    let mut points = Vec::new();
    for _ in 0..200 {
        points = client.timeseries().unwrap();
        if points.iter().any(|p| p.delta.counters.contains_key("serve.queries")) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(!points.is_empty(), "the sampler must record within 2 s");
    assert!(points.iter().all(|p| p.at_unix_ms > 0));
    let total_queries: u64 =
        points.iter().filter_map(|p| p.delta.counters.get("serve.queries")).sum();
    assert_eq!(total_queries, 1, "the windows' deltas must sum to the one query");
}

/// The HTTP scrape surface: `/metrics` serves Prometheus text,
/// `/healthz` answers while wire clients are mid-session, and
/// `/timeseries` serves the sample ring as JSON — all on a separate
/// listener that never speaks the framed wire protocol.
#[test]
fn http_scrape_surface_serves_metrics_health_and_timeseries() {
    let events = random_events(37, 25, 600, 2000);
    let server = MotifServer::bind_with(
        "127.0.0.1:0",
        ServeOptions { http_port: Some(0), sample_interval_ms: 25, ..ServeOptions::default() },
    )
    .unwrap()
    .spawn();
    let addr = server.addr();
    let http = server.http_addr().expect("http_port requested, so the listener must exist");

    // A wire client stays mid-session while every scrape runs.
    let mut client = ServeClient::connect(addr).unwrap();
    client.load_graph("g", &events, 0).unwrap();
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(150));
    let q = Query::Count { cfg, engine: EngineKind::Windowed, threads: 1 };
    let QueryResponse::Counts(_) = client.query("g", &q).unwrap() else { panic!("shape") };

    let (status, body) = scrape(http, "/metrics");
    assert!(status.contains(" 200 "), "/metrics answered `{status}`");
    assert!(
        body.lines().any(|l| l == "serve_queries 1"),
        "Prometheus text must carry the serve counters:\n{body}"
    );
    assert!(body.contains("# TYPE serve_queries counter"));

    let (status, body) = scrape(http, "/healthz");
    assert!(status.contains(" 200 "));
    assert_eq!(body, "ok\n");

    // The ring read over the wire holds the query's window, and the
    // JSON scrape of the same ring shows it too.
    ring_after_one_query(&mut client);
    let (status, body) = scrape(http, "/timeseries");
    assert!(status.contains(" 200 "), "/timeseries answered `{status}`");
    assert!(body.contains("\"serve.queries\":1"), "no window of the query in:\n{body}");

    let (status, _) = scrape(http, "/nope");
    assert!(status.contains(" 404 "));

    // The wire connection survived all of it.
    let stats = client.stats().unwrap();
    assert_eq!(stats.queries, 1);
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// The sample ring travels over the wire protocol, so a daemon without
/// the HTTP scrape listener still serves it — what `tnm top` reads.
#[test]
fn timeseries_is_served_over_the_wire_without_an_http_listener() {
    let server = MotifServer::bind_with(
        "127.0.0.1:0",
        ServeOptions { http_port: None, sample_interval_ms: 25, ..ServeOptions::default() },
    )
    .unwrap()
    .spawn();
    assert!(server.http_addr().is_none());
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.load_graph("g", &random_events(41, 20, 300, 1000), 0).unwrap();
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(100));
    let q = Query::Count { cfg, engine: EngineKind::Windowed, threads: 1 };
    let QueryResponse::Counts(_) = client.query("g", &q).unwrap() else { panic!("shape") };
    ring_after_one_query(&mut client);
    client.shutdown().unwrap();
    server.join().unwrap();
}
