//! Golden frames and a seeded fuzzer for both wire protocols.
//!
//! `testdata/golden_frames.hex` holds one frame sequence per message
//! shape (every serve request and response, traced and untraced, the
//! worker job, counts, chunked induced and shutdown frames, and one
//! event block), one `name hex` line each. The file was written by the
//! hand-written encoders that preceded the `Wire` trait; a message kind
//! added since appends its lines at the end, and no line is ever
//! regenerated: [`golden_frames_match_the_fixture`] pins today's
//! encoders to those bytes, so a layout change cannot slip in without
//! a [`WIRE_VERSION`](tnm_graph::wire::WIRE_VERSION) bump.
//!
//! [`fuzz`] is written once against `T: Wire` and run for every message
//! type: bit flips, truncations, lying length fields and splices of
//! valid encodings must either fail to decode or decode to a value that
//! re-encodes to the identical bytes, and must never panic. Tier-1 runs
//! a few hundred cases per type; `cargo test --release -p tnm-motifs
//! --lib wire_fuzz_full -- --ignored` runs 10⁵ per type.

use crate::constraints::Timing;
use crate::count::MotifCounts;
use crate::engine::distributed::protocol::{
    reply_frames, InducedGroup, ReplyFrame, ReplyMetrics, WorkerJob, WorkerMsg, WorkerReply,
    INDUCED_GROUP_BATCH,
};
use crate::engine::report::{EngineReport, Estimate};
use crate::engine::serve::protocol::*;
use crate::engine::{EngineKind, EnumConfig, Query, QueryInstance, QueryResponse};
use crate::notation::{sig, MotifSignature};
use std::borrow::Cow;
use std::collections::HashMap;
use tnm_graph::wire::{
    decode, decode_events, encode, encode_events, read_msg, read_raw_msg, write_msg, Message, Wire,
    WireError,
};
use tnm_graph::Event;

const FIXTURE: &str = include_str!("../../testdata/golden_frames.hex");

fn frames<M: Message>(msgs: &[M]) -> Vec<u8> {
    let mut out = Vec::new();
    for m in msgs {
        write_msg(&mut out, m).unwrap();
    }
    out
}

fn table(rows: &[(&str, u64)]) -> MotifCounts {
    let mut c = MotifCounts::new();
    for &(s, n) in rows {
        c.add(sig(s), n);
    }
    c
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

fn snapshot() -> tnm_obs::Snapshot {
    let r = tnm_obs::Registry::new();
    r.counter("serve.queries").add(3);
    r.gauge("shard.resident_events").set(512);
    let h = r.histogram("serve.query.count_ns");
    h.record(0);
    h.record(52_000);
    h.record(u64::MAX);
    r.snapshot()
}

/// A sampler ring: a first window (interval 0) and an empty second one.
fn time_points() -> Vec<tnm_obs::TimePoint> {
    vec![
        tnm_obs::TimePoint { at_unix_ms: 1_700_000_000_123, interval_ms: 0, delta: snapshot() },
        tnm_obs::TimePoint {
            at_unix_ms: 1_700_000_001_123,
            interval_ms: 1_000,
            delta: Default::default(),
        },
    ]
}

fn trace() -> TraceReply {
    TraceReply {
        spans: vec![span("serve.query", 1, 0), span("query.count", 2, 1)],
        metrics: snapshot(),
    }
}

fn events() -> Vec<Event> {
    vec![
        Event::new(0u32, 1u32, 5),
        Event::new(1u32, 2u32, 5),
        Event::with_duration(2u32, 0u32, 9, 4),
    ]
}

fn configs() -> Vec<EnumConfig> {
    let mut aware = EnumConfig::new(2, 2).with_timing(Timing::only_c(5));
    aware.duration_aware = true;
    vec![
        EnumConfig::new(3, 3).with_timing(Timing::only_w(3_000)),
        EnumConfig::for_signature(sig("011202")).with_timing(Timing::only_w(10)),
        EnumConfig::new(4, 4).with_timing(Timing::both(20, 45)).with_consecutive(true),
        EnumConfig::new(3, 3).with_timing(Timing::only_c(1_500)).with_static_induced(true),
        EnumConfig::new(3, 3).with_timing(Timing::only_w(60)).with_constrained(true),
        EnumConfig::new(3, 3).exact_nodes(3),
        aware,
    ]
}

fn engines() -> Vec<(&'static str, EngineKind)> {
    vec![
        ("windowed", EngineKind::Windowed),
        ("stream", EngineKind::Stream),
        ("sharded_512_0", EngineKind::sharded(512, 0)),
        ("sharded_700_3", EngineKind::sharded(700, 3)),
        ("sampling", EngineKind::sampling(64, 42)),
        ("auto", EngineKind::Auto),
    ]
}

fn queries(engine: EngineKind) -> Vec<(&'static str, Query)> {
    let cfg = configs()[0].clone();
    vec![
        ("count", Query::Count { cfg: cfg.clone(), engine, threads: 4 }),
        ("report", Query::Report { cfg: cfg.clone(), engine, threads: 1 }),
        ("enumerate", Query::Enumerate { cfg, engine, threads: 2, limit: 100 }),
        ("batch", Query::Batch { cfgs: configs(), engine, threads: 8 }),
    ]
}

fn responses() -> Vec<(&'static str, QueryResponse)> {
    let counts = table(&[("010102", 7), ("011202", 123_456), ("0110", 0)]);
    let mut estimates = HashMap::new();
    estimates.insert(sig("010102"), Estimate { point: 6.5, half_width: 1.25 });
    estimates.insert(sig("011202"), Estimate { point: 0.25, half_width: 0.5 });
    let sampled = EngineReport::from_estimates(
        "sampling",
        50,
        estimates,
        Estimate { point: 6.75, half_width: 1.5 },
    );
    vec![
        ("counts", QueryResponse::Counts(counts.clone())),
        (
            "report_exact",
            QueryResponse::Report(EngineReport::from_exact("windowed", counts.clone())),
        ),
        ("report_sampled", QueryResponse::Report(sampled)),
        (
            "instances",
            QueryResponse::Instances {
                total: 9,
                truncated: true,
                instances: vec![
                    QueryInstance { signature: sig("011202"), events: vec![0, 3, 5] },
                    QueryInstance { signature: sig("0102"), events: vec![1, 2] },
                ],
            },
        ),
        ("batch", QueryResponse::Batch(vec![counts, MotifCounts::new()])),
    ]
}

fn stats() -> ServerStats {
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
        appends: 40,
        graphs: vec![
            GraphStat { name: "CollegeMsg".into(), events: 59_835, nodes: 1_899, subscriptions: 2 },
            GraphStat { name: "g".into(), events: 3, nodes: 4, subscriptions: 0 },
        ],
        slow: vec![entry],
        flight: vec![flight],
    }
}

fn job(traced: bool) -> WorkerJob {
    WorkerJob {
        shard_id: 7,
        shard_path: "/tmp/tnm-shards/shard_7.events".into(),
        num_nodes: 1_899,
        own_lo: 120,
        own_hi: 640,
        threads: 2,
        want_induced: true,
        cfg: EnumConfig::for_signature(sig("011202"))
            .with_timing(Timing::both(20, 45))
            .with_static_induced(true)
            .with_consecutive(true),
        trace: traced.then_some(tnm_obs::TraceCtx { trace_id: 0xFACE, parent_span: 42 }),
    }
}

fn metrics(traced: bool) -> ReplyMetrics {
    ReplyMetrics {
        wall_ns: 987_654_321,
        obs: snapshot(),
        spans: if traced {
            vec![span("walk.shard", 1, 0), span("walk.worker0", 2, 1)]
        } else {
            vec![]
        },
    }
}

fn induced(shard_id: u32, n: usize) -> WorkerReply {
    let groups = (0..n)
        .map(|i| InducedGroup {
            signature: sig("011202"),
            nodes: vec![i as u32, i as u32 + 1, i as u32 + 2],
            covered: vec![(i as u32, i as u32 + 1), (i as u32 + 1, i as u32 + 2)],
            count: 1 + i as u64,
        })
        .collect();
    WorkerReply::Induced { shard_id, groups }
}

fn traced_name(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "untraced"
    }
}

/// Every fixture entry, encoded by today's code, in fixture order.
fn golden() -> Vec<(String, Vec<u8>)> {
    let mut out = vec![("event_block".to_string(), encode_events(&events()))];
    let mut push = |name: String, bytes: Vec<u8>| out.push((name, bytes));
    let batch: Cow<'_, [Event]> = Cow::Owned(events());
    let (name, num_nodes) = ("g".to_string(), 7);
    push(
        "serve.req.load".into(),
        frames(&[Request::Load { name, num_nodes, events: batch.clone() }]),
    );
    push("serve.req.append".into(), frames(&[Request::Append { name: "g".into(), events: batch }]));
    for (ename, engine) in engines() {
        for (qname, query) in queries(engine) {
            for trace in [false, true] {
                let request =
                    Request::Query { name: "CollegeMsg".into(), query: query.clone(), trace };
                let t = traced_name(trace);
                push(format!("serve.req.query.{ename}.{qname}.{t}"), frames(&[request]));
            }
        }
    }
    for trace in [false, true] {
        let request = Request::Subscribe { name: "g".into(), cfg: configs()[0].clone(), trace };
        push(format!("serve.req.subscribe.{}", traced_name(trace)), frames(&[request]));
    }
    push("serve.req.stats".into(), frames(&[Request::Stats]));
    push("serve.req.shutdown".into(), frames(&[Request::Shutdown]));
    push("serve.req.metrics".into(), frames(&[Request::Metrics]));
    let loaded = Response::Loaded { name: "g".into(), events: 59_835, nodes: 1_899 };
    push("serve.resp.loaded".into(), frames(&[loaded]));
    let ack = AppendAck {
        total_events: 1234,
        subscriptions: vec![(0, table(&[("01", 5)])), (3, MotifCounts::new())],
    };
    push("serve.resp.appended".into(), frames(&[Response::Appended(ack)]));
    for (rname, response) in responses() {
        for traced in [false, true] {
            let reply = Response::Query { response: response.clone(), trace: traced.then(trace) };
            push(format!("serve.resp.query.{rname}.{}", traced_name(traced)), frames(&[reply]));
        }
    }
    let counts = table(&[("010102", 7), ("011202", 123_456)]);
    for traced in [false, true] {
        let reply =
            Response::Subscribed { id: 4, counts: counts.clone(), trace: traced.then(trace) };
        push(format!("serve.resp.subscribed.{}", traced_name(traced)), frames(&[reply]));
    }
    push("serve.resp.stats".into(), frames(&[Response::Stats(stats())]));
    push("serve.resp.stats_empty".into(), frames(&[Response::Stats(ServerStats::default())]));
    push("serve.resp.bye".into(), frames(&[Response::Bye]));
    push("serve.resp.metrics".into(), frames(&[Response::Metrics(snapshot())]));
    let error = Response::Error("no graph named `x` is loaded".into());
    push("serve.resp.error".into(), frames(&[error]));
    push("worker.job.untraced".into(), frames(&[WorkerMsg::Job(job(false))]));
    push("worker.job.traced".into(), frames(&[WorkerMsg::Job(job(true))]));
    let reply = WorkerReply::Counts { shard_id: 5, counts };
    for traced in [false, true] {
        let reply = reply_frames(reply.clone(), metrics(traced), INDUCED_GROUP_BATCH);
        push(format!("worker.reply.counts.{}", traced_name(traced)), frames(&reply));
    }
    push(
        "worker.reply.induced.chunked".into(),
        frames(&reply_frames(induced(4, 5), metrics(true), 2)),
    );
    let empty = reply_frames(induced(3, 0), ReplyMetrics::default(), INDUCED_GROUP_BATCH);
    push("worker.reply.induced.empty".into(), frames(&empty));
    push("worker.shutdown".into(), frames(&[WorkerMsg::Shutdown]));
    push("serve.req.timeseries".into(), frames(&[Request::TimeSeries]));
    push("serve.resp.timeseries".into(), frames(&[Response::TimeSeries(time_points())]));
    out
}

fn fixture() -> Vec<(&'static str, Vec<u8>)> {
    FIXTURE
        .lines()
        .map(|line| {
            let (name, hex) = line.split_once(' ').expect("`name hex` line");
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex byte"))
                .collect();
            (name, bytes)
        })
        .collect()
}

#[test]
fn golden_frames_match_the_fixture() {
    let fixture = fixture();
    let golden = golden();
    assert_eq!(fixture.len(), golden.len(), "one fixture line per message shape");
    for ((name, want), (got_name, got)) in fixture.iter().zip(&golden) {
        assert_eq!(*name, got_name, "fixture order");
        assert_eq!(got, want, "{name}: encoder drifted from the golden bytes");
    }
    assert_eq!(tnm_graph::wire::WIRE_VERSION, 3);
}

/// Test helper for both protocols: every strict prefix of a message
/// must fail to decode, since with all fields required no legal short
/// form exists, while the full encoding decodes.
pub(crate) fn assert_prefixes_rejected<T: Wire>(bytes: &[u8]) {
    for cut in 0..bytes.len() {
        assert!(decode::<T>(&bytes[..cut]).is_err(), "prefix {cut} accepted");
    }
    assert!(decode::<T>(bytes).is_ok(), "full encoding rejected");
}

/// Decodes every message of a frame stream and writes it back.
fn reframe<M: Message>(mut stream: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    while let Some(msg) = read_msg::<_, M>(&mut stream, 1 << 20).unwrap() {
        write_msg(&mut out, &msg).unwrap();
    }
    out
}

#[test]
fn golden_frames_decode_and_reencode_identically() {
    for (name, bytes) in fixture() {
        let again = match name.split('.').take(2).collect::<Vec<_>>()[..] {
            ["event_block"] => encode_events(&decode_events(&bytes).unwrap()),
            ["serve", "req"] => reframe::<Request<'_>>(&bytes),
            ["serve", "resp"] => reframe::<Response>(&bytes),
            ["worker", "job" | "shutdown"] => reframe::<WorkerMsg>(&bytes),
            ["worker", "reply"] => reframe::<ReplyFrame>(&bytes),
            _ => panic!("unclassified fixture entry {name}"),
        };
        assert_eq!(again, bytes, "{name}");
    }
}

/// The surviving engine kinds keep their tags, and the tags of the two
/// retired walk kinds (0 and 2) are refused rather than read as another
/// kind.
#[test]
fn retired_engine_tags_are_refused() {
    for (kind, tag) in [
        (EngineKind::Windowed, 1u8),
        (EngineKind::Stream, 3),
        (EngineKind::sharded(1, 2), 4),
        (EngineKind::sampling(1, 2), 5),
        (EngineKind::Auto, 6),
    ] {
        assert_eq!(encode(&kind)[0], tag, "{kind}");
        assert_eq!(decode::<EngineKind>(&encode(&kind)).unwrap(), kind);
    }
    for tag in [0u8, 2, 7] {
        let err = decode::<EngineKind>(&[tag]).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "tag {tag}: {err:?}");
    }
}

/// SplitMix64: a seeded, dependency-free generator for the mutations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One mutation of a valid encoding: a bit flip, a truncation, a lying
/// `u32` length or count field, a splice with another seed, or a byte
/// inserted or overwritten.
fn mutate(rng: &mut Rng, seeds: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = seeds[rng.below(seeds.len())].clone();
    for _ in 0..1 + rng.below(3) {
        let len = bytes.len();
        match rng.below(6) {
            0 if len > 0 => {
                let i = rng.below(len);
                bytes[i] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(rng.below(len + 1)),
            2 if len >= 4 => {
                let lies = [0, 1, 2, 255, 65_535, u32::MAX, u32::MAX - 1, len as u32];
                let lie =
                    if rng.below(4) == 0 { rng.next() as u32 } else { lies[rng.below(lies.len())] };
                let at = rng.below(len - 3);
                bytes[at..at + 4].copy_from_slice(&lie.to_le_bytes());
            }
            3 => {
                let other = &seeds[rng.below(seeds.len())];
                bytes.truncate(rng.below(len + 1));
                bytes.extend_from_slice(&other[rng.below(other.len() + 1)..]);
            }
            4 => bytes.insert(rng.below(len + 1), rng.next() as u8),
            _ if len > 0 => {
                let i = rng.below(len);
                bytes[i] = rng.next() as u8;
            }
            _ => {}
        }
    }
    bytes
}

/// Runs `cases` mutated inputs through `T`'s decoder: each must fail to
/// decode or decode to a value that re-encodes to exactly the input.
/// A panic fails the test with the offending input.
fn fuzz<T: Wire>(what: &str, seeds: &[Vec<u8>], cases: usize, seed: u64) {
    assert!(!seeds.is_empty(), "{what}: no seeds");
    for s in seeds {
        assert_eq!(&encode(&decode::<T>(s).expect("seeds decode")), s, "{what}: seed round trip");
    }
    let mut rng = Rng(seed);
    let mut accepted = 0;
    for case in 0..cases {
        let input = mutate(&mut rng, seeds);
        let outcome = std::panic::catch_unwind(|| decode::<T>(&input).map(|v| encode(&v)));
        let hex: String = input.iter().map(|b| format!("{b:02x}")).collect();
        match outcome {
            Err(_) => panic!("{what}: case {case} panicked on {hex}"),
            Ok(Ok(again)) => {
                assert_eq!(again, input, "{what}: case {case} is not canonical: {hex}");
                accepted += 1;
            }
            Ok(Err(_)) => {}
        }
    }
    // Some mutations (a flipped count value, a spliced twin) stay valid:
    // the identity check must have had work to do.
    assert!(accepted > 0, "{what}: no mutated input decoded");
}

/// The `kind ‖ payload` encodings of every fixture frame of a family.
fn message_seeds(prefixes: &[&str]) -> Vec<Vec<u8>> {
    let mut seeds = Vec::new();
    for (name, bytes) in fixture() {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            let mut stream = bytes.as_slice();
            while let Some(raw) = read_raw_msg(&mut stream, 1 << 20).unwrap() {
                seeds.push(raw);
            }
        }
    }
    seeds
}

fn seeds_of<T: Wire>(values: impl IntoIterator<Item = T>) -> Vec<Vec<u8>> {
    values.into_iter().map(|v| encode(&v)).collect()
}

/// Every message type and every hand-written layout, `cases` each.
fn fuzz_all(cases: usize) {
    fuzz::<Request<'_>>("Request", &message_seeds(&["serve.req."]), cases, 1);
    fuzz::<Response>("Response", &message_seeds(&["serve.resp."]), cases, 2);
    fuzz::<WorkerMsg>("WorkerMsg", &message_seeds(&["worker.job", "worker.shutdown"]), cases, 3);
    fuzz::<ReplyFrame>("ReplyFrame", &message_seeds(&["worker.reply."]), cases, 4);
    fuzz::<EnumConfig>("EnumConfig", &seeds_of(configs()), cases, 5);
    let all_queries = engines().into_iter().flat_map(|(_, e)| queries(e)).map(|(_, q)| q);
    fuzz::<Query>("Query", &seeds_of(all_queries), cases, 6);
    fuzz::<QueryResponse>(
        "QueryResponse",
        &seeds_of(responses().into_iter().map(|(_, r)| r)),
        cases,
        7,
    );
    let reports = responses().into_iter().filter_map(|(_, r)| match r {
        QueryResponse::Report(report) => Some(report),
        _ => None,
    });
    fuzz::<EngineReport>("EngineReport", &seeds_of(reports), cases, 8);
    let tables = [table(&[("010102", 7), ("011202", 123_456), ("0110", 0)]), MotifCounts::new()];
    fuzz::<MotifCounts>("MotifCounts", &seeds_of(tables), cases, 9);
    fuzz::<MotifSignature>("MotifSignature", &seeds_of(crate::catalog::all_3e()), cases, 10);
    fuzz::<tnm_obs::Snapshot>("Snapshot", &seeds_of([snapshot(), Default::default()]), cases, 11);
    fuzz::<Vec<tnm_obs::SpanRecord>>("spans", &seeds_of([trace().spans]), cases, 12);
    fuzz::<WorkerJob>("WorkerJob", &seeds_of([job(false), job(true)]), cases, 13);
    fuzz::<ServerStats>("ServerStats", &seeds_of([stats(), ServerStats::default()]), cases, 14);
    fuzz::<Cow<'_, [Event]>>(
        "events",
        &seeds_of([Cow::Owned(events()), Cow::Owned(vec![])]),
        cases,
        15,
    );
    fuzz::<Vec<tnm_obs::TimePoint>>("time points", &seeds_of([time_points(), vec![]]), cases, 16);
}

#[test]
fn wire_fuzz_slice() {
    fuzz_all(300);
}

#[test]
#[ignore = "10^5 cases per type; run in release (CI's wire fuzz step)"]
fn wire_fuzz_full() {
    fuzz_all(100_000);
}
