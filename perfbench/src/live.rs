//! `live_append`: writes beside reads on a resident daemon.
//!
//! Set-up preloads a CollegeMsg-spec corpus and subscribes to Song's
//! ΔW-only spectrum. One op appends the next 512-event batch (the ack
//! carries the live subscription counts) and then sends one ad-hoc
//! 2-node ΔW count, which pays the graph rebuild and the cache misses the
//! append caused. Each pass runs the same fixed op sequence from a fresh
//! set-up, so every commit sees the same graph sizes; passes repeat while
//! another one fits the timed window. Walkers do no work here, and the triad class
//! runs only inside the subscription's suffix recount.

use crate::harness::{child_setup, peak_rss_mb, quantile, timed, Args, Daemon, Layers, Outcome};
use std::time::Instant;
use tnm_datasets::generator::generate;
use tnm_datasets::spec::DatasetSpec;
use tnm_graph::{wire, Event, TemporalGraph};
use tnm_motifs::count::MotifCounts;
use tnm_motifs::engine::{CountEngine, EngineKind, IncrementalStream, Query, WindowedEngine};
use tnm_motifs::{EnumConfig, MotifModel, Timing};

const DELTA_W: i64 = 3_000;
const BATCH: usize = 512;
const PRELOAD: usize = 100_000;
/// Ops per pass: the graph grows by OPS × BATCH ≈ half the preload.
const OPS: usize = 100;
/// Set-ups timed per run, at the least.
const SETUPS: usize = 3;
const GRAPH: &str = "live";

fn subscription() -> EnumConfig {
    EnumConfig::for_model(&MotifModel::song(DELTA_W), 3, 3)
}

fn read() -> Query {
    Query::Count {
        cfg: EnumConfig::new(3, 2).with_timing(Timing::only_w(DELTA_W)),
        engine: EngineKind::Auto,
        threads: 1,
    }
}

/// The time-sorted corpus, split into the preload and the append batches.
struct Corpus {
    events: Vec<Event>,
    num_nodes: u32,
    preload: usize,
}

impl Corpus {
    fn generate(args: &Args, layers: &mut Layers) -> Corpus {
        let preload = args.events(PRELOAD);
        let mut spec = DatasetSpec::college_msg();
        spec.num_events = preload + OPS * BATCH;
        let (graph, gen_ms) = timed(|| generate(&spec, args.seed));
        layers.add("datasets.generate_ms", gen_ms);
        let preload = preload.min(graph.num_events() - OPS * BATCH);
        Corpus { events: graph.events().to_vec(), num_nodes: graph.num_nodes(), preload }
    }

    fn batch(&self, op: usize) -> &[Event] {
        let lo = self.preload + op * BATCH;
        &self.events[lo..(lo + BATCH).min(self.events.len())]
    }
}

/// What one pass must end with, counted by the windowed walker on the
/// grown log.
struct Expected {
    subscription: MotifCounts,
    read: MotifCounts,
}

impl Expected {
    fn of(corpus: &Corpus) -> Expected {
        let grown = TemporalGraph::from_sorted_events(corpus.events.clone(), corpus.num_nodes);
        Expected {
            subscription: WindowedEngine.count(&grown, &subscription()),
            read: WindowedEngine.count(&grown, &read().configs()[0]),
        }
    }
}

/// A fresh daemon with the preload loaded and the subscription live.
fn set_up(corpus: &Corpus) -> Result<Daemon, String> {
    let mut daemon = Daemon::start()?;
    let preload = &corpus.events[..corpus.preload];
    let client = &mut daemon.client;
    client.load_graph(GRAPH, preload, corpus.num_nodes).map_err(|e| e.to_string())?;
    client.subscribe(GRAPH, &subscription()).map_err(|e| e.to_string())?;
    Ok(daemon)
}

/// An in-process copy of the daemon's append path, fed the same batches
/// right after each op so its timings share the op's host conditions: wire
/// encode and decode, the subscription's suffix recount, and the clone and
/// rebuild of the grown log that the next read pays.
struct Mirror {
    log: Vec<Event>,
    num_nodes: u32,
    stream: IncrementalStream,
}

impl Mirror {
    fn new(corpus: &Corpus) -> Result<Mirror, String> {
        let log = corpus.events[..corpus.preload].to_vec();
        let graph = TemporalGraph::from_sorted_events(log.clone(), corpus.num_nodes);
        let stream = IncrementalStream::new(&graph, &subscription())?;
        Ok(Mirror { log, num_nodes: corpus.num_nodes, stream })
    }

    /// Folds one batch in; with `layers`, times each layer.
    fn append(&mut self, batch: &[Event], layers: Option<&mut Layers>) -> Result<(), String> {
        let Some(layers) = layers else {
            self.log.extend_from_slice(batch);
            return self.stream.append(batch).map_err(|e| e.to_string());
        };
        let bytes = layers.time("graph.wire.encode_ms", || wire::encode_events(batch));
        let decoded = layers.time("graph.wire.decode_ms", || wire::decode_events(&bytes));
        if decoded.map_err(|e| e.to_string())? != batch {
            return Err("wire round trip changed the batch".into());
        }
        let cutoff = batch.first().map_or(i64::MIN, |e| e.time - DELTA_W);
        let suffix = self.log.len() - self.log.partition_point(|e| e.time < cutoff);
        layers.add("serve.incremental.suffix_events", suffix as f64);
        let folded = layers.time("serve.incremental.append_ms", || self.stream.append(batch));
        folded.map_err(|e| e.to_string())?;
        self.log.extend_from_slice(batch);
        layers.time("graph.rebuild_ms", || {
            TemporalGraph::from_sorted_events(self.log.clone(), self.num_nodes)
        });
        Ok(())
    }
}

/// Per-layer figures of a traced pass that need the whole pass: the
/// daemon's mean read time (read once at the end, so no extra request
/// sits between ops), the append's transport share, and coverage.
fn trace_pass(daemon: &mut Daemon, op_ms: f64, layers: &mut Layers) -> Result<(), String> {
    let snap = daemon.client.metrics().map_err(|e| e.to_string())?;
    if let Some(reads) = snap.histograms.get("serve.query.count_ns") {
        layers.add("serve.read.server_ms", reads.sum as f64 / reads.count.max(1) as f64 / 1e6);
    }
    let inproc = layers.total(&[
        "graph.wire.encode_ms",
        "graph.wire.decode_ms",
        "serve.incremental.append_ms",
    ]);
    let append = layers.total(&["serve.append.client_ms"]);
    layers.add("serve.append.transport_ms", (append - inproc).max(0.0));
    // The read is explained by the rebuild it pays plus the daemon's own
    // query time.
    let explained = append + layers.total(&["graph.rebuild_ms", "serve.read.server_ms"]);
    layers.add("layer_coverage", explained / op_ms);
    Ok(())
}

/// `--setup-only`: generates the corpus, then times one set-up in this
/// (fresh) process; returns its seconds.
pub fn set_up_only(args: &Args) -> Result<f64, String> {
    let corpus = Corpus::generate(args, &mut Layers::default());
    let t0 = Instant::now();
    let daemon = set_up(&corpus)?;
    let seconds = t0.elapsed().as_secs_f64();
    daemon.stop()?;
    Ok(seconds)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let corpus = Corpus::generate(args, &mut out.layers);
    let expected = Expected::of(&corpus);
    let read = read();
    // Extra set-ups in child processes, so `setup_s` has several samples
    // even when one pass fills the timed window; each pass adds its own.
    for _ in 1..SETUPS {
        out.setup_s.push(child_setup(args)?);
    }
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    loop {
        let t0 = Instant::now();
        let mut daemon = set_up(&corpus)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        let mut mirror = if args.trace { Some(Mirror::new(&corpus)?) } else { None };
        let mut last = None;
        for op in 0..OPS {
            let batch = corpus.batch(op);
            let traced = args.trace && op % 2 == 1;
            let before = traced.then(|| tnm_obs::global().snapshot());
            tnm_obs::set_enabled(traced);
            let (ack, append_ms) = timed(|| daemon.client.append_events(GRAPH, batch));
            let (answer, read_ms) = timed(|| daemon.client.query(GRAPH, &read));
            tnm_obs::set_enabled(false);
            let ms = append_ms + read_ms;
            let total = (corpus.preload + (op + 1) * BATCH).min(corpus.events.len()) as u64;
            let ok = matches!(&ack, Ok(a) if a.total_events == total) && answer.is_ok();
            if let Some(before) = before {
                out.layers.add_counters(&before, &tnm_obs::global().snapshot());
                out.layers.add("serve.append.client_ms", append_ms);
                out.layers.add("serve.read.client_ms", read_ms);
            }
            if let Some(mirror) = mirror.as_mut() {
                mirror.append(batch, traced.then_some(&mut out.layers))?;
            }
            out.op(ms, traced, ok);
            last = Some((ack, answer));
        }
        // The pass's end state against a from-scratch recount.
        let end_ok = match last {
            Some((Ok(ack), Ok(answer))) => {
                ack.subscriptions.first().map(|(_, c)| c) == Some(&expected.subscription)
                    && answer.counts() == expected.read
            }
            _ => false,
        };
        if !end_ok {
            out.failed += 1;
        }
        // Later passes repeat the first one's sizes on a fresh daemon; they
        // would add only what the allocator kept from the last one.
        out.peak_rss_mb.get_or_insert_with(peak_rss_mb);
        if args.trace {
            let op_ms = quantile(&out.traced_op_ms, 0.5);
            trace_pass(&mut daemon, op_ms, &mut out.layers)?;
            daemon.stop()?;
            return Ok(out);
        }
        daemon.stop()?;
        // Start another pass only if it fits the window as the last did.
        if Instant::now() + t0.elapsed() > deadline {
            return Ok(out);
        }
    }
}
