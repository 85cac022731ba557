//! Measurement plumbing shared by the workloads: op timing, quantiles,
//! per-layer samples, host facts, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;
use std::time::{Duration, Instant};

/// The end-to-end metrics every workload reports with `--trace 0`, as
/// `(name, unit)`. `BENCHMARK.json` declares the same list. The op
/// median and throughput are left out: they follow the share of a run the
/// host spends in its slow state (see README), so they are printed as
/// human lines and reported ungated with `--trace 1`.
pub const END_TO_END: &[(&str, &str)] =
    &[("latency_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics every workload reports with `--trace 1`, as
/// `(name, unit)`. A layer a workload does not exercise reports 0.
/// `BENCHMARK.json` declares the same list.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Whole-run op figures of the untraced ops, ungated.
    ("latency_p50_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    // Ingest and graph build (cold_count).
    ("graph.io.read_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("graph.columns_ms", "ms"),
    ("graph.io.events_per_s", "1/s"),
    ("engine.query_ms", "ms"),
    // Reads beside appends (live_append).
    ("graph.rebuild_ms", "ms"),
    ("serve.read.client_ms", "ms"),
    ("serve.read.server_ms", "ms"),
    // The append path (live_append).
    ("serve.append.client_ms", "ms"),
    ("serve.incremental.append_ms", "ms"),
    ("serve.incremental.suffix_events", "count"),
    ("graph.wire.encode_ms", "ms"),
    ("graph.wire.decode_ms", "ms"),
    ("serve.append.transport_ms", "ms"),
    // The paper's four models plus the batch and sharded shapes
    // (served_models).
    ("serve.kovanen.client_ms", "ms"),
    ("serve.kovanen.server_ms", "ms"),
    ("serve.kovanen.wire_ms", "ms"),
    ("engine.kovanen.inproc_ms", "ms"),
    ("engine.kovanen.best_exact_ms", "ms"),
    ("engine.kovanen.auto_regret", "ratio"),
    ("serve.song.client_ms", "ms"),
    ("serve.song.server_ms", "ms"),
    ("serve.song.wire_ms", "ms"),
    ("engine.song.inproc_ms", "ms"),
    ("engine.song.best_exact_ms", "ms"),
    ("engine.song.auto_regret", "ratio"),
    ("serve.hulovatyy.client_ms", "ms"),
    ("serve.hulovatyy.server_ms", "ms"),
    ("serve.hulovatyy.wire_ms", "ms"),
    ("engine.hulovatyy.inproc_ms", "ms"),
    ("engine.hulovatyy.best_exact_ms", "ms"),
    ("engine.hulovatyy.auto_regret", "ratio"),
    ("serve.paranjape.client_ms", "ms"),
    ("serve.paranjape.server_ms", "ms"),
    ("serve.paranjape.wire_ms", "ms"),
    ("engine.paranjape.inproc_ms", "ms"),
    ("engine.paranjape.best_exact_ms", "ms"),
    ("engine.paranjape.auto_regret", "ratio"),
    ("serve.ratio_sweep.client_ms", "ms"),
    ("serve.ratio_sweep.server_ms", "ms"),
    ("serve.ratio_sweep.wire_ms", "ms"),
    ("engine.ratio_sweep.inproc_ms", "ms"),
    ("engine.ratio_sweep.best_exact_ms", "ms"),
    ("engine.ratio_sweep.auto_regret", "ratio"),
    ("serve.sharded.client_ms", "ms"),
    ("serve.sharded.server_ms", "ms"),
    ("serve.sharded.wire_ms", "ms"),
    ("engine.sharded.inproc_ms", "ms"),
    ("engine.sharded.best_exact_ms", "ms"),
    ("engine.sharded.auto_regret", "ratio"),
    // Stream DP classes, the batch planner, shard planning, cache hits.
    ("engine.stream.pair_ms", "ms"),
    ("engine.stream.star_ms", "ms"),
    ("engine.stream.triad_ms", "ms"),
    ("engine.batch.plan_ms", "ms"),
    ("engine.batch.groups", "count"),
    ("graph.shard.plan_ms", "ms"),
    ("graph.shard.count", "count"),
    ("graph.index_hit_ms", "ms"),
    ("graph.proj_hit_ms", "ms"),
    // Work counters per op, from the program's own registry.
    ("engine.events_scanned", "count"),
    ("engine.instances_emitted", "count"),
    ("engine.candidates_pruned", "count"),
    ("engine.emit_ratio", "ratio"),
    ("stream.triad.triangles_swept", "count"),
    ("stream.pair.pairs_swept", "count"),
    ("cache.index.hits", "count"),
    ("cache.index.misses", "count"),
    ("cache.index.rejected", "count"),
    ("cache.proj.hits", "count"),
    ("cache.proj.misses", "count"),
    ("cache.proj.rejected", "count"),
    // Set-up, tracing cost, and how much of an op the layers explain.
    ("datasets.generate_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("layer_coverage", "ratio"),
    ("error_rate", "ratio"),
];

/// The program counters read per op in a traced run (deltas of
/// `tnm_obs::global()`).
pub const OP_COUNTERS: &[&str] = &[
    "engine.events_scanned",
    "engine.instances_emitted",
    "engine.candidates_pruned",
    "stream.triad.triangles_swept",
    "stream.pair.pairs_swept",
    "cache.index.hits",
    "cache.index.misses",
    "cache.index.rejected",
    "cache.proj.hits",
    "cache.proj.misses",
    "cache.proj.rejected",
];

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// `--trace 1`: per-layer run instead of the end-to-end run.
    pub trace: bool,
    /// Corpus size multiplier (1.0 for measured runs; the smoke mode
    /// shrinks it).
    pub scale: f64,
    /// `--setup-only`: time one set-up in this process, print the seconds
    /// and exit (the child side of [`SetupPacer`]).
    pub setup_only: bool,
}

impl Args {
    /// Events for a corpus of nominal size `n` under `--scale`.
    pub fn events(&self, n: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(2_000)
    }
}

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host facts printed with every result so runs on different machines
/// can be compared: available parallelism and the median time of a fixed
/// integer loop.
pub fn host_fingerprint() -> (usize, u64) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..5_000_000u32 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x ^= x >> 29;
            }
            std::hint::black_box(x);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (nproc, samples[2] as u64)
}

/// Set-ups repeated through the timed window, each in a child process of
/// this binary (`--setup-only`). `setup_s` so samples the same host states
/// as the ops do, and the extra set-ups never touch this process's heap,
/// caches or peak RSS.
pub struct SetupPacer {
    args: Args,
    every: Duration,
    next: Instant,
}

impl SetupPacer {
    /// A pacer for `args`'s workload whose first set-up is due at once.
    pub fn new(args: &Args, every_s: f64) -> SetupPacer {
        SetupPacer {
            args: args.clone(),
            every: Duration::from_secs_f64(every_s),
            next: Instant::now(),
        }
    }

    /// Runs one child set-up if one is due and adds its time to
    /// `setup_s`; the next falls due a full period after it ends.
    pub fn tick(&mut self, setup_s: &mut Vec<f64>) -> Result<(), String> {
        if Instant::now() < self.next {
            return Ok(());
        }
        setup_s.push(child_setup(&self.args)?);
        self.next = Instant::now() + self.every;
        Ok(())
    }
}

/// Runs `--setup-only` for `args`'s workload in a child process, waits
/// for it, and returns the set-up seconds it prints.
pub fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (seed, scale) = (args.seed.to_string(), args.scale.to_string());
    let flags = ["--workload", &args.workload, "--seed", &seed, "--scale", &scale, "--setup-only"];
    let child = Command::new(exe).args(flags).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    if !child.status.success() {
        let stderr = String::from_utf8_lossy(&child.stderr);
        return Err(format!("set-up child exited {}: {stderr}", child.status));
    }
    let seconds = stdout.lines().last().and_then(|line| line.trim().parse().ok());
    seconds.ok_or_else(|| format!("set-up child printed no time: {stdout}"))
}

/// Per-layer samples of a traced run, keyed by metric name. Each metric
/// reports the median of its samples.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    /// Adds one sample.
    pub fn add(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_string()).or_default().push(value);
    }

    /// Times `f` as one sample of the `*_ms` metric `name`, and records
    /// it as a span (named without the `_ms` suffix) in the program's
    /// span collector.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let (out, ms) = timed(f);
        self.add(name, ms);
        tnm_obs::record_span(name.trim_end_matches("_ms"), (ms * 1e6) as u64, &[]);
        out
    }

    /// Moves every sample of `other` into `self`.
    pub fn absorb(&mut self, other: Layers) {
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }

    /// The sum of the medians of `names` (missing ones count as 0).
    pub fn total(&self, names: &[&str]) -> f64 {
        names.iter().filter_map(|name| self.get(name)).sum()
    }

    /// The median of `name`'s samples, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| median(v))
    }

    /// Adds the per-op deltas of [`OP_COUNTERS`] between two snapshots of
    /// the program's global registry, plus the emit ratio.
    pub fn add_counters(&mut self, before: &tnm_obs::Snapshot, after: &tnm_obs::Snapshot) {
        let delta = after.delta(before);
        let get = |name: &str| delta.counters.get(name).copied().unwrap_or(0) as f64;
        for name in OP_COUNTERS {
            self.add(name, get(name));
        }
        let scanned = get("engine.events_scanned");
        if scanned > 0.0 {
            self.add("engine.emit_ratio", get("engine.instances_emitted") / scanned);
        }
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the timed window.
    pub attempted: u64,
    /// Ops that failed or answered wrongly.
    pub failed: u64,
    /// Latency of every untraced op, in ms.
    pub op_ms: Vec<f64>,
    /// Latency of every traced op, in ms (traced runs only).
    pub traced_op_ms: Vec<f64>,
    /// Duration of each set-up, in seconds; `setup_s` is their p90.
    pub setup_s: Vec<f64>,
    /// The high-water mark in MiB, if the workload took it before a phase
    /// that only repeats sizes already reached; else it is read at the end.
    pub peak_rss_mb: Option<f64>,
    /// Per-layer samples (traced runs only).
    pub layers: Layers,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one op's latency and verdict.
    pub fn op(&mut self, ms: f64, traced: bool, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        if traced {
            self.traced_op_ms.push(ms);
        } else {
            self.op_ms.push(ms);
        }
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The whole-run figures of the untraced ops, by name: the gated
    /// [`END_TO_END`] metrics plus the op median and throughput. Throughput
    /// is ops per second of time spent inside ops (the closed-loop
    /// client's busy time), so answer checking never counts against it.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let busy_s: f64 = self.op_ms.iter().sum::<f64>() / 1e3;
        BTreeMap::from([
            ("latency_p50_ms", quantile(&self.op_ms, 0.5)),
            ("latency_p90_ms", quantile(&self.op_ms, 0.9)),
            ("throughput_ops_s", self.op_ms.len() as f64 / busy_s.max(1e-9)),
            ("setup_s", quantile(&self.setup_s, 0.9)),
            ("peak_rss_mb", self.peak_rss_mb.unwrap_or_else(peak_rss_mb)),
        ])
    }

    /// The per-layer metric values, by name, in [`PER_LAYER`] order;
    /// layers the workload never exercised report 0.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let e2e = self.end_to_end();
        let untraced = e2e["latency_p50_ms"];
        let traced = quantile(&self.traced_op_ms, 0.5);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "obs.trace_overhead_pct" if untraced > 0.0 => (traced / untraced - 1.0) * 100.0,
                    "error_rate" => self.error_rate(),
                    "latency_p50_ms" | "throughput_ops_s" => e2e[name],
                    _ => self.layers.get(name).unwrap_or(0.0),
                };
                (name, unit, value)
            })
            .collect()
    }

    /// Prints the human-readable summary and then, as the last line, the
    /// JSON result.
    pub fn print(&self, trace: bool) {
        for note in &self.notes {
            println!("{note}");
        }
        let e2e = self.end_to_end();
        let ops = self.op_ms.len() + self.traced_op_ms.len();
        let metrics: Vec<(&str, &str, f64)> = if trace {
            self.per_layer()
        } else {
            END_TO_END.iter().map(|&(name, unit)| (name, unit, e2e[name])).collect()
        };
        for (name, unit, value) in &metrics {
            println!("{name:<36} {value:>14.4} {unit}");
        }
        if !trace {
            println!("{:<36} {:>14.4} ms (ungated)", "latency_p50_ms", e2e["latency_p50_ms"]);
            println!("{:<36} {:>14.4} 1/s (ungated)", "throughput_ops_s", e2e["throughput_ops_s"]);
            println!("{:<36} {:>14.4} ratio", "error_rate", self.error_rate());
            println!("{:<36} {:>14} count (setup_s sample base)", "setups", self.setup_s.len());
            println!("{:<36} {:>14} count (p90 sample base)", "ops", ops);
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// A closed-loop `tnm serve` daemon in this process on a loopback port,
/// with every query clamped to one thread.
pub struct Daemon {
    handle: tnm_motifs::engine::ServerHandle,
    /// The one client connection.
    pub client: tnm_motifs::engine::ServeClient,
}

impl Daemon {
    /// Binds a fresh daemon and connects one client to it.
    pub fn start() -> Result<Daemon, String> {
        use tnm_motifs::engine::{MotifServer, ServeClient, ServeOptions};
        let options = ServeOptions { max_threads: 1, ..ServeOptions::default() };
        let server = MotifServer::bind_with("127.0.0.1:0", options).map_err(|e| e.to_string())?;
        let handle = server.spawn();
        let client = ServeClient::connect(handle.addr()).map_err(|e| e.to_string())?;
        Ok(Daemon { handle, client })
    }

    /// Asks the daemon to exit and waits for its accept loop to end.
    pub fn stop(mut self) -> Result<(), String> {
        self.client.shutdown().map_err(|e| e.to_string())?;
        self.handle.join().map_err(|e| e.to_string())
    }

    /// Sum, in ms, of the daemon's own latency histogram `name`.
    pub fn server_ms(&mut self, name: &str) -> Result<f64, String> {
        let snap = self.client.metrics().map_err(|e| e.to_string())?;
        Ok(snap.histograms.get(name).map_or(0.0, |h| h.sum as f64 / 1e6))
    }
}
