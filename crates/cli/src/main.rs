//! `tnm` — the temporal-network-motifs experiment driver.
//!
//! Regenerates every table and figure of the paper on the synthetic
//! corpus, and exposes ad-hoc counting/generation utilities. Run
//! `tnm help` for the command list.

mod args;

use args::Args;
use std::process::ExitCode;
use tnm_analysis::experiments::{self, Corpus, RunConfig};
use tnm_datasets::DatasetSpec;
use tnm_graph::stats::GraphStats;
use tnm_motifs::cycles::{count_temporal_cycles, CycleConfig};
use tnm_motifs::prelude::*;

const HELP: &str = "\
tnm — Temporal Network Motifs: Models, Limitations, Evaluation (reproduction)

USAGE: tnm <command> [flags]

Experiment commands (all accept --scale F, --seed N, --csv, --engine E,
--threads N, --samples K):
  table2            Dataset statistics (paper Table 2)
  table3 [--full]   Consecutive events restriction (Table 3; --full = Table 6)
  table4 [--full]   Constrained dynamic graphlets (Table 4; --full = Table 7)
  table5            Event-pair counts vs timing constraints (Table 5)
  fig1              Model validity matrix (Figure 1)
  fig2              Notation & event-pair alphabet (Figure 2)
  fig3 [--include-4e] Event-pair ratios only-dW vs only-dC (Figure 3)
  fig4 [--all]      Intermediate event behaviour (Figure 4; --all = Figure 9)
  fig5 [--all]      Motif timespan distributions (Figure 5; --all = Figure 10)
  fig6              Event-pair sequence heat maps (Figure 6)
  all               Run every table and figure

Utility commands:
  list              List the nine datasets
  stats --dataset NAME [--seed N]        Statistics of one synthetic dataset
  generate --dataset NAME --out FILE     Write a synthetic dataset as an edge list
  count (--dataset NAME | --input FILE) [--events K] [--nodes N]
        [--dc X] [--dw Y] [--consecutive] [--induced] [--constrained]
        [--top K] [--engine E] [--threads N] [--samples K]
        [--shard-events N] [--workers N]
        [--trace FILE] [--explain]
                                         Count motifs under a custom model
                                         (sampling engine prints 95% CIs).
                                         --input FILE counts a SNAP edge list
                                         (`src dst time [duration]`, e.g. from
                                         `generate`) instead of a generated
                                         dataset; the report is named after
                                         the file stem.
                                         --trace FILE records hierarchical
                                         timed spans for the run, ingest
                                         included, and writes them as
                                         Chrome-trace JSON (open in
                                         chrome://tracing or Perfetto); a
                                         sharded run with --workers decomposes
                                         into plan/spill/spawn/walk/merge
                                         phases.
                                         --explain prints the auto-select
                                         decision with its measured inputs
                                         (event count, expected window
                                         events, stream eligibility) and
                                         the threads the chosen engine runs
                                         with, before counting.
  count-batch --dataset NAME (--spec FILE | --all-3e-motifs [--dw Y])
        [--engine E] [--threads N] [--top K] ...
                                         Count many motif configurations in
                                         shared traversals (~1 walk + N
                                         projections instead of N walks).
                                         --spec FILE: one configuration per
                                         line of `key=value` tokens (events=,
                                         nodes=, min-nodes=, dc=, dw=, sig=)
                                         plus bare restriction words
                                         consecutive / induced / constrained;
                                         `#` comments and blank lines are
                                         ignored; every line needs dc= and/or
                                         dw=. --all-3e-motifs: all 36
                                         three-event motifs within --dw
                                         (default 3000). Results are
                                         bit-identical to per-config `count`.
  cycles --dataset NAME [--dw X] [--max-len L]
                                         Enumerate simple temporal cycles
  help              This message

Service commands:
  serve [--host H] [--port N] [--threads N] [--enumerate-cap K]
        [--http-port N]                  Start the resident counting daemon:
                                         loaded graphs (and their window
                                         indexes) stay warm across queries,
                                         and subscription counts update
                                         incrementally — O(new events) — under
                                         live appends. Default 127.0.0.1:7878;
                                         --port 0 picks a free port. --threads
                                         caps any single request's budget.
                                         --http-port N adds an HTTP scrape
                                         surface on the same interface:
                                         GET /metrics (Prometheus text),
                                         /healthz, /timeseries (JSON ring of
                                         windowed metric deltas, sampled every
                                         second). N=0 picks a free port.
  client [--addr H:P] (--stats | --metrics | --slow-queries | --shutdown |
         --dataset NAME count-flags [--name G]
         [--hold-out K] [--append-batch B]
         [--trace FILE] [--profile])
                                         Scripted client for tnm serve. With a
                                         dataset: loads it (as G, default the
                                         dataset name) and counts through the
                                         same Query path as `count`, printing
                                         the same report. With --hold-out K:
                                         loads all but the last K events,
                                         subscribes the configuration, streams
                                         the held-out tail through incremental
                                         appends of B events (default 512),
                                         and prints the final live counts —
                                         identical to counting the full graph.
                                         --trace FILE asks the server to trace
                                         the request and writes its stitched
                                         span tree (serve root, engine phases,
                                         sharded worker spans — one trace
                                         id) as Chrome-trace JSON. --profile
                                         prints the same trace as per-phase
                                         totals plus the counters the
                                         request moved; the daemon records
                                         no engine counters, so these are
                                         only its serve.* counters
                                         (serve.queries).
                                         --stats / --metrics / --slow-queries
                                         / --shutdown talk to a running daemon
                                         without loading anything; --metrics
                                         prints the server's serve.* counters
                                         and latency histograms as Prometheus
                                         text; --slow-queries prints the
                                         worst-latency query table and the
                                         flight recorder of recent queries.
  top [--addr H:P] [--interval MS] [--iters N]
                                         Live terminal view of a daemon's
                                         metrics time series, read over the
                                         serve wire protocol: per-window
                                         query and append rates, p50/p99
                                         latency per query kind, resident
                                         shard events. Default addr
                                         127.0.0.1:7878, refresh every 1000 ms;
                                         --iters N stops after N frames
                                         (0 = run until interrupted).

Flags:
  --scale F     Scale dataset event budgets by F (default 1.0)
  --seed N      Corpus seed (default the standard experiment seed)
  --csv         Emit CSV instead of a rendered table (where supported)
  --engine E    Counting engine: windowed | stream | sharded |
                sampling | auto
                (default auto; see the tnm-motifs rustdoc on choosing
                one). `windowed` is the exact backtracking walk over the
                window index, on the --threads budget. `stream` counts
                without enumerating instances — exact and near-linear in
                events for Paranjape-shape jobs (--dw only, no --induced
                or other restrictions, <=3 events on <=3 nodes), falling
                back to the one-thread windowed walk otherwise; `auto`
                picks it whenever eligible.
                `sharded` counts exact totals over time-slice shards,
                one at a time in this process or, with --workers, on
                worker processes.
                `sampling` is approximate: counts are point estimates
                with 95% confidence intervals. fig4/fig5 enumerate exact
                instance statistics and reject it.
  --threads N   Thread budget (default: the available cores, at most
                8). The windowed walk runs N work-stealing threads, and
                --threads 1 is the serial walk; the sharded engine
                work-steals within each shard, with --workers N/workers
                threads inside each worker process; the sampling engine
                evaluates window draws in parallel with bit-identical
                seeded results. `auto` gives the windowed walk the whole
                budget only when there is enough work per start event
                (see --explain).
  --samples K   Sample-window budget for --engine sampling (quadruple it
                to halve the confidence intervals). The sampler draws its
                RNG seed from --seed. Rejected for exact engines.
  --workers N   Ship the shards of --engine sharded to N >= 1 worker
                processes over a framed wire protocol — exact, with
                crashed workers' shards rescheduled onto survivors.
                Rejected for other engines.
  --shard-events N
                Target start events per shard for --engine sharded
                (default 16384). Rejected for other engines.
";

/// Ends the process quietly when stdout's reader has gone (`tnm … |
/// head`). Rust ignores SIGPIPE, so `println!` panics on the broken
/// pipe instead; this exits with the status a shell reports for a
/// process that SIGPIPE ended (128 + 13) and leaves other panics to the
/// default hook.
fn exit_quietly_on_closed_stdout() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info.payload().downcast_ref::<String>().map_or("", String::as_str);
        if message.starts_with("failed printing to stdout") && message.contains("Broken pipe") {
            std::process::exit(141);
        }
        default_hook(info)
    }));
}

fn main() -> ExitCode {
    exit_quietly_on_closed_stdout();
    let mut argv = std::env::args().skip(1);
    let command = match argv.next() {
        Some(c) => c,
        None => {
            eprint!("{HELP}");
            return ExitCode::FAILURE;
        }
    };
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&command, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn corpus_from(args: &Args) -> Result<Corpus, Box<dyn std::error::Error>> {
    let scale: f64 = args.get_parsed("scale", 1.0)?;
    let seed: u64 = args.get_parsed("seed", experiments::CORPUS_SEED)?;
    // The dataset may be named via --dataset or as a positional argument;
    // only the named one is generated.
    match args.get("dataset").or_else(|| args.positional(0)) {
        Some(name) => {
            Corpus::named(&[name], scale, seed).map_err(|e| format!("{e} (see `tnm list`)").into())
        }
        None => Ok(Corpus::scaled(scale, seed)),
    }
}

fn run_config_from(args: &Args) -> Result<RunConfig, Box<dyn std::error::Error>> {
    let mut rc = RunConfig::default();
    if let Some(name) = args.get("engine") {
        rc.engine = name.parse::<EngineKind>()?;
    }
    if let EngineKind::Sampling { samples, seed } = rc.engine {
        let samples: u32 = args.get_parsed("samples", samples)?;
        if samples == 0 {
            return Err("--samples must be at least 1".into());
        }
        rc.engine = EngineKind::Sampling { samples, seed: args.get_parsed("seed", seed)? };
    } else if args.has("samples") {
        return Err(format!(
            "--samples is only valid with --engine sampling (engine `{}` counts exactly)",
            rc.engine
        )
        .into());
    }
    if let EngineKind::Sharded { shard_events, workers } = rc.engine {
        let shard_events: usize = args.get_parsed("shard-events", shard_events)?;
        if shard_events == 0 {
            return Err("--shard-events must be at least 1".into());
        }
        let workers: usize = args.get_parsed("workers", workers)?;
        if args.has("workers") && workers == 0 {
            return Err("--workers must be at least 1".into());
        }
        rc.engine = EngineKind::Sharded { shard_events, workers };
    } else {
        for flag in ["shard-events", "workers"] {
            if args.has(flag) {
                return Err(format!(
                    "--{flag} is only valid with --engine sharded (got engine `{}`)",
                    rc.engine
                )
                .into());
            }
        }
    }
    rc.threads = args.get_parsed("threads", rc.threads)?;
    Ok(rc)
}

/// Builds the `count`/`client` verbs' [`EnumConfig`] from the shared
/// flag set, validated through [`EnumConfig::validate`] — the same
/// typed [`ConfigError`] path the Query API and the serve daemon use.
fn count_cfg_from(args: &Args) -> Result<EnumConfig, Box<dyn std::error::Error>> {
    let events: usize = args.get_parsed("events", 3)?;
    let nodes: usize = args.get_parsed("nodes", 3)?;
    let dc: i64 = args.get_parsed("dc", 0)?;
    let dw: i64 = args.get_parsed("dw", 0)?;
    let timing = match (dc > 0, dw > 0) {
        (true, true) => Timing::both(dc, dw),
        (true, false) => Timing::only_c(dc),
        (false, true) => Timing::only_w(dw),
        (false, false) => return Err("count requires --dc and/or --dw".into()),
    };
    let cfg = EnumConfig::try_new(events, nodes)?
        .with_timing(timing)
        .with_consecutive(args.has("consecutive"))
        .with_static_induced(args.has("induced"))
        .with_constrained(args.has("constrained"));
    cfg.validate()?;
    Ok(cfg)
}

/// Renders an [`EngineReport`] in the `count` verb's format — shared
/// verbatim by `count` and `client` so a served query prints exactly
/// like a local one (modulo the engine label).
fn print_report(name: &str, report: &EngineReport, timing: Timing, top: usize) {
    let counts = &report.counts;
    println!(
        "{}: {} instances across {} motif types ({timing}, engine {})",
        name,
        counts.total(),
        counts.num_signatures(),
        report.engine
    );
    if let Some(samples) = report.samples {
        println!(
            "  approximate: {samples} sample windows, estimated total {} (95% CI)",
            report.total
        );
    }
    for (sig, n) in counts.top_k(top) {
        let pairs: String =
            sig.event_pair_sequence().into_iter().map(|p| p.map_or('-', |t| t.letter())).collect();
        if report.exact {
            println!("  {sig:<12} {n:>10}  pairs {pairs}");
        } else {
            let e = report.estimate(sig);
            println!("  {sig:<12} {n:>10} ± {:<8.1} pairs {pairs}", e.half_width);
        }
    }
}

/// Renders a nanosecond quantity at a human scale.
fn format_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns} ns"),
        10_000..=9_999_999 => format!("{:.1} µs", ns as f64 / 1_000.0),
        10_000_000..=9_999_999_999 => format!("{:.1} ms", ns as f64 / 1_000_000.0),
        _ => format!("{:.2} s", ns as f64 / 1_000_000_000.0),
    }
}

/// Handles a traced serve request's telemetry: writes the span tree as
/// Chrome-trace JSON (`--trace FILE`) and/or prints the per-phase
/// profile with the request's metrics delta (`--profile`).
fn report_trace(
    trace: &TraceReply,
    path: Option<&str>,
    profile: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let trace_id = trace.spans.first().map_or(0, |s| s.trace_id);
    if let Some(path) = path {
        std::fs::write(path, tnm_obs::chrome_trace(&trace.spans))
            .map_err(|e| format!("cannot write trace file `{path}`: {e}"))?;
        println!(
            "wrote {} span(s) to {path} (Chrome-trace JSON, trace id {trace_id:016x})",
            trace.spans.len()
        );
    }
    if profile {
        println!("profile (trace id {trace_id:016x}, {} span(s)):", trace.spans.len());
        // Per-phase totals: spans aggregated by name, slowest first.
        let mut phases: std::collections::BTreeMap<&str, (u64, u64)> =
            std::collections::BTreeMap::new();
        for s in &trace.spans {
            let e = phases.entry(s.name.as_str()).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_ns;
        }
        let mut phases: Vec<_> = phases.into_iter().collect();
        phases.sort_by_key(|&(_, (_, total))| std::cmp::Reverse(total));
        for (name, (n, total)) in phases {
            println!("  {name:<28} {n:>4} span(s) {:>12} total", format_ns(total));
        }
        if !trace.metrics.counters.is_empty() {
            println!("  counters over this request:");
            for (name, v) in &trace.metrics.counters {
                println!("    {name:<30} {v}");
            }
        }
    }
    Ok(())
}

/// One `tnm top` frame: the latest time-series window rendered as
/// rates, latency quantiles and residency.
fn render_top(addr: &str, points: &[tnm_obs::TimePoint]) -> String {
    use std::fmt::Write;
    let Some(last) = points.last() else {
        return format!("tnm top — {addr}: no samples yet (the daemon samples once per second)\n");
    };
    let mut out = String::new();
    let d = &last.delta;
    if last.interval_ms == 0 {
        // The daemon's first sample counts from process start, not over
        // a measured window, so it yields no rate.
        let _ = writeln!(out, "tnm top — {addr} — first sample, no rates until the next one");
    } else {
        let secs = last.interval_ms as f64 / 1000.0;
        let _ = writeln!(
            out,
            "tnm top — {addr} — {} sample(s) retained, last window {secs:.1}s",
            points.len()
        );
        let rate = |name: &str| d.counters.get(name).copied().unwrap_or(0) as f64 / secs;
        let _ = writeln!(
            out,
            "  queries/s {:>9.2}    appended events/s {:>9.2}",
            rate("serve.queries"),
            rate("serve.appends")
        );
    }
    for (kind, hist) in [
        ("count", "serve.query.count_ns"),
        ("report", "serve.query.report_ns"),
        ("enumerate", "serve.query.enumerate_ns"),
        ("batch", "serve.query.batch_ns"),
    ] {
        if let Some(h) = d.histograms.get(hist) {
            if h.count > 0 {
                let _ = writeln!(
                    out,
                    "  {kind:<10} {:>5} in window    p50 {:>10}    p99 {:>10}",
                    h.count,
                    format_ns(h.percentile(0.5)),
                    format_ns(h.percentile(0.99))
                );
            }
        }
    }
    if let Some(g) = d.gauges.get("shard.resident_events") {
        let _ = writeln!(out, "  resident shard events {} (peak {})", g.value, g.peak);
    }
    out
}

/// The shared flag set plus per-command extras, for `ensure_known` —
/// one definition of the common list instead of a hand-copied one per
/// subcommand.
fn allowed_flags<'a>(common: &[&'a str], extras: &[&'a str]) -> Vec<&'a str> {
    let mut v = common.to_vec();
    v.extend_from_slice(extras);
    v
}

/// Parses a `count-batch` spec: one configuration per line of
/// whitespace-separated tokens — `key=value` pairs (`events=`, `nodes=`,
/// `min-nodes=`, `dc=`, `dw=`, `sig=`) and the bare restriction words
/// `consecutive` / `induced` / `constrained`. `#` starts a comment;
/// blank lines are skipped. Mirroring the `count` verb, every line must
/// bound the walk with `dc=` and/or `dw=`; `sig=` derives the event and
/// node budgets from the signature (and rejects a conflicting `events=`
/// or `nodes=`).
fn parse_batch_spec(text: &str) -> Result<Vec<EnumConfig>, Box<dyn std::error::Error>> {
    let mut batch = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("spec line {}: {msg}", idx + 1);
        let mut events: Option<usize> = None;
        let mut nodes: Option<usize> = None;
        let mut min_nodes: Option<usize> = None;
        let mut dc: Option<i64> = None;
        let mut dw: Option<i64> = None;
        let mut target: Option<MotifSignature> = None;
        let mut consecutive = false;
        let mut induced = false;
        let mut constrained = false;
        for tok in line.split_whitespace() {
            let bad = || at(format!("invalid token `{tok}`"));
            match tok.split_once('=') {
                Some(("events", v)) => events = Some(v.parse().map_err(|_| bad())?),
                Some(("nodes", v)) => nodes = Some(v.parse().map_err(|_| bad())?),
                Some(("min-nodes", v)) => min_nodes = Some(v.parse().map_err(|_| bad())?),
                Some(("dc", v)) => dc = Some(v.parse().map_err(|_| bad())?),
                Some(("dw", v)) => dw = Some(v.parse().map_err(|_| bad())?),
                Some(("sig", v)) => target = Some(v.parse().map_err(|_| bad())?),
                None if tok == "consecutive" => consecutive = true,
                None if tok == "induced" => induced = true,
                None if tok == "constrained" => constrained = true,
                _ => {
                    return Err(at(format!(
                        "unknown token `{tok}` (expected events= nodes= min-nodes= dc= dw= sig= \
                         or consecutive/induced/constrained)"
                    ))
                    .into())
                }
            }
        }
        if dc.is_none() && dw.is_none() {
            return Err(at("needs dc= and/or dw= (like the `count` verb)".to_string()).into());
        }
        if dc.is_some_and(|v| v <= 0) || dw.is_some_and(|v| v <= 0) {
            return Err(at("dc= and dw= must be positive".to_string()).into());
        }
        // Build first, validate once: the typed [`ConfigError`] path
        // catches shape conflicts (an explicit events=/nodes= fighting
        // sig=), bad node budgets, and min-nodes out of range — the
        // same checks the Query API and the serve daemon run.
        let mut cfg = match target {
            Some(t) => {
                let mut c = EnumConfig::for_signature(t);
                if let Some(e) = events {
                    c.num_events = e;
                }
                if let Some(n) = nodes {
                    c.max_nodes = n;
                }
                c
            }
            None => EnumConfig::try_new(events.unwrap_or(3), nodes.unwrap_or(3))
                .map_err(|e| at(e.to_string()))?,
        };
        cfg = cfg
            .with_timing(Timing { delta_c: dc, delta_w: dw })
            .with_consecutive(consecutive)
            .with_static_induced(induced)
            .with_constrained(constrained);
        if let Some(m) = min_nodes {
            cfg.min_nodes = m;
        }
        cfg.validate().map_err(|e| at(e.to_string()))?;
        batch.push(cfg);
    }
    if batch.is_empty() {
        return Err("batch spec contains no configurations (comments and blank lines only)".into());
    }
    Ok(batch)
}

/// Resolves the `count-batch` configuration list from `--spec FILE` or
/// `--all-3e-motifs` — exactly one of the two must be given.
fn batch_from(args: &Args) -> Result<Vec<EnumConfig>, Box<dyn std::error::Error>> {
    match (args.get("spec"), args.has("all-3e-motifs")) {
        (Some(_), true) => Err("--spec and --all-3e-motifs are mutually exclusive".into()),
        (None, false) => Err("count-batch requires --spec FILE or --all-3e-motifs".into()),
        (Some(path), false) => {
            if args.has("dw") {
                return Err("--dw sets the --all-3e-motifs window; spec lines carry their own \
                            dw= values"
                    .into());
            }
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec file `{path}`: {e}"))?;
            parse_batch_spec(&text)
        }
        (None, true) => {
            let dw: i64 = args.get_parsed("dw", 3000)?;
            if dw <= 0 {
                return Err("--dw must be positive".into());
            }
            Ok(all_3e()
                .into_iter()
                .map(|m| EnumConfig::for_signature(m).with_timing(Timing::only_w(dw)))
                .collect())
        }
    }
}

/// One-line rendering of a batch member for the `count-batch` output.
fn batch_cfg_summary(cfg: &EnumConfig) -> String {
    let mut s = match cfg.signature_filter {
        Some(t) => format!("sig {t}"),
        None => format!("{}e on {}..={} nodes", cfg.num_events, cfg.min_nodes, cfg.max_nodes),
    };
    s.push_str(&format!(", {}", cfg.timing));
    for (flag, label) in [
        (cfg.consecutive_events, "consecutive"),
        (cfg.static_induced, "induced"),
        (cfg.constrained_dynamic, "constrained"),
    ] {
        if flag {
            s.push_str(", ");
            s.push_str(label);
        }
    }
    s
}

/// The position/timespan figures enumerate exact per-instance statistics
/// that an approximate counter cannot provide; asking for the sampling
/// engine there must be an error, not a silent exact run.
fn reject_sampling_engine(args: &Args, what: &str) -> Result<(), Box<dyn std::error::Error>> {
    if let EngineKind::Sampling { .. } = run_config_from(args)?.engine {
        return Err(format!(
            "{what} enumerates exact instance statistics; --engine sampling is not applicable"
        )
        .into());
    }
    Ok(())
}

/// Flags every experiment and counting verb accepts.
const COMMON_FLAGS: [&str; 9] =
    ["scale", "seed", "csv", "dataset", "engine", "threads", "samples", "workers", "shard-events"];

fn run(command: &str, args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    match command {
        "help" | "--help" | "-h" => print!("{HELP}"),
        // Hidden: the worker side of the sharded engine's process
        // transport. Spawned by the coordinator as `tnm worker` with framed jobs on stdin and
        // framed replies on stdout; not intended for interactive use,
        // so it stays out of the help text. TNM_WORKER_EXIT_AFTER is
        // the crash-rescheduling tests' fault-injection knob.
        "worker" => {
            args.ensure_known(&[])?;
            // The coordinator propagates its obs flag via TNM_OBS=1 so
            // worker-side walks record the same metrics; the snapshots
            // travel back in the reply frames and merge on the
            // coordinator.
            if std::env::var("TNM_OBS").is_ok_and(|v| v == "1") {
                tnm_obs::set_enabled(true);
            }
            let exit_after =
                std::env::var("TNM_WORKER_EXIT_AFTER").ok().and_then(|v| v.parse::<usize>().ok());
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            tnm_motifs::engine::run_worker(
                stdin.lock(),
                std::io::BufWriter::new(stdout.lock()),
                exit_after,
            )?;
        }
        "list" => {
            args.ensure_known(&COMMON_FLAGS)?;
            for spec in DatasetSpec::all() {
                println!(
                    "{:<18} {:>7} nodes {:>7} events  median gap {:>5.0}s  ({:?})",
                    spec.name, spec.num_nodes, spec.num_events, spec.median_gap, spec.domain
                );
            }
        }
        "stats" => {
            args.ensure_known(&COMMON_FLAGS)?;
            for e in &corpus_from(args)?.entries {
                let s = GraphStats::compute(&e.graph);
                println!(
                    "{}: {} nodes, {} events, {} edges, {} timestamps, \
                     unique {:.1}%, median gap {:.0}s, timespan {}s",
                    e.spec.name,
                    s.nodes,
                    s.events,
                    s.static_edges,
                    s.unique_timestamps,
                    s.unique_timestamp_fraction * 100.0,
                    s.median_inter_event_time,
                    s.timespan
                );
            }
        }
        "generate" => {
            args.ensure_known(&["scale", "seed", "dataset", "out"])?;
            let corpus = corpus_from(args)?;
            let out = args.get("out").ok_or("generate requires --out FILE")?;
            let entry = corpus.entries.first().ok_or("generate requires --dataset NAME")?;
            tnm_graph::io::write_edge_list_file(&entry.graph, out)?;
            println!("wrote {} events to {out}", entry.graph.num_events());
        }
        "count" => {
            args.ensure_known(&allowed_flags(
                &COMMON_FLAGS,
                &[
                    "events",
                    "nodes",
                    "dc",
                    "dw",
                    "consecutive",
                    "induced",
                    "constrained",
                    "top",
                    "trace",
                    "explain",
                    "input",
                ],
            ))?;
            let input = args.get("input");
            if input.is_some() && (args.has("dataset") || args.positional(0).is_some()) {
                return Err("--input and --dataset are mutually exclusive".into());
            }
            let cfg = count_cfg_from(args)?;
            let rc = run_config_from(args)?;
            let top: usize = args.get_parsed("top", 20)?;
            let timing = cfg.timing;
            // TNM_OBS=1 turns the metrics registry on for this run (the
            // same knob `tnm worker` honors), so operators can
            // meter ad-hoc counts. Counts must be unaffected — CI diffs
            // this verb's output against a metrics-off run.
            if std::env::var("TNM_OBS").is_ok_and(|v| v == "1") {
                tnm_obs::set_enabled(true);
            }
            let trace = args.get("trace");
            if trace.is_some() {
                // Collect spans for exactly this run, ingest included:
                // flip the flag on and clear anything left behind.
                tnm_obs::set_enabled(true);
                tnm_obs::drain_spans();
            }
            let (name, graph) = match input {
                Some(path) => {
                    let graph = tnm_graph::io::read_edge_list_file(path)
                        .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                    let stem = std::path::Path::new(path).file_stem().unwrap_or_default();
                    (stem.to_string_lossy().into_owned(), graph)
                }
                None => {
                    let entry = corpus_from(args)?.entries.into_iter().next();
                    let entry = entry.ok_or("count requires --dataset NAME or --input FILE")?;
                    (entry.spec.name, entry.graph)
                }
            };
            if args.has("explain") {
                println!("{}", tnm_motifs::engine::explain_auto_select(&graph, &cfg, rc.threads));
            }
            // One validation-and-dispatch path for every front end: the
            // same Query the serve daemon answers over the wire.
            let query = Query::Report { cfg, engine: rc.engine, threads: rc.threads };
            let QueryResponse::Report(report) = query.run(&graph)? else {
                unreachable!("Report queries answer with Report responses")
            };
            print_report(&name, &report, timing, top);
            if let Some(path) = trace {
                let spans = tnm_obs::drain_spans();
                std::fs::write(path, tnm_obs::chrome_trace(&spans))
                    .map_err(|e| format!("cannot write trace file `{path}`: {e}"))?;
                tnm_obs::set_enabled(false);
                println!("wrote {} span(s) to {path} (Chrome-trace JSON)", spans.len());
            }
        }
        "count-batch" => {
            args.ensure_known(&allowed_flags(
                &COMMON_FLAGS,
                &["spec", "all-3e-motifs", "dw", "top"],
            ))?;
            let batch = batch_from(args)?;
            let rc = run_config_from(args)?;
            let corpus = corpus_from(args)?;
            let entry = corpus.entries.first().ok_or("count-batch requires --dataset NAME")?;
            // Validate through the Query path before planning, then let
            // the query execute the shared-traversal plan (results are
            // bit-identical to per-config `count` runs).
            let query =
                Query::Batch { cfgs: batch.clone(), engine: rc.engine, threads: rc.threads };
            query.validate()?;
            let plan = BatchPlanner::plan(&entry.graph, &batch, rc.engine, rc.threads);
            println!(
                "{}: {} configurations in {} shared traversal group(s) (engine {}):",
                entry.spec.name,
                batch.len(),
                plan.num_groups(),
                rc.engine
            );
            for line in plan.describe().lines() {
                println!("  [{line}]");
            }
            let QueryResponse::Batch(results) = query.run(&entry.graph)? else {
                unreachable!("Batch queries answer with Batch responses")
            };
            let top: usize = args.get_parsed("top", 3)?;
            for (i, (cfg, counts)) in batch.iter().zip(&results).enumerate() {
                print!(
                    "  #{i:<3} {}: {} instances across {} motif types",
                    batch_cfg_summary(cfg),
                    counts.total(),
                    counts.num_signatures()
                );
                let head: Vec<String> =
                    counts.top_k(top).into_iter().map(|(s, n)| format!("{s}:{n}")).collect();
                if head.is_empty() {
                    println!();
                } else {
                    println!("  [{}]", head.join(" "));
                }
            }
        }
        "serve" => {
            args.ensure_known(&["host", "port", "threads", "enumerate-cap", "http-port"])?;
            let host = args.get("host").unwrap_or("127.0.0.1");
            let port: u16 = args.get_parsed("port", 7878)?;
            let mut options = ServeOptions::default();
            options.max_threads = args.get_parsed("threads", options.max_threads)?;
            if options.max_threads == 0 {
                return Err("--threads must be at least 1".into());
            }
            options.enumerate_cap = args.get_parsed("enumerate-cap", options.enumerate_cap)?;
            if args.has("http-port") {
                options.http_port = Some(args.get_parsed("http-port", 9090)?);
            }
            let server = MotifServer::bind_with((host, port), options)?;
            println!("tnm serve: listening on {}", server.local_addr());
            if let Some(http) = server.http_addr() {
                println!(
                    "tnm serve: scrape surface on http://{http} (/metrics /healthz /timeseries)"
                );
            }
            server.run()?;
        }
        "client" => {
            args.ensure_known(&allowed_flags(
                &COMMON_FLAGS,
                &[
                    "addr",
                    "name",
                    "stats",
                    "metrics",
                    "slow-queries",
                    "shutdown",
                    "events",
                    "nodes",
                    "dc",
                    "dw",
                    "consecutive",
                    "induced",
                    "constrained",
                    "top",
                    "hold-out",
                    "append-batch",
                    "trace",
                    "profile",
                ],
            ))?;
            let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
            let mut client =
                ServeClient::connect_retry(addr, 40, std::time::Duration::from_millis(250))?;
            if args.has("shutdown") {
                client.shutdown()?;
                println!("tnm client: asked {addr} to shut down");
                return Ok(());
            }
            if args.has("metrics") {
                print!("{}", client.metrics()?.to_prometheus());
                return Ok(());
            }
            if args.has("stats") {
                let s = client.stats()?;
                println!(
                    "server at {addr}: {} queries, {} appended events, {} graph(s)",
                    s.queries,
                    s.appends,
                    s.graphs.len()
                );
                for g in &s.graphs {
                    println!(
                        "  {:<18} {:>9} events {:>8} nodes {:>3} subscription(s)",
                        g.name, g.events, g.nodes, g.subscriptions
                    );
                }
                return Ok(());
            }
            if args.has("slow-queries") {
                let s = client.stats()?;
                println!("server at {addr}: slowest {} of {} queries", s.slow.len(), s.queries);
                for e in &s.slow {
                    println!(
                        "  {:<10} {:<18} {:>12}  trace {}  {} span(s)",
                        e.kind,
                        e.graph,
                        format_ns(e.latency_ns),
                        if e.trace_id == 0 {
                            "-".to_string()
                        } else {
                            format!("{:016x}", e.trace_id)
                        },
                        e.spans.len()
                    );
                }
                println!("flight recorder ({} most recent):", s.flight.len());
                for e in &s.flight {
                    println!("  {:<10} {:<18} {:>12}", e.kind, e.graph, format_ns(e.latency_ns));
                }
                return Ok(());
            }
            let corpus = corpus_from(args)?;
            let entry = corpus
                .entries
                .first()
                .ok_or("client requires --dataset NAME (or --stats / --shutdown)")?;
            let cfg = count_cfg_from(args)?;
            let rc = run_config_from(args)?;
            let top: usize = args.get_parsed("top", 20)?;
            let timing = cfg.timing;
            let name = args.get("name").unwrap_or(&entry.spec.name);
            let all = entry.graph.events();
            let hold_out: usize = args.get_parsed("hold-out", 0)?;
            let hold_out = hold_out.min(all.len());
            let chunk: usize = args.get_parsed("append-batch", 512)?;
            if chunk == 0 {
                return Err("--append-batch must be at least 1".into());
            }
            let (base, tail) = all.split_at(all.len() - hold_out);
            let trace_path = args.get("trace");
            let wants_trace = trace_path.is_some() || args.has("profile");
            client.load_graph(name, base, entry.graph.num_nodes())?;
            if hold_out == 0 {
                // The very query `count` runs locally, answered by the
                // daemon — same validation, same dispatch, same report.
                let query = Query::Report { cfg, engine: rc.engine, threads: rc.threads };
                let response = if wants_trace {
                    let (response, trace) = client.query_traced(name, &query)?;
                    report_trace(&trace, trace_path, args.has("profile"))?;
                    response
                } else {
                    client.query(name, &query)?
                };
                let QueryResponse::Report(report) = response else {
                    return Err("server answered a Report query with the wrong shape".into());
                };
                print_report(name, &report, timing, top);
            } else {
                // Live path: subscribe, then stream the held-out tail
                // through incremental appends. The final counts are
                // bit-identical to counting the full graph from scratch.
                // Tracing covers the subscription's initial count.
                let (sub_id, mut live) = if wants_trace {
                    let (sub_id, live, trace) = client.subscribe_traced(name, &cfg)?;
                    report_trace(&trace, trace_path, args.has("profile"))?;
                    (sub_id, live)
                } else {
                    client.subscribe(name, &cfg)?
                };
                for batch in tail.chunks(chunk) {
                    let ack = client.append_events(name, batch)?;
                    if let Some((_, c)) =
                        ack.subscriptions.into_iter().find(|(id, _)| *id == sub_id)
                    {
                        live = c;
                    }
                }
                print_report(name, &EngineReport::from_exact("serve", live), timing, top);
            }
        }
        "top" => {
            args.ensure_known(&["addr", "interval", "iters"])?;
            let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
            let interval: u64 = args.get_parsed("interval", 1000)?;
            let iters: usize = args.get_parsed("iters", 0)?;
            let mut client = ServeClient::connect(addr)?;
            let mut frame = 0usize;
            loop {
                use std::io::IsTerminal;
                if std::io::stdout().is_terminal() {
                    // Repaint in place only when attached to a terminal;
                    // piped output stays an appendable log.
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", render_top(addr, &client.timeseries()?));
                frame += 1;
                if iters != 0 && frame >= iters {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(interval.max(50)));
            }
        }
        "cycles" => {
            args.ensure_known(&["scale", "seed", "dataset", "dw", "max-len"])?;
            let corpus = corpus_from(args)?;
            let entry = corpus.entries.first().ok_or("cycles requires --dataset NAME")?;
            let dw: i64 = args.get_parsed("dw", 3600)?;
            let max_len: usize = args.get_parsed("max-len", 4)?;
            let counts = count_temporal_cycles(&entry.graph, &CycleConfig::new(max_len, dw));
            let mut lens: Vec<_> = counts.iter().collect();
            lens.sort();
            println!("{}: temporal cycles within dW={dw}s:", entry.spec.name);
            for (len, n) in lens {
                println!("  length {len}: {n}");
            }
        }
        "table2" => {
            args.ensure_known(&COMMON_FLAGS)?;
            let t = experiments::table2::run(&corpus_from(args)?);
            if args.has("csv") {
                print!("{}", t.to_csv());
            } else {
                print!("{}", t.render());
            }
        }
        "table3" => {
            args.ensure_known(&allowed_flags(&COMMON_FLAGS, &["full"]))?;
            let t = experiments::table3::run_with(&corpus_from(args)?, &run_config_from(args)?);
            if args.has("csv") {
                print!("{}", t.to_csv());
            } else {
                print!("{}", t.render());
                if args.has("full") {
                    println!();
                    print!("{}", t.render_full());
                }
            }
        }
        "table4" => {
            args.ensure_known(&allowed_flags(&COMMON_FLAGS, &["full"]))?;
            let t = experiments::table4::run_with(&corpus_from(args)?, &run_config_from(args)?);
            if args.has("csv") {
                print!("{}", t.to_csv());
            } else {
                print!("{}", t.render());
                if args.has("full") {
                    println!();
                    print!("{}", t.render_full());
                }
            }
        }
        "table5" => {
            args.ensure_known(&COMMON_FLAGS)?;
            let t = experiments::table5::run_with(&corpus_from(args)?, &run_config_from(args)?);
            if args.has("csv") {
                print!("{}", t.to_csv());
            } else {
                print!("{}", t.render());
            }
        }
        "fig1" => {
            args.ensure_known(&COMMON_FLAGS)?;
            print!("{}", experiments::fig1::run().render());
        }
        "fig2" => {
            args.ensure_known(&COMMON_FLAGS)?;
            print!("{}", experiments::fig2::run().render());
        }
        "fig3" => {
            args.ensure_known(&allowed_flags(&COMMON_FLAGS, &["include-4e"]))?;
            let f = experiments::fig3::run_with(
                &corpus_from(args)?,
                args.has("include-4e"),
                &run_config_from(args)?,
            );
            if args.has("csv") {
                print!("{}", f.to_csv());
            } else {
                print!("{}", f.render());
            }
        }
        "fig4" => {
            args.ensure_known(&allowed_flags(&COMMON_FLAGS, &["all"]))?;
            reject_sampling_engine(args, "fig4")?;
            let f = experiments::fig4::run(&corpus_from(args)?, args.has("all"));
            if args.has("csv") {
                print!("{}", f.to_csv());
            } else {
                print!("{}", f.render());
            }
        }
        "fig5" => {
            args.ensure_known(&allowed_flags(&COMMON_FLAGS, &["all"]))?;
            reject_sampling_engine(args, "fig5")?;
            let f = experiments::fig5::run(&corpus_from(args)?, args.has("all"));
            if args.has("csv") {
                print!("{}", f.to_csv());
            } else {
                print!("{}", f.render());
            }
        }
        "fig6" => {
            args.ensure_known(&COMMON_FLAGS)?;
            let f = experiments::fig6::run_with(&corpus_from(args)?, &run_config_from(args)?);
            if args.has("csv") {
                print!("{}", f.to_csv());
            } else {
                print!("{}", f.render());
            }
        }
        "all" => {
            args.ensure_known(&COMMON_FLAGS)?;
            let corpus = corpus_from(args)?;
            let rc = run_config_from(args)?;
            print!("{}", experiments::table2::run(&corpus).render());
            println!();
            print!("{}", experiments::fig1::run().render());
            println!();
            print!("{}", experiments::fig2::run().render());
            println!();
            print!("{}", experiments::table3::run_with(&corpus, &rc).render());
            println!();
            print!("{}", experiments::table4::run_with(&corpus, &rc).render());
            println!();
            print!("{}", experiments::table5::run_with(&corpus, &rc).render());
            println!();
            print!("{}", experiments::fig3::run_with(&corpus, true, &rc).render());
            println!();
            print!("{}", experiments::fig4::run(&corpus, true).render());
            println!();
            print!("{}", experiments::fig5::run(&corpus, true).render());
            println!();
            print!("{}", experiments::fig6::run_with(&corpus, &rc).render());
        }
        other => {
            eprintln!("unknown command `{other}`\n");
            eprint!("{HELP}");
            return Err("unknown command".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnm_motifs::engine::DEFAULT_SHARD_EVENTS;

    fn rc(tokens: &[&str]) -> Result<RunConfig, Box<dyn std::error::Error>> {
        run_config_from(&Args::parse(tokens.iter().map(|s| s.to_string())).unwrap())
    }

    #[test]
    fn engine_flags_parse() {
        assert_eq!(rc(&[]).unwrap().engine, EngineKind::Auto);
        assert_eq!(rc(&["--engine", "windowed"]).unwrap().engine, EngineKind::Windowed);
        assert_eq!(rc(&["--engine", "stream"]).unwrap().engine, EngineKind::Stream);
        assert_eq!(
            rc(&["--engine", "sharded"]).unwrap().engine,
            EngineKind::sharded(DEFAULT_SHARD_EVENTS, 0)
        );
        assert_eq!(
            rc(&["--engine", "sharded", "--shard-events", "512", "--workers", "3"]).unwrap().engine,
            EngineKind::sharded(512, 3)
        );
        assert_eq!(
            rc(&["--engine", "sampling", "--samples", "99", "--seed", "7"]).unwrap().engine,
            EngineKind::sampling(99, 7)
        );
        assert_eq!(
            rc(&["--engine", "sharded", "--workers", "4"]).unwrap().engine,
            EngineKind::sharded(DEFAULT_SHARD_EVENTS, 4)
        );
        assert_eq!(rc(&["--threads", "3"]).unwrap().threads, 3);
    }

    /// Nonsensical flag/engine combinations must fail loudly, naming the
    /// offending engine — not silently run an exact count.
    #[test]
    fn nonsensical_combos_rejected() {
        for exact in ["windowed", "stream", "sharded"] {
            let err = rc(&["--engine", exact, "--samples", "10"]).unwrap_err().to_string();
            assert!(
                err.contains("--engine sampling") && err.contains(exact),
                "engine {exact}: unhelpful error `{err}`"
            );
        }
        // --shard-events and --workers belong to the sharded engine.
        for flag in ["--shard-events", "--workers"] {
            let err = rc(&["--engine", "windowed", flag, "4"]).unwrap_err().to_string();
            assert!(
                err.contains("--engine sharded") && err.contains("windowed"),
                "flag {flag}: unhelpful error `{err}`"
            );
            // ...including when no engine was requested at all (auto).
            let err = rc(&[flag, "4"]).unwrap_err().to_string();
            assert!(err.contains("--engine sharded"), "flag {flag}: unhelpful error `{err}`");
        }
        assert!(rc(&["--engine", "sampling", "--samples", "0"]).is_err());
        assert!(rc(&["--engine", "sharded", "--shard-events", "0"]).is_err());
        assert!(rc(&["--engine", "sharded", "--workers", "0"]).is_err());
        assert!(rc(&["--engine", "bogus"]).unwrap_err().to_string().contains("sharded"));
        // The retired engine name and spill flag are gone: the name fails
        // to parse, the flag is unknown to every verb.
        assert!(rc(&["--engine", "distributed"]).is_err());
        // The walk is one engine; its thread count is --threads.
        for retired in ["backtrack", "parallel"] {
            let err = rc(&["--engine", retired]).unwrap_err().to_string();
            assert!(err.contains("windowed"), "engine {retired}: unhelpful error `{err}`");
        }
        let spill = Args::parse(["--max-resident-shards", "2"].iter().map(|s| s.to_string()));
        assert!(spill.unwrap().ensure_known(&COMMON_FLAGS).is_err());
    }

    fn batch(tokens: &[&str]) -> Result<Vec<EnumConfig>, Box<dyn std::error::Error>> {
        batch_from(&Args::parse(tokens.iter().map(|s| s.to_string())).unwrap())
    }

    #[test]
    fn count_batch_spec_parses() {
        let text = "# full-spectrum sweep\n\
                    events=3 nodes=3 dw=3000\n\
                    sig=010102 dc=10 dw=40 consecutive   # targeted\n\
                    \n\
                    events=2 nodes=3 min-nodes=3 dc=5 induced constrained\n";
        let batch = parse_batch_spec(text).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].timing, Timing::only_w(3000));
        assert_eq!(batch[1].signature_filter, Some(sig("010102")));
        assert_eq!(batch[1].timing, Timing::both(10, 40));
        assert!(batch[1].consecutive_events);
        assert_eq!(batch[2].min_nodes, 3);
        assert!(batch[2].static_induced && batch[2].constrained_dynamic);
    }

    /// `count-batch` input validation: empty batches, malformed spec
    /// lines, and flag combinations must fail loudly with the offending
    /// piece named — per the existing `count` conventions.
    #[test]
    fn count_batch_validation() {
        // Empty batch (comments/blank lines only) is an error, not a no-op.
        let err = parse_batch_spec("# nothing\n\n").unwrap_err().to_string();
        assert!(err.contains("no configurations"), "{err}");
        // Unknown tokens, missing timing, bad bounds — with line numbers.
        let err = parse_batch_spec("events=3 dw=10\nbogus=1 dw=10").unwrap_err().to_string();
        assert!(err.contains("line 2") && err.contains("bogus"), "{err}");
        let err = parse_batch_spec("events=3 nodes=3").unwrap_err().to_string();
        assert!(err.contains("dc=") && err.contains("dw="), "{err}");
        assert!(parse_batch_spec("events=3 dw=0").is_err());
        assert!(parse_batch_spec("events=3 dw=10 min-nodes=9").is_err());
        // sig= fixes the shape; a conflicting events=/nodes= is an error.
        let err = parse_batch_spec("sig=010102 events=2 dw=10").unwrap_err().to_string();
        assert!(err.contains("implies events=3"), "{err}");
        // Exactly one batch source.
        let err = batch(&["--spec", "x.spec", "--all-3e-motifs"]).unwrap_err().to_string();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = batch(&[]).unwrap_err().to_string();
        assert!(err.contains("--spec") && err.contains("--all-3e-motifs"), "{err}");
        // --dw belongs to --all-3e-motifs; spec lines carry their own.
        let err = batch(&["--spec", "x.spec", "--dw", "10"]).unwrap_err().to_string();
        assert!(err.contains("dw="), "{err}");
        assert!(batch(&["--all-3e-motifs", "--dw", "0"]).is_err());
        // The canonical batch: 36 three-event motifs, shared window.
        let b = batch(&["--all-3e-motifs"]).unwrap();
        assert_eq!(b.len(), 36);
        assert!(b.iter().all(|c| c.timing == Timing::only_w(3000) && c.signature_filter.is_some()));
    }

    /// A ring sampled at `times` (ms) with `queries[i]` queries served
    /// before sample `i`, as the daemon's sampler records it.
    fn ring(times: &[u64], queries: &[u64]) -> Vec<tnm_obs::TimePoint> {
        let r = tnm_obs::Registry::new();
        let mut ts = tnm_obs::TimeSeries::new(8);
        for (&at, &q) in times.iter().zip(queries) {
            r.counter("serve.queries").add(q);
            ts.record(at, r.snapshot());
        }
        ts.points().cloned().collect()
    }

    #[test]
    fn top_renders_rates_over_the_last_window() {
        let frame = render_top("d", &ring(&[1_000, 3_000], &[4, 5]));
        assert!(frame.contains("2 sample(s) retained, last window 2.0s"), "{frame}");
        assert!(frame.contains("queries/s      2.50"), "{frame}");
    }

    /// The first sample's flows count from daemon start over no measured
    /// window: dividing them by a 1 ms floor printed 5 queries as 5000/s.
    #[test]
    fn top_prints_no_rate_for_the_first_sample() {
        let frame = render_top("d", &ring(&[1_000], &[5]));
        assert!(!frame.contains("queries/s"), "{frame}");
        assert!(frame.contains("first sample"), "{frame}");
    }

    #[test]
    fn top_reports_an_empty_ring() {
        let frame = render_top("d", &[]);
        assert!(frame.contains("no samples yet"), "{frame}");
        assert!(!frame.contains("queries/s"), "{frame}");
    }
}
