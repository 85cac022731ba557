//! `tnm` — the temporal-network-motifs experiment driver.
//!
//! Regenerates every table and figure of the paper on the synthetic
//! corpus, and exposes ad-hoc counting/generation utilities. Run
//! `tnm help` for the command list.

mod args;

use args::{Args, Flags};
use std::error::Error;
use std::process::ExitCode;
use tnm_analysis::experiments::{self, Corpus, RunConfig};
use tnm_datasets::DatasetSpec;
use tnm_graph::stats::GraphStats;
use tnm_motifs::cycles::{count_temporal_cycles, CycleConfig};
use tnm_motifs::prelude::*;

const HELP: &str = "\
tnm — Temporal Network Motifs: Models, Limitations, Evaluation (reproduction)

USAGE: tnm <command> [flags]

Experiment commands (all accept --scale F, --seed N, --engine E,
--threads N, --samples K; table2-table5 and fig3-fig6 also --csv):
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
  --csv         Emit CSV instead of a rendered table (table2-table5,
                fig3-fig6)
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

/// What a verb's handler and its helpers return.
type CliResult<T = ()> = Result<T, Box<dyn Error>>;

/// A table or figure's CSV, if it has one, and its rendered text.
type Texts = (Option<String>, String);

// Flag groups shared by several verbs: the graph source (see
// [`args::Source`]), the engine choice (see [`run_config_from`]), and
// the motif vocabulary of `count`, `client` and, with a node floor and
// a target signature, a `count-batch` spec line (see [`motif_config`]).
// Only the verbs with a CSV form take `--csv`.
const SOURCE: &str = "dataset= scale= seed=";
const ENGINE: &str = "engine= threads= samples= workers= shard-events=";
const COMMON: Flags = &[SOURCE, ENGINE];
const CSV: Flags = &[SOURCE, ENGINE, "csv"];
const MOTIF: &str = "events= nodes= dc= dw= consecutive induced constrained";
const SPEC_LINE: Flags = &[MOTIF, "min-nodes= sig="];
const CLIENT: &str =
    "addr= name= stats metrics slow-queries shutdown top= hold-out= append-batch= trace= profile";

/// A verb: its name, its flags and its handler.
type Verb = (&'static str, Flags, fn(&Args) -> CliResult);

/// Every verb. `help` is answered before this table is read.
const VERBS: &[Verb] = &[
    ("worker", &[], worker),
    ("list", COMMON, list),
    ("stats", COMMON, stats),
    ("generate", &[SOURCE, "out="], generate),
    ("count", &[SOURCE, ENGINE, MOTIF, "top= trace= explain input="], count),
    ("count-batch", &[SOURCE, ENGINE, "spec= all-3e-motifs dw= top="], count_batch),
    ("serve", &["host= port= threads= enumerate-cap= http-port="], serve),
    ("client", &[SOURCE, ENGINE, MOTIF, CLIENT], client),
    ("top", &["addr= interval= iters="], top),
    ("cycles", &[SOURCE, "dw= max-len="], cycles),
    ("table2", CSV, experiment),
    ("table3", &[SOURCE, ENGINE, "csv full"], experiment),
    ("table4", &[SOURCE, ENGINE, "csv full"], experiment),
    ("table5", CSV, experiment),
    ("fig1", COMMON, experiment),
    ("fig2", COMMON, experiment),
    ("fig3", &[SOURCE, ENGINE, "csv include-4e"], experiment),
    ("fig4", &[SOURCE, ENGINE, "csv all"], experiment),
    ("fig5", &[SOURCE, ENGINE, "csv all"], experiment),
    ("fig6", CSV, experiment),
    ("all", COMMON, all),
];

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
    let Some(command) = argv.next() else {
        eprint!("{HELP}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let Some(&(verb, flags, run)) = VERBS.iter().find(|(name, ..)| *name == command) else {
        eprintln!("unknown command `{command}`\n");
        eprint!("{HELP}");
        eprintln!("error: unknown command");
        return ExitCode::FAILURE;
    };
    match Args::parse(verb, flags, argv).map_err(Into::into).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_config_from(args: &Args) -> CliResult<RunConfig> {
    let mut rc = RunConfig::default();
    if let Some(name) = args.get("engine") {
        rc.engine = name.parse::<EngineKind>()?;
    }
    // Each engine option belongs to one engine and must be at least 1.
    for (flag, owner) in
        [("samples", "sampling"), ("shard-events", "sharded"), ("workers", "sharded")]
    {
        let owned = match rc.engine {
            EngineKind::Sampling { .. } => owner == "sampling",
            EngineKind::Sharded { .. } => owner == "sharded",
            _ => false,
        };
        if args.has(flag) && !owned {
            let engine = rc.engine;
            let got = match owner {
                "sampling" => format!("engine `{engine}` counts exactly"),
                _ => format!("got engine `{engine}`"),
            };
            return Err(format!("--{flag} is only valid with --engine {owner} ({got})").into());
        }
        if args.get_parsed(flag, 1u64)? == 0 {
            return Err(format!("--{flag} must be at least 1").into());
        }
    }
    rc.engine = match rc.engine {
        EngineKind::Sampling { samples, seed } => EngineKind::Sampling {
            samples: args.get_parsed("samples", samples)?,
            seed: args.get_parsed("seed", seed)?,
        },
        EngineKind::Sharded { shard_events, workers } => EngineKind::Sharded {
            shard_events: args.get_parsed("shard-events", shard_events)?,
            workers: args.get_parsed("workers", workers)?,
        },
        engine => engine,
    };
    rc.threads = args.get_parsed("threads", rc.threads)?;
    Ok(rc)
}

/// Builds an [`EnumConfig`] from the motif vocabulary: the `count` and
/// `client` flags and the keys of a `count-batch` spec line alike.
/// Every configuration needs a positive ΔC and/or ΔW; `sig` derives the
/// event and node budgets from the signature (and a conflicting
/// `events`/`nodes` is an error). Validated through
/// [`EnumConfig::validate`], the same typed [`ConfigError`] path the
/// Query API and the serve daemon use.
fn motif_config(args: &Args) -> CliResult<EnumConfig> {
    let events: Option<usize> = args.get_opt("events")?;
    let nodes: Option<usize> = args.get_opt("nodes")?;
    let dc: Option<i64> = args.get_opt("dc")?;
    let dw: Option<i64> = args.get_opt("dw")?;
    if dc.is_none() && dw.is_none() {
        return Err("a motif needs --dc and/or --dw (dc= and/or dw= on a spec line)".into());
    }
    if dc.is_some_and(|v| v <= 0) || dw.is_some_and(|v| v <= 0) {
        return Err("--dc and --dw (dc= and dw= on a spec line) must be positive".into());
    }
    let mut cfg = match args.get_opt::<MotifSignature>("sig")? {
        Some(target) => {
            let mut c = EnumConfig::for_signature(target);
            c.num_events = events.unwrap_or(c.num_events);
            c.max_nodes = nodes.unwrap_or(c.max_nodes);
            c
        }
        None => EnumConfig::try_new(events.unwrap_or(3), nodes.unwrap_or(3))?,
    }
    .with_timing(Timing { delta_c: dc, delta_w: dw })
    .with_consecutive(args.has("consecutive"))
    .with_static_induced(args.has("induced"))
    .with_constrained(args.has("constrained"));
    cfg.min_nodes = args.get_parsed("min-nodes", cfg.min_nodes)?;
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
fn report_trace(trace: &TraceReply, path: Option<&str>, profile: bool) -> CliResult {
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

/// Parses a `count-batch` spec: one configuration per line, in the
/// motif vocabulary of [`motif_config`] written as `key=value` tokens
/// and bare restriction words, plus `min-nodes=` and `sig=`. `#` starts
/// a comment; blank lines are skipped.
fn parse_batch_spec(text: &str) -> CliResult<Vec<EnumConfig>> {
    let mut batch = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let cfg = Args::parse_spec_line(SPEC_LINE, line)
            .map_err(Into::into)
            .and_then(|args| motif_config(&args))
            .map_err(|e| format!("spec line {}: {e}", idx + 1))?;
        batch.push(cfg);
    }
    if batch.is_empty() {
        return Err("batch spec contains no configurations (comments and blank lines only)".into());
    }
    Ok(batch)
}

/// Resolves the `count-batch` configuration list from `--spec FILE` or
/// `--all-3e-motifs` — exactly one of the two must be given.
fn batch_from(args: &Args) -> CliResult<Vec<EnumConfig>> {
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

/// The worker side of the sharded engine's process transport. Spawned
/// by the coordinator as `tnm worker` with framed jobs on stdin and
/// framed replies on stdout; not intended for interactive use, so it
/// stays out of the help text. TNM_WORKER_EXIT_AFTER is the
/// crash-rescheduling tests' fault-injection knob.
fn worker(_: &Args) -> CliResult {
    // The coordinator propagates its obs flag via TNM_OBS=1 so
    // worker-side walks record the same metrics; the snapshots travel
    // back in the reply frames and merge on the coordinator.
    if std::env::var("TNM_OBS").is_ok_and(|v| v == "1") {
        tnm_obs::set_enabled(true);
    }
    let exit_after =
        std::env::var("TNM_WORKER_EXIT_AFTER").ok().and_then(|v| v.parse::<usize>().ok());
    let stdout = std::io::BufWriter::new(std::io::stdout().lock());
    Ok(tnm_motifs::engine::run_worker(std::io::stdin().lock(), stdout, exit_after)?)
}

fn list(_: &Args) -> CliResult {
    for spec in DatasetSpec::all() {
        println!(
            "{:<18} {:>7} nodes {:>7} events  median gap {:>5.0}s  ({:?})",
            spec.name, spec.num_nodes, spec.num_events, spec.median_gap, spec.domain
        );
    }
    Ok(())
}

fn stats(args: &Args) -> CliResult {
    for e in &args.source()?.corpus()?.entries {
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
    Ok(())
}

fn generate(args: &Args) -> CliResult {
    let out = args.get("out").ok_or("generate requires --out FILE")?;
    let (_, graph) = args.source()?.graph()?;
    tnm_graph::io::write_edge_list_file(&graph, out)?;
    println!("wrote {} events to {out}", graph.num_events());
    Ok(())
}

fn count(args: &Args) -> CliResult {
    let source = args.source()?;
    let cfg = motif_config(args)?;
    let rc = run_config_from(args)?;
    let top: usize = args.get_parsed("top", 20)?;
    let timing = cfg.timing;
    // TNM_OBS=1 turns the metrics registry on for this run (the same
    // knob `tnm worker` honors), so operators can meter ad-hoc counts.
    // Counts must be unaffected — CI diffs this verb's output against a
    // metrics-off run.
    if std::env::var("TNM_OBS").is_ok_and(|v| v == "1") {
        tnm_obs::set_enabled(true);
    }
    let trace = args.get("trace");
    if trace.is_some() {
        // Collect spans for exactly this run, ingest included: flip the
        // flag on and clear anything left behind.
        tnm_obs::set_enabled(true);
        tnm_obs::drain_spans();
    }
    let (name, graph) = source.graph()?;
    if args.has("explain") {
        println!("{}", tnm_motifs::engine::explain_auto_select(&graph, &cfg, rc.threads));
    }
    // One validation-and-dispatch path for every front end: the same
    // Query the serve daemon answers over the wire.
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
    Ok(())
}

fn count_batch(args: &Args) -> CliResult {
    let batch = batch_from(args)?;
    let rc = run_config_from(args)?;
    let (name, graph) = args.source()?.graph()?;
    // Validate through the Query path before planning, then let the
    // query execute the shared-traversal plan (results are bit-identical
    // to per-config `count` runs).
    let query = Query::Batch { cfgs: batch.clone(), engine: rc.engine, threads: rc.threads };
    query.validate()?;
    let plan = BatchPlanner::plan(&graph, &batch, rc.engine, rc.threads);
    println!(
        "{name}: {} configurations in {} shared traversal group(s) (engine {}):",
        batch.len(),
        plan.num_groups(),
        rc.engine
    );
    for line in plan.describe().lines() {
        println!("  [{line}]");
    }
    let QueryResponse::Batch(results) = query.run(&graph)? else {
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
    Ok(())
}

fn serve(args: &Args) -> CliResult {
    let host = args.get("host").unwrap_or("127.0.0.1");
    let port: u16 = args.get_parsed("port", 7878)?;
    let mut options = ServeOptions::default();
    options.max_threads = args.get_parsed("threads", options.max_threads)?;
    if options.max_threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    options.enumerate_cap = args.get_parsed("enumerate-cap", options.enumerate_cap)?;
    options.http_port = args.get_opt("http-port")?;
    let server = MotifServer::bind_with((host, port), options)?;
    println!("tnm serve: listening on {}", server.local_addr());
    if let Some(http) = server.http_addr() {
        println!("tnm serve: scrape surface on http://{http} (/metrics /healthz /timeseries)");
    }
    server.run()?;
    Ok(())
}

fn client(args: &Args) -> CliResult {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let connect = || ServeClient::connect_retry(addr, 40, std::time::Duration::from_millis(250));
    if args.has("shutdown") {
        connect()?.shutdown()?;
        println!("tnm client: asked {addr} to shut down");
        return Ok(());
    }
    if args.has("metrics") {
        print!("{}", connect()?.metrics()?.to_prometheus());
        return Ok(());
    }
    if args.has("stats") {
        let s = connect()?.stats()?;
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
        let s = connect()?.stats()?;
        println!("server at {addr}: slowest {} of {} queries", s.slow.len(), s.queries);
        for e in &s.slow {
            println!(
                "  {:<10} {:<18} {:>12}  trace {}  {} span(s)",
                e.kind,
                e.graph,
                format_ns(e.latency_ns),
                if e.trace_id == 0 { "-".to_string() } else { format!("{:016x}", e.trace_id) },
                e.spans.len()
            );
        }
        println!("flight recorder ({} most recent):", s.flight.len());
        for e in &s.flight {
            println!("  {:<10} {:<18} {:>12}", e.kind, e.graph, format_ns(e.latency_ns));
        }
        return Ok(());
    }
    // A count: resolve the graph and the query before waiting for the
    // daemon, so a bad command line fails at once.
    let (dataset, graph) = args.source()?.graph()?;
    let cfg = motif_config(args)?;
    let rc = run_config_from(args)?;
    let top: usize = args.get_parsed("top", 20)?;
    let timing = cfg.timing;
    let name = args.get("name").unwrap_or(&dataset);
    let all = graph.events();
    let hold_out = args.get_parsed("hold-out", 0usize)?.min(all.len());
    let chunk: usize = args.get_parsed("append-batch", 512)?;
    if chunk == 0 {
        return Err("--append-batch must be at least 1".into());
    }
    let (base, tail) = all.split_at(all.len() - hold_out);
    let trace_path = args.get("trace");
    let wants_trace = trace_path.is_some() || args.has("profile");
    let mut client = connect()?;
    client.load_graph(name, base, graph.num_nodes())?;
    if hold_out == 0 {
        // The very query `count` runs locally, answered by the daemon —
        // same validation, same dispatch, same report.
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
        // Live path: subscribe, then stream the held-out tail through
        // incremental appends. The final counts are bit-identical to
        // counting the full graph from scratch. Tracing covers the
        // subscription's initial count.
        let (sub_id, mut live) = if wants_trace {
            let (sub_id, live, trace) = client.subscribe_traced(name, &cfg)?;
            report_trace(&trace, trace_path, args.has("profile"))?;
            (sub_id, live)
        } else {
            client.subscribe(name, &cfg)?
        };
        for batch in tail.chunks(chunk) {
            let ack = client.append_events(name, batch)?;
            if let Some((_, c)) = ack.subscriptions.into_iter().find(|(id, _)| *id == sub_id) {
                live = c;
            }
        }
        print_report(name, &EngineReport::from_exact("serve", live), timing, top);
    }
    Ok(())
}

fn top(args: &Args) -> CliResult {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let interval: u64 = args.get_parsed("interval", 1000)?;
    let iters: usize = args.get_parsed("iters", 0)?;
    let mut client = ServeClient::connect(addr)?;
    let mut frame = 0usize;
    loop {
        use std::io::IsTerminal;
        if std::io::stdout().is_terminal() {
            // Repaint in place only when attached to a terminal; piped
            // output stays an appendable log.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(addr, &client.timeseries()?));
        frame += 1;
        if iters != 0 && frame >= iters {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval.max(50)));
    }
}

fn cycles(args: &Args) -> CliResult {
    let dw: i64 = args.get_parsed("dw", 3600)?;
    let max_len: usize = args.get_parsed("max-len", 4)?;
    let cfg = CycleConfig::try_new(max_len, dw)?;
    let (name, graph) = args.source()?.graph()?;
    let mut lens: Vec<_> = count_temporal_cycles(&graph, &cfg).into_iter().collect();
    lens.sort();
    println!("{name}: temporal cycles within dW={dw}s:");
    for (len, n) in lens {
        println!("  length {len}: {n}");
    }
    Ok(())
}

/// The table and figure verbs. `fig1` and `fig2` read no corpus, and
/// neither they nor `table2` read the engine flags.
fn experiment(args: &Args) -> CliResult {
    let verb = args.verb();
    let rc = match verb {
        "fig1" | "fig2" | "table2" => RunConfig::default(),
        _ => run_config_from(args)?,
    };
    // The position/timespan figures enumerate exact per-instance
    // statistics that an approximate counter cannot provide.
    if matches!(verb, "fig4" | "fig5") && matches!(rc.engine, EngineKind::Sampling { .. }) {
        let why = "enumerates exact instance statistics; --engine sampling is not applicable";
        return Err(format!("{verb} {why}").into());
    }
    let corpus = match verb {
        "fig1" | "fig2" => Corpus { entries: Vec::new() },
        _ => args.source()?.corpus()?,
    };
    // Each verb accepts only its own widening switch.
    let wide = ["full", "include-4e", "all"].iter().any(|f| args.has(f));
    let (table, rendered) = experiment_texts(verb, &corpus, &rc, wide);
    print!("{}", table.filter(|_| args.has("csv")).unwrap_or(rendered));
    Ok(())
}

/// One table or figure as CSV, if it has a CSV form, and rendered.
/// `wide` is the verb's `--full`, `--include-4e` or `--all`.
fn experiment_texts(verb: &str, corpus: &Corpus, rc: &RunConfig, wide: bool) -> Texts {
    use experiments::*;
    fn texts<T>(t: T, csv: fn(&T) -> String, text: fn(&T) -> String) -> Texts {
        (Some(csv(&t)), text(&t))
    }
    match verb {
        "table2" => texts(table2::run(corpus), |t| t.to_csv(), |t| t.render()),
        "table3" => {
            let t = table3::run_with(corpus, rc);
            let r = if wide { format!("{}\n{}", t.render(), t.render_full()) } else { t.render() };
            (Some(t.to_csv()), r)
        }
        "table4" => {
            let t = table4::run_with(corpus, rc);
            let r = if wide { format!("{}\n{}", t.render(), t.render_full()) } else { t.render() };
            (Some(t.to_csv()), r)
        }
        "table5" => texts(table5::run_with(corpus, rc), |t| t.to_csv(), |t| t.render()),
        "fig1" => (None, fig1::run().render()),
        "fig2" => (None, fig2::run().render()),
        "fig3" => texts(fig3::run_with(corpus, wide, rc), |f| f.to_csv(), |f| f.render()),
        "fig4" => texts(fig4::run(corpus, wide), |f| f.to_csv(), |f| f.render()),
        "fig5" => texts(fig5::run(corpus, wide), |f| f.to_csv(), |f| f.render()),
        "fig6" => texts(fig6::run_with(corpus, rc), |f| f.to_csv(), |f| f.render()),
        other => unreachable!("`{other}` is not an experiment verb"),
    }
}

/// What `all` prints, separated by blank lines: every table and figure,
/// rendered, with the appendix variants of fig3–fig5.
fn all(args: &Args) -> CliResult {
    let corpus = args.source()?.corpus()?;
    let rc = run_config_from(args)?;
    let parts =
        ["table2", "fig1", "fig2", "table3", "table4", "table5", "fig3", "fig4", "fig5", "fig6"];
    for (i, verb) in parts.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        let wide = matches!(verb, "fig3" | "fig4" | "fig5");
        print!("{}", experiment_texts(verb, &corpus, &rc, wide).1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnm_motifs::engine::DEFAULT_SHARD_EVENTS;

    /// `tokens` parsed against `verb`'s flag table.
    fn parse(verb: &str, tokens: &[&str]) -> Result<Args, args::ArgError> {
        let &(verb, flags, _) = VERBS.iter().find(|(name, ..)| *name == verb).unwrap();
        Args::parse(verb, flags, tokens.iter().map(|s| s.to_string()))
    }

    fn rc(tokens: &[&str]) -> Result<RunConfig, Box<dyn std::error::Error>> {
        run_config_from(&parse("count", tokens).unwrap())
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
        for &(verb, ..) in VERBS {
            assert!(parse(verb, &["--max-resident-shards", "2"]).is_err());
        }
    }

    fn batch(tokens: &[&str]) -> Result<Vec<EnumConfig>, Box<dyn std::error::Error>> {
        batch_from(&parse("count-batch", tokens).unwrap())
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
