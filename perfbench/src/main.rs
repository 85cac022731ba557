//! `tnm-perfbench`: the end-to-end and per-layer benchmark of `tnm`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_count|served_models|live_append> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! Each run is one workload in its own process (so peak RSS is the
//! workload's own), with one closed-loop client on one connection and a
//! thread budget of 1 for every query. Inputs come from the dataset
//! generator under `--seed`; every answer is checked against a different
//! exact engine outside the timed window. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--setup-only` (used by the benchmark itself) times one
//! set-up of the workload and prints its seconds. `--smoke` runs every workload briefly on small inputs in
//! child processes and checks that each names every metric of
//! `BENCHMARK.json` with its unit and answers without error.

mod cold;
mod harness;
mod json;
mod live;
mod served;
mod smoke;

use harness::Args;
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["cold_count", "served_models", "live_append"];

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        setup_only: false,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--smoke" => return Ok(None),
            "--setup-only" => {
                args.setup_only = true;
                continue;
            }
            _ => {}
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--scale" => args.scale = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return smoke::run(WORKLOADS),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let seconds = match args.workload.as_str() {
            "cold_count" => cold::set_up_only(&args),
            "served_models" => served::set_up_only(&args),
            _ => live::set_up_only(&args),
        };
        return match seconds {
            Ok(seconds) => {
                println!("{seconds}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {} set-up failed: {e}", args.workload);
                ExitCode::FAILURE
            }
        };
    }
    let (nproc, calibration_ns) = harness::host_fingerprint();
    println!("host nproc={nproc} calibration_ns={calibration_ns}");
    let outcome = match args.workload.as_str() {
        "cold_count" => cold::run(&args),
        "served_models" => served::run(&args),
        _ => live::run(&args),
    };
    match outcome {
        Ok(outcome) => {
            outcome.print(args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
