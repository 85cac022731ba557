//! `--smoke`: every workload, briefly and on small inputs, in child
//! processes of this binary. Each must exit 0, name every metric
//! `BENCHMARK.json` declares for its mode with the declared unit, and
//! answer without a single error. Run it from the repository root.

use crate::harness::{END_TO_END, PER_LAYER};
use crate::json::Json;
use std::process::{Command, ExitCode};

pub fn run(workloads: &[&str]) -> ExitCode {
    match check(workloads) {
        Ok(()) => {
            println!("smoke: ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("smoke: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `(name, unit)` of every metric in `spec[key]`.
fn declared(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check(workloads: &[&str]) -> Result<(), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = Json::parse(&text)?;
    let modes =
        [(declared(&spec, "end_to_end"), END_TO_END), (declared(&spec, "per_layer"), PER_LAYER)];
    for (declared, printed) in &modes {
        let printed: Vec<(String, String)> =
            printed.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        if *declared != printed {
            return Err(format!(
                "BENCHMARK.json declares {declared:?} but the benchmark prints {printed:?}"
            ));
        }
    }
    let names: Vec<&str> = spec
        .get("workloads")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    if names != workloads {
        return Err(format!(
            "BENCHMARK.json names workloads {names:?}, the benchmark runs {workloads:?}"
        ));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for workload in workloads {
        for (trace, (metrics, _)) in modes.iter().enumerate() {
            let trace = trace.to_string();
            let args = [
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                &trace,
                "--scale",
                "0.05",
            ];
            let child = Command::new(&exe).args(args).output().map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let context = format!("{workload} --trace {trace}");
            if !child.status.success() {
                return Err(format!(
                    "{context} exited {}: {}",
                    child.status,
                    String::from_utf8_lossy(&child.stderr)
                ));
            }
            let result = Json::parse(stdout.lines().last().unwrap_or_default())?;
            let failed = result.get("failed").and_then(Json::as_f64);
            if result.get("correct") != Some(&Json::Bool(true)) || failed != Some(0.0) {
                return Err(format!("{context} answered wrongly: {stdout}"));
            }
            for (name, unit) in metrics {
                let metric = result.get("metrics").and_then(|m| m.get(name));
                let value = metric.and_then(|m| m.get("value")).and_then(Json::as_f64);
                let got = metric.and_then(|m| m.get("unit")).and_then(Json::as_str);
                if value.is_none() || got != Some(unit.as_str()) {
                    return Err(format!("{context} does not print {name} in {unit}"));
                }
                if name == "error_rate" && value != Some(0.0) {
                    return Err(format!("{context} reports error_rate {value:?}"));
                }
            }
            println!("smoke: {context} ok");
        }
    }
    Ok(())
}
