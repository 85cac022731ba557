//! Commands that name one dataset generate that dataset alone, and every
//! verb resolves its graph source by the same rules.

use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn tnm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tnm")).args(args).output().expect("tnm runs")
}

/// `tnm args` fails with exit status 1 and an error naming `message`.
fn fails_with(args: &[&str], message: &str) {
    let out = tnm(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "tnm {args:?}: {stderr}");
    assert!(stderr.contains(message), "tnm {args:?}: want `{message}` in {stderr}");
    assert!(out.stdout.is_empty(), "tnm {args:?} printed {}", String::from_utf8_lossy(&out.stdout));
}

/// The start and end (ns) of every span called `name` in a Chrome-trace
/// JSON document.
fn spans(json: &str, name: &str) -> Vec<(u64, u64)> {
    let ns = |event: &str, key: &str| -> u64 {
        let at = event.find(key).unwrap_or_else(|| panic!("{key} in {event}")) + key.len();
        let digits: String =
            event[at..].chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
        digits.replace('.', "").parse().unwrap()
    };
    json.split(r#"{"name":""#)
        .filter(|event| event.starts_with(&format!("{name}\"")))
        .map(|event| {
            let start = ns(event, r#""ts":"#);
            (start, start + ns(event, r#""dur":"#))
        })
        .collect()
}

/// A traced `tnm count --dataset X` builds exactly one graph: the corpus
/// is filtered by name before generation, not after. Its one
/// `ingest.generate` span encloses that build.
#[test]
fn count_generates_only_the_named_dataset() {
    let trace = std::env::temp_dir().join(format!("tnm-named-dataset-{}.json", std::process::id()));
    let path = trace.to_str().unwrap();
    let out = tnm(&[
        "count",
        "--dataset",
        "CollegeMsg",
        "--scale",
        "0.05",
        "--dw",
        "3000",
        "--trace",
        path,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("CollegeMsg: "));
    let json = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_file(&trace).unwrap();
    assert_eq!(json.matches(r#""name":"graph.build""#).count(), 1, "{json}");
    let (generate, build) = (spans(&json, "ingest.generate"), spans(&json, "graph.build"));
    assert_eq!(generate.len(), 1, "{json}");
    let ((g0, g1), (b0, b1)) = (generate[0], build[0]);
    assert!(g0 <= b0 && b1 <= g1, "graph.build {b0}..{b1} outside ingest.generate {g0}..{g1}");
    assert!(json.contains(r#""dataset":"CollegeMsg""#), "{json}");
}

#[test]
fn unknown_dataset_is_still_an_error() {
    fails_with(&["count", "--dataset", "NoSuchNet", "--dw", "3000"], "unknown dataset `NoSuchNet`");
}

// A verb that reads one graph and is given no source fails; it does not
// fall back to the first of the nine datasets.

#[test]
fn count_without_a_source_is_an_error() {
    fails_with(&["count", "--dw", "3000"], "count requires --dataset NAME or --input FILE");
}

#[test]
fn count_batch_without_a_source_is_an_error() {
    fails_with(
        &["count-batch", "--all-3e-motifs"],
        "count-batch requires --dataset NAME or --input FILE",
    );
}

#[test]
fn cycles_without_a_source_is_an_error() {
    fails_with(&["cycles", "--max-len", "3"], "cycles requires --dataset NAME or --input FILE");
}

#[test]
fn generate_without_a_source_is_an_error() {
    let file = std::env::temp_dir().join(format!("tnm-no-source-{}.txt", std::process::id()));
    let path = file.to_str().unwrap();
    fails_with(&["generate", "--out", path], "generate requires --dataset NAME or --input FILE");
    assert!(!file.exists(), "generate wrote {path}");
}

/// `client` resolves its source before it connects, so it fails at once
/// rather than waiting for a daemon.
#[test]
fn client_without_a_source_fails_before_connecting() {
    let start = Instant::now();
    fails_with(
        &["client", "--addr", "127.0.0.1:9", "--dw", "3000"],
        "client requires --dataset NAME or --input FILE",
    );
    assert!(start.elapsed() < Duration::from_secs(5), "took {:?}", start.elapsed());
}

// The source rules, checked in one place for every verb. A dataset named
// by `--dataset` beside `--input` is `tests/count_input.rs`'s case.

#[test]
fn a_positional_dataset_beside_input_is_an_error() {
    let args = ["count", "SMS-A", "--input", "x.txt", "--dw", "3000"];
    fails_with(&args, "--input and --dataset are mutually exclusive");
}

#[test]
fn input_on_a_verb_that_does_not_take_it_is_unknown() {
    for verb in ["count-batch", "cycles", "generate", "client", "stats", "table3"] {
        fails_with(&[verb, "--input", "x.txt"], "unknown flag --input");
    }
}
