//! A configuration the engines cannot run is refused before any work:
//! an error message and exit status 1, never a panic.

use std::process::Command;

/// Nine events are more than a digit-pair signature can name.
#[test]
fn more_events_than_a_signature_names_is_an_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_tnm"))
        .args(["count", "--dataset", "CollegeMsg", "--scale", "0.05", "--dw", "300"])
        .args(["--events", "9", "--nodes", "3"])
        .output()
        .expect("tnm runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("num_events must be at most 8 (got 9)"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// `tnm args` fails with exit status 1 and an error naming `message`.
fn fails_with(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_tnm")).args(args).output().expect("tnm runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "tnm {args:?}: {stderr}");
    assert!(stderr.contains(message), "tnm {args:?}: want `{message}` in {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Cycle bounds out of range are errors, not assertion panics.
#[test]
fn cycle_bounds_out_of_range_are_errors() {
    let cycles = ["cycles", "--dataset", "CollegeMsg", "--scale", "0.05"];
    for max_len in ["0", "1"] {
        let args = [&cycles[..], &["--max-len", max_len]].concat();
        fails_with(&args, &format!("cycles need at least two events (got max length {max_len})"));
    }
    let args = [&cycles[..], &["--dw", "-1"]].concat();
    fails_with(&args, "window must be non-negative (got -1)");
}

/// A zero or negative ΔC/ΔW is rejected by `count` and `client` as it is
/// on a `count-batch` spec line, not silently dropped from the model.
#[test]
fn non_positive_windows_are_errors() {
    let count = ["count", "--dataset", "CollegeMsg", "--scale", "0.05"];
    for window in
        [["--dc", "-5", "--dw", "3000"], ["--dc", "0", "--dw", "3000"], ["--dw", "0", "--dc", "60"]]
    {
        fails_with(&[&count[..], &window].concat(), "must be positive");
    }
    // `client` checks before it connects to any daemon.
    let client = ["client", "--addr", "127.0.0.1:9", "--dataset", "CollegeMsg", "--scale", "0.05"];
    fails_with(&[&client[..], &["--dc", "-5", "--dw", "3000"]].concat(), "must be positive");
}

/// `--scale` and `--seed` shape a generated dataset; beside `--input`
/// they would be ignored, so they are refused (`--seed` still seeds
/// `--engine sampling`).
#[test]
fn generator_flags_beside_input_are_errors() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("generator_flags.txt");
    std::fs::write(&path, "0 1 10\n1 2 20\n2 0 30\n").expect("write edge list");
    let input = ["count", "--input", path.to_str().unwrap(), "--dw", "3000"];
    fails_with(&[&input[..], &["--scale", "7", "--seed", "3"]].concat(), "--scale applies to");
    fails_with(&[&input[..], &["--seed", "3"]].concat(), "--seed applies to");
    let sampled = ["--engine", "sampling", "--samples", "4", "--seed", "3"];
    let out = Command::new(env!("CARGO_BIN_EXE_tnm"))
        .args([&input[..], &sampled].concat())
        .output()
        .expect("tnm runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// Only the tables and figures with a CSV form take `--csv`.
#[test]
fn csv_is_refused_by_verbs_without_a_csv_form() {
    let named = ["--dataset", "CollegeMsg", "--scale", "0.05"];
    for verb in [&["count", "--dw", "3000"][..], &["count-batch", "--all-3e-motifs"], &["stats"]] {
        fails_with(&[verb, &named[..], &["--csv"]].concat(), "unknown flag --csv");
    }
    let client = ["client", "--addr", "127.0.0.1:9", "--dw", "3000", "--csv"];
    fails_with(&[&client[..], &named[..]].concat(), "unknown flag --csv");
    for verb in ["list", "fig1", "fig2", "all"] {
        fails_with(&[verb, "--csv"], "unknown flag --csv");
    }
}
