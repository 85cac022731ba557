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
