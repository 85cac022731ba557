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
