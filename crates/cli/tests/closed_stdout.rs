//! `tnm … | head` ends quietly: a reader that closes stdout early is
//! not a panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_without_a_panic() {
    // The full report is about 160 KB, more than a pipe buffer holds, so
    // `tnm` is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_tnm"))
        .args(["count", "--dataset", "CollegeMsg", "--scale", "0.2", "--dw", "3000"])
        .args(["--events", "5", "--nodes", "5", "--top", "1000000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tnm runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    assert!(first.starts_with("CollegeMsg: "), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}
