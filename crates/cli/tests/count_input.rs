//! `tnm count --input FILE` counts an edge list the way `--dataset`
//! counts the generated corpus it was written from.

use std::path::PathBuf;
use std::process::Command;

fn tnm(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tnm")).args(args).output().expect("tnm runs");
    assert!(out.status.success(), "tnm {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// A fresh directory for this test's files.
fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tnm-count-input-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn input_file_counts_like_the_generated_dataset() {
    let dir = fresh_dir();
    // The report is named after the file stem, so naming the file after
    // the dataset makes the two reports comparable line for line.
    let file = dir.join("SMS-A.txt");
    let path = file.to_str().unwrap();
    tnm(&["generate", "--dataset", "SMS-A", "--out", path]);
    let count = ["--dw", "3000", "--engine", "stream", "--top", "40"];
    let from_file = tnm(&[&["count", "--input", path][..], &count].concat());
    let generated = tnm(&[&["count", "--dataset", "SMS-A"][..], &count].concat());
    assert_eq!(from_file, generated);
    assert!(from_file.starts_with("SMS-A: "), "{from_file}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn input_and_dataset_are_mutually_exclusive() {
    let out = Command::new(env!("CARGO_BIN_EXE_tnm"))
        .args(["count", "--input", "x.txt", "--dataset", "SMS-A", "--dw", "3000"])
        .output()
        .expect("tnm runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}
