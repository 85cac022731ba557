//! Golden transcripts: every command line below must print exactly the
//! bytes stored in `tests/golden/<name>.txt`.
//!
//! The files pin the CLI's output, so a refactor of argument handling
//! or graph loading cannot change what a user sees. Re-record them only
//! in a change that means to alter output:
//! `cargo test --offline -p tnm-cli --test golden -- --ignored record_golden`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn tnm<S: AsRef<std::ffi::OsStr>>(args: &[S]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tnm")).args(args).output().expect("tnm runs");
    let shown: Vec<_> = args.iter().map(|a| a.as_ref().to_string_lossy()).collect();
    assert!(out.status.success(), "tnm {shown:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// A fresh directory holding `CollegeMsg.txt`, written by `tnm generate`
/// for the `--input` transcript (its report is named after the stem).
fn input_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tnm-golden-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("CollegeMsg.txt");
    tnm(&[
        "generate",
        "--dataset",
        "CollegeMsg",
        "--scale",
        "0.05",
        "--out",
        file.to_str().unwrap(),
    ]);
    dir
}

/// Each transcript's file stem and command line; `input` is the
/// directory made by [`input_dir`].
fn cases(input: &Path) -> Vec<(&'static str, Vec<String>)> {
    let spec = golden_dir().join("batch.spec");
    let edge_list = input.join("CollegeMsg.txt");
    let lines: [(&str, &[&str]); 19] = [
        ("list", &["list"]),
        ("stats", &["stats"]),
        ("stats_dataset", &["stats", "--dataset", "CollegeMsg"]),
        ("table2", &["table2"]),
        ("table3_full", &["table3", "--full"]),
        ("table4_csv", &["table4", "--csv"]),
        ("table5", &["table5"]),
        ("fig1", &["fig1"]),
        ("fig2", &["fig2"]),
        ("fig3", &["fig3", "--include-4e"]),
        ("fig4_csv", &["fig4", "--csv"]),
        ("fig5", &["fig5"]),
        ("fig6_csv", &["fig6", "--csv"]),
        ("count_dataset", &["count", "--dataset", "CollegeMsg", "--dw", "3000", "--top", "10"]),
        ("count_positional", &["count", "SMS-A", "--dc", "1500", "--dw", "3000", "--nodes", "2"]),
        ("count_input", &["count", "--input", edge_list.to_str().unwrap(), "--dw", "3000"]),
        ("count_batch_all", &["count-batch", "--dataset", "CollegeMsg", "--all-3e-motifs"]),
        (
            "count_batch_spec",
            &["count-batch", "--dataset", "CollegeMsg", "--spec", spec.to_str().unwrap()],
        ),
        ("cycles", &["cycles", "--dataset", "CollegeMsg", "--max-len", "3"]),
    ];
    lines
        .into_iter()
        .map(|(name, args)| {
            let mut args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            // The edge list was generated at this scale; `--input` takes
            // no generator flags.
            if !args.iter().any(|a| a == "--input") {
                args.extend(["--scale", "0.05"].map(String::from));
            }
            (name, args)
        })
        .collect()
}

#[test]
fn transcripts_match_the_golden_files() {
    let dir = input_dir("check");
    let mut differ = Vec::new();
    for (name, args) in cases(&dir) {
        let path = golden_dir().join(format!("{name}.txt"));
        let want =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if tnm(&args) != want {
            differ.push(format!("{name} (tnm {})", args.join(" ")));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(differ.is_empty(), "output differs from the golden file for: {differ:#?}");
}

/// `all` prints the ten tables and figures it stands for, in order,
/// separated by blank lines.
#[test]
fn all_joins_its_parts() {
    let parts: [&[&str]; 10] = [
        &["table2"],
        &["fig1"],
        &["fig2"],
        &["table3"],
        &["table4"],
        &["table5"],
        &["fig3", "--include-4e"],
        &["fig4", "--all"],
        &["fig5", "--all"],
        &["fig6"],
    ];
    let scale = ["--scale", "0.05"];
    let joined: Vec<String> = parts.iter().map(|p| tnm(&[*p, &scale[..]].concat())).collect();
    assert_eq!(tnm(&[&["all"][..], &scale[..]].concat()), joined.join("\n"));
}

/// Rewrites every golden file from the current binary.
#[test]
#[ignore = "re-records the golden files; run only in a change that means to alter output"]
fn record_golden() {
    let dir = input_dir("record");
    for (name, args) in cases(&dir) {
        std::fs::write(golden_dir().join(format!("{name}.txt")), tnm(&args)).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
