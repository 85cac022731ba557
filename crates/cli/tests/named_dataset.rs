//! Commands that name one dataset generate that dataset alone.

use std::process::Command;

/// A traced `tnm count --dataset X` builds exactly one graph: the corpus
/// is filtered by name before generation, not after.
#[test]
fn count_generates_only_the_named_dataset() {
    let trace = std::env::temp_dir().join(format!("tnm-named-dataset-{}.json", std::process::id()));
    let path = trace.to_str().unwrap();
    let args = ["count", "--dataset", "CollegeMsg", "--scale", "0.05", "--dw", "3000"];
    let out = Command::new(env!("CARGO_BIN_EXE_tnm"))
        .args(args)
        .args(["--trace", path])
        .output()
        .expect("tnm runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("CollegeMsg: "));
    let json = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_file(&trace).unwrap();
    assert_eq!(json.matches(r#""name":"graph.build""#).count(), 1, "{json}");
}

#[test]
fn unknown_dataset_is_still_an_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_tnm"))
        .args(["count", "--dataset", "NoSuchNet", "--dw", "3000"])
        .output()
        .expect("tnm runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset `NoSuchNet`"));
}
