//! End-to-end CLI behavior of the `paper` binary: bad arguments must
//! produce a usage message and a non-zero exit, not a panic backtrace.

use std::process::{Command, Output};

fn paper(args: &[&str]) -> (Output, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_paper")).args(args).output().expect("spawn paper");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out, stderr)
}

#[test]
fn unknown_flag_prints_usage_and_exits_nonzero() {
    let (out, stderr) = paper(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2), "status: {:?}", out.status);
    assert!(stderr.contains("--bogus"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn missing_flag_value_exits_nonzero() {
    let (out, stderr) = paper(&["--scale"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr.contains("requires a value"), "stderr: {stderr}");
}

#[test]
fn unknown_view_lists_the_views_and_exits_nonzero() {
    let (out, stderr) = paper(&["table1", "fig7", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr.contains("unknown view \"fig7\""), "stderr: {stderr}");
    for (name, _) in lra_bench::views::VIEWS {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}

#[test]
fn validate_rejects_malformed_report() {
    let dir = std::env::temp_dir().join("lra_bench_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json");
    std::fs::write(&path, "{\"schema_version\":1}").unwrap();
    let (out, stderr) = paper(&["--validate", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr.contains("invalid report"), "stderr: {stderr}");
}

#[test]
fn table2_runs_on_a_matrix_market_file() {
    let dir = std::env::temp_dir().join("lra_bench_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("decay.mtx");
    let a = lra_matgen::with_decay(&lra_matgen::fem2d(12, 10, 3), 1e-4, 3);
    lra_sparse::write_matrix_market_file(&path, &a).unwrap();
    let (out, stderr) = paper(&["table2", "--mtx", path.to_str().unwrap(), "--quick", "--np", "1"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout.lines().filter(|l| l.starts_with("decay ")).collect();
    assert_eq!(rows.len(), 2, "one row per --quick tolerance: {stdout}");
}
