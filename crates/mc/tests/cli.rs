//! `mc` command-line behaviour: exit codes the library tests cannot see.

use std::process::Command;

/// `--tamper` corrupts single-group `Msg::Ops` batches; the `cross-group`
/// scenario cannot honour it, so the CLI refuses with a usage error
/// (exit 2) before exploring anything.
#[test]
fn tamper_on_cross_group_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_mc"))
        .args(["--preset", "cross-group", "--tamper", "1:1:0:1"])
        .output()
        .expect("mc runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("cross-group"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "explored before refusing");
}

/// After each scenario's summary line comes its throughput, and a budget
/// that runs out before the tree does is said so.
#[test]
fn throughput_and_coverage_follow_the_summary() {
    let out = Command::new(env!("CARGO_BIN_EXE_mc"))
        .args(["--preset", "sudoku", "--max-schedules", "20"])
        .output()
        .expect("mc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "stdout: {stdout}");
    assert!(
        lines[0].starts_with("sudoku ") && lines[0].contains("schedules      20"),
        "summary: {}",
        lines[0]
    );
    let rate = lines[1]
        .strip_prefix("sudoku ")
        .and_then(|l| l.split_once(" s, "))
        .and_then(|(_, rest)| rest.split_once(" schedules/s; "));
    let Some((per_s, coverage)) = rate else {
        panic!("throughput line: {}", lines[1]);
    };
    assert!(per_s.parse::<f64>().is_ok_and(|r| r > 0.0), "{}", lines[1]);
    assert_eq!(coverage, "budget reached before the tree was exhausted");
}
