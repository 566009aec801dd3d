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
