//! The `exp` binary's exit-code contract: a malformed option is a usage
//! error (exit 2, usage line on stderr), an unknown target exits 1.

use std::process::{Command, Output};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp")).args(args).output().expect("run exp")
}

#[test]
fn bad_options_exit_2_with_usage_and_unknown_targets_exit_1() {
    for args in [&["table2", "--keys", "abc"][..], &["--ops"], &["fig3", "--seed", "-1"]] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: exp <target>..."), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run before the usage error");
    }
    let out = exp(&["no_such_target"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}

/// The paper's write figures are simulated device time only, so their
/// output is a pure function of the per-key write paths: the golden file was
/// recorded when every design still had a hand-written `insert` body, and a
/// difference means a batch of one no longer costs what `insert` cost.
#[test]
fn write_figures_match_the_recorded_golden() {
    let out = exp(&["fig5", "fig6", "fig10", "--quick", "--seed", "42"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let golden = include_str!("golden/fig5_fig6_fig10_quick_seed42.txt");
    for (i, (got, want)) in stdout.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {}", i + 1);
    }
    assert_eq!(stdout.lines().count(), golden.lines().count());
}
