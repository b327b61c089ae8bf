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
