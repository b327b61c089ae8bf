//! The `exp` binary's contract: a malformed option is a usage error (exit 2,
//! usage line on stderr), an unknown target exits 1, and every paper
//! artifact prints exactly the recorded golden report.

use std::process::{Command, Output};

use lidx_experiments::experiments::all_experiments;

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp")).args(args).output().expect("run exp")
}

#[test]
fn bad_options_exit_2_with_usage_and_unknown_targets_exit_1() {
    for args in [
        &["table2", "--keys", "abc"][..],
        &["--ops"],
        &["fig3", "--seed", "-1"],
        &["fig3", "--quik"],
        &["fig3", "--threads", "4"],
    ] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: exp <target>..."), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run before the usage error");
    }
    for args in [&["no_such_target"][..], &["fig3", "no_such_target"]] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run before an unknown target");
    }
}

/// `exp <target> --quick --seed 42` for every paper artifact, as
/// `exp all --quick --seed 42` prints it: the scale line, then one
/// `#### <target> ####` section per target in registry order.
const GOLDEN: &str = include_str!("golden/paper_artifacts_quick_seed42.txt");

/// The golden's scale line and its `(target, report)` sections.
fn golden_sections() -> (&'static str, Vec<(&'static str, &'static str)>) {
    let mut parts = GOLDEN.split("\n#### ");
    let scale = parts.next().expect("scale line");
    let sections = parts.map(|part| part.split_once(" ####\n").expect("section header")).collect();
    (scale, sections)
}

/// Runs `exp <target> --quick --seed 42` and diffs its stdout against the
/// golden section of that target. The paper's artifacts are simulated device
/// time only, so their output is a pure function of the code: a difference
/// means a change moved a number the paper reports.
fn assert_matches_golden(target: &str) {
    let (scale, sections) = golden_sections();
    let (_, report) = sections
        .iter()
        .find(|(name, _)| *name == target)
        .unwrap_or_else(|| panic!("{target} has no golden section"));
    let want = format!("{scale}\n{report}");
    let out = exp(&[target, "--quick", "--seed", "42"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("utf-8 report");
    for (i, (got, want)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "{target}: line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{target}");
}

/// One test per paper artifact, named after its `exp` target
/// (`golden::fig6`), so a change that moves numbers names every artifact it
/// moved, and `cargo test` spreads the 18 runs over the cores. `PINNED`
/// lists the targets in the order given, which is registry order.
macro_rules! golden_tests {
    ($($target:ident),* $(,)?) => {
        const PINNED: &[&str] = &[$(stringify!($target)),*];

        mod golden {
            $(
                #[test]
                fn $target() {
                    super::assert_matches_golden(stringify!($target));
                }
            )*
        }
    };
}

golden_tests!(
    table2,
    table3,
    fig3,
    fig4,
    table4,
    table5,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    layout_ablation,
    space_reuse_ablation,
);

/// No target can go unpinned: the golden holds one section per registered
/// experiment, in registry order, and `golden::*` runs every one of them.
#[test]
fn the_golden_covers_every_registered_experiment() {
    let registry: Vec<&str> = all_experiments().iter().map(|(name, _)| *name).collect();
    let golden: Vec<&str> = golden_sections().1.iter().map(|(name, _)| *name).collect();
    assert_eq!(golden, registry);
    assert_eq!(PINNED, registry);
}
