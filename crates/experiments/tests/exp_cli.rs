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
/// `#### <target> ####` section per target in registry order. Re-recorded
/// when a LIPP node began keeping its first slots in its header block: every
/// token that changed is a LIPP value (a small node is one block, so LIPP
/// reads and writes fewer blocks; its Fig. 6 maintenance column is
/// unchanged), and the other designs' rows changed only in column width.
/// Re-recorded when an ALEX data node's bitmap moved into its header block:
/// every token that changed is an ALEX value, and the other designs' rows
/// changed only in column width. A fresh insert writes its bit and its
/// statistics into one block, so Fig. 6's ALEX maintenance column reads 0
/// (fb 10.00 → 0.00 ms); its gap search and a scan read the bits from the
/// header block the node's load read, so Table 2's ALEX insert falls 9.04 →
/// 6.05 blocks and its scan 5.72 → 3.65 (Table 4's ALEX scan `Utility`
/// column reads 0). The extent is a block shorter and its first slot block
/// follows the header, so bulk writes and sizes fall (Fig. 7, Fig. 10) and
/// HDD lookups whose slot sits in the first slot block read it sequentially
/// (Fig. 3, Fig. 8, the layout ablation); pooled lookups (Fig. 13) moved both
/// ways as the shorter extents map to other pool stripes.
/// Re-recorded when an ALEX inner node's child entry began carrying its data
/// child's capacity and model, so a point lookup reads no data-node header:
/// every token that changed is an ALEX value, and the other designs' rows
/// changed only in column width (Fig. 8's rule). Every ALEX lookup column
/// at pool 0 falls by exactly one block (Table 2's lookup 3.00 → 2.00,
/// Fig. 4's `fb` 4.25 → 3.25, Table 4's `leaf blk (lookup)`, the layout
/// ablation's `blk` columns); the throughput of every lookup-bearing
/// workload rises with it (Figs. 3, 5, 8, 9, 11, 14) and Fig. 12's lookup
/// tail falls (`fb` p99 60.20 → 50.20 ms). Pooled lookups (Fig. 13) fall
/// by up to a block as well; no insert or scan column moved.
/// Re-recorded when FITing's delta buffer began carrying its own count in
/// slot 0 of its first block and PGM's insert began rewriting its run from
/// the block its smallest change lands in: every token that changed is a
/// FITing or PGM value, except Fig. 14's, which are normalized to the best
/// design per workload (PGM on every write-bearing row, which got faster).
/// A fresh FITing insert no longer writes its directory leaf, so Table 2's
/// FITing insert falls 6.14 → 4.16 blocks and Fig. 6's FITing insert step
/// 30.00 → 10.80 ms on `fb` (osm 30.00 → 10.20, ycsb 29.94 → 10.06); PGM's
/// falls 2.97 → 2.84 blocks and 14.88 → 13.52 ms. No lookup or scan column
/// moved.
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
