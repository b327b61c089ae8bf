//! The experiment driver.
//!
//! ```text
//! cargo run --release -p lidx-experiments --bin exp -- <target> [options]
//!
//! targets:  table2 table3 table4 table5 fig3 fig4 ... fig14
//!           layout_ablation space_reuse_ablation all list
//! options:  --keys N        dataset size for search workloads   (default 200000)
//!           --ops N         operations per workload             (default 5000)
//!           --bulk N        bulk-loaded keys for mixed workloads (default 50000)
//!           --seed N        RNG seed                             (default 42)
//!           --dataset-path F  SOSD binary key file (u64 LE count + keys)
//!                             replacing the synthetic datasets
//!           --quick         tiny scale for smoke testing
//! ```
//!
//! The whole command line is checked before anything runs: an unknown or
//! malformed option exits 2 with the usage line, an unknown target exits 1.

use lidx_experiments::experiments::{all_experiments, Scale};

const USAGE: &str = "usage: exp <target>... [--keys N] [--ops N] [--bulk N] [--seed N] \
                     [--dataset-path FILE] [--quick]";

/// Parses the command line; `Err` names the option that is unknown or whose
/// value is missing or malformed.
fn parse_args() -> Result<(Vec<String>, Scale), String> {
    fn number<T: std::str::FromStr>(
        option: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<T, String> {
        let value = args.next().ok_or_else(|| format!("{option} needs a value"))?;
        value.parse().map_err(|_| format!("{option} needs a number, got '{value}'"))
    }
    let mut scale = Scale::default();
    let mut targets = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--keys" => scale.keys = number(&arg, &mut args)?,
            "--ops" => scale.ops = number(&arg, &mut args)?,
            "--bulk" => scale.bulk_keys = number(&arg, &mut args)?,
            "--seed" => scale.seed = number(&arg, &mut args)?,
            "--dataset-path" => {
                let path = args.next().ok_or("--dataset-path needs a file")?;
                scale.dataset_path = Some(path.into());
            }
            "--quick" => {
                scale.keys = 20_000;
                scale.ops = 500;
                scale.bulk_keys = 5_000;
            }
            other if other.starts_with('-') => return Err(format!("unknown option '{other}'")),
            // Accept kebab-case spellings (`layout-ablation` == `layout_ablation`).
            other => targets.push(other.replace('-', "_")),
        }
    }
    Ok((targets, scale))
}

fn main() {
    let (targets, scale) = parse_args().unwrap_or_else(|problem| {
        eprintln!("exp: {problem}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let registry = all_experiments();

    if targets.is_empty() || targets.iter().any(|t| t == "list") {
        eprintln!("{USAGE}");
        eprintln!("targets:");
        for (name, _) in &registry {
            eprintln!("  {name}");
        }
        eprintln!("  all");
        return;
    }

    // Resolve every target before running any, so a typo in the last one
    // does not first cost a run of the others. `all` heads each report with
    // its target name.
    let mut plan = Vec::new();
    for target in &targets {
        if target == "all" {
            plan.extend(registry.iter().map(|&(name, f)| (Some(name), f)));
        } else if let Some(&(_, f)) = registry.iter().find(|(name, _)| name == target) {
            plan.push((None, f));
        } else {
            eprintln!("unknown experiment '{target}' (use 'list' to see the available ones)");
            std::process::exit(1);
        }
    }

    println!(
        "scale: {} keys, {} ops, {} bulk keys, seed {}",
        scale.keys, scale.ops, scale.bulk_keys, scale.seed
    );
    for (name, f) in plan {
        match name {
            Some(name) => println!("\n#### {name} ####"),
            None => println!(),
        }
        f(&scale);
    }
}
