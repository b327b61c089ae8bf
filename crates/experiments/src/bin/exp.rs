//! The experiment driver.
//!
//! ```text
//! cargo run --release -p lidx-experiments --bin exp -- <target> [options]
//!
//! targets:  table2 table3 table4 table5 fig3 fig4 ... fig14
//!           layout_ablation space_reuse_ablation par_lookup all list
//! options:  --keys N        dataset size for search workloads   (default 200000)
//!           --ops N         operations per workload             (default 5000)
//!           --bulk N        bulk-loaded keys for mixed workloads (default 50000)
//!           --seed N        RNG seed                             (default 42)
//!           --threads N     max reader threads for par_lookup    (default 4)
//!           --dataset-path F  SOSD binary key file (u64 LE count + keys)
//!                             replacing the synthetic datasets
//!           --quick         tiny scale for smoke testing
//! ```

use lidx_experiments::experiments::{all_experiments, Scale};

const USAGE: &str = "usage: exp <target>... [--keys N] [--ops N] [--bulk N] [--seed N] \
                     [--threads N] [--dataset-path FILE] [--quick]";

/// Parses the command line; `Err` names the option whose value is missing
/// or malformed.
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
            "--threads" => scale.threads = number(&arg, &mut args)?,
            "--dataset-path" => {
                let path = args.next().ok_or("--dataset-path needs a file")?;
                scale.dataset_path = Some(path.into());
            }
            "--quick" => {
                scale.keys = 20_000;
                scale.ops = 500;
                scale.bulk_keys = 5_000;
            }
            other => targets.push(other.to_string()),
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

    println!(
        "scale: {} keys, {} ops, {} bulk keys, seed {}",
        scale.keys, scale.ops, scale.bulk_keys, scale.seed
    );
    for target in &targets {
        if target == "all" {
            for (name, f) in &registry {
                println!("\n#### {name} ####");
                f(&scale);
            }
            continue;
        }
        // Accept kebab-case spellings (`bench-snapshot` == `bench_snapshot`).
        let target = target.replace('-', "_");
        match registry.iter().find(|(name, _)| *name == target) {
            Some((_, f)) => {
                println!();
                f(&scale);
            }
            None => {
                eprintln!("unknown experiment '{target}' (use 'list' to see the available ones)");
                std::process::exit(1);
            }
        }
    }
}
