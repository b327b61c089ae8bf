//! The repo's performance benchmark: six fixed-work workloads over the seven
//! index designs, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one. See `README.md` for what each number means and
//! `catalog.rs` for the contract `BENCHMARK.json` declares.
//!
//! The stack is driven only through public functions of the crates under
//! test, timed from outside; nothing here writes outside `benchmark/out`.

mod catalog;
mod harness;
mod layers;
mod metrics;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use catalog::{Better, MetricDef, WORKLOADS};
use harness::{Config, Outcome};
use metrics::Metrics;
use trace::TraceBuf;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] \
                     [--quick] [--aa] [--manifest]";

/// Everything the benchmark writes goes here (relative to the checkout root,
/// which `run.sh` makes the working directory).
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

struct Args {
    workload: Option<String>,
    config: Config,
    aa: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        config: Config {
            seed: 42,
            seconds: catalog::RUN_SECONDS as f64,
            trace: false,
            quick: false,
        },
        aa: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let secs: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&secs) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                args.config.seconds = secs as f64;
            }
            "--trace" => {
                args.config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => args.config.quick = true,
            "--aa" => args.aa = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &Config, traces: &mut Vec<TraceBuf>) -> Outcome {
    match name {
        "lookup_warm" => workloads::lookup_warm(cfg, traces),
        "lookup_cold" => workloads::lookup_cold(cfg, traces),
        "scan_cold" => workloads::scan_cold(cfg, traces),
        "insert_only" => workloads::insert_only(cfg, traces),
        "serve_mixed" => workloads::serve_mixed(cfg, traces),
        "durable_insert" => workloads::durable_insert(cfg, traces),
        other => unreachable!("workload '{other}' passed validation"),
    }
}

/// One run of one workload: the outcome's counts and its named metrics, in
/// catalogue order.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(MetricDef, f64)>,
}

fn measure(name: &str, cfg: &Config) -> Report {
    let mut traces = Vec::new();
    let outcome = run_workload(name, cfg, &mut traces);
    for cell in &outcome.cells {
        eprintln!(
            "{name} {}: {} ops/pass, {} passes, p99 over {} samples/pass, {} drains",
            cell.design.name(),
            cell.end.ops,
            cell.passes,
            cell.end.p99_samples,
            cell.end.drains
        );
    }
    let (defs, mut values): (Vec<MetricDef>, Metrics) = if cfg.trace {
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        match trace::write_jsonl(&path, name, &traces) {
            Ok(spans) => eprintln!("{name}: wrote {spans} spans to {}", path.display()),
            Err(e) => eprintln!("{name}: could not write {}: {e}", path.display()),
        }
        drop(traces);
        (catalog::per_layer(), metrics::per_layer(&outcome, &layers::run(cfg)))
    } else {
        (catalog::end_to_end(), metrics::end_to_end(&outcome))
    };
    let mut failed = outcome.oracle.failed;
    let metrics = defs
        .into_iter()
        .map(|def| {
            let value = values.remove(&def.name).unwrap_or_else(|| {
                panic!("metric '{}' is in the catalogue but was not measured", def.name)
            });
            if !value.is_finite() {
                eprintln!("{name}: metric '{}' is not a number", def.name);
                failed += 1;
            }
            (def, value)
        })
        .collect();
    assert!(values.is_empty(), "measured metrics missing from the catalogue: {values:?}");
    Report { attempted: outcome.oracle.attempted.max(1), failed, metrics }
}

fn print_report(name: &str, report: &Report) {
    for (def, value) in &report.metrics {
        println!("{name} {} {value} {}", def.name, def.unit);
    }
    println!("{name} failed_frac {} ratio", report.failed as f64 / report.attempted as f64);
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(def, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", def.name, def.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// A/A check: the same build measured twice must agree within each
/// end-to-end metric's own bound (and exactly where the value is a count).
fn run_aa(names: &[&str], cfg: &Config) -> bool {
    let mut ok = true;
    for name in names {
        let first = measure(name, cfg);
        let second = measure(name, cfg);
        ok &= first.failed == 0 && second.failed == 0;
        for ((def, a), (_, b)) in first.metrics.iter().zip(&second.metrics) {
            let worse = match def.better {
                Better::Higher => (a - b) / a,
                Better::Lower => (b - a) / a,
            };
            // Footprint and written bytes are counts on one client.
            let exact =
                matches!(def.name.as_str(), "space_amp" | "write_amp") && *name != "serve_mixed";
            let bound = if exact { 0.0 } else { def.bound.unwrap_or(f64::INFINITY) };
            let breach = !cfg.quick && worse.abs() > bound;
            ok &= !breach;
            println!(
                "{name} {} first {a} second {b} diff {:+.4} bound {bound} {}",
                def.name,
                worse,
                if breach { "BREACH" } else { "ok" }
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", catalog::manifest());
        return ExitCode::SUCCESS;
    }
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let ok = if args.aa {
        run_aa(&names, &args.config)
    } else {
        let mut ok = true;
        for name in &names {
            let report = measure(name, &args.config);
            print_report(name, &report);
            ok &= report.failed == 0;
        }
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
