//! One function per table / figure of the paper's evaluation section.
//!
//! Every function prints the same rows or series the paper reports, computed
//! at a configurable [`Scale`]. Absolute numbers differ from the paper (the
//! substrate is a simulated disk and the datasets are synthetic analogues),
//! but the comparative shape — who wins, by roughly what factor, where the
//! crossovers are — is what these reproduce. Every one of them prints
//! simulated device time only, so its report at a given scale is a pure
//! function of the code: `crates/experiments/tests/exp_cli.rs` diffs each
//! against a recorded golden report.

use lidx_core::InsertStep;
use lidx_storage::DeviceModel;
use lidx_workloads::{profile_dataset, Dataset, Workload, WorkloadKind, WorkloadSpec};

use crate::report::{f2, ms, ops, Table};
use crate::runner::{run_workload, IndexChoice, RunConfig, WorkloadReport};

/// Scale knobs shared by every experiment.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Keys per dataset for the search-only workloads (the paper uses 200 M).
    pub keys: usize,
    /// Operations per workload (the paper uses 200 k searches / 10 M writes).
    pub ops: usize,
    /// Keys bulk loaded before mixed workloads (the paper uses 10 M).
    pub bulk_keys: usize,
    /// RNG seed for datasets and workloads.
    pub seed: u64,
    /// Path to a SOSD-style binary key file (`u64` LE count + keys). When
    /// set, every experiment draws its key set from this file (truncated to
    /// `keys`) instead of the synthetic generators, so real `fb`/`osm`/
    /// `wiki` keys can be dropped in via `exp --dataset-path <file>`.
    pub dataset_path: Option<std::path::PathBuf>,
}

impl Default for Scale {
    fn default() -> Self {
        Scale { keys: 200_000, ops: 5_000, bulk_keys: 50_000, seed: 42, dataset_path: None }
    }
}

impl Scale {
    /// The key set an experiment runs over: the SOSD file when
    /// [`Scale::dataset_path`] is set (every synthetic `dataset` then maps
    /// to the same real keys), the synthetic generator otherwise.
    fn dataset_keys(&self, dataset: Dataset) -> Vec<lidx_core::Key> {
        match &self.dataset_path {
            Some(path) => {
                let mut keys = Dataset::from_sosd_file(path)
                    .unwrap_or_else(|e| panic!("--dataset-path {}: {e}", path.display()));
                keys.truncate(self.keys);
                assert!(!keys.is_empty(), "--dataset-path {} holds no keys", path.display());
                keys
            }
            None => dataset.generate_keys(self.keys, self.seed),
        }
    }

    fn search_workload(&self, dataset: Dataset, kind: WorkloadKind) -> Workload {
        let keys = self.dataset_keys(dataset);
        let mut spec = WorkloadSpec::new(kind, self.ops, 0);
        spec.seed = self.seed;
        Workload::build(&keys, spec)
    }

    fn mixed_workload(&self, dataset: Dataset, kind: WorkloadKind) -> Workload {
        let keys = self.dataset_keys(dataset);
        let mut spec = WorkloadSpec::new(kind, self.ops, self.bulk_keys);
        spec.seed = self.seed;
        Workload::build(&keys, spec)
    }
}

fn hdd() -> RunConfig {
    RunConfig { device: DeviceModel::hdd(), ..Default::default() }
}

fn ssd() -> RunConfig {
    RunConfig { device: DeviceModel::ssd(), ..Default::default() }
}

/// Table 2 — empirical check of the worst-case I/O cost analysis: average
/// fetched / written blocks per operation for each index.
pub fn table2(scale: &Scale) {
    println!("== Table 2: I/O cost analysis (measured blocks per operation, YCSB-like data) ==");
    println!("Analytical worst cases (paper):  lookup: B+-tree log_B N | ALEX logN+log(M/B)+1 | FITing log_B P + 2e/B | LIPP 2logN | PGM log(N/B)");
    let lookup = scale.search_workload(Dataset::Ycsb, WorkloadKind::LookupOnly);
    let scan = scale.search_workload(Dataset::Ycsb, WorkloadKind::ScanOnly);
    let write = scale.mixed_workload(Dataset::Ycsb, WorkloadKind::WriteOnly);
    let mut t = Table::new(["index", "lookup blk", "scan blk", "insert blk (r+w)"]);
    for choice in IndexChoice::EVALUATED {
        let rl = run_workload(choice, &hdd(), &lookup);
        let rs = run_workload(choice, &hdd(), &scan);
        let rw = run_workload(choice, &hdd(), &write);
        t.row([
            choice.name().to_string(),
            f2(rl.avg_reads_per_op),
            f2(rs.avg_reads_per_op),
            f2(rw.avg_reads_per_op + rw.avg_writes_per_op),
        ]);
    }
    t.print();
}

/// Table 3 — dataset profiling: PLA segments per error bound, B+-tree leaf
/// count and FMCD conflict degree for every dataset.
pub fn table3(scale: &Scale) {
    println!("== Table 3: dataset profiling (block size 4 KB, {} keys/dataset) ==", scale.keys);
    let bounds = [16usize, 64, 256, 1024];
    let mut t = Table::new([
        "dataset",
        "eps=16",
        "eps=64",
        "eps=256",
        "eps=1024",
        "btree leaves",
        "conflict degree",
    ]);
    for dataset in Dataset::ALL {
        let keys = dataset.generate_keys(scale.keys, scale.seed);
        let p = profile_dataset(&keys, &bounds, 4096);
        t.row([
            dataset.name().to_string(),
            p.segments[0].1.to_string(),
            p.segments[1].1.to_string(),
            p.segments[2].1.to_string(),
            p.segments[3].1.to_string(),
            p.btree_leaves.to_string(),
            p.conflict_degree.to_string(),
        ]);
    }
    t.print();
}

fn search_figure(scale: &Scale, kind: WorkloadKind, title: &str) {
    println!("== {title} ==");
    for (device_name, cfg) in [("HDD", hdd()), ("SSD", ssd())] {
        let mut t = Table::new(["dataset", "btree", "fiting", "pgm", "alex", "lipp"]);
        for dataset in Dataset::REPRESENTATIVE {
            let w = scale.search_workload(dataset, kind);
            let mut row = vec![dataset.name().to_string()];
            for choice in IndexChoice::EVALUATED {
                let r = run_workload(choice, &cfg, &w);
                row.push(ops(r.throughput()));
            }
            t.row(row);
        }
        println!("-- {device_name} (ops/s) --");
        t.print();
    }
}

/// Fig. 3 — Lookup-Only and Scan-Only throughput on HDD and SSD, entire index
/// disk-resident, 4 KB blocks.
pub fn fig3(scale: &Scale) {
    search_figure(scale, WorkloadKind::LookupOnly, "Fig. 3(a)(b): Lookup-Only throughput");
    search_figure(scale, WorkloadKind::ScanOnly, "Fig. 3(c)(d): Scan-Only throughput");
}

/// Fig. 4 — average fetched block count per search query.
pub fn fig4(scale: &Scale) {
    println!("== Fig. 4: average fetched blocks per search query (HDD) ==");
    for kind in [WorkloadKind::LookupOnly, WorkloadKind::ScanOnly] {
        let mut t = Table::new(["dataset", "btree", "fiting", "pgm", "alex", "lipp"]);
        for dataset in Dataset::REPRESENTATIVE {
            let w = scale.search_workload(dataset, kind);
            let mut row = vec![dataset.name().to_string()];
            for choice in IndexChoice::EVALUATED {
                let r = run_workload(choice, &hdd(), &w);
                row.push(f2(r.avg_reads_per_op));
            }
            t.row(row);
        }
        println!("-- {} --", kind.name());
        t.print();
    }
}

/// Table 4 — fetched block breakdown: inner blocks vs leaf blocks for the
/// Lookup-Only and Scan-Only workloads.
pub fn table4(scale: &Scale) {
    println!("== Table 4: fetched block breakdown (HDD, per query) ==");
    let mut t = Table::new([
        "dataset",
        "index",
        "inner blk",
        "leaf blk (lookup)",
        "leaf blk (scan)",
        "utility (scan)",
    ]);
    for dataset in Dataset::REPRESENTATIVE {
        let lookup = scale.search_workload(dataset, WorkloadKind::LookupOnly);
        let scan = scale.search_workload(dataset, WorkloadKind::ScanOnly);
        for choice in IndexChoice::EVALUATED {
            let rl = run_workload(choice, &hdd(), &lookup);
            let rs = run_workload(choice, &hdd(), &scan);
            t.row([
                dataset.name().to_string(),
                choice.name().to_string(),
                f2(rl.avg_inner_reads_per_op),
                f2(rl.avg_leaf_reads_per_op + rl.avg_utility_reads_per_op),
                f2(rs.avg_leaf_reads_per_op),
                f2(rs.avg_utility_reads_per_op),
            ]);
        }
    }
    t.print();
}

/// Table 5 — hybrid designs (learned inner + B+-tree-styled leaves): fetched
/// blocks per lookup / scan query.
pub fn table5(scale: &Scale) {
    println!("== Table 5: hybrid designs, fetched blocks per query (HDD) ==");
    println!("(hybrid-pla stands in for the FITing-tree/PGM hybrids, hybrid-modeltree for the ALEX/LIPP hybrids)");
    let choices = [IndexChoice::HybridPla, IndexChoice::HybridModelTree, IndexChoice::BTree];
    let mut t = Table::new(["dataset", "index", "lookup blk", "scan blk"]);
    for dataset in Dataset::REPRESENTATIVE {
        let lookup = scale.search_workload(dataset, WorkloadKind::LookupOnly);
        let scan = scale.search_workload(dataset, WorkloadKind::ScanOnly);
        for choice in choices {
            let rl = run_workload(choice, &hdd(), &lookup);
            let rs = run_workload(choice, &hdd(), &scan);
            t.row([
                dataset.name().to_string(),
                choice.name().to_string(),
                f2(rl.avg_reads_per_op),
                f2(rs.avg_reads_per_op),
            ]);
        }
    }
    t.print();
}

fn write_figure(scale: &Scale, memory_resident_inner: bool, title: &str) {
    println!("== {title} ==");
    let kinds = [
        WorkloadKind::WriteOnly,
        WorkloadKind::ReadHeavy,
        WorkloadKind::WriteHeavy,
        WorkloadKind::Balanced,
    ];
    for (device_name, base) in [("HDD", hdd()), ("SSD", ssd())] {
        let cfg = RunConfig { memory_resident_inner, ..base };
        println!("-- {device_name} (ops/s) --");
        let mut t = Table::new(["dataset", "workload", "btree", "fiting", "pgm", "alex", "lipp"]);
        for dataset in Dataset::REPRESENTATIVE {
            for kind in kinds {
                let w = scale.mixed_workload(dataset, kind);
                let mut row = vec![dataset.name().to_string(), kind.name().to_string()];
                for choice in IndexChoice::EVALUATED {
                    let r = run_workload(choice, &cfg, &w);
                    row.push(ops(r.throughput()));
                }
                t.row(row);
            }
        }
        t.print();
    }
}

/// Fig. 5 — Write-Only / Read-Heavy / Write-Heavy / Balanced throughput with
/// the entire index disk-resident.
pub fn fig5(scale: &Scale) {
    write_figure(scale, false, "Fig. 5: write/mixed workload throughput, disk-resident");
}

/// Fig. 6 — write performance breakdown into the four insert steps.
pub fn fig6(scale: &Scale) {
    println!("== Fig. 6: write breakdown, avg ms per insert (HDD, Write-Only) ==");
    let mut t = Table::new(["dataset", "index", "search", "insert", "smo", "maintenance", "total"]);
    for dataset in Dataset::REPRESENTATIVE {
        let w = scale.mixed_workload(dataset, WorkloadKind::WriteOnly);
        for choice in IndexChoice::EVALUATED {
            let r = run_workload(choice, &hdd(), &w);
            let b = r.breakdown;
            let total: f64 = InsertStep::ALL.iter().map(|&s| b.avg_ns(s)).sum();
            t.row([
                dataset.name().to_string(),
                choice.name().to_string(),
                ms(b.avg_ns(InsertStep::Search)),
                ms(b.avg_ns(InsertStep::Insert)),
                ms(b.avg_ns(InsertStep::Smo)),
                ms(b.avg_ns(InsertStep::Maintenance)),
                ms(total),
            ]);
        }
    }
    t.print();
}

/// Fig. 7 — bulk-load time and resulting index size.
pub fn fig7(scale: &Scale) {
    println!("== Fig. 7: bulkload time (simulated s, HDD) and index size (MiB) ==");
    let mut t = Table::new(["dataset", "index", "bulk time (s)", "bulk writes", "size (MiB)"]);
    for dataset in Dataset::REPRESENTATIVE {
        let w = scale.search_workload(dataset, WorkloadKind::LookupOnly);
        for choice in IndexChoice::EVALUATED {
            let r = run_workload(choice, &hdd(), &w);
            t.row([
                dataset.name().to_string(),
                choice.name().to_string(),
                f2(r.bulk_seconds),
                r.bulk_writes.to_string(),
                f2(r.storage_mib()),
            ]);
        }
    }
    t.print();
}

/// Fig. 8 — search performance with inner nodes memory-resident.
pub fn fig8(scale: &Scale) {
    println!("== Fig. 8: search throughput, inner nodes memory-resident ==");
    println!("(LIPP is excluded, as in the paper: it has a single node type)");
    let choices = [IndexChoice::BTree, IndexChoice::Fiting, IndexChoice::Pgm, IndexChoice::Alex];
    for kind in [WorkloadKind::LookupOnly, WorkloadKind::ScanOnly] {
        println!("-- {} (HDD, ops/s) --", kind.name());
        let mut t = Table::new(["dataset", "btree", "fiting", "pgm", "alex"]);
        for dataset in Dataset::REPRESENTATIVE {
            let w = scale.search_workload(dataset, kind);
            let cfg = RunConfig { memory_resident_inner: true, ..hdd() };
            let mut row = vec![dataset.name().to_string()];
            for choice in choices {
                let r = run_workload(choice, &cfg, &w);
                row.push(ops(r.throughput()));
            }
            t.row(row);
        }
        t.print();
    }
}

/// Fig. 9 — write workloads with inner nodes memory-resident.
pub fn fig9(scale: &Scale) {
    write_figure(
        scale,
        true,
        "Fig. 9: write/mixed workload throughput, inner nodes memory-resident",
    );
}

/// Fig. 10 — storage usage on disk after the Write-Only workload.
pub fn fig10(scale: &Scale) {
    println!("== Fig. 10: storage usage after Write-Only (MiB) ==");
    let mut t = Table::new(["dataset", "btree", "fiting", "pgm", "alex", "lipp"]);
    for dataset in Dataset::REPRESENTATIVE {
        let w = scale.mixed_workload(dataset, WorkloadKind::WriteOnly);
        let mut row = vec![dataset.name().to_string()];
        for choice in IndexChoice::EVALUATED {
            let r = run_workload(choice, &hdd(), &w);
            row.push(f2(r.storage_mib()));
        }
        t.row(row);
    }
    t.print();
}

/// Fig. 11 — fetched blocks per lookup under different block sizes.
pub fn fig11(scale: &Scale) {
    println!("== Fig. 11: fetched blocks per lookup vs block size (HDD, Lookup-Only) ==");
    let sizes = [1024usize, 2048, 4096, 8192, 16384];
    for dataset in Dataset::REPRESENTATIVE {
        println!("-- {} --", dataset.name());
        let mut t = Table::new(["block size", "btree", "fiting", "pgm", "alex", "lipp"]);
        let w = scale.search_workload(dataset, WorkloadKind::LookupOnly);
        for bs in sizes {
            let cfg = RunConfig { block_size: bs, ..hdd() };
            let mut row = vec![format!("{} KB", bs / 1024)];
            for choice in IndexChoice::EVALUATED {
                let r = run_workload(choice, &cfg, &w);
                row.push(f2(r.avg_reads_per_op));
            }
            t.row(row);
        }
        t.print();
    }
}

/// Fig. 12 — tail latency (p99 and standard deviation) for the Lookup-Only
/// and Write-Only workloads.
pub fn fig12(scale: &Scale) {
    println!("== Fig. 12: tail latency on HDD (ms) ==");
    for kind in [WorkloadKind::LookupOnly, WorkloadKind::WriteOnly] {
        println!("-- {} --", kind.name());
        let mut t = Table::new(["dataset", "index", "mean", "p99", "stddev"]);
        for dataset in Dataset::REPRESENTATIVE {
            let w = if kind == WorkloadKind::LookupOnly {
                scale.search_workload(dataset, kind)
            } else {
                scale.mixed_workload(dataset, kind)
            };
            for choice in IndexChoice::EVALUATED {
                let r = run_workload(choice, &hdd(), &w);
                t.row([
                    dataset.name().to_string(),
                    choice.name().to_string(),
                    ms(r.latency.mean_ns),
                    ms(r.latency.p99_ns as f64),
                    ms(r.latency.stddev_ns),
                ]);
            }
        }
        t.print();
    }
}

/// Fig. 13 — fetched blocks per lookup under different LRU buffer sizes.
pub fn fig13(scale: &Scale) {
    println!("== Fig. 13: fetched blocks per lookup vs buffer size (HDD, Lookup-Only) ==");
    let buffers = [0usize, 2, 4, 8, 16, 32, 64, 128];
    for dataset in Dataset::REPRESENTATIVE {
        println!("-- {} --", dataset.name());
        let mut t = Table::new(["buffer blks", "btree", "fiting", "pgm", "alex", "lipp"]);
        let w = scale.search_workload(dataset, WorkloadKind::LookupOnly);
        for buf in buffers {
            let cfg = RunConfig { buffer_blocks: buf, ..hdd() };
            let mut row = vec![buf.to_string()];
            for choice in IndexChoice::EVALUATED {
                let r = run_workload(choice, &cfg, &w);
                row.push(f2(r.avg_reads_per_op));
            }
            t.row(row);
        }
        t.print();
    }
}

/// Fig. 14 — normalized throughput of every workload on YCSB and FB.
pub fn fig14(scale: &Scale) {
    println!("== Fig. 14: normalized throughput, all workloads (HDD; 1.00 = best per workload) ==");
    for dataset in [Dataset::Ycsb, Dataset::Fb] {
        println!("-- {} --", dataset.name());
        let mut t = Table::new(["workload", "btree", "fiting", "pgm", "alex", "lipp"]);
        for kind in WorkloadKind::ALL {
            let w = if kind.bulk_loads_everything() {
                scale.search_workload(dataset, kind)
            } else {
                scale.mixed_workload(dataset, kind)
            };
            let reports: Vec<WorkloadReport> =
                IndexChoice::EVALUATED.iter().map(|&c| run_workload(c, &hdd(), &w)).collect();
            let best = reports.iter().map(|r| r.throughput()).fold(0.0f64, f64::max);
            let mut row = vec![kind.name().to_string()];
            for r in &reports {
                row.push(f2(r.throughput() / best));
            }
            t.row(row);
        }
        t.print();
    }
}

/// §4.1 layout ablation — ALEX Layout#1 (single file) vs Layout#2 (two
/// files) on the Lookup-Only workload.
pub fn layout_ablation(scale: &Scale) {
    println!("== ALEX layout ablation: Layout#1 (single file) vs Layout#2 (two files) ==");
    let mut t =
        Table::new(["dataset", "layout1 blk", "layout2 blk", "layout1 ops/s", "layout2 ops/s"]);
    for dataset in Dataset::REPRESENTATIVE {
        let w = scale.search_workload(dataset, WorkloadKind::LookupOnly);
        let l1 = run_workload(IndexChoice::AlexLayout1, &hdd(), &w);
        let l2 = run_workload(IndexChoice::Alex, &hdd(), &w);
        t.row([
            dataset.name().to_string(),
            f2(l1.avg_reads_per_op),
            f2(l2.avg_reads_per_op),
            ops(l1.throughput()),
            ops(l2.throughput()),
        ]);
    }
    t.print();
}

/// Extra ablation for design principle P4: reuse of freed space (not enabled
/// in the paper's measurements) versus the default fragmentation behaviour.
pub fn space_reuse_ablation(scale: &Scale) {
    println!("== Space-reuse ablation (design principle P4): storage after Write-Only ==");
    let mut t = Table::new(["index", "no reuse (MiB)", "with reuse (MiB)"]);
    let w = scale.mixed_workload(Dataset::Fb, WorkloadKind::WriteOnly);
    for choice in IndexChoice::EVALUATED {
        let plain = run_workload(choice, &hdd(), &w);
        let reuse_cfg = RunConfig::default();
        // Freed-extent reuse is a Disk-level switch; rebuild the disk with it.
        let disk = lidx_storage::Disk::in_memory(
            lidx_storage::DiskConfig::with_block_size(reuse_cfg.block_size)
                .device(DeviceModel::hdd())
                .reuse_freed_space(true),
        );
        let mut index = choice.build(disk);
        index.bulk_load(&w.bulk).expect("bulk");
        let mut scan_buf = Vec::new();
        for op in &w.ops {
            match *op {
                lidx_workloads::Op::Lookup(k) => {
                    index.lookup(k).expect("lookup");
                }
                lidx_workloads::Op::Insert(k, v) => {
                    index.insert(k, v).expect("insert");
                }
                lidx_workloads::Op::Scan(k, n) => {
                    index.scan(k, n, &mut scan_buf).expect("scan");
                }
            }
        }
        let reuse_mib =
            index.storage_blocks() as f64 * reuse_cfg.block_size as f64 / (1024.0 * 1024.0);
        t.row([choice.name().to_string(), f2(plain.storage_mib()), f2(reuse_mib)]);
    }
    t.print();
}

/// An experiment entry: a stable name and the function that prints it.
pub type ExperimentFn = fn(&Scale);

/// Every experiment, in paper order. Returns the list of `(name, function)`
/// pairs so the binary and the docs stay in sync.
pub fn all_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("table2", table2 as ExperimentFn),
        ("table3", table3),
        ("fig3", fig3),
        ("fig4", fig4),
        ("table4", table4),
        ("table5", table5),
        ("fig5", fig5),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("layout_ablation", layout_ablation),
        ("space_reuse_ablation", space_reuse_ablation),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_path_routes_workloads_through_the_sosd_loader() {
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../workloads/testdata/sosd_tiny.bin");
        let scale =
            Scale { keys: 3_000, ops: 60, bulk_keys: 1_500, seed: 7, dataset_path: Some(fixture) };
        let w = scale.search_workload(Dataset::Ycsb, WorkloadKind::LookupOnly);
        // The fixture holds 99 distinct keys of the form i*977+13; when a
        // dataset path is set, the synthetic generator must not run.
        assert_eq!(w.bulk.len(), 99);
        assert!(w.bulk.iter().all(|&(k, _)| (k - 13) % 977 == 0));
        let r = run_workload(IndexChoice::BTree, &hdd(), &w);
        assert_eq!(r.ops, scale.ops as u64);
    }
}
