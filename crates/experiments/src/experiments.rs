//! One function per table / figure of the paper's evaluation section.
//!
//! Every function prints the same rows or series the paper reports, computed
//! at a configurable [`Scale`]. Absolute numbers differ from the paper (the
//! substrate is a simulated disk and the datasets are synthetic analogues),
//! but the comparative shape — who wins, by roughly what factor, where the
//! crossovers are — is what these reproduce; `EXPERIMENTS.md` records the
//! paper-vs-measured comparison for each one.

use lidx_core::InsertStep;
use lidx_storage::{DeviceModel, OpClass, PoolPartitions, ReplacementPolicy};
use lidx_workloads::{profile_dataset, Dataset, Workload, WorkloadKind, WorkloadSpec};

use lidx_core::WriteBufferConfig;

use crate::report::{
    assert_percentiles_ordered, f2, ms, ops, telemetry_json, top_pauses_json, us, Json, Table,
};
use crate::runner::{
    run_batch_insert, run_batch_lookup, run_batch_lookup_qdepth_sweep, run_par_lookup,
    run_par_lookup_batched, run_scan_interference, run_workload, IndexChoice, InsertMode,
    RunConfig, WorkloadReport, QDEPTH_SWEEP,
};

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
    /// Maximum reader-thread count for the concurrent-lookup sweep (the
    /// sweep doubles from 1 up to this value).
    pub threads: usize,
    /// Path to a SOSD-style binary key file (`u64` LE count + keys). When
    /// set, every experiment draws its key set from this file (truncated to
    /// `keys`) instead of the synthetic generators, so real `fb`/`osm`/
    /// `wiki` keys can be dropped in via `exp --dataset-path <file>`.
    pub dataset_path: Option<std::path::PathBuf>,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            keys: 200_000,
            ops: 5_000,
            bulk_keys: 50_000,
            seed: 42,
            threads: 4,
            dataset_path: None,
        }
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

/// Beyond the paper: aggregate lookup throughput of N concurrent reader
/// threads over a frozen index (the read side of the `DiskIndex` trait takes
/// `&self`, so readers share the index with no index-level locking). The
/// device cost model is realised as actual blocking time so the sweep shows
/// I/O latency hiding — the same effect queue depth has on a real SSD.
pub fn par_lookup(scale: &Scale) {
    println!(
        "== Concurrent lookups: aggregate throughput vs reader threads (simulated SSD latency) =="
    );
    // A scaled-down SSD so the sweep completes quickly: 25 us random read.
    let cfg = RunConfig {
        device: DeviceModel::custom("ssd-25us", 25_000, 30_000, 15_000),
        simulate_device_latency: true,
        ..Default::default()
    };
    let w = scale.search_workload(Dataset::Ycsb, WorkloadKind::LookupOnly);
    let mut sweep = Vec::new();
    let mut t = 1usize;
    while t <= scale.threads.max(1) {
        sweep.push(t);
        t *= 2;
    }
    let mut table = Table::new(["index", "threads", "ops/s", "per-thread ops/s", "speedup"]);
    for choice in IndexChoice::ALL_DESIGNS {
        let mut base = 0.0f64;
        for &threads in &sweep {
            let r = run_par_lookup(choice, &cfg, &w, threads);
            if threads == 1 {
                base = r.aggregate_ops_per_sec();
            }
            table.row([
                r.index.clone(),
                threads.to_string(),
                ops(r.aggregate_ops_per_sec()),
                ops(r.per_thread_ops_per_sec()),
                f2(r.aggregate_ops_per_sec() / base.max(f64::MIN_POSITIVE)),
            ]);
        }
    }
    table.print();
}

/// Beyond the paper: the batched lookup path. For every index design, the
/// same lookup-only workload is executed per key and through
/// `IndexRead::lookup_batch` (64 keys per batch) against a warm 64-block
/// buffer pool, comparing fetched blocks, wall-clock time per lookup and the
/// copy counters. Sequential lookups over the zero-copy `read_ref` path
/// already show `bytes copied = 0`; batching additionally amortises shared
/// inner blocks and leaf decodes across co-located keys.
pub fn batch_lookup(scale: &Scale) {
    println!("== Batched lookups vs sequential (warm 64-block buffer pool, HDD model) ==");
    let cfg = RunConfig { buffer_blocks: 64, ..hdd() };
    let w = scale.search_workload(Dataset::Ycsb, WorkloadKind::LookupOnly);
    let mut t = Table::new([
        "index",
        "seq blk/op",
        "batch blk/op",
        "seq ns/op",
        "batch ns/op",
        "speedup",
        "seq copied B",
        "batch copied B",
    ]);
    for choice in IndexChoice::ALL_DESIGNS {
        let seq = run_batch_lookup(choice, &cfg, &w, 1);
        let bat = run_batch_lookup(choice, &cfg, &w, 64);
        assert_eq!(bat.not_found, seq.not_found, "{choice:?} batch/sequential disagree");
        t.row([
            seq.index.clone(),
            f2(seq.reads_per_op()),
            f2(bat.reads_per_op()),
            format!("{:.0}", seq.wall_ns_per_op()),
            format!("{:.0}", bat.wall_ns_per_op()),
            f2(seq.wall_ns_per_op() / bat.wall_ns_per_op().max(f64::MIN_POSITIVE)),
            seq.bytes_copied.to_string(),
            bat.bytes_copied.to_string(),
        ]);
    }
    t.print();

    // Outstanding reads: the same 64-key batches with the disk configured
    // for queue depths 1/4/8/32. Depth 1 is the synchronous baseline; deeper
    // queues overlap each batch's misses into completion waves charged at
    // the max (not the sum) of their device costs, so simulated I/O time
    // collapses while the answers stay identical.
    println!("-- 64-key batches at outstanding-read queue depths 1/4/8/32 (simulated I/O s) --");
    let mut qt = Table::new(["index", "qd1 io s", "qd4 io s", "qd8 io s", "qd32 io s", "speedup"]);
    for choice in IndexChoice::ALL_DESIGNS {
        let sweep = run_batch_lookup_qdepth_sweep(choice, &cfg, &w, 64, &QDEPTH_SWEEP);
        let base = sweep[0].device_seconds;
        let last = sweep.last().unwrap().device_seconds;
        qt.row([
            sweep[0].index.clone(),
            format!("{:.4}", sweep[0].device_seconds),
            format!("{:.4}", sweep[1].device_seconds),
            format!("{:.4}", sweep[2].device_seconds),
            format!("{:.4}", last),
            f2(base / last.max(f64::MIN_POSITIVE)),
        ]);
    }
    qt.print();

    // The same comparison under reader parallelism: batched threads.
    println!("-- 4 reader threads, per-key vs 64-key batches (wall-clock ops/s) --");
    let mut pt = Table::new(["index", "per-key ops/s", "batched ops/s"]);
    for choice in [IndexChoice::BTree, IndexChoice::Pgm] {
        let per_key = run_par_lookup_batched(choice, &cfg, &w, 4, 1);
        let batched = run_par_lookup_batched(choice, &cfg, &w, 4, 64);
        pt.row([
            per_key.index.clone(),
            ops(per_key.aggregate_ops_per_sec()),
            ops(batched.aggregate_ops_per_sec()),
        ]);
    }
    pt.print();
}

/// Machine-readable perf snapshot: writes `BENCH_lookup.json` with
/// per-index wall-clock ns per lookup (sequential and batched), fetched
/// blocks per lookup, buffer hit rate, simulated I/O seconds and the
/// zero-copy counters, so future PRs have a perf trajectory to compare
/// against. The JSON goes through [`Json`] (stable field order, no serde).
pub fn bench_snapshot(scale: &Scale) {
    bench_snapshot_to(scale, std::path::Path::new("BENCH_lookup.json"));
}

/// [`bench_snapshot`] with an explicit output path (tests write to a temp
/// file; the `exp` binary always writes `BENCH_lookup.json` in the cwd).
pub fn bench_snapshot_to(scale: &Scale, path: &std::path::Path) {
    let shown = path.display();
    println!("== bench snapshot: writing {shown} ==");
    let cfg = RunConfig { buffer_blocks: 64, ..hdd() };
    let w = scale.search_workload(Dataset::Ycsb, WorkloadKind::LookupOnly);
    let mut entries = Vec::new();
    let mut t = Table::new([
        "index",
        "ns/op",
        "batch ns/op",
        "blk/op",
        "pool hit",
        "reuse hit",
        "sim io s",
        "qd32 io s",
    ]);
    for choice in IndexChoice::ALL_DESIGNS {
        let seq = run_batch_lookup(choice, &cfg, &w, 1);
        let bat = run_batch_lookup(choice, &cfg, &w, 64);
        assert_percentiles_ordered(&seq.telemetry, &seq.index);
        // Outstanding-read sweep: the same 64-key batches with the disk at
        // queue depths 1/4/8/32. The depth-1 row reproduces `bat` (same
        // config, fresh disk); deeper rows overlap each batch's misses.
        let sweep = run_batch_lookup_qdepth_sweep(choice, &cfg, &w, 64, &QDEPTH_SWEEP);
        t.row([
            seq.index.clone(),
            format!("{:.0}", seq.wall_ns_per_op()),
            format!("{:.0}", bat.wall_ns_per_op()),
            f2(seq.reads_per_op()),
            f2(seq.buffer_hit_rate()),
            f2(seq.reuse_hit_rate()),
            format!("{:.4}", seq.device_seconds),
            format!("{:.4}", sweep.last().unwrap().device_seconds),
        ]);
        let qdepth_rows = sweep
            .iter()
            .map(|r| {
                Json::Row(vec![
                    ("depth", Json::lit(r.queue_depth)),
                    ("simulated_io_seconds", Json::float(r.device_seconds, 6)),
                    ("overlap_saved_seconds", Json::float(r.overlap_saved_ns as f64 / 1e9, 6)),
                ])
            })
            .collect();
        entries.push(Json::Obj(vec![
            ("index", Json::str(&seq.index)),
            ("ns_per_lookup", Json::float(seq.wall_ns_per_op(), 1)),
            ("batch64_ns_per_lookup", Json::float(bat.wall_ns_per_op(), 1)),
            ("reads_per_lookup", Json::float(seq.reads_per_op(), 4)),
            ("buffer_hit_rate", Json::float(seq.buffer_hit_rate(), 4)),
            ("reuse_hit_rate", Json::float(seq.reuse_hit_rate(), 4)),
            ("simulated_io_seconds", Json::float(seq.device_seconds, 6)),
            ("bytes_copied", Json::lit(seq.bytes_copied)),
            ("frames_pinned", Json::lit(seq.frames_pinned)),
            ("checksum_failures", Json::lit(seq.checksum_failures)),
            ("io_retries", Json::lit(seq.io_retries)),
            ("wal_appends", Json::lit(seq.wal_appends)),
            ("telemetry", telemetry_json(&seq.telemetry)),
            ("qdepth_sweep", Json::Arr(qdepth_rows)),
        ]));
    }
    t.print();
    let doc = Json::Obj(vec![
        ("schema", Json::str("lidx-bench-snapshot-v1")),
        ("workload", Json::str("lookup-only/ycsb")),
        ("buffer_blocks", Json::lit(64)),
        ("keys", Json::lit(scale.keys)),
        ("ops", Json::lit(scale.ops)),
        ("seed", Json::lit(scale.seed)),
        ("indexes", Json::Arr(entries)),
    ]);
    doc.write_to(path).expect("write bench snapshot");
    println!("wrote {shown}");
}

/// Beyond the paper: scan-resistant buffer management. For three structural
/// families, a strided hot-lookup working set is promoted into a 128-block
/// pool and its pool hit rate is measured with no scan running, then again
/// while full-table Scan-Only passes stream through the pool — once per
/// replacement policy (LRU / CLOCK / 2Q) plus an LRU + reserved-inner-
/// partition row showing the partitioning knob is orthogonal to the policy.
/// Strict LRU loses the hot set to every pass; 2Q confines the stream to its
/// probation queue and holds the hit rate within a few points of baseline.
/// `BENCH_scan.json` freezes the numbers (cited in DESIGN.md §3.3).
pub fn scan_resistance(scale: &Scale) {
    scan_resistance_to(scale, std::path::Path::new("BENCH_scan.json"));
}

/// [`scan_resistance`] with an explicit output path (tests write to a temp
/// file; the `exp` binary always writes `BENCH_scan.json` in the cwd).
pub fn scan_resistance_to(scale: &Scale, path: &std::path::Path) {
    let shown = path.display();
    println!("== Scan resistance: hot-lookup pool hit rate vs a streaming full-table scan ==");
    println!("(128-block pool, 32 hot keys; writing {shown})");
    let w = scale.search_workload(Dataset::Ycsb, WorkloadKind::LookupOnly);
    let variants: [(ReplacementPolicy, PoolPartitions); 4] = [
        (ReplacementPolicy::Lru, PoolPartitions::Unified),
        (ReplacementPolicy::Clock, PoolPartitions::Unified),
        (ReplacementPolicy::TwoQ, PoolPartitions::Unified),
        (ReplacementPolicy::Lru, PoolPartitions::InnerReserved { percent: 25 }),
    ];
    let mut t = Table::new([
        "index",
        "policy",
        "partitions",
        "baseline hit",
        "under-scan hit",
        "lost (pts)",
        "inner misses",
    ]);
    let mut entries = Vec::new();
    for choice in [IndexChoice::BTree, IndexChoice::Pgm, IndexChoice::HybridPla] {
        for (policy, partitions) in variants {
            let cfg = RunConfig {
                buffer_blocks: 128,
                buffer_policy: policy,
                buffer_partitions: partitions,
                ..hdd()
            };
            let r = run_scan_interference(choice, &cfg, &w, 32);
            t.row([
                r.index.clone(),
                policy.name().to_string(),
                partitions.name().to_string(),
                f2(r.baseline_hit_rate),
                f2(r.under_scan_hit_rate),
                f2(r.degradation_points()),
                r.under_scan_inner_reads.to_string(),
            ]);
            entries.push(Json::Obj(vec![
                ("index", Json::str(&r.index)),
                ("policy", Json::str(policy.name())),
                ("partitions", Json::str(partitions.name())),
                ("baseline_hit_rate", Json::float(r.baseline_hit_rate, 4)),
                ("under_scan_hit_rate", Json::float(r.under_scan_hit_rate, 4)),
                ("degradation_points", Json::float(r.degradation_points(), 2)),
                ("under_scan_inner_reads", Json::lit(r.under_scan_inner_reads)),
                ("scanned_entries", Json::lit(r.scanned_entries)),
                ("scan_tagged_reads", Json::lit(r.scan_reads)),
            ]));
        }
    }
    t.print();
    let doc = Json::Obj(vec![
        ("schema", Json::str("lidx-bench-scan-v1")),
        ("workload", Json::str("hot-lookups-vs-full-table-scan/ycsb")),
        ("buffer_blocks", Json::lit(128)),
        ("hot_keys", Json::lit(32)),
        ("keys", Json::lit(scale.keys)),
        ("seed", Json::lit(scale.seed)),
        ("runs", Json::Arr(entries)),
    ]);
    doc.write_to(path).expect("write scan snapshot");
    println!("wrote {shown}");
}

/// The storage configuration of the batched-write experiment: the same
/// 64-block pool for every mode, so the contrast isolates the insert
/// strategy rather than the cache size.
fn batch_insert_config() -> RunConfig {
    RunConfig { buffer_blocks: 64, ..hdd() }
}

/// The Fig. 5 gap metric over `(index, per_key_ns, buffered_ns)` rows: mean
/// device cost of the non-PGM designs relative to PGM's *per-key* path (its
/// native LSM batching — the paper's configuration), measured once with the
/// other designs inserting per key and once with them buffered.
fn pgm_gap(rows: &[(String, f64, f64)]) -> (f64, f64) {
    let Some(&(_, pgm, _)) = rows.iter().find(|(n, _, _)| n == "pgm") else {
        return (0.0, 0.0);
    };
    let pgm = pgm.max(f64::MIN_POSITIVE);
    let others: Vec<&(String, f64, f64)> = rows.iter().filter(|(n, _, _)| n != "pgm").collect();
    if others.is_empty() {
        return (0.0, 0.0);
    }
    let per_key = others.iter().map(|(_, p, _)| p / pgm).sum::<f64>() / others.len() as f64;
    let buffered = others.iter().map(|(_, _, b)| b / pgm).sum::<f64>() / others.len() as f64;
    (per_key, buffered)
}

/// The `WriteBuffer` configuration the batched-write experiment measures
/// (512-entry group commit, drained in 128-entry `insert_batch` calls —
/// the same order of magnitude as PGM's 585-entry insert run).
pub fn batch_insert_buffer_config() -> WriteBufferConfig {
    WriteBufferConfig { capacity: 512, drain: 128 }
}

/// Beyond the paper: the batched write path. For every index design, the
/// same Write-Only workload is executed three ways under one storage
/// configuration — per-key `insert` (the paper's write path), caller-chunked
/// `insert_batch`, and a group-commit `WriteBuffer` front — comparing
/// simulated device time per insert, fetched/written blocks and SMO counts.
/// This is the Fig. 5/6 gap under the microscope: PGM's LSM run is what
/// made it the write winner, and the `WriteBuffer` hands the same batching
/// to every other design, so the PGM-vs-rest gap must shrink.
pub fn batch_insert(scale: &Scale) {
    batch_insert_to(scale, std::path::Path::new("BENCH_write.json"));
}

/// [`batch_insert`] with an explicit output path (tests write to a temp
/// file; the `exp` binary always writes `BENCH_write.json` in the cwd).
pub fn batch_insert_to(scale: &Scale, path: &std::path::Path) {
    let shown = path.display();
    println!("== Batched inserts vs per-key (Write-Only, 64-block pool, HDD model) ==");
    println!("(writing {shown})");
    let cfg = batch_insert_config();
    let wb = batch_insert_buffer_config();
    let w = scale.mixed_workload(Dataset::Ycsb, WorkloadKind::WriteOnly);
    let mut t = Table::new([
        "index",
        "per-key ns/ins",
        "batch64 ns/ins",
        "buffered ns/ins",
        "speedup",
        "per-key blk/ins",
        "buffered blk/ins",
        "smos (pk/buf)",
        "drains",
    ]);
    let mut entries = Vec::new();
    let mut gap_inputs: Vec<(String, f64, f64)> = Vec::new();
    for choice in IndexChoice::ALL_DESIGNS {
        let per_key = run_batch_insert(choice, &cfg, &w, InsertMode::PerKey);
        let batch = run_batch_insert(choice, &cfg, &w, InsertMode::Batch(64));
        let buffered = run_batch_insert(choice, &cfg, &w, InsertMode::Buffered(wb));
        for r in [&per_key, &batch, &buffered] {
            assert_eq!(r.lost, 0, "{choice:?} {} lost inserted keys", r.mode);
        }
        let speedup =
            per_key.device_ns_per_insert() / buffered.device_ns_per_insert().max(f64::MIN_POSITIVE);
        t.row([
            per_key.index.clone(),
            format!("{:.0}", per_key.device_ns_per_insert()),
            format!("{:.0}", batch.device_ns_per_insert()),
            format!("{:.0}", buffered.device_ns_per_insert()),
            f2(speedup),
            f2(per_key.io_per_insert()),
            f2(buffered.io_per_insert()),
            format!("{}/{}", per_key.smos, buffered.smos),
            buffered.breakdown.drains.to_string(),
        ]);
        gap_inputs.push((
            per_key.index.clone(),
            per_key.device_ns_per_insert(),
            buffered.device_ns_per_insert(),
        ));
        entries.push(Json::Obj(vec![
            ("index", Json::str(&per_key.index)),
            ("per_key_ns_per_insert", Json::float(per_key.device_ns_per_insert(), 1)),
            ("batch64_ns_per_insert", Json::float(batch.device_ns_per_insert(), 1)),
            ("buffered_ns_per_insert", Json::float(buffered.device_ns_per_insert(), 1)),
            ("buffered_speedup", Json::float(speedup, 4)),
            ("per_key_blocks_per_insert", Json::float(per_key.io_per_insert(), 4)),
            ("batch64_blocks_per_insert", Json::float(batch.io_per_insert(), 4)),
            ("buffered_blocks_per_insert", Json::float(buffered.io_per_insert(), 4)),
            ("per_key_smos", Json::lit(per_key.smos)),
            ("buffered_smos", Json::lit(buffered.smos)),
            ("drains", Json::lit(buffered.breakdown.drains)),
            ("drained_entries", Json::lit(buffered.breakdown.drained_entries)),
        ]));
    }
    t.print();

    // The Fig. 5 gap: PGM's insert advantage came from its native LSM
    // batching, so the reference stays PGM's per-key path (the paper's
    // configuration) while the other designs ride the WriteBuffer. The mean
    // cost ratio of the non-PGM designs against that reference must shrink
    // once they batch too.
    let (gap_per_key, gap_buffered) = pgm_gap(&gap_inputs);
    println!(
        "Mean non-PGM cost vs PGM's native path: {:.2}x per-key -> {:.2}x buffered",
        gap_per_key, gap_buffered
    );

    let doc = Json::Obj(vec![
        ("schema", Json::str("lidx-bench-write-v1")),
        ("workload", Json::str("write-only/ycsb")),
        ("buffer_blocks", Json::lit(64)),
        (
            "write_buffer",
            Json::Row(vec![("capacity", Json::lit(wb.capacity)), ("drain", Json::lit(wb.drain))]),
        ),
        ("keys", Json::lit(scale.keys)),
        ("ops", Json::lit(scale.ops)),
        ("bulk_keys", Json::lit(scale.bulk_keys)),
        ("seed", Json::lit(scale.seed)),
        ("pgm_gap_per_key", Json::float(gap_per_key, 2)),
        ("pgm_gap_buffered", Json::float(gap_buffered, 2)),
        ("indexes", Json::Arr(entries)),
    ]);
    doc.write_to(path).expect("write batch-insert snapshot");
    println!("wrote {shown}");
}

/// The `"buffer"` header row of the two concurrent snapshots.
fn buffer_json(buffer: lidx_core::ShardedWriteBufferConfig) -> Json {
    Json::Row(vec![
        ("capacity", Json::lit(buffer.capacity)),
        ("drain", Json::lit(buffer.drain)),
        ("shards", Json::lit(buffer.shards)),
    ])
}

/// The [`lidx_core::ShardedWriteBufferConfig`] the mixed-workload sweep
/// races: 8 shards so four writers rarely collide on a staging lock, and a
/// small drain chunk so the exclusive index-lock windows stay short enough
/// for readers to overlap.
pub fn mixed_workload_buffer_config() -> lidx_core::ShardedWriteBufferConfig {
    lidx_core::ShardedWriteBufferConfig { capacity: 1024, drain: 64, shards: 8 }
}

/// Beyond the paper: the concurrent write path. Every index design is
/// wrapped in the `ConcurrentIndex` + `ShardedWriteBuffer` front and raced
/// under the YCSB-A/B/C mixes by 1..=`scale.threads` worker threads while a
/// dedicated background writer continuously stages chunks and drains them —
/// so even the read-only YCSB-C rows measure readers overlapping exclusive
/// drain windows. The device cost model is realised as blocking time (as in
/// [`par_lookup`]), making the wall-clock speedup the contention signal:
/// reads scale while drains only pause them chunk-wise.
pub fn mixed_workload(scale: &Scale) {
    mixed_workload_to(scale, std::path::Path::new("BENCH_mixed.json"));
}

/// [`mixed_workload`] with an explicit output path (tests write to a temp
/// file; the `exp` binary always writes `BENCH_mixed.json` in the cwd).
pub fn mixed_workload_to(scale: &Scale, path: &std::path::Path) {
    let shown = path.display();
    println!(
        "== Mixed YCSB workloads: worker threads racing a draining writer (writing {shown}) =="
    );
    let cfg = RunConfig {
        device: DeviceModel::custom("ssd-25us", 25_000, 30_000, 15_000),
        simulate_device_latency: true,
        ..Default::default()
    };
    let buffer = mixed_workload_buffer_config();
    // Balanced supplies the biggest insert pool; the mix ratios are applied
    // per worker operation inside the phase, not by the workload stream.
    let w = scale.mixed_workload(Dataset::Ycsb, WorkloadKind::Balanced);
    let mut sweep = Vec::new();
    let mut t = 1usize;
    while t <= scale.threads.max(1) {
        sweep.push(t);
        t *= 2;
    }
    let ops_per_thread = scale.ops;
    let mut table = Table::new([
        "index",
        "mix",
        "threads",
        "ops/s",
        "speedup",
        "drains",
        "read stalls",
        "write stalls",
    ]);
    let mut entries = Vec::new();
    let mut tails = Table::new([
        "index",
        "mix",
        "lookup p99 us",
        "insert p99 us",
        "drain p99 us",
        "drain max us",
        "top pause",
    ]);
    for choice in IndexChoice::ALL_DESIGNS {
        for mix in crate::runner::YcsbMix::ALL {
            let mut base = 0.0f64;
            for &threads in &sweep {
                let r = crate::runner::run_mixed_workload(
                    choice,
                    &cfg,
                    &w,
                    mix,
                    threads,
                    ops_per_thread,
                    buffer,
                );
                assert_eq!(r.not_found, 0, "{choice:?} {mix:?} bulk keys must stay visible");
                assert_eq!(r.lost, 0, "{choice:?} {mix:?} staged keys must survive the race");
                assert_percentiles_ordered(
                    &r.telemetry,
                    &format!("{} {} t{threads}", r.index, r.mix),
                );
                if threads == 1 {
                    base = r.aggregate_ops_per_sec();
                }
                if threads == *sweep.last().unwrap() {
                    tails.row([
                        r.index.clone(),
                        r.mix.to_string(),
                        us(r.telemetry.class(OpClass::Lookup).summary.p99_ns as f64),
                        us(r.telemetry.class(OpClass::Insert).summary.p99_ns as f64),
                        us(r.telemetry.class(OpClass::Drain).summary.p99_ns as f64),
                        us(r.telemetry.class(OpClass::Drain).summary.max_ns as f64),
                        r.telemetry
                            .top_pauses(1)
                            .first()
                            .map(|c| c.class.label().to_string())
                            .unwrap_or_else(|| "-".to_string()),
                    ]);
                }
                let speedup = r.aggregate_ops_per_sec() / base.max(f64::MIN_POSITIVE);
                table.row([
                    r.index.clone(),
                    r.mix.to_string(),
                    threads.to_string(),
                    ops(r.aggregate_ops_per_sec()),
                    f2(speedup),
                    r.drain_chunks.to_string(),
                    r.read_stalls.to_string(),
                    r.write_stalls.to_string(),
                ]);
                entries.push(Json::Obj(vec![
                    ("index", Json::str(&r.index)),
                    ("mix", Json::str(r.mix)),
                    ("threads", Json::lit(threads)),
                    ("aggregate_ops_per_sec", Json::float(r.aggregate_ops_per_sec(), 1)),
                    ("speedup_vs_1_thread", Json::float(speedup, 4)),
                    ("lookups", Json::lit(r.lookups)),
                    ("inserts", Json::lit(r.inserts)),
                    ("writer_entries", Json::lit(r.writer_entries)),
                    ("drain_chunks", Json::lit(r.drain_chunks)),
                    ("drained_entries", Json::lit(r.drained_entries)),
                    ("read_stalls", Json::lit(r.read_stalls)),
                    ("write_stalls", Json::lit(r.write_stalls)),
                    ("not_found", Json::lit(r.not_found)),
                    ("lost", Json::lit(r.lost)),
                    ("telemetry", telemetry_json(&r.telemetry)),
                    ("top_pauses", top_pauses_json(&r.telemetry, 5)),
                ]));
            }
        }
    }
    table.print();
    println!("-- per-op-class tails at {} threads (wall-clock) --", sweep.last().unwrap());
    tails.print();
    let doc = Json::Obj(vec![
        ("schema", Json::str("lidx-bench-mixed-v1")),
        ("workload", Json::str("ycsb-abc/ycsb")),
        ("device", Json::str("ssd-25us")),
        ("buffer", buffer_json(buffer)),
        ("keys", Json::lit(scale.keys)),
        ("ops_per_thread", Json::lit(ops_per_thread)),
        ("bulk_keys", Json::lit(scale.bulk_keys)),
        ("seed", Json::lit(scale.seed)),
        ("runs", Json::Arr(entries)),
    ]);
    doc.write_to(path).expect("write mixed snapshot");
    println!("wrote {shown}");
}

/// The per-shard staging config the sharded-serving sweep uses: the same
/// capacity/drain shape as the mixed sweep, with fewer staging sub-shards
/// per front because write contention is already spread across keyspace
/// shards.
pub fn sharded_serving_buffer_config() -> lidx_core::ShardedWriteBufferConfig {
    lidx_core::ShardedWriteBufferConfig { capacity: 1024, drain: 64, shards: 4 }
}

/// Beyond the paper: the sharded serving layer. Every design runs behind
/// `ShardedIndex` at 1, 4 and 16 shards under zipfian and uniform read
/// streams, racing `scale.threads` workers against a continuously draining
/// background writer; every multi-shard row also executes one online
/// hot-shard split mid-run and proves `lost == 0` afterwards. Full runs
/// are floored at a 2 M-key bulk load (the tens-of-millions regime scales
/// with `--keys`/`--bulk`); smoke scales pass through untouched.
pub fn sharded_serving(scale: &Scale) {
    sharded_serving_to(scale, std::path::Path::new("BENCH_sharded.json"));
}

/// [`sharded_serving`] with an explicit output path (tests write to a temp
/// file; the `exp` binary always writes `BENCH_sharded.json` in the cwd).
pub fn sharded_serving_to(scale: &Scale, path: &std::path::Path) {
    let shown = path.display();
    println!(
        "== Sharded serving: shard-count sweep under zipfian/uniform reads (writing {shown}) =="
    );
    // Smoke scales (--quick) pass through; anything full-sized is floored
    // at the 2 M-key serving regime the sweep is about.
    let eff = if scale.keys < 100_000 {
        scale.clone()
    } else {
        Scale {
            keys: scale.keys.max(2_500_000),
            bulk_keys: scale.bulk_keys.max(2_000_000),
            ..scale.clone()
        }
    };
    let cfg = RunConfig {
        device: DeviceModel::custom("ssd-25us", 25_000, 30_000, 15_000),
        simulate_device_latency: true,
        ..Default::default()
    };
    let buffer = sharded_serving_buffer_config();
    let w = eff.mixed_workload(Dataset::Ycsb, WorkloadKind::Balanced);
    let threads = eff.threads.max(1);
    let shard_sweep = [1usize, 4, 16];
    let mut table = Table::new([
        "index",
        "dist",
        "shards",
        "ops/s",
        "speedup",
        "splits",
        "read stalls",
        "write stalls",
    ]);
    let mut tails = Table::new([
        "index",
        "dist",
        "lookup p99 us",
        "insert p99 us",
        "rebalance max us",
        "top pause",
    ]);
    let mut entries = Vec::new();
    for choice in IndexChoice::ALL_DESIGNS {
        for dist in crate::runner::KeyDist::ALL {
            let mut base = 0.0f64;
            for &shards in &shard_sweep {
                let r = crate::runner::run_sharded_serving(
                    choice,
                    &cfg,
                    &w,
                    dist,
                    shards,
                    threads,
                    eff.ops,
                    buffer,
                    shards > 1,
                );
                assert_eq!(r.not_found, 0, "{choice:?} {dist:?} bulk keys must stay visible");
                assert_eq!(r.lost, 0, "{choice:?} {dist:?} staged keys must survive the race");
                assert_percentiles_ordered(
                    &r.telemetry,
                    &format!("{} {} s{shards}", r.index, r.dist),
                );
                if shards == *shard_sweep.last().unwrap() {
                    tails.row([
                        r.index.clone(),
                        r.dist.to_string(),
                        us(r.telemetry.class(OpClass::Lookup).summary.p99_ns as f64),
                        us(r.telemetry.class(OpClass::Insert).summary.p99_ns as f64),
                        us(r.telemetry.class(OpClass::Rebalance).summary.max_ns as f64),
                        r.telemetry
                            .top_pauses(1)
                            .first()
                            .map(|c| c.class.label().to_string())
                            .unwrap_or_else(|| "-".to_string()),
                    ]);
                }
                if shards > 1 {
                    assert!(r.splits >= 1, "{choice:?} {dist:?} online split must have fired");
                    assert_eq!(r.shards_final, shards + 1, "split must add one shard");
                }
                if shards == 1 {
                    base = r.aggregate_ops_per_sec();
                }
                let speedup = r.aggregate_ops_per_sec() / base.max(f64::MIN_POSITIVE);
                table.row([
                    r.index.clone(),
                    r.dist.to_string(),
                    shards.to_string(),
                    ops(r.aggregate_ops_per_sec()),
                    f2(speedup),
                    r.splits.to_string(),
                    r.read_stalls.to_string(),
                    r.write_stalls.to_string(),
                ]);
                entries.push(Json::Obj(vec![
                    ("index", Json::str(&r.index)),
                    ("dist", Json::str(r.dist)),
                    ("shards", Json::lit(shards)),
                    ("shards_final", Json::lit(r.shards_final)),
                    ("threads", Json::lit(r.threads)),
                    ("aggregate_ops_per_sec", Json::float(r.aggregate_ops_per_sec(), 1)),
                    ("speedup_vs_1_shard", Json::float(speedup, 4)),
                    ("lookups", Json::lit(r.lookups)),
                    ("inserts", Json::lit(r.inserts)),
                    ("writer_entries", Json::lit(r.writer_entries)),
                    ("drain_chunks", Json::lit(r.drain_chunks)),
                    ("read_stalls", Json::lit(r.read_stalls)),
                    ("write_stalls", Json::lit(r.write_stalls)),
                    ("splits", Json::lit(r.splits)),
                    ("split_overlapped", Json::lit(r.split_overlapped)),
                    ("not_found", Json::lit(r.not_found)),
                    ("lost", Json::lit(r.lost)),
                    ("telemetry", telemetry_json(&r.telemetry)),
                    ("top_pauses", top_pauses_json(&r.telemetry, 5)),
                ]));
            }
        }
    }
    table.print();
    println!(
        "-- per-op-class tails at {} shards (router + live shards) --",
        shard_sweep.last().unwrap()
    );
    tails.print();
    let doc = Json::Obj(vec![
        ("schema", Json::str("lidx-bench-sharded-v1")),
        ("workload", Json::str("serving-95r5w/ycsb")),
        ("device", Json::str("ssd-25us")),
        ("buffer", buffer_json(buffer)),
        ("keys", Json::lit(eff.keys)),
        ("bulk_keys", Json::lit(eff.bulk_keys)),
        ("ops_per_thread", Json::lit(eff.ops)),
        ("threads", Json::lit(threads)),
        ("zipfian_theta", Json::float(0.99, 2)),
        ("seed", Json::lit(eff.seed)),
        ("runs", Json::Arr(entries)),
    ]);
    doc.write_to(path).expect("write sharded snapshot");
    println!("wrote {shown}");
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
        ("par_lookup", par_lookup),
        ("batch_lookup", batch_lookup),
        ("batch_insert", batch_insert),
        ("mixed_workload", mixed_workload),
        ("bench_snapshot", bench_snapshot),
        ("scan_resistance", scan_resistance),
        ("space_reuse_ablation", space_reuse_ablation),
        ("sharded_serving", sharded_serving),
        ("recovery", crate::recovery::recovery),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale { keys: 3_000, ops: 60, bulk_keys: 1_500, seed: 7, threads: 2, dataset_path: None }
    }

    #[test]
    fn experiment_registry_contains_every_table_and_figure() {
        let names: Vec<&str> = all_experiments().iter().map(|(n, _)| *n).collect();
        for expected in [
            "table2",
            "table3",
            "table4",
            "table5",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "layout_ablation",
            "par_lookup",
        ] {
            assert!(names.contains(&expected), "missing experiment {expected}");
        }
    }

    #[test]
    fn dataset_path_routes_workloads_through_the_sosd_loader() {
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../workloads/testdata/sosd_tiny.bin");
        let scale = Scale { dataset_path: Some(fixture), ..tiny() };
        let w = scale.search_workload(Dataset::Ycsb, WorkloadKind::LookupOnly);
        // The fixture holds 99 distinct keys of the form i*977+13; when a
        // dataset path is set, the synthetic generator must not run.
        assert_eq!(w.bulk.len(), 99);
        assert!(w.bulk.iter().all(|&(k, _)| (k - 13) % 977 == 0));
        let r = run_workload(IndexChoice::BTree, &hdd(), &w);
        assert_eq!(r.ops, scale.ops as u64);
    }

    #[test]
    fn representative_search_experiments_run_at_tiny_scale() {
        let s = tiny();
        table3(&s);
        fig4(&s);
        table5(&s);
        layout_ablation(&s);
    }

    #[test]
    fn representative_write_experiments_run_at_tiny_scale() {
        let s = tiny();
        fig6(&s);
        fig10(&s);
    }

    #[test]
    fn par_lookup_sweep_runs_at_tiny_scale() {
        par_lookup(&tiny());
    }

    #[test]
    fn batch_lookup_comparison_runs_at_tiny_scale() {
        batch_lookup(&tiny());
    }

    #[test]
    fn buffered_inserts_beat_per_key_and_narrow_the_pgm_gap() {
        // The PR's write-side acceptance criterion at a CI-friendly scale
        // (simulated device time is deterministic, so this cannot flake):
        // a WriteBuffer front must beat per-key inserts for every non-PGM
        // design, and the mean non-PGM insert cost relative to PGM's native
        // LSM path (the Fig. 5 gap) must shrink under batching.
        let scale = Scale {
            keys: 20_000,
            ops: 800,
            bulk_keys: 8_000,
            seed: 42,
            threads: 2,
            dataset_path: None,
        };
        let cfg = batch_insert_config();
        let wb = batch_insert_buffer_config();
        let w = scale.mixed_workload(Dataset::Ycsb, WorkloadKind::WriteOnly);
        let mut rows: Vec<(String, f64, f64)> = Vec::new();
        for choice in IndexChoice::ALL_DESIGNS {
            let per_key = run_batch_insert(choice, &cfg, &w, InsertMode::PerKey);
            let buffered = run_batch_insert(choice, &cfg, &w, InsertMode::Buffered(wb));
            assert_eq!(per_key.lost, 0, "{choice:?} per-key lost keys");
            assert_eq!(buffered.lost, 0, "{choice:?} buffered lost keys");
            assert_eq!(per_key.inserts, buffered.inserts);
            assert!(buffered.breakdown.drains >= 1, "{choice:?} must actually drain");
            if per_key.index != "pgm" {
                assert!(
                    buffered.device_ns_per_insert() < per_key.device_ns_per_insert(),
                    "{choice:?}: buffered inserts ({:.0} ns) must beat per-key ({:.0} ns)",
                    buffered.device_ns_per_insert(),
                    per_key.device_ns_per_insert()
                );
            }
            rows.push((
                per_key.index.clone(),
                per_key.device_ns_per_insert(),
                buffered.device_ns_per_insert(),
            ));
        }
        let (gap_per_key, gap_buffered) = pgm_gap(&rows);
        assert!(
            gap_buffered < gap_per_key,
            "batching must narrow the PGM insert gap ({gap_per_key:.2}x -> {gap_buffered:.2}x)"
        );
    }

    #[test]
    fn batch_insert_writes_machine_readable_json() {
        let path = std::env::temp_dir().join("lidx_write_snapshot_test.json");
        batch_insert_to(&tiny(), &path);
        let s = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for index in ["btree", "fiting", "pgm", "alex", "lipp", "hybrid-pla", "hybrid-model-tree"] {
            assert!(s.contains(&format!("\"index\": \"{index}\"")), "snapshot misses {index}");
        }
        for field in [
            "\"schema\": \"lidx-bench-write-v1\"",
            "per_key_ns_per_insert",
            "batch64_ns_per_insert",
            "buffered_ns_per_insert",
            "buffered_speedup",
            "per_key_blocks_per_insert",
            "buffered_blocks_per_insert",
            "per_key_smos",
            "buffered_smos",
            "\"drains\":",
            "drained_entries",
            "pgm_gap_per_key",
            "pgm_gap_buffered",
            "\"write_buffer\": { \"capacity\": 512, \"drain\": 128 }",
        ] {
            assert!(s.contains(field), "write snapshot misses {field}: {s}");
        }
        assert_eq!(s.matches("\"index\":").count(), 7);
    }

    #[test]
    fn mixed_workload_writes_machine_readable_json() {
        // Tiny scale checks the mechanics and the self-checks inside the
        // phase (not_found == 0, lost == 0 for every design / mix / thread
        // count); the wall-clock *scaling* is a release-mode property pinned
        // by the checked-in BENCH_mixed.json.
        let path = std::env::temp_dir().join("lidx_mixed_snapshot_test.json");
        mixed_workload_to(&tiny(), &path);
        let s = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for field in [
            "\"schema\": \"lidx-bench-mixed-v1\"",
            "\"mix\": \"ycsb-a\"",
            "\"mix\": \"ycsb-b\"",
            "\"mix\": \"ycsb-c\"",
            "aggregate_ops_per_sec",
            "speedup_vs_1_thread",
            "writer_entries",
            "drain_chunks",
            "read_stalls",
            "write_stalls",
            "\"buffer\": { \"capacity\": 1024, \"drain\": 64, \"shards\": 8 }",
            "\"telemetry\":",
            "\"top_pauses\":",
            "\"lookup\":",
            "\"drain\":",
            "\"p999_ns\":",
        ] {
            assert!(s.contains(field), "mixed snapshot misses {field}");
        }
        assert!(s.contains("+rw+swb"), "concurrent front names must carry +rw+swb");
        // 7 designs x 3 mixes x 2 thread counts (tiny scale: threads = 2).
        assert_eq!(s.matches("\"index\":").count(), 42);
        assert!(!s.contains("\"lost\": 1"), "no run may lose a staged key");
        // Every run embeds a telemetry object and a top-pauses array.
        assert_eq!(s.matches("\"telemetry\":").count(), 42);
        assert_eq!(s.matches("\"top_pauses\":").count(), 42);
    }

    #[test]
    fn sharded_serving_writes_machine_readable_json() {
        // Tiny scale checks the mechanics and the self-checks inside the
        // phase (not_found == 0, lost == 0, an online split on every
        // multi-shard row); the aggregate *scaling* is a release-mode
        // property pinned by the checked-in BENCH_sharded.json.
        let path = std::env::temp_dir().join("lidx_sharded_snapshot_test.json");
        sharded_serving_to(&tiny(), &path);
        let s = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for field in [
            "\"schema\": \"lidx-bench-sharded-v1\"",
            "\"dist\": \"zipfian\"",
            "\"dist\": \"uniform\"",
            "\"shards\": 16",
            "\"shards_final\": 17",
            "aggregate_ops_per_sec",
            "speedup_vs_1_shard",
            "\"zipfian_theta\": 0.99",
            "\"buffer\": { \"capacity\": 1024, \"drain\": 64, \"shards\": 4 }",
            "\"telemetry\":",
            "\"top_pauses\":",
            "\"rebalance\":",
            "\"p999_ns\":",
        ] {
            assert!(s.contains(field), "sharded snapshot misses {field}");
        }
        // Every run embeds a telemetry object and a top-pauses array.
        assert_eq!(s.matches("\"telemetry\":").count(), 42);
        assert_eq!(s.matches("\"top_pauses\":").count(), 42);
        assert!(s.contains("+sharded"), "router names must carry +sharded");
        // 7 designs x 2 distributions x 3 shard counts.
        assert_eq!(s.matches("\"index\":").count(), 42);
        assert!(!s.contains("\"lost\": 1"), "no run may lose a staged key");
        // Every multi-shard row split online (asserted per-run inside the
        // phase); 28 of the 42 rows ran multi-shard.
        assert_eq!(s.matches("\"splits\": 1").count(), 28);
    }

    #[test]
    fn scan_resistance_writes_machine_readable_json() {
        // Tiny scale only checks the mechanics (the policy *contrast* needs
        // a table much larger than the pool and is pinned at a realistic
        // scale by `runner::tests::scan_interference_pins_the_policy_contrast`).
        let path = std::env::temp_dir().join("lidx_scan_snapshot_test.json");
        scan_resistance_to(&tiny(), &path);
        let s = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for field in [
            "\"schema\": \"lidx-bench-scan-v1\"",
            "\"policy\": \"lru\"",
            "\"policy\": \"clock\"",
            "\"policy\": \"2q\"",
            "\"partitions\": \"inner-reserved\"",
            "baseline_hit_rate",
            "under_scan_hit_rate",
            "degradation_points",
            "under_scan_inner_reads",
            "scan_tagged_reads",
        ] {
            assert!(s.contains(field), "scan snapshot misses {field}: {s}");
        }
        // 3 indexes x 4 (policy, partition) variants.
        assert_eq!(s.matches("\"index\":").count(), 12);
    }

    #[test]
    fn bench_snapshot_writes_machine_readable_json() {
        let path = std::env::temp_dir().join("lidx_bench_snapshot_test.json");
        bench_snapshot_to(&tiny(), &path);
        let s = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for index in ["btree", "fiting", "pgm", "alex", "lipp", "hybrid-pla", "hybrid-model-tree"] {
            assert!(s.contains(&format!("\"index\": \"{index}\"")), "snapshot misses {index}");
        }
        for field in [
            "ns_per_lookup",
            "batch64_ns_per_lookup",
            "reads_per_lookup",
            "buffer_hit_rate",
            "reuse_hit_rate",
            "simulated_io_seconds",
            "bytes_copied",
            "frames_pinned",
            "qdepth_sweep",
            "overlap_saved_seconds",
            "\"telemetry\":",
            "\"lookup\":",
            "\"p999_ns\":",
        ] {
            assert!(s.contains(field), "snapshot misses field {field}");
        }
        // One telemetry object per index entry.
        assert_eq!(s.matches("\"telemetry\":").count(), 7);
        // Each of the 7 index entries carries the full 1/4/8/32 depth sweep.
        for depth in QDEPTH_SWEEP {
            assert_eq!(
                s.matches(&format!("\"depth\": {depth},")).count(),
                7,
                "one depth-{depth} row per index: {s}"
            );
        }
        // Lookup hot paths are zero-copy: the sequential pass must record
        // exactly zero caller-buffer copies for *every one* of the seven
        // indexes (one `"bytes_copied": 0` line per index entry).
        let zero_copy_lines = s.matches("\"bytes_copied\": 0,").count();
        let copied_lines = s.matches("\"bytes_copied\":").count();
        assert_eq!(copied_lines, 7, "one bytes_copied field per index: {s}");
        assert_eq!(zero_copy_lines, 7, "every index's lookup path must copy 0 bytes: {s}");
    }
}
