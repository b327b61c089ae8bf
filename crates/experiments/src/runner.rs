//! Building indexes and executing workloads against them.

use std::sync::Arc;

use lidx_alex::{AlexConfig, AlexIndex, AlexLayout};
use lidx_btree::{BTreeConfig, BTreeIndex};
use lidx_core::{
    DiskIndex, Entry, IndexRead, IndexWrite, InsertBreakdown, Key, LatencyRecorder, LatencySummary,
    WriteBuffer, WriteBufferConfig,
};
use lidx_fiting::{FitingConfig, FitingTree};
use lidx_hybrid::{HybridConfig, HybridIndex, HybridInnerKind};
use lidx_lipp::{LippConfig, LippIndex};
use lidx_pgm::{PgmConfig, PgmIndex};
use lidx_storage::{BlockKind, DeviceModel, Disk, DiskConfig};
use lidx_workloads::{Op, Workload};

/// Which index to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexChoice {
    /// The on-disk B+-tree baseline.
    BTree,
    /// The on-disk FITing-tree.
    Fiting,
    /// The on-disk dynamic PGM-index.
    Pgm,
    /// The on-disk ALEX index (Layout#2).
    Alex,
    /// The on-disk ALEX index using Layout#1 (single file); used by the
    /// layout ablation.
    AlexLayout1,
    /// The on-disk LIPP index.
    Lipp,
    /// Hybrid design with a PLA (FITing/PGM-style) inner directory.
    HybridPla,
    /// Hybrid design with an FMCD model-tree (ALEX/LIPP-style) inner
    /// directory.
    HybridModelTree,
}

impl IndexChoice {
    /// The five indexes the paper's main figures compare.
    pub const EVALUATED: [IndexChoice; 5] = [
        IndexChoice::BTree,
        IndexChoice::Fiting,
        IndexChoice::Pgm,
        IndexChoice::Alex,
        IndexChoice::Lipp,
    ];

    /// The seven distinct index designs (excludes the `AlexLayout1`
    /// ablation, which is the same design with a different file layout).
    /// This is the list the cross-index oracle suites and the perf ledger
    /// iterate, so a newly added design is picked up everywhere.
    pub const ALL_DESIGNS: [IndexChoice; 7] = [
        IndexChoice::BTree,
        IndexChoice::Fiting,
        IndexChoice::Pgm,
        IndexChoice::Alex,
        IndexChoice::Lipp,
        IndexChoice::HybridPla,
        IndexChoice::HybridModelTree,
    ];

    /// Every variant, including ablation configurations.
    pub const ALL: [IndexChoice; 8] = [
        IndexChoice::BTree,
        IndexChoice::Fiting,
        IndexChoice::Pgm,
        IndexChoice::Alex,
        IndexChoice::AlexLayout1,
        IndexChoice::Lipp,
        IndexChoice::HybridPla,
        IndexChoice::HybridModelTree,
    ];

    /// Short name used in report rows.
    pub fn name(self) -> &'static str {
        match self {
            IndexChoice::BTree => "btree",
            IndexChoice::Fiting => "fiting",
            IndexChoice::Pgm => "pgm",
            IndexChoice::Alex => "alex",
            IndexChoice::AlexLayout1 => "alex-layout1",
            IndexChoice::Lipp => "lipp",
            IndexChoice::HybridPla => "hybrid-pla",
            IndexChoice::HybridModelTree => "hybrid-modeltree",
        }
    }

    /// Parses a name produced by [`IndexChoice::name`].
    pub fn from_name(s: &str) -> Option<IndexChoice> {
        Self::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Builds an empty index of this kind over `disk`.
    pub fn build(self, disk: Arc<Disk>) -> Box<dyn DiskIndex> {
        match self {
            IndexChoice::BTree => Box::new(BTreeIndex::new(disk).expect("btree init")),
            IndexChoice::Fiting => Box::new(
                FitingTree::with_config(disk, FitingConfig { epsilon: 64, buffer_entries: 256 })
                    .expect("fiting init"),
            ),
            IndexChoice::Pgm => Box::new(
                PgmIndex::with_config(disk, PgmConfig { epsilon: 64, insert_run_entries: 585 })
                    .expect("pgm init"),
            ),
            IndexChoice::Alex => Box::new(AlexIndex::new(disk).expect("alex init")),
            IndexChoice::AlexLayout1 => Box::new(
                AlexIndex::with_config(
                    disk,
                    AlexConfig { layout: AlexLayout::SingleFile, ..Default::default() },
                )
                .expect("alex layout1 init"),
            ),
            IndexChoice::Lipp => Box::new(LippIndex::new(disk).expect("lipp init")),
            IndexChoice::HybridPla => Box::new(
                HybridIndex::new(
                    disk,
                    HybridConfig { inner: HybridInnerKind::Pla, ..Default::default() },
                )
                .expect("hybrid init"),
            ),
            IndexChoice::HybridModelTree => Box::new(
                HybridIndex::new(
                    disk,
                    HybridConfig { inner: HybridInnerKind::ModelTree, ..Default::default() },
                )
                .expect("hybrid init"),
            ),
        }
    }

    /// Reopens an index of this kind from its
    /// [`save_meta`](lidx_core::IndexWrite::save_meta) bytes over a durable
    /// disk that already holds its blocks. The per-design configurations
    /// mirror [`IndexChoice::build`] exactly, so a store written by `build`
    /// always reopens under the same choice.
    pub fn load(self, disk: Arc<Disk>, meta: &[u8]) -> lidx_core::IndexResult<Box<dyn DiskIndex>> {
        Ok(match self {
            IndexChoice::BTree => Box::new(BTreeIndex::load(disk, BTreeConfig::default(), meta)?),
            IndexChoice::Fiting => Box::new(FitingTree::load(
                disk,
                FitingConfig { epsilon: 64, buffer_entries: 256 },
                meta,
            )?),
            IndexChoice::Pgm => Box::new(PgmIndex::load(
                disk,
                PgmConfig { epsilon: 64, insert_run_entries: 585 },
                meta,
            )?),
            IndexChoice::Alex => Box::new(AlexIndex::load(disk, AlexConfig::default(), meta)?),
            IndexChoice::AlexLayout1 => Box::new(AlexIndex::load(
                disk,
                AlexConfig { layout: AlexLayout::SingleFile, ..Default::default() },
                meta,
            )?),
            IndexChoice::Lipp => Box::new(LippIndex::load(disk, LippConfig::default(), meta)?),
            IndexChoice::HybridPla => Box::new(HybridIndex::load(
                disk,
                HybridConfig { inner: HybridInnerKind::Pla, ..Default::default() },
                meta,
            )?),
            IndexChoice::HybridModelTree => Box::new(HybridIndex::load(
                disk,
                HybridConfig { inner: HybridInnerKind::ModelTree, ..Default::default() },
                meta,
            )?),
        })
    }
}

/// Storage configuration of one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Block size in bytes.
    pub block_size: usize,
    /// Device cost model.
    pub device: DeviceModel,
    /// Strict-LRU buffer pool capacity in blocks (0 = the paper's default
    /// of no buffer manager).
    pub buffer_blocks: usize,
    /// Treat inner-node and meta blocks as memory-resident (§6.2).
    pub memory_resident_inner: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            block_size: 4096,
            device: DeviceModel::hdd(),
            buffer_blocks: 0,
            memory_resident_inner: false,
        }
    }
}

impl RunConfig {
    /// Creates the disk described by this configuration.
    pub fn make_disk(&self) -> Arc<Disk> {
        let mut cfg = DiskConfig::with_block_size(self.block_size)
            .device(self.device)
            .buffer_blocks(self.buffer_blocks);
        if self.memory_resident_inner {
            cfg = cfg.memory_resident(&[BlockKind::Inner, BlockKind::Meta]);
        }
        Disk::in_memory(cfg)
    }
}

/// Everything measured while executing one workload on one index.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Index name.
    pub index: String,
    /// Number of operations executed.
    pub ops: u64,
    /// Simulated device seconds spent executing the operations (excludes the
    /// bulk load).
    pub device_seconds: f64,
    /// Simulated device seconds spent bulk loading.
    pub bulk_seconds: f64,
    /// Blocks written during bulk load.
    pub bulk_writes: u64,
    /// Average fetched (read) blocks per operation.
    pub avg_reads_per_op: f64,
    /// Average written blocks per operation.
    pub avg_writes_per_op: f64,
    /// Average inner-node blocks read per operation.
    pub avg_inner_reads_per_op: f64,
    /// Average leaf blocks read per operation.
    pub avg_leaf_reads_per_op: f64,
    /// Average utility blocks (bitmaps, buffers, LSM runs) read per
    /// operation.
    pub avg_utility_reads_per_op: f64,
    /// Per-operation latency summary derived from the device model.
    pub latency: LatencySummary,
    /// Total blocks occupied on disk after the workload (the §6.3 metric).
    pub storage_blocks: u64,
    /// Block size used, so storage can be reported in bytes.
    pub block_size: usize,
    /// Insert-step breakdown accumulated by the index.
    pub breakdown: InsertBreakdown,
    /// Structural statistics after the run.
    pub stats: lidx_core::IndexStats,
}

impl WorkloadReport {
    /// Operations per simulated second.
    pub fn throughput(&self) -> f64 {
        if self.device_seconds <= 0.0 {
            f64::INFINITY
        } else {
            self.ops as f64 / self.device_seconds
        }
    }

    /// Storage footprint in mebibytes.
    pub fn storage_mib(&self) -> f64 {
        self.storage_blocks as f64 * self.block_size as f64 / (1024.0 * 1024.0)
    }
}

/// Bulk loads `choice` over `workload.bulk` and executes `workload.ops`,
/// measuring everything the paper reports.
pub fn run_workload(
    choice: IndexChoice,
    config: &RunConfig,
    workload: &Workload,
) -> WorkloadReport {
    let disk = config.make_disk();
    let mut index = choice.build(Arc::clone(&disk));

    let bulk_before = disk.snapshot();
    index.bulk_load(&workload.bulk).expect("bulk load");
    let bulk_after = disk.snapshot();
    let bulk_delta = bulk_after.since(&bulk_before);
    let bulk_seconds = bulk_delta.device_ns as f64 / 1e9;
    let bulk_writes = bulk_delta.writes();

    // The evaluation measures steady-state query behaviour: statistics are
    // reset after the bulk load and each query starts from a cold access
    // state (no carry-over of the last fetched block between queries).
    disk.stats().reset();
    disk.clear_buffer();
    let mut latency = LatencyRecorder::with_capacity(workload.ops.len());
    let mut scan_buf = Vec::with_capacity(256);
    for op in &workload.ops {
        disk.reset_access_state();
        let before = disk.snapshot();
        match *op {
            Op::Lookup(k) => {
                index.lookup(k).expect("lookup");
            }
            Op::Insert(k, v) => {
                index.insert(k, v).expect("insert");
            }
            Op::Scan(k, len) => {
                index.scan(k, len, &mut scan_buf).expect("scan");
            }
        }
        let delta = disk.snapshot().since(&before);
        latency.record(delta.device_ns);
    }

    let stats = disk.stats();
    let ops = workload.ops.len() as u64;
    let storage_blocks = index.storage_blocks();
    WorkloadReport {
        index: index.name(),
        ops,
        device_seconds: stats.device_ns() as f64 / 1e9,
        bulk_seconds,
        bulk_writes,
        avg_reads_per_op: stats.reads() as f64 / ops.max(1) as f64,
        avg_writes_per_op: stats.writes() as f64 / ops.max(1) as f64,
        avg_inner_reads_per_op: stats.reads_of(BlockKind::Inner) as f64 / ops.max(1) as f64,
        avg_leaf_reads_per_op: stats.reads_of(BlockKind::Leaf) as f64 / ops.max(1) as f64,
        avg_utility_reads_per_op: stats.reads_of(BlockKind::Utility) as f64 / ops.max(1) as f64,
        latency: latency.summary(),
        storage_blocks,
        block_size: config.block_size,
        breakdown: index.insert_breakdown(),
        stats: index.stats(),
    }
}

/// How [`run_batch_insert`] feeds the workload's inserts to the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertMode {
    /// One [`IndexWrite::insert`] call per entry, in workload order — the
    /// paper's write path and the baseline the buffered mode is measured
    /// against.
    PerKey,
    /// A [`WriteBuffer`] front with the given configuration: entries are
    /// staged, overlaid on reads, and drained sorted through `insert_batch`
    /// (flushed at the end so the measurement covers every insert).
    Buffered(WriteBufferConfig),
}

/// Everything measured by one [`run_batch_insert`] phase: a Write-Only
/// workload executed per key or behind a group-commit [`WriteBuffer`].
#[derive(Debug, Clone)]
pub struct BatchInsertReport {
    /// Index name (with a `+wb` suffix when buffered).
    pub index: String,
    /// Inserts executed.
    pub inserts: u64,
    /// Simulated device seconds for the measured pass.
    pub device_seconds: f64,
    /// Device block writes during the measured pass.
    pub writes: u64,
    /// Insert-step breakdown accumulated during the pass (drain counters
    /// included for the buffered mode).
    pub breakdown: InsertBreakdown,
    /// Inserted keys that a post-pass lookup failed to find (sanity signal;
    /// must be zero).
    pub lost: u64,
}

impl BatchInsertReport {
    /// Simulated device nanoseconds per insert.
    pub fn device_ns_per_insert(&self) -> f64 {
        self.device_seconds * 1e9 / self.inserts.max(1) as f64
    }
}

/// Bulk loads `choice` over `workload.bulk`, then feeds the workload's
/// insert operations to the index in the given [`InsertMode`], measuring
/// simulated device time, block writes and the insert-step breakdown.
///
/// Both modes run under the same storage configuration and consume the same
/// insert stream, so the contrast isolates the insert *strategy*: per-key
/// cold inserts versus the staged, sorted group commit of a [`WriteBuffer`]
/// (which is flushed before the measurement ends, so no cost hides in the
/// buffer). After the measured pass every inserted key is looked up once
/// (unmeasured) and the misses are reported as `lost` — the phase checks
/// itself.
pub fn run_batch_insert(
    choice: IndexChoice,
    config: &RunConfig,
    workload: &Workload,
    mode: InsertMode,
) -> BatchInsertReport {
    let disk = config.make_disk();
    let mut index = choice.build(Arc::clone(&disk));
    index.bulk_load(&workload.bulk).expect("bulk load");

    let inserts: Vec<Entry> = workload
        .ops
        .iter()
        .filter_map(|op| match *op {
            Op::Insert(k, v) => Some((k, v)),
            _ => None,
        })
        .collect();
    assert!(!inserts.is_empty(), "batch_insert requires a workload with insert operations");

    disk.stats().reset();
    disk.clear_buffer();
    disk.reset_access_state();
    let breakdown_before = index.insert_breakdown();

    let (index, name, breakdown) = match mode {
        InsertMode::PerKey => {
            for &(k, v) in &inserts {
                index.insert(k, v).expect("insert");
            }
            let (name, breakdown) = (index.name(), index.insert_breakdown());
            (index, name, breakdown)
        }
        InsertMode::Buffered(cfg) => {
            let mut buffered = WriteBuffer::new(index, cfg);
            for &(k, v) in &inserts {
                buffered.insert(k, v).expect("buffered insert");
            }
            // Flush inside the measured window so no cost hides in the
            // buffer, then capture the exact drain counters before
            // unwrapping (`insert_breakdown` merges them in).
            buffered.flush().expect("final drain");
            let (name, breakdown) = (buffered.name(), buffered.insert_breakdown());
            (buffered.into_inner().expect("already flushed"), name, breakdown)
        }
    };
    let stats = disk.stats();
    let (device_seconds, writes) = (stats.device_ns() as f64 / 1e9, stats.writes());

    // Unmeasured sanity pass: every inserted key must now be findable.
    let mut answers = Vec::new();
    let keys: Vec<Key> = inserts.iter().map(|&(k, _)| k).collect();
    index.lookup_batch(&keys, &mut answers).expect("verify lookups");
    let lost = answers.iter().filter(|a| a.is_none()).count() as u64;

    BatchInsertReport {
        index: name,
        inserts: inserts.len() as u64,
        device_seconds,
        writes,
        breakdown: breakdown.since(&breakdown_before),
        lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_workloads::{Dataset, WorkloadKind, WorkloadSpec};

    #[test]
    fn every_index_runs_a_small_lookup_workload() {
        let keys = Dataset::Ycsb.generate_keys(5_000, 1);
        let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::LookupOnly, 200, 0));
        for choice in IndexChoice::ALL_DESIGNS {
            let r = run_workload(choice, &RunConfig::default(), &w);
            assert_eq!(r.ops, 200);
            assert!(r.avg_reads_per_op >= 1.0, "{choice:?} must read blocks for lookups");
            assert!(r.throughput().is_finite());
            assert!(r.storage_blocks > 0);
            assert_eq!(r.index, choice.build(RunConfig::default().make_disk()).name());
        }
    }

    #[test]
    fn every_index_runs_a_small_mixed_workload() {
        let keys = Dataset::Osm.generate_keys(4_000, 2);
        let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::Balanced, 400, 2_000));
        for choice in IndexChoice::EVALUATED {
            let r = run_workload(choice, &RunConfig::default(), &w);
            assert!(r.avg_writes_per_op > 0.0, "{choice:?} must write blocks for inserts");
            assert!(r.latency.p99_ns >= r.latency.p50_ns);
        }
    }

    #[test]
    fn memory_resident_inner_reduces_fetched_blocks() {
        let keys = Dataset::Fb.generate_keys(20_000, 3);
        let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::LookupOnly, 300, 0));
        let on_disk = run_workload(IndexChoice::BTree, &RunConfig::default(), &w);
        let hybrid_cfg = RunConfig { memory_resident_inner: true, ..Default::default() };
        let cached = run_workload(IndexChoice::BTree, &hybrid_cfg, &w);
        assert!(cached.avg_reads_per_op < on_disk.avg_reads_per_op);
        assert!(cached.avg_inner_reads_per_op < 0.01);
    }

    #[test]
    fn batch_insert_phase_runs_every_design_in_every_mode() {
        let keys = Dataset::Ycsb.generate_keys(6_000, 5);
        let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::WriteOnly, 300, 2_000));
        let cfg = RunConfig { buffer_blocks: 64, ..Default::default() };
        let wb = lidx_core::WriteBufferConfig { capacity: 128, drain: 64 };
        for choice in IndexChoice::ALL_DESIGNS {
            for mode in [InsertMode::PerKey, InsertMode::Buffered(wb)] {
                let r = run_batch_insert(choice, &cfg, &w, mode);
                assert_eq!(r.inserts, 300, "{choice:?} {mode:?}");
                assert_eq!(r.lost, 0, "{choice:?} {mode:?} must find every inserted key");
                assert_eq!(r.breakdown.inserts, 300, "{choice:?} {mode:?} breakdown coverage");
                assert!(r.writes > 0, "{choice:?} {mode:?} must write blocks");
                assert!(r.device_seconds > 0.0);
                match mode {
                    InsertMode::Buffered(_) => {
                        assert!(r.index.ends_with("+wb"), "{choice:?} buffered name: {}", r.index);
                        assert!(r.breakdown.drains >= 2, "{choice:?} expected multiple drains");
                        assert_eq!(r.breakdown.drained_entries, 300, "{choice:?}");
                    }
                    InsertMode::PerKey => assert_eq!(r.breakdown.drains, 0, "{choice:?}"),
                }
            }
        }
    }

    #[test]
    fn buffered_inserts_beat_per_key_and_narrow_the_pgm_gap() {
        // The write-side claim of DESIGN.md §3.4 (simulated device time is
        // deterministic, so this cannot flake): a 512/128 WriteBuffer front
        // must beat per-key inserts for every non-PGM design, and the mean
        // non-PGM insert cost relative to PGM's native LSM path — its
        // per-key path, the paper's configuration — must shrink under
        // batching (the Fig. 5 gap).
        let keys = Dataset::Ycsb.generate_keys(20_000, 42);
        let mut spec = WorkloadSpec::new(WorkloadKind::WriteOnly, 800, 8_000);
        spec.seed = 42;
        let w = Workload::build(&keys, spec);
        let cfg = RunConfig { buffer_blocks: 64, ..Default::default() };
        let wb = WriteBufferConfig { capacity: 512, drain: 128 };
        let mut pgm = 0.0;
        let (mut per_key_costs, mut buffered_costs) = (Vec::new(), Vec::new());
        for choice in IndexChoice::ALL_DESIGNS {
            let per_key = run_batch_insert(choice, &cfg, &w, InsertMode::PerKey);
            let buffered = run_batch_insert(choice, &cfg, &w, InsertMode::Buffered(wb));
            assert_eq!(per_key.lost, 0, "{choice:?} per-key lost keys");
            assert_eq!(buffered.lost, 0, "{choice:?} buffered lost keys");
            assert_eq!(per_key.inserts, buffered.inserts);
            assert!(buffered.breakdown.drains >= 1, "{choice:?} must actually drain");
            if choice == IndexChoice::Pgm {
                pgm = per_key.device_ns_per_insert();
                continue;
            }
            assert!(
                buffered.device_ns_per_insert() < per_key.device_ns_per_insert(),
                "{choice:?}: buffered inserts ({:.0} ns) must beat per-key ({:.0} ns)",
                buffered.device_ns_per_insert(),
                per_key.device_ns_per_insert()
            );
            per_key_costs.push(per_key.device_ns_per_insert());
            buffered_costs.push(buffered.device_ns_per_insert());
        }
        let gap = |costs: &[f64]| costs.iter().map(|c| c / pgm).sum::<f64>() / costs.len() as f64;
        let (gap_per_key, gap_buffered) = (gap(&per_key_costs), gap(&buffered_costs));
        assert!(
            gap_buffered < gap_per_key,
            "batching must narrow the PGM insert gap ({gap_per_key:.2}x -> {gap_buffered:.2}x)"
        );
    }

    #[test]
    fn scan_batch_matches_sequential_scans_for_every_design() {
        let keys = Dataset::Osm.generate_keys(4_000, 9);
        let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::LookupOnly, 1, 0));
        let ranges: Vec<(Key, usize)> = vec![
            (keys[100], 50),
            (0, 10),
            (keys[100], 50), // duplicate range
            (keys[keys.len() - 1] + 1, 5),
            (keys[2_000], 0),
        ];
        for choice in IndexChoice::ALL_DESIGNS {
            let disk = RunConfig::default().make_disk();
            let mut index = choice.build(disk);
            index.bulk_load(&w.bulk).expect("bulk load");
            let mut batched: Vec<Vec<lidx_core::Entry>> = Vec::new();
            index.scan_batch(&ranges, &mut batched).expect("scan_batch");
            assert_eq!(batched.len(), ranges.len(), "{choice:?}");
            let mut single = Vec::new();
            for (i, &(start, count)) in ranges.iter().enumerate() {
                index.scan(start, count, &mut single).expect("scan");
                assert_eq!(batched[i], single, "{choice:?} range {i} diverges");
            }
        }
    }

    #[test]
    fn index_choice_names_roundtrip() {
        for c in IndexChoice::ALL {
            assert_eq!(IndexChoice::from_name(c.name()), Some(c));
        }
        assert_eq!(IndexChoice::from_name("nope"), None);
    }
}
