//! Building indexes and executing workloads against them.

use std::sync::Arc;
use std::time::Instant;

use lidx_alex::{AlexConfig, AlexIndex, AlexLayout};
use lidx_btree::{BTreeConfig, BTreeIndex};
use lidx_core::{
    DiskIndex, Entry, IndexRead, IndexResult, IndexWrite, InsertBreakdown, Key, LatencyRecorder,
    LatencySummary, ShardedIndex, ShardedIndexConfig, ShardedWriteBuffer, ShardedWriteBufferConfig,
    Value, WriteBuffer, WriteBufferConfig,
};
use lidx_fiting::{FitingConfig, FitingTree};
use lidx_hybrid::{HybridConfig, HybridIndex, HybridInnerKind};
use lidx_lipp::{LippConfig, LippIndex};
use lidx_pgm::{PgmConfig, PgmIndex};
use lidx_storage::{
    BlockKind, DeviceModel, Disk, DiskConfig, OpClass, PoolPartitions, ReplacementPolicy,
    TelemetrySnapshot,
};
use lidx_workloads::{Op, ScrambledZipfian, Workload};

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
    /// This is the list the cross-index oracle suites and concurrency
    /// sweeps iterate, so a newly added design is picked up everywhere.
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
    /// Buffer pool capacity in blocks (0 = the paper's default of no
    /// buffer manager).
    pub buffer_blocks: usize,
    /// Buffer pool replacement policy (strict LRU by default; clock and the
    /// scan-resistant 2Q variant are the `scan_resistance` experiment's
    /// subjects).
    pub buffer_policy: ReplacementPolicy,
    /// Per-kind frame partitioning (unified by default;
    /// [`PoolPartitions::InnerReserved`] shields inner/meta frames from data
    /// scans).
    pub buffer_partitions: PoolPartitions,
    /// Treat inner-node and meta blocks as memory-resident (§6.2).
    pub memory_resident_inner: bool,
    /// Outstanding-read queue depth (1 = today's fully synchronous path;
    /// deeper queues let `lookup_batch`/readahead overlap a wave of misses,
    /// charging the max instead of the sum of the wave's device costs).
    pub queue_depth: usize,
    /// Realise the device cost model as actual blocking time (each charged
    /// read/write sleeps for its simulated latency, outside all locks). Used
    /// by the concurrent-read phases so N reader threads overlap their
    /// simulated I/O waits exactly like outstanding disk requests.
    pub simulate_device_latency: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            block_size: 4096,
            device: DeviceModel::hdd(),
            buffer_blocks: 0,
            buffer_policy: ReplacementPolicy::default(),
            buffer_partitions: PoolPartitions::default(),
            memory_resident_inner: false,
            queue_depth: 1,
            simulate_device_latency: false,
        }
    }
}

impl RunConfig {
    /// Creates the disk described by this configuration.
    pub fn make_disk(&self) -> Arc<Disk> {
        let mut cfg = DiskConfig::with_block_size(self.block_size)
            .device(self.device)
            .buffer_blocks(self.buffer_blocks)
            .buffer_policy(self.buffer_policy)
            .buffer_partitions(self.buffer_partitions)
            .queue_depth(self.queue_depth)
            .simulate_latency(self.simulate_device_latency);
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

/// Convenience used by a few experiments: the sorted key set of a workload's
/// bulk-load phase.
pub fn bulk_keys(workload: &Workload) -> Vec<Key> {
    workload.bulk.iter().map(|e| e.0).collect()
}

/// Everything measured by a [`run_par_lookup`] phase: N reader threads
/// sharing one bulk-loaded (frozen) index.
///
/// Unlike [`WorkloadReport`], throughput here is derived from *wall-clock*
/// time: the point of the phase is to observe how real reader threads
/// overlap, which simulated (purely counted) device time cannot express.
#[derive(Debug, Clone)]
pub struct ParLookupReport {
    /// Index name.
    pub index: String,
    /// Number of reader threads.
    pub threads: usize,
    /// Lookups per [`lidx_core::index::IndexRead::lookup_batch`] call
    /// (1 = per-key lookups).
    pub batch: usize,
    /// Total lookups executed across all threads.
    pub total_ops: u64,
    /// Wall-clock seconds from the first thread starting to the last one
    /// finishing.
    pub wall_seconds: f64,
    /// Lookups that returned `None` (sanity signal: lookup-only workloads
    /// draw their keys from the bulk load, so this should be zero).
    pub not_found: u64,
    /// Device blocks read during the phase.
    pub blocks_read: u64,
}

impl ParLookupReport {
    /// Aggregate lookups per wall-clock second across all threads.
    pub fn aggregate_ops_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            f64::INFINITY
        } else {
            self.total_ops as f64 / self.wall_seconds
        }
    }

    /// Average per-thread lookups per wall-clock second.
    pub fn per_thread_ops_per_sec(&self) -> f64 {
        self.aggregate_ops_per_sec() / self.threads.max(1) as f64
    }
}

/// Bulk loads `choice` over `workload.bulk`, freezes the index, then executes
/// the workload's lookup keys from `threads` concurrent reader threads
/// (round-robin partitioning), measuring wall-clock throughput.
///
/// This is the "N threads of lookups against a bulk-loaded index" phase from
/// the roadmap: the index is shared as `&dyn DiskIndex` — the `IndexRead`
/// half of the trait takes `&self` and is `Sync`, so no locking exists
/// outside the storage layer. Panics if the workload contains no lookups.
pub fn run_par_lookup(
    choice: IndexChoice,
    config: &RunConfig,
    workload: &Workload,
    threads: usize,
) -> ParLookupReport {
    run_par_lookup_batched(choice, config, workload, threads, 1)
}

/// Like [`run_par_lookup`], but each reader thread issues its keys through
/// [`lidx_core::index::IndexRead::lookup_batch`] in chunks of `batch`
/// (`batch <= 1` degenerates to per-key lookups). This is the parallel
/// harness for the batched read path: the same frozen-index sharing, with
/// per-thread batches amortising shared inner blocks and leaf decodes.
pub fn run_par_lookup_batched(
    choice: IndexChoice,
    config: &RunConfig,
    workload: &Workload,
    threads: usize,
    batch: usize,
) -> ParLookupReport {
    assert!(threads >= 1, "at least one reader thread is required");
    let disk = config.make_disk();
    let mut index = choice.build(Arc::clone(&disk));
    index.bulk_load(&workload.bulk).expect("bulk load");

    let keys: Vec<Key> = workload
        .ops
        .iter()
        .filter_map(|op| match *op {
            Op::Lookup(k) => Some(k),
            _ => None,
        })
        .collect();
    assert!(!keys.is_empty(), "par_lookup requires a workload with lookup operations");

    // Steady-state measurement, as in run_workload: reset counters and start
    // from a cold access state.
    disk.stats().reset();
    disk.clear_buffer();
    disk.reset_access_state();

    let shared: &dyn DiskIndex = &*index;
    let keys = &keys;
    let start = Instant::now();
    let not_found: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mine: Vec<Key> = keys.iter().skip(t).step_by(threads).copied().collect();
                    let mut misses = 0u64;
                    if batch <= 1 {
                        for &k in &mine {
                            if shared.lookup(k).expect("lookup").is_none() {
                                misses += 1;
                            }
                        }
                    } else {
                        let mut answers = Vec::with_capacity(batch);
                        for chunk in mine.chunks(batch) {
                            shared.lookup_batch(chunk, &mut answers).expect("lookup_batch");
                            misses += answers.iter().filter(|a| a.is_none()).count() as u64;
                        }
                    }
                    misses
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reader thread panicked")).sum()
    });
    let wall_seconds = start.elapsed().as_secs_f64();

    ParLookupReport {
        index: index.name(),
        threads,
        batch: batch.max(1),
        total_ops: keys.len() as u64,
        wall_seconds,
        not_found,
        blocks_read: disk.stats().reads(),
    }
}

/// Everything measured by one [`run_batch_lookup`] phase: a lookup-only
/// workload executed against a warm buffer pool, either per-key or through
/// [`lidx_core::index::IndexRead::lookup_batch`].
#[derive(Debug, Clone)]
pub struct BatchLookupReport {
    /// Index name.
    pub index: String,
    /// Lookups executed.
    pub ops: u64,
    /// Lookups per batch call (1 = sequential per-key lookups).
    pub batch: usize,
    /// Outstanding-read queue depth the run's disk was configured with.
    pub queue_depth: usize,
    /// Wall-clock seconds for the measured pass.
    pub wall_seconds: f64,
    /// Simulated device seconds for the measured pass.
    pub device_seconds: f64,
    /// Simulated device nanoseconds saved by overlapping completion waves
    /// (`sum - max` across every wave; 0 at queue depth 1).
    pub overlap_saved_ns: u64,
    /// Device block reads during the measured pass.
    pub reads: u64,
    /// Buffer-pool hits during the measured pass.
    pub buffer_hits: u64,
    /// Last-block reuse hits during the measured pass.
    pub reuse_hits: u64,
    /// Bytes copied into caller buffers (legacy path; 0 proves zero-copy).
    pub bytes_copied: u64,
    /// Pinned frames handed out.
    pub frames_pinned: u64,
    /// Lookups that returned `None` (should be 0: keys come from the bulk).
    pub not_found: u64,
    /// Stamp verifications that failed during the measured pass (0 on the
    /// in-memory experiment disks; non-zero only under fault injection).
    pub checksum_failures: u64,
    /// Transient read errors retried during the measured pass.
    pub io_retries: u64,
    /// WAL records appended during the measured pass (0: lookups never log).
    pub wal_appends: u64,
    /// Per-op-class telemetry for the measured pass: wall-clock lookup
    /// latencies (one sample per `lookup` / `lookup_batch` call) plus any
    /// pause classes the storage layer recorded (readahead waves, etc.).
    pub telemetry: TelemetrySnapshot,
}

impl BatchLookupReport {
    /// Wall-clock nanoseconds per lookup.
    pub fn wall_ns_per_op(&self) -> f64 {
        self.wall_seconds * 1e9 / self.ops.max(1) as f64
    }

    /// Device block reads per lookup.
    pub fn reads_per_op(&self) -> f64 {
        self.reads as f64 / self.ops.max(1) as f64
    }

    /// Fraction of served reads that hit the buffer pool (last-block reuse
    /// hits are reported separately by [`BatchLookupReport::reuse_hit_rate`]
    /// so pool-tuning comparisons are not polluted by the single-slot
    /// reuse cache).
    pub fn buffer_hit_rate(&self) -> f64 {
        let served = self.reads + self.buffer_hits + self.reuse_hits;
        if served == 0 {
            0.0
        } else {
            self.buffer_hits as f64 / served as f64
        }
    }

    /// Fraction of served reads that hit the single-slot last-block reuse
    /// cache (§6.5).
    pub fn reuse_hit_rate(&self) -> f64 {
        let served = self.reads + self.buffer_hits + self.reuse_hits;
        if served == 0 {
            0.0
        } else {
            self.reuse_hits as f64 / served as f64
        }
    }
}

/// Bulk loads `choice`, warms the buffer pool with one untimed pass over the
/// workload's lookup keys, then measures a second pass issued either per key
/// (`batch <= 1`) or through `lookup_batch` in chunks of `batch`.
///
/// The warm pass makes this a *buffer-hit* measurement: with the pool sized
/// to the working set, the measured pass isolates the per-lookup CPU and
/// copy overhead that the zero-copy `BlockRef` path eliminates — which is
/// exactly what `BENCH_lookup.json` tracks across PRs.
pub fn run_batch_lookup(
    choice: IndexChoice,
    config: &RunConfig,
    workload: &Workload,
    batch: usize,
) -> BatchLookupReport {
    let disk = config.make_disk();
    let mut index = choice.build(Arc::clone(&disk));
    index.bulk_load(&workload.bulk).expect("bulk load");

    let keys: Vec<Key> = workload
        .ops
        .iter()
        .filter_map(|op| match *op {
            Op::Lookup(k) => Some(k),
            _ => None,
        })
        .collect();
    assert!(!keys.is_empty(), "batch_lookup requires a workload with lookup operations");

    // Warm pass: populate the buffer pool, then reset the counters so the
    // measured pass reflects steady-state hit behaviour.
    for &k in &keys {
        index.lookup(k).expect("warm lookup");
    }
    disk.stats().reset();
    disk.telemetry().reset();
    disk.reset_access_state();

    let telemetry = disk.telemetry();
    let mut not_found = 0u64;
    let start = Instant::now();
    if batch <= 1 {
        for &k in &keys {
            let t0 = Instant::now();
            if index.lookup(k).expect("lookup").is_none() {
                not_found += 1;
            }
            telemetry.record_ns(OpClass::Lookup, t0.elapsed().as_nanos() as u64);
        }
    } else {
        let mut answers = Vec::with_capacity(batch);
        for chunk in keys.chunks(batch) {
            let t0 = Instant::now();
            index.lookup_batch(chunk, &mut answers).expect("lookup_batch");
            telemetry.record_ns(OpClass::Lookup, t0.elapsed().as_nanos() as u64);
            not_found += answers.iter().filter(|a| a.is_none()).count() as u64;
        }
    }
    let wall_seconds = start.elapsed().as_secs_f64();

    let stats = disk.stats();
    BatchLookupReport {
        index: index.name(),
        ops: keys.len() as u64,
        batch: batch.max(1),
        queue_depth: config.queue_depth.max(1),
        wall_seconds,
        device_seconds: stats.device_ns() as f64 / 1e9,
        overlap_saved_ns: stats.overlap_saved_ns(),
        reads: stats.reads(),
        buffer_hits: stats.buffer_hits(),
        reuse_hits: stats.reuse_hits(),
        bytes_copied: stats.bytes_copied(),
        frames_pinned: stats.frames_pinned(),
        not_found,
        checksum_failures: stats.checksum_failures(),
        io_retries: stats.io_retries(),
        wal_appends: stats.wal_appends(),
        telemetry: disk.telemetry().snapshot(),
    }
}

/// The outstanding-read queue depths the batched-lookup sweep measures:
/// depth 1 is today's fully synchronous path (the reproducibility anchor),
/// the rest show how overlapping a wave of misses collapses simulated I/O
/// time.
pub const QDEPTH_SWEEP: [usize; 4] = [1, 4, 8, 32];

/// Runs [`run_batch_lookup`] once per queue depth in `depths`, holding
/// everything else (index, workload, batch size, buffer pool) fixed. Each
/// depth gets its own freshly built disk and index, so depth 1 reproduces
/// the plain [`run_batch_lookup`] numbers bit for bit.
pub fn run_batch_lookup_qdepth_sweep(
    choice: IndexChoice,
    config: &RunConfig,
    workload: &Workload,
    batch: usize,
    depths: &[usize],
) -> Vec<BatchLookupReport> {
    depths
        .iter()
        .map(|&depth| {
            let cfg = RunConfig { queue_depth: depth, ..*config };
            run_batch_lookup(choice, &cfg, workload, batch)
        })
        .collect()
}

/// How [`run_batch_insert`] feeds the workload's inserts to the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertMode {
    /// One [`IndexWrite::insert`] call per entry, in workload order — the
    /// paper's write path and the baseline the batched modes are measured
    /// against.
    PerKey,
    /// [`IndexWrite::insert_batch`] over workload-order chunks of the given
    /// size (the caller batches; no staging, no reordering across chunks).
    Batch(usize),
    /// A [`WriteBuffer`] front with the given configuration: entries are
    /// staged, overlaid on reads, and drained sorted through `insert_batch`
    /// (flushed at the end so the measurement covers every insert).
    Buffered(WriteBufferConfig),
}

impl InsertMode {
    /// Short name used in report rows.
    pub fn name(&self) -> String {
        match self {
            InsertMode::PerKey => "per-key".to_string(),
            InsertMode::Batch(n) => format!("batch{n}"),
            InsertMode::Buffered(cfg) => format!("buffered{}", cfg.capacity),
        }
    }
}

/// Everything measured by one [`run_batch_insert`] phase: a Write-Only
/// workload executed per key, through `insert_batch`, or behind a
/// group-commit [`WriteBuffer`].
#[derive(Debug, Clone)]
pub struct BatchInsertReport {
    /// Index name (with a `+wb` suffix when buffered).
    pub index: String,
    /// How the inserts were issued.
    pub mode: String,
    /// Inserts executed.
    pub inserts: u64,
    /// Wall-clock seconds for the measured pass.
    pub wall_seconds: f64,
    /// Simulated device seconds for the measured pass.
    pub device_seconds: f64,
    /// Device block reads during the measured pass.
    pub reads: u64,
    /// Device block writes during the measured pass.
    pub writes: u64,
    /// Structural modification operations performed during the pass.
    pub smos: u64,
    /// Insert-step breakdown accumulated during the pass (drain counters
    /// included for the buffered mode).
    pub breakdown: InsertBreakdown,
    /// Inserted keys that a post-pass lookup failed to find (sanity signal;
    /// must be zero).
    pub lost: u64,
}

impl BatchInsertReport {
    /// Simulated device nanoseconds per insert — the deterministic metric
    /// `BENCH_write.json` tracks across PRs.
    pub fn device_ns_per_insert(&self) -> f64 {
        self.device_seconds * 1e9 / self.inserts.max(1) as f64
    }

    /// Device blocks (reads + writes) per insert.
    pub fn io_per_insert(&self) -> f64 {
        (self.reads + self.writes) as f64 / self.inserts.max(1) as f64
    }
}

/// Bulk loads `choice` over `workload.bulk`, then feeds the workload's
/// insert operations to the index in the given [`InsertMode`], measuring
/// simulated device time, I/O and SMO counts — the write-side mirror of
/// [`run_batch_lookup`].
///
/// All modes run under the same storage configuration and consume the same
/// insert stream, so the contrast isolates the insert *strategy*: per-key
/// cold inserts versus caller-batched `insert_batch` versus the staged,
/// sorted group commit of a [`WriteBuffer`] (which is flushed before the
/// measurement ends, so no cost hides in the buffer). After the measured
/// pass every inserted key is looked up once (unmeasured) and the misses
/// are reported as `lost` — the phase checks itself.
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
    let smos_before = index.stats().smo_count;

    let start = Instant::now();
    let (index, name) = match mode {
        InsertMode::PerKey => {
            for &(k, v) in &inserts {
                index.insert(k, v).expect("insert");
            }
            let name = index.name();
            (index, name)
        }
        InsertMode::Batch(batch) => {
            for chunk in inserts.chunks(batch.max(1)) {
                index.insert_batch(chunk).expect("insert_batch");
            }
            let name = index.name();
            (index, name)
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
            let name = buffered.name();
            let breakdown = buffered.insert_breakdown();
            let index = buffered.into_inner().expect("already flushed");
            let wall_seconds = start.elapsed().as_secs_f64();
            return finish_batch_insert_report(
                &disk,
                index,
                name,
                mode.name(),
                &inserts,
                wall_seconds,
                breakdown,
                breakdown_before,
                smos_before,
            );
        }
    };
    let wall_seconds = start.elapsed().as_secs_f64();
    let breakdown = index.insert_breakdown();
    finish_batch_insert_report(
        &disk,
        index,
        name,
        mode.name(),
        &inserts,
        wall_seconds,
        breakdown,
        breakdown_before,
        smos_before,
    )
}

/// Shared tail of [`run_batch_insert`]: collect the disk counters, diff the
/// breakdown, run the unmeasured self-check lookups and assemble the report.
#[allow(clippy::too_many_arguments)]
fn finish_batch_insert_report(
    disk: &Arc<Disk>,
    index: Box<dyn DiskIndex>,
    name: String,
    mode_name: String,
    inserts: &[Entry],
    wall_seconds: f64,
    breakdown: InsertBreakdown,
    breakdown_before: InsertBreakdown,
    smos_before: u64,
) -> BatchInsertReport {
    let stats = disk.stats();
    let device_seconds = stats.device_ns() as f64 / 1e9;
    let (reads, writes) = (stats.reads(), stats.writes());
    let delta = breakdown.since(&breakdown_before);
    let smos = index.stats().smo_count - smos_before;

    // Unmeasured sanity pass: every inserted key must now be findable.
    let mut answers = Vec::new();
    let keys: Vec<Key> = inserts.iter().map(|&(k, _)| k).collect();
    index.lookup_batch(&keys, &mut answers).expect("verify lookups");
    let lost = answers.iter().filter(|a| a.is_none()).count() as u64;

    BatchInsertReport {
        index: name,
        mode: mode_name,
        inserts: inserts.len() as u64,
        wall_seconds,
        device_seconds,
        reads,
        writes,
        smos,
        breakdown: delta,
        lost,
    }
}

/// The YCSB read/write mixes the concurrent mixed-workload sweep executes
/// (workload E/D variants are out of scope; A/B/C are the contention
/// spectrum: write-heavy, read-mostly, read-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbMix {
    /// YCSB-A: 50 % lookups / 50 % inserts.
    A,
    /// YCSB-B: 95 % lookups / 5 % inserts.
    B,
    /// YCSB-C: 100 % lookups.
    C,
}

impl YcsbMix {
    /// The three mixes in contention order.
    pub const ALL: [YcsbMix; 3] = [YcsbMix::A, YcsbMix::B, YcsbMix::C];

    /// Lowercase name used in report rows and `BENCH_mixed.json`.
    pub fn name(self) -> &'static str {
        match self {
            YcsbMix::A => "ycsb-a",
            YcsbMix::B => "ycsb-b",
            YcsbMix::C => "ycsb-c",
        }
    }

    /// Fraction of worker operations that are lookups.
    pub fn read_fraction(self) -> f64 {
        match self {
            YcsbMix::A => 0.50,
            YcsbMix::B => 0.95,
            YcsbMix::C => 1.00,
        }
    }
}

/// Everything measured by one [`run_mixed_workload`] phase: N worker threads
/// racing a YCSB mix against a background writer that stages and drains
/// through the same [`ShardedWriteBuffer`].
///
/// As with [`ParLookupReport`], throughput is wall-clock: the phase exists to
/// observe how reader threads overlap while drains take the index write lock
/// one chunk at a time.
#[derive(Debug, Clone)]
pub struct MixedWorkloadReport {
    /// Index name (with the `+rw+swb` suffixes of the concurrent front).
    pub index: String,
    /// Mix name (`ycsb-a` / `ycsb-b` / `ycsb-c`).
    pub mix: &'static str,
    /// Number of worker threads (the background writer is extra).
    pub threads: usize,
    /// Operations executed by the worker threads (lookups + staged inserts).
    pub total_ops: u64,
    /// Worker lookups executed.
    pub lookups: u64,
    /// Worker inserts staged.
    pub inserts: u64,
    /// Entries the background writer staged (and drained) during the
    /// measured window — proof the writer was active.
    pub writer_entries: u64,
    /// Wall-clock seconds from the first worker starting to the last one
    /// finishing.
    pub wall_seconds: f64,
    /// Worker lookups of bulk-loaded keys that returned `None` (must be 0:
    /// drains only ever add entries).
    pub not_found: u64,
    /// Exclusive drain chunks applied during the measured window.
    pub drain_chunks: u64,
    /// Entries those chunks carried.
    pub drained_entries: u64,
    /// Reader acquisitions that found the index write-locked mid-drain.
    pub read_stalls: u64,
    /// Writer acquisitions (stages and drains) that had to wait.
    pub write_stalls: u64,
    /// Staged keys a post-run lookup failed to find after the final flush
    /// (sanity signal; must be zero).
    pub lost: u64,
    /// Per-op-class telemetry: wall-clock worker lookup/insert latencies
    /// recorded by the phase plus every pause class the stack recorded on
    /// the shared disk (drains, SMOs, lock waits, readahead waves).
    pub telemetry: TelemetrySnapshot,
}

impl MixedWorkloadReport {
    /// Aggregate worker operations per wall-clock second.
    pub fn aggregate_ops_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            f64::INFINITY
        } else {
            self.total_ops as f64 / self.wall_seconds
        }
    }
}

/// The splitmix64 step: a tiny deterministic per-thread PRNG so worker
/// threads need no shared RNG state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps one [`splitmix64`] draw onto `[0, 1)` (its top 53 bits).
fn unit_interval(r: u64) -> f64 {
    (r >> 11) as f64 / ((1u64 << 53) as f64)
}

/// Bulk loads `choice`, wraps it in a [`ShardedWriteBuffer`] (shard
/// boundaries sampled from the full key population) and races `threads`
/// worker threads executing `ops_per_thread` operations of the given YCSB
/// `mix` against one background writer thread that continuously stages
/// chunks and flushes them — so even the read-only YCSB-C rows measure
/// readers overlapping an actively draining writer.
///
/// Lookups draw from the bulk-loaded keys (a miss is reported as
/// `not_found`); worker inserts consume disjoint per-thread slices of the
/// workload's insert pool, and the background writer cycles its own slice.
/// After the workers finish, the buffer is flushed and every staged key is
/// looked up once (unmeasured); misses are reported as `lost`.
pub fn run_mixed_workload(
    choice: IndexChoice,
    config: &RunConfig,
    workload: &Workload,
    mix: YcsbMix,
    threads: usize,
    ops_per_thread: usize,
    buffer: ShardedWriteBufferConfig,
) -> MixedWorkloadReport {
    let keys = workload.bulk.len() as u64;
    let phase = RacingPhase {
        threads,
        ops_per_thread,
        chunk: buffer.drain.max(1),
        read_fraction: mix.read_fraction(),
        pick: &|r, _| (r % keys) as usize,
    };
    let build = |sample: &[Key]| {
        let mut index = choice.build(config.make_disk());
        index.bulk_load(&workload.bulk).expect("bulk load");
        ShardedWriteBuffer::with_sampled_boundaries(index, buffer, sample)
    };
    let (swb, outcome, ()) = run_racing_phase(workload, &phase, build, |_, _| ());

    MixedWorkloadReport {
        index: swb.name(),
        mix: mix.name(),
        threads,
        total_ops: outcome.lookups + outcome.inserts,
        lookups: outcome.lookups,
        inserts: outcome.inserts,
        writer_entries: outcome.writer_entries,
        wall_seconds: outcome.wall_seconds,
        not_found: outcome.not_found,
        drain_chunks: outcome.stats.drain_chunks,
        drained_entries: outcome.stats.drain_entries,
        read_stalls: outcome.stats.read_stalls,
        write_stalls: outcome.stats.write_stalls,
        lost: outcome.lost,
        telemetry: outcome.telemetry,
    }
}

/// What the racing phase needs from a concurrent write front beyond
/// [`IndexRead`]: the `&self` write entry points both fronts expose under
/// the same names, and the disks its counters and telemetry live on.
trait RacingFront: IndexRead + Sync {
    fn stage(&self, key: Key, value: Value) -> IndexResult<()>;
    fn stage_batch(&self, entries: &[Entry]) -> IndexResult<()>;
    fn flush(&self) -> IndexResult<()>;
    /// Every live disk under the front, the accounting disk
    /// ([`IndexRead::disk`]) included.
    fn disks(&self) -> Vec<Arc<Disk>>;
}

impl<I: DiskIndex> RacingFront for ShardedWriteBuffer<I> {
    fn stage(&self, key: Key, value: Value) -> IndexResult<()> {
        ShardedWriteBuffer::stage(self, key, value)
    }
    fn stage_batch(&self, entries: &[Entry]) -> IndexResult<()> {
        ShardedWriteBuffer::stage_batch(self, entries)
    }
    fn flush(&self) -> IndexResult<()> {
        ShardedWriteBuffer::flush(self)
    }
    fn disks(&self) -> Vec<Arc<Disk>> {
        vec![Arc::clone(self.disk())]
    }
}

impl<I: DiskIndex> RacingFront for ShardedIndex<I> {
    fn stage(&self, key: Key, value: Value) -> IndexResult<()> {
        ShardedIndex::stage(self, key, value)
    }
    fn stage_batch(&self, entries: &[Entry]) -> IndexResult<()> {
        ShardedIndex::stage_batch(self, entries)
    }
    fn flush(&self) -> IndexResult<()> {
        ShardedIndex::flush(self)
    }
    fn disks(&self) -> Vec<Arc<Disk>> {
        let mut disks = self.shard_disks();
        disks.push(Arc::clone(self.disk()));
        disks
    }
}

/// The shape of one racing phase.
struct RacingPhase<'a> {
    threads: usize,
    ops_per_thread: usize,
    /// Entries the background writer stages between two flushes.
    chunk: usize,
    /// Fraction of worker operations that are lookups.
    read_fraction: f64,
    /// The read distribution: position in the bulk load of the key to look
    /// up, from one raw 64-bit draw and one unit-interval draw.
    pick: &'a (dyn Fn(u64, f64) -> usize + Sync),
}

/// What one racing phase measured, before it is shaped into a report.
struct RacingOutcome {
    wall_seconds: f64,
    lookups: u64,
    inserts: u64,
    not_found: u64,
    writer_entries: u64,
    lost: u64,
    /// Counters merged over every live disk of the front, after the final
    /// flush.
    stats: lidx_storage::OpStats,
    /// Telemetry merged over the same disks.
    telemetry: TelemetrySnapshot,
}

/// The racing phase behind [`run_mixed_workload`] and
/// [`run_sharded_serving`] (their docs describe what races what). `build`
/// wraps the bulk-loaded index — or indexes — in the front under test, given
/// the sorted full key population to place shard boundaries on. Worker
/// inserts consume disjoint per-thread slices of the head of the workload's
/// insert pool; the writer cycles the tail third (re-staging is an upsert).
/// Worker op latencies are recorded from inside the racing threads on the
/// front's accounting disk. `coordinate` runs on the calling thread while
/// the workers race, handed the count of worker operations completed so far.
fn run_racing_phase<F: RacingFront, T>(
    workload: &Workload,
    phase: &RacingPhase<'_>,
    build: impl FnOnce(&[Key]) -> F,
    coordinate: impl FnOnce(&F, &std::sync::atomic::AtomicU64) -> T,
) -> (F, RacingOutcome, T) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let threads = phase.threads;
    assert!(threads >= 1, "at least one worker thread is required");
    let bulk = &workload.bulk;
    assert!(!bulk.is_empty(), "a racing phase needs a non-empty bulk load");
    let pool: Vec<Entry> = workload
        .ops
        .iter()
        .filter_map(|op| match *op {
            Op::Insert(k, v) => Some((k, v)),
            _ => None,
        })
        .collect();
    assert!(!pool.is_empty(), "a racing phase needs insert operations (the writer's fuel)");
    let writer_start = pool.len() - pool.len() / 3;
    let (worker_pool, writer_pool) = pool.split_at(writer_start.min(pool.len() - 1).max(1));

    let mut sample: Vec<Key> = bulk.iter().chain(&pool).map(|e| e.0).collect();
    sample.sort_unstable();
    let built = build(&sample);
    let front = &built;
    for disk in front.disks() {
        disk.stats().reset();
        disk.telemetry().reset();
        disk.clear_buffer();
        disk.reset_access_state();
    }

    let telemetry = front.disk().telemetry();
    let stop = &AtomicBool::new(false);
    let ops_done = &AtomicU64::new(0);
    let (wall_seconds, results, writer_entries, coordinated) = std::thread::scope(|s| {
        let writer = s.spawn(move || {
            // `stop` is read after a chunk, not before it: the scheduler may
            // not run this thread until the workers are done, and a phase
            // must still have writer entries and a drain to report.
            let mut staged = 0u64;
            'outer: loop {
                for c in writer_pool.chunks(phase.chunk) {
                    front.stage_batch(c).expect("writer stage");
                    front.flush().expect("writer drain");
                    staged += c.len() as u64;
                    if stop.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                }
            }
            staged
        });

        let start = Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mine: Vec<Entry> =
                        worker_pool.iter().skip(t).step_by(threads).copied().collect();
                    let mut rng = 0x5EED_0000u64 + t as u64;
                    let (mut lookups, mut inserts, mut misses) = (0u64, 0u64, 0u64);
                    let mut next = 0usize;
                    for _ in 0..phase.ops_per_thread {
                        let r = splitmix64(&mut rng);
                        let u = unit_interval(r);
                        if mine.is_empty() || u < phase.read_fraction {
                            let key = bulk[(phase.pick)(r, u / phase.read_fraction)].0;
                            let t0 = Instant::now();
                            if front.lookup(key).expect("lookup").is_none() {
                                misses += 1;
                            }
                            telemetry.record_ns(OpClass::Lookup, t0.elapsed().as_nanos() as u64);
                            lookups += 1;
                        } else {
                            let (k, v) = mine[next % mine.len()];
                            let t0 = Instant::now();
                            front.stage(k, v).expect("stage");
                            telemetry.record_ns(OpClass::Insert, t0.elapsed().as_nanos() as u64);
                            next += 1;
                            inserts += 1;
                        }
                        ops_done.fetch_add(1, Ordering::Relaxed);
                    }
                    (lookups, inserts, misses, next.min(mine.len()))
                })
            })
            .collect();

        let coordinated = coordinate(front, ops_done);

        let results: Vec<(u64, u64, u64, usize)> =
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect();
        let wall = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let writer_entries = writer.join().expect("writer panicked");
        (wall, results, writer_entries, coordinated)
    });

    front.flush().expect("final flush");
    let disks = front.disks();
    let stats = disks
        .iter()
        .map(|d| d.snapshot())
        .reduce(|total, d| total.merge(&d))
        .expect("a front has at least one disk");
    let merged = lidx_storage::TelemetryRegistry::new();
    for disk in &disks {
        merged.merge_from(disk.telemetry());
    }

    // Unmeasured self-check: every key any thread staged must be findable
    // after the drains (and, behind a router, the splits) it raced.
    let mut verify: Vec<Key> = Vec::new();
    for (t, r) in results.iter().enumerate() {
        verify.extend(worker_pool.iter().skip(t).step_by(threads).take(r.3).map(|&(k, _)| k));
    }
    let writer_staged = (writer_entries as usize).min(writer_pool.len());
    verify.extend(writer_pool.iter().take(writer_staged).map(|&(k, _)| k));
    let mut answers = Vec::new();
    front.lookup_batch(&verify, &mut answers).expect("verify lookups");

    let outcome = RacingOutcome {
        wall_seconds,
        lookups: results.iter().map(|r| r.0).sum(),
        inserts: results.iter().map(|r| r.1).sum(),
        not_found: results.iter().map(|r| r.2).sum(),
        writer_entries,
        lost: answers.iter().filter(|a| a.is_none()).count() as u64,
        stats,
        telemetry: merged.snapshot(),
    };
    (built, outcome, coordinated)
}

/// Key distribution the sharded-serving phase draws its read stream from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Every bulk-loaded key equally likely.
    Uniform,
    /// Scrambled zipfian (YCSB theta = 0.99): a few hot keys absorb most
    /// of the traffic, scattered uniformly over the keyspace.
    Zipfian,
}

impl KeyDist {
    /// Both distributions, skewed first (the interesting one).
    pub const ALL: [KeyDist; 2] = [KeyDist::Zipfian, KeyDist::Uniform];

    /// Lowercase name used in report rows and `BENCH_sharded.json`.
    pub fn name(self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipfian => "zipfian",
        }
    }
}

/// Everything measured by one [`run_sharded_serving`] phase: N worker
/// threads serving a read-mostly stream against a [`ShardedIndex`] while a
/// background writer continuously stages and drains, optionally with one
/// online hot-shard split racing the workload.
///
/// Throughput is wall-clock, as in [`MixedWorkloadReport`]: the phase
/// exists to observe how per-shard write fronts confine drain stalls to
/// one key range while a single-shard router serialises every reader
/// behind every drain chunk.
#[derive(Debug, Clone)]
pub struct ShardedServingReport {
    /// Router name (`<inner>+rw+swb+shardedN`).
    pub index: String,
    /// Read-key distribution (`zipfian` / `uniform`).
    pub dist: &'static str,
    /// Shard count the router was built with.
    pub shards_initial: usize,
    /// Shard count after the run (differs when the online split fired).
    pub shards_final: usize,
    /// Number of worker threads (the background writer is extra).
    pub threads: usize,
    /// Operations executed by the worker threads.
    pub total_ops: u64,
    /// Worker lookups executed.
    pub lookups: u64,
    /// Worker inserts staged.
    pub inserts: u64,
    /// Entries the background writer staged during the measured window.
    pub writer_entries: u64,
    /// Wall-clock seconds from the first worker starting to the last one
    /// finishing.
    pub wall_seconds: f64,
    /// Worker lookups of bulk-loaded keys that returned `None` (must be
    /// 0; a split/merge never drops an entry).
    pub not_found: u64,
    /// Exclusive drain chunks applied across all live shard disks.
    pub drain_chunks: u64,
    /// Reader stalls summed across all live shard disks and the router.
    pub read_stalls: u64,
    /// Writer stalls summed across all live shard disks and the router.
    pub write_stalls: u64,
    /// Online splits executed during the run.
    pub splits: u64,
    /// True when the split fired while workers still had operations in
    /// flight (the "online" claim; false when the run was too short).
    pub split_overlapped: bool,
    /// Staged keys a post-run lookup failed to find after the final flush
    /// (the rebalance-race oracle; must be zero).
    pub lost: u64,
    /// Per-op-class telemetry merged across the router and every live shard
    /// disk: wall-clock worker lookup/insert latencies (recorded on the
    /// router disk) plus drain/SMO/rebalance/lock/wave pauses from the
    /// shards.
    pub telemetry: TelemetrySnapshot,
}

impl ShardedServingReport {
    /// Aggregate worker operations per wall-clock second.
    pub fn aggregate_ops_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            f64::INFINITY
        } else {
            self.total_ops as f64 / self.wall_seconds
        }
    }
}

/// Bulk loads `choice` behind a [`ShardedIndex`] with `shards` shards
/// (boundaries sampled from the full key population, one fresh [`Disk`]
/// per shard) and races `threads` worker threads — 95 % lookups drawn
/// from `dist`, 5 % staged inserts — against one background writer that
/// continuously stages chunks and flushes them through every shard's
/// drain path.
///
/// With `split_hot` set (and more than one shard), once a quarter of the
/// worker operations have completed the hottest shard — measured by
/// routing a sample of the read distribution — is split online at its
/// median while the workload keeps racing. After the workers finish, the
/// router is flushed and every staged key is looked up once (unmeasured);
/// misses are reported as `lost` — zero proves the split moved every
/// entry and routed every racing write.
#[allow(clippy::too_many_arguments)]
pub fn run_sharded_serving(
    choice: IndexChoice,
    config: &RunConfig,
    workload: &Workload,
    dist: KeyDist,
    shards: usize,
    threads: usize,
    ops_per_thread: usize,
    buffer: ShardedWriteBufferConfig,
    split_hot: bool,
) -> ShardedServingReport {
    assert!(shards >= 1, "at least one shard is required");
    let bulk = &workload.bulk;
    let zipf = ScrambledZipfian::new(bulk.len(), 0.99);
    let pick = |r: u64, u: f64| match dist {
        KeyDist::Uniform => (r % bulk.len() as u64) as usize,
        KeyDist::Zipfian => zipf.position(u),
    };
    let phase = RacingPhase {
        threads,
        ops_per_thread,
        chunk: buffer.drain.max(1),
        read_fraction: 0.95,
        pick: &pick,
    };
    let build = |sample: &[Key]| {
        let run_config = *config;
        let factory = move || Ok(choice.build(run_config.make_disk()));
        let router_config = ShardedIndexConfig { shards, buffer };
        let mut router =
            ShardedIndex::with_sampled_boundaries(Box::new(factory), router_config, sample)
                .expect("build router");
        router.bulk_load(bulk).expect("bulk load");
        router
    };
    let total_expected = (threads * ops_per_thread) as u64;

    // The coordinator: once a quarter of the operations have landed, split
    // the hottest shard — measured by routing a sample of the read
    // distribution — while the workload keeps racing.
    let coordinate = |router: &ShardedIndex<_>, done: &std::sync::atomic::AtomicU64| {
        use std::sync::atomic::Ordering;
        if !split_hot || router.shard_count() <= 1 {
            return (0u64, false);
        }
        while done.load(Ordering::Relaxed) < total_expected / 4 {
            std::thread::yield_now();
        }
        let mut heat = vec![0u64; router.shard_count()];
        let mut rng = 0xD15Eu64;
        for _ in 0..4096 {
            let r = splitmix64(&mut rng);
            let u = unit_interval(r);
            let s = router.shard_of(bulk[pick(r, u)].0);
            if s < heat.len() {
                heat[s] += 1;
            }
        }
        let hot = heat.iter().enumerate().max_by_key(|&(_, &h)| h).map(|(s, _)| s).unwrap_or(0);
        router.split_shard(hot, None).expect("online split");
        (router.splits(), done.load(Ordering::Relaxed) < total_expected)
    };
    let (router, outcome, (splits, split_overlapped)) =
        run_racing_phase(workload, &phase, build, coordinate);

    ShardedServingReport {
        index: router.name(),
        dist: dist.name(),
        shards_initial: shards,
        shards_final: router.shard_count(),
        threads,
        total_ops: outcome.lookups + outcome.inserts,
        lookups: outcome.lookups,
        inserts: outcome.inserts,
        writer_entries: outcome.writer_entries,
        wall_seconds: outcome.wall_seconds,
        not_found: outcome.not_found,
        drain_chunks: outcome.stats.drain_chunks,
        read_stalls: outcome.stats.read_stalls,
        write_stalls: outcome.stats.write_stalls,
        splits,
        split_overlapped,
        lost: outcome.lost,
        telemetry: outcome.telemetry,
    }
}

/// Everything measured by one [`run_scan_interference`] phase: the
/// hot-lookup pool hit rate before and while a full-table scan streams.
#[derive(Debug, Clone)]
pub struct ScanInterferenceReport {
    /// Index name.
    pub index: String,
    /// Buffer pool replacement policy used.
    pub policy: ReplacementPolicy,
    /// Buffer pool partitioning used.
    pub partitions: PoolPartitions,
    /// Number of hot keys probed per round.
    pub hot_keys: usize,
    /// Pool hit rate of a hot-lookup pass with no scan running (after the
    /// warm-up passes). Hit rates count buffer-pool hits over pool hits plus
    /// device reads; single-slot last-block reuse hits (§6.5) are excluded
    /// so the metric isolates replacement behaviour.
    pub baseline_hit_rate: f64,
    /// Pool hit rate of the hot-lookup passes interleaved with the scan
    /// chunks (averaged over every round).
    pub under_scan_hit_rate: f64,
    /// Entries produced by the interfering full-table scan.
    pub scanned_entries: u64,
    /// Read requests the scan tagged as scan-class (proof the scan
    /// announced itself to the pool).
    pub scan_reads: u64,
    /// Device reads of inner-node blocks during the measured hot rounds —
    /// i.e. how often the scan managed to evict the descent path. Zero when
    /// [`PoolPartitions::InnerReserved`] does its job.
    pub under_scan_inner_reads: u64,
}

impl ScanInterferenceReport {
    /// How many percentage points of hit rate the scan cost the hot lookups
    /// (positive = degradation; ~0 = scan-resistant).
    pub fn degradation_points(&self) -> f64 {
        (self.baseline_hit_rate - self.under_scan_hit_rate) * 100.0
    }
}

/// Bulk loads `choice`, promotes a strided hot-lookup working set into the
/// buffer pool, measures its no-scan pool hit rate, then interleaves hot
/// rounds with a chunked full-table scan (issued through
/// [`lidx_core::index::IndexRead::scan_batch`], whose block reads the
/// indexes tag scan-class) and measures the hit rate again.
///
/// This is the roadmap's scan-resistance experiment: under strict LRU each
/// scan chunk flushes the pool and the hot hit rate collapses, while the 2Q
/// policy confines the stream to its probation queue and the hot (protected)
/// set keeps hitting — the numbers `BENCH_scan.json` snapshots.
///
/// The hot keys are taken at a uniform stride over the bulk-loaded keys so
/// each probe lands in a distinct leaf; `config.buffer_blocks` should
/// comfortably exceed that working set (hot leaves plus the inner path) and
/// be far smaller than the table, or the experiment degenerates.
pub fn run_scan_interference(
    choice: IndexChoice,
    config: &RunConfig,
    workload: &Workload,
    hot_keys: usize,
) -> ScanInterferenceReport {
    assert!(config.buffer_blocks > 0, "scan interference needs a buffer pool");
    let disk = config.make_disk();
    let mut index = choice.build(Arc::clone(&disk));
    index.bulk_load(&workload.bulk).expect("bulk load");
    let bulk: Vec<Key> = workload.bulk.iter().map(|e| e.0).collect();
    assert!(!bulk.is_empty(), "scan interference needs a non-empty bulk load");

    let hot_keys = hot_keys.clamp(1, bulk.len());
    let stride = (bulk.len() / hot_keys).max(1);
    let hot: Vec<Key> = bulk.iter().step_by(stride).take(hot_keys).copied().collect();

    disk.stats().reset();
    disk.clear_buffer();
    disk.reset_access_state();

    // One hot pass; returns (pool hits, pool hits + device reads, device
    // reads of inner blocks). Last-block reuse hits are excluded on both
    // sides: the single-slot §6.5 cache serves same-block request bursts
    // regardless of the pool policy (the hybrid inner directory issues
    // dozens per lookup), and counting them would dilute exactly the
    // pool-replacement behaviour this experiment isolates.
    let hot_pass = |index: &dyn DiskIndex| -> (u64, u64, u64) {
        disk.reset_access_state();
        let before = disk.snapshot();
        for &k in &hot {
            index.lookup(k).expect("hot lookup");
        }
        let delta = disk.snapshot().since(&before);
        (
            delta.buffer_hits,
            delta.reads() + delta.buffer_hits,
            delta.reads_of(BlockKind::Inner) + delta.reads_of(BlockKind::Meta),
        )
    };
    let rate = |(hits, served, _): (u64, u64, u64)| hits as f64 / served.max(1) as f64;

    // Two warm passes: the first admits the hot working set, the second
    // re-references it (which is what promotes it under 2Q / sets the CLOCK
    // bits), then the measured no-scan baseline.
    hot_pass(&*index);
    hot_pass(&*index);
    let baseline_hit_rate = rate(hot_pass(&*index));

    // Interference: each round streams one full-table Scan-Only pass (split
    // in two halves to exercise the multi-range `scan_batch` path) and then
    // measures one hot round. At experiment scale the table is several times
    // the pool, so under LRU every scan pass flushes the hot set.
    const ROUNDS: usize = 4;
    let half = bulk.len().div_ceil(2);
    let mid_key = bulk[half.min(bulk.len() - 1)];
    let ranges = [(bulk[0], half), (mid_key, bulk.len() - half)];
    let mut rows: Vec<Vec<lidx_core::Entry>> = Vec::new();
    let mut scanned_entries = 0u64;
    let scan_reads_before = disk.stats().scan_reads();
    let (mut hits, mut served, mut inner_reads) = (0u64, 0u64, 0u64);
    for _ in 0..ROUNDS {
        index.scan_batch(&ranges, &mut rows).expect("scan pass");
        scanned_entries += rows.iter().map(|r| r.len() as u64).sum::<u64>();
        let (h, s, i) = hot_pass(&*index);
        hits += h;
        served += s;
        inner_reads += i;
    }
    let scan_reads = disk.stats().scan_reads() - scan_reads_before;

    ScanInterferenceReport {
        index: index.name(),
        policy: config.buffer_policy,
        partitions: config.buffer_partitions,
        hot_keys,
        baseline_hit_rate,
        under_scan_hit_rate: hits as f64 / served.max(1) as f64,
        scanned_entries,
        scan_reads,
        under_scan_inner_reads: inner_reads,
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
    fn par_lookup_runs_every_index_with_multiple_threads() {
        let keys = Dataset::Ycsb.generate_keys(4_000, 3);
        let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::LookupOnly, 256, 0));
        for choice in IndexChoice::ALL_DESIGNS {
            let r = run_par_lookup(choice, &RunConfig::default(), &w, 4);
            assert_eq!(r.threads, 4);
            assert_eq!(r.total_ops, 256, "{choice:?} must execute every lookup");
            assert_eq!(r.not_found, 0, "{choice:?} lookup keys come from the bulk load");
            assert!(r.blocks_read > 0, "{choice:?} must fetch blocks");
            assert!(r.aggregate_ops_per_sec() > 0.0);
            assert!(r.per_thread_ops_per_sec() <= r.aggregate_ops_per_sec());
        }
    }

    #[test]
    fn batched_par_lookup_covers_every_key() {
        let keys = Dataset::Ycsb.generate_keys(4_000, 3);
        let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::LookupOnly, 256, 0));
        for choice in [IndexChoice::BTree, IndexChoice::Pgm, IndexChoice::HybridModelTree] {
            let r = run_par_lookup_batched(choice, &RunConfig::default(), &w, 3, 16);
            assert_eq!(r.total_ops, 256, "{choice:?} must execute every lookup");
            assert_eq!(r.not_found, 0, "{choice:?} lookup keys come from the bulk load");
            assert_eq!(r.batch, 16);
            assert!(r.blocks_read > 0);
        }
    }

    #[test]
    fn mixed_workload_phase_loses_nothing_for_every_design() {
        let keys = Dataset::Ycsb.generate_keys(6_000, 13);
        let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::Balanced, 2_000, 3_000));
        let buffer = ShardedWriteBufferConfig { capacity: 256, drain: 64, shards: 4 };
        for choice in IndexChoice::ALL_DESIGNS {
            for mix in YcsbMix::ALL {
                let r = run_mixed_workload(choice, &RunConfig::default(), &w, mix, 2, 150, buffer);
                assert_eq!(r.total_ops, 300, "{choice:?} {mix:?}");
                assert_eq!(r.lookups + r.inserts, r.total_ops);
                assert_eq!(r.not_found, 0, "{choice:?} {mix:?} bulk keys must stay visible");
                assert_eq!(r.lost, 0, "{choice:?} {mix:?} staged keys must survive the race");
                assert!(r.writer_entries > 0, "{choice:?} {mix:?} writer must stage entries");
                assert!(r.drain_chunks > 0, "{choice:?} {mix:?} writer must drain exclusively");
                assert!(r.drained_entries >= r.writer_entries.min(64));
                assert!(r.index.ends_with("+rw+swb"), "{choice:?} name: {}", r.index);
                assert!(r.aggregate_ops_per_sec() > 0.0);
                let lk = r.telemetry.class(OpClass::Lookup);
                assert_eq!(lk.summary.count, r.lookups, "{choice:?} {mix:?} lookup samples");
                let drain = r.telemetry.class(OpClass::Drain);
                assert!(drain.summary.count > 0, "{choice:?} {mix:?} drains must be timed");
                assert!(
                    r.telemetry.top_pauses(3).iter().any(|c| c.class == OpClass::Drain),
                    "{choice:?} {mix:?} drain must rank among the top pauses"
                );
                if mix == YcsbMix::C {
                    assert_eq!(r.inserts, 0, "{choice:?} YCSB-C workers are read-only");
                } else {
                    let ins = r.telemetry.class(OpClass::Insert);
                    assert_eq!(ins.summary.count, r.inserts, "{choice:?} {mix:?} insert samples");
                }
            }
        }
    }

    #[test]
    fn one_racing_driver_serves_both_fronts() {
        let keys = Dataset::Ycsb.generate_keys(3_000, 21);
        let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::Balanced, 600, 1_500));
        let buffer = ShardedWriteBufferConfig { capacity: 64, drain: 16, shards: 2 };
        let population = w.bulk.len() as u64;
        let phase = RacingPhase {
            threads: 2,
            ops_per_thread: 120,
            chunk: 16,
            read_fraction: 0.5,
            pick: &|r, _| (r % population) as usize,
        };
        let check = |front: &str, o: RacingOutcome| {
            assert_eq!(o.lost, 0, "{front}: staged keys must survive the race");
            assert_eq!(o.not_found, 0, "{front}: bulk keys must stay visible");
            assert_eq!(o.lookups + o.inserts, 240, "{front}: every worker op is counted");
            assert!(o.inserts > 0 && o.writer_entries > 0, "{front}: both write sources ran");
            let (lk, ins) =
                (o.telemetry.class(OpClass::Lookup), o.telemetry.class(OpClass::Insert));
            assert_eq!(lk.summary.count, o.lookups, "{front}: one lookup sample per lookup");
            assert_eq!(ins.summary.count, o.inserts, "{front}: one insert sample per stage");
            assert!(o.stats.drain_entries >= o.writer_entries.min(16), "{front}: drains counted");
        };

        let swb = |sample: &[Key]| {
            let mut index = IndexChoice::BTree.build(RunConfig::default().make_disk());
            index.bulk_load(&w.bulk).expect("bulk load");
            ShardedWriteBuffer::with_sampled_boundaries(index, buffer, sample)
        };
        let (_, outcome, ()) = run_racing_phase(&w, &phase, swb, |_, _| ());
        check("swb", outcome);

        let router = |sample: &[Key]| {
            let factory = || Ok(IndexChoice::BTree.build(RunConfig::default().make_disk()));
            let config = ShardedIndexConfig { shards: 2, buffer };
            let mut router =
                ShardedIndex::with_sampled_boundaries(Box::new(factory), config, sample).unwrap();
            router.bulk_load(&w.bulk).expect("bulk load");
            router
        };
        let (router, outcome, ()) = run_racing_phase(&w, &phase, router, |_, _| ());
        assert_eq!(router.shard_count(), 2);
        check("router", outcome);
    }

    #[test]
    fn batch_lookup_phase_is_zero_copy_and_batching_reduces_reads() {
        let keys = Dataset::Ycsb.generate_keys(8_000, 5);
        let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::LookupOnly, 400, 0));
        let cfg = RunConfig { buffer_blocks: 64, ..Default::default() };
        for choice in [IndexChoice::BTree, IndexChoice::Pgm] {
            let seq = run_batch_lookup(choice, &cfg, &w, 1);
            let bat = run_batch_lookup(choice, &cfg, &w, 64);
            assert_eq!(seq.ops, 400);
            assert_eq!(seq.not_found, 0, "{choice:?}");
            assert_eq!(bat.not_found, 0, "{choice:?}");
            assert_eq!(seq.bytes_copied, 0, "{choice:?} lookups must be zero-copy");
            assert_eq!(bat.bytes_copied, 0, "{choice:?} batched lookups must be zero-copy");
            assert!(seq.frames_pinned > 0, "{choice:?} must pin frames");
            assert!(
                bat.reads <= seq.reads,
                "{choice:?} batching must not fetch more blocks ({} vs {})",
                bat.reads,
                seq.reads
            );
            assert!(seq.buffer_hit_rate() > 0.0, "{choice:?} warm pool must produce hits");
            let lk = seq.telemetry.class(OpClass::Lookup);
            assert_eq!(lk.summary.count, seq.ops, "{choice:?} one lookup sample per op");
            assert!(
                lk.summary.p50_ns <= lk.summary.p999_ns && lk.summary.p999_ns <= lk.summary.max_ns,
                "{choice:?} lookup percentiles must be ordered: {:?}",
                lk.summary
            );
        }
    }

    #[test]
    fn qdepth_sweep_overlaps_simulated_io_for_every_design() {
        let keys = Dataset::Ycsb.generate_keys(20_000, 7);
        let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::LookupOnly, 512, 0));
        let cfg = RunConfig { buffer_blocks: 64, ..Default::default() };
        for choice in IndexChoice::ALL_DESIGNS {
            let sweep = run_batch_lookup_qdepth_sweep(choice, &cfg, &w, 64, &[1, 8]);
            let (d1, d8) = (&sweep[0], &sweep[1]);
            assert_eq!(d1.queue_depth, 1);
            assert_eq!(d8.queue_depth, 8);
            assert_eq!(d1.not_found, 0, "{choice:?} keys come from the bulk load");
            assert_eq!(d8.not_found, 0, "{choice:?} queued answers must match");
            assert_eq!(d1.overlap_saved_ns, 0, "{choice:?} depth 1 must stay synchronous");
            assert!(d8.overlap_saved_ns > 0, "{choice:?} depth 8 must overlap waves");
            assert!(
                d8.device_seconds < d1.device_seconds,
                "{choice:?} outstanding reads must cut simulated I/O ({} vs {})",
                d8.device_seconds,
                d1.device_seconds
            );
        }
    }

    #[test]
    fn batch_insert_phase_runs_every_design_in_every_mode() {
        let keys = Dataset::Ycsb.generate_keys(6_000, 5);
        let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::WriteOnly, 300, 2_000));
        let cfg = RunConfig { buffer_blocks: 64, ..Default::default() };
        let wb = lidx_core::WriteBufferConfig { capacity: 128, drain: 64 };
        for choice in IndexChoice::ALL_DESIGNS {
            for mode in [InsertMode::PerKey, InsertMode::Batch(32), InsertMode::Buffered(wb)] {
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
                    _ => assert_eq!(r.breakdown.drains, 0, "{choice:?} {mode:?}"),
                }
            }
        }
    }

    #[test]
    fn scan_interference_pins_the_policy_contrast() {
        // The PR's acceptance criterion at a reduced (CI-friendly) scale: a
        // 64-block pool against a ~30k-key table (hundreds of leaf blocks).
        // 2Q must hold the hot hit rate within 5 points of its no-scan
        // baseline; strict LRU must degrade by well more than that.
        let keys = Dataset::Ycsb.generate_keys(30_000, 11);
        let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::LookupOnly, 1, 0));
        let run = |policy| {
            let cfg = RunConfig { buffer_blocks: 64, buffer_policy: policy, ..Default::default() };
            run_scan_interference(IndexChoice::BTree, &cfg, &w, 24)
        };
        let twoq = run(ReplacementPolicy::TwoQ);
        let lru = run(ReplacementPolicy::Lru);
        assert!(twoq.scan_reads > 0, "the scan must tag its reads");
        assert!(twoq.scanned_entries >= 30_000, "the scan must cover the table");
        assert!(
            twoq.baseline_hit_rate > 0.9,
            "2Q baseline must be warm, got {}",
            twoq.baseline_hit_rate
        );
        assert!(
            twoq.degradation_points() <= 5.0,
            "2Q must hold within 5 points, lost {:.1}",
            twoq.degradation_points()
        );
        assert!(
            lru.degradation_points() > 10.0,
            "LRU must degrade under the scan, lost only {:.1}",
            lru.degradation_points()
        );
    }

    #[test]
    fn inner_reservation_keeps_inner_reads_cached_during_scans() {
        // Partitioning is orthogonal to the policy: even under LRU, a
        // reserved inner partition keeps the descent path cached while the
        // scan churns the general partition.
        let keys = Dataset::Ycsb.generate_keys(30_000, 11);
        let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::LookupOnly, 1, 0));
        let run = |partitions| {
            let cfg = RunConfig {
                buffer_blocks: 64,
                buffer_partitions: partitions,
                ..Default::default()
            };
            run_scan_interference(IndexChoice::BTree, &cfg, &w, 24)
        };
        let unified = run(PoolPartitions::Unified);
        let reserved = run(PoolPartitions::InnerReserved { percent: 25 });
        assert_eq!(
            reserved.under_scan_inner_reads, 0,
            "with a reserved partition the scan must never evict the descent path"
        );
        assert!(
            unified.under_scan_inner_reads > 0,
            "without partitions the scan must evict inner blocks (otherwise \
             this test is vacuous)"
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
