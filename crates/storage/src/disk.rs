//! The [`Disk`] façade that index implementations talk to.
//!
//! `Disk` combines a [`StorageBackend`], the [`DeviceModel`] cost accounting,
//! the per-index [`IoStats`], the optional LRU buffer pool and the readahead
//! cache. The last-block reuse of §6.5 of the paper ("we check whether the
//! last block fetched can be reused") is not the disk's: it is scoped to one
//! operation and lives in that operation's [`BlockCursor`].
//!
//! All methods take `&self`, and the layer is built so N concurrent reader
//! threads over a frozen (bulk-loaded) index never serialise on a single
//! lock:
//!
//! * statistics are atomic counters ([`IoStats`]);
//! * the buffer pool is lock-striped ([`ShardedBufferPool`]), and a read
//!   that hits it touches only its stripe;
//! * backends synchronise internally (reads share a reader/writer lock);
//! * the sequential-access detector for the device cost model is one atomic
//!   word.
//!
//! Mutating operations (`allocate`, `free`, `create_file`) take the pager
//! mutex, but those only run during bulk load and inserts, which the
//! `lidx-core` read/write trait split keeps exclusive (`&mut self`) anyway.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::backend::{FileBackend, MemoryBackend, StorageBackend};
use crate::buffer::{AccessClass, BlockRef, ShardedBufferPool};
use crate::cursor::BlockCursor;
use crate::device::DeviceModel;
use crate::error::{StorageError, StorageResult};
use crate::fault::{Barrier, FaultPlan, FaultingBackend};
use crate::format::Superblock;
use crate::pager::Pager;
use crate::stats::{BlockKind, IoStats, OpStats};
use crate::{BlockId, DEFAULT_BLOCK_SIZE};
use lidx_telemetry::OpClass;

/// Identifier of a file managed by a [`Disk`].
pub type FileId = u32;

/// Construction-time configuration of a [`Disk`].
#[derive(Debug, Clone, Copy)]
pub struct DiskConfig {
    /// Block size in bytes (the paper defaults to 4 KB).
    pub block_size: usize,
    /// Device cost model used to accumulate simulated latency.
    pub device: DeviceModel,
    /// Capacity of the strict-LRU buffer pool in blocks (the paper's Fig. 13
    /// study); 0 disables the pool (the paper's default setting).
    pub buffer_blocks: usize,
    /// Whether freed extents may be reused by later allocations (the paper's
    /// measurements assume they are not; see §6.3).
    pub reuse_freed_space: bool,
    /// When true, every charged device cost is also *realised* as blocking
    /// time on the calling thread's device clock: the thread sleeps the
    /// charge less the amount its previous sleep overran by, and skips the
    /// sleep when that credit covers the charge. A thread's realised device
    /// time is thus its modeled time plus at most one sleep's overrun,
    /// whatever the kernel's timer slack. The disk sleeps outside its own
    /// locks, but not outside the caller's: a drain holds its index's write
    /// lock through the device time of its writes (DESIGN §3.5). This turns
    /// the cost model into actual blocking I/O time, which is what lets the
    /// concurrent-read benchmarks demonstrate latency hiding: N reader
    /// threads overlap their simulated waits exactly as they would overlap
    /// real disk requests. Off by default — the deterministic experiments
    /// only *count* time.
    pub simulate_latency: bool,
    /// Block kinds treated as memory-resident: their reads and writes are
    /// performed but not charged to the device. Used for the paper's §6.2
    /// configuration where all inner nodes (and the meta block) are cached in
    /// main memory while leaves stay on disk.
    pub memory_resident: [bool; 4],
    /// Outstanding-read queue depth of the [`Disk::read_queue`] engine: how
    /// many device reads a completion wave may carry (cache hits take no
    /// slot), and how far scan readahead prefetches: the next
    /// `queue_depth - 1` blocks. A wave charges the *max* of its members' device
    /// costs instead of their sum, modelling depth-parallel service. Depth 1
    /// (the default) degenerates to the fully synchronous path: one request
    /// per wave, `max == sum`, no readahead rung, and a
    /// [`prefetch`](crate::ReadQueue::prefetch) that does nothing. So every
    /// design's one batched read path, run at depth 1, reads each block on
    /// demand as a synchronous walk does.
    pub queue_depth: usize,
    /// When true, every write also stores a [`crate::format::BlockStamp`]
    /// (CRC32 + write generation) in the backend's sidecar table and every
    /// device read verifies it, surfacing
    /// [`StorageError::ChecksumMismatch`] on torn or bit-flipped blocks.
    /// Off by default for in-memory evaluation disks (verification is pure
    /// overhead there and the depth-1 counters must stay bit-identical);
    /// [`Disk::open_durable`] turns it on.
    pub verify_checksums: bool,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            block_size: DEFAULT_BLOCK_SIZE,
            device: DeviceModel::none(),
            buffer_blocks: 0,
            reuse_freed_space: false,
            simulate_latency: false,
            memory_resident: [false; 4],
            queue_depth: 1,
            verify_checksums: false,
        }
    }
}

impl DiskConfig {
    /// Configuration with a specific block size and otherwise default values.
    pub fn with_block_size(block_size: usize) -> Self {
        DiskConfig { block_size, ..Default::default() }
    }

    /// Sets the device model.
    #[must_use]
    pub fn device(mut self, device: DeviceModel) -> Self {
        self.device = device;
        self
    }

    /// Sets the buffer pool capacity (in blocks).
    #[must_use]
    pub fn buffer_blocks(mut self, blocks: usize) -> Self {
        self.buffer_blocks = blocks;
        self
    }

    /// Enables or disables reuse of freed extents.
    #[must_use]
    pub fn reuse_freed_space(mut self, reuse: bool) -> Self {
        self.reuse_freed_space = reuse;
        self
    }

    /// Enables or disables realising device costs as actual blocking time
    /// (see [`DiskConfig::simulate_latency`]).
    #[must_use]
    pub fn simulate_latency(mut self, simulate: bool) -> Self {
        self.simulate_latency = simulate;
        self
    }

    /// Sets the outstanding-read queue depth (clamped to at least 1; see
    /// [`DiskConfig::queue_depth`]).
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Marks `kinds` as memory-resident: their I/O still happens against the
    /// backend but is never charged to the device or the statistics. This is
    /// how the harness reproduces the "inner nodes are memory-resident"
    /// configuration of §6.2 (Figs. 8-9) uniformly for every index.
    #[must_use]
    pub fn memory_resident(mut self, kinds: &[BlockKind]) -> Self {
        for &k in kinds {
            self.memory_resident[Self::kind_slot(k)] = true;
        }
        self
    }

    fn kind_slot(kind: BlockKind) -> usize {
        match kind {
            BlockKind::Meta => 0,
            BlockKind::Inner => 1,
            BlockKind::Leaf => 2,
            BlockKind::Utility => 3,
        }
    }
}

/// Sentinel for [`Disk::last_device_access`] meaning "no access yet".
const NO_ACCESS: u64 = u64::MAX;

fn pack_access(file: FileId, block: BlockId) -> u64 {
    (u64::from(file) << 32) | u64::from(block)
}

/// How a device read should be classified for the sequential/random cost
/// split of the [`DeviceModel`].
///
/// `Auto` reproduces the historical behaviour: compare against the single
/// last-device-access word, which works single-threaded but lets interleaved
/// concurrent readers destroy each other's sequentiality (charging random
/// cost to a perfectly sequential scan). Streams that *know* their access
/// pattern — leaf-chain scans over contiguous extents, readahead prefetches —
/// pass `Sequential`/`Random` explicitly so the charge is immune to
/// cross-thread interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeqHint {
    /// Detect from the globally last-accessed block (historical behaviour).
    #[default]
    Auto,
    /// The caller knows this read continues a sequential stream.
    Sequential,
    /// The caller knows this read breaks any sequential stream.
    Random,
}

/// One device request of a completion wave processed by [`Disk::run_wave`]:
/// a block its submitter already found in no cache.
pub(crate) struct WaveReq {
    pub(crate) file: FileId,
    pub(crate) block: BlockId,
    pub(crate) kind: BlockKind,
    pub(crate) hint: SeqHint,
    /// `true`: the caller wants the pinned frame back (a queued read); the
    /// wave publishes it to the pool. `false`: a readahead
    /// prefetch; the wave parks the frame in the readahead cache.
    pub(crate) deliver: bool,
}

/// Frames parked by readahead prefetch waves, keyed by `(file, block)`.
/// Consumed (removed) by the first read of the block; invalidated on frees
/// and overwrites like the buffer pool.
struct ReadaheadCache {
    frames: HashMap<(FileId, BlockId), (u64, BlockRef)>,
    /// Park order for FIFO eviction, each entry tagged with the generation
    /// it parked. May hold stale entries for frames already consumed,
    /// invalidated or re-parked; the generation check skips those lazily, so
    /// an old entry can never evict a newer frame for the same block.
    order: VecDeque<((FileId, BlockId), u64)>,
    /// Monotonic park counter backing the generation tags.
    generation: u64,
}

/// Safety valve: a workload of many abandoned short scans could otherwise
/// grow the readahead cache without bound. Dropping parked frames is always
/// correct (they are re-fetched on demand), so past this size the oldest
/// parked frames are evicted first — a batch's freshly parked waves survive
/// while stale leftovers of abandoned prefetches go.
const MAX_READAHEAD_FRAMES: usize = 1024;

impl ReadaheadCache {
    fn new() -> Self {
        ReadaheadCache { frames: HashMap::new(), order: VecDeque::new(), generation: 0 }
    }

    fn contains(&self, key: &(FileId, BlockId)) -> bool {
        self.frames.contains_key(key)
    }

    /// Consumes the parked frame for `key`, if any.
    fn take(&mut self, key: &(FileId, BlockId)) -> Option<BlockRef> {
        self.frames.remove(key).map(|(_, frame)| frame)
    }

    /// Drops an order entry only if it still names the generation that
    /// parked the live frame — a stale entry never evicts a newer frame.
    fn evict(&mut self, key: (FileId, BlockId), generation: u64) {
        if self.frames.get(&key).is_some_and(|&(g, _)| g == generation) {
            self.frames.remove(&key);
        }
    }

    /// Parks `frame`, evicting oldest-parked frames past
    /// [`MAX_READAHEAD_FRAMES`] — oldest first, so the waves a batch is
    /// still consuming survive while stale leftovers of abandoned
    /// prefetches go.
    fn park(&mut self, key: (FileId, BlockId), frame: BlockRef) {
        self.generation += 1;
        self.frames.insert(key, (self.generation, frame));
        self.order.push_back((key, self.generation));
        // Every live frame has exactly one order entry carrying its
        // generation, so the first loop terminates; the second keeps
        // consumed/re-parked leftovers from accumulating in the queue.
        while self.frames.len() > MAX_READAHEAD_FRAMES {
            let Some((old, generation)) = self.order.pop_front() else { break };
            self.evict(old, generation);
        }
        while self.order.len() > 2 * MAX_READAHEAD_FRAMES {
            let Some((old, generation)) = self.order.pop_front() else { break };
            self.evict(old, generation);
        }
    }

    fn clear(&mut self) {
        self.frames.clear();
        self.order.clear();
    }
}

/// Whether [`Disk::open_durable`] starts a store or reopens one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableMode {
    /// Wipe any store in the directory and start an empty one.
    Create,
    /// Reopen the store from its best valid superblock.
    Open,
}

/// What only a durable disk has.
struct Durable {
    dir: PathBuf,
    /// Generation of the last superblock written (or loaded); the next
    /// [`Disk::persist`] writes generation + 1 into the alternate slot.
    superblock_generation: AtomicU64,
    /// Tears superblocks and logs their barriers; the backend wrapper
    /// executes the block faults.
    fault_plan: Option<FaultPlan>,
}

thread_local! {
    /// How far the calling thread's latest device wait overran its target,
    /// in nanoseconds, less what later charges have already used up.
    static DEVICE_CLOCK_CREDIT_NS: Cell<u64> = const { Cell::new(0) };
}

/// Blocks the calling thread for `ns` of simulated device time, less the
/// credit its previous wait overran by. A sleep always runs long (under
/// the kernel's timer slack, 50 µs by default on Linux, a 100 µs sleep took
/// 177–190 µs on a 2-vCPU VM), so without the credit a thread's realised device time
/// would be a multiple of its modeled time. A charge the credit covers does
/// not sleep; a wait spends the whole credit and keeps only its own
/// overrun. Over any run of charges that starts with no credit, the thread
/// therefore waits at least the modeled total, and at most one wait's
/// overrun longer. The wait is a sleep, never a spin, so N threads still
/// overlap their waits on fewer cores. Kept out of line, so the charge
/// that every device read and write makes stays as small as it is with
/// latency off.
#[cold]
#[inline(never)]
fn wait_on_device_clock(ns: u64) {
    DEVICE_CLOCK_CREDIT_NS.with(|credit| {
        let owed = ns.saturating_sub(credit.get());
        if owed == 0 {
            credit.set(credit.get() - ns);
            return;
        }
        let start = Instant::now();
        std::thread::sleep(Duration::from_nanos(owed));
        let waited = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        credit.set(waited.saturating_sub(owed));
    });
}

/// A simulated (or real) disk shared by the blocks of one index instance.
pub struct Disk {
    backend: Box<dyn StorageBackend>,
    pool: ShardedBufferPool,
    pager: Mutex<Pager>,
    /// Packed `(file, block)` of the most recent *device* access, used to
    /// decide whether a read is sequential for the cost model.
    last_device_access: AtomicU64,
    /// Frames parked by scan-readahead waves, consumed by later reads.
    readahead: Mutex<ReadaheadCache>,
    stats: IoStats,
    /// Latency/pause telemetry shared by every layer above this disk (the
    /// same sharing pattern as [`IoStats`]): index internals record SMO
    /// spans, write fronts record drain spans, the harness records per-op
    /// latencies — all through [`Disk::telemetry`].
    telemetry: lidx_telemetry::TelemetryRegistry,
    device: DeviceModel,
    block_size: usize,
    simulate_latency: bool,
    memory_resident: [bool; 4],
    queue_depth: usize,
    /// Verified reads + stamped writes (see [`DiskConfig::verify_checksums`]).
    verify_checksums: bool,
    /// Monotonic write counter feeding the block stamps' generation field;
    /// resumed from the superblock on reopen.
    write_generation: AtomicU64,
    /// `None` for in-memory evaluation disks.
    durable: Option<Durable>,
}

impl std::fmt::Debug for Disk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Disk")
            .field("block_size", &self.block_size)
            .field("device", &self.device.name)
            .field("reads", &self.stats.reads())
            .field("writes", &self.stats.writes())
            .finish()
    }
}

impl Disk {
    /// Creates a disk over an in-memory backend (the harness default).
    pub fn in_memory(config: DiskConfig) -> Arc<Self> {
        Self::with_backend(Box::new(MemoryBackend::new(config.block_size)), config)
    }

    /// Creates a disk over an arbitrary backend. The backend's block size
    /// must match the configuration.
    pub fn with_backend(backend: Box<dyn StorageBackend>, config: DiskConfig) -> Arc<Self> {
        Self::build(backend, config, None)
    }

    fn build(
        backend: Box<dyn StorageBackend>,
        config: DiskConfig,
        durable: Option<Durable>,
    ) -> Arc<Self> {
        assert_eq!(
            backend.block_size(),
            config.block_size,
            "backend block size must match DiskConfig::block_size"
        );
        let mut pager = Pager::new();
        pager.set_reuse_freed(config.reuse_freed_space);
        Arc::new(Disk {
            backend,
            pool: ShardedBufferPool::new(config.buffer_blocks),
            pager: Mutex::new(pager),
            last_device_access: AtomicU64::new(NO_ACCESS),
            readahead: Mutex::new(ReadaheadCache::new()),
            stats: IoStats::new(),
            telemetry: lidx_telemetry::TelemetryRegistry::new(),
            device: config.device,
            block_size: config.block_size,
            simulate_latency: config.simulate_latency,
            memory_resident: config.memory_resident,
            queue_depth: config.queue_depth.max(1),
            verify_checksums: config.verify_checksums,
            write_generation: AtomicU64::new(0),
            durable,
        })
    }

    /// Creates or reopens the durable store in `dir`, the one durable entry
    /// point. Checksums are always on; a [`FaultPlan`] runs the files inside
    /// a [`FaultingBackend`]. [`DurableMode::Create`] wipes any store there
    /// (it has no superblock until the first [`Disk::persist`]);
    /// [`DurableMode::Open`] also returns the best valid superblock, whose
    /// per-file block counts are authoritative (a torn trailing extend
    /// cannot shrink the address space) and whose write generation resumes.
    pub fn open_durable(
        dir: impl Into<PathBuf>,
        mut config: DiskConfig,
        plan: Option<FaultPlan>,
        mode: DurableMode,
    ) -> StorageResult<(Arc<Self>, Option<Superblock>)> {
        let dir = dir.into();
        let superblock = match mode {
            DurableMode::Create => None,
            DurableMode::Open => Some(Superblock::load_best(&dir)?.ok_or_else(|| {
                StorageError::Corrupt(format!("no valid superblock in {}", dir.display()))
            })?),
        };
        let files = match &superblock {
            None => FileBackend::new(&dir, config.block_size)?,
            Some(sb) => FileBackend::open_existing(&dir, config.block_size, &sb.file_blocks)?,
        };
        let backend: Box<dyn StorageBackend> = match &plan {
            Some(p) => Box::new(FaultingBackend::new(Box::new(files), p.clone())),
            None => Box::new(files),
        };
        config.verify_checksums = true;
        let (generation, writes) =
            superblock.as_ref().map_or((0, 0), |sb| (sb.generation, sb.write_generation));
        let durable =
            Durable { dir, superblock_generation: AtomicU64::new(generation), fault_plan: plan };
        let disk = Self::build(backend, config, Some(durable));
        disk.write_generation.store(writes, Ordering::SeqCst);
        Ok((disk, superblock))
    }

    /// [`Disk::open_durable`] creating a store without a fault plan, for the
    /// perf ledger; the next benchmark change deletes it.
    pub fn create_durable(dir: impl Into<PathBuf>, config: DiskConfig) -> StorageResult<Arc<Self>> {
        Ok(Self::open_durable(dir, config, None, DurableMode::Create)?.0)
    }

    /// Writes a new superblock checkpoint carrying `meta` (the index layer's
    /// opaque root record) into the alternate slot. `clean_shutdown` marks a
    /// graceful close; checkpoints taken while running pass `false`, so a
    /// later crash is detectable. Consults the fault plan for an armed
    /// superblock tear (the torn slot is left on disk and an error is
    /// returned, simulating a crash mid-checkpoint).
    /// Every file is synced before the slot naming its blocks is written.
    pub fn persist(&self, meta: &[u8], clean_shutdown: bool) -> StorageResult<()> {
        let durable = self.durable.as_ref().ok_or_else(|| {
            StorageError::Corrupt("persist() on a disk without a backing directory".into())
        })?;
        let file_blocks: Vec<u32> = (0..self.backend.num_files())
            .map(|f| {
                self.backend.sync(f)?;
                self.backend.num_blocks(f)
            })
            .collect::<StorageResult<_>>()?;
        let generation = durable.superblock_generation.fetch_add(1, Ordering::SeqCst) + 1;
        let sb = Superblock {
            format_version: crate::format::FORMAT_VERSION,
            generation,
            write_generation: self.write_generation.load(Ordering::SeqCst),
            clean_shutdown,
            file_blocks,
            meta: meta.to_vec(),
        };
        let plan = durable.fault_plan.as_ref();
        sb.write_slot(&durable.dir, plan.and_then(FaultPlan::take_superblock_tear))?;
        if let Some(plan) = plan {
            plan.log_barrier(Barrier::Superblock);
        }
        Ok(())
    }

    /// [`StorageBackend::sync`] of `file`.
    pub(crate) fn sync(&self, file: FileId) -> StorageResult<()> {
        self.backend.sync(file)
    }

    /// Drops every cached frame and forgets all access history: buffer pool,
    /// readahead cache (its generation tags advance, so stale order entries
    /// can never resurrect a pre-clear frame) and the sequential-access
    /// detector. Called after recovery replay, so a
    /// parked pre-crash frame can never serve a read that should see
    /// recovered bytes.
    pub fn invalidate_caches(&self) {
        self.pool.clear();
        self.readahead.lock().clear();
        self.last_device_access.store(NO_ACCESS, Ordering::Relaxed);
    }

    fn is_memory_resident(&self, kind: BlockKind) -> bool {
        self.memory_resident[DiskConfig::kind_slot(kind)]
    }

    /// The block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The device cost model in use.
    pub fn device(&self) -> DeviceModel {
        self.device
    }

    /// The I/O statistics accumulated so far.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Convenience: a snapshot of the current statistics.
    pub fn snapshot(&self) -> OpStats {
        self.stats.snapshot()
    }

    /// The latency/pause telemetry registry of this disk. Everything built
    /// on the disk — indexes, write fronts, the router, the harness —
    /// records op latencies and pause spans here, so one registry describes
    /// one index instance end to end.
    pub fn telemetry(&self) -> &lidx_telemetry::TelemetryRegistry {
        &self.telemetry
    }

    /// Accumulated simulated device time, in seconds.
    pub fn simulated_seconds(&self) -> f64 {
        self.stats.device_ns() as f64 / 1e9
    }

    /// Charges `ns` of device time, optionally realising it as actual
    /// blocking time on the calling thread's device clock (see
    /// [`DiskConfig::simulate_latency`]). Called outside the disk's own
    /// locks, so concurrent readers overlap their waits exactly like
    /// outstanding disk requests.
    fn charge(&self, ns: u64) {
        self.stats.record_device_ns(ns);
        if self.simulate_latency && ns > 0 {
            wait_on_device_clock(ns);
        }
    }

    /// Creates a new file and returns its id.
    pub fn create_file(&self) -> StorageResult<FileId> {
        self.backend.create_file()
    }

    /// Number of blocks currently allocated in `file`.
    pub fn num_blocks(&self, file: FileId) -> StorageResult<u32> {
        self.backend.num_blocks(file)
    }

    /// Grows `file`'s logical block count to cover every block physically
    /// present in the backend, returning the new count. Used by WAL reopen:
    /// the superblock's counts are authoritative for index files, but the
    /// log legitimately grows between checkpoints and its synced tail must
    /// stay visible to replay (every adopted block is still validated by
    /// stamp, epoch and record CRC before anything is trusted).
    pub fn adopt_physical_size(&self, file: FileId) -> StorageResult<u32> {
        let adopted = self.backend.adopt_physical_size(file)?;
        self.pager.lock().note_adopted(file, adopted);
        Ok(adopted)
    }

    /// Number of files on the disk.
    pub fn num_files(&self) -> u32 {
        self.backend.num_files()
    }

    /// Total blocks allocated across all files (the "storage size on disk"
    /// metric of §6.3).
    pub fn total_blocks(&self) -> u64 {
        (0..self.num_files()).map(|f| self.backend.num_blocks(f).unwrap_or(0) as u64).sum()
    }

    /// Total bytes allocated across all files.
    pub fn total_bytes(&self) -> u64 {
        self.total_blocks() * self.block_size as u64
    }

    /// Allocates `count` contiguous blocks in `file`, reusing freed space if
    /// the disk was configured to do so, and returns the first block id.
    pub fn allocate(&self, file: FileId, count: u32) -> StorageResult<BlockId> {
        self.stats.record_alloc(u64::from(count));
        let mut pager = self.pager.lock();
        if let Some(start) = pager.try_reuse(file, count) {
            return Ok(start);
        }
        let start = self.backend.extend(file, count)?;
        pager.note_extend(file, start, count);
        Ok(start)
    }

    /// Marks `count` blocks starting at `start` as no longer used. The space
    /// is only reused if [`DiskConfig::reuse_freed_space`] was set.
    pub fn free(&self, file: FileId, start: BlockId, count: u32) {
        self.stats.record_free(u64::from(count));
        for b in start..start + count {
            self.pool.invalidate(file, b);
        }
        {
            let mut readahead = self.readahead.lock();
            for b in start..start + count {
                readahead.take(&(file, b));
            }
        }
        self.pager.lock().free(file, start, count);
    }

    /// Blocks currently sitting in freed (reclaimable) extents of `file`.
    pub fn freed_blocks(&self, file: FileId) -> u64 {
        self.pager.lock().freed_blocks(file)
    }

    /// Reads one block from the backend with bounded-backoff retry of
    /// transient errors and (when configured) stamp verification. This is
    /// the single point every device read funnels through, so injected
    /// `EIO`s and corrupted blocks surface as typed errors on every path.
    fn backend_read(&self, file: FileId, block: BlockId, buf: &mut [u8]) -> StorageResult<()> {
        /// Transient errors are retried this many times before surfacing.
        const MAX_READ_RETRIES: u32 = 4;
        let mut attempt = 0u32;
        loop {
            match self.backend.read_block(file, block, buf) {
                Err(StorageError::Transient(msg)) => {
                    if attempt >= MAX_READ_RETRIES {
                        return Err(StorageError::Transient(msg));
                    }
                    attempt += 1;
                    self.stats.record_io_retry();
                    // Exponential backoff, microseconds: 1, 2, 4, 8.
                    std::thread::sleep(Duration::from_micros(1 << (attempt - 1)));
                }
                other => {
                    other?;
                    break;
                }
            }
        }
        if self.verify_checksums {
            if let Some(bytes) = self.backend.read_stamp(file, block)? {
                let arr: [u8; crate::format::BlockStamp::BYTES] =
                    bytes.as_slice().try_into().map_err(|_| {
                        StorageError::Corrupt("block stamp has the wrong length".into())
                    })?;
                // A decodable stamp must verify; an all-zero (absent) stamp
                // means the block was never written and is legitimately
                // zero-filled.
                if let Some(stamp) = crate::format::BlockStamp::decode(&arr) {
                    if let Err(e) = stamp.verify(file, block, buf) {
                        self.stats.record_checksum_failure();
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }

    /// Loads one block from the backend into a freshly pinned frame.
    fn load_frame(&self, file: FileId, block: BlockId) -> StorageResult<BlockRef> {
        let mut buf = vec![0u8; self.block_size];
        self.backend_read(file, block, &mut buf)?;
        Ok(BlockRef::from_vec(buf))
    }

    /// Reads one block point-class as a pinned, zero-copy [`BlockRef`],
    /// charging the device unless the block is served by the buffer pool or
    /// the readahead cache.
    ///
    /// This is the door for callers outside any index operation, such as a
    /// probe that times the pool's hit and miss paths; index code reads
    /// through a [`BlockCursor`] ([`Disk::cursor`], [`Disk::scan_cursor`]).
    /// A pool hit is one `Arc` clone — no allocation, no byte copy — and a
    /// miss loads the block into a new frame exactly once, which the pool
    /// then shares (the pool insert is another clone, not a second copy).
    /// The returned frame stays valid — with the bytes it was pinned with —
    /// across pool eviction, block frees and subsequent writes to the same
    /// block.
    pub fn read_ref(
        &self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
    ) -> StorageResult<BlockRef> {
        self.read_ref_hinted(file, block, kind, AccessClass::Point, SeqHint::Auto)
    }

    /// A [`BlockCursor`] over this disk, for one point operation: a re-read
    /// of the block it read last costs nothing (§6.5), and every read is
    /// point-class.
    pub fn cursor(&self) -> BlockCursor<'_> {
        BlockCursor::new(self, false)
    }

    /// A [`BlockCursor`] for one scan: like [`Disk::cursor`], but its
    /// `Leaf` and `Utility` reads are scan-class while its `Inner` and
    /// `Meta` reads — the descent — stay point-class. Index scans send every
    /// read through one scan cursor, so a scan streams from its first data
    /// block.
    pub fn scan_cursor(&self) -> BlockCursor<'_> {
        BlockCursor::new(self, true)
    }

    /// Runs one write batch on a write-back point cursor: the batch's
    /// writes through `cursor` stay in the cursor, its reads through the
    /// cursor return them, and once `batch` returns every block it dirtied
    /// is stored once, in first-write order. A block is charged at its
    /// first write, exactly as [`Disk::write`] charges it; its later writes
    /// and the final store charge nothing (see the
    /// [cursor docs](crate::cursor)).
    ///
    /// The dirty blocks are stored even when `batch` fails, so what the
    /// batch wrote before its error lands as it would have written through;
    /// the batch's error is then the one returned. A store that fails stops
    /// the flush, as a failed device write models a crash at that write.
    ///
    /// The caller must hold the blocks it writes exclusively for the batch:
    /// until the flush, a read that does not go through `cursor` sees the
    /// pre-batch bytes.
    pub fn write_back<T, E: From<StorageError>>(
        &self,
        batch: impl FnOnce(&mut BlockCursor<'_>) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut cursor = BlockCursor::write_back(self);
        let result = batch(&mut cursor);
        let stored = cursor.store_dirty();
        let value = result?;
        stored?;
        Ok(value)
    }

    /// Reads one block as a pinned, zero-copy [`BlockRef`] under an explicit
    /// [`AccessClass`] (see [`Disk::read_ref`] for the pinning guarantees)
    /// and sequential-cost hint ([`SeqHint`]): scan streams that know their
    /// block layout pass `Sequential` so concurrent readers cannot destroy
    /// each other's sequentiality through the shared last-access word.
    ///
    /// A scan-class read is part of a scan stream: it is counted in
    /// [`IoStats::scan_reads`], and at queue depth > 1 a miss fetches a
    /// readahead wave of the following blocks with it, counted under this
    /// read's `kind`. The buffer pool treats it like any other read (one
    /// strict LRU). Only [`BlockCursor`] calls it, with the class its rule
    /// gives the block's kind.
    pub(crate) fn read_ref_hinted(
        &self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
        class: AccessClass,
        hint: SeqHint,
    ) -> StorageResult<BlockRef> {
        if class == AccessClass::Scan {
            self.stats.record_scan_read();
        }
        if let Some(frame) = self.probe_caches(file, block, kind)? {
            return Ok(frame);
        }
        // Scan-class miss at depth > 1: fold the demand fetch and an
        // extent-style readahead of the next `queue_depth - 1` blocks into
        // one completion wave (the ext4-extent-walker model) — the wave is
        // charged `max`, so the sequential prefetches ride along with the
        // demand miss for free.
        if self.keeps_readahead() && class == AccessClass::Scan {
            return self.scan_miss_with_readahead(file, block, kind, hint);
        }
        let (frame, cost) = self.fetch_miss(file, block, kind, hint)?;
        self.charge(cost);
        self.publish_miss(file, block, &frame);
        Ok(frame)
    }

    /// The cache ladder every delivered read climbs before it may touch the
    /// device, shared by the synchronous path and [`crate::ReadQueue`] submission:
    /// memory-resident kind → buffer pool → readahead cache, each rung with
    /// its own hit accounting. `Ok(None)` is a miss:
    /// the caller fetches ([`Disk::fetch_miss`]), charges, and publishes
    /// ([`Disk::publish_miss`]).
    pub(crate) fn probe_caches(
        &self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
    ) -> StorageResult<Option<BlockRef>> {
        // Memory-resident kinds (§6.2): serve the read without touching the
        // *device* accounting. The copy-behaviour counters still apply — a
        // fresh frame is allocated and handed out, so it counts as pinned.
        if self.is_memory_resident(kind) {
            let frame = self.load_frame(file, block)?;
            self.stats.record_frame_pinned();
            return Ok(Some(frame));
        }

        // Buffer pool.
        if self.pool.capacity() > 0 {
            if let Some(frame) = self.pool.get_ref(file, block) {
                self.stats.record_buffer_hit();
                self.stats.record_frame_pinned();
                return Ok(Some(frame));
            }
        }

        // Readahead cache: a prefetch wave already paid the device for this
        // block; consume the parked frame. The read was recorded when the
        // prefetch fetched it, so this is a cache hit.
        if self.keeps_readahead() {
            let parked = self.readahead.lock().take(&(file, block));
            if let Some(frame) = parked {
                self.stats.record_readahead_hit();
                self.stats.record_frame_pinned();
                if self.pool.capacity() > 0 {
                    self.pool.put_ref(file, block, frame.clone());
                }
                return Ok(Some(frame));
            }
        }
        Ok(None)
    }

    /// One device fetch: loads the block into a fresh frame, classifies it
    /// sequential/random against `hint`, counts the read and returns the
    /// frame with its modelled cost. Charging is the caller's: the
    /// synchronous path charges the cost itself, a wave charges the max over
    /// its members.
    fn fetch_miss(
        &self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
        hint: SeqHint,
    ) -> StorageResult<(BlockRef, u64)> {
        let frame = self.load_frame(file, block)?;
        let prev = self.last_device_access.swap(pack_access(file, block), Ordering::Relaxed);
        let sequential = match hint {
            SeqHint::Auto => prev != NO_ACCESS && prev == pack_access(file, block.wrapping_sub(1)),
            SeqHint::Sequential => true,
            SeqHint::Random => false,
        };
        self.stats.record_read(kind);
        Ok((frame, self.device.read_cost(sequential)))
    }

    /// Publishes a fetched frame after its charge: the pool shares it from
    /// here (an `Arc` clone, no byte copy).
    fn publish_miss(&self, file: FileId, block: BlockId, frame: &BlockRef) {
        if self.pool.capacity() > 0 {
            self.pool.put_ref(file, block, frame.clone());
        }
        self.stats.record_frame_pinned();
    }

    /// Serves a scan-class device miss at `block` together with a readahead
    /// prefetch of the following blocks of the extent, all as one completion
    /// wave. Only called with `queue_depth > 1`.
    fn scan_miss_with_readahead(
        &self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
        hint: SeqHint,
    ) -> StorageResult<BlockRef> {
        let end = self.num_blocks(file).unwrap_or(0);
        let depth = u32::try_from(self.queue_depth).unwrap_or(u32::MAX);
        let readahead = block.saturating_add(1)..end.min(block.saturating_add(depth));
        // The whole extent counts as accepted engine traffic, as a queue
        // counts a prefetch it skips.
        let accepted = 1 + readahead.len() as u64;
        self.stats.record_ios_submitted(accepted);
        let mut reqs = Vec::with_capacity(self.queue_depth);
        reqs.push(WaveReq { file, block, kind, hint, deliver: true });
        for next in readahead {
            if !self.prefetch_is_cached(file, next, kind) {
                reqs.push(WaveReq {
                    file,
                    block: next,
                    kind,
                    hint: SeqHint::Sequential,
                    deliver: false,
                });
            }
        }
        let frame = self.run_wave(&reqs)?.swap_remove(0);
        self.stats.record_ios_completed(accepted);
        Ok(frame)
    }

    /// The prefetch skip rule, applied when a prefetch is submitted: a block
    /// that is free to read (memory-resident kind), already parked, or
    /// pool-resident needs no device request. A pool-resident block is
    /// re-parked (an `Arc` clone, no device slot), so the consumer still finds
    /// it if the pool evicts the block before the probe resolves, e.g. under
    /// the churn of the batch's own consumptions.
    pub(crate) fn prefetch_is_cached(&self, file: FileId, block: BlockId, kind: BlockKind) -> bool {
        let at = (file, block);
        if self.is_memory_resident(kind) || self.readahead.lock().contains(&at) {
            return true;
        }
        if self.pool.capacity() > 0 {
            if let Some(frame) = self.pool.get_ref(file, block) {
                self.readahead.lock().park(at, frame);
                return true;
            }
        }
        false
    }

    /// Processes one non-empty completion wave of the outstanding-read
    /// engine. Its submitter already climbed the cache ladder for every
    /// member, so each request is a device fetch of a distinct block: every
    /// member is loaded from the backend, and the device is charged the
    /// *max* of their costs instead of the sum — the requests are in flight
    /// together, so the wave completes when its slowest member does. The
    /// saved difference is recorded in [`IoStats::overlap_saved_ns`]. A wave
    /// of one request charges exactly what the synchronous path charges.
    ///
    /// Returns the fetched frames, aligned with `reqs`. Delivered ones are
    /// published to the pool; prefetched ones are parked in the readahead
    /// cache.
    pub(crate) fn run_wave(&self, reqs: &[WaveReq]) -> StorageResult<Vec<BlockRef>> {
        let wave_start = std::time::Instant::now();
        let mut frames = Vec::with_capacity(reqs.len());
        let (mut total_cost, mut max_cost) = (0u64, 0u64);
        for req in reqs {
            let (frame, cost) = self.fetch_miss(req.file, req.block, req.kind, req.hint)?;
            total_cost += cost;
            max_cost = max_cost.max(cost);
            frames.push(frame);
        }

        // One charge for the whole wave: its members were in flight together.
        self.stats.note_inflight(reqs.len() as u64);
        self.charge(max_cost);
        self.stats.record_overlap_saved_ns(total_cost - max_cost);
        self.telemetry.record_ns(OpClass::Wave, wave_start.elapsed().as_nanos() as u64);
        self.telemetry.add(OpClass::Wave, reqs.len() as u64);

        // Publish after completion, in submission order, exactly like the
        // synchronous path publishes after its charge.
        let pairs = || reqs.iter().zip(&frames);
        for (req, frame) in pairs().filter(|(req, _)| req.deliver) {
            self.publish_miss(req.file, req.block, frame);
        }
        if reqs.iter().any(|req| !req.deliver) {
            let mut cache = self.readahead.lock();
            for (req, frame) in pairs().filter(|(req, _)| !req.deliver) {
                cache.park((req.file, req.block), frame.clone());
            }
        }
        Ok(frames)
    }

    /// The configured outstanding-read queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Whether this disk has the readahead rung: scan readahead, parked
    /// prefetches and their consumption. Only disks configured for
    /// outstanding reads keep it: at depth 1 a miss must not take a
    /// disk-wide lock (racing readers share no mutex otherwise), so a
    /// prefetch there could park a frame no read ever consumes.
    pub(crate) fn keeps_readahead(&self) -> bool {
        self.queue_depth > 1
    }

    /// Writes one block through to the device: stores it, then charges it.
    /// A [`Disk::write_back`] batch runs the two halves apart.
    pub fn write(
        &self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
        data: &[u8],
    ) -> StorageResult<()> {
        self.store(file, block, data, || BlockRef::from_vec(data.to_vec()))?;
        self.charge_write(file, block, kind);
        Ok(())
    }

    /// The accounting half of [`Disk::write`]: unless `kind` is memory
    /// resident, counts one write of `kind`, charges the device's write
    /// cost and moves the last-access word to the block.
    pub(crate) fn charge_write(&self, file: FileId, block: BlockId, kind: BlockKind) {
        if !self.is_memory_resident(kind) {
            self.last_device_access.store(pack_access(file, block), Ordering::Relaxed);
            self.stats.record_write(kind);
            self.charge(self.device.write_cost());
        }
    }

    /// Refuses a buffer that is not exactly one block.
    pub(crate) fn check_block_len(&self, data: &[u8]) -> StorageResult<()> {
        if data.len() != self.block_size {
            return Err(StorageError::BadBufferSize { got: data.len(), expected: self.block_size });
        }
        Ok(())
    }

    /// The store half of [`Disk::write`], which charges nothing: puts the
    /// bytes in the backend, stamps them on a durable disk, drops a parked
    /// readahead copy and publishes `frame()`, a frame holding `data`, to
    /// the pool (called only when the disk has one).
    pub(crate) fn store(
        &self,
        file: FileId,
        block: BlockId,
        data: &[u8],
        frame: impl FnOnce() -> BlockRef,
    ) -> StorageResult<()> {
        self.check_block_len(data)?;
        self.backend.write_block(file, block, data)?;
        if self.verify_checksums {
            // Stamp after a successful block write only: a failed or torn
            // write leaves the previous stamp, so a later verified read of
            // the torn block reports the mismatch instead of trusting it.
            let generation = self.write_generation.fetch_add(1, Ordering::Relaxed) + 1;
            let stamp = crate::format::BlockStamp {
                magic: crate::format::BlockStamp::MAGIC,
                generation: generation as u32,
                crc: crate::format::crc32(data),
            };
            self.backend.write_stamp(file, block, &stamp.encode())?;
        }
        // A parked readahead frame for this block is now stale.
        self.readahead.lock().take(&(file, block));
        // Publish a new frame for the pooled copy; readers that pinned the
        // previous frame keep their snapshot (immutable frames).
        if self.pool.capacity() > 0 {
            self.pool.put_ref(file, block, frame());
        }
        Ok(())
    }

    /// Forgets the access history: the sequential-access detector and the
    /// parked readahead frames. The harness calls it between queries so that
    /// each starts cold; §6.5 reuse never spans two operations anyway, since
    /// it lives in each operation's [`BlockCursor`].
    pub fn reset_access_state(&self) {
        self.last_device_access.store(NO_ACCESS, Ordering::Relaxed);
        self.readahead.lock().clear();
    }

    /// Empties the buffer pool and the readahead cache (used between
    /// workload phases).
    pub fn clear_buffer(&self) {
        self.pool.clear();
        self.readahead.lock().clear();
    }

    /// Buffer pool hit count.
    pub fn buffer_hits(&self) -> u64 {
        self.pool.hits()
    }

    /// Buffer pool capacity in blocks.
    pub fn buffer_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Whether the buffer pool holds `block` of `file`, without touching its
    /// recency or hit counters. Exposed for model-based tests.
    pub fn buffer_contains(&self, file: FileId, block: BlockId) -> bool {
        self.pool.contains(file, block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(bs: usize) -> Arc<Disk> {
        Disk::in_memory(DiskConfig::with_block_size(bs))
    }

    #[test]
    fn allocate_read_write_roundtrip() {
        let d = disk(128);
        let f = d.create_file().unwrap();
        let b = d.allocate(f, 3).unwrap();
        assert_eq!(b, 0);
        let mut data = vec![0u8; 128];
        data[0] = 42;
        d.write(f, b + 1, BlockKind::Leaf, &data).unwrap();
        let out = d.read_ref(f, b + 1, BlockKind::Leaf).unwrap();
        assert_eq!(out[0], 42);
        assert_eq!(d.stats().reads(), 1);
        assert_eq!(d.stats().writes(), 1);
        assert_eq!(d.total_blocks(), 3);
        assert_eq!(d.total_bytes(), 3 * 128);
    }

    /// §6.5 reuse lives in an operation's [`BlockCursor`], not in the disk:
    /// two plain reads of one block are two requests, served by the device
    /// twice without a pool and by the pool the second time with one.
    #[test]
    fn a_plain_re_read_is_not_free() {
        for pool in [0, 1, 4] {
            let d = Disk::in_memory(DiskConfig::with_block_size(128).buffer_blocks(pool));
            let f = d.create_file().unwrap();
            d.allocate(f, 1).unwrap();
            for _ in 0..2 {
                d.read_ref(f, 0, BlockKind::Leaf).unwrap();
            }
            let s = d.snapshot();
            let expected = if pool == 0 { (2, 0) } else { (1, 1) };
            assert_eq!((s.reads(), s.buffer_hits), expected, "pool {pool}");
            assert_eq!(s.reuse_hits, 0, "pool {pool}");
        }
    }

    #[test]
    fn buffer_pool_absorbs_repeat_reads() {
        let d = Disk::in_memory(DiskConfig::with_block_size(128).buffer_blocks(4));
        let f = d.create_file().unwrap();
        d.allocate(f, 8).unwrap();
        for b in 0..4u32 {
            d.read_ref(f, b, BlockKind::Leaf).unwrap();
        }
        assert_eq!(d.stats().reads(), 4);
        // Re-reading the cached blocks (not consecutively) hits the pool.
        for b in [2u32, 0, 3, 1] {
            d.read_ref(f, b, BlockKind::Leaf).unwrap();
        }
        assert_eq!(d.stats().reads(), 4);
        assert!(d.buffer_hits() >= 3);
    }

    #[test]
    fn device_model_accumulates_time() {
        let cfg = DiskConfig::with_block_size(128).device(DeviceModel::custom("t", 100, 10, 1));
        let d = Disk::in_memory(cfg);
        let f = d.create_file().unwrap();
        d.allocate(f, 3).unwrap();
        d.read_ref(f, 0, BlockKind::Leaf).unwrap(); // random: 100
        d.read_ref(f, 1, BlockKind::Leaf).unwrap(); // sequential: 1
        d.read_ref(f, 0, BlockKind::Leaf).unwrap(); // random: 100
        d.write(f, 2, BlockKind::Leaf, &[0u8; 128]).unwrap(); // write: 10
        assert_eq!(d.stats().device_ns(), 100 + 1 + 100 + 10);
        assert!(d.simulated_seconds() > 0.0);
    }

    #[test]
    fn free_invalidates_cached_copies() {
        let d = Disk::in_memory(DiskConfig::with_block_size(128).buffer_blocks(4));
        let f = d.create_file().unwrap();
        d.allocate(f, 2).unwrap();
        d.read_ref(f, 0, BlockKind::Leaf).unwrap();
        d.free(f, 0, 1);
        assert_eq!(d.stats().freed_blocks(), 1);
        // Reading again must go back to the device (the pooled copy is invalidated).
        d.read_ref(f, 0, BlockKind::Leaf).unwrap();
        assert_eq!(d.stats().reads(), 2);
    }

    #[test]
    fn freed_space_reuse_is_opt_in() {
        let d = Disk::in_memory(DiskConfig::with_block_size(128).reuse_freed_space(true));
        let f = d.create_file().unwrap();
        let a = d.allocate(f, 4).unwrap();
        d.free(f, a, 4);
        let b = d.allocate(f, 2).unwrap();
        assert_eq!(b, a, "freed extent must be reused when enabled");
        assert_eq!(d.total_blocks(), 4, "no growth when reusing freed space");

        let d2 = Disk::in_memory(DiskConfig::with_block_size(128));
        let f2 = d2.create_file().unwrap();
        let a2 = d2.allocate(f2, 4).unwrap();
        d2.free(f2, a2, 4);
        let b2 = d2.allocate(f2, 2).unwrap();
        assert_eq!(b2, 4, "without reuse the file keeps growing");
        assert_eq!(d2.freed_blocks(f2), 4);
    }

    #[test]
    fn bad_buffer_sizes_are_rejected() {
        let d = disk(128);
        let f = d.create_file().unwrap();
        d.allocate(f, 1).unwrap();
        assert!(d.write(f, 0, BlockKind::Leaf, &[0u8; 64]).is_err());
    }

    #[test]
    fn concurrent_readers_observe_consistent_blocks_and_counters() {
        // 8 reader threads over a frozen set of blocks: every read must
        // return an untorn block and the device-time counter must equal the
        // flat per-read charge times the device read count (no torn or
        // double-charged statistics).
        let d = Disk::in_memory(
            DiskConfig::with_block_size(128)
                .device(DeviceModel::custom("flat", 1, 7, 1))
                .buffer_blocks(8),
        );
        let f = d.create_file().unwrap();
        d.allocate(f, 32).unwrap();
        for b in 0..32u32 {
            d.write(f, b, BlockKind::Leaf, &[(b % 251) as u8; 128]).unwrap();
        }
        let write_ns = d.stats().device_ns();
        let d = &d;
        std::thread::scope(|s| {
            for t in 0..8u32 {
                s.spawn(move || {
                    for round in 0..400u32 {
                        let b = (round.wrapping_mul(13) + t * 5) % 32;
                        let buf = d.read_ref(f, b, BlockKind::Leaf).unwrap();
                        assert!(
                            buf.iter().all(|&x| x == (b % 251) as u8),
                            "torn read of block {b}"
                        );
                    }
                });
            }
        });
        let served = d.stats().reads() + d.stats().buffer_hits();
        assert_eq!(served, 8 * 400, "every read must be accounted exactly once");
        assert_eq!(
            d.stats().device_ns() - write_ns,
            d.stats().reads(),
            "flat 1ns-per-read model: device time must equal the device read count"
        );
    }

    #[test]
    fn read_ref_is_zero_copy_on_pool_hits() {
        let d = Disk::in_memory(DiskConfig::with_block_size(128).buffer_blocks(8));
        let f = d.create_file().unwrap();
        d.allocate(f, 2).unwrap();
        d.write(f, 0, BlockKind::Leaf, &[9u8; 128]).unwrap();
        d.stats().reset();
        let first = d.read_ref(f, 0, BlockKind::Leaf).unwrap();
        let second = d.read_ref(f, 0, BlockKind::Leaf).unwrap();
        assert_eq!(&first[..], &[9u8; 128]);
        assert_eq!(&second[..], &[9u8; 128]);
        assert_eq!(d.stats().bytes_copied(), 0, "read_ref must never copy into caller buffers");
        assert_eq!(d.stats().frames_pinned(), 2, "every served read pins exactly one frame");
        // The write-through populated the pool, so both reads are hits.
        assert_eq!(d.stats().buffer_hits(), 2);
        assert_eq!(d.stats().reads(), 0);
    }

    #[test]
    fn pinned_frame_survives_eviction_free_and_overwrite() {
        // Pool of 4 blocks: read block 0, pin its frame, then evict it by
        // churning through many other blocks, free it and overwrite it. The
        // pinned frame must keep the original bytes throughout.
        let d = Disk::in_memory(DiskConfig::with_block_size(128).buffer_blocks(4));
        let f = d.create_file().unwrap();
        d.allocate(f, 16).unwrap();
        d.write(f, 0, BlockKind::Leaf, &[42u8; 128]).unwrap();
        let pinned = d.read_ref(f, 0, BlockKind::Leaf).unwrap();
        assert_eq!(&pinned[..], &[42u8; 128]);
        for b in 1..16u32 {
            d.read_ref(f, b, BlockKind::Leaf).unwrap();
        }
        d.free(f, 0, 1);
        d.write(f, 0, BlockKind::Leaf, &[7u8; 128]).unwrap();
        assert_eq!(&pinned[..], &[42u8; 128], "pinned snapshot must be immutable");
        // New readers observe the new contents.
        let fresh = d.read_ref(f, 0, BlockKind::Leaf).unwrap();
        assert_eq!(&fresh[..], &[7u8; 128]);
        // The pin is the only remaining owner of the old frame (clone-count
        // visibility for the lazy-free contract).
        assert_eq!(pinned.ref_count(), 1);
    }

    #[test]
    fn scan_readahead_charges_one_wave_per_extent() {
        // depth 4, random 100 / seq 5: an 8-block scan costs one random wave
        // (the demand miss, prefetching 3 more) plus one sequential wave
        // (the next demand miss at the readahead edge is sequential), i.e.
        // 100 + 5 instead of 100 + 7 * 5 sequential charges.
        let d = Disk::in_memory(
            DiskConfig::with_block_size(128)
                .device(DeviceModel::custom("t", 100, 1, 5))
                .queue_depth(4),
        );
        let f = d.create_file().unwrap();
        d.allocate(f, 8).unwrap();
        for b in 0..8u32 {
            d.write(f, b, BlockKind::Leaf, &[(b + 1) as u8; 128]).unwrap();
        }
        d.stats().reset();
        d.reset_access_state();
        let mut cursor = d.scan_cursor();
        for b in 0..8u32 {
            let frame = cursor.read(f, b, BlockKind::Leaf).unwrap();
            assert!(frame.iter().all(|&x| x == (b + 1) as u8), "block {b}");
        }
        assert_eq!(d.stats().reads(), 8, "readahead never changes the fetched-block count");
        assert_eq!(d.stats().readahead_hits(), 6, "blocks 1-3 and 5-7 come from readahead");
        assert_eq!(d.stats().device_ns(), 100 + 5, "two waves: one random, one sequential");
        assert_eq!(d.stats().scan_reads(), 8);

        // Depth 1 on the same access pattern keeps today's per-block charges.
        let d1 = Disk::in_memory(
            DiskConfig::with_block_size(128).device(DeviceModel::custom("t", 100, 1, 5)),
        );
        let f1 = d1.create_file().unwrap();
        d1.allocate(f1, 8).unwrap();
        for b in 0..8u32 {
            d1.write(f1, b, BlockKind::Leaf, &[0u8; 128]).unwrap();
        }
        d1.stats().reset();
        d1.reset_access_state();
        let mut cursor = d1.scan_cursor();
        for b in 0..8u32 {
            cursor.read(f1, b, BlockKind::Leaf).unwrap();
        }
        assert_eq!(d1.stats().device_ns(), 100 + 7 * 5);
        assert_eq!(d1.stats().readahead_hits(), 0);
    }

    #[test]
    fn freeing_and_overwriting_invalidate_parked_readahead_frames() {
        let d = Disk::in_memory(
            DiskConfig::with_block_size(128)
                .device(DeviceModel::custom("t", 100, 1, 5))
                .queue_depth(4),
        );
        let f = d.create_file().unwrap();
        d.allocate(f, 8).unwrap();
        for b in 0..8u32 {
            d.write(f, b, BlockKind::Leaf, &[1u8; 128]).unwrap();
        }
        d.reset_access_state();
        // Park blocks 1..=3 via the scan readahead.
        d.scan_cursor().read(f, 0, BlockKind::Leaf).unwrap();
        // Overwrite block 1: its parked frame must not be served.
        d.write(f, 1, BlockKind::Leaf, &[9u8; 128]).unwrap();
        let mut cursor = d.scan_cursor();
        let frame = cursor.read(f, 1, BlockKind::Leaf).unwrap();
        assert!(frame.iter().all(|&x| x == 9), "stale readahead frame served after overwrite");
        // Free blocks 2..=3: their parked frames must be dropped too. (A
        // point read avoids kicking off another readahead wave here, so the
        // fetch count moves by exactly one.)
        d.free(f, 2, 2);
        let before = d.stats().reads();
        d.read_ref(f, 2, BlockKind::Leaf).unwrap();
        assert_eq!(d.stats().reads(), before + 1, "freed block must be re-fetched");
    }

    #[test]
    fn sequential_hints_shield_concurrent_scans_from_each_other() {
        // Two threads each stream their own contiguous 64-block file. With
        // hint-carrying reads every fetch after a thread's first is charged
        // sequential regardless of how the threads interleave on the shared
        // last-access word. (Auto detection would let the interleaving turn
        // nearly every fetch into a random charge.)
        let d = Disk::in_memory(
            DiskConfig::with_block_size(128).device(DeviceModel::custom("t", 1_000, 1, 7)),
        );
        let f0 = d.create_file().unwrap();
        let f1 = d.create_file().unwrap();
        for f in [f0, f1] {
            d.allocate(f, 64).unwrap();
            for b in 0..64u32 {
                d.write(f, b, BlockKind::Leaf, &[3u8; 128]).unwrap();
            }
        }
        d.stats().reset();
        d.reset_access_state();
        let d = &d;
        std::thread::scope(|s| {
            for f in [f0, f1] {
                s.spawn(move || {
                    for b in 0..64u32 {
                        let hint = if b == 0 { SeqHint::Random } else { SeqHint::Sequential };
                        d.read_ref_hinted(f, b, BlockKind::Leaf, AccessClass::Scan, hint).unwrap();
                    }
                });
            }
        });
        assert_eq!(d.stats().reads(), 128);
        assert_eq!(
            d.stats().device_ns(),
            2 * (1_000 + 63 * 7),
            "each scan pays one random seek plus 63 sequential charges, \
             independent of thread interleaving"
        );
    }

    #[test]
    fn simulated_latency_blocks_for_the_charged_time() {
        let d = Disk::in_memory(
            DiskConfig::with_block_size(128)
                .device(DeviceModel::custom("slow", 2_000_000, 0, 2_000_000))
                .simulate_latency(true),
        );
        let f = d.create_file().unwrap();
        d.allocate(f, 1).unwrap();
        let t0 = std::time::Instant::now();
        for _ in 0..5 {
            d.read_ref(f, 0, BlockKind::Leaf).unwrap();
        }
        assert!(
            t0.elapsed() >= Duration::from_millis(10),
            "5 reads at 2ms each must block for at least 10ms"
        );
        assert_eq!(d.stats().device_ns(), 5 * 2_000_000);
    }

    /// One block on a disk that realises `read_ns` per random read.
    fn sleeping_disk(read_ns: u64) -> (Arc<Disk>, FileId) {
        let d = Disk::in_memory(
            DiskConfig::with_block_size(128)
                .device(DeviceModel::custom("clock", read_ns, 0, read_ns))
                .simulate_latency(true),
        );
        let f = d.create_file().unwrap();
        d.allocate(f, 1).unwrap();
        (d, f)
    }

    /// The device clock waits the modeled time, not the kernel's rounding
    /// of it: 200 reads of 100 µs cost 20 ms plus at most one sleep's
    /// overrun, where 200 plain sleeps took 31–36 ms on a 2-vCPU VM (each
    /// ran 50–90 µs long under Linux's default 50 µs timer slack). A fresh
    /// thread starts with no credit, so the lower bound is exact; the upper
    /// bound is read from the median of five runs, which rides out a
    /// descheduled thread.
    #[test]
    fn the_device_clock_waits_the_modeled_time() {
        let (d, f) = sleeping_disk(100_000);
        let mut runs: Vec<Duration> = (0..5)
            .map(|_| {
                std::thread::scope(|s| {
                    s.spawn(|| {
                        let t0 = Instant::now();
                        for _ in 0..200 {
                            d.read_ref(f, 0, BlockKind::Leaf).unwrap();
                        }
                        t0.elapsed()
                    })
                    .join()
                    .unwrap()
                })
            })
            .collect();
        assert!(
            runs.iter().all(|&r| r >= Duration::from_millis(20)),
            "a run waited less than its 20 ms of device time: {runs:?}"
        );
        runs.sort_unstable();
        assert!(
            runs[2] <= Duration::from_millis(25),
            "the median run overran 20 ms of device time by more than 5 ms: {runs:?}"
        );
        assert_eq!(d.stats().device_ns(), 5 * 200 * 100_000);
    }

    /// The clock sleeps rather than spins, so threads overlap their device
    /// waits even on fewer cores than threads: 4 threads × 25 reads of 2 ms
    /// finish in about 50 ms. Spinning on 2 cores would take about 100 ms.
    #[test]
    fn threads_overlap_their_device_waits() {
        let (d, f) = sleeping_disk(2_000_000);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        d.read_ref(f, 0, BlockKind::Leaf).unwrap();
                    }
                });
            }
        });
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(75), "4 × 50 ms of waits took {took:?}");
        assert_eq!(d.stats().device_ns(), 4 * 25 * 2_000_000);
    }
}

#[cfg(test)]
mod scan_tests {
    use super::*;

    /// Strict LRU is scan-vulnerable, and the pool is strict LRU whatever
    /// the access class: a full-table scan streams every data block through
    /// the pool and flushes the hot set, even one referenced twice. Serving
    /// it again costs one device read per hot block — the textbook LRU
    /// behaviour the ledger's `scan_cold` workload measures.
    #[test]
    fn a_full_table_scan_flushes_the_lru_hot_set() {
        let d = Disk::in_memory(DiskConfig::with_block_size(128).buffer_blocks(8));
        let f = d.create_file().unwrap();
        d.allocate(f, 256).unwrap();
        // Hot blocks 0..4, referenced twice.
        for _ in 0..2 {
            for b in 0..4u32 {
                d.read_ref(f, b, BlockKind::Leaf).unwrap();
            }
        }
        // Scan the table.
        let mut cursor = d.scan_cursor();
        for b in 4..256u32 {
            cursor.read(f, b, BlockKind::Leaf).unwrap();
        }
        assert_eq!(d.stats().scan_reads(), 252, "scans must announce themselves");
        // Count device reads needed to serve the hot set again.
        let before = d.stats().reads();
        for b in 0..4u32 {
            d.read_ref(f, b, BlockKind::Leaf).unwrap();
        }
        assert_eq!(d.stats().reads() - before, 4, "strict LRU must have lost the hot set");
    }

    /// The pool ignores the access class: a scan-class hit refreshes a
    /// block's recency exactly like a point hit.
    #[test]
    fn scan_class_hits_refresh_recency_like_point_hits() {
        let d = Disk::in_memory(DiskConfig::with_block_size(128).buffer_blocks(4));
        let f = d.create_file().unwrap();
        d.allocate(f, 8).unwrap();
        for b in 0..4u32 {
            d.read_ref(f, b, BlockKind::Leaf).unwrap();
        }
        // Block 0 is least recently used until a scan-class hit refreshes it;
        // admitting block 4 then evicts block 1 instead.
        let before = d.stats().reads();
        d.scan_cursor().read(f, 0, BlockKind::Leaf).unwrap();
        assert_eq!(d.stats().reads(), before, "a resident block is a pool hit");
        d.read_ref(f, 4, BlockKind::Leaf).unwrap();
        let before = d.stats().reads();
        d.read_ref(f, 0, BlockKind::Leaf).unwrap();
        assert_eq!(d.stats().reads(), before, "the scan-class hit kept block 0");
        d.read_ref(f, 1, BlockKind::Leaf).unwrap();
        assert_eq!(d.stats().reads(), before + 1, "block 1 was the victim");
    }

    /// The class is what decides readahead: at queue depth 4, point-class
    /// misses over a contiguous range fetch block by block, while the same
    /// range read scan-class rides readahead waves.
    #[test]
    fn only_scan_class_misses_read_ahead() {
        let run = |class: AccessClass| {
            let d = Disk::in_memory(
                DiskConfig::with_block_size(128)
                    .device(DeviceModel::custom("t", 100, 1, 5))
                    .queue_depth(4),
            );
            let f = d.create_file().unwrap();
            d.allocate(f, 8).unwrap();
            d.stats().reset();
            d.reset_access_state();
            for b in 0..8u32 {
                d.read_ref_hinted(f, b, BlockKind::Leaf, class, SeqHint::Auto).unwrap();
            }
            let s = d.stats();
            (s.reads(), s.readahead_hits(), s.device_ns(), s.scan_reads())
        };
        assert_eq!(run(AccessClass::Point), (8, 0, 100 + 7 * 5, 0));
        assert_eq!(run(AccessClass::Scan), (8, 6, 100 + 5, 8));
    }

    /// `scan_reads` counts scan-class requests, whichever cache rung (or
    /// the device) serves them; point-class reads never count.
    #[test]
    fn scan_reads_count_every_scan_class_request_hit_or_miss() {
        let d = Disk::in_memory(DiskConfig::with_block_size(128).buffer_blocks(4));
        let f = d.create_file().unwrap();
        d.allocate(f, 2).unwrap();
        d.scan_cursor().read(f, 0, BlockKind::Leaf).unwrap();
        d.scan_cursor().read(f, 0, BlockKind::Leaf).unwrap();
        d.read_ref(f, 1, BlockKind::Leaf).unwrap();
        d.read_ref(f, 1, BlockKind::Leaf).unwrap();
        assert_eq!(d.stats().scan_reads(), 2);
        assert_eq!(d.stats().reads(), 2);
        assert_eq!(d.stats().buffer_hits(), 2);
    }
}

#[cfg(test)]
mod memory_resident_tests {
    use super::*;

    #[test]
    fn memory_resident_kinds_are_not_charged() {
        let cfg = DiskConfig::with_block_size(128)
            .device(DeviceModel::custom("t", 100, 100, 100))
            .memory_resident(&[BlockKind::Inner, BlockKind::Meta]);
        let d = Disk::in_memory(cfg);
        let f = d.create_file().unwrap();
        d.allocate(f, 4).unwrap();
        let data = vec![7u8; 128];
        // Inner and meta I/O is free; leaf I/O is charged.
        d.write(f, 0, BlockKind::Inner, &data).unwrap();
        d.write(f, 1, BlockKind::Meta, &data).unwrap();
        d.write(f, 2, BlockKind::Leaf, &data).unwrap();
        let inner = d.read_ref(f, 0, BlockKind::Inner).unwrap();
        assert_eq!(&inner[..], &data[..], "memory-resident reads still return real contents");
        d.read_ref(f, 2, BlockKind::Leaf).unwrap();
        assert_eq!(d.stats().reads(), 1);
        assert_eq!(d.stats().writes(), 1);
        assert_eq!(d.stats().writes_of(BlockKind::Leaf), 1);
        assert_eq!(d.stats().device_ns(), 200);
    }
}

#[cfg(test)]
mod durable_tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lidx-disk-{tag}-{}", std::process::id()))
    }

    fn create(dir: &std::path::Path, config: DiskConfig, plan: Option<FaultPlan>) -> Arc<Disk> {
        Disk::open_durable(dir, config, plan, DurableMode::Create).unwrap().0
    }

    fn reopen(dir: &std::path::Path, config: DiskConfig) -> (Arc<Disk>, Superblock) {
        let (disk, sb) = Disk::open_durable(dir, config, None, DurableMode::Open).unwrap();
        (disk, sb.expect("an open returns its superblock"))
    }

    #[test]
    fn durable_disk_round_trips_through_restart() {
        let dir = tempdir("roundtrip");
        let meta = b"index manifest bytes".to_vec();
        {
            let d = create(&dir, DiskConfig::with_block_size(256), None);
            let f = d.create_file().unwrap();
            d.allocate(f, 4).unwrap();
            let mut data = vec![0u8; 256];
            data[..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
            d.write(f, 2, BlockKind::Leaf, &data).unwrap();
            d.persist(&meta, true).unwrap();
        }
        let (d, sb) = reopen(&dir, DiskConfig::with_block_size(256));
        assert_eq!(sb.meta, meta);
        assert!(sb.clean_shutdown);
        assert_eq!(sb.file_blocks, vec![4]);
        assert_eq!(d.num_blocks(0).unwrap(), 4);
        let out = d.read_ref(0, 2, BlockKind::Leaf).unwrap();
        assert_eq!(&out[..4], &0xDEAD_BEEFu32.to_le_bytes());
        // Never-written blocks carry no stamp and read back as zeros.
        assert_eq!(&d.read_ref(0, 3, BlockKind::Leaf).unwrap()[..], &[0u8; 256]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persist_bumps_generation_and_newest_wins() {
        let dir = tempdir("generations");
        let d = create(&dir, DiskConfig::with_block_size(128), None);
        let f = d.create_file().unwrap();
        d.allocate(f, 1).unwrap();
        d.persist(b"first", false).unwrap();
        d.persist(b"second", true).unwrap();
        drop(d);
        let (_d, sb) = reopen(&dir, DiskConfig::with_block_size(128));
        assert_eq!(sb.meta, b"second");
        assert_eq!(sb.generation, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_on_read_is_a_checksum_mismatch() {
        let dir = tempdir("bitflip");
        let plan = FaultPlan::new();
        let d = create(&dir, DiskConfig::with_block_size(128), Some(plan.clone()));
        let f = d.create_file().unwrap();
        d.allocate(f, 1).unwrap();
        d.write(f, 0, BlockKind::Leaf, &[9u8; 128]).unwrap();
        d.clear_buffer();
        d.reset_access_state();
        plan.flip_read_bit(1, 5);
        let err = d.read_ref(f, 0, BlockKind::Leaf).unwrap_err();
        assert!(matches!(err, StorageError::ChecksumMismatch { file: 0, block: 0 }), "{err}");
        assert_eq!(d.stats().checksum_failures(), 1);
        // With the fault disarmed the block reads back intact.
        plan.clear();
        d.clear_buffer();
        d.reset_access_state();
        assert_eq!(&d.read_ref(f, 0, BlockKind::Leaf).unwrap()[..], &[9u8; 128]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_read_errors_are_retried_with_backoff() {
        let dir = tempdir("transient");
        let plan = FaultPlan::new();
        let d = create(&dir, DiskConfig::with_block_size(128), Some(plan.clone()));
        let f = d.create_file().unwrap();
        d.allocate(f, 1).unwrap();
        d.write(f, 0, BlockKind::Leaf, &[3u8; 128]).unwrap();
        d.clear_buffer();
        d.reset_access_state();
        plan.transient_read_errors(2);
        assert_eq!(&d.read_ref(f, 0, BlockKind::Leaf).unwrap()[..], &[3u8; 128]);
        assert_eq!(d.stats().io_retries(), 2);
        assert_eq!(plan.transients_served(), 2);

        // More consecutive transients than the retry budget surface a typed
        // error instead of hanging or panicking.
        d.clear_buffer();
        d.reset_access_state();
        plan.transient_read_errors(64);
        let err = d.read_ref(f, 0, BlockKind::Leaf).unwrap_err();
        assert!(matches!(err, StorageError::Transient(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_invalidates_readahead_and_pool() {
        let dir = tempdir("invalidate");
        let cfg = DiskConfig::with_block_size(128).buffer_blocks(64);
        {
            let d = create(&dir, cfg, None);
            let f = d.create_file().unwrap();
            d.allocate(f, 8).unwrap();
            for b in 0..8 {
                d.write(f, b, BlockKind::Leaf, &[b as u8; 128]).unwrap();
            }
            d.persist(&[], true).unwrap();
        }
        // Mutate the files behind the disk's back between sessions, as a
        // recovery replay would: a reopened disk must not serve stale frames.
        {
            let d = create(&dir, cfg, None);
            drop(d); // a create wipes; rebuild the file fresh
        }
        let (d, _sb) = {
            let d = create(&dir, cfg, None);
            let f = d.create_file().unwrap();
            d.allocate(f, 8).unwrap();
            for b in 0..8 {
                d.write(f, b, BlockKind::Leaf, &[0xA0 | b as u8; 128]).unwrap();
            }
            d.persist(&[], true).unwrap();
            drop(d);
            reopen(&dir, cfg)
        };
        for b in 0..8u32 {
            let got = d.read_ref(0, b, BlockKind::Leaf).unwrap();
            assert_eq!(&got[..], &[0xA0 | b as u8; 128], "block {b} must come from the device");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
