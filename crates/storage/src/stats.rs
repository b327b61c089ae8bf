//! I/O accounting.
//!
//! Every comparative result in the paper ultimately reduces to *how many
//! blocks were fetched or written* (observations O1, O4, O13). The
//! [`IoStats`] structure therefore records reads and writes both globally and
//! attributed to a [`BlockKind`], so the harness can reproduce the
//! inner-vs-leaf breakdowns of Table 4 and the write breakdown of Fig. 6.

use std::sync::atomic::{AtomicU64, Ordering};

/// The role a block plays inside an index, used to attribute I/O.
///
/// The paper breaks fetched blocks into inner-node blocks and leaf-node
/// blocks (Table 4) and separately calls out "utility" structures such as the
/// ALEX bitmap (S3). `Meta` covers the per-index meta block holding the root
/// address, which the paper assumes to be memory-resident during operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// The index meta block (root pointer and other bookkeeping).
    Meta,
    /// Blocks belonging to inner (routing) nodes.
    Inner,
    /// Blocks belonging to leaf / data nodes.
    Leaf,
    /// Auxiliary structures: ALEX bitmaps, delta buffers, LSM insert runs.
    Utility,
}

impl BlockKind {
    /// All kinds, in a stable order used for reporting.
    pub const ALL: [BlockKind; 4] =
        [BlockKind::Meta, BlockKind::Inner, BlockKind::Leaf, BlockKind::Utility];

    fn idx(self) -> usize {
        match self {
            BlockKind::Meta => 0,
            BlockKind::Inner => 1,
            BlockKind::Leaf => 2,
            BlockKind::Utility => 3,
        }
    }

    /// Human-readable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            BlockKind::Meta => "meta",
            BlockKind::Inner => "inner",
            BlockKind::Leaf => "leaf",
            BlockKind::Utility => "utility",
        }
    }
}

/// Aggregate I/O counters for one [`crate::Disk`] instance.
///
/// The counters are atomics so a `Disk` can be shared behind an `Arc` without
/// forcing `&mut` plumbing through the index implementations.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: [AtomicU64; 4],
    writes: [AtomicU64; 4],
    /// Reads that were served by the buffer pool (not charged to the device).
    buffer_hits: AtomicU64,
    /// Queued reads served by a frame already in flight: a duplicate of a
    /// block the same completion wave is fetching.
    reuse_hits: AtomicU64,
    allocated_blocks: AtomicU64,
    freed_blocks: AtomicU64,
    /// Simulated device time in nanoseconds.
    device_ns: AtomicU64,
    /// Bytes memcpy'd into caller-provided buffers by a read. Every read
    /// hands out a pinned frame instead, so nothing increments this any
    /// more: it reads 0, which is how the "no per-hit copy" claim stays
    /// observable, and the perf ledger still prints it.
    bytes_copied: AtomicU64,
    /// Pinned block frames ([`crate::buffer::BlockRef`]) handed out by the
    /// disk — every read request it serves (including memory-resident reads)
    /// pins exactly one frame.
    frames_pinned: AtomicU64,
    /// Scan-class read requests (whether they were served by the device, the
    /// pool or the readahead cache): the `Leaf` and `Utility` reads of a
    /// [`crate::Disk::scan_cursor`], which the disk reads ahead along at
    /// queue depth > 1; this counter makes the class observable, so "scans
    /// announce themselves" is a tested invariant.
    scan_reads: AtomicU64,
    /// Exclusive drain chunks applied through a concurrent write front (one
    /// per `insert_batch` call made under the index write lock).
    drain_chunks: AtomicU64,
    /// Entries carried by those drain chunks.
    drain_entries: AtomicU64,
    /// Reader-side stalls: overlay reads that found the index write lock
    /// held (a drain chunk in flight) and had to block for it.
    read_stalls: AtomicU64,
    /// Writer-side stalls: stage or drain steps that found their target lock
    /// (shard mutex or index write lock) contended and had to block for it.
    write_stalls: AtomicU64,
    /// Read requests the outstanding-read engine accepted, whether they
    /// missed, hit a cache at submit or were skipped prefetches.
    ios_submitted: AtomicU64,
    /// Requests retired by the outstanding-read engine (delivered frames,
    /// cache hits and parked readahead frames alike); a hit or a skipped
    /// prefetch retires at submit.
    ios_completed: AtomicU64,
    /// High-water mark of device fetches in flight within one completion
    /// wave — the effective queue depth actually reached.
    max_inflight: AtomicU64,
    /// Device nanoseconds saved by overlapping a wave's fetches: the sum of
    /// the wave's per-block costs minus the max actually charged.
    overlap_saved_ns: AtomicU64,
    /// Reads served from the readahead cache (frames parked by an earlier
    /// prefetch wave instead of fetched on demand).
    readahead_hits: AtomicU64,
    /// Records appended to a write-ahead-log segment.
    wal_appends: AtomicU64,
    /// Payload + record-header bytes appended to WAL segments.
    wal_bytes: AtomicU64,
    /// Entries re-staged from WAL segments during recovery replay.
    replayed_entries: AtomicU64,
    /// Group-commit syncs that actually forced a dirty WAL tail to the
    /// device (clean-tail syncs are free and not counted). Each one also
    /// records a `wal_sync` pause span in the disk's telemetry registry.
    wal_syncs: AtomicU64,
    /// Durable checkpoints written (meta save + superblock persist + WAL
    /// truncate). Each one also records a `checkpoint` pause span in the
    /// disk's telemetry registry.
    checkpoints: AtomicU64,
    /// Verified reads whose block stamp failed (torn or bit-flipped block).
    checksum_failures: AtomicU64,
    /// Transient device read errors absorbed by the bounded-backoff retry
    /// loop (each retry attempt counts once, whether it succeeded or not).
    io_retries: AtomicU64,
}

impl IoStats {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event; normally called by [`crate::Disk`], public so
    /// harnesses and tests can account synthetic I/O.
    pub fn record_read(&self, kind: BlockKind) {
        self.reads[kind.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one event; normally called by [`crate::Disk`], public so
    /// harnesses and tests can account synthetic I/O.
    pub fn record_write(&self, kind: BlockKind) {
        self.writes[kind.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one event; normally called by [`crate::Disk`], public so
    /// harnesses and tests can account synthetic I/O.
    pub fn record_buffer_hit(&self) {
        self.buffer_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one event; normally called by [`crate::Disk`], public so
    /// harnesses and tests can account synthetic I/O.
    pub fn record_reuse_hit(&self) {
        self.reuse_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one event; normally called by [`crate::Disk`], public so
    /// harnesses and tests can account synthetic I/O.
    pub fn record_alloc(&self, blocks: u64) {
        self.allocated_blocks.fetch_add(blocks, Ordering::Relaxed);
    }

    /// Records one event; normally called by [`crate::Disk`], public so
    /// harnesses and tests can account synthetic I/O.
    pub fn record_free(&self, blocks: u64) {
        self.freed_blocks.fetch_add(blocks, Ordering::Relaxed);
    }

    /// Records one event; normally called by [`crate::Disk`], public so
    /// harnesses and tests can account synthetic I/O.
    pub fn record_device_ns(&self, ns: u64) {
        self.device_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one event; normally called by [`crate::Disk`], public so
    /// harnesses and tests can account synthetic I/O.
    pub fn record_bytes_copied(&self, bytes: u64) {
        self.bytes_copied.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one event; normally called by [`crate::Disk`], public so
    /// harnesses and tests can account synthetic I/O.
    pub fn record_frame_pinned(&self) {
        self.frames_pinned.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one event; normally called by [`crate::Disk`], public so
    /// harnesses and tests can account synthetic I/O.
    pub fn record_scan_read(&self) {
        self.scan_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one exclusive drain chunk of `entries` entries applied by a
    /// concurrent write front.
    pub fn record_drain_chunk(&self, entries: u64) {
        self.drain_chunks.fetch_add(1, Ordering::Relaxed);
        self.drain_entries.fetch_add(entries, Ordering::Relaxed);
    }

    /// Records one reader-side stall (an overlay read blocked on the index
    /// write lock).
    pub fn record_read_stall(&self) {
        self.read_stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one writer-side stall (a stage or drain step blocked on a
    /// contended lock).
    pub fn record_write_stall(&self) {
        self.write_stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` requests entering the outstanding-read engine.
    pub fn record_ios_submitted(&self, n: u64) {
        self.ios_submitted.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` requests retired by the outstanding-read engine.
    pub fn record_ios_completed(&self, n: u64) {
        self.ios_completed.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the in-flight high-water mark to `n` if it is larger than the
    /// current value.
    pub fn note_inflight(&self, n: u64) {
        self.max_inflight.fetch_max(n, Ordering::Relaxed);
    }

    /// Records device nanoseconds saved by overlapping a wave's fetches.
    pub fn record_overlap_saved_ns(&self, ns: u64) {
        self.overlap_saved_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one read served from the readahead cache.
    pub fn record_readahead_hit(&self) {
        self.readahead_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one WAL record append of `bytes` bytes (header + payload).
    pub fn record_wal_append(&self, bytes: u64) {
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `n` entries re-staged from a WAL during recovery replay.
    pub fn record_replayed_entries(&self, n: u64) {
        self.replayed_entries.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one group-commit WAL sync that flushed a dirty tail.
    pub fn record_wal_sync(&self) {
        self.wal_syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one durable checkpoint.
    pub fn record_checkpoint(&self) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one verified read whose block stamp failed.
    pub fn record_checksum_failure(&self) {
        self.checksum_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retry of a transiently failing device read.
    pub fn record_io_retry(&self) {
        self.io_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Total device reads (all kinds), excluding cache and reuse hits.
    pub fn reads(&self) -> u64 {
        self.reads.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Total device writes (all kinds).
    pub fn writes(&self) -> u64 {
        self.writes.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Device reads attributed to one block kind.
    pub fn reads_of(&self, kind: BlockKind) -> u64 {
        self.reads[kind.idx()].load(Ordering::Relaxed)
    }

    /// Device writes attributed to one block kind.
    pub fn writes_of(&self, kind: BlockKind) -> u64 {
        self.writes[kind.idx()].load(Ordering::Relaxed)
    }

    /// Number of reads satisfied by the LRU buffer pool.
    pub fn buffer_hits(&self) -> u64 {
        self.buffer_hits.load(Ordering::Relaxed)
    }

    /// Number of queued reads that shared the frame of a duplicate request
    /// already in their completion wave ([`crate::ReadQueue::submit`]): the
    /// only producer of a reuse hit. The §6.5 re-read of the block read last,
    /// which an operation's [`crate::BlockCursor`] answers, is not a request,
    /// so it is not counted.
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits.load(Ordering::Relaxed)
    }

    /// Blocks allocated so far (never decremented; the paper notes on-disk
    /// space is not reclaimed, §6.3).
    pub fn allocated_blocks(&self) -> u64 {
        self.allocated_blocks.load(Ordering::Relaxed)
    }

    /// Blocks marked invalid by structural modification operations.
    pub fn freed_blocks(&self) -> u64 {
        self.freed_blocks.load(Ordering::Relaxed)
    }

    /// Accumulated simulated device time, in nanoseconds.
    pub fn device_ns(&self) -> u64 {
        self.device_ns.load(Ordering::Relaxed)
    }

    /// Bytes copied into caller buffers by a read: 0, since every read
    /// pins a frame instead.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied.load(Ordering::Relaxed)
    }

    /// Pinned frames handed out by the read path. A re-read within one walk
    /// that a [`crate::BlockCursor`] answers is not a request: it hands back
    /// the frame the walk holds and is not counted.
    pub fn frames_pinned(&self) -> u64 {
        self.frames_pinned.load(Ordering::Relaxed)
    }

    /// Read requests tagged as part of a scan stream. A re-read within one
    /// walk that a [`crate::BlockCursor`] answers is not a request, so it is
    /// not counted.
    pub fn scan_reads(&self) -> u64 {
        self.scan_reads.load(Ordering::Relaxed)
    }

    /// Exclusive drain chunks applied by a concurrent write front.
    pub fn drain_chunks(&self) -> u64 {
        self.drain_chunks.load(Ordering::Relaxed)
    }

    /// Entries carried by those drain chunks.
    pub fn drain_entries(&self) -> u64 {
        self.drain_entries.load(Ordering::Relaxed)
    }

    /// Reader-side stalls on the index write lock.
    pub fn read_stalls(&self) -> u64 {
        self.read_stalls.load(Ordering::Relaxed)
    }

    /// Writer-side stalls on contended shard or index locks.
    pub fn write_stalls(&self) -> u64 {
        self.write_stalls.load(Ordering::Relaxed)
    }

    /// Requests submitted to the outstanding-read engine.
    pub fn ios_submitted(&self) -> u64 {
        self.ios_submitted.load(Ordering::Relaxed)
    }

    /// Requests retired by the outstanding-read engine.
    pub fn ios_completed(&self) -> u64 {
        self.ios_completed.load(Ordering::Relaxed)
    }

    /// High-water mark of device fetches in flight within one wave.
    pub fn max_inflight(&self) -> u64 {
        self.max_inflight.load(Ordering::Relaxed)
    }

    /// Device nanoseconds saved by overlapping wave fetches.
    pub fn overlap_saved_ns(&self) -> u64 {
        self.overlap_saved_ns.load(Ordering::Relaxed)
    }

    /// Reads served from the readahead cache.
    pub fn readahead_hits(&self) -> u64 {
        self.readahead_hits.load(Ordering::Relaxed)
    }

    /// Records appended to WAL segments.
    pub fn wal_appends(&self) -> u64 {
        self.wal_appends.load(Ordering::Relaxed)
    }

    /// Bytes appended to WAL segments (record headers included).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes.load(Ordering::Relaxed)
    }

    /// Entries re-staged from WAL segments during recovery replay.
    pub fn replayed_entries(&self) -> u64 {
        self.replayed_entries.load(Ordering::Relaxed)
    }

    /// Group-commit syncs that flushed a dirty WAL tail.
    pub fn wal_syncs(&self) -> u64 {
        self.wal_syncs.load(Ordering::Relaxed)
    }

    /// Durable checkpoints written.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Verified reads whose block stamp failed.
    pub fn checksum_failures(&self) -> u64 {
        self.checksum_failures.load(Ordering::Relaxed)
    }

    /// Transient read errors absorbed by the retry loop.
    pub fn io_retries(&self) -> u64 {
        self.io_retries.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter, used to compute per-operation
    /// deltas.
    pub fn snapshot(&self) -> OpStats {
        OpStats {
            reads: std::array::from_fn(|i| self.reads[i].load(Ordering::Relaxed)),
            writes: std::array::from_fn(|i| self.writes[i].load(Ordering::Relaxed)),
            buffer_hits: self.buffer_hits.load(Ordering::Relaxed),
            reuse_hits: self.reuse_hits.load(Ordering::Relaxed),
            allocated_blocks: self.allocated_blocks.load(Ordering::Relaxed),
            freed_blocks: self.freed_blocks.load(Ordering::Relaxed),
            device_ns: self.device_ns.load(Ordering::Relaxed),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            frames_pinned: self.frames_pinned.load(Ordering::Relaxed),
            scan_reads: self.scan_reads.load(Ordering::Relaxed),
            drain_chunks: self.drain_chunks.load(Ordering::Relaxed),
            drain_entries: self.drain_entries.load(Ordering::Relaxed),
            read_stalls: self.read_stalls.load(Ordering::Relaxed),
            write_stalls: self.write_stalls.load(Ordering::Relaxed),
            ios_submitted: self.ios_submitted.load(Ordering::Relaxed),
            ios_completed: self.ios_completed.load(Ordering::Relaxed),
            max_inflight: self.max_inflight.load(Ordering::Relaxed),
            overlap_saved_ns: self.overlap_saved_ns.load(Ordering::Relaxed),
            readahead_hits: self.readahead_hits.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            replayed_entries: self.replayed_entries.load(Ordering::Relaxed),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checksum_failures: self.checksum_failures.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for c in &self.reads {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.writes {
            c.store(0, Ordering::Relaxed);
        }
        self.buffer_hits.store(0, Ordering::Relaxed);
        self.reuse_hits.store(0, Ordering::Relaxed);
        self.allocated_blocks.store(0, Ordering::Relaxed);
        self.freed_blocks.store(0, Ordering::Relaxed);
        self.device_ns.store(0, Ordering::Relaxed);
        self.bytes_copied.store(0, Ordering::Relaxed);
        self.frames_pinned.store(0, Ordering::Relaxed);
        self.scan_reads.store(0, Ordering::Relaxed);
        self.drain_chunks.store(0, Ordering::Relaxed);
        self.drain_entries.store(0, Ordering::Relaxed);
        self.read_stalls.store(0, Ordering::Relaxed);
        self.write_stalls.store(0, Ordering::Relaxed);
        self.ios_submitted.store(0, Ordering::Relaxed);
        self.ios_completed.store(0, Ordering::Relaxed);
        self.max_inflight.store(0, Ordering::Relaxed);
        self.overlap_saved_ns.store(0, Ordering::Relaxed);
        self.readahead_hits.store(0, Ordering::Relaxed);
        self.wal_appends.store(0, Ordering::Relaxed);
        self.wal_bytes.store(0, Ordering::Relaxed);
        self.replayed_entries.store(0, Ordering::Relaxed);
        self.wal_syncs.store(0, Ordering::Relaxed);
        self.checkpoints.store(0, Ordering::Relaxed);
        self.checksum_failures.store(0, Ordering::Relaxed);
        self.io_retries.store(0, Ordering::Relaxed);
    }
}

/// An immutable snapshot of [`IoStats`], or the difference between two
/// snapshots (one operation's worth of I/O).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    reads: [u64; 4],
    writes: [u64; 4],
    /// Buffer pool hits during the window.
    pub buffer_hits: u64,
    /// Queued reads that shared an in-flight duplicate's frame during the
    /// window (see [`IoStats::reuse_hits`]).
    pub reuse_hits: u64,
    /// Blocks allocated during the window.
    pub allocated_blocks: u64,
    /// Blocks freed during the window.
    pub freed_blocks: u64,
    /// Simulated device nanoseconds spent during the window.
    pub device_ns: u64,
    /// Bytes copied into caller buffers by a read during the window: 0,
    /// since every read pins a frame instead.
    pub bytes_copied: u64,
    /// Pinned frames handed out during the window.
    pub frames_pinned: u64,
    /// Read requests tagged as part of a scan stream during the window.
    pub scan_reads: u64,
    /// Exclusive drain chunks applied during the window.
    pub drain_chunks: u64,
    /// Entries carried by those drain chunks during the window.
    pub drain_entries: u64,
    /// Reader-side lock stalls during the window.
    pub read_stalls: u64,
    /// Writer-side lock stalls during the window.
    pub write_stalls: u64,
    /// Requests submitted to the outstanding-read engine during the window.
    pub ios_submitted: u64,
    /// Requests retired by the outstanding-read engine during the window.
    pub ios_completed: u64,
    /// In-flight high-water mark. This is a level, not a flow: `since`
    /// reports the later snapshot's mark, not a difference.
    pub max_inflight: u64,
    /// Device nanoseconds saved by wave overlap during the window.
    pub overlap_saved_ns: u64,
    /// Readahead-cache hits during the window.
    pub readahead_hits: u64,
    /// WAL records appended during the window.
    pub wal_appends: u64,
    /// WAL bytes appended during the window.
    pub wal_bytes: u64,
    /// Entries re-staged from WAL replay during the window.
    pub replayed_entries: u64,
    /// Group-commit WAL syncs (dirty tails flushed) during the window.
    pub wal_syncs: u64,
    /// Durable checkpoints written during the window.
    pub checkpoints: u64,
    /// Checksum verification failures during the window.
    pub checksum_failures: u64,
    /// Transient-read retries during the window.
    pub io_retries: u64,
}

impl OpStats {
    /// Element-wise difference `self - earlier`, saturating at zero.
    #[must_use]
    pub fn since(&self, earlier: &OpStats) -> OpStats {
        OpStats {
            reads: std::array::from_fn(|i| self.reads[i].saturating_sub(earlier.reads[i])),
            writes: std::array::from_fn(|i| self.writes[i].saturating_sub(earlier.writes[i])),
            buffer_hits: self.buffer_hits.saturating_sub(earlier.buffer_hits),
            reuse_hits: self.reuse_hits.saturating_sub(earlier.reuse_hits),
            allocated_blocks: self.allocated_blocks.saturating_sub(earlier.allocated_blocks),
            freed_blocks: self.freed_blocks.saturating_sub(earlier.freed_blocks),
            device_ns: self.device_ns.saturating_sub(earlier.device_ns),
            bytes_copied: self.bytes_copied.saturating_sub(earlier.bytes_copied),
            frames_pinned: self.frames_pinned.saturating_sub(earlier.frames_pinned),
            scan_reads: self.scan_reads.saturating_sub(earlier.scan_reads),
            drain_chunks: self.drain_chunks.saturating_sub(earlier.drain_chunks),
            drain_entries: self.drain_entries.saturating_sub(earlier.drain_entries),
            read_stalls: self.read_stalls.saturating_sub(earlier.read_stalls),
            write_stalls: self.write_stalls.saturating_sub(earlier.write_stalls),
            ios_submitted: self.ios_submitted.saturating_sub(earlier.ios_submitted),
            ios_completed: self.ios_completed.saturating_sub(earlier.ios_completed),
            max_inflight: self.max_inflight,
            overlap_saved_ns: self.overlap_saved_ns.saturating_sub(earlier.overlap_saved_ns),
            readahead_hits: self.readahead_hits.saturating_sub(earlier.readahead_hits),
            wal_appends: self.wal_appends.saturating_sub(earlier.wal_appends),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
            replayed_entries: self.replayed_entries.saturating_sub(earlier.replayed_entries),
            wal_syncs: self.wal_syncs.saturating_sub(earlier.wal_syncs),
            checkpoints: self.checkpoints.saturating_sub(earlier.checkpoints),
            checksum_failures: self.checksum_failures.saturating_sub(earlier.checksum_failures),
            io_retries: self.io_retries.saturating_sub(earlier.io_retries),
        }
    }

    /// Element-wise sum for aggregating windows observed on *different*
    /// disks — e.g. the per-shard disks of a sharded index. Every counter
    /// is a flow and adds across disks; `max_inflight` is a level, and N
    /// side-by-side queues do not stack into one deeper queue, so the
    /// merged window reports the deepest single queue (max, not sum).
    #[must_use]
    pub fn merge(&self, other: &OpStats) -> OpStats {
        OpStats {
            reads: std::array::from_fn(|i| self.reads[i] + other.reads[i]),
            writes: std::array::from_fn(|i| self.writes[i] + other.writes[i]),
            buffer_hits: self.buffer_hits + other.buffer_hits,
            reuse_hits: self.reuse_hits + other.reuse_hits,
            allocated_blocks: self.allocated_blocks + other.allocated_blocks,
            freed_blocks: self.freed_blocks + other.freed_blocks,
            device_ns: self.device_ns + other.device_ns,
            bytes_copied: self.bytes_copied + other.bytes_copied,
            frames_pinned: self.frames_pinned + other.frames_pinned,
            scan_reads: self.scan_reads + other.scan_reads,
            drain_chunks: self.drain_chunks + other.drain_chunks,
            drain_entries: self.drain_entries + other.drain_entries,
            read_stalls: self.read_stalls + other.read_stalls,
            write_stalls: self.write_stalls + other.write_stalls,
            ios_submitted: self.ios_submitted + other.ios_submitted,
            ios_completed: self.ios_completed + other.ios_completed,
            max_inflight: self.max_inflight.max(other.max_inflight),
            overlap_saved_ns: self.overlap_saved_ns + other.overlap_saved_ns,
            readahead_hits: self.readahead_hits + other.readahead_hits,
            wal_appends: self.wal_appends + other.wal_appends,
            wal_bytes: self.wal_bytes + other.wal_bytes,
            replayed_entries: self.replayed_entries + other.replayed_entries,
            wal_syncs: self.wal_syncs + other.wal_syncs,
            checkpoints: self.checkpoints + other.checkpoints,
            checksum_failures: self.checksum_failures + other.checksum_failures,
            io_retries: self.io_retries + other.io_retries,
        }
    }

    /// Total device reads in the window.
    pub fn reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Total device writes in the window.
    pub fn writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Device reads attributed to one kind in the window.
    pub fn reads_of(&self, kind: BlockKind) -> u64 {
        self.reads[kind.idx()]
    }

    /// Device writes attributed to one kind in the window.
    pub fn writes_of(&self, kind: BlockKind) -> u64 {
        self.writes[kind.idx()]
    }

    /// Total blocks touched (reads + writes) in the window.
    pub fn total_io(&self) -> u64 {
        self.reads() + self.writes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_attribute_by_kind() {
        let s = IoStats::new();
        s.record_read(BlockKind::Inner);
        s.record_read(BlockKind::Inner);
        s.record_read(BlockKind::Leaf);
        s.record_write(BlockKind::Leaf);
        assert_eq!(s.reads(), 3);
        assert_eq!(s.writes(), 1);
        assert_eq!(s.reads_of(BlockKind::Inner), 2);
        assert_eq!(s.reads_of(BlockKind::Leaf), 1);
        assert_eq!(s.writes_of(BlockKind::Leaf), 1);
        assert_eq!(s.reads_of(BlockKind::Meta), 0);
    }

    #[test]
    fn snapshot_delta_isolates_an_operation() {
        let s = IoStats::new();
        s.record_read(BlockKind::Inner);
        let before = s.snapshot();
        s.record_read(BlockKind::Leaf);
        s.record_write(BlockKind::Leaf);
        s.record_device_ns(500);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.reads(), 1);
        assert_eq!(delta.writes(), 1);
        assert_eq!(delta.reads_of(BlockKind::Inner), 0);
        assert_eq!(delta.device_ns, 500);
        assert_eq!(delta.total_io(), 2);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::new();
        s.record_read(BlockKind::Leaf);
        s.record_write(BlockKind::Meta);
        s.record_alloc(10);
        s.record_free(2);
        s.record_buffer_hit();
        s.record_reuse_hit();
        s.reset();
        assert_eq!(s.reads(), 0);
        assert_eq!(s.writes(), 0);
        assert_eq!(s.allocated_blocks(), 0);
        assert_eq!(s.freed_blocks(), 0);
        assert_eq!(s.buffer_hits(), 0);
        assert_eq!(s.reuse_hits(), 0);
    }

    /// Pins the cross-disk merge rule for *every* counter field: each
    /// window gets a distinct prime-ish value in each field, so a field
    /// accidentally taking max (or being dropped) instead of summing — or
    /// `max_inflight` accidentally summing instead of taking max — fails
    /// with the exact field named.
    #[test]
    fn merge_sums_counters_but_maxes_inflight() {
        fn window(scale: u64, inflight: u64) -> OpStats {
            let s = IoStats::new();
            s.record_read(BlockKind::Meta);
            s.record_read(BlockKind::Inner);
            s.record_read(BlockKind::Inner);
            s.record_write(BlockKind::Leaf);
            for _ in 0..scale {
                s.record_buffer_hit();
                s.record_reuse_hit();
                s.record_frame_pinned();
                s.record_scan_read();
                s.record_read_stall();
                s.record_write_stall();
                s.record_readahead_hit();
                s.record_checksum_failure();
                s.record_io_retry();
            }
            s.record_alloc(2 * scale);
            s.record_free(3 * scale);
            s.record_device_ns(5 * scale);
            s.record_bytes_copied(7 * scale);
            s.record_drain_chunk(11 * scale);
            s.record_ios_submitted(13 * scale);
            s.record_ios_completed(17 * scale);
            s.note_inflight(inflight);
            s.record_overlap_saved_ns(19 * scale);
            s.record_wal_append(23 * scale);
            s.record_replayed_entries(29 * scale);
            for _ in 0..31 * scale {
                s.record_wal_sync();
            }
            for _ in 0..37 * scale {
                s.record_checkpoint();
            }
            s.snapshot()
        }

        let a = window(1, 9);
        let b = window(10, 4);
        let merged = a.merge(&b);

        // Per-kind device counters sum kind-by-kind.
        assert_eq!(merged.reads_of(BlockKind::Meta), 2);
        assert_eq!(merged.reads_of(BlockKind::Inner), 4);
        assert_eq!(merged.reads_of(BlockKind::Leaf), 0);
        assert_eq!(merged.writes_of(BlockKind::Leaf), 2);
        assert_eq!(merged.reads(), 6);
        assert_eq!(merged.writes(), 2);

        // Every scalar flow sums (1x + 10x of its per-window value).
        assert_eq!(merged.buffer_hits, 11);
        assert_eq!(merged.reuse_hits, 11);
        assert_eq!(merged.allocated_blocks, 22);
        assert_eq!(merged.freed_blocks, 33);
        assert_eq!(merged.device_ns, 55);
        assert_eq!(merged.bytes_copied, 77);
        assert_eq!(merged.frames_pinned, 11);
        assert_eq!(merged.scan_reads, 11);
        assert_eq!(merged.drain_chunks, 2);
        assert_eq!(merged.drain_entries, 121);
        assert_eq!(merged.read_stalls, 11);
        assert_eq!(merged.write_stalls, 11);
        assert_eq!(merged.ios_submitted, 143);
        assert_eq!(merged.ios_completed, 187);
        assert_eq!(merged.overlap_saved_ns, 209);
        assert_eq!(merged.readahead_hits, 11);
        assert_eq!(merged.wal_appends, 2);
        assert_eq!(merged.wal_bytes, 253);
        assert_eq!(merged.replayed_entries, 319);
        assert_eq!(merged.wal_syncs, 341);
        assert_eq!(merged.checkpoints, 407);
        assert_eq!(merged.checksum_failures, 11);
        assert_eq!(merged.io_retries, 11);

        // Exhaustiveness backstop: a window built from non-zero values in
        // *every* field must merge to non-zero everywhere. A new counter
        // added with a forgotten (dropping) merge rule fails here even
        // before it gets its own prime above.
        let w = window(1, 9);
        assert!(w.buffer_hits > 0 && w.wal_syncs > 0 && w.checkpoints > 0);
        let dbg = format!("{merged:?}");
        assert!(
            !dbg.contains(": 0,") && !dbg.contains(": 0 }"),
            "every OpStats field must survive a merge: {dbg}"
        );

        // The queue high-water mark is a level: N disks side by side do
        // not form one deeper queue, so the merged window reports the
        // deepest single queue.
        assert_eq!(merged.max_inflight, 9);
        assert_eq!(b.merge(&a).max_inflight, 9, "max is order-independent");
    }

    #[test]
    fn contention_counters_accumulate_and_reset() {
        let s = IoStats::new();
        s.record_drain_chunk(64);
        s.record_drain_chunk(32);
        s.record_read_stall();
        s.record_write_stall();
        s.record_write_stall();
        assert_eq!(s.drain_chunks(), 2);
        assert_eq!(s.drain_entries(), 96);
        assert_eq!(s.read_stalls(), 1);
        assert_eq!(s.write_stalls(), 2);

        let before = s.snapshot();
        s.record_drain_chunk(8);
        s.record_read_stall();
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.drain_chunks, 1);
        assert_eq!(delta.drain_entries, 8);
        assert_eq!(delta.read_stalls, 1);
        assert_eq!(delta.write_stalls, 0);

        s.reset();
        assert_eq!(s.drain_chunks(), 0);
        assert_eq!(s.drain_entries(), 0);
        assert_eq!(s.read_stalls(), 0);
        assert_eq!(s.write_stalls(), 0);
    }

    #[test]
    fn outstanding_io_counters_accumulate_and_reset() {
        let s = IoStats::new();
        s.record_ios_submitted(8);
        s.record_ios_completed(8);
        s.note_inflight(5);
        s.note_inflight(3); // must not lower the high-water mark
        s.record_overlap_saved_ns(700);
        s.record_readahead_hit();
        assert_eq!(s.ios_submitted(), 8);
        assert_eq!(s.ios_completed(), 8);
        assert_eq!(s.max_inflight(), 5);
        assert_eq!(s.overlap_saved_ns(), 700);
        assert_eq!(s.readahead_hits(), 1);

        let before = s.snapshot();
        s.record_ios_submitted(4);
        s.record_ios_completed(4);
        s.note_inflight(7);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.ios_submitted, 4);
        assert_eq!(delta.ios_completed, 4);
        assert_eq!(delta.max_inflight, 7, "high-water mark is a level, not a flow");

        s.reset();
        assert_eq!(s.ios_submitted(), 0);
        assert_eq!(s.ios_completed(), 0);
        assert_eq!(s.max_inflight(), 0);
        assert_eq!(s.overlap_saved_ns(), 0);
        assert_eq!(s.readahead_hits(), 0);
    }

    #[test]
    fn durability_counters_accumulate_and_reset() {
        let s = IoStats::new();
        s.record_wal_append(48);
        s.record_wal_append(32);
        s.record_replayed_entries(100);
        s.record_checksum_failure();
        s.record_io_retry();
        s.record_io_retry();
        assert_eq!(s.wal_appends(), 2);
        assert_eq!(s.wal_bytes(), 80);
        assert_eq!(s.replayed_entries(), 100);
        assert_eq!(s.checksum_failures(), 1);
        assert_eq!(s.io_retries(), 2);

        let before = s.snapshot();
        s.record_wal_append(16);
        s.record_io_retry();
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.wal_appends, 1);
        assert_eq!(delta.wal_bytes, 16);
        assert_eq!(delta.io_retries, 1);
        assert_eq!(delta.checksum_failures, 0);

        s.reset();
        assert_eq!(s.wal_appends(), 0);
        assert_eq!(s.wal_bytes(), 0);
        assert_eq!(s.replayed_entries(), 0);
        assert_eq!(s.checksum_failures(), 0);
        assert_eq!(s.io_retries(), 0);
    }

    #[test]
    fn block_kind_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            BlockKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), BlockKind::ALL.len());
    }
}
