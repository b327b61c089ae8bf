//! Block-granular storage substrate for disk-resident index structures.
//!
//! This crate provides everything the on-disk indexes in this workspace need
//! from a storage engine:
//!
//! * [`backend::StorageBackend`] — the raw block device abstraction, with an
//!   in-memory implementation ([`backend::MemoryBackend`]) used by the
//!   evaluation harness and a real-file implementation
//!   ([`backend::FileBackend`]) used for functional verification.
//! * [`device::DeviceModel`] — the HDD / SSD cost models that convert block
//!   accesses into simulated latency, replacing the paper's physical disks.
//! * [`stats::IoStats`] — per-index I/O accounting (reads / writes, split by
//!   [`BlockKind`]) that drives every fetched-block table in the paper.
//! * [`buffer::BufferPool`] / [`buffer::ShardedBufferPool`] — the strict-LRU
//!   block cache of the paper's buffer-size study (Fig. 13); the
//!   lock-striped variant is embedded in [`Disk`] so concurrent readers do
//!   not serialise on a single pool mutex. Reads carry a
//!   [`buffer::AccessClass`], which the pool ignores and the disk uses for
//!   scan readahead and scan-read accounting.
//! * [`pager::Pager`] — extent allocation on top of a file, required by ALEX
//!   and LIPP whose variable-sized nodes may span several contiguous blocks.
//! * [`queue::ReadQueue`] — the outstanding-read engine: an io_uring-shaped
//!   submission/completion queue that resolves cache hits at submit and
//!   overlaps a wave of `queue_depth` device fetches (the device is charged
//!   the max, not the sum, of the wave's costs) and powers the
//!   scan readahead; at queue depth 1 it degenerates to the synchronous
//!   path.
//! * [`Disk`] — the façade combining all of the above, which is what index
//!   crates actually talk to.
//! * [`BlockCursor`] — one read-only walk's hold on the last block it read,
//!   so an index that reads a node slot by slot pays one disk read per
//!   block, not per slot, at unchanged device cost.
//! * [`mod@format`] — the crash-safe on-disk format: CRC32 block stamps
//!   ([`format::BlockStamp`]) verified on every read of a durable disk, and
//!   the double-buffered, checksummed [`format::Superblock`] that anchors a
//!   directory across restarts.
//! * [`wal::WalSegment`] — an append-only, checksummed, length-prefixed log
//!   over a utility file; write buffers log staged entries here so a crash
//!   mid-drain replays cleanly on reopen.
//! * [`fault::FaultPlan`] / [`fault::FaultingBackend`] — deterministic fault
//!   injection (failed writes, torn writes, read bit-flips, transient EIO)
//!   wrapped around any backend, powering the kill-and-recover test suites.
//!
//! The read path is zero-copy: [`Disk::read_ref`] hands out pinned
//! [`buffer::BlockRef`] frames (`Arc`-backed, read-only) instead of copying
//! into caller buffers, so a buffer-pool or reuse hit costs one atomic
//! increment — no allocation, no memcpy. Eviction drops the pool's reference
//! only; a caller holding a frame keeps its snapshot alive (lazy free). The
//! whole layer is safe for N concurrent reader threads over a frozen index:
//! statistics are atomic counters, the pool is lock-striped, backends
//! synchronise internally behind a reader/writer lock, and the single-slot
//! last-block-reuse cache degrades gracefully under contention (`try_lock`,
//! never blocking a reader).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod buffer;
pub mod codec;
pub mod cursor;
pub mod device;
pub mod disk;
pub mod error;
pub mod fault;
pub mod format;
pub mod pager;
pub mod queue;
pub mod stats;
pub mod wal;

pub use backend::{FileBackend, MemoryBackend, StorageBackend};
pub use buffer::{AccessClass, BlockRef, BufferPool, ShardedBufferPool};
pub use codec::{BlockReader, BlockWriter, SlotTable};
pub use cursor::BlockCursor;
pub use device::DeviceModel;
pub use disk::{Disk, DiskConfig, FileId, SeqHint};
pub use error::{StorageError, StorageResult};
pub use fault::{FaultPlan, FaultingBackend};
pub use format::{crc32, BlockStamp, Superblock, FORMAT_VERSION};
pub use pager::Pager;
pub use queue::{Completion, ReadQueue};
pub use stats::{BlockKind, IoStats, OpStats};
pub use wal::WalSegment;
// Telemetry is a leaf crate the storage layer hosts (the registry hangs off
// [`Disk`]); re-export it so the layers above reach the types through their
// existing `lidx-storage` dependency edge.
pub use lidx_telemetry as telemetry;
pub use lidx_telemetry::{
    ClassStats, Histogram, OpClass, Span, TailSummary, TelemetryRegistry, TelemetrySnapshot,
};

/// Identifier of a block within one file, starting at zero.
pub type BlockId = u32;

/// The default block size used throughout the evaluation (the paper fixes
/// 4 KB except for the block-size study of §6.4).
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

/// A sentinel block id meaning "no block" (e.g. absent sibling pointers).
pub const INVALID_BLOCK: BlockId = u32::MAX;
