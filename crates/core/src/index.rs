//! The [`DiskIndex`] trait implemented by every evaluated index.

use std::sync::Arc;

use lidx_storage::Disk;

use crate::error::IndexResult;
use crate::metrics::InsertBreakdown;
use crate::{Entry, Key, Value};

/// Which index family an implementation belongs to.
///
/// The variants mirror Table 1 of the paper, plus the hybrid designs of
/// §6.1.2 ("learned inner structure + B+-tree-styled leaf nodes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// The traditional on-disk B+-tree baseline.
    BTree,
    /// FITing-tree (Galakatos et al., SIGMOD 2019) with the Delta insert
    /// strategy, extended for disk as in §4.2.
    FitingTree,
    /// PGM-index (Ferragina & Vinciguerra, VLDB 2020) with LSM-style
    /// arbitrary inserts.
    Pgm,
    /// ALEX (Ding et al., SIGMOD 2020) extended for disk as in §4.1.
    Alex,
    /// LIPP (Wu et al., VLDB 2021) extended for disk as in §4.2.
    Lipp,
    /// A hybrid design: learned inner structure over dense, linked leaf
    /// blocks (§6.1.2 / Table 5).
    Hybrid,
}

impl IndexKind {
    /// Short lowercase name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::BTree => "btree",
            IndexKind::FitingTree => "fiting",
            IndexKind::Pgm => "pgm",
            IndexKind::Alex => "alex",
            IndexKind::Lipp => "lipp",
            IndexKind::Hybrid => "hybrid",
        }
    }

    /// All concrete (non-hybrid) index kinds evaluated by the paper, in the
    /// order the figures list them.
    pub const EVALUATED: [IndexKind; 5] =
        [IndexKind::BTree, IndexKind::FitingTree, IndexKind::Pgm, IndexKind::Alex, IndexKind::Lipp];
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Structural statistics an index can report about itself.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IndexStats {
    /// Number of keys currently stored.
    pub keys: u64,
    /// Height of the structure (levels from root to the deepest leaf,
    /// counting both ends). For PGM's LSM variant this is the height of the
    /// largest level.
    pub height: u32,
    /// Number of inner (routing) nodes.
    pub inner_nodes: u64,
    /// Number of leaf / data nodes (segments, data nodes, ...).
    pub leaf_nodes: u64,
    /// Number of structural modification operations performed so far.
    pub smo_count: u64,
}

/// The shared-lookup (read) side of a disk-resident index.
///
/// Every method takes `&self`, so a bulk-loaded ("frozen") index can serve
/// N reader threads concurrently: share the index behind a plain reference
/// (e.g. via [`std::thread::scope`]) or an `Arc` and call [`lookup`] /
/// [`scan`] from as many threads as you like. The `Send + Sync` supertraits
/// make that contract part of the type: implementations must confine any
/// interior mutability to thread-safe state (in this workspace that is the
/// [`Disk`] layer — atomic statistics plus a lock-striped buffer pool — and
/// nothing in the index structures themselves).
///
/// **Frozen-index contract.** A bare index has no internal versioning or
/// latching beyond the storage layer: concurrent reads are only
/// *meaningful* against an index that is not being mutated, and Rust's
/// borrow rules enforce that for free — [`IndexWrite::insert`] and
/// [`IndexWrite::bulk_load`] take `&mut self`, so a writer cannot coexist
/// with shared readers. To race readers against a mutating index, wrap it
/// in [`crate::concurrent::ConcurrentIndex`] (an explicit reader/writer
/// lock whose drains take exclusive access per chunk) or the full
/// [`crate::concurrent::ShardedWriteBuffer`] staging front.
///
/// # Example
///
/// The batched entry points are plain contracts over [`lookup`] / [`scan`],
/// shown here with a minimal in-memory implementation:
///
/// ```
/// use std::sync::Arc;
/// use lidx_core::index::{IndexKind, IndexRead, IndexStats};
/// use lidx_core::{Entry, IndexResult, Key, Value};
/// use lidx_storage::{Disk, DiskConfig};
///
/// struct VecIndex {
///     disk: Arc<Disk>,
///     entries: Vec<Entry>, // sorted by key
/// }
///
/// impl IndexRead for VecIndex {
///     fn kind(&self) -> IndexKind { IndexKind::BTree }
///     fn disk(&self) -> &Arc<Disk> { &self.disk }
///     fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
///         Ok(self.entries.binary_search_by_key(&key, |e| e.0).ok().map(|i| self.entries[i].1))
///     }
///     fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize> {
///         out.clear();
///         let from = self.entries.partition_point(|e| e.0 < start);
///         out.extend(self.entries[from..].iter().take(count));
///         Ok(out.len())
///     }
///     fn len(&self) -> u64 { self.entries.len() as u64 }
///     fn stats(&self) -> IndexStats { IndexStats::default() }
/// }
///
/// let index = VecIndex {
///     disk: Disk::in_memory(DiskConfig::default()),
///     entries: vec![(10, 1), (20, 2), (30, 3)],
/// };
/// // lookup_batch answers positionally; duplicates and misses are fine.
/// let mut answers = Vec::new();
/// index.lookup_batch(&[20, 99, 20], &mut answers)?;
/// assert_eq!(answers, vec![Some(2), None, Some(2)]);
/// // scan_batch runs one scan per (start, count) range.
/// let mut rows = Vec::new();
/// index.scan_batch(&[(15, 2), (0, 1)], &mut rows)?;
/// assert_eq!(rows, vec![vec![(20, 2), (30, 3)], vec![(10, 1)]]);
/// # Ok::<(), lidx_core::IndexError>(())
/// ```
///
/// [`lookup`]: IndexRead::lookup
/// [`scan`]: IndexRead::scan
pub trait IndexRead: Send + Sync {
    /// Which family this index belongs to.
    fn kind(&self) -> IndexKind;

    /// A human-readable name (defaults to the family name; hybrid variants
    /// override this with e.g. `"hybrid-pla"`).
    fn name(&self) -> String {
        self.kind().name().to_string()
    }

    /// The disk this index performs its I/O against.
    fn disk(&self) -> &Arc<Disk>;

    /// Returns the payload stored for `key`, or `None` if absent.
    fn lookup(&self, key: Key) -> IndexResult<Option<Value>>;

    /// Looks up every key of `keys`, writing the answer for `keys[i]` to
    /// `out[i]`.
    ///
    /// # Contract
    ///
    /// * `out` is **cleared and resized** to `keys.len()` first — previous
    ///   contents are discarded, never appended to.
    /// * Answers are positional: `out[i]` is exactly what
    ///   [`lookup`]`(keys[i])` would return. Input order is preserved even
    ///   when an implementation internally reorders the probe.
    /// * Duplicate keys, absent keys (`None` answers) and unsorted input are
    ///   all fine; a batch is semantically identical to a per-key loop.
    ///
    /// The default implementation is exactly that loop; indexes whose
    /// structure lets a sorted probe share work (the B+-tree descends once
    /// per leaf run, PGM reads its insert run once per batch and reuses data
    /// blocks across keys that land together) override it to amortise block
    /// fetches and decoding across the batch.
    ///
    /// [`lookup`]: IndexRead::lookup
    fn lookup_batch(&self, keys: &[Key], out: &mut Vec<Option<Value>>) -> IndexResult<()> {
        out.clear();
        out.reserve(keys.len());
        for &key in keys {
            out.push(self.lookup(key)?);
        }
        Ok(())
    }

    /// Collects up to `count` entries with keys `>= start` into `out`,
    /// returning how many were produced.
    ///
    /// # Contract
    ///
    /// * `out` is **cleared first**; on return it holds the result entries
    ///   in strictly ascending key order (no duplicates — an overwritten key
    ///   appears once, with its newest payload).
    /// * Fewer than `count` entries are returned only when the index stores
    ///   fewer than `count` keys `>= start`; `count == 0` returns 0 without
    ///   performing I/O beyond locating the start.
    /// * Implementations stream their data blocks with scan-class reads
    ///   (`Disk::read_ref_scan`), so the disk counts them as scan reads and,
    ///   at queue depth > 1, reads ahead along the stream (`DESIGN.md` §3.3).
    fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize>;

    /// Runs one [`scan`] per `(start, count)` range of `ranges`, writing the
    /// result rows for `ranges[i]` to `out[i]`.
    ///
    /// # Contract
    ///
    /// * `out` is **cleared and resized** to `ranges.len()` first; each
    ///   inner vector then follows the [`scan`] contract for its range.
    /// * Results are positional: overlapping, duplicate and unsorted ranges
    ///   are all fine, and each produces exactly what a standalone [`scan`]
    ///   would.
    ///
    /// The default implementation is the per-range loop. Indexes whose scan
    /// is a leaf-chain walk (the B+-tree) override it to execute the ranges
    /// in sorted start-key order, which turns the block accesses of adjacent
    /// ranges into one mostly-sequential, prefetch-friendly stream — the
    /// scan-side mirror of [`lookup_batch`]'s sorted probe.
    ///
    /// [`scan`]: IndexRead::scan
    /// [`lookup_batch`]: IndexRead::lookup_batch
    fn scan_batch(&self, ranges: &[(Key, usize)], out: &mut Vec<Vec<Entry>>) -> IndexResult<()> {
        out.clear();
        out.resize_with(ranges.len(), Vec::new);
        for (i, &(start, count)) in ranges.iter().enumerate() {
            self.scan(start, count, &mut out[i])?;
        }
        Ok(())
    }

    /// Number of keys stored.
    fn len(&self) -> u64;

    /// True if no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural statistics (height, node counts, SMO count).
    fn stats(&self) -> IndexStats;

    /// Total blocks this index occupies on disk (including space lost to
    /// invalidated nodes, matching the paper's §6.3 storage accounting).
    fn storage_blocks(&self) -> u64 {
        self.disk().total_blocks()
    }
}

/// The exclusive (write) side of a disk-resident index.
///
/// Every method takes `&mut self`: Rust's borrow rules make the writer
/// mutually exclusive with the shared [`IndexRead`] readers, which *is* the
/// frozen-index contract of `DESIGN.md` §3.1. The read side and the write
/// side compose into [`DiskIndex`].
///
/// # Example
///
/// [`insert_batch`] is the one write primitive an implementation provides;
/// [`insert`] is a batch of one. Shown here with a minimal in-memory
/// implementation:
///
/// ```
/// use lidx_core::index::IndexWrite;
/// use lidx_core::{Entry, IndexResult, InsertBreakdown};
///
/// #[derive(Default)]
/// struct VecIndex {
///     entries: Vec<Entry>, // sorted by key
/// }
///
/// impl IndexWrite for VecIndex {
///     fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
///         self.entries = entries.to_vec();
///         Ok(())
///     }
///     fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
///         for &(key, value) in entries {
///             match self.entries.binary_search_by_key(&key, |e| e.0) {
///                 Ok(i) => self.entries[i].1 = value,
///                 Err(i) => self.entries.insert(i, (key, value)),
///             }
///         }
///         Ok(())
///     }
///     fn insert_breakdown(&self) -> InsertBreakdown {
///         InsertBreakdown::new()
///     }
/// }
///
/// let mut index = VecIndex::default();
/// index.bulk_load(&[(10, 1), (30, 3)])?;
/// // Entries apply in slice order: later entries win on duplicate keys,
/// // existing keys are overwritten.
/// index.insert_batch(&[(20, 2), (10, 9), (20, 4)])?;
/// assert_eq!(index.entries, vec![(10, 9), (20, 4), (30, 3)]);
/// // `insert` is provided: the same code path with a one-entry slice.
/// index.insert(30, 7)?;
/// assert_eq!(index.entries, vec![(10, 9), (20, 4), (30, 7)]);
/// # Ok::<(), lidx_core::IndexError>(())
/// ```
///
/// [`insert`]: IndexWrite::insert
/// [`insert_batch`]: IndexWrite::insert_batch
pub trait IndexWrite {
    /// Builds the index from strictly-increasing `(key, payload)` pairs.
    ///
    /// Must be called exactly once, before any other operation, and fails
    /// with [`crate::IndexError::UnsortedBulkLoad`] if the input is not
    /// strictly increasing.
    fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()>;

    /// Upserts every entry of `entries`, in order — the one write primitive
    /// of an index; [`insert`] is a batch of one.
    ///
    /// # Contract
    ///
    /// * Entries apply in slice order with upsert semantics: a key that is
    ///   already stored has its payload overwritten and the key count does
    ///   not grow, so **later entries win** when the batch contains
    ///   duplicate keys. After the call returns, every lookup, scan and
    ///   length query answers exactly as if the entries had been applied one
    ///   at a time — any partition of a stream into consecutive batches
    ///   (all batches of one included) leaves the same logical content.
    /// * The *physical* structure may legally differ between partitions
    ///   (e.g. one large SMO instead of several small ones) — only the
    ///   logical content is pinned.
    /// * An error leaves previously applied entries of the batch in place
    ///   (the batch stops at the failing entry).
    /// * A batch of one must cost what a dedicated single-key write would:
    ///   no design keeps a second write body, so whatever work a sorted pass
    ///   shares across entries has to degrade to nothing at one entry.
    ///
    /// Every design shares work across a sorted pass where its structure
    /// allows: the B+-tree descends once per *run* of keys landing in the
    /// same leaf and writes each touched leaf once, the FITing-tree fills
    /// each segment's delta buffer with one read-modify-write per segment,
    /// PGM merges the batch into its insert run in memory (one run read and
    /// one rewrite per batch, flushing exactly when one-entry batches
    /// would), ALEX and LIPP write each touched node's statistics header
    /// once per batch, and the hybrid appends each run to its dense leaf
    /// and defers the learned-directory rebuild to one retrain per batch.
    ///
    /// [`insert`]: IndexWrite::insert
    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()>;

    /// Inserts one key-payload pair (upsert): exactly
    /// [`insert_batch`](IndexWrite::insert_batch) of a one-entry slice.
    /// Wrappers whose primitive really is a single staged entry (the
    /// [`WriteBuffer`](crate::write_buffer::WriteBuffer) front) override it;
    /// no index design does.
    fn insert(&mut self, key: Key, value: Value) -> IndexResult<()> {
        self.insert_batch(&[(key, value)])
    }

    /// The accumulated insert-step breakdown (search / insert / SMO /
    /// maintenance, plus group-commit drain counters) since the index was
    /// created. Used for Fig. 6 and the buffered-vs-per-key write contrast.
    ///
    /// Required — a design that tracks nothing must still say so explicitly
    /// by returning [`InsertBreakdown::new`], so a zeroed breakdown can no
    /// longer silently shadow real measurements.
    fn insert_breakdown(&self) -> InsertBreakdown;

    /// Serialises the index's root metadata — everything needed to rebuild
    /// the in-memory handle over the blocks already on disk — into an opaque
    /// byte string. The bytes end up in the superblock's manifest payload
    /// (checksummed by the storage layer), and each design's inherent
    /// `load(disk, config, meta)` constructor inverts them after a restart.
    ///
    /// Takes `&mut self` so implementations may flush deferred state (e.g.
    /// an in-memory insert run) before capturing the snapshot. The default
    /// reports the capability as unsupported; every persistent design in
    /// this workspace overrides it.
    fn save_meta(&mut self) -> IndexResult<Vec<u8>> {
        Err(crate::IndexError::Unsupported("save_meta"))
    }
}

/// A disk-resident, updatable ordered index over `u64` keys.
///
/// All five operations the paper's workloads exercise are represented: bulk
/// load (used to build the index before each workload), point lookup,
/// insert, and range scan — the read side lives in the [`IndexRead`]
/// supertrait so a frozen index can be shared across reader threads, while
/// the write side ([`IndexWrite`]) takes `&mut self`.
///
/// The trait itself is empty: it is implemented automatically for every
/// type providing both halves, and exists so harness code can hold one
/// `Box<dyn DiskIndex>` per index design.
///
/// Implementations route every block access through the [`Disk`] returned by
/// [`IndexRead::disk`], which is how the harness observes fetched-block
/// counts and simulated device time.
pub trait DiskIndex: IndexRead + IndexWrite {}

impl<T: IndexRead + IndexWrite> DiskIndex for T {}

impl<T: IndexRead + ?Sized> IndexRead for Box<T> {
    fn kind(&self) -> IndexKind {
        (**self).kind()
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn disk(&self) -> &Arc<Disk> {
        (**self).disk()
    }

    fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        (**self).lookup(key)
    }

    fn lookup_batch(&self, keys: &[Key], out: &mut Vec<Option<Value>>) -> IndexResult<()> {
        (**self).lookup_batch(keys, out)
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize> {
        (**self).scan(start, count, out)
    }

    fn scan_batch(&self, ranges: &[(Key, usize)], out: &mut Vec<Vec<Entry>>) -> IndexResult<()> {
        (**self).scan_batch(ranges, out)
    }

    fn len(&self) -> u64 {
        (**self).len()
    }

    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }

    fn stats(&self) -> IndexStats {
        (**self).stats()
    }

    fn storage_blocks(&self) -> u64 {
        (**self).storage_blocks()
    }
}

impl<T: IndexWrite + ?Sized> IndexWrite for Box<T> {
    fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
        (**self).bulk_load(entries)
    }

    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        (**self).insert_batch(entries)
    }

    fn insert_breakdown(&self) -> InsertBreakdown {
        (**self).insert_breakdown()
    }

    fn save_meta(&mut self) -> IndexResult<Vec<u8>> {
        (**self).save_meta()
    }
}

/// Verifies that bulk-load input is strictly increasing; shared by all index
/// implementations.
pub fn validate_bulk_load(entries: &[Entry]) -> IndexResult<()> {
    for (i, pair) in entries.windows(2).enumerate() {
        if pair[0].0 >= pair[1].0 {
            return Err(crate::IndexError::UnsortedBulkLoad { position: i + 1 });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable_and_unique() {
        let names: std::collections::HashSet<_> =
            IndexKind::EVALUATED.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), IndexKind::EVALUATED.len());
        assert_eq!(IndexKind::BTree.to_string(), "btree");
        assert_eq!(IndexKind::Lipp.name(), "lipp");
        assert_eq!(IndexKind::Hybrid.name(), "hybrid");
    }

    #[test]
    fn bulk_load_validation_rejects_disorder_and_duplicates() {
        assert!(validate_bulk_load(&[(1, 2), (2, 3), (3, 4)]).is_ok());
        assert!(validate_bulk_load(&[]).is_ok());
        assert!(validate_bulk_load(&[(5, 0)]).is_ok());
        let err = validate_bulk_load(&[(1, 0), (3, 0), (3, 0)]).unwrap_err();
        assert!(matches!(err, crate::IndexError::UnsortedBulkLoad { position: 2 }));
        assert!(validate_bulk_load(&[(9, 0), (1, 0)]).is_err());
    }
}
