//! A group-commit write front for any [`DiskIndex`].
//!
//! PGM is the only studied design whose insert path is inherently batched:
//! its LSM insert run absorbs writes in memory-cheap sorted blocks and pays
//! the structural cost once per flush — which is why the paper's Fig. 5/6
//! show it dominating Write-Only workloads. [`WriteBuffer`] gives every
//! other design the same shape *outside* the index: inserts are staged in a
//! sorted in-memory buffer, reads are served through a newest-wins overlay
//! over the wrapped index, and when the buffer reaches its configured
//! capacity the staged entries are drained — sorted — through
//! [`IndexWrite::insert_batch`], where the per-design overrides amortise
//! block fetches, pin lifetimes and SMO work across the run.
//!
//! The lifecycle is *stage → overlay-read → drain* (`DESIGN.md` §3.4):
//!
//! * **stage** — [`WriteBuffer::insert`] upserts into a [`BTreeMap`]; no
//!   I/O is performed and duplicate keys collapse in the buffer.
//! * **overlay-read** — every [`IndexRead`] method answers from the buffer
//!   first: a staged key wins over whatever the wrapped index stores
//!   (newest-wins), scans merge the staged range into the index's entries,
//!   and [`lookup_batch`] forwards only unresolved keys to the wrapped
//!   index's (possibly overridden) batched path.
//! * **drain** — at `capacity` staged entries the buffer empties itself
//!   through `insert_batch` in chunks of `drain` entries; [`flush`] and
//!   [`into_inner`] drain on demand.
//!
//! [`lookup_batch`]: IndexRead::lookup_batch
//! [`flush`]: WriteBuffer::flush
//! [`into_inner`]: WriteBuffer::into_inner

use std::collections::BTreeMap;
use std::sync::Arc;

use lidx_storage::{Disk, FileId, OpClass, WalSegment};

use crate::error::IndexResult;
use crate::index::{DiskIndex, IndexKind, IndexRead, IndexStats, IndexWrite};
use crate::metrics::InsertBreakdown;
use crate::persist::{decode_wal_entries, encode_wal_entry, Manifest};
use crate::{Entry, Key, Value};

/// Configuration of a [`WriteBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteBufferConfig {
    /// Number of staged entries that triggers an automatic drain. Larger
    /// capacities amortise more structural work per drain at the cost of a
    /// larger in-memory overlay (the PGM default run of 585 entries is a
    /// reasonable reference point).
    pub capacity: usize,
    /// Maximum entries handed to one [`IndexWrite::insert_batch`] call
    /// while draining; a drain always empties the buffer, issuing
    /// `ceil(staged / drain)` batch calls. Bounding this keeps the wrapped
    /// index's per-batch working state (pinned leaves, merged buffers)
    /// small without giving up the group commit.
    pub drain: usize,
}

impl Default for WriteBufferConfig {
    fn default() -> Self {
        WriteBufferConfig { capacity: 1024, drain: 1024 }
    }
}

/// A group-commit staging layer in front of a [`DiskIndex`].
///
/// `WriteBuffer` implements both halves of the index API itself, so it is a
/// drop-in `DiskIndex`: reads observe staged entries immediately
/// (newest-wins overlay), writes stage until the configured threshold and
/// then drain through the wrapped index's batched insert path.
///
/// # Length caveat
///
/// Like PGM's insert run, the buffer does not probe the wrapped index at
/// stage time, so [`len`](IndexRead::len) counts a staged key that also
/// exists on disk twice until a drain reconciles it. Workloads inserting
/// fresh keys (the paper's write workloads) are exact.
///
/// # Example
///
/// ```
/// use lidx_core::index::{IndexKind, IndexRead, IndexStats, IndexWrite};
/// use lidx_core::write_buffer::{WriteBuffer, WriteBufferConfig};
/// use lidx_core::{Entry, IndexResult, InsertBreakdown, Key, Value};
/// use lidx_storage::{Disk, DiskConfig};
/// use std::sync::Arc;
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
///     fn insert_breakdown(&self) -> InsertBreakdown { InsertBreakdown::new() }
/// }
///
/// let index = VecIndex { disk: Disk::in_memory(DiskConfig::default()), entries: Vec::new() };
/// let mut buffered = WriteBuffer::new(index, WriteBufferConfig { capacity: 4, drain: 4 });
/// buffered.bulk_load(&[(10, 1), (30, 3)])?;
///
/// // Staged inserts are visible immediately (newest-wins overlay) ...
/// buffered.insert(20, 2)?;
/// buffered.insert(10, 9)?;
/// assert_eq!(buffered.lookup(20)?, Some(2));
/// assert_eq!(buffered.lookup(10)?, Some(9), "a staged key shadows the stored payload");
/// let mut rows = Vec::new();
/// buffered.scan(0, 10, &mut rows)?;
/// assert_eq!(rows, vec![(10, 9), (20, 2), (30, 3)]);
///
/// // ... and reach the wrapped index in one sorted batch on drain.
/// assert_eq!(buffered.staged_len(), 2);
/// buffered.flush()?;
/// assert_eq!(buffered.staged_len(), 0);
/// assert_eq!(buffered.insert_breakdown().drains, 1);
/// let index = buffered.into_inner()?;
/// assert_eq!(index.entries, vec![(10, 9), (20, 2), (30, 3)]);
/// # Ok::<(), lidx_core::IndexError>(())
/// ```
pub struct WriteBuffer<I> {
    inner: I,
    config: WriteBufferConfig,
    staged: BTreeMap<Key, Value>,
    drains: u64,
    drained_entries: u64,
    /// When attached, every staged entry is appended here before it enters
    /// the overlay, and drains run the checkpoint protocol (sync → drain →
    /// save_meta → superblock persist → truncate).
    wal: Option<WalSegment>,
    /// The design tag written into the manifest (only used with a WAL).
    tag: String,
}

impl<I: DiskIndex> WriteBuffer<I> {
    /// Wraps `inner` behind a staging buffer with the given configuration.
    pub fn new(inner: I, config: WriteBufferConfig) -> Self {
        assert!(config.capacity >= 1, "write buffer capacity must hold at least one entry");
        assert!(config.drain >= 1, "drain chunks must carry at least one entry");
        WriteBuffer {
            inner,
            config,
            staged: BTreeMap::new(),
            drains: 0,
            drained_entries: 0,
            wal: None,
            tag: String::new(),
        }
    }

    /// Wraps `inner` with a freshly created write-ahead log on its disk.
    ///
    /// Every staged entry is logged (group-committed) before it becomes
    /// visible, and every drain ends in a full checkpoint: WAL sync, drain,
    /// [`IndexWrite::save_meta`], superblock persist of the [`Manifest`]
    /// (carrying `tag`), WAL truncate. A process killed at any point resumes
    /// from the last checkpoint plus the WAL's replayable suffix.
    pub fn with_wal(inner: I, config: WriteBufferConfig, tag: &str) -> IndexResult<Self> {
        let wal = WalSegment::create(inner.disk())?;
        let mut wb = Self::new(inner, config);
        wb.wal = Some(wal);
        wb.tag = tag.to_string();
        Ok(wb)
    }

    /// Reopens a WAL-backed buffer after a restart: replays the log segment
    /// stored in `wal_file` into the staging overlay (newest-wins, so
    /// re-staging entries an interrupted drain already applied is harmless)
    /// and returns the buffer plus the number of replayed entries.
    ///
    /// `inner` must already be the design's `load`-ed handle over the same
    /// disk. The disk's caches are invalidated so every post-recovery read
    /// observes device state, not frames cached while replaying.
    pub fn with_wal_replayed(
        inner: I,
        config: WriteBufferConfig,
        tag: &str,
        wal_file: FileId,
    ) -> IndexResult<(Self, u64)> {
        let disk = Arc::clone(inner.disk());
        let _span = disk.telemetry().span(OpClass::Recovery);
        let (wal, payloads) = WalSegment::open(&disk, wal_file)?;
        let mut wb = Self::new(inner, config);
        wb.wal = Some(wal);
        wb.tag = tag.to_string();
        let mut replayed = 0u64;
        for payload in payloads {
            for (key, value) in decode_wal_entries(&payload)? {
                wb.staged.insert(key, value);
                replayed += 1;
            }
        }
        disk.invalidate_caches();
        disk.telemetry().add(OpClass::Recovery, replayed);
        Ok((wb, replayed))
    }

    /// Number of entries currently staged (not yet drained).
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Number of drains performed so far.
    pub fn drains(&self) -> u64 {
        self.drains
    }

    /// Shared access to the wrapped index.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Drains every staged entry into the wrapped index through its
    /// [`IndexWrite::insert_batch`] path, in ascending key order, in chunks
    /// of at most [`WriteBufferConfig::drain`] entries.
    ///
    /// A chunk leaves the staging buffer only once its `insert_batch` call
    /// succeeded, so a mid-drain error keeps every not-yet-applied entry
    /// staged (and still served by the overlay); retrying `flush` resumes
    /// where the failure happened. The drain counters likewise only cover
    /// entries actually handed over.
    pub fn flush(&mut self) -> IndexResult<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        // Fsync-point: with a WAL attached, every staged entry must be
        // durable *before* the drain starts mutating index blocks — a kill
        // mid-drain then replays the full staged set over the last
        // checkpoint's structure.
        if let Some(wal) = &mut self.wal {
            wal.sync()?;
        }
        self.drains += 1;
        {
            // The drain is the group-commit pause every overlapping reader
            // and writer feels; the span is scoped to the batch loop so the
            // checkpoint tail reports under its own class.
            let disk = Arc::clone(self.inner.disk());
            let _span = disk.telemetry().span(OpClass::Drain);
            while !self.staged.is_empty() {
                let chunk: Vec<Entry> =
                    self.staged.iter().take(self.config.drain).map(|(&k, &v)| (k, v)).collect();
                self.inner.insert_batch(&chunk)?;
                self.drained_entries += chunk.len() as u64;
                disk.telemetry().add(OpClass::Drain, chunk.len() as u64);
                for &(key, _) in &chunk {
                    self.staged.remove(&key);
                }
            }
        }
        self.write_checkpoint(false)?;
        Ok(())
    }

    /// Forces buffered WAL bytes to the device without draining, bounding
    /// what a crash right now could lose to nothing. No-op without a WAL.
    pub fn sync_wal(&mut self) -> IndexResult<()> {
        match &mut self.wal {
            Some(wal) => Ok(wal.sync()?),
            None => Ok(()),
        }
    }

    /// Drains everything and writes a durable checkpoint with the given
    /// clean-shutdown flag. `checkpoint(true)` is the orderly-shutdown path;
    /// crash-recovery tests call `checkpoint(false)` to leave the directory
    /// in the same shape a kill would. No-op without a WAL beyond the drain.
    pub fn checkpoint(&mut self, clean: bool) -> IndexResult<()> {
        self.flush()?;
        self.write_checkpoint(clean)
    }

    /// The checkpoint tail: capture `save_meta`, persist the manifest in the
    /// superblock, then retire the WAL. Ordering is load-bearing — the WAL
    /// may only be truncated once the superblock owning the drained state is
    /// durable, so a kill between the two steps merely replays entries the
    /// drain already applied (idempotent under newest-wins).
    fn write_checkpoint(&mut self, clean: bool) -> IndexResult<()> {
        let Some(wal) = &mut self.wal else {
            return Ok(());
        };
        let disk = Arc::clone(self.inner.disk());
        let _span = disk.telemetry().span(OpClass::Checkpoint);
        disk.stats().record_checkpoint();
        let index_meta = self.inner.save_meta()?;
        let manifest =
            Manifest { index_kind: self.tag.clone(), index_meta, wal_files: vec![wal.file()] };
        self.inner.disk().persist(&manifest.encode(), clean)?;
        wal.truncate()?;
        Ok(())
    }

    /// Flushes any staged entries and returns the wrapped index.
    pub fn into_inner(mut self) -> IndexResult<I> {
        self.flush()?;
        Ok(self.inner)
    }
}

impl<I: DiskIndex> IndexRead for WriteBuffer<I> {
    fn kind(&self) -> IndexKind {
        self.inner.kind()
    }

    fn name(&self) -> String {
        format!("{}+wb", self.inner.name())
    }

    fn disk(&self) -> &Arc<Disk> {
        self.inner.disk()
    }

    fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        if let Some(&v) = self.staged.get(&key) {
            return Ok(Some(v));
        }
        self.inner.lookup(key)
    }

    /// Answers staged keys from the overlay and forwards only the unresolved
    /// remainder to the wrapped index's `lookup_batch`, so a buffered index
    /// keeps whatever batched-probe amortisation the design implements.
    fn lookup_batch(&self, keys: &[Key], out: &mut Vec<Option<Value>>) -> IndexResult<()> {
        crate::lookup_batch_layered(
            keys,
            out,
            1,
            |key| self.staged.get(&key).copied(),
            |_| 0,
            |_, keys, answers| self.inner.lookup_batch(keys, answers),
        )
    }

    /// Merges the staged range `[start, ..)` into the wrapped index's scan
    /// result, newest-wins on duplicate keys, preserving the [`scan`]
    /// contract (ascending keys, no duplicates, up to `count` entries).
    ///
    /// [`scan`]: IndexRead::scan
    fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize> {
        if self.staged.is_empty() {
            return self.inner.scan(start, count, out);
        }
        // `stored` holds the `count` smallest stored keys >= start, so the
        // merged result's first `count` entries can only draw from `stored`
        // and the staged range — no further index I/O is needed. (No
        // count-sized preallocation: full-table scans legitimately pass
        // huge sentinel counts.)
        let mut stored = Vec::new();
        self.inner.scan(start, count, &mut stored)?;
        out.clear();
        if count == 0 {
            return Ok(0);
        }
        let staged = self.staged.range(start..).map(|(&k, &v)| (k, v));
        crate::merge_newest_wins(staged, stored, count, out);
        Ok(out.len())
    }

    /// Total keys visible through the overlay. Staged keys that also exist
    /// in the wrapped index are counted twice until a drain reconciles them
    /// (the same lazy reconciliation PGM applies to its insert run).
    fn len(&self) -> u64 {
        self.inner.len() + self.staged.len() as u64
    }

    fn stats(&self) -> IndexStats {
        self.inner.stats()
    }

    fn storage_blocks(&self) -> u64 {
        self.inner.storage_blocks()
    }
}

impl<I: DiskIndex> IndexWrite for WriteBuffer<I> {
    /// Bulk load goes straight to the wrapped index (the buffer only stages
    /// post-load inserts). With a WAL attached, the load ends in a durable
    /// checkpoint so a directory is reopenable right after building.
    fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
        self.inner.bulk_load(entries)?;
        self.write_checkpoint(false)
    }

    /// Stages the entry; drains automatically once `capacity` entries are
    /// buffered. With a WAL attached the entry is logged (group-committed)
    /// first — a stage that cannot be logged does not happen. No index I/O
    /// happens on the non-draining path.
    fn insert(&mut self, key: Key, value: Value) -> IndexResult<()> {
        if let Some(wal) = &mut self.wal {
            wal.append(&encode_wal_entry(key, value))?;
        }
        self.staged.insert(key, value);
        if self.staged.len() >= self.config.capacity {
            self.flush()?;
        }
        Ok(())
    }

    /// Stages the whole batch (later duplicates win, as the contract
    /// requires), draining whenever the staging threshold is crossed.
    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        for &(key, value) in entries {
            self.insert(key, value)?;
        }
        Ok(())
    }

    /// The wrapped index's breakdown (which already carries the drained
    /// batches' search/insert/SMO cost) plus this buffer's drain counters.
    fn insert_breakdown(&self) -> InsertBreakdown {
        let mut breakdown = self.inner.insert_breakdown();
        breakdown.drains += self.drains;
        breakdown.drained_entries += self.drained_entries;
        breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::MapIndex;

    #[test]
    fn stages_then_drains_in_sorted_chunks() {
        let mut wb = WriteBuffer::new(MapIndex::new(), WriteBufferConfig { capacity: 6, drain: 4 });
        wb.bulk_load(&[(1, 1)]).unwrap();
        for key in [9u64, 3, 7, 5, 11] {
            wb.insert(key, key * 10).unwrap();
        }
        assert_eq!(wb.staged_len(), 5, "below capacity: nothing drained yet");
        assert!(wb.inner().batches.is_empty());
        wb.insert(13, 130).unwrap();
        assert_eq!(wb.staged_len(), 0, "hitting capacity drains everything");
        assert_eq!(wb.inner().batches, vec![4, 2], "6 entries drain as ceil(6/4) chunks");
        assert_eq!(wb.inner().singles, 0, "drains go through insert_batch, never insert");
        let b = wb.insert_breakdown();
        assert_eq!(b.drains, 1);
        assert_eq!(b.drained_entries, 6);
    }

    #[test]
    fn overlay_reads_are_newest_wins() {
        let mut wb = WriteBuffer::new(MapIndex::new(), WriteBufferConfig::default());
        wb.bulk_load(&[(10, 1), (20, 2), (30, 3)]).unwrap();
        wb.insert(20, 99).unwrap();
        wb.insert(25, 50).unwrap();
        assert_eq!(wb.lookup(20).unwrap(), Some(99), "staged overwrite shadows the stored value");
        assert_eq!(wb.lookup(25).unwrap(), Some(50));
        assert_eq!(wb.lookup(10).unwrap(), Some(1), "unstaged keys read through");
        assert_eq!(wb.lookup(11).unwrap(), None);

        let mut out = Vec::new();
        assert_eq!(wb.scan(0, 10, &mut out).unwrap(), 4);
        assert_eq!(out, vec![(10, 1), (20, 99), (25, 50), (30, 3)]);
        // Truncation still respects the merged order.
        assert_eq!(wb.scan(15, 2, &mut out).unwrap(), 2);
        assert_eq!(out, vec![(20, 99), (25, 50)]);
        assert_eq!(wb.scan(0, 0, &mut out).unwrap(), 0);

        let mut answers = Vec::new();
        wb.lookup_batch(&[20, 11, 25, 10, 20], &mut answers).unwrap();
        assert_eq!(answers, vec![Some(99), None, Some(50), Some(1), Some(99)]);
    }

    #[test]
    fn flush_and_into_inner_reconcile_the_overlay() {
        let mut wb = WriteBuffer::new(MapIndex::new(), WriteBufferConfig::default());
        wb.bulk_load(&[(10, 1)]).unwrap();
        wb.insert(10, 7).unwrap();
        wb.insert(20, 2).unwrap();
        assert_eq!(wb.len(), 3, "a staged overwrite double-counts until the drain");
        wb.flush().unwrap();
        assert_eq!(wb.len(), 2, "drained: the wrapped index reconciles the overwrite");
        assert_eq!(wb.lookup(10).unwrap(), Some(7));
        let inner = wb.into_inner().unwrap();
        assert_eq!(inner.entries.get(&20), Some(&2));
    }

    #[test]
    fn scan_accepts_full_table_sentinel_counts() {
        // The repo's full-scan idiom passes huge counts; a count-sized
        // preallocation would abort with a capacity overflow.
        let mut wb = WriteBuffer::new(MapIndex::new(), WriteBufferConfig::default());
        wb.bulk_load(&[(10, 1), (20, 2)]).unwrap();
        wb.insert(15, 5).unwrap();
        let mut out = Vec::new();
        assert_eq!(wb.scan(0, usize::MAX / 2, &mut out).unwrap(), 3);
        assert_eq!(out, vec![(10, 1), (15, 5), (20, 2)]);
    }

    #[test]
    fn failed_drain_chunks_keep_their_entries_staged() {
        let mut inner = MapIndex::new();
        inner.poison = Some(7); // the second drain chunk will fail once
        let mut wb = WriteBuffer::new(inner, WriteBufferConfig { capacity: 64, drain: 2 });
        wb.bulk_load(&[]).unwrap();
        for key in [1u64, 3, 7, 9, 11, 13] {
            wb.insert(key, key * 10).unwrap();
        }
        assert!(wb.flush().is_err(), "the poisoned chunk must surface its error");
        // Chunk 1 ((1, 3)) was applied and unstaged; the rest stayed staged
        // and the overlay keeps serving them.
        assert_eq!(wb.inner().entries.len(), 2);
        assert_eq!(wb.staged_len(), 4);
        for key in [1u64, 3, 7, 9, 11, 13] {
            assert_eq!(wb.lookup(key).unwrap(), Some(key * 10), "key {key} lost by failed drain");
        }
        assert_eq!(wb.insert_breakdown().drained_entries, 2, "only applied entries count");
        // A retry resumes exactly where the failure happened.
        wb.flush().unwrap();
        assert_eq!(wb.staged_len(), 0);
        assert_eq!(wb.inner().entries.len(), 6);
        let b = wb.insert_breakdown();
        assert_eq!(b.drained_entries, 6);
        assert_eq!(b.drains, 2);
    }

    #[test]
    fn duplicate_staged_keys_collapse_latest_wins() {
        let mut wb = WriteBuffer::new(MapIndex::new(), WriteBufferConfig { capacity: 8, drain: 8 });
        wb.bulk_load(&[]).unwrap();
        wb.insert_batch(&[(5, 1), (5, 2), (5, 3)]).unwrap();
        assert_eq!(wb.staged_len(), 1);
        assert_eq!(wb.lookup(5).unwrap(), Some(3));
        wb.flush().unwrap();
        assert_eq!(wb.inner().entries.get(&5), Some(&3));
        assert_eq!(wb.insert_breakdown().drained_entries, 1);
    }
}
