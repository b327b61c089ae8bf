//! The concurrent write front: racing readers over a mutating index.
//!
//! Up to PR 5 every write funnelled through `&mut self`, so a mixed
//! read/write workload serialised on the writer even though the read side
//! ([`IndexRead`]) has been thread-safe since the zero-copy read path
//! landed. This module removes that funnel in two layers (`DESIGN.md`
//! §3.5):
//!
//! * [`ConcurrentIndex`] — an explicit reader/writer lock around a
//!   [`DiskIndex`]. Reads take a shared lock (the `IndexRead` methods stay
//!   `&self`); [`ConcurrentIndex::insert_batch_exclusive`] takes the write
//!   lock **per drain chunk**, not per workload, so readers interleave with
//!   a draining writer at chunk granularity.
//! * [`ShardedWriteBuffer`] — the group-commit staging front of
//!   [`crate::write_buffer::WriteBuffer`], resharded for concurrency: the
//!   staging map is split into contiguous key-range shards, each behind its
//!   own mutex, so writer threads staging into different ranges never
//!   contend, and readers overlay one shard's snapshot without blocking
//!   other shards or an in-flight drain.
//!
//! Contention is observable, not guessed at: every lock acquisition first
//! tries the non-blocking path and records a stall in the disk's
//! [`IoStats`] (`read_stalls` / `write_stalls`) when it has to block, and
//! every exclusive drain chunk is counted (`drain_chunks` /
//! `drain_entries`).
//!
//! # Locking protocol
//!
//! Lock order is *shard state → index lock*, and no thread ever holds a
//! shard's staging lock while acquiring the index lock:
//!
//! 1. **stage** — lock the target shard's staging map, upsert, unlock. No
//!    other shard and no reader of the index is touched.
//! 2. **overlay-read** — lock the key's shard staging map, probe, unlock;
//!    only on a miss take the index read lock. Scans collect the staged
//!    range shard-by-shard (each lock held only while copying) and then
//!    merge newest-wins with the index scan.
//! 3. **drain** — take the shard's drain lock (serialising drains of that
//!    shard only), snapshot a chunk under the staging lock, *release the
//!    staging lock*, apply the chunk under the index write lock, then
//!    re-lock the staging map and remove exactly the entries whose staged
//!    value still equals the drained value. A key re-staged mid-drain keeps
//!    its newer value; a reader always sees either the staged value or the
//!    just-applied identical value — newest-wins never regresses across a
//!    drain boundary. A capacity-triggered drain is *bounded*: it stops
//!    once the shard is back below capacity (or after a fixed chunk
//!    budget), so racing re-stagers can never starve the draining thread;
//!    only an explicit `flush` drains to empty.
//!
//! [`IoStats`]: lidx_storage::IoStats

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lidx_storage::{Disk, OpClass};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::IndexResult;
use crate::index::{DiskIndex, IndexKind, IndexRead, IndexStats, IndexWrite};
use crate::metrics::InsertBreakdown;
use crate::{Entry, Key, Value};

/// A reader/writer lock around a [`DiskIndex`] that keeps the read side
/// `&self` while giving drains exclusive access one chunk at a time.
///
/// The wrapped index's own `IndexRead` methods are already safe for N
/// concurrent readers over a *frozen* structure; what they cannot tolerate
/// is a concurrent structural mutation. `ConcurrentIndex` provides exactly
/// that missing piece: every read takes a shared lock, and
/// [`insert_batch_exclusive`] takes the write lock for the duration of one
/// `insert_batch` call. Because the write lock is scoped to a drain chunk
/// (at most [`ShardedWriteBufferConfig::drain`] entries when driven by a
/// [`ShardedWriteBuffer`]), readers are never locked out for a whole
/// workload — the paper's mixed workloads interleave at chunk granularity.
///
/// Lock contention is recorded in the disk's [`lidx_storage::IoStats`]: a
/// read that finds the write lock held counts one `read_stall`, a drain
/// that finds readers in flight counts one `write_stall`, and every
/// exclusive chunk counts one `drain_chunk`.
///
/// [`insert_batch_exclusive`]: ConcurrentIndex::insert_batch_exclusive
pub struct ConcurrentIndex<I> {
    inner: RwLock<I>,
    /// Cloned out of the wrapped index at construction: `IndexRead::disk`
    /// returns `&Arc<Disk>`, which cannot be handed out through a lock
    /// guard, so the wrapper keeps its own reference.
    disk: Arc<Disk>,
    kind: IndexKind,
    inner_name: String,
}

impl<I: DiskIndex> ConcurrentIndex<I> {
    /// Wraps `inner` behind a reader/writer lock.
    pub fn new(inner: I) -> Self {
        let disk = Arc::clone(inner.disk());
        let kind = inner.kind();
        let inner_name = inner.name();
        ConcurrentIndex { inner: RwLock::new(inner), disk, kind, inner_name }
    }

    /// Acquires the shared read lock, counting a stall (and timing the wait
    /// as a `lock_read` pause) if it has to block.
    pub fn read(&self) -> RwLockReadGuard<'_, I> {
        if let Some(guard) = self.inner.try_read() {
            return guard;
        }
        self.disk.stats().record_read_stall();
        let _span = self.disk.telemetry().span(OpClass::LockRead);
        self.inner.read()
    }

    /// Acquires the exclusive write lock, counting a stall (and timing the
    /// wait as a `lock_write` pause) if it has to block.
    pub fn write(&self) -> RwLockWriteGuard<'_, I> {
        if let Some(guard) = self.inner.try_write() {
            return guard;
        }
        self.disk.stats().record_write_stall();
        let _span = self.disk.telemetry().span(OpClass::LockWrite);
        self.inner.write()
    }

    /// Applies one drain chunk under the exclusive write lock.
    ///
    /// This is *the* write path of the concurrent front: the lock is held
    /// for exactly one [`IndexWrite::insert_batch`] call, and the chunk is
    /// recorded in the disk's drain counters. Concurrent readers block only
    /// for the duration of the chunk.
    pub fn insert_batch_exclusive(&self, entries: &[Entry]) -> IndexResult<()> {
        // One drain pause as the readers experience it: lock acquisition
        // plus the chunk's exclusive application.
        let _span = self.disk.telemetry().span(OpClass::Drain);
        let mut guard = self.write();
        guard.insert_batch(entries)?;
        drop(guard);
        self.disk.stats().record_drain_chunk(entries.len() as u64);
        self.disk.telemetry().add(OpClass::Drain, entries.len() as u64);
        Ok(())
    }

    /// Consumes the wrapper and returns the index.
    pub fn into_inner(self) -> I {
        self.inner.into_inner()
    }
}

impl<I: DiskIndex> IndexRead for ConcurrentIndex<I> {
    fn kind(&self) -> IndexKind {
        self.kind
    }

    fn name(&self) -> String {
        format!("{}+rw", self.inner_name)
    }

    fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        self.read().lookup(key)
    }

    fn lookup_batch(&self, keys: &[Key], out: &mut Vec<Option<Value>>) -> IndexResult<()> {
        self.read().lookup_batch(keys, out)
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize> {
        self.read().scan(start, count, out)
    }

    fn scan_batch(&self, ranges: &[(Key, usize)], out: &mut Vec<Vec<Entry>>) -> IndexResult<()> {
        self.read().scan_batch(ranges, out)
    }

    fn len(&self) -> u64 {
        self.read().len()
    }

    fn stats(&self) -> IndexStats {
        self.read().stats()
    }

    fn storage_blocks(&self) -> u64 {
        self.read().storage_blocks()
    }
}

impl<I: DiskIndex> IndexWrite for ConcurrentIndex<I> {
    /// Exclusive by construction (`&mut self`): no lock traffic, no stall
    /// accounting — used for the bulk-load phase before the index is
    /// shared.
    fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
        self.inner.get_mut().bulk_load(entries)
    }

    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        self.inner.get_mut().insert_batch(entries)
    }

    fn insert_breakdown(&self) -> InsertBreakdown {
        self.read().insert_breakdown()
    }
}

/// Configuration of a [`ShardedWriteBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedWriteBufferConfig {
    /// Number of staged entries in one *shard* that triggers an automatic
    /// drain of that shard (the single-threaded buffer's
    /// [`crate::write_buffer::WriteBufferConfig::capacity`], applied per
    /// shard).
    pub capacity: usize,
    /// Maximum entries handed to one exclusive
    /// [`ConcurrentIndex::insert_batch_exclusive`] call while draining —
    /// the granularity at which readers interleave with a drain.
    pub drain: usize,
    /// Number of key-range shards. More shards mean less staging
    /// contention between writer threads whose keys land apart; one shard
    /// degenerates to the single-threaded buffer's behaviour.
    pub shards: usize,
}

impl Default for ShardedWriteBufferConfig {
    fn default() -> Self {
        ShardedWriteBufferConfig { capacity: 1024, drain: 256, shards: 8 }
    }
}

/// Places `shards - 1` boundaries at the quantiles of `sample` (sorted and
/// deduplicated first), so a `shards`-way contiguous key-range partition
/// sees a comparable load even for skewed key populations. Returns an
/// empty vector (a single unbounded shard) for an empty sample or
/// `shards <= 1`; collapsing quantiles of a small sample are deduplicated,
/// so fewer than `shards - 1` boundaries may come back.
///
/// This is the boundary machinery shared by
/// [`ShardedWriteBuffer::with_sampled_boundaries`] (staging shards within
/// one instance) and
/// [`crate::sharded::ShardedIndex::with_sampled_boundaries`] (keyspace
/// shards across instances).
pub fn sampled_boundaries(sample: &[Key], shards: usize) -> Vec<Key> {
    if sample.is_empty() || shards <= 1 {
        return Vec::new();
    }
    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut boundaries: Vec<Key> =
        (1..shards).map(|s| sorted[(s * sorted.len() / shards).min(sorted.len() - 1)]).collect();
    boundaries.dedup();
    boundaries
}

/// One key-range shard of the staging front.
struct Shard {
    /// The staged entries of this key range.
    staged: Mutex<BTreeMap<Key, Value>>,
    /// Serialises drains of this shard (stagers and readers are *not*
    /// blocked by a drain holding this — they only touch `staged`).
    drain_gate: Mutex<()>,
}

/// A sharded group-commit staging front over a [`ConcurrentIndex`]: the
/// concurrent counterpart of [`crate::write_buffer::WriteBuffer`].
///
/// All mutating entry points take `&self`, so one `ShardedWriteBuffer` can
/// be shared across writer and reader threads (e.g. via
/// [`std::thread::scope`]): writers call [`stage`] / [`stage_batch`],
/// readers call the [`IndexRead`] methods, and drains happen automatically
/// whenever a shard crosses its capacity — or on demand via [`flush`].
///
/// The staging map is partitioned into contiguous key ranges
/// (`boundaries`), each behind its own mutex; see the
/// [module docs](self) for the locking protocol and its invariants.
///
/// # Example
///
/// Four writer threads race inserts against two reader threads; every
/// staged entry is visible immediately (newest-wins overlay) and all of it
/// reaches the wrapped index on the final flush:
///
/// ```
/// use lidx_core::concurrent::{ShardedWriteBuffer, ShardedWriteBufferConfig};
/// use lidx_core::index::{IndexKind, IndexRead, IndexStats, IndexWrite};
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
/// let mut buffered = ShardedWriteBuffer::new(index, ShardedWriteBufferConfig::default());
/// buffered.bulk_load(&[])?;
///
/// std::thread::scope(|s| {
///     let buffered = &buffered;
///     for t in 0..4u64 {
///         s.spawn(move || {
///             for i in 0..100u64 {
///                 buffered.stage(i * 4 + t, i).expect("stage");
///             }
///         });
///     }
///     for _ in 0..2 {
///         s.spawn(move || {
///             let mut out = Vec::new();
///             buffered.scan(0, 50, &mut out).expect("scan");
///         });
///     }
/// });
///
/// buffered.flush()?;
/// assert_eq!(buffered.staged_len(), 0);
/// assert_eq!(buffered.into_inner()?.entries.len(), 400);
/// # Ok::<(), lidx_core::IndexError>(())
/// ```
///
/// [`stage`]: ShardedWriteBuffer::stage
/// [`stage_batch`]: ShardedWriteBuffer::stage_batch
/// [`flush`]: ShardedWriteBuffer::flush
pub struct ShardedWriteBuffer<I> {
    index: ConcurrentIndex<I>,
    config: ShardedWriteBufferConfig,
    /// `boundaries[s]` is the first key *not* in shard `s`; shard
    /// `shards - 1` is unbounded above. Length `config.shards - 1`.
    boundaries: Vec<Key>,
    shards: Vec<Shard>,
    drains: AtomicU64,
    drained_entries: AtomicU64,
}

impl<I: DiskIndex> ShardedWriteBuffer<I> {
    /// Wraps `inner` behind a sharded staging front with uniform key-range
    /// boundaries over the full `u64` space.
    pub fn new(inner: I, config: ShardedWriteBufferConfig) -> Self {
        let shards = config.shards.max(1);
        let step = Key::MAX / shards as Key;
        let boundaries = (1..shards).map(|s| step.saturating_mul(s as Key)).collect();
        Self::with_boundaries(inner, config, boundaries)
    }

    /// Wraps `inner` with shard boundaries derived from a sample of the
    /// key population (e.g. the bulk-load keys): boundaries are placed at
    /// the sample's quantiles so each shard sees a comparable staging
    /// load even for skewed key spaces.
    pub fn with_sampled_boundaries(
        inner: I,
        config: ShardedWriteBufferConfig,
        sample: &[Key],
    ) -> Self {
        let boundaries = sampled_boundaries(sample, config.shards.max(1));
        if boundaries.is_empty() {
            return Self::new(inner, config);
        }
        Self::with_boundaries(inner, config, boundaries)
    }

    /// Wraps `inner` with explicit shard boundaries (`boundaries[s]` is
    /// the first key of shard `s + 1`; must be strictly increasing).
    pub fn with_boundaries(
        inner: I,
        config: ShardedWriteBufferConfig,
        boundaries: Vec<Key>,
    ) -> Self {
        assert!(config.capacity >= 1, "shard capacity must hold at least one entry");
        assert!(config.drain >= 1, "drain chunks must carry at least one entry");
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "shard boundaries must be strictly increasing"
        );
        let shards = (0..=boundaries.len())
            .map(|_| Shard { staged: Mutex::new(BTreeMap::new()), drain_gate: Mutex::new(()) })
            .collect();
        ShardedWriteBuffer {
            index: ConcurrentIndex::new(inner),
            config,
            boundaries,
            shards,
            drains: AtomicU64::new(0),
            drained_entries: AtomicU64::new(0),
        }
    }

    /// Number of shards actually built (explicit boundaries may collapse
    /// duplicates, so this can be less than the configured count).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard whose key range contains `key`.
    pub fn shard_of(&self, key: Key) -> usize {
        self.boundaries.partition_point(|&b| b <= key)
    }

    /// Total entries currently staged across all shards.
    pub fn staged_len(&self) -> usize {
        self.shards.iter().map(|s| s.staged.lock().len()).sum()
    }

    /// Number of shard drains performed so far (each may have issued
    /// several exclusive chunks).
    pub fn drains(&self) -> u64 {
        self.drains.load(Ordering::Relaxed)
    }

    /// Shared access to the underlying [`ConcurrentIndex`].
    pub fn index(&self) -> &ConcurrentIndex<I> {
        &self.index
    }

    /// Stages one entry (upsert, visible immediately through the overlay)
    /// and drains the target shard if it crossed its capacity. Safe to
    /// call from any number of threads.
    pub fn stage(&self, key: Key, value: Value) -> IndexResult<()> {
        let s = self.shard_of(key);
        let mut staged = self.lock_staged_write(&self.shards[s]);
        staged.insert(key, value);
        let full = staged.len() >= self.config.capacity;
        drop(staged);
        if full {
            self.drain_shard_bounded(s)?;
        }
        Ok(())
    }

    /// Stages a batch (later duplicates win), draining any shard that
    /// crosses its capacity along the way.
    pub fn stage_batch(&self, entries: &[Entry]) -> IndexResult<()> {
        for &(key, value) in entries {
            self.stage(key, value)?;
        }
        Ok(())
    }

    /// Drains every shard through the exclusive chunked path, leaving the
    /// staging front empty (unless a chunk fails, in which case the
    /// not-yet-applied entries stay staged and served by the overlay).
    pub fn flush(&self) -> IndexResult<()> {
        for s in 0..self.shards.len() {
            self.drain_shard(s)?;
        }
        Ok(())
    }

    /// Flushes all shards and returns the wrapped index.
    pub fn into_inner(self) -> IndexResult<I> {
        self.flush()?;
        Ok(self.index.into_inner())
    }

    /// Locks a shard's staging map on behalf of a *writer* (stage or
    /// drain), counting a write stall if contended.
    fn lock_staged_write<'a>(
        &self,
        shard: &'a Shard,
    ) -> parking_lot::MutexGuard<'a, BTreeMap<Key, Value>> {
        if let Some(guard) = shard.staged.try_lock() {
            return guard;
        }
        self.index.disk().stats().record_write_stall();
        let _span = self.index.disk().telemetry().span(OpClass::LockWrite);
        shard.staged.lock()
    }

    /// Locks a shard's staging map on behalf of an overlay *read*
    /// (`lookup`, `lookup_batch`, `scan` via [`staged_range`]), counting a
    /// read stall if contended — a reader blocked on the staging lock is
    /// read-side contention and must not inflate `write_stalls`.
    ///
    /// [`staged_range`]: ShardedWriteBuffer::staged_range
    fn lock_staged_read<'a>(
        &self,
        shard: &'a Shard,
    ) -> parking_lot::MutexGuard<'a, BTreeMap<Key, Value>> {
        if let Some(guard) = shard.staged.try_lock() {
            return guard;
        }
        self.index.disk().stats().record_read_stall();
        let _span = self.index.disk().telemetry().span(OpClass::LockRead);
        shard.staged.lock()
    }

    /// Drains one shard completely (the [`flush`] path — only the caller
    /// keeps staging, so running until empty terminates).
    ///
    /// [`flush`]: ShardedWriteBuffer::flush
    fn drain_shard(&self, s: usize) -> IndexResult<()> {
        self.drain_shard_inner(s, None)
    }

    /// Drains one shard far enough to relieve its capacity trigger.
    ///
    /// A capacity-triggered drain must *not* loop until the shard is empty:
    /// with racing writers re-staging into the same shard the emptiness
    /// condition may never hold and the draining thread starves. Instead the
    /// triggered path stops as soon as the shard is back below capacity, and
    /// in any case after enough chunks to clear one full shard (plus one
    /// chunk of slack for entries staged while draining).
    fn drain_shard_bounded(&self, s: usize) -> IndexResult<()> {
        let max_chunks = self.config.capacity.div_ceil(self.config.drain) + 1;
        self.drain_shard_inner(s, Some(max_chunks))
    }

    /// Drains one shard: snapshot a chunk under the staging lock, apply it
    /// under the index write lock, then remove exactly the entries whose
    /// staged value is still the drained one (a key re-staged mid-chunk
    /// keeps its newer value for the next drain). With `max_chunks` set,
    /// stops early once the shard is below capacity and never exceeds the
    /// chunk budget.
    fn drain_shard_inner(&self, s: usize, max_chunks: Option<usize>) -> IndexResult<()> {
        let shard = &self.shards[s];
        let gate = match shard.drain_gate.try_lock() {
            Some(guard) => guard,
            None => {
                // Another thread is already draining this shard; crossing
                // the capacity threshold twice concurrently just queues the
                // second drain behind the first.
                self.index.disk().stats().record_write_stall();
                let _span = self.index.disk().telemetry().span(OpClass::LockWrite);
                shard.drain_gate.lock()
            }
        };
        let mut drained_any = false;
        let mut chunks_done = 0usize;
        loop {
            if max_chunks.is_some_and(|cap| chunks_done >= cap) {
                break;
            }
            let chunk: Vec<Entry> = {
                let staged = self.lock_staged_write(shard);
                if drained_any && max_chunks.is_some() && staged.len() < self.config.capacity {
                    // The trigger is relieved; leave the remainder for the
                    // next drain instead of chasing racing re-stagers.
                    break;
                }
                staged.iter().take(self.config.drain).map(|(&k, &v)| (k, v)).collect()
            };
            if chunk.is_empty() {
                break;
            }
            self.index.insert_batch_exclusive(&chunk)?;
            drained_any = true;
            chunks_done += 1;
            self.drained_entries.fetch_add(chunk.len() as u64, Ordering::Relaxed);
            let mut staged = self.lock_staged_write(shard);
            for &(key, value) in &chunk {
                if staged.get(&key) == Some(&value) {
                    staged.remove(&key);
                }
            }
        }
        drop(gate);
        if drained_any {
            self.drains.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Collects up to `count` staged entries with keys `>= start`, in
    /// ascending key order, locking one shard at a time.
    fn staged_range(&self, start: Key, count: usize) -> Vec<Entry> {
        let mut out = Vec::new();
        if count == 0 {
            return out;
        }
        for s in self.shard_of(start)..self.shards.len() {
            let staged = self.lock_staged_read(&self.shards[s]);
            out.extend(staged.range(start..).take(count - out.len()).map(|(&k, &v)| (k, v)));
            if out.len() >= count {
                break;
            }
        }
        out
    }
}

impl<I: DiskIndex> IndexRead for ShardedWriteBuffer<I> {
    fn kind(&self) -> IndexKind {
        self.index.kind()
    }

    fn name(&self) -> String {
        format!("{}+swb", self.index.name())
    }

    fn disk(&self) -> &Arc<Disk> {
        self.index.disk()
    }

    /// Overlay-first: a staged key answers from its shard without touching
    /// the index (or any other shard); only a miss takes the index read
    /// lock.
    fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        let shard = &self.shards[self.shard_of(key)];
        let staged = self.lock_staged_read(shard);
        if let Some(&v) = staged.get(&key) {
            return Ok(Some(v));
        }
        drop(staged);
        self.index.lookup(key)
    }

    /// Answers staged keys from their shards and forwards only the
    /// unresolved remainder to the index's batched probe, under one read
    /// lock.
    fn lookup_batch(&self, keys: &[Key], out: &mut Vec<Option<Value>>) -> IndexResult<()> {
        crate::lookup_batch_layered(
            keys,
            out,
            1,
            |key| self.lock_staged_read(&self.shards[self.shard_of(key)]).get(&key).copied(),
            |_| 0,
            |_, keys, answers| self.index.lookup_batch(keys, answers),
        )
    }

    /// Merges the staged range (collected shard-by-shard) into the index's
    /// scan result, newest-wins on duplicate keys. The staged snapshot is
    /// taken *before* the index scan, so an entry drained in between is
    /// seen at least once (staged and stored values are identical at that
    /// point) and never lost.
    fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize> {
        let staged = self.staged_range(start, count);
        if staged.is_empty() {
            return self.index.scan(start, count, out);
        }
        let mut stored = Vec::new();
        self.index.scan(start, count, &mut stored)?;
        out.clear();
        crate::merge_newest_wins(staged, stored, count, out);
        Ok(out.len())
    }

    /// Keys visible through the overlay; like the single-threaded buffer,
    /// a staged key that also exists in the index double-counts until a
    /// drain reconciles it.
    fn len(&self) -> u64 {
        self.index.len() + self.staged_len() as u64
    }

    fn stats(&self) -> IndexStats {
        self.index.stats()
    }

    fn storage_blocks(&self) -> u64 {
        self.index.storage_blocks()
    }
}

impl<I: DiskIndex> IndexWrite for ShardedWriteBuffer<I> {
    /// Bulk load goes straight to the wrapped index, before sharing.
    fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
        self.index.bulk_load(entries)
    }

    /// The `&mut self` writes are just
    /// [`stage_batch`](ShardedWriteBuffer::stage_batch) — provided so the
    /// buffer remains a drop-in [`DiskIndex`].
    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        self.stage_batch(entries)
    }

    /// The wrapped index's breakdown plus this front's drain counters.
    fn insert_breakdown(&self) -> InsertBreakdown {
        let mut breakdown = self.index.insert_breakdown();
        breakdown.drains += self.drains.load(Ordering::Relaxed);
        breakdown.drained_entries += self.drained_entries.load(Ordering::Relaxed);
        breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::MapIndex;

    fn buffer(config: ShardedWriteBufferConfig) -> ShardedWriteBuffer<MapIndex> {
        let mut b = ShardedWriteBuffer::new(MapIndex::new(), config);
        b.bulk_load(&[]).unwrap();
        b
    }

    #[test]
    fn keys_route_to_contiguous_shards() {
        let b = ShardedWriteBuffer::with_boundaries(
            MapIndex::new(),
            ShardedWriteBufferConfig { shards: 3, ..Default::default() },
            vec![100, 200],
        );
        assert_eq!(b.shard_count(), 3);
        assert_eq!(b.shard_of(0), 0);
        assert_eq!(b.shard_of(99), 0);
        assert_eq!(b.shard_of(100), 1);
        assert_eq!(b.shard_of(199), 1);
        assert_eq!(b.shard_of(200), 2);
        assert_eq!(b.shard_of(Key::MAX), 2);
    }

    #[test]
    fn sampled_boundaries_balance_a_skewed_key_space() {
        // All keys live in [0, 1000): uniform u64 boundaries would put
        // every key into shard 0; sampled boundaries split the population.
        let sample: Vec<Key> = (0..1000).collect();
        let b = ShardedWriteBuffer::with_sampled_boundaries(
            MapIndex::new(),
            ShardedWriteBufferConfig { shards: 4, ..Default::default() },
            &sample,
        );
        let shards: std::collections::HashSet<usize> =
            sample.iter().map(|&k| b.shard_of(k)).collect();
        assert_eq!(shards.len(), 4, "all four shards must receive keys");
    }

    #[test]
    fn capacity_drains_only_the_full_shard() {
        let b = ShardedWriteBuffer::with_boundaries(
            MapIndex::new(),
            ShardedWriteBufferConfig { capacity: 3, drain: 8, shards: 2 },
            vec![1000],
        );
        // Shard 0 fills to capacity; shard 1 keeps one entry staged.
        b.stage(2000, 1).unwrap();
        b.stage(1, 1).unwrap();
        b.stage(2, 2).unwrap();
        assert_eq!(b.drains(), 0);
        b.stage(3, 3).unwrap();
        assert_eq!(b.drains(), 1, "shard 0 crossed its capacity");
        assert_eq!(b.staged_len(), 1, "shard 1's entry stays staged");
        assert_eq!(b.index().read().entries.len(), 3);
        let stats = b.disk().stats();
        assert_eq!(stats.drain_chunks(), 1);
        assert_eq!(stats.drain_entries(), 3);
    }

    #[test]
    fn overlay_reads_are_newest_wins_across_shards() {
        let mut b = ShardedWriteBuffer::with_boundaries(
            MapIndex::new(),
            ShardedWriteBufferConfig { capacity: 64, drain: 64, shards: 3 },
            vec![100, 200],
        );
        b.bulk_load(&[(10, 1), (150, 2), (250, 3)]).unwrap();
        b.stage(150, 99).unwrap();
        b.stage(50, 50).unwrap();
        b.stage(225, 25).unwrap();

        assert_eq!(b.lookup(150).unwrap(), Some(99), "staged overwrite shadows the store");
        assert_eq!(b.lookup(10).unwrap(), Some(1), "unstaged keys read through");
        assert_eq!(b.lookup(11).unwrap(), None);

        let mut out = Vec::new();
        assert_eq!(b.scan(0, 10, &mut out).unwrap(), 5);
        assert_eq!(out, vec![(10, 1), (50, 50), (150, 99), (225, 25), (250, 3)]);
        // A scan crossing shard boundaries merges all staged ranges.
        assert_eq!(b.scan(40, 3, &mut out).unwrap(), 3);
        assert_eq!(out, vec![(50, 50), (150, 99), (225, 25)]);

        let mut answers = Vec::new();
        b.lookup_batch(&[150, 11, 225, 10, 150], &mut answers).unwrap();
        assert_eq!(answers, vec![Some(99), None, Some(25), Some(1), Some(99)]);
    }

    #[test]
    fn flush_reconciles_every_shard_in_chunks() {
        let b = buffer(ShardedWriteBufferConfig { capacity: 1024, drain: 4, shards: 4 });
        for key in 0..10u64 {
            b.stage(key.wrapping_mul(0x9E37_79B9_7F4A_7C15), key).unwrap();
        }
        assert_eq!(b.staged_len(), 10);
        b.flush().unwrap();
        assert_eq!(b.staged_len(), 0);
        assert_eq!(b.index().len(), 10);
        let breakdown = b.insert_breakdown();
        assert_eq!(breakdown.drained_entries, 10);
        assert!(breakdown.drains >= 1);
        assert_eq!(b.disk().stats().drain_entries(), 10);
    }

    #[test]
    fn failed_drain_chunks_keep_their_entries_staged() {
        let mut inner = MapIndex::new();
        inner.poison = Some(7);
        let b = {
            let mut b = ShardedWriteBuffer::with_boundaries(
                inner,
                ShardedWriteBufferConfig { capacity: 64, drain: 2, shards: 1 },
                Vec::new(),
            );
            b.bulk_load(&[]).unwrap();
            b
        };
        for key in [1u64, 3, 7, 9, 11, 13] {
            b.stage(key, key * 10).unwrap();
        }
        assert!(b.flush().is_err(), "the poisoned chunk must surface its error");
        assert_eq!(b.staged_len(), 4, "unapplied entries stay staged");
        for key in [1u64, 3, 7, 9, 11, 13] {
            assert_eq!(b.lookup(key).unwrap(), Some(key * 10), "key {key} lost by failed drain");
        }
        b.flush().unwrap();
        assert_eq!(b.staged_len(), 0);
        assert_eq!(b.index().len(), 6);
    }

    #[test]
    fn restaged_key_survives_a_concurrent_looking_drain() {
        // Simulate the mid-drain re-stage interleaving deterministically:
        // value v1 is snapshot into a chunk, the key is re-staged with v2
        // before the removal step runs, and the removal must keep v2.
        let b = buffer(ShardedWriteBufferConfig { capacity: 1024, drain: 8, shards: 1 });
        b.stage(5, 1).unwrap();
        // Drain applies (5, 1) ...
        b.flush().unwrap();
        // ... and a later re-stage must shadow the drained value again.
        b.stage(5, 2).unwrap();
        assert_eq!(b.lookup(5).unwrap(), Some(2));
        b.flush().unwrap();
        assert_eq!(b.lookup(5).unwrap(), Some(2));
        assert_eq!(b.index().read().entries.get(&5), Some(&2));
    }

    #[test]
    fn racing_stagers_and_readers_lose_nothing() {
        let b = buffer(ShardedWriteBufferConfig { capacity: 16, drain: 8, shards: 4 });
        let writers = 4u64;
        let per_writer = 500u64;
        std::thread::scope(|s| {
            let b = &b;
            for w in 0..writers {
                s.spawn(move || {
                    for i in 0..per_writer {
                        let key = i * writers + w; // disjoint key sets
                        b.stage(key, key + 1).expect("stage");
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for start in (0..per_writer * writers).step_by(97) {
                        let n = b.scan(start, 32, &mut out).expect("scan");
                        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "scan must stay sorted");
                        assert!(n <= 32);
                    }
                });
            }
        });
        b.flush().unwrap();
        assert_eq!(b.index().len(), writers * per_writer, "every staged entry must survive");
        for key in 0..writers * per_writer {
            assert_eq!(b.lookup(key).unwrap(), Some(key + 1), "key {key}");
        }
    }

    #[test]
    fn a_triggered_drain_is_not_starved_by_racing_restagers() {
        use std::sync::atomic::AtomicBool;
        // capacity 8 / drain 2: a triggered drain's chunk budget is
        // 8/2 + 1 = 5. The re-stager keeps the shard topped up to just
        // below capacity, so the old drain-until-empty loop would never
        // terminate (staging is made reliably faster than draining via the
        // per-batch delay); the bounded drain must return regardless.
        let mut inner = MapIndex::new();
        inner.batch_delay = Some(std::time::Duration::from_millis(2));
        let b = {
            let mut b = ShardedWriteBuffer::with_boundaries(
                inner,
                ShardedWriteBufferConfig { capacity: 8, drain: 2, shards: 1 },
                Vec::new(),
            );
            b.bulk_load(&[]).unwrap();
            b
        };
        for key in 0..7u64 {
            b.stage(key, key).unwrap();
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (b, stop) = (&b, &stop);
            let restager = s.spawn(move || {
                let mut key = 1_000u64;
                while !stop.load(Ordering::Relaxed) {
                    // Refill without ever crossing capacity ourselves, so
                    // the re-stager never becomes a drainer.
                    if b.staged_len() < 6 {
                        b.stage(key, key).unwrap();
                        key += 1;
                    }
                    std::thread::yield_now();
                }
                key
            });
            // Crosses capacity and triggers the drain. Under the unbounded
            // loop this call would never return while the re-stager runs.
            b.stage(7, 7).unwrap();
            assert!(
                b.disk().stats().drain_chunks() <= 5,
                "a triggered drain must respect its chunk budget"
            );
            stop.store(true, Ordering::Relaxed);
            let next_key = restager.join().unwrap();
            // Nothing is lost: flush (unbounded, re-stager stopped) must
            // reconcile every key staged by either thread.
            b.flush().unwrap();
            for key in (0..8).chain(1_000..next_key) {
                assert_eq!(b.lookup(key).unwrap(), Some(key), "key {key}");
            }
        });
    }

    #[test]
    fn overlay_reads_blocked_on_staging_record_read_stalls() {
        let b = buffer(ShardedWriteBufferConfig::default());
        b.stage(1, 1).unwrap();
        let stats = b.disk().stats();
        let (reads_before, writes_before) = (stats.read_stalls(), stats.write_stalls());
        std::thread::scope(|s| {
            // Hold the staging lock of key 1's shard while an overlay read
            // probes it: the reader must block, and the stall must land in
            // the *read* column.
            let guard = b.shards[b.shard_of(1)].staged.lock();
            let b2 = &b;
            let reader = s.spawn(move || b2.lookup(1).expect("lookup"));
            while b.disk().stats().read_stalls() == reads_before {
                std::thread::yield_now();
            }
            drop(guard);
            assert_eq!(reader.join().unwrap(), Some(1));
        });
        assert!(b.disk().stats().read_stalls() > reads_before);
        assert_eq!(
            b.disk().stats().write_stalls(),
            writes_before,
            "an overlay read stalling on the staging lock is not write contention"
        );
    }

    #[test]
    fn stall_counters_surface_contention() {
        // Hold the index write lock from one thread while another reads:
        // the reader must block and the stall must be counted.
        let b = buffer(ShardedWriteBufferConfig::default());
        b.stage(1, 1).unwrap();
        let stats_before = b.disk().stats().read_stalls();
        std::thread::scope(|s| {
            let guard = b.index().write();
            let b2 = &b;
            let reader = s.spawn(move || {
                // Key 2 is not staged, so the lookup must go to the index
                // and block on the held write lock.
                b2.lookup(2).expect("lookup")
            });
            while b.disk().stats().read_stalls() == stats_before {
                std::thread::yield_now();
            }
            drop(guard);
            assert_eq!(reader.join().unwrap(), None);
        });
        assert!(b.disk().stats().read_stalls() > stats_before);
    }
}
