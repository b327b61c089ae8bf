//! The sharded serving layer: N independent index instances behind one
//! keyspace router.
//!
//! Up to PR 8 every design ran as a single instance over one [`Disk`]: one
//! buffer pool, one write front, one drain pipeline. That per-instance
//! stack is finished — [`ShardedIndex`] composes N of them into a serving
//! tier (`DESIGN.md` §3.8):
//!
//! * the keyspace is range-partitioned at sampled quantiles (the same
//!   [`sampled_boundaries`] machinery the staging front uses), so each
//!   shard holds a comparable slice of a skewed key population;
//! * each shard owns its **own** [`Disk`] (its own pool partition, stats,
//!   drain counters) and its own [`ShardedWriteBuffer`] front, so drains
//!   and pool pressure in one key range never stall readers of another;
//! * the router exposes the full [`IndexRead`]/[`IndexWrite`] surface:
//!   lookups route point-wise, batches fan out per shard and re-merge in
//!   caller order, scans stitch across shard boundaries, and
//!   `insert_batch` routes each entry to its owning shard;
//! * shards can be **split and merged online** — while readers and writers
//!   race — via a per-shard write gate plus an atomically swapped route
//!   table (see below).
//!
//! # Rebalance protocol
//!
//! The route table is an immutable snapshot behind `RwLock<Arc<..>>`:
//! every operation clones the `Arc` once and works against a consistent
//! boundary set. A rebalance (split or merge) never mutates a live shard;
//! it replaces table entries:
//!
//! 1. **freeze writes** — take the victim shard's `write_gate`
//!    exclusively. Writers acquire the gate shared around each stage, so
//!    the gate drains in-flight stagers and blocks new ones; readers are
//!    *not* gated and keep answering from the (now write-quiescent) shard.
//! 2. **snapshot** — scan the frozen shard (staged overlay + stored index,
//!    newest-wins — the same snapshot-reconcile rule the drain path uses),
//!    yielding every live entry of the range.
//! 3. **rebuild** — bulk-load the snapshot into fresh shard(s) on fresh
//!    disks (two for a split at the chosen pivot, one for a merge of two
//!    neighbours).
//! 4. **swap** — publish a new route table with the new boundary set, mark
//!    the old handle(s) retired, release the gate. A writer that was
//!    blocked on the gate observes the retired flag and re-routes through
//!    the new table, so no write ever lands in an unrouted shard. A reader
//!    still holding the old snapshot finishes against the retired shard —
//!    its content equals the new shards' content at swap time, so
//!    newest-wins visibility never regresses; later operations re-route.
//!
//! Lock order is *rebalance gate → write gate(s, ascending) → shard
//! internals*; writers only ever hold one shared gate, so the protocol is
//! deadlock-free, and route-table or gate contention is recorded in the
//! router disk's [`IoStats`] stall counters like every other lock in the
//! workspace.
//!
//! [`IoStats`]: lidx_storage::IoStats

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use lidx_storage::{Disk, DiskConfig, OpClass, OpStats};
use parking_lot::{Mutex, RwLock};

use crate::concurrent::{sampled_boundaries, ShardedWriteBuffer, ShardedWriteBufferConfig};
use crate::error::{IndexError, IndexResult};
use crate::index::{validate_bulk_load, DiskIndex, IndexKind, IndexRead, IndexStats, IndexWrite};
use crate::metrics::InsertBreakdown;
use crate::{Entry, Key, Value};

/// Configuration of a [`ShardedIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedIndexConfig {
    /// Initial number of keyspace shards. Online splits and merges move
    /// the live count away from this.
    pub shards: usize,
    /// The staging-front configuration applied to every shard (each shard
    /// gets its own [`ShardedWriteBuffer`] with this config).
    pub buffer: ShardedWriteBufferConfig,
}

impl Default for ShardedIndexConfig {
    fn default() -> Self {
        ShardedIndexConfig { shards: 4, buffer: ShardedWriteBufferConfig::default() }
    }
}

/// One live shard: a buffered index plus the rebalance handshake state.
struct ShardHandle<I> {
    front: ShardedWriteBuffer<I>,
    /// Writers hold this shared around each stage; a rebalance holds it
    /// exclusively while it snapshots and replaces the shard.
    write_gate: RwLock<()>,
    /// Set (under the exclusive gate) once the shard has been replaced in
    /// the route table; a writer that sees it re-routes.
    retired: AtomicBool,
}

/// An immutable routing snapshot: `boundaries[s]` is the first key *not*
/// in shard `s` (so it has `shards.len() - 1` elements), mirroring the
/// staging front's boundary convention.
struct RouteTable<I> {
    boundaries: Vec<Key>,
    shards: Vec<Arc<ShardHandle<I>>>,
}

impl<I> RouteTable<I> {
    fn route(&self, key: Key) -> usize {
        self.boundaries.partition_point(|&b| b <= key)
    }

    /// The first key of shard `s` (0 for the leftmost shard).
    fn range_lo(&self, s: usize) -> Key {
        if s == 0 {
            0
        } else {
            self.boundaries[s - 1]
        }
    }
}

/// The factory a [`ShardedIndex`] uses to build one empty shard instance
/// over a fresh [`Disk`]; called once per initial shard and once per shard
/// created by an online split or merge.
pub type ShardFactory<I> = dyn Fn() -> IndexResult<I> + Send + Sync;

/// A keyspace-partitioning router over N independent shard instances, each
/// with its own [`Disk`] and write front, supporting online split/merge.
///
/// See the [module docs](self) for the routing and rebalance protocol.
///
/// # Example
///
/// ```
/// use lidx_core::sharded::{ShardedIndex, ShardedIndexConfig};
/// use lidx_core::index::{IndexRead, IndexWrite};
/// use lidx_core::write_buffer::WriteBuffer;
/// # use lidx_core::index::{IndexKind, IndexStats};
/// # use lidx_core::{Entry, IndexResult, InsertBreakdown, Key, Value};
/// # use lidx_storage::{Disk, DiskConfig};
/// # use std::sync::Arc;
/// # struct VecIndex { disk: Arc<Disk>, entries: Vec<Entry> }
/// # impl IndexRead for VecIndex {
/// #     fn kind(&self) -> IndexKind { IndexKind::BTree }
/// #     fn disk(&self) -> &Arc<Disk> { &self.disk }
/// #     fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
/// #         Ok(self.entries.binary_search_by_key(&key, |e| e.0).ok().map(|i| self.entries[i].1))
/// #     }
/// #     fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize> {
/// #         out.clear();
/// #         let from = self.entries.partition_point(|e| e.0 < start);
/// #         out.extend(self.entries[from..].iter().take(count));
/// #         Ok(out.len())
/// #     }
/// #     fn len(&self) -> u64 { self.entries.len() as u64 }
/// #     fn stats(&self) -> IndexStats { IndexStats::default() }
/// # }
/// # impl IndexWrite for VecIndex {
/// #     fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
/// #         self.entries = entries.to_vec();
/// #         Ok(())
/// #     }
/// #     fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
/// #         for &(key, value) in entries {
/// #             match self.entries.binary_search_by_key(&key, |e| e.0) {
/// #                 Ok(i) => self.entries[i].1 = value,
/// #                 Err(i) => self.entries.insert(i, (key, value)),
/// #             }
/// #         }
/// #         Ok(())
/// #     }
/// #     fn insert_breakdown(&self) -> InsertBreakdown { InsertBreakdown::new() }
/// # }
/// let entries: Vec<Entry> = (0..1000u64).map(|k| (k * 7, k)).collect();
/// let keys: Vec<Key> = entries.iter().map(|e| e.0).collect();
/// let factory = || Ok(VecIndex { disk: Disk::in_memory(DiskConfig::default()), entries: Vec::new() });
/// let mut sharded = ShardedIndex::with_sampled_boundaries(
///     Box::new(factory),
///     ShardedIndexConfig::default(),
///     &keys,
/// )?;
/// sharded.bulk_load(&entries)?;
/// assert_eq!(sharded.lookup(7)?, Some(1));
/// sharded.stage(7, 99)?;
/// assert_eq!(sharded.lookup(7)?, Some(99));
/// let pivot = sharded.split_shard(0, None)?;
/// assert!(pivot > 0);
/// assert_eq!(sharded.lookup(7)?, Some(99));
/// # Ok::<(), lidx_core::IndexError>(())
/// ```
pub struct ShardedIndex<I> {
    table: RwLock<Arc<RouteTable<I>>>,
    factory: Box<ShardFactory<I>>,
    config: ShardedIndexConfig,
    /// Serialises rebalances; a split/merge never races another, so it may
    /// take two write gates (ascending) without a lock-order cycle.
    rebalance_gate: Mutex<()>,
    /// A blockless disk that carries router-level accounting: route-table
    /// and gate stalls, plus the stall counters [`IndexRead::disk`] needs
    /// somewhere to live (the per-shard disks are behind
    /// [`shard_disks`](Self::shard_disks)).
    router_disk: Arc<Disk>,
    splits: AtomicU64,
    merges: AtomicU64,
    kind: IndexKind,
    inner_name: String,
}

impl<I: DiskIndex> ShardedIndex<I> {
    /// Builds a router with `config.shards` shards at uniform boundaries
    /// over the full `u64` keyspace.
    pub fn new(factory: Box<ShardFactory<I>>, config: ShardedIndexConfig) -> IndexResult<Self> {
        let shards = config.shards.max(1);
        let step = Key::MAX / shards as Key;
        let boundaries = (1..shards).map(|s| step.saturating_mul(s as Key)).collect();
        Self::with_boundaries(factory, config, boundaries)
    }

    /// Builds a router with boundaries at the quantiles of `sample` (e.g.
    /// the bulk-load keys), so each shard holds a comparable slice of a
    /// skewed key population. Falls back to uniform boundaries when the
    /// sample is empty.
    pub fn with_sampled_boundaries(
        factory: Box<ShardFactory<I>>,
        config: ShardedIndexConfig,
        sample: &[Key],
    ) -> IndexResult<Self> {
        let boundaries = sampled_boundaries(sample, config.shards.max(1));
        if boundaries.is_empty() && config.shards > 1 {
            return Self::new(factory, config);
        }
        Self::with_boundaries(factory, config, boundaries)
    }

    /// Builds a router with explicit boundaries (`boundaries[s]` is the
    /// first key of shard `s + 1`; must be strictly increasing).
    pub fn with_boundaries(
        factory: Box<ShardFactory<I>>,
        config: ShardedIndexConfig,
        boundaries: Vec<Key>,
    ) -> IndexResult<Self> {
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "shard boundaries must be strictly increasing"
        );
        let mut shards = Vec::with_capacity(boundaries.len() + 1);
        for _ in 0..=boundaries.len() {
            let inner = factory()?;
            let front = ShardedWriteBuffer::new(inner, config.buffer);
            shards.push(Arc::new(ShardHandle {
                front,
                write_gate: RwLock::new(()),
                retired: AtomicBool::new(false),
            }));
        }
        let kind = shards[0].front.kind();
        let inner_name = shards[0].front.name();
        Ok(ShardedIndex {
            table: RwLock::new(Arc::new(RouteTable { boundaries, shards })),
            factory,
            config,
            rebalance_gate: Mutex::new(()),
            router_disk: Disk::in_memory(DiskConfig::default()),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            kind,
            inner_name,
        })
    }

    /// Clones the current routing snapshot, counting a router read stall
    /// if a rebalance is swapping the table.
    fn snapshot(&self) -> Arc<RouteTable<I>> {
        if let Some(table) = self.table.try_read() {
            return Arc::clone(&table);
        }
        self.router_disk.stats().record_read_stall();
        Arc::clone(&self.table.read())
    }

    /// Number of live shards.
    pub fn shard_count(&self) -> usize {
        self.snapshot().shards.len()
    }

    /// The current shard boundaries (`boundaries[s]` is the first key of
    /// shard `s + 1`; empty for a single shard).
    pub fn boundaries(&self) -> Vec<Key> {
        self.snapshot().boundaries.clone()
    }

    /// The shard whose key range currently contains `key`.
    pub fn shard_of(&self, key: Key) -> usize {
        self.snapshot().route(key)
    }

    /// Per-shard visible entry counts (staged overlay included), in shard
    /// order.
    pub fn shard_lens(&self) -> Vec<u64> {
        self.snapshot().shards.iter().map(|h| h.front.len()).collect()
    }

    /// The per-shard disks, in shard order — one per shard, each with its
    /// own buffer pool and [`lidx_storage::IoStats`].
    pub fn shard_disks(&self) -> Vec<Arc<Disk>> {
        self.snapshot().shards.iter().map(|h| Arc::clone(h.front.disk())).collect()
    }

    /// One [`OpStats`] window aggregated across every live shard disk plus
    /// the router disk: counters sum, `max_inflight` takes the deepest
    /// single queue (see [`OpStats::merge`]).
    pub fn aggregate_stats(&self) -> OpStats {
        let table = self.snapshot();
        let mut total = self.router_disk.snapshot();
        for handle in &table.shards {
            total = total.merge(&handle.front.disk().snapshot());
        }
        total
    }

    /// One [`TelemetryRegistry`] aggregated (exact histogram merge) across
    /// the router disk — which carries the rebalance spans and router-level
    /// lock stalls — and every live shard disk. Like [`aggregate_stats`],
    /// shards retired by a split/merge leave the table and stop
    /// contributing.
    ///
    /// [`aggregate_stats`]: Self::aggregate_stats
    /// [`TelemetryRegistry`]: lidx_storage::TelemetryRegistry
    pub fn aggregate_telemetry(&self) -> lidx_storage::TelemetryRegistry {
        let table = self.snapshot();
        let total = lidx_storage::TelemetryRegistry::new();
        total.merge_from(self.router_disk.telemetry());
        for handle in &table.shards {
            total.merge_from(handle.front.disk().telemetry());
        }
        total
    }

    /// Number of online splits performed so far.
    pub fn splits(&self) -> u64 {
        self.splits.load(Ordering::Relaxed)
    }

    /// Number of online merges performed so far.
    pub fn merges(&self) -> u64 {
        self.merges.load(Ordering::Relaxed)
    }

    /// Stages one entry into its owning shard (upsert, immediately visible
    /// through that shard's overlay). Safe from any number of threads, and
    /// safe against a concurrent split/merge: a writer that routed to a
    /// shard being replaced blocks on its gate, observes the retired flag,
    /// and re-routes through the new table.
    pub fn stage(&self, key: Key, value: Value) -> IndexResult<()> {
        loop {
            let handle = {
                let table = self.snapshot();
                Arc::clone(&table.shards[table.route(key)])
            };
            let gate = match handle.write_gate.try_read() {
                Some(gate) => gate,
                None => {
                    self.router_disk.stats().record_write_stall();
                    handle.write_gate.read()
                }
            };
            if handle.retired.load(Ordering::Acquire) {
                continue;
            }
            handle.front.stage(key, value)?;
            drop(gate);
            return Ok(());
        }
    }

    /// Stages a batch, routing each entry to its owning shard (later
    /// duplicates win within a shard, matching [`IndexWrite::insert_batch`]
    /// semantics because duplicate keys always route identically).
    pub fn stage_batch(&self, entries: &[Entry]) -> IndexResult<()> {
        let mut pending: Vec<Entry> = entries.to_vec();
        while !pending.is_empty() {
            let table = self.snapshot();
            let mut groups: Vec<Vec<Entry>> = vec![Vec::new(); table.shards.len()];
            for &(key, value) in &pending {
                groups[table.route(key)].push((key, value));
            }
            pending.clear();
            for (s, group) in groups.into_iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let handle = &table.shards[s];
                let gate = match handle.write_gate.try_read() {
                    Some(gate) => gate,
                    None => {
                        self.router_disk.stats().record_write_stall();
                        handle.write_gate.read()
                    }
                };
                if handle.retired.load(Ordering::Acquire) {
                    // This shard was replaced while we were routing; the
                    // group re-routes through the fresh table next round.
                    pending.extend(group);
                    continue;
                }
                handle.front.stage_batch(&group)?;
                drop(gate);
            }
        }
        Ok(())
    }

    /// Drains every shard's staging front into its index.
    pub fn flush(&self) -> IndexResult<()> {
        let table = self.snapshot();
        for handle in &table.shards {
            handle.front.flush()?;
        }
        Ok(())
    }

    /// Builds one fresh shard (fresh disk via the factory) bulk-loaded
    /// with `entries`.
    fn build_shard(&self, entries: &[Entry]) -> IndexResult<Arc<ShardHandle<I>>> {
        let mut inner = (self.factory)()?;
        inner.bulk_load(entries)?;
        Ok(Arc::new(ShardHandle {
            front: ShardedWriteBuffer::new(inner, self.config.buffer),
            write_gate: RwLock::new(()),
            retired: AtomicBool::new(false),
        }))
    }

    /// Snapshots every live entry of one write-frozen shard (staged
    /// overlay merged newest-wins over the stored index).
    fn snapshot_shard(table: &RouteTable<I>, s: usize) -> IndexResult<Vec<Entry>> {
        let handle = &table.shards[s];
        let mut all = Vec::new();
        let want = handle.front.len() as usize + 1;
        handle.front.scan(table.range_lo(s), want, &mut all)?;
        Ok(all)
    }

    /// Splits shard `shard` online at `pivot` (or at its median key when
    /// `None`), returning the boundary that now separates the two halves.
    /// Readers and writers may race the split freely; see the
    /// [module docs](self) for the protocol.
    pub fn split_shard(&self, shard: usize, pivot: Option<Key>) -> IndexResult<Key> {
        let _rebalance = self.lock_rebalance();
        // Gate wait excluded (that is lock contention, recorded by
        // `lock_rebalance`); the span is the split itself — snapshot, two
        // rebuilds, route-table swap — which is the pause racing writers
        // feel through the shard's write gate.
        let _span = self.router_disk.telemetry().span(OpClass::Rebalance);
        let table = self.snapshot();
        if shard >= table.shards.len() {
            return Err(IndexError::Internal(format!(
                "split of shard {shard} but only {} shards exist",
                table.shards.len()
            )));
        }
        let handle = Arc::clone(&table.shards[shard]);
        let gate = handle.write_gate.write();

        let all = Self::snapshot_shard(&table, shard)?;
        let lo = table.range_lo(shard);
        let pivot = match pivot {
            Some(p) => {
                let hi_ok = shard == table.boundaries.len() || p < table.boundaries[shard];
                if p <= lo || !hi_ok {
                    return Err(IndexError::Internal(format!(
                        "split pivot {p} outside shard {shard}'s open range"
                    )));
                }
                p
            }
            None => {
                // Median key, nudged up until it is a legal boundary
                // (strictly above the shard's first possible key).
                let median = all.get(all.len() / 2).map(|e| e.0).unwrap_or(lo);
                match if median > lo {
                    Some(median)
                } else {
                    all.iter().map(|e| e.0).find(|&k| k > lo)
                } {
                    Some(k) => k,
                    None => {
                        return Err(IndexError::Internal(format!(
                            "shard {shard} has no key to split at"
                        )))
                    }
                }
            }
        };

        let at = all.partition_point(|e| e.0 < pivot);
        let left = self.build_shard(&all[..at])?;
        let right = self.build_shard(&all[at..])?;

        let mut boundaries = table.boundaries.clone();
        boundaries.insert(shard, pivot);
        let mut shards = table.shards.clone();
        shards.splice(shard..=shard, [left, right]);
        *self.table.write() = Arc::new(RouteTable { boundaries, shards });
        handle.retired.store(true, Ordering::Release);
        drop(gate);
        self.splits.fetch_add(1, Ordering::Relaxed);
        self.router_disk.telemetry().add(OpClass::Rebalance, 1);
        Ok(pivot)
    }

    /// Merges shard `left` with its right neighbour online, removing the
    /// boundary between them. Readers and writers may race the merge
    /// freely.
    pub fn merge_shards(&self, left: usize) -> IndexResult<()> {
        let _rebalance = self.lock_rebalance();
        let _span = self.router_disk.telemetry().span(OpClass::Rebalance);
        let table = self.snapshot();
        if left + 1 >= table.shards.len() {
            return Err(IndexError::Internal(format!(
                "merge of shards {left},{} but only {} shards exist",
                left + 1,
                table.shards.len()
            )));
        }
        let left_handle = Arc::clone(&table.shards[left]);
        let right_handle = Arc::clone(&table.shards[left + 1]);
        // Ascending gate order; the rebalance mutex guarantees no other
        // thread ever holds two gates, so this cannot deadlock.
        let left_gate = left_handle.write_gate.write();
        let right_gate = right_handle.write_gate.write();

        // Left entries all sort below the removed boundary, right entries
        // at or above it, so concatenation is already bulk-load order.
        let mut all = Self::snapshot_shard(&table, left)?;
        all.extend(Self::snapshot_shard(&table, left + 1)?);
        let merged = self.build_shard(&all)?;

        let mut boundaries = table.boundaries.clone();
        boundaries.remove(left);
        let mut shards = table.shards.clone();
        shards.splice(left..=left + 1, [merged]);
        *self.table.write() = Arc::new(RouteTable { boundaries, shards });
        left_handle.retired.store(true, Ordering::Release);
        right_handle.retired.store(true, Ordering::Release);
        drop(right_gate);
        drop(left_gate);
        self.merges.fetch_add(1, Ordering::Relaxed);
        self.router_disk.telemetry().add(OpClass::Rebalance, 1);
        Ok(())
    }

    /// Takes the rebalance mutex, counting a router write stall when
    /// another split/merge is in flight.
    fn lock_rebalance(&self) -> parking_lot::MutexGuard<'_, ()> {
        if let Some(guard) = self.rebalance_gate.try_lock() {
            return guard;
        }
        self.router_disk.stats().record_write_stall();
        let _span = self.router_disk.telemetry().span(OpClass::LockWrite);
        self.rebalance_gate.lock()
    }
}

impl<I: DiskIndex> IndexRead for ShardedIndex<I> {
    fn kind(&self) -> IndexKind {
        self.kind
    }

    fn name(&self) -> String {
        format!("{}+sharded{}", self.inner_name, self.shard_count())
    }

    /// The router's accounting disk (no data blocks live here); the
    /// per-shard disks are behind [`ShardedIndex::shard_disks`] and the
    /// combined window behind [`ShardedIndex::aggregate_stats`].
    fn disk(&self) -> &Arc<Disk> {
        &self.router_disk
    }

    fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        let table = self.snapshot();
        table.shards[table.route(key)].front.lookup(key)
    }

    /// Fans the batch out per shard (one batched probe each) and re-merges
    /// the answers in caller order, all under one routing snapshot.
    fn lookup_batch(&self, keys: &[Key], out: &mut Vec<Option<Value>>) -> IndexResult<()> {
        let table = self.snapshot();
        crate::lookup_batch_layered(
            keys,
            out,
            table.shards.len(),
            |_| None,
            |key| table.route(key),
            |s, keys, answers| table.shards[s].front.lookup_batch(keys, answers),
        )
    }

    /// Stitches one ascending result across shard boundaries: the scan
    /// starts in the owning shard and spills into successive shards until
    /// `count` entries are collected, all under one routing snapshot.
    fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize> {
        out.clear();
        if count == 0 {
            return Ok(0);
        }
        let table = self.snapshot();
        let mut piece = Vec::new();
        for s in table.route(start)..table.shards.len() {
            table.shards[s].front.scan(start, count - out.len(), &mut piece)?;
            out.append(&mut piece);
            if out.len() >= count {
                break;
            }
        }
        Ok(out.len())
    }

    fn scan_batch(&self, ranges: &[(Key, usize)], out: &mut Vec<Vec<Entry>>) -> IndexResult<()> {
        out.clear();
        out.resize_with(ranges.len(), Vec::new);
        for (i, &(start, count)) in ranges.iter().enumerate() {
            self.scan(start, count, &mut out[i])?;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.snapshot().shards.iter().map(|h| h.front.len()).sum()
    }

    /// Structural stats summed across shards; `height` is the deepest
    /// single shard (levels do not stack across independent instances).
    fn stats(&self) -> IndexStats {
        let table = self.snapshot();
        let mut total = IndexStats::default();
        for handle in &table.shards {
            let s = handle.front.stats();
            total.keys += s.keys;
            total.height = total.height.max(s.height);
            total.inner_nodes += s.inner_nodes;
            total.leaf_nodes += s.leaf_nodes;
            total.smo_count += s.smo_count;
        }
        total
    }

    fn storage_blocks(&self) -> u64 {
        self.snapshot().shards.iter().map(|h| h.front.storage_blocks()).sum()
    }
}

impl<I: DiskIndex> IndexWrite for ShardedIndex<I> {
    /// Routes each slice of the (sorted) load to its owning shard.
    /// Exclusive by construction (`&mut self`, before the router is
    /// shared).
    fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
        validate_bulk_load(entries)?;
        let table = self.table.get_mut();
        let table = Arc::get_mut(table)
            .ok_or_else(|| IndexError::Internal("bulk_load on a shared router".into()))?;
        let mut start = 0usize;
        for s in 0..table.shards.len() {
            let end = match table.boundaries.get(s) {
                Some(&b) => entries.partition_point(|e| e.0 < b),
                None => entries.len(),
            };
            let handle = Arc::get_mut(&mut table.shards[s])
                .ok_or_else(|| IndexError::Internal("bulk_load on a shared router".into()))?;
            handle.front.bulk_load(&entries[start..end])?;
            start = end;
        }
        Ok(())
    }

    /// The `&mut self` writes are just
    /// [`stage_batch`](ShardedIndex::stage_batch) — provided so the router
    /// remains a drop-in [`DiskIndex`].
    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        self.stage_batch(entries)
    }

    fn insert_breakdown(&self) -> InsertBreakdown {
        let table = self.snapshot();
        let mut total = InsertBreakdown::new();
        for handle in &table.shards {
            total.merge(&handle.front.insert_breakdown());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload_for;
    use crate::test_support::MapIndex;

    fn loaded_router(shards: usize, keys: u64) -> ShardedIndex<MapIndex> {
        let entries: Vec<Entry> = (0..keys).map(|k| (k * 3, payload_for(k * 3))).collect();
        let sample: Vec<Key> = entries.iter().map(|e| e.0).collect();
        let config = ShardedIndexConfig {
            shards,
            buffer: ShardedWriteBufferConfig { capacity: 16, drain: 8, shards: 2 },
        };
        let mut router = ShardedIndex::with_sampled_boundaries(
            Box::new(|| Ok(MapIndex::new())),
            config,
            &sample,
        )
        .expect("build");
        router.bulk_load(&entries).expect("bulk");
        router
    }

    #[test]
    fn routes_lookups_and_batches_in_caller_order() {
        let router = loaded_router(4, 1_000);
        assert_eq!(router.shard_count(), 4);
        assert_eq!(router.lookup(30).unwrap(), Some(payload_for(30)));
        assert_eq!(router.lookup(31).unwrap(), None);
        // A batch deliberately out of shard order must come back in caller
        // order.
        let keys = [2997, 0, 1500, 7, 2001];
        let mut out = Vec::new();
        router.lookup_batch(&keys, &mut out).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            let expect = if k % 3 == 0 { Some(payload_for(k)) } else { None };
            assert_eq!(out[i], expect, "key {k}");
        }
    }

    #[test]
    fn scan_stitches_across_all_boundaries() {
        let router = loaded_router(4, 1_000);
        let mut out = Vec::new();
        // Start in shard 0 and ask for everything: the result must cross
        // all three boundaries in one ascending run.
        let got = router.scan(0, 1_000, &mut out).unwrap();
        assert_eq!(got, 1_000);
        let expect: Vec<Entry> = (0..1_000u64).map(|k| (k * 3, payload_for(k * 3))).collect();
        assert_eq!(out, expect);
        // Start mid-shard with a count that lands mid-next-shard.
        for &b in &router.boundaries() {
            let start = b.saturating_sub(30);
            router.scan(start, 25, &mut out).unwrap();
            let mut expect = Vec::new();
            let mut k = start.div_ceil(3) * 3;
            while expect.len() < 25 && k < 3_000 {
                expect.push((k, payload_for(k)));
                k += 3;
            }
            assert_eq!(out, expect, "scan across boundary {b}");
        }
    }

    #[test]
    fn staged_writes_are_visible_and_flush_reaches_shards() {
        let router = loaded_router(4, 100);
        router.stage(1, 11).unwrap();
        router.stage(299, 12).unwrap();
        assert_eq!(router.lookup(1).unwrap(), Some(11));
        assert_eq!(router.lookup(299).unwrap(), Some(12));
        router.flush().unwrap();
        assert_eq!(router.lookup(1).unwrap(), Some(11));
        assert_eq!(router.len(), 102);
    }

    #[test]
    fn split_preserves_content_and_routes_new_writes() {
        let router = loaded_router(2, 400);
        let before: Vec<Entry> = {
            let mut v = Vec::new();
            router.scan(0, 400, &mut v).unwrap();
            v
        };
        let pivot = router.split_shard(0, None).unwrap();
        assert_eq!(router.shard_count(), 3);
        assert!(router.boundaries().contains(&pivot));
        let mut after = Vec::new();
        router.scan(0, 400, &mut after).unwrap();
        assert_eq!(before, after, "split must not change visible content");
        router.stage(pivot, 77).unwrap();
        assert_eq!(router.shard_of(pivot), 1, "pivot key routes to the right half");
        assert_eq!(router.lookup(pivot).unwrap(), Some(77));
        assert_eq!(router.splits(), 1);
    }

    #[test]
    fn merge_preserves_content_and_removes_boundary() {
        let router = loaded_router(4, 400);
        let mut before = Vec::new();
        router.scan(0, 400, &mut before).unwrap();
        router.merge_shards(1).unwrap();
        assert_eq!(router.shard_count(), 3);
        let mut after = Vec::new();
        router.scan(0, 400, &mut after).unwrap();
        assert_eq!(before, after, "merge must not change visible content");
        assert_eq!(router.merges(), 1);
    }

    #[test]
    fn split_rejects_out_of_range_pivots() {
        let router = loaded_router(2, 100);
        let b = router.boundaries()[0];
        assert!(router.split_shard(0, Some(0)).is_err(), "pivot at range_lo");
        assert!(router.split_shard(0, Some(b)).is_err(), "pivot at range_hi");
        assert!(router.split_shard(5, None).is_err(), "shard out of range");
        assert!(router.merge_shards(1).is_err(), "merge right neighbour missing");
    }

    #[test]
    fn empty_and_single_key_shards_serve_all_paths() {
        // Explicit boundaries carving out an empty shard [10, 20) and a
        // single-key shard [20, 30) around a population of 0..10 and 25.
        let config = ShardedIndexConfig {
            shards: 3,
            buffer: ShardedWriteBufferConfig { capacity: 8, drain: 4, shards: 1 },
        };
        let mut router = ShardedIndex::with_boundaries(
            Box::new(|| Ok(MapIndex::new())),
            config,
            vec![10, 20, 30],
        )
        .expect("build");
        let entries: Vec<Entry> =
            (0..10u64).map(|k| (k, payload_for(k))).chain([(25, 26)]).collect();
        router.bulk_load(&entries).unwrap();
        assert_eq!(router.shard_count(), 4);
        assert_eq!(router.lookup(15).unwrap(), None);
        assert_eq!(router.lookup(25).unwrap(), Some(26));
        let mut out = Vec::new();
        // A scan starting inside the empty shard must spill into the
        // single-key shard and beyond.
        let got = router.scan(12, 10, &mut out).unwrap();
        assert_eq!(got, 1);
        assert_eq!(out, vec![(25, 26)]);
        // Splitting the empty shard is impossible (no key), merging it
        // away works.
        assert!(router.split_shard(1, None).is_err());
        router.merge_shards(1).unwrap();
        assert_eq!(router.shard_count(), 3);
        assert_eq!(router.lookup(25).unwrap(), Some(26));
    }

    #[test]
    fn racing_writers_and_readers_survive_split_and_merge() {
        let router = loaded_router(2, 2_000);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let router = &router;
            let stop = &stop;
            for t in 0..2u64 {
                scope.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let key = (i * 2 + t) % 6_000;
                        router.stage(key, key ^ 0xABCD).expect("stage");
                        i += 1;
                    }
                });
            }
            scope.spawn(move || {
                let mut out = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    router.lookup(1_234).expect("lookup");
                    router.scan(5_900, 64, &mut out).expect("scan");
                }
            });
            for _ in 0..4 {
                let s = router.shard_count() - 1;
                router.split_shard(s, None).expect("split");
                router.merge_shards(router.shard_count() - 2).expect("merge");
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Every write that was staged must still be visible: flush and
        // spot-check a full scan against the inner maps.
        router.flush().unwrap();
        let mut all = Vec::new();
        router.scan(0, 100_000, &mut all).unwrap();
        assert_eq!(all.len() as u64, router.len());
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "scan stays sorted");
    }

    #[test]
    fn aggregate_stats_cover_every_shard_disk() {
        let router = loaded_router(4, 200);
        for disk in router.shard_disks() {
            disk.stats().record_buffer_hit();
        }
        let total = router.aggregate_stats();
        assert_eq!(total.buffer_hits, 4, "one hit per shard disk must sum");
    }

    #[test]
    fn bulk_load_routes_slices_by_boundary() {
        let router = loaded_router(4, 1_000);
        let lens = router.shard_lens();
        assert_eq!(lens.iter().sum::<u64>(), 1_000);
        assert!(
            lens.iter().all(|&l| l > 150),
            "sampled quantiles must balance the load, got {lens:?}"
        );
    }
}
