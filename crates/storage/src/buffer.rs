//! Striped strict-LRU buffer management over `(file, block)` pairs.
//!
//! The paper's default configuration has *no* buffer manager — every request
//! hits the disk — but §6.6 studies the impact of caching 0–128 blocks under
//! strict LRU (Fig. 13). This module is that cache: a hit makes its frame the
//! most recently used, and a full pool evicts the least recently used frame.
//! Two levels exist:
//!
//! * [`BufferPool`] — one unsynchronised strict LRU: a frame slab threaded by
//!   one intrusive recency list, plus a `(file, block)` map.
//! * [`ShardedBufferPool`] — a lock-striped array of [`BufferPool`]s, each
//!   behind its own mutex, selected by `(file ^ block)`. This is what
//!   [`crate::Disk`] embeds so N reader threads hitting different blocks do
//!   not serialise on one pool lock. Each stripe is an exact LRU over its own
//!   blocks; consecutive blocks of one file stripe round-robin across the
//!   stripes, so the common "small pool, hot working set" configurations of
//!   Fig. 13 keep their hit behaviour.
//!
//! Readers tag each request with an [`AccessClass`]. The pool does not look
//! at it — a scan and a lookup age the same LRU list, the behaviour the paper
//! measures — but [`crate::Disk`] does: a scan-class miss at queue depth > 1
//! fetches a readahead wave, and scan-class reads are counted in
//! [`crate::IoStats::scan_reads`]. DESIGN.md §3.3 says why the pool has one
//! policy and no knob.
//!
//! Cached block contents are stored as [`BlockRef`] frames — cheaply
//! clonable, `Arc`-backed, read-only views. A pool hit hands the caller a
//! clone of the frame instead of copying the bytes out, and eviction merely
//! drops the pool's reference: any caller still holding the frame keeps a
//! consistent snapshot of the block (lazy free, see `DESIGN.md` §3.2–§3.3).
//!
//! # Example
//!
//! A two-block pool: a hit makes its block the most recently used, so the
//! next admission evicts the other one.
//!
//! ```
//! use lidx_storage::{BlockRef, BufferPool};
//!
//! let mut pool = BufferPool::new(2);
//! pool.put_ref(0, 0, BlockRef::from_vec(vec![1; 16]));
//! pool.put_ref(0, 1, BlockRef::from_vec(vec![2; 16]));
//! // The hit on block 0 leaves block 1 least recently used...
//! assert_eq!(pool.get_ref(0, 0).as_deref(), Some(&[1u8; 16][..]));
//! pool.put_ref(0, 2, BlockRef::from_vec(vec![3; 16]));
//! // ...so admitting block 2 evicts block 1.
//! assert!(pool.contains(0, 0));
//! assert!(!pool.contains(0, 1));
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

/// A pinned, read-only view of one block's contents.
///
/// `BlockRef` is the unit of the zero-copy read path: the buffer pool, the
/// readahead cache, block cursors and every index hot path share the same
/// `Arc`-backed frame, so a buffer-hit lookup performs no allocation and no
/// byte copy — cloning a `BlockRef` is one atomic increment. Frames are
/// immutable once published; a write to the same `(file, block)` installs a
/// *new* frame, leaving outstanding references with the snapshot they pinned.
#[derive(Clone, Debug)]
pub struct BlockRef(Arc<Vec<u8>>);

impl BlockRef {
    /// Wraps an owned buffer into a frame without copying it.
    pub fn from_vec(data: Vec<u8>) -> Self {
        BlockRef(Arc::new(data))
    }

    /// The block contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Number of live references to this frame (the pool's copy counts as
    /// one). Exposed for pin-accounting tests.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

impl std::ops::Deref for BlockRef {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for BlockRef {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// How a block request relates to the access pattern around it.
///
/// The buffer pool ignores the class; [`crate::Disk`] uses it. A scan-class
/// miss at queue depth > 1 folds a readahead of the following blocks into
/// its fetch (`DiskConfig::queue_depth`), and every scan-class read is
/// counted in [`crate::IoStats::scan_reads`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessClass {
    /// An individual (point) access: lookups, descents, read-modify-write.
    #[default]
    Point,
    /// Part of a sequential scan stream over many blocks.
    Scan,
}

const NIL: usize = usize::MAX;

/// One cached frame, threaded on its pool's recency list.
#[derive(Debug)]
struct Entry {
    key: (u32, u32),
    data: BlockRef,
    prev: usize,
    next: usize,
}

/// A strict-LRU block cache keyed by `(file, block)` — the paper's Fig. 13
/// buffer manager.
///
/// Frames live in one slab threaded by an intrusive doubly-linked list, most
/// recently used at the head. `capacity == 0` disables caching entirely
/// (every lookup misses).
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    /// Map from (file, block) to its slab slot.
    map: HashMap<(u32, u32), usize>,
    entries: Vec<Entry>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the next victim.
    tail: usize,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            entries: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// The configured capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of blocks currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cache hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether a block is resident, without touching the recency order or
    /// the hit/miss counters. Exposed for model-based tests and assertions.
    pub fn contains(&self, file: u32, block: u32) -> bool {
        self.map.contains_key(&(file, block))
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    /// Makes `idx` the most recently used frame.
    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.detach(idx);
            self.push_front(idx);
        }
    }

    /// Unlinks slot `idx` and returns it to the free list. The frame is
    /// dropped now: lazy free means outstanding caller pins alone decide the
    /// snapshot's lifetime, not a dead pool slot.
    fn release(&mut self, idx: usize) {
        self.detach(idx);
        self.entries[idx].data = BlockRef::from_vec(Vec::new());
        self.free.push(idx);
    }

    /// Looks up a block; on a hit, makes it the most recently used and
    /// returns a clone of its pinned frame (no byte copy).
    pub fn get_ref(&mut self, file: u32, block: u32) -> Option<BlockRef> {
        match self.map.get(&(file, block)) {
            Some(&idx) => {
                self.touch(idx);
                self.hits += 1;
                Some(self.entries[idx].data.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts or refreshes a block's pinned frame without copying the
    /// bytes; either way the block becomes the most recently used. Admitting
    /// a new block into a full pool evicts the least recently used one.
    /// Evicted frames are dropped, not overwritten: outstanding [`BlockRef`]
    /// clones keep their snapshot alive until released.
    pub fn put_ref(&mut self, file: u32, block: u32, frame: BlockRef) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&(file, block)) {
            self.entries[idx].data = frame;
            self.touch(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.map.remove(&self.entries[victim].key);
            self.release(victim);
        }
        let entry = Entry { key: (file, block), data: frame, prev: NIL, next: NIL };
        let idx = if let Some(idx) = self.free.pop() {
            self.entries[idx] = entry;
            idx
        } else {
            self.entries.push(entry);
            self.entries.len() - 1
        };
        self.push_front(idx);
        self.map.insert((file, block), idx);
    }

    /// Removes a cached block if present (used when blocks are invalidated by
    /// structural modification operations).
    pub fn invalidate(&mut self, file: u32, block: u32) {
        if let Some(idx) = self.map.remove(&(file, block)) {
            self.release(idx);
        }
    }

    /// Drops every cached block and resets hit/miss counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.hits = 0;
        self.misses = 0;
    }
}

/// The maximum number of lock stripes a [`ShardedBufferPool`] uses.
pub const MAX_SHARDS: usize = 8;

/// The smallest per-stripe capacity worth striping for. Below this, shard
/// collisions would visibly distort the hit behaviour that the paper's
/// buffer-size study (Fig. 13) depends on, so smaller pools fall back to a
/// single stripe — i.e. one exact global LRU behind one mutex.
pub const MIN_BLOCKS_PER_SHARD: usize = 4;

/// A lock-striped buffer pool: an array of strict-LRU [`BufferPool`]
/// stripes, each behind its own mutex.
///
/// The stripe for a block is `(file ^ block) % shards` with a power-of-two
/// stripe count, so consecutive blocks of one file land on distinct stripes
/// (good both for lock spreading and for keeping a sequentially-filled pool
/// balanced). The stripes split the capacity exactly: the first
/// `capacity % shards` stripes hold one block more than the rest. Pools
/// smaller than `2 * MIN_BLOCKS_PER_SHARD` blocks use a single stripe and
/// therefore behave *exactly* like the unsharded [`BufferPool`]; larger
/// pools trade a bounded amount of replacement-order fidelity (eviction is
/// per stripe) for reader parallelism. `capacity == 0` disables caching,
/// exactly like [`BufferPool`].
#[derive(Debug)]
pub struct ShardedBufferPool {
    shards: Box<[Mutex<BufferPool>]>,
    mask: u32,
    capacity: usize,
}

impl ShardedBufferPool {
    /// Creates a pool holding at most `capacity` blocks in total, striped
    /// over up to [`MAX_SHARDS`] locks with at least
    /// [`MIN_BLOCKS_PER_SHARD`] blocks per stripe (so small pools stay one
    /// exact LRU).
    pub fn new(capacity: usize) -> Self {
        // Largest power of two <= min(capacity / MIN_BLOCKS_PER_SHARD,
        // MAX_SHARDS), and at least 1.
        let shard_count = 1usize << (capacity / MIN_BLOCKS_PER_SHARD).clamp(1, MAX_SHARDS).ilog2();
        let (base, extra) = (capacity / shard_count, capacity % shard_count);
        let shards = (0..shard_count)
            .map(|i| Mutex::new(BufferPool::new(base + usize::from(i < extra))))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedBufferPool { shards, mask: shard_count as u32 - 1, capacity }
    }

    /// The configured total capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Capacity of stripe `shard` in blocks (0 when the pool is disabled).
    /// Exposed so model-based tests can mirror each stripe exactly.
    pub fn shard_capacity(&self, shard: usize) -> usize {
        self.shards[shard].lock().capacity()
    }

    /// The stripe a given block maps to (exposed so model-based tests can
    /// mirror the placement exactly).
    pub fn shard_index(&self, file: u32, block: u32) -> usize {
        ((file ^ block) & self.mask) as usize
    }

    fn shard(&self, file: u32, block: u32) -> &Mutex<BufferPool> {
        &self.shards[self.shard_index(file, block)]
    }

    /// Number of blocks currently cached across all stripes.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits observed so far, across all stripes.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().hits()).sum()
    }

    /// Cache misses observed so far, across all stripes.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().misses()).sum()
    }

    /// Whether a block is resident, without touching the recency order or
    /// the counters.
    pub fn contains(&self, file: u32, block: u32) -> bool {
        self.shard(file, block).lock().contains(file, block)
    }

    /// Looks up a block; on a hit, makes it the most recently used of its
    /// stripe and returns a clone of its pinned frame (no byte copy).
    pub fn get_ref(&self, file: u32, block: u32) -> Option<BlockRef> {
        self.shard(file, block).lock().get_ref(file, block)
    }

    /// Inserts or refreshes a block's pinned frame without copying the
    /// bytes, evicting its stripe's least recently used block if full.
    pub fn put_ref(&self, file: u32, block: u32, frame: BlockRef) {
        self.shard(file, block).lock().put_ref(file, block, frame);
    }

    /// Removes a cached block if present.
    pub fn invalidate(&self, file: u32, block: u32) {
        self.shard(file, block).lock().invalidate(file, block);
    }

    /// Drops every cached block and resets hit/miss counters.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.lock().clear();
        }
    }
}

#[cfg(test)]
fn frame(v: u8, n: usize) -> BlockRef {
    BlockRef::from_vec(vec![v; n])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_never_caches() {
        let mut p = BufferPool::new(0);
        p.put_ref(0, 0, frame(1, 8));
        assert!(p.get_ref(0, 0).is_none());
        assert_eq!(p.len(), 0);
        assert_eq!(p.misses(), 1);
    }

    #[test]
    fn hit_returns_latest_contents() {
        let mut p = BufferPool::new(2);
        p.put_ref(0, 5, frame(9, 8));
        assert_eq!(p.get_ref(0, 5).as_deref(), Some(&[9u8; 8][..]));
        p.put_ref(0, 5, frame(7, 8));
        assert_eq!(p.get_ref(0, 5).as_deref(), Some(&[7u8; 8][..]));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = BufferPool::new(2);
        p.put_ref(0, 1, frame(1, 4));
        p.put_ref(0, 2, frame(2, 4));
        // touch block 1 so block 2 becomes LRU
        assert!(p.get_ref(0, 1).is_some());
        p.put_ref(0, 3, frame(3, 4));
        assert!(p.get_ref(0, 1).is_some(), "recently used block must survive");
        assert!(p.get_ref(0, 2).is_none(), "LRU block must have been evicted");
        assert!(p.get_ref(0, 3).is_some());
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn refreshing_a_resident_block_makes_it_most_recent() {
        // Write-through (`Disk::write`) refreshes resident frames with
        // `put_ref`; a refresh is a use, so the other block is the victim.
        let mut p = BufferPool::new(2);
        p.put_ref(0, 1, frame(1, 4));
        p.put_ref(0, 2, frame(2, 4));
        p.put_ref(0, 1, frame(5, 4));
        p.put_ref(0, 3, frame(3, 4));
        assert!(!p.contains(0, 2), "the untouched block is least recently used");
        assert_eq!(p.get_ref(0, 1).as_deref(), Some(&[5u8; 4][..]));
        assert_eq!(p.hits() + p.misses(), 1, "a refresh is not a lookup");
    }

    #[test]
    fn invalidate_releases_the_pool_reference() {
        let mut p = BufferPool::new(4);
        p.put_ref(0, 1, frame(9, 8));
        let pinned = p.get_ref(0, 1).unwrap();
        assert_eq!(pinned.ref_count(), 2, "pool + caller");
        p.invalidate(0, 1);
        assert_eq!(pinned.ref_count(), 1, "invalidate must drop the pool's reference");
        assert_eq!(&pinned[..], &[9u8; 8]);
    }

    #[test]
    fn invalidate_and_clear() {
        let mut p = BufferPool::new(4);
        p.put_ref(1, 1, frame(1, 4));
        p.put_ref(1, 2, frame(2, 4));
        p.invalidate(1, 1);
        assert!(p.get_ref(1, 1).is_none());
        assert!(p.get_ref(1, 2).is_some());
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.hits(), 0);
        // reuse of freed slots must not corrupt the list
        p.put_ref(1, 3, frame(3, 4));
        p.put_ref(1, 4, frame(4, 4));
        assert_eq!(p.get_ref(1, 3).as_deref(), Some(&[3u8; 4][..]));
    }

    #[test]
    fn files_do_not_collide() {
        let mut p = BufferPool::new(4);
        p.put_ref(0, 7, frame(1, 4));
        p.put_ref(1, 7, frame(2, 4));
        assert_eq!(p.get_ref(0, 7).as_deref(), Some(&[1u8; 4][..]));
        assert_eq!(p.get_ref(1, 7).as_deref(), Some(&[2u8; 4][..]));
    }

    #[test]
    fn heavy_churn_respects_capacity() {
        // Strict LRU keeps exactly the most recent 8.
        let mut p = BufferPool::new(8);
        for i in 0..1000u32 {
            p.put_ref(0, i, frame((i % 251) as u8, 16));
            assert!(p.len() <= 8, "over capacity");
        }
        for i in 992..1000u32 {
            assert!(p.get_ref(0, i).is_some(), "block {i} should be resident");
        }
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn contains_does_not_perturb_policy_state() {
        let mut p = BufferPool::new(2);
        p.put_ref(0, 1, frame(1, 4));
        p.put_ref(0, 2, frame(2, 4));
        // `contains` on block 1 must NOT refresh it...
        assert!(p.contains(0, 1));
        p.put_ref(0, 3, frame(3, 4));
        // ...so it is still the LRU victim.
        assert!(!p.contains(0, 1));
        assert_eq!(p.hits() + p.misses(), 0, "contains must not count as an access");
    }

    /// Walks the recency list from the most recently used block, checking
    /// that the backward links mirror the forward ones.
    fn recency_order(p: &BufferPool) -> Vec<u32> {
        let mut forward = Vec::new();
        let mut idx = p.head;
        while idx != NIL {
            forward.push(p.entries[idx].key.1);
            idx = p.entries[idx].next;
        }
        let mut backward = Vec::new();
        let mut idx = p.tail;
        while idx != NIL {
            backward.push(p.entries[idx].key.1);
            idx = p.entries[idx].prev;
        }
        backward.reverse();
        assert_eq!(forward, backward, "prev links must mirror next links");
        assert_eq!(forward.len(), p.len(), "every resident block is on the list");
        forward
    }

    #[test]
    fn invalidating_either_end_keeps_the_recency_order() {
        let mut p = BufferPool::new(3);
        for b in 1..=3u32 {
            p.put_ref(0, b, frame(b as u8, 4));
        }
        assert_eq!(recency_order(&p), [3, 2, 1]);
        p.invalidate(0, 1); // the tail
        assert_eq!(recency_order(&p), [3, 2]);
        p.put_ref(0, 4, frame(4, 4));
        p.invalidate(0, 4); // the head
        assert_eq!(recency_order(&p), [3, 2]);
        p.put_ref(0, 5, frame(5, 4));
        p.put_ref(0, 6, frame(6, 4));
        assert_eq!(recency_order(&p), [6, 5, 3], "block 2 was least recently used");
        p.invalidate(0, 5); // the middle
        assert!(p.get_ref(0, 3).is_some());
        assert_eq!(recency_order(&p), [3, 6]);
    }

    #[test]
    fn capacity_one_keeps_only_the_newest_block() {
        // Head and tail are the same slot: a hit on it must leave the list
        // intact and every admission must evict it.
        let mut p = BufferPool::new(1);
        p.put_ref(0, 1, frame(1, 4));
        assert_eq!(p.get_ref(0, 1).as_deref(), Some(&[1u8; 4][..]));
        p.put_ref(0, 2, frame(2, 4));
        assert!(!p.contains(0, 1));
        assert_eq!(recency_order(&p), [2]);
        p.put_ref(0, 2, frame(3, 4));
        assert_eq!(p.get_ref(0, 2).as_deref(), Some(&[3u8; 4][..]));
        assert_eq!(p.entries.len(), 1, "the victim's slot is reused");
        assert_eq!((p.hits(), p.misses()), (2, 0));
    }

    #[test]
    fn eviction_drops_the_pool_reference_but_not_a_pinned_snapshot() {
        let mut p = BufferPool::new(2);
        p.put_ref(0, 1, frame(1, 8));
        let pinned = p.get_ref(0, 1).unwrap();
        p.put_ref(0, 2, frame(2, 8));
        p.put_ref(0, 3, frame(3, 8));
        assert!(!p.contains(0, 1), "block 1 is the LRU victim");
        assert_eq!(pinned.ref_count(), 1, "eviction must drop the pool's reference");
        assert_eq!(&pinned[..], &[1u8; 8]);
    }

    #[test]
    fn refreshing_a_block_keeps_an_outstanding_snapshot() {
        let mut p = BufferPool::new(2);
        p.put_ref(0, 1, frame(1, 8));
        let old = p.get_ref(0, 1).unwrap();
        p.put_ref(0, 1, frame(2, 8));
        assert_eq!(&old[..], &[1u8; 8], "a refresh installs a new frame");
        assert_eq!(old.ref_count(), 1, "the pool let go of the old frame");
        assert_eq!(p.get_ref(0, 1).as_deref(), Some(&[2u8; 8][..]));
    }

    #[test]
    fn freed_slots_are_reused_so_the_slab_never_outgrows_the_capacity() {
        let mut p = BufferPool::new(4);
        for i in 0..500u32 {
            p.put_ref(0, i % 11, frame(i as u8, 4));
            if i % 3 == 0 {
                p.invalidate(0, (i * 7) % 11);
            }
            assert!(p.entries.len() <= 4, "slab grew past the capacity at step {i}");
            assert_eq!(p.entries.len(), p.len() + p.free.len(), "every slot is resident or free");
        }
    }
}

#[cfg(test)]
mod sharded_tests {
    use super::*;

    fn stripe_capacities(capacity: usize) -> Vec<usize> {
        let p = ShardedBufferPool::new(capacity);
        (0..p.shard_count()).map(|i| p.shard_capacity(i)).collect()
    }

    #[test]
    fn shard_count_tracks_capacity() {
        // Small pools (every Fig. 13 size up to 4 blocks) stay on one
        // stripe and are therefore an exact global strict LRU.
        assert_eq!(ShardedBufferPool::new(0).shard_count(), 1);
        assert_eq!(ShardedBufferPool::new(1).shard_count(), 1);
        assert_eq!(ShardedBufferPool::new(4).shard_count(), 1);
        assert_eq!(ShardedBufferPool::new(7).shard_count(), 1);
        // Larger pools stripe, always keeping >= 4 blocks per stripe.
        assert_eq!(ShardedBufferPool::new(8).shard_count(), 2);
        assert_eq!(ShardedBufferPool::new(16).shard_count(), 4);
        assert_eq!(ShardedBufferPool::new(64).shard_count(), 8);
        assert_eq!(ShardedBufferPool::new(128).shard_count(), 8);
        assert_eq!(ShardedBufferPool::new(64).capacity(), 64);
        assert!(stripe_capacities(64).iter().all(|&c| c >= 4));
    }

    #[test]
    fn stripes_split_the_remainder_and_keep_the_measured_sizes() {
        // A remainder goes one block each to the first stripes, so the
        // stripes hold exactly the capacity.
        assert_eq!(stripe_capacities(9), vec![5, 4]);
        // Every pool size the paper artifacts (Fig. 13: 0-128 blocks) and
        // the perf ledger (16, 64 and 100 000 blocks) run divides evenly:
        // the remainder rule must not move their numbers.
        let sizes: [(usize, &[usize]); 9] = [
            (0, &[0]),
            (2, &[2]),
            (4, &[4]),
            (8, &[4, 4]),
            (16, &[4; 4]),
            (32, &[4; 8]),
            (64, &[8; 8]),
            (128, &[16; 8]),
            (100_000, &[12_500; 8]),
        ];
        for (capacity, stripes) in sizes {
            assert_eq!(stripe_capacities(capacity), stripes, "capacity {capacity}");
        }
    }

    #[test]
    fn stripe_capacities_sum_to_the_capacity_for_every_size() {
        for capacity in 0..=1_000usize {
            let caps = stripe_capacities(capacity);
            assert_eq!(caps.iter().sum::<usize>(), capacity, "capacity {capacity}");
            let (min, max) = (caps.iter().min().unwrap(), caps.iter().max().unwrap());
            assert!(max - min <= 1, "capacity {capacity}: uneven stripes {caps:?}");
        }
    }

    #[test]
    fn uneven_stripes_each_fill_to_their_own_capacity() {
        let p = ShardedBufferPool::new(9);
        assert_eq!(p.shard_count(), 2);
        // Stripe 0 (even blocks) holds five blocks, stripe 1 (odd) four.
        for b in (0..40u32).step_by(2) {
            p.put_ref(0, b, frame(b as u8, 8));
        }
        assert_eq!(p.len(), 5);
        assert!((30..40u32).step_by(2).all(|b| p.contains(0, b)), "the five newest even blocks");
        for b in (1..40u32).step_by(2) {
            p.put_ref(0, b, frame(b as u8, 8));
        }
        assert_eq!(p.len(), 9, "together the stripes hold exactly the capacity");
        assert!((33..40u32).step_by(2).all(|b| p.contains(0, b)), "the four newest odd blocks");
        assert!(!p.contains(0, 31));
    }

    #[test]
    fn a_striped_pool_evicts_within_the_stripe_of_the_new_block() {
        // Eviction is per stripe, the fidelity a striped pool trades for
        // reader parallelism: the victim is the least recently used block of
        // the new block's stripe, not of the whole pool.
        let p = ShardedBufferPool::new(8);
        assert_eq!(p.shard_count(), 2);
        for b in 0..8u32 {
            p.put_ref(0, b, frame(b as u8, 8));
        }
        assert!(p.get_ref(0, 0).is_some());
        // Block 1 (odd stripe) is now least recently used overall, but
        // block 8 lands on the even stripe, whose LRU block is 2.
        p.put_ref(0, 8, frame(8, 8));
        assert!(p.contains(0, 1), "a global LRU would have evicted block 1");
        assert!(!p.contains(0, 2));
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn small_pools_behave_as_exact_global_lru() {
        // Capacity 2 with accesses that would collide on a striped pool: a
        // strict global LRU of 2 keeps both blocks resident. This pins the
        // Fig. 13 small-pool fidelity.
        let p = ShardedBufferPool::new(2);
        assert_eq!(p.shard_count(), 1);
        p.put_ref(0, 0, frame(1, 8));
        p.put_ref(0, 2, frame(2, 8));
        for _ in 0..4 {
            assert!(p.get_ref(0, 0).is_some(), "block 0 must stay resident");
            assert!(p.get_ref(0, 2).is_some(), "block 2 must stay resident");
        }
        assert_eq!(p.hits(), 8);
    }

    #[test]
    fn consecutive_blocks_stripe_across_shards() {
        let p = ShardedBufferPool::new(16);
        assert_eq!(p.shard_count(), 4);
        let seen: std::collections::HashSet<_> = (0..4u32).map(|b| p.shard_index(0, b)).collect();
        assert_eq!(seen.len(), 4, "blocks 0..4 must land on distinct shards");
        // A sequentially-filled pool therefore stays balanced and resident.
        for b in 0..16u32 {
            p.put_ref(0, b, frame(b as u8, 8));
        }
        for b in [2u32, 0, 3, 1, 15, 8] {
            assert_eq!(p.get_ref(0, b).as_deref(), Some(&[b as u8; 8][..]), "block {b}");
        }
        assert_eq!(p.hits(), 6);
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let p = ShardedBufferPool::new(0);
        p.put_ref(0, 0, frame(1, 8));
        assert!(p.get_ref(0, 0).is_none());
        assert!(p.is_empty());
        assert_eq!(p.misses(), 1);
    }

    #[test]
    fn invalidate_and_clear_are_shard_aware() {
        let p = ShardedBufferPool::new(8);
        for b in 0..8u32 {
            p.put_ref(1, b, frame(b as u8, 8));
        }
        p.invalidate(1, 5);
        assert!(p.get_ref(1, 5).is_none());
        assert!(p.get_ref(1, 6).is_some());
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.hits(), 0);
    }

    #[test]
    fn concurrent_get_put_keeps_blocks_intact() {
        // 8 threads hammer the pool with whole-block values; any hit must
        // return an untorn block (all bytes identical).
        let p = ShardedBufferPool::new(16);
        let p = &p;
        std::thread::scope(|s| {
            for t in 0..8u32 {
                s.spawn(move || {
                    for round in 0..500u32 {
                        let block = (round.wrapping_mul(7) + t) % 32;
                        p.put_ref(0, block, frame((block % 251) as u8, 64));
                        if let Some(out) = p.get_ref(0, block) {
                            assert!(
                                out.iter().all(|&b| b == (block % 251) as u8),
                                "torn block {block}: {out:?}"
                            );
                        }
                    }
                });
            }
        });
        assert!(p.len() <= 16);
    }
}
