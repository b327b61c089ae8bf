//! Property tests for the storage substrate: the strict-LRU buffer pool,
//! unstriped and lock-striped, must behave exactly like a straightforward
//! reference LRU under arbitrary access traces, and the Disk façade must
//! preserve data regardless of the access pattern and configuration.

use lidx_storage::{
    BlockKind, BlockRef, BufferPool, DeviceModel, Disk, DiskConfig, ShardedBufferPool,
};
use proptest::prelude::*;

/// A straightforward reference LRU: a vector ordered from most- to
/// least-recently used.
#[derive(Default)]
struct ModelLru {
    capacity: usize,
    entries: Vec<((u32, u32), Vec<u8>)>,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        ModelLru { capacity, entries: Vec::new() }
    }

    fn get(&mut self, key: (u32, u32)) -> Option<Vec<u8>> {
        let pos = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(pos);
        let data = entry.1.clone();
        self.entries.insert(0, entry);
        Some(data)
    }

    fn put(&mut self, key: (u32, u32), data: Vec<u8>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, (key, data));
    }

    fn invalidate(&mut self, key: (u32, u32)) {
        self.entries.retain(|(k, _)| *k != key);
    }
}

#[derive(Debug, Clone)]
enum PoolOp {
    Get(u32),
    Put(u32, u8),
    Invalidate(u32),
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0u32..40).prop_map(PoolOp::Get),
        (0u32..40, any::<u8>()).prop_map(|(b, v)| PoolOp::Put(b, v)),
        (0u32..40).prop_map(PoolOp::Invalidate),
    ]
}

/// An op against the sharded pool: multi-file, multi-key get / put ("pin" in
/// buffer-manager terms: put then re-get) / invalidate sequences.
#[derive(Debug, Clone)]
enum ShardedOp {
    Get(u32, u32),
    Put(u32, u32, u8),
    Invalidate(u32, u32),
}

fn sharded_op() -> impl Strategy<Value = ShardedOp> {
    prop_oneof![
        (0u32..3, 0u32..32).prop_map(|(f, b)| ShardedOp::Get(f, b)),
        (0u32..3, 0u32..32, any::<u8>()).prop_map(|(f, b, v)| ShardedOp::Put(f, b, v)),
        (0u32..3, 0u32..32).prop_map(|(f, b)| ShardedOp::Invalidate(f, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Under an arbitrary trace of gets / puts / invalidates, the pool must
    /// agree with the [`ModelLru`] reference on every hit, every returned
    /// byte, the resident size and the full residency set.
    #[test]
    fn buffer_pool_matches_reference_lru(
        capacity in 0usize..12,
        ops in proptest::collection::vec(pool_op(), 1..200),
    ) {
        let mut pool = BufferPool::new(capacity);
        let mut model = ModelLru::new(capacity);
        for op in ops {
            match op {
                PoolOp::Get(b) => {
                    let got = pool.get_ref(0, b);
                    let expected = model.get((0, b));
                    prop_assert_eq!(got.is_some(), expected.is_some(), "hit/miss mismatch for block {}", b);
                    if let (Some(g), Some(e)) = (got, expected) {
                        prop_assert_eq!(&g[..], &e[..], "contents mismatch for block {}", b);
                    }
                }
                PoolOp::Put(b, v) => {
                    let data = vec![v; 32];
                    pool.put_ref(0, b, BlockRef::from_vec(data.clone()));
                    model.put((0, b), data);
                }
                PoolOp::Invalidate(b) => {
                    pool.invalidate(0, b);
                    model.invalidate((0, b));
                }
            }
            prop_assert!(pool.len() <= capacity);
            prop_assert_eq!(pool.len(), model.entries.len());
            for b in 0..40u32 {
                prop_assert_eq!(
                    pool.contains(0, b),
                    model.entries.iter().any(|(k, _)| *k == (0, b)),
                    "residency diverges for block {}",
                    b
                );
            }
        }
    }

    /// The lock-striped pool behaves, stripe by stripe, exactly like a
    /// sequential reference LRU: the stripe of a block is a pure function of
    /// its key, and stripe `i` is an independent strict LRU of
    /// `shard_capacity(i)` blocks. The stripes together never hold more than
    /// the pool's capacity. Model-checked against [`ModelLru`] under
    /// interleaved multi-file get / put / invalidate sequences.
    #[test]
    fn sharded_pool_matches_per_shard_reference_lru(
        capacity in 0usize..24,
        ops in proptest::collection::vec(sharded_op(), 1..250),
    ) {
        let pool = ShardedBufferPool::new(capacity);
        let mut models: Vec<ModelLru> =
            (0..pool.shard_count()).map(|i| ModelLru::new(pool.shard_capacity(i))).collect();
        let mut gets = 0u64;
        for op in ops {
            match op {
                ShardedOp::Get(f, b) => {
                    gets += 1;
                    let got = pool.get_ref(f, b);
                    let expected = models[pool.shard_index(f, b)].get((f, b));
                    prop_assert_eq!(got.is_some(), expected.is_some(), "hit/miss mismatch for ({}, {})", f, b);
                    if let (Some(g), Some(e)) = (got, expected) {
                        prop_assert_eq!(&g[..], &e[..], "contents mismatch for ({}, {})", f, b);
                    }
                }
                ShardedOp::Put(f, b, v) => {
                    let data = vec![v; 16];
                    pool.put_ref(f, b, BlockRef::from_vec(data.clone()));
                    models[pool.shard_index(f, b)].put((f, b), data);
                }
                ShardedOp::Invalidate(f, b) => {
                    pool.invalidate(f, b);
                    models[pool.shard_index(f, b)].invalidate((f, b));
                }
            }
            prop_assert!(pool.len() <= capacity, "{} frames in a {}-block pool", pool.len(), capacity);
            prop_assert_eq!(
                pool.len(),
                models.iter().map(|m| m.entries.len()).sum::<usize>(),
                "pool size must match the sum of the per-shard models"
            );
        }
        prop_assert_eq!(
            pool.hits() + pool.misses(),
            gets,
            "every get must be counted as exactly one hit or miss"
        );
    }

    /// Whatever the configuration (buffer, device), reads always return the
    /// last written contents of a block.
    #[test]
    fn disk_reads_return_last_written_contents(
        buffer_blocks in 0usize..8,
        writes in proptest::collection::vec((0u32..16, any::<u8>()), 1..100),
    ) {
        let disk = Disk::in_memory(
            DiskConfig::with_block_size(64)
                .buffer_blocks(buffer_blocks)
                .device(DeviceModel::ssd()),
        );
        let file = disk.create_file().unwrap();
        disk.allocate(file, 16).unwrap();
        let mut expected = vec![vec![0u8; 64]; 16];
        for (block, value) in writes {
            let data = vec![value; 64];
            disk.write(file, block, BlockKind::Leaf, &data).unwrap();
            expected[block as usize] = data;
            // Read back a pseudo-random other block as well to churn the
            // caches.
            let probe = (block.wrapping_mul(7) + 3) % 16;
            let got = disk.cursor().read(file, probe, BlockKind::Leaf).unwrap()[..].to_vec();
            prop_assert_eq!(&got, &expected[probe as usize]);
        }
        for block in 0..16u32 {
            let got = disk.cursor().read(file, block, BlockKind::Leaf).unwrap()[..].to_vec();
            prop_assert_eq!(&got, &expected[block as usize]);
        }
    }
}
