//! The B+-tree-styled leaf level shared by every hybrid design.
//!
//! Leaves reuse the [`lidx_btree::LeafNode`] block format: dense sorted
//! key-payload pairs plus sibling links, one block per leaf. The leaf level
//! is built once at bulk-load time; inserts go to the covering leaf and split
//! it when full (the caller is told about splits so it can refresh the inner
//! structure).

use std::sync::Arc;

use lidx_btree::{scan_leaf_chain, LeafNode, LeafView, NodeCapacity};
use lidx_core::{Entry, IndexResult, Key, Value};
use lidx_storage::{AccessClass, BlockId, BlockKind, BlockRef, Disk, INVALID_BLOCK};

/// The leaf level: a file of linked, dense leaf blocks.
pub struct LeafLevel {
    disk: Arc<Disk>,
    file: u32,
    capacity: usize,
    fill: f64,
    leaf_count: u64,
}

/// A leaf split reported by [`LeafLevel::insert_run_in`]: the new right leaf
/// the caller has to register with the inner structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafSplit {
    /// Boundary (first key) of the new right leaf, which covers keys from
    /// here upwards.
    pub boundary: Key,
    /// Block id of the new right leaf.
    pub block: BlockId,
}

impl LeafLevel {
    /// Creates an empty leaf level in its own file.
    pub fn new(disk: Arc<Disk>, fill: f64) -> IndexResult<Self> {
        assert!(fill > 0.1 && fill <= 1.0);
        let capacity = NodeCapacity::for_block_size(disk.block_size()).leaf_entries;
        let file = disk.create_file()?;
        Ok(LeafLevel { disk, file, capacity, fill, leaf_count: 0 })
    }

    /// Reconstructs a leaf level from persisted parts. The leaf blocks must
    /// already exist on `disk`; no I/O is performed.
    pub fn from_parts(disk: Arc<Disk>, file: u32, fill: f64, leaf_count: u64) -> Self {
        let capacity = NodeCapacity::for_block_size(disk.block_size()).leaf_entries;
        LeafLevel { disk, file, capacity, fill, leaf_count }
    }

    /// The file holding the leaves.
    pub fn file_id(&self) -> u32 {
        self.file
    }

    /// Number of leaf blocks.
    pub fn leaf_count(&self) -> u64 {
        self.leaf_count
    }

    /// Pins the leaf at `block` (one block read) for reading through a
    /// [`LeafView`].
    pub(crate) fn pin(&self, block: BlockId) -> IndexResult<BlockRef> {
        Ok(self.disk.read_ref(self.file, block, BlockKind::Leaf)?)
    }

    fn write(&self, block: BlockId, leaf: &LeafNode) -> IndexResult<()> {
        let buf = leaf.encode(self.disk.block_size())?;
        self.disk.write(self.file, block, BlockKind::Leaf, &buf)?;
        Ok(())
    }

    /// Bulk-builds the leaf level, returning `(boundary key, block)` pairs in
    /// key order — the input the inner structures index.
    pub fn bulk_build(&mut self, entries: &[Entry]) -> IndexResult<Vec<(Key, BlockId)>> {
        let per_leaf = ((self.capacity as f64 * self.fill) as usize).clamp(1, self.capacity);
        let leaves = entries.len().div_ceil(per_leaf).max(1);
        let first = self.disk.allocate(self.file, leaves as u32)?;
        let mut boundaries = Vec::with_capacity(leaves);
        if entries.is_empty() {
            self.write(first, &LeafNode::default())?;
            boundaries.push((0, first));
        } else {
            for (i, chunk) in entries.chunks(per_leaf).enumerate() {
                let block = first + i as u32;
                let leaf = LeafNode {
                    entries: chunk.to_vec(),
                    next: if i + 1 < leaves { block + 1 } else { INVALID_BLOCK },
                    prev: if i > 0 { block - 1 } else { INVALID_BLOCK },
                };
                self.write(block, &leaf)?;
                boundaries.push((chunk[0].0, block));
            }
        }
        self.leaf_count = boundaries.len() as u64;
        Ok(boundaries)
    }

    /// Looks up `key` in the leaf at `block` (one block read).
    pub fn lookup_in(&self, block: BlockId, key: Key) -> IndexResult<Option<Value>> {
        Ok(LeafView::new(&self.pin(block)?)?.lookup(key))
    }

    /// Pins a batch of leaves through one outstanding-read queue: waves of
    /// up to the disk's queue depth, so at depth 1 exactly what calling
    /// [`LeafLevel::pin`] once per block costs. Results are returned in input
    /// order.
    pub(crate) fn pin_queued(&self, blocks: &[BlockId]) -> IndexResult<Vec<BlockRef>> {
        let mut q = self.disk.read_queue();
        for &b in blocks {
            q.submit(self.file, b, BlockKind::Leaf, AccessClass::Point)?;
        }
        Ok(q.complete()?.into_iter().map(|c| c.frame).collect())
    }

    /// Upserts a sorted run of entries into the leaf at `block`, whose
    /// pinned `frame` the caller fetched as the last hop of its search, with
    /// one write, returning `(consumed, added, split)`: how many leading
    /// entries of `run` were applied, how many of those were new keys, and
    /// the split descriptor if the leaf overflowed. The caller guarantees
    /// every run entry is covered by this leaf; consumption stops one entry
    /// past capacity (that overflow forces the split), so the caller
    /// re-routes the remainder against the post-split leaf level.
    pub fn insert_run_in(
        &mut self,
        block: BlockId,
        frame: &BlockRef,
        run: &[Entry],
    ) -> IndexResult<(usize, u64, Option<LeafSplit>)> {
        // The one place the leaf level decodes: the node is about to change.
        let mut leaf = LeafNode::decode(frame)?;
        let mut consumed = 0usize;
        let mut added = 0u64;
        for &(key, value) in run {
            if leaf.entries.len() > self.capacity {
                break;
            }
            if leaf.upsert(key, value) {
                added += 1;
            }
            consumed += 1;
        }
        if leaf.entries.len() <= self.capacity {
            self.write(block, &leaf)?;
            return Ok((consumed, added, None));
        }
        let (boundary, mut right) = leaf.split();
        let right_block = self.disk.allocate(self.file, 1)?;
        right.prev = block;
        leaf.next = right_block;
        self.write(block, &leaf)?;
        self.write(right_block, &right)?;
        self.leaf_count += 1;
        Ok((consumed, added, Some(LeafSplit { boundary, block: right_block })))
    }

    /// Scans forward from `start`, beginning at the leaf at `block`, until
    /// `count` entries are collected or the leaf chain ends.
    pub fn scan_from(
        &self,
        block: BlockId,
        start: Key,
        count: usize,
        out: &mut Vec<Entry>,
    ) -> IndexResult<usize> {
        scan_leaf_chain(&self.disk, self.file, block, start, count, out)
    }

    /// Whether `key` belongs to the leaf at `block` — i.e. it is not smaller
    /// than the leaf's first entry (callers route by boundary key, so this is
    /// a sanity check used in tests).
    pub fn covers(&self, block: BlockId, key: Key) -> IndexResult<bool> {
        let frame = self.pin(block)?;
        let leaf = LeafView::new(&frame)?;
        Ok(leaf.is_empty() || leaf.entry(0).0 <= key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_storage::DiskConfig;

    fn level() -> LeafLevel {
        let disk = Disk::in_memory(DiskConfig::with_block_size(256));
        LeafLevel::new(disk, 0.8).unwrap()
    }

    #[test]
    fn bulk_build_produces_sorted_boundaries() {
        let mut l = level();
        let entries: Vec<Entry> = (0..1_000u64).map(|i| (i * 3, i)).collect();
        let bounds = l.bulk_build(&entries).unwrap();
        assert_eq!(bounds.len() as u64, l.leaf_count());
        assert!(bounds.len() > 50);
        assert!(bounds.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(bounds[0].0, 0);
        // Every key is found in the leaf its boundary routes to.
        for &(k, v) in entries.iter().step_by(97) {
            let idx = bounds.partition_point(|&(b, _)| b <= k) - 1;
            assert_eq!(l.lookup_in(bounds[idx].1, k).unwrap(), Some(v));
            assert!(l.covers(bounds[idx].1, k).unwrap());
        }
    }

    #[test]
    fn insert_splits_full_leaves() {
        let mut l = level();
        let entries: Vec<Entry> = (0..100u64).map(|i| (i * 10, i)).collect();
        let bounds = l.bulk_build(&entries).unwrap();
        let mut splits = 0;
        for i in 0..200u64 {
            let key = i * 5 + 1;
            let idx = bounds.partition_point(|&(b, _)| b <= key) - 1;
            let frame = l.pin(bounds[idx].1).unwrap();
            let (consumed, _, split) = l.insert_run_in(bounds[idx].1, &frame, &[(key, i)]).unwrap();
            assert_eq!(consumed, 1, "a single entry is always consumed");
            if let Some(LeafSplit { boundary, block }) = split {
                splits += 1;
                assert!(boundary > bounds[idx].0);
                assert!(l.covers(block, boundary).unwrap());
            }
        }
        assert!(splits > 0, "dense inserts must split at least one leaf");
    }

    #[test]
    fn scan_walks_the_chain() {
        let mut l = level();
        let entries: Vec<Entry> = (0..500u64).map(|i| (i * 2, i)).collect();
        let bounds = l.bulk_build(&entries).unwrap();
        let mut out = Vec::new();
        let n = l.scan_from(bounds[0].1, 100, 50, &mut out).unwrap();
        assert_eq!(n, 50);
        assert_eq!(out[0], (100, 50));
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
