//! The two halves of a disk B+-tree, each usable on its own.
//!
//! [`InnerLevels`] are the routing levels: [`InnerNode`] blocks over
//! `(separator, block)` pairs, built bottom-up at bulk load, descended
//! through [`InnerView`]s and grown by separator inserts that split nodes
//! upward and add a root. [`LeafLevelOf`] is the level below: dense leaves
//! of one [`LeafRecord`] type linked left to right, built at bulk load,
//! written back after a change — split into as many leaves as the change
//! needs — and scanned along the chain.
//!
//! [`BTreeIndex`](crate::BTreeIndex) is the two together in one file, over
//! `(key, payload)` entries ([`LeafLevel`]). The FITing-tree's directory
//! runs both over its segment records, and the hybrid designs put a learned
//! router over a [`LeafLevel`]. Neither type holds the disk; the leaf level
//! does not hold its file either, so the B+-tree keeps both levels in the
//! one file [`InnerLevels::file`] names.

use std::marker::PhantomData;

use lidx_core::{spend, Entry, IndexError, IndexResult, Key};
use lidx_storage::{BlockCursor, BlockId, BlockKind, BlockRef, Disk, SeqHint, INVALID_BLOCK};

use crate::node::{
    leaf_capacity, InnerNode, InnerView, LeafNodeOf, LeafRecord, LeafViewOf, NodeCapacity,
    LEAF_ENTRY,
};

/// A leaf's `(first key, block)` pair: what a routing structure indexes.
pub type Boundary = (Key, BlockId);

/// The routing levels of a B+-tree over some leaf level: the file they live
/// in, their root, the height they give the tree and how many nodes they
/// hold.
#[derive(Debug)]
pub struct InnerLevels {
    file: u32,
    capacity: usize,
    root: BlockId,
    height: u32,
    nodes: u64,
}

impl InnerLevels {
    /// Empty routing levels in `file` for `block_size`-byte blocks: no root
    /// until [`InnerLevels::bulk_build`].
    pub fn new(file: u32, block_size: usize) -> Self {
        Self::from_parts(file, block_size, INVALID_BLOCK, 0, 0)
    }

    /// Routing levels already on disk: the `root` of a tree of `height`
    /// levels, the leaf level included, with `nodes` routing nodes. No I/O.
    pub fn from_parts(
        file: u32,
        block_size: usize,
        root: BlockId,
        height: u32,
        nodes: u64,
    ) -> Self {
        let capacity = NodeCapacity::for_block_size(block_size).inner_keys;
        InnerLevels { file, capacity, root, height, nodes }
    }

    /// The file holding the routing nodes.
    pub fn file(&self) -> u32 {
        self.file
    }

    /// The root block: a routing node, or the one leaf of a tree of height
    /// 1 ([`INVALID_BLOCK`] before the first bulk build).
    pub fn root(&self) -> BlockId {
        self.root
    }

    /// Height of the tree, the leaf level included (1 = a single leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of routing nodes.
    pub fn node_count(&self) -> u64 {
        self.nodes
    }

    fn write(&self, disk: &Disk, block: BlockId, node: &InnerNode) -> IndexResult<()> {
        disk.write(self.file, block, BlockKind::Inner, &node.encode(disk.block_size())?)?;
        Ok(())
    }

    /// Builds the routing levels over `level`, the `(first key, block)`
    /// pairs of the leaves in key order, one level at a time until one
    /// block remains: the root. Each node is filled to `fill` of its key
    /// capacity, and each level is allocated as one extent.
    pub fn bulk_build(
        &mut self,
        disk: &Disk,
        mut level: Vec<Boundary>,
        fill: f64,
    ) -> IndexResult<()> {
        let per_node = ((self.capacity as f64 * fill) as usize).clamp(2, self.capacity);
        self.height = 1;
        while level.len() > 1 {
            // Each node holds up to `per_node` keys, i.e. `per_node + 1` children.
            let first = disk.allocate(self.file, level.len().div_ceil(per_node + 1) as u32)?;
            let mut up = Vec::with_capacity(level.len() / per_node + 1);
            for (i, chunk) in level.chunks(per_node + 1).enumerate() {
                let block = first + i as u32;
                let node = InnerNode {
                    keys: chunk[1..].iter().map(|&(k, _)| k).collect(),
                    children: chunk.iter().map(|&(_, b)| b).collect(),
                };
                self.write(disk, block, &node)?;
                up.push((chunk[0].0, block));
            }
            self.nodes += up.len() as u64;
            self.height += 1;
            level = up;
        }
        self.root = level[0].1;
        Ok(())
    }

    /// Descends from the root to the leaf-level block covering `key` and
    /// returns it, routing through an [`InnerView`] of each routing block
    /// read through `cursor`. `visit` sees every step — the routing block,
    /// the child index chosen and the node — so a caller that needs more
    /// than the leaf (a split path, the leaf's upper separator) collects it
    /// without a second copy of the walk.
    pub fn descend(
        &self,
        cursor: &mut BlockCursor<'_>,
        key: Key,
        mut visit: impl FnMut(BlockId, usize, &InnerView<'_>),
    ) -> IndexResult<BlockId> {
        if self.root == INVALID_BLOCK {
            return Err(IndexError::NotInitialized);
        }
        let mut current = self.root;
        for _ in 1..self.height {
            let node = InnerView::new(cursor.read(self.file, current, BlockKind::Inner)?)?;
            let idx = node.child_for(key);
            visit(current, idx, &node);
            current = node.child(idx);
        }
        Ok(current)
    }

    /// Inserts separator `key`, whose right child is `child`, into the last
    /// node of `path` — the routing blocks a [`InnerLevels::descend`] to the
    /// split leaf visited, root first — splitting full nodes upward and
    /// growing a new root when the old one splits. Returns how many routing
    /// nodes split.
    ///
    /// `path` is kept current for the next, larger separator of the same
    /// leaf split: a node that splits is replaced by its right half when
    /// `key` went there, and a new root is put in front.
    pub fn insert_separator(
        &mut self,
        disk: &Disk,
        path: &mut Vec<BlockId>,
        mut key: Key,
        mut child: BlockId,
    ) -> IndexResult<u64> {
        let mut splits = 0;
        for depth in (0..path.len()).rev() {
            let block = path[depth];
            let mut node =
                InnerNode::decode(disk.cursor().read(self.file, block, BlockKind::Inner)?)?;
            let pos = node.keys.partition_point(|&k| k <= key);
            node.keys.insert(pos, key);
            node.children.insert(pos + 1, child);
            if node.keys.len() <= self.capacity {
                self.write(disk, block, &node)?;
                return Ok(splits);
            }
            splits += 1;
            let mid = node.keys.len() / 2;
            let up_key = node.keys[mid];
            let right = InnerNode {
                keys: node.keys.split_off(mid + 1),
                children: node.children.split_off(mid + 1),
            };
            node.keys.pop(); // `up_key` moves up rather than staying in either half
            let right_block = disk.allocate(self.file, 1)?;
            self.write(disk, block, &node)?;
            self.write(disk, right_block, &right)?;
            self.nodes += 1;
            if key >= up_key {
                path[depth] = right_block;
            }
            key = up_key;
            child = right_block;
        }
        let root = disk.allocate(self.file, 1)?;
        self.write(disk, root, &InnerNode { keys: vec![key], children: vec![self.root, child] })?;
        self.nodes += 1;
        self.root = root;
        self.height += 1;
        path.insert(0, root);
        Ok(splits)
    }
}

/// The leaf level: linked, dense leaves of `R` records in a file the caller
/// names on every call.
#[derive(Debug)]
pub struct LeafLevelOf<R, const W: usize> {
    capacity: usize,
    leaf_count: u64,
    record: PhantomData<R>,
}

/// The B+-tree's leaf level, of `(key, payload)` entries.
pub type LeafLevel = LeafLevelOf<Entry, LEAF_ENTRY>;

impl<R: LeafRecord<W>, const W: usize> LeafLevelOf<R, W> {
    /// An empty leaf level for `block_size`-byte blocks.
    pub fn new(block_size: usize) -> Self {
        Self::from_parts(block_size, 0)
    }

    /// A leaf level of `leaf_count` leaves already on disk. No I/O.
    pub fn from_parts(block_size: usize, leaf_count: u64) -> Self {
        LeafLevelOf { capacity: leaf_capacity::<W>(block_size), leaf_count, record: PhantomData }
    }

    /// Number of leaf blocks.
    pub fn leaf_count(&self) -> u64 {
        self.leaf_count
    }

    fn write(disk: &Disk, file: u32, block: BlockId, leaf: &LeafNodeOf<R, W>) -> IndexResult<()> {
        disk.write(file, block, R::KIND, &leaf.encode(disk.block_size())?)?;
        Ok(())
    }

    /// Bulk-builds the leaf level in `file` from sorted `entries`, each leaf
    /// filled to `fill` of its capacity and all of them allocated as one
    /// extent, and returns the `(first key, block)` pairs in key order — the
    /// input a routing structure indexes. No entries give one empty leaf,
    /// which keeps every operation well-defined.
    pub fn bulk_build(
        &mut self,
        disk: &Disk,
        file: u32,
        entries: &[R],
        fill: f64,
    ) -> IndexResult<Vec<Boundary>> {
        let per_leaf = ((self.capacity as f64 * fill) as usize).clamp(1, self.capacity);
        let leaves = entries.len().div_ceil(per_leaf).max(1);
        let first = disk.allocate(file, leaves as u32)?;
        let mut boundaries = Vec::with_capacity(leaves);
        for (i, chunk) in entries.chunks(per_leaf).enumerate() {
            let block = first + i as u32;
            let next = if i + 1 < leaves { block + 1 } else { INVALID_BLOCK };
            Self::write(disk, file, block, &LeafNodeOf { entries: chunk.to_vec(), next })?;
            boundaries.push((chunk[0].key(), block));
        }
        if entries.is_empty() {
            Self::write(disk, file, first, &LeafNodeOf::default())?;
            boundaries.push((0, first));
        }
        self.leaf_count = boundaries.len() as u64;
        Ok(boundaries)
    }

    /// Pins the leaves at `blocks` of `file` through one outstanding-read
    /// queue: waves of up to the disk's queue depth, so at depth 1 exactly
    /// what reading each block once costs. Frames come back in input order.
    pub fn pin_queued(
        disk: &Disk,
        file: u32,
        blocks: impl IntoIterator<Item = BlockId>,
    ) -> IndexResult<Vec<BlockRef>> {
        let mut q = disk.read_queue();
        for b in blocks {
            q.submit(file, b, R::KIND)?;
        }
        Ok(q.complete()?.into_iter().map(|c| c.frame).collect())
    }

    /// Writes `leaf`, decoded from `block` of `file` and since mutated, back
    /// to its block. A leaf past capacity splits into chunks of half the
    /// capacity, rounded up: the first stays at `block`, the rest go into
    /// one new extent, chained in key order and on to the leaf's old `next`.
    /// Returns the `(first key, block)` pairs of the new leaves in key
    /// order, for the caller's routing structure; none if the leaf fit.
    pub fn write_back(
        &mut self,
        disk: &Disk,
        file: u32,
        block: BlockId,
        leaf: LeafNodeOf<R, W>,
    ) -> IndexResult<Vec<Boundary>> {
        if leaf.entries.len() <= self.capacity {
            Self::write(disk, file, block, &leaf)?;
            return Ok(Vec::new());
        }
        let chunks: Vec<&[R]> = leaf.entries.chunks(self.capacity.div_ceil(2)).collect();
        let extra = chunks.len() as u32 - 1;
        let new_first = disk.allocate(file, extra)?;
        let block_of = |i: u32| if i == 0 { block } else { new_first + i - 1 };
        for (i, chunk) in (0..).zip(&chunks) {
            let next = if i < extra { block_of(i + 1) } else { leaf.next };
            Self::write(disk, file, block_of(i), &LeafNodeOf { entries: chunk.to_vec(), next })?;
        }
        self.leaf_count += u64::from(extra);
        Ok((1..).zip(&chunks[1..]).map(|(i, chunk)| (chunk[0].key(), block_of(i))).collect())
    }

    /// Upserts a sorted `run` into the leaf at `block` of `file`, whose
    /// pinned `frame` the caller read as the last hop of its search, and
    /// writes it back once ([`LeafLevelOf::write_back`]). Returns
    /// `(consumed, added, splits)`: how many leading entries of `run` were
    /// applied, how many of those were new keys, and the new leaf, if the
    /// leaf overflowed and split.
    ///
    /// The caller guarantees every run entry belongs to this leaf. The run
    /// stops one entry past capacity — that overflow forces the split into
    /// two halves — so the caller re-routes the rest against the split
    /// leaves.
    pub fn insert_run_in(
        &mut self,
        disk: &Disk,
        file: u32,
        block: BlockId,
        frame: &[u8],
        run: &[R],
    ) -> IndexResult<(usize, u64, Vec<Boundary>)> {
        // The one place a leaf is decoded: it is about to change.
        let mut leaf = LeafNodeOf::<R, W>::decode(frame)?;
        let mut consumed = 0usize;
        let mut added = 0u64;
        for &record in run {
            if leaf.entries.len() > self.capacity {
                break;
            }
            if leaf.upsert(record) {
                added += 1;
            }
            consumed += 1;
        }
        Ok((consumed, added, self.write_back(disk, file, block, leaf)?))
    }

    /// Walks the chain of leaves in `file` from the leaf at `block`,
    /// appending the entries with key `>= start` to `out` until it holds
    /// `count` entries or the chain ends; returns `out.len()`.
    ///
    /// The reads go through the scan's `cursor` (a [`Disk::scan_cursor`]), so
    /// they are scan-class. After the first hop the sequentiality hint comes
    /// from the chain itself (`next == block + 1`), so a concurrent reader
    /// touching other blocks between two hops cannot turn this scan's
    /// sequential charges into random ones. A sound chain holds
    /// [`LeafLevelOf::leaf_count`] leaves, the walk's budget: a walk that
    /// would read more follows a cyclic `next` link, an error rather than a
    /// hang or repeated rows.
    pub fn scan_from(
        &self,
        cursor: &mut BlockCursor<'_>,
        file: u32,
        mut block: BlockId,
        start: Key,
        count: usize,
        out: &mut Vec<R>,
    ) -> IndexResult<usize> {
        let mut hint = SeqHint::Auto;
        let mut budget = self.leaf_count;
        while out.len() < count {
            spend(&mut budget, "leaf-chain scan")?;
            let frame = cursor.read_hinted(file, block, R::KIND, hint)?;
            let leaf = LeafViewOf::<R, W>::new(frame)?;
            out.extend(leaf.entries_from(leaf.lower_bound(start)).take(count - out.len()));
            if leaf.next() == INVALID_BLOCK {
                break;
            }
            hint = if leaf.next() == block + 1 { SeqHint::Sequential } else { SeqHint::Random };
            block = leaf.next();
        }
        Ok(out.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LeafNode;
    use lidx_storage::DiskConfig;
    use std::sync::Arc;

    fn level() -> (Arc<Disk>, u32, LeafLevel) {
        let disk = Disk::in_memory(DiskConfig::with_block_size(256));
        let file = disk.create_file().unwrap();
        (disk, file, LeafLevel::new(256))
    }

    /// The leaf at `block`, read through a fresh cursor.
    fn leaf_at(disk: &Disk, file: u32, block: BlockId) -> LeafNode {
        LeafNode::decode(disk.cursor().read(file, block, BlockKind::Leaf).unwrap()).unwrap()
    }

    /// Whether `key` is not below the first entry of the leaf at `block`.
    fn covers(disk: &Disk, file: u32, block: BlockId, key: Key) -> bool {
        leaf_at(disk, file, block).entries.first().is_none_or(|&(first, _)| first <= key)
    }

    #[test]
    fn bulk_build_produces_sorted_boundaries() {
        let (disk, file, mut l) = level();
        let entries: Vec<Entry> = (0..1_000u64).map(|i| (i * 3, i)).collect();
        let bounds = l.bulk_build(&disk, file, &entries, 0.8).unwrap();
        assert_eq!(bounds.len() as u64, l.leaf_count());
        assert!(bounds.len() > 50);
        assert!(bounds.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(bounds[0].0, 0);
        // Every key is found in the leaf its boundary routes to.
        for &(k, v) in entries.iter().step_by(97) {
            let idx = bounds.partition_point(|&(b, _)| b <= k) - 1;
            assert!(leaf_at(&disk, file, bounds[idx].1).entries.contains(&(k, v)));
            assert!(covers(&disk, file, bounds[idx].1, k));
        }
    }

    #[test]
    fn insert_splits_full_leaves() {
        let (disk, file, mut l) = level();
        let entries: Vec<Entry> = (0..100u64).map(|i| (i * 10, i)).collect();
        let bounds = l.bulk_build(&disk, file, &entries, 0.8).unwrap();
        let mut splits = 0;
        for i in 0..200u64 {
            let key = i * 5 + 1;
            let (lower, block) = bounds[bounds.partition_point(|&(b, _)| b <= key) - 1];
            let frame = disk.cursor().read(file, block, BlockKind::Leaf).unwrap().clone();
            let (consumed, _, split) =
                l.insert_run_in(&disk, file, block, &frame, &[(key, i)]).unwrap();
            assert_eq!(consumed, 1, "a single entry is always consumed");
            for (boundary, right) in split {
                splits += 1;
                assert!(boundary > lower);
                assert!(covers(&disk, file, right, boundary));
                assert_eq!(leaf_at(&disk, file, block).next, right);
            }
        }
        assert!(splits > 0, "dense inserts must split at least one leaf");
        assert_eq!(l.leaf_count(), bounds.len() as u64 + splits);
    }

    #[test]
    fn write_back_splits_an_overfull_leaf_into_a_chained_extent() {
        let capacity = NodeCapacity::for_block_size(256).leaf_entries;
        assert_eq!(capacity, 15);
        // One record over capacity halves the leaf, the B+-tree's split;
        // about 2.5 × capacity, a multi-leaf change, gives chunks of 8.
        for (records, sizes) in [(capacity + 1, vec![8, 8]), (37, vec![8, 8, 8, 8, 5])] {
            let (disk, file, mut l) = level();
            // Two leaves: keys 0..=110 at block 0, 120..=230 at block 1.
            let entries: Vec<Entry> = (0..24u64).map(|i| (i * 10, i)).collect();
            let bounds = l.bulk_build(&disk, file, &entries, 0.8).unwrap();
            assert_eq!(bounds, vec![(0, 0), (120, 1)]);
            let mut leaf = leaf_at(&disk, file, 0);
            leaf.entries = (0..records as u64).map(|k| (k, k + 1)).collect();
            let splits = l.write_back(&disk, file, 0, leaf).unwrap();

            assert_eq!(splits.len(), sizes.len() - 1);
            assert_eq!(l.leaf_count(), 2 + splits.len() as u64);
            // The new leaves are one extent past the old ones, in key order.
            let blocks: Vec<BlockId> = splits.iter().map(|&(_, block)| block).collect();
            assert_eq!(blocks, (2..2 + splits.len() as BlockId).collect::<Vec<_>>());
            // The chain runs from the old leaf through the new ones to the
            // old right neighbour, each leaf holding its chunk.
            let mut chain = vec![0];
            let mut scanned = Vec::new();
            loop {
                let leaf = leaf_at(&disk, file, chain[chain.len() - 1]);
                assert_eq!(leaf.entries.len(), sizes[chain.len() - 1]);
                scanned.extend_from_slice(&leaf.entries);
                if leaf.next == 1 {
                    break;
                }
                chain.push(leaf.next);
            }
            assert_eq!(chain.len(), sizes.len());
            assert_eq!(chain[1..], blocks);
            assert_eq!(scanned, (0..records as u64).map(|k| (k, k + 1)).collect::<Vec<_>>());
            for &(boundary, block) in &splits {
                assert_eq!(leaf_at(&disk, file, block).entries[0].0, boundary);
            }
        }
    }

    #[test]
    fn a_cyclic_leaf_link_fails_the_scan_instead_of_repeating_rows() {
        let (disk, file, mut l) = level();
        let entries: Vec<Entry> = (0..2_000u64).map(|i| (i * 2, i)).collect();
        let bounds = l.bulk_build(&disk, file, &entries, 0.8).unwrap();
        assert!(bounds.len() > 2);
        // The last leaf links back to the first.
        let (first, last) = (bounds[0].1, bounds[bounds.len() - 1].1);
        let mut leaf = leaf_at(&disk, file, last);
        assert_eq!(leaf.next, INVALID_BLOCK);
        leaf.next = first;
        LeafLevel::write(&disk, file, last, &leaf).unwrap();
        // The scan runs under a watchdog, so a walk that never ends fails the
        // test instead of hanging it. The row budget, four times the stored
        // keys, bounds what a walk that repeats rows collects.
        let (tx, rx) = std::sync::mpsc::channel();
        let rows = 4 * entries.len();
        let scanner = std::thread::spawn(move || {
            let scan = l.scan_from(&mut disk.scan_cursor(), file, first, 0, rows, &mut Vec::new());
            tx.send(scan).expect("the test waits");
        });
        let scan = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the scan did not finish within a minute");
        scanner.join().expect("the scan thread");
        assert!(matches!(scan, Err(IndexError::Internal(_))), "the scan returned {scan:?}");
    }

    #[test]
    fn scan_walks_the_chain() {
        let (disk, file, mut l) = level();
        let entries: Vec<Entry> = (0..500u64).map(|i| (i * 2, i)).collect();
        let bounds = l.bulk_build(&disk, file, &entries, 0.8).unwrap();
        let mut out = Vec::new();
        let n = l.scan_from(&mut disk.scan_cursor(), file, bounds[0].1, 100, 50, &mut out).unwrap();
        assert_eq!(n, 50);
        assert_eq!(out[0], (100, 50));
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn separators_of_one_leaf_split_stay_routable_across_routing_splits() {
        // Routing levels over stand-in children (no leaf is ever read): one
        // descent, then a run of ascending separators inserted along its
        // path, as a leaf that splits into several pieces inserts them. The
        // run splits routing nodes and the root on the way.
        let disk = Disk::in_memory(DiskConfig::with_block_size(256));
        let mut levels = InnerLevels::new(disk.create_file().unwrap(), 256);
        let child = |key: Key| 1_000_000 + key as BlockId;
        let level: Vec<(Key, BlockId)> = (0..40).map(|i| (i * 1_000, child(i * 1_000))).collect();
        levels.bulk_build(&disk, level, 0.8).unwrap();
        let height = levels.height();
        let mut path = Vec::new();
        assert_eq!(
            levels.descend(&mut disk.cursor(), 7_000, |b, _, _| path.push(b)).unwrap(),
            child(7_000)
        );
        let run: Vec<Key> = (1..400).map(|i| 7_000 + i * 2).collect();
        let mut splits = 0;
        for &key in &run {
            splits += levels.insert_separator(&disk, &mut path, key, child(key)).unwrap();
        }
        assert!(splits > 0 && levels.height() > height, "the run must split the root");
        let expected = run.iter().flat_map(|&k| [(k, k), (k + 1, k)]).chain([
            (0, 0),
            (6_999, 6_000),
            (7_001, 7_000),
            (39_000, 39_000),
            (Key::MAX, 39_000),
        ]);
        let mut cursor = disk.cursor();
        for (probe, owner) in expected {
            let found = levels.descend(&mut cursor, probe, |_, _, _| {}).unwrap();
            assert_eq!(found, child(owner), "probe {probe}");
        }
    }
}
