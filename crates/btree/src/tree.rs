//! The on-disk B+-tree implementation.

use std::sync::Arc;

use lidx_core::{
    index::validate_bulk_load, Entry, IndexError, IndexKind, IndexRead, IndexResult, IndexStats,
    IndexWrite, InsertBreakdown, InsertStep, Key, MetaReader, MetaWriter, StepLaps, Value,
};
use lidx_storage::{
    AccessClass, BlockCursor, BlockId, BlockKind, BlockRef, BlockWriter, Disk, OpClass, SeqHint,
    INVALID_BLOCK,
};

use crate::node::{InnerNode, InnerView, LeafNode, LeafView, NodeCapacity};

/// Walks the chain of leaf blocks in `file` starting at `block`, appending
/// the entries with key `>= start` to `out` until it holds `count` entries
/// or the chain ends; returns `out.len()`. The one leaf-chain scan of every
/// index over this leaf format (the B+-tree and the hybrid leaf level).
///
/// The reads are scan-class, so the buffer pool's admission policy can keep
/// the walk from flushing the point-lookup working set. After the first hop
/// the sequentiality hint comes from the chain itself (`next == block + 1`),
/// so a concurrent reader touching other blocks between two hops cannot turn
/// this scan's sequential charges into random ones.
pub fn scan_leaf_chain(
    disk: &Disk,
    file: u32,
    mut block: BlockId,
    start: Key,
    count: usize,
    out: &mut Vec<Entry>,
) -> IndexResult<usize> {
    let mut hint = SeqHint::Auto;
    while out.len() < count {
        let frame = disk.read_ref_hinted(file, block, BlockKind::Leaf, AccessClass::Scan, hint)?;
        let leaf = LeafView::new(&frame)?;
        out.extend(leaf.entries_from(leaf.lower_bound(start)).take(count - out.len()));
        if leaf.next() == INVALID_BLOCK {
            break;
        }
        hint = if leaf.next() == block + 1 { SeqHint::Sequential } else { SeqHint::Random };
        block = leaf.next();
    }
    Ok(out.len())
}

/// Construction-time options for [`BTreeIndex`].
#[derive(Debug, Clone, Copy)]
pub struct BTreeConfig {
    /// Fraction of a node filled during bulk load (the paper's B+-tree leaves
    /// about 20 % slack, yielding ~980 k leaves for 200 M keys at 4 KB).
    pub fill_factor: f64,
}

impl Default for BTreeConfig {
    fn default() -> Self {
        BTreeConfig { fill_factor: 0.8 }
    }
}

/// A disk-resident B+-tree over `u64` keys.
pub struct BTreeIndex {
    disk: Arc<Disk>,
    config: BTreeConfig,
    capacity: NodeCapacity,
    file: u32,
    root: BlockId,
    height: u32,
    key_count: u64,
    inner_nodes: u64,
    leaf_nodes: u64,
    smo_count: u64,
    loaded: bool,
    breakdown: InsertBreakdown,
}

impl BTreeIndex {
    /// Creates an empty B+-tree on `disk` with default configuration.
    pub fn new(disk: Arc<Disk>) -> IndexResult<Self> {
        Self::with_config(disk, BTreeConfig::default())
    }

    /// Creates an empty B+-tree with an explicit configuration.
    pub fn with_config(disk: Arc<Disk>, config: BTreeConfig) -> IndexResult<Self> {
        assert!(
            config.fill_factor > 0.1 && config.fill_factor <= 1.0,
            "fill factor must be in (0.1, 1.0]"
        );
        let capacity = NodeCapacity::for_block_size(disk.block_size());
        let file = disk.create_file()?;
        // Block 0 is the meta block (root pointer); it is kept memory-resident
        // while the index is open, as the paper assumes.
        let meta = disk.allocate(file, 1)?;
        debug_assert_eq!(meta, 0);
        Ok(BTreeIndex {
            disk,
            config,
            capacity,
            file,
            root: INVALID_BLOCK,
            height: 0,
            key_count: 0,
            inner_nodes: 0,
            leaf_nodes: 0,
            smo_count: 0,
            loaded: false,
            breakdown: InsertBreakdown::new(),
        })
    }

    /// The node capacities derived from the disk's block size.
    pub fn capacity(&self) -> NodeCapacity {
        self.capacity
    }

    /// Rebuilds a tree handle over blocks already on `disk` from the bytes
    /// a previous session's [`IndexWrite::save_meta`] produced.
    pub fn load(disk: Arc<Disk>, config: BTreeConfig, meta: &[u8]) -> IndexResult<Self> {
        let mut r = MetaReader::new(meta);
        let file = r.u32()?;
        let root = r.u32()?;
        let height = r.u32()?;
        let key_count = r.u64()?;
        let inner_nodes = r.u64()?;
        let leaf_nodes = r.u64()?;
        let smo_count = r.u64()?;
        let capacity = NodeCapacity::for_block_size(disk.block_size());
        Ok(BTreeIndex {
            disk,
            config,
            capacity,
            file,
            root,
            height,
            key_count,
            inner_nodes,
            leaf_nodes,
            smo_count,
            loaded: true,
            breakdown: InsertBreakdown::new(),
        })
    }

    /// The file id holding this tree (exposed for the hybrid designs).
    pub fn file_id(&self) -> u32 {
        self.file
    }

    /// Persists the meta block (root, height, key count) to block 0.
    pub fn persist_meta(&self) -> IndexResult<()> {
        let mut w = BlockWriter::new(self.disk.block_size());
        w.put_u32(self.root)?;
        w.put_u32(self.height)?;
        w.put_u64(self.key_count)?;
        self.disk.write(self.file, 0, BlockKind::Meta, &w.finish())?;
        Ok(())
    }

    /// Pins the leaf at `block` for reading through a [`LeafView`].
    fn pin_leaf(&self, block: BlockId) -> IndexResult<BlockRef> {
        Ok(self.disk.read_ref(self.file, block, BlockKind::Leaf)?)
    }

    /// Decodes the leaf at `block` into an owned node, to mutate it.
    fn read_leaf(&self, block: BlockId) -> IndexResult<LeafNode> {
        LeafNode::decode(&self.pin_leaf(block)?)
    }

    fn write_leaf(&self, block: BlockId, leaf: &LeafNode) -> IndexResult<()> {
        let buf = leaf.encode(self.disk.block_size())?;
        self.disk.write(self.file, block, BlockKind::Leaf, &buf)?;
        Ok(())
    }

    /// Decodes the inner node at `block` into an owned node, to mutate it.
    fn read_inner(&self, block: BlockId) -> IndexResult<InnerNode> {
        let buf = self.disk.read_ref(self.file, block, BlockKind::Inner)?;
        InnerNode::decode(&buf)
    }

    fn write_inner(&self, block: BlockId, node: &InnerNode) -> IndexResult<()> {
        let buf = node.encode(self.disk.block_size())?;
        self.disk.write(self.file, block, BlockKind::Inner, &buf)?;
        Ok(())
    }

    /// Descends from the root to the leaf covering `key` and returns the
    /// leaf's block id, routing through an [`InnerView`] of each inner block
    /// pinned through `cursor`. `visit` sees every step — the inner block,
    /// the child index chosen and the node — so the callers that need more
    /// than the leaf (the insert path, the upper separator) collect it
    /// without a second copy of the walk.
    fn descend_with(
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

    /// The read-only descent: the block id of the leaf covering `key`.
    fn find_leaf(&self, key: Key) -> IndexResult<BlockId> {
        self.descend_with(&mut self.disk.cursor(), key, |_, _, _| {})
    }

    /// The insert-path descent: additionally returns the path of `(inner
    /// block, child index chosen)` pairs a split propagates along.
    fn descend(&self, key: Key) -> IndexResult<(Vec<(BlockId, usize)>, BlockId)> {
        let mut path = Vec::with_capacity(self.height as usize);
        let leaf = self
            .descend_with(&mut self.disk.cursor(), key, |block, idx, _| path.push((block, idx)))?;
        Ok((path, leaf))
    }

    /// Like [`Self::find_leaf`], but additionally returns the leaf's upper
    /// separator — the smallest routing key to the right of the descent
    /// path (`None` for the rightmost leaf). Every key strictly below the
    /// separator routes to the same leaf, so a sorted batch can group keys
    /// per leaf *without reading the leaf*, which is what lets the batch
    /// path fetch whole leaves through one outstanding-read queue.
    fn descend_bounded(
        &self,
        cursor: &mut BlockCursor<'_>,
        key: Key,
    ) -> IndexResult<(BlockId, Option<Key>)> {
        let mut upper = None;
        let leaf = self.descend_with(cursor, key, |_, idx, node| {
            if idx < node.len() {
                upper = Some(node.key(idx));
            }
        })?;
        Ok((leaf, upper))
    }

    /// Finds the entry with the greatest stored key `<= key` (a "floor"
    /// lookup). Used by structures that index range boundaries, e.g. the
    /// hybrid designs of §6.1.2 which map each leaf page's boundary key to a
    /// page address.
    pub fn lookup_floor(&self, key: Key) -> IndexResult<Option<Entry>> {
        let frame = self.pin_leaf(self.find_leaf(key)?)?;
        let leaf = LeafView::new(&frame)?;
        if let Some(e) = leaf.floor(key) {
            return Ok(Some(e));
        }
        // The floor may live in the previous leaf if `key` is smaller than
        // every key of this leaf (possible when `key` precedes the whole
        // subtree's range).
        if leaf.prev() == INVALID_BLOCK {
            return Ok(None);
        }
        let frame = self.pin_leaf(leaf.prev())?;
        Ok(LeafView::new(&frame)?.floor(Key::MAX))
    }

    /// Builds the leaf level during bulk load, returning `(min_key, block)`
    /// pairs for the next level up.
    fn bulk_load_leaves(&mut self, entries: &[Entry]) -> IndexResult<Vec<(Key, BlockId)>> {
        let per_leaf = ((self.capacity.leaf_entries as f64 * self.config.fill_factor) as usize)
            .clamp(1, self.capacity.leaf_entries);
        let leaf_count = entries.len().div_ceil(per_leaf).max(1);
        let first_block = self.disk.allocate(self.file, leaf_count as u32)?;
        let mut level = Vec::with_capacity(leaf_count);
        for (i, chunk) in entries.chunks(per_leaf).enumerate() {
            let block = first_block + i as u32;
            let next = if i + 1 < leaf_count { block + 1 } else { INVALID_BLOCK };
            let prev = if i > 0 { block - 1 } else { INVALID_BLOCK };
            let leaf = LeafNode { entries: chunk.to_vec(), next, prev };
            self.write_leaf(block, &leaf)?;
            level.push((chunk[0].0, block));
        }
        if entries.is_empty() {
            // A single empty leaf keeps every operation well-defined.
            let leaf = LeafNode::default();
            self.write_leaf(first_block, &leaf)?;
            level.push((0, first_block));
        }
        self.leaf_nodes = level.len() as u64;
        Ok(level)
    }

    /// Builds one inner level over `children`, returning the next level up.
    fn bulk_load_inner_level(
        &mut self,
        children: &[(Key, BlockId)],
    ) -> IndexResult<Vec<(Key, BlockId)>> {
        let per_node = ((self.capacity.inner_keys as f64 * self.config.fill_factor) as usize)
            .clamp(2, self.capacity.inner_keys);
        // Each inner node holds up to `per_node` keys, i.e. `per_node + 1` children.
        let node_count = children.len().div_ceil(per_node + 1).max(1);
        let first_block = self.disk.allocate(self.file, node_count as u32)?;
        let mut level = Vec::with_capacity(node_count);
        for (i, chunk) in children.chunks(per_node + 1).enumerate() {
            let block = first_block + i as u32;
            let node = InnerNode {
                keys: chunk[1..].iter().map(|&(k, _)| k).collect(),
                children: chunk.iter().map(|&(_, b)| b).collect(),
            };
            self.write_inner(block, &node)?;
            level.push((chunk[0].0, block));
        }
        self.inner_nodes += level.len() as u64;
        Ok(level)
    }

    /// Handles a leaf split during insert: writes both halves, then inserts
    /// the separator into the parent chain (splitting upward as necessary).
    fn split_leaf_and_propagate(
        &mut self,
        path: &[(BlockId, usize)],
        leaf_block: BlockId,
        mut leaf: LeafNode,
    ) -> IndexResult<()> {
        self.smo_count += 1;
        // One span covers the leaf split and any upward inner-node splits:
        // the cascade is a single pause from the caller's point of view.
        let telemetry = Arc::clone(&self.disk);
        let _span = telemetry.telemetry().span(OpClass::Smo);
        telemetry.telemetry().add(OpClass::Smo, 1);
        let (split_key, mut right) = leaf.split();
        let right_block = self.disk.allocate(self.file, 1)?;
        right.prev = leaf_block;
        leaf.next = right_block;
        self.write_leaf(leaf_block, &leaf)?;
        self.write_leaf(right_block, &right)?;
        self.leaf_nodes += 1;
        self.insert_into_parent(path, split_key, right_block)
    }

    /// Inserts `(key, child)` into the lowest node of `path`, splitting inner
    /// nodes upward as needed.
    fn insert_into_parent(
        &mut self,
        path: &[(BlockId, usize)],
        key: Key,
        child: BlockId,
    ) -> IndexResult<()> {
        let mut key = key;
        let mut child = child;
        for depth in (0..path.len()).rev() {
            let (block, _) = path[depth];
            let mut node = self.read_inner(block)?;
            let pos = node.keys.partition_point(|&k| k <= key);
            node.keys.insert(pos, key);
            node.children.insert(pos + 1, child);
            if node.keys.len() <= self.capacity.inner_keys {
                self.write_inner(block, &node)?;
                return Ok(());
            }
            // Split the inner node.
            self.smo_count += 1;
            let mid = node.keys.len() / 2;
            let up_key = node.keys[mid];
            let right = InnerNode {
                keys: node.keys.split_off(mid + 1),
                children: node.children.split_off(mid + 1),
            };
            node.keys.pop(); // `up_key` moves up rather than staying in either half
            let right_block = self.disk.allocate(self.file, 1)?;
            self.write_inner(block, &node)?;
            self.write_inner(right_block, &right)?;
            self.inner_nodes += 1;
            key = up_key;
            child = right_block;
        }
        // The root itself split: create a new root.
        let new_root_block = self.disk.allocate(self.file, 1)?;
        let new_root = InnerNode { keys: vec![key], children: vec![self.root, child] };
        self.write_inner(new_root_block, &new_root)?;
        self.inner_nodes += 1;
        self.root = new_root_block;
        self.height += 1;
        Ok(())
    }
}

impl IndexRead for BTreeIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::BTree
    }

    fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        let frame = self.pin_leaf(self.find_leaf(key)?)?;
        Ok(LeafView::new(&frame)?.lookup(key))
    }

    /// Batched lookups sort the probe keys and group them per leaf with one
    /// bounded descent each (inner blocks only): the keys below a leaf's
    /// upper separator share one root-to-leaf descent. The group leaves are
    /// then fetched through one outstanding-read queue, one blocking read at
    /// a time at queue depth 1 and as waves charged their max above it, and
    /// each group is answered from its pinned leaf.
    fn lookup_batch(&self, keys: &[Key], out: &mut Vec<Option<Value>>) -> IndexResult<()> {
        out.clear();
        out.resize(keys.len(), None);
        if keys.is_empty() {
            return Ok(());
        }
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_unstable_by_key(|&i| keys[i as usize]);
        // Each group is a leaf and the end of its run of `order`. One cursor
        // routes the whole batch: a descent that starts on the inner block
        // the previous one ended on re-reads nothing.
        let mut groups: Vec<(BlockId, usize)> = Vec::new();
        let mut bound: Option<Key> = None;
        let mut cursor = self.disk.cursor();
        for (at, &i) in order.iter().enumerate() {
            let key = keys[i as usize];
            if groups.is_empty() || bound.is_some_and(|b| key >= b) {
                let (leaf_block, upper) = self.descend_bounded(&mut cursor, key)?;
                bound = upper;
                // A gap key can re-route to the group's own leaf.
                if groups.last().map(|&(b, _)| b) != Some(leaf_block) {
                    groups.push((leaf_block, at));
                }
            }
            groups.last_mut().expect("group exists").1 = at + 1;
        }
        let mut q = self.disk.read_queue();
        for &(block, _) in &groups {
            q.submit(self.file, block, BlockKind::Leaf, AccessClass::Point)?;
        }
        let mut from = 0;
        for (&(_, end), c) in groups.iter().zip(q.complete()?) {
            let leaf = LeafView::new(&c.frame)?;
            for &i in &order[from..end] {
                out[i as usize] = leaf.lookup(keys[i as usize]);
            }
            from = end;
        }
        Ok(())
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize> {
        out.clear();
        if count == 0 {
            return Ok(0);
        }
        scan_leaf_chain(&self.disk, self.file, self.find_leaf(start)?, start, count, out)
    }

    /// Batched scans execute the ranges in ascending start-key order (the
    /// results stay positional): adjacent ranges then walk the leaf chain as
    /// one mostly-forward block stream, which the device cost model prices
    /// as sequential reads and the buffer pool serves without re-fetching a
    /// shared boundary leaf.
    fn scan_batch(&self, ranges: &[(Key, usize)], out: &mut Vec<Vec<Entry>>) -> IndexResult<()> {
        out.clear();
        out.resize_with(ranges.len(), Vec::new);
        let mut order: Vec<u32> = (0..ranges.len() as u32).collect();
        order.sort_unstable_by_key(|&i| ranges[i as usize].0);
        for &i in &order {
            let (start, count) = ranges[i as usize];
            self.scan(start, count, &mut out[i as usize])?;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.key_count
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            keys: self.key_count,
            height: self.height,
            inner_nodes: self.inner_nodes,
            leaf_nodes: self.leaf_nodes,
            smo_count: self.smo_count,
        }
    }
}

impl IndexWrite for BTreeIndex {
    fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if self.loaded {
            return Err(IndexError::AlreadyLoaded);
        }
        validate_bulk_load(entries)?;
        let mut level = self.bulk_load_leaves(entries)?;
        self.height = 1;
        while level.len() > 1 {
            level = self.bulk_load_inner_level(&level)?;
            self.height += 1;
        }
        self.root = level[0].1;
        self.key_count = entries.len() as u64;
        self.loaded = true;
        self.persist_meta()?;
        Ok(())
    }

    /// The one write path (`insert` is a batch of one): the entries are
    /// sorted and the tree is descended once per *run* of keys landing in
    /// the same leaf, so the shared root-to-leaf path, the leaf decode and
    /// the leaf write-back are paid once per run instead of once per key,
    /// and a run that overfills its leaf triggers one split before the
    /// remainder re-descends against the updated tree.
    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        if self.root == INVALID_BLOCK {
            return Err(IndexError::NotInitialized);
        }
        // A stable sort keeps duplicate keys in slice order, so the last
        // occurrence wins, as the contract requires.
        let mut order: Vec<u32> = (0..entries.len() as u32).collect();
        order.sort_by_key(|&i| entries[i as usize].0);
        let mut laps = StepLaps::start(&self.disk);
        let mut next = 0usize;
        while next < order.len() {
            let (path, leaf_block) = self.descend(entries[order[next] as usize].0)?;
            let mut leaf = self.read_leaf(leaf_block)?;
            laps.lap(&mut self.breakdown, InsertStep::Search);

            // Apply the run: the first key always lands here (the descent is
            // authoritative); every following sorted key stays in this leaf
            // as long as it does not exceed the leaf's current last key
            // (leaves cover contiguous disjoint ranges, so such a key cannot
            // belong anywhere else). Stop once the leaf holds one entry too
            // many — that overflow needs a split before the rest continue.
            let mut consumed = 0usize;
            while next + consumed < order.len() {
                if leaf.entries.len() > self.capacity.leaf_entries {
                    break;
                }
                let (key, value) = entries[order[next + consumed] as usize];
                // The rightmost leaf covers every key from its separator to
                // infinity, so a sorted append run stays pinned to it.
                let in_leaf = consumed == 0
                    || leaf.entries.last().is_some_and(|&(last, _)| key <= last)
                    || leaf.next == INVALID_BLOCK;
                if !in_leaf {
                    break;
                }
                if leaf.upsert(key, value) {
                    self.key_count += 1;
                }
                self.breakdown.finish_insert();
                consumed += 1;
            }
            if leaf.entries.len() <= self.capacity.leaf_entries {
                self.write_leaf(leaf_block, &leaf)?;
                laps.lap(&mut self.breakdown, InsertStep::Insert);
            } else {
                self.split_leaf_and_propagate(&path, leaf_block, leaf)?;
                laps.lap(&mut self.breakdown, InsertStep::Smo);
            }
            next += consumed;
        }
        Ok(())
    }

    fn insert_breakdown(&self) -> InsertBreakdown {
        self.breakdown
    }

    fn save_meta(&mut self) -> IndexResult<Vec<u8>> {
        self.persist_meta()?;
        let mut w = MetaWriter::new();
        w.u32(self.file)
            .u32(self.root)
            .u32(self.height)
            .u64(self.key_count)
            .u64(self.inner_nodes)
            .u64(self.leaf_nodes)
            .u64(self.smo_count);
        Ok(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_core::payload_for;
    use lidx_storage::DiskConfig;

    fn make_tree(block_size: usize) -> BTreeIndex {
        let disk = Disk::in_memory(DiskConfig::with_block_size(block_size));
        BTreeIndex::new(disk).unwrap()
    }

    fn entries(n: u64, stride: u64) -> Vec<Entry> {
        (0..n).map(|i| (i * stride + 1, payload_for(i * stride + 1))).collect()
    }

    #[test]
    fn bulk_load_and_lookup_every_key() {
        let mut t = make_tree(512);
        let data = entries(10_000, 3);
        t.bulk_load(&data).unwrap();
        assert_eq!(t.len(), 10_000);
        assert!(t.stats().height >= 2);
        for &(k, v) in data.iter().step_by(97) {
            assert_eq!(t.lookup(k).unwrap(), Some(v));
        }
        assert_eq!(t.lookup(0).unwrap(), None);
        assert_eq!(t.lookup(2).unwrap(), None, "keys between stored keys are absent");
        assert_eq!(t.lookup(u64::MAX).unwrap(), None);
    }

    #[test]
    fn bulk_load_rejects_disorder_and_double_load() {
        let mut t = make_tree(512);
        assert!(matches!(t.bulk_load(&[(5, 1), (4, 1)]), Err(IndexError::UnsortedBulkLoad { .. })));
        t.bulk_load(&entries(10, 1)).unwrap();
        assert!(matches!(t.bulk_load(&entries(10, 1)), Err(IndexError::AlreadyLoaded)));
    }

    #[test]
    fn operations_before_bulk_load_fail() {
        let mut t = make_tree(512);
        assert!(matches!(t.lookup(1), Err(IndexError::NotInitialized)));
        assert!(matches!(t.insert(1, 2), Err(IndexError::NotInitialized)));
    }

    #[test]
    fn inserts_split_leaves_and_grow_the_tree() {
        let mut t = make_tree(256);
        t.bulk_load(&entries(100, 10)).unwrap();
        let h0 = t.stats().height;
        // Insert many keys into a narrow range to force repeated splits.
        for i in 0..2_000u64 {
            t.insert(i * 7 + 3, i).unwrap();
        }
        assert!(t.stats().smo_count > 0, "splits must have happened");
        assert!(t.stats().height >= h0);
        // 14 of the inserted keys (i*7+3 with i ≡ 4 mod 10, i <= 134) collide
        // with bulk-loaded keys and are upserts rather than new entries.
        assert_eq!(t.len(), 100 + 2_000 - 14);
        for i in (0..2_000u64).step_by(131) {
            assert_eq!(t.lookup(i * 7 + 3).unwrap(), Some(i));
        }
        // Bulk-loaded keys survive the splits (skipping the ones the insert
        // phase legitimately overwrote).
        for i in (0..100u64).step_by(13) {
            let key = i * 10 + 1;
            if key >= 3 && (key - 3) % 7 == 0 {
                continue;
            }
            assert_eq!(t.lookup(key).unwrap(), Some(payload_for(key)));
        }
    }

    #[test]
    fn upsert_overwrites_without_growing() {
        let mut t = make_tree(512);
        t.bulk_load(&entries(1_000, 2)).unwrap();
        let before = t.len();
        t.insert(1, 999).unwrap();
        assert_eq!(t.len(), before);
        assert_eq!(t.lookup(1).unwrap(), Some(999));
    }

    #[test]
    fn scan_crosses_leaf_boundaries_in_order() {
        let mut t = make_tree(256);
        let data = entries(5_000, 2);
        t.bulk_load(&data).unwrap();
        let mut out = Vec::new();
        let n = t.scan(data[1_000].0, 500, &mut out).unwrap();
        assert_eq!(n, 500);
        assert_eq!(out.len(), 500);
        assert_eq!(out[0], data[1_000]);
        assert_eq!(out[499], data[1_499]);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));

        // Scan starting between keys begins at the next stored key.
        let n = t.scan(data[10].0 + 1, 3, &mut out).unwrap();
        assert_eq!(n, 3);
        assert_eq!(out[0], data[11]);

        // Scan hitting the end of the index returns fewer entries.
        let n = t.scan(data[data.len() - 2].0, 100, &mut out).unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn scan_on_inserted_keys_sees_them() {
        let mut t = make_tree(256);
        t.bulk_load(&entries(100, 100)).unwrap();
        for i in 0..50u64 {
            t.insert(1_000 + i, i).unwrap();
        }
        let mut out = Vec::new();
        t.scan(1_000, 50, &mut out).unwrap();
        assert_eq!(out.len(), 50);
        assert!(out.iter().enumerate().all(|(i, &(k, v))| k == 1_000 + i as u64 && v == i as u64));
    }

    #[test]
    fn height_matches_paper_shape_for_4kb_blocks() {
        // With 4 KB blocks and 0.8 fill the tree over 200k keys must have
        // ~1000 leaves and height 3 (leaf + two inner levels), mirroring the
        // paper's 4-level tree over 200M keys.
        let mut t = make_tree(4096);
        let data = entries(200_000, 5);
        t.bulk_load(&data).unwrap();
        let s = t.stats();
        assert!(s.leaf_nodes > 900 && s.leaf_nodes < 1100, "got {} leaves", s.leaf_nodes);
        assert_eq!(s.height, 3);
        // Every lookup fetches exactly `height` blocks once the meta block is
        // memory-resident.
        let before = t.disk().snapshot();
        t.lookup(data[12_345].0).unwrap();
        let delta = t.disk().snapshot().since(&before);
        assert_eq!(delta.reads(), 3);
        assert_eq!(delta.reads_of(BlockKind::Inner), 2);
        assert_eq!(delta.reads_of(BlockKind::Leaf), 1);
    }

    #[test]
    fn insert_breakdown_attributes_steps() {
        let mut t = make_tree(256);
        t.bulk_load(&entries(2_000, 4)).unwrap();
        for i in 0..500u64 {
            t.insert(i * 4 + 2, i).unwrap();
        }
        let b = t.insert_breakdown();
        assert_eq!(b.inserts, 500);
        assert!(b.reads(InsertStep::Search) >= 500, "every insert descends the tree");
        assert!(b.writes(InsertStep::Insert) + b.writes(InsertStep::Smo) >= 500);
    }

    #[test]
    fn empty_bulk_load_is_usable() {
        let mut t = make_tree(512);
        t.bulk_load(&[]).unwrap();
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup(5).unwrap(), None);
        t.insert(5, 6).unwrap();
        assert_eq!(t.lookup(5).unwrap(), Some(6));
        let mut out = Vec::new();
        assert_eq!(t.scan(0, 10, &mut out).unwrap(), 1);
    }

    #[test]
    fn scan_boundary_cases_match_oracle() {
        // Small leaves (256-byte blocks) so scanning from every stored key
        // exercises starts at exact leaf-block boundaries.
        let mut t = make_tree(256);
        let data = entries(600, 3);
        t.bulk_load(&data).unwrap();
        let mut out = Vec::new();

        // count == 0 returns nothing and leaves `out` empty.
        out.push((1, 1));
        assert_eq!(t.scan(data[0].0, 0, &mut out).unwrap(), 0);
        assert!(out.is_empty());

        // Starts above the maximum key return nothing.
        let max_key = data.last().unwrap().0;
        for start in [max_key + 1, u64::MAX] {
            assert_eq!(t.scan(start, 10, &mut out).unwrap(), 0, "scan from {start}");
            assert!(out.is_empty());
        }

        // Scanning from every stored key (covering every leaf boundary)
        // matches the oracle slice.
        for (i, &(k, _)) in data.iter().enumerate() {
            let n = t.scan(k, 7, &mut out).unwrap();
            let expected: Vec<Entry> = data[i..].iter().take(7).copied().collect();
            assert_eq!(n, expected.len(), "scan length from key {k}");
            assert_eq!(out, expected, "scan contents from key {k}");
        }
    }

    #[test]
    fn lookup_batch_matches_sequential_and_amortises_descents() {
        let mut t = make_tree(512);
        let data = entries(10_000, 3);
        t.bulk_load(&data).unwrap();
        // Unsorted probes mixing hits, misses, duplicates and extremes.
        let probes: Vec<Key> = data
            .iter()
            .step_by(37)
            .map(|&(k, _)| k)
            .chain([0, 2, u64::MAX, data[500].0, data[500].0, data[500].0 + 1])
            .rev()
            .collect();
        let mut batched = Vec::new();
        t.lookup_batch(&probes, &mut batched).unwrap();
        assert_eq!(batched.len(), probes.len());
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!(batched[i], t.lookup(p).unwrap(), "probe {p}");
        }

        // A batch of co-located keys descends once per leaf run, so it must
        // fetch strictly fewer blocks than the same lookups done one by one.
        let run: Vec<Key> = data[..256].iter().map(|&(k, _)| k).collect();
        t.disk().stats().reset();
        t.disk().reset_access_state();
        t.lookup_batch(&run, &mut batched).unwrap();
        let batch_reads = t.disk().stats().reads();
        t.disk().stats().reset();
        t.disk().reset_access_state();
        for &k in &run {
            t.lookup(k).unwrap();
        }
        let seq_reads = t.disk().stats().reads();
        assert!(
            batch_reads * 2 < seq_reads,
            "batched reads ({batch_reads}) must amortise sequential reads ({seq_reads})"
        );

        // Empty batches are a no-op.
        t.lookup_batch(&[], &mut batched).unwrap();
        assert!(batched.is_empty());
    }

    #[test]
    fn insert_batch_matches_sequential_and_amortises_writes() {
        let data = entries(2_000, 4);
        // Unsorted batch mixing fresh keys, overwrites of bulk keys and
        // in-batch duplicates (the later duplicate must win).
        // After the reverse, slice order is (39, 2) then (39, 1): the later
        // occurrence (39, 1) must win, exactly as a sequential loop would.
        let mut batch: Vec<Entry> = (0..900u64).map(|i| (i * 9 + 2, i)).collect();
        batch.push((data[100].0, 111));
        batch.push((39, 1));
        batch.push((39, 2));
        batch.reverse();

        let mut batched = make_tree(256);
        batched.bulk_load(&data).unwrap();
        batched.insert_batch(&batch).unwrap();
        let mut sequential = make_tree(256);
        sequential.bulk_load(&data).unwrap();
        for &(k, v) in &batch {
            sequential.insert(k, v).unwrap();
        }
        assert_eq!(batched.len(), sequential.len());
        assert_eq!(batched.lookup(39).unwrap(), Some(1), "later duplicate wins");
        assert_eq!(batched.lookup(data[100].0).unwrap(), Some(111));
        let mut b_scan = Vec::new();
        let mut s_scan = Vec::new();
        batched.scan(0, usize::MAX / 2, &mut b_scan).unwrap();
        sequential.scan(0, usize::MAX / 2, &mut s_scan).unwrap();
        assert_eq!(b_scan, s_scan, "batched and sequential content must be identical");
        assert_eq!(batched.insert_breakdown().inserts, batch.len() as u64);

        // A dense sorted batch descends and writes once per leaf run, so it
        // must do strictly less I/O than the per-key loop.
        let run: Vec<Entry> = (0..512u64).map(|i| (i * 2 + 100_001, i)).collect();
        let mut a = make_tree(256);
        a.bulk_load(&data).unwrap();
        a.disk().stats().reset();
        a.disk().reset_access_state();
        a.insert_batch(&run).unwrap();
        let batch_io = a.disk().stats().reads() + a.disk().stats().writes();
        let mut b = make_tree(256);
        b.bulk_load(&data).unwrap();
        b.disk().stats().reset();
        b.disk().reset_access_state();
        for &(k, v) in &run {
            b.insert(k, v).unwrap();
        }
        let seq_io = b.disk().stats().reads() + b.disk().stats().writes();
        assert!(
            batch_io * 2 < seq_io,
            "batched insert I/O ({batch_io}) must amortise sequential I/O ({seq_io})"
        );

        // Degenerate batches.
        a.insert_batch(&[]).unwrap();
        let mut empty = make_tree(256);
        assert!(matches!(empty.insert_batch(&[(1, 1)]), Err(IndexError::NotInitialized)));
    }

    #[test]
    fn queued_lookup_batch_matches_depth_one_answers_and_overlaps_io() {
        let data = entries(10_000, 3);
        let probes: Vec<Key> = data
            .iter()
            .step_by(17)
            .map(|&(k, _)| k)
            .chain([0, 2, u64::MAX, data[500].0, data[500].0 + 1])
            .rev()
            .collect();

        // A buffer pool keeps the inner levels resident (as any real
        // deployment would), so the comparison isolates the leaf fetches —
        // the part the outstanding-I/O engine overlaps.
        let model = lidx_storage::DeviceModel::ssd();
        let config = || DiskConfig::with_block_size(512).device(model).buffer_blocks(64);
        let mut expected = Vec::new();
        let mut t1 = BTreeIndex::new(Disk::in_memory(config())).unwrap();
        t1.bulk_load(&data).unwrap();
        t1.lookup_batch(&probes, &mut expected).unwrap();
        let sync_ns = {
            t1.disk().stats().reset();
            t1.disk().reset_access_state();
            t1.disk().clear_buffer();
            t1.lookup_batch(&probes, &mut expected).unwrap();
            t1.disk().stats().device_ns()
        };

        let disk = Disk::in_memory(config().queue_depth(8));
        let mut t8 = BTreeIndex::new(disk).unwrap();
        t8.bulk_load(&data).unwrap();
        let mut got = Vec::new();
        t8.lookup_batch(&probes, &mut got).unwrap();
        assert_eq!(got, expected, "queue depth must never change the answers");
        t8.disk().stats().reset();
        t8.disk().reset_access_state();
        t8.disk().clear_buffer();
        t8.lookup_batch(&probes, &mut got).unwrap();
        let queued_ns = t8.disk().stats().device_ns();
        assert!(
            queued_ns * 2 < sync_ns,
            "depth-8 leaf waves ({queued_ns} ns) must overlap the depth-1 cost ({sync_ns} ns)"
        );
        assert!(t8.disk().stats().overlap_saved_ns() > 0);
        assert!(t8.disk().stats().max_inflight() > 1);
    }

    #[test]
    fn concurrent_lookups_agree_with_serial_answers() {
        let mut t = make_tree(512);
        let data = entries(20_000, 3);
        t.bulk_load(&data).unwrap();
        let t = &t;
        let data = &data;
        std::thread::scope(|s| {
            for tid in 0..4usize {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for &(k, v) in data.iter().skip(tid * 31).step_by(127) {
                        assert_eq!(t.lookup(k).unwrap(), Some(v));
                        assert_eq!(t.lookup(k + 1).unwrap(), None);
                        let n = t.scan(k, 5, &mut out).unwrap();
                        assert!(n >= 1 && out[0] == (k, v));
                    }
                });
            }
        });
    }

    #[test]
    fn two_mib_blocks_keep_counts_inside_the_u16_header_field() {
        // 2 MiB of 16-byte entries is 131 071 slots, twice what the header's
        // u16 `count` can say: the capacity must stop at 65 535, so a full
        // leaf splits instead of wrapping its count.
        let disk = Disk::in_memory(DiskConfig::with_block_size(2 << 20));
        let mut t = BTreeIndex::with_config(disk, BTreeConfig { fill_factor: 1.0 }).unwrap();
        assert_eq!(t.capacity().leaf_entries, usize::from(u16::MAX));
        let data: Vec<Entry> = (0..70_000u64).map(|i| (i * 4, i)).collect();
        t.bulk_load(&data).unwrap();
        assert_eq!(t.stats().leaf_nodes, 2, "65 535 entries in the first leaf, the rest beside");
        let mut oracle: std::collections::BTreeMap<Key, Value> = data.iter().copied().collect();

        // The first leaf is full: the first fresh key splits it.
        for i in 0..24u64 {
            let key = i * 9_973 * 4 + 1;
            t.insert(key, i).unwrap();
            oracle.insert(key, i);
        }
        assert!(t.stats().smo_count >= 1, "a full leaf must split");
        assert_eq!(t.len(), oracle.len() as u64);

        let mut out = Vec::new();
        t.scan(0, usize::MAX, &mut out).unwrap();
        assert_eq!(out, oracle.into_iter().collect::<Vec<_>>());
        assert_eq!(t.lookup(9_973 * 4 + 1).unwrap(), Some(1));
    }

    #[test]
    fn storage_blocks_grow_with_splits() {
        let mut t = make_tree(256);
        t.bulk_load(&entries(1_000, 2)).unwrap();
        let before = t.storage_blocks();
        // Bulk-loaded keys are odd (2i + 1); inserting even keys doubles the
        // data volume and must allocate new leaf blocks via splits.
        for i in 0..1_000u64 {
            t.insert(i * 2 + 2, i).unwrap();
        }
        assert!(t.storage_blocks() > before);
    }
}
