//! The FITing-tree directory: a B+-tree over segment metadata.
//!
//! The directory is the FITing-tree's *inner structure*. Its leaf entries are
//! full [`SegmentMeta`] records (model + data occupancy + extent address +
//! buffer flag), so by the time a query reaches a segment it already knows
//! the model, how many data entries are valid and whether the delta buffer
//! is worth reading — no segment header ever needs to be fetched. All
//! directory I/O is attributed to [`BlockKind::Inner`].
//!
//! The directory is the B+-tree's own two levels in one file: its
//! [`InnerLevels`] over a [`LeafLevelOf`] of segment records, which does the
//! bulk build, the write-back that splits a leaf into as many leaves as a
//! resegmentation needs, and the chain walk of [`Directory::all_segments`].
//! A leaf is the B+-tree's leaf layout with 36-byte records under tag 3:
//!
//! ```text
//! off  size  field
//!   0     1  tag = 3
//!   1     1  pad
//!   2     2  count (u16 LE)
//!   4     4  next leaf (u32)
//!   8  36·i  record i: first_key u64, slope f64, start_block u32,
//!            data_blocks u32, buffer_blocks u32, count u32,
//!            buffered u32 (1: the delta buffer holds entries)
//! ```
//!
//! Views read, owned nodes mutate (DESIGN.md §3.2). [`Directory::find`] and
//! [`Directory::next_segment`] search each pinned block where it lies, a
//! leaf through a [`LeafViewOf`] that decodes only the record asked for,
//! and read through the caller's [`BlockCursor`]. A leaf is decoded into a
//! [`LeafNodeOf`] only where it is about to change: [`Directory::update_meta`]
//! and [`Directory::replace`]. Every reader refuses a record whose count
//! overruns its extent, or whose flag marks a buffer of no blocks
//! ([`IndexError::Internal`]).

use std::sync::Arc;

use lidx_btree::{InnerLevels, LeafLevelOf, LeafNodeOf, LeafRecord, LeafViewOf};
use lidx_core::{IndexError, IndexResult, Key};
use lidx_storage::{bytes_at, BlockCursor, BlockId, BlockKind, Disk, INVALID_BLOCK};

use crate::segment::SegmentMeta;

/// Bytes per serialized [`SegmentMeta`] record.
pub(crate) const DIR_ENTRY: usize = 8 + 8 + 4 + 4 + 4 + 4 + 4;

/// A directory leaf, decoded.
type DirLeafNode = LeafNodeOf<SegmentMeta, DIR_ENTRY>;

impl LeafRecord<DIR_ENTRY> for SegmentMeta {
    const TAG: u8 = 3;
    const KIND: BlockKind = BlockKind::Inner;

    fn key(&self) -> Key {
        self.first_key
    }

    fn put(&self, slot: &mut [u8; DIR_ENTRY]) {
        slot[..8].copy_from_slice(&self.first_key.to_le_bytes());
        slot[8..16].copy_from_slice(&self.slope.to_le_bytes());
        let words = [
            self.start_block,
            self.data_blocks,
            self.buffer_blocks,
            self.count,
            u32::from(self.buffered),
        ];
        for (field, word) in slot[16..].chunks_exact_mut(4).zip(words) {
            field.copy_from_slice(&word.to_le_bytes());
        }
    }

    fn get(slot: &[u8; DIR_ENTRY]) -> Self {
        let word = |at| u32::from_le_bytes(bytes_at(slot, at));
        SegmentMeta {
            first_key: Key::from_le_bytes(bytes_at(slot, 0)),
            slope: f64::from_le_bytes(bytes_at(slot, 8)),
            start_block: word(16),
            data_blocks: word(20),
            buffer_blocks: word(24),
            count: word(28),
            buffered: word(32) != 0,
        }
    }
}

/// Record `i` of a directory leaf, checked against its extent on a segment
/// file of `block_size`-byte blocks. Panics if `i >= leaf.len()`.
fn record(
    leaf: &LeafViewOf<'_, SegmentMeta, DIR_ENTRY>,
    i: usize,
    block_size: usize,
) -> IndexResult<SegmentMeta> {
    let meta = leaf.entry(i);
    meta.check_extent(block_size).map(|()| meta)
}

/// Decodes a directory leaf to mutate it, every record checked against its
/// extent on a segment file of `block_size`-byte blocks.
fn decode_leaf(buf: &[u8], block_size: usize) -> IndexResult<DirLeafNode> {
    let leaf = DirLeafNode::decode(buf)?;
    leaf.entries.iter().try_for_each(|meta| meta.check_extent(block_size))?;
    Ok(leaf)
}

/// Location of a directory entry (used to set its buffer flag in place).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirSlot {
    /// Directory leaf block.
    pub block: BlockId,
    /// Entry index within the leaf.
    pub slot: usize,
}

/// The directory B+-tree: a leaf level of segment records under
/// [`InnerLevels`].
pub struct Directory {
    disk: Arc<Disk>,
    routing: InnerLevels,
    leaves: LeafLevelOf<SegmentMeta, DIR_ENTRY>,
    segment_count: u64,
}

impl Directory {
    /// Creates an empty directory in its own file on `disk`.
    pub fn new(disk: Arc<Disk>) -> IndexResult<Self> {
        let routing = InnerLevels::new(disk.create_file()?, disk.block_size());
        let leaves = LeafLevelOf::new(disk.block_size());
        Ok(Directory { disk, routing, leaves, segment_count: 0 })
    }

    /// Number of segments currently registered.
    pub fn segment_count(&self) -> u64 {
        self.segment_count
    }

    /// Number of directory leaf nodes.
    pub fn leaf_nodes(&self) -> u64 {
        self.leaves.leaf_count()
    }

    /// Number of routing (non-leaf) directory nodes.
    pub fn routing_nodes(&self) -> u64 {
        self.routing.node_count()
    }

    /// Height of the directory (1 = a single leaf).
    pub fn height(&self) -> u32 {
        self.routing.height()
    }

    /// The directory's file id.
    pub fn file_id(&self) -> u32 {
        self.routing.file()
    }

    /// Root block of the directory tree ([`INVALID_BLOCK`] before the first
    /// bulk build).
    pub fn root_block(&self) -> BlockId {
        self.routing.root()
    }

    /// Reconstructs a directory handle from persisted counters. The blocks
    /// themselves must already exist on `disk`; no I/O is performed.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        disk: Arc<Disk>,
        file: u32,
        root: BlockId,
        height: u32,
        leaf_count: u64,
        routing_count: u64,
        segment_count: u64,
    ) -> Self {
        let routing = InnerLevels::from_parts(file, disk.block_size(), root, height, routing_count);
        let leaves = LeafLevelOf::from_parts(disk.block_size(), leaf_count);
        Directory { disk, routing, leaves, segment_count }
    }

    /// The leaf at `block`, read through `cursor` and viewed in place.
    fn leaf_view<'c>(
        &self,
        cursor: &'c mut BlockCursor<'_>,
        block: BlockId,
    ) -> IndexResult<LeafViewOf<'c, SegmentMeta, DIR_ENTRY>> {
        LeafViewOf::new(cursor.read(self.file_id(), block, BlockKind::Inner)?)
    }

    /// Bulk-builds the directory from segment metadata sorted by `first_key`.
    pub fn bulk_build(&mut self, metas: &[SegmentMeta]) -> IndexResult<()> {
        let level = self.leaves.bulk_build(&self.disk, self.file_id(), metas, 0.8)?;
        self.routing.bulk_build(&self.disk, level, 0.8)?;
        self.segment_count = metas.len() as u64;
        Ok(())
    }

    /// Finds the segment covering `key`: the entry with the greatest
    /// `first_key <= key`. Returns the metadata and its location. Every
    /// block is read through `cursor`, the operation's one
    /// [`BlockCursor`], and searched in place.
    pub fn find(
        &self,
        cursor: &mut BlockCursor<'_>,
        key: Key,
    ) -> IndexResult<(SegmentMeta, DirSlot)> {
        let block = self.routing.descend(cursor, key, |_, _, _| {})?;
        let leaf = self.leaf_view(cursor, block)?;
        let Some(slot) = leaf.upper_bound(key).checked_sub(1) else {
            return Err(IndexError::Internal(format!(
                "no segment covers key {key}; the caller must route keys below the global minimum to the overflow buffer"
            )));
        };
        Ok((record(&leaf, slot, self.disk.block_size())?, DirSlot { block, slot }))
    }

    /// Returns the segment following `slot` in key order, if any, reading
    /// through `cursor`.
    pub fn next_segment(
        &self,
        cursor: &mut BlockCursor<'_>,
        slot: DirSlot,
    ) -> IndexResult<Option<(SegmentMeta, DirSlot)>> {
        let bs = self.disk.block_size();
        let leaf = self.leaf_view(cursor, slot.block)?;
        if slot.slot + 1 < leaf.len() {
            let next = DirSlot { block: slot.block, slot: slot.slot + 1 };
            return Ok(Some((record(&leaf, next.slot, bs)?, next)));
        }
        let block = leaf.next();
        if block == INVALID_BLOCK {
            return Ok(None);
        }
        let leaf = self.leaf_view(cursor, block)?;
        if leaf.is_empty() {
            return Ok(None);
        }
        Ok(Some((record(&leaf, 0, bs)?, DirSlot { block, slot: 0 })))
    }

    /// The leaf at `block`, decoded to be mutated.
    fn decode_at(&self, block: BlockId) -> IndexResult<DirLeafNode> {
        let mut cursor = self.disk.cursor();
        decode_leaf(cursor.read(self.file_id(), block, BlockKind::Inner)?, self.disk.block_size())
    }

    /// Overwrites the metadata stored at `slot` (the entry's `first_key` must
    /// not change). Costs one leaf read and one leaf write. The paper charges
    /// every FITing-tree insert this "extra block to update the current item
    /// count"; here the count lives in the delta buffer's own block, so an
    /// insert pays it only when it sets a segment's `buffered` flag, once per
    /// buffer lifetime.
    pub fn update_meta(&mut self, slot: DirSlot, meta: SegmentMeta) -> IndexResult<()> {
        meta.check_extent(self.disk.block_size())?;
        let mut leaf = self.decode_at(slot.block)?;
        let entry = leaf
            .entries
            .get_mut(slot.slot)
            .ok_or_else(|| IndexError::Internal(format!("stale directory slot {slot:?}")))?;
        if entry.first_key != meta.first_key {
            return Err(IndexError::Internal(format!(
                "directory slot {slot:?} holds first_key {} but update targets {}",
                entry.first_key, meta.first_key
            )));
        }
        *entry = meta;
        self.leaves.write_back(&self.disk, self.file_id(), slot.block, leaf)?;
        Ok(())
    }

    /// Replaces the segment whose `first_key` equals `old_first_key` with one
    /// or more new segments (sorted by `first_key`). Splits directory leaves
    /// and updates routing nodes as needed; this is the directory half of a
    /// resegmentation SMO.
    pub fn replace(&mut self, old_first_key: Key, new_metas: &[SegmentMeta]) -> IndexResult<()> {
        if new_metas.is_empty() {
            return Err(IndexError::Internal("replace requires at least one new segment".into()));
        }
        let mut path = Vec::with_capacity(self.height() as usize);
        let block =
            self.routing.descend(&mut self.disk.cursor(), old_first_key, |b, _, _| path.push(b))?;
        let mut leaf = self.decode_at(block)?;
        let pos =
            leaf.entries.iter().position(|m| m.first_key == old_first_key).ok_or_else(|| {
                IndexError::Internal(format!("segment with first_key {old_first_key} not found"))
            })?;
        leaf.entries.splice(pos..=pos, new_metas.iter().copied());
        self.segment_count += new_metas.len() as u64 - 1;
        // Route to each new leaf from its first key.
        for (boundary, new) in self.leaves.write_back(&self.disk, self.file_id(), block, leaf)? {
            self.routing.insert_separator(&self.disk, &mut path, boundary, new)?;
        }
        Ok(())
    }

    /// Collects every segment's metadata in key order (test / debugging aid;
    /// reads the whole leaf level). The walk is the leaf level's chain scan,
    /// whose budget is the leaf count, so a damaged `next` link — possibly
    /// a cycle — is [`IndexError::Internal`].
    pub fn all_segments(&self) -> IndexResult<Vec<SegmentMeta>> {
        if self.root_block() == INVALID_BLOCK {
            return Ok(Vec::new());
        }
        let mut cursor = self.disk.cursor();
        let first = self.routing.descend(&mut cursor, Key::MIN, |_, _, _| {})?;
        let mut out = Vec::new();
        self.leaves.scan_from(
            &mut cursor,
            self.file_id(),
            first,
            Key::MIN,
            usize::MAX,
            &mut out,
        )?;
        out.iter().try_for_each(|meta| meta.check_extent(self.disk.block_size()))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_btree::{InnerNode, InnerView, LEAF_HEADER};
    use lidx_storage::DiskConfig;

    fn meta(first_key: Key, start_block: BlockId) -> SegmentMeta {
        SegmentMeta {
            first_key,
            slope: 0.1,
            start_block,
            data_blocks: 2,
            buffer_blocks: 1,
            count: 10,
            buffered: false,
        }
    }

    fn find(dir: &Directory, key: Key) -> IndexResult<(SegmentMeta, DirSlot)> {
        dir.find(&mut dir.disk.cursor(), key)
    }

    fn build(n: u64, block_size: usize) -> Directory {
        let disk = Disk::in_memory(DiskConfig::with_block_size(block_size));
        let mut dir = Directory::new(disk).unwrap();
        let metas: Vec<SegmentMeta> = (0..n).map(|i| meta(i * 100 + 10, i as u32 * 3)).collect();
        dir.bulk_build(&metas).unwrap();
        dir
    }

    #[test]
    fn find_returns_covering_segment() {
        let dir = build(500, 512);
        assert_eq!(dir.segment_count(), 500);
        assert!(dir.height() >= 2);
        let (m, _) = find(&dir, 10).unwrap();
        assert_eq!(m.first_key, 10);
        let (m, _) = find(&dir, 109).unwrap();
        assert_eq!(m.first_key, 10, "keys inside a segment's range route to it");
        let (m, _) = find(&dir, 110).unwrap();
        assert_eq!(m.first_key, 110);
        let (m, _) = find(&dir, u64::MAX).unwrap();
        assert_eq!(m.first_key, 499 * 100 + 10);
        assert!(find(&dir, 5).is_err(), "keys below the global minimum are the caller's problem");
    }

    #[test]
    fn next_segment_walks_in_key_order() {
        let dir = build(300, 512);
        let (mut m, mut slot) = find(&dir, 10).unwrap();
        let mut seen = vec![m.first_key];
        while let Some((n, s)) = dir.next_segment(&mut dir.disk.cursor(), slot).unwrap() {
            assert!(n.first_key > m.first_key);
            seen.push(n.first_key);
            m = n;
            slot = s;
        }
        assert_eq!(seen.len(), 300);
    }

    #[test]
    fn update_meta_persists_counters() {
        let mut dir = build(50, 512);
        let (mut m, slot) = find(&dir, 1010).unwrap();
        m.buffered = true;
        m.count = 60;
        dir.update_meta(slot, m).unwrap();
        let (again, _) = find(&dir, 1010).unwrap();
        assert!(again.buffered);
        assert_eq!(again.count, 60);

        // Counts past the extent (two data blocks of 32 entries), and a flag
        // over no buffer block, are refused.
        let mut overrun = again;
        overrun.count = 65;
        assert!(dir.update_meta(slot, overrun).is_err());
        assert!(dir.update_meta(slot, SegmentMeta { buffer_blocks: 0, ..again }).is_err());

        // Updating with a mismatched first_key is rejected.
        let mut wrong = again;
        wrong.first_key += 1;
        assert!(dir.update_meta(slot, wrong).is_err());
    }

    #[test]
    fn replace_splits_leaves_and_keeps_all_segments_reachable() {
        let mut dir = build(200, 512);
        // Replace one segment with 40 new ones — enough to overflow a leaf.
        let old = 100 * 100 + 10; // first_key of segment #100
        let news: Vec<SegmentMeta> = (0..40).map(|i| meta(old + i, 10_000 + i as u32)).collect();
        dir.replace(old, &news).unwrap();
        assert_eq!(dir.segment_count(), 200 + 39);
        // Every new segment must now be found.
        for m in &news {
            let (found, _) = find(&dir, m.first_key).unwrap();
            assert_eq!(found.first_key, m.first_key);
            assert_eq!(found.start_block, m.start_block);
        }
        // Old neighbours are still reachable and ordering is preserved.
        let all = dir.all_segments().unwrap();
        assert_eq!(all.len(), 239);
        assert!(all.windows(2).all(|w| w[0].first_key < w[1].first_key));
    }

    #[test]
    fn replace_grows_the_routing_levels_and_keeps_every_segment() {
        // 512-byte blocks: 14 records per directory leaf and 42 keys per
        // routing node, so a few hundred replaces split the routing root.
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut dir = Directory::new(Arc::clone(&disk)).unwrap();
        let gap = 1 << 20;
        let metas: Vec<SegmentMeta> = (0..60).map(|i| meta(i * gap, i as u32)).collect();
        dir.bulk_build(&metas).unwrap();
        let h0 = dir.height();
        assert_eq!(h0, 2);
        // Each round replaces every segment whose successor is far enough
        // away with 1 + `fan` segments inside its range: multi-leaf splits,
        // several separators per replace, splits cascading into the root.
        let mut round = 0;
        while dir.height() == h0 {
            round += 1;
            assert!(round < 8, "the routing root never split");
            let all = dir.all_segments().unwrap();
            for (i, m) in all.iter().enumerate().step_by(2) {
                let end = all.get(i + 1).map_or(m.first_key + gap, |n| n.first_key);
                let fan = (i % 23 + 1) as u64;
                let step = (end - m.first_key) / (fan + 1);
                if step == 0 {
                    continue;
                }
                let news: Vec<SegmentMeta> =
                    (0..=fan).map(|j| meta(m.first_key + j * step, m.start_block)).collect();
                dir.replace(m.first_key, &news).unwrap();
            }
        }
        assert!(dir.height() > h0);

        let all = dir.all_segments().unwrap();
        assert_eq!(all.len() as u64, dir.segment_count());
        assert!(all.windows(2).all(|w| w[0].first_key < w[1].first_key));
        for m in &all {
            assert_eq!(find(&dir, m.first_key).unwrap().0, *m);
            assert_eq!(find(&dir, m.first_key + 1).unwrap().0, *m);
        }
        // Every block of the directory file is a leaf or a routing node,
        // and the counters name exactly the blocks written.
        let mut cursor = disk.cursor();
        let (mut leaves, mut routing) = (0, 0);
        for block in 0..disk.num_blocks(dir.file_id()).unwrap() {
            match cursor.read(dir.file_id(), block, BlockKind::Inner).unwrap()[0] {
                SegmentMeta::TAG => leaves += 1,
                _ => {
                    InnerView::new(cursor.read(dir.file_id(), block, BlockKind::Inner).unwrap())
                        .unwrap();
                    routing += 1;
                }
            }
        }
        assert_eq!((leaves, routing), (dir.leaf_nodes(), dir.routing_nodes()));
    }

    #[test]
    fn replace_missing_segment_fails() {
        let mut dir = build(10, 512);
        assert!(dir.replace(123_456, &[meta(123_456, 1)]).is_err());
        assert!(dir.replace(10, &[]).is_err());
    }

    #[test]
    fn directory_io_is_attributed_to_inner() {
        let dir = build(100, 512);
        find(&dir, 5_000).unwrap();
        assert!(dir.disk.stats().reads_of(BlockKind::Inner) > 0);
        assert_eq!(dir.disk.stats().reads_of(BlockKind::Leaf), 0);
    }

    #[test]
    fn empty_directory_reports_not_initialised() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let dir = Directory::new(disk).unwrap();
        assert!(matches!(find(&dir, 1), Err(IndexError::NotInitialized)));
        assert!(dir.all_segments().unwrap().is_empty());
    }

    /// Rewrites the stored bytes of directory block `block` with `patch`.
    fn patch_block(dir: &Directory, block: BlockId, patch: impl FnOnce(&mut [u8])) {
        let mut buf =
            dir.disk.cursor().read(dir.file_id(), block, BlockKind::Inner).unwrap().to_vec();
        patch(&mut buf);
        dir.disk.write(dir.file_id(), block, BlockKind::Inner, &buf).unwrap();
    }

    /// The leaf blocks in chain order.
    fn leaf_chain(dir: &Directory) -> Vec<BlockId> {
        let mut cursor = dir.disk.cursor();
        let mut chain = vec![dir.routing.descend(&mut cursor, Key::MIN, |_, _, _| {}).unwrap()];
        loop {
            let next = dir.leaf_view(&mut cursor, *chain.last().unwrap()).unwrap().next();
            if next == INVALID_BLOCK {
                return chain;
            }
            chain.push(next);
        }
    }

    #[test]
    fn a_cyclic_leaf_link_is_an_error_not_a_hang() {
        for (segments, back_to) in [(5, 0), (300, 0), (300, 2)] {
            let dir = build(segments, 512);
            assert_eq!(dir.all_segments().unwrap().len() as u64, segments);
            let chain = leaf_chain(&dir);
            assert_eq!(chain.len() as u64, dir.leaf_nodes());
            // The last leaf links back into the chain: to itself when the
            // directory is one leaf.
            let target = chain[back_to.min(chain.len() - 1)];
            patch_block(&dir, *chain.last().unwrap(), |b| {
                b[4..8].copy_from_slice(&target.to_le_bytes())
            });
            assert!(
                matches!(dir.all_segments(), Err(IndexError::Internal(_))),
                "{segments} segments, link back to leaf {back_to}"
            );
        }
    }

    #[test]
    fn a_record_that_overruns_its_extent_is_refused_where_it_is_read() {
        let mut dir = build(10, 512);
        // Record 3: count past its two data blocks of 32 entries.
        patch_block(&dir, dir.root_block(), |b| {
            b[LEAF_HEADER + 3 * DIR_ENTRY + 28..][..4].copy_from_slice(&65u32.to_le_bytes())
        });
        assert!(matches!(find(&dir, 310), Err(IndexError::Internal(_))));
        let (_, slot) = find(&dir, 210).unwrap();
        let next = dir.next_segment(&mut dir.disk.cursor(), slot);
        assert!(matches!(next, Err(IndexError::Internal(_))));
        // The view decodes only the record asked for; the neighbours read.
        assert_eq!(find(&dir, 410).unwrap().0.first_key, 410);
        // The mutation paths decode the whole leaf, and refuse it too.
        let (m, slot) = find(&dir, 10).unwrap();
        assert!(matches!(dir.update_meta(slot, m), Err(IndexError::Internal(_))));
        assert!(matches!(dir.replace(10, &[m]), Err(IndexError::Internal(_))));
        assert!(matches!(dir.all_segments(), Err(IndexError::Internal(_))));
    }

    mod views {
        //! `LeafViewOf` ≡ `LeafNodeOf::decode` over segment records: the read
        //! path's view and the mutation path's decoder of one layout, each
        //! with the directory's extent check, tell the same story on any
        //! bytes — the same records, link and search on a well-formed leaf,
        //! and the same `Ok`/`Err` verdict, without a panic, on a truncated
        //! block, a damaged header, a record that overruns its extent or a
        //! leaf of the B+-tree's own records.

        use super::*;
        use lidx_btree::{LeafNode, LeafView};
        use proptest::prelude::*;

        /// Room for the largest generated leaf: 8 header bytes + 48 × 36.
        const BLOCK: usize = 2048;
        /// Entries per segment block at `BLOCK` bytes.
        const PER_BLOCK: u32 = (BLOCK / 16) as u32;

        /// Reads `buf` through the view: the header, then every record.
        fn view_records(
            buf: &[u8],
        ) -> IndexResult<(LeafViewOf<'_, SegmentMeta, DIR_ENTRY>, Vec<SegmentMeta>)> {
            let view = LeafViewOf::new(buf)?;
            let metas =
                (0..view.len()).map(|i| record(&view, i, BLOCK)).collect::<IndexResult<_>>()?;
            Ok((view, metas))
        }

        /// Checks that the two readers agree on `buf`: both refuse it, or
        /// both accept it and every accessor of the view matches the decoded
        /// leaf.
        fn readers_agree(buf: &[u8], probes: &[Key]) -> Result<(), TestCaseError> {
            let ((view, metas), leaf) = match (view_records(buf), decode_leaf(buf, BLOCK)) {
                (Err(_), Err(_)) => return Ok(()),
                (Ok(view), Ok(leaf)) => (view, leaf),
                (view, leaf) => {
                    return Err(TestCaseError::fail(format!(
                        "verdicts differ: view ok = {}, decode ok = {}",
                        view.is_ok(),
                        leaf.is_ok()
                    )))
                }
            };
            prop_assert_eq!(view.len(), leaf.entries.len());
            prop_assert_eq!(&metas, &leaf.entries);
            prop_assert_eq!(view.next(), leaf.next);
            // A damaged count can expose unsorted padding; searches are only
            // comparable over sorted keys.
            if leaf.entries.windows(2).all(|w| w[0].first_key < w[1].first_key) {
                for &p in probes {
                    let expected = leaf.entries.partition_point(|m| m.first_key <= p);
                    prop_assert_eq!(view.upper_bound(p), expected);
                }
            }
            Ok(())
        }

        /// Every truncation of `buf`, and every value of every header byte.
        fn damaged(buf: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
            let cuts = (0..buf.len()).map(|len| buf[..len].to_vec());
            let flips = (0..LEAF_HEADER).flat_map(move |at| {
                (1..=u8::MAX).map(move |mask| {
                    let mut flipped = buf.to_vec();
                    flipped[at] ^= mask;
                    flipped
                })
            });
            cuts.chain(flips)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

            #[test]
            fn dir_leaf_view_matches_decode(
                keys in proptest::collection::btree_set(0u64..5_000, 0..48),
                seed in any::<u64>(),
                next in any::<u32>(),
                overrun in (0usize..4, 0usize..48),
                extra in proptest::collection::vec(0u64..6_000, 1..8),
            ) {
                let mut entries: Vec<SegmentMeta> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, &first_key)| {
                        let r = seed.rotate_left(i as u32 * 7) ^ first_key;
                        let data_blocks = (r % 4) as u32;
                        let buffer_blocks = ((r >> 8) % 3) as u32;
                        SegmentMeta {
                            first_key,
                            slope: (r >> 16) as f64 / u64::MAX as f64,
                            start_block: (r >> 32) as u32 % 100_000,
                            data_blocks,
                            buffer_blocks,
                            count: ((r >> 20) as u32) % (data_blocks * PER_BLOCK + 1),
                            buffered: buffer_blocks > 0 && (r >> 40) & 1 == 1,
                        }
                    })
                    .collect();
                // One leaf in four carries a record that overruns its extent,
                // by its count or by a flag over no buffer block: both readers
                // must refuse it.
                let (one_in_four, at) = overrun;
                let broken = one_in_four == 0 && !entries.is_empty();
                if broken {
                    let m = &mut entries[at % keys.len()];
                    if at % 2 == 0 {
                        m.count = m.data_blocks * PER_BLOCK + 1;
                    } else {
                        (m.buffer_blocks, m.buffered) = (0, true);
                    }
                }
                let leaf = DirLeafNode { entries, next };
                let buf = leaf.encode(BLOCK).unwrap();
                let mut probes: Vec<Key> = keys
                    .iter()
                    .flat_map(|&k| [k.saturating_sub(1), k, k + 1])
                    .chain(extra.iter().copied())
                    .collect();
                probes.extend([0, Key::MAX]);
                prop_assert_eq!(DirLeafNode::decode(&buf).unwrap(), leaf);
                prop_assert_eq!(decode_leaf(&buf, BLOCK).is_ok(), !broken);
                prop_assert!(LeafViewOf::<SegmentMeta, DIR_ENTRY>::new(&buf).is_ok());
                readers_agree(&buf, &probes)?;
                // The leaf as a routing node and a routing node as a leaf:
                // the tag is wrong for every reader.
                prop_assert!(InnerView::new(&buf).is_err());
                let routing = InnerNode { keys: keys.iter().copied().collect(), children: (0..=keys.len() as u32).collect() };
                readers_agree(&routing.encode(BLOCK).unwrap(), &probes)?;
                // The same for the two record types of one leaf layout: a
                // directory leaf is no B+-tree leaf, and the other way round.
                prop_assert!(LeafView::new(&buf).is_err() && LeafNode::decode(&buf).is_err());
                let entry_leaf = LeafNode { entries: keys.iter().map(|&k| (k, seed)).collect(), next };
                let entry_buf = entry_leaf.encode(BLOCK).unwrap();
                prop_assert!(view_records(&entry_buf).is_err() && decode_leaf(&entry_buf, BLOCK).is_err());
                for bytes in damaged(&buf) {
                    readers_agree(&bytes, &extra)?;
                }
            }
        }
    }
}
