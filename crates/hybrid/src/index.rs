//! The hybrid index: learned inner directory over a B+-tree leaf level.

use std::ops::Range;
use std::sync::Arc;

use lidx_btree::{Boundary, LeafLevel, LeafView};
use lidx_core::{
    block_pointer, index::validate_bulk_load, Entry, IndexError, IndexKind, IndexRead, IndexResult,
    IndexStats, IndexWrite, InsertBreakdown, InsertStep, Key, MetaReader, MetaWriter, StepLaps,
    Value,
};
use lidx_lipp::node::{build_subtree, Subtree};
use lidx_pgm::StaticPgm;
use lidx_storage::{BlockCursor, BlockId, BlockKind, Disk, FileId, OpClass};

/// Fraction of a leaf filled at bulk load, the B+-tree's default.
const LEAF_FILL: f64 = 0.8;

/// Error bound of the PLA directory.
const EPSILON: usize = 64;

/// Slot over-allocation factor of a model-tree node: a node over `n`
/// boundaries has `GAP_FACTOR · n` slots, clamped to `8..=2^20`.
const GAP_FACTOR: usize = 2;

/// What a directory payload read back as a leaf block is called in errors.
const LEAF_POINTER: &str = "hybrid directory leaf pointer";

/// Which learned structure routes queries to the leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridInnerKind {
    /// ε-bounded piecewise-linear directory (FITing-tree / PGM style).
    Pla,
    /// FMCD model tree (ALEX / LIPP style).
    ModelTree,
}

impl HybridInnerKind {
    /// Short name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            HybridInnerKind::Pla => "pla",
            HybridInnerKind::ModelTree => "model-tree",
        }
    }
}

/// The learned directory over the `(boundary, leaf block)` pairs, in the
/// index's directory file and charged wholly to [`BlockKind::Inner`]. Each
/// variant is its own crate's handle, with that crate's floor query and
/// meta.
enum Directory {
    /// A recursive ε-bounded PLA, the inner part of a FITing-tree or PGM
    /// (Table 5's "FITing-Tree" / "PGM" columns): one [`StaticPgm`]
    /// component.
    Pla(StaticPgm),
    /// An FMCD model tree in the spirit of ALEX's and LIPP's inner nodes
    /// (Table 5's "ALEX" / "LIPP" columns): a LIPP subtree whose slots hold
    /// a boundary with its leaf, or a child keyed by its first boundary.
    ModelTree(Subtree),
}

/// A hybrid index (§6.1.2): learned inner structure, B+-tree-styled leaves.
pub struct HybridIndex {
    disk: Arc<Disk>,
    inner: HybridInnerKind,
    /// The leaf level's own file.
    leaf_file: u32,
    leaves: LeafLevel,
    /// The learned directory's own file, and the blocks of it that the
    /// current directory was appended into.
    dir_file: FileId,
    dir_blocks: Range<BlockId>,
    /// The directory; `None` until the bulk load, so `Some` means loaded.
    directory: Option<Directory>,
    /// In-memory copy of the `(boundary, leaf block)` pairs, read back from
    /// the directory on a reopen and used only to rebuild the directory
    /// after leaf splits (meta-style state; all routing I/O still goes
    /// through the on-disk directory).
    boundaries: Vec<Boundary>,
    key_count: u64,
    smo_count: u64,
    breakdown: InsertBreakdown,
}

impl HybridIndex {
    /// Creates an empty hybrid index routed by an `inner` directory.
    pub fn new(disk: Arc<Disk>, inner: HybridInnerKind) -> IndexResult<Self> {
        let leaf_file = disk.create_file()?;
        let dir_file = disk.create_file()?;
        Ok(HybridIndex {
            leaves: LeafLevel::new(disk.block_size()),
            disk,
            inner,
            leaf_file,
            dir_file,
            dir_blocks: 0..0,
            directory: None,
            boundaries: Vec::new(),
            key_count: 0,
            smo_count: 0,
            breakdown: InsertBreakdown::new(),
        })
    }

    /// Reopens a hybrid index from [`IndexWrite::save_meta`] bytes against a
    /// disk that already holds its blocks. `inner` must be the kind the
    /// index was created with. The saved directory is opened from its own
    /// meta and its `(boundary, leaf block)` entries are read back into the
    /// in-memory boundary table: the PLA's data level, or every block of
    /// the model tree. Nothing is written or freed.
    ///
    /// A meta no index writes is [`IndexError::Internal`]: a directory file
    /// that is the leaf file, a directory range past the end of its file, a
    /// PLA component in another file, a model-tree root past the file or
    /// more nodes than the file has blocks (the walk's budget), or entries
    /// that do not strictly increase, name a block past the leaf file or
    /// number other than the leaf count. Every later search trusts those
    /// bounds.
    pub fn load(disk: Arc<Disk>, inner: HybridInnerKind, meta: &[u8]) -> IndexResult<Self> {
        let mut r = MetaReader::new(meta);
        let leaf_file = r.u32()?;
        let dir_file = r.u32()?;
        let dir_blocks = r.u32()?..r.u32()?;
        let leaf_count = r.u64()?;
        let loaded = r.u32()? != 0;
        let key_count = r.u64()?;
        let smo_count = r.u64()?;
        let dir_len = disk.num_blocks(dir_file)?;
        if dir_file == leaf_file || dir_blocks.start > dir_blocks.end || dir_blocks.end > dir_len {
            return Err(IndexError::Internal(format!(
                "hybrid directory {dir_blocks:?} of file {dir_file} (leaf file {leaf_file}, \
                 {dir_len} blocks)"
            )));
        }
        let mut index = HybridIndex {
            leaves: LeafLevel::from_parts(disk.block_size(), leaf_count),
            disk,
            inner,
            leaf_file,
            dir_file,
            dir_blocks,
            directory: None,
            boundaries: Vec::new(),
            key_count,
            smo_count,
            breakdown: InsertBreakdown::new(),
        };
        if loaded {
            index.open_directory(&mut r, dir_len)?;
        }
        Ok(index)
    }

    /// Opens the directory whose meta `r` holds, in a directory file of
    /// `dir_len` blocks, and reads its entries back into the boundary table,
    /// checking them against the leaf level.
    fn open_directory(&mut self, r: &mut MetaReader<'_>, dir_len: BlockId) -> IndexResult<()> {
        let forged = |what: String| Err(IndexError::Internal(format!("hybrid directory {what}")));
        let (directory, entries) = match self.inner {
            HybridInnerKind::Pla => {
                let pgm = StaticPgm::load_meta(Arc::clone(&self.disk), r, BlockKind::Inner)?;
                if pgm.file() != self.dir_file {
                    return forged(format!("component in file {}", pgm.file()));
                }
                let entries = pgm.all_entries()?;
                (Directory::Pla(pgm), entries)
            }
            HybridInnerKind::ModelTree => {
                let tree = Subtree { root: r.u32()?, nodes: r.u64()?, depth: r.u32()? };
                if tree.root >= dir_len || !(1..=u64::from(dir_len)).contains(&tree.nodes) {
                    return forged(format!("{tree:?} overruns its file of {dir_len} blocks"));
                }
                let entries =
                    tree.entries(&mut self.disk.cursor(), self.dir_file, BlockKind::Inner)?;
                (Directory::ModelTree(tree), entries)
            }
        };
        let leaf_blocks = self.disk.num_blocks(self.leaf_file)?;
        let mut boundaries: Vec<Boundary> = Vec::with_capacity(entries.len());
        for (key, pointer) in entries {
            let leaf = block_pointer(pointer, LEAF_POINTER)?;
            if leaf >= leaf_blocks || boundaries.last().is_some_and(|&(last, _)| last >= key) {
                return forged(format!(
                    "entry ({key}, {leaf}) is out of order or past {leaf_blocks} leaf blocks"
                ));
            }
            boundaries.push((key, leaf));
        }
        if boundaries.len() as u64 != self.leaves.leaf_count() {
            return forged(format!(
                "holds {} boundaries for {} leaves",
                boundaries.len(),
                self.leaves.leaf_count()
            ));
        }
        self.boundaries = boundaries;
        self.directory = Some(directory);
        Ok(())
    }

    /// Builds the directory over the boundary table into the directory's
    /// file, then frees the range the directory it replaces was appended
    /// into and makes it the range this build appended. Only builds
    /// allocate in the file, so every block of an appended range is its
    /// build's, and freeing it walks nothing. A build that reuses freed
    /// space ([`lidx_storage::DiskConfig::reuse_freed_space`]) places those
    /// blocks outside its range, so they stay allocated for good: space
    /// lost, never a live block freed.
    fn rebuild_directory(&mut self) -> IndexResult<()> {
        let (disk, file) = (&self.disk, self.dir_file);
        let entries: Vec<Entry> = self.boundaries.iter().map(|&(k, b)| (k, u64::from(b))).collect();
        let start = disk.num_blocks(file)?;
        let directory = match self.inner {
            HybridInnerKind::Pla => {
                let pgm =
                    StaticPgm::build(Arc::clone(disk), file, &entries, EPSILON, BlockKind::Inner)?;
                Directory::Pla(pgm)
            }
            HybridInnerKind::ModelTree => {
                let capacity = |n: usize| n.saturating_mul(GAP_FACTOR).clamp(8, 1 << 20) as u32;
                let tree = build_subtree(disk, file, BlockKind::Inner, &entries, &capacity)?;
                Directory::ModelTree(tree)
            }
        };
        let end = disk.num_blocks(file)?;
        self.directory = Some(directory);
        let superseded = std::mem::replace(&mut self.dir_blocks, start..end);
        self.disk.free(file, superseded.start, superseded.len() as u32);
        Ok(())
    }

    /// Returns the leaf block covering `key`: the directory's floor, or the
    /// first leaf when `key` precedes every boundary. Every directory block
    /// is read through the operation's `cursor`, so a batch that routes
    /// several keys re-reads nothing.
    fn leaf_for(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<BlockId> {
        let floor = match &self.directory {
            Some(Directory::Pla(pgm)) => pgm.floor(cursor, key)?,
            Some(Directory::ModelTree(tree)) => {
                tree.floor(cursor, self.dir_file, BlockKind::Inner, key)?
            }
            None => return Err(IndexError::NotInitialized),
        };
        floor.or(self.boundaries.first().map(|b| b.1)).ok_or(IndexError::NotInitialized)
    }

    /// Number of leaf blocks.
    pub fn leaf_count(&self) -> u64 {
        self.leaves.leaf_count()
    }
}

impl IndexRead for HybridIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Hybrid
    }

    fn name(&self) -> String {
        format!("hybrid-{}", self.inner.name())
    }

    fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        let mut cursor = self.disk.cursor();
        let leaf = self.leaf_for(&mut cursor, key)?;
        Ok(LeafView::new(cursor.read(self.leaf_file, leaf, BlockKind::Leaf)?)?.lookup(key))
    }

    /// Batched lookups sort the probe keys and group them by covering leaf
    /// through the in-memory boundary table (leaves cover contiguous
    /// disjoint ranges, so groups are runs). One learned-directory descent is
    /// charged per group, the routing I/O a per-run loop pays, and the group
    /// leaves are fetched through one outstanding-read queue: one blocking
    /// read at a time at queue depth 1, waves charged their max above it.
    fn lookup_batch(&self, keys: &[Key], out: &mut Vec<Option<Value>>) -> IndexResult<()> {
        out.clear();
        if keys.is_empty() {
            return Ok(());
        }
        if self.directory.is_none() {
            return Err(IndexError::NotInitialized);
        }
        out.resize(keys.len(), None);
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_unstable_by_key(|&i| keys[i as usize]);
        // Each group is a leaf block and the end of its run of `order`; the
        // group takes every key below the next leaf's boundary. One cursor
        // routes the whole batch: a descent that starts on the directory
        // block the previous one ended on re-reads nothing.
        let mut groups: Vec<(BlockId, usize)> = Vec::new();
        let mut bound: Option<Key> = None;
        let mut cursor = self.disk.cursor();
        for (at, &i) in order.iter().enumerate() {
            let key = keys[i as usize];
            if groups.is_empty() || bound.is_some_and(|b| key >= b) {
                let idx = self.boundaries.partition_point(|&(b, _)| b <= key).saturating_sub(1);
                bound = self.boundaries.get(idx + 1).map(|&(b, _)| b);
                groups.push((self.leaf_for(&mut cursor, key)?, at));
            }
            groups.last_mut().expect("group exists").1 = at + 1;
        }
        let frames =
            LeafLevel::pin_queued(&self.disk, self.leaf_file, groups.iter().map(|&(b, _)| b))?;
        let mut from = 0;
        for (&(_, end), frame) in groups.iter().zip(&frames) {
            let leaf = LeafView::new(frame)?;
            for &i in &order[from..end] {
                out[i as usize] = leaf.lookup(keys[i as usize]);
            }
            from = end;
        }
        Ok(())
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize> {
        out.clear();
        if self.directory.is_none() {
            return Err(IndexError::NotInitialized);
        }
        if count == 0 {
            return Ok(0);
        }
        // One scan cursor carries the directory descent (point-class inner
        // nodes) and the leaf chain (scan-class).
        let mut cursor = self.disk.scan_cursor();
        let leaf = self.leaf_for(&mut cursor, start)?;
        self.leaves.scan_from(&mut cursor, self.leaf_file, leaf, start, count, out)
    }

    fn len(&self) -> u64 {
        self.key_count
    }

    fn stats(&self) -> IndexStats {
        // The PLA's height counts its data level, its record levels and the
        // in-memory root; its nodes are its blocks.
        let (height, inner_nodes) = match (&self.directory, self.inner) {
            (Some(Directory::Pla(pgm)), _) => (2 + pgm.inner_levels() as u32, pgm.blocks()),
            (Some(Directory::ModelTree(tree)), _) => (tree.depth, tree.nodes),
            (None, HybridInnerKind::Pla) => (2, 0),
            (None, HybridInnerKind::ModelTree) => (0, 0),
        };
        IndexStats {
            keys: self.key_count,
            height: height + 1,
            inner_nodes,
            leaf_nodes: self.leaves.leaf_count(),
            smo_count: self.smo_count,
        }
    }

    fn storage_blocks(&self) -> u64 {
        // A rebuilt directory frees the one it replaces, so the live
        // footprint is the allocation minus what has been freed (§6.3).
        self.disk.total_blocks() - self.disk.freed_blocks(self.dir_file)
    }
}

impl IndexWrite for HybridIndex {
    fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if self.directory.is_some() {
            return Err(IndexError::AlreadyLoaded);
        }
        validate_bulk_load(entries)?;
        self.boundaries = self.leaves.bulk_build(&self.disk, self.leaf_file, entries, LEAF_FILL)?;
        self.rebuild_directory()?;
        self.key_count = entries.len() as u64;
        Ok(())
    }

    /// The one write path (`insert` is a batch of one): each sorted *run* of
    /// co-located entries is appended to its dense leaf with one
    /// read-modify-write, and — the big win — the learned-directory retrain
    /// is deferred to a single directory rebuild at the end of the batch
    /// instead of one per split (the P2 cost one-entry batches pay per
    /// split). While splits are pending, routing switches to
    /// the in-memory boundary table, which is exactly the state the deferred
    /// rebuild will be trained on.
    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if self.directory.is_none() {
            return Err(IndexError::NotInitialized);
        }
        if entries.is_empty() {
            return Ok(());
        }
        // Stable sort: duplicate keys keep slice order, later entries win.
        let mut sorted = entries.to_vec();
        sorted.sort_by_key(|&(k, _)| k);
        let mut laps = StepLaps::start(&self.disk);
        let mut directory_stale = false;
        let mut next = 0usize;
        while next < sorted.len() {
            let rest = &sorted[next..];
            let key = rest[0].0;
            // Route through the learned directory while it is current; once
            // a split leaves it stale, the in-memory boundary table (always
            // current) takes over until the end-of-batch rebuild. Fetching
            // the leaf is the last hop of the search, whose cursor is dropped
            // before the run's write.
            let upper_pos = self.boundaries.partition_point(|&(b, _)| b <= key);
            let (leaf, frame) = {
                let mut cursor = self.disk.cursor();
                let leaf = if directory_stale {
                    self.boundaries[upper_pos.saturating_sub(1)].1
                } else {
                    self.leaf_for(&mut cursor, key)?
                };
                (leaf, cursor.read(self.leaf_file, leaf, BlockKind::Leaf)?.clone())
            };
            laps.lap(&mut self.breakdown, InsertStep::Search);

            // The leaf covers keys up to (but excluding) the next boundary.
            let run = match self.boundaries.get(upper_pos) {
                Some(&(upper, _)) => &rest[..rest.partition_point(|&(k, _)| k < upper)],
                None => rest,
            };
            let (consumed, added, splits) =
                self.leaves.insert_run_in(&self.disk, self.leaf_file, leaf, &frame, run)?;
            self.key_count += added;
            for _ in 0..consumed {
                self.breakdown.finish_insert();
            }
            let step = if splits.is_empty() { InsertStep::Insert } else { InsertStep::Smo };
            laps.lap(&mut self.breakdown, step);
            for (boundary, block) in splits {
                self.smo_count += 1;
                self.disk.telemetry().add(OpClass::Smo, 1);
                let pos = self.boundaries.partition_point(|&(b, _)| b <= boundary);
                self.boundaries.insert(pos, (boundary, block));
                directory_stale = true;
            }
            next += consumed;
        }
        if directory_stale {
            // The deferred directory retrain — the heavy cost that makes
            // updatable learned inners expensive (design principle P2) — is
            // the write path's real SMO pause; the per-split bookkeeping
            // above is bookkeeping only.
            let telemetry = Arc::clone(&self.disk);
            let _span = telemetry.telemetry().span(OpClass::Smo);
            self.rebuild_directory()?;
            laps.lap(&mut self.breakdown, InsertStep::Smo);
        }
        Ok(())
    }

    fn insert_breakdown(&self) -> InsertBreakdown {
        self.breakdown
    }

    fn save_meta(&mut self) -> IndexResult<Vec<u8>> {
        // Leaf blocks and the directory are written eagerly, so the meta is
        // the leaf level's parts, the directory's file and the blocks its
        // next rebuild frees, the counters, and the directory's own meta.
        let mut w = MetaWriter::new();
        w.u32(self.leaf_file)
            .u32(self.dir_file)
            .u32(self.dir_blocks.start)
            .u32(self.dir_blocks.end)
            .u64(self.leaves.leaf_count())
            .u32(self.directory.is_some() as u32)
            .u64(self.key_count)
            .u64(self.smo_count);
        match &self.directory {
            Some(Directory::Pla(pgm)) => pgm.save_meta(&mut w),
            Some(Directory::ModelTree(tree)) => {
                w.u32(tree.root).u64(tree.nodes).u32(tree.depth);
            }
            None => {}
        }
        Ok(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_storage::{BlockKind, DiskConfig};

    fn build(inner: HybridInnerKind, n: u64) -> (HybridIndex, Vec<Entry>) {
        build_on(Disk::in_memory(DiskConfig::with_block_size(512)), inner, n)
    }

    fn build_on(disk: Arc<Disk>, inner: HybridInnerKind, n: u64) -> (HybridIndex, Vec<Entry>) {
        let mut h = HybridIndex::new(disk, inner).unwrap();
        let mut keys: Vec<u64> = (0..n).map(|i| i * 13 + (i % 29) * 7).collect();
        keys.sort_unstable();
        keys.dedup();
        let data: Vec<Entry> = keys.into_iter().map(|k| (k, k + 1)).collect();
        h.bulk_load(&data).unwrap();
        (h, data)
    }

    #[test]
    fn lookups_work_for_both_inner_kinds() {
        for inner in [HybridInnerKind::Pla, HybridInnerKind::ModelTree] {
            let (h, data) = build(inner, 20_000);
            assert_eq!(h.len(), data.len() as u64);
            for &(k, v) in data.iter().step_by(487) {
                assert_eq!(h.lookup(k).unwrap(), Some(v), "{inner:?} key {k}");
            }
            assert_eq!(h.lookup(data.last().unwrap().0 + 1).unwrap(), None);
            assert!(h.name().starts_with("hybrid-"));
        }
    }

    #[test]
    fn scans_behave_like_a_btree_leaf_chain() {
        for inner in [HybridInnerKind::Pla, HybridInnerKind::ModelTree] {
            let (h, data) = build(inner, 10_000);
            let mut out = Vec::new();
            let n = h.scan(data[3_000].0, 500, &mut out).unwrap();
            assert_eq!(n, 500);
            assert_eq!(out[0], data[3_000]);
            assert_eq!(out[499], data[3_499]);
            assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn scan_leaf_io_is_dense_like_a_btree() {
        // The whole point of the hybrid design: scans fetch only dense leaf
        // blocks (plus the inner descent), unlike ALEX/LIPP native scans.
        let (h, data) = build(HybridInnerKind::Pla, 20_000);
        let mut out = Vec::new();
        h.disk().stats().reset();
        h.disk().reset_access_state();
        h.scan(data[5_000].0, 100, &mut out).unwrap();
        let leaf_reads = h.disk().stats().reads_of(BlockKind::Leaf);
        // 100 entries at ~25 entries per 512-byte leaf = about 5 leaf blocks.
        assert!(leaf_reads <= 8, "scan fetched {leaf_reads} leaf blocks");
        assert_eq!(h.disk().stats().reads_of(BlockKind::Utility), 0);
    }

    #[test]
    fn scan_boundary_cases_match_oracle() {
        for inner in [HybridInnerKind::Pla, HybridInnerKind::ModelTree] {
            let (t, data) = build(inner, 1_200);
            let mut out = Vec::new();

            // count == 0 returns nothing and clears `out`.
            out.push((1, 1));
            assert_eq!(t.scan(data[0].0, 0, &mut out).unwrap(), 0);
            assert!(out.is_empty());

            // Starts above the maximum stored key return nothing.
            let max_key = data.last().unwrap().0;
            for start in [max_key + 1, u64::MAX] {
                assert_eq!(t.scan(start, 10, &mut out).unwrap(), 0, "{inner:?} from {start}");
                assert!(out.is_empty());
            }

            // Scanning from every stored key covers every leaf boundary.
            for (i, &(k, _)) in data.iter().enumerate() {
                let n = t.scan(k, 5, &mut out).unwrap();
                let expected: Vec<Entry> = data[i..].iter().take(5).copied().collect();
                assert_eq!(n, expected.len(), "{inner:?} scan length from key {k}");
                assert_eq!(out, expected, "{inner:?} scan contents from key {k}");
            }
        }
    }

    #[test]
    fn inserts_split_leaves_and_keep_serving() {
        let (mut h, data) = build(HybridInnerKind::Pla, 2_000);
        for i in 0..1_500u64 {
            h.insert(i * 17 + 3, i).unwrap();
        }
        assert!(h.stats().smo_count > 0, "splits must have happened");
        for i in (0..1_500u64).step_by(97) {
            let expect = data
                .iter()
                .find(|&&(k, _)| k == i * 17 + 3)
                .map(|_| i) // overwritten bulk key
                .unwrap_or(i);
            assert_eq!(h.lookup(i * 17 + 3).unwrap(), Some(expect));
        }
        let mut out = Vec::new();
        let n = h.scan(0, usize::MAX / 2, &mut out).unwrap();
        assert_eq!(n as u64, h.len());
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn lookup_batch_matches_sequential_and_amortises_descents() {
        for inner in [HybridInnerKind::Pla, HybridInnerKind::ModelTree] {
            let (h, data) = build(inner, 10_000);
            let probes: Vec<u64> = data
                .iter()
                .step_by(41)
                .map(|&(k, _)| k)
                .chain([0, u64::MAX, data[7].0, data[7].0, data[7].0 + 1])
                .rev()
                .collect();
            let mut batched = Vec::new();
            h.lookup_batch(&probes, &mut batched).unwrap();
            for (i, &p) in probes.iter().enumerate() {
                assert_eq!(batched[i], h.lookup(p).unwrap(), "{inner:?} probe {p}");
            }

            // Co-located keys share one directory descent and one leaf read.
            let run: Vec<u64> = data[..128].iter().map(|&(k, _)| k).collect();
            h.disk().stats().reset();
            h.disk().reset_access_state();
            h.lookup_batch(&run, &mut batched).unwrap();
            let batch_reads = h.disk().stats().reads();
            h.disk().stats().reset();
            h.disk().reset_access_state();
            for &k in &run {
                h.lookup(k).unwrap();
            }
            let seq_reads = h.disk().stats().reads();
            assert!(
                batch_reads * 2 < seq_reads,
                "{inner:?} batched reads ({batch_reads}) must amortise sequential ({seq_reads})"
            );
        }
    }

    #[test]
    fn queued_lookup_batch_matches_depth_one_answers_and_overlaps_io() {
        use lidx_storage::DeviceModel;
        let mut keys: Vec<u64> = (0..10_000u64).map(|i| i * 13 + (i % 29) * 7).collect();
        keys.sort_unstable();
        keys.dedup();
        let data: Vec<Entry> = keys.into_iter().map(|k| (k, k + 1)).collect();
        let mut probes: Vec<Key> = data.iter().step_by(11).map(|&(k, _)| k).collect();
        probes.extend([0, u64::MAX, data[7].0 + 1]);
        probes.reverse();
        let config =
            || DiskConfig::with_block_size(512).device(DeviceModel::ssd()).buffer_blocks(64);

        for inner in [HybridInnerKind::Pla, HybridInnerKind::ModelTree] {
            let mut sync_h = HybridIndex::new(Disk::in_memory(config()), inner).unwrap();
            sync_h.bulk_load(&data).unwrap();
            let mut expected = Vec::new();
            sync_h.disk().stats().reset();
            sync_h.lookup_batch(&probes, &mut expected).unwrap();
            let sync_ns = sync_h.disk().stats().device_ns();

            let mut queued_h =
                HybridIndex::new(Disk::in_memory(config().queue_depth(8)), inner).unwrap();
            queued_h.bulk_load(&data).unwrap();
            let mut got = Vec::new();
            queued_h.disk().stats().reset();
            queued_h.lookup_batch(&probes, &mut got).unwrap();
            let queued_ns = queued_h.disk().stats().device_ns();

            assert_eq!(got, expected, "{inner:?}: queue depth must never change the answers");
            assert!(
                queued_ns * 2 < sync_ns,
                "{inner:?}: depth-8 leaf waves ({queued_ns} ns) must overlap \
                 the depth-1 cost ({sync_ns} ns)"
            );
            assert!(queued_h.disk().stats().overlap_saved_ns() > 0);
            assert!(queued_h.disk().stats().max_inflight() > 1);
        }
    }

    #[test]
    fn insert_batch_matches_sequential_with_one_deferred_rebuild() {
        for inner in [HybridInnerKind::Pla, HybridInnerKind::ModelTree] {
            let (mut batched, data) = build(inner, 2_000);
            let (mut sequential, _) = build(inner, 2_000);
            // After the reverse, (4, 1) is the later occurrence and must win.
            let mut batch: Vec<Entry> = (0..800u64).map(|i| (i * 23 + 3, i)).collect();
            batch.extend([(data[9].0, 777), (4, 1), (4, 2)]);
            batch.reverse();

            batched.insert_batch(&batch).unwrap();
            for &(k, v) in &batch {
                sequential.insert(k, v).unwrap();
            }
            assert_eq!(batched.len(), sequential.len(), "{inner:?}");
            assert_eq!(batched.lookup(4).unwrap(), Some(1), "{inner:?} later duplicate wins");
            assert_eq!(batched.lookup(data[9].0).unwrap(), Some(777), "{inner:?}");
            let mut b_scan = Vec::new();
            let mut s_scan = Vec::new();
            batched.scan(0, usize::MAX / 2, &mut b_scan).unwrap();
            sequential.scan(0, usize::MAX / 2, &mut s_scan).unwrap();
            assert_eq!(b_scan, s_scan, "{inner:?} content must be identical");
            assert!(batched.stats().smo_count > 0, "{inner:?} dense batch must split leaves");

            // The batch retrains the directory once; the sequential loop
            // retrains per split, so its inner writes must dwarf the batch's.
            let splitting: Vec<Entry> = (0..400u64).map(|i| (500_000 + i * 2, i)).collect();
            batched.disk().stats().reset();
            batched.insert_batch(&splitting).unwrap();
            let batch_writes = batched.disk().stats().writes();
            sequential.disk().stats().reset();
            for &(k, v) in &splitting {
                sequential.insert(k, v).unwrap();
            }
            let seq_writes = sequential.disk().stats().writes();
            assert!(
                batch_writes * 2 < seq_writes,
                "{inner:?} deferred rebuild ({batch_writes} writes) must amortise \
                 per-split retraining ({seq_writes} writes)"
            );
        }
    }

    /// A rebuilt directory frees the one it replaces, so a hybrid that
    /// splits often keeps its leaves and one directory: its footprint stays
    /// within a quarter above the B+-tree's over the same keys. Before the
    /// directories freed what they replaced, every per-key split appended a
    /// whole directory for good, and on the insert cost pin's 512-byte rows
    /// the PLA hybrid held 3.9 times and the model tree 20 times the
    /// B+-tree's blocks.
    #[test]
    fn storage_after_many_splits_stays_near_the_btrees() {
        let bulk: Vec<Entry> = (0..4_000u64).map(|i| (i * 100, i)).collect();
        let inserts: Vec<Entry> = (0..3_000u64).map(|i| (i * 37 % 400_000 + 1, i)).collect();
        let footprint = |mut index: Box<dyn lidx_core::DiskIndex>| {
            index.bulk_load(&bulk).unwrap();
            for &(k, v) in &inserts {
                index.insert(k, v).unwrap();
            }
            (index.storage_blocks(), index.stats().smo_count)
        };
        let disk = || Disk::in_memory(DiskConfig::with_block_size(512));
        let (btree, _) = footprint(Box::new(lidx_btree::BTreeIndex::new(disk()).unwrap()));
        for inner in [HybridInnerKind::Pla, HybridInnerKind::ModelTree] {
            let hybrid = HybridIndex::new(disk(), inner).unwrap();
            let (blocks, splits) = footprint(Box::new(hybrid));
            assert!(splits >= 50, "{inner:?}: {splits} splits");
            assert!(4 * blocks <= 5 * btree, "{inner:?}: {blocks} blocks, the B+-tree {btree}");
        }
    }

    /// A reopen opens the saved directory and writes and frees nothing, so
    /// reopening on one disk again and again leaves the footprint and the
    /// file count where the saved index had them.
    #[test]
    fn reopens_keep_the_footprint_and_the_files() {
        for inner in [HybridInnerKind::Pla, HybridInnerKind::ModelTree] {
            let (mut h, data) = build(inner, 20_000);
            let disk = Arc::clone(h.disk());
            let saved = (h.storage_blocks(), disk.num_files());
            for reopen in 1..=3 {
                let meta = h.save_meta().unwrap();
                let before = disk.snapshot();
                h = HybridIndex::load(Arc::clone(&disk), inner, &meta).unwrap();
                let load = disk.snapshot().since(&before);
                assert_eq!(
                    (load.writes(), load.freed_blocks),
                    (0, 0),
                    "{inner:?}: reopen {reopen}"
                );
                let now = (h.storage_blocks(), disk.num_files());
                assert_eq!(now, saved, "{inner:?}: reopen {reopen}");
            }
            for &(k, v) in data.iter().step_by(997) {
                assert_eq!(h.lookup(k).unwrap(), Some(v), "{inner:?} key {k}");
            }
        }
    }

    /// Loading one meta twice on one disk writes, allocates and frees
    /// nothing, with or without reuse of freed space. A load's first leaf
    /// split rebuilds the directory and frees the loaded one.
    #[test]
    fn one_meta_loaded_twice_writes_and_frees_nothing() {
        for reuse in [false, true] {
            let config = DiskConfig::with_block_size(512).reuse_freed_space(reuse);
            let (mut h, data) =
                build_on(Disk::in_memory(config), HybridInnerKind::ModelTree, 20_000);
            let disk = Arc::clone(h.disk());
            let (meta, total, inner) = (h.save_meta().unwrap(), disk.total_blocks(), h.inner);
            drop(h);
            let mut loads = (1..=2).map(|load| {
                let before = disk.snapshot();
                let h = HybridIndex::load(Arc::clone(&disk), inner, &meta).unwrap();
                let done = disk.snapshot().since(&before);
                assert_eq!((done.writes(), done.freed_blocks), (0, 0), "reuse {reuse} load {load}");
                assert_eq!(disk.total_blocks(), total, "reuse {reuse} load {load}");
                h
            });
            drop(loads.next());
            let mut h = loads.next().unwrap();
            let loaded = h.dir_blocks.len() as u64;
            let fresh: Vec<Entry> = (0..2_000u64).map(|i| (i * 13 + 5, i)).collect();
            let before = disk.snapshot();
            h.insert_batch(&fresh).unwrap();
            assert!(h.smo_count > 0);
            assert!(disk.snapshot().since(&before).freed_blocks >= loaded, "reuse {reuse}");
            for &(k, v) in data.iter().step_by(97).chain(&fresh) {
                let want = fresh.iter().find(|e| e.0 == k).map_or(v, |e| e.1);
                assert_eq!(h.lookup(k).unwrap(), Some(want), "reuse {reuse} key {k}");
            }
        }
    }

    /// Where the first entry of `h`'s directory is stored: the block and
    /// the byte offset of its key word, which its payload word follows.
    fn first_entry(h: &HybridIndex) -> (BlockId, usize) {
        use lidx_lipp::node::{head_slots, LippNode, Slot, HEADER_BYTES, SLOT_BYTES};
        match &h.directory {
            // The data level is the first thing a PLA build allocates.
            Some(Directory::Pla(_)) => (h.dir_blocks.start, 0),
            Some(Directory::ModelTree(tree)) => {
                let mut cursor = h.disk().cursor();
                let root =
                    LippNode::load(&mut cursor, h.dir_file, tree.root, BlockKind::Inner).unwrap();
                let slot = (0..head_slots(h.disk().block_size()) as u32)
                    .find(|&s| matches!(root.read_slot(&mut cursor, s), Ok(Slot::Data(..))))
                    .expect("the root's first block holds a boundary");
                (tree.root, HEADER_BYTES + slot as usize * SLOT_BYTES + 8)
            }
            None => unreachable!("the index is loaded"),
        }
    }

    /// A meta whose directory does not fit its files, or whose directory
    /// reads back other boundaries than the leaf level has, is refused.
    #[test]
    fn a_directory_outside_its_file_is_refused() {
        for inner in [HybridInnerKind::Pla, HybridInnerKind::ModelTree] {
            let (mut h, _) = build(inner, 2_000);
            let meta = h.save_meta().unwrap();
            let disk = Arc::clone(h.disk());
            let dir_len = disk.num_blocks(h.dir_file).unwrap();
            let leaves = h.leaf_count();
            let load =
                |bytes: &[u8]| HybridIndex::load(Arc::clone(&disk), inner, bytes).map(|_| ());
            // The meta starts with the leaf file, the directory file and the
            // directory's first and past-the-end blocks (u32s), then the leaf
            // count (u64 at 16), the loaded flag, the key and SMO counts, and
            // from byte 44 the directory's own meta: the PLA component's
            // file first, or the model tree's root (u32) and node count.
            let mut cases = vec![
                ("the leaf file as directory", 4, h.leaf_file.to_le_bytes().to_vec()),
                ("a range past its file", 12, (dir_len + 1).to_le_bytes().to_vec()),
                ("a backwards range", 8, (h.dir_blocks.end + 1).to_le_bytes().to_vec()),
                ("one leaf more than entries", 16, (leaves + 1).to_le_bytes().to_vec()),
                ("one leaf fewer than entries", 16, (leaves - 1).to_le_bytes().to_vec()),
            ];
            match inner {
                HybridInnerKind::Pla => {
                    cases.push((
                        "a component in the leaf file",
                        44,
                        h.leaf_file.to_le_bytes().to_vec(),
                    ));
                }
                HybridInnerKind::ModelTree => cases.extend([
                    ("a root past its file", 44, dir_len.to_le_bytes().to_vec()),
                    ("more nodes than blocks", 48, (u64::from(dir_len) + 1).to_le_bytes().to_vec()),
                ]),
            }
            for (what, at, value) in cases {
                let mut bytes = meta.clone();
                bytes[at..at + value.len()].copy_from_slice(&value);
                let loaded = load(&bytes);
                assert!(
                    matches!(loaded, Err(IndexError::Internal(_))),
                    "{inner:?}, {what}: {loaded:?}"
                );
            }
            assert!(load(&meta).is_ok(), "{inner:?}: the intact meta loads");

            // The directory's first entry forged in its block: a key above
            // every other (out of order), or a leaf past the leaf file.
            let (block, off) = first_entry(&h);
            let intact = disk.cursor().read(h.dir_file, block, BlockKind::Inner).unwrap().to_vec();
            let leaf_blocks = u64::from(disk.num_blocks(h.leaf_file).unwrap());
            for (what, at, value) in [
                ("a key out of order", off, Key::MAX),
                ("a leaf past its file", off + 8, leaf_blocks),
            ] {
                let mut forged = intact.clone();
                forged[at..at + 8].copy_from_slice(&value.to_le_bytes());
                disk.write(h.dir_file, block, BlockKind::Inner, &forged).unwrap();
                let loaded = load(&meta);
                assert!(
                    matches!(loaded, Err(IndexError::Internal(_))),
                    "{inner:?}, {what}: {loaded:?}"
                );
            }
            disk.write(h.dir_file, block, BlockKind::Inner, &intact).unwrap();
            assert!(load(&meta).is_ok(), "{inner:?}: the restored directory loads");
        }
    }

    /// A lookup's directory reads are `Inner` blocks, and it reads one leaf.
    #[test]
    fn a_lookup_reads_the_directory_as_inner_and_one_leaf() {
        for inner in [HybridInnerKind::Pla, HybridInnerKind::ModelTree] {
            let (h, data) = build(inner, 2_000);
            for &(k, v) in data.iter().step_by(97) {
                h.disk().stats().reset();
                assert_eq!(
                    h.lookup(k + 1).unwrap(),
                    data.iter().find(|e| e.0 == k + 1).map(|e| e.1)
                );
                assert!(h.disk().stats().reads_of(BlockKind::Inner) > 0, "{inner:?} key {k}");
                assert_eq!(h.disk().stats().reads_of(BlockKind::Leaf), 1, "{inner:?} key {k}");
                assert_eq!(h.lookup(k).unwrap(), Some(v));
            }
        }
    }

    #[test]
    fn error_paths() {
        for inner in [HybridInnerKind::Pla, HybridInnerKind::ModelTree] {
            let disk = Disk::in_memory(DiskConfig::with_block_size(512));
            let mut h = HybridIndex::new(disk, inner).unwrap();
            assert!(matches!(h.lookup(1), Err(IndexError::NotInitialized)), "{inner:?}");
            let mut out = Vec::new();
            assert!(matches!(h.scan(1, 5, &mut out), Err(IndexError::NotInitialized)));
            h.bulk_load(&[(1, 2), (5, 6)]).unwrap();
            assert!(matches!(h.bulk_load(&[(1, 2)]), Err(IndexError::AlreadyLoaded)));
            assert_eq!(h.lookup(5).unwrap(), Some(6), "{inner:?}");
            assert_eq!(h.lookup(3).unwrap(), None, "{inner:?}");
            assert_eq!(h.lookup(0).unwrap(), None, "{inner:?}: below every boundary");
        }
    }
}
