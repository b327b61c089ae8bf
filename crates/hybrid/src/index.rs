//! The hybrid index: learned inner directory over a B+-tree leaf level.

use std::ops::Range;
use std::sync::Arc;

use lidx_btree::{Boundary, LeafLevel, LeafView};
use lidx_core::{
    index::validate_bulk_load, Entry, IndexError, IndexKind, IndexRead, IndexResult, IndexStats,
    IndexWrite, InsertBreakdown, InsertStep, Key, MetaReader, MetaWriter, StepLaps, Value,
};
use lidx_storage::{BlockId, BlockKind, Disk, FileId, OpClass};

use crate::inner::{InnerDirectory, ModelTreeInner, PlaInner};

/// Fraction of a leaf filled at bulk load, the B+-tree's default.
const LEAF_FILL: f64 = 0.8;

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

/// Configuration of a hybrid index.
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// The inner directory flavour.
    pub inner: HybridInnerKind,
    /// Error bound of the PLA directory (ignored by the model tree).
    pub epsilon: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig { inner: HybridInnerKind::Pla, epsilon: 64 }
    }
}

/// A hybrid index (§6.1.2): learned inner structure, B+-tree-styled leaves.
pub struct HybridIndex {
    disk: Arc<Disk>,
    config: HybridConfig,
    /// The leaf level's own file.
    leaf_file: u32,
    leaves: LeafLevel,
    /// The learned directory's own file, and the blocks of it that the
    /// current directory was appended into.
    dir_file: FileId,
    dir_blocks: Range<BlockId>,
    inner: Box<dyn InnerDirectory + Send + Sync>,
    /// In-memory copy of the `(boundary, leaf block)` pairs, used only to
    /// rebuild the inner directory after leaf splits (meta-style state; all
    /// routing I/O still goes through the on-disk directory).
    boundaries: Vec<Boundary>,
    key_count: u64,
    smo_count: u64,
    loaded: bool,
    breakdown: InsertBreakdown,
}

impl HybridIndex {
    /// Creates an empty hybrid index.
    pub fn new(disk: Arc<Disk>, config: HybridConfig) -> IndexResult<Self> {
        let leaf_file = disk.create_file()?;
        let dir_file = disk.create_file()?;
        Ok(HybridIndex {
            leaves: LeafLevel::new(disk.block_size()),
            inner: directory(&disk, config, dir_file),
            disk,
            config,
            leaf_file,
            dir_file,
            dir_blocks: 0..0,
            boundaries: Vec::new(),
            key_count: 0,
            smo_count: 0,
            loaded: false,
            breakdown: InsertBreakdown::new(),
        })
    }

    /// Reopens a hybrid index from [`IndexWrite::save_meta`] bytes against a
    /// disk that already holds its blocks. `config` must match the one the
    /// index was created with (including the inner flavour). The learned
    /// inner directory is rebuilt from the persisted boundary table — the
    /// same refresh path leaf splits take — into the directory's own file,
    /// after the saved directory's blocks are freed.
    ///
    /// A boundary table no index writes is [`IndexError::Internal`]: keys
    /// that do not strictly increase, or a leaf block past the leaf file.
    /// Both directory builds and every leaf read trust those bounds. So is
    /// a directory file that is the leaf file, or a directory range past
    /// the end of its file.
    pub fn load(disk: Arc<Disk>, config: HybridConfig, meta: &[u8]) -> IndexResult<Self> {
        let mut r = MetaReader::new(meta);
        let leaf_file = r.u32()?;
        let dir_file = r.u32()?;
        let dir_blocks = r.u32()?..r.u32()?;
        let leaf_count = r.u64()?;
        let loaded = r.u32()? != 0;
        let key_count = r.u64()?;
        let smo_count = r.u64()?;
        let boundary_count = r.u32()? as usize;
        let mut boundaries = Vec::with_capacity(boundary_count.min(1 << 20));
        for _ in 0..boundary_count {
            boundaries.push((r.u64()?, r.u32()?));
        }
        let leaf_blocks = disk.num_blocks(leaf_file)?;
        let increasing = boundaries.windows(2).all(|w| w[0].0 < w[1].0);
        if !increasing || boundaries.iter().any(|&(_, block)| block >= leaf_blocks) {
            return Err(IndexError::Internal(format!(
                "hybrid boundary table is out of order or overruns its {leaf_blocks} leaf blocks"
            )));
        }
        let dir_len = disk.num_blocks(dir_file)?;
        if dir_file == leaf_file || dir_blocks.start > dir_blocks.end || dir_blocks.end > dir_len {
            return Err(IndexError::Internal(format!(
                "hybrid directory {dir_blocks:?} of file {dir_file} (leaf file {leaf_file}, \
                 {dir_len} blocks)"
            )));
        }
        // The saved directory is freed before the rebuild, so a build that
        // reuses freed space may land in it, and the rebuild frees nothing
        // the saved range holds. The pager counts a repeated free once, so
        // a second load of one meta on one disk frees nothing more.
        disk.free(dir_file, dir_blocks.start, dir_blocks.len() as u32);
        let mut index = HybridIndex {
            leaves: LeafLevel::from_parts(disk.block_size(), leaf_count),
            inner: directory(&disk, config, dir_file),
            disk,
            config,
            leaf_file,
            dir_file,
            dir_blocks: 0..0,
            boundaries,
            key_count,
            smo_count,
            loaded,
            breakdown: InsertBreakdown::new(),
        };
        if !index.boundaries.is_empty() {
            index.rebuild_directory()?;
        }
        Ok(index)
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
        let start = self.disk.num_blocks(self.dir_file)?;
        self.inner.rebuild(&self.boundaries)?;
        let end = self.disk.num_blocks(self.dir_file)?;
        let superseded = std::mem::replace(&mut self.dir_blocks, start..end);
        self.disk.free(self.dir_file, superseded.start, superseded.len() as u32);
        Ok(())
    }

    /// Number of leaf blocks.
    pub fn leaf_count(&self) -> u64 {
        self.leaves.leaf_count()
    }
}

/// An empty directory of `config`'s flavour that builds into `file`.
fn directory(
    disk: &Arc<Disk>,
    config: HybridConfig,
    file: FileId,
) -> Box<dyn InnerDirectory + Send + Sync> {
    match config.inner {
        HybridInnerKind::Pla => Box::new(PlaInner::new(Arc::clone(disk), file, config.epsilon)),
        HybridInnerKind::ModelTree => Box::new(ModelTreeInner::new(Arc::clone(disk), file)),
    }
}

impl IndexRead for HybridIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Hybrid
    }

    fn name(&self) -> String {
        format!("hybrid-{}", self.config.inner.name())
    }

    fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        let mut cursor = self.disk.cursor();
        let leaf = self.inner.find_leaf(&mut cursor, key)?;
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
        if !self.loaded {
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
                groups.push((self.inner.find_leaf(&mut cursor, key)?, at));
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
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        if count == 0 {
            return Ok(0);
        }
        // One scan cursor carries the directory descent (point-class inner
        // nodes) and the leaf chain (scan-class).
        let mut cursor = self.disk.scan_cursor();
        let leaf = self.inner.find_leaf(&mut cursor, start)?;
        self.leaves.scan_from(&mut cursor, self.leaf_file, leaf, start, count, out)
    }

    fn len(&self) -> u64 {
        self.key_count
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            keys: self.key_count,
            height: self.inner.height() + 1,
            inner_nodes: self.inner.node_count(),
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
        if self.loaded {
            return Err(IndexError::AlreadyLoaded);
        }
        validate_bulk_load(entries)?;
        self.boundaries = self.leaves.bulk_build(&self.disk, self.leaf_file, entries, LEAF_FILL)?;
        self.rebuild_directory()?;
        self.key_count = entries.len() as u64;
        self.loaded = true;
        Ok(())
    }

    /// The one write path (`insert` is a batch of one): each sorted *run* of
    /// co-located entries is appended to its dense leaf with one
    /// read-modify-write, and — the big win — the learned-directory retrain
    /// is deferred to a single [`InnerDirectory::rebuild`] at the end of the
    /// batch instead of one per split (the P2 cost one-entry batches pay per
    /// split). While splits are pending, routing switches to
    /// the in-memory boundary table, which is exactly the state the deferred
    /// rebuild will be trained on.
    ///
    /// [`InnerDirectory::rebuild`]: crate::inner::InnerDirectory::rebuild
    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if !self.loaded {
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
                    self.inner.find_leaf(&mut cursor, key)?
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
        // Leaf blocks are written eagerly; the inner directory is derivable
        // from the boundary table (it is rebuilt on load), so the meta is
        // the leaf-level parts, the directory's file and blocks (which a
        // load frees) and the boundaries.
        let mut w = MetaWriter::new();
        w.u32(self.leaf_file)
            .u32(self.dir_file)
            .u32(self.dir_blocks.start)
            .u32(self.dir_blocks.end)
            .u64(self.leaves.leaf_count())
            .u32(self.loaded as u32)
            .u64(self.key_count)
            .u64(self.smo_count)
            .u32(self.boundaries.len() as u32);
        for &(key, block) in &self.boundaries {
            w.u64(key).u32(block);
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
        let mut h = HybridIndex::new(disk, HybridConfig { inner, epsilon: 16 }).unwrap();
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
            let hybrid_config = HybridConfig { inner, epsilon: 16 };
            let mut sync_h = HybridIndex::new(Disk::in_memory(config()), hybrid_config).unwrap();
            sync_h.bulk_load(&data).unwrap();
            let mut expected = Vec::new();
            sync_h.disk().stats().reset();
            sync_h.lookup_batch(&probes, &mut expected).unwrap();
            let sync_ns = sync_h.disk().stats().device_ns();

            let mut queued_h =
                HybridIndex::new(Disk::in_memory(config().queue_depth(8)), hybrid_config).unwrap();
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
            let config = HybridConfig { inner, ..Default::default() };
            let hybrid = HybridIndex::new(disk(), config).unwrap();
            let (blocks, splits) = footprint(Box::new(hybrid));
            assert!(splits >= 50, "{inner:?}: {splits} splits");
            assert!(4 * blocks <= 5 * btree, "{inner:?}: {blocks} blocks, the B+-tree {btree}");
        }
    }

    /// A reopen rebuilds the directory into the directory's own file and
    /// frees the saved one, so reopening on one disk again and again leaves
    /// the footprint and the file count where the saved index had them.
    /// Before, each reopen built into a new file and leaked the saved
    /// directory: 27 (PLA) or 80 (model tree) blocks per reopen here.
    #[test]
    fn reopens_keep_the_footprint_and_the_files() {
        for inner in [HybridInnerKind::Pla, HybridInnerKind::ModelTree] {
            let (mut h, data) = build(inner, 20_000);
            let disk = Arc::clone(h.disk());
            let saved = (h.storage_blocks(), disk.num_files());
            for reopen in 1..=3 {
                let meta = h.save_meta().unwrap();
                h = HybridIndex::load(Arc::clone(&disk), h.config, &meta).unwrap();
                let now = (h.storage_blocks(), disk.num_files());
                assert_eq!(now, saved, "{inner:?}: reopen {reopen}");
            }
            for &(k, v) in data.iter().step_by(997) {
                assert_eq!(h.lookup(k).unwrap(), Some(v), "{inner:?} key {k}");
            }
        }
    }

    /// Loading one meta twice on one disk frees the saved directory once.
    /// Without reuse each load appends its own directory and the freed
    /// count stays the saved range's; with reuse each load builds into the
    /// freed range, the disk does not grow, and no live block is freed.
    #[test]
    fn one_meta_loaded_twice_frees_its_directory_once() {
        for reuse in [false, true] {
            let config = DiskConfig::with_block_size(512).reuse_freed_space(reuse);
            let (mut h, data) =
                build_on(Disk::in_memory(config), HybridInnerKind::ModelTree, 20_000);
            let (disk, dir_file, saved) = (Arc::clone(h.disk()), h.dir_file, h.dir_blocks.len());
            let (meta, total, config) = (h.save_meta().unwrap(), disk.total_blocks(), h.config);
            drop(h);
            let mut loads = (1..=2).map(|load| {
                let h = HybridIndex::load(Arc::clone(&disk), config, &meta).unwrap();
                if reuse {
                    assert_eq!(disk.total_blocks(), total, "load {load}");
                } else {
                    assert_eq!(disk.freed_blocks(dir_file), saved as u64, "load {load}");
                }
                h
            });
            drop(loads.next());
            let mut h = loads.next().unwrap();
            // Leaf splits rebuild the directory and free the loaded one.
            let fresh: Vec<Entry> = (0..2_000u64).map(|i| (i * 13 + 5, i)).collect();
            h.insert_batch(&fresh).unwrap();
            assert!(h.smo_count > 0);
            for &(k, v) in data.iter().step_by(97).chain(&fresh) {
                let want = fresh.iter().find(|e| e.0 == k).map_or(v, |e| e.1);
                assert_eq!(h.lookup(k).unwrap(), Some(want), "reuse {reuse} key {k}");
            }
        }
    }

    /// A meta whose directory file is the leaf file, or whose directory
    /// range runs past its file or backwards, is refused.
    #[test]
    fn a_directory_outside_its_file_is_refused() {
        let (mut h, _) = build(HybridInnerKind::ModelTree, 2_000);
        let meta = h.save_meta().unwrap();
        let dir_len = h.disk().num_blocks(h.dir_file).unwrap();
        // The meta starts with the leaf file, the directory file and the
        // directory's first and past-the-end blocks.
        let forged = |at: usize, value: u32| {
            let mut bytes = meta.clone();
            bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
            HybridIndex::load(Arc::clone(h.disk()), h.config, &bytes)
        };
        for (at, value) in [(4, h.leaf_file), (12, dir_len + 1), (8, h.dir_blocks.end + 1)] {
            let loaded = forged(at, value).map(|_| ());
            assert!(matches!(loaded, Err(IndexError::Internal(_))), "{at}: {loaded:?}");
        }
        assert!(forged(4, h.dir_file).is_ok(), "the intact meta loads");
    }

    #[test]
    fn error_paths() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut h = HybridIndex::new(disk, HybridConfig::default()).unwrap();
        assert!(matches!(h.lookup(1), Err(IndexError::NotInitialized)));
        h.bulk_load(&[(1, 2), (5, 6)]).unwrap();
        assert!(matches!(h.bulk_load(&[(1, 2)]), Err(IndexError::AlreadyLoaded)));
        assert_eq!(h.lookup(5).unwrap(), Some(6));
        assert_eq!(h.lookup(3).unwrap(), None);
    }
}
