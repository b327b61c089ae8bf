//! Learned inner structures over leaf boundary keys.
//!
//! Both structures map a search key to the leaf block whose boundary (first
//! key) is the greatest one not exceeding the search key — a *floor* lookup.
//! All their I/O is charged to [`BlockKind::Inner`].

use std::sync::Arc;

use lidx_core::{IndexError, IndexResult, Key};
use lidx_models::fmcd::fit_fmcd;
use lidx_models::pla::segment_keys;
use lidx_models::LinearModel;
use lidx_storage::{BlockCursor, BlockId, BlockKind, Disk, SlotTable};

/// One `(boundary key, leaf block)` pair.
pub type Boundary = (Key, BlockId);

/// A block pointer read from a directory block: stored as a `u64`, it must
/// fit a [`BlockId`], or the block is corrupt.
fn block_id(stored: u64) -> IndexResult<BlockId> {
    BlockId::try_from(stored).map_err(|_| {
        IndexError::Internal(format!("directory block pointer {stored} is not a block id"))
    })
}

/// A floor-lookup directory over leaf boundaries.
pub trait InnerDirectory {
    /// Rebuilds the directory from scratch over `boundaries` (sorted by key).
    fn rebuild(&mut self, boundaries: &[Boundary]) -> IndexResult<()>;

    /// Returns the leaf block covering `key`: the entry with the greatest
    /// boundary `<= key`, or the first leaf when `key` precedes every
    /// boundary. Every directory block is read through the operation's
    /// `cursor`, so a batch that routes several keys re-reads nothing.
    fn find_leaf(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<BlockId>;

    /// Number of on-disk nodes (blocks for the PLA directory).
    fn node_count(&self) -> u64;

    /// Height of the directory including the in-memory root.
    fn height(&self) -> u32;
}

// ---------------------------------------------------------------------------
// PLA directory (FITing-tree / PGM style)
// ---------------------------------------------------------------------------

const PLA_ENTRY: usize = 16; // boundary u64 + leaf block u64
const PLA_RECORD: usize = 28; // first_key u64 + slope f64 + start u64 + len u32

#[derive(Debug, Clone, Copy)]
struct PlaLevel {
    first_block: u32,
    records: u64,
}

#[derive(Debug, Clone, Copy)]
struct PlaRecord {
    first_key: Key,
    slope: f64,
    start: u64,
    len: u32,
}

impl PlaRecord {
    fn decode(r: &[u8; PLA_RECORD]) -> Self {
        PlaRecord {
            first_key: Key::from_le_bytes(r[0..8].try_into().unwrap()),
            slope: f64::from_le_bytes(r[8..16].try_into().unwrap()),
            start: u64::from_le_bytes(r[16..24].try_into().unwrap()),
            len: u32::from_le_bytes(r[24..28].try_into().unwrap()),
        }
    }

    fn predict(&self, key: Key) -> u64 {
        if self.len == 0 {
            return self.start;
        }
        let m = LinearModel { slope: self.slope, intercept: -self.slope * self.first_key as f64 };
        self.start + m.predict_clamped(key, self.len as usize) as u64
    }
}

/// A recursive ε-bounded piecewise-linear directory over the boundaries, the
/// inner structure a FITing-tree or PGM would use (Table 5, "FITing-Tree" /
/// "PGM" columns).
pub struct PlaInner {
    disk: Arc<Disk>,
    file: u32,
    epsilon: usize,
    boundaries: u64,
    base_blocks: u32,
    base_first_block: u32,
    levels: Vec<PlaLevel>,
    root: Option<PlaRecord>,
    first_leaf: BlockId,
    total_blocks: u64,
}

impl PlaInner {
    /// Creates an empty PLA directory with error bound `epsilon`.
    pub fn new(disk: Arc<Disk>, epsilon: usize) -> IndexResult<Self> {
        let file = disk.create_file()?;
        Ok(PlaInner {
            disk,
            file,
            epsilon: epsilon.max(1),
            boundaries: 0,
            base_blocks: 0,
            base_first_block: 0,
            levels: Vec::new(),
            root: None,
            first_leaf: 0,
            total_blocks: 0,
        })
    }

    fn entries_per_block(&self) -> usize {
        self.disk.block_size() / PLA_ENTRY
    }

    fn records_per_block(&self) -> usize {
        self.disk.block_size() / PLA_RECORD
    }

    /// Floor search inside the window `lo..=hi` of an on-disk array of
    /// `STRIDE`-byte records sorted by their leading key, packed `per_block`
    /// to a block from `first_block`: the last record of the window whose
    /// key is `<= key`, decoded by `decode`, or `None` if the window starts
    /// above `key`.
    ///
    /// Each block of the window is pinned once and binary-searched in place.
    /// The blocks are visited left to right and the search stops in the
    /// block holding the first key above `key` — the blocks, and the order,
    /// a slot-by-slot walk of the window would read.
    fn floor_in_window<const STRIDE: usize, T>(
        &self,
        cursor: &mut BlockCursor<'_>,
        first_block: u32,
        per_block: usize,
        (lo, hi): (u64, u64),
        key: Key,
        decode: impl Fn(&[u8; STRIDE]) -> T,
    ) -> IndexResult<Option<T>> {
        let per = per_block as u64;
        let mut best = None;
        let mut idx = lo;
        while idx <= hi {
            let block = idx / per;
            let frame = cursor.read(self.file, first_block + block as u32, BlockKind::Inner)?;
            let from = (idx % per) as usize;
            let until = (hi - block * per).min(per - 1) as usize;
            let slots = SlotTable::<STRIDE>::new(frame, from * STRIDE, until + 1 - from)?;
            let below = slots.partition_point(|k| k <= key);
            if let Some(i) = below.checked_sub(1) {
                best = Some(decode(slots.slot(i)));
            }
            if below < slots.len() {
                break;
            }
            idx = (block + 1) * per;
        }
        Ok(best)
    }

    /// The ε-window around a predicted position in an array of `len` records.
    fn window(&self, predicted: u64, len: u64) -> (u64, u64) {
        let eps = self.epsilon as u64;
        (predicted.saturating_sub(eps + 1), (predicted + eps).min(len - 1))
    }

    /// Searches one on-disk record level for the record covering `key`.
    fn search_level(
        &self,
        cursor: &mut BlockCursor<'_>,
        level: &PlaLevel,
        key: Key,
        predicted: u64,
    ) -> IndexResult<PlaRecord> {
        let mut floor_in = |window, key| {
            self.floor_in_window(
                cursor,
                level.first_block,
                self.records_per_block(),
                window,
                key,
                PlaRecord::decode,
            )
        };
        if let Some(rec) = floor_in(self.window(predicted, level.records), key)? {
            return Ok(rec);
        }
        // `key` precedes the whole window: the level's first record, which
        // is the floor of every key in the one-record window at 0.
        floor_in((0, 0), Key::MAX)?
            .ok_or_else(|| IndexError::Internal("empty PLA directory level".into()))
    }
}

impl InnerDirectory for PlaInner {
    fn rebuild(&mut self, boundaries: &[Boundary]) -> IndexResult<()> {
        let bs = self.disk.block_size();
        let per_entry_block = self.entries_per_block();
        self.boundaries = boundaries.len() as u64;
        self.first_leaf = boundaries.first().map_or(0, |b| b.1);

        // Base level: the boundary array itself.
        let base_blocks = boundaries.len().div_ceil(per_entry_block).max(1) as u32;
        let base_start = self.disk.allocate(self.file, base_blocks)?;
        let mut buf = vec![0u8; bs];
        for b in 0..base_blocks {
            buf.fill(0);
            for slot in 0..per_entry_block {
                if let Some(&(k, blk)) = boundaries.get(b as usize * per_entry_block + slot) {
                    let off = slot * PLA_ENTRY;
                    buf[off..off + 8].copy_from_slice(&k.to_le_bytes());
                    buf[off + 8..off + 16].copy_from_slice(&u64::from(blk).to_le_bytes());
                }
            }
            self.disk.write(self.file, base_start + b, BlockKind::Inner, &buf)?;
        }
        self.base_blocks = base_blocks;
        self.base_first_block = base_start;

        // Upper levels: ε-bounded segments over the boundary keys.
        self.levels.clear();
        let mut keys: Vec<Key> = boundaries.iter().map(|b| b.0).collect();
        if keys.is_empty() {
            keys.push(0);
        }
        let mut records: Vec<PlaRecord> = segment_keys(&keys, self.epsilon)
            .iter()
            .map(|s| PlaRecord {
                first_key: s.first_key,
                slope: s.model.slope,
                start: s.start_index as u64,
                len: s.len as u32,
            })
            .collect();
        let per_rec_block = self.records_per_block();
        while records.len() > 1 {
            let blocks = records.len().div_ceil(per_rec_block) as u32;
            let first = self.disk.allocate(self.file, blocks)?;
            for b in 0..blocks {
                buf.fill(0);
                for slot in 0..per_rec_block {
                    if let Some(r) = records.get(b as usize * per_rec_block + slot) {
                        let off = slot * PLA_RECORD;
                        buf[off..off + 8].copy_from_slice(&r.first_key.to_le_bytes());
                        buf[off + 8..off + 16].copy_from_slice(&r.slope.to_le_bytes());
                        buf[off + 16..off + 24].copy_from_slice(&r.start.to_le_bytes());
                        buf[off + 24..off + 28].copy_from_slice(&r.len.to_le_bytes());
                    }
                }
                self.disk.write(self.file, first + b, BlockKind::Inner, &buf)?;
            }
            self.levels.push(PlaLevel { first_block: first, records: records.len() as u64 });
            let level_keys: Vec<Key> = records.iter().map(|r| r.first_key).collect();
            records = segment_keys(&level_keys, self.epsilon)
                .iter()
                .map(|s| PlaRecord {
                    first_key: s.first_key,
                    slope: s.model.slope,
                    start: s.start_index as u64,
                    len: s.len as u32,
                })
                .collect();
        }
        self.root = records.pop();
        self.total_blocks = u64::from(base_blocks)
            + self.levels.iter().map(|l| l.records.div_ceil(per_rec_block as u64)).sum::<u64>();
        Ok(())
    }

    fn find_leaf(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<BlockId> {
        if self.boundaries == 0 {
            return Err(IndexError::NotInitialized);
        }
        let mut rec = self.root.ok_or(IndexError::NotInitialized)?;
        for level in self.levels.iter().rev() {
            let predicted = rec.predict(key).min(level.records - 1);
            rec = self.search_level(cursor, level, key, predicted)?;
        }
        // Search the base level inside the ε window.
        let predicted = rec.predict(key).min(self.boundaries - 1);
        let leaf = self.floor_in_window(
            cursor,
            self.base_first_block,
            self.entries_per_block(),
            self.window(predicted, self.boundaries),
            key,
            |e: &[u8; PLA_ENTRY]| u64::from_le_bytes(e[8..16].try_into().unwrap()),
        )?;
        leaf.map_or(Ok(self.first_leaf), block_id)
    }

    fn node_count(&self) -> u64 {
        self.total_blocks
    }

    fn height(&self) -> u32 {
        // base level + record levels + in-memory root
        2 + self.levels.len() as u32
    }
}

// ---------------------------------------------------------------------------
// FMCD model tree (ALEX / LIPP style)
// ---------------------------------------------------------------------------

const MT_SLOT: usize = 24;
const MT_NULL: u64 = 0;
const MT_DATA: u64 = 1;
const MT_CHILD: u64 = 2;

/// An FMCD-fitted model tree over the boundaries, in the spirit of the inner
/// nodes of ALEX and LIPP (Table 5, "ALEX" / "LIPP" columns).
pub struct ModelTreeInner {
    disk: Arc<Disk>,
    file: u32,
    gap_factor: u32,
    root: BlockId,
    nodes: u64,
    height: u32,
    first_leaf: BlockId,
    built: bool,
}

struct MtHeader {
    capacity: u32,
    model: LinearModel,
}

impl ModelTreeInner {
    /// Creates an empty model-tree directory; `gap_factor` is the slot
    /// over-allocation factor (LIPP-style).
    pub fn new(disk: Arc<Disk>, gap_factor: u32) -> IndexResult<Self> {
        let file = disk.create_file()?;
        Ok(ModelTreeInner {
            disk,
            file,
            gap_factor: gap_factor.max(1),
            root: 0,
            nodes: 0,
            height: 0,
            first_leaf: 0,
            built: false,
        })
    }

    fn slots_per_block(&self) -> usize {
        self.disk.block_size() / MT_SLOT
    }

    fn blocks_for(&self, capacity: u32) -> u32 {
        1 + (capacity as usize).div_ceil(self.slots_per_block()).max(1) as u32
    }

    fn read_header(&self, cursor: &mut BlockCursor<'_>, start: BlockId) -> IndexResult<MtHeader> {
        let buf = cursor.read(self.file, start, BlockKind::Inner)?;
        Ok(MtHeader {
            capacity: u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            model: LinearModel::new(
                f64::from_le_bytes(buf[8..16].try_into().unwrap()),
                f64::from_le_bytes(buf[16..24].try_into().unwrap()),
            ),
        })
    }

    fn read_slot(
        &self,
        cursor: &mut BlockCursor<'_>,
        start: BlockId,
        slot: u32,
    ) -> IndexResult<(u64, Key, u64)> {
        let per = self.slots_per_block() as u32;
        let block = start + 1 + slot / per;
        let off = ((slot % per) as usize) * MT_SLOT;
        let buf = cursor.read(self.file, block, BlockKind::Inner)?;
        Ok((
            u64::from_le_bytes(buf[off..off + 8].try_into().unwrap()),
            Key::from_le_bytes(buf[off + 8..off + 16].try_into().unwrap()),
            u64::from_le_bytes(buf[off + 16..off + 24].try_into().unwrap()),
        ))
    }

    fn build_node(&mut self, boundaries: &[Boundary], depth: u32) -> IndexResult<BlockId> {
        self.height = self.height.max(depth + 1);
        let capacity = (boundaries.len() as u32 * self.gap_factor).clamp(8, 1 << 20);
        let keys: Vec<Key> = boundaries.iter().map(|b| b.0).collect();
        let model = fit_fmcd(&keys, capacity as usize).model;

        // Group boundaries by slot.
        let mut slots: Vec<(u64, Key, u64)> = vec![(MT_NULL, 0, 0); capacity as usize];
        let mut i = 0usize;
        while i < boundaries.len() {
            let slot = model.predict_clamped(boundaries[i].0, capacity as usize);
            let mut j = i + 1;
            while j < boundaries.len()
                && model.predict_clamped(boundaries[j].0, capacity as usize) == slot
            {
                j += 1;
            }
            if j - i == 1 {
                slots[slot] = (MT_DATA, boundaries[i].0, u64::from(boundaries[i].1));
            } else {
                let child = self.build_node(&boundaries[i..j], depth + 1)?;
                slots[slot] = (MT_CHILD, boundaries[i].0, u64::from(child));
            }
            i = j;
        }

        // Serialise.
        let bs = self.disk.block_size();
        let start = self.disk.allocate(self.file, self.blocks_for(capacity))?;
        let mut buf = vec![0u8; bs];
        buf[0..4].copy_from_slice(&capacity.to_le_bytes());
        buf[8..16].copy_from_slice(&model.slope.to_le_bytes());
        buf[16..24].copy_from_slice(&model.intercept.to_le_bytes());
        self.disk.write(self.file, start, BlockKind::Inner, &buf)?;
        let per = self.slots_per_block();
        let slot_blocks = (capacity as usize).div_ceil(per).max(1) as u32;
        for b in 0..slot_blocks {
            buf.fill(0);
            for s in 0..per {
                if let Some(&(t, k, v)) = slots.get(b as usize * per + s) {
                    let off = s * MT_SLOT;
                    buf[off..off + 8].copy_from_slice(&t.to_le_bytes());
                    buf[off + 8..off + 16].copy_from_slice(&k.to_le_bytes());
                    buf[off + 16..off + 24].copy_from_slice(&v.to_le_bytes());
                }
            }
            self.disk.write(self.file, start + 1 + b, BlockKind::Inner, &buf)?;
        }
        self.nodes += 1;
        Ok(start)
    }

    /// Floor search within the node at `start`: the greatest boundary
    /// `<= key` in this subtree, if any. One cursor carries the whole
    /// search down the recursion, so the slots walked in one block cost one
    /// disk read. `budget` is how many more nodes the search may visit: a
    /// floor search of a tree visits each node at most once, so a budget of
    /// the node count only runs out when a child pointer leads back into
    /// the search — an error, not a stack overflow.
    fn find_in(
        &self,
        cursor: &mut BlockCursor<'_>,
        start: BlockId,
        key: Key,
        budget: &mut u64,
    ) -> IndexResult<Option<BlockId>> {
        *budget = budget.checked_sub(1).ok_or_else(|| {
            IndexError::Internal(format!(
                "model-tree search visited more than its {} nodes: a child pointer is cyclic",
                self.nodes
            ))
        })?;
        let header = self.read_header(cursor, start)?;
        let predicted = header.model.predict_clamped(key, header.capacity as usize) as u32;
        // Scan from the predicted slot leftwards until a usable entry is
        // found (the "walk to the next occupied slot" cost the paper notes
        // for LIPP-style nodes without separate data/inner types).
        let mut slot = predicted as i64;
        while slot >= 0 {
            let (tag, boundary, value) = self.read_slot(cursor, start, slot as u32)?;
            match tag {
                MT_NULL => {}
                MT_DATA => {
                    if boundary <= key {
                        return block_id(value).map(Some);
                    }
                }
                MT_CHILD => {
                    if boundary <= key {
                        if let Some(found) = self.find_in(cursor, block_id(value)?, key, budget)? {
                            return Ok(Some(found));
                        }
                        // Every boundary in the child exceeded `key` (only
                        // possible at the predicted slot); keep looking left.
                    }
                }
                other => {
                    return Err(IndexError::Internal(format!("bad model-tree slot tag {other}")))
                }
            }
            slot -= 1;
        }
        Ok(None)
    }
}

impl InnerDirectory for ModelTreeInner {
    fn rebuild(&mut self, boundaries: &[Boundary]) -> IndexResult<()> {
        self.nodes = 0;
        self.height = 0;
        self.first_leaf = boundaries.first().map_or(0, |b| b.1);
        let bounds = if boundaries.is_empty() { &[(0, 0)][..] } else { boundaries };
        self.root = self.build_node(bounds, 0)?;
        self.built = true;
        Ok(())
    }

    fn find_leaf(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<BlockId> {
        if !self.built {
            return Err(IndexError::NotInitialized);
        }
        let mut budget = self.nodes;
        let found = self.find_in(cursor, self.root, key, &mut budget)?;
        Ok(found.unwrap_or(self.first_leaf))
    }

    fn node_count(&self) -> u64 {
        self.nodes
    }

    fn height(&self) -> u32 {
        self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_storage::DiskConfig;

    fn boundaries(n: u64, stride: u64) -> Vec<Boundary> {
        (0..n).map(|i| (i * stride + 5, (i + 100) as u32)).collect()
    }

    fn check_floor(disk: &Disk, dir: &dyn InnerDirectory, bounds: &[Boundary]) {
        let find = |key| dir.find_leaf(&mut disk.cursor(), key).unwrap();
        // Exact boundary keys route to their own leaf.
        for &(k, blk) in bounds.iter().step_by(13) {
            assert_eq!(find(k), blk, "boundary {k}");
        }
        // Keys inside a leaf's range route to that leaf.
        for w in bounds.windows(2).step_by(17) {
            let probe = w[0].0 + (w[1].0 - w[0].0) / 2;
            assert_eq!(find(probe), w[0].1, "probe {probe}");
        }
        // Keys beyond the last boundary route to the last leaf; keys before
        // the first boundary route to the first leaf.
        assert_eq!(find(u64::MAX), bounds.last().unwrap().1);
        assert_eq!(find(0), bounds[0].1);
    }

    #[test]
    fn pla_inner_floor_lookups() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut dir = PlaInner::new(Arc::clone(&disk), 8).unwrap();
        let bounds = boundaries(5_000, 37);
        dir.rebuild(&bounds).unwrap();
        assert!(dir.node_count() > 0);
        assert!(dir.height() >= 2);
        check_floor(&disk, &dir, &bounds);
    }

    #[test]
    fn model_tree_inner_floor_lookups() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut dir = ModelTreeInner::new(Arc::clone(&disk), 2).unwrap();
        let bounds = boundaries(5_000, 37);
        dir.rebuild(&bounds).unwrap();
        assert!(dir.node_count() >= 1);
        check_floor(&disk, &dir, &bounds);
    }

    #[test]
    fn model_tree_handles_clustered_boundaries() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut dir = ModelTreeInner::new(Arc::clone(&disk), 2).unwrap();
        let mut bounds: Vec<Boundary> = Vec::new();
        for c in 0..50u64 {
            for i in 0..40u64 {
                bounds.push((c * 1_000_000 + i * 3, (c * 100 + i) as u32));
            }
        }
        dir.rebuild(&bounds).unwrap();
        assert!(dir.node_count() > 1, "clustered boundaries must create child nodes");
        check_floor(&disk, &dir, &bounds);
    }

    #[test]
    fn inner_io_is_attributed_to_inner_blocks() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut dir = PlaInner::new(Arc::clone(&disk), 8).unwrap();
        let bounds = boundaries(2_000, 11);
        dir.rebuild(&bounds).unwrap();
        disk.stats().reset();
        dir.find_leaf(&mut disk.cursor(), bounds[777].0 + 1).unwrap();
        assert!(disk.stats().reads_of(BlockKind::Inner) > 0);
        assert_eq!(disk.stats().reads_of(BlockKind::Leaf), 0);
    }

    /// The slot-by-slot ε-window walk that `floor_in_window` replaced — one
    /// `read_ref` per slot, stopping at the first key above `key` — kept as
    /// the reference the in-place search must match, leaf for leaf and
    /// block for block.
    fn find_leaf_slot_by_slot(dir: &PlaInner, key: Key) -> BlockId {
        let slot = |first_block: u32, per_block: usize, stride: usize, idx: u64| -> Vec<u8> {
            let block = first_block + (idx / per_block as u64) as u32;
            let frame = dir.disk.read_ref(dir.file, block, BlockKind::Inner).unwrap();
            let off = (idx % per_block as u64) as usize * stride;
            frame[off..off + stride].to_vec()
        };
        let eps = dir.epsilon as u64;
        let mut rec = dir.root.unwrap();
        for level in dir.levels.iter().rev() {
            let record = |idx| {
                let bytes = slot(level.first_block, dir.records_per_block(), PLA_RECORD, idx);
                PlaRecord::decode(bytes[..].try_into().unwrap())
            };
            let predicted = rec.predict(key).min(level.records - 1);
            let mut best = None;
            for idx in predicted.saturating_sub(eps + 1)..=(predicted + eps).min(level.records - 1)
            {
                let r = record(idx);
                if r.first_key > key {
                    break;
                }
                best = Some(r);
            }
            rec = best.unwrap_or_else(|| record(0));
        }
        let predicted = rec.predict(key).min(dir.boundaries - 1);
        let mut best = dir.first_leaf;
        for idx in predicted.saturating_sub(eps + 1)..=(predicted + eps).min(dir.boundaries - 1) {
            let e = slot(dir.base_first_block, dir.entries_per_block(), PLA_ENTRY, idx);
            if Key::from_le_bytes(e[..8].try_into().unwrap()) > key {
                break;
            }
            best = u64::from_le_bytes(e[8..].try_into().unwrap()) as BlockId;
        }
        best
    }

    /// Runs `find` on a cold pool and returns its answer with the inner
    /// blocks it read from the device, the device time and the frames it
    /// pinned.
    fn cold(disk: &Disk, find: impl FnOnce() -> BlockId) -> (BlockId, u64, u64, u64) {
        disk.clear_buffer();
        disk.reset_access_state();
        let before = disk.snapshot();
        let leaf = find();
        let delta = disk.snapshot().since(&before);
        (leaf, delta.reads_of(BlockKind::Inner), delta.device_ns, delta.frames_pinned)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 24, .. proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn pla_floor_search_matches_the_slot_by_slot_walk(
            gaps in proptest::collection::vec(1u64..400, 1..1_500),
            first in 0u64..1_000,
            epsilon_pow in 0u32..5,
            block_size_pow in 8u32..11, // 256 B .. 1 KB: windows span several blocks
        ) {
            use proptest::prelude::*;
            let disk = Disk::in_memory(
                DiskConfig::with_block_size(1 << block_size_pow)
                    .device(lidx_storage::DeviceModel::ssd())
                    .buffer_blocks(256),
            );
            let mut dir = PlaInner::new(Arc::clone(&disk), 1 << epsilon_pow).unwrap();
            let mut key = first;
            let bounds: Vec<Boundary> = gaps
                .iter()
                .enumerate()
                .map(|(i, &gap)| {
                    key += gap;
                    (key, 100 + i as u32)
                })
                .collect();
            dir.rebuild(&bounds).unwrap();

            // Every boundary and its neighbours, including the keys below the
            // first boundary, which no window can cover.
            let probes = bounds
                .iter()
                .flat_map(|&(k, _)| [k - 1, k, k + 1])
                .chain([0, first / 2, first, Key::MAX]);
            for probe in probes {
                let floor = bounds.partition_point(|&(b, _)| b <= probe).saturating_sub(1);
                let (leaf, reads, device_ns, _) = cold(&disk, || dir.find_leaf(&mut disk.cursor(), probe).unwrap());
                let reference = cold(&disk, || find_leaf_slot_by_slot(&dir, probe));
                prop_assert_eq!(leaf, bounds[floor].1, "probe {}", probe);
                prop_assert_eq!(
                    (leaf, reads, device_ns),
                    (reference.0, reference.1, reference.2),
                    "probe {}: leaf, inner blocks read cold, device ns",
                    probe
                );
            }
        }
    }

    #[test]
    fn pla_floor_search_pins_each_window_block_once() {
        // The default shape: ε = 64 windows of 130 slots (at most 3 640 bytes)
        // touch at most two 4 KB blocks per level.
        let disk = Disk::in_memory(DiskConfig::default().buffer_blocks(4_096));
        let mut dir = PlaInner::new(Arc::clone(&disk), 64).unwrap();
        // Uneven gaps with a jump every 97 keys, so ε = 64 needs many
        // segments and the directory gets on-disk record levels.
        let mut key = 0u64;
        let bounds: Vec<Boundary> = (0..200_000u64)
            .map(|i| {
                key += 1 + i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 2_000;
                key += u64::from(i % 97 == 0) * 5_000_000;
                (key, i as u32)
            })
            .collect();
        dir.rebuild(&bounds).unwrap();
        assert!(!dir.levels.is_empty(), "the directory must have an on-disk record level");
        let levels = dir.levels.len() as u64 + 1;
        for &(k, blk) in bounds.iter().step_by(997) {
            let (leaf, _, _, pinned) =
                cold(&disk, || dir.find_leaf(&mut disk.cursor(), k + 1).unwrap());
            assert_eq!(leaf, blk);
            assert!(pinned <= 2 * levels + 2, "{pinned} frames pinned over {levels} levels");
            let (_, _, _, walked) = cold(&disk, || find_leaf_slot_by_slot(&dir, k + 1));
            assert!(walked > pinned, "the walk pins per slot ({walked}), the search per block");
        }
    }

    /// Overwrites the `u64` at byte `off` of inner block `block` of `file`.
    fn forge(disk: &Disk, file: u32, block: BlockId, off: usize, value: u64) {
        let mut buf = disk.read_vec(file, block, BlockKind::Inner).unwrap();
        buf[off..off + 8].copy_from_slice(&value.to_le_bytes());
        disk.write(file, block, BlockKind::Inner, &buf).unwrap();
    }

    #[test]
    fn block_pointers_beyond_the_block_id_range_are_errors() {
        // Truncated to 32 bits, each forged pointer would name block 0: for
        // the model tree that is its own root.
        let beyond = 1u64 << 32;
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut mt = ModelTreeInner::new(Arc::clone(&disk), 2).unwrap();
        mt.rebuild(&[(10, 7)]).unwrap();
        for tag in [MT_DATA, MT_CHILD] {
            for slot in 0..mt.slots_per_block() {
                let off = slot * MT_SLOT;
                forge(&disk, mt.file, mt.root + 1, off, tag);
                forge(&disk, mt.file, mt.root + 1, off + 8, 0);
                forge(&disk, mt.file, mt.root + 1, off + 16, beyond);
            }
            assert!(
                matches!(mt.find_leaf(&mut disk.cursor(), 10), Err(IndexError::Internal(_))),
                "tag {tag}"
            );
        }

        let mut pla = PlaInner::new(Arc::clone(&disk), 8).unwrap();
        let bounds = boundaries(100, 37);
        pla.rebuild(&bounds).unwrap();
        forge(&disk, pla.file, pla.base_first_block, 8, beyond);
        assert!(matches!(
            pla.find_leaf(&mut disk.cursor(), bounds[0].0),
            Err(IndexError::Internal(_))
        ));
    }

    #[test]
    fn a_cyclic_child_pointer_is_an_error_not_a_stack_overflow() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut mt = ModelTreeInner::new(Arc::clone(&disk), 2).unwrap();
        mt.rebuild(&[(10, 7)]).unwrap();
        assert_eq!(mt.node_count(), 1);
        // Every slot of the root names the root itself as a child whose
        // boundary admits the key, so an unbounded search recurses forever.
        for slot in 0..mt.slots_per_block() {
            let off = slot * MT_SLOT;
            forge(&disk, mt.file, mt.root + 1, off, MT_CHILD);
            forge(&disk, mt.file, mt.root + 1, off + 8, 0);
            forge(&disk, mt.file, mt.root + 1, off + 16, u64::from(mt.root));
        }
        // On its own thread with a deadline, so a search that never returns
        // fails the test instead of hanging it.
        let (done, result) = std::sync::mpsc::channel();
        let search = std::thread::spawn(move || done.send(mt.find_leaf(&mut disk.cursor(), 10)));
        let found = result
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the search never returned");
        search.join().expect("the search's thread finished").expect("the answer was received");
        assert!(matches!(found, Err(IndexError::Internal(_))), "{found:?}");
    }

    #[test]
    fn directories_refuse_lookups_before_rebuild() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let pla = PlaInner::new(Arc::clone(&disk), 8).unwrap();
        assert!(pla.find_leaf(&mut disk.cursor(), 1).is_err());
        let mt = ModelTreeInner::new(Arc::clone(&disk), 2).unwrap();
        assert!(mt.find_leaf(&mut disk.cursor(), 1).is_err());
    }
}
