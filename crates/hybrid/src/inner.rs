//! Learned inner structures over leaf boundary keys.
//!
//! Both structures map a search key to the leaf block whose boundary (first
//! key) is the greatest one not exceeding the search key — a *floor* lookup.
//! All their I/O is charged to [`BlockKind::Inner`].

use std::sync::Arc;

use lidx_core::{block_pointer, spend, Entry, IndexError, IndexResult, Key};
use lidx_models::fmcd::fit_fmcd;
use lidx_models::LinearModel;
use lidx_pgm::StaticPgm;
use lidx_storage::{BlockCursor, BlockId, BlockKind, Disk, FileId};

pub use lidx_btree::Boundary;

/// What a block pointer stored in a directory block is called in errors.
const DIR_POINTER: &str = "directory block pointer";

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

/// A recursive ε-bounded piecewise-linear directory over the boundaries, the
/// inner structure a FITing-tree or PGM would use (Table 5, "FITing-Tree" /
/// "PGM" columns): a [`StaticPgm`] over the `(boundary, leaf block)` pairs,
/// routed by its floor query. The whole directory, boundary array included,
/// is charged to [`BlockKind::Inner`], and every rebuild writes a fresh
/// component into the directory's one file.
pub struct PlaInner {
    disk: Arc<Disk>,
    file: FileId,
    epsilon: usize,
    pgm: Option<StaticPgm>,
    first_leaf: BlockId,
}

impl PlaInner {
    /// Creates an empty PLA directory with error bound `epsilon`.
    pub fn new(disk: Arc<Disk>, epsilon: usize) -> IndexResult<Self> {
        let file = disk.create_file()?;
        Ok(PlaInner { disk, file, epsilon: epsilon.max(1), pgm: None, first_leaf: 0 })
    }
}

impl InnerDirectory for PlaInner {
    fn rebuild(&mut self, boundaries: &[Boundary]) -> IndexResult<()> {
        let entries: Vec<Entry> = boundaries.iter().map(|&(k, b)| (k, u64::from(b))).collect();
        let pgm = StaticPgm::build(
            Arc::clone(&self.disk),
            self.file,
            &entries,
            self.epsilon,
            BlockKind::Inner,
        )?;
        self.pgm = Some(pgm);
        self.first_leaf = boundaries.first().map_or(0, |b| b.1);
        Ok(())
    }

    fn find_leaf(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<BlockId> {
        let pgm = self.pgm.as_ref().filter(|p| !p.is_empty()).ok_or(IndexError::NotInitialized)?;
        Ok(pgm.floor(cursor, key)?.unwrap_or(self.first_leaf))
    }

    fn node_count(&self) -> u64 {
        self.pgm.as_ref().map_or(0, StaticPgm::blocks)
    }

    fn height(&self) -> u32 {
        // base level + record levels + in-memory root
        2 + self.pgm.as_ref().map_or(0, |p| p.inner_levels() as u32)
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
    /// disk read. `budget` is how many more nodes the search may visit,
    /// seeded from the node count ([`spend`]).
    fn find_in(
        &self,
        cursor: &mut BlockCursor<'_>,
        start: BlockId,
        key: Key,
        budget: &mut u64,
    ) -> IndexResult<Option<BlockId>> {
        spend(budget, "model-tree search")?;
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
                        return block_pointer(value, DIR_POINTER).map(Some);
                    }
                }
                MT_CHILD => {
                    if boundary <= key {
                        if let Some(found) =
                            self.find_in(cursor, block_pointer(value, DIR_POINTER)?, key, budget)?
                        {
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

    /// Overwrites the `u64` at byte `off` of inner block `block` of `file`.
    fn forge(disk: &Disk, file: u32, block: BlockId, off: usize, value: u64) {
        let mut buf = disk.cursor().read(file, block, BlockKind::Inner).unwrap().to_vec();
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
