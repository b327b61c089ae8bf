//! Learned inner structures over leaf boundary keys.
//!
//! Both structures map a search key to the leaf block whose boundary (first
//! key) is the greatest one not exceeding the search key — a *floor* lookup.
//! All their I/O is charged to [`BlockKind::Inner`].

use std::sync::Arc;

use lidx_core::{block_pointer, spend, Entry, IndexError, IndexResult, Key};
use lidx_lipp::node::{build_subtree, LippNode, Slot};
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
/// is charged to [`BlockKind::Inner`], and every rebuild appends a fresh
/// component to the directory's file.
pub struct PlaInner {
    disk: Arc<Disk>,
    file: FileId,
    epsilon: usize,
    pgm: Option<StaticPgm>,
    first_leaf: BlockId,
}

impl PlaInner {
    /// Creates an empty PLA directory with error bound `epsilon` that
    /// builds into `file`.
    pub fn new(disk: Arc<Disk>, file: FileId, epsilon: usize) -> Self {
        PlaInner { disk, file, epsilon: epsilon.max(1), pgm: None, first_leaf: 0 }
    }
}

impl InnerDirectory for PlaInner {
    fn rebuild(&mut self, boundaries: &[Boundary]) -> IndexResult<()> {
        let entries: Vec<Entry> = boundaries.iter().map(|&(k, b)| (k, u64::from(b))).collect();
        let disk = Arc::clone(&self.disk);
        let pgm = StaticPgm::build(disk, self.file, &entries, self.epsilon, BlockKind::Inner)?;
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

/// Slot over-allocation factor of a model-tree node: a node over `n`
/// boundaries has `GAP_FACTOR · n` slots, clamped to `8..=2^20`.
const GAP_FACTOR: usize = 2;

/// An FMCD-fitted model tree over the boundaries, in the spirit of the inner
/// nodes of ALEX and LIPP (Table 5, "ALEX" / "LIPP" columns): a LIPP subtree
/// ([`lidx_lipp::node`]) over the `(boundary, leaf block)` pairs, charged to
/// [`BlockKind::Inner`]. A slot holds a boundary with its leaf, or a child
/// keyed by the first boundary it holds; every rebuild appends a fresh tree
/// to the directory's file.
pub struct ModelTreeInner {
    disk: Arc<Disk>,
    file: FileId,
    /// Start block of the root node; `None` before the first rebuild.
    root: Option<BlockId>,
    nodes: u64,
    height: u32,
    first_leaf: BlockId,
}

impl ModelTreeInner {
    /// Creates an empty model-tree directory that builds into `file`.
    pub fn new(disk: Arc<Disk>, file: FileId) -> Self {
        ModelTreeInner { disk, file, root: None, nodes: 0, height: 0, first_leaf: 0 }
    }
}

impl InnerDirectory for ModelTreeInner {
    fn rebuild(&mut self, boundaries: &[Boundary]) -> IndexResult<()> {
        let entries: Vec<Entry> = boundaries.iter().map(|&(k, b)| (k, u64::from(b))).collect();
        let capacity = |n: usize| n.saturating_mul(GAP_FACTOR).clamp(8, 1 << 20) as u32;
        let built = build_subtree(&self.disk, self.file, BlockKind::Inner, &entries, &capacity)?;
        self.root = Some(built.root);
        self.nodes = built.nodes;
        self.height = built.depth;
        self.first_leaf = boundaries.first().map_or(0, |b| b.1);
        Ok(())
    }

    /// Walks from the predicted slot leftwards to the first boundary
    /// `<= key`, descending into a child whose first boundary is `<= key`
    /// (the "walk to the next occupied slot" cost the paper notes for
    /// LIPP-style nodes without separate data/inner types). Such a child
    /// holds the floor: the model is monotone, so the walk from its
    /// predicted slot reaches its first boundary, and a child that yields
    /// none is a damaged directory. Each node the walk loads spends one
    /// unit of a budget seeded from the node count ([`spend`]), so a cyclic
    /// child pointer is an error, not a hang.
    fn find_leaf(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<BlockId> {
        let root = self.root.ok_or(IndexError::NotInitialized)?;
        let mut budget = self.nodes;
        let mut visit = |cursor: &mut BlockCursor<'_>, block| {
            spend(&mut budget, "model-tree search")?;
            LippNode::load(cursor, self.file, block, BlockKind::Inner)
        };
        let mut node = visit(cursor, root)?;
        // The slots of `node` left to read, from the predicted one down.
        let mut left = node.predict(key) + 1;
        while let Some(slot) = left.checked_sub(1) {
            left = slot;
            match node.read_slot(cursor, slot)? {
                Slot::Data(boundary, leaf) if boundary <= key => {
                    return block_pointer(leaf, DIR_POINTER);
                }
                Slot::Child(first, child) if first <= key => {
                    node = visit(cursor, child)?;
                    left = node.predict(key) + 1;
                }
                _ => {}
            }
        }
        if node.start != root {
            return Err(IndexError::Internal(format!(
                "model-tree node {} holds no boundary <= {key}",
                node.start
            )));
        }
        Ok(self.first_leaf)
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
    use lidx_lipp::node::{head_slots, HEADER_BYTES, SLOT_BYTES};
    use lidx_storage::DiskConfig;
    use proptest::prelude::*;

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
        let mut dir = PlaInner::new(Arc::clone(&disk), disk.create_file().unwrap(), 8);
        let bounds = boundaries(5_000, 37);
        dir.rebuild(&bounds).unwrap();
        assert!(dir.node_count() > 0);
        assert!(dir.height() >= 2);
        check_floor(&disk, &dir, &bounds);
    }

    #[test]
    fn model_tree_inner_floor_lookups() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut dir = ModelTreeInner::new(Arc::clone(&disk), disk.create_file().unwrap());
        let bounds = boundaries(5_000, 37);
        dir.rebuild(&bounds).unwrap();
        assert!(dir.node_count() >= 1);
        check_floor(&disk, &dir, &bounds);
    }

    #[test]
    fn model_tree_handles_clustered_boundaries() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut dir = ModelTreeInner::new(Arc::clone(&disk), disk.create_file().unwrap());
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
        let mut dir = PlaInner::new(Arc::clone(&disk), disk.create_file().unwrap(), 8);
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

    /// Overwrites every slot position of block 0 of the root of `mt` with
    /// `[tag][key 0][word]`. A one-boundary tree is one block: its header,
    /// then its slots from byte [`HEADER_BYTES`].
    fn forge_root_slots(disk: &Disk, mt: &ModelTreeInner, tag: u64, word: u64) {
        let root = mt.root.unwrap();
        for slot in 0..head_slots(disk.block_size()) {
            let off = HEADER_BYTES + slot * SLOT_BYTES;
            forge(disk, mt.file, root, off, tag);
            forge(disk, mt.file, root, off + 8, 0);
            forge(disk, mt.file, root, off + 16, word);
        }
    }

    /// The `DATA` and `NODE` slot tags of [`lidx_lipp::node`].
    const DATA: u64 = 1;
    const CHILD: u64 = 2;

    #[test]
    fn block_pointers_beyond_the_block_id_range_are_errors() {
        // Truncated to 32 bits, each forged pointer would name block 0: for
        // the model tree that is its own root.
        let beyond = 1u64 << 32;
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut mt = ModelTreeInner::new(Arc::clone(&disk), disk.create_file().unwrap());
        mt.rebuild(&[(10, 7)]).unwrap();
        for tag in [DATA, CHILD] {
            forge_root_slots(&disk, &mt, tag, beyond);
            assert!(
                matches!(mt.find_leaf(&mut disk.cursor(), 10), Err(IndexError::Internal(_))),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn a_cyclic_child_pointer_is_an_error_not_a_stack_overflow() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut mt = ModelTreeInner::new(Arc::clone(&disk), disk.create_file().unwrap());
        mt.rebuild(&[(10, 7)]).unwrap();
        assert_eq!(mt.node_count(), 1);
        // Every slot of the root names the root itself as a child whose
        // boundary admits the key, so an unbounded search never ends.
        forge_root_slots(&disk, &mt, CHILD, u64::from(mt.root.unwrap()));
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
    fn a_child_without_a_boundary_below_its_key_is_an_error() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut mt = ModelTreeInner::new(Arc::clone(&disk), disk.create_file().unwrap());
        // Three adjacent boundaries conflict in one slot of an 18-slot,
        // one-block root, so they form a child keyed 100.
        let mut bounds: Vec<Boundary> = vec![(100, 1), (101, 2), (102, 3)];
        bounds.extend((1..7).map(|i| (i * 1_000_000, 10 + i as u32)));
        mt.rebuild(&bounds).unwrap();
        assert_eq!(mt.find_leaf(&mut disk.cursor(), 1).unwrap(), 1, "below every boundary");
        // Lower the child's key word below the probe: the walk descends into
        // a child that holds no boundary <= 1.
        let root = mt.root.unwrap();
        let mut cursor = disk.cursor();
        let node = LippNode::load(&mut cursor, mt.file, root, BlockKind::Inner).unwrap();
        let child = (0..node.header.capacity)
            .find(|&s| matches!(node.read_slot(&mut cursor, s), Ok(Slot::Child(100, _))))
            .expect("the adjacent boundaries form a child");
        forge(&disk, mt.file, root, HEADER_BYTES + child as usize * SLOT_BYTES + 8, 0);
        let found = mt.find_leaf(&mut disk.cursor(), 1);
        assert!(matches!(found, Err(IndexError::Internal(_))), "{found:?}");
    }

    #[test]
    fn a_one_block_model_tree_node_costs_one_inner_read() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut mt = ModelTreeInner::new(Arc::clone(&disk), disk.create_file().unwrap());
        // Nine evenly spaced boundaries: 18 slots, within the 19 that share
        // block 0 with the header at 512 bytes, and one slot each.
        let bounds = boundaries(9, 1_000);
        assert!(9 * GAP_FACTOR <= head_slots(512));
        mt.rebuild(&bounds).unwrap();
        assert_eq!(mt.node_count(), 1);
        assert_eq!(disk.num_blocks(mt.file).unwrap(), 1, "the node is one block");
        for &(k, leaf) in &bounds {
            disk.stats().reset();
            assert_eq!(mt.find_leaf(&mut disk.cursor(), k + 1).unwrap(), leaf);
            assert_eq!(disk.stats().reads_of(BlockKind::Inner), 1, "key {}", k + 1);
            assert_eq!(disk.stats().reads(), 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

        /// The model tree routes every key to the leaf of the greatest
        /// boundary `<= key`, or to the first leaf below every boundary.
        #[test]
        fn model_tree_find_leaf_is_the_floor(
            gaps in proptest::collection::vec((1u64..1_000_000, 1usize..12), 1..60),
            block_size in prop_oneof![Just(256usize), Just(512usize), Just(1024usize)],
        ) {
            // Runs of boundaries one to four apart, the runs far apart: the
            // runs conflict on one slot, so the root has children.
            let mut bounds: Vec<Boundary> = Vec::new();
            let mut key = 0u64;
            for (i, &(gap, run)) in gaps.iter().enumerate() {
                key += gap;
                for j in 0..run as u64 {
                    key += 1 + (gap + j) % 4;
                    bounds.push((key, (bounds.len() + 100 * i) as u32));
                }
            }
            let disk = Disk::in_memory(DiskConfig::with_block_size(block_size));
            let mut mt = ModelTreeInner::new(Arc::clone(&disk), disk.create_file().unwrap());
            mt.rebuild(&bounds).unwrap();
            let floor = |key: Key| {
                let i = bounds.partition_point(|b| b.0 <= key);
                bounds[i.saturating_sub(1)].1
            };
            let probes = bounds.iter().flat_map(|&(k, _)| [k - 1, k, k + 1]).chain([0, Key::MAX]);
            for p in probes {
                prop_assert_eq!(mt.find_leaf(&mut disk.cursor(), p).unwrap(), floor(p), "key {}", p);
            }
        }
    }

    #[test]
    fn directories_refuse_lookups_before_rebuild() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let pla = PlaInner::new(Arc::clone(&disk), disk.create_file().unwrap(), 8);
        assert!(pla.find_leaf(&mut disk.cursor(), 1).is_err());
        let mt = ModelTreeInner::new(Arc::clone(&disk), disk.create_file().unwrap());
        assert!(mt.find_leaf(&mut disk.cursor(), 1).is_err());
    }
}
