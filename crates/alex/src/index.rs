//! The on-disk ALEX tree and its [`DiskIndex`](lidx_core::DiskIndex)
//! implementation.

use std::sync::Arc;

use lidx_core::{
    index::validate_bulk_load, Entry, IndexError, IndexKind, IndexRead, IndexResult, IndexStats,
    IndexWrite, InsertBreakdown, InsertStep, Key, MetaReader, MetaWriter, StepLaps, Value,
};
use lidx_models::LinearModel;
use lidx_storage::{
    AccessClass, BlockCursor, BlockId, BlockKind, Disk, OpClass, SeqHint, INVALID_BLOCK,
};

use crate::node::{ChildPtr, DataGeometry, DataNode, InnerNode};

/// The two on-disk layouts of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlexLayout {
    /// Layout#1: inner nodes and data nodes share a single file.
    SingleFile,
    /// Layout#2: inner nodes and data nodes live in separate files (the
    /// paper measures a 0.5 %–30 % lookup improvement and prefers this).
    TwoFiles,
}

/// Configuration of the on-disk ALEX index.
#[derive(Debug, Clone, Copy)]
pub struct AlexConfig {
    /// File layout (Layout#2 by default, as in the paper).
    pub layout: AlexLayout,
    /// Gapped-array density right after bulk load or an SMO (ALEX defaults
    /// to ~0.7).
    pub leaf_density: f64,
    /// Density threshold that triggers a structural modification.
    pub max_density: f64,
    /// Target number of entries per data node when bulk loading.
    pub target_leaf_entries: usize,
    /// Maximum entries a data node may grow to before it is split instead of
    /// expanded (the paper's data nodes reach 16 MB; scaled down here).
    pub max_leaf_entries: usize,
    /// Maximum fanout of an inner node.
    pub max_fanout: usize,
}

impl Default for AlexConfig {
    fn default() -> Self {
        AlexConfig {
            layout: AlexLayout::TwoFiles,
            leaf_density: 0.7,
            max_density: 0.8,
            target_leaf_entries: 2048,
            max_leaf_entries: 1 << 16,
            max_fanout: 512,
        }
    }
}

/// An on-disk ALEX index.
pub struct AlexIndex {
    disk: Arc<Disk>,
    config: AlexConfig,
    inner_file: u32,
    data_file: u32,
    root: ChildPtr,
    key_count: u64,
    data_nodes: u64,
    inner_nodes: u64,
    height: u32,
    smo_count: u64,
    loaded: bool,
    breakdown: InsertBreakdown,
}

impl AlexIndex {
    /// Creates an empty ALEX index with the default configuration.
    pub fn new(disk: Arc<Disk>) -> IndexResult<Self> {
        Self::with_config(disk, AlexConfig::default())
    }

    /// Creates an empty ALEX index with an explicit configuration.
    pub fn with_config(disk: Arc<Disk>, config: AlexConfig) -> IndexResult<Self> {
        assert!(config.leaf_density > 0.1 && config.leaf_density < config.max_density);
        assert!(config.max_density <= 1.0);
        assert!(config.target_leaf_entries >= 16);
        assert!(config.max_fanout >= 2);
        let inner_file = disk.create_file()?;
        let data_file = match config.layout {
            AlexLayout::SingleFile => inner_file,
            AlexLayout::TwoFiles => disk.create_file()?,
        };
        Ok(AlexIndex {
            disk,
            config,
            inner_file,
            data_file,
            root: ChildPtr { is_data: true, block: INVALID_BLOCK },
            key_count: 0,
            data_nodes: 0,
            inner_nodes: 0,
            height: 0,
            smo_count: 0,
            loaded: false,
            breakdown: InsertBreakdown::new(),
        })
    }

    /// Reopens an ALEX index from [`IndexWrite::save_meta`] bytes against a
    /// disk that already holds its blocks. `config` must match the one the
    /// index was created with (including the layout).
    pub fn load(disk: Arc<Disk>, config: AlexConfig, meta: &[u8]) -> IndexResult<Self> {
        let mut r = MetaReader::new(meta);
        let inner_file = r.u32()?;
        let data_file = r.u32()?;
        let root_is_data = r.u32()? != 0;
        let root_block = r.u32()?;
        let key_count = r.u64()?;
        let data_nodes = r.u64()?;
        let inner_nodes = r.u64()?;
        let height = r.u32()?;
        let smo_count = r.u64()?;
        Ok(AlexIndex {
            disk,
            config,
            inner_file,
            data_file,
            root: ChildPtr { is_data: root_is_data, block: root_block },
            key_count,
            data_nodes,
            inner_nodes,
            height,
            smo_count,
            loaded: true,
            breakdown: InsertBreakdown::new(),
        })
    }

    /// The layout in use.
    pub fn layout(&self) -> AlexLayout {
        self.config.layout
    }

    fn capacity_for(&self, len: usize) -> u32 {
        ((len as f64 / self.config.leaf_density).ceil() as usize).max(len + 8).max(16) as u32
    }

    /// Allocates and builds a data node for `entries`.
    fn make_data_node(
        &mut self,
        entries: &[Entry],
        prev: BlockId,
        next: BlockId,
    ) -> IndexResult<DataNode> {
        let capacity = self.capacity_for(entries.len());
        let geo = DataGeometry::for_capacity(capacity, self.disk.block_size());
        let start = self.disk.allocate(self.data_file, geo.total_blocks())?;
        let node =
            DataNode::build(&self.disk, self.data_file, start, capacity, entries, prev, next)?;
        self.data_nodes += 1;
        Ok(node)
    }

    /// Recursively builds a subtree for `entries`, appending every created
    /// data node to `leaves` in key order (sibling links are fixed up by the
    /// caller).
    fn build_subtree(
        &mut self,
        entries: &[Entry],
        leaves: &mut Vec<DataNode>,
        depth: u32,
    ) -> IndexResult<ChildPtr> {
        self.height = self.height.max(depth + 1);
        if entries.len() <= self.config.target_leaf_entries {
            let node = self.make_data_node(entries, INVALID_BLOCK, INVALID_BLOCK)?;
            let ptr = ChildPtr { is_data: true, block: node.start };
            leaves.push(node);
            return Ok(ptr);
        }

        let keys: Vec<Key> = entries.iter().map(|e| e.0).collect();
        let fanout = (entries.len() / self.config.target_leaf_entries)
            .next_power_of_two()
            .clamp(2, self.config.max_fanout);
        let model = LinearModel::fit_keys(&keys).rescale(entries.len(), fanout);

        // Model-based partition: bucket of entry i is the predicted child.
        let mut boundaries = Vec::with_capacity(fanout + 1);
        boundaries.push(0usize);
        let mut current = 0usize;
        for b in 1..fanout {
            // First index whose predicted bucket is >= b.
            while current < entries.len() && model.predict_clamped(entries[current].0, fanout) < b {
                current += 1;
            }
            boundaries.push(current);
        }
        boundaries.push(entries.len());

        let largest =
            (0..fanout).map(|b| boundaries[b + 1] - boundaries[b]).max().unwrap_or(entries.len());
        if largest == entries.len() {
            // The model failed to separate the keys (extremely clustered
            // data): fall back to one big data node, as ALEX's cost model
            // would rather than build useless inner levels.
            let node = self.make_data_node(entries, INVALID_BLOCK, INVALID_BLOCK)?;
            let ptr = ChildPtr { is_data: true, block: node.start };
            leaves.push(node);
            return Ok(ptr);
        }

        let mut children: Vec<Option<ChildPtr>> = vec![None; fanout];
        for b in 0..fanout {
            let slice = &entries[boundaries[b]..boundaries[b + 1]];
            if !slice.is_empty() {
                children[b] = Some(self.build_subtree(slice, leaves, depth + 1)?);
            }
        }
        // Empty buckets share the nearest preceding child (or the first
        // following one for leading empties), mirroring ALEX's duplicated
        // child pointers.
        let first_some = children
            .iter()
            .flatten()
            .next()
            .copied()
            .ok_or_else(|| IndexError::Internal("inner node built with no children".into()))?;
        let mut fill = first_some;
        let resolved: Vec<ChildPtr> = children
            .into_iter()
            .map(|c| {
                if let Some(p) = c {
                    fill = p;
                }
                fill
            })
            .collect();

        let blocks = InnerNode::blocks_for(resolved.len() as u32, self.disk.block_size());
        let start = self.disk.allocate(self.inner_file, blocks)?;
        InnerNode::build(&self.disk, self.inner_file, start, model, &resolved)?;
        self.inner_nodes += 1;
        Ok(ChildPtr { is_data: false, block: start })
    }

    /// Descends from the root to the data node covering `key`, returning the
    /// inner-node path (node handle + chosen child index) and the data node.
    /// The insert path's descent; reads go through [`AlexIndex::data_node`].
    fn descend(&self, key: Key) -> IndexResult<(Vec<(InnerNode, u32)>, DataNode)> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        let mut cursor = self.disk.cursor();
        let mut path = Vec::new();
        let start = self.route(&mut cursor, key, Some(&mut path))?;
        Ok((path, DataNode::load_with(&mut cursor, self.data_file, start)?))
    }

    /// The data node covering `key`, read through `cursor`: the descent of
    /// the read paths, which keeps no path and so allocates nothing.
    fn data_node(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<DataNode> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        let start = self.route(cursor, key, None)?;
        DataNode::load_with(cursor, self.data_file, start)
    }

    /// Repoints the parent of an SMO'd node (or the root) to `new_ptr`.
    fn repoint_parent(
        &mut self,
        path: &[(InnerNode, u32)],
        old_block: BlockId,
        new_ptr: ChildPtr,
    ) -> IndexResult<()> {
        match path.last() {
            None => {
                self.root = new_ptr;
                Ok(())
            }
            Some((parent, idx)) => {
                // The model may map several consecutive indexes to the same
                // child; repoint every pointer that referenced the old node.
                let mut i = *idx;
                loop {
                    parent.set_child(&self.disk, i, new_ptr)?;
                    if i == 0 {
                        break;
                    }
                    let prev = parent.child_at(&mut self.disk.cursor(), i - 1)?;
                    if prev.is_data && prev.block == old_block {
                        i -= 1;
                    } else {
                        break;
                    }
                }
                let mut i = *idx + 1;
                while i < parent.header.children {
                    let nxt = parent.child_at(&mut self.disk.cursor(), i)?;
                    if nxt.is_data && nxt.block == old_block {
                        parent.set_child(&self.disk, i, new_ptr)?;
                        i += 1;
                    } else {
                        break;
                    }
                }
                Ok(())
            }
        }
    }

    /// Fixes the sibling links of the nodes adjacent to a rebuilt node.
    fn relink_neighbours(
        &mut self,
        prev: BlockId,
        next: BlockId,
        new_first: BlockId,
        new_last: BlockId,
    ) -> IndexResult<()> {
        if prev != INVALID_BLOCK {
            let mut n = DataNode::load(&self.disk, self.data_file, prev)?;
            n.header.next = new_first;
            n.write_header(&self.disk)?;
        }
        if next != INVALID_BLOCK {
            let mut n = DataNode::load(&self.disk, self.data_file, next)?;
            n.header.prev = new_last;
            n.write_header(&self.disk)?;
        }
        Ok(())
    }

    /// Runs a structural modification operation on a full data node: either
    /// expands it in place (doubling the capacity) or splits it downward into
    /// a new two-child inner node.
    fn smo(&mut self, path: &[(InnerNode, u32)], node: DataNode) -> IndexResult<()> {
        self.smo_count += 1;
        // The SMO is the learned-index pause the paper attributes tail
        // latency to: time the whole operation and count it, off a local
        // Arc so the span does not pin a borrow of `self`.
        let telemetry = Arc::clone(&self.disk);
        let _span = telemetry.telemetry().span(OpClass::Smo);
        telemetry.telemetry().add(OpClass::Smo, 1);
        let mut entries = Vec::with_capacity(node.header.count as usize);
        node.collect_entries(&self.disk, &mut entries)?;
        let old_blocks = node.total_blocks(self.disk.block_size());
        let prev = node.header.prev;
        let next = node.header.next;
        self.disk.free(self.data_file, node.start, old_blocks);
        self.data_nodes -= 1;

        // A split partitions the entries with the 2-way routing model's own
        // (floating-point) prediction, never by key comparison: descents
        // route through `predict_clamped`, and a model whose prediction at
        // the boundary key rounds to 0.999… would send that key to the left
        // child forever while a comparison-based split stored it right — a
        // lost key. Evaluating the same expression at split time makes the
        // placement and every future descent agree bit for bit. The split
        // plan degenerates (one side empty) only when rounding collapses
        // the routing entirely; expansion handles that case.
        let grown_capacity = (node.header.capacity as usize * 2).max(32);
        let mut split_plan = None;
        if grown_capacity > self.config.max_leaf_entries && entries.len() >= 2 {
            let mid = entries.len() / 2;
            let model = LinearModel::from_points(entries[0].0, 0.0, entries[mid].0, 1.0);
            let split_at = entries.partition_point(|&(k, _)| model.predict_clamped(k, 2) == 0);
            if split_at > 0 && split_at < entries.len() {
                split_plan = Some((model, split_at));
            }
        }
        if let Some((model, split_at)) = split_plan {
            // Split downward: two data nodes under a fresh 2-way inner node.
            let (left_entries, right_entries) = entries.split_at(split_at);
            let left = self.make_data_node(left_entries, prev, INVALID_BLOCK)?;
            let right = self.make_data_node(right_entries, left.start, next)?;
            let mut left = left;
            left.header.next = right.start;
            left.write_header(&self.disk)?;
            self.relink_neighbours(prev, next, left.start, right.start)?;

            let blocks = InnerNode::blocks_for(2, self.disk.block_size());
            let start = self.disk.allocate(self.inner_file, blocks)?;
            InnerNode::build(
                &self.disk,
                self.inner_file,
                start,
                model,
                &[
                    ChildPtr { is_data: true, block: left.start },
                    ChildPtr { is_data: true, block: right.start },
                ],
            )?;
            self.inner_nodes += 1;
            // The new data nodes sit one level below the replaced node (depth
            // `path.len()`); height is the deepest data node's depth + 1, as
            // bulk load sets it.
            self.height = self.height.max(path.len() as u32 + 2);
            self.repoint_parent(path, node.start, ChildPtr { is_data: false, block: start })?;
        } else {
            // Expansion: rebuild with double capacity and a retrained model.
            let capacity = grown_capacity.max(self.capacity_for(entries.len()) as usize) as u32;
            let geo = DataGeometry::for_capacity(capacity, self.disk.block_size());
            let start = self.disk.allocate(self.data_file, geo.total_blocks())?;
            let new =
                DataNode::build(&self.disk, self.data_file, start, capacity, &entries, prev, next)?;
            self.data_nodes += 1;
            self.relink_neighbours(prev, next, new.start, new.start)?;
            self.repoint_parent(path, node.start, ChildPtr { is_data: true, block: new.start })?;
        }
        Ok(())
    }

    /// Attempts the actual slot insertion into `node`. Returns `false` if the
    /// node is too full and an SMO is required first.
    fn try_insert_into(
        &mut self,
        node: &mut DataNode,
        key: Key,
        value: Value,
    ) -> IndexResult<bool> {
        let capacity = node.header.capacity;
        if (node.header.count + 1) as f64 > capacity as f64 * self.config.max_density {
            return Ok(false);
        }
        let lb = node.lower_bound(&mut self.disk.cursor(), key)?;

        // Upsert: overwrite every duplicate of an existing key so gap copies
        // stay consistent with the real slot.
        if lb < capacity {
            let (k, _) = node.read_slot(&self.disk, lb)?;
            if k == key && node.header.count > 0 {
                // Ensure the key really exists (a gap can duplicate a key only
                // if the real occurrence exists somewhere in the node).
                let mut s = lb;
                while s < capacity {
                    let (k2, _) = node.read_slot(&self.disk, s)?;
                    if k2 != key {
                        break;
                    }
                    node.write_slot(&self.disk, s, (key, value))?;
                    s += 1;
                }
                return Ok(true);
            }
        }

        // Fresh insert. Prefer the gap immediately left of the lower bound.
        let inserted_shifts;
        if lb > 0 && !node.read_bit(&self.disk, lb - 1)? {
            node.write_slot(&self.disk, lb - 1, (key, value))?;
            node.set_bit(&self.disk, lb - 1, true)?;
            inserted_shifts = 0;
        } else {
            // Find the first gap at or after the lower bound and shift the
            // occupied run one slot to the right.
            let mut gap = None;
            let mut s = lb;
            while s < capacity {
                if !node.read_bit(&self.disk, s)? {
                    gap = Some(s);
                    break;
                }
                s += 1;
            }
            let Some(gap) = gap else {
                return Ok(false);
            };
            // Shift [lb, gap) right by one, block-wise, then place the key.
            node.shift_right(&self.disk, lb, gap)?;
            node.write_slot(&self.disk, lb, (key, value))?;
            node.set_bit(&self.disk, gap, true)?;
            inserted_shifts = (gap - lb) as u64;
        }

        node.header.count += 1;
        node.header.num_inserts += 1;
        node.header.num_shifts += inserted_shifts;
        self.key_count += 1;
        Ok(true)
    }

    /// Routes `key` through the inner levels only, returning the start block
    /// of the covering data node without touching the data file, and pushing
    /// each inner node with the child index taken onto `path` if one is
    /// given. The batch routes first: it resolves *where* every probe lands,
    /// so the data-node header fetches can ride one submission wave instead
    /// of being paid one blocking latency at a time. A path holds fewer than
    /// `height` inner nodes, so a walk that meets more has followed a cyclic
    /// child pointer: an error, not a hang.
    fn route(
        &self,
        cursor: &mut BlockCursor<'_>,
        key: Key,
        mut path: Option<&mut Vec<(InnerNode, u32)>>,
    ) -> IndexResult<BlockId> {
        let mut ptr = self.root;
        let mut budget = self.height;
        while !ptr.is_data {
            budget = budget.checked_sub(1).ok_or_else(|| {
                IndexError::Internal(format!(
                    "ALEX walk met more inner nodes than the tree's height {}: \
                     a child pointer is cyclic",
                    self.height
                ))
            })?;
            let node = InnerNode::load(cursor, self.inner_file, ptr.block)?;
            let idx = node.child_index(key);
            ptr = node.child_at(cursor, idx)?;
            if let Some(path) = path.as_deref_mut() {
                path.push((node, idx));
            }
        }
        Ok(ptr.block)
    }

    /// Writes the deferred statistics header of a batch-cached leaf, if any
    /// (the once-per-touched-node maintenance write of `insert_batch`).
    fn flush_cached_leaf(
        &mut self,
        cached: &mut Option<CachedLeaf>,
        laps: &mut StepLaps,
    ) -> IndexResult<()> {
        if let Some(c) = cached.take() {
            if c.dirty {
                c.node.write_header(&self.disk)?;
                laps.lap(&mut self.breakdown, InsertStep::Maintenance);
            }
        }
        Ok(())
    }
}

/// The leaf a batched insert is currently filling: its in-memory header is
/// authoritative (the on-disk copy is stale until the deferred maintenance
/// write), so the batch must route follow-up keys to this handle instead of
/// re-loading the node from disk.
struct CachedLeaf {
    /// The inner-node path that led here, kept for a potential SMO.
    path: Vec<(InnerNode, u32)>,
    node: DataNode,
    /// True once an insert changed the occupancy statistics.
    dirty: bool,
    /// A key known to route to this node; by monotonicity of the model
    /// routing, every key in `[witness, max]` provably descends here.
    witness: Key,
    /// The node's largest stored key, fetched lazily (one slot read) on the
    /// first reuse attempt.
    max: Option<Key>,
}

impl IndexRead for AlexIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Alex
    }

    fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        let mut cursor = self.disk.cursor();
        self.data_node(&mut cursor, key)?.lookup(&mut cursor, key)
    }

    /// Batched lookups sort the probe keys and run in four phases. Probes
    /// are routed through the inner levels first, then the data-node header
    /// blocks are fetched as one completion wave, then every probe's
    /// predicted slot block is prefetched as a second wave, and finally the
    /// in-node searches run through one cursor. Above queue depth 1 the
    /// searches consume the parked frames, with only exponential-search
    /// spillover reads left synchronous; at depth 1 the prefetch does
    /// nothing and the searches read on demand, co-located probes sharing
    /// each slot block through the cursor.
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

        // Phase 1: route every probe; model routing is monotone in the key,
        // so probes landing in the same data node are consecutive in sorted
        // order and grouping is a plain run-length pass. Each group is a
        // node's start block and the end of its run of `order`.
        let mut groups: Vec<(BlockId, usize)> = Vec::new();
        let mut cursor = self.disk.cursor();
        for (at, &i) in order.iter().enumerate() {
            let start = self.route(&mut cursor, keys[i as usize], None)?;
            if groups.last().map(|&(b, _)| b) != Some(start) {
                groups.push((start, at));
            }
            groups.last_mut().expect("group exists").1 = at + 1;
        }

        // Phase 2: one wave over the distinct data-node header blocks.
        let mut q = self.disk.read_queue();
        let header_blocks: std::collections::BTreeSet<BlockId> =
            groups.iter().map(|&(start, _)| start).collect();
        for &start in &header_blocks {
            q.submit(self.data_file, start, BlockKind::Leaf, AccessClass::Point)?;
        }
        let mut nodes = std::collections::HashMap::new();
        for c in q.complete()? {
            nodes.insert(c.block, DataNode::from_header_bytes(self.data_file, c.block, &c.frame)?);
        }

        // Phase 3: one wave prefetching every probe's predicted slot block.
        let mut slot_blocks = std::collections::BTreeSet::new();
        let mut from = 0;
        for &(start, end) in &groups {
            let node = &nodes[&start];
            for &i in &order[from..end] {
                let slot = node.predict(keys[i as usize]);
                slot_blocks.insert(node.slot_block_id(&self.disk, slot));
            }
            from = end;
        }
        for &block in &slot_blocks {
            q.prefetch(self.data_file, block, BlockKind::Leaf, SeqHint::Auto)?;
        }
        q.flush()?;

        // Phase 4: search each node, through a cursor that starts after the
        // waves, whose completions the disk's reuse slot sees.
        let mut cursor = self.disk.cursor();
        let mut from = 0;
        for &(start, end) in &groups {
            let node = &nodes[&start];
            for &i in &order[from..end] {
                out[i as usize] = node.lookup(&mut cursor, keys[i as usize])?;
            }
            from = end;
        }
        Ok(())
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize> {
        out.clear();
        if count == 0 {
            if !self.loaded {
                return Err(IndexError::NotInitialized);
            }
            return Ok(0);
        }
        let (mut node, mut slot) = {
            let mut cursor = self.disk.cursor();
            let node = self.data_node(&mut cursor, start)?;
            let slot = node.lower_bound(&mut cursor, start)?;
            (node, slot)
        };
        loop {
            // The bitmap distinguishes real entries from gap duplicates — the
            // extra utility I/O the paper highlights for ALEX scans (S3). The
            // scan fetches each bitmap block and each slot block once and
            // walks them in memory.
            node.scan_slots(&self.disk, slot, start, count, out)?;
            if out.len() >= count || node.header.next == INVALID_BLOCK {
                return Ok(out.len());
            }
            node = DataNode::load_scan(&self.disk, self.data_file, node.header.next)?;
            slot = 0;
        }
    }

    fn len(&self) -> u64 {
        self.key_count
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            keys: self.key_count,
            height: self.height,
            inner_nodes: self.inner_nodes,
            leaf_nodes: self.data_nodes,
            smo_count: self.smo_count,
        }
    }
}

impl IndexWrite for AlexIndex {
    fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if self.loaded {
            return Err(IndexError::AlreadyLoaded);
        }
        validate_bulk_load(entries)?;
        let mut leaves = Vec::new();
        self.root = self.build_subtree(entries, &mut leaves, 0)?;
        // Fix up sibling links across the whole leaf level.
        for i in 0..leaves.len() {
            leaves[i].header.prev = if i > 0 { leaves[i - 1].start } else { INVALID_BLOCK };
            leaves[i].header.next =
                if i + 1 < leaves.len() { leaves[i + 1].start } else { INVALID_BLOCK };
            leaves[i].write_header(&self.disk)?;
        }
        self.key_count = entries.len() as u64;
        self.loaded = true;
        Ok(())
    }

    /// The one write path (`insert` is a batch of one): the current leaf's
    /// statistics header stays in memory and is written once per touched
    /// node per batch instead of once per key — the maintenance-batching
    /// counterpart of `lookup_batch`'s pinned descent. A key reuses the
    /// cached leaf when it provably routes there
    /// (`witness <= key <= max`, monotone model routing); any other key
    /// first flushes the deferred header, so the on-disk statistics are
    /// never stale when a node is re-loaded. SMOs receive the cached
    /// in-memory header (the authoritative occupancy), and the freed node's
    /// deferred write is simply dropped.
    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        let mut laps = StepLaps::start(&self.disk);
        let mut cached: Option<CachedLeaf> = None;
        for &(key, value) in entries {
            loop {
                // Route the key: reuse the cached leaf when possible.
                let mut hit = false;
                if let Some(c) = cached.as_mut() {
                    if key >= c.witness {
                        if c.max.is_none() && c.node.header.count > 0 {
                            c.max = Some(c.node.max_key(&mut self.disk.cursor())?);
                        }
                        hit = c.max.is_some_and(|m| key <= m);
                    }
                }
                if !hit {
                    // The lazy max-key read above is routing, not maintenance.
                    laps.lap(&mut self.breakdown, InsertStep::Search);
                    self.flush_cached_leaf(&mut cached, &mut laps)?;
                    let (path, node) = self.descend(key)?;
                    cached = Some(CachedLeaf { path, node, dirty: false, witness: key, max: None });
                }
                laps.lap(&mut self.breakdown, InsertStep::Search);

                let c = cached.as_mut().expect("cached leaf just resolved");
                let prior_count = c.node.header.count;
                if self.try_insert_into(&mut c.node, key, value)? {
                    laps.lap(&mut self.breakdown, InsertStep::Insert);
                    if c.node.header.count != prior_count {
                        // The updated occupancy and cost-model statistics
                        // are the maintenance overhead of Fig. 6.
                        c.dirty = true;
                    }
                    break;
                }

                // Too full: SMO with the authoritative in-memory header and
                // the cached parent path, then retry this key. The freed
                // node's deferred header write is dropped with it, and the
                // failed fill attempt's reads are part of the SMO's cost.
                let c = cached.take().expect("cached leaf just resolved");
                self.smo(&c.path, c.node)?;
                laps.lap(&mut self.breakdown, InsertStep::Smo);
            }
            self.breakdown.finish_insert();
        }
        self.flush_cached_leaf(&mut cached, &mut laps)
    }

    fn insert_breakdown(&self) -> InsertBreakdown {
        self.breakdown
    }

    fn save_meta(&mut self) -> IndexResult<Vec<u8>> {
        // Node blocks (inner and data, headers included) are written eagerly,
        // so the handle's plain fields are the whole state.
        let mut w = MetaWriter::new();
        w.u32(self.inner_file)
            .u32(self.data_file)
            .u32(self.root.is_data as u32)
            .u32(self.root.block)
            .u64(self.key_count)
            .u64(self.data_nodes)
            .u64(self.inner_nodes)
            .u32(self.height)
            .u64(self.smo_count);
        Ok(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_storage::{BlockKind, DiskConfig};

    fn index(bs: usize) -> AlexIndex {
        let disk = Disk::in_memory(DiskConfig::with_block_size(bs));
        AlexIndex::with_config(
            disk,
            AlexConfig { target_leaf_entries: 128, max_leaf_entries: 1024, ..Default::default() },
        )
        .unwrap()
    }

    fn entries(n: u64, stride: u64) -> Vec<Entry> {
        (0..n).map(|i| (i * stride + 1, i * stride + 2)).collect()
    }

    fn skewed(n: u64) -> Vec<Entry> {
        let mut keys: Vec<u64> = (0..n).map(|i| i * 5 + (i % 97) * (i % 13)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter().map(|k| (k, k + 1)).collect()
    }

    #[test]
    fn split_partition_agrees_with_the_routing_model() {
        // Regression: the 2-way split used to partition entries by key
        // comparison at the midpoint while descents route through the
        // model's floating-point prediction. For this insert sequence the
        // split boundary key 238703 predicts 0.999...9 (one ulp below 1.0),
        // so the comparison-stored right half and the model-routed left
        // child disagreed and lookups lost the key. The split now
        // partitions with the model itself, so placement and routing agree
        // bit for bit.
        let mut x = 12345u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let n_bulk = 20 + (rnd() % 180) as usize;
        let bulk_set: std::collections::BTreeSet<u64> =
            (0..n_bulk).map(|_| rnd() % 400_000).collect();
        let bulk: Vec<Entry> = bulk_set.iter().map(|&k| (k, k + 1)).collect();
        assert!(bulk_set.contains(&238703), "the regression key must be bulk loaded");
        let disk = Disk::in_memory(DiskConfig::with_block_size(4096));
        let mut a = AlexIndex::new(disk).unwrap();
        a.bulk_load(&bulk).unwrap();
        let inserts = [
            (443584u64, 0u64),
            (230089, 1),
            (235439, 2),
            (414753, 3),
            (255476, 4),
            (381092, 5),
            (449409, 6),
        ];
        let mut oracle: std::collections::BTreeMap<Key, Value> = bulk.iter().copied().collect();
        for &(k, v) in &inserts {
            a.insert(k, v).unwrap();
            oracle.insert(k, v);
            // Every key must stay reachable through every SMO.
            for (&ok, &ov) in &oracle {
                assert_eq!(a.lookup(ok).unwrap(), Some(ov), "key {ok} lost after insert {k}");
            }
        }
        assert_eq!(a.lookup(238703).unwrap(), Some(238704));
    }

    #[test]
    fn bulk_load_builds_a_tree_and_serves_lookups() {
        let mut a = index(512);
        let data = skewed(20_000);
        a.bulk_load(&data).unwrap();
        assert_eq!(a.len(), data.len() as u64);
        let s = a.stats();
        assert!(s.inner_nodes >= 1, "20k keys with 128-entry leaves need inner nodes");
        assert!(s.leaf_nodes > 10);
        assert!(s.height >= 2);
        for &(k, v) in data.iter().step_by(509) {
            assert_eq!(a.lookup(k).unwrap(), Some(v), "key {k}");
        }
        assert_eq!(a.lookup(data.last().unwrap().0 + 7).unwrap(), None);
    }

    /// Depth of the deepest data node below `ptr` (a data node at `ptr`
    /// itself is depth `depth`).
    fn deepest_data_node(a: &AlexIndex, ptr: ChildPtr, depth: u32) -> u32 {
        if ptr.is_data {
            return depth;
        }
        let node = InnerNode::load(&mut a.disk.cursor(), a.inner_file, ptr.block).unwrap();
        (0..node.header.children)
            .map(|i| node.child_at(&mut a.disk.cursor(), i).unwrap())
            .map(|child| deepest_data_node(a, child, depth + 1))
            .max()
            .unwrap()
    }

    #[test]
    fn height_is_one_plus_the_deepest_data_node_after_split_downs() {
        let mut a = index(4096);
        a.bulk_load(&entries(4_000, 10)).unwrap();
        let bulk_height = a.stats().height;
        assert_eq!(bulk_height, 1 + deepest_data_node(&a, a.root, 0));
        let inner_before = a.stats().inner_nodes;
        // Fill the gaps of every leaf until each splits downward: many
        // split-downs at the same depth deepen the tree by one level only.
        for i in 0..4_000u64 {
            for d in 1..6 {
                a.insert(i * 10 + 1 + d, d).unwrap();
            }
        }
        let s = a.stats();
        assert!(s.inner_nodes >= inner_before + 2, "the inserts must split leaves downward");
        assert_eq!(s.height, 1 + deepest_data_node(&a, a.root, 0), "{s:?}");
        assert!(s.height > bulk_height);
    }

    /// Bulk loads 4 000 keys at stride 10 and fills every gap below key
    /// 10 000, so only the first quarter of the key space splits, and keeps
    /// splitting as its new data nodes fill up in turn.
    fn split_down_one_region() -> (AlexIndex, u32) {
        let mut a = index(4096);
        a.bulk_load(&entries(4_000, 10)).unwrap();
        let bulk_height = a.stats().height;
        for k in (0..10_000u64).filter(|k| k % 10 != 1) {
            a.insert(k, k).unwrap();
        }
        (a, bulk_height)
    }

    #[test]
    fn height_tracks_split_downs_concentrated_in_one_key_range() {
        let (a, bulk_height) = split_down_one_region();
        let s = a.stats();
        assert!(s.height > bulk_height, "the hot range must deepen the tree: {s:?}");
        assert_eq!(s.height, 1 + deepest_data_node(&a, a.root, 0), "{s:?}");
    }

    #[test]
    fn load_restores_the_height_split_downs_reached() {
        let (mut a, _) = split_down_one_region();
        let meta = a.save_meta().unwrap();
        let reopened = AlexIndex::load(Arc::clone(&a.disk), a.config, &meta).unwrap();
        assert_eq!(reopened.stats().height, a.stats().height);
        assert_eq!(reopened.stats().height, 1 + deepest_data_node(&reopened, reopened.root, 0));
        for k in (0..10_000u64).step_by(97) {
            let want = if k % 10 == 1 { k + 1 } else { k };
            assert_eq!(reopened.lookup(k).unwrap(), Some(want), "key {k}");
        }
    }

    #[test]
    fn lookup_reads_header_plus_slot_blocks() {
        let mut a = index(4096);
        let data = entries(100_000, 3);
        a.bulk_load(&data).unwrap();
        a.disk().stats().reset();
        let queries: Vec<Key> = data.iter().step_by(1013).map(|e| e.0).collect();
        for &k in &queries {
            a.disk().reset_access_state();
            a.lookup(k).unwrap();
        }
        let per_query = a.disk().stats().reads() as f64 / queries.len() as f64;
        // Inner level(s) + data node header + slot block: ALEX reads at least
        // 2 leaf blocks per lookup (the paper's Table 4 shows 2.0–2.6).
        let leaf_per_query =
            a.disk().stats().reads_of(BlockKind::Leaf) as f64 / queries.len() as f64;
        assert!(leaf_per_query >= 2.0, "got {leaf_per_query} leaf blocks per lookup");
        assert!(per_query <= 8.0, "got {per_query} blocks per lookup");
        // Lookups never touch the bitmap.
        assert_eq!(a.disk().stats().reads_of(BlockKind::Utility), 0);
    }

    #[test]
    fn inserts_fill_gaps_then_trigger_smos() {
        let mut a = index(512);
        let data = entries(2_000, 10);
        a.bulk_load(&data).unwrap();
        for i in 0..3_000u64 {
            a.insert(i * 7 + 2, i).unwrap();
        }
        assert!(a.stats().smo_count > 0, "density overflow must trigger SMOs");
        for i in (0..3_000u64).step_by(211) {
            assert_eq!(a.lookup(i * 7 + 2).unwrap(), Some(i), "inserted key {}", i * 7 + 2);
        }
        for &(k, v) in data.iter().step_by(173) {
            if k >= 2 && (k - 2) % 7 == 0 {
                continue; // overwritten by the insert loop
            }
            assert_eq!(a.lookup(k).unwrap(), Some(v), "bulk key {k}");
        }
    }

    #[test]
    fn upsert_keeps_gap_duplicates_consistent() {
        let mut a = index(512);
        a.bulk_load(&entries(500, 3)).unwrap();
        a.insert(1, 777).unwrap();
        assert_eq!(a.lookup(1).unwrap(), Some(777));
        assert_eq!(a.len(), 500, "upsert must not grow the index");
        // A scan must also observe the new value exactly once.
        let mut out = Vec::new();
        a.scan(1, 3, &mut out).unwrap();
        assert_eq!(out[0], (1, 777));
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn scan_boundary_cases_match_oracle() {
        let mut t = index(512);
        let data = entries(1_500, 5);
        t.bulk_load(&data).unwrap();
        let mut out = Vec::new();

        // count == 0 returns nothing and clears `out`.
        out.push((1, 1));
        assert_eq!(t.scan(data[0].0, 0, &mut out).unwrap(), 0);
        assert!(out.is_empty());

        // Starts above the maximum stored key return nothing.
        let max_key = data.last().unwrap().0;
        for start in [max_key + 1, u64::MAX] {
            assert_eq!(t.scan(start, 10, &mut out).unwrap(), 0, "scan from {start}");
            assert!(out.is_empty());
        }

        // Scanning from every stored key covers every block / segment / node
        // boundary; each result must match the oracle slice exactly.
        for (i, &(k, _)) in data.iter().enumerate() {
            let n = t.scan(k, 5, &mut out).unwrap();
            let expected: Vec<Entry> = data[i..].iter().take(5).copied().collect();
            assert_eq!(n, expected.len(), "scan length from key {k}");
            assert_eq!(out, expected, "scan contents from key {k}");
        }
    }

    #[test]
    fn scan_crosses_data_nodes_in_key_order() {
        let mut a = index(512);
        let data = skewed(10_000);
        a.bulk_load(&data).unwrap();
        let start_idx = 4_321;
        let mut out = Vec::new();
        let n = a.scan(data[start_idx].0, 500, &mut out).unwrap();
        assert_eq!(n, 500);
        assert_eq!(out[0], data[start_idx]);
        assert_eq!(out[499], data[start_idx + 499]);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        // Scans must consult the bitmap (utility blocks).
        let before = a.disk().snapshot();
        a.scan(data[100].0, 200, &mut out).unwrap();
        let delta = a.disk().snapshot().since(&before);
        assert!(delta.reads_of(BlockKind::Utility) > 0, "scans read the bitmap");
    }

    #[test]
    fn scan_sees_inserted_keys() {
        let mut a = index(512);
        a.bulk_load(&entries(1_000, 4)).unwrap();
        for i in 0..200u64 {
            a.insert(i * 4 + 3, i).unwrap();
        }
        let mut out = Vec::new();
        a.scan(1, 400, &mut out).unwrap();
        assert_eq!(out.len(), 400);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        // Keys 1, 3, 5, 7, ... interleave bulk and inserted entries.
        assert_eq!(out[0].0, 1);
        assert_eq!(out[1].0, 3);
        assert_eq!(out[2].0, 5);
    }

    #[test]
    fn lookup_batch_matches_sequential_and_amortises_descents() {
        let mut a = index(512);
        let data = skewed(20_000);
        a.bulk_load(&data).unwrap();
        // Unsorted probes mixing hits, near-misses, extremes and duplicates.
        let probes: Vec<Key> = data
            .iter()
            .step_by(67)
            .map(|&(k, _)| k)
            .chain([0, u64::MAX, data[500].0, data[500].0, data[500].0 + 1])
            .rev()
            .collect();
        let mut batched = Vec::new();
        a.lookup_batch(&probes, &mut batched).unwrap();
        assert_eq!(batched.len(), probes.len());
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!(batched[i], a.lookup(p).unwrap(), "probe {p}");
        }

        // A batch also agrees after inserts push keys through gaps and SMOs.
        for i in 0..800u64 {
            a.insert(i * 11 + 6, i).unwrap();
        }
        let probes2: Vec<Key> = (0..800u64).map(|i| i * 11 + 6).rev().collect();
        a.lookup_batch(&probes2, &mut batched).unwrap();
        for (i, &p) in probes2.iter().enumerate() {
            assert_eq!(batched[i], a.lookup(p).unwrap(), "post-insert probe {p}");
        }

        // Co-located keys share the descent and the node's header block.
        let run: Vec<Key> = data[..256].iter().map(|&(k, _)| k).collect();
        a.disk().stats().reset();
        a.disk().reset_access_state();
        a.lookup_batch(&run, &mut batched).unwrap();
        let batch_reads = a.disk().stats().reads();
        a.disk().stats().reset();
        a.disk().reset_access_state();
        for &k in &run {
            a.lookup(k).unwrap();
        }
        let seq_reads = a.disk().stats().reads();
        assert!(
            batch_reads < seq_reads,
            "batched reads ({batch_reads}) must amortise sequential reads ({seq_reads})"
        );

        // Degenerate batches.
        a.lookup_batch(&[], &mut batched).unwrap();
        assert!(batched.is_empty());
        let empty = index(512);
        assert!(empty.lookup_batch(&[1], &mut batched).is_err());
    }

    #[test]
    fn queued_lookup_batch_matches_depth_one_answers_and_overlaps_io() {
        use lidx_storage::DeviceModel;
        let data = skewed(20_000);
        let mut probes: Vec<Key> = data.iter().step_by(17).map(|&(k, _)| k).collect();
        probes.extend([0, u64::MAX, data[500].0 + 1]);
        probes.reverse();

        let config =
            || DiskConfig::with_block_size(512).device(DeviceModel::ssd()).buffer_blocks(64);
        let alex_config =
            AlexConfig { target_leaf_entries: 128, max_leaf_entries: 1024, ..Default::default() };
        let mut sync_alex = AlexIndex::with_config(Disk::in_memory(config()), alex_config).unwrap();
        sync_alex.bulk_load(&data).unwrap();
        let mut expected = Vec::new();
        sync_alex.disk().stats().reset();
        sync_alex.lookup_batch(&probes, &mut expected).unwrap();
        let sync_ns = sync_alex.disk().stats().device_ns();

        let mut queued_alex =
            AlexIndex::with_config(Disk::in_memory(config().queue_depth(8)), alex_config).unwrap();
        queued_alex.bulk_load(&data).unwrap();
        let mut got = Vec::new();
        queued_alex.disk().stats().reset();
        queued_alex.lookup_batch(&probes, &mut got).unwrap();
        let queued_ns = queued_alex.disk().stats().device_ns();

        assert_eq!(got, expected, "queue depth must never change the answers");
        assert!(
            queued_ns * 2 < sync_ns,
            "depth-8 header+slot waves ({queued_ns} ns) must overlap the depth-1 cost ({sync_ns} ns)"
        );
        assert!(queued_alex.disk().stats().overlap_saved_ns() > 0);
        assert!(queued_alex.disk().stats().max_inflight() > 1);
    }

    /// Runs `walk` on its own thread and fails the test if it has not
    /// returned after ten seconds, so a walk that never ends fails the test
    /// instead of hanging it.
    fn within_deadline<T: Send + 'static>(walk: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, result) = std::sync::mpsc::channel();
        let walker = std::thread::spawn(move || done.send(walk()));
        let answer = result
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the walk never returned");
        walker.join().expect("the walk's thread finished").expect("the answer was received");
        answer
    }

    #[test]
    fn a_cyclic_child_pointer_is_an_error_not_a_hang() {
        type Walk = fn(&AlexIndex) -> IndexResult<()>;
        let walks: [(&str, Walk); 3] = [
            ("lookup", |a| a.lookup(5).map(drop)),
            ("lookup_batch", |a| a.lookup_batch(&[5, 4_000, 9], &mut Vec::new())),
            ("scan", |a| a.scan(2, 10, &mut Vec::new()).map(drop)),
        ];
        for depth in [1, 8] {
            let disk = Disk::in_memory(DiskConfig::with_block_size(512).queue_depth(depth));
            let config = AlexConfig {
                target_leaf_entries: 128,
                max_leaf_entries: 1024,
                ..Default::default()
            };
            let mut a = AlexIndex::with_config(disk, config).unwrap();
            a.bulk_load(&entries(2_000, 3)).unwrap();
            // Forge an inner root whose every child pointer names itself.
            let start = a.disk.allocate(a.inner_file, 1).unwrap();
            let cyclic = ChildPtr { is_data: false, block: start };
            let model = LinearModel::new(0.0, 0.0);
            InnerNode::build(&a.disk, a.inner_file, start, model, &[cyclic, cyclic]).unwrap();
            a.root = cyclic;
            let a = Arc::new(a);
            for (name, walk) in walks {
                let a = Arc::clone(&a);
                let walked = within_deadline(move || walk(&a));
                assert!(
                    matches!(walked, Err(IndexError::Internal(_))),
                    "{name} at depth {depth}: {walked:?}"
                );
            }
        }
    }

    #[test]
    fn layouts_single_and_two_files() {
        for layout in [AlexLayout::SingleFile, AlexLayout::TwoFiles] {
            let disk = Disk::in_memory(DiskConfig::with_block_size(512));
            let mut a = AlexIndex::with_config(
                disk,
                AlexConfig {
                    layout,
                    target_leaf_entries: 128,
                    max_leaf_entries: 1024,
                    ..Default::default()
                },
            )
            .unwrap();
            let data = skewed(5_000);
            a.bulk_load(&data).unwrap();
            assert_eq!(a.layout(), layout);
            for &(k, v) in data.iter().step_by(401) {
                assert_eq!(a.lookup(k).unwrap(), Some(v));
            }
        }
    }

    #[test]
    fn maintenance_writes_show_up_in_the_breakdown() {
        let mut a = index(512);
        a.bulk_load(&entries(2_000, 6)).unwrap();
        for i in 0..300u64 {
            a.insert(i * 6 + 4, i).unwrap();
        }
        let b = a.insert_breakdown();
        assert_eq!(b.inserts, 300);
        assert!(b.reads(InsertStep::Search) > 0);
        assert!(b.writes(InsertStep::Insert) > 0);
        assert!(
            b.writes(InsertStep::Maintenance) >= 300,
            "every fresh insert persists the node statistics"
        );
    }

    #[test]
    fn insert_batch_matches_sequential_semantics() {
        let data = entries(2_000, 10);
        let mut seq = index(512);
        let mut bat = index(512);
        seq.bulk_load(&data).unwrap();
        bat.bulk_load(&data).unwrap();
        // Fresh keys, upserts of bulk keys and in-batch duplicates
        // (later must win), unsorted tail.
        let mut batch: Vec<Entry> = (0..3_000u64).map(|i| (i * 7 + 2, i)).collect();
        batch.push((1, 111));
        batch.push((9, 999));
        batch.push((9, 1000));
        for &(k, v) in &batch {
            seq.insert(k, v).unwrap();
        }
        bat.insert_batch(&batch).unwrap();
        assert_eq!(seq.len(), bat.len());
        assert_eq!(bat.lookup(9).unwrap(), Some(1000), "later duplicate wins");
        for &(k, _) in batch.iter().step_by(97) {
            assert_eq!(bat.lookup(k).unwrap(), seq.lookup(k).unwrap(), "key {k}");
        }
        for &(k, _) in data.iter().step_by(131) {
            assert_eq!(bat.lookup(k).unwrap(), seq.lookup(k).unwrap(), "bulk key {k}");
        }
        assert_eq!(bat.insert_breakdown().inserts, batch.len() as u64);
        let mut a = Vec::new();
        let mut b = Vec::new();
        seq.scan(0, 10_000, &mut a).unwrap();
        bat.scan(0, 10_000, &mut b).unwrap();
        assert_eq!(a, b, "scans must agree entry for entry");
    }

    #[test]
    fn insert_batch_writes_each_touched_header_once() {
        // A sorted co-located run: the sequential loop writes the leaf's
        // statistics header once per key, the batch once per touched node.
        let mut a = index(512);
        a.bulk_load(&entries(2_000, 10)).unwrap();
        let run: Vec<Entry> = (0..256u64).map(|i| (i * 10 + 5, i)).collect();
        let before = a.insert_breakdown();
        a.insert_batch(&run).unwrap();
        let delta = a.insert_breakdown().since(&before);
        assert_eq!(delta.inserts, 256);
        assert!(
            delta.writes(InsertStep::Maintenance) < 64,
            "batched maintenance must write headers per node, not per key (got {})",
            delta.writes(InsertStep::Maintenance)
        );
        // The deferred header did land: a re-loaded node sees the batch's
        // occupancy (lookups agree and the key count is exact).
        assert_eq!(a.len(), 2_000 + 256);
        for &(k, v) in run.iter().step_by(17) {
            assert_eq!(a.lookup(k).unwrap(), Some(v), "key {k}");
        }
    }

    #[test]
    fn empty_and_error_paths() {
        let mut a = index(512);
        assert!(matches!(a.lookup(1), Err(IndexError::NotInitialized)));
        a.bulk_load(&[]).unwrap();
        assert_eq!(a.lookup(5).unwrap(), None);
        for i in 0..50u64 {
            a.insert(i * 2, i).unwrap();
        }
        assert_eq!(a.len(), 50);
        for i in (0..50u64).step_by(7) {
            assert_eq!(a.lookup(i * 2).unwrap(), Some(i));
        }
        assert!(matches!(a.bulk_load(&[(1, 1)]), Err(IndexError::AlreadyLoaded)));
    }
}
