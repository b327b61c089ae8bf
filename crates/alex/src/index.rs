//! The on-disk ALEX tree and its [`DiskIndex`](lidx_core::DiskIndex)
//! implementation.

use std::sync::Arc;
use std::time::Instant;

use lidx_core::{
    index::validate_bulk_load, spend, Entry, IndexError, IndexKind, IndexRead, IndexResult,
    IndexStats, IndexWrite, InsertBreakdown, InsertStep, Key, MetaReader, MetaWriter, StepLaps,
    Value,
};
use lidx_models::LinearModel;
use lidx_storage::{BlockCursor, BlockId, BlockKind, Disk, OpClass, SeqHint, INVALID_BLOCK};

use crate::node::{Child, DataGeometry, DataNode, DataRoute, InnerNode};

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
    /// The root's entry: a data root carries its route, so a lookup on a
    /// one-node index reads no header either.
    root: Child,
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
            root: Child::Inner(INVALID_BLOCK),
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
        let root = Child::decode(r.bytes()?)?;
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
            root,
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
    ) -> IndexResult<Child> {
        self.height = self.height.max(depth + 1);
        if entries.len() <= self.config.target_leaf_entries {
            let node = self.make_data_node(entries, INVALID_BLOCK, INVALID_BLOCK)?;
            let child = Child::Data(node.route());
            leaves.push(node);
            return Ok(child);
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
            let child = Child::Data(node.route());
            leaves.push(node);
            return Ok(child);
        }

        let mut children: Vec<Option<Child>> = vec![None; fanout];
        for b in 0..fanout {
            let slice = &entries[boundaries[b]..boundaries[b + 1]];
            if !slice.is_empty() {
                children[b] = Some(self.build_subtree(slice, leaves, depth + 1)?);
            }
        }
        // Empty buckets share the nearest preceding child's entry (or the
        // first following one for leading empties), mirroring ALEX's
        // duplicated child pointers.
        let first_some = children
            .iter()
            .flatten()
            .next()
            .copied()
            .ok_or_else(|| IndexError::Internal("inner node built with no children".into()))?;
        let mut fill = first_some;
        let resolved: Vec<Child> = children
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
        Ok(Child::Inner(start))
    }

    /// Descends from the root to the data node covering `key`, returning the
    /// inner-node path (node handle + chosen child index) and the data node.
    /// The insert path's descent; reads go through [`AlexIndex::data_node`].
    fn descend(
        &self,
        cursor: &mut BlockCursor<'_>,
        key: Key,
    ) -> IndexResult<(Vec<(InnerNode, u32)>, DataNode)> {
        let mut path = Vec::new();
        let route = self.route(cursor, key, Some(&mut path))?;
        Ok((path, DataNode::load(cursor, self.data_file, route.block)?))
    }

    /// The data node covering `key`, read through `cursor`: the scan's
    /// descent, which keeps no path and so allocates nothing.
    fn data_node(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<DataNode> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        let route = self.route(cursor, key, None)?;
        DataNode::load(cursor, self.data_file, route.block)
    }

    /// Repoints the parent of an SMO'd node (or the root) to `new`: a new
    /// inner node after a split, or the expanded node's route.
    fn repoint_parent(
        &mut self,
        cursor: &mut BlockCursor<'_>,
        path: &[(InnerNode, u32)],
        old_block: BlockId,
        new: Child,
    ) -> IndexResult<()> {
        match path.last() {
            None => {
                self.root = new;
                Ok(())
            }
            Some((parent, idx)) => {
                // The model may map several consecutive indexes to the same
                // child; repoint every entry that referenced the old node.
                let is_old = |child: Child| matches!(child, Child::Data(r) if r.block == old_block);
                let mut i = *idx;
                loop {
                    parent.set_child(cursor, i, new)?;
                    if i == 0 {
                        break;
                    }
                    if is_old(parent.child_at(cursor, i - 1)?) {
                        i -= 1;
                    } else {
                        break;
                    }
                }
                let mut i = *idx + 1;
                while i < parent.header.children {
                    if is_old(parent.child_at(cursor, i)?) {
                        parent.set_child(cursor, i, new)?;
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
        cursor: &mut BlockCursor<'_>,
        prev: BlockId,
        next: BlockId,
        new_first: BlockId,
        new_last: BlockId,
    ) -> IndexResult<()> {
        if prev != INVALID_BLOCK {
            let mut n = DataNode::load(cursor, self.data_file, prev)?;
            n.header.next = new_first;
            n.write_header(cursor)?;
        }
        if next != INVALID_BLOCK {
            let mut n = DataNode::load(cursor, self.data_file, next)?;
            n.header.prev = new_last;
            n.write_header(cursor)?;
        }
        Ok(())
    }

    /// Runs a structural modification operation on a full data node: either
    /// expands it in place (doubling the capacity) or splits it downward into
    /// a new two-child inner node. The SMO is the learned-index pause the
    /// paper attributes tail latency to: it is counted, and its whole
    /// duration recorded, only once the rebuild has happened, so a rebuild
    /// that fails (on a damaged node's entries, say) is no SMO.
    fn smo(
        &mut self,
        cursor: &mut BlockCursor<'_>,
        path: &[(InnerNode, u32)],
        node: DataNode,
    ) -> IndexResult<()> {
        let started = Instant::now();
        self.rebuild(cursor, path, node)?;
        self.smo_count += 1;
        let telemetry = self.disk.telemetry();
        telemetry.record_ns(OpClass::Smo, started.elapsed().as_nanos() as u64);
        telemetry.add(OpClass::Smo, 1);
        Ok(())
    }

    /// The rebuild of an SMO ([`AlexIndex::smo`]).
    fn rebuild(
        &mut self,
        cursor: &mut BlockCursor<'_>,
        path: &[(InnerNode, u32)],
        node: DataNode,
    ) -> IndexResult<()> {
        let mut entries = Vec::with_capacity(node.header.count as usize);
        node.collect_entries(cursor, &mut entries)?;
        let old_blocks = node.total_blocks(self.disk.block_size());
        let prev = node.header.prev;
        let next = node.header.next;
        cursor.free(self.data_file, node.start, old_blocks);
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
            left.write_header(cursor)?;
            self.relink_neighbours(cursor, prev, next, left.start, right.start)?;

            let blocks = InnerNode::blocks_for(2, self.disk.block_size());
            let start = self.disk.allocate(self.inner_file, blocks)?;
            InnerNode::build(
                &self.disk,
                self.inner_file,
                start,
                model,
                &[Child::Data(left.route()), Child::Data(right.route())],
            )?;
            self.inner_nodes += 1;
            // The new data nodes sit one level below the replaced node (depth
            // `path.len()`); height is the deepest data node's depth + 1, as
            // bulk load sets it.
            self.height = self.height.max(path.len() as u32 + 2);
            self.repoint_parent(cursor, path, node.start, Child::Inner(start))?;
        } else {
            // Expansion: rebuild with double capacity and a retrained model.
            let capacity = grown_capacity.max(self.capacity_for(entries.len()) as usize) as u32;
            let geo = DataGeometry::for_capacity(capacity, self.disk.block_size());
            let start = self.disk.allocate(self.data_file, geo.total_blocks())?;
            let new =
                DataNode::build(&self.disk, self.data_file, start, capacity, &entries, prev, next)?;
            self.data_nodes += 1;
            self.relink_neighbours(cursor, prev, next, new.start, new.start)?;
            self.repoint_parent(cursor, path, node.start, Child::Data(new.route()))?;
        }
        Ok(())
    }

    /// Attempts the actual slot insertion into `node`. Returns `false` only
    /// when the insert would take the node past its density bound, so an
    /// SMO is required first. Under the bound a fresh key shifts toward the
    /// closest gap ([`DataNode::closest_gap`]): a node under its density
    /// bound always has one, so a bitmap that shows none is corrupt, an
    /// error rather than a reason to expand.
    fn try_insert_into(
        &mut self,
        cursor: &mut BlockCursor<'_>,
        node: &mut DataNode,
        key: Key,
        value: Value,
    ) -> IndexResult<bool> {
        let capacity = node.header.capacity;
        if (node.header.count + 1) as f64 > capacity as f64 * self.config.max_density {
            return Ok(false);
        }
        // An empty node has nothing to search: the key becomes its first.
        let lb = if node.header.count == 0 { 0 } else { node.lower_bound(cursor, key)? };

        // Upsert: overwrite every duplicate of an existing key so gap copies
        // stay consistent with the real slot.
        if lb < capacity {
            let (k, _) = node.read_slot(cursor, lb)?;
            if k == key && node.header.count > 0 {
                // Ensure the key really exists (a gap can duplicate a key only
                // if the real occurrence exists somewhere in the node).
                let mut s = lb;
                while s < capacity {
                    let (k2, _) = node.read_slot(cursor, s)?;
                    if k2 != key {
                        break;
                    }
                    node.write_slot(cursor, s, (key, value))?;
                    s += 1;
                }
                return Ok(true);
            }
        }

        // Fresh insert: shift toward the closest gap.
        let gap = node.closest_gap(cursor, lb)?.ok_or_else(|| {
            IndexError::Internal(format!(
                "ALEX data node at block {} holds {} of {capacity} slots, but its bitmap shows \
                 no free slot",
                node.start, node.header.count
            ))
        })?;
        node.set_bit(cursor, gap, true)?;
        let shifts = if gap == lb {
            // The lower bound itself is free only ahead of the node's first
            // entry (or in an empty node): the key becomes the first entry,
            // and the gaps up to the next entry now copy it.
            let next = if lb + 1 < capacity {
                node.find_bit(cursor, lb + 1, capacity - 1, true)?
            } else {
                None
            };
            node.fill_slots(cursor, lb, next.unwrap_or(capacity) - 1, (key, value))?;
            0
        } else {
            node.shift_insert(cursor, lb, gap, (key, value))?
        };

        node.header.count += 1;
        node.header.num_inserts += 1;
        node.header.num_shifts += u64::from(shifts);
        self.key_count += 1;
        Ok(true)
    }

    /// Routes `key` through the inner levels only, returning the covering
    /// data node's route (its start block, capacity and model, as its
    /// parent's entry or the root carries them) without touching the data
    /// file, and pushing each inner node with the child index taken onto
    /// `path` if one is given. A point read goes from the route straight to
    /// the predicted slot block; the batch routes every probe first, so
    /// those slot blocks can ride one submission wave instead of being paid
    /// one blocking latency at a time. A path holds fewer than `height`
    /// inner nodes, so a walk that meets more has followed a cyclic child
    /// entry: an error, not a hang.
    fn route(
        &self,
        cursor: &mut BlockCursor<'_>,
        key: Key,
        mut path: Option<&mut Vec<(InnerNode, u32)>>,
    ) -> IndexResult<DataRoute> {
        let mut child = self.root;
        let mut budget = u64::from(self.height);
        loop {
            let block = match child {
                Child::Data(route) => return Ok(route),
                Child::Inner(block) => block,
            };
            spend(&mut budget, "ALEX route")?;
            let node = InnerNode::load(cursor, self.inner_file, block)?;
            let idx = node.child_index(key);
            child = node.child_at(cursor, idx)?;
            if let Some(path) = path.as_deref_mut() {
                path.push((node, idx));
            }
        }
    }
}

/// The leaf a batched insert is currently filling, kept so that follow-up
/// keys that provably route to it skip the descent.
struct CachedLeaf {
    /// The inner-node path that led here, kept for a potential SMO.
    path: Vec<(InnerNode, u32)>,
    node: DataNode,
    /// A key known to route to this node; by monotonicity of the model
    /// routing, every key in `[witness, max]` provably descends here.
    witness: Key,
    /// The node's largest stored key, fetched lazily (one slot read) on the
    /// first reuse attempt. A later key of the batch can land after it (a
    /// key past the node's last one shifts toward a left gap), so `max` may
    /// sit below the node's true last key. That only makes the cache route
    /// fewer keys here, never a key that belongs elsewhere.
    max: Option<Key>,
}

impl IndexRead for AlexIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Alex
    }

    fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    /// A point lookup reads the inner levels and then the predicted slot
    /// block straight from the route its parent's entry carries: no
    /// data-node header. An entry carries no count, and the only empty data
    /// node is the root after an empty bulk load, so an empty index answers
    /// `None` without a read.
    fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        if self.key_count == 0 {
            return Ok(None);
        }
        let mut cursor = self.disk.cursor();
        let route = self.route(&mut cursor, key, None)?;
        route.slots(&self.disk, self.data_file)?.lookup(&mut cursor, key)
    }

    /// Batched lookups sort the probe keys and run in three phases. Probes
    /// are routed through the inner levels first, then every probe's
    /// predicted slot block, computed from its route, is prefetched as one
    /// wave, and finally the in-node searches run through one cursor. No
    /// data-node header is read. Above queue depth 1 the searches consume
    /// the parked frames, with only exponential-search spillover reads left
    /// synchronous; at depth 1 the prefetch does nothing and the searches
    /// read on demand, co-located probes sharing each slot block through the
    /// cursor.
    fn lookup_batch(&self, keys: &[Key], out: &mut Vec<Option<Value>>) -> IndexResult<()> {
        out.clear();
        if keys.is_empty() {
            return Ok(());
        }
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        out.resize(keys.len(), None);
        if self.key_count == 0 {
            return Ok(());
        }
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_unstable_by_key(|&i| keys[i as usize]);

        // Phase 1: route every probe; model routing is monotone in the key,
        // so probes landing in the same data node are consecutive in sorted
        // order and grouping is a plain run-length pass. Each group is a
        // node's slot array and the end of its run of `order`.
        let mut groups: Vec<(DataRoute, usize)> = Vec::new();
        let mut cursor = self.disk.cursor();
        for (at, &i) in order.iter().enumerate() {
            let route = self.route(&mut cursor, keys[i as usize], None)?;
            if groups.last().map(|&(r, _)| r.block) != Some(route.block) {
                groups.push((route, at));
            }
            groups.last_mut().expect("group exists").1 = at + 1;
        }

        // Phase 2: one wave prefetching every probe's predicted slot block.
        let mut slots = Vec::with_capacity(groups.len());
        let mut slot_blocks = std::collections::BTreeSet::new();
        let mut from = 0;
        for &(route, end) in &groups {
            let node = route.slots(&self.disk, self.data_file)?;
            for &i in &order[from..end] {
                slot_blocks.insert(node.locate(node.predict(keys[i as usize])).0);
            }
            slots.push(node);
            from = end;
        }
        let mut q = self.disk.read_queue();
        for &block in &slot_blocks {
            q.prefetch(self.data_file, block, BlockKind::Leaf, SeqHint::Auto)?;
        }
        q.flush()?;

        // Phase 3: search each node, through a cursor that starts after the
        // wave.
        let mut cursor = self.disk.cursor();
        let mut from = 0;
        for (node, &(_, end)) in slots.iter().zip(&groups) {
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
        // One scan cursor carries the route (point-class inner nodes), the
        // first node's header and search, and the stream (scan-class).
        let mut cursor = self.disk.scan_cursor();
        let mut node = self.data_node(&mut cursor, start)?;
        let mut slot = node.lower_bound(&mut cursor, start)?;
        // A sound sibling chain holds `data_nodes` nodes, the walk's budget:
        // a walk that would visit more follows a cyclic link.
        let mut budget = self.data_nodes;
        loop {
            spend(&mut budget, "ALEX sibling walk")?;
            // The bitmap distinguishes real entries from gap duplicates — the
            // extra utility I/O the paper highlights for ALEX scans (S3).
            // Here its bits start in the header block the node's load read;
            // the scan fetches each spill block and each slot block once and
            // walks them in memory.
            node.scan_slots(&mut cursor, slot, start, count, out)?;
            if out.len() >= count || node.header.next == INVALID_BLOCK {
                return Ok(out.len());
            }
            let next = node.header.next;
            node = DataNode::load(&mut cursor, self.data_file, next)?;
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
        let mut cursor = self.disk.cursor();
        for i in 0..leaves.len() {
            leaves[i].header.prev = if i > 0 { leaves[i - 1].start } else { INVALID_BLOCK };
            leaves[i].header.next =
                if i + 1 < leaves.len() { leaves[i + 1].start } else { INVALID_BLOCK };
            leaves[i].write_header(&mut cursor)?;
        }
        self.key_count = entries.len() as u64;
        self.loaded = true;
        Ok(())
    }

    /// The one write path (`insert` is a batch of one), run on one
    /// write-back cursor ([`Disk::write_back`]): every read and write of
    /// the batch goes through it, so a block the batch writes again — the
    /// node's slot blocks, its block 0 with the bitmap bit and then the
    /// statistics header of every fresh insert — reaches the disk once per
    /// batch, charged at its first write. A key reuses the cached leaf when it
    /// provably routes there (`witness <= key <= max`, monotone model
    /// routing); any other key descends afresh, reading the header the
    /// batch last wrote. SMOs receive the cached leaf and its parent path.
    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        let mut laps = StepLaps::start(&self.disk);
        let disk = Arc::clone(&self.disk);
        disk.write_back(|cursor| {
            let mut cached: Option<CachedLeaf> = None;
            for &(key, value) in entries {
                loop {
                    // Route the key: reuse the cached leaf when possible.
                    let mut hit = false;
                    if let Some(c) = cached.as_mut() {
                        if key >= c.witness {
                            if c.max.is_none() && c.node.header.count > 0 {
                                c.max = Some(c.node.max_key(cursor)?);
                            }
                            hit = c.max.is_some_and(|m| key <= m);
                        }
                    }
                    if !hit {
                        let (path, node) = self.descend(cursor, key)?;
                        cached = Some(CachedLeaf { path, node, witness: key, max: None });
                    }
                    laps.lap(&mut self.breakdown, InsertStep::Search);

                    let c = cached.as_mut().expect("cached leaf just resolved");
                    let prior_count = c.node.header.count;
                    if self.try_insert_into(cursor, &mut c.node, key, value)? {
                        laps.lap(&mut self.breakdown, InsertStep::Insert);
                        if c.node.header.count != prior_count {
                            // The updated occupancy and cost-model statistics
                            // are the maintenance of Fig. 6. Unless the bit
                            // the Insert step set lies in a spill block, they
                            // share its block 0, so this write is free.
                            c.node.write_header(cursor)?;
                            laps.lap(&mut self.breakdown, InsertStep::Maintenance);
                        }
                        break;
                    }

                    // Too full: SMO with the cached leaf and its parent
                    // path, then retry this key. The failed fill attempt's
                    // reads are part of the SMO's cost.
                    let c = cached.take().expect("cached leaf just resolved");
                    self.smo(cursor, &c.path, c.node)?;
                    laps.lap(&mut self.breakdown, InsertStep::Smo);
                }
                self.breakdown.finish_insert();
            }
            Ok(())
        })
    }

    fn insert_breakdown(&self) -> InsertBreakdown {
        self.breakdown
    }

    fn save_meta(&mut self) -> IndexResult<Vec<u8>> {
        // Node blocks (inner and data, headers included) are on disk once a
        // batch returns, so the handle's plain fields are the whole state.
        let mut w = MetaWriter::new();
        w.u32(self.inner_file)
            .u32(self.data_file)
            .bytes(&self.root.encode())
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
    use crate::node::HEADER_BYTES;
    use lidx_storage::{BlockKind, DiskConfig};
    use proptest::prelude::*;

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

    /// Depth of the deepest data node below `child` (a data node at
    /// `child` itself is depth `depth`).
    fn deepest_data_node(a: &AlexIndex, child: Child, depth: u32) -> u32 {
        let Child::Inner(block) = child else { return depth };
        let node = InnerNode::load(&mut a.disk.cursor(), a.inner_file, block).unwrap();
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

    /// A cold point lookup and a cold batch go from the parent's entry
    /// straight to the predicted slot block: no data node's block 0 (its
    /// header) comes into the pool, no bitmap block is read, every `Leaf`
    /// read is a slot block, and every answer is right. The pool holds the
    /// whole index, so every block a read brings in stays there to be seen.
    #[test]
    fn a_lookup_reads_no_data_node_header() {
        for depth in [1, 8] {
            let disk = Disk::in_memory(
                DiskConfig::with_block_size(512).buffer_blocks(1 << 16).queue_depth(depth),
            );
            let config = AlexConfig {
                target_leaf_entries: 128,
                max_leaf_entries: 1024,
                ..Default::default()
            };
            let mut a = AlexIndex::with_config(disk, config).unwrap();
            let data = skewed(20_000);
            a.bulk_load(&data).unwrap();
            let headers: Vec<BlockId> = data_nodes(&a).iter().map(|n| n.start).collect();
            assert!(headers.len() > 100);
            let pooled_headers = |a: &AlexIndex| {
                headers.iter().filter(|&&h| a.disk.buffer_contains(a.data_file, h)).count()
            };
            let probes: Vec<Entry> = data.iter().step_by(997).copied().collect();
            for &(k, v) in &probes {
                a.disk.clear_buffer();
                let before = a.disk.snapshot();
                assert_eq!(a.lookup(k).unwrap(), Some(v), "key {k}");
                let delta = a.disk.snapshot().since(&before);
                assert!(delta.reads_of(BlockKind::Leaf) >= 1, "key {k}");
                assert_eq!(delta.reads_of(BlockKind::Utility), 0, "key {k}");
                assert_eq!(pooled_headers(&a), 0, "key {k} read a header at depth {depth}");
            }
            a.disk.clear_buffer();
            let before = a.disk.snapshot();
            let absent = data[data.len() - 1].0 + 1;
            let keys: Vec<Key> = probes.iter().map(|e| e.0).chain([absent, u64::MAX]).collect();
            let mut out = Vec::new();
            a.lookup_batch(&keys, &mut out).unwrap();
            let delta = a.disk.snapshot().since(&before);
            let want: Vec<Option<Value>> =
                probes.iter().map(|e| Some(e.1)).chain([None, None]).collect();
            assert_eq!(out, want);
            assert!(delta.reads_of(BlockKind::Leaf) >= probes.len() as u64 / 2);
            assert_eq!(delta.reads_of(BlockKind::Utility), 0);
            assert_eq!(pooled_headers(&a), 0, "the batch read a header at depth {depth}");
        }
    }

    /// An empty bulk load leaves one empty data node, whose entry carries
    /// no count: lookups answer `None` without a device read (its gap
    /// slots hold zero filler that a search for key 0 would find). After
    /// one insert, the key answers.
    #[test]
    fn an_empty_index_answers_lookups_without_a_read() {
        let mut a = index(512);
        a.bulk_load(&[]).unwrap();
        a.disk.clear_buffer();
        let before = a.disk.snapshot();
        assert_eq!((a.lookup(0).unwrap(), a.lookup(u64::MAX).unwrap()), (None, None));
        let mut out = Vec::new();
        a.lookup_batch(&[0, 7, u64::MAX], &mut out).unwrap();
        assert_eq!(out, [None, None, None]);
        assert_eq!(a.disk.snapshot().since(&before).reads(), 0);
        a.insert(7, 70).unwrap();
        assert_eq!((a.lookup(7).unwrap(), a.lookup(0).unwrap()), (Some(70), None));
        a.lookup_batch(&[0, 7, u64::MAX], &mut out).unwrap();
        assert_eq!(out, [None, Some(70), None]);
    }

    /// Every entry of `a`'s tree: the root's, then each inner node's, in
    /// depth-first order.
    fn child_entries(a: &AlexIndex) -> Vec<Child> {
        let mut entries = vec![a.root];
        let mut at = 0;
        while at < entries.len() {
            if let Child::Inner(block) = entries[at] {
                let mut cursor = a.disk.cursor();
                let node = InnerNode::load(&mut cursor, a.inner_file, block).unwrap();
                for i in 0..node.header.children {
                    entries.push(node.child_at(&mut cursor, i).unwrap());
                }
            }
            at += 1;
        }
        entries
    }

    /// Each data entry's route (start block, capacity, model) equals its
    /// child's header after bulk load and after a stream of inserts whose
    /// SMOs both expand nodes and split them downward: a split adds one
    /// inner node and an expansion none, so more SMOs than new inner nodes,
    /// and at least one new inner node, means both kinds happened.
    #[test]
    fn every_data_entry_matches_its_childs_header() {
        let check = |a: &AlexIndex| {
            let mut cursor = a.disk.cursor();
            let mut seen = 0;
            for child in child_entries(a) {
                if let Child::Data(route) = child {
                    let node = DataNode::load(&mut cursor, a.data_file, route.block).unwrap();
                    assert_eq!(route, node.route(), "entry for block {}", route.block);
                    seen += 1;
                }
            }
            assert!(seen as u64 >= a.data_nodes);
        };
        let mut a = index(512);
        a.bulk_load(&entries(3_000, 10)).unwrap();
        check(&a);
        let inner_before = a.stats().inner_nodes;
        for i in 0..3_000u64 {
            let key = if i < 1_500 { i * 20 + 3 } else { (i - 1_500) * 2 + 5 };
            a.insert(key, i).unwrap();
        }
        let s = a.stats();
        let splits = s.inner_nodes - inner_before;
        assert!(splits > 0 && s.smo_count > splits, "both kinds of SMO: {s:?}");
        check(&a);
        // A reload carries the root's entry in its meta.
        let meta = a.save_meta().unwrap();
        let reopened = AlexIndex::load(Arc::clone(&a.disk), a.config, &meta).unwrap();
        assert_eq!(reopened.root, a.root);
        check(&reopened);
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

    /// A scan walks nodes in key order and reads each node's bitmap to skip
    /// gap copies. The bitmap bits of a node of at most `(bs -
    /// HEADER_BYTES)·8` slots sit in its header block, so the scan reads no
    /// `Utility` block; a node whose bitmap spills reads its spill block.
    #[test]
    fn scan_crosses_data_nodes_in_key_order() {
        let mut a = index(512);
        let data = skewed(10_000);
        a.bulk_load(&data).unwrap();
        let start_idx = 4_321;
        let mut out = Vec::new();
        let n = a.scan(data[start_idx].0, 500, &mut out).unwrap();
        assert_eq!(n, 500);
        assert_eq!(out, data[start_idx..start_idx + 500]);
        let before = a.disk().snapshot();
        a.scan(data[100].0, 200, &mut out).unwrap();
        assert_eq!(out, data[100..300], "the bitmap skips every gap copy");
        let delta = a.disk().snapshot().since(&before);
        assert_eq!(delta.reads_of(BlockKind::Utility), 0, "the bitmap is in the header block");
        assert!(delta.reads_of(BlockKind::Leaf) > 0);

        let (a, data) = one_spilled_node();
        let before = a.disk().snapshot();
        a.scan(data[0].0, data.len(), &mut out).unwrap();
        assert_eq!(out, data);
        let delta = a.disk().snapshot().since(&before);
        assert_eq!(delta.reads_of(BlockKind::Utility), 1, "one spill block");
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
            let cyclic = Child::Inner(start);
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
    fn a_cyclic_sibling_link_fails_the_scan_instead_of_repeating_rows() {
        let config =
            AlexConfig { target_leaf_entries: 128, max_leaf_entries: 1024, ..Default::default() };
        let mut a =
            AlexIndex::with_config(Disk::in_memory(DiskConfig::with_block_size(512)), config)
                .unwrap();
        let data = entries(2_000, 3);
        a.bulk_load(&data).unwrap();
        assert!(a.data_nodes > 2);
        // The last data node links back to the first.
        let mut cursor = a.disk.cursor();
        let first = a.route(&mut cursor, Key::MIN, None).unwrap().block;
        let last = a.route(&mut cursor, Key::MAX, None).unwrap().block;
        let mut node = DataNode::load(&mut cursor, a.data_file, last).unwrap();
        assert_eq!(node.header.next, INVALID_BLOCK);
        node.header.next = first;
        node.write_header(&mut cursor).unwrap();
        drop(cursor);
        // The row budget, four times the stored keys, bounds what a walk
        // that repeats rows collects.
        let a = Arc::new(a);
        let rows = 4 * data.len();
        let scan = within_deadline(move || a.scan(Key::MIN, rows, &mut Vec::new()));
        assert!(matches!(scan, Err(IndexError::Internal(_))), "the scan returned {scan:?}");
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

    /// Every fresh insert persists the node statistics, and the header
    /// shares block 0 with the bitmap bit the Insert step already charged:
    /// the Maintenance step writes no block of its own.
    #[test]
    fn maintenance_writes_show_up_in_the_breakdown() {
        let mut a = index(512);
        a.bulk_load(&entries(2_000, 6)).unwrap();
        // Three keys into each of 50 spots between neighbouring bulk keys:
        // a few per node, under every density bound, and enough to shift.
        for i in (0..2_000u64).step_by(40) {
            for d in 2..5 {
                a.insert(i * 6 + d, i).unwrap();
            }
        }
        let b = a.insert_breakdown();
        assert_eq!((b.inserts, a.stats().smo_count), (150, 0));
        assert!(b.reads(InsertStep::Search) > 0);
        assert!(b.writes(InsertStep::Insert) >= 2 * 150, "block 0 and a slot block per insert");
        assert_eq!(b.writes(InsertStep::Maintenance), 0);
        assert_eq!(b.device_ns(InsertStep::Maintenance), 0);
        // A reload sees the statistics every insert wrote.
        let meta = a.save_meta().unwrap();
        let reopened = AlexIndex::load(Arc::clone(&a.disk), a.config, &meta).unwrap();
        let nodes = data_nodes(&reopened);
        assert_eq!(nodes.iter().map(|n| n.header.num_inserts).sum::<u64>(), 150);
        assert!(nodes.iter().map(|n| n.header.num_shifts).sum::<u64>() > 0);
        assert_eq!(nodes.iter().map(|n| u64::from(n.header.count)).sum::<u64>(), 2_150);
    }

    /// On 4 KiB blocks a per-key fresh insert whose shift stays in one slot
    /// block stores exactly two blocks: block 0, with the bit and the
    /// statistics, and the slot block. It reads no bitmap block.
    #[test]
    fn a_fresh_insert_stores_its_header_block_and_one_slot_block() {
        let mut a = index(4096);
        a.bulk_load(&entries(2_000, 10)).unwrap();
        let root = a.route(&mut a.disk.cursor(), 505, None).unwrap().block;
        let node = DataNode::load(&mut a.disk.cursor(), a.data_file, root).unwrap();
        assert_eq!(node.geometry(4096), DataGeometry { bitmap_blocks: 0, slot_blocks: 1 });
        let before = a.disk().snapshot();
        a.insert(505, 1).unwrap();
        let delta = a.disk().snapshot().since(&before);
        assert_eq!((delta.writes(), delta.writes_of(BlockKind::Leaf)), (2, 2));
        assert_eq!(delta.reads_of(BlockKind::Utility), 0);
        assert_eq!(a.lookup(505).unwrap(), Some(1));
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
        // A sorted co-located run: the batch writes each leaf's statistics
        // header per key, through its write-back cursor, into the block 0
        // whose bitmap bit the Insert step already charged, so Maintenance is
        // charged nothing and block 0 is stored once per touched node.
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
        // The stored header is the last one written: a re-loaded node sees
        // the batch's occupancy (lookups agree and the key count is exact).
        assert_eq!(a.len(), 2_000 + 256);
        for &(k, v) in run.iter().step_by(17) {
            assert_eq!(a.lookup(k).unwrap(), Some(v), "key {k}");
        }
    }

    /// One bulk-loaded data node of 100 keys at stride 10 (capacity 143,
    /// density bound 0.8·143 = 114.4 entries).
    fn one_data_node() -> AlexIndex {
        let mut a = index(512);
        a.bulk_load(&entries(100, 10)).unwrap();
        assert_eq!((a.stats().leaf_nodes, a.stats().inner_nodes), (1, 0));
        a
    }

    /// Regression: a node expands only at its density bound. Keys after the
    /// node's last key and keys into its packed right edge have no gap to
    /// their right; they shift toward the nearest gap on the left instead
    /// of doubling the node.
    #[test]
    fn a_node_under_its_density_bound_never_expands() {
        let mut a = one_data_node();
        let (height, blocks) = (a.stats().height, a.storage_blocks());
        let last = entries(100, 10).last().unwrap().0;
        // Seven keys after the last key pack the right edge; seven more
        // land between them. 100 + 14 = 114 entries, just below the bound.
        let after: Vec<Key> = (1..=7).map(|i| last + 10 * i).collect();
        let edge: Vec<Key> = after.iter().map(|k| k - 5).collect();
        let root = a.route(&mut a.disk.cursor(), Key::MIN, None).unwrap().block;
        let node = |a: &AlexIndex| DataNode::load(&mut a.disk.cursor(), a.data_file, root).unwrap();
        for (i, &k) in after.iter().chain(&edge).enumerate() {
            a.insert(k, k + 1).unwrap();
            assert_eq!(a.stats().smo_count, 0, "key {k} expanded the node");
            assert_eq!(node(&a).header.count, 101 + i as u32);
        }
        let full = node(&a);
        let capacity = full.header.capacity;
        let last_slot = full.find_bit(&mut a.disk.cursor(), capacity - 1, capacity - 1, true);
        assert_eq!(last_slot.unwrap(), Some(capacity - 1), "a packed right edge");
        let bound = capacity as f64 * a.config.max_density;
        assert!(full.header.count as f64 <= bound && full.header.count as f64 + 1.0 > bound);
        let s = a.stats();
        assert_eq!((s.smo_count, s.height, a.storage_blocks()), (0, height, blocks), "{s:?}");
        for (k, v) in
            entries(100, 10).into_iter().chain(after.iter().chain(&edge).map(|&k| (k, k + 1)))
        {
            assert_eq!(a.lookup(k).unwrap(), Some(v), "key {k}");
        }
        // The next fresh key crosses the bound and expands the node.
        a.insert(5, 5).unwrap();
        assert_eq!(a.stats().smo_count, 1);
    }

    /// One bulk-loaded data node of 3 000 keys at stride 10 on 512-byte
    /// blocks (capacity 4 286): its bitmap spills one block past block 0.
    fn one_spilled_node() -> (AlexIndex, Vec<Entry>) {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let config = AlexConfig { target_leaf_entries: 4_096, ..Default::default() };
        let mut a = AlexIndex::with_config(disk, config).unwrap();
        let data = entries(3_000, 10);
        a.bulk_load(&data).unwrap();
        let node = data_nodes(&a).remove(0);
        assert_eq!((a.data_nodes, node.geometry(512).bitmap_blocks), (1, 1));
        (a, data)
    }

    /// A node under its density bound always has a gap, so a bitmap with
    /// every bit set is corrupt: the insert fails with a typed error and
    /// starts no expansion. The bitmap is forged in block 0's tail, and for
    /// a node whose bitmap spills, in its spill block too.
    #[test]
    fn a_bitmap_with_no_gap_is_an_error_not_an_expansion() {
        for (mut a, len) in [(one_data_node(), 100), (one_spilled_node().0, 3_000)] {
            let mut cursor = a.disk.cursor();
            let root = a.route(&mut cursor, Key::MIN, None).unwrap().block;
            let node = DataNode::load(&mut cursor, a.data_file, root).unwrap();
            let mut block0 = cursor.read(a.data_file, root, BlockKind::Leaf).unwrap().to_vec();
            block0[HEADER_BYTES..].fill(0xFF);
            cursor.write(a.data_file, root, BlockKind::Leaf, &block0).unwrap();
            for spill in 1..=node.geometry(512).bitmap_blocks {
                cursor.write(a.data_file, root + spill, BlockKind::Utility, &[0xFF; 512]).unwrap();
            }
            drop(cursor);
            for key in [0, 15, 555, 10_000] {
                let inserted = a.insert(key, 1);
                assert!(
                    matches!(inserted, Err(IndexError::Internal(_))),
                    "key {key}: {inserted:?}"
                );
            }
            assert_eq!((a.stats().smo_count, a.len()), (0, len));
            assert_eq!(a.lookup(11).unwrap(), Some(12));
        }
    }

    /// A bitmap that marks gap copies as entries makes a node's slots
    /// repeat keys. An insert that needs an SMO collects them and fails
    /// with a typed error instead of rebuilding the node with duplicates,
    /// and the node stays as it was.
    #[test]
    fn a_bitmap_that_marks_gap_copies_fails_the_smo() {
        let mut a = one_data_node();
        let root = a.route(&mut a.disk.cursor(), Key::MIN, None).unwrap().block;
        let mut node = DataNode::load(&mut a.disk.cursor(), a.data_file, root).unwrap();
        for slot in 0..node.header.capacity {
            node.set_bit(&mut a.disk.cursor(), slot, true).unwrap();
        }
        // 116 entries would cross the bound 0.8 · 143 = 114.4.
        node.header.count = 115;
        node.write_header(&mut a.disk.cursor()).unwrap();
        let inserted = a.insert(5, 5);
        assert!(matches!(inserted, Err(IndexError::Internal(_))), "{inserted:?}");
        assert_eq!((a.len(), a.stats().leaf_nodes), (100, 1));
        assert_eq!(a.lookup(11).unwrap(), Some(12));
        // The SMO never happened: it is neither counted nor timed.
        let telemetry = a.disk.telemetry();
        assert_eq!(a.stats().smo_count, 0);
        assert_eq!(telemetry.counter(OpClass::Smo), 0);
        assert_eq!(telemetry.histogram(OpClass::Smo).count(), 0);
    }

    /// Every data node of `a`, from the leftmost along the sibling chain.
    fn data_nodes(a: &AlexIndex) -> Vec<DataNode> {
        let mut cursor = a.disk.cursor();
        let mut block = a.route(&mut cursor, Key::MIN, None).unwrap().block;
        let mut nodes = Vec::new();
        while block != INVALID_BLOCK {
            let node = DataNode::load(&mut cursor, a.data_file, block).unwrap();
            block = node.header.next;
            nodes.push(node);
        }
        nodes
    }

    /// The gap-copy invariant, read straight from the slots and bitmap of
    /// every data node: real entries strictly increase, each gap copies its
    /// nearest real entry to the left, leading gaps copy the first entry,
    /// and the bitmap counts `count` entries and marks no slot past the
    /// capacity.
    fn check_gap_copies(a: &AlexIndex) -> Result<(), String> {
        let mut cursor = a.disk.cursor();
        for node in data_nodes(a) {
            let capacity = node.header.capacity;
            let bits: Vec<bool> = (0..capacity)
                .map(|s| node.find_bit(&mut cursor, s, s, true).unwrap() == Some(s))
                .collect();
            let slots: Vec<Entry> =
                (0..capacity).map(|s| node.read_slot(&mut cursor, s).unwrap()).collect();
            let real: Vec<Entry> =
                (0..capacity as usize).filter(|&s| bits[s]).map(|s| slots[s]).collect();
            if real.len() != node.header.count as usize {
                return Err(format!(
                    "node {}: {} bits for count {}",
                    node.start,
                    real.len(),
                    node.header.count
                ));
            }
            if !real.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("node {}: real entries out of order", node.start));
            }
            let bs = a.disk.block_size();
            let bitmap_end =
                ((1 + node.geometry(bs).bitmap_blocks as usize) * bs - HEADER_BYTES) as u32 * 8;
            if capacity < bitmap_end {
                if let Some(s) = node.find_bit(&mut cursor, capacity, bitmap_end - 1, true).unwrap()
                {
                    return Err(format!("node {}: bit {s} past capacity {capacity}", node.start));
                }
            }
            let Some(&first) = real.first() else { continue };
            let mut copy = first;
            for (s, &slot) in slots.iter().enumerate() {
                if bits[s] {
                    copy = slot;
                } else if slot != copy {
                    return Err(format!(
                        "node {}: gap {s} holds {slot:?}, not {copy:?}",
                        node.start
                    ));
                }
            }
        }
        Ok(())
    }

    /// For every data node whose bitmap spills past block 0: `find_bit`
    /// from either side of block 0's last bit to the other, for both bit
    /// values, and `scan_slots` over that boundary agree with a bit-by-bit
    /// reading of the bitmap and the slots.
    fn check_spill_boundary(a: &AlexIndex) -> Result<(), String> {
        let bs = a.disk.block_size();
        let edge = ((bs - HEADER_BYTES) * 8) as u32;
        let mut cursor = a.disk.cursor();
        for node in data_nodes(a) {
            let capacity = node.header.capacity;
            if node.geometry(bs).bitmap_blocks == 0 {
                continue;
            }
            let (lo, hi) = (edge.saturating_sub(200), (edge + 200).min(capacity - 1));
            let bits: Vec<bool> = (lo..=hi)
                .map(|s| node.find_bit(&mut cursor, s, s, true).unwrap() == Some(s))
                .collect();
            let naive = |from: u32, toward: u32, want: bool| -> Option<u32> {
                let hit = |&s: &u32| bits[(s - lo) as usize] == want;
                if toward >= from {
                    (from..=toward).find(hit)
                } else {
                    (toward..=from).rev().find(hit)
                }
            };
            for (from, toward) in
                [(lo, hi), (hi, lo), (edge - 1, hi), (edge, lo), (edge - 64, edge)]
            {
                for want in [false, true] {
                    let got = node.find_bit(&mut cursor, from, toward, want).unwrap();
                    if got != naive(from, toward, want) {
                        return Err(format!(
                            "node {}: find_bit {from} -> {toward} for {want} gave {got:?}",
                            node.start
                        ));
                    }
                }
            }
            let real: Vec<Entry> = (lo..=hi)
                .filter(|&s| bits[(s - lo) as usize])
                .map(|s| node.read_slot(&mut cursor, s).unwrap())
                .collect();
            let mut scanned = Vec::new();
            node.scan_slots(&mut cursor, lo, Key::MIN, real.len(), &mut scanned).unwrap();
            if scanned != real {
                return Err(format!("node {}: scan_slots over slot {edge} disagrees", node.start));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// ALEX against a `BTreeMap` through per-key `insert` and multi-key
        /// `insert_batch` (the cached-leaf path) into one data node of 2 858
        /// to 5 143 slots at 512-byte blocks: 32 slots per slot block, and
        /// a bitmap that keeps 3 648 bits beside the header and spills into
        /// a block of its own past them (from the start or after the node
        /// grows). A hot cluster of keys around slot 3 648, or the node's
        /// last slot block if it is smaller, packs that region, so shifts in
        /// both directions cross slot-block and bitmap-block boundaries; keys
        /// below the minimum and above the maximum take the node's edges. A
        /// far outlier in the bulk set packs the other keys into the middle
        /// of the node, behind leading gaps that the first key below the
        /// minimum is copied into. After every step each key is looked up, a
        /// full scan matches, the gap copies hold, and `find_bit` in both
        /// directions and `scan_slots` across block 0's end agree with a
        /// bit-by-bit reading of the bitmap.
        #[test]
        fn closest_gap_inserts_keep_gap_copies_and_match_an_oracle(
            bulk in 2_000u64..3_600,
            outlier in any::<bool>(),
            steps in proptest::collection::vec(
                (any::<bool>(), proptest::collection::vec((0u8..4, any::<u64>()), 1..120)),
                1..6,
            ),
        ) {
            let disk = Disk::in_memory(DiskConfig::with_block_size(512));
            let config = AlexConfig { target_leaf_entries: 4_096, ..Default::default() };
            let mut a = AlexIndex::with_config(disk, config).unwrap();
            let mut data: Vec<Entry> = (0..bulk).map(|i| (1_000 * i + 1_000_000, i)).collect();
            if outlier {
                data.push((1 << 40, 0));
            }
            a.bulk_load(&data).unwrap();
            let root = data_nodes(&a).remove(0);
            let spill_at = ((512 - HEADER_BYTES) * 8) as u32;
            let hot_slot = spill_at.min(root.header.capacity - 32);
            let hot = root.read_slot(&mut a.disk.cursor(), hot_slot).unwrap().0;
            let (min, max) = (data[0].0, data[data.len() - 1].0);
            let mut oracle: std::collections::BTreeMap<Key, Value> = data.iter().copied().collect();
            for (per_key, picks) in steps {
                let batch: Vec<Entry> = picks
                    .into_iter()
                    .map(|(kind, r)| {
                        let key = match kind {
                            0 => hot - 20_000 + r % 40_000,
                            1 => min + r % (max - min),
                            2 => r % min,
                            _ => max + 1 + r % 100_000,
                        };
                        (key, r)
                    })
                    .collect();
                if per_key {
                    for &(k, v) in &batch {
                        a.insert(k, v).unwrap();
                    }
                } else {
                    a.insert_batch(&batch).unwrap();
                }
                oracle.extend(batch.iter().copied());
                prop_assert_eq!(a.len(), oracle.len() as u64);
                for (&k, &v) in &oracle {
                    prop_assert_eq!(a.lookup(k).unwrap(), Some(v), "key {}", k);
                }
                let mut scanned = Vec::new();
                a.scan(Key::MIN, oracle.len() + 1, &mut scanned).unwrap();
                prop_assert!(scanned.iter().copied().eq(oracle.iter().map(|(&k, &v)| (k, v))));
                if let Err(broken) = check_gap_copies(&a).and_then(|()| check_spill_boundary(&a)) {
                    prop_assert!(false, "{}", broken);
                }
            }
        }
    }

    /// Runs a lookup, a batched lookup, a scan and an insert of `key` on
    /// `a`, each under the watchdog, and returns each one's verdict: an
    /// answer or a typed error. A panic or a hang fails the caller.
    fn every_operation(a: AlexIndex, key: Key) -> [IndexResult<()>; 4] {
        let a = Arc::new(a);
        let read = |walk: fn(&AlexIndex, Key) -> IndexResult<()>| {
            let a = Arc::clone(&a);
            within_deadline(move || walk(&a, key))
        };
        let lookup = read(|a, key| a.lookup(key).map(drop));
        let batch = read(|a, key| a.lookup_batch(&[key, key / 2, Key::MAX], &mut Vec::new()));
        let scan = read(|a, key| a.scan(key, 64, &mut Vec::new()).map(drop));
        let mut a = Arc::into_inner(a).expect("the walks are done");
        let insert = within_deadline(move || a.insert(key, 1));
        [lookup, batch, scan, insert]
    }

    /// A data node whose capacity puts its extent past the end of the file
    /// is an `Internal` error for every operation that reads it, not a read
    /// of another node's blocks or of blocks that do not exist. The
    /// capacity is forged in both its copies: the header, which scans and
    /// inserts load, and the entry (here the root's) that lookups route by.
    #[test]
    fn a_capacity_past_the_file_is_an_internal_error() {
        for capacity in [10_000, u32::MAX] {
            let (mut a, data) = one_spilled_node();
            let Child::Data(route) = a.root else { panic!("one data node is the root") };
            let root = route.block;
            let mut block0 =
                a.disk.cursor().read(a.data_file, root, BlockKind::Leaf).unwrap().to_vec();
            block0[4..8].copy_from_slice(&capacity.to_le_bytes());
            a.disk.write(a.data_file, root, BlockKind::Leaf, &block0).unwrap();
            a.root = Child::Data(DataRoute { capacity, ..route });
            for (op, verdict) in ["lookup", "lookup_batch", "scan", "insert"]
                .into_iter()
                .zip(every_operation(a, data[7].0))
            {
                assert!(matches!(verdict, Err(IndexError::Internal(_))), "{op}: {verdict:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Damaged block 0 of one data node: its bytes are cut (zero from
        /// some byte on, a torn write) and flipped, in the header and in the
        /// bitmap beside it, for nodes whose bitmap fits in block 0 and a
        /// node whose bitmap spills. A lookup, a batched lookup, a scan and
        /// an insert then each give an answer or a typed error, never a
        /// panic or a hang.
        #[test]
        fn a_damaged_header_block_gives_an_answer_or_a_typed_error(
            spill in any::<bool>(),
            pick in any::<u32>(),
            cut in 0usize..1_024,
            flips in proptest::collection::vec((any::<bool>(), 0usize..512, any::<u8>()), 0..6),
            probe in any::<u64>(),
        ) {
            let (a, data) = if spill {
                one_spilled_node()
            } else {
                let mut a = index(512);
                let data = entries(2_000, 3);
                a.bulk_load(&data).unwrap();
                (a, data)
            };
            let nodes = data_nodes(&a);
            let node = &nodes[pick as usize % nodes.len()];
            let mut block0 =
                a.disk.cursor().read(a.data_file, node.start, BlockKind::Leaf).unwrap().to_vec();
            if cut < block0.len() {
                block0[cut..].fill(0);
            }
            for (in_header, at, mask) in flips {
                block0[if in_header { at % HEADER_BYTES } else { at }] ^= mask.max(1);
            }
            a.disk.write(a.data_file, node.start, BlockKind::Leaf, &block0).unwrap();
            // A key of the damaged node, and one anywhere.
            let own = node.read_slot(&mut a.disk.cursor(), 0).unwrap().0;
            let key = if probe % 2 == 0 { own } else { probe % (data[data.len() - 1].0 + 100) };
            for verdict in every_operation(a, key) {
                if let Err(e) = verdict {
                    prop_assert!(!e.to_string().is_empty());
                }
            }
        }
    }

    /// 6 000 keys at stride 3 under one 64-way inner root on 512-byte
    /// blocks: its 64 entries fill its header block and spill into three
    /// blocks more.
    fn one_wide_root() -> (AlexIndex, Vec<Entry>, u32) {
        let mut a = index(512);
        let data = entries(6_000, 3);
        a.bulk_load(&data).unwrap();
        let Child::Inner(root) = a.root else { panic!("6 000 keys need an inner root") };
        let node = InnerNode::load(&mut a.disk.cursor(), a.inner_file, root).unwrap();
        assert_eq!((node.header.children, node.total_blocks(512)), (64, 4));
        (a, data, root)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Damaged blocks of the root inner node: one of its four blocks is
        /// cut (zero from some byte on, a torn write) and has bytes flipped,
        /// in its header or in its child entries, data routes included. A
        /// lookup, a batched lookup, a scan and an insert then each give an
        /// answer or a typed error, never a panic or a hang.
        #[test]
        fn a_damaged_inner_node_gives_an_answer_or_a_typed_error(
            pick in 0u32..4,
            cut in 0usize..1_024,
            flips in proptest::collection::vec((0usize..512, any::<u8>()), 0..6),
            probe in any::<u64>(),
        ) {
            let (a, data, root) = one_wide_root();
            let block = root + pick;
            let mut buf =
                a.disk.cursor().read(a.inner_file, block, BlockKind::Inner).unwrap().to_vec();
            if cut < buf.len() {
                buf[cut..].fill(0);
            }
            for (at, mask) in flips {
                buf[at] ^= mask.max(1);
            }
            a.disk.write(a.inner_file, block, BlockKind::Inner, &buf).unwrap();
            let key = probe % (data[data.len() - 1].0 + 100);
            for verdict in every_operation(a, key) {
                if let Err(e) = verdict {
                    prop_assert!(!e.to_string().is_empty());
                }
            }
        }
    }

    /// The first key of an empty node becomes its only entry, and every
    /// other slot copies it: no slot keeps the empty node's zero filler,
    /// which a lookup of key 0 would otherwise find.
    #[test]
    fn the_first_key_of_an_empty_node_is_copied_into_every_slot() {
        let mut a = index(512);
        a.bulk_load(&[]).unwrap();
        a.insert(500, 1).unwrap();
        check_gap_copies(&a).unwrap();
        assert_eq!((a.lookup(0).unwrap(), a.lookup(500).unwrap()), (None, Some(1)));
        for key in [100, 900, 0] {
            a.insert(key, key).unwrap();
            check_gap_copies(&a).unwrap();
        }
        let mut out = Vec::new();
        a.scan(0, 10, &mut out).unwrap();
        assert_eq!(out, [(0, 0), (100, 100), (500, 1), (900, 900)]);
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
