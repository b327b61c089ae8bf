//! The on-disk LIPP tree and its [`DiskIndex`](lidx_core::DiskIndex)
//! implementation.

use std::sync::Arc;

use lidx_core::{
    index::validate_bulk_load, Entry, IndexError, IndexKind, IndexRead, IndexResult, IndexStats,
    IndexWrite, InsertBreakdown, InsertStep, Key, MetaReader, MetaWriter, StepLaps, Value,
};
use lidx_models::fmcd::fit_fmcd;
use lidx_storage::{AccessClass, BlockCursor, BlockId, BlockKind, Disk, OpClass, SeqHint};

use crate::node::{blocks_for, group_by_slot, LippNode, Slot};

/// Configuration of the on-disk LIPP index.
#[derive(Debug, Clone, Copy)]
pub struct LippConfig {
    /// Slot over-allocation factor for nodes built from fewer than
    /// [`LippConfig::large_node_threshold`] keys (LIPP allocates 5× slots for
    /// small nodes — the source of its large empty-slot ratio, O11).
    pub small_gap_factor: u32,
    /// Slot over-allocation factor for nodes at or above the threshold
    /// (LIPP allocates 2× slots for large nodes).
    pub large_gap_factor: u32,
    /// Key-count threshold separating the two factors (100 000 in LIPP).
    pub large_node_threshold: usize,
    /// Hard cap on the number of slots in a single node.
    pub max_node_slots: u32,
    /// A subtree is rebuilt when its accumulated inserts exceed its build
    /// size times this factor and at least a quarter of them conflicted.
    pub rebuild_insert_factor: f64,
}

impl Default for LippConfig {
    fn default() -> Self {
        LippConfig {
            small_gap_factor: 5,
            large_gap_factor: 2,
            large_node_threshold: 100_000,
            max_node_slots: 1 << 21,
            rebuild_insert_factor: 1.0,
        }
    }
}

/// An on-disk LIPP index.
pub struct LippIndex {
    disk: Arc<Disk>,
    config: LippConfig,
    file: u32,
    root: BlockId,
    key_count: u64,
    node_count: u64,
    max_depth: u32,
    smo_count: u64,
    loaded: bool,
    breakdown: InsertBreakdown,
}

impl LippIndex {
    /// Creates an empty LIPP index with the default configuration.
    pub fn new(disk: Arc<Disk>) -> IndexResult<Self> {
        Self::with_config(disk, LippConfig::default())
    }

    /// Creates an empty LIPP index with an explicit configuration.
    pub fn with_config(disk: Arc<Disk>, config: LippConfig) -> IndexResult<Self> {
        assert!(config.small_gap_factor >= 1 && config.large_gap_factor >= 1);
        assert!(config.max_node_slots >= 8);
        let file = disk.create_file()?;
        Ok(LippIndex {
            disk,
            config,
            file,
            root: 0,
            key_count: 0,
            node_count: 0,
            max_depth: 0,
            smo_count: 0,
            loaded: false,
            breakdown: InsertBreakdown::new(),
        })
    }

    /// Reopens a LIPP index from [`IndexWrite::save_meta`] bytes against a
    /// disk that already holds its blocks. `config` must match the one the
    /// index was created with.
    pub fn load(disk: Arc<Disk>, config: LippConfig, meta: &[u8]) -> IndexResult<Self> {
        let mut r = MetaReader::new(meta);
        let file = r.u32()?;
        let root = r.u32()?;
        let key_count = r.u64()?;
        let node_count = r.u64()?;
        let max_depth = r.u32()?;
        let smo_count = r.u64()?;
        Ok(LippIndex {
            disk,
            config,
            file,
            root,
            key_count,
            node_count,
            max_depth,
            smo_count,
            loaded: true,
            breakdown: InsertBreakdown::new(),
        })
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> u64 {
        self.node_count
    }

    fn capacity_for(&self, count: usize) -> u32 {
        let factor = if count < self.config.large_node_threshold {
            self.config.small_gap_factor
        } else {
            self.config.large_gap_factor
        } as usize;
        ((count.max(1) * factor).max(8) as u32).min(self.config.max_node_slots)
    }

    /// Recursively builds a node for `entries`, returning its start block.
    fn build_subtree(&mut self, entries: &[Entry], depth: u32) -> IndexResult<BlockId> {
        self.max_depth = self.max_depth.max(depth + 1);
        let capacity = self.capacity_for(entries.len());
        let keys: Vec<Key> = entries.iter().map(|e| e.0).collect();
        let fitted = fit_fmcd(&keys, capacity as usize);
        let model = fitted.model;

        let mut slots = vec![Slot::Null; capacity as usize];
        for (slot, group) in group_by_slot(entries, &model, capacity) {
            if group.len() == 1 {
                slots[slot as usize] = Slot::Data(group[0].0, group[0].1);
            } else {
                let child = self.build_subtree(&group, depth + 1)?;
                slots[slot as usize] = Slot::Child(child);
            }
        }

        let start = self.disk.allocate(self.file, blocks_for(capacity, self.disk.block_size()))?;
        LippNode::write_new(
            &self.disk,
            self.file,
            start,
            capacity,
            model,
            &slots,
            entries.len() as u32,
        )?;
        self.node_count += 1;
        Ok(start)
    }

    /// Rebuilds the subtree rooted at `node`, repointing either the parent
    /// slot described by `parent` or the root.
    fn rebuild_subtree(
        &mut self,
        node: &LippNode,
        parent: Option<(&LippNode, u32)>,
    ) -> IndexResult<()> {
        self.smo_count += 1;
        // The SMO is the learned-index pause the paper attributes tail
        // latency to: time the whole operation and count it, off a local
        // Arc so the span does not pin a borrow of `self`.
        let telemetry = Arc::clone(&self.disk);
        let _span = telemetry.telemetry().span(OpClass::Smo);
        telemetry.telemetry().add(OpClass::Smo, 1);
        let mut entries = Vec::new();
        // Subtract the nodes that are about to disappear.
        let mut removed = 0u64;
        {
            let mut cursor = self.disk.cursor();
            node.collect_subtree(&mut cursor, &mut entries)?;
            count_nodes(&mut cursor, node, &mut removed)?;
            node.free_subtree(&mut cursor)?;
        }
        self.node_count -= removed;
        let new_block = self.build_subtree(&entries, 0)?;
        match parent {
            Some((p, slot)) => p.write_slot(&self.disk, slot, Slot::Child(new_block))?,
            None => self.root = new_block,
        }
        Ok(())
    }

    /// Writes the statistics header of every node in `dirty` once (the
    /// Maintenance step) and empties the list. The in-memory cache is
    /// authoritative while headers are deferred, so this is the only place
    /// inserts touch headers on disk. `dirty` lists a node once per insert
    /// that bumped it; headers go out in first-touch order — for one insert
    /// that is the leaf, then its ancestors from the root down, which leaves
    /// the device head on the deepest ancestor (the usual rebuild target).
    fn flush_dirty_headers(
        &mut self,
        nodes: &std::collections::HashMap<BlockId, LippNode>,
        dirty: &mut Vec<BlockId>,
        laps: &mut StepLaps,
    ) -> IndexResult<()> {
        let mut written = std::collections::HashSet::new();
        for b in dirty.drain(..) {
            if let (true, Some(node)) = (written.insert(b), nodes.get(&b)) {
                node.write_header(&self.disk)?;
            }
        }
        laps.lap(&mut self.breakdown, InsertStep::Maintenance);
        Ok(())
    }

    /// Loads the node at `block` for a read walk that may still load
    /// `budget` nodes. A walk of a tree loads each node at most once, so a
    /// budget of [`LippIndex::node_count`] only runs out when a child
    /// pointer leads back into the walk: that is an error, not a hang.
    fn visit(
        &self,
        cursor: &mut BlockCursor<'_>,
        block: BlockId,
        class: AccessClass,
        budget: &mut u64,
    ) -> IndexResult<LippNode> {
        self.spend(budget)?;
        LippNode::load_with(cursor, self.file, block, class)
    }

    /// Takes one node from a read walk's `budget` (see [`LippIndex::visit`]).
    fn spend(&self, budget: &mut u64) -> IndexResult<()> {
        *budget = budget.checked_sub(1).ok_or_else(|| {
            IndexError::Internal(format!(
                "LIPP walk reached more than the tree's {} nodes: a child pointer is cyclic",
                self.node_count
            ))
        })?;
        Ok(())
    }

    fn should_rebuild(&self, node: &LippNode) -> bool {
        let h = &node.header;
        let grown = f64::from(h.num_inserts)
            >= f64::from(h.build_size.max(64)) * self.config.rebuild_insert_factor;
        grown && h.num_conflicts * 4 >= h.num_inserts
    }
}

/// Counts the nodes of a subtree (used when a rebuild replaces them).
fn count_nodes(cursor: &mut BlockCursor<'_>, node: &LippNode, acc: &mut u64) -> IndexResult<()> {
    *acc += 1;
    for slot in 0..node.header.capacity {
        if let Slot::Child(b) = node.read_slot_with(cursor, slot, AccessClass::Point)? {
            let child = LippNode::load_with(cursor, node.file, b, AccessClass::Point)?;
            count_nodes(cursor, &child, acc)?;
        }
    }
    Ok(())
}

impl IndexRead for LippIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Lipp
    }

    fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        let mut cursor = self.disk.cursor();
        let mut budget = self.node_count;
        let mut node = self.visit(&mut cursor, self.root, AccessClass::Point, &mut budget)?;
        loop {
            match node.read_slot_with(&mut cursor, node.predict(key), AccessClass::Point)? {
                Slot::Null => return Ok(None),
                Slot::Data(k, v) => return Ok((k == key).then_some(v)),
                Slot::Child(b) => {
                    node = self.visit(&mut cursor, b, AccessClass::Point, &mut budget)?;
                }
            }
        }
    }

    /// Batched lookups descend the tree level by level in lock-step, probes
    /// in sorted key order, and decode each node's header once per batch (a
    /// per-key LIPP lookup pays a header read plus a slot read *per level*,
    /// and the header half is shared by every probe through the node). Each
    /// level's new headers are fetched as one completion wave and its
    /// predicted slot blocks prefetched as a second; then the level resolves
    /// through a cursor, so co-located probes read one slot block once.
    /// Above queue depth 1 the waves overlap the per-level "header + slot"
    /// latency pair across the batch; at depth 1 the prefetch does nothing
    /// and the resolve loop reads each slot block on demand. Every round
    /// descends one level, so a tree of [`LippIndex::node_count`] nodes
    /// finishes within that many rounds: one more means a child pointer is
    /// cyclic, an error rather than a hang.
    fn lookup_batch(&self, keys: &[Key], out: &mut Vec<Option<Value>>) -> IndexResult<()> {
        use std::collections::HashMap;
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
        let bs = self.disk.block_size();
        let mut nodes: HashMap<BlockId, LippNode> = HashMap::new();
        let mut active: Vec<(u32, BlockId)> = order.iter().map(|&i| (i, self.root)).collect();
        let mut q = self.disk.read_queue();
        let mut rounds = self.node_count;
        while !active.is_empty() {
            self.spend(&mut rounds)?;
            // Wave A: headers of the nodes this level reaches for the first
            // time (always exactly one — the root — on the first round).
            let mut need: Vec<BlockId> =
                active.iter().map(|&(_, b)| b).filter(|b| !nodes.contains_key(b)).collect();
            need.sort_unstable();
            need.dedup();
            for &b in &need {
                q.submit(self.file, b, BlockKind::Leaf, AccessClass::Point)?;
            }
            for c in q.complete()? {
                nodes.insert(c.block, LippNode::from_header_bytes(self.file, c.block, &c.frame)?);
            }

            // Wave B: every active probe's predicted slot block.
            let mut slot_blocks: Vec<BlockId> = active
                .iter()
                .map(|&(i, b)| {
                    let node = &nodes[&b];
                    node.slot_block_id(node.predict(keys[i as usize]), bs)
                })
                .collect();
            slot_blocks.sort_unstable();
            slot_blocks.dedup();
            for &b in &slot_blocks {
                q.prefetch(self.file, b, BlockKind::Leaf, SeqHint::Auto)?;
            }
            q.flush()?;

            // Resolve the level; probes that hit a child pointer go another
            // round. The cursor starts after the waves, whose completions
            // the disk's reuse slot sees.
            let mut next = Vec::new();
            let mut cursor = self.disk.cursor();
            for (i, b) in active {
                let node = &nodes[&b];
                let slot = node.predict(keys[i as usize]);
                match node.read_slot_with(&mut cursor, slot, AccessClass::Point)? {
                    Slot::Null => {}
                    Slot::Data(k, v) => out[i as usize] = (k == keys[i as usize]).then_some(v),
                    Slot::Child(child) => next.push((i, child)),
                }
            }
            active = next;
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
        // One cursor carries the whole walk, so the slots of one block cost
        // one disk read; the budget turns a cyclic child pointer into an
        // error (see `visit`).
        let mut cursor = self.disk.cursor();
        let mut budget = self.node_count;
        // Seed the traversal stack with the access path of `start`: every
        // ancestor resumes just after the slot we descended through.
        let mut stack: Vec<(LippNode, u32)> = Vec::new();
        let mut node = self.visit(&mut cursor, self.root, AccessClass::Point, &mut budget)?;
        loop {
            let slot = node.predict(start);
            match node.read_slot_with(&mut cursor, slot, AccessClass::Point)? {
                Slot::Child(b) => {
                    stack.push((node, slot + 1));
                    node = self.visit(&mut cursor, b, AccessClass::Point, &mut budget)?;
                }
                _ => {
                    stack.push((node, slot));
                    break;
                }
            }
        }

        // In-order traversal across the interleaved DATA / NODE slots — the
        // scattered accesses behind LIPP's poor scan performance (O5).
        'outer: while let Some((node, mut idx)) = stack.pop() {
            while idx < node.header.capacity {
                if out.len() >= count {
                    break 'outer;
                }
                match node.read_slot_with(&mut cursor, idx, AccessClass::Scan)? {
                    Slot::Null => {}
                    Slot::Data(k, v) => {
                        if k >= start {
                            out.push((k, v));
                        }
                    }
                    Slot::Child(b) => {
                        stack.push((node, idx + 1));
                        let child = self.visit(&mut cursor, b, AccessClass::Scan, &mut budget)?;
                        stack.push((child, 0));
                        continue 'outer;
                    }
                }
                idx += 1;
            }
        }
        Ok(out.len())
    }

    fn len(&self) -> u64 {
        self.key_count
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            keys: self.key_count,
            height: self.max_depth,
            inner_nodes: 0,
            leaf_nodes: self.node_count,
            smo_count: self.smo_count,
        }
    }
}

impl IndexWrite for LippIndex {
    fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if self.loaded {
            return Err(IndexError::AlreadyLoaded);
        }
        validate_bulk_load(entries)?;
        self.root = self.build_subtree(entries, 0)?;
        self.key_count = entries.len() as u64;
        self.loaded = true;
        Ok(())
    }

    /// The one write path (`insert` is a batch of one): the per-node
    /// statistics (`num_inserts`, `num_conflicts`, slot counts) accumulate
    /// in an in-memory node cache and each touched node's header is written
    /// **once per batch** instead of once per key per path level — the
    /// write-side counterpart of `lookup_batch`'s
    /// header caching, and the Fig. 6 maintenance cost LIPP pays worst of
    /// all designs. Slot writes (the actual data) still go to disk per
    /// entry, so the on-disk structure is never behind; only the statistics
    /// headers are deferred. A subtree rebuild first flushes every deferred
    /// header and drops the cache, so the rebuild (and any node re-load
    /// after it) always sees accurate on-disk statistics.
    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        let mut nodes: std::collections::HashMap<BlockId, LippNode> =
            std::collections::HashMap::new();
        let mut dirty: Vec<BlockId> = Vec::new();

        let mut laps = StepLaps::start(&self.disk);
        for &(key, value) in entries {
            // Descend through the cache (in-memory headers authoritative),
            // remembering the path for the statistics maintenance pass.
            let mut path: Vec<(BlockId, u32)> = Vec::new();
            let mut block = self.root;
            let (slot_content, slot, leaf) = loop {
                if let std::collections::hash_map::Entry::Vacant(e) = nodes.entry(block) {
                    e.insert(LippNode::load(&self.disk, self.file, block)?);
                }
                let node = &nodes[&block];
                let slot = node.predict(key);
                match node.read_slot(&self.disk, slot)? {
                    Slot::Child(b) => {
                        path.push((block, slot));
                        block = b;
                    }
                    other => break (other, slot, block),
                }
            };
            laps.lap(&mut self.breakdown, InsertStep::Search);

            let mut conflicted = false;
            match slot_content {
                Slot::Data(k, _) if k == key => {
                    // Upsert in place: no statistics change.
                    nodes[&leaf].write_slot(&self.disk, slot, Slot::Data(key, value))?;
                    laps.lap(&mut self.breakdown, InsertStep::Insert);
                    self.breakdown.finish_insert();
                    continue;
                }
                Slot::Null => {
                    nodes[&leaf].write_slot(&self.disk, slot, Slot::Data(key, value))?;
                    nodes.get_mut(&leaf).expect("cached").header.data_count += 1;
                    laps.lap(&mut self.breakdown, InsertStep::Insert);
                }
                Slot::Data(k0, v0) => {
                    // Conflict: push both keys into a freshly created child
                    // node (LIPP's per-insert SMO, roughly one in three
                    // inserts, O7).
                    conflicted = true;
                    self.smo_count += 1;
                    let telemetry = Arc::clone(&self.disk);
                    let _span = telemetry.telemetry().span(OpClass::Smo);
                    telemetry.telemetry().add(OpClass::Smo, 1);
                    let mut pair = [(k0, v0), (key, value)];
                    pair.sort_unstable_by_key(|e| e.0);
                    let child = self.build_subtree(&pair, 0)?;
                    nodes[&leaf].write_slot(&self.disk, slot, Slot::Child(child))?;
                    let header = &mut nodes.get_mut(&leaf).expect("cached").header;
                    header.data_count -= 1;
                    header.child_count += 1;
                    laps.lap(&mut self.breakdown, InsertStep::Smo);
                }
                Slot::Child(_) => unreachable!("descent only stops at NULL or DATA slots"),
            }
            self.key_count += 1;

            // Maintenance, deferred: bump the statistics of the leaf and
            // every ancestor in memory only (written once per batch — the
            // paper calls out this full-path write cost for LIPP).
            for b in std::iter::once(leaf).chain(path.iter().map(|&(b, _)| b)) {
                let header = &mut nodes.get_mut(&b).expect("cached").header;
                header.num_inserts += 1;
                if conflicted {
                    header.num_conflicts += 1;
                }
                dirty.push(b);
            }

            // Subtree-rebuild check against the (accurate) in-memory stats.
            let mut rebuild_target: Option<usize> = None;
            for (i, &(b, _)) in path.iter().enumerate() {
                if self.should_rebuild(&nodes[&b]) {
                    rebuild_target = Some(i);
                    break;
                }
            }
            let leaf_needs_rebuild = rebuild_target.is_none() && self.should_rebuild(&nodes[&leaf]);
            if rebuild_target.is_some() || leaf_needs_rebuild {
                // Flush every deferred header before restructuring, then
                // drop the cache: the rebuild frees blocks that may be
                // re-allocated, so no stale handle may survive it.
                self.flush_dirty_headers(&nodes, &mut dirty, &mut laps)?;
                if let Some(i) = rebuild_target {
                    let target = nodes[&path[i].0].clone();
                    let parent = if i == 0 {
                        None
                    } else {
                        Some((nodes[&path[i - 1].0].clone(), path[i - 1].1))
                    };
                    self.rebuild_subtree(&target, parent.as_ref().map(|(p, s)| (p, *s)))?;
                } else {
                    let target = nodes[&leaf].clone();
                    let parent = path.last().map(|&(b, s)| (nodes[&b].clone(), s));
                    self.rebuild_subtree(&target, parent.as_ref().map(|(p, s)| (p, *s)))?;
                }
                nodes.clear();
                laps.lap(&mut self.breakdown, InsertStep::Smo);
            }
            self.breakdown.finish_insert();
        }
        self.flush_dirty_headers(&nodes, &mut dirty, &mut laps)
    }

    fn insert_breakdown(&self) -> InsertBreakdown {
        self.breakdown
    }

    fn save_meta(&mut self) -> IndexResult<Vec<u8>> {
        // Node blocks (headers included — `flush_dirty_headers` runs before
        // any batch returns) are written eagerly, so the handle's plain
        // fields are the whole state.
        let mut w = MetaWriter::new();
        w.u32(self.file)
            .u32(self.root)
            .u64(self.key_count)
            .u64(self.node_count)
            .u32(self.max_depth)
            .u64(self.smo_count);
        Ok(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_storage::{BlockKind, DiskConfig};

    fn index() -> LippIndex {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        LippIndex::new(disk).unwrap()
    }

    fn uniformish(n: u64) -> Vec<Entry> {
        (0..n).map(|i| (i * 97 + 13, i)).collect()
    }

    fn clustered(n: u64) -> Vec<Entry> {
        let mut keys: Vec<u64> = (0..n).map(|i| (i / 50) * 1_000_000 + (i % 50) * 3).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter().map(|k| (k, k + 1)).collect()
    }

    #[test]
    fn bulk_load_and_lookup_uniform() {
        let mut l = index();
        let data = uniformish(20_000);
        l.bulk_load(&data).unwrap();
        assert_eq!(l.len(), 20_000);
        for &(k, v) in data.iter().step_by(487) {
            assert_eq!(l.lookup(k).unwrap(), Some(v), "key {k}");
        }
        assert_eq!(l.lookup(14).unwrap(), None);
        assert_eq!(l.lookup(u64::MAX).unwrap(), None);
    }

    #[test]
    fn bulk_load_and_lookup_clustered_builds_children() {
        let mut l = index();
        let data = clustered(10_000);
        l.bulk_load(&data).unwrap();
        assert!(l.node_count() > 1, "clustered data must force child nodes");
        assert!(l.stats().height > 1);
        for &(k, v) in data.iter().step_by(311) {
            assert_eq!(l.lookup(k).unwrap(), Some(v), "key {k}");
        }
    }

    #[test]
    fn lookup_io_is_two_blocks_per_level() {
        let mut l = index();
        let data = uniformish(50_000);
        l.bulk_load(&data).unwrap();
        l.disk().stats().reset();
        let queries: Vec<Key> = data.iter().step_by(977).map(|e| e.0).collect();
        for &k in &queries {
            l.disk().reset_access_state();
            l.lookup(k).unwrap();
        }
        let per_query = l.disk().stats().reads() as f64 / queries.len() as f64;
        let height = l.stats().height as f64;
        assert!(
            per_query <= 2.0 * height + 1.0,
            "lookup cost {per_query} exceeds 2·height = {}",
            2.0 * height
        );
        assert!(per_query >= 1.5, "header + slot blocks are usually distinct");
    }

    #[test]
    fn inserts_create_children_on_conflict_and_survive() {
        let mut l = index();
        let data: Vec<Entry> = (0..2_000u64).map(|i| (i * 40, i)).collect();
        l.bulk_load(&data).unwrap();
        let nodes_before = l.node_count();
        for i in 0..2_000u64 {
            l.insert(i * 40 + 7, i).unwrap();
        }
        assert_eq!(l.len(), 4_000);
        assert!(l.stats().smo_count > 0, "conflicts must have created child nodes");
        assert!(l.node_count() > nodes_before);
        for i in (0..2_000u64).step_by(173) {
            assert_eq!(l.lookup(i * 40 + 7).unwrap(), Some(i), "inserted key");
            assert_eq!(l.lookup(i * 40).unwrap(), Some(i), "bulk key");
        }
    }

    #[test]
    fn lookup_batch_matches_sequential_and_caches_headers() {
        let mut l = index();
        let data = clustered(10_000);
        l.bulk_load(&data).unwrap();
        let probes: Vec<Key> = data
            .iter()
            .step_by(53)
            .map(|&(k, _)| k)
            .chain([0, u64::MAX, data[100].0, data[100].0, data[100].0 + 1])
            .rev()
            .collect();
        let mut batched = Vec::new();
        l.lookup_batch(&probes, &mut batched).unwrap();
        assert_eq!(batched.len(), probes.len());
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!(batched[i], l.lookup(p).unwrap(), "probe {p}");
        }

        // Batched probes read each routing node's header once for the whole
        // batch instead of once per key, so the read count must shrink.
        let run: Vec<Key> = data.iter().step_by(19).map(|&(k, _)| k).collect();
        l.disk().stats().reset();
        l.disk().reset_access_state();
        l.lookup_batch(&run, &mut batched).unwrap();
        let batch_reads = l.disk().stats().reads();
        l.disk().stats().reset();
        l.disk().reset_access_state();
        for &k in &run {
            l.lookup(k).unwrap();
        }
        let seq_reads = l.disk().stats().reads();
        assert!(
            batch_reads < seq_reads,
            "batched reads ({batch_reads}) must amortise sequential reads ({seq_reads})"
        );

        // Inserted keys (including conflict children) stay visible.
        for i in 0..300u64 {
            l.insert(data[i as usize * 7].0 + 1, i).unwrap();
        }
        let probes2: Vec<Key> = (0..300u64).map(|i| data[i as usize * 7].0 + 1).collect();
        l.lookup_batch(&probes2, &mut batched).unwrap();
        for (i, &p) in probes2.iter().enumerate() {
            assert_eq!(batched[i], l.lookup(p).unwrap(), "post-insert probe {p}");
        }

        l.lookup_batch(&[], &mut batched).unwrap();
        assert!(batched.is_empty());
        let fresh = index();
        assert!(fresh.lookup_batch(&[1], &mut batched).is_err());
    }

    #[test]
    fn queued_lookup_batch_matches_depth_one_answers_and_overlaps_io() {
        use lidx_storage::DeviceModel;
        let data = clustered(10_000);
        let mut probes: Vec<Key> = data.iter().step_by(13).map(|&(k, _)| k).collect();
        probes.extend([0, u64::MAX, data[100].0 + 1]);
        probes.reverse();

        let config =
            || DiskConfig::with_block_size(512).device(DeviceModel::ssd()).buffer_blocks(64);
        let mut sync_lipp = LippIndex::new(Disk::in_memory(config())).unwrap();
        sync_lipp.bulk_load(&data).unwrap();
        let mut expected = Vec::new();
        sync_lipp.disk().stats().reset();
        sync_lipp.lookup_batch(&probes, &mut expected).unwrap();
        let sync_ns = sync_lipp.disk().stats().device_ns();

        let mut queued_lipp = LippIndex::new(Disk::in_memory(config().queue_depth(8))).unwrap();
        queued_lipp.bulk_load(&data).unwrap();
        let mut got = Vec::new();
        queued_lipp.disk().stats().reset();
        queued_lipp.lookup_batch(&probes, &mut got).unwrap();
        let queued_ns = queued_lipp.disk().stats().device_ns();

        assert_eq!(got, expected, "queue depth must never change the answers");
        assert!(
            queued_ns * 2 < sync_ns,
            "depth-8 level waves ({queued_ns} ns) must overlap the depth-1 cost ({sync_ns} ns)"
        );
        assert!(queued_lipp.disk().stats().overlap_saved_ns() > 0);
        assert!(queued_lipp.disk().stats().max_inflight() > 1);
    }

    #[test]
    fn upsert_overwrites_in_place() {
        let mut l = index();
        l.bulk_load(&uniformish(1_000)).unwrap();
        l.insert(13, 999).unwrap();
        assert_eq!(l.lookup(13).unwrap(), Some(999));
        assert_eq!(l.len(), 1_000);
    }

    #[test]
    fn maintenance_updates_touch_the_whole_path() {
        let mut l = index();
        let data = clustered(5_000);
        l.bulk_load(&data).unwrap();
        // Insert keys into an existing cluster (deep in the tree).
        let probe_base = data[2_500].0;
        let before = l.disk().snapshot();
        l.insert(probe_base + 1, 1).unwrap();
        let delta = l.disk().snapshot().since(&before);
        assert!(
            delta.writes_of(BlockKind::Leaf) >= 2,
            "insert must write the slot and at least one statistics header"
        );
        let b = l.insert_breakdown();
        assert!(b.writes(lidx_core::InsertStep::Maintenance) >= 1);
    }

    #[test]
    fn scan_boundary_cases_match_oracle() {
        let mut t = index();
        let data = uniformish(1_200);
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
    fn scan_returns_sorted_entries_across_nodes() {
        let mut l = index();
        let data = clustered(8_000);
        l.bulk_load(&data).unwrap();
        let start_idx = 3_456;
        let mut out = Vec::new();
        let n = l.scan(data[start_idx].0, 400, &mut out).unwrap();
        assert_eq!(n, 400);
        assert_eq!(out[0], data[start_idx]);
        assert_eq!(out[399], data[start_idx + 399]);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));

        // Scans see inserted keys too.
        l.insert(data[start_idx].0 + 1, 42).unwrap();
        l.scan(data[start_idx].0, 3, &mut out).unwrap();
        assert_eq!(out[1], (data[start_idx].0 + 1, 42));
    }

    #[test]
    fn heavy_local_inserts_trigger_subtree_rebuilds() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut l = LippIndex::with_config(
            disk,
            LippConfig { rebuild_insert_factor: 0.5, ..Default::default() },
        )
        .unwrap();
        let data: Vec<Entry> = (0..500u64).map(|i| (i * 1_000, i)).collect();
        l.bulk_load(&data).unwrap();
        // Hammer one region so conflicts accumulate and a rebuild triggers.
        for i in 0..3_000u64 {
            l.insert(100_000 + i * 7, i).unwrap();
        }
        assert!(l.stats().smo_count > 100);
        for i in (0..3_000u64).step_by(211) {
            assert_eq!(l.lookup(100_000 + i * 7).unwrap(), Some(i));
        }
        // Everything still reachable after rebuilds.
        let mut out = Vec::new();
        let total = l.scan(0, 10_000, &mut out).unwrap();
        assert_eq!(total as u64, l.len());
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn insert_batch_matches_sequential_semantics() {
        let mut batched = index();
        let mut sequential = index();
        let data = clustered(4_000);
        batched.bulk_load(&data).unwrap();
        sequential.bulk_load(&data).unwrap();

        // Fresh keys (conflict-heavy), upserts of bulk keys, an in-batch
        // duplicate whose later value must win, and an unsorted tail.
        let mut batch: Vec<Entry> =
            (0..600u64).map(|i| (data[(i * 5) as usize].0 + 1, i)).collect();
        batch.push((data[7].0, 7_000));
        batch.push((data[7].0 + 1, 1));
        batch.push((data[7].0 + 1, 2)); // later duplicate wins
        batch.push((5, 55));
        batch.push((u64::MAX - 3, 3));
        batch.push((0, 11));

        let before = batched.insert_breakdown();
        batched.insert_batch(&batch).unwrap();
        let delta = batched.insert_breakdown().since(&before);
        assert_eq!(delta.inserts, batch.len() as u64);
        for &(k, v) in &batch {
            sequential.insert(k, v).unwrap();
        }

        assert_eq!(batched.len(), sequential.len());
        for &(k, _) in &batch {
            assert_eq!(batched.lookup(k).unwrap(), sequential.lookup(k).unwrap(), "key {k}");
        }
        assert_eq!(batched.lookup(data[7].0 + 1).unwrap(), Some(2), "later duplicate wins");
        let (mut b_out, mut s_out) = (Vec::new(), Vec::new());
        batched.scan(0, 6_000, &mut b_out).unwrap();
        sequential.scan(0, 6_000, &mut s_out).unwrap();
        assert_eq!(b_out, s_out, "full scans agree");
    }

    #[test]
    fn insert_batch_writes_each_touched_header_once() {
        let mut l = index();
        let data = clustered(5_000);
        l.bulk_load(&data).unwrap();
        // Keys landing in one deep cluster: a sequential insert pays a header
        // write per path level per key; the batch pays one per touched node.
        let base = data[2_500].0;
        let batch: Vec<Entry> = (0..128u64).map(|i| (base + 2 * i + 1, i)).collect();
        let before_b = l.insert_breakdown();
        let before = l.disk().snapshot();
        l.insert_batch(&batch).unwrap();
        let delta = l.insert_breakdown().since(&before_b);
        let maint = delta.writes(lidx_core::InsertStep::Maintenance);
        assert!(
            maint > 0 && maint < batch.len() as u64,
            "maintenance header writes ({maint}) must undercut one-per-key ({})",
            batch.len()
        );
        let io = l.disk().snapshot().since(&before);
        assert!(io.writes_of(BlockKind::Leaf) > 0);
        for &(k, v) in &batch {
            assert_eq!(l.lookup(k).unwrap(), Some(v), "key {k}");
        }
    }

    #[test]
    fn insert_batch_rebuilds_subtrees_mid_batch() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut l = LippIndex::with_config(
            disk,
            LippConfig { rebuild_insert_factor: 0.5, ..Default::default() },
        )
        .unwrap();
        let data: Vec<Entry> = (0..500u64).map(|i| (i * 1_000, i)).collect();
        l.bulk_load(&data).unwrap();
        // Same hammering as the sequential rebuild test, one batch: conflicts
        // accumulate in the cached headers and must trigger rebuilds mid-batch.
        let batch: Vec<Entry> = (0..3_000u64).map(|i| (100_000 + i * 7, i)).collect();
        l.insert_batch(&batch).unwrap();
        assert!(l.stats().smo_count > 100, "rebuilds must fire inside the batch");
        for i in (0..3_000u64).step_by(211) {
            assert_eq!(l.lookup(100_000 + i * 7).unwrap(), Some(i));
        }
        let mut out = Vec::new();
        let total = l.scan(0, 10_000, &mut out).unwrap();
        assert_eq!(total as u64, l.len());
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
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

    /// Replaces the root of `l` with a 2 000-slot node whose model sends
    /// every key to slot 0, holding `data` at slot 0 and a child pointer
    /// back at the node itself at slot `cyclic`.
    fn forge_cyclic_root(l: &mut LippIndex, data: Slot, cyclic: u32) {
        let capacity = 2_000u32;
        let start = l.disk.allocate(l.file, blocks_for(capacity, 512)).unwrap();
        let mut slots = vec![Slot::Null; capacity as usize];
        slots[0] = data;
        slots[cyclic as usize] = Slot::Child(start);
        let model = lidx_models::LinearModel::new(0.0, 0.0);
        LippNode::write_new(&l.disk, l.file, start, capacity, model, &slots, 1).unwrap();
        l.root = start;
    }

    #[test]
    fn a_cyclic_child_pointer_is_an_error_not_a_hang() {
        let cyclic = |data: Slot, slot: u32, depth: usize| {
            let disk = Disk::in_memory(DiskConfig::with_block_size(512).queue_depth(depth));
            let mut l = LippIndex::new(disk).unwrap();
            l.bulk_load(&[(1, 1)]).unwrap();
            assert_eq!(l.node_count(), 1);
            forge_cyclic_root(&mut l, data, slot);
            l
        };
        // Every lookup descends through slot 0, which names the root again.
        let l = cyclic(Slot::Null, 0, 1);
        let looked_up = within_deadline(move || l.lookup(5));
        assert!(matches!(looked_up, Err(IndexError::Internal(_))), "{looked_up:?}");
        // A batch's lock-step rounds find the root again every round, at
        // either queue depth.
        for depth in [1, 8] {
            let l = cyclic(Slot::Null, 0, depth);
            let batched = within_deadline(move || l.lookup_batch(&[5, 9, 3], &mut Vec::new()));
            assert!(matches!(batched, Err(IndexError::Internal(_))), "depth {depth}: {batched:?}");
        }
        // A scan from above every key walks the root to its last slot, which
        // names the root again: without a bound the walk restarts forever.
        let l = cyclic(Slot::Data(1, 1), 1_999, 1);
        let scanned = within_deadline(move || l.scan(2, usize::MAX, &mut Vec::new()));
        assert!(matches!(scanned, Err(IndexError::Internal(_))), "{scanned:?}");
    }

    #[test]
    fn error_paths_and_empty_load() {
        let mut l = index();
        assert!(matches!(l.lookup(1), Err(IndexError::NotInitialized)));
        l.bulk_load(&[]).unwrap();
        assert_eq!(l.lookup(1).unwrap(), None);
        for i in 0..200u64 {
            l.insert(i * 3, i).unwrap();
        }
        assert_eq!(l.len(), 200);
        for i in (0..200u64).step_by(13) {
            assert_eq!(l.lookup(i * 3).unwrap(), Some(i));
        }
        assert!(matches!(l.bulk_load(&[(1, 1)]), Err(IndexError::AlreadyLoaded)));
    }
}
