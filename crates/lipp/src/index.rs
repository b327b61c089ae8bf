//! The on-disk LIPP tree and its [`DiskIndex`](lidx_core::DiskIndex)
//! implementation.

use std::sync::Arc;

use lidx_core::{
    index::validate_bulk_load, spend, Entry, IndexError, IndexKind, IndexRead, IndexResult,
    IndexStats, IndexWrite, InsertBreakdown, InsertStep, Key, MetaReader, MetaWriter, StepLaps,
    Value,
};
use lidx_storage::{BlockCursor, BlockId, BlockKind, Disk, OpClass, SeqHint};

use crate::node::{build_subtree, LippNode, Slot, HEADER_BYTES, SLOT_BYTES};

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
        assert!(
            disk.block_size() >= HEADER_BYTES + SLOT_BYTES,
            "block 0 holds a header and a slot"
        );
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

    /// Builds a subtree for `entries` ([`build_subtree`], charged to
    /// `Leaf`) and counts its nodes and depth, returning its start block.
    fn build(&mut self, entries: &[Entry]) -> IndexResult<BlockId> {
        let capacity = |n| self.capacity_for(n);
        let built = build_subtree(&self.disk, self.file, BlockKind::Leaf, entries, &capacity)?;
        self.node_count += built.nodes;
        self.max_depth = self.max_depth.max(built.depth);
        Ok(built.root)
    }

    /// Rebuilds the subtree rooted at `node`, repointing either the parent
    /// slot described by `parent` or the root.
    fn rebuild_subtree(
        &mut self,
        cursor: &mut BlockCursor<'_>,
        node: &LippNode,
        parent: Option<(LippNode, u32)>,
    ) -> IndexResult<()> {
        self.smo_count += 1;
        // The SMO is the learned-index pause the paper attributes tail
        // latency to: time the whole operation and count it, off a local
        // Arc so the span does not pin a borrow of `self`.
        let telemetry = Arc::clone(&self.disk);
        let _span = telemetry.telemetry().span(OpClass::Smo);
        telemetry.telemetry().add(OpClass::Smo, 1);
        // One walk collects the subtree's entries and frees each node once
        // its slots are read (children before their parent); it may load
        // the tree's every node once.
        let mut entries = Vec::new();
        let mut removed = 0;
        node.walk_subtree(
            cursor,
            self.node_count,
            |e| entries.push(e),
            |cursor, n| {
                removed += 1;
                cursor.free(n.file, n.start, n.total_blocks(cursor.disk().block_size()));
            },
        )?;
        self.node_count -= removed;
        let new_block = self.build(&entries)?;
        let first = entries.first().map_or(0, |e| e.0);
        match parent {
            Some((mut p, slot)) => p.write_slot(cursor, slot, Slot::Child(first, new_block))?,
            None => self.root = new_block,
        }
        Ok(())
    }

    /// Loads the node at `block` for a read walk that may still load
    /// `budget` nodes, seeded from [`LippIndex::node_count`] (see [`lidx_core::spend`]).
    fn visit(
        &self,
        cursor: &mut BlockCursor<'_>,
        block: BlockId,
        budget: &mut u64,
    ) -> IndexResult<LippNode> {
        spend(budget, "LIPP walk")?;
        LippNode::load(cursor, self.file, block, BlockKind::Leaf)
    }

    fn should_rebuild(&self, node: &LippNode) -> bool {
        let h = &node.header;
        let grown = f64::from(h.num_inserts)
            >= f64::from(h.build_size.max(64)) * self.config.rebuild_insert_factor;
        grown && h.num_conflicts * 4 >= h.num_inserts
    }
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
        let mut node = self.visit(&mut cursor, self.root, &mut budget)?;
        loop {
            match node.read_slot(&mut cursor, node.predict(key))? {
                Slot::Null => return Ok(None),
                Slot::Data(k, v) => return Ok((k == key).then_some(v)),
                Slot::Child(_, b) => {
                    node = self.visit(&mut cursor, b, &mut budget)?;
                }
            }
        }
    }

    /// Batched lookups descend the tree level by level in lock-step, probes
    /// in sorted key order, and decode each node's header once per batch (a
    /// per-key LIPP lookup pays a header read plus, unless its slot shares
    /// block 0 with the header, a slot read *per level*, and the header half
    /// is shared by every probe through the node). Each level's new headers
    /// are fetched as one completion wave and its predicted slot blocks past
    /// block 0 prefetched as a second; then the level resolves from block 0
    /// or through a cursor, so co-located probes read one slot block once.
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
            spend(&mut rounds, "LIPP walk")?;
            // Wave A: headers of the nodes this level reaches for the first
            // time (always exactly one — the root — on the first round).
            let mut need: Vec<BlockId> =
                active.iter().map(|&(_, b)| b).filter(|b| !nodes.contains_key(b)).collect();
            need.sort_unstable();
            need.dedup();
            for &b in &need {
                q.submit(self.file, b, BlockKind::Leaf)?;
            }
            for c in q.complete()? {
                let node = LippNode::from_frame(self.file, c.block, BlockKind::Leaf, c.frame)?;
                nodes.insert(c.block, node);
            }

            // Wave B: every active probe's predicted slot block past block 0
            // (a slot in block 0 resolves from the frame wave A delivered).
            let mut slot_blocks: Vec<BlockId> = active
                .iter()
                .filter_map(|&(i, b)| {
                    let node = &nodes[&b];
                    let block = node.slot_block_id(node.predict(keys[i as usize]), bs);
                    (block != node.start).then_some(block)
                })
                .collect();
            slot_blocks.sort_unstable();
            slot_blocks.dedup();
            for &b in &slot_blocks {
                q.prefetch(self.file, b, BlockKind::Leaf, SeqHint::Auto)?;
            }
            q.flush()?;

            // Resolve the level through a cursor; probes that hit a child
            // pointer go another round.
            let mut next = Vec::new();
            let mut cursor = self.disk.cursor();
            for (i, b) in active {
                let node = &nodes[&b];
                let slot = node.predict(keys[i as usize]);
                match node.read_slot(&mut cursor, slot)? {
                    Slot::Null => {}
                    Slot::Data(k, v) => out[i as usize] = (k == keys[i as usize]).then_some(v),
                    Slot::Child(_, child) => next.push((i, child)),
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
        // One scan cursor carries the whole walk, descent included: every
        // LIPP node is a `Leaf` block, so the first read already streams.
        // The slots of one block cost one disk read; the budget turns a
        // cyclic child pointer into an error (see `visit`).
        let mut cursor = self.disk.scan_cursor();
        let mut budget = self.node_count;
        // Seed the traversal stack with the access path of `start`: every
        // ancestor resumes just after the slot we descended through.
        let mut stack: Vec<(LippNode, u32)> = Vec::new();
        let mut node = self.visit(&mut cursor, self.root, &mut budget)?;
        loop {
            let slot = node.predict(start);
            match node.read_slot(&mut cursor, slot)? {
                Slot::Child(_, b) => {
                    stack.push((node, slot + 1));
                    node = self.visit(&mut cursor, b, &mut budget)?;
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
                match node.read_slot(&mut cursor, idx)? {
                    Slot::Null => {}
                    Slot::Data(k, v) => {
                        if k >= start {
                            out.push((k, v));
                        }
                    }
                    Slot::Child(_, b) => {
                        stack.push((node, idx + 1));
                        let child = self.visit(&mut cursor, b, &mut budget)?;
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
        self.root = self.build(entries)?;
        self.key_count = entries.len() as u64;
        self.loaded = true;
        Ok(())
    }

    /// The one write path (`insert` is a batch of one), a per-key loop on
    /// the batch's one write-back cursor ([`Disk::write_back`]). Each key
    /// descends, writes its slot, then bumps and writes the statistics
    /// header (`num_inserts`, `num_conflicts`) of its leaf and of every
    /// ancestor from the root down (the full-path maintenance the paper
    /// calls out for LIPP, Fig. 6), and finally rebuilds the shallowest
    /// node on its path that has grown too conflicted. Every read goes
    /// through the cursor, so it sees the batch's own writes, and a block
    /// written again, such as a header that several keys bump or a block 0
    /// whose slot and header both change, is charged at its first write and
    /// reaches the disk once when the batch returns.
    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        let mut laps = StepLaps::start(&self.disk);
        let disk = Arc::clone(&self.disk);
        disk.write_back(|cursor| {
            for &(key, value) in entries {
                // Descend, keeping each ancestor with the slot it routed the
                // key through. A descent visits each node at most once, so
                // one past the node count means a child pointer is cyclic.
                let mut path: Vec<(LippNode, u32)> = Vec::new();
                let mut budget = self.node_count;
                let mut node = self.visit(cursor, self.root, &mut budget)?;
                let (slot, content) = loop {
                    let slot = node.predict(key);
                    match node.read_slot(cursor, slot)? {
                        Slot::Child(_, b) => {
                            let child = self.visit(cursor, b, &mut budget)?;
                            path.push((std::mem::replace(&mut node, child), slot));
                        }
                        other => break (slot, other),
                    }
                };
                laps.lap(&mut self.breakdown, InsertStep::Search);

                let conflicted = match content {
                    Slot::Data(k, _) if k == key => {
                        // Upsert in place: no statistics change.
                        node.write_slot(cursor, slot, Slot::Data(key, value))?;
                        laps.lap(&mut self.breakdown, InsertStep::Insert);
                        self.breakdown.finish_insert();
                        continue;
                    }
                    Slot::Null => {
                        node.write_slot(cursor, slot, Slot::Data(key, value))?;
                        node.header.data_count += 1;
                        laps.lap(&mut self.breakdown, InsertStep::Insert);
                        false
                    }
                    Slot::Data(k0, v0) => {
                        // Conflict: push both keys into a freshly created child
                        // node (LIPP's per-insert SMO, roughly one in three
                        // inserts, O7).
                        self.smo_count += 1;
                        let telemetry = Arc::clone(&self.disk);
                        let _span = telemetry.telemetry().span(OpClass::Smo);
                        telemetry.telemetry().add(OpClass::Smo, 1);
                        let mut pair = [(k0, v0), (key, value)];
                        pair.sort_unstable_by_key(|e| e.0);
                        let child = self.build(&pair)?;
                        node.write_slot(cursor, slot, Slot::Child(pair[0].0, child))?;
                        node.header.data_count -= 1;
                        node.header.child_count += 1;
                        laps.lap(&mut self.breakdown, InsertStep::Smo);
                        true
                    }
                    Slot::Child(..) => unreachable!("descent only stops at NULL or DATA slots"),
                };
                self.key_count += 1;

                // Maintenance: the leaf's statistics, then every ancestor's
                // from the root down.
                for n in std::iter::once(&mut node).chain(path.iter_mut().map(|(n, _)| n)) {
                    n.header.num_inserts += 1;
                    n.header.num_conflicts += u32::from(conflicted);
                    n.write_header(cursor)?;
                }
                laps.lap(&mut self.breakdown, InsertStep::Maintenance);

                // Rebuild the shallowest node on the path that needs it,
                // repointing its parent's slot (or the root). The leaf joins
                // the path so that it can be the target; its slot goes unused.
                let shallowest =
                    path.iter().map(|(n, _)| n).chain([&node]).position(|n| self.should_rebuild(n));
                if let Some(i) = shallowest {
                    path.push((node, slot));
                    path.truncate(i + 1);
                    let (target, _) = path.pop().expect("the rebuild target is on the path");
                    self.rebuild_subtree(cursor, &target, path.pop())?;
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
        // Node blocks (headers included: the batch's cursor stores what it
        // wrote before the batch returns) are on disk, so the handle's plain
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
    use crate::node::{blocks_for, head_slots, slots_per_block};
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

    /// A cold lookup reads at most two blocks per level: one when the
    /// probed slot shares block 0 with the header, two when it does not.
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
        assert!(per_query >= 1.5, "a 250 000-slot root keeps few slots beside its header");
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
        // write per path level per key; the batch's cursor charges one per
        // touched node.
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
        // accumulate in the headers the batch writes and must trigger
        // rebuilds mid-batch.
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

    /// An index on 512-byte blocks, no pool, that rebuilds a subtree once
    /// its inserts reach half its build size.
    fn eager_rebuilds() -> LippIndex {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let config = LippConfig { rebuild_insert_factor: 0.5, ..Default::default() };
        LippIndex::with_config(disk, config).unwrap()
    }

    /// Every node's header, children before their parent.
    fn headers(l: &LippIndex) -> Vec<crate::node::LippHeader> {
        let mut cursor = l.disk.cursor();
        let root = LippNode::load(&mut cursor, l.file, l.root, BlockKind::Leaf).unwrap();
        let mut headers = Vec::new();
        root.walk_subtree(&mut cursor, l.node_count, |_| {}, |_, n| headers.push(n.header))
            .unwrap();
        headers
    }

    /// A batch keeps each node's statistics exactly as per-key inserts do:
    /// the counts, inserts and conflicts a rebuild decides on are written
    /// by every insert, not held back for the end of the batch.
    #[test]
    fn a_batch_and_per_key_inserts_keep_the_same_statistics() {
        let (mut batched, mut per_key) = (eager_rebuilds(), eager_rebuilds());
        // Keys clustered 7 apart over a few root slots: they conflict, and
        // the subtrees they grow are rebuilt.
        let bulk: Vec<Entry> = (0..500u64).map(|i| (i * 1_000, i)).collect();
        batched.bulk_load(&bulk).unwrap();
        per_key.bulk_load(&bulk).unwrap();
        let batch: Vec<Entry> = (0..3_000u64).map(|i| (100_000 + i * 7, i)).collect();
        batched.insert_batch(&batch).unwrap();
        for &(k, v) in &batch {
            per_key.insert(k, v).unwrap();
        }
        assert!(per_key.disk.stats().freed_blocks() > 0, "some subtree was rebuilt");
        assert_eq!(batched.stats().smo_count, per_key.stats().smo_count);
        assert_eq!(batched.node_count(), per_key.node_count());
        assert_eq!(headers(&batched), headers(&per_key));
    }

    /// A rebuild collects and frees its subtree in one walk that reads each
    /// block at most once: on a disk with no pool, the Smo step of an
    /// insert that rebuilds reads no more blocks than the rebuild frees.
    /// (The subtree root's block 0 is already in hand; the parent's slot
    /// block that the repointing may read is the one read outside it.)
    #[test]
    fn a_rebuild_reads_each_block_of_its_subtree_once() {
        let mut l = eager_rebuilds();
        let data: Vec<Entry> = (0..500u64).map(|i| (i * 1_000, i)).collect();
        l.bulk_load(&data).unwrap();
        let mut rebuilds = 0;
        for i in 0..3_000u64 {
            let (freed, before) = (l.disk.stats().freed_blocks(), l.insert_breakdown());
            l.insert(100_000 + i * 7, i).unwrap();
            let freed = l.disk.stats().freed_blocks() - freed;
            let reads = l.insert_breakdown().since(&before).reads(InsertStep::Smo);
            if freed > 0 {
                assert!(reads <= freed, "insert {i}: {reads} reads to rebuild {freed} blocks");
                rebuilds += 1;
            }
        }
        assert!(rebuilds >= 3, "{rebuilds} rebuilds");
    }

    /// The nodes a lookup of `key` visits, root first, each with the slot
    /// it probes there.
    fn path_of(l: &LippIndex, key: Key) -> Vec<(LippNode, u32)> {
        let mut cursor = l.disk.cursor();
        let mut node = LippNode::load(&mut cursor, l.file, l.root, BlockKind::Leaf).unwrap();
        let mut path = Vec::new();
        loop {
            let slot = node.predict(key);
            let next = node.read_slot(&mut cursor, slot).unwrap();
            path.push((node, slot));
            match next {
                Slot::Child(_, b) => {
                    node = LippNode::load(&mut cursor, l.file, b, BlockKind::Leaf).unwrap()
                }
                _ => return path,
            }
        }
    }

    /// 20 000 scattered keys bulk-loaded on 4 KiB blocks, where a node's
    /// first 168 slots share block 0 with its header. Keys that collide on
    /// a root slot build small conflict children.
    fn scattered_4k(queue_depth: usize) -> (LippIndex, Vec<Entry>) {
        let disk = Disk::in_memory(DiskConfig::with_block_size(4096).queue_depth(queue_depth));
        let mut l = LippIndex::new(disk).unwrap();
        // The splitmix64 finaliser: keys with no structure a model can use.
        let mix = |i: u64| {
            let z = (i ^ (i >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) >> 24
        };
        let mut keys: Vec<Key> = (1..=20_000u64).map(mix).collect();
        keys.sort_unstable();
        keys.dedup();
        let data: Vec<Entry> = keys.into_iter().map(|k| (k, k ^ 1)).collect();
        l.bulk_load(&data).unwrap();
        (l, data)
    }

    #[test]
    fn a_small_node_is_one_block() {
        const BS: usize = 4096;
        assert_eq!((head_slots(BS), slots_per_block(BS)), (168, 170));
        assert_eq!((blocks_for(168, BS), blocks_for(169, BS), blocks_for(338, BS)), (1, 2, 2));
        assert_eq!(blocks_for(339, BS), 3);
        let (l, data) = scattered_4k(1);
        let mut small = 0;
        let root = LippNode::load(&mut l.disk.cursor(), l.file, l.root, BlockKind::Leaf).unwrap();
        let walk = |_: &mut BlockCursor<'_>, node: &LippNode| {
            if node.header.capacity as usize <= head_slots(BS) {
                assert_eq!(node.total_blocks(BS), 1, "a {}-slot node", node.header.capacity);
                small += 1;
            }
        };
        root.walk_subtree(&mut l.disk.cursor(), l.node_count, |_| {}, walk).unwrap();
        assert!(small > 1_000, "scattered keys build many small children ({small})");

        // A cold lookup reads one block at a level whose probed slot is in
        // block 0 and two at any other; a one-block child is always one.
        let mut ended_in_small = 0;
        for &(k, v) in data.iter().step_by(7) {
            let path = path_of(&l, k);
            let (leaf, ancestors) = path.split_last().unwrap();
            let above: u64 = ancestors
                .iter()
                .map(|(n, s)| 1 + u64::from(n.slot_block_id(*s, BS) != n.start))
                .sum();
            l.disk.stats().reset();
            l.disk.reset_access_state();
            assert_eq!(l.lookup(k).unwrap(), Some(v), "key {k}");
            if !ancestors.is_empty() && leaf.0.total_blocks(BS) == 1 {
                assert_eq!(l.disk.stats().reads(), above + 1, "key {k}: one read for its child");
                ended_in_small += 1;
            }
        }
        assert!(ended_in_small > 100, "{ended_in_small} lookups ended in a one-block child");
    }

    #[test]
    fn a_header_write_keeps_the_slots_in_its_block() {
        let mut l = index();
        // Four keys build a 20-slot root on 512-byte blocks: its first 19
        // slots share block 0 with the header, the last is in block 1.
        let bulk = [(0, 0), (1_000, 1), (2_000, 2), (3_000, 3)];
        l.bulk_load(&bulk).unwrap();
        assert_eq!(head_slots(512), 19);
        let batch: Vec<Entry> = (0..40u64).map(|i| (i * 75 + 1, 100 + i)).collect();
        l.insert_batch(&batch).unwrap();
        assert_eq!(l.insert_breakdown().reads(InsertStep::Maintenance), 0, "no header read");

        // Reload the root from disk: the header the batch wrote last must
        // sit beside every slot the batch wrote into block 0.
        let mut cursor = l.disk.cursor();
        let root = LippNode::load(&mut cursor, l.file, l.root, BlockKind::Leaf).unwrap();
        let h = root.header;
        assert_eq!((h.capacity, h.build_size), (20, 4));
        assert_eq!((h.num_inserts, u64::from(h.num_conflicts)), (40, l.stats().smo_count));
        assert!(h.num_conflicts > 0, "some inserts conflicted");
        let (mut data_slots, mut child_slots) = (0, 0);
        for slot in 0..h.capacity {
            match root.read_slot(&mut cursor, slot).unwrap() {
                Slot::Data(..) => data_slots += 1,
                Slot::Child(..) => child_slots += 1,
                Slot::Null => {}
            }
        }
        assert_eq!((h.data_count, h.child_count), (data_slots, child_slots));
        assert!(child_slots > 0 && data_slots > 0);
        let mut stored = Vec::new();
        root.walk_subtree(&mut cursor, l.node_count, |e| stored.push(e), |_, _| {}).unwrap();
        let mut want: Vec<Entry> = bulk.iter().copied().chain(batch.iter().copied()).collect();
        want.sort_unstable();
        assert_eq!(stored, want, "every slot the batch wrote survives its header write");
    }

    #[test]
    fn a_batch_reads_each_one_block_child_once() {
        const BS: usize = 4096;
        let (l, data) = scattered_4k(8);
        // Probes that end in one-block children one level below the root,
        // several per child.
        let (mut probes, mut children, mut root_blocks) = (Vec::new(), Vec::new(), Vec::new());
        for &(k, _) in &data {
            if let [(root, slot), (child, _)] = &path_of(&l, k)[..] {
                if child.total_blocks(BS) == 1 {
                    probes.push(k);
                    children.push(child.start);
                    root_blocks.push(root.slot_block_id(*slot, BS));
                }
            }
        }
        children.sort_unstable();
        children.dedup();
        root_blocks.retain(|&b| b != l.root);
        root_blocks.sort_unstable();
        root_blocks.dedup();
        assert!(children.len() > 100 && probes.len() > 2 * children.len());

        l.disk.stats().reset();
        l.disk.reset_access_state();
        let mut out = Vec::new();
        l.lookup_batch(&probes, &mut out).unwrap();
        assert!(out.iter().all(Option::is_some));
        // The root's block 0 and each of its probed slot blocks, then every
        // child's one block, each read once.
        let want = 1 + root_blocks.len() + children.len();
        assert_eq!(l.disk.stats().reads(), want as u64);
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
        slots[cyclic as usize] = Slot::Child(0, start);
        let model = lidx_models::LinearModel::new(0.0, 0.0);
        LippNode::write_new(&l.disk, l.file, start, BlockKind::Leaf, model, &slots, 1).unwrap();
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
        // So does an insert's descent, which would otherwise also grow its
        // path without limit.
        let mut l = cyclic(Slot::Null, 0, 1);
        let inserted = within_deadline(move || l.insert(5, 5));
        assert!(matches!(inserted, Err(IndexError::Internal(_))), "{inserted:?}");
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

    /// A child slot that names an ancestor fails the subtree walk a rebuild
    /// makes with a typed error instead of a stack overflow.
    #[test]
    fn a_cyclic_child_pointer_fails_the_subtree_walk() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let file = disk.create_file().unwrap();
        let (capacity, model) = (8u32, lidx_models::LinearModel::new(0.1, 0.0));
        let parent = disk.allocate(file, blocks_for(capacity, 512)).unwrap();
        let child = disk.allocate(file, blocks_for(capacity, 512)).unwrap();
        let mut slots = vec![Slot::Null; capacity as usize];
        slots[1] = Slot::Data(10, 10);
        slots[3] = Slot::Child(10, parent);
        LippNode::write_new(&disk, file, child, BlockKind::Leaf, model, &slots, 1).unwrap();
        slots[3] = Slot::Child(10, child);
        let root =
            LippNode::write_new(&disk, file, parent, BlockKind::Leaf, model, &slots, 2).unwrap();
        let (mut entries, mut done) = (0, 0);
        let walked = root.walk_subtree(&mut disk.cursor(), 2, |_| entries += 1, |_, _| done += 1);
        assert!(matches!(walked, Err(IndexError::Internal(_))), "{walked:?}");
        // The root, its child and the root again each give their one entry
        // before the budget of two child steps runs out.
        assert_eq!(entries, 3, "entries seen before the cycle is caught");
        assert_eq!(done, 0, "no node of the cycle finishes its walk");
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
