//! The FITing-tree [`DiskIndex`](lidx_core::DiskIndex) implementation.

use std::sync::Arc;

use lidx_core::{
    index::validate_bulk_load, Entry, IndexError, IndexKind, IndexRead, IndexResult, IndexStats,
    IndexWrite, InsertBreakdown, InsertStep, Key, MetaReader, MetaWriter, StepLaps, Value,
};
use lidx_models::pla::ShrinkingCone;
use lidx_storage::{AccessClass, BlockCursor, BlockId, BlockKind, Disk, OpClass, SeqHint};

use crate::directory::Directory;
use crate::segment::{
    self, entries_per_block, find_in_block, read_all_data, read_buffer, search_buffer, search_data,
    write_buffer_region, write_data_region, SegmentMeta,
};

/// Configuration of the on-disk FITing-tree.
#[derive(Debug, Clone, Copy)]
pub struct FitingConfig {
    /// Error bound ε of the per-segment linear models (the paper's default
    /// is 64).
    pub epsilon: usize,
    /// Capacity of each segment's delta buffer in entries (the paper's
    /// default is 256).
    pub buffer_entries: usize,
}

impl Default for FitingConfig {
    fn default() -> Self {
        FitingConfig { epsilon: 64, buffer_entries: 256 }
    }
}

/// An on-disk FITing-tree with the Delta insert strategy.
pub struct FitingTree {
    disk: Arc<Disk>,
    config: FitingConfig,
    directory: Directory,
    /// File holding segment data; block 0 is the overflow buffer for keys
    /// below the global minimum (§4.2).
    seg_file: u32,
    /// Smallest key covered by any segment; smaller keys live in the
    /// overflow buffer.
    global_min_key: Key,
    /// Number of entries currently in the overflow buffer.
    overflow_count: u32,
    key_count: u64,
    smo_count: u64,
    loaded: bool,
    breakdown: InsertBreakdown,
}

impl FitingTree {
    /// Creates an empty FITing-tree with default configuration.
    pub fn new(disk: Arc<Disk>) -> IndexResult<Self> {
        Self::with_config(disk, FitingConfig::default())
    }

    /// Creates an empty FITing-tree with an explicit configuration.
    pub fn with_config(disk: Arc<Disk>, config: FitingConfig) -> IndexResult<Self> {
        assert!(config.epsilon >= 1, "epsilon must be at least 1");
        assert!(config.buffer_entries >= 1, "buffer must hold at least one entry");
        let directory = Directory::new(Arc::clone(&disk))?;
        let seg_file = disk.create_file()?;
        // Block 0 of the segment file is the overflow buffer.
        let b0 = disk.allocate(seg_file, 1)?;
        debug_assert_eq!(b0, 0);
        Ok(FitingTree {
            disk,
            config,
            directory,
            seg_file,
            global_min_key: 0,
            overflow_count: 0,
            key_count: 0,
            smo_count: 0,
            loaded: false,
            breakdown: InsertBreakdown::new(),
        })
    }

    /// Reopens a FITing-tree from [`IndexWrite::save_meta`] bytes against a
    /// disk that already holds its blocks. `config` must match the one the
    /// tree was created with.
    pub fn load(disk: Arc<Disk>, config: FitingConfig, meta: &[u8]) -> IndexResult<Self> {
        let mut r = MetaReader::new(meta);
        let seg_file = r.u32()?;
        let global_min_key = r.u64()?;
        let overflow_count = r.u32()?;
        let key_count = r.u64()?;
        let smo_count = r.u64()?;
        let dir_file = r.u32()?;
        let dir_root = r.u32()?;
        let dir_height = r.u32()?;
        let dir_leaves = r.u64()?;
        let dir_routing = r.u64()?;
        let dir_segments = r.u64()?;
        let directory = Directory::from_parts(
            Arc::clone(&disk),
            dir_file,
            dir_root,
            dir_height,
            dir_leaves,
            dir_routing,
            dir_segments,
        );
        Ok(FitingTree {
            disk,
            config,
            directory,
            seg_file,
            global_min_key,
            overflow_count,
            key_count,
            smo_count,
            loaded: true,
            breakdown: InsertBreakdown::new(),
        })
    }

    /// The configured error bound.
    pub fn epsilon(&self) -> usize {
        self.config.epsilon
    }

    /// Number of segments currently in the index.
    pub fn segment_count(&self) -> u64 {
        self.directory.segment_count()
    }

    fn buffer_blocks_per_segment(&self) -> u32 {
        (self.config.buffer_entries.div_ceil(entries_per_block(self.disk.block_size()))) as u32
    }

    /// Creates segments (extents + metadata) covering `entries`, which must be
    /// sorted and non-empty unless the index is being initialised empty.
    fn build_segments(&mut self, entries: &[Entry]) -> IndexResult<Vec<SegmentMeta>> {
        let per_block = entries_per_block(self.disk.block_size());
        let buffer_blocks = self.buffer_blocks_per_segment();
        if entries.is_empty() {
            // One empty segment anchored at key 0 keeps every code path
            // uniform for an index that starts out empty.
            let data_blocks = 1;
            let start = self.disk.allocate(self.seg_file, data_blocks + buffer_blocks)?;
            write_data_region(&self.disk, self.seg_file, start, data_blocks, &[])?;
            return Ok(vec![SegmentMeta {
                first_key: 0,
                slope: 0.0,
                start_block: start,
                data_blocks,
                buffer_blocks,
                count: 0,
                buffer_count: 0,
            }]);
        }

        let mut cone = ShrinkingCone::new(self.config.epsilon);
        let mut pla_segments = Vec::new();
        for &(k, _) in entries {
            if let Some(s) = cone.push(k) {
                pla_segments.push(s);
            }
        }
        if let Some(s) = cone.finish() {
            pla_segments.push(s);
        }

        let mut metas = Vec::with_capacity(pla_segments.len());
        for seg in &pla_segments {
            let slice = &entries[seg.start_index..seg.start_index + seg.len];
            let data_blocks = seg.len.div_ceil(per_block).max(1) as u32;
            let start = self.disk.allocate(self.seg_file, data_blocks + buffer_blocks)?;
            write_data_region(&self.disk, self.seg_file, start, data_blocks, slice)?;
            metas.push(SegmentMeta {
                first_key: seg.first_key,
                slope: seg.model.slope,
                start_block: start,
                data_blocks,
                buffer_blocks,
                count: seg.len as u32,
                buffer_count: 0,
            });
        }
        Ok(metas)
    }

    fn read_overflow(
        &self,
        cursor: &mut BlockCursor<'_>,
        class: AccessClass,
    ) -> IndexResult<Vec<Entry>> {
        if self.overflow_count == 0 {
            return Ok(Vec::new());
        }
        let buf = cursor.read_class(self.seg_file, 0, BlockKind::Utility, class)?;
        Ok((0..self.overflow_count as usize).map(|i| segment::entry_at(buf, i)).collect())
    }

    /// Probes the overflow buffer for `key`: a binary search over its sorted
    /// entries where they lie in the pinned block.
    fn search_overflow(
        &self,
        cursor: &mut BlockCursor<'_>,
        key: Key,
    ) -> IndexResult<Option<Value>> {
        if self.overflow_count == 0 {
            return Ok(None);
        }
        let buf = cursor.read_class(self.seg_file, 0, BlockKind::Utility, AccessClass::Point)?;
        find_in_block(buf, 0..self.overflow_count as usize, key)
    }

    /// Answers `key` from its covering segment `meta`: the ε-window of the
    /// data region first, then the delta buffer, every read through `cursor`.
    fn search_segment(
        &self,
        cursor: &mut BlockCursor<'_>,
        meta: &SegmentMeta,
        key: Key,
    ) -> IndexResult<Option<Value>> {
        match search_data(cursor, self.seg_file, meta, key, self.config.epsilon)? {
            Some(v) => Ok(Some(v)),
            None => search_buffer(cursor, self.seg_file, meta, key),
        }
    }

    /// One point lookup, every read through the operation's `cursor`.
    fn lookup_with(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<Option<Value>> {
        if key < self.global_min_key {
            return self.search_overflow(cursor, key);
        }
        let (meta, _) = self.directory.find(cursor, key)?;
        self.search_segment(cursor, &meta, key)
    }

    fn write_overflow(&self, entries: &[Entry]) -> IndexResult<()> {
        let bs = self.disk.block_size();
        let mut buf = vec![0u8; bs];
        for (i, &(k, v)) in entries.iter().enumerate() {
            let off = i * segment::ENTRY_BYTES;
            buf[off..off + 8].copy_from_slice(&k.to_le_bytes());
            buf[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
        }
        self.disk.write(self.seg_file, 0, BlockKind::Utility, &buf)?;
        Ok(())
    }

    fn overflow_capacity(&self) -> usize {
        entries_per_block(self.disk.block_size())
    }

    /// The wave strategy of [`lookup_batch`](IndexRead::lookup_batch) on a
    /// disk with outstanding reads: every probe is routed through the
    /// directory first (inner blocks only), in ascending key order, then the
    /// distinct ε-window data blocks and occupied delta-buffer blocks of the
    /// whole batch are prefetched in one submission wave, and finally each
    /// probe is resolved exactly as [`IndexRead::lookup`] would — its reads
    /// consume the parked frames. The routing pass and the resolve pass each
    /// read through a cursor of their own.
    fn lookup_batch_queued(
        &self,
        keys: &[Key],
        order: &[u32],
        out: &mut [Option<Value>],
    ) -> IndexResult<()> {
        let epsilon = self.config.epsilon;
        let per_block = entries_per_block(self.disk.block_size());
        let mut metas: Vec<(u32, Option<SegmentMeta>)> = Vec::with_capacity(order.len());
        let mut blocks: std::collections::BTreeSet<BlockId> = std::collections::BTreeSet::new();
        let mut cursor = self.disk.cursor();
        for &i in order {
            let key = keys[i as usize];
            if key < self.global_min_key {
                metas.push((i, None));
                continue;
            }
            let (meta, _) = self.directory.find(&mut cursor, key)?;
            if meta.count > 0 {
                let pred = meta.predict(key);
                let lo = pred.saturating_sub(epsilon);
                let hi = (pred + epsilon).min(meta.count as usize - 1);
                for b in lo / per_block..=hi / per_block {
                    blocks.insert(meta.start_block + b as u32);
                }
            }
            if meta.buffer_count > 0 {
                let used = (meta.buffer_count as usize).div_ceil(per_block) as u32;
                for b in 0..used {
                    blocks.insert(meta.start_block + meta.data_blocks + b);
                }
            }
            metas.push((i, Some(meta)));
        }
        drop(cursor);

        let mut q = self.disk.read_queue();
        for &b in &blocks {
            q.prefetch(self.seg_file, b, BlockKind::Leaf, SeqHint::Auto)?;
        }
        q.flush()?;

        let mut cursor = self.disk.cursor();
        for (i, meta) in metas {
            let key = keys[i as usize];
            out[i as usize] = match meta {
                None => self.search_overflow(&mut cursor, key)?,
                Some(meta) => self.search_segment(&mut cursor, &meta, key)?,
            };
        }
        Ok(())
    }

    /// Resegments `old` (identified by its directory `first_key`) together
    /// with `extra` entries (sorted by key, duplicates removed), replacing it
    /// with freshly built segments. On keys present both on disk and in
    /// `extra`, the `extra` payload wins: the delta-buffer fill folds its
    /// pending overwrites through here.
    fn resegment(&mut self, old: SegmentMeta, extra: &[Entry]) -> IndexResult<()> {
        self.smo_count += 1;
        // The SMO is the learned-index pause the paper attributes tail
        // latency to: time the whole operation and count it, off a local
        // Arc so the span does not pin a borrow of `self`.
        let telemetry = Arc::clone(&self.disk);
        let _span = telemetry.telemetry().span(OpClass::Smo);
        telemetry.telemetry().add(OpClass::Smo, 1);
        let mut stored = read_all_data(&self.disk, self.seg_file, &old)?;
        let buffer = read_buffer(&mut self.disk.cursor(), self.seg_file, &old, AccessClass::Scan)?;
        stored.extend_from_slice(&buffer);
        // Data region and delta buffer are disjoint by construction, so this
        // sort sees no equal keys.
        stored.sort_unstable_by_key(|&(k, _)| k);
        let mut merged = Vec::with_capacity(stored.len() + extra.len());
        lidx_core::merge_newest_wins(extra.iter().copied(), stored, usize::MAX, &mut merged);

        let news = self.build_segments(&merged)?;
        let was_first = old.first_key == self.global_min_key;
        self.directory.replace(old.first_key, &news)?;
        self.disk.free(self.seg_file, old.start_block, old.total_blocks());
        if was_first {
            self.global_min_key = news[0].first_key;
        }
        Ok(())
    }
}

impl IndexRead for FitingTree {
    fn kind(&self) -> IndexKind {
        IndexKind::FitingTree
    }

    fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        self.lookup_with(&mut self.disk.cursor(), key)
    }

    /// Batched lookups. On a disk with outstanding reads this is the wave
    /// strategy (`lookup_batch_queued`). At queue depth 1 it is the per-key
    /// loop in input order: the wave strategy runs in sorted key order, and
    /// that order alone costs the read-path cost pin two more device reads
    /// at depth 1 (DESIGN.md §3.6), so this design keeps its pair.
    fn lookup_batch(&self, keys: &[Key], out: &mut Vec<Option<Value>>) -> IndexResult<()> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        if self.disk.queue_depth() <= 1 || keys.len() <= 1 {
            out.clear();
            out.reserve(keys.len());
            let mut cursor = self.disk.cursor();
            for &key in keys {
                out.push(self.lookup_with(&mut cursor, key)?);
            }
            return Ok(());
        }
        out.clear();
        out.resize(keys.len(), None);
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_unstable_by_key(|&i| keys[i as usize]);
        self.lookup_batch_queued(keys, &order, out)
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize> {
        out.clear();
        if count == 0 || !self.loaded {
            if !self.loaded {
                return Err(IndexError::NotInitialized);
            }
            return Ok(0);
        }

        // One cursor carries every read of the scan. Entries in the overflow
        // buffer are all below the global minimum, so they come first in key
        // order.
        let mut cursor = self.disk.cursor();
        if start < self.global_min_key && self.overflow_count > 0 {
            let overflow = self.read_overflow(&mut cursor, AccessClass::Scan)?;
            for &(k, v) in overflow.iter().filter(|&&(k, _)| k >= start) {
                out.push((k, v));
                if out.len() == count {
                    return Ok(out.len());
                }
            }
        }

        let anchor = start.max(self.global_min_key);
        let (mut meta, mut slot) = self.directory.find(&mut cursor, anchor)?;
        // A sound directory holds `segment_count` segments: a walk past that
        // many follows a damaged leaf link, which may cycle for ever.
        let mut segments = 1;
        let mut first_segment = true;
        loop {
            // Only the blocks that can contain keys >= `start` are fetched:
            // within the first segment the model bounds the start position to
            // within ε, and later segments are read from their beginning.
            let from_pos = if first_segment && start > meta.first_key {
                meta.predict(start).saturating_sub(self.config.epsilon)
            } else {
                0
            };
            first_segment = false;
            let needed = count - out.len();
            let data = segment::read_data_from(
                &mut cursor,
                self.seg_file,
                &meta,
                from_pos,
                start,
                needed,
            )?;
            let buffer = if meta.buffer_count > 0 {
                read_buffer(&mut cursor, self.seg_file, &meta, AccessClass::Scan)?
            } else {
                Vec::new()
            };
            let mut di = data.iter().peekable();
            let mut bi = buffer.iter().peekable();
            while out.len() < count {
                let next = match (di.peek(), bi.peek()) {
                    (Some(&&d), Some(&&b)) => {
                        if d.0 <= b.0 {
                            di.next();
                            d
                        } else {
                            bi.next();
                            b
                        }
                    }
                    (Some(&&d), None) => {
                        di.next();
                        d
                    }
                    (None, Some(&&b)) => {
                        bi.next();
                        b
                    }
                    (None, None) => break,
                };
                if next.0 >= start {
                    out.push(next);
                }
            }
            if out.len() == count {
                return Ok(out.len());
            }
            match self.directory.next_segment(&mut cursor, slot)? {
                Some(_) if segments == self.directory.segment_count() => {
                    return Err(IndexError::Internal(format!(
                        "scan walked past the directory's {segments} segments"
                    )));
                }
                Some((m, s)) => {
                    meta = m;
                    slot = s;
                    segments += 1;
                }
                None => return Ok(out.len()),
            }
        }
    }

    fn len(&self) -> u64 {
        self.key_count
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            keys: self.key_count,
            height: self.directory.height() + 1,
            inner_nodes: self.directory.routing_nodes() + self.directory.leaf_nodes(),
            leaf_nodes: self.directory.segment_count(),
            smo_count: self.smo_count,
        }
    }
}

impl IndexWrite for FitingTree {
    fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if self.loaded {
            return Err(IndexError::AlreadyLoaded);
        }
        validate_bulk_load(entries)?;
        let metas = self.build_segments(entries)?;
        self.global_min_key = metas[0].first_key;
        self.directory.bulk_build(&metas)?;
        self.key_count = entries.len() as u64;
        self.loaded = true;
        Ok(())
    }

    /// The one write path (`insert` is a batch of one): each segment's
    /// delta buffer is filled in one read-modify-write pass. The entries are
    /// sorted, grouped by covering segment (one directory descent per group,
    /// plus one boundary probe when more keys follow), and each group pays
    /// the buffer read, the buffer write, the directory meta update and any
    /// data-region overwrite rewrite *once* — one-entry batches pay all four
    /// per key. Keys below the global minimum are likewise folded into the
    /// overflow buffer as one group.
    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        if entries.is_empty() {
            return Ok(());
        }
        // Stable sort: duplicate keys keep slice order, later entries win.
        let mut order: Vec<u32> = (0..entries.len() as u32).collect();
        order.sort_by_key(|&i| entries[i as usize].0);

        let mut laps = StepLaps::start(&self.disk);

        // Group 1: keys below the global minimum go to the overflow buffer
        // (§4.2), merged in one pass; overflowing it folds everything into
        // the first segment with a single resegmentation SMO.
        let below = order.partition_point(|&i| entries[i as usize].0 < self.global_min_key);
        if below > 0 {
            let mut overflow = self.read_overflow(&mut self.disk.cursor(), AccessClass::Point)?;
            laps.lap(&mut self.breakdown, InsertStep::Search);
            for &i in &order[..below] {
                let (key, value) = entries[i as usize];
                match overflow.binary_search_by_key(&key, |&(k, _)| k) {
                    Ok(pos) => overflow[pos].1 = value,
                    Err(pos) => {
                        overflow.insert(pos, (key, value));
                        self.key_count += 1;
                    }
                }
                self.breakdown.finish_insert();
            }
            if overflow.len() <= self.overflow_capacity() {
                self.overflow_count = overflow.len() as u32;
                self.write_overflow(&overflow)?;
                laps.lap(&mut self.breakdown, InsertStep::Insert);
            } else {
                let (first, _) =
                    self.directory.find(&mut self.disk.cursor(), self.global_min_key)?;
                self.resegment(first, &overflow)?;
                self.overflow_count = 0;
                self.write_overflow(&[])?;
                laps.lap(&mut self.breakdown, InsertStep::Smo);
            }
        }

        // Group 2: one pass per covering segment. Its search phase reads
        // through one cursor, dropped before the group's first write.
        let mut next = below;
        while next < order.len() {
            let mut cursor = self.disk.cursor();
            let first_key = entries[order[next] as usize].0;
            let (meta, slot) = self.directory.find(&mut cursor, first_key)?;
            // The segment covers keys up to (but excluding) the next
            // segment's first key; one directory probe bounds the group —
            // spent only when a key follows that the bound could exclude
            // (the next segment may sit in another directory leaf).
            let group_end = if next + 1 == order.len() {
                order.len()
            } else {
                match self.directory.next_segment(&mut cursor, slot)? {
                    Some((upper, _)) => {
                        let covered = |&i: &u32| entries[i as usize].0 < upper.first_key;
                        next + order[next..].partition_point(covered)
                    }
                    None => order.len(),
                }
            };
            // Probe the data region for the group's first key *before*
            // reading the delta buffer: the buffer blocks follow the data
            // blocks in the segment's extent, so in this order the buffer
            // read is the sequential hop (the other order pays two seeks).
            let first_in_data =
                search_data(&mut cursor, self.seg_file, &meta, first_key, self.config.epsilon)?
                    .is_some();
            let mut buffer = if meta.buffer_count > 0 {
                read_buffer(&mut cursor, self.seg_file, &meta, AccessClass::Point)?
            } else {
                Vec::new()
            };
            // Classify each key: buffer overwrite, data-region overwrite, or
            // brand new (appended to the in-memory buffer). `search_data`
            // probes benefit from the sorted order via the cursor.
            let mut data_overwrites: Vec<Entry> = Vec::new();
            let mut buffer_dirty = false;
            for (n, &i) in order[next..group_end].iter().enumerate() {
                let (key, value) = entries[i as usize];
                if let Ok(pos) = buffer.binary_search_by_key(&key, |&(k, _)| k) {
                    buffer[pos].1 = value;
                    buffer_dirty = true;
                } else if match n {
                    0 => first_in_data,
                    _ => search_data(&mut cursor, self.seg_file, &meta, key, self.config.epsilon)?
                        .is_some(),
                } {
                    match data_overwrites.binary_search_by_key(&key, |&(k, _)| k) {
                        Ok(pos) => data_overwrites[pos].1 = value,
                        Err(pos) => data_overwrites.insert(pos, (key, value)),
                    }
                } else {
                    let pos = buffer.partition_point(|&(k, _)| k < key);
                    buffer.insert(pos, (key, value));
                    buffer_dirty = true;
                    self.key_count += 1;
                }
                self.breakdown.finish_insert();
            }
            drop(cursor);
            laps.lap(&mut self.breakdown, InsertStep::Search);

            if buffer.len() <= self.config.buffer_entries
                && buffer.len() <= meta.buffer_capacity(self.disk.block_size()) as usize
            {
                // Delta fill: apply data overwrites with one region rewrite,
                // then persist the merged buffer and its occupancy once (the
                // directory write is the paper's "extra block").
                if !data_overwrites.is_empty() {
                    let mut data = read_all_data(&self.disk, self.seg_file, &meta)?;
                    for &(key, value) in &data_overwrites {
                        if let Ok(pos) = data.binary_search_by_key(&key, |&(k, _)| k) {
                            data[pos].1 = value;
                        }
                    }
                    write_data_region(
                        &self.disk,
                        self.seg_file,
                        meta.start_block,
                        meta.data_blocks,
                        &data,
                    )?;
                }
                if buffer_dirty {
                    write_buffer_region(&self.disk, self.seg_file, &meta, &buffer)?;
                    if buffer.len() != meta.buffer_count as usize {
                        let mut updated = meta;
                        updated.buffer_count = buffer.len() as u32;
                        self.directory.update_meta(slot, updated)?;
                    }
                }
                laps.lap(&mut self.breakdown, InsertStep::Insert);
            } else {
                // The group overflows the delta buffer: fold every pending
                // change (overwrites and fresh keys — `resegment` lets the
                // extras win on duplicates) into fresh segments, once.
                let mut extras = buffer;
                for &(key, value) in &data_overwrites {
                    match extras.binary_search_by_key(&key, |&(k, _)| k) {
                        Ok(pos) => extras[pos].1 = value,
                        Err(pos) => extras.insert(pos, (key, value)),
                    }
                }
                self.resegment(meta, &extras)?;
                laps.lap(&mut self.breakdown, InsertStep::Smo);
            }
            next = group_end;
        }
        Ok(())
    }

    fn insert_breakdown(&self) -> InsertBreakdown {
        self.breakdown
    }

    fn save_meta(&mut self) -> IndexResult<Vec<u8>> {
        // Every block (segments, buffers, directory nodes, overflow) is
        // written eagerly, so the handle's plain fields are the whole state.
        let mut w = MetaWriter::new();
        w.u32(self.seg_file)
            .u64(self.global_min_key)
            .u32(self.overflow_count)
            .u64(self.key_count)
            .u64(self.smo_count)
            .u32(self.directory.file_id())
            .u32(self.directory.root_block())
            .u32(self.directory.height())
            .u64(self.directory.leaf_nodes())
            .u64(self.directory.routing_nodes())
            .u64(self.directory.segment_count());
        Ok(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_core::payload_for;
    use lidx_storage::DiskConfig;

    fn tree(block_size: usize) -> FitingTree {
        let disk = Disk::in_memory(DiskConfig::with_block_size(block_size));
        FitingTree::with_config(disk, FitingConfig { epsilon: 16, buffer_entries: 16 }).unwrap()
    }

    fn irregular_entries(n: u64) -> Vec<Entry> {
        // A mildly non-linear distribution so several segments are produced.
        let mut keys: Vec<u64> = (0..n).map(|i| i * 17 + (i % 13) * (i % 7) * 29).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter().map(|k| (k, payload_for(k))).collect()
    }

    #[test]
    fn bulk_load_and_lookup() {
        let mut t = tree(512);
        let data = irregular_entries(20_000);
        t.bulk_load(&data).unwrap();
        assert_eq!(t.len(), data.len() as u64);
        assert!(t.segment_count() >= 1);
        for &(k, v) in data.iter().step_by(577) {
            assert_eq!(t.lookup(k).unwrap(), Some(v), "key {k}");
        }
        assert_eq!(t.lookup(data.last().unwrap().0 + 1).unwrap(), None);
    }

    #[test]
    fn inserts_go_to_buffers_then_trigger_resegmentation() {
        let mut t = tree(512);
        let data: Vec<Entry> = (0..2_000u64).map(|i| (i * 10, i)).collect();
        t.bulk_load(&data).unwrap();
        let segments_before = t.segment_count();
        // Insert keys that interleave with existing ones.
        for i in 0..1_000u64 {
            t.insert(i * 10 + 5, i).unwrap();
        }
        assert_eq!(t.len(), 3_000);
        assert!(t.stats().smo_count > 0, "buffer overflows must trigger resegmentation");
        assert!(t.segment_count() >= segments_before);
        for i in (0..1_000u64).step_by(97) {
            assert_eq!(t.lookup(i * 10 + 5).unwrap(), Some(i));
        }
        for &(k, v) in data.iter().step_by(131) {
            assert_eq!(t.lookup(k).unwrap(), Some(v));
        }
    }

    #[test]
    fn keys_below_global_minimum_use_the_overflow_buffer() {
        let mut t = tree(512);
        let data: Vec<Entry> = (1_000..2_000u64).map(|k| (k, k + 1)).collect();
        t.bulk_load(&data).unwrap();
        // Insert keys below the bulk-loaded minimum.
        for k in (0..40u64).rev() {
            t.insert(k, k + 1).unwrap();
        }
        for k in (0..40u64).step_by(7) {
            assert_eq!(t.lookup(k).unwrap(), Some(k + 1), "key {k} must be found");
        }
        assert_eq!(t.len(), 1_040);
        // Fill the overflow buffer far enough to force the fold-in SMO
        // (overflow capacity at 512-byte blocks is 32 entries).
        for k in 100..160u64 {
            t.insert(k, k + 1).unwrap();
        }
        assert!(t.stats().smo_count >= 1);
        for k in (0..40u64).chain(100..160) {
            assert_eq!(t.lookup(k).unwrap(), Some(k + 1), "key {k} must survive the SMO");
        }
        // After folding, the global minimum must have moved down.
        assert_eq!(t.lookup(0).unwrap(), Some(1));
    }

    #[test]
    fn upsert_overwrites_in_data_and_buffer() {
        let mut t = tree(512);
        let data: Vec<Entry> = (0..500u64).map(|i| (i * 3, i)).collect();
        t.bulk_load(&data).unwrap();
        t.insert(30, 999).unwrap();
        assert_eq!(t.lookup(30).unwrap(), Some(999));
        assert_eq!(t.len(), 500, "overwriting must not grow the index");
        t.insert(31, 1).unwrap();
        t.insert(31, 2).unwrap();
        assert_eq!(t.lookup(31).unwrap(), Some(2));
        assert_eq!(t.len(), 501);
    }

    #[test]
    fn scan_merges_segments_buffers_and_overflow() {
        let mut t = tree(512);
        let data: Vec<Entry> = (100..1_100u64).map(|k| (k * 2, k)).collect();
        t.bulk_load(&data).unwrap();
        // Buffered entries inside the range plus overflow entries below it.
        t.insert(201, 1).unwrap();
        t.insert(203, 2).unwrap();
        t.insert(50, 3).unwrap();
        let mut out = Vec::new();
        let n = t.scan(40, 10, &mut out).unwrap();
        assert_eq!(n, 10);
        assert_eq!(out[0], (50, 3), "overflow entries come first");
        assert_eq!(out[1], (200, 100));
        assert_eq!(out[2], (201, 1), "buffered entries are merged in key order");
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));

        // A long scan crosses segment boundaries.
        let n = t.scan(200, 800, &mut out).unwrap();
        assert_eq!(n, 800);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn scan_boundary_cases_match_oracle() {
        let mut t = tree(512);
        let data = irregular_entries(1_200);
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
    fn lookup_fetched_blocks_match_expected_shape() {
        // With ε=16 and 512-byte blocks (32 entries/block) a lookup should
        // fetch the directory path plus one or two data blocks.
        let mut t = tree(512);
        let data: Vec<Entry> = (0..50_000u64).map(|i| (i * 7, i)).collect();
        t.bulk_load(&data).unwrap();
        t.disk().stats().reset();
        t.disk().reset_access_state();
        let mut inner_reads = 0;
        let mut leaf_reads = 0;
        for &(k, _) in data.iter().step_by(911) {
            let before = t.disk().snapshot();
            t.lookup(k).unwrap();
            let d = t.disk().snapshot().since(&before);
            inner_reads += d.reads_of(BlockKind::Inner);
            leaf_reads += d.reads_of(BlockKind::Leaf);
            t.disk().reset_access_state();
        }
        let queries = data.iter().step_by(911).count() as u64;
        assert!(leaf_reads <= queries * 2, "leaf blocks per lookup must stay within 2ε/B + 1");
        assert!(inner_reads >= queries, "every lookup must traverse the directory");
    }

    #[test]
    fn insert_batch_matches_sequential_and_amortises_buffer_writes() {
        let data: Vec<Entry> = (100..2_100u64).map(|k| (k * 10, k)).collect();
        // Mix below-minimum keys (overflow buffer), overwrites of stored and
        // buffered keys, in-batch duplicates and fresh keys spanning several
        // segments.
        let mut batch: Vec<Entry> = (0..600u64).map(|i| (i * 33 + 1_005, i)).collect();
        // After the reverse, (5, 1) is the later occurrence and must win.
        batch.extend([(5, 1), (7, 2), (5, 3), (1_000, 99), (data[50].0, 123)]);
        batch.reverse();

        let mut batched = tree(512);
        batched.bulk_load(&data).unwrap();
        batched.insert_batch(&batch).unwrap();
        let mut sequential = tree(512);
        sequential.bulk_load(&data).unwrap();
        for &(k, v) in &batch {
            sequential.insert(k, v).unwrap();
        }
        assert_eq!(batched.len(), sequential.len());
        assert_eq!(batched.lookup(5).unwrap(), Some(1), "later duplicate wins");
        assert_eq!(batched.lookup(data[50].0).unwrap(), sequential.lookup(data[50].0).unwrap());
        let mut b_scan = Vec::new();
        let mut s_scan = Vec::new();
        batched.scan(0, usize::MAX / 2, &mut b_scan).unwrap();
        sequential.scan(0, usize::MAX / 2, &mut s_scan).unwrap();
        assert_eq!(b_scan, s_scan, "batched and sequential content must be identical");
        assert_eq!(batched.insert_breakdown().inserts, batch.len() as u64);

        // A batch confined to a few segments pays each delta buffer once, so
        // its write count must be far below the per-key loop's.
        let run: Vec<Entry> = (0..64u64).map(|i| (5_000 + i * 10 + 3, i)).collect();
        let mut a = tree(512);
        a.bulk_load(&data).unwrap();
        a.disk().stats().reset();
        a.disk().reset_access_state();
        a.insert_batch(&run).unwrap();
        let batch_writes = a.disk().stats().writes();
        let mut b = tree(512);
        b.bulk_load(&data).unwrap();
        b.disk().stats().reset();
        b.disk().reset_access_state();
        for &(k, v) in &run {
            b.insert(k, v).unwrap();
        }
        let seq_writes = b.disk().stats().writes();
        assert!(
            batch_writes * 2 < seq_writes,
            "batched writes ({batch_writes}) must amortise sequential writes ({seq_writes})"
        );

        let mut empty = tree(512);
        assert!(matches!(empty.insert_batch(&[(1, 1)]), Err(IndexError::NotInitialized)));
    }

    #[test]
    fn one_entry_batch_probes_the_data_block_then_the_adjacent_buffer() {
        use lidx_storage::DeviceModel;
        // One segment with one data block, so its delta buffer is the very
        // next block of the extent. Seeks dominate on the HDD model: reading
        // the data block first makes the buffer read the sequential hop.
        let hdd = DeviceModel::hdd();
        let disk = Disk::in_memory(DiskConfig::with_block_size(512).device(hdd));
        let mut t = FitingTree::with_config(disk, FitingConfig { epsilon: 16, buffer_entries: 16 })
            .unwrap();
        t.bulk_load(&(0..20u64).map(|k| (k * 10, k)).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.segment_count(), 1);
        t.insert_batch(&[(55, 1)]).unwrap();

        let steps_before = t.insert_breakdown();
        let io_before = t.disk().snapshot();
        t.disk().reset_access_state();
        t.insert_batch(&[(75, 2)]).unwrap();
        let io = t.disk().snapshot().since(&io_before);
        let steps = t.insert_breakdown().since(&steps_before);
        assert_eq!(io.reads_of(BlockKind::Leaf), 2, "one data block, one buffer block");
        let directory_reads = steps.reads(InsertStep::Search) - 2;
        assert_eq!(
            steps.device_ns(InsertStep::Search),
            directory_reads * hdd.read_ns + hdd.read_ns + hdd.seq_read_ns,
            "the buffer read must earn the sequential price, not a second seek"
        );
    }

    #[test]
    fn a_lone_key_spends_no_directory_probe_on_bounding_its_group() {
        // Small blocks, so the directory has many leaves and many segments
        // are the last of theirs: bounding such a segment's group means
        // reading the next directory leaf, which only pays off when another
        // key follows. Every fresh single-key insert must therefore cost the
        // same directory descent, wherever its segment sits.
        let disk = Disk::in_memory(DiskConfig::with_block_size(256));
        let mut t =
            FitingTree::with_config(disk, FitingConfig { epsilon: 2, buffer_entries: 16 }).unwrap();
        // Gaps alternating between 1 and 1 000 every eight keys: each change
        // of density ends a segment.
        let mut key = 0u64;
        let data: Vec<Entry> = (0..4_000u64)
            .map(|i| {
                key += if (i / 8) % 2 == 0 { 1 } else { 1_000 };
                (key, i)
            })
            .collect();
        t.bulk_load(&data).unwrap();
        assert!(t.directory.leaf_nodes() > 16, "need segments at directory-leaf ends");
        let mut inner_reads = std::collections::BTreeSet::new();
        for &(k, _) in data.iter().step_by(3) {
            if t.lookup(k + 1).unwrap().is_some() {
                continue;
            }
            t.disk().reset_access_state();
            let before = t.disk().snapshot();
            t.insert(k + 1, 7).unwrap();
            if t.stats().smo_count == 0 {
                inner_reads.insert(t.disk().snapshot().since(&before).reads_of(BlockKind::Inner));
            }
        }
        assert_eq!(inner_reads.len(), 1, "directory reads per insert vary: {inner_reads:?}");
    }

    #[test]
    fn unsorted_or_repeated_bulk_load_is_rejected() {
        let mut t = tree(512);
        assert!(t.bulk_load(&[(3, 1), (2, 1)]).is_err());
        t.bulk_load(&[(1, 1), (2, 2)]).unwrap();
        assert!(matches!(t.bulk_load(&[(1, 1)]), Err(IndexError::AlreadyLoaded)));
        let t2 = tree(512);
        assert!(matches!(t2.lookup(1), Err(IndexError::NotInitialized)));
    }

    #[test]
    fn queued_lookup_batch_matches_depth_one_answers_and_overlaps_io() {
        use lidx_storage::DeviceModel;
        let data = irregular_entries(20_000);
        let mut probes: Vec<Key> = data.iter().step_by(19).map(|&(k, _)| k).collect();
        probes.push(data.last().unwrap().0 + 3); // miss above the key space
        probes.push(1); // miss below / between keys
        probes.reverse();
        let config =
            || DiskConfig::with_block_size(512).device(DeviceModel::ssd()).buffer_blocks(64);

        let mut sync = FitingTree::with_config(
            Disk::in_memory(config()),
            FitingConfig { epsilon: 16, buffer_entries: 16 },
        )
        .unwrap();
        sync.bulk_load(&data).unwrap();
        let mut sync_out = Vec::new();
        sync.disk.stats().reset();
        sync.lookup_batch(&probes, &mut sync_out).unwrap();
        let sync_ns = sync.disk.stats().device_ns();

        let mut queued = FitingTree::with_config(
            Disk::in_memory(config().queue_depth(8)),
            FitingConfig { epsilon: 16, buffer_entries: 16 },
        )
        .unwrap();
        queued.bulk_load(&data).unwrap();
        let mut queued_out = Vec::new();
        queued.disk.stats().reset();
        queued.lookup_batch(&probes, &mut queued_out).unwrap();
        let queued_ns = queued.disk.stats().device_ns();

        assert_eq!(queued_out, sync_out, "queued answers must match the sync path");
        assert!(
            queued_ns * 2 < sync_ns,
            "waved segment fetches must overlap device time ({queued_ns} vs {sync_ns})"
        );
        assert!(queued.disk.stats().overlap_saved_ns() > 0);
    }

    /// Rewrites the stored bytes of directory block `block` with `patch`.
    fn patch_directory_block(t: &FitingTree, block: BlockId, patch: impl FnOnce(&mut [u8])) {
        let file = t.directory.file_id();
        let mut buf = t.disk.read_ref(file, block, BlockKind::Inner).unwrap().to_vec();
        patch(&mut buf);
        t.disk.write(file, block, BlockKind::Inner, &buf).unwrap();
    }

    #[test]
    fn a_record_that_overruns_its_extent_fails_lookup_and_scan() {
        use crate::directory::{DIR_ENTRY, DIR_LEAF_HEADER};
        let data = irregular_entries(3_000);
        // Byte offsets in a directory record of `count` and `buffer_count`.
        for (field, what) in [(28, "count"), (32, "buffer_count")] {
            let mut t = tree(512);
            t.bulk_load(&data).unwrap();
            let metas = t.directory.all_segments().unwrap();
            assert!(metas.len() >= 3, "need a segment with neighbours");
            let forged = metas[1];
            let (_, slot) = t.directory.find(&mut t.disk.cursor(), forged.first_key).unwrap();
            // One entry more than the data region, or the delta buffer, holds
            // (32 entries per 512-byte block).
            let overrun = match field {
                28 => forged.data_blocks * 32 + 1,
                _ => forged.buffer_blocks * 32 + 1,
            };
            patch_directory_block(&t, slot.block, |b| {
                let at = DIR_LEAF_HEADER + slot.slot * DIR_ENTRY + field;
                b[at..at + 4].copy_from_slice(&overrun.to_le_bytes());
            });
            let lookup = t.lookup(forged.first_key);
            assert!(matches!(lookup, Err(IndexError::Internal(_))), "{what}: lookup {lookup:?}");
            let mut out = Vec::new();
            let scan = t.scan(data[0].0, data.len(), &mut out);
            assert!(matches!(scan, Err(IndexError::Internal(_))), "{what}: scan {scan:?}");
            // Only the forged record is refused: its neighbours still answer.
            let first = data[0];
            assert_eq!(t.lookup(first.0).unwrap(), Some(first.1), "{what}");
            assert_eq!(t.scan(first.0, 3, &mut out).unwrap(), 3, "{what}");
        }
    }

    #[test]
    fn a_cyclic_directory_link_fails_the_scan_instead_of_repeating_rows() {
        for keys in [200, 3_000] {
            let data = irregular_entries(keys);
            let mut t = tree(512);
            t.bulk_load(&data).unwrap();
            // The last directory leaf links back to the first: to itself when
            // the directory is one leaf.
            let mut cursor = t.disk.cursor();
            let (_, first) = t.directory.find(&mut cursor, data[0].0).unwrap();
            let (_, last) = t.directory.find(&mut cursor, Key::MAX).unwrap();
            drop(cursor);
            assert_eq!(first.block == last.block, t.directory.leaf_nodes() == 1);
            patch_directory_block(&t, last.block, |b| {
                b[4..8].copy_from_slice(&first.block.to_le_bytes())
            });
            // The scan runs under a watchdog, so a walk that never ends fails
            // the test instead of hanging it. The row budget, four times the
            // stored keys, bounds what a walk that repeats rows collects.
            let (tx, rx) = std::sync::mpsc::channel();
            let start = data[0].0;
            let scanner = std::thread::spawn(move || {
                let mut out = Vec::new();
                tx.send(t.scan(start, 4 * data.len(), &mut out)).expect("the test waits");
            });
            // A scan that never ends leaves its thread detached; one that
            // reports back is joined.
            let scan = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{keys} keys: the scan did not finish within a minute"));
            scanner.join().expect("the scan thread");
            assert!(
                matches!(scan, Err(IndexError::Internal(_))),
                "{keys} keys: the scan returned {scan:?}"
            );
        }
    }

    #[test]
    fn empty_bulk_load_supports_inserts() {
        let mut t = tree(512);
        t.bulk_load(&[]).unwrap();
        assert_eq!(t.len(), 0);
        for k in 0..100u64 {
            t.insert(k * 5, k).unwrap();
        }
        assert_eq!(t.len(), 100);
        for k in (0..100u64).step_by(9) {
            assert_eq!(t.lookup(k * 5).unwrap(), Some(k));
        }
        let mut out = Vec::new();
        assert_eq!(t.scan(0, 1_000, &mut out).unwrap(), 100);
    }
}
