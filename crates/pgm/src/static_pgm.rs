//! One immutable PGM component: recursive ε-bounded piecewise-linear levels
//! over a dense sorted data array, all stored on disk.
//!
//! File layout (one file per component):
//!
//! ```text
//! [ data blocks         ]  (key u64, payload u64) pairs, sentinel padded
//! [ level-1 seg blocks  ]  records over data positions
//! [ level-2 seg blocks  ]  records over level-1 record indexes
//! ...
//! ```
//!
//! Each segment record is 28 bytes: `first_key u64, slope f64, start u64,
//! len u32`, predicting *absolute* positions within the level below. The
//! root level always has exactly one record, which is kept in memory with
//! the component's metadata (the paper's memory-resident meta block).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use lidx_core::{Entry, IndexError, IndexResult, Key, MetaReader, MetaWriter, Value};
use lidx_models::pla::segment_keys;
use lidx_models::LinearModel;
use lidx_storage::{BlockCursor, BlockKind, BlockRef, Disk, SeqHint};

/// Size of one data entry in bytes.
const ENTRY_BYTES: usize = 16;
/// Size of one segment record in bytes.
const RECORD_BYTES: usize = 28;
/// Sentinel key used to pad unused slots.
const SENTINEL: Key = Key::MAX;

/// A segment record of an inner PGM level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegRecord {
    /// Smallest key covered by the segment.
    pub first_key: Key,
    /// Slope of the linear model (positions per key unit).
    pub slope: f64,
    /// Absolute start position of the covered range in the level below.
    pub start: u64,
    /// Number of covered positions in the level below.
    pub len: u32,
}

impl SegRecord {
    /// Predicts the absolute position of `key` in the level below, clamped to
    /// the record's range.
    pub fn predict(&self, key: Key) -> u64 {
        if self.len == 0 {
            return self.start;
        }
        let model =
            LinearModel { slope: self.slope, intercept: -self.slope * self.first_key as f64 };
        self.start + model.predict_clamped(key, self.len as usize) as u64
    }
}

/// Description of one on-disk level of segment records.
#[derive(Debug, Clone, Copy)]
struct LevelInfo {
    first_block: u32,
    records: u64,
}

/// One immutable PGM component.
pub struct StaticPgm {
    disk: Arc<Disk>,
    file: u32,
    epsilon: usize,
    /// Number of data entries.
    len: u64,
    data_blocks: u32,
    /// Inner levels, from the one directly above the data (index 0) upwards.
    levels: Vec<LevelInfo>,
    /// The single root record (memory-resident).
    root: SegRecord,
    /// Smallest and largest stored keys.
    min_key: Key,
    max_key: Key,
}

fn entries_per_block(block_size: usize) -> usize {
    block_size / ENTRY_BYTES
}

fn records_per_block(block_size: usize) -> usize {
    block_size / RECORD_BYTES
}

fn record_at(buf: &[u8], slot: usize) -> SegRecord {
    let off = slot * RECORD_BYTES;
    SegRecord {
        first_key: Key::from_le_bytes(buf[off..off + 8].try_into().unwrap()),
        slope: f64::from_le_bytes(buf[off + 8..off + 16].try_into().unwrap()),
        start: u64::from_le_bytes(buf[off + 16..off + 24].try_into().unwrap()),
        len: u32::from_le_bytes(buf[off + 24..off + 28].try_into().unwrap()),
    }
}

fn put_record(buf: &mut [u8], slot: usize, r: &SegRecord) {
    let off = slot * RECORD_BYTES;
    buf[off..off + 8].copy_from_slice(&r.first_key.to_le_bytes());
    buf[off + 8..off + 16].copy_from_slice(&r.slope.to_le_bytes());
    buf[off + 16..off + 24].copy_from_slice(&r.start.to_le_bytes());
    buf[off + 24..off + 28].copy_from_slice(&r.len.to_le_bytes());
}

fn entry_at(buf: &[u8], slot: usize) -> Entry {
    let off = slot * ENTRY_BYTES;
    (
        Key::from_le_bytes(buf[off..off + 8].try_into().unwrap()),
        Value::from_le_bytes(buf[off + 8..off + 16].try_into().unwrap()),
    )
}

impl StaticPgm {
    /// Builds a component from sorted, strictly-increasing entries.
    ///
    /// A dedicated file is created on `disk`; all data and segment blocks are
    /// written immediately (this is the bulk-load / merge cost of Fig. 7).
    pub fn build(disk: Arc<Disk>, entries: &[Entry], epsilon: usize) -> IndexResult<Self> {
        let bs = disk.block_size();
        let file = disk.create_file()?;
        let per_block = entries_per_block(bs);
        let data_blocks = entries.len().div_ceil(per_block).max(1) as u32;
        let data_start = disk.allocate(file, data_blocks)?;
        debug_assert_eq!(data_start, 0);

        // Write the data level.
        let mut buf = vec![0u8; bs];
        for b in 0..data_blocks as usize {
            for slot in 0..per_block {
                let off = slot * ENTRY_BYTES;
                let (k, v) = entries.get(b * per_block + slot).copied().unwrap_or((SENTINEL, 0));
                buf[off..off + 8].copy_from_slice(&k.to_le_bytes());
                buf[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
            }
            disk.write(file, data_start + b as u32, BlockKind::Leaf, &buf)?;
        }

        // Build the inner levels bottom-up.
        let mut levels = Vec::new();
        let mut keys: Vec<Key> = entries.iter().map(|&(k, _)| k).collect();
        let mut records: Vec<SegRecord> = if keys.is_empty() {
            vec![SegRecord { first_key: 0, slope: 0.0, start: 0, len: 0 }]
        } else {
            segment_keys(&keys, epsilon)
                .iter()
                .map(|s| SegRecord {
                    first_key: s.first_key,
                    slope: s.model.slope,
                    start: s.start_index as u64,
                    len: s.len as u32,
                })
                .collect()
        };

        let rec_per_block = records_per_block(bs);
        while records.len() > 1 {
            // Persist this level.
            let blocks = records.len().div_ceil(rec_per_block) as u32;
            let first_block = disk.allocate(file, blocks)?;
            let mut block_buf = vec![0u8; bs];
            for b in 0..blocks as usize {
                block_buf.fill(0);
                for slot in 0..rec_per_block {
                    let idx = b * rec_per_block + slot;
                    let rec = records.get(idx).copied().unwrap_or(SegRecord {
                        first_key: SENTINEL,
                        slope: 0.0,
                        start: 0,
                        len: 0,
                    });
                    put_record(&mut block_buf, slot, &rec);
                }
                disk.write(file, first_block + b as u32, BlockKind::Inner, &block_buf)?;
            }
            levels.push(LevelInfo { first_block, records: records.len() as u64 });

            // Segment the first keys of this level to form the level above.
            keys = records.iter().map(|r| r.first_key).collect();
            records = segment_keys(&keys, epsilon)
                .iter()
                .map(|s| SegRecord {
                    first_key: s.first_key,
                    slope: s.model.slope,
                    start: s.start_index as u64,
                    len: s.len as u32,
                })
                .collect();
        }

        let root =
            records.pop().unwrap_or(SegRecord { first_key: 0, slope: 0.0, start: 0, len: 0 });
        Ok(StaticPgm {
            disk,
            file,
            epsilon,
            len: entries.len() as u64,
            data_blocks,
            levels,
            root,
            min_key: entries.first().map_or(Key::MAX, |e| e.0),
            max_key: entries.last().map_or(0, |e| e.0),
        })
    }

    /// Number of stored entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the component holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Smallest stored key (`Key::MAX` when empty).
    pub fn min_key(&self) -> Key {
        self.min_key
    }

    /// Largest stored key (0 when empty).
    pub fn max_key(&self) -> Key {
        self.max_key
    }

    /// Number of blocks holding the data level.
    pub fn data_blocks(&self) -> u32 {
        self.data_blocks
    }

    /// Number of inner levels (excluding the in-memory root and the data).
    pub fn inner_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total number of segment records across the on-disk inner levels.
    pub fn inner_records(&self) -> u64 {
        self.levels.iter().map(|l| l.records).sum()
    }

    /// Total blocks occupied by this component's file.
    pub fn blocks(&self) -> u64 {
        self.disk.num_blocks(self.file).unwrap_or(0) as u64
    }

    /// Serialises the component's placement metadata (file id, level table,
    /// in-memory root record, key bounds) into `w`. The inverse of
    /// [`load_meta`](Self::load_meta).
    pub fn save_meta(&self, w: &mut MetaWriter) {
        w.u32(self.file)
            .u64(self.epsilon as u64)
            .u64(self.len)
            .u32(self.data_blocks)
            .u32(self.levels.len() as u32);
        for l in &self.levels {
            w.u32(l.first_block).u64(l.records);
        }
        w.u64(self.root.first_key)
            .f64(self.root.slope)
            .u64(self.root.start)
            .u32(self.root.len)
            .u64(self.min_key)
            .u64(self.max_key);
    }

    /// Rebuilds a component handle from metadata written by
    /// [`save_meta`](Self::save_meta); the blocks themselves must already
    /// exist on `disk`.
    pub fn load_meta(disk: Arc<Disk>, r: &mut MetaReader<'_>) -> IndexResult<Self> {
        let file = r.u32()?;
        let epsilon = r.u64()? as usize;
        let len = r.u64()?;
        let data_blocks = r.u32()?;
        let level_count = r.u32()? as usize;
        let mut levels = Vec::with_capacity(level_count.min(64));
        for _ in 0..level_count {
            levels.push(LevelInfo { first_block: r.u32()?, records: r.u64()? });
        }
        let root =
            SegRecord { first_key: r.u64()?, slope: r.f64()?, start: r.u64()?, len: r.u32()? };
        let min_key = r.u64()?;
        let max_key = r.u64()?;
        Ok(StaticPgm { disk, file, epsilon, len, data_blocks, levels, root, min_key, max_key })
    }

    /// Frees every block of the component (called after an LSM merge; models
    /// deleting the component's file).
    pub fn release(&self) {
        let blocks = self.disk.num_blocks(self.file).unwrap_or(0);
        if blocks > 0 {
            self.disk.free(self.file, 0, blocks);
        }
    }

    /// Finds, within an inner level, the record covering `key`: the rightmost
    /// record with `first_key <= key` inside the window `[lo, hi]`.
    fn search_level(
        &self,
        cursor: &mut BlockCursor<'_>,
        level: &LevelInfo,
        key: Key,
        predicted: u64,
    ) -> IndexResult<SegRecord> {
        let rec_per_block = records_per_block(self.disk.block_size());
        // The covering record sits at rank(key) - 1, which can fall one slot
        // below the ε window around the predicted rank — widen by one.
        let lo = predicted.saturating_sub(self.epsilon as u64 + 1);
        let hi = (predicted + self.epsilon as u64).min(level.records - 1);
        let first_block = (lo / rec_per_block as u64) as u32;
        let last_block = (hi / rec_per_block as u64) as u32;
        let mut best: Option<SegRecord> = None;
        for b in first_block..=last_block {
            let buf = cursor.read(self.file, level.first_block + b, BlockKind::Inner)?;
            let slot_lo = if b == first_block { (lo % rec_per_block as u64) as usize } else { 0 };
            let slot_hi = if b == last_block {
                (hi % rec_per_block as u64) as usize
            } else {
                rec_per_block - 1
            };
            for slot in slot_lo..=slot_hi {
                let rec = record_at(buf, slot);
                if rec.first_key == SENTINEL {
                    break;
                }
                if rec.first_key <= key {
                    best = Some(rec);
                } else {
                    break;
                }
            }
        }
        // The window is ε-bounded around the true position, so the covering
        // record is always inside it; if every record in the window starts
        // after `key`, the key belongs to the component's very first segment.
        match best {
            Some(r) => Ok(r),
            None => {
                let buf = cursor.read(self.file, level.first_block, BlockKind::Inner)?;
                Ok(record_at(buf, 0))
            }
        }
    }

    /// Locates the data position of the first entry with key `>= key`.
    /// Returns `self.len` if every stored key is smaller. Reads go through
    /// `cursor`, which holds the data block of the answer afterwards.
    fn locate(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<u64> {
        if self.len == 0 {
            return Ok(0);
        }
        // Descend the inner levels from the root.
        let mut rec = self.root;
        for level in self.levels.iter().rev() {
            let predicted = rec.predict(key).min(level.records - 1);
            rec = self.search_level(cursor, level, key, predicted)?;
        }
        // `rec` now covers positions in the data level.
        let per_block = entries_per_block(self.disk.block_size());
        let predicted = rec.predict(key).min(self.len - 1);
        let lo = predicted.saturating_sub(self.epsilon as u64);
        let hi = (predicted + self.epsilon as u64).min(self.len - 1);
        let first_block = (lo / per_block as u64) as u32;
        let last_block = (hi / per_block as u64) as u32;
        // Find the first position in [lo, hi] whose key is >= `key`; thanks to
        // the ε bound this is the global lower bound as long as key falls in
        // the window; otherwise it is lo or hi+1.
        let mut result = hi + 1;
        'outer: for b in first_block..=last_block {
            let buf = cursor.read(self.file, b, BlockKind::Leaf)?;
            let slot_lo = if b == first_block { (lo % per_block as u64) as usize } else { 0 };
            let slot_hi =
                if b == last_block { (hi % per_block as u64) as usize } else { per_block - 1 };
            for slot in slot_lo..=slot_hi {
                let (k, _) = entry_at(buf, slot);
                if k >= key {
                    result = b as u64 * per_block as u64 + slot as u64;
                    break 'outer;
                }
            }
        }
        Ok(result)
    }

    /// Point lookup. The answer's data block is almost always the one
    /// `locate` ended on, so the shared cursor answers its re-read.
    pub fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        if self.len == 0 || key < self.min_key || key > self.max_key {
            return Ok(None);
        }
        let mut cursor = self.disk.cursor();
        let pos = self.locate(&mut cursor, key)?;
        if pos >= self.len {
            return Ok(None);
        }
        let per_block = entries_per_block(self.disk.block_size());
        let block = (pos / per_block as u64) as u32;
        let slot = (pos % per_block as u64) as usize;
        let buf = cursor.read(self.file, block, BlockKind::Leaf)?;
        let (k, v) = entry_at(buf, slot);
        Ok((k == key).then_some(v))
    }

    /// Batched point lookups over probe keys sorted ascending.
    ///
    /// `pending` holds indexes into `keys` / `out` not yet resolved by a
    /// newer component, in ascending key order; every index whose key this
    /// component stores is answered into `out` and removed from `pending`.
    ///
    /// The data level is one globally sorted array, so consecutive probe
    /// keys usually land in the same data block: the last fetched block is
    /// pinned ([`BlockRef`]) and any following key inside its key range is
    /// answered by an in-memory binary search — one block fetch and one
    /// model descent per *run* of co-located keys instead of per key.
    ///
    /// On a disk with outstanding reads the wave strategy
    /// (`lookup_batch_sorted_queued`) runs instead. Depth 1 keeps
    /// this loop: the waves fetch whole ε-windows and give up the pinned
    /// block, which at depth 1 costs more device reads and nearly twice the
    /// CPU per lookup (DESIGN.md §3.6).
    pub fn lookup_batch_sorted(
        &self,
        keys: &[Key],
        pending: &mut Vec<u32>,
        out: &mut [Option<Value>],
    ) -> IndexResult<()> {
        if self.len == 0 {
            return Ok(());
        }
        if self.disk.queue_depth() > 1 {
            return self.lookup_batch_sorted_queued(keys, pending, out);
        }
        let per_block = entries_per_block(self.disk.block_size());
        // The pinned last data block: (first key, last key, valid slots, frame).
        let mut cached: Option<(Key, Key, usize, BlockRef)> = None;
        let mut cursor = self.disk.cursor();
        let mut still = Vec::with_capacity(pending.len());
        for &i in pending.iter() {
            let key = keys[i as usize];
            if key < self.min_key || key > self.max_key {
                still.push(i);
                continue;
            }
            let served = match &cached {
                Some((first, last, valid, buf)) if key >= *first && key <= *last => {
                    Self::search_block(buf, *valid, key)
                }
                _ => {
                    let pos = self.locate(&mut cursor, key)?;
                    if pos >= self.len {
                        None
                    } else {
                        let block = (pos / per_block as u64) as u32;
                        let buf = cursor.read(self.file, block, BlockKind::Leaf)?.clone();
                        let valid = ((self.len - u64::from(block) * per_block as u64) as usize)
                            .min(per_block);
                        let slot = (pos % per_block as u64) as usize;
                        let (k, v) = entry_at(&buf, slot);
                        let hit = (k == key).then_some(v);
                        let first = entry_at(&buf, 0).0;
                        let last = entry_at(&buf, valid - 1).0;
                        cached = Some((first, last, valid, buf));
                        hit
                    }
                }
            };
            match served {
                Some(v) => out[i as usize] = Some(v),
                None => still.push(i),
            }
        }
        *pending = still;
        Ok(())
    }

    /// Binary search for `key` among the first `valid` slots of a pinned
    /// data block.
    fn search_block(buf: &[u8], valid: usize, key: Key) -> Option<Value> {
        let (mut lo, mut hi) = (0usize, valid);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (k, v) = entry_at(buf, mid);
            match k.cmp(&key) {
                std::cmp::Ordering::Equal => return Some(v),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }

    /// Wave-fetches the distinct blocks named by `ranges` (inclusive block
    /// ranges relative to `first_block`) through the outstanding-read
    /// queue, returning the pinned frames keyed by relative block id.
    fn fetch_wave(
        &self,
        ranges: impl Iterator<Item = (u64, u64)>,
        first_block: u32,
        kind: BlockKind,
    ) -> IndexResult<HashMap<u32, BlockRef>> {
        let mut blocks = BTreeSet::new();
        for (b0, b1) in ranges {
            for b in b0..=b1 {
                blocks.insert(b as u32);
            }
        }
        let mut q = self.disk.read_queue();
        for &b in &blocks {
            q.submit(self.file, first_block + b, kind)?;
        }
        Ok(q.complete()?.into_iter().map(|c| (c.block - first_block, c.frame)).collect())
    }

    /// The outstanding-I/O variant of [`Self::lookup_batch_sorted`], taken
    /// on a disk with outstanding reads: the pending probes descend the
    /// component *level by level*, and each level's ε-windows are fetched as
    /// one set of completion waves (charged max-per-wave, not
    /// sum-of-misses). The blocks touched and the answers produced are the
    /// same as the synchronous path; only the simulated time differs.
    fn lookup_batch_sorted_queued(
        &self,
        keys: &[Key],
        pending: &mut Vec<u32>,
        out: &mut [Option<Value>],
    ) -> IndexResult<()> {
        let bs = self.disk.block_size();
        let rec_per_block = records_per_block(bs) as u64;
        let per_block = entries_per_block(bs) as u64;
        let eps = self.epsilon as u64;
        // Probes outside the component's key range stay pending for older
        // components; everything else starts its descent at the root.
        let mut active: Vec<(u32, SegRecord)> = pending
            .iter()
            .filter(|&&i| (self.min_key..=self.max_key).contains(&keys[i as usize]))
            .map(|&i| (i, self.root))
            .collect();

        // Inner levels: predict every probe's window, wave-fetch the
        // windows' blocks, then resolve each probe's covering record in
        // memory (mirroring `search_level`).
        for level in self.levels.iter().rev() {
            let windows: Vec<(u64, u64)> = active
                .iter()
                .map(|&(i, rec)| {
                    let predicted = rec.predict(keys[i as usize]).min(level.records - 1);
                    (predicted.saturating_sub(eps + 1), (predicted + eps).min(level.records - 1))
                })
                .collect();
            let frames = self.fetch_wave(
                windows.iter().map(|&(lo, hi)| (lo / rec_per_block, hi / rec_per_block)),
                level.first_block,
                BlockKind::Inner,
            )?;
            for ((i, rec), &(lo, hi)) in active.iter_mut().zip(&windows) {
                let key = keys[*i as usize];
                let (first_block, last_block) = (lo / rec_per_block, hi / rec_per_block);
                let mut best: Option<SegRecord> = None;
                for b in first_block..=last_block {
                    let buf = &frames[&(b as u32)];
                    let slot_lo = if b == first_block { (lo % rec_per_block) as usize } else { 0 };
                    let slot_hi = if b == last_block {
                        (hi % rec_per_block) as usize
                    } else {
                        rec_per_block as usize - 1
                    };
                    for slot in slot_lo..=slot_hi {
                        let r = record_at(buf, slot);
                        if r.first_key == SENTINEL {
                            break;
                        }
                        if r.first_key <= key {
                            best = Some(r);
                        } else {
                            break;
                        }
                    }
                }
                *rec = match best {
                    Some(r) => r,
                    None => {
                        // Same fallback as `search_level`: the key precedes
                        // every record of the window, so it belongs to the
                        // level's very first segment.
                        // A fresh cursor: one shared across the batch could
                        // serve a repeated fallback for free, changing what
                        // the batch costs.
                        let mut cursor = self.disk.cursor();
                        record_at(cursor.read(self.file, level.first_block, BlockKind::Inner)?, 0)
                    }
                };
            }
        }

        // Data level: one more wave over the final ε-windows, then answer
        // each probe in memory (mirroring `locate` + the point lookup).
        let windows: Vec<(u64, u64)> = active
            .iter()
            .map(|&(i, rec)| {
                let predicted = rec.predict(keys[i as usize]).min(self.len - 1);
                (predicted.saturating_sub(eps), (predicted + eps).min(self.len - 1))
            })
            .collect();
        let frames = self.fetch_wave(
            windows.iter().map(|&(lo, hi)| (lo / per_block, hi / per_block)),
            0,
            BlockKind::Leaf,
        )?;
        let mut answered = Vec::new();
        for (&(i, _), &(lo, hi)) in active.iter().zip(&windows) {
            let key = keys[i as usize];
            let (first_block, last_block) = (lo / per_block, hi / per_block);
            let mut pos = hi + 1;
            'outer: for b in first_block..=last_block {
                let buf = &frames[&(b as u32)];
                let slot_lo = if b == first_block { (lo % per_block) as usize } else { 0 };
                let slot_hi = if b == last_block {
                    (hi % per_block) as usize
                } else {
                    per_block as usize - 1
                };
                for slot in slot_lo..=slot_hi {
                    if entry_at(buf, slot).0 >= key {
                        pos = b * per_block + slot as u64;
                        break 'outer;
                    }
                }
            }
            if pos >= self.len {
                continue;
            }
            let (k, v) = entry_at(&frames[&((pos / per_block) as u32)], (pos % per_block) as usize);
            if k == key {
                out[i as usize] = Some(v);
                answered.push(i);
            }
        }
        // Misses stay pending in their original (ascending-key) order.
        let answered: BTreeSet<u32> = answered.into_iter().collect();
        pending.retain(|i| !answered.contains(i));
        Ok(())
    }

    /// Collects up to `count` entries with keys `>= start` into `out`,
    /// reading through the scan's `cursor` (a [`Disk::scan_cursor`]): the
    /// descent's inner levels are point-class, and every data block —
    /// `locate`'s ε-window included — is a scan read, so at queue depth > 1
    /// the first data miss already prefetches the blocks that follow it.
    pub fn scan_into(
        &self,
        cursor: &mut BlockCursor<'_>,
        start: Key,
        count: usize,
        out: &mut Vec<Entry>,
    ) -> IndexResult<()> {
        if self.len == 0 || count == 0 || start > self.max_key {
            return Ok(());
        }
        // The scan's first data block is the one `locate` ended on: the
        // cursor carries both, so it is read once.
        let mut pos = if start <= self.min_key { 0 } else { self.locate(cursor, start)? };
        let per_block = entries_per_block(self.disk.block_size());
        let mut taken = 0usize;
        let mut hint = SeqHint::Auto;
        while pos < self.len && taken < count {
            let block = (pos / per_block as u64) as u32;
            // After the first block the stream advances through physically
            // consecutive data blocks, so the sequential charge is declared
            // explicitly instead of inferred from the shared last-access
            // word (which concurrent readers would perturb).
            let buf = cursor.read_hinted(self.file, block, BlockKind::Leaf, hint)?;
            hint = SeqHint::Sequential;
            let mut slot = (pos % per_block as u64) as usize;
            while slot < per_block && pos < self.len && taken < count {
                let e = entry_at(buf, slot);
                debug_assert_ne!(e.0, SENTINEL);
                out.push(e);
                taken += 1;
                slot += 1;
                pos += 1;
            }
        }
        Ok(())
    }

    /// Reads every entry back (used by LSM merges). Charges one read per data
    /// block.
    pub fn all_entries(&self) -> IndexResult<Vec<Entry>> {
        let mut out = Vec::with_capacity(self.len as usize);
        self.scan_into(&mut self.disk.scan_cursor(), 0, self.len as usize, &mut out)?;
        if self.len > 0 && out.len() != self.len as usize {
            return Err(IndexError::Internal(format!(
                "static PGM expected {} entries, read {}",
                self.len,
                out.len()
            )));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_storage::DiskConfig;

    fn disk(bs: usize) -> Arc<Disk> {
        Disk::in_memory(DiskConfig::with_block_size(bs))
    }

    fn skewed_entries(n: u64) -> Vec<Entry> {
        let mut keys: Vec<u64> = (0..n).map(|i| i * 11 + (i % 31) * (i % 17) * 13).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter().map(|k| (k, k + 1)).collect()
    }

    #[test]
    fn build_and_lookup_all_keys() {
        let entries = skewed_entries(30_000);
        let pgm = StaticPgm::build(disk(512), &entries, 16).unwrap();
        assert_eq!(pgm.len(), entries.len() as u64);
        assert!(pgm.inner_levels() >= 1);
        for &(k, v) in entries.iter().step_by(703) {
            assert_eq!(pgm.lookup(k).unwrap(), Some(v), "key {k}");
        }
        assert_eq!(pgm.lookup(entries.last().unwrap().0 + 1).unwrap(), None);
        let (first_key, first_val) = entries[0];
        assert_eq!(pgm.lookup(first_key).unwrap(), Some(first_val));
        // A key strictly between two stored keys is absent.
        let gap = entries[100].0 + 1;
        if gap != entries[101].0 {
            assert_eq!(pgm.lookup(gap).unwrap(), None);
        }
    }

    #[test]
    fn lookup_io_is_bounded_by_height_and_epsilon() {
        let entries = skewed_entries(50_000);
        let pgm = StaticPgm::build(disk(4096), &entries, 64).unwrap();
        pgm.disk.stats().reset();
        let queries: Vec<Key> = entries.iter().step_by(977).map(|e| e.0).collect();
        for &k in &queries {
            pgm.disk.reset_access_state();
            pgm.lookup(k).unwrap();
        }
        let per_query = pgm.disk.stats().reads() as f64 / queries.len() as f64;
        // Height is 1-2 inner levels at this scale: expect ≤ 4 blocks/query.
        assert!(per_query <= 4.0, "average {per_query} blocks per lookup is too high");
    }

    #[test]
    fn scan_returns_sorted_contiguous_entries() {
        let entries = skewed_entries(20_000);
        let pgm = StaticPgm::build(disk(512), &entries, 32).unwrap();
        let mut out = Vec::new();
        pgm.scan_into(&mut pgm.disk.scan_cursor(), entries[5_000].0, 300, &mut out).unwrap();
        assert_eq!(out.len(), 300);
        assert_eq!(out[0], entries[5_000]);
        assert_eq!(out[299], entries[5_299]);
        // Starting below the minimum yields the first entries.
        out.clear();
        pgm.scan_into(&mut pgm.disk.scan_cursor(), 0, 5, &mut out).unwrap();
        assert_eq!(out, entries[..5].to_vec());
        // Starting beyond the maximum yields nothing.
        out.clear();
        pgm.scan_into(&mut pgm.disk.scan_cursor(), entries.last().unwrap().0 + 1, 5, &mut out)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn queued_batch_matches_sync_answers_and_overlaps_io() {
        use lidx_storage::DeviceModel;
        let entries = skewed_entries(30_000);
        // Sorted probes mixing hits and misses (gap keys plus one beyond
        // the maximum), exactly as the dynamic index would forward them.
        let mut probes: Vec<Key> = entries.iter().step_by(23).map(|e| e.0).collect();
        probes.push(entries.last().unwrap().0 + 5);
        probes.insert(120, entries[2_760].0 + 1);

        let config =
            || DiskConfig::with_block_size(512).device(DeviceModel::ssd()).buffer_blocks(64);
        let sync_pgm = StaticPgm::build(Disk::in_memory(config()), &entries, 16).unwrap();
        let mut sync_pending: Vec<u32> = (0..probes.len() as u32).collect();
        let mut sync_out = vec![None; probes.len()];
        sync_pgm.disk.stats().reset();
        sync_pgm.lookup_batch_sorted(&probes, &mut sync_pending, &mut sync_out).unwrap();
        let sync_ns = sync_pgm.disk.stats().device_ns();

        let queued_pgm =
            StaticPgm::build(Disk::in_memory(config().queue_depth(8)), &entries, 16).unwrap();
        let mut queued_pending: Vec<u32> = (0..probes.len() as u32).collect();
        let mut queued_out = vec![None; probes.len()];
        queued_pgm.disk.stats().reset();
        queued_pgm.lookup_batch_sorted(&probes, &mut queued_pending, &mut queued_out).unwrap();
        let queued_ns = queued_pgm.disk.stats().device_ns();

        assert_eq!(queued_out, sync_out, "queue depth must never change the answers");
        assert_eq!(queued_pending, sync_pending, "unresolved probes must match");
        assert!(
            queued_ns * 2 < sync_ns,
            "depth-8 window waves ({queued_ns} ns) must overlap the depth-1 cost ({sync_ns} ns)"
        );
        assert!(queued_pgm.disk.stats().overlap_saved_ns() > 0);
    }

    #[test]
    fn all_entries_roundtrips_and_release_frees_blocks() {
        let entries = skewed_entries(5_000);
        let d = disk(512);
        let pgm = StaticPgm::build(Arc::clone(&d), &entries, 16).unwrap();
        assert_eq!(pgm.all_entries().unwrap(), entries);
        let blocks = pgm.blocks();
        assert!(blocks > 0);
        pgm.release();
        assert_eq!(d.stats().freed_blocks(), blocks);
    }

    #[test]
    fn empty_and_tiny_components() {
        let pgm = StaticPgm::build(disk(512), &[], 16).unwrap();
        assert!(pgm.is_empty());
        assert_eq!(pgm.lookup(5).unwrap(), None);
        let mut out = Vec::new();
        pgm.scan_into(&mut pgm.disk.scan_cursor(), 0, 10, &mut out).unwrap();
        assert!(out.is_empty());

        let one = StaticPgm::build(disk(512), &[(42, 43)], 16).unwrap();
        assert_eq!(one.lookup(42).unwrap(), Some(43));
        assert_eq!(one.lookup(41).unwrap(), None);
        assert_eq!(one.min_key(), 42);
        assert_eq!(one.max_key(), 42);
    }
}
