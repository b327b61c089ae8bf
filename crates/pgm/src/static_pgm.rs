//! One immutable PGM component: recursive ε-bounded piecewise-linear levels
//! over a dense sorted array of `(key, payload)` entries, all stored on disk.
//!
//! Layout (in the file the component is built into, from its first block):
//!
//! ```text
//! [ data blocks         ]  (key u64, payload u64) entries, sentinel padded
//! [ level-1 seg blocks  ]  records over data positions
//! [ level-2 seg blocks  ]  records over level-1 record indexes
//! ...
//! ```
//!
//! Each segment record is 28 bytes: `first_key u64, slope f64, start u64,
//! len u32`, predicting *absolute* positions within the level below. The
//! root level always has exactly one record, which is kept in memory with
//! the component's metadata (the paper's memory-resident meta block).
//!
//! Every level is searched the same way: predict a position, then run
//! `search_window` over the ε-window around it. The component has two
//! users, which differ only in their payloads and in the block kind their
//! data level is charged to:
//!
//! * [`crate::PgmIndex`] builds one component per LSM level, each in a file
//!   of its own, with values as payloads and its data level charged to
//!   [`BlockKind::Leaf`] ([`StaticPgm::lookup`], [`StaticPgm::scan_into`]);
//! * the PLA hybrid (§6.1.2) builds its directory as one component over
//!   `(leaf boundary, leaf block)` entries, charged wholly to
//!   [`BlockKind::Inner`] as Table 5 counts it ([`StaticPgm::floor`]).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use lidx_core::{
    block_pointer, Entry, IndexError, IndexResult, Key, MetaReader, MetaWriter, Value,
};
use lidx_models::pla::segment_keys;
use lidx_models::LinearModel;
use lidx_storage::{BlockCursor, BlockId, BlockKind, BlockRef, Disk, FileId, SeqHint, SlotTable};

/// Size of one data entry in bytes.
const ENTRY_BYTES: usize = 16;
/// Size of one segment record in bytes.
const RECORD_BYTES: usize = 28;
/// Sentinel key used to pad unused slots.
const SENTINEL: Key = Key::MAX;
/// What a payload read as a block pointer is called in errors.
const FLOOR_POINTER: &str = "PGM entry block pointer";

/// The `N` bytes at `at` of a fixed-size record.
fn le<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    std::array::from_fn(|i| bytes[at + i])
}

/// Decodes one data entry.
fn entry(e: &[u8; ENTRY_BYTES]) -> Entry {
    (Key::from_le_bytes(le(e, 0)), Value::from_le_bytes(le(e, 8)))
}

/// Writes `entries` packed into `blocks` blocks of `file` from
/// `first_block`, charged to `kind`, padding the last block with sentinels.
pub(crate) fn write_entries(
    disk: &Disk,
    file: FileId,
    first_block: u32,
    blocks: u32,
    kind: BlockKind,
    entries: &[Entry],
) -> IndexResult<()> {
    let mut buf = vec![0u8; disk.block_size()];
    let mut entries = entries.iter().copied();
    for b in 0..blocks {
        for slot in buf.chunks_exact_mut(ENTRY_BYTES) {
            let (k, v) = entries.next().unwrap_or((SENTINEL, 0));
            slot[..8].copy_from_slice(&k.to_le_bytes());
            slot[8..].copy_from_slice(&v.to_le_bytes());
        }
        disk.write(file, first_block + b, kind, &buf)?;
    }
    Ok(())
}

/// The `n` entries from slot `from` of a block of entries.
pub(crate) fn entries_in(
    buf: &[u8],
    from: usize,
    n: usize,
) -> IndexResult<impl Iterator<Item = Entry> + '_> {
    let slots = SlotTable::<ENTRY_BYTES>::new(buf, from * ENTRY_BYTES, n)?;
    Ok((0..n).map(move |i| entry(slots.slot(i))))
}

/// A segment record of an inner PGM level.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SegRecord {
    /// Smallest key covered by the segment.
    first_key: Key,
    /// Slope of the linear model (positions per key unit).
    slope: f64,
    /// Absolute start position of the covered range in the level below.
    start: u64,
    /// Number of covered positions in the level below.
    len: u32,
}

impl SegRecord {
    /// The record padding a level's last block.
    const PAD: SegRecord = SegRecord { first_key: SENTINEL, slope: 0.0, start: 0, len: 0 };

    fn decode(r: &[u8; RECORD_BYTES]) -> Self {
        SegRecord {
            first_key: Key::from_le_bytes(le(r, 0)),
            slope: f64::from_le_bytes(le(r, 8)),
            start: u64::from_le_bytes(le(r, 16)),
            len: u32::from_le_bytes(le(r, 24)),
        }
    }

    fn encode(&self, out: &mut [u8]) {
        out[0..8].copy_from_slice(&self.first_key.to_le_bytes());
        out[8..16].copy_from_slice(&self.slope.to_le_bytes());
        out[16..24].copy_from_slice(&self.start.to_le_bytes());
        out[24..28].copy_from_slice(&self.len.to_le_bytes());
    }

    /// Segments `keys` into the records of the level above them.
    fn fit(keys: &[Key], epsilon: usize) -> Vec<SegRecord> {
        segment_keys(keys, epsilon)
            .iter()
            .map(|s| SegRecord {
                first_key: s.first_key,
                slope: s.model.slope,
                start: s.start_index as u64,
                len: s.len as u32,
            })
            .collect()
    }

    /// Predicts the absolute position of `key` in the level below, clamped to
    /// the record's range.
    fn predict(&self, key: Key) -> u64 {
        if self.len == 0 {
            return self.start;
        }
        let model =
            LinearModel { slope: self.slope, intercept: -self.slope * self.first_key as f64 };
        self.start + model.predict_clamped(key, self.len as usize) as u64
    }
}

/// One on-disk level: `records` records packed from block `first_block`.
#[derive(Debug, Clone, Copy)]
struct LevelInfo {
    first_block: u32,
    records: u64,
}

/// The ε-window search every level of a component shares. Over the records
/// `lo..=hi` of a level of `STRIDE`-byte records sorted by their leading
/// key, packed `per_block` to a block, finds the first record whose key
/// fails `pred` (which holds for a prefix of the keys). Returns its position
/// (`hi + 1` if every record of the window passes) and the last record of
/// the window that passes, decoded by `decode`.
///
/// `frame(b)` gives the level's block `b`. Each block of the window is asked
/// for once and binary-searched in place; the blocks are visited left to
/// right and the search stops in the block that holds the first failing
/// record — the blocks, and the order, a slot-by-slot walk would read.
fn search_window<const STRIDE: usize, T>(
    (lo, hi): (u64, u64),
    per_block: u64,
    mut frame: impl FnMut(u32) -> IndexResult<BlockRef>,
    pred: impl Fn(Key) -> bool,
    decode: impl Fn(&[u8; STRIDE]) -> T,
) -> IndexResult<(u64, Option<T>)> {
    let mut best = None;
    let mut idx = lo;
    while idx <= hi {
        let block = idx / per_block;
        let frame = frame(block as u32)?;
        let from = (idx % per_block) as usize;
        let until = (hi - block * per_block).min(per_block - 1) as usize;
        let slots = SlotTable::<STRIDE>::new(&frame, from * STRIDE, until + 1 - from)?;
        let below = slots.partition_point(&pred);
        if let Some(i) = below.checked_sub(1) {
            best = Some(decode(slots.slot(i)));
        }
        if below < slots.len() {
            return Ok((idx + below as u64, best));
        }
        idx = (block + 1) * per_block;
    }
    Ok((hi + 1, best))
}

/// One immutable PGM component.
pub struct StaticPgm {
    disk: Arc<Disk>,
    file: FileId,
    epsilon: usize,
    /// Number of data entries.
    len: u64,
    /// First block of the data level.
    data_first_block: u32,
    data_blocks: u32,
    /// The kind the data level is charged to.
    data_kind: BlockKind,
    /// Inner levels, from the one directly above the data (index 0) upwards.
    levels: Vec<LevelInfo>,
    /// The single root record (memory-resident).
    root: SegRecord,
    /// Smallest and largest stored keys.
    min_key: Key,
    max_key: Key,
}

fn entries_per_block(block_size: usize) -> u64 {
    (block_size / ENTRY_BYTES) as u64
}

fn records_per_block(block_size: usize) -> u64 {
    (block_size / RECORD_BYTES) as u64
}

impl StaticPgm {
    /// Builds a component from sorted, strictly-increasing entries into
    /// `file`, charging its data level to `data_kind` and its inner levels to
    /// [`BlockKind::Inner`]. Every data and segment block is allocated and
    /// written immediately (the bulk-load / merge cost of Fig. 7), data level
    /// first.
    pub fn build(
        disk: Arc<Disk>,
        file: FileId,
        entries: &[Entry],
        epsilon: usize,
        data_kind: BlockKind,
    ) -> IndexResult<Self> {
        let bs = disk.block_size();
        let per_block = entries_per_block(bs) as usize;
        let data_blocks = entries.len().div_ceil(per_block).max(1) as u32;
        let data_first_block = disk.allocate(file, data_blocks)?;

        write_entries(&disk, file, data_first_block, data_blocks, data_kind, entries)?;

        // Build the inner levels bottom-up.
        let mut levels = Vec::new();
        let keys: Vec<Key> = entries.iter().map(|&(k, _)| k).collect();
        let mut records = SegRecord::fit(&keys, epsilon);
        let rec_per_block = records_per_block(bs) as usize;
        let mut buf = vec![0u8; bs];
        while records.len() > 1 {
            // Persist this level.
            let blocks = records.len().div_ceil(rec_per_block) as u32;
            let first_block = disk.allocate(file, blocks)?;
            for b in 0..blocks as usize {
                buf.fill(0);
                for slot in 0..rec_per_block {
                    let rec = records.get(b * rec_per_block + slot).unwrap_or(&SegRecord::PAD);
                    rec.encode(&mut buf[slot * RECORD_BYTES..]);
                }
                disk.write(file, first_block + b as u32, BlockKind::Inner, &buf)?;
            }
            levels.push(LevelInfo { first_block, records: records.len() as u64 });

            // Segment the first keys of this level to form the level above.
            let keys: Vec<Key> = records.iter().map(|r| r.first_key).collect();
            records = SegRecord::fit(&keys, epsilon);
        }

        let root =
            records.pop().unwrap_or(SegRecord { first_key: 0, slope: 0.0, start: 0, len: 0 });
        Ok(StaticPgm {
            disk,
            file,
            epsilon,
            len: entries.len() as u64,
            data_first_block,
            data_blocks,
            data_kind,
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

    /// Blocks the component occupies: its data level and its on-disk inner
    /// levels.
    pub fn blocks(&self) -> u64 {
        let per = records_per_block(self.disk.block_size());
        u64::from(self.data_blocks)
            + self.levels.iter().map(|l| l.records.div_ceil(per)).sum::<u64>()
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

    /// Rebuilds a handle on a component [`crate::PgmIndex`] built — its data
    /// level at block 0 of its file and charged to [`BlockKind::Leaf`] — from
    /// metadata written by [`save_meta`](Self::save_meta); the blocks
    /// themselves must already exist on `disk`.
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
        Ok(StaticPgm {
            disk,
            file,
            epsilon,
            len,
            data_first_block: 0,
            data_blocks,
            data_kind: BlockKind::Leaf,
            levels,
            root,
            min_key,
            max_key,
        })
    }

    /// Frees every block of the component's file (called after an LSM merge;
    /// models deleting the file, which [`crate::PgmIndex`] gives each
    /// component of its own).
    pub fn release(&self) {
        let blocks = self.disk.num_blocks(self.file).unwrap_or(0);
        if blocks > 0 {
            self.disk.free(self.file, 0, blocks);
        }
    }

    /// The ε-window around the position `rec` predicts for `key` in a level
    /// of `records` records. A floor sits at rank(key) − 1, which can fall
    /// one slot below the window around the predicted rank, so a `floor`
    /// window is widened by one.
    fn window(&self, rec: &SegRecord, key: Key, records: u64, floor: bool) -> (u64, u64) {
        let (eps, predicted) = (self.epsilon as u64, rec.predict(key).min(records - 1));
        (predicted.saturating_sub(eps + u64::from(floor)), (predicted + eps).min(records - 1))
    }

    /// The first record of `level`, read through `cursor`.
    fn first_record(
        &self,
        cursor: &mut BlockCursor<'_>,
        level: &LevelInfo,
    ) -> IndexResult<SegRecord> {
        let buf = cursor.read(self.file, level.first_block, BlockKind::Inner)?;
        Ok(SegRecord::decode(SlotTable::<RECORD_BYTES>::new(buf, 0, 1)?.slot(0)))
    }

    /// Descends the on-disk inner levels from the root to the record
    /// covering `key` in the data level: on each level, the rightmost record
    /// with `first_key <= key` inside the window.
    fn descend(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<SegRecord> {
        let mut rec = self.root;
        for level in self.levels.iter().rev() {
            let (_, covering) = search_window(
                self.window(&rec, key, level.records, true),
                records_per_block(self.disk.block_size()),
                |b| Ok(cursor.read(self.file, level.first_block + b, BlockKind::Inner)?.clone()),
                |k| k <= key,
                SegRecord::decode,
            )?;
            // The window is ε-bounded around the true position, so the
            // covering record is always inside it; if every record in the
            // window starts after `key`, the key belongs to the level's very
            // first segment.
            rec = match covering {
                Some(r) => r,
                None => self.first_record(cursor, level)?,
            };
        }
        Ok(rec)
    }

    /// Reads block `b` of the data level through `cursor`.
    fn data_frame(&self, cursor: &mut BlockCursor<'_>, b: u32) -> IndexResult<BlockRef> {
        Ok(cursor.read(self.file, self.data_first_block + b, self.data_kind)?.clone())
    }

    /// Locates the data position of the first entry with key `>= key`.
    /// Returns `self.len` if every stored key is smaller. Reads go through
    /// `cursor`, which holds the data block of the answer afterwards.
    fn locate(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<u64> {
        if self.len == 0 {
            return Ok(0);
        }
        let rec = self.descend(cursor, key)?;
        // Thanks to the ε bound the first position in the window whose key
        // is >= `key` is the global lower bound as long as `key` falls in
        // the window; otherwise it is the window's first or one past its
        // last.
        let (pos, _) = search_window::<ENTRY_BYTES, ()>(
            self.window(&rec, key, self.len, false),
            entries_per_block(self.disk.block_size()),
            |b| self.data_frame(cursor, b),
            |k| k < key,
            |_| (),
        )?;
        Ok(pos)
    }

    /// Floor lookup in a component whose payloads are block pointers: the
    /// pointer stored with the greatest key `<= key`, or `None` when `key`
    /// precedes every stored key. Every block is read through `cursor`; a
    /// payload past the block-id range is [`IndexError::Internal`].
    pub fn floor(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<Option<BlockId>> {
        if self.len == 0 {
            return Ok(None);
        }
        let rec = self.descend(cursor, key)?;
        let (_, floor) = search_window(
            self.window(&rec, key, self.len, true),
            entries_per_block(self.disk.block_size()),
            |b| self.data_frame(cursor, b),
            |k| k <= key,
            |e| entry(e).1,
        )?;
        floor.map(|p| block_pointer(p, FLOOR_POINTER)).transpose()
    }

    /// Locates `key` and reads the data block its lower bound lands in
    /// through `cursor`, which almost always still holds it: the block, its
    /// number of entries and the payload stored with `key`, if any. `None`
    /// if every stored key is smaller.
    fn probe(
        &self,
        cursor: &mut BlockCursor<'_>,
        key: Key,
    ) -> IndexResult<Option<(BlockRef, usize, Option<Value>)>> {
        let pos = self.locate(cursor, key)?;
        if pos >= self.len {
            return Ok(None);
        }
        let per_block = entries_per_block(self.disk.block_size());
        let block = pos / per_block;
        let buf = self.data_frame(cursor, block as u32)?;
        let slot = (pos % per_block) as usize;
        let (k, v) = entry(SlotTable::<ENTRY_BYTES>::new(&buf, slot * ENTRY_BYTES, 1)?.slot(0));
        let valid = (self.len - block * per_block).min(per_block) as usize;
        Ok(Some((buf, valid, (k == key).then_some(v))))
    }

    /// Point lookup.
    pub fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        if self.len == 0 || key < self.min_key || key > self.max_key {
            return Ok(None);
        }
        Ok(self.probe(&mut self.disk.cursor(), key)?.and_then(|(_, _, hit)| hit))
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
        // The pinned last data block and its number of entries.
        let mut cached: Option<(BlockRef, usize)> = None;
        let mut cursor = self.disk.cursor();
        let mut still = Vec::with_capacity(pending.len());
        for &i in pending.iter() {
            let key = keys[i as usize];
            if key < self.min_key || key > self.max_key {
                still.push(i);
                continue;
            }
            let pinned = cached.as_ref().map(|(buf, n)| SlotTable::<ENTRY_BYTES>::new(buf, 0, *n));
            let pinned =
                pinned.transpose()?.filter(|s| s.key(0) <= key && key <= s.key(s.len() - 1));
            let served = match pinned {
                Some(slots) => {
                    let at = slots.partition_point(|k| k < key);
                    (at < slots.len() && slots.key(at) == key).then(|| entry(slots.slot(at)).1)
                }
                None => self.probe(&mut cursor, key)?.and_then(|(buf, valid, hit)| {
                    cached = Some((buf, valid));
                    hit
                }),
            };
            match served {
                Some(v) => out[i as usize] = Some(v),
                None => still.push(i),
            }
        }
        *pending = still;
        Ok(())
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
    /// sum-of-misses), then searched in memory by [`search_window`]. The
    /// answers produced are the same as the synchronous path; the blocks
    /// read are whole windows and the simulated time differs.
    fn lookup_batch_sorted_queued(
        &self,
        keys: &[Key],
        pending: &mut Vec<u32>,
        out: &mut [Option<Value>],
    ) -> IndexResult<()> {
        let bs = self.disk.block_size();
        let rec_per_block = records_per_block(bs);
        let per_block = entries_per_block(bs);
        // Probes outside the component's key range stay pending for older
        // components; everything else starts its descent at the root.
        let mut active: Vec<(u32, SegRecord)> = pending
            .iter()
            .filter(|&&i| (self.min_key..=self.max_key).contains(&keys[i as usize]))
            .map(|&i| (i, self.root))
            .collect();

        // Inner levels: predict every probe's window, wave-fetch the
        // windows' blocks, then resolve each probe's covering record in
        // memory (as `descend` does).
        for level in self.levels.iter().rev() {
            let windows: Vec<(u64, u64)> = active
                .iter()
                .map(|(i, rec)| self.window(rec, keys[*i as usize], level.records, true))
                .collect();
            let frames = self.fetch_wave(
                windows.iter().map(|&(lo, hi)| (lo / rec_per_block, hi / rec_per_block)),
                level.first_block,
                BlockKind::Inner,
            )?;
            for ((i, rec), &window) in active.iter_mut().zip(&windows) {
                let key = keys[*i as usize];
                let (_, covering) = search_window(
                    window,
                    rec_per_block,
                    |b| Ok(frames[&b].clone()),
                    |k| k <= key,
                    SegRecord::decode,
                )?;
                *rec = match covering {
                    Some(r) => r,
                    // Same fallback as `descend`, through a fresh
                    // cursor: one shared across the batch could serve a
                    // repeated fallback for free, changing what the batch
                    // costs.
                    None => self.first_record(&mut self.disk.cursor(), level)?,
                };
            }
        }

        // Data level: one more wave over the final ε-windows, then answer
        // each probe in memory: a stored key is the floor of itself.
        let windows: Vec<(u64, u64)> = active
            .iter()
            .map(|(i, rec)| self.window(rec, keys[*i as usize], self.len, false))
            .collect();
        let frames = self.fetch_wave(
            windows.iter().map(|&(lo, hi)| (lo / per_block, hi / per_block)),
            self.data_first_block,
            self.data_kind,
        )?;
        let mut answered = BTreeSet::new();
        for (&(i, _), &window) in active.iter().zip(&windows) {
            let key = keys[i as usize];
            let (_, floor) =
                search_window(window, per_block, |b| Ok(frames[&b].clone()), |k| k <= key, entry)?;
            if let Some((_, v)) = floor.filter(|&(k, _)| k == key) {
                out[i as usize] = Some(v);
                answered.insert(i);
            }
        }
        // Misses stay pending in their original (ascending-key) order.
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
            let block = (pos / per_block) as u32;
            // After the first block the stream advances through physically
            // consecutive data blocks, so the sequential charge is declared
            // explicitly instead of inferred from the shared last-access
            // word (which concurrent readers would perturb).
            let buf = cursor.read_hinted(
                self.file,
                self.data_first_block + block,
                self.data_kind,
                hint,
            )?;
            hint = SeqHint::Sequential;
            let from = pos % per_block;
            let n = (per_block - from).min(self.len - pos).min((count - taken) as u64) as usize;
            out.extend(entries_in(buf, from as usize, n)?);
            taken += n;
            pos += n as u64;
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

    /// A component as `PgmIndex` builds one: in a file of its own, with its
    /// data level charged to `Leaf`.
    fn build(disk: Arc<Disk>, entries: &[Entry], epsilon: usize) -> IndexResult<StaticPgm> {
        let file = disk.create_file()?;
        StaticPgm::build(disk, file, entries, epsilon, BlockKind::Leaf)
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
        let pgm = build(disk(512), &entries, 16).unwrap();
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
        let pgm = build(disk(4096), &entries, 64).unwrap();
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
        let pgm = build(disk(512), &entries, 32).unwrap();
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
        let sync_pgm = build(Disk::in_memory(config()), &entries, 16).unwrap();
        let mut sync_pending: Vec<u32> = (0..probes.len() as u32).collect();
        let mut sync_out = vec![None; probes.len()];
        sync_pgm.disk.stats().reset();
        sync_pgm.lookup_batch_sorted(&probes, &mut sync_pending, &mut sync_out).unwrap();
        let sync_ns = sync_pgm.disk.stats().device_ns();

        let queued_pgm = build(Disk::in_memory(config().queue_depth(8)), &entries, 16).unwrap();
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
        let pgm = build(Arc::clone(&d), &entries, 16).unwrap();
        assert_eq!(pgm.all_entries().unwrap(), entries);
        let blocks = pgm.blocks();
        assert!(blocks > 0);
        pgm.release();
        assert_eq!(d.stats().freed_blocks(), blocks);
    }

    #[test]
    fn empty_and_tiny_components() {
        let pgm = build(disk(512), &[], 16).unwrap();
        assert!(pgm.is_empty());
        assert_eq!(pgm.lookup(5).unwrap(), None);
        let mut out = Vec::new();
        pgm.scan_into(&mut pgm.disk.scan_cursor(), 0, 10, &mut out).unwrap();
        assert!(out.is_empty());

        let one = build(disk(512), &[(42, 43)], 16).unwrap();
        assert_eq!(one.lookup(42).unwrap(), Some(43));
        assert_eq!(one.lookup(41).unwrap(), None);
        assert_eq!(one.min_key(), 42);
        assert_eq!(one.max_key(), 42);
    }

    /// `(boundary, leaf block)` entries, as the PLA hybrid's directory holds.
    fn boundaries(n: u64, stride: u64) -> Vec<Entry> {
        (0..n).map(|i| (i * stride + 5, i + 100)).collect()
    }

    /// A component as the PLA hybrid builds its directory: charged wholly to
    /// `Inner`.
    fn directory(disk: &Arc<Disk>, bounds: &[Entry], epsilon: usize) -> StaticPgm {
        let file = disk.create_file().unwrap();
        StaticPgm::build(Arc::clone(disk), file, bounds, epsilon, BlockKind::Inner).unwrap()
    }

    /// The slot-by-slot ε-window walk that the in-place window search
    /// replaced — one read per slot, each through a fresh cursor, stopping at
    /// the first key above `key` — kept as the reference [`StaticPgm::floor`]
    /// must match, answer for answer and block for block.
    fn floor_slot_by_slot(pgm: &StaticPgm, key: Key) -> Option<BlockId> {
        let slot = |first_block: u32, per_block: u64, stride: usize, kind, idx: u64| -> Vec<u8> {
            let block = first_block + (idx / per_block) as u32;
            let off = (idx % per_block) as usize * stride;
            pgm.disk.cursor().read(pgm.file, block, kind).unwrap()[off..off + stride].to_vec()
        };
        let bs = pgm.disk.block_size();
        let eps = pgm.epsilon as u64;
        let mut rec = pgm.root;
        for level in pgm.levels.iter().rev() {
            let record = |idx| {
                let (first, per) = (level.first_block, records_per_block(bs));
                let bytes = slot(first, per, RECORD_BYTES, BlockKind::Inner, idx);
                SegRecord::decode(bytes[..].try_into().unwrap())
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
        let predicted = rec.predict(key).min(pgm.len - 1);
        let mut best = None;
        for idx in predicted.saturating_sub(eps + 1)..=(predicted + eps).min(pgm.len - 1) {
            let (first, per) = (pgm.data_first_block, entries_per_block(bs));
            let e = slot(first, per, ENTRY_BYTES, pgm.data_kind, idx);
            if Key::from_le_bytes(e[..8].try_into().unwrap()) > key {
                break;
            }
            best = Some(u64::from_le_bytes(e[8..].try_into().unwrap()) as BlockId);
        }
        best
    }

    /// Runs `find` on a cold pool and returns its answer with the inner
    /// blocks it read from the device, the device time and the frames it
    /// pinned.
    fn cold<T>(disk: &Disk, find: impl FnOnce() -> T) -> (T, u64, u64, u64) {
        disk.clear_buffer();
        disk.reset_access_state();
        let before = disk.snapshot();
        let found = find();
        let delta = disk.snapshot().since(&before);
        (found, delta.reads_of(BlockKind::Inner), delta.device_ns, delta.frames_pinned)
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
            let mut key = first;
            let bounds: Vec<Entry> = gaps
                .iter()
                .enumerate()
                .map(|(i, &gap)| {
                    key += gap;
                    (key, 100 + i as u64)
                })
                .collect();
            let pgm = directory(&disk, &bounds, 1 << epsilon_pow);

            // Every boundary and its neighbours, including the keys below the
            // first boundary, which no window can cover.
            let probes = bounds
                .iter()
                .flat_map(|&(k, _)| [k - 1, k, k + 1])
                .chain([0, first / 2, first, Key::MAX]);
            for probe in probes {
                let floor = bounds.partition_point(|&(b, _)| b <= probe).checked_sub(1);
                let (leaf, reads, device_ns, _) =
                    cold(&disk, || pgm.floor(&mut disk.cursor(), probe).unwrap());
                let reference = cold(&disk, || floor_slot_by_slot(&pgm, probe));
                prop_assert_eq!(leaf, floor.map(|i| bounds[i].1 as BlockId), "probe {}", probe);
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
        // Uneven gaps with a jump every 97 keys, so ε = 64 needs many
        // segments and the directory gets on-disk record levels.
        let mut key = 0u64;
        let bounds: Vec<Entry> = (0..200_000u64)
            .map(|i| {
                key += 1 + i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 2_000;
                key += u64::from(i % 97 == 0) * 5_000_000;
                (key, i)
            })
            .collect();
        let pgm = directory(&disk, &bounds, 64);
        assert!(!pgm.levels.is_empty(), "the directory must have an on-disk record level");
        let levels = pgm.levels.len() as u64 + 1;
        for &(k, blk) in bounds.iter().step_by(997) {
            let (leaf, _, _, pinned) =
                cold(&disk, || pgm.floor(&mut disk.cursor(), k + 1).unwrap());
            assert_eq!(leaf, Some(blk as BlockId));
            assert!(pinned <= 2 * levels + 2, "{pinned} frames pinned over {levels} levels");
            let (_, _, _, walked) = cold(&disk, || floor_slot_by_slot(&pgm, k + 1));
            assert!(walked > pinned, "the walk pins per slot ({walked}), the search per block");
        }
    }

    /// Overwrites the `u64` at byte `off` of inner block `block` of `file`.
    fn forge(disk: &Disk, file: u32, block: BlockId, off: usize, value: u64) {
        let mut buf = disk.cursor().read(file, block, BlockKind::Inner).unwrap().to_vec();
        buf[off..off + 8].copy_from_slice(&value.to_le_bytes());
        disk.write(file, block, BlockKind::Inner, &buf).unwrap();
    }

    #[test]
    fn floor_pointers_beyond_the_block_id_range_are_errors() {
        // Truncated to 32 bits, the forged pointer would name block 0.
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let bounds = boundaries(100, 37);
        let pgm = directory(&disk, &bounds, 8);
        forge(&disk, pgm.file, pgm.data_first_block, 8, 1u64 << 32);
        assert!(matches!(pgm.floor(&mut disk.cursor(), bounds[0].0), Err(IndexError::Internal(_))));
    }
}
