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
//! The data level is a sorted entry array ([`lidx_core::entries`], the
//! layout of PGM's insert run and of FITing's segments too): its writer,
//! block reads and slot codec live there. The record levels stay this
//! module's own. Each segment record is 28 bytes: `first_key u64, slope
//! f64, start u64, len u32`, predicting *absolute* positions within the
//! level below. The root level always has exactly one record, which is
//! kept in memory with the component's metadata (the paper's
//! memory-resident meta block).
//!
//! A per-key search reads every level the same way: predict a position,
//! then run `search_window` over the ε-window around it. The batched lookup
//! does the same on the inner levels and reads its data level predicted
//! block first ([`StaticPgm::lookup_batch_sorted`]). The component has two
//! users, which differ only in their payloads and in the block kind their
//! data level is charged to:
//!
//! * [`crate::PgmIndex`] builds one component per LSM level, each in a file
//!   of its own, with values as payloads and its data level charged to
//!   [`BlockKind::Leaf`] ([`StaticPgm::lookup`], [`StaticPgm::scan_into`]);
//! * the PLA hybrid (§6.1.2) builds its directory as one component over
//!   `(leaf boundary, leaf block)` entries, charged wholly to
//!   [`BlockKind::Inner`] as Table 5 counts it ([`StaticPgm::floor`]).

use std::sync::Arc;

use lidx_core::entries::{self, EntryArray, Probed, Wave, WindowProbe, ENTRY_BYTES, SENTINEL};
use lidx_core::{
    block_pointer, Entry, IndexError, IndexResult, Key, MetaReader, MetaWriter, Value,
};
use lidx_models::pla::segment_keys;
use lidx_models::LinearModel;
use lidx_storage::{
    bytes_at, BlockCursor, BlockId, BlockKind, BlockRef, Disk, FileId, SeqHint, SlotTable,
};

/// Size of one segment record in bytes.
const RECORD_BYTES: usize = 28;
/// What a payload read as a block pointer is called in errors.
const FLOOR_POINTER: &str = "PGM entry block pointer";

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
            first_key: Key::from_le_bytes(bytes_at(r, 0)),
            slope: f64::from_le_bytes(bytes_at(r, 8)),
            start: u64::from_le_bytes(bytes_at(r, 16)),
            len: u32::from_le_bytes(bytes_at(r, 24)),
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
        // Saturating, so a forged `start` clamps like any other prediction.
        self.start.saturating_add(model.predict_clamped(key, self.len as usize) as u64)
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
    /// The data level: the sorted entries, charged to the kind the component
    /// was built with.
    data: EntryArray,
    /// Inner levels, from the one directly above the data (index 0) upwards.
    levels: Vec<LevelInfo>,
    /// The single root record (memory-resident).
    root: SegRecord,
    /// Smallest and largest stored keys.
    min_key: Key,
    max_key: Key,
}

fn entries_per_block(block_size: usize) -> u64 {
    entries::per_block(block_size) as u64
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
        let first_block = disk.allocate(file, data_blocks)?;
        let data = EntryArray {
            file,
            first_block,
            blocks: data_blocks,
            len: entries.len(),
            kind: data_kind,
        };
        data.write(&disk, entries)?;

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
            data,
            levels,
            root,
            min_key: entries.first().map_or(Key::MAX, |e| e.0),
            max_key: entries.last().map_or(0, |e| e.0),
        })
    }

    /// Number of stored entries.
    pub fn len(&self) -> u64 {
        self.data.len as u64
    }

    /// True if the component holds no entries.
    pub fn is_empty(&self) -> bool {
        self.data.len == 0
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
        self.data.blocks
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
        u64::from(self.data.blocks)
            + self.levels.iter().map(|l| l.records.div_ceil(per)).sum::<u64>()
    }

    /// Serialises the component's placement metadata (file id, level table,
    /// in-memory root record, key bounds) into `w`. The inverse of
    /// [`load_meta`](Self::load_meta).
    pub fn save_meta(&self, w: &mut MetaWriter) {
        w.u32(self.file)
            .u64(self.epsilon as u64)
            .u64(self.len())
            .u32(self.data.blocks)
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
    ///
    /// Metadata no build writes is [`IndexError::Internal`]: an ε of 0 or
    /// one whose windows overflow, an inner level with no records, or a
    /// level or data length past the file's blocks. Every later search
    /// trusts those bounds.
    pub fn load_meta(disk: Arc<Disk>, r: &mut MetaReader<'_>) -> IndexResult<Self> {
        let file = r.u32()?;
        let epsilon = r.u64()?;
        let len = r.u64()?;
        let blocks = r.u32()?;
        let level_count = r.u32()? as usize;
        let mut levels = Vec::with_capacity(level_count.min(64));
        for _ in 0..level_count {
            levels.push(LevelInfo { first_block: r.u32()?, records: r.u64()? });
        }
        let root =
            SegRecord { first_key: r.u64()?, slope: r.f64()?, start: r.u64()?, len: r.u32()? };
        let min_key = r.u64()?;
        let max_key = r.u64()?;

        let forged = |what: String| Err(IndexError::Internal(format!("PGM component {what}")));
        let file_blocks = u64::from(disk.num_blocks(file)?);
        let bs = disk.block_size();
        if u64::from(blocks) > file_blocks {
            return forged(format!("data of {blocks} blocks overruns its file of {file_blocks}"));
        }
        if len > u64::from(blocks) * entries_per_block(bs) {
            return forged(format!("data of {len} entries overruns its {blocks} blocks"));
        }
        for level in &levels {
            let blocks = level.records.div_ceil(records_per_block(bs));
            let end = u64::from(level.first_block).saturating_add(blocks);
            if level.records == 0 || end > file_blocks {
                return forged(format!("{level:?} is empty or overruns {file_blocks} blocks"));
            }
        }
        // A window reaches ε, plus one for a floor, past a level's last
        // position; the checks above bound every level's length.
        let most = levels.iter().map(|l| l.records).fold(len, u64::max);
        if epsilon == 0 || epsilon > u64::MAX - 1 - most {
            return forged(format!("ε {epsilon} is 0 or overflows its windows"));
        }
        let (Ok(epsilon), Ok(len)) = (usize::try_from(epsilon), usize::try_from(len)) else {
            return forged(format!("ε {epsilon} or length {len} overflows usize"));
        };
        Ok(StaticPgm {
            disk,
            file,
            epsilon,
            data: EntryArray { file, first_block: 0, blocks, len, kind: BlockKind::Leaf },
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
        Ok(self.data.block(cursor, b as usize, SeqHint::Auto)?.frame.clone())
    }

    /// Locates the data position of the first entry with key `>= key`.
    /// Returns `self.len()` if every stored key is smaller. Reads go through
    /// `cursor`, which holds the data block of the answer afterwards.
    fn locate(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<u64> {
        if self.is_empty() {
            return Ok(0);
        }
        let rec = self.descend(cursor, key)?;
        // Thanks to the ε bound the first position in the window whose key
        // is >= `key` is the global lower bound as long as `key` falls in
        // the window; otherwise it is the window's first or one past its
        // last.
        let (pos, _) = search_window::<ENTRY_BYTES, ()>(
            self.window(&rec, key, self.len(), false),
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
        if self.is_empty() {
            return Ok(None);
        }
        let rec = self.descend(cursor, key)?;
        let (_, floor) = search_window(
            self.window(&rec, key, self.len(), true),
            entries_per_block(self.disk.block_size()),
            |b| self.data_frame(cursor, b),
            |k| k <= key,
            |e| entries::get(e).1,
        )?;
        floor.map(|p| block_pointer(p, FLOOR_POINTER)).transpose()
    }

    /// Point lookup: locates `key`, then reads the data block its lower
    /// bound lands in through the cursor, which almost always still holds it.
    pub fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        if self.is_empty() || key < self.min_key || key > self.max_key {
            return Ok(None);
        }
        let mut cursor = self.disk.cursor();
        let pos = self.locate(&mut cursor, key)? as usize;
        if pos >= self.data.len {
            return Ok(None);
        }
        let per_block = entries::per_block(self.disk.block_size());
        let block = self.data.block(&mut cursor, pos / per_block, SeqHint::Auto)?;
        let slot = pos % per_block;
        let (k, v) = entries::get(block.slots(slot..slot + 1)?.slot(0));
        Ok((k == key).then_some(v))
    }

    /// Batched point lookups over probe keys sorted ascending.
    ///
    /// `pending` holds indexes into `keys` / `out` not yet resolved by a
    /// newer component, in ascending key order, and `out` is `None` at each
    /// of them; every index whose key this component stores is answered
    /// into `out` and removed from `pending`.
    ///
    /// The probes descend the component *level by level*, and each level's
    /// reads go through one outstanding-read queue as one set of completion
    /// waves (charged max-per-wave above queue depth 1, a blocking read at a
    /// time at depth 1). Each inner level fetches every block of each
    /// probe's ε-window and resolves the covering record in memory with
    /// `search_window`. The data level is read predicted block first: the
    /// first wave fetches only the block holding each probe's predicted
    /// position, and a probe whose key may lie beyond that block steps to
    /// the neighbouring block on that one side in a later wave
    /// ([`WindowProbe`]). The answers are the per-key [`Self::lookup`]'s.
    pub fn lookup_batch_sorted(
        &self,
        keys: &[Key],
        pending: &mut Vec<u32>,
        out: &mut [Option<Value>],
    ) -> IndexResult<()> {
        if self.is_empty() {
            return Ok(());
        }
        let bs = self.disk.block_size();
        let rec_per_block = records_per_block(bs);
        let per_block = entries::per_block(bs);
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
            let blocks = windows.iter().flat_map(|&(lo, hi)| {
                level.first_block + (lo / rec_per_block) as u32
                    ..=level.first_block + (hi / rec_per_block) as u32
            });
            let wave = Wave::fetch(&self.disk, self.file, blocks.collect(), BlockKind::Inner)?;
            for ((i, rec), &window) in active.iter_mut().zip(&windows) {
                let key = keys[*i as usize];
                let (_, covering) = search_window(
                    window,
                    rec_per_block,
                    |b| wave.frame(level.first_block + b).cloned(),
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

        // Data level: each wave fetches the block every unresolved probe
        // reads next, starting from its predicted position clamped into
        // its window.
        let data = &self.data;
        let mut probes: Vec<(u32, WindowProbe)> = active
            .iter()
            .filter_map(|&(i, rec)| {
                let key = keys[i as usize];
                let predicted = usize::try_from(rec.predict(key)).unwrap_or(usize::MAX);
                WindowProbe::new(key, predicted, self.epsilon, data.len, per_block)
                    .map(|probe| (i, probe))
            })
            .collect();
        let block_of = |probe: &WindowProbe| data.first_block + probe.block() as BlockId;
        while !probes.is_empty() {
            let blocks = probes.iter().map(|(_, probe)| block_of(probe)).collect();
            let wave = Wave::fetch(&self.disk, data.file, blocks, data.kind)?;
            let mut moved = 0;
            for n in 0..probes.len() {
                let (i, mut probe) = probes[n];
                match probe.read(wave.frame(block_of(&probe))?, per_block)? {
                    Probed::Hit(v) => out[i as usize] = Some(v),
                    Probed::Miss => {}
                    Probed::Moved => {
                        probes[moved] = (i, probe);
                        moved += 1;
                    }
                }
            }
            probes.truncate(moved);
        }
        // Misses stay pending in their original (ascending-key) order.
        pending.retain(|&i| out[i as usize].is_none());
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
        if self.is_empty() || count == 0 || start > self.max_key {
            return Ok(());
        }
        // The scan's first data block is the one `locate` ended on: the
        // cursor carries both, so it is read once.
        let mut pos = if start <= self.min_key { 0 } else { self.locate(cursor, start)? as usize };
        let per_block = entries::per_block(self.disk.block_size());
        let mut taken = 0usize;
        let mut hint = SeqHint::Auto;
        while pos < self.data.len && taken < count {
            // After the first block the stream advances through physically
            // consecutive data blocks, so the sequential charge is declared
            // explicitly instead of inferred from the shared last-access
            // word (which concurrent readers would perturb).
            let block = self.data.block(cursor, pos / per_block, hint)?;
            hint = SeqHint::Sequential;
            let from = pos % per_block;
            let n = (per_block - from).min(self.data.len - pos).min(count - taken);
            out.extend(block.entries(from..from + n)?);
            taken += n;
            pos += n;
        }
        Ok(())
    }

    /// Reads every entry back (used by LSM merges). Charges one read per data
    /// block.
    pub fn all_entries(&self) -> IndexResult<Vec<Entry>> {
        let len = self.data.len;
        let mut out = Vec::with_capacity(len);
        self.scan_into(&mut self.disk.scan_cursor(), 0, len, &mut out)?;
        if len > 0 && out.len() != len {
            return Err(IndexError::Internal(format!(
                "static PGM expected {len} entries, read {}",
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

    /// Runs `f` on a thread of its own and returns its result, failing the
    /// test if `f` has not returned within a minute: a batch whose probes
    /// never settle fails instead of hanging.
    fn within_a_minute<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || tx.send(f()).expect("the test waits"));
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(result) => {
                worker.join().expect("the worker thread");
                result
            }
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("the worker panicked"))
            }
            Err(RecvTimeoutError::Timeout) => panic!("{what}: did not finish within a minute"),
        }
    }

    #[test]
    fn neighbour_steps_answer_every_probe_like_the_per_key_lookup() {
        use lidx_storage::DeviceModel;
        let entries = skewed_entries(3_000);
        let stored: std::collections::BTreeSet<Key> = entries.iter().map(|e| e.0).collect();
        // 256 B .. 4 KiB blocks of 16 .. 256 entries: an ε = 64 window of
        // 129 entries spans up to nine blocks, an ε = 1 window at most two.
        for block_size in [256, 512, 1024, 2048, 4096] {
            let per = entries::per_block(block_size);
            // Every stored key and its neighbours, plus an absent key between
            // the last key of each data block and the first of the next.
            let mut probes: Vec<Key> =
                entries.iter().flat_map(|&(k, _)| [k.saturating_sub(1), k, k + 1]).collect();
            let blocks: Vec<&[Entry]> = entries.chunks(per).collect();
            let between = blocks.windows(2).map(|w| (w[0][per - 1].0 + w[1][0].0) / 2);
            let between: Vec<Key> = between.filter(|k| !stored.contains(k)).collect();
            assert!(between.len() * 2 > blocks.len(), "{block_size} B: too few absent keys");
            probes.extend(between);
            probes.sort_unstable();
            let probes = Arc::new(probes);
            for epsilon in [1, 8, 64] {
                for depth in [1, 8] {
                    let label = format!("{block_size} B, ε {epsilon}, depth {depth}");
                    let config = DiskConfig::with_block_size(block_size)
                        .device(DeviceModel::ssd())
                        .buffer_blocks(64)
                        .queue_depth(depth);
                    let pgm = Arc::new(build(Disk::in_memory(config), &entries, epsilon).unwrap());
                    let (batch, keys) = (Arc::clone(&pgm), Arc::clone(&probes));
                    let (pending, out) = within_a_minute(&label, move || {
                        let mut pending: Vec<u32> = (0..keys.len() as u32).collect();
                        let mut out = vec![None; keys.len()];
                        batch.lookup_batch_sorted(&keys, &mut pending, &mut out).unwrap();
                        (pending, out)
                    });
                    for (&key, &answer) in probes.iter().zip(&out) {
                        assert_eq!(answer, pgm.lookup(key).unwrap(), "{label}: probe {key}");
                    }
                    let misses: Vec<u32> =
                        (0..out.len() as u32).filter(|&i| out[i as usize].is_none()).collect();
                    assert_eq!(pending, misses, "{label}: exactly the misses stay pending");
                }
            }
        }
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
        let predicted = rec.predict(key).min(pgm.len() - 1);
        let mut best = None;
        for idx in predicted.saturating_sub(eps + 1)..=(predicted + eps).min(pgm.len() - 1) {
            let (first, per) = (pgm.data.first_block, entries_per_block(bs));
            let e = slot(first, per, ENTRY_BYTES, pgm.data.kind, idx);
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

    #[test]
    fn forged_component_metadata_is_a_typed_error() {
        let entries = skewed_entries(30_000);
        let pgm = build(disk(512), &entries, 16).unwrap();
        assert!(!pgm.levels.is_empty(), "the component must have an on-disk level");
        let mut w = MetaWriter::new();
        pgm.save_meta(&mut w);
        let meta = w.finish();
        // `save_meta`'s layout: file u32, ε u64 at 4, length u64 at 12, data
        // blocks u32 at 20, level count u32 at 24, then per level its first
        // block u32 and its record count u64, from 28.
        let load = |at: usize, bytes: &[u8]| {
            let mut forged = meta.clone();
            forged[at..at + bytes.len()].copy_from_slice(bytes);
            StaticPgm::load_meta(Arc::clone(&pgm.disk), &mut MetaReader::new(&forged))
        };
        let len = pgm.len();
        let capacity = u64::from(pgm.data.blocks) * entries_per_block(512);
        let widest = u64::MAX - 1 - len;
        for (what, at, bytes) in [
            ("ε 0", 4, 0u64.to_le_bytes().to_vec()),
            ("ε u64::MAX", 4, u64::MAX.to_le_bytes().to_vec()),
            ("an ε whose windows overflow", 4, (widest + 1).to_le_bytes().to_vec()),
            ("a length past the data blocks", 12, (capacity + 1).to_le_bytes().to_vec()),
            ("data blocks past the file", 20, u32::MAX.to_le_bytes().to_vec()),
            ("a level past the file", 28, (u32::MAX - 1).to_le_bytes().to_vec()),
            ("a level with no records", 32, 0u64.to_le_bytes().to_vec()),
        ] {
            let loaded = load(at, &bytes);
            assert!(matches!(loaded, Err(IndexError::Internal(_))), "{what}: {:?}", loaded.err());
        }

        // The widest ε that cannot overflow loads, and its windows cover
        // whole levels, so every answer stays exact.
        let wide = load(4, &widest.to_le_bytes()).unwrap();
        let probes: Vec<Key> = entries.iter().step_by(997).flat_map(|e| [e.0, e.0 + 1]).collect();
        let mut pending: Vec<u32> = (0..probes.len() as u32).collect();
        let mut out = vec![None; probes.len()];
        wide.lookup_batch_sorted(&probes, &mut pending, &mut out).unwrap();
        for (&key, &answer) in probes.iter().zip(&out) {
            assert_eq!(wide.lookup(key).unwrap(), pgm.lookup(key).unwrap(), "key {key}");
            assert_eq!(answer, pgm.lookup(key).unwrap(), "key {key}");
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
        forge(&disk, pgm.file, pgm.data.first_block, 8, 1u64 << 32);
        assert!(matches!(pgm.floor(&mut disk.cursor(), bounds[0].0), Err(IndexError::Internal(_))));
    }
}
