//! On-disk segment layout for the FITing-tree.
//!
//! A segment is an extent of consecutive blocks in the segment file:
//!
//! ```text
//! [ data blocks:   (key u64, payload u64) * count, sentinel-padded ]
//! [ buffer blocks: (len u64, BUFFER_TAG u64), then
//!                  (key u64, payload u64) * len, sorted, sentinel-padded ]
//! ```
//!
//! The segment itself carries **no header** — its linear model and data
//! occupancy live in the directory entry pointing at it ([`SegmentMeta`]).
//! This mirrors the design property the paper highlights for FITing-tree and
//! PGM (shortcoming S1 does not apply): the model is stored in the parent, so
//! reaching a key costs only the data blocks covered by the error range.
//!
//! The delta buffer carries its own count: slot 0 of its first block is a
//! count record, and its entries follow from slot 1. The directory entry
//! only flags whether the buffer holds entries ([`SegmentMeta::buffered`]),
//! so a fresh insert into a buffer that already holds some writes the buffer
//! block and nothing else; the directory leaf is written once per buffer
//! lifetime, when the flag is set. A buffer block is read only once its flag
//! is set, and the flag is set only after the block is written, so bulk load
//! and resegmentation write no buffer block at all.
//!
//! Both regions are sorted entry arrays ([`lidx_core::entries`]), the layout
//! PGM's data level and insert run use too: [`SegmentMeta::data`] and
//! [`SegmentMeta::buffer`] name them, and the count record goes through the
//! same slot codec. The data probe is the one PGM's data level uses too, a
//! [`WindowProbe`]: it reads the block holding the model's predicted
//! position first and steps one way from there, inside the ε-window only.
//! The buffer probe reads block 0 for the count, then every other block the
//! count occupies.

use lidx_core::entries::{self, EntryArray, EntryBlock, WindowProbe};
use lidx_core::{Entry, IndexError, IndexResult, Key, Value};
use lidx_storage::{BlockCursor, BlockId, BlockKind, BlockRef, Disk, SeqHint};

use lidx_models::LinearModel;

/// The payload of a delta buffer's count record, `"FITDELTA"` in ASCII: a
/// slot 0 without it is not a count record, and reading it is
/// [`IndexError::Internal`].
pub(crate) const BUFFER_TAG: Value = Value::from_le_bytes(*b"FITDELTA");

/// Directory metadata describing one segment.
///
/// This is the value type stored in the directory B+-tree; it is what the
/// paper means by "the model is stored in the parent node".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentMeta {
    /// First (smallest) key covered by the segment.
    pub first_key: Key,
    /// Slope of the linear model (positions per key unit, relative to
    /// `first_key`).
    pub slope: f64,
    /// First block of the segment extent in the segment file.
    pub start_block: BlockId,
    /// Number of data blocks.
    pub data_blocks: u32,
    /// Number of buffer blocks following the data blocks.
    pub buffer_blocks: u32,
    /// Number of valid entries in the data region.
    pub count: u32,
    /// Whether the delta buffer holds entries. Its count is the buffer's
    /// own, in the count record of its first block; an unset flag means
    /// an empty buffer whose blocks are never read.
    pub buffered: bool,
}

impl SegmentMeta {
    /// Total blocks of the extent.
    pub fn total_blocks(&self) -> u32 {
        self.data_blocks + self.buffer_blocks
    }

    /// The data region in segment file `file`: `count` entries in
    /// `data_blocks` blocks from `start_block`, charged to `Leaf`.
    pub fn data(&self, file: u32) -> EntryArray {
        EntryArray {
            file,
            first_block: self.start_block,
            blocks: self.data_blocks,
            len: self.count as usize,
            kind: BlockKind::Leaf,
        }
    }

    /// The delta buffer in segment file `file` holding `len` entries: the
    /// `buffer_blocks` blocks after the data region, charged to `Leaf`. Its
    /// position 0 is the count record, so the array holds `len + 1` slots
    /// and entry `i` sits at position `i + 1`.
    pub fn buffer(&self, file: u32, len: usize) -> EntryArray {
        EntryArray {
            file,
            first_block: self.start_block + self.data_blocks,
            blocks: self.buffer_blocks,
            len: len + 1,
            kind: BlockKind::Leaf,
        }
    }

    /// Capacity of the delta buffer in entries, given the block size: its
    /// slots less the one the count record takes.
    pub fn buffer_capacity(&self, block_size: usize) -> u32 {
        self.buffer_blocks.saturating_mul(entries::per_block(block_size) as u32).saturating_sub(1)
    }

    /// Checks that the record fits its extent: `count` entries in
    /// `data_blocks`, a set `buffered` flag over at least one buffer block,
    /// and the extent within `u32` block ids. The read paths trust these
    /// bounds, so a record that overruns them would send a probe into the
    /// buffer region or the next segment's blocks.
    pub(crate) fn check_extent(&self, block_size: usize) -> IndexResult<()> {
        let per_block = entries::per_block(block_size) as u64;
        let fits = u64::from(self.count) <= u64::from(self.data_blocks) * per_block
            && (!self.buffered || self.buffer_blocks > 0)
            && self
                .start_block
                .checked_add(self.data_blocks)
                .and_then(|end| end.checked_add(self.buffer_blocks))
                .is_some();
        if fits {
            Ok(())
        } else {
            Err(IndexError::Internal(format!("segment record {self:?} overruns its extent")))
        }
    }

    /// Predicts the position of `key` inside the data region, clamped to the
    /// valid range.
    pub fn predict(&self, key: Key) -> usize {
        if self.count == 0 {
            return 0;
        }
        let model =
            LinearModel { slope: self.slope, intercept: -self.slope * self.first_key as f64 };
        model.predict_clamped(key, self.count as usize)
    }

    /// A probe for `key` over the data region's ε-window around the model's
    /// prediction, at `per_block` entries a block; `None` for an empty
    /// region.
    pub fn probe(&self, key: Key, epsilon: usize, per_block: usize) -> Option<WindowProbe> {
        WindowProbe::new(key, self.predict(key), epsilon, self.count as usize, per_block)
    }
}

/// Searches the data region of a segment for `key`, reading through the
/// operation's `cursor`.
///
/// The block holding the model's prediction is read first; the probe steps
/// to a neighbouring block only while the key may lie there, inside the
/// error window `[pred - epsilon, pred + epsilon]` and on one side only
/// ([`WindowProbe`]). Table 2's `2ε / B` blocks is the worst case; an
/// exactly modelled key costs one block.
pub fn search_data(
    cursor: &mut BlockCursor<'_>,
    file: u32,
    meta: &SegmentMeta,
    key: Key,
    epsilon: usize,
) -> IndexResult<Option<Value>> {
    match meta.probe(key, epsilon, entries::per_block(cursor.disk().block_size())) {
        Some(probe) => meta.data(file).probe(cursor, probe),
        None => Ok(None),
    }
}

/// Reads data-region entries for a range scan through the scan's `cursor`:
/// starting from position `from_pos`, blocks are fetched in order and
/// decoded until `needed` entries with keys
/// `>= min_key` have been seen (or the data is exhausted). All decoded
/// entries from `from_pos` onwards are returned so the caller can merge them
/// with the delta buffer.
pub fn read_data_from(
    cursor: &mut BlockCursor<'_>,
    file: u32,
    meta: &SegmentMeta,
    from_pos: usize,
    min_key: Key,
    needed: usize,
) -> IndexResult<Vec<Entry>> {
    let (data, per_block) = (meta.data(file), entries::per_block(cursor.disk().block_size()));
    let mut out = Vec::new();
    let (mut pos, mut matched) = (from_pos, 0);
    while pos < data.len && matched < needed {
        let end = data.len.min((pos / per_block + 1) * per_block);
        let decoded = out.len();
        data.read(cursor, pos..end, &mut out)?;
        matched += out[decoded..].iter().filter(|e| e.0 >= min_key).count();
        pos = end;
    }
    Ok(out)
}

/// The entry count of `meta`'s delta buffer, decoded from `frame`, the
/// buffer's block 0 as read. A slot 0 that is no count record, or a count
/// past the buffer's capacity, is [`IndexError::Internal`].
pub fn buffer_len_in(
    meta: &SegmentMeta,
    frame: &BlockRef,
    block_size: usize,
) -> IndexResult<usize> {
    let head = EntryBlock { frame, valid: 1 };
    let record = head.entries(0..1)?.next();
    match record {
        Some((len, BUFFER_TAG)) if len <= u64::from(meta.buffer_capacity(block_size)) => {
            Ok(len as usize)
        }
        _ => Err(IndexError::Internal(format!(
            "delta buffer of {meta:?} holds {record:?} where its count record belongs"
        ))),
    }
}

/// The entry count of `meta`'s delta buffer, read from its block 0 through
/// `cursor`; 0, with no read, when the buffer is not flagged.
fn buffer_len(cursor: &mut BlockCursor<'_>, file: u32, meta: &SegmentMeta) -> IndexResult<usize> {
    if !meta.buffered {
        return Ok(0);
    }
    let block_size = cursor.disk().block_size();
    let head = meta.buffer(file, 0).block(cursor, 0, SeqHint::Auto)?;
    buffer_len_in(meta, head.frame, block_size)
}

/// The entries of `meta`'s delta buffer, read through `cursor`: block 0 for
/// the count (kept by the cursor, so reading its entries costs nothing
/// more), then the other blocks the count occupies, in order.
pub fn read_buffer(
    cursor: &mut BlockCursor<'_>,
    file: u32,
    meta: &SegmentMeta,
) -> IndexResult<Vec<Entry>> {
    let len = buffer_len(cursor, file, meta)?;
    let mut out = Vec::with_capacity(len);
    meta.buffer(file, len).read(cursor, 1..len + 1, &mut out)?;
    Ok(out)
}

/// The payload stored under `key` among the entries of `block`, block `b`
/// of a delta buffer: past the count record in block 0.
pub fn find_buffered(block: &EntryBlock<'_>, b: usize, key: Key) -> IndexResult<Option<Value>> {
    Ok(EntryArray::find(&block.slots(usize::from(b == 0)..block.valid)?, key))
}

/// Searches `meta`'s delta buffer for `key` through `cursor`: block 0 for
/// the count, then every other block the count occupies, in order, as
/// reading the whole buffer would, so a probe costs the same blocks
/// whether or not an early block holds the key. An unflagged buffer reads
/// nothing.
pub fn search_buffer(
    cursor: &mut BlockCursor<'_>,
    file: u32,
    meta: &SegmentMeta,
    key: Key,
) -> IndexResult<Option<Value>> {
    let len = buffer_len(cursor, file, meta)?;
    if len == 0 {
        return Ok(None);
    }
    let buffer = meta.buffer(file, len);
    let occupied = buffer.len.div_ceil(entries::per_block(cursor.disk().block_size()));
    let mut found = None;
    for b in 0..occupied {
        let block = buffer.block(cursor, b, SeqHint::Auto)?;
        if found.is_none() {
            found = find_buffered(&block, b, key)?;
        }
    }
    Ok(found)
}

/// Writes `entries` (sorted by key) as `meta`'s delta buffer: the count
/// record, then the entries, as all `buffer_blocks` blocks. More entries
/// than [`SegmentMeta::buffer_capacity`] is a typed error, and nothing is
/// written.
pub fn write_buffer(
    disk: &Disk,
    file: u32,
    meta: &SegmentMeta,
    entries: &[Entry],
) -> IndexResult<()> {
    let mut slots = Vec::with_capacity(entries.len() + 1);
    slots.push((entries.len() as Key, BUFFER_TAG));
    slots.extend_from_slice(entries);
    meta.buffer(file, entries.len()).write(disk, &slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_storage::{Disk, DiskConfig};

    fn setup(count: usize) -> (std::sync::Arc<Disk>, u32, SegmentMeta, Vec<Entry>) {
        let disk = Disk::in_memory(DiskConfig::with_block_size(256));
        let file = disk.create_file().unwrap();
        let entries: Vec<Entry> = (0..count as u64).map(|i| (i * 10, i * 10 + 1)).collect();
        let per_block = entries::per_block(256);
        let data_blocks = count.div_ceil(per_block).max(1) as u32;
        let buffer_blocks = 1;
        let start = disk.allocate(file, data_blocks + buffer_blocks).unwrap();
        let slope =
            if count > 1 { (count as f64 - 1.0) / ((count as f64 - 1.0) * 10.0) } else { 0.0 };
        let meta = SegmentMeta {
            first_key: 0,
            slope,
            start_block: start,
            data_blocks,
            buffer_blocks,
            count: count as u32,
            buffered: false,
        };
        meta.data(file).write(&disk, &entries).unwrap();
        (disk, file, meta, entries)
    }

    #[test]
    fn search_finds_every_key_within_epsilon() {
        let (disk, file, meta, entries) = setup(100);
        for &(k, v) in &entries {
            assert_eq!(
                search_data(&mut disk.cursor(), file, &meta, k, 4).unwrap(),
                Some(v),
                "key {k}"
            );
        }
        assert_eq!(search_data(&mut disk.cursor(), file, &meta, 5, 4).unwrap(), None);
        assert_eq!(search_data(&mut disk.cursor(), file, &meta, 10_000, 4).unwrap(), None);
    }

    #[test]
    fn search_fetches_limited_blocks() {
        let (disk, file, meta, entries) = setup(200); // spans many 16-entry blocks
        disk.stats().reset();
        disk.reset_access_state();
        // ε = 4 around entry 97 is entries 93..=101, which span two blocks
        // of 16; the model is exact, so only the predicted block is read.
        let (k, v) = entries[97];
        assert_eq!(search_data(&mut disk.cursor(), file, &meta, k, 4).unwrap(), Some(v));
        assert_eq!(disk.stats().reads(), 1);
    }

    #[test]
    fn read_all_data_and_buffer_roundtrip() {
        let (disk, file, mut meta, entries) = setup(50);
        assert_eq!(meta.data(file).all(&mut disk.scan_cursor()).unwrap(), entries);
        // An unflagged buffer is empty and reads nothing, whatever its
        // blocks hold: bulk load never writes them.
        disk.stats().reset();
        assert!(read_buffer(&mut disk.cursor(), file, &meta).unwrap().is_empty());
        assert_eq!(search_buffer(&mut disk.cursor(), file, &meta, 0).unwrap(), None);
        assert_eq!(disk.stats().reads(), 0);

        // Key 1 equals the count record's key: the search must not take the
        // record for an entry.
        let buffered: Vec<Entry> = vec![(1, 4), (7, 8)];
        write_buffer(&disk, file, &meta, &buffered).unwrap();
        meta.buffered = true;
        disk.stats().reset();
        disk.reset_access_state();
        assert_eq!(read_buffer(&mut disk.cursor(), file, &meta).unwrap(), buffered);
        assert_eq!(disk.stats().reads(), 1, "the count and the entries share block 0");
        for (key, expected) in [(1, Some(4)), (7, Some(8)), (2, None), (5, None), (u64::MAX, None)]
        {
            let found = search_buffer(&mut disk.cursor(), file, &meta, key).unwrap();
            assert_eq!(found, expected, "buffer probe for {key}");
        }
    }

    #[test]
    fn a_buffer_probe_reads_every_occupied_block_in_order() {
        let (disk, file, mut meta, _) = setup(10);
        // Three buffer blocks, two of them occupied (16 slots per block:
        // the count record and 15 entries, then 5 more).
        meta.buffer_blocks = 3;
        meta.buffered = true;
        let buffered: Vec<Entry> = (0..20u64).map(|i| (i * 2, i)).collect();
        disk.allocate(file, 2).unwrap();
        write_buffer(&disk, file, &meta, &buffered).unwrap();
        disk.stats().reset();
        disk.reset_access_state();
        // The key sits in the first block; the probe still reads the second,
        // as reading the whole buffer would.
        assert_eq!(search_buffer(&mut disk.cursor(), file, &meta, 4).unwrap(), Some(2));
        assert_eq!(disk.stats().reads(), 2);
        assert_eq!(search_buffer(&mut disk.cursor(), file, &meta, 38).unwrap(), Some(19));
        assert_eq!(search_buffer(&mut disk.cursor(), file, &meta, 40).unwrap(), None);
        assert_eq!(read_buffer(&mut disk.cursor(), file, &meta).unwrap(), buffered);
    }

    #[test]
    fn overflow_is_rejected() {
        let (disk, file, meta, _) = setup(10);
        let too_many: Vec<Entry> = (0..10_000u64).map(|i| (i, i)).collect();
        assert!(meta.data(file).write(&disk, &too_many).is_err());
        assert!(write_buffer(&disk, file, &meta, &too_many).is_err());
        // One block of 16 slots holds the count record and 15 entries.
        assert!(write_buffer(&disk, file, &meta, &too_many[..16]).is_err());
        write_buffer(&disk, file, &meta, &too_many[..15]).unwrap();
    }

    #[test]
    fn a_forged_count_record_is_a_typed_error() {
        let (disk, file, mut meta, _) = setup(10);
        meta.buffered = true;
        write_buffer(&disk, file, &meta, &[(3, 4)]).unwrap();
        let block = meta.start_block + meta.data_blocks;
        // Past the capacity of 15, a wrong tag, and a block never written
        // (all zero).
        for record in [(16, BUFFER_TAG), (u64::MAX, BUFFER_TAG), (1, 0), (0, 0)] {
            let mut buf = vec![0u8; 256];
            entries::put(buf.as_chunks_mut::<16>().0.first_mut().unwrap(), record);
            disk.write(file, block, BlockKind::Leaf, &buf).unwrap();
            let read = read_buffer(&mut disk.cursor(), file, &meta);
            assert!(matches!(read, Err(IndexError::Internal(_))), "{record:?}: {read:?}");
            let search = search_buffer(&mut disk.cursor(), file, &meta, 3);
            assert!(matches!(search, Err(IndexError::Internal(_))), "{record:?}: {search:?}");
        }
    }

    #[test]
    fn meta_helpers() {
        let meta = SegmentMeta {
            first_key: 100,
            slope: 0.5,
            start_block: 3,
            data_blocks: 4,
            buffer_blocks: 1,
            count: 60,
            buffered: true,
        };
        assert_eq!(meta.total_blocks(), 5);
        assert_eq!(meta.buffer_capacity(256), 15, "16 slots less the count record");
        assert_eq!(meta.predict(100), 0);
        assert_eq!(meta.predict(120), 10);
        assert_eq!(meta.predict(1_000_000), 59, "prediction clamps to count-1");
        assert!(meta.check_extent(256).is_ok());
        // 4 data blocks of 16 entries hold 64.
        assert!(SegmentMeta { count: 64, ..meta }.check_extent(256).is_ok());
        assert!(SegmentMeta { count: 65, ..meta }.check_extent(256).is_err());
        // A flagged buffer needs a block to hold its count record.
        assert!(SegmentMeta { buffer_blocks: 0, ..meta }.check_extent(256).is_err());
        assert!(SegmentMeta { buffer_blocks: 0, buffered: false, ..meta }
            .check_extent(256)
            .is_ok());
        assert!(SegmentMeta { start_block: u32::MAX - 4, ..meta }.check_extent(256).is_err());
        assert_eq!(
            SegmentMeta { buffer_blocks: u32::MAX, ..meta }.buffer_capacity(256),
            u32::MAX - 1
        );
        assert_eq!(SegmentMeta { buffer_blocks: 0, ..meta }.buffer_capacity(256), 0);
    }
}
