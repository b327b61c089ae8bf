//! On-disk segment layout for the FITing-tree.
//!
//! A segment is an extent of consecutive blocks in the segment file:
//!
//! ```text
//! [ data blocks: (key u64, payload u64) * count, sentinel-padded ]
//! [ buffer blocks: (key u64, payload u64) * buffer_count, sorted ]
//! ```
//!
//! The segment itself carries **no header** — its linear model and occupancy
//! counters live in the directory entry pointing at it ([`SegmentMeta`]).
//! This mirrors the design property the paper highlights for FITing-tree and
//! PGM (shortcoming S1 does not apply): the model is stored in the parent, so
//! reaching a key costs only the data blocks covered by the error range.
//!
//! Entries are 16 bytes and never straddle a block boundary (block sizes are
//! powers of two ≥ 64). Unused data slots are padded with the sentinel key
//! `u64::MAX`, which is larger than any valid key, so binary search works
//! without knowing the exact count.

use std::ops::Range;

use lidx_core::{Entry, IndexError, IndexResult, Key, Value};
use lidx_storage::{BlockCursor, BlockId, BlockKind, Disk, SlotTable};

use lidx_models::LinearModel;

/// Size of one stored entry in bytes.
pub const ENTRY_BYTES: usize = 16;

/// Sentinel key used to pad unused slots in data blocks.
pub const SENTINEL_KEY: Key = Key::MAX;

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
    /// Number of valid entries in the delta buffer.
    pub buffer_count: u32,
}

impl SegmentMeta {
    /// Total blocks of the extent.
    pub fn total_blocks(&self) -> u32 {
        self.data_blocks + self.buffer_blocks
    }

    /// Capacity of the delta buffer in entries, given the block size.
    pub fn buffer_capacity(&self, block_size: usize) -> u32 {
        self.buffer_blocks.saturating_mul(entries_per_block(block_size) as u32)
    }

    /// Checks that the record's entry counts fit its extent: `count` entries
    /// in `data_blocks`, `buffer_count` in `buffer_blocks`, and the extent
    /// within `u32` block ids. The read paths trust these bounds, so a record
    /// that overruns them would send a probe into the buffer region or the
    /// next segment's blocks.
    pub(crate) fn check_extent(&self, block_size: usize) -> IndexResult<()> {
        let per_block = entries_per_block(block_size) as u64;
        let fits = u64::from(self.count) <= u64::from(self.data_blocks) * per_block
            && u64::from(self.buffer_count) <= u64::from(self.buffer_blocks) * per_block
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
}

/// Number of entries per block for a given block size.
pub fn entries_per_block(block_size: usize) -> usize {
    block_size / ENTRY_BYTES
}

/// Serialises `entries` (plus sentinel padding) into the data region of a
/// segment extent and writes it to `disk`, charging [`BlockKind::Leaf`].
pub fn write_data_region(
    disk: &Disk,
    file: u32,
    start_block: BlockId,
    data_blocks: u32,
    entries: &[Entry],
) -> IndexResult<()> {
    let bs = disk.block_size();
    let per_block = entries_per_block(bs);
    let capacity = data_blocks as usize * per_block;
    if entries.len() > capacity {
        return Err(IndexError::Internal(format!(
            "segment data region overflow: {} entries into {} slots",
            entries.len(),
            capacity
        )));
    }
    let mut buf = vec![0u8; bs];
    for b in 0..data_blocks {
        let base = b as usize * per_block;
        for slot in 0..per_block {
            let off = slot * ENTRY_BYTES;
            let (k, v) = entries.get(base + slot).copied().unwrap_or((SENTINEL_KEY, 0));
            buf[off..off + 8].copy_from_slice(&k.to_le_bytes());
            buf[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
        }
        disk.write(file, start_block + b, BlockKind::Leaf, &buf)?;
    }
    Ok(())
}

/// Writes the sorted delta-buffer entries into the buffer region.
pub fn write_buffer_region(
    disk: &Disk,
    file: u32,
    meta: &SegmentMeta,
    entries: &[Entry],
) -> IndexResult<()> {
    let bs = disk.block_size();
    let per_block = entries_per_block(bs);
    let capacity = meta.buffer_blocks as usize * per_block;
    if entries.len() > capacity {
        return Err(IndexError::Internal(format!(
            "segment buffer overflow: {} entries into {} slots",
            entries.len(),
            capacity
        )));
    }
    let mut buf = vec![0u8; bs];
    let start = meta.start_block + meta.data_blocks;
    for b in 0..meta.buffer_blocks {
        let base = b as usize * per_block;
        for slot in 0..per_block {
            let off = slot * ENTRY_BYTES;
            let (k, v) = entries.get(base + slot).copied().unwrap_or((SENTINEL_KEY, 0));
            buf[off..off + 8].copy_from_slice(&k.to_le_bytes());
            buf[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
        }
        disk.write(file, start + b, BlockKind::Leaf, &buf)?;
    }
    Ok(())
}

/// Decodes the entry stored at `slot` of a raw block buffer.
pub fn entry_at(buf: &[u8], slot: usize) -> Entry {
    let off = slot * ENTRY_BYTES;
    let k = Key::from_le_bytes(buf[off..off + 8].try_into().unwrap());
    let v = Value::from_le_bytes(buf[off + 8..off + 16].try_into().unwrap());
    (k, v)
}

/// The payload stored under `key` among the entries in slots `slots` of one
/// pinned block, found by binary search where they lie; the entries must be
/// sorted by key. A range beyond the block is a typed error.
pub(crate) fn find_in_block(
    buf: &[u8],
    slots: Range<usize>,
    key: Key,
) -> IndexResult<Option<Value>> {
    let table = SlotTable::<ENTRY_BYTES>::new(buf, slots.start * ENTRY_BYTES, slots.len())?;
    let pos = table.partition_point(|k| k < key);
    Ok((pos < table.len() && table.key(pos) == key)
        .then(|| Value::from_le_bytes(table.slot(pos)[8..].try_into().expect("8-byte payload"))))
}

/// Searches the data region of a segment for `key`, reading through the
/// operation's `cursor`.
///
/// Only the blocks overlapping the error window `[pred - epsilon,
/// pred + epsilon]` are fetched, exactly as the paper's I/O analysis assumes
/// (Table 2: `2ε / B` blocks in the worst case).
pub fn search_data(
    cursor: &mut BlockCursor<'_>,
    file: u32,
    meta: &SegmentMeta,
    key: Key,
    epsilon: usize,
) -> IndexResult<Option<Value>> {
    if meta.count == 0 {
        return Ok(None);
    }
    let per_block = entries_per_block(cursor.disk().block_size());
    let pred = meta.predict(key);
    let lo = pred.saturating_sub(epsilon);
    let hi = (pred + epsilon).min(meta.count as usize - 1);
    let first_block = lo / per_block;
    let last_block = hi / per_block;
    for b in first_block..=last_block {
        let buf = cursor.read(file, meta.start_block + b as u32, BlockKind::Leaf)?;
        let slot_lo = if b == first_block { lo - b * per_block } else { 0 };
        let slot_hi = if b == last_block { hi - b * per_block } else { per_block - 1 };
        if let Some(v) = find_in_block(buf, slot_lo..slot_hi + 1, key)? {
            return Ok(Some(v));
        }
    }
    Ok(None)
}

/// Probes the delta buffer of a segment for `key`, reading through the
/// operation's `cursor` and binary-searching each pinned block in place.
/// Every block holding buffered entries is read, in order, as
/// [`read_buffer`] reads them, so a probe costs the same blocks whether or
/// not an early block holds the key.
pub fn search_buffer(
    cursor: &mut BlockCursor<'_>,
    file: u32,
    meta: &SegmentMeta,
    key: Key,
) -> IndexResult<Option<Value>> {
    let per_block = entries_per_block(cursor.disk().block_size());
    let mut found = None;
    let mut remaining = meta.buffer_count as usize;
    let start = meta.start_block + meta.data_blocks;
    for b in 0..meta.buffer_blocks {
        if remaining == 0 {
            break;
        }
        let buf = cursor.read(file, start + b, BlockKind::Leaf)?;
        let take = remaining.min(per_block);
        if found.is_none() {
            found = find_in_block(buf, 0..take, key)?;
        }
        remaining -= take;
    }
    Ok(found)
}

/// Reads the valid entries of the data region (`count` entries) through
/// `cursor`, charging one read per data block. Used by resegmentation and
/// the delta fill's data rewrite, each through a fresh
/// [`Disk::scan_cursor`]: the whole-segment stream is counted as scan reads
/// and, at queue depth > 1, read ahead.
pub fn read_all_data(
    cursor: &mut BlockCursor<'_>,
    file: u32,
    meta: &SegmentMeta,
) -> IndexResult<Vec<Entry>> {
    let per_block = entries_per_block(cursor.disk().block_size());
    let mut out = Vec::with_capacity(meta.count as usize);
    let mut remaining = meta.count as usize;
    for b in 0..meta.data_blocks {
        if remaining == 0 {
            break;
        }
        let buf = cursor.read(file, meta.start_block + b, BlockKind::Leaf)?;
        let take = remaining.min(per_block);
        for slot in 0..take {
            out.push(entry_at(buf, slot));
        }
        remaining -= take;
    }
    Ok(out)
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
    let per_block = entries_per_block(cursor.disk().block_size());
    let count = meta.count as usize;
    let mut out = Vec::new();
    if count == 0 || from_pos >= count {
        return Ok(out);
    }
    let mut matched = 0usize;
    let mut block = from_pos / per_block;
    let last_block = (count - 1) / per_block;
    while block <= last_block && matched < needed {
        let buf = cursor.read(file, meta.start_block + block as u32, BlockKind::Leaf)?;
        let slot_lo = if block == from_pos / per_block { from_pos % per_block } else { 0 };
        let slot_hi = per_block.min(count - block * per_block);
        for slot in slot_lo..slot_hi {
            let e = entry_at(buf, slot);
            if e.0 >= min_key {
                matched += 1;
            }
            out.push(e);
        }
        block += 1;
    }
    Ok(out)
}

/// Reads the valid entries of the delta buffer (sorted) through the
/// operation's `cursor`, charging one read per buffer block actually holding
/// data: point-class for an insert, scan-class for a scan or maintenance
/// stream's scan cursor.
pub fn read_buffer(
    cursor: &mut BlockCursor<'_>,
    file: u32,
    meta: &SegmentMeta,
) -> IndexResult<Vec<Entry>> {
    let per_block = entries_per_block(cursor.disk().block_size());
    let mut out = Vec::with_capacity(meta.buffer_count as usize);
    let mut remaining = meta.buffer_count as usize;
    let start = meta.start_block + meta.data_blocks;
    for b in 0..meta.buffer_blocks {
        if remaining == 0 {
            break;
        }
        let buf = cursor.read(file, start + b, BlockKind::Leaf)?;
        let take = remaining.min(per_block);
        for slot in 0..take {
            out.push(entry_at(buf, slot));
        }
        remaining -= take;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_storage::DiskConfig;

    fn setup(count: usize) -> (std::sync::Arc<Disk>, u32, SegmentMeta, Vec<Entry>) {
        let disk = Disk::in_memory(DiskConfig::with_block_size(256));
        let file = disk.create_file().unwrap();
        let entries: Vec<Entry> = (0..count as u64).map(|i| (i * 10, i * 10 + 1)).collect();
        let per_block = entries_per_block(256);
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
            buffer_count: 0,
        };
        write_data_region(&disk, file, start, data_blocks, &entries).unwrap();
        write_buffer_region(&disk, file, &meta, &[]).unwrap();
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
        let (k, _) = entries[100];
        search_data(&mut disk.cursor(), file, &meta, k, 4).unwrap();
        // ε = 4 on a perfect model touches at most 2 blocks of 16 entries.
        assert!(disk.stats().reads() <= 2, "read {} blocks", disk.stats().reads());
    }

    #[test]
    fn read_all_data_and_buffer_roundtrip() {
        let (disk, file, mut meta, entries) = setup(50);
        assert_eq!(read_all_data(&mut disk.scan_cursor(), file, &meta).unwrap(), entries);
        assert!(read_buffer(&mut disk.cursor(), file, &meta).unwrap().is_empty());

        let buffered: Vec<Entry> = vec![(3, 4), (7, 8)];
        meta.buffer_count = buffered.len() as u32;
        write_buffer_region(&disk, file, &meta, &buffered).unwrap();
        assert_eq!(read_buffer(&mut disk.cursor(), file, &meta).unwrap(), buffered);
        for (key, expected) in [(3, Some(4)), (7, Some(8)), (5, None), (u64::MAX, None)] {
            let found = search_buffer(&mut disk.cursor(), file, &meta, key).unwrap();
            assert_eq!(found, expected, "buffer probe for {key}");
        }
    }

    #[test]
    fn a_buffer_probe_reads_every_occupied_block_in_order() {
        let (disk, file, mut meta, _) = setup(10);
        // Three buffer blocks, two of them occupied (16 entries per block).
        meta.buffer_blocks = 3;
        let buffered: Vec<Entry> = (0..20u64).map(|i| (i * 2, i)).collect();
        meta.buffer_count = buffered.len() as u32;
        disk.allocate(file, 2).unwrap();
        write_buffer_region(&disk, file, &meta, &buffered).unwrap();
        disk.stats().reset();
        disk.reset_access_state();
        // The key sits in the first block; the probe still reads the second,
        // as `read_buffer` would.
        assert_eq!(search_buffer(&mut disk.cursor(), file, &meta, 4).unwrap(), Some(2));
        assert_eq!(disk.stats().reads(), 2);
        assert_eq!(search_buffer(&mut disk.cursor(), file, &meta, 38).unwrap(), Some(19));
        assert_eq!(search_buffer(&mut disk.cursor(), file, &meta, 40).unwrap(), None);
    }

    #[test]
    fn overflow_is_rejected() {
        let (disk, file, meta, _) = setup(10);
        let too_many: Vec<Entry> = (0..10_000u64).map(|i| (i, i)).collect();
        assert!(
            write_data_region(&disk, file, meta.start_block, meta.data_blocks, &too_many).is_err()
        );
        assert!(write_buffer_region(&disk, file, &meta, &too_many).is_err());
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
            buffer_count: 2,
        };
        assert_eq!(meta.total_blocks(), 5);
        assert_eq!(meta.buffer_capacity(256), 16);
        assert_eq!(meta.predict(100), 0);
        assert_eq!(meta.predict(120), 10);
        assert_eq!(meta.predict(1_000_000), 59, "prediction clamps to count-1");
        assert!(meta.check_extent(256).is_ok());
        // 4 data blocks of 16 entries hold 64; one buffer block holds 16.
        assert!(SegmentMeta { count: 64, buffer_count: 16, ..meta }.check_extent(256).is_ok());
        assert!(SegmentMeta { count: 65, ..meta }.check_extent(256).is_err());
        assert!(SegmentMeta { buffer_count: 17, ..meta }.check_extent(256).is_err());
        assert!(SegmentMeta { start_block: u32::MAX - 4, ..meta }.check_extent(256).is_err());
        assert_eq!(SegmentMeta { buffer_blocks: u32::MAX, ..meta }.buffer_capacity(256), u32::MAX);
    }
}
