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
//! Both regions are sorted entry arrays ([`lidx_core::entries`]), the layout
//! PGM's data level and insert run use too: [`SegmentMeta::data`] and
//! [`SegmentMeta::buffer`] name them. The data probe is the one PGM's data
//! level uses too, a [`WindowProbe`]: it reads the block holding the model's
//! predicted position first and steps one way from there, inside the
//! ε-window only. The buffer probe reads every occupied block.

use lidx_core::entries::{self, EntryArray, WindowProbe};
use lidx_core::{Entry, IndexError, IndexResult, Key, Value};
use lidx_storage::{BlockCursor, BlockId, BlockKind};

use lidx_models::LinearModel;

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

    /// The delta buffer in segment file `file`: `buffer_count` entries in the
    /// `buffer_blocks` blocks after the data region, charged to `Leaf`.
    pub fn buffer(&self, file: u32) -> EntryArray {
        EntryArray {
            file,
            first_block: self.start_block + self.data_blocks,
            blocks: self.buffer_blocks,
            len: self.buffer_count as usize,
            kind: BlockKind::Leaf,
        }
    }

    /// Capacity of the delta buffer in entries, given the block size.
    pub fn buffer_capacity(&self, block_size: usize) -> u32 {
        self.buffer_blocks.saturating_mul(entries::per_block(block_size) as u32)
    }

    /// Checks that the record's entry counts fit its extent: `count` entries
    /// in `data_blocks`, `buffer_count` in `buffer_blocks`, and the extent
    /// within `u32` block ids. The read paths trust these bounds, so a record
    /// that overruns them would send a probe into the buffer region or the
    /// next segment's blocks.
    pub(crate) fn check_extent(&self, block_size: usize) -> IndexResult<()> {
        let per_block = entries::per_block(block_size) as u64;
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
            buffer_count: 0,
        };
        meta.data(file).write(&disk, &entries).unwrap();
        meta.buffer(file).write(&disk, &[]).unwrap();
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
        assert!(meta.buffer(file).all(&mut disk.cursor()).unwrap().is_empty());

        let buffered: Vec<Entry> = vec![(3, 4), (7, 8)];
        meta.buffer_count = buffered.len() as u32;
        meta.buffer(file).write(&disk, &buffered).unwrap();
        assert_eq!(meta.buffer(file).all(&mut disk.cursor()).unwrap(), buffered);
        for (key, expected) in [(3, Some(4)), (7, Some(8)), (5, None), (u64::MAX, None)] {
            let found = meta.buffer(file).search(&mut disk.cursor(), key).unwrap();
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
        meta.buffer(file).write(&disk, &buffered).unwrap();
        disk.stats().reset();
        disk.reset_access_state();
        // The key sits in the first block; the probe still reads the second,
        // as reading the whole buffer would.
        assert_eq!(meta.buffer(file).search(&mut disk.cursor(), 4).unwrap(), Some(2));
        assert_eq!(disk.stats().reads(), 2);
        assert_eq!(meta.buffer(file).search(&mut disk.cursor(), 38).unwrap(), Some(19));
        assert_eq!(meta.buffer(file).search(&mut disk.cursor(), 40).unwrap(), None);
    }

    #[test]
    fn overflow_is_rejected() {
        let (disk, file, meta, _) = setup(10);
        let too_many: Vec<Entry> = (0..10_000u64).map(|i| (i, i)).collect();
        assert!(meta.data(file).write(&disk, &too_many).is_err());
        assert!(meta.buffer(file).write(&disk, &too_many).is_err());
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
