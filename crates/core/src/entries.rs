//! The sorted entry array: one on-disk layout for the designs that keep
//! their models in the parent and their data in plain sorted blocks.
//!
//! ```text
//! block first_block + b : (key u64, payload u64) * (block_size / 16)
//! ```
//!
//! Entries are 16-byte little-endian slots ([`put`] / [`get`]) with no
//! header, `block_size / 16` to a block, and never straddle a block boundary
//! (block sizes are powers of two ≥ 64). Entry `i` sits in block
//! `i / per_block`, slot `i % per_block`. An [`EntryArray`] names where the
//! array lies and how many entries it holds; the slots past `len` are padded
//! with [`SENTINEL`], larger than any stored key, so the array's last block
//! binary-searches like the others.
//!
//! Five users share it: a static PGM component's data level and the PGM
//! insert run, and a FITing-tree segment's data region, its delta buffer and
//! the tree's overflow block. Each keeps its own search and stop rule; only
//! the format lives here. The B+-tree's leaf records and ALEX's gapped slots
//! use the slot codec.

use std::ops::Range;

use lidx_storage::{
    bytes_at, BlockCursor, BlockId, BlockKind, BlockRef, Disk, FileId, SeqHint, SlotTable,
};

use crate::{Entry, IndexError, IndexResult, Key, Value};

/// Bytes of one entry slot.
pub const ENTRY_BYTES: usize = 16;

/// The key padding the unused slots of an array's blocks.
pub const SENTINEL: Key = Key::MAX;

/// Encodes `entry` into one slot.
#[inline]
pub fn put(slot: &mut [u8; ENTRY_BYTES], (key, value): Entry) {
    slot[..8].copy_from_slice(&key.to_le_bytes());
    slot[8..].copy_from_slice(&value.to_le_bytes());
}

/// Decodes the entry in one slot.
#[inline]
pub fn get(slot: &[u8; ENTRY_BYTES]) -> Entry {
    (Key::from_le_bytes(bytes_at(slot, 0)), Value::from_le_bytes(bytes_at(slot, 8)))
}

/// Entry slots in a block of `block_size` bytes.
#[inline]
pub fn per_block(block_size: usize) -> usize {
    block_size / ENTRY_BYTES
}

/// Where one sorted entry array lies: `blocks` blocks of `file` from
/// `first_block`, charged to `kind`, holding `len` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryArray {
    /// The file holding the array.
    pub file: FileId,
    /// The array's first block.
    pub first_block: BlockId,
    /// Blocks the array occupies.
    pub blocks: u32,
    /// Entries the array holds.
    pub len: usize,
    /// The kind every read and write of the array is charged to.
    pub kind: BlockKind,
}

/// One block of an [`EntryArray`] as read: the frame the cursor holds and
/// how many of its slots hold entries.
#[derive(Debug, Clone, Copy)]
pub struct EntryBlock<'a> {
    /// The block's frame.
    pub frame: &'a BlockRef,
    /// Slots from the block's first that hold entries.
    pub valid: usize,
}

impl<'a> EntryBlock<'a> {
    /// The valid slots `range` of the block, searched in place; a range past
    /// the valid slots is a typed error.
    #[inline]
    pub fn slots(&self, range: Range<usize>) -> IndexResult<SlotTable<'a, ENTRY_BYTES>> {
        if range.start > range.end || range.end > self.valid {
            return Err(IndexError::Internal(format!(
                "slots {range:?} of an entry block with {} valid",
                self.valid
            )));
        }
        Ok(SlotTable::new(self.frame, range.start * ENTRY_BYTES, range.len())?)
    }

    /// The entries in the valid slots `range`, decoded in order.
    pub fn entries(&self, range: Range<usize>) -> IndexResult<impl Iterator<Item = Entry> + 'a> {
        let slots = self.slots(range)?;
        Ok((0..slots.len()).map(move |i| get(slots.slot(i))))
    }
}

impl EntryArray {
    /// Checks that the array's `len` entries fit its blocks at `per` slots a
    /// block; every read trusts it, so a count forged past the blocks would
    /// send a read into whatever follows them.
    #[inline]
    fn check(&self, per: usize) -> IndexResult<()> {
        if self.len <= self.blocks as usize * per {
            Ok(())
        } else {
            Err(IndexError::Internal(format!("{self:?} overruns its blocks")))
        }
    }

    /// Writes `entries` (sorted by key) as all `blocks` blocks of the array,
    /// in order, padding every slot past the entries with [`SENTINEL`]. More
    /// entries than the blocks hold is a typed error, and nothing is written.
    pub fn write(&self, disk: &Disk, entries: &[Entry]) -> IndexResult<()> {
        let capacity = self.blocks as usize * per_block(disk.block_size());
        if entries.len() > capacity {
            return Err(IndexError::Internal(format!(
                "{} entries overflow the {capacity} slots of {self:?}",
                entries.len()
            )));
        }
        let mut buf = vec![0u8; disk.block_size()];
        let mut entries = entries.iter().copied();
        for b in 0..self.blocks {
            for slot in buf.as_chunks_mut::<ENTRY_BYTES>().0 {
                put(slot, entries.next().unwrap_or((SENTINEL, 0)));
            }
            disk.write(self.file, self.first_block + b, self.kind, &buf)?;
        }
        Ok(())
    }

    /// Appends the entries at positions `range` to `out`, reading exactly
    /// the blocks that cover it, in order, through `cursor`. An empty range
    /// reads nothing; a range past `len` is a typed error.
    pub fn read(
        &self,
        cursor: &mut BlockCursor<'_>,
        range: Range<usize>,
        out: &mut Vec<Entry>,
    ) -> IndexResult<()> {
        if range.start > range.end || range.end > self.len {
            return Err(IndexError::Internal(format!("entries {range:?} of {self:?}")));
        }
        let per = per_block(cursor.disk().block_size());
        let mut pos = range.start;
        while pos < range.end {
            let (b, from) = (pos / per, pos % per);
            let until = (range.end - b * per).min(per);
            out.extend(self.block(cursor, b, SeqHint::Auto)?.entries(from..until)?);
            pos = b * per + until;
        }
        Ok(())
    }

    /// All `len` entries, read as [`read`](Self::read) reads them.
    pub fn all(&self, cursor: &mut BlockCursor<'_>) -> IndexResult<Vec<Entry>> {
        self.check(per_block(cursor.disk().block_size()))?;
        let mut out = Vec::with_capacity(self.len);
        self.read(cursor, 0..self.len, &mut out)?;
        Ok(out)
    }

    /// Reads block `b` of the array through `cursor` with the sequential-cost
    /// `hint`; the block borrows the frame the cursor then holds. A block
    /// past the array, or a `len` past its blocks, is a typed error.
    #[inline]
    pub fn block<'c>(
        &self,
        cursor: &'c mut BlockCursor<'_>,
        b: usize,
        hint: SeqHint,
    ) -> IndexResult<EntryBlock<'c>> {
        let per = per_block(cursor.disk().block_size());
        self.check(per)?;
        if b >= self.blocks as usize {
            return Err(IndexError::Internal(format!("block {b} of {self:?}")));
        }
        let block = self.first_block + b as BlockId;
        let frame = cursor.read_hinted(self.file, block, self.kind, hint)?;
        Ok(EntryBlock { frame, valid: self.len.saturating_sub(b * per).min(per) })
    }

    /// The payload stored under `key`, found by searching every block that
    /// holds entries in place through `cursor`. All of them are read, in
    /// order, as reading the whole array would read them, so a probe costs
    /// the same blocks whether or not an early block holds the key.
    #[inline]
    pub fn search(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<Option<Value>> {
        let occupied = self.len.div_ceil(per_block(cursor.disk().block_size()));
        let mut found = None;
        for b in 0..occupied {
            let block = self.block(cursor, b, SeqHint::Auto)?;
            if found.is_none() {
                found = Self::find(&block.slots(0..block.valid)?, key);
            }
        }
        Ok(found)
    }

    /// The payload stored under `key` among `slots` (sorted by key), found
    /// by binary search where the slots lie.
    #[inline]
    pub fn find(slots: &SlotTable<'_, ENTRY_BYTES>, key: Key) -> Option<Value> {
        let pos = slots.partition_point(|k| k < key);
        (pos < slots.len() && slots.key(pos) == key).then(|| get(slots.slot(pos)).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_storage::{DeviceModel, DiskConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn an_array_reads_back_what_it_wrote_block_for_block(
            gaps in proptest::collection::vec(1u64..1_000, 0..90),
            block_size_pow in 6u32..13, // 64 B .. 4 KiB
            spare in 0u32..3,
        ) {
            let (read_ns, seq_ns) = (100, 7);
            let config = DiskConfig::with_block_size(1 << block_size_pow)
                .device(DeviceModel::custom("t", read_ns, 10, seq_ns));
            let disk = Disk::in_memory(config);
            let file = disk.create_file().unwrap();
            let per = per_block(disk.block_size());
            let mut key = 0;
            let entries: Vec<Entry> = gaps
                .iter()
                .map(|&gap| {
                    key += gap;
                    (key, key ^ 0xA5)
                })
                .collect();
            let blocks = entries.len().div_ceil(per).max(1) as u32 + spare;
            let first_block = disk.allocate(file, blocks + 1).unwrap() + 1;
            let array =
                EntryArray { file, first_block, blocks, len: entries.len(), kind: BlockKind::Leaf };
            array.write(&disk, &entries).unwrap();

            // Every sub-range reads back, from exactly its covering blocks in
            // ascending order: one random read, then sequential ones.
            for start in 0..=entries.len() {
                for end in start..=entries.len() {
                    disk.reset_access_state();
                    let before = disk.snapshot();
                    let mut out = vec![(1, 1)];
                    array.read(&mut disk.cursor(), start..end, &mut out).unwrap();
                    let io = disk.snapshot().since(&before);
                    prop_assert_eq!(&out[1..], &entries[start..end]);
                    let covering = if start == end { 0 } else { (end - 1) / per - start / per + 1 };
                    prop_assert_eq!(io.reads_of(BlockKind::Leaf), covering as u64);
                    prop_assert_eq!(io.frames_pinned, covering as u64);
                    let ns = if covering == 0 { 0 } else { read_ns + (covering as u64 - 1) * seq_ns };
                    prop_assert_eq!(io.device_ns, ns, "blocks read out of order");
                }
            }

            // `find` agrees with a binary search of the entries, block by
            // block, for stored keys, gaps and the sentinel.
            let probes = entries.iter().flat_map(|&(k, _)| [k - 1, k, k + 1]).chain([0, SENTINEL]);
            for probe in probes {
                let expected = entries
                    .binary_search_by_key(&probe, |&(k, _)| k)
                    .ok()
                    .map(|i| entries[i].1);
                let mut found = None;
                let mut cursor = disk.cursor();
                for b in 0..blocks as usize {
                    let block = array.block(&mut cursor, b, SeqHint::Auto).unwrap();
                    found = found.or(EntryArray::find(&block.slots(0..block.valid).unwrap(), probe));
                }
                prop_assert_eq!(found, expected, "probe {}", probe);
            }

            // Every slot past the entries, in every block, is the sentinel.
            let mut cursor = disk.cursor();
            for b in 0..blocks as usize {
                let block = array.block(&mut cursor, b, SeqHint::Auto).unwrap();
                let offset = block.valid * ENTRY_BYTES;
                let padding = SlotTable::<ENTRY_BYTES>::new(block.frame, offset, per - block.valid);
                let padding = padding.unwrap();
                prop_assert!((0..padding.len()).all(|i| padding.key(i) == SENTINEL), "block {}", b);
            }

            // An over-full write and a count past the blocks are typed errors.
            let capacity = blocks as usize * per;
            let too_many: Vec<Entry> = (0..capacity as u64 + 1).map(|k| (k, k)).collect();
            prop_assert!(matches!(array.write(&disk, &too_many), Err(IndexError::Internal(_))));
            let overrun = EntryArray { len: capacity + 1, ..array };
            let mut out = Vec::new();
            prop_assert!(overrun.read(&mut disk.cursor(), 0..capacity + 1, &mut out).is_err());
            prop_assert!(overrun.block(&mut disk.cursor(), 0, SeqHint::Auto).is_err());
            prop_assert!(array.read(&mut disk.cursor(), 0..entries.len() + 1, &mut out).is_err());
            prop_assert!(array.block(&mut disk.cursor(), blocks as usize, SeqHint::Auto).is_err());
        }
    }

    #[test]
    fn the_slot_codec_is_little_endian_key_then_payload() {
        let mut slot = [0u8; ENTRY_BYTES];
        put(&mut slot, (0x0102, 0x0304));
        assert_eq!(slot[..2], [0x02, 0x01]);
        assert_eq!(slot[8..10], [0x04, 0x03]);
        assert_eq!(get(&slot), (0x0102, 0x0304));
    }
}
