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
//! the tree's overflow block. The B+-tree's leaf records and ALEX's gapped
//! slots use the slot codec.
//!
//! The learned data levels (a PGM component's, a FITing segment's) also
//! share one way to find a key inside its model's ε-window: a
//! [`WindowProbe`] reads the block holding the predicted position first and
//! steps one way only from there, per key through a cursor
//! ([`EntryArray::probe`]) or a whole batch at a time through [`Wave`]s.

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
        self.write_from(disk, entries, 0)
    }

    /// Writes the array's blocks from block `first` on, in order, as
    /// [`write`](Self::write) would write them for `entries`, the array's
    /// entries from position 0: the blocks before `first` are left as they
    /// are, for a caller that knows they hold what `entries` puts there.
    /// More entries than the blocks hold is a typed error, and nothing is
    /// written.
    pub fn write_from(&self, disk: &Disk, entries: &[Entry], first: u32) -> IndexResult<()> {
        let per = per_block(disk.block_size());
        let capacity = self.blocks as usize * per;
        if entries.len() > capacity {
            return Err(IndexError::Internal(format!(
                "{} entries overflow the {capacity} slots of {self:?}",
                entries.len()
            )));
        }
        let mut buf = vec![0u8; disk.block_size()];
        let skip = (first as usize * per).min(entries.len());
        let mut entries = entries[skip..].iter().copied();
        for b in first..self.blocks {
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
        Ok(self.block_in(frame, b, per))
    }

    /// Block `b` of the array in `frame`, already read (by a [`Wave`]), at
    /// `per` slots a block.
    #[inline]
    pub fn block_in<'a>(&self, frame: &'a BlockRef, b: usize, per: usize) -> EntryBlock<'a> {
        EntryBlock { frame, valid: self.len.saturating_sub(b * per).min(per) }
    }

    /// The payload stored under the key of `probe`, a probe of this array,
    /// found predicted block first through `cursor` ([`WindowProbe::read`]):
    /// it reads the block holding the predicted position, then at most the
    /// rest of the window's blocks on one side of it, each once.
    #[inline]
    pub fn probe(
        &self,
        cursor: &mut BlockCursor<'_>,
        mut probe: WindowProbe,
    ) -> IndexResult<Option<Value>> {
        let per = per_block(cursor.disk().block_size());
        loop {
            let block = self.block(cursor, probe.block, SeqHint::Auto)?;
            match probe.read(block.frame, per)? {
                Probed::Hit(value) => return Ok(Some(value)),
                Probed::Miss => return Ok(None),
                Probed::Moved => {}
            }
        }
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

/// A probe for one key over the ε-window of a learned model's prediction in
/// an [`EntryArray`]: the positions `lo..=hi` of the window not yet ruled
/// out, and the array block it reads next.
///
/// It starts at the block holding the predicted position and searches that
/// block's part of the window in place ([`read`](Self::read)). A stored key
/// lies inside its window (the ε bound), so when every key of that part is
/// above the probe's key it can only lie further left, and when every key
/// is below it only further right. The window is cut to that side and the
/// probe steps one block that way: it moves one way only, so it reads each
/// block of its window at most once and stops even over unsorted bytes.
#[derive(Debug, Clone, Copy)]
pub struct WindowProbe {
    key: Key,
    lo: usize,
    hi: usize,
    block: usize,
}

/// What reading its block tells a [`WindowProbe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probed {
    /// The key is stored, with this payload.
    Hit(Value),
    /// The key is not stored.
    Miss,
    /// The key can only sit in the neighbouring block on one side, which the
    /// probe reads next.
    Moved,
}

impl WindowProbe {
    /// A probe for `key` in an array of `len` entries, `per_block` to a
    /// block, whose model predicts position `predicted` with error bound
    /// `epsilon`: the window is the positions within `epsilon` of the
    /// prediction clamped to the last entry. An empty array has no window.
    #[inline]
    pub fn new(
        key: Key,
        predicted: usize,
        epsilon: usize,
        len: usize,
        per_block: usize,
    ) -> Option<Self> {
        let predicted = predicted.min(len.checked_sub(1)?);
        let (lo, hi) = (predicted.saturating_sub(epsilon), predicted.saturating_add(epsilon));
        Some(WindowProbe { key, lo, hi: hi.min(len - 1), block: predicted / per_block })
    }

    /// The array block the probe reads next.
    #[inline]
    pub fn block(&self) -> usize {
        self.block
    }

    /// Searches the part of the window inside `frame`, the probe's
    /// [`block`](Self::block) at `per_block` entries a block, in place:
    /// a hit, a miss, or a step to the neighbouring block on the one side
    /// the key may still lie (the window cut to that side).
    #[inline]
    pub fn read(&mut self, frame: &BlockRef, per_block: usize) -> IndexResult<Probed> {
        let (start, end) = (self.block * per_block, (self.block + 1) * per_block - 1);
        let (from, until) = (self.lo.max(start), self.hi.min(end));
        let slots =
            SlotTable::<ENTRY_BYTES>::new(frame, (from - start) * ENTRY_BYTES, until + 1 - from)?;
        let at = slots.partition_point(|k| k < self.key);
        if at < slots.len() && slots.key(at) == self.key {
            return Ok(Probed::Hit(get(slots.slot(at)).1));
        }
        if at == 0 && self.lo < start {
            self.hi = start - 1;
            self.block -= 1;
        } else if at == slots.len() && self.hi > end {
            self.lo = end + 1;
            self.block += 1;
        } else {
            return Ok(Probed::Miss);
        }
        Ok(Probed::Moved)
    }
}

/// The frames of one batch of block reads: the distinct blocks fetched, in
/// ascending order, and their frames in the same order.
pub struct Wave {
    blocks: Vec<BlockId>,
    frames: Vec<BlockRef>,
}

impl Wave {
    /// Fetches the distinct `blocks` of `file`, charged to `kind`, in
    /// ascending order through one outstanding-read queue: completion waves
    /// of up to the disk's queue depth, so at depth 1 exactly what reading
    /// each block once costs.
    pub fn fetch(
        disk: &Disk,
        file: FileId,
        mut blocks: Vec<BlockId>,
        kind: BlockKind,
    ) -> IndexResult<Self> {
        blocks.sort_unstable();
        blocks.dedup();
        let mut q = disk.read_queue();
        for &b in &blocks {
            q.submit(file, b, kind)?;
        }
        let frames = q.complete()?.into_iter().map(|c| c.frame).collect();
        Ok(Wave { blocks, frames })
    }

    /// The frame of block `b`, which the wave must have fetched.
    #[inline]
    pub fn frame(&self, b: BlockId) -> IndexResult<&BlockRef> {
        let at = self.blocks.binary_search(&b);
        at.map(|at| &self.frames[at])
            .map_err(|_| IndexError::Internal(format!("block {b} is not in its wave")))
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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn a_probe_answers_every_key_its_window_holds(
            gaps in proptest::collection::vec(1u64..50, 1..120),
            epsilon in 0usize..40,
            shifts in proptest::collection::vec(0usize..81, 120),
        ) {
            let disk = Disk::in_memory(DiskConfig::with_block_size(256));
            let mut key = 0;
            let entries: Vec<Entry> = gaps
                .iter()
                .map(|&gap| {
                    key += gap;
                    (key, !key)
                })
                .collect();
            let (array, per) = array_of(&disk, &entries);
            // A stored key is found from any prediction within ε of it; a
            // gap key is missed. Either way the probe reads each block of
            // its window at most once, the first one the predicted block's.
            for (p, &(k, v)) in entries.iter().enumerate() {
                let predicted = (p + shifts[p] % (2 * epsilon + 1)).saturating_sub(epsilon);
                for (probe_key, want) in [(k, Some(v)), (k + 1, None), (k - 1, None)] {
                    if want.is_none() && entries.binary_search_by_key(&probe_key, |e| e.0).is_ok() {
                        continue;
                    }
                    let probe = WindowProbe::new(probe_key, predicted, epsilon, entries.len(), per);
                    let probe = probe.unwrap();
                    let first = probe.block();
                    let window = predicted.min(entries.len() - 1);
                    let lo = window.saturating_sub(epsilon) / per;
                    let hi = (window + epsilon).min(entries.len() - 1) / per;
                    prop_assert_eq!(first, window / per);
                    disk.reset_access_state();
                    let before = disk.snapshot();
                    let found = array.probe(&mut disk.cursor(), probe).unwrap();
                    let reads = disk.snapshot().since(&before).reads_of(BlockKind::Leaf);
                    prop_assert_eq!(found, want, "key {} predicted at {}", probe_key, predicted);
                    prop_assert!(reads >= 1 && reads as usize <= hi - lo + 1, "{} reads", reads);
                }
            }
        }
    }

    /// `entries` written as an array from block 0 of a fresh file, charged
    /// to `Leaf`, with its slots per block.
    fn array_of(disk: &Disk, entries: &[Entry]) -> (EntryArray, usize) {
        let per = per_block(disk.block_size());
        let file = disk.create_file().unwrap();
        let blocks = entries.len().div_ceil(per).max(1) as u32;
        let first_block = disk.allocate(file, blocks).unwrap();
        let array =
            EntryArray { file, first_block, blocks, len: entries.len(), kind: BlockKind::Leaf };
        array.write(disk, entries).unwrap();
        (array, per)
    }

    /// The answer of a probe for `key`, predicted at `predicted` with error
    /// bound `epsilon`, and the blocks it read, in order.
    fn probe_blocks(
        disk: &Disk,
        array: &EntryArray,
        key: Key,
        predicted: usize,
        epsilon: usize,
    ) -> (Option<Value>, Vec<usize>) {
        let per = per_block(disk.block_size());
        let mut probe = WindowProbe::new(key, predicted, epsilon, array.len, per).unwrap();
        let (mut cursor, mut read) = (disk.cursor(), Vec::new());
        loop {
            read.push(probe.block());
            let block = array.block(&mut cursor, probe.block(), SeqHint::Auto).unwrap();
            match probe.read(block.frame, per).unwrap() {
                Probed::Hit(value) => return (Some(value), read),
                Probed::Miss => return (None, read),
                Probed::Moved => {}
            }
        }
    }

    #[test]
    fn a_probe_reads_the_predicted_block_first_and_steps_one_way() {
        // 256-byte blocks of 16 entries; entry `i` holds key `10 * i`.
        let disk = Disk::in_memory(DiskConfig::with_block_size(256));
        let entries: Vec<Entry> = (0..64u64).map(|i| (i * 10, i)).collect();
        let (array, _) = array_of(&disk, &entries);

        // Hits on either side of the boundary between blocks 0 and 1, each
        // from an exact prediction, read that one block.
        assert_eq!(probe_blocks(&disk, &array, 150, 15, 4), (Some(15), vec![0]));
        assert_eq!(probe_blocks(&disk, &array, 160, 16, 4), (Some(16), vec![1]));
        // A left step: the window 13..=21 around 17 holds the key at 14, so
        // block 1's part (16..=21) lies wholly above it.
        assert_eq!(probe_blocks(&disk, &array, 140, 17, 4), (Some(14), vec![1, 0]));
        // A right step: the window 10..=18 around 14 holds the key at 18.
        assert_eq!(probe_blocks(&disk, &array, 180, 14, 4), (Some(18), vec![0, 1]));
        // A miss between two stored keys of the predicted block, and one
        // past the window's side in that block: no step either way.
        assert_eq!(probe_blocks(&disk, &array, 145, 14, 4), (None, vec![0]));
        assert_eq!(probe_blocks(&disk, &array, 5, 2, 1), (None, vec![0]));
        // A miss whose window spans both blocks steps once and stops.
        assert_eq!(probe_blocks(&disk, &array, 155, 17, 4), (None, vec![1, 0]));
        // A key above the window's last entry steps right only while the
        // window reaches further.
        assert_eq!(probe_blocks(&disk, &array, 999, 14, 4), (None, vec![0, 1]));
        assert_eq!(probe_blocks(&disk, &array, 9_999, 63, 4), (None, vec![3]));

        // A one-block window: three entries in one block, a prediction past
        // the last clamped onto it.
        let short = Disk::in_memory(DiskConfig::with_block_size(256));
        let (small, _) = array_of(&short, &entries[..3]);
        assert_eq!(probe_blocks(&short, &small, 20, 40, 8), (Some(2), vec![0]));
        assert_eq!(probe_blocks(&short, &small, 15, 0, 8), (None, vec![0]));
        // An empty array has no window.
        assert!(WindowProbe::new(7, 0, 4, 0, 16).is_none());
    }

    #[test]
    fn a_probe_over_unsorted_bytes_ends_within_its_window() {
        // Damaged blocks: keys in no order, so the in-block binary search
        // answers nonsense. The probe must still stop, reading each block of
        // its window at most once, one way from the predicted block. It runs
        // under a watchdog, so a probe that never stops fails the test
        // instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let disk = Disk::in_memory(DiskConfig::with_block_size(128));
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let mut next = move || {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                state >> 40
            };
            let entries: Vec<Entry> = (0..200).map(|_| (next() % 512, 1)).collect();
            let (array, per) = array_of(&disk, &entries);
            for _ in 0..4_000 {
                let (key, predicted, epsilon) =
                    (next() % 512, next() as usize % 220, next() as usize % 90);
                let (_, read) = probe_blocks(&disk, &array, key, predicted, epsilon);
                let at = predicted.min(entries.len() - 1);
                let lo = at.saturating_sub(epsilon) / per;
                let hi = (at + epsilon).min(entries.len() - 1) / per;
                assert_eq!(read[0], at / per, "the predicted block first");
                let one_way = read.windows(2).all(|w| w[1] + 1 == w[0])
                    || read.windows(2).all(|w| w[1] == w[0] + 1);
                assert!(one_way, "steps turned: {read:?}");
                assert!(read.iter().all(|b| (lo..=hi).contains(b)), "{read:?} left {lo}..={hi}");
            }
            tx.send(()).expect("the test waits");
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("probes over unsorted bytes did not stop within a minute");
    }

    #[test]
    fn a_wave_fetches_each_distinct_block_once_in_order() {
        let disk = Disk::in_memory(DiskConfig::with_block_size(256));
        let entries: Vec<Entry> = (0..64u64).map(|i| (i * 10, i)).collect();
        let (array, _) = array_of(&disk, &entries);
        disk.reset_access_state();
        let before = disk.snapshot();
        let wave = Wave::fetch(&disk, array.file, vec![3, 1, 3, 0], BlockKind::Leaf).unwrap();
        assert_eq!(disk.snapshot().since(&before).reads_of(BlockKind::Leaf), 3);
        for b in [0, 1, 3] {
            let block = array.block_in(wave.frame(b).unwrap(), b as usize, 16);
            let first = block.entries(0..1).unwrap().next();
            assert_eq!(first, Some(entries[b as usize * 16]));
        }
        assert!(matches!(wave.frame(2), Err(IndexError::Internal(_))));
    }

    #[test]
    fn a_write_from_a_block_stores_that_block_on_as_a_whole_write_does() {
        // 256-byte blocks of 16 entries: 40 entries in an array of four.
        let entries: Vec<Entry> = (0..40u64).map(|i| (i * 10, i)).collect();
        let new_array = || {
            let disk = Disk::in_memory(DiskConfig::with_block_size(256));
            let file = disk.create_file().unwrap();
            let first_block = disk.allocate(file, 4).unwrap();
            let array = EntryArray { file, first_block, blocks: 4, len: 40, kind: BlockKind::Leaf };
            (disk, array)
        };
        let block_bytes = |disk: &Disk, array: &EntryArray, b: u32| {
            disk.cursor().read(array.file, array.first_block + b, array.kind).unwrap().to_vec()
        };
        let (whole, array) = new_array();
        array.write(&whole, &entries).unwrap();
        for first in 0..=4 {
            let (from, array) = new_array();
            let before = from.snapshot();
            array.write_from(&from, &entries, first).unwrap();
            let writes = from.snapshot().since(&before).writes_of(BlockKind::Leaf);
            assert_eq!(writes, u64::from(4 - first), "from block {first}");
            for b in first..4 {
                let (got, want) = (block_bytes(&from, &array, b), block_bytes(&whole, &array, b));
                assert_eq!(got, want, "block {b} written from block {first}");
            }
        }
        let too_many: Vec<Entry> = (0..65u64).map(|k| (k, k)).collect();
        let overflow = array.write_from(&whole, &too_many, 3);
        assert!(matches!(overflow, Err(IndexError::Internal(_))));
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
