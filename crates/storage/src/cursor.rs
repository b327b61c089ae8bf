//! [`BlockCursor`]: one operation's hold on the last block it read — the
//! §6.5 optimisation of the paper ("we check whether the last block fetched
//! can be reused"), scoped to one query as the paper scopes it.
//!
//! Several index walks read a node slot by slot, so consecutive reads often
//! name the block the walk read a moment ago: an exponential search inside
//! one slot block, a LIPP node's header and then its slots, a model-tree
//! node scanned leftwards, an ALEX insert's gap search over one bitmap
//! block. A cursor keeps the frame it read last. A read of the same
//! `(file, block)` as the same [`BlockKind`] right after returns that frame
//! without touching the disk: no device read, no pool lookup, no change to
//! pool recency. The re-read is not a request either: it counts no reuse
//! hit, pinned frame or scan read. Any other read goes to the disk, and the
//! cursor holds its frame instead.
//!
//! An operation sends all its reads *and writes* of blocks it may re-read
//! through its one cursor. A point or scan cursor is write-through:
//! [`BlockCursor::write`] writes through the disk and, when the cursor holds
//! the written block, replaces the held frame with the new bytes, so the
//! next read of that block returns what was just written, still without a
//! device read. A write that bypassed the cursor would leave it holding the
//! old bytes. A walk that frees blocks frees them through
//! [`BlockCursor::free`], which lets go of the held frame first.
//!
//! A write batch runs on a write-back cursor instead ([`Disk::write_back`]).
//! Its writes stay in the cursor as dirty blocks, kept in first-write order,
//! and its reads of a dirty block return the dirty bytes without a request.
//! When the batch returns, each dirty block is stored once. The accounting
//! rule keeps a batch's counters what its first writes would have cost
//! written through: the first write of a block charges exactly what
//! [`Disk::write`] charges (the write count of its kind, the device's write
//! cost and the last-access word), and its later writes and the final store
//! charge nothing. So on a seeking device the one charged write of a block
//! is placed where the batch was when it first dirtied the block. A free
//! through the cursor drops the dirty copies in the freed range, so a
//! reused block is never overwritten by a stale copy. Until the flush the
//! pool and the device hold the pre-batch bytes, so only a caller that
//! holds the batch's blocks exclusively may run one.
//!
//! A cursor also holds the operation's access class, as a rule over block
//! kinds: a [`Disk::cursor`] reads every block point-class, and a
//! [`Disk::scan_cursor`] reads `Leaf` and `Utility` blocks scan-class and
//! `Inner` and `Meta` blocks point-class. A scan sends its descent and its
//! stream through one scan cursor, so the first data block it reads is
//! already a scan read and, at queue depth > 1, starts the readahead wave.
//! This rule is the only place a read's class is chosen: no public read
//! takes a class ([`crate::ReadQueue`] and [`Disk::read_ref`] read
//! point-class), and the index crates and the WAL read every block through
//! a cursor or, for a batch, a queue.
//!
//! So a walk through a cursor costs exactly what plain disk reads of the
//! same sequence, each under the class the cursor's rule gives its kind,
//! cost once each read that repeats the read before it (same file, block
//! and kind) is dropped.

use std::collections::HashMap;

use crate::buffer::{AccessClass, BlockRef};
use crate::disk::{Disk, FileId, SeqHint};
use crate::error::StorageResult;
use crate::stats::BlockKind;
use crate::BlockId;

/// The last frame one operation read; see the [module docs](self).
///
/// ```
/// use lidx_storage::{BlockKind, Disk, DiskConfig};
///
/// let disk = Disk::in_memory(DiskConfig::with_block_size(64));
/// let file = disk.create_file().unwrap();
/// disk.allocate(file, 2).unwrap();
/// let mut cursor = disk.cursor();
/// for block in [0, 0, 1, 1, 0] {
///     cursor.read(file, block, BlockKind::Leaf).unwrap();
/// }
/// // The re-reads of blocks 0 and 1 never reached the disk.
/// assert_eq!(disk.stats().reads(), 3);
/// // A write through the cursor is what its next read returns.
/// cursor.write(file, 0, BlockKind::Leaf, &[7; 64]).unwrap();
/// assert_eq!(cursor.read(file, 0, BlockKind::Leaf).unwrap()[0], 7);
/// assert_eq!(disk.stats().reads(), 3);
/// // A write-back batch charges and stores a block it writes twice once.
/// disk.write_back(|cursor| {
///     cursor.write(file, 1, BlockKind::Leaf, &[8; 64])?;
///     cursor.write(file, 1, BlockKind::Leaf, &[9; 64])
/// })
/// .unwrap();
/// assert_eq!(disk.stats().writes(), 2);
/// assert_eq!(disk.cursor().read(file, 1, BlockKind::Leaf).unwrap()[0], 9);
/// ```
pub struct BlockCursor<'d> {
    disk: &'d Disk,
    /// Whether this is a scan cursor: its `Leaf` and `Utility` reads are
    /// scan-class.
    scan: bool,
    /// The block read last, with the kind it was read as: a frame read as
    /// one kind only answers re-reads of that kind, so a memory-resident
    /// read never stands in for a charged one.
    held: Option<(FileId, BlockId, BlockKind, BlockRef)>,
    /// A write-back cursor's dirty blocks; `None` for a write-through one.
    /// Boxed, so a read cursor stays as small as it was.
    dirty: Option<Box<DirtyBlocks>>,
}

/// The blocks a write-back batch has written and not yet stored: the
/// latest bytes of each, in first-write order, with an index from
/// `(file, block)` into that order. A freed block leaves an empty place.
#[derive(Default)]
struct DirtyBlocks {
    order: Vec<Option<(FileId, BlockId, BlockRef)>>,
    at: HashMap<(FileId, BlockId), usize>,
}

impl DirtyBlocks {
    fn get(&self, file: FileId, block: BlockId) -> Option<&BlockRef> {
        let &i = self.at.get(&(file, block))?;
        self.order[i].as_ref().map(|(_, _, frame)| frame)
    }

    /// Makes `frame` the block's latest bytes; `true` if this is the
    /// block's first write.
    fn put(&mut self, file: FileId, block: BlockId, frame: BlockRef) -> bool {
        match self.at.get(&(file, block)) {
            Some(&i) => {
                self.order[i] = Some((file, block, frame));
                false
            }
            None => {
                self.at.insert((file, block), self.order.len());
                self.order.push(Some((file, block, frame)));
                true
            }
        }
    }

    fn drop_range(&mut self, file: FileId, start: BlockId, count: u32) {
        for block in start..start + count {
            if let Some(i) = self.at.remove(&(file, block)) {
                self.order[i] = None;
            }
        }
    }
}

impl<'d> BlockCursor<'d> {
    /// An empty cursor over `disk` ([`Disk::cursor`], or
    /// [`Disk::scan_cursor`] when `scan`): its first read goes to the disk.
    pub(crate) fn new(disk: &'d Disk, scan: bool) -> Self {
        BlockCursor { disk, scan, held: None, dirty: None }
    }

    /// An empty write-back point cursor ([`Disk::write_back`]).
    pub(crate) fn write_back(disk: &'d Disk) -> Self {
        BlockCursor { dirty: Some(Box::default()), ..Self::new(disk, false) }
    }

    /// The class this cursor reads `kind` under: scan-class for the data
    /// kinds of a scan cursor, point-class otherwise.
    fn class_of(&self, kind: BlockKind) -> AccessClass {
        match kind {
            BlockKind::Leaf | BlockKind::Utility if self.scan => AccessClass::Scan,
            _ => AccessClass::Point,
        }
    }

    /// The disk this cursor reads from.
    pub fn disk(&self) -> &'d Disk {
        self.disk
    }

    /// Reads one block (see [`BlockCursor::read_hinted`]).
    pub fn read(
        &mut self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
    ) -> StorageResult<&BlockRef> {
        self.read_hinted(file, block, kind, SeqHint::Auto)
    }

    /// Reads one block with a sequential-cost `hint`, under the class the
    /// cursor's rule gives `kind` (see the [module docs](self)): the held
    /// frame if it is the block read last (as the same kind), the dirty
    /// bytes if a write-back cursor wrote the block, otherwise a read from
    /// the disk (pinned as [`Disk::read_ref`] pins). The cursor then holds
    /// the frame it returned instead. Only the disk read is a request.
    pub fn read_hinted(
        &mut self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
        hint: SeqHint,
    ) -> StorageResult<&BlockRef> {
        if !matches!(self.held, Some((f, b, k, _)) if (f, b, k) == (file, block, kind)) {
            // Drop the old frame first: if the read fails, nothing stale is
            // left to answer the next one.
            self.held = None;
            let frame = match self.dirty.as_ref().and_then(|d| d.get(file, block)) {
                Some(frame) => frame.clone(),
                None => {
                    let class = self.class_of(kind);
                    self.disk.read_ref_hinted(file, block, kind, class, hint)?
                }
            };
            self.held = Some((file, block, kind, frame));
        }
        Ok(&self.held.as_ref().expect("a frame was just read").3)
    }

    /// Writes one block: through the disk ([`Disk::write`]), or on a
    /// write-back cursor into its dirty blocks, charged at the block's
    /// first write only. If the cursor holds that block, the held frame
    /// becomes `data`, so the next read of the block returns it without a
    /// device read.
    pub fn write(
        &mut self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
        data: &[u8],
    ) -> StorageResult<()> {
        // Let go of the held frame first if it names the block: a failed
        // write may have torn it, so nothing stale is left to answer a read.
        let kept = match self.held.take() {
            Some((f, b, k, _)) if (f, b) == (file, block) => Some(k),
            other => {
                self.held = other;
                None
            }
        };
        let frame = match self.dirty.as_mut() {
            None => {
                self.disk.write(file, block, kind, data)?;
                kept.map(|_| BlockRef::from_vec(data.to_vec()))
            }
            Some(dirty) => {
                self.disk.check_block_len(data)?;
                let frame = BlockRef::from_vec(data.to_vec());
                if dirty.put(file, block, frame.clone()) {
                    self.disk.charge_write(file, block, kind);
                }
                Some(frame)
            }
        };
        if let (Some(k), Some(frame)) = (kept, frame) {
            self.held = Some((file, block, k, frame));
        }
        Ok(())
    }

    /// Frees `count` blocks from `start` ([`Disk::free`]) after letting go
    /// of the held frame and of any dirty copy of a freed block.
    pub fn free(&mut self, file: FileId, start: BlockId, count: u32) {
        self.held = None;
        if let Some(dirty) = self.dirty.as_mut() {
            dirty.drop_range(file, start, count);
        }
        self.disk.free(file, start, count);
    }

    /// Stores every dirty block once, in first-write order, and charges
    /// nothing; the pool shares the dirty frame itself. Stops at the first
    /// store that fails.
    pub(crate) fn store_dirty(self) -> StorageResult<()> {
        for (file, block, frame) in self.dirty.into_iter().flat_map(|d| d.order).flatten() {
            self.disk.store(file, block, &frame, || frame.clone())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceModel, DiskConfig};

    fn disk() -> std::sync::Arc<Disk> {
        let config = DiskConfig::with_block_size(64).device(DeviceModel::custom("t", 100, 10, 7));
        let disk = Disk::in_memory(config);
        let file = disk.create_file().unwrap();
        disk.allocate(file, 4).unwrap();
        for b in 0..4u32 {
            disk.write(file, b, BlockKind::Leaf, &[b as u8; 64]).unwrap();
        }
        disk.stats().reset();
        disk.reset_access_state();
        disk
    }

    #[test]
    fn a_re_read_is_the_held_frame_and_no_request() {
        let d = disk();
        let mut cursor = d.scan_cursor();
        let first = cursor.read(0, 2, BlockKind::Leaf).unwrap().clone();
        let again = cursor.read(0, 2, BlockKind::Leaf).unwrap();
        assert_eq!(&again[..], &[2u8; 64]);
        assert!(std::ptr::eq(first.as_slice(), again.as_slice()), "the held frame, not a new one");
        let s = d.snapshot();
        assert_eq!((s.reads(), s.device_ns), (1, 100));
        assert_eq!((s.reuse_hits, s.frames_pinned, s.scan_reads), (0, 1, 1));
    }

    #[test]
    fn a_scan_cursor_streams_data_kinds_and_descends_point_class() {
        let kinds = [BlockKind::Meta, BlockKind::Inner, BlockKind::Leaf, BlockKind::Utility];
        for (scan, tagged) in [(false, 0), (true, 2)] {
            let d = disk();
            let mut cursor = if scan { d.scan_cursor() } else { d.cursor() };
            for (block, kind) in kinds.into_iter().enumerate() {
                cursor.read(0, block as BlockId, kind).unwrap();
            }
            let s = d.snapshot();
            assert_eq!((s.reads(), s.scan_reads), (4, tagged), "scan cursor: {scan}");
        }
        // At depth > 1 only a scan cursor's data miss reads ahead.
        let config = DiskConfig::with_block_size(64).queue_depth(4);
        for (kind, ahead) in [(BlockKind::Inner, 0), (BlockKind::Leaf, 3), (BlockKind::Utility, 3)]
        {
            let d = Disk::in_memory(config);
            let file = d.create_file().unwrap();
            d.allocate(file, 4).unwrap();
            d.scan_cursor().read(file, 0, kind).unwrap();
            assert_eq!(d.stats().reads(), 1 + ahead, "{kind:?}");
        }
    }

    #[test]
    fn only_the_block_read_last_is_held() {
        let d = disk();
        let mut cursor = d.cursor();
        for b in [0, 1, 0] {
            cursor.read(0, b, BlockKind::Leaf).unwrap();
        }
        assert_eq!(d.stats().reads(), 3, "block 0 was no longer held when read again");
        cursor.free(0, 3, 1);
        cursor.read(0, 0, BlockKind::Leaf).unwrap();
        let s = d.snapshot();
        assert_eq!(s.reads(), 4, "after a free the re-read goes to the device");
        assert_eq!(s.reuse_hits, 0);
    }

    #[test]
    fn a_failed_read_leaves_nothing_held() {
        let d = disk();
        let mut cursor = d.cursor();
        cursor.read(0, 3, BlockKind::Leaf).unwrap();
        assert!(cursor.read(0, 99, BlockKind::Leaf).is_err());
        cursor.read(0, 3, BlockKind::Leaf).unwrap();
        let s = d.snapshot();
        assert_eq!(s.reads(), 2, "the re-read of block 3 went to the device");
        assert_eq!(s.reuse_hits, 0);
    }

    #[test]
    fn a_write_through_the_cursor_is_what_its_next_read_returns() {
        let d = disk();
        let mut cursor = d.cursor();
        let before = cursor.read(0, 1, BlockKind::Leaf).unwrap().clone();
        cursor.write(0, 1, BlockKind::Leaf, &[42u8; 64]).unwrap();
        let after = cursor.read(0, 1, BlockKind::Leaf).unwrap();
        assert_eq!(&after[..], &[42u8; 64], "the new bytes, not the held old frame");
        assert_eq!(&before[..], &[1u8; 64], "a pinned frame keeps its snapshot");
        let s = d.snapshot();
        assert_eq!((s.reads(), s.writes(), s.device_ns), (1, 1, 100 + 10), "no device re-read");
        // A write of another block leaves the held frame alone.
        cursor.write(0, 2, BlockKind::Leaf, &[9u8; 64]).unwrap();
        assert_eq!(&cursor.read(0, 1, BlockKind::Leaf).unwrap()[..], &[42u8; 64]);
        assert_eq!(d.stats().reads(), 1);
    }

    /// The bytes the device holds for `block` of file 0, read past the pool.
    fn stored(d: &Disk, block: BlockId) -> Vec<u8> {
        d.clear_buffer();
        d.cursor().read(0, block, BlockKind::Leaf).unwrap().to_vec()
    }

    #[test]
    fn a_write_back_batch_reads_its_own_writes_without_a_request() {
        let d = disk();
        d.write_back(|cursor| {
            cursor.write(0, 1, BlockKind::Leaf, &[42u8; 64])?;
            // Another block in between, so block 1 is no longer held.
            cursor.read(0, 2, BlockKind::Leaf)?;
            assert_eq!(&cursor.read(0, 1, BlockKind::Leaf)?[..], &[42u8; 64]);
            // A dirty block answers a read as any kind.
            assert_eq!(&cursor.read(0, 1, BlockKind::Utility)?[..], &[42u8; 64]);
            let s = d.snapshot();
            assert_eq!((s.reads(), s.buffer_hits, s.frames_pinned), (1, 0, 1), "only block 2");
            // Until the flush the device holds the old bytes.
            assert_eq!(stored(&d, 1), [1u8; 64]);
            StorageResult::Ok(())
        })
        .unwrap();
        assert_eq!(stored(&d, 1), [42u8; 64]);
    }

    #[test]
    fn a_write_back_batch_stores_each_dirtied_block_once() {
        let plan = crate::FaultPlan::new();
        let backend = crate::fault::FaultingBackend::new(
            Box::new(crate::backend::MemoryBackend::new(64)),
            plan.clone(),
        );
        let d = Disk::with_backend(Box::new(backend), DiskConfig::with_block_size(64));
        let file = d.create_file().unwrap();
        d.allocate(file, 4).unwrap();
        let before = plan.writes_failed();
        // Fail the 4th backend write from here: the batch's three stores
        // pass, so it made no more than three.
        plan.fail_nth_write(4);
        d.write_back(|cursor| {
            for round in 0..5u8 {
                for block in [2, 0, 3] {
                    cursor.write(file, block, BlockKind::Leaf, &[round; 64])?;
                }
            }
            StorageResult::Ok(())
        })
        .unwrap();
        assert_eq!(plan.writes_failed(), before, "three stores, one per dirtied block");
        for block in [0, 2, 3] {
            assert_eq!(stored(&d, block), [4u8; 64], "block {block} holds the last write");
        }
        assert!(d.write(file, 1, BlockKind::Leaf, &[0; 64]).is_err(), "the 4th write fails");
    }

    #[test]
    fn a_write_back_batch_charges_a_block_at_its_first_write_only() {
        let d = disk();
        d.write_back(|cursor| {
            cursor.write(0, 3, BlockKind::Leaf, &[7u8; 64])?;
            let first = d.snapshot();
            assert_eq!((first.writes(), first.device_ns), (1, 10), "the first write charges");
            cursor.write(0, 3, BlockKind::Leaf, &[8u8; 64])?;
            cursor.write(0, 3, BlockKind::Leaf, &[9u8; 64])?;
            cursor.write(0, 0, BlockKind::Utility, &[9u8; 64])?;
            StorageResult::Ok(())
        })
        .unwrap();
        let s = d.snapshot();
        assert_eq!(s.writes_of(BlockKind::Leaf), 1, "rewrites and the store charge nothing");
        assert_eq!(s.writes_of(BlockKind::Utility), 1, "a first write charges its own kind");
        assert_eq!((s.writes(), s.device_ns), (2, 20));
        // Written through, the same batch charges every write.
        let through = disk();
        let mut cursor = through.cursor();
        for v in [7u8, 8, 9] {
            cursor.write(0, 3, BlockKind::Leaf, &[v; 64]).unwrap();
        }
        assert_eq!(through.snapshot().writes(), 3);
    }

    #[test]
    fn a_free_drops_the_dirty_copies_in_its_range() {
        let d = disk();
        d.write_back(|cursor| {
            for block in 0..4 {
                cursor.write(0, block, BlockKind::Leaf, &[9u8; 64])?;
            }
            cursor.free(0, 1, 2);
            // Freed and written again: a new first write, charged again.
            cursor.write(0, 2, BlockKind::Leaf, &[5u8; 64])?;
            StorageResult::Ok(())
        })
        .unwrap();
        let s = d.snapshot();
        assert_eq!((s.writes(), s.freed_blocks), (5, 2));
        let blocks: Vec<Vec<u8>> = (0..4).map(|b| stored(&d, b)).collect();
        assert_eq!(blocks, [[9u8; 64], [1u8; 64], [5u8; 64], [9u8; 64]], "block 1 never landed");
    }

    #[test]
    fn a_failed_batch_stores_what_it_dirtied_and_returns_its_own_error() {
        let d = disk();
        let failed: StorageResult<()> = d.write_back(|cursor| {
            cursor.write(0, 0, BlockKind::Leaf, &[6u8; 64])?;
            cursor.write(0, 1, BlockKind::Leaf, &[6u8; 3])?;
            unreachable!("a short buffer is refused")
        });
        assert!(matches!(failed, Err(crate::StorageError::BadBufferSize { got: 3, .. })));
        assert_eq!(stored(&d, 0), [6u8; 64], "the write before the error landed");
        assert_eq!(stored(&d, 1), [1u8; 64]);

        // A store that fails stops the flush: what follows it stays unwritten.
        let plan = crate::FaultPlan::new();
        let backend = crate::fault::FaultingBackend::new(
            Box::new(crate::backend::MemoryBackend::new(64)),
            plan.clone(),
        );
        let d = Disk::with_backend(Box::new(backend), DiskConfig::with_block_size(64));
        let file = d.create_file().unwrap();
        d.allocate(file, 3).unwrap();
        plan.fail_nth_write(2);
        let flushed: StorageResult<()> = d.write_back(|cursor| {
            for block in 0..3 {
                cursor.write(file, block, BlockKind::Leaf, &[3u8; 64])?;
            }
            Ok(())
        });
        assert!(flushed.is_err(), "the failed store is the batch's error");
        let blocks: Vec<Vec<u8>> = (0..3).map(|b| stored(&d, b)).collect();
        assert_eq!(blocks, [[3u8; 64], [0u8; 64], [0u8; 64]]);
    }
}

/// A [`BlockCursor`] walk costs exactly what plain disk reads of the same
/// sequence cost once every read that repeats the read before it (same
/// file, block and kind) is dropped. Driven by the same trace, walks through
/// a cursor on one disk — reads and writes, through a point or a scan
/// cursor — and plain `read_ref_hinted` / `write` calls on its twin, each
/// read under the class the cursor's kind rule gives it (a scan cursor reads
/// `Leaf` and `Utility` scan-class), with those repeats dropped, must leave the
/// whole [`OpStats`] and the pool residency identical after every single
/// step, and every read through the cursor must return the block's current
/// bytes, including what the walk itself just wrote.
#[cfg(test)]
mod twin {
    use crate::buffer::AccessClass;
    use crate::{BlockKind, DeviceModel, Disk, DiskConfig, OpStats, SeqHint};
    use proptest::prelude::*;

    const BLOCKS: u32 = 12;
    const BLOCK_SIZE: usize = 64;

    /// One step of a walk. A `None` block names the block the walk read last,
    /// so re-reads under another kind and writes of the held block are common.
    #[derive(Debug, Clone, Copy)]
    enum Access {
        /// A read, repeated `times` in a row (a slot-by-slot walk of one block).
        Read { block: Option<u32>, kind: BlockKind, hint: SeqHint, times: usize },
        /// A write through the cursor.
        Write { block: Option<u32>, kind: BlockKind, value: u8 },
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// A walk through a scan cursor (`true`) or a point cursor.
        Walk(bool, Vec<Access>),
        Write(u32, BlockKind, u8),
        Free(u32),
        ResetAccessState,
    }

    /// `Inner` is the memory-resident kind of the twin disks; `Meta` is a
    /// charged kind a scan cursor still reads point-class.
    fn kind() -> impl Strategy<Value = BlockKind> {
        prop_oneof![
            Just(BlockKind::Meta),
            Just(BlockKind::Inner),
            Just(BlockKind::Leaf),
            Just(BlockKind::Utility)
        ]
    }

    fn hint() -> impl Strategy<Value = SeqHint> {
        prop_oneof![Just(SeqHint::Auto), Just(SeqHint::Sequential), Just(SeqHint::Random)]
    }

    fn block() -> impl Strategy<Value = Option<u32>> {
        prop_oneof![(0..BLOCKS).prop_map(Some), (0..BLOCKS).prop_map(Some), Just(None)]
    }

    fn access() -> impl Strategy<Value = Access> {
        let read = || {
            (block(), kind(), hint(), 1usize..4)
                .prop_map(|(block, kind, hint, times)| Access::Read { block, kind, hint, times })
        };
        prop_oneof![
            read(),
            read(),
            (block(), kind(), any::<u8>()).prop_map(|(block, kind, value)| Access::Write {
                block,
                kind,
                value
            }),
        ]
    }

    fn step() -> impl Strategy<Value = Step> {
        let walk = || {
            (any::<bool>(), proptest::collection::vec(access(), 1..12))
                .prop_map(|(scan, accesses)| Step::Walk(scan, accesses))
        };
        prop_oneof![
            walk(),
            walk(),
            walk(),
            (0..BLOCKS, kind(), any::<u8>()).prop_map(|(b, k, v)| Step::Write(b, k, v)),
            (0..BLOCKS).prop_map(Step::Free),
            Just(Step::ResetAccessState),
        ]
    }

    fn twin(pool: usize, depth: usize) -> std::sync::Arc<Disk> {
        let disk = Disk::in_memory(
            DiskConfig::with_block_size(BLOCK_SIZE)
                .device(DeviceModel::custom("t", 100, 10, 7))
                .buffer_blocks(pool)
                .queue_depth(depth)
                .memory_resident(&[BlockKind::Inner]),
        );
        let file = disk.create_file().unwrap();
        assert_eq!(file, 0);
        disk.allocate(file, BLOCKS).unwrap();
        for b in 0..BLOCKS {
            disk.write(file, b, BlockKind::Leaf, &[b as u8; BLOCK_SIZE]).unwrap();
        }
        disk.stats().reset();
        disk.clear_buffer();
        disk.reset_access_state();
        disk
    }

    /// Every counter of `disk` and which blocks its pool holds.
    fn observed(disk: &Disk) -> (OpStats, Vec<bool>) {
        (disk.snapshot(), (0..BLOCKS).map(|b| disk.buffer_contains(0, b)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

        #[test]
        fn cursor_walks_and_plain_reads_cost_the_same_device_work(
            pool in 0usize..4,
            depth in prop_oneof![Just(1usize), Just(4usize)],
            steps in proptest::collection::vec(step(), 1..60),
        ) {
            let walked = twin(pool, depth);
            let plain = twin(pool, depth);
            let mut content: Vec<u8> = (0..BLOCKS as u8).collect();
            for (n, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Walk(scan, accesses) => {
                        let mut cursor = if scan { walked.scan_cursor() } else { walked.cursor() };
                        let class = |kind| match kind {
                            BlockKind::Leaf | BlockKind::Utility if scan => AccessClass::Scan,
                            _ => AccessClass::Point,
                        };
                        // The walk's last read: the plain twin drops a read that
                        // repeats it, and a `None` block names its block.
                        let mut last: Option<(u32, BlockKind)> = None;
                        for access in accesses {
                            match access {
                                Access::Read { block, kind, hint, times } => {
                                    let b = block.or(last.map(|(b, _)| b)).unwrap_or(0);
                                    for _ in 0..times {
                                        let a = cursor.read_hinted(0, b, kind, hint).unwrap();
                                        prop_assert_eq!(
                                            &a[..],
                                            &[content[b as usize]; BLOCK_SIZE][..],
                                            "step {}: block {} is stale",
                                            n,
                                            b
                                        );
                                        if last != Some((b, kind)) {
                                            plain.read_ref_hinted(0, b, kind, class(kind), hint).unwrap();
                                        }
                                        last = Some((b, kind));
                                        prop_assert_eq!(
                                            observed(&walked),
                                            observed(&plain),
                                            "step {}: read of {} as {:?} diverged",
                                            n,
                                            b,
                                            kind
                                        );
                                    }
                                }
                                Access::Write { block, kind, value } => {
                                    let b = block.or(last.map(|(b, _)| b)).unwrap_or(0);
                                    cursor.write(0, b, kind, &[value; BLOCK_SIZE]).unwrap();
                                    plain.write(0, b, kind, &[value; BLOCK_SIZE]).unwrap();
                                    content[b as usize] = value;
                                }
                            }
                        }
                    }
                    Step::Write(b, kind, v) => {
                        for disk in [&walked, &plain] {
                            disk.write(0, b, kind, &[v; BLOCK_SIZE]).unwrap();
                        }
                        content[b as usize] = v;
                    }
                    Step::Free(b) => {
                        for disk in [&walked, &plain] {
                            disk.free(0, b, 1);
                        }
                    }
                    Step::ResetAccessState => {
                        for disk in [&walked, &plain] {
                            disk.reset_access_state();
                        }
                    }
                }
                prop_assert_eq!(observed(&walked), observed(&plain), "step {}", n);
            }
        }
    }
}

/// A write-back batch ends where the same batch written through ends.
/// Driven by the same random reads, writes and frees, a write-back cursor
/// on one disk and a write-through cursor on its twin must, after the
/// flush, leave every live block with the same bytes on the device and in
/// the pool, the same pool residency, and write counts that differ only by
/// the rewrites: the write-back disk charges one write per block dirtied
/// (a block freed and written again is dirtied again). Every read through
/// the write-back cursor returns the batch's own latest write.
#[cfg(test)]
mod write_back_twin {
    use crate::{BlockKind, BlockRef, DeviceModel, Disk, DiskConfig};
    use proptest::prelude::*;

    const BLOCKS: u32 = 10;
    const BLOCK_SIZE: usize = 64;

    #[derive(Debug, Clone, Copy)]
    enum Step {
        Read(u32, BlockKind),
        Write(u32, BlockKind, u8),
        Free(u32, u32),
    }

    fn kind() -> impl Strategy<Value = BlockKind> {
        prop_oneof![Just(BlockKind::Inner), Just(BlockKind::Leaf), Just(BlockKind::Utility)]
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0..BLOCKS, kind()).prop_map(|(b, k)| Step::Read(b, k)),
            (0..BLOCKS, kind(), any::<u8>()).prop_map(|(b, k, v)| Step::Write(b, k, v)),
            (0..BLOCKS, kind(), any::<u8>()).prop_map(|(b, k, v)| Step::Write(b, k, v)),
            (0..BLOCKS, 1u32..3).prop_map(|(b, n)| Step::Free(b, n.min(BLOCKS - b))),
        ]
    }

    fn twin(pool: usize, depth: usize) -> std::sync::Arc<Disk> {
        let disk = Disk::in_memory(
            DiskConfig::with_block_size(BLOCK_SIZE)
                .device(DeviceModel::custom("t", 100, 10, 7))
                .buffer_blocks(pool)
                .queue_depth(depth),
        );
        let file = disk.create_file().unwrap();
        disk.allocate(file, BLOCKS).unwrap();
        for b in 0..BLOCKS {
            disk.write(file, b, BlockKind::Leaf, &[b as u8; BLOCK_SIZE]).unwrap();
        }
        disk.stats().reset();
        disk
    }

    /// The pooled frame of every block, without touching pool recency.
    fn pooled(disk: &Disk) -> Vec<Option<BlockRef>> {
        (0..BLOCKS)
            .map(|b| {
                disk.buffer_contains(0, b).then(|| disk.read_ref(0, b, BlockKind::Leaf).unwrap())
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

        #[test]
        fn a_write_back_batch_ends_where_the_same_batch_written_through_ends(
            pool in prop_oneof![Just(0usize), Just(BLOCKS as usize)],
            depth in prop_oneof![Just(1usize), Just(4usize)],
            steps in proptest::collection::vec(step(), 1..80),
        ) {
            let back = twin(pool, depth);
            let through = twin(pool, depth);
            let mut content: Vec<u8> = (0..BLOCKS as u8).collect();
            // A freed block's bytes mean nothing until it is written again.
            let mut live = vec![true; BLOCKS as usize];
            // The blocks dirtied since their last free, and how many times
            // a block was dirtied.
            let mut dirty = vec![false; BLOCKS as usize];
            let (mut dirtied, mut writes) = (0u64, 0u64);
            let mut written_through = through.cursor();
            back.write_back(|cursor| {
                for (n, &step) in steps.iter().enumerate() {
                    match step {
                        Step::Read(b, kind) => {
                            let read = cursor.read(0, b, kind)?.to_vec();
                            written_through.read(0, b, kind)?;
                            if live[b as usize] {
                                prop_assert_eq!(read, vec![content[b as usize]; BLOCK_SIZE], "step {}", n);
                            }
                        }
                        Step::Write(b, kind, v) => {
                            cursor.write(0, b, kind, &[v; BLOCK_SIZE])?;
                            written_through.write(0, b, kind, &[v; BLOCK_SIZE])?;
                            content[b as usize] = v;
                            live[b as usize] = true;
                            writes += 1;
                            if !std::mem::replace(&mut dirty[b as usize], true) {
                                dirtied += 1;
                            }
                        }
                        Step::Free(b, count) => {
                            cursor.free(0, b, count);
                            written_through.free(0, b, count);
                            for i in b..b + count {
                                live[i as usize] = false;
                                dirty[i as usize] = false;
                            }
                        }
                    }
                }
                Ok::<_, TestCaseError>(())
            })?;
            prop_assert_eq!(back.stats().writes(), dirtied, "one charged write per dirtied block");
            prop_assert_eq!(through.stats().writes(), writes);
            let (back_pool, through_pool) = (pooled(&back), pooled(&through));
            for b in 0..BLOCKS as usize {
                prop_assert_eq!(back_pool[b].is_some(), through_pool[b].is_some(), "residency of {}", b);
                if live[b] {
                    for frame in back_pool[b].iter().chain(&through_pool[b]) {
                        prop_assert_eq!(&frame[..], &[content[b]; BLOCK_SIZE][..], "pooled {}", b);
                    }
                    for disk in [&back, &through] {
                        disk.clear_buffer();
                        let stored = disk.cursor().read(0, b as u32, BlockKind::Leaf)?.to_vec();
                        prop_assert_eq!(stored, vec![content[b]; BLOCK_SIZE], "stored {}", b);
                    }
                }
            }
        }
    }

    /// A storage error fails the case.
    impl From<crate::StorageError> for TestCaseError {
        fn from(e: crate::StorageError) -> Self {
            TestCaseError::fail(e.to_string())
        }
    }
}
