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
//! through its one cursor. [`BlockCursor::write`] writes through the disk
//! and, when the cursor holds the written block, replaces the held frame
//! with the new bytes, so the next read of that block returns what was just
//! written, still without a device read. A write that bypassed the cursor
//! would leave it holding the old bytes. A walk that frees blocks calls
//! [`BlockCursor::release`] before each [`Disk::free`].
//!
//! So a walk through a cursor costs exactly what plain disk reads of the
//! same sequence cost once each read that repeats the read before it
//! (same file, block and kind) is dropped.

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
/// ```
pub struct BlockCursor<'d> {
    disk: &'d Disk,
    /// The block read last, with the kind it was read as: a frame read as
    /// one kind only answers re-reads of that kind, so a memory-resident
    /// read never stands in for a charged one.
    held: Option<(FileId, BlockId, BlockKind, BlockRef)>,
}

impl<'d> BlockCursor<'d> {
    /// An empty cursor over `disk` ([`Disk::cursor`]): its first read goes
    /// to the disk.
    pub(crate) fn new(disk: &'d Disk) -> Self {
        BlockCursor { disk, held: None }
    }

    /// The disk this cursor reads from.
    pub fn disk(&self) -> &'d Disk {
        self.disk
    }

    /// Reads one block, point-class (see [`BlockCursor::read_hinted`]).
    pub fn read(
        &mut self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
    ) -> StorageResult<&BlockRef> {
        self.read_hinted(file, block, kind, AccessClass::Point, SeqHint::Auto)
    }

    /// Reads one block under `class` (see [`BlockCursor::read_hinted`]).
    pub fn read_class(
        &mut self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
        class: AccessClass,
    ) -> StorageResult<&BlockRef> {
        self.read_hinted(file, block, kind, class, SeqHint::Auto)
    }

    /// Reads one block under `class` with a sequential-cost `hint`: the held
    /// frame if it is the block read last (as the same kind), otherwise
    /// [`Disk::read_ref_hinted`], whose frame the cursor then holds instead.
    pub fn read_hinted(
        &mut self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
        class: AccessClass,
        hint: SeqHint,
    ) -> StorageResult<&BlockRef> {
        if !matches!(self.held, Some((f, b, k, _)) if (f, b, k) == (file, block, kind)) {
            // Drop the old frame first: if the read fails, nothing stale is
            // left to answer the next one.
            self.held = None;
            let frame = self.disk.read_ref_hinted(file, block, kind, class, hint)?;
            self.held = Some((file, block, kind, frame));
        }
        Ok(&self.held.as_ref().expect("a frame was just read").3)
    }

    /// Writes one block through the disk ([`Disk::write`]). If the cursor
    /// holds that block, the held frame becomes `data`, so the next read of
    /// the block returns it without a device read.
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
        self.disk.write(file, block, kind, data)?;
        if let Some(k) = kept {
            self.held = Some((file, block, k, BlockRef::from_vec(data.to_vec())));
        }
        Ok(())
    }

    /// Drops the held frame, so the next read goes to the disk.
    pub fn release(&mut self) {
        self.held = None;
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
        let mut cursor = d.cursor();
        let first = cursor.read(0, 2, BlockKind::Leaf).unwrap().clone();
        let again = cursor.read_class(0, 2, BlockKind::Leaf, AccessClass::Scan).unwrap();
        assert_eq!(&again[..], &[2u8; 64]);
        assert!(std::ptr::eq(first.as_slice(), again.as_slice()), "the held frame, not a new one");
        let s = d.snapshot();
        assert_eq!((s.reads(), s.device_ns), (1, 100));
        assert_eq!((s.reuse_hits, s.frames_pinned, s.scan_reads), (0, 1, 0));
    }

    #[test]
    fn only_the_block_read_last_is_held() {
        let d = disk();
        let mut cursor = d.cursor();
        for b in [0, 1, 0] {
            cursor.read(0, b, BlockKind::Leaf).unwrap();
        }
        assert_eq!(d.stats().reads(), 3, "block 0 was no longer held when read again");
        cursor.release();
        cursor.read(0, 0, BlockKind::Leaf).unwrap();
        let s = d.snapshot();
        assert_eq!(s.reads(), 4, "after a release the re-read goes to the device");
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
}
