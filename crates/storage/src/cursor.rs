//! [`BlockCursor`]: one read-only walk's hold on the last block it read.
//!
//! Several index walks read a node slot by slot, so consecutive reads often
//! name the block the walk read a moment ago: an exponential search inside
//! one slot block, a LIPP node's header and then its slots, a model-tree
//! node scanned leftwards. Each such re-read through [`Disk::read_ref`]
//! climbs the whole cache ladder only to end at the §6.5 reuse slot — a
//! `try_lock`, an `Arc` clone and drop, and two counter bumps.
//!
//! A cursor keeps the frame it read last. A read of the same `(file, block)`
//! as the same [`BlockKind`] right after returns that frame without touching
//! the disk. That is
//! exactly the read the disk's reuse slot would answer, so device reads,
//! device time, buffer-pool hits and pool recency stay the same as reading
//! through the disk each time. The re-read is not a request: it counts no
//! reuse hit, pinned frame or scan read. On a disk built with
//! [`DiskConfig::reuse_last_block`](crate::DiskConfig::reuse_last_block)
//! off, the cursor reads every block through, so every counter matches.
//!
//! A cursor is only for walks that do not write: a write between two reads
//! would leave it holding the old bytes. A walk that frees blocks calls
//! [`BlockCursor::release`] before each [`Disk::free`], as the free also
//! clears the disk's reuse slot.

use crate::buffer::{AccessClass, BlockRef};
use crate::disk::{Disk, FileId};
use crate::error::StorageResult;
use crate::stats::BlockKind;
use crate::BlockId;

/// The last frame one read-only walk pinned; see the [module docs](self).
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
/// assert_eq!(disk.stats().reuse_hits(), 0);
/// ```
pub struct BlockCursor<'d> {
    disk: &'d Disk,
    /// The block read last, with the kind it was read as: a memory-resident
    /// kind never enters the disk's reuse slot, so a frame read as one kind
    /// only answers re-reads of that kind.
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

    /// Reads one block, point-class (see [`BlockCursor::read_class`]).
    pub fn read(
        &mut self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
    ) -> StorageResult<&BlockRef> {
        self.read_class(file, block, kind, AccessClass::Point)
    }

    /// Reads one block under `class`: the held frame if it is the block read
    /// last (as the same kind), otherwise [`Disk::read_ref_class`], whose
    /// frame the cursor then holds instead.
    pub fn read_class(
        &mut self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
        class: AccessClass,
    ) -> StorageResult<&BlockRef> {
        let held = self.disk.reuses_last_block()
            && matches!(self.held, Some((f, b, k, _)) if (f, b, k) == (file, block, kind));
        if !held {
            // Drop the old frame first: if the read fails, nothing stale is
            // left to answer the next one.
            self.held = None;
            let frame = self.disk.read_ref_class(file, block, kind, class)?;
            self.held = Some((file, block, kind, frame));
        }
        Ok(&self.held.as_ref().expect("a frame was just read").3)
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
        assert_eq!(d.stats().reuse_hits(), 1, "after a release the disk answers the re-read");
    }

    #[test]
    fn a_failed_read_leaves_nothing_held() {
        let d = disk();
        let mut cursor = d.cursor();
        cursor.read(0, 3, BlockKind::Leaf).unwrap();
        assert!(cursor.read(0, 99, BlockKind::Leaf).is_err());
        cursor.read(0, 3, BlockKind::Leaf).unwrap();
        assert_eq!(d.stats().reuse_hits(), 1, "the re-read of block 3 went to the disk");
    }
}
