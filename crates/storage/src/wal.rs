//! Write-ahead log segments layered on a [`Disk`] utility file.
//!
//! A [`WalSegment`] turns one file of a [`Disk`] into an append-only log of
//! checksummed, length-prefixed records. Block 0 holds a small header
//! (`magic`, format version, `epoch`); records start at block 1 and form a
//! contiguous byte stream that spans block boundaries freely. Each record is
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [epoch: u64 LE] [payload: len bytes]
//! ```
//!
//! where `crc` is a CRC32 over `len || epoch || payload`. Replay walks the
//! stream from block 1 and stops cleanly at the first record whose length is
//! zero (never written), whose epoch does not match the header (leftover from
//! a previous, truncated incarnation of the log), whose CRC fails, or whose
//! containing block fails the [`BlockStamp`](crate::format::BlockStamp)
//! verification (a torn tail write). Everything before that point is a valid
//! prefix of what the writer appended.
//!
//! Appends use *group commit*: bytes accumulate in an in-memory tail block
//! that is written out only when it fills, at explicit [`WalSegment::sync`]
//! points, or on [`WalSegment::truncate`]. This keeps the WAL's write
//! amplification on the staging path far below one device write per logged
//! entry while still bounding the window of unsynced data to a single block.
//!
//! [`WalSegment::truncate`] retires all records by bumping the epoch and
//! rewriting the header; old blocks are reused in place, invalidated by the
//! epoch check rather than by zeroing.

use std::sync::Arc;

use crate::disk::Disk;
use crate::error::{StorageError, StorageResult};
use crate::format::{crc32, crc32_update};
use crate::stats::BlockKind;
use crate::{BlockId, FileId};

/// Magic tag stored in the first four bytes of a WAL header block.
pub const WAL_MAGIC: u32 = 0x6C61_776C; // "lwal" in LE byte order.

/// Bytes of framing in front of every record payload.
pub const WAL_RECORD_HEADER: usize = 16;

/// Blocks allocated at a time when the log grows.
const WAL_EXTENT: u32 = 8;

/// An append-only, checksummed log over one utility file of a [`Disk`].
///
/// All device traffic (header writes, tail flushes, replay reads) goes
/// through the owning disk as [`BlockKind::Utility`] accesses, so the WAL's
/// I/O cost shows up in [`IoStats`](crate::stats::IoStats) like any other
/// structure's.
pub struct WalSegment {
    disk: Arc<Disk>,
    file: FileId,
    epoch: u64,
    /// Blocks currently allocated in `file` (grown in `WAL_EXTENT` steps).
    allocated: u32,
    /// Block the in-memory tail buffer will be written to.
    tail_block: BlockId,
    /// Partially filled tail block (always `block_size` long).
    tail: Vec<u8>,
    /// Valid bytes at the front of `tail`.
    tail_len: usize,
    /// Whether `tail` holds bytes not yet written to the device.
    dirty: bool,
}

impl WalSegment {
    /// Creates a fresh log in a newly created file of `disk` at epoch 1.
    pub fn create(disk: &Arc<Disk>) -> StorageResult<Self> {
        let file = disk.create_file()?;
        let mut wal = WalSegment {
            disk: Arc::clone(disk),
            file,
            epoch: 1,
            allocated: 0,
            tail_block: 1,
            tail: vec![0u8; disk.block_size()],
            tail_len: 0,
            dirty: false,
        };
        wal.ensure_allocated(0)?;
        wal.write_header()?;
        Ok(wal)
    }

    /// Reopens the log stored in `file` of `disk` and replays it, returning
    /// the segment (positioned to append after the valid prefix) and the
    /// payloads of every intact record, in append order.
    ///
    /// A header that fails its block checksum is treated as the aftermath of
    /// a crash inside [`truncate`](Self::truncate) (the only time the header
    /// is rewritten after creation): the log's contents are already captured
    /// by the checkpoint that preceded the truncate, so the segment is reset
    /// to empty rather than failing the open. A header that verifies but
    /// carries the wrong magic, or a file without one, is not a log: the
    /// open fails and writes nothing. Replayed-entry counts are recorded in
    /// the disk's [`IoStats`](crate::stats::IoStats).
    pub fn open(disk: &Arc<Disk>, file: FileId) -> StorageResult<(Self, Vec<Vec<u8>>)> {
        let bs = disk.block_size();
        // The superblock's count for this file is the allocation at the
        // *last checkpoint*; the log legitimately grew past it between
        // checkpoints and those synced records must replay. Adopt the
        // physical size — every adopted block is validated by stamp, epoch
        // and record CRC before any byte of it is trusted.
        let allocated = disk.adopt_physical_size(file)?;
        let mut wal = WalSegment {
            disk: Arc::clone(disk),
            file,
            epoch: 1,
            allocated,
            tail_block: 1,
            tail: vec![0u8; bs],
            tail_len: 0,
            dirty: false,
        };
        let epoch = match wal.read_header() {
            Ok(epoch) => epoch,
            Err(StorageError::ChecksumMismatch { .. }) => {
                // Torn mid-truncate: the preceding checkpoint already owns
                // this log's contents. Old record blocks may carry unknown
                // epochs, so zero them before reusing the file.
                wal.reset_after_torn_header()?;
                return Ok((wal, Vec::new()));
            }
            Err(e) => return Err(e),
        };
        wal.epoch = epoch;
        let (payloads, pos) = wal.scan_records()?;
        // Position the tail over the byte right after the valid prefix so
        // new appends continue the stream (replay stays idempotent if the
        // process dies again before the next checkpoint truncates).
        wal.tail_block = 1 + (pos / bs) as u32;
        wal.tail_len = pos % bs;
        if wal.tail_len > 0 {
            // A fresh cursor: one shared with the replay could serve this
            // re-read of its last block for free, changing what an open costs.
            let mut cursor = disk.cursor();
            let buf = cursor.read(file, wal.tail_block, BlockKind::Utility)?;
            wal.tail[..wal.tail_len].copy_from_slice(&buf[..wal.tail_len]);
            wal.tail[wal.tail_len..].fill(0);
        }
        wal.disk.stats().record_replayed_entries(payloads.len() as u64);
        Ok((wal, payloads))
    }

    /// File id the log lives in (persist it to reopen the log later).
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Appends one record. The record is framed, checksummed, and buffered;
    /// it reaches the device when the tail block fills or at the next
    /// [`sync`](Self::sync). Returns the number of log bytes appended.
    pub fn append(&mut self, payload: &[u8]) -> StorageResult<usize> {
        let record = encode_record(self.epoch, payload);
        let mut off = 0;
        while off < record.len() {
            let bs = self.tail.len();
            let n = (bs - self.tail_len).min(record.len() - off);
            self.tail[self.tail_len..self.tail_len + n].copy_from_slice(&record[off..off + n]);
            self.tail_len += n;
            off += n;
            if self.tail_len == bs {
                self.flush_tail(true)?;
            }
        }
        self.dirty = true;
        self.disk.stats().record_wal_append(record.len() as u64);
        Ok(record.len())
    }

    /// Forces every buffered byte to the device and ends in the log file's
    /// sync barrier. After a successful sync all previously appended records
    /// survive a crash (up to torn-write faults, which replay detects and
    /// trims).
    pub fn sync(&mut self) -> StorageResult<()> {
        if self.dirty {
            // A group-commit boundary: everything staged since the last sync
            // is forced out here, so this span is the WAL-sync pause a
            // writer's tail latency sees. (Clone the Arc: the span must not
            // hold a borrow of `self` across the mutable flush.)
            let disk = Arc::clone(&self.disk);
            let _span = disk.telemetry().span(lidx_telemetry::OpClass::WalSync);
            if self.tail_len > 0 {
                self.flush_tail(false)?;
            }
            disk.sync(self.file)?;
            self.dirty = false;
            disk.stats().record_wal_sync();
        }
        Ok(())
    }

    /// Retires every record by bumping the epoch and rewriting the header.
    /// Old blocks are reused in place; the epoch check invalidates their
    /// contents during replay. Call only once the logged state is owned by a
    /// durable checkpoint.
    pub fn truncate(&mut self) -> StorageResult<()> {
        self.epoch += 1;
        self.write_header()?;
        self.tail_block = 1;
        self.tail.fill(0);
        self.tail_len = 0;
        self.dirty = false;
        Ok(())
    }

    fn write_header(&mut self) -> StorageResult<()> {
        let mut buf = vec![0u8; self.tail.len()];
        buf[0..4].copy_from_slice(&WAL_MAGIC.to_le_bytes());
        buf[4..8].copy_from_slice(&crate::format::FORMAT_VERSION.to_le_bytes());
        buf[8..16].copy_from_slice(&self.epoch.to_le_bytes());
        self.ensure_allocated(0)?;
        self.disk.write(self.file, 0, BlockKind::Utility, &buf)
    }

    fn read_header(&self) -> StorageResult<u64> {
        let mut cursor = self.disk.cursor();
        let buf = cursor.read(self.file, 0, BlockKind::Utility)?;
        let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if magic != WAL_MAGIC {
            return Err(StorageError::Corrupt(format!(
                "WAL header of file {} has magic {magic:#x}, expected {WAL_MAGIC:#x}",
                self.file
            )));
        }
        Ok(u64::from_le_bytes(buf[8..16].try_into().unwrap()))
    }

    /// Zeroes every record block and restarts the log at epoch 1. Used when
    /// the header itself is unreadable: old records carry unknown epochs, so
    /// the epoch guard alone cannot invalidate them.
    fn reset_after_torn_header(&mut self) -> StorageResult<()> {
        let zeros = vec![0u8; self.tail.len()];
        for block in 1..self.allocated {
            self.disk.write(self.file, block, BlockKind::Utility, &zeros)?;
        }
        self.epoch = 1;
        self.tail_block = 1;
        self.tail.fill(0);
        self.tail_len = 0;
        self.dirty = false;
        self.write_header()
    }

    /// Reads the whole record region, stopping early at a torn block, and
    /// decodes the valid record prefix. Returns the payloads plus the byte
    /// offset (from the start of block 1) where appends should resume.
    fn scan_records(&self) -> StorageResult<(Vec<Vec<u8>>, usize)> {
        let bs = self.tail.len();
        let mut region = Vec::with_capacity((self.allocated.saturating_sub(1)) as usize * bs);
        let mut cursor = self.disk.cursor();
        for block in 1..self.allocated {
            match cursor.read(self.file, block, BlockKind::Utility) {
                Ok(buf) => region.extend_from_slice(buf),
                // A torn tail flush: the stamp is stale, the block contents
                // are partial. Everything decoded so far is still a valid
                // prefix; stop reading here.
                Err(StorageError::ChecksumMismatch { .. }) => break,
                Err(e) => return Err(e),
            }
        }
        let mut payloads = Vec::new();
        let mut pos = 0usize;
        loop {
            match decode_record(&region[pos..], self.epoch, self.file, 1 + (pos / bs) as u32) {
                Ok(Some((payload, consumed))) => {
                    payloads.push(payload);
                    pos += consumed;
                }
                // Clean end of log (zero length, old epoch, or short data).
                Ok(None) => break,
                // Torn or bit-flipped record: trim the log here.
                Err(StorageError::ChecksumMismatch { .. }) => break,
                Err(e) => return Err(e),
            }
        }
        Ok((payloads, pos))
    }

    fn flush_tail(&mut self, advance: bool) -> StorageResult<()> {
        self.ensure_allocated(self.tail_block)?;
        self.disk.write(self.file, self.tail_block, BlockKind::Utility, &self.tail)?;
        if advance {
            self.tail_block += 1;
            self.tail.fill(0);
            self.tail_len = 0;
        }
        Ok(())
    }

    fn ensure_allocated(&mut self, block: BlockId) -> StorageResult<()> {
        while block >= self.allocated {
            let start = self.disk.allocate(self.file, WAL_EXTENT)?;
            self.allocated = self.allocated.max(start + WAL_EXTENT);
        }
        Ok(())
    }
}

impl std::fmt::Debug for WalSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalSegment")
            .field("file", &self.file)
            .field("epoch", &self.epoch)
            .field("tail_block", &self.tail_block)
            .field("tail_len", &self.tail_len)
            .finish()
    }
}

/// Frames `payload` as one WAL record at `epoch`.
pub fn encode_record(epoch: u64, payload: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(WAL_RECORD_HEADER + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&[0u8; 4]); // CRC placeholder.
    record.extend_from_slice(&epoch.to_le_bytes());
    record.extend_from_slice(payload);
    let crc = record_crc(&record);
    record[4..8].copy_from_slice(&crc.to_le_bytes());
    record
}

/// CRC32 over `len || epoch || payload` — everything except the CRC field.
fn record_crc(record: &[u8]) -> u32 {
    crc32_update(crc32(&record[0..4]), &record[8..])
}

/// Decodes the record at the front of `buf`.
///
/// Returns `Ok(Some((payload, consumed_bytes)))` for an intact record at the
/// expected `epoch`, `Ok(None)` for a clean end of log (fewer than
/// [`WAL_RECORD_HEADER`] bytes left, a zero length field, a stale epoch, or
/// a length running past the buffer — all states a crash can legitimately
/// leave behind), and `Err(ChecksumMismatch)` when the framing is intact but
/// the CRC fails: the record was torn or corrupted and the log must be
/// trimmed at this point. `file` and `block` only label the error. Never
/// panics, whatever the bytes.
pub fn decode_record(
    buf: &[u8],
    epoch: u64,
    file: FileId,
    block: BlockId,
) -> StorageResult<Option<(Vec<u8>, usize)>> {
    if buf.len() < WAL_RECORD_HEADER {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let rec_epoch = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    if len == 0 || rec_epoch != epoch {
        return Ok(None);
    }
    let total = WAL_RECORD_HEADER + len;
    if total > buf.len() {
        return Ok(None);
    }
    if record_crc(&buf[..total]) != crc {
        return Err(StorageError::ChecksumMismatch { file, block });
    }
    Ok(Some((buf[WAL_RECORD_HEADER..total].to_vec(), total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use crate::disk::{Disk, DiskConfig, DurableMode};
    use crate::fault::FaultPlan;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lidx-wal-{tag}-{}", std::process::id()))
    }

    fn create(dir: &std::path::Path, config: DiskConfig, plan: Option<FaultPlan>) -> Arc<Disk> {
        Disk::open_durable(dir, config, plan, DurableMode::Create).unwrap().0
    }

    fn reopen(dir: &std::path::Path, config: DiskConfig, plan: Option<FaultPlan>) -> Arc<Disk> {
        Disk::open_durable(dir, config, plan, DurableMode::Open).unwrap().0
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("record-{i}-{}", "x".repeat(i * 7 % 60)).into_bytes()).collect()
    }

    #[test]
    fn append_sync_reopen_round_trips() {
        let dir = tempdir("roundtrip");
        let want = payloads(40);
        let file;
        {
            let disk = create(&dir, DiskConfig::default(), None);
            let mut wal = WalSegment::create(&disk).unwrap();
            file = wal.file();
            for p in &want {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
            assert!(disk.stats().wal_appends() >= want.len() as u64);
            assert!(disk.stats().wal_bytes() > 0);
            disk.persist(&[], false).unwrap();
        }
        let disk = reopen(&dir, DiskConfig::default(), None);
        let (mut wal, got) = WalSegment::open(&disk, file).unwrap();
        assert_eq!(got, want);
        assert_eq!(disk.stats().replayed_entries(), want.len() as u64);

        // The reopened segment keeps appending after the valid prefix.
        wal.append(b"after-reopen").unwrap();
        wal.sync().unwrap();
        disk.persist(&[], false).unwrap();
        drop(wal);
        let disk = reopen(&dir, DiskConfig::default(), None);
        let (_wal, got) = WalSegment::open(&disk, file).unwrap();
        assert_eq!(got.len(), want.len() + 1);
        assert_eq!(got.last().unwrap(), b"after-reopen");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What a reopen reads, pinned: the header, every allocated record
    /// block, then the partly filled tail block once more, which is a
    /// device read on a pool-0 disk and a pool hit on a pooled one.
    #[test]
    fn reopen_cost_is_pinned() {
        // Random reads 100 ns, writes 10 ns, sequential reads 7 ns.
        let device = DeviceModel::custom("t", 100, 10, 7);
        // Five 56-byte records fill blocks 1 and 2 and 24 bytes of block 3;
        // the log holds one 8-block extent.
        let want: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 40]).collect();
        // Header (random), blocks 1-7 (sequential), tail block 3 (random).
        for (pool, reads, device_ns) in [(0, 9, 100 + 7 * 7 + 100), (64, 8, 100 + 7 * 7)] {
            let dir = tempdir(&format!("open-cost-{pool}"));
            let config = DiskConfig::with_block_size(128).device(device).buffer_blocks(pool);
            let file = {
                let disk = create(&dir, config, None);
                let mut wal = WalSegment::create(&disk).unwrap();
                for p in &want {
                    wal.append(p).unwrap();
                }
                wal.sync().unwrap();
                disk.persist(&[], false).unwrap();
                wal.file()
            };
            let disk = reopen(&dir, config, None);
            disk.stats().reset();
            let (wal, got) = WalSegment::open(&disk, file).unwrap();
            assert_eq!(got, want, "pool {pool}");
            assert_eq!((wal.tail_block, wal.tail_len), (3, 24), "pool {pool}");
            assert_eq!(&wal.tail[..24], &encode_record(1, &want[4])[32..], "pool {pool}");
            let s = disk.snapshot();
            assert_eq!((s.reads(), s.device_ns), (reads, device_ns), "pool {pool}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn truncate_retires_records_via_epoch() {
        let dir = tempdir("truncate");
        let disk = create(&dir, DiskConfig::default(), None);
        let mut wal = WalSegment::create(&disk).unwrap();
        let file = wal.file();
        wal.append(b"old-1").unwrap();
        wal.append(b"old-2").unwrap();
        wal.sync().unwrap();
        wal.truncate().unwrap();
        wal.append(b"new-1").unwrap();
        wal.sync().unwrap();
        disk.persist(&[], false).unwrap();
        drop(wal);
        drop(disk);

        let disk = reopen(&dir, DiskConfig::default(), None);
        let (_wal, got) = WalSegment::open(&disk, file).unwrap();
        assert_eq!(got, vec![b"new-1".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_write_trims_to_valid_prefix() {
        let dir = tempdir("torn-tail");
        let plan = FaultPlan::new();
        let disk = create(&dir, DiskConfig::default(), Some(plan.clone()));
        let mut wal = WalSegment::create(&disk).unwrap();
        let file = wal.file();
        wal.append(b"survives").unwrap();
        wal.sync().unwrap();
        disk.persist(&[], false).unwrap();

        wal.append(b"torn-away").unwrap();
        plan.tear_nth_write(1, 3);
        assert!(wal.sync().is_err());
        plan.clear();
        drop(wal);
        drop(disk);

        let disk = reopen(&dir, DiskConfig::default(), Some(FaultPlan::new()));
        let (_wal, got) = WalSegment::open(&disk, file).unwrap();
        assert_eq!(got, vec![b"survives".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_sees_records_past_the_checkpoint_time_allocation() {
        // Regression: the superblock's per-file counts are authoritative on
        // reopen, but the WAL grows *between* checkpoints — synced records
        // in post-checkpoint extents must replay. Persist the superblock
        // while the log is small, then append far past the recorded
        // allocation before the kill.
        let dir = tempdir("grown-tail");
        let disk = create(&dir, DiskConfig::with_block_size(256), None);
        let mut wal = WalSegment::create(&disk).unwrap();
        let file = wal.file();
        disk.persist(b"checkpoint-before-growth", false).unwrap();
        let recorded = disk.num_blocks(file).unwrap();
        // Each record is 16 + 100 bytes; push well past the recorded extent.
        let want: Vec<Vec<u8>> = (0..200u8).map(|i| vec![i; 100]).collect();
        for p in &want {
            wal.append(p).unwrap();
        }
        wal.sync().unwrap();
        assert!(
            disk.num_blocks(file).unwrap() > recorded,
            "the log must have outgrown its checkpointed allocation"
        );
        drop(wal);
        drop(disk);

        let disk = reopen(&dir, DiskConfig::with_block_size(256), None);
        let (_wal, got) = WalSegment::open(&disk, file).unwrap();
        assert_eq!(got, want, "every synced record replays, including the grown tail");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_span_block_boundaries() {
        let dir = tempdir("spanning");
        let config = DiskConfig::default();
        let disk = create(&dir, config, None);
        let bs = disk.block_size();
        let mut wal = WalSegment::create(&disk).unwrap();
        let file = wal.file();
        // Each record covers multiple blocks; several block-fill flushes
        // happen inside a single append.
        let want: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; bs * 2 + 37 * i as usize]).collect();
        for p in &want {
            wal.append(p).unwrap();
        }
        wal.sync().unwrap();
        disk.persist(&[], false).unwrap();
        drop(wal);
        drop(disk);
        let disk = reopen(&dir, config, None);
        let (_wal, got) = WalSegment::open(&disk, file).unwrap();
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_record_flags_corruption_without_panicking() {
        let record = encode_record(7, b"payload-bytes");
        let (payload, consumed) = decode_record(&record, 7, 0, 1).unwrap().unwrap();
        assert_eq!(payload, b"payload-bytes");
        assert_eq!(consumed, record.len());

        // Stale epoch and zero length are clean end-of-log states.
        assert!(decode_record(&record, 8, 0, 1).unwrap().is_none());
        assert!(decode_record(&[0u8; 64], 7, 0, 1).unwrap().is_none());

        // A payload flip is a hard checksum error.
        let mut torn = record.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0x40;
        assert!(matches!(
            decode_record(&torn, 7, 0, 1),
            Err(StorageError::ChecksumMismatch { .. })
        ));
    }
}
