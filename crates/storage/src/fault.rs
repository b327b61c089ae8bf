//! Fault injection: a [`FaultPlan`] of scheduled I/O failures and the
//! [`FaultingBackend`] wrapper that executes it.
//!
//! The plan is a cheap, clonable handle (an `Arc` around atomic state) so a
//! test can keep one copy, hand another to the backend, and arm faults while
//! the workload runs. Four block-level faults are supported — fail the Nth
//! write outright, tear the Nth write after `k` bytes, flip one bit of the
//! Nth read, and a burst of transient `EIO`s on reads — plus one
//! checkpoint-level fault (tear the next superblock slot write) that
//! [`Disk::persist`](crate::Disk::persist) consults directly, since the
//! superblock intentionally lives outside the block backend.
//!
//! Failed and torn writes simulate a crash at that write: the wrapper
//! returns a typed error and, for tears, leaves the block prefix actually
//! written (the stamp is *not* updated, so a verified read of the torn block
//! reports [`StorageError::ChecksumMismatch`]). Transient read errors are
//! meant to be retried; the [`Disk`](crate::Disk) read path does so with
//! bounded backoff, counting each retry in
//! [`IoStats::io_retries`](crate::IoStats::io_retries).
//! The plan also logs every sync [`Barrier`] of the wrapper and of
//! [`Disk::persist`](crate::Disk::persist), in order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::StorageBackend;
use crate::error::{StorageError, StorageResult};
use crate::BlockId;

const DISARMED: u64 = u64::MAX;

#[derive(Debug)]
struct FaultState {
    writes_seen: AtomicU64,
    reads_seen: AtomicU64,
    /// Write ordinal (1-based) that fails outright; `DISARMED` when unarmed.
    fail_write_at: AtomicU64,
    /// Write ordinal (1-based) that tears; `DISARMED` when unarmed.
    tear_write_at: AtomicU64,
    /// Bytes of the torn write that reach the device.
    tear_keep_bytes: AtomicU64,
    /// Read ordinal (1-based) whose returned buffer gets one bit flipped.
    flip_read_at: AtomicU64,
    /// Which bit of the returned buffer to flip.
    flip_bit: AtomicU64,
    /// Remaining reads that fail with a transient EIO before succeeding.
    transient_reads: AtomicU64,
    /// Bytes of the next superblock slot write that reach the disk;
    /// `DISARMED` when unarmed.
    tear_superblock_keep: AtomicU64,
    writes_failed: AtomicU64,
    writes_torn: AtomicU64,
    reads_flipped: AtomicU64,
    transients_served: AtomicU64,
    barriers: Mutex<Vec<Barrier>>,
}

/// One sync barrier logged by a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Barrier {
    /// Every earlier write to this file is on the device.
    File(u32),
    /// A superblock slot naming the synced files is on the device.
    Superblock,
}

/// A clonable schedule of injected faults (see module docs).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    state: Arc<FaultState>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultPlan {
    /// Creates a plan with no faults armed.
    pub fn new() -> FaultPlan {
        FaultPlan {
            state: Arc::new(FaultState {
                writes_seen: AtomicU64::new(0),
                reads_seen: AtomicU64::new(0),
                fail_write_at: AtomicU64::new(DISARMED),
                tear_write_at: AtomicU64::new(DISARMED),
                tear_keep_bytes: AtomicU64::new(0),
                flip_read_at: AtomicU64::new(DISARMED),
                flip_bit: AtomicU64::new(0),
                transient_reads: AtomicU64::new(0),
                tear_superblock_keep: AtomicU64::new(DISARMED),
                writes_failed: AtomicU64::new(0),
                writes_torn: AtomicU64::new(0),
                reads_flipped: AtomicU64::new(0),
                transients_served: AtomicU64::new(0),
                barriers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Arms a hard failure of the `n`th block write *from now* (1-based:
    /// `1` fails the very next write).
    pub fn fail_nth_write(&self, n: u64) {
        assert!(n >= 1, "write ordinals are 1-based");
        let base = self.state.writes_seen.load(Ordering::SeqCst);
        self.state.fail_write_at.store(base + n, Ordering::SeqCst);
    }

    /// Arms a torn write: the `n`th block write from now persists only its
    /// first `keep_bytes` bytes and then reports a crash.
    pub fn tear_nth_write(&self, n: u64, keep_bytes: usize) {
        assert!(n >= 1, "write ordinals are 1-based");
        let base = self.state.writes_seen.load(Ordering::SeqCst);
        self.state.tear_keep_bytes.store(keep_bytes as u64, Ordering::SeqCst);
        self.state.tear_write_at.store(base + n, Ordering::SeqCst);
    }

    /// Arms a single-bit flip of the `n`th block read from now.
    pub fn flip_read_bit(&self, n: u64, bit: u32) {
        assert!(n >= 1, "read ordinals are 1-based");
        let base = self.state.reads_seen.load(Ordering::SeqCst);
        self.state.flip_bit.store(bit as u64, Ordering::SeqCst);
        self.state.flip_read_at.store(base + n, Ordering::SeqCst);
    }

    /// Arms `count` consecutive transient `EIO`s on reads; each retried
    /// read consumes one.
    pub fn transient_read_errors(&self, count: u64) {
        self.state.transient_reads.store(count, Ordering::SeqCst);
    }

    /// Arms a tear of the next superblock slot write after `keep_bytes`.
    pub fn tear_next_superblock(&self, keep_bytes: usize) {
        self.state.tear_superblock_keep.store(keep_bytes as u64, Ordering::SeqCst);
    }

    /// Consumes the armed superblock tear, if any (called by
    /// [`Disk::persist`](crate::Disk::persist)).
    pub fn take_superblock_tear(&self) -> Option<usize> {
        let v = self.state.tear_superblock_keep.swap(DISARMED, Ordering::SeqCst);
        (v != DISARMED).then_some(v as usize)
    }

    /// Every barrier logged so far, oldest first.
    pub fn barriers(&self) -> Vec<Barrier> {
        self.state.barriers.lock().clone()
    }

    pub(crate) fn log_barrier(&self, barrier: Barrier) {
        self.state.barriers.lock().push(barrier);
    }

    /// Disarms every pending fault (fault counters and barriers are kept).
    pub fn clear(&self) {
        self.state.fail_write_at.store(DISARMED, Ordering::SeqCst);
        self.state.tear_write_at.store(DISARMED, Ordering::SeqCst);
        self.state.flip_read_at.store(DISARMED, Ordering::SeqCst);
        self.state.transient_reads.store(0, Ordering::SeqCst);
        self.state.tear_superblock_keep.store(DISARMED, Ordering::SeqCst);
    }

    /// Number of writes failed outright so far.
    pub fn writes_failed(&self) -> u64 {
        self.state.writes_failed.load(Ordering::SeqCst)
    }

    /// Number of writes torn so far.
    pub fn writes_torn(&self) -> u64 {
        self.state.writes_torn.load(Ordering::SeqCst)
    }

    /// Number of reads bit-flipped so far.
    pub fn reads_flipped(&self) -> u64 {
        self.state.reads_flipped.load(Ordering::SeqCst)
    }

    /// Number of transient read errors served so far.
    pub fn transients_served(&self) -> u64 {
        self.state.transients_served.load(Ordering::SeqCst)
    }

    fn before_write(&self, data: &[u8]) -> StorageResult<Option<usize>> {
        let ord = self.state.writes_seen.fetch_add(1, Ordering::SeqCst) + 1;
        if ord == self.state.fail_write_at.load(Ordering::SeqCst) {
            self.state.writes_failed.fetch_add(1, Ordering::SeqCst);
            return Err(StorageError::Io(std::io::Error::other(format!(
                "fault plan: write {ord} failed"
            ))));
        }
        if ord == self.state.tear_write_at.load(Ordering::SeqCst) {
            self.state.writes_torn.fetch_add(1, Ordering::SeqCst);
            let keep = self.state.tear_keep_bytes.load(Ordering::SeqCst) as usize;
            return Ok(Some(keep.min(data.len())));
        }
        Ok(None)
    }

    fn after_read(&self, buf: &mut [u8]) -> StorageResult<()> {
        // Transient errors are served before the read ordinal advances, so
        // the eventual successful retry is the flippable/observable read.
        loop {
            let remaining = self.state.transient_reads.load(Ordering::SeqCst);
            if remaining == 0 {
                break;
            }
            if self
                .state
                .transient_reads
                .compare_exchange(remaining, remaining - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.state.transients_served.fetch_add(1, Ordering::SeqCst);
                return Err(StorageError::Transient("fault plan: injected EIO".into()));
            }
        }
        let ord = self.state.reads_seen.fetch_add(1, Ordering::SeqCst) + 1;
        if ord == self.state.flip_read_at.load(Ordering::SeqCst) {
            let bit = self.state.flip_bit.load(Ordering::SeqCst) as usize;
            let byte = (bit / 8) % buf.len().max(1);
            if !buf.is_empty() {
                buf[byte] ^= 1 << (bit % 8);
                self.state.reads_flipped.fetch_add(1, Ordering::SeqCst);
            }
        }
        Ok(())
    }
}

/// A [`StorageBackend`] wrapper that executes a [`FaultPlan`].
pub struct FaultingBackend {
    inner: Box<dyn StorageBackend>,
    plan: FaultPlan,
}

impl FaultingBackend {
    /// Wraps `inner`, injecting the faults scheduled on `plan`.
    pub fn new(inner: Box<dyn StorageBackend>, plan: FaultPlan) -> FaultingBackend {
        FaultingBackend { inner, plan }
    }
}

impl StorageBackend for FaultingBackend {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn create_file(&self) -> StorageResult<u32> {
        self.inner.create_file()
    }

    fn num_blocks(&self, file: u32) -> StorageResult<u32> {
        self.inner.num_blocks(file)
    }

    fn adopt_physical_size(&self, file: u32) -> StorageResult<u32> {
        // Structural, not a block I/O: consumes no fault ordinals.
        self.inner.adopt_physical_size(file)
    }

    fn extend(&self, file: u32, blocks: u32) -> StorageResult<u32> {
        self.inner.extend(file, blocks)
    }

    fn read_block(&self, file: u32, block: BlockId, buf: &mut [u8]) -> StorageResult<()> {
        self.inner.read_block(file, block, buf)?;
        self.plan.after_read(buf)
    }

    fn write_block(&self, file: u32, block: BlockId, data: &[u8]) -> StorageResult<()> {
        match self.plan.before_write(data)? {
            None => self.inner.write_block(file, block, data),
            Some(keep) => {
                // Persist the torn prefix over the block's current contents,
                // then report the crash. The stamp is left stale on purpose.
                let mut current = vec![0u8; self.inner.block_size()];
                self.inner.read_block(file, block, &mut current)?;
                current[..keep].copy_from_slice(&data[..keep]);
                self.inner.write_block(file, block, &current)?;
                Err(StorageError::Io(std::io::Error::other(format!(
                    "fault plan: write torn after {keep} bytes"
                ))))
            }
        }
    }

    fn write_stamp(&self, file: u32, block: BlockId, stamp: &[u8]) -> StorageResult<()> {
        self.inner.write_stamp(file, block, stamp)
    }

    fn read_stamp(&self, file: u32, block: BlockId) -> StorageResult<Option<Vec<u8>>> {
        self.inner.read_stamp(file, block)
    }

    fn num_files(&self) -> u32 {
        self.inner.num_files()
    }

    fn sync(&self, file: u32) -> StorageResult<()> {
        self.inner.sync(file)?;
        self.plan.log_barrier(Barrier::File(file));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;

    fn backend() -> (FaultingBackend, FaultPlan) {
        let plan = FaultPlan::new();
        let b = FaultingBackend::new(Box::new(MemoryBackend::new(64)), plan.clone());
        (b, plan)
    }

    #[test]
    fn nth_write_fails_and_later_writes_succeed() {
        let (b, plan) = backend();
        let f = b.create_file().unwrap();
        b.extend(f, 4).unwrap();
        plan.fail_nth_write(2);
        b.write_block(f, 0, &[1u8; 64]).unwrap();
        assert!(b.write_block(f, 1, &[2u8; 64]).is_err());
        b.write_block(f, 2, &[3u8; 64]).unwrap();
        assert_eq!(plan.writes_failed(), 1);
    }

    #[test]
    fn torn_write_persists_only_the_prefix() {
        let (b, plan) = backend();
        let f = b.create_file().unwrap();
        b.extend(f, 1).unwrap();
        b.write_block(f, 0, &[0xAAu8; 64]).unwrap();
        plan.tear_nth_write(1, 10);
        assert!(b.write_block(f, 0, &[0xBBu8; 64]).is_err());
        let mut buf = [0u8; 64];
        b.read_block(f, 0, &mut buf).unwrap();
        assert_eq!(&buf[..10], &[0xBBu8; 10]);
        assert_eq!(&buf[10..], &[0xAAu8; 54]);
        assert_eq!(plan.writes_torn(), 1);
    }

    #[test]
    fn transient_reads_fail_then_recover() {
        let (b, plan) = backend();
        let f = b.create_file().unwrap();
        b.extend(f, 1).unwrap();
        b.write_block(f, 0, &[7u8; 64]).unwrap();
        plan.transient_read_errors(2);
        let mut buf = [0u8; 64];
        assert!(matches!(b.read_block(f, 0, &mut buf), Err(StorageError::Transient(_))));
        assert!(matches!(b.read_block(f, 0, &mut buf), Err(StorageError::Transient(_))));
        b.read_block(f, 0, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
        assert_eq!(plan.transients_served(), 2);
    }

    #[test]
    fn read_bit_flip_corrupts_exactly_one_bit() {
        let (b, plan) = backend();
        let f = b.create_file().unwrap();
        b.extend(f, 1).unwrap();
        b.write_block(f, 0, &[0u8; 64]).unwrap();
        plan.flip_read_bit(1, 8 * 5 + 3);
        let mut buf = [0u8; 64];
        b.read_block(f, 0, &mut buf).unwrap();
        assert_eq!(buf[5], 1 << 3);
        assert_eq!(buf.iter().map(|&x| x.count_ones()).sum::<u32>(), 1);
        // The flip is one-shot; the device itself is not corrupted.
        b.read_block(f, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(plan.reads_flipped(), 1);
    }

    #[test]
    fn clear_disarms_everything() {
        let (b, plan) = backend();
        let f = b.create_file().unwrap();
        b.extend(f, 1).unwrap();
        plan.fail_nth_write(1);
        plan.transient_read_errors(5);
        plan.tear_next_superblock(3);
        plan.clear();
        b.write_block(f, 0, &[1u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        b.read_block(f, 0, &mut buf).unwrap();
        assert_eq!(plan.take_superblock_tear(), None);
    }
}
