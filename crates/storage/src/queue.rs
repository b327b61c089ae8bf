//! The outstanding-read engine: an io_uring-shaped submission/completion
//! queue over the simulated device.
//!
//! The paper's cost model realises every device charge synchronously — one
//! blocking latency per miss — so a batch of N independent fetches pays N
//! sequential latencies. Real storage stacks instead keep a *queue depth* of
//! requests in flight and complete them together. [`ReadQueue`] reproduces
//! that shape: callers [`submit`](ReadQueue::submit) `(file, block, kind,
//! class)` requests; once the configured depth is reached (or on an explicit
//! [`flush`](ReadQueue::flush)), the pending requests are processed as one
//! *completion wave*. The wave serves cache hits exactly like the synchronous
//! path, fetches every miss, and charges the device the **max** of the
//! misses' costs instead of their sum — the requests were outstanding
//! together, so the wave completes when its slowest member does. The
//! difference (`sum − max`) is recorded as
//! [`overlap_saved_ns`](crate::IoStats::overlap_saved_ns).
//!
//! At queue depth 1 every wave carries one request, `max == sum`, and the
//! engine degenerates to today's synchronous path — all existing numbers are
//! reproduced bit for bit. Block-fetch *counts* are never changed by the
//! depth: the engine only redistributes simulated time.

use crate::buffer::{AccessClass, BlockRef};
use crate::disk::{Disk, FileId, SeqHint, WaveReq};
use crate::error::StorageResult;
use crate::stats::BlockKind;
use crate::BlockId;

/// A completed read delivered by [`ReadQueue::complete`].
#[derive(Debug, Clone)]
pub struct Completion {
    /// File the request targeted.
    pub file: FileId,
    /// Block the request targeted.
    pub block: BlockId,
    /// The pinned, zero-copy frame (same guarantees as
    /// [`Disk::read_ref`]).
    pub frame: BlockRef,
}

/// An outstanding-read queue over one [`Disk`] (see the module docs).
///
/// Submissions auto-flush whenever the pending wave reaches the queue depth,
/// so a caller may submit any number of requests and collect everything with
/// one final [`complete`](ReadQueue::complete). Completions are delivered in
/// submission order.
pub struct ReadQueue<'d> {
    disk: &'d Disk,
    depth: usize,
    pending: Vec<WaveReq>,
    done: Vec<Completion>,
}

impl Disk {
    /// An outstanding-read queue at the disk's configured
    /// [`queue_depth`](Disk::queue_depth).
    pub fn read_queue(&self) -> ReadQueue<'_> {
        self.read_queue_with_depth(self.queue_depth())
    }

    /// An outstanding-read queue with an explicit depth (clamped to at
    /// least 1), independent of the disk's configured depth.
    pub fn read_queue_with_depth(&self, depth: usize) -> ReadQueue<'_> {
        ReadQueue { disk: self, depth: depth.max(1), pending: Vec::new(), done: Vec::new() }
    }
}

impl ReadQueue<'_> {
    /// The wave size this queue flushes at.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Submits one read request ([`SeqHint::Auto`]); flushes a wave if the
    /// queue depth is reached.
    pub fn submit(
        &mut self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
        class: AccessClass,
    ) -> StorageResult<()> {
        self.submit_hinted(file, block, kind, class, SeqHint::Auto)
    }

    /// Submits one read request with an explicit sequential-cost hint;
    /// flushes a wave if the queue depth is reached.
    pub fn submit_hinted(
        &mut self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
        class: AccessClass,
        hint: SeqHint,
    ) -> StorageResult<()> {
        if class == AccessClass::Scan {
            self.disk.stats().record_scan_read();
        }
        self.pending.push(WaveReq { file, block, kind, hint, deliver: true });
        if self.pending.len() >= self.depth {
            self.flush()?;
        }
        Ok(())
    }

    /// Submits a readahead prefetch: the frame is parked in the disk's
    /// readahead cache for a later read instead of being delivered, and the
    /// request is skipped entirely if the block is already cached. Prefetches
    /// ride the same waves as submitted reads.
    pub fn prefetch(
        &mut self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
        hint: SeqHint,
    ) -> StorageResult<()> {
        self.pending.push(WaveReq { file, block, kind, hint, deliver: false });
        if self.pending.len() >= self.depth {
            self.flush()?;
        }
        Ok(())
    }

    /// Processes the pending requests as one completion wave (no-op when
    /// nothing is pending).
    pub fn flush(&mut self) -> StorageResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let reqs = std::mem::take(&mut self.pending);
        let frames = self.disk.run_wave(&reqs)?;
        for (req, frame) in reqs.into_iter().zip(frames) {
            if let (true, Some(frame)) = (req.deliver, frame) {
                self.done.push(Completion { file: req.file, block: req.block, frame });
            }
        }
        Ok(())
    }

    /// Flushes any pending requests and returns every completion so far, in
    /// submission order.
    pub fn complete(&mut self) -> StorageResult<Vec<Completion>> {
        self.flush()?;
        Ok(std::mem::take(&mut self.done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use crate::disk::DiskConfig;

    /// A disk with a custom flat device model: random reads cost `rand`,
    /// sequential reads `seq`, writes 1.
    fn disk(depth: usize, rand: u64, seq: u64) -> std::sync::Arc<Disk> {
        Disk::in_memory(
            DiskConfig::with_block_size(128)
                .device(DeviceModel::custom("t", rand, 1, seq))
                .queue_depth(depth),
        )
    }

    fn fill(d: &Disk, blocks: u32) -> FileId {
        let f = d.create_file().unwrap();
        d.allocate(f, blocks).unwrap();
        for b in 0..blocks {
            d.write(f, b, BlockKind::Leaf, &[(b % 251) as u8; 128]).unwrap();
        }
        d.stats().reset();
        d.reset_access_state();
        d.clear_buffer();
        f
    }

    #[test]
    fn depth_one_matches_the_synchronous_path_exactly() {
        let queued = disk(1, 100, 5);
        let fq = fill(&queued, 8);
        let mut q = queued.read_queue();
        for b in [3u32, 7, 0, 4] {
            q.submit(fq, b, BlockKind::Leaf, AccessClass::Point).unwrap();
        }
        let done = q.complete().unwrap();
        assert_eq!(done.len(), 4);

        let sync = disk(1, 100, 5);
        let fs = fill(&sync, 8);
        for b in [3u32, 7, 0, 4] {
            sync.read_ref(fs, b, BlockKind::Leaf).unwrap();
        }
        assert_eq!(queued.stats().device_ns(), sync.stats().device_ns());
        assert_eq!(queued.stats().reads(), sync.stats().reads());
        assert_eq!(queued.stats().overlap_saved_ns(), 0, "depth 1 has nothing to overlap");
    }

    #[test]
    fn a_wave_charges_max_not_sum() {
        let d = disk(4, 100, 5);
        let f = fill(&d, 8);
        let mut q = d.read_queue();
        for b in [0u32, 2, 4, 6] {
            q.submit(f, b, BlockKind::Leaf, AccessClass::Point).unwrap();
        }
        let done = q.complete().unwrap();
        assert_eq!(done.len(), 4);
        for c in &done {
            assert!(c.frame.iter().all(|&x| x == (c.block % 251) as u8), "wrong frame contents");
        }
        assert_eq!(d.stats().reads(), 4, "every miss is still a counted fetch");
        assert_eq!(d.stats().device_ns(), 100, "four random fetches in flight cost one latency");
        assert_eq!(d.stats().overlap_saved_ns(), 300);
        assert_eq!(d.stats().max_inflight(), 4);
        assert_eq!(d.stats().ios_submitted(), 4);
        assert_eq!(d.stats().ios_completed(), 4);
    }

    #[test]
    fn waves_flush_at_depth_and_deliver_in_submission_order() {
        let d = disk(2, 100, 5);
        let f = fill(&d, 8);
        let mut q = d.read_queue();
        for b in [5u32, 1, 6, 2, 0] {
            q.submit(f, b, BlockKind::Leaf, AccessClass::Point).unwrap();
        }
        let done = q.complete().unwrap();
        assert_eq!(done.iter().map(|c| c.block).collect::<Vec<_>>(), vec![5, 1, 6, 2, 0]);
        // Three waves: [5,1] [6,2] [0] — two full overlaps and one single.
        assert_eq!(d.stats().device_ns(), 3 * 100);
        assert_eq!(d.stats().max_inflight(), 2);
    }

    #[test]
    fn hits_and_duplicates_inside_a_wave_are_not_double_fetched() {
        let d = disk(8, 100, 5);
        let f = fill(&d, 8);
        // Warm block 0 into the pool? No pool configured — use the device
        // once, then the reuse slot holds block 0.
        d.read_ref(f, 0, BlockKind::Leaf).unwrap();
        let before = d.stats().reads();
        let mut q = d.read_queue();
        for b in [0u32, 4, 4, 5] {
            q.submit(f, b, BlockKind::Leaf, AccessClass::Point).unwrap();
        }
        let done = q.complete().unwrap();
        assert_eq!(done.len(), 4);
        // Block 0 is a reuse-slot hit; the second 4 shares the in-flight
        // fetch; only blocks 4 and 5 touch the device.
        assert_eq!(d.stats().reads() - before, 2);
        assert!(d.stats().reuse_hits() >= 2);
        for c in &done {
            assert!(c.frame.iter().all(|&x| x == (c.block % 251) as u8));
        }
    }

    #[test]
    fn prefetch_parks_frames_that_later_reads_consume_for_free() {
        let d = disk(4, 100, 5);
        let f = fill(&d, 16);
        let mut q = d.read_queue();
        for b in 4u32..8 {
            q.prefetch(f, b, BlockKind::Leaf, SeqHint::Sequential).unwrap();
        }
        q.flush().unwrap();
        assert_eq!(d.stats().reads(), 4, "prefetch fetches are counted reads");
        let after_prefetch = d.stats().device_ns();
        assert_eq!(after_prefetch, 5, "a wave of sequential prefetches costs one seq latency");
        // Consuming the parked frames is free and attributed to readahead.
        for b in 4u32..8 {
            let frame = d.read_ref(f, b, BlockKind::Leaf).unwrap();
            assert!(frame.iter().all(|&x| x == (b % 251) as u8));
        }
        assert_eq!(d.stats().device_ns(), after_prefetch);
        assert_eq!(d.stats().readahead_hits(), 4);
        assert_eq!(d.stats().reads(), 4, "no re-fetch of parked blocks");
    }

    #[test]
    fn explicit_depth_overrides_the_disk_configuration() {
        let d = disk(1, 100, 5);
        let f = fill(&d, 8);
        let mut q = d.read_queue_with_depth(4);
        assert_eq!(q.depth(), 4);
        for b in [0u32, 2, 4, 6] {
            q.submit(f, b, BlockKind::Leaf, AccessClass::Point).unwrap();
        }
        q.complete().unwrap();
        assert_eq!(d.stats().device_ns(), 100, "the explicit depth wins");
    }
}
