//! The outstanding-read engine: an io_uring-shaped submission/completion
//! queue over the simulated device.
//!
//! The paper's cost model realises every device charge synchronously — one
//! blocking latency per miss — so a batch of N independent fetches pays N
//! sequential latencies. Real storage stacks instead keep a *queue depth* of
//! requests in flight and complete them together. [`ReadQueue`] reproduces
//! that shape: callers [`submit`](ReadQueue::submit) `(file, block, kind)`
//! point-class requests, and each submission climbs the cache ladder right
//! away. A cache hit is a completion at submit: it takes no device slot,
//! exactly as a page-cache hit never reaches an io_uring submission ring.
//! Only device misses enter the open wave. Once it holds `queue_depth` of
//! them (or on an explicit [`flush`](ReadQueue::flush)), the wave fetches
//! them together and charges the device the **max** of their costs instead
//! of their sum — the requests were outstanding together, so the wave
//! completes when its slowest member does. The difference (`sum − max`) is recorded as
//! [`overlap_saved_ns`](crate::IoStats::overlap_saved_ns).
//!
//! Hits that took a slot cut waves early. On the ledger's `lookup_cold`
//! workload (64-frame pool, depth 8), resolving them at submit raised the
//! device reads per wave from 6.51 to 7.20 (traced run, seed 7), and
//! FITing-tree's modelled throughput, whose ε-window prefetches are mostly
//! pool-resident, from a median 55 749 to 77 746 lookups/s (ten alternating
//! runs per side on a 2-vCPU machine).
//!
//! At queue depth 1 every wave carries one device request, `max == sum`, and
//! the engine degenerates to the synchronous path — all existing numbers are
//! reproduced bit for bit. A disk configured at depth 1 also has no
//! readahead rung, so there a [`prefetch`](ReadQueue::prefetch) does nothing:
//! a design's one batched read path, run at depth 1, reads each block on
//! demand in its resolve loop, as a synchronous walk does. Above depth 1 the
//! engine fetches the same blocks and only redistributes simulated time.

use crate::buffer::BlockRef;
use crate::disk::{Disk, FileId, SeqHint, WaveReq};
use crate::error::{StorageError, StorageResult};
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
/// A submission that hits a cache completes at once; a miss joins the open
/// wave, and a submission duplicating a miss already in the wave shares its
/// fetch. The wave runs as soon as it holds [`depth`](ReadQueue::depth)
/// device requests, so a caller may submit any number of requests and
/// collect everything with one final [`complete`](ReadQueue::complete).
/// Completions are delivered in submission order, hits and misses alike.
///
/// [`IoStats::ios_submitted`](crate::IoStats::ios_submitted) and
/// [`ios_completed`](crate::IoStats::ios_completed) count every request the
/// queue accepts: a hit, or a prefetch skipped because its block is cached,
/// counts as both at once.
pub struct ReadQueue<'d> {
    disk: &'d Disk,
    depth: usize,
    /// The open wave: device misses of distinct blocks, at most `depth`.
    pending: Vec<WaveReq>,
    /// Deliveries waiting on the open wave, as `(pending index, done index)`.
    waiting: Vec<(usize, usize)>,
    /// Every delivery in submission order; a miss's frame is filled in when
    /// its wave completes.
    done: Vec<(FileId, BlockId, Option<BlockRef>)>,
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
        ReadQueue {
            disk: self,
            depth: depth.max(1),
            pending: Vec::new(),
            waiting: Vec::new(),
            done: Vec::new(),
        }
    }
}

impl ReadQueue<'_> {
    /// The number of device requests a wave carries before it runs.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Submits one point-class read request. The request climbs the cache
    /// ladder now: a hit completes at once, a miss joins the open wave (or
    /// shares the fetch of the same block already in it), and the wave runs
    /// if the miss fills it.
    pub fn submit(&mut self, file: FileId, block: BlockId, kind: BlockKind) -> StorageResult<()> {
        let stats = self.disk.stats();
        stats.record_ios_submitted(1);
        if let Some(frame) = self.disk.probe_caches(file, block, kind)? {
            self.done.push((file, block, Some(frame)));
            stats.record_ios_completed(1);
            return Ok(());
        }
        let slot = self.done.len();
        self.done.push((file, block, None));
        if let Some(p) = self.pending_index(file, block) {
            // A duplicate of a block this wave is already fetching: share the
            // in-flight frame. This is the one producer of a reuse hit.
            stats.record_reuse_hit();
            stats.record_frame_pinned();
            self.waiting.push((p, slot));
            return Ok(());
        }
        self.waiting.push((self.pending.len(), slot));
        self.pending.push(WaveReq { file, block, kind, hint: SeqHint::Auto, deliver: true });
        self.run_if_full()
    }

    /// Submits a readahead prefetch: the frame is parked in the disk's
    /// readahead cache for a later read instead of being delivered.
    /// Prefetches ride the same waves as submitted reads, but a block that is
    /// already in the wave, parked, free to read (memory-resident kind) or
    /// pool-resident (re-parked at no device cost) takes no slot.
    ///
    /// A disk configured with [`queue_depth`](Disk::queue_depth) 1 has no
    /// readahead rung, so no read could ever consume a parked frame. There a
    /// prefetch is counted as submitted and completed and does nothing else:
    /// no device read and no parked frame. The block's later read fetches it
    /// on demand, exactly as the synchronous path would.
    pub fn prefetch(
        &mut self,
        file: FileId,
        block: BlockId,
        kind: BlockKind,
        hint: SeqHint,
    ) -> StorageResult<()> {
        let stats = self.disk.stats();
        stats.record_ios_submitted(1);
        if !self.disk.keeps_readahead()
            || self.pending_index(file, block).is_some()
            || self.disk.prefetch_is_cached(file, block, kind)
        {
            stats.record_ios_completed(1);
            return Ok(());
        }
        self.pending.push(WaveReq { file, block, kind, hint, deliver: false });
        self.run_if_full()
    }

    /// Runs the open wave (no-op when it holds no device request).
    pub fn flush(&mut self) -> StorageResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let reqs = std::mem::take(&mut self.pending);
        let waiting = std::mem::take(&mut self.waiting);
        let frames = self.disk.run_wave(&reqs)?;
        for &(p, d) in &waiting {
            self.done[d].2 = Some(frames[p].clone());
        }
        // Every delivery waiting on the wave, plus its parked prefetches.
        let completed = waiting.len() + reqs.iter().filter(|r| !r.deliver).count();
        self.disk.stats().record_ios_completed(completed as u64);
        Ok(())
    }

    /// Runs the open wave and returns every completion so far, in submission
    /// order.
    pub fn complete(&mut self) -> StorageResult<Vec<Completion>> {
        self.flush()?;
        self.done
            .drain(..)
            .map(|(file, block, frame)| {
                let frame = frame.ok_or_else(|| {
                    StorageError::Corrupt("a failed wave dropped a delivered frame".into())
                })?;
                Ok(Completion { file, block, frame })
            })
            .collect()
    }

    /// The open wave's request for `(file, block)`, if any. A linear scan: a
    /// wave holds at most `depth` requests.
    fn pending_index(&self, file: FileId, block: BlockId) -> Option<usize> {
        self.pending.iter().position(|r| r.file == file && r.block == block)
    }

    fn run_if_full(&mut self) -> StorageResult<()> {
        if self.pending.len() >= self.depth {
            self.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use crate::disk::DiskConfig;
    use lidx_telemetry::OpClass;

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

    /// A depth-8 disk with a 32-frame pool holding blocks `0..8` of a
    /// 32-block file, with fresh counters and a cold access state.
    fn pool_disk() -> (std::sync::Arc<Disk>, FileId) {
        let d = Disk::in_memory(
            DiskConfig::with_block_size(128)
                .device(DeviceModel::custom("t", 100, 1, 5))
                .buffer_blocks(32)
                .queue_depth(8),
        );
        let f = fill(&d, 32);
        for b in 0..8 {
            d.read_ref(f, b, BlockKind::Leaf).unwrap();
        }
        d.stats().reset();
        d.reset_access_state();
        (d, f)
    }

    #[test]
    fn depth_one_matches_the_synchronous_path_exactly() {
        let queued = disk(1, 100, 5);
        let fq = fill(&queued, 8);
        let mut q = queued.read_queue();
        for b in [3u32, 7, 0, 4] {
            q.submit(fq, b, BlockKind::Leaf).unwrap();
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
            q.submit(f, b, BlockKind::Leaf).unwrap();
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
            q.submit(f, b, BlockKind::Leaf).unwrap();
        }
        let done = q.complete().unwrap();
        assert_eq!(done.iter().map(|c| c.block).collect::<Vec<_>>(), vec![5, 1, 6, 2, 0]);
        // Three waves: [5,1] [6,2] [0] — two full overlaps and one single.
        assert_eq!(d.stats().device_ns(), 3 * 100);
        assert_eq!(d.stats().max_inflight(), 2);
    }

    #[test]
    fn hits_and_duplicates_inside_a_wave_are_not_double_fetched() {
        let d = Disk::in_memory(
            DiskConfig::with_block_size(128)
                .device(DeviceModel::custom("t", 100, 1, 5))
                .buffer_blocks(4)
                .queue_depth(8),
        );
        let f = fill(&d, 8);
        // Warm block 0 into the pool.
        d.read_ref(f, 0, BlockKind::Leaf).unwrap();
        let before = d.snapshot();
        let mut q = d.read_queue();
        for b in [0u32, 4, 4, 5] {
            q.submit(f, b, BlockKind::Leaf).unwrap();
        }
        let done = q.complete().unwrap();
        assert_eq!(done.len(), 4);
        // Block 0 is a pool hit; the second 4 shares the in-flight fetch;
        // only blocks 4 and 5 touch the device.
        let s = d.snapshot().since(&before);
        assert_eq!(s.reads(), 2);
        assert_eq!(s.buffer_hits, 1);
        assert_eq!(s.reuse_hits, 1, "only the duplicate sharing an in-flight frame");
        for c in &done {
            assert!(c.frame.iter().all(|&x| x == (c.block % 251) as u8));
        }
    }

    #[test]
    fn cache_hits_and_duplicates_take_no_device_slot() {
        let (d, f) = pool_disk();
        let mut q = d.read_queue();
        // Eight pool hits interleaved with eight misses, and a second
        // request for the first miss while it is in flight. Counting every
        // request towards the depth would cut three waves here.
        let order = [0u32, 8, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15];
        for &b in &order {
            q.submit(f, b, BlockKind::Leaf).unwrap();
        }
        let done = q.complete().unwrap();
        assert_eq!(done.iter().map(|c| c.block).collect::<Vec<_>>(), order);
        for c in &done {
            assert!(c.frame.iter().all(|&x| x == (c.block % 251) as u8), "wrong frame contents");
        }
        let s = d.snapshot();
        assert_eq!(s.buffer_hits, 8, "the eight warm blocks are pool hits at submit");
        assert_eq!(s.reads(), 8, "each miss is fetched once, its duplicate shares the fetch");
        assert_eq!(s.reuse_hits, 1, "the duplicate is served from the in-flight frame");
        assert_eq!(s.device_ns, 100, "the eight misses are one wave: one random read");
        assert_eq!(s.max_inflight, 8);
        assert_eq!(d.telemetry().histogram(OpClass::Wave).count(), 1, "one device wave");
        assert_eq!((s.ios_submitted, s.ios_completed), (17, 17), "every request is counted");
    }

    #[test]
    fn cached_prefetches_take_no_device_slot() {
        let (d, f) = pool_disk();
        let mut q = d.read_queue_with_depth(4);
        // Pool-resident prefetches (re-parked) interleaved with misses, and
        // a repeat of a prefetch already in the wave.
        for b in [0u32, 8, 1, 9, 9, 2, 10, 3, 11] {
            q.prefetch(f, b, BlockKind::Leaf, SeqHint::Random).unwrap();
        }
        q.flush().unwrap();
        let s = d.snapshot();
        assert_eq!(s.reads(), 4);
        assert_eq!(s.device_ns, 100, "the four misses are one wave");
        assert_eq!((s.ios_submitted, s.ios_completed), (9, 9));
        // The pool still holds the re-parked blocks; the fetched ones are
        // consumed from the readahead cache.
        for b in (0u32..4).chain(8..12) {
            d.read_ref(f, b, BlockKind::Leaf).unwrap();
        }
        let s = d.snapshot();
        assert_eq!((s.buffer_hits, s.readahead_hits), (4, 4));
        assert_eq!(s.reads(), 4, "no prefetched block is fetched twice");
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
    fn a_prefetch_a_depth_one_disk_cannot_consume_reads_nothing() {
        let d = disk(1, 100, 5);
        let f = fill(&d, 8);
        let mut q = d.read_queue_with_depth(4);
        for b in 0u32..4 {
            q.prefetch(f, b, BlockKind::Leaf, SeqHint::Random).unwrap();
        }
        q.flush().unwrap();
        assert_eq!(d.stats().reads(), 0, "no prefetch reaches the device");
        for b in 0u32..4 {
            let frame = d.read_ref(f, b, BlockKind::Leaf).unwrap();
            assert!(frame.iter().all(|&x| x == (b % 251) as u8), "wrong frame contents");
        }
        let s = d.snapshot();
        assert_eq!(s.reads(), 4, "each block is fetched once, by its read");
        assert_eq!(s.readahead_hits, 0);
        assert_eq!((s.ios_submitted, s.ios_completed), (4, 4), "the prefetches still count");
    }

    #[test]
    fn explicit_depth_overrides_the_disk_configuration() {
        let d = disk(1, 100, 5);
        let f = fill(&d, 8);
        let mut q = d.read_queue_with_depth(4);
        assert_eq!(q.depth(), 4);
        for b in [0u32, 2, 4, 6] {
            q.submit(f, b, BlockKind::Leaf).unwrap();
        }
        q.complete().unwrap();
        assert_eq!(d.stats().device_ns(), 100, "the explicit depth wins");
    }
}

/// The synchronous read path and a depth-1 completion wave climb one cache
/// ladder (`Disk::probe_caches` → `fetch_miss` → `publish_miss`): driven by
/// the same trace, [`Disk::read_ref`] on one disk and a depth-1
/// [`ReadQueue`] on its twin must hand out identical frames and leave
/// identical counters after every single step.
#[cfg(test)]
mod ladder_twin {
    use crate::{BlockKind, DeviceModel, Disk, DiskConfig, OpStats, SeqHint};
    use proptest::prelude::*;

    const BLOCKS: u32 = 12;
    const BLOCK_SIZE: usize = 64;

    #[derive(Debug, Clone, Copy)]
    enum Step {
        Read(u32, BlockKind),
        Prefetch(u32, BlockKind, SeqHint),
        Write(u32, BlockKind, u8),
    }

    /// `Inner` is the memory-resident kind of the twin disks.
    fn kind() -> impl Strategy<Value = BlockKind> {
        prop_oneof![Just(BlockKind::Inner), Just(BlockKind::Leaf), Just(BlockKind::Utility)]
    }

    fn hint() -> impl Strategy<Value = SeqHint> {
        prop_oneof![Just(SeqHint::Auto), Just(SeqHint::Sequential), Just(SeqHint::Random)]
    }

    fn step() -> impl Strategy<Value = Step> {
        let read = || (0..BLOCKS, kind()).prop_map(|(b, k)| Step::Read(b, k));
        prop_oneof![
            read(),
            read(),
            (0..BLOCKS, kind(), hint()).prop_map(|(b, k, h)| Step::Prefetch(b, k, h)),
            (0..BLOCKS, kind(), any::<u8>()).prop_map(|(b, k, v)| Step::Write(b, k, v)),
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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

        #[test]
        fn sync_reads_and_depth_one_waves_are_indistinguishable(
            pool in 0usize..4,
            // Depth 4 switches the readahead rung on, so parked frames are
            // consumed by both twins; depth 1 keeps it off for both.
            depth in prop_oneof![Just(1usize), Just(4usize)],
            steps in proptest::collection::vec(step(), 1..200),
        ) {
            let sync = twin(pool, depth);
            let queued = twin(pool, depth);
            let mut content: Vec<u8> = (0..BLOCKS as u8).collect();
            let mut demand_reads = 0u64;
            for (n, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Read(b, kind) => {
                        let a = sync.read_ref(0, b, kind).unwrap();
                        let mut q = queued.read_queue_with_depth(1);
                        q.submit(0, b, kind).unwrap();
                        let done = q.complete().unwrap();
                        prop_assert_eq!(done.len(), 1);
                        prop_assert_eq!(&a[..], &done[0].frame[..], "step {}: frames differ", n);
                        prop_assert_eq!(&a[..], &[content[b as usize]; BLOCK_SIZE][..], "step {}", n);
                        demand_reads += 1;
                    }
                    Step::Prefetch(b, kind, hint) => {
                        // Prefetches only exist on the queue, so both twins
                        // park through one; what differs is who consumes the
                        // frame.
                        for disk in [&sync, &queued] {
                            let mut q = disk.read_queue_with_depth(1);
                            q.prefetch(0, b, kind, hint).unwrap();
                            q.flush().unwrap();
                        }
                    }
                    Step::Write(b, kind, v) => {
                        for disk in [&sync, &queued] {
                            disk.write(0, b, kind, &[v; BLOCK_SIZE]).unwrap();
                        }
                        content[b as usize] = v;
                    }
                }
                // The engine's own traffic counters are the one legitimate
                // difference: a synchronous read never enters the queue.
                let (s, mut q): (OpStats, OpStats) = (sync.snapshot(), queued.snapshot());
                prop_assert_eq!(q.ios_submitted - s.ios_submitted, demand_reads, "step {}", n);
                prop_assert_eq!(q.ios_completed - s.ios_completed, demand_reads, "step {}", n);
                q.ios_submitted = s.ios_submitted;
                q.ios_completed = s.ios_completed;
                q.max_inflight = s.max_inflight;
                prop_assert_eq!(s, q, "step {}: counters diverged", n);
            }
        }
    }
}
