//! The synchronous read path and a depth-1 completion wave climb one cache
//! ladder (`Disk::probe_caches` → `fetch_miss` → `publish_miss`): driven by
//! the same trace, `read_ref_hinted` on one disk and a depth-1 [`ReadQueue`]
//! on its twin must hand out identical frames and leave identical counters
//! after every single step.
//!
//! [`ReadQueue`]: lidx_storage::ReadQueue

use lidx_storage::{AccessClass, BlockKind, DeviceModel, Disk, DiskConfig, OpStats, SeqHint};
use proptest::prelude::*;

const BLOCKS: u32 = 12;
const BLOCK_SIZE: usize = 64;

#[derive(Debug, Clone, Copy)]
enum Step {
    Read(u32, BlockKind, AccessClass, SeqHint),
    Prefetch(u32, BlockKind, SeqHint),
    Write(u32, BlockKind, u8),
}

/// `Inner` is the memory-resident kind of the twin disks.
fn kind() -> impl Strategy<Value = BlockKind> {
    prop_oneof![Just(BlockKind::Inner), Just(BlockKind::Leaf), Just(BlockKind::Utility)]
}

fn class() -> impl Strategy<Value = AccessClass> {
    prop_oneof![Just(AccessClass::Point), Just(AccessClass::Scan)]
}

fn hint() -> impl Strategy<Value = SeqHint> {
    prop_oneof![Just(SeqHint::Auto), Just(SeqHint::Sequential), Just(SeqHint::Random)]
}

fn step() -> impl Strategy<Value = Step> {
    let target = || (0..BLOCKS, kind(), class(), hint());
    prop_oneof![
        target().prop_map(|(b, k, c, h)| Step::Read(b, k, c, h)),
        target().prop_map(|(b, k, c, h)| Step::Read(b, k, c, h)),
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
                Step::Read(b, kind, class, hint) => {
                    // On a depth > 1 disk a synchronous scan-class miss is
                    // deliberately *more* than a one-request wave (it folds
                    // an extent readahead in), so those disks read point-class.
                    let class = if depth > 1 { AccessClass::Point } else { class };
                    let a = sync.read_ref_hinted(0, b, kind, class, hint).unwrap();
                    let mut q = queued.read_queue_with_depth(1);
                    q.submit_hinted(0, b, kind, class, hint).unwrap();
                    let done = q.complete().unwrap();
                    prop_assert_eq!(done.len(), 1);
                    prop_assert_eq!(&a[..], &done[0].frame[..], "step {}: frames differ", n);
                    prop_assert_eq!(&a[..], &[content[b as usize]; BLOCK_SIZE][..], "step {}", n);
                    demand_reads += 1;
                }
                Step::Prefetch(b, kind, hint) => {
                    // Prefetches only exist on the queue, so both twins park
                    // through one; what differs is who consumes the frame.
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
