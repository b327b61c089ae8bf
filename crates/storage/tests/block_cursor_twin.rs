//! A [`BlockCursor`] answers a re-read of the block it read last exactly
//! where the disk's §6.5 reuse slot would: driven by the same trace, walks
//! through a cursor on one disk and plain `read_ref_class` calls on its twin
//! must hand out identical frames and leave identical device reads, device
//! time, pool and readahead hits and pool residency after every single step.
//! With reuse off the cursor reads every block through, so the whole
//! [`OpStats`] must match.
//!
//! [`BlockCursor`]: lidx_storage::BlockCursor

use lidx_storage::{AccessClass, BlockKind, DeviceModel, Disk, DiskConfig, OpStats};
use proptest::prelude::*;

const BLOCKS: u32 = 12;
const BLOCK_SIZE: usize = 64;

/// One read of a walk, repeated `times` in a row (a slot-by-slot walk of
/// one block).
#[derive(Debug, Clone, Copy)]
struct Read {
    block: u32,
    kind: BlockKind,
    class: AccessClass,
    times: usize,
}

#[derive(Debug, Clone)]
enum Step {
    Walk(Vec<Read>),
    Write(u32, BlockKind, u8),
    Free(u32),
    ResetAccessState,
}

/// `Inner` is the memory-resident kind of the twin disks.
fn kind() -> impl Strategy<Value = BlockKind> {
    prop_oneof![Just(BlockKind::Inner), Just(BlockKind::Leaf), Just(BlockKind::Utility)]
}

fn class() -> impl Strategy<Value = AccessClass> {
    prop_oneof![Just(AccessClass::Point), Just(AccessClass::Scan)]
}

fn read() -> impl Strategy<Value = Read> {
    (0..BLOCKS, kind(), class(), 1usize..4).prop_map(|(block, kind, class, times)| Read {
        block,
        kind,
        class,
        times,
    })
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        proptest::collection::vec(read(), 1..12).prop_map(Step::Walk),
        proptest::collection::vec(read(), 1..12).prop_map(Step::Walk),
        (0..BLOCKS, kind(), any::<u8>()).prop_map(|(b, k, v)| Step::Write(b, k, v)),
        (0..BLOCKS).prop_map(Step::Free),
        Just(Step::ResetAccessState),
    ]
}

fn twin(pool: usize, reuse: bool, depth: usize) -> std::sync::Arc<Disk> {
    let disk = Disk::in_memory(
        DiskConfig::with_block_size(BLOCK_SIZE)
            .device(DeviceModel::custom("t", 100, 10, 7))
            .buffer_blocks(pool)
            .reuse_last_block(reuse)
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

/// Every counter of `disk`, plus the requests a cursor answered itself
/// (`saved`), and which blocks the pool holds. Device reads, device time and
/// pool and readahead hits are never in `saved`, so they must match as is.
fn observed(disk: &Disk, saved: &OpStats) -> (OpStats, Vec<bool>) {
    let mut stats = disk.snapshot();
    stats.frames_pinned += saved.frames_pinned;
    stats.reuse_hits += saved.reuse_hits;
    stats.scan_reads += saved.scan_reads;
    (stats, (0..BLOCKS).map(|b| disk.buffer_contains(0, b)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    #[test]
    fn cursor_walks_and_plain_reads_cost_the_same_device_work(
        pool in 0usize..4,
        reuse in any::<bool>(),
        depth in prop_oneof![Just(1usize), Just(4usize)],
        steps in proptest::collection::vec(step(), 1..60),
    ) {
        let walked = twin(pool, reuse, depth);
        let plain = twin(pool, reuse, depth);
        let mut content: Vec<u8> = (0..BLOCKS as u8).collect();
        // The requests the cursor answered itself: each is one pinned frame,
        // one reuse hit unless its kind is memory-resident, and one scan
        // read if scan-class, that the plain twin counts and it does not.
        let mut saved = OpStats::default();
        for (n, step) in steps.into_iter().enumerate() {
            match step {
                Step::Walk(reads) => {
                    let mut cursor = walked.cursor();
                    let mut last = None;
                    for r in reads.iter().flat_map(|r| std::iter::repeat_n(*r, r.times)) {
                        if reuse && last == Some((r.block, r.kind)) {
                            saved.frames_pinned += 1;
                            saved.reuse_hits += u64::from(r.kind != BlockKind::Inner);
                            saved.scan_reads += u64::from(r.class == AccessClass::Scan);
                        }
                        last = Some((r.block, r.kind));
                        let a = cursor.read_class(0, r.block, r.kind, r.class).unwrap().clone();
                        let b = plain.read_ref_class(0, r.block, r.kind, r.class).unwrap();
                        prop_assert_eq!(&a[..], &b[..], "step {}: frames differ", n);
                        prop_assert_eq!(
                            &a[..],
                            &[content[r.block as usize]; BLOCK_SIZE][..],
                            "step {}",
                            n
                        );
                        prop_assert_eq!(
                            observed(&walked, &saved),
                            observed(&plain, &OpStats::default()),
                            "step {}: {:?} diverged",
                            n,
                            r
                        );
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
            prop_assert_eq!(
                observed(&walked, &saved),
                observed(&plain, &OpStats::default()),
                "step {}",
                n
            );
        }
    }
}
