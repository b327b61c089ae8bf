//! A [`BlockCursor`] walk costs exactly what plain disk reads of the same
//! sequence cost once every read that repeats the read before it (same
//! file, block and kind) is dropped. Driven by the same trace, walks through
//! a cursor on one disk — reads and writes, through a point or a scan
//! cursor — and plain `read_ref_hinted` / `write` calls on its twin, each
//! read under the class the cursor's kind rule gives it (a scan cursor reads
//! `Leaf` and `Utility` scan-class), with those repeats dropped, must leave the
//! whole [`OpStats`] and the pool residency identical after every single
//! step, and every read through the cursor must return the block's current
//! bytes, including what the walk itself just wrote.
//!
//! [`BlockCursor`]: lidx_storage::BlockCursor

use lidx_storage::{AccessClass, BlockKind, DeviceModel, Disk, DiskConfig, OpStats, SeqHint};
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
    let read =
        || {
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
