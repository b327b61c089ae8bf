//! Cost pin for the read paths: point lookups, short scans and a lookup
//! batch cost every design exactly the device work recorded here.
//!
//! The pinned counters are the ones a read-path CPU optimisation must not
//! move: device reads by block kind, simulated device time, buffer-pool hits
//! and readahead hits. Reuse hits, pinned frames and scan-class request
//! counts are deliberately not pinned — they count how often the index
//! *asks* for a block, which is exactly what such an optimisation changes.

use std::collections::BTreeMap;

use lidx_core::{Entry, Key, Value};
use lidx_experiments::runner::IndexChoice;
use lidx_storage::{BlockKind, DeviceModel, Disk, DiskConfig};

/// What the measured read interval of [`read_path_cost_is_pinned`] cost.
#[derive(Debug, PartialEq, Eq)]
struct ReadCost {
    /// Device reads by [`BlockKind::ALL`] (meta, inner, leaf, utility).
    reads: [u64; 4],
    device_ns: u64,
    buffer_hits: u64,
    readahead_hits: u64,
}

/// Recorded while every slot-by-slot walk still read each slot through its
/// own `Disk::read_ref`, one row per `(storage, design)` cell in iteration
/// order. The depth-1 rows of the B+-tree, ALEX and both hybrids were
/// re-recorded when their `lookup_batch` became the wave strategy at every
/// depth: device reads and device time stayed or fell, and only the pool
/// hits of the batch's reads moved. The depth-8 rows of PGM, ALEX and LIPP
/// were re-recorded when scans began reading through a scan cursor: their
/// first data block (PGM's ε-window, ALEX's data-node header and search
/// slots, LIPP's descent) became a scan read, so its miss starts a readahead
/// wave. Device time fell in all three rows (PGM 48.16 → 47.40 ms, ALEX
/// 143.20 → 135.82 ms, LIPP 210.62 → 200.00 ms); PGM and ALEX now fetch more
/// blocks (526 → 571, 1 938 → 2 129), as readahead brings in blocks a scan
/// may not reach, and ALEX's prefetched bitmap blocks count under the
/// demanding read's `Leaf` kind. Both LIPP rows were re-recorded when a
/// LIPP node began keeping its first 168 slots in its header block. The
/// pin's near-linear 20 000 keys build almost no child nodes, so the layout
/// saves little here: the root's slot-block boundaries shift by 168 slots,
/// and depth 1 reads 2 554 → 2 558 blocks (235.36 → 235.76 ms), depth 8
/// 3 311 blocks as before (200.00 → 200.40 ms).
#[rustfmt::skip]
const READ_PATH_COST: [ReadCost; 14] = [
    // ssd, pool 64, depth 1, btree
    ReadCost { reads: [0, 0, 856, 0], device_ns: 84040000, buffer_hits: 3678, readahead_hits: 0 },
    // ssd, pool 64, depth 1, fiting
    ReadCost { reads: [0, 0, 581, 0], device_ns: 56300000, buffer_hits: 4799, readahead_hits: 0 },
    // ssd, pool 64, depth 1, pgm
    ReadCost { reads: [0, 0, 522, 0], device_ns: 50080000, buffer_hits: 2327, readahead_hits: 0 },
    // ssd, pool 64, depth 1, alex
    ReadCost { reads: [0, 0, 1467, 40], device_ns: 148380000, buffer_hits: 5722, readahead_hits: 0 },
    // ssd, pool 64, depth 1, lipp
    ReadCost { reads: [0, 0, 2558, 0], device_ns: 235760000, buffer_hits: 2482, readahead_hits: 0 },
    // ssd, pool 64, depth 1, hybrid-pla
    ReadCost { reads: [0, 0, 861, 0], device_ns: 84500000, buffer_hits: 3673, readahead_hits: 0 },
    // ssd, pool 64, depth 1, hybrid-modeltree
    ReadCost { reads: [0, 0, 901, 0], device_ns: 88460000, buffer_hits: 5935, readahead_hits: 0 },
    // ssd, pool 64, depth 8, btree
    ReadCost { reads: [0, 0, 1047, 0], device_ns: 80560000, buffer_hits: 3690, readahead_hits: 12 },
    // ssd, pool 64, depth 8, fiting
    ReadCost { reads: [0, 0, 662, 0], device_ns: 54080000, buffer_hits: 4714, readahead_hits: 22 },
    // ssd, pool 64, depth 8, pgm
    ReadCost { reads: [0, 0, 571, 0], device_ns: 47400000, buffer_hits: 2348, readahead_hits: 3 },
    // ssd, pool 64, depth 8, alex
    ReadCost { reads: [0, 0, 2023, 106], device_ns: 135820000, buffer_hits: 5721, readahead_hits: 152 },
    // ssd, pool 64, depth 8, lipp
    ReadCost { reads: [0, 0, 3311, 0], device_ns: 200400000, buffer_hits: 2481, readahead_hits: 562 },
    // ssd, pool 64, depth 8, hybrid-pla
    ReadCost { reads: [0, 0, 1051, 0], device_ns: 80820000, buffer_hits: 3687, readahead_hits: 12 },
    // ssd, pool 64, depth 8, hybrid-modeltree
    ReadCost { reads: [0, 1, 1110, 0], device_ns: 84720000, buffer_hits: 5945, readahead_hits: 14 },
];

/// Cost pin: bulk-load 20 000 keys, then run 2 000 point lookups (half of
/// them stored keys, half arbitrary), 200 scans of 100 entries and one
/// 64-key `lookup_batch`, each from a cold access state like the harness
/// runs them. Every answer is checked against an oracle, and the device
/// work of the whole interval after the bulk load must match the table.
#[test]
fn read_path_cost_is_pinned() {
    let bulk: Vec<Entry> = (0..20_000u64).map(|i| (i * 16 + (i * 7_919) % 13, i)).collect();
    let oracle: BTreeMap<Key, Value> = bulk.iter().copied().collect();
    let key_space = bulk.last().expect("non-empty bulk").0 + 1_000;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut probe = |i: u64| {
        let r = next();
        if i.is_multiple_of(2) {
            bulk[(r % bulk.len() as u64) as usize].0
        } else {
            r % key_space
        }
    };
    let lookups: Vec<Key> = (0..2_000).map(&mut probe).collect();
    let scans: Vec<Key> = (0..200).map(&mut probe).collect();
    let batch: Vec<Key> = (0..64).map(&mut probe).collect();

    let mut measured = Vec::new();
    let mut labels = Vec::new();
    for depth in [1, 8] {
        for choice in IndexChoice::ALL_DESIGNS {
            let disk = Disk::in_memory(
                DiskConfig::default()
                    .device(DeviceModel::ssd())
                    .buffer_blocks(64)
                    .queue_depth(depth),
            );
            let mut index = choice.build(std::sync::Arc::clone(&disk));
            index.bulk_load(&bulk).expect("bulk load");
            let before = disk.snapshot();
            for &k in &lookups {
                disk.reset_access_state();
                assert_eq!(index.lookup(k).expect("lookup"), oracle.get(&k).copied(), "key {k}");
            }
            let mut rows = Vec::new();
            for &start in &scans {
                disk.reset_access_state();
                index.scan(start, 100, &mut rows).expect("scan");
                let expected: Vec<Entry> =
                    oracle.range(start..).take(100).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(rows, expected, "{choice:?} scan from {start}");
            }
            disk.reset_access_state();
            let mut answers = Vec::new();
            index.lookup_batch(&batch, &mut answers).expect("lookup_batch");
            let want: Vec<Option<Value>> = batch.iter().map(|k| oracle.get(k).copied()).collect();
            assert_eq!(answers, want, "{choice:?} batch answers");

            let io = disk.snapshot().since(&before);
            measured.push(ReadCost {
                reads: BlockKind::ALL.map(|kind| io.reads_of(kind)),
                device_ns: io.device_ns,
                buffer_hits: io.buffer_hits,
                readahead_hits: io.readahead_hits,
            });
            labels.push(format!("ssd, pool 64, depth {depth}, {}", choice.name()));
        }
    }
    if measured[..] != READ_PATH_COST[..] {
        for (label, cost) in labels.iter().zip(&measured) {
            eprintln!("    // {label}\n    {cost:?},");
        }
    }
    for ((label, cost), pinned) in labels.iter().zip(&measured).zip(&READ_PATH_COST) {
        assert_eq!(cost, pinned, "{label}");
    }
    assert_eq!(measured.len(), READ_PATH_COST.len());
}
