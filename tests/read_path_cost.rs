//! Cost pin for the read paths: point lookups, short scans and a lookup
//! batch cost every design exactly the device work recorded here.
//!
//! The pinned counters are the ones a read-path CPU optimisation must not
//! move: device reads by block kind, simulated device time, buffer-pool hits
//! and readahead hits. Reuse hits, pinned frames and scan-class request
//! counts are deliberately not pinned — they count how often the index
//! *asks* for a block, which is exactly what such an optimisation changes.

use std::collections::BTreeMap;

use lidx_core::{DiskIndex, Entry, Key, Value};
use lidx_experiments::runner::IndexChoice;
use lidx_storage::{BlockKind, DeviceModel, Disk, DiskConfig};
use lidx_workloads::Dataset;

/// Seed of the `Dataset::Fb` keys of the second setup.
const FB_SEED: u64 = 7;

/// What the measured read interval of [`read_path_cost_is_pinned`] cost.
#[derive(Debug, PartialEq, Eq)]
struct ReadCost {
    /// Device reads by [`BlockKind::ALL`] (meta, inner, leaf, utility).
    reads: [u64; 4],
    device_ns: u64,
    buffer_hits: u64,
    readahead_hits: u64,
}

/// One row per `(setup, depth, design)` cell in iteration order. The
/// near-linear rows were recorded while every slot-by-slot walk still read
/// each slot through its own `Disk::read_ref`. The depth-1 rows of the B+-tree, ALEX and both hybrids were
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
///
/// The fourteen `fb` rows were recorded when they were added, before any
/// change to a design's inner levels: they are the first rows in which every
/// design reads routing blocks from the device. The two PGM `fb` rows were
/// re-recorded when its inner-level search became the one in-place window
/// search, which stops in the block holding the first record above the key
/// instead of reading the rest of the window: `Inner` reads fell 4 464 →
/// 2 453 at depth 1 (888.54 → 767.88 ms) and 4 400 → 2 417 at depth 8
/// (817.64 → 698.66 ms), with every other counter unchanged.
///
/// The four hybrid-modeltree rows were re-recorded when the model tree began
/// running on LIPP's node, whose first slots share block 0 with the header:
/// a level of a lookup reads one block where it read a header block and a
/// slot block. Near-linear depth 1: `Leaf` reads 901 → 880, pool hits 5 935
/// → 4 001, 88.46 → 86.36 ms. Depth 8: reads `[0, 1, 1110, 0]` →
/// `[0, 0, 1080, 0]`, pool hits 5 945 → 4 015, readahead hits 14 → 13,
/// 84.72 → 82.48 ms. `fb`: `Inner` reads 9 123 → 7 690 at both depths,
/// 1 126.92 → 1 031.26 ms at depth 1 and 1 075.68 → 980.02 ms at depth 8.
///
/// The four PGM rows were re-recorded when its batch became one wave
/// strategy at every depth whose data level reads the predicted block
/// first, stepping to a neighbouring block only when the key may lie there,
/// instead of every block of each ε-window. Every value fell or stayed.
/// Near-linear depth 1 (where the per-key loop with its pinned block ran
/// before): 522 → 517 reads, 50.08 → 49.74 ms, pool hits 2 327 → 2 325.
/// Depth 8: 571 → 567 reads, 47.40 → 47.30 ms, pool hits 2 348 → 2 339.
/// `fb` depth 1: `Inner` 2 453 → 2 417 (the inner levels' whole-window
/// waves read each block once), `Leaf` 7 369 → 7 318, 767.88 → 761.78 ms.
/// `fb` depth 8: `Leaf` 7 816 → 7 707, 698.66 → 697.50 ms.
///
/// The four FITing rows were re-recorded when its data probe began reading
/// the block holding the model's prediction first and stepping one way to a
/// neighbour only while the key may lie there (per key and in the batch),
/// and its batch became one wave strategy at every depth, reading predicted
/// blocks only. Only `Leaf` reads, device time and hits moved, and every
/// one fell. Near-linear depth 1 (where the per-key loop ran the batch
/// before): 581 → 466 reads, 56.30 → 46.04 ms, pool hits 4 799 → 4 102.
/// Depth 8: 662 → 552 reads, 54.08 → 44.06 ms, pool hits 4 714 → 4 111,
/// readahead hits 22 → 3 (the batch takes its frames from its own waves
/// instead of parking prefetched windows for a resolve pass).
/// `fb` depth 1: `Leaf` 7 391 → 3 884, 1 001.48 → 800.58 ms. `fb` depth 8:
/// `Leaf` 8 601 → 5 034, 937.26 → 737.36 ms, readahead hits 1 080 → 992.
///
/// The four ALEX rows were re-recorded when a data node's bitmap moved into
/// its header block, right after the 56-byte header, spilling into blocks
/// of its own only past `(block_size - 56)·8` slots. Lookups read what they
/// read before; a scan takes a node's bitmap bits from the header block its
/// load read, so it reads no bitmap block, and the slot block its search
/// read last is still the cursor's when the stream starts. `fb` depth 1:
/// `Leaf` 10 515 → 10 415, `Utility` 206 → 0, 1 202.22 → 1 175.14 ms. `fb`
/// depth 8: `Leaf` 12 957 → 12 813 (readahead had brought bitmap blocks in
/// under the demanding read's `Leaf` kind), readahead hits 3 244 → 3 028,
/// 996.54 → 986.74 ms. The near-linear rows rose: depth 1 reads 1 507 →
/// 2 314, 148.38 → 225.96 ms, pool hits 5 722 → 4 499; depth 8 reads 2 129
/// → 2 846, 135.82 → 213.32 ms. The layout is not at fault. These 16 data
/// nodes are now 8-block extents (9 before), and the pool picks a stripe as
/// `(file ^ block) & 7`, so all 16 header blocks map to one 8-frame stripe
/// of the 64-block pool and evict each other. With one stripe, an exact LRU
/// over all 64 frames (a scratch copy of both builds, `MAX_SHARDS = 1`),
/// depth 1 reads 1 483 → 1 381 blocks (146.10 → 135.78 ms) and depth 8
/// 2 095 → 1 827 (132.84 → 128.64 ms). The stripe function is ROADMAP item
/// 12's.
///
/// The four ALEX rows were re-recorded again when an inner node's child
/// entry began carrying its data child's capacity and model, so a point
/// lookup goes from the parent straight to the predicted slot block and
/// the batch drops its header wave: no lookup reads a data-node header any
/// more. Only `Leaf` reads, device time and pool hits moved, and every one
/// fell. Near-linear depth 1: 2 314 → 1 323 reads, 225.96 → 130.10 ms,
/// pool hits 4 499 → 3 474. Depth 8: 2 846 → 1 857 reads, 213.32 →
/// 118.20 ms, pool hits 4 499 → 3 474. `fb` depth 1: `Leaf` 10 415 →
/// 8 399, 1 175.14 → 974.14 ms; `fb` depth 8: `Leaf` 12 813 → 10 797,
/// 986.74 → 787.14 ms. `Inner` reads stay 3 004: the 24-byte entries still
/// fit each routing node in the blocks the 8-byte pointers did. The header
/// blocks gone from the near-linear rows' lookups were the ones the stripe
/// alias above made evict each other, so that alias now shows only on
/// ALEX's scans and inserts.
#[rustfmt::skip]
const READ_PATH_COST: [ReadCost; 28] = [
    // ssd, pool 64, depth 1, btree
    ReadCost { reads: [0, 0, 856, 0], device_ns: 84040000, buffer_hits: 3678, readahead_hits: 0 },
    // ssd, pool 64, depth 1, fiting
    ReadCost { reads: [0, 0, 466, 0], device_ns: 46040000, buffer_hits: 4102, readahead_hits: 0 },
    // ssd, pool 64, depth 1, pgm
    ReadCost { reads: [0, 0, 517, 0], device_ns: 49740000, buffer_hits: 2325, readahead_hits: 0 },
    // ssd, pool 64, depth 1, alex
    ReadCost { reads: [0, 0, 1323, 0], device_ns: 130100000, buffer_hits: 3474, readahead_hits: 0 },
    // ssd, pool 64, depth 1, lipp
    ReadCost { reads: [0, 0, 2558, 0], device_ns: 235760000, buffer_hits: 2482, readahead_hits: 0 },
    // ssd, pool 64, depth 1, hybrid-pla
    ReadCost { reads: [0, 0, 861, 0], device_ns: 84500000, buffer_hits: 3673, readahead_hits: 0 },
    // ssd, pool 64, depth 1, hybrid-modeltree
    ReadCost { reads: [0, 0, 880, 0], device_ns: 86360000, buffer_hits: 4001, readahead_hits: 0 },
    // ssd, pool 64, depth 8, btree
    ReadCost { reads: [0, 0, 1047, 0], device_ns: 80560000, buffer_hits: 3690, readahead_hits: 12 },
    // ssd, pool 64, depth 8, fiting
    ReadCost { reads: [0, 0, 552, 0], device_ns: 44060000, buffer_hits: 4111, readahead_hits: 3 },
    // ssd, pool 64, depth 8, pgm
    ReadCost { reads: [0, 0, 567, 0], device_ns: 47300000, buffer_hits: 2339, readahead_hits: 3 },
    // ssd, pool 64, depth 8, alex
    ReadCost { reads: [0, 0, 1857, 0], device_ns: 118200000, buffer_hits: 3474, readahead_hits: 143 },
    // ssd, pool 64, depth 8, lipp
    ReadCost { reads: [0, 0, 3311, 0], device_ns: 200400000, buffer_hits: 2481, readahead_hits: 562 },
    // ssd, pool 64, depth 8, hybrid-pla
    ReadCost { reads: [0, 0, 1051, 0], device_ns: 80820000, buffer_hits: 3687, readahead_hits: 12 },
    // ssd, pool 64, depth 8, hybrid-modeltree
    ReadCost { reads: [0, 0, 1080, 0], device_ns: 82480000, buffer_hits: 4015, readahead_hits: 13 },
    // fb, 512 B, no pool, depth 1, btree
    ReadCost { reads: [0, 4466, 3041, 0], device_ns: 718340000, buffer_hits: 0, readahead_hits: 0 },
    // fb, 512 B, no pool, depth 1, fiting
    ReadCost { reads: [0, 4633, 3884, 0], device_ns: 800580000, buffer_hits: 0, readahead_hits: 0 },
    // fb, 512 B, no pool, depth 1, pgm
    ReadCost { reads: [0, 2417, 7318, 0], device_ns: 761780000, buffer_hits: 0, readahead_hits: 0 },
    // fb, 512 B, no pool, depth 1, alex
    ReadCost { reads: [0, 3004, 8399, 0], device_ns: 974140000, buffer_hits: 0, readahead_hits: 0 },
    // fb, 512 B, no pool, depth 1, lipp
    ReadCost { reads: [0, 0, 33855, 0], device_ns: 2593220000, buffer_hits: 0, readahead_hits: 0 },
    // fb, 512 B, no pool, depth 1, hybrid-pla
    ReadCost { reads: [0, 7978, 3041, 0], device_ns: 929060000, buffer_hits: 0, readahead_hits: 0 },
    // fb, 512 B, no pool, depth 1, hybrid-modeltree
    ReadCost { reads: [0, 7690, 3041, 0], device_ns: 1031260000, buffer_hits: 0, readahead_hits: 0 },
    // fb, 512 B, no pool, depth 8, btree
    ReadCost { reads: [0, 4466, 3633, 0], device_ns: 667100000, buffer_hits: 0, readahead_hits: 808 },
    // fb, 512 B, no pool, depth 8, fiting
    ReadCost { reads: [0, 4633, 5034, 0], device_ns: 737360000, buffer_hits: 0, readahead_hits: 992 },
    // fb, 512 B, no pool, depth 8, pgm
    ReadCost { reads: [0, 2417, 7707, 0], device_ns: 697500000, buffer_hits: 0, readahead_hits: 1011 },
    // fb, 512 B, no pool, depth 8, alex
    ReadCost { reads: [0, 3004, 10797, 0], device_ns: 787140000, buffer_hits: 0, readahead_hits: 3028 },
    // fb, 512 B, no pool, depth 8, lipp
    ReadCost { reads: [0, 0, 38612, 0], device_ns: 1147760000, buffer_hits: 0, readahead_hits: 21361 },
    // fb, 512 B, no pool, depth 8, hybrid-pla
    ReadCost { reads: [0, 7978, 3633, 0], device_ns: 877820000, buffer_hits: 0, readahead_hits: 808 },
    // fb, 512 B, no pool, depth 8, hybrid-modeltree
    ReadCost { reads: [0, 7690, 3633, 0], device_ns: 980020000, buffer_hits: 0, readahead_hits: 808 },
];

/// The probes of one measured interval over `bulk`: 2 000 point lookups,
/// 200 scan starts and one 64-key batch, each half stored keys and half
/// arbitrary keys up to 1 000 past the largest.
fn probes(bulk: &[Entry]) -> (Vec<Key>, Vec<Key>, Vec<Key>) {
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
    let lookups = (0..2_000).map(&mut probe).collect();
    let scans = (0..200).map(&mut probe).collect();
    let batch = (0..64).map(&mut probe).collect();
    (lookups, scans, batch)
}

/// Bulk-loads `bulk` into `choice` on a disk built from `config`, runs the
/// [`probes`] from a cold access state each, like the harness runs them,
/// checks every answer against an oracle and returns the device work of the
/// interval after the bulk load, with the index for its preconditions.
fn measure(
    choice: IndexChoice,
    config: DiskConfig,
    bulk: &[Entry],
) -> (ReadCost, Box<dyn DiskIndex>) {
    let oracle: BTreeMap<Key, Value> = bulk.iter().copied().collect();
    let (lookups, scans, batch) = probes(bulk);
    let disk = Disk::in_memory(config);
    let mut index = choice.build(std::sync::Arc::clone(&disk));
    index.bulk_load(bulk).expect("bulk load");
    let before = disk.snapshot();
    for &k in &lookups {
        disk.reset_access_state();
        assert_eq!(index.lookup(k).expect("lookup"), oracle.get(&k).copied(), "key {k}");
    }
    let mut rows = Vec::new();
    for &start in &scans {
        disk.reset_access_state();
        index.scan(start, 100, &mut rows).expect("scan");
        let expected: Vec<Entry> = oracle.range(start..).take(100).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(rows, expected, "{choice:?} scan from {start}");
    }
    disk.reset_access_state();
    let mut answers = Vec::new();
    index.lookup_batch(&batch, &mut answers).expect("lookup_batch");
    let want: Vec<Option<Value>> = batch.iter().map(|k| oracle.get(k).copied()).collect();
    assert_eq!(answers, want, "{choice:?} batch answers");

    let io = disk.snapshot().since(&before);
    let cost = ReadCost {
        reads: BlockKind::ALL.map(|kind| io.reads_of(kind)),
        device_ns: io.device_ns,
        buffer_hits: io.buffer_hits,
        readahead_hits: io.readahead_hits,
    };
    (cost, index)
}

/// Cost pin: each design's lookups, scans and batch ([`measure`]) cost
/// exactly the device work recorded in [`READ_PATH_COST`], in two setups at
/// queue depths 1 and 8:
///
/// - 20 000 near-linear keys on 4 KiB blocks with a 64-block pool, where
///   routing is memory-resident or pooled;
/// - 20 000 `Dataset::Fb` keys (Table 3's hardest to model linearly) on
///   512-byte blocks with no pool, where every design has on-disk routing
///   levels. The precondition below keeps a later resize from hiding them.
#[test]
fn read_path_cost_is_pinned() {
    let linear: Vec<Entry> = (0..20_000u64).map(|i| (i * 16 + (i * 7_919) % 13, i)).collect();
    let fb = Dataset::Fb.generate(20_000, FB_SEED);
    let mut measured = Vec::new();
    let mut labels = Vec::new();
    for depth in [1, 8] {
        for choice in IndexChoice::ALL_DESIGNS {
            let config = DiskConfig::default()
                .device(DeviceModel::ssd())
                .buffer_blocks(64)
                .queue_depth(depth);
            measured.push(measure(choice, config, &linear).0);
            labels.push(format!("ssd, pool 64, depth {depth}, {}", choice.name()));
        }
    }
    for depth in [1, 8] {
        for choice in IndexChoice::ALL_DESIGNS {
            let config = DiskConfig::with_block_size(512)
                .device(DeviceModel::ssd())
                .buffer_blocks(0)
                .queue_depth(depth);
            let (cost, index) = measure(choice, config, &fb);
            let label = format!("fb, 512 B, no pool, depth {depth}, {}", choice.name());
            if choice == IndexChoice::Lipp {
                // LIPP charges every node, inner or not, as a leaf block.
                assert!(index.stats().height >= 2, "{label}: no node below the root");
            } else {
                assert!(cost.reads[1] > 0, "{label}: no on-disk inner level was read");
            }
            measured.push(cost);
            labels.push(label);
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
