//! `lookup_batch` ≡ sequential `lookup`, and `scan` ≡ the oracle, for
//! every index design.
//!
//! The batched lookup promises bit-for-bit the answers of a per-key loop,
//! for any input — hits, misses, duplicates, unsorted probes — regardless of
//! whether the index uses the default loop implementation or a specialised
//! override (B+-tree leaf-run sharing, PGM single-pass run + predicted-block
//! data waves). These
//! tests pin that contract for all seven `IndexChoice` designs,
//! deterministically and under proptest-generated workloads, and
//! additionally assert four storage invariants: lookups and batched lookups
//! never copy a block into a caller buffer (zero-copy), with or without a
//! buffer pool; a batch never fetches more blocks than the per-key loop over
//! the same probes; at queue depth 8 a batch overlaps its misses and costs
//! less simulated I/O than at depth 1, with the same answers; and every
//! design's scan path announces itself with scan-class reads (scan tagging,
//! which at queue depth 8 reads ahead without changing a scan's entries).

use std::collections::BTreeMap;

use lidx_core::{DiskIndex, Entry, IndexWrite, Key, Value};
use lidx_experiments::runner::{IndexChoice, RunConfig};
use lidx_storage::{BlockKind, DeviceModel, Disk, DiskConfig, OpStats};
use lidx_workloads::{Dataset, Op, Workload, WorkloadKind, WorkloadSpec};
use proptest::prelude::*;

fn build_loaded(choice: IndexChoice, entries: &[Entry]) -> Box<dyn DiskIndex> {
    let disk = RunConfig::default().make_disk();
    let mut index = choice.build(disk);
    index.bulk_load(entries).expect("bulk load");
    index
}

/// Asserts batch == sequential on `probes` and returns the batched answers,
/// with the device reads of the batched call and of the per-key loop.
fn check_equivalence(
    index: &dyn DiskIndex,
    choice: IndexChoice,
    probes: &[Key],
) -> (Vec<Option<Value>>, u64, u64) {
    let reads = || index.disk().stats().reads();
    let mut batched = Vec::new();
    let before = reads();
    index.lookup_batch(probes, &mut batched).expect("lookup_batch");
    let batch_reads = reads() - before;
    assert_eq!(batched.len(), probes.len(), "{choice:?} answer count");
    let before = reads();
    for (i, &p) in probes.iter().enumerate() {
        assert_eq!(batched[i], index.lookup(p).expect("lookup"), "{choice:?} probe {p}");
    }
    (batched, batch_reads, reads() - before)
}

#[test]
fn batch_matches_sequential_for_every_design() {
    let entries: Vec<Entry> = (0..20_000u64)
        .map(|i| i * 13 + (i % 19) * 5)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|k| (k, k + 1))
        .collect();
    let oracle: BTreeMap<Key, Value> = entries.iter().copied().collect();

    // Unsorted probes: interleaved hits, near-misses, extremes, duplicates.
    let mut probes: Vec<Key> = Vec::new();
    for &(k, _) in entries.iter().step_by(61) {
        probes.push(k);
        probes.push(k + 1);
    }
    probes.extend([0, u64::MAX, entries[40].0, entries[40].0, entries[40].0]);
    probes.reverse();

    for choice in IndexChoice::ALL_DESIGNS {
        let index = build_loaded(choice, &entries);
        let before = index.disk().snapshot();
        let (batched, batch_reads, sequential_reads) = check_equivalence(&*index, choice, &probes);
        let delta = index.disk().snapshot().since(&before);
        assert_eq!(
            delta.bytes_copied, 0,
            "{choice:?} lookup/batch hot paths must never copy blocks"
        );
        assert!(delta.frames_pinned > 0, "{choice:?} reads must pin frames");
        assert!(
            batch_reads <= sequential_reads,
            "{choice:?} batching must not fetch more blocks ({batch_reads} vs {sequential_reads})"
        );
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!(batched[i], oracle.get(&p).copied(), "{choice:?} oracle probe {p}");
        }
    }
}

#[test]
fn batch_matches_sequential_after_inserts() {
    // Inserts push keys through delta buffers / insert runs / gapped nodes,
    // so the batched path must agree with sequential reads against every
    // auxiliary structure, not just bulk-loaded data.
    let bulk: Vec<Entry> = (0..4_000u64).map(|i| (i * 10, i)).collect();
    let inserts: Vec<Entry> = (0..900u64).map(|i| (i * 40 + 7, 1_000_000 + i)).collect();
    let mut oracle: BTreeMap<Key, Value> = bulk.iter().copied().collect();
    for &(k, v) in &inserts {
        oracle.insert(k, v);
    }
    let probes: Vec<Key> =
        oracle.keys().step_by(17).copied().chain((0..50).map(|i| i * 123 + 1)).collect();

    for choice in IndexChoice::ALL_DESIGNS {
        let mut index = build_loaded(choice, &bulk);
        for &(k, v) in &inserts {
            index.insert(k, v).unwrap();
        }
        let (batched, _, _) = check_equivalence(&*index, choice, &probes);
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!(batched[i], oracle.get(&p).copied(), "{choice:?} oracle probe {p}");
        }
    }
}

/// The bulk load and lookup probes of a YCSB-like Lookup-Only workload.
fn lookup_workload(keys: usize, probes: usize, seed: u64) -> (Vec<Entry>, Vec<Key>) {
    let keys = Dataset::Ycsb.generate_keys(keys, seed);
    let w = Workload::build(&keys, WorkloadSpec::new(WorkloadKind::LookupOnly, probes, 0));
    let probes = w
        .ops
        .iter()
        .map(|op| match *op {
            Op::Lookup(k) => k,
            _ => unreachable!("a Lookup-Only workload holds lookups only"),
        })
        .collect();
    (w.bulk, probes)
}

/// Bulk loads `choice` on an HDD disk with a 64-frame pool and the given
/// outstanding-read queue depth, warms the pool with one per-key pass over
/// `probes`, then looks them up again — per key when `batch` is 1, else
/// through `lookup_batch` in chunks of `batch` — and returns the answers
/// with the I/O of that second pass.
fn warm_pass(
    choice: IndexChoice,
    entries: &[Entry],
    probes: &[Key],
    batch: usize,
    queue_depth: usize,
) -> (Vec<Option<Value>>, OpStats) {
    let config = DiskConfig::with_block_size(4096)
        .device(DeviceModel::hdd())
        .buffer_blocks(64)
        .queue_depth(queue_depth);
    let mut index = choice.build(Disk::in_memory(config));
    index.bulk_load(entries).expect("bulk load");
    for &k in probes {
        index.lookup(k).expect("warm lookup");
    }
    let disk = index.disk();
    disk.reset_access_state();
    let before = disk.snapshot();
    let mut answers = Vec::with_capacity(probes.len());
    if batch == 1 {
        for &k in probes {
            answers.push(index.lookup(k).expect("lookup"));
        }
    } else {
        let mut out = Vec::with_capacity(batch);
        for chunk in probes.chunks(batch) {
            index.lookup_batch(chunk, &mut out).expect("lookup_batch");
            answers.extend_from_slice(&out);
        }
    }
    (answers, disk.snapshot().since(&before))
}

#[test]
fn pool_hits_and_misses_stay_zero_copy_for_every_design() {
    // The zero-copy check above runs without a buffer pool. Here a 64-frame
    // pool holds part of the index: lookups and batches are served by pool
    // hits (an Arc clone of the frame) and by misses that fill the pool, and
    // neither path may copy a block into a caller buffer.
    let (entries, probes) = lookup_workload(40_000, 400, 5);
    let oracle: BTreeMap<Key, Value> = entries.iter().copied().collect();
    let want: Vec<Option<Value>> = probes.iter().map(|k| oracle.get(k).copied()).collect();
    assert!(want.iter().all(Option::is_some), "probes come from the bulk load");
    for choice in IndexChoice::ALL_DESIGNS {
        for batch in [1, 64] {
            let (answers, io) = warm_pass(choice, &entries, &probes, batch, 1);
            assert_eq!(answers, want, "{choice:?} batch {batch} answers");
            assert_eq!(io.bytes_copied, 0, "{choice:?} batch {batch} must be zero-copy");
            assert!(io.frames_pinned > 0, "{choice:?} batch {batch} must pin frames");
            assert!(io.buffer_hits > 0, "{choice:?} batch {batch}: the warm pool must hit");
            assert!(io.reads() > 0, "{choice:?} batch {batch}: the index must outgrow the pool");
        }
    }
}

#[test]
fn queue_depth_8_overlaps_batched_lookups_for_every_design() {
    let (entries, probes) = lookup_workload(20_000, 512, 7);
    let oracle: BTreeMap<Key, Value> = entries.iter().copied().collect();
    let want: Vec<Option<Value>> = probes.iter().map(|k| oracle.get(k).copied()).collect();
    for choice in IndexChoice::ALL_DESIGNS {
        let (d1, sync) = warm_pass(choice, &entries, &probes, 64, 1);
        let (d8, queued) = warm_pass(choice, &entries, &probes, 64, 8);
        assert_eq!(d1, want, "{choice:?} depth-1 answers");
        assert_eq!(d8, want, "{choice:?} queue depth must never change the answers");
        assert_eq!(sync.overlap_saved_ns, 0, "{choice:?} depth 1 must stay synchronous");
        assert!(queued.overlap_saved_ns > 0, "{choice:?} depth 8 must overlap waves");
        assert!(
            queued.device_ns < sync.device_ns,
            "{choice:?} outstanding reads must cut simulated I/O ({} vs {} ns)",
            queued.device_ns,
            sync.device_ns
        );
    }
}

/// The HDD disk the scan tests run on: 4 KiB blocks, a 16-block pool and the
/// given outstanding-read queue depth.
fn scan_disk_config(queue_depth: usize) -> DiskConfig {
    DiskConfig::with_block_size(4096)
        .device(DeviceModel::hdd())
        .buffer_blocks(16)
        .queue_depth(queue_depth)
}

#[test]
fn queue_depth_8_scans_match_depth_1_for_every_design() {
    // At depth > 1 a scan-class miss folds a readahead of the following
    // blocks into its fetch: the one thing the access class still changes.
    // It may change the cost of a scan, never its entries.
    let entries: Vec<Entry> = (0..20_000u64).map(|i| (i * 7 + 3, i)).collect();
    let ranges: Vec<(Key, usize)> = (0..40).map(|i| (entries[i * 487].0 - 1, 300)).collect();
    for choice in IndexChoice::ALL_DESIGNS {
        let scans = |depth| {
            let mut index = choice.build(Disk::in_memory(scan_disk_config(depth)));
            index.bulk_load(&entries).expect("bulk load");
            let disk = index.disk();
            disk.reset_access_state();
            let before = disk.snapshot();
            let mut out = Vec::new();
            let rows: Vec<Vec<Entry>> = ranges
                .iter()
                .map(|&(start, count)| {
                    index.scan(start, count, &mut out).expect("scan");
                    out.clone()
                })
                .collect();
            (rows, disk.snapshot().since(&before))
        };
        let (d1, sync) = scans(1);
        let (d8, queued) = scans(8);
        for (i, &(start, count)) in ranges.iter().enumerate() {
            let from = entries.partition_point(|&(k, _)| k < start);
            assert_eq!(d1[i], entries[from..from + count], "{choice:?} depth-1 range {i}");
        }
        assert_eq!(d8, d1, "{choice:?} queue depth must never change a scan's entries");
        assert!(sync.scan_reads > 0 && queued.scan_reads > 0, "{choice:?} scans must tag reads");
        assert_eq!(sync.readahead_hits, 0, "{choice:?} depth 1 never reads ahead");
        if choice == IndexChoice::BTree {
            assert!(
                queued.readahead_hits > 0,
                "the B+-tree's contiguous leaf chain must be read ahead at depth 8"
            );
        }
    }
}

#[test]
fn empty_and_degenerate_batches() {
    for choice in IndexChoice::ALL_DESIGNS {
        let index = build_loaded(choice, &[(5, 6), (9, 10)]);
        let mut out = vec![Some(1), Some(2)];
        index.lookup_batch(&[], &mut out).unwrap();
        assert!(out.is_empty(), "{choice:?} empty batch must clear out");
        index.lookup_batch(&[9, 9, 9, 9], &mut out).unwrap();
        assert_eq!(out, vec![Some(10); 4], "{choice:?} all-duplicate batch");
        index.lookup_batch(&[u64::MAX], &mut out).unwrap();
        assert_eq!(out, vec![None], "{choice:?} single miss");
    }
}

#[test]
fn every_design_tags_its_scan_reads() {
    let entries: Vec<Entry> = (0..6_000u64).map(|i| (i * 7, i)).collect();
    for choice in IndexChoice::ALL_DESIGNS {
        let index = build_loaded(choice, &entries);
        let mut out = Vec::new();
        let before = index.disk().stats().scan_reads();
        index.scan(entries[100].0, 500, &mut out).expect("scan");
        assert_eq!(out.len(), 500, "{choice:?}");
        assert!(
            index.disk().stats().scan_reads() > before,
            "{choice:?} scan paths must issue scan-class reads"
        );
        // Point lookups must NOT be tagged as scans.
        let tagged = index.disk().stats().scan_reads();
        index.lookup(entries[3_000].0).expect("lookup");
        assert_eq!(
            index.disk().stats().scan_reads(),
            tagged,
            "{choice:?} lookups must stay point-class"
        );
    }

    // The scan rule: every data block a scan reads — the descent's last hop
    // to its first data block included — is a scan read, and nothing else
    // is. With no pool and memory-resident `Inner`/`Meta` blocks, every scan
    // read is a device read of a `Leaf` or `Utility` block and vice versa.
    // The first start lies inside a single data block, past the minimum.
    let starts = [entries[10].0, entries[2_345].0 + 1, entries[5_000].0];
    for choice in IndexChoice::ALL_DESIGNS {
        let disk = Disk::in_memory(
            DiskConfig::default()
                .buffer_blocks(0)
                .queue_depth(1)
                .memory_resident(&[BlockKind::Inner, BlockKind::Meta]),
        );
        let mut index = choice.build(disk);
        index.bulk_load(&entries).expect("bulk load");
        let mut out = Vec::new();
        for start in starts {
            let disk = index.disk();
            disk.reset_access_state();
            let before = disk.snapshot();
            index.scan(start, 100, &mut out).expect("scan");
            assert_eq!(out.len(), 100, "{choice:?} scan from {start}");
            let io = disk.snapshot().since(&before);
            let data_reads = io.reads_of(BlockKind::Leaf) + io.reads_of(BlockKind::Utility);
            assert_eq!(
                io.scan_reads, data_reads,
                "{choice:?} scan from {start}: {} of {data_reads} data reads tagged scan-class",
                io.scan_reads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Property: for random bulk loads, random insert batches and random
    /// unsorted probe sets (with duplicates), `lookup_batch` returns exactly
    /// what per-key `lookup` returns, for every one of the seven designs.
    #[test]
    fn random_batches_match_sequential_lookups(
        bulk_keys in proptest::collection::btree_set(0u64..500_000, 30..300),
        insert_keys in proptest::collection::btree_set(0u64..500_000, 0..120),
        probes in proptest::collection::vec(0u64..600_000, 1..120),
    ) {
        let bulk: Vec<Entry> = bulk_keys.iter().map(|&k| (k, k + 1)).collect();
        let mut oracle: BTreeMap<Key, Value> = bulk.iter().copied().collect();
        let inserts: Vec<Entry> = insert_keys.iter().map(|&k| (k, k + 2)).collect();
        for &(k, v) in &inserts {
            oracle.insert(k, v);
        }
        // Probe both random keys and guaranteed hits (hits, misses,
        // duplicates, unsorted order all arise from the generator).
        let mut probes = probes;
        probes.extend(bulk_keys.iter().step_by(7));

        for choice in IndexChoice::ALL_DESIGNS {
            let mut index = build_loaded(choice, &bulk);
            for &(k, v) in &inserts {
                index.insert(k, v).unwrap();
            }
            let mut batched = Vec::new();
            index.lookup_batch(&probes, &mut batched).expect("lookup_batch");
            prop_assert_eq!(batched.len(), probes.len());
            for (i, &p) in probes.iter().enumerate() {
                let sequential = index.lookup(p).expect("lookup");
                prop_assert_eq!(batched[i], sequential, "{:?} probe {}", choice, p);
                prop_assert_eq!(batched[i], oracle.get(&p).copied(), "{:?} oracle {}", choice, p);
            }
        }
    }

    /// Property: for random bulk loads and random (possibly overlapping,
    /// unsorted, duplicate, empty or past-the-end) ranges, each `scan`
    /// matches the oracle — for every design, on a disk at queue depth 8
    /// with a 16-block pool, so scan-class misses take the readahead path,
    /// the one place the access class changes what a read does.
    #[test]
    fn random_ranges_scan_like_the_oracle_with_readahead(
        bulk_keys in proptest::collection::btree_set(0u64..200_000, 30..250),
        ranges in proptest::collection::vec((0u64..250_000, 0usize..80), 1..12),
    ) {
        let bulk: Vec<Entry> = bulk_keys.iter().map(|&k| (k, k + 1)).collect();
        let oracle: Vec<Entry> = bulk.clone();
        for choice in IndexChoice::ALL_DESIGNS {
            let mut index = choice.build(Disk::in_memory(scan_disk_config(8)));
            index.bulk_load(&bulk).expect("bulk load");
            let mut single = Vec::new();
            for (i, &(start, count)) in ranges.iter().enumerate() {
                index.scan(start, count, &mut single).expect("scan");
                let from = oracle.partition_point(|&(k, _)| k < start);
                let expected: Vec<Entry> =
                    oracle[from..].iter().take(count).copied().collect();
                prop_assert_eq!(&single, &expected, "{:?} oracle range {}", choice, i);
            }
        }
    }
}
