//! `insert_batch` ≡ sequential `insert` and `WriteBuffer` ≡ direct inserts,
//! for every index design.
//!
//! The batched write APIs promise the *logical* outcome of the per-entry
//! loop, for any input — fresh keys, overwrites of stored keys, in-batch
//! duplicates (later wins), unsorted order — regardless of whether the
//! design uses the default loop or a specialised override (B+-tree leaf-run
//! insert, FITing-tree delta-buffer fill, PGM run-append, hybrid dense-leaf
//! append with the deferred directory rebuild). The `WriteBuffer` adds the
//! overlay contract on top: while entries are staged, every lookup, batched
//! lookup and scan must answer newest-wins, exactly as if the entries had
//! been inserted directly. These tests pin both contracts for all seven
//! `IndexChoice` designs, deterministically and under proptest-generated
//! workloads, and additionally pin the satellite fix that every design
//! reports a real (non-zero) insert-step breakdown.

use std::collections::BTreeMap;

use lidx_core::{
    DiskIndex, Entry, IndexWrite, InsertStep, Key, Value, WriteBuffer, WriteBufferConfig,
};
use lidx_experiments::runner::{IndexChoice, RunConfig};
use proptest::prelude::*;

fn build_loaded(choice: IndexChoice, entries: &[Entry]) -> Box<dyn DiskIndex> {
    let disk = RunConfig::default().make_disk();
    let mut index = choice.build(disk);
    index.bulk_load(entries).expect("bulk load");
    index
}

/// Checks that `index` agrees with `oracle` on every oracle key, a spread of
/// misses, and a full scan.
fn check_against_oracle(index: &dyn DiskIndex, oracle: &BTreeMap<Key, Value>, label: &str) {
    let keys: Vec<Key> = oracle.keys().copied().collect();
    let mut answers = Vec::new();
    index.lookup_batch(&keys, &mut answers).expect("lookup_batch");
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(answers[i], oracle.get(&k).copied(), "{label} key {k}");
    }
    for &k in keys.iter().step_by(7) {
        let miss = k + 1;
        if !oracle.contains_key(&miss) {
            assert_eq!(index.lookup(miss).expect("lookup"), None, "{label} miss {miss}");
        }
    }
    let mut scanned = Vec::new();
    index.scan(0, oracle.len() + 16, &mut scanned).expect("scan");
    let expected: Vec<Entry> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(scanned, expected, "{label} full scan");
}

/// A deterministic batch exercising every interesting shape: fresh keys,
/// overwrites of bulk keys, in-batch duplicates, unsorted order.
fn mixed_batch(bulk: &[Entry]) -> Vec<Entry> {
    // Key 45 collides with neither generator (batch keys are ≡ 2 mod 21,
    // bulk keys ≡ 1 mod 9); after the reverse, (45, 1) is the later
    // occurrence and must win.
    let mut batch: Vec<Entry> = (0..400u64).map(|i| (i * 21 + 2, 1_000_000 + i)).collect();
    batch.extend(bulk.iter().step_by(97).map(|&(k, _)| (k, 7_777_777)));
    batch.push((45, 1));
    batch.push((45, 2));
    batch.reverse();
    batch
}

fn apply_to_oracle(oracle: &mut BTreeMap<Key, Value>, batch: &[Entry]) {
    for &(k, v) in batch {
        oracle.insert(k, v);
    }
}

#[test]
fn insert_batch_matches_sequential_for_every_design() {
    let bulk: Vec<Entry> = (0..5_000u64).map(|i| (i * 9 + 1, i)).collect();
    let batch = mixed_batch(&bulk);
    let mut oracle: BTreeMap<Key, Value> = bulk.iter().copied().collect();
    apply_to_oracle(&mut oracle, &batch);

    for choice in IndexChoice::ALL_DESIGNS {
        let mut batched = build_loaded(choice, &bulk);
        batched.insert_batch(&batch).expect("insert_batch");
        let mut sequential = build_loaded(choice, &bulk);
        for &(k, v) in &batch {
            sequential.insert(k, v).expect("insert");
        }
        check_against_oracle(&*batched, &oracle, &format!("{choice:?} batched"));
        check_against_oracle(&*sequential, &oracle, &format!("{choice:?} sequential"));
        assert_eq!(
            batched.len(),
            sequential.len(),
            "{choice:?} batched and sequential key counts must agree"
        );
        assert_eq!(batched.lookup(45).expect("lookup"), Some(1), "{choice:?} later dup wins");
    }
}

#[test]
fn write_buffer_matches_direct_inserts_with_newest_wins_overlay() {
    let bulk: Vec<Entry> = (0..4_000u64).map(|i| (i * 11 + 3, i)).collect();
    let batch = mixed_batch(&bulk);
    let mut oracle: BTreeMap<Key, Value> = bulk.iter().copied().collect();

    for choice in IndexChoice::ALL_DESIGNS {
        // Capacity larger than the batch: everything stays staged, so the
        // overlay serves every read until the explicit flush.
        let mut buffered = WriteBuffer::new(
            build_loaded(choice, &bulk),
            WriteBufferConfig { capacity: batch.len() + 1, drain: 64 },
        );
        let mut direct = build_loaded(choice, &bulk);
        let mut mid_oracle = oracle.clone();
        for (i, &(k, v)) in batch.iter().enumerate() {
            buffered.insert(k, v).expect("buffered insert");
            direct.insert(k, v).expect("direct insert");
            mid_oracle.insert(k, v);
            // Interleaved mid-buffer reads: staged entries must be visible,
            // newest-wins, through lookup, lookup_batch and scan.
            if i % 97 == 0 {
                use lidx_core::IndexRead;
                assert_eq!(
                    buffered.lookup(k).expect("mid lookup"),
                    Some(v),
                    "{choice:?} staged key {k} invisible mid-buffer"
                );
                let mut rows = Vec::new();
                buffered.scan(k.saturating_sub(5), 8, &mut rows).expect("mid scan");
                let expected: Vec<Entry> = mid_oracle
                    .range(k.saturating_sub(5)..)
                    .take(8)
                    .map(|(&ok, &ov)| (ok, ov))
                    .collect();
                assert_eq!(rows, expected, "{choice:?} mid-buffer scan at {k}");
            }
        }
        assert!(buffered.staged_len() > 0, "{choice:?} entries must still be staged");
        apply_to_oracle(&mut oracle, &batch);
        check_against_oracle(&buffered, &oracle, &format!("{choice:?} overlaid"));

        // Drain and compare against the direct index: identical content.
        buffered.flush().expect("flush");
        assert_eq!(buffered.staged_len(), 0);
        let drained = buffered.into_inner().expect("into_inner");
        check_against_oracle(&*drained, &oracle, &format!("{choice:?} drained"));
        check_against_oracle(&*direct, &oracle, &format!("{choice:?} direct"));
        assert_eq!(drained.len(), direct.len(), "{choice:?} drained vs direct key count");
        oracle = bulk.iter().copied().collect();
    }
}

#[test]
fn write_buffer_auto_drains_at_capacity_through_insert_batch() {
    for choice in IndexChoice::ALL_DESIGNS {
        let bulk: Vec<Entry> = (0..1_000u64).map(|i| (i * 13, i)).collect();
        let mut buffered = WriteBuffer::new(
            build_loaded(choice, &bulk),
            WriteBufferConfig { capacity: 64, drain: 32 },
        );
        for i in 0..300u64 {
            buffered.insert(i * 13 + 5, i).expect("insert");
        }
        use lidx_core::IndexRead;
        assert!(buffered.staged_len() < 64, "{choice:?} auto-drains must have fired");
        let b = buffered.insert_breakdown();
        assert!(b.drains >= 4, "{choice:?} expected >= 4 drains, saw {}", b.drains);
        assert_eq!(b.drained_entries + buffered.staged_len() as u64, 300, "{choice:?}");
        // Every inserted key is findable whether it drained or is staged.
        for i in (0..300u64).step_by(23) {
            assert_eq!(buffered.lookup(i * 13 + 5).expect("lookup"), Some(i), "{choice:?}");
        }
    }
}

/// Asserts that the step breakdown accumulated since `steps_before` accounts
/// for exactly the I/O the disk recorded since `io_before`: no read, write
/// or nanosecond of a write path may fall between two steps.
fn assert_steps_sum_to_disk_io(
    index: &dyn DiskIndex,
    steps_before: &lidx_core::InsertBreakdown,
    io_before: &lidx_storage::OpStats,
    label: &str,
) {
    let steps = index.insert_breakdown().since(steps_before);
    let io = index.disk().snapshot().since(io_before);
    let total = |of: fn(&lidx_core::InsertBreakdown, InsertStep) -> u64| {
        InsertStep::ALL.iter().map(|&step| of(&steps, step)).sum::<u64>()
    };
    assert_eq!(total(lidx_core::InsertBreakdown::reads), io.reads(), "{label}: reads");
    assert_eq!(total(lidx_core::InsertBreakdown::writes), io.writes(), "{label}: writes");
    assert_eq!(steps.total_ns(), io.device_ns, "{label}: device time");
}

#[test]
fn every_design_reports_a_real_insert_breakdown() {
    // The satellite fix: `insert_breakdown` moved onto `IndexWrite` with no
    // silently-zero default, so after inserts every design must report its
    // insert count and a non-zero search cost (every write path starts by
    // locating the key's position on disk) — and the four steps must add up
    // to everything the disk did since the bulk load, for per-key inserts
    // and for a multi-entry batch alike (ALEX used to drop a failed fill
    // attempt and its cached-leaf routing read between steps).
    let bulk: Vec<Entry> = (0..3_000u64).map(|i| (i * 7, i)).collect();
    for choice in IndexChoice::ALL_DESIGNS {
        let mut index = build_loaded(choice, &bulk);
        let steps_before = index.insert_breakdown();
        let io_before = index.disk().snapshot();
        for i in 0..200u64 {
            index.insert(i * 7 + 3, i).expect("insert");
        }
        let b = index.insert_breakdown();
        assert_eq!(b.inserts, 200, "{choice:?} must count every insert");
        assert!(
            b.device_ns(InsertStep::Search) > 0,
            "{choice:?} must attribute non-zero search time"
        );
        assert!(b.reads(InsertStep::Search) > 0, "{choice:?} search must fetch blocks");
        assert!(b.total_ns() >= b.device_ns(InsertStep::Search));
        assert_eq!(b.drains, 0, "{choice:?} a bare index never drains");
        assert_steps_sum_to_disk_io(
            &*index,
            &steps_before,
            &io_before,
            &format!("{choice:?} per-key"),
        );

        // The batched path must keep counting per-entry. Dense enough to
        // overfill nodes mid-batch, so SMOs and retries are in the sum.
        let batch: Vec<Entry> = (0..3_000u64).map(|i| (i * 7 + 4 + i % 2, i)).collect();
        index.insert_batch(&batch).expect("insert_batch");
        assert_eq!(index.insert_breakdown().inserts, 3_200, "{choice:?} batch coverage");
        assert_steps_sum_to_disk_io(
            &*index,
            &steps_before,
            &io_before,
            &format!("{choice:?} batch"),
        );
    }
}

#[test]
fn empty_batches_and_uninitialised_indexes_error_cleanly() {
    for choice in IndexChoice::ALL_DESIGNS {
        let mut index = build_loaded(choice, &[(5, 6)]);
        index.insert_batch(&[]).expect("empty batch is a no-op");
        assert_eq!(index.len(), 1);

        let disk = RunConfig::default().make_disk();
        let mut fresh = choice.build(disk);
        assert!(
            fresh.insert_batch(&[(1, 2)]).is_err(),
            "{choice:?} insert_batch before bulk_load must fail"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Property: for random bulk loads and random insert streams (duplicate
    /// keys and bulk-key overwrites included), every partition of the stream
    /// into consecutive `insert_batch` calls leaves exactly the content of
    /// the `BTreeMap` oracle, for every design: the whole stream as one
    /// batch, a proptest-drawn partition into batches of sizes 1..=n, and
    /// the all-ones partition through `insert` — the per-key loop is just
    /// one more partition.
    #[test]
    fn random_insert_batches_match_sequential(
        bulk_keys in proptest::collection::btree_set(0u64..400_000, 20..200),
        batch_keys in proptest::collection::vec(0u64..450_000, 1..150),
        cut_sizes in proptest::collection::vec(1usize..40, 150),
    ) {
        let bulk: Vec<Entry> = bulk_keys.iter().map(|&k| (k, k + 1)).collect();
        let stream: Vec<Entry> =
            batch_keys.iter().enumerate().map(|(i, &k)| (k, 2_000_000 + i as u64)).collect();
        let mut oracle: BTreeMap<Key, Value> = bulk.iter().copied().collect();
        apply_to_oracle(&mut oracle, &stream);
        let probes: Vec<Key> = oracle.keys().copied().collect();
        let expected: Vec<Entry> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        // `cut_sizes` has one size per stream entry at most, so it always
        // covers the stream; the last batch is clipped to what is left.
        let partitions: [(&str, &[usize]); 3] =
            [("one batch", &[stream.len()]), ("drawn partition", &cut_sizes), ("per key", &[])];
        for choice in IndexChoice::ALL_DESIGNS {
            for (label, sizes) in partitions {
                let mut index = build_loaded(choice, &bulk);
                if sizes.is_empty() {
                    for &(k, v) in &stream {
                        index.insert(k, v).expect("insert");
                    }
                } else {
                    let mut rest = &stream[..];
                    for &size in sizes {
                        let (batch, tail) = rest.split_at(size.min(rest.len()));
                        index.insert_batch(batch).expect("insert_batch");
                        rest = tail;
                    }
                    prop_assert!(rest.is_empty());
                }
                let mut answers = Vec::new();
                index.lookup_batch(&probes, &mut answers).expect("lookup_batch");
                for (i, &k) in probes.iter().enumerate() {
                    prop_assert_eq!(
                        answers[i], oracle.get(&k).copied(), "{:?} {} key {}", choice, label, k
                    );
                }
                let mut scanned = Vec::new();
                index.scan(0, oracle.len() + 8, &mut scanned).expect("scan");
                prop_assert_eq!(&scanned, &expected, "{:?} {} full scan", choice, label);
            }
        }
    }

    /// Property: a `WriteBuffer` (small capacity, so drains interleave with
    /// staging) over random inserts reads newest-wins mid-stream and
    /// matches the direct index after the final flush, for every design.
    #[test]
    fn random_write_buffer_runs_match_direct_inserts(
        bulk_keys in proptest::collection::btree_set(0u64..300_000, 20..150),
        inserts in proptest::collection::vec((0u64..350_000, 0u64..1_000), 1..120),
        capacity in 4usize..48,
    ) {
        let bulk: Vec<Entry> = bulk_keys.iter().map(|&k| (k, k + 1)).collect();
        let mut oracle: BTreeMap<Key, Value> = bulk.iter().copied().collect();
        for choice in IndexChoice::ALL_DESIGNS {
            let mut buffered = WriteBuffer::new(
                build_loaded(choice, &bulk),
                WriteBufferConfig { capacity, drain: capacity.div_ceil(2) },
            );
            let mut direct = build_loaded(choice, &bulk);
            let mut mid = oracle.clone();
            for (i, &(k, v)) in inserts.iter().enumerate() {
                buffered.insert(k, v).expect("buffered insert");
                direct.insert(k, v).expect("direct insert");
                mid.insert(k, v);
                if i % 13 == 0 {
                    use lidx_core::IndexRead;
                    prop_assert_eq!(
                        buffered.lookup(k).expect("mid lookup"),
                        Some(v),
                        "{:?} staged or drained key {} must read newest-wins",
                        choice,
                        k
                    );
                    let mut rows = Vec::new();
                    buffered.scan(k, 5, &mut rows).expect("mid scan");
                    let expected: Vec<Entry> =
                        mid.range(k..).take(5).map(|(&ok, &ov)| (ok, ov)).collect();
                    prop_assert_eq!(&rows, &expected, "{:?} mid scan at {}", choice, k);
                }
            }
            let drained = buffered.into_inner().expect("into_inner");
            let probes: Vec<Key> = mid.keys().copied().collect();
            let mut a = Vec::new();
            let mut b = Vec::new();
            drained.lookup_batch(&probes, &mut a).expect("drained lookups");
            direct.lookup_batch(&probes, &mut b).expect("direct lookups");
            prop_assert_eq!(&a, &b, "{:?} drained vs direct answers", choice);
            for (i, &k) in probes.iter().enumerate() {
                prop_assert_eq!(a[i], mid.get(&k).copied(), "{:?} oracle key {}", choice, k);
            }
        }
        oracle.clear();
    }

    /// Property: a [`ShardedWriteBuffer`] with a tiny per-shard capacity (so
    /// threshold drains fire constantly mid-stream) answers every interleaved
    /// lookup and scan newest-wins — visibility never regresses across the
    /// stage → drain-chunk → reconcile windows — and matches the oracle
    /// exactly after the final flush, for every design.
    #[test]
    fn random_sharded_buffer_overlay_reads_never_regress(
        bulk_keys in proptest::collection::btree_set(0u64..300_000, 20..150),
        inserts in proptest::collection::vec((0u64..350_000, 0u64..1_000), 1..120),
        capacity in 4usize..32,
        shards in 1usize..6,
    ) {
        use lidx_core::{IndexRead, ShardedWriteBuffer, ShardedWriteBufferConfig};
        let bulk: Vec<Entry> = bulk_keys.iter().map(|&k| (k, k + 1)).collect();
        let oracle: BTreeMap<Key, Value> = bulk.iter().copied().collect();
        for choice in IndexChoice::ALL_DESIGNS {
            let buffer = ShardedWriteBuffer::new(
                build_loaded(choice, &bulk),
                ShardedWriteBufferConfig { capacity, drain: capacity.div_ceil(2), shards },
            );
            let mut mid = oracle.clone();
            for (i, &(k, v)) in inserts.iter().enumerate() {
                buffer.stage(k, v).expect("stage");
                mid.insert(k, v);
                // Interleave reads with the threshold drains: the staged
                // key, an unrelated older key, and a scan crossing shard
                // boundaries must all answer newest-wins.
                prop_assert_eq!(
                    buffer.lookup(k).expect("mid lookup"),
                    Some(v),
                    "{:?} key {} invisible mid-drain",
                    choice,
                    k
                );
                if i % 7 == 0 {
                    let probe = bulk[i % bulk.len()].0;
                    prop_assert_eq!(
                        buffer.lookup(probe).expect("old lookup"),
                        mid.get(&probe).copied(),
                        "{:?} bulk key {} regressed",
                        choice,
                        probe
                    );
                    let start = k.saturating_sub(1_000);
                    let mut rows = Vec::new();
                    buffer.scan(start, 8, &mut rows).expect("mid scan");
                    let expected: Vec<Entry> =
                        mid.range(start..).take(8).map(|(&ok, &ov)| (ok, ov)).collect();
                    prop_assert_eq!(&rows, &expected, "{:?} mid scan at {}", choice, start);
                }
            }
            buffer.flush().expect("final flush");
            prop_assert_eq!(buffer.staged_len(), 0, "{:?} flush must empty every shard", choice);
            let probes: Vec<Key> = mid.keys().copied().collect();
            let mut answers = Vec::new();
            buffer.lookup_batch(&probes, &mut answers).expect("final lookups");
            for (i, &k) in probes.iter().enumerate() {
                prop_assert_eq!(answers[i], mid.get(&k).copied(), "{:?} final key {}", choice, k);
            }
            let mut scanned = Vec::new();
            buffer.scan(0, mid.len() + 16, &mut scanned).expect("final scan");
            let expected: Vec<Entry> = mid.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(&scanned, &expected, "{:?} final scan", choice);
        }
    }
}

/// What the measured interval of [`per_key_insert_cost_is_pinned`] cost.
#[derive(Debug, PartialEq, Eq)]
struct InsertCost {
    /// Device reads by [`BlockKind::ALL`] (meta, inner, leaf, utility).
    reads: [u64; 4],
    /// Device writes by [`BlockKind::ALL`].
    writes: [u64; 4],
    device_ns: u64,
    smo_count: u64,
    storage_blocks: u64,
    /// `[device_ns, reads, writes]` by [`InsertStep::ALL`] (search, insert,
    /// smo, maintenance).
    steps: [[u64; 3]; 4],
}

/// Recorded at the last commit whose designs carried a hand-written per-key
/// `insert` body, one row per `(storage, design)` cell in iteration order.
/// The two ALEX rows were recorded again when ALEX's insert began shifting
/// toward the closest gap and expanding a node only at its density bound
/// (66 SMOs and 3 045 blocks before, 4 and 103 after). The two LIPP rows
/// were recorded again when a LIPP node began keeping its first slots in its
/// header block: a two-key conflict child is one block instead of two, so
/// on the HDD reads fell 4 759 → 4 315, writes 4 837 → 4 470 and blocks
/// 884 → 516, with the same 361 SMOs and the same Maintenance step (0
/// reads, 2 101 header writes). The seven `fb` rows were recorded when they
/// were added, before any change to a design's inner levels.
#[rustfmt::skip]
const PER_KEY_INSERT_COST: [InsertCost; 21] = [
    // hdd, no pool, btree
    InsertCost { reads: [0, 2024, 2000, 0], writes: [0, 24, 2024, 0], device_ns: 60512100000, smo_count: 24, storage_blocks: 51, steps: [[39792100000, 4000, 0], [19760000000, 0, 1976], [960000000, 24, 72], [0, 0, 0]] },
    // hdd, no pool, fiting
    InsertCost { reads: [0, 3821, 7927, 24], writes: [0, 1846, 4903, 25], device_ns: 146028300000, smo_count: 7, storage_blocks: 202, steps: [[58215700000, 6868, 0], [85886500000, 4729, 6597], [1926100000, 175, 177], [0, 0, 0]] },
    // hdd, no pool, pgm
    InsertCost { reads: [0, 0, 8, 3204], writes: [0, 0, 15, 3208], device_ns: 52331400000, smo_count: 3, storage_blocks: 30, steps: [[20080800000, 3204, 0], [32050000000, 0, 3205], [200600000, 8, 18], [0, 0, 0]] },
    // hdd, no pool, alex
    InsertCost { reads: [0, 4012, 5925, 1875], writes: [0, 4, 4061, 1875], device_ns: 175084600000, smo_count: 4, storage_blocks: 103, steps: [[60100200000, 6012, 0], [95431200000, 5758, 3995], [843200000, 42, 74], [18710000000, 0, 1871]] },
    // hdd, no pool, lipp
    InsertCost { reads: [0, 0, 4315, 0], writes: [0, 0, 4470, 0], device_ns: 87701500000, smo_count: 361, storage_blocks: 516, steps: [[41971500000, 4212, 0], [16400000000, 0, 1640], [8320000000, 103, 729], [21010000000, 0, 2101]] },
    // hdd, no pool, hybrid-pla
    InsertCost { reads: [0, 2000, 2000, 0], writes: [0, 24, 2024, 0], device_ns: 60480000000, smo_count: 24, storage_blocks: 74, steps: [[40000000000, 4000, 0], [19760000000, 0, 1976], [720000000, 0, 72], [0, 0, 0]] },
    // hdd, no pool, hybrid-modeltree
    InsertCost { reads: [0, 4000, 2000, 0], writes: [0, 48, 2024, 0], device_ns: 60920000000, smo_count: 24, storage_blocks: 99, steps: [[40200000000, 6000, 0], [19760000000, 0, 1976], [960000000, 0, 96], [0, 0, 0]] },
    // ssd, pool 64, btree
    InsertCost { reads: [0, 0, 0, 0], writes: [0, 24, 2024, 0], device_ns: 245760000, smo_count: 24, storage_blocks: 51, steps: [[0, 0, 0], [237120000, 0, 1976], [8640000, 0, 72], [0, 0, 0]] },
    // ssd, pool 64, fiting
    InsertCost { reads: [0, 0, 0, 0], writes: [0, 1846, 4903, 25], device_ns: 812880000, smo_count: 7, storage_blocks: 202, steps: [[0, 0, 0], [791640000, 0, 6597], [21240000, 0, 177], [0, 0, 0]] },
    // ssd, pool 64, pgm
    InsertCost { reads: [0, 0, 0, 0], writes: [0, 0, 15, 3208], device_ns: 386760000, smo_count: 3, storage_blocks: 30, steps: [[0, 0, 0], [384600000, 0, 3205], [2160000, 0, 18], [0, 0, 0]] },
    // ssd, pool 64, alex
    InsertCost { reads: [0, 0, 76, 0], writes: [0, 4, 4061, 1875], device_ns: 720400000, smo_count: 4, storage_blocks: 103, steps: [[0, 0, 0], [486900000, 75, 3995], [8980000, 1, 74], [224520000, 0, 1871]] },
    // ssd, pool 64, lipp
    InsertCost { reads: [0, 0, 1468, 0], writes: [0, 0, 4470, 0], device_ns: 683160000, smo_count: 361, storage_blocks: 516, steps: [[143660000, 1437, 0], [196800000, 0, 1640], [90580000, 31, 729], [252120000, 0, 2101]] },
    // ssd, pool 64, hybrid-pla
    InsertCost { reads: [0, 0, 0, 0], writes: [0, 24, 2024, 0], device_ns: 245760000, smo_count: 24, storage_blocks: 74, steps: [[0, 0, 0], [237120000, 0, 1976], [8640000, 0, 72], [0, 0, 0]] },
    // ssd, pool 64, hybrid-modeltree
    InsertCost { reads: [0, 0, 0, 0], writes: [0, 48, 2024, 0], device_ns: 248640000, smo_count: 24, storage_blocks: 99, steps: [[0, 0, 0], [237120000, 0, 1976], [11520000, 0, 96], [0, 0, 0]] },
    // fb, 512 B, ssd, no pool, btree
    InsertCost { reads: [0, 4098, 2000, 0], writes: [0, 101, 2095, 0], device_ns: 871800000, smo_count: 98, storage_blocks: 959, steps: [[598480000, 6000, 0], [228600000, 0, 1905], [44720000, 98, 291], [0, 0, 0]] },
    // fb, 512 B, ssd, no pool, fiting
    InsertCost { reads: [0, 6007, 18175, 0], writes: [0, 2000, 16217, 0], device_ns: 4019240000, smo_count: 7, storage_blocks: 1159, steps: [[1615900000, 21903, 0], [2351740000, 1993, 17937], [51600000, 286, 280], [0, 0, 0]] },
    // fb, 512 B, ssd, no pool, pgm
    InsertCost { reads: [0, 0, 19, 17961], writes: [0, 0, 75, 17972], device_ns: 3324320000, smo_count: 3, storage_blocks: 702, steps: [[1157500000, 17961, 0], [2156280000, 0, 17969], [10540000, 19, 78], [0, 0, 0]] },
    // fb, 512 B, ssd, no pool, alex
    InsertCost { reads: [0, 2002, 80568, 2002], writes: [0, 4, 65674, 2003], device_ns: 13990440000, smo_count: 2, storage_blocks: 1300, steps: [[400200000, 4002, 0], [13295420000, 80387, 65317], [54820000, 183, 364], [240000000, 0, 2000]] },
    // fb, 512 B, ssd, no pool, lipp
    InsertCost { reads: [0, 0, 9525, 0], writes: [0, 0, 9802, 0], device_ns: 2111500000, smo_count: 926, storage_blocks: 15631, steps: [[708500000, 7255, 0], [131640000, 0, 1097], [505520000, 2270, 2323], [765840000, 0, 6382]] },
    // fb, 512 B, ssd, no pool, hybrid-pla
    InsertCost { reads: [0, 7620, 2000, 0], writes: [0, 2759, 2095, 0], device_ns: 1399680000, smo_count: 95, storage_blocks: 3716, steps: [[817200000, 9620, 0], [228600000, 0, 1905], [353880000, 0, 2949], [0, 0, 0]] },
    // fb, 512 B, ssd, no pool, hybrid-modeltree
    InsertCost { reads: [0, 9169, 2000, 0], writes: [0, 20881, 2095, 0], device_ns: 3774940000, smo_count: 95, storage_blocks: 22017, steps: [[1017820000, 11169, 0], [228600000, 0, 1905], [2528520000, 0, 21071], [0, 0, 0]] },
];

/// Bulk-loads `bulk` into `choice` on `disk`, then inserts `stream` one key
/// at a time, each from a cold access state like the harness runs them, and
/// returns every deterministic counter of the interval after the bulk load,
/// with the index for its preconditions.
fn measure_inserts(
    choice: IndexChoice,
    disk: std::sync::Arc<lidx_storage::Disk>,
    bulk: &[Entry],
    stream: &[Entry],
) -> (InsertCost, Box<dyn DiskIndex>) {
    let mut index = choice.build(std::sync::Arc::clone(&disk));
    index.bulk_load(bulk).expect("bulk load");
    let io_before = disk.snapshot();
    let steps_before = index.insert_breakdown();
    let smo_before = index.stats().smo_count;
    for &(k, v) in stream {
        disk.reset_access_state();
        index.insert(k, v).expect("insert");
    }
    let io = disk.snapshot().since(&io_before);
    let steps = index.insert_breakdown().since(&steps_before);
    let cost = InsertCost {
        reads: lidx_storage::BlockKind::ALL.map(|kind| io.reads_of(kind)),
        writes: lidx_storage::BlockKind::ALL.map(|kind| io.writes_of(kind)),
        device_ns: io.device_ns,
        smo_count: index.stats().smo_count - smo_before,
        storage_blocks: index.storage_blocks(),
        steps: InsertStep::ALL
            .map(|step| [steps.device_ns(step), steps.reads(step), steps.writes(step)]),
    };
    (cost, index)
}

/// Cost pin: a per-key `insert` costs exactly what it cost when every design
/// had its own per-key write body (ALEX: what its closest-gap insert costs
/// since). Every deterministic counter of [`measure_inserts`] must match the
/// recorded table, in two setups:
///
/// - 5 000 bulk keys and 2 000 inserts of a fixed stream (fresh keys,
///   overwrites of bulk keys, keys below the minimum and above the maximum)
///   on 4 KiB blocks, on an HDD with no pool and an SSD with a 64-block pool;
/// - 20 000 bulk `Dataset::Fb` keys (Table 3's hardest to model linearly)
///   and 2 000 random keys on 512-byte SSD blocks with no pool, where the
///   routing levels are on disk and the B+-tree and ALEX split.
#[test]
fn per_key_insert_cost_is_pinned() {
    use lidx_storage::DeviceModel;
    use lidx_workloads::Dataset;

    let bulk: Vec<Entry> = (0..5_000u64).map(|i| (i * 16 + 1_000, i)).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let stream: Vec<Entry> = (0..2_000u64).map(|i| (next() % 84_000, 1_000_000 + i)).collect();
    // Random keys up to 1 000 past the largest `fb` key: most fall into the
    // dataset's rare enormous gaps, so the leaves at their edges split.
    let fb_bulk = Dataset::Fb.generate(20_000, 7);
    let key_space = fb_bulk.last().expect("non-empty bulk").0 + 1_000;
    let fb_stream: Vec<Entry> =
        (0..2_000u64).map(|i| (next() % key_space, 1_000_000 + i)).collect();
    let storages = [
        ("hdd, no pool", RunConfig::default(), &bulk, &stream),
        (
            "ssd, pool 64",
            RunConfig { device: DeviceModel::ssd(), buffer_blocks: 64, ..RunConfig::default() },
            &bulk,
            &stream,
        ),
        (
            "fb, 512 B, ssd, no pool",
            RunConfig { block_size: 512, device: DeviceModel::ssd(), ..RunConfig::default() },
            &fb_bulk,
            &fb_stream,
        ),
    ];

    let mut measured = Vec::new();
    let mut labels = Vec::new();
    for (storage, config, bulk, stream) in storages {
        for choice in IndexChoice::ALL_DESIGNS {
            let (cost, index) = measure_inserts(choice, config.make_disk(), bulk, stream);
            let label = format!("{storage}, {}", choice.name());
            if storage.starts_with("fb") {
                match choice {
                    // LIPP charges every node, inner or not, as a leaf block.
                    IndexChoice::Lipp => {
                        assert!(index.stats().height >= 2, "{label}: no node below the root")
                    }
                    // PGM's insert searches only its insert run (O6); its
                    // merges read whole components' data levels.
                    IndexChoice::Pgm => assert!(cost.smo_count > 0, "{label}: no merge ran"),
                    _ => assert!(cost.reads[1] > 0, "{label}: no on-disk inner level was read"),
                }
            }
            measured.push(cost);
            labels.push(label);
        }
    }
    if measured[..] != PER_KEY_INSERT_COST[..] {
        for (label, cost) in labels.iter().zip(&measured) {
            eprintln!("    // {label}\n    {cost:?},");
        }
    }
    for ((label, cost), pinned) in labels.iter().zip(&measured).zip(&PER_KEY_INSERT_COST) {
        assert_eq!(cost, pinned, "{label}");
    }
    assert_eq!(measured.len(), PER_KEY_INSERT_COST.len());
}
