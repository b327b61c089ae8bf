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

/// The writes each `(file, block)` received.
type WriteCounts = std::sync::Arc<std::sync::Mutex<std::collections::HashMap<(u32, u32), u32>>>;

/// An in-memory backend that counts the writes each block receives.
struct CountingBackend {
    inner: lidx_storage::MemoryBackend,
    writes: WriteCounts,
}

impl lidx_storage::StorageBackend for CountingBackend {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn create_file(&self) -> lidx_storage::StorageResult<u32> {
        self.inner.create_file()
    }
    fn num_blocks(&self, file: u32) -> lidx_storage::StorageResult<u32> {
        self.inner.num_blocks(file)
    }
    fn extend(&self, file: u32, count: u32) -> lidx_storage::StorageResult<u32> {
        self.inner.extend(file, count)
    }
    fn read_block(&self, file: u32, block: u32, buf: &mut [u8]) -> lidx_storage::StorageResult<()> {
        self.inner.read_block(file, block, buf)
    }
    fn write_block(&self, file: u32, block: u32, data: &[u8]) -> lidx_storage::StorageResult<()> {
        *self.writes.lock().unwrap().entry((file, block)).or_default() += 1;
        self.inner.write_block(file, block, data)
    }
    fn num_files(&self) -> u32 {
        self.inner.num_files()
    }
}

/// The most writes any one block received since the last call.
fn take_max(writes: &WriteCounts) -> u32 {
    let mut writes = writes.lock().unwrap();
    let max = writes.values().copied().max().unwrap_or(0);
    writes.clear();
    max
}

/// ALEX and LIPP run a batch on one write-back cursor: a sorted batch of
/// fresh keys that needs no SMO stores every block it touches once, where
/// the same keys inserted one at a time store some block again and again
/// (ALEX's header block with its bitmap, LIPP's node headers), and both
/// answer like an oracle.
#[test]
fn a_sorted_batch_stores_each_block_it_touches_once() {
    use lidx_core::IndexRead;
    // Bulk keys 1 000 apart and batch keys between them: one ALEX data
    // node under its density bound, and empty LIPP slots.
    let bulk: Vec<Entry> = (0..1_000u64).map(|i| (i * 1_000, i)).collect();
    let batch: Vec<Entry> = (100..200u64).map(|i| (i * 1_000 + 500, i)).collect();
    let mut oracle: BTreeMap<Key, Value> = bulk.iter().copied().collect();
    apply_to_oracle(&mut oracle, &batch);
    for choice in [IndexChoice::Alex, IndexChoice::Lipp] {
        for per_key in [false, true] {
            let writes = WriteCounts::default();
            let backend = CountingBackend {
                inner: lidx_storage::MemoryBackend::new(512),
                writes: std::sync::Arc::clone(&writes),
            };
            let disk = lidx_storage::Disk::with_backend(
                Box::new(backend),
                lidx_storage::DiskConfig::with_block_size(512),
            );
            let mut index = choice.build(disk);
            index.bulk_load(&bulk).expect("bulk load");
            let before = index.stats();
            take_max(&writes);
            if per_key {
                for &(k, v) in &batch {
                    index.insert(k, v).expect("insert");
                }
            } else {
                index.insert_batch(&batch).expect("insert_batch");
            }
            let after = index.stats();
            assert_eq!(
                (after.smo_count, after.leaf_nodes),
                (before.smo_count, before.leaf_nodes),
                "{choice:?}: the batch needs no SMO"
            );
            let max = take_max(&writes);
            if per_key {
                assert!(max > 1, "{choice:?}: per key, some block is stored again");
            } else {
                assert_eq!(max, 1, "{choice:?}: a batch stores each block it touches once");
            }
            check_against_oracle(&*index, &oracle, &format!("{choice:?} per key: {per_key}"));
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
/// were added, before any change to a design's inner levels. The three
/// hybrid-modeltree rows were recorded again when the model tree began
/// running on LIPP's node, whose first slots share block 0 with the header,
/// so a small directory node is one block instead of two: on the HDD `Inner`
/// reads 4 000 → 2 000, `Inner` writes 48 → 24, blocks 99 → 74, 60.92 →
/// 60.48 s; on the SSD `Inner` writes 48 → 24, blocks 99 → 74, 248.64 →
/// 245.76 ms; on `fb` `Inner` reads 9 169 → 6 718, `Inner` writes 20 881 →
/// 18 353, blocks 22 017 → 19 462, 3 774.94 → 3 315.56 ms.
///
/// The FITing HDD and `fb` rows were recorded again when FITing's data probe
/// began reading the block holding the model's prediction first, stepping
/// one way to a neighbour only while the key may lie there, instead of the
/// ε-window from its low end. Only the Search step moved. On `fb`, `Leaf`
/// reads fell 18 175 → 11 596 and device time 4 019.24 → 3 633.70 ms. On
/// the HDD, `Leaf` reads fell 7 927 → 7 112, but device time rose 146.0283
/// → 146.0656 s (+37.3 ms): a step to the left neighbour is a backward seek
/// where the low-end read was a sequential hop. The SSD row did not move.
///
/// The six ALEX and LIPP rows were recorded again when both designs began
/// running `insert_batch` on one write-back cursor (`Disk::write_back`):
/// a block one insert writes twice is now charged once, and a block it
/// reads after writing it is answered from the cursor, with no request.
/// ALEX: on the HDD `Leaf` writes 4 061 → 3 942 (all in the Insert step:
/// slot blocks one insert wrote more than once), `Inner` reads 4 012 →
/// 4 008 (a parent re-read after its pointer write), 175.0846 → 173.8546 s; on the SSD 720.40 → 706.12 ms;
/// on `fb` `Inner` writes 4 → 2 (a parent whose two pointers move in one
/// split). LIPP: on the HDD writes 4 470 → 4 357 (a slot in block 0 and
/// the header beside it, one write), reads 4 315 → 4 312, 87.7015 →
/// 86.5415 s; on the SSD 683.16 → 669.60 ms; on `fb` writes 9 802 → 8 175,
/// reads 9 525 → 9 372, 2.1115 → 1.9010 s. The six hybrid rows' storage
/// was recorded again when a rebuilt directory began freeing the one it
/// replaces: 74 → 50 blocks on the 4 KiB rows, and on `fb` 3 716 → 960
/// (PLA) and 19 462 → 1 146 (model tree). Every other value of those rows,
/// and every other row, is unchanged.
///
/// The three LIPP rows were recorded again when a subtree rebuild began
/// collecting, counting and freeing its nodes in one walk instead of three,
/// each path level keeping the frame of the slot block it read last. Only
/// reads and device time fell; writes, SMOs and storage did not move. On
/// the HDD, Smo-step reads 100 → 34, 8.29 → 7.63 s (all reads 4 312 →
/// 4 246); on the SSD, whose pool had answered the walks' re-reads, only
/// the Search step moved (1 437 → 1 435 reads, as fewer pool hits leave a
/// different recency order), 669.6 → 669.4 ms; on `fb`, Smo-step reads
/// 2 117 → 709, 1.9010 → 1.7603 s (all reads 9 372 → 7 964).
///
/// The three ALEX rows were recorded again when a data node's bitmap moved
/// into its header block, right after the 56-byte header (it spills into
/// blocks of its own only past `(block_size - 56)·8` slots). A fresh insert
/// sets its bit in block 0 and then writes its statistics into the same
/// block, which the insert's write-back cursor charges and stores once, so
/// the Maintenance step writes nothing. Its gap search reads the bits from
/// the block 0 its descent read, so the Insert step reads no bitmap block
/// and keeps the slot block its search read last. HDD: reads `[0, 4 008,
/// 5 925, 1 875]` → `[0, 4 008, 4 060, 0]`, writes 5 821 → 3 946 (`Utility`
/// 1 875 → 0), Insert step 94.24 → 56.77 s, Maintenance 18.71 s and 1 871
/// writes → 0, blocks 103 → 95, 173.85 → 117.64 s. SSD, pool 64: `Leaf`
/// reads 76 → 68, `Utility` writes 1 875 → 0, Maintenance 224.52 ms → 0,
/// 706.12 → 480.32 ms. `fb`: `Leaf` reads 80 568 → 80 232, `Utility` reads
/// 2 002 → 1 479 and writes 2 003 → 364, blocks 1 300 → 1 282, 13 990.20 →
/// 13 707.78 ms. Its Maintenance step still writes 362 blocks (240.00 →
/// 43.44 ms): the nodes that grew past 3 648 slots spill their bitmap, and
/// an insert whose bit lies in a spill block writes block 0 for its header
/// alone.
///
/// The three FITing rows were recorded again when a segment's delta buffer
/// began carrying its own count in slot 0 of its first block, the directory
/// record keeping only a flag that the buffer holds entries. A fresh insert
/// writes its buffer block and no directory leaf; the leaf is read and
/// written only when an empty buffer's first insert sets the flag. HDD:
/// `Inner` writes 1 846 → 16, `Inner` reads 3 821 → 1 991 (the flag
/// writes' leaf re-reads are all that is left of `update_meta`'s), Insert
/// step 85.89 → 49.29 s, 146.07 → 109.47 s. SSD, pool 64: `Inner` writes
/// 1 846 → 16, 812.88 → 593.28 ms. `fb`: `Inner` writes 2 000 → 16, reads
/// 6 007 → 4 023, 3 633.70 → 3 193.70 ms. A 4 KiB buffer holds 255 entries,
/// not 256, so a few resegmentations come an insert earlier: the HDD row's
/// `Leaf` reads 7 112 → 7 109, and on `fb`, whose 512-byte buffers of eight
/// blocks hold 255 entries too, `Leaf` writes 16 217 → 16 210 and storage
/// 1 159 → 1 152 blocks, with the SMO count unchanged.
///
/// The three PGM rows were recorded again when its insert began rewriting
/// the run from the block holding the batch's smallest changed position,
/// not the whole run: `Utility` writes 3 208 → 2 825 on the HDD and the SSD
/// (52.33 → 48.50 s, 386.76 → 340.80 ms) and 17 972 → 10 350 on `fb`
/// (3 324.32 → 2 409.68 ms). Reads, SMOs and storage did not move.
#[rustfmt::skip]
const PER_KEY_INSERT_COST: [InsertCost; 21] = [
    // hdd, no pool, btree
    InsertCost { reads: [0, 2024, 2000, 0], writes: [0, 24, 2024, 0], device_ns: 60512100000, smo_count: 24, storage_blocks: 51, steps: [[39792100000, 4000, 0], [19760000000, 0, 1976], [960000000, 24, 72], [0, 0, 0]] },
    // hdd, no pool, fiting
    InsertCost { reads: [0, 1991, 7109, 24], writes: [0, 16, 4903, 25], device_ns: 109465300000, smo_count: 7, storage_blocks: 202, steps: [[58252700000, 6050, 0], [49286500000, 2899, 4767], [1926100000, 175, 177], [0, 0, 0]] },
    // hdd, no pool, pgm
    InsertCost { reads: [0, 0, 8, 3204], writes: [0, 0, 15, 2825], device_ns: 48501400000, smo_count: 3, storage_blocks: 30, steps: [[20080800000, 3204, 0], [28220000000, 0, 2822], [200600000, 8, 18], [0, 0, 0]] },
    // hdd, no pool, alex
    InsertCost { reads: [0, 4008, 4060, 0], writes: [0, 4, 3942, 0], device_ns: 117635300000, smo_count: 4, storage_blocks: 95, steps: [[60060200000, 6008, 0], [56772300000, 2022, 3876], [802800000, 38, 70], [0, 0, 0]] },
    // hdd, no pool, lipp
    InsertCost { reads: [0, 0, 4246, 0], writes: [0, 0, 4357, 0], device_ns: 85881500000, smo_count: 361, storage_blocks: 516, steps: [[41971500000, 4212, 0], [16400000000, 0, 1640], [7630000000, 34, 729], [19880000000, 0, 1988]] },
    // hdd, no pool, hybrid-pla
    InsertCost { reads: [0, 2000, 2000, 0], writes: [0, 24, 2024, 0], device_ns: 60480000000, smo_count: 24, storage_blocks: 50, steps: [[40000000000, 4000, 0], [19760000000, 0, 1976], [720000000, 0, 72], [0, 0, 0]] },
    // hdd, no pool, hybrid-modeltree
    InsertCost { reads: [0, 2000, 2000, 0], writes: [0, 24, 2024, 0], device_ns: 60480000000, smo_count: 24, storage_blocks: 50, steps: [[40000000000, 4000, 0], [19760000000, 0, 1976], [720000000, 0, 72], [0, 0, 0]] },
    // ssd, pool 64, btree
    InsertCost { reads: [0, 0, 0, 0], writes: [0, 24, 2024, 0], device_ns: 245760000, smo_count: 24, storage_blocks: 51, steps: [[0, 0, 0], [237120000, 0, 1976], [8640000, 0, 72], [0, 0, 0]] },
    // ssd, pool 64, fiting
    InsertCost { reads: [0, 0, 0, 0], writes: [0, 16, 4903, 25], device_ns: 593280000, smo_count: 7, storage_blocks: 202, steps: [[0, 0, 0], [572040000, 0, 4767], [21240000, 0, 177], [0, 0, 0]] },
    // ssd, pool 64, pgm
    InsertCost { reads: [0, 0, 0, 0], writes: [0, 0, 15, 2825], device_ns: 340800000, smo_count: 3, storage_blocks: 30, steps: [[0, 0, 0], [338640000, 0, 2822], [2160000, 0, 18], [0, 0, 0]] },
    // ssd, pool 64, alex
    InsertCost { reads: [0, 0, 68, 0], writes: [0, 4, 3942, 0], device_ns: 480320000, smo_count: 4, storage_blocks: 95, steps: [[0, 0, 0], [471920000, 68, 3876], [8400000, 0, 70], [0, 0, 0]] },
    // ssd, pool 64, lipp
    InsertCost { reads: [0, 0, 1466, 0], writes: [0, 0, 4357, 0], device_ns: 669400000, smo_count: 361, storage_blocks: 516, steps: [[143460000, 1435, 0], [196800000, 0, 1640], [90580000, 31, 729], [238560000, 0, 1988]] },
    // ssd, pool 64, hybrid-pla
    InsertCost { reads: [0, 0, 0, 0], writes: [0, 24, 2024, 0], device_ns: 245760000, smo_count: 24, storage_blocks: 50, steps: [[0, 0, 0], [237120000, 0, 1976], [8640000, 0, 72], [0, 0, 0]] },
    // ssd, pool 64, hybrid-modeltree
    InsertCost { reads: [0, 0, 0, 0], writes: [0, 24, 2024, 0], device_ns: 245760000, smo_count: 24, storage_blocks: 50, steps: [[0, 0, 0], [237120000, 0, 1976], [8640000, 0, 72], [0, 0, 0]] },
    // fb, 512 B, ssd, no pool, btree
    InsertCost { reads: [0, 4098, 2000, 0], writes: [0, 101, 2095, 0], device_ns: 871800000, smo_count: 98, storage_blocks: 959, steps: [[598480000, 6000, 0], [228600000, 0, 1905], [44720000, 98, 291], [0, 0, 0]] },
    // fb, 512 B, ssd, no pool, fiting
    InsertCost { reads: [0, 4023, 11618, 0], writes: [0, 16, 16210, 0], device_ns: 3193700000, smo_count: 7, storage_blocks: 1152, steps: [[1228040000, 15352, 0], [1915260000, 9, 15953], [50400000, 280, 273], [0, 0, 0]] },
    // fb, 512 B, ssd, no pool, pgm
    InsertCost { reads: [0, 0, 19, 17961], writes: [0, 0, 75, 10350], device_ns: 2409680000, smo_count: 3, storage_blocks: 702, steps: [[1157500000, 17961, 0], [1241640000, 0, 10347], [10540000, 19, 78], [0, 0, 0]] },
    // fb, 512 B, ssd, no pool, alex
    InsertCost { reads: [0, 2002, 80232, 1479], writes: [0, 2, 65674, 364], device_ns: 13707780000, smo_count: 2, storage_blocks: 1282, steps: [[400200000, 4002, 0], [13209620000, 79529, 65317], [54520000, 182, 361], [43440000, 0, 362]] },
    // fb, 512 B, ssd, no pool, lipp
    InsertCost { reads: [0, 0, 7964, 0], writes: [0, 0, 8175, 0], device_ns: 1760320000, smo_count: 926, storage_blocks: 15631, steps: [[708500000, 7255, 0], [131640000, 0, 1097], [347420000, 709, 2305], [572760000, 0, 4773]] },
    // fb, 512 B, ssd, no pool, hybrid-pla
    InsertCost { reads: [0, 7620, 2000, 0], writes: [0, 2759, 2095, 0], device_ns: 1399680000, smo_count: 95, storage_blocks: 960, steps: [[817200000, 9620, 0], [228600000, 0, 1905], [353880000, 0, 2949], [0, 0, 0]] },
    // fb, 512 B, ssd, no pool, hybrid-modeltree
    InsertCost { reads: [0, 6718, 2000, 0], writes: [0, 18353, 2095, 0], device_ns: 3315560000, smo_count: 95, storage_blocks: 1146, steps: [[861800000, 8718, 0], [228600000, 0, 1905], [2225160000, 0, 18543], [0, 0, 0]] },
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
