//! Integration tests spanning every index crate: all implementations must
//! return exactly the same answers as an in-memory oracle for the same
//! operation sequence, across bulk loads, lookups, inserts (including
//! overwrites) and range scans.

use std::collections::BTreeMap;

use std::sync::Arc;

use lidx_core::{DiskIndex, Entry, IndexWrite, Key, Value};
use lidx_experiments::runner::{IndexChoice, RunConfig};
use lidx_storage::{Disk, DiskConfig};
use proptest::prelude::*;

fn build_loaded(choice: IndexChoice, entries: &[Entry]) -> Box<dyn DiskIndex> {
    let disk = RunConfig::default().make_disk();
    let mut index = choice.build(disk);
    index.bulk_load(entries).expect("bulk load");
    index
}

#[test]
fn all_indexes_agree_with_an_oracle_on_lookups_and_scans() {
    let entries: Vec<Entry> = (0..30_000u64)
        .map(|i| i * 11 + (i % 17) * 3)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|k| (k, k + 1))
        .collect();
    let oracle: BTreeMap<Key, Value> = entries.iter().copied().collect();

    for choice in IndexChoice::ALL_DESIGNS {
        let index = build_loaded(choice, &entries);
        assert_eq!(index.len(), entries.len() as u64, "{choice:?} key count");

        // Present, absent and boundary lookups.
        for &(k, v) in entries.iter().step_by(997) {
            assert_eq!(index.lookup(k).unwrap(), Some(v), "{choice:?} present key {k}");
        }
        for probe in [3u64, 12, entries.last().unwrap().0 + 5, u64::MAX] {
            assert_eq!(
                index.lookup(probe).unwrap(),
                oracle.get(&probe).copied(),
                "{choice:?} probe {probe}"
            );
        }

        // Scans of the paper's length (100) from existing start keys.
        let mut out = Vec::new();
        for &(start, _) in entries.iter().step_by(4_001) {
            let n = index.scan(start, 100, &mut out).unwrap();
            let expected: Vec<Entry> =
                oracle.range(start..).take(100).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(n, expected.len(), "{choice:?} scan length from {start}");
            assert_eq!(out, expected, "{choice:?} scan contents from {start}");
        }
    }
}

#[test]
fn all_indexes_agree_after_interleaved_inserts() {
    let bulk: Vec<Entry> = (0..5_000u64).map(|i| (i * 20, i)).collect();
    let inserts: Vec<Entry> =
        (0..5_000u64).map(|i| (i * 20 + 7 + (i % 5), 1_000_000 + i)).collect();
    let mut oracle: BTreeMap<Key, Value> = bulk.iter().copied().collect();
    for &(k, v) in &inserts {
        oracle.insert(k, v);
    }

    for choice in IndexChoice::ALL_DESIGNS {
        let mut index = build_loaded(choice, &bulk);
        for &(k, v) in &inserts {
            index.insert(k, v).unwrap();
        }
        // PGM reconciles duplicate keys lazily, so compare through lookups
        // rather than len() for exactness.
        for (&k, &v) in oracle.iter().step_by(313) {
            assert_eq!(index.lookup(k).unwrap(), Some(v), "{choice:?} key {k}");
        }
        // A full scan returns the oracle's contents in order.
        let mut out = Vec::new();
        let n = index.scan(0, oracle.len() + 10, &mut out).unwrap();
        assert_eq!(n, oracle.len(), "{choice:?} full scan size");
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "{choice:?} scan is sorted");
        let expected: Vec<Entry> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(out, expected, "{choice:?} full scan contents");
    }
}

#[test]
fn overwriting_a_key_is_visible_everywhere() {
    let bulk: Vec<Entry> = (1..=2_000u64).map(|i| (i * 3, i)).collect();
    for choice in IndexChoice::ALL_DESIGNS {
        let mut index = build_loaded(choice, &bulk);
        index.insert(300, 999_999).unwrap();
        assert_eq!(index.lookup(300).unwrap(), Some(999_999), "{choice:?} lookup after overwrite");
        let mut out = Vec::new();
        index.scan(299, 3, &mut out).unwrap();
        assert!(
            out.contains(&(300, 999_999)),
            "{choice:?} scan must observe the overwritten value, got {out:?}"
        );
        assert_eq!(out.iter().filter(|e| e.0 == 300).count(), 1, "{choice:?} no duplicates");
    }
}

/// A reopen opens what the saved index wrote: for every design, `load`
/// writes, allocates and frees no block and answers like the index that
/// saved the meta. A hybrid's meta is its leaf level's fields and its
/// directory's own meta, so it stays small however many leaves it has.
#[test]
fn a_reopen_writes_and_frees_nothing() {
    let bulk: Vec<Entry> = (0..20_000u64).map(|i| (i * 16 + i % 13, i)).collect();
    let inserts: Vec<Entry> = (0..2_000u64).map(|i| (i * 160 + 5, 1_000_000 + i)).collect();
    let probes: Vec<Key> =
        bulk.iter().chain(&inserts).step_by(89).flat_map(|e| [e.0, e.0 + 1]).collect();
    for choice in IndexChoice::ALL_DESIGNS {
        let name = choice.name();
        let disk = Disk::in_memory(DiskConfig::with_block_size(512));
        let mut index = choice.build(Arc::clone(&disk));
        index.bulk_load(&bulk).expect("bulk load");
        index.insert_batch(&inserts).expect("inserts");
        let meta = index.save_meta().expect("save");
        if matches!(choice, IndexChoice::HybridPla | IndexChoice::HybridModelTree) {
            assert!(meta.len() < 256, "{name}: a {}-byte meta", meta.len());
        }
        let answers: Vec<Option<Value>> =
            probes.iter().map(|&k| index.lookup(k).unwrap()).collect();
        let mut scanned = Vec::new();
        index.scan(inserts[700].0, 100, &mut scanned).unwrap();
        drop(index);

        let (before, total) = (disk.snapshot(), disk.total_blocks());
        let loaded = choice.load(Arc::clone(&disk), &meta).expect("load");
        let load = disk.snapshot().since(&before);
        assert_eq!(load.writes(), 0, "{name}: blocks written by the load");
        assert_eq!(load.freed_blocks, 0, "{name}: blocks freed by the load");
        assert_eq!(disk.total_blocks(), total, "{name}: blocks allocated by the load");
        let reloaded: Vec<Option<Value>> =
            probes.iter().map(|&k| loaded.lookup(k).unwrap()).collect();
        assert_eq!(reloaded, answers, "{name}: lookups after the load");
        let mut rows = Vec::new();
        loaded.scan(inserts[700].0, 100, &mut rows).unwrap();
        assert_eq!(rows, scanned, "{name}: a scan after the load");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Property: for random bulk loads and random insert batches, every index
    /// agrees with the oracle on lookups of present and absent keys and on a
    /// random range scan.
    #[test]
    fn random_operations_match_the_oracle(
        bulk_keys in proptest::collection::btree_set(0u64..1_000_000, 50..400),
        insert_keys in proptest::collection::btree_set(0u64..1_000_000, 1..200),
        probes in proptest::collection::vec(0u64..1_100_000, 20),
        scan_start in 0u64..1_000_000,
        scan_len in 1usize..150,
    ) {
        let bulk: Vec<Entry> = bulk_keys.iter().map(|&k| (k, k + 1)).collect();
        let mut oracle: BTreeMap<Key, Value> = bulk.iter().copied().collect();
        let inserts: Vec<Entry> = insert_keys.iter().map(|&k| (k, k + 2)).collect();
        for &(k, v) in &inserts {
            oracle.insert(k, v);
        }

        // Exercise one tree-structured and one LSM/PLA-structured index per
        // case to keep the property test fast; the exhaustive pairing is
        // covered by the deterministic tests above.
        for choice in [IndexChoice::Alex, IndexChoice::Lipp, IndexChoice::Fiting] {
            let mut index = build_loaded(choice, &bulk);
            for &(k, v) in &inserts {
                index.insert(k, v).unwrap();
            }
            for &p in &probes {
                prop_assert_eq!(index.lookup(p).unwrap(), oracle.get(&p).copied(),
                    "{:?} probe {}", choice, p);
            }
            let mut out = Vec::new();
            index.scan(scan_start, scan_len, &mut out).unwrap();
            let expected: Vec<Entry> =
                oracle.range(scan_start..).take(scan_len).map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(&out, &expected, "{:?} scan from {}", choice, scan_start);
        }
    }
}
