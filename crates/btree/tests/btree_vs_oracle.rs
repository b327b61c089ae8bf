//! Differential property tests: the on-disk B+-tree must behave exactly like
//! `std::collections::BTreeMap` for arbitrary bulk loads and operation
//! sequences, and it must keep working when backed by real files.

use std::collections::BTreeMap;
use std::sync::Arc;

use lidx_btree::BTreeIndex;
use lidx_core::{IndexRead, IndexWrite};
use lidx_storage::{Disk, DiskConfig, FileBackend};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u64, u64),
    Lookup(u64),
    Scan(u64, usize),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (0u64..100_000, any::<u64>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        (0u64..110_000).prop_map(TreeOp::Lookup),
        (0u64..100_000, 1usize..300).prop_map(|(k, n)| TreeOp::Scan(k, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn btree_matches_the_standard_library_oracle(
        bulk in proptest::collection::btree_set(0u64..100_000, 0..800),
        ops in proptest::collection::vec(tree_op(), 1..300),
        block_size_pow in 8u32..13, // 256 B .. 4 KB
    ) {
        let block_size = 1usize << block_size_pow;
        let disk = Disk::in_memory(DiskConfig::with_block_size(block_size));
        let mut tree = BTreeIndex::new(disk).unwrap();
        let bulk_entries: Vec<(u64, u64)> = bulk.iter().map(|&k| (k, k ^ 0xABCD)).collect();
        tree.bulk_load(&bulk_entries).unwrap();
        let mut oracle: BTreeMap<u64, u64> = bulk_entries.iter().copied().collect();

        let mut out = Vec::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    tree.insert(k, v).unwrap();
                    oracle.insert(k, v);
                }
                TreeOp::Lookup(k) => {
                    prop_assert_eq!(tree.lookup(k).unwrap(), oracle.get(&k).copied());
                }
                TreeOp::Scan(start, n) => {
                    tree.scan(start, n, &mut out).unwrap();
                    let expected: Vec<(u64, u64)> =
                        oracle.range(start..).take(n).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(&out, &expected);
                }
            }
            prop_assert_eq!(tree.len(), oracle.len() as u64);
        }
    }
}

/// The same index operations work against real files on the local
/// filesystem, not just the in-memory backend.
#[test]
fn btree_round_trips_through_real_files() {
    let dir = std::env::temp_dir().join(format!("lidx-btree-files-{}", std::process::id()));
    let backend = FileBackend::new(&dir, 4096).unwrap();
    let disk = Disk::with_backend(Box::new(backend), DiskConfig::with_block_size(4096));
    let mut tree = BTreeIndex::new(Arc::clone(&disk)).unwrap();

    let entries: Vec<(u64, u64)> = (0..50_000u64).map(|i| (i * 3, i)).collect();
    tree.bulk_load(&entries).unwrap();
    for i in 0..2_000u64 {
        tree.insert(i * 3 + 1, i).unwrap();
    }
    for &(k, v) in entries.iter().step_by(997) {
        assert_eq!(tree.lookup(k).unwrap(), Some(v));
    }
    let mut out = Vec::new();
    assert_eq!(tree.scan(0, 1_000, &mut out).unwrap(), 1_000);
    assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(disk.total_bytes() > 0);

    std::fs::remove_dir_all(&dir).ok();
}
