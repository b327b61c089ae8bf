//! The sharded-router oracle suite: every `IndexChoice` design runs behind
//! a [`ShardedIndex`] (each shard a fresh instance of the design on its own
//! disk, fronted by its own staging buffer) and must stay indistinguishable
//! from a flat `BTreeMap` oracle through the full `IndexRead`/`IndexWrite`
//! surface:
//!
//! * **Routing** — `lookup` / `lookup_batch` answers (in caller order, with
//!   hits and misses interleaved) must match the oracle regardless of which
//!   shard owns each key.
//! * **Scan stitching** — scans are pinned across *every* shard boundary:
//!   for each boundary the suite scans from just below it through the next
//!   shard, and additionally from inside shard `k` far enough to end in
//!   shard `k + 2`, so each result must stitch at least two boundary
//!   crossings seamlessly. Empty shards and single-key shards are exercised
//!   with hand-picked boundary sets.
//! * **Write routing** — `insert` / `insert_batch` / staged `stage_batch`
//!   entries route by boundary and stay visible before and after `flush`.
//!
//! Deterministic cases pin the edge geometry; a proptest sweep generates
//! random bulk sets, boundary picks and probe/range mixes.

use std::collections::BTreeMap;

use lidx_core::{
    DiskIndex, Entry, IndexRead, IndexWrite, Key, ShardedIndex, ShardedIndexConfig,
    ShardedWriteBufferConfig, Value,
};
use lidx_experiments::runner::{IndexChoice, RunConfig};
use proptest::prelude::*;

type Router = ShardedIndex<Box<dyn DiskIndex>>;

fn router_for(choice: IndexChoice, boundaries: Vec<Key>) -> Router {
    let cfg = RunConfig::default();
    let config = ShardedIndexConfig {
        shards: boundaries.len() + 1,
        buffer: ShardedWriteBufferConfig { capacity: 64, drain: 16, shards: 2 },
    };
    ShardedIndex::with_boundaries(
        Box::new(move || Ok(choice.build(cfg.make_disk()))),
        config,
        boundaries,
    )
    .expect("build router")
}

/// Checks the full read surface of `router` against `oracle`: per-key
/// lookups (hits and misses), a caller-order `lookup_batch`, and scans
/// crossing every shard boundary — one starting just below each boundary,
/// and one starting a shard earlier so the result stitches two boundaries.
fn assert_matches_oracle(choice: IndexChoice, router: &Router, oracle: &BTreeMap<Key, Value>) {
    // Per-key hits, plus guaranteed misses just beside present keys.
    let mut probes: Vec<Key> = oracle.keys().copied().collect();
    for &k in oracle.keys().take(64) {
        probes.push(k.wrapping_add(1));
        probes.push(k.wrapping_sub(1));
    }
    probes.push(0);
    probes.push(Key::MAX);
    for &k in &probes {
        assert_eq!(
            router.lookup(k).expect("lookup"),
            oracle.get(&k).copied(),
            "{choice:?} lookup({k})"
        );
    }
    // Caller-order batch with hits and misses interleaved (reversed order
    // proves answers are scattered back, not returned shard-by-shard).
    probes.reverse();
    let mut answers = Vec::new();
    router.lookup_batch(&probes, &mut answers).expect("lookup_batch");
    assert_eq!(answers.len(), probes.len(), "{choice:?} batch length");
    for (i, &k) in probes.iter().enumerate() {
        assert_eq!(answers[i], oracle.get(&k).copied(), "{choice:?} batch lookup({k})");
    }
    // Scans pinned across every boundary: start just below boundary b and
    // span into the next shard, and start one shard earlier (ending in
    // shard k + 2) so the scan must stitch two crossings.
    let boundaries = router.boundaries();
    let mut ranges: Vec<(Key, usize)> = vec![(0, oracle.len() + 8)];
    for (i, &b) in boundaries.iter().enumerate() {
        ranges.push((b.saturating_sub(3), 16));
        ranges.push((b, 4));
        let prev = if i == 0 { 0 } else { boundaries[i - 1] };
        ranges.push((prev, oracle.len() + 8)); // ends past boundary i: >= 2 crossings
    }
    let mut out = Vec::new();
    for &(start, count) in &ranges {
        let n = router.scan(start, count, &mut out).expect("scan");
        assert_eq!(n, out.len(), "{choice:?} scan({start}, {count}) count");
        let expect: Vec<Entry> = oracle.range(start..).take(count).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(out, expect, "{choice:?} scan({start}, {count})");
    }
}

/// Bulk entries spread over a wide keyspace with deliberate clusters, so
/// quantile boundaries land in interesting places.
fn dataset() -> Vec<Entry> {
    (0..900u64)
        .map(|i| i * 101 + (i % 17) * 3 + 5)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|k| (k, k * 2 + 1))
        .collect()
}

#[test]
fn every_design_matches_the_oracle_across_shard_boundaries() {
    let entries = dataset();
    for choice in IndexChoice::ALL_DESIGNS {
        // Boundaries at the 1/3 and 2/3 keys plus one far beyond the data,
        // leaving the last shard empty.
        let b1 = entries[entries.len() / 3].0;
        let b2 = entries[2 * entries.len() / 3].0;
        let far = entries.last().unwrap().0 + 10_000;
        let mut router = router_for(choice, vec![b1, b2, far]);
        router.bulk_load(&entries).expect("bulk load");
        let mut oracle: BTreeMap<Key, Value> = entries.iter().copied().collect();
        assert_matches_oracle(choice, &router, &oracle);

        // insert / insert_batch route by boundary, including into the empty
        // tail shard and exactly onto a boundary key.
        router.insert(far, 7).expect("insert");
        oracle.insert(far, 7);
        let batch: Vec<Entry> = vec![(b1, 11), (b2 - 1, 13), (far + 3, 17), (b1 - 1, 19)];
        router.insert_batch(&batch).expect("insert_batch");
        oracle.extend(batch.iter().copied());
        assert_matches_oracle(choice, &router, &oracle);

        // Staged writes are visible through the overlay before the drain,
        // and survive the flush.
        let staged: Vec<Entry> = (0..40u64).map(|i| (i * 997 + 2, i + 100)).collect();
        router.stage_batch(&staged).expect("stage_batch");
        oracle.extend(staged.iter().copied());
        assert_matches_oracle(choice, &router, &oracle);
        router.flush().expect("flush");
        assert_matches_oracle(choice, &router, &oracle);
    }
}

#[test]
fn empty_and_single_key_shards_stay_transparent() {
    for choice in IndexChoice::ALL_DESIGNS {
        // Shard 0: empty (nothing below 100). Shard 1: exactly one key
        // (100). Shard 2: empty (nothing in [101, 500)). Shard 3: the rest.
        let entries: Vec<Entry> =
            std::iter::once((100u64, 1)).chain((0..50u64).map(|i| (500 + i * 7, i))).collect();
        let mut router = router_for(choice, vec![100, 101, 500]);
        router.bulk_load(&entries).expect("bulk load");
        assert_eq!(router.shard_count(), 4);
        assert_eq!(router.shard_lens(), vec![0, 1, 0, 50], "{choice:?} shard fill");
        let oracle: BTreeMap<Key, Value> = entries.iter().copied().collect();
        assert_matches_oracle(choice, &router, &oracle);

        // A scan from key 0 crosses empty shard 0, the single-key shard,
        // empty shard 2 and lands in shard 3 — three boundary stitches.
        let mut out = Vec::new();
        let n = router.scan(0, 5, &mut out).expect("scan");
        assert_eq!(n, 5, "{choice:?} cross-empty scan");
        assert_eq!(out[0], (100, 1), "{choice:?} single-key shard served first");
        assert_eq!(out[1].0, 500, "{choice:?} stitched into shard 3");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Random bulk sets behind random boundary picks must match the oracle
    /// for every design, for random probes and boundary-straddling ranges,
    /// before and after a random staged batch.
    #[test]
    fn sharded_router_matches_oracle(
        bulk_keys in proptest::collection::btree_set(0u64..300_000, 20..160),
        boundary_picks in proptest::collection::vec(0usize..1_000, 1..5),
        staged_keys in proptest::collection::btree_set(0u64..320_000, 0..40),
    ) {
        let entries: Vec<Entry> = bulk_keys.iter().map(|&k| (k, k ^ 0xABCD)).collect();
        // Boundary picks index into the bulk keys (dedup keeps them strictly
        // increasing); a pick may isolate a single key or leave a shard empty.
        let mut boundaries: Vec<Key> =
            boundary_picks.iter().map(|&p| entries[p % entries.len()].0).collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        for choice in IndexChoice::ALL_DESIGNS {
            let mut router = router_for(choice, boundaries.clone());
            router.bulk_load(&entries).expect("bulk load");
            let mut oracle: BTreeMap<Key, Value> = entries.iter().copied().collect();
            assert_matches_oracle(choice, &router, &oracle);
            let staged: Vec<Entry> = staged_keys.iter().map(|&k| (k, k.rotate_left(7))).collect();
            router.stage_batch(&staged).expect("stage_batch");
            oracle.extend(staged.iter().copied());
            assert_matches_oracle(choice, &router, &oracle);
            router.flush().expect("flush");
            assert_matches_oracle(choice, &router, &oracle);
        }
    }
}
