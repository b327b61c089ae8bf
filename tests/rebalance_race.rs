//! The rebalance-race oracle suite: writers and readers race a
//! [`ShardedIndex`] while a rebalancer thread splits hot shards and merges
//! cold neighbours *online*. Mirroring `racing_writer_consistency.rs`,
//! three properties are checked while the shard map churns underneath:
//!
//! * **No torn reads** — every value observed mid-split is one some writer
//!   legitimately staged (values encode their key and version, so a torn
//!   read or a half-moved entry cannot decode).
//! * **Per-reader monotonic visibility** — once a reader has seen version
//!   `n` of a key it never sees an older version, even when the key's
//!   owning shard is retired and rebuilt mid-stream.
//! * **Linearizability by final state** — after the race the router must
//!   equal a mutexed `BTreeMap` oracle exactly (lookups and a full scan),
//!   i.e. `lost == 0`: no staged key may vanish into a retired shard.
//!
//! Races rarely surface in a single debug run, so CI additionally executes
//! this test under `cargo test --release` (see .github/workflows/ci.yml).

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use lidx_core::{
    DiskIndex, Entry, IndexRead, IndexWrite, Key, ShardedIndex, ShardedIndexConfig,
    ShardedWriteBufferConfig, Value,
};
use lidx_experiments::runner::{IndexChoice, RunConfig};
use lidx_storage::{DeviceModel, OpClass};

const WRITERS: usize = 3;
const READERS: usize = 2;
const ROUNDS: usize = 240;
const READER_OPS: usize = 300;
const REBALANCES: usize = 12;

type Router = ShardedIndex<Box<dyn DiskIndex>>;

/// A tiny deterministic PRNG (splitmix64) so each thread gets its own
/// reproducible operation stream without sharing any state.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn dataset() -> Vec<Entry> {
    (0..6_000u64)
        .map(|i| i * 13 + (i % 31) * 5 + 1)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|k| (k, k + 1))
        .collect()
}

/// The value writer threads stage for `key` at `version` (1-based); the
/// encoding is invertible so any observed value can be classified.
fn versioned(key: Key, version: u64) -> Value {
    key.wrapping_mul(31).wrapping_add(version)
}

/// `Some(0)` = bulk-loaded payload, `Some(v)` = writer version `v`,
/// `None` = torn garbage no writer ever produced.
fn version_of(key: Key, value: Value) -> Option<u64> {
    if value == key + 1 {
        return Some(0);
    }
    let v = value.wrapping_sub(key.wrapping_mul(31));
    (v >= 1 && v <= ROUNDS as u64).then_some(v)
}

/// The fresh keys writer `w` owns, in the order it stages them. Disjoint
/// across writers by construction and above every bulk key, so they pile
/// into the top shard and make it the rebalancer's split target.
fn fresh_key(max_bulk: Key, w: usize, i: usize) -> Key {
    max_bulk + 1_000 + ((i * WRITERS + w) as u64) * 17
}

fn build_router(choice: IndexChoice, entries: &[Entry]) -> Router {
    let cfg = RunConfig { device: DeviceModel::custom("flat", 1, 7, 1), ..Default::default() };
    let config = ShardedIndexConfig {
        shards: 4,
        buffer: ShardedWriteBufferConfig { capacity: 96, drain: 32, shards: 2 },
    };
    let sample: Vec<Key> = entries.iter().map(|&(k, _)| k).collect();
    let mut router = ShardedIndex::with_sampled_boundaries(
        Box::new(move || Ok(choice.build(cfg.make_disk()))),
        config,
        &sample,
    )
    .expect("build router");
    router.bulk_load(entries).expect("bulk load");
    router
}

#[test]
fn racing_readers_and_writers_agree_with_the_oracle_across_splits_and_merges() {
    let entries = dataset();
    let max_bulk = entries.last().unwrap().0;

    for choice in IndexChoice::ALL_DESIGNS {
        let router = build_router(choice, &entries);
        let oracle: Mutex<BTreeMap<Key, Value>> = Mutex::new(entries.iter().copied().collect());

        let router = &router;
        let oracle = &oracle;
        let entries = &entries;
        std::thread::scope(|s| {
            // The rebalancer: splits the currently fullest shard, and every
            // third rebalance merges the two leftmost shards. The shard map
            // keeps moving while readers and writers race it.
            s.spawn(move || {
                let mut performed = 0usize;
                while performed < REBALANCES {
                    let lens = router.shard_lens();
                    let hot = lens.iter().enumerate().max_by_key(|(_, &l)| l).map_or(0, |(s, _)| s);
                    if router.split_shard(hot, None).is_ok() {
                        performed += 1;
                    }
                    if performed.is_multiple_of(3) && router.shard_count() > 3 {
                        router.merge_shards(0).expect("merge");
                    }
                    std::thread::yield_now();
                }
            });
            for w in 0..WRITERS {
                s.spawn(move || {
                    let mut rng = 0xBEEF_0000_u64 ^ ((w as u64 + 1) << 40);
                    for i in 0..ROUNDS {
                        let version = i as u64 + 1;
                        let r = splitmix(&mut rng);
                        // Mostly fresh keys; every fourth round upserts an
                        // owned bulk key (disjoint ownership across writers).
                        let key = if r.is_multiple_of(4) {
                            let slot = (r as usize / 4) % (entries.len() / WRITERS);
                            entries[slot * WRITERS + w].0
                        } else {
                            fresh_key(max_bulk, w, i)
                        };
                        let value = versioned(key, version);
                        if r.is_multiple_of(3) {
                            router.stage_batch(&[(key, value)]).expect("stage_batch");
                        } else {
                            router.stage(key, value).expect("stage");
                        }
                        oracle.lock().unwrap().insert(key, value);
                    }
                });
            }
            for t in 0..READERS {
                s.spawn(move || {
                    let mut rng = 0xFEED_0000_u64 ^ ((t as u64 + 1) << 40);
                    let mut seen: HashMap<Key, u64> = HashMap::new();
                    let mut out = Vec::new();
                    for _ in 0..READER_OPS {
                        let r = splitmix(&mut rng);
                        if r % 5 == 4 {
                            // Scans race the boundary churn: results must
                            // stay sorted and every value must decode.
                            let start = splitmix(&mut rng) % (max_bulk + 2_000);
                            let n =
                                router.scan(start, (r % 48 + 1) as usize, &mut out).expect("scan");
                            assert_eq!(out.len(), n);
                            assert!(out.windows(2).all(|p| p[0].0 < p[1].0), "{choice:?} sorted");
                            for &(k, v) in &out {
                                assert!(
                                    version_of(k, v).is_some(),
                                    "{choice:?} reader {t}: torn scan value {v} for key {k}"
                                );
                            }
                        } else {
                            let key = if r.is_multiple_of(2) {
                                entries[(r as usize / 8) % entries.len()].0
                            } else {
                                let w = (r as usize / 8) % WRITERS;
                                fresh_key(max_bulk, w, (r as usize / 64) % ROUNDS)
                            };
                            match router.lookup(key).expect("lookup") {
                                None => assert!(
                                    entries.binary_search_by_key(&key, |e| e.0).is_err(),
                                    "{choice:?} reader {t}: bulk key {key} vanished mid-rebalance"
                                ),
                                Some(v) => {
                                    let version = version_of(key, v).unwrap_or_else(|| {
                                        panic!(
                                            "{choice:?} reader {t}: torn value {v} for key {key}"
                                        )
                                    });
                                    let last = seen.entry(key).or_insert(0);
                                    assert!(
                                        version >= *last,
                                        "{choice:?} reader {t}: key {key} regressed \
                                         from version {last} to {version}"
                                    );
                                    *last = version;
                                }
                            }
                        }
                    }
                });
            }
        });

        // The shard map must actually have churned while the race ran.
        assert!(router.splits() >= 1, "{choice:?}: no online split happened");
        assert!(router.merges() >= 1, "{choice:?}: no online merge happened");
        let telemetry = router.aggregate_telemetry().snapshot();
        assert_eq!(
            telemetry.class(OpClass::Rebalance).counter,
            router.splits() + router.merges(),
            "{choice:?}: every completed split and merge is a counted rebalance pause"
        );

        // Linearizability by final state: flush, then every oracle key must
        // answer with its newest value and a full scan must match exactly —
        // lost == 0 across every retired shard.
        router.flush().expect("final flush");
        let oracle = oracle.lock().unwrap();
        let keys: Vec<Key> = oracle.keys().copied().collect();
        let mut answers = Vec::new();
        router.lookup_batch(&keys, &mut answers).expect("final lookups");
        let lost = oracle.values().enumerate().filter(|&(i, &v)| answers[i] != Some(v)).count();
        assert_eq!(lost, 0, "{choice:?}: {lost} keys lost or stale after rebalances");
        let mut scanned = Vec::new();
        let n = router.scan(0, oracle.len() + 16, &mut scanned).expect("final scan");
        assert_eq!(n, oracle.len(), "{choice:?} final scan length");
        let expect: Vec<Entry> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(scanned, expect, "{choice:?} final scan contents");
    }
}

#[test]
fn final_state_is_independent_of_rebalance_schedule() {
    // Writer-owned keys make the final state deterministic: a run with no
    // rebalances and a run with aggressive split/merge churn must converge
    // to identical contents.
    let entries = dataset();
    let max_bulk = entries.last().unwrap().0;
    for choice in [IndexChoice::BTree, IndexChoice::Alex, IndexChoice::HybridModelTree] {
        let run = |rebalances: usize| -> Vec<Entry> {
            let router = build_router(choice, &entries);
            let router = &router;
            std::thread::scope(|s| {
                for w in 0..WRITERS {
                    s.spawn(move || {
                        for i in 0..ROUNDS {
                            let key = fresh_key(max_bulk, w, i);
                            router.stage(key, versioned(key, i as u64 + 1)).expect("stage");
                        }
                    });
                }
                s.spawn(move || {
                    for r in 0..rebalances {
                        let lens = router.shard_lens();
                        let hot =
                            lens.iter().enumerate().max_by_key(|(_, &l)| l).map_or(0, |(s, _)| s);
                        router.split_shard(hot, None).expect("split");
                        if r % 2 == 1 && router.shard_count() > 2 {
                            router.merge_shards(0).expect("merge");
                        }
                    }
                });
            });
            router.flush().expect("flush");
            let mut out = Vec::new();
            router.scan(0, entries.len() + WRITERS * ROUNDS, &mut out).expect("full scan");
            out
        };
        let quiet = run(0);
        let churned = run(8);
        assert_eq!(quiet, churned, "{choice:?}: final state depends on the rebalance schedule");
    }
}
