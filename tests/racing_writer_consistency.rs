//! The racing-writer oracle suite: for every `IndexChoice` design, N writer
//! threads stage disjoint key sets through a [`ShardedWriteBuffer`] (whose
//! drains take the index write lock one chunk at a time) while M reader
//! threads race lookups and scans through the same buffer. Three properties
//! are checked:
//!
//! * **No torn reads** — every value a reader observes is one some writer
//!   legitimately wrote (values encode their key and version, so a torn or
//!   interleaved read cannot produce a valid encoding).
//! * **Per-key monotonic visibility** — once a reader has seen version `n`
//!   of a key, it never sees an older version (newest-wins overlay reads
//!   must not regress mid-drain).
//! * **Linearizability by final state** — after the threads join and the
//!   buffer flushes, a full scan and per-key lookups must equal a mutexed
//!   `BTreeMap` oracle maintained by the writers.
//!
//! Races rarely surface in a single debug run, so CI additionally executes
//! this test under `cargo test --release` (see .github/workflows/ci.yml).

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use lidx_core::{
    Entry, IndexRead, IndexWrite, Key, ShardedWriteBuffer, ShardedWriteBufferConfig, Value,
};
use lidx_experiments::runner::{IndexChoice, RunConfig};
use lidx_storage::{DeviceModel, OpClass};

const WRITERS: usize = 3;
const READERS: usize = 3;
const ROUNDS: usize = 300;
const READER_OPS: usize = 400;

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
    (0..8_000u64)
        .map(|i| i * 13 + (i % 31) * 5 + 1)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|k| (k, k + 1))
        .collect()
}

/// The value writer threads stage for `key` at `version` (1-based). The
/// encoding is invertible, so a reader can classify any observed value as
/// "bulk-loaded", "written at version v", or "torn garbage".
fn versioned(key: Key, version: u64) -> Value {
    key.wrapping_mul(31).wrapping_add(version)
}

/// Classifies an observed value: `Some(0)` = the bulk-loaded payload,
/// `Some(v)` = writer version `v`, `None` = no legitimate writer ever
/// produced it (a torn read).
fn version_of(key: Key, value: Value) -> Option<u64> {
    if value == key + 1 {
        return Some(0);
    }
    let v = value.wrapping_sub(key.wrapping_mul(31));
    (v >= 1 && v <= ROUNDS as u64).then_some(v)
}

/// The fresh keys writer `w` owns, in the order it stages them. Disjoint
/// across writers by construction and far above every bulk key.
fn fresh_key(max_bulk: Key, w: usize, i: usize) -> Key {
    max_bulk + 1_000 + ((i * WRITERS + w) as u64) * 17
}

#[test]
fn racing_writers_and_readers_agree_with_the_oracle_for_every_design() {
    let entries = dataset();
    let max_bulk = entries.last().unwrap().0;

    for choice in IndexChoice::ALL_DESIGNS {
        // Flat device model: the counters stay exact and the run stays fast.
        let cfg = RunConfig { device: DeviceModel::custom("flat", 1, 7, 1), ..Default::default() };
        let disk = cfg.make_disk();
        let mut index = choice.build(std::sync::Arc::clone(&disk));
        index.bulk_load(&entries).expect("bulk load");
        disk.stats().reset();
        disk.reset_access_state();

        let buffer = ShardedWriteBuffer::new(
            index,
            ShardedWriteBufferConfig { capacity: 96, drain: 32, shards: 4 },
        );
        let oracle: Mutex<BTreeMap<Key, Value>> = Mutex::new(entries.iter().copied().collect());

        let buffer = &buffer;
        let oracle = &oracle;
        let entries = &entries;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                s.spawn(move || {
                    let mut rng = 0xBEEF_0000_u64 ^ ((w as u64 + 1) << 40);
                    for i in 0..ROUNDS {
                        let version = i as u64 + 1;
                        let r = splitmix(&mut rng);
                        // Mostly fresh keys; every fourth round upserts an
                        // owned bulk key (index w mod WRITERS ownership keeps
                        // the sets disjoint across writers).
                        let key = if r.is_multiple_of(4) {
                            let slot = (r as usize / 4) % (entries.len() / WRITERS);
                            entries[slot * WRITERS + w].0
                        } else {
                            fresh_key(max_bulk, w, i)
                        };
                        let value = versioned(key, version);
                        buffer.stage(key, value).expect("stage");
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
                            // Scan: every observed entry must carry a valid
                            // encoding and the keys must be strictly sorted.
                            let start = splitmix(&mut rng) % (max_bulk + 2_000);
                            let n =
                                buffer.scan(start, (r % 48 + 1) as usize, &mut out).expect("scan");
                            assert!(out.len() == n);
                            assert!(out.windows(2).all(|p| p[0].0 < p[1].0), "{choice:?} sorted");
                            for &(k, v) in &out {
                                assert!(
                                    version_of(k, v).is_some(),
                                    "{choice:?} reader {t}: torn scan value {v} for key {k}"
                                );
                            }
                        } else {
                            // Lookup one of: a bulk key (possibly upserted),
                            // a writer's fresh key (possibly not yet staged).
                            let key = if r.is_multiple_of(2) {
                                entries[(r as usize / 8) % entries.len()].0
                            } else {
                                let w = (r as usize / 8) % WRITERS;
                                fresh_key(max_bulk, w, (r as usize / 64) % ROUNDS)
                            };
                            match buffer.lookup(key).expect("lookup") {
                                None => assert!(
                                    key > max_bulk,
                                    "{choice:?} reader {t}: bulk key {key} vanished"
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

        // Linearizability by final state: flush, then the index must equal
        // the oracle exactly — every key, every newest value.
        buffer.flush().expect("final flush");
        let oracle = oracle.lock().unwrap();
        // PGM's key count is lazily reconciled (duplicates are only
        // subtracted when an LSM merge meets them), so the length check is a
        // lower bound; the scan below pins the exact contents for everyone.
        assert!(buffer.len() >= oracle.len() as u64, "{choice:?} final length");
        let keys: Vec<Key> = oracle.keys().copied().collect();
        let mut answers = Vec::new();
        buffer.lookup_batch(&keys, &mut answers).expect("final lookups");
        for (i, (&k, &v)) in oracle.iter().enumerate() {
            assert_eq!(answers[i], Some(v), "{choice:?} final lookup({k})");
        }
        let mut scanned = Vec::new();
        let n = buffer.scan(0, oracle.len() + 16, &mut scanned).expect("final scan");
        assert_eq!(n, oracle.len(), "{choice:?} final scan length");
        let expect: Vec<Entry> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(scanned, expect, "{choice:?} final scan contents");

        // The contention counters must have seen the race: drains happened,
        // and every drain chunk carried entries.
        let stats = disk.stats();
        assert!(stats.drain_chunks() > 0, "{choice:?}: the buffer must have drained");
        assert!(
            stats.drain_entries() >= stats.drain_chunks(),
            "{choice:?}: drain chunks cannot be empty"
        );
        // Every drain chunk is one timed pause carrying its entries.
        let telemetry = disk.telemetry().snapshot();
        let drain = telemetry.class(OpClass::Drain);
        assert_eq!(drain.summary.count, stats.drain_chunks(), "{choice:?}: drain pauses");
        assert_eq!(drain.counter, stats.drain_entries(), "{choice:?}: drained entries");
    }
}

#[test]
fn final_state_is_independent_of_thread_interleaving() {
    // Writer-owned keys make the final state deterministic: two runs with
    // different reader pressure (0 vs many readers) must converge to the
    // same index contents.
    let entries = dataset();
    let max_bulk = entries.last().unwrap().0;
    for choice in [IndexChoice::BTree, IndexChoice::Alex, IndexChoice::HybridModelTree] {
        let run = |readers: usize| -> Vec<Entry> {
            let disk = RunConfig::default().make_disk();
            let mut index = choice.build(std::sync::Arc::clone(&disk));
            index.bulk_load(&entries).expect("bulk load");
            let buffer = ShardedWriteBuffer::new(
                index,
                ShardedWriteBufferConfig { capacity: 64, drain: 16, shards: 4 },
            );
            let buffer = &buffer;
            std::thread::scope(|s| {
                for w in 0..WRITERS {
                    s.spawn(move || {
                        for i in 0..ROUNDS {
                            let key = fresh_key(max_bulk, w, i);
                            buffer.stage(key, versioned(key, i as u64 + 1)).expect("stage");
                        }
                    });
                }
                for _ in 0..readers {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for i in 0..READER_OPS {
                            buffer.scan((i as u64) * 29, 24, &mut out).expect("scan");
                        }
                    });
                }
            });
            buffer.flush().expect("flush");
            let mut out = Vec::new();
            buffer.scan(0, entries.len() + WRITERS * ROUNDS, &mut out).expect("full scan");
            out
        };
        let quiet = run(0);
        let contended = run(READERS * 2);
        assert_eq!(quiet, contended, "{choice:?}: final state depends on interleaving");
    }
}
