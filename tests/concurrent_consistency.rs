//! The cross-index concurrency oracle suite: for every `IndexChoice`
//! variant, 8 reader threads race random lookups, batched lookups and range
//! scans against a bulk-loaded (frozen) index, and every single answer must
//! match an in-memory `BTreeMap` oracle. Afterwards the disk's statistics must be
//! internally consistent — no torn or double-counted I/O counters.
//!
//! Races rarely surface in a single debug run, so CI additionally executes
//! this test under `cargo test --release` (see .github/workflows/ci.yml).

use std::collections::BTreeMap;

use lidx_core::{DiskIndex, Entry, IndexWrite, Key, Value};
use lidx_experiments::runner::{IndexChoice, RunConfig};
use lidx_storage::DeviceModel;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 400;

/// A tiny deterministic PRNG (splitmix64) so each thread gets its own
/// reproducible operation stream without sharing any state.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn dataset() -> (Vec<Entry>, BTreeMap<Key, Value>) {
    let entries: Vec<Entry> = (0..25_000u64)
        .map(|i| i * 13 + (i % 31) * 5)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|k| (k, k + 1))
        .collect();
    let oracle = entries.iter().copied().collect();
    (entries, oracle)
}

#[test]
fn eight_reader_threads_agree_with_the_oracle_for_every_index() {
    let (entries, oracle) = dataset();
    let max_key = entries.last().unwrap().0;

    for choice in IndexChoice::ALL_DESIGNS {
        // A flat cost model (1 ns per device read, sequential or not) turns
        // the device-time counter into an exact read counter, which the
        // post-race consistency check below relies on.
        let cfg = RunConfig { device: DeviceModel::custom("flat", 1, 7, 1), ..Default::default() };
        let disk = cfg.make_disk();
        let mut index = choice.build(std::sync::Arc::clone(&disk));
        index.bulk_load(&entries).expect("bulk load");

        // Steady state: measure only the read phase.
        disk.stats().reset();
        disk.reset_access_state();

        let shared: &dyn DiskIndex = &*index;
        let entries = &entries;
        let oracle = &oracle;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    let mut rng = 0xDEAD_BEEF_u64 ^ ((t as u64 + 1) << 32);
                    let mut out = Vec::new();
                    let mut answers = Vec::new();
                    for _ in 0..OPS_PER_THREAD {
                        let r = splitmix(&mut rng);
                        if r % 4 < 2 {
                            // Lookup: alternate stored keys and random probes
                            // (mostly absent).
                            let k = if r.is_multiple_of(2) {
                                entries[(r / 16) as usize % entries.len()].0
                            } else {
                                splitmix(&mut rng) % (max_key + 1000)
                            };
                            let got = shared.lookup(k).expect("lookup");
                            assert_eq!(
                                got,
                                oracle.get(&k).copied(),
                                "{choice:?} thread {t} lookup({k})"
                            );
                        } else if r % 4 == 2 {
                            // Batched lookup of stored keys and random
                            // probes, through each design's override.
                            let probes: Vec<Key> = (0..8)
                                .map(|i| {
                                    let p = splitmix(&mut rng);
                                    if i % 2 == 0 {
                                        entries[p as usize % entries.len()].0
                                    } else {
                                        p % (max_key + 1000)
                                    }
                                })
                                .collect();
                            shared.lookup_batch(&probes, &mut answers).expect("lookup_batch");
                            for (k, got) in probes.iter().zip(&answers) {
                                assert_eq!(
                                    *got,
                                    oracle.get(k).copied(),
                                    "{choice:?} thread {t} lookup_batch({k})"
                                );
                            }
                        } else {
                            // Range scan from a random start, random length.
                            let start = splitmix(&mut rng) % (max_key + 1000);
                            let len = (r % 64 + 1) as usize;
                            let n = shared.scan(start, len, &mut out).expect("scan");
                            let expected: Vec<Entry> =
                                oracle.range(start..).take(len).map(|(&k, &v)| (k, v)).collect();
                            assert_eq!(n, expected.len(), "{choice:?} thread {t} scan({start})");
                            assert_eq!(out, expected, "{choice:?} thread {t} scan({start})");
                        }
                    }
                });
            }
        });

        // Consistency of the shared statistics after the race:
        let stats = disk.stats();
        assert_eq!(stats.writes(), 0, "{choice:?}: a frozen index must never write");
        assert_eq!(stats.allocated_blocks(), 0, "{choice:?}: reads must not allocate");
        assert_eq!(
            stats.device_ns(),
            stats.reads(),
            "{choice:?}: flat 1ns model — torn device-time counters detected"
        );
        assert!(
            stats.reads() + stats.buffer_hits() + stats.reuse_hits()
                >= (THREADS * OPS_PER_THREAD) as u64,
            "{choice:?}: every operation must fetch at least one block"
        );
    }
}

#[test]
fn batched_reader_threads_together_find_every_stored_key() {
    // Three threads split the stored keys between them (every third key
    // each) and look their share up through `lookup_batch` in chunks of 16:
    // every answer is the stored value, and together they cover the set.
    const READERS: usize = 3;
    let (entries, _) = dataset();
    for choice in IndexChoice::ALL_DESIGNS {
        let disk = RunConfig::default().make_disk();
        let mut index = choice.build(std::sync::Arc::clone(&disk));
        index.bulk_load(&entries).expect("bulk load");
        disk.stats().reset();

        let shared: &dyn DiskIndex = &*index;
        let entries = &entries;
        let answered: usize = std::thread::scope(|s| {
            let readers: Vec<_> = (0..READERS)
                .map(|t| {
                    s.spawn(move || {
                        let mine: Vec<Entry> =
                            entries.iter().skip(t).step_by(READERS).copied().collect();
                        let mut answers = Vec::new();
                        for chunk in mine.chunks(16) {
                            let keys: Vec<Key> = chunk.iter().map(|&(k, _)| k).collect();
                            shared.lookup_batch(&keys, &mut answers).expect("lookup_batch");
                            for (&(k, v), got) in chunk.iter().zip(&answers) {
                                assert_eq!(*got, Some(v), "{choice:?} thread {t} key {k}");
                            }
                        }
                        mine.len()
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().expect("reader thread panicked")).sum()
        });
        assert_eq!(answered, entries.len(), "{choice:?}: the readers must cover every key");
        assert_eq!(disk.stats().writes(), 0, "{choice:?}: a frozen index must never write");
        assert!(disk.stats().reads() > 0, "{choice:?}: lookups must fetch blocks");
    }
}

#[test]
fn concurrent_readers_return_the_same_blocks_read_as_serial_execution() {
    // Determinism of the I/O accounting: the *set* of work is identical, so
    // the device-read counter after N threads must stay within the envelope
    // of a serial run (reuse hits can only turn device reads into hits,
    // never invent them).
    let (entries, _) = dataset();
    for choice in [IndexChoice::BTree, IndexChoice::HybridPla, IndexChoice::Pgm] {
        let probe: Vec<Key> = entries.iter().step_by(97).map(|e| e.0).collect();

        let run = |threads: usize| -> (u64, u64) {
            let disk = RunConfig::default().make_disk();
            let mut index = choice.build(std::sync::Arc::clone(&disk));
            index.bulk_load(&entries).expect("bulk load");
            disk.stats().reset();
            disk.reset_access_state();
            let shared: &dyn DiskIndex = &*index;
            let probe = &probe;
            std::thread::scope(|s| {
                for t in 0..threads {
                    s.spawn(move || {
                        let mut i = t;
                        while i < probe.len() {
                            shared.lookup(probe[i]).expect("lookup");
                            i += threads;
                        }
                    });
                }
            });
            (disk.stats().reads(), disk.stats().reuse_hits())
        };

        let (serial_reads, serial_reuse) = run(1);
        let (par_reads, par_reuse) = run(8);
        let serial_total = serial_reads + serial_reuse;
        let par_total = par_reads + par_reuse;
        assert_eq!(
            serial_total, par_total,
            "{choice:?}: total served block requests must not depend on thread count"
        );
    }
}
