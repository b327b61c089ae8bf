//! A damaged meta gives a typed error or a working index, never a panic,
//! for every design (DESIGN.md §3.7).
//!
//! Each design is bulk loaded on an in-memory disk, inserted into and
//! saved. Its saved meta then takes seeded damage: bytes flipped, eight
//! bytes filled with zeros or ones, a truncation. `load`, `lookup`,
//! `lookup_batch` and `scan` on what loads must each return `Ok` or `Err`;
//! an intact meta must answer exactly like the index that saved it. The
//! blocks on the disk are never damaged, only the meta that points into
//! them.
//!
//! The same damage reaches a durable store through its [`Manifest`]: the
//! damaged bytes are persisted as the newest superblock (its CRC valid)
//! and the store is reopened through the one durable open. Damage to the
//! manifest's own fields (magic, lengths, design tag, WAL list) must give
//! an error or the saved index; damage inside the design's meta, as above,
//! an error or an index that does not panic.
//!
//! A sharded store's `ROUTER` manifest takes the same damage, with its
//! checksum recomputed so the decoder's field checks are what stand in the
//! way: the reopened router must answer exactly like the saved one, or the
//! open must fail.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use lidx_core::{IndexRead, IndexWrite, Key, Manifest, Value, WriteBufferConfig};
use lidx_experiments::{open_durable_index, DurableShardedRouter, IndexChoice};
use lidx_storage::{Disk, DiskConfig, DurableMode, Superblock};
use proptest::prelude::*;

/// One saved design: its disk, its meta and what it answers.
struct Saved {
    choice: IndexChoice,
    disk: Arc<Disk>,
    meta: Vec<u8>,
    probes: Vec<Key>,
    answers: Vec<Option<Value>>,
    scan_from: Key,
    scanned: Vec<(Key, Value)>,
}

const SCAN_ROWS: usize = 50;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The bulk load and the inserts every design is given.
struct Data {
    bulk: Vec<(Key, Value)>,
    inserts: Vec<(Key, Value)>,
}

/// Every design, bulk loaded with 3 000 keys on 512-byte blocks, then
/// given 600 inserts (fresh keys and overwrites) and saved; built once.
fn saved() -> &'static (Data, Vec<Saved>) {
    static SAVED: OnceLock<(Data, Vec<Saved>)> = OnceLock::new();
    SAVED.get_or_init(|| {
        let mut state = 0xDA4A_6ED3_E7A0;
        let mut keys: Vec<Key> =
            (0..3_000).map(|_| splitmix64(&mut state) % (1 << 40) + 1).collect();
        keys.sort_unstable();
        keys.dedup();
        let bulk: Vec<(Key, Value)> = keys.iter().map(|&k| (k, k ^ 0x5A5A)).collect();
        let inserts: Vec<(Key, Value)> = (0..600u64)
            .map(|i| {
                let key = if i % 4 == 0 {
                    keys[(splitmix64(&mut state) as usize) % keys.len()]
                } else {
                    splitmix64(&mut state) % (1 << 40) + 1
                };
                (key, i)
            })
            .collect();
        let mut oracle: BTreeMap<Key, Value> = bulk.iter().copied().collect();
        oracle.extend(inserts.iter().copied());
        let probes: Vec<Key> =
            oracle.keys().step_by(41).flat_map(|&k| [k, k + 1]).chain([0, Key::MAX]).collect();
        let scan_from = *oracle.keys().nth(oracle.len() / 3).expect("keys");
        let saved = IndexChoice::ALL_DESIGNS
            .into_iter()
            .map(|choice| {
                let disk = Disk::in_memory(DiskConfig::with_block_size(512));
                let mut index = choice.build(Arc::clone(&disk));
                index.bulk_load(&bulk).expect("bulk load");
                index.insert_batch(&inserts).expect("inserts");
                let meta = index.save_meta().expect("save");
                let answers: Vec<Option<Value>> =
                    probes.iter().map(|&k| index.lookup(k).expect("lookup")).collect();
                let want: Vec<Option<Value>> =
                    probes.iter().map(|k| oracle.get(k).copied()).collect();
                assert_eq!(
                    answers,
                    want,
                    "{}: the saved index answers like the oracle",
                    choice.name()
                );
                let mut scanned = Vec::new();
                index.scan(scan_from, SCAN_ROWS, &mut scanned).expect("scan");
                Saved { choice, disk, meta, probes: probes.clone(), answers, scan_from, scanned }
            })
            .collect();
        (Data { bulk, inserts }, saved)
    })
}

const BLOCK: usize = 512;

/// Every design built as a durable store from the same data and closed
/// after a clean checkpoint; its directory and encoded manifest. Built once.
fn stores() -> &'static [(PathBuf, Manifest)] {
    static STORES: OnceLock<Vec<(PathBuf, Manifest)>> = OnceLock::new();
    STORES.get_or_init(|| {
        let (data, _) = saved();
        IndexChoice::ALL_DESIGNS
            .into_iter()
            .map(|choice| {
                let dir = scratch(&format!("store-{}", choice.name()));
                let config = DiskConfig::with_block_size(BLOCK);
                let wb = WriteBufferConfig::default();
                let (mut front, _) =
                    open_durable_index(&dir, config, Some(choice), wb, None).expect("create");
                front.bulk_load(&data.bulk).expect("bulk load");
                front.insert_batch(&data.inserts).expect("inserts");
                front.checkpoint(true).expect("checkpoint");
                let superblock = Superblock::load_best(&dir).expect("load").expect("a checkpoint");
                (dir, Manifest::decode(&superblock.meta).expect("manifest"))
            })
            .collect()
    })
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lidx-damaged-meta-{tag}-{}", std::process::id()))
}

/// A copy of the store in `from` (its subdirectories included), so each
/// case damages its own.
fn copy_store(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("case dir");
    for entry in std::fs::read_dir(from).expect("store dir") {
        let path = entry.expect("entry").path();
        let target = to.join(path.file_name().expect("name"));
        if path.is_dir() {
            copy_store(&path, &target);
        } else {
            std::fs::copy(&path, target).expect("copy");
        }
    }
}

/// Damages `bytes` in place: each damage flips the bits `x` of one byte, or
/// fills the eight bytes from it with zeros or ones (a key, block or count
/// gone to 0 or to near its maximum); then cuts at `cut`.
fn damage(bytes: &mut Vec<u8>, at: impl IntoIterator<Item = (usize, u8, u8)>, cut: usize) {
    for (at, how, x) in at {
        let end = (at + 8).min(bytes.len());
        match how {
            0 => bytes[at] ^= x,
            1 => bytes[at..end].fill(0),
            _ => bytes[at..end].fill(0xFF),
        }
    }
    bytes.truncate(cut);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    #[test]
    fn a_damaged_meta_loads_to_an_error_or_an_index_that_does_not_panic(
        design in 0usize..IndexChoice::ALL_DESIGNS.len(),
        // Each damage flips the bits `x` of one byte, or fills the eight
        // bytes from it with zeros or ones (a key, block or count gone to 0
        // or to near its maximum).
        damages in proptest::collection::vec((0usize..1 << 16, 0u8..3, 1u8..255), 0..4),
        // Past the meta's length (about half the cases) nothing is cut.
        cut in 0usize..4_096,
    ) {
        let saved = &saved().1[design];
        let name = saved.choice.name();
        let mut meta = saved.meta.clone();
        prop_assert!(meta.len() < 4_096, "{}: a {}-byte meta", name, meta.len());
        let intact = damages.is_empty() && cut >= meta.len();
        let len = meta.len();
        damage(&mut meta, damages.into_iter().map(|(at, how, x)| (at % len, how, x)), cut);

        let Ok(loaded) = saved.choice.load(Arc::clone(&saved.disk), &meta) else {
            prop_assert!(!intact, "{}: the intact meta must load", name);
            return Ok(());
        };
        let answers: Vec<_> = saved.probes.iter().map(|&k| loaded.lookup(k)).collect();
        let mut batch = Vec::new();
        let batched = loaded.lookup_batch(&saved.probes, &mut batch);
        let mut rows = Vec::new();
        let scanned = loaded.scan(saved.scan_from, SCAN_ROWS, &mut rows);
        if intact {
            let answers: Vec<_> = answers.into_iter().map(Result::ok).collect();
            let want: Vec<_> = saved.answers.iter().map(|&a| Some(a)).collect();
            prop_assert_eq!(answers, want, "{}: per-key lookups", name);
            prop_assert!(batched.is_ok(), "{}: {:?}", name, batched);
            prop_assert_eq!(&batch, &saved.answers, "{}: the batch", name);
            prop_assert!(scanned.is_ok(), "{}: {:?}", name, scanned);
            prop_assert_eq!(&rows, &saved.scanned, "{}: the scan", name);
        }
    }
}

/// Cases of the manifest property; its last case removes the stores.
const MANIFEST_CASES: u32 = 256;

proptest! {
    #![proptest_config(ProptestConfig { cases: MANIFEST_CASES, .. ProptestConfig::default() })]

    #[test]
    fn a_damaged_manifest_opens_to_an_error_or_an_index_that_does_not_panic(
        design in 0usize..IndexChoice::ALL_DESIGNS.len(),
        // Half the damages land on the manifest's own fields, which are a
        // few dozen of its bytes: `in_fields` picks them.
        damages in proptest::collection::vec((0usize..1 << 16, 0u8..2, 0u8..3, 1u8..255), 0..3),
        cut in 0usize..4_096,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let saved = &saved().1[design];
        let name = saved.choice.name();
        let (store, manifest) = &stores()[design];
        let original = manifest.encode();
        let mut bytes = original.clone();
        let intact = damages.is_empty() && cut >= bytes.len();
        // The fields: magic, tag length, tag and meta length up front; the
        // WAL count and ids at the back.
        let head = 12 + manifest.index_kind.len();
        let tail = 4 + 4 * manifest.wal_files.len();
        let fields: Vec<usize> = (0..head).chain(bytes.len() - tail..bytes.len()).collect();
        let at = damages.into_iter().map(|(at, in_fields, how, x)| {
            let at = if in_fields == 1 { fields[at % fields.len()] } else { at % original.len() };
            (at, how, x)
        });
        damage(&mut bytes, at, cut);
        let same_design = Manifest::decode(&bytes).is_ok_and(|m| {
            m.index_kind == manifest.index_kind && m.index_meta == manifest.index_meta
        });

        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = scratch(&format!("case-{case}"));
        copy_store(store, &dir);
        if case + 1 == MANIFEST_CASES as usize {
            stores().iter().for_each(|(store, _)| drop(std::fs::remove_dir_all(store)));
        }
        let config = DiskConfig::with_block_size(BLOCK);
        let (disk, _) = Disk::open_durable(&dir, config, None, DurableMode::Open).expect("open");
        disk.persist(&bytes, false).expect("persist the damaged manifest");
        drop(disk);
        let opened = open_durable_index(&dir, config, None, WriteBufferConfig::default(), None);
        let Ok((front, _)) = opened else {
            std::fs::remove_dir_all(&dir).ok();
            prop_assert!(!intact, "{}: the intact manifest must open", name);
            return Ok(());
        };
        let answers: Vec<_> = saved.probes.iter().map(|&k| front.lookup(k)).collect();
        let mut batch = Vec::new();
        let batched = front.lookup_batch(&saved.probes, &mut batch);
        let mut rows = Vec::new();
        let scanned = front.scan(saved.scan_from, SCAN_ROWS, &mut rows);
        drop(front);
        std::fs::remove_dir_all(&dir).ok();
        if same_design {
            let answers: Vec<_> = answers.into_iter().map(Result::ok).collect();
            let want: Vec<_> = saved.answers.iter().map(|&a| Some(a)).collect();
            prop_assert_eq!(answers, want, "{}: per-key lookups", name);
            prop_assert!(batched.is_ok(), "{}: {:?}", name, batched);
            prop_assert_eq!(&batch, &saved.answers, "{}: the batch", name);
            prop_assert!(scanned.is_ok(), "{}: {:?}", name, scanned);
            prop_assert_eq!(&rows, &saved.scanned, "{}: the scan", name);
        }
    }
}

/// The sharded stores of the router property.
struct Routers {
    /// The full contents each store must scan back.
    full: Vec<(Key, Value)>,
    /// One store directory per design.
    dirs: Vec<PathBuf>,
}

/// Every design as a durable 3-shard store, split at a third and two thirds
/// of the keys, given the same bulk load and inserts and checkpointed.
/// Built once.
fn routers() -> &'static Routers {
    static ROUTERS: OnceLock<Routers> = OnceLock::new();
    ROUTERS.get_or_init(|| {
        let (data, _) = saved();
        let mut oracle: BTreeMap<Key, Value> = data.bulk.iter().copied().collect();
        oracle.extend(data.inserts.iter().copied());
        let full: Vec<(Key, Value)> = oracle.into_iter().collect();
        let boundaries = vec![full[full.len() / 3].0, full[2 * full.len() / 3].0];
        let dirs = IndexChoice::ALL_DESIGNS
            .into_iter()
            .map(|choice| {
                let dir = scratch(&format!("router-{}", choice.name()));
                let create = Some((choice, boundaries.clone()));
                let wb = WriteBufferConfig::default();
                let (mut router, _) =
                    DurableShardedRouter::open(&dir, BLOCK, create, wb).expect("create");
                router.bulk_load(&data.bulk).expect("bulk load");
                for &(key, value) in &data.inserts {
                    router.insert(key, value).expect("insert");
                }
                router.checkpoint().expect("checkpoint");
                dir
            })
            .collect();
        Routers { full, dirs }
    })
}

/// The `ROUTER` manifest's checksum: FNV-1a over its body.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Cases of the router property; its last case removes the stores.
const ROUTER_CASES: u32 = 192;

proptest! {
    #![proptest_config(ProptestConfig { cases: ROUTER_CASES, .. ProptestConfig::default() })]

    #[test]
    fn a_damaged_router_manifest_opens_to_an_error_or_the_saved_router(
        design in 0usize..IndexChoice::ALL_DESIGNS.len(),
        // Half the damages are flips of the digits of the shard lines (their
        // directory names and ranges), of low bits only, so a digit often
        // stays a digit and the line still parses.
        damages in proptest::collection::vec((0usize..1 << 16, 0u8..2, 0u8..3, 1u8..255), 0..3),
        // Past the body's length (about three cases in four) nothing is cut.
        cut in 0usize..512,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let saved = &saved().1[design];
        let name = saved.choice.name();
        let Routers { full, dirs: stores } = routers();
        let store = &stores[design];
        let text = std::fs::read(store.join("ROUTER")).expect("ROUTER");
        let body_len = text.len() - "checksum 0123456789abcdef\n".len();
        let mut body = text[..body_len].to_vec();
        prop_assert!(body.len() < 256, "{}: a {}-byte ROUTER body", name, body.len());
        let intact = damages.is_empty() && cut >= body.len();
        let shard_lines = body.windows(6).position(|w| w == b"shard ").expect("a shard line");
        let digits: Vec<usize> =
            (shard_lines..body.len()).filter(|&i| body[i].is_ascii_digit()).collect();
        let len = body.len();
        let at = damages.into_iter().map(|(at, in_digits, how, x)| {
            if in_digits == 1 {
                (digits[at % digits.len()], 0, x % 15 + 1)
            } else {
                (at % len, how, x)
            }
        });
        damage(&mut body, at, cut);
        if body.last() != Some(&b'\n') {
            body.push(b'\n');
        }
        let checksum = format!("checksum {:016x}\n", fnv1a(&body));
        body.extend_from_slice(checksum.as_bytes());

        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = scratch(&format!("router-case-{case}"));
        copy_store(store, &dir);
        if case + 1 == ROUTER_CASES as usize {
            stores.iter().for_each(|store| drop(std::fs::remove_dir_all(store)));
        }
        std::fs::write(dir.join("ROUTER"), &body).expect("write the damaged ROUTER");
        let opened = DurableShardedRouter::open(&dir, BLOCK, None, WriteBufferConfig::default());
        let Ok((router, _)) = opened else {
            std::fs::remove_dir_all(&dir).ok();
            prop_assert!(!intact, "{}: the intact ROUTER must open", name);
            return Ok(());
        };
        let answers: Vec<_> = saved.probes.iter().map(|&k| router.lookup(k).ok()).collect();
        let mut rows = Vec::new();
        let scanned = router.scan(0, usize::MAX, &mut rows);
        drop(router);
        std::fs::remove_dir_all(&dir).ok();
        let want: Vec<_> = saved.answers.iter().map(|&a| Some(a)).collect();
        prop_assert_eq!(answers, want, "{}: per-key lookups", name);
        prop_assert!(scanned.is_ok(), "{}: {:?}", name, scanned);
        prop_assert!(
            &rows == full,
            "{}: a full scan of {} rows, not {}",
            name,
            rows.len(),
            full.len()
        );
    }
}
