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

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use lidx_core::{Key, Value};
use lidx_experiments::IndexChoice;
use lidx_storage::{Disk, DiskConfig};
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

/// Every design, bulk loaded with 3 000 keys on 512-byte blocks, then
/// given 600 inserts (fresh keys and overwrites) and saved; built once.
fn saved() -> &'static [Saved] {
    static SAVED: OnceLock<Vec<Saved>> = OnceLock::new();
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
        IndexChoice::ALL_DESIGNS
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
            .collect()
    })
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
        let saved = &saved()[design];
        let name = saved.choice.name();
        let mut meta = saved.meta.clone();
        prop_assert!(meta.len() < 4_096, "{}: a {}-byte meta", name, meta.len());
        let intact = damages.is_empty() && cut >= meta.len();
        for (at, how, x) in damages {
            let at = at % meta.len();
            let end = (at + 8).min(meta.len());
            match how {
                0 => meta[at] ^= x,
                1 => meta[at..end].fill(0),
                _ => meta[at..end].fill(0xFF),
            }
        }
        meta.truncate(cut);

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
