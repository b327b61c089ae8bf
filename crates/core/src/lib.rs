//! Shared types for the disk-resident learned-index evaluation.
//!
//! This crate defines the vocabulary every index crate and the experiment
//! harness agree on:
//!
//! * [`Key`] / [`Value`] — the paper indexes 64-bit unsigned keys and uses
//!   `key + 1` as the payload.
//! * [`index::IndexRead`] / [`index::IndexWrite`] — the operations every
//!   evaluated index must support, split into a shared (`&self`) read side —
//!   lookup, range scan (each with a batched contract), statistics — that N
//!   threads may call concurrently against a bulk-loaded index, and an
//!   exclusive (`&mut self`) write side: bulk load, insert and the batched
//!   [`index::IndexWrite::insert_batch`], plus introspection hooks (storage
//!   footprint, per-operation I/O, insert-step breakdown). The two halves
//!   compose into [`index::DiskIndex`].
//! * [`write_buffer::WriteBuffer`] — a group-commit staging front that gives
//!   any `DiskIndex` PGM-style batched writes: sorted in-memory staging,
//!   newest-wins overlay reads, threshold-driven drains through
//!   `insert_batch`.
//! * [`concurrent::ConcurrentIndex`] / [`concurrent::ShardedWriteBuffer`] —
//!   the concurrent write front: a reader/writer lock that keeps `IndexRead`
//!   `&self` while drains take exclusive access one chunk at a time, and a
//!   key-range-sharded staging map so writer threads race safely against
//!   overlay readers.
//! * [`persist::Manifest`] — the restart manifest stored in the storage
//!   layer's checksummed superblock at every checkpoint: the design tag, its
//!   [`index::IndexWrite::save_meta`] bytes, and the WAL segment files to
//!   replay. [`write_buffer::WriteBuffer`] is the one durable front: it
//!   attaches the WAL (`with_wal` / `with_wal_replayed`) so staged entries
//!   survive a kill mid-drain.
//! * [`metrics`] — latency recording (mean / p50 / p99 / standard deviation),
//!   throughput derivation from the simulated device time, and the
//!   search / insert / SMO / maintenance breakdown of Fig. 6.
//! * [`error::IndexError`] — the error type shared by the index crates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod concurrent;
pub mod error;
pub mod index;
pub mod metrics;
pub mod persist;
pub mod sharded;
#[cfg(test)]
pub(crate) mod test_support;
pub mod write_buffer;

pub use concurrent::{
    sampled_boundaries, ConcurrentIndex, ShardedWriteBuffer, ShardedWriteBufferConfig,
};
pub use error::{IndexError, IndexResult};
pub use index::{DiskIndex, IndexKind, IndexRead, IndexStats, IndexWrite};
pub use metrics::{
    InsertBreakdown, InsertStep, LatencyRecorder, LatencySummary, StepLaps, Throughput,
};
pub use persist::{Manifest, MetaReader, MetaWriter};
pub use sharded::{ShardFactory, ShardedIndex, ShardedIndexConfig};
pub use write_buffer::{WriteBuffer, WriteBufferConfig};

/// The key type indexed throughout the evaluation (the paper uses `uint64`).
pub type Key = u64;

/// The payload type; the paper sets `payload = key + 1`.
pub type Value = u64;

/// The payload the paper associates with a key.
#[inline]
pub fn payload_for(key: Key) -> Value {
    key.wrapping_add(1)
}

/// A key-payload pair as stored in leaf nodes.
pub type Entry = (Key, Value);

/// Merges two ascending-key entry streams into `out` (appended), with
/// `newer` shadowing `stored` on equal keys, stopping once `limit` entries
/// have been produced. This is the newest-wins merge every layered read
/// path needs — the [`WriteBuffer`] overlay scan and the FITing-tree's
/// resegmentation both route through it.
///
/// Both inputs must be strictly ascending in key; the output then is too.
///
/// ```
/// let mut out = Vec::new();
/// lidx_core::merge_newest_wins(
///     [(2, 20), (3, 30)],            // newer
///     [(1, 1), (2, 2), (4, 4)],      // stored
///     3,
///     &mut out,
/// );
/// assert_eq!(out, vec![(1, 1), (2, 20), (3, 30)], "newer shadows key 2; limit stops at 3");
/// ```
pub fn merge_newest_wins(
    newer: impl IntoIterator<Item = Entry>,
    stored: impl IntoIterator<Item = Entry>,
    limit: usize,
    out: &mut Vec<Entry>,
) {
    let mut newer = newer.into_iter().peekable();
    let mut stored = stored.into_iter().peekable();
    let mut produced = 0usize;
    while produced < limit {
        match (newer.peek(), stored.peek()) {
            (Some(&(nk, nv)), Some(&(sk, _))) => {
                if nk <= sk {
                    if nk == sk {
                        stored.next(); // the newer entry shadows the stored one
                    }
                    out.push((nk, nv));
                    newer.next();
                } else {
                    out.push(stored.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(newer.next().expect("peeked")),
            (None, Some(_)) => out.push(stored.next().expect("peeked")),
            (None, None) => break,
        }
        produced += 1;
    }
}

/// The batched lookup every layered read path shares — both write-front
/// overlays (one downstream group: the wrapped index) and the shard router
/// (one group per shard, nothing answered locally). A key `staged` answers
/// is settled on the spot; every other key joins the downstream group
/// `group_of` names, each non-empty group is forwarded once (groups
/// ascending, keys in caller order) and the answers are scattered back into
/// caller order.
pub(crate) fn lookup_batch_layered(
    keys: &[Key],
    out: &mut Vec<Option<Value>>,
    groups: usize,
    mut staged: impl FnMut(Key) -> Option<Value>,
    mut group_of: impl FnMut(Key) -> usize,
    mut forward: impl FnMut(usize, &[Key], &mut Vec<Option<Value>>) -> IndexResult<()>,
) -> IndexResult<()> {
    out.clear();
    out.resize(keys.len(), None);
    if keys.is_empty() {
        return Ok(());
    }
    let mut group_keys: Vec<Vec<Key>> = vec![Vec::new(); groups];
    let mut group_slots: Vec<Vec<usize>> = vec![Vec::new(); groups];
    for (i, &key) in keys.iter().enumerate() {
        out[i] = staged(key);
        if out[i].is_none() {
            let group = group_of(key);
            group_keys[group].push(key);
            group_slots[group].push(i);
        }
    }
    let mut answers = Vec::new();
    for (group, (keys, slots)) in group_keys.iter().zip(&group_slots).enumerate() {
        if keys.is_empty() {
            continue;
        }
        forward(group, keys, &mut answers)?;
        for (&slot, answer) in slots.iter().zip(answers.drain(..)) {
            out[slot] = answer;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::MapIndex;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn merged(
        newer: impl IntoIterator<Item = Entry>,
        stored: impl IntoIterator<Item = Entry>,
        limit: usize,
    ) -> Vec<Entry> {
        let mut out = Vec::new();
        merge_newest_wins(newer, stored, limit, &mut out);
        out
    }

    #[test]
    fn zero_limit_produces_nothing_and_consumes_nothing() {
        assert_eq!(merged([(1, 10), (2, 20)], [(1, 1), (3, 3)], 0), vec![]);
        assert_eq!(merged([], [], 0), vec![]);
        // Appending semantics: a zero limit must not clear what's there.
        let mut out = vec![(9, 9)];
        merge_newest_wins([(1, 10)], [(2, 2)], 0, &mut out);
        assert_eq!(out, vec![(9, 9)]);
    }

    #[test]
    fn a_sentinel_limit_drains_both_sides_without_overflowing() {
        // `usize::MAX` is the conventional "no limit" sentinel: the merge
        // must terminate when both inputs are exhausted, not chase the
        // limit.
        let out = merged([(2, 20), (5, 50)], [(1, 1), (2, 2), (9, 9)], usize::MAX);
        assert_eq!(out, vec![(1, 1), (2, 20), (5, 50), (9, 9)]);
    }

    #[test]
    fn a_fully_shadowed_stored_side_yields_only_newer_values() {
        let newer = [(1, 10), (2, 20), (3, 30)];
        let stored = [(1, 1), (2, 2), (3, 3)];
        assert_eq!(merged(newer, stored, usize::MAX), vec![(1, 10), (2, 20), (3, 30)]);
        // And the limit still counts shadowed keys exactly once.
        assert_eq!(merged(newer, stored, 2), vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn one_sided_inputs_pass_through() {
        assert_eq!(merged([(4, 40), (6, 60)], [], usize::MAX), vec![(4, 40), (6, 60)]);
        assert_eq!(merged([], [(4, 4), (6, 6)], usize::MAX), vec![(4, 4), (6, 6)]);
        assert_eq!(merged([], [(4, 4), (6, 6)], 1), vec![(4, 4)]);
    }

    #[test]
    fn the_limit_cuts_mid_merge_preserving_order() {
        let out = merged([(3, 30)], [(1, 1), (2, 2), (4, 4)], 3);
        assert_eq!(out, vec![(1, 1), (2, 2), (3, 30)]);
    }

    /// What any overlay scan must produce: staged entries overwrite stored
    /// ones, then the first `count` entries with key `>= start`.
    fn model_scan(
        stored: &BTreeMap<Key, Value>,
        staged: &BTreeMap<Key, Value>,
        start: Key,
        count: usize,
    ) -> Vec<Entry> {
        let mut merged = stored.clone();
        for (&k, &v) in staged {
            merged.insert(k, v);
        }
        merged.range(start..).take(count).map(|(&k, &v)| (k, v)).collect()
    }

    fn entries(map: &BTreeMap<Key, Value>) -> Vec<Entry> {
        map.iter().map(|(&k, &v)| (k, v)).collect()
    }

    proptest! {
        /// The same (stored, staged, scan) case runs through both staging
        /// fronts; `capacity` is drawn too, so some cases drain mid-staging and
        /// some answer purely from the overlay.
        #[test]
        fn overlay_scans_match_the_reference_model(
            stored_pairs in proptest::collection::vec((0u64..200, 0u64..1_000), 0..32),
            staged_pairs in proptest::collection::vec((0u64..200, 0u64..1_000), 0..32),
            start in 0u64..210,
            count in 0usize..48,
            capacity in prop_oneof![Just(4usize), Just(1_024usize)],
        ) {
            // Later duplicates win when collecting, matching staging semantics.
            let stored: BTreeMap<Key, Value> = stored_pairs.into_iter().collect();
            let staged: BTreeMap<Key, Value> = staged_pairs.into_iter().collect();
            let expected = model_scan(&stored, &staged, start, count);
            let stored_entries = entries(&stored);
            let staged_entries = entries(&staged);

            // Single-threaded front.
            let mut wb = WriteBuffer::new(
                MapIndex::new(),
                WriteBufferConfig { capacity, drain: capacity },
            );
            wb.bulk_load(&stored_entries).unwrap();
            for &(k, v) in &staged_entries {
                wb.insert(k, v).unwrap();
            }
            let mut got = Vec::new();
            wb.scan(start, count, &mut got).unwrap();
            prop_assert_eq!(&got, &expected, "WriteBuffer::scan diverged from the model");

            // Sharded concurrent front (same case, three key-range shards).
            let mut swb = ShardedWriteBuffer::with_boundaries(
                MapIndex::new(),
                ShardedWriteBufferConfig { capacity, drain: capacity, shards: 3 },
                vec![70, 140],
            );
            swb.bulk_load(&stored_entries).unwrap();
            swb.stage_batch(&staged_entries).unwrap();
            let mut got = Vec::new();
            swb.scan(start, count, &mut got).unwrap();
            prop_assert_eq!(&got, &expected, "ShardedWriteBuffer::scan diverged from the model");
        }
    }
}
