//! Kill-and-recover oracles: every design, crashed at an adversarial point
//! and reopened, must agree exactly with an in-memory newest-wins oracle.
//!
//! The fault matrix per design:
//!
//! * **clean kill** — checkpoint, drop, reopen: nothing to replay, exact
//!   equality with the full oracle.
//! * **mid-drain kill** — the first index write after the WAL fsync-point
//!   fails, so the drain dies before damaging a single block; the reopen
//!   replays the entire staged set over the last checkpoint. Exact.
//! * **torn WAL record** — the group-commit tail block is torn mid-record;
//!   replay trims to the valid prefix. The recovered store must equal the
//!   oracle after exactly `replayed` operations (records are applied in op
//!   order, so the replay count names the prefix).
//! * **torn superblock** — the checkpoint after a quiescent checkpoint tears
//!   its superblock slot; reopen falls back to the previous generation,
//!   which describes the identical state. Exact, nothing to replay.
//! * **transient read EIO** — the reopen's reads hit a burst of injected
//!   EIOs; the bounded-backoff retry path absorbs them. Exact, and the
//!   retries are visible in `IoStats::io_retries`.
//!
//! Every case stands on the checkpoint's sync barriers, logged by the fault
//! plan: the WAL at the drain's fsync-point, then every file the superblock
//! names, then the superblock.
//!
//! Sharded mode extends the matrix: a durable sharded router killed in the
//! middle of an online shard split must recover to *exactly* the pre-split
//! or the post-split boundary set — a kill before the manifest rename
//! serves the old shard untouched (and the reopen sweeps the orphaned
//! half-built dirs), a kill after it serves the two halves (and sweeps the
//! retired dir). Either way the recovered contents equal the oracle: no
//! half-moved shard, no lost key.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use lidx_core::{
    payload_for, IndexRead, IndexResult, IndexWrite, Key, Manifest, Value, WriteBufferConfig,
};
use lidx_experiments::recovery::{open_durable_index, DurableIndex};
use lidx_experiments::sharded_recovery::{DurableShardedRouter, SplitFault};
use lidx_experiments::IndexChoice;
use lidx_storage::{Barrier, BlockKind, Disk, DiskConfig, FaultPlan, OpClass, Superblock};

const BLOCK: usize = 4096;
const BULK: usize = 3_000;
const OPS: usize = 300;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn scratch(tag: &str, choice: IndexChoice) -> PathBuf {
    std::env::temp_dir().join(format!("lidx-kar-{tag}-{}-{}", choice.name(), std::process::id()))
}

/// A fresh durable store of `choice` in `dir`, on `BLOCK`-byte blocks.
fn create(dir: &Path, choice: IndexChoice, plan: Option<FaultPlan>) -> IndexResult<DurableIndex> {
    let disk = DiskConfig::with_block_size(BLOCK);
    Ok(open_durable_index(dir, disk, Some(choice), WriteBufferConfig::default(), plan)?.0)
}

/// The store in `dir` reopened, with the number of WAL entries replayed.
fn reopen(dir: &Path, plan: Option<FaultPlan>) -> IndexResult<(DurableIndex, u64)> {
    let disk = DiskConfig::with_block_size(BLOCK);
    open_durable_index(dir, disk, None, WriteBufferConfig::default(), plan)
}

fn bulk_entries() -> Vec<(Key, Value)> {
    let mut state = 0xB01D_FACE;
    let mut keys: Vec<Key> = (0..BULK).map(|_| splitmix64(&mut state) >> 1).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter().map(|k| (k, payload_for(k))).collect()
}

/// The op stream: a deterministic mix of updates to bulk keys (every third
/// op) and inserts of fresh keys, each carrying a value no other op or bulk
/// entry uses, so newest-wins outcomes are unambiguous.
fn op_stream(bulk: &[(Key, Value)]) -> Vec<(Key, Value)> {
    let mut state = 0xCAFE_D00D;
    (0..OPS)
        .map(|i| {
            let key = if i % 3 == 0 {
                bulk[(splitmix64(&mut state) as usize) % bulk.len()].0
            } else {
                splitmix64(&mut state) >> 1
            };
            (key, 1_000_000_000 + i as Value)
        })
        .collect()
}

/// The oracle after the bulk load plus the first `t` operations.
fn oracle_at(bulk: &[(Key, Value)], ops: &[(Key, Value)], t: usize) -> BTreeMap<Key, Value> {
    let mut m: BTreeMap<Key, Value> = bulk.iter().copied().collect();
    for &(k, v) in &ops[..t] {
        m.insert(k, v);
    }
    m
}

/// Exact newest-wins equality: every oracle key answers its oracle value,
/// a spread of absent keys answers `None`, and a range scan from the
/// smallest key reproduces the oracle's ascending prefix.
fn assert_matches_oracle(front: &DurableIndex, oracle: &BTreeMap<Key, Value>, label: &str) {
    for (&k, &v) in oracle {
        assert_eq!(
            front.lookup(k).expect("lookup"),
            Some(v),
            "{label}: key {k} must answer its newest value"
        );
    }
    let mut state = 0xAB5E_u64;
    for _ in 0..64 {
        let k = splitmix64(&mut state) | (1 << 63); // bulk/op keys are < 2^63
        assert_eq!(front.lookup(k).expect("lookup"), None, "{label}: absent key {k}");
    }
    let (&first, _) = oracle.iter().next().expect("oracle is never empty");
    let want: Vec<(Key, Value)> = oracle.iter().take(100).map(|(&k, &v)| (k, v)).collect();
    let mut got = Vec::new();
    front.scan(first, 100, &mut got).expect("scan");
    assert_eq!(got, want, "{label}: scan from the smallest key");
}

fn disk_of(front: &DurableIndex) -> Arc<Disk> {
    Arc::clone(front.disk())
}

#[test]
fn clean_kill_recovers_exactly() {
    let bulk = bulk_entries();
    let ops = op_stream(&bulk);
    let oracle = oracle_at(&bulk, &ops, OPS);
    for choice in IndexChoice::ALL_DESIGNS {
        let dir = scratch("clean", choice);
        let mut front = create(&dir, choice, None).expect("create");
        front.bulk_load(&bulk).expect("bulk load");
        for &(k, v) in &ops {
            front.insert(k, v).expect("insert");
        }
        let stats = disk_of(&front).snapshot();
        assert!(
            stats.wal_appends >= OPS as u64,
            "{}: every op must be logged (got {} appends)",
            choice.name(),
            stats.wal_appends
        );
        assert!(stats.wal_bytes > 0, "{}: WAL bytes must be counted", choice.name());
        front.checkpoint(true).expect("clean checkpoint");
        drop(front);

        let (recovered, replayed) = reopen(&dir, None).expect("reopen");
        assert_eq!(replayed, 0, "{}: a clean checkpoint leaves no WAL tail", choice.name());
        assert_matches_oracle(&recovered, &oracle, choice.name());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One checkpoint (a drain) logs the WAL's barrier, then one barrier per
/// file in file order, then the superblock's; a superblock barrier ahead of
/// a file's would let a crash keep a checkpoint naming unsynced blocks.
#[test]
fn a_checkpoint_syncs_the_wal_then_every_file_then_the_superblock() {
    let bulk = bulk_entries();
    let ops = op_stream(&bulk);
    for choice in IndexChoice::ALL_DESIGNS {
        let dir = scratch("barriers", choice);
        let plan = FaultPlan::new();
        let mut front = create(&dir, choice, Some(plan.clone())).expect("create");
        front.bulk_load(&bulk).expect("bulk load");
        for &(k, v) in &ops {
            front.insert(k, v).expect("insert");
        }
        let before = plan.barriers().len();
        front.flush().expect("checkpoint");
        let superblock = Superblock::load_best(&dir).expect("load").expect("a checkpoint");
        let manifest = Manifest::decode(&superblock.meta).expect("manifest");
        let files = superblock.file_blocks.len() as u32;
        let mut want = vec![Barrier::File(manifest.wal_files[0])];
        want.extend((0..files).map(Barrier::File));
        want.push(Barrier::Superblock);
        assert_eq!(plan.barriers()[before..], want[..], "{}", choice.name());
        assert!(files >= 2, "{}: the index has a file besides the WAL", choice.name());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `checkpoint(clean)` drains what is staged and writes one checkpoint
/// carrying `clean`: one superblock slot, one WAL truncate, not the drain's
/// own checkpoint followed by a second.
#[test]
fn a_checkpoint_with_staged_entries_persists_once() {
    let bulk = bulk_entries();
    let ops = op_stream(&bulk);
    for choice in IndexChoice::ALL_DESIGNS {
        let dir = scratch("persist-once", choice);
        let plan = FaultPlan::new();
        let mut front = create(&dir, choice, Some(plan.clone())).expect("create");
        front.bulk_load(&bulk).expect("bulk load");
        for &(k, v) in &ops {
            front.insert(k, v).expect("insert");
        }
        assert!(front.staged_len() > 0, "{}: entries are staged", choice.name());
        let before = plan.barriers().len();
        front.checkpoint(true).expect("checkpoint");
        let superblocks =
            plan.barriers()[before..].iter().filter(|&&b| b == Barrier::Superblock).count();
        assert_eq!(superblocks, 1, "{}: one checkpoint, one superblock", choice.name());
        assert_eq!(front.staged_len(), 0, "{}: the checkpoint drained", choice.name());
        let superblock = Superblock::load_best(&dir).expect("load").expect("a checkpoint");
        assert!(superblock.clean_shutdown, "{}: the one slot carries `clean`", choice.name());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn mid_drain_kill_replays_the_full_staged_set() {
    let bulk = bulk_entries();
    let ops = op_stream(&bulk);
    let oracle = oracle_at(&bulk, &ops, OPS);
    for choice in IndexChoice::ALL_DESIGNS {
        let dir = scratch("middrain", choice);
        let plan = FaultPlan::new();
        let mut front = create(&dir, choice, Some(plan.clone())).expect("create");
        front.bulk_load(&bulk).expect("bulk load");
        for &(k, v) in &ops {
            front.insert(k, v).expect("insert");
        }
        // Write #1 from here is the WAL sync's tail flush (the fsync-point);
        // write #2 is the drain's first index write. Failing it kills the
        // drain before any index block changes, modelling a crash at the
        // most adversarial moment the WAL protocol defends: after the log
        // is durable, before the structure absorbed anything.
        plan.fail_nth_write(2);
        let err = front.flush();
        assert!(err.is_err(), "{}: the injected write failure must surface", choice.name());
        assert_eq!(plan.writes_failed(), 1, "{}: exactly one write fails", choice.name());
        drop(front); // the kill

        let (recovered, replayed) = reopen(&dir, None).expect("reopen");
        assert_eq!(
            replayed,
            OPS as u64,
            "{}: every logged op is replayed over the last checkpoint",
            choice.name()
        );
        let stats = disk_of(&recovered).snapshot();
        assert_eq!(
            stats.replayed_entries,
            OPS as u64,
            "{}: the replay is visible in IoStats",
            choice.name()
        );
        let telemetry = disk_of(&recovered).telemetry().snapshot();
        let replay = telemetry.class(OpClass::Recovery);
        assert_eq!(
            (replay.summary.count, replay.counter),
            (1, OPS as u64),
            "{}: the reopen is one recovery pause counting every replayed entry",
            choice.name()
        );
        assert_matches_oracle(&recovered, &oracle, choice.name());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn torn_wal_record_recovers_a_consistent_prefix() {
    let bulk = bulk_entries();
    let ops = op_stream(&bulk);
    for choice in IndexChoice::ALL_DESIGNS {
        let dir = scratch("tornwal", choice);
        let plan = FaultPlan::new();
        let mut front = create(&dir, choice, Some(plan.clone())).expect("create");
        front.bulk_load(&bulk).expect("bulk load");
        for &(k, v) in &ops {
            front.insert(k, v).expect("insert");
        }
        // Tear the group-commit tail flush mid-record: 100 bytes is three
        // whole 32-byte records plus 4 bytes of a fourth.
        plan.tear_nth_write(1, 100);
        assert!(front.sync_wal().is_err(), "{}: the torn sync must surface", choice.name());
        assert_eq!(plan.writes_torn(), 1, "{}: exactly one write tears", choice.name());
        drop(front); // the kill

        let (recovered, replayed) = reopen(&dir, None).expect("reopen");
        let replayed = replayed as usize;
        assert!(
            replayed < OPS,
            "{}: the torn record and its successors must not replay",
            choice.name()
        );
        // Records replay in op order, so the recovered store is the oracle
        // after exactly `replayed` operations — prefix consistency.
        let oracle = oracle_at(&bulk, &ops, replayed);
        assert_matches_oracle(&recovered, &oracle, choice.name());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn torn_superblock_falls_back_to_the_previous_checkpoint() {
    let bulk = bulk_entries();
    let ops = op_stream(&bulk);
    let oracle = oracle_at(&bulk, &ops, OPS);
    for choice in IndexChoice::ALL_DESIGNS {
        let dir = scratch("tornsb", choice);
        let plan = FaultPlan::new();
        let mut front = create(&dir, choice, Some(plan.clone())).expect("create");
        front.bulk_load(&bulk).expect("bulk load");
        for &(k, v) in &ops {
            front.insert(k, v).expect("insert");
        }
        front.checkpoint(false).expect("quiescent checkpoint");
        // A second, quiescent checkpoint whose superblock slot tears: the
        // reopen must fall back to the previous generation, which describes
        // the identical state.
        plan.tear_next_superblock(32);
        assert!(
            front.checkpoint(false).is_err(),
            "{}: the torn superblock must surface",
            choice.name()
        );
        drop(front); // the kill

        let (recovered, replayed) =
            reopen(&dir, None).expect("reopen falls back to the intact slot");
        assert_eq!(replayed, 0, "{}: the WAL was already truncated", choice.name());
        assert_matches_oracle(&recovered, &oracle, choice.name());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Builds a loaded 3-shard durable router in `dir` with the ops applied,
/// returning the shard whose range holds the most oracle keys (the one the
/// split targets) alongside the pre-split boundary set.
fn sharded_store(
    dir: &std::path::Path,
    choice: IndexChoice,
    bulk: &[(Key, Value)],
    ops: &[(Key, Value)],
) -> (DurableShardedRouter, Vec<Key>, usize) {
    let boundaries = vec![bulk[bulk.len() / 3].0, bulk[2 * bulk.len() / 3].0];
    let create = Some((choice, boundaries.clone()));
    let (mut router, _) =
        DurableShardedRouter::open(dir, BLOCK, create, WriteBufferConfig::default())
            .expect("create sharded store");
    router.bulk_load(bulk).expect("bulk load");
    for &(k, v) in ops {
        router.insert(k, v).expect("insert");
    }
    // Group-commit: the ops are acknowledged, so the kill must lose none.
    router.sync_wal().expect("sync");
    (router, boundaries, 1)
}

/// The shard-dir names currently on disk (sorted), for orphan-sweep checks.
fn shard_dirs_on_disk(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read store dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("shard-"))
        .collect();
    names.sort();
    names
}

/// Exact oracle equality through the sharded router's read surface.
fn assert_sharded_matches_oracle(
    router: &DurableShardedRouter,
    oracle: &BTreeMap<Key, Value>,
    label: &str,
) {
    for (&k, &v) in oracle {
        assert_eq!(
            router.lookup(k).expect("lookup"),
            Some(v),
            "{label}: key {k} must answer its newest value"
        );
    }
    let (&first, _) = oracle.iter().next().expect("oracle is never empty");
    let want: Vec<(Key, Value)> = oracle.iter().take(200).map(|(&k, &v)| (k, v)).collect();
    let mut got = Vec::new();
    router.scan(first, 200, &mut got).expect("scan");
    assert_eq!(got, want, "{label}: scan stitched across recovered shards");
}

#[test]
fn mid_split_kill_before_commit_recovers_the_pre_split_boundaries() {
    let bulk = bulk_entries();
    let ops = op_stream(&bulk);
    let oracle = oracle_at(&bulk, &ops, OPS);
    for choice in IndexChoice::ALL_DESIGNS {
        let dir = scratch("splitpre", choice);
        let (mut router, boundaries, hot) = sharded_store(&dir, choice, &bulk, &ops);
        // The kill: the split dies after building both halves aside but
        // before the manifest rename — the commit never happened.
        router.split_shard(hot, SplitFault::CrashBeforeCommit).expect("split until the kill");
        drop(router);

        let (recovered, _) =
            DurableShardedRouter::open(&dir, BLOCK, None, WriteBufferConfig::default())
                .expect("reopen");
        assert_eq!(
            recovered.boundaries(),
            &boundaries[..],
            "{}: a pre-commit kill must recover the pre-split boundary set",
            choice.name()
        );
        assert_eq!(recovered.shard_count(), 3, "{}: still three shards", choice.name());
        assert_sharded_matches_oracle(&recovered, &oracle, choice.name());
        // The half-built generation-1 dirs are orphans; the reopen swept
        // them, leaving exactly the three committed shard dirs.
        assert_eq!(
            shard_dirs_on_disk(&dir),
            vec!["shard-0-0", "shard-0-1", "shard-0-2"],
            "{}: orphaned split halves must be swept",
            choice.name()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn mid_split_kill_after_commit_recovers_the_post_split_boundaries() {
    let bulk = bulk_entries();
    let ops = op_stream(&bulk);
    let oracle = oracle_at(&bulk, &ops, OPS);
    for choice in IndexChoice::ALL_DESIGNS {
        let dir = scratch("splitpost", choice);
        let (mut router, boundaries, hot) = sharded_store(&dir, choice, &bulk, &ops);
        // The kill: the manifest rename (the commit point) completed, but
        // the retired shard directory was never garbage-collected.
        let pivot =
            router.split_shard(hot, SplitFault::CrashAfterCommit).expect("split until the kill");
        drop(router);

        let (recovered, replayed) =
            DurableShardedRouter::open(&dir, BLOCK, None, WriteBufferConfig::default())
                .expect("reopen");
        let mut want = boundaries.clone();
        want.insert(hot, pivot);
        assert_eq!(
            recovered.boundaries(),
            &want[..],
            "{}: a post-commit kill must recover the post-split boundary set",
            choice.name()
        );
        assert_eq!(recovered.shard_count(), 4, "{}: four shards after the split", choice.name());
        // The two halves were checkpointed by the split; only the two
        // untouched shards may have WAL tails to replay.
        let _ = replayed;
        assert_sharded_matches_oracle(&recovered, &oracle, choice.name());
        // The retired middle shard dir is gone; its two generation-1
        // halves replaced it.
        assert_eq!(
            shard_dirs_on_disk(&dir),
            vec!["shard-0-0", "shard-0-2", "shard-1-0", "shard-1-1"],
            "{}: the retired shard dir must be swept",
            choice.name()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn completed_split_survives_a_clean_kill() {
    let bulk = bulk_entries();
    let ops = op_stream(&bulk);
    let oracle = oracle_at(&bulk, &ops, OPS);
    for choice in [IndexChoice::BTree, IndexChoice::Lipp, IndexChoice::HybridModelTree] {
        let dir = scratch("splitclean", choice);
        let (mut router, boundaries, hot) = sharded_store(&dir, choice, &bulk, &ops);
        let pivot = router.split_shard(hot, SplitFault::None).expect("split");
        assert!(pivot > boundaries[0] && pivot < boundaries[1], "pivot inside the hot shard");
        router.checkpoint().expect("checkpoint");
        drop(router);

        let (recovered, replayed) =
            DurableShardedRouter::open(&dir, BLOCK, None, WriteBufferConfig::default())
                .expect("reopen");
        assert_eq!(replayed, 0, "{}: clean checkpoint leaves no WAL tail", choice.name());
        assert_eq!(recovered.shard_count(), 4, "{}: the split persisted", choice.name());
        assert_sharded_matches_oracle(&recovered, &oracle, choice.name());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn transient_read_errors_during_reopen_are_retried() {
    let bulk = bulk_entries();
    let ops = op_stream(&bulk);
    let oracle = oracle_at(&bulk, &ops, OPS);
    for choice in IndexChoice::ALL_DESIGNS {
        let dir = scratch("transient", choice);
        let mut front = create(&dir, choice, None).expect("create");
        front.bulk_load(&bulk).expect("bulk load");
        for &(k, v) in &ops {
            front.insert(k, v).expect("insert");
        }
        front.checkpoint(true).expect("clean checkpoint");
        drop(front);

        let plan = FaultPlan::new();
        plan.transient_read_errors(3);
        let (recovered, replayed) =
            reopen(&dir, Some(plan.clone())).expect("reopen rides out the EIO burst");
        assert_eq!(replayed, 0, "{}: nothing to replay", choice.name());
        assert_matches_oracle(&recovered, &oracle, choice.name());
        let stats = disk_of(&recovered).snapshot();
        assert!(
            stats.io_retries >= 3,
            "{}: the retries must be visible in IoStats (got {})",
            choice.name(),
            stats.io_retries
        );
        assert_eq!(plan.transients_served(), 3, "{}: the burst was consumed", choice.name());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `count` fresh keys spread evenly between `bulk[at]` and `bulk[at + 1]`.
fn burst(bulk: &[(Key, Value)], at: usize, count: u64) -> impl Iterator<Item = Key> {
    let (lo, hi) = (bulk[at].0, bulk[at + 1].0);
    assert!(hi - lo > 2 * count, "room for {count} fresh keys");
    (1..=count).map(move |i| lo + i * ((hi - lo) / (count + 1)))
}

/// Sweeps a crash over every write of one FITing flush and checks each
/// reopen against the exact oracle. The store bulk-loads the suite's keys,
/// which fit one segment, then flushes `first` (not swept); then it stages
/// `second` and fails the flush's `n`-th write, for every `n` from the WAL
/// sync on until the flush runs out of writes. Each cut reopens to the
/// prefix of the stream the WAL kept, all of it once the WAL sync is
/// through. Every op is a fresh key. Returns the SMOs the swept flush ran
/// and the directory blocks it wrote, measured in a run with no fault.
fn sweep_fiting_flush(tag: &str, first: &[Key], second: &[Key]) -> (u64, u64) {
    let choice = IndexChoice::Fiting;
    let bulk = bulk_entries();
    let ops: Vec<(Key, Value)> = first
        .iter()
        .chain(second)
        .enumerate()
        .map(|(i, &k)| (k, 1_000_000_000 + i as Value))
        .collect();
    let stored: std::collections::BTreeSet<Key> = bulk.iter().map(|&(k, _)| k).collect();
    assert!(ops.iter().all(|(k, _)| !stored.contains(k)), "every op is a fresh key");
    let staged = |dir: &Path, n: Option<u64>| {
        let plan = FaultPlan::new();
        let mut front = create(dir, choice, Some(plan.clone())).expect("create");
        front.bulk_load(&bulk).expect("bulk load");
        for (i, &(k, v)) in ops.iter().enumerate() {
            if i == first.len() {
                front.flush().expect("the first flush");
            }
            front.insert(k, v).expect("insert");
        }
        assert_eq!(front.staged_len(), second.len(), "the swept flush drains the second stream");
        if let Some(n) = n {
            plan.fail_nth_write(n);
        }
        (front, plan)
    };

    let dir = scratch(tag, choice);
    let (mut front, _) = staged(&dir, None);
    let (smo_before, io_before) = (front.stats().smo_count, disk_of(&front).snapshot());
    assert!(
        front.stats().leaf_nodes >= 3,
        "the first flush left {} segments",
        front.stats().leaf_nodes
    );
    front.flush().expect("flush");
    let smos = front.stats().smo_count - smo_before;
    let directory_writes = disk_of(&front).snapshot().since(&io_before).writes_of(BlockKind::Inner);
    drop(front);
    std::fs::remove_dir_all(&dir).ok();

    let mut n = 1;
    loop {
        let (mut front, plan) = staged(&dir, Some(n));
        if front.flush().is_ok() {
            assert_eq!(plan.writes_failed(), 0, "n = {n}: the flush ended before its n-th write");
            break;
        }
        assert_eq!(plan.writes_failed(), 1, "n = {n}: exactly one write fails");
        drop(front); // the kill
        let (recovered, replayed) = reopen(&dir, None).expect("reopen");
        if n > 1 {
            assert_eq!(replayed, second.len() as u64, "n = {n}: the synced WAL replays the stream");
        }
        let oracle = oracle_at(&bulk, &ops, first.len() + replayed as usize);
        assert_matches_oracle(&recovered, &oracle, &format!("{tag}, write {n} failed"));
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
        n += 1;
    }
    std::fs::remove_dir_all(&dir).ok();
    (smos, directory_writes)
}

/// A crash at any write of a FITing flush that fills empty delta buffers
/// recovers exactly. A first flush sends 300 fresh keys between two
/// neighbouring bulk keys, and the dense run resegments the bulk load's one
/// segment into several, each with an empty buffer. The swept flush puts a
/// fresh key above every 100th bulk key, across the whole key space: each
/// segment's first insert writes its buffer block, then sets its directory
/// record's flag. A cut between the two leaves the flag unset over entries
/// the WAL replays; the other order would leave a flag over a buffer block
/// never written.
#[test]
fn a_fiting_flush_that_fills_empty_buffers_recovers_from_a_crash_at_any_write() {
    let bulk = bulk_entries();
    let first: Vec<Key> = burst(&bulk, BULK / 2, 300).collect();
    let fill: Vec<Key> = bulk.iter().step_by(100).map(|&(k, _)| k + 1).collect();
    let (smos, flag_writes) = sweep_fiting_flush("fiting-fill", &first, &fill);
    assert_eq!(smos, 0, "no segment outgrows its buffer");
    assert!(flag_writes >= 2, "the flush fills more than one empty buffer");
}

/// A crash at any write of a FITing flush that resegments recovers
/// exactly: the flush above, with 300 more fresh keys sent into one
/// segment, more than its buffer holds. It does not yet: a cut after the
/// resegmentation has rewritten its directory leaf in place, and before the
/// checkpoint, reopens a directory that names the new segments' blocks,
/// which lie past the segment file's checkpointed length, and the lookup
/// fails with `BlockOutOfRange` (cuts 13 and 14 of the flush's 15 writes;
/// the fault predates the buffer's count record). A durable disk
/// must stop overwriting blocks the last checkpoint covers (ROADMAP item
/// 25(b)); this sweep is that fix's test for FITing.
#[test]
#[ignore = "fails until durable disks stop overwriting checkpointed blocks (ROADMAP 25(b))"]
fn a_fiting_flush_that_resegments_recovers_from_a_crash_at_any_write() {
    let bulk = bulk_entries();
    let first: Vec<Key> = burst(&bulk, BULK / 2, 300).collect();
    let fill = bulk.iter().step_by(100).map(|&(k, _)| k + 1);
    let second: Vec<Key> = fill.chain(burst(&bulk, BULK / 4, 300)).collect();
    let (smos, flag_writes) = sweep_fiting_flush("fiting-smo", &first, &second);
    assert_eq!(smos, 1, "one resegmentation in the flush");
    assert!(flag_writes > 0, "the flush sets buffer flags");
}
