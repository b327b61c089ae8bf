//! Crash-safe persistence for the harness: durable create / reopen helpers
//! shared by the `recovery` experiment and the kill-and-recover oracle
//! suite, plus the experiment itself (`BENCH_recovery.json`).
//!
//! A durable store is a directory holding block files with per-block
//! checksum sidecars, a double-buffered superblock whose payload is the
//! [`Manifest`] (design tag, `save_meta` bytes, WAL file ids), and one
//! write-ahead-log segment feeding the [`WriteBuffer`] staging overlay.
//! [`create_durable_index`] builds that stack from scratch;
//! [`reopen_durable_index`] walks it back: best superblock → manifest →
//! per-design load → WAL replay into the overlay.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lidx_core::{
    payload_for, DiskIndex, IndexError, IndexRead, IndexResult, IndexWrite, Key, Manifest,
    WriteBuffer, WriteBufferConfig,
};
use lidx_storage::{Disk, DiskConfig, FaultPlan, OpClass};

use crate::experiments::Scale;
use crate::report::Json;
use crate::runner::IndexChoice;

/// The WAL-backed durable write front the harness drives: any of the
/// studied designs behind a logged staging buffer.
pub type DurableIndex = WriteBuffer<Box<dyn DiskIndex>>;

/// Creates a fresh durable store for `choice` in `dir` (wiping any previous
/// store there) and wraps it behind a WAL'd write buffer. With a
/// [`FaultPlan`], every backend access and superblock checkpoint consults
/// the plan, so tests can kill the store at a precise write.
pub fn create_durable_index(
    dir: &Path,
    block_size: usize,
    choice: IndexChoice,
    config: WriteBufferConfig,
    plan: Option<FaultPlan>,
) -> IndexResult<DurableIndex> {
    create_durable_index_with(dir, DiskConfig::with_block_size(block_size), choice, config, plan)
}

/// [`create_durable_index`] with a full [`DiskConfig`] (device cost model,
/// pool sizing, …) instead of just a block size.
pub fn create_durable_index_with(
    dir: &Path,
    disk_config: DiskConfig,
    choice: IndexChoice,
    config: WriteBufferConfig,
    plan: Option<FaultPlan>,
) -> IndexResult<DurableIndex> {
    let disk = Disk::create_durable_with_faults(dir, disk_config, plan)?;
    let inner = choice.build(Arc::clone(&disk));
    WriteBuffer::with_wal(inner, config, choice.name())
}

/// Reopens the durable store in `dir`: loads the best valid superblock,
/// decodes its [`Manifest`], reconstructs the named design from its
/// `save_meta` bytes and replays the WAL segment into the staging overlay.
/// Returns the recovered front and the number of WAL entries replayed.
pub fn reopen_durable_index(
    dir: &Path,
    block_size: usize,
    config: WriteBufferConfig,
    plan: Option<FaultPlan>,
) -> IndexResult<(DurableIndex, u64)> {
    let (disk, superblock) =
        Disk::open_with_faults(dir, DiskConfig::with_block_size(block_size), plan)?;
    let manifest = Manifest::decode(&superblock.meta)?;
    let choice = IndexChoice::from_name(&manifest.index_kind).ok_or_else(|| {
        IndexError::Internal(format!("manifest names unknown design '{}'", manifest.index_kind))
    })?;
    let inner = choice.load(Arc::clone(&disk), &manifest.index_meta)?;
    let wal_file = *manifest
        .wal_files
        .first()
        .ok_or_else(|| IndexError::Internal("manifest lists no WAL segment".into()))?;
    WriteBuffer::with_wal_replayed(inner, config, &manifest.index_kind, wal_file)
}

/// A fresh per-process scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lidx-recovery-{tag}-{}", std::process::id()))
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn bulk_entries(n: usize, seed: u64) -> Vec<(Key, u64)> {
    let mut state = seed;
    let mut keys: Vec<Key> = (0..n).map(|_| splitmix64(&mut state) >> 1).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter().map(|k| (k, payload_for(k))).collect()
}

fn insert_keys(n: usize, seed: u64) -> Vec<Key> {
    let mut state = seed ^ 0xA5A5_A5A5;
    (0..n).map(|_| splitmix64(&mut state) >> 1).collect()
}

/// One design's WAL-on vs buffered-baseline write-path comparison.
struct OverheadRow {
    index: &'static str,
    wal_wall_ns_per_insert: f64,
    buffered_wall_ns_per_insert: f64,
    wal_device_ns_per_insert: f64,
    buffered_device_ns_per_insert: f64,
    device_overhead: f64,
    wal_appends: u64,
    wal_bytes: u64,
    wal_sync_p99_ns: u64,
    checkpoint_max_ns: u64,
}

/// One replay-scaling measurement: kill with `dirty` logged-but-undrained
/// entries, reopen, measure the replay.
struct ReplayRow {
    dirty_entries: u64,
    replayed_entries: u64,
    replay_wall_micros: f64,
    recovered_len: u64,
    recovery_pause_ns: u64,
}

/// The recovery experiment: writes `BENCH_recovery.json` with (1) the write
/// path cost of the WAL — wall and simulated-device time per insert with
/// the log on, against the plain buffered front over the same durable disk —
/// and (2) replay time as a function of the dirty-entry count at the kill
/// point. Beyond the paper: the paper's evaluation assumes a process that
/// never dies; this freezes what crash safety costs the write path here.
pub fn recovery(scale: &Scale) {
    recovery_to(scale, Path::new("BENCH_recovery.json"));
}

/// [`recovery`] with an explicit output path (tests write to a temp file;
/// the `exp` binary always writes `BENCH_recovery.json` in the cwd).
pub fn recovery_to(scale: &Scale, path: &Path) {
    let shown = path.display();
    println!("== recovery: WAL write-path overhead and replay scaling (writing {shown}) ==");
    let block_size = 4096;
    let entries = bulk_entries(scale.bulk_keys, scale.seed);
    let ops = insert_keys(scale.ops, scale.seed);

    let mut overhead_rows = Vec::new();
    let mut t = crate::report::Table::new([
        "index",
        "wal ns/ins",
        "buf ns/ins",
        "wal dev ns/ins",
        "buf dev ns/ins",
        "dev overhead",
        "wal appends",
        "sync p99 us",
        "ckpt max us",
    ]);
    for choice in IndexChoice::ALL_DESIGNS {
        // WAL-on: durable store, logged staging front, full checkpoint at
        // the end (sync, drain, save_meta, superblock persist, truncate).
        // The SSD cost model makes the device columns meaningful — the
        // default model charges nothing per block.
        let disk_config =
            DiskConfig::with_block_size(block_size).device(lidx_storage::DeviceModel::ssd());
        let dir = scratch_dir(&format!("ovh-wal-{}", choice.name()));
        let mut front = create_durable_index_with(
            &dir,
            disk_config,
            choice,
            WriteBufferConfig::default(),
            None,
        )
        .expect("create durable store");
        front.bulk_load(&entries).expect("bulk load");
        let disk = Arc::clone(front.inner().disk());
        let before = disk.snapshot();
        disk.telemetry().reset();
        let start = Instant::now();
        for &k in &ops {
            front.insert(k, payload_for(k)).expect("insert");
        }
        front.checkpoint(false).expect("checkpoint");
        let wal_wall = start.elapsed().as_nanos() as f64;
        let after = disk.snapshot().since(&before);
        let tele = disk.telemetry().snapshot();
        drop(front);
        std::fs::remove_dir_all(&dir).ok();

        // Buffered baseline: same durable disk flavour, same staging front,
        // no log and no checkpoints.
        let dir = scratch_dir(&format!("ovh-buf-{}", choice.name()));
        let base_disk = Disk::create_durable(&dir, disk_config).expect("create baseline store");
        let mut base =
            WriteBuffer::new(choice.build(Arc::clone(&base_disk)), WriteBufferConfig::default());
        base.bulk_load(&entries).expect("bulk load");
        let before = base_disk.snapshot();
        let start = Instant::now();
        for &k in &ops {
            base.insert(k, payload_for(k)).expect("insert");
        }
        base.flush().expect("flush");
        let buf_wall = start.elapsed().as_nanos() as f64;
        let base_after = base_disk.snapshot().since(&before);
        drop(base);
        std::fs::remove_dir_all(&dir).ok();

        let n = ops.len().max(1) as f64;
        let row = OverheadRow {
            index: choice.name(),
            wal_wall_ns_per_insert: wal_wall / n,
            buffered_wall_ns_per_insert: buf_wall / n,
            wal_device_ns_per_insert: after.device_ns as f64 / n,
            buffered_device_ns_per_insert: base_after.device_ns as f64 / n,
            device_overhead: after.device_ns as f64 / (base_after.device_ns as f64).max(1.0),
            wal_appends: after.wal_appends,
            wal_bytes: after.wal_bytes,
            wal_sync_p99_ns: tele.class(OpClass::WalSync).summary.p99_ns,
            checkpoint_max_ns: tele.class(OpClass::Checkpoint).summary.max_ns,
        };
        t.row([
            row.index.to_string(),
            format!("{:.0}", row.wal_wall_ns_per_insert),
            format!("{:.0}", row.buffered_wall_ns_per_insert),
            format!("{:.0}", row.wal_device_ns_per_insert),
            format!("{:.0}", row.buffered_device_ns_per_insert),
            format!("{:.3}", row.device_overhead),
            row.wal_appends.to_string(),
            format!("{:.1}", row.wal_sync_p99_ns as f64 / 1e3),
            format!("{:.1}", row.checkpoint_max_ns as f64 / 1e3),
        ]);
        overhead_rows.push(row);
    }
    t.print();

    // Replay scaling: a B+-tree store killed with N logged-but-undrained
    // entries; the reopen replays exactly those into the staging overlay.
    let dirty_counts: [usize; 3] =
        [(scale.ops / 4).max(64), scale.ops.max(256), (scale.ops * 4).max(1024)];
    let mut replay_rows = Vec::new();
    let mut rt = crate::report::Table::new([
        "dirty entries",
        "replayed",
        "replay us",
        "recovered len",
        "pause us",
    ]);
    for &dirty in &dirty_counts {
        let dir = scratch_dir(&format!("replay-{dirty}"));
        let config = WriteBufferConfig { capacity: dirty + 1, ..Default::default() };
        let mut front = create_durable_index(&dir, block_size, IndexChoice::BTree, config, None)
            .expect("create durable store");
        front.bulk_load(&entries).expect("bulk load");
        front.checkpoint(false).expect("checkpoint");
        for &k in insert_keys(dirty, scale.seed.wrapping_add(dirty as u64)).iter() {
            front.insert(k, payload_for(k)).expect("insert");
        }
        front.sync_wal().expect("sync");
        drop(front); // the kill: no checkpoint, the WAL holds the tail

        let start = Instant::now();
        let (recovered, replayed) =
            reopen_durable_index(&dir, block_size, config, None).expect("reopen after kill");
        let replay_wall_micros = start.elapsed().as_nanos() as f64 / 1e3;
        // The reopen's recovery span (recorded by `with_wal_replayed`) is
        // the pause a restarted server serves nothing during; its counter
        // must agree with the replayed-entry return value.
        let tele = recovered.inner().disk().telemetry().snapshot();
        assert_eq!(
            tele.class(OpClass::Recovery).counter,
            replayed,
            "recovery counter must match replayed entries"
        );
        let row = ReplayRow {
            dirty_entries: dirty as u64,
            replayed_entries: replayed,
            replay_wall_micros,
            recovered_len: recovered.len(),
            recovery_pause_ns: tele.class(OpClass::Recovery).summary.max_ns,
        };
        rt.row([
            row.dirty_entries.to_string(),
            row.replayed_entries.to_string(),
            format!("{:.0}", row.replay_wall_micros),
            row.recovered_len.to_string(),
            format!("{:.1}", row.recovery_pause_ns as f64 / 1e3),
        ]);
        replay_rows.push(row);
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
    rt.print();

    let overhead_json = overhead_rows
        .iter()
        .map(|r| {
            Json::Row(vec![
                ("index", Json::str(r.index)),
                ("wal_wall_ns_per_insert", Json::float(r.wal_wall_ns_per_insert, 1)),
                ("buffered_wall_ns_per_insert", Json::float(r.buffered_wall_ns_per_insert, 1)),
                ("wal_device_ns_per_insert", Json::float(r.wal_device_ns_per_insert, 1)),
                ("buffered_device_ns_per_insert", Json::float(r.buffered_device_ns_per_insert, 1)),
                ("device_overhead", Json::float(r.device_overhead, 4)),
                ("wal_appends", Json::lit(r.wal_appends)),
                ("wal_bytes", Json::lit(r.wal_bytes)),
                ("wal_sync_p99_ns", Json::lit(r.wal_sync_p99_ns)),
                ("checkpoint_max_ns", Json::lit(r.checkpoint_max_ns)),
            ])
        })
        .collect();
    let replay_json = replay_rows
        .iter()
        .map(|r| {
            Json::Row(vec![
                ("dirty_entries", Json::lit(r.dirty_entries)),
                ("replayed_entries", Json::lit(r.replayed_entries)),
                ("replay_wall_micros", Json::float(r.replay_wall_micros, 1)),
                ("recovered_len", Json::lit(r.recovered_len)),
                ("recovery_pause_ns", Json::lit(r.recovery_pause_ns)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("schema", Json::str("lidx-bench-recovery-v1")),
        ("bulk_keys", Json::lit(scale.bulk_keys)),
        ("ops", Json::lit(scale.ops)),
        ("seed", Json::lit(scale.seed)),
        ("write_overhead", Json::Arr(overhead_json)),
        ("replay", Json::Arr(replay_json)),
    ]);
    doc.write_to(path).expect("write recovery snapshot");
    println!("wrote {shown}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_round_trip_through_helpers() {
        let dir = scratch_dir("helper-roundtrip");
        let entries = bulk_entries(2_000, 11);
        let mut front = create_durable_index(
            &dir,
            4096,
            IndexChoice::BTree,
            WriteBufferConfig::default(),
            None,
        )
        .unwrap();
        front.bulk_load(&entries).unwrap();
        front.insert(3, 33).unwrap();
        front.checkpoint(true).unwrap();
        drop(front);

        let (recovered, replayed) =
            reopen_durable_index(&dir, 4096, WriteBufferConfig::default(), None).unwrap();
        assert_eq!(replayed, 0, "a clean checkpoint leaves nothing to replay");
        assert_eq!(recovered.lookup(3).unwrap(), Some(33));
        assert_eq!(recovered.lookup(entries[17].0).unwrap(), Some(entries[17].1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_experiment_writes_machine_readable_json() {
        let scale = Scale {
            keys: 2_000,
            ops: 80,
            bulk_keys: 1_000,
            seed: 9,
            threads: 2,
            dataset_path: None,
        };
        let path = std::env::temp_dir()
            .join(format!("lidx_bench_recovery_test_{}.json", std::process::id()));
        recovery_to(&scale, &path);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"schema\": \"lidx-bench-recovery-v1\""));
        assert!(body.contains("\"write_overhead\""));
        assert!(body.contains("\"replay\""));
        assert!(body.contains("\"wal_sync_p99_ns\""));
        assert!(body.contains("\"checkpoint_max_ns\""));
        assert!(body.contains("\"recovery_pause_ns\""));
        for choice in IndexChoice::ALL_DESIGNS {
            assert!(body.contains(&format!("\"index\": \"{}\"", choice.name())));
        }
        std::fs::remove_file(&path).ok();
    }
}
