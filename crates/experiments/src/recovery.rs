//! Crash-safe persistence for the harness: the durable create / reopen
//! helpers the kill-and-recover oracle suite and the perf ledger's
//! `durable_insert` workload drive.
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

use lidx_core::{DiskIndex, IndexError, IndexResult, Manifest, WriteBuffer, WriteBufferConfig};
use lidx_storage::{Disk, DiskConfig, FaultPlan};

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

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_core::{payload_for, IndexRead, IndexWrite};

    #[test]
    fn durable_round_trip_through_helpers() {
        let dir = std::env::temp_dir()
            .join(format!("lidx-recovery-helper-roundtrip-{}", std::process::id()));
        let entries: Vec<_> = (0..2_000u64).map(|i| (i * 7 + 5, payload_for(i * 7 + 5))).collect();
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
}
