//! Crash-safe persistence for the harness: the one durable create-or-open
//! the kill-and-recover oracle suite and the perf ledger's
//! `durable_insert` workload drive.
//!
//! A durable store is a directory holding block files with per-block
//! checksum sidecars, a double-buffered superblock whose payload is the
//! [`Manifest`] (design tag, `save_meta` bytes, WAL file ids), and one
//! write-ahead-log segment feeding the [`WriteBuffer`] staging overlay.
//! [`open_durable_index`] builds that stack from scratch, or walks it back:
//! best superblock → manifest → per-design load → WAL replay into the
//! overlay.

use std::path::Path;

use lidx_core::{DiskIndex, IndexError, IndexResult, Manifest, WriteBuffer, WriteBufferConfig};
use lidx_storage::{Disk, DiskConfig, DurableMode, FaultPlan};

use crate::runner::IndexChoice;

/// The WAL-backed durable write front the harness drives: any of the
/// studied designs behind a logged staging buffer.
pub type DurableIndex = WriteBuffer<Box<dyn DiskIndex>>;

/// Creates (`create: Some(choice)`, wiping any store in `dir`) or reopens
/// (`None`) the durable store in `dir` behind a WAL'd write buffer, with the
/// number of WAL entries replayed. A reopen decodes the best superblock's
/// [`Manifest`], loads the named design and replays the WAL. A [`FaultPlan`]
/// lets tests kill the store at a precise write.
pub fn open_durable_index(
    dir: &Path,
    disk_config: DiskConfig,
    create: Option<IndexChoice>,
    config: WriteBufferConfig,
    plan: Option<FaultPlan>,
) -> IndexResult<(DurableIndex, u64)> {
    let mode = if create.is_some() { DurableMode::Create } else { DurableMode::Open };
    let (disk, superblock) = Disk::open_durable(dir, disk_config, plan, mode)?;
    if let Some(choice) = create {
        return WriteBuffer::with_wal(choice.build(disk), config, choice.name(), None);
    }
    let superblock = superblock.expect("an open returns its superblock");
    let manifest = Manifest::decode(&superblock.meta)?;
    let choice = IndexChoice::from_name(&manifest.index_kind).ok_or_else(|| {
        IndexError::Internal(format!("manifest names unknown design '{}'", manifest.index_kind))
    })?;
    let inner = choice.load(disk, &manifest.index_meta)?;
    let wal_file = *manifest
        .wal_files
        .first()
        .ok_or_else(|| IndexError::Internal("manifest lists no WAL segment".into()))?;
    WriteBuffer::with_wal(inner, config, &manifest.index_kind, Some(wal_file))
}

/// [`open_durable_index`] creating `choice`, for the perf ledger; the next
/// benchmark change deletes it.
pub fn create_durable_index_with(
    dir: &Path,
    disk_config: DiskConfig,
    choice: IndexChoice,
    config: WriteBufferConfig,
    plan: Option<FaultPlan>,
) -> IndexResult<DurableIndex> {
    Ok(open_durable_index(dir, disk_config, Some(choice), config, plan)?.0)
}

/// [`open_durable_index`] reopening a store of `block_size`-byte blocks, for
/// the perf ledger; the next benchmark change deletes it.
pub fn reopen_durable_index(
    dir: &Path,
    block_size: usize,
    config: WriteBufferConfig,
    plan: Option<FaultPlan>,
) -> IndexResult<(DurableIndex, u64)> {
    open_durable_index(dir, DiskConfig::with_block_size(block_size), None, config, plan)
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
        let config = DiskConfig::with_block_size(4096);
        let wb = WriteBufferConfig::default();
        let (mut front, _) =
            open_durable_index(&dir, config, Some(IndexChoice::BTree), wb, None).unwrap();
        front.bulk_load(&entries).unwrap();
        front.insert(3, 33).unwrap();
        front.checkpoint(true).unwrap();
        drop(front);

        let (recovered, replayed) = open_durable_index(&dir, config, None, wb, None).unwrap();
        assert_eq!(replayed, 0, "a clean checkpoint leaves nothing to replay");
        assert_eq!(recovered.lookup(3).unwrap(), Some(33));
        assert_eq!(recovered.lookup(entries[17].0).unwrap(), Some(entries[17].1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
