//! Crash-safe persistence for the *sharded* serving layer: a durable
//! keyspace-partitioned router whose shard map commits atomically, so a
//! crash anywhere inside an online shard split recovers to exactly the
//! pre-split or the post-split boundary set — never a half-moved shard.
//!
//! On disk a sharded store is a directory holding one `ROUTER` manifest
//! plus one durable single-shard store (see [`crate::recovery`]) per shard:
//!
//! ```text
//! store/
//!   ROUTER            <- checksummed manifest: boundaries + shard dirs
//!   shard-0-0/        <- a PR-8 durable store (blocks, superblock, WAL)
//!   shard-0-1/
//!   ...
//! ```
//!
//! The split protocol is copy-on-write + atomic rename:
//!
//! 1. **Quiesce** the source shard: flush its staging front and take a full
//!    checkpoint (WAL truncated, superblock current).
//! 2. **Build aside**: scan the frozen shard and bulk-load the two halves
//!    into *fresh* shard directories of the next generation, each fully
//!    checkpointed. The live tree is never modified.
//! 3. **Commit**: write the new manifest (new boundary, old dir replaced by
//!    the two new dirs) to `ROUTER.tmp`, fsync it, and `rename(2)` it over
//!    `ROUTER`, fsyncing the directory. The rename is the commit point.
//! 4. **Garbage-collect** the retired shard directory.
//!
//! A kill before step 3's rename leaves the old manifest naming the old
//! shard — reopen serves the pre-split store and sweeps the orphaned
//! next-generation dirs. A kill after the rename serves the post-split
//! store and sweeps the retired dir. The manifest itself is checksummed so
//! a torn `ROUTER.tmp` can never be mistaken for a commit.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use lidx_core::{Entry, IndexError, IndexRead, IndexResult, IndexWrite, Key, WriteBufferConfig};
use lidx_storage::DiskConfig;

use crate::recovery::{open_durable_index, DurableIndex};
use crate::runner::IndexChoice;

/// Simulated kill points inside [`DurableShardedRouter::split_shard`]: the
/// split abandons ship at the named step (the caller then drops the router,
/// modelling the process dying there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitFault {
    /// Run the split to completion.
    None,
    /// Die after the two new shard stores are built and checkpointed but
    /// before the manifest rename — the commit never happens.
    CrashBeforeCommit,
    /// Die right after the manifest rename — committed, but the retired
    /// shard directory was never garbage-collected.
    CrashAfterCommit,
}

/// A durable keyspace-sharded store: N single-shard durable stores behind
/// one checksummed, atomically-replaced `ROUTER` manifest.
///
/// This is the persistence twin of [`lidx_core::ShardedIndex`]: that type
/// pins the *online* split protocol (readers and writers racing the shard
/// map), this one pins the *crash* protocol (what a kill at any point of a
/// split recovers to). `boundaries[s]` is the first key NOT owned by shard
/// `s`, exactly as in the in-memory router.
pub struct DurableShardedRouter {
    dir: PathBuf,
    disk: DiskConfig,
    config: WriteBufferConfig,
    choice: IndexChoice,
    generation: u64,
    boundaries: Vec<Key>,
    shards: Vec<(String, DurableIndex)>,
}

/// FNV-1a over the manifest body; torn or bit-rotted manifests fail closed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl DurableShardedRouter {
    /// Creates or reopens the sharded store in `dir`, returning the router
    /// and the total WAL entries replayed across shards.
    ///
    /// `create: Some((choice, boundaries))` wipes any store there and starts
    /// `boundaries.len() + 1` empty shards of `choice`. `None` decodes the
    /// `ROUTER` manifest (rejecting it on a checksum mismatch or a malformed,
    /// repeated or out-of-order field), reopens every listed shard store
    /// (replaying each shard's WAL tail), fails unless each holds only keys
    /// of its range, and sweeps directories no committed manifest
    /// references — orphans of a killed split.
    pub fn open(
        dir: &Path,
        block_size: usize,
        create: Option<(IndexChoice, Vec<Key>)>,
        config: WriteBufferConfig,
    ) -> IndexResult<(Self, u64)> {
        let creating = create.is_some();
        let (choice, generation, boundaries, names) = match create {
            Some((choice, boundaries)) => {
                assert!(
                    boundaries.windows(2).all(|w| w[0] < w[1]),
                    "shard boundaries must be strictly increasing"
                );
                if dir.exists() {
                    std::fs::remove_dir_all(dir).map_err(io_err)?;
                }
                std::fs::create_dir_all(dir).map_err(io_err)?;
                let names = (0..=boundaries.len()).map(|s| format!("shard-0-{s}")).collect();
                (choice, 0, boundaries, names)
            }
            None => {
                let body = std::fs::read_to_string(dir.join("ROUTER")).map_err(io_err)?;
                let (index_name, generation, boundaries, names) = decode_manifest(&body)?;
                let choice = IndexChoice::from_name(&index_name).ok_or_else(|| {
                    IndexError::Internal(format!(
                        "ROUTER manifest names unknown design '{index_name}'"
                    ))
                })?;
                (choice, generation, boundaries, names)
            }
        };
        let (disk, create) = (DiskConfig::with_block_size(block_size), creating.then_some(choice));
        let mut shards = Vec::with_capacity(names.len());
        let mut replayed_total = 0;
        for (s, name) in names.iter().enumerate() {
            let (front, replayed) =
                open_durable_index(&dir.join(name), disk, create, config, None)?;
            if !creating {
                check_shard_range(&front, name, s, &boundaries)?;
            }
            replayed_total += replayed;
            shards.push((name.clone(), front));
        }
        // Sweep orphans: shard dirs built by a split that never committed,
        // or retired by one that committed but died before cleanup.
        for entry in std::fs::read_dir(dir).map_err(io_err)? {
            let entry = entry.map_err(io_err)?;
            let file = entry.file_name().to_string_lossy().into_owned();
            let is_shard_dir = file.starts_with("shard-") && entry.path().is_dir();
            if (is_shard_dir && !names.contains(&file)) || file == "ROUTER.tmp" {
                if entry.path().is_dir() {
                    std::fs::remove_dir_all(entry.path()).ok();
                } else {
                    std::fs::remove_file(entry.path()).ok();
                }
            }
        }
        let mut router = DurableShardedRouter {
            dir: dir.to_path_buf(),
            disk,
            config,
            choice,
            generation,
            boundaries,
            shards,
        };
        if creating {
            router.commit_manifest()?;
        }
        Ok((router, replayed_total))
    }

    /// The current shard boundaries (empty for a single shard).
    pub fn boundaries(&self) -> &[Key] {
        &self.boundaries
    }

    /// Number of live shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn route(&self, key: Key) -> usize {
        self.boundaries.partition_point(|&b| b <= key)
    }

    /// Bulk-loads `entries` (sorted, deduplicated) across the shards.
    pub fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
        let mut from = 0;
        for s in 0..self.shards.len() {
            let to = match self.boundaries.get(s) {
                Some(&b) => entries.partition_point(|e| e.0 < b),
                None => entries.len(),
            };
            self.shards[s].1.bulk_load(&entries[from..to])?;
            from = to;
        }
        Ok(())
    }

    /// Upserts one entry through its owning shard's logged staging front.
    pub fn insert(&mut self, key: Key, value: u64) -> IndexResult<()> {
        let s = self.route(key);
        self.shards[s].1.insert(key, value)
    }

    /// Looks `key` up in its owning shard (staged overlay included).
    pub fn lookup(&self, key: Key) -> IndexResult<Option<u64>> {
        self.shards[self.route(key)].1.lookup(key)
    }

    /// Scans `count` entries from `start`, stitching across shards.
    pub fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize> {
        out.clear();
        let mut piece = Vec::new();
        let mut from = start;
        for s in self.route(start)..self.shards.len() {
            if out.len() >= count {
                break;
            }
            self.shards[s].1.scan(from, count - out.len(), &mut piece)?;
            out.extend_from_slice(&piece);
            from = match self.boundaries.get(s) {
                Some(&b) => b,
                None => break,
            };
        }
        Ok(out.len())
    }

    /// Visible entries across all shards (staged overlays included).
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|(_, f)| f.len()).sum()
    }

    /// True when no shard holds any visible entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Group-commits every shard's WAL (fsyncs the log tails without
    /// draining); after this, a kill loses nothing that was inserted.
    pub fn sync_wal(&mut self) -> IndexResult<()> {
        for (_, front) in &mut self.shards {
            front.sync_wal()?;
        }
        Ok(())
    }

    /// Checkpoints every shard (drain + superblock persist + WAL truncate).
    pub fn checkpoint(&mut self) -> IndexResult<()> {
        for (_, front) in &mut self.shards {
            front.checkpoint(true)?;
        }
        Ok(())
    }

    /// Splits shard `shard` at its median key using the copy-on-write
    /// protocol from the [module docs](self), returning the new boundary.
    /// With a [`SplitFault`] other than [`SplitFault::None`] the split
    /// abandons the process at that step (the simulated kill); the router
    /// must then be dropped and reopened.
    pub fn split_shard(&mut self, shard: usize, fault: SplitFault) -> IndexResult<Key> {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        // Step 1: quiesce the source shard.
        self.shards[shard].1.checkpoint(true)?;
        // Step 2: snapshot it and build the two halves aside.
        let lo = if shard == 0 { 0 } else { self.boundaries[shard - 1] };
        let want = self.shards[shard].1.len() as usize + 1;
        let mut all = Vec::new();
        self.shards[shard].1.scan(lo, want, &mut all)?;
        let median = all.get(all.len() / 2).map(|e| e.0).unwrap_or(lo);
        let pivot = if median > lo {
            median
        } else {
            all.iter().map(|e| e.0).find(|&k| k > lo).ok_or_else(|| {
                IndexError::Internal(format!("shard {shard} has no key to split at"))
            })?
        };
        let at = all.partition_point(|e| e.0 < pivot);
        let generation = self.generation + 1;
        let mut halves = Vec::with_capacity(2);
        for (half, slice) in [&all[..at], &all[at..]].into_iter().enumerate() {
            let name = format!("shard-{generation}-{half}");
            let dir = self.dir.join(&name);
            let create = Some(self.choice);
            let (mut front, _) = open_durable_index(&dir, self.disk, create, self.config, None)?;
            front.bulk_load(slice)?;
            front.checkpoint(true)?;
            halves.push((name, front));
        }
        if fault == SplitFault::CrashBeforeCommit {
            // The kill: the new dirs exist but no manifest names them.
            return Ok(pivot);
        }
        // Step 3: the commit point — swap the manifest atomically.
        let (old_name, _) = self.shards.remove(shard);
        let mut halves = halves.into_iter();
        self.shards.insert(shard, halves.next().expect("left half"));
        self.shards.insert(shard + 1, halves.next().expect("right half"));
        self.boundaries.insert(shard, pivot);
        self.generation = generation;
        self.commit_manifest()?;
        if fault == SplitFault::CrashAfterCommit {
            // The kill: committed, but the retired dir still exists.
            return Ok(pivot);
        }
        // Step 4: garbage-collect the retired shard.
        std::fs::remove_dir_all(self.dir.join(&old_name)).map_err(io_err)?;
        Ok(pivot)
    }

    /// Writes the manifest for the current shard map to `ROUTER.tmp`,
    /// fsyncs it and renames it over `ROUTER` (the atomic commit), fsyncing
    /// the store directory so the rename itself is durable.
    fn commit_manifest(&mut self) -> IndexResult<()> {
        let mut body = format!(
            "lidx-sharded-router v1\nindex {}\ngeneration {}\nshards {}\n",
            self.choice.name(),
            self.generation,
            self.shards.len(),
        );
        for (s, (name, _)) in self.shards.iter().enumerate() {
            let lo = if s == 0 { 0 } else { self.boundaries[s - 1] };
            body.push_str(&format!("shard {name} {lo}\n"));
        }
        let tmp = self.dir.join("ROUTER.tmp");
        let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
        file.write_all(body.as_bytes()).map_err(io_err)?;
        file.write_all(format!("checksum {:016x}\n", fnv1a(body.as_bytes())).as_bytes())
            .map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        drop(file);
        std::fs::rename(&tmp, self.dir.join("ROUTER")).map_err(io_err)?;
        if let Ok(d) = std::fs::File::open(&self.dir) {
            d.sync_all().ok();
        }
        Ok(())
    }
}

fn io_err(e: std::io::Error) -> IndexError {
    IndexError::Internal(format!("sharded store io: {e}"))
}

/// Fails unless every key shard `s` holds lies in the range the manifest
/// gives it, `[boundaries[s - 1], boundaries[s])`. A manifest that decodes
/// but names the wrong directory or boundary would otherwise route keys to
/// shards that do not hold them; and the sweep after the opens would delete
/// the directories it failed to name.
fn check_shard_range(
    front: &DurableIndex,
    name: &str,
    s: usize,
    boundaries: &[Key],
) -> IndexResult<()> {
    let mut first = Vec::new();
    front.scan(0, 1, &mut first)?;
    let below = s > 0 && first.first().is_some_and(|e| e.0 < boundaries[s - 1]);
    let above = match boundaries.get(s) {
        Some(&hi) => front.scan(hi, 1, &mut first)? > 0,
        None => false,
    };
    if below || above {
        return Err(IndexError::Internal(format!(
            "ROUTER manifest: shard {name} holds keys outside its range"
        )));
    }
    Ok(())
}

/// A shard directory name as [`DurableShardedRouter`] writes them,
/// `shard-<generation>-<index>`: nothing that leaves the store directory.
fn is_shard_name(name: &str) -> bool {
    name.strip_prefix("shard-").is_some_and(|rest| {
        let mut parts = rest.split('-');
        let number = |p: Option<&str>| {
            p.is_some_and(|p| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()))
        };
        number(parts.next()) && number(parts.next()) && parts.next().is_none()
    })
}

/// Decodes and checksum-verifies a `ROUTER` manifest body, returning
/// `(index name, generation, boundaries, shard dir names)`.
fn decode_manifest(body: &str) -> IndexResult<(String, u64, Vec<Key>, Vec<String>)> {
    let bad = |why: &str| IndexError::Internal(format!("ROUTER manifest: {why}"));
    let (payload, checksum_line) =
        body.trim_end_matches('\n').rsplit_once('\n').ok_or_else(|| bad("too short"))?;
    let payload = format!("{payload}\n");
    let want = checksum_line
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| bad("missing checksum"))?;
    if fnv1a(payload.as_bytes()) != want {
        return Err(bad("checksum mismatch (torn write?)"));
    }
    let mut lines = payload.lines();
    if lines.next() != Some("lidx-sharded-router v1") {
        return Err(bad("bad magic"));
    }
    let mut index_name = String::new();
    let mut generation = 0;
    let mut count = None;
    let mut names = Vec::new();
    let mut lows: Vec<Key> = Vec::new();
    for line in lines {
        let mut parts = line.split(' ');
        match parts.next() {
            Some("shards") => {
                count = Some(
                    parts
                        .next()
                        .and_then(|n| n.parse::<usize>().ok())
                        .ok_or_else(|| bad("bad shard count"))?,
                );
            }
            Some("index") => {
                index_name = parts.next().ok_or_else(|| bad("bad index line"))?.to_string();
            }
            Some("generation") => {
                generation = parts
                    .next()
                    .and_then(|g| g.parse().ok())
                    .ok_or_else(|| bad("bad generation"))?;
            }
            Some("shard") => {
                let name = parts.next().ok_or_else(|| bad("shard without name"))?;
                let lo: Key = parts
                    .next()
                    .and_then(|l| l.parse().ok())
                    .ok_or_else(|| bad("shard without range"))?;
                if !is_shard_name(name) || names.iter().any(|n| n == name) {
                    return Err(bad("bad or repeated shard name"));
                }
                if lows.last().map_or(lo != 0, |&prev| lo <= prev) {
                    return Err(bad("shard ranges do not start at 0 and increase"));
                }
                names.push(name.to_string());
                lows.push(lo);
            }
            _ => return Err(bad("unknown line")),
        }
        if parts.next().is_some() {
            return Err(bad("trailing field"));
        }
    }
    if names.is_empty() || count != Some(names.len()) {
        return Err(bad("shard count does not match the shard lines"));
    }
    // `lows[0]` is 0; the remaining lows are the boundaries.
    Ok((index_name, generation, lows[1..].to_vec(), names))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lidx-shrec-{tag}-{}", std::process::id()))
    }

    fn entries() -> Vec<Entry> {
        (0..800u64).map(|i| (i * 7 + 1, i * 7 + 2)).collect()
    }

    #[test]
    fn durable_sharded_round_trip() {
        let dir = scratch("roundtrip");
        let create = Some((IndexChoice::BTree, vec![2_000, 4_000]));
        let (mut router, _) =
            DurableShardedRouter::open(&dir, 4096, create, WriteBufferConfig::default()).unwrap();
        router.bulk_load(&entries()).unwrap();
        router.insert(2_000, 77).unwrap();
        router.checkpoint().unwrap();
        drop(router);

        let (recovered, replayed) =
            DurableShardedRouter::open(&dir, 4096, None, WriteBufferConfig::default()).unwrap();
        assert_eq!(replayed, 0);
        assert_eq!(recovered.boundaries(), &[2_000, 4_000]);
        assert_eq!(recovered.lookup(2_000).unwrap(), Some(77));
        assert_eq!(recovered.lookup(1).unwrap(), Some(2));
        let mut out = Vec::new();
        recovered.scan(1_990, 4, &mut out).unwrap();
        assert_eq!(out.first(), Some(&(1_996, 1_997)), "stitches across the boundary");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The range check on reopen scans every shard, so a shard the bulk
    /// load left empty must still reopen, for every design.
    #[test]
    fn a_store_with_an_empty_shard_reopens() {
        for choice in IndexChoice::ALL_DESIGNS {
            let dir = scratch(&format!("empty-{}", choice.name()));
            let create = Some((choice, vec![1_000, 1_000_000]));
            let wb = WriteBufferConfig::default();
            let (mut router, _) = DurableShardedRouter::open(&dir, 4096, create, wb).unwrap();
            router.bulk_load(&entries()[..100]).unwrap();
            router.checkpoint().unwrap();
            drop(router);
            let (recovered, _) = DurableShardedRouter::open(&dir, 4096, None, wb)
                .unwrap_or_else(|e| panic!("{}: {e}", choice.name()));
            assert_eq!(recovered.len(), 100, "{}", choice.name());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn torn_manifest_is_rejected() {
        let dir = scratch("torn");
        let create = Some((IndexChoice::BTree, vec![1_000]));
        let (router, _) =
            DurableShardedRouter::open(&dir, 4096, create, WriteBufferConfig::default()).unwrap();
        drop(router);
        let manifest = dir.join("ROUTER");
        let body = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, &body[..body.len() - 3]).unwrap();
        let err = DurableShardedRouter::open(&dir, 4096, None, WriteBufferConfig::default());
        assert!(err.is_err(), "a torn manifest must fail closed");
        std::fs::remove_dir_all(&dir).ok();
    }
}
