//! The dynamic (LSM-style) PGM-index implementing
//! [`DiskIndex`](lidx_core::DiskIndex).
//!
//! New keys land in a small sorted *insert run* stored in its own file (a
//! sorted entry array, [`lidx_core::entries`], rewritten whole once per
//! insert batch); when the run fills up it is merged with the existing
//! static components in the classic logarithmic-method fashion: components
//! occupy exponentially growing "levels", and flushing the run merges it
//! with every occupied level from the smallest upwards until a free level is
//! reached, where the merged result is rebuilt as a fresh [`StaticPgm`].
//! Every merge, the flush's and a scan's, is
//! [`lidx_core::merge_newest_wins`]: the newer entry wins on an equal key.
//! Merged components release their blocks (their files would be deleted on
//! a real system), which is why PGM's storage footprint stays the smallest
//! of the studied indexes (§6.3).
//!
//! Reads must consult the insert run and then every component from newest
//! (smallest) to oldest — the multi-file read amplification the paper blames
//! for PGM's poor read-heavy performance (O10).

use std::sync::Arc;

use lidx_core::entries::{self, EntryArray};
use lidx_core::{
    index::validate_bulk_load, merge_newest_wins, Entry, IndexError, IndexKind, IndexRead,
    IndexResult, IndexStats, IndexWrite, InsertBreakdown, InsertStep, Key, MetaReader, MetaWriter,
    StepLaps, Value,
};
use lidx_storage::{BlockCursor, BlockKind, Disk, OpClass};

use crate::static_pgm::StaticPgm;

/// Configuration of the dynamic PGM-index.
#[derive(Debug, Clone, Copy)]
pub struct PgmConfig {
    /// Error bound ε of every component's piecewise-linear levels.
    pub epsilon: usize,
    /// Capacity of the sorted insert run, in entries. The paper's
    /// configuration holds 585 entries (≈ 3 blocks of 4 KB).
    pub insert_run_entries: usize,
}

impl Default for PgmConfig {
    fn default() -> Self {
        PgmConfig { epsilon: 64, insert_run_entries: 585 }
    }
}

/// The dynamic PGM-index.
pub struct PgmIndex {
    disk: Arc<Disk>,
    config: PgmConfig,
    /// File holding the sorted insert run.
    run_file: u32,
    run: u32,
    /// LSM levels; `levels[i]` (if present) holds roughly
    /// `insert_run_entries * 2^(i+1)` entries.
    levels: Vec<Option<StaticPgm>>,
    key_count: u64,
    smo_count: u64,
    loaded: bool,
    breakdown: InsertBreakdown,
}

impl PgmIndex {
    /// Creates an empty dynamic PGM-index with default configuration.
    pub fn new(disk: Arc<Disk>) -> IndexResult<Self> {
        Self::with_config(disk, PgmConfig::default())
    }

    /// Creates an empty dynamic PGM-index with an explicit configuration.
    pub fn with_config(disk: Arc<Disk>, config: PgmConfig) -> IndexResult<Self> {
        assert!(config.epsilon >= 1);
        assert!(config.insert_run_entries >= 1);
        let run_file = disk.create_file()?;
        let run_blocks =
            config.insert_run_entries.div_ceil(entries::per_block(disk.block_size())).max(1);
        disk.allocate(run_file, run_blocks as u32)?;
        Ok(PgmIndex {
            disk,
            config,
            run_file,
            run: 0,
            levels: Vec::new(),
            key_count: 0,
            smo_count: 0,
            loaded: false,
            breakdown: InsertBreakdown::new(),
        })
    }

    /// Reopens a dynamic PGM-index from [`IndexWrite::save_meta`] bytes
    /// against a disk that already holds its blocks. `config` must match the
    /// one the index was created with. An insert run longer than its file
    /// holds, or a component [`StaticPgm::load_meta`] refuses, is
    /// [`IndexError::Internal`].
    pub fn load(disk: Arc<Disk>, config: PgmConfig, meta: &[u8]) -> IndexResult<Self> {
        let mut r = MetaReader::new(meta);
        let run_file = r.u32()?;
        let run = r.u32()?;
        let key_count = r.u64()?;
        let smo_count = r.u64()?;
        let run_capacity =
            u64::from(disk.num_blocks(run_file)?) * entries::per_block(disk.block_size()) as u64;
        if u64::from(run) > run_capacity {
            return Err(IndexError::Internal(format!(
                "PGM insert run of {run} entries overruns its {run_capacity} slots"
            )));
        }
        let level_count = r.u32()? as usize;
        let mut levels = Vec::with_capacity(level_count.min(64));
        for _ in 0..level_count {
            let occupied = r.u32()? != 0;
            levels.push(if occupied {
                Some(StaticPgm::load_meta(Arc::clone(&disk), &mut r, BlockKind::Leaf)?)
            } else {
                None
            });
        }
        Ok(PgmIndex {
            disk,
            config,
            run_file,
            run,
            levels,
            key_count,
            smo_count,
            loaded: true,
            breakdown: InsertBreakdown::new(),
        })
    }

    /// Number of live static components.
    pub fn component_count(&self) -> usize {
        self.levels.iter().filter(|l| l.is_some()).count()
    }

    /// Capacity of LSM level `i`, in entries.
    fn level_capacity(&self, i: usize) -> u64 {
        (self.config.insert_run_entries as u64) << (i + 1)
    }

    /// The insert run holding `len` entries: the blocks from the run file's
    /// first that cover them (one when it is empty), charged to `Utility`.
    fn run_array(&self, len: usize) -> EntryArray {
        let blocks = len.div_ceil(entries::per_block(self.disk.block_size())).max(1) as u32;
        EntryArray { file: self.run_file, first_block: 0, blocks, len, kind: BlockKind::Utility }
    }

    /// The insert run's entries, read through the operation's `cursor`:
    /// point-class for lookups and inserts, scan-class for a scan's cursor.
    fn read_run(&self, cursor: &mut BlockCursor<'_>) -> IndexResult<Vec<Entry>> {
        self.run_array(self.run as usize).all(cursor)
    }

    /// Rewrites the run as `entries`, whose positions before `from` hold
    /// what the stored run holds there: the blocks covering them (or one),
    /// from the block holding position `from` on.
    fn write_run(&self, entries: &[Entry], from: usize) -> IndexResult<()> {
        let first = from / entries::per_block(self.disk.block_size());
        self.run_array(entries.len()).write_from(&self.disk, entries, first as u32)
    }

    /// Builds `entries` into a component in a file of its own, its data
    /// level charged to `Leaf`.
    fn build_component(&self, entries: &[Entry]) -> IndexResult<StaticPgm> {
        let file = self.disk.create_file()?;
        StaticPgm::build(
            Arc::clone(&self.disk),
            file,
            entries,
            self.config.epsilon,
            BlockKind::Leaf,
        )
    }

    /// Flushes the insert run into the LSM levels (the PGM structural
    /// modification of Fig. 1(b)).
    fn flush_run(&mut self, run_entries: Vec<Entry>) -> IndexResult<()> {
        self.smo_count += 1;
        // The SMO is the learned-index pause the paper attributes tail
        // latency to: time the whole operation and count it, off a local
        // Arc so the span does not pin a borrow of `self`.
        let telemetry = Arc::clone(&self.disk);
        let _span = telemetry.telemetry().span(OpClass::Smo);
        telemetry.telemetry().add(OpClass::Smo, 1);
        let mut merged = run_entries;
        let mut target = 0usize;
        loop {
            if target >= self.levels.len() {
                self.levels.push(None);
            }
            match self.levels[target].take() {
                Some(component) => {
                    let older = component.all_entries()?;
                    component.release();
                    let inputs = merged.len() + older.len();
                    let mut m = Vec::with_capacity(inputs);
                    merge_newest_wins(merged, older, usize::MAX, &mut m);
                    // Each key both sides held comes out once.
                    self.key_count -= (inputs - m.len()) as u64;
                    merged = m;
                }
                None => {
                    if merged.len() as u64 <= self.level_capacity(target) {
                        break;
                    }
                    // Level is empty but too small to hold the merge result;
                    // keep cascading upward.
                }
            }
            if merged.len() as u64 <= self.level_capacity(target) && self.levels[target].is_none() {
                break;
            }
            target += 1;
        }
        let component = self.build_component(&merged)?;
        self.levels[target] = Some(component);
        self.run = 0;
        self.write_run(&[], 0)?;
        Ok(())
    }
}

impl IndexRead for PgmIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Pgm
    }

    fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        // Newest data first: the insert run, then components small to large.
        if self.run > 0 {
            let run = self.run_array(self.run as usize);
            if let Some(v) = run.search(&mut self.disk.cursor(), key)? {
                return Ok(Some(v));
            }
        }
        for level in self.levels.iter().flatten() {
            if let Some(v) = level.lookup(key)? {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    /// Batched lookups pay PGM's multi-component read amplification once per
    /// batch instead of once per key: the insert run is read a single time
    /// and probed in memory for every key, and each component only sees the
    /// keys that every newer component missed, with probes that read the
    /// same block sharing one fetch ([`StaticPgm::lookup_batch_sorted`]).
    fn lookup_batch(&self, keys: &[Key], out: &mut Vec<Option<Value>>) -> IndexResult<()> {
        out.clear();
        if keys.is_empty() {
            return Ok(());
        }
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        out.resize(keys.len(), None);
        let mut pending: Vec<u32> = (0..keys.len() as u32).collect();
        pending.sort_unstable_by_key(|&i| keys[i as usize]);
        if self.run > 0 {
            let run = self.read_run(&mut self.disk.cursor())?;
            pending.retain(|&i| match run.binary_search_by_key(&keys[i as usize], |&(k, _)| k) {
                Ok(pos) => {
                    out[i as usize] = Some(run[pos].1);
                    false
                }
                Err(_) => true,
            });
        }
        for level in self.levels.iter().flatten() {
            if pending.is_empty() {
                break;
            }
            level.lookup_batch_sorted(keys, &mut pending, out)?;
        }
        Ok(())
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize> {
        out.clear();
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        if count == 0 {
            return Ok(0);
        }
        // Collect `count` candidates from every component, then merge,
        // preferring newer components on duplicate keys. (Preallocation is
        // capped by the component size: full-table scans legitimately pass
        // huge sentinel counts.)
        // One scan cursor carries the run and every component's scan.
        let mut cursor = self.disk.scan_cursor();
        let run = self.read_run(&mut cursor)?;
        let mut merged: Vec<Entry> =
            run.into_iter().filter(|&(k, _)| k >= start).take(count).collect();
        for level in self.levels.iter().flatten() {
            let mut part = Vec::with_capacity(count.min(level.len() as usize));
            level.scan_into(&mut cursor, start, count, &mut part)?;
            let newer = std::mem::take(&mut merged);
            merge_newest_wins(newer, part, count, &mut merged);
        }
        *out = merged;
        Ok(out.len())
    }

    fn len(&self) -> u64 {
        self.key_count
    }

    fn stats(&self) -> IndexStats {
        let height =
            self.levels.iter().flatten().map(|l| l.inner_levels() as u32 + 2).max().unwrap_or(1);
        IndexStats {
            keys: self.key_count,
            height,
            inner_nodes: self.levels.iter().flatten().map(|l| l.inner_records()).sum(),
            leaf_nodes: self.levels.iter().flatten().map(|l| u64::from(l.data_blocks())).sum(),
            smo_count: self.smo_count,
        }
    }

    fn storage_blocks(&self) -> u64 {
        // Merged components release their files, so PGM's live footprint is
        // the allocation minus what the pager holds freed (§6.3).
        let files = 0..self.disk.num_files();
        self.disk.total_blocks() - files.map(|f| self.disk.freed_blocks(f)).sum::<u64>()
    }
}

impl IndexWrite for PgmIndex {
    fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if self.loaded {
            return Err(IndexError::AlreadyLoaded);
        }
        validate_bulk_load(entries)?;
        // Place the bulk-loaded data in the smallest level large enough.
        let mut level = 0usize;
        while self.level_capacity(level) < entries.len() as u64 {
            level += 1;
        }
        while self.levels.len() <= level {
            self.levels.push(None);
        }
        let component = self.build_component(entries)?;
        self.levels[level] = Some(component);
        self.key_count = entries.len() as u64;
        self.loaded = true;
        Ok(())
    }

    /// The one write path (`insert` is a batch of one): entries are
    /// appended to the run in memory, so the run blocks are read once per
    /// batch and the run is rewritten once at the end — where one-entry
    /// batches pay a run read and a run write *per key*. The rewrite starts
    /// at the block holding the batch's smallest changed position: a sorted
    /// insert at position `p` leaves the blocks before `p / per_block` as
    /// they are. LSM flushes fire
    /// at the same entries under every partition of a stream into batches
    /// (the run crossing its capacity), so the logical outcome — including
    /// the lazily-reconciled key count, which depends on *when* duplicates
    /// meet the run — does not depend on the partition.
    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if !self.loaded {
            return Err(IndexError::NotInitialized);
        }
        if entries.is_empty() {
            return Ok(());
        }
        let mut laps = StepLaps::start(&self.disk);
        // PGM only searches the insert run on insert (the paper highlights
        // this as the reason for its write-only dominance, O6).
        let mut run = self.read_run(&mut self.disk.cursor())?;
        laps.lap(&mut self.breakdown, InsertStep::Search);

        // The smallest run position the batch changed since the run was
        // last stored: positions before it hold what they held.
        let mut changed = usize::MAX;
        for &(key, value) in entries {
            let pos = match run.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(pos) => {
                    run[pos].1 = value;
                    pos
                }
                Err(pos) => {
                    run.insert(pos, (key, value));
                    self.key_count += 1;
                    pos
                }
            };
            changed = changed.min(pos);
            self.breakdown.finish_insert();
            if run.len() > self.config.insert_run_entries {
                self.flush_run(std::mem::take(&mut run))?;
                changed = usize::MAX;
                laps.lap(&mut self.breakdown, InsertStep::Smo);
            }
        }
        // `flush_run` already persisted an empty run if it ran last.
        if !run.is_empty() {
            self.run = run.len() as u32;
            self.write_run(&run, changed)?;
        }
        laps.lap(&mut self.breakdown, InsertStep::Insert);
        Ok(())
    }

    fn insert_breakdown(&self) -> InsertBreakdown {
        self.breakdown
    }

    fn save_meta(&mut self) -> IndexResult<Vec<u8>> {
        // The insert run and every component block are written eagerly, so
        // the handle fields plus each component's metadata are the whole
        // state.
        let mut w = MetaWriter::new();
        w.u32(self.run_file)
            .u32(self.run)
            .u64(self.key_count)
            .u64(self.smo_count)
            .u32(self.levels.len() as u32);
        for level in &self.levels {
            match level {
                Some(component) => {
                    w.u32(1);
                    component.save_meta(&mut w);
                }
                None => {
                    w.u32(0);
                }
            }
        }
        Ok(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_storage::DiskConfig;

    fn index(bs: usize, run: usize) -> PgmIndex {
        let disk = Disk::in_memory(DiskConfig::with_block_size(bs));
        PgmIndex::with_config(disk, PgmConfig { epsilon: 16, insert_run_entries: run }).unwrap()
    }

    fn entries(n: u64, stride: u64) -> Vec<Entry> {
        (0..n).map(|i| (i * stride + 1, i * stride + 2)).collect()
    }

    #[test]
    fn bulk_load_and_lookup() {
        let mut p = index(512, 64);
        let data = entries(20_000, 7);
        p.bulk_load(&data).unwrap();
        assert_eq!(p.len(), 20_000);
        assert_eq!(p.component_count(), 1);
        for &(k, v) in data.iter().step_by(487) {
            assert_eq!(p.lookup(k).unwrap(), Some(v));
        }
        assert_eq!(p.lookup(0).unwrap(), None);
        assert_eq!(p.lookup(data.last().unwrap().0 + 3).unwrap(), None);
    }

    #[test]
    fn inserts_flow_through_run_and_merge_into_components() {
        let mut p = index(512, 32);
        p.bulk_load(&entries(1_000, 10)).unwrap();
        for i in 0..500u64 {
            p.insert(i * 10 + 5, i).unwrap();
        }
        assert_eq!(p.len(), 1_500);
        assert!(p.stats().smo_count > 0, "run flushes must have happened");
        assert!(p.component_count() >= 1);
        for i in (0..500u64).step_by(41) {
            assert_eq!(p.lookup(i * 10 + 5).unwrap(), Some(i));
        }
        // Original keys remain visible after merges.
        for &(k, v) in entries(1_000, 10).iter().step_by(173) {
            assert_eq!(p.lookup(k).unwrap(), Some(v));
        }
    }

    #[test]
    fn insert_cost_is_dominated_by_the_run() {
        // Away from flush points, an insert touches only the run blocks.
        let mut p = index(4096, 585);
        p.bulk_load(&entries(100_000, 4)).unwrap();
        p.disk().stats().reset();
        p.disk().reset_access_state();
        let before = p.disk().snapshot();
        p.insert(3, 3).unwrap();
        let delta = p.disk().snapshot().since(&before);
        assert!(
            delta.total_io() <= 4,
            "a non-flushing PGM insert should touch at most a few run blocks, saw {}",
            delta.total_io()
        );
    }

    #[test]
    fn lookup_visits_components_newest_first() {
        let mut p = index(512, 16);
        p.bulk_load(&entries(2_000, 3)).unwrap();
        // Overwrite an existing key; the newer value must win even though the
        // older one still physically exists in the bulk component.
        p.insert(1, 999).unwrap();
        assert_eq!(p.lookup(1).unwrap(), Some(999));
        // Note: PGM does not search the whole index on insert (only the
        // run), so the duplicate is reconciled lazily at merge time.
        // Force enough flushes that the overwrite migrates into a component.
        for i in 0..200u64 {
            p.insert(1_000_000 + i, i).unwrap();
        }
        assert_eq!(p.lookup(1).unwrap(), Some(999));
    }

    #[test]
    fn scan_merges_run_and_components() {
        let mut p = index(512, 32);
        let data = entries(5_000, 4); // keys 1, 5, 9, ...
        p.bulk_load(&data).unwrap();
        for i in 0..100u64 {
            p.insert(i * 4 + 3, i).unwrap(); // interleaved keys 3, 7, 11, ...
        }
        let mut out = Vec::new();
        let n = p.scan(1, 150, &mut out).unwrap();
        assert_eq!(n, 150);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "scan output must be sorted");
        // The first few entries interleave bulk and inserted keys: 1,3,5,7,...
        assert_eq!(out[0].0, 1);
        assert_eq!(out[1].0, 3);
        assert_eq!(out[2].0, 5);
    }

    #[test]
    fn scan_boundary_cases_match_oracle() {
        let mut t = index(512, 32);
        let data = entries(1_200, 7);
        t.bulk_load(&data).unwrap();
        // Push some keys through the insert run so scans must merge
        // components at their boundaries too.
        for i in 0..50u64 {
            t.insert(i * 7 * 24 + 4, 42).unwrap();
        }
        let mut data: Vec<Entry> = data;
        for i in 0..50u64 {
            let k = i * 7 * 24 + 4;
            match data.binary_search_by_key(&k, |e| e.0) {
                Ok(p) => data[p].1 = 42,
                Err(p) => data.insert(p, (k, 42)),
            }
        }
        let mut out = Vec::new();

        // count == 0 returns nothing and clears `out`.
        out.push((1, 1));
        assert_eq!(t.scan(data[0].0, 0, &mut out).unwrap(), 0);
        assert!(out.is_empty());

        // Starts above the maximum stored key return nothing.
        let max_key = data.last().unwrap().0;
        for start in [max_key + 1, u64::MAX] {
            assert_eq!(t.scan(start, 10, &mut out).unwrap(), 0, "scan from {start}");
            assert!(out.is_empty());
        }

        // Scanning from every stored key covers every block / segment / node
        // boundary; each result must match the oracle slice exactly.
        for (i, &(k, _)) in data.iter().enumerate() {
            let n = t.scan(k, 5, &mut out).unwrap();
            let expected: Vec<Entry> = data[i..].iter().take(5).copied().collect();
            assert_eq!(n, expected.len(), "scan length from key {k}");
            assert_eq!(out, expected, "scan contents from key {k}");
        }
    }

    #[test]
    fn lookup_batch_matches_sequential_across_run_and_components() {
        let mut p = index(512, 32);
        let data = entries(5_000, 4);
        p.bulk_load(&data).unwrap();
        // Push keys through the run and past at least one flush so the batch
        // has to consult the run plus several components.
        for i in 0..90u64 {
            p.insert(i * 4 + 3, i).unwrap();
        }
        let probes: Vec<Key> = data
            .iter()
            .step_by(101)
            .map(|&(k, _)| k)
            .chain((0..90).map(|i| i * 4 + 3))
            .chain([0, 2, u64::MAX, data[7].0, data[7].0])
            .collect();
        let mut batched = Vec::new();
        p.lookup_batch(&probes, &mut batched).unwrap();
        for (i, &k) in probes.iter().enumerate() {
            assert_eq!(batched[i], p.lookup(k).unwrap(), "probe {k}");
        }

        // The batch reads the insert run once, not once per key, and shares
        // data blocks across co-located keys.
        let run: Vec<Key> = data[100..300].iter().map(|&(k, _)| k).collect();
        p.disk().stats().reset();
        p.disk().reset_access_state();
        p.lookup_batch(&run, &mut batched).unwrap();
        let batch_reads = p.disk().stats().reads();
        p.disk().stats().reset();
        p.disk().reset_access_state();
        for &k in &run {
            p.lookup(k).unwrap();
        }
        let seq_reads = p.disk().stats().reads();
        assert!(
            batch_reads * 2 < seq_reads,
            "batched reads ({batch_reads}) must amortise sequential reads ({seq_reads})"
        );
    }

    #[test]
    fn insert_batch_matches_sequential_with_one_run_rewrite() {
        let data = entries(3_000, 6);
        // After the reverse, (5, 900) is the later occurrence and must win.
        let mut batch: Vec<Entry> = (0..200u64).map(|i| (i * 18 + 4, i)).collect();
        batch.extend([(5, 900), (data[10].0, 901), (5, 902)]);
        batch.reverse();

        let mut batched = index(512, 64);
        batched.bulk_load(&data).unwrap();
        batched.insert_batch(&batch).unwrap();
        let mut sequential = index(512, 64);
        sequential.bulk_load(&data).unwrap();
        for &(k, v) in &batch {
            sequential.insert(k, v).unwrap();
        }
        assert_eq!(batched.len(), sequential.len());
        assert_eq!(batched.lookup(5).unwrap(), Some(900), "later duplicate wins");
        assert_eq!(batched.lookup(data[10].0).unwrap(), Some(901));
        let full = (data.len() + batch.len()) * 2;
        let mut b_scan = Vec::new();
        let mut s_scan = Vec::new();
        batched.scan(0, full, &mut b_scan).unwrap();
        sequential.scan(0, full, &mut s_scan).unwrap();
        assert_eq!(b_scan, s_scan, "batched and sequential content must be identical");

        // A non-flushing batch reads and rewrites the run once, not per key:
        // 32 inserts into an empty run at 512-byte blocks touch exactly the
        // covering run block(s).
        let mut a = index(512, 64);
        a.bulk_load(&data).unwrap();
        a.disk().stats().reset();
        a.disk().reset_access_state();
        let run: Vec<Entry> = (0..32u64).map(|i| (i * 6 + 3, i)).collect();
        a.insert_batch(&run).unwrap();
        let io = a.disk().stats().reads() + a.disk().stats().writes();
        assert!(io <= 2, "a batch fitting the run should cost ~1 run write, saw {io} I/Os");
        assert_eq!(a.insert_breakdown().inserts, 32);

        // A batch overflowing the run flushes exactly when the sequential
        // loop would: 200 fresh keys into an empty 64-entry run cross the
        // capacity at inserts 65, 130 and 195.
        let smos_before = a.stats().smo_count;
        let big: Vec<Entry> = (0..200u64).map(|i| (1_000_000 + i, i)).collect();
        a.insert_batch(&big).unwrap();
        assert_eq!(a.stats().smo_count, smos_before + 3, "flush cadence must match sequential");

        let mut empty = index(512, 16);
        assert!(matches!(empty.insert_batch(&[(1, 1)]), Err(IndexError::NotInitialized)));
    }

    /// A per-key insert rewrites the run from the block its key lands in:
    /// at the front of a two-block run both blocks, at the back the last
    /// one alone.
    #[test]
    fn an_insert_rewrites_the_run_from_the_block_it_changes() {
        // 512-byte blocks of 32 entries: 40 run entries fill two blocks.
        let mut p = index(512, 64);
        p.bulk_load(&entries(100, 10)).unwrap();
        for i in 0..40u64 {
            p.insert(10_000 + i * 10, i).unwrap();
        }
        let run_writes = |p: &mut PgmIndex, key: Key| {
            let before = p.disk().snapshot();
            p.insert(key, 7).unwrap();
            p.disk().snapshot().since(&before).writes_of(BlockKind::Utility)
        };
        assert_eq!(run_writes(&mut p, 10_005), 2, "a fresh key at the front");
        assert_eq!(run_writes(&mut p, 10_000), 2, "an overwrite at the front");
        assert_eq!(run_writes(&mut p, 20_000), 1, "a fresh key at the back");
        assert_eq!(run_writes(&mut p, 10_390), 1, "an overwrite in the last block");
        assert_eq!(p.stats().smo_count, 0);
        for (key, value) in [(10_005, 7), (10_000, 7), (10_010, 1), (10_390, 7), (20_000, 7)] {
            assert_eq!(p.lookup(key).unwrap(), Some(value), "key {key}");
        }
    }

    #[test]
    fn insert_batch_len_matches_sequential_when_a_duplicate_straddles_a_flush() {
        // Regression: a batch that overwrites key k, then fills the run past
        // capacity (forcing a flush), then overwrites k again. The sequential
        // loop counts k twice (the second occurrence misses the freshly
        // emptied run; the duplicate reconciles at the next merge), so the
        // batch must flush mid-loop to report the same length.
        let mut batch: Vec<Entry> = vec![(5, 1)];
        batch.extend((0..40u64).map(|i| (100 + i, i)));
        batch.push((5, 2));
        let mut batched = index(512, 32);
        batched.bulk_load(&[(1, 1), (2, 2)]).unwrap();
        batched.insert_batch(&batch).unwrap();
        let mut sequential = index(512, 32);
        sequential.bulk_load(&[(1, 1), (2, 2)]).unwrap();
        for &(k, v) in &batch {
            sequential.insert(k, v).unwrap();
        }
        assert_eq!(batched.len(), sequential.len(), "lazily-reconciled key counts must agree");
        assert_eq!(batched.lookup(5).unwrap(), Some(2));
        assert_eq!(sequential.lookup(5).unwrap(), Some(2));
    }

    #[test]
    fn storage_shrinks_after_merges_release_components() {
        let mut p = index(512, 16);
        p.bulk_load(&entries(2_000, 2)).unwrap();
        for i in 0..400u64 {
            p.insert(i * 2 + 2, i).unwrap();
        }
        let live = p.storage_blocks();
        let gross = p.disk().total_blocks();
        assert!(live < gross, "released component files must not count as live storage");
    }

    #[test]
    fn storage_blocks_outlive_a_stats_reset() {
        let mut p = index(512, 16);
        p.bulk_load(&entries(2_000, 2)).unwrap();
        for i in 0..400u64 {
            p.insert(i * 2 + 2, i).unwrap();
        }
        let live = p.storage_blocks();
        assert!(live < p.disk().total_blocks(), "merges must have released components");
        p.disk().stats().reset();
        assert_eq!(p.storage_blocks(), live, "the live footprint is not a counter");
    }

    #[test]
    fn not_initialised_and_double_load_errors() {
        let mut p = index(512, 16);
        assert!(matches!(p.lookup(1), Err(IndexError::NotInitialized)));
        assert!(matches!(p.insert(1, 1), Err(IndexError::NotInitialized)));
        p.bulk_load(&entries(10, 1)).unwrap();
        assert!(matches!(p.bulk_load(&entries(10, 1)), Err(IndexError::AlreadyLoaded)));
    }

    #[test]
    fn empty_bulk_load_supports_inserts() {
        let mut p = index(512, 8);
        p.bulk_load(&[]).unwrap();
        for i in 0..100u64 {
            p.insert(i, i + 1).unwrap();
        }
        assert_eq!(p.len(), 100);
        for i in (0..100).step_by(11) {
            assert_eq!(p.lookup(i).unwrap(), Some(i + 1));
        }
        let mut out = Vec::new();
        assert_eq!(p.scan(50, 10, &mut out).unwrap(), 10);
        assert_eq!(out[0], (50, 51));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256, .. proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn a_damaged_meta_loads_to_an_error_or_an_index_that_does_not_panic(
            // Each damage flips the bits `x` of one byte, or fills the eight
            // bytes from it with zeros or ones (a count or ε gone to 0 or to
            // near `u64::MAX`).
            damages in proptest::collection::vec((0usize..1 << 16, 0u8..3, 1u8..255), 0..4),
            // Past the meta's length (about half the cases) nothing is cut.
            cut in 0usize..448,
        ) {
            // Two components and a non-empty insert run; quadratic keys give
            // the bulk-loaded component an on-disk inner level.
            let mut p = index(512, 32);
            let data: Vec<Entry> = (0..2_000u64).map(|i| (i * i + i, i)).collect();
            p.bulk_load(&data).unwrap();
            p.insert_batch(&(0..40u64).map(|i| (i * 4_001 + 3, i)).collect::<Vec<_>>()).unwrap();
            proptest::prop_assert_eq!(p.component_count(), 2);
            proptest::prop_assert!(p.run > 0 && p.stats().height >= 3);
            let config = p.config;
            let mut meta = p.save_meta().unwrap();
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

            let probes: Vec<Key> = data.iter().step_by(37).flat_map(|&(k, _)| [k, k + 3]).collect();
            let Ok(loaded) = PgmIndex::load(Arc::clone(p.disk()), config, &meta) else {
                proptest::prop_assert!(!intact, "the intact meta must load");
                return Ok(());
            };
            let answers: Vec<_> = probes.iter().map(|&k| loaded.lookup(k)).collect();
            let mut batch = Vec::new();
            let batched = loaded.lookup_batch(&probes, &mut batch);
            let mut rows = Vec::new();
            let scanned = loaded.scan(probes[3], 50, &mut rows);
            if intact {
                for (&k, answer) in probes.iter().zip(&answers) {
                    proptest::prop_assert_eq!(answer.as_ref().ok(), Some(&p.lookup(k).unwrap()));
                }
                proptest::prop_assert!(batched.is_ok() && matches!(scanned, Ok(50)));
            }
        }
    }
}
