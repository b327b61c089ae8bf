//! Extent allocation bookkeeping.
//!
//! Indexes in this workspace allocate storage in *extents*: runs of one or
//! more contiguous blocks (ALEX and LIPP nodes can span many blocks, and the
//! paper enforces that a node's data occupies adjacent space, §4.1). The
//! [`Pager`] tracks, per file, which extents have been handed out and which
//! have been freed by structural modification operations.
//!
//! By default freed space is *not* reused — the paper observes that on-disk
//! space used by learned indexes "cannot be reclaimed easily" (K3 / §6.3) and
//! its measurements include that fragmentation. Setting
//! [`Pager::set_reuse_freed`] to `true` enables best-fit reuse of freed
//! extents, which the experiments crate uses as an ablation for design
//! principle P4.

use std::collections::BTreeMap;

use crate::BlockId;

/// Per-file extent allocation state.
#[derive(Debug, Default, Clone)]
struct FileState {
    /// Freed extents: start block -> length in blocks.
    freed: BTreeMap<BlockId, u32>,
    /// Total blocks freed (for fragmentation reporting).
    freed_blocks: u64,
    /// Total blocks ever allocated through the pager.
    allocated_blocks: u64,
}

/// Tracks extent allocation and (optionally) reuse of freed extents.
#[derive(Debug, Default)]
pub struct Pager {
    files: Vec<FileState>,
    reuse_freed: bool,
}

impl Pager {
    /// Creates a pager with reuse of freed space disabled (the paper's
    /// default behaviour).
    pub fn new() -> Self {
        Pager::default()
    }

    /// Enables or disables best-fit reuse of freed extents.
    pub fn set_reuse_freed(&mut self, reuse: bool) {
        self.reuse_freed = reuse;
    }

    /// Whether freed extents are reused.
    pub fn reuse_freed(&self) -> bool {
        self.reuse_freed
    }

    fn file_mut(&mut self, file: u32) -> &mut FileState {
        let idx = file as usize;
        if idx >= self.files.len() {
            self.files.resize(idx + 1, FileState::default());
        }
        &mut self.files[idx]
    }

    /// Attempts to satisfy an allocation of `count` contiguous blocks from the
    /// freed list of `file`. Returns the start block on success; otherwise the
    /// caller must extend the file and then call [`Pager::note_extend`].
    pub fn try_reuse(&mut self, file: u32, count: u32) -> Option<BlockId> {
        if !self.reuse_freed || count == 0 {
            return None;
        }
        let state = self.file_mut(file);
        // Best fit: smallest freed extent that is large enough.
        let best = state
            .freed
            .iter()
            .filter(|(_, &len)| len >= count)
            .min_by_key(|(_, &len)| len)
            .map(|(&start, &len)| (start, len))?;
        let (start, len) = best;
        state.freed.remove(&start);
        if len > count {
            state.freed.insert(start + count, len - count);
        }
        state.freed_blocks -= u64::from(count);
        state.allocated_blocks += u64::from(count);
        Some(start)
    }

    /// Records that `count` blocks starting at `start` were newly appended to
    /// `file`.
    pub fn note_extend(&mut self, file: u32, _start: BlockId, count: u32) {
        self.file_mut(file).allocated_blocks += u64::from(count);
    }

    /// Raises `file`'s allocated-block counter to at least `total`. Used
    /// when a reopen adopts physically present blocks that the superblock's
    /// checkpoint predates (a WAL tail that grew between checkpoints), so
    /// the footprint reporting stays consistent with the backend.
    pub fn note_adopted(&mut self, file: u32, total: u32) {
        let state = self.file_mut(file);
        state.allocated_blocks = state.allocated_blocks.max(u64::from(total));
    }

    /// Marks an extent as freed (invalidated by an SMO). Blocks of the
    /// extent that are already free stay counted once, so freeing a range
    /// twice is the same as freeing it once.
    pub fn free(&mut self, file: u32, start: BlockId, count: u32) {
        if count == 0 {
            return;
        }
        let state = self.file_mut(file);
        let end = start + count;
        // Merge every freed extent that overlaps or touches the range into
        // one, counting the blocks the range shares with them.
        let (mut lo, mut hi, mut already) = (start, end, 0u32);
        while let Some((&s, &len)) = state.freed.range(..=end).next_back() {
            if s + len < start {
                break;
            }
            state.freed.remove(&s);
            already += (s + len).min(end).saturating_sub(s.max(start));
            lo = lo.min(s);
            hi = hi.max(s + len);
        }
        state.freed_blocks += u64::from(count - already);
        state.freed.insert(lo, hi - lo);
    }

    /// Total blocks currently sitting in freed extents of `file`.
    pub fn freed_blocks(&self, file: u32) -> u64 {
        self.files.get(file as usize).map_or(0, |f| f.freed_blocks)
    }

    /// Total blocks allocated through this pager for `file`.
    pub fn allocated_blocks(&self, file: u32) -> u64 {
        self.files.get(file as usize).map_or(0, |f| f.allocated_blocks)
    }

    /// Number of distinct freed extents in `file` (a fragmentation measure).
    pub fn freed_extents(&self, file: u32) -> usize {
        self.files.get(file as usize).map_or(0, |f| f.freed.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_reuse_by_default() {
        let mut p = Pager::new();
        p.note_extend(0, 0, 10);
        p.free(0, 2, 3);
        assert_eq!(p.try_reuse(0, 2), None);
        assert_eq!(p.freed_blocks(0), 3);
        assert_eq!(p.allocated_blocks(0), 10);
    }

    #[test]
    fn best_fit_reuse() {
        let mut p = Pager::new();
        p.set_reuse_freed(true);
        p.note_extend(0, 0, 100);
        p.free(0, 10, 8);
        p.free(0, 50, 3);
        // A 2-block request should carve from the *smaller* (3-block) extent.
        assert_eq!(p.try_reuse(0, 2), Some(50));
        assert_eq!(p.freed_blocks(0), 9);
        // The remainder of that extent is still available.
        assert_eq!(p.try_reuse(0, 1), Some(52));
        // Larger request falls through to the 8-block extent.
        assert_eq!(p.try_reuse(0, 8), Some(10));
        // Nothing large enough any more.
        assert_eq!(p.try_reuse(0, 4), None);
    }

    #[test]
    fn adjacent_frees_coalesce() {
        let mut p = Pager::new();
        p.set_reuse_freed(true);
        p.note_extend(0, 0, 64);
        p.free(0, 4, 4);
        p.free(0, 8, 4);
        p.free(0, 0, 4);
        assert_eq!(p.freed_extents(0), 1, "three adjacent extents must coalesce into one");
        assert_eq!(p.try_reuse(0, 12), Some(0));
    }

    #[test]
    fn a_repeated_or_overlapping_free_counts_each_block_once() {
        let mut p = Pager::new();
        p.set_reuse_freed(true);
        p.note_extend(0, 0, 64);
        p.free(0, 10, 8);
        p.free(0, 10, 8);
        assert_eq!(p.freed_blocks(0), 8);
        // Overlapping both ends and bridging to a second extent.
        p.free(0, 30, 4);
        p.free(0, 6, 26);
        assert_eq!(p.freed_blocks(0), 28);
        assert_eq!(p.freed_extents(0), 1);
        assert_eq!(p.try_reuse(0, 28), Some(6));
        assert_eq!(p.freed_blocks(0), 0);
    }

    #[test]
    fn files_tracked_independently() {
        let mut p = Pager::new();
        p.set_reuse_freed(true);
        p.note_extend(0, 0, 10);
        p.note_extend(3, 0, 20);
        p.free(3, 5, 5);
        assert_eq!(p.try_reuse(0, 1), None);
        assert_eq!(p.try_reuse(3, 5), Some(5));
        assert_eq!(p.allocated_blocks(3), 25);
    }

    #[test]
    fn zero_length_operations_are_noops() {
        let mut p = Pager::new();
        p.set_reuse_freed(true);
        p.free(0, 5, 0);
        assert_eq!(p.freed_blocks(0), 0);
        assert_eq!(p.try_reuse(0, 0), None);
    }
}
