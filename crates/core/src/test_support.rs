//! The one in-memory index double the write-front and router unit tests
//! share: a `BTreeMap` behind the [`DiskIndex`](crate::DiskIndex) traits
//! that records how writes arrive and can misbehave on demand.

use std::collections::BTreeMap;
use std::sync::Arc;

use lidx_storage::{Disk, DiskConfig};

use crate::error::{IndexError, IndexResult};
use crate::index::{validate_bulk_load, IndexKind, IndexRead, IndexStats, IndexWrite};
use crate::metrics::InsertBreakdown;
use crate::{Entry, Key, Value};

pub(crate) struct MapIndex {
    disk: Arc<Disk>,
    pub(crate) entries: BTreeMap<Key, Value>,
    /// Size of every `insert_batch` call, in arrival order.
    pub(crate) batches: Vec<usize>,
    /// Number of single-key `insert` calls.
    pub(crate) singles: u64,
    loaded: bool,
    /// A batch containing this key fails once, before applying anything.
    pub(crate) poison: Option<Key>,
    /// Artificial per-batch latency, so racing tests can make staging
    /// reliably faster than draining.
    pub(crate) batch_delay: Option<std::time::Duration>,
}

impl MapIndex {
    pub(crate) fn new() -> Self {
        MapIndex {
            disk: Disk::in_memory(DiskConfig::default()),
            entries: BTreeMap::new(),
            batches: Vec::new(),
            singles: 0,
            loaded: false,
            poison: None,
            batch_delay: None,
        }
    }
}

impl IndexRead for MapIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::BTree
    }

    fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    fn lookup(&self, key: Key) -> IndexResult<Option<Value>> {
        Ok(self.entries.get(&key).copied())
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<Entry>) -> IndexResult<usize> {
        out.clear();
        out.extend(self.entries.range(start..).take(count).map(|(&k, &v)| (k, v)));
        Ok(out.len())
    }

    fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    fn stats(&self) -> IndexStats {
        IndexStats { keys: self.entries.len() as u64, height: 1, ..IndexStats::default() }
    }
}

impl IndexWrite for MapIndex {
    fn bulk_load(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if self.loaded {
            return Err(IndexError::AlreadyLoaded);
        }
        validate_bulk_load(entries)?;
        self.entries = entries.iter().copied().collect();
        self.loaded = true;
        Ok(())
    }

    fn insert(&mut self, key: Key, value: Value) -> IndexResult<()> {
        self.singles += 1;
        self.entries.insert(key, value);
        Ok(())
    }

    fn insert_batch(&mut self, entries: &[Entry]) -> IndexResult<()> {
        if let Some(delay) = self.batch_delay {
            std::thread::sleep(delay);
        }
        if let Some(poison) = self.poison {
            if entries.iter().any(|&(k, _)| k == poison) {
                self.poison = None; // fail exactly once, so a retry works
                return Err(IndexError::Internal("poisoned batch".into()));
            }
        }
        self.batches.push(entries.len());
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "drain chunks must arrive sorted and de-duplicated"
        );
        for &(k, v) in entries {
            self.entries.insert(k, v);
        }
        Ok(())
    }

    fn insert_breakdown(&self) -> InsertBreakdown {
        InsertBreakdown::new()
    }
}
