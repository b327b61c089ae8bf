//! The error type shared by all index implementations.

use std::fmt;

use lidx_storage::{BlockId, StorageError};

/// Result alias for index operations.
pub type IndexResult<T> = Result<T, IndexError>;

/// Errors surfaced by index operations.
#[derive(Debug)]
pub enum IndexError {
    /// The underlying storage layer failed.
    Storage(StorageError),
    /// Bulk load was called with keys that are not strictly increasing.
    UnsortedBulkLoad {
        /// Position of the first out-of-order key.
        position: usize,
    },
    /// Bulk load was called on an index that already contains data.
    AlreadyLoaded,
    /// The key being inserted already exists (the evaluation workloads only
    /// insert fresh keys, so indexes may reject duplicates explicitly).
    DuplicateKey(u64),
    /// An operation was attempted before the index was bulk loaded or
    /// initialised.
    NotInitialized,
    /// An internal invariant was violated; indicates a bug or corrupt data.
    Internal(String),
    /// The index does not implement an optional capability (e.g. a design
    /// without a persistence format cannot serve
    /// [`crate::index::IndexWrite::save_meta`]).
    Unsupported(&'static str),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Storage(e) => write!(f, "storage error: {e}"),
            IndexError::UnsortedBulkLoad { position } => {
                write!(
                    f,
                    "bulk load keys must be strictly increasing (violated at position {position})"
                )
            }
            IndexError::AlreadyLoaded => write!(f, "index has already been bulk loaded"),
            IndexError::DuplicateKey(k) => write!(f, "key {k} already exists"),
            IndexError::NotInitialized => write!(f, "index has not been initialised"),
            IndexError::Internal(msg) => write!(f, "internal index error: {msg}"),
            IndexError::Unsupported(op) => write!(f, "operation not supported by this index: {op}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for IndexError {
    fn from(e: StorageError) -> Self {
        IndexError::Storage(e)
    }
}

/// Decodes a block pointer stored wider than a [`BlockId`]. A stored value
/// past `u32::MAX` names no block: it is corrupt data
/// ([`IndexError::Internal`], the error naming the pointer as `what`), never
/// a pointer silently truncated to another block.
#[inline]
pub fn block_pointer(stored: u64, what: &str) -> IndexResult<BlockId> {
    BlockId::try_from(stored)
        .map_err(|_| IndexError::Internal(format!("{what} {stored:#x} is not a block id")))
}

/// Takes one node from a walk's `budget`: how many nodes the walk may load,
/// the tree's node count (each node is loaded at most once) or, for a
/// root-to-leaf walk, its height. The budget only runs out when a child
/// pointer leads back into the walk: that is an error
/// ([`IndexError::Internal`], the error naming the walk as `walk`), not a
/// hang or a stack overflow.
#[inline]
pub fn spend(budget: &mut u64, walk: &str) -> IndexResult<()> {
    *budget = budget.checked_sub(1).ok_or_else(|| {
        IndexError::Internal(format!(
            "{walk} loaded more nodes than its budget allows: a child pointer is cyclic"
        ))
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_pointers_past_the_block_id_range_are_errors() {
        assert_eq!(block_pointer(7, "pointer").unwrap(), 7);
        assert_eq!(block_pointer(u64::from(u32::MAX), "pointer").unwrap(), u32::MAX);
        for stored in [1 << 32, (1 << 32) | 7, u64::MAX] {
            let err = block_pointer(stored, "test pointer").unwrap_err();
            assert!(matches!(&err, IndexError::Internal(m) if m.starts_with("test pointer")));
        }
    }

    #[test]
    fn a_spent_budget_is_an_error() {
        let mut budget = 2;
        spend(&mut budget, "test walk").unwrap();
        spend(&mut budget, "test walk").unwrap();
        let err = spend(&mut budget, "test walk").unwrap_err();
        assert!(matches!(&err, IndexError::Internal(m) if m.starts_with("test walk")));
        assert_eq!(budget, 0);
    }

    #[test]
    fn storage_errors_convert() {
        let e: IndexError = StorageError::UnknownFile(3).into();
        assert!(matches!(e, IndexError::Storage(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("storage error"));
    }

    #[test]
    fn display_covers_all_variants() {
        assert!(IndexError::UnsortedBulkLoad { position: 5 }.to_string().contains('5'));
        assert!(IndexError::AlreadyLoaded.to_string().contains("already"));
        assert!(IndexError::DuplicateKey(9).to_string().contains('9'));
        assert!(IndexError::NotInitialized.to_string().contains("not been initialised"));
        assert!(IndexError::Internal("oops".into()).to_string().contains("oops"));
        assert!(IndexError::Unsupported("save_meta").to_string().contains("save_meta"));
    }
}
