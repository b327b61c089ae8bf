//! On-disk node layouts for the B+-tree.
//!
//! Both node types occupy exactly one block:
//!
//! ```text
//! Inner:  [tag u8][pad u8][count u16][leftmost_child u32]
//!         [ (key u64, child u32) * count ]
//! Leaf:   [tag u8][pad u8][count u16][next u32]
//!         [ record (W bytes, led by its key u64) * count ]
//! ```
//!
//! An inner node with `count` keys has `count + 1` children; child `i` covers
//! keys `< keys[i]`, the last child covers keys `>= keys[count-1]`.
//!
//! A leaf holds fixed-width records of one [`LeafRecord`] type, whose tag
//! the header carries. The B+-tree's are 16-byte `(key, payload)` pairs
//! (tag 2, charged to `Leaf`); the FITing-tree's directory stores its
//! 36-byte segment records in the same layout (tag 3, charged to `Inner`).
//!
//! Each layout has two readers. [`InnerView`] / [`LeafViewOf`] borrow the
//! pinned block and binary-search the slot array where it lies: every read
//! path uses them. [`InnerNode`] / [`LeafNodeOf`] own decoded vectors: a node
//! is decoded only where it is about to be mutated and re-encoded.
//! [`LeafView`] and [`LeafNode`] name the B+-tree's leaves.

use std::marker::PhantomData;

use lidx_core::{entries, Entry, IndexError, IndexResult, Key, Value};
use lidx_storage::{
    bytes_at, BlockId, BlockKind, BlockReader, BlockWriter, SlotTable, INVALID_BLOCK,
};

const TAG_INNER: u8 = 1;

const INNER_HEADER: usize = 1 + 1 + 2 + 4;
/// Bytes of a leaf's header, ahead of its first record.
pub const LEAF_HEADER: usize = 1 + 1 + 2 + 4;
const INNER_ENTRY: usize = 8 + 4;
pub(crate) const LEAF_ENTRY: usize = entries::ENTRY_BYTES;

/// Derived node capacities for a given block size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCapacity {
    /// Maximum number of separator keys in an inner node.
    pub inner_keys: usize,
    /// Maximum number of key-payload pairs in a leaf node.
    pub leaf_entries: usize,
}

impl NodeCapacity {
    /// Computes the capacities for `block_size`.
    ///
    /// Both are capped at `u16::MAX`, the largest count the header's `count`
    /// field can hold (reached by blocks above 1 MiB).
    pub fn for_block_size(block_size: usize) -> Self {
        let inner_keys = ((block_size - INNER_HEADER) / INNER_ENTRY).min(usize::from(u16::MAX));
        let leaf_entries = leaf_capacity::<LEAF_ENTRY>(block_size);
        assert!(inner_keys >= 2 && leaf_entries >= 2, "block size too small for B+-tree nodes");
        NodeCapacity { inner_keys, leaf_entries }
    }
}

/// The header's `count` field for a node of `len` slots.
fn slot_count(len: usize) -> IndexResult<u16> {
    u16::try_from(len)
        .map_err(|_| IndexError::Internal(format!("{len} slots exceed the u16 count field")))
}

/// The fixed `N`-byte header of an encoded node, checked to be there and to
/// carry `tag`.
fn header<'a, const N: usize>(buf: &'a [u8], tag: u8, what: &str) -> IndexResult<&'a [u8; N]> {
    let head: &[u8; N] = buf.get(..N).and_then(|h| h.try_into().ok()).ok_or_else(|| {
        IndexError::Internal(format!("{what} node header beyond block of {} bytes", buf.len()))
    })?;
    if head[0] != tag {
        return Err(IndexError::Internal(format!("expected {what} node tag, found {}", head[0])));
    }
    Ok(head)
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes_at(bytes, at))
}

/// A read-only inner node borrowed from its encoded block.
#[derive(Debug, Clone, Copy)]
pub struct InnerView<'a> {
    leftmost: BlockId,
    slots: SlotTable<'a, INNER_ENTRY>,
}

impl<'a> InnerView<'a> {
    /// Validates the header of an encoded inner node — the tag, and that
    /// `count` slots fit `buf` — and borrows its slot array.
    pub fn new(buf: &'a [u8]) -> IndexResult<Self> {
        let head = header::<INNER_HEADER>(buf, TAG_INNER, "inner")?;
        let count = u16::from_le_bytes([head[2], head[3]]);
        let slots = SlotTable::new(buf, INNER_HEADER, usize::from(count))?;
        Ok(InnerView { leftmost: u32_at(head, 4), slots })
    }

    /// Number of separator keys; the node has one child more.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the node has no separator key (and so a single child).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Separator key `i`. Panics if `i >= len()`.
    pub fn key(&self, i: usize) -> Key {
        self.slots.key(i)
    }

    /// Child block `i`. Panics if `i > len()`.
    pub fn child(&self, i: usize) -> BlockId {
        match i.checked_sub(1) {
            None => self.leftmost,
            Some(slot) => u32_at(self.slots.slot(slot), 8),
        }
    }

    /// Index of the child that covers `key`.
    pub fn child_for(&self, key: Key) -> usize {
        // First separator strictly greater than `key` determines the child.
        self.slots.partition_point(|k| k <= key)
    }
}

/// An inner (routing) node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InnerNode {
    /// Separator keys, strictly increasing.
    pub keys: Vec<Key>,
    /// Child block ids; always `keys.len() + 1` entries once populated.
    pub children: Vec<BlockId>,
}

impl InnerNode {
    /// Index of the child that covers `key`.
    pub fn child_for(&self, key: Key) -> usize {
        // First separator strictly greater than `key` determines the child.
        self.keys.partition_point(|&k| k <= key)
    }

    /// Encodes the node into a block buffer of `block_size` bytes.
    pub fn encode(&self, block_size: usize) -> IndexResult<Vec<u8>> {
        debug_assert_eq!(self.children.len(), self.keys.len() + 1);
        let mut w = BlockWriter::new(block_size);
        w.put_u8(TAG_INNER).map_err(IndexError::from)?;
        w.put_u8(0)?;
        w.put_u16(slot_count(self.keys.len())?)?;
        w.put_u32(self.children[0])?;
        for (i, &k) in self.keys.iter().enumerate() {
            w.put_u64(k)?;
            w.put_u32(self.children[i + 1])?;
        }
        Ok(w.finish())
    }

    /// Decodes an inner node from a block buffer.
    pub fn decode(buf: &[u8]) -> IndexResult<Self> {
        let mut r = BlockReader::new(buf);
        let tag = r.get_u8()?;
        if tag != TAG_INNER {
            return Err(IndexError::Internal(format!("expected inner node tag, found {tag}")));
        }
        r.get_u8()?;
        let count = r.get_u16()? as usize;
        let mut keys = Vec::with_capacity(count);
        let mut children = Vec::with_capacity(count + 1);
        children.push(r.get_u32()?);
        for _ in 0..count {
            keys.push(r.get_u64()?);
            children.push(r.get_u32()?);
        }
        Ok(InnerNode { keys, children })
    }
}

/// A fixed-width leaf record: `W` bytes in a slot, led by its `u64` key.
///
/// `W` is a parameter of the trait rather than an associated constant
/// because it sizes the [`SlotTable`] a [`LeafViewOf`] reads through.
pub trait LeafRecord<const W: usize>: Copy {
    /// The header tag of a leaf of these records; readers refuse any other.
    const TAG: u8;
    /// The block kind a leaf of these records is charged to.
    const KIND: BlockKind;

    /// The record's key, stored little-endian in the slot's first 8 bytes.
    fn key(&self) -> Key;

    /// Writes the record into its slot.
    fn put(&self, slot: &mut [u8; W]);

    /// Reads a record from its slot.
    fn get(slot: &[u8; W]) -> Self;
}

/// The B+-tree's own record, a key and its payload.
impl LeafRecord<LEAF_ENTRY> for Entry {
    const TAG: u8 = 2;
    const KIND: BlockKind = BlockKind::Leaf;

    fn key(&self) -> Key {
        self.0
    }

    fn put(&self, slot: &mut [u8; LEAF_ENTRY]) {
        entries::put(slot, *self);
    }

    fn get(slot: &[u8; LEAF_ENTRY]) -> Self {
        entries::get(slot)
    }
}

/// Most records a leaf of `W`-byte records holds in a `block_size`-byte
/// block, capped at `u16::MAX`, the largest count the header's `count` field
/// can hold (reached by blocks above 1 MiB at 16 bytes a record).
pub(crate) fn leaf_capacity<const W: usize>(block_size: usize) -> usize {
    ((block_size - LEAF_HEADER) / W).min(usize::from(u16::MAX))
}

/// A read-only leaf borrowed from its encoded block.
#[derive(Debug, Clone, Copy)]
pub struct LeafViewOf<'a, R, const W: usize> {
    next: BlockId,
    slots: SlotTable<'a, W>,
    record: PhantomData<R>,
}

/// A B+-tree leaf, read in place.
pub type LeafView<'a> = LeafViewOf<'a, Entry, LEAF_ENTRY>;

impl<'a, R: LeafRecord<W>, const W: usize> LeafViewOf<'a, R, W> {
    /// Validates the header of an encoded leaf — the tag, and that `count`
    /// slots fit `buf` — and borrows its slot array.
    pub fn new(buf: &'a [u8]) -> IndexResult<Self> {
        let head = header::<LEAF_HEADER>(buf, R::TAG, "leaf")?;
        let count = u16::from_le_bytes([head[2], head[3]]);
        let slots = SlotTable::new(buf, LEAF_HEADER, usize::from(count))?;
        Ok(LeafViewOf { next: u32_at(head, 4), slots, record: PhantomData })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the leaf holds no entry.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Block id of the next (right) leaf, or [`INVALID_BLOCK`].
    pub fn next(&self) -> BlockId {
        self.next
    }

    /// Entry `i`. Panics if `i >= len()`.
    pub fn entry(&self, i: usize) -> R {
        R::get(self.slots.slot(i))
    }

    /// The entries from index `from` to the end, in key order.
    pub fn entries_from(&self, from: usize) -> impl Iterator<Item = R> + 'a
    where
        R: 'a,
    {
        let view = *self;
        (from..view.len()).map(move |i| view.entry(i))
    }

    /// The largest stored key, if any.
    pub fn last_key(&self) -> Option<Key> {
        self.len().checked_sub(1).map(|i| self.slots.key(i))
    }

    /// Index of the first entry whose key is `>= key` (`len()` if none).
    pub fn lower_bound(&self, key: Key) -> usize {
        self.slots.partition_point(|k| k < key)
    }

    /// Index of the first entry whose key is `> key` (`len()` if none).
    pub fn upper_bound(&self, key: Key) -> usize {
        self.slots.partition_point(|k| k <= key)
    }
}

impl LeafView<'_> {
    /// Binary-searches for `key`, returning its payload if present.
    pub fn lookup(&self, key: Key) -> Option<Value> {
        let i = self.lower_bound(key);
        (i < self.len() && self.slots.key(i) == key).then(|| self.entry(i).1)
    }
}

/// A leaf decoded to be mutated and re-encoded: sorted records and the
/// link to the next leaf, which scans follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafNodeOf<R, const W: usize> {
    /// Records sorted by key.
    pub entries: Vec<R>,
    /// Block id of the next (right) leaf, or [`INVALID_BLOCK`].
    pub next: BlockId,
}

/// A B+-tree leaf, decoded.
pub type LeafNode = LeafNodeOf<Entry, LEAF_ENTRY>;

impl<R, const W: usize> Default for LeafNodeOf<R, W> {
    fn default() -> Self {
        LeafNodeOf { entries: Vec::new(), next: INVALID_BLOCK }
    }
}

impl<R: LeafRecord<W>, const W: usize> LeafNodeOf<R, W> {
    /// Inserts `record`, or overwrites the one with its key. Returns `true`
    /// if a new record was added.
    pub fn upsert(&mut self, record: R) -> bool {
        match self.entries.binary_search_by_key(&record.key(), R::key) {
            Ok(i) => {
                self.entries[i] = record;
                false
            }
            Err(i) => {
                self.entries.insert(i, record);
                true
            }
        }
    }

    /// Encodes the leaf into a block buffer.
    pub fn encode(&self, block_size: usize) -> IndexResult<Vec<u8>> {
        let mut w = BlockWriter::new(block_size);
        w.put_u8(R::TAG)?;
        w.put_u8(0)?;
        w.put_u16(slot_count(self.entries.len())?)?;
        w.put_u32(self.next)?;
        let mut slot = [0; W];
        for record in &self.entries {
            record.put(&mut slot);
            w.put_bytes(&slot)?;
        }
        Ok(w.finish())
    }

    /// Decodes a leaf from a block buffer.
    pub fn decode(buf: &[u8]) -> IndexResult<Self> {
        let mut r = BlockReader::new(buf);
        let tag = r.get_u8()?;
        if tag != R::TAG {
            return Err(IndexError::Internal(format!("expected leaf node tag, found {tag}")));
        }
        r.get_u8()?;
        let count = r.get_u16()?;
        let next = r.get_u32()?;
        let mut entries = Vec::with_capacity(usize::from(count));
        for _ in 0..count {
            entries.push(R::get(&bytes_at(r.get_bytes(W)?, 0)));
        }
        Ok(LeafNodeOf { entries, next })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_scale_with_block_size() {
        let c4k = NodeCapacity::for_block_size(4096);
        let c16k = NodeCapacity::for_block_size(16 * 1024);
        assert!(c4k.leaf_entries >= 250 && c4k.leaf_entries <= 256);
        assert!(c4k.inner_keys >= 300);
        assert!(c16k.leaf_entries > 4 * c4k.leaf_entries - 8);
    }

    #[test]
    fn inner_node_roundtrip_and_routing() {
        let node = InnerNode { keys: vec![10, 20, 30], children: vec![100, 101, 102, 103] };
        let buf = node.encode(256).unwrap();
        let back = InnerNode::decode(&buf).unwrap();
        assert_eq!(back, node);
        assert_eq!(node.child_for(5), 0);
        assert_eq!(node.child_for(10), 1, "separator keys route to the right child");
        assert_eq!(node.child_for(19), 1);
        assert_eq!(node.child_for(20), 2);
        assert_eq!(node.child_for(1000), 3);

        let view = InnerView::new(&buf).unwrap();
        assert_eq!(view.len(), 3);
        for probe in [5, 10, 19, 20, 1000] {
            assert_eq!(view.child_for(probe), node.child_for(probe));
        }
        assert_eq!((0..=3).map(|i| view.child(i)).collect::<Vec<_>>(), node.children);
        assert_eq!(view.key(2), 30);
    }

    #[test]
    fn leaf_node_roundtrip_lookup_and_upsert() {
        let mut leaf = LeafNode::default();
        assert!(leaf.upsert((5, 6)));
        assert!(leaf.upsert((1, 2)));
        assert!(leaf.upsert((9, 10)));
        assert!(!leaf.upsert((5, 7)), "existing key is overwritten, not duplicated");
        assert_eq!(leaf.entries.iter().map(|e| e.0).collect::<Vec<_>>(), vec![1, 5, 9]);

        leaf.next = 77;
        let buf = leaf.encode(256).unwrap();
        let back = LeafNode::decode(&buf).unwrap();
        assert_eq!(back, leaf);

        let view = LeafView::new(&buf).unwrap();
        assert_eq!(view.lookup(5), Some(7));
        assert_eq!(view.lookup(4), None);
        assert_eq!((view.len(), view.next()), (3, 77));
        assert_eq!(view.entries_from(1).collect::<Vec<_>>(), vec![(5, 7), (9, 10)]);
    }

    #[test]
    fn capacities_fit_the_u16_count_field() {
        let c = NodeCapacity::for_block_size(2 << 20);
        assert_eq!((c.inner_keys, c.leaf_entries), (65_535, 65_535));
        let full =
            LeafNode { entries: (0..65_536).map(|k| (k, k)).collect(), ..LeafNode::default() };
        assert!(full.encode(2 << 20).is_err(), "a count past u16 is refused, not truncated");
    }

    #[test]
    fn decode_rejects_wrong_tags() {
        let leaf = LeafNode::default().encode(128).unwrap();
        assert!(InnerNode::decode(&leaf).is_err());
        let inner = InnerNode { keys: vec![1], children: vec![0, 1] }.encode(128).unwrap();
        assert!(LeafNode::decode(&inner).is_err());
        assert!(InnerView::new(&leaf).is_err());
        assert!(LeafView::new(&inner).is_err());
    }
}
