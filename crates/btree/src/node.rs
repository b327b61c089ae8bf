//! On-disk node layouts for the B+-tree.
//!
//! Both node types occupy exactly one block:
//!
//! ```text
//! Inner:  [tag u8][pad u8][count u16][leftmost_child u32]
//!         [ (key u64, child u32) * count ]
//! Leaf:   [tag u8][pad u8][count u16][next u32][prev u32]
//!         [ (key u64, payload u64) * count ]
//! ```
//!
//! An inner node with `count` keys has `count + 1` children; child `i` covers
//! keys `< keys[i]`, the last child covers keys `>= keys[count-1]`.
//!
//! Each layout has two readers. [`InnerView`] / [`LeafView`] borrow the
//! pinned block and binary-search the slot array where it lies: every read
//! path uses them. [`InnerNode`] / [`LeafNode`] own decoded vectors: a node
//! is decoded only where it is about to be mutated and re-encoded.

use lidx_core::{Entry, IndexError, IndexResult, Key, Value};
use lidx_storage::{BlockId, BlockReader, BlockWriter, SlotTable, INVALID_BLOCK};

const TAG_INNER: u8 = 1;
const TAG_LEAF: u8 = 2;

const INNER_HEADER: usize = 1 + 1 + 2 + 4;
const LEAF_HEADER: usize = 1 + 1 + 2 + 4 + 4;
const INNER_ENTRY: usize = 8 + 4;
const LEAF_ENTRY: usize = 8 + 8;

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
        let max_count = usize::from(u16::MAX);
        let inner_keys = ((block_size - INNER_HEADER) / INNER_ENTRY).min(max_count);
        let leaf_entries = ((block_size - LEAF_HEADER) / LEAF_ENTRY).min(max_count);
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
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte field"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte field"))
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

/// A read-only leaf node borrowed from its encoded block.
#[derive(Debug, Clone, Copy)]
pub struct LeafView<'a> {
    next: BlockId,
    prev: BlockId,
    slots: SlotTable<'a, LEAF_ENTRY>,
}

impl<'a> LeafView<'a> {
    /// Validates the header of an encoded leaf — the tag, and that `count`
    /// slots fit `buf` — and borrows its slot array.
    pub fn new(buf: &'a [u8]) -> IndexResult<Self> {
        let head = header::<LEAF_HEADER>(buf, TAG_LEAF, "leaf")?;
        let count = u16::from_le_bytes([head[2], head[3]]);
        let slots = SlotTable::new(buf, LEAF_HEADER, usize::from(count))?;
        Ok(LeafView { next: u32_at(head, 4), prev: u32_at(head, 8), slots })
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

    /// Block id of the previous (left) leaf, or [`INVALID_BLOCK`].
    pub fn prev(&self) -> BlockId {
        self.prev
    }

    /// Entry `i`. Panics if `i >= len()`.
    pub fn entry(&self, i: usize) -> Entry {
        let slot = self.slots.slot(i);
        (u64_at(slot, 0), u64_at(slot, 8))
    }

    /// The entries from index `from` to the end, in key order.
    pub fn entries_from(&self, from: usize) -> impl Iterator<Item = Entry> + 'a {
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

    /// Binary-searches for `key`, returning its payload if present.
    pub fn lookup(&self, key: Key) -> Option<Value> {
        let i = self.lower_bound(key);
        (i < self.len() && self.slots.key(i) == key).then(|| self.entry(i).1)
    }

    /// The entry with the greatest key `<= key`, if any.
    pub fn floor(&self, key: Key) -> Option<Entry> {
        self.slots.partition_point(|k| k <= key).checked_sub(1).map(|i| self.entry(i))
    }
}

/// A leaf node: dense sorted entries plus sibling links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafNode {
    /// Sorted key-payload pairs.
    pub entries: Vec<Entry>,
    /// Block id of the next (right) leaf, or [`INVALID_BLOCK`].
    pub next: BlockId,
    /// Block id of the previous (left) leaf, or [`INVALID_BLOCK`].
    pub prev: BlockId,
}

impl Default for LeafNode {
    fn default() -> Self {
        LeafNode { entries: Vec::new(), next: INVALID_BLOCK, prev: INVALID_BLOCK }
    }
}

impl LeafNode {
    /// Inserts or overwrites `key`. Returns `true` if a new entry was added
    /// (as opposed to an existing payload being overwritten).
    pub fn upsert(&mut self, key: Key, value: Value) -> bool {
        match self.entries.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => {
                self.entries[i].1 = value;
                false
            }
            Err(i) => {
                self.entries.insert(i, (key, value));
                true
            }
        }
    }

    /// Splits off the upper half of the entries into a new leaf, returning
    /// the split key (first key of the new right leaf) and the new leaf.
    pub fn split(&mut self) -> (Key, LeafNode) {
        let mid = self.entries.len() / 2;
        let right_entries = self.entries.split_off(mid);
        let split_key = right_entries[0].0;
        let right = LeafNode { entries: right_entries, next: self.next, prev: INVALID_BLOCK };
        (split_key, right)
    }

    /// Encodes the leaf into a block buffer.
    pub fn encode(&self, block_size: usize) -> IndexResult<Vec<u8>> {
        let mut w = BlockWriter::new(block_size);
        w.put_u8(TAG_LEAF)?;
        w.put_u8(0)?;
        w.put_u16(slot_count(self.entries.len())?)?;
        w.put_u32(self.next)?;
        w.put_u32(self.prev)?;
        for &(k, v) in &self.entries {
            w.put_u64(k)?;
            w.put_u64(v)?;
        }
        Ok(w.finish())
    }

    /// Decodes a leaf node from a block buffer.
    pub fn decode(buf: &[u8]) -> IndexResult<Self> {
        let mut r = BlockReader::new(buf);
        let tag = r.get_u8()?;
        if tag != TAG_LEAF {
            return Err(IndexError::Internal(format!("expected leaf node tag, found {tag}")));
        }
        r.get_u8()?;
        let count = r.get_u16()? as usize;
        let next = r.get_u32()?;
        let prev = r.get_u32()?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let k = r.get_u64()?;
            let v = r.get_u64()?;
            entries.push((k, v));
        }
        Ok(LeafNode { entries, next, prev })
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
        assert!(leaf.upsert(5, 6));
        assert!(leaf.upsert(1, 2));
        assert!(leaf.upsert(9, 10));
        assert!(!leaf.upsert(5, 7), "existing key is overwritten, not duplicated");
        assert_eq!(leaf.entries.iter().map(|e| e.0).collect::<Vec<_>>(), vec![1, 5, 9]);

        leaf.next = 77;
        leaf.prev = 33;
        let buf = leaf.encode(256).unwrap();
        let back = LeafNode::decode(&buf).unwrap();
        assert_eq!(back, leaf);

        let view = LeafView::new(&buf).unwrap();
        assert_eq!(view.lookup(5), Some(7));
        assert_eq!(view.lookup(4), None);
        assert_eq!((view.len(), view.next(), view.prev()), (3, 77, 33));
        assert_eq!(view.floor(4), Some((1, 2)));
        assert_eq!(view.floor(0), None);
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
    fn leaf_split_keeps_order_and_links() {
        let mut leaf =
            LeafNode { entries: (0..10).map(|i| (i, i + 1)).collect(), next: 42, prev: 7 };
        let (split_key, right) = leaf.split();
        assert_eq!(split_key, 5);
        assert_eq!(leaf.entries.len(), 5);
        assert_eq!(right.entries.len(), 5);
        assert_eq!(right.next, 42, "right leaf inherits the old next pointer");
        assert!(leaf.entries.iter().all(|&(k, _)| k < split_key));
        assert!(right.entries.iter().all(|&(k, _)| k >= split_key));
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
