//! The on-disk LIPP node format.
//!
//! A node occupies a contiguous extent:
//!
//! ```text
//! block 0   : header (48 bytes: model, capacity, counters, statistics),
//!             then slots 0..H, H = (block_size - 48) / 24 (168 at 4 KiB)
//! blocks 1..: slots H.., block_size / 24 per block (170 at 4 KiB)
//! slot      : 24 bytes, [type u64][key u64][payload-or-child u64]
//! ```
//!
//! A node of at most H slots — every small conflict child — is one block,
//! and a lookup whose predicted slot is among the first H reads one block at
//! that level. The slot type is stored inline (the paper's replacement for
//! ALEX's bitmap), so one block read yields both the type and the content of
//! a slot. A `DATA` slot's key word is its key; a `NODE` slot's is the
//! smallest key its child was built over, so a floor search can skip a child
//! that starts above the search key without loading it.
//!
//! Two designs run on this node. [`LippIndex`](crate::LippIndex) charges its
//! blocks to [`BlockKind::Leaf`]; the model-tree hybrid's directory (Table 5's
//! ALEX/LIPP column) charges them to [`BlockKind::Inner`]. A handle carries
//! the kind it was loaded or written with, and every read and write through
//! it, and every child a subtree walk loads from it, is charged to that
//! kind. [`build_subtree`] is the one bulk build of both, and
//! [`Subtree::floor`] the directory's routing.
//!
//! A [`LippNode`] handle keeps the block-0 frame it was loaded from or last
//! wrote. Its slots in block 0 are read from that frame, and a header write
//! patches the frame's first 48 bytes, so it costs one block write and no
//! read.

use lidx_core::{block_pointer, spend, Entry, IndexError, IndexResult, Key, Value};
use lidx_models::fmcd::fit_fmcd;
use lidx_models::LinearModel;
use lidx_storage::{bytes_at, BlockCursor, BlockId, BlockKind, BlockRef, BlockWriter, Disk};

/// Size of one slot in bytes.
pub const SLOT_BYTES: usize = 24;

/// Bytes of block 0 the header reserves; the first slots follow it.
pub const HEADER_BYTES: usize = 48;

const TAG_NODE: u8 = 0x71;

const SLOT_NULL: u64 = 0;
const SLOT_DATA: u64 = 1;
const SLOT_CHILD: u64 = 2;

/// The contents of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The slot is empty.
    Null,
    /// The slot stores a key-payload pair.
    Data(Key, Value),
    /// The slot points at a child node: the smallest key the child was
    /// built over, and the start block of its extent.
    Child(Key, BlockId),
}

/// Encodes `slot` into the 24 bytes of `buf` at `off`.
fn put_slot(buf: &mut [u8], off: usize, slot: Slot) {
    let words = match slot {
        Slot::Null => [SLOT_NULL, 0, 0],
        Slot::Data(k, v) => [SLOT_DATA, k, v],
        Slot::Child(k, b) => [SLOT_CHILD, k, u64::from(b)],
    };
    for (bytes, word) in buf[off..off + SLOT_BYTES].chunks_exact_mut(8).zip(words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
}

/// Decodes the slot stored in the 24 bytes of `buf` at `off`.
fn get_slot(buf: &[u8], off: usize) -> IndexResult<Slot> {
    let slot = buf.get(off..off + SLOT_BYTES).ok_or_else(|| {
        IndexError::Internal(format!("LIPP slot at byte {off} of a {}-byte block", buf.len()))
    })?;
    let u64_at = |at| u64::from_le_bytes(bytes_at(slot, at));
    let (tag, key, word) = (u64_at(0), u64_at(8), u64_at(16));
    match tag {
        SLOT_NULL => Ok(Slot::Null),
        SLOT_DATA => Ok(Slot::Data(key, word)),
        SLOT_CHILD => Ok(Slot::Child(key, block_pointer(word, "LIPP child pointer")?)),
        other => Err(IndexError::Internal(format!("invalid LIPP slot tag {other}"))),
    }
}

/// The persistent header of a LIPP node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LippHeader {
    /// Number of slots.
    pub capacity: u32,
    /// Number of `DATA` slots.
    pub data_count: u32,
    /// Number of `NODE` slots.
    pub child_count: u32,
    /// The FMCD-selected linear model mapping keys to slots.
    pub model: LinearModel,
    /// Number of keys the node (subtree) was built from.
    pub build_size: u32,
    /// Inserts routed through this node since it was built.
    pub num_inserts: u32,
    /// Inserts that hit an occupied slot (conflicts) since the node was
    /// built — the trigger for subtree rebuilds.
    pub num_conflicts: u32,
}

impl LippHeader {
    /// Encodes the header into its [`HEADER_BYTES`] at the front of block 0.
    fn encode(&self) -> IndexResult<Vec<u8>> {
        let mut w = BlockWriter::new(HEADER_BYTES);
        w.put_u8(TAG_NODE)?;
        w.put_u8(0)?;
        w.put_u16(0)?;
        w.put_u32(self.capacity)?;
        w.put_u32(self.data_count)?;
        w.put_u32(self.child_count)?;
        w.put_f64(self.model.slope)?;
        w.put_f64(self.model.intercept)?;
        w.put_u32(self.build_size)?;
        w.put_u32(self.num_inserts)?;
        w.put_u32(self.num_conflicts)?;
        Ok(w.finish())
    }

    /// Decodes the header from the front of block 0: one length check, then
    /// each field at the offset [`LippHeader::encode`] writes it to.
    fn decode(buf: &[u8]) -> IndexResult<Self> {
        let h = buf.get(..HEADER_BYTES).ok_or_else(|| {
            IndexError::Internal(format!("a LIPP header in a block of {} bytes", buf.len()))
        })?;
        if h[0] != TAG_NODE {
            return Err(IndexError::Internal(format!("expected LIPP node tag, got {:#x}", h[0])));
        }
        let u32_at = |at| u32::from_le_bytes(bytes_at(h, at));
        let f64_at = |at| f64::from_le_bytes(bytes_at(h, at));
        Ok(LippHeader {
            capacity: u32_at(4),
            data_count: u32_at(8),
            child_count: u32_at(12),
            model: LinearModel::new(f64_at(16), f64_at(24)),
            build_size: u32_at(32),
            num_inserts: u32_at(36),
            num_conflicts: u32_at(40),
        })
    }
}

/// A handle to one on-disk LIPP node.
#[derive(Debug, Clone)]
pub struct LippNode {
    /// File holding the node.
    pub file: u32,
    /// First block of the extent.
    pub start: BlockId,
    /// The block kind the node's reads and writes are charged to.
    pub kind: BlockKind,
    /// The decoded header.
    pub header: LippHeader,
    /// Block 0 as this handle loaded or last wrote it: the header bytes
    /// (behind [`LippNode::header`] between a statistics bump and its
    /// [`LippNode::write_header`]) and the first [`head_slots`] slots.
    block0: BlockRef,
}

/// Number of slots per block after block 0 for a given block size.
pub fn slots_per_block(block_size: usize) -> usize {
    block_size / SLOT_BYTES
}

/// Number of slots that share block 0 with the header.
pub fn head_slots(block_size: usize) -> usize {
    (block_size - HEADER_BYTES) / SLOT_BYTES
}

/// Total blocks of a node extent with `capacity` slots: one while the
/// slots fit beside the header.
pub fn blocks_for(capacity: u32, block_size: usize) -> u32 {
    let rest = (capacity as usize).saturating_sub(head_slots(block_size));
    1 + rest.div_ceil(slots_per_block(block_size)) as u32
}

impl LippNode {
    /// Reads the node at `start` (block 0: its header and first slots, one
    /// block read of `kind`) through the operation's cursor: scan-class
    /// through a scan's cursor.
    pub fn load(
        cursor: &mut BlockCursor<'_>,
        file: u32,
        start: BlockId,
        kind: BlockKind,
    ) -> IndexResult<Self> {
        let frame = cursor.read(file, start, kind)?;
        Self::from_frame(file, start, kind, frame.clone())
    }

    /// Builds a handle from an already-fetched block 0 (e.g. one delivered
    /// by a read-queue completion wave), avoiding a second read.
    pub fn from_frame(
        file: u32,
        start: BlockId,
        kind: BlockKind,
        block0: BlockRef,
    ) -> IndexResult<Self> {
        Ok(LippNode { file, start, kind, header: LippHeader::decode(&block0)?, block0 })
    }

    /// Total blocks of the node's extent.
    pub fn total_blocks(&self, block_size: usize) -> u32 {
        blocks_for(self.header.capacity, block_size)
    }

    /// Persists the header through the operation's cursor: one block write
    /// of block 0 with the header bytes patched into the handle's frame, so
    /// the slots that share the block are kept and nothing is read.
    pub fn write_header(&mut self, cursor: &mut BlockCursor<'_>) -> IndexResult<()> {
        let mut buf = self.block0.to_vec();
        buf[..HEADER_BYTES].copy_from_slice(&self.header.encode()?);
        cursor.write(self.file, self.start, self.kind, &buf)?;
        self.block0 = BlockRef::from_vec(buf);
        Ok(())
    }

    /// Slot the model assigns to `key`.
    pub fn predict(&self, key: Key) -> u32 {
        self.header.model.predict_clamped(key, self.header.capacity as usize) as u32
    }

    fn slot_location(&self, slot: u32, block_size: usize) -> (BlockId, usize) {
        let head = head_slots(block_size) as u32;
        match slot.checked_sub(head) {
            None => (self.start, HEADER_BYTES + slot as usize * SLOT_BYTES),
            Some(rest) => {
                let per_block = slots_per_block(block_size) as u32;
                (self.start + 1 + rest / per_block, (rest % per_block) as usize * SLOT_BYTES)
            }
        }
    }

    /// Absolute block id holding `slot` — the prefetch target for batched
    /// lookups that wave a whole level's slot fetches at once. A slot in
    /// block 0 is already in the handle's frame.
    pub fn slot_block_id(&self, slot: u32, block_size: usize) -> BlockId {
        self.slot_location(slot, block_size).0
    }

    /// Reads one slot: from the handle's frame when it is in block 0,
    /// otherwise through the operation's cursor, so the slots a walk reads
    /// in one block cost one disk read.
    pub fn read_slot(&self, cursor: &mut BlockCursor<'_>, slot: u32) -> IndexResult<Slot> {
        let (block, off) = self.slot_location(slot, cursor.disk().block_size());
        if block == self.start {
            return get_slot(&self.block0, off);
        }
        get_slot(cursor.read(self.file, block, self.kind)?, off)
    }

    /// Writes one slot through the operation's cursor: a read-modify-write
    /// of its block, whose read is the handle's frame in block 0 (which the
    /// write then refreshes).
    pub fn write_slot(
        &mut self,
        cursor: &mut BlockCursor<'_>,
        slot: u32,
        value: Slot,
    ) -> IndexResult<()> {
        let (block, off) = self.slot_location(slot, cursor.disk().block_size());
        let mut buf = if block == self.start {
            self.block0.to_vec()
        } else {
            cursor.read(self.file, block, self.kind)?.to_vec()
        };
        put_slot(&mut buf, off, value);
        cursor.write(self.file, block, self.kind, &buf)?;
        if block == self.start {
            self.block0 = BlockRef::from_vec(buf);
        }
        Ok(())
    }

    /// Writes a node of `slots.len()` slots with the given FMCD model into
    /// the extent at `start`, charged to `kind`. Conflicting keys are *not*
    /// handled here — [`build_subtree`] groups keys per slot and builds
    /// child nodes; this function receives the final per-slot assignment.
    pub fn write_new(
        disk: &Disk,
        file: u32,
        start: BlockId,
        kind: BlockKind,
        model: LinearModel,
        slots: &[Slot],
        build_size: u32,
    ) -> IndexResult<LippNode> {
        let capacity = slots.len() as u32;
        let bs = disk.block_size();
        let mut data_count = 0;
        let mut child_count = 0;
        for s in slots {
            match s {
                Slot::Data(..) => data_count += 1,
                Slot::Child(..) => child_count += 1,
                Slot::Null => {}
            }
        }
        let header = LippHeader {
            capacity,
            data_count,
            child_count,
            model,
            build_size,
            num_inserts: 0,
            num_conflicts: 0,
        };
        // The slots past block 0 first, then block 0 with the header.
        let (head, rest) = slots.split_at(head_slots(bs).min(slots.len()));
        let mut buf = vec![0u8; bs];
        for (b, chunk) in (1..).zip(rest.chunks(slots_per_block(bs))) {
            buf.fill(0);
            for (i, &s) in chunk.iter().enumerate() {
                put_slot(&mut buf, i * SLOT_BYTES, s);
            }
            disk.write(file, start + b, kind, &buf)?;
        }
        buf.fill(0);
        buf[..HEADER_BYTES].copy_from_slice(&header.encode()?);
        for (i, &s) in head.iter().enumerate() {
            put_slot(&mut buf, HEADER_BYTES + i * SLOT_BYTES, s);
        }
        disk.write(file, start, kind, &buf)?;
        Ok(LippNode { file, start, kind, header, block0: BlockRef::from_vec(buf) })
    }

    /// Walks this node's subtree depth first in slot order: `data` sees
    /// each stored entry, in key order, and `done` each node once its
    /// subtree is walked (children before their parent). Children are
    /// loaded through `cursor` with this node's block kind. Each node on the
    /// path keeps the frame of the block it read its last slot from, so a
    /// return from a child reads nothing again: the walk reads each block
    /// of the subtree at most once, and this node's block 0 not at all. The
    /// walk may load `budget` nodes, the tree's node count (see
    /// [`lidx_core::spend`]), and keeps its path on the heap, so a cyclic
    /// child pointer is an error, neither a hang nor a stack overflow.
    pub(crate) fn walk_subtree(
        &self,
        cursor: &mut BlockCursor<'_>,
        mut budget: u64,
        mut data: impl FnMut(Entry),
        mut done: impl FnMut(&mut BlockCursor<'_>, &LippNode),
    ) -> IndexResult<()> {
        let bs = cursor.disk().block_size();
        // Each node on the path with the next slot to read and the block
        // (with its frame) that the walk read last in this node.
        let mut path = vec![(self.clone(), 0u32, self.start, self.block0.clone())];
        while let Some((node, slot, held, frame)) = path.last_mut() {
            if *slot == node.header.capacity {
                let (node, ..) = path.pop().expect("the path is not empty");
                done(cursor, &node);
                continue;
            }
            let (block, off) = node.slot_location(*slot, bs);
            if block != *held {
                *frame = cursor.read(node.file, block, node.kind)?.clone();
                *held = block;
            }
            let read = get_slot(frame, off)?;
            *slot += 1;
            match read {
                Slot::Null => {}
                Slot::Data(k, v) => data((k, v)),
                Slot::Child(_, block) => {
                    spend(&mut budget, "LIPP walk")?;
                    let child = LippNode::load(cursor, node.file, block, node.kind)?;
                    let frame = child.block0.clone();
                    path.push((child, 0, block, frame));
                }
            }
        }
        Ok(())
    }
}

/// Returns `(entry, entry)` slot groupings: entries that map to the same slot
/// under `model` are grouped together, in slot order.
pub fn group_by_slot(
    entries: &[Entry],
    model: &LinearModel,
    capacity: u32,
) -> Vec<(u32, Vec<Entry>)> {
    let mut groups: Vec<(u32, Vec<Entry>)> = Vec::new();
    for &e in entries {
        let slot = model.predict_clamped(e.0, capacity as usize) as u32;
        match groups.last_mut() {
            Some((s, g)) if *s == slot => g.push(e),
            _ => groups.push((slot, vec![e])),
        }
    }
    groups
}

/// What [`build_subtree`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subtree {
    /// Start block of the root node's extent.
    pub root: BlockId,
    /// Number of nodes written.
    pub nodes: u64,
    /// Levels of the subtree: 1 for a node without children.
    pub depth: u32,
}

/// What a payload read as a block pointer by [`Subtree::floor`] is called in
/// errors.
const FLOOR_POINTER: &str = "subtree floor block pointer";

impl Subtree {
    /// Floor lookup in a subtree of `file` whose payloads are block pointers
    /// (the model-tree hybrid's directory): the pointer stored with the
    /// greatest key `<= key`, or `None` when `key` precedes every stored
    /// key. Every node is loaded through the operation's `cursor` as
    /// `kind`, so a batch that routes several keys re-reads nothing.
    ///
    /// Walks from the predicted slot leftwards to the first key `<= key`,
    /// descending into a child whose first key is `<= key` (the "walk to
    /// the next occupied slot" cost the paper notes for LIPP-style nodes
    /// without separate data/inner types). Such a child holds the floor:
    /// the model is monotone, so the walk from its predicted slot reaches
    /// its first key, and a child that yields none is a damaged subtree.
    /// Each node the walk loads spends one unit of a budget seeded from the
    /// node count ([`spend`]), so a cyclic child pointer is an error, not a
    /// hang. A payload past the block-id range is [`IndexError::Internal`].
    pub fn floor(
        &self,
        cursor: &mut BlockCursor<'_>,
        file: u32,
        kind: BlockKind,
        key: Key,
    ) -> IndexResult<Option<BlockId>> {
        let mut budget = self.nodes;
        let mut visit = |cursor: &mut BlockCursor<'_>, block| {
            spend(&mut budget, "model-tree search")?;
            LippNode::load(cursor, file, block, kind)
        };
        let mut node = visit(cursor, self.root)?;
        // The slots of `node` left to read, from the predicted one down.
        let mut left = node.predict(key) + 1;
        while let Some(slot) = left.checked_sub(1) {
            left = slot;
            match node.read_slot(cursor, slot)? {
                Slot::Data(stored, pointer) if stored <= key => {
                    return block_pointer(pointer, FLOOR_POINTER).map(Some);
                }
                Slot::Child(first, child) if first <= key => {
                    node = visit(cursor, child)?;
                    left = node.predict(key) + 1;
                }
                _ => {}
            }
        }
        if node.start != self.root {
            return Err(IndexError::Internal(format!(
                "model-tree node {} holds no key <= {key}",
                node.start
            )));
        }
        Ok(None)
    }

    /// Every entry of the subtree in `file`, in key order: one walk from the
    /// root, loaded as `kind`, that reads each block of the subtree once and
    /// may load [`Subtree::nodes`] nodes, so a cyclic child pointer is an
    /// error.
    pub fn entries(
        &self,
        cursor: &mut BlockCursor<'_>,
        file: u32,
        kind: BlockKind,
    ) -> IndexResult<Vec<Entry>> {
        let root = LippNode::load(cursor, file, self.root, kind)?;
        let mut out = Vec::new();
        root.walk_subtree(cursor, self.nodes, |e| out.push(e), |_, _| {})?;
        Ok(out)
    }
}

/// Builds a subtree over `entries` (sorted, strictly increasing) into
/// `file`, charged to `kind`. Each node gets `capacity(n)` slots for its `n`
/// entries and an FMCD model over their keys; a slot that one entry maps to
/// holds it, and a slot that several map to holds a child built over them,
/// keyed by the first. Children are allocated and written before their
/// parent, in slot order.
pub fn build_subtree(
    disk: &Disk,
    file: u32,
    kind: BlockKind,
    entries: &[Entry],
    capacity: &dyn Fn(usize) -> u32,
) -> IndexResult<Subtree> {
    let slot_count = capacity(entries.len());
    let keys: Vec<Key> = entries.iter().map(|e| e.0).collect();
    let model = fit_fmcd(&keys, slot_count as usize).model;
    let mut slots = vec![Slot::Null; slot_count as usize];
    let (mut nodes, mut depth) = (1, 1);
    for (slot, group) in group_by_slot(entries, &model, slot_count) {
        slots[slot as usize] = match group[..] {
            [(k, v)] => Slot::Data(k, v),
            _ => {
                let child = build_subtree(disk, file, kind, &group, capacity)?;
                nodes += child.nodes;
                depth = depth.max(child.depth + 1);
                Slot::Child(group[0].0, child.root)
            }
        };
    }
    let root = disk.allocate(file, blocks_for(slot_count, disk.block_size()))?;
    LippNode::write_new(disk, file, root, kind, model, &slots, entries.len() as u32)?;
    Ok(Subtree { root, nodes, depth })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_storage::DiskConfig;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn disk() -> Arc<Disk> {
        Disk::in_memory(DiskConfig::with_block_size(512))
    }

    #[test]
    fn slot_encoding_roundtrips() {
        let mut buf = [0xFFu8; 2 * SLOT_BYTES];
        for s in [Slot::Null, Slot::Data(5, 6), Slot::Child(0, 1234), Slot::Child(77, 1234)] {
            put_slot(&mut buf, SLOT_BYTES, s);
            assert_eq!(get_slot(&buf, SLOT_BYTES).unwrap(), s);
        }
        assert!(get_slot(&buf, 0).is_err(), "tag 0xFF..FF is no slot type");
        assert!(get_slot(&buf, SLOT_BYTES + 1).is_err(), "a slot past the block's end");
    }

    #[test]
    fn header_decoding_roundtrips_and_refuses_short_or_untagged_bytes() {
        let header = LippHeader {
            capacity: 70,
            data_count: 3,
            child_count: 2,
            model: LinearModel::new(0.25, -1.5),
            build_size: 7,
            num_inserts: 11,
            num_conflicts: 5,
        };
        let bytes = header.encode().unwrap();
        assert_eq!(LippHeader::decode(&bytes).unwrap(), header);
        for len in 0..HEADER_BYTES {
            assert!(LippHeader::decode(&bytes[..len]).is_err(), "{len} bytes");
        }
        let mut untagged = bytes.clone();
        untagged[0] ^= 1;
        assert!(LippHeader::decode(&untagged).is_err());
    }

    #[test]
    fn a_child_pointer_beyond_the_block_id_range_is_an_error() {
        let d = disk();
        let file = d.create_file().unwrap();
        let capacity = 8u32;
        let start = d.allocate(file, blocks_for(capacity, 512)).unwrap();
        let mut slots = vec![Slot::Null; capacity as usize];
        slots[2] = Slot::Child(20, 99);
        let model = LinearModel::new(0.1, 0.0);
        let node = LippNode::write_new(&d, file, start, BlockKind::Leaf, model, &slots, 1).unwrap();
        // Forge the child pointer's high half: truncated to 32 bits it would
        // still name block 99. The handle holds block 0 as it wrote it, so
        // the forged block is read through a fresh one.
        let (block, off) = node.slot_location(2, 512);
        let mut buf = d.cursor().read(file, block, BlockKind::Leaf).unwrap().to_vec();
        buf[off + 16..off + 24].copy_from_slice(&((1u64 << 32) | 99).to_le_bytes());
        d.write(file, block, BlockKind::Leaf, &buf).unwrap();
        let mut cursor = d.cursor();
        let forged = LippNode::load(&mut cursor, file, start, BlockKind::Leaf).unwrap();
        let read = forged.read_slot(&mut cursor, 2);
        assert!(matches!(read, Err(IndexError::Internal(_))), "{read:?}");
    }

    #[test]
    fn node_write_read_slots_and_header() {
        let d = disk();
        let file = d.create_file().unwrap();
        let capacity = 64u32;
        let start = d.allocate(file, blocks_for(capacity, 512)).unwrap();
        let mut slots = vec![Slot::Null; capacity as usize];
        slots[3] = Slot::Data(30, 31);
        slots[10] = Slot::Child(100, 99);
        slots[63] = Slot::Data(630, 631);
        let model = LinearModel::new(0.1, 0.0);
        let node = LippNode::write_new(&d, file, start, BlockKind::Leaf, model, &slots, 3).unwrap();
        assert_eq!(node.header.data_count, 2);
        assert_eq!(node.header.child_count, 1);

        let mut cursor = d.cursor();
        let mut reloaded = LippNode::load(&mut cursor, file, start, BlockKind::Leaf).unwrap();
        assert_eq!(reloaded.header, node.header);
        let mut read = |slot| reloaded.read_slot(&mut cursor, slot).unwrap();
        assert_eq!(read(3), Slot::Data(30, 31));
        assert_eq!(read(10), Slot::Child(100, 99));
        assert_eq!(read(4), Slot::Null);

        reloaded.write_slot(&mut cursor, 4, Slot::Data(40, 41)).unwrap();
        let mut read = |slot| reloaded.read_slot(&mut cursor, slot).unwrap();
        assert_eq!(read(4), Slot::Data(40, 41));
        assert_eq!(read(3), Slot::Data(30, 31));
    }

    #[test]
    fn predict_uses_the_model() {
        let d = disk();
        let file = d.create_file().unwrap();
        let capacity = 100u32;
        let start = d.allocate(file, blocks_for(capacity, 512)).unwrap();
        let model = LinearModel::new(0.01, 0.0); // keys 0..10_000 -> slots 0..100
        let slots = vec![Slot::Null; capacity as usize];
        let node = LippNode::write_new(&d, file, start, BlockKind::Leaf, model, &slots, 0).unwrap();
        assert_eq!(node.predict(0), 0);
        assert_eq!(node.predict(5_000), 50);
        assert_eq!(node.predict(1_000_000), 99);
    }

    #[test]
    fn group_by_slot_groups_conflicting_keys() {
        let entries: Vec<Entry> = vec![(1, 1), (2, 2), (3, 3), (100, 4), (101, 5)];
        let model = LinearModel::new(0.05, 0.0); // 1,2,3 -> slot 0; 100,101 -> slot 5
        let groups = group_by_slot(&entries, &model, 10);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, 0);
        assert_eq!(groups[0].1.len(), 3);
        assert_eq!(groups[1].0, 5);
        assert_eq!(groups[1].1.len(), 2);
    }

    #[test]
    fn one_walk_collects_and_frees_a_subtree() {
        let d = disk();
        let file = d.create_file().unwrap();
        // Child node with two entries.
        let child_cap = 8u32;
        let child_start = d.allocate(file, blocks_for(child_cap, 512)).unwrap();
        let mut child_slots = vec![Slot::Null; child_cap as usize];
        child_slots[1] = Slot::Data(10, 100);
        child_slots[6] = Slot::Data(20, 200);
        let child_model = LinearModel::new(0.5, -4.0);
        LippNode::write_new(&d, file, child_start, BlockKind::Leaf, child_model, &child_slots, 2)
            .unwrap();
        // Parent referencing the child between two data slots.
        let cap = 8u32;
        let start = d.allocate(file, blocks_for(cap, 512)).unwrap();
        let mut slots = vec![Slot::Null; cap as usize];
        slots[0] = Slot::Data(5, 50);
        slots[2] = Slot::Child(10, child_start);
        slots[5] = Slot::Data(30, 300);
        let model = LinearModel::new(0.1, 0.0);
        let parent =
            LippNode::write_new(&d, file, start, BlockKind::Leaf, model, &slots, 4).unwrap();

        // One walk collects the entries and frees each node after its slots.
        let mut out = Vec::new();
        let before_freed = d.stats().freed_blocks();
        let free = |cursor: &mut BlockCursor<'_>, node: &LippNode| {
            cursor.free(node.file, node.start, node.total_blocks(512));
        };
        parent.walk_subtree(&mut d.cursor(), 2, |e| out.push(e), free).unwrap();
        assert_eq!(out, vec![(5, 50), (10, 100), (20, 200), (30, 300)]);
        let freed = d.stats().freed_blocks() - before_freed;
        assert_eq!(
            freed,
            u64::from(blocks_for(child_cap, 512) + blocks_for(cap, 512)),
            "both extents must be freed"
        );
    }

    #[test]
    fn a_subtree_is_charged_to_its_block_kind_and_keys_its_children() {
        let d = disk();
        let file = d.create_file().unwrap();
        // Runs of adjacent keys far apart: the runs conflict, so the root
        // has children.
        let entries: Vec<Entry> = (0..20u64)
            .flat_map(|run| (0..6).map(move |i| (run * 1_000_000 + i, run + i)))
            .collect();
        let built = build_subtree(&d, file, BlockKind::Inner, &entries, &|n| (n * 2).max(8) as u32)
            .unwrap();
        assert!(built.nodes > 1 && built.depth > 1, "{built:?}");
        assert_eq!(d.stats().writes_of(BlockKind::Leaf), 0);

        d.stats().reset();
        let mut cursor = d.cursor();
        let root = LippNode::load(&mut cursor, file, built.root, BlockKind::Inner).unwrap();
        let mut out = Vec::new();
        root.walk_subtree(&mut cursor, built.nodes, |e| out.push(e), |_, _| {}).unwrap();
        assert_eq!(out, entries);
        assert!(d.stats().reads_of(BlockKind::Inner) >= built.nodes);
        assert_eq!(d.stats().reads_of(BlockKind::Leaf), 0, "children inherit the kind");

        // Every child slot carries the first key its child holds.
        let mut children = 0;
        for slot in 0..root.header.capacity {
            if let Slot::Child(first, block) = root.read_slot(&mut cursor, slot).unwrap() {
                let child = LippNode::load(&mut cursor, file, block, BlockKind::Inner).unwrap();
                let mut held = Vec::new();
                child.walk_subtree(&mut cursor, built.nodes, |e| held.push(e), |_, _| {}).unwrap();
                assert_eq!(first, held[0].0);
                children += 1;
            }
        }
        assert_eq!(children, root.header.child_count);
    }

    /// A subtree over `(key, block)` entries as the model-tree hybrid builds
    /// its directory: two slots per entry, charged to `Inner`.
    fn directory(d: &Disk, file: u32, entries: &[Entry]) -> Subtree {
        let capacity = |n: usize| n.saturating_mul(2).clamp(8, 1 << 20) as u32;
        build_subtree(d, file, BlockKind::Inner, entries, &capacity).unwrap()
    }

    /// `n` keys `stride` apart from 5, each with a block pointer from 100.
    fn spaced(n: u64, stride: u64) -> Vec<Entry> {
        (0..n).map(|i| (i * stride + 5, i + 100)).collect()
    }

    /// The floor of `key` among `entries`, as a block.
    fn floor_of(entries: &[Entry], key: Key) -> Option<BlockId> {
        let i = entries.partition_point(|e| e.0 <= key).checked_sub(1)?;
        Some(entries[i].1 as BlockId)
    }

    fn check_floor(d: &Disk, file: u32, tree: &Subtree, entries: &[Entry]) {
        let find = |key| tree.floor(&mut d.cursor(), file, BlockKind::Inner, key).unwrap();
        // Exact keys route to their own block.
        for &(k, _) in entries.iter().step_by(13) {
            assert_eq!(find(k), floor_of(entries, k), "key {k}");
        }
        // Keys between two stored keys route to the lower one's block.
        for w in entries.windows(2).step_by(17) {
            let probe = w[0].0 + (w[1].0 - w[0].0) / 2;
            assert_eq!(find(probe), Some(w[0].1 as BlockId), "probe {probe}");
        }
        // Keys beyond the last key route to the last block; keys before the
        // first have no floor.
        assert_eq!(find(Key::MAX), floor_of(entries, Key::MAX));
        assert_eq!(find(entries[0].0 - 1), None);
    }

    #[test]
    fn floor_over_evenly_spaced_keys() {
        let d = disk();
        let file = d.create_file().unwrap();
        let entries = spaced(5_000, 37);
        let tree = directory(&d, file, &entries);
        assert!(tree.nodes >= 1);
        check_floor(&d, file, &tree, &entries);
    }

    #[test]
    fn floor_over_clustered_keys() {
        let d = disk();
        let file = d.create_file().unwrap();
        let mut entries: Vec<Entry> = Vec::new();
        for c in 0..50u64 {
            for i in 0..40u64 {
                entries.push((c * 1_000_000 + i * 3 + 1, c * 100 + i));
            }
        }
        let tree = directory(&d, file, &entries);
        assert!(tree.nodes > 1, "clustered keys must create child nodes");
        check_floor(&d, file, &tree, &entries);
    }

    /// Overwrites the `u64` at byte `off` of inner block `block` of `file`.
    fn forge(d: &Disk, file: u32, block: BlockId, off: usize, value: u64) {
        let mut buf = d.cursor().read(file, block, BlockKind::Inner).unwrap().to_vec();
        buf[off..off + 8].copy_from_slice(&value.to_le_bytes());
        d.write(file, block, BlockKind::Inner, &buf).unwrap();
    }

    /// Overwrites every slot position of block 0 of `tree`'s root with
    /// `[tag][key 0][word]`. A one-entry tree is one block: its header,
    /// then its slots from byte [`HEADER_BYTES`].
    fn forge_root_slots(d: &Disk, file: u32, tree: &Subtree, tag: u64, word: u64) {
        for slot in 0..head_slots(d.block_size()) {
            let off = HEADER_BYTES + slot * SLOT_BYTES;
            forge(d, file, tree.root, off, tag);
            forge(d, file, tree.root, off + 8, 0);
            forge(d, file, tree.root, off + 16, word);
        }
    }

    #[test]
    fn block_pointers_beyond_the_block_id_range_are_errors() {
        // Truncated to 32 bits, each forged pointer would name block 0: the
        // tree's own root.
        let beyond = 1u64 << 32;
        let d = disk();
        let file = d.create_file().unwrap();
        let tree = directory(&d, file, &[(10, 7)]);
        for tag in [SLOT_DATA, SLOT_CHILD] {
            forge_root_slots(&d, file, &tree, tag, beyond);
            let found = tree.floor(&mut d.cursor(), file, BlockKind::Inner, 10);
            assert!(matches!(found, Err(IndexError::Internal(_))), "tag {tag}: {found:?}");
        }
    }

    #[test]
    fn a_cyclic_child_pointer_is_an_error_not_a_stack_overflow() {
        let d = disk();
        let file = d.create_file().unwrap();
        let tree = directory(&d, file, &[(10, 7)]);
        assert_eq!(tree.nodes, 1);
        // Every slot of the root names the root itself as a child whose key
        // admits the probe, so an unbounded search never ends.
        forge_root_slots(&d, file, &tree, SLOT_CHILD, u64::from(tree.root));
        // On its own thread with a deadline, so a search that never returns
        // fails the test instead of hanging it.
        let (done, result) = std::sync::mpsc::channel();
        let search = std::thread::spawn(move || {
            done.send(tree.floor(&mut d.cursor(), file, BlockKind::Inner, 10))
        });
        let found = result
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the search never returned");
        search.join().expect("the search's thread finished").expect("the answer was received");
        assert!(matches!(found, Err(IndexError::Internal(_))), "{found:?}");
    }

    #[test]
    fn a_child_without_a_key_below_the_probe_is_an_error() {
        let d = disk();
        let file = d.create_file().unwrap();
        // Three adjacent keys conflict in one slot of an 18-slot, one-block
        // root, so they form a child keyed 100.
        let mut entries: Vec<Entry> = vec![(100, 1), (101, 2), (102, 3)];
        entries.extend((1..7).map(|i| (i * 1_000_000, 10 + i)));
        let tree = directory(&d, file, &entries);
        let find = |key| tree.floor(&mut d.cursor(), file, BlockKind::Inner, key);
        assert_eq!(find(1).unwrap(), None, "below every key");
        // Lower the child's key word below the probe: the walk descends into
        // a child that holds no key <= 1.
        let mut cursor = d.cursor();
        let root = LippNode::load(&mut cursor, file, tree.root, BlockKind::Inner).unwrap();
        let child = (0..root.header.capacity)
            .find(|&s| matches!(root.read_slot(&mut cursor, s), Ok(Slot::Child(100, _))))
            .expect("the adjacent keys form a child");
        forge(&d, file, tree.root, HEADER_BYTES + child as usize * SLOT_BYTES + 8, 0);
        let found = find(1);
        assert!(matches!(found, Err(IndexError::Internal(_))), "{found:?}");
    }

    #[test]
    fn a_one_block_node_costs_one_inner_read() {
        let d = disk();
        let file = d.create_file().unwrap();
        // Nine evenly spaced keys: 18 slots, within the 19 that share block
        // 0 with the header at 512 bytes, and one slot each.
        let entries = spaced(9, 1_000);
        assert!(9 * 2 <= head_slots(512));
        let tree = directory(&d, file, &entries);
        assert_eq!(tree.nodes, 1);
        assert_eq!(d.num_blocks(file).unwrap(), 1, "the node is one block");
        for &(k, block) in &entries {
            d.stats().reset();
            let found = tree.floor(&mut d.cursor(), file, BlockKind::Inner, k + 1).unwrap();
            assert_eq!(found, Some(block as BlockId));
            assert_eq!(d.stats().reads_of(BlockKind::Inner), 1, "key {}", k + 1);
            assert_eq!(d.stats().reads(), 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

        /// The floor is the block of the greatest key `<= key`, or `None`
        /// below every key, and the entries come back as they were built.
        #[test]
        fn floor_is_the_greatest_key_at_or_below(
            gaps in proptest::collection::vec((1u64..1_000_000, 1usize..12), 1..60),
            block_size in prop_oneof![Just(256usize), Just(512usize), Just(1024usize)],
        ) {
            // Runs of keys one to four apart, the runs far apart: the runs
            // conflict on one slot, so the root has children.
            let mut entries: Vec<Entry> = Vec::new();
            let mut key = 0u64;
            for (i, &(gap, run)) in gaps.iter().enumerate() {
                key += gap;
                for j in 0..run as u64 {
                    key += 1 + (gap + j) % 4;
                    entries.push((key, (entries.len() + 100 * i) as u64));
                }
            }
            let d = Disk::in_memory(DiskConfig::with_block_size(block_size));
            let file = d.create_file().unwrap();
            let tree = directory(&d, file, &entries);
            let probes = entries.iter().flat_map(|&(k, _)| [k - 1, k, k + 1]).chain([0, Key::MAX]);
            for p in probes {
                let found = tree.floor(&mut d.cursor(), file, BlockKind::Inner, p).unwrap();
                prop_assert_eq!(found, floor_of(&entries, p), "key {}", p);
            }
            let read = tree.entries(&mut d.cursor(), file, BlockKind::Inner).unwrap();
            prop_assert_eq!(read, entries);
        }
    }
}
