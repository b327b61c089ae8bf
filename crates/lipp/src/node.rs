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
//! a slot.
//!
//! A [`LippNode`] handle keeps the block-0 frame it was loaded from or last
//! wrote. Its slots in block 0 are read from that frame, and a header write
//! patches the frame's first 48 bytes, so it costs one block write and no
//! read.

use lidx_core::{block_pointer, spend, Entry, IndexError, IndexResult, Key, Value};
use lidx_models::LinearModel;
use lidx_storage::{BlockCursor, BlockId, BlockKind, BlockReader, BlockRef, BlockWriter, Disk};

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
    /// The slot points at a child node (start block of its extent).
    Child(BlockId),
}

/// Encodes `slot` into the 24 bytes of `buf` at `off`.
fn put_slot(buf: &mut [u8], off: usize, slot: Slot) {
    let words = match slot {
        Slot::Null => [SLOT_NULL, 0, 0],
        Slot::Data(k, v) => [SLOT_DATA, k, v],
        Slot::Child(b) => [SLOT_CHILD, 0, u64::from(b)],
    };
    for (bytes, word) in buf[off..off + SLOT_BYTES].chunks_exact_mut(8).zip(words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
}

/// Decodes the slot stored in the 24 bytes of `buf` at `off`.
fn get_slot(buf: &[u8], off: usize) -> IndexResult<Slot> {
    let mut r = BlockReader::new(buf);
    r.seek(off)?;
    let (tag, key, word) = (r.get_u64()?, r.get_u64()?, r.get_u64()?);
    match tag {
        SLOT_NULL => Ok(Slot::Null),
        SLOT_DATA => Ok(Slot::Data(key, word)),
        SLOT_CHILD => block_pointer(word, "LIPP child pointer").map(Slot::Child),
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

    fn decode(buf: &[u8]) -> IndexResult<Self> {
        let mut r = BlockReader::new(buf);
        let tag = r.get_u8()?;
        if tag != TAG_NODE {
            return Err(IndexError::Internal(format!("expected LIPP node tag, got {tag:#x}")));
        }
        r.get_u8()?;
        r.get_u16()?;
        let capacity = r.get_u32()?;
        let data_count = r.get_u32()?;
        let child_count = r.get_u32()?;
        let slope = r.get_f64()?;
        let intercept = r.get_f64()?;
        Ok(LippHeader {
            capacity,
            data_count,
            child_count,
            model: LinearModel::new(slope, intercept),
            build_size: r.get_u32()?,
            num_inserts: r.get_u32()?,
            num_conflicts: r.get_u32()?,
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
    /// The decoded header.
    pub header: LippHeader,
    /// Block 0 as this handle loaded or last wrote it: the header bytes
    /// (possibly behind [`LippNode::header`] while statistics are deferred)
    /// and the first [`head_slots`] slots.
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
    /// block read) through the operation's cursor: scan-class through a
    /// scan's cursor.
    pub fn load(cursor: &mut BlockCursor<'_>, file: u32, start: BlockId) -> IndexResult<Self> {
        let frame = cursor.read(file, start, BlockKind::Leaf)?;
        Self::from_frame(file, start, frame.clone())
    }

    /// Builds a handle from an already-fetched block 0 (e.g. one delivered
    /// by a read-queue completion wave), avoiding a second read.
    pub fn from_frame(file: u32, start: BlockId, block0: BlockRef) -> IndexResult<Self> {
        Ok(LippNode { file, start, header: LippHeader::decode(&block0)?, block0 })
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
        cursor.write(self.file, self.start, BlockKind::Leaf, &buf)?;
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
        get_slot(cursor.read(self.file, block, BlockKind::Leaf)?, off)
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
            cursor.read(self.file, block, BlockKind::Leaf)?.to_vec()
        };
        put_slot(&mut buf, off, value);
        cursor.write(self.file, block, BlockKind::Leaf, &buf)?;
        if block == self.start {
            self.block0 = BlockRef::from_vec(buf);
        }
        Ok(())
    }

    /// Builds a node for `entries` (sorted, strictly increasing) with the
    /// given slot capacity and FMCD model. Conflicting keys are *not* handled
    /// here — the caller groups keys per slot and builds child nodes; this
    /// function receives the final per-slot assignment.
    pub fn write_new(
        disk: &Disk,
        file: u32,
        start: BlockId,
        capacity: u32,
        model: LinearModel,
        slots: &[Slot],
        build_size: u32,
    ) -> IndexResult<LippNode> {
        debug_assert_eq!(slots.len(), capacity as usize);
        let bs = disk.block_size();
        let mut data_count = 0;
        let mut child_count = 0;
        for s in slots {
            match s {
                Slot::Data(..) => data_count += 1,
                Slot::Child(_) => child_count += 1,
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
            disk.write(file, start + b, BlockKind::Leaf, &buf)?;
        }
        buf.fill(0);
        buf[..HEADER_BYTES].copy_from_slice(&header.encode()?);
        for (i, &s) in head.iter().enumerate() {
            put_slot(&mut buf, HEADER_BYTES + i * SLOT_BYTES, s);
        }
        disk.write(file, start, BlockKind::Leaf, &buf)?;
        Ok(LippNode { file, start, header, block0: BlockRef::from_vec(buf) })
    }

    /// Walks this node's subtree depth first in slot order, reading every
    /// slot with [`LippNode::read_slot`]: `data` sees each stored entry, in key order,
    /// and `done` each node once its subtree is walked (children before
    /// their parent). The walk may load `budget` nodes, the tree's node
    /// count (see [`lidx_core::spend`]), and keeps its path on the heap, so a cyclic
    /// child pointer is an error, neither a hang nor a stack overflow.
    pub(crate) fn walk_subtree(
        &self,
        cursor: &mut BlockCursor<'_>,
        mut budget: u64,
        mut data: impl FnMut(Entry),
        mut done: impl FnMut(&mut BlockCursor<'_>, &LippNode),
    ) -> IndexResult<()> {
        // Each node on the path with the next slot to read.
        let mut path = vec![(self.clone(), 0u32)];
        while let Some((node, slot)) = path.last_mut() {
            if *slot == node.header.capacity {
                let (node, _) = path.pop().expect("the path is not empty");
                done(cursor, &node);
                continue;
            }
            let read = node.read_slot(cursor, *slot)?;
            *slot += 1;
            match read {
                Slot::Null => {}
                Slot::Data(k, v) => data((k, v)),
                Slot::Child(block) => {
                    spend(&mut budget, "LIPP walk")?;
                    let child = LippNode::load(cursor, node.file, block)?;
                    path.push((child, 0));
                }
            }
        }
        Ok(())
    }

    /// Collects every entry stored in this node's subtree, in key order.
    /// The walk may load `budget` nodes, the tree's node count, so a cyclic
    /// child pointer is an error.
    pub fn collect_subtree(
        &self,
        cursor: &mut BlockCursor<'_>,
        out: &mut Vec<Entry>,
        budget: u64,
    ) -> IndexResult<()> {
        self.walk_subtree(cursor, budget, |e| out.push(e), |_, _| {})
    }

    /// Frees this node's extent and every descendant's, children first.
    /// The walk may load `budget` nodes, the tree's node count, so a cyclic
    /// child pointer is an error.
    pub fn free_subtree(&self, cursor: &mut BlockCursor<'_>, budget: u64) -> IndexResult<()> {
        self.walk_subtree(
            cursor,
            budget,
            |_| {},
            |cursor, node| {
                // The cursor holds a block of this extent: let go of it before
                // the extent is freed.
                cursor.release();
                let disk = cursor.disk();
                disk.free(node.file, node.start, node.total_blocks(disk.block_size()));
            },
        )
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

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_storage::DiskConfig;
    use std::sync::Arc;

    fn disk() -> Arc<Disk> {
        Disk::in_memory(DiskConfig::with_block_size(512))
    }

    #[test]
    fn slot_encoding_roundtrips() {
        let mut buf = [0xFFu8; 2 * SLOT_BYTES];
        for s in [Slot::Null, Slot::Data(5, 6), Slot::Child(1234)] {
            put_slot(&mut buf, SLOT_BYTES, s);
            assert_eq!(get_slot(&buf, SLOT_BYTES).unwrap(), s);
        }
        assert!(get_slot(&buf, 0).is_err(), "tag 0xFF..FF is no slot type");
        assert!(get_slot(&buf, SLOT_BYTES + 1).is_err(), "a slot past the block's end");
    }

    #[test]
    fn a_child_pointer_beyond_the_block_id_range_is_an_error() {
        let d = disk();
        let file = d.create_file().unwrap();
        let capacity = 8u32;
        let start = d.allocate(file, blocks_for(capacity, 512)).unwrap();
        let mut slots = vec![Slot::Null; capacity as usize];
        slots[2] = Slot::Child(99);
        let node =
            LippNode::write_new(&d, file, start, capacity, LinearModel::new(0.1, 0.0), &slots, 1)
                .unwrap();
        // Forge the child pointer's high half: truncated to 32 bits it would
        // still name block 99. The handle holds block 0 as it wrote it, so
        // the forged block is read through a fresh one.
        let (block, off) = node.slot_location(2, 512);
        let mut buf = d.cursor().read(file, block, BlockKind::Leaf).unwrap().to_vec();
        buf[off + 16..off + 24].copy_from_slice(&((1u64 << 32) | 99).to_le_bytes());
        d.write(file, block, BlockKind::Leaf, &buf).unwrap();
        let mut cursor = d.cursor();
        let forged = LippNode::load(&mut cursor, file, start).unwrap();
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
        slots[10] = Slot::Child(99);
        slots[63] = Slot::Data(630, 631);
        let model = LinearModel::new(0.1, 0.0);
        let node = LippNode::write_new(&d, file, start, capacity, model, &slots, 3).unwrap();
        assert_eq!(node.header.data_count, 2);
        assert_eq!(node.header.child_count, 1);

        let mut cursor = d.cursor();
        let mut reloaded = LippNode::load(&mut cursor, file, start).unwrap();
        assert_eq!(reloaded.header, node.header);
        let mut read = |slot| reloaded.read_slot(&mut cursor, slot).unwrap();
        assert_eq!(read(3), Slot::Data(30, 31));
        assert_eq!(read(10), Slot::Child(99));
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
        let node = LippNode::write_new(
            &d,
            file,
            start,
            capacity,
            model,
            &vec![Slot::Null; capacity as usize],
            0,
        )
        .unwrap();
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
    fn collect_and_free_subtree() {
        let d = disk();
        let file = d.create_file().unwrap();
        // Child node with two entries.
        let child_cap = 8u32;
        let child_start = d.allocate(file, blocks_for(child_cap, 512)).unwrap();
        let mut child_slots = vec![Slot::Null; child_cap as usize];
        child_slots[1] = Slot::Data(10, 100);
        child_slots[6] = Slot::Data(20, 200);
        LippNode::write_new(
            &d,
            file,
            child_start,
            child_cap,
            LinearModel::new(0.5, -4.0),
            &child_slots,
            2,
        )
        .unwrap();
        // Parent referencing the child between two data slots.
        let cap = 8u32;
        let start = d.allocate(file, blocks_for(cap, 512)).unwrap();
        let mut slots = vec![Slot::Null; cap as usize];
        slots[0] = Slot::Data(5, 50);
        slots[2] = Slot::Child(child_start);
        slots[5] = Slot::Data(30, 300);
        let parent =
            LippNode::write_new(&d, file, start, cap, LinearModel::new(0.1, 0.0), &slots, 4)
                .unwrap();

        let mut out = Vec::new();
        parent.collect_subtree(&mut d.cursor(), &mut out, 2).unwrap();
        assert_eq!(out, vec![(5, 50), (10, 100), (20, 200), (30, 300)]);

        let before_freed = d.stats().freed_blocks();
        parent.free_subtree(&mut d.cursor(), 2).unwrap();
        let freed = d.stats().freed_blocks() - before_freed;
        assert_eq!(
            freed,
            u64::from(blocks_for(child_cap, 512) + blocks_for(cap, 512)),
            "both extents must be freed"
        );
    }
}
