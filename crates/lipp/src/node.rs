//! The on-disk LIPP node format.
//!
//! A node occupies a contiguous extent:
//!
//! ```text
//! block 0   : header (model, capacity, counters, statistics)
//! blocks 1..: slots, 24 bytes each: [type u64][key u64][payload-or-child u64]
//! ```
//!
//! The slot type is stored inline (the paper's replacement for ALEX's
//! bitmap), so one block read yields both the type and the content of a slot.

use lidx_core::{Entry, IndexError, IndexResult, Key, Value};
use lidx_models::LinearModel;
use lidx_storage::{BlockCursor, BlockId, BlockKind, BlockReader, BlockWriter, Disk};

/// Size of one slot in bytes.
pub const SLOT_BYTES: usize = 24;

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

impl Slot {
    fn encode(self) -> [u64; 3] {
        match self {
            Slot::Null => [SLOT_NULL, 0, 0],
            Slot::Data(k, v) => [SLOT_DATA, k, v],
            Slot::Child(b) => [SLOT_CHILD, 0, u64::from(b)],
        }
    }

    fn decode(raw: [u64; 3]) -> IndexResult<Slot> {
        match raw[0] {
            SLOT_NULL => Ok(Slot::Null),
            SLOT_DATA => Ok(Slot::Data(raw[1], raw[2])),
            SLOT_CHILD => BlockId::try_from(raw[2]).map(Slot::Child).map_err(|_| {
                IndexError::Internal(format!("LIPP child pointer {} is not a block id", raw[2]))
            }),
            other => Err(IndexError::Internal(format!("invalid LIPP slot tag {other}"))),
        }
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
    fn encode(&self, block_size: usize) -> IndexResult<Vec<u8>> {
        let mut w = BlockWriter::new(block_size);
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
}

/// Number of slots per block for a given block size.
pub fn slots_per_block(block_size: usize) -> usize {
    block_size / SLOT_BYTES
}

/// Total blocks of a node extent with `capacity` slots.
pub fn blocks_for(capacity: u32, block_size: usize) -> u32 {
    1 + (capacity as usize).div_ceil(slots_per_block(block_size)).max(1) as u32
}

impl LippNode {
    /// Reads the header of the node at `start` (one block read) through the
    /// operation's cursor: scan-class through a scan's cursor.
    pub fn load(cursor: &mut BlockCursor<'_>, file: u32, start: BlockId) -> IndexResult<Self> {
        let buf = cursor.read(file, start, BlockKind::Leaf)?;
        Self::from_header_bytes(file, start, buf)
    }

    /// Builds a handle from an already-fetched header block (e.g. one
    /// delivered by a read-queue completion wave), avoiding a second read.
    pub fn from_header_bytes(file: u32, start: BlockId, buf: &[u8]) -> IndexResult<Self> {
        Ok(LippNode { file, start, header: LippHeader::decode(buf)? })
    }

    /// Total blocks of the node's extent.
    pub fn total_blocks(&self, block_size: usize) -> u32 {
        blocks_for(self.header.capacity, block_size)
    }

    /// Persists the header (one block write) through the operation's
    /// cursor.
    pub fn write_header(&self, cursor: &mut BlockCursor<'_>) -> IndexResult<()> {
        let buf = self.header.encode(cursor.disk().block_size())?;
        cursor.write(self.file, self.start, BlockKind::Leaf, &buf)?;
        Ok(())
    }

    /// Slot the model assigns to `key`.
    pub fn predict(&self, key: Key) -> u32 {
        self.header.model.predict_clamped(key, self.header.capacity as usize) as u32
    }

    fn slot_location(&self, slot: u32, block_size: usize) -> (BlockId, usize) {
        let per_block = slots_per_block(block_size) as u32;
        (self.start + 1 + slot / per_block, ((slot % per_block) as usize) * SLOT_BYTES)
    }

    /// Absolute block id holding `slot` — the prefetch target for batched
    /// lookups that wave a whole level's slot fetches at once.
    pub fn slot_block_id(&self, slot: u32, block_size: usize) -> BlockId {
        self.slot_location(slot, block_size).0
    }

    /// Reads one slot through the operation's cursor: the slots a walk
    /// reads in one block cost one disk read.
    pub fn read_slot(&self, cursor: &mut BlockCursor<'_>, slot: u32) -> IndexResult<Slot> {
        let (block, off) = self.slot_location(slot, cursor.disk().block_size());
        let buf = cursor.read(self.file, block, BlockKind::Leaf)?;
        let raw = [
            u64::from_le_bytes(buf[off..off + 8].try_into().unwrap()),
            u64::from_le_bytes(buf[off + 8..off + 16].try_into().unwrap()),
            u64::from_le_bytes(buf[off + 16..off + 24].try_into().unwrap()),
        ];
        Slot::decode(raw)
    }

    /// Writes one slot: a read-modify-write of its block through the
    /// operation's cursor.
    pub fn write_slot(
        &self,
        cursor: &mut BlockCursor<'_>,
        slot: u32,
        value: Slot,
    ) -> IndexResult<()> {
        let (block, off) = self.slot_location(slot, cursor.disk().block_size());
        let mut buf = cursor.read(self.file, block, BlockKind::Leaf)?.to_vec();
        let raw = value.encode();
        buf[off..off + 8].copy_from_slice(&raw[0].to_le_bytes());
        buf[off + 8..off + 16].copy_from_slice(&raw[1].to_le_bytes());
        buf[off + 16..off + 24].copy_from_slice(&raw[2].to_le_bytes());
        cursor.write(self.file, block, BlockKind::Leaf, &buf)?;
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
        let per_block = slots_per_block(bs);
        let mut data_count = 0;
        let mut child_count = 0;
        for s in slots {
            match s {
                Slot::Data(..) => data_count += 1,
                Slot::Child(_) => child_count += 1,
                Slot::Null => {}
            }
        }
        let mut buf = vec![0u8; bs];
        let slot_blocks = (capacity as usize).div_ceil(per_block).max(1) as u32;
        for b in 0..slot_blocks {
            buf.fill(0);
            for i in 0..per_block {
                let idx = b as usize * per_block + i;
                let raw = slots.get(idx).copied().unwrap_or(Slot::Null).encode();
                let off = i * SLOT_BYTES;
                buf[off..off + 8].copy_from_slice(&raw[0].to_le_bytes());
                buf[off + 8..off + 16].copy_from_slice(&raw[1].to_le_bytes());
                buf[off + 16..off + 24].copy_from_slice(&raw[2].to_le_bytes());
            }
            disk.write(file, start + 1 + b, BlockKind::Leaf, &buf)?;
        }
        let node = LippNode {
            file,
            start,
            header: LippHeader {
                capacity,
                data_count,
                child_count,
                model,
                build_size,
                num_inserts: 0,
                num_conflicts: 0,
            },
        };
        disk.write(file, start, BlockKind::Leaf, &node.header.encode(bs)?)?;
        Ok(node)
    }

    /// Walks this node's subtree depth first in slot order, reading every
    /// slot through `cursor`: `data` sees each stored entry, in key order,
    /// and `done` each node once its subtree is walked (children before
    /// their parent). The walk may load `budget` nodes, the tree's node
    /// count (see [`spend`]), and keeps its path on the heap, so a cyclic
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
                    spend(&mut budget)?;
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

/// Takes one node from a walk's `budget`. A walk of a tree loads each node
/// at most once, so a budget of the tree's node count only runs out when a
/// child pointer leads back into the walk: that is an error, not a hang.
pub(crate) fn spend(budget: &mut u64) -> IndexResult<()> {
    *budget = budget.checked_sub(1).ok_or_else(|| {
        IndexError::Internal(
            "LIPP walk loaded more nodes than the tree holds: a child pointer is cyclic".into(),
        )
    })?;
    Ok(())
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
        for s in [Slot::Null, Slot::Data(5, 6), Slot::Child(1234)] {
            assert_eq!(Slot::decode(s.encode()).unwrap(), s);
        }
        assert!(Slot::decode([9, 0, 0]).is_err());
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
        // still name block 99.
        let (block, off) = node.slot_location(2, 512);
        let mut buf = d.cursor().read(file, block, BlockKind::Leaf).unwrap().to_vec();
        buf[off + 16..off + 24].copy_from_slice(&((1u64 << 32) | 99).to_le_bytes());
        d.write(file, block, BlockKind::Leaf, &buf).unwrap();
        let read = node.read_slot(&mut d.cursor(), 2);
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
        let reloaded = LippNode::load(&mut cursor, file, start).unwrap();
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
