//! On-disk node formats for ALEX.
//!
//! # Data node extent
//!
//! ```text
//! block 0            : header (HEADER_BYTES: model, capacity, count, stats,
//!                      sibling links), then the bitmap, 1 bit per slot
//! blocks 1..1+BM     : the bitmap's spill past block 0, if any
//!                      (BM = 0 up to (bs - HEADER_BYTES)·8 slots, 32 320 at 4 KiB)
//! blocks 1+BM..      : slots, 16 bytes each (gapped array)
//! ```
//!
//! The bitmap is one bit string that starts right after the header: slot
//! `s` owns bit `HEADER_BYTES·8 + s` of the extent's first `1 + BM` blocks
//! (`bit_location`, the one mapping every bitmap access goes through).
//! Block 0 is read as a `Leaf` block, for the header and its bitmap bits
//! alike; spill blocks are `Utility` blocks. A [`DataNode`] handle keeps the
//! block-0 frame it was loaded from or last wrote, so its bitmap bits are
//! read from that frame, and a header write patches the frame's first
//! [`HEADER_BYTES`] and costs one block write and no read. An insert sets
//! its bit and rewrites the statistics in the same block, so on a
//! write-back cursor the header write rides on the block the bit already
//! dirtied.
//!
//! Gap slots duplicate their nearest left real entry (leading gaps duplicate
//! the first real entry), so point lookups never need the bitmap — the disk
//! translation of ALEX's "overwrite preceding empty slots" trick (S5). The
//! bitmap is only consulted by inserts (to find gaps) and scans (to skip
//! duplicates), which is where the paper locates ALEX's utility overhead
//! (S3); here it shares the header's block, so a node whose bitmap fits
//! there pays no block for it.
//!
//! An insert follows ALEX's closest-gap rule ([`DataNode::closest_gap`]): a
//! fresh key finds the nearest free slot on either side of its lower bound
//! and shifts the occupied run between them one slot toward that gap
//! ([`DataNode::shift_insert`]), reading and writing each touched slot block
//! once. A node with a free slot anywhere can take the key, so a structural
//! modification (expansion or split) is density-triggered: it happens only
//! when `count + 1 > capacity · max_density`.
//!
//! # Inner node extent
//!
//! ```text
//! block 0            : header (INNER_HEADER_BYTES: tag, child count, model)
//!                      + as many child entries as fit
//! blocks 1..         : remaining child entries
//!
//! child entry (CHILD_ENTRY_BYTES = 24):
//!   [block u32][capacity u32][slope f64][intercept f64]
//!   capacity 0     : an inner child whose extent starts at `block`
//!                    (slope and intercept are zero)
//!   capacity > 0   : a data child whose extent starts at `block`, with its
//!                    header's capacity and model
//! ```
//!
//! A data child's entry is its [`DataRoute`]: the two header fields a point
//! read needs, copied into the parent wherever the node is built (bulk
//! load, expansion, split). Inserts never change a node's model or
//! capacity, so the copy is never stale between SMOs, and a lookup goes
//! from the parent, already in the pool, straight to the predicted slot
//! block through a [`SlotArray`]: it reads no data-node header.
//! `capacity_for` never builds a data node of fewer than 16 slots, so a
//! capacity of 0 is free to mark an inner child. Scans, inserts and SMOs
//! still load block 0 for the bitmap, count, links and statistics.

use lidx_core::entries::{self, ENTRY_BYTES};
use lidx_core::{Entry, IndexError, IndexResult, Key, Value};
use lidx_models::LinearModel;
use lidx_storage::{
    bytes_at, BlockCursor, BlockId, BlockKind, BlockReader, BlockRef, BlockWriter, Disk, SeqHint,
};

/// Size of one slot in bytes: a `(key, payload)` entry in the shared slot
/// codec ([`lidx_core::entries`]).
pub const SLOT_BYTES: usize = ENTRY_BYTES;

/// Bytes of block 0 the data-node header reserves; the bitmap follows it.
/// A multiple of 8, so each 64-bit bitmap word covers 64 slots that start
/// at a multiple of 64.
pub const HEADER_BYTES: usize = 56;

const TAG_DATA: u8 = 0xD1;
const TAG_INNER: u8 = 0xA1;

/// Where the bitmap keeps `slot`'s bit: the block's offset in the extent
/// (0 is the header block, the spill blocks follow it) and the bit's index
/// in that block (byte `bit / 8`, bit `bit % 8`).
fn bit_location(slot: u32, block_size: usize) -> (u32, usize) {
    let bit = HEADER_BYTES * 8 + slot as usize;
    ((bit / (block_size * 8)) as u32, bit % (block_size * 8))
}

/// Word `w` of a bitmap block: bit `i` of the word is bit `64·w + i` of the
/// block (byte `i / 8`, bit `i % 8` of the word's bytes). A block that ends
/// inside the word reads as zero past its end.
fn bitmap_word(buf: &[u8], w: usize) -> u64 {
    let mut bytes = [0u8; 8];
    let word = &buf[w * 8..(w * 8 + 8).min(buf.len())];
    bytes[..word.len()].copy_from_slice(word);
    u64::from_le_bytes(bytes)
}

/// Bytes of one child entry of an inner node (and of the root in the
/// index's meta): `[block u32][capacity u32][slope f64][intercept f64]`.
pub const CHILD_ENTRY_BYTES: usize = 24;

/// What a data node's parent knows of it: where its extent starts, and the
/// header fields a point read needs, its capacity and its model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataRoute {
    /// First block of the node's extent.
    pub block: BlockId,
    /// Number of slots in the node's gapped array (never 0).
    pub capacity: u32,
    /// The node's model, mapping keys to slot positions.
    pub model: LinearModel,
}

impl DataRoute {
    /// The node's slot array, once its extent is checked against the file's
    /// block count: an entry whose extent runs past the end of the file is
    /// an error, not a read of blocks that do not exist.
    pub fn slots(&self, disk: &Disk, file: u32) -> IndexResult<SlotArray> {
        check_extent(disk, file, self.block, self.capacity)?;
        Ok(SlotArray::new(file, self.block, self.capacity, self.model, disk.block_size()))
    }
}

/// One child entry of an inner node, or the index's root.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Child {
    /// An inner node whose extent starts at this block.
    Inner(BlockId),
    /// A data node, with the route a point read takes into it.
    Data(DataRoute),
}

impl Child {
    /// The entry's [`CHILD_ENTRY_BYTES`]; an inner child has capacity 0 and
    /// a zero model.
    pub fn encode(&self) -> [u8; CHILD_ENTRY_BYTES] {
        let (block, capacity, model) = match *self {
            Child::Inner(block) => (block, 0, LinearModel::new(0.0, 0.0)),
            Child::Data(route) => (route.block, route.capacity, route.model),
        };
        let mut out = [0u8; CHILD_ENTRY_BYTES];
        out[..4].copy_from_slice(&block.to_le_bytes());
        out[4..8].copy_from_slice(&capacity.to_le_bytes());
        out[8..16].copy_from_slice(&model.slope.to_le_bytes());
        out[16..].copy_from_slice(&model.intercept.to_le_bytes());
        out
    }

    /// Decodes an entry from exactly [`CHILD_ENTRY_BYTES`]. Another length,
    /// or an inner child (capacity 0) that carries a model, is an error.
    pub fn decode(bytes: &[u8]) -> IndexResult<Self> {
        if bytes.len() != CHILD_ENTRY_BYTES {
            return Err(IndexError::Internal(format!(
                "an ALEX child entry of {} bytes, not {CHILD_ENTRY_BYTES}",
                bytes.len()
            )));
        }
        let block = u32::from_le_bytes(bytes_at(bytes, 0));
        let capacity = u32::from_le_bytes(bytes_at(bytes, 4));
        let model = LinearModel::new(
            f64::from_le_bytes(bytes_at(bytes, 8)),
            f64::from_le_bytes(bytes_at(bytes, 16)),
        );
        if capacity > 0 {
            return Ok(Child::Data(DataRoute { block, capacity, model }));
        }
        if bytes[8..].iter().any(|&b| b != 0) {
            return Err(IndexError::Internal(format!(
                "ALEX inner child entry for block {block} carries a model"
            )));
        }
        Ok(Child::Inner(block))
    }
}

/// Checks that the extent of a data node of `capacity` slots at `start` ends
/// inside `file`.
fn check_extent(disk: &Disk, file: u32, start: BlockId, capacity: u32) -> IndexResult<()> {
    let blocks = DataGeometry::for_capacity(capacity, disk.block_size()).total_blocks();
    let file_blocks = disk.num_blocks(file)?;
    if u64::from(start) + u64::from(blocks) > u64::from(file_blocks) {
        return Err(IndexError::Internal(format!(
            "ALEX data node at block {start} has {capacity} slots, an extent past the file's \
             {file_blocks} blocks"
        )));
    }
    Ok(())
}

/// A data node's gapped slot array as a point read sees it: its first slot
/// block, its capacity and the model that places keys in it. Built from a
/// parent's entry ([`DataRoute::slots`]) or a loaded node's header
/// ([`DataNode::slots`]), it copies those few fields, holds no frame and
/// allocates nothing. The exponential search is written here once.
#[derive(Debug, Clone, Copy)]
pub struct SlotArray {
    file: u32,
    first: BlockId,
    capacity: u32,
    model: LinearModel,
    per_block: u32,
}

impl SlotArray {
    /// The slot array of the data node at `start` (extent already checked).
    fn new(
        file: u32,
        start: BlockId,
        capacity: u32,
        model: LinearModel,
        block_size: usize,
    ) -> Self {
        let bitmap_blocks = DataGeometry::for_capacity(capacity, block_size).bitmap_blocks;
        SlotArray {
            file,
            first: start + 1 + bitmap_blocks,
            capacity,
            model,
            per_block: (block_size / SLOT_BYTES) as u32,
        }
    }

    /// Predicted slot of `key`, clamped to the capacity.
    pub fn predict(&self, key: Key) -> u32 {
        self.model.predict_clamped(key, self.capacity as usize) as u32
    }

    /// The block holding `slot` and the slot's index in it.
    pub fn locate(&self, slot: u32) -> (BlockId, usize) {
        (self.first + slot / self.per_block, (slot % self.per_block) as usize)
    }

    /// Reads the slot at `slot` (entry may be a gap duplicate) through the
    /// operation's cursor: the slots a walk reads in one block cost one disk
    /// read.
    pub fn read(&self, cursor: &mut BlockCursor<'_>, slot: u32) -> IndexResult<Entry> {
        let (block, idx) = self.locate(slot);
        let buf = cursor.read(self.file, block, BlockKind::Leaf)?;
        Ok(entries::get(&bytes_at(buf, idx * SLOT_BYTES)))
    }

    /// Finds the leftmost slot whose key is `>= key` using exponential search
    /// from the model's prediction, as ALEX does. Returns `capacity` if every
    /// slot key is smaller. The probes read through `cursor`, so the probes
    /// that land in one slot block cost one disk read.
    pub fn lower_bound(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<u32> {
        let n = self.capacity;
        if n == 0 {
            return Ok(0);
        }
        let pred = self.predict(key);
        let mut at = |s: u32| -> IndexResult<Key> { Ok(self.read(cursor, s)?.0) };

        let (mut lo, mut hi);
        if at(pred)? >= key {
            // Grow leftwards until we find a key smaller than the target.
            let mut step = 1u32;
            hi = pred;
            loop {
                if step > pred {
                    lo = 0;
                    break;
                }
                let probe = pred - step;
                if at(probe)? < key {
                    lo = probe + 1;
                    break;
                }
                if probe == 0 {
                    lo = 0;
                    break;
                }
                step *= 2;
            }
        } else {
            // Grow rightwards until we find a key >= target.
            let mut step = 1u32;
            lo = pred + 1;
            loop {
                let probe = pred.saturating_add(step);
                if probe >= n - 1 {
                    if at(n - 1)? < key {
                        return Ok(n);
                    }
                    hi = n - 1;
                    break;
                }
                if at(probe)? >= key {
                    hi = probe;
                    break;
                }
                lo = probe + 1;
                step *= 2;
            }
        }
        // Binary search in [lo, hi].
        while lo < hi {
            let mid = (lo + hi) / 2;
            if at(mid)? < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Point lookup in a node that holds at least one entry. Gap slots
    /// duplicate the payload of the real entry they copy, so no bitmap
    /// access is required; the search and the final slot read share
    /// `cursor`.
    pub fn lookup(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<Option<Value>> {
        let slot = self.lower_bound(cursor, key)?;
        if slot >= self.capacity {
            return Ok(None);
        }
        let (k, v) = self.read(cursor, slot)?;
        Ok((k == key).then_some(v))
    }
}

/// The persistent header of a data node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataHeader {
    /// Number of slots in the gapped array.
    pub capacity: u32,
    /// Number of real (occupied) slots.
    pub count: u32,
    /// Linear model mapping keys to slot positions.
    pub model: LinearModel,
    /// Start block of the previous data node, or [`lidx_storage::INVALID_BLOCK`].
    pub prev: BlockId,
    /// Start block of the next data node, or [`lidx_storage::INVALID_BLOCK`].
    pub next: BlockId,
    /// Statistics maintained for the cost model, updated on every fresh
    /// insert (the maintenance of Fig. 6, which shares block 0 with the
    /// bitmap bit the insert sets).
    pub num_inserts: u64,
    /// Total slots shifted by inserts into this node.
    pub num_shifts: u64,
}

impl DataHeader {
    /// Encodes the header into its [`HEADER_BYTES`] at the front of block 0.
    fn encode(&self) -> IndexResult<Vec<u8>> {
        let mut w = BlockWriter::new(HEADER_BYTES);
        w.put_u8(TAG_DATA)?;
        w.put_u8(0)?;
        w.put_u16(0)?;
        w.put_u32(self.capacity)?;
        w.put_u32(self.count)?;
        w.put_f64(self.model.slope)?;
        w.put_f64(self.model.intercept)?;
        w.put_u32(self.prev)?;
        w.put_u32(self.next)?;
        w.put_u64(self.num_inserts)?;
        w.put_u64(self.num_shifts)?;
        Ok(w.finish())
    }

    /// Decodes the header from the front of block 0. A count above the
    /// capacity is an error.
    fn decode(buf: &[u8]) -> IndexResult<Self> {
        let mut r = BlockReader::new(buf);
        let tag = r.get_u8()?;
        if tag != TAG_DATA {
            return Err(IndexError::Internal(format!("expected data node tag, got {tag:#x}")));
        }
        r.get_u8()?;
        r.get_u16()?;
        let capacity = r.get_u32()?;
        let count = r.get_u32()?;
        if count > capacity {
            return Err(IndexError::Internal(format!(
                "ALEX data node holds {count} entries in {capacity} slots"
            )));
        }
        let slope = r.get_f64()?;
        let intercept = r.get_f64()?;
        let prev = r.get_u32()?;
        let next = r.get_u32()?;
        Ok(DataHeader {
            capacity,
            count,
            model: LinearModel::new(slope, intercept),
            prev,
            next,
            num_inserts: r.get_u64()?,
            num_shifts: r.get_u64()?,
        })
    }
}

/// Geometry of a data node extent for a given block size and capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataGeometry {
    /// Bitmap blocks after the header block: the bitmap's spill past block
    /// 0's tail, 0 for a node of at most `(block_size - HEADER_BYTES)·8`
    /// slots.
    pub bitmap_blocks: u32,
    /// Blocks used by the slot array.
    pub slot_blocks: u32,
}

impl DataGeometry {
    /// Computes the geometry for `capacity` slots.
    pub fn for_capacity(capacity: u32, block_size: usize) -> Self {
        let bitmap_blocks = bit_location(capacity.saturating_sub(1), block_size).0;
        let slots_per_block = block_size / SLOT_BYTES;
        let slot_blocks = (capacity as usize).div_ceil(slots_per_block).max(1) as u32;
        DataGeometry { bitmap_blocks, slot_blocks }
    }

    /// Total blocks of the extent (header + bitmap spill + slots).
    pub fn total_blocks(&self) -> u32 {
        1 + self.bitmap_blocks + self.slot_blocks
    }
}

/// A handle to one on-disk data node.
#[derive(Debug, Clone)]
pub struct DataNode {
    /// File holding the node.
    pub file: u32,
    /// First block of the extent.
    pub start: BlockId,
    /// The decoded header.
    pub header: DataHeader,
    /// Block 0 as this handle loaded or last wrote it: the header bytes
    /// (behind [`DataNode::header`] between a statistics bump and its
    /// [`DataNode::write_header`]) and the bitmap bits that fit beside them.
    block0: BlockRef,
}

impl DataNode {
    /// Reads the data node at `start` (block 0: its header and the bitmap
    /// bits beside it, one `Leaf` read) through the operation's cursor.
    pub fn load(cursor: &mut BlockCursor<'_>, file: u32, start: BlockId) -> IndexResult<Self> {
        let frame = cursor.read(file, start, BlockKind::Leaf)?.clone();
        Self::from_frame(cursor.disk(), file, start, frame)
    }

    /// Builds a handle from an already-fetched block 0 (e.g. one delivered
    /// by a read-queue completion wave), avoiding a second read. A header
    /// whose extent runs past the end of the file is an error.
    pub fn from_frame(
        disk: &Disk,
        file: u32,
        start: BlockId,
        block0: BlockRef,
    ) -> IndexResult<Self> {
        let header = DataHeader::decode(&block0)?;
        check_extent(disk, file, start, header.capacity)?;
        Ok(DataNode { file, start, header, block0 })
    }

    /// The route a parent keeps for this node: its start block and its
    /// header's capacity and model.
    pub fn route(&self) -> DataRoute {
        DataRoute { block: self.start, capacity: self.header.capacity, model: self.header.model }
    }

    /// The node's slot array, as its header describes it.
    pub fn slots(&self, block_size: usize) -> SlotArray {
        SlotArray::new(self.file, self.start, self.header.capacity, self.header.model, block_size)
    }

    /// The extent geometry implied by the header.
    pub fn geometry(&self, block_size: usize) -> DataGeometry {
        DataGeometry::for_capacity(self.header.capacity, block_size)
    }

    /// Total blocks of this node's extent.
    pub fn total_blocks(&self, block_size: usize) -> u32 {
        self.geometry(block_size).total_blocks()
    }

    /// Persists the header through the operation's cursor: one block write
    /// of block 0 with the header bytes patched into the handle's frame, so
    /// the bitmap bits that share the block are kept and nothing is read.
    pub fn write_header(&mut self, cursor: &mut BlockCursor<'_>) -> IndexResult<()> {
        let mut buf = self.block0.to_vec();
        buf[..HEADER_BYTES].copy_from_slice(&self.header.encode()?);
        self.write_block0(cursor, buf)
    }

    /// Writes `buf` as block 0 through the operation's cursor and makes it
    /// the handle's frame.
    fn write_block0(&mut self, cursor: &mut BlockCursor<'_>, buf: Vec<u8>) -> IndexResult<()> {
        cursor.write(self.file, self.start, BlockKind::Leaf, &buf)?;
        self.block0 = BlockRef::from_vec(buf);
        Ok(())
    }

    /// Reads the slot at `slot` (entry may be a gap duplicate) through the
    /// operation's cursor ([`SlotArray::read`]).
    pub fn read_slot(&self, cursor: &mut BlockCursor<'_>, slot: u32) -> IndexResult<Entry> {
        self.slots(cursor.disk().block_size()).read(cursor, slot)
    }

    /// Writes the slot at `slot`: a read-modify-write of its block through
    /// the operation's cursor.
    pub fn write_slot(
        &self,
        cursor: &mut BlockCursor<'_>,
        slot: u32,
        entry: Entry,
    ) -> IndexResult<()> {
        let (block, idx) = self.slots(cursor.disk().block_size()).locate(slot);
        let mut buf = cursor.read(self.file, block, BlockKind::Leaf)?.to_vec();
        entries::put(&mut buf.as_chunks_mut().0[idx], entry);
        cursor.write(self.file, block, BlockKind::Leaf, &buf)?;
        Ok(())
    }

    /// The bitmap block at `offset` in the extent: the handle's own frame
    /// for the header block, a `Utility` read through `cursor` for a spill
    /// block.
    fn bitmap_block<'a>(
        &'a self,
        cursor: &'a mut BlockCursor<'_>,
        offset: u32,
    ) -> IndexResult<&'a BlockRef> {
        if offset == 0 {
            return Ok(&self.block0);
        }
        Ok(cursor.read(self.file, self.start + offset, BlockKind::Utility)?)
    }

    /// Sets the bitmap bit for `slot`: a write of the handle's block 0 with
    /// the bit patched into its frame, or a read-modify-write of a spill
    /// block through the operation's cursor.
    pub fn set_bit(
        &mut self,
        cursor: &mut BlockCursor<'_>,
        slot: u32,
        value: bool,
    ) -> IndexResult<()> {
        let (offset, bit) = bit_location(slot, cursor.disk().block_size());
        let mut buf = self.bitmap_block(cursor, offset)?.to_vec();
        if value {
            buf[bit / 8] |= 1 << (bit % 8);
        } else {
            buf[bit / 8] &= !(1 << (bit % 8));
        }
        if offset == 0 {
            return self.write_block0(cursor, buf);
        }
        cursor.write(self.file, self.start + offset, BlockKind::Utility, &buf)?;
        Ok(())
    }

    /// The leftmost slot whose key is `>= key`, or `capacity` if every slot
    /// key is smaller ([`SlotArray::lower_bound`]).
    pub fn lower_bound(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<u32> {
        self.slots(cursor.disk().block_size()).lower_bound(cursor, key)
    }

    /// The largest stored key, read from the last slot (one block read).
    ///
    /// The slot array is non-decreasing in key and every gap slot duplicates
    /// its nearest left real entry (trailing gaps duplicate the last real
    /// entry), so the final slot always carries the maximum real key —
    /// whether it is the real occurrence or a gap copy. Meaningless when the
    /// node is empty (`header.count == 0`).
    pub fn max_key(&self, cursor: &mut BlockCursor<'_>) -> IndexResult<Key> {
        Ok(self.read_slot(cursor, self.header.capacity.saturating_sub(1))?.0)
    }

    /// Point lookup ([`SlotArray::lookup`]); an empty node answers `None`
    /// without a read.
    pub fn lookup(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<Option<Value>> {
        if self.header.count == 0 {
            return Ok(None);
        }
        self.slots(cursor.disk().block_size()).lookup(cursor, key)
    }

    /// The slot nearest to `from` whose bitmap bit is `occupied`, searching
    /// from `from` toward `toward` (both inclusive, either direction) and no
    /// farther, or `None` if no slot of that range has it. The search tests
    /// a 64-bit word of a bitmap block at a time: the bits in block 0 come
    /// from the handle's frame, and each spill block it crosses is read once
    /// through `cursor`.
    pub fn find_bit(
        &self,
        cursor: &mut BlockCursor<'_>,
        from: u32,
        toward: u32,
        occupied: bool,
    ) -> IndexResult<Option<u32>> {
        let bs = cursor.disk().block_size();
        let up = toward >= from;
        let mut slot = from;
        loop {
            let (offset, bit) = bit_location(slot, bs);
            // The part of the range this bitmap block covers, walked a word
            // at a time. A word never straddles two blocks: the bitmap starts
            // at a multiple of 64 bits.
            let end = if up {
                toward.min(slot.saturating_add((bs * 8 - 1 - bit) as u32))
            } else {
                toward.max(slot.saturating_sub(bit as u32))
            };
            let buf = self.bitmap_block(cursor, offset)?;
            loop {
                let word_base = slot - slot % 64;
                let (lo, hi) = if up {
                    (slot - word_base, end.min(word_base + 63) - word_base)
                } else {
                    (end.max(word_base) - word_base, slot - word_base)
                };
                let word = bitmap_word(buf, bit_location(word_base, bs).1 / 64);
                let word = if occupied { word } else { !word };
                let hits = word & (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
                if hits != 0 {
                    let bit = if up { hits.trailing_zeros() } else { 63 - hits.leading_zeros() };
                    return Ok(Some(word_base + bit));
                }
                if up && word_base + 63 < end {
                    slot = word_base + 64;
                } else if !up && word_base > end {
                    slot = word_base - 1;
                } else {
                    break;
                }
            }
            if end == toward {
                return Ok(None);
            }
            slot = if up { end + 1 } else { end - 1 };
        }
    }

    /// The free slot the fresh key whose lower bound is `lb` shifts toward
    /// (ALEX's `closest_gap`): a gap `g >= lb` moves the slots `[lb, g)` one
    /// right, a gap `g < lb` moves the slots `(g, lb - 1]` one left, and the
    /// gap that moves fewer slots wins. A tie goes to the right gap, which is
    /// the order ALEX probes in (at distance `d` from `lb` it tries `lb - d`
    /// first, and a left gap there moves `d - 1` slots). The right side is
    /// searched first, and the left search stops once it would move as many
    /// slots. `None` means the bitmap shows no free slot at all.
    pub fn closest_gap(&self, cursor: &mut BlockCursor<'_>, lb: u32) -> IndexResult<Option<u32>> {
        let capacity = self.header.capacity;
        let right =
            if lb < capacity { self.find_bit(cursor, lb, capacity - 1, false)? } else { None };
        if lb == 0 || right == Some(lb) {
            return Ok(right);
        }
        // The left gaps that move strictly fewer slots than the right one.
        let floor = right.map_or(0, |gap| lb.saturating_sub(gap - lb));
        Ok(self.find_bit(cursor, lb - 1, floor, false)?.or(right))
    }

    /// Inserts the fresh `entry` whose lower bound is `lb` by shifting the
    /// occupied run between `lb` and the free slot `gap` one slot toward the
    /// gap, and returns the number of slots moved. Toward a right gap the
    /// run `[lb, gap)` moves right and the entry lands at `lb`; toward a
    /// left gap the run `(gap, lb - 1]` moves left and the entry lands at
    /// `lb - 1` (also for `lb == capacity`, a key after the node's last
    /// key). Either way the gap copies keep their meaning: the slots on the
    /// far side of the gap do not move, and the entries that move keep
    /// their order. Each touched slot block is read and written once.
    pub fn shift_insert(
        &self,
        cursor: &mut BlockCursor<'_>,
        lb: u32,
        gap: u32,
        entry: Entry,
    ) -> IndexResult<u32> {
        if gap >= lb {
            self.rewrite_slots(cursor, lb, gap, |run| {
                run.copy_within(..run.len() - SLOT_BYTES, SLOT_BYTES);
                entries::put(run.first_chunk_mut().expect("a run of slots"), entry);
            })?;
            Ok(gap - lb)
        } else {
            self.rewrite_slots(cursor, gap, lb - 1, |run| {
                run.copy_within(SLOT_BYTES.., 0);
                entries::put(run.last_chunk_mut().expect("a run of slots"), entry);
            })?;
            Ok(lb - 1 - gap)
        }
    }

    /// Writes `entry` into every slot of `lo..=hi` in one pass (a new first
    /// entry and the gap copies that follow it).
    pub fn fill_slots(
        &self,
        cursor: &mut BlockCursor<'_>,
        lo: u32,
        hi: u32,
        entry: Entry,
    ) -> IndexResult<()> {
        self.rewrite_slots(cursor, lo, hi, |run| {
            run.as_chunks_mut().0.iter_mut().for_each(|slot| entries::put(slot, entry))
        })
    }

    /// Rewrites the slots `lo..=hi`: reads each slot block of the run once
    /// through `cursor` (the first at a seek, the rest as the sequential
    /// extent they are), lets `edit` change the run's bytes, and writes each
    /// block once — the on-disk equivalent of ALEX's in-memory shift, whose
    /// cost is proportional to the blocks touched rather than the slots
    /// moved.
    fn rewrite_slots(
        &self,
        cursor: &mut BlockCursor<'_>,
        lo: u32,
        hi: u32,
        edit: impl FnOnce(&mut [u8]),
    ) -> IndexResult<()> {
        let bs = cursor.disk().block_size();
        let per_block = (bs / SLOT_BYTES) as u32;
        let first = self.slots(bs).locate(lo).0;
        let nblocks = hi / per_block - lo / per_block + 1;
        // The run's slot blocks are one contiguous extent: every block after
        // the first is a sequential read.
        let mut data = Vec::with_capacity(nblocks as usize * bs);
        for i in 0..nblocks {
            let hint = if i == 0 { SeqHint::Auto } else { SeqHint::Sequential };
            let block = cursor.read_hinted(self.file, first + i, BlockKind::Leaf, hint)?;
            data.extend_from_slice(block);
        }
        let base = lo - lo % per_block;
        edit(&mut data[(lo - base) as usize * SLOT_BYTES..(hi - base + 1) as usize * SLOT_BYTES]);
        for (i, block) in data.chunks_exact(bs).enumerate() {
            cursor.write(self.file, first + i as u32, BlockKind::Leaf, block)?;
        }
        Ok(())
    }

    /// Walks the real entries of the node in slot order starting at
    /// `from_slot`, appending those with keys `>= start` to `out` until it
    /// holds `limit` entries. Bitmap blocks and slot blocks are each fetched
    /// once and decoded in memory, so the I/O cost is `slots/B` slot blocks
    /// plus the covering spill blocks — the scan cost the paper attributes
    /// to ALEX (Table 2 / S3); the bits in block 0 come from the handle's
    /// frame, which the node's load already read. The fetches take
    /// `cursor`'s class: through a scan's cursor they are scan reads, so
    /// above queue depth 1 a miss also prefetches the blocks that follow it;
    /// an SMO collecting a node's entries on its insert's cursor reads
    /// point-class.
    pub fn scan_slots(
        &self,
        cursor: &mut BlockCursor<'_>,
        from_slot: u32,
        start: Key,
        limit: usize,
        out: &mut Vec<Entry>,
    ) -> IndexResult<()> {
        let bs = cursor.disk().block_size();
        let per_block = (bs / SLOT_BYTES) as u32;
        let slots = self.slots(bs);
        let mut bitmap_offset = 0;
        let mut bitmap = self.block0.clone();
        let mut slot = from_slot;
        while slot < self.header.capacity && out.len() < limit {
            // Fetch the bitmap block covering this slot if we do not already
            // hold it.
            let (offset, _) = bit_location(slot, bs);
            if offset != bitmap_offset {
                bitmap = self.bitmap_block(cursor, offset)?.clone();
                bitmap_offset = offset;
            }
            // Fetch the slot block and walk every slot it contains.
            let slot_block = slot / per_block;
            let buf = cursor.read(self.file, slots.locate(slot).0, BlockKind::Leaf)?;
            let block_end = ((slot_block + 1) * per_block).min(self.header.capacity);
            while slot < block_end && out.len() < limit {
                // The bitmap block can end before the slot block does.
                let (offset, bit) = bit_location(slot, bs);
                if offset != bitmap_offset {
                    break;
                }
                if bitmap[bit / 8] & (1 << (bit % 8)) != 0 {
                    let off = (slot % per_block) as usize * SLOT_BYTES;
                    let (k, v) = entries::get(&bytes_at(buf, off));
                    if k >= start {
                        out.push((k, v));
                    }
                }
                slot += 1;
            }
        }
        Ok(())
    }

    /// Collects all real entries in key order (bitmap-guided; used by SMOs
    /// and tests). Entries whose keys do not strictly increase mean a
    /// damaged bitmap or slot array: an error, not a node to rebuild from.
    pub fn collect_entries(
        &self,
        cursor: &mut BlockCursor<'_>,
        out: &mut Vec<Entry>,
    ) -> IndexResult<()> {
        self.scan_slots(cursor, 0, Key::MIN, usize::MAX, out)?;
        if let Some(w) = out.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(IndexError::Internal(format!(
                "ALEX data node at block {} holds key {} before key {}",
                self.start, w[0].0, w[1].0
            )));
        }
        Ok(())
    }

    /// Builds a brand-new data node extent from sorted `entries` with the
    /// given slot capacity, returning its handle. The caller provides the
    /// extent's start block (already allocated, `geometry.total_blocks()`
    /// blocks long).
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        disk: &Disk,
        file: u32,
        start: BlockId,
        capacity: u32,
        entries: &[Entry],
        prev: BlockId,
        next: BlockId,
    ) -> IndexResult<DataNode> {
        assert!(capacity as usize >= entries.len(), "capacity must hold all entries");
        let bs = disk.block_size();
        let geo = DataGeometry::for_capacity(capacity, bs);
        let keys: Vec<Key> = entries.iter().map(|e| e.0).collect();
        let model = LinearModel::fit_keys(&keys).rescale(entries.len().max(1), capacity as usize);

        // Model-based placement (ALEX's bulk-load strategy): every entry goes
        // to its predicted slot, pushed right past already-placed entries and
        // pulled left just enough to leave room for the entries still to come.
        // Entries are processed in key order, so slots at or beyond `cursor`
        // are always free and the real keys end up in sorted slot order.
        let mut slots: Vec<Option<Entry>> = vec![None; capacity as usize];
        let mut cursor = 0usize;
        for (i, &e) in entries.iter().enumerate() {
            let remaining = entries.len() - i;
            let predicted = model.predict_clamped(e.0, capacity as usize);
            let pos = predicted.max(cursor).min(capacity as usize - remaining);
            debug_assert!(slots[pos].is_none());
            slots[pos] = Some(e);
            cursor = pos + 1;
        }

        // Serialise the slot blocks, filling gaps with their left neighbour
        // (leading gaps duplicate the first entry).
        let per_block = bs / SLOT_BYTES;
        let first_entry = entries.first().copied().unwrap_or((0, 0));
        let mut fill = first_entry;
        // Pre-compute the gap fill for leading gaps by scanning once.
        let mut materialised: Vec<Entry> = Vec::with_capacity(capacity as usize);
        for s in slots.iter() {
            match s {
                Some(e) => {
                    fill = *e;
                    materialised.push(*e);
                }
                None => materialised.push(fill),
            }
        }
        // Leading gaps currently hold (0,0)-ish fill from before the first
        // real entry; rewrite them to duplicate the first real entry.
        for m in materialised.iter_mut() {
            if entries.is_empty() {
                break;
            }
            if m.0 < first_entry.0 {
                *m = first_entry;
            } else {
                break;
            }
        }
        let mut buf = vec![0u8; bs];
        for b in 0..geo.slot_blocks {
            buf.fill(0);
            for (i, slot) in buf.as_chunks_mut().0.iter_mut().enumerate() {
                let idx = b as usize * per_block + i;
                entries::put(slot, materialised.get(idx).copied().unwrap_or(fill));
            }
            disk.write(file, start + 1 + geo.bitmap_blocks + b, BlockKind::Leaf, &buf)?;
        }

        // Serialise the bitmap: one bit string after the header, over block
        // 0 and its spill blocks. The spill blocks are written first and
        // block 0, with the header, last.
        let mut block0 = vec![0u8; (1 + geo.bitmap_blocks as usize) * bs];
        for slot in (0..capacity).filter(|&s| slots[s as usize].is_some()) {
            let (offset, bit) = bit_location(slot, bs);
            block0[offset as usize * bs + bit / 8] |= 1 << (bit % 8);
        }
        let spill = block0.split_off(bs);
        for (b, block) in (1..).zip(spill.chunks_exact(bs)) {
            disk.write(file, start + b, BlockKind::Utility, block)?;
        }
        let header = DataHeader {
            capacity,
            count: entries.len() as u32,
            model,
            prev,
            next,
            num_inserts: 0,
            num_shifts: 0,
        };
        block0[..HEADER_BYTES].copy_from_slice(&header.encode()?);
        disk.write(file, start, BlockKind::Leaf, &block0)?;
        Ok(DataNode { file, start, header, block0: BlockRef::from_vec(block0) })
    }
}

/// The persistent header of an inner node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InnerHeader {
    /// Number of child entries.
    pub children: u32,
    /// Linear model mapping keys to child indexes.
    pub model: LinearModel,
}

/// A handle to one on-disk inner node.
#[derive(Debug, Clone)]
pub struct InnerNode {
    /// File holding the node.
    pub file: u32,
    /// First block of the extent.
    pub start: BlockId,
    /// The decoded header.
    pub header: InnerHeader,
}

/// Bytes of the inner-node header before the child entry array.
const INNER_HEADER_BYTES: usize = 4 + 4 + 8 + 8;

impl InnerNode {
    /// Number of child entries that fit into the first block.
    pub fn entries_in_first_block(block_size: usize) -> usize {
        (block_size - INNER_HEADER_BYTES) / CHILD_ENTRY_BYTES
    }

    /// Total blocks needed for an inner node with `children` entries.
    pub fn blocks_for(children: u32, block_size: usize) -> u32 {
        let in_first = Self::entries_in_first_block(block_size) as u32;
        if children <= in_first {
            1
        } else {
            1 + (children - in_first).div_ceil((block_size / CHILD_ENTRY_BYTES) as u32)
        }
    }

    /// Where child entry `idx` lives: its block and its byte offset there.
    fn entry_location(&self, idx: u32, block_size: usize) -> (BlockId, usize) {
        let in_first = Self::entries_in_first_block(block_size) as u32;
        if idx < in_first {
            return (self.start, INNER_HEADER_BYTES + idx as usize * CHILD_ENTRY_BYTES);
        }
        let rest = idx - in_first;
        let per_block = (block_size / CHILD_ENTRY_BYTES) as u32;
        (self.start + 1 + rest / per_block, (rest % per_block) as usize * CHILD_ENTRY_BYTES)
    }

    /// Reads the header of the inner node at `start` (one block read, which
    /// a following [`InnerNode::child_at`] in the header block shares). A
    /// block that is not an inner node's, or an inner node without
    /// children, is an error.
    pub fn load(cursor: &mut BlockCursor<'_>, file: u32, start: BlockId) -> IndexResult<Self> {
        let buf = cursor.read(file, start, BlockKind::Inner)?;
        let mut r = BlockReader::new(buf);
        let tag = r.get_u8()?;
        if tag != TAG_INNER {
            return Err(IndexError::Internal(format!("expected inner node tag, got {tag:#x}")));
        }
        r.get_u8()?;
        r.get_u16()?;
        let children = r.get_u32()?;
        if children == 0 {
            return Err(IndexError::Internal(format!("ALEX inner node at block {start} is empty")));
        }
        let slope = r.get_f64()?;
        let intercept = r.get_f64()?;
        Ok(InnerNode {
            file,
            start,
            header: InnerHeader { children, model: LinearModel::new(slope, intercept) },
        })
    }

    /// Writes a complete inner node (header plus child entries), charging
    /// one write per extent block.
    pub fn build(
        disk: &Disk,
        file: u32,
        start: BlockId,
        model: LinearModel,
        children: &[Child],
    ) -> IndexResult<InnerNode> {
        let bs = disk.block_size();
        let mut w = BlockWriter::new(INNER_HEADER_BYTES);
        w.put_u8(TAG_INNER)?;
        w.put_u8(0)?;
        w.put_u16(0)?;
        w.put_u32(children.len() as u32)?;
        w.put_f64(model.slope)?;
        w.put_f64(model.intercept)?;
        let node = InnerNode {
            file,
            start,
            header: InnerHeader { children: children.len() as u32, model },
        };
        let mut extent = vec![0u8; node.total_blocks(bs) as usize * bs];
        extent[..INNER_HEADER_BYTES].copy_from_slice(&w.finish());
        for (idx, child) in (0..).zip(children) {
            let (block, offset) = node.entry_location(idx, bs);
            let at = (block - start) as usize * bs + offset;
            extent[at..at + CHILD_ENTRY_BYTES].copy_from_slice(&child.encode());
        }
        for (block, buf) in (start..).zip(extent.chunks_exact(bs)) {
            disk.write(file, block, BlockKind::Inner, buf)?;
        }
        Ok(node)
    }

    /// Total blocks of this node's extent.
    pub fn total_blocks(&self, block_size: usize) -> u32 {
        Self::blocks_for(self.header.children, block_size)
    }

    /// Child index the model picks for `key`.
    pub fn child_index(&self, key: Key) -> u32 {
        self.header.model.predict_clamped(key, self.header.children as usize) as u32
    }

    /// Reads child entry `idx`. Costs one extra block read only when the
    /// entry lives outside the header block (or `cursor` no longer holds the
    /// header block).
    pub fn child_at(&self, cursor: &mut BlockCursor<'_>, idx: u32) -> IndexResult<Child> {
        let (block, offset) = self.entry_location(idx, cursor.disk().block_size());
        let buf = cursor.read(self.file, block, BlockKind::Inner)?;
        Child::decode(&buf[offset..offset + CHILD_ENTRY_BYTES])
    }

    /// Overwrites child entry `idx`: a read-modify-write through the
    /// operation's cursor.
    pub fn set_child(
        &self,
        cursor: &mut BlockCursor<'_>,
        idx: u32,
        child: Child,
    ) -> IndexResult<()> {
        let (block, offset) = self.entry_location(idx, cursor.disk().block_size());
        let mut buf = cursor.read(self.file, block, BlockKind::Inner)?.to_vec();
        buf[offset..offset + CHILD_ENTRY_BYTES].copy_from_slice(&child.encode());
        cursor.write(self.file, block, BlockKind::Inner, &buf)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidx_storage::{DiskConfig, INVALID_BLOCK};
    use std::sync::Arc;

    fn disk(bs: usize) -> Arc<Disk> {
        Disk::in_memory(DiskConfig::with_block_size(bs))
    }

    fn build_data(disk: &Disk, entries: &[Entry], capacity: u32) -> DataNode {
        let file = disk.create_file().unwrap();
        let geo = DataGeometry::for_capacity(capacity, disk.block_size());
        let start = disk.allocate(file, geo.total_blocks()).unwrap();
        DataNode::build(disk, file, start, capacity, entries, INVALID_BLOCK, INVALID_BLOCK).unwrap()
    }

    /// A child entry round-trips through its 24 bytes, an inner child as
    /// capacity 0 with a zero model; an inner entry that carries a model,
    /// or a slice of another length, is an error.
    #[test]
    fn child_entries_round_trip() {
        let model = LinearModel::new(0.125, -3.5);
        for child in [
            Child::Inner(0),
            Child::Inner(12345),
            Child::Inner(u32::MAX),
            Child::Data(DataRoute { block: 0, capacity: 16, model }),
            Child::Data(DataRoute { block: u32::MAX, capacity: u32::MAX, model }),
        ] {
            let bytes = child.encode();
            assert_eq!(Child::decode(&bytes).unwrap(), child);
        }
        let mut bytes = Child::Inner(7).encode();
        bytes[20] = 1;
        let forged = Child::decode(&bytes);
        assert!(matches!(forged, Err(IndexError::Internal(_))), "{forged:?}");
        for len in [0, CHILD_ENTRY_BYTES - 1, CHILD_ENTRY_BYTES + 1] {
            let cut = Child::decode(&vec![0; len]);
            assert!(matches!(cut, Err(IndexError::Internal(_))), "{len} bytes: {cut:?}");
        }
    }

    /// A data entry read from an inner node gives the node's slot array
    /// only if its extent ends inside the file: a capacity or a start block
    /// that runs past the end is an `Internal` error, not a read of blocks
    /// that do not exist.
    #[test]
    fn a_data_entry_whose_extent_runs_past_the_file_is_an_error() {
        let d = disk(512);
        let entries: Vec<Entry> = (0..50u64).map(|i| (i * 100, i)).collect();
        let data = build_data(&d, &entries, 128);
        let route = data.route();
        let start = d.allocate(data.file, 1).unwrap();
        let file_blocks = d.num_blocks(data.file).unwrap();
        // The extent may end exactly at the file's end: 32 slots per block.
        let max_capacity = (file_blocks - route.block - 1) * 32;
        let children = [
            Child::Data(route),
            Child::Data(DataRoute { capacity: max_capacity, ..route }),
            Child::Data(DataRoute { capacity: max_capacity + 1, ..route }),
            Child::Data(DataRoute { capacity: u32::MAX, ..route }),
            Child::Data(DataRoute { block: file_blocks, ..route }),
            Child::Data(DataRoute { block: u32::MAX, ..route }),
        ];
        let model = LinearModel::new(0.0, 0.0);
        let node = InnerNode::build(&d, data.file, start, model, &children).unwrap();
        for (idx, child) in (0..).zip(children) {
            assert_eq!(node.child_at(&mut d.cursor(), idx).unwrap(), child);
            let Child::Data(route) = child else { unreachable!("every child is a data entry") };
            let slots = route.slots(&d, data.file);
            if idx < 2 {
                let found = slots.unwrap().lookup(&mut d.cursor(), 4_900).unwrap();
                assert_eq!(found, Some(49), "entry {idx}");
            } else {
                assert!(matches!(slots, Err(IndexError::Internal(_))), "entry {idx}: {slots:?}");
            }
        }
    }

    /// The bitmap fills block 0's tail first: a node spills into a bitmap
    /// block of its own only past `(bs - HEADER_BYTES)·8` slots.
    #[test]
    fn geometry_accounts_header_bitmap_and_slots() {
        let g = DataGeometry::for_capacity(1024, 4096);
        assert_eq!(g.bitmap_blocks, 0);
        assert_eq!(g.slot_blocks, 4);
        assert_eq!(g.total_blocks(), 5);
        let g = DataGeometry::for_capacity(100_000, 4096);
        assert_eq!(g.bitmap_blocks, 3);
        assert_eq!(g.slot_blocks, 391);
        assert_eq!(g.total_blocks(), 395);
        for bs in [512, 4096] {
            let in_block0 = ((bs - HEADER_BYTES) * 8) as u32;
            assert_eq!(DataGeometry::for_capacity(in_block0, bs).bitmap_blocks, 0, "{bs}");
            assert_eq!(DataGeometry::for_capacity(in_block0 + 1, bs).bitmap_blocks, 1, "{bs}");
            let two = in_block0 + (bs * 8) as u32;
            assert_eq!(DataGeometry::for_capacity(two, bs).bitmap_blocks, 1, "{bs}");
            assert_eq!(DataGeometry::for_capacity(two + 1, bs).bitmap_blocks, 2, "{bs}");
        }
        assert_eq!(bit_location(0, 4096), (0, HEADER_BYTES * 8));
        assert_eq!(bit_location(32_319, 4096), (0, 4096 * 8 - 1));
        assert_eq!(bit_location(32_320, 4096), (1, 0));
    }

    /// A header write patches block 0's header bytes into the handle's frame:
    /// one block write, no read, and the bitmap bits beside the header stay.
    #[test]
    fn a_header_write_keeps_the_bitmap_in_its_block() {
        let d = disk(512);
        let entries: Vec<Entry> = (0..50u64).map(|i| (i * 100, i)).collect();
        let mut node = build_data(&d, &entries, 128);
        let gap = node.find_bit(&mut d.cursor(), 0, 127, false).unwrap().expect("a gap");
        node.set_bit(&mut d.cursor(), gap, true).unwrap();
        node.header.num_inserts = 7;
        d.stats().reset();
        node.write_header(&mut d.cursor()).unwrap();
        let s = d.snapshot();
        assert_eq!((s.reads(), s.writes_of(BlockKind::Leaf), s.writes()), (0, 1, 1));
        let reloaded = DataNode::load(&mut d.cursor(), node.file, node.start).unwrap();
        assert_eq!(reloaded.header, node.header);
        assert_eq!(reloaded.find_bit(&mut d.cursor(), gap, gap, true).unwrap(), Some(gap));
        let bits = |n: &DataNode| n.find_bit(&mut d.cursor(), 0, 127, true).unwrap();
        assert_eq!(bits(&reloaded), bits(&node));
    }

    #[test]
    fn data_node_build_lookup_roundtrip() {
        let d = disk(512);
        let entries: Vec<Entry> = (0..500u64).map(|i| (i * 7 + 3, i)).collect();
        let node = build_data(&d, &entries, 800);
        assert_eq!(node.header.count, 500);
        // Header survives a reload.
        let reloaded = DataNode::load(&mut d.cursor(), node.file, node.start).unwrap();
        assert_eq!(reloaded.header, node.header);
        for &(k, v) in entries.iter().step_by(17) {
            assert_eq!(node.lookup(&mut d.cursor(), k).unwrap(), Some(v), "key {k}");
        }
        assert_eq!(node.lookup(&mut d.cursor(), 1).unwrap(), None);
        assert_eq!(node.lookup(&mut d.cursor(), 4).unwrap(), None);
        assert_eq!(node.lookup(&mut d.cursor(), 10_000).unwrap(), None);
    }

    #[test]
    fn collect_entries_returns_sorted_originals() {
        let d = disk(512);
        let entries: Vec<Entry> = (0..300u64).map(|i| (i * i + 1, i)).collect();
        let node = build_data(&d, &entries, 512);
        let mut out = Vec::new();
        node.collect_entries(&mut d.cursor(), &mut out).unwrap();
        assert_eq!(out, entries);
    }

    /// A shift moves the run one slot toward its gap across block
    /// boundaries, in either direction, with the entry written into the same
    /// buffer: it reads each affected slot block once — the first at a seek,
    /// the rest as the sequential extent they are, even past a pool hit — and
    /// writes each once.
    #[test]
    fn shift_insert_reads_and_writes_each_block_once() {
        let model = lidx_storage::DeviceModel::custom("t", 100, 10, 7);
        let d = Disk::in_memory(DiskConfig::with_block_size(512).device(model).buffer_blocks(8));
        let entries: Vec<Entry> = (0..90u64).map(|i| (i * 5 + 1, i)).collect();
        let node = build_data(&d, &entries, 128);
        let slots = |d: &Disk| -> Vec<Entry> {
            (0..128).map(|s| node.read_slot(&mut d.cursor(), s).unwrap()).collect()
        };
        let entry = (7, 7);
        // (lb, gap): slots 10..=70 span the first three of the four 32-slot
        // blocks; only the middle one is pooled.
        for (lb, gap) in [(10, 70), (71, 10)] {
            let before = slots(&d);
            let (first, _) = node.slots(512).locate(10);
            d.clear_buffer();
            d.cursor().read(node.file, first + 1, BlockKind::Leaf).unwrap();
            d.stats().reset();
            d.reset_access_state();
            let moved = node.shift_insert(&mut d.cursor(), lb, gap, entry).unwrap();
            assert_eq!(moved, 60);
            let s = d.snapshot();
            assert_eq!((s.reads(), s.buffer_hits, s.writes()), (2, 1, 3), "lb {lb}");
            assert_eq!(s.device_ns, 100 + 7 + 3 * 10, "a seek, then a sequential read");
            let after = slots(&d);
            assert_eq!(after[..10], before[..10]);
            assert_eq!(after[71..], before[71..]);
            if gap > lb {
                assert_eq!(after[10], entry);
                assert_eq!(after[11..=70], before[10..70]);
            } else {
                assert_eq!(after[10..70], before[11..=70]);
                assert_eq!(after[70], entry);
            }
        }
    }

    /// Writes `bits` as the bitmap of `node` (block 0's tail and its spill
    /// blocks, the header bytes kept) straight to the disk, and returns the
    /// node reloaded.
    fn forge_bitmap(d: &Disk, node: &DataNode, bits: &[bool]) -> DataNode {
        let bs = d.block_size();
        let blocks = 1 + node.geometry(bs).bitmap_blocks as usize;
        let mut buf = vec![0u8; blocks * bs];
        buf[..HEADER_BYTES].copy_from_slice(&node.header.encode().unwrap());
        for (slot, _) in bits.iter().enumerate().filter(|(_, &bit)| bit) {
            let (offset, bit) = bit_location(slot as u32, bs);
            buf[offset as usize * bs + bit / 8] |= 1 << (bit % 8);
        }
        for (b, block) in (0..).zip(buf.chunks_exact(bs)) {
            let kind = if b == 0 { BlockKind::Leaf } else { BlockKind::Utility };
            d.write(node.file, node.start + b, kind, block).unwrap();
        }
        DataNode::load(&mut d.cursor(), node.file, node.start).unwrap()
    }

    /// `find_bit` and `closest_gap` walk the bitmap a word at a time across
    /// bitmap-block boundaries, from block 0's tail into the spill blocks,
    /// and agree with a slot-by-slot reading of it. The pattern and its
    /// complement both run, so a walk that read a boundary slot's bit from
    /// the wrong block (or from the header) disagrees in one of them.
    #[test]
    fn gap_search_matches_a_bit_by_bit_search() {
        // 64-byte blocks: block 0 keeps 64 bits beside its 56-byte header
        // and each spill block 512, so 1 100 slots end in the third spill
        // block (block boundaries at slots 64, 576 and 1 088).
        let d = disk(64);
        let empty = build_data(&d, &[], 1_100);
        assert_eq!(empty.geometry(64).bitmap_blocks, 3);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        // Mostly set, with gaps; the first spill block has none.
        let pattern: Vec<bool> = (0..1_100)
            .map(|s| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                !x.is_multiple_of(4) || (64..576).contains(&s)
            })
            .collect();
        for invert in [false, true] {
            let bits: Vec<bool> = pattern.iter().map(|&bit| bit != invert).collect();
            let node = forge_bitmap(&d, &empty, &bits);
            let naive = |from: u32, toward: u32, want: bool| -> Option<u32> {
                let hit = |&s: &u32| bits[s as usize] == want;
                if toward >= from {
                    (from..=toward).find(hit)
                } else {
                    (toward..=from).rev().find(hit)
                }
            };
            let probes =
                [0u32, 1, 63, 64, 65, 300, 511, 512, 575, 576, 577, 700, 1_087, 1_088, 1_099];
            for &from in &probes {
                for &toward in &probes {
                    for want in [false, true] {
                        let got = node.find_bit(&mut d.cursor(), from, toward, want).unwrap();
                        let expected = naive(from, toward, want);
                        assert_eq!(got, expected, "{from} -> {toward}, {want}, inverted {invert}");
                    }
                }
            }
            for lb in (0..=1_100).step_by(7) {
                let right = if lb < 1_100 { naive(lb, 1_099, false) } else { None };
                let left = if lb > 0 { naive(lb - 1, 0, false) } else { None };
                let want = match (left, right) {
                    (Some(l), Some(r)) if lb - 1 - l < r - lb => Some(l),
                    (l, None) => l,
                    (_, r) => r,
                };
                let got = node.closest_gap(&mut d.cursor(), lb).unwrap();
                assert_eq!(got, want, "lb {lb}, inverted {invert}");
            }
        }
    }

    /// A header that cannot describe its node is an error at load: a count
    /// above the capacity, a capacity whose extent runs past the end of the
    /// file, or a block that is not a data node's.
    #[test]
    fn a_header_that_does_not_fit_its_node_is_an_error() {
        let d = disk(512);
        let entries: Vec<Entry> = (0..50u64).map(|i| (i * 100, i)).collect();
        let node = build_data(&d, &entries, 128);
        let forged = |header: DataHeader| {
            let mut block0 =
                d.cursor().read(node.file, node.start, BlockKind::Leaf).unwrap().to_vec();
            block0[..HEADER_BYTES].copy_from_slice(&header.encode().unwrap());
            d.write(node.file, node.start, BlockKind::Leaf, &block0).unwrap();
            DataNode::load(&mut d.cursor(), node.file, node.start)
        };
        // The extent may end exactly at the file's end: 32 slots per block.
        let max_capacity = (d.num_blocks(node.file).unwrap() - node.start - 1) * 32;
        let h = node.header;
        for header in
            [h, DataHeader { count: h.capacity, ..h }, DataHeader { capacity: max_capacity, ..h }]
        {
            assert!(forged(header).is_ok(), "{header:?}");
        }
        for (what, header) in [
            ("count above capacity", DataHeader { count: h.capacity + 1, ..h }),
            ("extent past the file", DataHeader { capacity: max_capacity + 1, ..h }),
            ("a huge capacity", DataHeader { capacity: u32::MAX, ..h }),
        ] {
            let loaded = forged(header);
            assert!(matches!(loaded, Err(IndexError::Internal(_))), "{what}: {loaded:?}");
        }
        let mut block0 = vec![0u8; 512];
        block0[0] = TAG_INNER;
        d.write(node.file, node.start, BlockKind::Leaf, &block0).unwrap();
        let loaded = DataNode::load(&mut d.cursor(), node.file, node.start);
        assert!(matches!(loaded, Err(IndexError::Internal(_))), "an inner node's tag: {loaded:?}");
    }

    #[test]
    fn bitmap_bits_match_occupancy() {
        let d = disk(512);
        let entries: Vec<Entry> = (0..50u64).map(|i| (i * 100, i)).collect();
        let mut node = build_data(&d, &entries, 128);
        let bit =
            |node: &DataNode, s| node.find_bit(&mut d.cursor(), s, s, true).unwrap() == Some(s);
        assert_eq!((0..node.header.capacity).filter(|&s| bit(&node, s)).count(), 50);
        // Setting a gap's bit round-trips.
        let gap = node.find_bit(&mut d.cursor(), 0, node.header.capacity - 1, false).unwrap();
        let gap = gap.expect("78 of the 128 slots are gaps");
        node.set_bit(&mut d.cursor(), gap, true).unwrap();
        assert!(bit(&node, gap));
    }

    #[test]
    fn lower_bound_is_consistent_with_slot_order() {
        let d = disk(512);
        let entries: Vec<Entry> = (0..400u64).map(|i| (i * 3 + 10, i)).collect();
        let node = build_data(&d, &entries, 600);
        for probe in [0u64, 10, 11, 500, 1_207, 1_209, 5_000] {
            let lb = node.lower_bound(&mut d.cursor(), probe).unwrap();
            // Every slot before lb holds a key < probe and lb (if valid) holds
            // a key >= probe.
            if lb < node.header.capacity {
                assert!(node.read_slot(&mut d.cursor(), lb).unwrap().0 >= probe);
            }
            if lb > 0 {
                assert!(node.read_slot(&mut d.cursor(), lb - 1).unwrap().0 < probe);
            }
        }
    }

    #[test]
    fn empty_data_node_is_harmless() {
        let d = disk(512);
        let node = build_data(&d, &[], 64);
        assert_eq!(node.header.count, 0);
        assert_eq!(node.lookup(&mut d.cursor(), 5).unwrap(), None);
        let mut out = Vec::new();
        node.collect_entries(&mut d.cursor(), &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn inner_node_routes_and_updates_children() {
        let d = disk(512);
        let file = d.create_file().unwrap();
        // 200 children: 20 entries in the first 512-byte block, 21 in each
        // of the nine that follow.
        let children: Vec<Child> = (0..200u32)
            .map(|i| {
                let model = LinearModel::new(f64::from(i) / 8.0, -f64::from(i));
                let route = DataRoute { block: i * 10, capacity: 16 + i, model };
                if i % 2 == 0 {
                    Child::Data(route)
                } else {
                    Child::Inner(i * 10)
                }
            })
            .collect();
        let blocks = InnerNode::blocks_for(200, 512);
        assert_eq!((InnerNode::entries_in_first_block(512), blocks), (20, 10));
        let start = d.allocate(file, blocks).unwrap();
        let model = LinearModel::new(200.0 / 2_000.0, 0.0); // keys 0..2000 -> 0..200
        let node = InnerNode::build(&d, file, start, model, &children).unwrap();
        assert_eq!(node.total_blocks(512), blocks);

        let reloaded = InnerNode::load(&mut d.cursor(), file, start).unwrap();
        assert_eq!(reloaded.header.children, 200);
        for idx in [0u32, 1, 19, 20, 40, 41, 57, 63, 64, 150, 199] {
            assert_eq!(reloaded.child_at(&mut d.cursor(), idx).unwrap(), children[idx as usize]);
        }
        assert_eq!(reloaded.child_index(0), 0);
        assert_eq!(reloaded.child_index(1_000), 100);
        assert_eq!(reloaded.child_index(1_000_000), 199, "predictions clamp to the last child");

        let model = LinearModel::new(2.0, 1.0);
        let new_child = Child::Data(DataRoute { block: 9999, capacity: 64, model });
        reloaded.set_child(&mut d.cursor(), 150, new_child).unwrap();
        assert_eq!(reloaded.child_at(&mut d.cursor(), 150).unwrap(), new_child);
        assert_eq!(reloaded.child_at(&mut d.cursor(), 149).unwrap(), children[149]);
    }
}
