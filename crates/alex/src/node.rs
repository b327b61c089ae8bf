//! On-disk node formats for ALEX.
//!
//! # Data node extent
//!
//! ```text
//! block 0            : header (model, capacity, count, stats, sibling links)
//! blocks 1..1+BM     : bitmap, 1 bit per slot (BM = ceil(capacity / (8·bs)))
//! blocks 1+BM..      : slots, 16 bytes each (gapped array)
//! ```
//!
//! Gap slots duplicate their nearest left real entry (leading gaps duplicate
//! the first real entry), so point lookups never need the bitmap — the disk
//! translation of ALEX's "overwrite preceding empty slots" trick (S5). The
//! bitmap is only consulted by inserts (to find gaps) and scans (to skip
//! duplicates), which is exactly where the paper locates ALEX's utility
//! overhead (S3).
//!
//! # Inner node extent
//!
//! ```text
//! block 0            : header (model, child count) + as many child pointers as fit
//! blocks 1..         : remaining child pointers
//! ```
//!
//! A child pointer packs "is data node" into bit 63 and the child's start
//! block into the low 32 bits.

use lidx_core::{Entry, IndexError, IndexResult, Key, Value};
use lidx_models::LinearModel;
use lidx_storage::{
    AccessClass, BlockCursor, BlockId, BlockKind, BlockReader, BlockWriter, Disk, SeqHint,
};

/// Size of one slot in bytes.
pub const SLOT_BYTES: usize = 16;

const TAG_DATA: u8 = 0xD1;
const TAG_INNER: u8 = 0xA1;

/// A packed child pointer: data/inner flag plus start block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildPtr {
    /// True if the child is a data node.
    pub is_data: bool,
    /// First block of the child's extent.
    pub block: BlockId,
}

impl ChildPtr {
    /// Packs the pointer into a `u64`.
    pub fn pack(self) -> u64 {
        (u64::from(self.is_data) << 63) | u64::from(self.block)
    }

    /// Unpacks a pointer from a `u64`. A stored pointer with any of bits
    /// 32–62 set names no block id: that is an error, not a pointer silently
    /// truncated to another block.
    pub fn unpack(raw: u64) -> IndexResult<Self> {
        let block = BlockId::try_from(raw & !(1 << 63)).map_err(|_| {
            IndexError::Internal(format!("ALEX child pointer {raw:#x} is not a block id"))
        })?;
        Ok(ChildPtr { is_data: raw >> 63 == 1, block })
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
    /// Statistics maintained for the cost model (updated on every insert —
    /// the maintenance overhead of Fig. 6).
    pub num_inserts: u64,
    /// Total slots shifted by inserts into this node.
    pub num_shifts: u64,
    /// Lookups served by this node (the paper notes ALEX would even update
    /// this on reads; our implementation follows the paper's optimisation of
    /// not persisting it for read-only queries).
    pub num_lookups: u64,
}

impl DataHeader {
    fn encode(&self, block_size: usize) -> IndexResult<Vec<u8>> {
        let mut w = BlockWriter::new(block_size);
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
        w.put_u64(self.num_lookups)?;
        Ok(w.finish())
    }

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
            num_lookups: r.get_u64()?,
        })
    }
}

/// Geometry of a data node extent for a given block size and capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataGeometry {
    /// Blocks used by the bitmap.
    pub bitmap_blocks: u32,
    /// Blocks used by the slot array.
    pub slot_blocks: u32,
}

impl DataGeometry {
    /// Computes the geometry for `capacity` slots.
    pub fn for_capacity(capacity: u32, block_size: usize) -> Self {
        let bitmap_blocks = (capacity as usize).div_ceil(block_size * 8) as u32;
        let slots_per_block = block_size / SLOT_BYTES;
        let slot_blocks = (capacity as usize).div_ceil(slots_per_block).max(1) as u32;
        DataGeometry { bitmap_blocks, slot_blocks }
    }

    /// Total blocks of the extent (header + bitmap + slots).
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
}

impl DataNode {
    /// Reads the header of the data node at `start` through the
    /// operation's cursor (one block read).
    pub fn load(cursor: &mut BlockCursor<'_>, file: u32, start: BlockId) -> IndexResult<Self> {
        let buf = cursor.read(file, start, BlockKind::Leaf)?;
        Self::from_header_bytes(file, start, buf)
    }

    /// Builds a handle from an already-fetched header block (e.g. one
    /// delivered by a read-queue completion wave), avoiding a second read.
    pub fn from_header_bytes(file: u32, start: BlockId, buf: &[u8]) -> IndexResult<Self> {
        Ok(DataNode { file, start, header: DataHeader::decode(buf)? })
    }

    /// The extent geometry implied by the header.
    pub fn geometry(&self, block_size: usize) -> DataGeometry {
        DataGeometry::for_capacity(self.header.capacity, block_size)
    }

    /// Total blocks of this node's extent.
    pub fn total_blocks(&self, block_size: usize) -> u32 {
        self.geometry(block_size).total_blocks()
    }

    /// Persists the header (one block write).
    pub fn write_header(&self, cursor: &mut BlockCursor<'_>) -> IndexResult<()> {
        let buf = self.header.encode(cursor.disk().block_size())?;
        cursor.write(self.file, self.start, BlockKind::Leaf, &buf)?;
        Ok(())
    }

    fn slot_block(&self, slot: u32, disk: &Disk) -> (BlockId, usize) {
        let per_block = (disk.block_size() / SLOT_BYTES) as u32;
        let geo = self.geometry(disk.block_size());
        (self.start + 1 + geo.bitmap_blocks + slot / per_block, (slot % per_block) as usize)
    }

    /// Absolute block id holding `slot` — the prefetch target for batched
    /// lookups that wave the predicted slot blocks before probing.
    pub fn slot_block_id(&self, disk: &Disk, slot: u32) -> BlockId {
        self.slot_block(slot, disk).0
    }

    /// Reads the slot at `slot` (entry may be a gap duplicate) through the
    /// operation's cursor: the slots a walk reads in one block cost one disk
    /// read.
    pub fn read_slot(&self, cursor: &mut BlockCursor<'_>, slot: u32) -> IndexResult<Entry> {
        let (block, idx) = self.slot_block(slot, cursor.disk());
        let buf = cursor.read(self.file, block, BlockKind::Leaf)?;
        let off = idx * SLOT_BYTES;
        Ok((
            Key::from_le_bytes(buf[off..off + 8].try_into().unwrap()),
            Value::from_le_bytes(buf[off + 8..off + 16].try_into().unwrap()),
        ))
    }

    /// Writes the slot at `slot`: a read-modify-write of its block through
    /// the operation's cursor.
    pub fn write_slot(
        &self,
        cursor: &mut BlockCursor<'_>,
        slot: u32,
        entry: Entry,
    ) -> IndexResult<()> {
        let (block, idx) = self.slot_block(slot, cursor.disk());
        let mut buf = cursor.read(self.file, block, BlockKind::Leaf)?.to_vec();
        let off = idx * SLOT_BYTES;
        buf[off..off + 8].copy_from_slice(&entry.0.to_le_bytes());
        buf[off + 8..off + 16].copy_from_slice(&entry.1.to_le_bytes());
        cursor.write(self.file, block, BlockKind::Leaf, &buf)?;
        Ok(())
    }

    /// The bitmap block holding `slot`'s bit (charged as a utility block),
    /// and the bit's index inside it.
    fn bit_block(&self, slot: u32, block_size: usize) -> (BlockId, usize) {
        let bits = block_size * 8;
        (self.start + 1 + slot / bits as u32, slot as usize % bits)
    }

    /// Reads the bitmap bit for `slot`: a gap search over one bitmap block
    /// costs one disk read through the operation's cursor.
    pub fn read_bit(&self, cursor: &mut BlockCursor<'_>, slot: u32) -> IndexResult<bool> {
        let (block, bit) = self.bit_block(slot, cursor.disk().block_size());
        let buf = cursor.read(self.file, block, BlockKind::Utility)?;
        Ok(buf[bit / 8] & (1 << (bit % 8)) != 0)
    }

    /// Sets the bitmap bit for `slot`: a read-modify-write through the
    /// operation's cursor.
    pub fn set_bit(&self, cursor: &mut BlockCursor<'_>, slot: u32, value: bool) -> IndexResult<()> {
        let (block, bit) = self.bit_block(slot, cursor.disk().block_size());
        let mut buf = cursor.read(self.file, block, BlockKind::Utility)?.to_vec();
        if value {
            buf[bit / 8] |= 1 << (bit % 8);
        } else {
            buf[bit / 8] &= !(1 << (bit % 8));
        }
        cursor.write(self.file, block, BlockKind::Utility, &buf)?;
        Ok(())
    }

    /// Predicted slot of `key`, clamped to the capacity.
    pub fn predict(&self, key: Key) -> u32 {
        self.header.model.predict_clamped(key, self.header.capacity as usize) as u32
    }

    /// Finds the leftmost slot whose key is `>= key` using exponential search
    /// from the model's prediction, as ALEX does. Returns `capacity` if every
    /// slot key is smaller. The probes read through `cursor`, so the probes
    /// that land in one slot block cost one disk read.
    pub fn lower_bound(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<u32> {
        let n = self.header.capacity;
        if n == 0 {
            return Ok(0);
        }
        let pred = self.predict(key);
        let mut at = |s: u32| -> IndexResult<Key> { Ok(self.read_slot(cursor, s)?.0) };

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

    /// Point lookup. Gap slots duplicate the payload of the real entry they
    /// copy, so no bitmap access is required. The search and the final slot
    /// read share `cursor`.
    pub fn lookup(&self, cursor: &mut BlockCursor<'_>, key: Key) -> IndexResult<Option<Value>> {
        if self.header.count == 0 {
            return Ok(None);
        }
        let slot = self.lower_bound(cursor, key)?;
        if slot >= self.header.capacity {
            return Ok(None);
        }
        let (k, v) = self.read_slot(cursor, slot)?;
        Ok((k == key).then_some(v))
    }

    /// Shifts the slots `[from, gap)` one position to the right (slot `gap`
    /// is overwritten), reading and writing each affected slot block exactly
    /// once — the on-disk equivalent of ALEX's in-memory shift, whose cost is
    /// proportional to the blocks touched rather than the slots moved.
    pub fn shift_right(
        &self,
        cursor: &mut BlockCursor<'_>,
        from: u32,
        gap: u32,
    ) -> IndexResult<()> {
        if gap <= from {
            return Ok(());
        }
        let bs = cursor.disk().block_size();
        let per_block = (bs / SLOT_BYTES) as u32;
        let geo = self.geometry(bs);
        let first = self.start + 1 + geo.bitmap_blocks + from / per_block;
        let nblocks = gap / per_block - from / per_block + 1;
        // The affected slot blocks are one contiguous extent: every block
        // after the first is a sequential read.
        let mut data = Vec::with_capacity(nblocks as usize * bs);
        for i in 0..nblocks {
            let hint = if i == 0 { SeqHint::Auto } else { SeqHint::Sequential };
            data.extend_from_slice(cursor.read_hinted(
                self.file,
                first + i,
                BlockKind::Leaf,
                AccessClass::Point,
                hint,
            )?);
        }
        let rel_from = (from % per_block) as usize * SLOT_BYTES;
        let rel_gap = (gap - from / per_block * per_block) as usize * SLOT_BYTES;
        data.copy_within(rel_from..rel_gap, rel_from + SLOT_BYTES);
        for (i, block) in data.chunks_exact(bs).enumerate() {
            cursor.write(self.file, first + i as u32, BlockKind::Leaf, block)?;
        }
        Ok(())
    }

    /// Walks the real entries of the node in slot order starting at
    /// `from_slot`, appending those with keys `>= start` to `out` until it
    /// holds `limit` entries. Bitmap blocks and slot blocks are each fetched
    /// once and decoded in memory, so the I/O cost is `slots/B` slot blocks
    /// plus the covering bitmap blocks — the scan cost the paper attributes
    /// to ALEX (Table 2 / S3). Every fetch is tagged scan-class, so at queue
    /// depth > 1 a miss also prefetches the blocks that follow it.
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
        let bits_per_block = (bs * 8) as u32;
        let geo = self.geometry(bs);
        let mut bitmap_block_idx = u32::MAX;
        let mut bitmap_frame: Option<lidx_storage::BlockRef> = None;
        let mut slot = from_slot;
        while slot < self.header.capacity && out.len() < limit {
            // Fetch the bitmap block covering this slot if we do not already
            // hold it (charged as a utility block).
            let needed_bitmap = slot / bits_per_block;
            if needed_bitmap != bitmap_block_idx {
                bitmap_frame = Some(
                    cursor
                        .read_class(
                            self.file,
                            self.start + 1 + needed_bitmap,
                            BlockKind::Utility,
                            AccessClass::Scan,
                        )?
                        .clone(),
                );
                bitmap_block_idx = needed_bitmap;
            }
            let bitmap = bitmap_frame.as_deref().expect("bitmap block pinned");
            // Fetch the slot block and walk every slot it contains.
            let slot_block = slot / per_block;
            let buf = cursor.read_class(
                self.file,
                self.start + 1 + geo.bitmap_blocks + slot_block,
                BlockKind::Leaf,
                AccessClass::Scan,
            )?;
            let block_end = ((slot_block + 1) * per_block).min(self.header.capacity);
            while slot < block_end && out.len() < limit {
                // The bitmap block can end before the slot block does.
                if slot / bits_per_block != bitmap_block_idx {
                    break;
                }
                let bit = (slot % bits_per_block) as usize;
                if bitmap[bit / 8] & (1 << (bit % 8)) != 0 {
                    let off = (slot % per_block) as usize * SLOT_BYTES;
                    let k = Key::from_le_bytes(buf[off..off + 8].try_into().unwrap());
                    if k >= start {
                        let v = Value::from_le_bytes(buf[off + 8..off + 16].try_into().unwrap());
                        out.push((k, v));
                    }
                }
                slot += 1;
            }
        }
        Ok(())
    }

    /// Collects all real entries in key order (bitmap-guided; used by scans,
    /// SMOs and tests).
    pub fn collect_entries(
        &self,
        cursor: &mut BlockCursor<'_>,
        out: &mut Vec<Entry>,
    ) -> IndexResult<()> {
        self.scan_slots(cursor, 0, Key::MIN, usize::MAX, out)?;
        debug_assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "slots must be strictly increasing");
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
            for i in 0..per_block {
                let idx = b as usize * per_block + i;
                let e = materialised.get(idx).copied().unwrap_or(fill);
                let off = i * SLOT_BYTES;
                buf[off..off + 8].copy_from_slice(&e.0.to_le_bytes());
                buf[off + 8..off + 16].copy_from_slice(&e.1.to_le_bytes());
            }
            disk.write(file, start + 1 + geo.bitmap_blocks + b, BlockKind::Leaf, &buf)?;
        }

        // Serialise the bitmap blocks.
        for b in 0..geo.bitmap_blocks {
            buf.fill(0);
            for bit in 0..bs * 8 {
                let slot = b as usize * bs * 8 + bit;
                if slot < capacity as usize && slots[slot].is_some() {
                    buf[bit / 8] |= 1 << (bit % 8);
                }
            }
            disk.write(file, start + 1 + b, BlockKind::Utility, &buf)?;
        }

        let node = DataNode {
            file,
            start,
            header: DataHeader {
                capacity,
                count: entries.len() as u32,
                model,
                prev,
                next,
                num_inserts: 0,
                num_shifts: 0,
                num_lookups: 0,
            },
        };
        let buf = node.header.encode(bs)?;
        disk.write(file, start, BlockKind::Leaf, &buf)?;
        Ok(node)
    }
}

/// The persistent header of an inner node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InnerHeader {
    /// Number of child pointers.
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

/// Bytes of the inner-node header before the child pointer array.
const INNER_HEADER_BYTES: usize = 4 + 4 + 8 + 8;

impl InnerNode {
    /// Number of child pointers that fit into the first block.
    pub fn ptrs_in_first_block(block_size: usize) -> usize {
        (block_size - INNER_HEADER_BYTES) / 8
    }

    /// Total blocks needed for an inner node with `children` pointers.
    pub fn blocks_for(children: u32, block_size: usize) -> u32 {
        let in_first = Self::ptrs_in_first_block(block_size) as u32;
        if children <= in_first {
            1
        } else {
            1 + (children - in_first).div_ceil((block_size / 8) as u32)
        }
    }

    /// Reads the header of the inner node at `start` (one block read, which
    /// a following [`InnerNode::child_at`] in the header block shares).
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
        let slope = r.get_f64()?;
        let intercept = r.get_f64()?;
        Ok(InnerNode {
            file,
            start,
            header: InnerHeader { children, model: LinearModel::new(slope, intercept) },
        })
    }

    /// Writes a complete inner node (header plus child pointers), charging
    /// one write per extent block.
    pub fn build(
        disk: &Disk,
        file: u32,
        start: BlockId,
        model: LinearModel,
        children: &[ChildPtr],
    ) -> IndexResult<InnerNode> {
        let bs = disk.block_size();
        let in_first = Self::ptrs_in_first_block(bs);
        let mut w = BlockWriter::new(bs);
        w.put_u8(TAG_INNER)?;
        w.put_u8(0)?;
        w.put_u16(0)?;
        w.put_u32(children.len() as u32)?;
        w.put_f64(model.slope)?;
        w.put_f64(model.intercept)?;
        for ptr in children.iter().take(in_first) {
            w.put_u64(ptr.pack())?;
        }
        disk.write(file, start, BlockKind::Inner, &w.finish())?;

        let per_block = bs / 8;
        let remaining = children.len().saturating_sub(in_first);
        let extra_blocks = remaining.div_ceil(per_block);
        let mut buf = vec![0u8; bs];
        for b in 0..extra_blocks {
            buf.fill(0);
            for i in 0..per_block {
                if let Some(ptr) = children.get(in_first + b * per_block + i) {
                    buf[i * 8..i * 8 + 8].copy_from_slice(&ptr.pack().to_le_bytes());
                }
            }
            disk.write(file, start + 1 + b as u32, BlockKind::Inner, &buf)?;
        }
        Ok(InnerNode {
            file,
            start,
            header: InnerHeader { children: children.len() as u32, model },
        })
    }

    /// Total blocks of this node's extent.
    pub fn total_blocks(&self, block_size: usize) -> u32 {
        Self::blocks_for(self.header.children, block_size)
    }

    /// Child index the model picks for `key`.
    pub fn child_index(&self, key: Key) -> u32 {
        self.header.model.predict_clamped(key, self.header.children as usize) as u32
    }

    /// Reads the child pointer at `idx`. Costs one extra block read only when
    /// the pointer lives outside the header block (or `cursor` no longer
    /// holds the header block).
    pub fn child_at(&self, cursor: &mut BlockCursor<'_>, idx: u32) -> IndexResult<ChildPtr> {
        let bs = cursor.disk().block_size();
        let in_first = Self::ptrs_in_first_block(bs) as u32;
        let (block, offset) = if idx < in_first {
            (self.start, INNER_HEADER_BYTES + idx as usize * 8)
        } else {
            let rest = idx - in_first;
            let per_block = (bs / 8) as u32;
            (self.start + 1 + rest / per_block, ((rest % per_block) as usize) * 8)
        };
        let buf = cursor.read(self.file, block, BlockKind::Inner)?;
        ChildPtr::unpack(u64::from_le_bytes(buf[offset..offset + 8].try_into().unwrap()))
    }

    /// Overwrites the child pointer at `idx`: a read-modify-write through
    /// the operation's cursor.
    pub fn set_child(
        &self,
        cursor: &mut BlockCursor<'_>,
        idx: u32,
        ptr: ChildPtr,
    ) -> IndexResult<()> {
        let bs = cursor.disk().block_size();
        let in_first = Self::ptrs_in_first_block(bs) as u32;
        let (block, offset) = if idx < in_first {
            (self.start, INNER_HEADER_BYTES + idx as usize * 8)
        } else {
            let rest = idx - in_first;
            let per_block = (bs / 8) as u32;
            (self.start + 1 + rest / per_block, ((rest % per_block) as usize) * 8)
        };
        let mut buf = cursor.read(self.file, block, BlockKind::Inner)?.to_vec();
        buf[offset..offset + 8].copy_from_slice(&ptr.pack().to_le_bytes());
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

    #[test]
    fn child_ptr_packs_and_unpacks() {
        for ptr in [
            ChildPtr { is_data: true, block: 0 },
            ChildPtr { is_data: false, block: 12345 },
            ChildPtr { is_data: true, block: u32::MAX },
        ] {
            assert_eq!(ChildPtr::unpack(ptr.pack()).unwrap(), ptr);
        }
    }

    #[test]
    fn a_child_pointer_beyond_the_block_id_range_is_an_error() {
        let d = disk(512);
        let file = d.create_file().unwrap();
        let start = d.allocate(file, 1).unwrap();
        let ptr = ChildPtr { is_data: true, block: 99 };
        let node =
            InnerNode::build(&d, file, start, LinearModel::new(0.0, 0.0), &[ptr, ptr]).unwrap();
        // Forge the high half of child 1: masked to 32 bits it would still
        // name block 99.
        let mut buf = d.read_vec(file, start, BlockKind::Inner).unwrap();
        let off = INNER_HEADER_BYTES + 8;
        buf[off..off + 8].copy_from_slice(&(ptr.pack() | 1 << 32).to_le_bytes());
        d.write(file, start, BlockKind::Inner, &buf).unwrap();
        assert_eq!(node.child_at(&mut d.cursor(), 0).unwrap(), ptr);
        let forged = node.child_at(&mut d.cursor(), 1);
        assert!(matches!(forged, Err(IndexError::Internal(_))), "{forged:?}");
    }

    #[test]
    fn geometry_accounts_header_bitmap_and_slots() {
        let g = DataGeometry::for_capacity(1024, 4096);
        assert_eq!(g.bitmap_blocks, 1);
        assert_eq!(g.slot_blocks, 4);
        assert_eq!(g.total_blocks(), 6);
        let g = DataGeometry::for_capacity(100_000, 4096);
        assert_eq!(g.bitmap_blocks, 4);
        assert_eq!(g.slot_blocks, 391);
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

    /// A shift moves the slots right by one across block boundaries, reads
    /// each affected slot block once — the first at a seek, the rest as the
    /// sequential extent they are, even past a pool hit — and writes each
    /// once.
    #[test]
    fn shift_right_reads_and_writes_each_block_once() {
        let model = lidx_storage::DeviceModel::custom("t", 100, 10, 7);
        let d = Disk::in_memory(DiskConfig::with_block_size(512).device(model).buffer_blocks(8));
        let entries: Vec<Entry> = (0..90u64).map(|i| (i * 5 + 1, i)).collect();
        let node = build_data(&d, &entries, 128);
        let slots = |d: &Disk| -> Vec<Entry> {
            (0..128).map(|s| node.read_slot(&mut d.cursor(), s).unwrap()).collect()
        };
        let before = slots(&d);
        // Slots 10..70 span the first three of the four 32-slot blocks; only
        // the middle one is pooled.
        let (first, _) = node.slot_block(10, &d);
        d.clear_buffer();
        d.read_ref(node.file, first + 1, BlockKind::Leaf).unwrap();
        d.stats().reset();
        d.reset_access_state();
        node.shift_right(&mut d.cursor(), 10, 70).unwrap();
        let s = d.snapshot();
        assert_eq!((s.reads(), s.buffer_hits, s.writes()), (2, 1, 3));
        assert_eq!(s.device_ns, 100 + 7 + 3 * 10, "a seek, then a sequential read");
        let after = slots(&d);
        assert_eq!(after[..=10], before[..=10]);
        assert_eq!(after[11..=70], before[10..70]);
        assert_eq!(after[71..], before[71..]);
    }

    #[test]
    fn bitmap_bits_match_occupancy() {
        let d = disk(512);
        let entries: Vec<Entry> = (0..50u64).map(|i| (i * 100, i)).collect();
        let node = build_data(&d, &entries, 128);
        let mut occupied = 0;
        for s in 0..node.header.capacity {
            if node.read_bit(&mut d.cursor(), s).unwrap() {
                occupied += 1;
            }
        }
        assert_eq!(occupied, 50);
        // Toggling a bit round-trips.
        node.set_bit(&mut d.cursor(), 5, true).unwrap();
        assert!(node.read_bit(&mut d.cursor(), 5).unwrap());
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
        // 200 children: spills beyond the first block at 512-byte blocks.
        let children: Vec<ChildPtr> =
            (0..200u32).map(|i| ChildPtr { is_data: i % 2 == 0, block: i * 10 }).collect();
        let blocks = InnerNode::blocks_for(200, 512);
        assert!(blocks > 1);
        let start = d.allocate(file, blocks).unwrap();
        let model = LinearModel::new(200.0 / 2_000.0, 0.0); // keys 0..2000 -> 0..200
        let node = InnerNode::build(&d, file, start, model, &children).unwrap();
        assert_eq!(node.total_blocks(512), blocks);

        let reloaded = InnerNode::load(&mut d.cursor(), file, start).unwrap();
        assert_eq!(reloaded.header.children, 200);
        for idx in [0u32, 1, 57, 63, 64, 150, 199] {
            assert_eq!(reloaded.child_at(&mut d.cursor(), idx).unwrap(), children[idx as usize]);
        }
        assert_eq!(reloaded.child_index(0), 0);
        assert_eq!(reloaded.child_index(1_000), 100);
        assert_eq!(reloaded.child_index(1_000_000), 199, "predictions clamp to the last child");

        let new_ptr = ChildPtr { is_data: true, block: 9999 };
        reloaded.set_child(&mut d.cursor(), 150, new_ptr).unwrap();
        assert_eq!(reloaded.child_at(&mut d.cursor(), 150).unwrap(), new_ptr);
        assert_eq!(reloaded.child_at(&mut d.cursor(), 149).unwrap(), children[149]);
    }
}
