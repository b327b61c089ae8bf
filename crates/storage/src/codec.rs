//! Little helpers for encoding index nodes into fixed-size blocks.
//!
//! All on-disk structures in this workspace are built from primitive integers
//! and IEEE-754 doubles laid out little-endian. [`BlockWriter`] appends
//! values to a block-sized buffer and [`BlockReader`] consumes them again;
//! both track a cursor so node serialisation code reads like a schema.
//! [`SlotTable`] is the read-only counterpart for the hot path: it searches
//! a sorted array of fixed-size records where it lies in the block, without
//! copying it out.

use crate::error::{StorageError, StorageResult};

/// Sequentially encodes primitives into a fixed-capacity block buffer.
#[derive(Debug)]
pub struct BlockWriter {
    buf: Vec<u8>,
    capacity: usize,
}

impl BlockWriter {
    /// Creates a writer for a block of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        BlockWriter { buf: Vec::with_capacity(capacity), capacity }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Remaining capacity in bytes.
    pub fn remaining(&self) -> usize {
        self.capacity - self.buf.len()
    }

    fn push(&mut self, bytes: &[u8]) -> StorageResult<()> {
        if self.buf.len() + bytes.len() > self.capacity {
            return Err(StorageError::BlockOverflow {
                got: self.buf.len() + bytes.len(),
                capacity: self.capacity,
            });
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) -> StorageResult<()> {
        self.push(&[v])
    }

    /// Appends a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) -> StorageResult<()> {
        self.push(&v.to_le_bytes())
    }

    /// Appends a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) -> StorageResult<()> {
        self.push(&v.to_le_bytes())
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) -> StorageResult<()> {
        self.push(&v.to_le_bytes())
    }

    /// Appends an `f64` (little-endian IEEE-754).
    pub fn put_f64(&mut self, v: f64) -> StorageResult<()> {
        self.push(&v.to_le_bytes())
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) -> StorageResult<()> {
        self.push(v)
    }

    /// Finalises the block, zero-padding up to the capacity.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf.resize(self.capacity, 0);
        self.buf
    }
}

/// Sequentially decodes primitives from a block buffer.
#[derive(Debug)]
pub struct BlockReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BlockReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BlockReader { buf, pos: 0 }
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Moves the cursor to an absolute offset.
    pub fn seek(&mut self, pos: usize) -> StorageResult<()> {
        if pos > self.buf.len() {
            return Err(StorageError::Corrupt(format!(
                "seek to {pos} beyond block of {} bytes",
                self.buf.len()
            )));
        }
        self.pos = pos;
        Ok(())
    }

    fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(StorageError::Corrupt(format!(
                "read of {n} bytes at offset {} beyond block of {} bytes",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> StorageResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> StorageResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> StorageResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> StorageResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> StorageResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        self.take(n)
    }
}

/// The `N` bytes at `at` of a fixed-size record, to be read with
/// `from_le_bytes`. Panics if they run past the end of `bytes`.
pub fn bytes_at<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(&bytes[at..at + N]);
    out
}

/// A borrowed array of fixed-size records of `STRIDE` bytes, each led by a
/// little-endian `u64` key and sorted ascending by that key — the slot array
/// of a B+-tree node or one block of a learned directory, searched in place
/// by arithmetic over the fixed layout.
#[derive(Debug, Clone, Copy)]
pub struct SlotTable<'a, const STRIDE: usize> {
    bytes: &'a [u8],
}

impl<'a, const STRIDE: usize> SlotTable<'a, STRIDE> {
    /// A table of the `count` records starting at byte `offset` of `buf`,
    /// or a typed error if they do not fit.
    pub fn new(buf: &'a [u8], offset: usize, count: usize) -> StorageResult<Self> {
        const { assert!(STRIDE >= 8, "a slot starts with its u64 key") };
        count
            .checked_mul(STRIDE)
            .and_then(|len| offset.checked_add(len))
            .and_then(|end| buf.get(offset..end))
            .map(|bytes| SlotTable { bytes })
            .ok_or_else(|| {
                StorageError::Corrupt(format!(
                    "{count} slots of {STRIDE} bytes at offset {offset} beyond block of {} bytes",
                    buf.len()
                ))
            })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.bytes.len() / STRIDE
    }

    /// True if the table holds no record.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The bytes of record `i`. Panics if `i >= len()`.
    pub fn slot(&self, i: usize) -> &'a [u8; STRIDE] {
        self.bytes[i * STRIDE..][..STRIDE].try_into().expect("slice of STRIDE bytes")
    }

    /// The key of record `i`. Panics if `i >= len()`.
    pub fn key(&self, i: usize) -> u64 {
        u64::from_le_bytes(self.bytes[i * STRIDE..][..8].try_into().expect("slice of 8 bytes"))
    }

    /// Index of the first record whose key fails `pred`, which must hold for
    /// a prefix of the (sorted) keys and for none after it — the binary
    /// search of [`slice::partition_point`], run over the encoded bytes.
    pub fn partition_point(&self, pred: impl Fn(u64) -> bool) -> usize {
        let mut size = self.len();
        if size == 0 {
            return 0;
        }
        let mut base = 0;
        while size > 1 {
            let half = size / 2;
            if pred(self.key(base + half)) {
                base += half;
            }
            size -= half;
        }
        base + usize::from(pred(self.key(base)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_table_searches_in_place() {
        let keys = [3u64, 7, 7, 20, 21];
        let mut buf = vec![0xAAu8; 4];
        for (i, k) in keys.iter().enumerate() {
            buf.extend_from_slice(&k.to_le_bytes());
            buf.extend_from_slice(&(i as u32).to_le_bytes());
        }
        let t = SlotTable::<12>::new(&buf, 4, keys.len()).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.key(3), 20);
        assert_eq!(t.slot(4)[8..], 4u32.to_le_bytes());
        for probe in [0u64, 3, 5, 7, 8, 20, 21, 22, u64::MAX] {
            assert_eq!(
                t.partition_point(|k| k <= probe),
                keys.partition_point(|&k| k <= probe),
                "probe {probe}"
            );
        }
        let empty = SlotTable::<12>::new(&buf, 4, 0).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.partition_point(|_| true), 0);
        // One slot more than the buffer holds, and an overflowing count.
        assert!(SlotTable::<12>::new(&buf, 4, keys.len() + 1).is_err());
        assert!(SlotTable::<12>::new(&buf, 4, usize::MAX).is_err());
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = BlockWriter::new(64);
        w.put_u8(7).unwrap();
        w.put_u16(500).unwrap();
        w.put_u32(70_000).unwrap();
        w.put_u64(1 << 40).unwrap();
        w.put_f64(3.25).unwrap();
        w.put_bytes(b"abc").unwrap();
        assert_eq!(w.len(), 1 + 2 + 4 + 8 + 8 + 3);
        let block = w.finish();
        assert_eq!(block.len(), 64);

        let mut r = BlockReader::new(&block);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 500);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_f64().unwrap(), 3.25);
        assert_eq!(r.get_bytes(3).unwrap(), b"abc");
    }

    #[test]
    fn writer_rejects_overflow() {
        let mut w = BlockWriter::new(8);
        w.put_u64(1).unwrap();
        assert!(matches!(w.put_u8(1), Err(StorageError::BlockOverflow { .. })));
        assert_eq!(w.remaining(), 0);
    }

    #[test]
    fn reader_rejects_truncated_reads_and_bad_seeks() {
        let buf = [1u8, 2, 3];
        let mut r = BlockReader::new(&buf);
        assert!(r.get_u64().is_err());
        assert!(r.seek(10).is_err());
        r.seek(1).unwrap();
        assert_eq!(r.get_u8().unwrap(), 2);
        assert_eq!(r.position(), 2);
    }

    #[test]
    fn finish_pads_with_zeros() {
        let mut w = BlockWriter::new(16);
        w.put_u32(0xFFFF_FFFF).unwrap();
        let b = w.finish();
        assert_eq!(&b[4..], &[0u8; 12]);
    }
}
