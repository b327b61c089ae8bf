//! The restart manifest: what a durable index directory remembers.
//!
//! A [`Manifest`] is the opaque payload stored inside the storage layer's
//! [`Superblock`](lidx_storage::Superblock) at every checkpoint. It carries
//! three things:
//!
//! * which index design the directory holds (`index_kind`, the design's
//!   stable tag, e.g. `"btree"` or `"hybrid-pla"`),
//! * that design's serialised root metadata (`index_meta`, produced by
//!   [`IndexWrite::save_meta`](crate::index::IndexWrite::save_meta)), and
//! * the file ids of the write-ahead-log segments (`wal_files`; the format
//!   carries a list, the one durable front —
//!   [`WriteBuffer`](crate::write_buffer::WriteBuffer) — writes exactly one).
//!
//! Integrity is the superblock's job (the whole payload sits under its
//! CRC32), so the manifest encoding only needs to be self-describing:
//! length-prefixed fields with typed decode errors for truncation.

use lidx_storage::FileId;

use crate::error::{IndexError, IndexResult};

/// Magic tag leading every encoded manifest.
const MANIFEST_MAGIC: u32 = 0x6C6D_616E; // "lman" in LE byte order.

/// Everything needed to reopen a durable index directory: the design tag,
/// its serialised root metadata, and the WAL segment file ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Stable design tag (`IndexChoice` style, e.g. `"pgm"`, `"hybrid-mt"`).
    pub index_kind: String,
    /// The design's own metadata bytes, from `IndexWrite::save_meta`.
    pub index_meta: Vec<u8>,
    /// File ids of the WAL segments to replay.
    pub wal_files: Vec<FileId>,
}

impl Manifest {
    /// Serialises the manifest for storage in a superblock payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.index_kind.len() + self.index_meta.len());
        out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.index_kind.len() as u32).to_le_bytes());
        out.extend_from_slice(self.index_kind.as_bytes());
        out.extend_from_slice(&(self.index_meta.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.index_meta);
        out.extend_from_slice(&(self.wal_files.len() as u32).to_le_bytes());
        for &file in &self.wal_files {
            out.extend_from_slice(&file.to_le_bytes());
        }
        out
    }

    /// Decodes a manifest previously produced by [`encode`](Self::encode).
    /// Truncated or mistagged input yields a typed error, never a panic.
    pub fn decode(buf: &[u8]) -> IndexResult<Self> {
        let mut cursor = Cursor { buf, pos: 0 };
        let magic = cursor.u32()?;
        if magic != MANIFEST_MAGIC {
            return Err(IndexError::Internal(format!(
                "manifest magic {magic:#x} does not match {MANIFEST_MAGIC:#x}"
            )));
        }
        let kind_len = cursor.u32()? as usize;
        let kind_bytes = cursor.bytes(kind_len)?;
        let index_kind = String::from_utf8(kind_bytes.to_vec())
            .map_err(|_| IndexError::Internal("manifest index kind is not UTF-8".into()))?;
        let meta_len = cursor.u32()? as usize;
        let index_meta = cursor.bytes(meta_len)?.to_vec();
        let wal_count = cursor.u32()? as usize;
        let mut wal_files = Vec::with_capacity(wal_count.min(1024));
        for _ in 0..wal_count {
            wal_files.push(cursor.u32()?);
        }
        Ok(Manifest { index_kind, index_meta, wal_files })
    }
}

/// Frames one staged entry as a WAL record payload (16 bytes LE).
pub fn encode_wal_entry(key: crate::Key, value: crate::Value) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[0..8].copy_from_slice(&key.to_le_bytes());
    out[8..16].copy_from_slice(&value.to_le_bytes());
    out
}

/// Decodes a WAL record payload back into staged entries. Payloads are a
/// concatenation of 16-byte `(key, value)` pairs; anything else means the
/// record was produced by different code and is rejected, never guessed at.
pub fn decode_wal_entries(payload: &[u8]) -> IndexResult<Vec<crate::Entry>> {
    if !payload.len().is_multiple_of(16) {
        return Err(IndexError::Internal(format!(
            "WAL entry payload of {} bytes is not a whole number of (key, value) pairs",
            payload.len()
        )));
    }
    Ok(payload
        .chunks_exact(16)
        .map(|pair| {
            (
                u64::from_le_bytes(pair[0..8].try_into().expect("8 bytes")),
                u64::from_le_bytes(pair[8..16].try_into().expect("8 bytes")),
            )
        })
        .collect())
}

/// A little-endian byte-string builder for `save_meta` implementations.
/// The inverse of [`MetaReader`]; field order is the schema.
#[derive(Debug, Default)]
pub struct MetaWriter {
    buf: Vec<u8>,
}

impl MetaWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `f64` (IEEE 754 bits).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// The accumulated bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked little-endian reader for `load` implementations; every
/// short read is a typed [`IndexError::Internal`], never a panic.
pub struct MetaReader<'a> {
    cursor: Cursor<'a>,
}

impl<'a> MetaReader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        MetaReader { cursor: Cursor { buf, pos: 0 } }
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> IndexResult<u32> {
        self.cursor.u32()
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> IndexResult<u64> {
        Ok(u64::from_le_bytes(self.cursor.bytes(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` (IEEE 754 bits).
    pub fn f64(&mut self) -> IndexResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> IndexResult<&'a [u8]> {
        let len = self.u32()? as usize;
        self.cursor.bytes(len)
    }

    /// True once every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.cursor.pos == self.cursor.buf.len()
    }
}

/// A bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> IndexResult<&'a [u8]> {
        let end =
            self.pos.checked_add(n).filter(|&end| end <= self.buf.len()).ok_or_else(|| {
                IndexError::Internal(format!(
                    "manifest truncated: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> IndexResult<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let m = Manifest {
            index_kind: "hybrid-pla".to_string(),
            index_meta: vec![1, 2, 3, 255, 0, 42],
            wal_files: vec![3, 9, 11],
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);

        let empty =
            Manifest { index_kind: String::new(), index_meta: Vec::new(), wal_files: Vec::new() };
        assert_eq!(Manifest::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn meta_writer_reader_round_trip() {
        let mut w = MetaWriter::new();
        w.u32(7).u64(u64::MAX - 3).f64(0.8125).bytes(b"blob");
        let buf = w.finish();
        let mut r = MetaReader::new(&buf);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), 0.8125);
        assert_eq!(r.bytes().unwrap(), b"blob");
        assert!(r.is_exhausted());
        assert!(r.u32().is_err(), "reading past the end is a typed error");
    }

    #[test]
    fn wal_entry_codec_round_trips_and_rejects_ragged_payloads() {
        let payload: Vec<u8> = [encode_wal_entry(1, 2), encode_wal_entry(u64::MAX, 0)].concat();
        assert_eq!(decode_wal_entries(&payload).unwrap(), vec![(1, 2), (u64::MAX, 0)]);
        assert_eq!(decode_wal_entries(&[]).unwrap(), vec![]);
        assert!(decode_wal_entries(&payload[..17]).is_err());
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let m = Manifest {
            index_kind: "btree".to_string(),
            index_meta: vec![7; 20],
            wal_files: vec![1, 2],
        };
        let encoded = m.encode();
        for cut in 0..encoded.len() {
            let err = Manifest::decode(&encoded[..cut])
                .expect_err("a truncated manifest must not decode");
            assert!(matches!(err, IndexError::Internal(_)));
        }
        let mut wrong_magic = encoded;
        wrong_magic[0] ^= 0xFF;
        assert!(Manifest::decode(&wrong_magic).is_err());
    }
}
