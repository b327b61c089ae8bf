//! The durable on-disk format: CRC32, per-block stamps, and the superblock.
//!
//! Three pieces live here:
//!
//! * [`crc32`] — CRC-32 (IEEE polynomial, the one zlib and gzip use),
//!   computed slice-by-16 from compile-time tables, in safe code with no
//!   external dependencies. It is on every durable block write and verified
//!   read, every WAL record and tail flush, and every superblock slot.
//! * [`BlockStamp`] — the `#[repr(C)]` per-block header (magic, write
//!   generation, CRC32 of the block contents). Stamps are stored *next to*
//!   the block — a sidecar table in [`MemoryBackend`](crate::MemoryBackend),
//!   a `file_{id}.sum` sidecar file in [`FileBackend`](crate::FileBackend) —
//!   rather than inline, so block capacity (and with it every per-block
//!   fanout/occupancy figure the experiments pin) is unchanged whether
//!   verification is on or off.
//! * [`Superblock`] — the double-buffered index root record. Two slots
//!   (`superblock.0` / `superblock.1`) are written alternately; each carries
//!   a format version, a monotonically increasing generation, the
//!   clean-shutdown flag, the per-file block counts (authoritative over the
//!   physical file sizes on reopen, which may include a torn trailing
//!   extend), and an opaque index metadata payload. A reader picks the slot
//!   with the highest generation that passes its CRC, so a crash that tears
//!   one slot falls back to the previous checkpoint.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::error::{StorageError, StorageResult};

/// The IEEE 802.3 CRC-32 polynomial, bit-reflected.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 tables (Kounavis & Berry, ISCC 2005). `CRC32_TABLES[0]` is
/// the classic byte table; `CRC32_TABLES[k][b]` is the CRC contribution of
/// byte `b` followed by `k` zero bytes, so sixteen lookups fold sixteen
/// input bytes into the register at once.
static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial, reflected, init and final XOR `!0`): the
/// checksum of every block stamp, WAL record and superblock slot.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extends `crc`, the CRC-32 of some prefix, over `data`:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`, and `crc32_update(0, b)` is
/// `crc32(b)`. Lets a caller checksum non-contiguous pieces without copying
/// them together.
pub(crate) fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !crc;
    let (chunks, tail) = data.as_chunks::<16>();
    for c in chunks {
        let a = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in tail {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The per-block header: magic, write generation, and contents CRC.
///
/// `#[repr(C)]` fixes the field order; (de)serialisation is nevertheless
/// explicit little-endian via [`BlockStamp::encode`]/[`BlockStamp::decode`]
/// so the on-disk bytes do not depend on host endianness.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockStamp {
    /// Always [`BlockStamp::MAGIC`]; anything else means the stamp itself is
    /// torn or was never written.
    pub magic: u32,
    /// Monotonically increasing per-disk write counter at the time the block
    /// was last written. A reopened disk continues from the superblock's
    /// generation, so a stale pre-crash stamp can never alias a fresh one.
    pub generation: u32,
    /// CRC-32 of the full block contents.
    pub crc: u32,
}

impl BlockStamp {
    /// `"lblk"` little-endian.
    pub const MAGIC: u32 = 0x6B6C_626C;
    /// Encoded size in bytes.
    pub const BYTES: usize = 12;

    /// Encodes the stamp as 12 little-endian bytes.
    pub fn encode(&self) -> [u8; Self::BYTES] {
        let mut out = [0u8; Self::BYTES];
        out[0..4].copy_from_slice(&self.magic.to_le_bytes());
        out[4..8].copy_from_slice(&self.generation.to_le_bytes());
        out[8..12].copy_from_slice(&self.crc.to_le_bytes());
        out
    }

    /// Decodes a stamp. Returns `None` for an all-zero (never written)
    /// stamp; a garbled magic decodes to a stamp that will fail
    /// verification, never to a panic.
    pub fn decode(buf: &[u8; Self::BYTES]) -> Option<BlockStamp> {
        if buf.iter().all(|&b| b == 0) {
            return None;
        }
        Some(BlockStamp {
            magic: u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")),
            generation: u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")),
            crc: u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")),
        })
    }

    /// Verifies `data` against this stamp.
    pub fn verify(&self, file: u32, block: u32, data: &[u8]) -> StorageResult<()> {
        if self.magic != Self::MAGIC || crc32(data) != self.crc {
            return Err(StorageError::ChecksumMismatch { file, block });
        }
        Ok(())
    }
}

/// Version of the on-disk superblock layout.
pub const FORMAT_VERSION: u32 = 1;

const SUPERBLOCK_MAGIC: u32 = 0x7375_6C78; // "xlus" LE -> "slux"

/// The double-buffered index root record (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblock {
    /// On-disk layout version ([`FORMAT_VERSION`] for freshly written ones).
    pub format_version: u32,
    /// Monotonically increasing checkpoint number; the reader trusts the
    /// valid slot with the highest generation.
    pub generation: u64,
    /// Block-write generation counter at checkpoint time; reopened disks
    /// resume stamping from here.
    pub write_generation: u64,
    /// True only when written by a graceful close; a crash leaves the newest
    /// superblock with this flag false (or stale), telling the reopener that
    /// WAL replay is required.
    pub clean_shutdown: bool,
    /// Authoritative per-file allocated block counts at checkpoint time.
    pub file_blocks: Vec<u32>,
    /// Opaque index metadata (root pointers etc.) owned by the layers above.
    pub meta: Vec<u8>,
}

impl Superblock {
    /// Serialises the superblock, appending a trailing CRC over everything
    /// before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48 + self.file_blocks.len() * 4 + self.meta.len());
        out.extend_from_slice(&SUPERBLOCK_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.format_version.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.write_generation.to_le_bytes());
        out.push(self.clean_shutdown as u8);
        out.extend_from_slice(&(self.file_blocks.len() as u32).to_le_bytes());
        for &blocks in &self.file_blocks {
            out.extend_from_slice(&blocks.to_le_bytes());
        }
        out.extend_from_slice(&(self.meta.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.meta);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes one superblock slot. Any truncation, bad magic, unsupported
    /// version, or CRC mismatch is a typed error — never a panic.
    pub fn decode(buf: &[u8]) -> StorageResult<Superblock> {
        let corrupt = |msg: &str| StorageError::Corrupt(format!("superblock: {msg}"));
        if buf.len() < 33 + 4 {
            return Err(corrupt("short slot"));
        }
        let (body, crc_bytes) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err(corrupt("bad CRC"));
        }
        let mut pos = 0usize;
        let mut take = |n: usize| -> StorageResult<&[u8]> {
            let s = body.get(pos..pos + n).ok_or_else(|| corrupt("truncated body"))?;
            pos += n;
            Ok(s)
        };
        let magic = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes"));
        if magic != SUPERBLOCK_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let format_version = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes"));
        if format_version != FORMAT_VERSION {
            return Err(corrupt("unsupported format version"));
        }
        let generation = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
        let write_generation = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
        let clean_shutdown = take(1)?[0] != 0;
        let n_files = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")) as usize;
        if n_files > body.len() / 4 {
            return Err(corrupt("implausible file count"));
        }
        let mut file_blocks = Vec::with_capacity(n_files);
        for _ in 0..n_files {
            file_blocks.push(u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")));
        }
        let meta_len = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")) as usize;
        let meta = take(meta_len)?.to_vec();
        Ok(Superblock {
            format_version,
            generation,
            write_generation,
            clean_shutdown,
            file_blocks,
            meta,
        })
    }

    /// Path of superblock slot `slot` (0 or 1) inside `dir`.
    pub fn slot_path(dir: &Path, slot: usize) -> PathBuf {
        dir.join(format!("superblock.{slot}"))
    }

    /// Writes this superblock into slot `generation % 2`, syncing the file.
    /// `tear_at` truncates the written bytes (fault injection: a crash in
    /// the middle of the slot write).
    pub fn write_slot(&self, dir: &Path, tear_at: Option<usize>) -> StorageResult<()> {
        let bytes = self.encode();
        let written: &[u8] = match tear_at {
            Some(k) => &bytes[..k.min(bytes.len())],
            None => &bytes,
        };
        let path = Self::slot_path(dir, (self.generation % 2) as usize);
        let mut f = fs::OpenOptions::new().write(true).create(true).truncate(true).open(&path)?;
        f.write_all(written)?;
        f.sync_all()?;
        if tear_at.is_some() {
            return Err(StorageError::Io(std::io::Error::other(
                "superblock write torn by fault plan",
            )));
        }
        Ok(())
    }

    /// Reads both slots and returns the valid one with the highest
    /// generation, or `None` if neither slot holds a valid superblock.
    pub fn load_best(dir: &Path) -> StorageResult<Option<Superblock>> {
        let mut best: Option<Superblock> = None;
        for slot in 0..2 {
            let path = Self::slot_path(dir, slot);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            // A torn or corrupt slot is expected after a crash; the other
            // slot (the previous checkpoint) carries the recovery.
            if let Ok(sb) = Superblock::decode(&bytes) {
                if best.as_ref().is_none_or(|b| sb.generation > b.generation) {
                    best = Some(sb);
                }
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference the table-driven kernel must equal: one byte at a
    /// time, one polynomial step per bit, no tables.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { CRC32_POLY ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        !crc
    }

    fn pseudo_random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_length_and_offset() {
        // Lengths 0..=64 cover zero to four whole 16-byte chunks with every
        // tail length; starts 0..16 put them at every address alignment.
        let buf = pseudo_random_bytes(16 + 64, 1);
        for start in 0..16 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, len {len}");
            }
        }
        for len in [4096, 2 << 20] {
            let block = pseudo_random_bytes(len, len as u64);
            assert_eq!(crc32(&block), crc32_bitwise(&block), "{len}-byte block");
        }
    }

    #[test]
    fn crc32_update_split_anywhere_equals_one_shot() {
        let data = pseudo_random_bytes(100, 7);
        let whole = crc32(&data);
        for at in 0..=data.len() {
            let (a, b) = data.split_at(at);
            assert_eq!(crc32_update(crc32(a), b), whole, "split at {at}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

        #[test]
        fn crc32_matches_the_bitwise_reference_on_random_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }
    }

    #[test]
    fn block_stamp_round_trips_and_verifies() {
        let data = vec![7u8; 512];
        let stamp = BlockStamp { magic: BlockStamp::MAGIC, generation: 42, crc: crc32(&data) };
        let decoded = BlockStamp::decode(&stamp.encode()).expect("non-zero stamp");
        assert_eq!(decoded, stamp);
        decoded.verify(0, 0, &data).unwrap();
        let mut bad = data.clone();
        bad[100] ^= 1;
        assert!(matches!(
            decoded.verify(1, 9, &bad),
            Err(StorageError::ChecksumMismatch { file: 1, block: 9 })
        ));
        assert_eq!(BlockStamp::decode(&[0u8; BlockStamp::BYTES]), None);
    }

    #[test]
    fn superblock_round_trips() {
        let sb = Superblock {
            format_version: FORMAT_VERSION,
            generation: 7,
            write_generation: 1234,
            clean_shutdown: true,
            file_blocks: vec![10, 0, 33],
            meta: b"hello meta".to_vec(),
        };
        let got = Superblock::decode(&sb.encode()).unwrap();
        assert_eq!(got, sb);
    }

    #[test]
    fn superblock_rejects_corruption_with_typed_errors() {
        let sb = Superblock {
            format_version: FORMAT_VERSION,
            generation: 3,
            write_generation: 9,
            clean_shutdown: false,
            file_blocks: vec![1, 2],
            meta: vec![5; 100],
        };
        let bytes = sb.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(Superblock::decode(&bad).is_err(), "flipped byte {i} must not decode");
        }
        for cut in 0..bytes.len() {
            assert!(Superblock::decode(&bytes[..cut]).is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn two_slot_files_survive_a_torn_newest_slot() {
        let dir = std::env::temp_dir().join(format!(
            "lidx-format-test-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut sb = Superblock {
            format_version: FORMAT_VERSION,
            generation: 1,
            write_generation: 10,
            clean_shutdown: false,
            file_blocks: vec![4],
            meta: b"gen1".to_vec(),
        };
        sb.write_slot(&dir, None).unwrap();
        sb.generation = 2;
        sb.meta = b"gen2".to_vec();
        sb.write_slot(&dir, None).unwrap();
        assert_eq!(Superblock::load_best(&dir).unwrap().unwrap().meta, b"gen2");

        // Tear the next checkpoint (slot 1 again after gen 3 -> slot 1);
        // load_best must fall back to generation 2.
        sb.generation = 3;
        sb.meta = b"gen3".to_vec();
        assert!(sb.write_slot(&dir, Some(9)).is_err());
        let best = Superblock::load_best(&dir).unwrap().unwrap();
        assert_eq!(best.generation, 2);
        assert_eq!(best.meta, b"gen2");
        std::fs::remove_dir_all(&dir).ok();
    }
}
