//! Raw block storage backends.
//!
//! A backend is a collection of *files*, each an append-only array of
//! fixed-size blocks addressed by [`BlockId`]. Two implementations are
//! provided:
//!
//! * [`MemoryBackend`] — blocks live in a `Vec<Vec<u8>>`. This is what the
//!   evaluation harness uses: combined with the [`crate::DeviceModel`] cost
//!   accounting it behaves like a deterministic, infinitely fast disk whose
//!   I/O we *count* rather than wait for.
//! * [`FileBackend`] — blocks live in real files under a directory, accessed
//!   with positional reads/writes. Used to verify that the index
//!   implementations genuinely round-trip through persistent storage.
//!
//! Every method takes `&self`: backends synchronise internally (a reader /
//! writer lock over the file table) so N reader threads can fetch blocks in
//! parallel without serialising on the [`crate::Disk`] façade. Structural
//! operations (`create_file`, `extend`) take the write lock; block reads and
//! writes only need the read lock — concurrent writes to the *same* block
//! are the caller's responsibility, which the frozen-index read phase
//! guarantees never happens.

use std::fs::{File, OpenOptions};
use std::path::PathBuf;

use parking_lot::RwLock;

use crate::error::{StorageError, StorageResult};
use crate::BlockId;

/// A block-addressed storage device holding multiple files.
///
/// All offsets are in units of whole blocks; the block size is fixed at
/// construction time and identical for every file of the backend. The
/// `Send + Sync` bounds are what allow a [`crate::Disk`] to be shared across
/// reader threads.
pub trait StorageBackend: Send + Sync {
    /// The block size in bytes.
    fn block_size(&self) -> usize;

    /// Creates a new, empty file and returns its id.
    fn create_file(&self) -> StorageResult<u32>;

    /// Number of blocks currently allocated in `file`.
    fn num_blocks(&self, file: u32) -> StorageResult<u32>;

    /// Appends `count` zeroed blocks to `file`, returning the id of the first
    /// new block. The new blocks are contiguous.
    fn extend(&self, file: u32, count: u32) -> StorageResult<BlockId>;

    /// Reads block `block` of `file` into `buf` (which must be exactly one
    /// block long).
    fn read_block(&self, file: u32, block: BlockId, buf: &mut [u8]) -> StorageResult<()>;

    /// Writes `data` (exactly one block long) into block `block` of `file`.
    fn write_block(&self, file: u32, block: BlockId, data: &[u8]) -> StorageResult<()>;

    /// Stores the integrity stamp of block `block` in the backend's sidecar
    /// table (see [`crate::format::BlockStamp`]). Stamps live *next to*
    /// blocks, not inside them, so enabling verification never changes block
    /// capacity. The default is a no-op for backends without a sidecar.
    fn write_stamp(&self, _file: u32, _block: BlockId, _stamp: &[u8]) -> StorageResult<()> {
        Ok(())
    }

    /// Reads back the stamp of block `block`, or `None` when the block has
    /// never been stamped (never written, or the backend keeps no sidecar).
    fn read_stamp(&self, _file: u32, _block: BlockId) -> StorageResult<Option<Vec<u8>>> {
        Ok(None)
    }

    /// Grows the logical block count of `file` to cover every whole block
    /// physically present in the underlying store, returning the new count.
    ///
    /// The superblock's per-file counts are authoritative on reopen for
    /// index files (a torn trailing extend must not expose garbage), but a
    /// WAL file legitimately grows *between* checkpoints: its post-checkpoint
    /// extends carry synced records that replay must see. The WAL validates
    /// every adopted block by stamp, epoch and record CRC, so trailing
    /// garbage is trimmed, not trusted. The default (backends whose logical
    /// and physical sizes always agree) is a no-op.
    fn adopt_physical_size(&self, file: u32) -> StorageResult<u32> {
        self.num_blocks(file)
    }

    /// Total number of files.
    fn num_files(&self) -> u32;
}

/// An in-memory backend: every file is a vector of blocks.
#[derive(Debug)]
pub struct MemoryBackend {
    block_size: usize,
    files: RwLock<Vec<Vec<u8>>>,
    /// Per-file sidecar stamp tables, keyed by block id. Kept outside the
    /// block vectors so stamping never perturbs block capacity.
    stamps: RwLock<Vec<std::collections::HashMap<BlockId, Vec<u8>>>>,
}

impl MemoryBackend {
    /// Creates an empty backend with the given block size.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size >= 64, "block size must be at least 64 bytes");
        MemoryBackend {
            block_size,
            files: RwLock::new(Vec::new()),
            stamps: RwLock::new(Vec::new()),
        }
    }

    fn check(&self, files: &[Vec<u8>], file: u32, block: BlockId) -> StorageResult<usize> {
        let f = files.get(file as usize).ok_or(StorageError::UnknownFile(file))?;
        let len = (f.len() / self.block_size) as u32;
        if block >= len {
            return Err(StorageError::BlockOutOfRange { file, block, len });
        }
        Ok(block as usize * self.block_size)
    }
}

impl StorageBackend for MemoryBackend {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn create_file(&self) -> StorageResult<u32> {
        let mut files = self.files.write();
        files.push(Vec::new());
        self.stamps.write().push(std::collections::HashMap::new());
        Ok((files.len() - 1) as u32)
    }

    fn num_blocks(&self, file: u32) -> StorageResult<u32> {
        let files = self.files.read();
        let f = files.get(file as usize).ok_or(StorageError::UnknownFile(file))?;
        Ok((f.len() / self.block_size) as u32)
    }

    fn extend(&self, file: u32, count: u32) -> StorageResult<BlockId> {
        let bs = self.block_size;
        let mut files = self.files.write();
        let f = files.get_mut(file as usize).ok_or(StorageError::UnknownFile(file))?;
        let first = (f.len() / bs) as u32;
        f.resize(f.len() + count as usize * bs, 0);
        Ok(first)
    }

    fn read_block(&self, file: u32, block: BlockId, buf: &mut [u8]) -> StorageResult<()> {
        if buf.len() != self.block_size {
            return Err(StorageError::BadBufferSize { got: buf.len(), expected: self.block_size });
        }
        let files = self.files.read();
        let off = self.check(&files, file, block)?;
        buf.copy_from_slice(&files[file as usize][off..off + self.block_size]);
        Ok(())
    }

    fn write_block(&self, file: u32, block: BlockId, data: &[u8]) -> StorageResult<()> {
        if data.len() != self.block_size {
            return Err(StorageError::BadBufferSize { got: data.len(), expected: self.block_size });
        }
        let mut files = self.files.write();
        let off = self.check(&files, file, block)?;
        files[file as usize][off..off + self.block_size].copy_from_slice(data);
        Ok(())
    }

    fn write_stamp(&self, file: u32, block: BlockId, stamp: &[u8]) -> StorageResult<()> {
        let mut stamps = self.stamps.write();
        let table = stamps.get_mut(file as usize).ok_or(StorageError::UnknownFile(file))?;
        table.insert(block, stamp.to_vec());
        Ok(())
    }

    fn read_stamp(&self, file: u32, block: BlockId) -> StorageResult<Option<Vec<u8>>> {
        let stamps = self.stamps.read();
        let table = stamps.get(file as usize).ok_or(StorageError::UnknownFile(file))?;
        Ok(table.get(&block).cloned())
    }

    fn num_files(&self) -> u32 {
        self.files.read().len() as u32
    }
}

/// A backend storing each file as a real file on the local filesystem.
///
/// Files are named `file_<id>.blk` inside the directory supplied at
/// construction. The directory is created if needed and is *not* removed on
/// drop; callers own its lifecycle (the test-suite uses temporary
/// directories). Block I/O uses positional reads/writes (`pread`/`pwrite`
/// on Unix, `seek_read`/`seek_write` on Windows), which work through a
/// shared `&File`, so readers never contend on a seek position.
#[derive(Debug)]
pub struct FileBackend {
    block_size: usize,
    dir: PathBuf,
    state: RwLock<FileBackendState>,
}

#[derive(Debug, Default)]
struct FileBackendState {
    files: Vec<File>,
    /// `file_<id>.sum` sidecars holding one 12-byte stamp per block.
    sums: Vec<File>,
    sizes: Vec<u32>,
}

impl FileBackend {
    /// Opens (creating if necessary) a file-backed store in `dir`.
    pub fn new(dir: impl Into<PathBuf>, block_size: usize) -> StorageResult<Self> {
        assert!(block_size >= 64, "block size must be at least 64 bytes");
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileBackend { block_size, dir, state: RwLock::new(FileBackendState::default()) })
    }

    /// Reopens an existing store without truncating anything. `file_blocks`
    /// (the superblock's per-file counts) is authoritative: every listed
    /// file is opened and sized to at least its recorded count, so a torn
    /// trailing `extend` from before the crash cannot shrink the visible
    /// address space below the last checkpoint.
    pub fn open_existing(
        dir: impl Into<PathBuf>,
        block_size: usize,
        file_blocks: &[u32],
    ) -> StorageResult<Self> {
        assert!(block_size >= 64, "block size must be at least 64 bytes");
        let dir = dir.into();
        let mut state = FileBackendState::default();
        for (id, &blocks) in file_blocks.iter().enumerate() {
            let path = dir.join(format!("file_{id}.blk"));
            // Reopen keeps whatever is already on disk: recovery decides
            // what to trust, not the open call.
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)?;
            let want = blocks as u64 * block_size as u64;
            if f.metadata()?.len() < want {
                f.set_len(want)?;
            }
            let sum_path = dir.join(format!("file_{id}.sum"));
            let sum = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&sum_path)?;
            state.files.push(f);
            state.sums.push(sum);
            state.sizes.push(blocks);
        }
        Ok(FileBackend { block_size, dir, state: RwLock::new(state) })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }
}

impl FileBackendState {
    fn checked(&self, file: u32, block: BlockId) -> StorageResult<&File> {
        let len = *self.sizes.get(file as usize).ok_or(StorageError::UnknownFile(file))?;
        if block >= len {
            return Err(StorageError::BlockOutOfRange { file, block, len });
        }
        Ok(&self.files[file as usize])
    }
}

/// Positional read through a shared `&File` (no seek-pointer contention).
#[cfg(unix)]
fn read_at(f: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(f, buf, offset)
}

/// Positional write through a shared `&File` (no seek-pointer contention).
#[cfg(unix)]
fn write_at(f: &File, data: &[u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(f, data, offset)
}

#[cfg(windows)]
fn read_at(f: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    // seek_read moves the OS file pointer, but every access in this backend
    // passes an absolute offset, so that is harmless.
    while !buf.is_empty() {
        let n = std::os::windows::fs::FileExt::seek_read(f, buf, offset)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "unexpected end of block file",
            ));
        }
        buf = &mut buf[n..];
        offset += n as u64;
    }
    Ok(())
}

#[cfg(windows)]
fn write_at(f: &File, mut data: &[u8], mut offset: u64) -> std::io::Result<()> {
    while !data.is_empty() {
        let n = std::os::windows::fs::FileExt::seek_write(f, data, offset)?;
        data = &data[n..];
        offset += n as u64;
    }
    Ok(())
}

impl StorageBackend for FileBackend {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn create_file(&self) -> StorageResult<u32> {
        let mut state = self.state.write();
        let id = state.files.len() as u32;
        let path = self.dir.join(format!("file_{id}.blk"));
        let f = OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let sum_path = self.dir.join(format!("file_{id}.sum"));
        let sum =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(sum_path)?;
        state.files.push(f);
        state.sums.push(sum);
        state.sizes.push(0);
        Ok(id)
    }

    fn num_blocks(&self, file: u32) -> StorageResult<u32> {
        self.state.read().sizes.get(file as usize).copied().ok_or(StorageError::UnknownFile(file))
    }

    fn adopt_physical_size(&self, file: u32) -> StorageResult<u32> {
        let mut state = self.state.write();
        let current = *state.sizes.get(file as usize).ok_or(StorageError::UnknownFile(file))?;
        let physical =
            (state.files[file as usize].metadata()?.len() / self.block_size as u64) as u32;
        let adopted = current.max(physical);
        state.sizes[file as usize] = adopted;
        Ok(adopted)
    }

    fn extend(&self, file: u32, count: u32) -> StorageResult<BlockId> {
        let bs = self.block_size;
        let mut state = self.state.write();
        let first = *state.sizes.get(file as usize).ok_or(StorageError::UnknownFile(file))?;
        let new_len = (first as u64 + count as u64) * bs as u64;
        state.files[file as usize].set_len(new_len)?;
        state.sizes[file as usize] = first + count;
        Ok(first)
    }

    fn read_block(&self, file: u32, block: BlockId, buf: &mut [u8]) -> StorageResult<()> {
        if buf.len() != self.block_size {
            return Err(StorageError::BadBufferSize { got: buf.len(), expected: self.block_size });
        }
        let state = self.state.read();
        let f = state.checked(file, block)?;
        read_at(f, buf, block as u64 * self.block_size as u64)?;
        Ok(())
    }

    fn write_block(&self, file: u32, block: BlockId, data: &[u8]) -> StorageResult<()> {
        if data.len() != self.block_size {
            return Err(StorageError::BadBufferSize { got: data.len(), expected: self.block_size });
        }
        let state = self.state.read();
        let f = state.checked(file, block)?;
        write_at(f, data, block as u64 * self.block_size as u64)?;
        Ok(())
    }

    fn write_stamp(&self, file: u32, block: BlockId, stamp: &[u8]) -> StorageResult<()> {
        let state = self.state.read();
        state.checked(file, block)?;
        let sum = &state.sums[file as usize];
        write_at(sum, stamp, block as u64 * stamp.len() as u64)?;
        Ok(())
    }

    fn read_stamp(&self, file: u32, block: BlockId) -> StorageResult<Option<Vec<u8>>> {
        let state = self.state.read();
        state.checked(file, block)?;
        let sum = &state.sums[file as usize];
        let mut buf = vec![0u8; crate::format::BlockStamp::BYTES];
        let off = block as u64 * buf.len() as u64;
        match read_at(sum, &mut buf, off) {
            Ok(()) => {}
            // The sidecar ends before this stamp, or inside it: the block
            // was never stamped (allocated but never written), or the stamp
            // write was cut short.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        if buf.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        Ok(Some(buf))
    }

    fn num_files(&self) -> u32 {
        self.state.read().files.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(backend: &dyn StorageBackend) {
        let bs = backend.block_size();
        let f = backend.create_file().unwrap();
        assert_eq!(backend.num_blocks(f).unwrap(), 0);
        let first = backend.extend(f, 4).unwrap();
        assert_eq!(first, 0);
        assert_eq!(backend.num_blocks(f).unwrap(), 4);

        let mut data = vec![0u8; bs];
        data[0] = 0xAB;
        data[bs - 1] = 0xCD;
        backend.write_block(f, 2, &data).unwrap();

        let mut out = vec![0u8; bs];
        backend.read_block(f, 2, &mut out).unwrap();
        assert_eq!(out, data);

        // untouched block stays zeroed
        backend.read_block(f, 3, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));

        // second extension is contiguous
        let next = backend.extend(f, 2).unwrap();
        assert_eq!(next, 4);
        assert_eq!(backend.num_blocks(f).unwrap(), 6);
    }

    #[test]
    fn memory_backend_roundtrip() {
        let b = MemoryBackend::new(256);
        roundtrip(&b);
    }

    #[test]
    fn file_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lidx-storage-test-{}", std::process::id()));
        let b = FileBackend::new(&dir, 256).unwrap();
        roundtrip(&b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backend_reads_unwritten_and_cut_stamps_as_none() {
        let dir = std::env::temp_dir().join(format!("lidx-storage-stamps-{}", std::process::id()));
        let b = FileBackend::new(&dir, 256).unwrap();
        let f = b.create_file().unwrap();
        b.extend(f, 4).unwrap();
        use crate::format::BlockStamp;
        let stamp = BlockStamp { magic: BlockStamp::MAGIC, generation: 1, crc: 9 }.encode();
        b.write_stamp(f, 0, &stamp).unwrap();
        b.write_stamp(f, 2, &stamp).unwrap();
        assert_eq!(b.read_stamp(f, 0).unwrap().as_deref(), Some(&stamp[..]));
        // Allocated but never written: a zeroed hole inside the sidecar, and
        // a block whose stamp lies past the sidecar's end.
        assert_eq!(b.read_stamp(f, 1).unwrap(), None);
        assert_eq!(b.read_stamp(f, 3).unwrap(), None);

        // A sidecar cut in the middle of block 2's stamp.
        let bytes = BlockStamp::BYTES as u64;
        let sum = OpenOptions::new().write(true).open(dir.join(format!("file_{f}.sum"))).unwrap();
        sum.set_len(2 * bytes + 5).unwrap();
        assert_eq!(b.read_stamp(f, 2).unwrap(), None);
        assert_eq!(b.read_stamp(f, 0).unwrap().as_deref(), Some(&stamp[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_and_bad_sizes_error() {
        let b = MemoryBackend::new(128);
        let f = b.create_file().unwrap();
        b.extend(f, 1).unwrap();
        let mut small = vec![0u8; 64];
        assert!(matches!(b.read_block(f, 0, &mut small), Err(StorageError::BadBufferSize { .. })));
        let mut ok = vec![0u8; 128];
        assert!(matches!(b.read_block(f, 5, &mut ok), Err(StorageError::BlockOutOfRange { .. })));
        assert!(matches!(b.read_block(9, 0, &mut ok), Err(StorageError::UnknownFile(9))));
    }

    #[test]
    fn multiple_files_are_independent() {
        let b = MemoryBackend::new(128);
        let f1 = b.create_file().unwrap();
        let f2 = b.create_file().unwrap();
        b.extend(f1, 2).unwrap();
        b.extend(f2, 5).unwrap();
        assert_eq!(b.num_blocks(f1).unwrap(), 2);
        assert_eq!(b.num_blocks(f2).unwrap(), 5);
        assert_eq!(b.num_files(), 2);

        let mut data = vec![7u8; 128];
        b.write_block(f1, 1, &data).unwrap();
        data.fill(9);
        b.write_block(f2, 1, &data).unwrap();
        let mut out = vec![0u8; 128];
        b.read_block(f1, 1, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 7));
    }

    #[test]
    fn memory_backend_supports_parallel_readers() {
        let b = MemoryBackend::new(128);
        let f = b.create_file().unwrap();
        b.extend(f, 16).unwrap();
        for blk in 0..16u32 {
            b.write_block(f, blk, &[blk as u8; 128]).unwrap();
        }
        let b = &b;
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    let mut buf = vec![0u8; 128];
                    for round in 0..200u32 {
                        let blk = (round + t) % 16;
                        b.read_block(f, blk, &mut buf).unwrap();
                        assert!(buf.iter().all(|&x| x == blk as u8), "torn read of block {blk}");
                    }
                });
            }
        });
    }
}
