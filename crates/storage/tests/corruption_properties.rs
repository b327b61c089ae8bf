//! Corruption property tests: no sequence of flipped bits, torn writes or
//! truncated buffers may ever panic the storage layer or let corrupt bytes
//! decode as valid data. Every corruption is either a typed
//! [`StorageError::ChecksumMismatch`] or an honest end-of-log.

use lidx_storage::wal::{decode_record, encode_record, WAL_RECORD_HEADER};
use lidx_storage::{
    crc32, BlockKind, BlockStamp, Disk, DiskConfig, FaultPlan, FaultingBackend, MemoryBackend,
    StorageBackend, StorageError, Superblock, FORMAT_VERSION,
};
use proptest::prelude::*;

/// An in-memory disk with checksums on and a fault plan wired in — the same
/// verify path the durable file-backed stack uses, without touching the
/// filesystem from inside a property loop.
fn faulted_disk(block_size: usize, plan: &FaultPlan) -> std::sync::Arc<Disk> {
    let mut config = DiskConfig::with_block_size(block_size);
    config.verify_checksums = true;
    let backend: Box<dyn StorageBackend> =
        Box::new(FaultingBackend::new(Box::new(MemoryBackend::new(block_size)), plan.clone()));
    Disk::with_backend(backend, config)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Flipping any byte of a stamped block's contents must fail
    /// verification with `ChecksumMismatch` — never pass, never panic.
    #[test]
    fn any_flipped_data_byte_fails_stamp_verification(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        index in any::<u64>(),
        mask in 1u16..256,
    ) {
        let stamp = BlockStamp {
            magic: BlockStamp::MAGIC,
            generation: 7,
            crc: crc32(&data),
        };
        stamp.verify(0, 0, &data).expect("intact data verifies");
        let mut bad = data.clone();
        let i = (index as usize) % bad.len();
        bad[i] ^= mask as u8;
        prop_assert!(
            matches!(stamp.verify(3, 9, &bad),
                     Err(StorageError::ChecksumMismatch { file: 3, block: 9 })),
            "flipping byte {i} with mask {mask:#04x} must be a checksum mismatch"
        );
    }

    /// End-to-end through the disk: a bit flipped anywhere in a block read
    /// back from the backend surfaces as `ChecksumMismatch` (and a counted
    /// checksum failure), never as silently wrong data and never as a panic.
    #[test]
    fn any_flipped_read_bit_is_a_checksum_mismatch(
        fill in any::<u8>(),
        bit in 0u32..(128 * 8),
    ) {
        let plan = FaultPlan::new();
        let disk = faulted_disk(128, &plan);
        let file = disk.create_file().expect("create file");
        disk.allocate(file, 1).expect("allocate");
        disk.write(file, 0, BlockKind::Leaf, &[fill; 128]).expect("write");
        disk.clear_buffer();
        disk.reset_access_state();
        plan.flip_read_bit(1, bit);
        let err = disk.cursor().read(file, 0, BlockKind::Leaf).expect_err("flip must surface");
        prop_assert!(
            matches!(err, StorageError::ChecksumMismatch { .. }),
            "bit {bit}: expected ChecksumMismatch, got {err}"
        );
        prop_assert_eq!(disk.stats().checksum_failures(), 1);
        // Once the one-shot fault is spent the block reads back intact.
        disk.clear_buffer();
        disk.reset_access_state();
        let clean = disk.cursor().read(file, 0, BlockKind::Leaf).expect("clean read")[..].to_vec();
        prop_assert_eq!(clean, vec![fill; 128]);
    }

    /// Flipping any byte of an encoded WAL record must never decode as a
    /// record: every flip lands as either a hard `ChecksumMismatch` (trim
    /// the log here) or a clean end-of-log (`Ok(None)`), and never panics.
    #[test]
    fn any_flipped_wal_record_byte_never_decodes(
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        epoch in 1u64..1000,
        index in any::<u64>(),
        mask in 1u16..256,
    ) {
        let record = encode_record(epoch, &payload);
        let (got, consumed) = decode_record(&record, epoch, 0, 1)
            .expect("intact record decodes")
            .expect("intact record is Some");
        prop_assert_eq!(&got, &payload);
        prop_assert_eq!(consumed, record.len());

        let mut bad = record.clone();
        let i = (index as usize) % bad.len();
        bad[i] ^= mask as u8;
        match decode_record(&bad, epoch, 0, 1) {
            Ok(None) | Err(StorageError::ChecksumMismatch { .. }) => {}
            Ok(Some(_)) => prop_assert!(
                false,
                "flipping byte {} with mask {:#04x} decoded as a valid record",
                i, mask
            ),
            Err(e) => prop_assert!(false, "unexpected error kind: {}", e),
        }
    }

    /// Truncating an encoded WAL record at any point (a torn tail write)
    /// must read as a clean end-of-log or a checksum trim — never a decoded
    /// record, never a panic.
    #[test]
    fn any_truncated_wal_record_never_decodes(
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        epoch in 1u64..1000,
        cut in any::<u64>(),
    ) {
        let record = encode_record(epoch, &payload);
        let cut = (cut as usize) % record.len(); // strictly shorter than the record
        match decode_record(&record[..cut], epoch, 0, 1) {
            Ok(None) | Err(StorageError::ChecksumMismatch { .. }) => {}
            Ok(Some(_)) => prop_assert!(false, "cut at {} decoded as a valid record", cut),
            Err(e) => prop_assert!(false, "unexpected error kind: {}", e),
        }
    }

    /// Flipping any byte of an encoded superblock slot must fail decoding
    /// with a typed error — the double-buffered reopen protocol depends on a
    /// torn slot never being mistaken for a checkpoint.
    #[test]
    fn any_flipped_superblock_byte_fails_decode(
        meta in proptest::collection::vec(any::<u8>(), 0..120),
        generation in 1u64..100,
        index in any::<u64>(),
        mask in 1u16..256,
    ) {
        let sb = Superblock {
            format_version: FORMAT_VERSION,
            generation,
            write_generation: generation * 17,
            clean_shutdown: generation % 2 == 0,
            file_blocks: vec![4, 0, 9],
            meta,
        };
        let bytes = sb.encode();
        prop_assert_eq!(Superblock::decode(&bytes).expect("intact slot decodes"), sb);
        let mut bad = bytes.clone();
        let i = (index as usize) % bad.len();
        bad[i] ^= mask as u8;
        prop_assert!(
            Superblock::decode(&bad).is_err(),
            "flipping superblock byte {} with mask {:#04x} must not decode",
            i, mask
        );
    }

    /// A WAL record whose corrupted length field wanders anywhere inside the
    /// buffer must still never yield a payload that differs from an honest
    /// record: exhaustively rewrite the length field to arbitrary values.
    #[test]
    fn rewritten_wal_length_field_never_decodes(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        epoch in 1u64..100,
        fake_len in any::<u32>(),
    ) {
        let mut record = encode_record(epoch, &payload);
        if fake_len as usize != payload.len() {
            record[0..4].copy_from_slice(&fake_len.to_le_bytes());
            match decode_record(&record, epoch, 0, 1) {
                Ok(None) | Err(StorageError::ChecksumMismatch { .. }) => {}
                Ok(Some(_)) => prop_assert!(false, "forged length {} decoded", fake_len),
                Err(e) => prop_assert!(false, "unexpected error kind: {}", e),
            }
        }
    }
}

/// Exhaustive (non-property) sweep: every single-byte flip of a small WAL
/// record, checked deterministically so the CI log pins the full matrix.
#[test]
fn exhaustive_single_byte_flips_of_a_wal_record() {
    let record = encode_record(5, b"exhaustive-check");
    for i in 0..record.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bad = record.clone();
            bad[i] ^= mask;
            match decode_record(&bad, 5, 0, 1) {
                Ok(None) | Err(StorageError::ChecksumMismatch { .. }) => {}
                other => panic!("byte {i} mask {mask:#04x}: unexpected {other:?}"),
            }
        }
    }
}

const _: fn() = || {
    // `WAL_RECORD_HEADER` is part of the public corruption surface the
    // properties above rely on: the first 16 bytes are framing.
    let _ = [(); WAL_RECORD_HEADER - 16];
};
