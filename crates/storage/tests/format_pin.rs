//! On-disk format pin: the exact bytes of a block stamp, a WAL record and a
//! superblock slot, as hex constants.
//!
//! Every durable directory written by an earlier build must stay readable,
//! so a change to the checksum kernel, the stamp layout, the WAL framing or
//! the superblock encoding must leave these bytes alone (or bump
//! `FORMAT_VERSION` and re-record them on purpose). The CRC fields were
//! cross-checked against zlib's `crc32` when recorded.

use lidx_storage::wal::encode_record;
use lidx_storage::{crc32, BlockStamp, Superblock, FORMAT_VERSION};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A fixed 4 KiB block with no short repeating period.
fn pinned_block() -> Vec<u8> {
    (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect()
}

#[test]
fn block_stamp_bytes_are_pinned() {
    let block = pinned_block();
    let stamp = BlockStamp { magic: BlockStamp::MAGIC, generation: 42, crc: crc32(&block) };
    // magic "lblk" | generation 42 | CRC-32 of the block (0x7ebc569c).
    assert_eq!(hex(&stamp.encode()), "6c626c6b2a0000009c56bc7e");
}

#[test]
fn wal_record_bytes_are_pinned() {
    // len 12 | CRC-32 of len || epoch || payload (0xee9f356b) | epoch 3 | payload.
    assert_eq!(
        hex(&encode_record(3, b"lidx-wal-pin")),
        "0c0000006b359fee03000000000000006c6964782d77616c2d70696e"
    );
}

#[test]
fn superblock_bytes_are_pinned() {
    let sb = Superblock {
        format_version: FORMAT_VERSION,
        generation: 5,
        write_generation: 1234,
        clean_shutdown: true,
        file_blocks: vec![10, 0, 33],
        meta: b"lidx-superblock-pin".to_vec(),
    };
    // magic | version 1 | generation 5 | write generation 1234 | clean |
    // 3 file counts | meta length and bytes | CRC-32 of all that (0x140fe2e9).
    assert_eq!(
        hex(&sb.encode()),
        concat!(
            "786c7573",
            "01000000",
            "0500000000000000",
            "d204000000000000",
            "01",
            "03000000",
            "0a000000",
            "00000000",
            "21000000",
            "13000000",
            "6c6964782d7375706572626c6f636b2d70696e",
            "e9e20f14",
        )
    );
}
