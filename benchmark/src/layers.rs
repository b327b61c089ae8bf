//! Layer probes of a traced run: timed micro-loops over the leaf functions
//! of each layer, and the substitution ladder that prices each wrapper of
//! the serving stack.
//!
//! Spans inside the crates are a later change, so nested self times come
//! from substitution: the same warm lookup stream is replayed on a design
//! bare, then behind each wrapper in turn, and a wrapper's self time is its
//! per-lookup time minus that of the stack beneath it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use lidx_btree::{InnerNode, LeafNode};
use lidx_core::{
    payload_for, ConcurrentIndex, DiskIndex, Entry, IndexRead, IndexWrite, Key, ShardedIndex,
    ShardedIndexConfig, ShardedWriteBuffer, ShardedWriteBufferConfig, WriteBuffer,
    WriteBufferConfig,
};
use lidx_experiments::runner::IndexChoice;
use lidx_models::fmcd::fit_fmcd;
use lidx_models::pla::segment_keys;
use lidx_storage::{
    crc32, BlockKind, Disk, FileBackend, Histogram, OpClass, StorageBackend, TelemetryRegistry,
    WalSegment,
};

use crate::harness::{
    disk_config, median, memory_disk, splitmix64, stream, Config, KeySet, ScratchDir, BLOCK_SIZE,
};

/// What the probes measured; all times are nanoseconds per call.
#[derive(Debug, Default)]
pub struct Probes {
    pub leaf_decode_ns: f64,
    pub inner_decode_ns: f64,
    pub pool_hit_ns: f64,
    pub pool_miss_ns: f64,
    pub crc32_ns_per_block: f64,
    pub wal_append_ns: f64,
    pub wal_sync_ns: f64,
    pub file_read_ns: f64,
    pub file_write_ns: f64,
    pub stage_ns: f64,
    pub concurrent_self_ns: f64,
    pub overlay_self_ns: f64,
    pub route_self_ns: f64,
    pub pla_fit_ns_per_key: f64,
    pub pla_segments: f64,
    pub linear_predict_ns: f64,
    pub fmcd_fit_ns_per_key: f64,
    pub histogram_record_ns: f64,
    pub span_ns: f64,
    pub timer_ns: f64,
}

/// Nanoseconds per iteration of `f` over `iters` iterations.
fn per_iter(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

pub fn run(cfg: &Config) -> Probes {
    let keys = KeySet::generate(cfg);
    let entries = keys.entries();
    let mut p = Probes::default();
    harness_probes(&mut p);
    storage_probes(cfg, &entries, &mut p);
    model_probes(&keys.keys, &mut p);
    substitution(cfg, &keys.keys, &entries, &mut p);
    p
}

/// What the probes themselves cost: a timer pair, a histogram record and a
/// telemetry span.
fn harness_probes(p: &mut Probes) {
    p.timer_ns = per_iter(200_000, |_| {
        black_box(black_box(Instant::now()).elapsed());
    });
    let histogram = Histogram::new();
    p.histogram_record_ns = per_iter(1_000_000, |i| histogram.record(black_box(i as u64 * 37)));
    let registry = TelemetryRegistry::new();
    p.span_ns = per_iter(200_000, |_| drop(black_box(registry.span(OpClass::Lookup))));
}

fn storage_probes(cfg: &Config, entries: &[Entry], p: &mut Probes) {
    // Node decode on real blocks of a bulk-loaded B+-tree.
    let disk = memory_disk(100_000, 1);
    let mut tree = IndexChoice::BTree.build(Arc::clone(&disk));
    tree.bulk_load(entries).expect("bulk load");
    let blocks = disk.num_blocks(0).expect("b+-tree file");
    let frames: Vec<_> =
        (0..blocks).map(|b| disk.read_ref(0, b, BlockKind::Leaf).expect("read block")).collect();
    let leaf = frames.iter().find(|f| LeafNode::decode(f).is_ok()).expect("a leaf block");
    let inner = frames.iter().find(|f| InnerNode::decode(f).is_ok()).expect("an inner block");
    p.leaf_decode_ns = per_iter(20_000, |_| {
        black_box(LeafNode::decode(black_box(leaf)).expect("decode leaf"));
    });
    p.inner_decode_ns = per_iter(20_000, |_| {
        black_box(InnerNode::decode(black_box(inner)).expect("decode inner"));
    });
    p.crc32_ns_per_block = per_iter(20_000, |_| {
        black_box(crc32(black_box(leaf)));
    });

    // Pool hit: every block is resident; the stride keeps the single-slot
    // reuse cache from answering. Pool miss: a 64-block pool walked by a
    // stream longer than itself.
    let stride = |i: usize| (i as u32).wrapping_mul(7919) % blocks;
    p.pool_hit_ns = per_iter(200_000, |i| {
        black_box(disk.read_ref(0, stride(i), BlockKind::Leaf).expect("pool hit"));
    });
    let small = memory_disk(64, 1);
    let mut tree = IndexChoice::BTree.build(Arc::clone(&small));
    tree.bulk_load(entries).expect("bulk load");
    p.pool_miss_ns = per_iter(50_000, |i| {
        black_box(small.read_ref(0, stride(i), BlockKind::Leaf).expect("pool miss"));
    });
    if small.stats().buffer_hits() * 10 > small.stats().reads() {
        eprintln!(
            "note: the pool-miss probe was served from the pool more than a tenth of the time"
        );
    }

    // WAL append and sync, and raw block I/O, on real files.
    let dir = ScratchDir::new("probes");
    let durable = Disk::create_durable(dir.0.join("wal"), disk_config(0)).expect("durable disk");
    let mut wal = WalSegment::create(&durable).expect("create wal");
    let record = [0x5Au8; 16];
    let rounds = cfg.scaled(2_000);
    let (mut append_ns, mut sync_ns) = (0u128, 0u128);
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..64 {
            wal.append(black_box(&record)).expect("wal append");
        }
        append_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        wal.sync().expect("wal sync");
        sync_ns += t.elapsed().as_nanos();
    }
    p.wal_append_ns = append_ns as f64 / (rounds * 64) as f64;
    p.wal_sync_ns = sync_ns as f64 / rounds as f64;

    let backend = FileBackend::new(dir.0.join("raw"), BLOCK_SIZE).expect("file backend");
    let file = backend.create_file().expect("create file");
    let count = 256u32;
    backend.extend(file, count).expect("extend file");
    let mut buf = vec![0xA5u8; BLOCK_SIZE];
    let passes = cfg.scaled(40);
    p.file_write_ns = per_iter(passes * count as usize, |i| {
        backend.write_block(file, stride(i) % count, black_box(&buf)).expect("write block");
    });
    p.file_read_ns = per_iter(passes * count as usize, |i| {
        backend.read_block(file, stride(i) % count, black_box(&mut buf)).expect("read block");
    });

    // A stage that does not drain: the write buffer's own bookkeeping.
    let mut front = WriteBuffer::new(
        IndexChoice::BTree.build(memory_disk(64, 1)),
        WriteBufferConfig { capacity: usize::MAX, drain: 1_024 },
    );
    p.stage_ns = per_iter(cfg.scaled(100_000), |i| {
        front.insert(black_box(i as Key * 2_654_435_761), 1).expect("stage");
    });
}

fn model_probes(keys: &[Key], p: &mut Probes) {
    let (segments, secs) = crate::harness::timed(|| segment_keys(keys, 64));
    p.pla_fit_ns_per_key = secs * 1e9 / keys.len() as f64;
    p.pla_segments = segments.len() as f64;
    let model = segments[segments.len() / 2].model;
    p.linear_predict_ns = per_iter(1_000_000, |i| {
        black_box(model.predict(black_box(keys[i % keys.len()])));
    });
    let chunk = 4_096.min(keys.len());
    let chunks = keys.len() / chunk;
    let start = Instant::now();
    for c in keys.chunks_exact(chunk) {
        black_box(fit_fmcd(c, 2 * chunk));
    }
    p.fmcd_fit_ns_per_key = start.elapsed().as_nanos() as f64 / (chunks * chunk) as f64;
}

/// Per-lookup nanoseconds of one pass of `index` over the warm stream.
fn lookup_pass_ns(index: &dyn IndexRead, stream_keys: &[Key]) -> f64 {
    per_iter(stream_keys.len(), |i| {
        let key = stream_keys[i];
        assert_eq!(index.lookup(key).expect("lookup"), Some(payload_for(key)));
    })
}

fn substitution(cfg: &Config, keys: &[Key], entries: &[Entry], p: &mut Probes) {
    const ROUNDS: usize = 5;
    let mut rng = stream(cfg.seed, 1);
    let stream_keys: Vec<Key> = (0..cfg.scaled(20_000))
        .map(|_| keys[(splitmix64(&mut rng) % keys.len() as u64) as usize])
        .collect();
    let front_cfg = ShardedWriteBufferConfig { capacity: 64, drain: 64, shards: 4 };
    let designs = [IndexChoice::Pgm, IndexChoice::BTree];
    for design in designs {
        // The first three rungs wrap one and the same index instance, so its
        // memory layout cancels out of the differences; each round climbs
        // the ladder once and the medians are compared.
        let mut index: Box<dyn DiskIndex> = design.build(memory_disk(100_000, 1));
        index.bulk_load(entries).expect("bulk load");
        let factory = move || Ok(design.build(memory_disk(100_000, 1)));
        let mut router = ShardedIndex::with_sampled_boundaries(
            Box::new(factory),
            ShardedIndexConfig { shards: 4, buffer: front_cfg },
            keys,
        )
        .expect("build router");
        router.bulk_load(entries).expect("bulk load");
        lookup_pass_ns(&index, &stream_keys);
        lookup_pass_ns(&router, &stream_keys);
        let [mut bare, mut locked, mut fronted, mut routed] = [(); 4].map(|()| Vec::new());
        for _ in 0..ROUNDS {
            bare.push(lookup_pass_ns(&index, &stream_keys));
            let lock = ConcurrentIndex::new(index);
            locked.push(lookup_pass_ns(&lock, &stream_keys));
            let front = ShardedWriteBuffer::new(lock.into_inner(), front_cfg);
            fronted.push(lookup_pass_ns(&front, &stream_keys));
            index = front.into_inner().expect("flush of an empty overlay");
            routed.push(lookup_pass_ns(&router, &stream_keys));
        }
        let share = 1.0 / designs.len() as f64;
        p.concurrent_self_ns += (median(&locked) - median(&bare)) * share;
        p.overlay_self_ns += (median(&fronted) - median(&locked)) * share;
        p.route_self_ns += (median(&routed) - median(&fronted)) * share;
    }
}
