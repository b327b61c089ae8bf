//! The zero-copy + batched read path on buffer-hit workloads.
//!
//! Three claims of the pinned-block read path are measured here, all on a
//! buffer pool large enough to hold the whole index (so device cost is zero
//! and per-lookup CPU/allocator overhead is all that remains):
//!
//! 1. **Zero-copy pool hits** — `Disk::read_ref` serves a pool hit as one
//!    `Arc` clone, while the legacy `Disk::read_vec` pays an allocation plus
//!    a block copy per hit. The `pinned_vs_copy` group compares them on the
//!    same hot block.
//! 2. **Batched lookups beat N sequential lookups** — `lookup_batch` sorts
//!    the probe keys and walks shared inner blocks / leaf pins once per
//!    run, so a 64-key batch is cheaper than 64 one-key lookups. The
//!    `batched_lookups` group compares the two on the B+-tree and PGM
//!    (specialised overrides) plus a default-implementation index as the
//!    no-amortisation baseline.
//! 3. **In-place views beat decoding** — a lookup routes through
//!    `InnerView` / `LeafView` over the pinned bytes, where the mutation
//!    path's `InnerNode::decode` / `LeafNode::decode` first copy the node
//!    into fresh vectors. The `view_vs_decode` group answers the same probe
//!    both ways on a real leaf and a real inner block (DESIGN.md §3.2).
//!
//! A wall-clock summary with the batch-vs-sequential speedup is printed
//! after the Criterion measurements; CI runs this bench as a smoke gate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lidx_btree::{InnerNode, InnerView, LeafNode, LeafView};
use lidx_core::DiskIndex;
use lidx_experiments::runner::IndexChoice;
use lidx_storage::{BlockKind, Disk, DiskConfig};
use lidx_workloads::Dataset;

/// Probe keys issued per measured round (sequentially or in batches).
const LOOKUPS_PER_ROUND: usize = 256;
/// Keys per `lookup_batch` call in the batched configuration.
const BATCH: usize = 64;
/// Indexes covered: the two specialised overrides plus one index that uses
/// the default per-key loop (so the table shows what the override buys).
const CHOICES: [IndexChoice; 3] = [IndexChoice::BTree, IndexChoice::Pgm, IndexChoice::HybridPla];

/// A disk whose pool holds the entire working set: every measured read is a
/// buffer hit and the bench isolates CPU/copy overhead.
fn warm_disk() -> Arc<Disk> {
    Disk::in_memory(DiskConfig::with_block_size(4096).buffer_blocks(4096))
}

fn loaded(choice: IndexChoice) -> (Box<dyn DiskIndex>, Vec<u64>) {
    let keys = Dataset::Ycsb.generate_keys(50_000, 0xBA7C);
    let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k + 1)).collect();
    let mut index = choice.build(warm_disk());
    index.bulk_load(&entries).expect("bulk load");
    // Warm the pool with one pass so measured rounds are all hits.
    let probe: Vec<u64> = keys.iter().step_by(97).copied().collect();
    for &k in &probe {
        index.lookup(k).expect("warm lookup");
    }
    (index, probe)
}

fn sequential_round(index: &dyn DiskIndex, probe: &[u64], round_no: usize) {
    let base = round_no * LOOKUPS_PER_ROUND;
    for i in 0..LOOKUPS_PER_ROUND {
        let k = probe[(base + i) % probe.len()];
        black_box(index.lookup(k).expect("lookup"));
    }
}

fn batched_round(
    index: &dyn DiskIndex,
    probe: &[u64],
    round_no: usize,
    out: &mut Vec<Option<u64>>,
) {
    let base = round_no * LOOKUPS_PER_ROUND;
    let mut chunk = [0u64; BATCH];
    for c in 0..LOOKUPS_PER_ROUND / BATCH {
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = probe[(base + c * BATCH + i) % probe.len()];
        }
        index.lookup_batch(&chunk, out).expect("lookup_batch");
        black_box(out.len());
    }
}

/// Claim 1: a pool hit through `read_ref` (Arc clone) vs `read_vec`
/// (allocation + block copy) on the same cached block.
fn bench_pinned_vs_copy(c: &mut Criterion) {
    let mut group = c.benchmark_group("pinned_vs_copy");
    group.warm_up_time(Duration::from_millis(150));
    group.measurement_time(Duration::from_millis(600));
    let disk = warm_disk();
    let file = disk.create_file().unwrap();
    disk.allocate(file, 4).unwrap();
    disk.write(file, 1, BlockKind::Leaf, &[7u8; 4096]).unwrap();
    disk.read_ref(file, 1, BlockKind::Leaf).unwrap();
    group.bench_function("read_ref_hit", |b| {
        b.iter(|| black_box(disk.read_ref(file, 1, BlockKind::Leaf).unwrap()))
    });
    group.bench_function("read_vec_hit", |b| {
        b.iter(|| black_box(disk.read_vec(file, 1, BlockKind::Leaf).unwrap()))
    });
    group.finish();
}

/// Claim 2: `LOOKUPS_PER_ROUND` buffer-hit lookups, sequential vs batched.
fn bench_batched_lookups(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_lookups");
    group.warm_up_time(Duration::from_millis(150));
    group.measurement_time(Duration::from_millis(800));
    for choice in CHOICES {
        let (index, probe) = loaded(choice);
        let mut round_no = 0;
        group.bench_function(BenchmarkId::new(choice.name(), "sequential"), |b| {
            b.iter(|| {
                sequential_round(&*index, &probe, round_no);
                round_no += 1;
            })
        });
        let mut out = Vec::with_capacity(BATCH);
        let mut round_no = 0;
        group.bench_function(BenchmarkId::new(choice.name(), format!("batch{BATCH}")), |b| {
            b.iter(|| {
                batched_round(&*index, &probe, round_no, &mut out);
                round_no += 1;
            })
        });
    }
    group.finish();
}

/// Claim 3: one probe answered from a pinned block through the borrowed
/// view vs through the owned decode, on a leaf and an inner block of a
/// bulk-loaded B+-tree.
fn bench_view_vs_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_vs_decode");
    group.warm_up_time(Duration::from_millis(150));
    group.measurement_time(Duration::from_millis(600));
    let (index, _) = loaded(IndexChoice::BTree);
    let disk = Arc::clone(index.disk());
    // The B+-tree is the disk's only file (block 0 is its meta block).
    let frames: Vec<_> = (1..disk.num_blocks(0).unwrap())
        .map(|b| disk.read_ref(0, b, BlockKind::Leaf).unwrap())
        .collect();
    let leaf = frames.iter().find(|f| LeafView::new(f).is_ok_and(|l| !l.is_empty())).unwrap();
    let inner = frames.iter().find(|f| InnerView::new(f).is_ok()).unwrap();
    let key = LeafView::new(leaf).unwrap().entry(0).0;
    let expected = index.lookup(key).unwrap();
    assert!(expected.is_some());

    group.bench_function(BenchmarkId::new("leaf", "view"), |b| {
        b.iter(|| {
            let found = LeafView::new(black_box(leaf)).unwrap().lookup(black_box(key));
            assert_eq!(found, expected);
        })
    });
    group.bench_function(BenchmarkId::new("leaf", "decode"), |b| {
        b.iter(|| {
            let node = LeafNode::decode(black_box(leaf)).unwrap();
            let at = node.entries.binary_search_by_key(&black_box(key), |&(k, _)| k);
            assert_eq!(at.ok().map(|i| node.entries[i].1), expected);
        })
    });
    let child = InnerNode::decode(inner).unwrap().child_for(key);
    group.bench_function(BenchmarkId::new("inner", "view"), |b| {
        b.iter(|| {
            let node = InnerView::new(black_box(inner)).unwrap();
            assert_eq!(node.child_for(black_box(key)), child);
        })
    });
    group.bench_function(BenchmarkId::new("inner", "decode"), |b| {
        b.iter(|| {
            let node = InnerNode::decode(black_box(inner)).unwrap();
            assert_eq!(node.child_for(black_box(key)), child);
        })
    });
    group.finish();
}

/// Prints per-lookup wall time for both modes and the batch speedup — the
/// acceptance signal for this bench (batched > 1.0x on the overridden
/// indexes).
fn batching_summary(_c: &mut Criterion) {
    eprintln!("  --- batched vs sequential summary (buffer-hit workload) ---");
    for choice in CHOICES {
        let (index, probe) = loaded(choice);
        const ROUNDS: usize = 24;
        sequential_round(&*index, &probe, 0);
        let t0 = Instant::now();
        for r in 1..=ROUNDS {
            sequential_round(&*index, &probe, r);
        }
        let seq_ns = t0.elapsed().as_nanos() as f64 / (ROUNDS * LOOKUPS_PER_ROUND) as f64;
        let mut out = Vec::with_capacity(BATCH);
        batched_round(&*index, &probe, 0, &mut out);
        let t0 = Instant::now();
        for r in 1..=ROUNDS {
            batched_round(&*index, &probe, r, &mut out);
        }
        let bat_ns = t0.elapsed().as_nanos() as f64 / (ROUNDS * LOOKUPS_PER_ROUND) as f64;
        eprintln!(
            "  {:>12}: sequential {:>8.0} ns/lookup | batch{} {:>8.0} ns/lookup | {:.2}x",
            choice.name(),
            seq_ns,
            BATCH,
            bat_ns,
            seq_ns / bat_ns
        );
    }
}

criterion_group!(
    benches,
    bench_pinned_vs_copy,
    bench_batched_lookups,
    bench_view_vs_decode,
    batching_summary
);
criterion_main!(benches);
