//! A warm point lookup allocates nothing, on every design.
//!
//! The B+-tree and both hybrids search each pinned block in place through
//! `InnerView` / `LeafView`, and FITing searches its directory the same way,
//! its routing levels through `InnerView` and its leaves through a view that
//! decodes one segment record (DESIGN.md §3.2). ALEX, LIPP and PGM decode
//! their few header fields into stack values. ALEX, LIPP, PGM and FITing walk
//! their blocks through a `BlockCursor`, which holds a frame inline. A
//! buffer-pool hit is one `Arc` clone, so once the pool holds the whole index
//! a lookup touches the heap zero times. This binary installs a counting
//! `#[global_allocator]` and asserts exactly that — a node decoded into a
//! `Vec`, or a descent path collected and thrown away, anywhere on the lookup
//! path fails it. FITing is checked twice: on its bulk-loaded data region,
//! and after inserts, on hits in a delta buffer and in the overflow buffer
//! below the global minimum. PGM is checked twice too: on its bulk-loaded
//! component, and after inserts, on hits in its insert run, whose blocks a
//! lookup searches in place, and in the component behind it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lidx_core::{DiskIndex, Entry, Key};
use lidx_experiments::runner::{IndexChoice, RunConfig};

/// Counts the allocations of threads that opted in, each thread on its own
/// counter, so neither the test harness's threads nor a test running beside
/// this one can disturb a count.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a read and a bump of
// const-initialised, destructor-free thread-locals, neither of which
// allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        }
        // SAFETY: `layout` is forwarded from the caller, who upholds
        // `GlobalAlloc::alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` above with this
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many heap allocations this thread made in it.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCATIONS.get() - before
}

/// Looks up `LOOKUPS` probes twice: a warm-up pass that pulls every block
/// they touch into the pool, then a counted pass. Asserts that the counted
/// pass reads nothing from the device, sees the warm-up's hits, and does not
/// allocate; returns the number of hits.
fn assert_warm_lookups_do_not_allocate(
    name: &str,
    index: &dyn DiskIndex,
    probe: impl Fn(u64) -> Key,
) -> u64 {
    const LOOKUPS: u64 = 50_000;
    let mut found = 0u64;
    for i in 0..LOOKUPS {
        found += u64::from(index.lookup(probe(i)).expect("warm-up lookup").is_some());
    }
    let reads_warm = index.disk().stats().reads();

    let mut found_again = 0u64;
    let allocations = allocations_in(|| {
        for i in 0..LOOKUPS {
            found_again += u64::from(index.lookup(probe(i)).expect("lookup").is_some());
        }
    });
    assert_eq!(found_again, found, "{name}: both passes see the same hits");
    assert_eq!(index.disk().stats().reads(), reads_warm, "{name}: the pool holds it all");
    assert_eq!(allocations, 0, "{name}: {LOOKUPS} warm lookups must not allocate");
    found
}

/// A disk whose pool is larger than any index here (the reads assertion
/// checks that it holds every block the probes touch).
fn roomy_disk() -> std::sync::Arc<lidx_storage::Disk> {
    RunConfig { buffer_blocks: 1 << 14, ..RunConfig::default() }.make_disk()
}

const KEYS: u64 = 100_000;

fn stored_entries() -> Vec<Entry> {
    (0..KEYS).map(|i| (i * 7 + 3, i)).collect()
}

#[test]
fn warm_lookups_do_not_allocate() {
    let entries = stored_entries();
    // Hits spread over the whole key range, every eighth probe a miss.
    let probe = |i: u64| -> Key {
        let key = entries[(i.wrapping_mul(7919) % KEYS) as usize].0;
        key + u64::from(i.is_multiple_of(8))
    };

    assert!(allocations_in(|| drop(Vec::<u8>::with_capacity(64))) > 0, "the counter must count");

    for choice in IndexChoice::ALL_DESIGNS {
        let mut index = choice.build(roomy_disk());
        index.bulk_load(&entries).expect("bulk load");
        let found = assert_warm_lookups_do_not_allocate(choice.name(), index.as_ref(), probe);
        assert_eq!(found, 50_000 - 50_000u64.div_ceil(8), "{choice:?}: hits and misses as built");
    }
}

#[test]
fn warm_fiting_buffer_hits_do_not_allocate() {
    let entries = stored_entries();
    let mut index = IndexChoice::Fiting.build(roomy_disk());
    index.bulk_load(&entries).expect("bulk load");
    // Keys between the stored ones (≡ 5 mod 7, fewer than a delta buffer
    // holds) land in delta buffers; keys below the stored minimum 3 land in
    // the overflow buffer.
    let buffered: Vec<Entry> = (0..200u64).map(|i| (i * 3_493 + 5, i)).collect();
    let overflow: Vec<Entry> = vec![(0, 10), (2, 12)];
    index.insert_batch(&buffered).expect("delta-buffer inserts");
    index.insert_batch(&overflow).expect("overflow inserts");
    assert_eq!(index.stats().smo_count, 0, "every inserted key still sits in a buffer");

    // A quarter each: delta-buffer hits, overflow hits (and the overflow miss
    // 1), data-region hits, and misses next to buffered keys.
    let probe = |i: u64| -> Key {
        let n = i / 4;
        match i % 4 {
            0 => buffered[(n % 200) as usize].0,
            1 => [0, 1, 2][(n % 3) as usize],
            2 => entries[(n.wrapping_mul(7919) % KEYS) as usize].0,
            _ => buffered[(n % 200) as usize].0 + 1,
        }
    };
    for &(key, value) in buffered.iter().chain(&overflow) {
        assert_eq!(index.lookup(key).expect("lookup"), Some(value), "key {key}");
    }
    let found = assert_warm_lookups_do_not_allocate("fiting after inserts", index.as_ref(), probe);
    // 12 500 delta-buffer hits, 8 333 overflow hits (a third of the
    // overflow probes are the miss 1) and 12 500 data-region hits.
    assert_eq!(found, 12_500 + 8_333 + 12_500, "hits and misses as built");
}

#[test]
fn warm_pgm_run_hits_do_not_allocate() {
    let entries = stored_entries();
    let mut index = IndexChoice::Pgm.build(roomy_disk());
    index.bulk_load(&entries).expect("bulk load");
    // 100 keys between the stored ones (≡ 5 mod 7), fewer than the insert
    // run holds, so they all stay in the run.
    let run: Vec<Entry> = (0..100u64).map(|i| (i * 6_986 + 5, i)).collect();
    index.insert_batch(&run).expect("run inserts");
    assert_eq!(index.stats().smo_count, 0, "every inserted key still sits in the run");

    // A third each: run hits, component hits (after the run is searched),
    // and misses next to run keys.
    let probe = |i: u64| -> Key {
        let n = i / 3;
        match i % 3 {
            0 => run[(n % 100) as usize].0,
            1 => entries[(n.wrapping_mul(7919) % KEYS) as usize].0,
            _ => run[(n % 100) as usize].0 + 1,
        }
    };
    for &(key, value) in &run {
        assert_eq!(index.lookup(key).expect("lookup"), Some(value), "key {key}");
    }
    let found = assert_warm_lookups_do_not_allocate("pgm after inserts", index.as_ref(), probe);
    assert_eq!(found, 2 * 16_667, "run and component hits as built");
}
