//! A warm point lookup allocates nothing on every design but FITing.
//!
//! The B+-tree and both hybrids search each pinned block in place through
//! `InnerView` / `LeafView` (DESIGN.md §3.2); ALEX, LIPP and PGM decode
//! their few header fields into stack values and walk their slots through a
//! `BlockCursor`, which holds a frame inline. A buffer-pool hit is one `Arc`
//! clone, so once the pool holds the whole index a lookup touches the heap
//! zero times. This binary installs a counting `#[global_allocator]` and
//! asserts exactly that — a node decoded into a `Vec`, or a descent path
//! collected and thrown away, anywhere on the lookup path fails it. FITing
//! is left out: its lookup still builds the directory path and the delta
//! buffer as two `Vec`s (ROADMAP item 9).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use lidx_core::{Entry, Key};
use lidx_experiments::runner::{IndexChoice, RunConfig};

/// Counts the allocations of threads that opted in, so the test harness's
/// own threads cannot disturb the count.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed counter bump and a
// read of a const-initialised, destructor-free thread-local, neither of
// which allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_lookups_do_not_allocate() {
    const KEYS: u64 = 100_000;
    const LOOKUPS: u64 = 50_000;
    let entries: Vec<Entry> = (0..KEYS).map(|i| (i * 7 + 3, i)).collect();
    // Hits spread over the whole key range, every eighth probe a miss.
    let probe = |i: u64| -> Key {
        let key = entries[(i.wrapping_mul(7919) % KEYS) as usize].0;
        key + u64::from(i.is_multiple_of(8))
    };

    assert!(allocations_in(|| drop(Vec::<u8>::with_capacity(64))) > 0, "the counter must count");

    let designs = IndexChoice::ALL_DESIGNS.into_iter().filter(|&c| c != IndexChoice::Fiting);
    for choice in designs {
        // A pool larger than any of these indexes (the reads assertion
        // below checks that it holds every block the probes touch).
        let disk = RunConfig { buffer_blocks: 1 << 14, ..RunConfig::default() }.make_disk();
        let mut index = choice.build(disk);
        index.bulk_load(&entries).expect("bulk load");

        // One warm-up pass pulls every block the probes touch into the pool.
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
        assert_eq!(found_again, found, "{choice:?}: both passes see the same hits");
        assert_eq!(found, LOOKUPS - LOOKUPS.div_ceil(8), "{choice:?}: hits and misses as built");
        assert_eq!(index.disk().stats().reads(), reads_warm, "{choice:?}: the pool holds it all");
        assert_eq!(allocations, 0, "{choice:?}: {LOOKUPS} warm lookups must not allocate");
    }
}
