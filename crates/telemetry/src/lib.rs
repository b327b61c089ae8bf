//! Concurrent, mergeable latency telemetry for the evaluation harness.
//!
//! The paper's tail-latency metric (Fig. 12, p99) was originally reproduced
//! by buffering every sample in a `Vec` and sorting — workable
//! single-threaded, unusable from the racing reader/writer fronts. This
//! crate replaces that recorder on the concurrent paths with three pieces:
//!
//! * [`Histogram`] — a log-bucketed, HDR-style histogram with **constant
//!   memory** (a fixed array of atomic bucket counters, no per-sample
//!   allocation), **lock-free recording** (every record is a handful of
//!   relaxed atomic adds), **exact merge** (bucket-wise addition loses
//!   nothing) and percentile queries with a relative error bounded by
//!   [`RELATIVE_ERROR_BOUND`] (1/32 ≈ 3.2 %).
//! * [`TelemetryRegistry`] — one histogram plus one free-form counter per
//!   [`OpClass`] (lookup / scan / insert / drain / SMO / WAL sync /
//!   checkpoint / lock stalls / wave / rebalance / recovery), shared behind
//!   `&self` so every layer of the stack records into the same registry.
//! * [`Span`] — an RAII wall-clock timer: `registry.span(OpClass::Drain)`
//!   records the elapsed nanoseconds into the drain histogram when dropped,
//!   which is how pause points (drains, SMOs, WAL syncs, shard splits)
//!   become attributable in a p999 spike.
//!
//! # Bucket scheme
//!
//! Values 0..31 get exact unit buckets. Above that, each power-of-two
//! octave `[2^e, 2^{e+1})` is split into 32 equal sub-buckets, so a bucket
//! at value `v` is at most `v/32` wide. Percentile queries return the
//! bucket's inclusive upper bound (clamped to the exact recorded maximum),
//! which therefore never *under*-reports and over-reports by at most
//! `value/32`. The whole `u64` range fits in [`BUCKET_COUNT`] = 1920
//! buckets — 15 KiB of counters per histogram, independent of how many
//! samples are recorded.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 5;

/// Sub-buckets per octave (32).
const SUB: u64 = 1 << SUB_BITS;

/// Total buckets: 32 exact unit buckets for 0..31, then 32 sub-buckets for
/// each of the octaves `[2^5, 2^6) .. [2^63, 2^64)`.
pub const BUCKET_COUNT: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Worst-case relative over-report of a percentile query: the width of a
/// bucket divided by its lower bound, `1/32`.
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / SUB as f64;

/// Bucket index of `v` (log-linear: exact below [`SUB`], then 32
/// sub-buckets per octave).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = exp - SUB_BITS;
        let mantissa = (v >> shift) - SUB; // in [0, SUB)
        ((shift as usize + 1) << SUB_BITS) + mantissa as usize
    }
}

/// Inclusive upper bound of bucket `idx` — the value a percentile query
/// reports for samples that landed in it.
#[inline]
fn bucket_high(idx: usize) -> u64 {
    if idx < SUB as usize {
        idx as u64
    } else {
        let shift = (idx >> SUB_BITS) as u32 - 1;
        let mantissa = (idx as u64) & (SUB - 1);
        // ((SUB + mantissa + 1) << shift) - 1, in u128 because the topmost
        // bucket's exclusive bound is 2^64.
        ((((SUB + mantissa + 1) as u128) << shift) - 1) as u64
    }
}

/// A log-bucketed histogram of `u64` samples (nanoseconds, by convention).
///
/// Recording is lock-free (`&self`, relaxed atomics) and allocation-free;
/// the struct's size is a compile-time constant regardless of how many
/// samples are recorded. Two histograms merge exactly: bucket counts add,
/// and every percentile of the merged histogram is what a single histogram
/// fed both sample streams would report.
///
/// Queries made while other threads are still recording see a best-effort
/// snapshot (counters are loaded individually); the harness queries after
/// joining its workers, where the view is exact.
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free and allocation-free.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sum of all samples (wrapping at `u64::MAX`, irrelevant for
    /// nanosecond latencies).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Nearest-rank percentile estimate for quantile `q` in `[0, 1]`.
    ///
    /// Returns the inclusive upper bound of the bucket holding the
    /// nearest-rank sample, clamped to the exact recorded maximum: the
    /// estimate is never below the exact nearest-rank value and at most
    /// `value * `[`RELATIVE_ERROR_BOUND`] above it. Returns 0 when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cum += bucket.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_high(i).min(self.max());
            }
        }
        // Racing recorders can leave `count` ahead of the bucket the sample
        // lands in for one instant; fall back to the max either way.
        self.max()
    }

    /// The standard tail summary (count / mean / p50 / p95 / p99 / p999 /
    /// max) of everything recorded so far.
    pub fn summary(&self) -> TailSummary {
        TailSummary {
            count: self.count(),
            mean_ns: self.mean(),
            p50_ns: self.value_at_quantile(0.50),
            p95_ns: self.value_at_quantile(0.95),
            p99_ns: self.value_at_quantile(0.99),
            p999_ns: self.value_at_quantile(0.999),
            max_ns: self.max(),
        }
    }

    /// Adds every sample of `other` into `self`, exactly: afterwards `self`
    /// reports what one histogram fed both streams would report.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// The raw bucket counts (test/debug aid; allocates, unlike recording).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Memory footprint of one histogram, a compile-time constant — this is
    /// the "no per-sample allocation" claim made checkable.
    pub const MEMORY_BYTES: usize = std::mem::size_of::<Histogram>();
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("count", &self.count()).field("max", &self.max()).finish()
    }
}

/// Count / mean / tail percentiles of one histogram (all in nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TailSummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile (the paper's Fig. 12 tail metric).
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
}

/// What a latency sample (or pause span) was doing — the key of the
/// [`TelemetryRegistry`].
///
/// The first two are *per-operation* classes recorded by the harness
/// around whole operations; the rest are *pause* classes recorded by RAII
/// [`Span`]s around the stack's blocking points, so a tail spike in an op
/// class is attributable to the pause class that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// One point lookup (or one lookup batch on batched paths).
    Lookup,
    /// One insert / stage operation.
    Insert,
    /// A write-buffer drain: staged entries applied through `insert_batch`.
    Drain,
    /// A structural modification operation inside an index (split,
    /// resegmentation, subtree rebuild, run merge).
    Smo,
    /// A WAL group-commit sync (buffered tail forced to the device).
    WalSync,
    /// A durable checkpoint (meta save + superblock persist + WAL truncate).
    Checkpoint,
    /// A reader blocked on the index write lock (a drain chunk in flight).
    LockRead,
    /// A writer blocked on a contended shard or index lock.
    LockWrite,
    /// One completion wave of the outstanding-read engine; its counter adds
    /// the wave's device fetches.
    Wave,
    /// A shard split or merge in the keyspace router.
    Rebalance,
    /// Recovery replay work (WAL scan + re-stage) after a reopen.
    Recovery,
}

impl OpClass {
    /// All classes, in stable reporting order.
    pub const ALL: [OpClass; 11] = [
        OpClass::Lookup,
        OpClass::Insert,
        OpClass::Drain,
        OpClass::Smo,
        OpClass::WalSync,
        OpClass::Checkpoint,
        OpClass::LockRead,
        OpClass::LockWrite,
        OpClass::Wave,
        OpClass::Rebalance,
        OpClass::Recovery,
    ];

    /// Number of classes.
    pub const COUNT: usize = Self::ALL.len();

    #[inline]
    fn idx(self) -> usize {
        match self {
            OpClass::Lookup => 0,
            OpClass::Insert => 1,
            OpClass::Drain => 2,
            OpClass::Smo => 3,
            OpClass::WalSync => 4,
            OpClass::Checkpoint => 5,
            OpClass::LockRead => 6,
            OpClass::LockWrite => 7,
            OpClass::Wave => 8,
            OpClass::Rebalance => 9,
            OpClass::Recovery => 10,
        }
    }

    /// Stable snake_case label used in reports and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Lookup => "lookup",
            OpClass::Insert => "insert",
            OpClass::Drain => "drain",
            OpClass::Smo => "smo",
            OpClass::WalSync => "wal_sync",
            OpClass::Checkpoint => "checkpoint",
            OpClass::LockRead => "lock_read",
            OpClass::LockWrite => "lock_write",
            OpClass::Wave => "wave",
            OpClass::Rebalance => "rebalance",
            OpClass::Recovery => "recovery",
        }
    }

    /// True for the pause-attribution classes (everything that is a
    /// blocking point rather than a whole operation).
    pub fn is_pause(self) -> bool {
        !matches!(self, OpClass::Lookup | OpClass::Insert)
    }
}

/// One histogram plus one free-form counter per [`OpClass`].
///
/// Shared behind `&self` (typically hanging off the storage layer's `Disk`,
/// next to its `IoStats`), so index internals, write fronts and the harness
/// all record into the same place without any constructor plumbing.
pub struct TelemetryRegistry {
    // Boxed: a histogram is ~15 KiB of bucket counters, and the registry
    // holds one per class — keeping them behind one heap allocation keeps
    // the registry (and everything embedding it, like the storage layer's
    // `Disk`) cheap to construct and move on any stack.
    histograms: Box<[Histogram]>,
    counters: Box<[AtomicU64]>,
}

impl Default for TelemetryRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryRegistry {
    /// Creates a registry with every histogram and counter at zero.
    pub fn new() -> Self {
        TelemetryRegistry {
            histograms: (0..OpClass::COUNT).map(|_| Histogram::new()).collect(),
            counters: (0..OpClass::COUNT).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one latency/pause sample (nanoseconds) under `class`.
    pub fn record_ns(&self, class: OpClass, ns: u64) {
        self.histograms[class.idx()].record(ns);
    }

    /// The histogram of `class`.
    pub fn histogram(&self, class: OpClass) -> &Histogram {
        &self.histograms[class.idx()]
    }

    /// Adds `n` to the free-form counter of `class` (entries drained,
    /// records synced, shards split — whatever the class's unit is).
    pub fn add(&self, class: OpClass, n: u64) {
        self.counters[class.idx()].fetch_add(n, Ordering::Relaxed);
    }

    /// The free-form counter of `class`.
    pub fn counter(&self, class: OpClass) -> u64 {
        self.counters[class.idx()].load(Ordering::Relaxed)
    }

    /// Starts an RAII wall-clock span: the elapsed nanoseconds are recorded
    /// under `class` when the returned guard drops.
    pub fn span(&self, class: OpClass) -> Span<'_> {
        Span { registry: self, class, start: Instant::now() }
    }

    /// Merges every histogram and counter of `other` into `self`, exactly.
    /// Used to aggregate the per-shard registries of a sharded router.
    pub fn merge_from(&self, other: &TelemetryRegistry) {
        for (mine, theirs) in self.histograms.iter().zip(other.histograms.iter()) {
            mine.merge_from(theirs);
        }
        for (mine, theirs) in self.counters.iter().zip(other.counters.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Resets every histogram and counter.
    pub fn reset(&self) {
        for h in &self.histograms {
            h.reset();
        }
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// A point-in-time summary of every class, for reports and bench JSON.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            classes: OpClass::ALL
                .iter()
                .map(|&class| ClassStats {
                    class,
                    summary: self.histogram(class).summary(),
                    counter: self.counter(class),
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for TelemetryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("TelemetryRegistry");
        for class in OpClass::ALL {
            let h = self.histogram(class);
            if !h.is_empty() {
                s.field(class.label(), &h.count());
            }
        }
        s.finish()
    }
}

/// An RAII wall-clock timer; records its elapsed nanoseconds into the
/// registry when dropped. Wall-clock (not simulated device time) because
/// the pause points it instruments — lock waits, drains racing readers —
/// are real elapsed time the simulated clock cannot see.
pub struct Span<'a> {
    registry: &'a TelemetryRegistry,
    class: OpClass,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.registry.record_ns(self.class, self.start.elapsed().as_nanos() as u64);
    }
}

/// Summary of one class inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Copy)]
pub struct ClassStats {
    /// Which class this row summarises.
    pub class: OpClass,
    /// Count / mean / tail percentiles of the class's histogram.
    pub summary: TailSummary,
    /// The class's free-form counter.
    pub counter: u64,
}

/// A point-in-time summary of a [`TelemetryRegistry`] — one row per
/// [`OpClass`], in [`OpClass::ALL`] order.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    classes: Vec<ClassStats>,
}

impl TelemetrySnapshot {
    /// Every class's row, in stable order.
    pub fn classes(&self) -> &[ClassStats] {
        &self.classes
    }

    /// The row of one class.
    pub fn class(&self, class: OpClass) -> &ClassStats {
        &self.classes[class.idx()]
    }

    /// The rows of every class that recorded at least one sample.
    pub fn non_empty(&self) -> impl Iterator<Item = &ClassStats> {
        self.classes.iter().filter(|c| c.summary.count > 0)
    }

    /// The pause-attribution table: every pause class with at least one
    /// sample, sorted by worst (max) pause first — the direct answer to
    /// "what caused the p999 spike". At most `limit` rows.
    pub fn top_pauses(&self, limit: usize) -> Vec<&ClassStats> {
        let mut pauses: Vec<&ClassStats> =
            self.classes.iter().filter(|c| c.class.is_pause() && c.summary.count > 0).collect();
        pauses.sort_by(|a, b| {
            b.summary.max_ns.cmp(&a.summary.max_ns).then(a.class.idx().cmp(&b.class.idx()))
        });
        pauses.truncate(limit);
        pauses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_exhaustive_and_monotonic() {
        // Every bucket's high bound maps back to the same bucket, and highs
        // are strictly increasing — no value can fall between buckets.
        let mut prev = None;
        for idx in 0..BUCKET_COUNT {
            let high = bucket_high(idx);
            assert_eq!(bucket_index(high), idx, "high of bucket {idx} must map back");
            if let Some(p) = prev {
                assert!(high > p, "bucket highs must be strictly increasing at {idx}");
                assert_eq!(
                    bucket_index(p + 1),
                    idx,
                    "the value after bucket {}'s high must land in bucket {idx}",
                    idx - 1
                );
            }
            prev = Some(high);
        }
        assert_eq!(bucket_high(BUCKET_COUNT - 1), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(bucket_index(0), 0);
    }

    #[test]
    fn small_values_are_exact_and_large_values_bounded() {
        let h = Histogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        // Values below SUB live in unit buckets: every quantile is exact.
        assert_eq!(h.value_at_quantile(0.5), 15);
        assert_eq!(h.value_at_quantile(1.0), 31);

        let h = Histogram::new();
        h.record(1_000_000);
        let est = h.value_at_quantile(0.99);
        assert!(est >= 1_000_000);
        assert!((est - 1_000_000) as f64 <= 1_000_000.0 * RELATIVE_ERROR_BOUND);
    }

    #[test]
    fn summary_orders_percentiles_and_max_is_exact() {
        let h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(i * 37 + 5);
        }
        let s = h.summary();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.max_ns, 9_999 * 37 + 5, "max is tracked exactly, not bucketed");
        assert!(s.p50_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.p999_ns);
        assert!(s.p999_ns <= s.max_ns);
        assert!(s.mean_ns > 0.0);
    }

    #[test]
    fn merge_is_exact_bucket_for_bucket() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for i in 0..5_000u64 {
            let v = i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17) >> 20;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            both.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.bucket_counts(), both.bucket_counts());
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.max(), both.max());
        for q in [0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(a.value_at_quantile(q), both.value_at_quantile(q));
        }
    }

    #[test]
    fn histogram_memory_is_constant_with_no_per_sample_allocation() {
        // The histogram is one fixed-size struct: BUCKET_COUNT bucket
        // counters plus three scalars. Recording takes `&self` and touches
        // only those atomics — there is no Vec, no Box, nothing that could
        // grow per sample — so its memory is exactly MEMORY_BYTES no matter
        // how much is recorded.
        assert_eq!(Histogram::MEMORY_BYTES, std::mem::size_of::<Histogram>());
        assert_eq!(Histogram::MEMORY_BYTES, (BUCKET_COUNT + 3) * 8);
        let h = Histogram::new();
        for i in 0..100_000u64 {
            h.record(i.wrapping_mul(2_654_435_761) >> 7);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(std::mem::size_of_val(&h), Histogram::MEMORY_BYTES);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.value_at_quantile(0.99), 0);
        assert_eq!(h.summary(), TailSummary::default());
    }

    #[test]
    fn registry_spans_record_into_the_right_class() {
        let r = TelemetryRegistry::new();
        {
            let _s = r.span(OpClass::Drain);
            std::hint::black_box(());
        }
        r.record_ns(OpClass::Lookup, 123);
        r.add(OpClass::Drain, 64);
        assert_eq!(r.histogram(OpClass::Drain).count(), 1);
        assert_eq!(r.histogram(OpClass::Lookup).count(), 1);
        assert_eq!(r.histogram(OpClass::Smo).count(), 0);
        assert_eq!(r.counter(OpClass::Drain), 64);
        let snap = r.snapshot();
        assert_eq!(snap.class(OpClass::Lookup).summary.p50_ns, 123);
        assert_eq!(snap.non_empty().count(), 2);
    }

    #[test]
    fn registry_merge_and_reset_cover_every_class() {
        let a = TelemetryRegistry::new();
        let b = TelemetryRegistry::new();
        for (i, class) in OpClass::ALL.into_iter().enumerate() {
            a.record_ns(class, 100 + i as u64);
            b.record_ns(class, 1_000_000 + i as u64);
            b.add(class, i as u64 + 1);
        }
        a.merge_from(&b);
        for (i, class) in OpClass::ALL.into_iter().enumerate() {
            assert_eq!(a.histogram(class).count(), 2, "{}", class.label());
            assert_eq!(a.histogram(class).max(), 1_000_000 + i as u64);
            assert_eq!(a.counter(class), i as u64 + 1);
        }
        a.reset();
        for class in OpClass::ALL {
            assert!(a.histogram(class).is_empty());
            assert_eq!(a.counter(class), 0);
        }
    }

    #[test]
    fn top_pauses_sorts_by_worst_max_and_skips_op_classes() {
        let r = TelemetryRegistry::new();
        r.record_ns(OpClass::Lookup, u64::MAX / 2); // op class: excluded
        r.record_ns(OpClass::Smo, 500_000);
        r.record_ns(OpClass::Drain, 2_000_000);
        r.record_ns(OpClass::WalSync, 10_000);
        let snap = r.snapshot();
        let top = snap.top_pauses(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].class, OpClass::Drain);
        assert_eq!(top[1].class, OpClass::Smo);
        let all = snap.top_pauses(usize::MAX);
        assert_eq!(all.len(), 3, "op classes never appear in the pause table");
    }

    #[test]
    fn class_labels_are_unique_and_stable() {
        let labels: std::collections::HashSet<_> = OpClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), OpClass::COUNT);
        assert_eq!(OpClass::WalSync.label(), "wal_sync");
        assert!(OpClass::Drain.is_pause());
        assert!(!OpClass::Lookup.is_pause());
    }

    #[test]
    fn concurrent_recording_matches_sequential_exactly() {
        // Determinism under concurrency: N threads each record a disjoint
        // shard of the sample set; the result must equal the sequential
        // recording bucket-for-bucket (atomic adds commute).
        let samples: Vec<u64> = (0..40_000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(23) >> 16)
            .collect();
        let sequential = Histogram::new();
        for &v in &samples {
            sequential.record(v);
        }
        let concurrent = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let concurrent = &concurrent;
                let samples = &samples;
                s.spawn(move || {
                    for v in samples.iter().skip(t).step_by(8) {
                        concurrent.record(*v);
                    }
                });
            }
        });
        assert_eq!(concurrent.bucket_counts(), sequential.bucket_counts());
        assert_eq!(concurrent.count(), sequential.count());
        assert_eq!(concurrent.sum(), sequential.sum());
        assert_eq!(concurrent.max(), sequential.max());
    }
}
