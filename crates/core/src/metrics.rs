//! Latency, throughput and insert-breakdown metrics.
//!
//! The paper reports three metric families (§5.3): average throughput per
//! workload, tail latency (p99 and standard deviation, Fig. 12), and the
//! average fetched block count per query. Fetched blocks come from
//! [`lidx_storage::IoStats`]; this module supplies the other two, plus the
//! four-step insert breakdown of Fig. 6.

use std::sync::Arc;

use lidx_storage::Disk;
use serde::Serialize;

/// Records one latency sample (in nanoseconds) per operation and produces
/// summary statistics.
#[derive(Debug, Default, Clone)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a recorder with capacity for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        LatencyRecorder { samples: Vec::with_capacity(n) }
    }

    /// Records one sample in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Computes the summary statistics over all recorded samples.
    pub fn summary(&self) -> LatencySummary {
        if self.samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let count = sorted.len();
        let total: u128 = sorted.iter().map(|&v| u128::from(v)).sum();
        let mean = (total / count as u128) as f64 + (total % count as u128) as f64 / count as f64;
        let variance = sorted
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / count as f64;
        LatencySummary {
            count: count as u64,
            mean_ns: mean,
            p50_ns: percentile(&sorted, 0.50),
            p95_ns: percentile(&sorted, 0.95),
            p99_ns: percentile(&sorted, 0.99),
            p999_ns: percentile(&sorted, 0.999),
            max_ns: *sorted.last().unwrap(),
            stddev_ns: variance.sqrt(),
        }
    }
}

/// Nearest-rank percentile over a sorted slice: the smallest sample such
/// that at least `q` of the set is ≤ it. Total on its inputs — an empty
/// slice reports 0 (there is no sample to name), a single sample is every
/// percentile of itself, and `q = 1.0` is exactly the maximum (the rank
/// computation cannot step past the end even when `q * len` rounds up).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Summary statistics over a set of latency samples.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: f64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile, nanoseconds (the paper's tail-latency metric).
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds — one SMO or drain pause per thousand
    /// operations lands here, which is why the bench snapshots carry it.
    pub p999_ns: u64,
    /// Maximum observed, nanoseconds.
    pub max_ns: u64,
    /// Population standard deviation, nanoseconds.
    pub stddev_ns: f64,
}

/// Throughput derived from an operation count and elapsed (simulated) time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Throughput {
    /// Operations executed.
    pub ops: u64,
    /// Elapsed time in seconds (simulated device time plus any measured CPU
    /// time the harness chooses to add).
    pub seconds: f64,
}

impl Throughput {
    /// Creates a throughput record.
    pub fn new(ops: u64, seconds: f64) -> Self {
        Throughput { ops, seconds }
    }

    /// Operations per second; infinite if no time elapsed.
    pub fn ops_per_sec(&self) -> f64 {
        if self.seconds <= 0.0 {
            f64::INFINITY
        } else {
            self.ops as f64 / self.seconds
        }
    }
}

/// The four steps of an insert operation, as broken down in Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertStep {
    /// Initial search: find the position where the key belongs.
    Search,
    /// Insertion proper: write the key-payload pair (shifting if needed).
    Insert,
    /// Structural modification operation: splits, resegmentation, subtree
    /// rebuilds, LSM merges.
    Smo,
    /// Maintenance: statistics updates along the access path (ALEX / LIPP).
    Maintenance,
}

impl InsertStep {
    /// All steps in reporting order.
    pub const ALL: [InsertStep; 4] =
        [InsertStep::Search, InsertStep::Insert, InsertStep::Smo, InsertStep::Maintenance];

    fn idx(self) -> usize {
        match self {
            InsertStep::Search => 0,
            InsertStep::Insert => 1,
            InsertStep::Smo => 2,
            InsertStep::Maintenance => 3,
        }
    }

    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            InsertStep::Search => "search",
            InsertStep::Insert => "insert",
            InsertStep::Smo => "smo",
            InsertStep::Maintenance => "maintenance",
        }
    }
}

/// Accumulated per-step cost of insert operations (device time and block
/// counts), reproducing the write-performance breakdown of Fig. 6, plus the
/// group-commit drain counters a [`WriteBuffer`] front contributes.
///
/// [`WriteBuffer`]: crate::write_buffer::WriteBuffer
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InsertBreakdown {
    device_ns: [u64; 4],
    reads: [u64; 4],
    writes: [u64; 4],
    /// Number of insert operations folded into this breakdown.
    pub inserts: u64,
    /// Number of group-commit drains (buffered batches handed to
    /// `insert_batch`) folded into this breakdown. Zero for a bare index;
    /// a `WriteBuffer` front adds its flush count so a report can attribute
    /// drain cost.
    pub drains: u64,
    /// Total entries those drains carried (so `drained_entries / drains` is
    /// the realised group-commit batch size).
    pub drained_entries: u64,
}

impl InsertBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes that one complete insert finished.
    pub fn finish_insert(&mut self) {
        self.inserts += 1;
    }

    /// The per-field difference `self - before` (saturating), for isolating
    /// the cost of one measured phase from an accumulated breakdown.
    #[must_use]
    pub fn since(&self, before: &InsertBreakdown) -> InsertBreakdown {
        let mut delta = InsertBreakdown::new();
        for i in 0..4 {
            delta.device_ns[i] = self.device_ns[i].saturating_sub(before.device_ns[i]);
            delta.reads[i] = self.reads[i].saturating_sub(before.reads[i]);
            delta.writes[i] = self.writes[i].saturating_sub(before.writes[i]);
        }
        delta.inserts = self.inserts.saturating_sub(before.inserts);
        delta.drains = self.drains.saturating_sub(before.drains);
        delta.drained_entries = self.drained_entries.saturating_sub(before.drained_entries);
        delta
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &InsertBreakdown) {
        for i in 0..4 {
            self.device_ns[i] += other.device_ns[i];
            self.reads[i] += other.reads[i];
            self.writes[i] += other.writes[i];
        }
        self.inserts += other.inserts;
        self.drains += other.drains;
        self.drained_entries += other.drained_entries;
    }

    /// Total simulated device time spent in `step`, nanoseconds.
    pub fn device_ns(&self, step: InsertStep) -> u64 {
        self.device_ns[step.idx()]
    }

    /// Total block reads attributed to `step`.
    pub fn reads(&self, step: InsertStep) -> u64 {
        self.reads[step.idx()]
    }

    /// Total block writes attributed to `step`.
    pub fn writes(&self, step: InsertStep) -> u64 {
        self.writes[step.idx()]
    }

    /// Average device time per insert spent in `step`, nanoseconds.
    pub fn avg_ns(&self, step: InsertStep) -> f64 {
        if self.inserts == 0 {
            0.0
        } else {
            self.device_ns(step) as f64 / self.inserts as f64
        }
    }

    /// Total device time across all steps, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.device_ns.iter().sum()
    }
}

/// Meters a write path's disk I/O into an [`InsertBreakdown`] by laps: every
/// [`lap`](StepLaps::lap) charges *everything* the disk did since the
/// previous lap (or since [`start`](StepLaps::start)) to one [`InsertStep`].
/// A write path starts one meter and laps at each step boundary, so I/O
/// between two measurement points cannot be left unattributed and the step
/// sums always equal the disk's own counters over the metered interval.
#[derive(Debug)]
pub struct StepLaps {
    disk: Arc<Disk>,
    /// `[device_ns, reads, writes]` at the previous lap.
    mark: [u64; 3],
}

impl StepLaps {
    /// Starts metering `disk` from its current counters.
    pub fn start(disk: &Arc<Disk>) -> Self {
        StepLaps { disk: Arc::clone(disk), mark: Self::read(disk) }
    }

    fn read(disk: &Disk) -> [u64; 3] {
        let stats = disk.stats();
        [stats.device_ns(), stats.reads(), stats.writes()]
    }

    /// Charges the device time, block reads and block writes since the
    /// previous lap to `step` of `breakdown`.
    pub fn lap(&mut self, breakdown: &mut InsertBreakdown, step: InsertStep) {
        let now = Self::read(&self.disk);
        let i = step.idx();
        // Saturating like `OpStats::since`: a harness may reset the disk's
        // counters between two laps.
        breakdown.device_ns[i] += now[0].saturating_sub(self.mark[0]);
        breakdown.reads[i] += now[1].saturating_sub(self.mark[1]);
        breakdown.writes[i] += now[2].saturating_sub(self.mark[2]);
        self.mark = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_basic_statistics() {
        let mut r = LatencyRecorder::new();
        for v in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            r.record(v);
        }
        let s = r.summary();
        assert_eq!(s.count, 10);
        assert!((s.mean_ns - 55.0).abs() < 1e-9);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p99_ns, 100);
        assert_eq!(s.p999_ns, 100);
        assert_eq!(s.max_ns, 100);
        assert!(s.stddev_ns > 28.0 && s.stddev_ns < 29.0);
    }

    #[test]
    fn empty_recorder_yields_zeroes() {
        let r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.summary(), LatencySummary::default());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1u64, 2, 3, 4];
        assert_eq!(percentile(&sorted, 0.5), 2);
        assert_eq!(percentile(&sorted, 0.75), 3);
        assert_eq!(percentile(&sorted, 0.99), 4);
        assert_eq!(percentile(&sorted, 0.01), 1);
    }

    #[test]
    fn percentile_edge_cases_are_total() {
        // Empty: no sample to name — 0, never a panic (the old clamp(1, 0)
        // panicked in release builds).
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[], 1.0), 0);
        // Single sample: every percentile of itself.
        for q in [0.0, 0.001, 0.5, 0.999, 1.0] {
            assert_eq!(percentile(&[42], q), 42);
        }
        // q = 1.0 is exactly the maximum, even when q * len rounds up, and
        // q = 0.0 still names the first sample (rank is clamped to 1).
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 1.0), 1000);
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&sorted, 0.999), 999);
    }

    #[test]
    fn p99_reflects_tail() {
        let mut r = LatencyRecorder::with_capacity(1000);
        for _ in 0..980 {
            r.record(100);
        }
        for _ in 0..20 {
            r.record(10_000);
        }
        let s = r.summary();
        assert_eq!(s.p50_ns, 100);
        assert_eq!(s.p99_ns, 10_000);
        assert_eq!(s.p999_ns, 10_000);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.p999_ns && s.p999_ns <= s.max_ns);
        assert!(s.stddev_ns > 500.0, "tail must inflate the standard deviation");
    }

    #[test]
    fn throughput_division() {
        let t = Throughput::new(1000, 2.0);
        assert!((t.ops_per_sec() - 500.0).abs() < 1e-9);
        assert!(Throughput::new(10, 0.0).ops_per_sec().is_infinite());
    }

    #[test]
    fn insert_breakdown_accumulates_and_averages() {
        use lidx_storage::{BlockKind, DiskConfig};
        let disk = Disk::in_memory(DiskConfig::default());
        let mut b = InsertBreakdown::new();

        let mut laps = StepLaps::start(&disk);
        disk.stats().record_device_ns(100);
        laps.lap(&mut b, InsertStep::Search);
        b.finish_insert();
        assert_eq!(b.inserts, 1);
        assert_eq!(b.device_ns(InsertStep::Search), 100);
        assert_eq!(b.device_ns(InsertStep::Smo), 0);
        assert!((b.avg_ns(InsertStep::Search) - 100.0).abs() < 1e-9);

        // A lap takes everything since the previous one — nothing recorded
        // between two laps can fall outside a step — and nothing twice.
        disk.stats().record_read(BlockKind::Leaf);
        disk.stats().record_device_ns(7);
        disk.stats().record_write(BlockKind::Inner);
        laps.lap(&mut b, InsertStep::Smo);
        laps.lap(&mut b, InsertStep::Maintenance);
        assert_eq!(
            [b.device_ns(InsertStep::Smo), b.reads(InsertStep::Smo), b.writes(InsertStep::Smo)],
            [7, 1, 1]
        );
        assert_eq!(b.device_ns(InsertStep::Maintenance), 0);
        assert_eq!(b.total_ns(), disk.stats().device_ns());

        let mut b2 = InsertBreakdown::new();
        let mut laps2 = StepLaps::start(&disk);
        disk.stats().record_device_ns(50);
        laps2.lap(&mut b2, InsertStep::Smo);
        b2.finish_insert();
        b.merge(&b2);
        assert_eq!(b.inserts, 2);
        assert_eq!(b.total_ns(), 157);
    }

    #[test]
    fn step_labels_cover_fig6_categories() {
        let labels: Vec<_> = InsertStep::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["search", "insert", "smo", "maintenance"]);
    }
}
