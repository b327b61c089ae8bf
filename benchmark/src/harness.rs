//! Shared pieces of the benchmark: seeded inputs, the per-cell result
//! record, the answer oracle and the small statistics the metrics use.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lidx_core::{payload_for, Entry, IndexStats, Key, Value};
use lidx_experiments::runner::IndexChoice;
use lidx_storage::{DeviceModel, Disk, DiskConfig, OpStats, TelemetryRegistry};
use lidx_workloads::Dataset;

/// Block size of every disk the benchmark builds.
pub const BLOCK_SIZE: usize = 4096;
/// Bytes of user data per entry (`u64` key + `u64` payload).
pub const ENTRY_BYTES: u64 = 16;
/// Designs measured per workload, one pass each per round.
pub const DESIGNS: [IndexChoice; 7] = IndexChoice::ALL_DESIGNS;
/// Seed of the key population, which `--seed` does not change.
pub const DATASET_SEED: u64 = 42;
/// How often a run repeats its set-up to report a median `setup_s`.
pub const SETUP_REPS: usize = 3;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Measurement budget of the whole workload (`--seconds`).
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// A tenth of the keys and operations; a smoke test of the same paths.
    pub quick: bool,
}

impl Config {
    /// Scales a full-size count down for `--quick`.
    pub fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }

    /// The measurement budget of the workload's untraced passes.
    pub fn budget(&self) -> Duration {
        // A traced run spends the other half of its budget on the traced
        // pass and the layer probes; a quick run is a tenth in time as well.
        let share = if self.trace { 0.5 } else { 1.0 } * if self.quick { 0.1 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }

    pub fn setup_reps(&self) -> usize {
        if self.trace || self.quick {
            1
        } else {
            SETUP_REPS
        }
    }

    /// Fewest timed passes (or fresh repetitions) a cell takes its median
    /// over.
    pub fn min_passes(&self) -> usize {
        if self.quick {
            2
        } else {
            3
        }
    }
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generator for one named input stream of a run; streams with different
/// tags are independent, and the same `(seed, tag)` always repeats.
pub fn stream(seed: u64, tag: u64) -> u64 {
    let mut s = seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix64(&mut s)
}

pub fn uniform_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// The sorted key population of a run and its bulk-load entries.
pub struct KeySet {
    pub keys: Vec<Key>,
}

impl KeySet {
    /// The population is the benchmark's dataset and is the same on every
    /// run; `--seed` draws the operation streams over it. (With a key set
    /// per seed, how many SMOs a design happens to need differs by up to a
    /// quarter between seeds at this size, which is the input varying and not the
    /// program.)
    pub fn generate(cfg: &Config) -> KeySet {
        KeySet { keys: Dataset::Ycsb.generate_keys(cfg.scaled(200_000), DATASET_SEED) }
    }

    pub fn entries(&self) -> Vec<Entry> {
        self.keys.iter().map(|&k| (k, payload_for(k))).collect()
    }

    /// The write workloads bulk-load the even-indexed keys and insert the
    /// odd-indexed ones, so inserts land between stored keys everywhere.
    pub fn split_even_odd(&self) -> (Vec<Entry>, Vec<Key>) {
        let bulk = self.keys.iter().step_by(2).map(|&k| (k, payload_for(k))).collect();
        let fresh = self.keys.iter().skip(1).step_by(2).copied().collect();
        (bulk, fresh)
    }
}

/// Fisher-Yates with the run's generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (splitmix64(rng) % (i as u64 + 1)) as usize);
    }
}

/// An in-memory disk on the SSD cost model, charged by accounting.
pub fn memory_disk(pool_blocks: usize, queue_depth: usize) -> Arc<Disk> {
    Disk::in_memory(disk_config(pool_blocks).queue_depth(queue_depth))
}

pub fn disk_config(pool_blocks: usize) -> DiskConfig {
    DiskConfig::with_block_size(BLOCK_SIZE).device(DeviceModel::ssd()).buffer_blocks(pool_blocks)
}

/// Counts every checked answer; a wrong, missing or errored one is a failure.
#[derive(Debug, Default, Clone, Copy)]
pub struct Oracle {
    pub attempted: u64,
    pub failed: u64,
}

impl Oracle {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// A lookup answer must be exactly the payload rule's value.
    pub fn check_lookup(&mut self, key: Key, answer: Option<Value>) {
        self.check(answer == Some(payload_for(key)));
    }

    /// A broken workload invariant (not an answer): always reported.
    pub fn violation(&mut self, what: &str) {
        eprintln!("invariant violated: {what}");
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn absorb(&mut self, other: Oracle) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The deterministic counts of one pass; two passes over the same inputs
/// must agree on every field (the exactness self-check).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExactCounts {
    pub reads: u64,
    pub writes: u64,
    pub device_ns: u64,
    pub smo: u64,
    pub drains: u64,
}

impl ExactCounts {
    pub fn new(delta: &OpStats, smo: u64, drains: u64) -> Self {
        ExactCounts {
            reads: delta.reads(),
            writes: delta.writes(),
            device_ns: delta.device_ns,
            smo,
            drains,
        }
    }
}

/// Everything one design produced on one workload. Wall-clock fields are
/// medians over the cell's passes.
pub struct Cell {
    pub design: IndexChoice,
    /// Passes (or fresh repetitions) the medians were taken over.
    pub passes: usize,
    /// Median pass time as a depth-1 caller on the modeled device sees it.
    pub modeled_s: f64,
    /// Median pass time the CPU (and, with two clients, lock waits) took.
    pub cpu_s: f64,
    /// Median over passes of the p99 of per-operation modeled latency.
    pub p99_us: f64,
    /// Median set-up (build, bulk load, warm-up) and bulk-load seconds.
    pub setup_s: f64,
    pub bulk_load_s: f64,
    pub end: EndState,
    pub extra: Extra,
}

/// The counts of one measured pass and the state the design ended in.
pub struct EndState {
    /// Operations per pass (a batch of lookups counts each lookup).
    pub ops: u64,
    /// Latency samples per pass the p99 is taken over.
    pub p99_samples: u64,
    /// Counter window of one measured pass.
    pub stats: OpStats,
    pub index: IndexStats,
    /// Device bytes occupied and written since creation, and the user bytes
    /// stored, at the end of the workload.
    pub device_bytes: u64,
    pub written_bytes: u64,
    pub user_bytes: u64,
    /// User bytes inserted by the measured pass (0 on read workloads).
    pub inserted_bytes: u64,
    /// SMOs and drains of the measured pass.
    pub smo: u64,
    pub drains: u64,
}

/// Workload-specific measurements a few layer metrics need.
#[derive(Debug, Default, Clone, Copy)]
pub struct Extra {
    pub lookups: u64,
    pub stages: u64,
    pub lookup_p50_us: f64,
    pub lookup_p999_us: f64,
    pub reopen_s: f64,
    pub replayed: u64,
    /// Seconds per operation of the traced and of the untraced passes, harness
    /// included.
    pub traced_s: f64,
    pub untraced_s: f64,
}

/// The result of one workload: a cell per design plus the shared parts.
pub struct Outcome {
    pub cells: Vec<Cell>,
    pub oracle: Oracle,
    /// Median key-generation seconds (part of `setup_s`).
    pub keygen_s: f64,
    /// Pause telemetry of one measured pass, merged over designs.
    pub telemetry: TelemetryRegistry,
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of `samples` (nearest rank), reordering them.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(rank).1
}

pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    (sum / f64::from(n.max(1))).exp()
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Times `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `setup` `reps` times, keeping the last product and every time.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (product, secs) = timed(&mut setup);
        times.push(secs);
        last = Some(product);
    }
    (last.expect("at least one set-up ran"), times)
}

/// A scratch directory under `benchmark/out`, removed when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        let path = crate::out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory");
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
