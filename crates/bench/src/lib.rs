//! Shared helpers for the Criterion benchmark suite.
//!
//! Every bench target corresponds to one table or figure family of the
//! paper's evaluation (see `DESIGN.md` §3 for the mapping). Benchmarks run at
//! a reduced scale so `cargo bench --workspace` completes in minutes; the
//! `exp` binary in `lidx-experiments` regenerates the full tables.

use std::sync::Arc;

use lidx_core::DiskIndex;
use lidx_experiments::runner::IndexChoice;
use lidx_storage::{DeviceModel, Disk};
use lidx_workloads::{Dataset, Workload, WorkloadKind, WorkloadSpec};

/// Number of keys used by the benchmark datasets.
pub const BENCH_KEYS: usize = 50_000;
/// Number of operations executed per measured iteration batch.
pub const BENCH_OPS: usize = 200;

/// Builds a disk with the paper's default configuration (4 KB blocks, no
/// buffer pool) and no device latency so wall-clock time reflects the work
/// the index implementation actually does.
pub fn bench_disk(block_size: usize) -> Arc<Disk> {
    Disk::in_memory(
        lidx_storage::DiskConfig::with_block_size(block_size).device(DeviceModel::none()),
    )
}

/// Builds and bulk loads `choice` over `dataset` at the benchmark scale.
pub fn loaded_index(
    choice: IndexChoice,
    dataset: Dataset,
    block_size: usize,
) -> (Box<dyn DiskIndex>, Workload) {
    let keys = dataset.generate_keys(BENCH_KEYS, 0xBEEF);
    let workload =
        Workload::build(&keys, WorkloadSpec::new(WorkloadKind::LookupOnly, BENCH_OPS, 0));
    let disk = bench_disk(block_size);
    let mut index = choice.build(disk);
    index.bulk_load(&workload.bulk).expect("bulk load");
    (index, workload)
}

/// The indexes compared by most benches.
pub const BENCH_INDEXES: [IndexChoice; 5] = IndexChoice::EVALUATED;
