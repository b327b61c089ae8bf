//! The experiment harness reproducing every table and figure of the paper's
//! evaluation section (§5–§7).
//!
//! * [`runner`] builds any of the studied indexes on a freshly configured
//!   simulated disk, executes a [`lidx_workloads::Workload`] against it and
//!   collects the metrics the paper reports: throughput (derived from the
//!   device cost model), average fetched blocks per query broken down by
//!   block kind, tail latency, storage footprint and the insert-step
//!   breakdown.
//! * [`experiments`] contains one function per table / figure; each prints
//!   the same rows or series the paper shows, at a configurable scale.
//! * [`report`] holds small text-table formatting helpers.
//! * [`recovery`] creates and reopens a durable store (the perf ledger's
//!   `durable_insert` workload and the kill-and-recover oracle suite use
//!   it); [`sharded_recovery`] does the same for a sharded router.
//!
//! The `exp` binary (`cargo run -p lidx-experiments --bin exp -- <target>`)
//! dispatches to these functions; `exp all` regenerates every artifact, and
//! `exp all --quick --seed 42` prints exactly the golden report
//! `tests/golden/paper_artifacts_quick_seed42.txt`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod recovery;
pub mod report;
pub mod runner;
pub mod sharded_recovery;

pub use recovery::{
    create_durable_index_with, open_durable_index, reopen_durable_index, DurableIndex,
};
pub use runner::{IndexChoice, RunConfig, WorkloadReport};
pub use sharded_recovery::{DurableShardedRouter, SplitFault};
