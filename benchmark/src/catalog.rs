//! The benchmark's contract in one place: the workloads, every metric with
//! its unit, direction and bound, and the `BENCHMARK.json` that declares
//! them. The runner refuses to print a metric that is not listed here, and
//! `--manifest` writes the file from these tables, so the two cannot drift.

use lidx_experiments::runner::IndexChoice;

use crate::harness::DESIGNS;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "lookup_warm",
        why: "pool holds every design whole: only model/search, node decode and the pool-hit path \
              work, the device does nothing",
    },
    WorkloadDef {
        name: "lookup_cold",
        why: "pool is 6% of the B+-tree and 0.1% of LIPP: read waves, eviction and tree height \
              decide it, index CPU is a small share",
    },
    WorkloadDef {
        name: "scan_cold",
        why: "same small pool and queue used by scans: scan-class reads, readahead and sequential \
              cost; a pool change that helps lookups and hurts scans shows",
    },
    WorkloadDef {
        name: "insert_only",
        why: "the paper's write-only workload on the bare designs: index write paths and SMOs, \
              write cost and space moving against read cost",
    },
    WorkloadDef {
        name: "serve_mixed",
        why: "two clients on the sharded tier with blocking device time: router, overlay, rw-lock \
              and drain-under-lock do the work, readers stall behind drains",
    },
    WorkloadDef {
        name: "durable_insert",
        why: "the only workload on real files: WAL, checksums, file backend, checkpoints and \
              crash-reopen replay of the logged tail",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics, which explain and do not gate.
    pub bound: Option<f64>,
}

fn metric(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name: name.into(), unit, better, bound: None }
}

/// The five designs the paper evaluates carry per-design end-to-end gates;
/// the two hybrids run everywhere and report under their layer metrics.
pub const GATED: [IndexChoice; 5] = IndexChoice::EVALUATED;

/// Bound of every wall-clock metric. One bound covers a metric on all six
/// workloads, so the noisiest sets it: between two processes on this class
/// of machine the CPU-bound cells (`lookup_warm`, and the CPU share of the
/// others) differ by 5-15% of their median even as medians over interleaved
/// passes, while the device-bound cells repeat within 1-3%. `README.md`
/// lists the spread seen per workload, which is what a change should be
/// judged against.
pub const WALL_CLOCK_BOUND: f64 = 0.25;

pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name: String, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..metric(name, unit, better)
    };
    let mut out = Vec::new();
    for d in GATED {
        let name = format!("modeled_ops_s.{}", d.name());
        out.push(bounded(name, "1/s", Better::Higher, WALL_CLOCK_BOUND));
    }
    for d in GATED {
        out.push(bounded(format!("p99_us.{}", d.name()), "us", Better::Lower, WALL_CLOCK_BOUND));
    }
    out.push(bounded("cpu_us_per_op".into(), "us", Better::Lower, WALL_CLOCK_BOUND));
    // Counts: exact for a given seed on one client; across seeds the insert
    // order moves ALEX's and LIPP's footprint by 2-3%.
    out.push(bounded("space_amp".into(), "ratio", Better::Lower, 0.1));
    out.push(bounded("write_amp".into(), "ratio", Better::Lower, 0.05));
    out.push(bounded("setup_s".into(), "s", Better::Lower, WALL_CLOCK_BOUND));
    out
}

/// Per-design layer metrics, in the order they are printed.
pub const DESIGN_METRICS: [(&str, &str, Better); 8] = [
    ("cpu_ns_per_op", "ns", Better::Lower),
    ("reads_per_op", "blocks", Better::Lower),
    ("writes_per_op", "blocks", Better::Lower),
    ("height", "levels", Better::Lower),
    ("smo_per_kop", "count", Better::Lower),
    ("space_amp", "ratio", Better::Lower),
    ("bulk_load_s", "s", Better::Lower),
    ("p99_us", "us", Better::Lower),
];

pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    for d in DESIGNS {
        for (name, unit, better) in DESIGN_METRICS {
            out.push(metric(format!("{}.{name}", d.name()), unit, better));
        }
    }
    out.extend([
        metric("hybrid-pla.modeled_ops_s", "1/s", Higher),
        metric("hybrid-modeltree.modeled_ops_s", "1/s", Higher),
        metric("btree.leaf_decode_ns", "ns", Lower),
        metric("btree.inner_decode_ns", "ns", Lower),
        metric("storage.device.us_per_op", "us", Lower),
        metric("storage.device.roofline_frac", "ratio", Higher),
        metric("storage.buffer.hit_rate", "ratio", Higher),
        metric("storage.buffer.reuse_hit_rate", "ratio", Higher),
        metric("storage.buffer.hit_ns", "ns", Lower),
        metric("storage.buffer.miss_ns", "ns", Lower),
        metric("storage.buffer.frames_pinned_per_op", "count", Lower),
        metric("storage.buffer.bytes_copied_per_op", "bytes", Lower),
        metric("storage.queue.ios_per_wave", "count", Higher),
        metric("storage.queue.max_inflight", "count", Higher),
        metric("storage.queue.overlap_saved_frac", "ratio", Higher),
        metric("storage.queue.readahead_hit_rate", "ratio", Higher),
        metric("storage.format.crc32_ns_per_block", "ns", Lower),
        metric("storage.format.checksum_failures", "count", Lower),
        metric("storage.wal.append_ns", "ns", Lower),
        metric("storage.wal.sync_ns", "ns", Lower),
        metric("storage.wal.bytes_per_user_byte", "ratio", Lower),
        metric("storage.wal.syncs_per_kop", "count", Lower),
        metric("storage.backend.file_read_ns", "ns", Lower),
        metric("storage.backend.file_write_ns", "ns", Lower),
        metric("storage.io_retries", "count", Lower),
        metric("core.write_buffer.stage_ns", "ns", Lower),
        metric("core.write_buffer.drain_us_per_entry", "us", Lower),
        metric("core.write_buffer.drains_per_kop", "count", Lower),
        metric("core.concurrent.self_ns", "ns", Lower),
        metric("core.concurrent.overlay_self_ns", "ns", Lower),
        metric("core.concurrent.read_stall_frac", "ratio", Lower),
        metric("core.concurrent.write_stall_frac", "ratio", Lower),
        metric("core.concurrent.lock_read_p99_us", "us", Lower),
        metric("core.concurrent.drain_chunk_p99_us", "us", Lower),
        metric("core.concurrent.lookup_p50_us", "us", Lower),
        metric("core.concurrent.lookup_p999_us", "us", Lower),
        metric("core.sharded.route_self_ns", "ns", Lower),
        metric("core.persist.checkpoint_ms", "ms", Lower),
        metric("core.persist.open_ms", "ms", Lower),
        metric("core.persist.replay_entries_per_s", "1/s", Higher),
        metric("models.pla_fit_ns_per_key", "ns", Lower),
        metric("models.pla_segments", "count", Lower),
        metric("models.linear_predict_ns", "ns", Lower),
        metric("models.fmcd_fit_ns_per_key", "ns", Lower),
        metric("telemetry.record_ns", "ns", Lower),
        metric("telemetry.span_ns", "ns", Lower),
        metric("bench.timer_ns", "ns", Lower),
        metric("bench.trace_overhead_frac", "ratio", Lower),
    ]);
    out
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Seconds one run measures for; the runner's default `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            format!("    {{\"name\": {}, \"why\": {}}}", json_string(w.name), json_string(&why))
        })
        .collect();
    let row = |m: &MetricDef| {
        let bound = m.bound.map(|b| format!(", \"bound\": {b}")).unwrap_or_default();
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_string(&m.name),
            json_string(m.unit),
            json_string(m.better.as_str())
        )
    };
    let end_to_end: Vec<String> = end_to_end().iter().map(row).collect();
    let per_layer: Vec<String> = per_layer().iter().map(row).collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  \
         ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
