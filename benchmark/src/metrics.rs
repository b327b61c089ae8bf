//! Turns a workload's outcome into the named metrics of the catalogue.

use std::collections::BTreeMap;

use lidx_storage::{DeviceModel, OpClass, OpStats};

use crate::catalog::GATED;
use crate::harness::{geomean, ratio, Cell, Outcome};
use crate::layers::Probes;

pub type Metrics = BTreeMap<String, f64>;

fn modeled_ops_s(cell: &Cell) -> f64 {
    ratio(cell.end.ops as f64, cell.modeled_s)
}

fn space_amp(cell: &Cell) -> f64 {
    ratio(cell.end.device_bytes as f64, cell.end.user_bytes as f64)
}

/// The end-to-end metrics: what a user of the stack on the modeled SSD sees.
pub fn end_to_end(outcome: &Outcome) -> Metrics {
    let mut m = Metrics::new();
    for cell in outcome.cells.iter().filter(|c| GATED.contains(&c.design)) {
        m.insert(format!("modeled_ops_s.{}", cell.design.name()), modeled_ops_s(cell));
        m.insert(format!("p99_us.{}", cell.design.name()), cell.p99_us);
    }
    let cells = &outcome.cells;
    let ops: u64 = cells.iter().map(|c| c.end.ops).sum();
    m.insert("cpu_us_per_op".into(), cells.iter().map(|c| c.cpu_s).sum::<f64>() * 1e6 / ops as f64);
    m.insert("space_amp".into(), geomean(cells.iter().map(space_amp)));
    m.insert(
        "write_amp".into(),
        geomean(cells.iter().map(|c| ratio(c.end.written_bytes as f64, c.end.user_bytes as f64))),
    );
    m.insert("setup_s".into(), outcome.keygen_s + cells.iter().map(|c| c.setup_s).sum::<f64>());
    m
}

/// The per-layer metrics of a traced run: counts at the call boundary, times
/// from benchmark-side timers and the probes.
pub fn per_layer(outcome: &Outcome, p: &Probes) -> Metrics {
    let mut m = Metrics::new();
    let cells = &outcome.cells;
    for cell in cells {
        let ops = cell.end.ops as f64;
        let d = cell.design.name();
        let mut put = |name: &str, value: f64| m.insert(format!("{d}.{name}"), value);
        put("cpu_ns_per_op", cell.cpu_s * 1e9 / ops);
        put("reads_per_op", cell.end.stats.reads() as f64 / ops);
        put("writes_per_op", cell.end.stats.writes() as f64 / ops);
        put("height", f64::from(cell.end.index.height));
        put("smo_per_kop", cell.end.smo as f64 * 1e3 / ops);
        put("space_amp", space_amp(cell));
        put("bulk_load_s", cell.bulk_load_s);
        put("p99_us", cell.p99_us);
        if !GATED.contains(&cell.design) {
            put("modeled_ops_s", modeled_ops_s(cell));
        }
    }
    let mut put = |name: &str, value: f64| m.insert(name.to_string(), value);

    // Storage counters pooled over the seven designs of the workload.
    let pooled = cells.iter().fold(OpStats::default(), |acc, c| acc.merge(&c.end.stats));
    let ops = cells.iter().map(|c| c.end.ops).sum::<u64>() as f64;
    let modeled_s: f64 = cells.iter().map(|c| c.modeled_s).sum();
    let reads = pooled.reads() as f64;
    put("btree.leaf_decode_ns", p.leaf_decode_ns);
    put("btree.inner_decode_ns", p.inner_decode_ns);
    put("storage.device.us_per_op", pooled.device_ns as f64 / 1e3 / ops);
    // Achieved rate over what one outstanding random read at a time allows.
    let device_bound_s = reads * DeviceModel::ssd().read_ns as f64 / 1e9;
    put("storage.device.roofline_frac", ratio(device_bound_s, modeled_s));
    put(
        "storage.buffer.hit_rate",
        ratio(pooled.buffer_hits as f64, pooled.buffer_hits as f64 + reads),
    );
    put(
        "storage.buffer.reuse_hit_rate",
        ratio(pooled.reuse_hits as f64, pooled.frames_pinned as f64),
    );
    put("storage.buffer.hit_ns", p.pool_hit_ns);
    put("storage.buffer.miss_ns", p.pool_miss_ns);
    put("storage.buffer.frames_pinned_per_op", pooled.frames_pinned as f64 / ops);
    put("storage.buffer.bytes_copied_per_op", pooled.bytes_copied as f64 / ops);
    let wave = outcome.telemetry.histogram(OpClass::Wave);
    put(
        "storage.queue.ios_per_wave",
        ratio(outcome.telemetry.counter(OpClass::Wave) as f64, wave.count() as f64),
    );
    put("storage.queue.max_inflight", pooled.max_inflight as f64);
    put(
        "storage.queue.overlap_saved_frac",
        ratio(pooled.overlap_saved_ns as f64, (pooled.overlap_saved_ns + pooled.device_ns) as f64),
    );
    put(
        "storage.queue.readahead_hit_rate",
        ratio(pooled.readahead_hits as f64, pooled.scan_reads as f64),
    );
    put("storage.format.crc32_ns_per_block", p.crc32_ns_per_block);
    put("storage.format.checksum_failures", pooled.checksum_failures as f64);
    put("storage.wal.append_ns", p.wal_append_ns);
    put("storage.wal.sync_ns", p.wal_sync_ns);
    let inserted: u64 = cells.iter().map(|c| c.end.inserted_bytes).sum();
    put("storage.wal.bytes_per_user_byte", ratio(pooled.wal_bytes as f64, inserted as f64));
    put("storage.wal.syncs_per_kop", pooled.wal_syncs as f64 * 1e3 / ops);
    put("storage.backend.file_read_ns", p.file_read_ns);
    put("storage.backend.file_write_ns", p.file_write_ns);
    put("storage.io_retries", pooled.io_retries as f64);

    // The write fronts, the lock and the router.
    let drain = outcome.telemetry.histogram(OpClass::Drain);
    let drained = outcome.telemetry.counter(OpClass::Drain);
    put("core.write_buffer.stage_ns", p.stage_ns);
    put("core.write_buffer.drain_us_per_entry", ratio(drain.sum() as f64 / 1e3, drained as f64));
    put("core.write_buffer.drains_per_kop", drain.count() as f64 * 1e3 / ops);
    put("core.concurrent.self_ns", p.concurrent_self_ns);
    put("core.concurrent.overlay_self_ns", p.overlay_self_ns);
    let lookups: u64 = cells.iter().map(|c| c.extra.lookups).sum();
    let stages: u64 = cells.iter().map(|c| c.extra.stages).sum();
    put("core.concurrent.read_stall_frac", ratio(pooled.read_stalls as f64, lookups as f64));
    put("core.concurrent.write_stall_frac", ratio(pooled.write_stalls as f64, stages as f64));
    let lock_read = outcome.telemetry.histogram(OpClass::LockRead);
    put("core.concurrent.lock_read_p99_us", lock_read.value_at_quantile(0.99) as f64 / 1e3);
    put(
        "core.concurrent.drain_chunk_p99_us",
        if stages > 0 { drain.value_at_quantile(0.99) as f64 / 1e3 } else { 0.0 },
    );
    let mean_of = |f: fn(&Cell) -> f64| cells.iter().map(f).sum::<f64>() / cells.len() as f64;
    put("core.concurrent.lookup_p50_us", mean_of(|c| c.extra.lookup_p50_us));
    put("core.concurrent.lookup_p999_us", mean_of(|c| c.extra.lookup_p999_us));
    put("core.sharded.route_self_ns", p.route_self_ns);
    put(
        "core.persist.checkpoint_ms",
        outcome.telemetry.histogram(OpClass::Checkpoint).mean() / 1e6,
    );
    let reopen_s: f64 = cells.iter().map(|c| c.extra.reopen_s).sum();
    let replayed: u64 = cells.iter().map(|c| c.extra.replayed).sum();
    put("core.persist.open_ms", reopen_s * 1e3);
    put("core.persist.replay_entries_per_s", ratio(replayed as f64, reopen_s));

    put("models.pla_fit_ns_per_key", p.pla_fit_ns_per_key);
    put("models.pla_segments", p.pla_segments);
    put("models.linear_predict_ns", p.linear_predict_ns);
    put("models.fmcd_fit_ns_per_key", p.fmcd_fit_ns_per_key);
    put("telemetry.record_ns", p.histogram_record_ns);
    put("telemetry.span_ns", p.span_ns);
    put("bench.timer_ns", p.timer_ns);
    let traced: f64 = cells.iter().map(|c| c.extra.traced_s).sum();
    let untraced: f64 = cells.iter().map(|c| c.extra.untraced_s).sum();
    put("bench.trace_overhead_frac", ratio(traced, untraced) - 1.0);
    m
}
