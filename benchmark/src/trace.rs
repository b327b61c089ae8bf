//! Benchmark-side spans: one root span per operation, a child span around
//! each call the benchmark makes into a layer, and the counter deltas at
//! that boundary. Spans stay in memory until the run ends.
//!
//! Spans inside the crates are a later change, so a layer's self time comes
//! from here only as "root minus children" (what the harness itself costs);
//! the nested self times of the wrappers come from `layers::substitution`.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use lidx_core::{DiskIndex, ShardedIndex};
use lidx_storage::{BlockKind, Disk, OpStats};

/// Where a pass reads the counters it brackets each operation with.
pub trait Counters {
    /// True when charged device time is realised as blocking, so the wall
    /// clock already contains it.
    fn sleeps_for_device(&self) -> bool;
    /// Simulated device time charged so far that was *not* realised as
    /// blocking (so a caller on the modeled device would still wait for it).
    fn unrealised_device_ns(&self) -> u64;
    fn snapshot(&self) -> OpStats;
}

impl Counters for Disk {
    fn sleeps_for_device(&self) -> bool {
        false
    }

    fn unrealised_device_ns(&self) -> u64 {
        self.stats().device_ns()
    }

    fn snapshot(&self) -> OpStats {
        Disk::snapshot(self)
    }
}

/// The serving tier sleeps for its device time, so none of it is unrealised;
/// its counters are the sum over the shard disks and the router.
impl<I: DiskIndex> Counters for ShardedIndex<I> {
    fn sleeps_for_device(&self) -> bool {
        true
    }

    fn unrealised_device_ns(&self) -> u64 {
        0
    }

    fn snapshot(&self) -> OpStats {
        self.aggregate_stats()
    }
}

/// One timed call into a layer, relative to the trace epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallRec {
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects the child spans of the operation in flight. Without an epoch
/// (an untraced pass) `time` is a plain call and costs nothing.
pub struct Calls {
    epoch: Option<Instant>,
    recs: [CallRec; 2],
    len: usize,
}

impl Calls {
    pub fn new(epoch: Option<Instant>) -> Self {
        Calls { epoch, recs: [CallRec::default(); 2], len: 0 }
    }

    /// Runs `f`, recording it as a child span named after the layer entry
    /// point it calls. An operation has at most two children.
    #[inline]
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(epoch) = self.epoch else { return f() };
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = epoch.elapsed().as_nanos() as u64;
        if self.len < self.recs.len() {
            self.recs[self.len] = CallRec { layer, start_ns, end_ns };
            self.len += 1;
        }
        out
    }

    fn take(&mut self) -> ([CallRec; 2], usize) {
        let out = (self.recs, self.len);
        self.len = 0;
        out
    }
}

/// One operation: its root span, its children and the counts at its boundary.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub kind: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: [CallRec; 2],
    pub ncalls: usize,
    pub reads: [u32; 4],
    pub writes: u32,
    pub pool_hits: u32,
    pub reuse_hits: u32,
    pub device_ns: u64,
    pub read_stalls: u32,
    pub write_stalls: u32,
}

/// The spans one client recorded for one design.
pub struct TraceBuf {
    pub epoch: Instant,
    pub design: &'static str,
    pub client: usize,
    pub ops: Vec<OpRecord>,
}

impl TraceBuf {
    pub fn new(epoch: Instant, design: &'static str, client: usize, capacity: usize) -> Self {
        TraceBuf { epoch, design, client, ops: Vec::with_capacity(capacity) }
    }

    pub fn record(
        &mut self,
        kind: &'static str,
        start_ns: u64,
        calls: &mut Calls,
        delta: &OpStats,
    ) {
        let (recs, ncalls) = calls.take();
        const KINDS: [BlockKind; 4] =
            [BlockKind::Meta, BlockKind::Inner, BlockKind::Leaf, BlockKind::Utility];
        self.ops.push(OpRecord {
            kind,
            start_ns,
            end_ns: self.epoch.elapsed().as_nanos() as u64,
            calls: recs,
            ncalls,
            reads: KINDS.map(|k| delta.reads_of(k) as u32),
            writes: delta.writes() as u32,
            pool_hits: delta.buffer_hits as u32,
            reuse_hits: delta.reuse_hits as u32,
            device_ns: delta.device_ns,
            read_stalls: delta.read_stalls as u32,
            write_stalls: delta.write_stalls as u32,
        });
    }
}

/// Writes every span as one JSON line: the root span of each operation
/// (with the non-zero counts at its boundary), then its child spans naming
/// the root as parent.
pub fn write_jsonl(path: &Path, workload: &str, bufs: &[TraceBuf]) -> std::io::Result<u64> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let mut id = 0u64;
    for buf in bufs {
        for op in &buf.ops {
            let root = id;
            id += 1;
            write!(
                out,
                "{{\"span\":{root},\"parent\":null,\"workload\":\"{workload}\",\"design\":\"{}\",\
                 \"client\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                buf.design, buf.client, op.kind, op.start_ns, op.end_ns
            )?;
            let counts = [
                ("reads_meta", u64::from(op.reads[0])),
                ("reads_inner", u64::from(op.reads[1])),
                ("reads_leaf", u64::from(op.reads[2])),
                ("reads_utility", u64::from(op.reads[3])),
                ("writes", u64::from(op.writes)),
                ("pool_hits", u64::from(op.pool_hits)),
                ("reuse_hits", u64::from(op.reuse_hits)),
                ("device_ns", op.device_ns),
                ("read_stalls", u64::from(op.read_stalls)),
                ("write_stalls", u64::from(op.write_stalls)),
            ];
            for (name, value) in counts.into_iter().filter(|&(_, v)| v != 0) {
                write!(out, ",\"{name}\":{value}")?;
            }
            writeln!(out, "}}")?;
            for call in &op.calls[..op.ncalls] {
                writeln!(
                    out,
                    "{{\"span\":{id},\"parent\":{root},\"name\":\"{}\",\"start_ns\":{},\
                     \"end_ns\":{}}}",
                    call.layer, call.start_ns, call.end_ns
                )?;
                id += 1;
            }
        }
    }
    out.flush()?;
    Ok(id)
}
