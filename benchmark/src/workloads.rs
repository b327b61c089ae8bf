//! The six workloads. Each runs all seven designs one after another on the
//! same seeded inputs, every design doing the same fixed work per pass, and
//! checks every answer against the payload rule and the sorted key set.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lidx_core::{
    payload_for, DiskIndex, Entry, IndexRead, IndexResult, IndexWrite, Key, ShardedIndex,
    ShardedIndexConfig, ShardedWriteBufferConfig, Value, WriteBufferConfig,
};
use lidx_experiments::runner::IndexChoice;
use lidx_experiments::{create_durable_index_with, reopen_durable_index};
use lidx_storage::{Disk, OpStats, TelemetryRegistry};
use lidx_workloads::ScrambledZipfian;

use crate::harness::{
    disk_config, median, memory_disk, quantile, repeat_setup, shuffle, splitmix64, stream, timed,
    uniform_f64, Cell, Config, EndState, ExactCounts, Extra, KeySet, Oracle, Outcome, ScratchDir,
    BLOCK_SIZE, DATASET_SEED, DESIGNS, ENTRY_BYTES,
};
use crate::trace::{Calls, Counters, TraceBuf};

/// Lookups per `lookup_batch` call on `lookup_cold`, and per timed group of
/// per-key lookups on `lookup_warm`.
const GROUP: usize = 64;
/// Entries asked of each `scan_cold` scan.
const SCAN_LEN: usize = 100;
/// Inserts acknowledged by one `sync_wal` on `durable_insert`: the flush
/// policy. An insert is acknowledged by the sync that follows it.
const SYNC_EVERY: usize = 64;
/// Reopens of the same crashed directory `durable_insert` takes a median of.
const REOPENS: usize = 5;
/// Most operations of one design and client the traced pass records, so a
/// long `--seconds` cannot grow the trace file without bound.
const TRACE_OPS: usize = 10_000;

/// One measured pass over a fixed list of operations.
struct Pass {
    ops: u64,
    /// Seconds spent inside the timed calls.
    wall_s: f64,
    /// Seconds per operation of the whole pass, harness and tracing included.
    outer_s_per_op: f64,
    /// Per-operation modeled latency. Where device time is accounted, this is
    /// the device time the operation charged plus the pass's *mean* wall time
    /// per operation: timing each operation's CPU share on a shared VM
    /// measures the VM's jitter (the p99 of warm lookups swung 2.5x between
    /// quiet and busy minutes), while block counts repeat exactly. Where
    /// device time is slept for, it is the operation's own wall time.
    lat_ns: Vec<u64>,
    stats: OpStats,
}

/// Runs `call` once per item with a timer around it, then `check` untimed.
/// `weight` is how many operations one item stands for. With a trace buffer
/// every item also records its spans and counter deltas.
#[allow(clippy::too_many_arguments)]
fn run_pass<T, S, C: Counters + ?Sized>(
    counters: &C,
    items: &[T],
    weight: u64,
    kind: impl Fn(&T) -> &'static str,
    scratch: &mut S,
    oracle: &mut Oracle,
    mut trace: Option<&mut TraceBuf>,
    mut call: impl FnMut(&T, &mut S, &mut Calls) -> IndexResult<()>,
    mut check: impl FnMut(&T, &S, &mut Oracle),
) -> Pass {
    let items = if trace.is_some() { &items[..items.len().min(TRACE_OPS)] } else { items };
    let outer = Instant::now();
    let before = counters.snapshot();
    let mut calls = Calls::new(trace.as_ref().map(|t| t.epoch));
    let mut lat_ns = Vec::with_capacity(items.len());
    let mut wall_ns = 0u64;
    for item in items {
        let op_start =
            trace.as_ref().map(|t| (t.epoch.elapsed().as_nanos() as u64, counters.snapshot()));
        let d0 = counters.unrealised_device_ns();
        let t0 = Instant::now();
        let result = call(item, scratch, &mut calls);
        let dt = t0.elapsed().as_nanos() as u64;
        let dd = counters.unrealised_device_ns() - d0;
        wall_ns += dt;
        lat_ns.push(if counters.sleeps_for_device() { dt } else { dd });
        match result {
            Ok(()) => check(item, scratch, oracle),
            Err(e) => {
                if oracle.failed == 0 {
                    eprintln!("operation failed: {e}");
                }
                oracle.check(false);
            }
        }
        if let (Some(buf), Some((start_ns, snap))) = (trace.as_deref_mut(), op_start) {
            buf.record(kind(item), start_ns, &mut calls, &counters.snapshot().since(&snap));
        }
    }
    if !counters.sleeps_for_device() {
        let mean_wall_ns = wall_ns / items.len().max(1) as u64;
        lat_ns.iter_mut().for_each(|ns| *ns += mean_wall_ns);
    }
    Pass {
        ops: items.len() as u64 * weight,
        wall_s: wall_ns as f64 / 1e9,
        outer_s_per_op: outer.elapsed().as_secs_f64() / (items.len() as u64 * weight).max(1) as f64,
        lat_ns,
        stats: counters.snapshot().since(&before),
    }
}

/// What one design accumulates over the rounds of a workload. Rounds visit
/// the designs in turn, so a burst of machine noise spoils one sample of
/// several designs rather than every sample of one, and the medians drop it.
#[derive(Default)]
struct Samples {
    modeled_s: Vec<f64>,
    cpu_s: Vec<f64>,
    outer_s: Vec<f64>,
    p99_us: Vec<f64>,
    setup_s: Vec<f64>,
    bulk_load_s: Vec<f64>,
    exact: Vec<ExactCounts>,
}

impl Samples {
    fn add_pass(&mut self, pass: &mut Pass, smo: u64, drains: u64) {
        self.modeled_s.push(pass.wall_s + pass.stats.device_ns as f64 / 1e9);
        self.cpu_s.push(pass.wall_s);
        self.exact.push(ExactCounts::new(&pass.stats, smo, drains));
        self.p99_us.push(quantile(&mut pass.lat_ns, 0.99) as f64 / 1e3);
        self.outer_s.push(pass.outer_s_per_op);
    }

    /// The exactness self-check: the first two passes did the same work on
    /// the same inputs, so every deterministic count must agree to the bit.
    fn check_exact(&self, oracle: &mut Oracle, design: IndexChoice) {
        if let [first, second, ..] = self.exact[..] {
            if first == second {
                oracle.check(true);
            } else {
                oracle.violation(&format!(
                    "{}: deterministic counts differ between two passes: {first:?} vs {second:?}",
                    design.name()
                ));
            }
        }
    }
}

fn cell(design: IndexChoice, samples: &Samples, end: EndState, mut extra: Extra) -> Cell {
    if extra.traced_s > 0.0 {
        extra.untraced_s = median(&samples.outer_s);
    }
    Cell {
        design,
        passes: samples.modeled_s.len(),
        modeled_s: median(&samples.modeled_s),
        cpu_s: median(&samples.cpu_s),
        p99_us: median(&samples.p99_us),
        setup_s: median(&samples.setup_s),
        bulk_load_s: median(&samples.bulk_load_s),
        end,
        extra,
    }
}

/// A freshly built bare design on its own in-memory disk.
struct Bare {
    index: Box<dyn DiskIndex>,
    disk: Arc<Disk>,
    bulk_load_s: f64,
}

fn build_bare(choice: IndexChoice, pool: usize, depth: usize, bulk: &[Entry]) -> Bare {
    let disk = memory_disk(pool, depth);
    let mut index = choice.build(Arc::clone(&disk));
    let ((), bulk_load_s) = timed(|| index.bulk_load(bulk).expect("bulk load"));
    Bare { index, disk, bulk_load_s }
}

/// Runs rounds until `budget` is spent, but at least `min` of them.
fn rounds_within(budget: Duration, min: usize, mut round: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < min || start.elapsed() < budget {
        round();
        done += 1;
    }
}

/// Key generation is part of set-up: repeated like the rest of it.
fn generate_inputs<T>(cfg: &Config, mut make: impl FnMut(&KeySet) -> T) -> (KeySet, T, f64) {
    let ((keys, inputs), keygen_s) = repeat_setup(cfg.setup_reps(), || {
        let keys = KeySet::generate(cfg);
        let inputs = make(&keys);
        (keys, inputs)
    });
    (keys, inputs, median(&keygen_s))
}

/// What a read workload asks of every design.
struct ReadPlan<'a, T, S> {
    pool: usize,
    depth: usize,
    /// Warm the pool with one untimed pass and keep it across passes
    /// (`lookup_warm`); otherwise every pass starts from `clear_buffer()`.
    warm: bool,
    items: &'a [T],
    weight: u64,
    kind: &'static str,
    scratch: S,
    call: fn(&dyn DiskIndex, &T, &mut S, &mut Calls) -> IndexResult<()>,
    check: &'a dyn Fn(&T, &S, &mut Oracle),
}

struct ReadLane {
    design: IndexChoice,
    bare: Bare,
    samples: Samples,
    stats: OpStats,
    extra: Extra,
}

/// The shared shape of the three read workloads on a bare design.
fn read_workload<T, S>(
    cfg: &Config,
    keys: &KeySet,
    keygen_s: f64,
    mut plan: ReadPlan<'_, T, S>,
    traces: &mut Vec<TraceBuf>,
) -> Outcome {
    let entries = keys.entries();
    let epoch = Instant::now();
    let mut oracle = Oracle::default();
    let (call, check, warm) = (plan.call, plan.check, plan.warm);

    let mut lanes: Vec<ReadLane> = DESIGNS
        .iter()
        .map(|&design| {
            let mut bulk_load_s = Vec::new();
            let (bare, setup_s) = repeat_setup(cfg.setup_reps(), || {
                let bare = build_bare(design, plan.pool, plan.depth, &entries);
                bulk_load_s.push(bare.bulk_load_s);
                if warm {
                    for item in plan.items {
                        let _ = call(&*bare.index, item, &mut plan.scratch, &mut Calls::new(None));
                    }
                }
                bare
            });
            let samples = Samples { setup_s, bulk_load_s, ..Samples::default() };
            ReadLane { design, bare, samples, stats: OpStats::default(), extra: Extra::default() }
        })
        .collect();

    let reset = |disk: &Disk| {
        if !warm {
            disk.clear_buffer();
            disk.reset_access_state();
        }
        disk.telemetry().reset();
    };
    let mut pass_over = |lane: &ReadLane, oracle: &mut Oracle, trace: Option<&mut TraceBuf>| {
        reset(&lane.bare.disk);
        run_pass(
            &*lane.bare.disk,
            plan.items,
            plan.weight,
            |_| plan.kind,
            &mut plan.scratch,
            oracle,
            trace,
            |item, scratch, calls| call(&*lane.bare.index, item, scratch, calls),
            check,
        )
    };
    rounds_within(cfg.budget(), cfg.min_passes(), || {
        for lane in &mut lanes {
            let mut pass = pass_over(lane, &mut oracle, None);
            lane.stats = pass.stats;
            lane.samples.add_pass(&mut pass, 0, 0);
        }
    });

    let telemetry = TelemetryRegistry::new();
    for lane in &mut lanes {
        telemetry.merge_from(lane.bare.disk.telemetry());
        lane.samples.check_exact(&mut oracle, lane.design);
        if warm && lane.stats.reads() != 0 {
            oracle.violation(&format!("{}: a warm pass read the device", lane.design.name()));
        }
        if cfg.trace {
            let mut buf =
                TraceBuf::new(epoch, lane.design.name(), 0, plan.items.len().min(TRACE_OPS));
            lane.extra.traced_s = pass_over(lane, &mut oracle, Some(&mut buf)).outer_s_per_op;
            traces.push(buf);
        }
    }
    let cells = lanes
        .into_iter()
        .map(|lane| {
            let end = EndState {
                ops: plan.items.len() as u64 * plan.weight,
                p99_samples: plan.items.len() as u64,
                stats: lane.stats,
                index: lane.bare.index.stats(),
                device_bytes: lane.bare.disk.total_bytes(),
                written_bytes: lane.bare.disk.stats().writes() * BLOCK_SIZE as u64,
                user_bytes: entries.len() as u64 * ENTRY_BYTES,
                inserted_bytes: 0,
                smo: 0,
                drains: 0,
            };
            cell(lane.design, &lane.samples, end, lane.extra)
        })
        .collect();
    Outcome { cells, oracle, keygen_s, telemetry }
}

/// A lookup answer per key of the group, each the payload rule's value.
#[allow(clippy::ptr_arg)] // the read plan's item and scratch types
fn check_answers(group: &Vec<Key>, answers: &Vec<Option<Value>>, oracle: &mut Oracle) {
    oracle.check(answers.len() == group.len());
    for (&key, &answer) in group.iter().zip(answers) {
        oracle.check_lookup(key, answer);
    }
}

/// `lookup_warm`: per-key lookups of uniform existing keys on a pool that
/// holds every design whole. A timer pair costs a tenth of a warm lookup, so
/// the lookups are timed in groups of 64: the group is the latency sample.
pub fn lookup_warm(cfg: &Config, traces: &mut Vec<TraceBuf>) -> Outcome {
    let groups = cfg.scaled(1_600);
    let (keys, group_keys, keygen_s) = generate_inputs(cfg, |keys| {
        let mut rng = stream(cfg.seed, 1);
        let mut draw = || keys.keys[(splitmix64(&mut rng) % keys.keys.len() as u64) as usize];
        (0..groups).map(|_| (0..GROUP).map(|_| draw()).collect()).collect::<Vec<Vec<Key>>>()
    });
    let plan = ReadPlan {
        pool: 100_000,
        depth: 1,
        warm: true,
        items: &group_keys,
        weight: GROUP as u64,
        kind: "lookup_x64",
        scratch: Vec::new(),
        call: |index, group, answers: &mut Vec<Option<Value>>, calls| {
            calls.time("index.lookup", || {
                answers.clear();
                for &key in group {
                    answers.push(index.lookup(key)?);
                }
                Ok(())
            })
        },
        check: &check_answers,
    };
    read_workload(cfg, &keys, keygen_s, plan, traces)
}

/// `lookup_cold`: skewed batched lookups through a pool far smaller than the
/// data, with eight reads in flight.
pub fn lookup_cold(cfg: &Config, traces: &mut Vec<TraceBuf>) -> Outcome {
    let batches = cfg.scaled(1_024);
    let (keys, batch_keys, keygen_s) = generate_inputs(cfg, |keys| {
        let zipf = ScrambledZipfian::new(keys.keys.len(), 0.99);
        let mut rng = stream(cfg.seed, 2);
        let mut draw = || keys.keys[zipf.position(uniform_f64(&mut rng))];
        (0..batches).map(|_| (0..GROUP).map(|_| draw()).collect()).collect::<Vec<Vec<Key>>>()
    });
    let plan = ReadPlan {
        pool: 64,
        depth: 8,
        warm: false,
        items: &batch_keys,
        weight: GROUP as u64,
        kind: "lookup_batch",
        scratch: Vec::new(),
        call: |index, batch, answers, calls| {
            calls.time("index.lookup_batch", || index.lookup_batch(batch, answers))
        },
        check: &check_answers,
    };
    read_workload(cfg, &keys, keygen_s, plan, traces)
}

/// `scan_cold`: 100-entry scans from uniform start keys on the same small
/// pool and queue as `lookup_cold`.
pub fn scan_cold(cfg: &Config, traces: &mut Vec<TraceBuf>) -> Outcome {
    let scans = cfg.scaled(2_000);
    let (keys, starts, keygen_s) = generate_inputs(cfg, |keys| {
        let mut rng = stream(cfg.seed, 3);
        (0..scans)
            .map(|_| {
                // Half the scans start on a stored key, half just past one.
                let r = splitmix64(&mut rng);
                keys.keys[((r >> 1) % keys.keys.len() as u64) as usize] + (r & 1)
            })
            .collect::<Vec<Key>>()
    });
    let sorted = &keys.keys;
    let plan = ReadPlan {
        pool: 64,
        depth: 8,
        warm: false,
        items: &starts,
        weight: 1,
        kind: "scan",
        scratch: Vec::new(),
        call: |index, start, rows, calls| {
            calls.time("index.scan", || index.scan(*start, SCAN_LEN, rows)).map(|_| ())
        },
        check: &|start, rows: &Vec<Entry>, oracle| {
            // Ascending, starting at the first key >= start, of the expected
            // length: all three follow from equality with the sorted slice.
            let from = sorted.partition_point(|&k| k < *start);
            let expected = &sorted[from..(from + SCAN_LEN).min(sorted.len())];
            oracle.check(
                rows.len() == expected.len()
                    && rows.iter().zip(expected).all(|(&(k, v), &e)| k == e && v == payload_for(k)),
            );
        },
    };
    read_workload(cfg, &keys, keygen_s, plan, traces)
}

/// Verifies a written index by one full scan: every expected entry must come
/// back, in order, with its payload, and nothing else.
fn verify_contents(oracle: &mut Oracle, index: &dyn IndexRead, expected: &[Key]) {
    let mut rows = Vec::new();
    if let Err(e) = index.scan(0, expected.len() + 1, &mut rows) {
        eprintln!("verification scan failed: {e}");
        rows.clear();
    }
    let mut got = rows.iter().peekable();
    for &key in expected {
        while got.next_if(|&&(k, _)| k < key).is_some() {
            oracle.check(false); // an entry nobody wrote
        }
        oracle.check(got.next_if(|&&(k, v)| k == key && v == payload_for(k)).is_some());
    }
    for _ in got {
        oracle.check(false);
    }
}

/// The keys a write workload inserts: a subset of the fresh keys fixed by
/// the dataset, in an order drawn from the run's seed. Every seed builds the
/// same final structure, so seeds differ in timing and not in the work.
fn insert_order(cfg: &Config, fresh: &[Key], tag: u64, count: usize) -> Vec<Key> {
    let mut order = fresh.to_vec();
    shuffle(&mut order, &mut stream(DATASET_SEED, tag));
    order.truncate(count);
    shuffle(&mut order, &mut stream(cfg.seed, tag));
    order
}

fn sorted_union(bulk: &[Entry], inserted: &[Key]) -> Vec<Key> {
    let mut all: Vec<Key> = bulk.iter().map(|e| e.0).chain(inserted.iter().copied()).collect();
    all.sort_unstable();
    all
}

/// A design's accumulators on a write workload, whose every repetition
/// starts from a fresh bulk load; the last repetition's state is kept for
/// verification and the footprint.
struct WriteLane<F> {
    design: IndexChoice,
    samples: Samples,
    last: Option<F>,
    extra: Extra,
}

fn write_lanes<F>() -> Vec<WriteLane<F>> {
    DESIGNS
        .iter()
        .map(|&design| WriteLane {
            design,
            samples: Samples::default(),
            last: None,
            extra: Extra::default(),
        })
        .collect()
}

/// One finished repetition of `insert_only`.
struct Inserted {
    bare: Bare,
    pass: Pass,
    smo: u64,
}

/// `insert_only`: per-key inserts into a bare design, between its stored
/// keys, through a 64-block pool; every repetition starts from a fresh
/// bulk load.
pub fn insert_only(cfg: &Config, traces: &mut Vec<TraceBuf>) -> Outcome {
    let inserts = cfg.scaled(10_000);
    let (keys, (bulk, order), keygen_s) = generate_inputs(cfg, |keys| {
        let (bulk, fresh) = keys.split_even_odd();
        let order = insert_order(cfg, &fresh, 4, inserts);
        (bulk, order)
    });
    drop(keys);
    let expected = sorted_union(&bulk, &order);
    let epoch = Instant::now();
    let mut oracle = Oracle::default();
    let rep =
        |lane: &mut WriteLane<Inserted>, oracle: &mut Oracle, trace: Option<&mut TraceBuf>| {
            drop(lane.last.take());
            let (mut bare, setup_s) = timed(|| build_bare(lane.design, 64, 1, &bulk));
            let smo_before = bare.index.stats().smo_count;
            bare.disk.telemetry().reset();
            let index = &mut bare.index;
            let pass = run_pass(
                &*bare.disk,
                &order,
                1,
                |_| "insert",
                &mut (),
                oracle,
                trace,
                |&key, _, calls| calls.time("index.insert", || index.insert(key, payload_for(key))),
                |_, _, _| {},
            );
            let smo = bare.index.stats().smo_count - smo_before;
            lane.samples.setup_s.push(setup_s);
            lane.samples.bulk_load_s.push(bare.bulk_load_s);
            lane.last = Some(Inserted { bare, pass, smo });
        };
    let mut lanes = write_lanes();
    rounds_within(cfg.budget(), cfg.min_passes(), || {
        for lane in &mut lanes {
            rep(lane, &mut oracle, None);
            let done = lane.last.as_mut().expect("the repetition just ran");
            lane.samples.add_pass(&mut done.pass, done.smo, 0);
        }
    });
    let telemetry = TelemetryRegistry::new();
    let mut cells = Vec::new();
    for mut lane in lanes {
        lane.samples.check_exact(&mut oracle, lane.design);
        let Inserted { bare, pass, smo } = lane.last.take().expect("at least one repetition");
        verify_contents(&mut oracle, &*bare.index, &expected);
        telemetry.merge_from(bare.disk.telemetry());
        let end = EndState {
            ops: pass.ops,
            p99_samples: pass.ops,
            stats: pass.stats,
            index: bare.index.stats(),
            device_bytes: bare.disk.total_bytes(),
            written_bytes: bare.disk.stats().writes() * BLOCK_SIZE as u64,
            user_bytes: expected.len() as u64 * ENTRY_BYTES,
            inserted_bytes: pass.ops * ENTRY_BYTES,
            smo,
            drains: 0,
        };
        drop(bare);
        if cfg.trace {
            let mut buf = TraceBuf::new(epoch, lane.design.name(), 0, order.len());
            rep(&mut lane, &mut oracle, Some(&mut buf));
            lane.extra.traced_s =
                lane.last.as_ref().expect("the traced repetition").pass.outer_s_per_op;
            traces.push(buf);
        }
        cells.push(cell(lane.design, &lane.samples, end, lane.extra));
    }
    Outcome { cells, oracle, keygen_s, telemetry }
}

/// One operation of a `serve_mixed` client.
#[derive(Clone, Copy)]
enum MixedOp {
    Lookup(Key),
    Stage(Key),
}

type Router = ShardedIndex<Box<dyn DiskIndex>>;

const CLIENTS: usize = 2;

/// What the clients of one `serve_mixed` pass saw.
struct Served {
    router: Router,
    /// Seconds from the first client starting to the last one finishing.
    wall_s: f64,
    /// Seconds the clients spent inside their calls, summed over clients.
    client_wall_s: f64,
    /// Counter window of the pass (before the final flush).
    stats: OpStats,
    pause: TelemetryRegistry,
    /// Blocks the bulk load wrote, counted before the counters were reset.
    setup_writes: u64,
    setup_s: Vec<f64>,
    bulk_load_s: Vec<f64>,
    /// Per-operation latency of every client, in its plan's order.
    lat_ns: Vec<Vec<u64>>,
    traces: Vec<TraceBuf>,
}

/// Builds the serving tier for one design and runs both clients' plans on it.
fn serve(
    design: IndexChoice,
    setup_reps: usize,
    sample: &[Key],
    bulk: &[Entry],
    plans: &[Vec<MixedOp>],
    oracle: &mut Oracle,
    trace_epoch: Option<Instant>,
) -> Served {
    let mut bulk_load_s = Vec::new();
    let (router, setup_s) = repeat_setup(setup_reps, || {
        // Each shard: its own disk with a 16-block pool whose device time is
        // realised as blocking, so a drain holds its lock for real time.
        let disk = disk_config(16).simulate_latency(true);
        let factory = move || Ok(design.build(Disk::in_memory(disk)));
        let config = ShardedIndexConfig {
            shards: 4,
            buffer: ShardedWriteBufferConfig { capacity: 64, drain: 64, shards: 4 },
        };
        let mut router: Router =
            ShardedIndex::with_sampled_boundaries(Box::new(factory), config, sample)
                .expect("build router");
        let ((), secs) = timed(|| router.bulk_load(bulk).expect("bulk load"));
        bulk_load_s.push(secs);
        router
    });
    let setup_writes = router.aggregate_stats().writes();
    for disk in router.shard_disks() {
        disk.stats().reset();
        disk.telemetry().reset();
        disk.clear_buffer();
        disk.reset_access_state();
    }
    let router_ref = &router;
    let client = |id: usize| {
        let mut oracle = Oracle::default();
        let mut buf = trace_epoch.map(|e| TraceBuf::new(e, design.name(), id, plans[id].len()));
        let pass = run_pass(
            router_ref,
            &plans[id],
            1,
            |op| match op {
                MixedOp::Lookup(_) => "lookup",
                MixedOp::Stage(_) => "stage",
            },
            &mut None,
            &mut oracle,
            buf.as_mut(),
            |op, answer, calls| match *op {
                MixedOp::Lookup(key) => {
                    *answer = calls.time("core.sharded.lookup", || router_ref.lookup(key))?;
                    Ok(())
                }
                MixedOp::Stage(key) => {
                    calls.time("core.sharded.stage", || router_ref.stage(key, payload_for(key)))
                }
            },
            |op, answer, oracle| {
                if let MixedOp::Lookup(key) = *op {
                    oracle.check_lookup(key, *answer);
                }
            },
        );
        (pass, oracle, buf)
    };
    // Client 0 runs on this thread, so the process never has more than two
    // runnable threads.
    let (results, wall_s) = timed(|| {
        std::thread::scope(|s| {
            let other = s.spawn(|| client(1));
            let mine = client(0);
            [mine, other.join().expect("client thread panicked")]
        })
    });
    // The counter and pause windows close before the final flush, which is
    // not part of the measured pass.
    let stats = router.aggregate_stats();
    let pause = router.aggregate_telemetry();
    router.flush().expect("final flush");
    let mut served = Served {
        router,
        wall_s,
        client_wall_s: 0.0,
        stats,
        pause,
        setup_writes,
        setup_s,
        bulk_load_s,
        lat_ns: Vec::new(),
        traces: Vec::new(),
    };
    for (pass, client_oracle, buf) in results {
        oracle.absorb(client_oracle);
        served.client_wall_s += pass.wall_s;
        served.lat_ns.push(pass.lat_ns);
        served.traces.extend(buf);
    }
    served
}

/// `serve_mixed`: two closed-loop clients, half lookups of stored keys and
/// half stages of fresh keys, against the sharded serving tier. Drains fire
/// inline at capacity (no background writer), so the staged and drained
/// volume is as fixed as the operation count.
pub fn serve_mixed(cfg: &Config, traces: &mut Vec<TraceBuf>) -> Outcome {
    // The pass cannot repeat on one router, so its length follows the budget.
    let per_client = cfg.scaled((300.0 * cfg.budget().as_secs_f64()) as usize).max(64);
    let stages = per_client / 2;
    let (keys, (bulk, plans, staged), keygen_s) = generate_inputs(cfg, |keys| {
        let (bulk, fresh) = keys.split_even_odd();
        let half = fresh.len() / CLIENTS;
        let mut staged = Vec::new();
        let plans: Vec<Vec<MixedOp>> = (0..CLIENTS)
            .map(|client| {
                // Each client stages from its own half of the fresh keys.
                let mine = &fresh[client * half..(client + 1) * half];
                let mut rng = stream(cfg.seed, 6 + client as u64);
                let mut plan: Vec<MixedOp> = insert_order(cfg, mine, 5, stages)
                    .into_iter()
                    .map(MixedOp::Stage)
                    .chain((stages..per_client).map(|_| {
                        let r = splitmix64(&mut rng);
                        MixedOp::Lookup(bulk[(r % bulk.len() as u64) as usize].0)
                    }))
                    .collect();
                shuffle(&mut plan, &mut rng);
                staged.extend(plan.iter().filter_map(|op| match *op {
                    MixedOp::Stage(key) => Some(key),
                    MixedOp::Lookup(_) => None,
                }));
                plan
            })
            .collect();
        (bulk, plans, staged)
    });
    let expected = sorted_union(&bulk, &staged);
    let epoch = Instant::now();
    let telemetry = TelemetryRegistry::new();
    let mut oracle = Oracle::default();
    let mut cells = Vec::new();
    for design in DESIGNS {
        let served = serve(design, cfg.setup_reps(), &keys.keys, &bulk, &plans, &mut oracle, None);
        let end_stats = served.router.aggregate_stats();
        if end_stats.drain_entries != staged.len() as u64 {
            oracle.violation(&format!(
                "{}: drained {} entries after the final flush, staged {}",
                design.name(),
                end_stats.drain_entries,
                staged.len()
            ));
        }
        verify_contents(&mut oracle, &served.router, &expected);

        let mut all_lat = Vec::new();
        let mut lookup_lat = Vec::new();
        for (plan, lat_ns) in plans.iter().zip(&served.lat_ns) {
            for (op, &ns) in plan.iter().zip(lat_ns) {
                all_lat.push(ns);
                if matches!(op, MixedOp::Lookup(_)) {
                    lookup_lat.push(ns);
                }
            }
        }
        let mut extra = Extra {
            lookups: lookup_lat.len() as u64,
            stages: staged.len() as u64,
            lookup_p50_us: quantile(&mut lookup_lat, 0.5) as f64 / 1e3,
            lookup_p999_us: quantile(&mut lookup_lat, 0.999) as f64 / 1e3,
            ..Extra::default()
        };
        telemetry.merge_from(&served.pause);
        let index = IndexRead::stats(&served.router);
        let samples = Samples {
            // Device time was slept for, so the wall clock is the modeled
            // time; the two clients overlap, so it is not their sum.
            modeled_s: vec![served.wall_s],
            // Thread time not spent in the device: CPU, lock waits and how
            // far each sleep overshot.
            cpu_s: vec![(served.client_wall_s - served.stats.device_ns as f64 / 1e9).max(0.0)],
            outer_s: vec![served.wall_s / all_lat.len() as f64],
            p99_us: vec![quantile(&mut all_lat, 0.99) as f64 / 1e3],
            setup_s: served.setup_s,
            bulk_load_s: served.bulk_load_s,
            exact: Vec::new(),
        };
        let end = EndState {
            ops: all_lat.len() as u64,
            p99_samples: all_lat.len() as u64,
            stats: served.stats,
            index,
            device_bytes: served.router.storage_blocks() * BLOCK_SIZE as u64,
            written_bytes: (served.setup_writes + end_stats.writes()) * BLOCK_SIZE as u64,
            user_bytes: expected.len() as u64 * ENTRY_BYTES,
            inserted_bytes: staged.len() as u64 * ENTRY_BYTES,
            smo: index.smo_count,
            drains: served.stats.drain_chunks,
        };
        drop(served.router);
        if cfg.trace {
            let traced = serve(design, 1, &keys.keys, &bulk, &plans, &mut oracle, Some(epoch));
            extra.traced_s = traced.wall_s / all_lat.len() as f64;
            traces.extend(traced.traces);
        }
        cells.push(cell(design, &samples, end, extra));
    }
    Outcome { cells, oracle, keygen_s, telemetry }
}

/// One finished repetition of `durable_insert`: the handle is already gone.
struct Crashed {
    disk: Arc<Disk>,
    pass: Pass,
    index: lidx_core::IndexStats,
    smo: u64,
    drains: u64,
}

/// `durable_insert`: inserts through the WAL'd write buffer onto real files,
/// acknowledged by a `sync_wal` every 64; the handle is then dropped without
/// a checkpoint and the directory reopened, replaying the logged tail.
///
/// Today's limit: a dropped handle is not a power loss. The backend has no
/// sync barrier, so nothing here discards unflushed writes.
pub fn durable_insert(cfg: &Config, traces: &mut Vec<TraceBuf>) -> Outcome {
    // Five drains of a full buffer, then a tail of about a buffer to replay.
    let wb = WriteBufferConfig { capacity: cfg.scaled(2_048).max(SYNC_EVERY), drain: 1_024 };
    let inserts = (wb.capacity * 6 - wb.capacity / 50) / SYNC_EVERY * SYNC_EVERY;
    let (keys, (bulk, groups, acknowledged), keygen_s) = generate_inputs(cfg, |keys| {
        let (bulk, fresh) = keys.split_even_odd();
        let order = insert_order(cfg, &fresh, 8, inserts);
        let groups: Vec<Vec<Key>> = order.chunks(SYNC_EVERY).map(<[Key]>::to_vec).collect();
        (bulk, groups, order)
    });
    drop(keys);
    let expected = sorted_union(&bulk, &acknowledged);
    let epoch = Instant::now();
    let mut oracle = Oracle::default();
    // One directory per design, in `DESIGNS` order like the lanes.
    let dirs: Vec<ScratchDir> = DESIGNS.iter().map(|d| ScratchDir::new(d.name())).collect();
    let rep = |lane: &mut WriteLane<Crashed>,
               dir: &Path,
               oracle: &mut Oracle,
               trace: Option<&mut TraceBuf>| {
        drop(lane.last.take());
        let ((mut front, bulk_load_s), setup_s) = timed(|| {
            let mut front = create_durable_index_with(dir, disk_config(64), lane.design, wb, None)
                .expect("create durable index");
            let ((), bulk_load_s) = timed(|| front.bulk_load(&bulk).expect("bulk load"));
            front.checkpoint(false).expect("checkpoint");
            (front, bulk_load_s)
        });
        let disk = Arc::clone(front.disk());
        let before = front.insert_breakdown();
        let smo_before = front.stats().smo_count;
        disk.telemetry().reset();
        let pass = run_pass(
            &*disk,
            &groups,
            SYNC_EVERY as u64,
            |_| "insert_group",
            &mut (),
            oracle,
            trace,
            |group, _, calls| {
                calls.time("core.write_buffer.insert", || {
                    group.iter().try_for_each(|&key| front.insert(key, payload_for(key)))
                })?;
                calls.time("core.write_buffer.sync_wal", || front.sync_wal())
            },
            |_, _, _| {},
        );
        let drains = front.insert_breakdown().since(&before).drains;
        let smo = front.stats().smo_count - smo_before;
        let index = front.stats();
        lane.samples.setup_s.push(setup_s);
        lane.samples.bulk_load_s.push(bulk_load_s);
        // The crash: the handle goes away with a buffer of logged, undrained
        // entries and no checkpoint.
        drop(front);
        lane.last = Some(Crashed { disk, pass, index, smo, drains });
    };
    let mut lanes = write_lanes();
    rounds_within(cfg.budget().mul_f64(0.8), cfg.min_passes(), || {
        for (lane, dir) in lanes.iter_mut().zip(&dirs) {
            rep(lane, &dir.0, &mut oracle, None);
            let done = lane.last.as_mut().expect("the repetition just ran");
            lane.samples.add_pass(&mut done.pass, done.smo, done.drains);
        }
    });
    let telemetry = TelemetryRegistry::new();
    let mut cells = Vec::new();
    for (mut lane, dir) in lanes.into_iter().zip(&dirs) {
        lane.samples.check_exact(&mut oracle, lane.design);
        if cfg.trace {
            let mut buf = TraceBuf::new(epoch, lane.design.name(), 0, groups.len());
            rep(&mut lane, &dir.0, &mut oracle, Some(&mut buf));
            lane.extra.traced_s =
                lane.last.as_ref().expect("the traced repetition").pass.outer_s_per_op;
            traces.push(buf);
        }
        // Recovery: the same crashed directory, reopened several times.
        let mut reopen_s = Vec::new();
        let mut recovered = None;
        for _ in 0..REOPENS {
            drop(recovered.take());
            let (opened, secs) = timed(|| reopen_durable_index(&dir.0, BLOCK_SIZE, wb, None));
            reopen_s.push(secs);
            match opened {
                Ok(pair) => recovered = Some(pair),
                Err(e) => oracle.violation(&format!("{}: reopen failed: {e}", lane.design.name())),
            }
        }
        lane.extra.reopen_s = median(&reopen_s);
        if let Some((front, replayed)) = &recovered {
            lane.extra.replayed = *replayed;
            verify_contents(&mut oracle, front, &expected);
        }
        drop(recovered);
        let Crashed { disk, pass, index, smo, drains } =
            lane.last.take().expect("at least one repetition");
        telemetry.merge_from(disk.telemetry());
        let end = EndState {
            ops: pass.ops,
            p99_samples: groups.len() as u64,
            stats: pass.stats,
            index,
            device_bytes: disk.total_bytes(),
            written_bytes: disk.stats().writes() * BLOCK_SIZE as u64,
            user_bytes: expected.len() as u64 * ENTRY_BYTES,
            inserted_bytes: acknowledged.len() as u64 * ENTRY_BYTES,
            smo,
            drains,
        };
        cells.push(cell(lane.design, &lane.samples, end, lane.extra));
    }
    Outcome { cells, oracle, keygen_s, telemetry }
}
