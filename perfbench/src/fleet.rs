//! `fleet`: a mixed-catalog field population through
//! `mlperf_mobile::fleet::run_fleet`. One op is a fleet of
//! [`DEVICES`] devices x 24 queries at K=8, sampled from the workload
//! seed; every op repeats the same seed, so every rendered report must
//! be byte-equal.

use crate::check::{Counts, Fnv};
use crate::spans::Recorder;
use crate::{ratio, stats, suite_version, Trace, Workload};
use mlperf_mobile::app::submission_backend;
use mlperf_mobile::fleet::{
    render_fleet_report, run_fleet, FleetCell, FleetConfig, FleetReport, FleetUnitMemo, UnitScore,
};
use mlperf_mobile::metrics::metrics;
use mlperf_mobile::runner::CompileCache;
use mlperf_mobile::task::{suite, Task};
use mobile_backend::backend::BackendId;
use mobile_backend::registry::create;
use mobile_metrics::hist::LatencyHistogram;
use nn_graph::models::ModelId;
use soc_sim::catalog::ChipId;
use soc_sim::fleet::{sample_unit, DeviceUnit};
use soc_sim::plan::{PlanDelta, SweepPlan};
use soc_sim::plan_batch::{BatchPlan, BatchState};
use soc_sim::soc::{Soc, SocState};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Devices in one op's population.
pub const DEVICES: u64 = 100_000;

/// Ops a traced pass runs both untraced and decomposed.
const TRACED_OPS: usize = 3;

/// Per-layer metrics of a traced `fleet` pass.
pub const LAYERS: &[(&str, &str)] = &[
    ("runner.compile_misses", "count"),
    ("runner.plan_misses", "count"),
    ("runner.cache_hit_ratio", "ratio"),
    ("nn_graph.build_ms", "ms"),
    ("mobile_backend.compile_ms", "ms"),
    ("soc_sim.sweep_lower_ms", "ms"),
    ("soc_sim.fleet_sample_ms", "ms"),
    ("core.fleet_sort_ms", "ms"),
    ("soc_sim.batch_exec_ms", "ms"),
    ("mobile_metrics.hist_ms", "ms"),
    ("core.report_ms", "ms"),
    ("soc_sim.batch_lanes_executed", "count"),
    ("soc_sim.lane_dedup_ratio", "ratio"),
    ("core.fleet_devices", "count"),
    ("core.fleet_memo_hits", "count"),
    ("pool.busy_share", "ratio"),
    ("pool.steals", "count"),
    ("pool.queue_high_water", "count"),
    ("trace_overhead_pct", "%"),
];

fn config(seed: u64, workers: usize) -> FleetConfig {
    let mut config = FleetConfig::new(DEVICES, seed);
    config.threads = workers;
    config
}

/// The `fleet` workload.
pub struct Fleet {
    cache: CompileCache,
    config: FleetConfig,
    /// The warm-up op's rendered report.
    reference: String,
}

impl Workload for Fleet {
    const PASS_SECONDS: f64 = 0.2;
    const MIN_PASSES: usize = 30;
    type Output = FleetReport;

    /// Compiles and lowers every chip's cell, then runs one warm-up op.
    fn setup(seed: u64, workers: usize) -> Result<Self, String> {
        let cache = CompileCache::new();
        let config = config(seed, workers);
        let report = run_fleet(&cache, &config).map_err(|e| e.to_string())?;
        Ok(Fleet {
            cache,
            config,
            reference: render_fleet_report(&report),
        })
    }

    fn setup_digest(&self) -> u64 {
        Fnv::of(self.reference.as_bytes())
    }

    fn ops_per_pass(&self) -> usize {
        1
    }

    fn op(&mut self, _i: usize) -> Result<FleetReport, String> {
        run_fleet(&self.cache, &self.config).map_err(|e| e.to_string())
    }

    fn check(&mut self, _i: usize, report: FleetReport, counts: &mut Counts) -> Result<(), String> {
        counts.push("lane_queries", report.lane_queries);
        counts.push("lanes_deduped", report.lanes_deduped);
        counts.push("memo_hits", report.memo_hits);
        if render_fleet_report(&report) == self.reference {
            Ok(())
        } else {
            Err("rendered report differs from the warm-up op's".into())
        }
    }
}

/// The submission path a chip's fleet units run: classification on the
/// chip's own round, on its vendor's submission backend.
fn cell_path(chip: ChipId) -> (BackendId, ModelId) {
    let version = suite_version(chip);
    let model = suite(version)
        .into_iter()
        .find(|def| def.task == Task::ImageClassification)
        .expect("every suite version defines image classification")
        .model;
    (
        submission_backend(chip, version, Task::ImageClassification),
        model,
    )
}

struct Target {
    soc: Arc<Soc>,
    sweep: Arc<SweepPlan>,
}

/// One shard's share of the population scores.
#[derive(Default)]
struct CellShard {
    devices: u64,
    throttled_devices: u64,
    latency_ns: LatencyHistogram,
    energy_uj: LatencyHistogram,
    throttle_ns: LatencyHistogram,
}

impl CellShard {
    fn record(&mut self, s: UnitScore) {
        self.devices += 1;
        self.latency_ns.record(s.latency_ns);
        self.energy_uj.record(s.energy_uj);
        if let Some(t) = s.throttle_ns {
            self.throttled_devices += 1;
            self.throttle_ns.record(t);
        }
    }
}

#[derive(Default)]
struct ShardOut {
    cells: Vec<CellShard>,
    lane_queries: u64,
    lanes_deduped: u64,
    memo_hits: u64,
    memo_evictions: u64,
}

// `WaveScratch`, `run_wave`, `run_shard` and `flush_wave` below mirror the
// private functions of the same names in `crates/core/src/fleet.rs`, call
// for call and buffer for buffer (one scratch per shard, refilled every
// wave), with spans added around the layer calls. They must track that
// file: the traced fleet times are of this mirror, and only its output is
// checked against `run_fleet`'s.

/// Reusable per-shard execution buffers, refilled across every wave.
struct WaveScratch {
    batch_plan: Option<BatchPlan>,
    batch: BatchState,
    states: Vec<SocState>,
    deltas: Vec<PlanDelta>,
    tops: Vec<u64>,
    elapsed_ns: Vec<u64>,
    throttle_at: Vec<Option<u64>>,
    scores: Vec<UnitScore>,
}

impl WaveScratch {
    fn new(lanes: usize) -> Self {
        WaveScratch {
            batch_plan: None,
            batch: BatchState::default(),
            states: Vec::with_capacity(lanes),
            deltas: Vec::with_capacity(lanes),
            tops: Vec::with_capacity(lanes),
            elapsed_ns: Vec::with_capacity(lanes),
            throttle_at: Vec::with_capacity(lanes),
            scores: Vec::with_capacity(lanes),
        }
    }
}

/// Executes one wave of up to K units in lockstep, leaving one score per
/// unit in `scratch.scores`.
fn run_wave(
    target: &Target,
    wave: &[DeviceUnit],
    queries: u32,
    scratch: &mut WaveScratch,
    lane_queries: &mut u64,
    lanes_deduped: &mut u64,
) {
    let base_overhead = target.sweep.query_overhead_us();
    scratch.deltas.clear();
    scratch.states.clear();
    scratch.tops.clear();
    for unit in wave {
        scratch.deltas.push(PlanDelta::QueryOverheadUs(
            base_overhead + unit.extra_query_overhead_us,
        ));
        let state = unit.state(&target.soc);
        scratch.tops.push(state.dvfs.factors()[0].to_bits());
        scratch.states.push(state);
    }
    match scratch.batch_plan.as_mut() {
        Some(bp) => target.sweep.relower_query_batch_into(&scratch.deltas, bp),
        None => scratch.batch_plan = Some(target.sweep.relower_query_batch(&scratch.deltas)),
    }
    let bp = scratch
        .batch_plan
        .as_ref()
        .expect("batch plan just ensured");
    scratch.batch.refill(&scratch.states);

    let k = wave.len();
    scratch.elapsed_ns.clear();
    scratch.elapsed_ns.resize(k, 0);
    scratch.throttle_at.clear();
    scratch.throttle_at.resize(k, None);
    for _ in 0..queries {
        let _ = bp.execute_latencies(&mut scratch.batch);
        *lane_queries += k as u64;
        *lanes_deduped += (k - scratch.batch.last_distinct_frequencies()) as u64;
        let freqs = scratch.batch.last_freq_factors();
        let lats = scratch.batch.last_latencies();
        for i in 0..k {
            if scratch.throttle_at[i].is_none() && freqs[i].to_bits() != scratch.tops[i] {
                scratch.throttle_at[i] = Some(scratch.elapsed_ns[i]);
            }
            scratch.elapsed_ns[i] += lats[i].as_nanos();
        }
    }

    scratch.scores.clear();
    let lats = scratch.batch.last_latencies();
    let joules = scratch.batch.last_total_joules();
    for i in 0..k {
        scratch.scores.push(UnitScore {
            latency_ns: lats[i].as_nanos(),
            energy_uj: (joules[i] * 1e6).round() as u64,
            throttle_ns: scratch.throttle_at[i],
        });
    }
}

/// One shard `[lo, hi)`, call by call: sample, then per cell sort by
/// dedup key, replay memoized units, execute the rest in K-lane waves and
/// record their scores.
fn run_shard(
    rec: &mut Recorder,
    config: &FleetConfig,
    targets: &[Target],
    lo: u64,
    hi: u64,
) -> ShardOut {
    let mut out = ShardOut {
        cells: targets.iter().map(|_| CellShard::default()).collect(),
        ..ShardOut::default()
    };
    let groups = rec.span("soc_sim.fleet_sample_ms", |_| {
        let mut groups: Vec<Vec<([u64; 6], u64, DeviceUnit)>> =
            targets.iter().map(|_| Vec::new()).collect();
        for index in lo..hi {
            let cell = usize::try_from(index % targets.len() as u64).expect("cell index fits");
            let unit = sample_unit(config.seed, index, &config.profile);
            groups[cell].push((unit.dedup_key(), index, unit));
        }
        groups
    });
    let mut scratch = WaveScratch::new(config.lanes);
    let mut wave: Vec<DeviceUnit> = Vec::with_capacity(config.lanes);
    let mut wave_keys: Vec<[u64; 6]> = Vec::with_capacity(config.lanes);
    for (cell, mut group) in groups.into_iter().enumerate() {
        rec.span("core.fleet_sort_ms", |_| {
            group.sort_unstable_by_key(|&(key, index, _)| (key, index));
        });
        let target = &targets[cell];
        let mut memo = FleetUnitMemo::new();
        scratch.batch_plan = None;
        wave.clear();
        wave_keys.clear();
        for (key, _, unit) in group {
            if let Some(score) = memo.get(&key) {
                out.cells[cell].record(score);
                continue;
            }
            wave.push(unit);
            wave_keys.push(key);
            if wave.len() == config.lanes {
                flush_wave(
                    rec,
                    target,
                    &wave,
                    &wave_keys,
                    config,
                    &mut scratch,
                    &mut memo,
                    &mut out,
                    cell,
                );
                wave.clear();
                wave_keys.clear();
            }
        }
        if !wave.is_empty() {
            flush_wave(
                rec,
                target,
                &wave,
                &wave_keys,
                config,
                &mut scratch,
                &mut memo,
                &mut out,
                cell,
            );
            wave.clear();
            wave_keys.clear();
        }
        out.memo_hits += memo.hits();
        out.memo_evictions += memo.evictions();
    }
    out
}

/// Executes a pending wave and folds its scores into the shard output
/// and memo.
#[allow(clippy::too_many_arguments)]
fn flush_wave(
    rec: &mut Recorder,
    target: &Target,
    wave: &[DeviceUnit],
    wave_keys: &[[u64; 6]],
    config: &FleetConfig,
    scratch: &mut WaveScratch,
    memo: &mut FleetUnitMemo,
    out: &mut ShardOut,
    cell: usize,
) {
    rec.span("soc_sim.batch_exec_ms", |_| {
        run_wave(
            target,
            wave,
            config.queries_per_device,
            scratch,
            &mut out.lane_queries,
            &mut out.lanes_deduped,
        );
    });
    rec.span("mobile_metrics.hist_ms", |_| {
        for (i, &key) in wave_keys.iter().enumerate() {
            let score = scratch.scores[i];
            memo.insert(key, score);
            out.cells[cell].record(score);
        }
    });
}

/// The traced pass: a decomposed set-up, then ops run both through
/// `run_fleet` and decomposed over `workers` threads.
///
/// # Errors
///
/// A cell that fails to compile.
pub fn traced(seed: u64, workers: usize) -> Result<Trace, String> {
    let config = config(seed, workers);
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let targets = rec.span("fleet.setup", |rec| {
        config
            .chips
            .iter()
            .map(|&chip| {
                let (backend, model) = cell_path(chip);
                let soc = Arc::new(chip.build());
                let graph = rec.span("nn_graph.build_ms", |_| model.build());
                let dep = rec
                    .span("mobile_backend.compile_ms", |_| {
                        create(backend).compile(&graph, &soc)
                    })
                    .map_err(|e| e.to_string())?;
                let sweep = rec.span("soc_sim.sweep_lower_ms", |_| {
                    SweepPlan::new(&soc, &dep.graph, &dep.schedule)
                });
                Ok(Target {
                    soc,
                    sweep: Arc::new(sweep),
                })
            })
            .collect::<Result<Vec<_>, String>>()
    })?;

    let before = metrics().snapshot();
    let mut untraced = Fleet::setup(seed, workers)?;
    let mid = metrics().snapshot();
    let pool_before = mlperf_mobile::obs::pool::pool().snapshot();
    // Ops in pairs, back to back so both see the same host: untraced
    // through `run_fleet`, then decomposed. Only `run_fleet` records into
    // the registry and the pool, so their deltas are the untraced ops'.
    let (mut times, mut traced_times) = (Vec::new(), Vec::new());
    let mut pairs = Vec::new();
    for op in 0..TRACED_OPS {
        let started = Instant::now();
        let last = untraced.op(0)?;
        times.push(started.elapsed().as_secs_f64());
        rec.set_op(op as u64 + 1);
        let report = rec.span("fleet.op", |rec| {
            decomposed_op(rec, epoch, &config, &targets, workers)
        });
        let span = rec.spans().last().expect("op span just closed");
        traced_times.push((span.end_ns - span.start_ns) as f64 / 1e9);
        pairs.push((last, report));
    }
    let pool = mlperf_mobile::obs::pool::pool()
        .snapshot()
        .since(&pool_before);
    let (setup, ops) = (mid.since(&before), metrics().snapshot().since(&mid));
    rec.set_op(TRACED_OPS as u64 + 1);
    let (last, report) = pairs.pop().expect("at least one op pair");
    let text = rec.span("core.report_ms", |_| render_fleet_report(&report));

    let mut trace = Trace::default();
    let same = if report == last && text == untraced.reference && pairs.iter().all(|(a, b)| a == b)
    {
        Ok(())
    } else {
        Err("decomposed fleet report differs from run_fleet's".to_owned())
    };
    trace.checker.record("fleet decomposed op", same);
    let mut counts = Counts::default();
    trace
        .checker
        .record("fleet untraced op", untraced.check(0, last, &mut counts));
    let per_op = |x: u64| x as f64 / TRACED_OPS as f64;
    let hits = setup.compile_hits + setup.plan_hits + ops.compile_hits + ops.plan_hits;
    let misses = setup.compile_misses + setup.plan_misses + ops.compile_misses + ops.plan_misses;
    let v = &mut trace.values;
    v.insert("runner.compile_misses", setup.compile_misses as f64);
    v.insert("runner.plan_misses", setup.plan_misses as f64);
    v.insert(
        "runner.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    v.insert("soc_sim.batch_lanes_executed", report.lane_queries as f64);
    v.insert(
        "soc_sim.lane_dedup_ratio",
        ratio(report.lanes_deduped as f64, report.lane_queries as f64),
    );
    v.insert("core.fleet_devices", per_op(ops.fleet_devices_simulated));
    v.insert("core.fleet_memo_hits", report.memo_hits as f64);
    let wall_ns: f64 = times.iter().sum::<f64>() * 1e9;
    v.insert(
        "pool.busy_share",
        ratio(pool.total_busy_ns() as f64, workers as f64 * wall_ns),
    );
    v.insert("pool.steals", per_op(pool.total_steals()));
    v.insert("pool.queue_high_water", pool.max_queue_depth as f64);
    trace.traced_ops_per_s = 1.0 / stats::median(&traced_times);
    trace.untraced_ops_per_s = 1.0 / stats::median(&times);
    trace.spans = rec.spans().to_vec();
    Ok(trace)
}

/// One op, call by call, its shards spread over `workers` threads with
/// one recorder each.
fn decomposed_op(
    rec: &mut Recorder,
    epoch: Instant,
    config: &FleetConfig,
    targets: &[Target],
    workers: usize,
) -> FleetReport {
    let parent = rec.current().expect("inside the op span");
    let op = rec.op();
    let shards: Vec<u64> = (0..config.devices.div_ceil(config.shard_devices)).collect();
    let next = AtomicUsize::new(0);
    let per_worker: Vec<(Vec<(usize, ShardOut)>, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (next, shards) = (&next, &shards);
                // Disjoint id ranges per op and thread keep span ids
                // unique (a thread records ~15k spans per op).
                let first_id = ((op as u32) * 8 + w as u32 + 1) << 20;
                scope.spawn(move || {
                    let mut wrec = Recorder::child_of(epoch, first_id, parent, op);
                    let mut outs = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&s) = shards.get(i) else { break };
                        let lo = s * config.shard_devices;
                        let hi = config.devices.min(lo + config.shard_devices);
                        outs.push((
                            i,
                            wrec.span("fleet.shard", |wrec| {
                                run_shard(wrec, config, targets, lo, hi)
                            }),
                        ));
                    }
                    (outs, wrec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    });
    let mut outs = Vec::new();
    for (o, wrec) in per_worker {
        outs.extend(o);
        rec.absorb(wrec);
    }
    outs.sort_by_key(|&(i, _)| i);
    rec.span("mobile_metrics.hist_ms", |_| {
        merge(config, outs.into_iter().map(|(_, o)| o))
    })
}

/// Folds shard outputs, in shard order, into the fleet report, as the end
/// of `run_fleet` in `crates/core/src/fleet.rs` does.
fn merge(config: &FleetConfig, outs: impl Iterator<Item = ShardOut>) -> FleetReport {
    let mut cells: Vec<FleetCell> = config
        .chips
        .iter()
        .map(|&chip| {
            let (backend, model) = cell_path(chip);
            FleetCell {
                chip: chip.to_string(),
                backend: backend.to_string(),
                model: model.name().to_owned(),
                devices: 0,
                throttled_devices: 0,
                latency_ns: LatencyHistogram::new(),
                energy_uj: LatencyHistogram::new(),
                throttle_ns: LatencyHistogram::new(),
            }
        })
        .collect();
    let mut report = FleetReport {
        devices: config.devices,
        seed: config.seed,
        lanes: config.lanes,
        queries_per_device: config.queries_per_device,
        lane_queries: 0,
        lanes_deduped: 0,
        memo_hits: 0,
        memo_evictions: 0,
        cells: Vec::new(),
    };
    for out in outs {
        report.lane_queries += out.lane_queries;
        report.lanes_deduped += out.lanes_deduped;
        report.memo_hits += out.memo_hits;
        report.memo_evictions += out.memo_evictions;
        for (cell, shard) in cells.iter_mut().zip(out.cells) {
            cell.devices += shard.devices;
            cell.throttled_devices += shard.throttled_devices;
            cell.latency_ns.merge(&shard.latency_ns);
            cell.energy_uj.merge(&shard.energy_uj);
            cell.throttle_ns.merge(&shard.throttle_ns);
        }
    }
    report.cells = cells;
    report
}
