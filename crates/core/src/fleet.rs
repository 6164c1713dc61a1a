//! Fleet-scale population sweeps on the batched lockstep executor.
//!
//! The paper scores eight *lab* phones; the fleet executor asks what the
//! same deployments look like across a simulated *installed base* —
//! millions of field units whose silicon bin, thermal envelope, climate,
//! battery wear and background load are sampled per unit from a
//! [`FleetProfile`]. Per-device scores stream into sharded
//! [`LatencyHistogram`]s (merged exactly, shard order fixed), so the
//! population is never materialized: memory is O(shard), not O(fleet).
//!
//! # How a shard runs
//!
//! Each shard regenerates its slice of the population from
//! `(seed, index)` ([`soc_sim::fleet::sample_unit`]), groups units by
//! chip, **sorts each group by the unit's dedup key**, and packs them
//! into K-lane [`soc_sim::plan_batch::BatchPlan`] waves:
//!
//! * sorting clusters bit-equal units into the same wave, so the
//!   executor's frequency-bit dedup collapses them to one op-array walk
//!   per step (the uniform-fleet fast path);
//! * per-unit background load re-lowers through
//!   [`SweepPlan::relower_query_batch_into`] — O(stages) per lane, never
//!   a recompile, no allocation after the first wave;
//! * one [`BatchState`] per (shard, chip) is refilled across waves, so
//!   the steady state allocates nothing per wave;
//! * a bounded [`FleetUnitMemo`] replays the score of units whose
//!   sampled state is bit-equal to one already executed in the shard —
//!   uniform sub-populations fast-forward instead of re-running.
//!
//! # Determinism contract
//!
//! For a fixed `(seed, devices, profile, lanes, queries_per_device,
//! shard_devices)` the report is **byte-identical regardless of worker
//! count or shard interleaving**: sampling is a pure function of
//! `(seed, index)`, shard boundaries are fixed (never derived from the
//! worker count), [`par_map`] merges in item order, histogram merging is
//! exact, and the report contains no wall-clock. `make fleet` holds this
//! contract as a byte-diff across `MLPERF_WORKERS` settings.

use crate::app::submission_backend;
use crate::metrics::metrics;
use crate::obs::span::{span, Phase};
use crate::report::render_table;
use crate::runner::{default_threads, par_map, CompileCache};
use crate::task::{suite, SuiteVersion, Task};
use mobile_backend::backend::{BackendId, CompileError};
use mobile_metrics::hist::LatencyHistogram;
use nn_graph::models::ModelId;
use serde::Serialize;
use soc_sim::catalog::{ChipId, Generation};
use soc_sim::fleet::{sample_unit, DeviceUnit, FleetProfile};
use soc_sim::plan::{PlanDelta, SweepPlan};
use soc_sim::plan_batch::{BatchPlan, BatchState};
use soc_sim::soc::{Soc, SocState};
use std::sync::Arc;

/// A fleet sweep: how many devices, how they are sampled, and how the
/// work is sharded. Scores depend on every field except `threads`,
/// which only changes wall-clock.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Population size.
    pub devices: u64,
    /// Sampling seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Queries each device runs (its thermal trajectory spans them).
    pub queries_per_device: u32,
    /// Lockstep lanes per wave (K).
    pub lanes: usize,
    /// Devices per shard. Fixed — never derived from the worker count —
    /// so shard boundaries (and therefore scores) are identical no
    /// matter how many workers process them.
    pub shard_devices: u64,
    /// Worker threads; affects wall-clock only.
    pub threads: usize,
    /// Chips in the population; device `i` is a `chips[i % len]` unit.
    pub chips: Vec<ChipId>,
    /// The per-unit perturbation distributions.
    pub profile: FleetProfile,
}

impl FleetConfig {
    /// A mixed-catalog fleet: all eight chips, the default consumer
    /// profile, K=8 lanes, 24 queries per device, 2048-device shards.
    #[must_use]
    pub fn new(devices: u64, seed: u64) -> Self {
        FleetConfig {
            devices,
            seed,
            queries_per_device: 24,
            lanes: 8,
            shard_devices: 2048,
            threads: default_threads(),
            chips: ChipId::ALL.to_vec(),
            profile: FleetProfile::default(),
        }
    }
}

/// One device's scored trajectory: the values the fleet histograms
/// record, and the unit the [`FleetUnitMemo`] replays for bit-equal
/// units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitScore {
    /// Steady-state single-stream latency: the device's final query (ns).
    pub latency_ns: u64,
    /// Total active energy over the device's whole run (µJ).
    pub energy_uj: u64,
    /// Simulated time until the first query dispatched below the unit's
    /// top DVFS point (thermal ramp or battery saver); `None` if the
    /// device never slowed down.
    pub throttle_ns: Option<u64>,
}

/// Bounded LRU memo of unit trajectories, keyed by
/// [`DeviceUnit::dedup_key`] — the cross-wave complement of the
/// executor's within-wave frequency-bit dedup, in the mould of
/// [`soc_sim::plan::ExecMemo`] (which fast-forwards *queries* within one
/// deployment; this fast-forwards whole *devices* within one shard).
/// Units with bit-equal sampled state run bit-equal trajectories, so
/// the first execution's score serves every later duplicate.
#[derive(Debug)]
pub struct FleetUnitMemo {
    /// `(key, score, last-touch stamp)`, sorted by key for binary search.
    entries: Vec<([u64; 6], UnitScore, u64)>,
    capacity: usize,
    clock: u64,
    hits: u64,
    evictions: u64,
}

impl FleetUnitMemo {
    /// Default capacity: comfortably above the distinct-key count of a
    /// default-profile shard, so steady state evicts rarely.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// An empty memo with [`Self::DEFAULT_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty memo holding at most `capacity` unit trajectories.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "memo capacity must be positive");
        FleetUnitMemo { entries: Vec::new(), capacity, clock: 0, hits: 0, evictions: 0 }
    }

    /// Replays the score of a unit with this exact sampled state, if one
    /// already executed.
    pub fn get(&mut self, key: &[u64; 6]) -> Option<UnitScore> {
        self.clock += 1;
        match self.entries.binary_search_by(|(k, _, _)| k.cmp(key)) {
            Ok(i) => {
                self.entries[i].2 = self.clock;
                self.hits += 1;
                Some(self.entries[i].1)
            }
            Err(_) => None,
        }
    }

    /// Records an executed unit's score, evicting the least-recently
    /// touched entry when full. Re-inserting an existing key only
    /// refreshes its stamp (bit-equal units score identically).
    pub fn insert(&mut self, key: [u64; 6], score: UnitScore) {
        self.clock += 1;
        match self.entries.binary_search_by(|(k, _, _)| k.cmp(&key)) {
            Ok(i) => self.entries[i].2 = self.clock,
            Err(i) => {
                if self.entries.len() == self.capacity {
                    let lru = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, _, stamp))| *stamp)
                        .map(|(j, _)| j)
                        .expect("memo is non-empty when full");
                    self.entries.remove(lru);
                    self.evictions += 1;
                    // Removal may shift the insertion point.
                    let i = self
                        .entries
                        .binary_search_by(|(k, _, _)| k.cmp(&key))
                        .expect_err("key is absent");
                    self.entries.insert(i, (key, score, self.clock));
                    return;
                }
                self.entries.insert(i, (key, score, self.clock));
            }
        }
    }

    /// Scores replayed instead of executed.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Entries dropped to stay within capacity.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Distinct unit trajectories currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memo holds no trajectories.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for FleetUnitMemo {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-(chip, backend, model) population scores: the sharded histograms
/// merged across the whole fleet.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetCell {
    /// Chip label.
    pub chip: String,
    /// Submission backend label.
    pub backend: String,
    /// Model label.
    pub model: String,
    /// Devices of this cell in the population.
    pub devices: u64,
    /// Devices that dispatched at least one query below their top DVFS
    /// point.
    pub throttled_devices: u64,
    /// Steady-state single-stream latency per device (ns).
    pub latency_ns: LatencyHistogram,
    /// Total active energy per device over its run (µJ).
    pub energy_uj: LatencyHistogram,
    /// Time to first slowed dispatch, over throttled devices only (ns).
    pub throttle_ns: LatencyHistogram,
}

/// The merged outcome of a fleet sweep. Everything in here derives from
/// the simulation alone — no wall-clock — so serializing it (or
/// rendering [`render_fleet_report`]) is byte-stable across worker
/// counts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Population size.
    pub devices: u64,
    /// Sampling seed.
    pub seed: u64,
    /// Lockstep lanes per wave.
    pub lanes: usize,
    /// Queries per device.
    pub queries_per_device: u32,
    /// Lane-queries executed through the batched executor.
    pub lane_queries: u64,
    /// Lane-queries that shared another lane's op-array walk.
    pub lanes_deduped: u64,
    /// Devices replayed from a unit memo instead of executed.
    pub memo_hits: u64,
    /// Unit-memo entries evicted across all shards.
    pub memo_evictions: u64,
    /// Per-(chip, backend, model) population scores.
    pub cells: Vec<FleetCell>,
}

/// One compiled fleet cell: everything a shard needs to run a chip's
/// sub-population.
struct CellTarget {
    chip: ChipId,
    backend: BackendId,
    model: ModelId,
    soc: Arc<Soc>,
    sweep: Arc<SweepPlan>,
}

/// Per-shard, per-cell accumulation (merged across shards in shard
/// order).
struct CellShard {
    devices: u64,
    throttled_devices: u64,
    latency_ns: LatencyHistogram,
    energy_uj: LatencyHistogram,
    throttle_ns: LatencyHistogram,
}

impl CellShard {
    fn new() -> Self {
        CellShard {
            devices: 0,
            throttled_devices: 0,
            latency_ns: LatencyHistogram::new(),
            energy_uj: LatencyHistogram::new(),
            throttle_ns: LatencyHistogram::new(),
        }
    }

    fn record(&mut self, score: UnitScore) {
        self.devices += 1;
        self.latency_ns.record(score.latency_ns);
        self.energy_uj.record(score.energy_uj);
        if let Some(t) = score.throttle_ns {
            self.throttled_devices += 1;
            self.throttle_ns.record(t);
        }
    }
}

/// Everything a shard accumulates besides scores.
struct ShardOut {
    cells: Vec<CellShard>,
    lane_queries: u64,
    lanes_deduped: u64,
    memo_hits: u64,
    memo_evictions: u64,
}

/// Reusable per-cell-group execution buffers: allocated once per
/// (shard, chip), refilled across every wave.
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

/// Executes one wave of up to K units in lockstep, leaving one
/// [`UnitScore`] per wave unit in `scratch.scores`.
fn run_wave(
    target: &CellTarget,
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
        scratch
            .deltas
            .push(PlanDelta::QueryOverheadUs(base_overhead + unit.extra_query_overhead_us));
        let state = unit.state(&target.soc);
        scratch.tops.push(state.dvfs.factors()[0].to_bits());
        scratch.states.push(state);
    }
    // Re-lower the per-lane overheads in place: O(stages) per lane, the
    // op arrays stay shared with the cached sweep plan.
    match scratch.batch_plan.as_mut() {
        Some(bp) => target.sweep.relower_query_batch_into(&scratch.deltas, bp),
        None => scratch.batch_plan = Some(target.sweep.relower_query_batch(&scratch.deltas)),
    }
    let bp = scratch.batch_plan.as_ref().expect("batch plan just ensured");
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
                // Time-to-throttle: simulated time elapsed before this
                // query dispatched below the unit's top DVFS point.
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

/// Runs one shard's slice `[lo, hi)` of the population.
fn run_shard(config: &FleetConfig, targets: &[CellTarget], lo: u64, hi: u64) -> ShardOut {
    let mut out = ShardOut {
        cells: targets.iter().map(|_| CellShard::new()).collect(),
        lane_queries: 0,
        lanes_deduped: 0,
        memo_hits: 0,
        memo_evictions: 0,
    };
    // Sample the shard's units, grouped by cell. This is the only place
    // the population ever exists, and only one shard of it at a time.
    let mut groups: Vec<Vec<([u64; 6], u64, DeviceUnit)>> =
        targets.iter().map(|_| Vec::new()).collect();
    for index in lo..hi {
        let cell = usize::try_from(index % targets.len() as u64).expect("cell index fits");
        let unit = sample_unit(config.seed, index, &config.profile);
        groups[cell].push((unit.dedup_key(), index, unit));
    }
    let mut scratch = WaveScratch::new(config.lanes);
    let mut wave: Vec<DeviceUnit> = Vec::with_capacity(config.lanes);
    let mut wave_keys: Vec<[u64; 6]> = Vec::with_capacity(config.lanes);
    for (cell, mut group) in groups.into_iter().enumerate() {
        // Sort by dedup key (index breaks ties deterministically):
        // bit-equal units land in the same wave, where the executor's
        // frequency-bit dedup collapses them to one walk per step.
        group.sort_unstable_by_key(|&(key, index, _)| (key, index));
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
                    target,
                    &wave,
                    &wave_keys,
                    config.queries_per_device,
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
                target,
                &wave,
                &wave_keys,
                config.queries_per_device,
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
    target: &CellTarget,
    wave: &[DeviceUnit],
    wave_keys: &[[u64; 6]],
    queries: u32,
    scratch: &mut WaveScratch,
    memo: &mut FleetUnitMemo,
    out: &mut ShardOut,
    cell: usize,
) {
    run_wave(target, wave, queries, scratch, &mut out.lane_queries, &mut out.lanes_deduped);
    for (i, &key) in wave_keys.iter().enumerate() {
        let score = scratch.scores[i];
        memo.insert(key, score);
        out.cells[cell].record(score);
    }
}

/// The submission path a chip's fleet units run: its generation's suite
/// version, the vendor's submission backend, and the classification
/// reference model.
fn cell_path(chip: ChipId) -> (SuiteVersion, BackendId, ModelId) {
    let version = match chip.generation() {
        Generation::V0_7 => SuiteVersion::V0_7,
        Generation::V1_0 => SuiteVersion::V1_0,
    };
    let backend = submission_backend(chip, version, Task::ImageClassification);
    let model = suite(version)
        .into_iter()
        .find(|def| def.task == Task::ImageClassification)
        .expect("every suite version defines image classification")
        .model;
    (version, backend, model)
}

/// Sweeps the whole population and merges the sharded scores.
///
/// # Errors
///
/// Returns the first compile failure among the configured chips'
/// submission paths (the catalog's own submission pairs always compile).
///
/// # Panics
///
/// Panics if the config is degenerate: zero devices, lanes, queries,
/// shard size, or an empty chip list.
pub fn run_fleet(cache: &CompileCache, config: &FleetConfig) -> Result<FleetReport, CompileError> {
    assert!(config.devices > 0, "fleet needs at least one device");
    assert!(config.lanes > 0, "fleet needs at least one lane");
    assert!(config.queries_per_device > 0, "fleet needs at least one query per device");
    assert!(config.shard_devices > 0, "fleet shards need at least one device");
    assert!(!config.chips.is_empty(), "fleet needs at least one chip");
    let _suite_span = span(Phase::Suite, || {
        format!("fleet-{}-seed{}", config.devices, config.seed)
    });

    // Compile every cell once up front — the sweeps are cached, so the
    // shards below never contend on first-compile.
    let targets: Vec<CellTarget> = {
        let _span = span(Phase::Compile, || "fleet-cells".to_owned());
        config
            .chips
            .iter()
            .map(|&chip| {
                let (_, backend, model) = cell_path(chip);
                Ok(CellTarget {
                    chip,
                    backend,
                    model,
                    soc: cache.soc(chip),
                    sweep: cache.sweep_plan(chip, backend, model)?,
                })
            })
            .collect::<Result<_, CompileError>>()?
    };

    let shards: Vec<u64> = (0..config.devices.div_ceil(config.shard_devices)).collect();
    let outs: Vec<ShardOut> = par_map(&shards, config.threads, |&s| {
        let lo = s * config.shard_devices;
        let hi = config.devices.min(lo + config.shard_devices);
        let _span = span(Phase::Execute, || format!("fleet-shard-{s}"));
        let out = run_shard(config, &targets, lo, hi);
        // Live observability only — the report never reads the global
        // registry, so racy cross-shard ordering cannot leak into it.
        metrics().record_fleet_shard(hi - lo, out.lanes_deduped);
        out
    });

    // Merge in shard order (histogram merging is exact and commutative,
    // but fixing the order keeps the fold auditable).
    let mut cells: Vec<FleetCell> = targets
        .iter()
        .map(|t| FleetCell {
            chip: t.chip.to_string(),
            backend: t.backend.to_string(),
            model: t.model.name().to_owned(),
            devices: 0,
            throttled_devices: 0,
            latency_ns: LatencyHistogram::new(),
            energy_uj: LatencyHistogram::new(),
            throttle_ns: LatencyHistogram::new(),
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
    Ok(report)
}

/// Formats nanoseconds as milliseconds with two decimals.
fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// Renders the field-performance report: per-cell population
/// percentiles with the p99.9 deep tail, then the fleet-wide summary.
/// Pure function of the report — byte-stable for a fixed seed.
#[must_use]
pub fn render_fleet_report(report: &FleetReport) -> String {
    use std::fmt::Write as _;
    let header = [
        "Chip",
        "Path",
        "Devices",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "p99.9 ms",
        "p50 mJ",
        "Throttled",
        "p50 s->throttle",
    ];
    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .filter(|cell| cell.devices > 0)
        .map(|cell| {
            vec![
                cell.chip.clone(),
                format!("{}/{}", cell.backend, cell.model),
                cell.devices.to_string(),
                ms(cell.latency_ns.quantile(0.50)),
                ms(cell.latency_ns.quantile(0.95)),
                ms(cell.latency_ns.quantile(0.99)),
                ms(cell.latency_ns.quantile(0.999)),
                format!("{:.2}", cell.energy_uj.quantile(0.50) as f64 / 1e3),
                format!(
                    "{} ({:.1}%)",
                    cell.throttled_devices,
                    cell.throttled_devices as f64 * 100.0 / cell.devices as f64
                ),
                if cell.throttle_ns.is_empty() {
                    "-".to_owned()
                } else {
                    format!("{:.2}", cell.throttle_ns.quantile(0.50) as f64 / 1e9)
                },
            ]
        })
        .collect();
    let mut text = format!(
        "Field-performance fleet sweep - {} devices, seed {}, K={} lanes, {} queries/device\n{}",
        report.devices,
        report.seed,
        report.lanes,
        report.queries_per_device,
        render_table(&header, &rows),
    );
    let mut fleet_wide = LatencyHistogram::new();
    for cell in &report.cells {
        fleet_wide.merge(&cell.latency_ns);
    }
    if !fleet_wide.is_empty() {
        let _ = writeln!(
            text,
            "fleet-wide single-stream latency: p50 {} / p95 {} / p99 {} / p99.9 {} ms \
             over {} devices",
            ms(fleet_wide.quantile(0.50)),
            ms(fleet_wide.quantile(0.95)),
            ms(fleet_wide.quantile(0.99)),
            ms(fleet_wide.quantile(0.999)),
            fleet_wide.count(),
        );
    }
    let _ = writeln!(
        text,
        "lane dedup: {} of {} lane-queries shared another lane's walk ({:.1}%); \
         unit memo: {} replays, {} evictions",
        report.lanes_deduped,
        report.lane_queries,
        if report.lane_queries > 0 {
            report.lanes_deduped as f64 * 100.0 / report.lane_queries as f64
        } else {
            0.0
        },
        report.memo_hits,
        report.memo_evictions,
    );
    text
}

/// [`run_fleet`] + [`render_fleet_report`] in one call — the
/// `reproduce fleet` artifact body.
///
/// # Errors
///
/// Returns the first compile failure among the configured chips.
pub fn fleet_report_text(cache: &CompileCache, config: &FleetConfig) -> Result<String, CompileError> {
    Ok(render_fleet_report(&run_fleet(cache, config)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(devices: u64, threads: usize) -> FleetConfig {
        let mut config = FleetConfig::new(devices, 42);
        config.threads = threads;
        config.shard_devices = 96;
        config.chips = vec![ChipId::Dimensity1100, ChipId::Snapdragon888];
        config
    }

    #[test]
    fn unit_memo_replays_hits_and_evicts_lru() {
        let mut memo = FleetUnitMemo::with_capacity(2);
        let score = |v: u64| UnitScore { latency_ns: v, energy_uj: v, throttle_ns: None };
        let key = |v: u64| [v; 6];
        assert!(memo.get(&key(1)).is_none());
        memo.insert(key(1), score(1));
        memo.insert(key(2), score(2));
        assert_eq!(memo.get(&key(1)), Some(score(1))); // touch 1 -> 2 is LRU
        assert_eq!(memo.hits(), 1);
        memo.insert(key(3), score(3)); // evicts 2
        assert_eq!(memo.evictions(), 1);
        assert_eq!(memo.len(), 2);
        assert!(memo.get(&key(2)).is_none(), "evicted key must miss");
        assert_eq!(memo.get(&key(1)), Some(score(1)));
        assert_eq!(memo.get(&key(3)), Some(score(3)));
        // Re-inserting a resident key neither grows nor evicts.
        memo.insert(key(1), score(1));
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.evictions(), 1);
    }

    #[test]
    fn fleet_is_bit_identical_across_worker_counts() {
        let cache = CompileCache::new();
        let serial = run_fleet(&cache, &small_config(400, 1)).unwrap();
        let parallel = run_fleet(&cache, &small_config(400, 8)).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(
            render_fleet_report(&serial),
            render_fleet_report(&parallel),
            "report text must be byte-identical across worker counts"
        );
    }

    #[test]
    fn uniform_fleet_fast_forwards_through_the_memo() {
        let cache = CompileCache::new();
        let mut config = small_config(256, 2);
        config.chips = vec![ChipId::Dimensity1100];
        config.shard_devices = 256;
        config.profile = FleetProfile::uniform(22.0);
        let report = run_fleet(&cache, &config).unwrap();
        // One wave executes; every later unit replays its score.
        assert_eq!(report.memo_hits, 256 - config.lanes as u64);
        assert_eq!(report.cells[0].devices, 256);
        // All devices bit-identical: one latency value fleet-wide, and
        // within each executed wave all lanes dedup to one walk.
        assert_eq!(report.cells[0].latency_ns.min(), report.cells[0].latency_ns.max());
        assert_eq!(
            report.lanes_deduped,
            report.lane_queries - u64::from(config.queries_per_device),
            "each wave step pays exactly one walk"
        );
    }

    #[test]
    fn wave_lanes_match_scalar_replays() {
        // One K=4 wave on the MobileNetEdgeTPU / Neuron / Dimensity 1100
        // golden cell. Lanes 1 and 2 are the same unit, so they share a
        // walk every step; the others differ in ambient, envelope, speed
        // bin, battery and background load, so they never do. Every lane
        // must score exactly what a scalar replay of its unit through
        // its own re-lowered plan scores.
        let chip = ChipId::Dimensity1100;
        let cache = CompileCache::new();
        let target = CellTarget {
            chip,
            backend: BackendId::Neuron,
            model: ModelId::MobileNetEdgeTpu,
            soc: cache.soc(chip),
            sweep: cache.sweep_plan(chip, BackendId::Neuron, ModelId::MobileNetEdgeTpu).unwrap(),
        };
        let unit = |ambient_c: f64, envelope_scale: f64, extra_query_overhead_us: f64| DeviceUnit {
            speed_scale: 1.0,
            envelope_scale,
            ambient_c,
            battery: None,
            extra_query_overhead_us,
        };
        let mut cool_on_battery = unit(18.0, 1.0, 0.0);
        cool_on_battery.battery = Some((0.8, 0.1));
        let mut hot = unit(45.0, 4.0, 250.0);
        hot.speed_scale = 0.95;
        let wave = [cool_on_battery, unit(22.0, 1.0, 40.0), unit(22.0, 1.0, 40.0), hot];
        let queries = 300;
        let mut scratch = WaveScratch::new(wave.len());
        let (mut lane_queries, mut lanes_deduped) = (0, 0);
        run_wave(&target, &wave, queries, &mut scratch, &mut lane_queries, &mut lanes_deduped);

        assert_eq!(lane_queries, 4 * u64::from(queries));
        assert!(lanes_deduped >= u64::from(queries), "the twin lanes share a walk");
        assert!(lanes_deduped < 3 * u64::from(queries), "distinct lanes must not all dedup");
        assert!(scratch.scores.iter().any(|s| s.throttle_ns.is_some()), "one lane throttles");
        assert!(scratch.scores.iter().any(|s| s.throttle_ns.is_none()), "one lane never does");
        let base = target.sweep.query_overhead_us();
        for (lane, unit) in wave.iter().enumerate() {
            let plan = target
                .sweep
                .relower_query(PlanDelta::QueryOverheadUs(base + unit.extra_query_overhead_us));
            let mut state = unit.state(&target.soc);
            let top = state.dvfs.factors()[0].to_bits();
            let (mut elapsed_ns, mut throttle_ns, mut last) = (0, None, None);
            for _ in 0..queries {
                let r = plan.execute(&mut state);
                if throttle_ns.is_none() && r.freq_factor.to_bits() != top {
                    throttle_ns = Some(elapsed_ns);
                }
                elapsed_ns += r.latency.as_nanos();
                last = Some(r);
            }
            let last = last.expect("at least one query");
            let scalar = UnitScore {
                latency_ns: last.latency.as_nanos(),
                energy_uj: (last.total_joules * 1e6).round() as u64,
                throttle_ns,
            };
            assert_eq!(scratch.scores[lane], scalar, "lane {lane} diverged from its scalar replay");
        }
    }

    #[test]
    fn fleet_report_renders_cells_and_tail() {
        let cache = CompileCache::new();
        let config = small_config(200, 4);
        let text = fleet_report_text(&cache, &config).unwrap();
        assert!(text.contains("200 devices"));
        assert!(text.contains("p99.9 ms"));
        assert!(text.contains("Dimensity 1100"));
        assert!(text.contains("fleet-wide single-stream latency"));
        assert!(text.contains("unit memo:"));
    }
}
