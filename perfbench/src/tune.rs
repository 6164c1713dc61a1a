//! `tune`: the schedule auto-tuner over all 64 gap-table cells (8 chips
//! x 4 tasks x 2 objectives, beam 64). Each pass starts from a fresh
//! `CompileCache`; one op is one `CompileCache::tuned` call. The tuner
//! is a deterministic search over a fixed catalog, so there is no random
//! input: every seed runs the cells in catalog order, as `run_tuning`
//! does.

use crate::check::{same_bits, Counts, Fnv};
use crate::spans::Recorder;
use crate::{ratio, suite_version, Trace, Workload};
use mlperf_mobile::app::submission_backend;
use mlperf_mobile::metrics::metrics;
use mlperf_mobile::runner::{CompileCache, TunedDeployment};
use mlperf_mobile::sut_impl::PlannedDeployment;
use mlperf_mobile::task::suite;
use mlperf_mobile::tuning::{render_tuning_report, TuningCell, TuningReport};
use mobile_backend::backend::{BackendId, Deployment};
use mobile_backend::registry::create;
use mobile_backend::tune::{search_model, tune, Objective, TuneOutcome, TunerConfig};
use nn_graph::models::ModelId;
use serde::Deserialize;
use soc_sim::catalog::ChipId;
use soc_sim::soc::Soc;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metrics of a traced `tune` pass.
pub const LAYERS: &[(&str, &str)] = &[
    ("runner.compile_misses", "count"),
    ("runner.plan_misses", "count"),
    ("runner.cache_hit_ratio", "ratio"),
    ("nn_graph.build_ms", "ms"),
    ("mobile_backend.compile_ms", "ms"),
    ("mobile_backend.search_model_ms", "ms"),
    ("mobile_backend.tune_ms", "ms"),
    ("soc_sim.lower_ms", "ms"),
    ("core.report_ms", "ms"),
    ("mobile_backend.tune_candidates", "count"),
    ("mobile_backend.tune_pruned", "count"),
    ("mobile_backend.prune_ratio", "ratio"),
    ("trace_overhead_pct", "%"),
];

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/golden/v1_0_tuning.json"
);

/// The fields checked in one cell of `tests/golden/v1_0_tuning.json`.
#[derive(Debug, Deserialize)]
struct GoldenCell {
    chip: String,
    backend: String,
    model: String,
    objective: String,
    heuristic_ms_bits: u64,
    tuned_ms_bits: u64,
    heuristic_mj_bits: u64,
    tuned_mj_bits: u64,
    gap_pct_bits: u64,
    candidates: u64,
    pruned: u64,
    improved: bool,
}

/// One gap-table cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    chip: ChipId,
    backend: BackendId,
    model: ModelId,
    objective: Objective,
}

impl Cell {
    fn tuner(self) -> TunerConfig {
        TunerConfig {
            objective: self.objective,
            beam_width: TunerConfig::latency().beam_width,
        }
    }

    fn label(self) -> String {
        format!(
            "{}/{}/{:?}/{}",
            self.chip, self.backend, self.model, self.objective
        )
    }
}

/// The 64 cells in the gap table's catalog order: per triple, latency
/// then energy, so the latency search of a triple pays its compile.
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for &chip in &ChipId::ALL {
        let version = suite_version(chip);
        for def in suite(version) {
            let backend = submission_backend(chip, version, def.task);
            for objective in [Objective::Latency, Objective::Energy] {
                cells.push(Cell {
                    chip,
                    backend,
                    model: def.model,
                    objective,
                });
            }
        }
    }
    cells
}

/// The gap-table row `run_tuning` derives from one outcome.
fn row(cell: Cell, heuristic: &Deployment, outcome: &TuneOutcome) -> TuningCell {
    let (before, after) = match cell.objective {
        Objective::Latency => (outcome.heuristic.latency_secs, outcome.tuned.latency_secs),
        Objective::Energy => (outcome.heuristic.energy_j, outcome.tuned.energy_j),
    };
    TuningCell {
        chip: cell.chip.to_string(),
        backend: cell.backend.to_string(),
        model: format!("{:?}", cell.model),
        objective: cell.objective.to_string(),
        heuristic_ms: outcome.heuristic.latency_secs * 1e3,
        tuned_ms: outcome.tuned.latency_secs * 1e3,
        heuristic_mj: outcome.heuristic.energy_j * 1e3,
        tuned_mj: outcome.tuned.energy_j * 1e3,
        gap_pct: if before > 0.0 {
            (before - after) / before * 100.0
        } else {
            0.0
        },
        stages_before: heuristic.schedule.stages.len(),
        stages_after: outcome.schedule.stages.len(),
        transitions_before: heuristic.schedule.num_transitions(),
        transitions_after: outcome.schedule.num_transitions(),
        num_targets: outcome.num_targets,
        candidates: outcome.stats.candidates,
        pruned: outcome.stats.pruned,
        improved: outcome.improved,
    }
}

/// Compares one row with its golden cell at 0 ULPs.
fn check_row(r: &TuningCell, g: &GoldenCell) -> Result<(), String> {
    same_bits("heuristic_ms", r.heuristic_ms, g.heuristic_ms_bits)?;
    same_bits("tuned_ms", r.tuned_ms, g.tuned_ms_bits)?;
    same_bits("heuristic_mj", r.heuristic_mj, g.heuristic_mj_bits)?;
    same_bits("tuned_mj", r.tuned_mj, g.tuned_mj_bits)?;
    same_bits("gap_pct", r.gap_pct, g.gap_pct_bits)?;
    if (r.candidates, r.pruned, r.improved) != (g.candidates, g.pruned, g.improved) {
        return Err(format!(
            "candidates/pruned/improved {}/{}/{} != golden {}/{}/{}",
            r.candidates, r.pruned, r.improved, g.candidates, g.pruned, g.improved
        ));
    }
    Ok(())
}

/// Each cell's golden, in cell order.
fn goldens(cells: &[Cell]) -> Result<Vec<GoldenCell>, String> {
    let text = std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))?;
    let mut all: Vec<GoldenCell> =
        serde_json::from_str(&text).map_err(|e| format!("{GOLDEN}: {e}"))?;
    cells
        .iter()
        .map(|c| {
            let key = (
                c.chip.to_string(),
                c.backend.to_string(),
                format!("{:?}", c.model),
                c.objective.to_string(),
            );
            let i = all
                .iter()
                .position(|g| {
                    (&g.chip, &g.backend, &g.model, &g.objective)
                        == (&key.0, &key.1, &key.2, &key.3)
                })
                .ok_or_else(|| format!("{} has no golden", c.label()))?;
            Ok(all.swap_remove(i))
        })
        .collect()
}

/// The `tune` workload.
pub struct Tune {
    cells: Vec<Cell>,
    goldens: Vec<GoldenCell>,
    cache: CompileCache,
}

impl Workload for Tune {
    const PASS_SECONDS: f64 = 10.0;
    const MIN_PASSES: usize = 3;
    type Output = Arc<TunedDeployment>;

    /// Reads the goldens, compiles and lowers every heuristic deployment,
    /// and warms the search up by tuning once every vision cell and the
    /// first chip's two MobileBERT cells (about 2 s of work; all sixteen
    /// MobileBERT cells would take nine tenths of a pass).
    fn setup(_seed: u64, _workers: usize) -> Result<Self, String> {
        let cells = cells();
        let goldens = goldens(&cells)?;
        let cache = CompileCache::new();
        for c in &cells {
            cache
                .planned(c.chip, c.backend, c.model)
                .map_err(|e| e.to_string())?;
            if c.model != ModelId::MobileBert || c.chip == cells[0].chip {
                cache
                    .tuned(c.chip, c.backend, c.model, &c.tuner())
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(Tune {
            cells,
            goldens,
            cache,
        })
    }

    fn setup_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for c in &self.cells {
            h.write(c.label().as_bytes());
        }
        for c in &self.cells {
            if let Ok(d) = self.cache.deployment(c.chip, c.backend, c.model) {
                h.write(format!("{:?}", d.schedule).as_bytes());
            }
        }
        h.finish()
    }

    fn ops_per_pass(&self) -> usize {
        self.cells.len()
    }

    fn begin_pass(&mut self) {
        self.cache = CompileCache::new();
    }

    fn op(&mut self, i: usize) -> Result<Arc<TunedDeployment>, String> {
        let c = self.cells[i];
        self.cache
            .tuned(c.chip, c.backend, c.model, &c.tuner())
            .map_err(|e| e.to_string())
    }

    fn check(
        &mut self,
        i: usize,
        tuned: Arc<TunedDeployment>,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let c = self.cells[i];
        let heuristic = self
            .cache
            .deployment(c.chip, c.backend, c.model)
            .map_err(|e| e.to_string())?;
        counts.push("candidates", tuned.outcome.stats.candidates);
        counts.push("pruned", tuned.outcome.stats.pruned);
        check_row(&row(c, &heuristic, &tuned.outcome), &self.goldens[i])
    }
}

/// Compiled heuristic deployments of a decomposed pass, by triple.
type Compiled = HashMap<(ChipId, BackendId, ModelId), (Arc<Soc>, Arc<Deployment>)>;

/// The traced pass: one decomposed pass over all cells, as a fresh
/// cache would run them, then the same pass untraced.
///
/// # Errors
///
/// A cell that fails to compile.
pub fn traced(seed: u64, workers: usize) -> Result<Trace, String> {
    let mut untraced = Tune::setup(seed, workers)?;
    untraced.begin_pass();
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut compiled = Compiled::new();
    let mut rows = Vec::with_capacity(untraced.cells.len());
    let (mut untraced_s, mut expanded) = (0.0, 0);
    let mut trace = Trace::default();
    // Each cell twice, back to back so both see the same host: untraced
    // through a fresh cache, then decomposed. Only the cache records into
    // the registry, so its delta is the untraced ops' alone.
    let before = metrics().snapshot();
    for (i, &c) in untraced.cells.clone().iter().enumerate() {
        let started = Instant::now();
        let tuned = untraced.op(i)?;
        untraced_s += started.elapsed().as_secs_f64();
        let mut counts = Counts::default();
        trace.checker.record(
            format_args!("tune cell {i}"),
            untraced.check(i, tuned, &mut counts),
        );
        rec.set_op(i as u64);
        let row = rec.span("tune.op", |rec| -> Result<TuningCell, String> {
            let (soc, dep) = &*match compiled.entry((c.chip, c.backend, c.model)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let soc = Arc::new(c.chip.build());
                    let graph = rec.span("nn_graph.build_ms", |_| c.model.build());
                    let dep = rec
                        .span("mobile_backend.compile_ms", |_| {
                            create(c.backend).compile(&graph, &soc)
                        })
                        .map_err(|e| e.to_string())?;
                    e.insert((soc, Arc::new(dep)))
                }
            };
            rec.span("mobile_backend.search_model_ms", |_| {
                std::hint::black_box(search_model(soc, &dep.graph, &dep.schedule));
            });
            let outcome = rec.span("mobile_backend.tune_ms", |_| {
                tune(soc, &dep.graph, &dep.schedule, &c.tuner())
            });
            // The cache runs offline streams on the tuned schedule
            // wherever they shared the heuristic one.
            let mut tuned = (**dep).clone();
            for stream in &mut tuned.offline_streams {
                if *stream == dep.schedule {
                    stream.clone_from(&outcome.schedule);
                }
            }
            tuned.schedule = outcome.schedule.clone();
            rec.span("soc_sim.lower_ms", |_| {
                std::hint::black_box(PlannedDeployment::compile(soc, Arc::new(tuned)));
            });
            expanded += outcome.stats.expanded;
            Ok(row(c, dep, &outcome))
        })?;
        trace.checker.record(
            format_args!("tune decomposed cell {i}"),
            check_row(&row, &untraced.goldens[i]),
        );
        rows.push(row);
    }
    let d = metrics().snapshot().since(&before);
    rec.set_op(rows.len() as u64);
    let report = TuningReport {
        beam_width: TunerConfig::latency().beam_width,
        cells: rows,
    };
    rec.span("core.report_ms", |_| {
        std::hint::black_box(render_tuning_report(&report))
    });

    let hits = d.compile_hits + d.plan_hits + d.tuned_hits;
    let misses = d.compile_misses + d.plan_misses + d.tuned_misses;
    let v = &mut trace.values;
    v.insert("runner.compile_misses", d.compile_misses as f64);
    v.insert("runner.plan_misses", d.plan_misses as f64);
    v.insert(
        "runner.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    v.insert("mobile_backend.tune_candidates", d.tuner_candidates as f64);
    v.insert("mobile_backend.tune_pruned", d.tuner_pruned as f64);
    v.insert(
        "mobile_backend.prune_ratio",
        ratio(d.tuner_pruned as f64, (d.tuner_pruned + expanded) as f64),
    );
    // The separate `search_model` call repeats work `tune` does inside
    // itself and the untraced op never makes; it is left out of the
    // traced time so that the overhead is the spans' alone.
    let total_ns = |name: &str| -> u64 {
        rec.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    };
    let traced_ns = total_ns("tune.op") - total_ns("mobile_backend.search_model_ms");
    trace.traced_ops_per_s = report.cells.len() as f64 / (traced_ns as f64 / 1e9);
    trace.untraced_ops_per_s = report.cells.len() as f64 / untraced_s;
    trace.spans = rec.spans().to_vec();
    Ok(trace)
}
