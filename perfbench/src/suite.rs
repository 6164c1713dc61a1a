//! `suite`: the paper's measurement itself — every chip on its own
//! round's suite, Table-2 submission backends, full-size datasets, the
//! four-scenario matrix on classification. One op is one chip's suite
//! (its four cells, one after another) through one long-lived
//! `SuiteRunner`.

use crate::check::{same_bits, Checker, Counts, Fnv};
use crate::spans::Recorder;
use crate::{ratio, suite_version, Trace, Workload};
use loadgen::checker::{check_log, Violation};
use loadgen::log::RunLog;
use loadgen::run::{
    find_max_qps, find_max_streams, run_accuracy_advance, run_accuracy_parallel,
    run_offline_scenario, run_single_stream, PerformanceResult,
};
use mlperf_mobile::app::{submission_backend, AppConfig, SuiteReport};
use mlperf_mobile::harness::{
    run_benchmark_planned_scenarios_with_trace, score_accuracy, BenchmarkScore, RunRules,
    ScenarioMix, SERVER_LATENCY_BOUND_X,
};
use mlperf_mobile::metrics::{metrics, TraceCollector};
use mlperf_mobile::runner::{CompileCache, RunSpec, SuiteRunner};
use mlperf_mobile::sut_impl::{DatasetScale, DeviceSut, PerfDeviceSut, PlannedDeployment};
use mlperf_mobile::task::{suite, SuiteVersion};
use mobile_backend::registry::create;
use serde::Deserialize;
use soc_sim::battery::{BatterySpec, BatteryState};
use soc_sim::catalog::ChipId;
use soc_sim::soc::Soc;
use soc_sim::time::SimDuration;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metrics of a traced `suite` pass.
pub const LAYERS: &[(&str, &str)] = &[
    ("runner.compile_misses", "count"),
    ("runner.plan_misses", "count"),
    ("runner.cache_hit_ratio", "ratio"),
    ("nn_graph.build_ms", "ms"),
    ("mobile_backend.compile_ms", "ms"),
    ("soc_sim.lower_ms", "ms"),
    ("core.sut_bind_ms", "ms"),
    ("loadgen.accuracy_ms", "ms"),
    ("mobile_metrics.score_ms", "ms"),
    ("loadgen.accuracy_advance_ms", "ms"),
    ("loadgen.single_stream_ms", "ms"),
    ("loadgen.offline_ms", "ms"),
    ("loadgen.server_ms", "ms"),
    ("loadgen.multi_stream_ms", "ms"),
    ("loadgen.check_log_ms", "ms"),
    ("core.report_ms", "ms"),
    ("core.accuracy_memo_hit_ratio", "ratio"),
    ("loadgen.queries_issued", "count"),
    ("loadgen.server_probes", "count"),
    ("loadgen.multi_stream_probes", "count"),
    ("trace_overhead_pct", "%"),
];

/// The harness's server-search bracket: twice the zero-queueing
/// capacity. The decomposed search must land on the harness's result
/// bit for bit, so a change there shows as a failed check.
const SERVER_SEARCH_HEADROOM: f64 = 2.0;

/// Committed goldens, checked at their own settings on every run.
const SUITE_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/golden/v1_0_suite.json"
);
const SCENARIO_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/golden/v1_0_scenarios.json"
);

/// Goldens run at the test settings on this dataset size.
const GOLDEN_SCALE: DatasetScale = DatasetScale::Reduced(48);

fn rules(seed: u64) -> RunRules {
    let mut rules = RunRules::default();
    rules.settings.seed = seed;
    rules
}

/// Every chip on its own round's suite, the four-scenario matrix on
/// classification.
fn config(rules: RunRules) -> AppConfig {
    AppConfig {
        rules,
        offline_classification: true,
        scenario_matrix: true,
        tuner: None,
    }
}

/// Digest of a value's full `Debug` rendering (every field, run logs
/// included; floats print their shortest exact form), streamed so no
/// copy of the rendering is held.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv::default();
    write!(h, "{value:?}").expect("hashing never fails");
    h.finish()
}

/// The `suite` workload.
pub struct Suite {
    /// One worker: a chip's cells run one after another on the calling
    /// thread, so no op fans out.
    runner: SuiteRunner,
    config: AppConfig,
    /// Report digest per chip from the set-up pass.
    reference: Vec<u64>,
}

impl Suite {
    fn run_chip(&self, i: usize) -> Result<SuiteReport, String> {
        let chip = ChipId::ALL[i];
        self.runner
            .suite_report(chip, suite_version(chip), &self.config, DatasetScale::Full)
            .map_err(|e| e.to_string())
    }
}

impl Workload for Suite {
    const PASS_SECONDS: f64 = 3.4;
    const MIN_PASSES: usize = 3;
    type Output = SuiteReport;

    /// The cold first pass: compile, lowering, dataset calibration and
    /// accuracy mode for all 32 cells.
    fn setup(seed: u64, _workers: usize) -> Result<Self, String> {
        let mut suite = Suite {
            runner: SuiteRunner::with_threads(1),
            config: config(rules(seed)),
            reference: Vec::new(),
        };
        for i in 0..ChipId::ALL.len() {
            let report = suite.run_chip(i)?;
            suite.reference.push(digest(&report));
        }
        Ok(suite)
    }

    fn setup_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for d in &self.reference {
            h.write(&d.to_le_bytes());
        }
        h.finish()
    }

    fn ops_per_pass(&self) -> usize {
        ChipId::ALL.len()
    }

    fn op(&mut self, i: usize) -> Result<SuiteReport, String> {
        self.run_chip(i)
    }

    fn check(&mut self, i: usize, report: SuiteReport, counts: &mut Counts) -> Result<(), String> {
        let s = &report.scores;
        counts.push(
            "server_probes",
            s.iter()
                .filter_map(|s| s.server.as_ref())
                .map(|v| v.probes)
                .sum(),
        );
        counts.push(
            "multi_stream_probes",
            s.iter()
                .filter_map(|s| s.multi_stream.as_ref())
                .map(|v| v.probes)
                .sum(),
        );
        if digest(&report) == self.reference[i] {
            Ok(())
        } else {
            Err("report bytes differ from the set-up pass".into())
        }
    }

    fn final_checks(workers: usize, checker: &mut Checker) {
        match check_goldens(workers) {
            Ok(outcomes) => {
                for (label, outcome) in outcomes {
                    checker.record(format_args!("golden {label}"), outcome);
                }
            }
            Err(e) => checker.record("goldens", Err(e)),
        }
    }
}

/// The fields checked in one cell of `tests/golden/v1_0_suite.json`.
#[derive(Debug, Deserialize)]
struct GoldenCell {
    chip: String,
    task: String,
    backend: String,
    score_bits: u64,
    accuracy_bits: u64,
    offline_bits: Option<u64>,
    spans: u64,
    throttled_queries: u64,
    throttle_events: u64,
}

/// The fields checked in one cell of `tests/golden/v1_0_scenarios.json`.
#[derive(Debug, Deserialize)]
struct ScenarioGoldenCell {
    chip: String,
    task: String,
    backend: String,
    server_qps_bits: u64,
    server_bound_ns: u64,
    server_probes: u64,
    streams: u64,
    multi_stream_probes: u64,
    server_spans: u64,
    multi_stream_spans: u64,
}

fn load<T: serde::Deserialize>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn equal(field: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{field} {got} != {want}"))
    }
}

/// A labelled check result.
type Outcome = (String, Result<(), String>);

/// Re-runs the golden suite and scenario cells at the goldens' own
/// settings; one outcome per golden cell.
fn check_goldens(workers: usize) -> Result<Vec<Outcome>, String> {
    let goldens: Vec<GoldenCell> = load(SUITE_GOLDEN)?;
    let scenario_goldens: Vec<ScenarioGoldenCell> = load(SCENARIO_GOLDEN)?;
    let rules = RunRules::smoke_test();
    let config = AppConfig {
        rules: rules.clone(),
        offline_classification: true,
        scenario_matrix: false,
        tuner: None,
    };
    let sink = Arc::new(TraceCollector::new());
    let runner = SuiteRunner::with_threads(workers).with_trace(Arc::clone(&sink));
    let reports = runner
        .sweep(&ChipId::ALL, SuiteVersion::V1_0, &config, GOLDEN_SCALE)
        .map_err(|e| e.to_string())?;
    let traces = sink.drain();
    let mut out = Vec::new();
    for g in &goldens {
        let label = format!("{}/{}/{}", g.chip, g.task, g.backend);
        let score = reports
            .iter()
            .flat_map(|r| &r.scores)
            .find(|s| s.chip.to_string() == g.chip && format!("{:?}", s.def.task) == g.task);
        let trace = traces
            .iter()
            .find(|t| t.chip.to_string() == g.chip && format!("{:?}", t.task) == g.task);
        let outcome = match (score, trace) {
            (Some(s), Some(t)) => (|| {
                same_bits("score_ms", s.latency_ms(), g.score_bits)?;
                same_bits("accuracy", s.accuracy, g.accuracy_bits)?;
                match (s.offline.as_ref().map(|o| o.throughput_fps), g.offline_bits) {
                    (Some(fps), Some(bits)) => same_bits("offline_fps", fps, bits)?,
                    (None, None) => {}
                    (got, _) => {
                        return Err(format!(
                            "offline_fps {got:?} != {:?}",
                            g.offline_bits.map(f64::from_bits)
                        ))
                    }
                }
                equal("spans", t.single_stream.span_count(), g.spans)?;
                equal(
                    "throttled_queries",
                    t.throttled_queries(),
                    g.throttled_queries,
                )?;
                equal("throttle_events", t.throttle_events(), g.throttle_events)?;
                Ok(())
            })(),
            _ => Err("cell missing from this run".into()),
        };
        out.push((label, outcome));
    }
    let mix = ScenarioMix {
        offline: false,
        server: true,
        multi_stream: true,
    };
    let cache = CompileCache::new();
    for g in &scenario_goldens {
        let label = format!("{}/{}/{} scenarios", g.chip, g.task, g.backend);
        let outcome = (|| {
            let chip = *ChipId::ALL
                .iter()
                .find(|c| c.to_string() == g.chip)
                .ok_or("unknown chip")?;
            let def = suite(SuiteVersion::V1_0)
                .into_iter()
                .find(|d| format!("{:?}", d.task) == g.task)
                .ok_or("unknown task")?;
            let backend = submission_backend(chip, SuiteVersion::V1_0, def.task);
            let planned = cache
                .planned(chip, backend, def.model)
                .map_err(|e| e.to_string())?;
            let (score, trace) = run_benchmark_planned_scenarios_with_trace(
                chip,
                cache.soc(chip),
                planned,
                &def,
                &rules,
                GOLDEN_SCALE,
                mix,
            );
            let srv = score.server.as_ref().ok_or("no server result")?;
            let ms = score
                .multi_stream
                .as_ref()
                .ok_or("no multi-stream result")?;
            same_bits("server_qps", srv.max_qps, g.server_qps_bits)?;
            equal("server_bound_ns", srv.target_latency_ns, g.server_bound_ns)?;
            equal("server_probes", srv.probes, g.server_probes)?;
            equal("streams", ms.streams, g.streams)?;
            equal("multi_stream_probes", ms.probes, g.multi_stream_probes)?;
            equal(
                "server_spans",
                trace.server.as_ref().map_or(0, |t| t.span_count()),
                g.server_spans,
            )?;
            equal(
                "multi_stream_spans",
                trace.multi_stream.as_ref().map_or(0, |t| t.span_count()),
                g.multi_stream_spans,
            )?;
            Ok(())
        })();
        out.push((label, outcome));
    }
    Ok(out)
}

/// A device bound to one cell, as the harness binds it.
fn bind(
    soc: &Arc<Soc>,
    planned: &PlannedDeployment,
    spec: &RunSpec,
    rules: &RunRules,
) -> DeviceSut {
    let mut sut = DeviceSut::with_plans(
        Arc::clone(soc),
        planned.clone(),
        &spec.def,
        DatasetScale::Full,
        rules.settings.seed,
        rules.ambient_c,
    );
    if let Some(level) = rules.battery_soc {
        sut.state.battery = Some(BatteryState::new(BatterySpec::default(), level));
    }
    sut
}

/// What the decomposed op computed, for comparison with the harness.
struct Decomposed {
    single_stream: PerformanceResult,
    offline: Option<PerformanceResult>,
    server: Option<(f64, u64)>,
    multi_stream: Option<(u64, u64)>,
    violations: Vec<Violation>,
}

/// One warm op, call by call: the harness's performance flow after its
/// accuracy memo hit.
fn decomposed_op(
    rec: &mut Recorder,
    spec: &RunSpec,
    soc: &Arc<Soc>,
    planned: &PlannedDeployment,
    rules: &RunRules,
) -> Decomposed {
    let settings = &rules.settings;
    let mut sut = rec.span("core.sut_bind_ms", |_| bind(soc, planned, spec, rules));
    let len = sut.data.len();
    let mut accuracy_log = RunLog::new();
    rec.span("loadgen.accuracy_advance_ms", |_| {
        run_accuracy_advance(&mut sut, len, settings, &mut accuracy_log)
    });
    sut.state.thermal.cooldown(rules.cooldown);
    let mut log = RunLog::new();
    let single_stream = rec.span("loadgen.single_stream_ms", |_| {
        run_single_stream(&mut sut, len, settings, &mut log)
    });
    let offline = if spec.mix.offline {
        sut.state.thermal.cooldown(rules.cooldown);
        Some(rec.span("loadgen.offline_ms", |_| {
            run_offline_scenario(&mut sut, len, settings, &mut log)
        }))
    } else {
        None
    };
    let probe = || PerfDeviceSut::new(Arc::clone(soc), planned, rules.ambient_c);
    let p90_ns = single_stream
        .latency
        .as_ref()
        .map_or(0, |l| l.p90_ns)
        .max(1);
    let server = spec.mix.server.then(|| {
        let target = SimDuration::from_nanos(p90_ns.saturating_mul(SERVER_LATENCY_BOUND_X));
        let capacity = settings.server_concurrency.max(1) as f64 / (p90_ns as f64 / 1e9);
        let search = rec.span("loadgen.server_ms", |_| {
            find_max_qps(
                probe,
                len,
                settings,
                target,
                capacity * SERVER_SEARCH_HEADROOM,
            )
        });
        log.append(&search.log);
        (search.max_passing_qps, search.probes)
    });
    let multi_stream = spec.mix.multi_stream.then(|| {
        let search = rec.span("loadgen.multi_stream_ms", |_| {
            find_max_streams(probe, len, settings)
        });
        log.append(&search.log);
        (search.streams, search.probes)
    });
    let violations = rec.span("loadgen.check_log_ms", |_| check_log(&log, settings));
    Decomposed {
        single_stream,
        offline,
        server,
        multi_stream,
        violations,
    }
}

fn compare(d: &Decomposed, accuracy: f64, s: &BenchmarkScore) -> Result<(), String> {
    same_bits("accuracy", accuracy, s.accuracy.to_bits())?;
    if d.single_stream != s.single_stream {
        return Err("single-stream result differs from the harness's".into());
    }
    if d.offline != s.offline {
        return Err("offline result differs from the harness's".into());
    }
    if d.server != s.server.as_ref().map(|v| (v.max_qps, v.probes)) {
        return Err(format!(
            "server search {:?} differs from the harness's",
            d.server
        ));
    }
    if d.multi_stream != s.multi_stream.as_ref().map(|v| (v.streams, v.probes)) {
        return Err(format!(
            "multi-stream search {:?} differs from the harness's",
            d.multi_stream
        ));
    }
    if d.violations != s.violations {
        return Err("checker verdict differs from the harness's".into());
    }
    Ok(())
}

/// The traced pass: a decomposed cold set-up per cell, then each chip's
/// suite twice — untraced through the `SuiteRunner` and decomposed cell
/// by cell.
///
/// # Errors
///
/// A cell that fails to compile.
pub fn traced(seed: u64, workers: usize) -> Result<Trace, String> {
    let rules = rules(seed);
    let config = config(rules.clone());
    let specs: Vec<RunSpec> = ChipId::ALL
        .iter()
        .flat_map(|&chip| RunSpec::suite(chip, suite_version(chip), &config))
        .collect();
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut cells = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        rec.set_op(i as u64);
        let cell = rec.span("suite.setup", |rec| -> Result<_, String> {
            let soc = Arc::new(spec.chip.build());
            let graph = rec.span("nn_graph.build_ms", |_| spec.def.model.build());
            let deployment = rec
                .span("mobile_backend.compile_ms", |_| {
                    create(spec.backend).compile(&graph, &soc)
                })
                .map_err(|e| e.to_string())?;
            let planned = rec.span("soc_sim.lower_ms", |_| {
                PlannedDeployment::compile(&soc, Arc::new(deployment))
            });
            let mut sut = rec.span("core.sut_bind_ms", |_| bind(&soc, &planned, spec, &rules));
            let len = sut.data.len();
            let mut log = RunLog::new();
            let predictions = rec.span("loadgen.accuracy_ms", |_| {
                run_accuracy_parallel(&mut sut, len, &rules.settings, &mut log, workers)
            });
            let accuracy = rec.span("mobile_metrics.score_ms", |_| {
                score_accuracy(&sut.data, &predictions.predictions)
            });
            Ok((spec, soc, planned, accuracy))
        })?;
        cells.push(cell);
    }

    // The untraced runner's cold pass, then each chip's warm op twice:
    // untraced through the runner and decomposed, back to back, so both
    // see the same host. Only the runner records into the registry, so
    // the registry deltas are the untraced ops' alone.
    let before = metrics().snapshot();
    let untraced = Suite::setup(seed, workers)?;
    let mid = metrics().snapshot();
    let chips = ChipId::ALL.len();
    let mut reports = Vec::with_capacity(chips);
    let mut decomposed = Vec::with_capacity(specs.len());
    let (mut traced_ns, mut untraced_s) = (0, 0.0);
    for (i, chip_cells) in cells.chunks(specs.len() / chips).enumerate() {
        let started = Instant::now();
        reports.push(untraced.run_chip(i)?);
        untraced_s += started.elapsed().as_secs_f64();
        rec.set_op((specs.len() + i) as u64);
        decomposed.extend(rec.span("suite.op", |rec| {
            chip_cells
                .iter()
                .map(|(spec, soc, planned, _)| decomposed_op(rec, spec, soc, planned, &rules))
                .collect::<Vec<_>>()
        }));
        let op = rec.spans().last().expect("op span just closed");
        traced_ns += op.end_ns - op.start_ns;
    }
    let (setup, ops) = (mid.since(&before), metrics().snapshot().since(&mid));

    rec.set_op((specs.len() + chips) as u64);
    rec.span("core.report_ms", |_| {
        for report in &reports {
            std::hint::black_box(report.to_json());
        }
    });

    let mut trace = Trace::default();
    let scores = reports.iter().flat_map(|r| &r.scores);
    for (i, ((d, (_, _, _, accuracy)), score)) in
        decomposed.iter().zip(&cells).zip(scores).enumerate()
    {
        trace.checker.record(
            format_args!("suite decomposed cell {i}"),
            compare(d, *accuracy, score),
        );
    }
    for (i, report) in reports.iter().enumerate() {
        let same = if digest(report) == untraced.reference[i] {
            Ok(())
        } else {
            Err("report bytes differ from the set-up pass".into())
        };
        trace.checker.record(format_args!("suite chip {i}"), same);
    }
    let hits = setup.compile_hits + setup.plan_hits + ops.compile_hits + ops.plan_hits;
    let misses = setup.compile_misses + setup.plan_misses + ops.compile_misses + ops.plan_misses;
    let v = &mut trace.values;
    v.insert("runner.compile_misses", setup.compile_misses as f64);
    v.insert("runner.plan_misses", setup.plan_misses as f64);
    v.insert(
        "runner.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    v.insert(
        "core.accuracy_memo_hit_ratio",
        ratio(
            ops.sweep_hits as f64,
            (ops.sweep_hits + ops.sweep_misses) as f64,
        ),
    );
    v.insert("loadgen.queries_issued", ops.queries_issued as f64);
    v.insert(
        "loadgen.server_probes",
        decomposed
            .iter()
            .filter_map(|d| d.server)
            .map(|s| s.1 as f64)
            .sum(),
    );
    v.insert(
        "loadgen.multi_stream_probes",
        decomposed
            .iter()
            .filter_map(|d| d.multi_stream)
            .map(|m| m.1 as f64)
            .sum(),
    );
    trace.traced_ops_per_s = chips as f64 / (traced_ns as f64 / 1e9);
    trace.untraced_ops_per_s = chips as f64 / untraced_s;
    trace.spans = rec.spans().to_vec();
    Ok(trace)
}
