//! Ablation studies over the design choices DESIGN.md calls out, plus the
//! extension experiments (Appendix E): end-to-end AI tax, energy/battery,
//! and the extended suite.
//!
//! Every report here runs through the *sweep engine*: knob sweeps re-lower
//! only the affected plan arrays ([`SweepPlan`]/[`PlanDelta`]), equal
//! schedules at adjacent knob values share one lowering, batched sweeps
//! reuse one [`OfflinePlan`], and independent cells evaluate under
//! [`par_map`] with order-preserving assembly. The [`serial`] module keeps
//! the straight-line full-recompile implementations as the oracle: the
//! byte-identity tests below assert every report's output matches them
//! exactly, and `bench_ablations` measures the speedup against them.

use crate::{cache, trace_sink, worker_threads};
use mlperf_mobile::ai_tax::host_stage_time;
use mlperf_mobile::harness::{run_benchmark_planned, RunRules, ScenarioMix};
use mlperf_mobile::metrics::metrics;
use mlperf_mobile::report::render_table;
use mlperf_mobile::runner::par_map;
use mlperf_mobile::sut_impl::DatasetScale;
use mlperf_mobile::task::{suite, BenchmarkDef, SuiteVersion};
use mobile_backend::backend::{Backend, BackendId};
use mobile_backend::backends::Enn;
use mobile_backend::partition::{partition, FallbackPolicy, PartitionPlan, Target};
use mobile_backend::registry::vendor_backend;
use nn_graph::graph::retype;
use nn_graph::models::ModelId;
use nn_graph::{DataType, Graph};
use soc_sim::catalog::ChipId;
use soc_sim::engine::EngineKind;
use soc_sim::executor::estimate_query_secs;
use soc_sim::plan::{OfflinePlan, PlanDelta, SweepPlan};
use soc_sim::schedule::Schedule;
use soc_sim::soc::Soc;
use std::sync::Mutex;

/// Estimates each schedule's single-query latency (ms), lowering each
/// *distinct* schedule once: adjacent knob values often saturate to the
/// same placement, and an equal schedule on the same `(soc, graph)` is
/// bit-identical to re-lower, so its estimate is reused outright. Hits
/// and misses feed the sweep-cache counters in the [`metrics`] registry.
fn sweep_estimates(soc: &Soc, graph: &Graph, scheds: &[Schedule]) -> Vec<f64> {
    let mut seen: Vec<(usize, f64)> = Vec::new();
    let mut out = Vec::with_capacity(scheds.len());
    for (i, sched) in scheds.iter().enumerate() {
        let ms = match seen.iter().find(|&&(j, _)| scheds[j] == *sched) {
            Some(&(_, ms)) => {
                metrics().record_sweep_hit();
                ms
            }
            None => {
                metrics().record_sweep_miss();
                let ms = estimate_query_secs(soc, graph, sched) * 1e3;
                seen.push((i, ms));
                ms
            }
        };
        out.push(ms);
    }
    out
}

/// Ablation 1: the NNAPI HAL cost — per-stage sync overhead swept on the
/// Dimensity 1100 classification deployment (Table 3's mechanism).
#[must_use]
pub fn ablation_sync_overhead() -> String {
    let soc = ChipId::Dimensity1100.build();
    let graph = retype(&ModelId::MobileNetEdgeTpu.build(), DataType::U8);
    let npu = soc.engine_of_kind(EngineKind::Npu).expect("has NPU");
    let sync_values = [0.0, 10.0, 40.0, 130.0, 300.0];
    // The sync knob is a per-stage *annotation*: the partitioner never
    // reads it when placing ops, so one partition serves the whole sweep
    // and each knob re-lowers the overhead arrays in O(stages).
    let plan = PartitionPlan {
        primary: Target { engine: npu, dtype: DataType::U8 },
        fallbacks: vec![Target { engine: soc.cpu(), dtype: DataType::U8 }],
        policy: FallbackPolicy::Merge { window: 2 },
        primary_blocked: Vec::new(),
        sync_overhead_us: sync_values[0],
        query_overhead_us: 0.0,
    };
    let sched = partition(&graph, &soc, &plan).expect("partitions");
    let sweep = SweepPlan::new(&soc, &graph, &sched);
    metrics().record_sweep_miss();
    let rows = par_map(&sync_values, worker_threads(), |&sync_us| {
        metrics().record_sweep_hit();
        let ms = sweep.estimate_query_secs(PlanDelta::SyncOverheadUs(sync_us)) * 1e3;
        vec![
            format!("{sync_us:.0} us"),
            format!("{}", sched.num_stages()),
            format!("{ms:.3} ms"),
        ]
    });
    format!(
        "Ablation — per-stage framework sync overhead (classification, Dimensity 1100)\n{}",
        render_table(&["Sync/stage", "Stages", "Latency"], &rows)
    )
}

/// Ablation 2: partition-merge window swept on DeepLab (Exynos 2100) —
/// the scheduler maturity knob behind the ENN 2.0 uplift.
#[must_use]
pub fn ablation_merge_window() -> String {
    let soc = ChipId::Exynos2100.build();
    let graph = retype(&ModelId::DeepLabV3Plus.build(), DataType::I8);
    let npu = soc.engine_of_kind(EngineKind::Npu).expect("has NPU");
    let gpu = soc.engine_of_kind(EngineKind::Gpu).expect("has GPU");
    let windows = [0usize, 1, 2, 3, 4, 8];
    // The window changes placement, so each knob partitions — in
    // parallel — but equal schedules share one lowering.
    let scheds = par_map(&windows, worker_threads(), |&window| {
        let plan = PartitionPlan {
            primary: Target { engine: npu, dtype: DataType::I8 },
            fallbacks: vec![
                Target { engine: gpu, dtype: DataType::F16 },
                Target { engine: soc.cpu(), dtype: DataType::I8 },
            ],
            policy: FallbackPolicy::Merge { window },
            primary_blocked: Vec::new(),
            sync_overhead_us: 10.0,
            query_overhead_us: 0.0,
        };
        partition(&graph, &soc, &plan).expect("partitions")
    });
    let estimates = sweep_estimates(&soc, &graph, &scheds);
    let rows: Vec<Vec<String>> = windows
        .iter()
        .zip(&scheds)
        .zip(&estimates)
        .map(|((window, sched), ms)| {
            vec![
                window.to_string(),
                sched.num_transitions().to_string(),
                format!("{ms:.2} ms"),
            ]
        })
        .collect();
    format!(
        "Ablation — merge window (segmentation, Exynos 2100)\n{}",
        render_table(&["Window", "Engine transitions", "Latency"], &rows)
    )
}

/// Ablation 3: sticky-fallback depth on the Exynos 990 segmentation split
/// — decomposing the 12x generational story into its scheduling component.
#[must_use]
pub fn ablation_sticky_fallback() -> String {
    let soc = ChipId::Exynos990.build();
    let graph = retype(&ModelId::DeepLabV3Plus.build(), DataType::I8);
    let npu = soc.engine_of_kind(EngineKind::Npu).expect("has NPU");
    let gpu = soc.engine_of_kind(EngineKind::Gpu).expect("has GPU");
    let stickies = [0usize, 2, 4, 6, 10, 20];
    let scheds = par_map(&stickies, worker_threads(), |&sticky| {
        let plan = PartitionPlan {
            primary: Target { engine: npu, dtype: DataType::I8 },
            fallbacks: vec![
                Target { engine: gpu, dtype: DataType::F32 },
                Target { engine: soc.cpu(), dtype: DataType::I8 },
            ],
            policy: FallbackPolicy::PingPong { sticky },
            primary_blocked: Vec::new(),
            sync_overhead_us: 10.0,
            query_overhead_us: 0.0,
        };
        partition(&graph, &soc, &plan).expect("partitions")
    });
    let estimates = sweep_estimates(&soc, &graph, &scheds);
    let rows: Vec<Vec<String>> = stickies
        .iter()
        .zip(&scheds)
        .zip(&estimates)
        .map(|((sticky, sched), ms)| {
            let gpu_ops: usize = sched
                .stages
                .iter()
                .filter(|s| s.engine == gpu)
                .map(|s| s.nodes.len())
                .sum();
            vec![
                sticky.to_string(),
                gpu_ops.to_string(),
                sched.num_transitions().to_string(),
                format!("{ms:.1} ms"),
            ]
        })
        .collect();
    format!(
        "Ablation — sticky fallback depth (segmentation, Exynos 990, GPU at FP32)\n{}",
        render_table(&["Sticky ops", "Ops dragged to GPU", "Transitions", "Latency"], &rows)
    )
}

/// Ablation 4: inter-IP interconnect bandwidth on the Exynos 990
/// segmentation deployment — the hardware component of the 12x story.
#[must_use]
pub fn ablation_interconnect() -> String {
    let base = ChipId::Exynos990.build();
    let reference = ModelId::DeepLabV3Plus.build();
    let gbps_values = [0.18, 0.5, 2.0, 10.0];
    // Bandwidth changes which candidate placement *wins* (the backends
    // rank candidates by estimated latency), so each knob still compiles
    // — in parallel. But when two knobs choose the same schedule, the
    // later estimate is a bandwidth delta on the earlier lowering.
    let compiled = par_map(&gbps_values, worker_threads(), |&gbps| {
        let mut soc = base.clone();
        soc.interconnect.transfer_gbps = gbps;
        let dep = Enn.compile(&reference, &soc).expect("compiles");
        (soc, dep)
    });
    let mut lowered: Vec<(usize, SweepPlan)> = Vec::new();
    let mut rows = Vec::new();
    for (i, ((soc, dep), &gbps)) in compiled.iter().zip(&gbps_values).enumerate() {
        let hit = lowered
            .iter()
            .find(|(j, _)| compiled[*j].1.schedule == dep.schedule)
            .map(|(_, sweep)| sweep);
        let ms = if let Some(sweep) = hit {
            metrics().record_sweep_hit();
            sweep.estimate_query_secs(PlanDelta::InterconnectGbps(gbps)) * 1e3
        } else {
            metrics().record_sweep_miss();
            let sweep = SweepPlan::new(soc, &dep.graph, &dep.schedule);
            let ms = sweep.estimate_query_secs(PlanDelta::InterconnectGbps(gbps)) * 1e3;
            lowered.push((i, sweep));
            ms
        };
        rows.push(vec![format!("{gbps:.2} GB/s"), format!("{ms:.1} ms")]);
    }
    format!(
        "Ablation — inter-IP transfer bandwidth (segmentation, Exynos 990)\n{}",
        render_table(&["Bandwidth", "Latency"], &rows)
    )
}

/// Ablation 5: offline batch size (overhead amortization) on the Exynos
/// 990 classification ALP configuration.
#[must_use]
pub fn ablation_batch_size() -> String {
    let soc = ChipId::Exynos990.build();
    let dep = Enn
        .compile(&ModelId::MobileNetEdgeTpu.build(), &soc)
        .expect("compiles");
    // The batch size is an execution argument, not a lowering input: one
    // offline plan serves the whole sweep (the serial path re-lowered
    // every stream per knob), and the independent knobs run in parallel
    // on their own thermal states.
    let plan = OfflinePlan::new(&soc, &dep.graph, &dep.offline_streams);
    metrics().record_sweep_miss();
    let rows = par_map(&[1usize, 2, 8, 32, 128], worker_threads(), |&batch| {
        metrics().record_sweep_hit();
        let mut state = soc.new_state(22.0);
        let r = plan.execute(&mut state, 8192, batch);
        vec![batch.to_string(), format!("{:.1} FPS", r.throughput_fps)]
    });
    format!(
        "Ablation — offline batch size (classification, Exynos 990, NPU+CPU)\n{}",
        render_table(&["Batch", "Throughput"], &rows)
    )
}

/// End-to-end "AI tax" (Appendix E): fraction of user-perceived latency
/// spent outside the model graph.
#[must_use]
pub fn end_to_end_tax() -> String {
    let chips = [ChipId::Dimensity1100, ChipId::Snapdragon888];
    let cells: Vec<(ChipId, BenchmarkDef)> = chips
        .iter()
        .flat_map(|&chip| suite(SuiteVersion::V1_0).into_iter().map(move |def| (chip, def)))
        .collect();
    let rows: Vec<Vec<String>> = par_map(
        &cells,
        worker_threads(),
        |(chip, def): &(ChipId, BenchmarkDef)| -> Option<Vec<String>> {
            let soc = cache().soc(*chip);
            let backend =
                mlperf_mobile::app::submission_backend(*chip, SuiteVersion::V1_0, def.task);
            let dep = cache().deployment(*chip, backend, def.model).ok()?;
            let model_ms = dep.estimate_ms(&soc);
            let (pre, post) = host_stage_time(def.task, &soc);
            let host_ms = (pre + post).as_millis_f64();
            Some(vec![
                chip.to_string(),
                def.task.to_string(),
                format!("{model_ms:.2} ms"),
                format!("{host_ms:.2} ms"),
                format!("{:.1}%", 100.0 * host_ms / (host_ms + model_ms)),
            ])
        },
    )
    .into_iter()
    .flatten()
    .collect();
    format!(
        "End-to-end AI tax (Appendix E extension; cf. Buch et al.)\n{}",
        render_table(&["Chipset", "Task", "Model", "Pre+post", "Tax"], &rows)
    )
}

/// The extended suite (Appendix E): speech RNN-T and super-resolution on
/// the v1.0 flagships.
#[must_use]
pub fn extensions_report() -> String {
    let chips = [ChipId::Dimensity1100, ChipId::Exynos2100, ChipId::Snapdragon888];
    let cells: Vec<(ChipId, BenchmarkDef)> = chips
        .iter()
        .flat_map(|&chip| {
            mlperf_mobile::extensions::extension_defs().into_iter().map(move |def| (chip, def))
        })
        .collect();
    let rows: Vec<Vec<String>> = par_map(
        &cells,
        worker_threads(),
        |(chip, def): &(ChipId, BenchmarkDef)| -> Option<Vec<String>> {
            let soc = cache().soc(*chip);
            let backend = vendor_backend(&soc).expect("vendor backend");
            let dep = cache().deployment(*chip, backend, def.model).ok()?;
            Some(vec![
                chip.to_string(),
                def.task.to_string(),
                format!("{:.2} ms", dep.estimate_ms(&soc)),
                dep.scheme.to_string(),
                dep.accelerator_summary(&soc),
                format!("{:.3} {}", def.quality_target(), def.task.metric_name()),
            ])
        },
    )
    .into_iter()
    .flatten()
    .collect();
    format!(
        "Suite extensions (Appendix E): speech RNN-T + 2x super-resolution\n{}\nspeech lands on the GPU at FP16 (LSTMs unsupported by the NPUs — the Insight 5 mechanism); super-resolution stays INT8 on the accelerators\n",
        render_table(&["Chipset", "Task", "Latency", "Numerics", "Engines", "Quality gate"], &rows)
    )
}

/// Power / battery (Appendix E): energy per query and the power-saving
/// hazard the full-charge run rule avoids.
#[must_use]
pub fn power_report() -> String {
    let chips = [ChipId::Exynos2100, ChipId::Snapdragon888];
    let cells: Vec<(ChipId, BenchmarkDef)> = chips
        .iter()
        .flat_map(|&chip| suite(SuiteVersion::V1_0).into_iter().map(move |def| (chip, def)))
        .collect();
    // Independent (chip, task) cells run in parallel through the shared
    // plan cache; the accuracy half of each run hits the process-wide
    // sweep cache whenever another cell already scored the same
    // (task, scale, seed, quality) input.
    let rows: Vec<Vec<String>> = par_map(
        &cells,
        worker_threads(),
        |(chip, def): &(ChipId, BenchmarkDef)| -> Option<Vec<String>> {
            let backend =
                mlperf_mobile::app::submission_backend(*chip, SuiteVersion::V1_0, def.task);
            let planned = cache().planned(*chip, backend, def.model).ok()?;
            let score = run_benchmark_planned(
                *chip,
                cache().soc(*chip),
                planned,
                def,
                &RunRules::smoke_test(),
                DatasetScale::Reduced(48),
                ScenarioMix::offline_only(false),
                trace_sink(),
            );
            Some(vec![
                chip.to_string(),
                def.task.to_string(),
                format!("{:.2} mJ", score.joules_per_query * 1e3),
                format!("{:.2} ms", score.latency_ms()),
                format!("{:.2} W avg", score.joules_per_query / (score.latency_ms() / 1e3)),
            ])
        },
    )
    .into_iter()
    .flatten()
    .collect();
    // Low-battery comparison on one configuration.
    let mut low_rules = RunRules::smoke_test();
    low_rules.battery_soc = Some(0.15);
    let def = suite(SuiteVersion::V1_0).remove(0);
    let soc = cache().soc(ChipId::Snapdragon888);
    let planned = cache()
        .planned(ChipId::Snapdragon888, BackendId::Snpe, def.model)
        .expect("SNPE compiles classification");
    let full = run_benchmark_planned(
        ChipId::Snapdragon888,
        soc.clone(),
        planned.clone(),
        &def,
        &RunRules::smoke_test(),
        DatasetScale::Reduced(48),
        ScenarioMix::offline_only(false),
        trace_sink(),
    );
    let low = run_benchmark_planned(
        ChipId::Snapdragon888,
        soc,
        planned,
        &def,
        &low_rules,
        DatasetScale::Reduced(48),
        ScenarioMix::offline_only(false),
        trace_sink(),
    );
    format!(
        "Power / energy (Appendix E extension; most chipsets cap at ~3 W TDP)\n{}\nbattery hazard: classification p90 on a full charge {:.2} ms vs {:.2} ms at 15% charge (power-saving mode entered: {}) — why the rules recommend a full charge\n",
        render_table(&["Chipset", "Task", "Energy/query", "p90", "Avg power"], &rows),
        full.latency_ms(),
        low.latency_ms(),
        low.power_saving_entered,
    )
}

/// Per-sub-report wall-clock of the most recent [`all_ablations`] call,
/// drained by `reproduce` into `BENCH_suite.json`'s ablation breakdown.
static BREAKDOWN: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

/// Removes and returns the per-sub-report wall-clock entries the last
/// [`all_ablations`] call recorded (report order).
///
/// # Panics
///
/// Panics if the breakdown mutex was poisoned by a panicking worker.
#[must_use]
pub fn take_ablation_breakdown() -> Vec<(String, f64)> {
    std::mem::take(&mut *BREAKDOWN.lock().unwrap())
}

/// Every ablation and extension artifact, each sub-report individually
/// timed (see [`take_ablation_breakdown`]) and evaluated in parallel with
/// order-preserving assembly.
#[must_use]
pub fn all_ablations() -> String {
    type SubReport = (&'static str, fn() -> String);
    let parts: [SubReport; 8] = [
        ("sync_overhead", ablation_sync_overhead),
        ("merge_window", ablation_merge_window),
        ("sticky_fallback", ablation_sticky_fallback),
        ("interconnect", ablation_interconnect),
        ("batch_size", ablation_batch_size),
        ("end_to_end_tax", end_to_end_tax),
        ("extensions", extensions_report),
        ("power", power_report),
    ];
    let timed = par_map(&parts, worker_threads(), |&(name, f)| {
        let t = std::time::Instant::now();
        let text = f();
        (name.to_owned(), text, t.elapsed().as_secs_f64() * 1e3)
    });
    let mut breakdown = Vec::with_capacity(timed.len());
    let mut texts = Vec::with_capacity(timed.len());
    for (name, text, wall_ms) in timed {
        breakdown.push((name, wall_ms));
        texts.push(text);
    }
    *BREAKDOWN.lock().unwrap() = breakdown;
    texts.join("\n")
}

/// The pre-sweep-engine implementations, verbatim: every knob fully
/// re-partitions and re-lowers, every cell evaluates in sequence, and
/// every harness run recompiles its plans.
///
/// Kept as the reference the sweep engine is held to: the byte-identity
/// tests assert each parallel/delta-lowered report above renders the
/// exact same string, and `bench_ablations` measures the speedup against
/// these.
pub mod serial {
    use super::{
        cache, host_stage_time, partition, render_table, retype, suite, vendor_backend, Backend,
        BackendId, ChipId, DataType, DatasetScale, Enn, EngineKind, FallbackPolicy, ModelId,
        PartitionPlan, RunRules, ScenarioMix, SuiteVersion, Target,
    };
    use crate::trace_sink;
    use mlperf_mobile::harness::run_benchmark_planned;
    use mlperf_mobile::sut_impl::PlannedDeployment;
    use soc_sim::executor::{estimate_query_secs, run_offline};

    /// Serial [`super::ablation_sync_overhead`]: partitions and lowers per
    /// knob.
    #[must_use]
    pub fn ablation_sync_overhead() -> String {
        let soc = ChipId::Dimensity1100.build();
        let graph = retype(&ModelId::MobileNetEdgeTpu.build(), DataType::U8);
        let npu = soc.engine_of_kind(EngineKind::Npu).expect("has NPU");
        let mut rows = Vec::new();
        for sync_us in [0.0, 10.0, 40.0, 130.0, 300.0] {
            let plan = PartitionPlan {
                primary: Target { engine: npu, dtype: DataType::U8 },
                fallbacks: vec![Target { engine: soc.cpu(), dtype: DataType::U8 }],
                policy: FallbackPolicy::Merge { window: 2 },
                primary_blocked: Vec::new(),
                sync_overhead_us: sync_us,
                query_overhead_us: 0.0,
            };
            let sched = partition(&graph, &soc, &plan).expect("partitions");
            let ms = estimate_query_secs(&soc, &graph, &sched) * 1e3;
            rows.push(vec![
                format!("{sync_us:.0} us"),
                format!("{}", sched.num_stages()),
                format!("{ms:.3} ms"),
            ]);
        }
        format!(
            "Ablation — per-stage framework sync overhead (classification, Dimensity 1100)\n{}",
            render_table(&["Sync/stage", "Stages", "Latency"], &rows)
        )
    }

    /// Serial [`super::ablation_merge_window`].
    #[must_use]
    pub fn ablation_merge_window() -> String {
        let soc = ChipId::Exynos2100.build();
        let graph = retype(&ModelId::DeepLabV3Plus.build(), DataType::I8);
        let npu = soc.engine_of_kind(EngineKind::Npu).expect("has NPU");
        let gpu = soc.engine_of_kind(EngineKind::Gpu).expect("has GPU");
        let mut rows = Vec::new();
        for window in [0usize, 1, 2, 3, 4, 8] {
            let plan = PartitionPlan {
                primary: Target { engine: npu, dtype: DataType::I8 },
                fallbacks: vec![
                    Target { engine: gpu, dtype: DataType::F16 },
                    Target { engine: soc.cpu(), dtype: DataType::I8 },
                ],
                policy: FallbackPolicy::Merge { window },
                primary_blocked: Vec::new(),
                sync_overhead_us: 10.0,
                query_overhead_us: 0.0,
            };
            let sched = partition(&graph, &soc, &plan).expect("partitions");
            let ms = estimate_query_secs(&soc, &graph, &sched) * 1e3;
            rows.push(vec![
                window.to_string(),
                sched.num_transitions().to_string(),
                format!("{ms:.2} ms"),
            ]);
        }
        format!(
            "Ablation — merge window (segmentation, Exynos 2100)\n{}",
            render_table(&["Window", "Engine transitions", "Latency"], &rows)
        )
    }

    /// Serial [`super::ablation_sticky_fallback`].
    #[must_use]
    pub fn ablation_sticky_fallback() -> String {
        let soc = ChipId::Exynos990.build();
        let graph = retype(&ModelId::DeepLabV3Plus.build(), DataType::I8);
        let npu = soc.engine_of_kind(EngineKind::Npu).expect("has NPU");
        let gpu = soc.engine_of_kind(EngineKind::Gpu).expect("has GPU");
        let mut rows = Vec::new();
        for sticky in [0usize, 2, 4, 6, 10, 20] {
            let plan = PartitionPlan {
                primary: Target { engine: npu, dtype: DataType::I8 },
                fallbacks: vec![
                    Target { engine: gpu, dtype: DataType::F32 },
                    Target { engine: soc.cpu(), dtype: DataType::I8 },
                ],
                policy: FallbackPolicy::PingPong { sticky },
                primary_blocked: Vec::new(),
                sync_overhead_us: 10.0,
                query_overhead_us: 0.0,
            };
            let sched = partition(&graph, &soc, &plan).expect("partitions");
            let gpu_ops: usize = sched
                .stages
                .iter()
                .filter(|s| s.engine == gpu)
                .map(|s| s.nodes.len())
                .sum();
            let ms = estimate_query_secs(&soc, &graph, &sched) * 1e3;
            rows.push(vec![
                sticky.to_string(),
                gpu_ops.to_string(),
                sched.num_transitions().to_string(),
                format!("{ms:.1} ms"),
            ]);
        }
        format!(
            "Ablation — sticky fallback depth (segmentation, Exynos 990, GPU at FP32)\n{}",
            render_table(&["Sticky ops", "Ops dragged to GPU", "Transitions", "Latency"], &rows)
        )
    }

    /// Serial [`super::ablation_interconnect`]: compiles *and* fully
    /// re-lowers per knob.
    #[must_use]
    pub fn ablation_interconnect() -> String {
        let base = ChipId::Exynos990.build();
        let reference = ModelId::DeepLabV3Plus.build();
        let mut rows = Vec::new();
        for gbps in [0.18, 0.5, 2.0, 10.0] {
            let mut soc = base.clone();
            soc.interconnect.transfer_gbps = gbps;
            let dep = Enn.compile(&reference, &soc).expect("compiles");
            rows.push(vec![
                format!("{gbps:.2} GB/s"),
                format!("{:.1} ms", dep.estimate_ms(&soc)),
            ]);
        }
        format!(
            "Ablation — inter-IP transfer bandwidth (segmentation, Exynos 990)\n{}",
            render_table(&["Bandwidth", "Latency"], &rows)
        )
    }

    /// Serial [`super::ablation_batch_size`]: re-lowers every stream per
    /// knob through [`run_offline`].
    #[must_use]
    pub fn ablation_batch_size() -> String {
        let soc = ChipId::Exynos990.build();
        let dep = Enn
            .compile(&ModelId::MobileNetEdgeTpu.build(), &soc)
            .expect("compiles");
        let mut rows = Vec::new();
        for batch in [1usize, 2, 8, 32, 128] {
            let mut state = soc.new_state(22.0);
            let r = run_offline(&soc, &dep.graph, &dep.offline_streams, &mut state, 8192, batch);
            rows.push(vec![batch.to_string(), format!("{:.1} FPS", r.throughput_fps)]);
        }
        format!(
            "Ablation — offline batch size (classification, Exynos 990, NPU+CPU)\n{}",
            render_table(&["Batch", "Throughput"], &rows)
        )
    }

    /// Serial [`super::end_to_end_tax`].
    #[must_use]
    pub fn end_to_end_tax() -> String {
        let mut rows = Vec::new();
        for chip in [ChipId::Dimensity1100, ChipId::Snapdragon888] {
            let soc = cache().soc(chip);
            for def in suite(SuiteVersion::V1_0) {
                let backend =
                    mlperf_mobile::app::submission_backend(chip, SuiteVersion::V1_0, def.task);
                let Ok(dep) = cache().deployment(chip, backend, def.model) else {
                    continue;
                };
                let model_ms = dep.estimate_ms(&soc);
                let (pre, post) = host_stage_time(def.task, &soc);
                let host_ms = (pre + post).as_millis_f64();
                rows.push(vec![
                    chip.to_string(),
                    def.task.to_string(),
                    format!("{model_ms:.2} ms"),
                    format!("{host_ms:.2} ms"),
                    format!("{:.1}%", 100.0 * host_ms / (host_ms + model_ms)),
                ]);
            }
        }
        format!(
            "End-to-end AI tax (Appendix E extension; cf. Buch et al.)\n{}",
            render_table(&["Chipset", "Task", "Model", "Pre+post", "Tax"], &rows)
        )
    }

    /// Serial [`super::extensions_report`].
    #[must_use]
    pub fn extensions_report() -> String {
        let mut rows = Vec::new();
        for chip in [ChipId::Dimensity1100, ChipId::Exynos2100, ChipId::Snapdragon888] {
            let soc = cache().soc(chip);
            let backend = vendor_backend(&soc).expect("vendor backend");
            for def in mlperf_mobile::extensions::extension_defs() {
                let Ok(dep) = cache().deployment(chip, backend, def.model) else {
                    continue;
                };
                rows.push(vec![
                    chip.to_string(),
                    def.task.to_string(),
                    format!("{:.2} ms", dep.estimate_ms(&soc)),
                    dep.scheme.to_string(),
                    dep.accelerator_summary(&soc),
                    format!("{:.3} {}", def.quality_target(), def.task.metric_name()),
                ]);
            }
        }
        format!(
            "Suite extensions (Appendix E): speech RNN-T + 2x super-resolution\n{}\nspeech lands on the GPU at FP16 (LSTMs unsupported by the NPUs — the Insight 5 mechanism); super-resolution stays INT8 on the accelerators\n",
            render_table(&["Chipset", "Task", "Latency", "Numerics", "Engines", "Quality gate"], &rows)
        )
    }

    /// Serial [`super::power_report`]: every run recompiles its plans.
    #[must_use]
    pub fn power_report() -> String {
        let mut rows = Vec::new();
        for chip in [ChipId::Exynos2100, ChipId::Snapdragon888] {
            for def in suite(SuiteVersion::V1_0) {
                let backend =
                    mlperf_mobile::app::submission_backend(chip, SuiteVersion::V1_0, def.task);
                let Ok(dep) = cache().deployment(chip, backend, def.model) else {
                    continue;
                };
                let soc = cache().soc(chip);
                let planned = PlannedDeployment::compile(&soc, dep);
                let score = run_benchmark_planned(
                    chip,
                    soc,
                    planned,
                    &def,
                    &RunRules::smoke_test(),
                    DatasetScale::Reduced(48),
                    ScenarioMix::offline_only(false),
                    trace_sink(),
                );
                rows.push(vec![
                    chip.to_string(),
                    def.task.to_string(),
                    format!("{:.2} mJ", score.joules_per_query * 1e3),
                    format!("{:.2} ms", score.latency_ms()),
                    format!("{:.2} W avg", score.joules_per_query / (score.latency_ms() / 1e3)),
                ]);
            }
        }
        // Low-battery comparison on one configuration.
        let mut low_rules = RunRules::smoke_test();
        low_rules.battery_soc = Some(0.15);
        let def = suite(SuiteVersion::V1_0).remove(0);
        let soc = cache().soc(ChipId::Snapdragon888);
        let dep = cache()
            .deployment(ChipId::Snapdragon888, BackendId::Snpe, def.model)
            .expect("SNPE compiles classification");
        let full = run_benchmark_planned(
            ChipId::Snapdragon888,
            soc.clone(),
            PlannedDeployment::compile(&soc, dep.clone()),
            &def,
            &RunRules::smoke_test(),
            DatasetScale::Reduced(48),
            ScenarioMix::offline_only(false),
            trace_sink(),
        );
        let low = run_benchmark_planned(
            ChipId::Snapdragon888,
            soc.clone(),
            PlannedDeployment::compile(&soc, dep),
            &def,
            &low_rules,
            DatasetScale::Reduced(48),
            ScenarioMix::offline_only(false),
            trace_sink(),
        );
        format!(
            "Power / energy (Appendix E extension; most chipsets cap at ~3 W TDP)\n{}\nbattery hazard: classification p90 on a full charge {:.2} ms vs {:.2} ms at 15% charge (power-saving mode entered: {}) — why the rules recommend a full charge\n",
            render_table(&["Chipset", "Task", "Energy/query", "p90", "Avg power"], &rows),
            full.latency_ms(),
            low.latency_ms(),
            low.power_saving_entered,
        )
    }

    /// Every ablation and extension artifact, serially.
    #[must_use]
    pub fn all_ablations() -> String {
        [
            ablation_sync_overhead(),
            ablation_merge_window(),
            ablation_sticky_fallback(),
            ablation_interconnect(),
            ablation_batch_size(),
            end_to_end_tax(),
            extensions_report(),
            power_report(),
        ]
        .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_sweep_is_monotone() {
        let text = ablation_sync_overhead();
        assert!(text.contains("0 us"));
        assert!(text.contains("300 us"));
    }

    #[test]
    fn sticky_sweep_renders() {
        let text = ablation_sticky_fallback();
        assert!(text.lines().count() > 6, "{text}");
    }

    #[test]
    fn extensions_report_shows_fp16_speech() {
        let text = extensions_report();
        assert!(text.contains("Speech recognition"));
        assert!(text.contains("FP16"));
        assert!(text.contains("Super-resolution"));
    }

    #[test]
    fn tax_report_has_percentages() {
        let text = end_to_end_tax();
        assert!(text.contains('%'));
    }

    /// The sweep engine's bit-identity contract at the report level:
    /// every delta-lowered, schedule-deduplicated, parallel-evaluated
    /// report renders the exact same bytes as the pre-sweep serial
    /// full-recompile implementation.
    #[test]
    fn sweep_reports_match_serial_byte_for_byte() {
        for (name, sweep, serial) in [
            ("sync", ablation_sync_overhead as fn() -> String, serial::ablation_sync_overhead as fn() -> String),
            ("merge", ablation_merge_window, serial::ablation_merge_window),
            ("sticky", ablation_sticky_fallback, serial::ablation_sticky_fallback),
            ("interconnect", ablation_interconnect, serial::ablation_interconnect),
            ("batch", ablation_batch_size, serial::ablation_batch_size),
            ("tax", end_to_end_tax, serial::end_to_end_tax),
            ("extensions", extensions_report, serial::extensions_report),
        ] {
            assert_eq!(sweep(), serial(), "{name} diverged from the serial oracle");
        }
    }

    /// [`power_report`] runs the full harness, so it gets its own case:
    /// the parallel planned-deployment path must match the serial
    /// recompile-per-run path byte for byte — same scores, same thermal
    /// trajectories, same rendering.
    #[test]
    fn power_report_matches_serial_byte_for_byte() {
        assert_eq!(power_report(), serial::power_report());
    }

    #[test]
    fn all_ablations_records_breakdown() {
        let text = all_ablations();
        assert!(text.contains("Ablation"));
        let breakdown = take_ablation_breakdown();
        assert_eq!(breakdown.len(), 8);
        assert_eq!(breakdown[0].0, "sync_overhead");
        assert!(breakdown.iter().all(|(_, ms)| *ms >= 0.0));
        assert!(take_ablation_breakdown().is_empty(), "drain empties the sink");
    }
}
