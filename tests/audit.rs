//! The result-validation / audit flow end-to-end (paper Section 6.2):
//! honest submissions reproduce within 5%; various classes of cheating are
//! caught.

use mlperf_mobile::audit::{audit, AuditFinding, SubmissionPackage};
use mlperf_mobile::harness::{run_benchmark, RunRules, ScenarioMix};
use mlperf_mobile::sut_impl::DatasetScale;
use mlperf_mobile::task::{suite, SuiteVersion, Task};
use mobile_backend::registry::create;
use mlperf_mobile::app::submission_backend;
use mobile_data::calibration_set::approved_calibration_indices;
use soc_sim::catalog::ChipId;

fn build_submission(chip: ChipId, task: Task) -> (SubmissionPackage, RunRules, DatasetScale) {
    let rules = RunRules::smoke_test();
    let scale = DatasetScale::Reduced(96);
    let version = SuiteVersion::V1_0;
    let def = suite(version).into_iter().find(|d| d.task == task).unwrap();
    let backend_id = submission_backend(chip, version, task);
    let backend = create(backend_id);
    let mix = ScenarioMix::offline_only(false);
    let score = run_benchmark(chip, backend.as_ref(), &def, &rules, scale, mix).unwrap();
    let deployment = backend.compile(&def.model.build(), &chip.build()).unwrap();
    let package = SubmissionPackage {
        chip,
        version,
        task,
        backend: backend_id,
        claimed_latency_ms: score.latency_ms(),
        claimed_offline_fps: score.offline.as_ref().map(|o| o.throughput_fps),
        claimed_accuracy: score.accuracy,
        log: score.log,
        deployed_graph: deployment.graph,
        calibration_indices: approved_calibration_indices(rules.settings.seed, 50_000, 500),
        calibration_dataset_len: 50_000,
    };
    (package, rules, scale)
}

#[test]
fn honest_submissions_pass_across_vendors() {
    for chip in [ChipId::Dimensity1100, ChipId::Exynos2100, ChipId::Snapdragon888] {
        let (package, rules, scale) = build_submission(chip, Task::ImageClassification);
        let report = audit(&package, &rules, scale);
        assert!(report.is_valid(), "{chip:?}: {:?}", report.findings);
        // The auditor reproduced within the 5% window.
        let dev = (package.claimed_latency_ms - report.reproduced_latency_ms).abs()
            / report.reproduced_latency_ms;
        assert!(dev <= 0.05, "{chip:?}: deviation {dev:.3}");
    }
}

#[test]
fn offline_throughput_verified() {
    // Submit with offline; an inflated FPS claim is caught, an honest one
    // reproduces.
    let rules = RunRules::smoke_test();
    let scale = DatasetScale::Reduced(96);
    let version = SuiteVersion::V1_0;
    let def = suite(version)
        .into_iter()
        .find(|d| d.task == Task::ImageClassification)
        .unwrap();
    let backend_id = submission_backend(ChipId::Exynos2100, version, Task::ImageClassification);
    let backend = create(backend_id);
    let mix = ScenarioMix::offline_only(true);
    let score = run_benchmark(ChipId::Exynos2100, backend.as_ref(), &def, &rules, scale, mix).unwrap();
    let deployment = backend.compile(&def.model.build(), &ChipId::Exynos2100.build()).unwrap();
    let mut package = SubmissionPackage {
        chip: ChipId::Exynos2100,
        version,
        task: Task::ImageClassification,
        backend: backend_id,
        claimed_latency_ms: score.latency_ms(),
        claimed_offline_fps: score.offline.as_ref().map(|o| o.throughput_fps),
        claimed_accuracy: score.accuracy,
        log: score.log,
        deployed_graph: deployment.graph,
        calibration_indices: approved_calibration_indices(rules.settings.seed, 50_000, 500),
        calibration_dataset_len: 50_000,
    };
    let honest = audit(&package, &rules, scale);
    assert!(honest.is_valid(), "{:?}", honest.findings);
    package.claimed_offline_fps = package.claimed_offline_fps.map(|f| f * 1.5);
    let inflated = audit(&package, &rules, scale);
    assert!(inflated
        .findings
        .iter()
        .any(|f| matches!(f, AuditFinding::ThroughputMismatch { .. })));
}

#[test]
fn latency_inflation_caught() {
    let (mut package, rules, scale) = build_submission(ChipId::Snapdragon888, Task::ImageClassification);
    package.claimed_latency_ms *= 0.7; // claim 30% faster
    let report = audit(&package, &rules, scale);
    assert!(report.findings.iter().any(|f| matches!(f, AuditFinding::LatencyMismatch { .. })));
}

#[test]
fn accuracy_inflation_caught() {
    let (mut package, rules, scale) = build_submission(ChipId::Dimensity1100, Task::ImageClassification);
    package.claimed_accuracy = 0.999; // impossible quantized accuracy
    let report = audit(&package, &rules, scale);
    assert!(report.findings.iter().any(|f| matches!(f, AuditFinding::AccuracyMismatch { .. })));
}

#[test]
fn below_target_submission_rejected() {
    let (mut package, rules, scale) = build_submission(ChipId::Dimensity1100, Task::ImageClassification);
    // Claim an accuracy below the 74.66% gate (and pretend it's honest).
    package.claimed_accuracy = 0.70;
    let report = audit(&package, &rules, scale);
    assert!(report.findings.iter().any(|f| matches!(f, AuditFinding::QualityGateFailed { .. })));
}

#[test]
fn pruned_deployment_caught() {
    let (mut package, rules, scale) = build_submission(ChipId::Exynos2100, Task::ImageClassification);
    // Ship a thinned graph as the "deployed model".
    package.deployed_graph = nn_graph::models::ModelId::DeepLabV3Plus.build();
    let report = audit(&package, &rules, scale);
    assert!(report.findings.iter().any(|f| matches!(f, AuditFinding::ModelNotEquivalent(_))));
}

#[test]
fn cherry_picked_calibration_caught() {
    let (mut package, rules, scale) = build_submission(ChipId::Dimensity1100, Task::ImageClassification);
    package.calibration_indices = (1000..1500).collect();
    let report = audit(&package, &rules, scale);
    assert!(report.findings.contains(&AuditFinding::UnapprovedCalibration));
}

#[test]
fn tampered_log_caught() {
    use loadgen::log::RunLog;
    let (mut package, rules, scale) = build_submission(ChipId::Dimensity1100, Task::ImageClassification);
    // Drop everything but the first record ("edited" log).
    let text = package.log.to_json_lines();
    let first_line = text.lines().next().unwrap().to_owned();
    package.log = RunLog::from_json_lines(&first_line).unwrap();
    let report = audit(&package, &rules, scale);
    assert!(report.findings.iter().any(|f| matches!(f, AuditFinding::LogViolation(_))));
}
