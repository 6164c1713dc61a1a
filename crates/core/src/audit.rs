//! Result validation and audit (paper Section 6.2).
//!
//! "Post submission, all of the results are independently audited... To
//! verify results, we build the vendor-specific app, install it on the
//! device (in the factory-reset state), and reproduce the latency and/or
//! throughput numbers, along with accuracy. The results are valid if our
//! numbers are within 5% of the submitted scores."

use crate::harness::{run_benchmark, RunRules, ScenarioMix};
use crate::sut_impl::DatasetScale;
use crate::task::{suite, SuiteVersion, Task};
use loadgen::checker::check_log;
use loadgen::log::RunLog;
use mobile_backend::backend::BackendId;
use mobile_backend::registry::create;
use mobile_data::calibration_set::is_approved_set;
use nn_graph::Graph;
use quant::equivalence::check_equivalence;
use serde::{Deserialize, Serialize};
use soc_sim::catalog::ChipId;
use std::fmt;

/// Tolerance of the reproduction check.
pub const AUDIT_TOLERANCE: f64 = 0.05;

/// Everything a submitter ships for one benchmark entry.
#[derive(Debug, Clone)]
pub struct SubmissionPackage {
    /// Platform the result was measured on.
    pub chip: ChipId,
    /// Suite version.
    pub version: SuiteVersion,
    /// Task submitted.
    pub task: Task,
    /// Code path used.
    pub backend: BackendId,
    /// Claimed single-stream p90 latency (ms).
    pub claimed_latency_ms: f64,
    /// Claimed offline throughput (FPS), when the submission includes the
    /// offline scenario.
    pub claimed_offline_fps: Option<f64>,
    /// Claimed accuracy (metric units).
    pub claimed_accuracy: f64,
    /// The unedited performance log.
    pub log: RunLog,
    /// The deployed (possibly optimized) model graph, for equivalence
    /// review.
    pub deployed_graph: Graph,
    /// Calibration sample indices the submitter claims to have used.
    pub calibration_indices: Vec<usize>,
    /// Size of the dataset the calibration set was drawn from.
    pub calibration_dataset_len: usize,
}

/// One audit finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AuditFinding {
    /// The run log violates the rules.
    LogViolation(String),
    /// The deployed model is not equivalent to the reference.
    ModelNotEquivalent(String),
    /// A non-approved calibration set was used.
    UnapprovedCalibration,
    /// Reproduced latency deviates more than the tolerance.
    LatencyMismatch {
        /// Claimed score (ms).
        claimed_ms: f64,
        /// Reproduced score (ms).
        reproduced_ms: f64,
    },
    /// Reproduced accuracy deviates more than the tolerance.
    AccuracyMismatch {
        /// Claimed accuracy.
        claimed: f64,
        /// Reproduced accuracy.
        reproduced: f64,
    },
    /// Reproduced offline throughput deviates more than the tolerance.
    ThroughputMismatch {
        /// Claimed FPS.
        claimed_fps: f64,
        /// Reproduced FPS.
        reproduced_fps: f64,
    },
    /// The claimed accuracy is below the quality target.
    QualityGateFailed {
        /// Claimed accuracy.
        claimed: f64,
        /// Required target.
        target: f64,
    },
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditFinding::LogViolation(v) => write!(f, "log violation: {v}"),
            AuditFinding::ModelNotEquivalent(e) => write!(f, "model equivalence: {e}"),
            AuditFinding::UnapprovedCalibration => write!(f, "unapproved calibration set"),
            AuditFinding::LatencyMismatch { claimed_ms, reproduced_ms } => write!(
                f,
                "latency {claimed_ms:.2}ms not reproduced (got {reproduced_ms:.2}ms)"
            ),
            AuditFinding::AccuracyMismatch { claimed, reproduced } => {
                write!(f, "accuracy {claimed:.4} not reproduced (got {reproduced:.4})")
            }
            AuditFinding::ThroughputMismatch { claimed_fps, reproduced_fps } => write!(
                f,
                "offline {claimed_fps:.1} FPS not reproduced (got {reproduced_fps:.1} FPS)"
            ),
            AuditFinding::QualityGateFailed { claimed, target } => {
                write!(f, "accuracy {claimed:.4} below target {target:.4}")
            }
        }
    }
}

/// Outcome of auditing one submission.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Findings (empty = clean).
    pub findings: Vec<AuditFinding>,
    /// The auditor's reproduced latency (ms).
    pub reproduced_latency_ms: f64,
    /// The auditor's reproduced accuracy.
    pub reproduced_accuracy: f64,
}

impl AuditReport {
    /// Whether the submission is valid.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Audits a submission: log compliance, model equivalence, calibration-set
/// legality, and independent reproduction on a factory-reset device.
///
/// `rules`/`scale` configure the auditor's reproduction run and must match
/// the submitter's environment (the published run rules).
#[must_use]
pub fn audit(package: &SubmissionPackage, rules: &RunRules, scale: DatasetScale) -> AuditReport {
    let mut findings = Vec::new();

    // 1. Log compliance.
    for v in check_log(&package.log, &rules.settings) {
        findings.push(AuditFinding::LogViolation(v.to_string()));
    }

    // 2. Model equivalence against the frozen reference.
    let def = suite(package.version)
        .into_iter()
        .find(|d| d.task == package.task)
        .expect("every task has a definition");
    let reference = def.model.build();
    if let Err(e) = check_equivalence(&reference, &package.deployed_graph) {
        findings.push(AuditFinding::ModelNotEquivalent(e.to_string()));
    }

    // 3. Calibration-set legality.
    if !package.calibration_indices.is_empty()
        && !is_approved_set(
            rules.settings.seed,
            package.calibration_dataset_len,
            &package.calibration_indices,
        )
    {
        findings.push(AuditFinding::UnapprovedCalibration);
    }

    // 4. Independent reproduction (factory-reset device = fresh state),
    // including the offline scenario when the submission claims one.
    let backend = create(package.backend);
    let mix = ScenarioMix::offline_only(package.claimed_offline_fps.is_some());
    let (reproduced_latency_ms, reproduced_accuracy, reproduced_fps) =
        match run_benchmark(package.chip, backend.as_ref(), &def, rules, scale, mix) {
            Ok(score) => (
                score.latency_ms(),
                score.accuracy,
                score.offline.as_ref().map(|o| o.throughput_fps),
            ),
            Err(e) => {
                findings.push(AuditFinding::ModelNotEquivalent(format!(
                    "reproduction failed to compile: {e}"
                )));
                (f64::NAN, f64::NAN, None)
            }
        };
    if let (Some(claimed_fps), Some(got_fps)) = (package.claimed_offline_fps, reproduced_fps) {
        let dev = (claimed_fps - got_fps).abs() / got_fps.max(1e-9);
        if dev > AUDIT_TOLERANCE {
            findings.push(AuditFinding::ThroughputMismatch {
                claimed_fps,
                reproduced_fps: got_fps,
            });
        }
    }

    if reproduced_latency_ms.is_finite() {
        let dev = (package.claimed_latency_ms - reproduced_latency_ms).abs()
            / reproduced_latency_ms.max(1e-9);
        if dev > AUDIT_TOLERANCE {
            findings.push(AuditFinding::LatencyMismatch {
                claimed_ms: package.claimed_latency_ms,
                reproduced_ms: reproduced_latency_ms,
            });
        }
        let acc_dev = (package.claimed_accuracy - reproduced_accuracy).abs()
            / reproduced_accuracy.max(1e-9);
        if acc_dev > AUDIT_TOLERANCE {
            findings.push(AuditFinding::AccuracyMismatch {
                claimed: package.claimed_accuracy,
                reproduced: reproduced_accuracy,
            });
        }
    }

    if package.claimed_accuracy < def.quality_target() {
        findings.push(AuditFinding::QualityGateFailed {
            claimed: package.claimed_accuracy,
            target: def.quality_target(),
        });
    }

    AuditReport { findings, reproduced_latency_ms, reproduced_accuracy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::submission_backend;
    use mobile_data::calibration_set::approved_calibration_indices;

    fn honest_package() -> (SubmissionPackage, RunRules, DatasetScale) {
        let rules = RunRules::smoke_test();
        let scale = DatasetScale::Reduced(128);
        let chip = ChipId::Dimensity1100;
        let version = SuiteVersion::V1_0;
        let task = Task::ImageClassification;
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
            claimed_offline_fps: None,
            claimed_accuracy: score.accuracy,
            log: score.log.clone(),
            deployed_graph: deployment.graph,
            calibration_indices: approved_calibration_indices(rules.settings.seed, 50_000, 500),
            calibration_dataset_len: 50_000,
        };
        (package, rules, scale)
    }

    #[test]
    fn honest_submission_passes_audit() {
        let (package, rules, scale) = honest_package();
        let report = audit(&package, &rules, scale);
        assert!(report.is_valid(), "findings: {:?}", report.findings);
    }

    #[test]
    fn inflated_latency_caught() {
        let (mut package, rules, scale) = honest_package();
        package.claimed_latency_ms *= 0.5; // claim 2x faster than reality
        let report = audit(&package, &rules, scale);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, AuditFinding::LatencyMismatch { .. })));
    }

    #[test]
    fn pruned_model_caught() {
        let (mut package, rules, scale) = honest_package();
        // Swap in a *different* (smaller) deployed model.
        package.deployed_graph =
            nn_graph::models::ModelId::MobileDetSsd.build();
        let report = audit(&package, &rules, scale);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, AuditFinding::ModelNotEquivalent(_))));
    }

    #[test]
    fn rogue_calibration_caught() {
        let (mut package, rules, scale) = honest_package();
        package.calibration_indices = (0..500).collect(); // hand-picked set
        let report = audit(&package, &rules, scale);
        assert!(report.findings.contains(&AuditFinding::UnapprovedCalibration));
    }
}
