//! Suite extensions (paper Appendix E): speech recognition and
//! super-resolution.
//!
//! "Expanding the benchmark suite is an obvious area of improvement...
//! Examples include additional vision tasks, such as super-resolution, as
//! well as on-device speech recognition. Speech RNN-T is in the works."
//! These tasks are implemented end-to-end with the same machinery as the
//! core suite — model, dataset, metric, quality gate, harness — but kept
//! out of [`crate::task::suite`] so the published Table 1 stays faithful.

use crate::task::{suite, BenchmarkDef, SuiteVersion, Task};
use nn_graph::models::ModelId;

/// The extension benchmark definitions.
///
/// Quality gates follow the paper's accuracy-first philosophy (targets are
/// fractions of the FP32 reference, all >= 93%):
/// - speech: FP32 word accuracy 92.5% (7.5% WER), gate 93% of FP32;
/// - super-resolution: FP32 PSNR 34 dB, gate 97% of FP32 (33 dB).
#[must_use]
pub fn extension_defs() -> Vec<BenchmarkDef> {
    vec![
        BenchmarkDef {
            task: Task::SpeechRecognition,
            model: ModelId::MobileRnnt,
            dataset: "LibriSpeech dev (synthetic)".to_owned(),
            fp32_quality: 0.925,
            target_fraction: 0.93,
        },
        BenchmarkDef {
            task: Task::SuperResolution,
            model: ModelId::EdsrMobile,
            dataset: "DIV2K x2 (synthetic)".to_owned(),
            fp32_quality: 34.0,
            target_fraction: 0.97,
        },
    ]
}

/// The extended suite: the published version-specific suite plus the two
/// extension tasks — what a future round might run.
#[must_use]
pub fn extended_suite(version: SuiteVersion) -> Vec<BenchmarkDef> {
    let mut defs = suite(version);
    defs.extend(extension_defs());
    defs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_benchmark, RunRules, ScenarioMix};
    use crate::sut_impl::DatasetScale;
    use mobile_backend::backends::{Enn, Snpe};
    use soc_sim::catalog::ChipId;

    #[test]
    fn extended_suite_has_six_tasks() {
        let s = extended_suite(SuiteVersion::V1_0);
        assert_eq!(s.len(), 6);
        assert!(s.iter().any(|d| d.task == Task::SpeechRecognition));
        assert!(s.iter().any(|d| d.task == Task::SuperResolution));
        // Extension gates respect the accuracy-first rule (>= 93% FP32).
        for d in extension_defs() {
            assert!(d.target_fraction >= 0.93, "{:?}", d.task);
        }
    }

    #[test]
    fn speech_benchmark_end_to_end() {
        let def = &extension_defs()[0];
        let score = run_benchmark(
            ChipId::Exynos2100,
            &Enn,
            def,
            &RunRules::smoke_test(),
            DatasetScale::Reduced(200),
            ScenarioMix::offline_only(false),
        )
        .unwrap();
        assert!(
            score.accuracy_passed,
            "word accuracy {:.4} vs target {:.4}",
            score.accuracy, score.quality_target
        );
        // LSTMs are unsupported on the NPU: like MobileBERT, speech lands
        // on the GPU at FP16 (the Insight 5 mechanism).
        assert_eq!(score.scheme, quant::Scheme::Fp16, "speech should be FP16");
        assert!(score.accelerator.contains("GPU"), "on {}", score.accelerator);
        // Heavy model: latency in the tens of ms.
        assert!(score.latency_ms() > 10.0, "{:.1} ms", score.latency_ms());
    }

    #[test]
    fn super_resolution_benchmark_end_to_end() {
        let def = &extension_defs()[1];
        let score = run_benchmark(
            ChipId::Snapdragon888,
            &Snpe,
            def,
            &RunRules::smoke_test(),
            DatasetScale::Reduced(24),
            ScenarioMix::offline_only(false),
        )
        .unwrap();
        assert!(
            score.accuracy_passed,
            "PSNR {:.2} dB vs target {:.2} dB",
            score.accuracy, score.quality_target
        );
        // Conv-dominated: stays INT8 on the accelerator...
        assert!(score.scheme.is_quantized());
        assert!(score.accelerator.contains("HTA"), "on {}", score.accelerator);
        // ...and is the heaviest workload in the repo.
        let seg = run_benchmark(
            ChipId::Snapdragon888,
            &Snpe,
            &suite(SuiteVersion::V1_0)[2],
            &RunRules::smoke_test(),
            DatasetScale::Reduced(24),
            ScenarioMix::offline_only(false),
        )
        .unwrap();
        assert!(score.latency_ms() > seg.latency_ms(), "SR must out-weigh segmentation");
    }

    #[test]
    fn speech_quality_gate_behaves_like_nlp() {
        // INT8 PTQ on the recurrent model is borderline; FP16 is safe —
        // the extension reproduces the Insight 5 pattern.
        use quant::{nominal_retention, Scheme, Sensitivity};
        let def = &extension_defs()[0];
        let s = Sensitivity::for_model(def.model);
        let int8 = def.fp32_quality
            * nominal_retention(Scheme::ptq_default(nn_graph::DataType::I8), s);
        let fp16 = def.fp32_quality * nominal_retention(Scheme::Fp16, s);
        assert!(fp16 >= def.quality_target());
        // INT8 clears the gate but with a thin margin (< 2 points).
        assert!(int8 - def.quality_target() < 0.02);
    }
}
