//! Criterion bench: full benchmark runs (accuracy + performance) across
//! generations — the machinery behind Figure 6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlperf_mobile::harness::{run_benchmark, RunRules, ScenarioMix};
use mlperf_mobile::sut_impl::DatasetScale;
use mlperf_mobile::task::{suite, SuiteVersion};
use mobile_backend::registry::{create, vendor_backend};
use soc_sim::catalog::ChipId;
use std::hint::black_box;

fn bench_generational(c: &mut Criterion) {
    let mut group = c.benchmark_group("benchmark_run");
    group.sample_size(10);
    for (chip, version) in [
        (ChipId::Exynos990, SuiteVersion::V0_7),
        (ChipId::Exynos2100, SuiteVersion::V1_0),
    ] {
        let def = suite(version).into_iter().next().unwrap(); // classification
        let backend = create(vendor_backend(&chip.build()).unwrap());
        group.bench_function(BenchmarkId::new("classification", chip.to_string()), |b| {
            b.iter(|| {
                let score = run_benchmark(
                    chip,
                    backend.as_ref(),
                    &def,
                    &RunRules::smoke_test(),
                    DatasetScale::Reduced(128),
                    ScenarioMix::offline_only(false),
                )
                .unwrap();
                black_box(score.latency_ms())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generational);
criterion_main!(benches);
