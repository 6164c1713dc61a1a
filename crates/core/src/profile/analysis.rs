//! Per-cell trace analysis: engine occupancy, DVFS residency, thermal
//! throttling onset, latency distribution, and the energy split — the
//! numbers behind the `reproduce --profile` report and the `explain`
//! subcommand.

use crate::harness::{BenchmarkTrace, RunEnergy};
use crate::report::render_table;
use loadgen::trace::RunTrace;
use mobile_metrics::hist::LatencyHistogram;
use serde::{Deserialize, Serialize};

/// One engine's occupancy over a run, derived from per-stage telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineOccupancy {
    /// Engine name ("npu0", "gpu", ...).
    pub engine: String,
    /// Queries that scheduled at least one stage on the engine.
    pub queries: u64,
    /// Total compute time on the engine (ns).
    pub busy_ns: u64,
    /// `busy_ns` over the analyzed window.
    pub busy_fraction: f64,
    /// Gaps between consecutive queries touching this engine (count).
    pub idle_gaps: u64,
    /// Mean idle gap between uses (ns); 0 when the engine ran once.
    pub mean_idle_gap_ns: u64,
    /// Longest idle gap between uses (ns).
    pub max_idle_gap_ns: u64,
}

/// Queries dispatched at one DVFS operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsResidency {
    /// Index into the DVFS ladder (0 = fastest).
    pub level: usize,
    /// Queries dispatched at this level.
    pub queries: u64,
}

/// The analyzed view of one benchmark-matrix cell's trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellProfile {
    /// `chip/task/backend` cell label.
    pub label: String,
    /// Queries in the single-stream timeline.
    pub queries: u64,
    /// Analyzed window: first issue to last completion (ns).
    pub window_ns: u64,
    /// Log-bucketed latency distribution of the single-stream queries.
    pub latency: LatencyHistogram,
    /// Per-engine occupancy, in first-appearance order.
    pub engines: Vec<EngineOccupancy>,
    /// Queries per DVFS operating point, ascending by level.
    pub dvfs: Vec<DvfsResidency>,
    /// Time from first issue to the first throttled dispatch, when the
    /// device throttled at all (ns).
    pub time_to_first_throttle_ns: Option<u64>,
    /// Queries dispatched while throttled.
    pub throttled_queries: u64,
    /// Transitions into throttling.
    pub throttle_events: u64,
    /// Hottest dispatch-time die temperature (°C).
    pub peak_temperature_c: Option<f64>,
    /// Run-end energy accounting carried over from the trace.
    pub energy: RunEnergy,
}

/// Per-engine busy intervals: (start, end) per query the engine touched.
fn engine_intervals(ss: &RunTrace) -> Vec<(String, Vec<(u64, u64)>)> {
    let mut engines: Vec<(String, Vec<(u64, u64)>)> = Vec::new();
    for span in &ss.spans {
        let Some(t) = &span.telemetry else { continue };
        // Mirror the Perfetto layout: stages run back to back after the
        // launch/dispatch overhead.
        let mut cursor =
            span.issue_ns + t.overhead_ns.saturating_sub(t.sync_ns);
        for stage in &t.stages {
            let interval = (cursor, cursor + stage.compute_ns);
            cursor += stage.compute_ns;
            match engines.iter_mut().find(|(n, _)| *n == stage.engine) {
                Some((_, ivs)) => ivs.push(interval),
                None => engines.push((stage.engine.clone(), vec![interval])),
            }
        }
    }
    engines
}

impl CellProfile {
    /// Analyzes one benchmark trace.
    #[must_use]
    pub fn from_trace(trace: &BenchmarkTrace) -> CellProfile {
        let ss = &trace.single_stream;
        let window_ns = match (ss.spans.first(), ss.spans.last()) {
            (Some(first), Some(last)) => last.complete_ns - first.issue_ns,
            _ => 0,
        };
        let start_ns = ss.spans.first().map_or(0, |s| s.issue_ns);

        let mut latency = LatencyHistogram::new();
        for span in &ss.spans {
            latency.record(span.latency_ns);
        }

        let engines = engine_intervals(ss)
            .into_iter()
            .map(|(engine, intervals)| {
                // Coalesce per-stage intervals into per-query visits, then
                // measure the gaps between visits.
                let busy_ns: u64 = intervals.iter().map(|(s, e)| e - s).sum();
                let mut gaps: Vec<u64> = Vec::new();
                for pair in intervals.windows(2) {
                    let (_, prev_end) = pair[0];
                    let (next_start, _) = pair[1];
                    if next_start > prev_end {
                        gaps.push(next_start - prev_end);
                    }
                }
                EngineOccupancy {
                    engine,
                    queries: intervals.len() as u64,
                    busy_ns,
                    busy_fraction: if window_ns > 0 {
                        busy_ns as f64 / window_ns as f64
                    } else {
                        0.0
                    },
                    idle_gaps: gaps.len() as u64,
                    mean_idle_gap_ns: if gaps.is_empty() {
                        0
                    } else {
                        gaps.iter().sum::<u64>() / gaps.len() as u64
                    },
                    max_idle_gap_ns: gaps.iter().copied().max().unwrap_or(0),
                }
            })
            .collect();

        let mut dvfs: Vec<DvfsResidency> = Vec::new();
        for span in &ss.spans {
            let Some(t) = &span.telemetry else { continue };
            match dvfs.iter_mut().find(|d| d.level == t.dvfs_level) {
                Some(d) => d.queries += 1,
                None => dvfs.push(DvfsResidency { level: t.dvfs_level, queries: 1 }),
            }
        }
        dvfs.sort_by_key(|d| d.level);

        let time_to_first_throttle_ns = ss
            .spans
            .iter()
            .find(|s| s.telemetry.as_ref().is_some_and(loadgen::trace::QueryTelemetry::is_throttled))
            .map(|s| s.issue_ns - start_ns);

        CellProfile {
            label: trace.label(),
            queries: ss.span_count(),
            window_ns,
            latency,
            engines,
            dvfs,
            time_to_first_throttle_ns,
            throttled_queries: trace.throttled_queries(),
            throttle_events: trace.throttle_events(),
            peak_temperature_c: trace.peak_temperature_c(),
            energy: trace.energy.clone(),
        }
    }

    /// Renders the profile as a plain-text report block.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("== profile: {} ==\n", self.label);
        let ms = |ns: u64| ns as f64 / 1e6;
        out.push_str(&format!(
            "  window           {:.2} ms over {} queries\n",
            ms(self.window_ns),
            self.queries
        ));
        if !self.latency.is_empty() {
            out.push_str(&format!(
                "  latency          p50 {:.2} ms | p90 {:.2} ms | p99 {:.2} ms | max {:.2} ms\n",
                ms(self.latency.value_at_percentile(50.0)),
                ms(self.latency.value_at_percentile(90.0)),
                ms(self.latency.value_at_percentile(99.0)),
                ms(self.latency.max()),
            ));
        }
        out.push_str(&format!(
            "  energy           {:.3} J single-stream | {:.2} mJ/query | {:.2} W avg\n",
            self.energy.single_stream_joules,
            self.energy.joules_per_query * 1e3,
            self.energy.average_power_w,
        ));

        // DVFS residency + thermal behaviour.
        let residency = self
            .dvfs
            .iter()
            .map(|d| format!("L{} x{}", d.level, d.queries))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "  dvfs residency   {}\n",
            if residency.is_empty() { "(no telemetry)".to_owned() } else { residency }
        ));
        match self.time_to_first_throttle_ns {
            Some(ns) => out.push_str(&format!(
                "  throttling       first at {:.2} ms | {} queries throttled ({} events) | peak {:.1} °C\n",
                ms(ns),
                self.throttled_queries,
                self.throttle_events,
                self.peak_temperature_c.unwrap_or(0.0),
            )),
            None => out.push_str(&format!(
                "  throttling       none{}\n",
                self.peak_temperature_c
                    .map(|c| format!(" | peak {c:.1} °C"))
                    .unwrap_or_default()
            )),
        }

        // Per-engine occupancy and energy attribution.
        if !self.engines.is_empty() {
            let rows: Vec<Vec<String>> = self
                .engines
                .iter()
                .map(|e| {
                    let joules = self
                        .energy
                        .engines
                        .iter()
                        .find(|a| a.engine == e.engine)
                        .map_or(0.0, |a| a.joules);
                    vec![
                        e.engine.clone(),
                        format!("{}", e.queries),
                        format!("{:.2}", ms(e.busy_ns)),
                        format!("{:.1}%", e.busy_fraction * 100.0),
                        format!("{:.3}", ms(e.mean_idle_gap_ns)),
                        format!("{:.3}", ms(e.max_idle_gap_ns)),
                        format!("{joules:.3}"),
                    ]
                })
                .collect();
            out.push_str(&render_table(
                &["engine", "queries", "busy ms", "busy", "mean gap ms", "max gap ms", "J"],
                &rows,
            ));
        }
        out
    }
}

/// Renders the profile report for a set of traces: one
/// [`CellProfile`] block per cell, in input order.
#[must_use]
pub fn profile_report(traces: &[BenchmarkTrace]) -> String {
    if traces.is_empty() {
        return "(no traces to profile)\n".to_owned();
    }
    traces
        .iter()
        .map(|t| CellProfile::from_trace(t).render())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_benchmark_planned, RunRules, ScenarioMix};
    use crate::metrics::TraceCollector;
    use crate::sut_impl::{DatasetScale, PlannedDeployment};
    use crate::task::{suite, SuiteVersion};
    use mobile_backend::backend::Backend;
    use mobile_backend::backends::Neuron;
    use soc_sim::catalog::ChipId;
    use std::sync::Arc;

    fn traced_cell() -> BenchmarkTrace {
        let def = &suite(SuiteVersion::V1_0)[0];
        let soc = Arc::new(ChipId::Dimensity1100.build());
        let deployment = Arc::new(Neuron.compile(&def.model.build(), &soc).unwrap());
        let planned = PlannedDeployment::compile(&soc, deployment);
        let sink = TraceCollector::new();
        let _ = run_benchmark_planned(
            ChipId::Dimensity1100,
            soc,
            planned,
            def,
            &RunRules::smoke_test(),
            DatasetScale::Reduced(64),
            ScenarioMix::offline_only(true),
            Some(&sink),
        );
        sink.drain().remove(0)
    }

    #[test]
    fn profile_covers_real_run() {
        let trace = traced_cell();
        let p = CellProfile::from_trace(&trace);
        assert_eq!(p.queries, trace.single_stream.span_count());
        assert_eq!(p.latency.count(), p.queries);
        assert!(p.window_ns > 0);
        assert!(!p.engines.is_empty());
        let total_busy: u64 = p.engines.iter().map(|e| e.busy_ns).sum();
        assert!(total_busy <= p.window_ns, "engines cannot be busier than the window");
        assert_eq!(
            p.dvfs.iter().map(|d| d.queries).sum::<u64>(),
            p.queries,
            "every traced query sits at exactly one DVFS level"
        );
        // The trace's energy accounting rides along unmodified.
        assert_eq!(p.energy, trace.energy);
    }

    #[test]
    fn render_names_every_section() {
        let text = CellProfile::from_trace(&traced_cell()).render();
        assert!(text.contains("profile:"));
        assert!(text.contains("latency"));
        assert!(text.contains("dvfs residency"));
        assert!(text.contains("throttling"));
        assert!(text.contains("engine"));
        assert!(text.contains("mJ/query"));
    }

    #[test]
    fn empty_report_is_graceful() {
        assert!(profile_report(&[]).contains("no traces"));
    }
}
