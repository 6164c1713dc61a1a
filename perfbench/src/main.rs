//! End-to-end and per-layer benchmark of the MLPerf Mobile reproduction.
//!
//! ```sh
//! perfbench --workload suite|fleet|tune --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times whole ops of one workload and prints the end-to-end
//! metrics; `--trace 1` decomposes every workload into calls on its
//! layers and prints the per-layer metrics of all three, so it needs no
//! `--workload` and ignores one given. The last stdout line is the
//! result as one JSON object. See `perfbench/README.md`.

mod check;
mod fleet;
mod spans;
mod stats;
mod suite;
mod tune;

use check::{guarded, Checker, Counts, RepeatCounts};
use mlperf_mobile::metrics::metrics;
use mlperf_mobile::task::SuiteVersion;
use soc_sim::catalog::{ChipId, Generation};
use spans::Span;
use stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Worker threads never exceed this, nor the host's core count.
const MAX_WORKERS: usize = 2;

/// Processes a timed run pools. Each has its own set-up and its own
/// memory layout (ASLR), which alone can move one op's time by half.
const WORKER_PROCESSES: usize = 3;

/// Where traced runs write their spans, relative to the working
/// directory.
const SPANS_DIR: &str = "perfbench_out";

/// One benchmark workload: a set-up, then whole passes of ops.
pub trait Workload: Sized {
    /// Host seconds one pass takes on the reference host (2-core x86-64).
    /// With [`Self::MIN_PASSES`] it fixes how many whole passes a run
    /// measures, so every run covers each op the same number of times.
    const PASS_SECONDS: f64;
    /// Fewest passes a run measures.
    const MIN_PASSES: usize;
    /// What one op returns for checking.
    type Output;

    /// Everything before the first timed op.
    ///
    /// # Errors
    ///
    /// Any failure: the workload cannot run.
    fn setup(seed: u64, workers: usize) -> Result<Self, String>;

    /// Digest of what the set-up computed; the same in every process for
    /// one seed.
    fn setup_digest(&self) -> u64;

    /// Ops in one pass.
    fn ops_per_pass(&self) -> usize;

    /// Untimed preparation of a pass.
    fn begin_pass(&mut self) {}

    /// One timed op.
    ///
    /// # Errors
    ///
    /// The program's own error for this op.
    fn op(&mut self, i: usize) -> Result<Self::Output, String>;

    /// Checks op `i`'s output (untimed), adding workload-specific counts
    /// that must repeat exactly.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    fn check(&mut self, i: usize, out: Self::Output, counts: &mut Counts) -> Result<(), String>;

    /// Checks against committed references, after the timed ops.
    fn final_checks(_workers: usize, _checker: &mut Checker) {}

    /// Whole passes a run of `seconds` measures.
    #[must_use]
    fn passes(seconds: u64) -> usize {
        ((seconds as f64 / Self::PASS_SECONDS).round() as usize).max(Self::MIN_PASSES)
    }
}

/// What a traced (decomposed) pass of one workload yields.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans around every layer call.
    pub spans: Vec<Span>,
    /// Counts and ratios by per-layer metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Checks of the decomposed outputs against the untraced ones.
    pub checker: Checker,
    /// Ops per host second of the decomposed (traced) ops.
    pub traced_ops_per_s: f64,
    /// Ops per host second of the same ops run untraced.
    pub untraced_ops_per_s: f64,
}

/// The suite version a chip was submitted under.
#[must_use]
pub fn suite_version(chip: ChipId) -> SuiteVersion {
    match chip.generation() {
        Generation::V0_7 => SuiteVersion::V0_7,
        Generation::V1_0 => SuiteVersion::V1_0,
    }
}

/// `num / den`, or 0 when nothing was attempted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Worker(usize),
    TraceChild,
}

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    mode: Mode,
}

/// The workloads, in the order a traced run covers them.
const WORKLOADS: [&str; 3] = ["suite", "fleet", "tune"];

const USAGE: &str = "usage: perfbench --workload suite|fleet|tune --seed N --seconds S --trace 0|1
       (--trace 1 traces every workload; --workload is then optional and unused)";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut mode = Mode::Run;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                });
            }
            "--worker" => {
                mode = Mode::Worker(value()?.parse().map_err(|e| format!("--worker: {e}"))?)
            }
            "--trace-child" => mode = Mode::TraceChild,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let trace = trace.ok_or("--trace is required")?;
    let workload = match workload {
        Some(w) if WORKLOADS.contains(&w.as_str()) => w,
        Some(w) => return Err(format!("unknown workload {w:?}")),
        None if trace && mode == Mode::Run => "all".to_owned(),
        None => return Err("--workload is required".into()),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        mode,
    })
}

/// Peak resident memory of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs this program again with `extra` flags and waits for it; returns
/// its stdout.
fn child(args: &Args, workload: &str, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {extra:?} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{extra:?} child for {workload} failed: {}",
            out.status
        ));
    }
    Ok(stdout)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(checker: &Checker, metrics: &[(String, f64, &str)]) -> Result<String, String> {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checker.correct(),
        checker.attempted,
        checker.failed
    ))
}

/// What one worker process measured.
#[derive(Debug, Default)]
struct WorkerOut {
    setup_s: f64,
    setup_digest: String,
    counts_digest: String,
    rss_mb: f64,
    samples: Vec<f64>,
    busy_s: f64,
    completed: u64,
    attempted: u64,
    failed: u64,
}

/// `--worker k`: one cold set-up, then this worker's share of the whole
/// passes, every op timed and checked; reports `@` lines.
fn worker<W: Workload>(args: &Args, k: usize, workers: usize) -> Result<(), String> {
    let t = Instant::now();
    let mut w = W::setup(args.seed, workers)?;
    let setup_s = t.elapsed().as_secs_f64();
    let total = W::passes(args.seconds);
    let passes = total / WORKER_PROCESSES + usize::from(k < total % WORKER_PROCESSES);
    let mut checker = Checker::default();
    let mut samples = Vec::with_capacity(passes * w.ops_per_pass());
    let mut busy = Duration::ZERO;
    let mut completed = 0u64;
    let mut repeat = RepeatCounts::default();
    for pass in 0..passes {
        w.begin_pass();
        for i in 0..w.ops_per_pass() {
            let before = metrics().snapshot();
            let started = Instant::now();
            let out = guarded(|| w.op(i));
            let elapsed = started.elapsed();
            let delta = metrics().snapshot().since(&before);
            busy += elapsed;
            samples.push(elapsed.as_secs_f64() * 1e3);
            let outcome = out.and_then(|o| {
                let mut counts = Counts::of_delta(&delta);
                w.check(i, o, &mut counts)?;
                repeat.check(i, counts)
            });
            completed += u64::from(outcome.is_ok());
            checker.record(
                format_args!("{} worker {k} pass {pass} op {i}", args.workload),
                outcome,
            );
        }
    }
    let rss = peak_rss_mb()?;
    println!("@setup {setup_s:?} {:016x}", w.setup_digest());
    println!("@counts {:016x}", repeat.digest());
    println!("@rss {rss:?}");
    println!("@busy {:?} {completed}", busy.as_secs_f64());
    println!("@check {} {}", checker.attempted, checker.failed);
    let mut line = String::from("@samples");
    for ms in &samples {
        let _ = write!(line, " {ms:?}");
    }
    println!("{line}");
    Ok(())
}

fn parse_worker(stdout: &str) -> Result<WorkerOut, String> {
    let mut out = WorkerOut::default();
    let num = |v: Option<&str>| -> Result<f64, String> {
        v.ok_or("missing field")?
            .parse::<f64>()
            .map_err(|e| format!("worker output: {e}"))
    };
    for line in stdout.lines() {
        let mut f = line.split(' ');
        match f.next() {
            Some("@setup") => {
                out.setup_s = num(f.next())?;
                out.setup_digest = f.next().ok_or("missing set-up digest")?.to_owned();
            }
            Some("@counts") => {
                out.counts_digest = f.next().ok_or("missing counts digest")?.to_owned()
            }
            Some("@rss") => out.rss_mb = num(f.next())?,
            Some("@busy") => {
                out.busy_s = num(f.next())?;
                out.completed = num(f.next())? as u64;
            }
            Some("@check") => {
                out.attempted = num(f.next())? as u64;
                out.failed = num(f.next())? as u64;
            }
            Some("@samples") => out.samples = f.map(|v| num(Some(v))).collect::<Result<_, _>>()?,
            _ => {}
        }
    }
    if out.samples.is_empty() {
        return Err("worker reported no samples".into());
    }
    Ok(out)
}

/// `--trace 0`: [`WORKER_PROCESSES`] worker processes, one after
/// another, each with its own set-up and share of the passes; their
/// samples are pooled.
fn timed<W: Workload>(args: &Args, workers: usize) -> Result<String, String> {
    let mut outs = Vec::with_capacity(WORKER_PROCESSES);
    for k in 0..WORKER_PROCESSES {
        outs.push(parse_worker(&child(
            args,
            &args.workload,
            &["--worker", &k.to_string()],
        )?)?);
    }
    let mut checker = Checker::default();
    for (k, o) in outs.iter().enumerate() {
        checker.merge(o.attempted, o.failed);
        if k > 0 {
            let first = &outs[0];
            let same = if (&o.setup_digest, &o.counts_digest)
                == (&first.setup_digest, &first.counts_digest)
            {
                Ok(())
            } else {
                Err(format!(
                    "set-up/counts digests {}/{} != worker 0's {}/{}",
                    o.setup_digest, o.counts_digest, first.setup_digest, first.counts_digest
                ))
            };
            checker.record(
                format_args!("{} worker {k} repeats worker 0", args.workload),
                same,
            );
        }
    }
    W::final_checks(workers, &mut checker);

    let samples: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.samples.iter().copied())
        .collect();
    let s = Summary::of(&samples).ok_or("too few ops for a tail: raise --seconds")?;
    let setups: Vec<f64> = outs.iter().map(|o| o.setup_s).collect();
    let rss: Vec<f64> = outs.iter().map(|o| o.rss_mb).collect();
    let (setup_s, rss_mb) = (stats::median(&setups), stats::median(&rss));
    let busy: f64 = outs.iter().map(|o| o.busy_s).sum();
    let completed: u64 = outs.iter().map(|o| o.completed).sum();
    let ops_per_s = completed as f64 / busy;
    println!(
        "{} seed {}: {} worker processes, {} passes on {workers} threads, {} ops checked, {} failed",
        args.workload,
        args.seed,
        WORKER_PROCESSES,
        W::passes(args.seconds),
        checker.attempted,
        checker.failed
    );
    println!("  setup_s     {setup_s:.4} (median of {setups:.4?})");
    println!("  ops_per_s   {ops_per_s:.3} ({completed} passing ops in {busy:.3} s of ops)");
    println!("  op_ms_p50   {:.3} (n={})", s.p50, s.n);
    println!(
        "  op_ms_tail  {:.3} (p{:.2}: {} of n={} beyond)",
        s.tail,
        s.tail_pct,
        stats::TAIL_BEYOND,
        s.n
    );
    println!("  peak_rss_mb {rss_mb:.2} (median of {rss:.2?})");
    result_json(
        &checker,
        &[
            ("ops_per_s".into(), ops_per_s, "1/s"),
            ("op_ms_p50".into(), s.p50, "ms"),
            ("op_ms_tail".into(), s.tail, "ms"),
            ("setup_s".into(), setup_s, "s"),
            ("peak_rss_mb".into(), rss_mb, "MB"),
        ],
    )
}

/// `--trace-child`: one decomposed pass of one workload; prints the
/// layer table and `@metric`/`@check` lines, and writes the spans.
fn trace_child(args: &Args, workers: usize) -> Result<(), String> {
    let (trace, layers) = match args.workload.as_str() {
        "suite" => (suite::traced(args.seed, workers)?, suite::LAYERS),
        "fleet" => (fleet::traced(args.seed, workers)?, fleet::LAYERS),
        _ => (tune::traced(args.seed, workers)?, tune::LAYERS),
    };
    let totals = spans::totals(&trace.spans);
    println!(
        "{} seed {}: {} spans",
        args.workload,
        args.seed,
        trace.spans.len()
    );
    println!(
        "  {:<36} {:>8} {:>14} {:>14}",
        "span", "count", "inclusive ms", "self ms"
    );
    for (name, t) in &totals {
        println!(
            "  {name:<36} {:>8} {:>14.3} {:>14.3}",
            t.count, t.inclusive_ms, t.self_ms
        );
    }
    let overhead = (ratio(trace.untraced_ops_per_s, trace.traced_ops_per_s) - 1.0) * 100.0;
    println!(
        "  tracing overhead {overhead:.2}% (traced {:.4} ops/s, untraced {:.4} ops/s)",
        trace.traced_ops_per_s, trace.untraced_ops_per_s
    );
    std::fs::create_dir_all(SPANS_DIR).map_err(|e| format!("{SPANS_DIR}: {e}"))?;
    let path = format!("{SPANS_DIR}/{}-seed{}.spans.json", args.workload, args.seed);
    std::fs::write(&path, spans::to_json(&trace.spans)).map_err(|e| format!("{path}: {e}"))?;
    for &(name, unit) in layers {
        let value = if name == "trace_overhead_pct" {
            overhead
        } else if name.ends_with("_ms") {
            totals
                .get(name)
                .ok_or_else(|| format!("layer {name} was never traced"))?
                .self_ms
        } else {
            *trace
                .values
                .get(name)
                .ok_or_else(|| format!("layer metric {name} was not measured"))?
        };
        println!("@metric {}.{name} {value:?} {unit}", args.workload);
    }
    println!(
        "@check {} {}",
        trace.checker.attempted, trace.checker.failed
    );
    Ok(())
}

/// `--trace 1`: one traced child per workload, whatever `--workload`
/// names, so every per-layer metric is measured in every traced run and
/// each workload keeps its own process-global caches.
fn traced(args: &Args) -> Result<String, String> {
    let mut checker = Checker::default();
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        for line in child(args, workload, &["--trace-child"])?.lines() {
            if let Some(m) = line.strip_prefix("@metric ") {
                let mut parts = m.split(' ');
                let (Some(name), Some(value), Some(unit)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    return Err(format!("malformed metric line {line:?}"));
                };
                let value = value.parse::<f64>().map_err(|e| format!("{name}: {e}"))?;
                let unit = match unit {
                    "ms" => "ms",
                    "count" => "count",
                    "ratio" => "ratio",
                    "%" => "%",
                    other => return Err(format!("unexpected unit {other:?}")),
                };
                metrics.push((name.to_owned(), value, unit));
            } else if let Some(c) = line.strip_prefix("@check ") {
                let (a, f) = c.split_once(' ').ok_or("malformed check line")?;
                checker.merge(
                    a.parse().map_err(|e| format!("check line: {e}"))?,
                    f.parse().map_err(|e| format!("check line: {e}"))?,
                );
            } else {
                println!("{line}");
            }
        }
    }
    result_json(&checker, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MAX_WORKERS);
    // The program's internal pools size themselves from this; set before
    // any thread starts.
    std::env::set_var("MLPERF_WORKERS", workers.to_string());
    let run = || -> Result<(), String> {
        match (args.mode, args.workload.as_str()) {
            (Mode::Worker(k), "suite") => worker::<suite::Suite>(&args, k, workers),
            (Mode::Worker(k), "fleet") => worker::<fleet::Fleet>(&args, k, workers),
            (Mode::Worker(k), _) => worker::<tune::Tune>(&args, k, workers),
            (Mode::TraceChild, _) => trace_child(&args, workers),
            (Mode::Run, w) => {
                let line = if args.trace {
                    traced(&args)?
                } else {
                    match w {
                        "suite" => timed::<suite::Suite>(&args, workers)?,
                        "fleet" => timed::<fleet::Fleet>(&args, workers)?,
                        _ => timed::<tune::Tune>(&args, workers)?,
                    }
                };
                println!("{line}");
                Ok(())
            }
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_counts_a_failed_check_and_refuses_non_finite_values() {
        let mut c = Checker::default();
        c.record("op 0", Ok(()));
        c.record("op 1", Err("score bytes differ".into()));
        let line = result_json(&c, &[("op_ms_p50".into(), 1.5, "ms")]).unwrap();
        assert_eq!(
            line,
            r#"{"correct": false, "attempted": 2, "failed": 1, "metrics": {"op_ms_p50": {"value": 1.5, "unit": "ms"}}}"#
        );
        assert!(result_json(&c, &[("op_ms_p50".into(), f64::NAN, "ms")]).is_err());
    }
}
