//! `reproduce` — regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p mlperf-bench --bin reproduce            # everything
//! cargo run --release -p mlperf-bench --bin reproduce -- table3  # one artifact
//! cargo run --release -p mlperf-bench --bin reproduce -- all --trace out/
//! cargo run --release -p mlperf-bench --bin reproduce -- all --profile out/
//! cargo run --release -p mlperf-bench --bin reproduce -- explain out/table3.json
//! ```
//!
//! `reproduce all` (or `reproduce` with no argument) also writes
//! `BENCH_suite.json` to the current directory: the wall-clock spent on
//! each artifact plus the shared compile-cache hit/miss counters, so perf
//! regressions in the sweep are visible run over run.
//!
//! With `--trace <dir>`, per-query run tracing is switched on and one JSON
//! trace file per artifact is written to `<dir>`: the artifact's
//! wall-clock, its metrics-registry delta (compile cache, run/query
//! counts, throttle statistics), per-spec wall-clock timings, and the full
//! [`mlperf_mobile::BenchmarkTrace`] of every harness run the artifact
//! made. Tracing never changes the printed reports.
//!
//! `--profile <dir>` implies `--trace <dir>` and additionally writes, per
//! artifact, `<artifact>.perfetto.json` (a Chrome/Perfetto trace-event
//! timeline — open it in `ui.perfetto.dev`) and `<artifact>.profile.txt`
//! (the per-cell engine-utilization/DVFS/energy report plus a
//! Prometheus-style exposition of the metrics delta).
//!
//! `explain <trace.json>` re-renders the profile report offline from a
//! previously written trace file — no benchmark runs.
//!
//! `--self-profile <dir>` profiles the *harness itself*: wall-clock
//! suite → cell → phase spans of real host execution are recorded into
//! per-thread ring buffers and written as `<dir>/self_profile.perfetto.json`
//! (one timeline track per runner-pool worker) plus
//! `<dir>/self_profile.txt` (phase totals, main-track coverage, the pool
//! report). `--serve <addr>` starts the live observability endpoint
//! (`/metrics`, `/healthz`, `/runs`) for the duration of the run;
//! `--serve-addr-file <path>` writes the bound address (useful with
//! `:0`), and `--serve-hold-ms <n>` keeps serving that long after the
//! artifacts finish so scrapers can catch a short run. None of these
//! change any printed report or score.

use mlperf_mobile::metrics::metrics;
use mlperf_mobile::obs;
use mlperf_mobile::profile::{benchmark_perfetto_json, ArtifactTrace};
use serde::Serialize;
use std::env;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Wall-clock for one artifact, as recorded in `BENCH_suite.json`.
#[derive(Serialize)]
struct ArtifactTiming {
    name: &'static str,
    wall_ms: f64,
}

/// Compile-cache counters accumulated over the whole `all` sweep.
#[derive(Serialize)]
struct CacheStats {
    hits: usize,
    misses: usize,
}

/// Per-sub-report wall-clock inside the `ablations` artifact.
#[derive(Serialize)]
struct AblationTiming {
    name: String,
    wall_ms: f64,
}

/// The `BENCH_suite.json` schema.
#[derive(Serialize)]
struct SuiteTimings {
    artifacts: Vec<ArtifactTiming>,
    /// Wall-clock of each sub-report inside the `ablations` artifact
    /// (sync/merge/sticky/interconnect/batch sweeps, tax, extensions,
    /// power), in report order.
    ablation_breakdown: Vec<AblationTiming>,
    total_wall_ms: f64,
    compile_cache: CacheStats,
    /// Sweep-engine cache counters (delta re-lowerings, schedule-equality
    /// estimate reuse, shared accuracy scores) over the whole sweep.
    sweep_cache: CacheStats,
}

/// An artifact name and its generator.
type Artifact = (&'static str, fn() -> String);

/// Every artifact, in report order. The closure indirection keeps the
/// timing loop uniform.
const ARTIFACTS: &[Artifact] = &[
    ("table1", mlperf_bench::table1),
    ("table2", mlperf_bench::table2),
    ("table3", mlperf_bench::table3),
    ("table4", mlperf_bench::table4),
    ("figure6", mlperf_bench::figure6),
    ("figure7", mlperf_bench::figure7),
    ("offline", mlperf_bench::offline_throughput),
    ("laptop", mlperf_bench::laptop),
    ("codepaths", mlperf_bench::codepaths),
    ("scenarios", mlperf_bench::scenarios),
    ("insights", mlperf_bench::all_insights),
    ("ablations", mlperf_bench::all_ablations),
];

fn generator_for(which: &str) -> Option<fn() -> String> {
    match which {
        "endtoend" => Some(mlperf_bench::end_to_end_tax),
        "extensions" => Some(mlperf_bench::extensions_report),
        "power" => Some(mlperf_bench::power_report),
        "fleet" => Some(mlperf_bench::fleet),
        "tuning" => Some(mlperf_bench::tuning),
        _ => ARTIFACTS.iter().find(|(name, _)| *name == which).map(|&(_, f)| f),
    }
}

fn write_file(path: &Path, contents: &str, what: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {} ({what})", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Runs one artifact generator and, when tracing, writes its trace file:
/// the metrics delta across the call, the per-spec wall-clock entries it
/// queued, and every harness trace it deposited in the sink. In profile
/// mode the Perfetto timeline and the rendered profile report are written
/// alongside.
fn run_artifact(name: &str, f: fn() -> String, out: Option<(&Path, bool)>) -> (String, f64) {
    // One suite-level span per artifact; covers the generator and the
    // trace-file writes so the self-profile accounts the full wall-clock.
    let _suite_span = obs::span::span(obs::span::Phase::Suite, || name.to_owned());
    let before = metrics().snapshot();
    let pool_before = obs::pool::pool().snapshot();
    let t = Instant::now();
    let text = f();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    if let Some((dir, profile)) = out {
        let artifact = ArtifactTrace {
            artifact: name.to_owned(),
            wall_ms,
            metrics: metrics().snapshot().since(&before),
            spec_timings: metrics().take_spec_timings(),
            pool: obs::pool::pool().snapshot().since(&pool_before),
            runs: mlperf_bench::trace_sink().map(|sink| sink.drain()).unwrap_or_default(),
        };
        let path = dir.join(format!("{name}.json"));
        match std::fs::write(&path, artifact.to_json() + "\n") {
            Ok(()) => eprintln!("wrote {} ({} traced runs)", path.display(), artifact.runs.len()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        if profile {
            write_file(
                &dir.join(format!("{name}.perfetto.json")),
                &benchmark_perfetto_json(&artifact.runs),
                "perfetto timeline",
            );
            write_file(
                &dir.join(format!("{name}.profile.txt")),
                &artifact.render(),
                "profile report",
            );
        }
    }
    (text, wall_ms)
}

fn run_all(out: Option<(&Path, bool)>) -> String {
    let mut text = String::new();
    let mut timings = Vec::new();
    let total = Instant::now();
    for (name, f) in ARTIFACTS {
        let (artifact_text, wall_ms) = run_artifact(name, *f, out);
        text.push_str(&artifact_text);
        text.push('\n');
        timings.push(ArtifactTiming { name, wall_ms });
    }
    let total_ms = total.elapsed().as_secs_f64() * 1e3;
    let _report_span =
        obs::span::span(obs::span::Phase::Report, || "BENCH_suite.json".to_owned());
    let cache = mlperf_bench::cache();
    let sweep = metrics().snapshot();
    let suite_json = SuiteTimings {
        artifacts: timings,
        ablation_breakdown: mlperf_bench::take_ablation_breakdown()
            .into_iter()
            .map(|(name, wall_ms)| AblationTiming { name, wall_ms })
            .collect(),
        total_wall_ms: total_ms,
        compile_cache: CacheStats { hits: cache.hits(), misses: cache.misses() },
        sweep_cache: CacheStats { hits: sweep.sweep_hits, misses: sweep.sweep_misses },
    };
    match std::fs::write(
        "BENCH_suite.json",
        serde_json::to_string_pretty(&suite_json).expect("serializes") + "\n",
    ) {
        Ok(()) => eprintln!(
            "wrote BENCH_suite.json ({total_ms:.0} ms total, compile cache {} hits / {} misses)",
            cache.hits(),
            cache.misses()
        ),
        Err(e) => eprintln!("could not write BENCH_suite.json: {e}"),
    }
    text
}

/// `explain <trace.json>`: parse a previously written per-artifact trace
/// file and re-render its profile report.
fn explain(path: &str) -> String {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("could not read {path}: {e}");
            std::process::exit(1);
        }
    };
    match ArtifactTrace::from_json(&text) {
        Ok(bundle) => bundle.render(),
        Err(e) => {
            eprintln!("{path} is not a reproduce trace file: {e}");
            std::process::exit(1);
        }
    }
}

/// Drains the recorded harness spans and writes the self-profile pair:
/// the Perfetto timeline of the host run and a plain-text summary with
/// per-phase totals, main-track coverage of `wall_ns`, and the pool
/// report.
fn write_self_profile(dir: &Path, wall_ns: u64) {
    use std::fmt::Write as _;
    obs::span::set_enabled(false);
    let profile = obs::span::drain();
    write_file(
        &dir.join("self_profile.perfetto.json"),
        &obs::span::self_profile_perfetto_json(&profile),
        "harness timeline",
    );
    let coverage = profile.track_coverage(obs::span::MAIN_TRACK, wall_ns) * 100.0;
    let mut text = format!(
        "harness self-profile ({:.2} ms wall)\n\
         main-track span coverage: {coverage:.1}%\n\
         spans: {} recorded, {} dropped\n",
        wall_ns as f64 / 1e6,
        profile.spans.len(),
        profile.dropped,
    );
    let _ = writeln!(text, "  {:<14} {:>7} {:>12}", "phase", "spans", "total_ms");
    for phase in [
        obs::span::Phase::Suite,
        obs::span::Phase::Cell,
        obs::span::Phase::Compile,
        obs::span::Phase::Calibrate,
        obs::span::Phase::Plan,
        obs::span::Phase::Execute,
        obs::span::Phase::SearchProbe,
        obs::span::Phase::Report,
    ] {
        let _ = writeln!(
            text,
            "  {:<14} {:>7} {:>12.3}",
            phase.name(),
            profile.phase_spans(phase).count(),
            profile.phase_total_ns(phase) as f64 / 1e6,
        );
    }
    text.push('\n');
    text.push_str(&obs::pool::pool_report(&obs::pool::pool().snapshot(), &metrics().snapshot()));
    write_file(&dir.join("self_profile.txt"), &text, "harness profile summary");
    eprintln!("self-profile: {coverage:.1}% of wall-clock covered by main-track spans");
}

fn usage_exit() -> ! {
    eprintln!(
        "usage: reproduce [ARTIFACT] [--trace DIR] [--profile DIR] [--self-profile DIR]\n\
         \x20      [--serve ADDR] [--serve-addr-file PATH] [--serve-hold-ms N]\n\
         \x20      reproduce explain <trace.json>\n\
         artifacts: table1 table2 table3 table4 figure6 figure7 offline laptop \
         codepaths scenarios insights ablations endtoend extensions power fleet tuning all"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("explain") {
        let Some(path) = args.get(1) else {
            eprintln!("explain requires a trace-file argument");
            usage_exit();
        };
        if args.len() > 2 {
            eprintln!("unexpected argument {:?}", args[2]);
            usage_exit();
        }
        println!("{}", explain(path));
        return;
    }

    let mut which: Option<String> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut profile = false;
    let mut self_profile_dir: Option<PathBuf> = None;
    let mut serve_addr: Option<String> = None;
    let mut serve_addr_file: Option<PathBuf> = None;
    let mut serve_hold_ms: u64 = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--trace" || arg == "--profile" {
            let Some(dir) = it.next() else {
                eprintln!("{arg} requires a directory argument");
                usage_exit();
            };
            out_dir = Some(PathBuf::from(dir));
            profile |= arg == "--profile";
        } else if arg == "--self-profile" {
            let Some(dir) = it.next() else {
                eprintln!("--self-profile requires a directory argument");
                usage_exit();
            };
            self_profile_dir = Some(PathBuf::from(dir));
        } else if arg == "--serve" {
            let Some(addr) = it.next() else {
                eprintln!("--serve requires an address argument (e.g. 127.0.0.1:0)");
                usage_exit();
            };
            serve_addr = Some(addr.clone());
        } else if arg == "--serve-addr-file" {
            let Some(path) = it.next() else {
                eprintln!("--serve-addr-file requires a path argument");
                usage_exit();
            };
            serve_addr_file = Some(PathBuf::from(path));
        } else if arg == "--serve-hold-ms" {
            let Some(n) = it.next().and_then(|n| n.parse().ok()) else {
                eprintln!("--serve-hold-ms requires an integer argument");
                usage_exit();
            };
            serve_hold_ms = n;
        } else if which.is_none() {
            which = Some(arg.clone());
        } else {
            eprintln!("unexpected argument {arg:?}");
            usage_exit();
        }
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("could not create trace directory {}: {e}", dir.display());
            std::process::exit(1);
        }
        mlperf_bench::enable_tracing();
    }
    if let Some(dir) = &self_profile_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("could not create self-profile directory {}: {e}", dir.display());
            std::process::exit(1);
        }
        obs::span::set_enabled(true);
        obs::span::set_track(obs::span::MAIN_TRACK);
    }
    let server = serve_addr.map(|addr| match obs::ObsServer::start(&addr) {
        Ok(server) => {
            eprintln!("serving /metrics /healthz /runs on http://{}", server.addr());
            if let Some(path) = &serve_addr_file {
                write_file(path, &format!("{}\n", server.addr()), "bound address");
            }
            server
        }
        Err(e) => {
            eprintln!("could not bind {addr}: {e}");
            std::process::exit(1);
        }
    });
    let out = out_dir.as_deref().map(|d| (d, profile));

    let which = which.unwrap_or_else(|| "all".to_owned());
    let profiled = Instant::now();
    let text = if which == "all" {
        run_all(out)
    } else if let Some(f) = generator_for(&which) {
        run_artifact(&which, f, out).0
    } else {
        eprintln!("unknown artifact {which:?}");
        usage_exit();
    };
    let wall_ns = u64::try_from(profiled.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if let Some(dir) = &self_profile_dir {
        write_self_profile(dir, wall_ns);
    }
    if let Some(mut server) = server {
        if serve_hold_ms > 0 {
            eprintln!("holding the observability endpoint for {serve_hold_ms} ms");
            std::thread::sleep(std::time::Duration::from_millis(serve_hold_ms));
        }
        server.stop();
    }
    println!("{text}");
}
