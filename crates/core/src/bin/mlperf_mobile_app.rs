//! `mlperf-mobile-app` — the headless benchmark application.
//!
//! The paper's Section 4.3: "For laptops, submitters can build a native
//! command-line application... The number of samples necessary for
//! performance mode and for accuracy mode remains identical to the number
//! in the smartphone scenario. The only difference is the absence of a
//! graphical user interface." This is that application, for simulated
//! devices.
//!
//! ```sh
//! cargo run --release -p mlperf-mobile --bin mlperf-mobile-app -- \
//!     --chip dimensity-1100 --version v1.0 --scale 512 --offline
//! cargo run --release -p mlperf-mobile --bin mlperf-mobile-app -- --list
//! cargo run --release -p mlperf-mobile --bin mlperf-mobile-app -- \
//!     --fleet 100000 --fleet-seed 7
//! ```

use mlperf_mobile::app::{run_suite, AppConfig};
use mlperf_mobile::fleet::{fleet_report_text, FleetConfig};
use mlperf_mobile::harness::RunRules;
use mlperf_mobile::runner::CompileCache;
use mlperf_mobile::report::format_report;
use mlperf_mobile::sut_impl::DatasetScale;
use mlperf_mobile::task::SuiteVersion;
use mobile_backend::tune::TunerConfig;
use soc_sim::catalog::ChipId;
use std::process::ExitCode;

fn chip_slug(chip: ChipId) -> String {
    chip.to_string()
        .to_lowercase()
        .replace('+', "-plus")
        .replace(' ', "-")
        .replace("--", "-")
}

fn chip_by_slug(slug: &str) -> Option<ChipId> {
    ChipId::ALL.into_iter().find(|&c| chip_slug(c) == slug.to_lowercase())
}

fn usage() -> &'static str {
    "usage: mlperf-mobile-app [--list] [--chip <slug>] [--version v0.7|v1.0]\n\
     \u{20}                       [--scale <n>|full] [--offline] [--scenarios]\n\
     \u{20}                       [--ambient <degC>] [--battery <0..1>]\n\
     \u{20}                       [--fleet <n>] [--fleet-seed <s>]\n\
     \u{20}                       [--tune [latency|energy]]\n\
     \n\
     --list       print the device catalog and exit\n\
     --chip       device slug (default dimensity-1100)\n\
     --version    suite version (default matches the chip's generation)\n\
     --scale      validation-set size per task, or 'full' (default 2048;\n\
     \u{20}             reduced sets add sampling noise near the tight gates)\n\
     --offline    also run the offline scenario for classification\n\
     --scenarios  also run the server and multi-stream searches for\n\
     \u{20}             classification (the full four-scenario matrix)\n\
     --ambient    room temperature in [-40, 85] degC; the rules require\n\
     \u{20}             20-25 degC\n\
     --battery    initial state of charge (default 1.0 = full, per rules)\n\
     --fleet      instead of one lab run, sweep a simulated field\n\
     \u{20}             population of <n> devices across the whole catalog\n\
     \u{20}             and report population latency/energy percentiles\n\
     --fleet-seed sampling seed for --fleet (default 7); the report is\n\
     \u{20}             byte-identical for a given seed and size\n\
     --tune       auto-tune every schedule before running: beam search\n\
     \u{20}             with branch-and-bound pruning over per-op engine\n\
     \u{20}             assignments, seeded with the vendor heuristic\n\
     \u{20}             (objective defaults to latency)"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut chip = ChipId::Dimensity1100;
    let mut version: Option<SuiteVersion> = None;
    let mut scale = DatasetScale::Reduced(2048);
    let mut offline = false;
    let mut scenarios = false;
    let mut rules = RunRules::default();
    let mut fleet: Option<u64> = None;
    let mut fleet_seed = 7u64;
    let mut tuner: Option<TunerConfig> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                println!("device catalog:");
                for c in ChipId::ALL {
                    let soc = c.build();
                    println!(
                        "  {:24} {} ({}, {})",
                        chip_slug(c),
                        soc,
                        c.generation(),
                        if soc.is_laptop { "laptop" } else { "smartphone" },
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--chip" => {
                i += 1;
                let Some(slug) = args.get(i) else {
                    eprintln!("{}", usage());
                    return ExitCode::from(2);
                };
                match chip_by_slug(slug) {
                    Some(c) => chip = c,
                    None => {
                        eprintln!("unknown chip {slug:?}; try --list");
                        return ExitCode::from(2);
                    }
                }
            }
            "--version" => {
                i += 1;
                version = match args.get(i).map(String::as_str) {
                    Some("v0.7") => Some(SuiteVersion::V0_7),
                    Some("v1.0") => Some(SuiteVersion::V1_0),
                    _ => {
                        eprintln!("--version takes v0.7 or v1.0");
                        return ExitCode::from(2);
                    }
                };
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("full") => DatasetScale::Full,
                    Some(n) => match n.parse::<usize>() {
                        Ok(n) if n > 0 => DatasetScale::Reduced(n),
                        _ => {
                            eprintln!("--scale takes a positive integer or 'full'");
                            return ExitCode::from(2);
                        }
                    },
                    None => {
                        eprintln!("{}", usage());
                        return ExitCode::from(2);
                    }
                };
            }
            "--offline" => offline = true,
            "--scenarios" => scenarios = true,
            "--ambient" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    // Finite and physical: the thermal model is only
                    // meaningful for rooms a phone can operate in.
                    Some(t) if (-40.0..=85.0).contains(&t) => rules.ambient_c = t,
                    _ => {
                        eprintln!("--ambient takes a temperature in degC within [-40, 85]");
                        return ExitCode::from(2);
                    }
                }
            }
            "--battery" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(b) if (0.0..=1.0).contains(&b) => rules.battery_soc = Some(b),
                    _ => {
                        eprintln!("--battery takes a state of charge in [0, 1]");
                        return ExitCode::from(2);
                    }
                }
            }
            "--fleet" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) if n > 0 => fleet = Some(n),
                    _ => {
                        eprintln!("--fleet takes a positive device count");
                        return ExitCode::from(2);
                    }
                }
            }
            "--fleet-seed" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(s) => fleet_seed = s,
                    None => {
                        eprintln!("--fleet-seed takes an integer seed");
                        return ExitCode::from(2);
                    }
                }
            }
            "--tune" => {
                // The objective argument is optional: a following word
                // that is not a flag selects it, default latency.
                tuner = Some(match args.get(i + 1).map(String::as_str) {
                    Some("latency") => {
                        i += 1;
                        TunerConfig::latency()
                    }
                    Some("energy") => {
                        i += 1;
                        TunerConfig::energy()
                    }
                    Some(word) if !word.starts_with("--") => {
                        eprintln!("--tune takes 'latency' or 'energy'");
                        return ExitCode::from(2);
                    }
                    _ => TunerConfig::latency(),
                });
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other:?}\n{}", usage());
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    if let Some(devices) = fleet {
        let cache = CompileCache::new();
        let config = FleetConfig::new(devices, fleet_seed);
        return match fleet_report_text(&cache, &config) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("fleet sweep failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let version = version.unwrap_or(match chip.generation() {
        soc_sim::catalog::Generation::V0_7 => SuiteVersion::V0_7,
        soc_sim::catalog::Generation::V1_0 => SuiteVersion::V1_0,
    });
    if !rules.ambient_compliant() {
        eprintln!(
            "warning: ambient {:.1} degC is outside the 20-25 degC run rules; \
             the result will not be a valid submission",
            rules.ambient_c
        );
    }
    let config = AppConfig { rules, offline_classification: offline, scenario_matrix: scenarios, tuner };
    if let Some(cfg) = &tuner {
        println!(
            "schedule auto-tuning enabled: {} objective, beam width {}",
            cfg.objective, cfg.beam_width
        );
    }
    println!("running MLPerf Mobile {version} on {chip} ...");
    match run_suite(chip, version, &config, scale) {
        Ok(report) => {
            print!("{}", format_report(&report));
            for s in &report.scores {
                if let (Some(srv), Some(ms)) = (&s.server, &s.multi_stream) {
                    println!(
                        "scenarios: {} server max {:.1} QPS (p90 <= {:.2} ms) | \
                         multi-stream {} streams per {:.0} ms frame",
                        s.def.task,
                        srv.max_qps,
                        srv.target_latency_ns as f64 / 1e6,
                        ms.streams,
                        ms.interval_ns as f64 / 1e6,
                    );
                }
                if s.power_saving_entered {
                    println!(
                        "note: {} ran in battery power-saving mode — recharge and rerun",
                        s.def.task
                    );
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
