//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro                      # all targets, quick scale
//! repro fig2a fig5 table10   # selected targets
//! repro --paper fig2a        # paper-scale run (slow)
//! repro --seed 1234 fig6     # alternate scenario seed
//! repro --workers 8 fig7     # parallel run (same output, any count)
//! repro --workers auto fig7  # one worker per hardware thread
//! repro --trace t.jsonl fig6 # deterministic sim-time trace (JSONL)
//! repro --trace-chrome c.json fig6 # span-tree trace for chrome://tracing / Perfetto
//! repro --hist h.json fig6   # per-(PT, phase) latency histograms (JSON)
//! repro --metrics m.json fig6 # wall-clock metrics registry (JSON)
//! repro --profile fig6       # per-family profile table
//! repro --check-bench DIR    # gate fresh BENCH_*.json in DIR against committed baselines
//! repro --json-check FILE    # validate a JSON document (exit status only)
//! repro --bench flow         # page-load sharing benchmark → BENCH_flow.json
//! repro --bench establish    # establishment benchmark → BENCH_establish.json
//! repro --bench unit         # measurement-unit benchmark → BENCH_unit.json
//! repro --quiet / -v         # errors only / debug diagnostics
//! repro --list               # list targets
//! ```

use ptperf::executor::{ExecError, Parallelism, Record};
use ptperf::scenario::{FaultConfig, FaultProfile, Scenario};
use ptperf_bench::{
    available_targets, emit, establishbench, flowbench, obs_export, regress, run_target_obs,
    targets::export_csv_with, unitbench, RunScale, TargetRun,
};
use ptperf_obs::{obs_error, obs_info, set_level, Level};

/// The flags `main` takes out of the argument list, each once.
const PARSED_FLAGS: [&str; 15] = [
    "--quiet",
    "-v",
    "--verbose",
    "--paper",
    "--profile",
    "--faults",
    "--bench",
    "--bench-out",
    "--seed",
    "--workers",
    "--csv",
    "--trace",
    "--trace-chrome",
    "--hist",
    "--metrics",
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = RunScale::Quick;
    let mut seed = 42u64;
    let mut csv_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut trace_chrome_path: Option<String> = None;
    let mut hist_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut profile = false;
    let mut bench: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut faults = false;
    let mut par = Parallelism::sequential();

    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for t in available_targets() {
            println!("{t}");
        }
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--json-check") {
        if pos + 1 >= args.len() {
            obs_error!("--json-check requires a path");
            std::process::exit(2);
        }
        let path = &args[pos + 1];
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                obs_error!("--json-check: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = ptperf_obs::json::parse(&text) {
            obs_error!("--json-check: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--check-bench") {
        if pos + 1 >= args.len() {
            obs_error!("--check-bench requires a directory of fresh BENCH_*.json files");
            std::process::exit(2);
        }
        let fresh_dir = std::path::PathBuf::from(&args[pos + 1]);
        if let Err(e) = std::fs::read_dir(&fresh_dir) {
            obs_error!("--check-bench: cannot read {}: {e}", fresh_dir.display());
            std::process::exit(2);
        }
        let baseline_dir = std::path::PathBuf::from(".");
        let fail_mode = regress::fail_mode_from_env();
        let (report, gate) = regress::check_dirs(&baseline_dir, &fresh_dir, fail_mode);
        print!("{report}");
        if let Err(cause) = gate {
            obs_error!("bench regression gate failed: {cause}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--quiet") {
        set_level(Level::Error);
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "-v" || a == "--verbose") {
        set_level(Level::Debug);
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--paper") {
        scale = RunScale::Paper;
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--profile") {
        profile = true;
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--faults") {
        faults = true;
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--bench") {
        let Some(layer) = args.get(pos + 1) else {
            obs_error!("--bench requires a layer: flow, establish or unit");
            std::process::exit(2);
        };
        if !["flow", "establish", "unit"].contains(&layer.as_str()) {
            obs_error!("--bench: unknown layer '{layer}' (expected flow, establish or unit)");
            std::process::exit(2);
        }
        bench = Some(layer.clone());
        args.drain(pos..=pos + 1);
    }
    if let Some(pos) = args.iter().position(|a| a == "--bench-out") {
        if pos + 1 >= args.len() {
            obs_error!("--bench-out requires a path");
            std::process::exit(2);
        }
        bench_out = Some(args[pos + 1].clone());
        args.drain(pos..=pos + 1);
    }
    if let Some(pos) = args.iter().position(|a| a == "--seed") {
        if pos + 1 >= args.len() {
            obs_error!("--seed requires a value");
            std::process::exit(2);
        }
        seed = match args[pos + 1].parse() {
            Ok(s) => s,
            Err(_) => {
                obs_error!("--seed requires an integer, got '{}'", args[pos + 1]);
                std::process::exit(2);
            }
        };
        args.drain(pos..=pos + 1);
    }
    if let Some(pos) = args.iter().position(|a| a == "--workers") {
        if pos + 1 >= args.len() {
            obs_error!("--workers requires a count or 'auto'");
            std::process::exit(2);
        }
        par = if args[pos + 1] == "auto" {
            Parallelism::auto()
        } else {
            match args[pos + 1].parse::<usize>() {
                Ok(n) if n >= 1 => Parallelism::new(n),
                _ => {
                    obs_error!(
                        "--workers requires a positive integer or 'auto', got '{}'",
                        args[pos + 1]
                    );
                    std::process::exit(2);
                }
            }
        };
        args.drain(pos..=pos + 1);
    }
    for (flag, slot) in [
        ("--csv", &mut csv_dir),
        ("--trace", &mut trace_path),
        ("--trace-chrome", &mut trace_chrome_path),
        ("--hist", &mut hist_path),
        ("--metrics", &mut metrics_path),
    ] {
        if let Some(pos) = args.iter().position(|a| a == flag) {
            if pos + 1 >= args.len() {
                obs_error!("{flag} requires a path");
                std::process::exit(2);
            }
            *slot = Some(args[pos + 1].clone());
            args.drain(pos..=pos + 1);
        }
    }
    // What is left are targets, and no target starts with '-': a flag
    // left here was given twice, or is not one of repro's.
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        let kind = if PARSED_FLAGS.contains(&flag.as_str()) {
            "repeated"
        } else {
            "unknown"
        };
        obs_error!("{kind} flag '{flag}'; run `repro --help`");
        std::process::exit(2);
    }
    if bench_out.is_some() && bench.is_none() {
        obs_error!("--bench-out requires --bench");
        std::process::exit(2);
    }
    if trace_path.is_some()
        || trace_chrome_path.is_some()
        || hist_path.is_some()
        || metrics_path.is_some()
        || profile
    {
        par = par.with_recording(Record::Trace);
    }

    if let Some(layer) = bench {
        if let Some(extra) = args.first() {
            obs_error!("--bench runs one layer and takes no targets, got '{extra}'");
            std::process::exit(2);
        }
        run_bench(&layer, bench_out);
        return;
    }
    let targets: Vec<String> = if args.is_empty() {
        available_targets().iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    for t in &targets {
        if !available_targets().contains(&t.as_str()) {
            obs_error!("unknown target '{t}'; run `repro --list`");
            std::process::exit(2);
        }
    }

    let mut scenario = Scenario::baseline(seed);
    if faults {
        scenario = scenario.with_faults(FaultConfig::Plan(FaultProfile::paper()));
    }
    println!(
        "# PTPerf reproduction — scale: {:?}, seed: {seed}, workers: {}, scenario: client {} / servers {}, faults: {}\n",
        scale,
        par.workers,
        scenario.client,
        scenario.server_region,
        if faults { "paper plan" } else { "off" }
    );
    let run_started = std::time::Instant::now();
    let mut runs: Vec<TargetRun> = Vec::new();
    for t in targets {
        let started = std::time::Instant::now();
        let run = ok_or_exit(&t, run_target_obs(&t, &scenario, scale, &par));
        println!("==================== {t} ====================");
        println!("{}", run.text);
        if let Some(dir) = &csv_dir {
            or_exit("--csv", dir, std::fs::create_dir_all(dir));
            for (stem, doc) in ok_or_exit(&t, export_csv_with(&t, &scenario, scale, &par)) {
                let path = format!("{dir}/{stem}.csv");
                or_exit("--csv", &path, std::fs::write(&path, doc));
                obs_info!("wrote {path}");
            }
        }
        obs_info!("{t} done in {:.1}s", started.elapsed().as_secs_f64());
        runs.push(run);
    }
    let elapsed = run_started.elapsed();

    if let Some(path) = &trace_path {
        or_exit(
            "--trace",
            path,
            std::fs::write(path, obs_export::trace_jsonl(&runs)),
        );
        obs_info!("wrote sim-time trace to {path}");
    }
    if let Some(path) = &trace_chrome_path {
        or_exit(
            "--trace-chrome",
            path,
            std::fs::write(path, obs_export::trace_chrome(&runs)),
        );
        obs_info!("wrote Chrome trace-event export to {path}");
    }
    if let Some(path) = &hist_path {
        or_exit(
            "--hist",
            path,
            std::fs::write(path, obs_export::hist_json(&runs)),
        );
        obs_info!("wrote latency-histogram report to {path}");
    }
    if let Some(path) = &metrics_path {
        let registry = obs_export::build_metrics(&runs, par.workers, elapsed);
        or_exit("--metrics", path, std::fs::write(path, registry.to_json()));
        obs_info!("wrote wall-clock metrics to {path}");
    }
    if profile {
        println!("{}", obs_export::profile_table(&runs));
    }
}

/// Runs one layer benchmark (`flow`, `establish` or `unit`), prints its
/// table and writes its document to `out`, by default
/// `BENCH_<layer>.json`. `PTPERF_BENCH_RUNS` overrides the harness's
/// default run count.
fn run_bench(layer: &str, out: Option<String>) {
    let default_runs = match layer {
        "flow" => flowbench::DEFAULT_RUNS,
        "establish" => establishbench::DEFAULT_RUNS,
        _ => unitbench::DEFAULT_RUNS,
    };
    let runs = emit::runs_from_env("PTPERF_BENCH_RUNS", default_runs);
    obs_info!("{layer} bench: {runs} run(s) per class");
    let (table, doc) = match layer {
        "flow" => {
            let (results, doc) = flowbench::run_flow_bench(runs);
            (flowbench::render_table(&results, runs), doc)
        }
        "establish" => {
            let (results, dep, doc) = establishbench::run_establish_bench(runs);
            (establishbench::render_table(&results, &dep, runs), doc)
        }
        _ => {
            let (results, sites, doc) = unitbench::run_unit_bench(runs);
            (unitbench::render_table(&results, &sites, runs), doc)
        }
    };
    println!("{table}");
    let out = out.unwrap_or_else(|| format!("BENCH_{layer}.json"));
    or_exit("--bench-out", &out, std::fs::write(&out, doc));
    obs_info!("wrote {layer} benchmark to {out}");
}

/// Unwraps a target's run. When an experiment shard failed, prints one
/// error line naming the target, then exits 1.
fn ok_or_exit<T>(target: &str, result: Result<T, ExecError>) -> T {
    result.unwrap_or_else(|e| {
        obs_error!("{target}: {e}");
        std::process::exit(1)
    })
}

/// Unwraps the result of writing an output file or creating its
/// directory. On failure prints one error line naming the flag and the
/// path, then exits 1.
fn or_exit<T>(flag: &str, path: &str, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        obs_error!("{flag}: cannot write {path}: {e}");
        std::process::exit(1)
    })
}

fn print_help() {
    println!(
        "repro — regenerate PTPerf tables and figures\n\n\
         usage: repro [--paper] [--seed N] [--workers N|auto] [--csv DIR]\n\
         \x20            [--trace FILE] [--trace-chrome FILE] [--hist FILE]\n\
         \x20            [--metrics FILE] [--profile] [--faults]\n\
         \x20            [--bench flow|establish|unit [--bench-out FILE]]\n\
         \x20            [--check-bench DIR] [--json-check FILE]\n\
         \x20            [--quiet] [-v|--verbose] [--list] [TARGET ...]\n\n\
         --workers only changes wall-clock time: output is bit-for-bit\n\
         identical at any worker count.\n\
         --faults turns on the deterministic fault-injection lane (the\n\
         paper profile): connect refusals, mid-transfer aborts, stalls,\n\
         churn, and surge degradation, replayed identically per seed at\n\
         any worker count; traces gain fault/* counters.\n\
         --trace writes the deterministic sim-time trace (JSON Lines: one\n\
         span or counter record per line with stable span ids and parent\n\
         links, identical at any worker count);\n\
         --trace-chrome writes the same span trees in the Chrome\n\
         trace-event format (open in chrome://tracing or Perfetto:\n\
         per-family lanes, counter tracks; byte-identical at any worker\n\
         count); --hist writes the per-(PT, phase) latency-histogram\n\
         report (deterministic log-linear buckets, exact shard merge,\n\
         integer p50/p90/p99/p99.9 in ns; byte-identical at any worker\n\
         count);\n\
         --metrics writes the wall-clock metrics registry (JSON; per-family\n\
         p50/p95 shard times, worker utilization); --profile prints a\n\
         per-family table of events, simulated seconds, and throughput.\n\
         --check-bench DIR compares fresh BENCH_*.json files in DIR\n\
         against the committed baselines in the current directory and\n\
         exits non-zero on a p50 regression past 2.5x and 1 us, on a\n\
         baseline entry the fresh file lacks, or when no baseline has a\n\
         readable fresh copy in DIR (fresh files with fewer than 10 runs\n\
         per class are skipped; PTPERF_BENCH_DRIFT=warn reports without\n\
         failing; an unreadable DIR exits 2), emitting a\n\
         machine-readable verdict JSON on stdout.\n\
         --json-check FILE validates that FILE parses as JSON and exits.\n\
         --bench LAYER benchmarks one layer, writes BENCH_<LAYER>.json\n\
         (path override: --bench-out), then exits. flow: the single-link\n\
         page-load sharing loop (p50/p95 per workload class, steps/s,\n\
         allocations-per-step proxy).\n\
         establish: channel establishment (indexed path selection vs the\n\
         reference scan at 600 and 5000 relays, establishes/s, fast-path\n\
         fraction, allocations per establish, deployment-memo savings).\n\
         unit: whole measurement units (warm pooled pipeline vs the\n\
         allocating reference path for browser page loads, curl fetches\n\
         and file downloads; units/s, allocations per warm unit,\n\
         site-workload-memo savings). Runs per class: PTPERF_BENCH_RUNS,\n\
         default 400 (flow, establish) or 200 (unit).\n\
         --quiet shows errors only; -v enables debug diagnostics.\n\
         With no targets, all of them run. Targets:\n  {}",
        available_targets().join(" ")
    );
}
