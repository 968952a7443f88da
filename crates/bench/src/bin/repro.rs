//! `repro` — regenerate the paper's tables and figures.
//!
//! Each experiment family the named targets need runs once, however
//! many of its targets are named, and `--csv` exports each family's
//! data from that same run (see `ptperf_bench::targets`). A flag that
//! takes a value takes the argument right after it.
//!
//! ```text
//! repro                      # all targets, quick scale
//! repro fig2a fig5 table10   # selected targets
//! repro --paper fig2a        # paper-scale run (slow)
//! repro --seed 1234 fig6     # alternate scenario seed
//! repro --workers 8 fig7     # parallel run (same output, any count)
//! repro --workers auto fig7  # one worker per hardware thread
//! repro --csv out fig2a      # also write the curl family's CSV files
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

use ptperf::executor::{Parallelism, Record};
use ptperf::scenario::{FaultConfig, FaultProfile, Scenario};
use ptperf_bench::{
    available_targets, emit, establishbench, flowbench, obs_export, regress, run_targets,
    unitbench, RunError, RunScale,
};
use ptperf_obs::{obs_error, obs_info, set_level, Level};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
    let mut scale = RunScale::Quick;
    let mut seed = 42u64;
    let mut csv_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut trace_chrome_path: Option<String> = None;
    let mut hist_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut json_check: Option<String> = None;
    let mut check_bench: Option<String> = None;
    let mut quiet = false;
    let mut verbose = false;
    let mut profile = false;
    let mut bench: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut faults = false;
    let mut par = Parallelism::sequential();
    let mut targets: Vec<String> = Vec::new();

    // One left-to-right pass: no target starts with '-', and a flag that
    // takes a value takes the argument right after it.
    let mut seen: Vec<String> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            targets.push(arg);
            continue;
        }
        let flag: &str = if arg == "-v" { "--verbose" } else { &arg };
        if seen.iter().any(|f| f == flag) {
            obs_error!("repeated flag '{arg}'; run `repro --help`");
            std::process::exit(2);
        }
        seen.push(flag.to_string());
        let mut value = |what: &str| match args.next() {
            Some(v) if !v.starts_with('-') => v,
            _ => {
                obs_error!("{arg} requires {what}");
                std::process::exit(2)
            }
        };
        match flag {
            "--quiet" => quiet = true,
            "--verbose" => verbose = true,
            "--paper" => scale = RunScale::Paper,
            "--profile" => profile = true,
            "--faults" => faults = true,
            "--seed" => {
                let v = value("a value");
                seed = v.parse().unwrap_or_else(|_| {
                    obs_error!("--seed requires an integer, got '{v}'");
                    std::process::exit(2)
                });
            }
            "--workers" => {
                let v = value("a count or 'auto'");
                par = if v == "auto" {
                    Parallelism::auto()
                } else {
                    match v.parse::<usize>() {
                        Ok(n) if n >= 1 => Parallelism::new(n),
                        _ => {
                            obs_error!(
                                "--workers requires a positive integer or 'auto', got '{v}'"
                            );
                            std::process::exit(2);
                        }
                    }
                };
            }
            "--bench" => {
                let layer = value("a layer: flow, establish or unit");
                if !["flow", "establish", "unit"].contains(&layer.as_str()) {
                    obs_error!(
                        "--bench: unknown layer '{layer}' (expected flow, establish or unit)"
                    );
                    std::process::exit(2);
                }
                bench = Some(layer);
            }
            "--bench-out" => bench_out = Some(value("a path")),
            "--csv" => csv_dir = Some(value("a directory")),
            "--trace" => trace_path = Some(value("a path")),
            "--trace-chrome" => trace_chrome_path = Some(value("a path")),
            "--hist" => hist_path = Some(value("a path")),
            "--metrics" => metrics_path = Some(value("a path")),
            "--json-check" => json_check = Some(value("a path")),
            "--check-bench" => {
                check_bench = Some(value("a directory of fresh BENCH_*.json files"));
            }
            _ => {
                obs_error!("unknown flag '{arg}'; run `repro --help`");
                std::process::exit(2);
            }
        }
    }
    // A mode flag runs one task and exits: it reads no target and no
    // flag but its own, --quiet and -v (and --bench its --bench-out).
    if let Some(mode) = ["--json-check", "--check-bench", "--bench"]
        .into_iter()
        .find(|mode| seen.iter().any(|f| f == mode))
    {
        let reads = |f: &str| {
            [mode, "--quiet", "--verbose"].contains(&f) || (mode == "--bench" && f == "--bench-out")
        };
        if let Some(flag) = seen.iter().find(|f| !reads(f)) {
            obs_error!("{mode} does not take '{flag}'; run `repro --help`");
            std::process::exit(2);
        }
        if let Some(target) = targets.first() {
            obs_error!("{mode} takes no targets, got '{target}'");
            std::process::exit(2);
        }
    }
    if verbose {
        set_level(Level::Debug);
    } else if quiet {
        set_level(Level::Error);
    }
    if let Some(path) = json_check {
        let text = match std::fs::read_to_string(&path) {
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
    if let Some(dir) = check_bench {
        let fresh_dir = std::path::PathBuf::from(dir);
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
        run_bench(&layer, bench_out);
        return;
    }
    let names: Vec<&str> = if targets.is_empty() {
        available_targets()
    } else {
        targets.iter().map(String::as_str).collect()
    };

    let mut scenario = Scenario::baseline(seed);
    if faults {
        scenario = scenario.with_faults(FaultConfig::Plan(FaultProfile::paper()));
    }
    let run_started = std::time::Instant::now();
    let runs = run_targets(&names, &scenario, scale, &par).unwrap_or_else(|e| {
        obs_error!("{e}");
        std::process::exit(match e {
            RunError::UnknownTarget(_) => 2,
            RunError::Failed { .. } => 1,
        })
    });
    let elapsed = run_started.elapsed();
    obs_info!(
        "{} target(s) done in {:.1}s",
        names.len(),
        elapsed.as_secs_f64()
    );
    println!(
        "# PTPerf reproduction — scale: {:?}, seed: {seed}, workers: {}, scenario: client {} / servers {}, faults: {}\n",
        scale,
        par.workers,
        scenario.client,
        scenario.server_region,
        if faults { "paper plan" } else { "off" }
    );
    for run in &runs.targets {
        println!("==================== {} ====================", run.name);
        println!("{}", run.text);
    }
    if let Some(dir) = &csv_dir {
        or_exit("--csv", dir, std::fs::create_dir_all(dir));
        for (stem, doc) in runs.csv() {
            let path = format!("{dir}/{stem}.csv");
            or_exit("--csv", &path, std::fs::write(&path, doc));
            obs_info!("wrote {path}");
        }
    }

    if let Some(path) = &trace_path {
        or_exit(
            "--trace",
            path,
            std::fs::write(path, obs_export::trace_jsonl(&runs.targets)),
        );
        obs_info!("wrote sim-time trace to {path}");
    }
    if let Some(path) = &trace_chrome_path {
        or_exit(
            "--trace-chrome",
            path,
            std::fs::write(path, obs_export::trace_chrome(&runs.targets)),
        );
        obs_info!("wrote Chrome trace-event export to {path}");
    }
    if let Some(path) = &hist_path {
        or_exit(
            "--hist",
            path,
            std::fs::write(path, obs_export::hist_json(&runs.targets)),
        );
        obs_info!("wrote latency-histogram report to {path}");
    }
    if let Some(path) = &metrics_path {
        let registry = obs_export::build_metrics(&runs.targets, par.workers, elapsed);
        or_exit("--metrics", path, std::fs::write(path, registry.to_json()));
        obs_info!("wrote wall-clock metrics to {path}");
    }
    if profile {
        println!("{}", obs_export::profile_table(&runs.targets));
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
         Targets of one experiment family share one run of it: fig2a,\n\
         table3, table4 and table10 come from the same curl run.\n\
         --workers only changes wall-clock time: output is bit-for-bit\n\
         identical at any worker count.\n\
         --csv DIR writes the samples and t-test tables behind the\n\
         selected targets as CSV, each family's files once.\n\
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
         --bench, --check-bench and --json-check each run alone: they take\n\
         no targets and no flags but --quiet and -v (--bench also takes\n\
         --bench-out).\n\
         --bench LAYER benchmarks one layer, writes BENCH_<LAYER>.json\n\
         (path override: --bench-out), then exits. flow: the single-link\n\
         page-load sharing loop (p50/p95 per workload class, steps/s,\n\
         allocations-per-step proxy).\n\
         establish: channel establishment at 600 and 5000 relays\n\
         (p50/p95 per establish, establishes/s, picks per establish,\n\
         fast-path fraction, allocations per establish, deployment-memo\n\
         savings).\n\
         unit: whole measurement units on the warm pooled pipeline\n\
         (browser page loads, curl fetches and file downloads; units/s,\n\
         allocations per warm unit, site-workload-memo savings). Runs\n\
         per class: PTPERF_BENCH_RUNS, default 400 (flow, establish) or\n\
         200 (unit).\n\
         --quiet shows errors only; -v enables debug diagnostics.\n\
         With no targets, all of them run. Targets:\n  {}",
        available_targets().join(" ")
    );
}
