//! `ptbench` — end-to-end benchmark of the paper's measurement corpus,
//! with a traced per-layer split (see README.md beside `Cargo.toml`).
//!
//! ```text
//! ptbench                          # every workload once, each in its own child process
//! ptbench --workload corpus_paper  # one workload, in this process
//! ptbench --seed 7                 # the only input (default 42)
//! ptbench --seconds 20             # repeat rounds for about 20 s; report medians
//! ptbench --trace                  # per-layer metrics: an untraced and a traced pass per round
//! ptbench --workload bulk_seeds --seed 3 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exit status: 0 on
//! success, 1 when a correctness gate fails (checked after the metrics
//! print), 2 on a usage error.

#![forbid(unsafe_code)]

mod metrics;
mod timed;
mod workload;

use std::process::{Command, Stdio};
use std::time::Instant;

use metrics::{median, peak_rss_mb, result_line, Metrics};
use ptperf::obs::json;
use ptperf::transports::PtId;
use timed::Timer;
use workload::{Pass, Scale, SetupTimes, Workload};

/// Executor workers: a fixed-size closed-loop batch (the reference host
/// has two cores).
const WORKERS: usize = 2;
/// Extra set-ups after every round, next to the pass's own, behind the
/// `setup_s` median. Set-up takes milliseconds, so samples are cheap;
/// taking them after every round rather than in one burst spreads them
/// over the run's changing host load.
const SETUPS_PER_ROUND: usize = 7;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: ptbench [--workload corpus_paper|browser_paper|bulk_seeds] \
                     [--seed N] [--seconds S] [--trace [0|1]]";

/// Parses the command line; `Ok(None)` means help was requested.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut out = Args {
        workload: None,
        seed: 42,
        seconds: 0.0,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload = Some(Workload::parse(name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload '{name}' (expected one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => {
                let v = value()?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an unsigned integer, got '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds expects a non-negative number, got '{v}'"))?;
            }
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'; {USAGE}")),
        }
    }
    Ok(Some(out))
}

/// One workload's measured result.
struct Report {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    violations: Vec<String>,
}

/// Runs rounds of `w` for about `seconds` (at least one round): each
/// round is an untraced pass, plus a traced pass under `trace`. Another
/// round starts only if one more of the last round's length still fits.
fn measure(
    w: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
) -> Report {
    let started = Instant::now();
    let mut rounds: Vec<(Pass, Option<Pass>)> = Vec::new();
    let mut setups: Vec<SetupTimes> = Vec::new();
    loop {
        let round = Instant::now();
        let plain = workload::run_pass(w, scale, seed, workers, false);
        let traced = trace.then(|| workload::run_pass(w, scale, seed, workers, true));
        setups.push(plain.setup);
        setups
            .extend((0..SETUPS_PER_ROUND).map(|_| workload::prepare(w, scale, seed, false).setup));
        rounds.push((plain, traced));
        if (started.elapsed() + round.elapsed()).as_secs_f64() > seconds {
            break;
        }
    }
    let metrics = if trace {
        per_layer(&rounds, &setups)
    } else {
        end_to_end(&rounds, &setups)
    };
    let violations = gates(&rounds, &metrics);
    let passes = || rounds.iter().flat_map(|(p, t)| std::iter::once(p).chain(t));
    Report {
        attempted: passes().map(|p| p.planned).sum(),
        failed: passes().map(|p| p.lost).sum(),
        digest: rounds[0].0.digest,
        metrics,
        violations,
    }
}

fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics, from untraced passes.
fn end_to_end(rounds: &[(Pass, Option<Pass>)], setups: &[SetupTimes]) -> Metrics {
    let mut m = Metrics::default();
    m.push(
        "meas_per_s",
        median_by(rounds, |(p, _)| p.planned as f64 / p.wall_s),
        "1/s",
    );
    m.push("setup_s", median_by(setups, |s| s.total_s), "s");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    m.push(
        "failed_share",
        median_by(rounds, |(p, _)| {
            (p.incomplete + p.lost) as f64 / p.planned as f64
        }),
        "share",
    );
    m
}

/// Per-layer metrics the untraced program already collects.
fn untraced_layers(p: &Pass) -> Metrics {
    let mut m = Metrics::default();
    let busy = p.busy_s();
    m.push("executor.pools", p.pools as f64, "count");
    m.push("executor.shards", p.shard_walls.len() as f64, "count");
    m.push("executor.busy_s", busy, "s");
    m.push("executor.utilization", busy / p.capacity_s, "share");
    m.push("executor.shard_p50_ms", median(&p.shard_walls) * 1e3, "ms");
    m.push("executor.straggler_ms", p.straggler_s * 1e3, "ms");
    let (picks, fallbacks) = (p.perf.path_index_pick, p.perf.path_scan_fallback);
    m.push("path.index_pick", picks as f64, "count");
    m.push("path.scan_fallback", fallbacks as f64, "count");
    m.push(
        "path.fallback_share",
        fallbacks as f64 / (picks + fallbacks).max(1) as f64,
        "share",
    );
    m.push("fault.injected", p.perf.fault_injected as f64, "count");
    m.push("fault.retried", p.perf.fault_retried as f64, "count");
    m.push("fault.recovered", p.perf.fault_recovered as f64, "count");
    m.push("fault.gave_up", p.perf.fault_gave_up as f64, "count");
    m.push("aggregate.merge_s", p.merge_s, "s");
    m.push("aggregate.render_s", p.render_s, "s");
    m
}

/// Per-layer wall times from a traced pass and its untraced partner.
fn traced_layers(t: &Pass, plain: &Pass) -> Metrics {
    fn timer(m: &mut Metrics, layer: &str, t: &Timer, tail: bool) {
        m.push(format!("{layer}.calls"), t.calls as f64, "count");
        m.push(format!("{layer}.self_s"), t.self_ns as f64 * 1e-9, "s");
        m.push(format!("{layer}.p50_ns"), t.quantile_ns(0.5) as f64, "ns");
        if tail {
            m.push(
                format!("{layer}.p999_ns"),
                t.quantile_ns(0.999) as f64,
                "ns",
            );
        }
    }
    let lay = t.layers.clone().unwrap_or_default();
    let mut m = Metrics::default();
    timer(&mut m, "establish", &lay.establish, true);
    for pt in PtId::ALL_WITH_VANILLA {
        let (calls, ns) = lay.establish_by_pt[pt.index()];
        m.push(
            format!("establish.{pt}.mean_ns"),
            ns as f64 / calls.max(1) as f64,
            "ns",
        );
    }
    timer(&mut m, "curl", &lay.curl, true);
    m.push("curl.failed", lay.curl_failed as f64, "count");
    timer(&mut m, "browser", &lay.browser, true);
    m.push("browser.failed", lay.browser_failed as f64, "count");
    timer(&mut m, "filedl", &lay.filedl, true);
    m.push("filedl.failed", lay.filedl_failed as f64, "count");
    m.push("filedl.partial", lay.filedl_partial as f64, "count");
    timer(&mut m, "streaming", &lay.streaming, false);
    let busy = t.busy_s();
    let layered = lay.self_ns() as f64 * 1e-9;
    m.push("other.self_s", busy - layered, "s");
    m.push("trace.coverage", layered / busy, "share");
    m.push("trace.overhead", t.wall_s / plain.wall_s - 1.0, "share");
    m
}

/// The per-layer metrics: untraced-pass layers and set-up split, then the
/// traced layers, each the median across rounds.
fn per_layer(rounds: &[(Pass, Option<Pass>)], setups: &[SetupTimes]) -> Metrics {
    let plain: Vec<Metrics> = rounds.iter().map(|(p, _)| untraced_layers(p)).collect();
    let mut m = Metrics::median_of(&plain);
    m.push(
        "scenario.deployment_s",
        median_by(setups, |s| s.deployment_s),
        "s",
    );
    m.push("scenario.sites_s", median_by(setups, |s| s.sites_s), "s");
    m.push("scenario.units_s", median_by(setups, |s| s.units_s), "s");
    let traced: Vec<Metrics> = rounds
        .iter()
        .map(|(p, t)| traced_layers(t.as_ref().expect("trace rounds carry a traced pass"), p))
        .collect();
    m.0.extend(Metrics::median_of(&traced).0);
    m
}

/// Correctness gates: accounting, fault identity, digest agreement across
/// passes and between traced and untraced runs, finite metrics.
fn gates(rounds: &[(Pass, Option<Pass>)], metrics: &Metrics) -> Vec<String> {
    let mut v = Vec::new();
    let reference = rounds[0].0.digest;
    if reference.is_none() {
        v.push("no digest: an executor pool failed".to_string());
    }
    for (plain, traced) in rounds {
        for (kind, pass) in
            std::iter::once(("untraced", plain)).chain(traced.iter().map(|t| ("traced", t)))
        {
            v.extend(pass.errors.iter().map(|e| format!("{kind} pass: {e}")));
            if pass.attempted + pass.skipped != pass.planned {
                v.push(format!(
                    "{kind} pass: attempted {} + skipped {} != planned {}",
                    pass.attempted, pass.skipped, pass.planned
                ));
            }
            if pass.digest != reference {
                v.push(format!(
                    "{kind} pass rendered a different digest than the first pass"
                ));
            }
        }
        let f = plain.perf;
        if f.fault_injected != f.fault_retried + f.fault_recovered + f.fault_gave_up {
            v.push(format!(
                "fault.injected {} != retried {} + recovered {} + gave_up {}",
                f.fault_injected, f.fault_retried, f.fault_recovered, f.fault_gave_up
            ));
        }
        let Some(t) = traced else { continue };
        let Some(lay) = &t.layers else {
            v.push("traced pass recorded no layer timings".to_string());
            continue;
        };
        if lay.attempted + lay.skipped != t.replicated_planned {
            v.push(format!(
                "timed replicas: attempted {} + skipped {} != planned {}",
                lay.attempted, lay.skipped, t.replicated_planned
            ));
        }
        let s = lay.faults;
        let untraced = (
            f.fault_injected,
            f.fault_retried,
            f.fault_recovered,
            f.fault_gave_up,
        );
        if (s.injected, s.retried, s.recovered, s.gave_up) != untraced {
            v.push("traced fault dispositions differ from the untraced pass".to_string());
        }
    }
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            v.push(format!("{name} is not finite"));
        }
    }
    v
}

/// `--workload W`: measure in this process and print the result line.
fn run_one(w: Workload, args: &Args) -> i32 {
    let report = measure(
        w,
        Scale::Paper,
        args.seed,
        args.seconds,
        args.trace,
        WORKERS,
    );
    for (name, value, unit) in &report.metrics.0 {
        println!("{:<14} {name:<28} {value} {unit}", w.name());
    }
    let digest = report
        .digest
        .map_or("none".to_string(), |d| format!("{d:016x}"));
    println!("{:<14} {:<28} {digest}", w.name(), "digest");
    println!(
        "{}",
        result_line(
            report.violations.is_empty(),
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    for violation in &report.violations {
        eprintln!("ptbench: {}: {violation}", w.name());
    }
    i32::from(!report.violations.is_empty())
}

/// No `--workload`: each workload in its own child process (so peak RSS
/// is the workload's own), then one combined result line whose metric
/// names are `<workload>.<metric>`.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ptbench: cannot locate own executable: {e}");
            return 1;
        }
    };
    let (mut code, mut correct, mut attempted, mut failed) = (0, true, 0u64, 0u64);
    let mut combined = Metrics::default();
    for w in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("ptbench: {}: cannot run child: {e}", w.name());
                code = 1;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        lines.iter().for_each(|l| println!("{l}"));
        code = code.max(output.status.code().unwrap_or(1));
        let Ok(result) = json::parse(last) else {
            eprintln!("ptbench: {}: child printed no result line", w.name());
            code = code.max(1);
            continue;
        };
        correct &= result.get("correct") == Some(&json::Value::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as u64;
        failed += result
            .get("failed")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as u64;
        if let Some(json::Value::Obj(fields)) = result.get("metrics") {
            for (name, metric) in fields {
                let value = metric
                    .get("value")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = metric
                    .get("unit")
                    .and_then(json::Value::as_str)
                    .unwrap_or_default();
                combined.push(format!("{}.{name}", w.name()), value, unit);
            }
        }
    }
    println!(
        "{}",
        result_line(correct && code == 0, attempted, failed, &combined)
    );
    code
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("ptbench: {msg}");
            std::process::exit(2);
        }
    };
    let code = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Option<Args>, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parses_the_full_command_line() {
        let args = parse("--workload bulk_seeds --seed 9 --seconds 20 --trace 0")
            .unwrap()
            .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Some(Workload::BulkSeeds),
                seed: 9,
                seconds: 20.0,
                trace: false
            }
        );
        assert!(parse("--trace 1").unwrap().unwrap().trace);
        assert!(parse("--trace --seed 3").unwrap().unwrap().trace);
        assert_eq!(parse("").unwrap().unwrap().seed, 42);
        assert_eq!(parse("--help").unwrap(), None);
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        for line in [
            "--workload nope",
            "--seed abc",
            "--seed -1",
            "--seed",
            "--workload",
            "--seconds",
            "--seconds -2",
            "--seconds nan",
            "--bogus",
        ] {
            let err = parse(line).expect_err(line);
            assert!(!err.contains('\n'), "{line}: multi-line message {err:?}");
        }
    }

    /// The metric names listed under `key` in the repository's
    /// `BENCHMARK.json`, with their units.
    fn listed(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(json::Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(json::Value::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_metrics_are_finite_and_exactly_those_benchmark_json_lists() {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            for w in Workload::ALL {
                let report = measure(w, Scale::Quick, 42, 0.0, trace, WORKERS);
                assert!(
                    report.violations.is_empty(),
                    "{w:?}: {:?}",
                    report.violations
                );
                let emitted: Vec<(String, String)> = report
                    .metrics
                    .0
                    .iter()
                    .map(|(n, _, u)| (n.clone(), u.clone()))
                    .collect();
                assert_eq!(emitted, listed(key), "{w:?} trace={trace}");
                assert!(report.metrics.0.iter().all(|(_, v, _)| v.is_finite()));
            }
        }
    }

    #[test]
    fn traced_coverage_and_overhead_are_plausible() {
        let report = measure(Workload::BulkSeeds, Scale::Quick, 11, 0.0, true, WORKERS);
        let coverage = report.metrics.get("trace.coverage").unwrap();
        assert!(coverage > 0.0 && coverage <= 1.05, "coverage {coverage}");
        assert_eq!(report.metrics.get("browser.calls"), Some(0.0));
        assert!(report.metrics.get("filedl.calls").unwrap() > 0.0);
    }
}
