//! `repro --bench flow`: the page-load sharing benchmark behind
//! `BENCH_flow.json`.
//!
//! Criterion answers "how fast is one call"; this module answers the
//! question the perf trajectory needs tracked in version control: for
//! each browser-shaped batch (sub-resources sharing one tunnel link in
//! staggered waves, as every selenium and speed-index page load
//! submits them), what are the single-link loop's p50/p95 wall times,
//! how many steps per second does it sustain, and does it still
//! allocate once warm?
//!
//! Determinism note: workloads are generated from fixed seeds, so the
//! *work* is identical run to run; only the wall-clock numbers move.
//! The harness fails hard (panics) on NaN or non-finite measurements —
//! the verify gate runs it in quick mode — but never on thresholds:
//! speed regressions are for review to catch, not CI flakes.

use ptperf_obs::json;
use ptperf_sim::{share_link, LinkFlow, SimDuration, SimRng, SimTime};

use crate::emit;

/// How many timed runs per workload class (override with the
/// `PTPERF_BENCH_RUNS` environment variable; the verify gate uses a
/// small value, the default suits interactive use).
pub const DEFAULT_RUNS: usize = 400;

/// One benchmark workload: a link rate plus a flow batch, named.
pub struct Workload {
    /// Class name as it appears in `BENCH_flow.json`.
    pub name: &'static str,
    /// The shared link's rate, bytes/s.
    pub capacity: f64,
    /// The flows submitted to the loop, in start order.
    pub flows: Vec<LinkFlow>,
}

/// The measured result for one workload class.
#[derive(Debug)]
pub struct ClassResult {
    /// Workload class name.
    pub name: &'static str,
    /// Number of flows in the workload.
    pub flows: usize,
    /// Constant-rate steps per run.
    pub steps_per_run: u64,
    /// p50 wall time, microseconds.
    pub p50_us: f64,
    /// p95 wall time, microseconds.
    pub p95_us: f64,
    /// Steps per second at the p50.
    pub steps_per_sec: f64,
    /// Buffer growths observed *during the timed runs* divided by total
    /// timed steps: the allocations-per-step proxy. Should be 0 once
    /// warm; any other value means the loop still allocates.
    pub allocs_per_step: f64,
}

/// A browser-shaped batch: `n_flows` sub-resources of 500 B–400 kB on
/// one tunnel link of `rate_bps`, starting in waves of six, one 180 ms
/// request round trip apart (capped at wave 20) — the shape
/// `ptperf-web::browser` submits for every page load.
pub fn browser_style_instance(
    name: &'static str,
    rng: &mut SimRng,
    n_flows: usize,
    rate_bps: f64,
) -> Workload {
    let per_req = SimDuration::from_millis(180);
    let flows = (0..n_flows)
        .map(|i| LinkFlow {
            start: SimTime::ZERO + per_req * ((i / 6) as u64).min(20),
            bytes: rng.range_f64(500.0, 400_000.0),
            extra_latency: per_req,
        })
        .collect();
    Workload {
        name,
        capacity: rate_bps,
        flows,
    }
}

/// The standard workload classes, smallest first. Fixed seeds: the same
/// byte-for-byte workloads every run, so numbers are comparable across
/// commits.
pub fn standard_workloads() -> Vec<Workload> {
    vec![
        browser_style_instance("browser_64", &mut SimRng::new(11), 64, 2.0e6),
        browser_style_instance("browser_256", &mut SimRng::new(12), 256, 2.0e6),
    ]
}

/// Benchmarks one workload class: `runs` timed executions of the loop
/// on warm buffers.
pub fn bench_class(w: &Workload, runs: usize) -> ClassResult {
    let (mut active, mut finish) = (Vec::new(), Vec::new());
    let steps_per_run = share_link(w.capacity, &w.flows, &mut active, &mut finish) as u64;
    let baseline = finish.clone();
    let capacities = |a: &Vec<(usize, f64)>, f: &Vec<SimTime>| [a.capacity(), f.capacity()];

    // Warmup, and a check that warm buffers change nothing.
    for _ in 0..3 {
        share_link(w.capacity, &w.flows, &mut active, &mut finish);
        assert_eq!(finish, baseline, "flow bench {}: warm run diverged", w.name);
    }

    let before = capacities(&active, &finish);
    let us = emit::timed_runs(runs, || {
        share_link(w.capacity, &w.flows, &mut active, &mut finish)
    });
    let after = capacities(&active, &finish);
    let grows_during = before.iter().zip(&after).filter(|(b, a)| a > b).count();

    let (p50, p95) = emit::p50_p95(&us);
    let total_steps = steps_per_run * runs as u64;
    let allocs_per_step = if total_steps > 0 {
        grows_during as f64 / total_steps as f64
    } else {
        0.0
    };
    for (what, x) in [("p50", p50), ("p95", p95), ("allocs/step", allocs_per_step)] {
        emit::assert_finite(&format!("flow bench {}", w.name), what, x);
    }

    ClassResult {
        name: w.name,
        flows: w.flows.len(),
        steps_per_run,
        p50_us: p50,
        p95_us: p95,
        steps_per_sec: emit::per_sec(steps_per_run as f64, p50),
        allocs_per_step,
    }
}

/// Runs every standard workload class and renders `BENCH_flow.json`.
pub fn run_flow_bench(runs: usize) -> (Vec<ClassResult>, String) {
    let results: Vec<ClassResult> = standard_workloads()
        .iter()
        .map(|w| bench_class(w, runs))
        .collect();
    let doc = render_json(&results, runs);
    (results, doc)
}

/// Renders the results as the `BENCH_flow.json` document.
pub fn render_json(results: &[ClassResult], runs: usize) -> String {
    let classes: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": {}, \"flows\": {}, \"steps_per_run\": {}, \
                 \"p50_us\": {}, \"p95_us\": {}, \"steps_per_sec\": {}, \
                 \"allocs_per_step\": {}}}",
                json::string(r.name),
                r.flows,
                r.steps_per_run,
                json::number(r.p50_us),
                json::number(r.p95_us),
                json::number(r.steps_per_sec),
                json::number(r.allocs_per_step),
            )
        })
        .collect();
    emit::json_shell(
        "ptperf-bench-flow/v2",
        runs,
        &[emit::json_array_section("classes", &classes)],
    )
}

/// Renders a human-readable summary table for stdout.
pub fn render_table(results: &[ClassResult], runs: usize) -> String {
    let mut table = ptperf_stats::Table::new([
        "class",
        "flows",
        "steps",
        "p50 (µs)",
        "p95 (µs)",
        "steps/s",
        "allocs/step",
    ]);
    for r in results {
        table.row([
            r.name.to_string(),
            r.flows.to_string(),
            r.steps_per_run.to_string(),
            format!("{:.1}", r.p50_us),
            format!("{:.1}", r.p95_us),
            format!("{:.0}", r.steps_per_sec),
            format!("{:.4}", r.allocs_per_step),
        ]);
    }
    format!(
        "Page-load sharing benchmark — {runs} run(s) per class\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_workloads_are_deterministic() {
        let a = standard_workloads();
        let b = standard_workloads();
        assert_eq!(a.len(), b.len());
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.name, wb.name);
            assert_eq!(wa.flows, wb.flows);
        }
    }

    #[test]
    fn bench_runs_and_emits_valid_shape() {
        let w = &standard_workloads()[0];
        let r = bench_class(w, 4);
        assert_eq!(r.name, "browser_64");
        assert_eq!(r.flows, 64);
        assert!(r.steps_per_run > 0);
        assert_eq!(r.allocs_per_step, 0.0);
        assert!(r.p50_us >= 0.0 && r.p95_us >= r.p50_us * 0.999);
        let json = render_json(&[r], 4);
        assert!(json.contains("\"schema\": \"ptperf-bench-flow/v2\""));
        assert!(json.contains("\"browser_64\""));
        assert!(json.ends_with("\n"));
    }

    #[test]
    fn table_renders_every_class() {
        let (results, _) = run_flow_bench(4);
        let table = render_table(&results, 4);
        for name in ["browser_64", "browser_256"] {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
    }
}
