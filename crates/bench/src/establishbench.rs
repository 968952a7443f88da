//! `repro --bench establish`: the channel-establishment benchmark
//! harness behind `BENCH_establish.json`.
//!
//! Companion to [`crate::flowbench`], for the other hot loop of every
//! campaign: building channels. For each (transport, consensus size)
//! class it measures warm per-establish wall time on the campaign's own
//! path (a persistent [`EstablishScratch`], picks on the consensus
//! index), the establishes-per-second it sustains, how many relay picks
//! an establish resolves and how often the indexed fast path resolves
//! one without falling back to the scan, and whether the scratch still
//! allocates once warm. A separate section times the scenario's
//! deployment memo: cached fetch vs a full consensus rebuild. That the
//! selector picks what the full-scan oracle picks is the business of
//! `ptperf-tor`'s `path_equivalence` tests, not of this timing harness.
//!
//! Determinism note: every timed run replays the same establish sequence
//! from a fixed per-run seed, so the *work* is identical run to run and
//! across commits; only wall-clock numbers move. The harness fails hard
//! on NaN or non-finite measurements but never on thresholds: speed
//! regressions are for review to catch, not CI flakes.

use ptperf::scenario::Scenario;
use ptperf_obs::json;
use ptperf_sim::{Location, SimRng};
use ptperf_tor::ConsensusParams;
use ptperf_transports::{transport_for, AccessOptions, Deployment, EstablishScratch, PtId};

use crate::emit;

/// How many timed runs (each a fixed batch of establishes) per class
/// (override with the `PTPERF_BENCH_RUNS` environment variable; the
/// verify gate uses a small value).
pub const DEFAULT_RUNS: usize = 400;

/// Establishes per timed run: large enough to amortize timer overhead,
/// small enough that a run stays microseconds-scale.
pub const ESTABLISHES_PER_RUN: usize = 32;

/// One benchmark class: a transport over a consensus of a given size.
pub struct Workload {
    /// Class name as it appears in `BENCH_establish.json`.
    pub name: &'static str,
    /// The transport being established.
    pub pt: PtId,
    /// The deployment (relay count is the class's size axis).
    pub dep: Deployment,
    /// Access options (fixed client vantage).
    pub opts: AccessOptions,
}

/// The measured result for one class.
#[derive(Debug)]
pub struct ClassResult {
    /// Class name.
    pub name: &'static str,
    /// Consensus size (relays, including registered bridges).
    pub relays: usize,
    /// Relay picks resolved per establish: the guard in use, if sampled,
    /// plus the circuit roles (the sample's other draws go unresolved).
    pub picks_per_establish: f64,
    /// Fraction of picks the indexed fast path resolved without a scan.
    pub index_pick_fraction: f64,
    /// p50 wall time per establish, microseconds.
    pub idx_p50_us: f64,
    /// p95 wall time per establish, microseconds.
    pub idx_p95_us: f64,
    /// Establishes per second at the p50.
    pub establishes_per_sec: f64,
    /// Scratch-buffer growths during the timed runs divided by timed
    /// establishes. Should be 0 once warm.
    pub allocs_per_establish: f64,
}

/// Deployment-memo timings: what `Scenario::deployment` sharing saves.
#[derive(Debug)]
pub struct DeploymentResult {
    /// Full rebuild p50 (`Deployment::standard`), microseconds.
    pub rebuild_p50_us: f64,
    /// Cached fetch p50 (Arc clone out of the memo), microseconds.
    pub cached_p50_us: f64,
    /// `rebuild_p50 / cached_p50`.
    pub speedup_p50: f64,
    /// `deployment/rebuilds_saved` ticks observed during the cached lane.
    pub rebuilds_saved: u64,
}

/// The standard classes: the two headline transports at the default
/// 600-relay consensus and at 5000 relays (about live Tor's size, where
/// an O(n) pick would bite). Fixed seeds keep workloads byte-for-byte
/// identical across runs.
pub fn standard_workloads() -> Vec<Workload> {
    let opts = AccessOptions::new(Location::London);
    let mut out = Vec::new();
    for (name, pt, n_relays) in [
        ("vanilla_600", PtId::Vanilla, 600usize),
        ("obfs4_600", PtId::Obfs4, 600),
        ("vanilla_5000", PtId::Vanilla, 5000),
        ("obfs4_5000", PtId::Obfs4, 5000),
    ] {
        let params = ConsensusParams {
            n_relays,
            ..ConsensusParams::default()
        };
        out.push(Workload {
            name,
            pt,
            dep: Deployment::standard_with(21, Location::Frankfurt, &params),
            opts,
        });
    }
    out
}

fn assert_finite(name: &str, what: &str, x: f64) {
    emit::assert_finite(&format!("establish bench {name}"), what, x);
}

/// Benchmarks one class: one untimed batch counts the relay picks and
/// warms the scratch, then `runs` timed batches of
/// [`ESTABLISHES_PER_RUN`] establishes, every batch replaying the same
/// fixed-seed sequence.
pub fn bench_class(w: &Workload, runs: usize) -> ClassResult {
    const RUN_SEED: u64 = 7;
    let transport = transport_for(w.pt);
    let mut scratch = EstablishScratch::new();
    let batch = |scratch: &mut EstablishScratch| {
        let mut rng = SimRng::new(RUN_SEED);
        for _ in 0..ESTABLISHES_PER_RUN {
            let ch =
                transport.establish_with(&w.dep, &w.opts, Location::NewYork, &mut rng, scratch);
            std::hint::black_box(ch);
        }
    };

    // Pick accounting for this class, measured over one untimed batch
    // that also grows the scratch to steady state.
    let picks_before = ptperf_obs::perf::snapshot();
    batch(&mut scratch);
    let picks_delta = ptperf_obs::perf::snapshot().delta_since(&picks_before);
    let batch_picks = picks_delta.path_index_pick + picks_delta.path_scan_fallback;
    let picks_per_establish = batch_picks as f64 / ESTABLISHES_PER_RUN as f64;
    let index_pick_fraction = if batch_picks > 0 {
        picks_delta.path_index_pick as f64 / batch_picks as f64
    } else {
        0.0
    };

    // The shared loop times the whole batch (the per-batch rng
    // construction it includes is a few nanoseconds against a
    // 32-establish batch); the per-establish scaling happens after.
    let grows_before = scratch.grows();
    let idx_us: Vec<f64> = emit::timed_runs(runs, || batch(&mut scratch))
        .iter()
        .map(|us| us / ESTABLISHES_PER_RUN as f64)
        .collect();
    let grows_during = scratch.grows() - grows_before;

    let (idx_p50, idx_p95) = emit::p50_p95(&idx_us);
    let establishes_per_sec = emit::per_sec(1.0, idx_p50);
    let total_establishes = (runs * ESTABLISHES_PER_RUN) as f64;
    let allocs_per_establish = grows_during as f64 / total_establishes;

    for (what, x) in [
        ("p50", idx_p50),
        ("p95", idx_p95),
        ("allocs/establish", allocs_per_establish),
        ("picks/establish", picks_per_establish),
    ] {
        assert_finite(w.name, what, x);
    }

    ClassResult {
        name: w.name,
        relays: w.dep.consensus.len(),
        picks_per_establish,
        index_pick_fraction,
        idx_p50_us: idx_p50,
        idx_p95_us: idx_p95,
        establishes_per_sec,
        allocs_per_establish,
    }
}

/// Times the deployment memo: p50 of a full rebuild (a direct
/// `Deployment::standard` call) vs a cached fetch, plus the
/// `deployment/rebuilds_saved` ticks the cached lane produced.
pub fn bench_deployment(runs: usize) -> DeploymentResult {
    let scenario = Scenario::baseline(21);

    let rebuild_us = emit::timed_runs(runs, || {
        Deployment::standard(scenario.seed, scenario.server_region)
    });

    let dep = scenario.deployment(); // populate the memo
    std::hint::black_box(dep);
    let saved_before = ptperf_obs::perf::snapshot();
    let cached_us = emit::timed_runs(runs, || scenario.deployment());
    let rebuilds_saved = ptperf_obs::perf::snapshot()
        .delta_since(&saved_before)
        .deployment_rebuilds_saved;

    let (rebuild_p50, _) = emit::p50_p95(&rebuild_us);
    let (cached_p50, _) = emit::p50_p95(&cached_us);
    for (what, x) in [("rebuild p50", rebuild_p50), ("cached p50", cached_p50)] {
        assert_finite("deployment", what, x);
    }

    DeploymentResult {
        rebuild_p50_us: rebuild_p50,
        cached_p50_us: cached_p50,
        speedup_p50: emit::speedup(rebuild_p50, cached_p50),
        rebuilds_saved,
    }
}

/// Runs every standard class plus the deployment-memo section and
/// renders `BENCH_establish.json`.
pub fn run_establish_bench(runs: usize) -> (Vec<ClassResult>, DeploymentResult, String) {
    let results: Vec<ClassResult> = standard_workloads()
        .iter()
        .map(|w| bench_class(w, runs))
        .collect();
    let dep = bench_deployment(runs);
    let doc = render_json(&results, &dep, runs);
    (results, dep, doc)
}

/// Renders the results as the `BENCH_establish.json` document.
pub fn render_json(results: &[ClassResult], dep: &DeploymentResult, runs: usize) -> String {
    let classes: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": {}, \"relays\": {}, \"picks_per_establish\": {}, \
                 \"index_pick_fraction\": {}, \"indexed\": {{\"p50_us\": {}, \"p95_us\": {}}}, \
                 \"establishes_per_sec\": {}, \"allocs_per_establish\": {}}}",
                json::string(r.name),
                r.relays,
                json::number(r.picks_per_establish),
                json::number(r.index_pick_fraction),
                json::number(r.idx_p50_us),
                json::number(r.idx_p95_us),
                json::number(r.establishes_per_sec),
                json::number(r.allocs_per_establish),
            )
        })
        .collect();
    let dep_section = format!(
        "  \"deployment\": {{\"rebuild_p50_us\": {}, \"cached_p50_us\": {}, \"speedup_p50\": {}, \
         \"rebuilds_saved\": {}}}",
        json::number(dep.rebuild_p50_us),
        json::number(dep.cached_p50_us),
        json::number(dep.speedup_p50),
        dep.rebuilds_saved,
    );
    emit::json_shell(
        "ptperf-bench-establish/v2",
        runs,
        &[
            format!("  \"establishes_per_run\": {ESTABLISHES_PER_RUN}"),
            emit::json_array_section("classes", &classes),
            dep_section,
        ],
    )
}

/// Renders a human-readable summary table for stdout.
pub fn render_table(results: &[ClassResult], dep: &DeploymentResult, runs: usize) -> String {
    let mut table = ptperf_stats::Table::new([
        "class",
        "relays",
        "picks/est",
        "idx%",
        "idx p50 (µs)",
        "idx p95 (µs)",
        "est/s",
        "allocs/est",
    ]);
    for r in results {
        table.row([
            r.name.to_string(),
            r.relays.to_string(),
            format!("{:.1}", r.picks_per_establish),
            format!("{:.0}%", 100.0 * r.index_pick_fraction),
            format!("{:.2}", r.idx_p50_us),
            format!("{:.2}", r.idx_p95_us),
            format!("{:.0}", r.establishes_per_sec),
            format!("{:.4}", r.allocs_per_establish),
        ]);
    }
    format!(
        "Channel-establishment benchmark — {runs} run(s) × {} establish(es) per class\n{}\n\
         deployment memo: rebuild p50 {:.1} µs, cached p50 {:.2} µs ({:.0}x), \
         rebuilds saved in lane: {}\n",
        ESTABLISHES_PER_RUN,
        table.render(),
        dep.rebuild_p50_us,
        dep.cached_p50_us,
        dep.speedup_p50,
        dep.rebuilds_saved,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_workloads_cover_both_size_axes() {
        let w = standard_workloads();
        let names: Vec<&str> = w.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec!["vanilla_600", "obfs4_600", "vanilla_5000", "obfs4_5000"]
        );
        assert!(w[0].dep.consensus.len() >= 600);
        assert!(w[2].dep.consensus.len() >= 5000);
        // Deterministic: regenerating yields identical consensuses.
        let again = standard_workloads();
        for (a, b) in w.iter().zip(&again) {
            assert_eq!(a.dep, b.dep, "{} regenerated differently", a.name);
        }
    }

    #[test]
    fn bench_runs_and_emits_valid_shape() {
        let w = &standard_workloads()[0];
        let r = bench_class(w, 4);
        assert_eq!(r.name, "vanilla_600");
        assert!(r.relays >= 600);
        // The pick counters count per calling thread, so tests running
        // beside this one leave them alone and verify.sh's gates hold
        // here too.
        assert!(r.picks_per_establish > 0.0 && r.picks_per_establish <= 3.0);
        assert!(
            r.index_pick_fraction >= 0.99 && r.index_pick_fraction <= 1.0,
            "index fraction {}",
            r.index_pick_fraction
        );
        assert_eq!(r.allocs_per_establish, 0.0);
        assert!(r.idx_p50_us >= 0.0 && r.idx_p95_us >= r.idx_p50_us * 0.999);
        let dep = bench_deployment(4);
        assert_eq!(dep.rebuilds_saved, 4);
        let json = render_json(&[r], &dep, 4);
        assert!(json.contains("\"schema\": \"ptperf-bench-establish/v2\""));
        assert!(json.contains("\"vanilla_600\""));
        assert!(json.contains("\"deployment\""));
        assert!(!json.contains("\"reference\""));
        assert!(json.ends_with("\n"));
    }

    #[test]
    fn table_renders_every_class() {
        let results: Vec<ClassResult> = standard_workloads()
            .iter()
            .take(2)
            .map(|w| bench_class(w, 4))
            .collect();
        let dep = bench_deployment(4);
        let table = render_table(&results, &dep, 4);
        for name in ["vanilla_600", "obfs4_600", "deployment memo"] {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
    }
}
