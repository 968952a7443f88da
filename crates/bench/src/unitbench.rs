//! `repro --bench unit`: the measurement-unit pipeline benchmark
//! harness behind `BENCH_unit.json`.
//!
//! Companion to [`crate::flowbench`] and [`crate::establishbench`], one
//! level up the stack: instead of timing a scheduler step or a single
//! establish, it times whole *measurement units* — the
//! establish-then-measure loops the executor actually runs, per
//! workload class (browser page loads, curl fetches, file downloads).
//! For each class it measures warm pooled-pipeline wall time (one
//! persistent [`UnitScratch`] reused across units, indexed relay picks,
//! page loads on warm buffers) against the retained allocating
//! reference path (a cold establish scratch per unit with full-scan
//! relay picks, a cold page scratch per page load), the units per
//! second the pooled lane sustains, and whether the warm scratch still
//! allocates.
//! A separate section times the scenario's site-workload memo: cached
//! `Arc<[Website]>` fetch vs a full corpus rebuild.
//!
//! Determinism note: every timed run replays the same unit from a fixed
//! seed, so the *work* is identical run to run and across commits; only
//! wall-clock numbers move. Warmups assert that the pooled and
//! reference lanes produce bit-identical measurements — the benchmark
//! refuses to time two pipelines that disagree. The harness fails hard
//! on NaN or non-finite measurements but never on thresholds: speed
//! regressions are for review to catch, not CI flakes.

use std::sync::Arc;

use ptperf::executor::UnitScratch;
use ptperf::scenario::Scenario;
use ptperf_obs::{json, NullRecorder};
use ptperf_sim::SimRng;
use ptperf_transports::{transport_for, EstablishScratch, PtId};
use ptperf_web::{curl, filedl, load_page_pooled, PageScratch, SiteList, Website};

use crate::emit;

/// How many timed runs (each one full unit) per class (override with
/// the `PTPERF_BENCH_RUNS` environment variable; the verify gate uses
/// a small value).
pub const DEFAULT_RUNS: usize = 200;

/// What one unit of a class measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// Selenium-style page loads (establish + resources sharing the link).
    Browser,
    /// Curl default-page fetches (establish + analytic transfer).
    Curl,
    /// Bulk file downloads (establish + chunked transfer with hazards).
    Filedl,
}

/// One benchmark class: a unit kind over a transport and a work-item
/// count.
pub struct Workload {
    /// Class name as it appears in `BENCH_unit.json`.
    pub name: &'static str,
    /// What each unit measures.
    pub kind: UnitKind,
    /// The transport the unit establishes through.
    pub pt: PtId,
    /// Measurements per unit (sites visited / files downloaded).
    pub work_items: usize,
}

/// The measured result for one class.
#[derive(Debug)]
pub struct ClassResult {
    /// Class name.
    pub name: &'static str,
    /// Measurements per unit.
    pub work_items: usize,
    /// Pooled-pipeline p50 wall time per unit, microseconds.
    pub opt_p50_us: f64,
    /// Pooled-pipeline p95 wall time per unit, microseconds.
    pub opt_p95_us: f64,
    /// Reference-path p50 wall time per unit, microseconds.
    pub ref_p50_us: f64,
    /// Reference-path p95 wall time per unit, microseconds.
    pub ref_p95_us: f64,
    /// Units per second at the pooled p50.
    pub units_per_sec: f64,
    /// `ref_p50 / opt_p50` — the headline speedup.
    pub speedup_p50: f64,
    /// Scratch-buffer growths during the timed pooled runs divided by
    /// timed units. Should be 0 once warm; any other value means the
    /// unit pipeline still allocates.
    pub allocs_per_unit: f64,
}

/// Site-workload-memo timings: what `Scenario::target_sites` sharing
/// saves.
#[derive(Debug)]
pub struct SiteResult {
    /// Full corpus rebuild p50 (`Website::top`), microseconds.
    pub rebuild_p50_us: f64,
    /// Cached fetch p50 (Arc clone out of the memo), microseconds.
    pub cached_p50_us: f64,
    /// `rebuild_p50 / cached_p50`.
    pub speedup_p50: f64,
    /// `site/rebuilds_saved` ticks observed during the cached lane.
    pub rebuilds_saved: u64,
}

/// The standard classes. The browser class is the headline (page loads
/// dominate its unit time); curl and filedl cover the other two
/// measurement shapes the campaign runs. Fixed seeds keep workloads
/// byte-for-byte identical across runs.
pub fn standard_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "browser_obfs4_16",
            kind: UnitKind::Browser,
            pt: PtId::Obfs4,
            work_items: 16,
        },
        Workload {
            name: "curl_vanilla_32",
            kind: UnitKind::Curl,
            pt: PtId::Vanilla,
            work_items: 32,
        },
        Workload {
            name: "filedl_obfs4_16",
            kind: UnitKind::Filedl,
            pt: PtId::Obfs4,
            work_items: 16,
        },
    ]
}

fn assert_finite(name: &str, what: &str, x: f64) {
    emit::assert_finite(&format!("unit bench {name}"), what, x);
}

/// The fixture a class runs against: one scenario's deployment, access
/// options, and memoized site list.
pub struct Fixture {
    scenario: Scenario,
    sites: Arc<[Website]>,
}

impl Fixture {
    /// Builds the fixed-seed fixture for one class.
    pub fn new(w: &Workload) -> Fixture {
        let scenario = Scenario::baseline(17);
        let sites = scenario.top_sites(SiteList::Tranco, w.work_items);
        Fixture { scenario, sites }
    }
}

/// Runs one unit through the pooled pipeline and folds every
/// measurement into a bit-exact checksum.
pub fn run_unit_pooled(w: &Workload, fx: &Fixture, scratch: &mut UnitScratch) -> u64 {
    let transport = transport_for(w.pt);
    let dep = fx.scenario.deployment();
    let opts = fx.scenario.access_options();
    let mut rng = SimRng::new(29);
    let mut sum = 0u64;
    for site in fx.sites.iter() {
        let ch =
            transport.establish_with(&dep, &opts, site.server, &mut rng, &mut scratch.establish);
        sum = sum.wrapping_add(match w.kind {
            UnitKind::Browser => {
                match load_page_pooled(&ch, site, &mut rng, &mut NullRecorder, &mut scratch.page) {
                    Ok(p) => p.total.as_secs_f64().to_bits(),
                    Err(_) => 1,
                }
            }
            UnitKind::Curl => curl::fetch(&ch, site, &mut rng)
                .total
                .as_secs_f64()
                .to_bits(),
            UnitKind::Filedl => filedl::download(&ch, 2_000_000, &mut rng)
                .elapsed
                .as_secs_f64()
                .to_bits(),
        });
    }
    sum
}

/// Runs one unit through the retained allocating reference path: a cold
/// full-scan establish scratch for the whole unit and a cold page
/// scratch for every page load. Bit-identical to the pooled lane by
/// construction — the warmups assert it.
pub fn run_unit_reference(w: &Workload, fx: &Fixture) -> u64 {
    let transport = transport_for(w.pt);
    let dep = fx.scenario.deployment();
    let opts = fx.scenario.access_options();
    let mut scratch = EstablishScratch::reference_oracle();
    let mut rng = SimRng::new(29);
    let mut sum = 0u64;
    for site in fx.sites.iter() {
        let ch = transport.establish_with(&dep, &opts, site.server, &mut rng, &mut scratch);
        sum = sum.wrapping_add(match w.kind {
            UnitKind::Browser => {
                let mut page = PageScratch::new();
                match load_page_pooled(&ch, site, &mut rng, &mut NullRecorder, &mut page) {
                    Ok(p) => p.total.as_secs_f64().to_bits(),
                    Err(_) => 1,
                }
            }
            UnitKind::Curl => curl::fetch(&ch, site, &mut rng)
                .total
                .as_secs_f64()
                .to_bits(),
            UnitKind::Filedl => filedl::download(&ch, 2_000_000, &mut rng)
                .elapsed
                .as_secs_f64()
                .to_bits(),
        });
    }
    sum
}

/// Benchmarks one class: warmups prove the pooled lane is bit-identical
/// to the reference path, then `runs` timed units per lane, every run
/// replaying the same fixed-seed unit.
pub fn bench_class(w: &Workload, runs: usize) -> ClassResult {
    let fx = Fixture::new(w);
    let mut scratch = UnitScratch::new();

    // Warmup + equivalence gate: the pooled pipeline must measure
    // exactly what the allocating reference path measures.
    let baseline = run_unit_reference(w, &fx);
    for warm in 0..3 {
        let pooled = run_unit_pooled(w, &fx, &mut scratch);
        assert_eq!(
            pooled, baseline,
            "unit bench {}: pooled lane diverged from reference at warmup {warm}",
            w.name
        );
    }

    let grows_before = scratch.grows();
    let opt_us = emit::timed_runs(runs, || run_unit_pooled(w, &fx, &mut scratch));
    let grows_during = scratch.grows() - grows_before;

    let ref_us = emit::timed_runs(runs, || run_unit_reference(w, &fx));

    let (opt_p50, opt_p95) = emit::p50_p95(&opt_us);
    let (ref_p50, ref_p95) = emit::p50_p95(&ref_us);
    let units_per_sec = emit::per_sec(1.0, opt_p50);
    let allocs_per_unit = grows_during as f64 / runs as f64;

    for (what, x) in [
        ("pooled p50", opt_p50),
        ("pooled p95", opt_p95),
        ("reference p50", ref_p50),
        ("reference p95", ref_p95),
        ("allocs/unit", allocs_per_unit),
    ] {
        assert_finite(w.name, what, x);
    }

    ClassResult {
        name: w.name,
        work_items: w.work_items,
        opt_p50_us: opt_p50,
        opt_p95_us: opt_p95,
        ref_p50_us: ref_p50,
        ref_p95_us: ref_p95,
        units_per_sec,
        speedup_p50: emit::speedup(ref_p50, opt_p50),
        allocs_per_unit,
    }
}

/// Times the site-workload memo: p50 of a full corpus rebuild (a direct
/// `Website::top` call) vs a cached fetch, plus the
/// `site/rebuilds_saved` ticks the cached lane produced.
pub fn bench_sites(runs: usize) -> SiteResult {
    const CORPUS: usize = 200;
    let rebuild_us = emit::timed_runs(runs, || Website::top(SiteList::Tranco, CORPUS));

    let scenario = Scenario::baseline(23);
    let sites = scenario.top_sites(SiteList::Tranco, CORPUS); // populate the memo
    std::hint::black_box(sites);
    let saved_before = ptperf_obs::perf::snapshot();
    let cached_us = emit::timed_runs(runs, || scenario.top_sites(SiteList::Tranco, CORPUS));
    let rebuilds_saved = ptperf_obs::perf::snapshot()
        .delta_since(&saved_before)
        .site_rebuilds_saved;

    let (rebuild_p50, _) = emit::p50_p95(&rebuild_us);
    let (cached_p50, _) = emit::p50_p95(&cached_us);
    for (what, x) in [("rebuild p50", rebuild_p50), ("cached p50", cached_p50)] {
        assert_finite("sites", what, x);
    }

    SiteResult {
        rebuild_p50_us: rebuild_p50,
        cached_p50_us: cached_p50,
        speedup_p50: emit::speedup(rebuild_p50, cached_p50),
        rebuilds_saved,
    }
}

/// Runs every standard class plus the site-memo section and renders
/// `BENCH_unit.json`.
pub fn run_unit_bench(runs: usize) -> (Vec<ClassResult>, SiteResult, String) {
    let results: Vec<ClassResult> = standard_workloads()
        .iter()
        .map(|w| bench_class(w, runs))
        .collect();
    let sites = bench_sites(runs);
    let doc = render_json(&results, &sites, runs);
    (results, sites, doc)
}

/// Renders the results as the `BENCH_unit.json` document.
pub fn render_json(results: &[ClassResult], sites: &SiteResult, runs: usize) -> String {
    let classes: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": {}, \"work_items\": {}, \"pooled\": {{\"p50_us\": {}, \"p95_us\": {}}}, \
                 \"reference\": {{\"p50_us\": {}, \"p95_us\": {}}}, \"units_per_sec\": {}, \
                 \"speedup_p50\": {}, \"allocs_per_unit\": {}}}",
                json::string(r.name),
                r.work_items,
                json::number(r.opt_p50_us),
                json::number(r.opt_p95_us),
                json::number(r.ref_p50_us),
                json::number(r.ref_p95_us),
                json::number(r.units_per_sec),
                json::number(r.speedup_p50),
                json::number(r.allocs_per_unit),
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"ptperf-bench-unit/v1\",\n  \"runs_per_class\": {},\n  \"classes\": [\n{}\n  ],\n  \
         \"sites\": {{\"rebuild_p50_us\": {}, \"cached_p50_us\": {}, \"speedup_p50\": {}, \
         \"rebuilds_saved\": {}}}\n}}\n",
        runs,
        classes.join(",\n"),
        json::number(sites.rebuild_p50_us),
        json::number(sites.cached_p50_us),
        json::number(sites.speedup_p50),
        sites.rebuilds_saved,
    )
}

/// Renders a human-readable summary table for stdout.
pub fn render_table(results: &[ClassResult], sites: &SiteResult, runs: usize) -> String {
    let mut table = ptperf_stats::Table::new([
        "class",
        "items",
        "pooled p50 (µs)",
        "pooled p95 (µs)",
        "ref p50 (µs)",
        "speedup",
        "units/s",
        "allocs/unit",
    ]);
    for r in results {
        table.row([
            r.name.to_string(),
            r.work_items.to_string(),
            format!("{:.1}", r.opt_p50_us),
            format!("{:.1}", r.opt_p95_us),
            format!("{:.1}", r.ref_p50_us),
            format!("{:.2}x", r.speedup_p50),
            format!("{:.0}", r.units_per_sec),
            format!("{:.4}", r.allocs_per_unit),
        ]);
    }
    format!(
        "Measurement-unit benchmark — {runs} run(s) per class\n{}\n\
         site memo: rebuild p50 {:.1} µs, cached p50 {:.2} µs ({:.0}x), \
         rebuilds saved in lane: {}\n",
        table.render(),
        sites.rebuild_p50_us,
        sites.cached_p50_us,
        sites.speedup_p50,
        sites.rebuilds_saved,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_workloads_cover_every_kind() {
        let w = standard_workloads();
        let names: Vec<&str> = w.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec!["browser_obfs4_16", "curl_vanilla_32", "filedl_obfs4_16"]
        );
        assert!(w.iter().any(|w| w.kind == UnitKind::Browser));
        assert!(w.iter().any(|w| w.kind == UnitKind::Curl));
        assert!(w.iter().any(|w| w.kind == UnitKind::Filedl));
    }

    #[test]
    fn bench_runs_and_emits_valid_shape() {
        let w = &standard_workloads()[0];
        let r = bench_class(w, 4);
        assert_eq!(r.name, "browser_obfs4_16");
        assert_eq!(r.work_items, 16);
        assert_eq!(r.allocs_per_unit, 0.0, "warm browser unit still allocates");
        assert!(r.opt_p50_us >= 0.0 && r.opt_p95_us >= r.opt_p50_us * 0.999);
        let sites = bench_sites(4);
        assert_eq!(sites.rebuilds_saved, 4);
        let json = render_json(&[r], &sites, 4);
        assert!(json.contains("\"schema\": \"ptperf-bench-unit/v1\""));
        assert!(json.contains("\"browser_obfs4_16\""));
        assert!(json.contains("\"sites\""));
        assert!(json.ends_with("\n"));
    }

    #[test]
    fn warm_units_are_allocation_free_for_every_class() {
        for w in standard_workloads() {
            let r = bench_class(&w, 4);
            assert_eq!(
                r.allocs_per_unit, 0.0,
                "{}: warm unit pipeline still allocates",
                w.name
            );
        }
    }

    #[test]
    fn table_renders_every_class() {
        let results: Vec<ClassResult> = standard_workloads()
            .iter()
            .map(|w| bench_class(w, 4))
            .collect();
        let sites = bench_sites(4);
        let table = render_table(&results, &sites, 4);
        for name in [
            "browser_obfs4_16",
            "curl_vanilla_32",
            "filedl_obfs4_16",
            "site memo",
        ] {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
    }
}
