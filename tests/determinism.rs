//! Determinism guarantees: the whole stack is reproducible bit-for-bit
//! given a scenario seed, and genuinely different across seeds.

use ptperf::executor::{run_units, Parallelism, Unit};
use ptperf::experiments::{file_download, ttfb, website_curl, website_selenium};
use ptperf::scenario::Scenario;
use ptperf_transports::PtId;

/// For every `i`, unit `i` of a unit list built on its own fresh
/// `Scenario::baseline(seed)`: no two units share a deployment memo, so
/// each builds its own deployment from the seed. (Site lists are shared
/// by every live scenario, so this lane does not rebuild them.)
fn rebuilt_per_unit<T>(seed: u64, units: impl Fn(&Scenario) -> Vec<Unit<T>>) -> Vec<Unit<T>> {
    let n = units(&Scenario::baseline(seed)).len();
    (0..n)
        .map(|i| units(&Scenario::baseline(seed)).swap_remove(i))
        .collect()
}

/// Runs each unit in a pool of its own, so every unit starts on a cold
/// `UnitScratch`; values come back in unit order.
fn one_pool_per_unit<T: Send>(par: &Parallelism, units: Vec<Unit<T>>) -> Vec<T> {
    units
        .into_iter()
        .flat_map(|unit| run_units(par, vec![unit]).expect("no shard fails").values)
        .collect()
}

#[test]
fn same_seed_identical_curl_results() {
    let cfg = website_curl::Config {
        sites_per_list: 15,
        repeats: 2,
    };
    let a = website_curl::run(&Scenario::baseline(99), &cfg);
    let b = website_curl::run(&Scenario::baseline(99), &cfg);
    for pt in PtId::ALL_WITH_VANILLA {
        assert_eq!(
            a.samples.samples(pt),
            b.samples.samples(pt),
            "{pt} diverged across identical runs"
        );
    }
}

#[test]
fn different_seed_different_results() {
    let cfg = website_curl::Config {
        sites_per_list: 15,
        repeats: 1,
    };
    let a = website_curl::run(&Scenario::baseline(1), &cfg);
    let b = website_curl::run(&Scenario::baseline(2), &cfg);
    assert_ne!(
        a.samples.samples(PtId::Vanilla),
        b.samples.samples(PtId::Vanilla)
    );
}

#[test]
fn same_seed_identical_selenium_results() {
    let cfg = website_selenium::Config {
        sites_per_list: 10,
        repeats: 1,
    };
    let a = website_selenium::run(&Scenario::baseline(7), &cfg);
    let b = website_selenium::run(&Scenario::baseline(7), &cfg);
    assert_eq!(
        a.samples.samples(PtId::Obfs4),
        b.samples.samples(PtId::Obfs4)
    );
    assert_eq!(a.excluded, b.excluded);
}

#[test]
fn same_seed_identical_file_download_results() {
    let cfg = file_download::Config {
        attempts: 3,
        sizes: ptperf_web::FILE_SIZES,
    };
    let a = file_download::run(&Scenario::baseline(63), &cfg);
    let b = file_download::run(&Scenario::baseline(63), &cfg);
    assert_eq!(a.attempts.len(), b.attempts.len());
    for (pt, list) in &a.attempts {
        let other = &b.attempts[pt];
        assert_eq!(list.len(), other.len(), "{pt}");
        for (x, y) in list.iter().zip(other) {
            assert_eq!(x.size, y.size, "{pt}");
            assert_eq!(x.elapsed.to_bits(), y.elapsed.to_bits(), "{pt}");
            assert_eq!(x.fraction.to_bits(), y.fraction.to_bits(), "{pt}");
            assert_eq!(x.outcome, y.outcome, "{pt}");
        }
    }
    assert_eq!(a.excluded(), b.excluded());
}

#[test]
fn different_seed_different_file_download_results() {
    let cfg = file_download::Config {
        attempts: 3,
        sizes: ptperf_web::FILE_SIZES,
    };
    let a = file_download::run(&Scenario::baseline(63), &cfg);
    let b = file_download::run(&Scenario::baseline(64), &cfg);
    assert_ne!(a.paired.samples(PtId::Obfs4), b.paired.samples(PtId::Obfs4));
}

#[test]
fn same_seed_identical_ttfb_results() {
    let cfg = ttfb::Config { sites_per_list: 12 };
    let a = ttfb::run(&Scenario::baseline(17), &cfg);
    let b = ttfb::run(&Scenario::baseline(17), &cfg);
    assert_eq!(a.ttfb.len(), b.ttfb.len());
    for (pt, samples) in &a.ttfb {
        assert_eq!(samples, &b.ttfb[pt], "{pt} diverged across identical runs");
    }
    assert_eq!(a.render(), b.render());
}

#[test]
fn different_seed_different_ttfb_results() {
    let cfg = ttfb::Config { sites_per_list: 12 };
    let a = ttfb::run(&Scenario::baseline(17), &cfg);
    let b = ttfb::run(&Scenario::baseline(18), &cfg);
    assert_ne!(a.ttfb[&PtId::Vanilla], b.ttfb[&PtId::Vanilla]);
}

#[test]
fn experiments_draw_decorrelated_streams() {
    // Two different experiments under the same scenario must not reuse
    // the same random stream (their tags differ).
    let s = Scenario::baseline(5);
    let mut a = s.rng("fig2a/obfs4");
    let mut b = s.rng("fig6/obfs4");
    let equal = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
    assert_eq!(equal, 0);
}

#[test]
fn website_corpus_is_stable_across_calls() {
    use ptperf_web::{SiteList, Website};
    let a = Website::top(SiteList::Tranco, 50);
    let b = Website::top(SiteList::Tranco, 50);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.main_size, y.main_size);
        assert_eq!(x.resources, y.resources);
        assert_eq!(x.server, y.server);
    }
}

#[test]
fn shared_deployment_matches_per_unit_rebuild_bit_for_bit() {
    // The scenario's deployment memo shares one build across all units;
    // the rebuilt lane gives every unit a fresh scenario, so each builds
    // its own deployment from the seed. Raw samples and rendered output
    // must be bit-identical either way, at any worker count.
    let cfg = file_download::Config {
        attempts: 3,
        sizes: ptperf_web::FILE_SIZES,
    };
    let shared = Scenario::baseline(29);
    for workers in [1usize, 4] {
        let par = Parallelism::new(workers);
        let memoized = run_units(&par, file_download::units(&shared, &cfg)).unwrap();
        let a = file_download::merge(memoized.values);
        let rebuilt = rebuilt_per_unit(29, |sc| file_download::units(sc, &cfg));
        let b = file_download::merge(run_units(&par, rebuilt).unwrap().values);
        for (pt, list) in &a.attempts {
            let other = &b.attempts[pt];
            assert_eq!(list.len(), other.len(), "{pt} at {workers} workers");
            for (x, y) in list.iter().zip(other) {
                assert_eq!(
                    x.elapsed.to_bits(),
                    y.elapsed.to_bits(),
                    "{pt} at {workers} workers: shared vs rebuilt deployment diverged"
                );
                assert_eq!(x.fraction.to_bits(), y.fraction.to_bits(), "{pt}");
                assert_eq!(x.outcome, y.outcome, "{pt}");
            }
        }
        assert_eq!(
            a.render(),
            b.render(),
            "render diverged at {workers} workers"
        );
    }
}

#[test]
fn warm_scratch_matches_cold_scratch_bit_for_bit() {
    // One warm UnitScratch reused across every unit on a worker vs a
    // cold scratch per unit (each unit in a pool of its own) must be
    // bit-identical at 1 and 4 workers — the scratch holds buffers,
    // never state that feeds the measurement.
    let cfg = website_selenium::Config {
        sites_per_list: 8,
        repeats: 1,
    };
    let scenario = Scenario::baseline(53);
    for workers in [1usize, 4] {
        let par = Parallelism::new(workers);
        let warm = run_units(&par, website_selenium::units(&scenario, &cfg)).unwrap();
        let a = website_selenium::merge(warm.values);
        let cold = one_pool_per_unit(&par, website_selenium::units(&scenario, &cfg));
        let b = website_selenium::merge(cold);
        for pt in a.samples.pts() {
            let xs = a.samples.samples(pt);
            let ys = b.samples.samples(pt);
            assert_eq!(xs.len(), ys.len(), "{pt} at {workers} workers");
            for (x, y) in xs.iter().zip(ys) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{pt} at {workers} workers: warm vs cold scratch diverged"
                );
            }
        }
        assert_eq!(a.excluded, b.excluded, "at {workers} workers");
    }
}

#[test]
fn cached_sites_match_per_unit_rebuilds_bit_for_bit() {
    // The site memo shares one Arc<[Website]> build across every unit
    // (and every live scenario); the rebuilt lane runs the same curl
    // units by hand, each on a corpus it generates afresh with
    // `measure::target_sites`. Samples must be bit-identical either way
    // at 1 and 4 workers.
    use ptperf::executor::Unit;
    use ptperf::experiments::figure_order;
    use ptperf::measure::{curl_site_averages, target_sites};
    use ptperf_web::FaultSession;
    let cfg = website_curl::Config {
        sites_per_list: 10,
        repeats: 1,
    };
    let shared = Scenario::baseline(37);
    let rebuilt = || -> Vec<Unit<website_curl::Shard>> {
        figure_order()
            .into_iter()
            .map(|pt| {
                let scenario = shared.clone();
                Unit::pooled(format!("fig2a/{pt}"), move |rec, scratch| {
                    let sites = target_sites(cfg.sites_per_list);
                    let avgs = curl_site_averages(
                        &scenario,
                        pt,
                        &sites,
                        cfg.repeats,
                        &mut scenario.rng(&format!("fig2a/{pt}")),
                        rec,
                        &mut scratch.establish,
                        &mut FaultSession::off(),
                    );
                    let n = avgs.len();
                    ((pt, avgs), n)
                })
            })
            .collect()
    };
    for workers in [1usize, 4] {
        let par = Parallelism::new(workers);
        let cached = run_units(&par, website_curl::units(&shared, &cfg)).unwrap();
        let a = website_curl::merge(cached.values);
        let b = website_curl::merge(run_units(&par, rebuilt()).unwrap().values);
        for pt in PtId::ALL_WITH_VANILLA {
            let xs = a.samples.samples(pt);
            let ys = b.samples.samples(pt);
            assert_eq!(xs.len(), ys.len(), "{pt} at {workers} workers");
            assert!(!xs.is_empty(), "{pt} at {workers} workers");
            for (x, y) in xs.iter().zip(ys) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{pt} at {workers} workers: cached vs rebuilt sites diverged"
                );
            }
        }
    }
}

#[test]
fn cached_deployment_equals_a_fresh_standard_build() {
    use ptperf_transports::Deployment;
    let s = Scenario::baseline(31);
    let cached = s.deployment();
    let again = s.deployment();
    assert_eq!(*cached, *again);
    assert_eq!(
        *cached,
        Deployment::standard(31, s.server_region),
        "memoized deployment drifted from a fresh build"
    );
}

#[test]
fn phase_histograms_are_deterministic_and_merge_order_independent() {
    use ptperf::executor::Record;
    use ptperf_bench::{run_targets, RunScale, TargetRun};
    use ptperf_obs::Hist;
    let scenario = Scenario::baseline(29);
    let run = |par: Parallelism| -> TargetRun {
        run_targets(
            &["fig5"],
            &scenario,
            RunScale::Quick,
            &par.with_recording(Record::Trace),
        )
        .expect("no shard fails")
        .targets
        .remove(0)
    };
    let seq = run(Parallelism::sequential());
    let par = run(Parallelism::new(4));
    // Per-shard histograms are identical field for field across worker
    // counts — the distributional layer inherits the determinism of the
    // values it observes.
    assert_eq!(seq.reports.len(), par.reports.len());
    for (a, b) in seq.reports.iter().zip(&par.reports) {
        assert_eq!(a.label, b.label);
        assert!(
            !a.obs.hists.is_empty(),
            "{}: no histograms recorded",
            a.label
        );
        assert_eq!(
            a.obs.hists, b.obs.hists,
            "{}: histograms diverged across worker counts",
            a.label
        );
    }
    // Merging the per-shard `total` histograms forward and in reverse
    // yields the same histogram: exact merge, any shard order.
    let totals: Vec<&Hist> = seq
        .reports
        .iter()
        .filter_map(|r| r.obs.hist("total"))
        .collect();
    assert!(
        totals.len() > 1,
        "fig5 shards should each carry a total hist"
    );
    let mut forward = Hist::new();
    for h in &totals {
        forward.merge(h);
    }
    let mut reverse = Hist::new();
    for h in totals.iter().rev() {
        reverse.merge(h);
    }
    assert_eq!(forward, reverse, "merge must be shard-order-independent");
    assert_eq!(
        forward.count(),
        totals.iter().map(|h| h.count()).sum::<u64>()
    );
    assert!(forward.p50() <= forward.p90() && forward.p90() <= forward.p99());
    assert!(forward.p99() <= forward.max_ns());
}
