//! The executor's headline guarantee, proven end to end: a parallel
//! campaign run is **bit-for-bit identical** to the sequential run at
//! any worker count, across experiment families and seeds — and a
//! panicking shard surfaces as an error without poisoning its siblings.

use ptperf::executor::{self, Parallelism, Unit};
use ptperf::experiments::{
    file_download, fixed_circuit, fixed_guard, location, medium, overhead, reliability,
    snowflake_load, speed_index, streaming, ttfb, website_curl, website_selenium,
};
use ptperf::scenario::Scenario;
use ptperf_bench::{available_targets, run_targets, RunScale, Runs};
use ptperf_transports::PtId;

const SEEDS: [u64; 2] = [11, 97];

/// The parallelism settings every experiment must be invariant under.
fn worker_grid() -> Vec<Parallelism> {
    vec![
        Parallelism::sequential(),
        Parallelism::new(2),
        Parallelism::new(8),
    ]
}

/// Bit-exact comparison of float series (`==` would also accept
/// `-0.0 == 0.0`; the guarantee is stronger than numeric equality).
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: {x} vs {y} differ in bits"
        );
    }
}

#[test]
fn website_curl_is_invariant_under_parallelism() {
    let cfg = website_curl::Config {
        sites_per_list: 12,
        repeats: 2,
    };
    for seed in SEEDS {
        let scenario = Scenario::baseline(seed);
        let reference = website_curl::run(&scenario, &cfg);
        for par in worker_grid() {
            let executed =
                executor::run_units(&par, website_curl::units(&scenario, &cfg)).expect("no panics");
            let result = website_curl::merge(executed.values);
            for pt in PtId::ALL_WITH_VANILLA {
                assert_bits_eq(
                    result.samples.samples(pt),
                    reference.samples.samples(pt),
                    &format!("seed {seed} {par:?} {pt}"),
                );
            }
            assert_eq!(result.render(), reference.render(), "seed {seed} {par:?}");
            assert!(executed
                .reports
                .iter()
                .enumerate()
                .all(|(i, r)| r.index == i));
        }
    }
}

#[test]
fn ttfb_is_invariant_under_parallelism() {
    let cfg = ttfb::Config { sites_per_list: 15 };
    for seed in SEEDS {
        let scenario = Scenario::baseline(seed);
        let reference = ttfb::run(&scenario, &cfg);
        for par in worker_grid() {
            let executed =
                executor::run_units(&par, ttfb::units(&scenario, &cfg)).expect("no panics");
            let result = ttfb::merge(executed.values);
            assert_eq!(result.ttfb.len(), reference.ttfb.len());
            for (pt, samples) in &reference.ttfb {
                assert_bits_eq(
                    &result.ttfb[pt],
                    samples,
                    &format!("seed {seed} {par:?} {pt}"),
                );
            }
            assert_eq!(result.render(), reference.render(), "seed {seed} {par:?}");
        }
    }
}

#[test]
fn file_download_is_invariant_under_parallelism() {
    let cfg = file_download::Config {
        attempts: 3,
        sizes: ptperf_web::FILE_SIZES,
    };
    for seed in SEEDS {
        let scenario = Scenario::baseline(seed);
        let reference = file_download::run(&scenario, &cfg);
        for par in worker_grid() {
            let executed = executor::run_units(&par, file_download::units(&scenario, &cfg))
                .expect("no panics");
            let result = file_download::merge(executed.values);
            for (pt, attempts) in &reference.attempts {
                let got = &result.attempts[pt];
                assert_eq!(got.len(), attempts.len());
                for (a, b) in got.iter().zip(attempts) {
                    assert_eq!(a.size, b.size);
                    assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits(), "{pt}");
                    assert_eq!(a.fraction.to_bits(), b.fraction.to_bits(), "{pt}");
                    assert_eq!(a.outcome, b.outcome);
                }
            }
            for pt in reference.paired.pts() {
                assert_bits_eq(
                    result.paired.samples(pt),
                    reference.paired.samples(pt),
                    &format!("seed {seed} {par:?} paired {pt}"),
                );
            }
            assert_eq!(result.render(), reference.render(), "seed {seed} {par:?}");
        }
    }
}

/// Every target at quick scale: the whole campaign in one pool.
fn whole_campaign(scenario: &Scenario, par: &Parallelism) -> Runs {
    run_targets(&available_targets(), scenario, RunScale::Quick, par).expect("no panics")
}

/// Family `R`'s result in each of two whole-campaign runs.
fn results<'a, R: 'static>(a: &'a Runs, b: &'a Runs) -> (&'a R, &'a R) {
    let result = |runs: &'a Runs| runs.result::<R>().expect("every family ran");
    (result(a), result(b))
}

#[test]
fn whole_campaign_is_invariant_under_parallelism() {
    let scenario = Scenario::baseline(23);
    let sequential = whole_campaign(&scenario, &Parallelism::sequential());
    let parallel = whole_campaign(&scenario, &Parallelism::new(4));

    let (seq, par) = results::<website_curl::Result>(&sequential, &parallel);
    for pt in PtId::ALL_WITH_VANILLA {
        assert_bits_eq(
            par.samples.samples(pt),
            seq.samples.samples(pt),
            &format!("campaign curl {pt}"),
        );
    }
    let (seq, par) = results::<website_selenium::Result>(&sequential, &parallel);
    assert_eq!(par.excluded, seq.excluded);
    let (seq, par) = results::<fixed_circuit::Result>(&sequential, &parallel);
    assert_bits_eq(&par.abs_diffs, &seq.abs_diffs, "campaign fixed_circuit");
    let (seq, par) = results::<fixed_guard::Result>(&sequential, &parallel);
    assert_bits_eq(&par.tor, &seq.tor, "campaign fixed_guard");
    let (seq, par) = results::<snowflake_load::Result>(&sequential, &parallel);
    assert_bits_eq(&par.pre, &seq.pre, "campaign snowflake pre");
    let (seq, par) = results::<location::Result>(&sequential, &parallel);
    assert_eq!(par.render(), seq.render(), "campaign location");
    let (seq, par) = results::<reliability::Result>(&sequential, &parallel);
    assert_eq!(par.render_stacked(), seq.render_stacked());
    let (seq, par) = results::<medium::Result>(&sequential, &parallel);
    assert_eq!(par.render(), seq.render());
    let (seq, par) = results::<overhead::Result>(&sequential, &parallel);
    assert_eq!(par.render(), seq.render());
    let (seq, par) = results::<speed_index::Result>(&sequential, &parallel);
    assert_eq!(par.render(), seq.render());
    let (seq, par) = results::<ttfb::Result>(&sequential, &parallel);
    assert_eq!(par.render(), seq.render());
    let (seq, par) = results::<streaming::Result>(&sequential, &parallel);
    assert_eq!(par.render(), seq.render());
    let (seq, par) = results::<file_download::Result>(&sequential, &parallel);
    assert_eq!(par.render(), seq.render());
    // A cross-family consistency property: the PTs that fail bulk
    // downloads are the ones excluded from Figure 5.
    for pt in reliability::WORST {
        assert!(seq.excluded().contains(&pt), "{pt} not excluded from fig5");
    }

    // Every target renders the same text over the same shards.
    let shards = |runs: &Runs| -> Vec<(String, usize, usize)> {
        runs.targets
            .iter()
            .flat_map(|t| &t.reports)
            .map(|r| (r.label.clone(), r.index, r.samples))
            .collect()
    };
    assert_eq!(shards(&parallel), shards(&sequential));
    assert!(
        shards(&sequential).len() > 20,
        "the campaign spans many shards"
    );
    for (a, b) in parallel.targets.iter().zip(&sequential.targets) {
        assert_eq!(a.text, b.text, "{}", a.name);
    }
    assert_eq!(
        format!("{:016x}", rendered_digest(&sequential)),
        CAMPAIGN_DIGEST,
        "the rendered campaign changed"
    );
}

/// FNV-1a-64 of the quick seed-23 campaign's rendered bytes: every
/// target's name and text in the order named, then every CSV document's
/// file stem and text.
///
/// A refactor of the rendering or statistics code must leave it alone.
/// A deliberate output change (a model change such as ROADMAP item 4)
/// updates this constant and states in CHANGES.md why the output moved.
const CAMPAIGN_DIGEST: &str = "b797c0201c781d59";

/// The digest behind [`CAMPAIGN_DIGEST`]. Each piece is followed by a
/// NUL byte, so text moved across a boundary changes the digest.
fn rendered_digest(runs: &Runs) -> u64 {
    let csv = runs.csv();
    let texts = runs.targets.iter().flat_map(|t| [t.name.as_str(), &t.text]);
    let docs = csv.iter().flat_map(|(stem, doc)| [*stem, doc.as_str()]);
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for piece in texts.chain(docs) {
        for &b in piece.as_bytes().iter().chain(&[0u8]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn panicking_shard_is_isolated_and_reported() {
    let mut units: Vec<Unit<u32>> = (0..8)
        .map(|i| Unit::new(format!("ok/{i}"), move || (i, 1)))
        .collect();
    units.insert(
        4,
        Unit::new("boom", || -> (u32, usize) { panic!("injected failure") }),
    );
    let err = executor::run_units(&Parallelism::new(3), units).unwrap_err();
    assert_eq!(err.failures.len(), 1);
    assert_eq!(err.failures[0].index, 4);
    assert_eq!(err.failures[0].label, "boom");
    assert!(err.failures[0].message.contains("injected failure"));
    assert_eq!(err.completed, 8, "sibling shards must all complete");
}

#[test]
fn panicking_experiment_shard_surfaces_as_exec_error() {
    // An experiment-level pool with one poisoned unit: the error names
    // the shard, and reruns without it succeed — the campaign is not
    // torn down by a single family's failure.
    let scenario = Scenario::baseline(5);
    let cfg = website_curl::Config {
        sites_per_list: 5,
        repeats: 1,
    };
    let mut units = website_curl::units(&scenario, &cfg);
    let n = units.len();
    units.push(Unit::new("poisoned", || panic!("bad shard")));
    let err = executor::run_units(&Parallelism::new(4), units).unwrap_err();
    assert_eq!(err.completed, n);
    assert_eq!(err.failures[0].label, "poisoned");

    let ok = executor::run_units(&Parallelism::new(4), website_curl::units(&scenario, &cfg))
        .expect("clean pool succeeds");
    assert_eq!(ok.values.len(), n);
}
