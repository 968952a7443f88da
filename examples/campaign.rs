//! Scenario: run the whole measurement campaign (every experiment
//! family) at reduced scale and print a one-screen digest — the "did
//! my change break any paper finding?" smoke run.
//!
//! ```sh
//! cargo run --release --example campaign
//! ```
//!
//! Every family runs in one pool of the work-claiming executor, with
//! one worker per hardware thread; results are bit-for-bit identical
//! to a sequential run (see `ptperf::executor`).

use std::time::Instant;

use ptperf::campaign::render_plan;
use ptperf::executor::{Parallelism, Record};
use ptperf::experiments::{
    file_download, fixed_circuit, fixed_guard, location, medium, overhead, reliability,
    snowflake_load, speed_index, ttfb, website_curl, website_selenium,
};
use ptperf::scenario::Scenario;
use ptperf_bench::{available_targets, obs_export, run_targets, RunScale, Runs};
use ptperf_transports::PtId;

/// The merged result of the family whose result type is `R`.
fn result<R: 'static>(runs: &Runs) -> &R {
    runs.result().expect("every family ran")
}

fn main() {
    println!("{}", render_plan());

    let scenario = Scenario::baseline(42);
    // Recording fills the profile's event and sim-time columns; the
    // results are the same with it off.
    let par = Parallelism::auto().with_recording(Record::Trace);
    println!(
        "Running all experiments at quick scale (seed 42, {} workers)...\n",
        par.workers
    );
    let started = Instant::now();
    let runs = run_targets(&available_targets(), &scenario, RunScale::Quick, &par)
        .expect("campaign units do not panic");
    println!(
        "Campaign execution — {:.2} s elapsed",
        started.elapsed().as_secs_f64()
    );
    println!("{}", obs_export::profile_table(&runs.targets));

    println!("=== Digest of paper findings ===\n");

    let curl = &result::<website_curl::Result>(&runs).samples;
    println!(
        "Fig 2a (curl medians): tor {:.1}s, obfs4 {:.1}s, dnstt {:.1}s, meek {:.1}s, \
         camoufler {:.1}s, marionette {:.1}s",
        curl.median(PtId::Vanilla),
        curl.median(PtId::Obfs4),
        curl.median(PtId::Dnstt),
        curl.median(PtId::Meek),
        curl.median(PtId::Camoufler),
        curl.median(PtId::Marionette),
    );

    let sel = &result::<website_selenium::Result>(&runs).samples;
    println!(
        "Fig 2b (selenium means): tor {:.1}s vs obfs4 {:.1}s / webtunnel {:.1}s / conjure {:.1}s \
         — set-1 PTs beat vanilla",
        sel.mean(PtId::Vanilla),
        sel.mean(PtId::Obfs4),
        sel.mean(PtId::WebTunnel),
        sel.mean(PtId::Conjure),
    );

    let circuit = result::<fixed_circuit::Result>(&runs);
    let t = circuit.ttest(PtId::Obfs4, PtId::Vanilla);
    println!(
        "Fig 3 (fixed circuit): obfs4−tor mean diff {:.2}s (P={}) — the null result; \
         {:.0}% of |diffs| < 5s",
        t.mean_diff,
        t.p_display(),
        100.0 * circuit.diffs_below(5.0)
    );

    let t = result::<fixed_guard::Result>(&runs).ttest();
    println!(
        "Fig 4 (fixed guard): obfs4−tor mean diff {:.2}s — first hop governs performance",
        t.mean_diff
    );

    let excluded: Vec<&str> = result::<file_download::Result>(&runs)
        .excluded()
        .iter()
        .map(|p| p.name())
        .collect();
    println!(
        "Fig 5 (files): excluded for unreliability: {}",
        excluded.join(", ")
    );

    let ttfb = result::<ttfb::Result>(&runs);
    println!(
        "Fig 6 (TTFB): sites <5s — tor {:.0}%, meek {:.0}%, marionette {:.0}%",
        100.0 * ttfb.fraction_below(PtId::Vanilla, 5.0),
        100.0 * ttfb.fraction_below(PtId::Meek, 5.0),
        100.0 * ttfb.fraction_below(PtId::Marionette, 5.0),
    );

    use ptperf_sim::Location;
    let location = result::<location::Result>(&runs);
    println!(
        "Fig 7 (location): obfs4 medians BLR {:.1}s / LON {:.1}s / TORO {:.1}s — Asia slowest, \
         ordering invariant",
        location.median_by_client(Location::Bangalore, PtId::Obfs4),
        location.median_by_client(Location::London, PtId::Obfs4),
        location.median_by_client(Location::Toronto, PtId::Obfs4),
    );

    let reliability = result::<reliability::Result>(&runs);
    println!(
        "Fig 8 (reliability): incomplete fractions — meek {:.0}%, dnstt {:.0}%, snowflake {:.0}%",
        100.0 * reliability.incomplete_fraction(PtId::Meek),
        100.0 * reliability.incomplete_fraction(PtId::Dnstt),
        100.0 * reliability.incomplete_fraction(PtId::Snowflake),
    );

    println!(
        "§4.7 (medium): rank correlation wired↔wireless {:.2} — trends preserved",
        result::<medium::Result>(&runs).rank_correlation()
    );

    let overhead = result::<overhead::Result>(&runs);
    println!(
        "Fig 9 (overhead): marionette {:.1}s vs obfs4 {:.1}s — marionette is the only outlier",
        overhead.mean_overhead(PtId::Marionette),
        overhead.mean_overhead(PtId::Obfs4),
    );

    let t = result::<snowflake_load::Result>(&runs).ttest();
    println!(
        "Fig 10 (surge): snowflake pre−post mean diff {:.2}s (P={})",
        t.mean_diff,
        t.p_display()
    );

    let speed_index = result::<speed_index::Result>(&runs);
    println!(
        "Fig 11 (speed index): SI < page load for every PT (e.g. tor {:.1}s vs {:.1}s)",
        speed_index.speed_index.median(PtId::Vanilla),
        speed_index.load_time.median(PtId::Vanilla),
    );
}
