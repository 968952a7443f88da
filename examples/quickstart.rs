//! Quickstart: measure one website fetch through every transport and
//! print the comparison — the library's core loop in ~40 lines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ptperf::scenario::Scenario;
use ptperf_sim::Location;
use ptperf_transports::{all_transports, AccessOptions, PtId};
use ptperf_web::{curl, SiteList, Website};

fn main() {
    // A scenario fixes the world: relay consensus, vantage points, load.
    // Same seed ⇒ identical results, bit for bit.
    let scenario = Scenario::baseline(42);
    let deployment = scenario.deployment();
    let opts = AccessOptions::new(Location::London);

    // One synthetic Tranco site (deterministic per rank).
    let site = Website::generate(SiteList::Tranco, 7);
    println!(
        "Fetching {} ({} KB main page, server {}) via every transport:\n",
        site.name(),
        site.main_size / 1000,
        site.server
    );

    println!(
        "{:<12} {:>10} {:>10}  outcome",
        "transport", "ttfb (s)", "total (s)"
    );
    for transport in all_transports() {
        // Average a few fetches: every establishment samples fresh
        // network conditions, like running curl five times.
        let mut rng = scenario.rng(&format!("quickstart/{}", transport.id()));
        let n = 5;
        let mut ttfb = 0.0;
        let mut total = 0.0;
        let mut ok = 0;
        for _ in 0..n {
            let channel = transport.establish(&deployment, &opts, site.server, &mut rng);
            let fetch = curl::fetch(&channel, &site, &mut rng);
            ttfb += fetch.ttfb.as_secs_f64();
            total += fetch.total.as_secs_f64();
            if fetch.outcome == ptperf_web::Outcome::Complete {
                ok += 1;
            }
        }
        println!(
            "{:<12} {:>10.2} {:>10.2}  {}/{} complete",
            transport.id().name(),
            ttfb / n as f64,
            total / n as f64,
            ok,
            n
        );
    }

    println!(
        "\nThe ordering matches the paper: obfs4/webtunnel/conjure near (or beating) \
         vanilla Tor;\ndnstt and meek noticeably slower; camoufler and marionette slowest."
    );
    let _ = PtId::ALL_PTS; // see ptperf_transports::PtId for the full list
}
