//! Scenario: a user behind censorship picking the right transport for
//! their use case — the paper's concluding recommendation ("users need
//! to be made aware of the right choice of PT, depending upon the
//! application").
//!
//! This example scores every PT on three use cases (interactive
//! browsing, bulk download, reliability under load) and prints a
//! recommendation per use case.
//!
//! ```sh
//! cargo run --release --example censored_user
//! ```

use ptperf::scenario::{Epoch, Scenario};
use ptperf_sim::Location;
use ptperf_transports::{transport_for, PtId};
use ptperf_web::{curl, filedl, Outcome, SiteList, Website};

struct Score {
    pt: PtId,
    browse_median_s: f64,
    dl_10mb_s: Option<f64>,
    bulk_success: f64,
}

fn main() {
    // The user sits in Asia (worst-case distance to the relay network),
    // during the post-surge period.
    let mut scenario = Scenario::baseline(7);
    scenario.client = Location::Bangalore;
    scenario.epoch = Epoch::Plateau;
    let dep = scenario.deployment();
    let opts = scenario.access_options();

    let sites = Website::top(SiteList::Cbl, 20);
    let mut scores = Vec::new();

    for pt in PtId::ALL_PTS {
        let transport = transport_for(pt);
        let mut rng = scenario.rng(&format!("censored/{pt}"));

        // Use case 1: interactive browsing of blocked sites.
        let mut times: Vec<f64> = sites
            .iter()
            .map(|s| {
                let ch = transport.establish(&dep, &opts, s.server, &mut rng);
                curl::fetch(&ch, s, &mut rng).total.as_secs_f64()
            })
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let browse_median_s = times[times.len() / 2];

        // Use cases 2 and 3: a 10 MB download, repeated.
        let mut completed = Vec::new();
        let attempts = 10;
        for _ in 0..attempts {
            let ch = transport.establish(&dep, &opts, scenario.server_region, &mut rng);
            let d = filedl::download(&ch, 10_000_000, &mut rng);
            if d.outcome == Outcome::Complete {
                completed.push(d.elapsed.as_secs_f64());
            }
        }
        let bulk_success = completed.len() as f64 / attempts as f64;
        let dl_10mb_s = if completed.is_empty() {
            None
        } else {
            Some(completed.iter().sum::<f64>() / completed.len() as f64)
        };

        scores.push(Score {
            pt,
            browse_median_s,
            dl_10mb_s,
            bulk_success,
        });
    }

    println!("PT comparison from Bangalore, post-surge epoch:\n");
    println!(
        "{:<12} {:>14} {:>14} {:>12}",
        "transport", "browse med(s)", "10MB dl (s)", "bulk ok"
    );
    for s in &scores {
        println!(
            "{:<12} {:>14.1} {:>14} {:>11.0}%",
            s.pt.name(),
            s.browse_median_s,
            s.dl_10mb_s
                .map_or("never".to_string(), |t| format!("{t:.0}")),
            100.0 * s.bulk_success
        );
    }

    let best_browse = scores
        .iter()
        .min_by(|a, b| a.browse_median_s.partial_cmp(&b.browse_median_s).unwrap())
        .unwrap();
    let best_bulk = scores
        .iter()
        .filter(|s| s.bulk_success >= 0.8)
        .min_by(|a, b| {
            a.dl_10mb_s
                .unwrap_or(f64::INFINITY)
                .partial_cmp(&b.dl_10mb_s.unwrap_or(f64::INFINITY))
                .unwrap()
        });
    let most_reliable = scores
        .iter()
        .max_by(|a, b| a.bulk_success.partial_cmp(&b.bulk_success).unwrap())
        .unwrap();

    println!("\nRecommendations:");
    println!("  browsing:     {}", best_browse.pt.name());
    if let Some(b) = best_bulk {
        println!("  bulk files:   {}", b.pt.name());
    }
    println!("  reliability:  {}", most_reliable.pt.name());
    println!(
        "\nAvoid for bulk content: {}",
        scores
            .iter()
            .filter(|s| s.bulk_success < 0.3)
            .map(|s| s.pt.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
}
