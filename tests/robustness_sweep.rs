//! Robustness sweep: every transport × every client location × every
//! server region × every load epoch × both media — establish a channel
//! and run a fetch. Nothing may panic, and every channel must satisfy
//! the basic sanity contract. This is the "no corner of the
//! configuration space is broken" test.

use ptperf::scenario::{Epoch, FaultConfig, FaultProfile, Scenario};
use ptperf_sim::{Location, Medium};
use ptperf_transports::{all_transports, fault_bias, PtId};
use ptperf_web::{curl, filedl, SiteList, Website};

#[test]
fn every_configuration_corner_works() {
    let epochs = [Epoch::PreSurge, Epoch::Surge, Epoch::LoadMult(8.0)];
    let media = [Medium::Wired, Medium::Wireless];
    let site = Website::generate(SiteList::Cbl, 3);

    let mut corners = 0u32;
    for &client in &Location::CLIENTS {
        for &server in &Location::SERVERS {
            for &epoch in &epochs {
                for &medium in &media {
                    let mut scenario = Scenario::baseline(7_777);
                    scenario.client = client;
                    scenario.server_region = server;
                    scenario.epoch = epoch;
                    scenario.medium = medium;
                    let dep = scenario.deployment();
                    let opts = scenario.access_options();
                    let mut rng = scenario.rng("sweep");
                    for transport in all_transports() {
                        let ch = transport.establish(&dep, &opts, site.server, &mut rng);
                        assert!(
                            ch.response.bottleneck_bps > 0.0,
                            "{}@{client}/{server}/{epoch:?}/{medium:?}: dead channel",
                            transport.id()
                        );
                        assert!(
                            (0.0..=1.0).contains(&ch.connect_failure_p),
                            "{}: invalid failure probability",
                            transport.id()
                        );
                        let fetch = curl::fetch(&ch, &site, &mut rng);
                        assert!(fetch.total.as_secs_f64() > 0.0);
                        assert!(fetch.total <= ptperf_web::PAGE_TIMEOUT);
                        corners += 1;
                    }
                }
            }
        }
    }
    // 3 clients × 3 servers × 3 epochs × 2 media × 13 transports.
    assert_eq!(corners, 3 * 3 * 3 * 2 * 13);
}

/// Extreme-load downloads degrade gracefully: outcomes stay consistent,
/// nothing panics, and fractions are sane even at absurd multipliers.
#[test]
fn extreme_load_degrades_gracefully() {
    let mut scenario = Scenario::baseline(11);
    scenario.epoch = Epoch::LoadMult(20.0);
    let dep = scenario.deployment();
    let opts = scenario.access_options();
    let mut rng = scenario.rng("extreme");
    for transport in all_transports() {
        for &size in &[1_000_000u64, 100_000_000] {
            let ch = transport.establish(&dep, &opts, scenario.server_region, &mut rng);
            let d = filedl::download(&ch, size, &mut rng);
            assert!((0.0..=1.0).contains(&d.fraction), "{}", transport.id());
            if d.outcome == ptperf_web::Outcome::Complete {
                assert_eq!(d.fraction, 1.0, "{}", transport.id());
            }
        }
    }
}

/// The fault-laden lane of the sweep: every transport × every load
/// epoch under the aggressive chaos profile (4× refusals, 8× hazard,
/// long stalls), driven through every faulted workload. Nothing may
/// panic or hang, elapsed time stays inside each workload's timeout,
/// fractions stay in `[0, 1]`, every unit ends classified
/// (complete/partial/failed — never unknown), and the fault counters
/// balance: `injected == retried + recovered + gave_up`.
#[test]
fn aggressive_faults_break_nothing_in_any_corner() {
    let epochs = [Epoch::PreSurge, Epoch::Surge, Epoch::LoadMult(8.0)];
    let site = Website::generate(SiteList::Tranco, 5);

    let mut corners = 0u32;
    for &epoch in &epochs {
        let mut scenario =
            Scenario::baseline(9_999).with_faults(FaultConfig::Plan(FaultProfile::aggressive()));
        scenario.epoch = epoch;
        let dep = scenario.deployment();
        let opts = scenario.access_options();
        for transport in all_transports() {
            let pt = transport.id();
            let tag = format!("chaos/{pt}/{epoch:?}");
            let mut rng = scenario.rng(&tag);
            let mut faults = scenario.fault_session(&tag, fault_bias(pt));
            assert!(faults.is_active(), "plan must arm the session");

            let ch = transport.establish(&dep, &opts, site.server, &mut rng);
            let fetch = curl::fetch_faulted(&ch, &site, &mut rng, &mut faults);
            assert!(
                fetch.total <= ptperf_web::PAGE_TIMEOUT,
                "{tag}: fetch ran past the page timeout"
            );
            // Outcome is an exhaustive enum: reaching here means the
            // fetch classified; pin the complete ⇒ everything-arrived
            // invariant on top.
            if fetch.outcome == ptperf_web::Outcome::Complete {
                assert!(fetch.total.as_secs_f64() > 0.0, "{tag}");
            }

            for &size in &[1_000_000u64, 100_000_000] {
                let ch = transport.establish(&dep, &opts, site.server, &mut rng);
                let d = filedl::download_faulted(&ch, size, &mut rng, &mut faults);
                assert!(
                    d.elapsed <= filedl::FILE_TIMEOUT,
                    "{tag}: download ran past the file timeout"
                );
                assert!(
                    (0.0..=1.0).contains(&d.fraction),
                    "{tag}: fraction {} out of range",
                    d.fraction
                );
                match d.outcome {
                    ptperf_web::Outcome::Complete => {
                        assert_eq!(d.fraction, 1.0, "{tag}: complete but bytes missing")
                    }
                    ptperf_web::Outcome::Partial => {
                        assert!(d.fraction > 0.0, "{tag}: partial with nothing delivered")
                    }
                    ptperf_web::Outcome::Failed => {}
                }
            }

            let stats = faults.stats();
            assert!(
                stats.consistent(),
                "{tag}: injected {} != retried {} + recovered {} + gave_up {}",
                stats.injected,
                stats.retried,
                stats.recovered,
                stats.gave_up
            );
            corners += 1;
        }
    }
    // 3 epochs × 13 transports, each through a fetch and two downloads.
    assert_eq!(corners, 3 * 13);
}

/// Snowflake under extreme load must still produce channels (slow, not
/// broken) — the paper kept measuring right through the surge.
#[test]
fn snowflake_survives_any_load() {
    for mult in [1.0, 2.0, 5.0, 10.0, 50.0] {
        let mut scenario = Scenario::baseline(13);
        scenario.epoch = Epoch::LoadMult(mult);
        let dep = scenario.deployment();
        let opts = scenario.access_options();
        let mut rng = scenario.rng("snowflake-extreme");
        let t = ptperf_transports::transport_for(PtId::Snowflake);
        let ch = t.establish(&dep, &opts, Location::Frankfurt, &mut rng);
        assert!(
            ch.response.bottleneck_bps >= 1_000.0,
            "load {mult}: channel collapsed"
        );
        assert!(ch.connect_failure_p < 0.5, "load {mult}");
    }
}
