//! **Figure 9** — PT overhead isolated from Tor (§5.2).
//!
//! For each website a fixed circuit is built (our own guard host; the PT
//! server co-located with the PT client so the forwarding leg is ~free),
//! and the site is fetched once via vanilla Tor and once via the PT over
//! the *same* circuit. The per-site time difference estimates the
//! overhead of the transport itself. The paper: no significant overhead
//! for any evaluated PT except marionette (>30 s average).
//!
//! Matching the paper's §5.2 setup decisions:
//!
//! * meek, conjure, snowflake are skipped (their servers cannot be
//!   self-hosted/co-located: CDN, ISP station, volunteer pool);
//! * camoufler is skipped (the IM-provider leg is inherently
//!   third-party and cannot be co-located);
//! * dnstt runs against *our own* resolver, so the public-resolver QPS
//!   etiquette cap does not apply (window clocking remains).

use std::collections::BTreeMap;

use ptperf_sim::LoadProfile;
use ptperf_stats::Summary;
use ptperf_tor::{PathConfig, PathSelector};
use ptperf_transports::{dnstt, transport_for, EstablishScratch, PluggableTransport, PtId};
use ptperf_web::{curl, SiteList};

use crate::executor::{run_units, Parallelism, Unit};
use crate::scenario::Scenario;

/// The PTs whose overhead Figure 9 isolates.
pub const EVALUATED: [PtId; 8] = [
    PtId::Obfs4,
    PtId::Dnstt,
    PtId::WebTunnel,
    PtId::Shadowsocks,
    PtId::Psiphon,
    PtId::Cloak,
    PtId::Stegotorus,
    PtId::Marionette,
];

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of Tranco sites (paper: 1000).
    pub sites: usize,
}

impl Config {
    /// Test-scale preset.
    pub fn quick() -> Config {
        Config { sites: 30 }
    }

    /// The paper's scale.
    pub fn paper() -> Config {
        Config { sites: 1000 }
    }
}

/// Result: per-site `PT − Tor` differences per PT.
#[derive(Debug, Clone)]
pub struct Result {
    /// Signed overhead samples (seconds) per PT.
    pub diffs: BTreeMap<PtId, Vec<f64>>,
}

fn overhead_transport(pt: PtId) -> Box<dyn PluggableTransport> {
    match pt {
        // Own resolver: no public-resolver QPS cap or drop hazard (the
        // window still clocks the tunnel).
        PtId::Dnstt => Box::new(dnstt::Dnstt {
            window: 16,
            max_qps: 5_000.0,
            hazard_per_sec: 0.0,
        }),
        other => transport_for(other),
    }
}

/// Decomposes the experiment into executor units. Every PT is fetched
/// over the *same* per-site fixed circuit on one `fig9` RNG stream (the
/// paired differences are the point), so it is a single shard.
pub fn units(scenario: &Scenario, cfg: &Config) -> Vec<Unit<Result>> {
    let scenario = scenario.clone();
    let cfg = *cfg;
    vec![Unit::pooled("fig9", move |rec, scratch| {
        let r = run_shard(&scenario, &cfg, rec, &mut scratch.establish);
        let n: usize = r.diffs.values().map(|v| v.len()).sum();
        (r, n)
    })]
}

/// Merges shards (this experiment has exactly one).
pub fn merge(shards: Vec<Result>) -> Result {
    shards.into_iter().next().expect("exactly one shard")
}

/// Runs the experiment.
pub fn run(scenario: &Scenario, cfg: &Config) -> Result {
    let executed = run_units(&Parallelism::sequential(), units(scenario, cfg))
        .expect("campaign units do not panic");
    merge(executed.values)
}

/// The experiment's one shard: per-fetch phase accumulation and an
/// `events` counter go to `rec`. The establish scratch holds no RNG
/// state, so warm and fresh scratch yield identical results.
fn run_shard(
    scenario: &Scenario,
    cfg: &Config,
    rec: &mut dyn ptperf_obs::Recorder,
    scratch: &mut EstablishScratch,
) -> Result {
    // Co-locate PT servers with the client (§5.2: "we deployed the PT
    // client and server in the same cloud location").
    let mut scenario = scenario.clone();
    scenario.server_region = scenario.client;

    let mut dep = scenario.deployment_owned();
    // §5.2 uses *private, co-located* PT servers; replace the
    // Tor-operated obfs4 bridge so its bootstrap targets the same host
    // as everything else (webtunnel/dnstt already follow server_region).
    dep.host_private_bridge(ptperf_transports::PtId::Obfs4, scenario.client, 5.0e6);
    let mut rng = scenario.rng("fig9");
    let host = dep.consensus.add_guard(
        scenario.client,
        5.0e6,
        LoadProfile::Dedicated.sampler().sample(&mut rng),
    );

    let sites = scenario.top_sites(SiteList::Tranco, cfg.sites);
    let vanilla = transport_for(PtId::Vanilla);
    let transports = EVALUATED.map(overhead_transport);
    let mut diffs: BTreeMap<PtId, Vec<f64>> =
        EVALUATED.iter().map(|&pt| (pt, Vec::new())).collect();
    let mut phases = ptperf_obs::PhaseAccum::new();
    let mut selector = PathSelector::new();

    for site in sites.iter() {
        // A fresh fixed circuit for this site, shared by every config.
        let fresh = selector
            .select(PathConfig::default(), &dep.consensus, &mut rng)
            .expect("relays available");
        let mut opts = scenario.access_options();
        opts.path.fixed_guard = Some(host);
        opts.path.fixed_middle = Some(fresh.middle);
        opts.path.fixed_exit = Some(fresh.exit);

        let ch = vanilla.establish_with(&dep, &opts, site.server, &mut rng, scratch);
        let fetch = curl::fetch(&ch, site, &mut rng);
        if rec.enabled() {
            crate::measure::record_fetch_phases(&mut phases, &ch, &fetch);
            rec.add("events", 1);
        }
        let tor_time = fetch.total.as_secs_f64();
        for (pt, transport) in EVALUATED.iter().zip(&transports) {
            let ch = transport.establish_with(&dep, &opts, site.server, &mut rng, scratch);
            let fetch = curl::fetch(&ch, site, &mut rng);
            if rec.enabled() {
                crate::measure::record_fetch_phases(&mut phases, &ch, &fetch);
                rec.add("events", 1);
            }
            let pt_time = fetch.total.as_secs_f64();
            diffs.get_mut(pt).unwrap().push(pt_time - tor_time);
        }
    }
    phases.emit(rec);
    Result { diffs }
}

impl Result {
    /// Mean overhead (seconds) of a PT.
    pub fn mean_overhead(&self, pt: PtId) -> f64 {
        ptperf_stats::mean(&self.diffs[&pt])
    }

    /// Renders the Figure 9 overhead boxplots.
    pub fn render(&self) -> String {
        let entries: Vec<(String, Summary)> = EVALUATED
            .iter()
            .map(|&pt| (pt.name().to_string(), Summary::of(&self.diffs[&pt])))
            .collect();
        let mut out = String::from(
            "Figure 9 — Per-site time difference PT − vanilla Tor (s); positive = PT slower\n",
        );
        out.push_str(&ptperf_stats::ascii_boxplots(&entries, 100, false));
        out.push_str(
            "skipped: meek/conjure/snowflake (servers not self-hostable), camoufler (IM leg is third-party)\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Result {
        run(&Scenario::baseline(101), &Config::quick())
    }

    #[test]
    fn most_pts_add_negligible_overhead() {
        let r = result();
        for pt in [
            PtId::Obfs4,
            PtId::WebTunnel,
            PtId::Shadowsocks,
            PtId::Psiphon,
            PtId::Cloak,
        ] {
            let m = r.mean_overhead(pt);
            assert!(m.abs() < 2.0, "{pt}: overhead {m:.2} s");
        }
    }

    #[test]
    fn marionette_is_the_exception() {
        let r = result();
        let m = r.mean_overhead(PtId::Marionette);
        assert!(m > 5.0, "marionette overhead {m:.2} s should dominate");
        for pt in EVALUATED {
            if pt != PtId::Marionette {
                assert!(
                    r.mean_overhead(pt) < m / 2.0,
                    "{pt} {:.2} vs marionette {m:.2}",
                    r.mean_overhead(pt)
                );
            }
        }
    }

    #[test]
    fn dnstt_overhead_is_modest_with_own_resolver() {
        let r = result();
        let m = r.mean_overhead(PtId::Dnstt);
        assert!(m < 4.0, "dnstt overhead {m:.2} s with own resolver");
    }

    #[test]
    fn render_mentions_skips() {
        assert!(result().render().contains("skipped"));
    }
}
