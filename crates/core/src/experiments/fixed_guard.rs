//! **Figure 4** — fixed guard, variable middle and exit.
//!
//! The paper's second control experiment (§4.2.1): run our own guard and
//! PT server on the same host, let Tor pick middles and exits as usual,
//! and access the Tranco top-1k via vanilla Tor and obfs4. Expected:
//! nearly identical distributions — establishing that the *first hop*,
//! not the middle/exit variety, governs performance.

use ptperf_sim::LoadProfile;
use ptperf_stats::{ascii_boxplots, PairedTTest, Summary};
use ptperf_transports::{transport_for, EstablishScratch, PtId};
use ptperf_web::{curl, SiteList};

use crate::executor::{run_units, Parallelism, Unit};
use crate::scenario::Scenario;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of Tranco sites (paper: 1000).
    pub sites: usize,
    /// Fetches per site.
    pub repeats: usize,
}

impl Config {
    /// Test-scale preset.
    pub fn quick() -> Config {
        Config {
            sites: 40,
            repeats: 1,
        }
    }

    /// The paper's scale.
    pub fn paper() -> Config {
        Config {
            sites: 1000,
            repeats: 5,
        }
    }
}

/// Result: per-site averages for vanilla Tor and obfs4 over the same
/// fixed guard.
#[derive(Debug, Clone)]
pub struct Result {
    /// Vanilla Tor per-site averages.
    pub tor: Vec<f64>,
    /// obfs4 per-site averages.
    pub obfs4: Vec<f64>,
}

/// Decomposes the experiment into executor units. The fixed-guard
/// control interleaves vanilla and obfs4 fetches on one `fig4` RNG
/// stream (the pairing is the point), so it is a single shard.
pub fn units(scenario: &Scenario, cfg: &Config) -> Vec<Unit<Result>> {
    let scenario = scenario.clone();
    let cfg = *cfg;
    vec![Unit::pooled("fig4", move |rec, scratch| {
        let r = run_shard(&scenario, &cfg, rec, &mut scratch.establish);
        let n = r.tor.len() + r.obfs4.len();
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
    let mut dep = scenario.deployment_owned();
    let mut rng = scenario.rng("fig4");
    let mut phases = ptperf_obs::PhaseAccum::new();
    let host = dep.consensus.add_guard(
        scenario.server_region,
        5.0e6,
        LoadProfile::Dedicated.sampler().sample(&mut rng),
    );
    let mut opts = scenario.access_options();
    opts.path.fixed_guard = Some(host);

    let sites = scenario.top_sites(SiteList::Tranco, cfg.sites);
    let mut tor = Vec::with_capacity(sites.len());
    let mut obfs4 = Vec::with_capacity(sites.len());
    let vt = transport_for(PtId::Vanilla);
    let ot = transport_for(PtId::Obfs4);
    for site in sites.iter() {
        let mut t_sum = 0.0;
        let mut o_sum = 0.0;
        for _ in 0..cfg.repeats {
            let ch = vt.establish_with(&dep, &opts, site.server, &mut rng, scratch);
            let fetch = curl::fetch(&ch, site, &mut rng);
            if rec.enabled() {
                crate::measure::record_fetch_phases(&mut phases, &ch, &fetch);
                rec.add("events", 1);
            }
            t_sum += fetch.total.as_secs_f64();
            let ch = ot.establish_with(&dep, &opts, site.server, &mut rng, scratch);
            let fetch = curl::fetch(&ch, site, &mut rng);
            if rec.enabled() {
                crate::measure::record_fetch_phases(&mut phases, &ch, &fetch);
                rec.add("events", 1);
            }
            o_sum += fetch.total.as_secs_f64();
        }
        tor.push(t_sum / cfg.repeats as f64);
        obfs4.push(o_sum / cfg.repeats as f64);
    }
    phases.emit(rec);
    Result { tor, obfs4 }
}

impl Result {
    /// Paired t-test obfs4 − Tor.
    pub fn ttest(&self) -> PairedTTest {
        PairedTTest::run(&self.obfs4, &self.tor)
    }

    /// Renders the Figure 4 boxplots (log-scale y in the paper).
    pub fn render(&self) -> String {
        let entries = vec![
            ("tor".to_string(), Summary::of(&self.tor)),
            ("obfs4".to_string(), Summary::of(&self.obfs4)),
        ];
        let mut out =
            String::from("Figure 4 — Fixed guard, variable middle/exit: access time (s, log)\n");
        out.push_str(&ascii_boxplots(&entries, 100, true));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_guard_equalizes_medians() {
        let r = run(&Scenario::baseline(41), &Config::quick());
        let t_med = ptperf_stats::median(&r.tor);
        let o_med = ptperf_stats::median(&r.obfs4);
        let ratio = o_med / t_med;
        assert!(
            (0.7..1.4).contains(&ratio),
            "medians diverge: tor {t_med:.2} obfs4 {o_med:.2}"
        );
    }

    #[test]
    fn mean_difference_is_small() {
        let r = run(&Scenario::baseline(42), &Config::quick());
        let t = r.ttest();
        let tor_mean = ptperf_stats::mean(&r.tor);
        assert!(
            t.mean_diff.abs() < tor_mean * 0.3,
            "diff {:.2} vs mean {tor_mean:.2}",
            t.mean_diff
        );
    }

    #[test]
    fn render_has_both_series() {
        let r = run(&Scenario::baseline(43), &Config::quick());
        let text = r.render();
        assert!(text.contains("tor"));
        assert!(text.contains("obfs4"));
        assert!(text.contains("log"));
    }
}
