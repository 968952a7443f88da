//! **Figure 3** — website access over a *fixed* Tor circuit.
//!
//! The paper's decisive control experiment (§4.2.1): host the guard and
//! the private PT server on the same cloud host, fix the middle and exit
//! per iteration, and access five sample websites via vanilla Tor,
//! obfs4, and webtunnel over the *identical* circuit. Expected result:
//! statistically indistinguishable distributions (Fig. 3a) and per-site
//! time differences below 5 s for >80% of cases (Fig. 3b).

use ptperf_sim::LoadProfile;
use ptperf_stats::{ascii_boxplots, ascii_ecdf, Ecdf, PairedTTest, Summary};
use ptperf_tor::{PathConfig, PathSelector};
use ptperf_transports::{transport_for, EstablishScratch, PtId};
use ptperf_web::{curl, SiteList, Website};

use crate::executor::{run_units, Parallelism, Unit};
use crate::scenario::Scenario;

/// The three configurations compared.
pub const CONFIGS: [PtId; 3] = [PtId::Vanilla, PtId::Obfs4, PtId::WebTunnel];

/// Configuration for the fixed-circuit experiment.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Iterations (paper: 500); each iteration uses a fresh middle/exit.
    pub iterations: usize,
}

impl Config {
    /// Test-scale preset.
    pub fn quick() -> Config {
        Config { iterations: 40 }
    }

    /// The paper's scale.
    pub fn paper() -> Config {
        Config { iterations: 500 }
    }
}

/// Result of the fixed-circuit experiment.
#[derive(Debug, Clone)]
pub struct Result {
    /// All access times per configuration, aligned by (iteration, site).
    pub times: Vec<(PtId, Vec<f64>)>,
    /// Absolute per-measurement differences |PT − Tor| pooled over
    /// obfs4 and webtunnel (Fig. 3b's ECDF input).
    pub abs_diffs: Vec<f64>,
}

/// Decomposes the experiment into executor units. The fixed-circuit
/// control threads one `fig3` RNG stream through every iteration (the
/// same circuit serves all three configs), so it is a single shard —
/// the executor still provides panic isolation and per-shard stats.
pub fn units(scenario: &Scenario, cfg: &Config) -> Vec<Unit<Result>> {
    let scenario = scenario.clone();
    let cfg = *cfg;
    vec![Unit::pooled("fig3", move |rec, scratch| {
        let r = run_shard(&scenario, &cfg, rec, &mut scratch.establish);
        let n: usize = r.times.iter().map(|(_, v)| v.len()).sum();
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
    let mut rng = scenario.rng("fig3");
    let mut phases = ptperf_obs::PhaseAccum::new();

    // Our own host: guard utility + private PT server on one machine.
    let host = dep.consensus.add_guard(
        scenario.server_region,
        5.0e6,
        LoadProfile::Dedicated.sampler().sample(&mut rng),
    );

    // Five sample Tranco sites, one per genre (static, news, video
    // streaming, gaming, online shopping — the paper's §4.2.1 set).
    let sites: Vec<Website> = Website::one_per_category(SiteList::Tranco);

    let mut times: Vec<(PtId, Vec<f64>)> = CONFIGS.iter().map(|&pt| (pt, Vec::new())).collect();
    let mut abs_diffs = Vec::new();
    let transports = CONFIGS.map(transport_for);
    let mut selector = PathSelector::new();

    for _ in 0..cfg.iterations {
        // Fresh middle/exit for this iteration, shared by all configs.
        let fresh = selector
            .select(PathConfig::default(), &dep.consensus, &mut rng)
            .expect("consensus has relays");
        let mut opts = scenario.access_options();
        opts.path.fixed_guard = Some(host);
        opts.path.fixed_middle = Some(fresh.middle);
        opts.path.fixed_exit = Some(fresh.exit);

        for site in &sites {
            let mut per_config = Vec::with_capacity(CONFIGS.len());
            for (ci, transport) in transports.iter().enumerate() {
                let ch = transport.establish_with(&dep, &opts, site.server, &mut rng, scratch);
                let fetch = curl::fetch(&ch, site, &mut rng);
                if rec.enabled() {
                    crate::measure::record_fetch_phases(&mut phases, &ch, &fetch);
                    rec.add("events", 1);
                }
                let t = fetch.total.as_secs_f64();
                times[ci].1.push(t);
                per_config.push(t);
            }
            for pt_time in &per_config[1..] {
                abs_diffs.push((pt_time - per_config[0]).abs());
            }
        }
    }
    phases.emit(rec);
    Result { times, abs_diffs }
}

impl Result {
    /// Samples for one configuration.
    pub fn samples(&self, pt: PtId) -> &[f64] {
        &self
            .times
            .iter()
            .find(|(p, _)| *p == pt)
            .expect("config measured")
            .1
    }

    /// Paired t-test between two configurations.
    pub fn ttest(&self, a: PtId, b: PtId) -> PairedTTest {
        PairedTTest::run(self.samples(a), self.samples(b))
    }

    /// Fraction of measurements whose |PT − Tor| difference is below
    /// `threshold` seconds (the paper: >80% below 5 s).
    pub fn diffs_below(&self, threshold: f64) -> f64 {
        Ecdf::new(&self.abs_diffs).eval(threshold)
    }

    /// Renders Figure 3a (boxplots).
    pub fn render_boxplots(&self) -> String {
        let entries: Vec<(String, Summary)> = self
            .times
            .iter()
            .map(|(pt, v)| (pt.name().to_string(), Summary::of(v)))
            .collect();
        let mut out = String::from("Figure 3a — Fixed circuit: access time (s)\n");
        out.push_str(&ascii_boxplots(&entries, 100, false));
        out
    }

    /// Renders Figure 3b (ECDF of absolute differences).
    pub fn render_ecdf(&self) -> String {
        let ecdf = Ecdf::new(&self.abs_diffs);
        let mut out = String::from("Figure 3b — ECDF of |PT − Tor| per website (s)\n");
        out.push_str(&ascii_ecdf(
            &[("abs diff".to_string(), ecdf.points())],
            80,
            16,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Result {
        run(&Scenario::baseline(31), &Config::quick())
    }

    #[test]
    fn same_circuit_equalizes_pt_and_tor() {
        let r = result();
        // The paper's null result: no significant difference.
        let t1 = r.ttest(PtId::Obfs4, PtId::Vanilla);
        let t2 = r.ttest(PtId::WebTunnel, PtId::Vanilla);
        // Mean differences should be tiny relative to the means (the PT
        // bootstrap adds a few hundred ms at most).
        let tor_mean = ptperf_stats::mean(r.samples(PtId::Vanilla));
        assert!(
            t1.mean_diff.abs() < tor_mean * 0.25,
            "obfs4-tor diff {} vs mean {tor_mean}",
            t1.mean_diff
        );
        assert!(
            t2.mean_diff.abs() < tor_mean * 0.25,
            "webtunnel-tor diff {} vs mean {tor_mean}",
            t2.mean_diff
        );
    }

    #[test]
    fn most_differences_are_small() {
        let r = result();
        assert!(
            r.diffs_below(5.0) > 0.8,
            "only {:.2} of diffs below 5 s",
            r.diffs_below(5.0)
        );
    }

    #[test]
    fn all_configs_have_aligned_samples() {
        let r = result();
        let n = r.samples(PtId::Vanilla).len();
        assert_eq!(r.samples(PtId::Obfs4).len(), n);
        assert_eq!(r.samples(PtId::WebTunnel).len(), n);
        assert_eq!(r.abs_diffs.len(), 2 * n);
    }

    #[test]
    fn renders_include_all_configs() {
        let r = result();
        let box_text = r.render_boxplots();
        for pt in CONFIGS {
            assert!(box_text.contains(pt.name()));
        }
        assert!(r.render_ecdf().contains("abs diff"));
    }
}
