//! **Figure 2a** — website access time via curl, Tranco-1k + CBL-1k,
//! all 12 PTs and vanilla Tor. Also the sample source for Appendix
//! Tables 3, 4 (PT pairs) and 10 (category pairs).

use std::sync::Arc;

use ptperf_stats::{ascii_boxplots, Summary};
use ptperf_transports::PtId;
use ptperf_web::FaultSession;

use crate::executor::{run_units, Parallelism, Unit};
use crate::measure::{curl_site_averages, PairedSamples};
use crate::scenario::Scenario;

use super::figure_order;

/// Configuration for the curl website experiment.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Sites per list (paper: 1000 Tranco + 1000 CBL).
    pub sites_per_list: usize,
    /// Fetches per site (paper: 5).
    pub repeats: usize,
}

impl Config {
    /// Test-scale preset.
    pub fn quick() -> Config {
        Config {
            sites_per_list: 30,
            repeats: 2,
        }
    }

    /// The paper's scale.
    pub fn paper() -> Config {
        Config {
            sites_per_list: 1000,
            repeats: 5,
        }
    }
}

/// Result: per-site average access times, aligned across PTs.
#[derive(Debug, Clone)]
pub struct Result {
    /// Aligned per-site averages per PT.
    pub samples: PairedSamples,
}

/// One executor shard: a PT's per-site averages, produced from that
/// PT's own RNG stream.
pub type Shard = (PtId, Vec<f64>);

/// Decomposes the experiment into one independent unit per PT. Each
/// unit derives its RNG from the scenario with the same `fig2a/{pt}`
/// stream tag the sequential loop uses, so the merged result is
/// bit-for-bit identical at any worker count.
pub fn units(scenario: &Scenario, cfg: &Config) -> Vec<Unit<Shard>> {
    let sites = scenario.target_sites(cfg.sites_per_list);
    let cfg = *cfg;
    figure_order()
        .into_iter()
        .map(|pt| {
            let scenario = scenario.clone();
            let sites = Arc::clone(&sites);
            Unit::pooled(format!("fig2a/{pt}"), move |rec, scratch| {
                let mut rng = scenario.rng(&format!("fig2a/{pt}"));
                let avgs = curl_site_averages(
                    &scenario,
                    pt,
                    &sites,
                    cfg.repeats,
                    &mut rng,
                    rec,
                    &mut scratch.establish,
                    &mut FaultSession::off(),
                );
                let n = avgs.len();
                ((pt, avgs), n)
            })
        })
        .collect()
}

/// Merges shards (in shard-index order) into the experiment result.
pub fn merge(shards: Vec<Shard>) -> Result {
    let mut samples = PairedSamples::new();
    for (pt, avgs) in shards {
        for avg in avgs {
            samples.push(pt, avg);
        }
    }
    Result { samples }
}

/// Runs the experiment.
pub fn run(scenario: &Scenario, cfg: &Config) -> Result {
    let executed = run_units(&Parallelism::sequential(), units(scenario, cfg))
        .expect("campaign units do not panic");
    merge(executed.values)
}

impl Result {
    /// Renders the Figure 2a boxplot.
    pub fn render(&self) -> String {
        let mut entries: Vec<(String, Summary)> = Vec::new();
        for pt in figure_order() {
            entries.push((pt.name().to_string(), self.samples.summary(pt)));
        }
        let mut out =
            String::from("Figure 2a — Website access time via curl (s), Tranco-1k + CBL-1k\n");
        out.push_str(&ascii_boxplots(&entries, 100, false));
        out
    }

    /// The median access time per PT, the paper's headline numbers
    /// (obfs4 2.4 s … marionette 20.8 s).
    pub fn medians(&self) -> Vec<(PtId, f64)> {
        figure_order()
            .into_iter()
            .map(|pt| (pt, self.samples.median(pt)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Result {
        run(&Scenario::baseline(11), &Config::quick())
    }

    #[test]
    fn best_pts_beat_worst_pts() {
        let r = result();
        let med = |pt| r.samples.median(pt);
        // The paper's core ordering: obfs4/conjure fast; camoufler, meek,
        // dnstt slow; marionette worst.
        assert!(med(PtId::Obfs4) < med(PtId::Dnstt));
        assert!(med(PtId::Obfs4) < med(PtId::Meek));
        assert!(med(PtId::Dnstt) < med(PtId::Camoufler));
        assert!(med(PtId::Meek) < med(PtId::Camoufler));
        assert!(med(PtId::Camoufler) < med(PtId::Marionette));
    }

    #[test]
    fn good_transports_are_near_vanilla() {
        let r = result();
        let tor = r.samples.median(PtId::Vanilla);
        for pt in [PtId::Obfs4, PtId::WebTunnel, PtId::Cloak, PtId::Conjure] {
            let m = r.samples.median(pt);
            assert!(
                m < tor * 2.5,
                "{pt} median {m:.2} vs tor {tor:.2} — should be near vanilla"
            );
        }
    }

    #[test]
    fn render_contains_every_pt() {
        let text = result().render();
        for pt in figure_order() {
            assert!(text.contains(pt.name()), "missing {pt}");
        }
    }
}
