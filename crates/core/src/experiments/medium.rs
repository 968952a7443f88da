//! **§4.7** — effect of the transmission medium (wired vs wireless).
//!
//! The paper accessed Tranco-500 + CBL-500 over lab WiFi and found no
//! change in *trends* relative to Ethernet. This runner measures all PTs
//! over both media and checks rank stability.

use std::collections::BTreeMap;
use std::sync::Arc;

use ptperf_sim::Medium;
use ptperf_transports::PtId;
use ptperf_web::FaultSession;

use crate::executor::{run_units, Parallelism, Unit};
use crate::measure::curl_site_averages;
use crate::scenario::Scenario;

use super::figure_order;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Sites per list (paper: 500 + 500).
    pub sites_per_list: usize,
    /// Fetches per site (paper: 5).
    pub repeats: usize,
}

impl Config {
    /// Test-scale preset.
    pub fn quick() -> Config {
        Config {
            sites_per_list: 20,
            repeats: 1,
        }
    }

    /// The paper's scale.
    pub fn paper() -> Config {
        Config {
            sites_per_list: 500,
            repeats: 5,
        }
    }
}

/// Result: median access times per PT per medium.
#[derive(Debug, Clone)]
pub struct Result {
    /// Medians keyed by (medium, pt).
    pub medians: BTreeMap<(MediumKey, PtId), f64>,
}

/// Orderable key wrapper for [`Medium`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MediumKey {
    /// Ethernet.
    Wired,
    /// WiFi.
    Wireless,
}

impl From<Medium> for MediumKey {
    fn from(m: Medium) -> MediumKey {
        match m {
            Medium::Wired => MediumKey::Wired,
            Medium::Wireless => MediumKey::Wireless,
        }
    }
}

/// One executor shard: a `(medium, PT)` cell's median, from the cell's
/// own RNG stream.
pub type Shard = ((MediumKey, PtId), f64);

/// Decomposes the experiment into one independent unit per
/// `(medium, PT)` cell, each on its own `medium/{medium}/{pt}` RNG
/// stream (see [`crate::executor`]).
pub fn units(scenario: &Scenario, cfg: &Config) -> Vec<Unit<Shard>> {
    let sites = scenario.target_sites(cfg.sites_per_list);
    let cfg = *cfg;
    let mut units = Vec::new();
    for medium in [Medium::Wired, Medium::Wireless] {
        let mut sc = scenario.clone();
        sc.medium = medium;
        for pt in figure_order() {
            let sc = sc.clone();
            let sites = Arc::clone(&sites);
            units.push(Unit::pooled(
                format!("medium/{medium:?}/{pt}"),
                move |rec, scratch| {
                    let mut rng = sc.rng(&format!("medium/{medium:?}/{pt}"));
                    let avgs = curl_site_averages(
                        &sc,
                        pt,
                        &sites,
                        cfg.repeats,
                        &mut rng,
                        rec,
                        &mut scratch.establish,
                        &mut FaultSession::off(),
                    );
                    let n = avgs.len();
                    (
                        ((MediumKey::from(medium), pt), ptperf_stats::median(&avgs)),
                        n,
                    )
                },
            ));
        }
    }
    units
}

/// Merges shards (in shard-index order) into the experiment result.
pub fn merge(shards: Vec<Shard>) -> Result {
    Result {
        medians: shards.into_iter().collect(),
    }
}

/// Runs the experiment.
pub fn run(scenario: &Scenario, cfg: &Config) -> Result {
    let executed = run_units(&Parallelism::sequential(), units(scenario, cfg))
        .expect("campaign units do not panic");
    merge(executed.values)
}

impl Result {
    /// The PT ranking (fastest first) under a medium.
    pub fn ranking(&self, medium: MediumKey) -> Vec<PtId> {
        let mut pts: Vec<(PtId, f64)> = figure_order()
            .into_iter()
            .map(|pt| (pt, self.medians[&(medium, pt)]))
            .collect();
        pts.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        pts.into_iter().map(|(pt, _)| pt).collect()
    }

    /// Spearman rank correlation between the PTs' medians under the two
    /// media.
    pub fn rank_correlation(&self) -> f64 {
        let pts = super::figure_order();
        let wired: Vec<f64> = pts
            .iter()
            .map(|&pt| self.medians[&(MediumKey::Wired, pt)])
            .collect();
        let wireless: Vec<f64> = pts
            .iter()
            .map(|&pt| self.medians[&(MediumKey::Wireless, pt)])
            .collect();
        ptperf_stats::spearman(&wired, &wireless)
    }

    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut out = String::from("§4.7 — Medium change: median access time (s)\n");
        let mut table = ptperf_stats::Table::new(["PT", "wired", "wireless"]);
        for pt in figure_order() {
            table.row([
                pt.name().to_string(),
                format!("{:.2}", self.medians[&(MediumKey::Wired, pt)]),
                format!("{:.2}", self.medians[&(MediumKey::Wireless, pt)]),
            ]);
        }
        out.push_str(&table.render());
        out.push_str(&format!(
            "Spearman rank correlation across media: {:.3}\n",
            self.rank_correlation()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Result {
        run(&Scenario::baseline(91), &Config::quick())
    }

    #[test]
    fn trends_survive_the_medium_change() {
        let r = result();
        assert!(
            r.rank_correlation() > 0.8,
            "rank correlation {:.3}",
            r.rank_correlation()
        );
    }

    #[test]
    fn wireless_never_reorders_the_extremes() {
        let r = result();
        for medium in [MediumKey::Wired, MediumKey::Wireless] {
            let obfs4 = r.medians[&(medium, PtId::Obfs4)];
            let marionette = r.medians[&(medium, PtId::Marionette)];
            let camoufler = r.medians[&(medium, PtId::Camoufler)];
            assert!(obfs4 < camoufler, "{medium:?}");
            assert!(camoufler < marionette, "{medium:?}");
        }
    }

    #[test]
    fn wireless_adds_modest_latency() {
        let r = result();
        let wired = r.medians[&(MediumKey::Wired, PtId::Vanilla)];
        let wifi = r.medians[&(MediumKey::Wireless, PtId::Vanilla)];
        assert!(wifi >= wired * 0.9, "wifi {wifi:.2} wired {wired:.2}");
        assert!(wifi < wired * 2.0, "wifi {wifi:.2} wired {wired:.2}");
    }

    #[test]
    fn render_has_correlation_line() {
        assert!(result().render().contains("Spearman"));
    }
}
