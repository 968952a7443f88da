//! **Figure 2b** — website access time via selenium browser automation.
//! Sample source for Appendix Tables 5 and 6. Camoufler is excluded (it
//! cannot multiplex the browser's parallel requests — exactly the
//! paper's experience), and the runs happen in the post-surge epoch (the
//! paper ran selenium from November 2022, under snowflake's elevated
//! load).

use std::sync::Arc;

use ptperf_stats::{ascii_boxplots, Summary};
use ptperf_transports::{transport_for, PtId};
use ptperf_web::browser;

use crate::executor::{run_units, Parallelism, Unit};
use crate::measure::{record_page_phases, PairedSamples};
use crate::scenario::{Epoch, Scenario};

use super::figure_order;

/// Configuration for the selenium website experiment.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Sites per list (paper: 1000 + 1000).
    pub sites_per_list: usize,
    /// Loads per site.
    pub repeats: usize,
}

impl Config {
    /// Test-scale preset.
    pub fn quick() -> Config {
        Config {
            sites_per_list: 25,
            repeats: 1,
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

/// Result of the selenium run.
#[derive(Debug, Clone)]
pub struct Result {
    /// Aligned per-site page-load averages per PT (camoufler absent).
    pub samples: PairedSamples,
    /// PTs that could not be driven by the browser at all.
    pub excluded: Vec<PtId>,
}

/// One executor shard: a PT's per-site averages, or `None` when the
/// browser cannot drive the PT at all (it becomes an exclusion).
pub type Shard = (PtId, Option<Vec<f64>>);

/// Decomposes the experiment into one independent unit per PT, each on
/// its own `fig2b/{pt}` RNG stream (see [`crate::executor`]).
pub fn units(scenario: &Scenario, cfg: &Config) -> Vec<Unit<Shard>> {
    // Selenium measurements happened after the September surge.
    let mut scenario = scenario.clone();
    if matches!(scenario.epoch, Epoch::PreSurge) {
        scenario.epoch = Epoch::Plateau;
    }
    let scenario = Arc::new(scenario);
    let sites = scenario.target_sites(cfg.sites_per_list);
    let cfg = *cfg;
    figure_order()
        .into_iter()
        .map(|pt| {
            let scenario = Arc::clone(&scenario);
            let sites = Arc::clone(&sites);
            Unit::pooled(format!("fig2b/{pt}"), move |rec, scratch| {
                let transport = transport_for(pt);
                let dep = scenario.deployment();
                let opts = scenario.access_options();
                let mut rng = scenario.rng(&format!("fig2b/{pt}"));
                let mut per_site = Vec::with_capacity(sites.len());
                let mut phases = ptperf_obs::PhaseAccum::new();
                for site in sites.iter() {
                    let mut total = 0.0;
                    for _ in 0..cfg.repeats {
                        let ch = transport.establish_with(
                            &dep,
                            &opts,
                            site.server,
                            &mut rng,
                            &mut scratch.establish,
                        );
                        match browser::load_page_pooled(&ch, site, &mut rng, rec, &mut scratch.page)
                        {
                            Ok(page) => {
                                if rec.enabled() {
                                    record_page_phases(&mut phases, &ch, &page);
                                    rec.add("events", 1);
                                }
                                total += page.total.as_secs_f64();
                            }
                            Err(_) => return ((pt, None), 0),
                        }
                    }
                    per_site.push(total / cfg.repeats as f64);
                }
                phases.emit(rec);
                let n = per_site.len();
                ((pt, Some(per_site)), n)
            })
        })
        .collect()
}

/// Merges shards (in shard-index order) into the experiment result.
pub fn merge(shards: Vec<Shard>) -> Result {
    let mut samples = PairedSamples::new();
    let mut excluded = Vec::new();
    for (pt, per_site) in shards {
        match per_site {
            Some(values) => {
                for v in values {
                    samples.push(pt, v);
                }
            }
            None => excluded.push(pt),
        }
    }
    Result { samples, excluded }
}

/// Runs the experiment.
pub fn run(scenario: &Scenario, cfg: &Config) -> Result {
    let executed = run_units(&Parallelism::sequential(), units(scenario, cfg))
        .expect("campaign units do not panic");
    merge(executed.values)
}

impl Result {
    /// Renders the Figure 2b boxplot.
    pub fn render(&self) -> String {
        let mut entries: Vec<(String, Summary)> = Vec::new();
        for pt in figure_order() {
            if self.excluded.contains(&pt) {
                continue;
            }
            entries.push((pt.name().to_string(), self.samples.summary(pt)));
        }
        let mut out =
            String::from("Figure 2b — Website access time via selenium (s), Tranco-1k + CBL-1k\n");
        out.push_str(&ascii_boxplots(&entries, 100, false));
        if !self.excluded.is_empty() {
            let names: Vec<&str> = self.excluded.iter().map(|p| p.name()).collect();
            out.push_str(&format!(
                "excluded (no parallel-stream support): {}\n",
                names.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Result {
        run(&Scenario::baseline(21), &Config::quick())
    }

    #[test]
    fn camoufler_is_excluded() {
        let r = result();
        assert!(r.excluded.contains(&PtId::Camoufler));
        assert!(!r.samples.pts().any(|p| p == PtId::Camoufler));
    }

    #[test]
    fn selenium_slower_than_curl() {
        let scenario = Scenario::baseline(22);
        let curl = crate::experiments::website_curl::run(
            &scenario,
            &crate::experiments::website_curl::Config::quick(),
        );
        let sel = run(&scenario, &Config::quick());
        // Page loads fetch many more resources.
        assert!(
            sel.samples.median(PtId::Vanilla) > curl.samples.median(PtId::Vanilla) * 1.5,
            "selenium {} curl {}",
            sel.samples.median(PtId::Vanilla),
            curl.samples.median(PtId::Vanilla)
        );
    }

    #[test]
    fn set1_pts_beat_vanilla_under_selenium() {
        // The §4.2.1 anomaly: obfs4/webtunnel/conjure (managed bridges as
        // guards) outperform vanilla Tor (volunteer guards).
        let r = result();
        let tor = r.samples.mean(PtId::Vanilla);
        for pt in [PtId::Obfs4, PtId::WebTunnel, PtId::Conjure] {
            assert!(
                r.samples.mean(pt) < tor,
                "{pt} mean {:.2} should beat tor {:.2}",
                r.samples.mean(pt),
                tor
            );
        }
    }

    #[test]
    fn snowflake_degrades_post_surge() {
        // Under the plateau epoch snowflake should fall well behind
        // conjure (the paper: 2.5× median gap).
        let r = result();
        assert!(r.samples.median(PtId::Snowflake) > r.samples.median(PtId::Conjure) * 1.3);
    }

    #[test]
    fn render_mentions_exclusion() {
        assert!(result().render().contains("camoufler"));
    }
}
