//! **Figure 11** and Appendix **Tables 8, 9** — speed index via a
//! browsertime-style visual-completeness metric (§5.4).
//!
//! The paper's two findings: the per-category trends match the selenium
//! results, and the speed index is *lower* than the full page-load time
//! for every PT (users see the page before it finishes loading).

use std::sync::Arc;

use ptperf_stats::{ascii_boxplots, Summary};
use ptperf_transports::{transport_for, PtId};
use ptperf_web::browser;

use crate::executor::{run_units, Parallelism, Unit};
use crate::measure::{record_page_phases, PairedSamples};
use crate::scenario::{Epoch, Scenario};

use super::figure_order;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Sites per list (paper: Tranco-1k).
    pub sites_per_list: usize,
}

impl Config {
    /// Test-scale preset.
    pub fn quick() -> Config {
        Config { sites_per_list: 25 }
    }

    /// The paper's scale.
    pub fn paper() -> Config {
        Config {
            sites_per_list: 1000,
        }
    }
}

/// Result: aligned per-site speed-index and page-load samples.
#[derive(Debug, Clone)]
pub struct Result {
    /// Speed-index samples per PT (seconds).
    pub speed_index: PairedSamples,
    /// Matching full page-load times.
    pub load_time: PairedSamples,
    /// Browser-incompatible PTs.
    pub excluded: Vec<PtId>,
}

/// One executor shard: a PT's (speed-index, load-time) sample pair
/// vectors, or `None` when the browser cannot drive the PT.
pub type Shard = (PtId, Option<(Vec<f64>, Vec<f64>)>);

/// Decomposes the experiment into one independent unit per PT, each on
/// its own `fig11/{pt}` RNG stream (post-surge epoch, like the
/// selenium runs — see [`crate::executor`]).
pub fn units(scenario: &Scenario, cfg: &Config) -> Vec<Unit<Shard>> {
    let mut scenario = scenario.clone();
    if matches!(scenario.epoch, Epoch::PreSurge) {
        scenario.epoch = Epoch::Plateau;
    }
    let scenario = Arc::new(scenario);
    let sites = scenario.target_sites(cfg.sites_per_list);
    figure_order()
        .into_iter()
        .map(|pt| {
            let scenario = Arc::clone(&scenario);
            let sites = Arc::clone(&sites);
            Unit::pooled(format!("fig11/{pt}"), move |rec, scratch| {
                let transport = transport_for(pt);
                let dep = scenario.deployment();
                let opts = scenario.access_options();
                let mut rng = scenario.rng(&format!("fig11/{pt}"));
                let mut si = Vec::new();
                let mut lt = Vec::new();
                let mut phases = ptperf_obs::PhaseAccum::new();
                for site in sites.iter() {
                    let ch = transport.establish_with(
                        &dep,
                        &opts,
                        site.server,
                        &mut rng,
                        &mut scratch.establish,
                    );
                    match browser::load_page_pooled(&ch, site, &mut rng, rec, &mut scratch.page) {
                        Ok(page) => {
                            if rec.enabled() {
                                record_page_phases(&mut phases, &ch, &page);
                                rec.add("events", 1);
                            }
                            si.push(page.speed_index.as_secs_f64());
                            lt.push(page.total.as_secs_f64());
                        }
                        Err(_) => return ((pt, None), 0),
                    }
                }
                phases.emit(rec);
                let n = si.len();
                ((pt, Some((si, lt))), n)
            })
        })
        .collect()
}

/// Merges shards (in shard-index order) into the experiment result.
pub fn merge(shards: Vec<Shard>) -> Result {
    let mut speed_index = PairedSamples::new();
    let mut load_time = PairedSamples::new();
    let mut excluded = Vec::new();
    for (pt, pair) in shards {
        match pair {
            Some((si, lt)) => {
                for v in si {
                    speed_index.push(pt, v);
                }
                for v in lt {
                    load_time.push(pt, v);
                }
            }
            None => excluded.push(pt),
        }
    }
    Result {
        speed_index,
        load_time,
        excluded,
    }
}

/// Runs the experiment (post-surge epoch, like the selenium runs).
pub fn run(scenario: &Scenario, cfg: &Config) -> Result {
    let executed = run_units(&Parallelism::sequential(), units(scenario, cfg))
        .expect("campaign units do not panic");
    merge(executed.values)
}

impl Result {
    /// Renders the Figure 11 boxplots.
    pub fn render(&self) -> String {
        let entries: Vec<(String, Summary)> = figure_order()
            .into_iter()
            .filter(|pt| !self.excluded.contains(pt))
            .map(|pt| (pt.name().to_string(), self.speed_index.summary(pt)))
            .collect();
        let mut out = String::from("Figure 11 — Speed index per PT (s)\n");
        out.push_str(&ascii_boxplots(&entries, 100, false));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Result {
        run(&Scenario::baseline(121), &Config::quick())
    }

    #[test]
    fn speed_index_below_load_time_for_every_pt() {
        let r = result();
        for pt in r.speed_index.pts() {
            assert!(
                r.speed_index.median(pt) < r.load_time.median(pt),
                "{pt}: SI {:.2} vs load {:.2}",
                r.speed_index.median(pt),
                r.load_time.median(pt)
            );
        }
    }

    #[test]
    fn category_trends_match_selenium() {
        let r = result();
        // meek worst among proxy-layer; marionette worst among mimicry.
        let si = |pt| r.speed_index.median(pt);
        assert!(si(PtId::Meek) > si(PtId::Conjure));
        assert!(si(PtId::Marionette) > si(PtId::Cloak));
        assert!(si(PtId::Marionette) > si(PtId::Stegotorus));
    }

    #[test]
    fn camoufler_still_excluded() {
        assert!(result().excluded.contains(&PtId::Camoufler));
    }

    #[test]
    fn render_lists_pts() {
        let text = result().render();
        assert!(text.contains("obfs4"));
        assert!(text.contains("marionette"));
    }
}
