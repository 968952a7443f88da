//! **Figure 6** — time to first byte (TTFB) per PT, as an ECDF over all
//! website fetches. The paper's read: all PTs except meek, marionette,
//! and camoufler deliver the first byte within 5 s for >80% of websites.

use std::collections::BTreeMap;
use std::sync::Arc;

use ptperf_stats::{ascii_ecdf, Ecdf};
use ptperf_transports::{transport_for, PtId};
use ptperf_web::curl;

use crate::executor::{run_units, Parallelism, Unit};
use crate::scenario::Scenario;

use super::figure_order;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Sites per list.
    pub sites_per_list: usize,
}

impl Config {
    /// Test-scale preset.
    pub fn quick() -> Config {
        Config { sites_per_list: 30 }
    }

    /// The paper's scale.
    pub fn paper() -> Config {
        Config {
            sites_per_list: 1000,
        }
    }
}

/// Result: TTFB samples per PT.
#[derive(Debug, Clone)]
pub struct Result {
    /// TTFB (seconds) per PT across all sites.
    pub ttfb: BTreeMap<PtId, Vec<f64>>,
}

/// One executor shard: a PT's TTFB samples from its own RNG stream.
pub type Shard = (PtId, Vec<f64>);

/// Decomposes the experiment into one independent unit per PT, each on
/// its own `fig6/{pt}` RNG stream (see [`crate::executor`]).
pub fn units(scenario: &Scenario, cfg: &Config) -> Vec<Unit<Shard>> {
    let sites = scenario.target_sites(cfg.sites_per_list);
    figure_order()
        .into_iter()
        .map(|pt| {
            let scenario = scenario.clone();
            let sites = Arc::clone(&sites);
            Unit::pooled(format!("fig6/{pt}"), move |rec, scratch| {
                let transport = transport_for(pt);
                let dep = scenario.deployment();
                let opts = scenario.access_options();
                let mut rng = scenario.rng(&format!("fig6/{pt}"));
                let mut v = Vec::new();
                let mut phases = ptperf_obs::PhaseAccum::new();
                for site in sites.iter() {
                    let ch = transport.establish_with(
                        &dep,
                        &opts,
                        site.server,
                        &mut rng,
                        &mut scratch.establish,
                    );
                    let fetch = curl::fetch(&ch, site, &mut rng);
                    if rec.enabled() {
                        crate::measure::record_fetch_phases(&mut phases, &ch, &fetch);
                        rec.add("events", 1);
                    }
                    // TTFB is a property of responses that arrived; a
                    // failed connection has no first byte (the paper
                    // measures TTFB on delivered responses).
                    if fetch.outcome != ptperf_web::Outcome::Failed {
                        v.push(fetch.ttfb.as_secs_f64());
                    }
                }
                phases.emit(rec);
                let n = v.len();
                ((pt, v), n)
            })
        })
        .collect()
}

/// Merges shards (in shard-index order) into the experiment result.
pub fn merge(shards: Vec<Shard>) -> Result {
    Result {
        ttfb: shards.into_iter().collect(),
    }
}

/// Runs the experiment.
pub fn run(scenario: &Scenario, cfg: &Config) -> Result {
    let executed = run_units(&Parallelism::sequential(), units(scenario, cfg))
        .expect("campaign units do not panic");
    merge(executed.values)
}

impl Result {
    /// Fraction of sites with TTFB below `threshold` seconds for a PT.
    pub fn fraction_below(&self, pt: PtId, threshold: f64) -> f64 {
        Ecdf::new(&self.ttfb[&pt]).eval(threshold)
    }

    /// Renders the Figure 6 ECDF plot (a representative subset of series
    /// keeps the ASCII plot readable; every PT's numbers are in the
    /// summary lines below it).
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 6 — TTFB ECDF per PT\n");
        let highlight = [
            PtId::Vanilla,
            PtId::Obfs4,
            PtId::Meek,
            PtId::Marionette,
            PtId::Camoufler,
        ];
        let series: Vec<(String, Vec<(f64, f64)>)> = highlight
            .iter()
            .map(|&pt| (pt.name().to_string(), Ecdf::new(&self.ttfb[&pt]).points()))
            .collect();
        out.push_str(&ascii_ecdf(&series, 90, 18));
        out.push_str("\nTTFB summary (fraction of sites < 5 s):\n");
        for pt in figure_order() {
            out.push_str(&format!(
                "  {:12} {:.0}%  (median {:.2} s)\n",
                pt.name(),
                100.0 * self.fraction_below(pt, 5.0),
                ptperf_stats::median(&self.ttfb[&pt]),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Result {
        run(&Scenario::baseline(61), &Config::quick())
    }

    #[test]
    fn most_pts_deliver_first_byte_fast() {
        let r = result();
        for pt in [
            PtId::Vanilla,
            PtId::Obfs4,
            PtId::Shadowsocks,
            PtId::WebTunnel,
            PtId::Cloak,
            PtId::Conjure,
            PtId::Psiphon,
            PtId::Snowflake,
            PtId::Dnstt,
            PtId::Stegotorus,
        ] {
            assert!(
                r.fraction_below(pt, 5.0) > 0.8,
                "{pt}: only {:.2} below 5 s",
                r.fraction_below(pt, 5.0)
            );
        }
    }

    #[test]
    fn slow_trio_has_high_ttfb() {
        let r = result();
        for pt in [PtId::Meek, PtId::Marionette, PtId::Camoufler] {
            assert!(
                r.fraction_below(pt, 2.0) < 0.5,
                "{pt}: {:.2} below 2 s — should be slow",
                r.fraction_below(pt, 2.0)
            );
        }
        // Marionette is the worst of all.
        assert!(r.fraction_below(PtId::Marionette, 5.0) < r.fraction_below(PtId::Meek, 5.0) + 0.3);
    }

    #[test]
    fn render_summarizes_every_pt() {
        let text = result().render();
        for pt in figure_order() {
            assert!(text.contains(pt.name()));
        }
    }
}
