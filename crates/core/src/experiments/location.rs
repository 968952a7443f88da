//! **Figure 7** — impact of client/server location (§4.5).
//!
//! Three client locations (Bangalore, London, Toronto) × three server
//! locations (Singapore, Frankfurt, New York). The paper's findings:
//! the PT *ordering* is invariant across locations, and Bangalore
//! clients always see higher absolute access times (relays cluster in
//! Europe/North America).

use std::collections::BTreeMap;
use std::sync::Arc;

use ptperf_sim::Location;
use ptperf_stats::{ascii_boxplots, Summary};
use ptperf_transports::PtId;
use ptperf_web::FaultSession;

use crate::executor::{run_units, Parallelism, Unit};
use crate::measure::curl_site_averages;
use crate::scenario::Scenario;

/// The showcased PTs of Figure 7.
pub const SHOWCASE: [PtId; 3] = [PtId::Meek, PtId::Snowflake, PtId::Obfs4];

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Sites per list per combination.
    pub sites_per_list: usize,
    /// Fetches per site.
    pub repeats: usize,
    /// PTs to measure (the full campaign covered all; the figure shows
    /// three).
    pub all_pts: bool,
}

impl Config {
    /// Test-scale preset.
    pub fn quick() -> Config {
        Config {
            sites_per_list: 15,
            repeats: 1,
            all_pts: false,
        }
    }

    /// The paper's scale.
    pub fn paper() -> Config {
        Config {
            sites_per_list: 1000,
            repeats: 5,
            all_pts: true,
        }
    }
}

/// Result: per-(client, server, PT) access-time samples.
#[derive(Debug, Clone)]
pub struct Result {
    /// Samples keyed by (client, server, pt).
    pub samples: BTreeMap<(Location, Location, PtId), Vec<f64>>,
}

/// One executor shard: a `(client, server, PT)` grid cell's samples,
/// from the cell's own RNG stream.
pub type Shard = ((Location, Location, PtId), Vec<f64>);

/// Decomposes the experiment into one independent unit per
/// `(client, server, PT)` grid cell, each on its own
/// `fig7/{client}/{server}/{pt}` RNG stream (see [`crate::executor`]).
pub fn units(scenario: &Scenario, cfg: &Config) -> Vec<Unit<Shard>> {
    let pts: Vec<PtId> = if cfg.all_pts {
        super::figure_order()
    } else {
        SHOWCASE.to_vec()
    };
    let sites = scenario.target_sites(cfg.sites_per_list);
    let cfg = *cfg;
    let mut units = Vec::new();
    for &client in &Location::CLIENTS {
        for &server in &Location::SERVERS {
            let mut sc = scenario.clone();
            sc.client = client;
            sc.server_region = server;
            for &pt in &pts {
                let sc = sc.clone();
                let sites = Arc::clone(&sites);
                units.push(Unit::pooled(
                    format!("fig7/{client}/{server}/{pt}"),
                    move |rec, scratch| {
                        let mut rng = sc.rng(&format!("fig7/{client}/{server}/{pt}"));
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
                        (((client, server, pt), avgs), n)
                    },
                ));
            }
        }
    }
    units
}

/// Merges shards (in shard-index order) into the experiment result.
pub fn merge(shards: Vec<Shard>) -> Result {
    Result {
        samples: shards.into_iter().collect(),
    }
}

/// Runs the experiment over the 3×3 location grid.
pub fn run(scenario: &Scenario, cfg: &Config) -> Result {
    let executed = run_units(&Parallelism::sequential(), units(scenario, cfg))
        .expect("campaign units do not panic");
    merge(executed.values)
}

impl Result {
    /// Median access time for a (client, server, pt) cell.
    pub fn median(&self, client: Location, server: Location, pt: PtId) -> f64 {
        ptperf_stats::median(&self.samples[&(client, server, pt)])
    }

    /// Median access time for a (client, pt), pooled over servers.
    pub fn median_by_client(&self, client: Location, pt: PtId) -> f64 {
        let pooled: Vec<f64> = Location::SERVERS
            .iter()
            .flat_map(|&s| self.samples[&(client, s, pt)].iter().copied())
            .collect();
        ptperf_stats::median(&pooled)
    }

    /// Renders the Figure 7 grouped boxplots (per client location).
    pub fn render(&self) -> String {
        let mut out =
            String::from("Figure 7 — Website access time by client location (s, log scale)\n");
        for &client in &Location::CLIENTS {
            out.push_str(&format!("\nclient: {client}\n"));
            let entries: Vec<(String, Summary)> = SHOWCASE
                .iter()
                .map(|&pt| {
                    let pooled: Vec<f64> = Location::SERVERS
                        .iter()
                        .flat_map(|&s| self.samples[&(client, s, pt)].iter().copied())
                        .collect();
                    (pt.name().to_string(), Summary::of(&pooled))
                })
                .collect();
            out.push_str(&ascii_boxplots(&entries, 100, true));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Result {
        run(&Scenario::baseline(71), &Config::quick())
    }

    #[test]
    fn ordering_is_invariant_across_locations() {
        // obfs4 and snowflake beat meek everywhere (pre-surge epoch).
        let r = result();
        for &client in &Location::CLIENTS {
            let meek = r.median_by_client(client, PtId::Meek);
            let obfs4 = r.median_by_client(client, PtId::Obfs4);
            let snowflake = r.median_by_client(client, PtId::Snowflake);
            assert!(obfs4 < meek, "{client}: obfs4 {obfs4:.2} vs meek {meek:.2}");
            assert!(
                snowflake < meek,
                "{client}: snowflake {snowflake:.2} vs meek {meek:.2}"
            );
        }
    }

    #[test]
    fn bangalore_is_slowest_client() {
        let r = result();
        for &pt in &SHOWCASE {
            let blr = r.median_by_client(Location::Bangalore, pt);
            let lon = r.median_by_client(Location::London, pt);
            let toro = r.median_by_client(Location::Toronto, pt);
            assert!(
                blr > lon && blr > toro,
                "{pt}: BLR {blr:.2} LON {lon:.2} TORO {toro:.2}"
            );
        }
    }

    #[test]
    fn grid_is_complete() {
        let r = result();
        assert_eq!(r.samples.len(), 3 * 3 * SHOWCASE.len());
    }

    #[test]
    fn render_covers_clients() {
        let text = result().render();
        assert!(text.contains("BLR"));
        assert!(text.contains("LON"));
        assert!(text.contains("TORO"));
    }
}
