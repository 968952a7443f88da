//! **Figure 8** — reliability of bulk downloads (§4.6).
//!
//! 8a: the fraction of complete / partial / failed download attempts per
//! PT (stacked bars). 8b: the ECDF of the *portion of the file* that
//! arrived, for the three worst offenders (meek, dnstt, snowflake).
//! The paper: those three end >80% of attempts partial; camoufler and
//! meek fail outright ~10% of the time.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::Arc;

use ptperf_stats::{ascii_ecdf, Ecdf, Fixed, Table};
use ptperf_transports::{fault_bias, transport_for, PtId};
use ptperf_web::{filedl, ReliabilityCounts, FILE_SIZES};

use crate::executor::{run_units, Parallelism, Unit};
use crate::scenario::{Epoch, Scenario};

use super::figure_order;

/// The PTs whose download fractions Figure 8b plots.
pub const WORST: [PtId; 3] = [PtId::Meek, PtId::Dnstt, PtId::Snowflake];

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Attempts per (PT, size) (paper: 20 for Fig. 8b).
    pub attempts: usize,
    /// File sizes.
    pub sizes: [u64; 5],
}

impl Config {
    /// Test-scale preset: the paper's real file sizes (simulated
    /// transfers cost the same regardless of size), fewer attempts.
    pub fn quick() -> Config {
        Config {
            attempts: 6,
            sizes: FILE_SIZES,
        }
    }

    /// The paper's scale.
    pub fn paper() -> Config {
        Config {
            attempts: 20,
            sizes: FILE_SIZES,
        }
    }
}

/// Result of the reliability experiment.
#[derive(Debug, Clone)]
pub struct Result {
    /// Outcome counts per PT (Fig. 8a).
    pub counts: BTreeMap<PtId, ReliabilityCounts>,
    /// Downloaded fraction per attempt per PT (Fig. 8b).
    pub fractions: BTreeMap<PtId, Vec<f64>>,
}

/// One executor shard: a PT's outcome counts and download fractions
/// from its own RNG stream.
pub type Shard = (PtId, ReliabilityCounts, Vec<f64>);

/// Decomposes the experiment into one independent unit per PT (vanilla
/// Tor is skipped — Fig. 8 covers the PTs), each on its own `fig8/{pt}`
/// RNG stream (see [`crate::executor`]).
///
/// The paper's file campaign coincided with the surge itself (§5.3:
/// "post-September 2022, in 8 out of 10 attempts, we failed"), so a
/// pre-surge scenario is lifted to the surge epoch.
pub fn units(scenario: &Scenario, cfg: &Config) -> Vec<Unit<Shard>> {
    let mut scenario = scenario.clone();
    if matches!(scenario.epoch, Epoch::PreSurge) {
        scenario.epoch = Epoch::Surge;
    }
    let scenario = Arc::new(scenario);
    let cfg = *cfg;
    figure_order()
        .into_iter()
        .filter(|&pt| pt != PtId::Vanilla)
        .map(|pt| {
            let scenario = Arc::clone(&scenario);
            Unit::pooled(format!("fig8/{pt}"), move |rec, scratch| {
                let transport = transport_for(pt);
                let dep = scenario.deployment();
                let opts = scenario.access_options();
                let file_server = scenario.server_region;
                let mut rng = scenario.rng(&format!("fig8/{pt}"));
                let mut faults = scenario.fault_session(&format!("fig8/{pt}"), fault_bias(pt));
                let mut c = ReliabilityCounts::default();
                let mut f = Vec::with_capacity(cfg.sizes.len() * cfg.attempts);
                let mut phases = ptperf_obs::PhaseAccum::new();
                for &size in &cfg.sizes {
                    for _ in 0..cfg.attempts {
                        let ch = transport.establish_with(
                            &dep,
                            &opts,
                            file_server,
                            &mut rng,
                            &mut scratch.establish,
                        );
                        let d = filedl::download_faulted(&ch, size, &mut rng, &mut faults);
                        if rec.enabled() {
                            let handshake = (ch.setup + ch.stream_open).min(d.elapsed);
                            phases.add_ns("handshake", handshake.as_nanos());
                            phases
                                .add_ns("transfer", d.elapsed.saturating_sub(handshake).as_nanos());
                            phases.hist_ns("total", d.elapsed.as_nanos());
                            rec.add("events", 1);
                        }
                        c.record(d.outcome);
                        f.push(d.fraction);
                    }
                }
                phases.emit(rec);
                if faults.is_active() {
                    faults.emit(rec);
                }
                let n = f.len();
                ((pt, c, f), n)
            })
        })
        .collect()
}

/// Merges shards (in shard-index order) into the experiment result.
pub fn merge(shards: Vec<Shard>) -> Result {
    let mut counts: BTreeMap<PtId, ReliabilityCounts> = BTreeMap::new();
    let mut fractions: BTreeMap<PtId, Vec<f64>> = BTreeMap::new();
    for (pt, c, f) in shards {
        counts.insert(pt, c);
        fractions.insert(pt, f);
    }
    Result { counts, fractions }
}

/// Runs the experiment (see [`units`] for the epoch-lift note).
pub fn run(scenario: &Scenario, cfg: &Config) -> Result {
    let executed = run_units(&Parallelism::sequential(), units(scenario, cfg))
        .expect("campaign units do not panic");
    merge(executed.values)
}

impl Result {
    /// Renders Figure 8a as a table of outcome fractions.
    pub fn render_stacked(&self) -> String {
        let mut out =
            String::from("Figure 8a — Fraction of complete / partial / failed file downloads\n");
        let mut table = Table::new(["PT", "complete", "partial", "failed"]);
        for (pt, c) in &self.counts {
            let (comp, part, fail) = c.fractions();
            table.row([
                &pt.name() as &dyn Display,
                &Fixed(comp, 2),
                &Fixed(part, 2),
                &Fixed(fail, 2),
            ]);
        }
        out.push_str(&table.render());
        out
    }

    /// Renders Figure 8b (ECDF of downloaded portion for the worst PTs).
    pub fn render_ecdf(&self) -> String {
        let series: Vec<(String, Vec<(f64, f64)>)> = WORST
            .iter()
            .map(|&pt| {
                (
                    pt.name().to_string(),
                    Ecdf::new(&self.fractions[&pt]).points(),
                )
            })
            .collect();
        let mut out =
            String::from("Figure 8b — ECDF of the portion of the file downloaded per attempt\n");
        out.push_str(&ascii_ecdf(&series, 80, 16));
        out
    }

    /// The non-complete fraction for a PT.
    pub fn incomplete_fraction(&self, pt: PtId) -> f64 {
        let (complete, _, _) = self.counts[&pt].fractions();
        1.0 - complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Result {
        run(&Scenario::baseline(81), &Config::quick())
    }

    #[test]
    fn worst_trio_mostly_fails_bulk() {
        let r = result();
        // The paper: >80% of attempts end incomplete for these three.
        for pt in WORST {
            assert!(
                r.incomplete_fraction(pt) > 0.75,
                "{pt}: incomplete {:.2}",
                r.incomplete_fraction(pt)
            );
        }
    }

    #[test]
    fn reliable_pts_mostly_complete() {
        let r = result();
        for pt in [
            PtId::Obfs4,
            PtId::Cloak,
            PtId::Psiphon,
            PtId::WebTunnel,
            PtId::Shadowsocks,
        ] {
            let (complete, _, _) = r.counts[&pt].fractions();
            assert!(complete > 0.8, "{pt}: complete {complete:.2}");
        }
    }

    #[test]
    fn camoufler_and_meek_fail_outright_sometimes() {
        let r = result();
        for pt in [PtId::Camoufler, PtId::Meek] {
            let (_, _, failed) = r.counts[&pt].fractions();
            assert!(failed > 0.02, "{pt}: failed {failed:.2}");
        }
    }

    #[test]
    fn fractions_are_valid() {
        let r = result();
        for (pt, v) in &r.fractions {
            assert!(
                v.iter().all(|&f| (0.0..=1.0).contains(&f)),
                "{pt} has out-of-range fractions"
            );
        }
    }

    #[test]
    fn renders_include_worst_trio() {
        let r = result();
        let text = r.render_stacked() + &r.render_ecdf();
        for pt in WORST {
            assert!(text.contains(pt.name()));
        }
    }
}
