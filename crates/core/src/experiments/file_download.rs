//! **Figure 5** and **Table 7** — bulk file download times for 5–100 MB
//! files hosted on the campaign's own server, via every PT.
//!
//! As in the paper: a PT appears in the figure only if it completed at
//! least two downloads of every size; PTs that mostly fail (meek, dnstt,
//! snowflake) are excluded from the figure but their attempts still feed
//! the reliability analysis (Figure 8) and the t-test table.

use std::collections::BTreeMap;
use std::sync::Arc;

use ptperf_stats::{ascii_boxplots, Summary};
use ptperf_transports::{fault_bias, transport_for, PtId};
use ptperf_web::{filedl, Outcome, FILE_SIZES};

use crate::executor::{run_units, Parallelism, Unit};
use crate::measure::PairedSamples;
use crate::scenario::{Epoch, Scenario};

use super::figure_order;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Download attempts per (PT, size) (paper: 10).
    pub attempts: usize,
    /// File sizes in bytes.
    pub sizes: [u64; 5],
}

impl Config {
    /// Test-scale preset: the paper's file sizes (simulated transfers
    /// cost the same regardless of size), fewer attempts.
    pub fn quick() -> Config {
        Config {
            attempts: 6,
            sizes: FILE_SIZES,
        }
    }

    /// The paper's scale.
    pub fn paper() -> Config {
        Config {
            attempts: 10,
            sizes: FILE_SIZES,
        }
    }
}

/// One download attempt's record.
#[derive(Debug, Clone, Copy)]
pub struct Attempt {
    /// File size, bytes.
    pub size: u64,
    /// Elapsed wall time, seconds.
    pub elapsed: f64,
    /// Fraction delivered.
    pub fraction: f64,
    /// Outcome.
    pub outcome: Outcome,
}

/// Result of the file-download experiment.
#[derive(Debug, Clone)]
pub struct Result {
    /// All attempts per PT.
    pub attempts: BTreeMap<PtId, Vec<Attempt>>,
    /// Aligned elapsed times per (size, attempt) for the t-test table
    /// (partial/failed attempts contribute their time-at-termination).
    pub paired: PairedSamples,
}

/// One executor shard: a PT's download attempts from its own RNG
/// stream (the paired series is reconstructed at merge time).
pub type Shard = (PtId, Vec<Attempt>);

/// Decomposes the experiment into one independent unit per PT, each on
/// its own `fig5/{pt}` RNG stream (see [`crate::executor`]).
///
/// The paper's file campaign coincided with the snowflake surge; if the
/// scenario is still pre-surge, the plateau epoch is used, matching the
/// measurement timeline.
pub fn units(scenario: &Scenario, cfg: &Config) -> Vec<Unit<Shard>> {
    let mut scenario = scenario.clone();
    if matches!(scenario.epoch, Epoch::PreSurge) {
        scenario.epoch = Epoch::Plateau;
    }
    // One shared scenario for all thirteen units: each closure clones the
    // Arc, not the Scenario, and the deployment build is shared through
    // the scenario's memo.
    let scenario = Arc::new(scenario);
    let cfg = *cfg;
    figure_order()
        .into_iter()
        .map(|pt| {
            let scenario = Arc::clone(&scenario);
            Unit::pooled(format!("fig5/{pt}"), move |rec, scratch| {
                let transport = transport_for(pt);
                let dep = scenario.deployment();
                let opts = scenario.access_options();
                let file_server = scenario.server_region;
                let mut rng = scenario.rng(&format!("fig5/{pt}"));
                let mut faults = scenario.fault_session(&format!("fig5/{pt}"), fault_bias(pt));
                let mut list = Vec::with_capacity(cfg.sizes.len() * cfg.attempts);
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
                        list.push(Attempt {
                            size,
                            elapsed: d.elapsed.as_secs_f64(),
                            fraction: d.fraction,
                            outcome: d.outcome,
                        });
                    }
                }
                phases.emit(rec);
                if faults.is_active() {
                    faults.emit(rec);
                }
                let n = list.len();
                ((pt, list), n)
            })
        })
        .collect()
}

/// Merges shards (in shard-index order) into the experiment result.
pub fn merge(shards: Vec<Shard>) -> Result {
    let mut attempts: BTreeMap<PtId, Vec<Attempt>> = BTreeMap::new();
    let mut paired = PairedSamples::new();
    for (pt, list) in shards {
        for a in &list {
            paired.push(pt, a.elapsed);
        }
        attempts.insert(pt, list);
    }
    Result { attempts, paired }
}

/// Runs the experiment (see [`units`] for the epoch-lift note).
pub fn run(scenario: &Scenario, cfg: &Config) -> Result {
    let executed = run_units(&Parallelism::sequential(), units(scenario, cfg))
        .expect("campaign units do not panic");
    merge(executed.values)
}

impl Result {
    /// Whether a PT qualifies for the figure: ≥2 complete downloads of
    /// every size.
    pub fn qualifies(&self, pt: PtId) -> bool {
        let list = &self.attempts[&pt];
        let sizes: Vec<u64> = {
            let mut s: Vec<u64> = list.iter().map(|a| a.size).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        sizes.iter().all(|&size| {
            list.iter()
                .filter(|a| a.size == size && a.outcome == Outcome::Complete)
                .count()
                >= 2
        })
    }

    /// Mean completed-download time for a (PT, size); `None` if never
    /// completed.
    pub fn mean_time(&self, pt: PtId, size: u64) -> Option<f64> {
        let v: Vec<f64> = self.attempts[&pt]
            .iter()
            .filter(|a| a.size == size && a.outcome == Outcome::Complete)
            .map(|a| a.elapsed)
            .collect();
        if v.is_empty() {
            None
        } else {
            Some(ptperf_stats::mean(&v))
        }
    }

    /// PTs excluded from the figure (the paper: meek, dnstt, snowflake).
    pub fn excluded(&self) -> Vec<PtId> {
        figure_order()
            .into_iter()
            .filter(|&pt| !self.qualifies(pt))
            .collect()
    }

    /// Renders the Figure 5 series (one boxplot per qualifying PT over
    /// its completed downloads, log y).
    pub fn render(&self) -> String {
        let mut entries: Vec<(String, Summary)> = Vec::new();
        let mut excluded: Vec<&str> = Vec::new();
        for pt in figure_order() {
            if !self.qualifies(pt) {
                excluded.push(pt.name());
                continue;
            }
            let v: Vec<f64> = self.attempts[&pt]
                .iter()
                .filter(|a| a.outcome == Outcome::Complete)
                .map(|a| a.elapsed)
                .collect();
            entries.push((pt.name().to_string(), Summary::of(&v)));
        }
        let mut out = String::from(
            "Figure 5 — File download time across sizes (s, log scale), completed downloads\n",
        );
        out.push_str(&ascii_boxplots(&entries, 100, true));
        if !excluded.is_empty() {
            out.push_str(&format!(
                "excluded (could not complete every size at least twice): {}\n",
                excluded.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Result {
        run(&Scenario::baseline(51), &Config::quick())
    }

    #[test]
    fn unreliable_pts_are_excluded_from_figure() {
        let r = result();
        let excluded = r.excluded();
        for pt in [PtId::Meek, PtId::Snowflake, PtId::Dnstt] {
            assert!(
                excluded.contains(&pt),
                "{pt} should be excluded: {excluded:?}"
            );
        }
    }

    #[test]
    fn fast_pts_qualify_and_win() {
        let r = result();
        for pt in [
            PtId::Obfs4,
            PtId::Cloak,
            PtId::Psiphon,
            PtId::WebTunnel,
            PtId::Vanilla,
        ] {
            assert!(r.qualifies(pt), "{pt} should qualify");
        }
        // obfs4 and cloak beat camoufler on a mid-size file when both
        // complete (the paper: ~3× at 10 MB).
        let size = Config::quick().sizes[3];
        let obfs4 = r.mean_time(PtId::Obfs4, size).unwrap();
        if let Some(camoufler) = r.mean_time(PtId::Camoufler, size) {
            assert!(
                camoufler > obfs4 * 1.5,
                "camoufler {camoufler:.1} vs obfs4 {obfs4:.1}"
            );
        }
    }

    #[test]
    fn times_grow_with_size() {
        let r = result();
        let cfg = Config::quick();
        let small = r.mean_time(PtId::Obfs4, cfg.sizes[0]).unwrap();
        let large = r.mean_time(PtId::Obfs4, cfg.sizes[4]).unwrap();
        assert!(large > small * 3.0, "small {small:.1} large {large:.1}");
    }

    #[test]
    fn marionette_is_slowest_qualifier_or_excluded() {
        let r = result();
        if r.qualifies(PtId::Marionette) {
            let size = Config::quick().sizes[2];
            let m = r.mean_time(PtId::Marionette, size).unwrap();
            let o = r.mean_time(PtId::Obfs4, size).unwrap();
            assert!(m > o * 3.0, "marionette {m:.1} obfs4 {o:.1}");
        }
    }

    #[test]
    fn render_lists_exclusions() {
        let text = result().render();
        assert!(text.contains("excluded"));
        assert!(text.contains("meek"));
    }
}
