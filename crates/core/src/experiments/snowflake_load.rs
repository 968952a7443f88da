//! **Figures 10 and 12** — the September-2022 Iran surge on snowflake
//! (§5.3, Appendix A.2).
//!
//! * Fig. 10a: the user-load timeline (rise at the end of September, the
//!   October dip when the TLS fingerprint was blocked, recovery in
//!   November, then a persistently elevated plateau);
//! * Fig. 10b: curl access time pre- vs post-surge (the paper: mean 3.42
//!   → 4.77 s, significant);
//! * Fig. 12: weekly post-surge monitoring — every post-surge week stays
//!   above the pre-surge box.

use std::sync::Arc;

use ptperf_stats::{ascii_boxplots, PairedTTest, Summary};
use ptperf_transports::{fault_bias, PtId};
use ptperf_web::Website;

use crate::executor::{run_units, Parallelism, Unit};
use crate::measure::curl_site_averages;
use crate::scenario::{Epoch, Scenario};

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Sites per list for the pre/post comparison (paper: Tranco-1k).
    pub sites_per_list: usize,
    /// Fetches per site.
    pub repeats: usize,
    /// Post-surge weekly monitoring points (paper: weekly, 100 sites × 5).
    pub monitor_weeks: usize,
    /// Sites per monitoring week.
    pub monitor_sites: usize,
}

impl Config {
    /// Test-scale preset.
    pub fn quick() -> Config {
        Config {
            sites_per_list: 60,
            repeats: 2,
            monitor_weeks: 4,
            monitor_sites: 40,
        }
    }

    /// The paper's scale.
    pub fn paper() -> Config {
        Config {
            sites_per_list: 1000,
            repeats: 5,
            monitor_weeks: 8,
            monitor_sites: 100,
        }
    }
}

/// A point on the user-load timeline.
#[derive(Debug, Clone, Copy)]
pub struct TimelinePoint {
    /// Week index relative to the surge (0 = last week of September).
    pub week: i32,
    /// Relative concurrent-user load (1.0 = pre-surge baseline).
    pub load: f64,
}

/// The replayed user-load timeline of Figure 10a: baseline, surge, the
/// October TLS-fingerprint-blocking dip, recovery, plateau.
pub fn user_timeline() -> Vec<TimelinePoint> {
    let shape: [(i32, f64); 12] = [
        (-4, 1.0),
        (-3, 1.0),
        (-2, 1.05),
        (-1, 1.1),
        (0, 2.6), // protests begin, users flood in
        (1, 3.2), // peak
        (2, 1.6), // October: snowflake TLS fingerprint blocked [30]
        (3, 1.4),
        (4, 2.8), // November: fix shipped, users return
        (5, 2.9),
        (6, 2.4), // settling into the plateau
        (7, 2.2),
    ];
    shape
        .iter()
        .map(|&(week, load)| TimelinePoint { week, load })
        .collect()
}

/// Result of the surge study.
#[derive(Debug, Clone)]
pub struct Result {
    /// Pre-surge per-site access-time averages (snowflake, curl).
    pub pre: Vec<f64>,
    /// Post-surge per-site averages.
    pub post: Vec<f64>,
    /// Pre-surge measurements on the (smaller) monitoring site set, the
    /// baseline box of Fig. 12.
    pub pre_monitor: Vec<f64>,
    /// Weekly monitoring samples (Fig. 12), one vector per week.
    pub weekly: Vec<Vec<f64>>,
}

/// One executor shard: one measurement series (pre, post, pre-monitor,
/// or one monitoring week), each on its own RNG stream.
pub type Shard = Vec<f64>;

/// Decomposes the experiment into independent units: shard 0 is the
/// pre-surge series, 1 the post-surge series, 2 the pre-surge monitoring
/// baseline, and 3.. the weekly monitoring series (see
/// [`crate::executor`]).
pub fn units(scenario: &Scenario, cfg: &Config) -> Vec<Unit<Shard>> {
    let sites = scenario.target_sites(cfg.sites_per_list);
    let monitor_sites = scenario.target_sites(cfg.monitor_sites / 2 + 1);
    let mut pre = scenario.clone();
    pre.epoch = Epoch::PreSurge;
    let mut post = scenario.clone();
    post.epoch = Epoch::Plateau;
    let mut units = vec![
        series(
            "fig10/pre".into(),
            pre.clone(),
            Arc::clone(&sites),
            cfg.repeats,
        ),
        series("fig10/post".into(), post, sites, cfg.repeats),
        series(
            "fig12/pre".into(),
            pre,
            Arc::clone(&monitor_sites),
            cfg.repeats,
        ),
    ];
    // Weekly monitoring (March 2023 in the paper): plateau-level load
    // with mild week-to-week wobble, against the same (smaller) site set
    // as the pre-surge baseline box.
    for week in 0..cfg.monitor_weeks {
        let mut sc = scenario.clone();
        // Week-to-week wobble stays at or above the plateau level — the
        // paper's observation was that users never went back down.
        let wobble = 1.0 + 0.08 * ((week % 3) as f64);
        sc.epoch = Epoch::LoadMult(Epoch::Plateau.load_mult() * wobble);
        let tag = format!("fig12/week{week}");
        units.push(series(tag, sc, Arc::clone(&monitor_sites), cfg.repeats));
    }
    units
}

/// One snowflake curl series: per-site averages over `sites` under
/// `sc`'s epoch, on the RNG stream and fault session named `tag`.
fn series(tag: String, sc: Scenario, sites: Arc<[Website]>, repeats: usize) -> Unit<Shard> {
    Unit::pooled(tag.clone(), move |rec, scratch| {
        let mut rng = sc.rng(&tag);
        let mut faults = sc.fault_session(&tag, fault_bias(PtId::Snowflake));
        let v = curl_site_averages(
            &sc,
            PtId::Snowflake,
            &sites,
            repeats,
            &mut rng,
            rec,
            &mut scratch.establish,
            &mut faults,
        );
        if faults.is_active() {
            faults.emit(rec);
        }
        let n = v.len();
        (v, n)
    })
}

/// Merges shards (in shard-index order) into the experiment result.
pub fn merge(shards: Vec<Shard>) -> Result {
    let mut parts = shards.into_iter();
    let pre = parts.next().expect("pre shard");
    let post = parts.next().expect("post shard");
    let pre_monitor = parts.next().expect("pre-monitor shard");
    let weekly: Vec<Vec<f64>> = parts.collect();
    Result {
        pre,
        post,
        pre_monitor,
        weekly,
    }
}

/// Runs the experiment.
pub fn run(scenario: &Scenario, cfg: &Config) -> Result {
    let executed = run_units(&Parallelism::sequential(), units(scenario, cfg))
        .expect("campaign units do not panic");
    merge(executed.values)
}

impl Result {
    /// Paired t-test pre − post (the paper reports t = −10.76, P < .001).
    pub fn ttest(&self) -> PairedTTest {
        PairedTTest::run(&self.pre, &self.post)
    }

    /// Renders Figure 10a (the load timeline).
    pub fn render_timeline(&self) -> String {
        let mut out = String::from("Figure 10a — Snowflake relative user load by week\n");
        for p in user_timeline() {
            let bar = "#".repeat((p.load * 12.0) as usize);
            out.push_str(&format!("  week {:+3}  {:5.2}  {bar}\n", p.week, p.load));
        }
        out
    }

    /// Renders Figure 10b (pre vs post boxplots, log scale).
    pub fn render_pre_post(&self) -> String {
        let entries = vec![
            ("pre-Sept".to_string(), Summary::of(&self.pre)),
            ("post-Sept".to_string(), Summary::of(&self.post)),
        ];
        let mut out =
            String::from("Figure 10b — Snowflake access time pre/post September 2022 (s, log)\n");
        out.push_str(&ascii_boxplots(&entries, 100, true));
        let t = self.ttest();
        out.push_str(&format!(
            "paired t-test pre−post: t={:.2}, P{}, 95% CI [{:.2}, {:.2}], mean diff {:.2}\n",
            t.t,
            if t.p < 0.001 {
                "<.001".to_string()
            } else {
                format!("={:.3}", t.p)
            },
            t.ci_lower,
            t.ci_upper,
            t.mean_diff
        ));
        out
    }

    /// Renders Figure 12 (pre-surge box + weekly post boxes, log scale).
    pub fn render_weekly(&self) -> String {
        let mut entries = vec![("pre-surge".to_string(), Summary::of(&self.pre_monitor))];
        for (i, week) in self.weekly.iter().enumerate() {
            entries.push((format!("week {}", i + 1), Summary::of(week)));
        }
        let mut out =
            String::from("Figure 12 — Snowflake weekly monitoring after the surge (s, log)\n");
        out.push_str(&ascii_boxplots(&entries, 100, true));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Result {
        run(&Scenario::baseline(111), &Config::quick())
    }

    #[test]
    fn post_surge_is_slower() {
        let r = result();
        let pre = ptperf_stats::mean(&r.pre);
        let post = ptperf_stats::mean(&r.post);
        assert!(post > pre * 1.1, "pre {pre:.2} post {post:.2}");
        let t = r.ttest();
        assert!(t.mean_diff < 0.0, "pre − post should be negative");
        assert!(t.significant(), "p = {}", t.p);
    }

    #[test]
    fn every_monitoring_week_stays_elevated() {
        let r = result();
        let pre_med = ptperf_stats::median(&r.pre_monitor);
        for (i, week) in r.weekly.iter().enumerate() {
            let wm = ptperf_stats::median(week);
            assert!(wm > pre_med, "week {i}: median {wm:.2} vs pre {pre_med:.2}");
        }
    }

    #[test]
    fn timeline_has_surge_dip_recovery() {
        let tl = user_timeline();
        let at = |w: i32| tl.iter().find(|p| p.week == w).unwrap().load;
        assert!(at(1) > 2.5, "peak");
        assert!(at(2) < at(1) / 1.5, "October blocking dip");
        assert!(at(4) > at(3), "November recovery");
        assert!(at(7) > 1.8, "plateau stays elevated");
    }

    #[test]
    fn renders_are_complete() {
        let r = result();
        assert!(r.render_timeline().contains("week"));
        assert!(r.render_pre_post().contains("paired t-test"));
        assert!(r.render_weekly().contains("pre-surge"));
    }
}
