//! **Table 1** — the measurement-campaign plan, and the scheduled
//! snowflake monitoring campaign over the §5.3 timeline.

use ptperf_stats::Table;

use crate::executor::{self, ExecError, Parallelism, ShardReport, Unit};
use crate::scenario::Scenario;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct MeasurementType {
    /// Measurement family.
    pub name: &'static str,
    /// Approximate measurement count in the original campaign.
    pub count: &'static str,
    /// Target set.
    pub target: &'static str,
}

/// The paper's Table 1 plan.
pub fn plan() -> Vec<MeasurementType> {
    vec![
        MeasurementType { name: "Website Download (curl)", count: "149.5 k", target: "Tranco top-1k & CBL-1k" },
        MeasurementType { name: "Website Download (selenium)", count: "174 k", target: "Tranco top-1k & CBL-1k" },
        MeasurementType { name: "File Downloads (curl)", count: "2.7 k", target: "5, 10, 20, 50, 100 MB" },
        MeasurementType { name: "File Downloads (selenium)", count: "2.7 k", target: "5, 10, 20, 50, 100 MB" },
        MeasurementType { name: "Medium Change (wired/wireless)", count: "60 k", target: "Tranco top-500 & CBL-500" },
        MeasurementType { name: "Speed Index", count: "60 k", target: "Tranco top-1k" },
        MeasurementType { name: "Pluggable Transport Overhead", count: "40 k", target: "Tranco top-1k" },
        MeasurementType { name: "Location Variation", count: "686 k", target: "Tranco top-1k & CBL-1k" },
    ]
}

/// Renders Table 1.
pub fn render_plan() -> String {
    let mut table = Table::new(["Measurement Type", "Number of Measurements", "Target"]);
    for m in plan() {
        table.row([m.name, m.count, m.target]);
    }
    format!("Table 1 — Overview of measurement types\n{}", table.render())
}

/// A timestamped measurement from a scheduled campaign run.
#[derive(Debug, Clone, Copy)]
pub struct TimedMeasurement {
    /// When the measurement fired on the campaign clock.
    pub at: ptperf_sim::SimTime,
    /// The load multiplier in effect at that instant.
    pub load: f64,
    /// Measured website access time (seconds).
    pub seconds: f64,
}

/// Runs a *scheduled* snowflake monitoring campaign across the §5.3
/// timeline: measurement slots are laid out by the ethical planner
/// ([`crate::schedule`]) over simulated weeks, each slot measures under
/// the load in effect at its timestamp (the Figure 10a step curve), and
/// the slots automatically thin out once the surge-caution limits kick
/// in — reproducing how the paper's own campaign stretched "into
/// months". Slots run in 250-slot shards at `par`; the series is
/// identical at any worker count.
pub fn run_scheduled_snowflake(
    scenario: &Scenario,
    measurements: u32,
    par: &Parallelism,
) -> std::result::Result<(Vec<TimedMeasurement>, Vec<ShardReport>), ExecError> {
    use crate::experiments::snowflake_load::user_timeline;
    use crate::schedule::{plan, RateLimits};
    use ptperf_sim::{SimDuration, SimTime};
    use ptperf_transports::{transport_for, PtId};
    use ptperf_web::curl;

    /// Slots per shard: small enough to balance across workers, large
    /// enough that shard setup (deployment, site list) stays amortized.
    const SLOTS_PER_SHARD: usize = 250;

    // Surge-cautious limits throughout (the paper adopted them once the
    // surge hit; planning conservatively from the start only stretches
    // the pre-surge phase a little).
    let slots = plan(
        measurements,
        SimTime::ZERO,
        &RateLimits::for_transport(PtId::Snowflake, true),
        SimDuration::from_secs(300),
    );

    let units: Vec<Unit<Vec<TimedMeasurement>>> = slots
        .chunks(SLOTS_PER_SHARD)
        .enumerate()
        .map(|(shard_idx, chunk)| {
            let chunk = chunk.to_vec();
            let scenario = scenario.clone();
            Unit::pooled(format!("scheduled-snowflake/{shard_idx}"), move |rec, scratch| {
                const WEEK: SimDuration = SimDuration::from_secs(7 * 24 * 3600);
                let timeline = user_timeline();
                let first_week = timeline.first().expect("timeline non-empty").week;
                let load_at = |t: SimTime| -> f64 {
                    let week = first_week + (t.as_nanos() / WEEK.as_nanos()) as i32;
                    timeline
                        .iter()
                        .rev()
                        .find(|p| p.week <= week)
                        .map(|p| p.load)
                        .unwrap_or(1.0)
                };
                let dep = scenario.deployment();
                let transport = transport_for(PtId::Snowflake);
                let sites = scenario.target_sites(20);
                let mut rng = scenario.rng(&format!("scheduled-snowflake/{shard_idx}"));
                let mut phases = ptperf_obs::PhaseAccum::new();
                let mut out: Vec<TimedMeasurement> = Vec::with_capacity(chunk.len());
                for slot in &chunk {
                    let load = load_at(slot.at);
                    let mut opts = scenario.access_options();
                    opts.load_mult = load;
                    let site = &sites[slot.index as usize % sites.len()];
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
                    out.push(TimedMeasurement {
                        at: slot.at,
                        load,
                        seconds: fetch.total.as_secs_f64(),
                    });
                }
                phases.emit(rec);
                let n = out.len();
                (out, n)
            })
        })
        .collect();

    let executed = executor::run_units(par, units)?;
    Ok((
        executed.values.into_iter().flatten().collect(),
        executed.reports,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_matches_table_1() {
        let p = plan();
        assert_eq!(p.len(), 8);
        assert!(render_plan().contains("686 k"));
    }

    #[test]
    fn scheduled_campaign_tracks_the_timeline() {
        let scenario = Scenario::baseline(314);
        let (series, _) = run_scheduled_snowflake(&scenario, 6_500, &Parallelism::sequential())
            .expect("campaign units do not panic");
        assert_eq!(series.len(), 6_500);
        // Slots are time-ordered and the campaign spans multiple weeks
        // under the surge-cautious limits.
        assert!(series.windows(2).all(|w| w[0].at <= w[1].at));
        let span = series.last().unwrap().at.duration_since(series[0].at);
        assert!(span.as_secs_f64() > 30.0 * 24.0 * 3600.0, "span {span}");
        // Measurements under surge load are slower on average than the
        // pre-surge ones.
        let calm: Vec<f64> = series.iter().filter(|m| m.load <= 1.1).map(|m| m.seconds).collect();
        let surge: Vec<f64> = series.iter().filter(|m| m.load >= 2.5).map(|m| m.seconds).collect();
        assert!(calm.len() > 50, "calm n={}", calm.len());
        assert!(surge.len() > 50, "surge n={}", surge.len());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&surge) > mean(&calm),
            "surge {:.2} vs calm {:.2}",
            mean(&surge),
            mean(&calm)
        );
    }
}
