//! Wall-clock metrics registry.
//!
//! Everything in this module is *real* elapsed time — the one kind of
//! data that is inherently nondeterministic. It is therefore kept
//! strictly apart from the sim-time trace: the registry has its own
//! export format (`--metrics out.json`) and nothing here is ever
//! written into a trace stream.

use std::time::Duration;

use crate::json;

/// Wall-clock aggregate for one experiment family (shards grouped by
/// the label prefix before the first `/`).
#[derive(Debug, Clone, Default)]
pub struct FamilyMetrics {
    /// Family name (shard-label prefix).
    pub family: String,
    /// Per-shard wall times in seconds, in observation order.
    pub shard_secs: Vec<f64>,
    /// Total raw measurements across the family's shards.
    pub samples: usize,
}

/// Nearest-rank quantile of an unsorted sample set (q in [0, 1]).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl FamilyMetrics {
    /// Number of shards observed.
    pub fn shards(&self) -> usize {
        self.shard_secs.len()
    }

    /// Total wall-clock seconds across shards (CPU-busy, not elapsed:
    /// parallel shards overlap).
    pub fn total_secs(&self) -> f64 {
        self.shard_secs.iter().sum()
    }

    /// Median per-shard wall time in seconds (nearest rank).
    pub fn p50_secs(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 95th-percentile per-shard wall time in seconds (nearest rank).
    pub fn p95_secs(&self) -> f64 {
        self.percentile(0.95)
    }

    fn percentile(&self, q: f64) -> f64 {
        let mut sorted = self.shard_secs.clone();
        sorted.sort_by(f64::total_cmp);
        quantile(&sorted, q)
    }
}

/// Registry of wall-clock observations for one run: per-family shard
/// timing plus pool-level elapsed time and worker count.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: Vec<FamilyMetrics>,
    /// Worker threads the executor pool used.
    pub workers: usize,
    /// Elapsed wall-clock seconds for the whole pool.
    pub elapsed_secs: f64,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Record one shard observation under `family`.
    pub fn observe(&mut self, family: &str, wall: Duration, samples: usize) {
        let slot = match self.families.iter_mut().find(|f| f.family == family) {
            Some(slot) => slot,
            None => {
                self.families.push(FamilyMetrics {
                    family: family.to_string(),
                    ..FamilyMetrics::default()
                });
                self.families.last_mut().expect("just pushed")
            }
        };
        slot.shard_secs.push(wall.as_secs_f64());
        slot.samples += samples;
    }

    /// Record the pool-level worker count and elapsed wall time.
    pub fn set_run(&mut self, workers: usize, elapsed: Duration) {
        self.workers = workers;
        self.elapsed_secs = elapsed.as_secs_f64();
    }

    /// Families in first-observed order.
    pub fn families(&self) -> &[FamilyMetrics] {
        &self.families
    }

    /// Fraction of `workers × elapsed` the shards kept busy, in
    /// [0, 1]-ish (can exceed 1 slightly from timer granularity).
    pub fn utilization(&self) -> f64 {
        let capacity = self.workers as f64 * self.elapsed_secs;
        if capacity <= 0.0 {
            return 0.0;
        }
        self.families
            .iter()
            .map(FamilyMetrics::total_secs)
            .sum::<f64>()
            / capacity
    }

    /// Serialize the registry as a JSON object. Field order is fixed,
    /// but the *values* are wall-clock measurements and will differ
    /// between runs — by design, this is the nondeterministic half of
    /// the observability split.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"workers\":{},", self.workers));
        out.push_str(&format!(
            "\"elapsed_secs\":{},",
            json::number(self.elapsed_secs)
        ));
        out.push_str(&format!(
            "\"utilization\":{},",
            json::number(self.utilization())
        ));
        out.push_str("\"families\":[");
        for (i, fam) in self.families.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"family\":{},\"shards\":{},\"samples\":{},\"wall_total_secs\":{},\"wall_p50_secs\":{},\"wall_p95_secs\":{}}}",
                json::string(&fam.family),
                fam.shards(),
                fam.samples,
                json::number(fam.total_secs()),
                json::number(fam.p50_secs()),
                json::number(fam.p95_secs()),
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_groups_by_family_and_sums_samples() {
        let mut reg = MetricsRegistry::new();
        reg.observe("fig2a", Duration::from_millis(100), 10);
        reg.observe("fig2a", Duration::from_millis(300), 20);
        reg.observe("fig6", Duration::from_millis(50), 5);
        assert_eq!(reg.families().len(), 2);
        let fam = &reg.families()[0];
        assert_eq!(fam.family, "fig2a");
        assert_eq!(fam.shards(), 2);
        assert_eq!(fam.samples, 30);
        assert!((fam.total_secs() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let fam = FamilyMetrics {
            family: "f".into(),
            shard_secs: vec![4.0, 1.0, 3.0, 2.0],
            samples: 0,
        };
        assert_eq!(fam.p50_secs(), 2.0);
        assert_eq!(fam.p95_secs(), 4.0);
        let empty = FamilyMetrics::default();
        assert_eq!(empty.p50_secs(), 0.0);
    }

    #[test]
    fn utilization_is_busy_over_capacity() {
        let mut reg = MetricsRegistry::new();
        reg.observe("a", Duration::from_secs(2), 1);
        reg.observe("b", Duration::from_secs(2), 1);
        reg.set_run(2, Duration::from_secs(4));
        assert!((reg.utilization() - 0.5).abs() < 1e-9);
        assert_eq!(MetricsRegistry::new().utilization(), 0.0);
    }

    #[test]
    fn json_snapshot_has_fixed_shape() {
        let mut reg = MetricsRegistry::new();
        reg.observe("fig6", Duration::from_secs(1), 7);
        reg.set_run(1, Duration::from_secs(1));
        let js = reg.to_json();
        assert!(js.starts_with("{\"workers\":1,"));
        assert!(js.contains("\"family\":\"fig6\""));
        assert!(js.contains("\"samples\":7"));
        assert!(js.ends_with("]}"));
    }
}
