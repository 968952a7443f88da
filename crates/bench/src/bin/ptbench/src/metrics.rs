//! Metric lists, their JSON line, medians, the artifact digest and peak
//! RSS — the reporting plumbing shared by every workload.

use ptperf::obs::json;

/// An ordered list of `(name, value, unit)` metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.0.push((name.into(), value, unit.into()));
    }

    /// The value of metric `name`, if present.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The per-name median across `runs`, which must all list the same
    /// names in the same order (they come from the same code path).
    pub fn median_of(runs: &[Metrics]) -> Metrics {
        let first = runs.first().expect("at least one run");
        let mut out = Metrics::default();
        for (i, (name, _, unit)) in first.0.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|m| m.0[i].1).collect();
            out.push(name.clone(), median(&values), unit.clone());
        }
        out
    }

    /// The `"metrics"` JSON object: `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(name),
                    json::number(*value),
                    json::string(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The benchmark's result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Median of `values` (mean of the middle pair for an even count); NaN
/// when empty, which the finiteness gate then rejects.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// FNV-1a-64 over every rendered artifact of a workload, in render
/// order. Each artifact is followed by a NUL byte so that moving text
/// across an artifact boundary changes the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one artifact into the digest.
    pub fn artifact(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(&[0u8]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB; NaN when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_is_fnv1a_and_separates_artifacts() {
        // FNV-1a-64 of the single byte 0x00.
        let mut d = Digest::default();
        d.artifact("");
        assert_eq!(d.value(), 0xaf63_bd4c_8601_b7df);
        let (mut ab, mut a_b) = (Digest::default(), Digest::default());
        ab.artifact("ab");
        a_b.artifact("a");
        a_b.artifact("b");
        assert_ne!(ab, a_b);
    }

    #[test]
    fn result_line_parses_with_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.push("meas_per_s", 12.5, "1/s");
        let line = result_line(true, 7, 0, &m);
        let v = json::parse(&line).expect("valid JSON");
        let json::Value::Obj(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = v.get("metrics").and_then(|m| m.get("meas_per_s")).unwrap();
        assert_eq!(
            metric.get("value").and_then(json::Value::as_f64),
            Some(12.5)
        );
        assert_eq!(
            metric.get("unit").and_then(json::Value::as_str),
            Some("1/s")
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_mb();
        assert!(rss.is_nan() || rss > 0.0);
    }
}
