//! Empirical cumulative distribution functions, the paper's Figure 3b /
//! Figure 6 / Figure 8b plot type.

/// An ECDF over a sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF of a sample.
    ///
    /// # Panics
    /// Panics if the sample is empty or contains NaN.
    pub fn new(sample: &[f64]) -> Ecdf {
        assert!(!sample.is_empty(), "ECDF requires a non-empty sample");
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ECDF sample"));
        Ecdf { sorted }
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty: always false, since construction
    /// rejects empty samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)` — the fraction of samples ≤ `x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the count of samples <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The smallest sample value `v` with `F(v) ≥ q` (the q-quantile of
    /// the empirical distribution).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile requires q in [0,1]");
        if q <= 0.0 {
            return self.sorted[0];
        }
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[idx - 1]
    }

    /// The step points `(x, F(x))` for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }

    /// Minimum sample value.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample value.
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_steps() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn handles_duplicates() {
        let e = Ecdf::new(&[2.0, 2.0, 2.0, 5.0]);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(1.9), 0.0);
    }

    #[test]
    fn quantile_inverts_eval() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(e.quantile(0.2), 10.0);
        assert_eq!(e.quantile(0.5), 30.0);
        assert_eq!(e.quantile(1.0), 50.0);
        assert_eq!(e.quantile(0.0), 10.0);
    }

    #[test]
    fn points_are_monotone() {
        let e = Ecdf::new(&[3.0, 1.0, 2.0, 2.0]);
        let pts = e.points();
        assert_eq!(pts.len(), 4);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn min_max() {
        let e = Ecdf::new(&[5.0, -1.0, 3.0]);
        assert_eq!(e.min(), -1.0);
        assert_eq!(e.max(), 5.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty() {
        let _ = Ecdf::new(&[]);
    }
}
