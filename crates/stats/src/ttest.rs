//! Paired Student's t-test, the statistical workhorse of the paper
//! (Appendix Tables 3–10): for every PT pair the authors report the
//! t-value, two-sided P-value, 95% confidence interval of the mean
//! difference, and the mean difference itself.

use crate::desc::{mean, std_dev};
use crate::fixed::Fixed;
use crate::special::{student_t_quantile, t_two_sided_p};

/// Result of a paired t-test between two matched samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedTTest {
    /// Number of pairs.
    pub n: usize,
    /// Mean of the differences (first − second).
    pub mean_diff: f64,
    /// The t statistic.
    pub t: f64,
    /// Degrees of freedom (n − 1).
    pub df: f64,
    /// Two-sided p-value.
    pub p: f64,
    /// Lower bound of the 95% confidence interval of the mean difference.
    pub ci_lower: f64,
    /// Upper bound of the 95% confidence interval.
    pub ci_upper: f64,
}

impl PairedTTest {
    /// Runs the test on matched samples `a` and `b` (differences `a − b`).
    ///
    /// # Panics
    /// Panics if the samples have different lengths or fewer than two
    /// pairs.
    pub fn run(a: &[f64], b: &[f64]) -> PairedTTest {
        assert_eq!(a.len(), b.len(), "paired t-test requires matched samples");
        assert!(a.len() >= 2, "paired t-test requires at least 2 pairs");
        // `mean` and `std_dev` over the differences, in their operations
        // and order, without collecting the differences.
        let diffs = || a.iter().zip(b).map(|(x, y)| x - y);
        let n = a.len();
        let md = diffs().sum::<f64>() / n as f64;
        let ss: f64 = diffs().map(|d| (d - md) * (d - md)).sum();
        Self::from_moments(n, md, (ss / (n - 1) as f64).sqrt())
    }

    /// Runs the test given the per-pair differences directly.
    pub fn from_differences(diffs: &[f64]) -> PairedTTest {
        assert!(diffs.len() >= 2, "paired t-test requires at least 2 pairs");
        Self::from_moments(diffs.len(), mean(diffs), std_dev(diffs))
    }

    /// The test from `n` differences' mean `md` and sample SD `sd`.
    fn from_moments(n: usize, md: f64, sd: f64) -> PairedTTest {
        let se = sd / (n as f64).sqrt();
        let df = (n - 1) as f64;
        // A zero standard error (identical differences) makes t undefined;
        // report t = 0 and p = 1 when the mean difference is also zero,
        // and an effectively infinite t otherwise.
        let (t, p) = if se == 0.0 {
            if md == 0.0 {
                (0.0, 1.0)
            } else {
                (f64::INFINITY * md.signum(), 0.0)
            }
        } else {
            let t = md / se;
            (t, t_two_sided_p(t, df))
        };
        let t_crit = student_t_quantile(0.975, df);
        let half = if se == 0.0 { 0.0 } else { t_crit * se };
        PairedTTest {
            n,
            mean_diff: md,
            t,
            df,
            p,
            ci_lower: md - half,
            ci_upper: md + half,
        }
    }

    /// Whether the difference is significant at the 5% level.
    pub fn significant(&self) -> bool {
        self.p < 0.05
    }

    /// The paper prints "<.001" for tiny p-values; mirror that.
    pub fn p_display(&self) -> String {
        if self.p < 0.001 {
            "<.001".to_string()
        } else {
            Fixed(self.p, 3).to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_example() {
        // Before/after pairs; classic paired-t example.
        let before = [200.0, 210.0, 190.0, 220.0, 205.0];
        let after = [195.0, 200.0, 185.0, 210.0, 199.0];
        let r = PairedTTest::run(&before, &after);
        assert_eq!(r.n, 5);
        assert!((r.mean_diff - 7.2).abs() < 1e-12);
        // diffs = [5,10,5,10,6], sd = 2.588436..., se = 1.157584,
        // t = 6.2197...
        assert!((r.t - 6.2198).abs() < 1e-3, "t = {}", r.t);
        assert!(r.p < 0.01, "p = {}", r.p);
        assert!(r.significant());
        // CI must straddle the mean difference symmetrically.
        assert!((r.ci_lower + r.ci_upper - 2.0 * r.mean_diff).abs() < 1e-9);
        assert!(r.ci_lower > 0.0, "CI excludes zero for a clear effect");
    }

    #[test]
    fn no_difference_is_insignificant() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = a
            .iter()
            .map(|x| x + if (*x as i64) % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let r = PairedTTest::run(&a, &b);
        assert!(!r.significant(), "p = {}", r.p);
        assert!(r.ci_lower < 0.0 && r.ci_upper > 0.0);
    }

    #[test]
    fn antisymmetric_in_argument_order() {
        let a = [3.0, 5.0, 9.0, 4.0, 8.0, 7.0];
        let b = [1.0, 6.0, 4.0, 2.0, 9.0, 3.0];
        let ab = PairedTTest::run(&a, &b);
        let ba = PairedTTest::run(&b, &a);
        assert!((ab.t + ba.t).abs() < 1e-12);
        assert!((ab.mean_diff + ba.mean_diff).abs() < 1e-12);
        assert!((ab.p - ba.p).abs() < 1e-12);
        assert!((ab.ci_lower + ba.ci_upper).abs() < 1e-9);
    }

    #[test]
    fn identical_samples_degenerate_case() {
        let a = [1.0, 2.0, 3.0];
        let r = PairedTTest::run(&a, &a);
        assert_eq!(r.t, 0.0);
        assert_eq!(r.p, 1.0);
        assert!(!r.significant());
    }

    #[test]
    fn constant_nonzero_difference() {
        let a = [2.0, 3.0, 4.0];
        let b = [1.0, 2.0, 3.0];
        let r = PairedTTest::run(&a, &b);
        assert!(r.t.is_infinite() && r.t > 0.0);
        assert_eq!(r.p, 0.0);
        assert_eq!(r.mean_diff, 1.0);
    }

    #[test]
    fn p_display_formats_like_the_paper() {
        let mut r = PairedTTest::from_differences(&[1.0, 2.0, 3.0]);
        r.p = 0.0004;
        assert_eq!(r.p_display(), "<.001");
        r.p = 0.0423;
        assert_eq!(r.p_display(), "0.042");
    }

    #[test]
    #[should_panic(expected = "matched samples")]
    fn rejects_length_mismatch() {
        let _ = PairedTTest::run(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_single_pair() {
        let _ = PairedTTest::run(&[1.0], &[2.0]);
    }
}
