//! Property tests for the statistics: order-statistic invariants, ECDF
//! laws, t-test symmetries, and special-function identities.

use std::sync::OnceLock;

use proptest::prelude::*;

use ptperf_stats::{
    inc_beta, mean, median, quantile, std_dev, student_t_cdf, student_t_quantile, Ecdf,
    PairedTTest, Summary, Welford,
};

fn finite_vec(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0e6f64..1.0e6, min_len..min_len + 60)
}

/// `prob ∈ {0.025, 0.05, 0.95, 0.975}` × `df ∈ {1, 9, 49, 999}`.
fn memo_keys() -> Vec<(f64, f64)> {
    let probs = [0.025, 0.05, 0.95, 0.975];
    let dfs = [1.0, 9.0, 49.0, 999.0];
    probs
        .iter()
        .flat_map(|&p| dfs.iter().map(move |&d| (p, d)))
        .collect()
}

/// The bits of `student_t_quantile(prob, df)` for a key of
/// [`memo_keys`], each computed once on its own freshly spawned thread.
fn fresh_thread_quantile_bits(prob: f64, df: f64) -> u64 {
    static EXPECTED: OnceLock<Vec<((f64, f64), u64)>> = OnceLock::new();
    let expected = EXPECTED.get_or_init(|| {
        memo_keys()
            .into_iter()
            .map(|(p, d)| {
                let bits = std::thread::spawn(move || student_t_quantile(p, d).to_bits())
                    .join()
                    .expect("quantile thread panicked");
                ((p, d), bits)
            })
            .collect()
    });
    expected
        .iter()
        .find(|&&(key, _)| key == (prob, df))
        .map(|&(_, bits)| bits)
        .expect("a key of memo_keys")
}

/// `(a, b, x)` for `I_x(a, b)`.
type BetaKey = (f64, f64, f64);

/// The t tables' `(df/2, 1/2)` at df 49 and 9 on both sides of the
/// continued fraction's switch, the mirrored `(1/2, df/2)`, and a pair
/// off the t family that shares its `a`.
fn beta_keys() -> Vec<BetaKey> {
    let pairs = [(24.5, 0.5), (4.5, 0.5), (0.5, 24.5), (24.5, 3.0)];
    let xs = [0.05, 0.5, 0.97];
    pairs
        .iter()
        .flat_map(|&(a, b)| xs.iter().map(move |&x| (a, b, x)))
        .collect()
}

/// The bits of `inc_beta(a, b, x)` for a key of [`beta_keys`], each
/// computed once on its own freshly spawned thread.
fn fresh_thread_inc_beta_bits(key: BetaKey) -> u64 {
    static EXPECTED: OnceLock<Vec<(BetaKey, u64)>> = OnceLock::new();
    let expected = EXPECTED.get_or_init(|| {
        beta_keys()
            .into_iter()
            .map(|(a, b, x)| {
                let bits = std::thread::spawn(move || inc_beta(a, b, x).to_bits())
                    .join()
                    .expect("inc_beta thread panicked");
                ((a, b, x), bits)
            })
            .collect()
    });
    expected
        .iter()
        .find(|&&(k, _)| k == key)
        .map(|&(_, bits)| bits)
        .expect("a key of beta_keys")
}

proptest! {
    /// Quantiles lie within [min, max] and are monotone in q.
    #[test]
    fn quantile_bounds_and_monotonicity(xs in finite_vec(1), q1 in 0.0f64..=1.0, q2 in 0.0f64..=1.0) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let (qa, qb) = (q1.min(q2), q1.max(q2));
        let va = quantile(&xs, qa);
        let vb = quantile(&xs, qb);
        prop_assert!(va >= lo - 1e-9 && va <= hi + 1e-9);
        prop_assert!(va <= vb + 1e-9);
    }

    /// Five-number summaries are ordered.
    #[test]
    fn summary_is_ordered(xs in finite_vec(1)) {
        let s = Summary::of(&xs);
        prop_assert!(s.min <= s.q1 + 1e-9);
        prop_assert!(s.q1 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q3 + 1e-9);
        prop_assert!(s.q3 <= s.max + 1e-9);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert_eq!(s.n, xs.len());
    }

    /// Shifting a sample shifts mean/median and leaves the SD unchanged.
    #[test]
    fn shift_equivariance(xs in finite_vec(2), shift in -1000.0f64..1000.0) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((mean(&shifted) - mean(&xs) - shift).abs() < 1e-6);
        prop_assert!((median(&shifted) - median(&xs) - shift).abs() < 1e-6);
        prop_assert!((std_dev(&shifted) - std_dev(&xs)).abs() < 1e-6);
    }

    /// Welford matches the batch formulas on arbitrary samples.
    #[test]
    fn welford_matches_batch(xs in finite_vec(2)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        prop_assert!((w.mean() - mean(&xs)).abs() < 1e-6 * (1.0 + mean(&xs).abs()));
        prop_assert!((w.std_dev() - std_dev(&xs)).abs() < 1e-6 * (1.0 + std_dev(&xs)));
    }

    /// The ECDF is a proper CDF: monotone, 0 below min, 1 at max, and
    /// quantile∘eval identities hold.
    #[test]
    fn ecdf_laws(xs in finite_vec(1), probe in -1.0e6f64..1.0e6) {
        let e = Ecdf::new(&xs);
        prop_assert_eq!(e.eval(e.min() - 1.0), 0.0);
        prop_assert_eq!(e.eval(e.max()), 1.0);
        let at = e.eval(probe);
        prop_assert!((0.0..=1.0).contains(&at));
        // eval is monotone.
        prop_assert!(e.eval(probe) <= e.eval(probe + 1.0) + 1e-12);
        // The q-quantile's CDF value is at least q.
        for q in [0.1, 0.5, 0.9] {
            prop_assert!(e.eval(e.quantile(q)) >= q - 1e-12);
        }
    }

    /// The paired t-test is antisymmetric and shift-covariant.
    #[test]
    fn ttest_antisymmetry(
        a in finite_vec(3),
        noise in proptest::collection::vec(-10.0f64..10.0, 3..63),
    ) {
        let n = a.len().min(noise.len());
        prop_assume!(n >= 3);
        let a = &a[..n];
        let b: Vec<f64> = a.iter().zip(&noise).map(|(x, e)| x + e).collect();
        let ab = PairedTTest::run(a, &b);
        let ba = PairedTTest::run(&b, a);
        prop_assert!((ab.mean_diff + ba.mean_diff).abs() < 1e-9);
        if ab.t.is_finite() {
            prop_assert!((ab.t + ba.t).abs() < 1e-6);
            prop_assert!((ab.p - ba.p).abs() < 1e-9);
        }
        // CI mirrors.
        prop_assert!((ab.ci_lower + ba.ci_upper).abs() < 1e-6);
    }

    /// Adding a constant to both paired samples changes nothing.
    #[test]
    fn ttest_shift_invariance(
        a in finite_vec(3),
        shift in -1000.0f64..1000.0,
    ) {
        let b: Vec<f64> = a.iter().map(|x| x * 1.01 + 3.0).collect();
        let t1 = PairedTTest::run(&a, &b);
        let a2: Vec<f64> = a.iter().map(|x| x + shift).collect();
        let b2: Vec<f64> = b.iter().map(|x| x + shift).collect();
        let t2 = PairedTTest::run(&a2, &b2);
        prop_assert!((t1.mean_diff - t2.mean_diff).abs() < 1e-6);
        if t1.t.is_finite() && t2.t.is_finite() {
            prop_assert!((t1.t - t2.t).abs() < 1e-4);
        }
    }

    /// The t CDF is a proper CDF: monotone, symmetric about zero.
    #[test]
    fn t_cdf_laws(t in -50.0f64..50.0, df in 1.0f64..200.0) {
        let c = student_t_cdf(t, df);
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!(student_t_cdf(t + 0.5, df) >= c - 1e-12);
        prop_assert!((student_t_cdf(-t, df) - (1.0 - c)).abs() < 1e-9);
    }

    /// Quantile inverts the CDF across df.
    #[test]
    fn t_quantile_inverts(p in 0.01f64..0.99, df in 1.0f64..300.0) {
        let q = student_t_quantile(p, df);
        prop_assert!((student_t_cdf(q, df) - p).abs() < 1e-6);
    }

    /// The per-thread quantile memo is exact: whatever key came before,
    /// each call returns the bits a fresh thread, whose memo starts
    /// empty, computes for that key. Sequences over the 16 keys repeat
    /// a key, switch `prob` at one `df`, switch `df` at one `prob`, and
    /// mirror 0.025/0.975.
    #[test]
    fn t_quantile_memo_matches_a_fresh_thread(
        keys in prop::collection::vec(prop::sample::select(memo_keys()), 1..=40),
    ) {
        for (prob, df) in keys {
            let bits = student_t_quantile(prob, df).to_bits();
            prop_assert_eq!(bits, fresh_thread_quantile_bits(prob, df), "t*({}, {})", prob, df);
        }
    }

    /// The per-thread ln Γ memo behind `inc_beta` is exact: whatever
    /// `(a, b)` came before, each call returns the bits a fresh thread,
    /// whose memo starts empty, computes. Sequences over the 12 keys
    /// repeat a pair, switch `x` at one pair, and switch pairs, also to
    /// one with the same `a`.
    #[test]
    fn inc_beta_memo_matches_a_fresh_thread(
        keys in prop::collection::vec(prop::sample::select(beta_keys()), 1..=40),
    ) {
        for (a, b, x) in keys {
            let bits = inc_beta(a, b, x).to_bits();
            prop_assert_eq!(bits, fresh_thread_inc_beta_bits((a, b, x)), "I_{}({}, {})", x, a, b);
        }
    }

    /// `run(a, b)` is `from_differences(a − b)` to the bit, in every field.
    #[test]
    fn ttest_run_equals_from_differences(
        pairs in proptest::collection::vec((-1.0e6f64..1.0e6, -1.0e6f64..1.0e6), 2..80),
        tied in 0usize..4,
    ) {
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        // Some cases pair a sample with itself, or with itself plus a
        // constant, the degenerate zero-SE branches.
        let b: Vec<f64> = match tied {
            0 => a.clone(),
            1 => a.iter().map(|x| x + 0.5).collect(),
            _ => pairs.iter().map(|p| p.1).collect(),
        };
        let diffs: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
        let run = PairedTTest::run(&a, &b);
        let reference = PairedTTest::from_differences(&diffs);
        prop_assert_eq!(run.n, reference.n);
        for (got, want) in [
            (run.mean_diff, reference.mean_diff),
            (run.t, reference.t),
            (run.df, reference.df),
            (run.p, reference.p),
            (run.ci_lower, reference.ci_lower),
            (run.ci_upper, reference.ci_upper),
        ] {
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} vs {:?}", run, reference);
        }
    }

    /// The regularized incomplete beta respects its reflection identity.
    #[test]
    fn inc_beta_reflection(a in 0.1f64..20.0, b in 0.1f64..20.0, x in 0.0f64..=1.0) {
        let lhs = inc_beta(a, b, x);
        let rhs = 1.0 - inc_beta(b, a, 1.0 - x);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&lhs));
        prop_assert!((lhs - rhs).abs() < 1e-8, "I_x(a,b) reflection failed: {lhs} vs {rhs}");
    }
}
