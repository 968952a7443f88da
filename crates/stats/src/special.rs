//! Special functions needed for the Student's t distribution: log-gamma
//! (Lanczos approximation) and the regularized incomplete beta function
//! (continued-fraction evaluation, Numerical Recipes style).

use std::cell::Cell;

/// Natural log of the gamma function, Lanczos approximation (g = 7,
/// n = 9 coefficients). Accurate to ~15 significant digits for x > 0.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

thread_local! {
    /// The last `(a, b)` [`inc_beta`] saw on this thread, as bit
    /// patterns, and its `ln Γ(a+b) − ln Γ(a) − ln Γ(b)`.
    static LAST_LN_BETA: Cell<Option<(u64, u64, f64)>> = const { Cell::new(None) };
}

/// `ln Γ(a+b) − ln Γ(a) − ln Γ(b)`, summed left to right.
///
/// Each thread remembers its last `(a, b)` and answer, because every
/// t-test of a table evaluates `I_x(df/2, 1/2)` at one `df`, through
/// both its p-value and the critical value's bisection. The three
/// `ln_gamma` calls are a pure function of the two bit patterns the memo
/// is keyed on, so a hit returns exactly what they would.
fn ln_beta_front(a: f64, b: f64) -> f64 {
    let key = (a.to_bits(), b.to_bits());
    if let Some((ma, mb, v)) = LAST_LN_BETA.get() {
        if (ma, mb) == key {
            return v;
        }
    }
    let v = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b);
    LAST_LN_BETA.set(Some((key.0, key.1, v)));
    v
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Continued-fraction evaluation with the symmetry transformation for
/// numerical stability. Inputs: `a, b > 0`, `x ∈ [0, 1]`.
pub fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "inc_beta requires a,b > 0");
    assert!(
        (0.0..=1.0).contains(&x),
        "inc_beta requires x in [0,1], got {x}"
    );
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_beta_front(a, b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

/// Lentz's continued fraction for the incomplete beta.
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-15;
    const FPMIN: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// CDF of Student's t distribution with `df` degrees of freedom.
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    if t.is_nan() {
        return f64::NAN;
    }
    if t == 0.0 {
        return 0.5;
    }
    let x = df / (df + t * t);
    let p = 0.5 * inc_beta(df / 2.0, 0.5, x);
    if t > 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Two-sided p-value for a t statistic with `df` degrees of freedom.
pub fn t_two_sided_p(t: f64, df: f64) -> f64 {
    inc_beta(df / 2.0, 0.5, df / (df + t * t)).clamp(0.0, 1.0)
}

thread_local! {
    /// The last `(prob, df)` this thread solved, as bit patterns, and
    /// its answer.
    static LAST_QUANTILE: Cell<Option<(u64, u64, f64)>> = const { Cell::new(None) };
}

/// The critical value `t*` with `P(T ≤ t*) = prob` for Student's t with
/// `df` degrees of freedom, found by bisection (prob in (0, 1)).
///
/// Each thread remembers its last `(prob, df)` and answer, because the
/// rows of a t-test table share `df` (every row compares `n` pairs at
/// 95%): a table then runs one bisection instead of one per row. The
/// bisection is a pure function of the two bit patterns the memo is
/// keyed on, so a hit returns exactly what a fresh bisection would.
///
/// # Panics
/// Panics if `prob` is outside (0, 1), or if `df` is not positive or is
/// NaN, which the first CDF evaluation raises (a `prob` within 1e-15 of
/// 0.5 returns 0 without evaluating the CDF).
pub fn student_t_quantile(prob: f64, df: f64) -> f64 {
    assert!((0.0..1.0).contains(&prob) && prob > 0.0, "prob in (0,1)");
    let (p, d) = (prob.to_bits(), df.to_bits());
    if let Some((mp, md, q)) = LAST_QUANTILE.get() {
        if (mp, md) == (p, d) {
            return q;
        }
    }
    let q = bisect_t_quantile(prob, df);
    LAST_QUANTILE.set(Some((p, d, q)));
    q
}

/// The bisection behind [`student_t_quantile`], without the memo.
fn bisect_t_quantile(prob: f64, df: f64) -> f64 {
    if (prob - 0.5).abs() < 1e-15 {
        return 0.0;
    }
    // Symmetric: solve for the upper tail and mirror.
    let upper = prob > 0.5;
    let target = if upper { prob } else { 1.0 - prob };
    let (mut lo, mut hi) = (0.0f64, 1e6f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if student_t_cdf(mid, df) < target {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * hi.max(1.0) {
            break;
        }
    }
    let q = 0.5 * (lo + hi);
    if upper {
        q
    } else {
        -q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn ln_gamma_known_values() {
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(5.0), (24.0f64).ln(), 1e-10); // Γ(5) = 4! = 24
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-10);
    }

    #[test]
    fn inc_beta_boundaries() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn inc_beta_symmetry() {
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        for &(a, b, x) in &[(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (10.0, 1.0, 0.9)] {
            close(inc_beta(a, b, x), 1.0 - inc_beta(b, a, 1.0 - x), 1e-12);
        }
    }

    #[test]
    fn inc_beta_uniform_case() {
        // I_x(1,1) = x.
        for &x in &[0.1, 0.5, 0.77] {
            close(inc_beta(1.0, 1.0, x), x, 1e-12);
        }
    }

    #[test]
    fn t_cdf_known_values() {
        // df=1 (Cauchy): CDF(1) = 3/4.
        close(student_t_cdf(1.0, 1.0), 0.75, 1e-10);
        // df=∞-ish: approaches the normal; CDF(1.96, 1e6) ≈ 0.975.
        close(student_t_cdf(1.96, 1e6), 0.975, 1e-3);
        // Symmetry.
        close(
            student_t_cdf(-2.3, 7.0),
            1.0 - student_t_cdf(2.3, 7.0),
            1e-12,
        );
    }

    #[test]
    fn two_sided_p_values() {
        // Classic: t = 2.262, df = 9 → p = 0.05.
        close(t_two_sided_p(2.262, 9.0), 0.05, 1e-3);
        // Huge t → p ~ 0.
        assert!(t_two_sided_p(35.0, 1000.0) < 1e-10);
        // t = 0 → p = 1.
        close(t_two_sided_p(0.0, 10.0), 1.0, 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &df in &[1.0, 5.0, 30.0, 500.0] {
            for &p in &[0.025, 0.25, 0.5, 0.9, 0.975] {
                let q = student_t_quantile(p, df);
                close(student_t_cdf(q, df), p, 1e-8);
            }
        }
    }

    #[test]
    fn quantile_known_critical_values() {
        // t*(0.975, 9) = 2.262; t*(0.975, 999) ≈ 1.962.
        close(student_t_quantile(0.975, 9.0), 2.262, 2e-3);
        close(student_t_quantile(0.975, 999.0), 1.962, 2e-3);
        close(student_t_quantile(0.025, 9.0), -2.262, 2e-3);
        // t*(0.975, n − 1) to the bit for every pair count the quick and
        // paper t-test tables use, so a change to the bisection that
        // moves a CI bound in its last bits fails here, not only in the
        // artifact digests.
        for (df, bits) in [
            (29.0, 0x4000_5ca1_5bce_2ed9_u64),
            (39.0, 0x4000_2e78_93bb_c7db),
            (49.0, 0x4000_139c_2e92_8d1f),
            (59.0, 0x4000_0209_dd62_b1a5),
            (119.0, 0x3fff_ae7d_3543_2a3c),
            (199.0, 0x3fff_8d22_4e2b_2afe),
            (999.0, 0x3fff_65c0_28f2_7c4e),
            (1999.0, 0x3fff_60e0_4fc2_30b8),
            (2499.0, 0x3fff_5fe7_11e9_9b2e),
        ] {
            let q = student_t_quantile(0.975, df);
            assert_eq!(q.to_bits(), bits, "t*(0.975, {df}) = {q}");
        }
    }

    /// `inc_beta` as it reads without the memo.
    fn inc_beta_unmemoized(a: f64, b: f64, x: f64) -> f64 {
        if x == 0.0 || x == 1.0 {
            return x;
        }
        let ln_front =
            ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
        let front = ln_front.exp();
        if x < (a + 1.0) / (a + b + 2.0) {
            front * betacf(a, b, x) / a
        } else {
            1.0 - front * betacf(b, a, 1.0 - x) / b
        }
    }

    #[test]
    fn ln_beta_memo_matches_a_fresh_thread_call_by_call() {
        // Runs of one (a, b), as a t-test table makes, broken by other
        // keys, one of them sharing `a`, and tiny and huge arguments.
        let mut calls = Vec::new();
        for (a, b) in [
            (24.5, 0.5),
            (14.5, 0.5),
            (24.5, 0.5),
            (0.5, 24.5),
            (2.0, 3.0),
            (2.0, 0.5),
            (24.5, 0.5),
        ] {
            for i in 1..40 {
                calls.push((a, b, f64::from(i) / 40.0));
            }
        }
        calls.push((f64::MIN_POSITIVE, 1e300, 0.25));
        calls.push((1e-300, 0.5, 0.5));
        for &(a, b, x) in &calls {
            let warm = inc_beta(a, b, x);
            let fresh = std::thread::spawn(move || inc_beta(a, b, x))
                .join()
                .unwrap();
            assert_eq!(warm.to_bits(), fresh.to_bits(), "I_{x}({a}, {b})");
            let plain = inc_beta_unmemoized(a, b, x);
            assert_eq!(warm.to_bits(), plain.to_bits(), "I_{x}({a}, {b})");
        }
    }

    #[test]
    #[should_panic(expected = "prob in (0,1)")]
    fn quantile_rejects_prob_outside_the_unit_interval_after_a_warm_call() {
        student_t_quantile(0.975, 49.0);
        student_t_quantile(1.5, 49.0);
    }
}
