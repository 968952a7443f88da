//! Rank statistics: ranking with ties and Spearman's rank correlation —
//! used for the paper's "trends are preserved" claims (§4.5 location
//! invariance, §4.7 medium invariance).

/// Assigns average ranks (1-based) to a sample, ties sharing the mean of
/// the ranks they span — the standard treatment for Spearman.
pub fn average_ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN in rank input"));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Positions i..=j (0-based) share the average of ranks i+1..=j+1.
        let avg = (i + 1 + j + 1) as f64 / 2.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman's rank correlation coefficient between two paired samples,
/// with average ranks for ties (the Pearson correlation of the ranks).
///
/// # Panics
/// Panics on length mismatch or fewer than 2 pairs.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman requires paired samples");
    assert!(xs.len() >= 2, "spearman requires at least 2 pairs");
    let rx = average_ranks(xs);
    let ry = average_ranks(ys);
    pearson(&rx, &ry)
}

/// Pearson correlation coefficient.
///
/// Returns 0 when either sample has zero variance (the correlation is
/// undefined; 0 is the conservative report for "no detectable ordering
/// relationship").
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_simple() {
        assert_eq!(average_ranks(&[10.0, 30.0, 20.0]), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn ranks_with_ties_average() {
        // 5, 5 occupy ranks 2 and 3 → both get 2.5.
        assert_eq!(
            average_ranks(&[1.0, 5.0, 5.0, 9.0]),
            vec![1.0, 2.5, 2.5, 4.0]
        );
    }

    #[test]
    fn spearman_perfect_monotone() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [10.0, 100.0, 1000.0, 10_000.0, 100_000.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        let rev: Vec<f64> = ys.iter().rev().cloned().collect();
        assert!((spearman(&xs, &rev) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_known_value() {
        // Classic textbook pair.
        let xs = [
            106.0, 100.0, 86.0, 101.0, 99.0, 103.0, 97.0, 113.0, 112.0, 110.0,
        ];
        let ys = [7.0, 27.0, 2.0, 50.0, 28.0, 29.0, 20.0, 12.0, 6.0, 17.0];
        let rho = spearman(&xs, &ys);
        assert!((rho - (-0.1757575)).abs() < 1e-4, "rho {rho}");
    }

    #[test]
    fn spearman_is_scale_invariant() {
        let xs = [3.0, 1.0, 4.0, 1.5, 9.0];
        let ys = [2.0, 7.0, 1.0, 8.0, 0.5];
        let scaled: Vec<f64> = xs.iter().map(|x| x * 100.0 + 7.0).collect();
        assert!((spearman(&xs, &ys) - spearman(&scaled, &ys)).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "paired")]
    fn spearman_rejects_mismatch() {
        let _ = spearman(&[1.0], &[1.0, 2.0]);
    }
}
