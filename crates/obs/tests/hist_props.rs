//! Property suite for the log-linear histogram: the algebraic laws the
//! executor and exporters lean on (exact merge in any grouping or
//! order), the bucket-layout contract at every boundary, and overflow
//! saturation. Uses the offline deterministic proptest subset.

use proptest::prelude::*;

use ptperf_obs::Hist;

/// Values spanning every regime of the layout: the exact sub-32 range,
/// octave interiors, octave boundaries, and past-the-range saturation.
/// (The offline shim has no `prop_oneof!`, so the class is drawn as a
/// tuple component and matched in `prop_map`.)
fn arb_value() -> impl Strategy<Value = u64> {
    (0usize..6, 0u64..(1u64 << 20), 5u64..44, 0u64..3).prop_map(|(class, raw, msb, delta)| {
        match class {
            0 => raw % 64,                   // exact sub-32 linear range
            1 => 64 + raw,                   // low octave interiors
            2 => (1u64 << 20) + (raw << 21), // spread across mid octaves
            3 => (1u64 << 42) + raw,         // just past the range: saturates
            4 => u64::MAX - raw,             // deep saturation
            // Exactly at and around a power-of-two boundary.
            _ => (1u64 << msb) - 1 + delta,
        }
    })
}

fn hist_of(values: &[u64]) -> Hist {
    let mut h = Hist::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// Merging is commutative: a⊎b == b⊎a.
    #[test]
    fn merge_commutes(a in prop::collection::vec(arb_value(), 0..60),
                      b in prop::collection::vec(arb_value(), 0..60)) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// Merging is associative: (a⊎b)⊎c == a⊎(b⊎c).
    #[test]
    fn merge_associates(a in prop::collection::vec(arb_value(), 0..40),
                        b in prop::collection::vec(arb_value(), 0..40),
                        c in prop::collection::vec(arb_value(), 0..40)) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Sharding values arbitrarily and merging the shards equals
    /// recording everything into one histogram — the exact property
    /// that makes sequential ≡ parallel for the distributional layer.
    #[test]
    fn sharded_merge_equals_direct(values in prop::collection::vec(arb_value(), 1..120),
                                   cut in 0usize..120) {
        let cut = cut.min(values.len());
        let mut merged = hist_of(&values[..cut]);
        merged.merge(&hist_of(&values[cut..]));
        prop_assert_eq!(merged, hist_of(&values));
    }

    /// Every value lands inside the bounds of the bucket it maps to,
    /// and the bucket width bounds the quantile error.
    #[test]
    fn values_respect_bucket_bounds(v in arb_value()) {
        let mut h = Hist::new();
        h.record(v);
        let (i, count) = h.nonzero_buckets().next().expect("one bucket");
        prop_assert_eq!(count, 1);
        let (lo, hi) = Hist::bucket_bounds(i);
        if v <= hi {
            prop_assert!(lo <= v && v <= hi, "{} outside bucket {} [{}, {}]", v, i, lo, hi);
        } else {
            // Saturated: clamped into the top bucket.
            prop_assert_eq!(i, Hist::bucket_count() - 1);
            prop_assert_eq!(h.saturated(), 1);
        }
        // A single-value histogram reads the value back exactly: the
        // bucket upper bound clamps to the observed [min, max] = [v, v].
        prop_assert_eq!(h.p50(), v);
    }

    /// Saturation is tracked exactly: counts past the range accumulate
    /// in `saturated()` while min/max/mean stay exact.
    #[test]
    fn saturation_accumulates(n_sat in 1u64..20, n_ok in 0u64..20) {
        let mut h = Hist::new();
        let limit = (1u64 << 42) - 1;
        h.record_n(limit + 1, n_sat);
        h.record_n(1000, n_ok);
        prop_assert_eq!(h.saturated(), n_sat);
        prop_assert_eq!(h.count(), n_sat + n_ok);
        prop_assert_eq!(h.max_ns(), limit + 1);
    }

    /// Quantiles are monotone in q and bracketed by [min, max].
    #[test]
    fn quantiles_are_monotone_and_bracketed(values in prop::collection::vec(arb_value(), 1..100)) {
        let h = hist_of(&values);
        let qs = [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        let reads: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
        for w in reads.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {:?}", reads);
        }
        prop_assert!(reads[0] >= h.min_ns());
        prop_assert!(*reads.last().unwrap() <= h.max_ns());
    }
}
