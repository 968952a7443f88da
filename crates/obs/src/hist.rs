//! Deterministic, mergeable log-linear latency histograms.
//!
//! A [`Hist`] records simulated-nanosecond durations into a **fixed**
//! HDR-style bucket layout: 32 linear buckets per power-of-two octave
//! (relative bucket width ≤ 1/32 ≈ 3.1%), covering `0 ..= 2^42 − 1` ns
//! (about 73 simulated minutes) exactly, with everything above
//! saturating into the top bucket. Because the layout is a pure
//! function of the value — no adaptive resizing, no sampling, no
//! floating point on the record path — two histograms built from the
//! same multiset of values are identical field for field, regardless of
//! insertion order.
//!
//! [`Hist::merge`] adds bucket counts element-wise, which makes merging
//! **exact**: merging per-shard histograms in any grouping or order
//! yields the same result as recording every value into one histogram
//! (associative + commutative, proven by the property suite in
//! `crates/obs/tests/hist_props.rs`). That is what lets the executor
//! keep one histogram per shard and the exporter combine them
//! shard-order-independently while staying byte-identical across
//! worker counts.
//!
//! Quantile readouts ([`Hist::quantile`] and the `p50/p90/p99/p99.9`
//! shorthands) walk the cumulative counts and report the bucket's upper
//! bound clamped to the observed `[min, max]` — all integer arithmetic,
//! no retained samples, deterministic across platforms.

/// log2 of the linear buckets per octave.
const SUB_BITS: u32 = 5;
/// Linear buckets per octave (32).
const SUB: u64 = 1 << SUB_BITS;
/// Highest most-significant-bit position tracked exactly. Values with
/// an MSB above this (≥ 2^42 ns ≈ 73 sim-minutes) saturate into the
/// top bucket.
const MAX_MSB: u32 = 41;
/// Total bucket count: 32 for `v < 32`, then 32 per octave for MSBs
/// 5 ..= 41.
const N_BUCKETS: usize = (SUB as usize) * ((MAX_MSB - SUB_BITS) as usize + 2);

/// The bucket a value lands in. Total function over `u64`: values past
/// the tracked range map to the top bucket.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    if msb > MAX_MSB {
        return N_BUCKETS - 1;
    }
    let sub = ((v >> (msb - SUB_BITS)) - SUB) as usize;
    ((msb - SUB_BITS) as usize + 1) * SUB as usize + sub
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let octave = (i / SUB as usize) - 1;
    let sub = (i % SUB as usize) as u64;
    (SUB + sub) << octave
}

/// Inclusive upper bound of bucket `i` (for the top bucket this is the
/// last exactly-tracked value; saturated samples report it too).
fn bucket_upper(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let octave = (i / SUB as usize) - 1;
    bucket_lower(i) + (1u64 << octave) - 1
}

/// A deterministic, exactly-mergeable log-linear histogram of
/// simulated-nanosecond values. See the module docs for the layout.
#[derive(Clone, PartialEq, Eq)]
pub struct Hist {
    counts: Vec<u64>,
    count: u64,
    saturated: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist")
            .field("count", &self.count)
            .field("min_ns", &self.min_ns)
            .field("max_ns", &self.max_ns)
            .field("p50_ns", &self.p50())
            .field("p99_ns", &self.p99())
            .field("saturated", &self.saturated)
            .finish()
    }
}

impl Hist {
    /// An empty histogram. The bucket array is allocated once here and
    /// never grows — recording is allocation-free from the first value.
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; N_BUCKETS],
            count: 0,
            saturated: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Record one value (simulated nanoseconds).
    pub fn record(&mut self, value_ns: u64) {
        self.record_n(value_ns, 1);
    }

    /// Record `n` occurrences of `value_ns`.
    pub fn record_n(&mut self, value_ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        let i = bucket_index(value_ns);
        if i == N_BUCKETS - 1 && value_ns > bucket_upper(N_BUCKETS - 1) {
            self.saturated += n;
        }
        self.counts[i] += n;
        self.count += n;
        self.sum_ns += value_ns as u128 * n as u128;
        self.min_ns = self.min_ns.min(value_ns);
        self.max_ns = self.max_ns.max(value_ns);
    }

    /// Merge another histogram into this one. Exact: the result equals
    /// a histogram that recorded both value multisets directly, so
    /// merging is associative and commutative in any shard order.
    pub fn merge(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.saturated += other.saturated;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no values have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Values that landed past the exactly-tracked range (≥ 2^42 ns)
    /// and were clamped into the top bucket.
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded value (exact even for saturated samples), or 0
    /// when empty.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Integer mean of the recorded values, or 0 when empty.
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum_ns / self.count as u128) as u64
        }
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket holding the rank-`⌈q·count⌉` value, clamped to the
    /// observed `[min, max]`. Returns 0 on an empty histogram.
    /// Relative error versus the true sample quantile is bounded by the
    /// bucket width, ≤ 1/32.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median (nearest rank).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Non-empty buckets as `(index, count)` pairs in index order — the
    /// sparse serialization the exporters write.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Inclusive value range `[lower, upper]` covered by bucket `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of the fixed layout.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < N_BUCKETS, "bucket {i} out of range");
        (bucket_lower(i), bucket_upper(i))
    }

    /// Number of buckets in the fixed layout.
    pub fn bucket_count() -> usize {
        N_BUCKETS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_monotone() {
        // Every bucket starts where the previous one ended.
        for i in 1..N_BUCKETS {
            assert_eq!(
                bucket_lower(i),
                bucket_upper(i - 1) + 1,
                "gap between buckets {} and {i}",
                i - 1
            );
        }
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(N_BUCKETS - 1), (1u64 << (MAX_MSB + 1)) - 1);
    }

    #[test]
    fn every_value_maps_into_its_bucket_bounds() {
        for v in [0, 1, 31, 32, 33, 63, 64, 65, 1000, 1 << 20, (1 << 42) - 1] {
            let i = bucket_index(v);
            let (lo, hi) = Hist::bucket_bounds(i);
            assert!(
                lo <= v && v <= hi,
                "value {v} outside bucket {i} [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::new();
        for v in 0..32u64 {
            h.record(v);
        }
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 31);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Hist::new();
        let values: Vec<u64> = (0..10_000u64).map(|i| 1000 + i * 997).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let approx = h.quantile(q) as f64;
            assert!(
                (approx - exact).abs() / exact <= 1.0 / 32.0 + 1e-9,
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn saturation_clamps_but_tracks_exact_max() {
        let mut h = Hist::new();
        h.record(u64::MAX);
        h.record(1 << 42);
        h.record((1 << 42) - 1); // last exactly-tracked value
        assert_eq!(h.count(), 3);
        assert_eq!(h.saturated(), 2);
        assert_eq!(h.max_ns(), u64::MAX);
        // All three land at or below the top bucket's upper bound, so
        // quantiles stay finite and ordered (clamped to observed max).
        assert!(h.p50() >= (1 << 42) - 1);
    }

    #[test]
    fn merge_equals_direct_recording() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut direct = Hist::new();
        for v in [3u64, 40, 41, 1_000_000, 5] {
            a.record(v);
            direct.record(v);
        }
        for v in [7u64, 40, 2_000_000_000, u64::MAX] {
            b.record(v);
            direct.record(v);
        }
        a.merge(&b);
        assert_eq!(a, direct);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Hist::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn mean_is_exact_integer_division() {
        let mut h = Hist::new();
        h.record_n(10, 3);
        h.record(20);
        assert_eq!(h.mean_ns(), 12); // (30 + 20) / 4
    }
}
