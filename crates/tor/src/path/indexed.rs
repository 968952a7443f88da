//! Indexed bandwidth-weighted pick: same draw, binary-search resolution.
//!
//! The contract is strict bit-for-bit equivalence with the reference: the
//! original two-pass filtered scan of the whole consensus, kept as the
//! test oracle in `tests/oracle/` and compared by
//! `tests/path_equivalence.rs`. For any consensus, filter class, exclude
//! set, and RNG state, [`weighted_pick`] returns the same relay (or
//! `None`) and consumes the same number of RNG draws (one when a pick
//! happens, zero when nothing is eligible).
//!
//! # How equivalence survives floating point
//!
//! The reference resolves a draw by a subtraction chain over eligible
//! relays; its rounding drifts differently from a prefix-sum lookup, so
//! a naive binary search over [`ClassIndex::prefix`] would disagree near
//! segment boundaries. Instead of replicating the chain, the fast path
//! *proves* its answer: it binary-searches the prefix array run by run
//! between the excluded positions (shifting the search threshold by the
//! bandwidth of each excluded position it passes) and then checks that
//! the candidate sits further than a drift margin `M` from both decision
//! boundaries, so when the check passes the reference provably picks the
//! same relay. When it fails — or when a bandwidth is
//! non-finite/negative ([`exact_ok`] is false), or the class total is
//! within `M` of zero — the pick falls back to an exact dense scan over
//! the class arrays. Because class arrays hold the class members in
//! consensus order with bandwidths copied verbatim, that scan performs
//! the reference's floating-point operations in the reference's order
//! and is bit-exact by construction, including the `total <= 0 → None`
//! pre-draw decision and the last-eligible tail rule.
//!
//! # The drift margin
//!
//! On the fast path every bandwidth is finite and non-negative, so each
//! running value either side forms — a prefix sum, the exclude-adjusted
//! total, a search threshold, the reference's total and its chain
//! target — is bounded in magnitude by the class total `T =
//! prefix[k-1]` (to first order in ε), and each floating-point
//! operation on one rounds it by at most `ε·T`. For a class of `k`
//! members with `m` excluded positions, the operations separating the
//! two computations are the prefix sums (≤ k additions), the
//! reference's total and subtraction chain (≤ 2k), the exclude-adjusted
//! total (`prefix[k-1]`'s k additions plus m subtractions), the per-run
//! threshold shift (≤ m additions), the lower-boundary walk (≤ m
//! subtractions), the two target multiplications and the final
//! comparison: at most `(4k + 3m + 3)·ε·T` in all. The margin
//! `M = 64·(k+m+16)·ε·T` covers that sixteen times over for any `m`,
//! and stays below `1e-10·T` for a 5000-member class, so only draws
//! within a hair of a boundary fall back.
//!
//! Fast-path picks count as `path/index_pick`, exact scans as
//! `path/scan_fallback` ([`ptperf_obs::perf`]). Both count resolved
//! picks only: a guard-sample draw that a
//! [`PathSelector`](super::PathSelector) takes but never resolves counts
//! in neither.
//!
//! [`exact_ok`]: crate::index::ConsensusIndex::exact_ok

use ptperf_sim::SimRng;

use crate::consensus::Consensus;
use crate::index::{ClassIndex, FilterClass};
use crate::relay::RelayId;

/// Reusable pick state: the exclude set mapped to class positions.
/// Persisting one of these across picks makes the pick allocation-free
/// once the buffer has grown to the largest exclude set seen.
#[derive(Debug, Default)]
pub struct PickScratch {
    positions: Vec<u32>,
    grows: u64,
}

impl PickScratch {
    /// An empty scratch; the first picks grow it, after which it is
    /// steady-state.
    pub fn new() -> Self {
        PickScratch::default()
    }

    /// How many times the scratch buffer reallocated — an allocation
    /// proxy for benches (0 delta in steady state).
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Maps `exclude` to sorted, deduplicated class positions (ids
    /// outside the class are dropped: the reference's filter rejects
    /// those relays before its exclude check can matter, and its
    /// `contains` is insensitive to order and duplicates).
    fn set_positions(&mut self, ci: &ClassIndex, exclude: &[RelayId]) {
        let cap = self.positions.capacity();
        self.positions.clear();
        for &id in exclude {
            if let Some(p) = ci.position(id) {
                self.positions.push(p);
            }
        }
        self.positions.sort_unstable();
        self.positions.dedup();
        if self.positions.capacity() != cap {
            self.grows += 1;
        }
    }
}

/// Bandwidth-weighted sample over the relays of `class`, excluding ids in
/// `exclude` — bit-identical to the reference's full scan with the
/// matching filter, including RNG draw count.
pub fn weighted_pick(
    rng: &mut SimRng,
    consensus: &Consensus,
    class: FilterClass,
    exclude: &[RelayId],
    scratch: &mut PickScratch,
) -> Option<RelayId> {
    pick_inner(consensus, class, exclude, scratch, &mut || rng.next_f64())
}

/// [`weighted_pick`] with an externally supplied draw value: resolves a
/// draw taken earlier (the first pick of a guard sample), and lets
/// equivalence tests probe specific (boundary, tail) targets. The
/// closure-produced `u` is consumed at most once, exactly when
/// [`weighted_pick`] would consume an RNG draw.
pub fn weighted_pick_with_u(
    u: f64,
    consensus: &Consensus,
    class: FilterClass,
    exclude: &[RelayId],
    scratch: &mut PickScratch,
) -> Option<RelayId> {
    pick_inner(consensus, class, exclude, scratch, &mut || u)
}

fn pick_inner(
    consensus: &Consensus,
    class: FilterClass,
    exclude: &[RelayId],
    scratch: &mut PickScratch,
    next_u: &mut dyn FnMut() -> f64,
) -> Option<RelayId> {
    let idx = consensus.index();
    let ci = idx.class(class);
    let k = ci.len();
    if k == 0 {
        // Reference: empty eligible set sums to 0 → None before drawing.
        return None;
    }
    scratch.set_positions(ci, exclude);

    if !idx.exact_ok {
        return slow_pick(ci, &scratch.positions, next_u);
    }

    let t_all = ci.prefix[k - 1];
    let mut approx_total = t_all;
    for &p in &scratch.positions {
        approx_total -= ci.bandwidth[p as usize];
    }
    let margin = drift_margin(k, scratch.positions.len(), t_all);
    if approx_total <= margin {
        // Near-zero (or fully excluded) class total: only the exact scan
        // can decide the pre-draw `total <= 0 → None` case bit-exactly.
        return slow_pick(ci, &scratch.positions, next_u);
    }

    // approx_total > margin ⇒ the exact filtered total is positive, so
    // the reference would draw here. Draw once, resolve by binary
    // search, and verify the candidate clears both decision boundaries
    // by the drift margin.
    let u = next_u();
    if let Some(id) = fast_pick(ci, &scratch.positions, u, approx_total, margin) {
        ptperf_obs::perf::incr_path_index_pick();
        return Some(id);
    }
    // Boundary or tail territory: replay the same draw through the exact
    // scan (no second RNG draw).
    ptperf_obs::perf::incr_path_scan_fallback();
    let total = exact_total(ci, &scratch.positions);
    exact_pick_with_u(u, total, ci, &scratch.positions)
}

/// Exact path when the fast path is ineligible before drawing: decides
/// the `None` case from the exact total, then draws and scans.
fn slow_pick(
    ci: &ClassIndex,
    excluded: &[u32],
    next_u: &mut dyn FnMut() -> f64,
) -> Option<RelayId> {
    ptperf_obs::perf::incr_path_scan_fallback();
    let total = exact_total(ci, excluded);
    if total <= 0.0 {
        return None;
    }
    exact_pick_with_u(next_u(), total, ci, excluded)
}

/// The reference's filtered total, computed over the dense class arrays:
/// an in-order left-to-right sum of eligible bandwidths starting from
/// `0.0` — the same operation sequence as `Iterator::sum::<f64>()` over
/// the reference's filtered iterator.
fn exact_total(ci: &ClassIndex, excluded: &[u32]) -> f64 {
    let mut total = 0.0f64;
    for i in 0..ci.len() {
        if is_excluded(excluded, i) {
            continue;
        }
        total += ci.bandwidth[i];
    }
    total
}

/// The reference's subtraction chain and tail rule over the dense class
/// arrays — bit-exact to the reference's own chain.
fn exact_pick_with_u(u: f64, total: f64, ci: &ClassIndex, excluded: &[u32]) -> Option<RelayId> {
    let mut target = u * total;
    for i in 0..ci.len() {
        if is_excluded(excluded, i) {
            continue;
        }
        target -= ci.bandwidth[i];
        if target <= 0.0 {
            return Some(ci.ids[i]);
        }
    }
    // Floating-point tail: the last eligible relay.
    (0..ci.len())
        .rev()
        .find(|&i| !is_excluded(excluded, i))
        .map(|i| ci.ids[i])
}

fn is_excluded(excluded: &[u32], i: usize) -> bool {
    excluded.binary_search(&(i as u32)).is_ok()
}

/// Upper bound on the floating-point disagreement between the prefix-sum
/// view and the reference's subtraction chain, for a class of `k`
/// members with `m` excluded positions and class total `total`. The two
/// computations differ by at most `4k + 3m + 3` roundings, each of at
/// most `ε·total`: k in the prefix sums, 2k in the reference's total and
/// chain, m each in the exclude-adjusted total, the per-run threshold
/// shift and the lower-boundary walk, plus the two target
/// multiplications and the final comparison (module doc, "The drift
/// margin"). `64·(k+m+16)` covers that sixteen times over.
fn drift_margin(k: usize, m: usize, total: f64) -> f64 {
    64.0 * ((k + m) as f64 + 16.0) * f64::EPSILON * total
}

/// Binary-search candidate plus boundary proof. Returns `None` when the
/// candidate cannot be proven (caller falls back to the exact scan).
fn fast_pick(
    ci: &ClassIndex,
    excluded: &[u32],
    u: f64,
    approx_total: f64,
    margin: f64,
) -> Option<RelayId> {
    let k = ci.len();
    let prefix = &ci.prefix[..];

    // The excluded positions split the class into runs. Within a run the
    // candidate condition is `prefix[i] >= th`, where `th` is the target
    // shifted by the bandwidth of every excluded position before the run.
    let mut th = u * approx_total;
    let mut lo = 0;
    let mut ends = excluded.iter().map(|&p| p as usize);
    let i = loop {
        let end = ends.next().unwrap_or(k);
        let i = lo + prefix[lo..end].partition_point(|&x| x < th);
        if i < end {
            break i;
        }
        if end == k {
            // No run resolves the draw: tail territory, where only the
            // reference's own chain (exact scan) can decide.
            return None;
        }
        th += ci.bandwidth[end];
        lo = end + 1;
    };

    // Upper boundary: the exact eligible cumulative sum through `i`
    // surely reaches the exact target despite drift, so the reference's
    // chain is non-positive at `i`.
    if prefix[i] - th <= margin {
        return None;
    }
    // Lower boundary: the previous eligible position (if any) surely
    // falls short, so the chain — monotone for non-negative bandwidths —
    // is still positive before `i`.
    let mut th_j = th;
    let mut j = i;
    loop {
        if j == 0 {
            break; // `i` is the first eligible position.
        }
        j -= 1;
        if is_excluded(excluded, j) {
            th_j -= ci.bandwidth[j];
            continue;
        }
        if th_j - prefix[j] <= margin {
            return None;
        }
        break;
    }
    Some(ci.ids[i])
}
