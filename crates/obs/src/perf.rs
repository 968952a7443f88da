//! Process-wide performance counters for hot paths that have no
//! [`crate::Recorder`] handle.
//!
//! Path selection and deployment construction run deep inside the
//! per-measurement hot loop, below the layer where the executor threads
//! a per-shard recorder. Routing a recorder down there would widen
//! every signature on the establishment path for three counters, so
//! they live here instead: monotone process-wide atomics, bumped with
//! `Relaxed` ordering (they order nothing) and *never read back by
//! simulation logic*. They therefore cannot perturb a single result
//! bit — the neutrality guarantee `tests/obs_neutrality.rs` proves for
//! the recorder applies trivially here — and they are deliberately kept
//! out of the deterministic trace stream, because shard scheduling
//! makes their interleaving (though not their totals) nondeterministic.
//!
//! Consumers take a [`snapshot`] before and after a region of interest
//! and report the [`PerfSnapshot::delta_since`]; `repro --bench
//! establish` is the canonical reader.

use std::sync::atomic::{AtomicU64, Ordering};

static PATH_INDEX_PICK: AtomicU64 = AtomicU64::new(0);
static PATH_SCAN_FALLBACK: AtomicU64 = AtomicU64::new(0);
static DEPLOYMENT_REBUILDS_SAVED: AtomicU64 = AtomicU64::new(0);
static FLOW_INLINE_NODES: AtomicU64 = AtomicU64::new(0);
static BROWSER_SCRATCH_HITS: AtomicU64 = AtomicU64::new(0);
static SITE_REBUILDS_SAVED: AtomicU64 = AtomicU64::new(0);
static FAULT_INJECTED: AtomicU64 = AtomicU64::new(0);
static FAULT_RETRIED: AtomicU64 = AtomicU64::new(0);
static FAULT_RECOVERED: AtomicU64 = AtomicU64::new(0);
static FAULT_GAVE_UP: AtomicU64 = AtomicU64::new(0);

/// Counts one `path/index_pick`: a bandwidth-weighted relay pick
/// resolved by binary search over the consensus index. Guard-sample
/// picks that path selection defers count only once resolved.
pub fn incr_path_index_pick() {
    PATH_INDEX_PICK.fetch_add(1, Ordering::Relaxed);
}

/// Counts one `path/scan_fallback`: a pick that fell back to the exact
/// dense scan (a draw near a decision boundary or in the tail,
/// degenerate bandwidths, or a near-zero class total).
pub fn incr_path_scan_fallback() {
    PATH_SCAN_FALLBACK.fetch_add(1, Ordering::Relaxed);
}

/// Counts one `deployment/rebuilds_saved`: a `Scenario::deployment()`
/// call served from the shared cache instead of regenerating the
/// consensus and bridge registry.
pub fn incr_deployment_rebuilds_saved() {
    DEPLOYMENT_REBUILDS_SAVED.fetch_add(1, Ordering::Relaxed);
}

/// Counts `n` `flow/inline_nodes`: flows whose node path fit a
/// `FlowBatch`'s inline representation (≤ 2 ids), avoiding an arena
/// spill. These are warmth-dependent tallies (a reused batch keeps its
/// arena capacity), so they must stay out of the recorder stream.
pub fn incr_flow_inline_nodes(n: u64) {
    FLOW_INLINE_NODES.fetch_add(n, Ordering::Relaxed);
}

/// Counts one `browser/scratch_hits`: a page load served by an
/// already-warm `PageScratch` (no buffer had to be created).
pub fn incr_browser_scratch_hits() {
    BROWSER_SCRATCH_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Counts one `site/rebuilds_saved`: a site-workload request served
/// from the memoized `Arc<[Website]>` cache instead of regenerating
/// the list.
pub fn incr_site_rebuilds_saved() {
    SITE_REBUILDS_SAVED.fetch_add(1, Ordering::Relaxed);
}

/// Counts `n` `fault/injected`: fault events that fired in a faulted
/// workload. Process-wide totals only; the deterministic per-unit
/// counts live in the recorder stream.
pub fn incr_fault_injected(n: u64) {
    FAULT_INJECTED.fetch_add(n, Ordering::Relaxed);
}

/// Counts `n` `fault/retried`: injected events answered with a retry.
pub fn incr_fault_retried(n: u64) {
    FAULT_RETRIED.fetch_add(n, Ordering::Relaxed);
}

/// Counts `n` `fault/recovered`: injected events absorbed without a
/// retry (stalls, degradation ramps).
pub fn incr_fault_recovered(n: u64) {
    FAULT_RECOVERED.fetch_add(n, Ordering::Relaxed);
}

/// Counts `n` `fault/gave_up`: injected events that were terminal
/// (retry budget exhausted).
pub fn incr_fault_gave_up(n: u64) {
    FAULT_GAVE_UP.fetch_add(n, Ordering::Relaxed);
}

/// A point-in-time reading of every perf counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerfSnapshot {
    /// `path/index_pick` total.
    pub path_index_pick: u64,
    /// `path/scan_fallback` total.
    pub path_scan_fallback: u64,
    /// `deployment/rebuilds_saved` total.
    pub deployment_rebuilds_saved: u64,
    /// `flow/inline_nodes` total.
    pub flow_inline_nodes: u64,
    /// `browser/scratch_hits` total.
    pub browser_scratch_hits: u64,
    /// `site/rebuilds_saved` total.
    pub site_rebuilds_saved: u64,
    /// `fault/injected` total.
    pub fault_injected: u64,
    /// `fault/retried` total.
    pub fault_retried: u64,
    /// `fault/recovered` total.
    pub fault_recovered: u64,
    /// `fault/gave_up` total.
    pub fault_gave_up: u64,
}

impl PerfSnapshot {
    /// Counter increments between `earlier` and `self` (saturating, so
    /// snapshots taken out of order read as zero rather than wrapping).
    pub fn delta_since(&self, earlier: &PerfSnapshot) -> PerfSnapshot {
        PerfSnapshot {
            path_index_pick: self.path_index_pick.saturating_sub(earlier.path_index_pick),
            path_scan_fallback: self
                .path_scan_fallback
                .saturating_sub(earlier.path_scan_fallback),
            deployment_rebuilds_saved: self
                .deployment_rebuilds_saved
                .saturating_sub(earlier.deployment_rebuilds_saved),
            flow_inline_nodes: self.flow_inline_nodes.saturating_sub(earlier.flow_inline_nodes),
            browser_scratch_hits: self
                .browser_scratch_hits
                .saturating_sub(earlier.browser_scratch_hits),
            site_rebuilds_saved: self
                .site_rebuilds_saved
                .saturating_sub(earlier.site_rebuilds_saved),
            fault_injected: self.fault_injected.saturating_sub(earlier.fault_injected),
            fault_retried: self.fault_retried.saturating_sub(earlier.fault_retried),
            fault_recovered: self.fault_recovered.saturating_sub(earlier.fault_recovered),
            fault_gave_up: self.fault_gave_up.saturating_sub(earlier.fault_gave_up),
        }
    }
}

/// Reads all perf counters at once.
pub fn snapshot() -> PerfSnapshot {
    PerfSnapshot {
        path_index_pick: PATH_INDEX_PICK.load(Ordering::Relaxed),
        path_scan_fallback: PATH_SCAN_FALLBACK.load(Ordering::Relaxed),
        deployment_rebuilds_saved: DEPLOYMENT_REBUILDS_SAVED.load(Ordering::Relaxed),
        flow_inline_nodes: FLOW_INLINE_NODES.load(Ordering::Relaxed),
        browser_scratch_hits: BROWSER_SCRATCH_HITS.load(Ordering::Relaxed),
        site_rebuilds_saved: SITE_REBUILDS_SAVED.load(Ordering::Relaxed),
        fault_injected: FAULT_INJECTED.load(Ordering::Relaxed),
        fault_retried: FAULT_RETRIED.load(Ordering::Relaxed),
        fault_recovered: FAULT_RECOVERED.load(Ordering::Relaxed),
        fault_gave_up: FAULT_GAVE_UP.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let before = snapshot();
        incr_path_index_pick();
        incr_path_index_pick();
        incr_path_scan_fallback();
        incr_deployment_rebuilds_saved();
        let after = snapshot();
        let d = after.delta_since(&before);
        // Other tests may bump the same process-wide counters
        // concurrently, so deltas are lower bounds here.
        assert!(d.path_index_pick >= 2);
        assert!(d.path_scan_fallback >= 1);
        assert!(d.deployment_rebuilds_saved >= 1);
    }

    #[test]
    fn unit_pipeline_counters_accumulate() {
        let before = snapshot();
        incr_flow_inline_nodes(64);
        incr_browser_scratch_hits();
        incr_site_rebuilds_saved();
        let d = snapshot().delta_since(&before);
        assert!(d.flow_inline_nodes >= 64);
        assert!(d.browser_scratch_hits >= 1);
        assert!(d.site_rebuilds_saved >= 1);
    }

    #[test]
    fn fault_counters_accumulate() {
        let before = snapshot();
        incr_fault_injected(5);
        incr_fault_retried(2);
        incr_fault_recovered(2);
        incr_fault_gave_up(1);
        let d = snapshot().delta_since(&before);
        assert!(d.fault_injected >= 5);
        assert!(d.fault_retried >= 2);
        assert!(d.fault_recovered >= 2);
        assert!(d.fault_gave_up >= 1);
    }

    #[test]
    fn out_of_order_delta_saturates() {
        incr_path_index_pick();
        let later = snapshot();
        incr_path_index_pick();
        let even_later = snapshot();
        let d = later.delta_since(&even_later);
        assert_eq!(d.path_index_pick, 0);
    }
}
