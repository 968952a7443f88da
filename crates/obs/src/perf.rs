//! Performance counters for hot paths that have no [`crate::Recorder`]
//! handle, counted per calling thread, including the pools it ran.
//!
//! Path selection and deployment construction run deep inside the
//! per-measurement hot loop, below the layer where the executor threads
//! a per-shard recorder. Routing a recorder down there would widen
//! every signature on the establishment path for three counters, so
//! they live here instead: nine monotone counts in one const-initialised
//! `thread_local!` cell, bumped without a lock or an atomic and *never
//! read back by simulation logic*. They therefore cannot perturb a single
//! result bit — the neutrality guarantee `tests/obs_neutrality.rs` proves
//! for the recorder applies trivially here — and they are deliberately
//! kept out of the deterministic trace stream, because which worker a
//! unit runs on (and so whose counts it bumps) depends on scheduling,
//! though the totals do not.
//!
//! A thread's counts cover the work it ran itself and, once each pool
//! has ended, the work of the pools it ran: `ptperf::executor::run_units`
//! hands every spawned worker's counts back to its calling thread
//! through [`absorb`], nested pools included. Consumers take a
//! [`snapshot`] before and after a region of interest on one thread and
//! report the [`PerfSnapshot::delta_since`]; a count bumped on an
//! unrelated thread never appears in it. `repro --bench establish` and
//! ptbench are the readers.

use std::cell::Cell;

thread_local! {
    static COUNTS: Cell<PerfSnapshot> = const { Cell::new(PerfSnapshot::ZERO) };
}

/// Adds `n` to the calling thread's count that `field` selects.
fn bump(field: impl FnOnce(&mut PerfSnapshot) -> &mut u64, n: u64) {
    COUNTS.with(|counts| {
        let mut c = counts.get();
        *field(&mut c) += n;
        counts.set(c);
    });
}

/// Counts one `path/index_pick`: a bandwidth-weighted relay pick
/// resolved by binary search over the consensus index. A guard-sample
/// draw that path selection takes but never resolves is not counted.
pub fn incr_path_index_pick() {
    bump(|c| &mut c.path_index_pick, 1);
}

/// Counts one `path/scan_fallback`: a pick that fell back to the exact
/// dense scan (a draw near a decision boundary or in the tail,
/// degenerate bandwidths, or a near-zero class total).
pub fn incr_path_scan_fallback() {
    bump(|c| &mut c.path_scan_fallback, 1);
}

/// Counts one `deployment/rebuilds_saved`: a `Scenario::deployment()`
/// call served from the shared cache instead of regenerating the
/// consensus and bridge registry.
pub fn incr_deployment_rebuilds_saved() {
    bump(|c| &mut c.deployment_rebuilds_saved, 1);
}

/// Counts one `browser/scratch_hits`: a page load served by an
/// already-warm `PageScratch` (no buffer had to be created).
pub fn incr_browser_scratch_hits() {
    bump(|c| &mut c.browser_scratch_hits, 1);
}

/// Counts one `site/rebuilds_saved`: a site-workload request served
/// from the memoized `Arc<[Website]>` cache instead of regenerating
/// the list.
pub fn incr_site_rebuilds_saved() {
    bump(|c| &mut c.site_rebuilds_saved, 1);
}

/// Counts `n` `fault/injected`: fault events that fired in a faulted
/// workload. Totals only; the deterministic per-unit counts live in the
/// recorder stream.
pub fn incr_fault_injected(n: u64) {
    bump(|c| &mut c.fault_injected, n);
}

/// Counts `n` `fault/retried`: injected events answered with a retry.
pub fn incr_fault_retried(n: u64) {
    bump(|c| &mut c.fault_retried, n);
}

/// Counts `n` `fault/recovered`: injected events absorbed without a
/// retry (stalls, degradation ramps).
pub fn incr_fault_recovered(n: u64) {
    bump(|c| &mut c.fault_recovered, n);
}

/// Counts `n` `fault/gave_up`: injected events that were terminal
/// (retry budget exhausted).
pub fn incr_fault_gave_up(n: u64) {
    bump(|c| &mut c.fault_gave_up, n);
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
    const ZERO: PerfSnapshot = PerfSnapshot {
        path_index_pick: 0,
        path_scan_fallback: 0,
        deployment_rebuilds_saved: 0,
        browser_scratch_hits: 0,
        site_rebuilds_saved: 0,
        fault_injected: 0,
        fault_retried: 0,
        fault_recovered: 0,
        fault_gave_up: 0,
    };

    /// `op` applied to each pair of matching counters.
    fn zip(&self, other: &PerfSnapshot, op: fn(u64, u64) -> u64) -> PerfSnapshot {
        PerfSnapshot {
            path_index_pick: op(self.path_index_pick, other.path_index_pick),
            path_scan_fallback: op(self.path_scan_fallback, other.path_scan_fallback),
            deployment_rebuilds_saved: op(
                self.deployment_rebuilds_saved,
                other.deployment_rebuilds_saved,
            ),
            browser_scratch_hits: op(self.browser_scratch_hits, other.browser_scratch_hits),
            site_rebuilds_saved: op(self.site_rebuilds_saved, other.site_rebuilds_saved),
            fault_injected: op(self.fault_injected, other.fault_injected),
            fault_retried: op(self.fault_retried, other.fault_retried),
            fault_recovered: op(self.fault_recovered, other.fault_recovered),
            fault_gave_up: op(self.fault_gave_up, other.fault_gave_up),
        }
    }

    /// Counter increments between `earlier` and `self` (saturating, so
    /// snapshots taken out of order read as zero rather than wrapping).
    pub fn delta_since(&self, earlier: &PerfSnapshot) -> PerfSnapshot {
        self.zip(earlier, u64::saturating_sub)
    }
}

/// Reads the calling thread's perf counters, including those of every
/// pool it ran that has ended.
pub fn snapshot() -> PerfSnapshot {
    COUNTS.with(Cell::get)
}

/// Adds `counts` to the calling thread's counters: how a pool's calling
/// thread takes over what its spawned workers counted.
pub fn absorb(counts: &PerfSnapshot) {
    COUNTS.with(|c| c.set(c.get().zip(counts, u64::wrapping_add)));
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
        let d = snapshot().delta_since(&before);
        assert_eq!(
            d,
            PerfSnapshot {
                path_index_pick: 2,
                path_scan_fallback: 1,
                deployment_rebuilds_saved: 1,
                ..PerfSnapshot::ZERO
            }
        );
    }

    #[test]
    fn unit_pipeline_counters_accumulate() {
        let before = snapshot();
        incr_browser_scratch_hits();
        incr_site_rebuilds_saved();
        let d = snapshot().delta_since(&before);
        assert_eq!(
            d,
            PerfSnapshot {
                browser_scratch_hits: 1,
                site_rebuilds_saved: 1,
                ..PerfSnapshot::ZERO
            }
        );
    }

    #[test]
    fn fault_counters_accumulate() {
        let before = snapshot();
        incr_fault_injected(5);
        incr_fault_retried(2);
        incr_fault_recovered(2);
        incr_fault_gave_up(1);
        let d = snapshot().delta_since(&before);
        assert_eq!(
            d,
            PerfSnapshot {
                fault_injected: 5,
                fault_retried: 2,
                fault_recovered: 2,
                fault_gave_up: 1,
                ..PerfSnapshot::ZERO
            }
        );
    }

    #[test]
    fn absorb_adds_another_threads_counts_and_nothing_else() {
        let before = snapshot();
        let theirs = std::thread::spawn(|| {
            incr_path_index_pick();
            incr_fault_injected(3);
            snapshot()
        })
        .join()
        .unwrap();
        assert_eq!(snapshot(), before, "another thread's bumps are its own");
        absorb(&theirs);
        absorb(&theirs);
        let d = snapshot().delta_since(&before);
        assert_eq!(
            d,
            PerfSnapshot {
                path_index_pick: 2,
                fault_injected: 6,
                ..PerfSnapshot::ZERO
            }
        );
    }

    #[test]
    fn out_of_order_delta_saturates() {
        incr_path_index_pick();
        let later = snapshot();
        incr_path_index_pick();
        let even_later = snapshot();
        let d = later.delta_since(&even_later);
        assert_eq!(d.path_index_pick, 0);
        assert_eq!(even_later.delta_since(&later).path_index_pick, 1);
    }
}
