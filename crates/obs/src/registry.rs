//! The central registry of every counter key the workspace emits.
//!
//! Counter keys are bare `&'static str`s at their emission sites —
//! cheap, allocation-free, and greppable — but that style lets a typo'd
//! or undocumented key slip into the trace stream silently. This module
//! is the antidote: **every** key that reaches [`crate::Recorder::add`]
//! or a [`crate::perf`] counter must have a row here, with one line of
//! documentation. `crates/obs/tests/registry_coverage.rs` greps the
//! workspace for emission sites and fails if it finds a key missing
//! from the registry (or vice versa for the perf set), so the registry
//! and the code cannot drift apart.
//!
//! Keys are namespaced `subsystem/name`; the two un-namespaced keys
//! (`events`, `sim_ns`) predate the convention and are kept for
//! trace-format stability.

/// Where a counter's totals live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Emitted into the deterministic per-shard trace stream via
    /// [`crate::Recorder::add`]; byte-identical across runs and worker
    /// counts.
    Trace,
    /// A [`crate::perf`] counter, counted per calling thread, including
    /// the pools it ran; totals are deterministic, which worker counts a
    /// unit is not, so it stays out of the trace stream.
    Perf,
}

/// One registered counter key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterDef {
    /// The key exactly as emitted, e.g. `"browser/pages"`.
    pub key: &'static str,
    /// Which stream carries it.
    pub kind: CounterKind,
    /// One-line meaning.
    pub doc: &'static str,
}

/// Every counter key the workspace emits, sorted by key within kind
/// (trace first). Add a row here when introducing a key — the
/// registry-coverage test enforces it.
pub const COUNTERS: &[CounterDef] = &[
    // -- deterministic trace counters ---------------------------------
    CounterDef {
        key: "browser/pages",
        kind: CounterKind::Trace,
        doc: "page loads executed by the browser model",
    },
    CounterDef {
        key: "browser/resources",
        kind: CounterKind::Trace,
        doc: "subresources fetched across all page loads",
    },
    CounterDef {
        key: "events",
        kind: CounterKind::Trace,
        doc: "measurement units completed by an experiment shard",
    },
    CounterDef {
        key: "fault/gave_up",
        kind: CounterKind::Trace,
        doc: "injected faults that were terminal (retry budget exhausted)",
    },
    CounterDef {
        key: "fault/injected",
        kind: CounterKind::Trace,
        doc: "fault events fired by the deterministic fault plan",
    },
    CounterDef {
        key: "fault/recovered",
        kind: CounterKind::Trace,
        doc: "injected faults absorbed without a retry (stalls, ramps)",
    },
    CounterDef {
        key: "fault/retried",
        kind: CounterKind::Trace,
        doc: "injected faults answered with a retry attempt",
    },
    CounterDef {
        key: "sim_ns",
        kind: CounterKind::Trace,
        doc: "simulated nanoseconds covered by a shard's phase span tree",
    },
    // -- perf counters, per calling thread (crate::perf) --------------
    CounterDef {
        key: "browser/scratch_hits",
        kind: CounterKind::Perf,
        doc: "page loads served by an already-warm PageScratch",
    },
    CounterDef {
        key: "deployment/rebuilds_saved",
        kind: CounterKind::Perf,
        doc: "Scenario::deployment() calls served from the shared cache",
    },
    CounterDef {
        key: "fault/gave_up",
        kind: CounterKind::Perf,
        doc: "per-thread mirror of the fault/gave_up trace counter",
    },
    CounterDef {
        key: "fault/injected",
        kind: CounterKind::Perf,
        doc: "per-thread mirror of the fault/injected trace counter",
    },
    CounterDef {
        key: "fault/recovered",
        kind: CounterKind::Perf,
        doc: "per-thread mirror of the fault/recovered trace counter",
    },
    CounterDef {
        key: "fault/retried",
        kind: CounterKind::Perf,
        doc: "per-thread mirror of the fault/retried trace counter",
    },
    CounterDef {
        key: "path/index_pick",
        kind: CounterKind::Perf,
        doc: "relay picks resolved by binary search over the consensus index",
    },
    CounterDef {
        key: "path/scan_fallback",
        kind: CounterKind::Perf,
        doc: "relay picks that fell back to the exact dense scan",
    },
    CounterDef {
        key: "site/rebuilds_saved",
        kind: CounterKind::Perf,
        doc: "site-workload requests served from the memoized cache",
    },
];

/// Look up a key's registration (trace counters shadow perf mirrors
/// when a key exists in both streams — pass the kind to disambiguate).
pub fn lookup(key: &str, kind: CounterKind) -> Option<&'static CounterDef> {
    COUNTERS.iter().find(|c| c.key == key && c.kind == kind)
}

/// All registered keys of one kind, in registry order (sorted).
pub fn keys(kind: CounterKind) -> impl Iterator<Item = &'static str> {
    COUNTERS
        .iter()
        .filter(move |c| c.kind == kind)
        .map(|c| c.key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_sorted_and_unique_within_kind() {
        for kind in [CounterKind::Trace, CounterKind::Perf] {
            let ks: Vec<_> = keys(kind).collect();
            let mut sorted = ks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(ks, sorted, "{kind:?} keys must be sorted and unique");
        }
    }

    #[test]
    fn every_row_is_documented() {
        for c in COUNTERS {
            assert!(!c.doc.is_empty(), "{} lacks documentation", c.key);
            assert!(!c.key.is_empty());
        }
    }

    #[test]
    fn lookup_respects_kind() {
        assert!(lookup("browser/pages", CounterKind::Trace).is_some());
        assert!(lookup("browser/pages", CounterKind::Perf).is_none());
        assert!(lookup("path/index_pick", CounterKind::Perf).is_some());
        assert!(lookup("fault/injected", CounterKind::Trace).is_some());
        assert!(lookup("fault/injected", CounterKind::Perf).is_some());
    }
}
