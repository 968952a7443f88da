//! The [`Recorder`] trait and its two standard implementations.
//!
//! A recorder is *per shard* and passed as `&mut dyn Recorder`, so
//! recording needs no locks and imposes no ordering constraints between
//! shards: determinism of the merged trace comes from the executor
//! merging shard observations in submission-index order, exactly as it
//! merges shard values.
//!
//! Spans form a **tree**: [`Recorder::span_in`] returns a stable id
//! (per-shard emission-order sequence, starting at 1) that later spans
//! may name as their parent. Ids are a pure function of emission order,
//! which is itself deterministic, so the tree — like everything else in
//! the stream — is byte-identical across runs and worker counts. The
//! Chrome-trace exporter in `ptperf-bench` renders it in a real trace
//! viewer.

use std::collections::BTreeMap;

use crate::hist::Hist;

/// One phase span on the simulated timeline, a node in the shard's span
/// tree.
///
/// Times are raw simulated nanoseconds (the representation under
/// `ptperf_sim::SimTime`) rather than `SimTime` itself so this crate
/// can sit below the simulator in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name, e.g. `"handshake"` or `"transfer"`. Static so
    /// recording never allocates per span.
    pub phase: &'static str,
    /// Span start in simulated nanoseconds.
    pub start_ns: u64,
    /// Span end in simulated nanoseconds (`end_ns >= start_ns`).
    pub end_ns: u64,
    /// Stable per-shard span id (1-based emission order; 0 never
    /// appears as an id).
    pub id: u32,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u32,
}

impl SpanRecord {
    /// Span length in simulated nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Whether this span has no parent.
    pub fn is_root(&self) -> bool {
        self.parent == 0
    }
}

/// Everything one shard observed: its spans in emission order, its
/// counters in key order, and its per-phase latency histograms in key
/// order. All three orders are deterministic, so two runs of the same
/// seeded shard produce equal `ShardObsData`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardObsData {
    /// Phase spans in the order the shard emitted them (= id order).
    pub spans: Vec<SpanRecord>,
    /// Counter totals, sorted by key.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-phase latency histograms, sorted by key.
    pub hists: Vec<(&'static str, Hist)>,
}

impl ShardObsData {
    /// Look up a counter total by key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    /// Look up a latency histogram by key.
    pub fn hist(&self, key: &str) -> Option<&Hist> {
        self.hists.iter().find(|(k, _)| *k == key).map(|(_, h)| h)
    }

    /// Total simulated nanoseconds covered by spans (sum of durations,
    /// parents included — see [`ShardObsData::leaf_span_ns`] for the
    /// double-count-free total).
    pub fn span_ns(&self) -> u64 {
        self.spans.iter().map(SpanRecord::duration_ns).sum()
    }

    /// Simulated nanoseconds covered by *leaf* spans only. A parent
    /// span covers the same timeline as its children, so summing
    /// leaves counts each simulated nanosecond once.
    pub fn leaf_span_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| !self.spans.iter().any(|c| c.parent == s.id))
            .map(SpanRecord::duration_ns)
            .sum()
    }
}

/// Sink for sim-time observations. Every method has a no-op default,
/// so `impl Recorder for MyType {}` is a valid null recorder and
/// instrumented code can call the hooks unconditionally.
///
/// Implementations must not consult wall clocks or randomness — the
/// contract is that recording is a *pure function of the observations*,
/// which is what makes traces reproducible.
pub trait Recorder {
    /// Whether observations will be kept. Instrumented code may use
    /// this to skip computing span boundaries entirely, but must not
    /// branch its *measurement* logic on it.
    fn enabled(&self) -> bool {
        false
    }

    /// Record a root phase span on the simulated timeline.
    fn span(&mut self, phase: &'static str, start_ns: u64, end_ns: u64) {
        let _ = self.span_in(phase, start_ns, end_ns, 0);
    }

    /// Record a phase span under `parent` (0 for a root) and return the
    /// new span's stable id. Null implementations return 0, which is
    /// never a real id, so instrumented code can thread the returned
    /// value unconditionally.
    fn span_in(&mut self, _phase: &'static str, _start_ns: u64, _end_ns: u64, _parent: u32) -> u32 {
        0
    }

    /// Add `n` to the counter named `key`.
    fn add(&mut self, _key: &'static str, _n: u64) {}

    /// Record one value into the latency histogram named `key`.
    fn hist(&mut self, _key: &'static str, _value_ns: u64) {}

    /// Merge a whole histogram into the one named `key` (exact merge —
    /// see [`Hist::merge`]). Accumulators like [`PhaseAccum`] build
    /// their histograms locally and hand them over once.
    fn hist_merge(&mut self, _key: &'static str, _h: &Hist) {}
}

/// The default recorder: discards everything, `enabled()` is false.
///
/// Un-instrumented entry points delegate to their instrumented variants
/// with a `NullRecorder`, guaranteeing both run the same code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// A recorder that keeps everything in memory, for collection by the
/// executor (one per shard) or direct inspection in tests.
#[derive(Debug, Clone, Default)]
pub struct MemoryRecorder {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Hist>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    /// Finish recording and extract the shard's observations.
    pub fn into_data(self) -> ShardObsData {
        ShardObsData {
            spans: self.spans,
            counters: self.counters.into_iter().collect(),
            hists: self.hists.into_iter().collect(),
        }
    }
}

impl Recorder for MemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_in(&mut self, phase: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(SpanRecord {
            phase,
            start_ns,
            end_ns: end_ns.max(start_ns),
            id,
            parent,
        });
        id
    }

    fn add(&mut self, key: &'static str, n: u64) {
        *self.counters.entry(key).or_insert(0) += n;
    }

    fn hist(&mut self, key: &'static str, value_ns: u64) {
        self.hists.entry(key).or_default().record(value_ns);
    }

    fn hist_merge(&mut self, key: &'static str, h: &Hist) {
        self.hists.entry(key).or_default().merge(h);
    }
}

/// Accumulates per-phase simulated time across many repetitions and
/// emits one consecutive span per phase — children of a single `total`
/// root span — laid out from sim time zero in first-seen order, plus a
/// per-phase latency [`Hist`] of the individual contributions.
///
/// Experiment shards repeat a primitive measurement (fetch a page,
/// download a file) dozens of times; per-repetition spans would bloat
/// the trace without adding information. `PhaseAccum` collapses them
/// into a per-shard phase profile: "this shard spent X sim-seconds in
/// handshakes and Y in transfers". The histograms keep what the spans
/// collapse away — the *distribution* of per-event phase latencies —
/// without retaining samples: every [`PhaseAccum::add_ns`] call lands
/// one value in that phase's histogram, and phases observed via
/// [`PhaseAccum::hist_ns`] (e.g. `ttfb`, `total`) get a histogram
/// without a span.
#[derive(Debug, Clone, Default)]
pub struct PhaseAccum {
    totals: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, Hist)>,
}

impl PhaseAccum {
    /// An empty accumulator.
    pub fn new() -> PhaseAccum {
        PhaseAccum::default()
    }

    /// Add `ns` simulated nanoseconds to `phase`: accumulates the
    /// phase's span total and records `ns` as one sample in the phase's
    /// latency histogram.
    pub fn add_ns(&mut self, phase: &'static str, ns: u64) {
        if let Some(slot) = self.totals.iter_mut().find(|(p, _)| *p == phase) {
            slot.1 += ns;
        } else {
            self.totals.push((phase, ns));
        }
        self.hist_ns(phase, ns);
    }

    /// Record `ns` as one sample in `phase`'s latency histogram without
    /// contributing to the span timeline — for derived per-event
    /// quantities (`ttfb`, `total`) that overlap the timeline phases.
    pub fn hist_ns(&mut self, phase: &'static str, ns: u64) {
        if let Some(slot) = self.hists.iter_mut().find(|(p, _)| *p == phase) {
            slot.1.record(ns);
        } else {
            let mut h = Hist::new();
            h.record(ns);
            self.hists.push((phase, h));
        }
    }

    /// Emit the span tree — a `total` root covering the accumulated
    /// time, one child span per phase (consecutive, starting at sim
    /// time 0) — plus a `sim_ns` counter holding the total and the
    /// per-phase histograms. Emits nothing when nothing was observed.
    pub fn emit(self, rec: &mut dyn Recorder) {
        let total: u64 = self.totals.iter().map(|(_, ns)| ns).sum();
        if total == 0 && self.hists.is_empty() {
            return;
        }
        if total > 0 {
            let root = rec.span_in("total", 0, total, 0);
            let mut cursor = 0u64;
            for (phase, ns) in self.totals {
                rec.span_in(phase, cursor, cursor + ns, root);
                cursor += ns;
            }
            rec.add("sim_ns", total);
        }
        for (phase, h) in self.hists {
            rec.hist_merge(phase, &h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_reports_disabled() {
        let mut rec = NullRecorder;
        assert!(!rec.enabled());
        rec.span("x", 0, 10);
        assert_eq!(rec.span_in("x", 0, 10, 0), 0);
        rec.add("k", 1);
        rec.hist("k", 10);
    }

    #[test]
    fn memory_recorder_collects_in_order() {
        let mut rec = MemoryRecorder::new();
        assert!(rec.enabled());
        rec.span("b", 5, 9);
        rec.span("a", 0, 5);
        rec.add("zz", 2);
        rec.add("aa", 1);
        rec.add("zz", 3);
        let data = rec.into_data();
        assert_eq!(
            data.spans,
            vec![
                SpanRecord {
                    phase: "b",
                    start_ns: 5,
                    end_ns: 9,
                    id: 1,
                    parent: 0
                },
                SpanRecord {
                    phase: "a",
                    start_ns: 0,
                    end_ns: 5,
                    id: 2,
                    parent: 0
                },
            ]
        );
        // Counters come back sorted by key with totals merged.
        assert_eq!(data.counters, vec![("aa", 1), ("zz", 5)]);
        assert_eq!(data.counter("zz"), Some(5));
        assert_eq!(data.counter("nope"), None);
        assert_eq!(data.span_ns(), 9);
        // Both spans are roots, so the leaf total equals the total.
        assert_eq!(data.leaf_span_ns(), 9);
    }

    #[test]
    fn span_ids_are_stable_and_parent_linked() {
        let mut rec = MemoryRecorder::new();
        let root = rec.span_in("req", 0, 100, 0);
        assert_eq!(root, 1);
        let child = rec.span_in("dns", 0, 30, root);
        assert_eq!(child, 2);
        let grandchild = rec.span_in("lookup", 0, 10, child);
        assert_eq!(grandchild, 3);
        let data = rec.into_data();
        assert!(data.spans[0].is_root());
        assert_eq!(data.spans[1].parent, 1);
        assert_eq!(data.spans[2].parent, 2);
        // Leaves: only "lookup" (10 ns) — "req" and "dns" are parents.
        assert_eq!(data.leaf_span_ns(), 10);
        assert_eq!(data.span_ns(), 140);
    }

    #[test]
    fn memory_recorder_builds_hists() {
        let mut rec = MemoryRecorder::new();
        rec.hist("handshake", 100);
        rec.hist("handshake", 300);
        let mut extra = Hist::new();
        extra.record(200);
        rec.hist_merge("handshake", &extra);
        let data = rec.into_data();
        let h = data.hist("handshake").expect("hist recorded");
        assert_eq!(h.count(), 3);
        assert_eq!(h.min_ns(), 100);
        assert_eq!(h.max_ns(), 300);
        assert!(data.hist("nope").is_none());
    }

    #[test]
    fn inverted_span_is_clamped() {
        let mut rec = MemoryRecorder::new();
        rec.span("p", 10, 4);
        let data = rec.into_data();
        assert_eq!(data.spans[0].end_ns, 10);
        assert_eq!(data.spans[0].duration_ns(), 0);
    }

    #[test]
    fn phase_accum_lays_out_a_span_tree() {
        let mut acc = PhaseAccum::new();
        acc.add_ns("handshake", 100);
        acc.add_ns("transfer", 400);
        acc.add_ns("handshake", 50);
        acc.hist_ns("ttfb", 120);
        let mut rec = MemoryRecorder::new();
        acc.emit(&mut rec);
        let data = rec.into_data();
        assert_eq!(
            data.spans,
            vec![
                SpanRecord {
                    phase: "total",
                    start_ns: 0,
                    end_ns: 550,
                    id: 1,
                    parent: 0
                },
                SpanRecord {
                    phase: "handshake",
                    start_ns: 0,
                    end_ns: 150,
                    id: 2,
                    parent: 1
                },
                SpanRecord {
                    phase: "transfer",
                    start_ns: 150,
                    end_ns: 550,
                    id: 3,
                    parent: 1
                },
            ]
        );
        assert_eq!(data.counter("sim_ns"), Some(550));
        // Children cover the root exactly once.
        assert_eq!(data.leaf_span_ns(), 550);
        // Each add_ns call is one histogram sample; hist_ns phases get
        // a histogram but no span.
        assert_eq!(data.hist("handshake").unwrap().count(), 2);
        assert_eq!(data.hist("handshake").unwrap().max_ns(), 100);
        assert_eq!(data.hist("transfer").unwrap().count(), 1);
        assert_eq!(data.hist("ttfb").unwrap().count(), 1);
        assert!(!data.spans.iter().any(|s| s.phase == "ttfb"));
    }

    #[test]
    fn empty_phase_accum_emits_nothing() {
        let mut rec = MemoryRecorder::new();
        PhaseAccum::new().emit(&mut rec);
        let data = rec.into_data();
        assert!(data.spans.is_empty());
        assert!(data.counters.is_empty());
        assert!(data.hists.is_empty());
    }

    #[test]
    fn zero_time_accum_with_hists_still_emits_hists() {
        let mut acc = PhaseAccum::new();
        acc.hist_ns("ttfb", 0);
        let mut rec = MemoryRecorder::new();
        acc.emit(&mut rec);
        let data = rec.into_data();
        assert!(data.spans.is_empty());
        assert_eq!(data.hist("ttfb").unwrap().count(), 1);
    }
}
