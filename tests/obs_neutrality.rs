//! Observability must be observation-only, proven end to end:
//! enabling [`Record::Trace`] cannot change a single result bit, and
//! the trace itself is a pure function of the scenario seed — byte
//! identical across repeated runs and across worker counts.
//!
//! This is the load-bearing guarantee of the instrumentation layer:
//! recorded variants are the *only* body (the plain entry points
//! delegate with a no-op recorder), so the RNG draw sequence is
//! structurally identical either way; these tests prove it holds
//! through every layer, target by target.

use ptperf::executor::{Parallelism, Record};
use ptperf::experiments::fixed_circuit;
use ptperf::scenario::Scenario;
use ptperf_bench::obs_export::{hist_json, trace_chrome, trace_jsonl};
use ptperf_bench::{run_target_obs, RunScale, TargetRun};
use ptperf_obs::MemoryRecorder;

const SEEDS: [u64; 2] = [11, 97];

/// Three targets spanning distinct instrumentation paths: per-fetch
/// phase splitting (fig6), download phases (fig5), and streaming QoE
/// phases (streaming).
const FAMILY_TARGETS: [&str; 3] = ["fig6", "fig5", "streaming"];

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: {x} vs {y} differ in bits"
        );
    }
}

fn run(name: &str, seed: u64, par: &Parallelism) -> TargetRun {
    run_target_obs(name, &Scenario::baseline(seed), RunScale::Quick, par).expect("no shard fails")
}

#[test]
fn recording_never_changes_a_target_render() {
    for seed in SEEDS {
        for name in FAMILY_TARGETS {
            let off = run(name, seed, &Parallelism::sequential());
            assert!(
                off.reports.iter().all(|r| r.obs.spans.is_empty()
                    && r.obs.counters.is_empty()
                    && r.obs.hists.is_empty()),
                "{name}: Record::Off must record nothing"
            );
            for workers in [1, 4] {
                let par = Parallelism::new(workers).with_recording(Record::Trace);
                let on = run(name, seed, &par);
                assert_eq!(
                    off.text, on.text,
                    "{name} seed {seed} workers {workers}: recording changed the render"
                );
                assert!(
                    on.reports.iter().any(|r| !r.obs.spans.is_empty()),
                    "{name}: Record::Trace recorded no spans"
                );
                let samples = |r: &TargetRun| -> Vec<usize> {
                    r.reports.iter().map(|s| s.samples).collect()
                };
                assert_eq!(samples(&off), samples(&on), "{name} seed {seed}");
            }
        }
    }
}

#[test]
fn traces_are_identical_across_worker_counts_and_runs() {
    for name in FAMILY_TARGETS {
        let reference = trace_jsonl(&[run(
            name,
            SEEDS[0],
            &Parallelism::sequential().with_recording(Record::Trace),
        )]);
        assert!(
            reference.contains("\"type\":\"span\"")
                && reference.contains("\"key\":\"events\"")
                && reference.contains("\"key\":\"sim_ns\""),
            "{name}: trace is missing record kinds:\n{reference}"
        );
        for workers in [1, 4] {
            for attempt in 0..2 {
                let par = Parallelism::new(workers).with_recording(Record::Trace);
                let trace = trace_jsonl(&[run(name, SEEDS[0], &par)]);
                assert_eq!(
                    reference, trace,
                    "{name} workers {workers} attempt {attempt}: trace not deterministic"
                );
            }
        }
    }
}

#[test]
fn raw_samples_are_bit_identical_with_recording_on() {
    for seed in SEEDS {
        let scenario = Scenario::baseline(seed);
        let cfg = fixed_circuit::Config::quick();
        let off = fixed_circuit::run(&scenario, &cfg);
        let mut rec = MemoryRecorder::new();
        let on = fixed_circuit::run_traced(&scenario, &cfg, &mut rec);
        for ((pt_a, a), (pt_b, b)) in off.times.iter().zip(&on.times) {
            assert_eq!(pt_a, pt_b);
            assert_bits_eq(a, b, &format!("seed {seed} {pt_a} times"));
        }
        assert_bits_eq(&off.abs_diffs, &on.abs_diffs, &format!("seed {seed} diffs"));
        let data = rec.into_data();
        assert_eq!(
            data.counter("events"),
            Some((cfg.iterations * 5 * 3) as u64),
            "one event per (iteration, site, config) fetch"
        );
        // The span tree's leaves (phase spans under the `total` root)
        // cover the accumulated sim time exactly once.
        assert_eq!(
            data.counter("sim_ns"),
            Some(data.leaf_span_ns()),
            "phase leaf spans must cover the accumulated sim time exactly"
        );
        let roots: Vec<_> = data.spans.iter().filter(|s| s.is_root()).collect();
        assert_eq!(roots.len(), 1, "one `total` root span per shard accum");
        assert_eq!(roots[0].phase, "total");
        // Every phase span got a latency histogram with one sample per
        // recorded event, total latency included.
        let events = data.counter("events").unwrap();
        for key in ["handshake", "request", "transfer", "ttfb", "total"] {
            let h = data.hist(key).unwrap_or_else(|| panic!("no {key} hist"));
            assert_eq!(h.count(), events, "{key} hist must have one sample per fetch");
            assert!(h.max_ns() >= h.min_ns());
        }
    }
}

#[test]
fn hist_and_chrome_reports_are_identical_across_worker_counts() {
    for name in FAMILY_TARGETS {
        let reference = run(
            name,
            SEEDS[0],
            &Parallelism::sequential().with_recording(Record::Trace),
        );
        let ref_hist = hist_json(std::slice::from_ref(&reference));
        let ref_chrome = trace_chrome(std::slice::from_ref(&reference));
        assert!(
            ref_hist.contains("\"phase\":"),
            "{name}: hist report carries no phase histograms:\n{ref_hist}"
        );
        assert!(ref_chrome.contains("\"ph\":\"X\""), "{name}: no span events");
        for workers in [1, 4] {
            let par = Parallelism::new(workers).with_recording(Record::Trace);
            let run = run(name, SEEDS[0], &par);
            assert_eq!(
                ref_hist,
                hist_json(std::slice::from_ref(&run)),
                "{name} workers {workers}: hist report not byte-identical"
            );
            assert_eq!(
                ref_chrome,
                trace_chrome(std::slice::from_ref(&run)),
                "{name} workers {workers}: chrome trace not byte-identical"
            );
        }
    }
}

#[test]
fn campaign_trace_is_invariant_under_parallelism() {
    // The campaign render embeds wall-clock columns, which legitimately
    // vary run to run — the deterministic artifact is the trace plus
    // the per-shard structure.
    let sequential = run(
        "campaign",
        SEEDS[0],
        &Parallelism::sequential().with_recording(Record::Trace),
    );
    let parallel = run(
        "campaign",
        SEEDS[0],
        &Parallelism::new(4).with_recording(Record::Trace),
    );
    assert_eq!(
        trace_jsonl(std::slice::from_ref(&sequential)),
        trace_jsonl(std::slice::from_ref(&parallel)),
        "campaign trace differs across worker counts"
    );
    let structure = |r: &TargetRun| -> Vec<(String, usize)> {
        r.reports
            .iter()
            .map(|s| (s.label.clone(), s.samples))
            .collect()
    };
    assert_eq!(structure(&sequential), structure(&parallel));
    assert!(sequential.reports.len() > 20, "campaign spans many shards");
}
