//! The fault layer must be invisible when off and deterministic when
//! on, proven end to end — the mirror of `obs_neutrality.rs` for the
//! fault-injection subsystem.
//!
//! * **Off-neutrality:** with [`FaultConfig::Off`] (the default) every
//!   faulted entry point delegates straight to its plain counterpart
//!   with zero extra RNG draws, so every family's render is identical
//!   across runs and worker counts, and traces carry no `fault/*`
//!   counters. (The per-workload bit-for-bit proofs live next to each
//!   entry point in `ptperf-web`; this suite pins the property through
//!   the full experiment stack, family by family.)
//! * **On-determinism:** with a fault plan, identical seeds replay
//!   identical fault schedules, retries and counters — the same render
//!   and byte-identical trace at any worker count — because fault
//!   randomness comes from its own per-unit RNG stream, never the
//!   measurement stream.

use ptperf::executor::{Parallelism, Record};
use ptperf::scenario::{FaultConfig, FaultProfile, Scenario};
use ptperf_bench::obs_export::trace_jsonl;
use ptperf_bench::{run_target_obs, RunScale, TargetRun};

/// One representative target per measurement family — all thirteen.
const ALL_FAMILIES: [&str; 13] = [
    "fig2a", "fig2b", "fig3a", "fig4", "fig5", "fig6", "fig7", "fig8a", "medium", "fig9",
    "fig10a", "fig11", "streaming",
];

/// The families whose units drive the fault lane (file downloads and
/// the snowflake curl series); the rest stay fault-free even with a
/// plan, by design, and are covered by the Off assertions.
const FAULT_DRIVEN: [&str; 3] = ["fig8a", "fig5", "fig10a"];

const SEED: u64 = 11;

fn off_scenario() -> Scenario {
    Scenario::baseline(SEED)
}

fn on_scenario() -> Scenario {
    Scenario::baseline(SEED).with_faults(FaultConfig::Plan(FaultProfile::paper()))
}

fn run(scenario: &Scenario, name: &str, par: &Parallelism) -> TargetRun {
    run_target_obs(name, scenario, RunScale::Quick, par).expect("no shard fails")
}

/// Sums every `"key":"fault/<name>"` counter value in a JSONL trace.
fn fault_counter(trace: &str, name: &str) -> u64 {
    let needle = format!("\"key\":\"fault/{name}\",\"value\":");
    trace
        .lines()
        .filter_map(|line| {
            let at = line.find(&needle)?;
            let rest = &line[at + needle.len()..];
            let end = rest.find(['}', ','])?;
            rest[..end].parse::<u64>().ok()
        })
        .sum()
}

#[test]
fn off_lane_is_identical_across_workers_for_every_family() {
    let scenario = off_scenario();
    assert_eq!(scenario.faults, FaultConfig::Off, "Off must be the default");
    for name in ALL_FAMILIES {
        let reference = run(&scenario, name, &Parallelism::sequential());
        for workers in [1, 4] {
            let par = Parallelism::new(workers);
            let again = run(&scenario, name, &par);
            assert_eq!(
                reference.text, again.text,
                "{name} workers {workers}: Off render not reproducible"
            );
        }
    }
}

#[test]
fn off_traces_contain_no_fault_counters() {
    let scenario = off_scenario();
    for name in FAULT_DRIVEN {
        let par = Parallelism::sequential().with_recording(Record::Trace);
        let trace = trace_jsonl(&[run(&scenario, name, &par)]);
        assert!(
            !trace.contains("\"key\":\"fault/"),
            "{name}: Off trace leaked fault counters"
        );
    }
}

#[test]
fn fault_plans_replay_identically_across_runs_and_workers() {
    let scenario = on_scenario();
    for name in FAULT_DRIVEN {
        let reference = trace_jsonl(&[run(
            &scenario,
            name,
            &Parallelism::sequential().with_recording(Record::Trace),
        )]);
        for workers in [1, 4] {
            for attempt in 0..2 {
                let par = Parallelism::new(workers).with_recording(Record::Trace);
                let result = run(&scenario, name, &par);
                let trace = trace_jsonl(&[result]);
                assert_eq!(
                    reference, trace,
                    "{name} workers {workers} attempt {attempt}: faulted trace not deterministic"
                );
            }
        }
    }
}

#[test]
fn fault_counters_are_present_and_consistent_under_a_plan() {
    let scenario = on_scenario();
    for name in FAULT_DRIVEN {
        let par = Parallelism::sequential().with_recording(Record::Trace);
        let trace = trace_jsonl(&[run(&scenario, name, &par)]);
        let injected = fault_counter(&trace, "injected");
        let retried = fault_counter(&trace, "retried");
        let recovered = fault_counter(&trace, "recovered");
        let gave_up = fault_counter(&trace, "gave_up");
        assert!(injected > 0, "{name}: plan injected nothing\n{trace}");
        assert_eq!(
            injected,
            retried + recovered + gave_up,
            "{name}: every injected event needs exactly one disposition \
             (injected {injected}, retried {retried}, recovered {recovered}, gave_up {gave_up})"
        );
    }
}

#[test]
fn fault_plan_changes_fault_driven_renders_but_not_the_off_lane() {
    let off = run(&off_scenario(), "fig8a", &Parallelism::sequential());
    let on = run(&on_scenario(), "fig8a", &Parallelism::sequential());
    assert_ne!(
        off.text, on.text,
        "a fault plan must actually perturb the reliability figure"
    );
    // And turning the plan back off restores the exact original render.
    let off_again = run(&off_scenario(), "fig8a", &Parallelism::sequential());
    assert_eq!(off.text, off_again.text);
}
