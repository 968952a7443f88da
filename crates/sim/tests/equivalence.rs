//! Bit-for-bit equivalence between the optimized allocator/scheduler
//! (`flow::sched`, reached through the public entry points) and the
//! retained reference oracle (`flow::reference`).
//!
//! The optimization contract is *exact*: same f64 bits for every rate,
//! same nanosecond for every completion, on every workload — including
//! adversarial ones with duplicated path nodes, cap-only flows,
//! zero-byte flows and simultaneous arrivals. These tests sweep well
//! over a thousand generated workloads (see the seed counts below) so
//! any divergence in operation order shows up as a hard failure, not a
//! tolerance miss.

use ptperf_sim::flow::{maxmin_demo, reference};
use ptperf_sim::flow::{fluid_schedule, maxmin_rates, FluidScheduler};
use ptperf_sim::SimRng;

/// Asserts two rate vectors are identical at the bit level.
fn assert_rates_bit_equal(seed: u64, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "seed {seed}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "seed {seed}, flow {i}: optimized {g:e} != reference {w:e}"
        );
    }
}

#[test]
fn maxmin_matches_reference_on_clean_instances() {
    for seed in 0..400u64 {
        let mut rng = SimRng::new(seed);
        let n_nodes = 1 + (seed % 11) as usize;
        let n_flows = 1 + (seed % 23) as usize;
        let inst = maxmin_demo::random_instance(&mut rng, n_nodes, n_flows);
        let got = maxmin_rates(&inst.net, &inst.flows);
        let want = reference::maxmin_rates(&inst.net, &inst.flows);
        assert_rates_bit_equal(seed, &got, &want);
    }
}

#[test]
fn maxmin_matches_reference_on_raw_instances() {
    // Adversarial generator: duplicated path nodes and cap-only flows.
    for seed in 0..400u64 {
        let mut rng = SimRng::new(1_000 + seed);
        let n_nodes = 1 + (seed % 9) as usize;
        let n_flows = 1 + (seed % 31) as usize;
        let inst = maxmin_demo::random_instance_raw(&mut rng, n_nodes, n_flows);
        let got = maxmin_rates(&inst.net, &inst.flows);
        let want = reference::maxmin_rates(&inst.net, &inst.flows);
        assert_rates_bit_equal(seed, &got, &want);
    }
}

#[test]
fn fluid_matches_reference_on_random_workloads() {
    // Zero-byte flows, cap-only flows, duplicate nodes, simultaneous
    // arrivals — completion times must agree to the nanosecond.
    for seed in 0..300u64 {
        let mut rng = SimRng::new(7_000 + seed);
        let n_nodes = 1 + (seed % 7) as usize;
        let n_flows = 1 + (seed % 29) as usize;
        let inst = maxmin_demo::random_fluid_instance(&mut rng, n_nodes, n_flows);
        let got = fluid_schedule(&inst.net, &inst.batch);
        let want = reference::fluid_schedule(&inst.net, &inst.batch);
        assert_eq!(got.len(), want.len(), "seed {seed}");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.finish.as_nanos(),
                w.finish.as_nanos(),
                "seed {seed}, flow {i}: optimized finishes at {:?}, reference at {:?}",
                g.finish,
                w.finish
            );
        }
    }
}

#[test]
fn fluid_matches_reference_on_churn_sequences() {
    // Interleaved arrival/departure churn: staggered per-flow slots
    // mutate the active set one event at a time, so the global fill
    // re-runs on a different flow set while flows arrive and depart.
    // Full-struct equality covers rates-at-completion, finish
    // nanoseconds, and completion order in one comparison.
    for seed in 0..250u64 {
        let mut rng = SimRng::new(120_000 + seed);
        let n_nodes = 2 + (seed % 13) as usize;
        let n_flows = 1 + (seed % 47) as usize;
        let inst = maxmin_demo::churn_fluid_instance(&mut rng, n_nodes, n_flows);
        let got = fluid_schedule(&inst.net, &inst.batch);
        let want = reference::fluid_schedule(&inst.net, &inst.batch);
        assert_eq!(got, want, "seed {seed} ({n_nodes} nodes, {n_flows} flows)");
    }
}

#[test]
fn fluid_matches_reference_on_browser_workloads() {
    // The single-bottleneck shape the analytic fast path targets: the
    // fast path must be invisible in the results.
    for seed in 0..100u64 {
        let mut rng = SimRng::new(40_000 + seed);
        let n_flows = 1 + (seed % 96) as usize;
        let inst = maxmin_demo::browser_style_instance(&mut rng, n_flows, 2.0e6);
        let got = fluid_schedule(&inst.net, &inst.batch);
        let want = reference::fluid_schedule(&inst.net, &inst.batch);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.finish.as_nanos(), w.finish.as_nanos(), "seed {seed}, flow {i}");
        }
    }
}

#[test]
fn warm_scheduler_state_never_leaks_between_workloads() {
    // One persistent scheduler driven across many differently-shaped
    // workloads: each run must match a fresh reference run bit for bit,
    // proving the reused scratch buffers are fully re-initialized.
    let mut sched = FluidScheduler::new();
    for seed in 0..150u64 {
        let mut rng = SimRng::new(90_000 + seed);
        let inst = match seed % 3 {
            0 => maxmin_demo::browser_style_instance(&mut rng, 1 + (seed % 64) as usize, 1.5e6),
            1 => maxmin_demo::random_fluid_instance(
                &mut rng,
                1 + (seed % 8) as usize,
                1 + (seed % 21) as usize,
            ),
            _ => maxmin_demo::churn_fluid_instance(
                &mut rng,
                2 + (seed % 9) as usize,
                1 + (seed % 33) as usize,
            ),
        };
        let got = sched.run(&inst.net, &inst.batch);
        let want = reference::fluid_schedule(&inst.net, &inst.batch);
        assert_eq!(got.len(), want.len(), "seed {seed}");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.finish.as_nanos(),
                w.finish.as_nanos(),
                "seed {seed}, flow {i}: warm scheduler diverged from fresh reference"
            );
        }
    }
    // The warm scheduler should have stopped growing its scratch long
    // before the sweep ended.
    assert!(sched.scratch_grows() > 0, "sweep never exercised growth");
}

#[test]
fn counters_agree_between_optimized_and_reference() {
    // The shared counter families (recomputations, rounds, limited-flow
    // and saturated-node tallies) must be identical; only
    // `maxmin/fast_path` is allowed to exist solely on the optimized
    // side.
    for seed in 0..50u64 {
        let mut rng = SimRng::new(60_000 + seed);
        let inst = maxmin_demo::random_instance_raw(&mut rng, 1 + (seed % 6) as usize, 12);
        let mut opt_rec = ptperf_obs::MemoryRecorder::new();
        let mut ref_rec = ptperf_obs::MemoryRecorder::new();
        let got = ptperf_sim::maxmin_rates_recorded(&inst.net, &inst.flows, &mut opt_rec);
        let want = reference::maxmin_rates_recorded(&inst.net, &inst.flows, &mut ref_rec);
        assert_rates_bit_equal(seed, &got, &want);
        let opt = opt_rec.into_data();
        let reference_data = ref_rec.into_data();
        for key in [
            "maxmin/recomputations",
            "maxmin/rounds",
            "maxmin/flows_node_limited",
            "maxmin/flows_cap_limited",
            "maxmin/nodes_saturated",
        ] {
            assert_eq!(
                opt.counter(key),
                reference_data.counter(key),
                "seed {seed}: counter {key} diverged"
            );
        }
    }
}
