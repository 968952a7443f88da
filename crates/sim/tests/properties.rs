//! Property tests for the simulation substrate: allocator fairness
//! invariants, fluid-schedule conservation, transfer-model monotonicity,
//! and RNG/time arithmetic laws.

use proptest::prelude::*;

use ptperf_sim::flow::{fluid_schedule, maxmin_rates, reference, FairNetwork, FlowDemand};
use ptperf_sim::{FlowBatch, FluidScheduler, SimDuration, SimRng, SimTime, TransferModel};

type FlowSpecs = Vec<(Vec<usize>, Option<f64>)>;

fn arb_network_and_flows() -> impl Strategy<Value = (Vec<f64>, FlowSpecs)> {
    (1usize..6).prop_flat_map(|n_nodes| {
        let caps = proptest::collection::vec(1.0f64..1000.0, n_nodes);
        let flows = proptest::collection::vec(
            (
                proptest::collection::btree_set(0..n_nodes, 1..=n_nodes.min(3)),
                proptest::option::of(0.5f64..500.0),
            ),
            1..12,
        )
        .prop_map(|v| {
            v.into_iter()
                .map(|(nodes, cap)| (nodes.into_iter().collect::<Vec<_>>(), cap))
                .collect::<Vec<_>>()
        });
        (caps, flows)
    })
}

/// Like [`arb_network_and_flows`] but adversarial: paths may repeat
/// nodes (dedupe-on-entry must make that harmless) and may be empty, in
/// which case a cap is forced so the demand stays bounded.
fn arb_raw_network_and_flows() -> impl Strategy<Value = (Vec<f64>, FlowSpecs)> {
    (1usize..6).prop_flat_map(|n_nodes| {
        let caps = proptest::collection::vec(1.0f64..1000.0, n_nodes);
        let flows = proptest::collection::vec(
            (
                proptest::collection::vec(0..n_nodes, 0..6),
                proptest::option::of(0.5f64..500.0),
            ),
            1..12,
        )
        .prop_map(|v| {
            v.into_iter()
                .map(|(nodes, cap)| {
                    let cap = if nodes.is_empty() { cap.or(Some(1.0)) } else { cap };
                    (nodes, cap)
                })
                .collect::<Vec<_>>()
        });
        (caps, flows)
    })
}

type FluidSpecs = Vec<(Vec<usize>, Option<f64>, bool, f64, u64, u64)>;

/// Random fluid workloads with zero-byte flows, duplicated path nodes,
/// cap-only flows, and start times quantized to 10 ms slots so
/// simultaneous arrivals are common.
fn arb_fluid_workload() -> impl Strategy<Value = (Vec<f64>, FluidSpecs)> {
    (1usize..5).prop_flat_map(|n_nodes| {
        let caps = proptest::collection::vec(10.0f64..1000.0, n_nodes);
        let flows = proptest::collection::vec(
            (
                proptest::collection::vec(0..n_nodes, 0..5),
                proptest::option::of(0.5f64..500.0),
                any::<bool>(),
                1.0f64..100_000.0,
                0u64..20,
                0u64..50,
            ),
            1..10,
        );
        (caps, flows)
    })
}

/// Churn sequences: more nodes, more flows, finer arrival slots and
/// smaller transfers than [`arb_fluid_workload`], so completions
/// interleave with arrivals and the active set mutates one flow at a
/// time: the global fill re-runs while flows arrive and depart. The
/// degenerate cases stay in the mix: zero-byte flows, cap-only
/// (empty-path) flows, duplicated path nodes, and colliding slots for
/// simultaneous arrivals.
fn arb_churn_workload() -> impl Strategy<Value = (Vec<f64>, FluidSpecs)> {
    (2usize..8).prop_flat_map(|n_nodes| {
        let caps = proptest::collection::vec(100.0f64..1000.0, n_nodes);
        let flows = proptest::collection::vec(
            (
                proptest::collection::vec(0..n_nodes, 0..4),
                proptest::option::of(0.5f64..500.0),
                any::<bool>(),
                1.0f64..2_000.0,
                0u64..150,
                0u64..10,
            ),
            1..40,
        );
        (caps, flows)
    })
}

fn build_fluid_batch(specs: &FluidSpecs) -> FlowBatch {
    let mut batch = FlowBatch::new();
    for (nodes, cap, zero, bytes, slot, extra_ms) in specs {
        batch.push(
            SimTime::ZERO + SimDuration::from_millis(slot * 10),
            if *zero { 0.0 } else { *bytes },
            nodes,
            if nodes.is_empty() { cap.or(Some(1.0)) } else { *cap },
            SimDuration::from_millis(*extra_ms),
        );
    }
    batch
}

/// The same workload with every path forced into the spilled
/// representation (the inline/spill equivalence oracle's subject).
fn build_fluid_batch_spilled(specs: &FluidSpecs) -> FlowBatch {
    let mut batch = FlowBatch::new();
    for (nodes, cap, zero, bytes, slot, extra_ms) in specs {
        batch.push_spilled(
            SimTime::ZERO + SimDuration::from_millis(slot * 10),
            if *zero { 0.0 } else { *bytes },
            nodes,
            if nodes.is_empty() { cap.or(Some(1.0)) } else { *cap },
            SimDuration::from_millis(*extra_ms),
        );
    }
    batch
}

proptest! {
    /// Max–min invariant 1: no node's capacity is ever exceeded.
    #[test]
    fn maxmin_respects_capacities((caps, flow_specs) in arb_network_and_flows()) {
        let mut net = FairNetwork::new();
        for &c in &caps {
            net.add_node(c);
        }
        let flows: Vec<FlowDemand> = flow_specs
            .iter()
            .map(|(nodes, cap)| FlowDemand { nodes: nodes.clone(), cap: *cap })
            .collect();
        let rates = maxmin_rates(&net, &flows);
        for (n, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.nodes.contains(&n))
                .map(|(_, r)| r)
                .sum();
            prop_assert!(used <= cap * (1.0 + 1e-6), "node {n}: used {used} > cap {cap}");
        }
    }

    /// Max–min invariant 2: every flow is limited by something — its own
    /// cap, or a saturated node (Pareto efficiency).
    #[test]
    fn maxmin_is_pareto_efficient((caps, flow_specs) in arb_network_and_flows()) {
        let mut net = FairNetwork::new();
        for &c in &caps {
            net.add_node(c);
        }
        let flows: Vec<FlowDemand> = flow_specs
            .iter()
            .map(|(nodes, cap)| FlowDemand { nodes: nodes.clone(), cap: *cap })
            .collect();
        let rates = maxmin_rates(&net, &flows);
        let used: Vec<f64> = (0..caps.len())
            .map(|n| {
                flows
                    .iter()
                    .zip(&rates)
                    .filter(|(f, _)| f.nodes.contains(&n))
                    .map(|(_, r)| r)
                    .sum()
            })
            .collect();
        for (i, f) in flows.iter().enumerate() {
            let capped = f.cap.is_some_and(|c| rates[i] >= c - 1e-6);
            let bottlenecked = f
                .nodes
                .iter()
                .any(|&n| used[n] >= caps[n] * (1.0 - 1e-6));
            prop_assert!(
                capped || bottlenecked,
                "flow {i} rate {} limited by nothing",
                rates[i]
            );
        }
    }

    /// Max–min invariant 3: rates never exceed the flow's own cap.
    #[test]
    fn maxmin_respects_flow_caps((caps, flow_specs) in arb_network_and_flows()) {
        let mut net = FairNetwork::new();
        for &c in &caps {
            net.add_node(c);
        }
        let flows: Vec<FlowDemand> = flow_specs
            .iter()
            .map(|(nodes, cap)| FlowDemand { nodes: nodes.clone(), cap: *cap })
            .collect();
        let rates = maxmin_rates(&net, &flows);
        for (f, r) in flows.iter().zip(&rates) {
            if let Some(c) = f.cap {
                prop_assert!(*r <= c * (1.0 + 1e-9));
            }
        }
    }

    /// The optimized allocator is bit-for-bit the reference oracle,
    /// even on adversarial paths (duplicated nodes, cap-only flows).
    #[test]
    fn maxmin_matches_reference_bitwise((caps, flow_specs) in arb_raw_network_and_flows()) {
        let mut net = FairNetwork::new();
        for &c in &caps {
            net.add_node(c);
        }
        let flows: Vec<FlowDemand> = flow_specs
            .iter()
            .map(|(nodes, cap)| FlowDemand { nodes: nodes.clone(), cap: *cap })
            .collect();
        let got = maxmin_rates(&net, &flows);
        let want = reference::maxmin_rates(&net, &flows);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "flow {}: optimized {:e} != reference {:e}",
                i,
                g,
                w
            );
        }
    }

    /// The optimized fluid scheduler completes every flow at exactly
    /// the nanosecond the reference scheduler does — zero-byte flows,
    /// simultaneous arrivals and all — and both satisfy the max–min
    /// capacity invariant implicitly (rates come from the allocator
    /// already proven equivalent above).
    #[test]
    fn fluid_matches_reference_bitwise((caps, specs) in arb_fluid_workload()) {
        let mut net = FairNetwork::new();
        for &c in &caps {
            net.add_node(c);
        }
        let batch = build_fluid_batch(&specs);
        let got = fluid_schedule(&net, &batch);
        let want = reference::fluid_schedule(&net, &batch);
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                g.finish.as_nanos(),
                w.finish.as_nanos(),
                "flow {} diverged",
                i
            );
        }
        // Sanity: no flow finishes before it starts + its extra latency.
        for (f, d) in batch.flows().iter().zip(&got) {
            prop_assert!(d.finish >= f.start + f.extra_latency);
        }
    }

    /// Random arrival/departure churn: the global fill, re-run as flows
    /// arrive and depart, is the reference solve exactly — same rates
    /// at completion, same finish nanoseconds, same completion order
    /// (full-struct equality covers all three). Runs both the
    /// thread-local entry point and a persistent scheduler cold and
    /// warm, so scratch state from the first run cannot leak into the
    /// second.
    #[test]
    fn churn_sequences_match_reference_bitwise((caps, specs) in arb_churn_workload()) {
        let mut net = FairNetwork::new();
        for &c in &caps {
            net.add_node(c);
        }
        let batch = build_fluid_batch(&specs);
        let want = reference::fluid_schedule(&net, &batch);
        prop_assert_eq!(fluid_schedule(&net, &batch), want.clone());
        let mut sched = FluidScheduler::new();
        prop_assert_eq!(sched.run(&net, &batch), want.clone(), "cold persistent run diverged");
        prop_assert_eq!(sched.run(&net, &batch), want, "warm persistent run diverged");
    }

    /// A path stored inline and the same path forced into the arena
    /// must schedule identically — the representation is invisible to
    /// the scheduler (1-, 2- and >2-node paths all appear here: the
    /// generator draws path lengths 0..5, and empty paths get a cap).
    #[test]
    fn inline_and_spilled_paths_schedule_identically((caps, specs) in arb_fluid_workload()) {
        let mut net = FairNetwork::new();
        for &c in &caps {
            net.add_node(c);
        }
        let inline = build_fluid_batch(&specs);
        let spilled = build_fluid_batch_spilled(&specs);
        for i in 0..inline.len() {
            prop_assert_eq!(inline.path(i), spilled.path(i), "path {} differs", i);
        }
        let got = fluid_schedule(&net, &inline);
        let want = fluid_schedule(&net, &spilled);
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                g.finish.as_nanos(),
                w.finish.as_nanos(),
                "flow {}: inline and spilled representations diverged",
                i
            );
        }
    }

    /// Fluid schedule: every flow finishes no earlier than its fluid
    /// lower bound (bytes over the full capacity of its tightest node)
    /// and no later than serving the whole system sequentially.
    #[test]
    fn fluid_schedule_bounds(
        caps in proptest::collection::vec(10.0f64..100.0, 1..3),
        sizes in proptest::collection::vec(1.0f64..5_000.0, 1..6),
    ) {
        let mut net = FairNetwork::new();
        let node_ids: Vec<usize> = caps.iter().map(|&c| net.add_node(c)).collect();
        let mut batch = FlowBatch::new();
        for &bytes in &sizes {
            batch.push(SimTime::ZERO, bytes, &node_ids, None, SimDuration::ZERO);
        }
        let done = fluid_schedule(&net, &batch);
        let tightest = caps.iter().cloned().fold(f64::INFINITY, f64::min);
        let total_bytes: f64 = sizes.iter().sum();
        for (f, d) in batch.flows().iter().zip(&done) {
            let lower = f.bytes / tightest;
            let upper = total_bytes / tightest + 1e-6;
            let t = d.finish.as_secs_f64();
            prop_assert!(t >= lower - 1e-6, "finish {t} < lower bound {lower}");
            prop_assert!(t <= upper, "finish {t} > upper bound {upper}");
        }
    }

    /// Transfer duration is monotone in bytes.
    #[test]
    fn transfer_monotone_in_bytes(
        rtt_ms in 1u64..500,
        rate in 1_000.0f64..10_000_000.0,
        loss in 0.0f64..0.1,
        a in 1u64..10_000_000,
        b in 1u64..10_000_000,
    ) {
        let m = TransferModel::new(SimDuration::from_millis(rtt_ms), rate, loss);
        let (small, large) = (a.min(b), a.max(b));
        prop_assert!(m.duration(small) <= m.duration(large));
    }

    /// Hop-by-hop recovery never makes a transfer slower than the
    /// end-to-end model on the same parameters.
    #[test]
    fn relayed_model_at_least_as_fast(
        rtt_ms in 1u64..500,
        rate in 1_000.0f64..10_000_000.0,
        loss in 0.0f64..0.1,
        bytes in 1u64..50_000_000,
    ) {
        let e2e = TransferModel::new(SimDuration::from_millis(rtt_ms), rate, loss);
        let relayed = TransferModel::relayed(SimDuration::from_millis(rtt_ms), rate, loss);
        prop_assert!(relayed.duration(bytes) <= e2e.duration(bytes));
    }

    /// RNG range helpers stay in range for arbitrary seeds and bounds.
    #[test]
    fn rng_ranges_hold(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let v = rng.range_u64(lo, lo + span);
            prop_assert!((lo..=lo + span).contains(&v));
            let f = rng.range_f64(-3.0, 7.5);
            prop_assert!((-3.0..7.5).contains(&f));
        }
    }

    /// Forked RNGs never mirror the parent stream.
    #[test]
    fn rng_fork_diverges(seed in any::<u64>()) {
        let mut parent = SimRng::new(seed);
        let mut child = parent.fork();
        let matches = (0..32).filter(|_| parent.next_u64() == child.next_u64()).count();
        prop_assert!(matches <= 1);
    }

    /// Duration arithmetic: associative addition, saturating subtraction.
    #[test]
    fn duration_arithmetic(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4, c in 0u64..u64::MAX / 4) {
        let (da, db, dc) = (
            SimDuration::from_nanos(a),
            SimDuration::from_nanos(b),
            SimDuration::from_nanos(c),
        );
        prop_assert_eq!((da + db) + dc, da + (db + dc));
        prop_assert_eq!(da.saturating_sub(db) + db.min(da), da);
    }

    /// Instants ordered by construction order through arbitrary delays.
    #[test]
    fn time_advances(delays in proptest::collection::vec(0u64..1_000_000, 1..20)) {
        let mut t = SimTime::ZERO;
        for &d in &delays {
            let next = t + SimDuration::from_nanos(d);
            prop_assert!(next >= t);
            t = next;
        }
        prop_assert_eq!(
            t.duration_since(SimTime::ZERO).as_nanos(),
            delays.iter().sum::<u64>()
        );
    }
}
