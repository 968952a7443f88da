//! Property tests for the simulation substrate: the max–min fairness
//! invariants of the test oracle, single-link sharing bounds,
//! transfer-model monotonicity, RNG/time arithmetic laws, and the
//! bounded-Pareto sampler against the per-draw formula it replaced.

mod oracle;

use proptest::prelude::*;

use oracle::{maxmin_rates, FairNetwork, FlowDemand};
use ptperf_sim::{
    share_link, BoundedPareto, LinkFlow, SimDuration, SimRng, SimTime, TransferModel,
};

type FlowSpecs = Vec<(Vec<usize>, Option<f64>)>;

/// The bounded-Pareto draw as it was before [`BoundedPareto`]: both
/// powers and the exponent taken on every draw. Kept as the oracle.
fn pareto_bounded_oracle(rng: &mut SimRng, lo: f64, hi: f64, alpha: f64) -> f64 {
    if lo == hi {
        return lo;
    }
    let u = rng.next_f64();
    let la = lo.powf(alpha);
    let ha = hi.powf(alpha);
    let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
    x.clamp(lo, hi)
}

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

proptest! {
    /// Max–min invariant 1: no node's capacity is ever exceeded.
    #[test]
    fn maxmin_respects_capacities((caps, flow_specs) in arb_network_and_flows()) {
        let net = FairNetwork::new(&caps);
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
        let net = FairNetwork::new(&caps);
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
        let net = FairNetwork::new(&caps);
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

    /// Single-link sharing: every flow finishes no earlier than alone on
    /// the link and no later than serving the whole batch sequentially.
    #[test]
    fn fluid_schedule_bounds(
        capacity in 10.0f64..100.0,
        sizes in proptest::collection::vec(1.0f64..5_000.0, 1..6),
    ) {
        let flows: Vec<LinkFlow> = sizes
            .iter()
            .map(|&bytes| LinkFlow { start: SimTime::ZERO, bytes, extra_latency: SimDuration::ZERO })
            .collect();
        let mut done = Vec::new();
        share_link(capacity, &flows, &mut Vec::new(), &mut done);
        let total_bytes: f64 = sizes.iter().sum();
        for (f, d) in flows.iter().zip(&done) {
            let lower = f.bytes / capacity;
            let upper = total_bytes / capacity + 1e-6;
            let t = d.as_secs_f64();
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

    /// A built sampler draws the oracle's variates bit for bit and
    /// leaves the RNG where the oracle leaves it; a point distribution
    /// (`lo == hi`) draws nothing.
    #[test]
    fn bounded_pareto_matches_the_per_draw_formula(
        seed in any::<u64>(),
        lo in 1e-3f64..1e7,
        spread in 0.0f64..1e3,
        point in any::<bool>(),
        alpha in 0.05f64..5.0,
    ) {
        let hi = if point { lo } else { lo * (1.0 + spread) };
        let pareto = BoundedPareto::new(lo, hi, alpha);
        let (mut fast, mut oracle) = (SimRng::new(seed), SimRng::new(seed));
        for _ in 0..16 {
            let (x, y) = (pareto.sample(&mut fast), pareto_bounded_oracle(&mut oracle, lo, hi, alpha));
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
            prop_assert_eq!(&fast, &oracle);
        }
        if point {
            prop_assert_eq!(fast, SimRng::new(seed));
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
