//! The single-link processor-sharing loop (`ptperf_sim::share_link`)
//! against the general max–min fluid solver kept in `oracle/`.
//!
//! The contract is exact: on every browser-shaped batch, every flow
//! finishes at the same nanosecond under both. The batches include the
//! degenerate shapes a page load can produce: no sub-resources, one
//! sub-resource, zero-byte and sub-microbyte resources, a whole page
//! starting at once, and more waves than the browser's stagger cap.
//! The second half checks the oracle itself on multi-node instances.

mod oracle;

use oracle::{fluid_schedule, maxmin_rates, FairNetwork, FlowDemand, FluidFlow};
use ptperf_sim::{share_link, LinkFlow, SimDuration, SimRng, SimTime};

/// The wave at which the browser stops staggering starts.
const WAVE_CAP: u64 = 20;

/// A random page-load batch: `capacity` shared by flows that start in
/// staggered waves of `parallelism`, as `ptperf-web::browser` submits
/// them.
struct Batch {
    capacity: f64,
    parallelism: usize,
    flows: Vec<LinkFlow>,
}

fn browser_batch(rng: &mut SimRng) -> Batch {
    let capacity = match rng.below(8) {
        0 => 1.0,
        1 => 1.0e8,
        _ => 10f64.powf(rng.range_f64(0.0, 8.0)),
    };
    let parallelism = 2 + rng.below(5) as usize;
    let n = match rng.below(10) {
        0 => 0,
        1 => 1,
        2 => 1 + rng.below(200) as usize,
        _ => 1 + rng.below(48) as usize,
    };
    // One request round trip of stagger per wave; zero makes every
    // start equal, nanoseconds put arrivals inside a drain step.
    let per_req = SimDuration::from_nanos(match rng.below(4) {
        0 => 0,
        1 => rng.below(1_000),
        _ => rng.below(300_000_000),
    });
    let flows = (0..n)
        .map(|i| {
            let bytes = match rng.below(10) {
                0 => 0.0,
                1 => rng.range_f64(0.0, 1e-6),
                2 => rng.range_f64(1.0, 1.0e6),
                _ => (1 + rng.below(400_000)) as f64,
            };
            let wave = (i / parallelism) as u64;
            LinkFlow {
                start: SimTime::ZERO + per_req * wave.min(WAVE_CAP),
                bytes,
                extra_latency: per_req,
            }
        })
        .collect();
    Batch {
        capacity,
        parallelism,
        flows,
    }
}

/// Finish times under the oracle: one node, every flow uncapped on it.
fn oracle_finish(capacity: f64, flows: &[LinkFlow]) -> Vec<SimTime> {
    let net = FairNetwork::new(&[capacity]);
    let flows: Vec<FluidFlow> = flows
        .iter()
        .map(|f| FluidFlow {
            start: f.start,
            bytes: f.bytes,
            nodes: vec![0],
            cap: None,
            extra_latency: f.extra_latency,
        })
        .collect();
    fluid_schedule(&net, &flows)
}

#[test]
fn share_link_matches_the_oracle_on_browser_batches() {
    // One warm pair of buffers across every batch, so state left from
    // one batch cannot leak into the next unnoticed.
    let (mut active, mut finish) = (Vec::new(), Vec::new());
    let mut covered = [0usize; 8];
    for seed in 0..3_000u64 {
        let mut rng = SimRng::new(170_000 + seed);
        let b = browser_batch(&mut rng);
        share_link(b.capacity, &b.flows, &mut active, &mut finish);
        let want = oracle_finish(b.capacity, &b.flows);
        assert_eq!(finish.len(), want.len(), "seed {seed}");
        for (i, (g, w)) in finish.iter().zip(&want).enumerate() {
            assert_eq!(
                g.as_nanos(),
                w.as_nanos(),
                "seed {seed}, flow {i} of {} at {} B/s: loop {g:?}, oracle {w:?}",
                b.flows.len(),
                b.capacity
            );
        }
        let waves = b.flows.len().div_ceil(b.parallelism);
        for (slot, hit) in [
            b.flows.is_empty(),
            b.flows.len() == 1,
            b.flows.iter().any(|f| f.bytes == 0.0),
            b.flows.iter().any(|f| f.bytes > 0.0 && f.bytes <= 1e-6),
            b.flows.len() > 1 && b.flows.iter().all(|f| f.start == b.flows[0].start),
            waves > WAVE_CAP as usize + 1,
            b.capacity < 10.0,
            b.capacity > 1e7,
        ]
        .into_iter()
        .enumerate()
        {
            covered[slot] += hit as usize;
        }
    }
    // Every degenerate shape the sweep is meant to reach, it reached.
    assert!(covered.iter().all(|&c| c >= 20), "coverage {covered:?}");
}

// -- the oracle's own checks --------------------------------------------

fn demand(nodes: &[usize], cap: Option<f64>) -> FlowDemand {
    FlowDemand {
        nodes: nodes.to_vec(),
        cap,
    }
}

fn assert_close(got: &[f64], want: &[f64], tol: f64) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert!((g - w).abs() < tol, "{got:?} vs {want:?}");
    }
}

fn assert_rates(got: &[f64], want: &[f64]) {
    assert_close(got, want, 1e-9);
}

#[test]
fn oracle_single_flow_gets_full_capacity() {
    let net = FairNetwork::new(&[100.0]);
    assert_eq!(maxmin_rates(&net, &[demand(&[0], None)]), vec![100.0]);
}

#[test]
fn oracle_equal_flows_split_evenly() {
    let net = FairNetwork::new(&[90.0]);
    let f = demand(&[0], None);
    assert_rates(&maxmin_rates(&net, &[f.clone(), f.clone(), f]), &[30.0; 3]);
}

#[test]
fn oracle_capped_flow_releases_capacity_to_others() {
    let net = FairNetwork::new(&[100.0]);
    let rates = maxmin_rates(&net, &[demand(&[0], Some(10.0)), demand(&[0], None)]);
    assert_rates(&rates, &[10.0, 90.0]);
}

#[test]
fn oracle_multi_node_flow_is_limited_by_its_tightest_node() {
    let net = FairNetwork::new(&[100.0, 30.0]);
    assert_rates(&maxmin_rates(&net, &[demand(&[0, 1], None)]), &[30.0]);
}

#[test]
fn oracle_solves_the_classic_maxmin_example() {
    // Node A (10) carries f0 and f1, node B (4) carries f1 and f2. B
    // binds first: f1 and f2 get 2 each, then f0 takes A's other 8.
    let net = FairNetwork::new(&[10.0, 4.0]);
    let rates = maxmin_rates(
        &net,
        &[
            demand(&[0], None),
            demand(&[0, 1], None),
            demand(&[1], None),
        ],
    );
    assert_rates(&rates, &[8.0, 2.0, 2.0]);
}

#[test]
fn oracle_allows_a_cap_only_flow() {
    let net = FairNetwork::new(&[]);
    assert_eq!(maxmin_rates(&net, &[demand(&[], Some(7.0))]), vec![7.0]);
}

#[test]
#[should_panic(expected = "unbounded")]
fn oracle_rejects_an_unconstrained_flow() {
    let net = FairNetwork::new(&[1.0]);
    let _ = maxmin_rates(&net, &[demand(&[], None)]);
}

#[test]
fn oracle_counts_a_duplicated_path_node_once() {
    let net = FairNetwork::new(&[100.0]);
    let rates = maxmin_rates(&net, &[demand(&[0, 0], None), demand(&[0], None)]);
    assert_rates(&rates, &[50.0, 50.0]);
}

fn fluid(start_ns: u64, bytes: f64, node: usize) -> FluidFlow {
    FluidFlow {
        start: SimTime::from_nanos(start_ns),
        bytes,
        nodes: vec![node],
        cap: None,
        extra_latency: SimDuration::ZERO,
    }
}

#[test]
fn oracle_schedules_disjoint_bottlenecks_independently() {
    // Three flows on three disjoint nodes, plus a late arrival on the
    // third: each drains at its own node's full capacity.
    let net = FairNetwork::new(&[8e6, 4e6, 16e6]);
    let flows = [
        fluid(0, 8e6, 0),
        fluid(0, 8e6, 1),
        fluid(0, 1.6e6, 2),
        fluid(500_000_000, 1.6e6, 2),
    ];
    let secs: Vec<f64> = fluid_schedule(&net, &flows)
        .iter()
        .map(|t| t.as_secs_f64())
        .collect();
    assert_close(&secs, &[1.0, 2.0, 0.1, 0.6], 1e-6);
}

#[test]
fn oracle_freezes_near_tie_bottlenecks_together() {
    // Two single-flow bottlenecks whose levels differ by ~1e-13
    // relative, inside the freeze epsilon: both freeze in one round at
    // the lower level and finish at the same nanosecond.
    let net = FairNetwork::new(&[10.0, 10.0 * (1.0 + 1e-13)]);
    let done = fluid_schedule(&net, &[fluid(0, 100.0, 0), fluid(0, 100.0, 1)]);
    assert_eq!(done[0], done[1]);
    assert!((done[0].as_secs_f64() - 10.0).abs() < 1e-6);
}
