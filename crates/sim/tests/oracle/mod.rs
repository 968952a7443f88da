//! The general max–min fair solver, kept as the oracle for
//! `ptperf_sim::share_link`.
//!
//! Progressive filling (water-filling) over any number of
//! capacity-constrained nodes, with multi-node paths and optional
//! per-flow rate caps, plus the fluid scheduler that re-solves it at
//! every arrival and completion. Production needs only the case of one
//! uncapped link, where the fill ends after one round at
//! `capacity / k`; the equivalence tests hold the single-link loop to
//! this solver's finish nanoseconds, and the property tests check the
//! solver's own max–min invariants.
//!
//! Keep the order of every floating-point operation: on one uncapped
//! node the loop repeats this scheduler's step expressions operation
//! for operation, and that is what makes the comparison exact. Per-step
//! `Vec` allocations are deliberate: this module optimizes for
//! auditability, not speed.

// Each test crate that includes this module uses a different subset.
#![allow(dead_code)]

use ptperf_sim::{SimDuration, SimTime};

/// Index of a capacity-constrained node inside a [`FairNetwork`].
pub type NodeId = usize;

/// A set of nodes, each with a service capacity in bytes per second.
#[derive(Debug, Clone)]
pub struct FairNetwork {
    capacity: Vec<f64>,
}

impl FairNetwork {
    /// A network with one node per entry of `capacities` (bytes/s);
    /// node `i` has capacity `capacities[i]`.
    pub fn new(capacities: &[f64]) -> FairNetwork {
        for &c in capacities {
            assert!(
                c > 0.0 && c.is_finite(),
                "node capacity must be positive and finite, got {c}"
            );
        }
        FairNetwork {
            capacity: capacities.to_vec(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.capacity.len()
    }

    /// Capacity of a node.
    pub fn capacity(&self, node: NodeId) -> f64 {
        self.capacity[node]
    }
}

/// A flow requesting bandwidth through a set of nodes.
#[derive(Debug, Clone)]
pub struct FlowDemand {
    /// The nodes this flow traverses (order does not matter, and
    /// duplicates count once). An empty path means only `cap` limits
    /// the flow.
    pub nodes: Vec<NodeId>,
    /// Optional rate ceiling imposed by the flow itself (bytes/s).
    pub cap: Option<f64>,
}

/// Max–min fair rates (bytes/s) for `flows` over `net` by progressive
/// filling.
///
/// # Panics
/// Panics if a flow references a node outside the network, has an
/// invalid cap, or has an empty path and no cap (unbounded demand).
pub fn maxmin_rates(net: &FairNetwork, flows: &[FlowDemand]) -> Vec<f64> {
    let mut paths: Vec<Vec<NodeId>> = Vec::with_capacity(flows.len());
    for (i, f) in flows.iter().enumerate() {
        assert!(
            !f.nodes.is_empty() || f.cap.is_some(),
            "flow {i} has no node constraint and no cap: demand is unbounded"
        );
        for &n in &f.nodes {
            assert!(n < net.len(), "flow {i} references unknown node {n}");
        }
        if let Some(c) = f.cap {
            assert!(c > 0.0 && c.is_finite(), "flow {i} has invalid cap {c}");
        }
        let mut path = f.nodes.clone();
        path.sort_unstable();
        path.dedup();
        paths.push(path);
    }
    // Per-flow node membership, row-major: member[i * nodes + n].
    let mut member = vec![false; flows.len() * net.len()];
    for (i, path) in paths.iter().enumerate() {
        for &n in path {
            member[i * net.len() + n] = true;
        }
    }

    let mut rate = vec![0.0f64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    let mut in_freeze = vec![false; flows.len()];
    let mut used = vec![0.0f64; net.len()];
    let mut remaining = flows.len();

    while remaining > 0 {
        // Per-node equal share among still-unfrozen flows.
        let mut count = vec![0usize; net.len()];
        for (i, path) in paths.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            for &n in path {
                count[n] += 1;
            }
        }
        // The binding level this round: the smallest of all node shares
        // and all unfrozen flow caps.
        let mut level = f64::INFINITY;
        for n in 0..net.len() {
            if count[n] > 0 {
                let share = ((net.capacity(n) - used[n]) / count[n] as f64).max(0.0);
                level = level.min(share);
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                if let Some(c) = f.cap {
                    level = level.min(c);
                }
            }
        }
        debug_assert!(level.is_finite(), "no binding constraint found");

        // The freeze set is taken against a *snapshot* of `used`:
        // freezing mutates `used`, and recomputing shares mid-round with
        // stale per-node counts would wrongly freeze flows whose binding
        // node is not actually saturated at this level.
        let eps = 1e-9 * level.max(1.0);
        let mut freeze_set: Vec<usize> = Vec::new();
        for n in 0..net.len() {
            if count[n] == 0 {
                continue;
            }
            let share = ((net.capacity(n) - used[n]) / count[n] as f64).max(0.0);
            if share <= level + eps {
                for i in 0..flows.len() {
                    if !frozen[i] && !in_freeze[i] && member[i * net.len() + n] {
                        in_freeze[i] = true;
                        freeze_set.push(i);
                    }
                }
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] && !in_freeze[i] {
                if let Some(c) = f.cap {
                    if c <= level + eps {
                        in_freeze[i] = true;
                        freeze_set.push(i);
                    }
                }
            }
        }
        if freeze_set.is_empty() {
            // Defensive: guarantee termination under floating-point
            // pathologies by freezing everything at the level.
            debug_assert!(false, "progressive filling made no progress");
            freeze_set.extend((0..flows.len()).filter(|&i| !frozen[i]));
        }
        for i in freeze_set {
            let at = flows[i].cap.map_or(level, |c| c.min(level));
            rate[i] = at;
            frozen[i] = true;
            in_freeze[i] = false;
            for &n in &paths[i] {
                used[n] += at;
            }
            remaining -= 1;
        }
    }
    rate
}

/// A flow submitted to [`fluid_schedule`].
#[derive(Debug, Clone)]
pub struct FluidFlow {
    /// When the flow's first byte becomes available to send.
    pub start: SimTime,
    /// Payload size in bytes.
    pub bytes: f64,
    /// Nodes traversed (see [`FlowDemand::nodes`]).
    pub nodes: Vec<NodeId>,
    /// Optional per-flow rate cap (see [`FlowDemand::cap`]).
    pub cap: Option<f64>,
    /// Fixed latency added to the flow's completion.
    pub extra_latency: SimDuration,
}

/// The fluid schedule: flows join at their start times, share
/// bandwidth max–min fairly, and leave when their bytes are done.
/// Returns each flow's finish time (last byte plus `extra_latency`), in
/// submission order. Rescans every flow and re-solves the allocation
/// at every constant-rate segment.
pub fn fluid_schedule(net: &FairNetwork, flows: &[FluidFlow]) -> Vec<SimTime> {
    let mut remaining: Vec<f64> = flows.iter().map(|f| f.bytes.max(0.0)).collect();
    let mut done = vec![false; flows.len()];
    let mut finish = vec![SimTime::ZERO; flows.len()];

    let mut now = flows.iter().map(|f| f.start).min().unwrap_or(SimTime::ZERO);

    loop {
        // Active = started, not done. Pending = not yet started.
        let mut active_idx = Vec::new();
        let mut next_start: Option<SimTime> = None;
        for (i, f) in flows.iter().enumerate() {
            if done[i] {
                continue;
            }
            if f.start <= now {
                if remaining[i] <= 0.0 {
                    // Zero-byte flow: completes the moment it starts.
                    done[i] = true;
                    finish[i] = f.start + f.extra_latency;
                    continue;
                }
                active_idx.push(i);
            } else {
                next_start = Some(next_start.map_or(f.start, |s: SimTime| s.min(f.start)));
            }
        }
        if active_idx.is_empty() {
            match next_start {
                Some(t) => {
                    now = t;
                    continue;
                }
                None => break,
            }
        }

        let demands: Vec<FlowDemand> = active_idx
            .iter()
            .map(|&i| FlowDemand {
                nodes: flows[i].nodes.clone(),
                cap: flows[i].cap,
            })
            .collect();
        let rates = maxmin_rates(net, &demands);

        // Time until the first active flow drains at current rates.
        let mut dt_finish = f64::INFINITY;
        for (k, &i) in active_idx.iter().enumerate() {
            if rates[k] > 0.0 {
                dt_finish = dt_finish.min(remaining[i] / rates[k]);
            }
        }
        debug_assert!(
            dt_finish.is_finite(),
            "active flows exist but none can make progress"
        );
        let mut dt = dt_finish;
        if let Some(t) = next_start {
            let until_start = t.duration_since(now).as_secs_f64();
            if until_start < dt {
                dt = until_start;
            }
        }

        // Advance: drain bytes, mark completions.
        let after = now + SimDuration::from_secs_f64(dt);
        for (k, &i) in active_idx.iter().enumerate() {
            remaining[i] -= rates[k] * dt;
            if remaining[i] <= 1e-6 {
                done[i] = true;
                finish[i] = after + flows[i].extra_latency;
            }
        }
        now = after;
    }
    finish
}
