//! Processor sharing over one link.
//!
//! A browser page load's sub-resources share the tunnel's effective
//! rate: while `k` flows are active, each drains at `capacity / k`.
//! [`share_link`] steps from event to event (an arrival or a
//! completion). Rates are constant between events, so each flow's
//! remaining bytes fall linearly and a step is exact up to the
//! nanosecond rounding of the clock.
//!
//! The active flows are kept sorted by remaining bytes, largest first,
//! so a step reads its first completion off the last entry and retires
//! finished flows from the end. The order changes no value: every
//! active flow drains the same `rate · dt`, and rounded division and
//! subtraction are monotone, so `min(rᵢ / rate)` is `min(rᵢ) / rate` to
//! the bit, a drain never reorders two flows, and the flows at or below
//! the completion threshold are always the last ones.
//!
//! This is the max–min fair fluid schedule on a single node with no
//! per-flow caps: progressive filling there ends after one round, at
//! the level `capacity / k`. The general solver is the test oracle in
//! `crates/sim/tests/oracle/`, and `tests/equivalence.rs` checks this
//! loop against it to the nanosecond on every flow.

use crate::time::{SimDuration, SimTime};

/// One transfer on the shared link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFlow {
    /// When the flow's first byte becomes available to send.
    pub start: SimTime,
    /// Payload size in bytes; a flow of zero bytes finishes on arrival.
    pub bytes: f64,
    /// Fixed latency added to the completion (request round trip,
    /// protocol chatter).
    pub extra_latency: SimDuration,
}

/// Shares a link of `capacity` bytes/s among `flows` and writes each
/// flow's finish time (its last byte plus `extra_latency`) to
/// `finish`, in submission order, and returns the number of
/// constant-rate steps taken. `active` is working space holding each
/// active flow's index and remaining bytes, sorted by remaining bytes
/// in descending order; with warm buffers a run allocates nothing.
///
/// Flows are admitted in submission order, so their starts must be
/// non-decreasing.
///
/// # Panics
/// Panics if `capacity` is not positive and finite.
pub fn share_link(
    capacity: f64,
    flows: &[LinkFlow],
    active: &mut Vec<(usize, f64)>,
    finish: &mut Vec<SimTime>,
) -> usize {
    assert!(
        capacity > 0.0 && capacity.is_finite(),
        "link capacity must be positive and finite, got {capacity}"
    );
    debug_assert!(
        flows.windows(2).all(|w| w[0].start <= w[1].start),
        "flows must be submitted in start order"
    );
    active.clear();
    finish.clear();
    finish.resize(flows.len(), SimTime::ZERO);
    let Some(first) = flows.first() else {
        return 0;
    };
    let mut now = first.start;
    let (mut next, mut steps) = (0, 0);
    loop {
        while let Some(f) = flows.get(next).filter(|f| f.start <= now) {
            if f.bytes > 0.0 {
                let at = active.partition_point(|&(_, remaining)| remaining >= f.bytes);
                active.insert(at, (next, f.bytes));
            } else {
                finish[next] = f.start + f.extra_latency;
            }
            next += 1;
        }
        let Some(&(_, smallest)) = active.last() else {
            match flows.get(next) {
                Some(f) => {
                    now = f.start;
                    continue;
                }
                None => return steps,
            }
        };
        // Run to the first completion or the next arrival, whichever
        // comes sooner.
        let rate = capacity / active.len() as f64;
        let mut dt = smallest / rate;
        if let Some(f) = flows.get(next) {
            dt = dt.min(f.start.duration_since(now).as_secs_f64());
        }
        let after = now + SimDuration::from_secs_f64(dt);
        let drained = rate * dt;
        for (_, remaining) in active.iter_mut() {
            *remaining -= drained;
        }
        while let Some(&(i, _)) = active.last().filter(|&&(_, remaining)| remaining <= 1e-6) {
            finish[i] = after + flows[i].extra_latency;
            active.pop();
        }
        now = after;
        steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(start_s: u64, bytes: f64, extra_s: u64) -> LinkFlow {
        LinkFlow {
            start: SimTime::ZERO + SimDuration::from_secs(start_s),
            bytes,
            extra_latency: SimDuration::from_secs(extra_s),
        }
    }

    fn finish_secs(capacity: f64, flows: &[LinkFlow]) -> Vec<f64> {
        let mut finish = Vec::new();
        share_link(capacity, flows, &mut Vec::new(), &mut finish);
        finish.iter().map(|t| t.as_secs_f64()).collect()
    }

    fn assert_close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-6, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn single_flow_takes_bytes_over_capacity() {
        assert_close(&finish_secs(10.0, &[flow(0, 100.0, 0)]), &[10.0]);
    }

    #[test]
    fn two_flows_share_the_link() {
        // Each runs at 5 B/s, so both finish at t=20.
        let both = [flow(0, 100.0, 0), flow(0, 100.0, 0)];
        assert_close(&finish_secs(10.0, &both), &[20.0, 20.0]);
    }

    #[test]
    fn late_arrival_shares_what_remains() {
        // 0–10: A alone at 10 B/s, 100 B left. 10–20: both at 5 B/s,
        // B done at t=20. 20–25: A alone again, done at t=25.
        let flows = [flow(0, 200.0, 0), flow(10, 50.0, 0)];
        assert_close(&finish_secs(10.0, &flows), &[25.0, 20.0]);
        assert_eq!(
            share_link(10.0, &flows, &mut Vec::new(), &mut Vec::new()),
            3
        );
    }

    #[test]
    fn extra_latency_is_added() {
        assert_close(&finish_secs(10.0, &[flow(0, 10.0, 2)]), &[3.0]);
    }

    #[test]
    fn zero_byte_flow_completes_at_start() {
        let mut finish = Vec::new();
        let zero = LinkFlow {
            start: SimTime::from_nanos(5),
            bytes: 0.0,
            extra_latency: SimDuration::ZERO,
        };
        share_link(10.0, &[zero], &mut Vec::new(), &mut finish);
        assert_eq!(finish, [SimTime::from_nanos(5)]);
    }

    #[test]
    fn tied_flows_finish_together_and_a_sub_microbyte_arrival_retires_at_once() {
        // 0–5: A and B tie at 5 B/s each, 75 B left apiece. At t=5 C
        // brings 1e-7 B: it drains in about 30 ns at 10/3 B/s and
        // finishes alone. A and B then finish together 15 s later.
        let c = LinkFlow {
            start: SimTime::ZERO + SimDuration::from_secs(5),
            bytes: 1e-7,
            extra_latency: SimDuration::ZERO,
        };
        let flows = [flow(0, 100.0, 0), flow(0, 100.0, 1), c];
        let mut finish = Vec::new();
        let steps = share_link(10.0, &flows, &mut Vec::new(), &mut finish);
        assert_eq!(steps, 3);
        let c_drain = SimDuration::from_secs_f64(1e-7 / (10.0 / 3.0));
        assert_eq!(finish[2], c.start + c_drain);
        assert_eq!(finish[1], finish[0] + SimDuration::from_secs(1));
        let secs: Vec<f64> = finish.iter().map(|t| t.as_secs_f64()).collect();
        assert_close(&secs, &[20.0, 21.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_a_non_positive_capacity() {
        share_link(0.0, &[], &mut Vec::new(), &mut Vec::new());
    }
}
