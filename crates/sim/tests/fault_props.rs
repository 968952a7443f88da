//! Property tests for the fault-injection subsystem: plan generation
//! is replayable and ordered, backoff is capped, recovered transfers
//! deliver every byte, and an empty plan is indistinguishable from no
//! plan at all.

use proptest::prelude::*;

use ptperf_sim::fault::{
    run_transfer, FaultBias, FaultKnobs, FaultPlan, FaultProfile, RetryPolicy, TransferSpec,
    MAX_REFUSALS,
};
use ptperf_sim::{SimDuration, SimRng};

fn arb_knobs() -> impl Strategy<Value = FaultKnobs> {
    (0.0f64..0.9, 0.0f64..2.0, 0.1f64..100.0).prop_map(|(p, hazard, secs)| FaultKnobs {
        connect_failure_p: p,
        hazard_per_sec: hazard,
        transfer_secs: secs,
    })
}

fn arb_profile() -> impl Strategy<Value = FaultProfile> {
    (
        (0.0f64..3.0, 0.0f64..4.0, 10u64..5_000),
        (1.0f64..2.0, 0.0f64..1.0, 0usize..8),
        (0u32..5, 1u64..2_000, any::<bool>()),
    )
        .prop_map(
            |(
                (refusal, hazard, stall_ms),
                (degrade, surge, max_mid),
                (retries, base_ms, resume),
            )| {
                FaultProfile {
                    refusal_mult: refusal,
                    hazard_mult: hazard,
                    stall_mean: SimDuration::from_millis(stall_ms),
                    stall_max: SimDuration::from_millis(stall_ms * 4),
                    degrade,
                    surge_degrade_per_load: surge,
                    max_mid_events: max_mid,
                    policy: RetryPolicy {
                        max_retries: retries,
                        base_backoff: SimDuration::from_millis(base_ms),
                        max_backoff: SimDuration::from_millis(base_ms * 8),
                        resume,
                    },
                }
            },
        )
}

fn arb_bias() -> impl Strategy<Value = FaultBias> {
    // Keep one weight strictly positive so the three-way split is
    // always well-defined.
    (0.05f64..2.0, 0.0f64..2.0, 0.0f64..2.0).prop_map(|(abort, stall, churn)| FaultBias {
        abort,
        stall,
        churn,
    })
}

fn arb_spec() -> impl Strategy<Value = TransferSpec> {
    (1u64..5_000, 100u64..120_000, 1u64..2_000, 1u64..5_000).prop_map(
        |(head_ms, body_ms, resume_ms, reconnect_ms)| TransferSpec {
            head: SimDuration::from_millis(head_ms),
            body: SimDuration::from_millis(body_ms),
            resume_head: SimDuration::from_millis(resume_ms),
            reconnect_head: SimDuration::from_millis(reconnect_ms),
            // Generous: recoverable plans must never hit the timeout.
            timeout: SimDuration::from_secs(1_000_000),
        },
    )
}

proptest! {
    /// Plan generation is a pure function of the RNG stream: identical
    /// seeds replay identical plans, and within a plan the injection
    /// times are monotone in `[0, 1]` with a bounded refusal run.
    #[test]
    fn plans_replay_per_seed_and_are_monotone(
        knobs in arb_knobs(),
        profile in arb_profile(),
        bias in arb_bias(),
        seed in any::<u64>(),
        rounds in 1usize..5,
    ) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..rounds {
            let pa = FaultPlan::generate(&knobs, &profile, &bias, &mut a);
            let pb = FaultPlan::generate(&knobs, &profile, &bias, &mut b);
            prop_assert_eq!(&pa, &pb, "same seed produced different plans");
            let mut prev = 0.0f64;
            for e in pa.events() {
                prop_assert!((0.0..=1.0).contains(&e.at), "at {} out of range", e.at);
                prop_assert!(e.at >= prev, "events not monotone: {} after {}", e.at, prev);
                prev = e.at;
            }
            prop_assert!(pa.refusals() <= MAX_REFUSALS);
        }
    }

    /// Backoff is capped by `max_backoff` and non-decreasing in the
    /// attempt number — the doubling can never overshoot the ceiling,
    /// even far past the shift-width guard.
    #[test]
    fn backoff_never_exceeds_cap(
        base_ms in 1u64..10_000,
        cap_ms in 1u64..60_000,
        retries in 0u32..64,
    ) {
        let policy = RetryPolicy {
            max_retries: retries,
            base_backoff: SimDuration::from_millis(base_ms),
            max_backoff: SimDuration::from_millis(cap_ms),
            resume: true,
        };
        let mut prev = SimDuration::ZERO;
        for attempt in 0..64u32 {
            let b = policy.backoff(attempt);
            prop_assert!(b <= policy.max_backoff, "attempt {attempt}: {b:?} over cap");
            prop_assert!(b >= prev, "backoff shrank at attempt {attempt}");
            prev = b;
        }
    }

    /// A transfer that recovers (retry budget never exhausted, timeout
    /// out of reach) delivers exactly the fault-free byte count: the
    /// retried transfer ends complete with fraction 1.0, and every
    /// injected event is accounted for.
    #[test]
    fn recovered_transfers_deliver_every_byte(
        spec in arb_spec(),
        knobs in arb_knobs(),
        mut profile in arb_profile(),
        bias in arb_bias(),
        seed in any::<u64>(),
    ) {
        // A budget no plan can exhaust: refusals are capped at
        // MAX_REFUSALS and mid events at max_mid_events.
        profile.policy.max_retries = 1_000;
        let mut rng = SimRng::new(seed);
        let plan = FaultPlan::generate(&knobs, &profile, &bias, &mut rng);
        let run = run_transfer(&spec, &plan, &profile.policy);
        prop_assert!(run.consistent(), "injected != retried + recovered + gave_up");
        prop_assert_eq!(run.gave_up, 0, "unlimited retries still gave up");
        prop_assert!(run.completed, "recoverable transfer did not complete");
        prop_assert_eq!(run.fraction, 1.0, "completed but bytes missing");
        prop_assert!(run.elapsed >= spec.head + spec.body);
    }

    /// A plan generated over a fault-free channel (zero refusal
    /// probability, zero hazard, no degradation) is the empty plan, and
    /// running through it is indistinguishable from running with no
    /// plan at all — the plan-on/zero-faults ≡ plan-off half of the
    /// neutrality proof.
    #[test]
    fn zero_fault_plan_is_the_empty_plan(
        spec in arb_spec(),
        mut profile in arb_profile(),
        secs in 0.1f64..100.0,
        seed in any::<u64>(),
    ) {
        profile.degrade = 1.0;
        let knobs = FaultKnobs {
            connect_failure_p: 0.0,
            hazard_per_sec: 0.0,
            transfer_secs: secs,
        };
        let mut rng = SimRng::new(seed);
        let before = rng.clone();
        let plan = FaultPlan::generate(&knobs, &profile, &FaultBias::balanced(), &mut rng);
        prop_assert!(plan.is_empty(), "zero-fault knobs generated events");
        // Zero-fault generation draws nothing from the stream.
        let mut a = before;
        prop_assert_eq!(a.next_u64(), rng.next_u64(), "generation consumed RNG draws");
        let with_plan = run_transfer(&spec, &plan, &profile.policy);
        let without = run_transfer(&spec, &FaultPlan::empty(), &profile.policy);
        prop_assert_eq!(with_plan, without, "zero-fault plan diverged from plan-off");
        prop_assert!(with_plan.completed);
        prop_assert_eq!(with_plan.injected, 0);
    }
}
