//! Deterministic fault injection: seeded fault plans and a
//! retry/timeout state machine.
//!
//! The paper's headline findings are failure-driven — Fig. 8's
//! complete/partial/failed split, the 120 s timeout tails, the surge
//! epoch where most bulk downloads die mid-transfer. A single upfront
//! connect coin flip cannot represent any of that, so this module
//! schedules *mid-transfer* events — aborts at a byte offset, bounded
//! stalls, bridge churn forcing re-establishment, epoch-scoped
//! degradation — from the same seeded RNG-stream discipline the rest
//! of the simulator uses. Everything here is a pure function of its
//! inputs: the same seed replays the same fault schedule, the same
//! retry sequence, and the same final byte counts, at any worker
//! count.
//!
//! Layering: this crate owns the *mechanics* (plans and the retry
//! driver). Which kinds of fault a given pluggable transport is prone
//! to ([`FaultBias`]) is supplied by the transports crate; whether a
//! scenario injects at all is the core crate's `FaultConfig` lane,
//! which defaults to `Off`.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Hard cap on connect-refusal events a single plan may schedule.
///
/// `SimRng::chance(1.0)` is deterministically true without drawing, so
/// a dead channel (`connect_failure_p = 1.0`) would otherwise refuse
/// forever; four refusals exceed every retry budget we ship.
pub const MAX_REFUSALS: usize = 4;

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The connect attempt is refused outright; no bytes ever move.
    ConnectRefusal,
    /// The transfer dies at its byte offset; a retry may resume from
    /// the delivered prefix (range request) at `resume_head` cost.
    Abort,
    /// All progress pauses for the bounded duration, then resumes on
    /// its own — no retry needed, the event is always absorbed.
    Stall(SimDuration),
    /// The bridge/relay behind the channel churned away: the transfer
    /// dies and a retry must pay full re-establishment.
    Churn,
    /// Epoch-scoped degradation: every byte from this point on takes
    /// `factor`× as long (a surge packet-loss ramp, not a teardown).
    Degrade(f64),
}

/// A scheduled fault: `at` is the progress fraction of the fault-free
/// transfer at which it fires (`0.0` means the connect phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Progress fraction in `[0, 1]`; `0.0` fires before any bytes.
    pub at: f64,
    /// What happens when the event fires.
    pub kind: FaultKind,
}

/// The knobs a transport's established channel exposes, from which a
/// plan's fault distributions are derived — the PT's *existing*
/// failure model (connect probability, mid-transfer hazard) feeds the
/// plan instead of being coin-flipped inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultKnobs {
    /// Probability a connect attempt is refused, in `[0, 1]`.
    pub connect_failure_p: f64,
    /// Poisson hazard rate for mid-transfer faults, per sim second.
    pub hazard_per_sec: f64,
    /// Fault-free duration of the transfer body, in sim seconds.
    pub transfer_secs: f64,
}

/// Per-transport weights splitting mid-transfer hazard events across
/// fault kinds. Weights are relative; they need not sum to one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultBias {
    /// Weight of mid-transfer aborts (connection dies, resume cheap).
    pub abort: f64,
    /// Weight of bounded stalls (rate limiting, head-of-line waits).
    pub stall: f64,
    /// Weight of bridge/relay churn (full re-establishment needed).
    pub churn: f64,
}

impl FaultBias {
    /// An even three-way split — the default for transports without a
    /// characteristic failure mode.
    pub const fn balanced() -> Self {
        FaultBias {
            abort: 1.0,
            stall: 1.0,
            churn: 1.0,
        }
    }
}

impl Default for FaultBias {
    fn default() -> Self {
        Self::balanced()
    }
}

/// Capped exponential backoff with optional partial-progress
/// resumption — the recovery half of the fault model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed after the initial attempt; 0 restores the old
    /// hard-failure behavior.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: SimDuration,
    /// Ceiling the doubling backoff never exceeds.
    pub max_backoff: SimDuration,
    /// Resume from the delivered byte prefix (range request) instead
    /// of restarting the transfer from zero.
    pub resume: bool,
}

impl RetryPolicy {
    /// The shipped default: two retries, 500 ms base backoff capped at
    /// 8 s, with resumption.
    pub const fn standard() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: SimDuration::from_millis(500),
            max_backoff: SimDuration::from_secs(8),
            resume: true,
        }
    }

    /// No retries at all — first unrecoverable fault is terminal.
    pub const fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            resume: false,
        }
    }

    /// Backoff before retry number `attempt` (0-based): capped
    /// exponential, `min(base · 2^attempt, max_backoff)`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let doubled = self.base_backoff * (1u64 << attempt.min(20));
        doubled.min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::standard()
    }
}

/// Scenario-level fault intensity: multipliers over the channel's own
/// knobs plus the stall/degradation shape and the retry policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Multiplier on the channel's `connect_failure_p`.
    pub refusal_mult: f64,
    /// Multiplier on the channel's mid-transfer hazard rate.
    pub hazard_mult: f64,
    /// Mean of the (exponential) stall-duration distribution.
    pub stall_mean: SimDuration,
    /// Hard bound no single stall may exceed.
    pub stall_max: SimDuration,
    /// Baseline body-time degradation factor (1.0 = none).
    pub degrade: f64,
    /// Extra degradation per unit of epoch load above 1.0 — the surge
    /// packet-loss ramp. Applied by `FaultProfile::for_load`.
    pub surge_degrade_per_load: f64,
    /// Cap on mid-transfer events scheduled per plan.
    pub max_mid_events: usize,
    /// Recovery behavior for refusal/abort/churn events.
    pub policy: RetryPolicy,
}

impl FaultProfile {
    /// Paper-faithful intensity: the channel's own knobs at 1×, a
    /// moderate surge ramp, and — crucially — **no retries**. The
    /// campaign measured with one-shot curl/wget: a refused connect was
    /// recorded as failed and a died transfer as partial, never retried
    /// (Appendix A.3's 7200 s re-runs only stretched the timeout).
    /// Recovery-enabled profiles ([`RetryPolicy::standard`],
    /// [`FaultProfile::aggressive`]) show how much of Fig. 8 a retry
    /// layer would win back.
    pub fn paper() -> Self {
        FaultProfile {
            refusal_mult: 1.0,
            hazard_mult: 1.0,
            stall_mean: SimDuration::from_secs(2),
            stall_max: SimDuration::from_secs(10),
            degrade: 1.0,
            surge_degrade_per_load: 0.35,
            max_mid_events: 4,
            policy: RetryPolicy::none(),
        }
    }

    /// Chaos-lane intensity for robustness sweeps: heavy multipliers,
    /// long stalls, an extra retry. Nothing should panic or hang under
    /// this, and every unit must still classify.
    pub fn aggressive() -> Self {
        FaultProfile {
            refusal_mult: 4.0,
            hazard_mult: 8.0,
            stall_mean: SimDuration::from_secs(5),
            stall_max: SimDuration::from_secs(30),
            degrade: 1.25,
            surge_degrade_per_load: 0.5,
            max_mid_events: 6,
            policy: RetryPolicy {
                max_retries: 3,
                base_backoff: SimDuration::from_millis(250),
                max_backoff: SimDuration::from_secs(4),
                resume: true,
            },
        }
    }

    /// The profile with the surge ramp applied for an epoch whose load
    /// multiplier is `load_mult` — body-time degradation scales with
    /// load above baseline, so surge epochs push transfers into the
    /// timeout in exactly the way Fig. 10 measured.
    pub fn for_load(&self, load_mult: f64) -> Self {
        let ramp = 1.0 + self.surge_degrade_per_load * (load_mult - 1.0).max(0.0);
        let mut p = self.clone();
        p.degrade = (p.degrade * ramp).max(1.0);
        p
    }
}

/// The scenario-level fault lane: `Off` (the default) is proven
/// bit-for-bit identical to running without a fault layer at all;
/// `Plan` injects per the profile, deterministically per seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FaultConfig {
    /// No fault layer: faulted entry points delegate to the plain
    /// ones with zero extra RNG draws.
    #[default]
    Off,
    /// Inject faults generated from the profile, seeded from the
    /// scenario's RNG-stream discipline.
    Plan(FaultProfile),
}

impl FaultConfig {
    /// True when the lane injects faults.
    pub fn is_active(&self) -> bool {
        matches!(self, FaultConfig::Plan(_))
    }
}

/// A fully materialized fault schedule for one transfer: events sorted
/// by progress fraction, monotone and replayable per seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The plan with no events — behaviorally identical to running
    /// without a fault layer at all (a tested property).
    pub const fn empty() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Builds a plan from explicit events, sorting them ascending by
    /// `at` (stable, so ties keep their given order) — the same
    /// invariant [`FaultPlan::generate`] establishes. For crafted
    /// boundary cases in tests and tools; generated plans should come
    /// from [`FaultPlan::generate`].
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("fault times are finite"));
        FaultPlan { events }
    }

    /// The scheduled events, ascending by `at`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The mid-transfer events (`at > 0`), ascending by `at`.
    pub fn mid_events(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(|e| e.at > 0.0)
    }

    /// Number of connect-phase refusals scheduled.
    pub fn refusals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::ConnectRefusal))
            .count()
    }

    /// Generate a plan from a channel's failure knobs, a scenario
    /// profile, and a transport's kind bias, consuming draws from
    /// `rng` only. Deterministic: the same `(knobs, profile, bias,
    /// rng-state)` always yields the same plan, and event times are
    /// monotone by construction (Poisson inter-arrival walk).
    pub fn generate(
        knobs: &FaultKnobs,
        profile: &FaultProfile,
        bias: &FaultBias,
        rng: &mut SimRng,
    ) -> Self {
        let mut events = Vec::new();

        // Epoch-scoped degradation applies before any bytes move.
        if profile.degrade > 1.0 {
            events.push(FaultEvent {
                at: 0.0,
                kind: FaultKind::Degrade(profile.degrade),
            });
        }

        // Connect refusals: one chance draw per attempt, bounded so a
        // dead channel (p = 1.0, no draw) cannot loop forever.
        let p = (knobs.connect_failure_p * profile.refusal_mult).clamp(0.0, 1.0);
        let mut refusals = 0;
        while refusals < MAX_REFUSALS && rng.chance(p) {
            events.push(FaultEvent {
                at: 0.0,
                kind: FaultKind::ConnectRefusal,
            });
            refusals += 1;
        }

        // Mid-transfer events: a Poisson walk over the *degraded* body
        // duration — the hazard is per wall-second, and degradation
        // stretches how long the transfer is exposed to it (the surge
        // mechanism: slower bodies soak up proportionally more churn).
        // Each arrival is assigned a kind by the bias.
        let hazard = knobs.hazard_per_sec * profile.hazard_mult;
        let horizon = knobs.transfer_secs * profile.degrade.max(1.0);
        if hazard > 0.0 && horizon > 0.0 {
            let mean = 1.0 / hazard;
            let mut t = rng.exponential(mean);
            let mut n = 0;
            while t < horizon && n < profile.max_mid_events {
                let at = (t / horizon).clamp(0.0, 1.0);
                let kind = Self::pick_kind(profile, bias, rng);
                events.push(FaultEvent { at, kind });
                n += 1;
                t += rng.exponential(mean);
            }
        }

        // The walk is monotone already; the stable sort only moves
        // connect-phase events ahead of it without reordering ties.
        events.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("fault times are finite"));
        FaultPlan { events }
    }

    fn pick_kind(profile: &FaultProfile, bias: &FaultBias, rng: &mut SimRng) -> FaultKind {
        let total = bias.abort + bias.stall + bias.churn;
        if total <= 0.0 {
            return FaultKind::Abort;
        }
        let u = rng.range_f64(0.0, total);
        if u < bias.abort {
            FaultKind::Abort
        } else if u < bias.abort + bias.stall {
            let secs = rng.exponential(profile.stall_mean.as_secs_f64().max(1e-9));
            FaultKind::Stall(SimDuration::from_secs_f64(secs).min(profile.stall_max))
        } else {
            FaultKind::Churn
        }
    }
}

/// The outcome of driving one transfer through a plan with retries:
/// timing, delivered fraction, and the fault disposition counters.
///
/// The counters satisfy `injected == retried + recovered + gave_up`
/// by construction: every event that fires is either absorbed
/// (stall/degrade → recovered), answered with a retry (→ retried), or
/// terminal (→ gave_up). Events past the timeout never fire and are
/// never counted.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRun {
    /// Wall sim time consumed, clamped at the spec timeout.
    pub elapsed: SimDuration,
    /// When the first body byte arrived, if any attempt got that far.
    pub first_byte: Option<SimDuration>,
    /// Fraction of the body delivered by the final attempt, `[0, 1]`.
    pub fraction: f64,
    /// The full body arrived.
    pub completed: bool,
    /// The per-transfer timeout expired mid-flight.
    pub timed_out: bool,
    /// Fault events that fired.
    pub injected: u64,
    /// Events answered with a retry (backoff paid, transfer resumed).
    pub retried: u64,
    /// Events absorbed without a retry (stalls, degradation).
    pub recovered: u64,
    /// Events that were terminal: retries exhausted.
    pub gave_up: u64,
}

impl FaultRun {
    /// The disposition invariant the verify gate checks end to end.
    pub fn consistent(&self) -> bool {
        self.injected == self.retried + self.recovered + self.gave_up
    }
}

/// The shape of one transfer as the retry driver sees it: head costs,
/// fault-free body time, resumption costs, and the phase timeout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferSpec {
    /// Connect + request head paid before the first body byte.
    pub head: SimDuration,
    /// Fault-free body transfer time.
    pub body: SimDuration,
    /// Cost to resume after an abort (stream reopen + request).
    pub resume_head: SimDuration,
    /// Cost to fully re-establish after churn or a refused connect.
    pub reconnect_head: SimDuration,
    /// Per-transfer timeout; the driver never reports more elapsed
    /// time than this, and events past it never fire.
    pub timeout: SimDuration,
}

/// Drive one transfer through `plan` under `policy` — the pure retry
/// state machine every faulted workload builds on.
///
/// Termination is structural: the event list is finite, every retry
/// consumes budget from `policy.max_retries`, and elapsed time is
/// clamped by `spec.timeout`, so the driver cannot hang and every run
/// ends classified (completed, timed out, or gave up — never unknown).
pub fn run_transfer(spec: &TransferSpec, plan: &FaultPlan, policy: &RetryPolicy) -> FaultRun {
    let mut run = FaultRun::default();
    let timeout = spec.timeout;
    let mut elapsed = SimDuration::ZERO;
    let mut attempt: u32 = 0;
    let mut slow = 1.0f64;
    let mut events = plan.events().iter().peekable();

    // Degradation scheduled for the connect phase applies up front.
    while let Some(e) = events.peek() {
        match e.kind {
            FaultKind::Degrade(f) if e.at <= 0.0 => {
                slow *= f.max(1.0);
                run.injected += 1;
                run.recovered += 1;
                events.next();
            }
            _ => break,
        }
    }

    // Connect phase: each refusal burns one attempt from the budget.
    while matches!(
        events.peek(),
        Some(FaultEvent {
            kind: FaultKind::ConnectRefusal,
            ..
        })
    ) {
        events.next();
        run.injected += 1;
        if attempt >= policy.max_retries || elapsed >= timeout {
            run.gave_up += 1;
            run.elapsed = elapsed.min(timeout);
            return run;
        }
        run.retried += 1;
        elapsed += spec.reconnect_head + policy.backoff(attempt);
        attempt += 1;
    }

    elapsed += spec.head;
    if elapsed >= timeout {
        run.elapsed = timeout;
        run.timed_out = true;
        return run;
    }
    run.first_byte = Some(elapsed);

    let body = spec.body.as_secs_f64();
    let mut frac = 0.0f64;
    if body <= 0.0 {
        run.elapsed = elapsed;
        run.fraction = 1.0;
        run.completed = true;
        return run;
    }

    // Advance to a target fraction at the current degradation factor;
    // returns false when the timeout expires first (run finalized).
    let advance = |elapsed: &mut SimDuration, frac: &mut f64, target: f64, slow: f64| -> bool {
        let dt = (target - *frac).max(0.0) * body * slow;
        let arrive = *elapsed + SimDuration::from_secs_f64(dt);
        if arrive >= timeout {
            let budget = timeout.saturating_sub(*elapsed).as_secs_f64();
            *frac = (*frac + budget / (body * slow).max(1e-12)).min(1.0);
            *elapsed = timeout;
            return false;
        }
        *elapsed = arrive;
        *frac = target;
        true
    };

    for e in events {
        let target = e.at.clamp(frac, 1.0);
        if !advance(&mut elapsed, &mut frac, target, slow) {
            run.elapsed = timeout;
            run.fraction = frac;
            run.timed_out = true;
            return run;
        }
        run.injected += 1;
        match e.kind {
            FaultKind::Stall(d) => {
                run.recovered += 1;
                elapsed += d;
                if elapsed >= timeout {
                    run.elapsed = timeout;
                    run.fraction = frac;
                    run.timed_out = true;
                    return run;
                }
            }
            FaultKind::Degrade(f) => {
                run.recovered += 1;
                slow *= f.max(1.0);
            }
            FaultKind::Abort | FaultKind::Churn | FaultKind::ConnectRefusal => {
                if attempt >= policy.max_retries {
                    run.gave_up += 1;
                    run.elapsed = elapsed.min(timeout);
                    run.fraction = frac;
                    return run;
                }
                run.retried += 1;
                let head = if matches!(e.kind, FaultKind::Abort) {
                    spec.resume_head
                } else {
                    spec.reconnect_head
                };
                elapsed += head + policy.backoff(attempt);
                attempt += 1;
                if !policy.resume {
                    frac = 0.0;
                }
                if elapsed >= timeout {
                    run.elapsed = timeout;
                    run.fraction = frac;
                    run.timed_out = true;
                    return run;
                }
            }
        }
    }

    if !advance(&mut elapsed, &mut frac, 1.0, slow) {
        run.elapsed = timeout;
        run.fraction = frac;
        run.timed_out = true;
        return run;
    }
    run.elapsed = elapsed;
    run.fraction = 1.0;
    run.completed = true;
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TransferSpec {
        TransferSpec {
            head: SimDuration::from_millis(800),
            body: SimDuration::from_secs(10),
            resume_head: SimDuration::from_millis(200),
            reconnect_head: SimDuration::from_millis(600),
            timeout: SimDuration::from_secs(120),
        }
    }

    fn knobs() -> FaultKnobs {
        FaultKnobs {
            connect_failure_p: 0.3,
            hazard_per_sec: 0.05,
            transfer_secs: 10.0,
        }
    }

    #[test]
    fn empty_plan_is_clean_head_plus_body() {
        let run = run_transfer(&spec(), &FaultPlan::empty(), &RetryPolicy::standard());
        assert!(run.completed);
        assert_eq!(run.fraction, 1.0);
        assert_eq!(run.elapsed, spec().head + spec().body);
        assert_eq!(run.first_byte, Some(spec().head));
        assert_eq!(run.injected, 0);
        assert!(run.consistent());
    }

    #[test]
    fn generation_is_replayable_and_monotone() {
        for seed in [1u64, 42, 9999] {
            let profile = FaultProfile::aggressive();
            let bias = FaultBias::balanced();
            let a = FaultPlan::generate(&knobs(), &profile, &bias, &mut SimRng::new(seed));
            let b = FaultPlan::generate(&knobs(), &profile, &bias, &mut SimRng::new(seed));
            assert_eq!(a, b, "seed {seed}: plan not replayable");
            for pair in a.events().windows(2) {
                assert!(pair[0].at <= pair[1].at, "seed {seed}: non-monotone");
            }
            for e in a.events() {
                assert!((0.0..=1.0).contains(&e.at));
            }
        }
    }

    #[test]
    fn dead_channel_refusals_are_bounded() {
        let k = FaultKnobs {
            connect_failure_p: 1.0,
            hazard_per_sec: 0.0,
            transfer_secs: 10.0,
        };
        let plan =
            FaultPlan::generate(&k, &FaultProfile::paper(), &FaultBias::balanced(), &mut SimRng::new(7));
        assert_eq!(plan.refusals(), MAX_REFUSALS);
        let run = run_transfer(&spec(), &plan, &RetryPolicy::standard());
        assert!(!run.completed);
        assert_eq!(run.fraction, 0.0);
        assert_eq!(run.gave_up, 1);
        assert!(run.consistent());
    }

    #[test]
    fn from_events_sorts_by_fraction() {
        // Deliberately out of order: from_events must sort by fraction.
        let plan = FaultPlan::from_events(vec![
            FaultEvent { at: 0.75, kind: FaultKind::Abort },
            FaultEvent { at: 0.0, kind: FaultKind::ConnectRefusal },
            FaultEvent { at: 0.25, kind: FaultKind::Churn },
        ]);
        let fractions: Vec<f64> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(fractions, vec![0.0, 0.25, 0.75]);
    }

    #[test]
    fn backoff_is_capped() {
        let p = RetryPolicy::standard();
        for attempt in 0..40 {
            assert!(p.backoff(attempt) <= p.max_backoff);
        }
        assert_eq!(p.backoff(0), p.base_backoff);
        assert_eq!(p.backoff(1), p.base_backoff * 2);
    }

    #[test]
    fn stall_is_absorbed_and_extends_elapsed() {
        let mut plan = FaultPlan::empty();
        plan.events.push(FaultEvent {
            at: 0.5,
            kind: FaultKind::Stall(SimDuration::from_secs(3)),
        });
        let run = run_transfer(&spec(), &plan, &RetryPolicy::standard());
        assert!(run.completed);
        assert_eq!(run.fraction, 1.0);
        assert_eq!(run.elapsed, spec().head + spec().body + SimDuration::from_secs(3));
        assert_eq!(run.recovered, 1);
        assert!(run.consistent());
    }

    #[test]
    fn abort_with_resume_completes_with_full_byte_count() {
        let mut plan = FaultPlan::empty();
        plan.events.push(FaultEvent {
            at: 0.4,
            kind: FaultKind::Abort,
        });
        let run = run_transfer(&spec(), &plan, &RetryPolicy::standard());
        assert!(run.completed, "resumed transfer must finish");
        assert_eq!(run.fraction, 1.0);
        assert_eq!(run.retried, 1);
        assert!(run.elapsed > spec().head + spec().body);
        assert!(run.consistent());
    }

    #[test]
    fn abort_without_retries_is_terminal_partial() {
        let mut plan = FaultPlan::empty();
        plan.events.push(FaultEvent {
            at: 0.4,
            kind: FaultKind::Abort,
        });
        let run = run_transfer(&spec(), &plan, &RetryPolicy::none());
        assert!(!run.completed);
        assert!((run.fraction - 0.4).abs() < 1e-9);
        assert_eq!(run.gave_up, 1);
        assert!(run.consistent());
    }

    #[test]
    fn events_past_the_timeout_never_fire() {
        let tight = TransferSpec {
            timeout: SimDuration::from_secs(5),
            ..spec()
        };
        let mut plan = FaultPlan::empty();
        plan.events.push(FaultEvent {
            at: 0.9, // would fire at ~9.8 s, past the 5 s timeout
            kind: FaultKind::Abort,
        });
        let run = run_transfer(&tight, &plan, &RetryPolicy::standard());
        assert!(run.timed_out);
        assert_eq!(run.injected, 0);
        assert_eq!(run.elapsed, tight.timeout);
        assert!(run.fraction > 0.0 && run.fraction < 1.0);
        assert!(run.consistent());
    }

    #[test]
    fn degrade_slows_the_body() {
        let mut plan = FaultPlan::empty();
        plan.events.push(FaultEvent {
            at: 0.0,
            kind: FaultKind::Degrade(2.0),
        });
        let run = run_transfer(&spec(), &plan, &RetryPolicy::standard());
        assert!(run.completed);
        assert_eq!(run.elapsed, spec().head + spec().body * 2);
        assert_eq!(run.recovered, 1);
    }

    /// The classification every run must end in, whatever the plan:
    /// the disposition identity holds, elapsed time never passes the
    /// timeout, the delivered fraction is in `[0, 1]`, and "completed"
    /// means exactly "the whole body arrived before the timeout".
    fn assert_classified(run: &FaultRun, sp: &TransferSpec, ctx: &str) {
        assert!(run.consistent(), "{ctx}: {run:?}");
        assert!(run.elapsed <= sp.timeout, "{ctx}: {run:?}");
        assert!((0.0..=1.0).contains(&run.fraction), "{ctx}: {run:?}");
        assert_eq!(
            run.completed,
            run.fraction == 1.0 && !run.timed_out,
            "{ctx}: {run:?}"
        );
    }

    #[test]
    fn generated_plans_always_classify() {
        let specs = [
            spec(),
            TransferSpec {
                timeout: SimDuration::from_secs(5),
                ..spec()
            },
            TransferSpec {
                body: SimDuration::from_secs(0),
                ..spec()
            },
        ];
        let restart = RetryPolicy {
            resume: false,
            ..RetryPolicy::standard()
        };
        let policies = [RetryPolicy::standard(), RetryPolicy::none(), restart];
        for seed in 0..48u64 {
            let k = FaultKnobs {
                connect_failure_p: [0.0, 0.3, 1.0][(seed % 3) as usize],
                hazard_per_sec: [0.02, 0.2, 0.7][((seed / 3) % 3) as usize],
                transfer_secs: 10.0,
            };
            let profile = if seed % 2 == 0 {
                FaultProfile::paper()
            } else {
                FaultProfile::aggressive()
            };
            let plan =
                FaultPlan::generate(&k, &profile, &FaultBias::balanced(), &mut SimRng::new(seed));
            for (si, sp) in specs.iter().enumerate() {
                for (pi, policy) in policies.iter().enumerate() {
                    let run = run_transfer(sp, &plan, policy);
                    assert_classified(&run, sp, &format!("seed {seed} spec {si} policy {pi}"));
                }
            }
        }
    }

    #[test]
    fn crafted_edge_plans_always_classify() {
        // Hand-built plans hitting the paths a generated plan rarely
        // does all at once: connect-phase degrades, refusal chains, a
        // stall that crosses the timeout, retry exhaustion mid-body,
        // and a fault landing exactly at fraction 1.0.
        let mut mixed = FaultPlan::empty();
        mixed.events = vec![
            FaultEvent {
                at: 0.0,
                kind: FaultKind::Degrade(2.0),
            },
            FaultEvent {
                at: 0.0,
                kind: FaultKind::ConnectRefusal,
            },
            FaultEvent {
                at: 0.1,
                kind: FaultKind::Stall(SimDuration::from_secs(3)),
            },
            FaultEvent {
                at: 0.1,
                kind: FaultKind::Churn,
            },
            FaultEvent {
                at: 0.5,
                kind: FaultKind::Abort,
            },
            FaultEvent {
                at: 1.0,
                kind: FaultKind::Degrade(1.1),
            },
        ];
        let mut dead = FaultPlan::empty();
        dead.events = vec![
            FaultEvent {
                at: 0.0,
                kind: FaultKind::ConnectRefusal,
            };
            MAX_REFUSALS
        ];
        let mut churny = FaultPlan::empty();
        churny.events = (1..=6)
            .map(|i| FaultEvent {
                at: f64::from(i) * 0.15,
                kind: FaultKind::Churn,
            })
            .collect();
        let specs = [
            spec(),
            TransferSpec {
                timeout: SimDuration::from_secs(4),
                ..spec()
            },
            TransferSpec {
                timeout: SimDuration::from_secs(1),
                ..spec()
            },
        ];
        let restart = RetryPolicy {
            resume: false,
            ..RetryPolicy::standard()
        };
        for (pli, plan) in [mixed, dead, churny].iter().enumerate() {
            for (si, sp) in specs.iter().enumerate() {
                for (pi, policy) in
                    [RetryPolicy::standard(), RetryPolicy::none(), restart].iter().enumerate()
                {
                    let run = run_transfer(sp, plan, policy);
                    assert_classified(&run, sp, &format!("plan {pli} spec {si} policy {pi}"));
                }
            }
        }
    }

    #[test]
    fn for_load_ramps_degradation_with_epoch_load() {
        let p = FaultProfile::paper();
        assert_eq!(p.for_load(1.0).degrade, 1.0);
        let surged = p.for_load(3.2);
        assert!(surged.degrade > 1.5, "surge must degrade: {}", surged.degrade);
        assert!(surged.degrade < 3.0);
    }
}
