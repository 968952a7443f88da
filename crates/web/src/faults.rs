//! The per-unit fault session: where a scenario's fault lane meets a
//! workload.
//!
//! A [`FaultSession`] is either `Off` — in which case every faulted
//! entry point (`curl::fetch_faulted`, `filedl::download_faulted`)
//! delegates straight to its plain counterpart with zero extra RNG
//! draws, the same structural trick the observability layer uses with
//! [`NullRecorder`](ptperf_obs::NullRecorder) — or `Active`, holding a
//! [`FaultProfile`], a per-transport [`FaultBias`], and its *own*
//! decorrelated [`SimRng`] stream from which every fault plan is
//! drawn. The workload's measurement RNG is never touched by fault
//! logic, so identical seeds replay identical fault schedules at any
//! worker count.
//!
//! The session also accumulates the four disposition counters —
//! injected, retried, recovered, gave up — which satisfy
//! `injected == retried + recovered + gave_up` by construction and
//! surface as `fault/*` trace counters via [`FaultSession::emit`].

use ptperf_obs::Recorder;
use ptperf_sim::fault::{FaultBias, FaultKnobs, FaultPlan, FaultProfile, FaultRun, RetryPolicy};
use ptperf_sim::SimRng;

use crate::channel::Channel;

/// Accumulated fault dispositions for one session (typically one
/// measurement unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Fault events that fired.
    pub injected: u64,
    /// Events answered with a retry.
    pub retried: u64,
    /// Events absorbed without a retry (stalls, degradation).
    pub recovered: u64,
    /// Terminal events: retry budget exhausted.
    pub gave_up: u64,
}

impl FaultStats {
    /// The invariant the verify gate re-checks from trace counters:
    /// every injected event has exactly one disposition.
    pub fn consistent(&self) -> bool {
        self.injected == self.retried + self.recovered + self.gave_up
    }

    fn absorb(&mut self, run: &FaultRun) {
        self.injected += run.injected;
        self.retried += run.retried;
        self.recovered += run.recovered;
        self.gave_up += run.gave_up;
    }
}

#[derive(Debug)]
enum Mode {
    Off,
    Active {
        profile: FaultProfile,
        bias: FaultBias,
        rng: SimRng,
    },
}

/// One unit's fault lane: `Off` (delegate, draw nothing) or `Active`
/// (generate plans from a dedicated RNG stream and count outcomes).
#[derive(Debug)]
pub struct FaultSession {
    mode: Mode,
    stats: FaultStats,
}

impl FaultSession {
    /// The neutral session: faulted entry points behave bit-for-bit
    /// like their plain counterparts.
    pub fn off() -> Self {
        FaultSession {
            mode: Mode::Off,
            stats: FaultStats::default(),
        }
    }

    /// An injecting session. `rng` must be a stream dedicated to fault
    /// generation (e.g. `scenario.rng("fig8/meek/faults")`) so fault
    /// draws never perturb measurement draws.
    pub fn active(profile: FaultProfile, bias: FaultBias, rng: SimRng) -> Self {
        FaultSession {
            mode: Mode::Active { profile, bias, rng },
            stats: FaultStats::default(),
        }
    }

    /// True when the session injects faults.
    pub fn is_active(&self) -> bool {
        matches!(self.mode, Mode::Active { .. })
    }

    /// The dispositions accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The active retry policy (the no-retry policy when off — the
    /// off path never consults it).
    pub fn policy(&self) -> RetryPolicy {
        match &self.mode {
            Mode::Off => RetryPolicy::none(),
            Mode::Active { profile, .. } => profile.policy,
        }
    }

    /// Generate the next fault plan from a channel's failure knobs.
    /// Off sessions return the empty plan without drawing.
    pub fn plan(&mut self, knobs: &FaultKnobs) -> FaultPlan {
        match &mut self.mode {
            Mode::Off => FaultPlan::empty(),
            Mode::Active { profile, bias, rng } => FaultPlan::generate(knobs, profile, bias, rng),
        }
    }

    /// The knobs for a transfer whose fault-free body takes
    /// `body_secs` over `channel`.
    pub fn knobs(channel: &Channel, body_secs: f64) -> FaultKnobs {
        FaultKnobs {
            connect_failure_p: channel.connect_failure_p,
            hazard_per_sec: channel.hazard_per_sec,
            transfer_secs: body_secs,
        }
    }

    /// Fold one driver run's dispositions into the session (also bumps
    /// the calling thread's write-only perf counters).
    pub fn absorb(&mut self, run: &FaultRun) {
        self.stats.absorb(run);
        ptperf_obs::perf::incr_fault_injected(run.injected);
        ptperf_obs::perf::incr_fault_retried(run.retried);
        ptperf_obs::perf::incr_fault_recovered(run.recovered);
        ptperf_obs::perf::incr_fault_gave_up(run.gave_up);
    }

    /// Push the session's counters into a recorder as `fault/*` trace
    /// counters. Callers gate this on [`is_active`](Self::is_active)
    /// so Off traces stay byte-identical to the pre-fault-layer ones.
    pub fn emit(&self, rec: &mut dyn Recorder) {
        rec.add("fault/injected", self.stats.injected);
        rec.add("fault/retried", self.stats.retried);
        rec.add("fault/recovered", self.stats.recovered);
        rec.add("fault/gave_up", self.stats.gave_up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptperf_sim::fault::{run_transfer, TransferSpec};
    use ptperf_sim::{SimDuration, TransferModel};

    fn ideal() -> Channel {
        Channel::ideal(TransferModel::new(
            SimDuration::from_millis(200),
            1.0e6,
            0.0,
        ))
    }

    #[test]
    fn off_session_plans_nothing_and_stays_consistent() {
        let ch = ideal();
        let mut s = FaultSession::off();
        assert!(!s.is_active());
        let plan = s.plan(&FaultSession::knobs(&ch, 10.0));
        assert!(plan.is_empty());
        assert_eq!(s.stats(), FaultStats::default());
        assert!(s.stats().consistent());
    }

    #[test]
    fn active_session_accumulates_consistent_stats() {
        let mut ch = ideal();
        ch.connect_failure_p = 0.5;
        ch.hazard_per_sec = 0.2;
        let mut s = FaultSession::active(
            FaultProfile::aggressive(),
            FaultBias::balanced(),
            SimRng::new(42),
        );
        let spec = TransferSpec {
            head: SimDuration::from_millis(500),
            body: SimDuration::from_secs(20),
            resume_head: SimDuration::from_millis(100),
            reconnect_head: SimDuration::from_millis(400),
            timeout: SimDuration::from_secs(120),
        };
        let mut injected = 0;
        for _ in 0..50 {
            let plan = s.plan(&FaultSession::knobs(&ch, 20.0));
            let run = run_transfer(&spec, &plan, &s.policy());
            assert!(run.consistent());
            s.absorb(&run);
            injected += run.injected;
        }
        assert!(injected > 0, "aggressive profile must inject something");
        assert_eq!(s.stats().injected, injected);
        assert!(s.stats().consistent());
    }

    #[test]
    fn identical_seeds_replay_identical_plans() {
        let mut ch = ideal();
        ch.connect_failure_p = 0.3;
        ch.hazard_per_sec = 0.1;
        let knobs = FaultSession::knobs(&ch, 30.0);
        let mk = || {
            FaultSession::active(
                FaultProfile::paper(),
                FaultBias::balanced(),
                SimRng::new(777),
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..20 {
            assert_eq!(a.plan(&knobs), b.plan(&knobs));
        }
    }
}
