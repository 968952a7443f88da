//! The curl client model: a single request for the default page of a
//! website through a SOCKS-fronted tunnel, the paper's primary website
//! workload (§4.2, Figure 2a).

use ptperf_sim::fault::{run_transfer, TransferSpec};
use ptperf_sim::{SimDuration, SimRng};

use crate::channel::{Channel, Outcome};
use crate::faults::FaultSession;
use crate::website::Website;

/// Result of one curl fetch.
#[derive(Debug, Clone, Copy)]
pub struct FetchResult {
    /// Time to first byte: request issued → first response byte.
    /// Measured from the start of the attempt, so it includes channel
    /// setup (as a cold `curl --socks5` invocation would experience).
    pub ttfb: SimDuration,
    /// Total access time (setup + stream + request + full response).
    pub total: SimDuration,
    /// How the attempt ended.
    pub outcome: Outcome,
    /// Fraction of the page that arrived (1.0 for complete fetches).
    pub fraction: f64,
}

/// Page-load timeout used by the paper's curl/selenium website runs
/// (Appendix A.3: 120 s).
pub const PAGE_TIMEOUT: SimDuration = SimDuration::from_secs(120);

/// Fetches a website's default page through `channel`, as
/// `curl --socks5-hostname localhost:9050 https://site/` would.
/// Gives up at [`PAGE_TIMEOUT`].
pub fn fetch(channel: &Channel, site: &Website, rng: &mut SimRng) -> FetchResult {
    let timeout = PAGE_TIMEOUT;
    // Hard connection failure: nothing ever arrives.
    if rng.chance(channel.connect_failure_p) {
        return FetchResult {
            ttfb: timeout,
            total: timeout,
            outcome: Outcome::Failed,
            fraction: 0.0,
        };
    }

    let ttfb = channel.setup
        + channel.stream_open
        + channel.per_request_extra
        + channel.request_rtt
        + site.server_processing;

    if ttfb >= timeout {
        return FetchResult {
            ttfb: timeout,
            total: timeout,
            outcome: Outcome::Failed,
            fraction: 0.0,
        };
    }

    let body_time = channel.transfer_time(site.main_size);
    let total = ttfb + body_time;

    // Connection death during the body transfer (exponential hazard).
    if channel.hazard_per_sec > 0.0 {
        let death_after = rng.exponential(1.0 / channel.hazard_per_sec);
        if death_after < body_time.as_secs_f64() {
            let fraction = (death_after / body_time.as_secs_f64()).clamp(0.0, 1.0);
            let elapsed = ttfb + SimDuration::from_secs_f64(death_after);
            return FetchResult {
                ttfb,
                total: elapsed.min(timeout),
                outcome: Outcome::Partial,
                fraction,
            };
        }
    }

    if total >= timeout {
        // Timed out mid-body: record the fraction that made it.
        let body_budget = timeout.saturating_sub(ttfb);
        let fraction =
            (body_budget.as_secs_f64() / body_time.as_secs_f64().max(1e-9)).clamp(0.0, 1.0);
        return FetchResult {
            ttfb,
            total: timeout,
            outcome: Outcome::Partial,
            fraction,
        };
    }

    FetchResult {
        ttfb,
        total,
        outcome: Outcome::Complete,
        fraction: 1.0,
    }
}

/// [`fetch`] through a [`FaultSession`]: when the session is off this
/// delegates to [`fetch`] with zero extra RNG draws (proven bit-for-bit
/// in `tests/fault_neutrality.rs`); when active, the channel's failure
/// knobs feed a generated [`FaultPlan`](ptperf_sim::fault::FaultPlan)
/// and the transfer runs through the retry/timeout driver instead of
/// the single upfront coin flip.
pub fn fetch_faulted(
    channel: &Channel,
    site: &Website,
    rng: &mut SimRng,
    faults: &mut FaultSession,
) -> FetchResult {
    if !faults.is_active() {
        return fetch(channel, site, rng);
    }
    let timeout = PAGE_TIMEOUT;

    let body_time = channel.transfer_time(site.main_size);
    let spec = TransferSpec {
        head: channel.setup
            + channel.stream_open
            + channel.per_request_extra
            + channel.request_rtt
            + site.server_processing,
        body: body_time,
        resume_head: channel.stream_open + channel.request_rtt,
        reconnect_head: channel.setup + channel.stream_open + channel.request_rtt,
        timeout,
    };
    let plan = faults.plan(&FaultSession::knobs(channel, body_time.as_secs_f64()));
    let run = run_transfer(&spec, &plan, &faults.policy());
    faults.absorb(&run);

    if run.completed {
        return FetchResult {
            ttfb: run.first_byte.unwrap_or(run.elapsed),
            total: run.elapsed.min(timeout),
            outcome: Outcome::Complete,
            fraction: 1.0,
        };
    }
    match run.first_byte {
        // Nothing of the body ever arrived: refused connects or a head
        // slower than the timeout — a failed fetch, like the old model.
        None => FetchResult {
            ttfb: timeout,
            total: timeout,
            outcome: Outcome::Failed,
            fraction: 0.0,
        },
        Some(ttfb) if run.fraction > 0.0 => FetchResult {
            ttfb,
            total: run.elapsed.min(timeout),
            outcome: Outcome::Partial,
            fraction: run.fraction.clamp(0.0, 1.0),
        },
        Some(_) => FetchResult {
            ttfb: timeout,
            total: timeout,
            outcome: Outcome::Failed,
            fraction: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::website::SiteList;
    use ptperf_sim::TransferModel;

    fn channel(rate: f64) -> Channel {
        Channel::ideal(TransferModel::new(SimDuration::from_millis(200), rate, 0.0))
    }

    fn site() -> Website {
        Website::generate(SiteList::Tranco, 0)
    }

    #[test]
    fn clean_fetch_completes() {
        let mut rng = SimRng::new(1);
        let r = fetch(&channel(1.0e6), &site(), &mut rng);
        assert_eq!(r.outcome, Outcome::Complete);
        assert_eq!(r.fraction, 1.0);
        assert!(r.total > r.ttfb);
    }

    #[test]
    fn ttfb_includes_setup_and_server_think() {
        let mut rng = SimRng::new(2);
        let mut ch = channel(1.0e6);
        ch.setup = SimDuration::from_secs(3);
        let s = site();
        let r = fetch(&ch, &s, &mut rng);
        assert!(r.ttfb >= SimDuration::from_secs(3) + s.server_processing);
    }

    #[test]
    fn slow_channel_takes_longer() {
        let mut rng_a = SimRng::new(3);
        let mut rng_b = SimRng::new(3);
        let fast = fetch(&channel(2.0e6), &site(), &mut rng_a);
        let slow = fetch(&channel(50.0e3), &site(), &mut rng_b);
        assert!(slow.total > fast.total);
    }

    #[test]
    fn connect_failure_yields_failed() {
        let mut rng = SimRng::new(4);
        let mut ch = channel(1.0e6);
        ch.connect_failure_p = 1.0;
        let r = fetch(&ch, &site(), &mut rng);
        assert_eq!(r.outcome, Outcome::Failed);
        assert_eq!(r.fraction, 0.0);
    }

    #[test]
    fn high_hazard_yields_partials() {
        let mut rng = SimRng::new(5);
        let mut ch = channel(20_000.0); // slow: body takes several seconds
        ch.hazard_per_sec = 5.0; // dies within ~0.2 s on average
        let mut partials = 0;
        for _ in 0..50 {
            let r = fetch(&ch, &site(), &mut rng);
            if r.outcome == Outcome::Partial {
                partials += 1;
                assert!(r.fraction < 1.0);
                assert!(r.fraction >= 0.0);
            }
        }
        assert!(partials > 30, "only {partials} partials");
    }

    #[test]
    fn timeout_truncates() {
        let mut rng = SimRng::new(6);
        let ch = channel(100.0); // well over the page timeout
        let r = fetch(&ch, &site(), &mut rng);
        assert_eq!(r.outcome, Outcome::Partial);
        assert_eq!(r.total, PAGE_TIMEOUT);
        assert!(r.fraction < 1.0);
    }

    #[test]
    fn setup_slower_than_timeout_fails() {
        let mut rng = SimRng::new(7);
        let mut ch = channel(1.0e6);
        ch.setup = SimDuration::from_secs(200);
        let r = fetch(&ch, &site(), &mut rng);
        assert_eq!(r.outcome, Outcome::Failed);
    }

    #[test]
    fn off_session_is_bit_identical_to_plain_fetch() {
        let mut ch = channel(30_000.0);
        ch.connect_failure_p = 0.2;
        ch.hazard_per_sec = 0.5;
        let mut a = SimRng::new(99);
        let mut b = SimRng::new(99);
        let mut off = FaultSession::off();
        for _ in 0..100 {
            let plain = fetch(&ch, &site(), &mut a);
            let faulted = fetch_faulted(&ch, &site(), &mut b, &mut off);
            assert_eq!(plain.ttfb, faulted.ttfb);
            assert_eq!(plain.total, faulted.total);
            assert_eq!(plain.outcome, faulted.outcome);
            assert_eq!(plain.fraction.to_bits(), faulted.fraction.to_bits());
        }
        assert_eq!(off.stats(), crate::faults::FaultStats::default());
    }

    #[test]
    fn active_session_retries_through_faults() {
        use ptperf_sim::fault::{FaultBias, FaultProfile};
        // Aggressive multiplies these 4× / 8×; keep the effective rates
        // hostile but survivable so retries can actually save fetches.
        let mut ch = channel(1.0e6);
        ch.connect_failure_p = 0.1;
        ch.hazard_per_sec = 0.05;
        let mut rng = SimRng::new(12);
        let mut s = FaultSession::active(
            FaultProfile::aggressive(),
            FaultBias::balanced(),
            SimRng::new(12_000),
        );
        let mut complete = 0;
        for _ in 0..60 {
            let r = fetch_faulted(&ch, &site(), &mut rng, &mut s);
            assert!(r.total <= PAGE_TIMEOUT);
            assert!((0.0..=1.0).contains(&r.fraction));
            if r.outcome == Outcome::Complete {
                assert_eq!(r.fraction, 1.0);
                complete += 1;
            }
        }
        assert!(
            s.stats().injected > 0,
            "aggressive profile injected nothing"
        );
        assert!(s.stats().retried > 0, "no event was ever retried");
        assert!(complete > 0, "retries should save some fetches");
        assert!(s.stats().consistent());
    }
}
