//! Bulk file downloads (§4.3 / Figure 5) and the reliability accounting
//! built on them (§4.6 / Figure 8).
//!
//! The paper hosted files of 5/10/20/50/100 MB on its own servers and
//! downloaded each through every PT, recording complete/partial/failed
//! outcomes and the fraction of the file that arrived.

use ptperf_sim::fault::{run_transfer, TransferSpec};
use ptperf_sim::{SimDuration, SimRng};

use crate::channel::{Channel, Outcome};
use crate::faults::FaultSession;

/// The file sizes used throughout the paper, in bytes.
pub const FILE_SIZES: [u64; 5] = [
    5 * 1_000_000,
    10 * 1_000_000,
    20 * 1_000_000,
    50 * 1_000_000,
    100 * 1_000_000,
];

/// Download timeout used by the paper (Appendix A.3: 1200 s; unreliable
/// PTs were retried with 7200 s and the results did not change).
pub const FILE_TIMEOUT: SimDuration = SimDuration::from_secs(1200);

/// Result of one bulk download attempt.
#[derive(Debug, Clone, Copy)]
pub struct Download {
    /// Wall time until the attempt ended (completion, death, or timeout).
    pub elapsed: SimDuration,
    /// Fraction of the file that reached the client.
    pub fraction: f64,
    /// How the attempt ended.
    pub outcome: Outcome,
}

/// Downloads `bytes` through `channel`, giving up at [`FILE_TIMEOUT`].
pub fn download(channel: &Channel, bytes: u64, rng: &mut SimRng) -> Download {
    let timeout = FILE_TIMEOUT;
    if rng.chance(channel.connect_failure_p) {
        return Download {
            elapsed: timeout,
            fraction: 0.0,
            outcome: Outcome::Failed,
        };
    }

    let head =
        channel.setup + channel.stream_open + channel.per_request_extra + channel.request_rtt;
    if head >= timeout {
        return Download {
            elapsed: timeout,
            fraction: 0.0,
            outcome: Outcome::Failed,
        };
    }

    let body_time = channel.transfer_time(bytes);
    let ideal_total = head + body_time;

    // Death during the (long) body phase.
    if channel.hazard_per_sec > 0.0 {
        let death_after = rng.exponential(1.0 / channel.hazard_per_sec);
        if death_after < body_time.as_secs_f64() {
            let at = head + SimDuration::from_secs_f64(death_after);
            let fraction = (death_after / body_time.as_secs_f64()).clamp(0.0, 1.0);
            return Download {
                elapsed: at.min(timeout),
                fraction,
                outcome: if fraction <= 0.001 {
                    Outcome::Failed
                } else {
                    Outcome::Partial
                },
            };
        }
    }

    if ideal_total >= timeout {
        let body_budget = timeout.saturating_sub(head);
        let fraction =
            (body_budget.as_secs_f64() / body_time.as_secs_f64().max(1e-9)).clamp(0.0, 1.0);
        return Download {
            elapsed: timeout,
            fraction,
            outcome: Outcome::Partial,
        };
    }

    Download {
        elapsed: ideal_total,
        fraction: 1.0,
        outcome: Outcome::Complete,
    }
}

/// [`download`] through a [`FaultSession`]: off sessions delegate to
/// [`download`] bit-for-bit; active sessions replace the upfront coin
/// flip and inline hazard draw with a generated fault plan driven
/// through the retry/timeout state machine — aborts resume from the
/// delivered prefix, churn pays full re-establishment, stalls extend
/// the clock, and the 1200 s timeout still bounds everything.
pub fn download_faulted(
    channel: &Channel,
    bytes: u64,
    rng: &mut SimRng,
    faults: &mut FaultSession,
) -> Download {
    if !faults.is_active() {
        return download(channel, bytes, rng);
    }
    let timeout = FILE_TIMEOUT;

    let body_time = channel.transfer_time(bytes);
    let spec = TransferSpec {
        head: channel.setup + channel.stream_open + channel.per_request_extra + channel.request_rtt,
        body: body_time,
        resume_head: channel.stream_open + channel.request_rtt,
        reconnect_head: channel.setup + channel.stream_open + channel.request_rtt,
        timeout,
    };
    let plan = faults.plan(&FaultSession::knobs(channel, body_time.as_secs_f64()));
    let run = run_transfer(&spec, &plan, &faults.policy());
    faults.absorb(&run);

    if run.completed {
        return Download {
            elapsed: run.elapsed.min(timeout),
            fraction: 1.0,
            outcome: Outcome::Complete,
        };
    }
    if run.first_byte.is_none() {
        // Refused connects or a head past the timeout: nothing arrived.
        return Download {
            elapsed: timeout,
            fraction: 0.0,
            outcome: Outcome::Failed,
        };
    }
    let fraction = run.fraction.clamp(0.0, 1.0);
    Download {
        elapsed: run.elapsed.min(timeout),
        fraction,
        // The same near-zero corner rule the plain model uses.
        outcome: if fraction <= 0.001 {
            Outcome::Failed
        } else {
            Outcome::Partial
        },
    }
}

/// Aggregated reliability counts over repeated attempts (Fig. 8a's
/// stacked bars).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityCounts {
    /// Attempts that delivered every byte.
    pub complete: usize,
    /// Attempts that delivered some bytes.
    pub partial: usize,
    /// Attempts that delivered nothing.
    pub failed: usize,
}

impl ReliabilityCounts {
    /// Records one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Complete => self.complete += 1,
            Outcome::Partial => self.partial += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    /// Total attempts recorded.
    pub fn total(&self) -> usize {
        self.complete + self.partial + self.failed
    }

    /// Fractions `(complete, partial, failed)`; zeros when empty.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = t as f64;
        (
            self.complete as f64 / t,
            self.partial as f64 / t,
            self.failed as f64 / t,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptperf_sim::TransferModel;

    fn channel(rate: f64, hazard: f64) -> Channel {
        let mut ch = Channel::ideal(TransferModel::new(SimDuration::from_millis(200), rate, 0.0));
        ch.hazard_per_sec = hazard;
        ch
    }

    #[test]
    fn clean_download_completes() {
        let mut rng = SimRng::new(1);
        let d = download(&channel(1.0e6, 0.0), FILE_SIZES[0], &mut rng);
        assert_eq!(d.outcome, Outcome::Complete);
        assert_eq!(d.fraction, 1.0);
        // 5 MB at 1 MB/s ≈ 5 s + change.
        assert!(d.elapsed.as_secs_f64() > 4.0 && d.elapsed.as_secs_f64() < 10.0);
    }

    #[test]
    fn elapsed_scales_with_size() {
        let mut rng = SimRng::new(2);
        let ch = channel(1.0e6, 0.0);
        let small = download(&ch, FILE_SIZES[0], &mut rng);
        let large = download(&ch, FILE_SIZES[4], &mut rng);
        assert!(large.elapsed.as_secs_f64() > small.elapsed.as_secs_f64() * 10.0);
    }

    #[test]
    fn fragile_channel_mostly_partial_on_large_files() {
        let mut rng = SimRng::new(3);
        // 100 s transfer with a death every ~20 s on average.
        let ch = channel(1.0e6, 0.05);
        let mut counts = ReliabilityCounts::default();
        for _ in 0..100 {
            counts.record(download(&ch, FILE_SIZES[4], &mut rng).outcome);
        }
        let (complete, partial, _) = counts.fractions();
        assert!(partial > 0.8, "partial fraction {partial}");
        assert!(complete < 0.2, "complete fraction {complete}");
    }

    #[test]
    fn same_hazard_rarely_hurts_small_fetches() {
        let mut rng = SimRng::new(4);
        let ch = channel(1.0e6, 0.05);
        let mut counts = ReliabilityCounts::default();
        for _ in 0..100 {
            // 100 KB fetch: ~0.1 s exposure.
            counts.record(download(&ch, 100_000, &mut rng).outcome);
        }
        let (complete, _, _) = counts.fractions();
        assert!(complete > 0.9, "complete fraction {complete}");
    }

    #[test]
    fn timeout_gives_partial_with_fraction() {
        let mut rng = SimRng::new(5);
        let ch = channel(10_000.0, 0.0); // 100 MB would take ~10,000 s
        let d = download(&ch, FILE_SIZES[4], &mut rng);
        assert_eq!(d.outcome, Outcome::Partial);
        assert_eq!(d.elapsed, FILE_TIMEOUT);
        assert!(
            d.fraction > 0.05 && d.fraction < 0.25,
            "fraction {}",
            d.fraction
        );
    }

    #[test]
    fn connect_failure_delivers_nothing() {
        let mut rng = SimRng::new(6);
        let mut ch = channel(1.0e6, 0.0);
        ch.connect_failure_p = 1.0;
        let d = download(&ch, FILE_SIZES[0], &mut rng);
        assert_eq!(d.outcome, Outcome::Failed);
        assert_eq!(d.fraction, 0.0);
    }

    #[test]
    fn reliability_counts_accumulate() {
        let mut c = ReliabilityCounts::default();
        c.record(Outcome::Complete);
        c.record(Outcome::Partial);
        c.record(Outcome::Partial);
        c.record(Outcome::Failed);
        assert_eq!(c.total(), 4);
        let (comp, part, fail) = c.fractions();
        assert_eq!(comp, 0.25);
        assert_eq!(part, 0.5);
        assert_eq!(fail, 0.25);
    }

    #[test]
    fn empty_counts_fractions_are_zero() {
        assert_eq!(ReliabilityCounts::default().fractions(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn off_session_is_bit_identical_to_plain_download() {
        let mut ch = channel(200_000.0, 0.02);
        ch.connect_failure_p = 0.15;
        let mut a = SimRng::new(31);
        let mut b = SimRng::new(31);
        let mut off = FaultSession::off();
        for &size in &FILE_SIZES {
            for _ in 0..20 {
                let plain = download(&ch, size, &mut a);
                let faulted = download_faulted(&ch, size, &mut b, &mut off);
                assert_eq!(plain.elapsed, faulted.elapsed);
                assert_eq!(plain.outcome, faulted.outcome);
                assert_eq!(plain.fraction.to_bits(), faulted.fraction.to_bits());
            }
        }
    }

    #[test]
    fn retries_recover_transfers_the_plain_model_loses() {
        use crate::faults::FaultSession;
        use ptperf_sim::fault::{FaultBias, FaultProfile, RetryPolicy};
        // A channel fragile enough that the plain model almost never
        // completes a 100 MB transfer (death every ~20 s of a ~100 s
        // body), but whose faults are mostly recoverable under retry —
        // the paper profile is deliberately one-shot, so graft the
        // standard recovery policy onto it.
        let ch = channel(1.0e6, 0.05);
        let mut rng = SimRng::new(8);
        let mut s = FaultSession::active(
            FaultProfile {
                policy: RetryPolicy::standard(),
                ..FaultProfile::paper()
            },
            FaultBias {
                abort: 1.0,
                stall: 1.0,
                churn: 0.2,
            },
            SimRng::new(800),
        );
        let mut counts = ReliabilityCounts::default();
        for _ in 0..60 {
            let d = download_faulted(&ch, FILE_SIZES[4], &mut rng, &mut s);
            assert!(d.elapsed <= FILE_TIMEOUT);
            counts.record(d.outcome);
        }
        let (complete, _, _) = counts.fractions();
        assert!(
            complete > 0.2,
            "retry layer recovered almost nothing: complete {complete}"
        );
        assert!(s.stats().consistent());
        assert!(s.stats().retried > 0);
    }

    #[test]
    fn dead_channel_fails_through_the_fault_layer_too() {
        use crate::faults::FaultSession;
        use ptperf_sim::fault::{FaultBias, FaultProfile};
        let mut ch = channel(1.0e6, 0.0);
        ch.connect_failure_p = 1.0;
        let mut rng = SimRng::new(9);
        let mut s = FaultSession::active(
            FaultProfile::paper(),
            FaultBias::balanced(),
            SimRng::new(900),
        );
        let d = download_faulted(&ch, FILE_SIZES[0], &mut rng, &mut s);
        assert_eq!(d.outcome, Outcome::Failed);
        assert_eq!(d.fraction, 0.0);
        assert!(s.stats().gave_up >= 1);
    }
}
