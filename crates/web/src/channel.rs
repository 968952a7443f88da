//! The access-channel abstraction: what a workload client (curl, browser,
//! file downloader) needs to know about the tunnel it fetches through.
//!
//! A [`Channel`] is produced per-measurement by the transport layer
//! (`ptperf-transports`) and consumed here. It deliberately contains only
//! *mechanical* quantities — setup time already spent, per-stream costs,
//! a transfer model, carrier caps, a connection-death hazard — so the
//! workload layer stays agnostic about which of the twelve PTs produced
//! it.

use ptperf_sim::{SimDuration, TransferModel};

/// A ready-to-use tunnel to the web, as seen by a client program.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Time spent establishing the tunnel before the first request could
    /// be issued (PT handshake + circuit build). Included in access time,
    /// exactly like the paper's measurements which start each timed fetch
    /// from a cold channel.
    pub setup: SimDuration,
    /// Cost of opening one logical stream (e.g. RELAY_BEGIN round trip +
    /// exit-side TCP connect).
    pub stream_open: SimDuration,
    /// Time from writing a request into the tunnel until the first
    /// response byte emerges (one tunnel round trip; server think time is
    /// added separately by the client from the website model).
    pub request_rtt: SimDuration,
    /// Transfer model for response payload through the tunnel.
    pub response: TransferModel,
    /// Carrier-imposed goodput ceiling, if the transport's medium caps
    /// throughput below the path bottleneck (dnstt's DNS window,
    /// camoufler's IM API rate, meek's bridge rate limit).
    pub rate_cap: Option<f64>,
    /// Extra fixed delay per request (e.g. meek's fronting-edge
    /// processing, camoufler's message batching).
    pub per_request_extra: SimDuration,
    /// Maximum concurrent streams the transport supports. Camoufler
    /// supports 1 (the paper could not run selenium over it, §4.2).
    pub max_parallel_streams: usize,
    /// Connection-death hazard rate (events per second of transfer).
    /// Long transfers through fragile carriers (snowflake proxy churn,
    /// meek bridge rate-limit resets, dnstt resolver session drops) die
    /// mid-flight; short website fetches rarely notice.
    pub hazard_per_sec: f64,
    /// Probability that the tunnel fails before delivering anything at
    /// all (the paper's "not at all downloaded" category, Fig. 8a).
    pub connect_failure_p: f64,
}

impl Channel {
    /// A perfect channel over a bare transfer model — useful for tests
    /// and for "direct Internet" baselines.
    pub fn ideal(response: TransferModel) -> Channel {
        Channel {
            setup: SimDuration::ZERO,
            stream_open: SimDuration::ZERO,
            request_rtt: response.rtt,
            response,
            rate_cap: None,
            per_request_extra: SimDuration::ZERO,
            max_parallel_streams: usize::MAX,
            hazard_per_sec: 0.0,
            connect_failure_p: 0.0,
        }
    }

    /// The effective goodput for bulk payload, honoring the carrier cap.
    pub fn effective_rate(&self) -> f64 {
        let base = self.response.bottleneck_bps;
        match self.rate_cap {
            Some(cap) => base.min(cap),
            None => base,
        }
    }

    /// The transfer model with the carrier cap folded in.
    pub fn capped_model(&self) -> TransferModel {
        let mut m = self.response;
        if let Some(cap) = self.rate_cap {
            m.bottleneck_bps = m.bottleneck_bps.min(cap);
        }
        m
    }

    /// Time to move `bytes` of response payload through the channel.
    ///
    /// Carrier caps are *clocked* limits (a DNS window, an IM quota, a
    /// bridge rate limiter): unlike a TCP bottleneck they bind from the
    /// first byte, so the duration is floored at the fluid time
    /// `bytes / cap`.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        let base = self.capped_model().duration(bytes);
        match self.rate_cap {
            Some(cap) => base.max(SimDuration::from_secs_f64(bytes as f64 / cap)),
            None => base,
        }
    }
}

/// Terminal outcome of a download attempt (the paper's Fig. 8a
/// categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every byte arrived.
    Complete,
    /// The transfer died or timed out partway.
    Partial,
    /// Nothing arrived at all.
    Failed,
}

impl Outcome {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Complete => "complete",
            Outcome::Partial => "partial",
            Outcome::Failed => "failed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptperf_sim::SimDuration;

    fn model() -> TransferModel {
        TransferModel::new(SimDuration::from_millis(100), 1.0e6, 0.0)
    }

    #[test]
    fn ideal_channel_is_free() {
        let ch = Channel::ideal(model());
        assert_eq!(ch.setup, SimDuration::ZERO);
        assert_eq!(ch.connect_failure_p, 0.0);
        assert_eq!(ch.effective_rate(), 1.0e6);
    }

    #[test]
    fn rate_cap_binds() {
        let mut ch = Channel::ideal(model());
        ch.rate_cap = Some(50_000.0);
        assert_eq!(ch.effective_rate(), 50_000.0);
        // A 1 MB transfer takes ≥ 20 s under a 50 kB/s cap.
        assert!(ch.transfer_time(1_000_000).as_secs_f64() >= 20.0);
    }

    #[test]
    fn cap_above_bottleneck_is_inert() {
        let mut ch = Channel::ideal(model());
        ch.rate_cap = Some(10.0e6);
        assert_eq!(ch.effective_rate(), 1.0e6);
        assert_eq!(
            ch.transfer_time(500_000),
            Channel::ideal(model()).transfer_time(500_000)
        );
    }

    #[test]
    fn outcome_labels() {
        assert_eq!(Outcome::Complete.label(), "complete");
        assert_eq!(Outcome::Partial.label(), "partial");
        assert_eq!(Outcome::Failed.label(), "failed");
    }
}
