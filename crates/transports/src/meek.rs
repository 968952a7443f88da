//! meek — domain fronting through a CDN.
//!
//! The client speaks ordinary HTTPS to a fronting CDN edge; the real
//! destination (the meek bridge) travels in the encrypted `Host` header.
//! Tor traffic is carried in the bodies of `POST` requests and their
//! responses; when idle, the client polls with empty `POST`s on an
//! exponential back-off.
//!
//! Implemented pieces: the performance model only — domain-front TLS
//! setup, per-request front processing (one lognormal delay per request;
//! the idle-poll back-off is not simulated), the **bridge rate limit**
//! (the public meek bridge is rate-limited by its maintainer (paper
//! ref. 28) — the paper's explanation for both meek's high TTFB and its
//! bulk-download failures). The HTTP codec fixes no model figure and is
//! not implemented.

use ptperf_sim::{Location, SimDuration, SimRng};
use ptperf_web::Channel;

use crate::common::{bootstrap_time, tor_channel_with, EstablishScratch, FirstHop, TorChannelSpec};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Round trips to the fronting CDN edge before the tunnel carries data:
/// TCP and TLS on a short path. The edge then holds its own pooled
/// connection to the bridge.
pub const HANDSHAKE_ROUND_TRIPS: u32 = 2;

/// The meek transport model.
pub struct Meek;

impl PluggableTransport for Meek {
    fn id(&self) -> PtId {
        PtId::Meek
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        let bridge = dep.bridge(PtId::Meek);
        // The fronting CDN edge is anycast-near the client.
        let front_edge = opts.client; // nearest edge = client's region
        let bootstrap = bootstrap_time(opts, front_edge, HANDSHAKE_ROUND_TRIPS, rng);

        let mut ch = tor_channel_with(
            dep,
            opts,
            TorChannelSpec {
                first_hop: FirstHop::Bridge(bridge),
                via: None,
                guard_load_mult: opts.load_mult,
            },
            dest,
            rng,
            scratch,
        );
        ch.setup += bootstrap;
        // Every request transits the front: TLS termination, header
        // rewrite, queueing at the edge and the (rate-limited) bridge.
        // Median ~2.8 s with a long right tail — this is what pushes
        // meek's TTFB into the paper's 2.5–7.5 s band (Fig. 6).
        ch.per_request_extra = SimDuration::from_secs_f64(rng.lognormal(2.8, 0.40));
        // The public meek bridge is rate-limited by its maintainer.
        ch.rate_cap = Some(rng.range_f64(80_000.0, 140_000.0));
        // Sustained bulk flows trip the rate limiter / get reset; short
        // web fetches rarely notice (§4.6).
        ch.hazard_per_sec = 1.0 / 25.0;
        ch.connect_failure_p = 0.09;
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn establish_is_rate_capped_and_fragile() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(4);
        let ch = Meek.establish(&dep, &opts, Location::NewYork, &mut rng);
        let cap = ch.rate_cap.expect("meek must be rate-capped");
        assert!(cap < 200_000.0);
        assert!(ch.hazard_per_sec > 0.0);
        assert!(ch.per_request_extra > SimDuration::from_millis(300));
    }
}
