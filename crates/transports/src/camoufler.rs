//! camoufler — tunneling over instant-messaging channels.
//!
//! The client exchanges messages with an IM account in an uncensored
//! region; the peer runs the proxy. The censor sees only end-to-end
//! encrypted IM traffic. Two IM-platform constraints shape performance
//! (§2, §4.2, §4.3):
//!
//! * **API rate limits** on message sends/receives — the paper's
//!   explanation for camoufler's high access (12.8 s median) and
//!   download times (3× obfs4);
//! * **no multiplexing**: one logical stream at a time, which is why the
//!   paper could not evaluate camoufler under selenium at all.
//!
//! Implemented pieces: the performance model only — the API quota caps
//! bulk throughput at messages per second × [`MAX_MESSAGE_PAYLOAD`]. The
//! IM message codec fixes no model figure and is not implemented.

use ptperf_sim::{Location, SimDuration, SimRng};
use ptperf_web::Channel;

use crate::common::{own_host_channel, EstablishScratch};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Maximum payload per IM message (attachment-style chunk).
pub const MAX_MESSAGE_PAYLOAD: usize = 60_000;

/// Round trips to the IM peer before the tunnel carries data: login and
/// session setup through the IM service's servers, which sit between
/// client and peer (the model adds them as the circuit's via host).
pub const HANDSHAKE_ROUND_TRIPS: u32 = 3;

/// The camoufler transport model.
pub struct Camoufler {
    /// IM API message quota (messages per second).
    pub api_rate_per_sec: f64,
}

impl Default for Camoufler {
    fn default() -> Self {
        // Typical IM platform API quota territory: ~5 msgs/s sustained.
        Camoufler {
            api_rate_per_sec: 5.0,
        }
    }
}

impl PluggableTransport for Camoufler {
    fn id(&self) -> PtId {
        PtId::Camoufler
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        let mut ch = own_host_channel(
            PtId::Camoufler,
            HANDSHAKE_ROUND_TRIPS,
            dep,
            opts,
            dest,
            rng,
            scratch,
        );
        // Bulk throughput = message quota × payload per message.
        ch.rate_cap = Some(self.api_rate_per_sec * MAX_MESSAGE_PAYLOAD as f64);
        // Every request rides the IM polling/batching cycle: the peer
        // must notice, fetch, forward, and the reply must return through
        // the same quota — several seconds, strongly jittered (the TTFB
        // band the paper reports is 2.5–17.5 s).
        ch.per_request_extra = SimDuration::from_secs_f64(rng.lognormal(6.5, 0.5));
        // No stream multiplexing: selenium cannot run over camoufler.
        ch.max_parallel_streams = 1;
        // IM sessions occasionally refuse/expire (the ~10% "not at all"
        // bar in Fig. 8a).
        ch.connect_failure_p = 0.09;
        // Established IM sessions are stable; failures are mostly at
        // session setup (above), so bulk downloads complete — slowly.
        ch.hazard_per_sec = 1.0 / 700.0;
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn establish_reflects_im_constraints() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(10);
        let ch = Camoufler::default().establish(&dep, &opts, Location::NewYork, &mut rng);
        assert_eq!(ch.max_parallel_streams, 1);
        assert!(ch.per_request_extra > SimDuration::from_secs(2));
        // 5 messages/s × 60,000 bytes per message.
        assert_eq!(ch.rate_cap, Some(300_000.0));
        assert!(ch.connect_failure_p > 0.05);
    }
}
