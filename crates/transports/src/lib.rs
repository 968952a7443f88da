//! # ptperf-transports — the twelve evaluated pluggable transports
//!
//! One module per PT, with up to two halves:
//!
//! * a **wire protocol** over real bytes (handshakes, framing, carrier
//!   codecs), only where a model figure is tied to it: the framing
//!   overheads, handshake round trips and carrier payload bounds the
//!   performance model charges are *derived* from these codecs, and the
//!   `codec_model` test holds each figure to its codec (psiphon's packet
//!   codec is kept for a tie its overhead does not meet yet). meek,
//!   conjure and camoufler have no codec: no figure of theirs rests on
//!   one;
//! * a **channel model** implementing [`PluggableTransport::establish`]:
//!   it composes the transport's bootstrap cost, hop structure (§4.1),
//!   carrier constraints (DNS response limits, IM API quotas, CDN rate
//!   limits, volunteer-proxy churn), and the shared Tor-circuit
//!   machinery into a [`ptperf_web::Channel`].
//!
//! The [`Deployment`] registers each PT's host, a bridge relay or a
//! server outside the consensus, and [`common::own_host_channel`] builds
//! the first hop from it for the nine PTs whose handshake runs to that
//! host. Meek, snowflake, dnstt and vanilla Tor call
//! [`common::tor_channel_with`] directly: their handshake endpoint is a
//! CDN edge, a broker and volunteer proxy, a DoH resolver, or a fixed
//! path, not their host.
//!
//! | PT | category | distinguishing mechanism |
//! |---|---|---|
//! | [`obfs4`] | fully encrypted | ntor handshake (X25519), obfuscated frames |
//! | [`shadowsocks`] | fully encrypted | AEAD chunk stream, zero-RTT |
//! | [`meek`] | proxy layer | HTTP POST polling through a CDN front |
//! | [`psiphon`] | proxy layer | SSH binary packets |
//! | [`conjure`] | proxy layer | phantom-address registration |
//! | [`snowflake`] | proxy layer | broker + volunteer WebRTC proxies |
//! | [`dnstt`] | tunneling | query-clocked 512-byte DNS responses |
//! | [`camoufler`] | tunneling | IM messages under API quotas |
//! | [`webtunnel`] | tunneling | HTTPS upgrade tunnel |
//! | [`cloak`] | mimicry | steg ClientHello auth + mux |
//! | [`stegotorus`] | mimicry | chopper over parallel connections |
//! | [`marionette`] | mimicry | probabilistic-automaton DSL |
//! | [`vanilla`] | — | baseline: volunteer guard, no PT |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod camoufler;
pub mod cloak;
pub mod common;
pub mod conjure;
pub mod dnstt;
pub mod faults;
pub mod ids;
pub mod marionette;
pub mod meek;
pub mod obfs4;
pub mod psiphon;
pub mod shadowsocks;
pub mod snowflake;
pub mod stegotorus;
pub mod transport;
pub mod vanilla;
pub mod webtunnel;

pub use common::EstablishScratch;
pub use faults::fault_bias;
pub use ids::{Category, PtId};
pub use transport::{AccessOptions, Deployment, PluggableTransport, PtServer};

/// Instantiates the transport implementation for `pt` with its default
/// configuration.
pub fn transport_for(pt: PtId) -> Box<dyn PluggableTransport> {
    match pt {
        PtId::Vanilla => Box::new(vanilla::Vanilla),
        PtId::Obfs4 => Box::new(obfs4::Obfs4::default()),
        PtId::Shadowsocks => Box::new(shadowsocks::Shadowsocks),
        PtId::Meek => Box::new(meek::Meek),
        PtId::Psiphon => Box::new(psiphon::Psiphon),
        PtId::Conjure => Box::new(conjure::Conjure),
        PtId::Snowflake => Box::new(snowflake::Snowflake),
        PtId::Dnstt => Box::new(dnstt::Dnstt::default()),
        PtId::Camoufler => Box::new(camoufler::Camoufler::default()),
        PtId::WebTunnel => Box::new(webtunnel::WebTunnel),
        PtId::Cloak => Box::new(cloak::Cloak),
        PtId::Stegotorus => Box::new(stegotorus::Stegotorus),
        PtId::Marionette => Box::new(marionette::Marionette::default()),
    }
}

/// All thirteen measured configurations (vanilla + 12 PTs), instantiated.
pub fn all_transports() -> Vec<Box<dyn PluggableTransport>> {
    PtId::ALL_WITH_VANILLA
        .iter()
        .map(|&pt| transport_for(pt))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptperf_sim::{Location, SimRng};

    #[test]
    fn registry_covers_every_pt() {
        for pt in PtId::ALL_WITH_VANILLA {
            assert_eq!(transport_for(pt).id(), pt);
        }
        assert_eq!(all_transports().len(), 13);
    }

    #[test]
    fn every_transport_establishes_a_sane_channel() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(42);
        for t in all_transports() {
            let ch = t.establish(&dep, &opts, Location::NewYork, &mut rng);
            assert!(
                ch.setup > ptperf_sim::SimDuration::ZERO,
                "{}: zero setup",
                t.id()
            );
            assert!(
                ch.response.bottleneck_bps > 1_000.0,
                "{}: bottleneck {}",
                t.id(),
                ch.response.bottleneck_bps
            );
            assert!(
                (0.0..=1.0).contains(&ch.connect_failure_p),
                "{}: bad failure p",
                t.id()
            );
            assert!(ch.hazard_per_sec >= 0.0, "{}", t.id());
            assert!(ch.max_parallel_streams >= 1, "{}", t.id());
        }
    }

    #[test]
    fn establishment_is_deterministic_per_seed() {
        let dep = Deployment::standard(7, Location::Frankfurt);
        let opts = AccessOptions::new(Location::Toronto);
        for pt in PtId::ALL_WITH_VANILLA {
            let t = transport_for(pt);
            let mut a = SimRng::new(99);
            let mut b = SimRng::new(99);
            let ca = t.establish(&dep, &opts, Location::Singapore, &mut a);
            let cb = t.establish(&dep, &opts, Location::Singapore, &mut b);
            assert_eq!(ca.setup, cb.setup, "{pt}");
            assert_eq!(
                ca.response.bottleneck_bps, cb.response.bottleneck_bps,
                "{pt}"
            );
        }
    }
}
