//! dnstt — tunneling through DNS-over-HTTPS/TLS resolvers.
//!
//! Upstream data is base32-encoded into the labels of queries for
//! subdomains of the tunnel domain; the public DoH resolver forwards them
//! to the dnstt server (the authoritative nameserver), which answers with
//! TXT records carrying downstream data. Two structural constraints
//! dominate performance (§2, §4.6):
//!
//! * **response size**: a public DoH resolver supports ~512-byte
//!   responses, so every downstream batch is tiny;
//! * **query clocking**: downstream data only flows in response to
//!   queries, so goodput ≤ window × payload / resolver-RTT, and resolver
//!   rate limits cap sustained query streams.
//!
//! Implemented pieces: the TXT-response message codec, which
//! `codec_model` ties to [`RESPONSE_PAYLOAD`] (a full payload fits one
//! [`MAX_RESPONSE`]-byte response), and the window-throughput formula
//! used by the model. The upstream query encoding fixes no model figure
//! and is not implemented.

use ptperf_sim::{sample_path, Location, SimDuration, SimRng};
use ptperf_web::Channel;

use crate::common::{bootstrap_time, tor_channel_with, EstablishScratch, FirstHop, TorChannelSpec};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Maximum DNS response size a public DoH resolver typically supports
/// (the paper cites 512 bytes).
pub const MAX_RESPONSE: usize = 512;

/// Useful downstream payload per response after the DNS envelope.
pub const RESPONSE_PAYLOAD: usize = 460;

/// Builds a TXT response carrying `payload` (≤ [`RESPONSE_PAYLOAD`]).
pub fn encode_response(id: u16, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= RESPONSE_PAYLOAD,
        "response payload too large"
    );
    let mut out = Vec::with_capacity(12 + 12 + payload.len());
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&[0x84, 0x00]); // QR=1 AA=1
    out.extend_from_slice(&[0, 0]); // QDCOUNT 0 (compressed away)
    out.extend_from_slice(&1u16.to_be_bytes()); // ANCOUNT
    out.extend_from_slice(&[0, 0, 0, 0]);
    // Answer: root name pointer (0), TYPE TXT, CLASS IN, TTL 0, RDLENGTH.
    out.push(0);
    out.extend_from_slice(&16u16.to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes());
    out.extend_from_slice(&0u32.to_be_bytes());
    // TXT RDATA: length-prefixed strings of ≤255 bytes.
    let mut rdata = Vec::new();
    for part in payload.chunks(255) {
        rdata.push(part.len() as u8);
        rdata.extend_from_slice(part);
    }
    out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
    out.extend_from_slice(&rdata);
    debug_assert!(out.len() <= MAX_RESPONSE);
    out
}

/// Parses a TXT response; returns `(id, payload)`.
pub fn decode_response(bytes: &[u8]) -> Option<(u16, Vec<u8>)> {
    if bytes.len() < 12 {
        return None;
    }
    let id = u16::from_be_bytes([bytes[0], bytes[1]]);
    // Fixed offsets given our encoder: answer starts at 12.
    let mut pos = 12 + 1 + 2 + 2 + 4; // name(1) type(2) class(2) ttl(4)
    let rdlen = u16::from_be_bytes([*bytes.get(pos)?, *bytes.get(pos + 1)?]) as usize;
    pos += 2;
    let rdata = bytes.get(pos..pos + rdlen)?;
    let mut payload = Vec::new();
    let mut i = 0;
    while i < rdata.len() {
        let len = rdata[i] as usize;
        i += 1;
        payload.extend_from_slice(rdata.get(i..i + len)?);
        i += len;
    }
    Some((id, payload))
}

/// Downstream goodput of the tunnel (bytes/s): `window` in-flight queries,
/// each returning [`RESPONSE_PAYLOAD`] bytes per resolver round trip, also
/// capped by the resolver's tolerated query rate.
pub fn downstream_rate(window: u32, resolver_rtt: SimDuration, max_qps: f64) -> f64 {
    let per_rtt = window as f64 * RESPONSE_PAYLOAD as f64 / resolver_rtt.as_secs_f64().max(1e-3);
    let per_qps = max_qps * RESPONSE_PAYLOAD as f64;
    per_rtt.min(per_qps)
}

/// Round trips to the DoH resolver before the tunnel carries data: the
/// DoH session's TCP and TLS setup.
pub const HANDSHAKE_ROUND_TRIPS: u32 = 2;

/// The dnstt transport model.
pub struct Dnstt {
    /// In-flight query window.
    pub window: u32,
    /// Resolver-tolerated sustained query rate.
    pub max_qps: f64,
    /// Session-drop hazard (public resolvers throttle or drop sustained
    /// heavy query streams; a self-operated resolver does not).
    pub hazard_per_sec: f64,
}

impl Default for Dnstt {
    fn default() -> Self {
        // dnstt's default window; public-resolver etiquette caps QPS and
        // carries the drop hazard behind the paper's §4.6 finding.
        Dnstt {
            window: 16,
            max_qps: 120.0,
            hazard_per_sec: 1.0 / 35.0,
        }
    }
}

impl PluggableTransport for Dnstt {
    fn id(&self) -> PtId {
        PtId::Dnstt
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        let bridge = dep.bridge(PtId::Dnstt);
        // The DoH resolver is anycast-near the client.
        let resolver_loc = opts.client;
        let resolver_leg = sample_path(rng, opts.client, resolver_loc, opts.medium, 0.10);
        let bootstrap = bootstrap_time(opts, resolver_loc, HANDSHAKE_ROUND_TRIPS, rng);

        let mut ch = tor_channel_with(
            dep,
            opts,
            TorChannelSpec {
                first_hop: FirstHop::Bridge(bridge),
                via: Some(ptperf_tor::Via {
                    location: resolver_loc,
                    capacity_bps: 50.0e6, // resolvers are fast; the cap below binds
                    extra_loss: 0.0,
                }),
                guard_load_mult: 1.0,
            },
            dest,
            rng,
            scratch,
        );
        ch.setup += bootstrap;
        // The defining constraint: query-clocked downstream.
        let rate = downstream_rate(self.window, resolver_leg.rtt, self.max_qps);
        ch.rate_cap = Some(rate);
        // Every request needs at least one extra resolver round trip to
        // start the response stream flowing.
        ch.per_request_extra = resolver_leg.rtt;
        // Resolvers throttle or drop sustained heavy query streams; the
        // paper saw >80% of bulk downloads end partial (§4.6).
        ch.hazard_per_sec = self.hazard_per_sec;
        ch.connect_failure_p = 0.02;
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dns_response_round_trip() {
        let payload = vec![0x5A; RESPONSE_PAYLOAD];
        let wire = encode_response(7, &payload);
        assert!(wire.len() <= MAX_RESPONSE, "response {} bytes", wire.len());
        let (id, back) = decode_response(&wire).unwrap();
        assert_eq!(id, 7);
        assert_eq!(back, payload);
    }

    #[test]
    fn downstream_rate_window_limited() {
        // 8 × 460 B per 100 ms = 36.8 kB/s, below the QPS cap.
        let r = downstream_rate(8, SimDuration::from_millis(100), 1000.0);
        assert!((r - 36_800.0).abs() < 1.0, "{r}");
    }

    #[test]
    fn downstream_rate_qps_limited() {
        // Fast resolver, low QPS tolerance: 120 qps × 460 = 55.2 kB/s.
        let r = downstream_rate(64, SimDuration::from_millis(10), 120.0);
        assert!((r - 55_200.0).abs() < 1.0, "{r}");
    }

    #[test]
    fn establish_is_tightly_capped() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(9);
        let ch = Dnstt::default().establish(&dep, &opts, Location::NewYork, &mut rng);
        let cap = ch.rate_cap.expect("dnstt must be capped");
        assert!(cap < 200_000.0, "cap {cap}");
        assert!(ch.hazard_per_sec > 0.0);
    }
}
