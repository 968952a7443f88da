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
//! Implemented pieces: RFC 4648 base32 (no padding), payload ↔ DNS-label
//! encoding with the 63-byte label and 255-byte name limits, DNS
//! query/TXT-response message codecs, and the window-throughput formula
//! used by the model.

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

/// Maximum bytes of one DNS label.
pub const MAX_LABEL: usize = 63;

/// Maximum total name length.
pub const MAX_NAME: usize = 255;

const B32_ALPHABET: &[u8; 32] = b"abcdefghijklmnopqrstuvwxyz234567";

/// Encodes bytes as unpadded lowercase base32 (RFC 4648).
pub fn base32_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(5) * 8);
    for block in data.chunks(5) {
        let mut buf = [0u8; 5];
        buf[..block.len()].copy_from_slice(block);
        let v = u64::from(buf[0]) << 32
            | u64::from(buf[1]) << 24
            | u64::from(buf[2]) << 16
            | u64::from(buf[3]) << 8
            | u64::from(buf[4]);
        let chars = match block.len() {
            1 => 2,
            2 => 4,
            3 => 5,
            4 => 7,
            _ => 8,
        };
        for i in 0..chars {
            let idx = ((v >> (35 - 5 * i)) & 0x1F) as usize;
            out.push(B32_ALPHABET[idx] as char);
        }
    }
    out
}

/// Decodes unpadded lowercase base32.
pub fn base32_decode(s: &str) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(s.len() * 5 / 8);
    for block in s.as_bytes().chunks(8) {
        let mut v: u64 = 0;
        for (i, &c) in block.iter().enumerate() {
            let idx = B32_ALPHABET.iter().position(|&a| a == c)? as u64;
            v |= idx << (35 - 5 * i);
        }
        let bytes = match block.len() {
            2 => 1,
            4 => 2,
            5 => 3,
            7 => 4,
            8 => 5,
            _ => return None, // invalid unpadded length
        };
        for i in 0..bytes {
            out.push((v >> (32 - 8 * i)) as u8);
        }
    }
    Some(out)
}

/// Encodes an upstream payload chunk as a query name under `domain`:
/// base32, split into ≤63-byte labels, total ≤255 bytes.
///
/// Returns `None` if the payload cannot fit one name.
pub fn encode_query_name(payload: &[u8], domain: &str) -> Option<String> {
    let encoded = base32_encode(payload);
    let mut name = String::new();
    for label in encoded.as_bytes().chunks(MAX_LABEL) {
        name.push_str(std::str::from_utf8(label).unwrap());
        name.push('.');
    }
    name.push_str(domain);
    if name.len() > MAX_NAME {
        return None;
    }
    Some(name)
}

/// Extracts the upstream payload from a query name under `domain`.
pub fn decode_query_name(name: &str, domain: &str) -> Option<Vec<u8>> {
    let data = name.strip_suffix(domain)?.trim_end_matches('.');
    let joined: String = data.split('.').collect();
    base32_decode(&joined)
}

/// Maximum upstream payload bytes that fit in one query name under
/// `domain`.
pub fn max_query_payload(domain: &str) -> usize {
    // Name budget minus domain and dots; base32 expands 5 bytes → 8 chars.
    let label_space = MAX_NAME - domain.len() - 1;
    // Each 63-char label costs 64 bytes of name budget (label + dot).
    let usable_chars = label_space * MAX_LABEL / (MAX_LABEL + 1);
    usable_chars * 5 / 8
}

/// A minimal DNS query message (header + one TXT question).
pub fn encode_query(id: u16, name: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + name.len() + 6);
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&[0x01, 0x00]); // RD=1
    out.extend_from_slice(&1u16.to_be_bytes()); // QDCOUNT
    out.extend_from_slice(&[0, 0, 0, 0, 0, 0]); // AN/NS/AR
    for label in name.split('.') {
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out.push(0);
    out.extend_from_slice(&16u16.to_be_bytes()); // QTYPE TXT
    out.extend_from_slice(&1u16.to_be_bytes()); // QCLASS IN
    out
}

/// Parses a query message; returns `(id, name)`.
pub fn decode_query(bytes: &[u8]) -> Option<(u16, String)> {
    if bytes.len() < 12 {
        return None;
    }
    let id = u16::from_be_bytes([bytes[0], bytes[1]]);
    let mut name = String::new();
    let mut pos = 12;
    loop {
        let len = *bytes.get(pos)? as usize;
        pos += 1;
        if len == 0 {
            break;
        }
        if !name.is_empty() {
            name.push('.');
        }
        name.push_str(std::str::from_utf8(bytes.get(pos..pos + len)?).ok()?);
        pos += len;
    }
    Some((id, name))
}

/// Builds a TXT response carrying `payload` (≤ [`RESPONSE_PAYLOAD`]).
pub fn encode_response(id: u16, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= RESPONSE_PAYLOAD, "response payload too large");
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
    use proptest::prelude::*;

    #[test]
    fn base32_known_vectors() {
        // RFC 4648 vectors, lowercased and unpadded.
        assert_eq!(base32_encode(b""), "");
        assert_eq!(base32_encode(b"f"), "my");
        assert_eq!(base32_encode(b"fo"), "mzxq");
        assert_eq!(base32_encode(b"foo"), "mzxw6");
        assert_eq!(base32_encode(b"foob"), "mzxw6yq");
        assert_eq!(base32_encode(b"fooba"), "mzxw6ytb");
        assert_eq!(base32_encode(b"foobar"), "mzxw6ytboi");
    }

    #[test]
    fn base32_decode_inverts() {
        for s in ["", "f", "fo", "foo", "foob", "fooba", "foobar"] {
            assert_eq!(base32_decode(&base32_encode(s.as_bytes())).unwrap(), s.as_bytes());
        }
        assert!(base32_decode("ABC!").is_none());
    }

    proptest! {
        #[test]
        fn base32_round_trips(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            prop_assert_eq!(base32_decode(&base32_encode(&data)).unwrap(), data);
        }
    }

    #[test]
    fn query_name_round_trip() {
        let payload = b"tunnel bytes going upstream";
        let name = encode_query_name(payload, "t.example.com").unwrap();
        assert!(name.len() <= MAX_NAME);
        for label in name.strip_suffix("t.example.com").unwrap().split('.') {
            assert!(label.len() <= MAX_LABEL);
        }
        assert_eq!(decode_query_name(&name, "t.example.com").unwrap(), payload);
    }

    #[test]
    fn query_name_respects_limits() {
        let max = max_query_payload("t.example.com");
        let payload = vec![0xAB; max];
        let name = encode_query_name(&payload, "t.example.com").unwrap();
        assert!(name.len() <= MAX_NAME);
        // One byte more must fail (or still fit — but never exceed 255).
        if let Some(name2) = encode_query_name(&vec![0xAB; max + 8], "t.example.com") {
            assert!(name2.len() <= MAX_NAME);
        }
    }

    #[test]
    fn dns_query_round_trip() {
        let name = "abc.def.t.example.com";
        let wire = encode_query(0x1234, name);
        let (id, back) = decode_query(&wire).unwrap();
        assert_eq!(id, 0x1234);
        assert_eq!(back, name);
    }

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
    fn response_stays_under_512() {
        for len in [0usize, 1, 100, 255, 256, RESPONSE_PAYLOAD] {
            let wire = encode_response(1, &vec![0u8; len]);
            assert!(wire.len() <= MAX_RESPONSE, "payload {len} → {}", wire.len());
        }
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
