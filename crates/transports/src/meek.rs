//! meek — domain fronting through a CDN.
//!
//! The client speaks ordinary HTTPS to a fronting CDN edge; the real
//! destination (the meek bridge) travels in the encrypted `Host` header.
//! Tor traffic is carried in the bodies of `POST` requests and their
//! responses; when idle, the client polls with empty `POST`s on an
//! exponential back-off.
//!
//! Implemented pieces:
//!
//! * real HTTP/1.1 request/response building and parsing with the
//!   `X-Session-Id` header meek uses to correlate polls;
//! * the performance model: domain-front TLS setup, per-request front
//!   processing (one lognormal delay per request; the idle-poll back-off
//!   is not simulated), the **bridge rate limit** (the public meek bridge is
//!   rate-limited by its maintainer (paper ref. 28) — the paper's explanation for
//!   both meek's high TTFB and its bulk-download failures).

use ptperf_sim::{Location, SimDuration, SimRng};
use ptperf_web::Channel;

use crate::common::{bootstrap_time, tor_channel_with, EstablishScratch, FirstHop, TorChannelSpec};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Maximum request body meek sends per POST.
pub const MAX_BODY: usize = 65_536;

/// A meek HTTP exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeekRequest {
    /// The fronted (inner) host — the bridge's real name.
    pub inner_host: String,
    /// Session identifier correlating this client's polls.
    pub session_id: String,
    /// Carried Tor bytes (empty for a poll).
    pub body: Vec<u8>,
}

impl MeekRequest {
    /// Serializes to HTTP/1.1 wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = format!(
            "POST / HTTP/1.1\r\nHost: {}\r\nX-Session-Id: {}\r\nContent-Length: {}\r\n\r\n",
            self.inner_host,
            self.session_id,
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses wire bytes back into a request.
    pub fn decode(bytes: &[u8]) -> Result<MeekRequest, HttpError> {
        let (head, body) = split_head(bytes)?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().ok_or(HttpError::Malformed)?;
        if !request_line.starts_with("POST ") {
            return Err(HttpError::BadMethod);
        }
        let mut inner_host = None;
        let mut session_id = None;
        let mut content_length = None;
        for line in lines {
            if let Some((k, v)) = line.split_once(": ") {
                match k.to_ascii_lowercase().as_str() {
                    "host" => inner_host = Some(v.to_string()),
                    "x-session-id" => session_id = Some(v.to_string()),
                    "content-length" => {
                        content_length = Some(v.parse::<usize>().map_err(|_| HttpError::Malformed)?)
                    }
                    _ => {}
                }
            }
        }
        let content_length = content_length.ok_or(HttpError::Malformed)?;
        if body.len() < content_length {
            return Err(HttpError::Truncated);
        }
        Ok(MeekRequest {
            inner_host: inner_host.ok_or(HttpError::Malformed)?,
            session_id: session_id.ok_or(HttpError::Malformed)?,
            body: body[..content_length].to_vec(),
        })
    }
}

/// Builds a meek HTTP response carrying `body` bytes of Tor data.
pub fn encode_response(body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Parses a meek HTTP response; returns the carried body.
pub fn decode_response(bytes: &[u8]) -> Result<Vec<u8>, HttpError> {
    let (head, body) = split_head(bytes)?;
    let status = head.split("\r\n").next().ok_or(HttpError::Malformed)?;
    if !status.starts_with("HTTP/1.1 200") {
        return Err(HttpError::BadStatus);
    }
    let len = head
        .split("\r\n")
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .ok_or(HttpError::Malformed)?
        .parse::<usize>()
        .map_err(|_| HttpError::Malformed)?;
    if body.len() < len {
        return Err(HttpError::Truncated);
    }
    Ok(body[..len].to_vec())
}

fn split_head(bytes: &[u8]) -> Result<(&str, &[u8]), HttpError> {
    let sep = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(HttpError::Truncated)?;
    let head = std::str::from_utf8(&bytes[..sep]).map_err(|_| HttpError::Malformed)?;
    Ok((head, &bytes[sep + 4..]))
}

/// HTTP codec errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpError {
    /// Header/body separator not found or body short.
    Truncated,
    /// Not parseable as the expected HTTP shape.
    Malformed,
    /// Request method was not POST.
    BadMethod,
    /// Response status was not 200.
    BadStatus,
}

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
    fn request_round_trip() {
        let req = MeekRequest {
            inner_host: "meek.bamsoftware.com".into(),
            session_id: "abc123".into(),
            body: b"tor cell bytes".to_vec(),
        };
        let wire = req.encode();
        assert_eq!(MeekRequest::decode(&wire).unwrap(), req);
    }

    #[test]
    fn empty_poll_round_trip() {
        let req = MeekRequest {
            inner_host: "bridge".into(),
            session_id: "s".into(),
            body: vec![],
        };
        let back = MeekRequest::decode(&req.encode()).unwrap();
        assert!(back.body.is_empty());
    }

    #[test]
    fn request_rejects_get() {
        let wire = b"GET / HTTP/1.1\r\nHost: h\r\nX-Session-Id: s\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(MeekRequest::decode(wire), Err(HttpError::BadMethod));
    }

    #[test]
    fn request_detects_short_body() {
        let req = MeekRequest {
            inner_host: "h".into(),
            session_id: "s".into(),
            body: vec![1, 2, 3, 4],
        };
        let mut wire = req.encode();
        wire.truncate(wire.len() - 2);
        assert_eq!(MeekRequest::decode(&wire), Err(HttpError::Truncated));
    }

    #[test]
    fn response_round_trip() {
        let wire = encode_response(b"downstream tor bytes");
        assert_eq!(decode_response(&wire).unwrap(), b"downstream tor bytes");
    }

    #[test]
    fn response_rejects_non_200() {
        let wire = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(decode_response(wire), Err(HttpError::BadStatus));
    }

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
