//! webtunnel — HTTPT-style tunneling inside an ordinary HTTPS connection.
//!
//! The client makes a normal TLS connection to a web server with a valid
//! certificate, then sends an HTTP/1.1 Upgrade request for a secret path;
//! the server's 101 response turns the connection into a raw byte tunnel
//! to the Tor bridge process behind it. A censor sees a TLS connection to
//! an unblocked domain.
//!
//! Implemented pieces: the Upgrade request/101-response codec with the
//! secret-path check, and a thin length-prefixed record layer for the
//! tunneled bytes. `codec_model` ties the first to
//! [`HANDSHAKE_ROUND_TRIPS`] and the second to [`frame_overhead`].
//!
//! Performance model (hop set 1): TCP + TLS (2 RTT) + upgrade (1 RTT) to
//! a self-hosted bridge, which is the circuit's first hop. Overhead after
//! setup is negligible — the paper found webtunnel within a second of
//! vanilla Tor, and faster under selenium.

use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{apply_frame_overhead, own_host_channel, EstablishScratch};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Maximum payload per tunnel record.
pub const MAX_RECORD: usize = 16_384;

/// Builds the HTTP Upgrade request for `secret_path` on `host`.
pub fn upgrade_request(host: &str, secret_path: &str) -> Vec<u8> {
    format!(
        "GET /{secret_path} HTTP/1.1\r\nHost: {host}\r\nConnection: Upgrade\r\nUpgrade: websocket\r\n\r\n"
    )
    .into_bytes()
}

/// Upgrade handling errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpgradeError {
    /// Request did not parse as an upgrade.
    Malformed,
    /// The secret path did not match — the server must answer like a
    /// normal web server (probe resistance), not reveal the tunnel.
    WrongPath,
}

/// Server side: validates an upgrade request against the secret path.
/// Returns the 101 response on success, and [`UpgradeError::WrongPath`]
/// for a probe, which the server answers as a normal site would.
pub fn handle_upgrade(request: &[u8], secret_path: &str) -> Result<Vec<u8>, UpgradeError> {
    let text = std::str::from_utf8(request).map_err(|_| UpgradeError::Malformed)?;
    let first = text.lines().next().ok_or(UpgradeError::Malformed)?;
    let mut parts = first.split(' ');
    let (method, path) = (
        parts.next().ok_or(UpgradeError::Malformed)?,
        parts.next().ok_or(UpgradeError::Malformed)?,
    );
    if method != "GET" || !text.contains("Upgrade:") {
        return Err(UpgradeError::Malformed);
    }
    if path.trim_start_matches('/') != secret_path {
        return Err(UpgradeError::WrongPath);
    }
    Ok(
        b"HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: websocket\r\n\r\n"
            .to_vec(),
    )
}

/// Encodes a tunnel record: 2-byte length + payload.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_RECORD, "record too large");
    let mut out = (payload.len() as u16).to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// Decodes one record from the front of `buf`; `None` = need more bytes.
pub fn decode_record(buf: &mut Vec<u8>) -> Option<Vec<u8>> {
    if buf.len() < 2 {
        return None;
    }
    let len = u16::from_be_bytes([buf[0], buf[1]]) as usize;
    if buf.len() < 2 + len {
        return None;
    }
    let payload = buf[2..2 + len].to_vec();
    buf.drain(..2 + len);
    Some(payload)
}

/// Record-layer wire overhead.
pub fn frame_overhead() -> f64 {
    (MAX_RECORD + 2) as f64 / MAX_RECORD as f64
}

/// Round trips to the bridge before the tunnel carries data: TCP (1),
/// TLS (1) and the HTTP upgrade (1).
pub const HANDSHAKE_ROUND_TRIPS: u32 = 3;

/// The webtunnel transport model.
pub struct WebTunnel;

impl PluggableTransport for WebTunnel {
    fn id(&self) -> PtId {
        PtId::WebTunnel
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
            PtId::WebTunnel,
            HANDSHAKE_ROUND_TRIPS,
            dep,
            opts,
            dest,
            rng,
            scratch,
        );
        apply_frame_overhead(&mut ch, frame_overhead());
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upgrade_accepted_with_secret_path() {
        let req = upgrade_request("cover.example.com", "s3cret-path");
        let resp = handle_upgrade(&req, "s3cret-path").unwrap();
        assert!(resp.starts_with(b"HTTP/1.1 101"));
    }

    #[test]
    fn probe_with_wrong_path_is_refused() {
        let req = upgrade_request("cover.example.com", "guessed-path");
        assert_eq!(
            handle_upgrade(&req, "s3cret-path"),
            Err(UpgradeError::WrongPath)
        );
    }

    #[test]
    fn non_upgrade_request_rejected() {
        let req = b"POST /s HTTP/1.1\r\nHost: h\r\n\r\n";
        assert_eq!(handle_upgrade(req, "s"), Err(UpgradeError::Malformed));
    }

    #[test]
    fn records_round_trip() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode_record(b"tor bytes"));
        buf.extend_from_slice(&encode_record(&vec![9u8; MAX_RECORD]));
        assert_eq!(decode_record(&mut buf).unwrap(), b"tor bytes");
        assert_eq!(decode_record(&mut buf).unwrap().len(), MAX_RECORD);
        assert!(decode_record(&mut buf).is_none());
    }

    #[test]
    fn partial_record_waits() {
        let rec = encode_record(b"split");
        let mut buf = rec[..3].to_vec();
        assert!(decode_record(&mut buf).is_none());
        buf.extend_from_slice(&rec[3..]);
        assert_eq!(decode_record(&mut buf).unwrap(), b"split");
    }

    #[test]
    fn overhead_negligible() {
        assert!(frame_overhead() < 1.001);
    }

    #[test]
    fn establish_near_vanilla() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(8);
        let ch = WebTunnel.establish(&dep, &opts, Location::NewYork, &mut rng);
        assert_eq!(ch.rate_cap, None);
        assert_eq!(ch.hazard_per_sec, 0.0);
        assert_eq!(ch.connect_failure_p, 0.0);
    }
}
