//! psiphon — a proxy network reached over an SSH tunnel (the default
//! psiphon configuration the paper evaluated).
//!
//! Implemented pieces:
//!
//! * SSH-style **binary packet framing** (RFC 4253 §6): 4-byte packet
//!   length, 1-byte padding length, payload, random padding to an 8-byte
//!   boundary, and a truncated-HMAC MAC;
//! * the handshake as a round-trip count: TCP, the version exchange and
//!   the DH key exchange. The key exchange itself and psiphon's
//!   pre-shared host key check fix no model figure and are not
//!   implemented.
//!
//! Performance model (hop set 2): SSH tunnel to a psiphon server, which
//! forwards into Tor through a volunteer guard. Psiphon adds little
//! beyond the extra hop — the paper found it among the four fastest PTs
//! for bulk downloads.

use ptperf_crypto::{ct_eq, hmac_sha256};
use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{apply_frame_overhead, own_host_channel, EstablishScratch};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Cipher block size used for padding alignment.
pub const BLOCK: usize = 8;

/// MAC length (truncated HMAC-SHA256).
pub const MAC_LEN: usize = 16;

/// Maximum payload per SSH packet.
pub const MAX_PAYLOAD: usize = 32_768;

/// SSH packet codec errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Not enough bytes yet.
    Truncated,
    /// Length/padding fields are inconsistent.
    Malformed,
    /// MAC check failed.
    BadMac,
}

/// Encodes one SSH binary packet with sequence-numbered MAC.
pub fn seal_packet(mac_key: &[u8; 32], seq: u32, payload: &[u8], rng: &mut SimRng) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD, "payload too large");
    // padding so that (4 + 1 + payload + pad) % BLOCK == 0, pad >= 4.
    let mut pad = BLOCK - ((5 + payload.len()) % BLOCK);
    if pad < 4 {
        pad += BLOCK;
    }
    let packet_len = (1 + payload.len() + pad) as u32;
    let mut out = Vec::with_capacity(4 + packet_len as usize + MAC_LEN);
    out.extend_from_slice(&packet_len.to_be_bytes());
    out.push(pad as u8);
    out.extend_from_slice(payload);
    for _ in 0..pad {
        out.push(rng.next_u64() as u8);
    }
    let mut mac_input = seq.to_be_bytes().to_vec();
    mac_input.extend_from_slice(&out);
    let mac = hmac_sha256(mac_key, &mac_input);
    out.extend_from_slice(&mac[..MAC_LEN]);
    out
}

/// Decodes one packet from the front of `buf`, consuming it.
pub fn open_packet(
    mac_key: &[u8; 32],
    seq: u32,
    buf: &mut Vec<u8>,
) -> Result<Option<Vec<u8>>, PacketError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let packet_len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if !(5..=4 + MAX_PAYLOAD + 2 * BLOCK).contains(&packet_len) {
        return Err(PacketError::Malformed);
    }
    let total = 4 + packet_len + MAC_LEN;
    if buf.len() < total {
        return Ok(None);
    }
    let body = &buf[..4 + packet_len];
    let mac = &buf[4 + packet_len..total];
    let mut mac_input = seq.to_be_bytes().to_vec();
    mac_input.extend_from_slice(body);
    let expect = hmac_sha256(mac_key, &mac_input);
    if !ct_eq(mac, &expect[..MAC_LEN]) {
        return Err(PacketError::BadMac);
    }
    let pad = buf[4] as usize;
    if pad + 1 > packet_len {
        return Err(PacketError::Malformed);
    }
    let payload = buf[5..4 + packet_len - pad].to_vec();
    buf.drain(..total);
    Ok(Some(payload))
}

/// Average wire overhead per full packet: header + padding + MAC.
pub fn frame_overhead() -> f64 {
    // 4 (len) + 1 (padlen) + ~BLOCK (avg pad) + MAC over MAX_PAYLOAD.
    (MAX_PAYLOAD + 5 + BLOCK + MAC_LEN) as f64 / MAX_PAYLOAD as f64
}

/// Round trips to the psiphon server before the tunnel carries data: TCP,
/// the SSH version exchange and the DH key exchange.
pub const HANDSHAKE_ROUND_TRIPS: u32 = 3;

/// The psiphon transport model.
pub struct Psiphon;

impl PluggableTransport for Psiphon {
    fn id(&self) -> PtId {
        PtId::Psiphon
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
            PtId::Psiphon,
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

    fn key() -> [u8; 32] {
        [0xA7; 32]
    }

    #[test]
    fn packet_round_trip() {
        let mut rng = SimRng::new(1);
        let k = key();
        let wire = seal_packet(&k, 0, b"ssh payload", &mut rng);
        let mut buf = wire;
        let got = open_packet(&k, 0, &mut buf).unwrap().unwrap();
        assert_eq!(got, b"ssh payload");
        assert!(buf.is_empty());
    }

    #[test]
    fn packet_length_is_block_aligned() {
        let mut rng = SimRng::new(2);
        for len in [0usize, 1, 7, 8, 100, 1000] {
            let wire = seal_packet(&key(), 0, &vec![0xBB; len], &mut rng);
            // The whole pre-MAC region (length field + body) aligns to
            // BLOCK, per RFC 4253 §6.
            assert_eq!((wire.len() - MAC_LEN) % BLOCK, 0, "len {len}");
        }
    }

    #[test]
    fn wrong_sequence_number_rejected() {
        let mut rng = SimRng::new(3);
        let k = key();
        let wire = seal_packet(&k, 5, b"data", &mut rng);
        let mut buf = wire;
        assert_eq!(open_packet(&k, 6, &mut buf), Err(PacketError::BadMac));
    }

    #[test]
    fn tampered_packet_rejected() {
        let mut rng = SimRng::new(4);
        let k = key();
        let mut wire = seal_packet(&k, 0, b"data", &mut rng);
        wire[6] ^= 0xFF;
        let mut buf = wire;
        assert_eq!(open_packet(&k, 0, &mut buf), Err(PacketError::BadMac));
    }

    #[test]
    fn streaming_multiple_packets() {
        let mut rng = SimRng::new(5);
        let k = key();
        let mut buf = Vec::new();
        for seq in 0..3u32 {
            buf.extend_from_slice(&seal_packet(
                &k,
                seq,
                format!("msg{seq}").as_bytes(),
                &mut rng,
            ));
        }
        for seq in 0..3u32 {
            let got = open_packet(&k, seq, &mut buf).unwrap().unwrap();
            assert_eq!(got, format!("msg{seq}").as_bytes());
        }
    }

    #[test]
    fn establish_has_modest_overhead() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::Toronto);
        let mut rng = SimRng::new(6);
        let ch = Psiphon.establish(&dep, &opts, Location::NewYork, &mut rng);
        assert_eq!(ch.rate_cap, None);
        assert_eq!(ch.hazard_per_sec, 0.0);
        assert!(frame_overhead() < 1.01);
    }
}
