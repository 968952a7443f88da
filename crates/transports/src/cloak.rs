//! cloak — a proxy whose traffic mimics regular TLS web browsing.
//!
//! The client sends a TLS ClientHello whose *random* field carries a
//! steganographic credential: an ephemeral X25519 public key plus an HMAC
//! proving knowledge of the server's public key. A censor (or probe) sees
//! a perfectly normal ClientHello and gets a perfectly normal TLS answer;
//! a real client is authenticated in **zero round trips** and the session
//! continues as a multiplexed tunnel.
//!
//! Implemented pieces:
//!
//! * the ClientHello credential: build/verify the steg random field;
//! * the session multiplexer framing: `stream id ‖ seq ‖ flags ‖ len`
//!   (12-byte header) frames interleaving streams over one TLS
//!   connection.
//!
//! Performance model (hop set 3): 2 round trips to the cloak server
//! (TCP + TLS-with-credential), whose co-resident Tor client builds the
//! circuit from there through a volunteer guard.

use ptperf_crypto::{ct_eq, hmac_sha256, Keypair};
use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{apply_frame_overhead, own_host_channel, EstablishScratch};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// The ClientHello random field: 16-byte ephemeral-key fragment tag +
/// 16-byte HMAC. (Real cloak hides a full key via elliptic-curve point
/// compression tricks; the 32-byte budget and the verification flow are
/// what matter here.)
pub const RANDOM_LEN: usize = 32;

/// Maximum payload per multiplexer frame.
pub const MAX_FRAME: usize = 16_384;

/// Multiplexer frame header length.
pub const MUX_HEADER: usize = 12;

/// Builds the steganographic ClientHello random for a client that knows
/// the server's static public key.
pub fn client_hello_random(client: &Keypair, server_pub: &[u8; 32]) -> [u8; RANDOM_LEN] {
    let shared = client.diffie_hellman(server_pub);
    let tag = hmac_sha256(b"cloak-auth", &shared);
    let mut random = [0u8; RANDOM_LEN];
    random[..16].copy_from_slice(&client.public[..16]);
    random[16..].copy_from_slice(&tag[..16]);
    random
}

/// Server side: verifies a ClientHello random given the full client
/// public key (recovered out of band in this simplified construction).
/// Returns `true` for a legitimate client, `false` for a probe — which
/// then receives an ordinary TLS handshake instead.
pub fn verify_hello_random(
    server: &Keypair,
    client_pub: &[u8; 32],
    random: &[u8; RANDOM_LEN],
) -> bool {
    if !ct_eq(&random[..16], &client_pub[..16]) {
        return false;
    }
    let shared = server.diffie_hellman(client_pub);
    let tag = hmac_sha256(b"cloak-auth", &shared);
    ct_eq(&random[16..], &tag[..16])
}

/// A multiplexer frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxFrame {
    /// Stream the frame belongs to.
    pub stream_id: u32,
    /// Per-stream sequence number.
    pub seq: u32,
    /// Stream-close flag.
    pub fin: bool,
    /// Carried bytes.
    pub payload: Vec<u8>,
}

impl MuxFrame {
    /// Serializes the frame.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.payload.len() <= MAX_FRAME, "mux frame too large");
        let mut out = Vec::with_capacity(MUX_HEADER + self.payload.len());
        out.extend_from_slice(&self.stream_id.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        let len_flags = (self.payload.len() as u32) | (u32::from(self.fin) << 31);
        out.extend_from_slice(&len_flags.to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses one frame from the front of `buf`; `None` = need more.
    pub fn decode(buf: &mut Vec<u8>) -> Option<MuxFrame> {
        if buf.len() < MUX_HEADER {
            return None;
        }
        let stream_id = u32::from_be_bytes(buf[0..4].try_into().unwrap());
        let seq = u32::from_be_bytes(buf[4..8].try_into().unwrap());
        let len_flags = u32::from_be_bytes(buf[8..12].try_into().unwrap());
        let fin = len_flags >> 31 == 1;
        let len = (len_flags & 0x7FFF_FFFF) as usize;
        if len > MAX_FRAME || buf.len() < MUX_HEADER + len {
            return None;
        }
        let payload = buf[MUX_HEADER..MUX_HEADER + len].to_vec();
        buf.drain(..MUX_HEADER + len);
        Some(MuxFrame {
            stream_id,
            seq,
            fin,
            payload,
        })
    }
}

/// Mux-layer wire overhead.
pub fn frame_overhead() -> f64 {
    (MAX_FRAME + MUX_HEADER) as f64 / MAX_FRAME as f64
}

/// Round trips to the cloak server before the tunnel carries data: TCP
/// and TLS. The credential rides the ClientHello, so authentication adds
/// no round trip of its own.
pub const HANDSHAKE_ROUND_TRIPS: u32 = 2;

/// The cloak transport model.
pub struct Cloak;

impl PluggableTransport for Cloak {
    fn id(&self) -> PtId {
        PtId::Cloak
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
            PtId::Cloak,
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

    fn keys(seed: u8) -> Keypair {
        let mut s = [0u8; 32];
        for (i, b) in s.iter_mut().enumerate() {
            *b = seed.wrapping_add(i as u8).wrapping_mul(3);
        }
        Keypair::from_secret(s)
    }

    #[test]
    fn legitimate_client_authenticates() {
        let server = keys(1);
        let client = keys(2);
        let random = client_hello_random(&client, &server.public);
        assert!(verify_hello_random(&server, &client.public, &random));
    }

    #[test]
    fn probe_without_secret_rejected() {
        let server = keys(1);
        let client = keys(2);
        // A probe fabricates a random field without the server key.
        let mut fake = [0u8; RANDOM_LEN];
        fake[..16].copy_from_slice(&client.public[..16]);
        assert!(!verify_hello_random(&server, &client.public, &fake));
    }

    #[test]
    fn wrong_server_key_rejected() {
        let server = keys(1);
        let wrong_server = keys(3);
        let client = keys(2);
        let random = client_hello_random(&client, &wrong_server.public);
        assert!(!verify_hello_random(&server, &client.public, &random));
    }

    #[test]
    fn mux_round_trip() {
        let frame = MuxFrame {
            stream_id: 9,
            seq: 3,
            fin: false,
            payload: b"interleaved data".to_vec(),
        };
        let mut buf = frame.encode();
        assert_eq!(MuxFrame::decode(&mut buf).unwrap(), frame);
        assert!(buf.is_empty());
    }

    #[test]
    fn mux_fin_flag_preserved() {
        let frame = MuxFrame {
            stream_id: 1,
            seq: 0,
            fin: true,
            payload: vec![],
        };
        let mut buf = frame.encode();
        let back = MuxFrame::decode(&mut buf).unwrap();
        assert!(back.fin);
        assert!(back.payload.is_empty());
    }

    #[test]
    fn mux_interleaves_streams() {
        let a = MuxFrame {
            stream_id: 1,
            seq: 0,
            fin: false,
            payload: b"stream one".to_vec(),
        };
        let b = MuxFrame {
            stream_id: 2,
            seq: 0,
            fin: false,
            payload: b"stream two".to_vec(),
        };
        let mut buf = a.encode();
        buf.extend_from_slice(&b.encode());
        assert_eq!(MuxFrame::decode(&mut buf).unwrap().stream_id, 1);
        assert_eq!(MuxFrame::decode(&mut buf).unwrap().stream_id, 2);
    }

    #[test]
    fn mux_waits_for_complete_frame() {
        let frame = MuxFrame {
            stream_id: 1,
            seq: 0,
            fin: false,
            payload: vec![9; 100],
        };
        let wire = frame.encode();
        let mut buf = wire[..50].to_vec();
        assert!(MuxFrame::decode(&mut buf).is_none());
        buf.extend_from_slice(&wire[50..]);
        assert_eq!(MuxFrame::decode(&mut buf).unwrap(), frame);
    }

    #[test]
    fn establish_supports_parallel_streams() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(11);
        let ch = Cloak.establish(&dep, &opts, Location::NewYork, &mut rng);
        assert!(ch.max_parallel_streams > 1);
        assert_eq!(ch.rate_cap, None);
    }
}
