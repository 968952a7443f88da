//! obfs4 — the fully-encrypted transport bundled with Tor Browser.
//!
//! Two layers, both implemented over real bytes:
//!
//! * an **ntor-style handshake** (X25519 ephemeral + server static keys,
//!   HMAC-derived session keys, out-of-band node id authenticating the
//!   server and gating probes) with random padding and HMAC "marks" so
//!   the stream carries no fixed framing — the wire looks uniformly
//!   random. (The real obfs4 additionally Elligator-encodes public keys;
//!   we keep raw keys, which does not change timing or overhead.)
//! * a **frame layer**: obfuscated 2-byte length prefix + ChaCha20
//!   payload encryption + truncated-HMAC tag per frame.
//!
//! Performance model: one TCP round trip plus one handshake round trip to
//! the bridge, then Tor cells inside obfs4 frames. The bridge is
//! Tor-operated and lightly loaded — which is precisely why obfs4 can
//! beat vanilla Tor (§4.2.1).

use ptperf_crypto::{ct_eq, hmac_sha256, ChaCha20, HmacSha256, Keypair};
use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{apply_frame_overhead, own_host_channel, EstablishScratch};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Protocol identifier mixed into every key derivation.
pub const PROTOID: &[u8] = b"ntor-curve25519-sha256-1:obfs4";

/// Node identifier length (out-of-band shared with clients).
pub const NODE_ID_LEN: usize = 20;

/// Maximum payload bytes per obfs4 frame.
pub const MAX_FRAME_PAYLOAD: usize = 1427;

/// Frame tag length (truncated HMAC-SHA256).
pub const TAG_LEN: usize = 16;

/// Bytes of overhead per frame: 2-byte obfuscated length + tag.
pub const FRAME_OVERHEAD: usize = 2 + TAG_LEN;

/// The bridge's long-term identity: node id + static X25519 keypair.
pub struct BridgeIdentity {
    /// Out-of-band node identifier.
    pub node_id: [u8; NODE_ID_LEN],
    /// Static keypair (`B = b·G`).
    pub keypair: Keypair,
}

impl BridgeIdentity {
    /// Deterministically derives an identity from seed bytes (the
    /// simulation's stand-in for the bridge line in a torrc).
    pub fn from_seed(seed: u64) -> BridgeIdentity {
        let mut rng = SimRng::new(seed ^ 0x6f62_6673_3400_0000);
        let mut node_id = [0u8; NODE_ID_LEN];
        for b in node_id.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        let mut secret = [0u8; 32];
        for b in secret.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        BridgeIdentity {
            node_id,
            keypair: Keypair::from_secret(secret),
        }
    }
}

/// A parsed client handshake message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// Client ephemeral public key.
    pub client_pub: [u8; 32],
    /// Random padding length (uniform, to break length fingerprinting).
    pub pad_len: usize,
}

/// Handshake failure reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeError {
    /// Message shorter than the minimum.
    Truncated,
    /// The HMAC mark was not found where expected.
    BadMark,
    /// The epoch-scoped MAC failed — probe or replay.
    BadMac,
    /// The server's auth tag failed verification.
    BadAuth,
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HandshakeError::Truncated => "handshake message truncated",
            HandshakeError::BadMark => "handshake mark not found",
            HandshakeError::BadMac => "handshake MAC invalid",
            HandshakeError::BadAuth => "server auth tag invalid",
        };
        f.write_str(s)
    }
}

impl std::error::Error for HandshakeError {}

fn mark_key(identity_pub: &[u8; 32], node_id: &[u8; NODE_ID_LEN]) -> Vec<u8> {
    let mut k = Vec::with_capacity(52);
    k.extend_from_slice(identity_pub);
    k.extend_from_slice(node_id);
    k
}

/// Builds the client handshake message:
/// `X ‖ pad ‖ mark(X) ‖ mac(X ‖ pad ‖ mark ‖ epoch_hour)`.
pub fn client_hello(
    bridge_pub: &[u8; 32],
    node_id: &[u8; NODE_ID_LEN],
    client: &Keypair,
    pad_len: usize,
    epoch_hour: u64,
    rng: &mut SimRng,
) -> Vec<u8> {
    let key = mark_key(bridge_pub, node_id);
    let mark = hmac_sha256(&key, &client.public);
    let mut msg = Vec::with_capacity(32 + pad_len + 32 + 16);
    msg.extend_from_slice(&client.public);
    for _ in 0..pad_len {
        msg.push(rng.next_u64() as u8);
    }
    msg.extend_from_slice(&mark[..16]);
    let mut mac_input = msg.clone();
    mac_input.extend_from_slice(&epoch_hour.to_be_bytes());
    let mac = hmac_sha256(&key, &mac_input);
    msg.extend_from_slice(&mac[..16]);
    msg
}

/// Server side: locates the mark, verifies the epoch MAC, and extracts the
/// client's public key.
pub fn server_parse_hello(
    identity: &BridgeIdentity,
    msg: &[u8],
    epoch_hour: u64,
) -> Result<ClientHello, HandshakeError> {
    if msg.len() < 32 + 16 + 16 {
        return Err(HandshakeError::Truncated);
    }
    let client_pub: [u8; 32] = msg[..32].try_into().unwrap();
    let key = mark_key(&identity.keypair.public, &identity.node_id);
    let expect_mark = hmac_sha256(&key, &client_pub);
    // Scan for the mark after the (variable) padding.
    let body = &msg[..msg.len() - 16];
    let mark_at = (32..=body.len().saturating_sub(16))
        .find(|&i| ct_eq(&body[i..i + 16], &expect_mark[..16]))
        .ok_or(HandshakeError::BadMark)?;
    let mut mac_input = msg[..mark_at + 16].to_vec();
    mac_input.extend_from_slice(&epoch_hour.to_be_bytes());
    let expect_mac = hmac_sha256(&key, &mac_input);
    if !ct_eq(&msg[mark_at + 16..mark_at + 32], &expect_mac[..16]) {
        return Err(HandshakeError::BadMac);
    }
    Ok(ClientHello {
        client_pub,
        pad_len: mark_at - 32,
    })
}

/// Session keys derived by the ntor key exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionKeys {
    /// Key seed (input to the frame codec's KDF).
    pub key_seed: [u8; 32],
    /// Mutual-authentication tag the server sends back.
    pub auth: [u8; 32],
}

fn ntor_secret_input(
    shared_ephemeral: &[u8; 32],
    shared_static: &[u8; 32],
    node_id: &[u8; NODE_ID_LEN],
    bridge_pub: &[u8; 32],
    client_pub: &[u8; 32],
    server_eph_pub: &[u8; 32],
) -> Vec<u8> {
    let mut si = Vec::with_capacity(32 * 5 + NODE_ID_LEN + PROTOID.len());
    si.extend_from_slice(shared_ephemeral);
    si.extend_from_slice(shared_static);
    si.extend_from_slice(node_id);
    si.extend_from_slice(bridge_pub);
    si.extend_from_slice(client_pub);
    si.extend_from_slice(server_eph_pub);
    si.extend_from_slice(PROTOID);
    si
}

fn keys_from_secret_input(si: &[u8]) -> SessionKeys {
    let mut key_label = PROTOID.to_vec();
    key_label.extend_from_slice(b":key_extract");
    let mut auth_label = PROTOID.to_vec();
    auth_label.extend_from_slice(b":mac");
    SessionKeys {
        key_seed: hmac_sha256(&key_label, si),
        auth: hmac_sha256(&auth_label, si),
    }
}

/// Client side of the ntor exchange, given the server's ephemeral public
/// key. Returns the session keys; the caller must verify `auth` against
/// the server's reply.
pub fn client_ntor(
    client: &Keypair,
    bridge_pub: &[u8; 32],
    node_id: &[u8; NODE_ID_LEN],
    server_eph_pub: &[u8; 32],
) -> SessionKeys {
    let shared_eph = client.diffie_hellman(server_eph_pub);
    let shared_static = client.diffie_hellman(bridge_pub);
    let si = ntor_secret_input(
        &shared_eph,
        &shared_static,
        node_id,
        bridge_pub,
        &client.public,
        server_eph_pub,
    );
    keys_from_secret_input(&si)
}

/// Server side of the ntor exchange.
pub fn server_ntor(
    identity: &BridgeIdentity,
    server_eph: &Keypair,
    client_pub: &[u8; 32],
) -> SessionKeys {
    let shared_eph = server_eph.diffie_hellman(client_pub);
    let shared_static = identity.keypair.diffie_hellman(client_pub);
    let si = ntor_secret_input(
        &shared_eph,
        &shared_static,
        &identity.node_id,
        &identity.keypair.public,
        client_pub,
        &server_eph.public,
    );
    keys_from_secret_input(&si)
}

/// The obfs4 frame codec: length-obfuscated, encrypted, authenticated
/// frames. One direction; a connection uses two (one per direction).
pub struct FrameCodec {
    payload_cipher: ChaCha20,
    length_cipher: ChaCha20,
    mac_key: [u8; 32],
    counter: u64,
}

impl FrameCodec {
    /// Derives a directional codec from the session key seed.
    /// `is_server` selects the direction so both ends agree.
    pub fn derive(key_seed: &[u8; 32], is_server: bool) -> FrameCodec {
        let dir: &[u8] = if is_server { b"server" } else { b"client" };
        let mut okm = [0u8; 88];
        ptperf_crypto::hkdf(b"obfs4-frames", key_seed, dir, &mut okm);
        let pk: [u8; 32] = okm[0..32].try_into().unwrap();
        let lk: [u8; 32] = okm[32..64].try_into().unwrap();
        let mk: [u8; 32] = okm[64..88]
            .iter()
            .chain([0u8; 8].iter())
            .copied()
            .collect::<Vec<u8>>()
            .try_into()
            .unwrap();
        let pn: [u8; 12] = okm[32..44].try_into().unwrap();
        let ln: [u8; 12] = okm[44..56].try_into().unwrap();
        FrameCodec {
            payload_cipher: ChaCha20::new(&pk, &pn, 0),
            length_cipher: ChaCha20::new(&lk, &ln, 1 << 16),
            mac_key: mk,
            counter: 0,
        }
    }

    /// Seals one frame.
    ///
    /// # Panics
    /// Panics if the payload exceeds [`MAX_FRAME_PAYLOAD`].
    pub fn seal(&mut self, payload: &[u8]) -> Vec<u8> {
        assert!(
            payload.len() <= MAX_FRAME_PAYLOAD,
            "obfs4 frame payload {} > {MAX_FRAME_PAYLOAD}",
            payload.len()
        );
        // Single output allocation: [len | ct | tag], encrypting the
        // payload in place inside `out` and MACing incrementally.
        let mut out = Vec::with_capacity(2 + payload.len() + TAG_LEN);
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(payload);
        self.payload_cipher.apply(&mut out[2..]);
        let mut mac = HmacSha256::new(&self.mac_key);
        mac.update(&self.counter.to_be_bytes()).update(&out[2..]);
        let tag = mac.finalize();
        self.counter += 1;

        let framed_len = (payload.len() + TAG_LEN) as u16;
        let mut len_bytes = framed_len.to_be_bytes();
        self.length_cipher.apply(&mut len_bytes);
        out[..2].copy_from_slice(&len_bytes);
        out.extend_from_slice(&tag[..TAG_LEN]);
        out
    }

    /// Opens one frame from the front of `buf`, consuming it. Returns
    /// `Ok(None)` when more bytes are needed.
    ///
    /// An `Err` is **terminal for the connection**: the offending bytes
    /// stay in the buffer (and no codec state advances), so retrying on
    /// the same buffer returns the same error. Real obfs4 tears the
    /// connection down on a MAC failure; callers must do the same rather
    /// than retry.
    pub fn open(&mut self, buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, HandshakeError> {
        let mut out = Vec::new();
        Ok(self.open_into(buf, &mut out)?.map(|_| out))
    }

    /// [`Self::open`] appending the plaintext to a caller-provided
    /// buffer instead of allocating one, and decrypting in place inside
    /// `buf` — no per-frame allocation once `out` has capacity. Returns
    /// the plaintext length on a completed frame.
    ///
    /// Error and need-more-bytes behavior match [`Self::open`]: on
    /// either, `buf`, `out`, and all codec state are left untouched.
    pub fn open_into(
        &mut self,
        buf: &mut Vec<u8>,
        out: &mut Vec<u8>,
    ) -> Result<Option<usize>, HandshakeError> {
        if buf.len() < 2 {
            return Ok(None);
        }
        let mut len_bytes = [buf[0], buf[1]];
        // Peek-decrypt the length: nothing may advance — neither the
        // length cipher nor the counter — until the whole frame is
        // present *and* authenticated, so decrypt on a stack copy.
        let mut peek = self.length_cipher.clone();
        peek.apply(&mut len_bytes);
        let framed_len = u16::from_be_bytes(len_bytes) as usize;
        if framed_len < TAG_LEN {
            return Err(HandshakeError::BadMac);
        }
        if buf.len() < 2 + framed_len {
            return Ok(None);
        }
        let ct_len = framed_len - TAG_LEN;
        // Authenticate the ciphertext where it sits, incrementally.
        let mut mac = HmacSha256::new(&self.mac_key);
        mac.update(&self.counter.to_be_bytes())
            .update(&buf[2..2 + ct_len]);
        let expect = mac.finalize();
        let tag = &buf[2 + ct_len..2 + framed_len];
        if !ct_eq(tag, &expect[..TAG_LEN]) {
            return Err(HandshakeError::BadMac);
        }
        // Commit: the frame is authentic — advance the length cipher and
        // counter, decrypt in place, hand the plaintext out, and consume
        // the frame.
        let mut commit = [buf[0], buf[1]];
        self.length_cipher.apply(&mut commit);
        self.counter += 1;
        self.payload_cipher.apply(&mut buf[2..2 + ct_len]);
        out.extend_from_slice(&buf[2..2 + ct_len]);
        buf.drain(..2 + framed_len);
        Ok(Some(ct_len))
    }
}

/// Wire overhead of the frame layer: wire bytes per payload byte at full
/// frames.
pub fn frame_overhead() -> f64 {
    (MAX_FRAME_PAYLOAD + FRAME_OVERHEAD) as f64 / MAX_FRAME_PAYLOAD as f64
}

/// obfs4's inter-arrival-time obfuscation modes (`iat-mode` in the
/// bridge line). Mode 0 writes data as fast as the socket allows; modes
/// 1 and 2 chop writes into sampled lengths and pace them, trading
/// throughput for resistance to packet-size/timing classifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IatMode {
    /// No timing obfuscation (Tor's default deployment).
    #[default]
    None,
    /// Shaped: writes split at sampled lengths, lightly paced.
    Shaped,
    /// Paranoid: every write sampled and paced, heaviest cost.
    Paranoid,
}

impl IatMode {
    /// Mean write length under this mode (bytes): modes 1/2 sample
    /// lengths uniformly over the frame range instead of always filling
    /// frames.
    pub fn mean_write_len(self) -> f64 {
        match self {
            IatMode::None => MAX_FRAME_PAYLOAD as f64,
            // Uniform over [1, MAX]: mean ≈ MAX/2.
            IatMode::Shaped | IatMode::Paranoid => MAX_FRAME_PAYLOAD as f64 / 2.0,
        }
    }

    /// Pacing delay inserted between writes.
    pub fn write_delay(self) -> f64 {
        match self {
            IatMode::None => 0.0,
            IatMode::Shaped => 0.002,   // 2 ms mean inter-write gap
            IatMode::Paranoid => 0.010, // 10 ms
        }
    }

    /// Throughput ceiling the pacing imposes (bytes/s): one mean-length
    /// write per pacing interval. `None` for mode 0 (unpaced).
    pub fn rate_cap(self) -> Option<f64> {
        match self {
            IatMode::None => None,
            mode => Some(self.mean_write_len() / mode.write_delay().max(1e-9)),
        }
    }
}

/// Round trips to the bridge before the tunnel carries data: TCP connect
/// (1), then the obfs4 ntor handshake (1).
pub const HANDSHAKE_ROUND_TRIPS: u32 = 2;

/// The obfs4 transport model.
#[derive(Default)]
pub struct Obfs4 {
    /// Timing-obfuscation mode (default: none, like Tor's deployment).
    pub iat_mode: IatMode,
}

impl PluggableTransport for Obfs4 {
    fn id(&self) -> PtId {
        PtId::Obfs4
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
            PtId::Obfs4,
            HANDSHAKE_ROUND_TRIPS,
            dep,
            opts,
            dest,
            rng,
            scratch,
        );
        apply_frame_overhead(&mut ch, frame_overhead());
        // IAT pacing caps throughput; half-filled frames also raise the
        // effective framing overhead.
        if let Some(cap) = self.iat_mode.rate_cap() {
            ch.rate_cap = Some(ch.rate_cap.map_or(cap, |c| c.min(cap)));
            let iat_overhead = (self.iat_mode.mean_write_len() + FRAME_OVERHEAD as f64)
                / self.iat_mode.mean_write_len();
            apply_frame_overhead(&mut ch, iat_overhead / frame_overhead());
        }
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity() -> BridgeIdentity {
        BridgeIdentity::from_seed(7)
    }

    fn client_keys(seed: u8) -> Keypair {
        let mut s = [0u8; 32];
        for (i, b) in s.iter_mut().enumerate() {
            *b = seed.wrapping_add(i as u8);
        }
        Keypair::from_secret(s)
    }

    #[test]
    fn hello_round_trip() {
        let id = identity();
        let client = client_keys(1);
        let mut rng = SimRng::new(1);
        let msg = client_hello(
            &id.keypair.public,
            &id.node_id,
            &client,
            100,
            4242,
            &mut rng,
        );
        let parsed = server_parse_hello(&id, &msg, 4242).unwrap();
        assert_eq!(parsed.client_pub, client.public);
        assert_eq!(parsed.pad_len, 100);
    }

    #[test]
    fn hello_pad_lengths_vary_message_size() {
        let id = identity();
        let client = client_keys(2);
        let mut rng = SimRng::new(2);
        let a = client_hello(&id.keypair.public, &id.node_id, &client, 0, 1, &mut rng);
        let b = client_hello(&id.keypair.public, &id.node_id, &client, 512, 1, &mut rng);
        assert_eq!(b.len() - a.len(), 512);
    }

    #[test]
    fn wrong_epoch_rejected() {
        let id = identity();
        let client = client_keys(3);
        let mut rng = SimRng::new(3);
        let msg = client_hello(&id.keypair.public, &id.node_id, &client, 64, 100, &mut rng);
        assert_eq!(
            server_parse_hello(&id, &msg, 101),
            Err(HandshakeError::BadMac)
        );
    }

    #[test]
    fn wrong_bridge_keys_rejected() {
        let id = identity();
        let other = BridgeIdentity::from_seed(8);
        let client = client_keys(4);
        let mut rng = SimRng::new(4);
        // Client speaks to the wrong bridge: mark key mismatch.
        let msg = client_hello(
            &other.keypair.public,
            &other.node_id,
            &client,
            64,
            5,
            &mut rng,
        );
        assert!(server_parse_hello(&id, &msg, 5).is_err());
    }

    #[test]
    fn truncated_hello_rejected() {
        let id = identity();
        assert_eq!(
            server_parse_hello(&id, &[0u8; 10], 1),
            Err(HandshakeError::Truncated)
        );
    }

    #[test]
    fn ntor_both_sides_agree() {
        let id = identity();
        let client = client_keys(5);
        let server_eph = client_keys(99);
        let server_keys = server_ntor(&id, &server_eph, &client.public);
        let client_keys = client_ntor(&client, &id.keypair.public, &id.node_id, &server_eph.public);
        assert_eq!(server_keys, client_keys);
    }

    #[test]
    fn ntor_differs_per_client() {
        let id = identity();
        let server_eph = client_keys(99);
        let a = server_ntor(&id, &server_eph, &client_keys(5).public);
        let b = server_ntor(&id, &server_eph, &client_keys(6).public);
        assert_ne!(a.key_seed, b.key_seed);
    }

    #[test]
    fn frames_round_trip() {
        let seed = [42u8; 32];
        let mut tx = FrameCodec::derive(&seed, false);
        let mut rx = FrameCodec::derive(&seed, false);
        let mut buf = Vec::new();
        for msg in [
            b"hello".to_vec(),
            vec![0xAA; MAX_FRAME_PAYLOAD],
            b"world".to_vec(),
        ] {
            buf.extend_from_slice(&tx.seal(&msg));
            let got = rx.open(&mut buf).unwrap().expect("frame complete");
            assert_eq!(got, msg);
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let seed = [1u8; 32];
        let mut tx = FrameCodec::derive(&seed, true);
        let mut rx = FrameCodec::derive(&seed, true);
        let frame = tx.seal(b"split across reads");
        let mut buf = frame[..5].to_vec();
        assert!(rx.open(&mut buf).unwrap().is_none());
        buf.extend_from_slice(&frame[5..]);
        assert_eq!(rx.open(&mut buf).unwrap().unwrap(), b"split across reads");
    }

    #[test]
    fn tampered_frame_rejected() {
        let seed = [2u8; 32];
        let mut tx = FrameCodec::derive(&seed, false);
        let mut rx = FrameCodec::derive(&seed, false);
        let mut frame = tx.seal(b"payload");
        let mid = frame.len() / 2;
        frame[mid] ^= 0x01;
        let mut buf = frame;
        assert!(rx.open(&mut buf).is_err());
    }

    #[test]
    fn open_into_round_trips_with_a_reused_buffer() {
        // The allocation-free path: many frames through one plaintext
        // buffer, interleaved with `open` to prove the two entry points
        // share state correctly.
        let seed = [7u8; 32];
        let mut tx = FrameCodec::derive(&seed, false);
        let mut rx = FrameCodec::derive(&seed, false);
        let mut buf = Vec::new();
        let mut out = Vec::new();
        let messages: Vec<Vec<u8>> = (0..64u8)
            .map(|i| vec![i; 1 + (i as usize * 23) % MAX_FRAME_PAYLOAD])
            .collect();
        for msg in &messages {
            buf.extend_from_slice(&tx.seal(msg));
        }
        // Warm up capacity on the first few frames...
        for msg in messages.iter().take(8) {
            out.clear();
            let n = rx.open_into(&mut buf, &mut out).unwrap().expect("frame");
            assert_eq!(n, msg.len());
            assert_eq!(&out, msg);
        }
        // ...then the steady state must not reallocate `out` (every
        // payload fits the largest already seen or grows it at most to
        // MAX_FRAME_PAYLOAD once).
        out.reserve(MAX_FRAME_PAYLOAD);
        let cap = out.capacity();
        for (i, msg) in messages.iter().enumerate().skip(8) {
            if i % 2 == 0 {
                out.clear();
                rx.open_into(&mut buf, &mut out).unwrap().expect("frame");
                assert_eq!(&out, msg);
            } else {
                assert_eq!(&rx.open(&mut buf).unwrap().expect("frame"), msg);
            }
        }
        assert_eq!(out.capacity(), cap, "steady-state open_into reallocated");
        assert!(buf.is_empty());
    }

    #[test]
    fn open_into_appends_without_clobbering() {
        let seed = [8u8; 32];
        let mut tx = FrameCodec::derive(&seed, true);
        let mut rx = FrameCodec::derive(&seed, true);
        let mut buf = tx.seal(b"second");
        let mut out = b"first/".to_vec();
        rx.open_into(&mut buf, &mut out).unwrap().expect("frame");
        assert_eq!(out, b"first/second");
    }

    #[test]
    fn failed_open_leaves_buffer_and_codec_state_untouched() {
        let seed = [9u8; 32];
        let mut tx = FrameCodec::derive(&seed, false);
        let mut rx = FrameCodec::derive(&seed, false);
        // A good frame decodes after a tampered copy was rejected, but
        // only once the tampered bytes are gone: the reject must not
        // have advanced the length cipher, counter, or payload cipher.
        let good = tx.seal(b"kept intact");
        let mut tampered = good.clone();
        let n = tampered.len();
        tampered[n - 1] ^= 0x80; // break the tag, keep the length intact
        let mut buf = tampered.clone();
        let before_len = buf.len();
        assert!(rx.open(&mut buf).is_err());
        assert_eq!(buf.len(), before_len, "reject consumed bytes");
        // Same error again on retry (documented terminal behavior).
        assert!(rx.open(&mut buf).is_err());
        // Replace with the intact frame: decodes with the same codec.
        buf.clear();
        buf.extend_from_slice(&good);
        assert_eq!(rx.open(&mut buf).unwrap().unwrap(), b"kept intact");
    }

    #[test]
    fn seal_output_is_wire_compatible_across_frame_sizes() {
        // Regression pin: the single-allocation seal emits byte-for-byte
        // what a decoupled encrypt-then-concatenate construction does.
        let seed = [10u8; 32];
        let mut tx = FrameCodec::derive(&seed, false);
        let mut oracle = FrameCodec::derive(&seed, false);
        for len in [0usize, 1, 2, 100, MAX_FRAME_PAYLOAD] {
            let payload = vec![0x5A; len];
            let frame = tx.seal(&payload);
            // Oracle construction, mirroring the original implementation.
            let mut ct = payload.clone();
            oracle.payload_cipher.apply(&mut ct);
            let mut tag_input = oracle.counter.to_be_bytes().to_vec();
            tag_input.extend_from_slice(&ct);
            let tag = hmac_sha256(&oracle.mac_key, &tag_input);
            oracle.counter += 1;
            let mut len_bytes = ((ct.len() + TAG_LEN) as u16).to_be_bytes();
            oracle.length_cipher.apply(&mut len_bytes);
            let mut expect = Vec::new();
            expect.extend_from_slice(&len_bytes);
            expect.extend_from_slice(&ct);
            expect.extend_from_slice(&tag[..TAG_LEN]);
            assert_eq!(frame, expect, "wire mismatch at payload len {len}");
        }
    }

    #[test]
    fn directions_are_independent() {
        let seed = [3u8; 32];
        let mut c2s = FrameCodec::derive(&seed, false);
        let mut s2c = FrameCodec::derive(&seed, true);
        let a = c2s.seal(b"same payload");
        let b = s2c.seal(b"same payload");
        assert_ne!(a, b, "directional keys must differ");
    }

    #[test]
    fn overhead_is_small() {
        let oh = frame_overhead();
        assert!(oh > 1.0 && oh < 1.02, "{oh}");
    }

    #[test]
    fn iat_modes_trade_throughput_for_cover() {
        // Rate ceilings order: paranoid < shaped < unpaced.
        let shaped = IatMode::Shaped.rate_cap().unwrap();
        let paranoid = IatMode::Paranoid.rate_cap().unwrap();
        assert!(IatMode::None.rate_cap().is_none());
        assert!(paranoid < shaped, "paranoid {paranoid} vs shaped {shaped}");
        // Shaped still leaves hundreds of kB/s; paranoid tens.
        assert!(shaped > 300_000.0);
        assert!(paranoid < 100_000.0);
    }

    #[test]
    fn paranoid_mode_slows_the_channel() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut a = SimRng::new(6);
        let mut b = SimRng::new(6);
        let plain = Obfs4::default().establish(&dep, &opts, Location::NewYork, &mut a);
        let paranoid = Obfs4 {
            iat_mode: IatMode::Paranoid,
        }
        .establish(&dep, &opts, Location::NewYork, &mut b);
        assert!(paranoid.effective_rate() < plain.effective_rate() / 2.0);
    }

    #[test]
    fn establish_produces_usable_channel() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(5);
        let ch = Obfs4::default().establish(&dep, &opts, Location::NewYork, &mut rng);
        assert!(ch.setup > ptperf_sim::SimDuration::ZERO);
        assert!(ch.response.bottleneck_bps > 0.0);
        assert_eq!(ch.rate_cap, None);
        assert_eq!(ch.hazard_per_sec, 0.0);
    }
}
