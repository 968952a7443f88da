//! shadowsocks — an encrypted proxy whose wire format is a uniformly
//! random byte stream (fully-encrypted category).
//!
//! Implemented pieces:
//!
//! * the **target-address header** (SOCKS5-style: type ‖ address ‖ port)
//!   the client sends first;
//! * **AEAD chunk framing**: every chunk is a sealed 2-byte length
//!   followed by the sealed payload, each with its own tag, payload
//!   capped at 0x3FFF bytes (the shadowsocks AEAD spec's cap).
//!
//! Performance model (hop set 2): one TCP round trip to the shadowsocks
//! server — the protocol itself is zero-RTT — then the server forwards to
//! a volunteer Tor guard, giving four hops total.

use ptperf_crypto::{ct_eq, hmac_sha256, ChaCha20};
use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{apply_frame_overhead, own_host_channel, EstablishScratch};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Maximum payload per AEAD chunk (per the shadowsocks AEAD spec).
pub const MAX_CHUNK: usize = 0x3FFF;

/// Tag length per sealed element.
pub const TAG_LEN: usize = 16;

/// A proxied target address, as carried in the first chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Address {
    /// IPv4 address and port.
    V4([u8; 4], u16),
    /// Domain name and port.
    Domain(String, u16),
}

/// Address codec errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressError {
    /// Ran out of bytes.
    Truncated,
    /// Unknown address-type byte.
    BadType(u8),
    /// Domain bytes were not UTF-8.
    BadDomain,
}

impl Address {
    /// Encodes to the SOCKS5-style wire form.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Address::V4(ip, port) => {
                let mut v = vec![0x01];
                v.extend_from_slice(ip);
                v.extend_from_slice(&port.to_be_bytes());
                v
            }
            Address::Domain(name, port) => {
                assert!(name.len() <= 255, "domain too long");
                let mut v = vec![0x03, name.len() as u8];
                v.extend_from_slice(name.as_bytes());
                v.extend_from_slice(&port.to_be_bytes());
                v
            }
        }
    }

    /// Decodes from the wire form; returns the address and bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Address, usize), AddressError> {
        match buf.first() {
            Some(0x01) => {
                if buf.len() < 7 {
                    return Err(AddressError::Truncated);
                }
                let ip = [buf[1], buf[2], buf[3], buf[4]];
                let port = u16::from_be_bytes([buf[5], buf[6]]);
                Ok((Address::V4(ip, port), 7))
            }
            Some(0x03) => {
                let len = *buf.get(1).ok_or(AddressError::Truncated)? as usize;
                if buf.len() < 2 + len + 2 {
                    return Err(AddressError::Truncated);
                }
                let name = std::str::from_utf8(&buf[2..2 + len])
                    .map_err(|_| AddressError::BadDomain)?
                    .to_string();
                let port = u16::from_be_bytes([buf[2 + len], buf[3 + len]]);
                Ok((Address::Domain(name, port), 2 + len + 2))
            }
            Some(&t) => Err(AddressError::BadType(t)),
            None => Err(AddressError::Truncated),
        }
    }
}

/// One direction of the AEAD chunk stream.
pub struct ChunkCodec {
    cipher: ChaCha20,
    mac_key: [u8; 32],
    nonce_counter: u64,
}

/// Chunk codec errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkError {
    /// Tag verification failed.
    BadTag,
    /// Declared length exceeds [`MAX_CHUNK`].
    BadLength(u16),
}

impl ChunkCodec {
    /// Derives a directional codec from the pre-shared key and the
    /// connection salt.
    pub fn derive(master_key: &[u8; 32], salt: &[u8; 16], is_server: bool) -> ChunkCodec {
        let dir: &[u8] = if is_server {
            b"ss-server"
        } else {
            b"ss-client"
        };
        let mut info = salt.to_vec();
        info.extend_from_slice(dir);
        let mut okm = [0u8; 76];
        ptperf_crypto::hkdf(b"ss-subkey", master_key, &info, &mut okm);
        let key: [u8; 32] = okm[0..32].try_into().unwrap();
        let nonce: [u8; 12] = okm[32..44].try_into().unwrap();
        let mac_key: [u8; 32] = okm[44..76].try_into().unwrap();
        ChunkCodec {
            cipher: ChaCha20::new(&key, &nonce, 0),
            mac_key,
            nonce_counter: 0,
        }
    }

    /// Seals one chunk: `[sealed 2-byte length][sealed payload]`.
    ///
    /// # Panics
    /// Panics if the payload exceeds [`MAX_CHUNK`] or is empty.
    pub fn seal(&mut self, payload: &[u8]) -> Vec<u8> {
        assert!(!payload.is_empty(), "shadowsocks chunk cannot be empty");
        assert!(payload.len() <= MAX_CHUNK, "chunk too large");
        let mut out = Vec::with_capacity(2 + TAG_LEN + payload.len() + TAG_LEN);

        let mut len_ct = (payload.len() as u16).to_be_bytes().to_vec();
        self.cipher.apply(&mut len_ct);
        out.extend_from_slice(&len_ct);
        out.extend_from_slice(&self.tag(&len_ct));

        let mut body_ct = payload.to_vec();
        self.cipher.apply(&mut body_ct);
        let body_tag = self.tag(&body_ct);
        out.extend_from_slice(&body_ct);
        out.extend_from_slice(&body_tag);
        out
    }

    /// Opens one chunk from the front of `buf`. `Ok(None)` means more
    /// bytes are needed.
    pub fn open(&mut self, buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, ChunkError> {
        if buf.len() < 2 + TAG_LEN {
            return Ok(None);
        }
        // Peek-decrypt the length without committing stream position.
        let mut peek = self.cipher.clone();
        let mut len_pt = [buf[0], buf[1]];
        peek.apply(&mut len_pt);
        let body_len = u16::from_be_bytes(len_pt);
        if body_len as usize > MAX_CHUNK || body_len == 0 {
            return Err(ChunkError::BadLength(body_len));
        }
        let total = 2 + TAG_LEN + body_len as usize + TAG_LEN;
        if buf.len() < total {
            return Ok(None);
        }
        // Verify the length tag with the committed counter.
        let len_ct = [buf[0], buf[1]];
        let len_tag = &buf[2..2 + TAG_LEN];
        let expect = self.peek_tag(&len_ct, 0);
        if !ct_eq(len_tag, &expect) {
            return Err(ChunkError::BadTag);
        }
        let body_ct = buf[2 + TAG_LEN..2 + TAG_LEN + body_len as usize].to_vec();
        let body_tag = &buf[2 + TAG_LEN + body_len as usize..total];
        let expect_body = self.peek_tag(&body_ct, 1);
        if !ct_eq(body_tag, &expect_body) {
            return Err(ChunkError::BadTag);
        }
        // Commit: advance cipher over both sealed elements and counters.
        let mut scratch = [buf[0], buf[1]];
        self.cipher.apply(&mut scratch);
        let mut body = body_ct;
        self.cipher.apply(&mut body);
        self.nonce_counter += 2;
        buf.drain(..total);
        Ok(Some(body))
    }

    fn tag(&mut self, ct: &[u8]) -> [u8; TAG_LEN] {
        let t = self.peek_tag(ct, 0);
        self.nonce_counter += 1;
        t
    }

    fn peek_tag(&self, ct: &[u8], offset: u64) -> [u8; TAG_LEN] {
        let mut input = (self.nonce_counter + offset).to_be_bytes().to_vec();
        input.extend_from_slice(ct);
        let full = hmac_sha256(&self.mac_key, &input);
        full[..TAG_LEN].try_into().unwrap()
    }
}

/// Wire overhead: sealed length + two tags per full chunk.
pub fn frame_overhead() -> f64 {
    (MAX_CHUNK + 2 + 2 * TAG_LEN) as f64 / MAX_CHUNK as f64
}

/// Round trips to the shadowsocks server before the tunnel carries data:
/// TCP connect only. The AEAD protocol is zero-RTT after transport
/// establishment: the first sealed chunk carries the target address.
pub const HANDSHAKE_ROUND_TRIPS: u32 = 1;

/// The shadowsocks transport model.
pub struct Shadowsocks;

impl PluggableTransport for Shadowsocks {
    fn id(&self) -> PtId {
        PtId::Shadowsocks
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
            PtId::Shadowsocks,
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
    fn address_v4_round_trip() {
        let a = Address::V4([93, 184, 216, 34], 443);
        let enc = a.encode();
        let (back, used) = Address::decode(&enc).unwrap();
        assert_eq!(back, a);
        assert_eq!(used, enc.len());
    }

    #[test]
    fn address_domain_round_trip() {
        let a = Address::Domain("blocked.example.com".into(), 443);
        let enc = a.encode();
        let (back, used) = Address::decode(&enc).unwrap();
        assert_eq!(back, a);
        assert_eq!(used, enc.len());
    }

    #[test]
    fn address_rejects_garbage() {
        assert_eq!(Address::decode(&[]), Err(AddressError::Truncated));
        assert_eq!(
            Address::decode(&[0x09, 1, 2]),
            Err(AddressError::BadType(0x09))
        );
        assert_eq!(Address::decode(&[0x01, 1, 2]), Err(AddressError::Truncated));
    }

    fn codecs() -> (ChunkCodec, ChunkCodec) {
        let key = [7u8; 32];
        let salt = [9u8; 16];
        (
            ChunkCodec::derive(&key, &salt, false),
            ChunkCodec::derive(&key, &salt, false),
        )
    }

    #[test]
    fn chunks_round_trip() {
        let (mut tx, mut rx) = codecs();
        let mut buf = Vec::new();
        for payload in [b"first".to_vec(), vec![0x55; MAX_CHUNK], b"third".to_vec()] {
            buf.extend_from_slice(&tx.seal(&payload));
            let got = rx.open(&mut buf).unwrap().unwrap();
            assert_eq!(got, payload);
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn split_delivery_waits() {
        let (mut tx, mut rx) = codecs();
        let chunk = tx.seal(b"partial arrival");
        let mut buf = chunk[..3].to_vec();
        assert_eq!(rx.open(&mut buf).unwrap(), None);
        buf.extend_from_slice(&chunk[3..10]);
        assert_eq!(rx.open(&mut buf).unwrap(), None);
        buf.extend_from_slice(&chunk[10..]);
        assert_eq!(rx.open(&mut buf).unwrap().unwrap(), b"partial arrival");
    }

    #[test]
    fn tampering_detected() {
        let (mut tx, mut rx) = codecs();
        let mut chunk = tx.seal(b"sensitive");
        let n = chunk.len();
        chunk[n - 1] ^= 0x80; // body tag
        let mut buf = chunk;
        assert_eq!(rx.open(&mut buf), Err(ChunkError::BadTag));
    }

    #[test]
    fn directions_use_different_keys() {
        let key = [1u8; 32];
        let salt = [2u8; 16];
        let mut c = ChunkCodec::derive(&key, &salt, false);
        let mut s = ChunkCodec::derive(&key, &salt, true);
        assert_ne!(c.seal(b"same"), s.seal(b"same"));
    }

    #[test]
    fn different_salts_differ() {
        let key = [1u8; 32];
        let mut a = ChunkCodec::derive(&key, &[0u8; 16], false);
        let mut b = ChunkCodec::derive(&key, &[1u8; 16], false);
        assert_ne!(a.seal(b"x"), b.seal(b"x"));
    }

    #[test]
    fn overhead_is_tiny() {
        let oh = frame_overhead();
        assert!(oh > 1.0 && oh < 1.01, "{oh}");
    }

    #[test]
    fn establish_uses_four_hops() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(3);
        let ch = Shadowsocks.establish(&dep, &opts, Location::NewYork, &mut rng);
        // The via server caps the path at its forwarding capacity.
        assert!(ch.response.bottleneck_bps <= dep.server(PtId::Shadowsocks).capacity_bps);
        assert!(ch.setup > ptperf_sim::SimDuration::ZERO);
    }
}
