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
//! Implemented pieces: the message framing codec (sequence ‖ flags ‖
//! payload inside an IM message body, base64-coded for text transports)
//! and a token-bucket rate limiter mirroring IM API quotas.

use ptperf_sim::{Location, SimDuration, SimRng};
use ptperf_web::Channel;

use crate::common::{own_host_channel, EstablishScratch};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Maximum payload per IM message (attachment-style chunk).
pub const MAX_MESSAGE_PAYLOAD: usize = 60_000;

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes bytes as base64 (no padding) — IM text bodies must be text.
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for block in data.chunks(3) {
        let mut buf = [0u8; 3];
        buf[..block.len()].copy_from_slice(block);
        let v = (u32::from(buf[0]) << 16) | (u32::from(buf[1]) << 8) | u32::from(buf[2]);
        let chars = block.len() + 1;
        for i in 0..chars {
            out.push(B64[((v >> (18 - 6 * i)) & 0x3F) as usize] as char);
        }
    }
    out
}

/// Decodes unpadded base64.
pub fn base64_decode(s: &str) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(s.len() * 3 / 4);
    for block in s.as_bytes().chunks(4) {
        if block.len() == 1 {
            return None;
        }
        let mut v: u32 = 0;
        for (i, &c) in block.iter().enumerate() {
            let idx = B64.iter().position(|&a| a == c)? as u32;
            v |= idx << (18 - 6 * i);
        }
        for i in 0..block.len() - 1 {
            out.push((v >> (16 - 8 * i)) as u8);
        }
    }
    Some(out)
}

/// An IM tunnel message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImMessage {
    /// Sequence number within the stream.
    pub seq: u32,
    /// Final message of the current object.
    pub fin: bool,
    /// Carried bytes.
    pub payload: Vec<u8>,
}

impl ImMessage {
    /// Serializes into an IM text body.
    pub fn encode(&self) -> String {
        let mut raw = Vec::with_capacity(5 + self.payload.len());
        raw.extend_from_slice(&self.seq.to_be_bytes());
        raw.push(u8::from(self.fin));
        raw.extend_from_slice(&self.payload);
        base64_encode(&raw)
    }

    /// Parses an IM text body.
    pub fn decode(body: &str) -> Option<ImMessage> {
        let raw = base64_decode(body)?;
        if raw.len() < 5 {
            return None;
        }
        Some(ImMessage {
            seq: u32::from_be_bytes(raw[..4].try_into().unwrap()),
            fin: raw[4] == 1,
            payload: raw[5..].to_vec(),
        })
    }
}

/// A token-bucket mirror of an IM platform's API quota.
#[derive(Debug, Clone, Copy)]
pub struct RateLimiter {
    /// Messages allowed per second (sustained).
    pub rate_per_sec: f64,
    /// Burst size.
    pub burst: f64,
    tokens: f64,
}

impl RateLimiter {
    /// A limiter with the given sustained rate and burst, starting full.
    pub fn new(rate_per_sec: f64, burst: f64) -> RateLimiter {
        RateLimiter {
            rate_per_sec,
            burst,
            tokens: burst,
        }
    }

    /// Attempts to send `n` messages after `elapsed` since the last call;
    /// returns how long the sender must wait before all `n` are allowed.
    pub fn acquire(&mut self, n: f64, elapsed: SimDuration) -> SimDuration {
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate_per_sec).min(self.burst);
        if self.tokens >= n {
            self.tokens -= n;
            SimDuration::ZERO
        } else {
            let deficit = n - self.tokens;
            self.tokens = 0.0;
            SimDuration::from_secs_f64(deficit / self.rate_per_sec)
        }
    }

    /// Effective payload throughput under this limiter (bytes/s).
    pub fn throughput(&self, payload_per_message: usize) -> f64 {
        self.rate_per_sec * payload_per_message as f64
    }
}

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
        let limiter = RateLimiter::new(self.api_rate_per_sec, 10.0);
        let mut ch =
            own_host_channel(PtId::Camoufler, HANDSHAKE_ROUND_TRIPS, dep, opts, dest, rng, scratch);
        // Bulk throughput = message quota × payload per message.
        ch.rate_cap = Some(limiter.throughput(MAX_MESSAGE_PAYLOAD));
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
    use proptest::prelude::*;

    #[test]
    fn base64_known_values() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg");
        assert_eq!(base64_encode(b"fo"), "Zm8");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
    }

    proptest! {
        #[test]
        fn base64_round_trips(data in proptest::collection::vec(any::<u8>(), 0..300)) {
            prop_assert_eq!(base64_decode(&base64_encode(&data)).unwrap(), data);
        }
    }

    #[test]
    fn im_message_round_trip() {
        let msg = ImMessage {
            seq: 42,
            fin: true,
            payload: b"tunneled content".to_vec(),
        };
        let body = msg.encode();
        // The body must be plain text an IM platform accepts.
        assert!(body.chars().all(|c| c.is_ascii_alphanumeric() || c == '+' || c == '/'));
        assert_eq!(ImMessage::decode(&body).unwrap(), msg);
    }

    #[test]
    fn im_message_rejects_garbage() {
        assert!(ImMessage::decode("!!!").is_none());
        assert!(ImMessage::decode("Zg").is_none()); // too short after decode
    }

    #[test]
    fn rate_limiter_allows_burst_then_throttles() {
        let mut rl = RateLimiter::new(5.0, 10.0);
        assert_eq!(rl.acquire(10.0, SimDuration::ZERO), SimDuration::ZERO);
        let wait = rl.acquire(5.0, SimDuration::ZERO);
        assert!((wait.as_secs_f64() - 1.0).abs() < 1e-9, "{wait}");
    }

    #[test]
    fn rate_limiter_refills_over_time() {
        let mut rl = RateLimiter::new(5.0, 10.0);
        rl.acquire(10.0, SimDuration::ZERO);
        // After 2 s, 10 tokens are back (capped at burst).
        assert_eq!(rl.acquire(10.0, SimDuration::from_secs(2)), SimDuration::ZERO);
    }

    #[test]
    fn throughput_formula() {
        let rl = RateLimiter::new(5.0, 10.0);
        assert_eq!(rl.throughput(60_000), 300_000.0);
    }

    #[test]
    fn establish_reflects_im_constraints() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(10);
        let ch = Camoufler::default().establish(&dep, &opts, Location::NewYork, &mut rng);
        assert_eq!(ch.max_parallel_streams, 1);
        assert!(ch.per_request_extra > SimDuration::from_secs(2));
        assert!(ch.rate_cap.unwrap() <= 300_000.0);
        assert!(ch.connect_failure_p > 0.05);
    }
}
