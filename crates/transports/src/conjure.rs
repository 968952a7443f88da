//! conjure — refraction networking over phantom IP addresses.
//!
//! A conjure client registers with an ISP-deployed station (out of band or
//! via a registration API), derives a **phantom address** from the shared
//! secret inside the ISP's unused address space, then simply connects to
//! the phantom; the on-path station recognizes the flow and proxies it.
//!
//! Implemented pieces:
//!
//! * phantom-address derivation: HKDF over the shared secret and a day
//!   index selects an address inside the phantom subnet, identically on
//!   both sides (this is the part that must agree bit-for-bit for the
//!   station to pick the flow up);
//! * the registration message codec (client nonce ‖ phantom-subnet
//!   generation ‖ HMAC).
//!
//! Performance model (hop set 1): registration round trip + phantom dial,
//! then the station — Tor-operated, well provisioned — is the circuit's
//! first hop. The paper could not host a private conjure station (needs
//! ISP deployment, §4.2.1 fn. 4); neither do we: the deployment always
//! uses the "Tor-operated" station.

use ptperf_crypto::{ct_eq, hkdf, hmac_sha256};
use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{own_host_channel, EstablishScratch};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// The phantom subnet size (a /16 of unused ISP space).
pub const PHANTOM_SUBNET_SIZE: u32 = 1 << 16;

/// Derives the phantom address offset within the subnet for a given
/// shared secret and day. Both client and station run this.
pub fn phantom_offset(shared_secret: &[u8; 32], day_index: u32) -> u32 {
    let mut okm = [0u8; 4];
    hkdf(
        b"conjure-phantom-v1",
        shared_secret,
        &day_index.to_be_bytes(),
        &mut okm,
    );
    u32::from_be_bytes(okm) % PHANTOM_SUBNET_SIZE
}

/// A registration message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registration {
    /// Client-chosen nonce.
    pub nonce: [u8; 16],
    /// Phantom-subnet generation the client wants.
    pub generation: u32,
    /// HMAC over nonce ‖ generation with the shared secret.
    pub mac: [u8; 16],
}

impl Registration {
    /// Builds a registration authenticated with `shared_secret`.
    pub fn new(shared_secret: &[u8; 32], nonce: [u8; 16], generation: u32) -> Registration {
        let mut input = nonce.to_vec();
        input.extend_from_slice(&generation.to_be_bytes());
        let mac_full = hmac_sha256(shared_secret, &input);
        Registration {
            nonce,
            generation,
            mac: mac_full[..16].try_into().unwrap(),
        }
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.nonce.to_vec();
        out.extend_from_slice(&self.generation.to_be_bytes());
        out.extend_from_slice(&self.mac);
        out
    }

    /// Parses and authenticates a registration.
    pub fn decode(shared_secret: &[u8; 32], bytes: &[u8]) -> Option<Registration> {
        if bytes.len() != 36 {
            return None;
        }
        let nonce: [u8; 16] = bytes[..16].try_into().unwrap();
        let generation = u32::from_be_bytes(bytes[16..20].try_into().unwrap());
        let mac: [u8; 16] = bytes[20..36].try_into().unwrap();
        let expect = Registration::new(shared_secret, nonce, generation);
        if !ct_eq(&mac, &expect.mac) {
            return None;
        }
        Some(expect)
    }
}

/// Round trips to the station before the tunnel carries data: the
/// registration round trip, then the TCP dial to the phantom (intercepted
/// at the station).
pub const HANDSHAKE_ROUND_TRIPS: u32 = 2;

/// The conjure transport model.
pub struct Conjure;

impl PluggableTransport for Conjure {
    fn id(&self) -> PtId {
        PtId::Conjure
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        own_host_channel(PtId::Conjure, HANDSHAKE_ROUND_TRIPS, dep, opts, dest, rng, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phantom_agrees_between_client_and_station() {
        let secret = [5u8; 32];
        assert_eq!(phantom_offset(&secret, 100), phantom_offset(&secret, 100));
    }

    #[test]
    fn phantom_rotates_daily() {
        let secret = [5u8; 32];
        assert_ne!(phantom_offset(&secret, 100), phantom_offset(&secret, 101));
    }

    #[test]
    fn phantom_differs_per_client() {
        assert_ne!(phantom_offset(&[1u8; 32], 7), phantom_offset(&[2u8; 32], 7));
    }

    #[test]
    fn phantom_within_subnet() {
        for day in 0..100 {
            assert!(phantom_offset(&[9u8; 32], day) < PHANTOM_SUBNET_SIZE);
        }
    }

    #[test]
    fn registration_round_trip() {
        let secret = [3u8; 32];
        let reg = Registration::new(&secret, [7u8; 16], 2);
        let wire = reg.encode();
        assert_eq!(Registration::decode(&secret, &wire).unwrap(), reg);
    }

    #[test]
    fn registration_rejects_wrong_secret() {
        let reg = Registration::new(&[3u8; 32], [7u8; 16], 2);
        assert!(Registration::decode(&[4u8; 32], &reg.encode()).is_none());
    }

    #[test]
    fn registration_rejects_tampering() {
        let secret = [3u8; 32];
        let mut wire = Registration::new(&secret, [7u8; 16], 2).encode();
        wire[17] ^= 1; // flip a generation bit
        assert!(Registration::decode(&secret, &wire).is_none());
    }

    #[test]
    fn registration_rejects_wrong_length() {
        assert!(Registration::decode(&[0u8; 32], &[0u8; 35]).is_none());
    }

    #[test]
    fn establish_uses_station_as_guard() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(7);
        let ch = Conjure.establish(&dep, &opts, Location::NewYork, &mut rng);
        assert_eq!(ch.rate_cap, None);
        assert_eq!(ch.hazard_per_sec, 0.0);
        assert!(ch.setup > ptperf_sim::SimDuration::ZERO);
    }
}
