//! conjure — refraction networking over phantom IP addresses.
//!
//! A conjure client registers with an ISP-deployed station (out of band or
//! via a registration API), derives a **phantom address** from the shared
//! secret inside the ISP's unused address space, then simply connects to
//! the phantom; the on-path station recognizes the flow and proxies it.
//!
//! Implemented pieces: the performance model only (hop set 1). The
//! client pays the registration round trip and the phantom dial, then the
//! Tor-operated, well-provisioned station is the circuit's first hop.
//! Phantom derivation and the registration codec fix no model figure and
//! are not implemented.
//!
//! The paper could not host a private conjure station (needs ISP
//! deployment, §4.2.1 fn. 4); neither do we: the deployment always uses
//! the "Tor-operated" station.

use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{own_host_channel, EstablishScratch};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

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
        own_host_channel(
            PtId::Conjure,
            HANDSHAKE_ROUND_TRIPS,
            dep,
            opts,
            dest,
            rng,
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
