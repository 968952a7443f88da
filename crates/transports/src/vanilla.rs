//! Vanilla Tor — the baseline configuration: no pluggable transport, the
//! client connects directly to a volunteer guard.
//!
//! This is the comparison point for every figure in the paper. Its first
//! hop is a bandwidth-weighted volunteer guard carrying the network's
//! full client load — the property that lets lightly loaded PT bridges
//! beat it (§4.2.1).

use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{bootstrap_time, tor_channel_with, EstablishScratch, FirstHop, TorChannelSpec};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Round trips of the TLS link handshake with the guard before circuit
/// building.
pub const HANDSHAKE_ROUND_TRIPS: u32 = 2;

/// The vanilla Tor "transport".
pub struct Vanilla;

impl PluggableTransport for Vanilla {
    fn id(&self) -> PtId {
        PtId::Vanilla
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        // The guard is not known until selection, so approximate the link
        // handshake with a continental-median path (the cost is small
        // either way).
        let bootstrap = bootstrap_time(opts, Location::Frankfurt, HANDSHAKE_ROUND_TRIPS, rng);
        let mut ch = tor_channel_with(
            dep,
            opts,
            TorChannelSpec {
                first_hop: FirstHop::VolunteerGuard,
                via: None,
                guard_load_mult: 1.0,
            },
            dest,
            rng,
            scratch,
        );
        ch.setup += bootstrap;
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn establish_is_clean_but_guard_limited() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(14);
        let ch = Vanilla.establish(&dep, &opts, Location::NewYork, &mut rng);
        assert_eq!(ch.rate_cap, None);
        assert_eq!(ch.hazard_per_sec, 0.0);
        assert_eq!(ch.connect_failure_p, 0.0);
        assert!(ch.response.bottleneck_bps > 0.0);
    }

    #[test]
    fn bridge_first_hop_outperforms_volunteer_guards_on_average() {
        // The §4.2.1 mechanism: vanilla draws a (loaded) volunteer guard
        // each establishment; obfs4 always uses its lightly loaded
        // Tor-operated bridge, so its average available capacity is at
        // least as good.
        let dep = Deployment::standard(2, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(15);
        let mean = |samples: &[f64]| samples.iter().sum::<f64>() / samples.len() as f64;
        let vanilla: Vec<f64> = (0..120)
            .map(|_| {
                Vanilla
                    .establish(&dep, &opts, Location::NewYork, &mut rng)
                    .response
                    .bottleneck_bps
            })
            .collect();
        let obfs4: Vec<f64> = (0..120)
            .map(|_| {
                crate::obfs4::Obfs4::default()
                    .establish(&dep, &opts, Location::NewYork, &mut rng)
                    .response
                    .bottleneck_bps
            })
            .collect();
        assert!(
            mean(&obfs4) > mean(&vanilla) * 0.98,
            "obfs4 mean {} vs vanilla {}",
            mean(&obfs4),
            mean(&vanilla)
        );
    }
}
