//! The `PluggableTransport` trait, deployment registry, and access
//! options shared by all transport implementations.

use ptperf_sim::{LoadProfile, Location, Medium, SimRng};
use ptperf_tor::{Consensus, ConsensusParams, PathConfig, RelayId};
use ptperf_web::Channel;

use crate::common::EstablishScratch;
use crate::ids::PtId;

/// A PT server host that is *not* a consensus relay (hop sets 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtServer {
    /// Where the server runs.
    pub location: Location,
    /// Forwarding capacity available to one client, bytes per second.
    pub capacity_bps: f64,
}

/// Where a PT's server runs (§4.1): a bridge relay that is the
/// circuit's first hop (set 1), or a host outside the consensus that
/// forwards to a volunteer guard or runs the Tor client (sets 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Host {
    Bridge(RelayId),
    Server(PtServer),
}

/// The deployed measurement infrastructure: a relay consensus plus the PT
/// bridges/servers registered for the campaign.
///
/// Mirrors the paper's setup (Appendix A.3): obfs4/meek/snowflake/conjure
/// use Tor-project-operated servers; the rest are self-hosted at the
/// campaign's server location.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    /// The relay consensus, including registered PT bridges.
    pub consensus: Consensus,
    /// Each PT's registered host, by [`PtId::index`].
    hosts: [Option<Host>; PtId::COUNT],
}

impl Deployment {
    /// Builds the standard campaign deployment.
    ///
    /// * `seed` drives consensus generation and bridge provisioning;
    /// * `server_region` is where self-hosted PT servers run (the paper
    ///   used Singapore, Frankfurt, and New York).
    pub fn standard(seed: u64, server_region: Location) -> Deployment {
        Self::standard_with(seed, server_region, &ConsensusParams::default())
    }

    /// [`Self::standard`] with explicit consensus parameters (benchmarks
    /// use this to provision 5000-relay consensuses). With default
    /// parameters this is draw-for-draw identical to [`Self::standard`].
    pub fn standard_with(
        seed: u64,
        server_region: Location,
        params: &ConsensusParams,
    ) -> Deployment {
        // Set 1 — PT server doubles as guard: (PT, host, capacity, load).
        let set1 = [
            // Tor-operated bridges: well provisioned, lightly loaded (§4.2.1).
            (
                PtId::Obfs4,
                Location::Frankfurt,
                5.5e6,
                LoadProfile::ManagedBridge,
            ),
            (
                PtId::Meek,
                Location::NewYork,
                4.0e6,
                LoadProfile::ManagedBridge,
            ),
            (
                PtId::Conjure,
                Location::Frankfurt,
                6.0e6,
                LoadProfile::ManagedBridge,
            ),
            // Snowflake's bridge (behind the volunteer proxies) is Tor-operated.
            (
                PtId::Snowflake,
                Location::Frankfurt,
                5.0e6,
                LoadProfile::ManagedBridge,
            ),
            // Self-hosted set-1 servers at the campaign server region.
            (
                PtId::WebTunnel,
                server_region,
                5.0e6,
                LoadProfile::Dedicated,
            ),
            (PtId::Dnstt, server_region, 5.0e6, LoadProfile::Dedicated),
        ];
        let mut rng = SimRng::new(seed);
        let mut consensus = Consensus::generate_with(&mut rng, params, set1.len());
        let mut hosts = [None; PtId::COUNT];
        for (pt, location, capacity, profile) in set1 {
            let id = consensus.add_guard(location, capacity, profile.sampler().sample(&mut rng));
            hosts[pt.index()] = Some(Host::Bridge(id));
        }

        // Sets 2 and 3 — separate PT server hosts (self-hosted).
        for pt in [
            PtId::Shadowsocks,
            PtId::Psiphon,
            PtId::Stegotorus,
            PtId::Camoufler,
            PtId::Cloak,
            PtId::Marionette,
        ] {
            hosts[pt.index()] = Some(Host::Server(PtServer {
                location: server_region,
                capacity_bps: rng.range_f64(4.0e6, 8.0e6),
            }));
        }

        Deployment { consensus, hosts }
    }

    /// The registered host of `pt`.
    ///
    /// # Panics
    /// Panics if the PT has none (vanilla Tor).
    pub(crate) fn host(&self, pt: PtId) -> Host {
        self.hosts[pt.index()].unwrap_or_else(|| panic!("{pt} has no registered host"))
    }

    /// The registered bridge relay for a set-1 PT.
    ///
    /// # Panics
    /// Panics if the PT has no bridge in this deployment (wrong hop set).
    pub fn bridge(&self, pt: PtId) -> RelayId {
        match self.hosts[pt.index()] {
            Some(Host::Bridge(id)) => id,
            _ => panic!("{pt} has no registered bridge relay"),
        }
    }

    /// The PT server host for a set-2/3 PT.
    ///
    /// # Panics
    /// Panics if the PT has no server host (wrong hop set).
    pub fn server(&self, pt: PtId) -> PtServer {
        match self.hosts[pt.index()] {
            Some(Host::Server(server)) => server,
            _ => panic!("{pt} has no registered server host"),
        }
    }

    /// Replaces a PT's host with a private, self-hosted bridge at
    /// `location` (§4.2.1's "hosting private PT servers" experiment).
    pub fn host_private_bridge(&mut self, pt: PtId, location: Location, capacity_bps: f64) {
        let id = self.consensus.add_guard(location, capacity_bps, 0.03);
        self.hosts[pt.index()] = Some(Host::Bridge(id));
    }
}

/// Per-measurement access configuration.
#[derive(Debug, Clone, Copy)]
pub struct AccessOptions {
    /// Client location.
    pub client: Location,
    /// Client access medium.
    pub medium: Medium,
    /// Load multiplier on PT-bridge infrastructure (the Iran-surge knob;
    /// 1.0 = normal, §5.3 used ~3–4 at peak).
    pub load_mult: f64,
    /// Circuit pinning for the fixed-circuit experiments.
    pub path: PathConfig,
}

impl AccessOptions {
    /// Defaults: wired client at `client`, no surge, no pinning.
    pub fn new(client: Location) -> AccessOptions {
        AccessOptions {
            client,
            medium: Medium::Wired,
            load_mult: 1.0,
            path: PathConfig::default(),
        }
    }
}

/// A pluggable transport: turns a deployment + access options into a
/// ready [`Channel`] for one measurement against `dest`.
pub trait PluggableTransport {
    /// Which transport this is.
    fn id(&self) -> PtId;

    /// Establishes the tunnel and returns the channel a client would
    /// see, reusing `scratch` for path-selection state. Hot loops keep
    /// one [`EstablishScratch`] alive across establishes to avoid
    /// per-establish allocation; results are identical either way.
    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel;

    /// Establishes the tunnel with one-shot scratch (convenience for
    /// call sites outside hot loops).
    fn establish(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
    ) -> Channel {
        self.establish_with(dep, opts, dest, rng, &mut EstablishScratch::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_deployment_registers_all_roles() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        for pt in [
            PtId::Obfs4,
            PtId::Meek,
            PtId::Conjure,
            PtId::Snowflake,
            PtId::WebTunnel,
            PtId::Dnstt,
        ] {
            let id = dep.bridge(pt);
            assert!(
                dep.consensus.relay(id).flags.guard,
                "{pt} bridge not a guard"
            );
        }
        for pt in [
            PtId::Shadowsocks,
            PtId::Psiphon,
            PtId::Stegotorus,
            PtId::Camoufler,
            PtId::Cloak,
            PtId::Marionette,
        ] {
            assert!(dep.server(pt).capacity_bps > 0.0);
        }
    }

    #[test]
    fn bridges_are_lightly_loaded() {
        let dep = Deployment::standard(2, Location::Frankfurt);
        let bridge = dep.consensus.relay(dep.bridge(PtId::Obfs4));
        assert!(
            bridge.utilization < 0.3,
            "bridge util {}",
            bridge.utilization
        );
    }

    #[test]
    #[should_panic(expected = "no registered bridge")]
    fn set2_pt_has_no_bridge() {
        let dep = Deployment::standard(3, Location::Frankfurt);
        let _ = dep.bridge(PtId::Shadowsocks);
    }

    #[test]
    fn private_bridge_replaces_default() {
        let mut dep = Deployment::standard(4, Location::Frankfurt);
        let before = dep.bridge(PtId::Obfs4);
        dep.host_private_bridge(PtId::Obfs4, Location::London, 3.0e6);
        let after = dep.bridge(PtId::Obfs4);
        assert_ne!(before, after);
        assert_eq!(dep.consensus.relay(after).location, Location::London);
        assert!(dep.consensus.relay(after).utilization < 0.1);
    }

    #[test]
    fn server_region_is_respected() {
        let dep = Deployment::standard(5, Location::Singapore);
        assert_eq!(dep.server(PtId::Cloak).location, Location::Singapore);
        assert_eq!(
            dep.consensus.relay(dep.bridge(PtId::WebTunnel)).location,
            Location::Singapore
        );
    }
}
