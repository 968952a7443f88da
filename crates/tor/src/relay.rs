//! Relay descriptors and flags.
//!
//! A relay is the unit of the simulated Tor network: a host with a
//! location, an advertised bandwidth, directory flags, and a sampled
//! background utilization (volunteer relays carry real user traffic; our
//! measurement flows only get what is left — the mechanism behind the
//! paper's §4.2.1 finding).

use ptperf_sim::Location;

/// Identifier of a relay within a [`crate::Consensus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelayId(pub u32);

impl std::fmt::Display for RelayId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "relay#{}", self.0)
    }
}

/// Directory flags, a subset of the real consensus flags that matter for
/// path selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RelayFlags {
    /// Eligible as the first hop of a circuit.
    pub guard: bool,
    /// Permits exit traffic to the public Internet.
    pub exit: bool,
    /// Meets the bandwidth threshold for general use.
    pub fast: bool,
    /// Long-lived enough for long-running streams.
    pub stable: bool,
}

/// A relay descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct Relay {
    /// Identity within the consensus.
    pub id: RelayId,
    /// Geographic location (datacenter region).
    pub location: Location,
    /// Advertised bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Directory flags.
    pub flags: RelayFlags,
    /// Background utilization in `[0, 1)`: the fraction of capacity
    /// consumed by other users' traffic.
    pub utilization: f64,
}
