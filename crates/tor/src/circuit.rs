//! Circuit establishment and stream timing.
//!
//! A [`Circuit`] captures everything the workload layer needs to time a
//! fetch: how long the circuit took to build (one round trip per extend,
//! telescoping over progressively longer paths), the end-to-end RTT from
//! client to exit, the bottleneck rate along the path, and the composed
//! loss probability. Transports can insert a forwarding point before the
//! guard (`via`) for PT architectures where the PT server is distinct from
//! the first Tor hop (paper §4.1, sets 2 and 3).

use ptperf_sim::{sample_path, Location, Medium, PathSample, SimDuration, SimRng, TransferModel};

use crate::cell::relay_payload_overhead;
use crate::consensus::Consensus;
use crate::path::{CircuitSpec, Role};

/// Tor's circuit-level flow-control window (SENDME window), in cells.
pub const CIRC_WINDOW_CELLS: u32 = 1000;

/// The throughput a circuit of round-trip time `rtt` sustains through
/// a `bottleneck_bps` bottleneck: `min(bottleneck, window / RTT)`.
///
/// Tor's circuit-level flow control allows [`CIRC_WINDOW_CELLS`]
/// unacknowledged cells, so at most one window of relay payload moves
/// per round trip. The RTT is clamped at 1 ms so a degenerate
/// zero-latency path cannot divide by zero.
pub fn window_capped_rate(bottleneck_bps: f64, rtt: SimDuration) -> f64 {
    let window_cap =
        CIRC_WINDOW_CELLS as f64 * crate::cell::RELAY_DATA_LEN as f64 / rtt.as_secs_f64().max(1e-3);
    bottleneck_bps.min(window_cap)
}

/// Client access-link capacity in bytes per second.
pub fn access_capacity(medium: Medium) -> f64 {
    match medium {
        Medium::Wired => 12.5e6,   // 100 Mbit/s Ethernet
        Medium::Wireless => 6.0e6, // ~50 Mbit/s effective WiFi
    }
}

/// Per-relay processing time for a circuit-extension handshake (ntor
/// computation, queueing): a few milliseconds, jittered.
fn extend_processing(rng: &mut SimRng) -> SimDuration {
    rng.jitter(SimDuration::from_millis(5), 0.5)
}

/// An intermediate forwarding point between the client and the guard
/// (a PT server that is not itself the first Tor hop).
#[derive(Debug, Clone, Copy)]
pub struct Via {
    /// Where the forwarder runs.
    pub location: Location,
    /// Forwarding capacity available to this flow, bytes per second.
    pub capacity_bps: f64,
    /// Extra loss introduced by the forwarding leg's carrier (e.g. a
    /// lossy WebRTC volunteer path).
    pub extra_loss: f64,
}

/// Options for circuit establishment.
#[derive(Debug, Clone, Copy)]
pub struct CircuitOptions {
    /// Client location.
    pub client: Location,
    /// Client access medium.
    pub medium: Medium,
    /// Wide-area jitter shape (log-normal sigma).
    pub jitter_sigma: f64,
    /// Load multiplier applied to the first hop's utilization (used to
    /// replay load surges on PT bridges, §5.3).
    pub guard_load_mult: f64,
    /// Optional forwarding point before the guard.
    pub via: Option<Via>,
}

impl CircuitOptions {
    /// Sensible defaults for a wired client at `client`.
    pub fn new(client: Location) -> Self {
        CircuitOptions {
            client,
            medium: Medium::Wired,
            jitter_sigma: 0.10,
            guard_load_mult: 1.0,
            via: None,
        }
    }
}

/// An established circuit, ready to carry streams.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// The relays used.
    pub spec: CircuitSpec,
    /// Where the client sits.
    pub client: Location,
    /// Access medium.
    pub medium: Medium,
    /// Time spent building the circuit (3 telescoping round trips).
    pub build_time: SimDuration,
    /// Round-trip time client ↔ exit through the circuit.
    pub rtt: SimDuration,
    /// Bottleneck rate along the path, bytes per second (application-layer,
    /// already discounted for cell framing overhead).
    pub bottleneck_bps: f64,
    /// Composed loss probability along the path.
    pub loss: f64,
    /// Jitter sigma used when sampling destination legs.
    jitter_sigma: f64,
}

impl Circuit {
    /// Builds a circuit over `spec`, sampling per-leg path conditions.
    pub fn establish(
        consensus: &Consensus,
        spec: CircuitSpec,
        opts: &CircuitOptions,
        rng: &mut SimRng,
    ) -> Circuit {
        let guard = consensus.relay(spec.guard);
        let middle = consensus.relay(spec.middle);
        let exit = consensus.relay(spec.exit);

        // Leg 0: client → (via?) → guard.
        let leg0 = match opts.via {
            Some(via) => sample_path(
                rng,
                opts.client,
                via.location,
                opts.medium,
                opts.jitter_sigma,
            )
            .chain(sample_path(
                rng,
                via.location,
                guard.location,
                Medium::Wired,
                opts.jitter_sigma,
            )),
            None => sample_path(
                rng,
                opts.client,
                guard.location,
                opts.medium,
                opts.jitter_sigma,
            ),
        };
        let leg0 = PathSample {
            rtt: leg0.rtt,
            loss: leg0.loss + opts.via.map_or(0.0, |v| v.extra_loss),
        };
        // Legs 1 and 2: relay-to-relay, always wired.
        let leg1 = sample_path(
            rng,
            guard.location,
            middle.location,
            Medium::Wired,
            opts.jitter_sigma,
        );
        let leg2 = sample_path(
            rng,
            middle.location,
            exit.location,
            Medium::Wired,
            opts.jitter_sigma,
        );

        // Telescoping build: CREATE(guard) = leg0; EXTEND(middle) =
        // leg0+leg1; EXTEND(exit) = leg0+leg1+leg2; plus per-relay
        // handshake processing at each step.
        let mut build_time = SimDuration::ZERO;
        build_time += leg0.rtt + extend_processing(rng);
        build_time += leg0.rtt + leg1.rtt + extend_processing(rng) + extend_processing(rng);
        build_time += leg0.rtt
            + leg1.rtt
            + leg2.rtt
            + extend_processing(rng)
            + extend_processing(rng)
            + extend_processing(rng);

        let rtt = leg0.rtt + leg1.rtt + leg2.rtt;
        let loss = 1.0 - (1.0 - leg0.loss) * (1.0 - leg1.loss) * (1.0 - leg2.loss);

        // Bottleneck: the scarcest available capacity along the path.
        // Guards see their full background load; middles/exits see less
        // (role factors; §4.2.1).
        let guard_avail = avail(guard, Role::Guard, opts.guard_load_mult);
        let middle_avail = avail(middle, Role::Middle, 1.0);
        let exit_avail = avail(exit, Role::Exit, 1.0);
        let mut bottleneck = access_capacity(opts.medium)
            .min(guard_avail)
            .min(middle_avail)
            .min(exit_avail);
        if let Some(via) = opts.via {
            bottleneck = bottleneck.min(via.capacity_bps);
        }
        // Discount cell framing: application goodput is wire rate divided
        // by the framing overhead the codec actually produces.
        let bottleneck_bps = bottleneck / relay_payload_overhead();

        Circuit {
            spec,
            client: opts.client,
            medium: opts.medium,
            build_time,
            rtt,
            bottleneck_bps,
            loss: loss.clamp(0.0, 0.2),
            jitter_sigma: opts.jitter_sigma,
        }
    }

    /// Samples the exit → destination leg for a web server at `dest`.
    pub fn dest_leg(&self, consensus: &Consensus, dest: Location, rng: &mut SimRng) -> PathSample {
        let exit_loc = consensus.relay(self.spec.exit).location;
        sample_path(rng, exit_loc, dest, Medium::Wired, self.jitter_sigma)
    }

    /// The transfer model for stream data to a destination reached through
    /// this circuit (given the sampled exit→destination leg).
    ///
    /// Two Tor-specific properties:
    /// * loss is recovered **hop-by-hop** (every link is its own TCP
    ///   connection), so it costs only the resent bytes;
    /// * Tor's circuit-level flow control caps throughput at one
    ///   window per circuit round trip ([`window_capped_rate`]).
    pub fn transfer_model(&self, dest_leg: PathSample) -> TransferModel {
        let rtt = self.rtt + dest_leg.rtt;
        TransferModel::new(
            rtt,
            window_capped_rate(self.bottleneck_bps, rtt),
            (self.loss + dest_leg.loss).clamp(0.0, 0.5),
        )
    }

    /// Time to open a stream: RELAY_BEGIN travels to the exit, the exit
    /// performs a TCP handshake with the destination, RELAY_CONNECTED
    /// returns — one circuit RTT plus one destination round trip.
    pub fn stream_open_time(&self, dest_leg: PathSample) -> SimDuration {
        self.rtt + dest_leg.rtt
    }
}

fn avail(relay: &crate::relay::Relay, role: Role, load_mult: f64) -> f64 {
    let util = (relay.utilization * role.utilization_factor() * load_mult).clamp(0.0, 0.99);
    ptperf_sim::effective_capacity(relay.bandwidth_bps, util)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathSelector;

    fn setup(seed: u64) -> (Consensus, CircuitSpec, SimRng) {
        let mut rng = SimRng::new(seed);
        let consensus = Consensus::generate(&mut rng);
        let spec = PathSelector::new()
            .select(Default::default(), &consensus, &mut rng)
            .unwrap();
        (consensus, spec, rng)
    }

    #[test]
    fn build_time_exceeds_three_first_leg_rtts() {
        let (c, spec, mut rng) = setup(1);
        let opts = CircuitOptions::new(Location::London);
        let circ = Circuit::establish(&c, spec, &opts, &mut rng);
        // Telescoping implies build ≥ 3 × leg0 ≥ 3 × (a few ms); and
        // build must exceed one full circuit RTT.
        assert!(circ.build_time > circ.rtt);
        assert!(circ.build_time < SimDuration::from_secs(10));
    }

    #[test]
    fn rtt_positive_and_bounded() {
        let (c, spec, mut rng) = setup(2);
        let opts = CircuitOptions::new(Location::Bangalore);
        let circ = Circuit::establish(&c, spec, &opts, &mut rng);
        assert!(circ.rtt > SimDuration::from_millis(2));
        assert!(circ.rtt < SimDuration::from_secs(3));
    }

    #[test]
    fn via_adds_latency_and_can_cap_bandwidth() {
        let (c, spec, _) = setup(3);
        let mut rng_a = SimRng::new(42);
        let mut rng_b = SimRng::new(42);
        // Zero jitter: the RNG draw sequences diverge between the two
        // establishments, so only the deterministic base delays compare.
        let mut direct_opts = CircuitOptions::new(Location::London);
        direct_opts.jitter_sigma = 0.0;
        let direct = Circuit::establish(&c, spec, &direct_opts, &mut rng_a);
        let mut opts = CircuitOptions::new(Location::London);
        opts.jitter_sigma = 0.0;
        opts.via = Some(Via {
            location: Location::Singapore,
            capacity_bps: 10_000.0,
            extra_loss: 0.0,
        });
        let via = Circuit::establish(&c, spec, &opts, &mut rng_b);
        assert!(
            via.rtt > direct.rtt,
            "via {} direct {}",
            via.rtt,
            direct.rtt
        );
        assert!(via.bottleneck_bps <= 10_000.0 / relay_payload_overhead() + 1.0);
    }

    #[test]
    fn guard_load_multiplier_reduces_bottleneck_when_guard_binds() {
        let (mut c, spec, _) = setup(4);
        // Make the guard the clear bottleneck.
        c.relay_mut(spec.guard).bandwidth_bps = 1.0e6;
        c.relay_mut(spec.guard).utilization = 0.5;
        c.relay_mut(spec.middle).bandwidth_bps = 50.0e6;
        c.relay_mut(spec.middle).utilization = 0.1;
        c.relay_mut(spec.exit).bandwidth_bps = 50.0e6;
        c.relay_mut(spec.exit).utilization = 0.1;
        let mut rng_a = SimRng::new(5);
        let mut rng_b = SimRng::new(5);
        let mut opts = CircuitOptions::new(Location::London);
        let normal = Circuit::establish(&c, spec, &opts, &mut rng_a);
        opts.guard_load_mult = 1.8;
        let loaded = Circuit::establish(&c, spec, &opts, &mut rng_b);
        assert!(loaded.bottleneck_bps < normal.bottleneck_bps);
    }

    #[test]
    fn wireless_medium_slows_access() {
        let (c, spec, _) = setup(6);
        let mut rng_a = SimRng::new(7);
        let mut rng_b = SimRng::new(7);
        let wired =
            Circuit::establish(&c, spec, &CircuitOptions::new(Location::London), &mut rng_a);
        let mut opts = CircuitOptions::new(Location::London);
        opts.medium = Medium::Wireless;
        let wifi = Circuit::establish(&c, spec, &opts, &mut rng_b);
        assert!(wifi.rtt > wired.rtt);
        assert!(wifi.loss > wired.loss);
    }

    #[test]
    fn transfer_model_combines_circuit_and_dest_leg() {
        let (c, spec, mut rng) = setup(8);
        let circ = Circuit::establish(&c, spec, &CircuitOptions::new(Location::London), &mut rng);
        let leg = circ.dest_leg(&c, Location::NewYork, &mut rng);
        let model = circ.transfer_model(leg);
        assert_eq!(model.rtt, circ.rtt + leg.rtt);
        assert!(model.bottleneck_bps > 0.0);
    }

    #[test]
    fn stream_open_costs_a_circuit_round_trip_plus_dest() {
        let (c, spec, mut rng) = setup(9);
        let circ = Circuit::establish(&c, spec, &CircuitOptions::new(Location::Toronto), &mut rng);
        let leg = circ.dest_leg(&c, Location::Frankfurt, &mut rng);
        assert_eq!(circ.stream_open_time(leg), circ.rtt + leg.rtt);
    }

    #[test]
    fn deterministic_given_seed() {
        let (c, spec, _) = setup(10);
        let mut a = SimRng::new(11);
        let mut b = SimRng::new(11);
        let opts = CircuitOptions::new(Location::London);
        let ca = Circuit::establish(&c, spec, &opts, &mut a);
        let cb = Circuit::establish(&c, spec, &opts, &mut b);
        assert_eq!(ca.build_time, cb.build_time);
        assert_eq!(ca.rtt, cb.rtt);
        assert_eq!(ca.bottleneck_bps, cb.bottleneck_bps);
    }
}
