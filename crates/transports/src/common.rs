//! Shared channel-construction machinery used by every transport model.
//!
//! All twelve PTs (and vanilla Tor) route through a Tor circuit; what
//! differs is the first hop (bridge vs volunteer guard), whether a
//! forwarding PT server sits before it, the transport's own bootstrap
//! cost, its framing overhead, and its carrier constraints. This module
//! builds the common part so each transport's `establish` stays focused
//! on what makes that transport different: [`own_host_channel`] for the
//! nine PTs whose handshake runs to their own registered host, and
//! [`tor_channel_with`] for meek, snowflake, dnstt and vanilla Tor,
//! whose handshake endpoint is not their host.

use ptperf_sim::{Location, SimDuration, SimRng};
use ptperf_tor::{Circuit, CircuitOptions, PathSelector, PickMode, RelayId, Via};
use ptperf_web::Channel;

use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, Host};

/// Reusable per-client establishment state: a persistent
/// [`PathSelector`] whose buffers survive across establishes.
///
/// The selector keeps no guard state between calls, and each establish
/// through a volunteer guard draws a fresh guard sample, so a reused
/// scratch is draw-for-draw identical to a fresh one (proven by
/// `reused_selector_matches_fresh_selector_exactly` in `ptperf_tor`):
/// every one of the sample's draws is taken, though usually only the
/// guard the circuit uses is resolved. The sample and exclude buffers
/// keep their capacity, making steady-state establishment
/// allocation-free.
#[derive(Debug)]
pub struct EstablishScratch {
    selector: PathSelector,
}

impl EstablishScratch {
    /// Fresh scratch using the indexed pick path (the default).
    pub fn new() -> Self {
        EstablishScratch {
            selector: PathSelector::new(),
        }
    }

    /// Fresh scratch pinned to the reference (full-scan) pick oracle —
    /// the comparison lane for the establish benchmark.
    pub fn reference_oracle() -> Self {
        let mut selector = PathSelector::new();
        selector.set_pick_mode(PickMode::Reference);
        EstablishScratch { selector }
    }

    /// How many times the internal buffers reallocated; the delta across
    /// a warm region is the benchmark's allocations-per-establish proxy.
    pub fn grows(&self) -> u64 {
        self.selector.scratch_grows()
    }
}

impl Default for EstablishScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The first Tor hop of a tunnel.
#[derive(Debug, Clone, Copy)]
pub enum FirstHop {
    /// A specific relay (a set-1 PT bridge, or a pinned guard).
    Bridge(RelayId),
    /// A volunteer guard chosen by normal path selection.
    VolunteerGuard,
}

/// Everything needed to build the Tor portion of a channel.
#[derive(Debug, Clone, Copy)]
pub struct TorChannelSpec {
    /// First hop choice.
    pub first_hop: FirstHop,
    /// Optional PT forwarding server before the first hop (hop sets 2/3).
    pub via: Option<Via>,
    /// Load multiplier on the first hop's utilization.
    pub guard_load_mult: f64,
}

/// Builds the base channel through a Tor circuit: circuit construction
/// time as `setup`, stream-open and request round trips, and the
/// response-path transfer model. Transport models then add their own
/// bootstrap, framing overhead, caps, and failure behavior. Hot loops
/// pass a persistent [`EstablishScratch`] to avoid per-establish
/// allocation; a fresh one gives identical channels.
pub fn tor_channel_with(
    dep: &Deployment,
    opts: &AccessOptions,
    spec: TorChannelSpec,
    dest: Location,
    rng: &mut SimRng,
    scratch: &mut EstablishScratch,
) -> Channel {
    // Resolve the circuit path: the first hop may be pinned by the
    // experiment (fixed-circuit runs), then by the transport's bridge,
    // then by guard selection.
    let mut path_cfg = opts.path;
    if path_cfg.fixed_guard.is_none() {
        if let FirstHop::Bridge(id) = spec.first_hop {
            path_cfg.fixed_guard = Some(id);
        }
    }
    let circuit_spec = scratch
        .selector
        .select(path_cfg, &dep.consensus, rng)
        .expect("generated consensus always has eligible relays");

    let mut copts = CircuitOptions::new(opts.client);
    copts.medium = opts.medium;
    copts.guard_load_mult = spec.guard_load_mult;
    copts.via = spec.via;
    let circuit = Circuit::establish(&dep.consensus, circuit_spec, &copts, rng);
    let dest_leg = circuit.dest_leg(&dep.consensus, dest, rng);

    Channel {
        setup: circuit.build_time,
        stream_open: circuit.stream_open_time(dest_leg),
        request_rtt: circuit.rtt + dest_leg.rtt,
        response: circuit.transfer_model(dest_leg),
        rate_cap: None,
        per_request_extra: SimDuration::ZERO,
        max_parallel_streams: usize::MAX,
        hazard_per_sec: 0.0,
        connect_failure_p: 0.0,
    }
}

/// Builds the channel of a PT whose handshake of `round_trips`
/// exchanges runs to its own host, as the deployment registers it
/// (§4.1). A bridge is the circuit's first hop and carries the surge
/// load `opts.load_mult`; a server outside the consensus sits before a
/// volunteer guard at normal load. The bootstrap is drawn before the
/// circuit and added to `setup`.
pub fn own_host_channel(
    pt: PtId,
    round_trips: u32,
    dep: &Deployment,
    opts: &AccessOptions,
    dest: Location,
    rng: &mut SimRng,
    scratch: &mut EstablishScratch,
) -> Channel {
    let (host, spec) = match dep.host(pt) {
        Host::Bridge(bridge) => (
            dep.consensus.relay(bridge).location,
            TorChannelSpec {
                first_hop: FirstHop::Bridge(bridge),
                via: None,
                guard_load_mult: opts.load_mult,
            },
        ),
        Host::Server(server) => (
            server.location,
            TorChannelSpec {
                first_hop: FirstHop::VolunteerGuard,
                via: Some(Via {
                    location: server.location,
                    capacity_bps: server.capacity_bps,
                    extra_loss: 0.0,
                }),
                guard_load_mult: 1.0,
            },
        ),
    };
    let bootstrap = bootstrap_time(opts, host, round_trips, rng);
    let mut ch = tor_channel_with(dep, opts, spec, dest, rng, scratch);
    ch.setup += bootstrap;
    ch
}

/// Applies a multiplicative wire-framing overhead (wire bytes per payload
/// byte, ≥ 1) to a channel's response model: the goodput shrinks by the
/// factor the codec actually produces.
pub fn apply_frame_overhead(channel: &mut Channel, overhead: f64) {
    debug_assert!(
        overhead >= 1.0,
        "framing overhead must be ≥ 1, got {overhead}"
    );
    channel.response.bottleneck_bps /= overhead;
}

/// Samples a handshake duration of `round_trips` exchanges on the
/// client → first-infrastructure path, plus jittered processing.
pub fn bootstrap_time(
    opts: &AccessOptions,
    infra: Location,
    round_trips: u32,
    rng: &mut SimRng,
) -> SimDuration {
    let path = ptperf_sim::sample_path(rng, opts.client, infra, opts.medium, 0.10);
    path.rtt * round_trips as u64 + rng.jitter(SimDuration::from_millis(10), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PtId;
    use ptperf_sim::Medium;

    fn setup() -> (Deployment, AccessOptions, SimRng) {
        (
            Deployment::standard(1, Location::Frankfurt),
            AccessOptions::new(Location::London),
            SimRng::new(2),
        )
    }

    #[test]
    fn vanilla_channel_has_positive_costs() {
        let (dep, opts, mut rng) = setup();
        let ch = tor_channel_with(
            &dep,
            &opts,
            TorChannelSpec {
                first_hop: FirstHop::VolunteerGuard,
                via: None,
                guard_load_mult: 1.0,
            },
            Location::NewYork,
            &mut rng,
            &mut EstablishScratch::new(),
        );
        assert!(ch.setup > SimDuration::ZERO);
        assert!(ch.stream_open > SimDuration::ZERO);
        assert!(ch.response.bottleneck_bps > 0.0);
        assert_eq!(ch.hazard_per_sec, 0.0);
    }

    #[test]
    fn bridge_first_hop_is_used() {
        let (dep, opts, mut rng) = setup();
        let bridge = dep.bridge(PtId::Obfs4);
        // With the bridge as guard, the first hop is always the bridge, so
        // repeated establishments never see the heavy-tailed volunteer
        // guard distribution. Check via capacity: the bridge is lightly
        // loaded, so the bottleneck rarely drops to volunteer-guard lows.
        for _ in 0..20 {
            let ch = tor_channel_with(
                &dep,
                &opts,
                TorChannelSpec {
                    first_hop: FirstHop::Bridge(bridge),
                    via: None,
                    guard_load_mult: 1.0,
                },
                Location::NewYork,
                &mut rng,
                &mut EstablishScratch::new(),
            );
            assert!(ch.response.bottleneck_bps > 0.0);
        }
    }

    #[test]
    fn experiment_pinning_overrides_bridge() {
        let (dep, mut opts, mut rng) = setup();
        let pinned = RelayId(3);
        opts.path.fixed_guard = Some(pinned);
        // Even with a bridge requested, the experiment's pin wins (this is
        // how the fixed-circuit experiments equalize Tor and PT paths).
        let _ = tor_channel_with(
            &dep,
            &opts,
            TorChannelSpec {
                first_hop: FirstHop::Bridge(dep.bridge(PtId::Obfs4)),
                via: None,
                guard_load_mult: 1.0,
            },
            Location::NewYork,
            &mut rng,
            &mut EstablishScratch::new(),
        );
        // No assertion on internals possible here beyond not panicking;
        // the integration tests check the fixed-circuit null result.
    }

    #[test]
    fn via_reduces_bottleneck_to_server_capacity() {
        let (dep, opts, mut rng) = setup();
        let ch = tor_channel_with(
            &dep,
            &opts,
            TorChannelSpec {
                first_hop: FirstHop::VolunteerGuard,
                via: Some(Via {
                    location: Location::Frankfurt,
                    capacity_bps: 20_000.0,
                    extra_loss: 0.0,
                }),
                guard_load_mult: 1.0,
            },
            Location::NewYork,
            &mut rng,
            &mut EstablishScratch::new(),
        );
        assert!(ch.response.bottleneck_bps <= 20_000.0);
    }

    #[test]
    fn frame_overhead_shrinks_goodput() {
        let (dep, opts, mut rng) = setup();
        let mut ch = tor_channel_with(
            &dep,
            &opts,
            TorChannelSpec {
                first_hop: FirstHop::VolunteerGuard,
                via: None,
                guard_load_mult: 1.0,
            },
            Location::NewYork,
            &mut rng,
            &mut EstablishScratch::new(),
        );
        let before = ch.response.bottleneck_bps;
        apply_frame_overhead(&mut ch, 1.25);
        assert!((ch.response.bottleneck_bps - before / 1.25).abs() < 1e-6);
    }

    #[test]
    fn reused_scratch_is_draw_identical_to_one_shot_and_stops_growing() {
        let (dep, opts, _) = setup();
        let mut scratch = EstablishScratch::new();
        let spec = TorChannelSpec {
            first_hop: FirstHop::VolunteerGuard,
            via: None,
            guard_load_mult: 1.0,
        };
        let mut rng_a = SimRng::new(9);
        let mut rng_b = SimRng::new(9);
        for i in 0..30 {
            let reused = tor_channel_with(
                &dep,
                &opts,
                spec,
                Location::NewYork,
                &mut rng_a,
                &mut scratch,
            );
            let mut cold = EstablishScratch::new();
            let fresh =
                tor_channel_with(&dep, &opts, spec, Location::NewYork, &mut rng_b, &mut cold);
            assert_eq!(reused.setup, fresh.setup, "iteration {i}");
            assert_eq!(reused.request_rtt, fresh.request_rtt);
            assert_eq!(
                reused.response.bottleneck_bps.to_bits(),
                fresh.response.bottleneck_bps.to_bits()
            );
        }
        // Buffers settle after warmup: further establishes are
        // allocation-free inside the selector.
        let grows = scratch.grows();
        for _ in 0..50 {
            let _ = tor_channel_with(
                &dep,
                &opts,
                spec,
                Location::NewYork,
                &mut rng_a,
                &mut scratch,
            );
        }
        assert_eq!(scratch.grows(), grows, "steady-state establish reallocated");
    }

    #[test]
    fn bootstrap_scales_with_round_trips() {
        let (_, opts, mut rng) = setup();
        let one = bootstrap_time(&opts, Location::Frankfurt, 1, &mut rng);
        let mut rng2 = SimRng::new(2);
        let three = bootstrap_time(&opts, Location::Frankfurt, 3, &mut rng2);
        assert!(three > one);
    }

    #[test]
    fn wireless_medium_propagates() {
        let (dep, mut opts, mut rng) = setup();
        opts.medium = Medium::Wireless;
        let ch = tor_channel_with(
            &dep,
            &opts,
            TorChannelSpec {
                first_hop: FirstHop::VolunteerGuard,
                via: None,
                guard_load_mult: 1.0,
            },
            Location::NewYork,
            &mut rng,
            &mut EstablishScratch::new(),
        );
        assert!(ch.response.loss > 0.0);
    }
}
