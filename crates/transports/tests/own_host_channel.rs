//! The nine transports whose handshake runs to their own host build
//! their first hop through `common::own_host_channel`. This pins each
//! one's `establish_with` to the composition it replaced, spelled out
//! per transport: the bootstrap to its bridge or server, the circuit
//! through that host, then the transport's own framing, caps and draws.
//! Every channel field must match to the bit and the RNG must end in the
//! same state, for seeds 0..16, the paper's three server regions, and
//! normal and surge load.

use ptperf_sim::{Location, SimDuration, SimRng, TransferModel};
use ptperf_tor::Via;
use ptperf_transports::common::{
    apply_frame_overhead, bootstrap_time, tor_channel_with, EstablishScratch, FirstHop,
    TorChannelSpec,
};
use ptperf_transports::{
    camoufler, cloak, conjure, marionette, obfs4, psiphon, shadowsocks, stegotorus, transport_for,
    webtunnel, AccessOptions, Deployment, PtId,
};
use ptperf_web::Channel;

const OWN_HOST: [PtId; 9] = [
    PtId::Obfs4,
    PtId::WebTunnel,
    PtId::Conjure,
    PtId::Shadowsocks,
    PtId::Psiphon,
    PtId::Cloak,
    PtId::Stegotorus,
    PtId::Marionette,
    PtId::Camoufler,
];

/// A set-1 first hop: the PT's bridge is the guard and carries the
/// surge. Returns the channel and the bootstrap, not yet added.
fn bridge_hop(
    pt: PtId,
    round_trips: u32,
    dep: &Deployment,
    opts: &AccessOptions,
    dest: Location,
    rng: &mut SimRng,
    scratch: &mut EstablishScratch,
) -> (Channel, SimDuration) {
    let bridge = dep.bridge(pt);
    let bridge_loc = dep.consensus.relay(bridge).location;
    let bootstrap = bootstrap_time(opts, bridge_loc, round_trips, rng);
    let spec = TorChannelSpec {
        first_hop: FirstHop::Bridge(bridge),
        via: None,
        guard_load_mult: opts.load_mult,
    };
    (
        tor_channel_with(dep, opts, spec, dest, rng, scratch),
        bootstrap,
    )
}

/// A set-2/3 first hop: the PT server forwards to a volunteer guard at
/// normal load. Returns the channel and the bootstrap, not yet added.
fn server_hop(
    pt: PtId,
    round_trips: u32,
    dep: &Deployment,
    opts: &AccessOptions,
    dest: Location,
    rng: &mut SimRng,
    scratch: &mut EstablishScratch,
) -> (Channel, SimDuration) {
    let server = dep.server(pt);
    let bootstrap = bootstrap_time(opts, server.location, round_trips, rng);
    let spec = TorChannelSpec {
        first_hop: FirstHop::VolunteerGuard,
        via: Some(Via {
            location: server.location,
            capacity_bps: server.capacity_bps,
            extra_loss: 0.0,
        }),
        guard_load_mult: 1.0,
    };
    (
        tor_channel_with(dep, opts, spec, dest, rng, scratch),
        bootstrap,
    )
}

/// `pt`'s `establish_with` as each transport wrote it out: its first
/// hop, then its own framing, caps and draws.
fn spelled_out(
    pt: PtId,
    dep: &Deployment,
    opts: &AccessOptions,
    dest: Location,
    rng: &mut SimRng,
    scratch: &mut EstablishScratch,
) -> Channel {
    let round_trips = match pt {
        PtId::Obfs4 => obfs4::HANDSHAKE_ROUND_TRIPS,
        PtId::WebTunnel => webtunnel::HANDSHAKE_ROUND_TRIPS,
        PtId::Conjure => conjure::HANDSHAKE_ROUND_TRIPS,
        PtId::Shadowsocks => shadowsocks::HANDSHAKE_ROUND_TRIPS,
        PtId::Psiphon => psiphon::HANDSHAKE_ROUND_TRIPS,
        PtId::Cloak => cloak::HANDSHAKE_ROUND_TRIPS,
        PtId::Stegotorus => stegotorus::HANDSHAKE_ROUND_TRIPS,
        PtId::Marionette => marionette::HANDSHAKE_ROUND_TRIPS,
        PtId::Camoufler => camoufler::HANDSHAKE_ROUND_TRIPS,
        other => unreachable!("{other} does not run its handshake to its own host"),
    };
    let (mut ch, bootstrap) = match pt {
        PtId::Obfs4 | PtId::WebTunnel | PtId::Conjure => {
            bridge_hop(pt, round_trips, dep, opts, dest, rng, scratch)
        }
        _ => server_hop(pt, round_trips, dep, opts, dest, rng, scratch),
    };
    match pt {
        PtId::Marionette => {
            let perf = marionette::Marionette::default().derived();
            ch.setup += bootstrap + perf.ramp_up;
            ch.rate_cap = Some(perf.goodput_bps);
            ch.per_request_extra =
                perf.ramp_up * 8 + SimDuration::from_secs_f64(rng.lognormal(12.0, 0.45));
        }
        PtId::Camoufler => {
            let rate = camoufler::Camoufler::default().api_rate_per_sec;
            ch.setup += bootstrap;
            ch.rate_cap = Some(rate * camoufler::MAX_MESSAGE_PAYLOAD as f64);
            ch.per_request_extra = SimDuration::from_secs_f64(rng.lognormal(6.5, 0.5));
            ch.max_parallel_streams = 1;
            ch.connect_failure_p = 0.09;
            ch.hazard_per_sec = 1.0 / 700.0;
        }
        _ => ch.setup += bootstrap,
    }
    let framing = match pt {
        PtId::Obfs4 => Some(obfs4::frame_overhead()),
        PtId::WebTunnel => Some(webtunnel::frame_overhead()),
        PtId::Shadowsocks => Some(shadowsocks::frame_overhead()),
        PtId::Psiphon => Some(psiphon::frame_overhead()),
        PtId::Cloak => Some(cloak::frame_overhead()),
        PtId::Stegotorus => Some(stegotorus::frame_overhead(256)),
        _ => None,
    };
    if let Some(overhead) = framing {
        apply_frame_overhead(&mut ch, overhead);
    }
    ch
}

/// Every channel field, floats as bits. Destructured in full, so a new
/// field does not compile until it is compared here.
fn bits(ch: &Channel) -> impl PartialEq + std::fmt::Debug {
    let Channel {
        setup,
        stream_open,
        request_rtt,
        response,
        rate_cap,
        per_request_extra,
        max_parallel_streams,
        hazard_per_sec,
        connect_failure_p,
    } = ch;
    let TransferModel {
        rtt,
        bottleneck_bps,
        loss,
    } = response;
    (
        (*setup, *stream_open, *request_rtt, *per_request_extra),
        (*rtt, bottleneck_bps.to_bits(), loss.to_bits()),
        rate_cap.map(f64::to_bits),
        *max_parallel_streams,
        (hazard_per_sec.to_bits(), connect_failure_p.to_bits()),
    )
}

#[test]
fn own_host_transports_match_their_spelled_out_channels() {
    let clients = [Location::London, Location::Toronto, Location::Bangalore];
    let mut warm = EstablishScratch::new();
    for seed in 0..16u64 {
        for region in [Location::Singapore, Location::Frankfurt, Location::NewYork] {
            let dep = Deployment::standard(seed, region);
            for load_mult in [1.0, 3.2] {
                let mut opts = AccessOptions::new(clients[seed as usize % clients.len()]);
                opts.load_mult = load_mult;
                let dest = Location::ALL[seed as usize % Location::ALL.len()];
                for pt in OWN_HOST {
                    let what = format!("{pt} seed {seed} {region:?} load {load_mult}");
                    let mut rng = SimRng::new(seed.wrapping_mul(0x9e37_79b9) ^ pt.index() as u64);
                    let mut expect_rng = rng.clone();
                    let got =
                        transport_for(pt).establish_with(&dep, &opts, dest, &mut rng, &mut warm);
                    let mut cold = EstablishScratch::new();
                    let expect = spelled_out(pt, &dep, &opts, dest, &mut expect_rng, &mut cold);
                    assert_eq!(bits(&got), bits(&expect), "{what}");
                    assert_eq!(rng, expect_rng, "{what}: RNG state");
                }
            }
        }
    }
}
