//! `Deployment::standard` against a test-local build that draws every
//! bounded-Pareto variate with the per-draw formula the sampler
//! replaced: relay fields to the bit, bridges and server hosts, for
//! seeds 0..64 at each of the paper's three server regions.

use ptperf_sim::{Location, SimRng};
use ptperf_tor::{Relay, RelayFlags, RelayId};
use ptperf_transports::{Deployment, PtId, PtServer};

/// The bounded-Pareto draw before it was precomputed: both powers and
/// the exponent taken on every draw.
fn pareto_bounded(rng: &mut SimRng, lo: f64, hi: f64, alpha: f64) -> f64 {
    if lo == hi {
        return lo;
    }
    let u = rng.next_f64();
    let la = lo.powf(alpha);
    let ha = hi.powf(alpha);
    let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
    x.clamp(lo, hi)
}

fn location(rng: &mut SimRng) -> Location {
    let roll = rng.next_f64();
    match roll {
        r if r < 0.33 => Location::Frankfurt,
        r if r < 0.55 => Location::London,
        r if r < 0.73 => Location::NewYork,
        r if r < 0.85 => Location::Toronto,
        r if r < 0.93 => Location::Singapore,
        _ => Location::Bangalore,
    }
}

/// A deployment as plain lists.
struct Oracle {
    relays: Vec<Relay>,
    bridges: Vec<(PtId, RelayId)>,
    servers: [(PtId, PtServer); 6],
}

/// The default 600-relay consensus, the six set-1 bridges and the six
/// set-2/3 server hosts, drawn in `Deployment::standard`'s order.
fn oracle(seed: u64, region: Location) -> Oracle {
    let mut rng = SimRng::new(seed);
    let mut relays: Vec<Relay> = (0..600)
        .map(|i| {
            let location = location(&mut rng);
            let bandwidth_bps = pareto_bounded(&mut rng, 0.8e6, 12.0e6, 1.15);
            let fast = bandwidth_bps > 1.2e6;
            let stable = rng.chance(0.7);
            let guard = fast && stable && rng.chance(0.45);
            let exit = rng.chance(0.15);
            let utilization = (0.2 + pareto_bounded(&mut rng, 0.05, 0.6, 1.3)).clamp(0.0, 0.9);
            Relay {
                id: RelayId(i),
                location,
                bandwidth_bps,
                flags: RelayFlags {
                    guard,
                    exit,
                    fast,
                    stable,
                },
                utilization,
            }
        })
        .collect();
    // The consensus's guard/exit guarantees only fire on degenerate
    // draws, which the oracle leaves out; a seed that needed one would
    // fail here rather than compare against a wrong build.
    assert!(
        relays.iter().any(|r| r.flags.guard),
        "seed {seed}: no guard drawn"
    );
    assert!(
        relays.iter().any(|r| r.flags.exit && !r.flags.guard),
        "seed {seed}: no non-guard exit drawn"
    );
    // Bridge utilization is uniform: managed bridges on [0.05, 0.25),
    // self-hosted ones on [0, 0.05).
    let (managed, dedicated) = ((0.05, 0.25), (0.0, 0.05));
    let set1 = [
        (PtId::Obfs4, Location::Frankfurt, 5.5e6, managed),
        (PtId::Meek, Location::NewYork, 4.0e6, managed),
        (PtId::Conjure, Location::Frankfurt, 6.0e6, managed),
        (PtId::Snowflake, Location::Frankfurt, 5.0e6, managed),
        (PtId::WebTunnel, region, 5.0e6, dedicated),
        (PtId::Dnstt, region, 5.0e6, dedicated),
    ];
    let mut bridges = Vec::new();
    for (pt, location, bandwidth_bps, (lo, hi)) in set1 {
        let id = RelayId(relays.len() as u32);
        relays.push(Relay {
            id,
            location,
            bandwidth_bps,
            flags: RelayFlags {
                guard: true,
                exit: false,
                fast: true,
                stable: true,
            },
            utilization: rng.range_f64(lo, hi),
        });
        bridges.push((pt, id));
    }
    let servers = [
        PtId::Shadowsocks,
        PtId::Psiphon,
        PtId::Stegotorus,
        PtId::Camoufler,
        PtId::Cloak,
        PtId::Marionette,
    ]
    .map(|pt| {
        (
            pt,
            PtServer {
                location: region,
                capacity_bps: rng.range_f64(4.0e6, 8.0e6),
            },
        )
    });
    Oracle {
        relays,
        bridges,
        servers,
    }
}

#[test]
fn standard_deployment_matches_the_per_draw_pareto_oracle() {
    for region in [Location::Singapore, Location::Frankfurt, Location::NewYork] {
        for seed in 0..64 {
            let dep = Deployment::standard(seed, region);
            let Oracle {
                relays,
                bridges,
                servers,
            } = oracle(seed, region);
            let what = format!("seed {seed} at {region:?}");
            assert_eq!(dep.consensus.len(), relays.len(), "{what}: relay count");
            for (got, want) in dep.consensus.relays().iter().zip(&relays) {
                assert_eq!(got.id, want.id, "{what}");
                assert_eq!(got.location, want.location, "{what}: {}", want.id);
                assert_eq!(got.flags, want.flags, "{what}: {}", want.id);
                assert_eq!(
                    got.bandwidth_bps.to_bits(),
                    want.bandwidth_bps.to_bits(),
                    "{what}: {} bandwidth",
                    want.id
                );
                assert_eq!(
                    got.utilization.to_bits(),
                    want.utilization.to_bits(),
                    "{what}: {} utilization",
                    want.id
                );
            }
            for (pt, id) in bridges {
                assert_eq!(dep.bridge(pt), id, "{what}: {pt} bridge");
            }
            for (pt, server) in servers {
                let got = dep.server(pt);
                assert_eq!(got.location, server.location, "{what}: {pt} server");
                assert_eq!(
                    got.capacity_bps.to_bits(),
                    server.capacity_bps.to_bits(),
                    "{what}: {pt} server capacity"
                );
            }
        }
    }
}
