//! Geographic topology: vantage-point locations, inter-location delay,
//! and access-medium characteristics.
//!
//! The PTPerf measurement campaign used six DigitalOcean regions across
//! three continents (§4.5 of the paper): Bangalore, Singapore, Frankfurt,
//! London, New York, and Toronto. We reproduce those six as the location
//! universe. One-way delays are drawn from a symmetric matrix of realistic
//! inter-region propagation delays; every sampled path delay gets
//! log-normal jitter so repeated measurements vary like real ones.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// A vantage-point or server location (DigitalOcean regions used in the
/// paper, §4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Location {
    /// Bangalore (BLR) — client site in Asia.
    Bangalore,
    /// Singapore (SGP) — server site in Asia.
    Singapore,
    /// Frankfurt (FRA) — server site in Europe.
    Frankfurt,
    /// London (LON) — client site in Europe.
    London,
    /// New York (NYC) — server site in North America.
    NewYork,
    /// Toronto (TORO) — client site in North America.
    Toronto,
}

impl Location {
    /// All six locations, in a fixed order.
    pub const ALL: [Location; 6] = [
        Location::Bangalore,
        Location::Singapore,
        Location::Frankfurt,
        Location::London,
        Location::NewYork,
        Location::Toronto,
    ];

    /// The three client locations used by the paper's location study.
    pub const CLIENTS: [Location; 3] = [Location::Bangalore, Location::London, Location::Toronto];

    /// The three server locations used by the paper's location study.
    pub const SERVERS: [Location; 3] =
        [Location::Singapore, Location::Frankfurt, Location::NewYork];

    /// The abbreviation the paper uses in figures.
    pub fn abbrev(self) -> &'static str {
        match self {
            Location::Bangalore => "BLR",
            Location::Singapore => "SGP",
            Location::Frankfurt => "FRA",
            Location::London => "LON",
            Location::NewYork => "NYC",
            Location::Toronto => "TORO",
        }
    }

    fn index(self) -> usize {
        match self {
            Location::Bangalore => 0,
            Location::Singapore => 1,
            Location::Frankfurt => 2,
            Location::London => 3,
            Location::NewYork => 4,
            Location::Toronto => 5,
        }
    }

    /// The continent the location is on (for relay-density modeling: most
    /// Tor relays are in Europe and North America, §4.5).
    pub fn continent(self) -> Continent {
        match self {
            Location::Bangalore | Location::Singapore => Continent::Asia,
            Location::Frankfurt | Location::London => Continent::Europe,
            Location::NewYork | Location::Toronto => Continent::NorthAmerica,
        }
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Continent grouping for relay-density weighting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Continent {
    /// Asia: few Tor relays.
    Asia,
    /// Europe: most Tor relays.
    Europe,
    /// North America: second-most relays.
    NorthAmerica,
}

/// Baseline one-way propagation delay between locations, in milliseconds.
///
/// Symmetric; diagonal is intra-datacenter (1 ms). Values approximate
/// public RTT measurements between the corresponding DigitalOcean regions.
const OWD_MS: [[u64; 6]; 6] = [
    //            BLR  SGP  FRA  LON  NYC  TORO
    /* BLR  */ [1, 20, 75, 70, 110, 115],
    /* SGP  */ [20, 1, 80, 85, 105, 110],
    /* FRA  */ [75, 80, 1, 8, 40, 50],
    /* LON  */ [70, 85, 8, 1, 35, 45],
    /* NYC  */ [110, 105, 40, 35, 1, 6],
    /* TORO */ [115, 110, 50, 45, 6, 1],
];

/// Baseline one-way delay between two locations (no jitter).
pub fn base_owd(a: Location, b: Location) -> SimDuration {
    SimDuration::from_millis(OWD_MS[a.index()][b.index()])
}

/// Baseline round-trip time between two locations (no jitter).
pub fn base_rtt(a: Location, b: Location) -> SimDuration {
    base_owd(a, b) * 2
}

/// The client's access medium (§4.7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Medium {
    /// Ethernet: negligible extra delay or loss.
    #[default]
    Wired,
    /// Uncongested lab WiFi: a few milliseconds of access latency, mildly
    /// higher jitter and a small base loss rate. The paper found no change
    /// in *trends* over WiFi; this model preserves that (it shifts, never
    /// reorders).
    Wireless,
}

impl Medium {
    /// Extra one-way access delay introduced by the medium.
    pub fn access_delay(self) -> SimDuration {
        match self {
            Medium::Wired => SimDuration::ZERO,
            Medium::Wireless => SimDuration::from_millis(3),
        }
    }

    /// Base packet-loss probability contributed by the medium.
    pub fn base_loss(self) -> f64 {
        match self {
            Medium::Wired => 0.0,
            Medium::Wireless => 0.004,
        }
    }

    /// Jitter shape (log-normal sigma) of the access medium.
    pub fn jitter_sigma(self) -> f64 {
        match self {
            Medium::Wired => 0.0,
            Medium::Wireless => 0.08,
        }
    }
}

/// A sampled network path between two endpoints: round-trip time with
/// jitter applied, plus packet-loss probability.
///
/// `PathSample` is the unit the transfer model consumes. It is produced
/// per-connection so that two connections between the same endpoints see
/// (realistically) different conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSample {
    /// Sampled round-trip time for the path.
    pub rtt: SimDuration,
    /// Packet-loss probability on the path (both directions combined).
    pub loss: f64,
}

impl PathSample {
    /// Combines two path segments traversed in sequence (e.g. client→proxy
    /// then proxy→server): RTTs add; loss composes as independent events.
    pub fn chain(self, next: PathSample) -> PathSample {
        PathSample {
            rtt: self.rtt + next.rtt,
            loss: 1.0 - (1.0 - self.loss) * (1.0 - next.loss),
        }
    }
}

/// Samples the path between two locations.
///
/// `sigma` is the log-normal jitter shape of the wide-area segment;
/// PTPerf-scale measurements show ~5–15% coefficient of variation on
/// inter-region RTTs, so callers typically pass 0.05–0.15.
pub fn sample_path(
    rng: &mut SimRng,
    a: Location,
    b: Location,
    medium: Medium,
    sigma: f64,
) -> PathSample {
    let base = base_rtt(a, b) + medium.access_delay() * 2;
    let jittered = rng.jitter(base, sigma + medium.jitter_sigma());
    // Wide-area base loss: tiny on wired backbones, grows slightly with
    // path length (more queues traversed).
    let hops_factor = base.as_secs_f64() / 0.100; // normalized to a 100 ms RTT
    let loss = (0.0005 * hops_factor + medium.base_loss()).clamp(0.0, 0.05);
    PathSample {
        rtt: jittered,
        loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symmetric() {
        for &a in &Location::ALL {
            for &b in &Location::ALL {
                assert_eq!(base_owd(a, b), base_owd(b, a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn diagonal_is_intra_datacenter() {
        for &a in &Location::ALL {
            assert_eq!(base_owd(a, a), SimDuration::from_millis(1));
        }
    }

    #[test]
    fn rtt_is_twice_owd() {
        assert_eq!(
            base_rtt(Location::Bangalore, Location::NewYork),
            base_owd(Location::Bangalore, Location::NewYork) * 2
        );
    }

    #[test]
    fn asia_is_farther_from_na_than_europe_is() {
        // The paper's §4.5 explanation: Asian clients travel farther to
        // reach the (EU/NA-concentrated) Tor network.
        assert!(
            base_rtt(Location::Bangalore, Location::NewYork)
                > base_rtt(Location::London, Location::NewYork)
        );
        assert!(
            base_rtt(Location::Bangalore, Location::Frankfurt)
                > base_rtt(Location::London, Location::Frankfurt)
        );
    }

    #[test]
    fn sampled_path_jitters_around_base() {
        let mut rng = SimRng::new(7);
        let base = base_rtt(Location::London, Location::NewYork);
        let mut sum = 0.0;
        let n = 2_000;
        for _ in 0..n {
            let p = sample_path(
                &mut rng,
                Location::London,
                Location::NewYork,
                Medium::Wired,
                0.1,
            );
            sum += p.rtt.as_secs_f64();
            // Log-normal jitter keeps RTT positive and within a sane band.
            assert!(p.rtt.as_secs_f64() > 0.3 * base.as_secs_f64());
            assert!(p.rtt.as_secs_f64() < 3.0 * base.as_secs_f64());
        }
        let mean = sum / n as f64;
        // Log-normal with sigma=0.1 has mean ≈ median · exp(sigma²/2) ≈ 1.005·median.
        assert!((mean - base.as_secs_f64()).abs() < 0.01 * base.as_secs_f64() + 0.002);
    }

    #[test]
    fn wireless_adds_delay_and_loss() {
        let mut rng = SimRng::new(9);
        let wired = sample_path(
            &mut rng,
            Location::London,
            Location::London,
            Medium::Wired,
            0.0,
        );
        let mut rng2 = SimRng::new(9);
        let wifi = sample_path(
            &mut rng2,
            Location::London,
            Location::London,
            Medium::Wireless,
            0.0,
        );
        assert!(wifi.rtt > wired.rtt);
        assert!(wifi.loss > wired.loss);
    }

    #[test]
    fn chain_adds_rtt_and_composes_loss() {
        let a = PathSample {
            rtt: SimDuration::from_millis(10),
            loss: 0.01,
        };
        let b = PathSample {
            rtt: SimDuration::from_millis(20),
            loss: 0.02,
        };
        let c = a.chain(b);
        assert_eq!(c.rtt, SimDuration::from_millis(30));
        assert!((c.loss - (1.0 - 0.99 * 0.98)).abs() < 1e-12);
    }

    #[test]
    fn continents_assigned() {
        assert_eq!(Location::Bangalore.continent(), Continent::Asia);
        assert_eq!(Location::Frankfurt.continent(), Continent::Europe);
        assert_eq!(Location::Toronto.continent(), Continent::NorthAmerica);
    }

    #[test]
    fn abbrevs_match_paper_figures() {
        assert_eq!(Location::Bangalore.abbrev(), "BLR");
        assert_eq!(Location::Toronto.abbrev(), "TORO");
    }
}
