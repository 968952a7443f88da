//! Consensus generation: a synthetic but realistically shaped population
//! of Tor relays.
//!
//! Shape targets (approximating public Tor metrics at the time of the
//! paper's campaign):
//!
//! * relays are concentrated in Europe (~55%), then North America (~30%),
//!   then Asia (~15%) — this drives the paper's §4.5 observation that
//!   Bangalore clients see longer access times;
//! * per-client deliverable bandwidth is heavy-tailed (bounded Pareto,
//!   0.8–12 MB/s, median about 1.4 MB/s);
//! * roughly half of `Fast` relays hold the `Guard` flag and ~15% hold
//!   `Exit`;
//! * volunteer relays carry heavy-tailed background utilization
//!   ([`LoadProfile::VolunteerRelay`]).

use std::sync::{Arc, OnceLock};

use ptperf_sim::{BoundedPareto, LoadProfile, Location, SimRng};

use crate::index::ConsensusIndex;
use crate::relay::{Relay, RelayFlags, RelayId};

/// A generated relay consensus.
///
/// Carries a lazily built, mutation-invalidated [`ConsensusIndex`] for
/// sublinear path selection; cloning a consensus shares the built index
/// (valid because the relay lists are identical).
#[derive(Debug, Clone)]
pub struct Consensus {
    relays: Vec<Relay>,
    index: OnceLock<Arc<ConsensusIndex>>,
}

impl PartialEq for Consensus {
    /// Relay-list equality; the derived cache state is irrelevant.
    fn eq(&self, other: &Self) -> bool {
        self.relays == other.relays
    }
}

/// Parameters for consensus generation.
#[derive(Debug, Clone)]
pub struct ConsensusParams {
    /// Number of relays to generate.
    pub n_relays: usize,
    /// Fraction of `Fast` relays given the `Guard` flag.
    pub guard_fraction: f64,
    /// Fraction of relays given the `Exit` flag.
    pub exit_fraction: f64,
    /// Load profile for background utilization sampling.
    pub load: LoadProfile,
}

impl Default for ConsensusParams {
    fn default() -> Self {
        ConsensusParams {
            n_relays: 600,
            guard_fraction: 0.45,
            exit_fraction: 0.15,
            load: LoadProfile::VolunteerRelay,
        }
    }
}

impl Consensus {
    /// Generates a consensus with the default parameters.
    pub fn generate(rng: &mut SimRng) -> Self {
        Self::generate_with(rng, &ConsensusParams::default(), 0)
    }

    /// Generates a consensus with explicit parameters, with room for
    /// `spare` more relays: a caller that registers bridges right after
    /// generation passes their count, so [`Self::add_guard`] does not
    /// reallocate the relay list for them.
    ///
    /// # Panics
    /// Panics if `n_relays` is zero or fractions are outside `[0, 1]`.
    pub fn generate_with(rng: &mut SimRng, params: &ConsensusParams, spare: usize) -> Self {
        assert!(params.n_relays > 0, "consensus needs at least one relay");
        assert!((0.0..=1.0).contains(&params.guard_fraction));
        assert!((0.0..=1.0).contains(&params.exit_fraction));

        // Heavy-tailed *per-client deliverable* bandwidth: 0.8–12 MB/s.
        // (Relays advertise far more, but a single client's share of a
        // relay shared with thousands of users is what matters here;
        // typical Tor per-stream throughput is a few hundred KB/s to a
        // few MB/s.)
        let bandwidth = BoundedPareto::new(0.8e6, 12.0e6, 1.15);
        let load = params.load.sampler();
        let mut relays = Vec::with_capacity(params.n_relays + spare);
        for i in 0..params.n_relays {
            let location = sample_location(rng);
            let bandwidth_bps = bandwidth.sample(rng);
            let fast = bandwidth_bps > 1.2e6;
            let stable = rng.chance(0.7);
            let guard = fast && stable && rng.chance(params.guard_fraction);
            let exit = rng.chance(params.exit_fraction);
            let utilization = load.sample(rng);
            relays.push(Relay {
                id: RelayId(i as u32),
                location,
                bandwidth_bps,
                flags: RelayFlags {
                    guard,
                    exit,
                    fast,
                    stable,
                },
                utilization,
            });
        }
        // Guarantee at least one guard and one exit so path selection can
        // always succeed, regardless of the RNG draw.
        if !relays.iter().any(|r| r.flags.guard) {
            let best = best_by_bandwidth(&relays);
            relays[best].flags.guard = true;
            relays[best].flags.fast = true;
            relays[best].flags.stable = true;
        }
        if !relays.iter().any(|r| r.flags.exit && !r.flags.guard) {
            // Guarantee an exit that no guard choice can exclude: prefer
            // flagging the fastest non-guard; if every relay is a guard,
            // demote the slowest guard to exit-only (n ≥ 2 guards then,
            // so a guard still exists).
            let non_guard = relays
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.flags.guard)
                .max_by(|a, b| a.1.bandwidth_bps.partial_cmp(&b.1.bandwidth_bps).unwrap())
                .map(|(i, _)| i);
            match non_guard {
                Some(idx) => relays[idx].flags.exit = true,
                None => {
                    let guard_count = relays.iter().filter(|r| r.flags.guard).count();
                    let idx = relays
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.flags.guard)
                        .min_by(|a, b| a.1.bandwidth_bps.partial_cmp(&b.1.bandwidth_bps).unwrap())
                        .map(|(i, _)| i)
                        .expect("a guard exists by the guarantee above");
                    relays[idx].flags.exit = true;
                    if guard_count > 1 {
                        relays[idx].flags.guard = false;
                    }
                }
            }
        }
        ptperf_obs::obs_debug!(
            "consensus: generated {} relays ({} guards, {} exits)",
            relays.len(),
            relays.iter().filter(|r| r.flags.guard).count(),
            relays.iter().filter(|r| r.flags.exit).count()
        );
        Consensus {
            relays,
            index: OnceLock::new(),
        }
    }

    /// The precomputed pick index, built on first use and shared by
    /// clones. Invalidated by [`Self::relay_mut`] and [`Self::add_guard`].
    pub fn index(&self) -> &ConsensusIndex {
        self.index
            .get_or_init(|| Arc::new(ConsensusIndex::build(&self.relays)))
    }

    /// All relays.
    pub fn relays(&self) -> &[Relay] {
        &self.relays
    }

    /// Number of relays.
    pub fn len(&self) -> usize {
        self.relays.len()
    }

    /// True when the consensus is empty (never, after generation).
    pub fn is_empty(&self) -> bool {
        self.relays.is_empty()
    }

    /// Looks up a relay by id.
    pub fn relay(&self, id: RelayId) -> &Relay {
        &self.relays[id.0 as usize]
    }

    /// Mutable access, used by experiments that retune a relay (e.g. our
    /// own guard hosted for the fixed-circuit experiments).
    pub fn relay_mut(&mut self, id: RelayId) -> &mut Relay {
        self.index.take();
        &mut self.relays[id.0 as usize]
    }

    /// Adds a guard under our control (a self-hosted guard or bridge:
    /// Guard, Fast and Stable, never Exit) and returns its id.
    pub fn add_guard(
        &mut self,
        location: Location,
        bandwidth_bps: f64,
        utilization: f64,
    ) -> RelayId {
        self.index.take();
        let id = RelayId(self.relays.len() as u32);
        self.relays.push(Relay {
            id,
            location,
            bandwidth_bps,
            flags: RelayFlags {
                guard: true,
                exit: false,
                fast: true,
                stable: true,
            },
            utilization,
        });
        id
    }

    /// Relays holding the Guard flag.
    pub fn guards(&self) -> impl Iterator<Item = &Relay> {
        self.relays.iter().filter(|r| r.flags.guard)
    }

    /// Relays holding the Exit flag.
    pub fn exits(&self) -> impl Iterator<Item = &Relay> {
        self.relays.iter().filter(|r| r.flags.exit)
    }
}

fn best_by_bandwidth(relays: &[Relay]) -> usize {
    relays
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.bandwidth_bps.partial_cmp(&b.1.bandwidth_bps).unwrap())
        .map(|(i, _)| i)
        .expect("non-empty relay list")
}

/// Samples a relay location with continent weights matching public relay
/// density: Europe-heavy, NA second, Asia sparse.
fn sample_location(rng: &mut SimRng) -> Location {
    let roll = rng.next_f64();
    if roll < 0.33 {
        Location::Frankfurt
    } else if roll < 0.55 {
        Location::London
    } else if roll < 0.73 {
        Location::NewYork
    } else if roll < 0.85 {
        Location::Toronto
    } else if roll < 0.93 {
        Location::Singapore
    } else {
        Location::Bangalore
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptperf_sim::Continent;

    #[test]
    fn generation_is_deterministic() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(1);
        let ca = Consensus::generate(&mut a);
        let cb = Consensus::generate(&mut b);
        assert_eq!(ca.len(), cb.len());
        for (x, y) in ca.relays().iter().zip(cb.relays()) {
            assert_eq!(x.bandwidth_bps, y.bandwidth_bps);
            assert_eq!(x.location, y.location);
        }
    }

    #[test]
    fn has_guards_and_exits() {
        let mut rng = SimRng::new(2);
        let c = Consensus::generate(&mut rng);
        assert!(c.guards().count() > 50);
        assert!(c.exits().count() > 20);
    }

    #[test]
    fn europe_dominates() {
        let mut rng = SimRng::new(3);
        let c = Consensus::generate(&mut rng);
        let count = |cont: Continent| {
            c.relays()
                .iter()
                .filter(|r| r.location.continent() == cont)
                .count()
        };
        let eu = count(Continent::Europe);
        let na = count(Continent::NorthAmerica);
        let asia = count(Continent::Asia);
        assert!(eu > na, "eu {eu} na {na}");
        assert!(na > asia, "na {na} asia {asia}");
    }

    #[test]
    fn bandwidth_is_heavy_tailed() {
        let mut rng = SimRng::new(4);
        let c = Consensus::generate(&mut rng);
        let slow = c
            .relays()
            .iter()
            .filter(|r| r.bandwidth_bps < 2.5e6)
            .count();
        assert!(
            slow as f64 > 0.5 * c.len() as f64,
            "slow {slow}/{}",
            c.len()
        );
        assert!(c.relays().iter().any(|r| r.bandwidth_bps > 8.0e6));
    }

    #[test]
    fn minimal_consensus_still_has_roles() {
        let mut rng = SimRng::new(5);
        let params = ConsensusParams {
            n_relays: 3,
            guard_fraction: 0.0,
            exit_fraction: 0.0,
            load: LoadProfile::Fixed(0.1),
        };
        let c = Consensus::generate_with(&mut rng, &params, 0);
        assert!(c.guards().count() >= 1);
        assert!(c.exits().count() >= 1);
    }

    #[test]
    fn add_guard_assigns_fresh_id() {
        let mut rng = SimRng::new(6);
        let mut c = Consensus::generate(&mut rng);
        let n = c.len();
        let id = c.add_guard(Location::Frankfurt, 50e6, 0.05);
        assert_eq!(id.0 as usize, n);
        let relay = c.relay(id);
        assert_eq!(relay.id, id);
        assert_eq!(relay.location, Location::Frankfurt);
        assert_eq!(relay.bandwidth_bps, 50e6);
        assert_eq!(relay.utilization, 0.05);
        assert!(relay.flags.guard && relay.flags.fast && relay.flags.stable);
        assert!(!relay.flags.exit);
    }

    #[test]
    fn index_is_cached_shared_by_clones_and_invalidated_by_mutation() {
        let mut rng = SimRng::new(8);
        let mut c = Consensus::generate(&mut rng);
        let before = c.index().class(crate::index::FilterClass::All).len();
        assert_eq!(before, c.len());
        // A clone taken after the index is built reuses it without a
        // rebuild (same Arc).
        let clone = c.clone();
        assert!(std::ptr::eq(c.index(), clone.index()));
        // Mutation drops the cache; the rebuilt index sees the new state.
        c.relay_mut(RelayId(0)).flags.exit = true;
        assert!(c
            .index()
            .class(crate::index::FilterClass::Exit)
            .position(RelayId(0))
            .is_some());
        let n = c.len();
        c.add_guard(Location::London, 9e6, 0.0);
        assert_eq!(c.index().class(crate::index::FilterClass::All).len(), n + 1);
        // The clone's index is unaffected by the original's mutations.
        assert_eq!(
            clone.index().class(crate::index::FilterClass::All).len(),
            before
        );
    }

    #[test]
    fn equality_ignores_index_cache_state() {
        let a = Consensus::generate(&mut SimRng::new(9));
        let b = Consensus::generate(&mut SimRng::new(9));
        let _ = a.index();
        assert_eq!(a, b);
        let c = Consensus::generate(&mut SimRng::new(10));
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least one relay")]
    fn rejects_empty_consensus() {
        let mut rng = SimRng::new(7);
        let params = ConsensusParams {
            n_relays: 0,
            ..ConsensusParams::default()
        };
        let _ = Consensus::generate_with(&mut rng, &params, 0);
    }
}
