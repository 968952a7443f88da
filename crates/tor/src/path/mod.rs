//! Path selection: bandwidth-weighted relay choice with a freshly
//! sampled guard per selection, and the circuit-pinning controls the
//! paper's experiments rely on (stem/carml-style fixed guard and fixed
//! circuit — Appendix A.3), passed to each call as a [`PathConfig`].
//!
//! Picks resolve through the precomputed [`crate::index::ConsensusIndex`]
//! ([`indexed`], the default) or the original full-scan oracle
//! ([`reference`], retained for equivalence testing and benchmarking);
//! the two are bit-for-bit interchangeable (`tests/path_equivalence.rs`).
//! On the indexed path a selection through a volunteer guard takes all
//! [`SAMPLED_GUARDS`] draws of its guard sample but, when that provably
//! changes no draw, resolves only the first, so it resolves three picks
//! (guard, exit, middle) rather than [`SAMPLED_GUARDS`] + 2, with the
//! same draws and the same results as the eager sample.
//! A [`PathSelector`] carries no guard state from one call to the next;
//! reusing one keeps its buffers, which makes repeated channel
//! establishment allocation-free in steady state.

pub mod indexed;
pub mod reference;

use ptperf_sim::SimRng;

use crate::consensus::Consensus;
use crate::index::FilterClass;
use crate::relay::RelayId;

use indexed::PickScratch;

/// Which position a relay occupies in a circuit. Utilization differs by
/// role: guards carry most of the Tor network's client traffic (the
/// paper's §4.2.1 explanation), middles and exits less so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// First hop.
    Guard,
    /// Second hop.
    Middle,
    /// Third hop.
    Exit,
}

impl Role {
    /// Scales a relay's sampled background utilization for this role.
    ///
    /// Guards see the relay's full background load; middles and exits see
    /// less because client traffic fans out across many circuits beyond
    /// the first hop and exit selection is strongly bandwidth-weighted.
    pub fn utilization_factor(self) -> f64 {
        match self {
            Role::Guard => 1.0,
            Role::Middle => 0.45,
            Role::Exit => 0.65,
        }
    }
}

/// A chosen 3-hop circuit path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitSpec {
    /// First hop (guard relay or PT bridge registered in the consensus).
    pub guard: RelayId,
    /// Second hop.
    pub middle: RelayId,
    /// Third hop.
    pub exit: RelayId,
}

/// Pinning configuration, mirroring what the paper achieved with stem and
/// carml (fixed guard / fixed full circuit; Appendix A.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct PathConfig {
    /// Force this relay as the first hop.
    pub fixed_guard: Option<RelayId>,
    /// Force this relay as the second hop.
    pub fixed_middle: Option<RelayId>,
    /// Force this relay as the third hop.
    pub fixed_exit: Option<RelayId>,
}

/// Path-selection error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathError {
    /// No relay with the required flag remains after exclusions.
    NoEligibleRelay(Role),
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::NoEligibleRelay(role) => {
                write!(f, "no eligible relay for role {role:?}")
            }
        }
    }
}

impl std::error::Error for PathError {}

/// How many guards a client samples for each selection (guard-spec's
/// `SAMPLED_GUARDS`, simplified); the circuit uses the first.
pub const SAMPLED_GUARDS: usize = 20;

/// Which `weighted_pick` implementation a [`PathSelector`] dispatches to.
/// Both produce bit-identical selections; `Reference` exists for the
/// equivalence suite and the establish benchmark's oracle lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PickMode {
    /// Binary search over the consensus index (the default).
    #[default]
    Indexed,
    /// The original full-consensus filtered scan.
    Reference,
}

/// Selects circuit paths. Each [`select`](Self::select) is a fresh
/// client: unless pinned, its guard is the first pick of a freshly drawn
/// bandwidth-weighted sample of [`SAMPLED_GUARDS`] guards, so every
/// measurement sees a newly sampled first hop (§4.2.1). No guard state
/// survives a call; the selector holds only the pick mode and buffers
/// that keep repeated selections allocation-free.
#[derive(Debug)]
pub struct PathSelector {
    /// The eager guard sample, in draw order; refilled by each eager
    /// selection and kept only for its capacity.
    sample: Vec<RelayId>,
    mode: PickMode,
    scratch: PickScratch,
    vec_grows: u64,
}

impl PathSelector {
    /// A selector on the indexed pick path.
    pub fn new() -> Self {
        PathSelector {
            sample: Vec::new(),
            mode: PickMode::default(),
            scratch: PickScratch::new(),
            vec_grows: 0,
        }
    }

    /// Switches the pick implementation (selections are identical either
    /// way; see [`PickMode`]).
    pub fn set_pick_mode(&mut self, mode: PickMode) {
        self.mode = mode;
    }

    /// The pick implementation in use.
    pub fn pick_mode(&self) -> PickMode {
        self.mode
    }

    /// How many times this selector's internal buffers reallocated — an
    /// allocation proxy for benches; the delta is 0 once reuse reaches
    /// steady state.
    pub fn scratch_grows(&self) -> u64 {
        self.scratch.grows() + self.vec_grows
    }

    /// Picks a circuit path for a fresh client: bandwidth-weighted
    /// without replacement, honoring `config`'s pins. The guard, unless
    /// pinned, is the first pick of a [`SAMPLED_GUARDS`]-pick sample,
    /// then the exit and the middle follow.
    pub fn select(
        &mut self,
        config: PathConfig,
        consensus: &Consensus,
        rng: &mut SimRng,
    ) -> Result<CircuitSpec, PathError> {
        let guard = match config.fixed_guard {
            Some(g) => g,
            None => self
                .sample_guard(consensus, rng)
                .ok_or(PathError::NoEligibleRelay(Role::Guard))?,
        };
        let exit = match config.fixed_exit {
            Some(e) => e,
            None => dispatch_pick(
                self.mode,
                rng,
                consensus,
                FilterClass::Exit,
                &[guard],
                &mut self.scratch,
            )
            .ok_or(PathError::NoEligibleRelay(Role::Exit))?,
        };
        let middle = match config.fixed_middle {
            Some(m) => m,
            None => dispatch_pick(
                self.mode,
                rng,
                consensus,
                FilterClass::All,
                &[guard, exit],
                &mut self.scratch,
            )
            .ok_or(PathError::NoEligibleRelay(Role::Middle))?,
        };
        Ok(CircuitSpec {
            guard,
            middle,
            exit,
        })
    }

    /// Draws a [`SAMPLED_GUARDS`]-pick guard sample, bandwidth-weighted
    /// without replacement, and returns its first pick.
    ///
    /// Pick `j` excludes the `j` picks before it. When the consensus
    /// index is exact (every bandwidth finite and non-negative) and the
    /// guard class has at least [`SAMPLED_GUARDS`] members with positive
    /// bandwidth, each pick provably draws exactly once and returns a
    /// guard: it excludes at most `SAMPLED_GUARDS − 1` relays, so a
    /// positive-bandwidth member stays eligible and the exact eligible
    /// total is positive. The draws then do not depend on the picks, so
    /// this resolves the first pick from the first draw and takes the
    /// other draws unused. Otherwise — fewer positive-bandwidth guards,
    /// an inexact index, or [`PickMode::Reference`], which stays the
    /// eager oracle — every pick resolves, and sampling stops at the
    /// first `None`.
    fn sample_guard(&mut self, consensus: &Consensus, rng: &mut SimRng) -> Option<RelayId> {
        if self.mode == PickMode::Indexed && guard_picks_always_draw(consensus) {
            let u = rng.next_f64();
            for _ in 1..SAMPLED_GUARDS {
                rng.next_f64();
            }
            return indexed::weighted_pick_with_u(
                u,
                consensus,
                FilterClass::Guard,
                &[],
                &mut self.scratch,
            );
        }
        self.sample.clear();
        if self.sample.capacity() < SAMPLED_GUARDS {
            self.sample.reserve_exact(SAMPLED_GUARDS);
            self.vec_grows += 1;
        }
        for _ in 0..SAMPLED_GUARDS {
            match dispatch_pick(
                self.mode,
                rng,
                consensus,
                FilterClass::Guard,
                &self.sample,
                &mut self.scratch,
            ) {
                Some(g) => self.sample.push(g),
                None => break, // consensus has fewer eligible guards
            }
        }
        self.sample.first().copied()
    }
}

impl Default for PathSelector {
    fn default() -> Self {
        Self::new()
    }
}

/// The precondition under which `PathSelector::sample_guard` resolves
/// only its first pick: every bandwidth is finite and non-negative, and
/// at least [`SAMPLED_GUARDS`] guard-class members have positive
/// bandwidth.
fn guard_picks_always_draw(consensus: &Consensus) -> bool {
    let idx = consensus.index();
    idx.exact_ok && idx.class(FilterClass::Guard).positive >= SAMPLED_GUARDS
}

fn dispatch_pick(
    mode: PickMode,
    rng: &mut SimRng,
    consensus: &Consensus,
    class: FilterClass,
    exclude: &[RelayId],
    scratch: &mut PickScratch,
) -> Option<RelayId> {
    match mode {
        PickMode::Indexed => indexed::weighted_pick(rng, consensus, class, exclude, scratch),
        PickMode::Reference => {
            reference::weighted_pick(rng, consensus.relays(), |r| class.matches(r), exclude)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptperf_sim::SimRng;

    fn consensus(seed: u64) -> Consensus {
        let mut rng = SimRng::new(seed);
        Consensus::generate(&mut rng)
    }

    fn select(sel: &mut PathSelector, c: &Consensus, rng: &mut SimRng) -> CircuitSpec {
        sel.select(PathConfig::default(), c, rng).unwrap()
    }

    #[test]
    fn selects_distinct_relays() {
        let c = consensus(1);
        let mut rng = SimRng::new(2);
        let mut sel = PathSelector::new();
        for _ in 0..200 {
            let spec = select(&mut sel, &c, &mut rng);
            assert_ne!(spec.guard, spec.middle);
            assert_ne!(spec.guard, spec.exit);
            assert_ne!(spec.middle, spec.exit);
        }
    }

    #[test]
    fn each_selection_samples_a_fresh_guard() {
        let c = consensus(5);
        let mut rng = SimRng::new(6);
        let mut sel = PathSelector::new();
        let first = select(&mut sel, &c, &mut rng).guard;
        assert!(
            (0..20).any(|_| select(&mut sel, &c, &mut rng).guard != first),
            "guard never changed in 20 selections"
        );
    }

    #[test]
    fn guard_sample_has_spec_size_and_no_duplicates() {
        let c = consensus(21);
        let mut rng = SimRng::new(22);
        let mut sel = PathSelector::new();
        sel.set_pick_mode(PickMode::Reference);
        let guard = select(&mut sel, &c, &mut rng).guard;
        let sample = sel.sample.clone();
        assert_eq!(sample.len(), SAMPLED_GUARDS);
        let mut dedup = sample.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), sample.len(), "duplicate guards in sample");
        assert_eq!(guard, sample[0]);
    }

    #[test]
    fn no_eligible_guard_is_an_error() {
        let mut c = consensus(25);
        for i in 0..c.len() {
            let r = c.relay_mut(RelayId(i as u32));
            if r.flags.guard {
                r.bandwidth_bps = 0.0;
            }
        }
        for mode in [PickMode::Indexed, PickMode::Reference] {
            let mut sel = PathSelector::new();
            sel.set_pick_mode(mode);
            assert_eq!(
                sel.select(PathConfig::default(), &c, &mut SimRng::new(26))
                    .unwrap_err(),
                PathError::NoEligibleRelay(Role::Guard)
            );
        }
    }

    #[test]
    fn middles_and_exits_vary() {
        let c = consensus(7);
        let mut rng = SimRng::new(8);
        let mut sel = PathSelector::new();
        let mut middles = std::collections::HashSet::new();
        for _ in 0..100 {
            middles.insert(select(&mut sel, &c, &mut rng).middle);
        }
        assert!(
            middles.len() > 20,
            "only {} distinct middles",
            middles.len()
        );
    }

    #[test]
    fn pinning_is_honored() {
        let c = consensus(9);
        let mut rng = SimRng::new(10);
        let cfg = PathConfig {
            fixed_guard: Some(RelayId(5)),
            fixed_middle: Some(RelayId(6)),
            fixed_exit: Some(RelayId(7)),
        };
        let spec = PathSelector::new().select(cfg, &c, &mut rng).unwrap();
        assert_eq!(
            spec,
            CircuitSpec {
                guard: RelayId(5),
                middle: RelayId(6),
                exit: RelayId(7)
            }
        );
    }

    #[test]
    fn selection_is_bandwidth_biased() {
        let c = consensus(11);
        let mut rng = SimRng::new(12);
        // Mean bandwidth of selected exits should exceed the population mean.
        let pop_mean: f64 =
            c.exits().map(|r| r.bandwidth_bps).sum::<f64>() / c.exits().count() as f64;
        let mut sel = PathSelector::new();
        let n = 400;
        let mean_sel: f64 = (0..n)
            .map(|_| c.relay(select(&mut sel, &c, &mut rng).exit).bandwidth_bps)
            .sum::<f64>()
            / n as f64;
        assert!(
            mean_sel > pop_mean * 1.3,
            "selected mean {mean_sel:.0} vs population {pop_mean:.0}"
        );
    }

    #[test]
    fn guard_role_sees_most_load() {
        assert!(Role::Guard.utilization_factor() > Role::Exit.utilization_factor());
        assert!(Role::Exit.utilization_factor() > Role::Middle.utilization_factor());
    }

    #[test]
    fn reused_selector_matches_fresh_selector_exactly() {
        let c = consensus(31);
        for mode in [PickMode::Indexed, PickMode::Reference] {
            let mut reused = PathSelector::new();
            reused.set_pick_mode(mode);
            for round in 0..10u64 {
                let cfg = if round % 2 == 0 {
                    PathConfig::default()
                } else {
                    PathConfig {
                        fixed_guard: Some(RelayId(round as u32)),
                        ..PathConfig::default()
                    }
                };
                let mut rng_a = SimRng::new(100 + round);
                let mut rng_b = rng_a.clone();
                for _ in 0..5 {
                    let mut fresh = PathSelector::new();
                    fresh.set_pick_mode(mode);
                    assert_eq!(
                        reused.select(cfg, &c, &mut rng_a).unwrap(),
                        fresh.select(cfg, &c, &mut rng_b).unwrap()
                    );
                }
                assert_eq!(rng_a, rng_b, "reused selector consumed extra draws");
            }
        }
    }

    #[test]
    fn reused_selector_stops_growing() {
        let c = consensus(33);
        for mode in [PickMode::Indexed, PickMode::Reference] {
            let mut sel = PathSelector::new();
            sel.set_pick_mode(mode);
            let mut rng = SimRng::new(34);
            // Warm up: the first selections grow the sample + scratch buffers.
            for _ in 0..3 {
                select(&mut sel, &c, &mut rng);
            }
            let grows = sel.scratch_grows();
            for _ in 0..50 {
                select(&mut sel, &c, &mut rng);
            }
            assert_eq!(sel.scratch_grows(), grows, "steady-state reuse reallocated");
        }
    }

    #[test]
    fn pick_modes_agree_on_full_selection_sequences() {
        for seed in 0..5u64 {
            let c = consensus(40 + seed);
            let mut rng_i = SimRng::new(50 + seed);
            let mut rng_r = rng_i.clone();
            let mut sel_i = PathSelector::new();
            let mut sel_r = PathSelector::new();
            sel_r.set_pick_mode(PickMode::Reference);
            assert_eq!(sel_i.pick_mode(), PickMode::Indexed);
            for _ in 0..20 {
                assert_eq!(
                    select(&mut sel_i, &c, &mut rng_i),
                    select(&mut sel_r, &c, &mut rng_r)
                );
            }
            assert_eq!(rng_i, rng_r, "modes consumed different draw counts");
        }
    }
}
