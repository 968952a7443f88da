//! Path selection: bandwidth-weighted relay choice, guard persistence, and
//! the circuit-pinning controls the paper's experiments rely on
//! (stem/carml-style `MaxCircuitDirtiness`, fixed guard, fixed circuit —
//! Appendix A.3).
//!
//! Picks resolve through the precomputed [`crate::index::ConsensusIndex`]
//! ([`indexed`], the default) or the original full-scan oracle
//! ([`reference`], retained for equivalence testing and benchmarking);
//! the two are bit-for-bit interchangeable (`tests/path_equivalence.rs`).
//! On the indexed path a client's guard sample takes all its draws up
//! front but resolves its picks on demand, so a selection through a
//! volunteer guard usually resolves three picks (guard, exit, middle)
//! rather than [`SAMPLED_GUARDS`] + 2, with the same draws and the same
//! results as eager sampling (see [`PathSelector`]).
//! A [`PathSelector`] is built for reuse: [`PathSelector::reset`] clears
//! guard state while keeping its buffers, so a persistent selector makes
//! repeated channel establishment allocation-free in steady state.

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

/// How many guards a client samples up front (guard-spec's
/// `SAMPLED_GUARDS`, simplified).
pub const SAMPLED_GUARDS: usize = 20;

/// How many sampled guards are "primary" — tried in order until one is
/// reachable.
pub const PRIMARY_GUARDS: usize = 3;

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

/// Selects circuit paths for one client, with Tor's guard-spec behavior:
/// a bandwidth-weighted *sampled set* of guards is drawn once, the first
/// few are primaries tried in order, and the client sticks to its
/// current primary across circuits ("for a client, the guard node does
/// not change often", §4.2.1). Marking a guard down fails over to the
/// next sampled guard.
///
/// The sample is drawn in full but resolved lazily whenever that cannot
/// change a draw (see `ensure_sampled`): its draws are stored, and pick
/// `i` resolves only when a caller needs the `i`-th sampled guard. The
/// methods that read guard state therefore take the consensus the
/// selector samples from, and resolve the picks they need first.
#[derive(Debug)]
pub struct PathSelector {
    config: PathConfig,
    /// The resolved prefix of the guard sample, in draw order.
    sampled_guards: Vec<RelayId>,
    /// The sample's draws when its resolution is deferred, else empty:
    /// pick `i` resolves `guard_draws[i]`, so the pending picks are
    /// `guard_draws[sampled_guards.len()..]`.
    guard_draws: Vec<f64>,
    down: Vec<RelayId>,
    mode: PickMode,
    scratch: PickScratch,
    vec_grows: u64,
}

impl PathSelector {
    /// A selector with default (unpinned) configuration.
    pub fn new() -> Self {
        Self::with_config(PathConfig::default())
    }

    /// A selector with pinning applied.
    pub fn with_config(config: PathConfig) -> Self {
        PathSelector {
            config,
            sampled_guards: Vec::new(),
            guard_draws: Vec::new(),
            down: Vec::new(),
            mode: PickMode::default(),
            scratch: PickScratch::new(),
            vec_grows: 0,
        }
    }

    /// Reconfigures the selector for a fresh client, retaining buffer
    /// capacity: guard state is dropped (the next selection resamples, so
    /// a reused selector draws exactly like a freshly constructed one)
    /// while the sampled-guard vector and pick scratch keep their
    /// allocations.
    pub fn reset(&mut self, config: PathConfig) {
        self.config = config;
        self.rotate_guard();
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

    /// The guard this client is currently pinned or settled on, if any:
    /// the pin, else the first sampled guard not marked down. Resolves
    /// pending sample picks only up to that guard; the answer is the one
    /// resolving the whole sample first would give. `consensus` must be
    /// the one the selector samples from.
    pub fn current_guard(&mut self, consensus: &Consensus) -> Option<RelayId> {
        if let Some(g) = self.config.fixed_guard {
            return Some(g);
        }
        if let Some(&g) = self.sampled_guards.iter().find(|g| !self.down.contains(g)) {
            return Some(g);
        }
        while let Some(g) = self.resolve_next(consensus) {
            if !self.down.contains(&g) {
                return Some(g);
            }
        }
        None
    }

    /// The client's sampled guard list (empty until the first
    /// selection), with every pending pick resolved. `consensus` must be
    /// the one the selector samples from.
    pub fn sampled_guards(&mut self, consensus: &Consensus) -> &[RelayId] {
        while self.resolve_next(consensus).is_some() {}
        &self.sampled_guards
    }

    /// The primary guards: the first [`PRIMARY_GUARDS`] of the sample
    /// (see [`Self::sampled_guards`]).
    pub fn primary_guards(&mut self, consensus: &Consensus) -> &[RelayId] {
        let sample = self.sampled_guards(consensus);
        &sample[..sample.len().min(PRIMARY_GUARDS)]
    }

    /// Marks a guard unreachable; subsequent selections fail over to the
    /// next sampled guard.
    pub fn mark_guard_down(&mut self, guard: RelayId) {
        if !self.down.contains(&guard) {
            self.down.push(guard);
        }
    }

    /// Marks a guard reachable again.
    pub fn mark_guard_up(&mut self, guard: RelayId) {
        self.down.retain(|g| *g != guard);
    }

    /// Drops guard state entirely (a "new identity" in Tor terms): the
    /// next selection samples a fresh guard list.
    pub fn rotate_guard(&mut self) {
        self.sampled_guards.clear();
        self.guard_draws.clear();
        self.down.clear();
    }

    /// Samples [`SAMPLED_GUARDS`] guards by bandwidth-weighted picks
    /// without replacement, unless this client already has a sample.
    ///
    /// Pick `j` excludes the `j` picks before it. When the consensus
    /// index is exact (every bandwidth finite and non-negative) and the
    /// guard class has at least [`SAMPLED_GUARDS`] members with positive
    /// bandwidth, each pick provably draws exactly once and returns a
    /// guard: it excludes at most `SAMPLED_GUARDS − 1` relays, so a
    /// positive-bandwidth member stays eligible and the exact eligible
    /// total is positive. The draws then do not depend on the picks, so
    /// this takes all of them now, in the eager order, and
    /// `resolve_next` resolves the picks later, in order, as they are
    /// needed. Otherwise — fewer positive-bandwidth guards, an inexact
    /// index, or [`PickMode::Reference`], which stays the eager oracle —
    /// every pick resolves here and sampling stops at the first `None`.
    fn ensure_sampled(&mut self, consensus: &Consensus, rng: &mut SimRng) {
        if !self.sampled_guards.is_empty() || !self.guard_draws.is_empty() {
            return;
        }
        if self.mode == PickMode::Indexed && guard_picks_always_draw(consensus) {
            let cap = self.guard_draws.capacity();
            self.guard_draws
                .extend((0..SAMPLED_GUARDS).map(|_| rng.next_f64()));
            if self.guard_draws.capacity() != cap {
                self.vec_grows += 1;
            }
            return;
        }
        for _ in 0..SAMPLED_GUARDS {
            match dispatch_pick(
                self.mode,
                rng,
                consensus,
                FilterClass::Guard,
                &self.sampled_guards,
                &mut self.scratch,
            ) {
                Some(g) => self.push_sampled(g),
                None => break, // consensus has fewer eligible guards
            }
        }
    }

    /// Resolves the next deferred guard pick from its stored draw and
    /// returns it; `None` once no pick is pending.
    fn resolve_next(&mut self, consensus: &Consensus) -> Option<RelayId> {
        let &u = self.guard_draws.get(self.sampled_guards.len())?;
        let g = indexed::weighted_pick_with_u(
            u,
            consensus,
            FilterClass::Guard,
            &self.sampled_guards,
            &mut self.scratch,
        )
        .expect("a deferred guard pick always resolves (see `ensure_sampled`)");
        self.push_sampled(g);
        Some(g)
    }

    /// Appends a guard to the sample, counting a reallocation.
    fn push_sampled(&mut self, g: RelayId) {
        let cap = self.sampled_guards.capacity();
        self.sampled_guards.push(g);
        if self.sampled_guards.capacity() != cap {
            self.vec_grows += 1;
        }
    }

    /// Picks a circuit path.
    ///
    /// Bandwidth-weighted without replacement; honors pinning; keeps the
    /// persistent (primary) guard across calls.
    pub fn select(&mut self, consensus: &Consensus, rng: &mut SimRng) -> Result<CircuitSpec, PathError> {
        let guard = match self.config.fixed_guard {
            Some(g) => g,
            None => {
                self.ensure_sampled(consensus, rng);
                self.current_guard(consensus)
                    .ok_or(PathError::NoEligibleRelay(Role::Guard))?
            }
        };
        let exit = match self.config.fixed_exit {
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
        let middle = match self.config.fixed_middle {
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
}

impl Default for PathSelector {
    fn default() -> Self {
        Self::new()
    }
}

/// The deferral precondition of `PathSelector::ensure_sampled`: every
/// bandwidth is finite and non-negative, and at least [`SAMPLED_GUARDS`]
/// guard-class members have positive bandwidth.
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

    #[test]
    fn selects_distinct_relays() {
        let c = consensus(1);
        let mut rng = SimRng::new(2);
        let mut sel = PathSelector::new();
        for _ in 0..200 {
            let spec = sel.select(&c, &mut rng).unwrap();
            assert_ne!(spec.guard, spec.middle);
            assert_ne!(spec.guard, spec.exit);
            assert_ne!(spec.middle, spec.exit);
        }
    }

    #[test]
    fn guard_persists_across_circuits() {
        let c = consensus(3);
        let mut rng = SimRng::new(4);
        let mut sel = PathSelector::new();
        let first = sel.select(&c, &mut rng).unwrap();
        for _ in 0..50 {
            let spec = sel.select(&c, &mut rng).unwrap();
            assert_eq!(spec.guard, first.guard);
        }
    }

    #[test]
    fn rotate_guard_resamples() {
        let c = consensus(5);
        let mut rng = SimRng::new(6);
        let mut sel = PathSelector::new();
        let first = sel.select(&c, &mut rng).unwrap().guard;
        let mut changed = false;
        for _ in 0..20 {
            sel.rotate_guard();
            if sel.select(&c, &mut rng).unwrap().guard != first {
                changed = true;
                break;
            }
        }
        assert!(changed, "guard never changed after 20 rotations");
    }

    #[test]
    fn guard_sample_has_spec_size_and_no_duplicates() {
        let c = consensus(21);
        let mut rng = SimRng::new(22);
        let mut sel = PathSelector::new();
        sel.select(&c, &mut rng).unwrap();
        let sample = sel.sampled_guards(&c).to_vec();
        assert_eq!(sample.len(), SAMPLED_GUARDS);
        let mut dedup = sample.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), sample.len(), "duplicate guards in sample");
        assert_eq!(sel.primary_guards(&c), &sample[..PRIMARY_GUARDS]);
        assert_eq!(sel.current_guard(&c), Some(sample[0]));
    }

    #[test]
    fn guard_failover_walks_the_sample_in_order() {
        let c = consensus(23);
        let mut rng = SimRng::new(24);
        let mut sel = PathSelector::new();
        let first = sel.select(&c, &mut rng).unwrap().guard;
        let sample = sel.sampled_guards(&c).to_vec();
        assert_eq!(first, sample[0]);

        sel.mark_guard_down(sample[0]);
        assert_eq!(sel.select(&c, &mut rng).unwrap().guard, sample[1]);
        sel.mark_guard_down(sample[1]);
        assert_eq!(sel.select(&c, &mut rng).unwrap().guard, sample[2]);
        // Recovery restores the original primary.
        sel.mark_guard_up(sample[0]);
        assert_eq!(sel.select(&c, &mut rng).unwrap().guard, sample[0]);
    }

    #[test]
    fn all_guards_down_is_an_error() {
        let c = consensus(25);
        let mut rng = SimRng::new(26);
        let mut sel = PathSelector::new();
        sel.select(&c, &mut rng).unwrap();
        for g in sel.sampled_guards(&c).to_vec() {
            sel.mark_guard_down(g);
        }
        assert_eq!(
            sel.select(&c, &mut rng).unwrap_err(),
            PathError::NoEligibleRelay(Role::Guard)
        );
    }

    #[test]
    fn middles_and_exits_vary() {
        let c = consensus(7);
        let mut rng = SimRng::new(8);
        let mut sel = PathSelector::new();
        let mut middles = std::collections::HashSet::new();
        for _ in 0..100 {
            middles.insert(sel.select(&c, &mut rng).unwrap().middle);
        }
        assert!(middles.len() > 20, "only {} distinct middles", middles.len());
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
        let mut sel = PathSelector::with_config(cfg);
        let spec = sel.select(&c, &mut rng).unwrap();
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
        let pop_mean: f64 = c.exits().map(|r| r.bandwidth_bps).sum::<f64>()
            / c.exits().count() as f64;
        let mut sel = PathSelector::new();
        let n = 400;
        let mean_sel: f64 = (0..n)
            .map(|_| {
                let spec = sel.select(&c, &mut rng).unwrap();
                c.relay(spec.exit).bandwidth_bps
            })
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
    fn reset_reuse_matches_fresh_selector_exactly() {
        let c = consensus(31);
        let mut reused = PathSelector::new();
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
            reused.reset(cfg);
            let mut fresh = PathSelector::with_config(cfg);
            for _ in 0..5 {
                assert_eq!(
                    reused.select(&c, &mut rng_a).unwrap(),
                    fresh.select(&c, &mut rng_b).unwrap()
                );
            }
            assert_eq!(rng_a, rng_b, "reused selector consumed extra draws");
        }
    }

    #[test]
    fn reused_selector_stops_growing() {
        let c = consensus(33);
        let mut sel = PathSelector::new();
        let mut rng = SimRng::new(34);
        // Warm up: first establishes grow the sample + scratch buffers.
        for _ in 0..3 {
            sel.reset(PathConfig::default());
            sel.select(&c, &mut rng).unwrap();
        }
        let grows = sel.scratch_grows();
        for _ in 0..50 {
            sel.reset(PathConfig::default());
            sel.select(&c, &mut rng).unwrap();
        }
        assert_eq!(sel.scratch_grows(), grows, "steady-state reuse reallocated");
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
                    sel_i.select(&c, &mut rng_i).unwrap(),
                    sel_r.select(&c, &mut rng_r).unwrap()
                );
            }
            assert_eq!(sel_i.sampled_guards(&c), sel_r.sampled_guards(&c));
            assert_eq!(rng_i, rng_r, "modes consumed different draw counts");
        }
    }

    #[test]
    fn deferred_sample_resolves_guard_picks_on_demand() {
        let c = consensus(35);
        assert!(guard_picks_always_draw(&c));
        let mut rng = SimRng::new(36);
        let mut sel = PathSelector::new();
        let first = sel.select(&c, &mut rng).unwrap().guard;
        // Every draw is taken, but only the guard in use is resolved.
        assert_eq!(sel.guard_draws.len(), SAMPLED_GUARDS);
        assert_eq!(sel.sampled_guards, [first]);
        // Failing over past two guards resolves exactly the next two.
        sel.mark_guard_down(first);
        let second = sel.select(&c, &mut rng).unwrap().guard;
        sel.mark_guard_down(second);
        sel.select(&c, &mut rng).unwrap();
        assert_eq!(sel.sampled_guards.len(), 3);
        assert_eq!(sel.sampled_guards(&c).len(), SAMPLED_GUARDS);

        // The reference oracle samples eagerly.
        let mut oracle = PathSelector::new();
        oracle.set_pick_mode(PickMode::Reference);
        oracle.select(&c, &mut SimRng::new(36)).unwrap();
        assert!(oracle.guard_draws.is_empty());
        assert_eq!(oracle.sampled_guards.len(), SAMPLED_GUARDS);
    }
}
