//! The full-scan path-selection oracle for `ptperf_tor::path`.
//!
//! [`weighted_pick`] is the original two-pass filtered scan that
//! `path::indexed` replaced, kept verbatim; [`select`] is a selector
//! built on it that samples every guard eagerly. The equivalence suite
//! (`path_equivalence.rs`) holds the indexed pick and `PathSelector` to
//! them, the same role `crates/sim/tests/oracle/` plays for the
//! single-link page-load loop.
//!
//! Every floating-point operation and its order is load-bearing: the
//! indexed pick promises bit-identical selections, and the equivalence
//! suite compares against this implementation directly. Do not "clean
//! up" the arithmetic here.

use ptperf_sim::SimRng;
use ptperf_tor::{
    CircuitSpec, Consensus, FilterClass, PathConfig, PathError, Relay, RelayId, Role,
    SAMPLED_GUARDS,
};

/// The filtered bandwidth total the reference pick draws against: an
/// in-order left-to-right `f64` sum over eligible relays.
pub fn filtered_total(
    relays: &[Relay],
    filter: impl Fn(&Relay) -> bool,
    exclude: &[RelayId],
) -> f64 {
    relays
        .iter()
        .filter(|r| filter(r) && !exclude.contains(&r.id))
        .map(|r| r.bandwidth_bps)
        .sum()
}

/// Bandwidth-weighted sample over relays passing `filter`, excluding ids in
/// `exclude`. Returns `None` when nothing qualifies — in which case the
/// RNG is *not* advanced; otherwise exactly one `next_f64` is consumed.
pub fn weighted_pick(
    rng: &mut SimRng,
    relays: &[Relay],
    filter: impl Fn(&Relay) -> bool,
    exclude: &[RelayId],
) -> Option<RelayId> {
    let total = filtered_total(relays, &filter, exclude);
    if total <= 0.0 {
        return None;
    }
    weighted_pick_with_u(rng.next_f64(), total, relays, filter, exclude)
}

/// The post-draw half of [`weighted_pick`]: resolves an already-drawn
/// uniform `u` against a precomputed `total`. Split out so equivalence
/// tests can probe specific draw values (boundary and tail cases) without
/// reverse-engineering RNG states.
pub fn weighted_pick_with_u(
    u: f64,
    total: f64,
    relays: &[Relay],
    filter: impl Fn(&Relay) -> bool,
    exclude: &[RelayId],
) -> Option<RelayId> {
    let mut target = u * total;
    for r in relays {
        if !filter(r) || exclude.contains(&r.id) {
            continue;
        }
        target -= r.bandwidth_bps;
        if target <= 0.0 {
            return Some(r.id);
        }
    }
    // Floating-point tail: return the last eligible relay.
    relays
        .iter()
        .rev()
        .find(|r| filter(r) && !exclude.contains(&r.id))
        .map(|r| r.id)
}

/// [`weighted_pick`] over the relays of `class`.
fn class_pick(
    rng: &mut SimRng,
    consensus: &Consensus,
    class: FilterClass,
    exclude: &[RelayId],
) -> Option<RelayId> {
    weighted_pick(rng, consensus.relays(), |r| class.matches(r), exclude)
}

/// A fresh client's guard sample, drawn eagerly: up to
/// [`SAMPLED_GUARDS`] bandwidth-weighted guard picks, each excluding the
/// picks before it, stopping at the first pick that finds no eligible
/// guard.
pub fn guard_sample(consensus: &Consensus, rng: &mut SimRng) -> Vec<RelayId> {
    let mut sample = Vec::with_capacity(SAMPLED_GUARDS);
    while sample.len() < SAMPLED_GUARDS {
        match class_pick(rng, consensus, FilterClass::Guard, &sample) {
            Some(g) => sample.push(g),
            None => break,
        }
    }
    sample
}

/// What `PathSelector::select` promises, spelled out eagerly: unless
/// pinned, the guard is the first pick of a full [`guard_sample`], then
/// the exit excludes the guard and the middle excludes both.
pub fn select(
    config: PathConfig,
    consensus: &Consensus,
    rng: &mut SimRng,
) -> Result<CircuitSpec, PathError> {
    let guard = match config.fixed_guard {
        Some(g) => g,
        None => guard_sample(consensus, rng)
            .first()
            .copied()
            .ok_or(PathError::NoEligibleRelay(Role::Guard))?,
    };
    let exit = match config.fixed_exit {
        Some(e) => e,
        None => class_pick(rng, consensus, FilterClass::Exit, &[guard])
            .ok_or(PathError::NoEligibleRelay(Role::Exit))?,
    };
    let middle = match config.fixed_middle {
        Some(m) => m,
        None => class_pick(rng, consensus, FilterClass::All, &[guard, exit])
            .ok_or(PathError::NoEligibleRelay(Role::Middle))?,
    };
    Ok(CircuitSpec {
        guard,
        middle,
        exit,
    })
}
