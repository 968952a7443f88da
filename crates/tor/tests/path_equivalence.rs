//! Equivalence suite: the indexed `weighted_pick` is bit-for-bit
//! interchangeable with the retained reference oracle — identical relay
//! selections AND identical RNG draw counts — across generated
//! consensuses, filter classes, exclude sets (empty, small, large,
//! duplicated, out-of-class, out-of-range, all-excluded), degenerate
//! bandwidths, decision-boundary draws, and the floating-point tail
//! fallback. The deterministic bulk test alone covers thousands of
//! picks; the proptests add structural diversity on top. At the
//! selector level, an indexed `PathSelector` (which resolves only the
//! first pick of its guard sample when it provably may) selects the
//! same circuits with the same draws as the eagerly sampling reference
//! one, under every pinning shape and on both sides of that
//! precondition, and one selection's draw and pick counts are pinned.

use proptest::prelude::*;

use ptperf_obs::perf;
use ptperf_sim::SimRng;
use ptperf_tor::path::indexed::{self, PickScratch};
use ptperf_tor::path::reference;
use ptperf_tor::{
    Consensus, ConsensusParams, FilterClass, PathConfig, PathSelector, PickMode, RelayId,
    SAMPLED_GUARDS,
};

const CLASSES: [FilterClass; 3] = [FilterClass::Guard, FilterClass::Exit, FilterClass::All];

fn gen_consensus(seed: u64, n: usize) -> Consensus {
    let mut rng = SimRng::new(seed);
    Consensus::generate_with(
        &mut rng,
        &ConsensusParams {
            n_relays: n,
            ..ConsensusParams::default()
        },
        0,
    )
}

/// Runs one pick through both implementations from identical RNG states
/// and asserts identical results and identical post-pick RNG states
/// (i.e. the same number of `next_f64` draws). Returns the pick.
fn assert_pick_equiv(
    c: &Consensus,
    class: FilterClass,
    exclude: &[RelayId],
    rng: &mut SimRng,
    scratch: &mut PickScratch,
) -> Option<RelayId> {
    let mut rng_ref = rng.clone();
    let picked = indexed::weighted_pick(rng, c, class, exclude, scratch);
    let picked_ref =
        reference::weighted_pick(&mut rng_ref, c.relays(), |r| class.matches(r), exclude);
    assert_eq!(
        picked, picked_ref,
        "pick mismatch: class {class:?}, exclude {exclude:?}"
    );
    assert_eq!(
        *rng, rng_ref,
        "draw-count mismatch: class {class:?}, exclude {exclude:?}"
    );
    picked
}

/// Same comparison through the `with_u` seams (externally chosen draw).
fn assert_with_u_equiv(c: &Consensus, class: FilterClass, exclude: &[RelayId], u: f64) {
    let mut scratch = PickScratch::new();
    let picked = indexed::weighted_pick_with_u(u, c, class, exclude, &mut scratch);
    let total = reference::filtered_total(c.relays(), |r| class.matches(r), exclude);
    let picked_ref = if total <= 0.0 {
        None
    } else {
        reference::weighted_pick_with_u(u, total, c.relays(), |r| class.matches(r), exclude)
    };
    assert_eq!(
        picked, picked_ref,
        "with_u mismatch: class {class:?}, u {u:e}"
    );
}

/// The pinning shapes a selector run cycles through: none, a fixed
/// guard, a fixed exit, and all three hops pinned, to relays of `c`
/// chosen by `salt`.
fn pinnings(c: &Consensus, salt: usize) -> [PathConfig; 4] {
    let id = |k: usize| Some(RelayId(((salt + 101 * k) % c.len()) as u32));
    [
        PathConfig::default(),
        PathConfig {
            fixed_guard: id(0),
            ..PathConfig::default()
        },
        PathConfig {
            fixed_exit: id(1),
            ..PathConfig::default()
        },
        PathConfig {
            fixed_guard: id(0),
            fixed_middle: id(1),
            fixed_exit: id(2),
        },
    ]
}

/// Runs one fresh `select(config, …)` per config on an indexed and a
/// reference selector from identical RNG states. Asserts identical
/// results (circuits, or the same error) and identical RNG states after
/// every call.
fn assert_selectors_equiv(c: &Consensus, rseed: u64, configs: &[PathConfig]) {
    let mut rng_i = SimRng::new(rseed);
    let mut rng_r = rng_i.clone();
    let mut sel_i = PathSelector::new();
    let mut sel_r = PathSelector::new();
    sel_r.set_pick_mode(PickMode::Reference);
    for &config in configs {
        assert_eq!(
            sel_i.select(config, c, &mut rng_i),
            sel_r.select(config, c, &mut rng_r),
            "selection mismatch under {config:?}"
        );
        assert_eq!(rng_i, rng_r, "draw-count mismatch under {config:?}");
    }
}

#[test]
fn guard_sample_deferral_boundary_matches_the_eager_oracle() {
    // A guard sample resolves only its first pick when the guard class
    // keeps at least SAMPLED_GUARDS positive-bandwidth members. Just
    // below, a sample pick that finds every positive-bandwidth member
    // excluded sees a zero eligible total and draws nothing; a selector
    // that took all SAMPLED_GUARDS draws there anyway would take one
    // draw too many.
    const SHAPES: [usize; 7] = [0, 1, 0, 2, 3, 0, 2];
    let run = |c: &Consensus, rseed: u64, salt: usize| {
        let p = pinnings(c, salt);
        let configs: Vec<PathConfig> = SHAPES.iter().map(|&k| p[k]).collect();
        assert_selectors_equiv(c, rseed, &configs);
    };
    for seed in 0..4u64 {
        for positive in [SAMPLED_GUARDS - 1, SAMPLED_GUARDS, SAMPLED_GUARDS + 1] {
            let mut c = gen_consensus(40 + seed, 300);
            let ids = c.index().class(FilterClass::Guard).ids.clone();
            assert!(
                ids.len() > positive + 10,
                "guard class too small: {}",
                ids.len()
            );
            // Keep `positive` members spread over the class; zero the rest.
            let keep: Vec<RelayId> = (0..positive)
                .map(|j| ids[j * ids.len() / positive])
                .collect();
            for &id in &ids {
                if !keep.contains(&id) {
                    c.relay_mut(id).bandwidth_bps = 0.0;
                }
            }
            assert!(c.index().exact_ok);
            assert_eq!(c.index().class(FilterClass::Guard).positive, positive);
            run(&c, 500 + seed, seed as usize);
        }
    }
    // An inexact index keeps sampling eager even with enough
    // positive-bandwidth guards: a NaN guard bandwidth, and a negative
    // one that pushes every eligible total below zero, so the eager
    // oracle draws nothing and finds no guard.
    for bad in [f64::NAN, -1e12] {
        let mut c = gen_consensus(44, 300);
        let g = c.index().class(FilterClass::Guard).ids[3];
        c.relay_mut(g).bandwidth_bps = bad;
        assert!(!c.index().exact_ok);
        assert!(c.index().class(FilterClass::Guard).positive >= SAMPLED_GUARDS);
        run(&c, 504, 7);
    }
}

/// `from` advanced by `steps` RNG draws.
fn advanced(mut from: SimRng, steps: usize) -> SimRng {
    for _ in 0..steps {
        from.next_u64();
    }
    from
}

#[test]
fn one_selection_takes_every_sample_draw_and_resolves_three_picks() {
    // Through a volunteer guard: SAMPLED_GUARDS sample draws, of which
    // only the first is resolved, then the exit and middle picks. A
    // pinned guard skips the sample; a pinned path draws nothing.
    for seed in 0..6u64 {
        let c = gen_consensus(60 + seed, 600);
        assert!(c.index().exact_ok);
        assert!(c.index().class(FilterClass::Guard).positive >= SAMPLED_GUARDS);
        let [volunteer, pinned_guard, _, pinned_path] = pinnings(&c, seed as usize);
        let mut sel = PathSelector::new();
        for (config, draws, picks) in [
            (volunteer, SAMPLED_GUARDS + 2, 3),
            (pinned_guard, 2, 2),
            (pinned_path, 0, 0),
        ] {
            let mut rng = SimRng::new(700 + seed);
            let start = rng.clone();
            let before = perf::snapshot();
            sel.select(config, &c, &mut rng)
                .expect("generated consensus");
            let counted = perf::snapshot().delta_since(&before);
            assert_eq!(rng, advanced(start, draws), "draws under {config:?}");
            assert_eq!(
                counted.path_index_pick + counted.path_scan_fallback,
                picks,
                "resolved picks under {config:?}"
            );
        }
    }
}

#[test]
fn thousands_of_picks_match_across_sizes_classes_and_exclude_growth() {
    let mut checked = 0u64;
    let mut scratch = PickScratch::new();
    for seed in 0..8u64 {
        for &n in &[1usize, 2, 3, 7, 40, 600] {
            let c = gen_consensus(seed + 1, n);
            for class in CLASSES {
                // Sampling-without-replacement shape: the exclude set grows
                // with each pick, exactly like an eager guard sample, to 25 ids —
                // past the 19 a full guard sample excludes.
                let mut rng = SimRng::new(1000 + seed);
                let mut exclude: Vec<RelayId> = Vec::new();
                for _ in 0..25 {
                    match assert_pick_equiv(&c, class, &exclude, &mut rng, &mut scratch) {
                        Some(id) => exclude.push(id),
                        None => break,
                    }
                    checked += 1;
                }
                // All eligible excluded (when the loop drained the class):
                // both sides must return None without drawing.
                assert_pick_equiv(&c, class, &exclude, &mut rng, &mut scratch);
                checked += 1;
            }
        }
    }
    assert!(checked >= 1000, "only {checked} picks checked");
}

#[test]
fn duplicate_out_of_class_and_out_of_range_excludes_are_neutral() {
    let c = gen_consensus(5, 120);
    let mut scratch = PickScratch::new();
    // A guard-class member, duplicated; an exit not in the guard class;
    // and an id beyond the consensus entirely.
    let guard = c.index().class(FilterClass::Guard).ids[0];
    let non_guard = c
        .relays()
        .iter()
        .find(|r| !FilterClass::Guard.matches(r))
        .map(|r| r.id)
        .unwrap();
    for exclude in [
        vec![guard, guard],
        vec![guard, guard, guard],
        vec![non_guard],
        vec![guard, non_guard, guard],
        vec![RelayId(100_000)],
        vec![guard, RelayId(100_000), guard, non_guard],
    ] {
        for seed in 0..40u64 {
            let mut rng = SimRng::new(seed);
            assert_pick_equiv(&c, FilterClass::Guard, &exclude, &mut rng, &mut scratch);
        }
    }
}

#[test]
fn single_eligible_and_all_excluded_cases() {
    // One-relay consensus: every class has at most one member.
    let c = gen_consensus(9, 1);
    let mut scratch = PickScratch::new();
    let only = c.relays()[0].id;
    for class in CLASSES {
        let mut rng = SimRng::new(77);
        let state_before = rng.clone();
        let picked = assert_pick_equiv(&c, class, &[], &mut rng, &mut scratch);
        if picked.is_some() {
            assert_eq!(picked, Some(only));
        } else {
            // Ineligible class: no draw may have been consumed.
            assert_eq!(rng, state_before);
        }
        // Excluding the only relay: None, no draw, both sides.
        let mut rng2 = SimRng::new(78);
        let state2 = rng2.clone();
        assert_eq!(
            assert_pick_equiv(&c, class, &[only], &mut rng2, &mut scratch),
            None
        );
        assert_eq!(rng2, state2);
    }
}

#[test]
fn zero_bandwidth_classes_return_none_without_drawing() {
    let mut c = gen_consensus(13, 30);
    for i in 0..c.len() {
        c.relay_mut(RelayId(i as u32)).bandwidth_bps = 0.0;
    }
    let mut scratch = PickScratch::new();
    for class in CLASSES {
        let mut rng = SimRng::new(14);
        let before = rng.clone();
        assert_eq!(
            assert_pick_equiv(&c, class, &[], &mut rng, &mut scratch),
            None
        );
        assert_eq!(rng, before, "zero-total pick consumed a draw");
    }
}

#[test]
fn degenerate_bandwidths_stay_equivalent() {
    // NaN, negative, and infinite bandwidths clear `exact_ok`; the
    // indexed pick must take its exact path and still match bit-for-bit.
    for (slot, bad) in [(0u32, f64::NAN), (3, -5.0e6), (5, f64::INFINITY)] {
        let mut c = gen_consensus(17, 50);
        c.relay_mut(RelayId(slot)).bandwidth_bps = bad;
        assert!(!c.index().exact_ok);
        let mut scratch = PickScratch::new();
        for class in CLASSES {
            let mut exclude: Vec<RelayId> = Vec::new();
            let mut rng = SimRng::new(18);
            for _ in 0..10 {
                match assert_pick_equiv(&c, class, &exclude, &mut rng, &mut scratch) {
                    Some(id) => exclude.push(id),
                    None => break,
                }
            }
        }
    }
}

#[test]
fn mutation_invalidates_index_and_picks_track_the_new_consensus() {
    let mut c = gen_consensus(21, 80);
    let mut scratch = PickScratch::new();
    let mut rng = SimRng::new(22);
    assert_pick_equiv(&c, FilterClass::Exit, &[], &mut rng, &mut scratch);
    // Flip every relay's exit flag; picks must agree on the *new* state.
    for i in 0..c.len() {
        let r = c.relay_mut(RelayId(i as u32));
        r.flags.exit = !r.flags.exit;
    }
    for _ in 0..30 {
        assert_pick_equiv(&c, FilterClass::Exit, &[], &mut rng, &mut scratch);
    }
}

/// Feeds `u` values sitting exactly on (and one ULP and one ε around)
/// each eligible member's exclude-adjusted cumulative-share boundary —
/// the worst case for the margin check, forcing the proven-exact
/// fallback to decide.
fn assert_boundary_draws_equiv(c: &Consensus, class: FilterClass, exclude: &[RelayId]) {
    let ci = c.index().class(class);
    let total = reference::filtered_total(c.relays(), |r| class.matches(r), exclude);
    let mut cum = 0.0;
    for i in (0..ci.len()).filter(|&i| !exclude.contains(&ci.ids[i])) {
        cum += ci.bandwidth[i];
        let share = cum / total;
        for u in [
            share,
            next_down(share),
            next_up(share),
            (share - f64::EPSILON).max(0.0),
            share + f64::EPSILON,
        ] {
            if (0.0..1.0).contains(&u) {
                assert_with_u_equiv(c, class, exclude, u);
            }
        }
    }
}

#[test]
fn decision_boundary_draws_match() {
    let c = gen_consensus(25, 64);
    for class in CLASSES {
        assert_boundary_draws_equiv(&c, class, &[]);
    }
}

#[test]
fn decision_boundary_draws_match_with_a_large_guard_exclude_set() {
    // The largest exclude set guard sampling builds: 19 guard-class
    // members, in adjacent pairs and including the class's first and
    // last members, so the search crosses every run shape and the
    // lower-boundary walk steps over excluded neighbours. Whether the
    // two computations round apart at a boundary depends on the
    // bandwidths, so several consensuses are probed.
    for seed in 25..35 {
        let c = gen_consensus(seed, 400);
        let ci = c.index().class(FilterClass::Guard);
        let k = ci.len();
        assert!(k >= 40, "guard class too small: {k}");
        let positions: Vec<usize> = [0, 1]
            .into_iter()
            .chain((1..=8).flat_map(|j| [j * k / 10, j * k / 10 + 1]))
            .chain([k - 1])
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(positions.len(), 19);
        let exclude: Vec<RelayId> = positions.iter().map(|&p| ci.ids[p]).collect();
        assert_boundary_draws_equiv(&c, FilterClass::Guard, &exclude);
    }
}

#[test]
fn tail_fallback_is_reachable_and_equivalent() {
    // Craft bandwidth profiles of wildly varied magnitude, so summation
    // rounding decorrelates between the reference's total and its
    // subtraction chain, then probe draws just below 1.0 until the chain
    // stays positive through the last relay — the tail rule. Assert we
    // actually hit it, and that the indexed pick agrees on every probed
    // draw.
    let mut tail_hits = 0u64;
    for seed in 0..60u64 {
        let mut c = gen_consensus(29, 400);
        let mut vr = SimRng::new(900 + seed);
        for i in 0..c.len() {
            let r = c.relay_mut(RelayId(i as u32));
            r.bandwidth_bps = vr.range_f64(0.1, 1.0) * 10f64.powi((vr.next_u64() % 7) as i32);
            r.flags.exit = true;
        }
        let total = reference::filtered_total(c.relays(), |r| r.flags.exit, &[]);
        let mut u = 1.0f64;
        for _ in 0..8 {
            u = next_down(u);
            // Replicate the reference chain to classify this draw.
            let mut target = u * total;
            let mut hit_chain = false;
            for r in c.relays() {
                target -= r.bandwidth_bps;
                if target <= 0.0 {
                    hit_chain = true;
                    break;
                }
            }
            if !hit_chain {
                tail_hits += 1;
            }
            assert_with_u_equiv(&c, FilterClass::Exit, &[], u);
            // Also with an exclude, shifting every boundary.
            assert_with_u_equiv(&c, FilterClass::Exit, &[RelayId(0)], u);
        }
    }
    assert!(
        tail_hits > 0,
        "no crafted draw reached the reference tail fallback"
    );
}

fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

fn arb_class() -> impl Strategy<Value = FilterClass> {
    prop::sample::select(vec![
        FilterClass::Guard,
        FilterClass::Exit,
        FilterClass::All,
    ])
}

proptest! {
    /// Arbitrary consensus size/seed, arbitrary class, growing exclude
    /// set: every pick and every post-pick RNG state match.
    #[test]
    fn arbitrary_consensus_pick_sequences_match(
        cseed in 1..500u64,
        n in 1..90usize,
        class in arb_class(),
        rseed in any::<u64>(),
        picks in 1..30usize,
    ) {
        let c = gen_consensus(cseed, n);
        let mut scratch = PickScratch::new();
        let mut rng = SimRng::new(rseed);
        let mut exclude: Vec<RelayId> = Vec::new();
        for _ in 0..picks {
            match assert_pick_equiv(&c, class, &exclude, &mut rng, &mut scratch) {
                Some(id) => exclude.push(id),
                None => break,
            }
        }
    }

    /// Arbitrary hand-set bandwidths (including zeros and extreme
    /// magnitudes) and exclude sets: equivalence holds for arbitrary
    /// draws.
    #[test]
    fn arbitrary_bandwidth_profiles_match(
        cseed in 1..200u64,
        n in 1..40usize,
        bws in proptest::collection::vec(0..=6u8, 1..40),
        class in arb_class(),
        u in 0.0..1.0f64,
        excl in proptest::collection::btree_set(0..40u32, 0..=20),
    ) {
        let mut c = gen_consensus(cseed, n);
        for i in 0..c.len() {
            // Map small codes onto wildly different magnitudes to stress
            // prefix-sum rounding.
            let bw = match bws[i % bws.len()] {
                0 => 0.0,
                1 => 1e-3,
                2 => 0.1,
                3 => 1.0,
                4 => 1.5e6,
                5 => 9.9e6,
                _ => 1e12,
            };
            c.relay_mut(RelayId(i as u32)).bandwidth_bps = bw;
        }
        assert_with_u_equiv(&c, class, &[], u);
        let first = c.relays()[0].id;
        let last = c.relays()[c.len() - 1].id;
        assert_with_u_equiv(&c, class, &[first], u);
        assert_with_u_equiv(&c, class, &[first, last], u);
        let exclude: Vec<RelayId> = excl.iter().map(|&id| RelayId(id % n as u32)).collect();
        assert_with_u_equiv(&c, class, &exclude, u);
    }

    /// Whole-selector equivalence: a PathSelector in Indexed mode
    /// selects the same circuits with the same draws as one in
    /// Reference mode over a generated run of pinning shapes.
    /// Consensuses from about 100 relays up have a guard class large
    /// enough for the indexed selector to resolve only the first pick
    /// of its guard sample; smaller ones sample eagerly.
    #[test]
    fn full_selector_sequences_match(
        cseed in 1..150u64,
        n in 2..240usize,
        rseed in any::<u64>(),
        salt in 0..10_000usize,
        shapes in proptest::collection::vec(0..4usize, 7),
    ) {
        let c = gen_consensus(cseed, n);
        let p = pinnings(&c, salt);
        let configs: Vec<PathConfig> = shapes.iter().map(|&k| p[k]).collect();
        assert_selectors_equiv(&c, rseed, &configs);
    }
}
