//! Precomputed consensus index for sublinear bandwidth-weighted picks.
//!
//! Path selection filters relays into three fixed classes — guard-eligible
//! (`Guard && Fast`), exit-eligible (`Exit`), and unrestricted — and then
//! samples proportionally to bandwidth. The reference pick (the test
//! oracle in `tests/oracle/`) re-scans the whole consensus per pick;
//! this index precomputes, once per consensus, the dense member list of
//! each class **in consensus order** together with a floating-point
//! prefix sum of member bandwidths, so a pick resolves by binary search
//! over the prefix array instead.
//!
//! Two layout invariants matter for the draw-compatibility argument in
//! `path::indexed`:
//!
//! * class members appear in consensus order with bandwidths copied
//!   verbatim, so an in-order scan of a class array performs *the same
//!   floating-point operations in the same order* as the reference's
//!   filtered scan of the full consensus;
//! * `prefix[i]` is the naive left-to-right sum `fl(prefix[i-1] + bw[i])`,
//!   so `prefix[k-1]` is bit-identical to the reference's
//!   `Iterator::sum::<f64>()` over the class.
//!
//! [`ConsensusIndex::exact_ok`] records whether every bandwidth is finite
//! and non-negative; when it is not (never for generated consensuses, but
//! reachable through `relay_mut`), prefix sums are not monotone and the
//! pick layer must use its exact scan path unconditionally.

use crate::relay::{Relay, RelayId};

/// Marker for a class position that a relay does not occupy.
const ABSENT: u32 = u32::MAX;

/// The three relay filters path selection uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterClass {
    /// First-hop eligible: `Guard && Fast` (the guard-sample filter).
    Guard,
    /// Third-hop eligible: `Exit`.
    Exit,
    /// Unrestricted (middle hops).
    All,
}

impl FilterClass {
    /// The predicate this class represents: the filter the full-scan
    /// oracle applies for the same role.
    pub fn matches(self, relay: &Relay) -> bool {
        match self {
            FilterClass::Guard => relay.flags.guard && relay.flags.fast,
            FilterClass::Exit => relay.flags.exit,
            FilterClass::All => true,
        }
    }
}

/// Dense per-class arrays: members in consensus order, their bandwidths,
/// the running prefix sum, and the id→position inverse map.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassIndex {
    /// Class members, in consensus order.
    pub ids: Vec<RelayId>,
    /// `bandwidth_bps` of each member, copied verbatim.
    pub bandwidth: Vec<f64>,
    /// `prefix[i] = fl(prefix[i-1] + bandwidth[i])`; `prefix[k-1]` equals
    /// the reference's full filtered sum bit-for-bit.
    pub prefix: Vec<f64>,
    /// How many members have `bandwidth > 0` (a NaN counts as not
    /// positive): a guard sample resolves only its first pick when this
    /// is at least `path::SAMPLED_GUARDS` and the index is exact (see
    /// `PathSelector::select`).
    pub positive: usize,
    /// Position of relay id `r` within this class, or `u32::MAX` when the
    /// relay is not a member. Indexed by `RelayId::0` (relay ids equal
    /// their consensus index).
    pos: Vec<u32>,
}

impl ClassIndex {
    fn build(relays: &[Relay], class: FilterClass) -> Self {
        let mut ids = Vec::new();
        let mut bandwidth = Vec::new();
        let mut prefix = Vec::new();
        let mut positive = 0;
        let mut pos = vec![ABSENT; relays.len()];
        let mut running = 0.0f64;
        for r in relays {
            if !class.matches(r) {
                continue;
            }
            pos[r.id.0 as usize] = ids.len() as u32;
            ids.push(r.id);
            bandwidth.push(r.bandwidth_bps);
            running += r.bandwidth_bps;
            prefix.push(running);
            positive += usize::from(r.bandwidth_bps > 0.0);
        }
        ClassIndex {
            ids,
            bandwidth,
            prefix,
            positive,
            pos,
        }
    }

    /// Number of class members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the class has no members.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// This class's position for relay `id`, or `None` when the relay is
    /// not a member (or the id is out of range).
    pub fn position(&self, id: RelayId) -> Option<u32> {
        match self.pos.get(id.0 as usize) {
            Some(&p) if p != ABSENT => Some(p),
            _ => None,
        }
    }
}

/// The full per-consensus index: one [`ClassIndex`] per filter class plus
/// the fast-path eligibility flag.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusIndex {
    guard: ClassIndex,
    exit: ClassIndex,
    all: ClassIndex,
    /// True when every bandwidth is finite and non-negative, which makes
    /// the prefix arrays monotone and the binary-search fast path sound.
    pub exact_ok: bool,
}

impl ConsensusIndex {
    /// Builds the index from a relay list. Relay ids must equal their
    /// index in `relays` (the `Consensus` construction invariant).
    pub fn build(relays: &[Relay]) -> Self {
        debug_assert!(relays.iter().enumerate().all(|(i, r)| r.id.0 as usize == i));
        ConsensusIndex {
            guard: ClassIndex::build(relays, FilterClass::Guard),
            exit: ClassIndex::build(relays, FilterClass::Exit),
            all: ClassIndex::build(relays, FilterClass::All),
            exact_ok: relays
                .iter()
                .all(|r| r.bandwidth_bps.is_finite() && r.bandwidth_bps >= 0.0),
        }
    }

    /// The per-class arrays for `class`.
    pub fn class(&self, class: FilterClass) -> &ClassIndex {
        match class {
            FilterClass::Guard => &self.guard,
            FilterClass::Exit => &self.exit,
            FilterClass::All => &self.all,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::Consensus;
    use ptperf_sim::SimRng;

    #[test]
    fn classes_partition_and_prefix_matches_reference_sum() {
        let mut rng = SimRng::new(11);
        let c = Consensus::generate(&mut rng);
        let idx = ConsensusIndex::build(c.relays());
        assert!(idx.exact_ok);
        for class in [FilterClass::Guard, FilterClass::Exit, FilterClass::All] {
            let ci = idx.class(class);
            let members: Vec<_> = c.relays().iter().filter(|r| class.matches(r)).collect();
            assert_eq!(ci.len(), members.len());
            // Members in consensus order, bandwidths verbatim, inverse map
            // consistent.
            for (i, m) in members.iter().enumerate() {
                assert_eq!(ci.ids[i], m.id);
                assert_eq!(ci.bandwidth[i].to_bits(), m.bandwidth_bps.to_bits());
                assert_eq!(ci.position(m.id), Some(i as u32));
            }
            // prefix tail is bit-identical to the reference's filtered sum.
            let reference_sum: f64 = members.iter().map(|r| r.bandwidth_bps).sum();
            assert_eq!(ci.prefix[ci.len() - 1].to_bits(), reference_sum.to_bits());
            let positive = members.iter().filter(|r| r.bandwidth_bps > 0.0).count();
            assert_eq!(ci.positive, positive);
            // Non-members have no position.
            for r in c.relays() {
                if !class.matches(r) {
                    assert_eq!(ci.position(r.id), None);
                }
            }
        }
        assert_eq!(idx.class(FilterClass::All).len(), c.len());
        assert_eq!(idx.class(FilterClass::All).position(RelayId(9999)), None);
    }

    #[test]
    fn degenerate_bandwidths_clear_exact_ok() {
        let mut rng = SimRng::new(12);
        let mut c = Consensus::generate(&mut rng);
        c.relay_mut(RelayId(3)).bandwidth_bps = f64::NAN;
        let idx = ConsensusIndex::build(c.relays());
        assert!(!idx.exact_ok);
        // A NaN bandwidth is not positive.
        assert_eq!(idx.class(FilterClass::All).positive, c.len() - 1);
        let mut c2 = Consensus::generate(&mut SimRng::new(12));
        c2.relay_mut(RelayId(3)).bandwidth_bps = -1.0;
        assert!(!ConsensusIndex::build(c2.relays()).exact_ok);
    }
}
