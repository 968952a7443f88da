//! Server- and relay-load modeling.
//!
//! PTPerf's central explanatory finding (§4.2.1) is that the *first hop*
//! governs Tor download performance, and that PT bridges — used only by
//! the minority of clients whose direct Tor access is blocked — carry far
//! less traffic than volunteer guard relays. We model this with an
//! explicit load mechanism rather than baked-in timing constants:
//!
//! * every node has a raw capacity and a background **utilization** in
//!   `[0, 1)`; the capacity available to foreground measurement flows is
//!   `raw · (1 − utilization)`;
//! * volunteer guards draw utilization from a heavy-tailed distribution
//!   (most relays moderately busy, some crushed);
//! * Tor-project PT bridges draw from a low-utilization distribution.
//!
//! The September-2022 Iran surge on snowflake (§5.3) is replayed above
//! this crate: each snowflake load epoch is a multiplier on the
//! infrastructure's utilization (`AccessOptions::load_mult` in
//! `ptperf-transports`), clamped before [`effective_capacity`] reads it.

use crate::rng::{BoundedPareto, SimRng};

/// How a node's background utilization is sampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadProfile {
    /// Volunteer-operated Tor relay: heavy-tailed utilization.
    VolunteerRelay,
    /// A Tor-project-operated or self-hosted PT bridge: lightly used.
    ManagedBridge,
    /// A dedicated experiment host (our own servers): essentially idle.
    Dedicated,
    /// Fixed utilization, for tests and ablations.
    Fixed(f64),
}

impl LoadProfile {
    /// This profile's utilization distribution. Building it takes the
    /// volunteer tail's Pareto powers, so a loop that draws many
    /// utilizations from one profile builds one sampler before the loop.
    pub fn sampler(self) -> UtilizationSampler {
        match self {
            // Volunteer relays: 0.2 plus a bounded Pareto on [0.05, 0.6]
            // with tail index 1.3, so utilization lies in [0.25, 0.8].
            // Half of all relays sit below 0.29 and one in ten above 0.43.
            LoadProfile::VolunteerRelay => {
                UtilizationSampler::Volunteer(BoundedPareto::new(0.05, 0.6, 1.3))
            }
            // Managed bridges: light, narrow band.
            LoadProfile::ManagedBridge => UtilizationSampler::Uniform(0.05, 0.25),
            LoadProfile::Dedicated => UtilizationSampler::Uniform(0.0, 0.05),
            LoadProfile::Fixed(u) => UtilizationSampler::Fixed(u.clamp(0.0, 0.97)),
        }
    }
}

/// A [`LoadProfile`]'s background-utilization distribution, ready to
/// draw from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UtilizationSampler {
    /// 0.2 plus a draw from this heavy tail.
    Volunteer(BoundedPareto),
    /// Uniform on `[lo, hi)`.
    Uniform(f64, f64),
    /// Always this utilization; draws nothing.
    Fixed(f64),
}

impl UtilizationSampler {
    /// Draws a background utilization in `[0, 1)`.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            // The 0.9 clamp never binds (the tail tops out at 0.6); it
            // would keep capacity from collapsing if the bounds grew.
            UtilizationSampler::Volunteer(tail) => (0.2 + tail.sample(rng)).clamp(0.0, 0.9),
            UtilizationSampler::Uniform(lo, hi) => rng.range_f64(lo, hi),
            UtilizationSampler::Fixed(u) => u,
        }
    }
}

/// Effective capacity available to foreground flows at a node.
pub fn effective_capacity(raw_bps: f64, utilization: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&utilization.min(0.999)));
    (raw_bps * (1.0 - utilization.clamp(0.0, 0.99))).max(raw_bps * 0.01)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volunteer_relays_are_busier_than_bridges() {
        let mut rng = SimRng::new(5);
        let n = 5_000;
        let mut mean = |profile: LoadProfile| {
            let sampler = profile.sampler();
            (0..n).map(|_| sampler.sample(&mut rng)).sum::<f64>() / n as f64
        };
        let vol = mean(LoadProfile::VolunteerRelay);
        let bridge = mean(LoadProfile::ManagedBridge);
        assert!(vol > bridge + 0.1, "volunteer {vol} vs bridge {bridge}");
    }

    #[test]
    fn utilization_stays_in_range() {
        let mut rng = SimRng::new(6);
        for profile in [
            LoadProfile::VolunteerRelay,
            LoadProfile::ManagedBridge,
            LoadProfile::Dedicated,
            LoadProfile::Fixed(1.5),
        ] {
            let sampler = profile.sampler();
            for _ in 0..2_000 {
                let u = sampler.sample(&mut rng);
                assert!((0.0..=0.97).contains(&u), "{profile:?} gave {u}");
            }
        }
    }

    #[test]
    fn volunteer_load_has_a_heavy_tail() {
        let mut rng = SimRng::new(7);
        let volunteer = LoadProfile::VolunteerRelay.sampler();
        let crushed = (0..10_000)
            .filter(|_| volunteer.sample(&mut rng) > 0.65)
            .count();
        assert!(crushed > 100, "tail too light: {crushed}");
        assert!(crushed < 4_000, "tail too heavy: {crushed}");
    }

    #[test]
    fn effective_capacity_scales_and_floors() {
        assert_eq!(effective_capacity(100.0, 0.5), 50.0);
        // Floor at 1% of raw so flows always make some progress.
        assert!(effective_capacity(100.0, 0.999) >= 1.0);
    }
}
