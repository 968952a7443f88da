//! Measurement scenarios: the shared configuration an experiment runs
//! under — deployment seed, client/server locations, access medium, and
//! the snowflake load epoch.
//!
//! A scenario also memoizes its deployment and site workloads, and
//! there is no switch to turn that off. All clones of a scenario share
//! one deployment per key; a lane that must rebuild the deployment per
//! unit builds each unit on its own fresh [`Scenario::baseline`], as the
//! determinism suite does. The site memo is shared by every live
//! scenario, whatever its seed, because a site list does not depend on
//! the seed; it is freed with the last scenario that holds it, so a
//! process that builds scenarios one after another builds each list
//! afresh.

use std::sync::{Arc, Mutex, Weak};

use ptperf_sim::fault::FaultBias;
use ptperf_sim::{Location, Medium, SimRng};
use ptperf_transports::{AccessOptions, Deployment};
use ptperf_web::{FaultSession, SiteList, Website};

pub use ptperf_sim::fault::{FaultConfig, FaultProfile};

/// Memoized builds: the deployment memo is shared by every clone of a
/// [`Scenario`], and the site memo is shared by every live scenario.
///
/// Deployments and site workloads are pure functions of their keys —
/// `(seed, server_region)` and `(list, n)` — so all thirteen families
/// (and every executor shard that clones the scenario) can share one
/// immutable build per key instead of rebuilding per unit. Set-up is
/// milliseconds per scenario: ptbench's traced `corpus_paper` split on a
/// 2-vCPU host puts a paper-scale scenario's deployments at about
/// 0.2 ms and its site lists (2,000 distinct sites) at about 3.4 ms.
/// The handful of keys per campaign makes a small linear-scan vec
/// cheaper and simpler than a hash map.
#[derive(Debug)]
struct Memo<K, V: ?Sized> {
    entries: Mutex<Vec<(K, Arc<V>)>>,
}

impl<K: PartialEq, V: ?Sized> Memo<K, V> {
    fn new() -> Arc<Memo<K, V>> {
        Arc::new(Memo {
            entries: Mutex::new(Vec::new()),
        })
    }

    /// The build for `key`: the memoized one (ticking `saved`), else
    /// `build(entries)`, which may reuse what the other keys hold, stored
    /// for later calls.
    fn get(&self, key: K, saved: fn(), build: impl FnOnce(&[(K, Arc<V>)]) -> Arc<V>) -> Arc<V> {
        let mut entries = self.entries.lock().expect("memo lock");
        if let Some((_, value)) = entries.iter().find(|(k, _)| *k == key) {
            saved();
            return Arc::clone(value);
        }
        let value = build(&entries);
        entries.push((key, Arc::clone(&value)));
        value
    }
}

/// Key for a memoized site workload: `None` is the paper's standard
/// mixed Tranco + CBL list, `Some(list)` a single-list top-`n` slice.
type SiteKey = (Option<SiteList>, usize);

/// The site memo: one list per [`SiteKey`].
type SiteMemo = Memo<SiteKey, [Website]>;

/// The site memo of the scenarios alive now. The slot holds it weakly,
/// so the memo and every list only it holds are freed with the last
/// scenario that shares it.
static LIVE_SITES: Mutex<Weak<SiteMemo>> = Mutex::new(Weak::new());

/// The live site memo, or a new one when no scenario holds one.
fn live_site_memo() -> Arc<SiteMemo> {
    let mut live = LIVE_SITES.lock().expect("site memo slot");
    live.upgrade().unwrap_or_else(|| {
        let memo = Memo::new();
        *live = Arc::downgrade(&memo);
        memo
    })
}

/// The longest run of `list`'s top sites, at most `n`, that a memoized
/// site workload already holds.
fn held_prefix(built: &[(SiteKey, Arc<[Website]>)], list: SiteList, n: usize) -> &[Website] {
    let held = built.iter().filter_map(|(key, sites)| match *key {
        (None, m) if list == SiteList::Tranco => Some(&sites[..m]),
        (None, m) => Some(&sites[m..]),
        (Some(l), _) => (l == list).then_some(&sites[..]),
    });
    let longest = held.max_by_key(|sites| sites.len()).unwrap_or_default();
    &longest[..longest.len().min(n)]
}

/// The snowflake load epoch (§5.3): before the September-2022 Iran
/// protests, the surge, and the elevated plateau the paper kept observing
/// through March 2023.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Epoch {
    /// Pre-September 2022: normal load.
    PreSurge,
    /// Peak surge (October–November 2022).
    Surge,
    /// The post-surge plateau (users never went back down).
    Plateau,
    /// An explicit load multiplier, for sweeps.
    LoadMult(f64),
}

impl Epoch {
    /// The infrastructure load multiplier for this epoch.
    pub fn load_mult(self) -> f64 {
        match self {
            Epoch::PreSurge => 1.0,
            Epoch::Surge => 3.2,
            Epoch::Plateau => 2.2,
            Epoch::LoadMult(m) => m.max(0.1),
        }
    }
}

/// A measurement scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Master seed: drives consensus generation and every measurement.
    pub seed: u64,
    /// Client vantage point.
    pub client: Location,
    /// Where self-hosted PT servers run.
    pub server_region: Location,
    /// Client access medium.
    pub medium: Medium,
    /// Snowflake load epoch.
    pub epoch: Epoch,
    /// The fault-injection lane. `Off` (the default) is proven
    /// bit-for-bit neutral in `tests/fault_neutrality.rs`; a `Plan`
    /// routes every family's transfers through the retry/timeout
    /// driver with plan-generated fault schedules.
    pub faults: FaultConfig,
    dep_cache: Arc<Memo<(u64, Location), Deployment>>,
    site_cache: Arc<SiteMemo>,
}

impl Scenario {
    /// The campaign's primary configuration: London client, Frankfurt
    /// servers, wired, pre-surge. It shares the site memo of the
    /// scenarios alive now and starts its own deployment memo.
    pub fn baseline(seed: u64) -> Scenario {
        Scenario {
            seed,
            client: Location::London,
            server_region: Location::Frankfurt,
            medium: Medium::Wired,
            epoch: Epoch::PreSurge,
            faults: FaultConfig::Off,
            dep_cache: Memo::new(),
            site_cache: live_site_memo(),
        }
    }

    /// This scenario with the fault lane set to `faults`.
    pub fn with_faults(mut self, faults: FaultConfig) -> Scenario {
        self.faults = faults;
        self
    }

    /// The fault session for one measurement unit tagged `tag` (e.g.
    /// `"fig8/meek"`), with the transport's event-mix `bias`.
    ///
    /// With the lane `Off` this returns the neutral session without
    /// touching any RNG stream — the `Off` scenario draws exactly the
    /// sequences the pre-fault-layer code drew. With a `Plan`, the
    /// profile is scaled to the scenario's epoch
    /// ([`FaultProfile::for_load`]) and the session gets its own
    /// decorrelated stream (`"{tag}/faults"`), so fault draws never
    /// perturb measurement draws and identical seeds replay identical
    /// schedules at any worker count.
    pub fn fault_session(&self, tag: &str, bias: FaultBias) -> FaultSession {
        match &self.faults {
            FaultConfig::Off => FaultSession::off(),
            FaultConfig::Plan(profile) => FaultSession::active(
                profile.for_load(self.epoch.load_mult()),
                bias,
                self.rng(&format!("{tag}/faults")),
            ),
        }
    }

    /// The deployment for this scenario, built once per
    /// `(seed, server_region)` and shared by reference afterwards —
    /// across all families' units and across executor shards holding
    /// clones of this scenario. Deployment construction is seed-pure, so
    /// sharing is observationally identical to rebuilding (the
    /// determinism suite proves this bit-for-bit).
    pub fn deployment(&self) -> Arc<Deployment> {
        self.dep_cache.get(
            (self.seed, self.server_region),
            ptperf_obs::perf::incr_deployment_rebuilds_saved,
            |_| Arc::new(self.deployment_owned()),
        )
    }

    /// A private, mutable deployment build for experiments that modify
    /// the infrastructure (private-bridge hosting, overhead probes).
    /// Never cached: mutations must not leak into other families.
    pub fn deployment_owned(&self) -> Deployment {
        Deployment::standard(self.seed, self.server_region)
    }

    /// The paper's standard mixed workload — `n` sites from each of
    /// Tranco and CBL, as [`crate::measure::target_sites`] lists them —
    /// built once per `n` and shared by reference across all families,
    /// executor shards and every other live scenario.
    pub fn target_sites(&self, n_per_list: usize) -> Arc<[Website]> {
        self.sites_for((None, n_per_list))
    }

    /// The top `n` sites of a single list, memoized like
    /// [`Scenario::target_sites`].
    pub fn top_sites(&self, list: SiteList, n: usize) -> Arc<[Website]> {
        self.sites_for((Some(list), n))
    }

    /// A new key's sites copy the longest prefix of each list that an
    /// earlier key holds and generate only the ranks past it. Site
    /// generation is `(list, rank)`-pure, so this equals a fresh build,
    /// and each key still keeps its own list.
    fn sites_for(&self, key: SiteKey) -> Arc<[Website]> {
        self.site_cache
            .get(key, ptperf_obs::perf::incr_site_rebuilds_saved, |built| {
                let (lists, n): (&[SiteList], usize) = match &key {
                    (None, n) => (&[SiteList::Tranco, SiteList::Cbl], *n),
                    (Some(list), n) => (std::slice::from_ref(list), *n),
                };
                let mut sites = Vec::with_capacity(lists.len() * n);
                for &list in lists {
                    let held = held_prefix(built, list, n);
                    sites.extend_from_slice(held);
                    sites.extend((held.len()..n).map(|rank| Website::generate(list, rank)));
                }
                sites.into()
            })
    }

    /// Per-measurement access options.
    pub fn access_options(&self) -> AccessOptions {
        let mut opts = AccessOptions::new(self.client);
        opts.medium = self.medium;
        opts.load_mult = self.epoch.load_mult();
        opts
    }

    /// A deterministic RNG for an experiment named `tag` under this
    /// scenario: different experiments draw decorrelated streams, but the
    /// same (seed, tag) is always identical.
    pub fn rng(&self, tag: &str) -> SimRng {
        let mut h = self.seed ^ 0x5851_F42D_4C95_7F2D;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        SimRng::new(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_order_by_load() {
        assert!(Epoch::PreSurge.load_mult() < Epoch::Plateau.load_mult());
        assert!(Epoch::Plateau.load_mult() < Epoch::Surge.load_mult());
        assert_eq!(Epoch::LoadMult(5.0).load_mult(), 5.0);
    }

    #[test]
    fn scenario_rng_is_stable_and_tag_sensitive() {
        let s = Scenario::baseline(1);
        let mut a = s.rng("fig2a");
        let mut b = s.rng("fig2a");
        let mut c = s.rng("fig2b");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut a2 = s.rng("fig2a");
        assert_ne!(a2.next_u64(), c.next_u64());
    }

    #[test]
    fn access_options_reflect_scenario() {
        let mut s = Scenario::baseline(2);
        s.epoch = Epoch::Surge;
        s.medium = Medium::Wireless;
        let opts = s.access_options();
        assert_eq!(opts.medium, Medium::Wireless);
        assert!((opts.load_mult - 3.2).abs() < 1e-12);
    }

    #[test]
    fn deployment_is_reproducible() {
        let s = Scenario::baseline(3);
        let a = s.deployment();
        let b = s.deployment();
        assert_eq!(a.consensus.len(), b.consensus.len());
    }

    #[test]
    fn deployment_is_shared_across_calls_and_clones() {
        let s = Scenario::baseline(11);
        let a = s.deployment();
        let b = s.deployment();
        assert!(Arc::ptr_eq(&a, &b), "repeat call rebuilt the deployment");
        let c = s.clone().deployment();
        assert!(Arc::ptr_eq(&a, &c), "scenario clone rebuilt the deployment");
        // A different key gets its own entry without evicting the first.
        let mut far = s.clone();
        far.server_region = Location::Singapore;
        let d = far.deployment();
        assert!(!Arc::ptr_eq(&a, &d));
        assert!(Arc::ptr_eq(&a, &s.deployment()));
    }

    #[test]
    fn cached_deployment_matches_fresh_and_owned_builds() {
        let s = Scenario::baseline(12);
        let cached = s.deployment();
        assert_eq!(*cached, s.deployment_owned());
        assert_eq!(*cached, Deployment::standard(12, s.server_region));
    }

    #[test]
    fn site_workloads_are_shared_across_calls_and_clones() {
        let s = Scenario::baseline(21);
        let a = s.target_sites(7);
        assert_eq!(a.len(), 14, "7 Tranco + 7 CBL");
        let b = s.target_sites(7);
        assert!(Arc::ptr_eq(&a, &b), "repeat call regenerated the sites");
        let c = s.clone().target_sites(7);
        assert!(Arc::ptr_eq(&a, &c), "scenario clone regenerated the sites");
        // Different keys coexist.
        let top = s.top_sites(SiteList::Tranco, 7);
        assert_eq!(top.len(), 7);
        assert!(Arc::ptr_eq(&top, &s.top_sites(SiteList::Tranco, 7)));
        assert!(Arc::ptr_eq(&a, &s.target_sites(7)));
    }

    #[test]
    fn live_scenarios_of_different_seeds_share_site_lists() {
        let a = Scenario::baseline(61);
        let b = Scenario::baseline(62);
        let pairs = [
            (a.target_sites(9), b.target_sites(9)),
            (a.top_sites(SiteList::Cbl, 9), b.top_sites(SiteList::Cbl, 9)),
            (a.clone().target_sites(9), b.target_sites(9)),
            (
                b.clone().top_sites(SiteList::Cbl, 9),
                a.top_sites(SiteList::Cbl, 9),
            ),
        ];
        for (i, (x, y)) in pairs.iter().enumerate() {
            assert!(Arc::ptr_eq(x, y), "pair {i} was built twice");
        }
    }

    #[test]
    fn scenarios_built_on_four_threads_at_once_share_one_list() {
        use std::sync::Barrier;
        // Every thread holds its scenario before any asks for the key,
        // so all four share one memo and race on one build.
        let all_built = Arc::new(Barrier::new(4));
        let lists: Vec<Arc<[Website]>> = (0..4u64)
            .map(|seed| {
                let all_built = Arc::clone(&all_built);
                std::thread::spawn(move || {
                    let scenario = Scenario::baseline(80 + seed);
                    all_built.wait();
                    scenario.target_sites(17)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|thread| thread.join().unwrap())
            .collect();
        let fresh = crate::measure::target_sites(17);
        for list in &lists {
            assert!(Arc::ptr_eq(list, &lists[0]), "a thread built its own list");
            assert_eq!(&list[..], &fresh[..]);
        }
    }

    #[test]
    fn site_prefix_reuse_matches_fresh_builds_in_every_request_order() {
        // A missing site key is built from the longest prefix of each
        // list that an earlier key holds. Whatever order a corpus
        // scenario's four keys arrive in, each list must equal a fresh
        // build. A private site memo per order keeps the live scenarios
        // of concurrently running tests from pre-filling it.
        let keys = [
            (None, 1000),
            (Some(SiteList::Tranco), 1000),
            (None, 500),
            (None, 51),
        ];
        let fresh: Vec<Vec<Website>> = keys
            .iter()
            .map(|&(list, n)| match list {
                None => crate::measure::target_sites(n),
                Some(list) => Website::top(list, n),
            })
            .collect();
        let mut orders = 0;
        // Every order of the four keys: the four-digit base-4 codes
        // whose digits are distinct.
        for order in
            (0..4usize.pow(4)).map(|code| [code % 4, code / 4 % 4, code / 16 % 4, code / 64])
        {
            if (1..4).any(|i| order[..i].contains(&order[i])) {
                continue;
            }
            orders += 1;
            let mut scenario = Scenario::baseline(41);
            scenario.site_cache = SiteMemo::new();
            for k in order {
                let got = match keys[k] {
                    (None, n) => scenario.target_sites(n),
                    (Some(list), n) => scenario.top_sites(list, n),
                };
                assert!(
                    got.iter().eq(&fresh[k]),
                    "key {:?} requested in order {order:?} differs from a fresh build",
                    keys[k]
                );
            }
        }
        assert_eq!(orders, 24);
    }

    #[test]
    fn cached_sites_match_fresh_builds() {
        let s = Scenario::baseline(22);
        let cached = s.target_sites(4);
        assert_eq!(&cached[..], &crate::measure::target_sites(4)[..]);
        let top = s.top_sites(SiteList::Cbl, 5);
        assert_eq!(&top[..], &Website::top(SiteList::Cbl, 5)[..]);
    }

    #[test]
    fn owned_deployment_mutations_do_not_leak_into_the_cache() {
        let s = Scenario::baseline(14);
        let before = s.deployment().consensus.len();
        let mut owned = s.deployment_owned();
        owned.host_private_bridge(ptperf_transports::PtId::Obfs4, Location::London, 3.0e6);
        assert_eq!(s.deployment().consensus.len(), before);
    }
}
