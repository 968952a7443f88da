//! The three workloads, built from the public family API of
//! `ptperf::experiments`: set-up (scenarios, deployments, site lists,
//! unit lists), one executor pool per scenario, the families' own
//! `merge()`, every artifact rendered into a digest, and the operation
//! accounting behind `meas_per_s` and `failed_share`.

use std::any::Any;
use std::time::{Duration, Instant};

use ptperf::executor::{run_units, Parallelism, Unit};
use ptperf::experiments::{
    figure_order, file_download, fixed_circuit, fixed_guard, location, medium, overhead,
    reliability, snowflake_load, speed_index, streaming, ttest_tables, ttfb, website_curl,
    website_selenium,
};
use ptperf::obs::perf::{self, PerfSnapshot};
use ptperf::scenario::{FaultConfig, FaultProfile, Scenario};
use ptperf::sim::Location;
use ptperf::web::{Outcome, SiteList, Website};

use crate::metrics::Digest;
use crate::timed::{self, Layers};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 13 families at paper size in one pool (seed S, faults off).
    CorpusPaper,
    /// Selenium + speed index at paper size, one pool per seed S, S+1.
    BrowserPaper,
    /// File download + reliability + streaming under the paper fault
    /// profile, one fresh scenario and pool per seed S..S+299.
    BulkSeeds,
}

/// Run size: the paper's configs, or the families' quick configs with
/// two seeds per multi-seed workload (for tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `Config::paper()` everywhere; `bulk_seeds` spans 300 seeds.
    Paper,
    /// `Config::quick()` everywhere; `bulk_seeds` spans 2 seeds. Only
    /// the tests run it.
    #[cfg_attr(not(test), allow(dead_code))]
    Quick,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] = [
        Workload::CorpusPaper,
        Workload::BrowserPaper,
        Workload::BulkSeeds,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusPaper => "corpus_paper",
            Workload::BrowserPaper => "browser_paper",
            Workload::BulkSeeds => "bulk_seeds",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn seeds(self, scale: Scale) -> u64 {
        match (self, scale) {
            (Workload::CorpusPaper, _) => 1,
            (Workload::BrowserPaper, _) | (Workload::BulkSeeds, Scale::Quick) => 2,
            (Workload::BulkSeeds, Scale::Paper) => 300,
        }
    }

    fn scenario(self, seed: u64) -> Scenario {
        match self {
            Workload::BulkSeeds => {
                Scenario::baseline(seed).with_faults(FaultConfig::Plan(FaultProfile::paper()))
            }
            _ => Scenario::baseline(seed),
        }
    }

    fn families(self, scale: Scale) -> Vec<Family> {
        macro_rules! cfg {
            ($family:ident) => {
                match scale {
                    Scale::Paper => $family::Config::paper(),
                    Scale::Quick => $family::Config::quick(),
                }
            };
        }
        match self {
            // `campaign::run_quick_with`'s enlist order, plus streaming.
            Workload::CorpusPaper => vec![
                Family::WebsiteCurl(cfg!(website_curl)),
                Family::WebsiteSelenium(cfg!(website_selenium)),
                Family::FixedCircuit(cfg!(fixed_circuit)),
                Family::FixedGuard(cfg!(fixed_guard)),
                Family::FileDownload(cfg!(file_download)),
                Family::Ttfb(cfg!(ttfb)),
                Family::Location(cfg!(location)),
                Family::Reliability(cfg!(reliability)),
                Family::Medium(cfg!(medium)),
                Family::Overhead(cfg!(overhead)),
                Family::Snowflake(cfg!(snowflake_load)),
                Family::SpeedIndex(cfg!(speed_index)),
                Family::Streaming(cfg!(streaming)),
            ],
            Workload::BrowserPaper => vec![
                Family::WebsiteSelenium(cfg!(website_selenium)),
                Family::SpeedIndex(cfg!(speed_index)),
            ],
            Workload::BulkSeeds => vec![
                Family::FileDownload(cfg!(file_download)),
                Family::Reliability(cfg!(reliability)),
                Family::Streaming(cfg!(streaming)),
            ],
        }
    }
}

/// One measurement family with its config.
#[derive(Debug, Clone, Copy)]
enum Family {
    WebsiteCurl(website_curl::Config),
    WebsiteSelenium(website_selenium::Config),
    FixedCircuit(fixed_circuit::Config),
    FixedGuard(fixed_guard::Config),
    FileDownload(file_download::Config),
    Ttfb(ttfb::Config),
    Location(location::Config),
    Reliability(reliability::Config),
    Medium(medium::Config),
    Overhead(overhead::Config),
    Snowflake(snowflake_load::Config),
    SpeedIndex(speed_index::Config),
    Streaming(streaming::Config),
}

/// One shard's plan: the measurement operations it performs, and the
/// sample count it reports on `ShardReport::samples` when it runs them all.
#[derive(Debug, Clone, Copy)]
struct ShardPlan {
    ops: u64,
    samples: usize,
}

fn each(shards: usize, ops: usize, samples: usize) -> Vec<ShardPlan> {
    vec![
        ShardPlan {
            ops: ops as u64,
            samples
        };
        shards
    ]
}

fn boxed<T: Send + 'static>(units: Vec<Unit<T>>) -> Vec<Unit<Box<dyn Any + Send>>> {
    units.into_iter().map(Unit::boxed).collect()
}

impl Family {
    /// Server regions whose shared deployment the family's units read.
    /// The control families build private deployments inside their unit.
    fn regions(self, sc: &Scenario) -> Vec<Location> {
        match self {
            Family::Location(_) => Location::SERVERS.to_vec(),
            Family::FixedCircuit(_) | Family::FixedGuard(_) | Family::Overhead(_) => Vec::new(),
            _ => vec![sc.server_region],
        }
    }

    /// Builds the site lists the family's units read from the
    /// scenario's shared site cache.
    fn warm_sites(self, sc: &Scenario) {
        match self {
            Family::WebsiteCurl(website_curl::Config { sites_per_list, .. })
            | Family::WebsiteSelenium(website_selenium::Config { sites_per_list, .. })
            | Family::Ttfb(ttfb::Config { sites_per_list })
            | Family::Location(location::Config { sites_per_list, .. })
            | Family::Medium(medium::Config { sites_per_list, .. })
            | Family::SpeedIndex(speed_index::Config { sites_per_list }) => {
                sc.target_sites(sites_per_list);
            }
            Family::Snowflake(c) => {
                sc.target_sites(c.sites_per_list);
                sc.target_sites(c.monitor_sites / 2 + 1);
            }
            Family::FixedGuard(fixed_guard::Config { sites, .. })
            | Family::Overhead(overhead::Config { sites }) => {
                sc.top_sites(SiteList::Tranco, sites);
            }
            Family::FixedCircuit(_)
            | Family::FileDownload(_)
            | Family::Reliability(_)
            | Family::Streaming(_) => {}
        }
    }

    /// Whether `timed` has a replica of this family's shard loop.
    fn replicated(self) -> bool {
        matches!(
            self,
            Family::WebsiteCurl(_)
                | Family::Location(_)
                | Family::WebsiteSelenium(_)
                | Family::SpeedIndex(_)
                | Family::FileDownload(_)
                | Family::Reliability(_)
                | Family::Streaming(_)
        )
    }

    /// The family's units: its own `units()`, or under `traced` the
    /// timed replica for the seven replicated families.
    fn units(self, sc: &Scenario, traced: bool) -> Vec<Unit<Box<dyn Any + Send>>> {
        match (self, traced) {
            (Family::WebsiteCurl(c), false) => boxed(website_curl::units(sc, &c)),
            (Family::WebsiteCurl(c), true) => boxed(timed::website_curl(sc, &c)),
            (Family::WebsiteSelenium(c), false) => boxed(website_selenium::units(sc, &c)),
            (Family::WebsiteSelenium(c), true) => boxed(timed::website_selenium(sc, &c)),
            (Family::FixedCircuit(c), _) => boxed(fixed_circuit::units(sc, &c)),
            (Family::FixedGuard(c), _) => boxed(fixed_guard::units(sc, &c)),
            (Family::FileDownload(c), false) => boxed(file_download::units(sc, &c)),
            (Family::FileDownload(c), true) => boxed(timed::file_download(sc, &c)),
            (Family::Ttfb(c), _) => boxed(ttfb::units(sc, &c)),
            (Family::Location(c), false) => boxed(location::units(sc, &c)),
            (Family::Location(c), true) => boxed(timed::location(sc, &c)),
            (Family::Reliability(c), false) => boxed(reliability::units(sc, &c)),
            (Family::Reliability(c), true) => boxed(timed::reliability(sc, &c)),
            (Family::Medium(c), _) => boxed(medium::units(sc, &c)),
            (Family::Overhead(c), _) => boxed(overhead::units(sc, &c)),
            (Family::Snowflake(c), _) => boxed(snowflake_load::units(sc, &c)),
            (Family::SpeedIndex(c), false) => boxed(speed_index::units(sc, &c)),
            (Family::SpeedIndex(c), true) => boxed(timed::speed_index(sc, &c)),
            (Family::Streaming(c), false) => boxed(streaming::units(sc, &c)),
            (Family::Streaming(c), true) => boxed(timed::streaming(sc, &c)),
        }
    }

    /// The family's shards in unit order, from its config alone.
    fn plan(self) -> Vec<ShardPlan> {
        let pts = figure_order().len();
        match self {
            Family::WebsiteCurl(website_curl::Config {
                sites_per_list,
                repeats,
            })
            | Family::WebsiteSelenium(website_selenium::Config {
                sites_per_list,
                repeats,
            }) => each(pts, 2 * sites_per_list * repeats, 2 * sites_per_list),
            Family::Ttfb(ttfb::Config { sites_per_list })
            | Family::SpeedIndex(speed_index::Config { sites_per_list }) => {
                each(pts, 2 * sites_per_list, 2 * sites_per_list)
            }
            Family::FixedCircuit(c) => {
                let sites = Website::one_per_category(SiteList::Tranco).len();
                let n = c.iterations * sites * fixed_circuit::CONFIGS.len();
                each(1, n, n)
            }
            Family::FixedGuard(c) => each(1, 2 * c.sites * c.repeats, 2 * c.sites),
            Family::FileDownload(c) => {
                each(pts, c.sizes.len() * c.attempts, c.sizes.len() * c.attempts)
            }
            Family::Location(c) => {
                let cells = Location::CLIENTS.len()
                    * Location::SERVERS.len()
                    * if c.all_pts {
                        pts
                    } else {
                        location::SHOWCASE.len()
                    };
                each(
                    cells,
                    2 * c.sites_per_list * c.repeats,
                    2 * c.sites_per_list,
                )
            }
            Family::Reliability(c) => each(
                pts - 1,
                c.sizes.len() * c.attempts,
                c.sizes.len() * c.attempts,
            ),
            Family::Medium(c) => each(
                2 * pts,
                2 * c.sites_per_list * c.repeats,
                2 * c.sites_per_list,
            ),
            // One vanilla fetch plus one per evaluated PT per site; the
            // shard reports one sample per PT difference.
            Family::Overhead(c) => each(
                1,
                c.sites * (1 + overhead::EVALUATED.len()),
                c.sites * overhead::EVALUATED.len(),
            ),
            Family::Snowflake(c) => {
                let main = 2 * c.sites_per_list;
                let monitor = 2 * (c.monitor_sites / 2 + 1);
                let mut plan = each(2, main * c.repeats, main);
                plan.extend(each(1 + c.monitor_weeks, monitor * c.repeats, monitor));
                plan
            }
            Family::Streaming(c) => each(pts, 2 * c.sessions, 2 * c.sessions),
        }
    }

    /// Checks one shard's reported sample count against its plan and
    /// returns `(attempted, skipped)` operations, or `None` on a mismatch.
    fn account(self, plan: ShardPlan, samples: usize) -> Option<(u64, u64)> {
        match self {
            _ if samples == plan.samples => Some((plan.ops, 0)),
            // The browser families abandon a PT the browser cannot drive;
            // its shard then reports no samples.
            Family::WebsiteSelenium(_) | Family::SpeedIndex(_) if samples == 0 => {
                Some((0, plan.ops))
            }
            // Figure 6 keeps TTFB samples only for fetches that delivered
            // a first byte, so its count is an upper bound.
            Family::Ttfb(_) if samples < plan.samples => Some((plan.ops, 0)),
            _ => None,
        }
    }

    /// Merges the family's shards with its own `merge()` and renders
    /// every artifact built from the result into `sink`.
    fn finish(self, values: Vec<Box<dyn Any + Send>>, sink: &mut Sink) {
        fn halves(title_a: &str, title_b: &str, rows: &[ttest_tables::TTestRow]) -> [String; 2] {
            let (a, b) = rows.split_at(rows.len() / 2);
            [
                ttest_tables::render(title_a, a),
                ttest_tables::render(title_b, b),
            ]
        }
        match self {
            Family::WebsiteCurl(_) => {
                let r = sink.merge(values, website_curl::merge);
                sink.render(|| {
                    let [t3, t4] =
                        halves("Table 3", "Table 4", &ttest_tables::pairwise(&r.samples));
                    let t10 = ttest_tables::category_pairwise(&r.samples);
                    vec![r.render(), t3, t4, ttest_tables::render("Table 10", &t10)]
                });
            }
            Family::WebsiteSelenium(c) => {
                let r = sink.merge(values, website_selenium::merge);
                sink.incomplete += (r.excluded.len() * 2 * c.sites_per_list * c.repeats) as u64;
                sink.render(|| {
                    let [t5, t6] =
                        halves("Table 5", "Table 6", &ttest_tables::pairwise(&r.samples));
                    vec![r.render(), t5, t6]
                });
            }
            Family::FixedCircuit(_) => {
                let r = sink.merge(values, fixed_circuit::merge);
                sink.render(|| {
                    let [tor, obfs4, webtunnel] = fixed_circuit::CONFIGS;
                    let tests = [
                        r.ttest(webtunnel, tor),
                        r.ttest(obfs4, tor),
                        r.ttest(webtunnel, obfs4),
                    ];
                    vec![
                        r.render_boxplots(),
                        format!("{tests:?}"),
                        r.render_ecdf(),
                        format!("{}", r.diffs_below(5.0)),
                    ]
                });
            }
            Family::FixedGuard(_) => {
                let r = sink.merge(values, fixed_guard::merge);
                sink.render(|| vec![r.render(), format!("{:?}", r.ttest())]);
            }
            Family::FileDownload(_) => {
                let r = sink.merge(values, file_download::merge);
                sink.incomplete += r
                    .attempts
                    .values()
                    .flatten()
                    .filter(|a| a.outcome != Outcome::Complete)
                    .count() as u64;
                sink.render(|| {
                    let t7 = ttest_tables::pairwise(&r.paired);
                    vec![r.render(), ttest_tables::render("Table 7", &t7)]
                });
            }
            Family::Ttfb(_) => {
                let r = sink.merge(values, ttfb::merge);
                sink.render(|| vec![r.render()]);
            }
            Family::Location(_) => {
                let r = sink.merge(values, location::merge);
                sink.render(|| vec![r.render()]);
            }
            Family::Reliability(_) => {
                let r = sink.merge(values, reliability::merge);
                sink.incomplete += r
                    .counts
                    .values()
                    .map(|c| (c.partial + c.failed) as u64)
                    .sum::<u64>();
                sink.render(|| vec![r.render_stacked(), r.render_ecdf()]);
            }
            Family::Medium(_) => {
                let r = sink.merge(values, medium::merge);
                sink.render(|| vec![r.render()]);
            }
            Family::Overhead(_) => {
                let r = sink.merge(values, overhead::merge);
                sink.render(|| vec![r.render()]);
            }
            Family::Snowflake(_) => {
                let r = sink.merge(values, snowflake_load::merge);
                sink.render(|| vec![r.render_timeline(), r.render_pre_post(), r.render_weekly()]);
            }
            Family::SpeedIndex(c) => {
                let r = sink.merge(values, speed_index::merge);
                sink.incomplete += (r.excluded.len() * 2 * c.sites_per_list) as u64;
                sink.render(|| {
                    let [t8, t9] = halves(
                        "Table 8",
                        "Table 9",
                        &ttest_tables::pairwise(&r.speed_index),
                    );
                    vec![r.render(), t8, t9]
                });
            }
            Family::Streaming(_) => {
                let r = sink.merge(values, streaming::merge);
                sink.render(|| vec![r.render()]);
            }
        }
    }
}

/// Where merged results go: merge/render timers, the artifact digest,
/// modelled failures, and (in traced passes) the layers' wall times.
#[derive(Default)]
struct Sink {
    merge: Duration,
    render: Duration,
    digest: Digest,
    incomplete: u64,
    layers: Option<Layers>,
}

impl Sink {
    /// Downcasts pool values back to the family's shard type, peeling
    /// off the timed replicas' [`Layers`].
    fn shards<S: 'static>(&mut self, values: Vec<Box<dyn Any + Send>>) -> Vec<S> {
        values
            .into_iter()
            .map(|v| match v.downcast::<(S, Layers)>() {
                Ok(timed) => {
                    let (shard, lay) = *timed;
                    self.layers.get_or_insert_with(Layers::default).merge(&lay);
                    shard
                }
                Err(v) => *v
                    .downcast::<S>()
                    .expect("pool values drain in enlist order"),
            })
            .collect()
    }

    fn merge<S: 'static, R>(
        &mut self,
        values: Vec<Box<dyn Any + Send>>,
        merge: fn(Vec<S>) -> R,
    ) -> R {
        let started = Instant::now();
        let shards = self.shards(values);
        let result = merge(shards);
        self.merge += started.elapsed();
        result
    }

    fn render(&mut self, artifacts: impl FnOnce() -> Vec<String>) {
        let started = Instant::now();
        for text in artifacts() {
            self.digest.artifact(&text);
        }
        self.render += started.elapsed();
    }
}

/// Set-up wall times, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Building the scenarios and pre-warming every deployment.
    pub deployment_s: f64,
    /// Building the site lists.
    pub sites_s: f64,
    /// Building the unit lists.
    pub units_s: f64,
    /// All of set-up.
    pub total_s: f64,
}

/// One executor pool: a scenario's units and the families they came from.
struct Pool {
    units: Vec<Unit<Box<dyn Any + Send>>>,
    families: Vec<(Family, usize)>,
}

/// A workload ready to execute.
pub struct Prepared {
    pools: Vec<Pool>,
    /// What building it cost.
    pub setup: SetupTimes,
}

/// Builds a workload's scenarios, deployments, site lists and unit lists.
pub fn prepare(w: Workload, scale: Scale, seed: u64, traced: bool) -> Prepared {
    let started = Instant::now();
    let families = w.families(scale);
    let scenarios: Vec<Scenario> = (0..w.seeds(scale))
        .map(|i| w.scenario(seed.wrapping_add(i)))
        .collect();
    for sc in &scenarios {
        let mut regions: Vec<Location> = Vec::new();
        for region in families.iter().flat_map(|f| f.regions(sc)) {
            if !regions.contains(&region) {
                regions.push(region);
            }
        }
        for region in regions {
            let mut at = sc.clone();
            at.server_region = region;
            at.deployment();
        }
    }
    let deployed = started.elapsed();
    for sc in &scenarios {
        families.iter().for_each(|f| f.warm_sites(sc));
    }
    let sited = started.elapsed();
    let pools = scenarios
        .iter()
        .map(|sc| {
            let mut units = Vec::new();
            let mut enlisted = Vec::new();
            for &family in &families {
                let mut family_units = family.units(sc, traced);
                enlisted.push((family, family_units.len()));
                units.append(&mut family_units);
            }
            Pool {
                units,
                families: enlisted,
            }
        })
        .collect();
    let total = started.elapsed();
    Prepared {
        pools,
        setup: SetupTimes {
            deployment_s: deployed.as_secs_f64(),
            sites_s: (sited - deployed).as_secs_f64(),
            units_s: (total - sited).as_secs_f64(),
            total_s: total.as_secs_f64(),
        },
    }
}

/// Everything one pass over a workload measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Set-up cost of this pass.
    pub setup: SetupTimes,
    /// Planned measurement operations.
    pub planned: u64,
    /// Operations the shards' reported samples account for.
    pub attempted: u64,
    /// Operations skipped after a failure ended a shard early.
    pub skipped: u64,
    /// Modelled failures: incomplete downloads and browser-excluded PTs.
    pub incomplete: u64,
    /// Planned operations of shards that panicked.
    pub lost: u64,
    /// Planned operations of the families with a timed replica.
    pub replicated_planned: u64,
    /// Wall time from the first unit to the last rendered artifact, s.
    pub wall_s: f64,
    /// Time in the families' `merge()` calls, s.
    pub merge_s: f64,
    /// Time rendering artifacts and t-tests into the digest, s.
    pub render_s: f64,
    /// Executor pools run.
    pub pools: usize,
    /// Every shard's wall time, s.
    pub shard_walls: Vec<f64>,
    /// Σ over pools of workers used × pool wall, s.
    pub capacity_s: f64,
    /// Σ over pools of (pool wall − pool busy ÷ workers), s.
    pub straggler_s: f64,
    /// Process-wide perf counter increments during the pass.
    pub perf: PerfSnapshot,
    /// Digest of every rendered artifact; `None` when a pool failed.
    pub digest: Option<u64>,
    /// Accounting violations.
    pub errors: Vec<String>,
    /// The layers' wall times (traced passes only).
    pub layers: Option<Layers>,
}

impl Pass {
    /// Σ shard wall time, s.
    pub fn busy_s(&self) -> f64 {
        self.shard_walls.iter().sum()
    }
}

/// Runs every pool of a prepared workload at `workers`, merging and
/// rendering each pool's families as soon as the pool finishes.
pub fn execute(prepared: Prepared, workers: usize) -> Pass {
    let mut pass = Pass {
        setup: prepared.setup,
        planned: 0,
        attempted: 0,
        skipped: 0,
        incomplete: 0,
        lost: 0,
        replicated_planned: 0,
        wall_s: 0.0,
        merge_s: 0.0,
        render_s: 0.0,
        pools: prepared.pools.len(),
        shard_walls: Vec::new(),
        capacity_s: 0.0,
        straggler_s: 0.0,
        perf: PerfSnapshot::default(),
        digest: None,
        errors: Vec::new(),
        layers: None,
    };
    let mut sink = Sink::default();
    let mut pools_ok = true;
    let par = Parallelism::new(workers);
    let before = perf::snapshot();
    let started = Instant::now();
    for pool in prepared.pools {
        let plans: Vec<(Family, ShardPlan)> = pool
            .families
            .iter()
            .flat_map(|&(family, _)| family.plan().into_iter().map(move |p| (family, p)))
            .collect();
        pass.planned += plans.iter().map(|(_, p)| p.ops).sum::<u64>();
        pass.replicated_planned += plans
            .iter()
            .filter(|(f, _)| f.replicated())
            .map(|(_, p)| p.ops)
            .sum::<u64>();
        if plans.len() != pool.units.len() {
            pass.errors.push(format!(
                "pool has {} units but the plan lists {} shards",
                pool.units.len(),
                plans.len()
            ));
        }
        let executed = match run_units(&par, pool.units) {
            Ok(executed) => executed,
            Err(err) => {
                pools_ok = false;
                pass.lost += err
                    .failures
                    .iter()
                    .filter_map(|f| plans.get(f.index))
                    .map(|(_, p)| p.ops)
                    .sum::<u64>();
                pass.errors.push(err.to_string());
                continue;
            }
        };
        let wall = executed.wall.as_secs_f64();
        let busy: f64 = executed.reports.iter().map(|r| r.wall.as_secs_f64()).sum();
        pass.capacity_s += executed.workers as f64 * wall;
        pass.straggler_s += wall - busy / executed.workers as f64;
        pass.shard_walls
            .extend(executed.reports.iter().map(|r| r.wall.as_secs_f64()));
        for (report, &(family, plan)) in executed.reports.iter().zip(&plans) {
            match family.account(plan, report.samples) {
                Some((attempted, skipped)) => {
                    pass.attempted += attempted;
                    pass.skipped += skipped;
                }
                None => pass.errors.push(format!(
                    "{}: {} samples, plan expects {}",
                    report.label, report.samples, plan.samples
                )),
            }
        }
        let mut values = executed.values.into_iter();
        for (family, n) in pool.families {
            family.finish(values.by_ref().take(n).collect(), &mut sink);
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.perf = perf::snapshot().delta_since(&before);
    pass.merge_s = sink.merge.as_secs_f64();
    pass.render_s = sink.render.as_secs_f64();
    pass.incomplete = sink.incomplete;
    pass.digest = pools_ok.then(|| sink.digest.value());
    pass.layers = sink.layers;
    pass
}

/// Prepares and executes one pass.
pub fn run_pass(w: Workload, scale: Scale, seed: u64, workers: usize, traced: bool) -> Pass {
    execute(prepare(w, scale, seed, traced), workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_digests_match_at_one_and_two_workers() {
        for w in Workload::ALL {
            let one = run_pass(w, Scale::Quick, 42, 1, false);
            let two = run_pass(w, Scale::Quick, 42, 2, false);
            assert!(
                one.errors.is_empty() && two.errors.is_empty(),
                "{w:?}: {:?}",
                one.errors
            );
            assert!(one.digest.is_some(), "{w:?}");
            assert_eq!(one.digest, two.digest, "{w:?}");
            assert_eq!(one.attempted + one.skipped, one.planned, "{w:?}");
        }
    }

    #[test]
    fn traced_passes_render_the_untraced_digest() {
        for w in Workload::ALL {
            let plain = run_pass(w, Scale::Quick, 7, 2, false);
            let traced = run_pass(w, Scale::Quick, 7, 2, true);
            assert!(traced.errors.is_empty(), "{w:?}: {:?}", traced.errors);
            assert_eq!(plain.digest, traced.digest, "{w:?}");
            let lay = traced.layers.expect("traced passes carry layers");
            assert_eq!(
                lay.attempted + lay.skipped,
                traced.replicated_planned,
                "{w:?}"
            );
            assert!(lay.establish.calls > 0, "{w:?}");
        }
    }

    #[test]
    fn different_seeds_render_different_digests() {
        let a = run_pass(Workload::BrowserPaper, Scale::Quick, 1, 2, false);
        let b = run_pass(Workload::BrowserPaper, Scale::Quick, 2, 2, false);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn browser_exclusions_count_as_skipped_and_incomplete() {
        let pass = run_pass(Workload::BrowserPaper, Scale::Quick, 3, 2, true);
        let lay = pass.layers.as_ref().unwrap();
        // Camoufler is refused on its first load in both browser families,
        // for each of the two seeds.
        assert_eq!(lay.browser_failed, 4);
        assert!(pass.skipped > 0);
        assert_eq!(pass.incomplete, pass.skipped);
    }

    #[test]
    fn a_panicking_shard_is_reported_as_lost_operations() {
        let mut prepared = prepare(Workload::BulkSeeds, Scale::Quick, 5, false);
        let pool = &mut prepared.pools[0];
        pool.units[0] = Unit::new("boom", || -> (Box<dyn Any + Send>, usize) {
            panic!("injected shard failure")
        });
        let first_shard_ops = pool.families[0].0.plan()[0].ops;
        let pass = execute(prepared, 2);
        assert_eq!(pass.lost, first_shard_ops);
        assert_eq!(pass.digest, None);
        assert!(pass
            .errors
            .iter()
            .any(|e| e.contains("injected shard failure")));
    }
}
