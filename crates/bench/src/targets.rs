//! The repro targets: one entry per table/figure, each producing the
//! text rendering of that artifact.
//!
//! Most targets are views of an experiment family's result: Tables 3, 4
//! and 10 and Fig. 2a all come from one curl run, for instance. The
//! family table below names each family's targets, and
//! [`run_targets`] runs every family the named targets need exactly
//! once, all of them in one executor pool, then renders every named
//! target (and, on request, the CSV export) from its family's result.

use std::any::Any;
use std::fmt;
use std::ops::Range;

use ptperf::executor::{self, ExecError, Parallelism, ShardReport, Unit};
use ptperf::experiments::ttest_tables::{self, TTestRow};
use ptperf::experiments::{
    file_download, fixed_circuit, fixed_guard, location, medium, overhead, reliability,
    snowflake_load, speed_index, streaming, ttfb, website_curl, website_selenium,
};
use ptperf::scenario::Scenario;
use ptperf::{campaign, ecosystem, report};

/// A target's rendered text plus the executor shard reports behind it.
///
/// The reports are those of the target's experiment family, in
/// shard-index order, numbered within the family — an order that is a
/// function of the target alone, never of worker count, completion
/// order or the other targets named, so trace serializations built
/// from them are deterministic. Targets of one family carry the same
/// reports, taken from the family's one run.
#[derive(Debug)]
pub struct TargetRun {
    /// The target's name, as passed to [`run_targets`].
    pub name: String,
    /// Rendered artifact text.
    pub text: String,
    /// Every shard report of the target's family, in shard-index order.
    pub reports: Vec<ShardReport>,
}

/// How big a run to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Seconds per target: reduced site counts/repeats.
    Quick,
    /// The paper's scale (minutes for the big sweeps).
    Paper,
}

/// All repro target names, in paper order.
pub fn available_targets() -> Vec<&'static str> {
    vec![
        "table1",
        "table2",
        "fig2a",
        "fig2b",
        "table3",
        "table4",
        "table5",
        "table6",
        "fig3a",
        "fig3b",
        "fig4",
        "fig5",
        "table7",
        "fig6",
        "fig7",
        "fig8a",
        "fig8b",
        "medium",
        "fig9",
        "fig10a",
        "fig10b",
        "fig11",
        "table8",
        "table9",
        "table10",
        "fig12",
        "streaming",
    ]
}

/// What [`run_targets`] produced: the named targets' runs and the
/// results of the families behind them.
#[derive(Debug)]
pub struct Runs {
    /// One run per named target, in the order named.
    pub targets: Vec<TargetRun>,
    /// The result of each family that ran, in family-table order.
    results: Vec<Box<dyn Artifacts>>,
}

impl Runs {
    /// The underlying data of the families that ran, as CSV for external
    /// plotting: `(file_stem, csv_document)` pairs, each family's once
    /// however many of its targets were named. Only the curl, selenium,
    /// file-download, reliability and speed-index families export any.
    pub fn csv(&self) -> Vec<(&'static str, String)> {
        self.results.iter().flat_map(|r| r.csv()).collect()
    }

    /// The merged result of the family whose result type is `R`, e.g.
    /// `runs.result::<website_curl::Result>()`; `None` when no named
    /// target needed that family.
    pub fn result<R: 'static>(&self) -> Option<&R> {
        self.results
            .iter()
            .find_map(|r| (**r).as_any().downcast_ref())
    }
}

/// Why [`run_targets`] returned no runs.
#[derive(Debug)]
pub enum RunError {
    /// A name that is not one of [`available_targets`]; nothing ran.
    UnknownTarget(String),
    /// A shard of the family behind `target` failed.
    Failed {
        /// The first named target of the failed family.
        target: String,
        /// The failed shards.
        error: ExecError,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownTarget(name) => {
                write!(f, "unknown target '{name}'; run `repro --list`")
            }
            RunError::Failed { target, error } => write!(f, "{target}: {error}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Runs the named targets and returns one [`TargetRun`] per name, in
/// the order named. Each experiment family the names need runs exactly
/// once, and all of them share one executor pool: their units enter it
/// family by family in first-named order. Every named target of a
/// family renders from its one result and carries its shard reports,
/// numbered within the family as a pool of its own would number them,
/// so a target's trace does not depend on the other targets named.
///
/// The rendered text is bit-for-bit identical at any worker count (see
/// [`ptperf::executor`]); whether the reports carry sim-time
/// observations is controlled by `par.record` (see
/// [`ptperf::executor::Record`]), and the text is identical either way.
/// Every name is checked before anything runs: an unknown one returns
/// [`RunError::UnknownTarget`]. A failed experiment shard returns
/// [`RunError::Failed`] for the first family, in run order, that
/// failed.
pub fn run_targets(
    names: &[&str],
    scenario: &Scenario,
    scale: RunScale,
    par: &Parallelism,
) -> Result<Runs, RunError> {
    if let Some(name) = names.iter().find(|n| !available_targets().contains(n)) {
        return Err(RunError::UnknownTarget(name.to_string()));
    }
    let family_of = |name: &str| FAMILIES.iter().position(|f| f.targets.contains(&name));
    let mut needed: Vec<Needed> = Vec::new();
    let mut pool = Vec::new();
    for &name in names {
        match family_of(name) {
            Some(family) if needed.iter().all(|n| n.family != family) => {
                let start = pool.len();
                pool.extend((FAMILIES[family].units)(scenario, scale));
                needed.push(Needed {
                    family,
                    first: name,
                    shards: start..pool.len(),
                });
            }
            _ => {}
        }
    }
    let executed = executor::run_units(par, pool).map_err(|error| first_failure(error, &needed))?;
    let mut ran: Vec<Option<FamilyRun>> = FAMILIES.iter().map(|_| None).collect();
    let mut values = executed.values.into_iter();
    let mut reports = executed.reports.into_iter();
    for Needed { family, shards, .. } in needed {
        let result = (FAMILIES[family].merge)(values.by_ref().take(shards.len()).collect());
        let reports = reports
            .by_ref()
            .take(shards.len())
            .map(|mut report| {
                report.index -= shards.start;
                report
            })
            .collect();
        ran[family] = Some((result, reports));
    }
    let targets = names
        .iter()
        .map(|&name| {
            let (text, reports) = match family_of(name).and_then(|f| ran[f].as_ref()) {
                Some((result, reports)) => (result.artifact(name), reports.clone()),
                None if name == "table1" => (campaign::render_plan(), Vec::new()),
                None => (ecosystem::render(), Vec::new()),
            };
            TargetRun {
                name: name.to_string(),
                text,
                reports,
            }
        })
        .collect();
    let results = ran.into_iter().flatten().map(|(r, _)| r).collect();
    Ok(Runs { targets, results })
}

/// One experiment family's result and every shard report behind it.
type FamilyRun = (Box<dyn Artifacts>, Vec<ShardReport>);

/// A family a [`run_targets`] call needs: its index in [`FAMILIES`],
/// the first target naming it, and its units' range in the pool.
struct Needed<'a> {
    family: usize,
    first: &'a str,
    shards: Range<usize>,
}

/// The error of a failed pool, as the first failing family's own pool
/// would have reported it: named after that family's first-named
/// target, with only its failures, numbered within the family.
fn first_failure(mut error: ExecError, needed: &[Needed]) -> RunError {
    let first = error.failures[0].index;
    let failed = needed
        .iter()
        .find(|n| n.shards.contains(&first))
        .expect("every pool index lies in one family's range");
    error.failures.retain(|f| failed.shards.contains(&f.index));
    for failure in &mut error.failures {
        failure.index -= failed.shards.start;
    }
    error.completed = failed.shards.len() - error.failures.len();
    RunError::Failed {
        target: failed.first.to_string(),
        error,
    }
}

/// A shard value with its type erased, so that every family's units
/// share one pool.
type Erased = Box<dyn Any + Send>;

/// An experiment family: the targets it renders, its units at a given
/// scale and the merge of their values into its result.
struct Family {
    /// The family's targets, each rendered by its result's
    /// [`Artifacts::artifact`].
    targets: &'static [&'static str],
    /// The family's units at the scale's config.
    units: fn(&Scenario, RunScale) -> Vec<Unit<Erased>>,
    /// Merges the family's shard values, in shard-index order.
    merge: fn(Vec<Erased>) -> Box<dyn Artifacts>,
}

/// The [`Family`] entry of an experiment module: the `units` of its
/// `Config::quick()` or `Config::paper()`, and its `merge`.
macro_rules! family {
    ($experiment:ident: $($target:literal),+) => {
        Family {
            targets: &[$($target),+],
            units: |scenario, scale| {
                let cfg = match scale {
                    RunScale::Quick => $experiment::Config::quick(),
                    RunScale::Paper => $experiment::Config::paper(),
                };
                $experiment::units(scenario, &cfg).into_iter().map(Unit::boxed).collect()
            },
            merge: |values| Box::new($experiment::merge(downcast(values))),
        }
    };
}

/// A family's shard values, back as its shard type. They come from the
/// family's own range of the pool, so every downcast succeeds.
fn downcast<T: 'static>(values: Vec<Erased>) -> Vec<T> {
    values
        .into_iter()
        .map(|value| {
            *value
                .downcast()
                .expect("a family's pool range holds its shard values")
        })
        .collect()
}

/// The thirteen experiment families and their targets.
const FAMILIES: [Family; 13] = [
    family!(website_curl: "fig2a", "table3", "table4", "table10"),
    family!(website_selenium: "fig2b", "table5", "table6"),
    family!(fixed_circuit: "fig3a", "fig3b"),
    family!(fixed_guard: "fig4"),
    family!(file_download: "fig5", "table7"),
    family!(ttfb: "fig6"),
    family!(location: "fig7"),
    family!(reliability: "fig8a", "fig8b"),
    family!(medium: "medium"),
    family!(overhead: "fig9"),
    family!(snowflake_load: "fig10a", "fig10b", "fig12"),
    family!(speed_index: "fig11", "table8", "table9"),
    family!(streaming: "streaming"),
];

/// An experiment family's result, rendered as each of its targets.
trait Artifacts: AsAny + fmt::Debug {
    /// Renders `target`, one of the family's [`Family::targets`].
    fn artifact(&self, target: &str) -> String;

    /// The family's CSV export as `(file_stem, csv_document)` pairs.
    fn csv(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }
}

/// A family's result as [`Any`], which [`Runs::result`] downcasts.
trait AsAny {
    fn as_any(&self) -> &dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Part I and Part II of a t-test table the paper splits in two.
fn halves(rows: &[TTestRow]) -> (&[TTestRow], &[TTestRow]) {
    rows.split_at(rows.len() / 2)
}

impl Artifacts for website_curl::Result {
    fn artifact(&self, target: &str) -> String {
        match target {
            "fig2a" => self.render(),
            "table3" => ttest_tables::render(
                "Table 3 — paired t-tests, website access via curl [Part I]",
                halves(&ttest_tables::pairwise(&self.samples)).0,
            ),
            "table4" => ttest_tables::render(
                "Table 4 — paired t-tests, website access via curl [Part II]",
                halves(&ttest_tables::pairwise(&self.samples)).1,
            ),
            _ => ttest_tables::render(
                "Table 10 — paired t-tests between PT categories (curl website access)",
                &ttest_tables::category_pairwise(&self.samples),
            ),
        }
    }

    fn csv(&self) -> Vec<(&'static str, String)> {
        vec![
            ("fig2a_samples", report::samples_csv(&self.samples)),
            (
                "tables_3_4_ttests",
                report::ttests_csv(&ttest_tables::pairwise(&self.samples)),
            ),
            (
                "table_10_categories",
                report::ttests_csv(&ttest_tables::category_pairwise(&self.samples)),
            ),
        ]
    }
}

impl Artifacts for website_selenium::Result {
    fn artifact(&self, target: &str) -> String {
        match target {
            "fig2b" => self.render(),
            "table5" => ttest_tables::render(
                "Table 5 — paired t-tests, website access via selenium [Part I]",
                halves(&ttest_tables::pairwise(&self.samples)).0,
            ),
            _ => ttest_tables::render(
                "Table 6 — paired t-tests, website access via selenium [Part II]",
                halves(&ttest_tables::pairwise(&self.samples)).1,
            ),
        }
    }

    fn csv(&self) -> Vec<(&'static str, String)> {
        vec![
            ("fig2b_samples", report::samples_csv(&self.samples)),
            (
                "tables_5_6_ttests",
                report::ttests_csv(&ttest_tables::pairwise(&self.samples)),
            ),
        ]
    }
}

impl Artifacts for fixed_circuit::Result {
    fn artifact(&self, target: &str) -> String {
        if target == "fig3a" {
            let mut out = self.render_boxplots();
            for (a, b) in [
                (fixed_circuit::CONFIGS[2], fixed_circuit::CONFIGS[0]),
                (fixed_circuit::CONFIGS[1], fixed_circuit::CONFIGS[0]),
                (fixed_circuit::CONFIGS[2], fixed_circuit::CONFIGS[1]),
            ] {
                let t = self.ttest(a, b);
                out.push_str(&format!(
                    "{}−{}: t={:.2}, P={}, 95% CI [{:.2}, {:.2}]\n",
                    a.name(),
                    b.name(),
                    t.t,
                    t.p_display(),
                    t.ci_lower,
                    t.ci_upper
                ));
            }
            out
        } else {
            let mut out = self.render_ecdf();
            out.push_str(&format!(
                "fraction of |diff| below 5 s: {:.2}\n",
                self.diffs_below(5.0)
            ));
            out
        }
    }
}

impl Artifacts for fixed_guard::Result {
    fn artifact(&self, _: &str) -> String {
        let mut out = self.render();
        let t = self.ttest();
        out.push_str(&format!(
            "obfs4−tor paired t-test: t={:.2}, P={}, mean diff {:.2}\n",
            t.t,
            t.p_display(),
            t.mean_diff
        ));
        out
    }
}

impl Artifacts for file_download::Result {
    fn artifact(&self, target: &str) -> String {
        if target == "fig5" {
            self.render()
        } else {
            ttest_tables::render(
                "Table 7 — paired t-tests, file downloads",
                &ttest_tables::pairwise(&self.paired),
            )
        }
    }

    fn csv(&self) -> Vec<(&'static str, String)> {
        vec![
            ("fig5_samples", report::samples_csv(&self.paired)),
            (
                "table_7_ttests",
                report::ttests_csv(&ttest_tables::pairwise(&self.paired)),
            ),
        ]
    }
}

impl Artifacts for ttfb::Result {
    fn artifact(&self, _: &str) -> String {
        self.render()
    }
}

impl Artifacts for location::Result {
    fn artifact(&self, _: &str) -> String {
        self.render()
    }
}

impl Artifacts for reliability::Result {
    fn artifact(&self, target: &str) -> String {
        if target == "fig8a" {
            self.render_stacked()
        } else {
            self.render_ecdf()
        }
    }

    fn csv(&self) -> Vec<(&'static str, String)> {
        let rows: Vec<Vec<String>> = self
            .counts
            .iter()
            .map(|(pt, c)| {
                let (comp, part, fail) = c.fractions();
                vec![
                    pt.name().to_string(),
                    format!("{comp:.4}"),
                    format!("{part:.4}"),
                    format!("{fail:.4}"),
                ]
            })
            .collect();
        vec![(
            "fig8a_reliability",
            report::csv(&["pt", "complete", "partial", "failed"], &rows),
        )]
    }
}

impl Artifacts for medium::Result {
    fn artifact(&self, _: &str) -> String {
        self.render()
    }
}

impl Artifacts for overhead::Result {
    fn artifact(&self, _: &str) -> String {
        self.render()
    }
}

impl Artifacts for snowflake_load::Result {
    fn artifact(&self, target: &str) -> String {
        match target {
            "fig10a" => self.render_timeline(),
            "fig10b" => self.render_pre_post(),
            _ => self.render_weekly(),
        }
    }
}

impl Artifacts for speed_index::Result {
    fn artifact(&self, target: &str) -> String {
        match target {
            "fig11" => self.render(),
            "table8" => ttest_tables::render(
                "Table 8 — paired t-tests, speed index [Part I]",
                halves(&ttest_tables::pairwise(&self.speed_index)).0,
            ),
            _ => ttest_tables::render(
                "Table 9 — paired t-tests, speed index [Part II]",
                halves(&ttest_tables::pairwise(&self.speed_index)).1,
            ),
        }
    }

    fn csv(&self) -> Vec<(&'static str, String)> {
        vec![
            ("fig11_speed_index", report::samples_csv(&self.speed_index)),
            (
                "tables_8_9_ttests",
                report::ttests_csv(&ttest_tables::pairwise(&self.speed_index)),
            ),
        ]
    }
}

impl Artifacts for streaming::Result {
    fn artifact(&self, _: &str) -> String {
        self.render()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::time::Duration;

    use super::*;

    fn quick(names: &[&str]) -> Runs {
        run_targets(
            names,
            &Scenario::baseline(7),
            RunScale::Quick,
            &Parallelism::sequential(),
        )
        .expect("no shard fails")
    }

    #[test]
    fn every_listed_target_runs_quick() {
        let names = available_targets();
        let runs = quick(&names);
        let mut texts = BTreeSet::new();
        for (name, run) in names.iter().zip(&runs.targets) {
            assert_eq!(run.name, *name);
            assert!(run.text.len() > 50, "{name} output suspiciously short");
            assert!(
                texts.insert(run.text.as_str()),
                "{name} renders the text of another target"
            );
        }
        assert_eq!(runs.targets.len(), names.len());
        let csv = runs.csv();
        let stems: BTreeSet<&str> = csv.iter().map(|(stem, _)| *stem).collect();
        assert_eq!((stems.len(), csv.len()), (10, 10), "{stems:?}");
        for family in &FAMILIES {
            for target in family.targets {
                assert!(names.contains(target), "{target} is not listed");
            }
        }
    }

    #[test]
    fn a_shared_family_runs_once() {
        let runs = quick(&["fig2a", "table3", "table4", "table10"]);
        let shards = |run: &TargetRun| -> Vec<(String, Duration)> {
            run.reports
                .iter()
                .map(|r| (r.label.clone(), r.wall))
                .collect()
        };
        let first = shards(&runs.targets[0]);
        assert!(!first.is_empty());
        for run in &runs.targets[1..] {
            assert_eq!(shards(run), first, "{} ran its own pool", run.name);
        }
    }

    #[test]
    fn a_failure_reads_as_the_first_failing_family_run_alone() {
        use ptperf::executor::ShardFailure;
        let needed = |family, first, shards| Needed {
            family,
            first,
            shards,
        };
        let needed = [
            needed(0, "table3", 0..13),
            needed(4, "fig5", 13..26),
            needed(9, "fig9", 26..27),
        ];
        let failure = |index: usize| ShardFailure {
            index,
            label: format!("shard{index}"),
            message: "boom".to_string(),
        };
        let error = ExecError {
            failures: vec![failure(15), failure(20), failure(26)],
            completed: 24,
        };
        assert_eq!(
            first_failure(error, &needed).to_string(),
            "fig5: 2 shard(s) failed (11 completed): [#2 shard15: boom] [#7 shard20: boom]"
        );
    }

    #[test]
    fn an_unknown_target_is_an_error() {
        let err = run_targets(
            &["fig2a", "fig99"],
            &Scenario::baseline(7),
            RunScale::Quick,
            &Parallelism::sequential(),
        )
        .unwrap_err();
        assert!(matches!(&err, RunError::UnknownTarget(name) if name == "fig99"));
        assert_eq!(
            err.to_string(),
            "unknown target 'fig99'; run `repro --list`"
        );
    }
}
