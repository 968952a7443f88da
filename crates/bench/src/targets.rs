//! The repro targets: one entry per table/figure, each producing the
//! text rendering of that artifact.
//!
//! Most targets are views of an experiment family's result: Tables 3, 4
//! and 10 and Fig. 2a all come from one curl run, for instance. The
//! family table below names each family's targets, and
//! [`run_targets`] runs each family the named targets need exactly
//! once, then renders every named target (and, on request, the CSV
//! export) from that one result.

use std::fmt;

use ptperf::executor::{ExecError, Parallelism, ShardReport};
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
/// shard-index order — an order that is a function of the target alone,
/// never of worker count or completion order, so trace serializations
/// built from them are deterministic. Targets of one family carry the
/// same reports, taken from the family's one run.
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
        "table1", "table2", "fig2a", "fig2b", "table3", "table4", "table5", "table6", "fig3a",
        "fig3b", "fig4", "fig5", "table7", "fig6", "fig7", "fig8a", "fig8b", "medium", "fig9",
        "fig10a", "fig10b", "fig11", "table8", "table9", "table10", "fig12", "streaming",
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
/// once, in its own executor pool, and every named target of that family
/// renders from the one result and carries its shard reports.
///
/// The rendered text is bit-for-bit identical at any worker count (see
/// [`ptperf::executor`]); whether the reports carry sim-time
/// observations is controlled by `par.record` (see
/// [`ptperf::executor::Record`]), and the text is identical either way.
/// Every name is checked before anything runs: an unknown one returns
/// [`RunError::UnknownTarget`]. A failed experiment shard returns
/// [`RunError::Failed`].
pub fn run_targets(
    names: &[&str],
    scenario: &Scenario,
    scale: RunScale,
    par: &Parallelism,
) -> Result<Runs, RunError> {
    if let Some(name) = names.iter().find(|n| !available_targets().contains(n)) {
        return Err(RunError::UnknownTarget(name.to_string()));
    }
    let mut ran: Vec<Option<FamilyRun>> = FAMILIES.iter().map(|_| None).collect();
    let mut targets = Vec::with_capacity(names.len());
    for &name in names {
        let (text, reports) = match name {
            "table1" => (campaign::render_plan(), Vec::new()),
            "table2" => (ecosystem::render(), Vec::new()),
            _ => {
                let i = FAMILIES
                    .iter()
                    .position(|f| f.targets.contains(&name))
                    .expect("every listed target but table1 and table2 has a family");
                let (result, reports) = match &mut ran[i] {
                    Some(done) => done,
                    slot => {
                        let run = (FAMILIES[i].run)(scenario, scale, par).map_err(|error| {
                            RunError::Failed {
                                target: name.to_string(),
                                error,
                            }
                        })?;
                        slot.insert(run)
                    }
                };
                (result.artifact(name), reports.clone())
            }
        };
        targets.push(TargetRun {
            name: name.to_string(),
            text,
            reports,
        });
    }
    let results = ran.into_iter().flatten().map(|(r, _)| r).collect();
    Ok(Runs { targets, results })
}

/// One experiment family's result and every shard report behind it.
type FamilyRun = (Box<dyn Artifacts>, Vec<ShardReport>);

/// An experiment family: the targets it renders, and one run of it at
/// a given scale.
struct Family {
    /// The family's targets, each rendered by its result's
    /// [`Artifacts::artifact`].
    targets: &'static [&'static str],
    /// Runs the family at the scale's config through its `run_with`.
    run: fn(&Scenario, RunScale, &Parallelism) -> Result<FamilyRun, ExecError>,
}

/// The [`Family`] entry of an experiment module: its
/// `Config::quick()` or `Config::paper()`, run through its `run_with`.
macro_rules! family {
    ($experiment:ident: $($target:literal),+) => {
        Family {
            targets: &[$($target),+],
            run: |scenario, scale, par| {
                let cfg = match scale {
                    RunScale::Quick => $experiment::Config::quick(),
                    RunScale::Paper => $experiment::Config::paper(),
                };
                let (result, reports) = $experiment::run_with(scenario, &cfg, par)?;
                Ok((Box::new(result), reports))
            },
        }
    };
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
trait Artifacts: fmt::Debug {
    /// Renders `target`, one of the family's [`Family::targets`].
    fn artifact(&self, target: &str) -> String;

    /// The family's CSV export as `(file_stem, csv_document)` pairs.
    fn csv(&self) -> Vec<(&'static str, String)> {
        Vec::new()
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
