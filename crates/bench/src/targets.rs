//! The repro targets: one entry per table/figure, each producing the
//! text rendering of that artifact.

use ptperf::executor::{ExecError, Parallelism, ShardReport};
use ptperf::experiments::{
    file_download, fixed_circuit, fixed_guard, location, medium, overhead, reliability,
    snowflake_load, speed_index, streaming, ttest_tables, ttfb, website_curl,
    website_selenium,
};
use ptperf::scenario::Scenario;
use ptperf::{campaign, ecosystem};

/// Unwraps an experiment's `run_with` result, appending its shard
/// reports (timings, sample counts, and — under
/// [`ptperf::executor::Record::Trace`] — the recorded observations) to
/// the target's collection. A shard failure passes through unchanged.
fn take<T>(
    reports: &mut Vec<ShardReport>,
    r: Result<(T, Vec<ShardReport>), ExecError>,
) -> Result<T, ExecError> {
    let (value, mut shard_reports) = r?;
    reports.append(&mut shard_reports);
    Ok(value)
}

/// A target's rendered text plus the executor shard reports behind it.
///
/// The reports are in shard-index order, concatenated across the
/// experiments the target executed — an order that is a function of the
/// target alone, never of worker count or completion order, so trace
/// serializations built from them are deterministic.
#[derive(Debug)]
pub struct TargetRun {
    /// The target's name, as passed to [`run_target_obs`].
    pub name: String,
    /// Rendered artifact text.
    pub text: String,
    /// Every shard report the target ran, in shard-index order.
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
        "campaign",
    ]
}

/// Runs one target sequentially and returns its rendered text, or the
/// error of an experiment shard that failed.
///
/// # Panics
/// Panics on an unknown target name; callers should validate against
/// [`available_targets`].
pub fn run_target(name: &str, scenario: &Scenario, scale: RunScale) -> Result<String, ExecError> {
    run_target_with(name, scenario, scale, &Parallelism::sequential())
}

/// Runs one target through the parallel executor and returns its
/// rendered text — bit-for-bit identical at any worker count (see
/// [`ptperf::executor`]) — or the error of a failed experiment shard.
///
/// # Panics
/// Panics on an unknown target name; callers should validate against
/// [`available_targets`].
pub fn run_target_with(
    name: &str,
    scenario: &Scenario,
    scale: RunScale,
    par: &Parallelism,
) -> Result<String, ExecError> {
    Ok(run_target_obs(name, scenario, scale, par)?.text)
}

/// Runs one target and returns its rendered text together with every
/// executor shard report behind it. Whether those reports carry
/// sim-time observations is controlled by `par.record` (see
/// [`ptperf::executor::Record`]); the rendered text is bit-for-bit
/// identical either way, and at any worker count. A failed experiment
/// shard returns its [`ExecError`] instead.
///
/// # Panics
/// Panics on an unknown target name; callers should validate against
/// [`available_targets`].
pub fn run_target_obs(
    name: &str,
    scenario: &Scenario,
    scale: RunScale,
    par: &Parallelism,
) -> Result<TargetRun, ExecError> {
    let quick = scale == RunScale::Quick;
    let mut reports: Vec<ShardReport> = Vec::new();
    let text = match name {
        "table1" => campaign::render_plan(),
        "table2" => ecosystem::render(),
        "fig2a" => {
            let cfg = if quick {
                website_curl::Config::quick()
            } else {
                website_curl::Config::paper()
            };
            take(&mut reports, website_curl::run_with(scenario, &cfg, par))?.render()
        }
        "fig2b" => {
            let cfg = if quick {
                website_selenium::Config::quick()
            } else {
                website_selenium::Config::paper()
            };
            take(
                &mut reports,
                website_selenium::run_with(scenario, &cfg, par),
            )?
            .render()
        }
        "table3" | "table4" => {
            let cfg = if quick {
                website_curl::Config::quick()
            } else {
                website_curl::Config::paper()
            };
            let result = take(&mut reports, website_curl::run_with(scenario, &cfg, par))?;
            let rows = ttest_tables::pairwise(&result.samples);
            let half = rows.len() / 2;
            let (title, slice) = if name == "table3" {
                ("Table 3 — paired t-tests, website access via curl [Part I]", &rows[..half])
            } else {
                ("Table 4 — paired t-tests, website access via curl [Part II]", &rows[half..])
            };
            ttest_tables::render(title, slice)
        }
        "table5" | "table6" => {
            let cfg = if quick {
                website_selenium::Config::quick()
            } else {
                website_selenium::Config::paper()
            };
            let result = take(
                &mut reports,
                website_selenium::run_with(scenario, &cfg, par),
            )?;
            let rows = ttest_tables::pairwise(&result.samples);
            let half = rows.len() / 2;
            let (title, slice) = if name == "table5" {
                ("Table 5 — paired t-tests, website access via selenium [Part I]", &rows[..half])
            } else {
                ("Table 6 — paired t-tests, website access via selenium [Part II]", &rows[half..])
            };
            ttest_tables::render(title, slice)
        }
        "fig3a" | "fig3b" => {
            let cfg = if quick {
                fixed_circuit::Config::quick()
            } else {
                fixed_circuit::Config::paper()
            };
            let result = take(&mut reports, fixed_circuit::run_with(scenario, &cfg, par))?;
            if name == "fig3a" {
                let mut out = result.render_boxplots();
                for (a, b) in [
                    (fixed_circuit::CONFIGS[2], fixed_circuit::CONFIGS[0]),
                    (fixed_circuit::CONFIGS[1], fixed_circuit::CONFIGS[0]),
                    (fixed_circuit::CONFIGS[2], fixed_circuit::CONFIGS[1]),
                ] {
                    let t = result.ttest(a, b);
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
                let mut out = result.render_ecdf();
                out.push_str(&format!(
                    "fraction of |diff| below 5 s: {:.2}\n",
                    result.diffs_below(5.0)
                ));
                out
            }
        }
        "fig4" => {
            let cfg = if quick {
                fixed_guard::Config::quick()
            } else {
                fixed_guard::Config::paper()
            };
            let result = take(&mut reports, fixed_guard::run_with(scenario, &cfg, par))?;
            let mut out = result.render();
            let t = result.ttest();
            out.push_str(&format!(
                "obfs4−tor paired t-test: t={:.2}, P={}, mean diff {:.2}\n",
                t.t,
                t.p_display(),
                t.mean_diff
            ));
            out
        }
        "fig5" => {
            let cfg = if quick {
                file_download::Config::quick()
            } else {
                file_download::Config::paper()
            };
            take(&mut reports, file_download::run_with(scenario, &cfg, par))?.render()
        }
        "table7" => {
            let cfg = if quick {
                file_download::Config::quick()
            } else {
                file_download::Config::paper()
            };
            let result = take(&mut reports, file_download::run_with(scenario, &cfg, par))?;
            let rows = ttest_tables::pairwise(&result.paired);
            ttest_tables::render("Table 7 — paired t-tests, file downloads", &rows)
        }
        "fig6" => {
            let cfg = if quick {
                ttfb::Config::quick()
            } else {
                ttfb::Config::paper()
            };
            take(&mut reports, ttfb::run_with(scenario, &cfg, par))?.render()
        }
        "fig7" => {
            let cfg = if quick {
                location::Config::quick()
            } else {
                location::Config::paper()
            };
            take(&mut reports, location::run_with(scenario, &cfg, par))?.render()
        }
        "fig8a" | "fig8b" => {
            let cfg = if quick {
                reliability::Config::quick()
            } else {
                reliability::Config::paper()
            };
            let result = take(&mut reports, reliability::run_with(scenario, &cfg, par))?;
            if name == "fig8a" {
                result.render_stacked()
            } else {
                result.render_ecdf()
            }
        }
        "medium" => {
            let cfg = if quick {
                medium::Config::quick()
            } else {
                medium::Config::paper()
            };
            take(&mut reports, medium::run_with(scenario, &cfg, par))?.render()
        }
        "fig9" => {
            let cfg = if quick {
                overhead::Config::quick()
            } else {
                overhead::Config::paper()
            };
            take(&mut reports, overhead::run_with(scenario, &cfg, par))?.render()
        }
        "fig10a" | "fig10b" | "fig12" => {
            let cfg = if quick {
                snowflake_load::Config::quick()
            } else {
                snowflake_load::Config::paper()
            };
            let result = take(&mut reports, snowflake_load::run_with(scenario, &cfg, par))?;
            match name {
                "fig10a" => result.render_timeline(),
                "fig10b" => result.render_pre_post(),
                _ => result.render_weekly(),
            }
        }
        "fig11" => {
            let cfg = if quick {
                speed_index::Config::quick()
            } else {
                speed_index::Config::paper()
            };
            take(&mut reports, speed_index::run_with(scenario, &cfg, par))?.render()
        }
        "table8" | "table9" => {
            let cfg = if quick {
                speed_index::Config::quick()
            } else {
                speed_index::Config::paper()
            };
            let result = take(&mut reports, speed_index::run_with(scenario, &cfg, par))?;
            let rows = ttest_tables::pairwise(&result.speed_index);
            let half = rows.len() / 2;
            let (title, slice) = if name == "table8" {
                ("Table 8 — paired t-tests, speed index [Part I]", &rows[..half])
            } else {
                ("Table 9 — paired t-tests, speed index [Part II]", &rows[half..])
            };
            ttest_tables::render(title, slice)
        }
        "table10" => {
            let cfg = if quick {
                website_curl::Config::quick()
            } else {
                website_curl::Config::paper()
            };
            let result = take(&mut reports, website_curl::run_with(scenario, &cfg, par))?;
            let rows = ttest_tables::category_pairwise(&result.samples);
            ttest_tables::render(
                "Table 10 — paired t-tests between PT categories (curl website access)",
                &rows,
            )
        }
        "streaming" => {
            let cfg = if quick {
                streaming::Config::quick()
            } else {
                streaming::Config::paper()
            };
            take(&mut reports, streaming::run_with(scenario, &cfg, par))?.render()
        }
        "campaign" => {
            // The full campaign always runs at test scale (see
            // [`ptperf::campaign::run_quick_with`]); `scale` selects
            // nothing here.
            let results = campaign::run_quick_with(scenario, par)?;
            reports = results.stats.reports.clone();
            results.stats.render()
        }
        other => panic!("unknown repro target '{other}'; see `repro --list`"),
    };
    Ok(TargetRun {
        name: name.to_string(),
        text,
        reports,
    })
}

/// Exports a target's underlying data as CSV, for external plotting.
/// Returns `(file_stem, csv_document)` pairs, or the error of a failed
/// experiment shard; targets whose artifact is purely textual
/// (table1/table2, the timeline) export nothing.
pub fn export_csv(
    name: &str,
    scenario: &Scenario,
    scale: RunScale,
) -> Result<Vec<(String, String)>, ExecError> {
    export_csv_with(name, scenario, scale, &Parallelism::sequential())
}

/// [`export_csv`] through the parallel executor (identical output at
/// any worker count).
pub fn export_csv_with(
    name: &str,
    scenario: &Scenario,
    scale: RunScale,
    par: &Parallelism,
) -> Result<Vec<(String, String)>, ExecError> {
    use ptperf::report;
    let quick = scale == RunScale::Quick;
    // CSV export re-runs the experiment and only keeps its data; shard
    // reports are dropped (the caller gets them via `run_target_obs`).
    let mut reports: Vec<ShardReport> = Vec::new();
    Ok(match name {
        "fig2a" | "table3" | "table4" | "table10" => {
            let cfg = if quick {
                website_curl::Config::quick()
            } else {
                website_curl::Config::paper()
            };
            let result = take(&mut reports, website_curl::run_with(scenario, &cfg, par))?;
            vec![
                ("fig2a_samples".to_string(), report::samples_csv(&result.samples)),
                (
                    "tables_3_4_ttests".to_string(),
                    report::ttests_csv(&ttest_tables::pairwise(&result.samples)),
                ),
                (
                    "table_10_categories".to_string(),
                    report::ttests_csv(&ttest_tables::category_pairwise(&result.samples)),
                ),
            ]
        }
        "fig2b" | "table5" | "table6" => {
            let cfg = if quick {
                website_selenium::Config::quick()
            } else {
                website_selenium::Config::paper()
            };
            let result = take(
                &mut reports,
                website_selenium::run_with(scenario, &cfg, par),
            )?;
            vec![
                ("fig2b_samples".to_string(), report::samples_csv(&result.samples)),
                (
                    "tables_5_6_ttests".to_string(),
                    report::ttests_csv(&ttest_tables::pairwise(&result.samples)),
                ),
            ]
        }
        "fig5" | "table7" => {
            let cfg = if quick {
                file_download::Config::quick()
            } else {
                file_download::Config::paper()
            };
            let result = take(&mut reports, file_download::run_with(scenario, &cfg, par))?;
            vec![
                ("fig5_samples".to_string(), report::samples_csv(&result.paired)),
                (
                    "table_7_ttests".to_string(),
                    report::ttests_csv(&ttest_tables::pairwise(&result.paired)),
                ),
            ]
        }
        "fig8a" | "fig8b" => {
            let cfg = if quick {
                reliability::Config::quick()
            } else {
                reliability::Config::paper()
            };
            let result = take(&mut reports, reliability::run_with(scenario, &cfg, par))?;
            let rows: Vec<Vec<String>> = result
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
                "fig8a_reliability".to_string(),
                report::csv(&["pt", "complete", "partial", "failed"], &rows),
            )]
        }
        "fig11" | "table8" | "table9" => {
            let cfg = if quick {
                speed_index::Config::quick()
            } else {
                speed_index::Config::paper()
            };
            let result = take(&mut reports, speed_index::run_with(scenario, &cfg, par))?;
            vec![
                (
                    "fig11_speed_index".to_string(),
                    report::samples_csv(&result.speed_index),
                ),
                (
                    "tables_8_9_ttests".to_string(),
                    report::ttests_csv(&ttest_tables::pairwise(&result.speed_index)),
                ),
            ]
        }
        _ => Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptperf::executor::ShardFailure;

    #[test]
    fn every_listed_target_runs_quick() {
        let scenario = Scenario::baseline(7);
        for name in available_targets() {
            let out = run_target(name, &scenario, RunScale::Quick).unwrap();
            assert!(!out.is_empty(), "{name} produced no output");
            assert!(out.len() > 50, "{name} output suspiciously short");
        }
    }

    #[test]
    fn take_returns_a_shard_failure_and_keeps_no_reports() {
        let failure = ExecError {
            failures: vec![ShardFailure {
                index: 3,
                label: "fig2a/tor".to_string(),
                message: "boom".to_string(),
            }],
            completed: 7,
        };
        let mut reports = Vec::new();
        let err = take::<()>(&mut reports, Err(failure)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "1 shard(s) failed (7 completed): [#3 fig2a/tor: boom]"
        );
        assert!(reports.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown repro target")]
    fn unknown_target_panics() {
        let scenario = Scenario::baseline(7);
        let _ = run_target("fig99", &scenario, RunScale::Quick);
    }
}
