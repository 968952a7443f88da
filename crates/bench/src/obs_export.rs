//! Serializers for `repro`'s observability flags: the deterministic
//! trace (JSONL, sim-time only), the per-(PT, phase) latency-histogram
//! report, the Chrome trace-event export, the wall-clock metrics
//! registry, and the human-readable profile table.
//!
//! The trace is a pure function of the scenario seed and target list —
//! shard reports arrive in submission order and carry only sim-time
//! spans and counters — so two runs at different worker counts produce
//! byte-identical JSONL (proven by `tests/obs_neutrality.rs`). Wall
//! clock lives exclusively in the metrics registry and the profile
//! table, which are expected to differ run to run.
//!
//! A family behind k selected targets runs once and hands each of them
//! its reports. The two traces walk the reports target by target, so
//! they carry the family's records under each of its targets; the
//! histogram report, the metrics registry and the profile count each
//! family's reports once, however many of its targets are named.

use std::time::Duration;

use ptperf::executor::ShardReport;
use ptperf_obs::{json, Hist, MetricsRegistry};
use ptperf_stats::Table;

use crate::targets::TargetRun;

/// The shard reports behind `runs`, each family's once, in run order,
/// with the family they belong to. The targets of one family carry the
/// same reports (those of its one run), so a target whose shard labels
/// match an earlier target's adds nothing.
fn family_reports(runs: &[TargetRun]) -> impl Iterator<Item = (&str, &ShardReport)> {
    fn same_reports(a: &TargetRun, b: &TargetRun) -> bool {
        a.reports
            .iter()
            .map(|r| &r.label)
            .eq(b.reports.iter().map(|r| &r.label))
    }
    runs.iter()
        .enumerate()
        .filter(|&(i, run)| !runs[..i].iter().any(|earlier| same_reports(earlier, run)))
        .flat_map(|(_, run)| run.reports.iter().map(move |r| (family_of(run), r)))
}

/// The experiment family behind a target's run, named after its first
/// shard's label up to the first `/` (shard labels are
/// `family/detail`, e.g. `fig2a/obfs4`; single-shard families use the
/// bare family name). Every shard of the run counts under this one
/// name, whatever its own label: snowflake_load's `fig12/*` shards join
/// its `fig10` row and lane.
fn family_of(run: &TargetRun) -> &str {
    run.reports
        .first()
        .map_or(&run.name, |r| r.label.split('/').next().unwrap_or(&r.label))
}

/// The pluggable transport a shard measured: the last `/`-segment of
/// its label (`fig2a/obfs4` → `obfs4`). Single-shard families with no
/// detail segment report the bare label.
pub fn pt_of(label: &str) -> &str {
    label.rsplit('/').next().unwrap_or(label)
}

/// Serializes the targets' recorded observations as JSON Lines: for
/// each shard (in index order, targets in run order) one `span` record
/// per phase, then one `counter` record per counter key.
///
/// Every field is sim-time or structural — no wall clock — so the
/// output is byte-identical across runs and worker counts.
pub fn trace_jsonl(runs: &[TargetRun]) -> String {
    let mut out = String::new();
    for run in runs {
        for report in &run.reports {
            let prefix = format!(
                "\"target\":{},\"shard\":{},\"label\":{}",
                json::string(&run.name),
                report.index,
                json::string(&report.label)
            );
            for span in &report.obs.spans {
                out.push_str(&format!(
                    "{{\"type\":\"span\",{prefix},\"phase\":{},\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{}}}\n",
                    json::string(span.phase),
                    span.start_ns,
                    span.end_ns,
                    span.id,
                    span.parent
                ));
            }
            for (key, value) in &report.obs.counters {
                out.push_str(&format!(
                    "{{\"type\":\"counter\",{prefix},\"key\":{},\"value\":{value}}}\n",
                    json::string(key)
                ));
            }
        }
    }
    out
}

/// Serializes the targets' per-(PT, phase) latency histograms as one
/// JSON document (`ptperf-hist/v1`).
///
/// Per-shard histograms are merged by `(pt, phase)` — [`Hist::merge`]
/// is exact and order-independent, and shard reports arrive in
/// submission-index order regardless of worker count, so the document
/// is byte-identical across `--workers` settings. Every numeric field
/// is an integer nanosecond quantity (quantiles are bucket bounds
/// clamped to observed min/max), so no float formatting enters the
/// output except nothing at all.
pub fn hist_json(runs: &[TargetRun]) -> String {
    // Merge in first-seen order: (pt, phase) → Hist.
    let mut merged: Vec<(String, Vec<(&'static str, Hist)>)> = Vec::new();
    for (_, report) in family_reports(runs) {
        let pt = pt_of(&report.label);
        for (phase, h) in &report.obs.hists {
            let slot = match merged.iter_mut().find(|(p, _)| p == pt) {
                Some((_, phases)) => phases,
                None => {
                    merged.push((pt.to_string(), Vec::new()));
                    &mut merged.last_mut().expect("just pushed").1
                }
            };
            match slot.iter_mut().find(|(p, _)| p == phase) {
                Some((_, acc)) => acc.merge(h),
                None => slot.push((phase, h.clone())),
            }
        }
    }
    let mut out = String::from("{\"schema\":\"ptperf-hist/v1\",");
    out.push_str(&format!(
        "\"targets\":[{}],",
        runs.iter()
            .map(|r| json::string(&r.name))
            .collect::<Vec<_>>()
            .join(",")
    ));
    out.push_str("\"pts\":[");
    for (i, (pt, phases)) in merged.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"pt\":{},\"phases\":[", json::string(pt)));
        for (j, (phase, h)) in phases.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .map(|(idx, c)| format!("[{idx},{c}]"))
                .collect();
            out.push_str(&format!(
                "{{\"phase\":{},\"count\":{},\"saturated\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"buckets\":[{}]}}",
                json::string(phase),
                h.count(),
                h.saturated(),
                h.min_ns(),
                h.max_ns(),
                h.mean_ns(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.p999(),
                buckets.join(",")
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

/// Serializes the targets' span trees in the Chrome trace-event format
/// (also readable by Perfetto): a `traceEvents` array whose first
/// element is the process-name metadata record, one thread lane per
/// experiment family (named via `thread_name` metadata), complete
/// (`"X"`) events for every span with the span tree carried in `args`,
/// and counter (`"C"`) tracks sampled at each shard's end.
///
/// Shards of a family are laid out consecutively on its lane (each
/// shard offset by the previous shards' extents) so overlapping
/// sim-timelines don't stack. Timestamps are sim-nanoseconds rendered
/// as microseconds (the unit the trace viewers expect); everything is
/// a pure function of the deterministic shard data, so the file is
/// byte-identical across runs and worker counts. One event per line.
pub fn trace_chrome(runs: &[TargetRun]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"ptperf repro (sim time)\"}}",
    );
    // Family → (tid, sim-ns cursor for consecutive shard layout).
    let mut lanes: Vec<(String, u64)> = Vec::new();
    for run in runs {
        let family = family_of(run);
        for report in &run.reports {
            let tid = match lanes.iter().position(|(f, _)| f == family) {
                Some(i) => i + 1,
                None => {
                    lanes.push((family.to_string(), 0));
                    out.push_str(&format!(
                        ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
                        lanes.len(),
                        json::string(family)
                    ));
                    lanes.len()
                }
            };
            let base = lanes[tid - 1].1;
            let mut extent = 0u64;
            for span in &report.obs.spans {
                extent = extent.max(span.end_ns);
                out.push_str(&format!(
                    ",\n{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{\"label\":{},\"id\":{},\"parent\":{}}}}}",
                    json::string(span.phase),
                    json::number((base + span.start_ns) as f64 / 1000.0),
                    json::number(span.duration_ns() as f64 / 1000.0),
                    json::string(&report.label),
                    span.id,
                    span.parent
                ));
            }
            for (key, value) in &report.obs.counters {
                out.push_str(&format!(
                    ",\n{{\"name\":{},\"ph\":\"C\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"args\":{{\"value\":{value}}}}}",
                    json::string(key),
                    json::number((base + extent) as f64 / 1000.0)
                ));
            }
            lanes[tid - 1].1 = base + extent;
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Builds the wall-clock metrics registry from the targets' shard
/// reports: one observation per shard, grouped by family, plus the
/// run-level worker count and elapsed time.
pub fn build_metrics(runs: &[TargetRun], workers: usize, elapsed: Duration) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    for (family, report) in family_reports(runs) {
        registry.observe(family, report.wall, report.samples);
    }
    registry.set_run(workers, elapsed);
    registry
}

/// Renders the `--profile` table: per family (first-seen order), shard
/// and sample counts, recorded event count, simulated seconds, shard
/// wall-clock milliseconds, and simulation throughput in events per
/// wall-clock second.
pub fn profile_table(runs: &[TargetRun]) -> String {
    struct Row {
        family: String,
        shards: usize,
        samples: usize,
        events: u64,
        sim_ns: u64,
        wall_secs: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for (family, report) in family_reports(runs) {
        let row = match rows.iter_mut().find(|r| r.family == family) {
            Some(row) => row,
            None => {
                rows.push(Row {
                    family: family.to_string(),
                    shards: 0,
                    samples: 0,
                    events: 0,
                    sim_ns: 0,
                    wall_secs: 0.0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.shards += 1;
        row.samples += report.samples;
        row.events += report.obs.counter("events").unwrap_or(0);
        row.sim_ns += report.obs.counter("sim_ns").unwrap_or(0);
        row.wall_secs += report.wall.as_secs_f64();
    }
    let mut table = Table::new([
        "family",
        "shards",
        "samples",
        "events",
        "sim (s)",
        "wall (ms)",
        "events/s",
    ]);
    for r in &rows {
        let throughput = if r.wall_secs > 0.0 {
            format!("{:.0}", r.events as f64 / r.wall_secs)
        } else {
            "-".to_string()
        };
        table.row([
            r.family.clone(),
            r.shards.to_string(),
            r.samples.to_string(),
            r.events.to_string(),
            format!("{:.2}", r.sim_ns as f64 / 1e9),
            format!("{:.1}", r.wall_secs * 1e3),
            throughput,
        ]);
    }
    let totals = rows.iter().fold((0usize, 0u64, 0u64), |acc, r| {
        (acc.0 + r.shards, acc.1 + r.events, acc.2 + r.sim_ns)
    });
    format!(
        "Profile — {} shard(s), {} event(s), {:.2} simulated second(s)\n{}",
        totals.0,
        totals.1,
        totals.2 as f64 / 1e9,
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use ptperf_obs::{ShardObsData, SpanRecord};

    use super::*;

    fn sample_run() -> TargetRun {
        let mut hist = Hist::new();
        hist.record(1_500_000_000);
        TargetRun {
            name: "fig6".to_string(),
            text: String::new(),
            reports: vec![ShardReport {
                index: 0,
                label: "fig6/obfs4".to_string(),
                wall: Duration::from_millis(250),
                samples: 12,
                obs: ShardObsData {
                    spans: vec![SpanRecord {
                        phase: "handshake",
                        start_ns: 0,
                        end_ns: 1_500_000_000,
                        id: 1,
                        parent: 0,
                    }],
                    counters: vec![("events", 12), ("sim_ns", 1_500_000_000)],
                    hists: vec![("handshake", hist)],
                },
            }],
        }
    }

    #[test]
    fn family_is_the_first_shard_label_without_its_detail() {
        let mut run = sample_run();
        assert_eq!(family_of(&run), "fig6");
        run.reports[0].label = "fig3".to_string();
        assert_eq!(family_of(&run), "fig3");
        run.reports[0].label = "fig12/week3".to_string();
        assert_eq!(family_of(&run), "fig12");
        run.reports.clear();
        assert_eq!(
            family_of(&run),
            "fig6",
            "a run without shards goes by its name"
        );
    }

    #[test]
    fn one_run_with_two_label_prefixes_is_one_family() {
        // snowflake_load's shards are labelled `fig10/*` and `fig12/*`.
        let mut run = sample_run();
        run.name = "fig10a".to_string();
        run.reports[0].label = "fig10/pre".to_string();
        let mut weekly = run.reports[0].clone();
        weekly.index = 1;
        weekly.label = "fig12/week1".to_string();
        run.reports.push(weekly);
        let runs = [run];

        let profile = profile_table(&runs);
        assert!(profile.contains("Profile — 2 shard(s)"), "{profile}");
        assert!(profile.contains("fig10"), "{profile}");
        assert!(
            !profile.contains("fig12"),
            "fig12 shards got their own row: {profile}"
        );

        let metrics = build_metrics(&runs, 1, Duration::from_secs(1)).to_json();
        assert!(metrics.contains("\"family\":\"fig10\""), "{metrics}");
        assert!(!metrics.contains("\"family\":\"fig12\""), "{metrics}");

        let doc = trace_chrome(&runs);
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let lanes: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .collect();
        assert_eq!(lanes.len(), 1, "one lane for the family");
        let tids: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .map(|e| e.get("tid").and_then(|t| t.as_f64()).unwrap())
            .collect();
        assert_eq!(tids, [1.0, 1.0]);
    }

    #[test]
    fn pt_takes_the_last_segment() {
        assert_eq!(pt_of("fig2a/obfs4"), "obfs4");
        assert_eq!(pt_of("fig3"), "fig3");
        assert_eq!(pt_of("campaign/fig2a/snowflake"), "snowflake");
    }

    #[test]
    fn trace_lines_carry_spans_then_counters() {
        let jsonl = trace_jsonl(&[sample_run()]);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"type\":\"span\""));
        assert!(lines[0].contains("\"target\":\"fig6\""));
        assert!(lines[0].contains("\"end_ns\":1500000000"));
        assert!(lines[0].contains("\"id\":1"));
        assert!(lines[0].contains("\"parent\":0"));
        assert!(lines[1].contains("\"key\":\"events\""));
        assert!(lines[2].contains("\"key\":\"sim_ns\""));
    }

    #[test]
    fn hist_report_groups_by_pt_and_phase() {
        let doc = hist_json(&[sample_run()]);
        let v = json::parse(&doc).expect("hist report is valid JSON");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("ptperf-hist/v1")
        );
        let pts = v.get("pts").and_then(|p| p.as_array()).unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].get("pt").and_then(|p| p.as_str()), Some("obfs4"));
        let phases = pts[0].get("phases").and_then(|p| p.as_array()).unwrap();
        assert_eq!(
            phases[0].get("phase").and_then(|p| p.as_str()),
            Some("handshake")
        );
        assert_eq!(phases[0].get("count").and_then(|c| c.as_f64()), Some(1.0));
        let p50 = phases[0].get("p50_ns").and_then(|c| c.as_f64()).unwrap();
        assert!(p50 > 0.0 && p50.fract() == 0.0, "quantiles are integers");
    }

    #[test]
    fn hist_report_merges_across_shards_of_one_pt() {
        let mut run = sample_run();
        let mut other = run.reports[0].clone();
        other.index = 1;
        other.label = "fig5/obfs4".to_string();
        run.reports.push(other);
        let doc = hist_json(&[run]);
        let v = json::parse(&doc).unwrap();
        let pts = v.get("pts").and_then(|p| p.as_array()).unwrap();
        assert_eq!(pts.len(), 1, "same PT merges into one entry");
        let phases = pts[0].get("phases").and_then(|p| p.as_array()).unwrap();
        assert_eq!(phases[0].get("count").and_then(|c| c.as_f64()), Some(2.0));
    }

    #[test]
    fn chrome_trace_opens_with_process_metadata_and_parses() {
        let doc = trace_chrome(&[sample_run()]);
        let v = json::parse(&doc).expect("chrome trace is valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(
            events[0].get("name").and_then(|n| n.as_str()),
            Some("process_name")
        );
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("M"));
        // Lane metadata for the family, then the span, then counters.
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("thread_name")
        );
        let span = &events[2];
        assert_eq!(span.get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(span.get("dur").and_then(|d| d.as_f64()), Some(1_500_000.0));
        assert_eq!(
            span.get("args")
                .unwrap()
                .get("label")
                .and_then(|l| l.as_str()),
            Some("fig6/obfs4")
        );
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        // One event per line so the smoke gate can grep line 2.
        assert!(doc.lines().nth(1).unwrap().contains("process_name"));
    }

    #[test]
    fn chrome_trace_renders_a_browser_counter_track() {
        // Shards that loaded pages carry `browser/*` counters, and the
        // Chrome export must surface each as its own "C" track
        // alongside the other keys.
        let mut run = sample_run();
        run.reports[0].obs.counters.push(("browser/pages", 37));
        run.reports[0].obs.counters.push(("browser/resources", 2));
        let doc = trace_chrome(&[run]);
        let v = json::parse(&doc).expect("chrome trace is valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let pages: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("C")
                    && e.get("name").and_then(|n| n.as_str()) == Some("browser/pages")
            })
            .collect();
        assert_eq!(pages.len(), 1, "one page-count track sample per shard");
        assert_eq!(
            pages[0]
                .get("args")
                .unwrap()
                .get("value")
                .and_then(|x| x.as_f64()),
            Some(37.0)
        );
        assert!(doc.contains("\"browser/resources\""));
    }

    #[test]
    fn chrome_trace_lays_family_shards_consecutively() {
        let mut run = sample_run();
        let mut second = run.reports[0].clone();
        second.index = 1;
        second.label = "fig6/snowflake".to_string();
        run.reports.push(second);
        let doc = trace_chrome(&[run]);
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("ts").and_then(|t| t.as_f64()), Some(0.0));
        // Second shard of the same family starts where the first ended.
        assert_eq!(
            spans[1].get("ts").and_then(|t| t.as_f64()),
            Some(1_500_000.0)
        );
        // Both share the family lane.
        assert_eq!(
            spans[0].get("tid").and_then(|t| t.as_f64()),
            spans[1].get("tid").and_then(|t| t.as_f64())
        );
    }

    #[test]
    fn metrics_group_by_family_and_keep_run_context() {
        let registry = build_metrics(&[sample_run()], 4, Duration::from_secs(2));
        let json = registry.to_json();
        assert!(json.contains("\"workers\":4"));
        assert!(json.contains("\"family\":\"fig6\""));
        assert!(json.contains("\"samples\":12"));
    }

    /// A histogram report's `pts` array: everything after its target
    /// list.
    fn pts(doc: &str) -> &str {
        doc.split_once("\"pts\":").expect("hist report has pts").1
    }

    #[test]
    fn targets_sharing_a_family_run_count_it_once() {
        // Two targets of one family carry the reports of its one run.
        let once = [sample_run()];
        let mut table = sample_run();
        table.name = "table_of_fig6".to_string();
        let twice = [sample_run(), table];
        assert_eq!(family_reports(&twice).count(), 1);
        assert_eq!(pts(&hist_json(&twice)), pts(&hist_json(&once)));
        assert_eq!(profile_table(&twice), profile_table(&once));
        let metrics = |runs: &[TargetRun]| build_metrics(runs, 1, Duration::from_secs(1)).to_json();
        assert_eq!(metrics(&twice), metrics(&once));
        // A target of another family adds its own reports.
        let mut other = sample_run();
        other.name = "fig5".to_string();
        other.reports[0].label = "fig5/obfs4".to_string();
        let both = [sample_run(), other];
        assert_eq!(family_reports(&both).count(), 2);
        assert!(profile_table(&both).contains("Profile — 2 shard(s)"));
    }

    #[test]
    fn all_targets_hist_matches_one_target_per_family() {
        use ptperf::executor::{Parallelism, Record};
        use ptperf::scenario::Scenario;
        let scenario = Scenario::baseline(42);
        let par = Parallelism::new(2).with_recording(Record::Trace);
        let hist = |names: &[&str]| {
            let runs = crate::run_targets(names, &scenario, crate::RunScale::Quick, &par)
                .expect("no shard fails");
            hist_json(&runs.targets)
        };
        let one_per_family =
            "fig2a fig2b fig3a fig4 fig5 fig6 fig7 fig8a medium fig9 fig10a fig11 streaming";
        let one_per_family: Vec<&str> = one_per_family.split(' ').collect();
        assert_eq!(
            pts(&hist(&crate::available_targets())),
            pts(&hist(&one_per_family))
        );
    }

    #[test]
    fn profile_aggregates_counters_per_family() {
        let text = profile_table(&[sample_run()]);
        assert!(text.contains("fig6"), "{text}");
        assert!(text.contains("1.50"), "sim seconds missing: {text}");
        assert!(text.contains("250.0"), "wall ms missing: {text}");
        assert!(text.contains("events/s"), "{text}");
    }
}
