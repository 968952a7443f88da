//! The bench-regression gate behind `repro --check-bench`.
//!
//! The committed `BENCH_*.json` baselines record what the optimized
//! hot paths cost on the machine that produced them. This module
//! parses a baseline document and a freshly generated one (with the
//! hand-rolled `ptperf_obs::json` parser — the build is offline),
//! pairs up every `*p50_us` entry by its structural path, and applies
//! a relative-tolerance rule with two statistical guards:
//!
//! * **Minimum run count** — a fresh document whose `runs_per_class`
//!   is below the floor is skipped entirely: a p50 over a handful of
//!   runs is noise, and gating on it would make `verify.sh` flaky.
//! * **Absolute floor** — a pair only counts as a regression when the
//!   drift also exceeds an absolute microsecond delta, so
//!   sub-microsecond entries (e.g. memo-cache hits) can't trip the
//!   gate on scheduler jitter.
//!
//! Only *slowdowns* fail the gate (`fresh > baseline × tolerance`);
//! speedups beyond the same tolerance are reported informationally so
//! a stale baseline is visible without blocking an optimization PR. A
//! baseline entry with no fresh counterpart (a deleted or renamed bench
//! class) is listed as missing and fails the gate like a regression, and
//! so does a run that compared nothing because no baseline file had a
//! readable fresh copy.
//! The one knob is `PTPERF_BENCH_DRIFT` (`fail` | `warn`, default
//! `fail` — `warn` reports but exits zero, for refreshing baselines on
//! new hardware). The verdict is a machine-readable JSON document
//! (`ptperf-bench-regress/v1`); the old warn-only 2x awk heuristic in
//! `verify.sh` routed here.

use std::path::Path;

use ptperf_obs::json::{self, Value};

/// Relative tolerance: a pair regresses when
/// `fresh > baseline * TOLERANCE`.
pub const TOLERANCE: f64 = 2.5;
/// Absolute floor in microseconds: drift below this never counts.
pub const MIN_ABS_US: f64 = 1.0;
/// Fresh documents with fewer `runs_per_class` than this are skipped
/// (not compared at all).
pub const MIN_RUNS: f64 = 10.0;

/// Whether drift fails the gate: `true` unless `PTPERF_BENCH_DRIFT` is
/// `warn`, in which case regressions and missing entries are reported
/// but the gate passes.
pub fn fail_mode_from_env() -> bool {
    std::env::var("PTPERF_BENCH_DRIFT").map_or(true, |mode| mode != "warn")
}

/// One paired entry whose drift exceeded the tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDrift {
    /// Structural path of the entry, e.g.
    /// `classes/browser_64/optimized/p50_us`.
    pub path: String,
    /// Committed baseline value (µs).
    pub baseline_us: f64,
    /// Freshly measured value (µs).
    pub fresh_us: f64,
    /// `fresh / baseline`.
    pub ratio: f64,
}

/// The gate's result for one baseline/fresh file pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FileReport {
    /// Baseline file name, e.g. `BENCH_flow.json`.
    pub file: String,
    /// `runs_per_class` of the fresh document (0 when absent).
    pub runs: f64,
    /// Number of `*p50_us` pairs present in both documents.
    pub compared: usize,
    /// Why the file was skipped instead of compared, if it was.
    pub skipped: Option<String>,
    /// Baseline `*p50_us` paths the fresh document lacks (fail the
    /// gate).
    pub missing: Vec<String>,
    /// Pairs that got slower past the tolerance (fail the gate).
    pub regressions: Vec<PairDrift>,
    /// Pairs that got faster past the tolerance (informational).
    pub improvements: Vec<PairDrift>,
}

/// Collects every `*p50_us` numeric field of `doc` as
/// `(structural path, value)` pairs. Path segments are object keys,
/// with a class object's `"name"` field spliced in so array entries
/// stay identifiable (`classes/browser_64/optimized/p50_us`).
pub fn collect_p50(doc: &Value) -> Vec<(String, f64)> {
    fn walk(v: &Value, prefix: &str, out: &mut Vec<(String, f64)>) {
        match v {
            Value::Obj(fields) => {
                let labeled = match v.get("name").and_then(Value::as_str) {
                    Some(name) if prefix.is_empty() => name.to_string(),
                    Some(name) => format!("{prefix}/{name}"),
                    None => prefix.to_string(),
                };
                for (k, val) in fields {
                    if k == "name" {
                        continue;
                    }
                    let path = if labeled.is_empty() {
                        k.clone()
                    } else {
                        format!("{labeled}/{k}")
                    };
                    match val {
                        Value::Num(x) if k.ends_with("p50_us") => out.push((path, *x)),
                        _ => walk(val, &path, out),
                    }
                }
            }
            Value::Arr(items) => {
                for item in items {
                    walk(item, prefix, out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(doc, "", &mut out);
    out
}

/// Compares one baseline document against its fresh counterpart.
pub fn compare_docs(file: &str, baseline: &Value, fresh: &Value) -> FileReport {
    let mut report = FileReport {
        file: file.to_string(),
        runs: fresh
            .get("runs_per_class")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        ..FileReport::default()
    };
    if report.runs < MIN_RUNS {
        report.skipped = Some(format!(
            "fresh runs_per_class {} below minimum {MIN_RUNS}",
            report.runs
        ));
        return report;
    }
    let base_entries = collect_p50(baseline);
    let fresh_entries = collect_p50(fresh);
    for (path, base_us) in &base_entries {
        let Some((_, fresh_us)) = fresh_entries.iter().find(|(p, _)| p == path) else {
            report.missing.push(path.clone());
            continue;
        };
        report.compared += 1;
        if *base_us <= 0.0 || *fresh_us <= 0.0 {
            continue;
        }
        let drift = PairDrift {
            path: path.clone(),
            baseline_us: *base_us,
            fresh_us: *fresh_us,
            ratio: fresh_us / base_us,
        };
        if *fresh_us > base_us * TOLERANCE && fresh_us - base_us > MIN_ABS_US {
            report.regressions.push(drift);
        } else if *base_us > fresh_us * TOLERANCE && base_us - fresh_us > MIN_ABS_US {
            report.improvements.push(drift);
        }
    }
    report
}

/// Runs the gate over every `BENCH_*.json` in `baseline_dir`, pairing
/// each with the same-named file in `fresh_dir`. The gate trips on a
/// regression, on a missing entry, or when no baseline was paired with
/// a readable fresh copy (nothing was compared). Returns the verdict
/// document and, when the gate fails, why (it never fails when
/// `fail_mode` is off).
pub fn check_dirs(
    baseline_dir: &Path,
    fresh_dir: &Path,
    fail_mode: bool,
) -> (String, Result<(), String>) {
    let mut names: Vec<String> = std::fs::read_dir(baseline_dir)
        .ok()
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    let mut reports = Vec::new();
    let mut paired = 0;
    for name in &names {
        let base_path = baseline_dir.join(name);
        let fresh_path = fresh_dir.join(name);
        let mut report = FileReport {
            file: name.clone(),
            ..FileReport::default()
        };
        match (read_doc(&base_path), read_doc(&fresh_path)) {
            (Ok(base), Ok(fresh)) => {
                paired += 1;
                report = compare_docs(name, &base, &fresh);
            }
            (Err(e), _) => report.skipped = Some(format!("baseline unreadable: {e}")),
            (_, Err(e)) => report.skipped = Some(format!("fresh copy unreadable: {e}")),
        }
        reports.push(report);
    }
    let regressions: usize = reports.iter().map(|r| r.regressions.len()).sum();
    let missing: usize = reports.iter().map(|r| r.missing.len()).sum();
    let mut causes = Vec::new();
    if regressions > 0 {
        causes.push(format!("p50 regressions past {TOLERANCE}x: {regressions}"));
    }
    if missing > 0 {
        causes.push(format!(
            "baseline entries missing from the fresh files: {missing}"
        ));
    }
    if paired == 0 {
        causes.push(format!(
            "nothing compared: no BENCH_*.json baseline in {} has a readable fresh copy in {}",
            baseline_dir.display(),
            fresh_dir.display()
        ));
    }
    let verdict = match (causes.is_empty(), fail_mode) {
        (true, _) => "pass",
        (false, true) => "fail",
        (false, false) => "warn",
    };
    let gate = if verdict == "fail" {
        Err(causes.join("; "))
    } else {
        Ok(())
    };
    (render_report(&reports, fail_mode, verdict), gate)
}

fn read_doc(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Renders the machine-readable verdict (`ptperf-bench-regress/v1`).
pub fn render_report(reports: &[FileReport], fail_mode: bool, verdict: &str) -> String {
    let drifts = |list: &[PairDrift]| {
        list.iter()
            .map(|d| {
                format!(
                    "{{\"path\":{},\"baseline_us\":{},\"fresh_us\":{},\"ratio\":{}}}",
                    json::string(&d.path),
                    json::number(d.baseline_us),
                    json::number(d.fresh_us),
                    json::number(d.ratio)
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let files = reports
        .iter()
        .map(|r| {
            let skipped = match &r.skipped {
                Some(reason) => json::string(reason),
                None => "null".to_string(),
            };
            let missing: Vec<String> = r.missing.iter().map(|p| json::string(p)).collect();
            format!(
                "{{\"file\":{},\"runs\":{},\"compared\":{},\"skipped\":{},\"missing\":[{}],\"regressions\":[{}],\"improvements\":[{}]}}",
                json::string(&r.file),
                json::number(r.runs),
                r.compared,
                skipped,
                missing.join(","),
                drifts(&r.regressions),
                drifts(&r.improvements)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"schema\":\"ptperf-bench-regress/v1\",\"tolerance\":{},\"min_abs_us\":{},\"min_runs\":{},\"mode\":{},\"files\":[{files}],\"verdict\":{}}}\n",
        json::number(TOLERANCE),
        json::number(MIN_ABS_US),
        json::number(MIN_RUNS),
        json::string(if fail_mode { "fail" } else { "warn" }),
        json::string(verdict)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_doc(p50: f64) -> Value {
        json::parse(&format!(
            "{{\"schema\":\"ptperf-bench-flow/v1\",\"runs_per_class\":400,\
             \"classes\":[{{\"name\":\"browser_64\",\"optimized\":{{\"p50_us\":{p50},\"p95_us\":50.0}},\
             \"reference\":{{\"p50_us\":300.0}}}}],\
             \"sites\":{{\"cached_p50_us\":0.05}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn collects_p50_entries_with_structural_paths() {
        let entries = collect_p50(&bench_doc(27.0));
        let paths: Vec<&str> = entries.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "classes/browser_64/optimized/p50_us",
                "classes/browser_64/reference/p50_us",
                "sites/cached_p50_us",
            ]
        );
        assert_eq!(entries[0].1, 27.0);
    }

    #[test]
    fn identical_docs_pass() {
        let doc = bench_doc(27.0);
        let report = compare_docs("BENCH_flow.json", &doc, &doc);
        assert_eq!(report.compared, 3);
        assert!(report.regressions.is_empty());
        assert!(report.improvements.is_empty());
        assert!(report.skipped.is_none());
    }

    #[test]
    fn injected_3x_regression_fails() {
        let base = bench_doc(27.0);
        let fresh = bench_doc(81.0);
        let report = compare_docs("BENCH_flow.json", &base, &fresh);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(
            report.regressions[0].path,
            "classes/browser_64/optimized/p50_us"
        );
        assert!((report.regressions[0].ratio - 3.0).abs() < 1e-9);
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let base = bench_doc(27.0);
        let fresh = bench_doc(54.0); // 2x < default 2.5x
        let report = compare_docs("BENCH_flow.json", &base, &fresh);
        assert!(report.regressions.is_empty());
    }

    #[test]
    fn sub_microsecond_drift_is_ignored() {
        // cached_p50_us jumps 10x but the absolute delta is 0.45 µs,
        // under the 1 µs floor — noise, not a regression.
        let mut base = bench_doc(27.0);
        let fresh = bench_doc(27.0);
        if let Value::Obj(fields) = &mut base {
            if let Some((_, Value::Obj(sites))) = fields.iter_mut().find(|(k, _)| k == "sites") {
                sites[0].1 = Value::Num(0.005);
            }
        }
        let report = compare_docs("BENCH_flow.json", &base, &fresh);
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
    }

    #[test]
    fn large_speedup_is_informational_not_failing() {
        let base = bench_doc(81.0);
        let fresh = bench_doc(27.0);
        let report = compare_docs("BENCH_flow.json", &base, &fresh);
        assert!(report.regressions.is_empty());
        assert_eq!(report.improvements.len(), 1);
    }

    #[test]
    fn missing_class_is_listed() {
        // The fresh document dropped `mesh`: both of its p50 paths are
        // missing, and the surviving class still compares cleanly.
        let base = json::parse(
            "{\"runs_per_class\":400,\"classes\":[\
             {\"name\":\"browser_64\",\"optimized\":{\"p50_us\":27.0}},\
             {\"name\":\"mesh\",\"optimized\":{\"p50_us\":90.0},\"reference\":{\"p50_us\":400.0}}]}",
        )
        .unwrap();
        let fresh = json::parse(
            "{\"runs_per_class\":400,\"classes\":[\
             {\"name\":\"browser_64\",\"optimized\":{\"p50_us\":27.0}}]}",
        )
        .unwrap();
        let report = compare_docs("BENCH_flow.json", &base, &fresh);
        assert_eq!(
            report.missing,
            vec![
                "classes/mesh/optimized/p50_us".to_string(),
                "classes/mesh/reference/p50_us".to_string(),
            ]
        );
        assert_eq!(report.compared, 1);
        assert!(report.regressions.is_empty());
    }

    #[test]
    fn short_fresh_runs_are_skipped() {
        let base = bench_doc(27.0);
        let fresh = json::parse(
            "{\"runs_per_class\":3,\"classes\":[{\"name\":\"browser_64\",\
             \"optimized\":{\"p50_us\":500.0}}]}",
        )
        .unwrap();
        let report = compare_docs("BENCH_flow.json", &base, &fresh);
        assert!(report.skipped.is_some());
        assert_eq!(report.compared, 0);
        assert!(report.regressions.is_empty());
    }

    #[test]
    fn report_renders_valid_json_with_verdict() {
        let base = bench_doc(27.0);
        let fresh = bench_doc(81.0);
        let report = compare_docs("BENCH_flow.json", &base, &fresh);
        let doc = render_report(&[report], true, "fail");
        let v = json::parse(&doc).expect("verdict is valid JSON");
        assert_eq!(v.get("verdict").and_then(Value::as_str), Some("fail"));
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("ptperf-bench-regress/v1")
        );
        let files = v.get("files").and_then(Value::as_array).unwrap();
        assert_eq!(
            files[0]
                .get("regressions")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn check_dirs_gates_end_to_end() {
        let dir = std::env::temp_dir().join(format!("ptperf-regress-test-{}", std::process::id()));
        let base_dir = dir.join("base");
        let fresh_dir = dir.join("fresh");
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&fresh_dir).unwrap();
        let base = "{\"runs_per_class\":400,\"classes\":[{\"name\":\"c\",\"optimized\":{\"p50_us\":10.0}}]}";
        let slow = "{\"runs_per_class\":400,\"classes\":[{\"name\":\"c\",\"optimized\":{\"p50_us\":30.0}}]}";
        std::fs::write(base_dir.join("BENCH_x.json"), base).unwrap();
        std::fs::write(fresh_dir.join("BENCH_x.json"), slow).unwrap();
        let (doc, gate) = check_dirs(&base_dir, &fresh_dir, true);
        assert!(
            gate.unwrap_err().contains("p50 regressions past 2.5x: 1"),
            "{doc}"
        );
        assert!(doc.contains("\"verdict\":\"fail\""));
        // Warn mode reports the same drift but passes.
        let (doc, gate) = check_dirs(&base_dir, &fresh_dir, false);
        assert!(gate.is_ok());
        assert!(doc.contains("\"verdict\":\"warn\""));
        // A fresh copy without the class fails the same way.
        let empty = "{\"runs_per_class\":400,\"classes\":[]}";
        std::fs::write(fresh_dir.join("BENCH_x.json"), empty).unwrap();
        let (doc, gate) = check_dirs(&base_dir, &fresh_dir, true);
        assert!(
            gate.unwrap_err()
                .contains("entries missing from the fresh files: 1"),
            "{doc}"
        );
        assert!(doc.contains("\"missing\":[\"classes/c/optimized/p50_us\"]"));
        let (doc, gate) = check_dirs(&base_dir, &fresh_dir, false);
        assert!(gate.is_ok());
        assert!(doc.contains("\"verdict\":\"warn\""));
        // Identical copies pass outright, also when another baseline
        // has no fresh copy (gating a single fresh file).
        std::fs::write(fresh_dir.join("BENCH_x.json"), base).unwrap();
        std::fs::write(base_dir.join("BENCH_y.json"), base).unwrap();
        let (doc, gate) = check_dirs(&base_dir, &fresh_dir, true);
        assert!(gate.is_ok(), "{doc}");
        assert!(doc.contains("\"verdict\":\"pass\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_fresh_dir_compares_nothing_and_fails() {
        let dir = std::env::temp_dir().join(format!("ptperf-regress-empty-{}", std::process::id()));
        let base_dir = dir.join("base");
        let fresh_dir = dir.join("fresh");
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&fresh_dir).unwrap();
        let base = "{\"runs_per_class\":400,\"classes\":[{\"name\":\"c\",\"optimized\":{\"p50_us\":10.0}}]}";
        std::fs::write(base_dir.join("BENCH_x.json"), base).unwrap();
        let (doc, gate) = check_dirs(&base_dir, &fresh_dir, true);
        let cause = gate.unwrap_err();
        assert!(cause.contains("nothing compared"), "{cause}");
        assert!(cause.contains(&fresh_dir.display().to_string()), "{cause}");
        assert!(doc.contains("\"verdict\":\"fail\""), "{doc}");
        let (doc, gate) = check_dirs(&base_dir, &fresh_dir, false);
        assert!(gate.is_ok());
        assert!(doc.contains("\"verdict\":\"warn\""), "{doc}");
        // No baselines at all (run outside the repository root) is the
        // same failure.
        let (_, gate) = check_dirs(&fresh_dir, &fresh_dir, true);
        assert!(gate.unwrap_err().contains("nothing compared"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
