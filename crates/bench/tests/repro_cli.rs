//! Bad input to `repro` ends in an error exit with one message, never a
//! panic: malformed flags and unknown targets exit 2 before any work,
//! and an output file that cannot be written exits 1. `--csv` writes
//! each selected family's files once.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> (Output, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out, stderr)
}

#[test]
fn malformed_invocations_exit_2_with_one_line() {
    for args in [
        &["nosuchtarget"][..],
        &["--seed", "abc", "table1"],
        &["--csv"],
        &["--bench-engine"],
        &["--bench", "nosuch"],
        &["--bench"],
        &["--bench-out", "x", "table1"],
        &["--bench-flow"],
        &["--bench", "unit", "--bench", "flow"],
        &["--check-bench", "/nonexistent/ptperf-fresh-bench"],
    ] {
        rejected(args);
    }
    // A flag given twice, or one repro does not know, is named as a
    // flag, never as a target.
    for (args, flag) in [
        (&["--seed", "1", "--seed", "2", "table1"][..], "--seed"),
        (&["--paper", "--paper"], "--paper"),
        (&["--workers", "2", "--workers", "2"], "--workers"),
        (&["--bogus"], "--bogus"),
    ] {
        let stderr = rejected(args);
        assert!(
            stderr.contains(&format!("'{flag}'")) && !stderr.contains("target"),
            "repro {args:?}: {stderr}"
        );
    }
    // A mode flag reads no target and no flag but its own, --quiet and
    // -v (and --bench its --bench-out): anything else is named, and
    // nothing runs.
    for (args, name) in [
        (&["--bench", "flow", "--trace", "t.jsonl"][..], "--trace"),
        (&["--bench", "flow", "--paper"], "--paper"),
        (&["--bench", "flow", "--seed", "7"], "--seed"),
        (&["--bench", "flow", "--workers", "2"], "--workers"),
        (&["--quiet", "--bench", "flow", "--faults"], "--faults"),
        (&["--bench", "flow", "table1"], "table1"),
        (&["--json-check", "ok.json", "fig2a"], "fig2a"),
        (
            &["--json-check", "ok.json", "--trace", "t.jsonl"],
            "--trace",
        ),
        (
            &["-v", "--json-check", "ok.json", "--bench-out", "x"],
            "--bench-out",
        ),
        (&["--check-bench", ".", "--csv", "d"], "--csv"),
        (&["--check-bench", ".", "fig6"], "fig6"),
        (&["--check-bench", ".", "--bench", "flow"], "--bench"),
    ] {
        let stderr = rejected(args);
        assert!(
            stderr.contains(&format!("'{name}'")),
            "repro {args:?}: {stderr}"
        );
    }
    let doc = std::env::temp_dir().join(format!("ptperf-repro-json-{}", std::process::id()));
    std::fs::write(&doc, "{}").expect("write JSON document");
    let (out, stderr) = repro(&[
        "--quiet",
        "--json-check",
        doc.to_str().expect("utf-8 path"),
        "-v",
    ]);
    std::fs::remove_file(&doc).expect("remove JSON document");
    assert_eq!(
        out.status.code(),
        Some(0),
        "--quiet and -v go with any mode: {stderr}"
    );
    // A flag that takes a value takes the argument right after it: a
    // missing value, or another flag in its place, is that flag's error.
    for (args, flag) in [
        (&["--trace", "--paper", "fig2a"][..], "--trace"),
        (&["--csv", "--hist", "h.json", "fig6"], "--csv"),
    ] {
        let stderr = rejected(args);
        assert!(
            stderr.starts_with(&format!("[error] {flag} requires ")),
            "repro {args:?}: {stderr}"
        );
    }
}

/// Runs `repro` on `args`, asserts it exits 2 with one stderr line and
/// no output, and returns that stderr.
fn rejected(args: &[&str]) -> String {
    let (out, stderr) = repro(args);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "repro {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "repro {args:?} ran before rejecting its input"
    );
    stderr
}

#[test]
fn unwritable_output_paths_exit_1_naming_the_flag() {
    // A regular file as the parent directory cannot be written through,
    // whatever the user's permissions.
    let blocker = std::env::temp_dir().join(format!("ptperf-repro-cli-{}", std::process::id()));
    std::fs::write(&blocker, "").expect("create blocker file");
    let runs = [("--trace", "t.jsonl"), ("--csv", "csv-dir")].map(|(flag, leaf)| {
        let path = blocker.join(leaf);
        let run = repro(&[flag, path.to_str().expect("utf-8 path"), "table1"]);
        (flag, leaf, run)
    });
    std::fs::remove_file(&blocker).expect("remove blocker file");
    for (flag, leaf, (out, stderr)) in runs {
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        let errors: Vec<&str> = stderr
            .lines()
            .filter(|l| l.starts_with("[error]"))
            .collect();
        assert_eq!(errors.len(), 1, "{stderr}");
        assert!(
            errors[0].contains(flag) && errors[0].contains(leaf),
            "{stderr}"
        );
    }
}

#[test]
fn csv_writes_each_selected_family_file_once() {
    let dir = std::env::temp_dir().join(format!("ptperf-repro-csv-{}", std::process::id()));
    let (out, stderr) = repro(&[
        "--quiet",
        "--csv",
        dir.to_str().expect("utf-8 path"),
        "fig2a",
        "table7",
        "fig8b",
        "medium",
    ]);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let mut written: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("--csv directory exists")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let text = std::fs::read_to_string(&path).expect("readable CSV file");
            let header = text.lines().next().unwrap_or_default().to_string();
            let name = path.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), header)
        })
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove --csv directory");
    written.sort();
    let (samples, ttests) = ("pt,target,seconds", "pair,ci_lower,ci_upper,t,p,mean_diff");
    let mut expected: Vec<(String, String)> = [
        ("fig2a_samples", samples),
        ("tables_3_4_ttests", ttests),
        ("table_10_categories", ttests),
        ("fig5_samples", samples),
        ("table_7_ttests", ttests),
        ("fig8a_reliability", "pt,complete,partial,failed"),
    ]
    .iter()
    .map(|(stem, header)| (format!("{stem}.csv"), header.to_string()))
    .collect();
    expected.sort();
    assert_eq!(written, expected);
}
