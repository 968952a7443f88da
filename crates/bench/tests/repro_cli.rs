//! Bad input to `repro` ends in an error exit with one message, never a
//! panic: malformed flags and unknown targets exit 2 before any work,
//! and an output file that cannot be written exits 1.

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
    ] {
        let (out, stderr) = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "repro {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "repro {args:?} ran before rejecting its input"
        );
    }
}

#[test]
fn unwritable_trace_path_exits_1_naming_the_flag() {
    // A regular file as the parent directory cannot be written through,
    // whatever the user's permissions.
    let blocker = std::env::temp_dir().join(format!("ptperf-repro-cli-{}", std::process::id()));
    std::fs::write(&blocker, "").expect("create blocker file");
    let path = blocker.join("t.jsonl");
    let (out, stderr) = repro(&["--trace", path.to_str().expect("utf-8 path"), "table1"]);
    std::fs::remove_file(&blocker).expect("remove blocker file");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("[error]"))
        .collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(
        errors[0].contains("--trace") && errors[0].contains("t.jsonl"),
        "{stderr}"
    );
}
