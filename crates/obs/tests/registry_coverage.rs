//! The counter registry and the code cannot drift apart: this test
//! greps every non-test source file in the workspace for counter
//! emission sites (`Recorder::add("...")` literals plus the documented
//! `perf` counters) and checks the set equals the registry in
//! `ptperf_obs::registry` — in both directions, so an undocumented new
//! key fails just like a stale registry row.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use ptperf_obs::registry::{keys, CounterKind};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `src/` Rust file of every workspace crate, skipping the
/// vendored offline shims (their sources are third-party idiom, not
/// ours) and everything under `tests/`/`benches/` by construction.
fn crate_sources() -> Vec<PathBuf> {
    let crates_dir = workspace_root().join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates_dir).expect("crates dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == "proptest" || name == "criterion" {
            continue;
        }
        collect_rs(&entry.path().join("src"), &mut files);
    }
    assert!(files.len() > 20, "source scan looks broken: {files:?}");
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The production half of a source file: everything before the first
/// `#[cfg(test)]`, so test-only scaffolding counters don't need
/// registry rows.
fn production_text(path: &Path) -> String {
    let src = std::fs::read_to_string(path).expect("readable source");
    let cut = src.find("#[cfg(test)]").unwrap_or(src.len());
    // Collapse whitespace so multi-line `.add(\n  "key",` calls match.
    src[..cut].split_whitespace().collect::<Vec<_>>().join(" ")
}

/// All string-literal keys passed to `.add("...")` in `text`.
fn add_keys(text: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(".add(") {
        rest = &rest[pos + ".add(".len()..];
        let arg = rest.trim_start();
        if let Some(lit) = arg.strip_prefix('"') {
            if let Some(end) = lit.find('"') {
                found.push(lit[..end].to_string());
            }
        }
    }
    found
}

#[test]
fn every_emitted_trace_counter_is_registered_and_vice_versa() {
    let mut emitted = BTreeSet::new();
    let mut sites: Vec<(String, PathBuf)> = Vec::new();
    for path in crate_sources() {
        for key in add_keys(&production_text(&path)) {
            sites.push((key.clone(), path.clone()));
            emitted.insert(key);
        }
    }
    assert!(
        emitted.contains("sim_ns") && emitted.contains("events"),
        "scan failed to find the canonical keys; found {emitted:?}"
    );
    let registered: BTreeSet<String> = keys(CounterKind::Trace).map(str::to_string).collect();
    let undocumented: Vec<_> = sites
        .iter()
        .filter(|(k, _)| !registered.contains(k))
        .collect();
    assert!(
        undocumented.is_empty(),
        "counter keys emitted but missing from ptperf_obs::registry::COUNTERS:\n{undocumented:#?}"
    );
    let stale: Vec<_> = registered.difference(&emitted).collect();
    assert!(
        stale.is_empty(),
        "registry rows no source file emits (delete or fix them): {stale:?}"
    );
}

#[test]
fn perf_registry_matches_the_documented_atomics() {
    // The perf counters are struct fields, not string literals; their
    // keys live in the `/// Counts one `key`` doc lines of perf.rs.
    let perf_src =
        std::fs::read_to_string(workspace_root().join("crates/obs/src/perf.rs")).expect("perf.rs");
    let mut documented = BTreeSet::new();
    for line in perf_src.lines() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with("/// Counts") {
            continue;
        }
        // `Counts one `key`` and `Counts `n` `key``: take every
        // backtick span and keep the slash-shaped ones.
        let mut rest = trimmed;
        while let Some(start) = rest.find('`') {
            rest = &rest[start + 1..];
            let Some(len) = rest.find('`') else { break };
            let key = &rest[..len];
            if key.contains('/') {
                documented.insert(key.to_string());
            }
            rest = &rest[len + 1..];
        }
    }
    let registered: BTreeSet<String> = keys(CounterKind::Perf).map(str::to_string).collect();
    assert_eq!(
        documented, registered,
        "perf.rs documented counters and the Perf registry rows diverged"
    );
}
