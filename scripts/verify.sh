#!/usr/bin/env bash
# Tier-1 verification gate: everything must pass before a commit lands.
#   1. release build of the whole workspace (all targets)
#   2. full workspace test suite, then the ptbench package's own tests
#      (its artifact-digest gates among them) with --locked, so a change
#      that would rewrite the benchmark's Cargo.lock fails here; they run
#      on parallel test threads, since the perf counters they read count
#      per calling thread, including the pools it ran
#   2a. paper-scale output pins: the benchmark's own command for each
#      ptbench workload at seed 42 must print its pinned artifact digest
#   2b. formatting: `cargo fmt --all --check` (the workspace's members;
#      the standalone ptbench package is not one of them)
#   3. clippy with warnings promoted to errors
#   4. repro observability smoke run (--profile/--trace/--metrics),
#      plus the hist-report smoke (--hist: valid JSON, non-empty
#      per-PT phase histograms, finite quantiles) and the Chrome-trace
#      smoke (--trace-chrome: parses, first event is process metadata)
#   4a. whole-repro determinism smoke: every target at 1 and at 2
#      workers, three times — at quick scale with --csv, --trace and
#      --hist (also at 3 workers: two spawned threads beside the calling
#      thread), at quick scale with --faults and the same outputs, and at
#      paper scale (stdout only); stdout after the header line (which
#      names the worker count), the CSV directories, the traces and the
#      hist reports must match the 1-worker run's
#   4b. fault smoke: the fault-neutrality suite plus a seeded
#      `repro --faults` run whose trace must carry consistent fault
#      counters (injected == retried + recovered + gave_up)
#   5. perf smoke: repro --bench flow emitting BENCH_flow.json (fails on
#      panic or non-finite output, never on speed thresholds); every warm
#      class keeps allocs_per_step == 0
#   6. establish smoke: repro --bench establish emitting
#      BENCH_establish.json (panics and non-finite values fail, never
#      speed thresholds); every class resolves >= 99% of its relay picks
#      on the consensus index (index_pick_fraction), and resolves at most
#      3 picks per vanilla_* establish and exactly 2 per obfs4_*
#      establish (picks_per_establish)
#   7. unit smoke: repro --bench unit emitting BENCH_unit.json;
#      additionally asserts every warm class shows allocs_per_unit == 0 —
#      the one structural property the pooled pipeline promises
#   8. bench regression gate: `repro --check-bench` compares the fresh
#      bench output against the committed BENCH_*.json baselines with a
#      relative-tolerance + minimum-run-count rule (2.5x; a baseline
#      entry missing from the fresh output fails too;
#      PTPERF_BENCH_DRIFT=warn to report without failing) and fails the
#      gate on a regression verdict
set -euo pipefail
cd "$(dirname "$0")/.."

# A bench JSON must never carry NaN/Infinity — the emitter renders
# non-finite numbers as null and a null in a p50 means the bench broke.
check_finite() {
  test -s "$1"
  if grep -qi "nan\|inf" "$1"; then
    echo "$(basename "$1") contains non-finite values" >&2
    exit 1
  fi
}

echo "== build (release, all targets) =="
cargo build --release --workspace --all-targets

echo "== test (workspace) =="
cargo test --workspace -q

echo "== test (ptbench package, locked) =="
cargo test -q --locked --manifest-path crates/bench/src/bin/ptbench/Cargo.toml

echo "== ptbench paper-scale digests (seed 42) =="
# Each workload folds every artifact it renders at paper scale into one
# digest. A deliberate output change updates these pins and says why in
# CHANGES.md, as with CAMPAIGN_DIGEST in tests/executor_equivalence.rs.
for pin in corpus_paper:86ec0eb2d06bb6c7 browser_paper:7e4484bc1b9674b2 bulk_seeds:516d1c6d15191436; do
  workload="${pin%%:*}" want="${pin#*:}"
  got="$(cargo run --release --offline --locked --quiet \
    --manifest-path crates/bench/src/bin/ptbench/Cargo.toml -- \
    --workload "$workload" --seconds 0 --trace 0 |
    awk -v w="$workload" '$1 == w && $2 == "digest" { print $3 }')"
  if [ "$got" != "$want" ]; then
    echo "ptbench $workload digest is '$got', pinned at $want" >&2
    exit 1
  fi
done

echo "== rustfmt (--check) =="
cargo fmt --all --check

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== repro observability smoke (fig6) =="
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
cargo run --release -q -p ptperf-bench --bin repro -- \
  --profile --trace "$obs_dir/trace.jsonl" --metrics "$obs_dir/metrics.json" \
  --hist "$obs_dir/hist.json" --trace-chrome "$obs_dir/chrome.json" \
  fig6 > "$obs_dir/out.txt"
grep -q "Profile —" "$obs_dir/out.txt"
test -s "$obs_dir/trace.jsonl"
test -s "$obs_dir/metrics.json"
repro() { cargo run --release -q -p ptperf-bench --bin repro -- "$@"; }

echo "== hist report smoke (valid JSON, per-PT phase hists, finite quantiles) =="
repro --json-check "$obs_dir/hist.json"
grep -q '"schema":"ptperf-hist/v1"' "$obs_dir/hist.json"
grep -q '"pt":"' "$obs_dir/hist.json"
grep -q '"phase":"handshake"' "$obs_dir/hist.json"
# Quantiles are integer nanoseconds; a null would mean a non-finite
# value leaked into the report, and a zero count an empty histogram.
if grep -q 'null' "$obs_dir/hist.json" || grep -q '"count":0[,}]' "$obs_dir/hist.json"; then
  echo "hist report carries empty histograms or non-finite values" >&2
  exit 1
fi

echo "== chrome trace smoke (parses; first event is process metadata) =="
repro --json-check "$obs_dir/chrome.json"
# One event per line, process-name metadata record first.
sed -n '2p' "$obs_dir/chrome.json" | grep -q '"name":"process_name".*"ph":"M"'
grep -q '"ph":"X"' "$obs_dir/chrome.json"
grep -q '"ph":"C"' "$obs_dir/chrome.json"

echo "== whole-repro determinism smoke (all targets, 1 vs 2 and 3 workers) =="
# determinism_lane LANE files|stdout "COUNTS" [FLAGS...]: runs every
# target with FLAGS at 1 worker and at each worker count in COUNTS.
# Stdout after the header line must match the 1-worker run's; with
# `files` every run also writes --csv, --trace and --hist, and each must
# match the 1-worker run's too. All targets share one executor pool, so
# the trace and hist check that shard numbering stays within a family.
determinism_lane() {
  local lane="$1" keep="$2" counts="$3" w
  shift 3
  for w in 1 $counts; do
    local files=()
    if [ "$keep" = files ]; then
      files=(--csv "$obs_dir/${lane}_csv$w" --trace "$obs_dir/${lane}_$w.jsonl"
        --hist "$obs_dir/${lane}_$w.hist.json")
    fi
    repro --quiet "${files[@]}" --workers "$w" "$@" > "$obs_dir/${lane}_$w.txt"
  done
  for w in $counts; do
    cmp <(tail -n +2 "$obs_dir/${lane}_1.txt") <(tail -n +2 "$obs_dir/${lane}_$w.txt")
    if [ "$keep" = files ]; then
      diff -r "$obs_dir/${lane}_csv1" "$obs_dir/${lane}_csv$w"
      cmp "$obs_dir/${lane}_1.jsonl" "$obs_dir/${lane}_$w.jsonl"
      cmp "$obs_dir/${lane}_1.hist.json" "$obs_dir/${lane}_$w.hist.json"
    fi
  done
}
# Three workers are two spawned threads beside the calling thread.
determinism_lane quick files "2 3"
determinism_lane faults files 2 --faults
determinism_lane paper stdout 2 --paper

echo "== fault smoke (neutrality + seeded plan counters) =="
cargo test --release -q --test fault_neutrality > /dev/null
cargo run --release -q -p ptperf-bench --bin repro -- \
  --faults --trace "$obs_dir/fault_trace.jsonl" fig8a > "$obs_dir/fault_out.txt"
grep -q '"key":"fault/injected"' "$obs_dir/fault_trace.jsonl"
# The disposition identity: every injected fault is retried, recovered,
# or given up on — nothing is dropped on the floor.
awk -F'"value":' '
  /"key":"fault\/injected"/  { split($2, v, /[,}]/); injected  += v[1] }
  /"key":"fault\/retried"/   { split($2, v, /[,}]/); retried   += v[1] }
  /"key":"fault\/recovered"/ { split($2, v, /[,}]/); recovered += v[1] }
  /"key":"fault\/gave_up"/   { split($2, v, /[,}]/); gave_up   += v[1] }
  END {
    if (injected == 0 || injected != retried + recovered + gave_up) {
      printf "fault counters inconsistent: injected=%d retried=%d recovered=%d gave_up=%d\n", \
        injected, retried, recovered, gave_up > "/dev/stderr"
      exit 1
    }
  }' "$obs_dir/fault_trace.jsonl"

echo "== perf smoke (repro --bench flow) =="
PTPERF_BENCH_RUNS=40 cargo run --release -q -p ptperf-bench --bin repro -- \
  --bench flow --bench-out "$obs_dir/BENCH_flow.json" > "$obs_dir/bench_out.txt"
check_finite "$obs_dir/BENCH_flow.json"
# Structural gate (one class per JSON line): warm steps must never grow
# the loop's buffers.
awk '
  /"name":/ {
    n = $0;  sub(/.*"name": "/, "", n);            sub(/".*/, "", n)
    al = $0; sub(/.*"allocs_per_step": /, "", al); sub(/[,}].*/, "", al)
    if (al + 0 != 0) {
      printf "class %s allocates warm: allocs_per_step=%s\n", n, al > "/dev/stderr"
      bad = 1
    }
  }
  END { exit bad }' "$obs_dir/BENCH_flow.json"

echo "== perf smoke (repro --bench establish) =="
PTPERF_BENCH_RUNS=20 cargo run --release -q -p ptperf-bench --bin repro -- \
  --bench establish --bench-out "$obs_dir/BENCH_establish.json" > "$obs_dir/establish_out.txt"
check_finite "$obs_dir/BENCH_establish.json"
# Structural gate (one class per JSON line): picks resolve by binary
# search, not the dense scan. The bench runs each class on the calling
# thread, and the pick counters behind the fraction count per thread,
# so they are exact. A guard sample resolves only the guard it uses, so
# these establishes never resolve its growing exclude sets;
# crates/tor/tests/path_equivalence.rs covers those.
awk '
  /"index_pick_fraction":/ {
    n = $0; sub(/.*"name": "/, "", n);                sub(/".*/, "", n)
    f = $0; sub(/.*"index_pick_fraction": /, "", f); sub(/[,}].*/, "", f)
    classes++
    if (f + 0 < 0.99) {
      printf "class %s resolves too few picks on the index: index_pick_fraction=%s\n", n, f > "/dev/stderr"
      bad = 1
    }
  }
  END { if (classes == 0) { print "no establish classes found" > "/dev/stderr"; bad = 1 }; exit bad }' \
  "$obs_dir/BENCH_establish.json"
# Deterministic pick counts: a volunteer-guard establish resolves one
# guard pick plus its exit and middle (the sample's other draws are
# taken unused); a bridge establish resolves only the exit and middle.
awk '
  /"picks_per_establish":/ {
    n = $0; sub(/.*"name": "/, "", n);                sub(/".*/, "", n)
    p = $0; sub(/.*"picks_per_establish": /, "", p); sub(/[,}].*/, "", p)
    vanilla += (n ~ /^vanilla_/); obfs4 += (n ~ /^obfs4_/)
    if ((n ~ /^vanilla_/ && p + 0 > 3) || (n ~ /^obfs4_/ && p + 0 != 2)) {
      printf "class %s resolves %s picks per establish (vanilla_*: at most 3, obfs4_*: exactly 2)\n", n, p > "/dev/stderr"
      bad = 1
    }
  }
  END {
    if (vanilla == 0 || obfs4 == 0) { print "no vanilla_* or obfs4_* establish class found" > "/dev/stderr"; bad = 1 }
    exit bad
  }' "$obs_dir/BENCH_establish.json"

echo "== perf smoke (repro --bench unit) =="
PTPERF_BENCH_RUNS=20 cargo run --release -q -p ptperf-bench --bin repro -- \
  --bench unit --bench-out "$obs_dir/BENCH_unit.json" > "$obs_dir/unit_out.txt"
check_finite "$obs_dir/BENCH_unit.json"
# The one structural promise the pooled pipeline makes: warm units never
# grow their scratch. Any non-zero allocs_per_unit is a regression.
while read -r allocs; do
  if [ "$allocs" != "0" ]; then
    echo "warm unit pipeline allocates: allocs_per_unit=$allocs" >&2
    exit 1
  fi
done < <(grep -o '"allocs_per_unit": [0-9.eE+-]*' "$obs_dir/BENCH_unit.json" | awk '{print $2}')

echo "== bench regression gate vs committed baselines =="
# The statistically-gated replacement for the old warn-only awk 2x
# heuristic: pairs every *p50_us by structural path, skips fresh docs
# with too few runs, ignores sub-microsecond jitter, and fails on a
# slowdown past the tolerance or a baseline entry the fresh docs lack.
# PTPERF_BENCH_DRIFT=warn downgrades the gate to a report for
# cross-machine baseline refreshes.
repro --check-bench "$obs_dir" | tee "$obs_dir/bench_verdict.json"
repro --json-check "$obs_dir/bench_verdict.json"
grep -q '"verdict":"pass"\|"verdict":"warn"' "$obs_dir/bench_verdict.json"

echo "== verify: all gates passed =="
