#!/usr/bin/env bash
# Engine v7 corpus smoke: warm replay and process sharding must be
# invisible in every output and the warm path must actually pay off.
#
# Runs the Table 2 harness four times in a scratch directory:
#
#   1. baseline   — no corpus, sequential (the reference rows);
#   2. cold       — fresh corpus file attached (records + saves);
#   3. warm       — same corpus file (replays the saved outcomes);
#   4. sharded    — no corpus, `--jobs 2` (two worker subprocesses
#                   plus the deterministic merge).
#
# and then asserts, via the BENCH_table2.json records the runs append:
#
#   * row identity — all four runs print byte-identical Table 2 rows
#     (a corpus or a shard merge may only ever change the wall clock);
#   * full warm coverage — the warm run serves every instruction from
#     the corpus (hits == tested instructions, misses == 0) while the
#     cold run serves none;
#   * warm payoff — the warm wall clock beats the cold one by at least
#     `warm_speedup_min` from ci/perf_expectations.json;
#   * totals — every run matches the committed Table 2 expectations;
#   * canonical encoding — the cold run's save reports
#     `corpus: N bytes written` and the warm run's re-save of the same
#     content reports `corpus: unchanged` (a section sort that is not
#     canonical would rewrite the file).
#
# Usage: ci/corpus_smoke_check.sh [--release]
set -euo pipefail

ci_dir="$(cd "$(dirname "$0")" && pwd)"
expect="$ci_dir/perf_expectations.json"

profile=()
if [ "${1:-}" = "--release" ]; then
    profile=(--release)
fi

scratch="$(mktemp -d "${TMPDIR:-/tmp}/igjit-corpus-smoke.XXXXXX")"
trap 'rm -rf "$scratch"' EXIT

# The harness writes table2.metrics.json and appends BENCH_table2.json
# in its cwd, so running from the scratch dir keeps the repo's own
# bench history out of this check (and vice versa). Stdout goes to
# $out, stderr to $out with .err for .out (and is echoed).
run_table2() {
    local out="$1"
    shift
    local status=0
    (cd "$scratch" && "$@" > "$out" 2> "${out%.out}.err") || status=$?
    cat "$scratch/${out%.out}.err" >&2
    return $status
}

table2=(cargo run --quiet "${profile[@]}" --manifest-path "$ci_dir/../Cargo.toml" \
        -p igjit-bench --bin table2 --)

echo "=== corpus-smoke: baseline (no corpus) ==="
IGJIT_THREADS=1 run_table2 baseline.out "${table2[@]}"
echo "=== corpus-smoke: cold run (fresh corpus) ==="
IGJIT_THREADS=1 IGJIT_CORPUS="$scratch/smoke.corpus" run_table2 cold.out "${table2[@]}"
echo "=== corpus-smoke: warm run (saved corpus) ==="
IGJIT_THREADS=1 IGJIT_CORPUS="$scratch/smoke.corpus" run_table2 warm.out "${table2[@]}"
echo "=== corpus-smoke: sharded run (--jobs 2) ==="
IGJIT_THREADS=1 run_table2 jobs.out "${table2[@]}" --jobs 2

# Row identity across all four runs, on the printed table itself.
rows() {
    grep -E "Native Methods|BC Compiler|Meta-Compiled|meta tier coverage|^Total" "$scratch/$1"
}
rows baseline.out > "$scratch/baseline.rows"
for other in cold warm jobs; do
    rows "$other.out" > "$scratch/$other.rows"
    if ! diff -u "$scratch/baseline.rows" "$scratch/$other.rows"; then
        echo "corpus-smoke: $other run printed different Table 2 rows" >&2
        exit 1
    fi
done
echo "corpus-smoke: all four runs print identical Table 2 rows"

# Canonical encoding: the cold run writes the corpus, the warm run's
# re-save of the same content must find the file unchanged. Progress
# lines on stderr use \r, so match anywhere on a line.
if ! grep -Eq "corpus: [0-9]+ bytes written" "$scratch/cold.err"; then
    echo "corpus-smoke: cold run did not report 'corpus: N bytes written'" >&2
    exit 1
fi
if ! grep -q "corpus: unchanged" "$scratch/warm.err"; then
    echo "corpus-smoke: warm re-save rewrote the corpus (encoding not canonical)" >&2
    exit 1
fi
echo "corpus-smoke: cold run wrote the corpus, warm re-save left it unchanged"

python3 - "$scratch/BENCH_table2.json" "$expect" <<'PY'
import json
import sys

bench_path, expect_path = sys.argv[1:3]
with open(expect_path) as f:
    expect = json.load(f)
with open(bench_path) as f:
    records = [json.loads(line) for line in f if line.strip()]
if len(records) != 4:
    sys.exit(f"corpus-smoke: expected 4 bench records, found {len(records)}")
baseline, cold, warm, sharded = records

for label, rec in (("baseline", baseline), ("cold", cold),
                   ("warm", warm), ("sharded", sharded)):
    for key in ("tested_instructions", "interpreter_paths",
                "curated_paths", "differences"):
        if rec["table2"][key] != expect[key]:
            sys.exit(
                f"corpus-smoke: {label} run drifted: {key} expected "
                f"{expect[key]}, got {rec['table2'][key]}"
            )

instructions = expect["tested_instructions"]
cold_corpus = cold["metrics"]["corpus"]
warm_corpus = warm["metrics"]["corpus"]
if cold_corpus["hits"] != 0 or cold_corpus["misses"] != instructions:
    sys.exit(f"corpus-smoke: cold run should miss everything: {cold_corpus}")
if warm_corpus["hits"] != instructions or warm_corpus["misses"] != 0:
    sys.exit(f"corpus-smoke: warm run should replay everything: {warm_corpus}")

floor = expect["warm_speedup_min"]
cold_ms = cold["metrics"]["wall_clock_ms"]
warm_ms = warm["metrics"]["wall_clock_ms"]
speedup = cold_ms / warm_ms if warm_ms > 0 else float("inf")
if speedup < floor:
    sys.exit(
        f"corpus-smoke: warm replay too slow: cold {cold_ms:.1f} ms vs "
        f"warm {warm_ms:.1f} ms ({speedup:.2f}x, expected >= {floor}x)"
    )

print(
    f"corpus-smoke: warm replay {speedup:.1f}x faster "
    f"({cold_ms:.1f} ms cold vs {warm_ms:.1f} ms warm), "
    f"{warm_corpus['hits']}/{instructions} instructions corpus-served, "
    "sharded merge row-identical"
)
PY
