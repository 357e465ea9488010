#!/usr/bin/env bash
# Perf-smoke drift check.
#
# Compares the latest BENCH_table2.json records (appended by the table2
# harness) and the testgen output against ci/perf_expectations.json.
# The campaign is deterministic, so any drift in the Table 2 totals or
# the generated-test count means a behaviour change slipped into a
# perf-motivated PR — exactly what this check exists to catch.
#
# The CI workflow appends three 1-thread records — all knobs on, family
# sharing off, meta tier off — each tagged with its `knobs`. Records
# written before the knobs tag existed are ignored whenever tagged
# ones are present (their classification by side-effect counters was
# ambiguous). Older records that ran with a since-removed storage or
# dispatch knob switched off (heap snapshots, predecode, interpreter
# predecode, solver trail) describe a configuration that no longer
# exists and are skipped; older records that merely carry those keys
# switched on classify like current ones. Beyond the row totals, the
# check enforces the perf invariants of the engine:
#
#   * knob identity — every record in the window, whatever its knobs,
#     must match the expected rows: family-shared exploration may not
#     change anything observable;
#   * honest stage accounting — at 1 thread, the per-stage sum
#     (including the `other` bucket) must land within 10% of the
#     measured wall clock;
#   * sub-stage layout — the stage buckets must be exactly the
#     expected set (a silently added or dropped bucket breaks every
#     downstream consumer of the metrics);
#   * residual budget — with every engine knob on, the unattributed
#     `other` bucket must stay within 15% of wall clock (engine v5's
#     sub-stage attribution contract);
#   * explore budget — with every engine knob on at 1 thread, the
#     explore stage must stay under `explore_budget_ms` (engine v8's
#     predecoded walk plus batched probe solves, tightened by engine
#     v10's trail-based solver);
#   * solver trail in use — the all-on record must show trail activity
#     (the trail is the solver's only production path since engine v10);
#   * explore sub-slices — the `walk_run` and `probe_solve` buckets
#     re-attribute time already inside `explore` (they are excluded
#     from the stage total), so their sum must never exceed the
#     explore stage itself;
#   * tier-5 additivity — the meta tier must be purely additive: the
#     tier5-off record must match the committed `tier5_off` totals
#     (the engine-v8 table), and the tier may not add differences.
#
# The mutation kill-rate gate lives in ci/mutation_smoke_check.sh,
# which reads a full-catalog record the same CI run produced.
#
# Usage: ci/perf_smoke_check.sh [BENCH_table2.json] [testgen-output.txt]
set -euo pipefail

bench="${1:-BENCH_table2.json}"
testgen_out="${2:-testgen.out}"
expect="$(dirname "$0")/perf_expectations.json"

for f in "$bench" "$testgen_out" "$expect"; do
    if [ ! -f "$f" ]; then
        echo "perf-smoke: missing $f" >&2
        exit 1
    fi
done

python3 - "$bench" "$testgen_out" "$expect" <<'PY'
import json
import re
import sys

bench_path, testgen_path, expect_path = sys.argv[1:4]
with open(expect_path) as f:
    expect = json.load(f)

# BENCH_table2.json is JSON Lines; the trailing records are this CI
# run. Classify by the record's `knobs` tag; fall back to the snapshot
# side-effect counters only for windows of purely legacy records.
with open(bench_path) as f:
    records = [json.loads(line) for line in f if line.strip()]
if not records:
    sys.exit(f"perf-smoke: {bench_path} holds no records")

# Corpus-backed runs (engine v7) have their own pairwise check
# (ci/corpus_smoke_check.sh) and their warm halves replay instead of
# measuring the pipeline, so they never participate in the knob
# classification below.
records = [rec for rec in records if not rec.get("knobs", {}).get("corpus", False)]
if not records:
    sys.exit(f"perf-smoke: {bench_path} holds only corpus-backed records")

# Knobs that once chose a storage or dispatch strategy and are gone:
# a record that ran with one of them off has no current counterpart.
RETIRED = ("heap_snapshot", "predecode", "interp_predecode", "solver_trail")

window = records[-10:]
tagged = [rec for rec in window if "knobs" in rec]
if tagged:
    window = [rec for rec in tagged if all(rec["knobs"].get(k, True) for k in RETIRED)]

    def classify(rec):
        k = rec["knobs"]
        if not k.get("family_share", True):
            return "family-off"
        if not k.get("tier5", True):
            return "tier5-off"
        return "all-on"
else:
    # Untagged records without seals ran with heap snapshots off.
    window = [rec for rec in window if rec["metrics"].get("snapshot", {}).get("seals", 0) > 0]

    def classify(rec):
        return "all-on"

by_kind = {}
for rec in window:
    by_kind[classify(rec)] = rec  # later records win
rec_on = by_kind.get("all-on")
rec_fam_off = by_kind.get("family-off")
rec_t5_off = by_kind.get("tier5-off")

with open(testgen_path) as f:
    testgen = f.read()
m = re.search(r"generated (\d+) tests", testgen)
if not m:
    sys.exit(f"perf-smoke: no 'generated N tests' line in {testgen_path}")
generated = int(m.group(1))

drifted = []
labelled = [
    ("all-on", rec_on),
    ("family-off", rec_fam_off),
    ("tier5-off", rec_t5_off),
]
for label, rec in labelled:
    if rec is None:
        continue
    # The tier5-off run drops the fifth row, so it pins its own totals
    # (the engine-v8 table); every other record includes the meta row.
    want = expect["tier5_off"] if label == "tier5-off" else expect
    for key in ("tested_instructions", "interpreter_paths", "curated_paths", "differences"):
        if rec["table2"][key] != want[key]:
            drifted.append(
                f"{key} ({label}): expected {want[key]}, got {rec['table2'][key]}"
            )
if all(rec is None for _, rec in labelled):
    sys.exit("perf-smoke: no usable records")
if generated != expect["generated_tests"]:
    drifted.append(f"generated_tests: expected {expect['generated_tests']}, got {generated}")

if drifted:
    print("perf-smoke: campaign outputs drifted from ci/perf_expectations.json:")
    for line in drifted:
        print(f"  {line}")
    print("If the drift is intentional, update ci/perf_expectations.json in the same PR.")
    sys.exit(1)

# Sub-stage layout: the stage buckets are part of the metrics contract.
layout = expect.get("stage_layout")
if layout:
    for label, rec in labelled:
        if rec is None:
            continue
        got = sorted(k for k in rec["metrics"]["stages_ms"] if k != "total")
        if got != sorted(layout):
            sys.exit(
                f"perf-smoke: stage layout drifted ({label}): "
                f"expected {sorted(layout)}, got {got}"
            )

# Honest stage accounting: at 1 thread the stage sum (with the
# `other` bucket) must track the wall clock within 10%. The explore
# sub-slices (`walk_run`, `probe_solve`) re-attribute time already
# counted in `explore`, so they stay out of the sum.
SUB_SLICES = {"walk_run", "probe_solve"}
for label, rec in labelled:
    if rec is None or rec["metrics"].get("threads") != 1:
        continue
    stages = rec["metrics"]["stages_ms"]
    total = stages.get(
        "total", sum(v for k, v in stages.items() if k != "total" and k not in SUB_SLICES)
    )
    wall = rec["metrics"]["wall_clock_ms"]
    if wall > 0 and abs(total - wall) > 0.10 * wall:
        sys.exit(
            f"perf-smoke: stage accounting drifted ({label}): stages sum "
            f"{total:.1f} ms vs wall {wall:.1f} ms (>10% apart)"
        )

# Residual budget: with every engine knob on at 1 thread, the
# unattributed `other` bucket stays within 15% of wall clock.
if rec_on is not None and rec_on["metrics"].get("threads") == 1:
    other = rec_on["metrics"]["stages_ms"].get("other", 0.0)
    wall = rec_on["metrics"]["wall_clock_ms"]
    if wall > 0 and other > 0.15 * wall:
        sys.exit(
            "perf-smoke: residual `other` bucket exceeds its budget: "
            f"{other:.1f} ms of {wall:.1f} ms wall "
            f"({100 * other / wall:.1f}%, expected <= 15%)"
        )

# Family sharing must be purely an optimization: the family-off rows
# must equal the all-on rows key for key (stronger than both matching
# the committed expectations — it holds even while expectations are
# being retuned in the same PR).
if rec_on is not None and rec_fam_off is not None:
    for key in ("tested_instructions", "interpreter_paths", "curated_paths", "differences"):
        if rec_fam_off["table2"][key] != rec_on["table2"][key]:
            sys.exit(
                "perf-smoke: family-shared exploration changed campaign rows: "
                f"{key} is {rec_on['table2'][key]} with sharing on "
                f"but {rec_fam_off['table2'][key]} with sharing off"
            )

# The trail-based solver (engine v10) is the solver's only production
# path: the all-on run must really have unwound scopes off a trail.
if rec_on is not None:
    trail_on = rec_on["metrics"].get("trail")
    if trail_on is not None and trail_on.get("clones_avoided", 0) == 0:
        sys.exit("perf-smoke: the all-on record shows no trail activity")

# Tier-5 additivity: the meta tier appends one row and changes nothing
# else, so the rows shared by both configurations must agree — the
# tier5-off totals can never exceed the all-on totals, and the meta
# row must contribute zero differences (a compiler partially evaluated
# out of the interpreter agrees with the interpreter by construction).
if rec_on is not None and rec_t5_off is not None:
    for key in ("tested_instructions", "interpreter_paths", "curated_paths"):
        if rec_t5_off["table2"][key] > rec_on["table2"][key]:
            sys.exit(
                "perf-smoke: tier5-off totals exceed the all-on totals: "
                f"{key} is {rec_t5_off['table2'][key]} without the meta row "
                f"but {rec_on['table2'][key]} with it"
            )
    if rec_on["table2"]["differences"] != rec_t5_off["table2"]["differences"]:
        sys.exit(
            "perf-smoke: the meta tier changed the difference count: "
            f"{rec_on['table2']['differences']} with tier 5 on "
            f"vs {rec_t5_off['table2']['differences']} with it off"
        )

# Explore sub-slices: walk_run + probe_solve re-attribute explore
# time, so their sum can never exceed the explore stage itself (5%
# slack for timer quantization across many short paths).
for label, rec in labelled:
    if rec is None:
        continue
    stages = rec["metrics"]["stages_ms"]
    if "walk_run" in stages and "probe_solve" in stages:
        sub = stages["walk_run"] + stages["probe_solve"]
        if sub > 1.05 * stages["explore"] + 0.5:
            sys.exit(
                f"perf-smoke: explore sub-slices overflow the stage ({label}): "
                f"walk_run + probe_solve = {sub:.1f} ms "
                f"vs explore {stages['explore']:.1f} ms"
            )

# Explore budget: with every engine knob on at 1 thread, the explore
# stage must stay under its committed budget (engine v8).
explore_budget = expect.get("explore_budget_ms")
if (
    explore_budget is not None
    and rec_on is not None
    and rec_on["metrics"].get("threads") == 1
):
    explore_ms = rec_on["metrics"]["stages_ms"]["explore"]
    if explore_ms > explore_budget:
        sys.exit(
            "perf-smoke: explore stage exceeds its budget: "
            f"{explore_ms:.1f} ms > {explore_budget:.1f} ms at 1 thread"
        )

rec = rec_on or rec_fam_off or rec_t5_off
metrics = rec["metrics"]
stages = metrics["stages_ms"]
print(
    "perf-smoke: totals match expectations "
    f"({rec['table2']['differences']} differences, {generated} generated tests); "
    f"wall {metrics['wall_clock_ms']:.0f} ms, explore {stages['explore']:.0f} ms, "
    f"compile cache hit rate {metrics['compile_cache']['hit_rate']:.2f}"
)
PY
