#!/usr/bin/env bash
# Mutation-smoke drift check.
#
# Compares the latest BENCH_mutation.json record (appended by the
# mutation_campaign driver) against ci/mutation_expectations.json. The
# pinned set is eight mutants spanning all five injected JIT layers:
# seven the harness demonstrably kills plus one designed-equivalent
# survivor. Two regressions fail the check:
#
#   * a kill/survive flip — a pinned killable mutant surviving means
#     the harness lost bug-finding power (a new blind spot); a pinned
#     survivor being "killed" means nondeterminism or an unsound
#     comparison crept into the driver;
#   * a planted-defect regression — the record's disarmed-baseline
#     Table 2 totals drifting from the expected rows means real
#     defects were gained/lost while every mutant was disarmed.
#
# With `--full`, the last record must be a run of the whole catalog
# (`mutants_run` as pinned under `full_catalog`), and two more gates
# apply to it:
#
#   * kill floor — at least `kill_floor` mutants killed, so the
#     harness's bug-finding power never regresses;
#   * designed survivors — the mutants DESIGN.md designs as legal,
#     equivalent code (205, 206, 207, 403, 503) still survive; a kill
#     there means the comparison grew unsound.
#
# Usage: ci/mutation_smoke_check.sh [--full] [BENCH_mutation.json]
set -euo pipefail

full=0
if [ "${1:-}" = "--full" ]; then
    full=1
    shift
fi
bench="${1:-BENCH_mutation.json}"
expect="$(dirname "$0")/mutation_expectations.json"

for f in "$bench" "$expect"; do
    if [ ! -f "$f" ]; then
        echo "mutation-smoke: missing $f" >&2
        exit 1
    fi
done

python3 - "$bench" "$expect" "$full" <<'PY'
import json
import sys

bench_path, expect_path, full = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
with open(expect_path) as f:
    expect = json.load(f)

# BENCH_mutation.json is JSON Lines; the last record is this CI run.
with open(bench_path) as f:
    records = [json.loads(line) for line in f if line.strip()]
if not records:
    sys.exit(f"mutation-smoke: {bench_path} holds no records")
rec = records[-1]

failures = []

# Planted-defect regression: the disarmed baseline must still produce
# exactly the pinned Table 2 totals.
for key, want in expect["baseline"].items():
    got = rec.get("baseline", {}).get(key)
    if got != want:
        failures.append(f"baseline {key}: expected {want}, got {got}")

# Kill/survive flips on the pinned mutant set.
verdicts = {m["id"]: m for m in rec.get("mutants", [])}
for pin in expect["mutants"]:
    got = verdicts.get(pin["id"])
    if got is None:
        failures.append(f"mutant {pin['id']} ({pin['name']}): not in the record")
    elif got["killed"] != pin["killed"]:
        want = "killed" if pin["killed"] else "survival (designed equivalent)"
        have = "killed" if got["killed"] else "SURVIVED — new blind spot"
        failures.append(f"mutant {pin['id']} ({pin['name']}): expected {want}, got {have}")

if full:
    gate = expect["full_catalog"]
    if rec.get("mutants_run") != gate["mutants_run"]:
        failures.append(
            f"full catalog: expected a record of {gate['mutants_run']} mutants, "
            f"got {rec.get('mutants_run')}"
        )
    killed = sum(1 for m in rec.get("mutants", []) if m["killed"])
    if killed < gate["kill_floor"]:
        failures.append(
            f"kill rate regressed: {killed}/{rec.get('mutants_run')} killed, "
            f"expected >= {gate['kill_floor']}"
        )
    for mid in gate["designed_survivors"]:
        got = verdicts.get(mid)
        if got is None:
            failures.append(f"designed survivor {mid}: not in the record")
        elif got["killed"]:
            failures.append(f"designed survivor {mid} ({got['name']}): KILLED")

if failures:
    print("mutation-smoke: outputs drifted from ci/mutation_expectations.json:")
    for line in failures:
        print(f"  {line}")
    print("If the drift is intentional, update ci/mutation_expectations.json in the same PR.")
    sys.exit(1)

killed = sum(1 for m in rec["mutants"] if m["killed"])
gated = "kill floor and designed survivors hold, " if full else ""
print(
    f"mutation-smoke: {gated}all pinned verdicts match "
    f"({killed}/{rec['mutants_run']} killed, "
    f"baseline {rec['baseline']['differences']} differences, "
    f"wall {rec['wall_clock_ms']:.0f} ms)"
)
PY
