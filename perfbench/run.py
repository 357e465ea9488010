#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first form builds the release binary (into $CARGO_TARGET_DIR, by
default .bench_build) and runs it directly, never through `cargo run`.
Its last stdout line is the JSON result. `--selftest` runs every
workload (those BENCHMARK.json times and mutation_matrix) with a handful
of ops, untraced and traced, and checks that every metric BENCHMARK.json
names is printed with its unit and that all known-answer checks pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

# Workloads the binary runs that BENCHMARK.json does not time (see
# README.md, Host noise); the self-test checks them too.
UNTIMED_WORKLOADS = ["mutation_matrix"]


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(exe):
        sys.exit("perfbench: no release binary at " + exe)
    return exe


def selftest(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for name in [w["name"] for w in spec["workloads"]] + UNTIMED_WORKLOADS:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            cmd = [exe, "--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace,
                   "--ops", "5", "--work-dir", WORK]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            where = "%s --trace %s" % (name, trace)
            if out.returncode != 0 or not lines:
                problems.append("%s: exit %d, no result" % (where, out.returncode))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: known-answer checks failed: %s" % (where, lines[-1][:200]))
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append("%s: metric %s missing or without unit %s" % (where, m["name"], m["unit"]))
            print("selftest %-28s ok: %d metrics" % (where, len(result["metrics"])), file=sys.stderr)
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


def main():
    exe = build()
    args = sys.argv[1:]
    if args == ["--selftest"]:
        sys.exit(selftest(exe))
    sys.exit(subprocess.run([exe] + args + ["--work-dir", WORK]).returncode)


if __name__ == "__main__":
    main()
