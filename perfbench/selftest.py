#!/usr/bin/env python3
"""Self-test of the benchmark: every workload, untraced and traced, on
tiny inputs (--small), in a few seconds each.

    python3 perfbench/selftest.py

Checks that each run exits 0, that its last line is the result object
with exactly the keys BENCHMARK.json promises, that every operation
succeeded and passed its checks, and that the same seed gives the same
input digests.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, seed=3):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace), "--small"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        sys.exit("%s trace %d: exit %d\n%s" % (workload, trace, p.returncode, p.stderr))
    lines = p.stdout.strip().split("\n")
    return [l for l in lines if l.startswith("inputs:")], json.loads(lines[-1])


def main():
    failures = []
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            inputs, res = run(name, trace)
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            problems = []
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("keys %s" % sorted(res))
            if got != want:
                problems.append("metrics %s, expected %s" % (got, want))
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("correct %s, failed %d of %d" % (
                    res["correct"], res["failed"], res["attempted"]))
            again, _ = run(name, trace) if trace == 0 else (inputs, None)
            if again != inputs or len(inputs) != 1:
                problems.append("input digests differ for one seed: %s %s" % (inputs, again))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("%-13s trace %d: %s" % (name, trace, status), flush=True)
            if problems:
                failures.append(name)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
