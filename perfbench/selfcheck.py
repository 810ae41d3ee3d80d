#!/usr/bin/env python3
"""Self-check of the benchmark and its output.

    python3 perfbench/selfcheck.py [--workload W] [--seed N] [--seconds S]

Run it from the root of a checkout. It checks BENCHMARK.json's shape,
then runs perfbench/run.py once untraced and twice traced at one seed
and checks that:

- the last line of stdout is one JSON object with exactly the keys
  `correct`, `attempted`, `failed` and `metrics`, and `correct` is true;
- every metric name matches `[A-Za-z0-9_.-]+` and carries the unit
  BENCHMARK.json declares for it;
- the untraced run prints every end-to-end metric and the traced runs
  every per-layer metric;
- every per-layer count (EXACT_METRICS) is identical across the two
  traced runs.

Exit code 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Per-layer metrics that are counts: two traced runs at one seed must
# print them identically.
EXACT_METRICS = (
    "cpu.sim_cycles", "cpu.committed_insts", "defense.squashes",
    "defense.cleanup_stall_cycles", "cache.l1_miss_ratio",
    "cache.l2_miss_ratio", "harness.manifest.bytes_written",
    "harness.manifest.final_bytes", "service.coalesced",
    "service.warm_hits", "service.warm_misses",
)


def check_manifest(doc, problems):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(doc)} != {sorted(keys)}")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    for name in names:
        if not NAME.match(name):
            problems.append(f"malformed name {name!r}")
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    for m in doc["end_to_end"] + doc["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"malformed unit or direction on {m['name']}")
    for m in doc["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) missing")
    elif setup[0]["bound"] < max(m["bound"] for m in doc["end_to_end"]):
        problems.append("setup_s does not have the largest bound")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check_result(label, rc, result, declared, problems):
    if result is None:
        problems.append(f"{label}: no output")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(result)}")
    if rc != 0 or result.get("correct") is not True:
        problems.append(f"{label}: exit {rc}, correct {result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    for name, m in metrics.items():
        if not NAME.match(name) or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{label}: malformed metric {name!r}: {m}")
        elif declared.get(name) != m.get("unit"):
            problems.append(f"{label}: {name} has unit {m.get('unit')!r}, "
                            f"BENCHMARK.json says {declared.get(name)!r}")
    missing = sorted(set(declared) - set(metrics))
    if missing:
        problems.append(f"{label}: missing {missing}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="paper")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()

    problems = []
    with open("BENCHMARK.json") as f:
        doc = json.load(f)
    check_manifest(doc, problems)
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    for name in EXACT_METRICS:
        if name not in layer:
            problems.append(f"exact count {name} is not a declared per-layer metric")

    rc, result = run(args.workload, args.seed, args.seconds, 0)
    check_result("untraced", rc, result, e2e, problems)
    traced = []
    for i in (1, 2):
        rc, result = run(args.workload, args.seed, args.seconds, 1)
        check_result(f"traced run {i}", rc, result, layer, problems)
        traced.append((result or {}).get("metrics", {}))
    for name in EXACT_METRICS:
        values = [t.get(name, {}).get("value") for t in traced]
        if values[0] != values[1]:
            problems.append(f"count {name} differs between traced runs: {values}")

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
