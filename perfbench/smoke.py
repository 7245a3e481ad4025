#!/usr/bin/env python3
"""Tiny-size smoke of every workload, untraced and traced.

    python3 perfbench/smoke.py

Checks that each run exits 0 and that its last line is the result object
with exactly the keys correct/attempted/failed/metrics, correct, and every
metric BENCHMARK.json names for that mode emitted with its unit as a finite
number. Exits 1 on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "1", "--trace",
                 str(trace), "--tiny"],
                capture_output=True, text=True, cwd=ROOT)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                sys.exit(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"{label}: incorrect ({result['failed']} failed)")
            wanted = spec["per_layer" if trace else "end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    sys.exit(f"{label}: {m['name']} missing or not in {m['unit']}")
                if not isinstance(got.get("value"), (int, float)) or \
                        not math.isfinite(got["value"]):
                    sys.exit(f"{label}: {m['name']} = {got.get('value')!r}")
            if len(result["metrics"]) != len(wanted):
                sys.exit(f"{label}: unexpected metrics")
            print(f"{label}: ok, {len(wanted)} metrics, "
                  f"{result['attempted']} operations checked")


if __name__ == "__main__":
    main()
