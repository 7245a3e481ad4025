#!/usr/bin/env python3
"""Compare two benchmark outputs written by run.py --out.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Refuses (exit 2) when the two runs' provenance differs in anything but the
source under test (git sha and source digest): workload, seed, run length,
trace mode, size, MAK_* knobs, build type, compiler, core count and the
benchmark's own code must all match. Otherwise prints each metric's change
and flags end-to-end metrics that got worse by more than their bound in
BENCHMARK.json (exit 1 if any did).
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_FIELDS = {"git_sha", "source_sha256", "command"}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    before, after = (json.load(open(path)) for path in sys.argv[1:])
    a, b = before["provenance"], after["provenance"]
    differing = sorted(k for k in set(a) | set(b)
                       if k not in SOURCE_FIELDS and a.get(k) != b.get(k))
    if differing:
        print(f"refused: provenance differs in {', '.join(differing)}")
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for name, old in sorted(before["result"]["metrics"].items()):
        new = after["result"]["metrics"].get(name)
        if new is None:
            continue
        change = (new["value"] - old["value"]) / old["value"] if old["value"] else 0.0
        flag = ""
        if name in bounds:
            sign = 1 if bounds[name]["better"] == "lower" else -1
            if sign * change > bounds[name]["bound"]:
                flag = "  WORSE beyond bound"
                worse += 1
        print(f"{name:32s} {old['value']:14.6g} -> {new['value']:14.6g} "
              f"{old['unit']:14s} {change:+8.1%}{flag}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
