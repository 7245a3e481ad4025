#!/usr/bin/env python3
"""Record perfbench/reference.json: output digests at the current commit.

    python3 perfbench/record_reference.py

Runs every workload once at full size at the default and the held-out seed
and stores, per workload and seed, one digest per operation (app, crawler,
seed, steps, covered lines, links) plus the canary digests every run
re-checks. Record only on a commit whose simulated outputs are the intended
reference; a later change that alters any digest is a behaviour change.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 24301
HELDOUT_SEED = 7


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    reference = {"format": 1, "default_seed": DEFAULT_SEED,
                 "heldout_seed": HELDOUT_SEED, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            entry = {"canary": [], "seeds": {}}
            for seed in (DEFAULT_SEED, HELDOUT_SEED):
                record = os.path.join(tmp, f"{name}-{seed}.json")
                subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                "--workload", name, "--seed", str(seed),
                                "--seconds", "1", "--trace", "0",
                                "--record", record],
                               check=True, stdout=subprocess.DEVNULL)
                with open(record) as f:
                    data = json.load(f)
                entry["seeds"][str(seed)] = data["ops"]
                entry["canary"] = data["canary"]
            reference["workloads"][name] = entry
            print(f"{name}: recorded", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
