#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--tiny] [--out FILE] [--record FILE]

Builds perfbench/ (and the crawler libraries under src/) in Release on first
use, into $CARGO_TARGET_DIR/perfbench or .bench_build/perfbench, then runs
the workload with a pinned MAK_* environment and a fresh scratch directory
that is deleted afterwards. Before the result it prints two comment lines:
the run's provenance and the binary's details (sample counts, failures).
--out writes all three to FILE as JSON for perfbench/compare.py; --record
writes the run's output digests for perfbench/record_reference.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Every MAK_* knob the benchmark relies on; every other MAK_* variable is
# cleared, because the harness silently falls back to its defaults on a value
# it cannot parse. The workloads' protocols (repetitions, budgets, sample
# intervals) are constants of the binary and read no environment.
# MAK_ORCH_DIR and MAK_FAILURE_DIR are added per run. The process tier is
# probed by every traced run, so the worker knobs are pinned everywhere.
COMMON_ENV = {
    "MAK_THREADS": "2",
    "MAK_WORKERS": "1",
    "MAK_ORCH_ATTEMPTS": "3",
    "MAK_ORCH_TIMEOUT_SEC": "120",
    "MAK_METRICS": "1",
    "MAK_LOG": "warn",
    "MAK_BENCH_JSON": "-",
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configures once, then lets the build tool decide what is stale."""
    os.makedirs(out_dir, exist_ok=True)
    log = sys.stderr
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=log, stderr=log)
    return os.path.join(out_dir, "perfbench")


def pinned_env(scratch):
    env = {k: v for k, v in os.environ.items() if not k.startswith("MAK_")}
    pinned = dict(COMMON_ENV)
    pinned["MAK_ORCH_DIR"] = os.path.join(scratch, "orchestrator")
    pinned["MAK_FAILURE_DIR"] = os.path.join(scratch, "failures")
    env.update(pinned)
    return env, pinned


def tree_digest(*dirs):
    h = hashlib.sha256()
    for d in dirs:
        for base, subdirs, files in os.walk(os.path.join(ROOT, d)):
            subdirs[:] = sorted(s for s in subdirs if s != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def cache_value(out_dir, key):
    with open(os.path.join(out_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def provenance(args, pinned, out_dir):
    compiler = cache_value(out_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {
        "command": [os.path.relpath(sys.argv[0], ROOT)] + sys.argv[1:],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "env": {k: v for k, v in sorted(pinned.items())
                if k not in ("MAK_ORCH_DIR", "MAK_FAILURE_DIR")},
        "build_type": cache_value(out_dir, "CMAKE_BUILD_TYPE"),
        "compiler": version,
        "git_sha": sha or "none (not a git checkout)",
        "source_sha256": tree_digest("src"),
        "bench_sha256": tree_digest("perfbench"),
        "nproc": os.cpu_count(),
    }


def check_metrics(spec, trace, metrics):
    """The metric set and units must be exactly the ones BENCHMARK.json names."""
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if wanted != got:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong = sorted(n for n in set(wanted) & set(got) if wanted[n] != got[n])
        raise SystemExit(f"perfbench: metric mismatch: missing {missing}, "
                         f"unexpected {extra}, wrong unit {wrong}")


def run_binary(binary, argv, env):
    """Runs in its own session; on timeout the whole group is killed."""
    proc = subprocess.Popen([binary] + argv, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: binary exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit("perfbench: binary printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=24301)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--record")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    if args.seed < 0 or args.seconds < 1:
        raise SystemExit("perfbench: --seed must be >= 0, --seconds >= 1")
    out_dir = build_dir()
    binary = build(out_dir)

    runs_dir = os.path.join(os.path.dirname(out_dir), "runs")
    os.makedirs(runs_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    try:
        env, pinned = pinned_env(scratch)
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scratch", scratch]
        if args.tiny:
            argv.append("--tiny")
        if args.record:
            argv += ["--record", os.path.abspath(args.record)]
        else:
            argv += ["--reference", os.path.join(HERE, "reference.json")]
        raw = run_binary(binary, argv, env)
        prov = provenance(args, pinned, out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    check_metrics(spec, args.trace, raw["metrics"])
    result = {
        "correct": bool(raw["correct"]) and raw["failed"] == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": raw["metrics"],
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"provenance": prov, "details": raw["details"],
                       "result": result}, f, indent=1, sort_keys=True)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print("# details " + json.dumps(raw["details"], sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
