#!/usr/bin/env python3
"""Runs one workload of the PGB benchmark and prints its result line.

    python3 perfbench/run.py --workload grid|temporal|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the `perfbench` package from
source (into $CARGO_TARGET_DIR, default `.bench_build`) and runs the
workload in a child process of its own, so that the process-level readings
(peak RSS, CPU time) belong to that workload alone. The last stdout line
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. The metrics are those BENCHMARK.json lists: `end_to_end` with
`--trace 0`, `per_layer` with `--trace 1`, where a layer the workload does
not reach reads 0. The exit code is the child's, nonzero when an output
check failed; it is nonzero without a result line when the build failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def build(env):
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", MANIFEST]
    # Build output goes to stderr: stdout carries only the result line.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "perfbench")


def listed_metrics(result, listed):
    """The result's metrics in BENCHMARK.json's order and units, with 0 for
    a per-layer metric the workload did not report; None if the result has
    a metric or unit BENCHMARK.json does not list."""
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in listed}
    if any(units.get(name) != m["unit"] for name, m in metrics.items()):
        return None
    return {name: metrics.get(name, {"value": 0, "unit": unit}) for name, unit in units.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["grid", "temporal", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    if binary is None:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1

    work = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        child = subprocess.run([
            binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work,
        ], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    lines = child.stdout.splitlines()
    if not lines:
        return child.returncode or 1
    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = listed_metrics(result, listed)
    if metrics is None or (not args.trace and set(metrics) != set(result["metrics"])):
        print(f"run.py: {args.workload} reported metrics that BENCHMARK.json does not list "
              f"as they are: {sorted(result['metrics'])}", file=sys.stderr)
        return 1
    result["metrics"] = metrics
    print(json.dumps(result))
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
