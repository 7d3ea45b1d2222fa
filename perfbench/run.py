#!/usr/bin/env python3
"""Benchmark entry point for the measurement pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `perfbench/` (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs two processes:

* the workload itself, in `measure` mode (--trace 0: the end-to-end
  metrics) or `trace` mode (--trace 1: the per-layer ledger);
* the independent reference for the output check, in its own process so
  it cannot touch the measured process's peak RSS.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; metric names and units come from BENCHMARK.json.
Every metric of the mode must come from the child, measured or (per-layer
only) declared `not_called`: a layer the workload never calls, reported
as 0. Exits 1 when the build fails, a child fails, the child's metric
names differ from BENCHMARK.json's, or any output check mismatches.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Whole-run budget: every run must end within 180 s; the first run in a
# fresh checkout additionally compiles the workspace.
CHILD_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, timeout):
    """Runs one child to completion (killed and reaped on timeout) and
    returns the JSON object on its last stdout line."""
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
            timeout=max(timeout, 1),
        )
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd[1:3])} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[1:3])} exited with {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"{' '.join(cmd[1:3])} printed nothing")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    binary = os.path.join(target, "release", "perfbench")
    out = os.path.join(target, "perfbench-out")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", out]
    start = time.monotonic()
    mode = "trace" if args.trace else "measure"
    measured = run_child(
        [binary, mode, *common, "--seconds", str(args.seconds)], CHILD_TIMEOUT_S
    )
    reference = run_child(
        [binary, "reference", *common], CHILD_TIMEOUT_S - (time.monotonic() - start)
    )

    reps = int(measured["reps"])
    mismatches = int(measured["mismatches"])
    if measured["digest"] != reference["digest"]:
        mismatches = reps
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = [m["name"] for m in metrics]
    got = measured["metrics"]
    not_called = set(measured.get("not_called", []))
    missing = [n for n in names if n not in got and n not in not_called]
    unknown = sorted((set(got) | not_called) - set(names))
    both = sorted(set(got) & not_called)
    if missing or unknown or both:
        fail(f"metric names differ from BENCHMARK.json: missing {missing}, "
             f"unknown {unknown}, both measured and not called {both}")
    result = {
        "correct": mismatches == 0,
        "attempted": reps,
        "failed": mismatches,
        "metrics": {
            m["name"]: {"value": got.get(m["name"], 0.0), "unit": m["unit"]}
            for m in metrics
        },
    }
    print(json.dumps(result))
    sys.exit(0 if mismatches == 0 else 1)


if __name__ == "__main__":
    main()
