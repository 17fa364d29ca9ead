#!/usr/bin/env python3
"""Simulator benchmark: host MIPS and a per-layer split on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload excess-pagecopy --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/ (and the simulator sources it links) into
$CARGO_TARGET_DIR or .bench_build, runs the driver, checks its outputs
and prints every metric by name with its unit. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer
metrics with --trace 1. See perfbench/README.md for the definitions.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("excess-pagecopy", "resident-compute", "tiering-farlink")
# The seed for everyday runs, and one held out for checking a claimed
# gain on inputs it was not tuned on (README.md, "Seeds").
DEFAULT_SEED = 1
HOLDOUT_SEED = 20230225
BUILD_TIMEOUT_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the driver; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    configured = [os.path.exists(os.path.join(build_dir, f))
                  for f in ("CMakeCache.txt", "Makefile", "build.ninja")]
    if not (configured[0] and any(configured[1:])):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "nomad_perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "nomad_perfbench")


def check(report, stats_runs, e2e):
    """Output checks beyond the driver's own (which count in `failed`):
    every timed run retired the same instructions as the reference,
    the reference retired the whole budget, and every end-to-end
    metric is finite and positive."""
    problems = []
    budget = [report["cores"] * c["instr_per_core"]
              for c in report["configs"]]
    retired = [metrics.Stats([r]).instructions for r in stats_runs]
    if any(got < want for got, want in zip(retired, budget)):
        problems.append(f"reference runs retired {retired}, "
                        f"budget {budget}")
    for rnd in report["rounds"]:
        if rnd["kind"] in ("timed", "traced"):
            got = [r["instructions"] for r in rnd["runs"]]
            if got != retired:
                problems.append(f"{rnd['kind']} round retired {got}, "
                                f"reference {retired}")
    for name, value in e2e.items():
        if not (math.isfinite(value) and value > 0):
            problems.append(f"{name} = {value}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (hold-out: {HOLDOUT_SEED})")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        driver = build(build_dir)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log("perfbench:", e)
        return 1

    report_path = os.path.join(out_dir, args.workload + ".report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    t0 = time.monotonic()
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        done = subprocess.run(cmd, timeout=3 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 1
    if done.returncode != 0 or not os.path.exists(report_path):
        log(f"perfbench: driver exited with {done.returncode}")
        return 1
    log(f"perfbench: driver ran {time.monotonic() - t0:.1f}s")

    with open(report_path) as f:
        report = json.load(f)
    blobs = []
    for c in report["configs"]:
        with open(c["stats_file"], "rb") as f:
            blobs.append(f.read())
    stats_runs = [json.loads(b) for b in blobs]

    e2e = metrics.end_to_end(report)
    problems = check(report, stats_runs, e2e) + report["errors"]
    shown = dict(e2e)
    table = dict(metrics.END_TO_END)
    if args.trace:
        with open(report["trace_file"]) as f:
            events = json.load(f)["traceEvents"]
        layer = metrics.per_layer(report, stats_runs, events)
        shown.update(layer)
        table.update(metrics.PER_LAYER)
        log(f"perfbench: spans written to {report['trace_file']}")
    for p in problems:
        log("perfbench: CHECK FAILED:", p)

    print(f"workload {args.workload} seed {args.seed} configs "
          + ", ".join(c["label"] for c in report["configs"]))
    print(f"model_digest {metrics.digest(blobs)}")
    for name, value in shown.items():
        unit, better, kind = table[name]
        print(f"{name:34s} {value:16.6g} {unit:13s} "
              f"{better:6s} {kind}")
    wanted = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    result = {
        "correct": not problems and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": shown[name], "unit": wanted[name][0]}
                    for name in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
