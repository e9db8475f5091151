#!/usr/bin/env python3
"""SPERR benchmark: one workload, one run, metrics on the last line.

    python3 perfbench/run.py --workload pwe_high --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. The first call builds perfbench_driver and
the library from this checkout's sources (Release, into .bench_build, or
$CARGO_TARGET_DIR when set); later calls only check the build is current.
Each run starts its own driver process with OMP_NUM_THREADS fixed, so
threads, peak RSS and warm allocator state never leak between workloads.

--trace 0 measures the library untraced and prints the end-to-end metrics;
--trace 1 runs the traced layer replay and prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit status is 0 only
when every op passed its output checks. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pwe_high", "pwe_low", "pwe_single", "serve_mixed")
THREADS = 4  # every workload runs at 4 OpenMP threads
# Seed for quick comparisons, and one kept out of tuning: a claimed gain
# must also hold with --seed HELD_OUT_SEED.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
DRIVER_TIMEOUT_S = 170

def declared_units(trace):
    """Metric name -> unit of the end_to_end (trace 0) or per_layer (trace 1)
    list in BENCHMARK.json, the one definition of what a run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure once, then bring perfbench_driver up to date. Returns the
    driver path, or None when the build failed (its log went to stderr)."""
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                  "-j", str(max(1, len(os.sched_getaffinity(0))))])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            sys.stderr.write(f"perfbench: build step failed: {' '.join(cmd)}\n")
            return None
    return os.path.join(out, "perfbench_driver")


def run_driver(driver, args):
    """Run one workload in its own process; returns (exit code, record)."""
    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS), OMP_DYNAMIC="false")
    spans = os.path.join(os.path.dirname(driver), "traces",
                         f"{args.workload}-seed{args.seed}.jsonl")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans", spans]
    if args.small:
        cmd.append("--small")
    r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                       timeout=DRIVER_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    try:
        return r.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return r.returncode, None


def report(rec, metrics, units, split=None):
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}  "
          f"omp threads {rec['threads']}  cores {rec['cores']}  "
          f"ops {rec['attempted']} attempted, {rec['failed']} failed")
    for f in rec.get("failures", []):
        print(f"  FAILED: {f}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    if split:
        print("  compress split, summed over chunks: library Stats.timing vs replay")
        for stage, lib, replay in split:
            print(f"    {stage:26s} {lib:10.4f} s {replay:10.4f} s")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="64^3 fields instead of 256^3 (self-tests)")
    args = p.parse_args(argv)

    cores = len(os.sched_getaffinity(0))
    if THREADS > cores:
        sys.stderr.write(f"perfbench: {THREADS} threads need {THREADS} cores, "
                         f"this process may use {cores}; refusing to run\n")
        return 2

    driver = build()
    if driver is None:
        return 1
    code, rec = run_driver(driver, args)
    if rec is None:
        sys.stderr.write(f"perfbench: driver exited {code} without a record\n")
        return 1

    correct = code == 0 and rec["failed"] == 0 and rec["threads"] == THREADS
    split = None
    try:
        if args.trace:
            spans = benchlib.read_spans(rec["spans"])
            metrics = benchlib.per_layer(rec, spans)
            split = benchlib.library_split(rec, spans, metrics)
        else:
            metrics = benchlib.end_to_end(rec)
    except (KeyError, ValueError, OSError) as e:
        sys.stderr.write(f"perfbench: cannot compute metrics: {e}\n")
        return 1
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}\n")
        return 1
    report(rec, metrics, units, split)
    result = {
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
