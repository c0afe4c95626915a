#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the DCP simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S]

It builds perfbench/ (which compiles the repository's src/ libraries,
RelWithDebInfo without LTO like the default build) into
.bench_build/perfbench, runs the named workload in its own process through
perfbench_sim, checks the outputs and prints every metric by name with its
unit.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  --workload all runs every workload both
ways, one process each, and prefixes each metric with its workload.  A
traced run writes its spans to .bench_build/perfbench/spans-W-SEED.json.

Design (see perfbench/src/perfbench_sim.cpp for the details):
  * One process per workload run, at most two threads: workloads never share
    RSS or warm thread-local pools.
  * Inputs: the seed's Poisson websearch arrivals, cut where they offer the
    workload's byte budget, so every seed offers about the same work.
  * Each run repeats the workload for --seconds and reports medians.
    setup_s is the median over 17 (Clos) or 5 (fat-tree) set-ups per
    repetition, never a single sub-millisecond build.
  * The time metrics are scaled to a reference host speed measured by a
    calibration kernel that runs in a child process between repetitions, so
    its memory is not in peak_rss_mb: a shared 4-vCPU guest can slow by up
    to 1.6x for tens of seconds at a time.  The unscaled medians are the
    per-layer wall.* metrics, and every run prints them.
  * No throughput end-to-end metric: sim.events_per_s is per-layer, so a
    change that removes events cannot read as a regression.

Output checks: every repetition reproduces its inputs' digest; at the pinned
seed the digest and event count equal perfbench/pins.json; the sharded
workload equals the serial run; the oracle stays clean; the traced digest
equals the untraced one.  A failed check counts every flow as failed
(completed_frac 0) and the script exits 1.  A flow still incomplete at the
10 s simulated-time limit is not a failed check: it counts as one failed
flow per repetition, lowering completed_frac (see fault_plan() in
perfbench_sim.cpp for the measured baseline).
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "perfbench_sim")
WORKLOADS = ("clos_websearch", "clos_faults_oracle", "fattree_k16_websearch",
             "fattree_k16_shards2")
DEADLINE_S = 170.0


def build():
    """Configures once, then builds incrementally; build output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_sim"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(workload, seed, seconds, trace, specs):
    """Runs one workload in its own process and checks its outputs.

    Prints the workload's metrics by name with their units and returns
    (correct, attempted, failed, metrics)."""
    start = time.monotonic()
    base = [PROGRAM, "--workload", workload, "--seed", str(seed)]
    flows = subprocess.run(base + ["--count-flows"], stdout=subprocess.PIPE, text=True,
                           check=True, timeout=60).stdout.strip()
    cmd = base + ["--flows", flows, "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(BUILD, "spans-%s-%d.json" % (workload, seed))]
    left = DEADLINE_S - (time.monotonic() - start)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(1.0, left))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench_sim exited %d without output" % proc.returncode)
    res = json.loads(lines[-1])

    failures = list(res["failures"])
    with open(os.path.join(HERE, "pins.json")) as f:
        pin = json.load(f).get(workload)
    if pin and pin["seed"] == seed and (pin["digest"], pin["events"]) != (
            res["digest"], res["events"]):
        failures.append("digest %s events %d != pinned %s events %d" % (
            res["digest"], res["events"], pin["digest"], pin["events"]))
    if proc.returncode != 0 and not failures:
        failures.append("perfbench_sim exited %d" % proc.returncode)

    attempted = res["attempted"]
    failed = attempted if failures else attempted - res["completed"]
    values = dict(res["metrics"])
    values["completed_frac"] = 1.0 - failed / attempted

    print("workload %s seed %d: %d flows x %d repetitions, digest %s, %d events" % (
        workload, seed, res["flows"], res["reps"], res["digest"], res["events"]))
    if res["completed"] < attempted:
        print("incomplete: %d of %d flow runs not complete at the 10 s limit" % (
            attempted - res["completed"], attempted))
    print("env: build %s, lto %d, hardware_threads %d, steal %.2f s" % (
        res["build_type"], values["env.lto"], values["env.hardware_threads"],
        values["env.steal_s"]))
    print("unscaled: wall.setup_s %.9g s, wall.run_s %.9g s, wall.total_s %.9g s, "
          "env.host_speed %.6g" % (values["wall.setup_s"], values["wall.run_s"],
                                   values["wall.total_s"], values["env.host_speed"]))
    metrics = {}
    for m in specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-30s %16.9g %s" % (m["name"], values[m["name"]], m["unit"]))
    for msg in failures:
        print("CHECK FAILED: " + msg)
    sys.stdout.flush()
    return not failures, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    specs = metric_specs(args.trace)
    build()

    if args.workload != "all":
        correct, attempted, failed, metrics = run_workload(
            args.workload, args.seed, args.seconds, args.trace, specs)
    else:
        # Every workload, each in its own process, untraced then traced;
        # metric names are prefixed with the workload's.
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                ok, a, f, m = run_workload(workload, args.seed, args.seconds, trace,
                                           metric_specs(trace))
                correct, attempted, failed = correct and ok, attempted + a, failed + f
                metrics.update({"%s/%s" % (workload, k): v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
