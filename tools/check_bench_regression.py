#!/usr/bin/env python3
"""Bench regression gate: compare a fresh BENCH_throughput.json against the
committed baseline (bench/baselines/BENCH_throughput.json).

Only the single-worker configurations are gated — multi-worker numbers on
shared CI runners measure the neighbours more than the code — and the guard
band is deliberately generous (fail only on >30% items/sec regression) so a
noisy runner does not block an innocent change. A real hot-loop regression
(2x slower harness, broken checkpoint reuse) still trips it loudly.

Usage: check_bench_regression.py CURRENT.json BASELINE.json [GATED_NAME...]

Extra arguments override the default gated-name list, so the same gate can
run against other bench binaries (CI gates perf_micro's BM_FullFirmwareStep,
BM_HinjRoundTrip, BM_SensorRead, BM_EstimatorUpdate, BM_MonitorSample,
BM_FuzzGeneration and BM_SimulatorStepLandedIdle rows against
bench/baselines/BENCH_perf_micro.json this way).
"""

import json
import sys

# Single-worker benches worth gating; names must match google-benchmark's
# JSON "name" field exactly. BM_SingleExperiment is one scalar experiment,
# the path every checker experiment takes; it is registered with
# MinTime(0.5), so a short --benchmark_min_time run still averages a dozen
# or more experiments, and google-benchmark appends that min time to its
# name. BM_CheckerCampaign2h is a SABRE campaign at the paper's 2 h budget;
# BM_CheckerSetup is one scenario's profiling plus checkpoint root, the
# fixed cost of every campaign cell.
GATED = [
    "BM_SingleExperiment/min_time:0.500",
    "BM_CheckerSetup",
    "BM_CheckerCampaign2h/1/process_time/real_time",
]

# Fail only below this fraction of the baseline rate (>30% regression).
GUARD_BAND = 0.70


def rates(report_path):
    with open(report_path) as fh:
        report = json.load(fh)
    out = {}
    for bench in report.get("benchmarks", []):
        if "items_per_second" in bench:
            out[bench["name"]] = float(bench["items_per_second"])
    return out


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    current = rates(argv[1])
    baseline = rates(argv[2])
    gated = argv[3:] if len(argv) > 3 else GATED
    failures = []
    for name in gated:
        # A gated bench missing from either side is a failure: silently
        # skipping would turn the gate into a no-op after a bench rename or
        # a truncated baseline refresh.
        if name not in baseline:
            failures.append(f"{name}: missing from baseline (refresh it or update GATED)")
            continue
        if name not in current:
            failures.append(f"{name}: missing from current report")
            continue
        ratio = current[name] / baseline[name]
        status = "OK" if ratio >= GUARD_BAND else "REGRESSION"
        print(f"  {name}: {current[name]:.2f} vs baseline {baseline[name]:.2f} "
              f"items/s ({ratio:.2f}x) {status}")
        if ratio < GUARD_BAND:
            failures.append(
                f"{name}: {current[name]:.2f} items/s is below "
                f"{GUARD_BAND:.0%} of baseline {baseline[name]:.2f}")
    if failures:
        print("bench regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
