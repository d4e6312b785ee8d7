#!/usr/bin/env python3
"""Campaign benchmark for the Avis reproduction.

Run from the root of a checkout:

    python3 campaignbench/run.py --workload paper-grid --seed 100 --seconds 30 --trace 0

Builds campaignbench/ (and through it the Avis library) with CMake into
.bench_build (or $CARGO_TARGET_DIR when set), runs campaign_bench for the
workload, checks the campaign's outputs, and prints one JSON object as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
campaignbench/README.md). A Chrome trace of the traced run lands in
.bench_out/. --write-pins re-pins the workload's found-bug sets for the
default seed into campaignbench/pins.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("paper-grid", "avis-waves", "scenario-sweep")
DEFAULT_SEED = 100
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 160  # all iterations of one run, replay included
HARD_STOP_S = 120    # no round starts that would end past this, whatever --seconds says


def die(message):
    print(f"campaignbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"no Avis checkout around the benchmark ({ROOT} lacks CMakeLists.txt or src/)")
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "campaign_bench", "-j", "4"],
    ]
    for step in steps:
        try:
            # Build chatter goes to stderr: stdout's last line is the result.
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            die(f"build step {step[:2]} failed: {err}")
        if done.returncode != 0:
            die(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return os.path.join(out, "campaign_bench")


def commit_id():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def run_binary(binary, args, deadline, trace=0, replay=0):
    """One campaign iteration in a fresh process; returns its JSON document."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--replay", str(replay),
           "--out-dir", os.path.join(ROOT, ".bench_out"), "--commit", args.commit]
    timeout = max(10.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"campaign_bench did not finish within {timeout:.0f} s")
    if done.returncode != 0:
        die(f"campaign_bench exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        die("campaign_bench printed nothing")
    return json.loads(lines[-1])


def run_iterations(binary, args):
    """Runs iterations until the next one would overrun --seconds (at least
    one). Traced runs alternate untraced and traced iterations; the first
    traced one also replays plans and writes the Chrome trace."""
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    budget = min(args.seconds, HARD_STOP_S)
    docs = []
    longest_round = 0.0
    first = True
    while True:
        round_start = time.monotonic()
        docs.append(run_binary(binary, args, deadline))
        if args.trace:
            docs.append(run_binary(binary, args, deadline, trace=1, replay=int(first)))
        first = False
        longest_round = max(longest_round, time.monotonic() - round_start)
        if any(d["iteration"]["error"] is not None for d in docs):
            break
        if time.monotonic() - start + longest_round > budget:
            break
    return docs


def cell_key(cell):
    return (cell["label"], cell["experiments"], tuple(sorted(cell["found"])))


def check(docs, args):
    """Correctness: returns (correct, attempted, failed)."""
    iterations = [d["iteration"] for d in docs]
    cells = docs[0]["provenance"]["cells"]
    pins = None
    if args.seed == DEFAULT_SEED:
        with open(PINS) as f:
            pins = json.load(f)["workloads"].get(args.workload)
        if pins is None:
            die(f"no pinned found-bug sets for {args.workload} in {PINS}")
    attempted = cells * len(iterations)
    failed = 0
    reference = None
    deterministic = True
    for it in iterations:
        if it["error"] is not None:
            print(f"campaignbench: campaign threw: {it['error']}", file=sys.stderr)
            failed += cells
            continue
        if pins is not None:
            for cell in it["cells"]:
                if sorted(cell["found"]) != sorted(pins.get(cell["label"], [None])):
                    print(f"campaignbench: {cell['label']} found {cell['found']}, pinned "
                          f"{pins.get(cell['label'])}", file=sys.stderr)
                    failed += 1
        # A cell is a pure function of its spec: every iteration of one seed,
        # traced or not, must find the same bugs with the same experiments.
        keys = [cell_key(c) for c in it["cells"]]
        if reference is None:
            reference = keys
        elif keys != reference:
            print("campaignbench: iterations of one seed disagree", file=sys.stderr)
            deterministic = False
    correct = failed == 0 and deterministic
    if args.trace:
        replay = replay_of(docs)
        if replay.get("replay.plans", 0) < 1 or replay.get("replay.parity_failures", 1) != 0:
            print("campaignbench: step replay failed parity", file=sys.stderr)
            correct = False
    return correct, attempted, failed


END_TO_END_UNITS = {"wall_s": "s", "exp_per_s": "1/s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


# Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "campaign.cell_s_p50": "s", "campaign.cell_s_max": "s", "campaign.pool_idle_frac": "ratio",
    "campaign.experiments": "count",
    "checker.profile_s": "s", "checker.prefix_s": "s", "checker.waves": "count",
    "checker.plans_per_wave_p50": "count", "checker.wave_ms_p50": "ms", "checker.merge_ms": "ms",
    "checker.proposed": "count", "checker.applied": "count", "checker.applied_ratio": "ratio",
    "checker.cpu_util": "ratio",
    "strategy.next_batch_ms": "ms", "strategy.feedback_ms": "ms", "strategy.calls": "count",
    "harness.stepped_sim_s": "s", "harness.ns_per_stepped_ms": "ns/ms",
    "harness.experiment_sim_s_p50": "s",
    "checkpoint.hit_rate": "ratio", "checkpoint.tree_hit_rate": "ratio",
    "checkpoint.skipped_frac": "ratio",
    "find.first_s_p50": "s", "find.events": "count",
    "sim.step_ns": "ns", "fw.step_ns": "ns", "fw.estimator_ns": "ns", "fw.control_ns": "ns",
    "sensors.reads_per_step": "count/step", "sensors.read_ns": "ns", "workload.tick_ns": "ns",
    "monitor.sample_ns": "ns", "step.total_ns": "ns", "step.untraced_ns": "ns",
    "replay.plans": "count", "replay.steps": "count", "replay.parity_failures": "count",
    "trace.overhead_frac": "ratio",
}


def replay_of(docs):
    return next((d["replay"] for d in docs if d["replay"]), {})


def end_to_end(docs):
    untraced = [d["iteration"] for d in docs if d["iteration"]["error"] is None]
    if not untraced:
        die("no iteration completed")
    values = {
        "wall_s": statistics.median(it["wall_s"] for it in untraced),
        "exp_per_s": statistics.median(it["experiments"] / it["wall_s"] for it in untraced),
        "setup_s": statistics.median(it["setup_s"] for it in untraced),
        "cpu_s": statistics.median(it["cpu_s"] for it in untraced),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in docs),
    }
    print(f"campaignbench: {len(untraced)} iteration(s)", file=sys.stderr)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(docs):
    iterations = [d["iteration"] for d in docs if d["iteration"]["error"] is None]
    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    if not plain or not traced:
        die("traced run has no completed traced/untraced pair")
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(it["layers"][name] for it in traced)
    values.update(replay_of(docs))
    traced_wall = statistics.median(it["wall_s"] for it in traced)
    plain_wall = statistics.median(it["wall_s"] for it in plain)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    print(f"campaignbench: tracing overhead {100 * values['trace.overhead_frac']:+.1f}% "
          f"(traced wall_s {traced_wall:.3f} vs untraced {plain_wall:.3f}); "
          f"trace at {next(d['trace_file'] for d in docs if d['replay'])}", file=sys.stderr)
    if set(values) != set(LAYER_UNITS):
        die(f"per-layer metric set drifted: {sorted(set(values) ^ set(LAYER_UNITS))}")
    return {k: {"value": values[k], "unit": unit} for k, unit in LAYER_UNITS.items()}


def write_pins(doc, args):
    it = doc["iteration"]
    if it["error"] is not None:
        die(f"cannot pin: campaign threw: {it['error']}")
    pins = {"seed": DEFAULT_SEED, "workloads": {}}
    if os.path.exists(PINS):
        with open(PINS) as f:
            pins = json.load(f)
    pins["workloads"][args.workload] = {c["label"]: c["found"] for c in it["cells"]}
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"campaignbench: pinned {len(it['cells'])} cells of {args.workload}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    args.commit = commit_id()
    if args.write_pins:
        args.seed = DEFAULT_SEED
        write_pins(run_binary(binary, args, time.monotonic() + RUN_TIMEOUT_S), args)
        return
    docs = run_iterations(binary, args)
    correct, attempted, failed = check(docs, args)
    metrics = per_layer(docs) if args.trace else end_to_end(docs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
