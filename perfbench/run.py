"""
netcalc benchmark.

    python3 perfbench/run.py --workload critical --seed 1 --seconds 20 --trace 0

runs one workload in a fresh process and prints every metric by name with
its unit; the last line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.
``--workload all`` runs every workload both ways; add ``--smoke`` to do so
at minimal size and check that each named metric is emitted with its unit
and that no op fails.

The load is one caller in a closed loop.  Workload processes get
``OPENBLAS_NUM_THREADS=1``.  Timings are calibrated to a fixed reference
kernel timed between ops (``calibration.py``); raw timings are printed too.  See README.md for the workloads, metrics and
layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("critical", "sweep", "analyze_many", "fluid")
BLAS_THREADS = 1
SETUP_SAMPLES = 7  # set-up is timed in this many processes; the median is reported
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def worker(deadline, *args):
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT] + list(args)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError("worker timed out: %s" % " ".join(args)) from exc
    if proc.returncode != 0:
        raise BenchError("worker failed with exit code %d: %s" % (proc.returncode, " ".join(args)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_identity():
    """Git commit when the tree is a git checkout, and a digest of src/ always."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    commit = None
    try:
        lines = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                               capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        lines = []
    if len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
        commit = lines[1]
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def measure(workload, seed, seconds, traced, smoke, deadline):
    """Metrics with units, attempted and failed for one workload run."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        common.append("--smoke")
    if traced:
        result = worker(deadline, "--mode", "trace", *common)
        units = tracing.metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
        notes = ["%d spans written to %s" % (result["spans"], result["spans_file"])]
        return metrics, result, notes
    setups = [worker(deadline, "--mode", "setup", *common)
              for _ in range(1 if smoke else SETUP_SAMPLES - 1)]
    result = worker(deadline, "--mode", "run", *common)
    setups.append(result)
    samples = [s["setup_s"] for s in setups]
    raw_setup = statistics.median(s["setup_raw_s"] for s in setups)
    values = dict(result, setup_s=statistics.median(samples))
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    raw = result["raw"]
    notes = [
        "setup_s: median of %d calibrated set-ups %s" % (
            len(samples), ["%.4f" % s for s in samples]),
        "ops_per_s: %d ops in %d rounds over %.3f s" % (result["ops"], result["rounds"],
                                                        result["elapsed_s"]),
        "op_tail_ms: p%g of %d samples, %d beyond it" % (
            result["tail_percentile"], result["ops"], result["tail_beyond"]),
        "calibration: %d kernel samples, min/median/max %s ms, reference %g ms" % (
            result["kernel_samples"], "/".join("%.3f" % k for k in result["kernel_ms"]),
            result["kernel_reference_ms"]),
        "raw (uncalibrated): setup_s %.4f s, ops_per_s %.4f 1/s, op_p50_ms %.4f ms, "
        "op_tail_ms %.4f ms" % (raw_setup, raw["ops_per_s"], raw["op_p50_ms"],
                                raw["op_tail_ms"]),
        "fail_ratio = %.6g ratio (%d failed of %d)" % (
            result["failed"] / result["attempted"], result["failed"], result["attempted"]),
    ]
    return metrics, result, notes


def print_run(workload, traced, seed, metrics, result, notes, identity):
    env = dict(result["env"], seed=seed, workload=workload, trace=int(traced), **identity)
    print("%s env %s" % (workload, json.dumps(env, sort_keys=True)))
    for name, m in metrics.items():
        print("%s %s = %.6g %s" % (workload, name, m["value"], m["unit"]))
    for note in notes:
        print("%s   %s" % (workload, note))
    for failure in result["failures"]:
        print("%s   FAILED %s" % (workload, failure))


def check_names(workload, traced, metrics):
    """Smoke check: every metric named in BENCHMARK.json is emitted with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        spec = json.load(stream)
    wanted = spec["per_layer" if traced else "end_to_end"]
    problems = []
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append("%s: %s missing or not in %s" % (workload, m["name"], m["unit"]))
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "netcalc", "__init__.py")):
        print("error: no netcalc sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    identity = source_identity()
    runs = [(args.workload, bool(args.trace))]
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    seconds = 0.0 if args.smoke else args.seconds
    attempted = failed = 0
    metrics, problems = {}, []
    try:
        for workload, traced in runs:
            m, result, notes = measure(workload, args.seed, seconds, traced, args.smoke, deadline)
            print_run(workload, traced, args.seed, m, result, notes, identity)
            attempted += result["attempted"]
            failed += result["failed"]
            if args.smoke:
                problems += check_names(workload, traced, m)
            metrics.update(m if len(runs) == 1 else
                           {"%s.%s" % (workload, k): v for k, v in m.items()})
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for problem in problems:
        print("SMOKE %s" % problem)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not args.smoke or correct else 1


if __name__ == "__main__":
    sys.exit(main())
