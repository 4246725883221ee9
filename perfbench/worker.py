"""
One workload process: set-up, then a timed run, a traced run or nothing.

Started by ``run.py`` with the OpenBLAS thread count already in its
environment; prints one JSON object as its last line of output.

Modes:

* ``setup``: import netcalc and generate the inputs, report the time taken;
* ``run``: set up, warm up, then run whole rounds until ``--seconds`` have
  passed and at least the workload's minimum number of rounds is done,
  timing the calibration kernel between ops (see ``calibration.py``);
  outputs are checked after the clock stops;
* ``trace``: set up, warm up, run each op of the workload's fixed traced
  rounds untraced and then traced, and compare the two outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_KERNEL_SAMPLES = 20


def set_up(args, workdir):
    """Import netcalc, generate the inputs; return them with the time taken."""
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(args.root, "src"))
    import netcalc

    import_s = time.perf_counter() - start
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(netcalc.__file__).startswith(src + os.sep):
        raise SystemExit("netcalc was imported from %s, not from %s" % (netcalc.__file__, src))
    sys.path.insert(0, HERE)
    import workloads as wl

    wl.load_netcalc()
    start = time.perf_counter()
    inputs = wl.WORKLOADS[args.workload].setup(args.seed, args.smoke, workdir)
    return wl, inputs, import_s + time.perf_counter() - start


def calibrated_setup(setup_s):
    """Set-up time scaled by the kernel's speed right after set-up."""
    import calibration

    calibration.time_kernel()
    return setup_s * calibration.speed_factor(
        [calibration.time_kernel() for _ in range(SETUP_KERNEL_SAMPLES)])


def run_rounds(wl, inputs, seconds, min_rounds, cal):
    """
    Run whole rounds; return (outputs, per-op wall ns, per-op segment of
    ``cal``, rounds, elapsed s).
    """
    outputs, walls, segments = [], [], []
    clock = time.perf_counter_ns
    start = time.perf_counter()
    r = 0
    while True:
        ops = inputs.round(r)
        if ops is None:
            break
        for op in ops:
            segments.append(cal.segment)
            t0 = clock()
            out = wl.run_op(op)
            walls.append(clock() - t0)
            outputs.append((op.key, out))
            cal.maybe_sample()
        r += 1
        if r >= min_rounds and time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    cal.sample()
    return outputs, walls, segments, r, elapsed


def check_all(workload, outputs):
    import reference

    refs = reference.load(workload)
    failures = []
    for key, out in outputs:
        reason = reference.check(workload, key, out, refs)
        if reason is not None:
            failures.append("%s: %s" % (key, reason))
    return failures


def latency_metrics(wl, spec, lat_ms):
    """ops_per_s over the ops' summed time, p50 and the tail, from op latencies."""
    lat_ms = sorted(lat_ms)
    tail, beyond = wl.nearest_rank(lat_ms, spec.tail_percentile)
    return {"ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
            "op_p50_ms": wl.nearest_rank(lat_ms, 50.0)[0], "op_tail_ms": tail}, beyond


def timed_run(args, wl, inputs):
    import calibration

    spec = wl.WORKLOADS[args.workload]
    min_rounds = 1 if args.smoke else spec.min_rounds
    cal = calibration.Calibrator()
    outputs, walls, segments, rounds, elapsed = run_rounds(
        wl, inputs, args.seconds, min_rounds, cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factors = cal.factors()
    raw, _ = latency_metrics(wl, spec, [w / 1e6 for w in walls])
    calibrated, beyond = latency_metrics(
        wl, spec, [w / 1e6 * factors[s] for w, s in zip(walls, segments)])
    failures = check_all(args.workload, outputs)
    return dict(
        calibrated, raw=raw, ops=len(walls), rounds=rounds, elapsed_s=elapsed,
        tail_percentile=spec.tail_percentile, tail_beyond=beyond,
        kernel_samples=len(cal.samples), kernel_ms=[
            1e3 * min(cal.samples), 1e3 * statistics.median(cal.samples), 1e3 * max(cal.samples)],
        kernel_reference_ms=1e3 * calibration.REFERENCE_S,
        peak_rss_mb=peak_rss_mb,
        attempted=len(walls), failed=len(failures), failures=failures[:5],
    )


def traced_run(args, wl, inputs):
    """
    Run each op untraced, then again with the wrappers installed, so both
    runs of an op see the same machine conditions; the wrappers are
    installed and removed around every traced op.
    """
    import tracing

    rounds = 1 if args.smoke else wl.WORKLOADS[args.workload].trace_rounds
    tracer = tracing.Tracer()
    clock = time.perf_counter_ns
    plain, plain_walls, walls, failures = [], [], [], []
    for r in range(rounds):
        for op in inputs.round(r):
            t0 = clock()
            out = wl.run_op(op)
            plain_walls.append(clock() - t0)
            plain.append((op.key, out))
            tracer.op = len(walls)
            tracer.install()
            try:
                t0 = clock()
                traced = wl.run_op(op)
                walls.append(clock() - t0)
            finally:
                tracer.remove()
            if traced != out:
                failures.append("%s: traced output differs from untraced" % op.key)
    failures = check_all(args.workload, plain) + failures
    metrics = tracer.layer_metrics(len(walls), walls, sum(plain_walls))
    out_dir = os.path.join(args.root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, "spans-%s.csv" % args.workload)
    tracer.write(spans_path)
    return {
        "metrics": metrics, "spans": len(tracer.spans), "spans_file": spans_path,
        "attempted": len(plain), "failed": len(failures), "failures": failures[:5],
    }


def environment():
    import importlib.metadata

    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy_version,
        "nproc": os.cpu_count(), "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)
    workdir = os.path.join(args.root, ".perfbench_out", "%s-%d" % (args.workload, os.getpid()))
    try:
        wl, inputs, setup_s = set_up(args, workdir)
        result = {"setup_s": calibrated_setup(setup_s), "setup_raw_s": setup_s,
                  "env": environment()}
        if args.mode != "setup":
            for warm in inputs.warmup:
                warm()
            result.update((timed_run if args.mode == "run" else traced_run)(args, wl, inputs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
