"""
Reference outputs and the checks behind ``failed``.

The files under ``reference/`` were recorded from the code the benchmark
was defined on.  Later code must reproduce them:

* ``critical``: U* within 1e-12 (same verdicts give the same bisection);
* ``sweep``: verdict strings exactly, bounds within 1e-9 relative, and an
  unbounded cell stays unbounded (the table has the layout of
  ``netcalc sweep``, at full precision);
* ``analyze_many``: exit code, verdict, stability flag, target and variable
  list exactly; bound, fixed point and bound form within 1e-9 relative.
  ``rho`` is a diagnostic and is not compared.

``fluid`` ops carry their own checks (see ``workloads.py``).

Run ``python3 perfbench/reference.py`` from the repository root to record
the references again; that is only right when outputs are meant to change.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os
import sys
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "reference")
REL_TOL = 1e-9
SWEEP_COLUMNS = {"sd": "SD", "td": "TD", "ag": "AG", "2s": "TWO_STAGE"}  # as `netcalc sweep`


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _all_close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))


def _read_sweep_table(name: str):
    with open(os.path.join(REF_DIR, name), newline="", encoding="utf-8") as stream:
        return list(csv.reader(stream))


def load(workload: str) -> Optional[Dict[str, object]]:
    """Reference outputs by op key (None for a workload checked in place)."""
    if workload == "critical":
        with open(os.path.join(REF_DIR, "critical.json"), encoding="utf-8") as stream:
            return json.load(stream)
    if workload == "sweep":
        bounds, verdicts = _read_sweep_table("sweep.csv"), _read_sweep_table("sweep_verdicts.csv")
        method_of = {column: m for m, column in SWEEP_COLUMNS.items()}
        header = bounds[0]
        refs = {}
        for row, (b_row, v_row) in enumerate(zip(bounds[1:], verdicts[1:])):
            for col in range(1, len(header)):
                method = method_of[header[col]]
                bound = None if b_row[col] == "inf" else float(b_row[col])
                refs["%d/%s" % (row, method)] = {"verdict": v_row[col], "bound": bound}
        return refs
    if workload == "analyze_many":
        with gzip.open(os.path.join(REF_DIR, "analyze_many.json.gz"), "rt", encoding="utf-8") as stream:
            return json.load(stream)
    return None


def _check_analyze(output, ref) -> Optional[str]:
    if "error" in output or output["exit"] != ref["exit"]:
        return "exit %r, reference %r" % (output.get("exit", output.get("error")), ref["exit"])
    if ref["doc"] is None:
        return None
    try:
        doc = json.loads(output["stdout"])
    except json.JSONDecodeError:
        return "stdout is not a JSON document"
    want = ref["doc"]
    for key in ("verdict", "stable", "target", "variables"):
        if doc.get(key) != want.get(key):
            return "%s %r, reference %r" % (key, doc.get(key), want.get(key))
    for key in ("bound", "bound_constant"):
        if not _close(doc.get(key), want.get(key)):
            return "%s %r, reference %r" % (key, doc.get(key), want.get(key))
    for key in ("fixed_point", "bound_coefficients"):
        if not _all_close(doc.get(key), want.get(key)):
            return "%s differs from the reference" % key
    return None


def check(workload: str, key: str, output, refs) -> Optional[str]:
    """None when ``output`` passes, else the reason it fails."""
    if workload == "fluid":
        if "error" in output:
            return "%(error)s: %(message)s" % output
        failed = [name for name, ok in output["checks"].items() if not ok]
        return "failed checks %s" % failed if failed else None
    if key not in refs:
        return "no reference output"
    ref = refs[key]
    if isinstance(output, dict) and "error" in output and workload != "analyze_many":
        return "%(error)s: %(message)s" % output
    if workload == "critical":
        return None if abs(output - ref) <= 1e-12 else "U* %r, reference %r" % (output, ref)
    if workload == "sweep":
        if output["verdict"] != ref["verdict"]:
            return "verdict %r, reference %r" % (output["verdict"], ref["verdict"])
        return None if _close(output["bound"], ref["bound"]) else (
            "bound %r, reference %r" % (output["bound"], ref["bound"]))
    return _check_analyze(output, ref)


def record() -> None:
    """Run every op of the full-size workloads once and store the outputs."""
    import shutil

    import workloads as wl

    wl.load_netcalc()
    os.makedirs(REF_DIR, exist_ok=True)
    critical = {op.key: wl.run_op(op)
                for op in wl.setup_critical(0, False, "").rounds[0]}
    with open(os.path.join(REF_DIR, "critical.json"), "w", encoding="utf-8") as out:
        json.dump(critical, out, indent=1, sort_keys=True)
        out.write("\n")

    cells = {op.key: wl.run_op(op) for op in wl.setup_sweep(0, False, "").rounds[0]}
    columns = ["U"] + [SWEEP_COLUMNS[m] for m in wl.METHODS]
    for name, field in (("sweep.csv", "bound"), ("sweep_verdicts.csv", "verdict")):
        with open(os.path.join(REF_DIR, name), "w", newline="", encoding="utf-8") as out:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(columns)
            for row, u in enumerate(wl.sweep_utilizations(False)):
                values = [cells[wl.sweep_key(row, m)][field] for m in wl.METHODS]
                if field == "bound":  # unbounded reads "inf", as in `netcalc sweep`
                    values = ["inf" if v is None else repr(v) for v in values]
                writer.writerow([repr(u)] + values)

    workdir = os.path.join(os.path.dirname(HERE), ".perfbench_out", "record")
    os.makedirs(workdir, exist_ok=True)
    docs = {}
    try:
        for net_id, net in wl.pool_networks().items():
            path = os.path.join(workdir, net_id + ".json")
            wl.nc.fileio.save_network(net, path)
            for m in wl.METHODS:
                out = wl.run_cli(wl.analyze_argv(path, net, m))
                doc = json.loads(out["stdout"]) if out["exit"] in (0, 3) else None
                docs["%s/%s" % (net_id, m)] = {"exit": out["exit"], "doc": doc}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    data = json.dumps(docs, separators=(",", ":"), sort_keys=True).encode("utf-8")
    with open(os.path.join(REF_DIR, "analyze_many.json.gz"), "wb") as out:
        out.write(gzip.compress(data, compresslevel=9, mtime=0))


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    record()
