"""
Per-layer tracing from outside the program.

:class:`Tracer` replaces each public function of a layer, at every name its
callers look it up by (the module attributes of every ``netcalc`` module
that holds it, or the class attribute for a method), with a wrapper that
records a span: name, layer, start, end, parent span and op id.  Spans stay
in memory until :meth:`Tracer.write`.  A few more wrappers only count
(dense eigenvalue fallbacks, linear solves, recursions built) and record no
span, so their time stays with the calling layer.

Functions left unwrapped, such as private helpers, count as self time of
the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter
from typing import Dict, List, Tuple

#: layer -> wrapped functions, as ``module:attribute`` or ``module:Class.method``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "cli": ("netcalc.cli:main",),
    "fileio": ("netcalc.fileio:load_network",),
    "topologies": tuple(
        "netcalc.topologies:" + g
        for g in ("uni_ring", "bi_ring", "three_ring", "toy", "two_server_sink_tree")
    ),
    "network": ("netcalc.network:local_stability", "netcalc.network:classify",
                "netcalc.network:renumber"),
    "decomposition": ("netcalc.decomposition:decompose", "netcalc.decomposition:removal_tree",
                      "netcalc.decomposition:group_by_arc"),
    "tree_analysis.view": ("netcalc.tree_analysis:upstream_view",),
    "tree_analysis.pass": ("netcalc.tree_analysis:UpstreamView.backlog",
                           "netcalc.tree_analysis:tree_backlog",
                           "netcalc.tree_analysis:compute_xi",
                           "netcalc.tree_analysis:tree_delay"),
    "stability.build": tuple("netcalc.stability:" + f
                             for f in ("build_sd", "build_td", "build_ag", "build_grouped")),
    "stability.decide": ("netcalc.stability:spectral_radius", "netcalc.stability:rho_below"),
    "stability.solve": ("netcalc.stability:solve_recursion",),
    "stability.objective": ("netcalc.stability:objective_for", "netcalc.stability:one_stage_bound",
                            "netcalc.stability:two_stage_bound"),
    "stability.driver": ("netcalc.stability:analyze", "netcalc.stability:is_stable",
                         "netcalc.stability:critical_utilization"),
    "fluid.sim": ("netcalc.fluid:simulate_fluid",),
    "fluid.check": ("netcalc.fluid:check_arrival_curves", "netcalc.fluid:check_strict_service"),
    "fluid.scenario": ("netcalc.fluid:random_scenario", "netcalc.fluid:worst_case_scenario"),
    "oracle": ("netcalc.oracle:bruteforce_backlog", "netcalc.oracle:worst_case_periods"),
}

#: Count-only wrappers: each adds to one counter and records no span.
COUNTERS = (
    "numpy.linalg:eigvals",
    "numpy.linalg:solve",
    "netcalc.stability:LinearRecursion.__post_init__",
)

#: Per-layer metrics beyond ``<layer>.calls`` and ``<layer>.self_s``, with units.
EXTRA_METRICS = {
    "stability.build.vars": "count",
    "stability.build.nnz": "count",
    "stability.decide.eigvals": "count",
    "stability.decide.fallback_ratio": "ratio",
    "stability.solve.vars": "count",
    "decomposition.decompose_per_op": "ratio",
    "tree_analysis.pass_per_view": "ratio",
    "fluid.position_steps": "count",
    "oracle.cases": "count",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "ratio",
}


def metric_units() -> Dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _resolve(spec: str):
    """(owner, attribute, original) for ``module:attr`` or ``module:Class.attr``."""
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _holders(owner, attr, original):
    """Every (namespace, name) a caller can reach ``original`` by."""
    if isinstance(owner, type) or not owner.__name__.startswith("netcalc"):
        return [(owner, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if name == "netcalc" or name.startswith("netcalc."):
            for key, value in vars(module).items():
                if value is original:
                    found.append((module, key))
    return found


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []  # (name, layer, start_ns, end_ns, parent, op)
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: List[int] = []
        self._patches: List[tuple] = []  # (namespace, name, original)

    # -- installing and removing -------------------------------------------

    def install(self) -> None:
        for layer, specs in LAYERS.items():
            for spec in specs:
                owner, attr, original = _resolve(spec)
                self._patch(owner, attr, original, self._span_wrapper(original, attr, layer))
        for spec in COUNTERS:
            owner, attr, original = _resolve(spec)
            self._patch(owner, attr, original, self._count_wrapper(original, spec))

    def _patch(self, owner, attr, original, wrapper) -> None:
        wrapper.__perfbench_wrapper__ = True
        for namespace, name in _holders(owner, attr, original):
            self._patches.append((namespace, name, original))
            setattr(namespace, name, wrapper)

    def remove(self) -> None:
        """Restore every original; raise if any wrapper is left behind."""
        for namespace, name, original in reversed(self._patches):
            setattr(namespace, name, original)
        left = [name for namespace, name, original in self._patches
                if vars(namespace).get(name) is not original]
        for name, module in list(sys.modules.items()):
            if name == "netcalc" or name.startswith("netcalc."):
                left += [k for k, v in vars(module).items()
                         if getattr(v, "__perfbench_wrapper__", False)]
        self._patches = []
        if left:
            raise RuntimeError("wrappers left after removal: %s" % sorted(set(left)))

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name, layer):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, layer, start, end, parent, self.op)
            counts[name] += 1
            if name == "simulate_fluid":
                counts["position_steps"] += (len(result.times) - 1) * len(result.cum_in)
            elif layer == "oracle":
                tandem = args[0] if args else kwargs["tandem"]
                counts["oracle_cases"] += math.factorial(tandem.num_servers)
            return result

        return wrapper

    def _count_wrapper(self, fn, spec):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if spec.endswith("eigvals"):
                counts["eigvals"] += 1
            elif spec.endswith("solve"):
                counts["solve_vars"] += args[0].shape[0]
            else:  # LinearRecursion.__post_init__(self)
                counts["build_vars"] += args[0].size
                counts["build_nnz"] += int((args[0].M != 0).sum())
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def layer_metrics(self, ops: int, op_wall_ns: List[int], untraced_ns: int) -> Dict[str, float]:
        """Per-layer metrics; checks that self times and the rest add up to op time."""
        child_ns = [0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_ns = Counter(), Counter()
        top_ns = 0
        for sid, (name, layer, start, end, parent, op) in enumerate(self.spans):
            calls[layer] += 1
            self_ns[layer] += end - start - child_ns[sid]
            if parent < 0:
                top_ns += end - start
        wall_ns = sum(op_wall_ns)
        unattributed_ns = wall_ns - top_ns
        if abs(sum(self_ns.values()) + unattributed_ns - wall_ns) > 1e-6 * wall_ns:
            raise RuntimeError("self times and unattributed time do not add up to op time")
        c = self.counts
        metrics: Dict[str, float] = {}
        for layer in LAYERS:
            metrics[layer + ".calls"] = calls[layer]
            metrics[layer + ".self_s"] = self_ns[layer] / 1e9
        decisions = c["spectral_radius"] + c["rho_below"]
        metrics.update({
            "stability.build.vars": c["build_vars"],
            "stability.build.nnz": c["build_nnz"],
            "stability.decide.eigvals": c["eigvals"],
            "stability.decide.fallback_ratio": c["eigvals"] / decisions if decisions else 0.0,
            "stability.solve.vars": c["solve_vars"],
            "decomposition.decompose_per_op": c["decompose"] / ops,
            "tree_analysis.pass_per_view": c["backlog"] / c["upstream_view"] if c["upstream_view"] else 0.0,
            "fluid.position_steps": c["position_steps"],
            "oracle.cases": c["oracle_cases"],
            "trace.overhead": wall_ns / untraced_ns,
            "trace.unattributed_share": unattributed_ns / wall_ns,
        })
        return metrics

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,name,layer,start_ns,end_ns,parent,op\n")
            for sid, (name, layer, start, end, parent, op) in enumerate(self.spans):
                out.write("%d,%s,%s,%d,%d,%d,%d\n" % (sid, name, layer, start, end, parent, op))
