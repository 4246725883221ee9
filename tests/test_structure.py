"""
The rate-free structure that ``critical_utilization`` prepares once and
binds to every ``family(U)`` of its bisection, the flow numbers it binds
once per family's arrivals, the pass's rate grid and level plan it lays out
once, the start vectors its decisions hand on from step to step, the order
in which it visits the points, and the ``N`` its steps never build; the
structure ``netcalc sweep`` holds per method across its grid; and two rules
on the package's own source: it adds floats with ``left_sum``, never the
builtin ``sum``, and its root exports no helper that only its modules keep.
"""

import ast
import glob
import importlib
import io
import json
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import netcalc
import netcalc.cli
import netcalc.stability
from netcalc import Flow, Network, TokenBucket, analyze, critical_utilization
from netcalc.errors import LocallyUnstableError
from netcalc.fileio import write_sweep_csv
from netcalc.network import _flow_numbers, _numbers
from netcalc.stability import (
    U_MAX, U_MIN, Target, _Held, _SdLayout, _analyze, _method_recursions, _prepare, is_stable,
)
from netcalc.tree_analysis import _RowLayout
from netcalc.topologies import bi_ring, three_ring, uni_ring

import sd_reference
from conftest import load_by_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The benchmark's reference outputs.
REFERENCE = os.path.join(ROOT, "perfbench", "reference")

WORKLOADS = load_by_path("perfbench_workloads", "perfbench", "workloads.py")
WORKLOADS.load_netcalc()

# The benchmark's critical bisections: ring families and the methods run on each.
CRITICAL_CASES = [((kind, n), m) for kind, n, m in WORKLOADS.critical_cases(False)]
_family = WORKLOADS._family


def _recursions(net, method, structure=None, flows=None):
    try:
        return _method_recursions(net, method, structure=structure, flows=flows)[2]
    except LocallyUnstableError:
        return None


@pytest.mark.parametrize("family, method", CRITICAL_CASES,
                         ids=["%s(%d)/%s" % (kind, n, m) for (kind, n), m in CRITICAL_CASES])
def test_structure_from_u_max_rebinds_bit_for_bit(family, method):
    # at every U the bisection visits, in its order, the structure prepared
    # from family(u_max) and bound to family(U), by a bind of its own or
    # through the flow half bound once from family(u_max) (its coefficient
    # pass keeping its rate-only grid from step to step), gives the
    # recursions of a structure prepared from family(U) itself
    fam = _family(*family)
    visited = []

    def recording(u):
        visited.append(u)
        return fam(u)

    critical_utilization(recording, method)
    held = _prepare(fam(1.0), method)
    flows = held.bind(_flow_numbers(fam(1.0)))
    bound = 0
    for u in visited:
        net = fam(u)
        fresh = _recursions(net, method)
        for reused in (_recursions(net, method, held), _recursions(net, method, held, flows)):
            assert (fresh is None) == (reused is None)
            if fresh is None:
                continue
            for a, b in zip(fresh, reused, strict=True):
                assert a.labels == b.labels
                assert np.array_equal(a.M, b.M) and np.array_equal(a.N, b.N)
            if method == "sd":
                expected = sd_reference.build_sd(net)
                assert np.array_equal(reused[0].M, expected.M)
                assert np.array_equal(reused[0].N, expected.N)
        bound += fresh is not None
    assert bound >= 10


def _reference_bisection(family, method, tol=1e-4, u_min=1e-3, u_max=1.0, low_end_last=False):
    # the bisection over fresh is_stable calls that critical_utilization
    # replaced, testing u_min second; or, with low_end_last, in
    # critical_utilization's order, testing u_min only if no midpoint was stable
    if is_stable(family(u_max), method):
        return u_max
    if not low_end_last and not is_stable(family(u_min), method):
        return 0.0
    lo, hi = u_min, u_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: the bracket cannot shrink
            break
        if is_stable(family(mid), method):
            lo = mid
        else:
            hi = mid
    if low_end_last and lo == u_min and not is_stable(family(u_min), method):
        return 0.0
    return 0.5 * (lo + hi)


def _size(family, method):
    # the largest recursion of the method, at a utilization every case keeps stable
    return max(lr.size for lr in _recursions(_family(*family)(1e-3), method))


SMALL_CASES = [(family, m) for family, m in CRITICAL_CASES if _size(family, m) <= 420]


@pytest.mark.parametrize("family, method", SMALL_CASES,
                         ids=["%s(%d)/%s" % (kind, n, m) for (kind, n), m in SMALL_CASES])
def test_warm_started_bisection_equals_cold_bisection(family, method):
    # each decision starts from the previous step's vector; the U* must be
    # the one of the bisection whose decisions all start from ones
    fam = _family(*family)
    assert critical_utilization(fam, method) == _reference_bisection(fam, method)


def _record_decisions(monkeypatch):
    # every decision as [start, vector handed on, bracket steps]
    decisions = []
    original_decide, original_brackets = netcalc.stability._decide, netcalc.stability._brackets

    def brackets(*args, **kwargs):
        for bracket in original_brackets(*args, **kwargs):
            decisions[-1][2] += 1
            yield bracket

    def decide(M, threshold, start=None):
        record = [start, None, 0]
        decisions.append(record)
        below, record[1] = original_decide(M, threshold, start)
        return below, record[1]

    monkeypatch.setattr(netcalc.stability, "_brackets", brackets)
    monkeypatch.setattr(netcalc.stability, "_decide", decide)
    return decisions


def _is_ones(start):
    return start is None or np.array_equal(start, np.ones(len(start)))


def test_bisection_decisions_start_from_the_previous_vector(monkeypatch):
    fam = lambda u: uni_ring(12, u)
    decisions = _record_decisions(monkeypatch)
    u_star = critical_utilization(fam, "sd")
    warm = list(decisions)
    decisions.clear()
    assert _reference_bisection(fam, "sd", low_end_last=True) == u_star
    cold = list(decisions)
    assert len(warm) == len(cold) >= 10
    assert _is_ones(warm[0][0])
    assert all(now[0] is before[1] for before, now in zip(warm, warm[1:]))
    assert all(start is None for start, _, _ in cold)
    assert sum(steps for _, _, steps in warm) < sum(steps for _, _, steps in cold)


def _critical_reference():
    with open(os.path.join(REFERENCE, "critical.json"), encoding="utf-8") as stream:
        return json.load(stream)


@pytest.mark.parametrize("family, method", CRITICAL_CASES,
                         ids=["%s(%d)/%s" % (kind, n, m) for (kind, n), m in CRITICAL_CASES])
def test_critical_utilization_matches_the_benchmark_reference(family, method):
    # every U* of the benchmark's families, whatever order the points are visited in
    u_star = critical_utilization(_family(*family), method)
    assert repr(u_star) == repr(_critical_reference()["%s(%d)/%s" % (*family, method)])


def _recording(family):
    visited = []

    def recording(u):
        visited.append(u)
        return family(u)

    return recording, visited


@pytest.mark.parametrize("method", ["sd", "td", "ag", "2s"])
def test_an_interior_threshold_never_visits_u_min(method):
    # U_MAX, then the 14 midpoints of [U_MIN, U_MAX]: the verdict at U_MIN
    # is implied by the stable midpoint below U*
    family, visited = _recording(lambda u: uni_ring(4, u))
    u_star = critical_utilization(family, method)
    assert 0.0 < u_star < U_MAX
    assert visited[0] == U_MAX and U_MIN not in visited
    assert len(visited) == 15


@pytest.mark.parametrize("method", ["sd", "td"])
def test_a_family_unstable_everywhere_visits_u_min_last(method):
    family, visited = _recording(lambda u: uni_ring(4, 1.0))  # locally unstable at every U
    assert critical_utilization(family, method) == 0.0
    assert visited[0] == U_MAX and visited[-1] == U_MIN
    assert len(visited) == 16 and visited.count(U_MIN) == 1


@pytest.mark.parametrize("method", ["sd", "td"])
def test_a_threshold_in_the_last_cell_above_u_min_is_found(method):
    # stable only below the lowest midpoint (U_MIN + 0.999 / 2**14): every
    # midpoint is unstable, so U_MIN is tested last, and found stable
    step = lambda u: uni_ring(4, 0.1 if u < 1.03e-3 else 1.0)
    family, visited = _recording(step)
    u_star = critical_utilization(family, method)
    assert visited[-1] == U_MIN and min(visited[:-1]) > 1.03e-3
    assert u_star == _reference_bisection(step, method) == 0.5 * (U_MIN + min(visited[:-1]))


@pytest.mark.parametrize("family", [("uni_ring", 12), ("three_ring", 10)],
                         ids=["uni_ring(12)", "three_ring(10)"])
def test_bisection_decides_without_building_the_sd_matrix(monkeypatch, family):
    # the decisions step through the factored product, and an exact test on
    # these recursions (L = 132 and 220) solves through the capacitance
    # matrix: some decisions reach the exact test, and none builds M
    counts = Counter()
    original_matrix = netcalc.stability._SdFactors.matrix
    original_solve = netcalc.stability.LinearRecursion.shifted_solve

    def matrix(self):
        counts["matrix"] += 1
        return original_matrix(self)

    def shifted_solve(self, theta, rhs):
        counts["exact"] += 1
        return original_solve(self, theta, rhs)

    monkeypatch.setattr(netcalc.stability._SdFactors, "matrix", matrix)
    monkeypatch.setattr(netcalc.stability.LinearRecursion, "shifted_solve", shifted_solve)
    u_star = critical_utilization(_family(*family), "sd")
    assert repr(u_star) == repr(_critical_reference()["%s(%d)/sd" % family])
    assert counts["matrix"] == 0 and counts["exact"] > 0


def _reversed(net):
    # the same servers and flow count, every path run backwards
    return Network(net.servers, tuple(Flow(f.arrival, f.path[::-1]) for f in net.flows))


def _count_prepare(monkeypatch):
    counts = Counter()
    original = netcalc.stability._prepare

    def counted(*args, **kwargs):
        counts["prepare"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(netcalc.stability, "_prepare", counted)
    return counts


def _flow_paths(u):
    # the same flow count, every path reversed from u = 0.7 on
    return uni_ring(6, u) if u < 0.7 else _reversed(uni_ring(6, u))


@pytest.mark.parametrize("method", ["sd", "td"])
@pytest.mark.parametrize("family, change", [
    (lambda u: uni_ring(4 if u < 0.6 else 5, u), 0.6),
    (_flow_paths, 0.7),
], ids=["flow_count", "flow_paths"])
def test_changing_structure_is_prepared_again(monkeypatch, family, change, method):
    # family is arbitrary code: a structure that no longer fits is replaced
    expected = _reference_bisection(family, method)
    counts = _count_prepare(monkeypatch)
    decisions = _record_decisions(monkeypatch)
    prepare = netcalc.stability._prepare
    recording, visited = _recording(family)

    def marked(*args, **kwargs):
        decisions.append(None)
        return prepare(*args, **kwargs)

    monkeypatch.setattr(netcalc.stability, "_prepare", marked)
    assert critical_utilization(recording, method) == expected
    # the search meets the structure on both sides of its change
    assert min(visited) < change <= max(visited)
    assert counts["prepare"] >= 2
    # the start vectors go with the structure: the first decision on a new
    # one starts from ones, every later one from the previous vector
    before = None
    for record in decisions:
        if record is None:  # a structure was prepared
            before = None
            continue
        if before is None:
            assert _is_ones(record[0])
        else:
            assert record[0] is before[1]
        before = record


@pytest.mark.parametrize("method", ["sd", "td", "ag", "2s"])
def test_fixed_structure_is_prepared_once(monkeypatch, method):
    counts = _count_prepare(monkeypatch)
    critical_utilization(lambda u: bi_ring(6, u), method)
    assert counts["prepare"] == 1


def _count_flow_halves(monkeypatch):
    # every flow half computed, by the bisection or by a network's numbers,
    # and every rate-only grid the coefficient pass lays out
    counts = Counter()
    original_flows, original_run = netcalc.network._flow_numbers, _RowLayout.run

    def flow_numbers(net):
        counts["flows"] += 1
        return original_flows(net)

    def run(self, num):
        before = self._grid
        result = original_run(self, num)
        counts["grid"] += self._grid is not before
        counts["pass"] += 1
        return result

    monkeypatch.setattr(netcalc.network, "_flow_numbers", flow_numbers)
    monkeypatch.setattr(netcalc.stability, "_flow_numbers", flow_numbers)
    monkeypatch.setattr(_RowLayout, "run", run)
    return counts


@pytest.mark.parametrize("method", ["sd", "td"])
@pytest.mark.parametrize("family", [("bi_ring", 6), ("uni_ring", 12)],
                         ids=["bi_ring(6)", "uni_ring(12)"])
def test_bisection_binds_the_flows_and_lays_out_the_rate_grid_once(monkeypatch, family, method):
    counts = _count_flow_halves(monkeypatch)
    fam = _family(*family)
    u_star = critical_utilization(fam, method)
    assert counts["flows"] == 1
    if method == "td":
        assert counts["grid"] == 1 and counts["pass"] >= 10
    else:  # sd runs no pass
        assert counts["pass"] == 0
    counts.clear()
    assert u_star == _reference_bisection(fam, method)
    # fresh structures: the numbers at every step, a grid at every pass
    assert counts["flows"] >= 10 and counts["grid"] == counts["pass"]


def test_analyze_lays_out_the_rate_grid_once_per_structure(monkeypatch):
    # a fresh structure pays its grid as before: analyze's pass, then the
    # objective's own one-row pass
    counts = _count_flow_halves(monkeypatch)
    net = bi_ring(6, 0.2)
    netcalc.analyze(net, "td", Target.backlog(5, [0]))
    assert counts["grid"] == counts["pass"] == 1
    netcalc.stability.objective_for(net, Target.backlog(5, [0]), "td")
    assert counts["grid"] == counts["pass"] == 2


def _with_arrival(net, arrival):
    return Network(net.servers, tuple(Flow(arrival, f.path) for f in net.flows))


@pytest.mark.parametrize("method", ["sd", "td"])
@pytest.mark.parametrize("arrival, change", [
    (lambda u: TokenBucket(1.0, 1.0 if u < 0.6 else 0.9), 0.6),
    (lambda u: TokenBucket(1.0 if u < 0.6 else 4.0, 1.0), 0.6),
    (lambda u: TokenBucket(1.0, 1.0 - 0.2 * u), None),
], ids=["rate_step", "burst_step", "rate_scaled"])
def test_changing_arrivals_are_bound_again(monkeypatch, arrival, change, method):
    # family is arbitrary code: the held flow half follows its arrivals,
    # bound again exactly at the steps whose arrivals differ from the last
    def family(u):
        return _with_arrival(uni_ring(6, u), arrival(u))

    expected = _reference_bisection(family, method)
    counts = _count_flow_halves(monkeypatch)
    seen, visited = [], []

    def recording(u):
        seen.append(arrival(u))
        visited.append(u)
        return family(u)

    assert critical_utilization(recording, method) == expected
    if change is not None:  # the search meets the arrivals on both sides of their step
        assert min(visited) < change <= max(visited)
    changes = sum(a != b for a, b in zip(seen, seen[1:]))
    assert counts["flows"] == 1 + changes and changes >= 1


#: The sweep's default grid, accumulated as ``netcalc sweep`` does.
SWEEP_GRID = WORKLOADS.sweep_utilizations(False)
METHODS = ("sd", "td", "ag", "2s")


def _sweep(capsys, kind, n, options=()):
    argv = ["sweep", "--kind", kind, "--n", str(n), "--methods", ",".join(METHODS), *options]
    assert netcalc.cli.main(argv) == 0
    return capsys.readouterr().out


def _per_cell_sweep(family, target):
    # the sweep's table from a fresh analyze at every cell
    rows = []
    for u in SWEEP_GRID:
        reports = [analyze(family(u), m, target) for m in METHODS]
        rows.append([u] + [None if r.bound is None else r.bound.value for r in reports])
    out = io.StringIO()
    write_sweep_csv(out, ["U"] + [netcalc.cli.METHOD_COLUMNS[m] for m in METHODS], rows)
    return out.getvalue()


SWEEP_CASES = [
    ("bi_ring", 12, (), Target.backlog(11, [0])),
    ("uni_ring", 10, (), Target.backlog(9, [0])),
    ("three_ring", 10, ("--server", "1"), Target.backlog(0, [0])),  # flow 1 misses the last server
]


@pytest.mark.parametrize("kind, n, options, target", SWEEP_CASES,
                         ids=["%s(%d)" % (kind, n) for kind, n, _, _ in SWEEP_CASES])
def test_held_sweep_equals_a_fresh_analysis_per_cell(monkeypatch, capsys, kind, n, options, target):
    counts = _count_prepare(monkeypatch)
    table = _sweep(capsys, kind, n, options)
    assert counts["prepare"] == len(METHODS)  # one structure per method
    assert table == _per_cell_sweep(_family(kind, n), target)


@pytest.mark.parametrize("method", METHODS)
def test_held_structure_reports_equal_fresh_ones(method):
    # each report the sweep reads, bound for bound and fixed point for fixed point
    target = Target.backlog(11, [0])
    held = _Held(method, target)
    for u in SWEEP_GRID:
        net = bi_ring(12, u)
        fresh, reused = analyze(net, method, target), _analyze(net, method, target, None,
                                                               *held.fit(net))
        assert repr(fresh.bound) == repr(reused.bound) and fresh.stable == reused.stable
        assert fresh.labels == reused.labels and fresh.verdict == reused.verdict
        if fresh.fixed_point is not None:
            assert np.array_equal(fresh.fixed_point, reused.fixed_point)


def test_held_sweep_prepares_again_when_the_paths_change(monkeypatch, capsys):
    monkeypatch.setitem(netcalc.cli.KINDS, "uni_ring", lambda args, u: _flow_paths(u))
    counts = _count_prepare(monkeypatch)
    table = _sweep(capsys, "uni_ring", 6)
    assert counts["prepare"] == 2 * len(METHODS)  # the grid crosses the change once
    assert table == _per_cell_sweep(_flow_paths, Target.backlog(5, [0]))


def test_held_sweep_binds_the_flows_again_when_the_arrivals_change(monkeypatch, capsys):
    def family(u):
        return _with_arrival(uni_ring(6, u), TokenBucket(1.0 if u < 0.5 else 2.0,
                                                         1.0 if u < 0.5 else 0.9))

    monkeypatch.setitem(netcalc.cli.KINDS, "uni_ring", lambda args, u: family(u))
    counts = _count_flow_halves(monkeypatch)
    table = _sweep(capsys, "uni_ring", 6)
    assert counts["flows"] == 2 * len(METHODS)  # bound first, then once at the change
    assert table == _per_cell_sweep(family, Target.backlog(5, [0]))


#: Row layouts a held structure runs again and again.
PLAN_CASES = [
    (uni_ring(12, 0.3), "td", None),
    (bi_ring(6, 0.2), "2s", Target.backlog(5, [0])),
    (three_ring(0.3, 6, 3), "ag", None),
]


@pytest.mark.parametrize("net, method, target", PLAN_CASES,
                         ids=["uni_ring(12)/td", "bi_ring(6)/2s+target", "three_ring(6)/ag"])
def test_a_kept_plan_runs_equal_fresh_layouts(net, method, target):
    # one layout run with the rate arrays a, b, a, then with an array equal
    # to a but a new object (its rate grid laid out again): every run equals
    # a fresh layout's, and the arrays each run returned stay as they were
    structure = _prepare(net, method, target=target)
    held, a = structure.rows, structure.bind(_numbers(net))
    b = replace(a, rate=a.rate * 0.75, service_rate=a.service_rate * 1.25)
    returned = []
    for num in (a, b, a, replace(a, rate=a.rate.copy())):
        got = held.run(num)
        assert held._grid[0] is num.rate
        fresh = _prepare(net, method, target=target).rows.run(num)
        assert all(np.array_equal(x, y) for x, y in zip(got, fresh))
        for earlier, kept in returned:
            assert all(np.array_equal(x, y) for x, y in zip(earlier, kept))
        returned.append((got, [x.copy() for x in got]))


def _eager_constants(structure, num):
    # N as the builders made it before it was built on read: sd's ordered
    # bincount, and each column layout's constants from the pass's weights
    if isinstance(structure, _SdLayout):
        rate, R, T = num.rate, num.service_rate, num.latency
        i, j = structure.row_flow, structure.row_server
        gain = rate[i] / (R[j] - (num.load[j] - rate[i]))
        weights = (np.where(structure.term_own, 1.0, gain[structure.term_row])
                   * num.burst[structure.term_flow])
        N = np.bincount(structure.term_row, weights, len(structure.labels))
        return [N + gain * R[j] * T[j]]
    phi, rho, _ = structure.rows.run(num)
    constants, start = [], 0
    for cols in structure.layouts:
        end = start + len(cols)
        terms = np.concatenate((phi[start:end, cols.known] * num.burst[cols.known],
                                rho[start:end] * num.latency), axis=1)
        constants.append(np.cumsum(terms, axis=1)[:, -1])
        start = end
    return constants


def test_n_built_on_read_equals_the_eager_one():
    # every fifth network of the analyze_many pool and the 76 sweep cells
    nets = list(WORKLOADS.pool_networks().values())[::5] + [bi_ring(12, u) for u in SWEEP_GRID]
    checked = 0
    for net in nets:
        for method in METHODS:
            try:
                structure, numbers, recursions, _ = _method_recursions(net, method)
            except LocallyUnstableError:
                continue
            for lr, eager in zip(recursions, _eager_constants(structure, numbers), strict=True):
                assert np.array_equal(lr.N, eager)
                checked += 1
    assert checked > 1000


def _count_recipes(monkeypatch):
    # every N the builders' recipes build
    counts = Counter()
    for owner in (netcalc.stability._SdLayout, netcalc.stability._Columns):
        def counted(self, *args, original=owner.constants):
            counts["N"] += 1
            return original(self, *args)

        monkeypatch.setattr(owner, "constants", counted)
    return counts


@pytest.mark.parametrize("method", ["sd", "td"])
def test_a_bisection_builds_no_n(monkeypatch, method):
    counts = _count_recipes(monkeypatch)
    u_star = critical_utilization(lambda u: uni_ring(10, u), method)
    assert repr(u_star) == repr(_critical_reference()["uni_ring(10)/%s" % method])
    assert counts["N"] == 0


@pytest.mark.parametrize("method", METHODS)
def test_analyze_builds_n_only_for_a_fixed_point(monkeypatch, method):
    counts = _count_recipes(monkeypatch)
    stable = analyze(uni_ring(6, 0.1), method)  # every recursion of every method converges
    assert stable.stable and counts["N"] == len(stable.recursions)
    for lr in stable.recursions:
        lr.N
    assert counts["N"] == len(stable.recursions)  # each recipe once
    counts.clear()
    diverging = analyze(bi_ring(6, 0.5), method)  # every recursion diverges
    assert diverging.verdict == "unstable" and diverging.rho > 1
    assert counts["N"] == 0


def test_a_two_stage_analysis_builds_the_converging_n_alone(monkeypatch):
    counts = _count_recipes(monkeypatch)
    report = analyze(bi_ring(6, 0.3), "2s")  # the tree recursion converges, the arc one diverges
    assert report.stable and len(report.recursions) == 2
    assert counts["N"] == 1


def test_src_calls_no_builtin_sum():
    # from Python 3.12 on the builtin sum compensates float sums; the
    # package adds left to right with curves.left_sum instead
    calls = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "netcalc", "*.py"))):
        with open(path, encoding="utf-8") as stream:
            tree = ast.parse(stream.read(), path)
        calls += [
            "%s:%d" % (os.path.basename(path), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
        ]
    assert calls == []


#: Helpers the package root does not export, by module: no product path
#: runs them, and the benchmark's tracer reaches them as ``module:name``.
MODULE_HELPERS = {
    "stability": ("build_td", "build_ag", "build_grouped", "objective_for", "one_stage_bound",
                  "two_stage_bound"),
    "decomposition": ("decompose", "group_by_arc", "SplitFlow", "ArcGroups"),
    "network": ("renumber", "local_stability", "LocalStability"),
}


@pytest.mark.parametrize("module", MODULE_HELPERS)
def test_module_helpers_stay_out_of_the_package_root(module):
    names = MODULE_HELPERS[module]
    assert [name for name in names if hasattr(netcalc, name)] == []
    assert all(hasattr(importlib.import_module("netcalc." + module), name) for name in names)
