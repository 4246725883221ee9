"""
The rate-free structure that ``critical_utilization`` prepares once and
binds to every ``family(U)`` of its bisection, and the start vectors its
decisions hand on from step to step; and one rule on the package's own
source, that it adds floats with ``left_sum``, never the builtin ``sum``.
"""

import ast
import glob
import json
import os
from collections import Counter

import numpy as np
import pytest

import netcalc.stability
from netcalc import Flow, Network, critical_utilization
from netcalc.errors import LocallyUnstableError
from netcalc.stability import _method_recursions, _prepare, is_stable
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


def _recursions(net, method, structure=None):
    try:
        return _method_recursions(net, method, structure=structure)[2]
    except LocallyUnstableError:
        return None


@pytest.mark.parametrize("family, method", CRITICAL_CASES,
                         ids=["%s(%d)/%s" % (kind, n, m) for (kind, n), m in CRITICAL_CASES])
def test_structure_from_u_max_rebinds_bit_for_bit(family, method):
    # at every U the bisection visits, the structure prepared from
    # family(u_max) and bound to family(U) gives the recursions of a
    # structure prepared from family(U) itself
    fam = _family(*family)
    visited = []

    def recording(u):
        visited.append(u)
        return fam(u)

    critical_utilization(recording, method)
    held = _prepare(fam(1.0), method)
    bound = 0
    for u in visited:
        net = fam(u)
        fresh, reused = _recursions(net, method), _recursions(net, method, held)
        assert (fresh is None) == (reused is None)
        if fresh is None:
            continue
        bound += 1
        for a, b in zip(fresh, reused, strict=True):
            assert a.labels == b.labels
            assert np.array_equal(a.M, b.M) and np.array_equal(a.N, b.N)
        if method == "sd":
            expected = sd_reference.build_sd(net)
            assert np.array_equal(reused[0].M, expected.M)
            assert np.array_equal(reused[0].N, expected.N)
    assert bound >= 10


def _reference_bisection(family, method, tol=1e-4, u_min=1e-3, u_max=1.0):
    # the bisection over fresh is_stable calls that critical_utilization replaced
    if is_stable(family(u_max), method):
        return u_max
    if not is_stable(family(u_min), method):
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
    assert _reference_bisection(fam, "sd") == u_star
    cold = list(decisions)
    assert len(warm) == len(cold) >= 10
    assert _is_ones(warm[0][0])
    assert all(now[0] is before[1] for before, now in zip(warm, warm[1:]))
    assert all(start is None for start, _, _ in cold)
    assert sum(steps for _, _, steps in warm) < sum(steps for _, _, steps in cold)


@pytest.mark.parametrize("family, reaches",
                         [(("uni_ring", 12), False), (("three_ring", 10), True)],
                         ids=["uni_ring(12)", "three_ring(10)"])
def test_bisection_builds_the_sd_matrix_only_for_exact_tests(monkeypatch, family, reaches):
    # the decisions step through the factored product; each recursion's M is
    # built when its decision reaches the exact test, and only then (no
    # decision on uni_ring(12) does, some on three_ring(10) do)
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
    with open(os.path.join(REFERENCE, "critical.json"), encoding="utf-8") as stream:
        assert repr(u_star) == repr(json.load(stream)["%s(%d)/sd" % family])
    assert counts["matrix"] == counts["exact"]
    assert (counts["exact"] > 0) == reaches


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


@pytest.mark.parametrize("method", ["sd", "td"])
@pytest.mark.parametrize("family", [
    lambda u: uni_ring(4 if u < 0.5 else 5, u),
    lambda u: uni_ring(6, u) if u < 0.7 else _reversed(uni_ring(6, u)),
], ids=["flow_count", "flow_paths"])
def test_changing_structure_is_prepared_again(monkeypatch, family, method):
    # family is arbitrary code: a structure that no longer fits is replaced
    expected = _reference_bisection(family, method)
    counts = _count_prepare(monkeypatch)
    decisions = _record_decisions(monkeypatch)
    prepare = netcalc.stability._prepare

    def marked(*args, **kwargs):
        decisions.append(None)
        return prepare(*args, **kwargs)

    monkeypatch.setattr(netcalc.stability, "_prepare", marked)
    assert critical_utilization(family, method) == expected
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
