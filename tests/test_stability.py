import itertools
import json
import math
import os
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import netcalc.network
import netcalc.stability

from netcalc import (
    ArrivalSpec,
    Bound,
    Flow,
    InterestNotAtRootError,
    LinearRecursion,
    LocallyUnstableError,
    NetcalcError,
    Network,
    ObjectiveForm,
    RateLatency,
    Scenario,
    ScenarioError,
    ServerSpec,
    StabilityReport,
    Target,
    TokenBucket,
    UNBOUNDED,
    UnsupportedTargetError,
    ValidationError,
    analyze,
    build_sd,
    bruteforce_backlog,
    compute_xi,
    critical_utilization,
    output_curve,
    simulate_fluid,
    solve_recursion,
    spectral_radius,
    tree_backlog,
    tree_delay,
    tree_output_curve,
    worst_case_periods,
    worst_case_scenario,
)
from netcalc.cli import main as cli_main
from netcalc.decomposition import decompose, group_by_arc, removal_tree
from netcalc.fileio import network_from_dict
from netcalc.network import _numbers, induced_graph, local_stability, renumber
from netcalc.stability import (
    BUILD_ENTRY_S,
    CRITICAL_TOL,
    LU_S,
    METHODS,
    STABILITY_EPS,
    U_MAX,
    U_MIN,
    _budget,
    _decide,
    _method_recursions,
    _prepare,
    _two_stage,
    build_ag,
    build_grouped,
    build_td,
    is_stable,
    objective_for,
    one_stage_bound,
    rho_below,
    two_stage_bound,
)
from netcalc.topologies import bi_ring, three_ring, two_server_sink_tree, toy, uni_ring
from netcalc.tree_analysis import UpstreamView, _RowLayout, upstream_view

import sd_reference
from exact_reference import exact_fixed_point
from xi_reference import view_tree
from conftest import (
    ROOT, as_network, load_by_path, random_cyclic_instance, random_tandem, random_tree,
    random_uni_ring, rows_at,
)
from test_network import _benchmark_pool


def _single_flow_tandem(b=1.0, r=1.0, R=4.0, T=0.25):
    return Network(
        (RateLatency(R, T), RateLatency(R, T)),
        (Flow(TokenBucket(b, r), (0, 1)),),
    )


def test_build_sd_single_flow():
    lr = build_sd(_single_flow_tandem())
    assert lr.labels == ((0, 1),)
    assert lr.M == pytest.approx(np.zeros((1, 1)))
    assert lr.N == pytest.approx(np.array([1.0 + 1.0 * 0.25]))


def test_build_sd_single_server_trivial():
    net = Network((RateLatency(2, 0.1),), (Flow(TokenBucket(1, 1), (0,)),))
    lr = build_sd(net)
    assert lr.size == 0
    assert solve_recursion(lr).shape == (0,)
    assert is_stable(net, "sd")


def test_build_sd_rejects_local_instability():
    net = Network((RateLatency(1, 0.1),), (Flow(TokenBucket(1, 2), (0,)),))
    with pytest.raises(LocallyUnstableError):
        build_sd(net)


def _same_as_sd_reference(net):
    """``build_sd`` equals the pairwise loop bit for bit, or raises as it does."""
    try:
        expected = sd_reference.build_sd(net)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            build_sd(net)
        assert str(raised.value) == str(exc)
        return False
    lr = build_sd(net)
    assert lr.labels == expected.labels
    assert np.array_equal(lr.M, expected.M)
    assert np.array_equal(lr.N, expected.N)
    return True


def test_build_sd_matches_reference_on_families():
    nets = [uni_ring(n, u, heterogeneous=h)
            for n in range(3, 31) for u in (0.3, 0.9) for h in (False, True)]
    nets += [bi_ring(n, u) for n in (3, 4, 10, 15) for u in (0.1, 0.6)]
    nets += [three_ring(u) for u in (0.2, 0.7)] + [toy(u) for u in (0.2, 0.7)]
    assert all(_same_as_sd_reference(net) for net in nets)


def test_build_sd_matches_reference_on_random_networks(rng):
    nets = [random_uni_ring(rng) for _ in range(30)]
    nets += [random_tandem(rng) for _ in range(30)] + [random_tree(rng) for _ in range(30)]
    assert all(_same_as_sd_reference(net) for net in nets)


@st.composite
def _small_networks(draw):
    """Up to 6 servers (some crossed by no flow) and 1 to 7 flows, some of
    zero rate or one hop.  Service rates exceed the load by a random
    margin, except at most one server that is critical or overloaded."""
    n = draw(st.integers(1, 6))
    paths = draw(st.lists(
        st.permutations(range(n)).flatmap(lambda p: st.integers(1, n).map(lambda k: p[:k])),
        min_size=1, max_size=7,
    ))
    rates = [draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.01, 3.0)) for _ in paths]
    flows = [Flow(TokenBucket(draw(st.floats(0.0, 5.0)), r), tuple(p))
             for r, p in zip(rates, paths)]
    weak = draw(st.none() | st.integers(0, n - 1))
    servers = []
    for j in range(n):
        load = sum(r for r, p in zip(rates, paths) if j in p)
        factor = draw(st.sampled_from([0.9, 1.0]) if j == weak
                      else st.sampled_from([1.001, 1.5]) | st.floats(1.01, 3.0))
        servers.append(RateLatency(max(load * factor, 0.1), draw(st.floats(0.0, 2.0))))
    return Network(tuple(servers), tuple(flows))


@settings(max_examples=200, deadline=None)
@given(_small_networks())
def test_build_sd_matches_reference_property(net):
    _same_as_sd_reference(net)


def _exact_product(M, x):
    """``M x`` in exact rational arithmetic on the floats."""
    x = [Fraction(v) for v in x.tolist()]
    return [sum(Fraction(a) * v for a, v in zip(row, x) if a) for row in M.tolist()]


@settings(max_examples=200, deadline=None)
@given(_small_networks(), st.integers(0, 2**32 - 1))
@example(Network((RateLatency(2, 0.1),), (Flow(TokenBucket(1, 1), (0,)),)), 0)  # L = 0
def test_build_sd_factored_product_matches_its_matrix(net, seed):
    # every term of the factored product is nonnegative: with c the most hops
    # at a server, it is within gamma_{c+2} (M x) of the exact M x
    try:
        lr = build_sd(net)
    except LocallyUnstableError:
        return
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, lr.size)
    x[rng.random(lr.size) < 0.2] = 1e-250  # the bracket's floor
    factored = lr @ x  # before M is read
    k = int(np.bincount([j for f in net.flows for j in f.path]).max()) + 2
    gamma = Fraction(k, 2**53 - k)  # k u / (1 - k u), u = 2**-53
    for value, exact in zip(factored.tolist(), _exact_product(lr.M, x), strict=True):
        assert abs(Fraction(value) - exact) <= gamma * exact
    assert np.array_equal(lr @ x, factored)  # reading M leaves the steps on the factors


def test_build_sd_refuses_overloaded_networks_as_a_whole():
    # the whole-network check comes first and names every overloaded server,
    # so no row is left without a residual rate
    overloaded = [Network(tuple(RateLatency(s.rate / 2, s.latency) for s in net.servers),
                          net.flows)
                  for net in (uni_ring(5, 0.9), bi_ring(4, 0.9), toy(0.9))]
    overloaded.append(Network(
        (RateLatency(4, 0.1), RateLatency(1, 0.1), RateLatency(4, 0.1)),
        (Flow(TokenBucket(1, 1), (2, 1, 0)), Flow(TokenBucket(1, 2), (1, 0))),
    ))
    for net in overloaded:
        unstable = np.flatnonzero(_numbers(net).unstable).tolist()
        assert unstable
        with pytest.raises(LocallyUnstableError,
                           match=r"^servers %s are not strictly stable$" % re.escape(str(unstable))):
            build_sd(net)
        assert not _same_as_sd_reference(net)


def test_build_td_toy_equal_coefficients():
    # segments following the same path share one burst weight
    net = toy()
    removed = removal_tree(net)
    lr = build_td(net, removed)
    index = {lab: pos for pos, lab in enumerate(lr.labels)}
    row = index[(2, 1)]
    phi_12 = lr.M[row, index[(0, 1)]]
    phi_22 = lr.M[row, index[(1, 1)]]
    assert phi_12 == pytest.approx(phi_22, abs=1e-15)
    assert phi_12 > 0
    # flow 3 (first segment, same single-server path) lands in N with the
    # same weight: N = phi * (b_2 + b_3) + rho_1 T_1
    result_row_constant = lr.N[row]
    assert result_row_constant > phi_12 * 2.0  # two unit bursts plus latency


def test_build_ag_toy_structure():
    net = toy()
    removed = removal_tree(net)
    assert removed == frozenset({(3, 1), (1, 0)})
    lr = build_ag(net, removed)
    arcs = lr.labels
    idx = {a: i for i, a in enumerate(arcs)}
    a_main, a_side = (3, 1), (1, 0)
    # the backlog of the arc out of server 1 only sees the big arc's flows
    assert lr.M[idx[a_side], idx[a_side]] == 0.0
    assert lr.M[idx[a_side], idx[a_main]] > 0
    assert lr.M[idx[a_main], idx[a_main]] > 0
    assert lr.M[idx[a_main], idx[a_side]] > 0
    # the coefficient is the max over the arc's continuations
    split = decompose(net, removed)
    groups = group_by_arc(split)
    result = upstream_view(as_network(net, split), 3).backlog(groups.feeding[a_main])
    expected = max(result.burst_coefficients[s] for s in groups.continuations[a_main])
    assert lr.M[idx[a_main], idx[a_main]] == pytest.approx(expected, abs=1e-15)


def _recursion_row_by_row(net, removed, grouped):
    """
    The mixed recursion rebuilt one row at a time from the scalar tree pass
    (``UpstreamView.backlog``): ungrouped continuations keep their own burst
    weight, a grouped arc takes the largest weight of its continuations,
    and known bursts and latencies fold into the constant.
    """
    split = decompose(net, removed)
    forest, groups = as_network(net, split), group_by_arc(split)
    index = {sf.label: s for s, sf in enumerate(split)}
    arc_of = {s: arc for arc, conts in groups.continuations.items() for s in conts}
    singles = [sf.label for s, sf in enumerate(split)
               if sf.segment >= 1 and arc_of[s] not in grouped]
    arcs = sorted(grouped)
    L = len(singles) + len(arcs)

    def row(result):
        phi, rho = result.burst_coefficients, result.latency_coefficients
        coeffs = [phi[index[lab]] for lab in singles]
        coeffs += [max((phi[s] for s in groups.continuations[arc]), default=0.0) for arc in arcs]
        constant = sum(phi[s] * net.flows[sf.origin].arrival.burst
                       for s, sf in enumerate(split) if sf.segment == 0)
        constant += sum(rho[j] * beta.latency for j, beta in enumerate(net.servers))
        return coeffs, constant

    M, N = np.zeros((L, L)), np.zeros(L)
    for r, (i, k) in enumerate(singles):
        prev = index[(i, k - 1)]
        M[r], N[r] = row(upstream_view(forest, split[prev].path[-1]).backlog([prev]))
    for r, arc in enumerate(arcs, start=len(singles)):
        if groups.feeding[arc]:
            M[r], N[r] = row(upstream_view(forest, arc[0]).backlog(groups.feeding[arc]))
    return tuple(singles) + tuple(arcs), M, N


def test_recursions_match_row_by_row_tree_backlog(rng):
    nets = [random_uni_ring(rng) for _ in range(6)]
    nets += [bi_ring(6, 0.05), three_ring(0.3, ring_size=5, short_len=3), toy(0.4)]
    for net in nets:
        removed = removal_tree(net)
        cases = [
            (build_td(net, removed), frozenset()),
            (build_ag(net, removed), removed),
            (build_grouped(net, removed, {min(removed)}), frozenset({min(removed)})),
        ]
        for lr, grouped in cases:
            labels, M, N = _recursion_row_by_row(net, removed, grouped)
            assert lr.labels == labels
            np.testing.assert_allclose(lr.M, M, rtol=1e-12, atol=0)
            np.testing.assert_allclose(lr.N, N, rtol=1e-12, atol=0)


def test_spectral_radius_examples():
    assert spectral_radius(np.array([[0.5]])) == pytest.approx(0.5, abs=1e-9)
    assert spectral_radius(np.array([[0.0, 0.5], [0.5, 0.0]])) == pytest.approx(0.5, abs=1e-9)
    assert spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-9)
    assert spectral_radius(np.zeros((0, 0))) == 0.0
    with pytest.raises(ValidationError):
        spectral_radius(np.array([[1.0, -0.1], [0.0, 0.5]]))
    with pytest.raises(ValidationError):
        spectral_radius(np.ones((2, 3)))


@pytest.mark.parametrize("M, message", [
    (np.array([[-5.0]]), "matrix entries must be nonnegative"),
    (np.array([[0.5, np.nan], [0.0, 0.5]]), "matrix entries must be finite"),
    (np.ones((2, 3)), "matrix must be square"),
], ids=["negative", "nan", "not_square"])
def test_rho_below_rejects_what_spectral_radius_rejects(M, message):
    # rho([[-5]]) = 5: the decision must not answer "below 1" for it
    with pytest.raises(ValidationError, match=message):
        spectral_radius(M)
    with pytest.raises(ValidationError, match=message):
        rho_below(M, 1.0)


def _weighted_cycle(weights):
    """The cycle ``0 -> 1 -> ... -> 0`` with the given coefficients."""
    L = len(weights)
    M = np.zeros((L, L))
    M[np.arange(L), (np.arange(L) + 1) % L] = weights
    return M


def _decision_inputs(rng):
    """
    Random sparse matrices; weighted cycles with unequal weights, periodic
    like the ring recursions; block upper-triangular (reducible) matrices;
    and the cycles and block matrices rescaled to ``rho = 1 -+ 1e-6``.
    """
    cases = []
    for _ in range(40):
        L = int(rng.integers(1, 9))
        cases.append(rng.uniform(0, 1, (L, L)) * (rng.random((L, L)) < 0.6))
    structured = [_weighted_cycle(rng.uniform(0.5, 1.5, n)) for n in (2, 3, 5, 12, 30)]
    for _ in range(10):
        a, c = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        M = rng.uniform(0, 1, (a + c, a + c)) * (rng.random((a + c, a + c)) < 0.7)
        M[a:, :a] = 0.0
        M[:a, :a] += np.diag(rng.uniform(0.1, 1.0, a))  # keep rho > 0
        structured.append(M)
    for M in structured:
        rho = float(max(abs(np.linalg.eigvals(M))))
        cases += [M, M * ((1 - 1e-6) / rho), M * ((1 + 1e-6) / rho)]
    return cases


def _no_brackets(M, x):
    """A ``_brackets`` with no step: the decisions reach the exact stage alone."""
    yield from ()


def test_spectral_radius_matches_eigvals(rng, monkeypatch):
    for M in _decision_inputs(rng):
        expected = float(max(abs(np.linalg.eigvals(M))))
        for exact_alone in (False, True):  # the bracket first, or the exact stage alone
            with monkeypatch.context() as patch:
                if exact_alone:
                    patch.setattr(netcalc.stability, "_brackets", _no_brackets)
                assert spectral_radius(M) == pytest.approx(expected, abs=1e-7)
                assert rho_below(M, 1.0) == (expected < 1.0)


def _certifies_below(M, x, theta):
    """``M x < theta x`` with ``x > 0``, in exact rational arithmetic on the floats."""
    x = [Fraction(v) for v in x.tolist()]
    theta = Fraction(theta)
    return min(x) > 0 and all(
        sum(Fraction(a) * v for a, v in zip(row, x) if a) < theta * v_row
        for row, v_row in zip(M.tolist(), x)
    )


@pytest.mark.parametrize("exact_alone", [False, True], ids=["bracket", "exact"])
def test_every_below_answer_carries_an_exact_certificate(rng, monkeypatch, exact_alone):
    # each "below" rests on the vector _decide hands back: the bracket iterate
    # it was read off, or the exact test's scaled solution
    if exact_alone:
        monkeypatch.setattr(netcalc.stability, "_brackets", _no_brackets)
    below = 0
    for M in _decision_inputs(rng):
        for theta in (1 - 1e-9, 1.0, 1 + 1e-9):
            answer, x = _decide(M, theta)
            if answer:
                below += 1
                assert _certifies_below(M, x, theta)
    assert below > 0


def test_budget_balances_the_steps_against_the_exact_test(monkeypatch):
    # each recursion buys the steps that cost what its own exact test does
    small, large = build_sd(uni_ring(4, 0.05)), build_sd(uni_ring(30, 0.05))  # L = 12, 870
    budgets = [_budget(small), _budget(large)]  # in factors until M is read
    twins = [LinearRecursion(lr.labels, lr.M, lr.N) for lr in (small, large)]  # reads M
    assert [_budget(small), _budget(large)] == budgets  # reading M moves no budget
    for lr in [small, large] + twins:
        assert _budget(lr) == max(1, int(lr.exact_cost / lr.step_cost)) >= 1
    # a factored test is the cheaper of building M for the dense LU and the
    # capacitance solve: the first at L = 12, the second at 870, M read or not
    assert not small._by_capacitance and large._by_capacitance
    assert small.exact_cost == twins[0].exact_cost + BUILD_ENTRY_S * 12**2
    assert large.exact_cost < twins[1].exact_cost / 50
    for L in (1, 12, 264):
        dense = LinearRecursion(tuple(range(L)), np.ones((L, L)), np.zeros(L))
        budget = _budget(dense)
        with monkeypatch.context() as patch:
            # the dearer the exact test after the bracket, the more steps it buys
            patch.setattr(netcalc.stability, "LU_S", (2 * LU_S[0], 2 * LU_S[1]))
            assert _budget(LinearRecursion(dense.labels, dense.M, dense.N)) > budget
            patch.setattr(netcalc.stability, "LU_S", (0.0, 0.0))
            free = LinearRecursion(dense.labels, dense.M, dense.N)
            assert _budget(free) == 1  # a free test still gets one step


def _routes_agree(lr: LinearRecursion, solve: bool = True) -> bool:
    """
    The exact test of a factored ``lr`` alone, with no bracket step, on
    both routes, the capacitance solve and the dense LU: equal answers at
    five thresholds and, when ``solve``, fixed points within 1e-12 relative
    per entry.  Whether the fixed point exists.
    """
    cap, dense = LinearRecursion(lr.labels, lr._M, lr.N), LinearRecursion(lr.labels, lr._M, lr.N)
    cap._by_capacitance, dense._by_capacitance = True, False
    with mock.patch.object(netcalc.stability, "_brackets", _no_brackets):
        for theta in (1 - 1e-9, 1.0, 1 + 1e-9, 0.5, 2.0):
            assert _decide(cap, theta)[0] == _decide(dense, theta)[0], theta
        if not solve:
            return False
        fast, slow = solve_recursion(cap), solve_recursion(dense)
    assert "M" not in vars(cap)
    assert (fast is None) == (slow is None)
    if fast is not None:
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0)
    return fast is not None


def _sd_recursion(net):
    """``build_sd(net)``, or ``None`` on local instability."""
    try:
        return build_sd(net)
    except LocallyUnstableError:
        return None


def test_exact_test_routes_agree_on_the_benchmark_pool(benchmark_pool):
    recursions = [lr for lr in map(_sd_recursion, benchmark_pool) if lr is not None]
    # the pool's recursions are small: every one takes the dense route when not forced
    assert not any(lr._by_capacitance for lr in recursions)
    stable = sum(map(_routes_agree, recursions))
    assert len(recursions) >= 1000 and min(stable, len(recursions) - stable) >= 100  # 1160, 375


def test_exact_test_routes_agree_on_the_benchmark_families():
    # the sd families of the critical workload decided at their reference U*
    # and one bisection tolerance below, its hardest steps, and solved well
    # inside the stable range at 0.9 U*; every sd cell of the sweep workload.
    # (Next to U* the fixed point amplifies rounding like 1 / (1 - rho): one
    # tolerance below U* on uni_ring(3) the routes differ by 1.6e-12, and
    # each from the exact fixed point by 1.3e-12 and 3.7e-13.)
    workloads = load_by_path("perfbench_workloads", "perfbench", "workloads.py")
    workloads.load_netcalc()
    with open(os.path.join(ROOT, "perfbench", "reference", "critical.json"),
              encoding="utf-8") as stream:
        u_star = json.load(stream)
    cases = []
    for kind, n, method in workloads.critical_cases(False):
        if method == "sd":
            u, family = u_star[workloads.critical_key(kind, n, method)], workloads._family(kind, n)
            cases += [(family(u), False), (family(u - CRITICAL_TOL), False), (family(0.9 * u), True)]
    cases += [(bi_ring(12, u), True) for u in workloads.sweep_utilizations(False)]
    stable = checked = factored = 0
    for net, solve in cases:
        lr = _sd_recursion(net)
        if lr is not None:
            stable += _routes_agree(lr, solve)
            checked, factored = checked + 1, factored + lr._by_capacitance
    assert checked >= 80 and factored >= 50 and stable >= 20  # 88, 64 and 26 at writing


@settings(max_examples=100, deadline=None)
@given(_small_networks())
def test_exact_test_routes_agree_property(net):
    lr = _sd_recursion(net)
    if lr is not None and lr.size:
        _routes_agree(lr)


@pytest.mark.parametrize("net", [bi_ring(12, 0.1), uni_ring(30, 0.05)],
                         ids=["bi_ring(12)", "uni_ring(30)"])
def test_analyze_never_builds_a_large_sd_matrix(net):
    report = analyze(net, "sd", Target.backlog(net.num_servers - 1, [0]))
    (lr,) = report.recursions
    assert report.verdict == "stable" and report.bound.is_finite
    assert "M" not in vars(lr)


def _cold_verdict(report) -> str:
    """``report.verdict`` as decided from the all-ones vector."""
    if report.stable:
        return "stable"
    if any(_decide(lr, 1.0 + STABILITY_EPS)[0] for lr in report.recursions):
        return "critical"
    return "unstable"


def test_warm_verdicts_equal_cold_ones(benchmark_pool):
    # the verdict starts from the vector of the fixed-point test: on every
    # sweep cell and every pool network under every method, it is the
    # verdict started from ones
    workloads = load_by_path("perfbench_workloads", "perfbench", "workloads.py")
    workloads.load_netcalc()
    cells = [(bi_ring(12, u), Target.backlog(11, [0])) for u in workloads.sweep_utilizations(False)]
    cells += [(net, None) for net in benchmark_pool]
    diverging = 0
    for net, target in cells:
        for method in METHODS:
            report = analyze(net, method, target)
            assert report.verdict == _cold_verdict(report)
            diverging += not report.stable and bool(report.recursions)
    assert diverging >= 900  # 968 at writing


def test_warm_verdict_takes_fewer_steps(monkeypatch):
    # the sweep's unstable sd cell at U = 0.2: the verdict's decision at
    # 1 + 1e-9 starts where the fixed-point test at 1 - 1e-9 ended
    steps, exact = Counter(), Counter()
    original_brackets = netcalc.stability._brackets
    original_solve = netcalc.stability.LinearRecursion.shifted_solve

    def brackets(lr, x):
        for bracket in original_brackets(lr, x):
            steps["warm" if x is not None else "cold"] += 1
            yield bracket

    def shifted_solve(self, theta, rhs):
        exact[theta] += 1
        return original_solve(self, theta, rhs)

    monkeypatch.setattr(netcalc.stability, "_brackets", brackets)
    monkeypatch.setattr(netcalc.stability.LinearRecursion, "shifted_solve", shifted_solve)
    report = analyze(bi_ring(12, 0.2), "sd", Target.backlog(11, [0]))
    (lr,) = report.recursions
    assert not report.stable and report._starts[0] is not None
    steps.clear(), exact.clear()
    assert report.verdict == "unstable"
    warm, warm_exact = steps["warm"], exact[1.0 + STABILITY_EPS]
    steps.clear(), exact.clear()
    assert not _decide(lr, 1.0 + STABILITY_EPS)[0]  # as the verdict decided before
    assert warm + warm_exact < steps["cold"] + exact[1.0 + STABILITY_EPS]
    assert warm < steps["cold"]


def test_rho_below_decides_periodic_cycles_without_eigvals(monkeypatch):
    # unequal weights keep the bracket open for far more than L steps
    weights = np.random.default_rng(0).uniform(0.5, 1.5, 12)
    M = _weighted_cycle(weights)
    rho = float(np.prod(weights)) ** (1 / 12)

    def no_eigvals(*args, **kwargs):
        raise AssertionError("eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    assert rho_below(M * (0.9 / rho), 1 - 1e-9)
    assert not rho_below(M * (1.1 / rho), 1 - 1e-9)


@st.composite
def _warm_start_inputs(draw):
    """
    A nonnegative ``M`` (dense; reducible block upper-triangular; or a
    cyclic permutation with unequal weights, near-periodic like the ring
    recursions), a positive start vector with some entries at the
    ``1e-250`` floor, and a threshold at some relative distance from rho.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "reducible", "cycle"]))
    L = draw(st.integers(1, 12))
    if kind == "dense":
        M = rng.uniform(0, 1, (L, L))
    elif kind == "reducible":
        a = draw(st.integers(0, L - 1)) if L > 1 else 0
        M = rng.uniform(0, 1, (L, L)) * (rng.random((L, L)) < 0.7)
        M[a:, :a] = 0.0
        M[np.diag_indices(L)] += rng.uniform(0.1, 1.0, L)  # no nilpotent block
    else:
        cycle = rng.permutation(L)
        M = np.zeros((L, L))
        M[cycle, np.roll(cycle, -1)] = rng.uniform(0.5, 1.5, L)
    M *= draw(st.floats(1e-3, 1e3))
    start = rng.uniform(0, 1, L)
    start[rng.random(L) < draw(st.floats(0, 1))] = 1e-250
    distance = draw(st.one_of(
        st.floats(-0.9, 0.9),
        st.integers(3, 9).map(lambda k: 10.0 ** -k) | st.integers(3, 9).map(lambda k: -10.0 ** -k),
    ))
    return M, start, distance


@settings(max_examples=300, deadline=None)
@given(_warm_start_inputs())
def test_warm_started_decision_matches_cold_decision(inputs):
    M, start, distance = inputs
    rho = float(max(abs(np.linalg.eigvals(M))))
    theta = rho * (1.0 + distance)
    below, vector = _decide(M, theta, start.copy())
    assert vector.shape == start.shape and vector.min() > 0 and vector.max() <= 1
    if abs(rho - theta) > 1e-9 * max(1.0, rho):
        assert below == rho_below(M, theta) == (rho < theta)


@pytest.mark.parametrize("distance", [-1e-6, 1e-6])
def test_exact_test_hands_on_the_perron_vector(distance):
    # a periodic cycle keeps the bracket open, so the exact test decides;
    # on either side of rho its solution is the Perron vector up to sign
    weights = np.random.default_rng(3).uniform(0.5, 1.5, 12)
    M = _weighted_cycle(weights)
    values, vectors = np.linalg.eig(M)
    rho = float(max(abs(values)))
    perron = np.abs(vectors[:, np.argmax(values.real)].real)
    perron /= perron.max()
    start = np.random.default_rng(4).uniform(0.1, 1.0, 12)
    below, vector = _decide(M, rho * (1 + distance), start)
    assert below == (distance > 0)
    assert vector.max() == 1.0
    assert np.allclose(vector, perron, rtol=1e-4, atol=0)


def _report_of(lr):
    """A one-recursion report, assembled from the fixed point as ``analyze`` does."""
    fixed = solve_recursion(lr)
    obj = ObjectiveForm(np.ones(lr.size), 1.0)
    return StabilityReport("td", fixed is not None, fixed, one_stage_bound(lr, obj),
                           lr.labels, obj, (lr,))


def _near_one_matrices():
    """A periodic 12-cycle and a positive 8x8 matrix, each with rho = 1."""
    rng = np.random.default_rng(7)
    weights = rng.uniform(0.5, 1.5, 12)
    cycle = _weighted_cycle(weights) / float(np.prod(weights)) ** (1 / 12)
    positive = rng.uniform(0.1, 1.0, (8, 8))
    positive /= float(max(abs(np.linalg.eigvals(positive))))
    return cycle, positive


def _assert_verdict_near_one(delta):
    expected = "stable" if delta < -1e-9 else "unstable" if delta > 1e-9 else "critical"
    for M in _near_one_matrices():
        lr = LinearRecursion(tuple(range(len(M))), M * (1.0 + delta), np.ones(len(M)))
        report = _report_of(lr)
        assert report.verdict == expected, (delta, len(M))
        assert (report.stable == (solve_recursion(lr) is not None)
                == report.bound.is_finite == (report.verdict == "stable"))
        assert report.rho == pytest.approx(1.0 + delta, abs=1e-7)


@pytest.mark.parametrize("delta", [0.0, 5e-10, -5e-10, 1e-6, -1e-6])
def test_verdict_near_rho_one(delta):
    _assert_verdict_near_one(delta)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(1e-12, 1e-3).filter(lambda d: abs(d - 1e-9) > 1e-11),
    st.sampled_from([1.0, -1.0]),
)
def test_verdict_fixed_point_and_bound_agree_near_rho_one(magnitude, sign):
    _assert_verdict_near_one(sign * magnitude)


def test_rho_is_computed_only_when_read(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the spectral radius was computed")

    monkeypatch.setattr(netcalc.stability, "spectral_radius", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    reports = []
    for u in (0.05, 0.15, 0.2, 0.5):
        net = bi_ring(12, u)
        for method in ("sd", "td", "ag", "2s"):
            report = analyze(net, method, target=Target.backlog(net.num_servers - 1, [0]))
            assert report.verdict in ("stable", "critical", "unstable")
            assert report.bound is not None
            reports.append((net, method, report))
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--kind", "bi_ring", "--n", "6", "--methods", "sd,td,ag,2s",
                     "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 20  # header and 19 rows
    monkeypatch.undo()

    calls = Counter()

    def counted(M, *args, **kwargs):
        calls["spectral_radius"] += 1
        return spectral_radius(M, *args, **kwargs)

    monkeypatch.setattr(netcalc.stability, "spectral_radius", counted)
    for net, method, report in reports:
        removed = removal_tree(net)
        recursions = {"sd": lambda: [build_sd(net)],
                      "td": lambda: [build_td(net, removed)],
                      "ag": lambda: [build_ag(net, removed)],
                      "2s": lambda: [build_td(net, removed), build_ag(net, removed)]}[method]()
        expected = min(spectral_radius(lr.M) for lr in recursions)
        calls.clear()
        assert report.rho == expected
        assert report.rho == expected
        assert calls["spectral_radius"] == len(recursions)


def test_solve_recursion_examples():
    lr = LinearRecursion(("x",), np.array([[0.5]]), np.array([1.0]))
    assert solve_recursion(lr) == pytest.approx([2.0])
    lr = LinearRecursion(("x", "y"), np.zeros((2, 2)), np.array([3.0, 4.0]))
    assert solve_recursion(lr) == pytest.approx([3.0, 4.0])
    lr = LinearRecursion(("x",), np.array([[1.0]]), np.array([1.0]))
    assert solve_recursion(lr) is None


@pytest.mark.parametrize("field", ["M", "N"])
@pytest.mark.parametrize(
    "bad, message",
    [
        ([math.nan], "finite"),
        ([math.inf], "finite"),
        ([-math.inf], "finite"),
        ([-1.0], "nonnegative"),
        ([-1.0, math.inf], "finite"),
        ([-1.0, math.nan], "finite"),
        ([math.nan, -1.0], "finite"),
        ([-math.inf, math.inf], "finite"),
    ],
)
def test_linear_recursion_rejects_non_finite_or_negative_entries(field, bad, message):
    M, N = np.full((3, 3), 0.1), np.ones(3)
    target = M.reshape(-1) if field == "M" else N
    target[: len(bad)] = bad
    with pytest.raises(ValidationError, match="recursion entries must be %s" % message):
        LinearRecursion(("a", "b", "c"), M, N)


def test_linear_recursion_finite_check_spans_both_arrays():
    # the finite check covers M and N before the sign check looks at either
    M, N = np.full((2, 2), 0.1), np.ones(2)
    M[0, 1], N[1] = -1.0, math.nan
    with pytest.raises(ValidationError, match="finite"):
        LinearRecursion(("a", "b"), M, N)
    M[0, 1], N[1] = math.inf, -1.0
    with pytest.raises(ValidationError, match="finite"):
        LinearRecursion(("a", "b"), M, N)
    assert LinearRecursion((), np.zeros((0, 0)), np.zeros(0)).size == 0


@pytest.mark.parametrize("N, message", [
    ([1.0, math.nan], "finite"),
    ([math.inf, -1.0], "finite"),
    ([1.0, -1.0], "nonnegative"),
    ([1.0, 1.0, 1.0], "inconsistent recursion dimensions"),
])
def test_linear_recursion_checks_a_recipe_n_when_read(N, message):
    # a builder's recipe runs on the first read of N, which refuses what a
    # given N is refused for at construction; no decision reads N
    calls = []
    lr = LinearRecursion(("a", "b"), np.full((2, 2), 0.1), lambda: calls.append(1) or np.array(N))
    assert rho_below(lr, 1.0) and not calls
    for _ in range(2):  # a refused N is not kept
        with pytest.raises(ValidationError, match=message):
            lr.N
    assert len(calls) == 2


def test_linear_recursion_builds_a_recipe_n_once():
    calls = []
    lr = LinearRecursion(("a",), np.array([[0.5]]), lambda: calls.append(1) or np.array([1.0]))
    assert solve_recursion(lr).tolist() == [2.0] and lr.N.tolist() == [1.0]
    assert len(calls) == 1
    with pytest.raises(ValidationError, match="nonnegative"):  # M is checked at construction
        LinearRecursion(("a",), np.array([[-0.5]]), lambda: calls.append(1) or np.array([1.0]))
    assert len(calls) == 1


def test_solve_recursion_monotone_iteration(rng):
    for _ in range(20):
        L = int(rng.integers(1, 7))
        M = rng.uniform(0, 1, (L, L))
        M *= 0.85 / max(1.0, float(max(abs(np.linalg.eigvals(M)))))
        N = rng.uniform(0, 2, L)
        lr = LinearRecursion(tuple(range(L)), M, N)
        direct = solve_recursion(lr)
        iterated = np.zeros(L)
        for _ in range(200):
            iterated = M @ iterated + N
        assert iterated == pytest.approx(direct, abs=1e-8)


def test_fixed_point_certificate(rng):
    for _ in range(10):
        net = random_uni_ring(rng)
        for method, build in (("sd", build_sd), ("td", lambda n: build_td(n, removal_tree(n)))):
            lr = build(net)
            fp = solve_recursion(lr)
            if fp is None:
                continue
            assert np.all(fp >= 0)
            assert lr.M @ fp + lr.N == pytest.approx(fp, abs=1e-9 * (1 + float(fp.max())))


def test_uni_ring_threshold_regressions():
    fam = lambda u: uni_ring(10, u)
    assert critical_utilization(fam, "sd") == pytest.approx(0.1951, abs=2e-3)
    assert critical_utilization(fam, "td") == pytest.approx(0.6475, abs=2e-3)
    assert critical_utilization(fam, "ag") >= 0.99


def test_bi_ring_threshold_regressions():
    fam = lambda u: bi_ring(10, u)
    assert critical_utilization(fam, "sd") == pytest.approx(0.1883, abs=2e-3)
    assert critical_utilization(fam, "td") == pytest.approx(0.2279, abs=2e-3)


def test_bi_ring_ag_cycle_of_ones():
    for n in (4, 10):
        for u in (0.1, 0.5):
            net = bi_ring(n, u)
            lr = build_ag(net, removal_tree(net))
            assert spectral_radius(lr.M) >= 1.0 - 1e-6


def test_random_rings_stable_under_arc_grouping(rng):
    for _ in range(30):
        net = random_uni_ring(rng)
        report = analyze(net, "ag", target=Target.backlog(net.num_servers - 1, [0]))
        assert report.stable
        assert report.bound.is_finite
        assert report.rho < 1.0


def test_stability_monotone_in_utilization(rng):
    fam = lambda u: uni_ring(6, u)
    for method in ("sd", "td", "ag"):
        for _ in range(5):
            hi = float(rng.uniform(0.05, 0.95))
            lo = float(rng.uniform(0.02, hi))
            if is_stable(fam(hi), method):
                assert is_stable(fam(lo), method)


def test_local_instability_means_every_method_unstable():
    net = uni_ring(5, 1.0)  # critical utilization: no strict margin anywhere
    for method in ("sd", "td", "ag", "2s"):
        report = analyze(net, method, target=Target.backlog(4, [0]))
        assert not report.stable
        assert math.isinf(report.rho)
        assert not report.bound.is_finite
    # local instability is found before the removal is looked at, so a removal
    # that names no induced arc does not change the report; objective_for makes
    # no whole-network check and refuses it
    for method in ("sd", "td", "ag", "2s"):
        report = analyze(net, method, target=Target.backlog(4, [0]), removed={(9, 8)})
        assert not report.stable and report.verdict == "unstable"
        assert not is_stable(net, method, removed={(9, 8)})
    for method in ("td", "ag", "2s"):
        with pytest.raises(ValidationError, match=re.escape("[(9, 8)]")):
            objective_for(net, Target.backlog(4, [0]), method, removed={(9, 8)})


def _check_report_consistency(net, method):
    """One analysis agrees with itself and with the standalone entry points."""
    target = Target.backlog(net.flows[0].path[-1], [0])
    report = analyze(net, method, target=target)
    assert report.stable == (report.fixed_point is not None) == report.bound.is_finite
    assert report.stable == is_stable(net, method)
    # the verdict's decision route agrees with the rule read off the exact rho
    rho_rule = "critical" if abs(report.rho - 1.0) <= 1e-9 else (
        "stable" if report.stable else "unstable")
    assert report.verdict == rho_rule
    if not local_stability(net).stable:
        assert report.objective is None
        return
    removed = removal_tree(net)
    if method == "2s":
        # the two-stage bound over td and ag fixed points built apart from analyze
        assert report.objective is None
        dec, numbers, recursions, _ = _method_recursions(net, "2s", removed)
        b_star, big_b = (solve_recursion(lr) for lr in recursions)
        obj = dec.objective(numbers, target)
        assert report.bound == _two_stage(dec, obj, b_star, big_b)
        return
    obj = objective_for(net, target, method)
    assert np.array_equal(report.objective.Q, obj.Q) and report.objective.C == obj.C
    lr = build_sd(net) if method == "sd" else (build_td if method == "td" else build_ag)(net, removed)
    assert report.bound == one_stage_bound(lr, obj)


def test_analyze_consistent_on_random_rings(rng):
    for _ in range(6):
        net = random_uni_ring(rng)
        for method in ("sd", "td", "ag", "2s"):
            _check_report_consistency(net, method)


@pytest.mark.parametrize("method", ["sd", "td", "ag", "2s"])
@pytest.mark.parametrize("family", [lambda u: uni_ring(10, u), lambda u: bi_ring(10, u)],
                         ids=["uni_ring", "bi_ring"])
def test_analyze_consistent_at_critical_utilization(family, method):
    # both sides of the threshold, clipped to the family's range: uni_ring's
    # ag and 2s thresholds sit just below U = 1, where local stability ends
    u_star = critical_utilization(family, method)
    for u in {max(u_star - 1e-3, 1e-3), min(u_star + 1e-3, 1.0)}:
        _check_report_consistency(family(u), method)


def test_objective_sd_single_server_group_bound():
    # one-server network: the objective constant is the direct group bound
    net = Network(
        (RateLatency(4, 0.5),),
        (Flow(TokenBucket(1, 1), (0,)), Flow(TokenBucket(2, 1), (0,))),
    )
    obj = objective_for(net, Target.backlog(0, [0]), "sd")
    from netcalc import group_backlog_bound

    direct = group_backlog_bound(
        [net.flows[0].arrival], [net.flows[1].arrival], net.servers[0]
    )
    assert obj.Q.size == 0
    assert obj.C == pytest.approx(direct.value, abs=1e-12)
    lr = build_sd(net)
    assert one_stage_bound(lr, obj).value == pytest.approx(direct.value, abs=1e-12)


def test_objective_sd_weights_the_bursts_entering_the_server(rng):
    # Q puts 1 on the interest's and the gain on the cross traffic's burst
    # entering server j, at that hop's sd label; first hops fold into C
    nets = [random_uni_ring(rng) for _ in range(8)] + [bi_ring(4, 0.3), toy(0.4)]
    for net in nets:
        labels = build_sd(net).labels
        for j in range(net.num_servers):
            crossing = [i for i, f in enumerate(net.flows) if j in f.path]
            for interest in (crossing[:1], crossing[::2]):
                obj = objective_for(net, Target.backlog(j, interest), "sd")
                r_cross = sum(net.flows[i].arrival.rate for i in crossing if i not in interest)
                gain = (sum(net.flows[i].arrival.rate for i in interest)
                        / (net.servers[j].rate - r_cross))
                expected = np.zeros(len(labels))
                for pos, (i, k) in enumerate(labels):
                    if net.flows[i].path[k] == j:
                        expected[pos] = 1.0 if i in interest else gain
                np.testing.assert_allclose(obj.Q, expected, rtol=1e-12, atol=0)
    with pytest.raises(UnsupportedTargetError, match="do not cross the server"):
        objective_for(uni_ring(4, 0.3), Target.backlog(0, [0, 7]), "sd")


def test_objective_sd_matches_reference(rng):
    # every server, one-flow and multi-flow groups, and a locally unstable ring
    nets = [random_uni_ring(rng) for _ in range(10)] + [random_tandem(rng) for _ in range(10)]
    nets += [random_tree(rng) for _ in range(10)] + [bi_ring(4, 0.3), toy(0.4), uni_ring(4, 1.0)]
    for net in nets:
        for j in range(net.num_servers):
            crossing = [i for i, f in enumerate(net.flows) if j in f.path]
            for interest in (crossing[:1], crossing[:2], crossing[1::2], crossing, [0]):
                if not interest:
                    continue
                target = Target.backlog(j, interest)
                try:
                    expected = sd_reference.objective(net, target)
                except Exception as exc:
                    with pytest.raises(type(exc), match="^%s$" % re.escape(str(exc))):
                        objective_for(net, target, "sd")
                    continue
                obj = objective_for(net, target, "sd")
                assert np.array_equal(obj.Q, expected.Q)
                assert obj.C == expected.C


def test_objective_tree_matches_tree_backlog_on_acyclic():
    net = two_server_sink_tree()
    obj = objective_for(net, Target.backlog(1, [0]), "td", removed=frozenset())
    assert obj.Q.size == 0
    assert obj.C == pytest.approx(tree_backlog(net, [0]).value.value, abs=1e-12)
    d = objective_for(net, Target.delay(0), "td", removed=frozenset())
    assert d.C == pytest.approx(float(tree_delay(net, 0)), abs=1e-12)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("target, message", [
    (Target("backlog", server=0), "backlog target needs a server and flows"),
    (Target("backlog", flows=frozenset({0})), "backlog target needs a server and flows"),
    (Target("rate"), "unknown target kind 'rate'"),
], ids=["no_flows", "no_server", "unknown_kind"])
def test_malformed_targets_are_rejected(method, target, message):
    net = uni_ring(4, 0.3)
    with pytest.raises(UnsupportedTargetError, match=re.escape(message)):
        analyze(net, method, target)
    with pytest.raises(UnsupportedTargetError, match=re.escape(message)):
        objective_for(net, target, method)


@pytest.mark.parametrize("method, message", [
    ("sd", "flow 0 does not cross server 0"),
    ("td", "flow 0 does not cross server 0"),
    ("ag", "flow 0 does not cross server 0"),
    ("2s", "flow 0 does not cross server 0"),
])
def test_backlog_target_flow_must_cross_the_server(method, message):
    net = toy(0.4)  # flow 0 runs 2 -> 3 -> 1
    with pytest.raises(UnsupportedTargetError, match=re.escape(message)):
        analyze(net, method, Target.backlog(0, [0]))


def test_objective_tree_rejects_zero_rate_delay():
    net = Network((RateLatency(2, 1), RateLatency(4, 1)),
                  (Flow(TokenBucket(1, 0), (0, 1)), Flow(TokenBucket(1, 1), (1,))))
    with pytest.raises(UnsupportedTargetError, match="delay of a zero-rate flow is undefined"):
        objective_for(net, Target.delay(0), "td", removed=frozenset())


def test_unknown_method_is_rejected_before_any_work():
    net = uni_ring(5, 1.0)  # locally unstable: the method is read first

    def family(u):
        raise AssertionError("family called")

    calls = [lambda: analyze(net, "xx"), lambda: analyze(net, "xx", Target.backlog(0, [0])),
             lambda: is_stable(net, "xx"), lambda: objective_for(net, Target.backlog(0, [0]), "xx"),
             lambda: critical_utilization(family, "xx")]
    for call in calls:
        with pytest.raises(ValidationError, match="unknown method 'xx'"):
            call()
    assert analyze(uni_ring(4, 0.3), "TD").method == "td"


@pytest.mark.parametrize("method", [5, None, ("sd",)], ids=["int", "none", "tuple"])
def test_a_method_that_is_no_string_is_an_unknown_method(method):
    net = uni_ring(4, 0.3)
    calls = [lambda: analyze(net, method), lambda: is_stable(net, method),
             lambda: objective_for(net, Target.backlog(0, [0]), method),
             lambda: critical_utilization(lambda u: uni_ring(4, u), method)]
    for call in calls:
        with pytest.raises(ValidationError, match=r"^unknown method %s$" % re.escape(repr(method))):
            call()


@pytest.mark.parametrize("method", ["sd", "td", "ag", "2s"])
def test_critical_utilization_refuses_a_family_that_returns_no_network(method):
    with pytest.raises(ValidationError, match=r"^family\(1\.0\) returned int, not a Network$"):
        critical_utilization(lambda u: 5, method)
    # every step checks its network, not only the first one
    with pytest.raises(ValidationError,
                       match=r"^family\(0\.5005\) returned NoneType, not a Network$"):
        critical_utilization(lambda u: uni_ring(4, u) if u == 1.0 else None, method)


def test_objective_sd_rejects_delay():
    with pytest.raises(UnsupportedTargetError):
        objective_for(two_server_sink_tree(), Target.delay(0), "sd")


def test_objective_tree_rejects_split_flow_delay():
    net = uni_ring(4, 0.2)
    with pytest.raises(UnsupportedTargetError):
        objective_for(net, Target.delay(1), "td")  # flow 1 wraps the ring


def test_methods_agree_on_feed_forward_tree():
    # on an acyclic tree, td/ag have no variables and reproduce the exact
    # tree value; sd propagates per-server bounds and stays above it
    net = Network(
        tuple(RateLatency(6, 0.2) for _ in range(3)),
        (
            Flow(TokenBucket(1, 1), (0, 1, 2)),
            Flow(TokenBucket(2, 0.5), (1, 2)),
            Flow(TokenBucket(1, 0.25), (2,)),
        ),
    )
    target = Target.backlog(2, [0])
    exact = tree_backlog(net, [0]).value.value
    td = analyze(net, "td", target=target, removed=frozenset()).bound.value
    ag = analyze(net, "ag", target=target, removed=frozenset()).bound.value
    sd = analyze(net, "sd", target=target).bound.value
    assert td == pytest.approx(exact, abs=1e-12)
    assert ag == pytest.approx(exact, abs=1e-12)
    assert sd >= exact - 1e-12


def test_sd_feed_forward_equals_manual_propagation():
    # two servers, two flows: propagate the group backlog formula by hand
    b1, r1, b2, r2 = 1.0, 1.0, 2.0, 0.5
    R, T = 4.0, 0.25
    net = Network(
        (RateLatency(R, T), RateLatency(R, T)),
        (Flow(TokenBucket(b1, r1), (0, 1)), Flow(TokenBucket(b2, r2), (1,))),
    )
    sd = analyze(net, "sd", target=Target.backlog(1, [0])).bound.value
    b1_at_1 = b1 + r1 / (R - 0.0) * (0.0 + R * T)  # alone at server 0
    manual = b1_at_1 + r1 / (R - r2) * (b2 + r2 * T) + r1 * T
    assert sd == pytest.approx(manual, abs=1e-12)


def test_dominance_td_below_sd(rng):
    checked = 0
    while checked < 40:
        net = random_cyclic_instance(rng)
        target = Target.backlog(net.flows[0].path[-1], [0])
        sd = analyze(net, "sd", target=target).bound
        td = analyze(net, "td", target=target).bound
        if not (sd.is_finite and td.is_finite):
            continue
        assert td.value <= sd.value + 1e-9
        checked += 1


def test_two_stage_below_components(rng):
    checked = 0
    while checked < 25:
        net = random_cyclic_instance(rng)
        removed = removal_tree(net)
        target = Target.backlog(net.flows[0].path[-1], [0])
        td = analyze(net, "td", target=target, removed=removed).bound
        ag = analyze(net, "ag", target=target, removed=removed).bound
        ts = two_stage_bound(net, removed, target)
        if td.is_finite and ag.is_finite:
            assert ts.is_finite
            assert ts.value <= min(td.value, ag.value) + 1e-9
        elif td.is_finite or ag.is_finite:
            assert ts.is_finite
        checked += 1


def test_two_stage_greedy_dominates_random_feasible(rng):
    checked = 0
    while checked < 8:
        net = random_cyclic_instance(rng)
        removed = removal_tree(net)
        dec, numbers, (lr_td, lr_ag), _ = _method_recursions(net, "2s", removed)
        b_star = solve_recursion(lr_td)
        big_b = solve_recursion(lr_ag)
        if b_star is None or big_b is None or lr_td.size == 0:
            continue
        target = Target.backlog(net.flows[0].path[-1], [0])
        obj = dec.objective(numbers, target)
        greedy = two_stage_bound(net, removed, target).value
        index = {lab: pos for pos, lab in enumerate(lr_td.labels)}
        arcs = lr_ag.labels
        arc_pos = {a: i for i, a in enumerate(arcs)}
        split = decompose(net, removed)
        continuations = group_by_arc(split).continuations
        groups = [
            (arc_pos[a], [index[split[s].label] for s in continuations[a]])
            for a in arcs if continuations[a]
        ]
        for _ in range(2000):
            x = rng.uniform(0, 1, lr_td.size) * b_star
            for a_i, members in groups:
                total = sum(x[v] for v in members)
                if total > big_b[a_i] and total > 0:
                    for v in members:
                        x[v] *= big_b[a_i] / total
            value = float(obj.Q @ x) + obj.C
            assert value <= greedy + 1e-9
        checked += 1


def test_two_stage_unbounded_only_when_both_diverge():
    net = uni_ring(6, 0.95)  # locally stable, every method's matrix diverges
    removed = removal_tree(net)
    ts = two_stage_bound(net, removed, Target.backlog(5, [0]))
    td_ok = is_stable(net, "td")
    ag_ok = is_stable(net, "ag")
    assert ag_ok  # the one-ring grouping stays stable up to local stability
    assert not td_ok
    assert ts.is_finite


def test_two_stage_unbounded_on_local_instability():
    # as analyze(..., "2s") and netcalc sweep report it, not an exception
    net = uni_ring(5, 1.0)  # critical utilization: no strict margin anywhere
    target = Target.backlog(4, [0])
    assert two_stage_bound(net, removal_tree(net), target) is UNBOUNDED
    assert analyze(net, "2s", target=target).bound is UNBOUNDED


def test_two_stage_matches_ag_when_td_diverges():
    net = uni_ring(10, 0.8)
    removed = removal_tree(net)
    target = Target.backlog(9, [0])
    ts = two_stage_bound(net, removed, target)
    ag = analyze(net, "ag", target=target, removed=removed).bound
    assert not is_stable(net, "td")
    assert ts.value == pytest.approx(ag.value, rel=1e-9)


def test_grouped_extremes_match_td_and_ag(rng):
    for _ in range(8):
        net = random_uni_ring(rng)
        removed = removal_tree(net)
        td, ag = build_td(net, removed), build_ag(net, removed)
        none_grouped = build_grouped(net, removed, frozenset())
        all_grouped = build_grouped(net, removed, removed)
        assert none_grouped.labels == td.labels
        assert np.allclose(none_grouped.M, td.M) and np.allclose(none_grouped.N, td.N)
        assert all_grouped.labels == ag.labels
        assert np.allclose(all_grouped.M, ag.M) and np.allclose(all_grouped.N, ag.N)


def test_mixed_grouping_beats_full_grouping_on_bi_ring():
    # grouping only the wrap-around arc keeps a finite stability region,
    # full grouping has none on the bidirectional ring
    net = bi_ring(6, 0.05)
    removed = removal_tree(net)
    mixed = build_grouped(net, removed, {(net.num_servers - 1, 0)})
    assert spectral_radius(mixed.M) < 1 - 1e-9
    assert spectral_radius(build_ag(net, removed).M) >= 1 - 1e-6
    with pytest.raises(ValidationError):
        build_grouped(net, removed, {(0, 3)})


def test_analyze_two_stage_report():
    rep = analyze(uni_ring(6, 0.3), "2s", target=Target.backlog(5, [0]))
    assert rep.stable
    assert rep.bound.is_finite
    td = analyze(uni_ring(6, 0.3), "td", target=Target.backlog(5, [0]))
    ag = analyze(uni_ring(6, 0.3), "ag", target=Target.backlog(5, [0]))
    assert rep.bound.value <= min(td.bound.value, ag.bound.value) + 1e-9


def test_build_td_rejects_non_forest_removal():
    from netcalc import NotAForestError

    net = toy()
    # removing only the big back arc leaves server 1 with two successors (0 and 2)
    with pytest.raises(NotAForestError, match="removal leaves server 1 with several successors"):
        build_td(net, frozenset({(3, 1)}))


def _overloaded(net, j):
    # net with server j too slow for the flows crossing it
    load = sum(f.arrival.rate for f in net.flows if j in f.path)
    servers = list(net.servers)
    servers[j] = RateLatency(0.5 * load, servers[j].latency)
    return Network(tuple(servers), net.flows)


def _renumbered_clip(net, j1):
    # reference view: the servers with a path to j1, the flows cut to them,
    # then renumber() of that sub-network
    arcs = induced_graph(net)
    keep = {j1}
    while True:
        more = {u for u, v in arcs if v in keep} - keep
        if not more:
            break
        keep |= more
    sub_id = {j: s for s, j in enumerate(sorted(keep))}
    flows = [Flow(f.arrival, tuple(sub_id[j] for j in f.path if j in sub_id))
             for f in net.flows if keep.intersection(f.path)]
    renamed, old_to_new = renumber(Network(tuple(net.servers[j] for j in sorted(keep)), tuple(flows)))
    return renamed, old_to_new, sorted(keep)


def _view_rows(view, batch):
    # (phi, rho, xi toward the root) of the batch's rows at the view's root
    rows = rows_at(view.forest, [view.root] * len(batch), batch)
    phi, rho, xi = rows.run(view.numbers)
    return phi, rho, rows.toward_root(xi)


def test_context_views_equal_public_upstream_views(rng):
    # a context slices its views from the forest checked once; they must be
    # the views the public upstream_view builds and checks on its own
    nets = [uni_ring(6, 0.5), bi_ring(5, 0.4), three_ring(0.3), toy()]
    nets += [random_uni_ring(rng) for _ in range(30)]
    # server 3's views in bi_ring(5) hold servers (2, 3): view ids are not forest ids
    nets += [_overloaded(uni_ring(5, 0.4), 4), _overloaded(bi_ring(5, 0.4), 3)]
    unstable_views = 0
    for net in nets:
        dec = _prepare(net, "td")
        numbers = dec.bind(_numbers(net))
        forest = as_network(net, decompose(net, removal_tree(net)))
        for j1 in range(forest.num_servers):
            view, public = UpstreamView(dec.forest, j1, numbers), upstream_view(forest, j1)
            assert view_tree(view) == view_tree(public)
            assert view.unstable_servers == public.unstable_servers
            assert view.at_root == public.at_root
            renamed, old_to_new, kept = _renumbered_clip(forest, j1)
            tree, server, _ = view_tree(view)
            assert tree == renamed
            assert [server[new] for new in old_to_new] == kept
            unstable_views += bool(view.unstable_servers)
            if not view.unstable_servers:
                batch = [[i] for i in sorted(view.at_root)] + [sorted(view.at_root)]
                for mine, theirs in zip(_view_rows(view, batch), _view_rows(public, batch)):
                    np.testing.assert_array_equal(mine, theirs)
    assert unstable_views > 0


def test_objective_for_raises_only_when_the_target_view_is_unstable():
    # objective_for runs no whole-network check: on a locally unstable
    # network it fails exactly when the target's view holds an unstable server
    net = _overloaded(uni_ring(5, 0.4), 4)
    assert removal_tree(net) == {(4, 0)}  # the view at server j holds servers 0..j
    for method in ("td", "ag", "2s"):
        for j in range(4):
            assert np.isfinite(objective_for(net, Target.backlog(j, [j]), method).C)
        with pytest.raises(LocallyUnstableError, match=r"servers \[4\] are not strictly stable"):
            objective_for(net, Target.backlog(4, [4]), method)


def test_instability_diagnostics_name_network_server_ids():
    # server 3's view in bi_ring(5) holds servers 2 and 3: the diagnostic
    # names network id 3, not the view's position of it
    net = _overloaded(bi_ring(5, 0.4), 3)
    crossing = [i for i, f in enumerate(net.flows) if 3 in f.path]
    for method in ("td", "ag"):
        for i in crossing:
            with pytest.raises(LocallyUnstableError, match=r"^servers \[3\] are not strictly stable$"):
                objective_for(net, Target.backlog(3, [i]), method)
    split = decompose(net, removal_tree(net))
    ending = [s for s, sf in enumerate(split) if sf.path[-1] == 3]
    result = upstream_view(as_network(net, split), 3).backlog(ending)
    assert not result.value.is_finite
    assert result.diagnostic == "servers [3] are not strictly stable"


_BAD_TARGETS = [
    (Target.backlog(7, [0]), "server 7"),
    (Target.backlog(-1, [0]), "server -1"),
    (Target.backlog(4, [0, 5]), "flow 5"),
    (Target.delay(9), "flow 9"),
    (Target.delay(-1), "flow -1"),
]


@pytest.mark.parametrize("method", ["sd", "td", "ag", "2s"])
@pytest.mark.parametrize("target, bad", _BAD_TARGETS, ids=[bad for _, bad in _BAD_TARGETS])
def test_out_of_range_target_ids_are_rejected(method, target, bad):
    # uni_ring(5) has servers and flows 0..4: no bare IndexError, no
    # negative index reaching another flow
    net = uni_ring(5, 0.5)
    message = re.escape("%s does not exist" % bad)
    with pytest.raises(UnsupportedTargetError, match=message):
        analyze(net, method, target)
    with pytest.raises(UnsupportedTargetError, match=message):
        objective_for(net, target, method)
    # local instability still short-circuits first
    report = analyze(uni_ring(5, 1.0), method, target)
    assert not report.stable and report.bound is UNBOUNDED


_NOT_INT_TARGETS = [
    (Target.backlog(True, [0]), "server True", METHODS),
    (Target.backlog(9.0, [0]), "server 9.0", METHODS),
    (Target.delay(0.0), "flow 0.0", ("td", "ag", "2s")),  # sd refuses any delay
    # Target.backlog refuses it, so the target is built directly
    (Target("backlog", server=9, flows=frozenset({True})), "flow True", METHODS),
]


@pytest.mark.parametrize("target, bad, methods", _NOT_INT_TARGETS,
                         ids=[bad.replace(" ", "_") for _, bad, _ in _NOT_INT_TARGETS])
def test_target_ids_must_be_ints(target, bad, methods):
    # True == 1 and 9.0 == 9 name existing ids, but they are no ids: refused,
    # not read as server 1, server 9 or flow 1
    net = uni_ring(10, 0.3)
    message = re.escape("%s does not exist" % bad)
    for method in methods:
        with pytest.raises(UnsupportedTargetError, match=message):
            analyze(net, method, target)
        with pytest.raises(UnsupportedTargetError, match=message):
            objective_for(net, target, method)


_NUMPY_TARGETS = [
    (Target.backlog(np.int64(7), [0]), "server 7"),
    (Target.backlog(4, [0, np.int64(5)]), "flow 5"),
    (Target.delay(np.int64(9)), "flow 9"),
]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("target, bad", _NUMPY_TARGETS, ids=[bad for _, bad in _NUMPY_TARGETS])
def test_out_of_range_numpy_target_ids_read_as_integers(method, target, bad):
    # a numpy id out of range is named as the integer it is, not as np.int64(...)
    net = uni_ring(5, 0.5)
    message = "%s does not exist" % re.escape(bad)
    with pytest.raises(UnsupportedTargetError, match=message):
        analyze(net, method, target)
    with pytest.raises(UnsupportedTargetError, match=message):
        objective_for(net, target, method)


@pytest.mark.parametrize("method", METHODS)
def test_numpy_integer_target_ids_are_ids(method):
    net = uni_ring(10, 0.05)
    plain = analyze(net, method, Target.backlog(9, [0]))
    assert math.isfinite(plain.bound)
    assert analyze(net, method, Target.backlog(np.int64(9), [np.int64(0)])).bound == plain.bound


#: Odd values of every kind: no value, a bool, numbers, a string, empty and
#: odd containers, a dict, nan and a numpy integer.
_ODD_VALUES = [None, True, 1.5, "1", -1, 10**6, (), [], [None], [1.0], [(0, "a")], {"a": 1},
               math.nan, np.int64(1), 5, 10**400]

#: Every entry point that takes a target or an interest, as a call on one value.
_TARGET_OR_INTEREST_TAKERS = {
    **{"analyze " + m: lambda v, m=m: analyze(uni_ring(4, 0.3), m, v) for m in METHODS},
    **{"objective_for " + m: lambda v, m=m: objective_for(uni_ring(4, 0.3), v, m) for m in METHODS},
    "tree_backlog": lambda v: tree_backlog(two_server_sink_tree(), v),
    "compute_xi": lambda v: compute_xi(two_server_sink_tree(), v),
    "tree_output_curve": lambda v: tree_output_curve(two_server_sink_tree(), v),
    "UpstreamView.backlog": lambda v: upstream_view(two_server_sink_tree(), 1).backlog(v),
    "bruteforce_backlog": lambda v: bruteforce_backlog(two_server_sink_tree(), v),
    "worst_case_periods": lambda v: worst_case_periods(two_server_sink_tree(), v),
}


@pytest.mark.parametrize("taker", _TARGET_OR_INTEREST_TAKERS)
def test_odd_targets_and_interests_return_or_raise_a_netcalc_error(taker):
    call = _TARGET_OR_INTEREST_TAKERS[taker]
    for value in _ODD_VALUES:
        try:
            call(value)
        except NetcalcError:
            pass  # any other exception fails the test
    # a target that is no Target, or an interest that is no iterable, is named
    if taker.startswith(("analyze", "objective_for")):
        with pytest.raises(UnsupportedTargetError, match="^target must be a Target, got True$"):
            call(True)
    else:
        for value in (None, 5):
            with pytest.raises(InterestNotAtRootError,
                               match="^interest must be flow ids, got %r$" % value):
                call(value)


#: Every entry point that takes a number of the model, a path entry, a
#: scenario part or a matrix, as ``(call on one value, a value it refuses,
#: the error, its message)``.
_MODEL_TAKERS = {
    "TokenBucket burst": (lambda v: TokenBucket(v, 1.0), True, ValidationError,
                          "burst must be finite and >= 0, got True"),
    "TokenBucket rate": (lambda v: TokenBucket(1.0, v), "1", ValidationError,
                         "rate must be finite and >= 0, got '1'"),
    "RateLatency rate": (lambda v: RateLatency(v, 0.0), "1", ValidationError,
                         "rate must be finite and > 0, got '1'"),
    "RateLatency latency": (lambda v: RateLatency(1.0, v), True, ValidationError,
                            "latency must be finite and >= 0, got True"),
    "Bound": (Bound, "a", ValidationError, "finite bound must be >= 0 and finite, got 'a'"),
    "output_curve backlog": (lambda v: output_curve(v, 1.0), None, ValidationError,
                             "output curve requires a finite backlog bound"),
    "output_curve rate": (lambda v: output_curve(1.0, v), True, ValidationError,
                          "rate must be finite and >= 0, got True"),
    "network_from_dict": (
        lambda v: network_from_dict({"servers": [{"rate": v, "latency": 0.0}], "flows": []}),
        "1", ValidationError, "malformed network file: server 1: rate must be a number, got '1'"),
    "uni_ring": (lambda v: uni_ring(4, v), True, ValidationError, "utilization must be in (0, 1]"),
    "Network path entry": (
        lambda v: Network([RateLatency(1.0, 0.0)] * 2, [Flow(TokenBucket(1.0, 1.0), (v, 1))]),
        0.0, ValidationError, "flow 0 crosses unknown server 0.0 (n=2)"),
    "Flow arrival": (lambda v: Flow(v, (0,)), None, ValidationError,
                     "flow arrival must be a TokenBucket, got None"),
    "Flow path": (lambda v: Flow(TokenBucket(1.0, 1.0), v), 5, ValidationError,
                  "flow path must be server ids, got 5"),
    "Flow path entry": (lambda v: Flow(TokenBucket(1.0, 1.0), (v,)), [0], ValidationError,
                        "flow path must be server ids, got ([0],)"),
    "Network servers": (lambda v: Network(v, []), None, ValidationError,
                        "network servers and flows must be iterables, got None and []"),
    "Network server": (lambda v: Network([v], [Flow(TokenBucket(1.0, 1.0), (0,))]), None,
                       ValidationError, "server 0 must be a RateLatency, got None"),
    "Network flows": (lambda v: Network([RateLatency(1.0, 0.0)], v), None, ValidationError,
                      "network servers and flows must be iterables, got "
                      "(RateLatency(rate=1.0, latency=0.0),) and None"),
    "Network flow": (lambda v: Network([RateLatency(1.0, 0.0)], [v]), None, ValidationError,
                     "flow 0 must be a Flow, got None"),
    "simulate_fluid": (lambda v: simulate_fluid(two_server_sink_tree(), v), None, ScenarioError,
                       "scenario must be a Scenario, got None"),
    "Scenario arrivals": (lambda v: Scenario(v, (ServerSpec(),) * 2, 1.0), None, ScenarioError,
                          "scenario needs a tuple of ArrivalSpec, got None"),
    "Scenario servers": (lambda v: Scenario((ArrivalSpec(),) * 2, v, 1.0), (None, None),
                         ScenarioError, "scenario needs a tuple of ServerSpec, got (None, None)"),
    "ServerSpec priority": (lambda v: ServerSpec(priority=v), 5, ScenarioError,
                            "priority must be a tuple of flow ids, got 5"),
    "simulate_fluid priority entry": (
        lambda v: simulate_fluid(two_server_sink_tree(), Scenario(
            (ArrivalSpec(),) * 2, (ServerSpec(priority=(v,)),) * 2, 1.0), dt=0.01),
        [None], ScenarioError, "server 0 priority ([None],) must list distinct flows of 0..1"),
    "worst_case_scenario": (lambda v: worst_case_scenario(two_server_sink_tree(), v), 5,
                            InterestNotAtRootError, "interest must be flow ids, got 5"),
    "spectral_radius": (spectral_radius, {"a": 1}, ValidationError, "matrix entries must be numbers"),
    "rho_below matrix": (lambda v: rho_below(v, 1.0), [(0, "a")], ValidationError,
                         "matrix entries must be numbers"),
    "rho_below threshold": (lambda v: rho_below(np.eye(2) / 2, v), None, ValidationError,
                            "threshold must be a real number, got None"),
    "Target.backlog flows": (lambda v: Target.backlog(3, v), None, UnsupportedTargetError,
                             "backlog flows must be flow ids, got None"),
    "Target.backlog flow": (lambda v: Target.backlog(3, [0, v]), False, UnsupportedTargetError,
                            "backlog flows must be flow ids, got [0, False]"),
}


@pytest.mark.parametrize("taker", _MODEL_TAKERS)
def test_odd_numbers_paths_scenarios_and_matrices_return_or_raise_a_netcalc_error(taker):
    call, refused, error, message = _MODEL_TAKERS[taker]
    for value in _ODD_VALUES:
        try:
            call(value)
        except NetcalcError:
            pass  # any other exception fails the test
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call(refused)


@pytest.mark.parametrize("make", [
    lambda v: TokenBucket(v, 1), lambda v: TokenBucket(1, v), lambda v: RateLatency(v, 0),
    lambda v: RateLatency(1, v), Bound, lambda v: output_curve(v, 1.0),
], ids=["TokenBucket burst", "TokenBucket rate", "RateLatency rate", "RateLatency latency",
        "Bound", "output_curve backlog"])
def test_an_integer_too_large_for_a_float_is_refused(make):
    with pytest.raises(ValidationError, match="finite"):
        make(10**400)
    make(2**1000)  # large, but a float holds it


def test_build_grouped_rejects_arcs_outside_the_removal():
    net = bi_ring(6, 0.05)
    removed = removal_tree(net)
    kept = min(induced_graph(net) - removed)
    with pytest.raises(ValidationError, match=re.escape("grouped arcs not in the removal: [%r]" % (kept,))):
        build_grouped(net, removed, removed | {kept})
    # an endpoint that is no id makes no removed arc, though the arc equals
    # (9, 0): refused alone and beside (9, 0), where a set would fold it away
    net = uni_ring(10, 0.5)
    for arc in ((9.0, 0), (9, False)):
        for grouped in ({arc}, [(9, 0), arc]):
            with pytest.raises(ValidationError, match=re.escape("grouped arcs not in the removal: [%r]" % (arc,))):
                build_grouped(net, {(9, 0)}, grouped)
    with pytest.raises(ValidationError, match=re.escape("the removal: [(3, 0.0)]")):
        build_grouped(uni_ring(4, 0.5), [(3, 0)], [(3, 0), (3, 0.0)])
    # a grouped arc given twice is one grouped unknown
    twice, once = (build_grouped(net, {(9, 0)}, [(9, 0)] * k) for k in (2, 1))
    assert (twice.M.tolist(), twice.N.tolist()) == (once.M.tolist(), once.N.tolist())


def test_build_functions_check_local_stability_before_the_removal():
    # a removal that names no induced arc is not looked at on a locally
    # unstable network: every build_* refuses the network first
    net, removed = uni_ring(4, 1.0), {(9, 8)}
    message = r"^servers \[0, 1, 2, 3\] are not strictly stable$"
    for build in (lambda: build_td(net, removed), lambda: build_ag(net, removed),
                  lambda: build_grouped(net, removed, ())):
        with pytest.raises(LocallyUnstableError, match=message):
            build()


def test_td_verdict_checks_the_network_once_whatever_the_number_of_views(monkeypatch):
    # views are sliced from the forest checked once: no view may classify,
    # renumber or check local stability again
    counts = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    checks = ("classify", "renumber", "local_stability")
    for name in checks:
        original = getattr(netcalc.network, name)
        wrapper = counted(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "netcalc" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(_RowLayout, "__init__", counted("layout", _RowLayout.__init__))
    is_stable(bi_ring(10, 0.5), "td")
    assert counts["layout"] == 1  # every row of every view in one layout
    assert all(counts[name] <= 1 for name in checks), counts


@pytest.mark.parametrize("kind", ["backlog", "delay"])
@pytest.mark.parametrize("method", ["td", "ag", "2s"])
def test_analyze_prepares_and_runs_one_batch_per_call(monkeypatch, method, kind):
    # the recursions' rows and the target's share one layout and one pass,
    # and one induced graph serves the removal and the split's checks
    counts = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    original = netcalc.network.induced_graph
    wrapper = counted("induced_graph", original)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "netcalc" and vars(module).get("induced_graph") is original:
            monkeypatch.setattr(module, "induced_graph", wrapper)
    monkeypatch.setattr(_RowLayout, "__init__", counted("layout", _RowLayout.__init__))
    monkeypatch.setattr(_RowLayout, "run", counted("run", _RowLayout.run))
    net = three_ring(0.3)  # a bi-ring's removal splits every flow
    split = decompose(net, removal_tree(net))
    whole = next(sf.origin for sf in split if sf.path == net.flows[sf.origin].path)
    target = Target.backlog(net.flows[0].path[-1], [0]) if kind == "backlog" else Target.delay(whole)
    counts.clear()
    for calls in (1, 2):
        report = analyze(net, method, target)
        assert report.bound.is_finite
        assert counts == {"layout": calls, "run": calls, "induced_graph": calls}, counts


@pytest.mark.parametrize("removed", [{(9, 8)}, frozenset()], ids=["not_induced", "empty"])
def test_sd_refuses_a_removal(removed):
    # sd removes no arcs: any removal, even an empty one, is refused, never
    # silently ignored
    net = uni_ring(3, 0.5)
    message = "^the per-server decomposition removes no arcs$"
    for call in (lambda: analyze(net, "sd", Target.backlog(2, [0]), removed),
                 lambda: is_stable(net, "sd", removed),
                 lambda: objective_for(net, Target.backlog(2, [0]), "sd", removed)):
        with pytest.raises(ValidationError, match=message):
            call()


def test_critical_utilization_edge_cases():
    # stable on the whole range: return the top of the range
    assert critical_utilization(lambda u: two_server_sink_tree(), "td") == 1.0


def test_objective_for_refuses_a_target_server_without_rate_margin():
    # uni_ring(4, 1.0) loads every server to exactly its rate: the sd
    # objective refuses the target server, td its view of servers 0..3
    net, target = uni_ring(4, 1.0), Target.backlog(3, [0])
    with pytest.raises(LocallyUnstableError, match=r"^server 3 has no strict rate margin$"):
        objective_for(net, target, "sd")
    with pytest.raises(LocallyUnstableError, match=r"^servers \[0, 1, 2, 3\] are not strictly stable$"):
        objective_for(net, target, "td")


def test_rho_below_reads_a_singular_exact_test_as_not_below(monkeypatch):
    # no bracket step: 1 I - M is singular, so the threshold is an eigenvalue
    monkeypatch.setattr(netcalc.stability, "_brackets", _no_brackets)
    assert rho_below(np.array([[1.0]]), 1.0) is False


@pytest.mark.parametrize("M, N", [
    (np.zeros((2, 2)), np.zeros(1)),
    (np.zeros((1, 2)), np.zeros(1)),
    (np.zeros((2, 2)), np.zeros(2)),
])
def test_linear_recursion_rejects_mismatched_dimensions(M, N):
    with pytest.raises(ValidationError, match="inconsistent recursion dimensions"):
        LinearRecursion(("a",), M, N)


@pytest.fixture(scope="module")
def benchmark_pool():
    """The networks of the benchmark's ``analyze_many`` pool, loaded once per module."""
    return _benchmark_pool()


def _relative_gap(a, b) -> float:
    """The largest entry difference of ``a`` and ``b`` over their largest entry."""
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    return 0.0 if scale == 0 else np.abs(a - b).max(initial=0.0) / scale


def _end_of_flow_0(net) -> Target:
    """The benchmark's target: the backlog of flow 0 at the last server of its path."""
    return Target.backlog(net.flows[0].path[-1], [0])


def _td_on_full_removal_is_sd(net) -> bool:
    """
    td on the removal of every induced arc leaves one-server trees, so it
    builds sd's recursion and gives sd's verdict and bound, up to rounding;
    or both builders refuse a locally unstable network.  True when stable.
    """
    full = induced_graph(net)
    try:
        sd = build_sd(net)
    except LocallyUnstableError:
        with pytest.raises(LocallyUnstableError):
            build_td(net, full)
        return False
    td = build_td(net, full)
    assert td.labels == sd.labels
    assert _relative_gap(td.M, sd.M) <= 1e-13 and _relative_gap(td.N, sd.N) <= 1e-13
    target = _end_of_flow_0(net)
    a, b = analyze(net, "sd", target=target), analyze(net, "td", target=target, removed=full)
    assert a.verdict == b.verdict and a.bound.is_finite == b.bound.is_finite
    if a.bound.is_finite:
        assert b.bound.value == pytest.approx(a.bound.value, rel=1e-12)
    return a.stable


def test_td_on_the_full_removal_is_sd_on_the_benchmark_pool(benchmark_pool):
    nets = benchmark_pool[::7]
    # a quarter of them or more stable, so that the bounds are compared too
    assert sum(map(_td_on_full_removal_is_sd, nets)) >= len(nets) // 4


@settings(max_examples=50, deadline=None)
@given(_small_networks())
def test_td_on_the_full_removal_is_sd_property(net):
    _td_on_full_removal_is_sd(net)


def test_exact_decisions_and_fixed_points_on_the_benchmark_pool(benchmark_pool):
    # every recursion of L <= 24 variables, under every method, on every
    # 13th pool network, decided and solved in exact arithmetic on the
    # builders' floats: a float fixed point is one the exact test finds, to
    # 1e-12 relative per nonzero entry, and a float "unstable" beyond
    # 1 + 1e-9 is exact too; in the band between, the recursion is critical
    checked, stable, critical = 0, 0, 0
    for net in benchmark_pool[::13]:
        for method in METHODS:
            try:
                recursions = _method_recursions(net, method)[2]
            except LocallyUnstableError:
                continue
            for lr in recursions:
                if lr.size > 24:
                    continue
                exact, solution = exact_fixed_point(lr.M, lr.N), solve_recursion(lr)
                if solution is not None:
                    assert exact is not None
                    for b, x in zip(solution.tolist(), exact):
                        assert abs(Fraction(b) - x) <= Fraction(1e-12) * x
                    stable += 1
                elif not rho_below(lr, 1.0 + 1e-9):
                    assert exact is None
                else:
                    critical += 1
                checked += 1
    # 413 recursions at the time of writing: 347 stable, 66 unstable, none critical
    assert checked >= 400 and min(stable, checked - stable - critical) >= 50, (stable, critical)


def _refine(net, method, arcs) -> int:
    """
    From ``removal_tree(net)``, remove ``arcs`` one more at a time: smaller
    trees know less, so a stable verdict may only be lost and a finite bound
    may only grow (up to rounding) or become unbounded.  The number of steps.
    """
    removed = removal_tree(net)
    target = _end_of_flow_0(net)
    before = analyze(net, method, target=target, removed=removed)
    for arc in arcs:
        removed = removed | {arc}
        after = analyze(net, method, target=target, removed=removed)
        assert before.stable or not after.stable
        assert before.bound.is_finite or not after.bound.is_finite
        if after.bound.is_finite:
            assert after.bound.value >= before.bound.value * (1 - 1e-12)
        before = after
    return len(arcs)


@pytest.mark.parametrize("method", ["td", "ag", "2s"])
def test_refining_a_removal_never_loosens_the_bound(benchmark_pool, method):
    # from removal_tree(net) to every induced arc, in a shuffled order
    steps = 0
    for k, net in enumerate(benchmark_pool[::13]):
        arcs = sorted(induced_graph(net) - removal_tree(net))
        random.Random(k).shuffle(arcs)
        steps += _refine(net, method, arcs)
    assert steps >= 400


@pytest.mark.parametrize("method", ["td", "ag", "2s"])
@settings(max_examples=25, deadline=None)
@given(net=_small_networks(), data=st.data())
def test_refining_a_removal_never_loosens_the_bound_property(method, net, data):
    # from removal_tree(net) to every induced arc, in a drawn order
    _refine(net, method, data.draw(st.permutations(sorted(induced_graph(net) - removal_tree(net)))))


def _td_threshold(removed) -> float:
    """U* of ``uni_ring(10, U)`` under td with ``removed``: critical_utilization's bisection."""
    def stable(u):
        return is_stable(uni_ring(10, u), "td", removed)

    if stable(U_MAX):
        return U_MAX
    if not stable(U_MIN):
        return 0.0
    lo, hi = U_MIN, U_MAX
    while hi - lo > CRITICAL_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def test_td_threshold_of_uni_ring_10_under_one_and_two_arc_removals():
    # criterion 5 asks td's U* near 0.62; the default removal gives 0.6475,
    # every one-arc removal cuts the ring to the same tandem and gives the
    # same U*, and two cut arcs give trees that know less (0.50 to 0.52)
    default = critical_utilization(lambda u: uni_ring(10, u), "td")
    arcs = sorted(induced_graph(uni_ring(10, 0.5)))
    assert [_td_threshold(frozenset([arc])) for arc in arcs] == [default] * 10
    pairs = list(itertools.combinations(arcs, 2))
    assert len(pairs) == 45 and all(_td_threshold(frozenset(p)) < default for p in pairs)
