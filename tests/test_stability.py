import math
import sys
from collections import Counter

import numpy as np
import pytest

import netcalc.network

from netcalc import (
    Flow,
    LinearRecursion,
    LocallyUnstableError,
    Network,
    RateLatency,
    Target,
    TokenBucket,
    UnsupportedTargetError,
    ValidationError,
    analyze,
    build_ag,
    build_grouped,
    build_sd,
    build_td,
    critical_utilization,
    local_stability,
    objective_for,
    one_stage_bound,
    solve_recursion,
    spectral_radius,
    tree_backlog,
    tree_delay,
    two_stage_bound,
)
from netcalc.decomposition import decompose, group_by_arc, removal_tree
from netcalc.network import induced_graph, renumber
from netcalc.stability import _context, is_stable, rho_below, td_labels
from netcalc.topologies import bi_ring, three_ring, two_server_sink_tree, toy, uni_ring
from netcalc.tree_analysis import _Forest, tree_backlog_at, upstream_view

from conftest import random_uni_ring


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


def test_build_td_toy_equal_coefficients():
    # segments following the same path share one burst weight
    net = toy()
    removed = removal_tree(net)
    lr = build_td(net, removed)
    ff = decompose(net, removed)
    labels = td_labels(ff)
    index = {lab: pos for pos, lab in enumerate(labels)}
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
    ff = decompose(net, removed)
    groups = group_by_arc(ff)
    from netcalc.tree_analysis import tree_backlog_at

    result = tree_backlog_at(ff.as_network(), 3, groups.feeding[a_main])
    expected = max(result.burst_coefficients[s] for s in groups.continuations[a_main])
    assert lr.M[idx[a_main], idx[a_main]] == pytest.approx(expected, abs=1e-15)


def _recursion_row_by_row(net, removed, grouped):
    """
    The mixed recursion rebuilt one row at a time from the scalar tree pass
    (``tree_backlog_at``): ungrouped continuations keep their own burst
    weight, a grouped arc takes the largest weight of its continuations,
    and known bursts and latencies fold into the constant.
    """
    ff = decompose(net, removed)
    forest, groups = ff.as_network(), group_by_arc(ff)
    arc_of = {s: arc for arc, conts in groups.continuations.items() for s in conts}
    singles = [lab for lab in td_labels(ff) if arc_of[ff.index_of(lab)] not in grouped]
    arcs = sorted(grouped)
    L = len(singles) + len(arcs)

    def row(result):
        phi, rho = result.burst_coefficients, result.latency_coefficients
        coeffs = [phi[ff.index_of(lab)] for lab in singles]
        coeffs += [max((phi[s] for s in groups.continuations[arc]), default=0.0) for arc in arcs]
        constant = sum(phi[s] * net.flows[sf.origin].arrival.burst
                       for s, sf in enumerate(ff.split_flows) if sf.burst_known)
        constant += sum(rho[j] * beta.latency for j, beta in enumerate(net.servers))
        return coeffs, constant

    M, N = np.zeros((L, L)), np.zeros(L)
    for r, (i, k) in enumerate(singles):
        prev = ff.index_of((i, k - 1))
        M[r], N[r] = row(tree_backlog_at(forest, ff.split_flows[prev].path[-1], [prev]))
    for r, arc in enumerate(arcs, start=len(singles)):
        if groups.feeding[arc]:
            M[r], N[r] = row(tree_backlog_at(forest, arc[0], groups.feeding[arc]))
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


def test_spectral_radius_matches_eigvals(rng):
    for M in _decision_inputs(rng):
        expected = float(max(abs(np.linalg.eigvals(M))))
        for max_iter in (None, 0):  # the bracket first, or the exact stage alone
            assert spectral_radius(M, max_iter=max_iter) == pytest.approx(expected, abs=1e-7)
            assert rho_below(M, 1.0, max_iter=max_iter) == (expected < 1.0)


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


def test_solve_recursion_examples():
    lr = LinearRecursion(("x",), np.array([[0.5]]), np.array([1.0]))
    assert solve_recursion(lr) == pytest.approx([2.0])
    lr = LinearRecursion(("x", "y"), np.zeros((2, 2)), np.array([3.0, 4.0]))
    assert solve_recursion(lr) == pytest.approx([3.0, 4.0])
    lr = LinearRecursion(("x",), np.array([[1.0]]), np.array([1.0]))
    assert solve_recursion(lr) is None


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


def _check_report_consistency(net, method):
    """One analysis agrees with itself and with the standalone entry points."""
    target = Target.backlog(net.flows[0].path[-1], [0])
    report = analyze(net, method, target=target)
    assert report.stable == (report.fixed_point is not None) == report.bound.is_finite
    assert report.stable == is_stable(net, method)
    if not local_stability(net).stable:
        assert report.objective is None
        return
    removed = removal_tree(net)
    if method == "2s":
        assert report.objective is None
        assert report.bound == two_stage_bound(net, removed, target)
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


def test_objective_tree_matches_tree_backlog_on_acyclic():
    net = two_server_sink_tree()
    obj = objective_for(net, Target.backlog(1, [0]), "td", removed=frozenset())
    assert obj.Q.size == 0
    assert obj.C == pytest.approx(tree_backlog(net, [0]).value.value, abs=1e-12)
    d = objective_for(net, Target.delay(0), "td", removed=frozenset())
    assert d.C == pytest.approx(float(tree_delay(net, 0)), abs=1e-12)


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


def _random_cyclic_instance(rng):
    kind = rng.integers(0, 3)
    u = float(rng.uniform(0.05, 0.16))
    if kind == 0:
        return uni_ring(int(rng.integers(3, 7)), u)
    if kind == 1:
        return bi_ring(int(rng.integers(3, 5)), u)
    return toy(u)


def test_dominance_td_below_sd(rng):
    checked = 0
    while checked < 40:
        net = _random_cyclic_instance(rng)
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
        net = _random_cyclic_instance(rng)
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
    from netcalc.stability import _build_ag, _build_td, _context, _objective_tree, ag_labels

    checked = 0
    while checked < 8:
        net = _random_cyclic_instance(rng)
        removed = removal_tree(net)
        ctx = _context(net, removed)
        lr_td, lr_ag = _build_td(ctx), _build_ag(ctx)
        b_star = solve_recursion(lr_td)
        big_b = solve_recursion(lr_ag)
        if b_star is None or big_b is None or lr_td.size == 0:
            continue
        target = Target.backlog(net.flows[0].path[-1], [0])
        obj = _objective_tree(ctx, target, arcs=False)
        greedy = two_stage_bound(net, removed, target).value
        labels = td_labels(ctx.ff)
        index = {lab: pos for pos, lab in enumerate(labels)}
        arcs = ag_labels(ctx.ff.removed)
        arc_pos = {a: i for i, a in enumerate(arcs)}
        groups = [
            (arc_pos[a], [index[ctx.ff.split_flows[s].label] for s in ctx.groups.continuations[a]])
            for a in arcs if ctx.groups.continuations[a]
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


def test_two_stage_matches_ag_when_td_diverges():
    net = uni_ring(10, 0.8)
    removed = removal_tree(net)
    target = Target.backlog(9, [0])
    ts = two_stage_bound(net, removed, target)
    ag = analyze(net, "ag", target=target, removed=removed).bound
    assert not is_stable(net, "td")
    assert ts.value == pytest.approx(ag.value, rel=1e-9)


def test_grouped_extremes_match_td_and_ag(rng):
    from netcalc import build_grouped

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
    from netcalc import build_grouped

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
    # removing only the big back arc leaves server 2 with two successors
    with pytest.raises(NotAForestError):
        build_td(net, frozenset({(3, 1)}))


def _overloaded(net, j):
    # net with server j too slow for the flows crossing it
    load = sum(f.arrival.rate for f in net.flows if j in f.path)
    servers = list(net.servers)
    servers[j] = RateLatency(0.5 * load, servers[j].latency)
    return Network(tuple(servers), net.flows)


def _view_fields(view):
    p = view.prepared
    return (p.net, p.succ, p.preds, p.root, p.new_to_old, p.sink_tree,
            p.unstable_servers, view.origin_flow, view.origin_server)


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
    return renumber(Network(tuple(net.servers[j] for j in sorted(keep)), tuple(flows)))


def test_context_views_equal_public_upstream_views(rng):
    # a context slices its views from the forest checked once; they must be
    # the views the public upstream_view builds and checks on its own
    nets = [uni_ring(6, 0.5), bi_ring(5, 0.4), three_ring(0.3), toy()]
    nets += [random_uni_ring(rng) for _ in range(30)]
    # server 3's views in bi_ring(5) hold servers (2, 3): view ids are not forest ids
    nets += [_overloaded(uni_ring(5, 0.4), 4), _overloaded(bi_ring(5, 0.4), 3)]
    unstable_views = 0
    for net in nets:
        ctx = _context(net, removal_tree(net))
        for j1 in range(ctx.forest.num_servers):
            view = ctx.view(j1)
            assert _view_fields(view) == _view_fields(upstream_view(ctx.forest, j1))
            renamed, old_to_new = _renumbered_clip(ctx.forest, j1)
            assert view.prepared.net == renamed
            assert [view.prepared.new_to_old[new] for new in old_to_new] == list(range(len(old_to_new)))
            unstable_views += bool(view.prepared.unstable_servers)
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
    monkeypatch.setattr(_Forest, "view", counted("view", _Forest.view))
    is_stable(bi_ring(10, 0.5), "td")
    assert counts["view"] > 1
    assert all(counts[name] <= 1 for name in checks), counts


def test_critical_utilization_edge_cases():
    # stable on the whole range: return the top of the range
    assert critical_utilization(lambda u: two_server_sink_tree(), "td") == 1.0
    with pytest.raises(ValidationError):
        critical_utilization(lambda u: two_server_sink_tree(), "td", u_min=0.5, u_max=0.2)
