import math

import numpy as np
import pytest

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
from netcalc.stability import is_stable, rho_below, td_labels
from netcalc.topologies import bi_ring, two_server_sink_tree, toy, uni_ring

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


def test_spectral_radius_examples():
    assert spectral_radius(np.array([[0.5]])) == pytest.approx(0.5, abs=1e-9)
    assert spectral_radius(np.array([[0.0, 0.5], [0.5, 0.0]])) == pytest.approx(0.5, abs=1e-9)
    assert spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-9)
    assert spectral_radius(np.zeros((0, 0))) == 0.0
    with pytest.raises(ValidationError):
        spectral_radius(np.array([[1.0, -0.1], [0.0, 0.5]]))
    with pytest.raises(ValidationError):
        spectral_radius(np.ones((2, 3)))


def test_spectral_radius_matches_eigvals(rng):
    for _ in range(40):
        L = int(rng.integers(1, 9))
        M = rng.uniform(0, 1, (L, L)) * (rng.random((L, L)) < 0.6)
        expected = float(max(abs(np.linalg.eigvals(M))))
        assert spectral_radius(M) == pytest.approx(expected, abs=1e-7)
        assert rho_below(M, 1.0) == (expected < 1.0)


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


def test_critical_utilization_edge_cases():
    # stable on the whole range: return the top of the range
    assert critical_utilization(lambda u: two_server_sink_tree(), "td") == 1.0
    with pytest.raises(ValidationError):
        critical_utilization(lambda u: two_server_sink_tree(), "td", u_min=0.5, u_max=0.2)
