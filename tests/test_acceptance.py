"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime.

Criterion 5's tree-decomposition check asserts its required window
verbatim even though the pinned ring family mathematically yields
U* = 0.6475 (confirmed by two independent spectral routes and by the
case-enumeration oracle at the recursion-row level), which lies outside
that window; the check documents the discrepancy and stays red.
"""

import time

import numpy as np

from netcalc import (
    Flow,
    Network,
    RateLatency,
    Target,
    TokenBucket,
    analyze,
    bruteforce_backlog,
    backlog_bound,
    busy_period_bound,
    critical_utilization,
    discretization_slack,
    group_backlog_bound,
    random_scenario,
    simulate_fluid,
    solve_recursion,
    tree_backlog,
    tree_delay,
    worst_case_scenario,
)
from netcalc.decomposition import decompose, group_by_arc, removal_tree
from netcalc.stability import _method_recursions, is_stable
from netcalc.topologies import bi_ring, two_server_sink_tree, three_ring, toy, uni_ring

from conftest import random_tandem, random_tree, random_uni_ring


class _Criterion:
    def __init__(self, number, budget_s, description):
        self.number = number
        self.budget = budget_s
        self.description = description
        self.start = time.perf_counter()

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok else "FAIL"
        print(
            "ACCEPTANCE %2d: %s (%.1fs/%ds) %s %s"
            % (self.number, status, elapsed, self.budget, self.description, detail)
        )
        assert elapsed < self.budget, "criterion %d exceeded its runtime budget" % self.number
        return ok


def test_criterion_1_closed_form_fidelity():
    crit = _Criterion(1, 1, "closed-form backlog/busy-period/group/delay formulas at 1e-12")
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(200):
        b, r = rng.uniform(0, 5), rng.uniform(0, 3)
        T = rng.uniform(0, 2)
        R = r + rng.uniform(0.01, 4)
        got = backlog_bound(TokenBucket(b, r), RateLatency(R, T)).value
        ok &= abs(got - (b + r * T)) <= 1e-12
        got = busy_period_bound(TokenBucket(b, r), RateLatency(R, T)).value
        ok &= abs(got - (b + R * T) / (R - r)) <= 1e-12
        b2, r2 = rng.uniform(0, 5), rng.uniform(0, 3)
        beta = RateLatency(r + r2 + rng.uniform(0.01, 4), T)
        got = group_backlog_bound(
            [TokenBucket(b, r)], [TokenBucket(b2, r2)], beta
        ).value
        expected = b + r / (beta.rate - r2) * (b2 + r2 * T) + r * T
        ok &= abs(got - expected) <= 1e-12
        # two-server sink tree: exact delay formula and its dominance
        r = rng.uniform(0.05, 2)
        R = r + rng.uniform(0.01, 4)
        b, T = rng.uniform(0.05, 4), rng.uniform(0, 2)
        d2 = 2 * T + b / R + (b + r * T) / (2 * R - r)
        d1 = 2 * T + (2 * b + r * T) / R
        got = float(tree_delay(two_server_sink_tree(burst=b, rate=r, service_rate=R, latency=T), 0))
        ok &= abs(got - d2) <= 1e-12
        ok &= d2 < d1
    assert crit.finish(ok)


def test_criterion_2_two_server_sink_tree_coefficients():
    crit = _Criterion(2, 1, "xi coefficients of the two-server sink tree, 50 random (r, R)")
    rng = np.random.default_rng(202)
    ok = True
    from netcalc import compute_xi

    for _ in range(50):
        r = float(rng.uniform(0.05, 5))
        R = float(r + rng.uniform(0.01, 5))
        net = two_server_sink_tree(burst=float(rng.uniform(0.1, 3)), rate=r, service_rate=R,
                   latency=float(rng.uniform(0, 2)))
        table = compute_xi(net, [0])
        ok &= abs(table.xi[(1, 1)] - r / (2 * R - r)) <= 1e-12
        ok &= abs(table.xi[(0, 1)] - r / R) <= 1e-12
    assert crit.finish(ok)


def test_criterion_3_oracle_equivalence():
    crit = _Criterion(3, 30, "tree computation equals case enumeration on 200 random tandems")
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(200):
        net = random_tandem(rng, n=int(rng.integers(2, 7)), m=int(rng.integers(2, 9)))
        root = net.num_servers - 1
        candidates = [i for i, f in enumerate(net.flows) if f.path[-1] == root]
        size = int(rng.integers(1, len(candidates) + 1))
        interest = [int(i) for i in rng.choice(candidates, size=size, replace=False)]
        a = tree_backlog(net, interest).value.value
        b = bruteforce_backlog(net, interest)
        ok &= abs(a - b) <= 1e-9 * max(1.0, abs(b))
    assert crit.finish(ok)


def _controlled_tandem(rng, n, m):
    paths = [tuple(range(n))]
    for _ in range(m - 1):
        a = int(rng.integers(0, n))
        b = int(rng.integers(a, n))
        paths.append(tuple(range(a, b + 1)))
    rates = rng.uniform(0.2, 1.0, m)
    flows = [
        Flow(TokenBucket(float(rng.uniform(0.2, 2.0)), float(rates[i])), paths[i])
        for i in range(m)
    ]
    servers = []
    for j in range(n):
        local = sum(rates[i] for i in range(m) if j in paths[i])
        servers.append(
            RateLatency(float(local * (1.3 + rng.uniform(0, 0.7))),
                        float(rng.uniform(0.05, 0.4)))
        )
    return Network(tuple(servers), tuple(flows))


def test_criterion_4_simulation_soundness_and_tightness():
    crit = _Criterion(4, 120, "fluid runs below bounds; extremal scenario reaches them")
    rng = np.random.default_rng(404)
    ok = True
    for seed in range(100):
        net = random_tree(rng, n=int(rng.integers(2, 5)), m=int(rng.integers(2, 5)))
        root = net.num_servers - 1
        interest = [i for i, f in enumerate(net.flows) if f.path[-1] == root]
        bound = tree_backlog(net, interest).value.value
        dt = 2.5e-3
        traj = simulate_fluid(net, random_scenario(net, 3.0, seed), dt=dt)
        ok &= traj.max_backlog(root, interest) <= bound + discretization_slack(net, dt)
    for _ in range(20):
        net = _controlled_tandem(rng, n=int(rng.integers(2, 5)), m=int(rng.integers(2, 5)))
        root = net.num_servers - 1
        candidates = [i for i, f in enumerate(net.flows) if f.path[-1] == root]
        interest = candidates[: max(1, len(candidates) // 2)]
        target = bruteforce_backlog(net, interest)
        scenario = worst_case_scenario(net, interest)
        dt = max(min(s.latency for s in net.servers) / 50, scenario.horizon / 3000)
        traj = simulate_fluid(net, scenario, dt=dt)
        observed = traj.max_backlog(root, interest)
        slack = discretization_slack(net, dt)
        ok &= (observed <= target + slack) and (observed >= target - slack)
    assert crit.finish(ok)


def test_criterion_5_uni_ring_sd_threshold():
    crit = _Criterion(5, 60, "uni-ring n=10 server-decomposition threshold 0.18 +/- 0.02")
    u = critical_utilization(lambda x: uni_ring(10, x), "sd")
    assert crit.finish(abs(u - 0.18) <= 0.02, "(measured %.4f)" % u)


def test_criterion_5_uni_ring_td_threshold():
    crit = _Criterion(5, 60, "uni-ring n=10 tree-decomposition threshold 0.62 +/- 0.02")
    u = critical_utilization(lambda x: uni_ring(10, x), "td")
    # The pinned family provably crosses instability at 0.6475: the window
    # below cannot be met; kept verbatim, expected to stay red.
    assert crit.finish(abs(u - 0.62) <= 0.02, "(measured %.4f)" % u)


def test_criterion_5_uni_ring_ag_stable_throughout():
    crit = _Criterion(5, 60, "uni-ring n=10 arc grouping stable at every tested U <= 0.99")
    ok = all(
        is_stable(uni_ring(10, u), "ag")
        for u in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
    )
    assert crit.finish(ok)


def test_criterion_6_ring_stability_property():
    crit = _Criterion(6, 60, "100 random locally stable rings all stable under arc grouping")
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(100):
        net = random_uni_ring(rng, n=int(rng.integers(3, 9)))
        report = analyze(net, "ag", target=Target.backlog(net.num_servers - 1, [0]))
        ok &= report.stable and report.bound.is_finite
    assert crit.finish(ok)


def test_criterion_7_bidirectional_ring():
    crit = _Criterion(7, 60, "bi-ring n=10: SD 0.19 +/- 0.02, TD 0.24 +/- 0.02, AG radius >= 1")
    fam = lambda x: bi_ring(10, x)
    sd = critical_utilization(fam, "sd")
    td = critical_utilization(fam, "td")
    ok = abs(sd - 0.19) <= 0.02 and abs(td - 0.24) <= 0.02
    for u in (0.1, 0.5):
        net = bi_ring(10, u)
        ok &= analyze(net, "ag").rho >= 1.0 - 1e-6
    assert crit.finish(ok, "(SD %.4f TD %.4f)" % (sd, td))


def test_criterion_8_ratio_trends():
    crit = _Criterion(8, 300, "TD/SD threshold ratio grows with ring size; bi-ring ratio at n=30")
    ratios = []
    for n in range(3, 31):
        fam = lambda x, n=n: uni_ring(n, x)
        ratios.append(critical_utilization(fam, "td") / critical_utilization(fam, "sd"))
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    fam = lambda x: bi_ring(30, x)
    bi_ratio = critical_utilization(fam, "td") / critical_utilization(fam, "sd")
    ok = increasing and 1.25 <= bi_ratio <= 1.42
    assert crit.finish(ok, "(bi-ring ratio %.3f)" % bi_ratio)


def test_criterion_9_dominance():
    crit = _Criterion(9, 120, "TD <= SD, two-stage <= min(TD, AG), greedy beats sampling")
    rng = np.random.default_rng(909)
    ok = True

    def instance():
        kind = rng.integers(0, 3)
        u = float(rng.uniform(0.05, 0.16))
        if kind == 0:
            return uni_ring(int(rng.integers(3, 7)), u)
        if kind == 1:
            return bi_ring(int(rng.integers(3, 5)), u)
        return toy(u)

    checked = 0
    while checked < 100:
        net = instance()
        target = Target.backlog(net.flows[0].path[-1], [0])
        removed = removal_tree(net)
        sd = analyze(net, "sd", target=target).bound
        td = analyze(net, "td", target=target, removed=removed).bound
        if not (sd.is_finite and td.is_finite):
            continue
        ok &= td.value <= sd.value + 1e-9
        ag = analyze(net, "ag", target=target, removed=removed).bound
        ts = analyze(net, "2s", target, removed).bound
        if ag.is_finite:
            ok &= ts.value <= min(td.value, ag.value) + 1e-9
        checked += 1

    sampled = 0
    while sampled < 20:
        net = instance()
        removed = removal_tree(net)
        dec, numbers, (lr_td, lr_ag), _ = _method_recursions(net, "2s", removed)
        b_star, big_b = solve_recursion(lr_td), solve_recursion(lr_ag)
        if b_star is None or big_b is None or lr_td.size == 0:
            continue
        target = Target.backlog(net.flows[0].path[-1], [0])
        obj = dec.objective(numbers, target)
        greedy = analyze(net, "2s", target, removed).bound.value
        index = {lab: pos for pos, lab in enumerate(lr_td.labels)}
        arcs = lr_ag.labels
        split = decompose(net, removed)
        continuations = group_by_arc(split).continuations
        groups = [
            (i, [index[split[s].label] for s in continuations[a]])
            for i, a in enumerate(arcs)
            if continuations[a]
        ]
        points = rng.uniform(0, 1, (10**4, lr_td.size)) * b_star
        for a_i, members in groups:
            total = points[:, members].sum(axis=1)
            scale = np.minimum(1.0, np.divide(
                big_b[a_i], total, out=np.ones_like(total), where=total > 0))
            points[:, members] *= scale[:, None]
        values = points @ obj.Q + obj.C
        ok &= bool((values <= greedy + 1e-9).all())
        sampled += 1
    assert crit.finish(ok)


def test_criterion_10_three_ring_ordering():
    crit = _Criterion(10, 300, "three-ring thresholds ordered SD < TD <= AG")
    sd = critical_utilization(lambda u: three_ring(u), "sd")
    td = critical_utilization(lambda u: three_ring(u), "td")
    ag = critical_utilization(lambda u: three_ring(u), "ag")
    detail = "(SD %.3f TD %.3f AG %.3f; values are informational, ordering is binding)" % (sd, td, ag)
    assert crit.finish(sd < td <= ag, detail)
