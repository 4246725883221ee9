import io
import math

import numpy as np
import pytest

from netcalc import (
    Flow,
    Network,
    NotATreeError,
    OracleSizeError,
    RateLatency,
    ScenarioError,
    TokenBucket,
    bruteforce_backlog,
    backlog_bound,
    check_arrival_curves,
    check_strict_service,
    discretization_slack,
    greedy_scenario,
    random_scenario,
    simulate_fluid,
    tree_backlog,
    worst_case_periods,
    worst_case_scenario,
)
from netcalc.fluid import ArrivalSpec, Scenario, ServerSpec, default_dt
from netcalc.topologies import two_server_sink_tree, uni_ring

from conftest import random_tandem, random_tree


def test_single_server_equals_closed_form():
    net = Network((RateLatency(2, 1),), (Flow(TokenBucket(1, 1), (0,)),))
    assert bruteforce_backlog(net, [0]) == pytest.approx(2.0, abs=1e-12)
    cross = Network(
        (RateLatency(4, 1),),
        (Flow(TokenBucket(1, 1), (0,)), Flow(TokenBucket(2, 2), (0,))),
    )
    # b* + r*(T + (b^c + r^c T)/(R - r^c))
    assert bruteforce_backlog(cross, [0]) == pytest.approx(1 + 1 * (1 + 4 / 2), abs=1e-12)


def test_two_server_sink_tree_regression_value():
    assert bruteforce_backlog(two_server_sink_tree(), [0]) == pytest.approx(11 / 3, abs=1e-12)


def test_oracle_rejects_large_and_non_tandem():
    big = random_tandem(np.random.default_rng(0), n=9, m=3)
    with pytest.raises(OracleSizeError):
        bruteforce_backlog(big, [0])
    with pytest.raises(NotATreeError):
        bruteforce_backlog(uni_ring(3, 0.5), [0])


def test_worst_case_periods_cover_busy_periods(rng):
    net = two_server_sink_tree()
    value, deltas = worst_case_periods(net, [0])
    assert value == pytest.approx(11 / 3, abs=1e-12)
    assert deltas == pytest.approx([1.0, 5 / 3], abs=1e-12)


def test_simulate_greedy_single_server():
    net = Network((RateLatency(2, 0.01),), (Flow(TokenBucket(1, 1), (0,)),))
    traj = simulate_fluid(net, greedy_scenario(net, 0.05), dt=1e-4)
    expected = backlog_bound(TokenBucket(1, 1), RateLatency(2, 0.01)).value
    assert traj.max_backlog(0) <= expected + discretization_slack(net, 1e-4)
    assert traj.max_backlog(0) >= expected - discretization_slack(net, 1e-4)
    assert check_arrival_curves(traj)
    assert check_strict_service(traj)


def test_simulate_infinite_servers_no_backlog():
    net = two_server_sink_tree()
    scenario = Scenario(
        tuple(ArrivalSpec("greedy") for _ in net.flows),
        tuple(ServerSpec("infinite") for _ in net.servers),
        horizon=3.0,
    )
    traj = simulate_fluid(net, scenario, dt=1e-3)
    assert traj.max_backlog(0) == pytest.approx(0.0, abs=1e-9)
    assert traj.max_backlog(1) == pytest.approx(0.0, abs=1e-9)


def test_simulate_validates_scenario():
    net = two_server_sink_tree()
    with pytest.raises(ScenarioError):
        simulate_fluid(uni_ring(3, 0.5), greedy_scenario(uni_ring(3, 0.5), 1.0))
    with pytest.raises(ScenarioError):
        simulate_fluid(net, Scenario((ArrivalSpec(),), (ServerSpec(),), 1.0))
    with pytest.raises(ScenarioError):
        ArrivalSpec("burst")
    with pytest.raises(ScenarioError):
        ServerSpec("window")


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_simulate_rejects_non_finite_or_non_positive_dt_and_horizon(bad):
    net = two_server_sink_tree()
    with pytest.raises(ScenarioError, match="horizon must be finite and positive"):
        greedy_scenario(net, bad)
    with pytest.raises(ScenarioError, match="horizon must be finite and positive"):
        simulate_fluid(net, greedy_scenario(net, 1.0), dt=0.01, horizon=bad)
    with pytest.raises(ScenarioError, match="dt must be finite and positive"):
        simulate_fluid(net, greedy_scenario(net, 1.0), dt=bad)


def test_random_scenarios_sound_on_trees(rng):
    for seed in range(25):
        net = random_tree(rng, n=4, m=3)
        root = net.num_servers - 1
        interest = [i for i, f in enumerate(net.flows) if f.path[-1] == root]
        bound = tree_backlog(net, interest).value.value
        dt = max(default_dt(net), 2e-3)
        traj = simulate_fluid(net, random_scenario(net, 4.0, seed), dt=dt)
        slack = discretization_slack(net, dt)
        assert traj.max_backlog(root, interest) <= bound + slack
        assert check_arrival_curves(traj)
        assert check_strict_service(traj)


def test_worst_case_scenario_reaches_bound(rng):
    for _ in range(8):
        net = random_tandem(rng, n=3, m=4)
        root = net.num_servers - 1
        interest = [i for i, f in enumerate(net.flows) if f.path[-1] == root][:2]
        if not interest:
            continue
        target = bruteforce_backlog(net, interest)
        scenario = worst_case_scenario(net, interest)
        dt = min(s.latency for s in net.servers) / 50 or 1e-3
        traj = simulate_fluid(net, scenario, dt=dt)
        observed = traj.max_backlog(root, interest)
        slack = discretization_slack(net, dt)
        assert observed <= target + slack
        assert observed >= target - slack
        assert check_arrival_curves(traj)
        assert check_strict_service(traj)


def test_worst_case_flushes_interest(rng):
    # at the end of a window no interest data remains queued upstream
    net = two_server_sink_tree()
    scenario = worst_case_scenario(net, [0])
    traj = simulate_fluid(net, scenario, dt=1e-3)
    end0 = scenario.servers[0].window[1]
    k = int(round(end0 / 1e-3)) + 1
    assert traj.backlog(0, [0])[k] == pytest.approx(0.0, abs=1e-9)


def test_trajectory_csv_dump():
    net = Network((RateLatency(2, 0.01),), (Flow(TokenBucket(1, 1), (0,)),))
    traj = simulate_fluid(net, greedy_scenario(net, 0.02), dt=1e-2)
    out = io.StringIO()
    traj.to_csv(out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "t,flow,server,A,B"
    assert len(lines) == 1 + len(traj.times)
    cells = lines[1].split(",")
    assert len(cells) == 5
