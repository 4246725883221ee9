import dataclasses
import io
import itertools
import math
import re

import numpy as np
import pytest

from netcalc import (
    Flow,
    InterestNotAtRootError,
    LocallyUnstableError,
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
from netcalc.fluid import (
    MAX_GRID_STEPS,
    ArrivalSpec,
    Scenario,
    ServerSpec,
    Trajectory,
    default_dt,
)
from netcalc.oracle import MAX_ORACLE_SERVERS, _bruteforce, _require_margins
from netcalc.topologies import two_server_sink_tree, uni_ring

import fluid_reference
import oracle_reference
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
    # shape, then size, then local stability
    def slow(net):
        return Network(tuple(RateLatency(0.01, 1.0) for _ in net.servers), net.flows)

    with pytest.raises(NotATreeError):
        bruteforce_backlog(slow(uni_ring(3, 0.5)), [0])
    with pytest.raises(OracleSizeError):
        bruteforce_backlog(slow(big), [0])
    with pytest.raises(LocallyUnstableError, match="not strictly stable"):
        bruteforce_backlog(slow(random_tandem(np.random.default_rng(0), n=3, m=3)), [0])


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


def test_check_arrival_curves_rejects_a_broken_token_bucket():
    net = two_server_sink_tree()
    traj = simulate_fluid(net, greedy_scenario(net, 0.05), dt=1e-3)
    assert check_arrival_curves(traj)
    traj.cum_in[(0, 0)][5:] += 10.0  # a jump of 10 beyond the burst of flow 0
    assert not check_arrival_curves(traj)


def test_check_strict_service_skips_a_server_no_flow_crosses():
    net = Network((RateLatency(2, 0.01), RateLatency(1, 0.5)), (Flow(TokenBucket(1, 1), (0,)),))
    traj = simulate_fluid(net, greedy_scenario(net, 0.05), dt=1e-3)
    assert traj._positions_at(1) == []
    assert check_strict_service(traj)


def test_simulate_empty_window_servers_no_backlog():
    # an empty window serves everything at once, on a grid point or off it
    net = two_server_sink_tree()
    for window in ((0.0, 0.0), (0.5, 0.5), (0.0105, 0.0105)):
        scenario = Scenario(
            tuple(ArrivalSpec("greedy") for _ in net.flows),
            tuple(ServerSpec(window) for _ in net.servers),
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
    with pytest.raises(ScenarioError, match=r"^unknown arrival kind \('a', 'b'\)$"):
        ArrivalSpec(("a", "b"))
    # a server's window is its mode: every old mode string is refused as a window
    for mode in ("exact", "window", "infinite", "bogus"):
        with pytest.raises(ScenarioError, match="^window start must be finite and at most its "
                                                "end, got '%s'$" % mode):
            ServerSpec(mode)


@pytest.mark.parametrize("seed", [-1, -3, 1.5, True, None, "1"])
def test_a_random_seed_is_a_nonnegative_integer(seed):
    net = two_server_sink_tree()
    refused = "^random seed must be a nonnegative integer, got %s$" % re.escape(repr(seed))
    with pytest.raises(ScenarioError, match=refused):
        random_scenario(net, 1.0, seed)
    with pytest.raises(ScenarioError, match=refused):
        ArrivalSpec("random", seed=seed)
    # numpy integers are seeds too; greedy and silent arrivals take none
    assert random_scenario(net, 1.0, np.int64(3)) == random_scenario(net, 1.0, 3)
    assert ArrivalSpec("random", seed=np.uint8(0)).seed == 0
    assert ArrivalSpec("greedy").seed is ArrivalSpec("none").seed is None


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, True, False, np.True_, "1", [1.0], None,
                                 10**400])
def test_simulate_rejects_non_finite_or_non_positive_dt_and_horizon(bad):
    # a bool, numpy's too, or anything but a real number is refused as well
    net = two_server_sink_tree()
    shown = re.escape(repr(bad))
    with pytest.raises(ScenarioError, match="^horizon must be finite and positive, got %s$" % shown):
        greedy_scenario(net, bad)
    if bad is not None:  # dt=None asks for the default step
        with pytest.raises(ScenarioError, match="^dt must be finite and positive, got %s$" % shown):
            simulate_fluid(net, greedy_scenario(net, 1.0), dt=bad)


def test_simulate_takes_numpy_numbers_for_dt_and_horizon():
    net = two_server_sink_tree()
    plain = simulate_fluid(net, greedy_scenario(net, 1.0), dt=0.01)
    for dt, horizon in ((np.float64(0.01), np.float64(1.0)), (np.float64(0.01), np.int64(1))):
        assert _same_trajectory(simulate_fluid(net, greedy_scenario(net, horizon), dt=dt), plain)


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


def test_a_trajectory_refuses_a_server_or_flow_it_does_not_hold():
    net = two_server_sink_tree()  # flow 0 crosses servers 0 and 1, flow 1 only server 1
    traj = simulate_fluid(net, greedy_scenario(net, 3.0), dt=1e-3)
    for server in (7, -1, True, 1.0, "1"):
        with pytest.raises(ScenarioError, match="^unknown server %s$" % re.escape(repr(server))):
            traj.max_backlog(server)
    for flows, bad in (([5], 5), ([-1], -1), ([0, True], True), ([1, 1.0], 1.0)):
        with pytest.raises(ScenarioError, match="^unknown flow id %s$" % re.escape(repr(bad))):
            traj.max_backlog(1, flows)
    # numpy ids are ids; a flow that misses the server adds nothing
    assert traj.max_backlog(np.int64(1), [np.int64(0), 1]) == traj.max_backlog(1) > 0
    assert traj.max_backlog(0, [1]) == 0.0
    assert traj.max_backlog(0, [0, 1]) == traj.max_backlog(0) > 0


# ---------------------------------------------------------------- references


def _mixed_scenario(rng, net, horizon):
    """
    Every arrival kind, and servers with no window, an empty window or a
    window, with partial shuffled priorities.
    """
    arrivals = []
    for _ in net.flows:
        kind = ("greedy", "random", "none")[int(rng.integers(3))]
        start = float(rng.uniform(0, horizon / 2)) if kind == "greedy" else 0.0
        arrivals.append(ArrivalSpec(kind, start=start, seed=int(rng.integers(2**31))))
    servers = []
    for _ in net.servers:
        mode = ("exact", "empty window", "window")[int(rng.integers(3))]
        start = float(rng.uniform(0, horizon / 2))
        end = math.inf if rng.random() < 0.25 else start + float(rng.uniform(0, horizon / 2))
        ranked = rng.permutation(net.num_flows)[: int(rng.integers(net.num_flows + 1))]
        window = {"exact": None, "empty window": (start, start), "window": (start, end)}[mode]
        servers.append(ServerSpec(window, tuple(int(i) for i in ranked)))
    return Scenario(tuple(arrivals), tuple(servers), horizon)


def _same_trajectory(a, b):
    return (
        np.array_equal(a.times, b.times)
        and a.dt == b.dt
        and list(a.cum_in) == list(b.cum_in)
        and list(a.cum_out) == list(b.cum_out)
        and all(np.array_equal(a.cum_in[key], b.cum_in[key]) for key in a.cum_in)
        and all(np.array_equal(a.cum_out[key], b.cum_out[key]) for key in a.cum_out)
    )


SCENARIO_KINDS = ("greedy", "random", "none", "mixed", "worst_case")


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_simulate_fluid_matches_reference(kind):
    rng = np.random.default_rng(SCENARIO_KINDS.index(kind))
    horizon = 2.0
    for trial in range(12):
        net = random_tree(rng) if trial % 2 else random_tandem(rng)
        if kind == "greedy":
            scenario = greedy_scenario(net, horizon)
        elif kind == "random":
            scenario = random_scenario(net, horizon, trial)
        elif kind == "none":
            base = random_scenario(net, horizon, trial)  # exact servers, shuffled priorities
            scenario = Scenario(tuple(ArrivalSpec("none") for _ in net.flows), base.servers, horizon)
        elif kind == "mixed":
            scenario = _mixed_scenario(rng, net, horizon)
        else:
            if trial % 2:
                continue  # the extremal scenario is built on tandems
            scenario = worst_case_scenario(net, [0])
        dt = scenario.horizon / 300
        expected = fluid_reference.simulate_fluid(net, scenario, dt=dt)
        assert _same_trajectory(simulate_fluid(net, scenario, dt=dt), expected), trial


def _grid_edge_cases(rng):
    """
    ``(name, net, scenario, dt, horizon)`` runs whose injection streams or
    windows sit on the edges of the grid: greedy starts below 0, on a grid
    point and at or after the horizon, horizon overrides shorter and longer
    than the scenario's, windows ending on a grid point, between grid
    points, at the horizon and past it or past the grid, empty windows on
    and off a grid point, and networks where one flow alone injects.
    """
    horizon, dt = 2.0, 2.0 / 300
    for trial in range(6):
        net = random_tree(rng) if trial % 2 else random_tandem(rng)
        servers = random_scenario(net, horizon, trial).servers
        for name, start in (("below 0", -0.3), ("on a grid point", 37 * dt),
                            ("at the horizon", horizon), ("after the horizon", horizon + 1.0)):
            arrivals = tuple(ArrivalSpec("greedy", start=start if i == 0 else 0.1 * i)
                             for i in range(net.num_flows))
            yield "start " + name, net, Scenario(arrivals, servers, horizon), dt, None
        mixed = _mixed_scenario(rng, net, horizon)
        yield "shorter horizon", net, mixed, dt, 0.6 * horizon
        yield "longer horizon", net, mixed, dt, 1.7 * horizon
        windows = tuple(
            ServerSpec((int(rng.integers(0, 100)) * dt, int(rng.integers(100, 250)) * dt),
                       spec.priority)
            for spec in servers
        )
        greedy = greedy_scenario(net, horizon).arrivals
        yield "window ends on a grid point", net, Scenario(greedy, windows, horizon), dt, None
        ks = rng.integers(0, 100, net.num_servers).tolist()
        for name, window in (
            ("empty window on a grid point", lambda k: (k * dt, k * dt)),
            ("empty window off the grid", lambda k: ((k + 0.5) * dt,) * 2),
            ("window ends between grid points", lambda k: (k * dt, (k + 100.5) * dt)),
            ("window ends at the horizon", lambda k: (k * dt, horizon)),
            ("window ends past the horizon", lambda k: (k * dt, horizon + 0.5 * dt)),
            ("window ends past the grid", lambda k: ((k + 0.5) * dt, horizon + 5 * dt)),
        ):
            specs = tuple(ServerSpec(window(k), spec.priority) for k, spec in zip(ks, servers))
            yield name, net, Scenario(greedy, specs, horizon), dt, None
        for kind in ("greedy", "random"):
            arrivals = tuple(ArrivalSpec(kind if i == trial % net.num_flows else "none", seed=trial)
                             for i in range(net.num_flows))
            yield "one %s flow" % kind, net, Scenario(arrivals, servers, horizon), dt, None


def test_simulate_fluid_matches_reference_on_grid_edges():
    for case, (name, net, scenario, dt, horizon) in enumerate(
        _grid_edge_cases(np.random.default_rng(41))
    ):
        if horizon is not None:
            scenario = dataclasses.replace(scenario, horizon=horizon)
        expected = fluid_reference.simulate_fluid(net, scenario, dt=dt)
        traj = simulate_fluid(net, scenario, dt=dt)
        assert _same_trajectory(traj, expected), (case, name)


def test_simulate_rejects_oversized_grid():
    net = two_server_sink_tree()
    for dt, horizon in ((5e-324, None), (1e-300, 1e10), (10.0 / MAX_GRID_STEPS, None)):
        with pytest.raises(ScenarioError, match="needs more than %d grid steps" % MAX_GRID_STEPS):
            simulate_fluid(net, greedy_scenario(net, horizon or 10.0), dt=dt)


def test_simulate_fluid_cumulative_rows_are_views_of_one_array():
    net = random_tree(np.random.default_rng(5), n=4, m=3)
    traj = simulate_fluid(net, random_scenario(net, 1.0, 5), dt=1e-2)
    rows = list(traj.cum_in.values())
    assert all(row.base is rows[0].base for row in rows)
    assert rows[0].base.shape == (len(rows), len(traj.times))


def _service_check_inputs(rng):
    """
    Simulated trajectories (random, mixed and extremal scenarios), the same
    with one server's departures held back a few grid steps or its curve
    made faster than simulated (both break strict service), trajectories
    of random arrays with many short backlogged periods, and one-server
    trajectories whose departures drift around the service rate, in
    backlogged periods often one idle grid point apart.
    """
    trajs = []
    for trial in range(16):
        net = random_tree(rng) if trial % 2 else random_tandem(rng)
        if trial % 3 == 0:
            scenario = random_scenario(net, 2.0, trial)
        elif trial % 3 == 1:
            scenario = _mixed_scenario(rng, net, 2.0)
        else:  # the extremal scenario is built on tandems
            scenario = worst_case_scenario(net, [0]) if trial % 2 == 0 else greedy_scenario(net, 2.0)
        traj = simulate_fluid(net, scenario, dt=scenario.horizon / 200)
        trajs.append(traj)
        j = int(rng.integers(net.num_servers))
        lag = int(rng.integers(1, 20))
        held = dict(traj.cum_out)
        for i, p in traj._positions_at(j):
            out = traj.cum_out[(i, p)]
            held[(i, p)] = np.concatenate((np.zeros(lag), out[:-lag]))
        trajs.append(Trajectory(net, traj.times, traj.cum_in, held, traj.dt))
        faster = list(net.servers)
        faster[j] = RateLatency(2.0 * faster[j].rate, 0.5 * faster[j].latency)
        trajs.append(Trajectory(Network(faster, net.flows), traj.times, traj.cum_in,
                                traj.cum_out, traj.dt))
    for _ in range(16):
        net = random_tandem(rng, n=int(rng.integers(1, 4)))
        times = np.arange(301) * 0.01
        cum_in, cum_out = {}, {}
        for i, f in enumerate(net.flows):
            for p in range(len(f.path)):
                a = np.cumsum(rng.exponential(1.0, len(times)) * (rng.random(len(times)) < 0.3))
                queue = rng.exponential(1.0, len(times)) * (rng.random(len(times)) < 0.5)
                cum_in[(i, p)], cum_out[(i, p)] = a, a - queue
        trajs.append(Trajectory(net, times, cum_in, cum_out, 0.01))
    net = Network((RateLatency(1.0, 0.05),), (Flow(TokenBucket(1.0, 0.5), (0,)),))
    for _ in range(24):
        dt = 0.01
        times = np.arange(601) * dt
        runs = rng.random(len(times)) < rng.uniform(0.6, 0.95)
        busy = np.repeat(runs, rng.integers(1, 4, len(times)))[: len(times)]
        served = np.where(busy, dt * rng.uniform(0.3, 1.2, len(times)), 0.0)
        cum_out = np.cumsum(served)
        queue = np.where(busy, 1.0, 0.0)
        trajs.append(Trajectory(net, times, {(0, 0): cum_out + queue}, {(0, 0): cum_out}, dt))
    return trajs


def test_check_strict_service_matches_reference_loop():
    verdicts = []
    for traj in _service_check_inputs(np.random.default_rng(17)):
        for tol in (None, 0.0):
            expected = fluid_reference.check_strict_service(traj, tol)
            assert check_strict_service(traj, tol) == expected
            verdicts.append(expected)
    assert 20 <= sum(verdicts) <= len(verdicts) - 20  # both answers well represented


def _zero_cross_tandem(n):
    """One spanning interest flow and zero-burst, zero-rate cross flows: every case ties."""
    servers = tuple(RateLatency(2.0 + j, 0.5) for j in range(n))
    flows = [Flow(TokenBucket(1.0, 1.0), tuple(range(n)))]
    flows += [Flow(TokenBucket(0.0, 0.0), tuple(range(j, n))) for j in range(n)]
    return Network(servers, tuple(flows))


@pytest.mark.parametrize("n", range(1, MAX_ORACLE_SERVERS + 1))
def test_bruteforce_matches_reference(n):
    rng = np.random.default_rng(100 + n)
    cases = [_zero_cross_tandem(n)]
    cases += [random_tandem(rng, n=n, m=int(rng.integers(2, 6))) for _ in range(3 if n < 8 else 1)]
    for net in cases:
        root = net.num_servers - 1
        ending = [i for i, f in enumerate(net.flows) if f.path[-1] == root]
        interests = [frozenset([0]), frozenset(ending[: max(1, len(ending) // 2)])]
        for interest in interests[: 1 if n == 8 else 2]:  # 8! scalar cases take a while
            value, periods = _bruteforce(net, interest)
            assert (value, periods) == oracle_reference._bruteforce(net, interest)


def _drain_tandem():
    """
    Server 0 carries cross rates 0.3, 0.2, 0.1 listed toward servers 2, 1,
    0: summed in flow order they stay below its rate, summed in destination
    order (the case scan's order) they reach it.
    """
    flows = (
        Flow(TokenBucket(1, 1e-20), (0, 1, 2)),
        Flow(TokenBucket(1, 0.3), (0, 1, 2)),
        Flow(TokenBucket(1, 0.2), (0, 1)),
        Flow(TokenBucket(1, 0.1), (0,)),
    )
    servers = (RateLatency(0.6000000000000001, 1), RateLatency(5, 1), RateLatency(5, 1))
    return Network(servers, flows)


def test_bruteforce_raises_as_reference_when_a_threshold_leaves_no_rate():
    net = _drain_tandem()
    for bruteforce in (oracle_reference._bruteforce, _bruteforce):
        with pytest.raises(LocallyUnstableError, match="^server 0 cannot drain its local traffic$"):
            bruteforce(net, frozenset([0]))
    # with the 0.3 flow of interest the cross rates never reach server 0's
    assert _bruteforce(net, frozenset([1])) == oracle_reference._bruteforce(net, frozenset([1]))


def test_margin_check_names_the_server_of_the_first_failing_case(rng):
    for _ in range(300):
        n = int(rng.integers(1, 6))
        # nonincreasing margins per server; about one threshold in four fails
        margins = [np.sort(rng.uniform(-1, 3, n - j))[::-1] for j in range(n)]
        expected = None
        for case in itertools.product(*(range(j, n) for j in range(n))):
            failing = [j for j in range(n) if margins[j][case[j] - j] <= 0]
            if failing:
                expected = "server %d cannot drain its local traffic" % failing[0]
                break
        if expected is None:
            _require_margins(margins)
        else:
            with pytest.raises(LocallyUnstableError, match="^%s$" % expected):
                _require_margins(margins)


# ------------------------------------------------------- scenario validation


@pytest.mark.parametrize("window", [(0.2, 0.1), (math.nan, 1.0), (0.1, math.nan),
                                    (-math.inf, 1.0), (math.inf, math.inf), (0.0, -math.inf),
                                    # no pair of real numbers, or a bool read as a time
                                    ("a", "b"), 5, (1.0,), (True, 2.0), (0.0, np.True_),
                                    (1.0, 2.0, 3.0), "ab", "exact", "window",
                                    # an integer too large for a float is no finite start
                                    (10**400, 10**401)])
def test_server_spec_rejects_malformed_window(window):
    refused = "^window start must be finite and at most its end, got %s$" % re.escape(repr(window))
    with pytest.raises(ScenarioError, match=refused):
        ServerSpec(window)


def test_server_spec_accepts_empty_and_open_ended_windows():
    assert ServerSpec((0.3, 0.3)).window == (0.3, 0.3)
    assert ServerSpec((0.3, math.inf)).window == (0.3, math.inf)
    assert ServerSpec((np.float64(0.3), np.int64(1))).window == (0.3, 1)


@pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf, True, "a", None, (1.0, 2.0),
                                   10**400])
def test_arrival_spec_rejects_non_finite_start(start):
    refused = "^arrival start must be finite, got %s$" % re.escape(repr(start))
    with pytest.raises(ScenarioError, match=refused):
        ArrivalSpec("greedy", start=start)


@pytest.mark.parametrize("priority", [(5, 0, 0), (0, 0), (1,), (-1,), (0, 1)])
def test_simulate_rejects_unknown_or_repeated_priority(priority):
    net = Network((RateLatency(2, 0.1),), (Flow(TokenBucket(1, 1), (0,)),))
    scenario = Scenario((ArrivalSpec(),), (ServerSpec(priority=priority),), 1.0)
    with pytest.raises(ScenarioError, match="server 0 priority"):
        simulate_fluid(net, scenario, dt=0.01)


@pytest.mark.parametrize("priority", [(0.5,), (0.0,), (True,), (1.0, 0), (1, False)],
                         ids=["half", "float_zero", "true", "float_one", "false"])
def test_simulate_rejects_a_priority_that_is_no_flow_id(priority):
    # a float or a bool names no flow, not even one equal to a flow id
    net = Network((RateLatency(4, 0.1),), (Flow(TokenBucket(1, 1), (0,)),) * 2)
    scenario = Scenario((ArrivalSpec(),) * 2, (ServerSpec(priority=priority),), 1.0)
    message = "server 0 priority %r must list distinct flows of 0..1" % (priority,)
    with pytest.raises(ScenarioError, match="^%s$" % re.escape(message)):
        simulate_fluid(net, scenario, dt=0.01)


def test_simulate_takes_numpy_priority_ids_as_flow_ids():
    net = Network((RateLatency(4, 0.1),), (Flow(TokenBucket(1, 1), (0,)),) * 2)
    runs = [simulate_fluid(net, Scenario((ArrivalSpec(),) * 2, (ServerSpec(priority=p),), 1.0),
                           dt=0.01) for p in ((1, 0), (np.int64(1), np.intp(0)))]
    assert runs[0].cum_out.keys() == runs[1].cum_out.keys()
    assert all(np.array_equal(runs[0].cum_out[key], runs[1].cum_out[key]) for key in runs[0].cum_out)


def _two_server_tandem():
    # flow 1 ends at server 0: it misses the root, server 1
    return Network(
        (RateLatency(3.0, 1.0), RateLatency(4.0, 1.0)),
        (Flow(TokenBucket(1, 1), (0, 1)), Flow(TokenBucket(1, 1), (0,))),
    )


@pytest.mark.parametrize("interest", [[7], [0, 5, -1], [1], [0, 1], [-1], [0, False], [0, 0.0]])
def test_oracle_refuses_the_interest_tree_backlog_refuses(interest):
    # an unknown flow or one that misses the last server: the tree analysis'
    # error, with its message, from both oracle entry points and the
    # extremal scenario; False and 0.0 after flow 0 are checked as given,
    # not folded into it
    net = _two_server_tandem()
    with pytest.raises(InterestNotAtRootError) as refused:
        tree_backlog(net, interest)
    message = "^%s$" % re.escape(str(refused.value))
    for call in (bruteforce_backlog, worst_case_periods, worst_case_scenario):
        with pytest.raises(InterestNotAtRootError, match=message):
            call(net, interest)


def test_oracle_refusal_names_the_flow_that_misses_the_root():
    net = _two_server_tandem()
    with pytest.raises(InterestNotAtRootError, match="^flow 1 does not cross server 1$"):
        bruteforce_backlog(net, [1])
    with pytest.raises(InterestNotAtRootError, match="^unknown flow id 7$"):
        worst_case_periods(net, [7])
    assert bruteforce_backlog(net, [0]) == pytest.approx(tree_backlog(net, [0]).value.value, rel=1e-12)
