#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
Discrete-time fluid simulation of feed-forward networks under strict
service guarantees.

The simulator is a soundness check for the analytical bounds: any
admissible scenario must stay below them (up to discretization slack),
and the reconstructed extremal scenario must reach them.  Fluid volumes
move on a uniform time grid.  A server's window is its service mode: with
none, it follows its minimal strict-service envelope in every backlogged
period; with one, it follows the envelope in that window only and serves
all queued data at once outside it, so the window ends with a flush.  An
empty window serves everything at once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .curves import TokenBucket, left_sum
from .errors import ScenarioError
from .network import Network, Topology, _check_id, _is_id, classify, induced_graph, topological_order
from .oracle import worst_case_periods

QUEUE_EPS = 1e-12
#: What :class:`ArrivalSpec` and :func:`random_scenario` raise on a seed that is no id.
_SEED_MESSAGE = "random seed must be a nonnegative integer, got %s"
#: Most grid steps one simulation may take: memory and run time grow with them.
MAX_GRID_STEPS = 10_000_000
#: Slack over the burst that :func:`check_arrival_curves` allows.
ARRIVAL_TOL = 1e-9


@dataclass(frozen=True)
class ArrivalSpec:
    """
    Arrival process of one flow.

    * ``greedy``: nothing before ``start``, then the full burst followed by
      the token-bucket rate (the maximal admissible process from ``start``).
    * ``random``: a seeded random admissible process (token-bucket gated);
      its ``seed`` is a nonnegative integer.
    * ``none``: the flow stays silent.
    """

    kind: str = "greedy"
    start: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("greedy", "random", "none"):
            raise ScenarioError("unknown arrival kind %r" % (self.kind,))
        if not (_is_real(self.start) and math.isfinite(self.start)):
            raise ScenarioError("arrival start must be finite, got %r" % (self.start,))
        if self.kind == "random":
            _check_id(self.seed, math.inf, ScenarioError, _SEED_MESSAGE)


@dataclass(frozen=True)
class ServerSpec:
    """
    Service behaviour of one server; its window is its service mode.

    * ``window=None``: minimal strict service during every backlogged
      period.
    * ``window=(start, end)``: the minimal envelope, counted from
      ``start``, in every step that ends in ``[start, end)``, and all
      queued data at once in every other step, so the step that reaches
      ``end`` flushes the queue.  An empty window (``start == end``) serves
      all queued data at once in every step.

    ``priority`` orders the flows for service (first drained first);
    flows missing from it are appended in id order.  ``simulate_fluid``
    rejects a priority that repeats a flow or names anything but a flow id
    of the network: an integer (numpy's too, never a ``bool``) below its
    flow count.
    A window is a tuple of two real numbers (numpy's too, never a
    ``bool``): a finite start no later than its end, which may be infinite.
    A service-mode string is no window:

    >>> ServerSpec("exact")
    Traceback (most recent call last):
    ...
    netcalc.errors.ScenarioError: window start must be finite and at most its end, got 'exact'
    """

    window: Optional[Tuple[float, float]] = None
    priority: Tuple[int, ...] = ()

    def __post_init__(self):
        w = self.window
        if w is not None and not (isinstance(w, tuple) and len(w) == 2 and all(map(_is_real, w))
                                  and math.isfinite(w[0]) and w[0] <= w[1]):
            raise ScenarioError("window start must be finite and at most its end, got %r" % (w,))


def _is_real(value) -> bool:
    """Whether ``value`` is a real number (numpy's too), never a ``bool``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _require_positive(name: str, value: float) -> float:
    """``value`` when it is a finite positive real number (numpy's too), never a ``bool``."""
    if not (_is_real(value) and 0 < value < math.inf):
        raise ScenarioError("%s must be finite and positive, got %r" % (name, value))
    return value


@dataclass(frozen=True)
class Scenario:
    """Arrival and service behaviour for a whole network."""

    arrivals: Tuple[ArrivalSpec, ...]
    servers: Tuple[ServerSpec, ...]
    horizon: float

    def __post_init__(self):
        _require_positive("horizon", self.horizon)


def greedy_scenario(net: Network, horizon: float) -> Scenario:
    """All flows greedy from time 0, all servers on the exact envelope."""
    return Scenario(
        tuple(ArrivalSpec("greedy") for _ in net.flows),
        tuple(ServerSpec() for _ in net.servers),
        horizon,
    )


def random_scenario(net: Network, horizon: float, seed: int) -> Scenario:
    """Seeded random admissible arrivals, exact servers, shuffled priorities."""
    _check_id(seed, math.inf, ScenarioError, _SEED_MESSAGE)
    rng = np.random.default_rng(seed)
    arrivals = tuple(
        ArrivalSpec("random", start=0.0, seed=int(rng.integers(2**31)))
        for _ in net.flows
    )
    servers = []
    for _ in net.servers:
        order = rng.permutation(net.num_flows)
        servers.append(ServerSpec(priority=tuple(int(i) for i in order)))
    return Scenario(arrivals, tuple(servers), horizon)


def default_dt(net: Network) -> float:
    """Default grid step: a hundredth of the smallest latency, or 1 ms."""
    latencies = [s.latency for s in net.servers if s.latency > 0]
    return min(latencies) / 100.0 if latencies else 1e-3


def discretization_slack(net: Network, dt: float) -> float:
    """Backlog comparison slack: (sum of flow rates + max service rate) dt."""
    return (left_sum(f.arrival.rate for f in net.flows) + max(s.rate for s in net.servers)) * dt


@dataclass
class Trajectory:
    """
    Sampled cumulative processes of a simulation run.

    ``cum_in[i, p]`` and ``cum_out[i, p]`` give, per grid point, the data of
    flow ``i`` that entered/left its ``p``-th path server; backlogs are
    their differences at the grid points.  The keys come in flow order,
    then path order (the simulator's flat positions), and each value is a
    row view of one ``(positions, grid points)`` array per side.
    """

    net: Network
    times: np.ndarray
    cum_in: Dict[Tuple[int, int], np.ndarray]
    cum_out: Dict[Tuple[int, int], np.ndarray]
    dt: float

    def _positions_at(self, server: int) -> List[Tuple[int, int]]:
        return [(i, f.path.index(server)) for i, f in enumerate(self.net.flows) if server in f.path]

    def backlog(self, server: int, flows: Optional[Iterable[int]] = None) -> np.ndarray:
        """
        Backlog of the given flows (default: all) at ``server`` over time.

        :raises ScenarioError: when ``server`` or a flow of ``flows`` is no
            id of the network
        """
        _check_id(server, self.net.num_servers, ScenarioError, "unknown server %s")
        wanted = None if flows is None else list(flows)  # a set would read True as 1
        for i in wanted or ():
            _check_id(i, self.net.num_flows, ScenarioError, "unknown flow id %s")
        total = np.zeros_like(self.times)
        for i, p in self._positions_at(server):
            if wanted is None or i in wanted:
                total += self.cum_in[(i, p)] - self.cum_out[(i, p)]
        return total

    def max_backlog(self, server: int, flows: Optional[Iterable[int]] = None) -> float:
        """Largest observed backlog of the given flows at ``server``."""
        return float(self.backlog(server, flows).max())

    def to_csv(self, stream) -> None:
        """Dump cumulative arrivals/departures as ``t,flow,server,A,B`` rows."""
        stream.write("t,flow,server,A,B\n")
        for (i, p), cin in sorted(self.cum_in.items()):
            cout = self.cum_out[(i, p)]
            server = self.net.flows[i].path[p]
            for k, t in enumerate(self.times):
                stream.write(
                    "%.9g,%d,%d,%.9g,%.9g\n" % (t, i + 1, server + 1, cin[k], cout[k])
                )


def _injections(
    spec: ArrivalSpec, arrival: TokenBucket, grid: List[float], dt: float
) -> List[float]:
    """
    The amount a flow injects at each step of ``grid``, or ``[]`` for a
    silent flow.  Injections depend only on the flow's own spec, token
    bucket and uniforms, never on the network state, so the whole stream
    is one left fold ahead of the step loop.
    """
    steps = len(grid) - 1
    burst, rate = arrival.burst, arrival.rate
    amounts: List[float] = []
    if spec.kind == "greedy":
        start, injected = spec.start, 0.0
        for t_next in grid[1:]:
            target = 0.0
            if t_next > start:
                target = burst + rate * (t_next - start)
            amount = target - injected
            if amount > 0:  # max(0.0, target - injected), as a branch
                injected += amount
            else:
                amount = 0.0
            amounts.append(amount)
    elif spec.kind == "random":
        # one uniform per step decides whether to send, a second (when
        # sending) scales the tokens: at most 2 * steps of them, read in
        # order as floats straight off the array
        u = iter(memoryview(np.random.default_rng(spec.seed).random(2 * steps)))
        tokens = burst
        for _ in range(steps):
            tokens = tokens + rate * dt
            if not tokens < burst:  # min(burst, tokens + rate * dt), as a branch
                tokens = burst
            amount = tokens * next(u) if next(u) < 0.5 else 0.0
            tokens -= amount
            amounts.append(amount)
    return amounts


def simulate_fluid(net: Network, scenario: Scenario, dt: Optional[float] = None) -> Trajectory:
    """
    Run the fluid evolution of ``net`` under ``scenario`` on a uniform grid.

    The network must be feed-forward.  Servers are processed in topological
    order within each step, so instantaneous service cascades downstream in
    the same step.  A grid of more than ``MAX_GRID_STEPS`` steps is refused.

    The state is flat: one position per ``(flow, path position)`` in flow
    order, each with its queue and its running cumulative totals.  One pass
    over the flows computes each flow's injection stream up front (it never
    depends on the queues) and lays out its positions, the first of which
    the stream feeds.  Every server's window (whether it has one, and its
    ends), rate, latency and service order, as ``(position, next position
    on the path)`` pairs, are bound once before the step loop.  At the end
    of a step the running totals fill one column of a
    ``(positions, steps + 1)`` array per side, whose rows are the
    trajectory's ``cum_in`` / ``cum_out`` entries.

    >>> from .curves import RateLatency, TokenBucket
    >>> from .network import Flow
    >>> net = Network([RateLatency(2.0, 0.01)], [Flow(TokenBucket(1, 1), (0,))])
    >>> traj = simulate_fluid(net, greedy_scenario(net, 0.05), dt=1e-4)
    >>> abs(traj.max_backlog(0) - 1.01) < 0.01
    True
    """
    if classify(net) is Topology.CYCLIC:
        raise ScenarioError("fluid simulation needs a feed-forward network")
    if len(scenario.arrivals) != net.num_flows or len(scenario.servers) != net.num_servers:
        raise ScenarioError("scenario does not match the network size")
    for j, spec in enumerate(scenario.servers):
        if len(set(spec.priority)) != len(spec.priority) or not all(
            _is_id(i) and 0 <= i < net.num_flows for i in spec.priority
        ):
            raise ScenarioError(
                "server %d priority %r must list distinct flows of 0..%d"
                % (j, spec.priority, net.num_flows - 1)
            )
    dt = _require_positive("dt", default_dt(net) if dt is None else dt)
    ratio = scenario.horizon / dt
    if not (math.isfinite(ratio) and math.ceil(ratio) + 1 <= MAX_GRID_STEPS):
        raise ScenarioError("horizon %r over dt %r needs more than %d grid steps"
                            % (scenario.horizon, dt, MAX_GRID_STEPS))
    steps = int(math.ceil(ratio)) + 1
    times = np.arange(steps + 1) * dt
    grid = times.tolist()

    keys: List[Tuple[int, int]] = []  # (flow, path position) of each flat position
    successor: List[int] = []  # flat position of the next hop, -1 after the last
    at_server: List[List[int]] = [[] for _ in range(net.num_servers)]
    # (entry position, amount per step) of every flow that injects; an
    # entry position gets no other input, so the order of the adds is moot
    streams = []
    for i, (f, spec) in enumerate(zip(net.flows, scenario.arrivals)):
        amounts = _injections(spec, f.arrival, grid, dt)
        if amounts:
            streams.append((len(keys), amounts))
        for p, j in enumerate(f.path):
            at_server[j].append(len(keys))
            successor.append(len(keys) + 1 if p + 1 < len(f.path) else -1)
            keys.append((i, p))

    # each server in topological order, upstream first so instant service
    # cascades within the step, with its numbers and its service order (a
    # flow crosses a server once, so its rank alone places its position)
    servers = []
    for j in topological_order(induced_graph(net), net.num_servers):
        spec, curve = scenario.servers[j], net.servers[j]
        rank = {i: p for p, i in enumerate(spec.priority)}
        order = sorted(at_server[j], key=lambda pos: rank.get(keys[pos][0], len(rank) + keys[pos][0]))
        start, end = spec.window or (0.0, 0.0)
        servers.append((j, spec.window is None, order, [(pos, successor[pos]) for pos in order],
                        curve.rate, curve.latency, start, end))

    cum_in = np.zeros((len(keys), steps + 1))
    cum_out = np.zeros((len(keys), steps + 1))
    run_in = [0.0] * len(keys)
    run_out = [0.0] * len(keys)
    queues = [0.0] * len(keys)
    period_start: List[Optional[float]] = [None] * net.num_servers
    served_in_period = [0.0] * net.num_servers

    for step in range(steps):
        t, t_next = grid[step], grid[step + 1]
        for pos, amounts in streams:
            amount = amounts[step]
            if amount > 0:
                queues[pos] += amount
                run_in[pos] += amount

        for j, exact, order, pairs, rate, latency, start, end in servers:
            queued = 0  # a left fold, as curves.left_sum
            for pos in order:
                queued = queued + queues[pos]
            # the envelope rate * max(0.0, elapsed - latency) less what the
            # period served, floored at 0, and then min(capacity, queued):
            # the builtins' values, written as branches
            in_period = False  # whether this step's service counts toward the envelope
            if exact:
                if queued <= QUEUE_EPS:
                    period_start[j] = None
                    served_in_period[j] = 0.0
                    capacity = queued
                else:
                    in_period = True
                    begun = period_start[j]
                    if begun is None:
                        begun = period_start[j] = t
                    elapsed = t_next - begun - latency
                    capacity = rate * (elapsed if elapsed > 0.0 else 0.0) - served_in_period[j]
                    if not capacity > 0.0:
                        capacity = 0.0
            elif t_next < start or t_next >= end:  # the step reaching the end flushes
                capacity = queued
            else:  # the step ends inside the window
                in_period = True
                elapsed = t_next - start - latency
                capacity = rate * (elapsed if elapsed > 0.0 else 0.0) - served_in_period[j]
                if not capacity > 0.0:
                    capacity = 0.0

            remaining = queued if queued < capacity else capacity
            total_served = remaining
            for pos, nxt in pairs:
                if remaining <= 0:
                    break
                amount = queues[pos]
                if remaining < amount:
                    amount = remaining
                if amount <= 0:
                    continue
                queues[pos] -= amount
                remaining -= amount
                run_out[pos] += amount
                if nxt >= 0:
                    queues[nxt] += amount
                    run_in[nxt] += amount
            if in_period:
                served_in_period[j] += total_served
                if exact and queued - total_served <= QUEUE_EPS:
                    period_start[j] = None
                    served_in_period[j] = 0.0

        cum_in[:, step + 1] = run_in
        cum_out[:, step + 1] = run_out

    return Trajectory(
        net,
        times,
        {key: cum_in[row] for row, key in enumerate(keys)},
        {key: cum_out[row] for row, key in enumerate(keys)},
        dt,
    )


def check_arrival_curves(traj: Trajectory) -> bool:
    """
    Verify that every injected process respects its token bucket on every
    grid pair: sup over s <= t of A(t) - A(s) - r (t - s) must stay below
    the burst, up to ``ARRIVAL_TOL``.
    """
    for i, flow in enumerate(traj.net.flows):
        a = traj.cum_in[(i, 0)]
        drift = a - flow.arrival.rate * traj.times
        if float((drift - np.minimum.accumulate(drift)).max()) > flow.arrival.burst + ARRIVAL_TOL:
            return False
    return True


def check_strict_service(traj: Trajectory, tol: Optional[float] = None) -> bool:
    """
    Verify the aggregate strict-service guarantee of every server: within
    every backlogged period, departures over any sub-interval dominate the
    rate-latency envelope (up to one grid step of slack).

    With ``h = B - R t`` for the server's aggregate departures ``B``, a
    grid point ``k`` of a backlogged period that starts at ``s`` needs
    ``h[i] - (h[k] + R T) <= tol`` for every ``i`` from ``s - 1`` (from
    ``0`` when ``s = 0``) to ``k - 1``.  Each period is one array test of
    the largest such ``h[i]``, a running maximum over the period.
    """
    if tol is None:
        tol = max(s.rate for s in traj.net.servers) * traj.dt + 1e-9
    for j in range(traj.net.num_servers):
        keys = traj._positions_at(j)
        if not keys:
            continue
        a = left_sum(traj.cum_in[key] for key in keys)
        b = left_sum(traj.cum_out[key] for key in keys)
        rate, latency = traj.net.servers[j].rate, traj.net.servers[j].latency
        h = b - rate * traj.times
        # each backlogged period as [start, end): the busy mask's rising and falling edges
        edges = np.flatnonzero(np.diff(a - b > tol, prepend=False, append=False))
        for start, end in zip(edges[::2].tolist(), edges[1::2].tolist()):
            start = max(start, 1)  # nothing precedes grid point 0
            if start < end and (
                np.maximum.accumulate(h[start - 1 : end - 1]) - (h[start:end] + rate * latency)
                > tol
            ).any():
                return False
    return True


def worst_case_scenario(tandem: Network, interest: Iterable[int]) -> Scenario:
    """
    The extremal scenario of the tandem backlog analysis: consecutive
    backlogged windows with minimal service and an end-of-window flush,
    shortest-destination-first priorities with interest flows last, and
    each flow greedy from the start of its entry server's window.

    Simulating it reproduces the worst-case backlog (up to grid slack) at
    the last server when the windows close.
    """
    interest = list(interest)  # checked as given: a set would fold True into 1
    _, deltas = worst_case_periods(tandem, interest)
    n = tandem.num_servers
    starts = list(accumulate(deltas, initial=0.0))
    arrivals = tuple(
        ArrivalSpec("greedy", start=starts[f.path[0]]) for f in tandem.flows
    )
    cross = sorted(
        (i for i in range(tandem.num_flows) if i not in interest),
        key=lambda i: (tandem.flows[i].path[-1], i),
    )
    priority = tuple(cross + sorted(set(interest)))
    servers = tuple(
        ServerSpec((starts[j], starts[j + 1]), priority)
        for j in range(n)
    )
    return Scenario(arrivals, servers, horizon=starts[n])
