#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
Discrete-time fluid simulation of feed-forward networks under strict
service guarantees.

The simulator is a soundness check for the analytical bounds: any
admissible scenario must stay below them (up to discretization slack),
and the reconstructed extremal scenario must reach them.  Fluid volumes
move on a uniform time grid; servers either serve everything instantly,
follow their minimal strict-service envelope, or follow a scheduled
backlogged window that ends with an instantaneous flush.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .curves import left_sum
from .errors import ScenarioError
from .network import Network, Topology, classify, induced_graph, topological_order
from .oracle import worst_case_periods

QUEUE_EPS = 1e-12


@dataclass(frozen=True)
class ArrivalSpec:
    """
    Arrival process of one flow.

    * ``greedy``: nothing before ``start``, then the full burst followed by
      the token-bucket rate (the maximal admissible process from ``start``).
    * ``random``: a seeded random admissible process (token-bucket gated).
    * ``none``: the flow stays silent.
    """

    kind: str = "greedy"
    start: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("greedy", "random", "none"):
            raise ScenarioError("unknown arrival kind %r" % self.kind)
        if not math.isfinite(self.start):
            raise ScenarioError("arrival start must be finite, got %r" % self.start)


@dataclass(frozen=True)
class ServerSpec:
    """
    Service behaviour of one server.

    * ``exact``: minimal strict service during every backlogged period.
    * ``infinite``: serves all queued data instantly.
    * ``window``: infinite service outside ``window = (start, end)``, the
      minimal envelope inside it, and an instantaneous flush at the end.

    ``priority`` orders the flows for service (first drained first);
    flows missing from it are appended in id order.  ``simulate_fluid``
    rejects a priority that repeats a flow or names one the network lacks.
    A window starts at a finite time no later than its end; the end may be
    infinite.
    """

    mode: str = "exact"
    window: Optional[Tuple[float, float]] = None
    priority: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.mode not in ("exact", "infinite", "window"):
            raise ScenarioError("unknown service mode %r" % self.mode)
        if self.mode == "window" and self.window is None:
            raise ScenarioError("window mode needs a (start, end) window")
        if self.window is not None:
            start, end = self.window
            if not (math.isfinite(start) and start <= end):
                raise ScenarioError(
                    "window start must be finite and at most its end, got %r" % (self.window,)
                )


def _require_positive(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
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
        tuple(ServerSpec("exact") for _ in net.servers),
        horizon,
    )


def random_scenario(net: Network, horizon: float, seed: int) -> Scenario:
    """Seeded random admissible arrivals, exact servers, shuffled priorities."""
    rng = np.random.default_rng(seed)
    arrivals = tuple(
        ArrivalSpec("random", start=0.0, seed=int(rng.integers(2**31)))
        for _ in net.flows
    )
    servers = []
    for _ in net.servers:
        order = rng.permutation(net.num_flows)
        servers.append(ServerSpec("exact", priority=tuple(int(i) for i in order)))
    return Scenario(arrivals, tuple(servers), horizon)


def default_dt(net: Network) -> float:
    """Default grid step: a hundredth of the smallest latency, or 1 ms."""
    latencies = [s.latency for s in net.servers if s.latency > 0]
    return min(latencies) / 100.0 if latencies else 1e-3


def discretization_slack(net: Network, dt: float) -> float:
    """Backlog comparison slack: (sum of flow rates + max service rate) dt."""
    return (sum(f.arrival.rate for f in net.flows) + max(s.rate for s in net.servers)) * dt


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
        return [
            (i, p)
            for i, f in enumerate(self.net.flows)
            for p, j in enumerate(f.path)
            if j == server
        ]

    def backlog(self, server: int, flows: Optional[Iterable[int]] = None) -> np.ndarray:
        """Backlog of the given flows (default: all) at ``server`` over time."""
        wanted = None if flows is None else set(flows)
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


def simulate_fluid(
    net: Network,
    scenario: Scenario,
    dt: Optional[float] = None,
    horizon: Optional[float] = None,
) -> Trajectory:
    """
    Run the fluid evolution of ``net`` under ``scenario`` on a uniform grid.

    The network must be feed-forward.  Servers are processed in topological
    order within each step, so instantaneous service cascades downstream in
    the same step.

    The state is flat: one position per ``(flow, path position)`` in flow
    order, each with its queue, its running cumulative totals and the index
    of the next position on its path; every server serves a fixed list of
    its positions.  At the end of a step the running totals fill one column
    of a ``(positions, steps + 1)`` array per side, whose rows are the
    trajectory's ``cum_in`` / ``cum_out`` entries.  A random flow draws its
    whole uniform stream up front and reads it in order.

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
            0 <= i < net.num_flows for i in spec.priority
        ):
            raise ScenarioError(
                "server %d priority %r must list distinct flows of 0..%d"
                % (j, spec.priority, net.num_flows - 1)
            )
    dt = _require_positive("dt", default_dt(net) if dt is None else dt)
    horizon = scenario.horizon if horizon is None else _require_positive("horizon", horizon)
    steps = int(math.ceil(horizon / dt)) + 1
    times = np.arange(steps + 1) * dt
    grid = times.tolist()

    topo_order = topological_order(induced_graph(net), net.num_servers)

    keys: List[Tuple[int, int]] = []  # (flow, path position) of each flat position
    entry: List[int] = []  # flat position of each flow's first hop
    successor: List[int] = []  # flat position of the next hop, -1 after the last
    at_server: List[List[int]] = [[] for _ in range(net.num_servers)]
    for i, f in enumerate(net.flows):
        entry.append(len(keys))
        for p, j in enumerate(f.path):
            at_server[j].append(len(keys))
            successor.append(len(keys) + 1 if p + 1 < len(f.path) else -1)
            keys.append((i, p))

    cum_in = np.zeros((len(keys), steps + 1))
    cum_out = np.zeros((len(keys), steps + 1))
    run_in = [0.0] * len(keys)
    run_out = [0.0] * len(keys)
    queues = [0.0] * len(keys)
    injected = [0.0] * net.num_flows
    tokens = [f.arrival.burst for f in net.flows]
    # one uniform per step decides whether to send, a second (when sending)
    # scales the tokens: at most 2 * steps of them, read in order as floats
    # straight off the array (a list of them would hold 4x the memory)
    uniforms = [
        iter(memoryview(np.random.default_rng(spec.seed).random(2 * steps)))
        if spec.kind == "random" else None
        for spec in scenario.arrivals
    ]
    period_start: List[Optional[float]] = [None] * net.num_servers
    served_in_period = [0.0] * net.num_servers
    flushed = [False] * net.num_servers

    def service_order(j: int) -> List[int]:
        rank = {i: p for p, i in enumerate(scenario.servers[j].priority)}
        return sorted(
            at_server[j],
            key=lambda pos: (rank.get(keys[pos][0], len(rank) + keys[pos][0]), keys[pos][1]),
        )

    order_at = [service_order(j) for j in range(net.num_servers)]

    for step in range(steps):
        t, t_next = grid[step], grid[step + 1]
        # injections at the network entry
        for i, spec in enumerate(scenario.arrivals):
            flow = net.flows[i]
            if spec.kind == "greedy":
                target = 0.0
                if t_next > spec.start:
                    target = flow.arrival.burst + flow.arrival.rate * (t_next - spec.start)
                amount = max(0.0, target - injected[i])
            elif spec.kind == "random":
                tokens[i] = min(flow.arrival.burst, tokens[i] + flow.arrival.rate * dt)
                u = uniforms[i]
                amount = tokens[i] * next(u) if next(u) < 0.5 else 0.0
                tokens[i] -= amount
            else:
                amount = 0.0
            if amount > 0:
                injected[i] += amount
                queues[entry[i]] += amount
                run_in[entry[i]] += amount

        # service, upstream first so instant service cascades within the step
        for j in topo_order:
            spec = scenario.servers[j]
            order = order_at[j]
            queued = left_sum(queues[pos] for pos in order)
            if spec.mode == "infinite":
                capacity = queued
            elif spec.mode == "exact":
                if queued <= QUEUE_EPS:
                    period_start[j] = None
                    served_in_period[j] = 0.0
                    capacity = queued
                else:
                    if period_start[j] is None:
                        period_start[j] = t
                        served_in_period[j] = 0.0
                    envelope = net.servers[j].evaluate(t_next - period_start[j])
                    capacity = max(0.0, envelope - served_in_period[j])
            else:  # window
                start, end = spec.window
                in_window = False
                if t_next < start:
                    capacity = queued
                elif t < end:
                    in_window = True
                    envelope = net.servers[j].evaluate(min(t_next, end) - start)
                    capacity = max(0.0, envelope - served_in_period[j])
                    if t_next >= end and not flushed[j]:
                        capacity = queued  # end of the window: flush everything
                        flushed[j] = True
                else:
                    capacity = queued

            remaining = min(capacity, queued)
            total_served = remaining
            for pos in order:
                if remaining <= 0:
                    break
                amount = min(queues[pos], remaining)
                if amount <= 0:
                    continue
                queues[pos] -= amount
                remaining -= amount
                run_out[pos] += amount
                nxt = successor[pos]
                if nxt >= 0:
                    queues[nxt] += amount
                    run_in[nxt] += amount
            if spec.mode == "exact" and period_start[j] is not None:
                served_in_period[j] += total_served
                if queued - total_served <= QUEUE_EPS:
                    period_start[j] = None
                    served_in_period[j] = 0.0
            elif spec.mode == "window" and in_window:
                served_in_period[j] += total_served

        cum_in[:, step + 1] = run_in
        cum_out[:, step + 1] = run_out

    return Trajectory(
        net,
        times,
        {key: cum_in[row] for row, key in enumerate(keys)},
        {key: cum_out[row] for row, key in enumerate(keys)},
        dt,
    )


def check_arrival_curves(traj: Trajectory, tol: float = 1e-9) -> bool:
    """
    Verify that every injected process respects its token bucket on every
    grid pair: sup over s <= t of A(t) - A(s) - r (t - s) must stay below
    the burst.
    """
    for i, flow in enumerate(traj.net.flows):
        a = traj.cum_in[(i, 0)]
        drift = a - flow.arrival.rate * traj.times
        if float((drift - np.minimum.accumulate(drift)).max()) > flow.arrival.burst + tol:
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
    interest = frozenset(interest)
    _, deltas = worst_case_periods(tandem, interest)
    n = tandem.num_servers
    starts = [0.0] * (n + 1)
    for j in range(n):
        starts[j + 1] = starts[j] + deltas[j]
    arrivals = tuple(
        ArrivalSpec("greedy", start=starts[f.path[0]]) for f in tandem.flows
    )
    servers = []
    for j in range(n):
        cross = sorted(
            (i for i in range(tandem.num_flows) if i not in interest),
            key=lambda i: (tandem.flows[i].path[-1], i),
        )
        last = sorted(interest)
        servers.append(
            ServerSpec("window", window=(starts[j], starts[j + 1]), priority=tuple(cross + last))
        )
    return Scenario(arrivals, tuple(servers), horizon=starts[n])
