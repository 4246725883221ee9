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

from .errors import ScenarioError
from .network import Network, Topology, classify, renumber
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


@dataclass(frozen=True)
class ServerSpec:
    """
    Service behaviour of one server.

    * ``exact``: minimal strict service during every backlogged period.
    * ``infinite``: serves all queued data instantly.
    * ``window``: infinite service outside ``window = (start, end)``, the
      minimal envelope inside it, and an instantaneous flush at the end.

    ``priority`` orders the flows for service (first drained first);
    flows missing from it are appended in id order.
    """

    mode: str = "exact"
    window: Optional[Tuple[float, float]] = None
    priority: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.mode not in ("exact", "infinite", "window"):
            raise ScenarioError("unknown service mode %r" % self.mode)
        if self.mode == "window" and self.window is None:
            raise ScenarioError("window mode needs a (start, end) window")


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
    their differences at the grid points.
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
    dt = _require_positive("dt", default_dt(net) if dt is None else dt)
    horizon = scenario.horizon if horizon is None else _require_positive("horizon", horizon)
    steps = int(math.ceil(horizon / dt)) + 1
    times = np.arange(steps + 1) * dt

    _, old_to_new = renumber(net)
    topo_order = sorted(range(net.num_servers), key=lambda j: old_to_new[j])

    positions: Dict[Tuple[int, int], int] = {}
    at_server: List[List[Tuple[int, int]]] = [[] for _ in range(net.num_servers)]
    for i, f in enumerate(net.flows):
        for p, j in enumerate(f.path):
            positions[(i, p)] = j
            at_server[j].append((i, p))

    cum_in = {key: np.zeros(steps + 1) for key in positions}
    cum_out = {key: np.zeros(steps + 1) for key in positions}
    queues = {key: 0.0 for key in positions}
    injected = [0.0] * net.num_flows
    tokens = [f.arrival.burst for f in net.flows]
    rngs = [
        np.random.default_rng(spec.seed) if spec.kind == "random" else None
        for spec in scenario.arrivals
    ]
    period_start: List[Optional[float]] = [None] * net.num_servers
    served_in_period = [0.0] * net.num_servers
    flushed = [False] * net.num_servers

    def service_priority(j: int) -> List[Tuple[int, int]]:
        spec = scenario.servers[j]
        rank = {i: p for p, i in enumerate(spec.priority)}
        return sorted(
            at_server[j], key=lambda key: (rank.get(key[0], len(rank) + key[0]), key[1])
        )

    order_at = [service_priority(j) for j in range(net.num_servers)]

    for step in range(steps):
        t, t_next = times[step], times[step + 1]
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
                rng = rngs[i]
                amount = float(rng.uniform(0.0, tokens[i])) if rng.random() < 0.5 else 0.0
                tokens[i] -= amount
            else:
                amount = 0.0
            if amount > 0:
                injected[i] += amount
                queues[(i, 0)] += amount
                cum_in[(i, 0)][step + 1] += amount

        # service, upstream first so instant service cascades within the step
        for j in topo_order:
            spec = scenario.servers[j]
            keys = order_at[j]
            queued = sum(queues[key] for key in keys)
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
            for i, p in keys:
                if remaining <= 0:
                    break
                amount = min(queues[(i, p)], remaining)
                if amount <= 0:
                    continue
                queues[(i, p)] -= amount
                remaining -= amount
                cum_out[(i, p)][step + 1] += amount
                if p + 1 < len(net.flows[i].path):
                    queues[(i, p + 1)] += amount
                    cum_in[(i, p + 1)][step + 1] += amount
            if spec.mode == "exact" and period_start[j] is not None:
                served_in_period[j] += total_served
                if queued - total_served <= QUEUE_EPS:
                    period_start[j] = None
                    served_in_period[j] = 0.0
            elif spec.mode == "window" and in_window:
                served_in_period[j] += total_served

        for key in positions:
            cum_in[key][step + 1] += cum_in[key][step]
            cum_out[key][step + 1] += cum_out[key][step]

    return Trajectory(net, times, cum_in, cum_out, dt)


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
    """
    if tol is None:
        tol = max(s.rate for s in traj.net.servers) * traj.dt + 1e-9
    for j in range(traj.net.num_servers):
        keys = traj._positions_at(j)
        if not keys:
            continue
        a = sum(traj.cum_in[key] for key in keys)
        b = sum(traj.cum_out[key] for key in keys)
        backlog = a - b
        rate, latency = traj.net.servers[j].rate, traj.net.servers[j].latency
        h = b - rate * traj.times
        running = -math.inf
        for k in range(len(traj.times)):
            if backlog[k] > tol:
                if running == -math.inf and k > 0:
                    running = h[k - 1]
                if running - (h[k] + rate * latency) > tol:
                    return False
                running = max(running, h[k])
            else:
                running = -math.inf
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
