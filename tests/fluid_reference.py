"""
The fluid step loop keyed by ``(flow, path position)``: the reference the
tests hold ``netcalc.fluid.simulate_fluid`` to, bit for bit.

``simulate_fluid`` below is the loop the flat-state simulator replaced:
queues live in a dict, every step adds its moved amounts into per-position
arrays, and a last pass over every position turns them into cumulative
totals.  Random flows draw from their generator step by step.
``check_strict_service`` below is the grid-point loop the array check
replaced; it finds each server's positions with its own scan over every
hop, not through the trajectory's lookup.  Sums are left folds
(``left_sum``), the builtin ``sum`` of Python 3.11.  Not collected by
pytest; the test modules import it.
"""

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from netcalc.curves import left_sum
from netcalc.errors import ScenarioError
from netcalc.fluid import (
    QUEUE_EPS,
    Scenario,
    Trajectory,
    _require_positive,
    default_dt,
)
from netcalc.network import Network, Topology, classify, renumber


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
            queued = left_sum(queues[key] for key in keys)
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


def check_strict_service(traj: Trajectory, tol: Optional[float] = None) -> bool:
    """
    Verify the aggregate strict-service guarantee of every server: within
    every backlogged period, departures over any sub-interval dominate the
    rate-latency envelope (up to one grid step of slack).  The grid-point
    loop that ``netcalc.fluid.check_strict_service`` replaced.
    """
    if tol is None:
        tol = max(s.rate for s in traj.net.servers) * traj.dt + 1e-9
    for j in range(traj.net.num_servers):
        keys = [
            (i, p)
            for i, f in enumerate(traj.net.flows)
            for p, server in enumerate(f.path)
            if server == j
        ]
        if not keys:
            continue
        a = left_sum(traj.cum_in[key] for key in keys)
        b = left_sum(traj.cum_out[key] for key in keys)
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
