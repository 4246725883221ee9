#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
Independent verification route for the tree computation: an exponential
case enumeration of the per-server service scenarios on tandems.

Each server ``j`` chooses a destination threshold ``k``: flows ending at
servers ``j..k`` are served during its backlogged period, everything else
is forwarded as a burst when the period closes.  Evaluating the closed
form for every choice vector and maximizing reproduces the worst-case
backlog from first principles, with no shared code with the coefficient
algorithm.

All choice vectors are evaluated at once, breadth-first: at server ``j``
one array holds the state of every vector's prefix, and each prefix gets
one child per threshold ``k``.  The first maximizing vector is then
evaluated again, alone and with scalar arithmetic, for its value and its
period lengths.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

import numpy as np

from .curves import left_sum
from .errors import LocallyUnstableError, NotATreeError, OracleSizeError
from .network import Network, Topology, classify, local_stability

#: Enumeration limit: the last server's array holds n! case vectors, 40320
#: for n = 8; the maximizing vector is then re-evaluated on its own.
MAX_ORACLE_SERVERS = 8


def _case_tables(net: Network, interest: FrozenSet[int]):
    n = net.num_servers
    burst_jk: List[Dict[int, float]] = [dict() for _ in range(n)]
    burst_star = [0.0] * n
    rate_jk: List[Dict[int, float]] = [dict() for _ in range(n)]
    rate_star = [0.0] * n
    for i, flow in enumerate(net.flows):
        first, last = flow.path[0], flow.path[-1]
        if i in interest:
            burst_star[first] += flow.arrival.burst
            for j in flow.path:
                rate_star[j] += flow.arrival.rate
        else:
            burst_jk[first][last] = burst_jk[first].get(last, 0.0) + flow.arrival.burst
            for j in flow.path:
                rate_jk[j][last] = rate_jk[j].get(last, 0.0) + flow.arrival.rate
    return burst_jk, burst_star, rate_jk, rate_star


def _evaluate_case(net, case, burst_jk, burst_star, rate_jk, rate_star):
    """Backlog at the last server and the per-server period lengths."""
    n = net.num_servers
    x = [0.0] * n
    x_star = 0.0
    deltas = []
    for j in range(n):
        beta = net.servers[j]
        q = [0.0] * n
        for ell in range(j, n):
            q[ell] = (
                burst_jk[j].get(ell, 0.0)
                + x[ell]
                + rate_jk[j].get(ell, 0.0) * beta.latency
            )
        k = case[j]
        served_rate = left_sum(rate_jk[j].get(ell, 0.0) for ell in range(j, k + 1))
        margin = beta.rate - served_rate
        if margin <= 0:
            raise LocallyUnstableError("server %d cannot drain its local traffic" % j)
        stretch = left_sum(q[ell] for ell in range(j, k + 1)) / margin
        deltas.append(beta.latency + stretch)
        new_x = [0.0] * n
        for ell in range(k + 1, n):
            new_x[ell] = q[ell] + rate_jk[j].get(ell, 0.0) * stretch
        x_star = burst_star[j] + x_star + rate_star[j] * deltas[-1]
        x = new_x
    return x_star, deltas


def _bruteforce(net: Network, interest: FrozenSet[int]):
    n = net.num_servers
    if classify(net) is not Topology.TANDEM:
        raise NotATreeError("the case enumeration handles tandems only")
    if n > MAX_ORACLE_SERVERS:
        raise OracleSizeError("n=%d exceeds the enumeration limit %d" % (n, MAX_ORACLE_SERVERS))
    report = local_stability(net)
    if not report.stable:
        raise LocallyUnstableError(
            "servers %r are not strictly stable" % report.unstable_servers()
        )
    tables = _case_tables(net, interest)
    burst_jk, burst_star, rate_jk, rate_star = tables
    bursts = np.array([[burst_jk[j].get(ell, 0.0) for ell in range(n)] for j in range(n)])
    rates = np.array([[rate_jk[j].get(ell, 0.0) for ell in range(n)] for j in range(n)])
    # margins[j][k - j]: service rate left at server j when it serves k
    margins = [net.servers[j].rate - np.cumsum(rates[j, j:]) for j in range(n)]
    _require_margins(margins)
    # Breadth-first over case prefixes: at server j, row p of ``x`` holds
    # prefix p's bursts entering servers j..n-1 and ``x_star[p]`` its
    # interest backlog; prefix p's child for threshold k is row
    # p * (n - j) + k - j, so the leaves come in itertools.product order.
    x = np.zeros((1, n))
    x_star = np.zeros(1)
    for j in range(n):
        latency = net.servers[j].latency
        q = (bursts[j, j:] + x) + rates[j, j:] * latency
        stretch = np.cumsum(q, axis=1) / margins[j]
        x_star = ((burst_star[j] + x_star)[:, None] + rate_star[j] * (latency + stretch)).ravel()
        carried = q[:, None, 1:] + rates[j, j + 1:] * stretch[:, :, None]
        beyond = np.arange(j + 1, n) > np.arange(j, n)[:, None]  # server ell > threshold k
        x = np.where(beyond, carried, 0.0).reshape(len(x_star), n - j - 1)
    leaf = int(np.argmax(x_star))  # the first maximum, as the strict > of a scan
    thresholds = []
    for j in reversed(range(n)):  # mixed radix: server j has n - j thresholds
        leaf, digit = divmod(leaf, n - j)
        thresholds.append(j + digit)
    case = tuple(reversed(thresholds))
    value, deltas = _evaluate_case(net, case, *tables)
    return value, case, deltas


def _require_margins(margins) -> None:
    """
    Raise what the case-by-case scan raised first when some threshold
    leaves a server no service rate: a margin only shrinks with ``k``, so
    the first case in ``itertools.product`` order that fails keeps every
    threshold minimal but one, at the first server failing at its minimal
    threshold, or else at the last server failing at all.
    """
    failing = [j for j, m in enumerate(margins) if m[-1] <= 0]
    if failing:
        at_minimal = [j for j in failing if margins[j][0] <= 0]
        j = at_minimal[0] if at_minimal else failing[-1]
        raise LocallyUnstableError("server %d cannot drain its local traffic" % j)


def bruteforce_backlog(tandem: Network, interest: Iterable[int]) -> float:
    """
    Worst-case backlog at the last server of a tandem for the flows in
    ``interest``, via exhaustive enumeration of the service case vectors.

    Exponential in the number of servers (rejected above
    ``MAX_ORACLE_SERVERS``); intended as a ground truth for tests.

    >>> from .curves import RateLatency, TokenBucket
    >>> from .network import Flow
    >>> net = Network([RateLatency(2.0, 1.0), RateLatency(4.0, 1.0)],
    ...               [Flow(TokenBucket(1, 1), (0, 1)),
    ...                Flow(TokenBucket(1, 1), (1,))])
    >>> round(bruteforce_backlog(net, [0]), 12)
    3.666666666667
    """
    value, _, _ = _bruteforce(net=tandem, interest=frozenset(interest))
    return value


def worst_case_periods(tandem: Network, interest: Iterable[int]) -> Tuple[float, List[float]]:
    """
    The maximizing backlog value and the per-server backlogged-period
    lengths of the maximizing case vector (period of server ``j`` starts
    when the previous one ends; the first starts at time 0).
    """
    value, _, deltas = _bruteforce(net=tandem, interest=frozenset(interest))
    return value, deltas
