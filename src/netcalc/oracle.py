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
one array holds the state of every vector's prefix (the bursts it
forwards, its interest backlog and its period lengths so far), and each
prefix gets one child per threshold ``k``.  The first maximizing vector's
value and period lengths are read off the last server's arrays.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from .errors import LocallyUnstableError, NotATreeError, OracleSizeError
from .network import (
    Network,
    Topology,
    _check_interest,
    _hops,
    _numbers,
    _paths,
    _require_local_stability,
    classify,
)

#: Enumeration limit: the last server's arrays hold n! case vectors, 40320
#: for n = 8, with n period lengths each.
MAX_ORACLE_SERVERS = 8


def _bruteforce(net: Network, interest: Iterable[int]):
    n = net.num_servers
    if classify(net) is not Topology.TANDEM:
        raise NotATreeError("the case enumeration handles tandems only")
    if n > MAX_ORACLE_SERVERS:
        raise OracleSizeError("n=%d exceeds the enumeration limit %d" % (n, MAX_ORACLE_SERVERS))
    num = _numbers(net)
    _require_local_stability(num.unstable)
    ending = {i for i, f in enumerate(net.flows) if f.path[-1] == n - 1}
    interest = _check_interest(interest, net.num_flows, ending, n - 1)
    # bursts[j, ell] and rates[j, ell]: the cross flows entering at j (for
    # the rates: crossing j) that leave at ell, added in flow order; column
    # n holds the interest flows the same way
    length, server = _hops(_paths(net))
    last = np.array([f.path[-1] for f in net.flows], dtype=np.intp)
    column = np.where(np.isin(np.arange(net.num_flows), list(interest)), n, last)
    first = server[np.cumsum(length) - length]
    shape = (n, n + 1)
    bursts = np.bincount(first * (n + 1) + column, num.burst, n * (n + 1)).reshape(shape)
    at = server * (n + 1) + np.repeat(column, length)
    rates = np.bincount(at, np.repeat(num.rate, length), n * (n + 1)).reshape(shape)
    R, T = num.service_rate, num.latency
    # margins[j][k - j]: service rate left at server j when it serves k
    margins = [R[j] - np.cumsum(rates[j, j:n]) for j in range(n)]
    _require_margins(margins)
    # Breadth-first over case prefixes: at server j, row p of ``x`` holds
    # prefix p's bursts entering servers j..n-1, ``x_star[p]`` its interest
    # backlog and ``periods[p]`` its period lengths at servers 0..j-1;
    # prefix p's child for threshold k is row p * (n - j) + k - j, so the
    # leaves come in itertools.product order.
    x = np.zeros((1, n))
    x_star = np.zeros(1)
    periods = np.zeros((1, 0))
    for j in range(n):
        q = (bursts[j, j:n] + x) + rates[j, j:n] * T[j]
        stretch = np.cumsum(q, axis=1) / margins[j]
        delta = T[j] + stretch
        x_star = ((bursts[j, n] + x_star)[:, None] + rates[j, n] * delta).ravel()
        periods = np.column_stack((np.repeat(periods, n - j, axis=0), delta.ravel()))
        carried = q[:, None, 1:] + rates[j, j + 1:n] * stretch[:, :, None]
        beyond = np.arange(j + 1, n) > np.arange(j, n)[:, None]  # server ell > threshold k
        x = np.where(beyond, carried, 0.0).reshape(len(x_star), n - j - 1)
    leaf = int(np.argmax(x_star))  # the first maximum, as the strict > of a scan
    value, deltas = x_star[leaf].item(), periods[leaf].tolist()
    thresholds = []
    for j in reversed(range(n)):  # mixed radix: server j has n - j thresholds
        leaf, digit = divmod(leaf, n - j)
        thresholds.append(j + digit)
    return value, tuple(reversed(thresholds)), deltas


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

    :raises InterestNotAtRootError: if some interest flow is unknown or
        misses the last server, as :func:`~netcalc.tree_analysis.tree_backlog`
        reports it

    >>> from .curves import RateLatency, TokenBucket
    >>> from .network import Flow
    >>> net = Network([RateLatency(2.0, 1.0), RateLatency(4.0, 1.0)],
    ...               [Flow(TokenBucket(1, 1), (0, 1)),
    ...                Flow(TokenBucket(1, 1), (1,))])
    >>> round(bruteforce_backlog(net, [0]), 12)
    3.666666666667
    """
    value, _, _ = _bruteforce(net=tandem, interest=interest)
    return value


def worst_case_periods(tandem: Network, interest: Iterable[int]) -> Tuple[float, List[float]]:
    """
    The maximizing backlog value and the per-server backlogged-period
    lengths of the maximizing case vector (period of server ``j`` starts
    when the previous one ends; the first starts at time 0).
    """
    value, _, deltas = _bruteforce(net=tandem, interest=interest)
    return value, deltas
