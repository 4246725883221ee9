#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
Generators for the cyclic benchmark topologies: unidirectional and
bidirectional rings, the three-ring composition and the small fixed
fixtures used throughout the tests; each is one ``--kind`` of the command
line (``cli.KINDS``).

The rings and ``toy`` have the paper's one traffic profile, fixed by the
module constants rather than by options: every flow a burst of
``DEFAULT_BURST`` (1 kb) and a rate of ``DEFAULT_RATE`` (1 kb/s), every
server a latency of ``DEFAULT_LATENCY`` (10 ms).  Each network has one
table of server rates, by default ``DEFAULT_RATE`` per flow crossing the
server, one rate-latency curve per distinct rate that its servers share,
and one token bucket that all its flows share (the curves are frozen, so
servers and flows stay equal to those of curves of their own).  They
scale every service rate like ``1/U``, so that ``U`` is the utilization
of the busiest server.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import List, Optional, Sequence, Tuple

from .curves import RateLatency, TokenBucket, _is_real
from .errors import ValidationError
from .network import Flow, Network, _is_id

DEFAULT_BURST = 1.0
DEFAULT_RATE = 1.0
DEFAULT_LATENCY = 0.01


def _uniform_network(
    num_servers: int,
    paths: Sequence[Tuple[int, ...]],
    utilization: float,
    rates: Optional[Sequence[float]] = None,
) -> Network:
    """
    The network of ``paths``, all its flows one shared token bucket and all
    its servers of one rate one shared curve: server ``j`` serves at
    ``rates[j] / utilization``, where ``rates`` defaults to ``DEFAULT_RATE``
    per flow crossing the server (at least one).
    """
    if not (_is_real(utilization) and 0 < utilization <= 1):
        raise ValidationError("utilization must be in (0, 1]")
    if rates is None:
        crossing = Counter(chain.from_iterable(paths))
        rates = [DEFAULT_RATE * max(crossing[j], 1) for j in range(num_servers)]
    curve = {rate: RateLatency(rate / utilization, DEFAULT_LATENCY) for rate in set(rates)}
    servers = tuple([curve[rate] for rate in rates])
    arrival = TokenBucket(DEFAULT_BURST, DEFAULT_RATE)
    return Network(servers, tuple([Flow(arrival, path) for path in paths]))


def _size(value, name: str) -> int:
    """``value`` as a plain ``int``, refused unless an integer (numpy's too, never a ``bool``)."""
    if not _is_id(value):
        raise ValidationError("%s must be an integer, got %r" % (name, value))
    return int(value)


def _rotations(cycle: Tuple[int, ...], length: int) -> List[Tuple[int, ...]]:
    """The paths of ``length`` hops along ``cycle``, one from each of its servers in order."""
    # slices of a tuple are tuples of their own length; tuple() of a generator
    # resizes a length-10 one, which is then freed to the list of its own length
    # and never taken back: a bisection's family(U) networks would pile up there
    # until the next full garbage collection
    twice = cycle * 2
    return [twice[i : i + length] for i in range(len(cycle))]


def uni_ring(n: int, utilization: float, heterogeneous: bool = False) -> Network:
    """
    Unidirectional ring of ``n`` servers, crossed by ``n`` full-loop flows
    (flow ``i`` starts at server ``i``).  Every server carries all ``n``
    flows, so its service rate is ``n * DEFAULT_RATE / U``.

    With ``heterogeneous`` the two highest-index servers keep that rate
    while all others get twice as much (half the utilization).

    >>> net = uni_ring(10, 0.5)
    >>> net.servers[0].rate
    20.0
    """
    n = _size(n, "n")
    if n < 2:
        raise ValidationError("a ring needs at least two servers")
    paths = _rotations(tuple(range(n)), n)
    if heterogeneous:
        rates = [2 * n * DEFAULT_RATE] * (n - 2) + [n * DEFAULT_RATE] * 2
    else:
        rates = [n * DEFAULT_RATE] * n
    return _uniform_network(n, paths, utilization, rates)


def bi_ring(n: int, utilization: float) -> Network:
    """
    Bidirectional ring of ``n`` servers crossed by ``2n`` flows of length
    ``n``: the ``n`` clockwise full loops plus the ``n`` counter-clockwise
    ones.

    >>> [f.path for f in bi_ring(3, 0.5).flows[3:]]
    [(2, 1, 0), (1, 0, 2), (2, 0, 1)]
    """
    n = _size(n, "n")
    if n < 2:
        raise ValidationError("a ring needs at least two servers")
    paths = _rotations(tuple(range(n)), n)
    backward = tuple(range(n))[::-1] * 2  # server n - 1 at positions 0 and n
    # the loop from server i starts at position n - 1 - i; the one from n - 1
    # comes twice, first and last, and the one from server 0 not at all
    paths += [backward[:n]] + [backward[n - 1 - i : 2 * n - 1 - i] for i in range(1, n)]
    return _uniform_network(n, paths, utilization, [2 * n * DEFAULT_RATE] * n)


def three_ring(utilization: float, ring_size: int = 10, short_len: int = 5) -> Network:
    """
    Three unidirectional rings of ``ring_size`` servers, pairwise sharing
    one border server (``3 * ring_size - 3`` servers in total).  The first
    two rings carry one full-loop flow per server; the third carries one
    flow of length ``short_len`` per server.

    Layout: ring 0 is ``0 .. s-1``; ring 1 shares server ``s-1`` and adds
    ``s .. 2s-2``; ring 2 shares servers ``2s-2`` and ``0`` and adds
    ``2s-1 .. 3s-4``.
    """
    s, short_len = _size(ring_size, "ring_size"), _size(short_len, "short_len")
    if s < 3:
        raise ValidationError("ring_size must be at least 3")
    if not (1 <= short_len <= s):
        raise ValidationError("short_len must be in [1, ring_size]")
    ring0 = tuple(range(0, s))
    ring1 = (s - 1,) + tuple(range(s, 2 * s - 1))
    ring2 = (2 * s - 2,) + tuple(range(2 * s - 1, 3 * s - 3)) + (0,)
    paths = _rotations(ring0, s) + _rotations(ring1, s) + _rotations(ring2, short_len)
    # s flows cross each server of rings 0 and 1, short_len each of ring 2; the
    # border servers add the counts of their two rings
    crossing = [s] * (2 * s - 1) + [short_len] * (s - 2)
    crossing[s - 1] = 2 * s
    crossing[0] = crossing[2 * s - 2] = s + short_len
    return _uniform_network(3 * s - 3, paths, utilization, [DEFAULT_RATE * k for k in crossing])


def toy(utilization: float = 0.5) -> Network:
    """
    The four-server cyclic fixture: flows (2,3,1), (3,1,2), (1,0,2) and
    (1,2,3).
    """
    paths = [(2, 3, 1), (3, 1, 2), (1, 0, 2), (1, 2, 3)]
    return _uniform_network(4, paths, utilization)


def two_server_sink_tree(
    burst: float = 1.0,
    rate: float = 1.0,
    service_rate: float = 2.0,
    latency: float = 1.0,
) -> Network:
    """
    The two-server sink tree: one flow through both servers and one
    entering at the second, which serves at twice the rate of the first.
    """
    servers = (RateLatency(service_rate, latency), RateLatency(2 * service_rate, latency))
    flows = (
        Flow(TokenBucket(burst, rate), (0, 1)),
        Flow(TokenBucket(burst, rate), (1,)),
    )
    return Network(servers, flows)

