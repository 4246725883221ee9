#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
Network model: rate-latency servers crossed by token-bucket flows, the
induced server graph, topology classification, a network's numbers as
arrays and local stability.

Servers and flows are identified by their 0-based list positions.  The
JSON file format (see :mod:`netcalc.fileio`) uses 1-based identifiers.
"""

from __future__ import annotations

import enum
import heapq
import numbers
from dataclasses import dataclass
from itertools import chain
from typing import FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from .curves import RateLatency, ServerClass, TokenBucket, classify_server
from .errors import InterestNotAtRootError, LocallyUnstableError, ValidationError

Arc = Tuple[int, int]


@dataclass(frozen=True)
class Flow:
    """
    A flow with its token-bucket arrival curve and its server path.

    :param arrival: arrival curve at the network entry
    :param path: ordered server ids; nonempty, no server visited twice
    """

    arrival: TokenBucket
    path: Tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.arrival, TokenBucket):
            raise ValidationError("flow arrival must be a TokenBucket, got %r" % (self.arrival,))
        try:
            object.__setattr__(self, "path", tuple(self.path))
            visited = len(set(self.path))
        except TypeError:  # no iterable, or an entry that is no id (unhashable)
            raise ValidationError("flow path must be server ids, got %r" % (self.path,)) from None
        if len(self.path) == 0:
            raise ValidationError("flow path must be nonempty")
        if visited != len(self.path):
            raise ValidationError("flow path revisits a server: %r" % (self.path,))


@dataclass(frozen=True)
class Network:
    """
    A network of ``n`` servers (rate-latency strict service curves) crossed
    by ``m`` flows (token-bucket arrival curves).

    >>> net = Network([RateLatency(2, 0.1)], [Flow(TokenBucket(1, 1), (0,))])
    >>> net.num_servers, net.num_flows
    (1, 1)
    """

    servers: Tuple[RateLatency, ...]
    flows: Tuple[Flow, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "servers", tuple(self.servers))
            object.__setattr__(self, "flows", tuple(self.flows))
        except TypeError:
            raise ValidationError("network servers and flows must be iterables, got %r and %r"
                                  % (self.servers, self.flows)) from None
        n = len(self.servers)
        if n == 0:
            raise ValidationError("network needs at least one server")
        for j, server in enumerate(self.servers):
            if not isinstance(server, RateLatency):
                raise ValidationError("server %d must be a RateLatency, got %r" % (j, server))
        for i, flow in enumerate(self.flows):
            if not isinstance(flow, Flow):
                raise ValidationError("flow %d must be a Flow, got %r" % (i, flow))
            for j in flow.path:  # an id below n; type() first, as nearly every hop is an int
                if not ((type(j) is int or _is_id(j)) and 0 <= j < n):
                    raise ValidationError(
                        "flow %d crosses unknown server %s (n=%d)" % (i, _shown(j), n))

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @property
    def num_flows(self) -> int:
        return len(self.flows)


class Topology(enum.Enum):
    """Topology class of the induced graph, most specific first."""

    TANDEM = "tandem"
    TREE = "tree"
    FEED_FORWARD = "feed-forward"
    CYCLIC = "cyclic"


def induced_graph(net: Network) -> FrozenSet[Arc]:
    """
    Arc set of the induced graph: the consecutive server pairs of all flow
    paths, deduplicated.

    >>> net = Network([RateLatency(2, 0)] * 3,
    ...               [Flow(TokenBucket(1, 1), (0, 1, 2))])
    >>> sorted(induced_graph(net))
    [(0, 1), (1, 2)]
    """
    return frozenset(chain.from_iterable(zip(p, p[1:]) for p in _paths(net)))


def is_acyclic(arcs: Sequence[Arc] | FrozenSet[Arc], n: int) -> bool:
    """True when the arc set over ``n`` vertices has no directed cycle."""
    try:
        topological_order(arcs, n)
    except ValidationError:
        return False
    return True


def classify(net: Network) -> Topology:
    """
    Most specific topology class of ``net``: tandem, tree (in-tree toward a
    single sink), feed-forward (acyclic) or cyclic.

    >>> chain = Network([RateLatency(2, 0)] * 3,
    ...                 [Flow(TokenBucket(1, 1), (0, 1, 2))])
    >>> classify(chain).value
    'tandem'
    """
    arcs = induced_graph(net)
    n = net.num_servers
    if not is_acyclic(arcs, n):
        return Topology.CYCLIC
    if arcs == {(j, j + 1) for j in range(n - 1)}:
        return Topology.TANDEM
    if len({u for u, _ in arcs}) == len(arcs) == n - 1:  # one sink, every other vertex one arc out
        return Topology.TREE
    return Topology.FEED_FORWARD


def topological_order(arcs: Sequence[Arc] | FrozenSet[Arc], n: int) -> List[int]:
    """
    The ``n`` vertices in the order :func:`renumber` gives them: a
    topological order of the arcs that always takes the smallest ready
    vertex next.

    :raises ValidationError: when the arcs have a cycle
    """
    successors: List[List[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for u, v in arcs:
        successors[u].append(v)
        indegree[v] += 1
    ready = [j for j in range(n) if indegree[j] == 0]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        j = heapq.heappop(ready)
        order.append(j)
        for v in successors[j]:
            indegree[v] -= 1
            if indegree[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != n:
        raise ValidationError("cannot renumber a cyclic network")
    return order


def renumber(net: Network) -> Tuple[Network, List[int]]:
    """
    Relabel servers along a topological order of the induced graph, so that
    every arc goes from a lower to a higher index (for a tree: each server's
    successor has a larger index and the sink is the last server).

    Ties are broken by the original index, so a conforming network maps to
    itself.  Returns the relabelled network and the mapping
    ``old_to_new[old_id] = new_id``.

    :raises ValidationError: when the induced graph has a cycle
    """
    order = topological_order(induced_graph(net), net.num_servers)
    old_to_new = [0] * len(order)
    for new, old in enumerate(order):
        old_to_new[old] = new
    servers = tuple(net.servers[old] for old in order)
    flows = tuple(
        Flow(f.arrival, tuple(old_to_new[j] for j in f.path)) for f in net.flows
    )
    return Network(servers, flows), old_to_new


@dataclass(frozen=True)
class _FlowNumbers:
    """
    The flow half of a network's numbers (:func:`_flow_numbers`), what
    depends on its flows alone: ``rate`` and ``burst`` per flow, and per
    server ``load``, the aggregate rate, added in flow order.
    """

    rate: np.ndarray  # per flow
    burst: np.ndarray  # per flow
    load: np.ndarray  # per server


@dataclass(frozen=True)
class _Numbers:
    """
    A network's numbers as arrays in id order: what binds a rate-free
    structure (a view, a decomposition, a pair layout) to one network.
    The flow half (:class:`_FlowNumbers`), then the server half
    (:func:`_server_numbers`): ``unstable`` marks the servers that are not
    strictly stable, the classes :func:`local_stability` reports.
    """

    rate: np.ndarray  # per flow
    burst: np.ndarray  # per flow
    service_rate: np.ndarray  # per server
    latency: np.ndarray  # per server
    load: np.ndarray  # per server
    unstable: np.ndarray  # per server: load >= service rate


def _paths(net: Network) -> Tuple[Tuple[int, ...], ...]:
    return tuple([f.path for f in net.flows])  # a list, as in topologies._rotations


def _hops(paths: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Each path's length, and the server of every hop of every path, in flow order."""
    length = np.fromiter(map(len, paths), np.intp, len(paths))
    return length, np.fromiter(chain.from_iterable(paths), np.intp, int(length.sum()))


def _flow_numbers(net: Network) -> _FlowNumbers:
    """The numbers of ``net`` that its flows alone fix: see :class:`_FlowNumbers`."""
    length, server = _hops(_paths(net))
    rate = np.array([f.arrival.rate for f in net.flows], dtype=float)
    # bincount adds its weights in input order: here every hop in flow order
    load = np.bincount(server, np.repeat(rate, length), net.num_servers)
    return _FlowNumbers(rate, np.array([f.arrival.burst for f in net.flows], dtype=float), load)


def _server_numbers(net: Network, flows: _FlowNumbers) -> _Numbers:
    """
    The numbers of ``net`` from a flow half ``flows`` and its servers:
    ``flows`` may be ``net``'s own, or gathered by a structure's ``bind``,
    which keeps the loads.
    """
    service_rate = np.array([s.rate for s in net.servers], dtype=float)
    return _Numbers(
        flows.rate,
        flows.burst,
        service_rate,
        np.array([s.latency for s in net.servers], dtype=float),
        flows.load,
        ~(flows.load < service_rate),
    )


def _numbers(net: Network) -> _Numbers:
    """The numbers of ``net``: its flow half, then its server half."""
    return _server_numbers(net, _flow_numbers(net))


def _require_local_stability(unstable: np.ndarray) -> None:
    """Raise :class:`LocallyUnstableError` naming every server the mask ``unstable`` marks."""
    if unstable.any():
        raise LocallyUnstableError(
            "servers %r are not strictly stable" % np.flatnonzero(unstable).tolist()
        )


def _is_id(i) -> bool:
    """An id: an integer, numpy's too, never a ``bool``."""
    return type(i) is int or isinstance(i, numbers.Integral) and not isinstance(i, bool)


def _shown(i) -> str:
    """``i`` as a message names it: an id as a plain integer, numpy's too, else by ``repr``."""
    return repr(int(i) if _is_id(i) else i)


def _check_id(i, count, error, message: str) -> None:
    """Raise ``error(message % _shown(i))`` unless ``i`` is an id below ``count``."""
    if not (_is_id(i) and 0 <= i < count):
        raise error(message % _shown(i))


def _listed(interest: Iterable) -> List:
    """
    ``interest`` as a list, to be checked as given (a set would fold ``True``
    into ``1``), or :class:`InterestNotAtRootError` when it is no iterable.
    """
    try:
        return list(interest)
    except TypeError:
        raise InterestNotAtRootError("interest must be flow ids, got %r" % (interest,)) from None


def _check_interest(interest: Iterable, num_flows: int, at_root, root: int) -> FrozenSet[int]:
    """
    The flows of ``interest`` as a frozenset, the check of the tree
    analysis and of its oracle alike: raise :class:`InterestNotAtRootError`
    for the first flow, in the caller's order, that is no flow id or is not
    in ``at_root``, the flows crossing the root server ``root``, or for
    ``interest`` whole when it is no iterable.  The flows are frozen only
    once checked, as a set would fold ``True`` into ``1``.
    """
    interest = _listed(interest)
    for i in interest:
        _check_id(i, num_flows, InterestNotAtRootError, "unknown flow id %s")
        if i not in at_root:
            raise InterestNotAtRootError("flow %d does not cross server %d" % (i, root))
    return frozenset(interest)


def _check_arcs(arcs, allowed: FrozenSet[Arc], name: str, where: str) -> List[Arc]:
    """
    The arcs of ``arcs`` as a list, checked as given, as a set would fold
    ``(3, False)`` into ``(3, 0)``: raise :class:`ValidationError` naming
    the arcs, sorted, that are no pair of ids in ``allowed``, or naming
    ``arcs`` whole when it is no iterable of hashable values in some order.
    """
    try:
        arcs = list(arcs)
        extra = sorted({a for a in arcs if a not in allowed or not all(map(_is_id, a))})
    except TypeError:
        raise ValidationError("%s must be server pairs, got %r" % (name, arcs)) from None
    if extra:
        raise ValidationError("%s not in %s: %r" % (name, where, extra))
    return arcs


@dataclass(frozen=True)
class LocalStability:
    """Per-server stability classes and the overall verdict."""

    per_server: Tuple[ServerClass, ...]
    stable: bool

    def unstable_servers(self) -> List[int]:
        return [j for j, c in enumerate(self.per_server) if c is not ServerClass.STABLE]


def local_stability(net: Network) -> LocalStability:
    """
    Classify every server against the sum of the initial arrival curves of
    the flows crossing it.  The network is locally stable only when every
    server is strictly stable (critical servers fail the verdict).

    The class reads only the aggregate rate, each server's load in
    :func:`_numbers`.

    >>> net = Network([RateLatency(2, 0)], [Flow(TokenBucket(1, 1), (0,))])
    >>> local_stability(net).stable
    True
    """
    classes = tuple([
        classify_server(TokenBucket(0.0, r), beta)
        for r, beta in zip(_numbers(net).load.tolist(), net.servers)
    ])
    return LocalStability(classes, all(c is ServerClass.STABLE for c in classes))
