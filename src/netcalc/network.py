#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
Network model: rate-latency servers crossed by token-bucket flows, the
induced server graph, topology classification and local stability.

Servers and flows are identified by their 0-based list positions.  The
JSON file format (see :mod:`netcalc.fileio`) uses 1-based identifiers.
"""

from __future__ import annotations

import graphlib
import heapq
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Set, Tuple

import enum

from .curves import RateLatency, ServerClass, TokenBucket, classify_server
from .errors import ValidationError

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
        object.__setattr__(self, "path", tuple(self.path))
        if len(self.path) == 0:
            raise ValidationError("flow path must be nonempty")
        if len(set(self.path)) != len(self.path):
            raise ValidationError("flow path revisits a server: %r" % (self.path,))

    @property
    def source(self) -> int:
        return self.path[0]

    @property
    def destination(self) -> int:
        return self.path[-1]


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
        object.__setattr__(self, "servers", tuple(self.servers))
        object.__setattr__(self, "flows", tuple(self.flows))
        n = len(self.servers)
        if n == 0:
            raise ValidationError("network needs at least one server")
        for i, flow in enumerate(self.flows):
            for j in flow.path:
                if not (0 <= j < n):
                    raise ValidationError(
                        "flow %d crosses unknown server %d (n=%d)" % (i, j, n)
                    )

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
    arcs: Set[Arc] = set()
    for flow in net.flows:
        for u, v in zip(flow.path, flow.path[1:]):
            arcs.add((u, v))
    return frozenset(arcs)


def is_acyclic(arcs: Sequence[Arc] | FrozenSet[Arc], n: int) -> bool:
    """True when the arc set over ``n`` vertices has no directed cycle."""
    sorter = graphlib.TopologicalSorter({j: [] for j in range(n)})
    for u, v in arcs:
        sorter.add(v, u)
    try:
        sorter.prepare()
    except graphlib.CycleError:
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
    out_degree = [0] * n
    for u, _ in arcs:
        out_degree[u] += 1
    if out_degree.count(0) == 1 and all(d <= 1 for d in out_degree):
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


def flows_through(net: Network, server: int) -> FrozenSet[int]:
    """Ids of the flows whose path crosses ``server``."""
    if not (0 <= server < net.num_servers):
        raise ValidationError("unknown server %d" % server)
    return frozenset(i for i, f in enumerate(net.flows) if server in f.path)


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

    The class reads only the aggregate rate, so one pass over the flow
    paths sums the rates, in flow order.  (Summing each server's flows in
    ``flows_through`` order instead moves the last bit of the load on 17
    of the 6980 servers of the benchmark's ``analyze_many`` pool, and no
    class.)

    >>> net = Network([RateLatency(2, 0)], [Flow(TokenBucket(1, 1), (0,))])
    >>> local_stability(net).stable
    True
    """
    load = [0.0] * net.num_servers
    for f in net.flows:
        for j in f.path:
            load[j] += f.arrival.rate
    classes = tuple(
        classify_server(TokenBucket(0.0, r), beta) for r, beta in zip(load, net.servers)
    )
    return LocalStability(classes, all(c is ServerClass.STABLE for c in classes))
