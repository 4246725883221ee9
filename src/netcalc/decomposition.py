#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
Feed-forward transformation of a network: removing arcs until the induced
graph is acyclic (:func:`removal_tree`), splitting each flow into segments
at the removed arcs (:func:`decompose`, which returns the segments), and
grouping the segments by the removed arc between them
(:func:`group_by_arc`).

The split is read off the network's hop arrays (``_Split``), with no
loop over hops or segments; one induced graph serves the default removal
and the checks.  :func:`decompose` is a view over it, and the stability
module prepares its decompositions from its arrays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .network import Arc, Network, _check_id, _hops, _is_id, _paths, induced_graph, is_acyclic


@dataclass(frozen=True)
class SplitFlow:
    """
    One segment of a flow after the feed-forward transformation.

    :param origin: id of the flow this segment comes from
    :param segment: 0-based position of the segment along the original flow
    :param path: servers crossed by this segment

    The burst of a segment is only known a priori for first segments
    (``segment == 0``); later segments inherit the rate but their burst is
    the unknown the fix-point methods solve for.
    """

    origin: int
    segment: int
    path: Tuple[int, ...]

    @property
    def label(self) -> Tuple[int, int]:
        return (self.origin, self.segment)


class _Split:
    """
    :func:`decompose` by ``removed`` (default: :func:`removal_tree`) as
    arrays: per hop in flow order ``server``, ``flow`` and ``segment``; per
    segment ``start`` (its first hop), ``length``, ``origin`` and ``number``.
    A continuation (``number >= 1``) follows the segment before it across
    a removed arc.
    """

    def __init__(self, net: Network, removed=None):
        arcs, n = induced_graph(net), net.num_servers
        # checked as given, then frozen: a set would fold (3, False) into (3, 0)
        removed = _removal(arcs, n) if removed is None else list(removed)
        extra = {a for a in removed if a not in arcs or not all(map(_is_id, a))}
        if extra:
            raise ValidationError("removed arcs not in induced graph: %r" % sorted(extra))
        self.paths, self.num_servers, self.removed = _paths(net), n, frozenset(removed)
        if not is_acyclic(arcs - self.removed, n):
            raise ValidationError("residual graph still has a cycle")
        length, server = _hops(self.paths)
        flow = np.repeat(np.arange(len(self.paths)), length)
        cut = np.zeros((n, n), dtype=bool)
        cut[tuple(np.array(list(removed), dtype=np.intp).reshape(-1, 2).T)] = True
        # a hop opens a segment when it is its flow's first or follows a removed arc
        opens = np.ones(len(server), dtype=bool)
        opens[1:] = (flow[1:] != flow[:-1]) | cut[server[:-1], server[1:]]
        self.server, self.flow, self.segment = server, flow, np.cumsum(opens) - 1
        self.start = start = np.flatnonzero(opens)
        self.length = np.diff(np.append(start, len(server)))
        self.origin = flow[start]
        self.number = np.arange(len(start)) - self.segment[np.cumsum(length) - length][self.origin]


def decompose(net: Network, removed) -> Tuple[SplitFlow, ...]:
    """
    Split every flow of ``net`` at each traversal of an arc in ``removed``.
    The segments come in flow order, each flow's in path order; each
    inherits its origin flow's rate.

    :raises ValidationError: if some removed arc is not an induced arc, or
        if the residual graph still has a cycle

    >>> from .curves import RateLatency, TokenBucket
    >>> from .network import Flow
    >>> net = Network([RateLatency(5, 0)] * 2,
    ...               [Flow(TokenBucket(1, 1), (0, 1)),
    ...                Flow(TokenBucket(1, 1), (1, 0))])
    >>> [(sf.label, sf.path) for sf in decompose(net, {(1, 0)})]
    [((0, 0), (0, 1)), ((1, 0), (1,)), ((1, 1), (0,))]
    """
    split = _Split(net, list(removed))
    hops = split.server.tolist()
    bounds = np.append(split.start, len(hops)).tolist()
    paths = [tuple(hops[a:b]) for a, b in zip(bounds, bounds[1:])]
    return tuple(map(SplitFlow, split.origin.tolist(), split.number.tolist(), paths))


def removal_tree(net: Network, root: Optional[int] = None) -> FrozenSet[Arc]:
    """
    Heuristic arc removal leaving an in-forest: keep a BFS in-tree of the
    arcs reverse-reachable from ``root`` (default: the highest-index
    server), remove everything else.  Deterministic: the BFS queue is FIFO
    and predecessors are explored in increasing index order.

    On a ring this removes exactly the arc closing the cycle at the root.
    Finding a minimum removal is NP-complete, hence the heuristic; any
    user-chosen removal can be passed to :func:`decompose` directly.

    :raises ValidationError: when ``root`` is no server id
    """
    return _removal(induced_graph(net), net.num_servers, root)


def _removal(arcs: FrozenSet[Arc], n: int, root: Optional[int] = None) -> FrozenSet[Arc]:
    """:func:`removal_tree` on the induced arcs of a network of ``n`` servers."""
    if root is None:
        root = n - 1
    _check_id(root, n, ValidationError, "unknown root server %s")
    predecessors: Dict[int, List[int]] = {j: [] for j in range(n)}
    for u, v in arcs:
        predecessors[v].append(u)
    kept = set()
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in sorted(predecessors[v]):
            if u not in seen:
                seen.add(u)
                kept.add((u, v))
                queue.append(u)
    return frozenset(arcs - kept)


@dataclass(frozen=True)
class ArcGroups:
    """
    Grouping of the split flows by removed arc.

    ``feeding[a]`` holds the segments ending at the tail of ``a`` whose
    continuation starts at its head; ``continuations[a]`` holds those
    continuations, and ``arc_of`` maps each continuation back to ``a``.
    """

    feeding: Dict[Arc, FrozenSet[int]]
    continuations: Dict[Arc, FrozenSet[int]]
    arc_of: Dict[int, Arc]


def group_by_arc(split_flows: Sequence[SplitFlow]) -> ArcGroups:
    """
    Group continuations according to the removed arc they cross, the arc
    from the end of the previous segment of the same flow to their start.
    Every arc :func:`decompose` removes is an induced arc, so some flow
    crosses it and it has a group.

    >>> from .curves import RateLatency, TokenBucket
    >>> from .network import Flow
    >>> net = Network([RateLatency(5, 0)] * 2,
    ...               [Flow(TokenBucket(1, 1), (0, 1)),
    ...                Flow(TokenBucket(1, 1), (1, 0))])
    >>> groups = group_by_arc(decompose(net, {(1, 0)}))
    >>> groups.feeding, groups.continuations
    ({(1, 0): frozenset({1})}, {(1, 0): frozenset({2})})
    >>> groups.arc_of
    {2: (1, 0)}
    """
    index = {sf.label: s for s, sf in enumerate(split_flows)}
    feeding: Dict[Arc, set] = {}
    continuations: Dict[Arc, set] = {}
    arc_of: Dict[int, Arc] = {}
    for s, sf in enumerate(split_flows):
        if sf.segment:
            prev = index[(sf.origin, sf.segment - 1)]
            arc_of[s] = arc = (split_flows[prev].path[-1], sf.path[0])
            feeding.setdefault(arc, set()).add(prev)
            continuations.setdefault(arc, set()).add(s)
    return ArcGroups(
        {arc: frozenset(members) for arc, members in feeding.items()},
        {arc: frozenset(members) for arc, members in continuations.items()},
        arc_of,
    )
